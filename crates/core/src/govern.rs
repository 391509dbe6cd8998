//! Unified resource governance: budgets, deadlines, memory ceilings,
//! cancellation, and graceful degradation.
//!
//! The paper's §6.2 story — CPS-style analyses blow up exponentially and
//! the semantic-CPS analysis is outright non-computable under `loop` — is a
//! robustness problem as much as a complexity one. The bare goal counter of
//! [`AnalysisBudget`] turns a hang into an error, but an error is still a
//! non-answer: a `BudgetExhausted` run yields nothing even though the
//! direct-style analyzer (a sound over-approximation per §5) would have
//! answered the same request comfortably. This module closes that gap in
//! two layers:
//!
//! * [`RunGuard`] — one charge point combining the goal budget with a
//!   wall-clock [`Deadline`], an arena/set-pool memory ceiling, a shared
//!   atomic [`CancelToken`], and an optional injected
//!   [`FaultPlan`]. The
//!   [`WorklistSolver`](crate::solver::WorklistSolver) charges every
//!   constraint firing and the three abstract interpreters charge every
//!   goal through the same guard, so all resources are enforced uniformly
//!   on every fixpoint path.
//! * [`DegradationLadder`] — on resource exhaustion (or an isolated
//!   panic), retry the request at the next-coarser rung and return a
//!   [`Governed`] answer carrying a machine-readable
//!   [`DegradationReport`] (rungs tried, resource that tripped, residual
//!   budget) emitted through [`TraceSink`].
//!
//! # Why every rung is sound
//!
//! Degradation trades precision, never soundness. Each rung of the
//! canonical ladders satisfies the §4.3 correctness criterion on its own:
//! if a variable is bound to a value along any concrete execution, the
//! rung's abstract result contains it. The direct-style analysis is sound
//! for the direct semantics (Theorem 4.2's construction); falling from a
//! CPS-based rung to it only *widens* answers (§5: the CPS analyses refine
//! direct-style answers, so the direct answer over-approximates both). A
//! degraded answer is therefore still a safe answer, just a less precise
//! one.

use crate::budget::{AnalysisBudget, AnalysisError};
use crate::cache::AnalysisKind;
use crate::cfa::{self, CfaResult, CpsCfaResult};
use crate::domain::Flat;
use crate::faultinject::FaultPlan;
use crate::mfp::{Cfg, DfSummary};
use crate::pushdown::{self, PushdownCfaResult};
use crate::solver::SolverMode;
use crate::trace::TraceSink;
use cpsdfa_anf::AnfProgram;
use cpsdfa_cps::CpsProgram;
use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many charges pass between wall-clock/cancellation checks on the
/// guard's hot path. Budget and fault checks are exact (they are integer
/// compares); `Instant::now` and the atomic load are amortized.
const INTERRUPT_PERIOD: u64 = 64;

/// A shared cancellation flag: `Clone + Send + Sync`, checkable from
/// solver steps, interpreter goals, and parallel workers alike. Cancelling
/// is idempotent and sticky.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Trips the token. All holders of clones observe it.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether the token has been tripped.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }

    /// The raw atomic flag — the std-only interface for crates (like
    /// `cpsdfa-workloads`) that must observe cancellation without
    /// depending on this crate.
    pub fn as_flag(&self) -> &AtomicBool {
        &self.flag
    }

    /// A shared handle to the raw flag, for workers that need ownership.
    pub fn shared_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.flag)
    }
}

/// An absolute wall-clock deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    at: Instant,
}

impl Deadline {
    /// A deadline `d` from now.
    pub fn within(d: Duration) -> Self {
        Deadline {
            at: Instant::now() + d,
        }
    }

    /// A deadline at an absolute instant.
    pub fn at(at: Instant) -> Self {
        Deadline { at }
    }

    /// Whether the deadline has passed.
    pub fn expired(&self) -> bool {
        Instant::now() >= self.at
    }

    /// Time left before expiry (zero once expired).
    pub fn remaining(&self) -> Duration {
        self.at.saturating_duration_since(Instant::now())
    }
}

/// The budget for one *warm* re-solve attempt, sized from the cost of the
/// previous solve: a warm start that fires more than a few multiples of
/// the from-scratch cost has lost its reason to exist, so the attempt is
/// cut off and the caller degrades to a cold solve (the additive floor
/// keeps tiny programs from being cut off by rounding).
pub fn warm_attempt_budget(prev_iterations: u64) -> AnalysisBudget {
    AnalysisBudget::new(prev_iterations.saturating_mul(4).saturating_add(1_000))
}

/// The shared interior of a [`RunGuard`]. Counters are [`Cell`]s because
/// every fixpoint engine in this crate is single-threaded by construction
/// (a run owns its guard, its set pools and its node store, and shares
/// none of them with another thread); the one cross-thread channel,
/// cancellation, goes through the atomic [`CancelToken`].
#[derive(Debug, Clone)]
struct GuardState {
    budget: AnalysisBudget,
    deadline: Option<Deadline>,
    memory_limit: Option<u64>,
    cancel: Option<CancelToken>,
    fault: Option<FaultPlan>,
    /// Charges since the last [`RunGuard::begin_rung`] — what the budget
    /// bounds, so every ladder rung gets the full budget.
    charged: Cell<u64>,
    /// Optional cap on the *cumulative* charge count across all rungs.
    /// Unlike the per-rung budget this is never reset by
    /// [`RunGuard::begin_rung`] — it bounds the whole request, which is
    /// what an admission controller reserves against before queuing.
    request_budget: Option<u64>,
    /// Charges across the whole guarded request — what fault schedules
    /// index, so an injected fault cannot re-fire in a fallback rung.
    total: Cell<u64>,
    mem_peak: Cell<u64>,
}

/// The unified charge point for every governed resource.
///
/// One guard governs one request end to end: the solver charges a unit per
/// constraint firing, the abstract interpreters a unit per goal, and the
/// CFA drivers report their arena footprint through
/// [`charge_memory`](RunGuard::charge_memory). Cloning is cheap and
/// *shares* the counters (the clone is a handle, not a fresh guard) — this
/// is how analyzers hold the guard across builder boundaries.
#[derive(Debug, Clone)]
pub struct RunGuard {
    state: Rc<GuardState>,
}

impl RunGuard {
    /// A guard enforcing only `budget` — the drop-in equivalent of the
    /// pre-governance bare budget check.
    pub fn new(budget: AnalysisBudget) -> Self {
        RunGuard {
            state: Rc::new(GuardState {
                budget,
                deadline: None,
                memory_limit: None,
                cancel: None,
                fault: None,
                charged: Cell::new(0),
                request_budget: None,
                total: Cell::new(0),
                mem_peak: Cell::new(0),
            }),
        }
    }

    /// Caps the *cumulative* charge count across the whole request (all
    /// rungs). [`begin_rung`](RunGuard::begin_rung) resets the per-rung
    /// budget but never this cap, so a ladder cannot spend more than
    /// `cap` in total no matter how many fallback rungs it tries — the
    /// enforcement half of service admission control.
    #[must_use]
    pub fn with_request_budget(mut self, cap: u64) -> Self {
        Rc::make_mut(&mut self.state).request_budget = Some(cap);
        self
    }

    /// Adds a wall-clock deadline (checked every `INTERRUPT_PERIOD`
    /// charges and at every rung boundary).
    #[must_use]
    pub fn with_deadline(mut self, deadline: Deadline) -> Self {
        Rc::make_mut(&mut self.state).deadline = Some(deadline);
        self
    }

    /// Adds a ceiling (bytes) on the arena/set-pool footprint reported via
    /// [`charge_memory`](RunGuard::charge_memory).
    #[must_use]
    pub fn with_memory_limit(mut self, limit_bytes: u64) -> Self {
        Rc::make_mut(&mut self.state).memory_limit = Some(limit_bytes);
        self
    }

    /// Attaches a cancellation token.
    #[must_use]
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        Rc::make_mut(&mut self.state).cancel = Some(token);
        self
    }

    /// Arms a deterministic fault plan on the charge path (testing only).
    #[must_use]
    pub fn with_fault(mut self, plan: FaultPlan) -> Self {
        Rc::make_mut(&mut self.state).fault = Some(plan);
        self
    }

    /// Charges spent since the last rung boundary.
    pub fn spent(&self) -> u64 {
        self.state.charged.get()
    }

    /// Charges spent across the whole request (all rungs).
    pub fn total_spent(&self) -> u64 {
        self.state.total.get()
    }

    /// The whole-request charge cap, if one is set.
    pub fn request_budget(&self) -> Option<u64> {
        self.state.request_budget
    }

    /// Charges left under the whole-request cap (`u64::MAX` when uncapped).
    pub fn request_remaining(&self) -> u64 {
        match self.state.request_budget {
            Some(cap) => cap.saturating_sub(self.total_spent()),
            None => u64::MAX,
        }
    }

    /// Budget left in the current rung.
    pub fn residual_budget(&self) -> u64 {
        self.state.budget.max_goals().saturating_sub(self.spent())
    }

    /// Peak memory footprint reported so far (bytes).
    pub fn mem_peak(&self) -> u64 {
        self.state.mem_peak.get()
    }

    /// Resets the per-rung charge counter at a ladder rung boundary. The
    /// cumulative `total` counter (fault schedules), the deadline (absolute
    /// wall clock), the memory peak, and the cancel token all carry over.
    pub fn begin_rung(&self) {
        self.state.charged.set(0);
    }

    /// Charges `n` units (solver firings / interpreter goals) against the
    /// guard. This is the shim every governed fixpoint passes through: it
    /// pokes the fault plan (exact), enforces the budget (exact), and every
    /// `INTERRUPT_PERIOD` charges polls the deadline and cancel token.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::BudgetExhausted`],
    /// [`AnalysisError::DeadlineExceeded`], [`AnalysisError::Cancelled`],
    /// or whatever the armed fault plan reports.
    #[inline]
    pub fn charge(&self, n: u64) -> Result<(), AnalysisError> {
        let s = &*self.state;
        let c = s.charged.get() + n;
        s.charged.set(c);
        let t = s.total.get() + n;
        s.total.set(t);
        if let Some(plan) = &s.fault {
            plan.poke(t, s.budget.max_goals(), s.cancel.as_ref())?;
        }
        if c > s.budget.max_goals() {
            return Err(AnalysisError::BudgetExhausted {
                budget: s.budget.max_goals(),
            });
        }
        if let Some(cap) = s.request_budget {
            if t > cap {
                return Err(AnalysisError::BudgetExhausted { budget: cap });
            }
        }
        if c.is_multiple_of(INTERRUPT_PERIOD) {
            self.check_interrupts()?;
        }
        Ok(())
    }

    /// Reports the current arena/set-pool footprint and enforces the
    /// memory ceiling. Also tracks the peak, which the `pipeline.*`/pool
    /// gauges and the [`DegradationReport`] surface.
    #[inline]
    pub fn charge_memory(&self, bytes: u64) -> Result<(), AnalysisError> {
        let s = &*self.state;
        if bytes > s.mem_peak.get() {
            s.mem_peak.set(bytes);
        }
        match s.memory_limit {
            Some(limit) if bytes > limit => {
                Err(AnalysisError::MemoryExhausted { limit_bytes: limit })
            }
            _ => Ok(()),
        }
    }

    /// Unamortized deadline + cancellation check (used at rung boundaries
    /// and by long-running non-charging loops).
    pub fn check_interrupts(&self) -> Result<(), AnalysisError> {
        let s = &*self.state;
        if let Some(token) = &s.cancel {
            if token.is_cancelled() {
                return Err(AnalysisError::Cancelled);
            }
        }
        if let Some(deadline) = s.deadline {
            if deadline.expired() {
                return Err(AnalysisError::DeadlineExceeded);
            }
        }
        Ok(())
    }
}

/// The declarative configuration a governed driver is called with; a
/// [`guard`](GovernPolicy::guard) is derived per request (converting the
/// relative deadline to an absolute one and re-arming any fault plan).
#[derive(Debug, Clone, Default)]
pub struct GovernPolicy {
    budget: AnalysisBudget,
    request_budget: Option<u64>,
    deadline: Option<Duration>,
    memory_limit: Option<u64>,
    cancel: Option<CancelToken>,
    fault: Option<FaultPlan>,
}

impl GovernPolicy {
    /// The default policy: the default [`AnalysisBudget`], no deadline, no
    /// memory ceiling, no cancellation, no faults.
    pub fn new() -> Self {
        GovernPolicy::default()
    }

    /// Replaces the goal budget (per ladder rung).
    #[must_use]
    pub fn with_budget(mut self, budget: AnalysisBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Caps the cumulative charges across the *whole request* — all ladder
    /// rungs together ([`RunGuard::with_request_budget`]). Without this,
    /// [`begin_rung`](RunGuard::begin_rung) hands every fallback rung a
    /// fresh per-rung budget, so a request's worst case is
    /// `rung_budget × rungs`; an admission controller that must reject
    /// *before* queuing reserves against this cap instead.
    #[must_use]
    pub fn with_request_budget(mut self, cap: u64) -> Self {
        self.request_budget = Some(cap);
        self
    }

    /// The whole-request charge cap, if one is set.
    pub fn request_budget(&self) -> Option<u64> {
        self.request_budget
    }

    /// The per-rung goal budget ([`AnalysisBudget::max_goals`]).
    pub fn rung_budget(&self) -> u64 {
        self.budget.max_goals()
    }

    /// The most charges a request under this policy can consume when its
    /// ladder has `rungs` rungs: the request cap if one is set, else the
    /// per-rung budget times the rung count (every rung may burn its full
    /// budget before falling through). This is the quantity a service's
    /// admission controller reserves against capacity.
    pub fn worst_case_charges(&self, rungs: u64) -> u64 {
        match self.request_budget {
            Some(cap) => cap,
            None => self.budget.max_goals().saturating_mul(rungs.max(1)),
        }
    }

    /// Sets a wall-clock allowance for the whole request (all rungs).
    #[must_use]
    pub fn with_deadline(mut self, allowance: Duration) -> Self {
        self.deadline = Some(allowance);
        self
    }

    /// Sets the arena/set-pool memory ceiling in bytes.
    #[must_use]
    pub fn with_memory_limit(mut self, limit_bytes: u64) -> Self {
        self.memory_limit = Some(limit_bytes);
        self
    }

    /// Attaches a cancellation token shared with the caller.
    #[must_use]
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Arms a fault plan (testing only).
    #[must_use]
    pub fn with_fault(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Returns the policy unchanged: there is one engine to select. Kept
    /// because `cpsbench/src/replay.rs` calls it.
    #[must_use]
    pub fn with_solver_mode(self, _mode: SolverMode) -> Self {
        self
    }

    /// Always [`SolverMode::Seq`]. Kept because `cpsbench/src/replay.rs`
    /// calls it.
    pub fn solver_mode(&self) -> SolverMode {
        SolverMode::Seq
    }

    /// Derives a fresh [`RunGuard`] for one request: the deadline clock
    /// starts now, counters start at zero, and the fault plan is a fresh
    /// armed copy (plans are one-shot per guard, not per policy).
    pub fn guard(&self) -> RunGuard {
        let mut guard = RunGuard::new(self.budget);
        if let Some(cap) = self.request_budget {
            guard = guard.with_request_budget(cap);
        }
        if let Some(allowance) = self.deadline {
            guard = guard.with_deadline(Deadline::within(allowance));
        }
        if let Some(limit) = self.memory_limit {
            guard = guard.with_memory_limit(limit);
        }
        if let Some(token) = &self.cancel {
            guard = guard.with_cancel(token.clone());
        }
        if let Some(plan) = &self.fault {
            guard = guard.with_fault(plan.clone());
        }
        guard
    }
}

/// One rung attempt in a [`DegradationReport`]: which rung ran, what
/// stopped it (`None` = it answered), and what it charged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RungAttempt {
    /// The rung's name (e.g. `cfa.cps`, `direct.flat`).
    pub rung: &'static str,
    /// `None` if the rung completed; otherwise the error that tripped it.
    pub error: Option<AnalysisError>,
    /// Charges (firings/goals) the rung consumed.
    pub charged: u64,
}

/// The machine-readable account of a governed request: every rung tried,
/// the first resource that tripped, and the residual budget of the
/// answering rung. Emitted through [`TraceSink`] as `govern.*` events and
/// serializable via [`to_json`](DegradationReport::to_json).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DegradationReport {
    /// Rungs in attempt order; the last entry answered iff the request
    /// succeeded.
    pub attempts: Vec<RungAttempt>,
    /// The first resource that tripped (`budget`, `deadline`, `memory`,
    /// `panic`, `cancel`), or `None` if the first rung answered.
    pub resource: Option<&'static str>,
    /// Budget left in the rung that answered (or in the last rung tried).
    pub residual_budget: u64,
    /// Wall-clock latency of the whole ladder, nanoseconds.
    pub elapsed_ns: u64,
}

impl DegradationReport {
    /// Whether the answer came from a fallback rung. `false` both for a
    /// first-rung answer and for a run where every rung failed (no answer
    /// means nothing was degraded *to*).
    pub fn degraded(&self) -> bool {
        self.attempts.len() > 1 && self.answered_by().is_some()
    }

    /// How many rungs ran.
    pub fn rungs_tried(&self) -> usize {
        self.attempts.len()
    }

    /// The name of the rung that answered, if any.
    pub fn answered_by(&self) -> Option<&'static str> {
        match self.attempts.last() {
            Some(a) if a.error.is_none() => Some(a.rung),
            _ => None,
        }
    }

    /// Serializes the report as one JSON object (stable field order; no
    /// serde dependency, same discipline as the JSONL trace sink).
    pub fn to_json(&self) -> String {
        let attempts: Vec<String> = self
            .attempts
            .iter()
            .map(|a| {
                format!(
                    "{{\"rung\": \"{}\", \"outcome\": \"{}\", \"charged\": {}}}",
                    json_escape(a.rung),
                    a.error.as_ref().map_or("ok", |e| e.resource()),
                    a.charged,
                )
            })
            .collect();
        format!(
            "{{\"degraded\": {}, \"resource\": {}, \"residual_budget\": {}, \
             \"elapsed_ns\": {}, \"attempts\": [{}]}}",
            self.degraded(),
            self.resource
                .map_or("null".to_owned(), |r| format!("\"{}\"", json_escape(r))),
            self.residual_budget,
            self.elapsed_ns,
            attempts.join(", "),
        )
    }

    /// Flushes the report into a trace sink: `govern.runs`,
    /// `govern.rungs_tried`, `govern.degraded`, `govern.trip.<resource>`
    /// counters, the `govern.residual_budget` gauge, and the
    /// `govern.latency_ns` timer.
    pub fn emit_into(&self, sink: &mut impl TraceSink) {
        if !sink.enabled() {
            return;
        }
        sink.counter("govern.runs", 1);
        sink.counter("govern.rungs_tried", self.attempts.len() as u64);
        sink.counter("govern.degraded", u64::from(self.degraded()));
        if let Some(resource) = self.resource {
            sink.counter(&format!("govern.trip.{resource}"), 1);
        }
        sink.gauge("govern.residual_budget", self.residual_budget);
        sink.time_ns("govern.latency_ns", self.elapsed_ns);
    }
}

/// A governed answer: the value plus the [`DegradationReport`] describing
/// how (and at what rung) it was obtained.
#[derive(Debug, Clone)]
pub struct Governed<T> {
    /// The answer, possibly from a coarser (but still sound) rung.
    pub value: T,
    /// The account of the run.
    pub report: DegradationReport,
}

/// A rung body: runs one analysis variant under the shared guard, tracing
/// into the request's sink.
type RungFn<'a, T> = Box<dyn FnMut(&RunGuard, &mut dyn TraceSink) -> Result<T, AnalysisError> + 'a>;

/// An ordered ladder of analysis rungs, finest first.
/// [`run`](DegradationLadder::run) tries each in turn under one
/// [`RunGuard`], falling to the next rung on any
/// [recoverable](AnalysisError::is_recoverable) error — resource
/// exhaustion or an isolated panic — and aborting immediately on
/// cancellation.
pub struct DegradationLadder<'a, T> {
    rungs: Vec<(&'static str, RungFn<'a, T>)>,
}

impl<'a, T> Default for DegradationLadder<'a, T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'a, T> DegradationLadder<'a, T> {
    /// An empty ladder.
    pub fn new() -> Self {
        DegradationLadder { rungs: Vec::new() }
    }

    /// Appends a rung (coarser than all rungs before it). The rung body
    /// must be sound standalone — see the module docs for the argument
    /// obligations.
    #[must_use]
    pub fn rung<F>(mut self, name: &'static str, body: F) -> Self
    where
        F: FnMut(&RunGuard, &mut dyn TraceSink) -> Result<T, AnalysisError> + 'a,
    {
        self.rungs.push((name, Box::new(body)));
        self
    }

    /// How many rungs the ladder holds.
    pub fn len(&self) -> usize {
        self.rungs.len()
    }

    /// Whether the ladder has no rungs.
    pub fn is_empty(&self) -> bool {
        self.rungs.is_empty()
    }

    /// Drives the ladder: each rung runs under `guard` (with a fresh
    /// per-rung budget slice via [`RunGuard::begin_rung`]) inside a
    /// `catch_unwind`, so a panicking rung degrades instead of aborting.
    /// The report — success or failure — is emitted into `sink`.
    ///
    /// # Errors
    ///
    /// The last rung's error if every rung failed;
    /// [`AnalysisError::Cancelled`] immediately if the token trips (an
    /// explicit stop request is never answered with a coarser rerun).
    ///
    /// # Panics
    ///
    /// If the ladder is empty.
    pub fn run<S: TraceSink>(
        self,
        guard: &RunGuard,
        sink: &mut S,
    ) -> Result<Governed<T>, AnalysisError> {
        assert!(
            !self.is_empty(),
            "DegradationLadder::run on an empty ladder"
        );
        let start = Instant::now();
        let mut attempts: Vec<RungAttempt> = Vec::new();
        let mut first_trip: Option<&'static str> = None;
        let mut last_err: Option<AnalysisError> = None;
        for (name, mut body) in self.rungs {
            guard.begin_rung();
            let result = match guard.check_interrupts() {
                Ok(()) => {
                    let reborrow: &mut S = &mut *sink;
                    match catch_unwind(AssertUnwindSafe(|| body(guard, reborrow))) {
                        Ok(r) => r,
                        Err(payload) => Err(AnalysisError::WorkerPanicked {
                            payload: panic_message(payload.as_ref()),
                        }),
                    }
                }
                Err(e) => Err(e),
            };
            match result {
                Ok(value) => {
                    attempts.push(RungAttempt {
                        rung: name,
                        error: None,
                        charged: guard.spent(),
                    });
                    let report = DegradationReport {
                        attempts,
                        resource: first_trip,
                        residual_budget: guard.residual_budget(),
                        elapsed_ns: start.elapsed().as_nanos() as u64,
                    };
                    report.emit_into(sink);
                    return Ok(Governed { value, report });
                }
                Err(e) => {
                    first_trip.get_or_insert(e.resource());
                    attempts.push(RungAttempt {
                        rung: name,
                        error: Some(e.clone()),
                        charged: guard.spent(),
                    });
                    let fatal = !e.is_recoverable();
                    last_err = Some(e);
                    if fatal {
                        break;
                    }
                }
            }
        }
        let report = DegradationReport {
            attempts,
            resource: first_trip,
            residual_budget: guard.residual_budget(),
            elapsed_ns: start.elapsed().as_nanos() as u64,
        };
        report.emit_into(sink);
        Err(last_err.expect("ladder ran at least one rung"))
    }
}

/// Renders a `catch_unwind` payload as a string, for
/// [`AnalysisError::WorkerPanicked`].
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

/// Minimal JSON string escaping (quotes and backslashes; rung names and
/// resource labels contain nothing else).
fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The answer of the governed 0CFA ladder: the CPS-level result when the
/// budget allowed it, otherwise the source-level (direct-style) result.
#[derive(Debug, Clone)]
pub enum CfaAnswer {
    /// The pushdown (summary-based, call/return-matched) answer — the
    /// finest rung, produced only by [`governed_pushdown_cfa`].
    Pushdown(PushdownCfaResult),
    /// The full CPS 0CFA answer.
    Cps(CpsCfaResult),
    /// The source-level fallback: coarser call/return structure (no
    /// continuation flows), still a sound account of the source program.
    Direct(CfaResult),
}

/// The rungs of each analysis kind's degradation ladder, finest first —
/// the ladders [`governed_pushdown_cfa`], [`governed_zero_cfa_cps`],
/// [`governed_zero_cfa`] and [`governed_mfp_flat`] run. Admission control
/// multiplies the per-rung budget by the rung count
/// ([`GovernPolicy::worst_case_charges`]).
pub fn ladder_rungs(kind: AnalysisKind) -> &'static [&'static str] {
    match kind {
        AnalysisKind::CfaPushdown => &["cfa.pushdown", "cfa.cps", "cfa.src"],
        AnalysisKind::CfaCps => &["cfa.cps", "cfa.src"],
        AnalysisKind::CfaSrc => &["cfa.src"],
        AnalysisKind::MfpFlat => &["mfp.flat"],
    }
}

/// Source-level 0CFA under full governance: a one-rung ladder
/// (`cfa.src`), so an exhausted resource is an error, not a degradation.
///
/// # Errors
///
/// When the rung trips (or the request is cancelled).
pub fn governed_zero_cfa(
    prog: &AnfProgram,
    policy: &GovernPolicy,
    sink: &mut impl TraceSink,
) -> Result<Governed<CfaResult>, AnalysisError> {
    DegradationLadder::new()
        .rung("cfa.src", |g: &RunGuard, mut sink: &mut dyn TraceSink| {
            Ok(cfa::zero_cfa_guarded(prog, g, &mut sink)?.0)
        })
        .run(&policy.guard(), sink)
}

/// First-order MFP over [`Flat`] under full governance: a one-rung
/// ladder (`mfp.flat`) solving `cfg`, which must be
/// `Cfg::from_first_order(prog)`, from `prog`'s initial environment.
///
/// # Errors
///
/// When the rung trips (or the request is cancelled).
pub fn governed_mfp_flat(
    prog: &AnfProgram,
    cfg: &Cfg,
    policy: &GovernPolicy,
    sink: &mut impl TraceSink,
) -> Result<Governed<DfSummary<Flat>>, AnalysisError> {
    let init = cfg.initial_env::<Flat>(prog);
    DegradationLadder::new()
        .rung("mfp.flat", |g: &RunGuard, mut sink: &mut dyn TraceSink| {
            Ok(cfg.solve_mfp_guarded::<Flat>(init.clone(), g, &mut sink)?.0)
        })
        .run(&policy.guard(), sink)
}

/// Constraint-based 0CFA of the CPS-converted program under full
/// governance, degrading to source-level 0CFA.
///
/// Ladder: `cfa.cps` (0CFA of `cps`, which must be
/// `CpsProgram::from_anf(prog)`) → `cfa.src` (0CFA of `prog` itself). The
/// caller lowers, so one CPS program can serve a warm attempt and this
/// ladder both. Both rungs satisfy §4.3 soundness for the
/// source program — the CPS rung via the CPS transform's meaning
/// preservation, the source rung directly — so the fallback loses the
/// continuation flows (and §6.1 false-return visibility), not safety.
///
/// ```
/// use std::time::Duration;
/// use cpsdfa_anf::AnfProgram;
/// use cpsdfa_core::budget::AnalysisBudget;
/// use cpsdfa_core::govern::{governed_zero_cfa_cps, CfaAnswer, GovernPolicy};
/// use cpsdfa_core::trace::NoopSink;
/// use cpsdfa_cps::CpsProgram;
///
/// let p = AnfProgram::parse("(let (f (lambda (x) x)) (f (f 1)))").unwrap();
/// let cps = CpsProgram::from_anf(&p);
/// let policy = GovernPolicy::new()
///     .with_budget(AnalysisBudget::new(50_000))
///     .with_deadline(Duration::from_millis(100));
/// let governed = governed_zero_cfa_cps(&p, &cps, &policy, &mut NoopSink).unwrap();
/// match &governed.value {
///     CfaAnswer::Pushdown(_) => unreachable!("the 0CFA ladder has no pushdown rung"),
///     CfaAnswer::Cps(r) => println!("full CPS answer, {} iterations", r.iterations),
///     CfaAnswer::Direct(r) => println!("degraded, {} iterations", r.iterations),
/// }
/// println!("{}", governed.report.to_json());
/// ```
///
/// # Errors
///
/// Only when every rung trips (or the request is cancelled).
pub fn governed_zero_cfa_cps(
    prog: &AnfProgram,
    cps: &CpsProgram,
    policy: &GovernPolicy,
    sink: &mut impl TraceSink,
) -> Result<Governed<CfaAnswer>, AnalysisError> {
    let guard = policy.guard();
    DegradationLadder::new()
        .rung("cfa.cps", |g: &RunGuard, mut sink: &mut dyn TraceSink| {
            Ok(CfaAnswer::Cps(
                cfa::zero_cfa_cps_guarded(cps, g, &mut sink)?.0,
            ))
        })
        .rung("cfa.src", |g: &RunGuard, mut sink: &mut dyn TraceSink| {
            Ok(CfaAnswer::Direct(
                cfa::zero_cfa_guarded(prog, g, &mut sink)?.0,
            ))
        })
        .run(&guard, sink)
}

/// Pushdown CFA under full governance — the three-rung precision ladder
/// with the summary-based analyzer ([`crate::pushdown`]) on top.
///
/// Ladder: `cfa.pushdown` (call/return matching over `cps`, which must be
/// `CpsProgram::from_anf(prog)`) → `cfa.cps` (monovariant 0CFA over the
/// same CPS arena, as in [`governed_zero_cfa_cps`]) → `cfa.src` (0CFA of
/// `prog` itself).
///
/// Rung soundness: the pushdown rung is §4.3-sound for the source
/// program via the CPS transform's meaning preservation plus the
/// summary argument (a return is only wired where a call was observed,
/// and a concrete return always pops the frame its activation pushed);
/// each fall widens the answer — `cfa.cps` readmits the merged
/// continuation flows (every pushdown flow set is a subset of its 0CFA
/// counterpart, checked by the differential suite), `cfa.src` further
/// drops continuation flow entirely. No rung is ever *less* sound, so
/// degradation trades precision (false returns reappear), never safety.
///
/// # Errors
///
/// Only when every rung trips (or the request is cancelled).
pub fn governed_pushdown_cfa(
    prog: &AnfProgram,
    cps: &CpsProgram,
    policy: &GovernPolicy,
    sink: &mut impl TraceSink,
) -> Result<Governed<CfaAnswer>, AnalysisError> {
    let guard = policy.guard();
    DegradationLadder::new()
        .rung(
            "cfa.pushdown",
            |g: &RunGuard, mut sink: &mut dyn TraceSink| {
                Ok(CfaAnswer::Pushdown(
                    pushdown::pushdown_cfa_guarded(cps, g, &mut sink)?.0,
                ))
            },
        )
        .rung("cfa.cps", |g: &RunGuard, mut sink: &mut dyn TraceSink| {
            Ok(CfaAnswer::Cps(
                cfa::zero_cfa_cps_guarded(cps, g, &mut sink)?.0,
            ))
        })
        .rung("cfa.src", |g: &RunGuard, mut sink: &mut dyn TraceSink| {
            Ok(CfaAnswer::Direct(
                cfa::zero_cfa_guarded(prog, g, &mut sink)?.0,
            ))
        })
        .run(&guard, sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faultinject::FaultKind;
    use crate::trace::AggSink;

    #[test]
    fn guard_budget_boundary_matches_bare_budget() {
        let guard = RunGuard::new(AnalysisBudget::new(10));
        for _ in 0..10 {
            guard.charge(1).expect("within budget");
        }
        assert_eq!(
            guard.charge(1),
            Err(AnalysisError::BudgetExhausted { budget: 10 })
        );
        assert_eq!(guard.spent(), 11);
        assert_eq!(guard.residual_budget(), 0);
    }

    #[test]
    fn expired_deadline_trips_on_the_amortized_check() {
        let guard = RunGuard::new(AnalysisBudget::new(1_000_000))
            .with_deadline(Deadline::within(Duration::ZERO));
        let mut err = None;
        for _ in 0..INTERRUPT_PERIOD {
            if let Err(e) = guard.charge(1) {
                err = Some(e);
                break;
            }
        }
        assert_eq!(err, Some(AnalysisError::DeadlineExceeded));
        assert!(guard.check_interrupts().is_err());
    }

    #[test]
    fn cancellation_is_observed_cross_thread() {
        let token = CancelToken::new();
        let guard = RunGuard::new(AnalysisBudget::default()).with_cancel(token.clone());
        assert!(guard.check_interrupts().is_ok());
        let remote = token.clone();
        std::thread::scope(|scope| {
            scope.spawn(move || remote.cancel());
        });
        assert_eq!(guard.check_interrupts(), Err(AnalysisError::Cancelled));
        let mut err = None;
        for _ in 0..INTERRUPT_PERIOD {
            if let Err(e) = guard.charge(1) {
                err = Some(e);
                break;
            }
        }
        assert_eq!(err, Some(AnalysisError::Cancelled));
    }

    #[test]
    fn memory_ceiling_trips_and_tracks_the_peak() {
        let guard = RunGuard::new(AnalysisBudget::default()).with_memory_limit(1024);
        guard.charge_memory(512).expect("under the ceiling");
        assert_eq!(guard.mem_peak(), 512);
        assert_eq!(
            guard.charge_memory(2048),
            Err(AnalysisError::MemoryExhausted { limit_bytes: 1024 })
        );
        assert_eq!(guard.mem_peak(), 2048, "peak records even over the limit");
    }

    #[test]
    fn begin_rung_resets_the_budget_but_not_the_fault_clock() {
        let guard = RunGuard::new(AnalysisBudget::new(5))
            .with_fault(FaultPlan::new(FaultKind::TripBudget, 8));
        for _ in 0..5 {
            guard.charge(1).unwrap();
        }
        assert!(guard.charge(1).is_err(), "rung 0 exhausts its slice");
        guard.begin_rung();
        assert_eq!(guard.spent(), 0);
        assert_eq!(guard.total_spent(), 6);
        // Charges 7 and 8: the fault fires on cumulative firing 8 even
        // though the per-rung counter was reset.
        guard.charge(1).unwrap();
        assert_eq!(
            guard.charge(1),
            Err(AnalysisError::BudgetExhausted { budget: 5 })
        );
    }

    #[test]
    fn request_budget_survives_rung_boundaries() {
        // Per-rung budget 10, but the whole request may only charge 12:
        // begin_rung restores the rung slice yet the cumulative cap still
        // trips two charges into the second rung.
        let guard = RunGuard::new(AnalysisBudget::new(10)).with_request_budget(12);
        for _ in 0..10 {
            guard.charge(1).unwrap();
        }
        guard.begin_rung();
        assert_eq!(guard.request_remaining(), 2);
        guard.charge(1).unwrap();
        guard.charge(1).unwrap();
        assert_eq!(
            guard.charge(1),
            Err(AnalysisError::BudgetExhausted { budget: 12 })
        );
        // And once spent, every later rung trips immediately: the ladder
        // aborts cheaply instead of burning a fresh slice per rung.
        guard.begin_rung();
        assert!(guard.charge(1).is_err());
    }

    #[test]
    fn policy_worst_case_charges_feed_admission_control() {
        let per_rung = GovernPolicy::new().with_budget(AnalysisBudget::new(1000));
        assert_eq!(per_rung.request_budget(), None);
        assert_eq!(per_rung.rung_budget(), 1000);
        assert_eq!(per_rung.worst_case_charges(3), 3000);
        assert_eq!(per_rung.worst_case_charges(0), 1000, "at least one rung");

        let capped = per_rung.clone().with_request_budget(1500);
        assert_eq!(capped.worst_case_charges(3), 1500);
        let guard = capped.guard();
        assert_eq!(guard.request_budget(), Some(1500));
        assert_eq!(guard.request_remaining(), 1500);
    }

    #[test]
    fn ladder_falls_to_the_coarser_rung_and_reports() {
        let guard = RunGuard::new(AnalysisBudget::new(10));
        let mut sink = AggSink::default();
        let governed = DegradationLadder::new()
            .rung("fine", |g: &RunGuard, _: &mut dyn TraceSink| {
                g.charge(100).map(|()| 1u32)
            })
            .rung("coarse", |g: &RunGuard, _: &mut dyn TraceSink| {
                g.charge(3).map(|()| 2u32)
            })
            .run(&guard, &mut sink)
            .expect("coarse rung answers");
        assert_eq!(governed.value, 2);
        let report = &governed.report;
        assert!(report.degraded());
        assert_eq!(report.rungs_tried(), 2);
        assert_eq!(report.resource, Some("budget"));
        assert_eq!(report.answered_by(), Some("coarse"));
        assert_eq!(report.residual_budget, 7);
        assert_eq!(sink.counter_value("govern.degraded"), 1);
        assert_eq!(sink.counter_value("govern.trip.budget"), 1);
        assert_eq!(sink.gauge_value("govern.residual_budget"), 7);
        let json = report.to_json();
        assert!(json.contains("\"degraded\": true"));
        assert!(json.contains("\"rung\": \"coarse\""));
        assert!(json.contains("\"outcome\": \"ok\""));
    }

    #[test]
    fn ladder_isolates_a_panicking_rung() {
        let guard = RunGuard::new(AnalysisBudget::default());
        let governed = DegradationLadder::new()
            .rung(
                "poisoned",
                |_: &RunGuard, _: &mut dyn TraceSink| -> Result<u32, _> { panic!("rung blew up") },
            )
            .rung("fallback", |_: &RunGuard, _: &mut dyn TraceSink| Ok(7u32))
            .run(&guard, &mut crate::trace::NoopSink)
            .expect("fallback answers despite the panic");
        assert_eq!(governed.value, 7);
        assert_eq!(governed.report.resource, Some("panic"));
        let first = &governed.report.attempts[0];
        assert!(matches!(
            &first.error,
            Some(AnalysisError::WorkerPanicked { payload }) if payload.contains("rung blew up")
        ));
    }

    #[test]
    fn cancellation_aborts_the_whole_ladder() {
        let token = CancelToken::new();
        token.cancel();
        let guard = RunGuard::new(AnalysisBudget::default()).with_cancel(token);
        let ran_fallback = std::cell::Cell::new(false);
        let err = DegradationLadder::new()
            .rung("fine", |g: &RunGuard, _: &mut dyn TraceSink| {
                g.check_interrupts().map(|()| 1u32)
            })
            .rung("coarse", |_: &RunGuard, _: &mut dyn TraceSink| {
                ran_fallback.set(true);
                Ok(2u32)
            })
            .run(&guard, &mut crate::trace::NoopSink)
            .unwrap_err();
        assert_eq!(err, AnalysisError::Cancelled);
        assert!(!ran_fallback.get(), "cancel must not retry coarser rungs");
    }

    #[test]
    fn all_rungs_failing_reports_the_last_error() {
        let guard = RunGuard::new(AnalysisBudget::new(1));
        let mut sink = AggSink::default();
        let err = DegradationLadder::new()
            .rung("a", |g: &RunGuard, _: &mut dyn TraceSink| {
                g.charge(10).map(|()| 0u32)
            })
            .rung("b", |g: &RunGuard, _: &mut dyn TraceSink| {
                g.charge(10).map(|()| 0u32)
            })
            .run(&guard, &mut sink)
            .unwrap_err();
        assert!(matches!(err, AnalysisError::BudgetExhausted { .. }));
        assert_eq!(sink.counter_value("govern.rungs_tried"), 2);
        assert_eq!(
            sink.counter_value("govern.degraded"),
            0,
            "no answer, no degrade"
        );
    }

    #[test]
    fn governed_cfa_answers_directly_when_resources_suffice() {
        let p = AnfProgram::parse("(let (f (lambda (x) x)) (f f))").unwrap();
        let governed = governed_zero_cfa_cps(
            &p,
            &CpsProgram::from_anf(&p),
            &GovernPolicy::new(),
            &mut crate::trace::NoopSink,
        )
        .expect("tiny program fits the default budget");
        assert!(!governed.report.degraded());
        assert!(matches!(governed.value, CfaAnswer::Cps(_)));
        assert_eq!(governed.report.answered_by(), Some("cfa.cps"));
    }
}
