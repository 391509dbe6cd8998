//! Analysis-as-a-service: a long-running daemon serving the fixpoint
//! analyses (`cfa.src`, `cfa.cps`, `cfa.pushdown`, `mfp.flat`) over a
//! JSONL protocol, fronted by the
//! content-addressed [`FixpointCache`] and a two-rung admission
//! controller.
//!
//! The offline build environment has no async runtime, so the daemon is
//! plain threads: the caller's thread reads requests, a scoped pool of
//! [`worker_count`]-sized workers (each owning its own hash-consing
//! [`TermArena`] + digest memo, and the lowered program behind each watch
//! session's latest answer) drains a bounded queue, and responses stream
//! back as they complete, correlated by `id`.
//!
//! # Admission control
//!
//! A request passes two *rejection rungs* before it may queue — the cheap
//! outer extension of the per-request
//! [`DegradationLadder`](cpsdfa_core::govern::DegradationLadder):
//!
//! 1. **queue-depth** — if the queue already holds
//!    [`max_queue`](ServiceConfig::max_queue) pending requests, reject
//!    with `queue-full` instead of growing the backlog.
//! 2. **budget reservation** — every admitted request reserves its
//!    worst-case charge count
//!    ([`GovernPolicy::worst_case_charges`](cpsdfa_core::govern::GovernPolicy::worst_case_charges):
//!    the whole-request cap when the client set one, else per-rung budget
//!    × rung count) against
//!    [`capacity_charges`](ServiceConfig::capacity_charges); if the
//!    reservation does not fit, reject with `over-capacity` *before* any
//!    rung burns budget. Reservations release on completion.
//!
//! Only past both rungs does a request reach the degradation rungs proper
//! (the representation fallbacks of the governed ladders).
//!
//! # Caching
//!
//! Warm hits are served without touching the solver: the request's
//! program is parsed into the worker's arena (hash-consing makes repeats
//! cheap), digested (memoized per node id), and looked up under the
//! full-precision [`CacheKey`]. Fresh answers commit under the rung that
//! produced them, so degraded answers can never shadow full-precision
//! ones. See `DESIGN.md` §11 for the soundness argument.
//!
//! # Example
//!
//! ```
//! use cpsdfa_service::{AnalysisService, ServiceConfig};
//! use cpsdfa_service::proto::{Served, Status};
//!
//! // One worker: with several, both requests could miss concurrently.
//! let service = AnalysisService::new(ServiceConfig {
//!     workers: 1,
//!     ..ServiceConfig::default()
//! });
//! let batch = [
//!     r#"{"id": 1, "analysis": "cfa.cps", "program": "(let (f (lambda (x) x)) (f 1))"}"#,
//!     r#"{"id": 2, "analysis": "cfa.cps", "program": "(let (f (lambda (x) x)) (f 1))"}"#,
//! ];
//! let outcomes = service.run_batch(&batch);
//! // Same program twice: the second request is a cache hit with the
//! // bit-identical answer digest.
//! let (a, b) = (&outcomes[0].response, &outcomes[1].response);
//! match (&a.status, &b.status) {
//!     (
//!         Status::Ok { cache: Served::Miss, answer_digest: d1, .. },
//!         Status::Ok { cache: Served::Hit, answer_digest: d2, .. },
//!     ) => assert_eq!(d1, d2),
//!     other => panic!("expected miss then hit, got {other:?}"),
//! }
//! ```

pub mod json;
pub mod proto;

use cpsdfa_anf::AnfProgram;
use cpsdfa_core::cache::{
    AnalysisKind, Ancestor, ArenaDigests, CacheKey, CacheStats, CachedAnswer, CachedFixpoint,
    FixpointCache, PersistDir, RecoveryReport, MAX_ANCESTORS,
};
use cpsdfa_core::certify::certify_answer;
use cpsdfa_core::faultinject::PersistFaultPlan;
use cpsdfa_core::govern::{
    governed_mfp_flat, governed_pushdown_cfa, governed_zero_cfa, governed_zero_cfa_cps,
    ladder_rungs, CfaAnswer, DegradationReport, GovernPolicy, RungAttempt,
};
use cpsdfa_core::incremental::{self, WarmReport, WarmSolve};
use cpsdfa_core::mfp::Cfg;
use cpsdfa_core::trace::TraceSink;
use cpsdfa_core::{worker_count, AggSink, AnalysisBudget, JsonlSink};
use cpsdfa_cps::CpsProgram;
use cpsdfa_syntax::arena::{TermArena, TermId};
use cpsdfa_syntax::parse::{ParseError, ParseErrorKind};
use proto::{BadRequest, Request, Response, Served, Status};
use std::cell::OnceCell;
use std::collections::VecDeque;
use std::io::{self, BufRead, Write};
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::Scope;
use std::time::{Duration, Instant};

/// Daemon configuration. [`Default`] gives a single-machine profile:
/// [`worker_count`] workers, a 64 MiB cache, a 256-deep queue, and
/// capacity for `workers × default budget` concurrent worst-case charges.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads draining the queue.
    pub workers: usize,
    /// [`FixpointCache`] eviction ceiling in (estimated) payload bytes.
    pub cache_bytes: u64,
    /// Queue-depth rejection rung: pending requests beyond this are
    /// refused with `queue-full`.
    pub max_queue: usize,
    /// Budget-reservation rejection rung: total outstanding worst-case
    /// charges the service will accept before refusing with
    /// `over-capacity`.
    pub capacity_charges: u64,
    /// Per-rung goal budget for requests that do not set one.
    pub default_budget: u64,
    /// Wall-clock allowance (ms) for requests that do not set one
    /// (`None` = no deadline).
    pub default_deadline_ms: Option<u64>,
    /// Master cache switch — `false` turns every request into a fresh
    /// solve (the differential baseline E20 compares against).
    pub cache_enabled: bool,
    /// Crash-safe spill directory for the cache (`None` = in-memory only).
    /// On startup the directory is scanned, checksums verified, a sample
    /// certified, and every valid entry re-admitted — see
    /// [`AnalysisService::recovery`].
    pub persist_dir: Option<PathBuf>,
    /// Serve-path certification sampling: every `N`th cache hit or warm
    /// answer is independently re-checked by [`certify_answer`] before it
    /// is served (0 = off, 1 = certify everything). A refuted answer is
    /// evicted from memory *and* disk and recomputed from scratch — never
    /// served.
    pub certify_sample: u64,
    /// How many recovered entries startup recovery pushes through full
    /// certification (checksums and key re-digests are always verified).
    pub recover_certify: usize,
    /// Idle deadline for watch-session ancestors: a session untouched for
    /// this long is dropped from the warm-start side table (`None` = only
    /// the LRU capacity evicts).
    pub session_ttl: Option<Duration>,
    /// Chaos-harness hook: an armed plan injects one persistence fault
    /// (kill-before-rename, truncation, bit flip, stale key) into the
    /// `N`th disk commit. Production leaves this `None`.
    pub persist_faults: Option<Arc<PersistFaultPlan>>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        let workers = worker_count();
        let default_budget = AnalysisBudget::default().max_goals();
        let longest_ladder = AnalysisKind::ALL
            .iter()
            .map(|&kind| ladder_rungs(kind).len() as u64)
            .max()
            .unwrap_or(1);
        ServiceConfig {
            workers,
            cache_bytes: 64 << 20,
            max_queue: 256,
            // Room for every worker to run the longest ladder to its last
            // rung, plus as much again waiting in the queue.
            capacity_charges: default_budget
                .saturating_mul(longest_ladder)
                .saturating_mul(2 * workers as u64),
            default_budget,
            default_deadline_ms: None,
            cache_enabled: true,
            persist_dir: None,
            certify_sample: 0,
            recover_certify: 8,
            session_ttl: Some(Duration::from_secs(600)),
            persist_faults: None,
        }
    }
}

/// Cumulative service counters (all monotone; readable while serving).
#[derive(Debug, Default)]
struct ServiceCounters {
    accepted: AtomicU64,
    rejected_queue: AtomicU64,
    rejected_budget: AtomicU64,
    served_hit: AtomicU64,
    served_warm: AtomicU64,
    served_solve: AtomicU64,
    degraded: AtomicU64,
    failed: AtomicU64,
    /// Requests that named a `par` engine, which is accepted and ignored.
    mode_ignored: AtomicU64,
}

/// One completed request of a batch run: the response plus (when the
/// request was answered) the committed fixpoint, so in-process callers —
/// tests, E20 — can compare whole answers, not just digests.
#[derive(Debug)]
pub struct Outcome {
    /// The response, exactly as [`serve`](AnalysisService::serve) would
    /// have written it.
    pub response: Response,
    /// The answered fixpoint (a cache handle on hits, the fresh commit on
    /// misses); `None` on rejections and errors.
    pub fixpoint: Option<std::sync::Arc<CachedFixpoint>>,
}

/// The service: one [`FixpointCache`] + admission state shared by every
/// request, however it arrives ([`run_batch`](AnalysisService::run_batch)
/// or the [`serve`](AnalysisService::serve) loop).
pub struct AnalysisService {
    config: ServiceConfig,
    cache: Mutex<FixpointCache>,
    /// The crash-safe spill directory, when configured and openable.
    persist: Option<PersistDir>,
    /// What startup recovery found in [`persist`](Self::persist).
    recovery: Option<RecoveryReport>,
    /// Monotone sequence behind the every-Nth certify sampler.
    certify_seq: AtomicU64,
    /// Outstanding reserved worst-case charges (admission rung 2).
    reserved: AtomicU64,
    counters: ServiceCounters,
}

/// A worker's arena (and digest memo) starts over once it holds more than
/// this many nodes. Hash-consing keeps every distinct program a worker has
/// parsed, so without a bound the arena grows for as long as new programs
/// arrive. Digests are structural, so a fresh arena yields the same keys.
const ARENA_NODE_CAP: usize = 1 << 17;

/// Stack reserved for each worker thread. Most front-end walkers recurse
/// on term height, which the parser bounds at
/// [`MAX_DEPTH`](cpsdfa_syntax::parse::MAX_DEPTH); an optimized build
/// serves programs at that bound within the 2 MiB default, but unoptimized
/// frames are several times larger. Untouched stack costs no memory.
const WORKER_STACK_BYTES: usize = 64 << 20;

/// A program lowered for the analyzers: its ANF and, built the first time
/// a CPS analysis asks for it, its CPS transform.
struct Lowered {
    anf: AnfProgram,
    cps: OnceCell<CpsProgram>,
}

impl Lowered {
    fn cps(&self) -> &CpsProgram {
        self.cps.get_or_init(|| CpsProgram::from_anf(&self.anf))
    }
}

/// Per-worker reusable state: the hash-consing arena, its digest memo, and
/// the session memo. Workers never share arenas — digests are structural,
/// so keys agree across workers without sharing.
struct WorkerCtx {
    arena: TermArena,
    digests: ArenaDigests,
    /// Node count past which the next request's parse starts a new arena.
    arena_cap: usize,
    /// `(session, digest, lowered)` for the latest answer this worker gave
    /// each session, least recently noted first, at most
    /// [`MAX_ANCESTORS`] long. A watch step reuses the entry as its "old"
    /// program when the digest matches the session's ancestor.
    sessions: VecDeque<(u64, u128, Rc<Lowered>)>,
}

impl WorkerCtx {
    fn new() -> Self {
        WorkerCtx::with_arena_cap(ARENA_NODE_CAP)
    }

    fn with_arena_cap(arena_cap: usize) -> Self {
        WorkerCtx {
            arena: TermArena::new(),
            digests: ArenaDigests::new(),
            arena_cap,
            sessions: VecDeque::new(),
        }
    }

    /// Parses a request's program, first starting the arena and digest
    /// memo over if the arena has outgrown its cap.
    fn parse_request(&mut self, program: &str) -> Result<TermId, ParseError> {
        if self.arena.num_nodes() > self.arena_cap {
            self.arena = TermArena::new();
            self.digests = ArenaDigests::new();
        }
        self.arena.parse(program)
    }

    /// The daemon's one lowering: the arena term, expanded and normalized.
    fn lower(&self, root: TermId) -> Lowered {
        Lowered {
            anf: AnfProgram::from_term(&self.arena.to_term(root)),
            cps: OnceCell::new(),
        }
    }

    /// Records `lowered` (digest `digest`) as the program behind
    /// `session`'s latest answer.
    fn remember(&mut self, session: u64, digest: u128, lowered: &Rc<Lowered>) {
        self.sessions.retain(|(s, ..)| *s != session);
        if self.sessions.len() == MAX_ANCESTORS {
            self.sessions.pop_front();
        }
        self.sessions
            .push_back((session, digest, Rc::clone(lowered)));
    }

    /// The lowered program of `session`'s latest answer, if this worker
    /// gave it and its digest is `digest`.
    fn recall(&self, session: u64, digest: u128) -> Option<Rc<Lowered>> {
        self.sessions
            .iter()
            .find(|(s, d, _)| *s == session && *d == digest)
            .map(|(.., lowered)| Rc::clone(lowered))
    }
}

/// Spawns a worker thread with [`WORKER_STACK_BYTES`] of stack.
fn spawn_worker<'scope>(scope: &'scope Scope<'scope, '_>, work: impl FnOnce() + Send + 'scope) {
    std::thread::Builder::new()
        .stack_size(WORKER_STACK_BYTES)
        .spawn_scoped(scope, work)
        .expect("spawn worker thread");
}

/// A queued, admitted request (its reservation is already counted).
struct Job {
    slot: usize,
    request: Request,
    reservation: u64,
    enqueued: Instant,
}

/// The bounded queue the reader feeds and workers drain.
struct Queue {
    jobs: Mutex<(VecDeque<Job>, bool)>, // (pending, closed)
    ready: Condvar,
}

impl Queue {
    fn new() -> Self {
        Queue {
            jobs: Mutex::new((VecDeque::new(), false)),
            ready: Condvar::new(),
        }
    }

    fn depth(&self) -> usize {
        self.jobs.lock().expect("queue poisoned").0.len()
    }

    fn push(&self, job: Job) {
        self.jobs.lock().expect("queue poisoned").0.push_back(job);
        self.ready.notify_one();
    }

    fn close(&self) {
        self.jobs.lock().expect("queue poisoned").1 = true;
        self.ready.notify_all();
    }

    fn pop(&self) -> Option<Job> {
        let mut guard = self.jobs.lock().expect("queue poisoned");
        loop {
            if let Some(job) = guard.0.pop_front() {
                return Some(job);
            }
            if guard.1 {
                return None;
            }
            guard = self.ready.wait(guard).expect("queue poisoned");
        }
    }
}

impl AnalysisService {
    /// A fresh service. When [`persist_dir`](ServiceConfig::persist_dir)
    /// is set, the spill directory is recovered into the cache before the
    /// first request: checksums verified, keys re-digested, a sample
    /// certified, everything invalid deleted. An unopenable directory
    /// degrades to in-memory-only service rather than refusing to start.
    pub fn new(config: ServiceConfig) -> Self {
        let mut cache = FixpointCache::new(config.cache_bytes);
        cache.set_session_ttl(config.session_ttl);
        let mut persist = None;
        let mut recovery = None;
        if let Some(dir) = &config.persist_dir {
            match PersistDir::open(dir) {
                Ok(p) => {
                    let report = p.recover(&mut cache, config.recover_certify);
                    cache.note_recovery(&report);
                    persist = Some(p);
                    recovery = Some(report);
                }
                Err(e) => {
                    eprintln!(
                        "cpsdfa-service: cannot open persist dir {}: {e} (running in-memory)",
                        dir.display()
                    );
                }
            }
        }
        AnalysisService {
            cache: Mutex::new(cache),
            persist,
            recovery,
            certify_seq: AtomicU64::new(0),
            reserved: AtomicU64::new(0),
            counters: ServiceCounters::default(),
            config,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// What startup recovery found, when a persist directory is configured
    /// and was openable.
    pub fn recovery(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// Whether the every-Nth sampler elects this answer for certification.
    fn should_certify(&self) -> bool {
        let n = self.config.certify_sample;
        n > 0 && (self.certify_seq.fetch_add(1, Ordering::Relaxed) + 1).is_multiple_of(n)
    }

    /// Spills a committed fixpoint, poking the chaos plan (if armed) for a
    /// fault to inject. I/O errors degrade to in-memory-only for this
    /// entry; recovery semantics make a missing spill merely a cold start.
    fn spill(&self, key: &CacheKey, source: &str, fixpoint: &CachedFixpoint) {
        if let Some(persist) = &self.persist {
            let fault = self.config.persist_faults.as_ref().and_then(|p| p.poke());
            let _ = persist.store(key, source, fixpoint, fault);
        }
    }

    /// A snapshot of the cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.lock().expect("cache poisoned").stats()
    }

    /// Builds the per-request governance policy.
    fn policy_for(&self, req: &Request) -> GovernPolicy {
        let mut policy = GovernPolicy::new().with_budget(AnalysisBudget::new(req.budget));
        if let Some(cap) = req.request_budget {
            policy = policy.with_request_budget(cap);
        }
        if let Some(ms) = req.deadline_ms {
            policy = policy.with_deadline(Duration::from_millis(ms));
        }
        policy
    }

    /// Admission rungs 1–2. On success, returns the reservation (already
    /// counted into [`reserved`](Self::reserved) — release it after the
    /// request completes). On rejection, returns the refusal reason.
    fn admit(&self, req: &Request, queue_depth: usize) -> Result<u64, &'static str> {
        if req.mode_ignored {
            self.counters.mode_ignored.fetch_add(1, Ordering::Relaxed);
        }
        if queue_depth >= self.config.max_queue {
            self.counters.rejected_queue.fetch_add(1, Ordering::Relaxed);
            return Err("queue-full");
        }
        let rungs = ladder_rungs(req.kind).len() as u64;
        let want = self.policy_for(req).worst_case_charges(rungs);
        let mut current = self.reserved.load(Ordering::Relaxed);
        loop {
            if current.saturating_add(want) > self.config.capacity_charges {
                self.counters
                    .rejected_budget
                    .fetch_add(1, Ordering::Relaxed);
                return Err("over-capacity");
            }
            match self.reserved.compare_exchange_weak(
                current,
                current + want,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => current = actual,
            }
        }
        self.counters.accepted.fetch_add(1, Ordering::Relaxed);
        Ok(want)
    }

    fn release(&self, reservation: u64) {
        self.reserved.fetch_sub(reservation, Ordering::Relaxed);
    }

    /// Serves one admitted request: cache probe, then (on a miss) the
    /// governed ladder. Emits the request's trace into `sink` and returns
    /// the response plus the answered fixpoint.
    fn handle(
        &self,
        req: &Request,
        ctx: &mut WorkerCtx,
        sink: &mut impl TraceSink,
    ) -> (Response, Option<std::sync::Arc<CachedFixpoint>>) {
        let start = Instant::now();
        let finish = |status: Status| Response {
            id: req.id,
            latency_us: start.elapsed().as_micros().min(u64::MAX as u128) as u64,
            status,
        };

        // Parse into the worker's hash-consing arena. A repeated program
        // re-resolves to the same node ids, so the digest below is a memo
        // hit — the whole warm path does no per-node work.
        let root = match ctx.parse_request(&req.program) {
            Ok(root) => root,
            Err(e) => {
                self.counters.failed.fetch_add(1, Ordering::Relaxed);
                return (
                    finish(Status::Error {
                        reason: match e.kind {
                            ParseErrorKind::Syntax => "parse-error",
                            ParseErrorKind::TooDeep => "too-deep",
                        },
                        detail: e.to_string(),
                    }),
                    None,
                );
            }
        };
        let digest = ctx.digests.term_digest(&ctx.arena, root);
        let full_key = CacheKey::new(req.kind, digest);

        if self.config.cache_enabled {
            let cached = self.cache.lock().expect("cache poisoned").lookup(&full_key);
            if let Some(hit) = cached {
                // Sampled certification: re-derive the constraint system
                // independently of the solver and check the cached answer
                // against it. A refuted entry — recovered corruption the
                // checksums could not see, an alignment bug — is evicted
                // from memory *and* disk, then the request falls through
                // to a from-scratch solve below. Wrong answers are
                // detected and healed, never served.
                let refuted = self.should_certify() && {
                    match certify_answer(&ctx.lower(root).anf, &hit.answer) {
                        Ok(_) => {
                            self.cache.lock().expect("cache poisoned").note_certify_ok();
                            sink.counter("service.certify.ok", 1);
                            false
                        }
                        Err(refutation) => {
                            let disk = self.persist.as_ref().map_or(0, |p| p.remove(&full_key));
                            let mut cache = self.cache.lock().expect("cache poisoned");
                            cache.remove(&full_key);
                            cache.note_certify_fail(disk);
                            drop(cache);
                            sink.counter("service.certify.fail", 1);
                            sink.counter(
                                &format!("service.certify.refuted.{}", refutation.tag()),
                                1,
                            );
                            true
                        }
                    }
                };
                if !refuted {
                    self.counters.served_hit.fetch_add(1, Ordering::Relaxed);
                    sink.counter("service.hit", 1);
                    if let Some(session) = req.session {
                        self.note_session(session, req, digest, &hit);
                    }
                    let resp = finish(Status::Ok {
                        cache: Served::Hit,
                        rung: full_key.rung,
                        degraded: false,
                        answer_digest: hit.answer_digest,
                        iterations: hit.answer.iterations(),
                        charged: 0,
                    });
                    return (resp, Some(hit));
                }
            }
        }

        // Miss (or cache off): lower out of the arena and run the ladder.
        let lowered = Rc::new(ctx.lower(root));
        let prog = &lowered.anf;

        // Watch mode: before paying for the ladder, try to warm-start from
        // the session's previous fixpoint — only the edit delta re-solves.
        // Any ineligible edit (non-monotone, misaligned, over budget)
        // falls through to the governed ladder below: warm starting is an
        // optimization, never a gate.
        'warm: {
            if !self.config.cache_enabled {
                break 'warm;
            }
            let Some(session) = req.session else {
                break 'warm;
            };
            let Some((answer, warm, charged)) =
                self.session_warm(req, session, &lowered, ctx, sink)
            else {
                break 'warm;
            };
            // Certify-on-warm: a sampled warm answer is re-checked against
            // an independently derived constraint system before it is
            // served. A refutation means the remembered ancestor is
            // untrustworthy — evict the session (memory and journal) and
            // fall through to the cold ladder below.
            if self.should_certify() {
                if let Err(refutation) = certify_answer(prog, &answer) {
                    let mut cache = self.cache.lock().expect("cache poisoned");
                    cache.evict_session(session);
                    cache.note_certify_fail(0);
                    drop(cache);
                    if let Some(persist) = &self.persist {
                        persist.remove_session(session);
                    }
                    sink.counter("service.certify.fail", 1);
                    sink.counter(&format!("service.certify.refuted.{}", refutation.tag()), 1);
                    break 'warm;
                }
                self.cache.lock().expect("cache poisoned").note_certify_ok();
                sink.counter("service.certify.ok", 1);
            }
            self.counters.served_warm.fetch_add(1, Ordering::Relaxed);
            sink.counter("service.warm", 1);
            sink.counter("service.warm.fired", warm.fired);
            let report = DegradationReport {
                attempts: vec![RungAttempt {
                    rung: "warm",
                    error: None,
                    charged,
                }],
                resource: None,
                residual_budget: req.budget.saturating_sub(charged),
                elapsed_ns: start.elapsed().as_nanos().min(u64::MAX as u128) as u64,
            };
            let fixpoint = Arc::new(CachedFixpoint::new(answer, report));
            // The warm answer is bit-identical to a cold solve (the
            // incremental cascade's tested invariant), so it commits under
            // the very key a fresh solve of the edited program would have
            // used — and spills to disk under it, so a restarted daemon
            // recovers it. The cache shares the served `Arc`; nothing is
            // copied.
            self.cache
                .lock()
                .expect("cache poisoned")
                .insert(full_key, Arc::clone(&fixpoint));
            self.spill(&full_key, &req.program, &fixpoint);
            self.note_session(session, req, digest, &fixpoint);
            ctx.remember(session, digest, &lowered);
            let resp = finish(Status::Ok {
                cache: Served::Warm,
                rung: full_key.rung,
                degraded: false,
                answer_digest: fixpoint.answer_digest,
                iterations: fixpoint.answer.iterations(),
                charged,
            });
            return (resp, Some(fixpoint));
        }

        let policy = self.policy_for(req);
        // Whatever rung of the CFA ladder answered, cache the answer in
        // its own representation so a degraded-rung probe gets back
        // exactly what was computed.
        let pack_cfa = |answer: CfaAnswer| match answer {
            CfaAnswer::Pushdown(r) => CachedAnswer::CfaPushdown(r),
            CfaAnswer::Cps(r) => CachedAnswer::CfaCps(r),
            CfaAnswer::Direct(r) => CachedAnswer::CfaSrc(r),
        };
        let governed = match req.kind {
            AnalysisKind::CfaPushdown => governed_pushdown_cfa(prog, lowered.cps(), &policy, sink)
                .map(|g| (pack_cfa(g.value), g.report)),
            AnalysisKind::CfaCps => governed_zero_cfa_cps(prog, lowered.cps(), &policy, sink)
                .map(|g| (pack_cfa(g.value), g.report)),
            AnalysisKind::CfaSrc => governed_zero_cfa(prog, &policy, sink)
                .map(|g| (CachedAnswer::CfaSrc(g.value), g.report)),
            AnalysisKind::MfpFlat => {
                let cfg = match Cfg::from_first_order(prog) {
                    Ok(cfg) => cfg,
                    Err(e) => {
                        self.counters.failed.fetch_add(1, Ordering::Relaxed);
                        return (
                            finish(Status::Error {
                                reason: "not-first-order",
                                detail: e.to_string(),
                            }),
                            None,
                        );
                    }
                };
                governed_mfp_flat(prog, &cfg, &policy, sink)
                    .map(|g| (CachedAnswer::MfpFlat(g.value), g.report))
            }
        };

        let (answer, report) = match governed {
            Ok(pair) => pair,
            Err(e) => {
                self.counters.failed.fetch_add(1, Ordering::Relaxed);
                sink.counter("service.failed", 1);
                return (
                    finish(Status::Error {
                        reason: "analysis-failed",
                        detail: e.to_string(),
                    }),
                    None,
                );
            }
        };

        self.counters.served_solve.fetch_add(1, Ordering::Relaxed);
        sink.counter("service.solve", 1);
        let degraded = report.degraded();
        if degraded {
            self.counters.degraded.fetch_add(1, Ordering::Relaxed);
        }
        let rung = report.answered_by().unwrap_or(req.kind.full_rung());
        let charged: u64 = report.attempts.iter().map(|a| a.charged).sum();
        let fixpoint = Arc::new(CachedFixpoint::new(answer, report));
        if self.config.cache_enabled {
            // Commit under the rung that actually answered: an undegraded
            // answer lands on the full-precision key future lookups probe;
            // a degraded answer lands on its own rung key, reachable only
            // by an explicit degraded probe — never by a fresh request.
            let commit_key = full_key.at_rung(rung);
            self.cache
                .lock()
                .expect("cache poisoned")
                .insert(commit_key, Arc::clone(&fixpoint));
            self.spill(&commit_key, &req.program, &fixpoint);
            if let Some(session) = req.session {
                self.note_session(session, req, digest, &fixpoint);
                ctx.remember(session, digest, &lowered);
            }
        }
        let resp = finish(Status::Ok {
            cache: if self.config.cache_enabled {
                Served::Miss
            } else {
                Served::Off
            },
            rung,
            degraded,
            answer_digest: fixpoint.answer_digest,
            iterations: fixpoint.answer.iterations(),
            charged,
        });
        (resp, Some(fixpoint))
    }

    /// Remembers `fixpoint` as `session`'s latest answer, so the session's
    /// next request can warm-start from it.
    fn note_session(
        &self,
        session: u64,
        req: &Request,
        digest: u128,
        fixpoint: &std::sync::Arc<CachedFixpoint>,
    ) {
        let ancestor = Ancestor {
            kind: fixpoint.answer.kind(),
            digest,
            source: req.program.clone(),
            fixpoint: std::sync::Arc::clone(fixpoint),
        };
        // Journal the session's latest committed fixpoint so a restarted
        // daemon warm-starts the watch stream instead of going cold.
        if let Some(persist) = &self.persist {
            let fault = self.config.persist_faults.as_ref().and_then(|p| p.poke());
            let _ = persist.store_session(session, &ancestor, fault);
        }
        self.cache
            .lock()
            .expect("cache poisoned")
            .note_ancestor(session, ancestor);
    }

    /// Attempts the watch-mode warm start: the session's remembered
    /// fixpoint becomes the seed and only the edit delta re-solves. Every
    /// rung of the incremental cascade is differentially tested
    /// bit-identical to a from-scratch solve, so a `Some` answer is
    /// exactly what the ladder would have produced — minus the work.
    /// `None` means "not warm-eligible; run the ladder".
    ///
    /// The seed's program comes from the worker's session memo when this
    /// worker answered the session's previous step (counted as
    /// `service.lower.reused`); otherwise — that step was a cache hit, was
    /// answered by another worker, or was recovered from the journal — the
    /// ancestor's source is parsed and lowered here.
    fn session_warm(
        &self,
        req: &Request,
        session: u64,
        new: &Lowered,
        ctx: &mut WorkerCtx,
        sink: &mut impl TraceSink,
    ) -> Option<(CachedAnswer, WarmReport, u64)> {
        let anc = self
            .cache
            .lock()
            .expect("cache poisoned")
            .ancestor(session)?;
        // A degraded ancestor answered on a coarser rung; warm-starting
        // from it would silently propagate the degradation. Require the
        // remembered answer to be the requested analysis at full rung.
        if anc.kind != req.kind || anc.fixpoint.answer.kind() != req.kind {
            return None;
        }
        let old = match ctx.recall(session, anc.digest) {
            Some(old) => {
                sink.counter("service.lower.reused", 1);
                old
            }
            None => {
                let root = ctx.arena.parse(&anc.source).ok()?;
                Rc::new(ctx.lower(root))
            }
        };
        let guard = self.policy_for(req).guard();
        let warm = match &anc.fixpoint.answer {
            CachedAnswer::CfaSrc(prev) => {
                match incremental::zero_cfa_incremental(&old.anf, prev, &new.anf, &guard, sink) {
                    Ok(WarmSolve::Warm(result, report)) => {
                        Some((CachedAnswer::CfaSrc(result), report))
                    }
                    _ => None,
                }
            }
            CachedAnswer::CfaCps(prev) => {
                match incremental::zero_cfa_cps_incremental(
                    old.cps(),
                    prev,
                    new.cps(),
                    &guard,
                    sink,
                ) {
                    Ok(WarmSolve::Warm(result, report)) => {
                        Some((CachedAnswer::CfaCps(result), report))
                    }
                    _ => None,
                }
            }
            CachedAnswer::CfaPushdown(prev) => {
                match incremental::pushdown_cfa_incremental(
                    old.cps(),
                    prev,
                    new.cps(),
                    &guard,
                    sink,
                ) {
                    Ok(WarmSolve::Warm(result, report)) => {
                        Some((CachedAnswer::CfaPushdown(result), report))
                    }
                    _ => None,
                }
            }
            CachedAnswer::MfpFlat(prev) => {
                incremental::solve_mfp_incremental(&old.anf, prev, &new.anf)
                    .map(|(summary, report)| (CachedAnswer::MfpFlat(summary), report))
            }
        };
        warm.map(|(answer, report)| (answer, report, guard.total_spent()))
    }

    /// Runs a batch of request lines through the worker pool and returns
    /// the outcomes *in request order* (admission rejections and parse
    /// errors included). This is the in-process entry point the tests and
    /// the E20 benchmark drive; [`serve`](AnalysisService::serve) is the
    /// same machinery fed from a stream.
    pub fn run_batch(&self, lines: &[&str]) -> Vec<Outcome> {
        self.run_batch_traced(lines, &mut cpsdfa_core::NoopSink)
    }

    /// [`run_batch`](AnalysisService::run_batch), streaming per-request
    /// traces and the end-of-batch `cache.*` flush into `trace`.
    pub fn run_batch_traced(
        &self,
        lines: &[&str],
        trace: &mut (impl TraceSink + Send),
    ) -> Vec<Outcome> {
        let queue = Queue::new();
        let slots: Vec<Mutex<Option<Outcome>>> = lines.iter().map(|_| Mutex::new(None)).collect();
        let trace_shared = Mutex::new(trace);
        std::thread::scope(|scope| {
            for _ in 0..self.config.workers.max(1) {
                spawn_worker(scope, || {
                    let mut ctx = WorkerCtx::new();
                    while let Some(job) = queue.pop() {
                        let outcome = self.run_job(&job, &mut ctx, &trace_shared);
                        *slots[job.slot].lock().expect("slot poisoned") = Some(outcome);
                        self.release(job.reservation);
                    }
                });
            }
            // Feed in order; workers drain concurrently, so the
            // queue-depth rung sees the true backlog.
            for (slot, line) in lines.iter().enumerate() {
                match Request::decode(
                    line,
                    self.config.default_budget,
                    self.config.default_deadline_ms,
                ) {
                    Ok(request) => match self.admit(&request, queue.depth()) {
                        Ok(reservation) => queue.push(Job {
                            slot,
                            request,
                            reservation,
                            enqueued: Instant::now(),
                        }),
                        Err(reason) => {
                            *slots[slot].lock().expect("slot poisoned") = Some(Outcome {
                                response: Response {
                                    id: request.id,
                                    latency_us: 0,
                                    status: Status::Rejected { reason },
                                },
                                fixpoint: None,
                            });
                        }
                    },
                    Err(bad) => {
                        *slots[slot].lock().expect("slot poisoned") = Some(Outcome {
                            response: bad_request_response(&bad),
                            fixpoint: None,
                        });
                    }
                }
            }
            queue.close();
        });
        let outcomes: Vec<Outcome> = slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("slot poisoned")
                    .expect("every slot is filled by a worker or the feeder")
            })
            .collect();
        let stats = self.cache_stats();
        stats.emit_into(&mut *trace_shared.lock().expect("trace poisoned"), "cache");
        outcomes
    }

    /// Runs one admitted job, wrapping its trace in a `service.req` span
    /// in the shared sink. Each request aggregates into a private
    /// [`AggSink`] first, so process-cumulative counters are never
    /// double-counted into the stream.
    fn run_job<S: TraceSink>(&self, job: &Job, ctx: &mut WorkerCtx, trace: &Mutex<S>) -> Outcome {
        let mut agg = AggSink::new();
        agg.gauge(
            "service.queue_wait_us",
            job.enqueued.elapsed().as_micros().min(u64::MAX as u128) as u64,
        );
        let (response, fixpoint) = self.handle(&job.request, ctx, &mut agg);
        let mut guard = trace.lock().expect("trace poisoned");
        let sink = &mut *guard;
        if sink.enabled() {
            let span = format!("service.req.{}", job.request.id);
            sink.span_start(&span);
            agg.replay_into(sink);
            sink.time_ns("service.req.latency", response.latency_us * 1000);
            sink.span_end(&span);
        }
        Outcome { response, fixpoint }
    }

    /// The daemon loop: JSONL requests from `input`, JSONL responses to
    /// `output` (as they complete — order is by completion, correlate by
    /// `id`), per-request traces to `trace`. Returns when `input` ends or
    /// a `{"cmd": "shutdown"}` line arrives; pending admitted requests
    /// are drained first. A line that is not valid UTF-8 is answered with
    /// a `bad-request` error like any other malformed line; only a failed
    /// read of `input` ends the loop with an error.
    pub fn serve(
        &self,
        mut input: impl BufRead,
        output: impl Write + Send,
        trace: Option<JsonlSink<Box<dyn Write + Send>>>,
    ) -> io::Result<()> {
        let queue = Queue::new();
        let out = Mutex::new(output);
        let trace_shared = Mutex::new(match trace {
            Some(sink) => TraceOut::Jsonl(sink),
            None => TraceOut::Off,
        });
        let write_line = |line: &str| -> io::Result<()> {
            let mut w = out.lock().expect("writer poisoned");
            writeln!(w, "{line}")?;
            w.flush()
        };
        std::thread::scope(|scope| -> io::Result<()> {
            for _ in 0..self.config.workers.max(1) {
                spawn_worker(scope, || {
                    let mut ctx = WorkerCtx::new();
                    while let Some(job) = queue.pop() {
                        let outcome = self.run_job(&job, &mut ctx, &trace_shared);
                        self.release(job.reservation);
                        let _ = write_line(&outcome.response.to_json());
                    }
                });
            }
            // The feeder runs inside a closure so that `queue.close()` is
            // reached on EVERY exit path, error or not. A `?` that escaped
            // the scope directly would leave the workers parked forever in
            // `Queue::pop` and `thread::scope` would never return — one
            // read error on stdin would wedge the daemon instead of
            // surfacing the error.
            let fed = (|| -> io::Result<()> {
                let mut buf = Vec::new();
                loop {
                    buf.clear();
                    if input.read_until(b'\n', &mut buf)? == 0 {
                        break;
                    }
                    let Ok(line) = std::str::from_utf8(&buf) else {
                        write_line(&invalid_utf8_response().to_json())?;
                        continue;
                    };
                    let line = line.trim();
                    if line.is_empty() {
                        continue;
                    }
                    if let Some(cmd) = control_command(line) {
                        match cmd.as_str() {
                            "shutdown" => break,
                            "stats" => {
                                write_line(&self.stats_json())?;
                                continue;
                            }
                            "health" => {
                                write_line(&self.health_json(queue.depth()))?;
                                continue;
                            }
                            other => {
                                write_line(&format!(
                                    "{{\"status\": \"error\", \"reason\": \"bad-request\", \
                                     \"detail\": \"unknown cmd {}\"}}",
                                    json::escape(other)
                                ))?;
                                continue;
                            }
                        }
                    }
                    match Request::decode(
                        line,
                        self.config.default_budget,
                        self.config.default_deadline_ms,
                    ) {
                        Ok(request) => match self.admit(&request, queue.depth()) {
                            Ok(reservation) => queue.push(Job {
                                slot: 0,
                                request,
                                reservation,
                                enqueued: Instant::now(),
                            }),
                            Err(reason) => write_line(
                                &Response {
                                    id: request.id,
                                    latency_us: 0,
                                    status: Status::Rejected { reason },
                                }
                                .to_json(),
                            )?,
                        },
                        Err(bad) => write_line(&bad_request_response(&bad).to_json())?,
                    }
                }
                Ok(())
            })();
            // Unconditional: workers drain whatever was admitted before the
            // failure, then exit, then the feeder's error (if any)
            // propagates.
            queue.close();
            fed
        })?;
        // Final flush: cumulative cache counters into the trace stream.
        if let TraceOut::Jsonl(sink) = &mut *trace_shared.lock().expect("trace poisoned") {
            self.cache_stats().emit_into(sink, "cache");
        }
        Ok(())
    }

    /// The `{"cmd": "stats"}` response line.
    pub fn stats_json(&self) -> String {
        let cache = self.cache_stats();
        let c = &self.counters;
        format!(
            "{{\"status\": \"stats\", \"accepted\": {}, \"rejected_queue\": {}, \
             \"rejected_budget\": {}, \"served_hit\": {}, \"served_warm\": {}, \
             \"served_solve\": {}, \
             \"degraded\": {}, \"failed\": {}, \"cache_hits\": {}, \"cache_misses\": {}, \
             \"cache_entries\": {}, \"cache_bytes\": {}, \"reserved_charges\": {}, \
             \"certify_ok\": {}, \"certify_fail\": {}, \"persist_recovered\": {}, \
             \"persist_corrupt\": {}, \"persist_evicted_bytes\": {}, \
             \"session_ttl_evict\": {}, \"mode_ignored\": {}}}",
            c.accepted.load(Ordering::Relaxed),
            c.rejected_queue.load(Ordering::Relaxed),
            c.rejected_budget.load(Ordering::Relaxed),
            c.served_hit.load(Ordering::Relaxed),
            c.served_warm.load(Ordering::Relaxed),
            c.served_solve.load(Ordering::Relaxed),
            c.degraded.load(Ordering::Relaxed),
            c.failed.load(Ordering::Relaxed),
            cache.hits,
            cache.misses,
            cache.entries,
            cache.bytes,
            self.reserved.load(Ordering::Relaxed),
            cache.certify_ok,
            cache.certify_fail,
            cache.persist_recovered,
            cache.persist_corrupt,
            cache.persist_evicted_bytes,
            cache.session_ttl_evictions,
            c.mode_ignored.load(Ordering::Relaxed),
        )
    }

    /// The `{"cmd": "health"}` response line: liveness plus the last
    /// startup-recovery summary, as one flat JSON object.
    pub fn health_json(&self, queue_depth: usize) -> String {
        let cache = self.cache_stats();
        let rec = self.recovery.unwrap_or_default();
        format!(
            "{{\"status\": \"health\", \"queue_depth\": {}, \"workers\": {}, \
             \"cache_entries\": {}, \"cache_bytes\": {}, \"persist\": {}, \
             \"recovered_entries\": {}, \"recovered_bytes\": {}, \
             \"recovered_corrupt\": {}, \"recovered_stale\": {}, \
             \"recovered_interrupted\": {}, \"recovered_sessions\": {}}}",
            queue_depth,
            self.config.workers,
            cache.entries,
            cache.bytes,
            self.persist.is_some(),
            rec.recovered,
            rec.bytes,
            rec.corrupt,
            rec.stale,
            rec.interrupted,
            rec.sessions,
        )
    }
}

/// The serve loop's trace slot: a JSONL stream or nothing.
enum TraceOut {
    Jsonl(JsonlSink<Box<dyn Write + Send>>),
    Off,
}

impl TraceSink for TraceOut {
    fn enabled(&self) -> bool {
        matches!(self, TraceOut::Jsonl(_))
    }
    fn counter(&mut self, name: &str, delta: u64) {
        if let TraceOut::Jsonl(s) = self {
            s.counter(name, delta);
        }
    }
    fn gauge(&mut self, name: &str, value: u64) {
        if let TraceOut::Jsonl(s) = self {
            s.gauge(name, value);
        }
    }
    fn time_ns(&mut self, name: &str, ns: u64) {
        if let TraceOut::Jsonl(s) = self {
            s.time_ns(name, ns);
        }
    }
    fn span_start(&mut self, name: &str) {
        if let TraceOut::Jsonl(s) = self {
            s.span_start(name);
        }
    }
    fn span_end(&mut self, name: &str) {
        if let TraceOut::Jsonl(s) = self {
            s.span_end(name);
        }
    }
}

fn control_command(line: &str) -> Option<String> {
    let fields = json::parse_object(line).ok()?;
    json::field(&fields, "cmd")
        .and_then(json::Scalar::as_str)
        .map(str::to_owned)
}

/// The answer to a request line that is not valid UTF-8: no id can be
/// read from it, so it is answered under id 0.
fn invalid_utf8_response() -> Response {
    Response {
        id: 0,
        latency_us: 0,
        status: Status::Error {
            reason: "bad-request",
            detail: "request line is not valid UTF-8".to_owned(),
        },
    }
}

fn bad_request_response(bad: &BadRequest) -> Response {
    Response {
        id: bad.id.unwrap_or(0),
        latency_us: 0,
        status: Status::Error {
            reason: if bad.id.is_some() {
                "bad-request"
            } else {
                "parse-error"
            },
            detail: bad.detail.clone(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_capacity_holds_two_worst_case_requests_per_worker() {
        let config = ServiceConfig::default();
        let slots = 2 * config.workers as u64;
        let rungs = |kind: AnalysisKind| ladder_rungs(kind).len() as u64;
        let longest = AnalysisKind::ALL.into_iter().map(rungs).max().unwrap();
        assert_eq!(
            config.capacity_charges,
            config.default_budget * longest * slots
        );
        // That is exactly what admission reserves for the costliest kind,
        // twice per worker.
        let policy = GovernPolicy::new().with_budget(AnalysisBudget::new(config.default_budget));
        let worst = AnalysisKind::ALL
            .into_iter()
            .map(|kind| policy.worst_case_charges(rungs(kind)))
            .max()
            .unwrap();
        assert_eq!(worst * slots, config.capacity_charges);
    }

    #[test]
    fn worker_arena_starts_over_once_past_its_cap() {
        const PROGRAM: &str = "(let (f (lambda (x) x)) (f (f 1)))";
        let mut ctx = WorkerCtx::with_arena_cap(24);
        let first = ctx.parse_request(PROGRAM).unwrap();
        let digest = ctx.digests.term_digest(&ctx.arena, first);
        let full = ctx.arena.num_nodes();
        assert!(full <= 24, "one program stays under the cap: {full}");
        // Under the cap the arena is kept: a repeat re-resolves to the
        // same node, and a new program only adds its own nodes.
        assert_eq!(ctx.parse_request(PROGRAM).unwrap(), first);
        ctx.parse_request("(g (add1 2) (sub1 3))").unwrap();
        let grown = ctx.arena.num_nodes();
        assert!(grown > 24, "two programs pass the cap: {grown}");
        // Past the cap, the next parse starts a fresh arena and digest
        // memo, and digests are structural, so keys do not change.
        let again = ctx.parse_request(PROGRAM).unwrap();
        assert_eq!(ctx.arena.num_nodes(), full);
        assert_eq!(ctx.digests.term_digest(&ctx.arena, again), digest);
    }

    #[test]
    fn session_memo_matches_on_digest_and_keeps_the_latest_sessions() {
        let mut ctx = WorkerCtx::new();
        let root = ctx.parse_request("(add1 1)").unwrap();
        let lowered = Rc::new(ctx.lower(root));
        for session in 0..=MAX_ANCESTORS as u64 {
            ctx.remember(session, 7, &lowered);
        }
        assert_eq!(ctx.sessions.len(), MAX_ANCESTORS);
        assert!(ctx.recall(0, 7).is_none(), "the oldest session is dropped");
        assert!(ctx.recall(1, 7).is_some());
        assert!(ctx.recall(1, 8).is_none(), "a digest mismatch falls back");
        // Re-noting a session replaces its entry rather than adding one.
        ctx.remember(1, 8, &lowered);
        assert_eq!(ctx.sessions.len(), MAX_ANCESTORS);
        assert!(ctx.recall(1, 7).is_none() && ctx.recall(1, 8).is_some());
    }
}
