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
//! program is resolved to its root in the worker's arena, digested
//! (memoized per node id), and looked up under the full-precision
//! [`CacheKey`]. Resolving a text the worker has already served as a hit
//! is one lookup in its *repeat memo* (program text → root, compared on
//! the full text); any other text is parsed into the arena. Only served
//! hits enter the memo, so a program seen once costs it nothing. The memo
//! starts over with the arena, whose ids it holds, and on its own once it
//! charges more than 8 MiB of text. Fresh answers commit under the kind of
//! the analysis that produced them: a degraded answer serves later
//! requests for its own, lower kind and never shadows the requested one.
//! See `DESIGN.md` §11 for the soundness argument.
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
mod spill;

use cpsdfa_anf::AnfProgram;
use cpsdfa_core::cache::{
    AnalysisKind, Ancestor, ArenaDigests, CacheKey, CacheStats, CachedAnswer, CachedFixpoint,
    FixpointCache, PersistDir, RecoveryReport, MAX_ANCESTORS,
};
use cpsdfa_core::certify::certify_answer;
use cpsdfa_core::faultinject::{PersistFault, PersistFaultPlan};
use cpsdfa_core::govern::{
    governed, ladder, DegradationReport, GovernPolicy, Governed, Lowered, RungAttempt,
};
use cpsdfa_core::incremental::{self, WarmSolve};
use cpsdfa_core::trace::TraceSink;
use cpsdfa_core::{worker_count, AggSink, AnalysisBudget, AnalysisError, JsonlSink};
use cpsdfa_syntax::arena::{TermArena, TermId};
use cpsdfa_syntax::parse::{ParseError, ParseErrorKind};
use proto::{BadRequest, Request, Response, Served, Status};
use spill::SpillWriter;
use std::collections::{HashMap, VecDeque};
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
    /// [`AnalysisService::recovery`]. While serving, one writer thread
    /// commits each spill after its answer is sent: a crash loses at most
    /// the spills still queued, never a torn or wrong entry.
    pub persist_dir: Option<PathBuf>,
    /// Serve-path certification sampling: every `N`th cache hit or warm
    /// answer is independently re-checked by [`certify_answer`] before it
    /// is served (0 = off, 1 = certify everything). A refuted answer is
    /// evicted from memory *and* disk and recomputed from scratch — never
    /// served.
    pub certify_sample: u64,
    /// How many recovered entries startup recovery pushes through full
    /// certification: the first valid ones in sorted file order, however
    /// many threads recovery runs on (checksums and key re-digests are
    /// always verified).
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
            .map(|&kind| ladder(kind).len() as u64)
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
    /// Requests whose program a worker's repeat memo resolved unparsed.
    parse_reused: AtomicU64,
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
    /// The writer that owns the crash-safe spill directory, when one is
    /// configured and openable.
    spill: Option<SpillWriter>,
    /// What startup recovery found in the spill directory.
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

/// A worker's repeat memo starts over once its entries would charge more
/// than this many bytes: each entry is charged its program text plus one
/// table slot. Whitespace variants of one program add memo entries but no
/// arena nodes, so the arena cap alone would not bound the memo.
const REPEAT_MEMO_BYTES: usize = 8 << 20;

/// What a repeat-memo entry is charged beyond its text: its table slot.
const REPEAT_SLOT_BYTES: usize = std::mem::size_of::<(Box<str>, TermId)>();

/// Stack reserved for each worker thread. Most front-end walkers recurse
/// on term height, which the parser bounds at
/// [`MAX_DEPTH`](cpsdfa_syntax::parse::MAX_DEPTH); an optimized build
/// serves programs at that bound within the 2 MiB default, but unoptimized
/// frames are several times larger. Untouched stack costs no memory.
const WORKER_STACK_BYTES: usize = 64 << 20;

/// Per-worker reusable state: the hash-consing arena, its digest memo, the
/// repeat memo, and the session memo. Workers never share arenas — digests
/// are structural, so keys agree across workers without sharing.
struct WorkerCtx {
    arena: TermArena,
    digests: ArenaDigests,
    /// Node count past which the next request's parse starts a new arena.
    arena_cap: usize,
    /// Program text → its root in `arena`, for texts this worker has served
    /// as cache hits. A repeat resolves here instead of being parsed.
    /// Cleared with `arena`, whose ids its roots are. The keys are client
    /// text, so the table keeps the default keyed hasher: crafted
    /// collisions cannot turn its probes linear.
    repeats: HashMap<Box<str>, TermId>,
    /// Bytes charged to `repeats` (see [`REPEAT_MEMO_BYTES`]).
    repeat_bytes: usize,
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
            repeats: HashMap::new(),
            repeat_bytes: 0,
            sessions: VecDeque::new(),
        }
    }

    /// Resolves a request's program to its root in the arena, and whether
    /// the repeat memo answered. A text the memo holds (compared in full)
    /// is not parsed. Otherwise the program is parsed, first starting the
    /// arena, digest memo and repeat memo over if the arena has outgrown
    /// its cap.
    fn parse_request(&mut self, program: &str) -> Result<(TermId, bool), ParseError> {
        if let Some(&root) = self.repeats.get(program) {
            return Ok((root, true));
        }
        if self.arena.num_nodes() > self.arena_cap {
            self.arena = TermArena::new();
            self.digests = ArenaDigests::new();
            self.clear_repeats();
        }
        Ok((self.arena.parse(program)?, false))
    }

    /// Records `program` as parsing to `root`, so its next request skips
    /// the parse; starts the memo over first if the entry would pass
    /// [`REPEAT_MEMO_BYTES`].
    fn remember_repeat(&mut self, program: &str, root: TermId) {
        let charge = program.len() + REPEAT_SLOT_BYTES;
        if self.repeat_bytes + charge > REPEAT_MEMO_BYTES {
            self.clear_repeats();
            if charge > REPEAT_MEMO_BYTES {
                return;
            }
        }
        self.repeat_bytes += charge;
        self.repeats.insert(program.into(), root);
    }

    fn clear_repeats(&mut self) {
        self.repeats.clear();
        self.repeat_bytes = 0;
    }

    /// The daemon's one lowering: the arena term, expanded and normalized.
    fn lower(&self, root: TermId) -> Lowered {
        Lowered::new(AnfProgram::from_term(&self.arena.to_term(root)))
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
    state: Mutex<QueueState>,
    /// Signalled when a job is pushed or the queue closes.
    ready: Condvar,
    /// Signalled when a job completes.
    done: Condvar,
}

#[derive(Default)]
struct QueueState {
    pending: VecDeque<Job>,
    closed: bool,
    /// Jobs ever pushed.
    submitted: u64,
    /// Jobs whose worker has finished with them.
    completed: u64,
}

/// Marks one popped job complete when dropped: after its response is
/// written, or while its worker unwinds from a panic, so
/// [`Queue::wait_drained`] never waits on a job that cannot finish.
struct Completion<'q>(&'q Queue);

impl Drop for Completion<'_> {
    fn drop(&mut self) {
        // No `expect`: this may run while the worker unwinds.
        let mut state = self.0.state.lock().unwrap_or_else(|e| e.into_inner());
        state.completed += 1;
        self.0.done.notify_all();
    }
}

impl Queue {
    fn new() -> Self {
        Queue {
            state: Mutex::new(QueueState::default()),
            ready: Condvar::new(),
            done: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState> {
        self.state.lock().expect("queue poisoned")
    }

    fn depth(&self) -> usize {
        self.lock().pending.len()
    }

    fn push(&self, job: Job) {
        let mut state = self.lock();
        state.pending.push_back(job);
        state.submitted += 1;
        drop(state);
        self.ready.notify_one();
    }

    fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    /// The next job, with the guard that marks it complete; `None` once
    /// the queue is closed and empty.
    fn pop(&self) -> Option<(Job, Completion<'_>)> {
        let mut state = self.lock();
        loop {
            if let Some(job) = state.pending.pop_front() {
                return Some((job, Completion(self)));
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).expect("queue poisoned");
        }
    }

    /// Blocks until every job pushed so far has completed.
    fn wait_drained(&self) {
        let mut state = self.lock();
        while state.completed < state.submitted {
            state = self.done.wait(state).expect("queue poisoned");
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
        let mut spill = None;
        let mut recovery = None;
        if let Some(dir) = &config.persist_dir {
            match PersistDir::open(dir).and_then(|p| {
                let report = p.recover(&mut cache, config.recover_certify);
                Ok((SpillWriter::spawn(p)?, report))
            }) {
                Ok((writer, report)) => {
                    cache.note_recovery(&report);
                    spill = Some(writer);
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
            spill,
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

    /// Hands a committed fixpoint to the spill writer and returns at once,
    /// poking the chaos plan (if armed) for a fault to inject. A spill that
    /// is dropped or fails is merely a cold start after a restart.
    fn spill(&self, key: &CacheKey, source: &str, fixpoint: &Arc<CachedFixpoint>) {
        if let Some(spill) = &self.spill {
            let fault = self.persist_fault();
            spill.store(*key, source.to_owned(), Arc::clone(fixpoint), fault);
        }
    }

    /// The fault the chaos plan injects into this request's commit, if any.
    fn persist_fault(&self) -> Option<PersistFault> {
        self.config.persist_faults.as_ref().and_then(|p| p.poke())
    }

    /// Waits until the spill writer has done every job queued so far.
    fn drain_spills(&self) {
        if let Some(spill) = &self.spill {
            spill.drain();
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
        let want = self.policy_for(req).worst_case_charges(req.kind);
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

        // Resolve the program to its root in the worker's hash-consing
        // arena: through the repeat memo when this worker has served the
        // same text as a hit, else by parsing. Either way a repeated
        // program re-resolves to the same node ids, so the digest below is
        // a memo hit — the whole hit path does no per-node work.
        let (root, reused) = match ctx.parse_request(&req.program) {
            Ok(resolved) => resolved,
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
        if reused {
            self.counters.parse_reused.fetch_add(1, Ordering::Relaxed);
            sink.counter("service.parse.reused", 1);
        }
        let digest = ctx.digests.term_digest(&ctx.arena, root);
        let full_key = CacheKey::new(req.kind, digest);

        if self.config.cache_enabled {
            let cached = self.cache.lock().expect("cache poisoned").lookup(&full_key);
            if let Some(hit) = cached {
                // Sampled certification: re-derive the constraint system
                // independently of the solver and check the cached answer
                // against it. A refuted entry — recovered corruption the
                // checksums could not see, or a solver bug — is evicted
                // from memory *and* disk, then the request falls through
                // to a from-scratch solve below. Wrong answers are
                // detected and healed, never served.
                let refuted = self.should_certify() && {
                    match certify_answer(ctx.lower(root).anf(), &hit.answer) {
                        Ok(_) => {
                            self.cache.lock().expect("cache poisoned").note_certify_ok();
                            sink.counter("service.certify.ok", 1);
                            false
                        }
                        Err(refutation) => {
                            let disk = self.spill.as_ref().map_or(0, |s| s.remove(full_key));
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
                    // Only a served hit enters the repeat memo: a program
                    // seen once (every cold miss) never costs it memory.
                    if !reused {
                        ctx.remember_repeat(&req.program, root);
                    }
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

        // Watch mode: before paying for the ladder, try to reuse the
        // session's previous fixpoint. An edit that changed only constants
        // or names (only names, for MFP) is answered from it; any other
        // edit falls through to the governed ladder below: warm starting
        // is an optimization, never a gate.
        'warm: {
            if !self.config.cache_enabled {
                break 'warm;
            }
            let Some(session) = req.session else {
                break 'warm;
            };
            let Some((answer, charged)) = self.session_warm(req, session, &lowered, ctx, sink)
            else {
                break 'warm;
            };
            // Certify-on-warm: a sampled warm answer is re-checked against
            // an independently derived constraint system before it is
            // served. A refutation means the remembered ancestor is
            // untrustworthy — evict the session (memory and journal) and
            // fall through to the cold ladder below.
            if self.should_certify() {
                if let Err(refutation) = certify_answer(lowered.anf(), &answer) {
                    let mut cache = self.cache.lock().expect("cache poisoned");
                    cache.evict_session(session);
                    cache.note_certify_fail(0);
                    drop(cache);
                    if let Some(spill) = &self.spill {
                        spill.remove_session(session);
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

        let Governed {
            value: answer,
            report,
        } = match governed(req.kind, &lowered, &self.policy_for(req), sink) {
            Ok(answered) => answered,
            // A first-order analysis of a higher-order program has its
            // own reply, not `analysis-failed`.
            Err(AnalysisError::NotFirstOrder { detail }) => {
                self.counters.failed.fetch_add(1, Ordering::Relaxed);
                return (
                    finish(Status::Error {
                        reason: "not-first-order",
                        detail,
                    }),
                    None,
                );
            }
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
        let charged: u64 = report.attempts.iter().map(|a| a.charged).sum();
        // Every rung is an analysis of its own, so the answer commits under
        // the kind that computed it: a degraded answer is exactly what a
        // request for that lower kind would compute, serves such requests
        // later, and never shadows the requested kind's answer.
        let commit_key = CacheKey::new(answer.kind(), digest);
        let fixpoint = Arc::new(CachedFixpoint::new(answer, report));
        if self.config.cache_enabled {
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
            rung: commit_key.rung,
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
        if let Some(spill) = &self.spill {
            spill.store_session(session, ancestor.clone(), self.persist_fault());
        }
        self.cache
            .lock()
            .expect("cache poisoned")
            .note_ancestor(session, ancestor);
    }

    /// Attempts the watch-mode warm start: when the edit kept the
    /// program's shape, the session's remembered fixpoint is the answer
    /// (noop for the CFA kinds; transport for MFP, which also needs the
    /// constants unchanged). Both rungs are differentially tested
    /// bit-identical to a from-scratch solve, so a `Some` answer is
    /// exactly what the ladder would have produced — minus the work.
    /// `None` means "not warm-eligible; run the ladder".
    ///
    /// The ancestor's program comes from the worker's session memo when this
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
    ) -> Option<(CachedAnswer, u64)> {
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
                match incremental::zero_cfa_incremental(old.anf(), prev, new.anf(), &guard, sink) {
                    Ok(WarmSolve::Warm(result, _)) => Some(CachedAnswer::CfaSrc(result)),
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
                    Ok(WarmSolve::Warm(result, _)) => Some(CachedAnswer::CfaCps(result)),
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
                    Ok(WarmSolve::Warm(result, _)) => Some(CachedAnswer::CfaPushdown(result)),
                    _ => None,
                }
            }
            CachedAnswer::MfpFlat(prev) => {
                incremental::solve_mfp_incremental(old.anf(), prev, new.anf())
                    .map(|(summary, _)| CachedAnswer::MfpFlat(summary))
            }
        };
        warm.map(|answer| (answer, guard.total_spent()))
    }

    /// Runs a batch of request lines through the worker pool and returns
    /// the outcomes *in request order* (admission rejections and parse
    /// errors included), once every spill of the batch is on disk. This is
    /// the in-process entry point the tests and the E20 benchmark drive;
    /// [`serve`](AnalysisService::serve) is the same machinery fed from a
    /// stream.
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
                    while let Some((job, _done)) = queue.pop() {
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
        self.drain_spills();
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
    /// `id`), per-request traces to `trace`. A `{"cmd": "stats"}` line is
    /// answered once every request read before it has been answered and
    /// every spill those requests queued is on disk. Returns when `input`
    /// ends or a `{"cmd": "shutdown"}` line arrives; pending admitted
    /// requests and their spills are drained first. A line that is not valid UTF-8 is answered with
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
        let served = std::thread::scope(|scope| -> io::Result<()> {
            for _ in 0..self.config.workers.max(1) {
                spawn_worker(scope, || {
                    let mut ctx = WorkerCtx::new();
                    // `_done` drops after the response is written.
                    while let Some((job, _done)) = queue.pop() {
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
                    // One JSON pass per line: a string `cmd` field makes it
                    // a control line, anything else is a request.
                    let fields = match json::parse_object(line) {
                        Ok(fields) => fields,
                        Err(detail) => {
                            let bad = BadRequest::unparsable(detail);
                            write_line(&bad_request_response(&bad).to_json())?;
                            continue;
                        }
                    };
                    if let Some(cmd) = json::field(&fields, "cmd").and_then(json::Scalar::as_str) {
                        match cmd {
                            "shutdown" => break,
                            // `stats` answers after every earlier request
                            // and its spills, so its counters include them;
                            // `health` stays an immediate liveness probe.
                            "stats" => {
                                queue.wait_drained();
                                self.drain_spills();
                                write_line(&self.stats_json())?;
                                continue;
                            }
                            "health" => {
                                write_line(&self.health_json(queue.depth()))?;
                                continue;
                            }
                            other => {
                                let bad = BadRequest {
                                    id: None,
                                    reason: "bad-request",
                                    detail: format!("unknown cmd {other}"),
                                };
                                write_line(&bad_request_response(&bad).to_json())?;
                                continue;
                            }
                        }
                    }
                    match Request::from_fields(
                        fields,
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
        });
        self.drain_spills();
        served?;
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
             \"persist_spilled\": {}, \"persist_dropped\": {}, \
             \"session_ttl_evict\": {}, \"mode_ignored\": {}, \"parse_reused\": {}}}",
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
            self.spill.as_ref().map_or(0, SpillWriter::spilled),
            self.spill.as_ref().map_or(0, SpillWriter::dropped),
            cache.session_ttl_evictions,
            c.mode_ignored.load(Ordering::Relaxed),
            c.parse_reused.load(Ordering::Relaxed),
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
             \"recovered_interrupted\": {}, \"recovered_sessions\": {}, \
             \"recover_ms\": {}}}",
            queue_depth,
            self.config.workers,
            cache.entries,
            cache.bytes,
            self.spill.is_some(),
            rec.recovered,
            rec.bytes,
            rec.corrupt,
            rec.stale,
            rec.interrupted,
            rec.sessions,
            rec.recover_ms,
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
            reason: bad.reason,
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
        let longest = AnalysisKind::ALL
            .into_iter()
            .map(|kind| ladder(kind).len() as u64)
            .max()
            .unwrap();
        assert_eq!(
            config.capacity_charges,
            config.default_budget * longest * slots
        );
        // That is exactly what admission reserves for the costliest kind,
        // twice per worker.
        let policy = GovernPolicy::new().with_budget(AnalysisBudget::new(config.default_budget));
        let worst = AnalysisKind::ALL
            .into_iter()
            .map(|kind| policy.worst_case_charges(kind))
            .max()
            .unwrap();
        assert_eq!(worst * slots, config.capacity_charges);
    }

    #[test]
    fn worker_arena_starts_over_once_past_its_cap() {
        const PROGRAM: &str = "(let (f (lambda (x) x)) (f (f 1)))";
        let mut ctx = WorkerCtx::with_arena_cap(24);
        let (first, _) = ctx.parse_request(PROGRAM).unwrap();
        let digest = ctx.digests.term_digest(&ctx.arena, first);
        let full = ctx.arena.num_nodes();
        assert!(full <= 24, "one program stays under the cap: {full}");
        // Under the cap the arena is kept: a repeat re-resolves to the
        // same node, and a new program only adds its own nodes.
        assert_eq!(ctx.parse_request(PROGRAM).unwrap(), (first, false));
        let (other, _) = ctx.parse_request("(g (add1 2) (sub1 3))").unwrap();
        ctx.remember_repeat("(g (add1 2) (sub1 3))", other);
        let grown = ctx.arena.num_nodes();
        assert!(grown > 24, "two programs pass the cap: {grown}");
        // Past the cap, the next parse starts a fresh arena, digest memo
        // and repeat memo (its roots were ids of the old arena), and
        // digests are structural, so keys do not change.
        let (again, reused) = ctx.parse_request(PROGRAM).unwrap();
        assert!(!reused);
        assert_eq!(ctx.arena.num_nodes(), full);
        assert!(ctx.repeats.is_empty() && ctx.repeat_bytes == 0);
        assert_eq!(ctx.digests.term_digest(&ctx.arena, again), digest);
    }

    /// Runs one request line through `handle` on `ctx`, returning the
    /// response and the request's own trace.
    fn handle_line(
        service: &AnalysisService,
        ctx: &mut WorkerCtx,
        line: &str,
    ) -> (Response, AggSink) {
        let req = Request::decode(line, service.config.default_budget, None).unwrap();
        let mut agg = AggSink::new();
        let (resp, _) = service.handle(&req, ctx, &mut agg);
        (resp, agg)
    }

    fn cache_and_digest(resp: &Response) -> (&Served, u64) {
        match &resp.status {
            Status::Ok {
                cache,
                answer_digest,
                ..
            } => (cache, *answer_digest),
            other => panic!("expected ok, got {other:?}"),
        }
    }

    const REPEATED: &str =
        r#"{"id": 1, "analysis": "cfa.cps", "program": "(let (f (lambda (x) x)) (f (f 1)))"}"#;

    #[test]
    fn a_served_hit_lets_the_next_repeat_skip_the_parse() {
        let service = AnalysisService::new(ServiceConfig::default());
        let mut ctx = WorkerCtx::new();
        let (miss, trace) = handle_line(&service, &mut ctx, REPEATED);
        assert_eq!(cache_and_digest(&miss).0, &Served::Miss);
        assert!(ctx.repeats.is_empty(), "a program seen once is not stored");
        assert_eq!(trace.counter_value("service.parse.reused"), 0);
        let (hit, trace) = handle_line(&service, &mut ctx, REPEATED);
        assert_eq!(cache_and_digest(&hit).0, &Served::Hit);
        assert_eq!(trace.counter_value("service.parse.reused"), 0);
        assert_eq!(ctx.repeats.len(), 1, "the served hit is stored");
        let nodes = ctx.arena.num_nodes();
        let (memo, trace) = handle_line(&service, &mut ctx, REPEATED);
        assert_eq!(cache_and_digest(&memo), cache_and_digest(&hit));
        assert_eq!(trace.counter_value("service.parse.reused"), 1);
        assert_eq!(ctx.arena.num_nodes(), nodes);
        assert_eq!(ctx.repeats.len(), 1);
        assert!(service.stats_json().contains("\"parse_reused\": 1}"));
    }

    #[test]
    fn parse_errors_never_enter_the_repeat_memo() {
        let service = AnalysisService::new(ServiceConfig::default());
        let mut ctx = WorkerCtx::new();
        let line = r#"{"id": 2, "analysis": "cfa.src", "program": "(f (("}"#;
        let responses: Vec<Status> = (0..3)
            .map(|_| handle_line(&service, &mut ctx, line).0.status)
            .collect();
        assert!(
            matches!(
                &responses[0],
                Status::Error {
                    reason: "parse-error",
                    ..
                }
            ),
            "{:?}",
            responses[0]
        );
        assert!(
            responses.iter().all(|r| r == &responses[0]),
            "{responses:?}"
        );
        assert!(ctx.repeats.is_empty());
    }

    #[test]
    fn memo_resolved_hits_are_still_certified() {
        let service = AnalysisService::new(ServiceConfig {
            certify_sample: 1,
            ..ServiceConfig::default()
        });
        let mut ctx = WorkerCtx::new();
        for (want, certified) in [(Served::Miss, 0), (Served::Hit, 1), (Served::Hit, 2)] {
            let (resp, _) = handle_line(&service, &mut ctx, REPEATED);
            assert_eq!(cache_and_digest(&resp).0, &want);
            assert_eq!(service.cache_stats().certify_ok, certified);
        }
        assert!(service.stats_json().contains("\"parse_reused\": 1}"));
    }

    #[test]
    fn whitespace_variants_miss_the_memo_but_hit_the_cache() {
        let service = AnalysisService::new(ServiceConfig::default());
        let mut ctx = WorkerCtx::new();
        let (miss, _) = handle_line(&service, &mut ctx, REPEATED);
        handle_line(&service, &mut ctx, REPEATED);
        let variant = REPEATED.replace("(f (f 1))", "(f  (f 1) )");
        let nodes = ctx.arena.num_nodes();
        let (hit, trace) = handle_line(&service, &mut ctx, &variant);
        assert_eq!(trace.counter_value("service.parse.reused"), 0);
        assert_eq!(
            cache_and_digest(&hit),
            (&Served::Hit, cache_and_digest(&miss).1)
        );
        // The variant parsed to the same nodes, and is now a memo entry of
        // its own with the same root.
        assert_eq!(ctx.arena.num_nodes(), nodes);
        let roots: Vec<TermId> = ctx.repeats.values().copied().collect();
        assert_eq!(roots.len(), 2);
        assert_eq!(roots[0], roots[1]);
    }

    #[test]
    fn repeat_memo_starts_over_past_its_byte_bound() {
        let mut ctx = WorkerCtx::new();
        let (root, _) = ctx.parse_request("(add1 1)").unwrap();
        // Whitespace variants of one program, each charged an eighth of
        // the bound: the first eight fill the memo exactly.
        let text_bytes = REPEAT_MEMO_BYTES / 8 - REPEAT_SLOT_BYTES;
        let variant = |i: usize| {
            let pad = text_bytes - "(add1 1)".len();
            format!("{}(add1 1){}", " ".repeat(i), " ".repeat(pad - i))
        };
        for i in 0..8 {
            ctx.remember_repeat(&variant(i), root);
        }
        assert_eq!(ctx.repeats.len(), 8);
        assert_eq!(ctx.repeat_bytes, REPEAT_MEMO_BYTES);
        assert_eq!(ctx.parse_request(&variant(0)).unwrap(), (root, true));
        // A ninth would pass the bound: the memo starts over with it.
        ctx.remember_repeat(&variant(8), root);
        assert_eq!(ctx.repeats.len(), 1);
        assert_eq!(ctx.repeat_bytes, REPEAT_MEMO_BYTES / 8);
        assert_eq!(ctx.parse_request(&variant(8)).unwrap(), (root, true));
        assert_eq!(ctx.parse_request(&variant(0)).unwrap(), (root, false));
        // A text larger than the whole bound is never stored.
        ctx.remember_repeat(&" ".repeat(REPEAT_MEMO_BYTES), root);
        assert!(ctx.repeats.is_empty() && ctx.repeat_bytes == 0);
    }

    #[test]
    fn every_refusal_the_service_sends_decodes_on_the_client() {
        let service = AnalysisService::new(ServiceConfig {
            capacity_charges: 0,
            ..ServiceConfig::default()
        });
        let bomb = format!("{}1{}", "(add1 ".repeat(5000), ")".repeat(5000));
        let handled = |ctx: &mut WorkerCtx| -> Vec<Response> {
            [
                ("cfa.src", "(f ((", ""),
                ("cfa.src", bomb.as_str(), ""),
                ("mfp.flat", "(let (f (lambda (x) x)) (f 1))", ""),
                (
                    "cfa.src",
                    "(let (f (lambda (x) x)) (f (f 1)))",
                    r#", "budget": 1"#,
                ),
            ]
            .into_iter()
            .map(|(analysis, program, extra)| {
                let line = format!(
                    r#"{{"id": 5, "analysis": "{analysis}", "program": "{program}"{extra}}}"#
                );
                handle_line(&service, ctx, &line).0
            })
            .collect()
        };
        // On a worker's stack, as the daemon parses: an unoptimized parse
        // up to MAX_DEPTH needs more than a test thread's.
        let mut responses = std::thread::scope(|scope| {
            std::thread::Builder::new()
                .stack_size(WORKER_STACK_BYTES)
                .spawn_scoped(scope, || handled(&mut WorkerCtx::new()))
                .expect("spawn worker thread")
                .join()
                .expect("worker thread")
        });
        responses.push(bad_request_response(
            &Request::decode(r#"{"id": 6, "analysis": "nope", "program": "1"}"#, 1, None)
                .unwrap_err(),
        ));
        responses.push(invalid_utf8_response());
        let req = Request::decode(REPEATED, 1, None).unwrap();
        for depth in [service.config.max_queue, 0] {
            responses.push(Response {
                id: req.id,
                latency_us: 0,
                status: Status::Rejected {
                    reason: service.admit(&req, depth).unwrap_err(),
                },
            });
        }
        let reasons: Vec<&str> = responses
            .iter()
            .map(|r| match &r.status {
                Status::Error { reason, .. } | Status::Rejected { reason } => *reason,
                other => panic!("expected a refusal, got {other:?}"),
            })
            .collect();
        assert_eq!(
            reasons,
            [
                "parse-error",
                "too-deep",
                "not-first-order",
                "analysis-failed",
                "bad-request",
                "bad-request",
                "queue-full",
                "over-capacity"
            ]
        );
        for resp in responses {
            assert_eq!(Response::parse(&resp.to_json()), Ok(resp));
        }
    }

    #[test]
    fn session_memo_matches_on_digest_and_keeps_the_latest_sessions() {
        let mut ctx = WorkerCtx::new();
        let (root, _) = ctx.parse_request("(add1 1)").unwrap();
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
