//! The three abstract collecting interpreters of Sabry & Felleisen (PLDI
//! 1994) — the paper's data flow analyzers — plus everything needed to
//! reproduce its formal results:
//!
//! * [`DirectAnalyzer`] — `M_e`, **Figure 4**: abstract interpretation of
//!   the direct semantics; merges at conditionals and call sites.
//! * [`SemCpsAnalyzer`] — `C_e`, **Figure 5**: abstract interpretation of
//!   the continuation semantics; duplicates the analysis of the current
//!   continuation along every path (more precise for non-distributive
//!   analyses, Theorem 5.4; exponential, §6.2; non-computable with `loop`).
//! * [`SynCpsAnalyzer`] — `M_s`, **Figure 6**: direct-style analysis of the
//!   CPS-transformed program; collects *sets* of continuations at `k`
//!   variables and so suffers §6.1's false returns (Theorem 5.1) while
//!   still gaining from duplication (Theorem 5.2) — the source and CPS
//!   analyses are *incomparable*.
//!
//! Supporting modules: a constraint-based [0CFA baseline](cfa) (Shivers
//! 1991) over both representations, the generic numeric [domains](domain) (§4.2), the
//! [abstract value/store lattices](absval) (§4.1), the [δₑ](deltae)
//! mapping and [`precision`] comparisons (§5), an executable
//! [soundness criterion](soundness) (§4.3), [distributivity](distrib)
//! checks (Definition 5.3), machine-independent [cost counters](stats) and
//! [flow logs](flow) (§6.1–6.2), a structured [trace/metrics layer](trace)
//! (spans, counters, timers; no-op / aggregating / JSONL sinks) that the
//! solvers and analyzers flush their counters into at phase boundaries,
//! the classical [MFP/MOP
//! substrate](mfp) for the Nielson / Kam–Ullman discussion (§6.2), and the
//! shared sparse [worklist fixpoint engine](solver) — semi-naïve: firings
//! consume per-watch *deltas*, not whole sets — with its [hash-consed set
//! arena and append-only delta node store](setpool) that the 0CFA and MFP
//! solvers run on.
//!
//! # Quick tour: Theorem 5.1 in five lines
//!
//! ```
//! use cpsdfa_anf::AnfProgram;
//! use cpsdfa_core::{domain::{Flat, NumDomain}, DirectAnalyzer, SynCpsAnalyzer};
//! use cpsdfa_cps::CpsProgram;
//!
//! let p = AnfProgram::parse("(let (f (lambda (x) x)) (let (a1 (f 1)) (let (a2 (f 2)) a1)))")?;
//! let direct = DirectAnalyzer::<Flat>::new(&p).analyze()?;
//! let cps = CpsProgram::from_anf(&p);
//! let syn = SynCpsAnalyzer::<Flat>::new(&cps).analyze()?;
//! assert_eq!(direct.store.get(p.var_named("a1").unwrap()).num.as_const(), Some(1));
//! assert!(syn.store.get(cps.var_named("a1").unwrap()).num.is_top()); // false return
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod absval;
pub mod budget;
pub mod cache;
pub mod certify;
pub mod cfa;
pub mod deltae;
pub mod direct;
pub mod distrib;
pub mod domain;
pub mod faultinject;
pub mod flow;
pub mod govern;
pub mod incremental;
pub mod kcfa;
pub mod kernels;
pub mod labtab;
pub mod mfp;
pub mod precision;
pub mod pushdown;
pub mod report;
pub mod semcps;
pub mod setpool;
pub mod solver;
pub mod soundness;
pub mod stats;
pub mod syncps;
pub mod trace;

pub use absval::{AbsAnswer, AbsClo, AbsKont, AbsStore, AbsVal, CAbsAnswer, CAbsStore, CAbsVal};
pub use budget::{AnalysisBudget, AnalysisError};
pub use cache::{
    AnalysisKind, Ancestor, ArenaDigests, CacheKey, CacheStats, CachedAnswer, CachedFixpoint,
    FixpointCache, PersistDir, RecoveryReport,
};
pub use certify::{
    certify_answer, certify_cfa_cps, certify_cfa_src, certify_mfp, certify_pushdown, Certificate,
    Refutation,
};
pub use cpsdfa_syntax::fxhash::{FxBuildHasher, FxHashMap};
pub use direct::{DirectAnalyzer, DirectResult};
pub use faultinject::{FaultKind, FaultPlan, PersistFault, PersistFaultPlan};
pub use flow::FlowLog;
pub use govern::{
    CancelToken, CfaAnswer, Deadline, DegradationLadder, DegradationReport, GovernPolicy, Governed,
    RunGuard, RungAttempt,
};
pub use labtab::{LabelLookup, LabelTable};
pub use precision::PrecisionOrder;
pub use pushdown::{pushdown_cfa, MatchedReturn, PushdownCfaResult};
pub use semcps::{SemCpsAnalyzer, SemCpsResult};
pub use setpool::{DeltaNodes, PoolStats, SetId, SetPool};
pub use solver::{worker_count, DeltaRange, SolverMode, WorklistSolver};
pub use stats::{AnalysisStats, SolverStats};
pub use syncps::{SynCpsAnalyzer, SynCpsResult};
pub use trace::{AggSink, JsonlSink, NoopSink, TraceSink};
