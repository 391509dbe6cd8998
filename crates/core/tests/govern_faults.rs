//! Integration tests for the resource-governance layer (`core::govern`)
//! and its deterministic fault injector (`core::faultinject`).
//!
//! Three acceptance criteria live here:
//!
//! 1. A budget-starved `zero_cfa_cps` run on `dispatch(320)` returns a
//!    `Governed` direct-style answer with a populated `DegradationReport`
//!    instead of `Err(BudgetExhausted)`.
//! 2. A panic injected into one `par_map_isolated` worker leaves every
//!    other worker's result intact.
//! 3. Differential: a recoverable fault injected at a seed-chosen firing
//!    never changes the final answer when the ladder recovers — checked
//!    against the un-faulted run of the answering rung over a ≥300-program
//!    corpus, plus a proptest over random seeds and firings.

use std::sync::OnceLock;
use std::time::Duration;

use cpsdfa_anf::AnfProgram;
use cpsdfa_core::budget::{AnalysisBudget, AnalysisError};
use cpsdfa_core::cache::{AnalysisKind, CachedAnswer};
use cpsdfa_core::cfa::{
    zero_cfa, zero_cfa_cps, zero_cfa_cps_guarded, zero_cfa_cps_instrumented, zero_cfa_guarded,
    zero_cfa_instrumented,
};
use cpsdfa_core::domain::Flat;
use cpsdfa_core::faultinject::{FaultKind, FaultPlan, INJECTED_PANIC};
use cpsdfa_core::govern::{
    governed, ladder, solve, CancelToken, GovernPolicy, Governed, Lowered, RunGuard,
};
use cpsdfa_core::mfp::Cfg;
use cpsdfa_core::pushdown::pushdown_cfa_instrumented;
use cpsdfa_core::trace::{AggSink, NoopSink, TraceSink};
use cpsdfa_cps::CpsProgram;
use cpsdfa_workloads::families;
use cpsdfa_workloads::par::{par_map_isolated, ParOutcome};
use cpsdfa_workloads::random::{corpus, open_config};
use proptest::prelude::*;

/// Silences the default panic printer for panics this suite injects on
/// purpose (the injected-fault marker and the poisoned-worker marker),
/// delegating everything else to the previous hook. Installed once for
/// the whole test binary — tests run concurrently and the hook is global.
fn quiet_injected_panics() {
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let message = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| info.payload().downcast_ref::<String>().cloned())
                .unwrap_or_default();
            if message.contains(INJECTED_PANIC) || message.contains("poisoned worker") {
                return;
            }
            previous(info);
        }));
    });
}

/// The daemon's ladder for `kind` over `prog`.
fn run_ladder(
    kind: AnalysisKind,
    prog: &AnfProgram,
    policy: &GovernPolicy,
    sink: &mut impl TraceSink,
) -> Result<Governed<CachedAnswer>, AnalysisError> {
    governed(kind, &Lowered::new(prog.clone()), policy, sink)
}

/// Firing costs of the two 0CFA rungs on `prog`, measured un-governed.
fn rung_costs(prog: &AnfProgram) -> (u64, u64) {
    let cps = CpsProgram::from_anf(prog);
    let (_, cps_stats) = zero_cfa_cps_instrumented(&cps).expect("un-governed CPS 0CFA completes");
    let (_, src_stats) = zero_cfa_instrumented(prog).expect("un-governed source 0CFA completes");
    (cps_stats.fired, src_stats.fired)
}

// ---------------------------------------------------------------------------
// Acceptance: budget starvation degrades instead of erroring
// ---------------------------------------------------------------------------

#[test]
fn budget_starved_dispatch_320_degrades_to_direct_answer() {
    let p = AnfProgram::from_term(&families::dispatch(320));
    let (cps_fired, src_fired) = rung_costs(&p);
    assert!(
        src_fired < cps_fired,
        "premise: the direct rung is cheaper ({src_fired} vs {cps_fired} firings)"
    );

    // Deliberately small: exactly enough for the source rung, nowhere near
    // enough for the CPS rung. Before governance this returned
    // Err(BudgetExhausted); now the ladder answers at `cfa.src`.
    let policy = GovernPolicy::new().with_budget(AnalysisBudget::new(src_fired));
    let mut agg = AggSink::new();
    let governed = run_ladder(AnalysisKind::CfaCps, &p, &policy, &mut agg)
        .expect("the ladder recovers at the direct rung");

    let report = &governed.report;
    assert!(report.degraded(), "the CPS rung cannot fit this budget");
    assert_eq!(report.answered_by(), Some("cfa.src"));
    assert_eq!(report.rungs_tried(), 2);
    assert_eq!(report.resource, Some("budget"));
    assert!(matches!(
        report.attempts[0].error,
        Some(AnalysisError::BudgetExhausted { .. })
    ));

    let CachedAnswer::CfaSrc(answer) = governed.value else {
        panic!("expected the direct-style fallback answer");
    };
    let baseline = zero_cfa(&p).expect("un-governed source 0CFA completes");
    assert!(
        answer.same_solution(&baseline),
        "the degraded answer must equal the un-governed direct answer"
    );

    // The report also went through the trace sink.
    assert_eq!(agg.counter_value("govern.runs"), 1);
    assert_eq!(agg.counter_value("govern.degraded"), 1);
    assert_eq!(agg.counter_value("govern.trip.budget"), 1);
    assert_eq!(agg.counter_value("govern.rungs_tried"), 2);
}

#[test]
fn ample_budget_still_answers_at_the_cps_rung() {
    let p = AnfProgram::from_term(&families::repeated_calls(64));
    let governed = run_ladder(
        AnalysisKind::CfaCps,
        &p,
        &GovernPolicy::new(),
        &mut NoopSink,
    )
    .expect("default budget is ample");
    assert!(!governed.report.degraded());
    assert_eq!(governed.report.answered_by(), Some("cfa.cps"));
    let CachedAnswer::CfaCps(answer) = governed.value else {
        panic!("no starvation, no fallback");
    };
    let c = CpsProgram::from_anf(&p);
    let baseline = zero_cfa_cps(&c).expect("un-governed CPS 0CFA completes");
    assert!(answer.same_solution(&baseline));
}

#[test]
fn memory_ceiling_degrades_cps_cfa_to_direct() {
    // A conditional chain: source-level 0CFA sees almost no closure flow,
    // while the CPS transform threads a continuation through every `let` —
    // so the direct rung's arena stays both reserved-capacity- and
    // element-wise far below the CPS rung's.
    let p = AnfProgram::from_term(&families::cond_chain(160));
    let cps = CpsProgram::from_anf(&p);
    // Measure each rung's arena peak (DeltaNodes::approx_bytes) with
    // unlimited guards.
    let g_cps = RunGuard::new(AnalysisBudget::default());
    zero_cfa_cps_guarded(&cps, &g_cps, &mut NoopSink).expect("no ceiling yet");
    let g_src = RunGuard::new(AnalysisBudget::default());
    zero_cfa_guarded(&p, &g_src, &mut NoopSink).expect("no ceiling yet");
    let (cps_peak, src_peak) = (g_cps.mem_peak(), g_src.mem_peak());
    assert!(
        src_peak < cps_peak,
        "premise: the direct rung is lighter ({src_peak} vs {cps_peak} bytes)"
    );

    // A ceiling the source rung exactly fits under and the CPS rung must
    // blow through: the ladder answers at cfa.src with resource = memory.
    let policy = GovernPolicy::new().with_memory_limit(src_peak);
    let governed = run_ladder(AnalysisKind::CfaCps, &p, &policy, &mut NoopSink)
        .expect("the ladder recovers at the lighter rung");
    assert!(governed.report.degraded());
    assert_eq!(governed.report.resource, Some("memory"));
    assert!(matches!(
        governed.report.attempts[0].error,
        Some(AnalysisError::MemoryExhausted { .. })
    ));
    let CachedAnswer::CfaSrc(answer) = governed.value else {
        panic!("memory starvation forces the fallback");
    };
    assert!(answer.same_solution(&zero_cfa(&p).unwrap()));
}

#[test]
fn memory_ceiling_stops_mfp_and_a_roomy_one_changes_nothing() {
    // The daemon's `mfp.flat` ladder: one rung, so a memory trip is the
    // request's error rather than a degradation.
    let p = AnfProgram::from_term(&families::diamond_chain(64));
    let cfg = Cfg::from_first_order(&p).expect("diamond chains are first-order");
    let init = cfg.initial_env::<Flat>(&p);
    let mfp_ladder =
        |policy: &GovernPolicy| run_ladder(AnalysisKind::MfpFlat, &p, policy, &mut NoopSink);
    let baseline = cfg
        .solve_mfp::<Flat>(init.clone())
        .expect("un-governed MFP completes");
    let unlimited = RunGuard::new(AnalysisBudget::default());
    cfg.solve_mfp_guarded::<Flat>(init.clone(), &unlimited, &mut NoopSink)
        .expect("no ceiling yet");
    let working_set = unlimited.mem_peak();
    assert!(working_set > 0, "MFP charges its working set");

    let err = mfp_ladder(&GovernPolicy::new().with_memory_limit(64))
        .expect_err("64 bytes cannot hold the reaching-source bitsets");
    assert_eq!(err, AnalysisError::MemoryExhausted { limit_bytes: 64 });

    let governed = mfp_ladder(&GovernPolicy::new().with_memory_limit(working_set))
        .expect("a ceiling at the working set admits the solve");
    assert!(!governed.report.degraded());
    assert_eq!(governed.value, CachedAnswer::MfpFlat(baseline));
}

// ---------------------------------------------------------------------------
// Injected faults: deadline, panic, cancellation
// ---------------------------------------------------------------------------

#[test]
fn injected_deadline_fault_recovers_at_the_direct_rung() {
    let p = AnfProgram::from_term(&families::repeated_calls(96));
    let fault = FaultPlan::new(FaultKind::ExpireDeadline, 25);
    let policy = GovernPolicy::new().with_fault(fault);
    let governed = run_ladder(AnalysisKind::CfaCps, &p, &policy, &mut NoopSink)
        .expect("one-shot fault, the fallback rung runs clean");
    assert!(governed.report.degraded());
    assert_eq!(governed.report.resource, Some("deadline"));
    assert_eq!(
        governed.report.attempts[0].error,
        Some(AnalysisError::DeadlineExceeded)
    );
    let CachedAnswer::CfaSrc(answer) = governed.value else {
        panic!("deadline fault forces the fallback");
    };
    assert!(answer.same_solution(&zero_cfa(&p).unwrap()));
}

#[test]
fn injected_panic_fault_is_contained_by_the_ladder() {
    quiet_injected_panics();
    let p = AnfProgram::from_term(&families::repeated_calls(96));
    let fault = FaultPlan::new(FaultKind::Panic, 40);
    let policy = GovernPolicy::new().with_fault(fault);
    let governed = run_ladder(AnalysisKind::CfaCps, &p, &policy, &mut NoopSink)
        .expect("the panic poisons only the first rung");
    assert!(governed.report.degraded());
    assert_eq!(governed.report.resource, Some("panic"));
    let Some(AnalysisError::WorkerPanicked { payload }) = &governed.report.attempts[0].error else {
        panic!("first attempt should record the caught panic");
    };
    assert!(payload.contains(INJECTED_PANIC), "payload kept: {payload}");
    let CachedAnswer::CfaSrc(answer) = governed.value else {
        panic!("panic forces the fallback");
    };
    assert!(answer.same_solution(&zero_cfa(&p).unwrap()));
}

#[test]
fn injected_cancel_fault_aborts_the_whole_ladder() {
    let p = AnfProgram::from_term(&families::repeated_calls(96));
    let token = CancelToken::new();
    let fault = FaultPlan::new(FaultKind::Cancel, 30);
    let policy = GovernPolicy::new()
        .with_cancel(token.clone())
        .with_fault(fault);
    let err = run_ladder(AnalysisKind::CfaCps, &p, &policy, &mut NoopSink)
        .expect_err("cancellation is never retried");
    assert_eq!(err, AnalysisError::Cancelled);
    assert!(token.is_cancelled(), "the fault tripped the shared token");
}

#[test]
fn pre_cancelled_policy_refuses_every_rung() {
    let p = AnfProgram::from_term(&families::repeated_calls(32));
    let token = CancelToken::new();
    token.cancel();
    let policy = GovernPolicy::new().with_cancel(token);
    let err = run_ladder(AnalysisKind::CfaCps, &p, &policy, &mut NoopSink)
        .expect_err("already cancelled");
    assert_eq!(err, AnalysisError::Cancelled);
}

#[test]
fn wall_clock_deadline_of_zero_degrades_or_cancels_soundly() {
    // A real (not injected) already-expired deadline: every rung trips on
    // its first interrupt check, so the run fails with DeadlineExceeded —
    // but through the ladder, with a report emitted, not a raw panic.
    let p = AnfProgram::from_term(&families::repeated_calls(320));
    let policy = GovernPolicy::new().with_deadline(Duration::ZERO);
    let mut agg = AggSink::new();
    let err = run_ladder(AnalysisKind::CfaCps, &p, &policy, &mut agg)
        .expect_err("no rung can finish in zero time");
    assert_eq!(err, AnalysisError::DeadlineExceeded);
    assert_eq!(agg.counter_value("govern.trip.deadline"), 1);
    assert_eq!(
        agg.counter_value("govern.degraded"),
        0,
        "no answer, no degrade"
    );
}

// ---------------------------------------------------------------------------
// Acceptance: worker panic isolation on a real corpus sweep
// ---------------------------------------------------------------------------

#[test]
fn poisoned_worker_leaves_other_corpus_results_intact() {
    quiet_injected_panics();
    let progs = corpus(0xFA_017, 48, &open_config());
    let sequential: Vec<u64> = progs
        .iter()
        .map(|t| {
            let p = AnfProgram::from_term(t);
            let c = CpsProgram::from_anf(&p);
            zero_cfa_cps(&c)
                .expect("corpus programs fit the default budget")
                .iterations
        })
        .collect();

    let poisoned = 7usize;
    let indexed: Vec<(usize, &cpsdfa_syntax::Term)> = progs.iter().enumerate().collect();
    let report = par_map_isolated(&indexed, None, |&(i, t)| {
        assert_ne!(i, poisoned, "poisoned worker");
        let p = AnfProgram::from_term(t);
        let c = CpsProgram::from_anf(&p);
        zero_cfa_cps(&c)
            .expect("corpus programs fit the default budget")
            .iterations
    });

    assert_eq!(report.panicked, 1);
    assert_eq!(report.completed, progs.len() - 1);
    assert!(!report.interrupted);
    for (i, outcome) in report.results.iter().enumerate() {
        if i == poisoned {
            assert!(matches!(outcome, ParOutcome::Panicked(_)));
        } else {
            assert_eq!(
                *outcome,
                ParOutcome::Done(sequential[i]),
                "worker {i} must be unaffected by the poisoned item"
            );
        }
    }
}

#[test]
fn cancelled_sweep_returns_trustworthy_partial_results() {
    let progs = corpus(0xCA_9CE1, 64, &open_config());
    let token = CancelToken::new();
    token.cancel();
    let report = par_map_isolated(&progs, Some(token.as_flag()), |t| {
        let p = AnfProgram::from_term(t);
        zero_cfa(&p)
            .expect("corpus programs fit the default budget")
            .iterations
    });
    assert!(report.interrupted, "pre-cancelled sweep is cut short");
    assert_eq!(report.completed, 0);
    assert!(report.results.iter().all(|o| *o == ParOutcome::Skipped));
}

// ---------------------------------------------------------------------------
// Differential: recovered faults never change the answer
// ---------------------------------------------------------------------------

/// Runs the governed ladder on `p` with `fault` injected and, when the
/// ladder recovers, checks the answer against the un-faulted run of the
/// rung that answered. A fault that fires inside the *last* rung leaves
/// nothing to fall back to — the ladder then correctly reports the
/// injected error, and the differential property is vacuous. Returns an
/// error description on divergence.
fn check_fault_differential(p: &AnfProgram, fault: FaultPlan) -> Result<(), String> {
    let policy = GovernPolicy::new().with_fault(fault);
    let governed = match run_ladder(AnalysisKind::CfaCps, p, &policy, &mut NoopSink) {
        Ok(g) => g,
        // Only the injected (recoverable) error kinds may surface here;
        // anything else means governance itself misbehaved.
        Err(
            AnalysisError::BudgetExhausted { .. }
            | AnalysisError::DeadlineExceeded
            | AnalysisError::WorkerPanicked { .. },
        ) => return Ok(()),
        Err(e) => return Err(format!("unexpected ladder error: {e}")),
    };
    match &governed.value {
        CachedAnswer::CfaCps(answer) => {
            let c = CpsProgram::from_anf(p);
            let baseline = zero_cfa_cps(&c).map_err(|e| format!("baseline: {e}"))?;
            if !answer.same_solution(&baseline) {
                return Err("CPS answer diverged from un-faulted run".to_owned());
            }
        }
        CachedAnswer::CfaSrc(answer) => {
            let baseline = zero_cfa(p).map_err(|e| format!("baseline: {e}"))?;
            if !answer.same_solution(&baseline) {
                return Err("direct answer diverged from un-faulted run".to_owned());
            }
        }
        other => {
            return Err(format!(
                "the cfa.cps ladder must never answer with {:?}",
                other.kind()
            ));
        }
    }
    Ok(())
}

#[test]
fn recovered_faults_preserve_answers_across_300_program_corpus() {
    quiet_injected_panics();
    let progs = corpus(0xD1FF, 300, &open_config());
    let indexed: Vec<(u64, &cpsdfa_syntax::Term)> = progs
        .iter()
        .enumerate()
        .map(|(i, t)| (i as u64, t))
        .collect();
    let report = par_map_isolated(&indexed, None, |&(i, t)| {
        let p = AnfProgram::from_term(t);
        let c = CpsProgram::from_anf(&p);
        let (_, stats) =
            zero_cfa_cps_instrumented(&c).expect("corpus programs fit the default budget");
        // A seed-chosen recoverable fault, somewhere inside (or just past)
        // the un-faulted firing schedule.
        let fault = FaultPlan::from_seed_recoverable(0xD1FF ^ i, stats.fired.max(1) + 8);
        check_fault_differential(&p, fault).map_err(|e| format!("program {i}: {e}"))
    });
    assert_eq!(report.completed, progs.len(), "no sweep worker may die");
    let failures: Vec<String> = report
        .results
        .into_iter()
        .filter_map(ParOutcome::done)
        .filter_map(Result::err)
        .collect();
    assert!(
        failures.is_empty(),
        "recovered faults changed answers: {failures:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random seed, random firing bound, random corpus slot: whenever the
    /// ladder recovers from an injected recoverable fault, the final
    /// answer equals the un-faulted answer of the rung that answered.
    #[test]
    fn prop_recovered_fault_never_changes_the_answer(
        seed in any::<u64>(),
        at in 1u64..4000,
        slot in 0usize..24,
    ) {
        quiet_injected_panics();
        let progs = corpus(0x9_B0B, 24, &open_config());
        let p = AnfProgram::from_term(&progs[slot]);
        let fault = FaultPlan::from_seed_recoverable(seed, at);
        prop_assert_eq!(check_fault_differential(&p, fault), Ok(()));
    }
}

// ---------------------------------------------------------------------------
// The pushdown rung on top: ladder shape
// ---------------------------------------------------------------------------

#[test]
fn pushdown_ladder_keeps_exact_rung_order_with_no_duplicates() {
    // Budget-starve every rung except the last, so the report records the
    // complete ladder: the representation rungs must follow the pushdown
    // rung in unchanged order — no duplicates, no reorder.
    // `dispatch` is the family where the CPS-arena rungs genuinely cost
    // more than the direct rung (pushdown is *cheaper* than source 0CFA
    // on most families — it skips every continuation flow — so starving
    // the whole upper ladder needs this ordering, asserted below).
    let p = AnfProgram::from_term(&families::dispatch(64));
    let (cps_fired, src_fired) = rung_costs(&p);
    let c = CpsProgram::from_anf(&p);
    let (_, pd_stats) = pushdown_cfa_instrumented(&c).expect("un-governed pushdown completes");
    assert!(
        src_fired < cps_fired && src_fired < pd_stats.fired,
        "premise: the direct rung is the cheapest ({src_fired} vs {cps_fired} vs {} firings)",
        pd_stats.fired
    );
    let policy = GovernPolicy::new().with_budget(AnalysisBudget::new(src_fired));
    let governed = run_ladder(AnalysisKind::CfaPushdown, &p, &policy, &mut NoopSink)
        .expect("the ladder recovers at the direct rung");
    let names: Vec<&str> = governed.report.attempts.iter().map(|a| a.rung).collect();
    assert_eq!(names, ["cfa.pushdown", "cfa.cps", "cfa.src"]);
    assert_eq!(governed.report.answered_by(), Some("cfa.src"));
    assert_eq!(governed.report.resource, Some("budget"));
    let CachedAnswer::CfaSrc(answer) = governed.value else {
        panic!("total starvation above cfa.src forces the direct fallback");
    };
    assert!(answer.same_solution(&zero_cfa(&p).unwrap()));

    // Admission and the run read the same table. For each kind, a budget
    // of exactly its last rung's cost starves every rung above it, so the
    // attempts name the whole `ladder(kind)` in order; a one-charge budget
    // trips every rung, and admission reserves one rung budget per rung.
    let higher_order = p;
    let first_order = AnfProgram::from_term(&families::diamond_chain(4));
    for kind in AnalysisKind::ALL {
        let rungs = ladder(kind);
        let p = match kind {
            AnalysisKind::MfpFlat => &first_order,
            _ => &higher_order,
        };
        let last = *rungs.last().expect("a ladder has a rung");
        let unlimited = RunGuard::new(AnalysisBudget::default());
        solve(last, &Lowered::new(p.clone()), &unlimited, &mut NoopSink).expect("ample budget");
        let policy = GovernPolicy::new().with_budget(AnalysisBudget::new(unlimited.spent()));
        let answered = run_ladder(kind, p, &policy, &mut NoopSink)
            .unwrap_or_else(|e| panic!("{kind:?}: the last rung fits its own cost: {e}"));
        let names: Vec<&str> = answered.report.attempts.iter().map(|a| a.rung).collect();
        let want: Vec<&str> = rungs.iter().map(|r| r.as_str()).collect();
        assert_eq!(names, want, "{kind:?}");
        assert_eq!(answered.value.kind(), last, "{kind:?}");

        const BUDGET: u64 = 1;
        let starved = GovernPolicy::new().with_budget(AnalysisBudget::new(BUDGET));
        let mut agg = AggSink::new();
        let err = run_ladder(kind, p, &starved, &mut agg).expect_err("every rung trips");
        assert_eq!(
            err,
            AnalysisError::BudgetExhausted { budget: BUDGET },
            "{kind:?}"
        );
        assert_eq!(
            agg.counter_value("govern.rungs_tried"),
            rungs.len() as u64,
            "{kind:?}"
        );
        assert_eq!(agg.counter_value("govern.trip.budget"), 1, "{kind:?}");
        assert_eq!(
            starved.worst_case_charges(kind),
            BUDGET * rungs.len() as u64,
            "{kind:?}"
        );
    }
}

#[test]
fn pushdown_ladder_without_faults_answers_at_the_top_rung() {
    let p = AnfProgram::from_term(&families::dispatch(8));
    let governed = run_ladder(
        AnalysisKind::CfaPushdown,
        &p,
        &GovernPolicy::new(),
        &mut NoopSink,
    )
    .expect("default budget is ample");
    assert!(!governed.report.degraded());
    assert_eq!(governed.report.answered_by(), Some("cfa.pushdown"));
    assert_eq!(governed.report.rungs_tried(), 1);
    let CachedAnswer::CfaPushdown(answer) = governed.value else {
        panic!("no starvation, no fallback");
    };
    assert_eq!(answer.false_return_edges(), 0);
}
