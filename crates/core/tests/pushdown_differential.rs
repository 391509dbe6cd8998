//! Differential acceptance tests for the pushdown (summary-based)
//! analyzer (`core::pushdown`) against the monovariant CPS 0CFA it
//! refines.
//!
//! Two guarantees are pinned here:
//!
//! 1. **Refinement.** On an 800-program random corpus, every per-variable
//!    flow set, call-table entry, and return-table entry computed by
//!    `pushdown_cfa` is contained in the corresponding `zero_cfa_cps`
//!    set — the pushdown rung only ever *removes* flows, never invents
//!    them. A proptest re-checks random corpus slots.
//! 2. **No spurious returns.** The matched-return census is zero on the
//!    whole corpus: every return edge the pushdown analyzer records
//!    carries a call-table witness for the frame it returns through
//!    (§6.1's false returns are exactly the edges without one).

use cpsdfa_anf::AnfProgram;
use cpsdfa_core::cfa::zero_cfa_cps;
use cpsdfa_core::pushdown::pushdown_cfa;
use cpsdfa_cps::CpsProgram;
use cpsdfa_workloads::par::{par_map_isolated, ParOutcome};
use cpsdfa_workloads::random::{corpus, open_config};
use proptest::prelude::*;

/// Checks the refinement relation and the false-return census for one
/// program. Returns a description of the first violation.
fn check_pushdown_differential(p: &AnfProgram) -> Result<(), String> {
    let c = CpsProgram::from_anf(p);
    let mono = zero_cfa_cps(&c).map_err(|e| format!("cps 0CFA failed: {e}"))?;
    let pd = pushdown_cfa(&c).map_err(|e| format!("pushdown failed: {e}"))?;
    if let Some(violation) = pd.refinement_violation(&mono) {
        return Err(format!("refinement violated: {violation}"));
    }
    let spurious = pd.false_return_edges();
    if spurious != 0 {
        return Err(format!("{spurious} matched returns lack a call witness"));
    }
    Ok(())
}

#[test]
fn pushdown_refines_cps_cfa_on_800_program_corpus() {
    let progs = corpus(0x9D0_57AC, 800, &open_config());
    let indexed: Vec<(usize, &cpsdfa_syntax::Term)> = progs.iter().enumerate().collect();
    let report = par_map_isolated(&indexed, None, |&(i, t)| {
        let p = AnfProgram::from_term(t);
        check_pushdown_differential(&p).map_err(|e| format!("program {i}: {e}"))
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
        "pushdown/0CFA differential failed: {failures:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random corpus slots from an independent seed: the refinement
    /// relation and the zero-spurious census hold program by program.
    #[test]
    fn prop_pushdown_refines_and_matches_returns(slot in 0usize..48) {
        let progs = corpus(0x9D0_F00D, 48, &open_config());
        let p = AnfProgram::from_term(&progs[slot]);
        prop_assert_eq!(check_pushdown_differential(&p), Ok(()));
    }
}
