//! Differential acceptance tests for incremental re-analysis
//! (`cpsdfa_core::incremental`): every warm fixpoint must be
//! **bit-identical** to a from-scratch solve of the edited program, on
//! every step of every edit script — and every edit that changes the
//! program's shape must fall back to a cold solve rather than return a
//! stale answer.
//!
//! Four clients are differenced on each step: source 0CFA, CPS 0CFA, the
//! pushdown rung, and MFP/`Flat` (transport-only). A proptest closes the
//! loop over random programs × random edit scripts.

use cpsdfa_anf::AnfProgram;
use cpsdfa_core::cfa::{zero_cfa, zero_cfa_cps, zero_cfa_instrumented};
use cpsdfa_core::domain::Flat;
use cpsdfa_core::incremental::{
    pushdown_cfa_warm, solve_mfp_incremental, zero_cfa_cps_warm, zero_cfa_warm, ColdReason,
    Outcome, WarmPath, WarmSolve,
};
use cpsdfa_core::mfp::Cfg;
use cpsdfa_core::pushdown::pushdown_cfa;
use cpsdfa_cps::CpsProgram;
use cpsdfa_syntax::Term;
use cpsdfa_workloads::edits::{apply_edit, edit_script, EditKind, FreshNames, ALL_EDIT_KINDS};
use cpsdfa_workloads::families;
use cpsdfa_workloads::random::{generate, open_config};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Differences every client across one edit `old → new`. Warm answers
/// must equal the cold solution bit for bit; cold falls are always
/// acceptable (the cold path is the from-scratch solver itself).
fn check_edit_step(old: &Term, new: &Term, ctx: &str) {
    let old_p = AnfProgram::from_term(old);
    let new_p = AnfProgram::from_term(new);

    // Source-level 0CFA, stateless driver.
    let prev = zero_cfa(&old_p).expect("cold solve (old)");
    let cold = zero_cfa(&new_p).expect("cold solve (new)");
    match zero_cfa_warm(&old_p, &prev, &new_p).expect("warm driver") {
        WarmSolve::Warm(warm, report) => {
            assert!(
                warm.same_solution(&cold),
                "{ctx}: src warm fixpoint differs from cold ({report:?})"
            );
        }
        WarmSolve::Cold(_) => {}
    }

    // CPS-level 0CFA.
    let old_c = CpsProgram::from_anf(&old_p);
    let new_c = CpsProgram::from_anf(&new_p);
    let prev_c = zero_cfa_cps(&old_c).expect("cold CPS solve (old)");
    let cold_c = zero_cfa_cps(&new_c).expect("cold CPS solve (new)");
    match zero_cfa_cps_warm(&old_c, &prev_c, &new_c).expect("warm CPS driver") {
        WarmSolve::Warm(warm, report) => {
            assert!(
                warm.same_solution(&cold_c),
                "{ctx}: cps warm fixpoint differs from cold ({report:?})"
            );
        }
        WarmSolve::Cold(_) => {}
    }

    // Pushdown rung.
    let prev_pd = pushdown_cfa(&old_c).expect("cold pushdown (old)");
    let cold_pd = pushdown_cfa(&new_c).expect("cold pushdown (new)");
    match pushdown_cfa_warm(&old_c, &prev_pd, &new_c).expect("warm pushdown driver") {
        WarmSolve::Warm(warm, report) => {
            assert!(
                warm.same_solution(&cold_pd),
                "{ctx}: pushdown warm fixpoint differs from cold ({report:?})"
            );
        }
        WarmSolve::Cold(_) => {}
    }

    // MFP over Flat (first-order programs only; transport rung).
    if let (Ok(old_cfg), Ok(new_cfg)) =
        (Cfg::from_first_order(&old_p), Cfg::from_first_order(&new_p))
    {
        let prev_m = old_cfg
            .solve_mfp::<Flat>(old_cfg.initial_env(&old_p))
            .expect("cold MFP (old)");
        let cold_m = new_cfg
            .solve_mfp::<Flat>(new_cfg.initial_env(&new_p))
            .expect("cold MFP (new)");
        if let Some((warm, _)) = solve_mfp_incremental(&old_p, &prev_m, &new_p) {
            assert_eq!(warm, cold_m, "{ctx}: MFP transported summary differs");
        }
    }
}

/// One source-0CFA step `old → new` through the stateless driver, the way
/// a watch session takes it: the old program's fixpoint answers a noop,
/// and a cold rung solves from scratch. Checks the answer against
/// a from-scratch solve and returns the rung with the firings it cost.
fn warm_step(old: &Term, new: &Term, ctx: &str) -> (Outcome, u64) {
    let old_p = AnfProgram::from_term(old);
    let new_p = AnfProgram::from_term(new);
    let prev = zero_cfa(&old_p).expect("cold solve (old)");
    let (cold, cold_stats) = zero_cfa_instrumented(&new_p).expect("cold solve (new)");
    match zero_cfa_warm(&old_p, &prev, &new_p).expect("warm driver") {
        WarmSolve::Warm(warm, report) => {
            assert!(
                warm.same_solution(&cold),
                "{ctx}: warm fixpoint differs from cold ({report:?})"
            );
            (report.outcome, report.fired)
        }
        WarmSolve::Cold(reason) => (Outcome::Cold(reason), cold_stats.fired),
    }
}

/// Steps a generated edit script through [`warm_step`] and returns each
/// step's edit kind, rung and firings.
fn warm_script(base: &Term, kinds: &[EditKind], seed: u64) -> Vec<(EditKind, Outcome, u64)> {
    let script = edit_script(base, kinds, seed);
    let mut prev = script.base.clone();
    let mut out = Vec::new();
    for (i, step) in script.steps.iter().enumerate() {
        let (outcome, fired) = warm_step(&prev, &step.term, &format!("step {i} {:?}", step.kind));
        out.push((step.kind, outcome, fired));
        prev = step.term.clone();
    }
    out
}

fn family_bases() -> Vec<(&'static str, Term)> {
    vec![
        ("dispatch", families::dispatch(24)),
        ("polyvariant", families::polyvariant(16)),
        ("cond_chain", families::cond_chain(12)),
        ("repeated_calls", families::repeated_calls(10)),
        ("adder_pipeline", families::adder_pipeline(12)),
        ("diamond_chain", families::diamond_chain(6)),
        ("church", families::church(6)),
    ]
}

#[test]
fn edit_scripts_are_bit_identical_across_families() {
    // Two rounds of every edit kind, per family, stepped pairwise.
    let kinds: Vec<EditKind> = ALL_EDIT_KINDS
        .iter()
        .chain(ALL_EDIT_KINDS.iter())
        .copied()
        .collect();
    for (name, base) in family_bases() {
        let script = edit_script(&base, &kinds, 0xE22);
        let mut prev = script.base.clone();
        for (i, step) in script.steps.iter().enumerate() {
            check_edit_step(
                &prev,
                &step.term,
                &format!("{name} step {i} {:?}", step.kind),
            );
            prev = step.term.clone();
        }
        assert!(
            !script.steps.is_empty(),
            "{name}: edit script applied no edits"
        );
    }
}

#[test]
fn warm_driver_tracks_scripts_across_families() {
    let kinds: Vec<EditKind> = ALL_EDIT_KINDS.to_vec();
    for (name, base) in family_bases() {
        let steps = warm_script(&base, &kinds, 0x11FE + name.len() as u64);
        assert!(!steps.is_empty(), "{name}: no edits applied");
    }
}

#[test]
fn const_and_rename_edits_are_noops() {
    let base = families::dispatch(24);
    let steps = warm_script(&base, &[EditKind::ReplaceConst, EditKind::RenameVar], 7);
    assert_eq!(steps.len(), 2);
    for (kind, outcome, fired) in steps {
        assert_eq!(
            outcome,
            Outcome::Warm(WarmPath::Noop),
            "{kind:?} should be a Noop"
        );
        assert_eq!(fired, 0, "{kind:?} fired constraints");
    }
}

#[test]
fn deleting_a_flowing_binding_falls_back_cold() {
    // Insert an (unused) λ binding, converge, then delete it: the deleted
    // variable's set holds the closure, so re-using the old fixpoint would
    // over-approximate. The shapes differ, so the step goes cold.
    let base = families::dispatch(12);
    let mut rng = StdRng::seed_from_u64(41);
    let mut fresh = FreshNames::over(&base);
    let with_lam = apply_edit(&base, EditKind::InsertLambda, &mut rng, &mut fresh).expect("insert");
    let deleted =
        apply_edit(&with_lam, EditKind::DeleteBinding, &mut rng, &mut fresh).expect("delete");
    assert_eq!(with_lam.lambda_count(), base.lambda_count() + 1);
    assert_eq!(deleted, base, "deleting the inserted binding restores");

    let (outcome, _) = warm_step(&with_lam, &deleted, "delete");
    assert_eq!(
        outcome,
        Outcome::Cold(ColdReason::StructureMismatch),
        "deletion of a flowing binding must fall cold"
    );
}

#[test]
fn swapping_lambda_arms_falls_back_cold() {
    // dispatch's if0 arms carry λs: swapping them moves closures between
    // labels, so the shapes differ.
    let base = families::dispatch(8);
    let mut rng = StdRng::seed_from_u64(5);
    let mut fresh = FreshNames::over(&base);
    let swapped = apply_edit(&base, EditKind::SwapArms, &mut rng, &mut fresh).expect("swap");
    assert_ne!(swapped, base);

    let (outcome, _) = warm_step(&base, &swapped, "swap");
    assert!(
        matches!(outcome, Outcome::Cold(_)),
        "λ-moving swap must fall cold, got {outcome:?}"
    );
}

/// The outcomes of the three CFA drivers on `old → new` (source, CPS,
/// pushdown), each warm answer checked against a from-scratch solve.
fn cfa_outcomes(old: &str, new: &str) -> [Outcome; 3] {
    let (old_p, new_p) = (
        AnfProgram::parse(old).expect("old parses"),
        AnfProgram::parse(new).expect("new parses"),
    );
    let (old_c, new_c) = (CpsProgram::from_anf(&old_p), CpsProgram::from_anf(&new_p));
    fn outcome<R>(w: WarmSolve<R>, same: impl Fn(&R) -> bool) -> Outcome {
        match w {
            WarmSolve::Warm(r, report) => {
                assert!(same(&r), "warm answer differs from cold ({report:?})");
                report.outcome
            }
            WarmSolve::Cold(reason) => Outcome::Cold(reason),
        }
    }
    let (src, cps, pd) = (
        zero_cfa(&new_p).unwrap(),
        zero_cfa_cps(&new_c).unwrap(),
        pushdown_cfa(&new_c).unwrap(),
    );
    [
        outcome(
            zero_cfa_warm(&old_p, &zero_cfa(&old_p).unwrap(), &new_p).unwrap(),
            |r| r.same_solution(&src),
        ),
        outcome(
            zero_cfa_cps_warm(&old_c, &zero_cfa_cps(&old_c).unwrap(), &new_c).unwrap(),
            |r| r.same_solution(&cps),
        ),
        outcome(
            pushdown_cfa_warm(&old_c, &pushdown_cfa(&old_c).unwrap(), &new_c).unwrap(),
            |r| r.same_solution(&pd),
        ),
    ]
}

const COLD: [Outcome; 3] = [Outcome::Cold(ColdReason::StructureMismatch); 3];

#[test]
fn an_occurrence_moved_to_a_same_shaped_binder_falls_cold() {
    // Two identical λ bindings; the edit swaps which one is applied to
    // which. Every node keeps its kind and label, but two occurrences now
    // name different binders, so the flow differs: a walk that compared
    // only kinds would reuse a stale answer.
    let old = "(let (f (lambda (x) x)) (let (g (lambda (y) y)) (f g)))";
    let new = "(let (f (lambda (x) x)) (let (g (lambda (y) y)) (g f)))";
    let (old_p, new_p) = (
        AnfProgram::parse(old).unwrap(),
        AnfProgram::parse(new).unwrap(),
    );
    assert_eq!(old_p.label_count(), new_p.label_count());
    assert!(
        !zero_cfa(&old_p)
            .unwrap()
            .same_solution(&zero_cfa(&new_p).unwrap()),
        "premise: the swap changes the answer"
    );
    assert_eq!(cfa_outcomes(old, new), COLD);
}

#[test]
fn a_plus_constant_that_changes_the_add1_chain_is_not_a_noop() {
    // `(+ M n)` expands to n add1/sub1 applications, so its `n` is not a
    // numeral of the program: changing it changes the chain's length or
    // its primitive, never just a constant.
    let base = "(let (a 1) (+ a 3))";
    for edited in ["(let (a 1) (+ a 4))", "(let (a 1) (+ a -3))"] {
        assert_eq!(cfa_outcomes(base, edited), COLD, "{edited}");
        let (p, q) = (
            AnfProgram::parse(base).unwrap(),
            AnfProgram::parse(edited).unwrap(),
        );
        let cfg = Cfg::from_first_order(&p).expect("first-order");
        let prev = cfg
            .solve_mfp::<Flat>(cfg.initial_env(&p))
            .expect("cold MFP");
        assert!(solve_mfp_incremental(&p, &prev, &q).is_none(), "{edited}");
    }
    // A numeral edit in the same program is a noop.
    assert_eq!(
        cfa_outcomes(base, "(let (a 2) (+ a 3))"),
        [Outcome::Warm(WarmPath::Noop); 3]
    );
}

#[test]
fn mfp_transport_answers_pure_renames_only() {
    let base = families::cond_chain(8);
    let p = AnfProgram::from_term(&base);
    let cfg = Cfg::from_first_order(&p).expect("first-order");
    let prev = cfg
        .solve_mfp::<Flat>(cfg.initial_env(&p))
        .expect("cold MFP");

    // A rename transports.
    let mut rng = StdRng::seed_from_u64(17);
    let mut fresh = FreshNames::over(&base);
    let renamed = apply_edit(&base, EditKind::RenameVar, &mut rng, &mut fresh).expect("rename");
    let rp = AnfProgram::from_term(&renamed);
    let warm = solve_mfp_incremental(&p, &prev, &rp);
    assert!(warm.is_some(), "rename must transport");
    let rcfg = Cfg::from_first_order(&rp).expect("first-order");
    let cold = rcfg
        .solve_mfp::<Flat>(rcfg.initial_env(&rp))
        .expect("cold MFP");
    assert_eq!(warm.unwrap().0, cold);

    // A constant change must NOT transport (Flat is constant-sensitive).
    let changed = apply_edit(&base, EditKind::ReplaceConst, &mut rng, &mut fresh).expect("const");
    let cp = AnfProgram::from_term(&changed);
    assert!(
        solve_mfp_incremental(&p, &prev, &cp).is_none(),
        "constant change must fall cold under Flat"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random programs × random edit scripts: every warm answer on every
    /// step equals the from-scratch solution.
    #[test]
    fn random_edit_scripts_are_bit_identical(
        prog_seed in 0u64..1u64 << 16,
        script_seed in 0u64..1u64 << 16,
        picks in proptest::collection::vec(0usize..ALL_EDIT_KINDS.len(), 1..5),
    ) {
        let base = generate(prog_seed, &open_config());
        let kinds: Vec<EditKind> = picks.iter().map(|&i| ALL_EDIT_KINDS[i]).collect();
        let script = edit_script(&base, &kinds, script_seed);
        let mut prev = script.base.clone();
        for (i, step) in script.steps.iter().enumerate() {
            check_edit_step(&prev, &step.term, &format!("random step {i} {:?}", step.kind));
            prev = step.term.clone();
        }
    }
}
