//! Differential acceptance tests for the independent fixpoint checker
//! (`core::certify`): every answer the solvers produce must certify, and
//! no single-element mutation of a valid fixpoint may slip past it.
//!
//! Three guarantees are pinned here:
//!
//! 1. **Completeness on real answers.** Across a 300-program random
//!    corpus, the checker accepts the answers of all four analyses (source
//!    0CFA, CPS 0CFA, pushdown CFA, MFP over `Flat`) — both served fresh
//!    and after a round trip through the content-addressed cache
//!    (`certify_answer` on the looked-up entry, exactly the daemon's
//!    `--certify` path).
//! 2. **Warm answers certify too.** Incremental re-solves
//!    (`WarmSolve::Warm`) are checked against the *edited* program, the
//!    way the service certifies session warm-starts before serving them.
//! 3. **Soundness against corruption.** A proptest mutates valid
//!    fixpoints one element at a time — an added flow value, a removed
//!    flow value, a dropped call edge, a dropped pushdown matched-return
//!    witness, a lost variable — and every mutation must refute for all
//!    three 0CFA analyses while the originals keep certifying. Each
//!    refutes with its own kind: an addition as `Unsupported`, a drop as
//!    `Unclosed`, a lost variable as `Shape`. Every mutation must also
//!    change the answer digest, so a client comparing digests can never
//!    mistake the corrupted answer for the original.
//! 4. **Scale.** The chain-shaped family programs on which a naive
//!    least-model loop is slowest certify in a debug build.

use cpsdfa_anf::AnfProgram;
use cpsdfa_core::cache::{
    AnalysisKind, ArenaDigests, CacheKey, CachedAnswer, CachedFixpoint, FixpointCache,
};
use cpsdfa_core::certify::{
    certify_answer, certify_cfa_cps, certify_cfa_src, certify_mfp, certify_pushdown,
};
use cpsdfa_core::cfa::{zero_cfa, zero_cfa_cps, CfaResult, CpsCfaResult, CpsFlow};
use cpsdfa_core::domain::Flat;
use cpsdfa_core::govern::DegradationReport;
use cpsdfa_core::incremental::{
    solve_mfp_incremental, zero_cfa_cps_warm, zero_cfa_warm, WarmSolve,
};
use cpsdfa_core::mfp::Cfg;
use cpsdfa_core::pushdown::{pushdown_cfa, PushdownCfaResult};
use cpsdfa_core::{AbsClo, FlatSet};
use cpsdfa_cps::CpsProgram;
use cpsdfa_syntax::arena::TermArena;
use cpsdfa_syntax::build::{let_, num};
use cpsdfa_workloads::families;
use cpsdfa_workloads::par::{par_map_isolated, ParOutcome};
use cpsdfa_workloads::random::{corpus, open_config};
use proptest::prelude::*;
use std::sync::Arc;

fn digest_in_fresh_arena(src: &str) -> u128 {
    let mut arena = TermArena::new();
    let root = arena.parse(src).expect("corpus programs parse");
    ArenaDigests::new().term_digest(&arena, root)
}

/// Solves `p` with every analysis and certifies each answer, fresh and
/// (for the slot's rotating pick) after a cache round trip. Returns the
/// first refutation as an error string.
fn check_certify(p: &AnfProgram, src_text: &str, i: usize) -> Result<(), String> {
    // --- fresh answers, one per analysis ---
    let src = zero_cfa(p).map_err(|e| format!("src 0CFA failed: {e}"))?;
    certify_cfa_src(p, &src).map_err(|e| format!("fresh src answer refuted: {e}"))?;

    let cps = CpsProgram::from_anf(p);
    let cps_r = zero_cfa_cps(&cps).map_err(|e| format!("cps 0CFA failed: {e}"))?;
    certify_cfa_cps(&cps, &cps_r).map_err(|e| format!("fresh cps answer refuted: {e}"))?;

    let pd = pushdown_cfa(&cps).map_err(|e| format!("pushdown failed: {e}"))?;
    certify_pushdown(&cps, &pd).map_err(|e| format!("fresh pushdown answer refuted: {e}"))?;

    let mfp = match Cfg::from_first_order(p) {
        Ok(cfg) => {
            let init = cfg.initial_env::<Flat>(p);
            let s = cfg
                .solve_mfp::<Flat>(init)
                .map_err(|e| format!("MFP failed: {e}"))?;
            certify_mfp(p, &s).map_err(|e| format!("fresh mfp answer refuted: {e}"))?;
            Some(s)
        }
        Err(_) => None, // higher-order program: no CFG, no MFP answer
    };

    // --- cached path: round-trip the slot's pick through the cache and
    // certify the *looked-up* answer, exactly as the daemon does ---
    let (kind, answer) = match i % 4 {
        0 => (AnalysisKind::CfaSrc, CachedAnswer::CfaSrc(src)),
        1 => (AnalysisKind::CfaCps, CachedAnswer::CfaCps(cps_r)),
        2 => (AnalysisKind::CfaPushdown, CachedAnswer::CfaPushdown(pd)),
        _ => match &mfp {
            Some(s) => (AnalysisKind::MfpFlat, CachedAnswer::MfpFlat(s.clone())),
            None => (AnalysisKind::CfaSrc, CachedAnswer::CfaSrc(src)),
        },
    };
    let mut cache = FixpointCache::new(u64::MAX);
    let key = CacheKey::new(kind, digest_in_fresh_arena(src_text));
    cache.insert(
        key,
        CachedFixpoint::new(answer, DegradationReport::default()),
    );
    let hit = cache.lookup(&key).ok_or("cached entry vanished")?;
    certify_answer(p, &hit.answer)
        .map_err(|e| format!("cached {kind:?} answer refuted after round trip: {e}"))?;
    Ok(())
}

#[test]
fn every_solver_answer_certifies_on_300_program_corpus() {
    let progs = corpus(0xCE47, 300, &open_config());
    let indexed: Vec<(usize, &cpsdfa_syntax::Term)> = progs.iter().enumerate().collect();
    let report = par_map_isolated(&indexed, None, |&(i, t)| {
        let p = AnfProgram::from_term(t);
        let text = t.to_string();
        check_certify(&p, &text, i).map_err(|e| format!("program {i}: {e}"))
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
        "checker refuted real answers: {failures:?}"
    );
}

#[test]
fn warm_answers_certify_against_the_edited_program() {
    // The same edit shape the watch-session tests use: a constant changed
    // in a top-level binding, which every CFA kind answers as a noop.
    for (name, base) in [
        ("dispatch(12)", families::dispatch(12)),
        ("repeated_calls(16)", families::repeated_calls(16)),
        ("cond_chain(8)", families::cond_chain(8)),
    ] {
        let (base, edited) = (
            let_("fresh", num(1), base.clone()),
            let_("fresh", num(7), base),
        );
        let old_p = AnfProgram::from_term(&base);
        let new_p = AnfProgram::from_term(&edited);

        let prev = zero_cfa(&old_p).expect("cold src solve");
        match zero_cfa_warm(&old_p, &prev, &new_p).expect("warm src driver") {
            WarmSolve::Warm(warm, _) => {
                certify_cfa_src(&new_p, &warm)
                    .unwrap_or_else(|e| panic!("{name}: warm src answer refuted: {e}"));
            }
            WarmSolve::Cold(r) => panic!("{name}: constant edit fell cold on src: {r:?}"),
        }

        let old_c = CpsProgram::from_anf(&old_p);
        let new_c = CpsProgram::from_anf(&new_p);
        let prev_c = zero_cfa_cps(&old_c).expect("cold cps solve");
        match zero_cfa_cps_warm(&old_c, &prev_c, &new_c).expect("warm cps driver") {
            WarmSolve::Warm(warm, _) => {
                certify_cfa_cps(&new_c, &warm)
                    .unwrap_or_else(|e| panic!("{name}: warm cps answer refuted: {e}"));
            }
            WarmSolve::Cold(r) => panic!("{name}: constant edit fell cold on cps: {r:?}"),
        }
    }

    // MFP's only warm rung is the α-renaming transport; an identity edit
    // (re-parse of the same text) exercises it, and the transported
    // summary must still certify.
    let term = families::cond_chain(8);
    let p = AnfProgram::from_term(&term);
    let p2 = AnfProgram::parse(&term.to_string()).expect("round-trip parses");
    let cfg = Cfg::from_first_order(&p).expect("first-order family");
    let prev = cfg
        .solve_mfp::<Flat>(cfg.initial_env(&p))
        .expect("cold MFP");
    let (warm, _) = solve_mfp_incremental(&p, &prev, &p2).expect("identity edit transports warm");
    certify_mfp(&p2, &warm).expect("transported MFP summary certifies");
}

// ---------------------------------------------------------------------------
// Mutation helpers: one corrupted element, the smallest lie a bad cache
// entry could tell. Each returns `None` only when the fixpoint has no
// applicable site (e.g. no nonempty call edge to drop).
// ---------------------------------------------------------------------------

fn src_add_fact(r: &CfaResult) -> Option<CfaResult> {
    for (i, set) in r.vars.iter().enumerate() {
        for poison in [AbsClo::Dec, AbsClo::Inc] {
            if !set.contains(&poison) {
                let mut m = r.clone();
                m.vars[i] = set.iter().copied().chain([poison]).collect();
                return Some(m);
            }
        }
    }
    None
}

fn src_drop_fact(r: &CfaResult) -> Option<CfaResult> {
    let i = r.vars.iter().position(|s| !s.is_empty())?;
    let mut m = r.clone();
    m.vars[i] = FlatSet::default();
    Some(m)
}

fn src_drop_call_edge(r: &CfaResult) -> Option<CfaResult> {
    let site = r
        .calls
        .iter()
        .find(|(_, s)| !s.is_empty())
        .map(|(l, _)| l)?;
    let mut m = r.clone();
    let mut calls = (*r.calls).clone();
    calls.insert(site, FlatSet::default());
    m.calls = Arc::new(calls);
    Some(m)
}

fn cps_add_fact(r: &CpsCfaResult) -> Option<CpsCfaResult> {
    for (i, set) in r.vars.iter().enumerate() {
        for poison in [CpsFlow::Clo(AbsClo::Dec), CpsFlow::Clo(AbsClo::Inc)] {
            if !set.contains(&poison) {
                let mut m = r.clone();
                m.vars[i] = set.iter().copied().chain([poison]).collect();
                return Some(m);
            }
        }
    }
    None
}

fn cps_drop_fact(r: &CpsCfaResult) -> Option<CpsCfaResult> {
    let i = r.vars.iter().position(|s| !s.is_empty())?;
    let mut m = r.clone();
    m.vars[i] = FlatSet::default();
    Some(m)
}

fn cps_drop_call_edge(r: &CpsCfaResult) -> Option<CpsCfaResult> {
    let site = r
        .calls
        .iter()
        .find(|(_, s)| !s.is_empty())
        .map(|(l, _)| l)?;
    let mut m = r.clone();
    m.calls.insert(site, FlatSet::default());
    Some(m)
}

fn pd_add_fact(r: &PushdownCfaResult) -> Option<PushdownCfaResult> {
    for (i, set) in r.vars.iter().enumerate() {
        for poison in [CpsFlow::Clo(AbsClo::Dec), CpsFlow::Clo(AbsClo::Inc)] {
            if !set.contains(&poison) {
                let mut m = r.clone();
                m.vars[i] = set.iter().copied().chain([poison]).collect();
                return Some(m);
            }
        }
    }
    None
}

fn pd_drop_fact(r: &PushdownCfaResult) -> Option<PushdownCfaResult> {
    let i = r.vars.iter().position(|s| !s.is_empty())?;
    let mut m = r.clone();
    m.vars[i] = FlatSet::default();
    Some(m)
}

fn pd_drop_witness(r: &PushdownCfaResult) -> Option<PushdownCfaResult> {
    r.matched.iter().next()?;
    let mut m = r.clone();
    m.matched = r.matched.iter().skip(1).copied().collect();
    Some(m)
}

fn pd_drop_call_edge(r: &PushdownCfaResult) -> Option<PushdownCfaResult> {
    let site = r
        .calls
        .iter()
        .find(|(_, s)| !s.is_empty())
        .map(|(l, _)| l)?;
    let mut m = r.clone();
    m.calls.insert(site, FlatSet::default());
    Some(m)
}

/// The refutation a mutation kind must produce: an added fact is
/// unsupported, a lost variable is a shape error, and every drop is
/// unclosed.
fn expected_tag(mutation: usize) -> &'static str {
    match mutation {
        0 => "unsupported",
        3 => "shape",
        _ => "unclosed",
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random corpus slot, random mutation kind: the original fixpoint of
    /// every 0CFA analysis certifies, and the single-element mutation of
    /// it never does — it refutes with the kind's own tag, and it never
    /// keeps the original's answer digest. Kinds: 0 adds a fact, 1 drops
    /// a variable's facts, 2 drops a call edge, 3 drops the last variable,
    /// 4 drops a pushdown matched-return witness.
    #[test]
    fn prop_single_element_mutations_are_refuted(
        slot in 0usize..24,
        mutation in 0usize..5,
    ) {
        let progs = corpus(0xCE47F, 24, &open_config());
        let p = AnfProgram::from_term(&progs[slot]);
        let want = Some(expected_tag(mutation));

        let src = zero_cfa(&p).expect("src 0CFA completes");
        prop_assert!(certify_cfa_src(&p, &src).is_ok(), "original src answer must certify");
        let mutated = match mutation {
            0 => src_add_fact(&src),
            1 => src_drop_fact(&src),
            2 => src_drop_call_edge(&src),
            3 => (!src.vars.is_empty()).then(|| {
                let mut m = src.clone();
                m.vars.pop();
                m
            }),
            _ => None,
        };
        if let Some(m) = mutated {
            prop_assert_eq!(
                certify_cfa_src(&p, &m).err().map(|e| e.tag()),
                want,
                "mutated src answer (kind {}) must refute as {:?}", mutation, want
            );
            prop_assert!(
                CachedAnswer::CfaSrc(m).digest()
                    != CachedAnswer::CfaSrc(src).digest(),
                "mutated src answer (kind {mutation}) must change the answer digest"
            );
        }

        let cps = CpsProgram::from_anf(&p);
        let cps_r = zero_cfa_cps(&cps).expect("cps 0CFA completes");
        prop_assert!(certify_cfa_cps(&cps, &cps_r).is_ok(), "original cps answer must certify");
        let mutated = match mutation {
            0 => cps_add_fact(&cps_r),
            1 => cps_drop_fact(&cps_r),
            2 => cps_drop_call_edge(&cps_r),
            3 => (!cps_r.vars.is_empty()).then(|| {
                let mut m = cps_r.clone();
                m.vars.pop();
                m
            }),
            _ => None,
        };
        if let Some(m) = mutated {
            prop_assert_eq!(
                certify_cfa_cps(&cps, &m).err().map(|e| e.tag()),
                want,
                "mutated cps answer (kind {}) must refute as {:?}", mutation, want
            );
            prop_assert!(
                CachedAnswer::CfaCps(m).digest()
                    != CachedAnswer::CfaCps(cps_r).digest(),
                "mutated cps answer (kind {mutation}) must change the answer digest"
            );
        }

        let pd = pushdown_cfa(&cps).expect("pushdown completes");
        prop_assert!(certify_pushdown(&cps, &pd).is_ok(), "original pushdown answer must certify");
        let mutated = match mutation {
            0 => pd_add_fact(&pd),
            1 => pd_drop_fact(&pd),
            2 => pd_drop_call_edge(&pd),
            3 => (!pd.vars.is_empty()).then(|| {
                let mut m = pd.clone();
                m.vars.pop();
                m
            }),
            _ => pd_drop_witness(&pd),
        };
        if let Some(m) = mutated {
            prop_assert_eq!(
                certify_pushdown(&cps, &m).err().map(|e| e.tag()),
                want,
                "mutated pushdown answer (kind {}) must refute as {:?}", mutation, want
            );
            prop_assert!(
                CachedAnswer::CfaPushdown(m).digest()
                    != CachedAnswer::CfaPushdown(pd).digest(),
                "mutated pushdown answer (kind {mutation}) must change the answer digest"
            );
        }
    }
}

#[test]
fn chain_shaped_family_answers_certify_at_n_320() {
    for (name, term) in [
        ("dispatch(320)", families::dispatch(320)),
        ("polyvariant(320)", families::polyvariant(320)),
    ] {
        let p = AnfProgram::from_term(&term);
        let src = zero_cfa(&p).expect("src 0CFA completes");
        certify_cfa_src(&p, &src).unwrap_or_else(|e| panic!("{name}: src answer refuted: {e}"));
        let cps = CpsProgram::from_anf(&p);
        let cps_r = zero_cfa_cps(&cps).expect("cps 0CFA completes");
        certify_cfa_cps(&cps, &cps_r).unwrap_or_else(|e| panic!("{name}: cps answer refuted: {e}"));
        let pd = pushdown_cfa(&cps).expect("pushdown completes");
        certify_pushdown(&cps, &pd)
            .unwrap_or_else(|e| panic!("{name}: pushdown answer refuted: {e}"));
    }
}
