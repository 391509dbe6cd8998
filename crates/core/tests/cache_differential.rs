//! Differential acceptance tests for the content-addressed fixpoint cache
//! (`core::cache`): a cache hit must be *bit-identical* to a fresh solve.
//!
//! Three guarantees are pinned here:
//!
//! 1. **Round-trip bit-identity.** For all three analyses (source 0CFA,
//!    CPS 0CFA, MFP over `Flat`), committing a solution into the cache and
//!    reading it back yields a result that is `same_solution`-equal to a
//!    second fresh solve, with an identical canonical digest — on a
//!    300-program random corpus. Hit, fresh and warm-started answers of
//!    all four analyses carry the same answer digest.
//! 2. **Content addressing.** The same program parsed into *different*
//!    arenas (different processes, different workers) produces the same
//!    cache key, so cross-worker reuse is sound; different programs
//!    produce different keys.
//! 3. **Degraded answers never shadow.** An answer produced by a fallback
//!    rung is keyed by that rung's own analysis kind, so a full-precision
//!    lookup of the same program can never be served the coarser store.

use cpsdfa_anf::AnfProgram;
use cpsdfa_core::budget::AnalysisBudget;
use cpsdfa_core::cache::{
    AnalysisKind, ArenaDigests, CacheKey, CachedAnswer, CachedFixpoint, FixpointCache,
};
use cpsdfa_core::cfa::{zero_cfa, zero_cfa_cps};
use cpsdfa_core::domain::Flat;
use cpsdfa_core::govern::{governed, DegradationReport, GovernPolicy, Lowered};
use cpsdfa_core::incremental::{
    pushdown_cfa_warm, solve_mfp_incremental, zero_cfa_cps_warm, zero_cfa_warm, WarmSolve,
};
use cpsdfa_core::mfp::Cfg;
use cpsdfa_core::pushdown::pushdown_cfa;
use cpsdfa_core::trace::NoopSink;
use cpsdfa_cps::CpsProgram;
use cpsdfa_syntax::arena::TermArena;
use cpsdfa_syntax::build::{let_, num};
use cpsdfa_workloads::families;
use cpsdfa_workloads::par::{par_map_isolated, ParOutcome};
use cpsdfa_workloads::random::{corpus, open_config};

fn digest_in_fresh_arena(src: &str) -> u128 {
    let mut arena = TermArena::new();
    let root = arena.parse(src).expect("corpus programs parse");
    ArenaDigests::new().term_digest(&arena, root)
}

/// Solves `p` with both 0CFA representations, commits each answer through
/// the cache, and checks the reconstructed results against an independent
/// fresh solve. Returns the first divergence.
fn check_cache_round_trip(p: &AnfProgram, src_text: &str) -> Result<(), String> {
    let digest = digest_in_fresh_arena(src_text);
    let mut cache = FixpointCache::new(u64::MAX);

    // --- source 0CFA ---
    let solve_src = || zero_cfa(p).map_err(|e| format!("src 0CFA failed: {e}"));
    let first = solve_src()?;
    let key = CacheKey::new(AnalysisKind::CfaSrc, digest);
    cache.insert(
        key,
        CachedFixpoint::new(CachedAnswer::CfaSrc(first), DegradationReport::default()),
    );
    let hit = cache.lookup(&key).ok_or("src entry vanished")?;
    let CachedAnswer::CfaSrc(cached) = &hit.answer else {
        return Err("src entry changed kind".into());
    };
    let fresh = solve_src()?;
    if !cached.same_solution(&fresh) {
        return Err("src hit diverged from fresh solve".into());
    }
    if hit.answer_digest != CachedAnswer::CfaSrc(fresh).digest() {
        return Err("src digest diverged".into());
    }

    // --- CPS 0CFA ---
    let cps = CpsProgram::from_anf(p);
    let solve_cps = || zero_cfa_cps(&cps).map_err(|e| format!("cps 0CFA failed: {e}"));
    let first = solve_cps()?;
    let key = CacheKey::new(AnalysisKind::CfaCps, digest);
    cache.insert(
        key,
        CachedFixpoint::new(CachedAnswer::CfaCps(first), DegradationReport::default()),
    );
    let hit = cache.lookup(&key).ok_or("cps entry vanished")?;
    let CachedAnswer::CfaCps(cached) = &hit.answer else {
        return Err("cps entry changed kind".into());
    };
    let fresh = solve_cps()?;
    if !cached.same_solution(&fresh) {
        return Err("cps hit diverged from fresh solve".into());
    }
    if hit.answer_digest != CachedAnswer::CfaCps(fresh).digest() {
        return Err("cps digest diverged".into());
    }
    Ok(())
}

#[test]
fn cache_hits_equal_fresh_solves_on_300_program_corpus() {
    let progs = corpus(0xCAC4E, 300, &open_config());
    let indexed: Vec<(usize, &cpsdfa_syntax::Term)> = progs.iter().enumerate().collect();
    let report = par_map_isolated(&indexed, None, |&(i, t)| {
        let p = AnfProgram::from_term(t);
        let text = t.to_string();
        check_cache_round_trip(&p, &text).map_err(|e| format!("program {i}: {e}"))
    });
    assert_eq!(report.completed, progs.len(), "no sweep worker may die");
    let failures: Vec<String> = report
        .results
        .into_iter()
        .filter_map(ParOutcome::done)
        .filter_map(Result::err)
        .collect();
    assert!(failures.is_empty(), "cache/fresh diverged: {failures:?}");
}

#[test]
fn mfp_cache_hits_equal_fresh_and_warm_solves() {
    for (name, term) in [
        ("cond_chain(24)", families::cond_chain(24)),
        ("agreeing_cond_chain(16)", families::agreeing_cond_chain(16)),
        ("diamond_chain(6)", families::diamond_chain(6)),
    ] {
        let p = AnfProgram::from_term(&term);
        let text = term.to_string();
        let digest = digest_in_fresh_arena(&text);
        let cfg = Cfg::from_first_order(&p)
            .unwrap_or_else(|e| panic!("{name} should lower to a CFG: {e}"));
        let init = cfg.initial_env::<Flat>(&p);
        // MFP's warm rung is the α-renaming transport; an identity edit (a
        // re-parse of the same text) exercises it.
        let reparsed = AnfProgram::parse(&text).expect("round-trip parses");
        let solve = || {
            cfg.solve_mfp::<Flat>(init.clone())
                .unwrap_or_else(|e| panic!("MFP failed on {name}: {e}"))
        };
        let mut cache = FixpointCache::new(u64::MAX);
        let key = CacheKey::new(AnalysisKind::MfpFlat, digest);
        cache.insert(
            key,
            CachedFixpoint::new(CachedAnswer::MfpFlat(solve()), DegradationReport::default()),
        );
        let hit = cache.lookup(&key).expect("entry resident");
        let CachedAnswer::MfpFlat(summary) = &hit.answer else {
            panic!("MFP entry changed kind");
        };
        let fresh = solve();
        assert_eq!(summary, &fresh, "MFP hit diverged on {name}");
        let (warm, _) =
            solve_mfp_incremental(&p, &fresh, &reparsed).expect("identity edit transports");
        let d = hit.answer_digest;
        assert_eq!(d, CachedAnswer::MfpFlat(fresh).digest());
        assert_eq!(d, CachedAnswer::MfpFlat(warm).digest(), "MFP warm ≠ hit");
    }
}

/// Commits `fresh` under `key` and returns the digest the cache serves.
fn hit_digest(key: CacheKey, fresh: CachedAnswer) -> u64 {
    let mut cache = FixpointCache::new(u64::MAX);
    assert!(cache.insert(
        key,
        CachedFixpoint::new(fresh, DegradationReport::default())
    ));
    cache.lookup(&key).expect("entry resident").answer_digest
}

fn warm<R: std::fmt::Debug>(name: &str, solve: WarmSolve<R>) -> R {
    match solve {
        WarmSolve::Warm(r, _) => r,
        WarmSolve::Cold(reason) => panic!("{name}: constant edit fell cold: {reason:?}"),
    }
}

#[test]
fn hit_fresh_and_warm_answers_digest_equal() {
    // The watch-session edit shape: a constant changed in a top-level
    // binding, which every CFA kind answers as a noop. The answer a fresh
    // solve of the edited program gives, the one the cache serves after
    // committing it, and the one warm-started from a solve of the base
    // program must all carry the same digest.
    for (name, base) in [
        ("dispatch(12)", families::dispatch(12)),
        ("repeated_calls(16)", families::repeated_calls(16)),
    ] {
        let (base, edited) = (
            let_("fresh", num(1), base.clone()),
            let_("fresh", num(7), base),
        );
        let (old_p, new_p) = (AnfProgram::from_term(&base), AnfProgram::from_term(&edited));
        let (old_c, new_c) = (CpsProgram::from_anf(&old_p), CpsProgram::from_anf(&new_p));
        let digest = digest_in_fresh_arena(&edited.to_string());
        let src = |p| zero_cfa(p).unwrap();
        let cps = |c| zero_cfa_cps(c).unwrap();
        let pd = |c| pushdown_cfa(c).unwrap();

        let triples = [
            (
                AnalysisKind::CfaSrc,
                CachedAnswer::CfaSrc(src(&new_p)),
                CachedAnswer::CfaSrc(warm(
                    name,
                    zero_cfa_warm(&old_p, &src(&old_p), &new_p).unwrap(),
                )),
            ),
            (
                AnalysisKind::CfaCps,
                CachedAnswer::CfaCps(cps(&new_c)),
                CachedAnswer::CfaCps(warm(
                    name,
                    zero_cfa_cps_warm(&old_c, &cps(&old_c), &new_c).unwrap(),
                )),
            ),
            (
                AnalysisKind::CfaPushdown,
                CachedAnswer::CfaPushdown(pd(&new_c)),
                CachedAnswer::CfaPushdown(warm(
                    name,
                    pushdown_cfa_warm(&old_c, &pd(&old_c), &new_c).unwrap(),
                )),
            ),
        ];
        for (kind, fresh, warm) in triples {
            let d = fresh.digest();
            assert_eq!(warm.digest(), d, "{name}: {kind:?} warm ≠ fresh");
            let hit = hit_digest(CacheKey::new(kind, digest), fresh);
            assert_eq!(hit, d, "{name}: {kind:?} hit ≠ fresh");
        }
    }
}

#[test]
fn keys_are_arena_and_process_independent_but_program_sensitive() {
    let a = families::dispatch(16).to_string();
    let b = families::dispatch(17).to_string();
    assert_eq!(
        digest_in_fresh_arena(&a),
        digest_in_fresh_arena(&a),
        "two arenas, same program, same digest"
    );
    assert_ne!(
        digest_in_fresh_arena(&a),
        digest_in_fresh_arena(&b),
        "different programs must not collide on the happy path"
    );
}

#[test]
fn degraded_rung_commit_never_shadows_full_precision() {
    // Starve the CPS rung so the ladder answers at cfa.src, then commit
    // the way the service does: under the answer's own kind. dispatch is a
    // family where the CPS rung costs more than the source rung.
    let term = families::dispatch(64);
    let p = AnfProgram::from_term(&term);
    let text = term.to_string();
    let digest = digest_in_fresh_arena(&text);

    let (_, src_stats) =
        cpsdfa_core::cfa::zero_cfa_instrumented(&p).expect("source 0CFA completes");
    let policy = GovernPolicy::new().with_budget(AnalysisBudget::new(src_stats.fired));
    let governed = governed(
        AnalysisKind::CfaCps,
        &Lowered::new(p),
        &policy,
        &mut NoopSink,
    )
    .expect("the ladder recovers at the direct rung");
    assert!(governed.report.degraded(), "premise: CPS rung must trip");
    let rung = governed.report.answered_by().expect("a rung answered");
    assert_eq!(rung, "cfa.src");

    let answer = governed.value;
    assert_eq!(answer.kind(), AnalysisKind::CfaSrc);
    let mut cache = FixpointCache::new(u64::MAX);
    let full_key = CacheKey::new(AnalysisKind::CfaCps, digest);
    let commit_key = CacheKey::new(answer.kind(), digest);
    assert!(cache.insert(commit_key, CachedFixpoint::new(answer, governed.report)));

    // The full-precision probe misses; the cfa.src probe hits.
    assert!(
        cache.lookup(&full_key).is_none(),
        "a degraded commit must be invisible to full-precision lookups"
    );
    assert!(cache.lookup(&commit_key).is_some());
}

#[test]
fn degraded_pushdown_commit_never_shadows_upper_rungs() {
    // Starve the whole CPS-arena ladder under the pushdown entry point so
    // it answers at cfa.src (dispatch is the family where the direct rung
    // is genuinely the cheapest), then commit the way the service does:
    // under the answer's own kind. Neither the full-precision pushdown key
    // nor any intermediate rung key may see the coarse answer.
    let term = families::dispatch(64);
    let p = AnfProgram::from_term(&term);
    let text = term.to_string();
    let digest = digest_in_fresh_arena(&text);

    let (_, src_stats) =
        cpsdfa_core::cfa::zero_cfa_instrumented(&p).expect("source 0CFA completes");
    let policy = GovernPolicy::new().with_budget(AnalysisBudget::new(src_stats.fired));
    let governed = governed(
        AnalysisKind::CfaPushdown,
        &Lowered::new(p),
        &policy,
        &mut NoopSink,
    )
    .expect("the ladder recovers at the direct rung");
    assert!(governed.report.degraded(), "premise: upper rungs must trip");
    let rung = governed.report.answered_by().expect("a rung answered");
    assert_eq!(rung, "cfa.src");

    let answer = governed.value;
    assert_eq!(answer.kind(), AnalysisKind::CfaSrc);
    let mut cache = FixpointCache::new(u64::MAX);
    let full_key = CacheKey::new(AnalysisKind::CfaPushdown, digest);
    let commit_key = CacheKey::new(answer.kind(), digest);
    assert!(cache.insert(commit_key, CachedFixpoint::new(answer, governed.report)));

    // The full-precision probe misses, as does the intermediate cfa.cps
    // probe; only the cfa.src probe hits.
    assert!(
        cache.lookup(&full_key).is_none(),
        "a degraded commit must be invisible to full-precision pushdown lookups"
    );
    assert!(
        cache
            .lookup(&CacheKey::new(AnalysisKind::CfaCps, digest))
            .is_none(),
        "a cfa.src answer must not surface on the cfa.cps rung key either"
    );
    assert!(cache.lookup(&commit_key).is_some());

    // Kind remains part of the key: a full-precision pushdown answer is
    // never served to a cfa.cps request for the same program.
    assert_ne!(full_key, CacheKey::new(AnalysisKind::CfaCps, digest));
}
