//! Property tests for the abstract machinery: lattice laws on random
//! elements for every stock domain, and structural properties of the three
//! analyzers (determinism, monotonicity in the initial store, soundness of
//! the δₑ mapping).

use cpsdfa_anf::AnfProgram;
use cpsdfa_core::absval::{AbsClo, AbsVal};
use cpsdfa_core::cfa::{zero_cfa, zero_cfa_cps, zero_cfa_cps_dense, zero_cfa_dense};
use cpsdfa_core::deltae::delta_val;
use cpsdfa_core::domain::{AnyNum, Flat, Interval, NumDomain, Parity, PowerSet, Sign};
use cpsdfa_core::mfp::Cfg;
use cpsdfa_core::{DirectAnalyzer, SemCpsAnalyzer, SynCpsAnalyzer};
use cpsdfa_cps::CpsProgram;
use cpsdfa_syntax::Label;
use cpsdfa_workloads::families;
use cpsdfa_workloads::par::par_map;
use cpsdfa_workloads::random::{corpus, generate, open_config};
use proptest::prelude::*;
use std::collections::BTreeSet;

// ---------------------------------------------------------------------------
// Domain laws on random elements
// ---------------------------------------------------------------------------

/// A random element of `D`, built by joining random constants (plus ⊥/⊤).
fn elem<D: NumDomain>(spec: &[i64], top: bool) -> D {
    let mut x = if top { D::top() } else { D::bot() };
    for &n in spec {
        x = x.join(&D::constant(n));
    }
    x
}

macro_rules! domain_laws {
    ($name:ident, $d:ty) => {
        proptest! {
            #[test]
            fn $name(
                a in proptest::collection::vec(-100i64..100, 0..4),
                b in proptest::collection::vec(-100i64..100, 0..4),
                c in proptest::collection::vec(-100i64..100, 0..4),
                n in -100i64..100,
            ) {
                let (x, y, z): ($d, $d, $d) =
                    (elem(&a, false), elem(&b, false), elem(&c, false));
                // semilattice laws
                prop_assert_eq!(x.join(&y), y.join(&x));
                prop_assert_eq!(x.join(&y).join(&z), x.join(&y.join(&z)));
                prop_assert_eq!(x.join(&x), x.clone());
                // leq/join agreement
                prop_assert_eq!(x.leq(&y), x.join(&y) == y);
                // γ grows with ⊑
                if x.leq(&y) && x.contains(n) {
                    prop_assert!(y.contains(n));
                }
                // transfers: soundness and monotonicity
                if x.contains(n) {
                    prop_assert!(x.add1().contains(n + 1));
                    prop_assert!(x.sub1().contains(n - 1));
                }
                if x.leq(&y) {
                    prop_assert!(x.add1().leq(&y.add1()));
                    prop_assert!(x.sub1().leq(&y.sub1()));
                }
                // constants are in their own abstraction
                prop_assert!(<$d>::constant(n).contains(n));
            }
        }
    };
}

domain_laws!(flat_laws, Flat);
domain_laws!(powerset_laws, PowerSet<8>);
domain_laws!(anynum_laws, AnyNum);
domain_laws!(sign_laws, Sign);
domain_laws!(parity_laws, Parity);
domain_laws!(interval_laws, Interval<64>);
domain_laws!(small_interval_laws, Interval<4>);

// ---------------------------------------------------------------------------
// AbsVal lattice + δe structure
// ---------------------------------------------------------------------------

fn absval_strategy() -> impl Strategy<Value = AbsVal<Flat>> {
    (
        prop_oneof![
            Just(Flat::Bot),
            any::<i8>().prop_map(|n| Flat::Const(n as i64)),
            Just(Flat::Top),
        ],
        proptest::collection::btree_set(
            prop_oneof![
                Just(AbsClo::Inc),
                Just(AbsClo::Dec),
                (0u32..5).prop_map(|l| AbsClo::Lam(Label::new(l))),
            ],
            0..4,
        ),
    )
        .prop_map(|(num, clos)| AbsVal::new(num, clos))
}

proptest! {
    #[test]
    fn absval_lattice_laws(a in absval_strategy(), b in absval_strategy(), c in absval_strategy()) {
        prop_assert_eq!(a.join(&b), b.join(&a));
        prop_assert_eq!(a.join(&b).join(&c), a.join(&b.join(&c)));
        prop_assert_eq!(a.join(&a), a.clone());
        prop_assert_eq!(a.leq(&b), a.join(&b) == b);
        prop_assert!(AbsVal::<Flat>::bot().leq(&a));
    }

    #[test]
    fn delta_val_is_monotone_and_injective_on_labels(
        a in absval_strategy(),
        b in absval_strategy(),
    ) {
        // Build a CPS program with enough λs that labels 0..5 exist in the
        // map... instead, restrict to primitive closures, which always map.
        let strip = |v: &AbsVal<Flat>| {
            let clos: BTreeSet<AbsClo> = v
                .clos
                .iter()
                .copied()
                .filter(|c| matches!(c, AbsClo::Inc | AbsClo::Dec))
                .collect();
            AbsVal::new(v.num, clos)
        };
        let p = AnfProgram::parse("(add1 (sub1 z))").unwrap();
        let cps = CpsProgram::from_anf(&p);
        let (a, b) = (strip(&a), strip(&b));
        let da = delta_val(&a, &cps).expect("prims map");
        let db = delta_val(&b, &cps).expect("prims map");
        if a.leq(&b) {
            prop_assert!(da.leq(&db));
        }
        prop_assert_eq!(da.num, a.num);
        prop_assert_eq!(da.konts.len(), 0);
    }
}

// ---------------------------------------------------------------------------
// Analyzer structure on random programs
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn analyzers_are_deterministic(seed in 0u64..10_000) {
        let t = generate(seed, &open_config());
        let p = AnfProgram::from_term(&t);
        let d1 = DirectAnalyzer::<Flat>::new(&p).analyze().unwrap();
        let d2 = DirectAnalyzer::<Flat>::new(&p).analyze().unwrap();
        prop_assert!(d1.store.leq(&d2.store) && d2.store.leq(&d1.store));
        prop_assert_eq!(d1.stats, d2.stats);
        let s1 = SemCpsAnalyzer::<Flat>::new(&p).analyze().unwrap();
        let s2 = SemCpsAnalyzer::<Flat>::new(&p).analyze().unwrap();
        prop_assert!(s1.store.leq(&s2.store) && s2.store.leq(&s1.store));
        let c = CpsProgram::from_anf(&p);
        let m1 = SynCpsAnalyzer::<Flat>::new(&c).analyze().unwrap();
        let m2 = SynCpsAnalyzer::<Flat>::new(&c).analyze().unwrap();
        prop_assert!(m1.store.leq(&m2.store) && m2.store.leq(&m1.store));
    }

    #[test]
    fn direct_analyzer_is_monotone_in_seeds(seed in 0u64..10_000, z in -8i64..8) {
        // Seeding the input with a constant must refine (⊑) the default ⊤
        // seeding — monotonicity of M_e in the initial store.
        let t = generate(seed, &open_config());
        let p = AnfProgram::from_term(&t);
        let top = DirectAnalyzer::<Flat>::new(&p).analyze().unwrap();
        let mut seeded = DirectAnalyzer::<Flat>::new(&p);
        for &v in p.free_vars() {
            seeded = seeded.with_seed(v, AbsVal::num(z));
        }
        let seeded = seeded.analyze().unwrap();
        prop_assert!(
            seeded.store.leq(&top.store),
            "constant seeding failed to refine ⊤ seeding"
        );
        prop_assert!(seeded.value.leq(&top.value));
    }

    #[test]
    fn semcps_analyzer_is_monotone_in_seeds(seed in 0u64..10_000, z in -8i64..8) {
        let t = generate(seed, &open_config());
        let p = AnfProgram::from_term(&t);
        let top = SemCpsAnalyzer::<Flat>::new(&p).analyze().unwrap();
        let mut seeded = SemCpsAnalyzer::<Flat>::new(&p);
        for &v in p.free_vars() {
            seeded = seeded.with_seed(v, AbsVal::num(z));
        }
        let seeded = seeded.analyze().unwrap();
        prop_assert!(seeded.store.leq(&top.store));
    }

    #[test]
    fn dup_depth_is_monotone_in_precision(seed in 0u64..10_000) {
        let t = generate(seed, &open_config());
        let p = AnfProgram::from_term(&t);
        let mut prev = DirectAnalyzer::<Flat>::new(&p).analyze().unwrap().store;
        for d in 1..=3u32 {
            let cur = DirectAnalyzer::<Flat>::new(&p)
                .with_duplication_depth(d)
                .analyze()
                .unwrap()
                .store;
            prop_assert!(cur.leq(&prev), "depth {d} lost precision");
            prev = cur;
        }
    }

    #[test]
    fn sparse_solvers_match_their_dense_oracles(seed in 0u64..10_000) {
        // The semi-naïve sparse engine (delta firings over growth logs) and
        // the dense sweeps are two chaotic iteration orders over the same
        // monotone constraint system, so all three delta solvers must reach
        // the same least fixpoint as their dense oracles on every program.
        let t = generate(seed, &open_config());
        let p = AnfProgram::from_term(&t);
        prop_assert!(zero_cfa(&p).unwrap().same_solution(&zero_cfa_dense(&p)));
        let c = CpsProgram::from_anf(&p);
        prop_assert!(zero_cfa_cps(&c).unwrap().same_solution(&zero_cfa_cps_dense(&c)));
        if let Ok(cfg) = Cfg::from_first_order(&p) {
            let init = cfg.initial_env::<Flat>(&p);
            prop_assert_eq!(
                cfg.solve_mfp::<Flat>(init.clone()).unwrap(),
                cfg.solve_mfp_dense::<Flat>(init)
            );
        }
    }

    #[test]
    fn powerset_refines_flat_on_programs(seed in 0u64..10_000) {
        // γ(PowerSet result) ⊆ γ(Flat result), pointwise, on a sample of
        // concrete values.
        let t = generate(seed, &open_config());
        let p = AnfProgram::from_term(&t);
        let flat = DirectAnalyzer::<Flat>::new(&p).analyze().unwrap();
        let ps = DirectAnalyzer::<PowerSet<16>>::new(&p).analyze().unwrap();
        for (v, _) in p.iter_vars() {
            for n in -10..=10 {
                if ps.store.get(v).num.contains(n) {
                    prop_assert!(
                        flat.store.get(v).num.contains(n),
                        "PowerSet admits {n} that Flat excludes — Flat would be unsound"
                    );
                }
            }
            // PowerSet can prove nonzero-ness that Flat cannot (e.g. {1,2}
            // vs ⊤), pruning more branches — so closure sets refine, they
            // need not coincide.
            prop_assert!(ps.store.get(v).clos.is_subset(&flat.store.get(v).clos));
        }
    }
}

// ---------------------------------------------------------------------------
// Sparse-vs-dense differential sweep (the tentpole's acceptance corpus)
// ---------------------------------------------------------------------------

/// Both delta-driven 0CFA formulations agree bit-for-bit with their dense
/// oracles on an 800-program seeded corpus (the first 500 reproduce PR 1's
/// acceptance corpus; the extension covers the delta engine), and MFP
/// agrees on every first-order member plus the diamond family. One
/// corpus-sized check (driven in parallel) rather than a proptest so the
/// acceptance corpus is fixed and exact.
#[test]
fn sparse_delta_matches_dense_on_800_program_corpus() {
    let progs = corpus(0x5_0CFA, 800, &open_config());
    let verdicts = par_map(&progs, |t| {
        let p = AnfProgram::from_term(t);
        if !zero_cfa(&p).unwrap().same_solution(&zero_cfa_dense(&p)) {
            return false;
        }
        let c = CpsProgram::from_anf(&p);
        if !zero_cfa_cps(&c)
            .unwrap()
            .same_solution(&zero_cfa_cps_dense(&c))
        {
            return false;
        }
        match Cfg::from_first_order(&p) {
            Ok(cfg) => {
                let init = cfg.initial_env::<Flat>(&p);
                cfg.solve_mfp::<Flat>(init.clone()).unwrap() == cfg.solve_mfp_dense::<Flat>(init)
            }
            Err(_) => true, // higher-order: MFP out of scope
        }
    });
    let agree = verdicts.iter().filter(|&&ok| ok).count();
    assert_eq!(agree, progs.len(), "sparse/dense divergence in the corpus");

    // First-order MFP coverage on the family the random corpus underserves.
    for n in 1..=16 {
        let p = AnfProgram::from_term(&families::diamond_chain(n));
        let cfg = Cfg::from_first_order(&p).unwrap();
        let init = cfg.initial_env::<Flat>(&p);
        assert_eq!(
            cfg.solve_mfp::<Flat>(init.clone()).unwrap(),
            cfg.solve_mfp_dense::<Flat>(init),
            "MFP sparse/dense divergence on diamond_chain({n})"
        );
    }
}

// ---------------------------------------------------------------------------
// FixpointCache: LRU churn against an executable model
// ---------------------------------------------------------------------------

mod cache_churn {
    use super::*;
    use cpsdfa_core::cache::{AnalysisKind, Ancestor, CacheKey, CachedAnswer, CachedFixpoint};
    use cpsdfa_core::govern::DegradationReport;
    use cpsdfa_core::mfp::DfSummary;
    use cpsdfa_core::FixpointCache;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    /// An MFP summary entry whose eviction cost scales with `size`.
    fn entry(size: usize) -> CachedFixpoint {
        let answer = CachedAnswer::MfpFlat(DfSummary {
            vars: vec![Flat::top(); size],
        });
        CachedFixpoint::new(
            answer,
            DegradationReport {
                attempts: Vec::new(),
                resource: None,
                residual_budget: 0,
                elapsed_ns: 0,
            },
        )
    }

    fn key(idx: usize) -> CacheKey {
        CacheKey::new(AnalysisKind::MfpFlat, idx as u128)
    }

    /// A transliteration of the documented cache algorithm: LRU by unique
    /// touch ticks, byte ceiling, first-writer-wins, reject-over-ceiling.
    #[derive(Default)]
    struct Model {
        entries: BTreeMap<usize, (u64, u64)>, // key idx → (cost, last_used)
        ceiling: u64,
        bytes: u64,
        tick: u64,
        hits: u64,
        misses: u64,
        inserts: u64,
        evictions: u64,
        rejects: u64,
    }

    impl Model {
        fn lookup(&mut self, idx: usize) -> bool {
            self.tick += 1;
            match self.entries.get_mut(&idx) {
                Some((_, last)) => {
                    *last = self.tick;
                    self.hits += 1;
                    true
                }
                None => {
                    self.misses += 1;
                    false
                }
            }
        }

        fn insert(&mut self, idx: usize, cost: u64) -> bool {
            if cost > self.ceiling || self.entries.contains_key(&idx) {
                self.rejects += 1;
                return false;
            }
            while self.bytes + cost > self.ceiling {
                let Some(victim) = self
                    .entries
                    .iter()
                    .min_by_key(|(_, (_, last))| *last)
                    .map(|(k, _)| *k)
                else {
                    break;
                };
                let (gone, _) = self.entries.remove(&victim).unwrap();
                self.bytes -= gone;
                self.evictions += 1;
            }
            self.tick += 1;
            self.bytes += cost;
            self.inserts += 1;
            self.entries.insert(idx, (cost, self.tick));
            true
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Random insert/hit/evict churn: the real cache and the model
        /// agree on every counter, both gauges, the resident key set, and
        /// — because last-used ticks are unique — the exact eviction
        /// order implied by recency.
        #[test]
        fn lru_churn_matches_the_model(
            ops in proptest::collection::vec(
                (0u8..2, 0usize..8, 1usize..40),
                1..200,
            ),
        ) {
            // Tight ceiling: a handful of mid-sized entries fit, so the
            // op stream constantly evicts.
            let ceiling = entry(20).approx_bytes * 3;
            let mut cache = FixpointCache::new(ceiling);
            let mut model = Model { ceiling, ..Model::default() };
            for (op, idx, size) in ops {
                if op == 1 {
                    let fixpoint = entry(size);
                    let cost = fixpoint.approx_bytes;
                    let admitted = cache.insert(key(idx), fixpoint);
                    prop_assert_eq!(admitted, model.insert(idx, cost));
                } else {
                    let hit = cache.lookup(&key(idx)).is_some();
                    prop_assert_eq!(hit, model.lookup(idx));
                }
                let stats = cache.stats();
                prop_assert_eq!(stats.bytes, model.bytes, "bytes gauge");
                prop_assert_eq!(stats.entries, model.entries.len() as u64, "entries gauge");
                prop_assert_eq!(stats.hits, model.hits);
                prop_assert_eq!(stats.misses, model.misses);
                prop_assert_eq!(stats.inserts, model.inserts);
                prop_assert_eq!(stats.evictions, model.evictions);
                prop_assert_eq!(stats.rejects, model.rejects);
                prop_assert!(stats.bytes <= ceiling, "residency within the ceiling");
            }
            // Resident key sets agree (probed without asserting stats
            // afterwards — the probes themselves count as traffic).
            for idx in 0..8 {
                prop_assert_eq!(
                    cache.lookup(&key(idx)).is_some(),
                    model.entries.contains_key(&idx),
                    "residency of key {}", idx
                );
            }
        }
    }

    fn ancestor(tag: u128) -> Ancestor {
        let fixpoint = Arc::new(entry(1));
        Ancestor {
            kind: AnalysisKind::MfpFlat,
            digest: tag,
            source: format!("src-{tag}"),
            fixpoint,
        }
    }

    #[test]
    fn ancestors_cap_at_64_sessions_evicting_least_recent() {
        let mut cache = FixpointCache::new(1 << 20);
        for s in 0..64u64 {
            cache.note_ancestor(s, ancestor(s as u128));
        }
        assert_eq!(cache.ancestor_count(), 64);
        // Touch session 0 so it is no longer the least recent…
        assert!(cache.ancestor(0).is_some());
        // …then one more session evicts session 1 instead.
        cache.note_ancestor(64, ancestor(64));
        assert_eq!(cache.ancestor_count(), 64);
        assert!(cache.ancestor(0).is_some(), "refreshed session survives");
        assert!(cache.ancestor(1).is_none(), "least-recent session evicted");
        assert!(cache.ancestor(64).is_some());
        // Re-noting an existing session replaces, never evicts.
        cache.note_ancestor(64, ancestor(999));
        assert_eq!(cache.ancestor_count(), 64);
        assert_eq!(cache.ancestor(64).unwrap().digest, 999);
    }

    #[test]
    fn ancestors_live_outside_the_byte_ceiling() {
        // A ceiling too small for even one entry: content-addressed
        // inserts reject, but the session ancestor is still remembered.
        let mut cache = FixpointCache::new(1);
        assert!(!cache.insert(key(0), entry(10)));
        cache.note_ancestor(7, ancestor(42));
        assert_eq!(cache.ancestor(7).unwrap().digest, 42);
        assert_eq!(cache.stats().bytes, 0);
    }
}

// ---------------------------------------------------------------------------
// Pinned cold schedules: firing counts and answers of the three CFA solvers
// ---------------------------------------------------------------------------

mod pinned_schedule {
    use super::*;
    use cpsdfa_core::cache::{SendCfa, SendCpsCfa, SendPushdown};
    use cpsdfa_core::pushdown_cfa;
    use cpsdfa_workloads::random::GenConfig;

    /// Programs whose CPS form applies a numeric literal: the operator has
    /// no flow, and the cold solver still posts (and fires) the call once.
    const LITERAL_OPERATORS: [&str; 2] = ["(1 2)", "(if0 0 (1 2) (add1 3))"];

    /// `(iterations, solution digest)` of each cold solver on one program:
    /// source 0CFA, CPS 0CFA, pushdown.
    fn schedule(p: &AnfProgram) -> [(u64, u64); 3] {
        let c = CpsProgram::from_anf(p);
        let src = zero_cfa(p).unwrap();
        let cps = zero_cfa_cps(&c).unwrap();
        let pd = pushdown_cfa(&c).unwrap();
        [
            (src.iterations, SendCfa::from_result(&src).solution_digest()),
            (
                cps.iterations,
                SendCpsCfa::from_result(&cps).solution_digest(),
            ),
            (
                pd.iterations,
                SendPushdown::from_result(&pd).solution_digest(),
            ),
        ]
    }

    /// FNV-1a over every program's `(iterations, digest)`, one fingerprint
    /// per solver, formatted for comparison against the pinned values.
    fn fingerprints(progs: &[AnfProgram]) -> [String; 3] {
        let rows = par_map(progs, schedule);
        std::array::from_fn(|a| {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for row in &rows {
                let (iterations, digest) = row[a];
                for b in iterations.to_le_bytes().iter().chain(&digest.to_le_bytes()) {
                    h = (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3);
                }
            }
            format!("{h:016x}")
        })
    }

    fn family_corpus() -> Vec<AnfProgram> {
        let mut terms = Vec::new();
        for n in [4, 16, 64, 160] {
            terms.push(families::dispatch(n));
            terms.push(families::polyvariant(n));
            terms.push(families::repeated_calls(n));
            terms.push(families::cond_chain(n));
            terms.push(families::church(n));
        }
        terms.iter().map(AnfProgram::from_term).collect()
    }

    fn random_corpus(seed: u64, config: &GenConfig) -> Vec<AnfProgram> {
        corpus(seed, 800, config)
            .iter()
            .map(AnfProgram::from_term)
            .collect()
    }

    /// The cold solvers' firing counts and answers on a fixed corpus, pinned.
    /// A change to how any solver registers or seeds its constraints moves
    /// `iterations` even when the answers agree, so this test is the
    /// differential for setup refactors; a deliberate schedule change
    /// re-records the values.
    #[test]
    fn cold_schedules_are_pinned() {
        let literal: Vec<AnfProgram> = LITERAL_OPERATORS
            .iter()
            .map(|s| AnfProgram::parse(s).unwrap())
            .collect();
        let cps_iterations: Vec<u64> = literal.iter().map(|p| schedule(p)[1].0).collect();
        assert_eq!(cps_iterations, [2, 5], "literal-operator calls fire once");

        let got = [
            fingerprints(&literal),
            fingerprints(&family_corpus()),
            fingerprints(&random_corpus(0x5_0CFA, &open_config())),
            fingerprints(&random_corpus(77, &GenConfig::default())),
        ];
        let want: [[&str; 3]; 4] = [
            ["c322ac50d144e420", "1b24a2071119245d", "650d8cdaf2b1c189"], // literal operators
            ["b26e786682ebd5e8", "7ad29bcb13707dd7", "f33d7cc1a1abebfe"], // families
            ["26a108691f42569b", "a20887e708dcd04b", "38ba0dcaaefeb41e"], // open_config, seed 0x50CFA
            ["8d58c7ac64277a04", "83d0b6840847fc08", "4e9cbfde66081cb5"], // default config, seed 77
        ];
        assert_eq!(got, want, "[src, cps, pushdown] fingerprints per corpus");
    }
}
