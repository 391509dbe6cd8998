//! The experiment harness: regenerates every result of Sabry & Felleisen
//! (PLDI 1994) as a table. See `DESIGN.md` §4 for the experiment index and
//! `EXPERIMENTS.md` for recorded output with paper-vs-measured commentary.
//!
//! ```sh
//! cargo run --release -p cpsdfa-bench --bin experiments            # all
//! cargo run --release -p cpsdfa-bench --bin experiments -- E1 E6  # subset
//! cargo run --release -p cpsdfa-bench --bin experiments -- E16 --trace e16.jsonl
//! cargo run --release -p cpsdfa-bench --bin experiments -- --regen-e16 e16.jsonl
//! ```
//!
//! `--trace <path>` records structured JSONL trace events (per-experiment
//! spans, solver counters, wall times) to `<path>` while the experiments
//! run. `--regen-e16 <path>` reads such a file back and reprints the E16
//! table from the recorded events alone — no re-measurement. `--test`
//! shrinks the measurement grids (used by the CI fault-injection and
//! bench-smoke jobs to exercise E18 quickly).

use cpsdfa_anf::AnfProgram;
use cpsdfa_bench::{run_goals, Analyzer};
use cpsdfa_core::cfa::{zero_cfa, zero_cfa_cps};
use cpsdfa_core::deltae::{compare_via_delta, overall};
use cpsdfa_core::distrib;
use cpsdfa_core::domain::{AnyNum, Flat, Interval, NumDomain, Parity, PowerSet, Sign};
use cpsdfa_core::mfp::{Cfg, Cond, Node, NodeId, PathMode, Stmt};
use cpsdfa_core::precision::{compare_stores, Census};
use cpsdfa_core::report::render_table;
use cpsdfa_core::trace::{self, AggSink, JsonlSink, NoopSink, TraceSink};
use cpsdfa_core::{AnalysisBudget, DirectAnalyzer, SemCpsAnalyzer, SolverStats, SynCpsAnalyzer};
use cpsdfa_cps::CpsProgram;
use cpsdfa_interp::{
    run_direct, run_semcps, run_syncps, stores_delta_related, value_delta_eq, Fuel,
};
use cpsdfa_workloads::par::par_map;
use cpsdfa_workloads::random::{corpus, open_config, GenConfig};
use cpsdfa_workloads::{families, paper};

/// Removes `flag` and its value from `args`, returning the value. Both
/// `--flag path` and `--flag=path` spellings are accepted.
fn take_flag_value(args: &mut Vec<String>, flag: &str) -> Option<String> {
    if let Some(i) = args.iter().position(|a| a == flag) {
        if i + 1 < args.len() {
            let v = args.remove(i + 1);
            args.remove(i);
            return Some(v);
        }
        args.remove(i);
        return None;
    }
    let prefix = format!("{flag}=");
    if let Some(i) = args.iter().position(|a| a.starts_with(&prefix)) {
        let v = args.remove(i)[prefix.len()..].to_owned();
        return Some(v);
    }
    None
}

/// Removes a boolean `flag` from `args`, returning whether it was present.
fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(i) = args.iter().position(|a| a == flag) {
        args.remove(i);
        return true;
    }
    false
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let trace_path = take_flag_value(&mut args, "--trace");
    let test_mode = take_flag(&mut args, "--test");
    if let Some(path) = take_flag_value(&mut args, "--regen-e16") {
        e16_regen(&path);
        return;
    }
    let want = |id: &str| args.is_empty() || args.iter().any(|a| a.eq_ignore_ascii_case(id));

    // One sink for the whole run: JSONL when --trace is given, otherwise a
    // statically-dispatched no-op whose calls compile to nothing.
    let mut sink: Box<dyn TraceSink> = match &trace_path {
        Some(p) => Box::new(JsonlSink::create(p).expect("create --trace output file")),
        None => Box::new(NoopSink),
    };
    let sink = &mut sink;

    println!("# cpsdfa experiment harness");
    println!("# Sabry & Felleisen, \"Is Continuation-Passing Useful for Data Flow Analysis?\", PLDI 1994");
    let workers = cpsdfa_workloads::par::worker_count();
    println!("# worker threads: {workers} (override with CPSDFA_WORKERS)");
    println!();
    sink.gauge("harness.workers", workers as u64);

    if want("E0") {
        trace::with_span(sink, "e0", e0_lemmas);
    }
    if want("E1") {
        trace::with_span(sink, "e1", |_| e1_theorem_5_1());
    }
    if want("E2") {
        trace::with_span(sink, "e2", |_| e2_theorem_5_2());
    }
    if want("E3") {
        trace::with_span(sink, "e3", |_| e3_theorem_5_4());
    }
    if want("E4") {
        trace::with_span(sink, "e4", |_| e4_theorem_5_5());
    }
    if want("E5") {
        trace::with_span(sink, "e5", |_| e5_false_returns());
    }
    if want("E6") {
        trace::with_span(sink, "e6", |_| e6_cond_chain_cost());
    }
    if want("E7") {
        trace::with_span(sink, "e7", |_| e7_dispatch_cost());
    }
    if want("E8") {
        trace::with_span(sink, "e8", |_| e8_loop_noncomputability());
    }
    if want("E9") {
        trace::with_span(sink, "e9", |_| e9_mop_vs_mfp());
    }
    if want("E10") {
        trace::with_span(sink, "e10", |_| e10_bounded_duplication());
    }
    if want("E11") {
        trace::with_span(sink, "e11", |_| e11_domain_sensitivity());
    }
    if want("E12") {
        trace::with_span(sink, "e12", |_| e12_zero_cfa());
    }
    if want("E13") {
        trace::with_span(sink, "e13", |_| e13_small_scope());
    }
    if want("E14") {
        trace::with_span(sink, "e14", |_| e14_context_sensitivity());
    }
    if want("E15") {
        trace::with_span(sink, "e15", |_| e15_optimizer());
    }
    if want("E16") {
        trace::with_span(sink, "e16", e16_solver_cost);
    }
    if want("E17") {
        trace::with_span(sink, "e17", e17_pipeline_throughput);
    }
    if want("E18") {
        trace::with_span(sink, "e18", |sink| e18_degradation(sink, test_mode));
    }
    if want("E20") {
        trace::with_span(sink, "e20", |sink| e20_service(sink, test_mode));
    }
    if want("E21") {
        trace::with_span(sink, "e21", |sink| e21_pushdown_census(sink, test_mode));
    }
    if want("E22") {
        trace::with_span(sink, "e22", |sink| e22_incremental(sink, test_mode));
    }
    if want("E23") {
        trace::with_span(sink, "e23", |sink| e23_chaos(sink, test_mode));
    }
}

/// The hardware thread count the host actually has — recorded next to
/// every wall-clock measurement so runs on different hosts stay
/// comparable.
fn hw_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn section(id: &str, title: &str) {
    println!("\n## {id} — {title}\n");
}

fn fuel() -> Fuel {
    Fuel::new(500_000)
}

/// E0: Lemmas 3.1 and 3.3 over a 500-program random corpus.
fn e0_lemmas(sink: &mut impl TraceSink) {
    section(
        "E0",
        "Lemmas 3.1 / 3.3: the three interpreters agree (500 random programs)",
    );
    let cfg = GenConfig::default();
    let n = 500;
    let progs = corpus(0xE0, n, &cfg);
    let checks = par_map(&progs, |t| {
        let p = AnfProgram::from_term(t);
        let c = CpsProgram::from_anf(&p);
        let d = run_direct(&p, &[], fuel()).expect("typed corpus runs");
        let s = run_semcps(&p, &[], fuel()).expect("typed corpus runs");
        let m = run_syncps(&c, &[], fuel()).expect("typed corpus runs");
        (
            d.value.as_num() == s.value.as_num(),
            value_delta_eq(&d.value, &m.value, c.label_map()),
            stores_delta_related(&d.store, &m.store, c.label_map()),
            d.steps + s.steps + m.steps,
        )
    });
    // Fuel accounting: total interpreter transitions across the corpus (the
    // interp crate sits below core, so its fuel counters are surfaced here,
    // at the call site).
    let steps: u64 = checks.iter().map(|r| r.3).sum();
    sink.counter("e0.interp.steps", steps);
    sink.counter("e0.interp.runs", 3 * n as u64);
    let ok31 = checks.iter().filter(|r| r.0).count();
    let ok33_val = checks.iter().filter(|r| r.1).count();
    let ok33_sto = checks.iter().filter(|r| r.2).count();
    let rows = vec![
        vec!["Lemma 3.1: M ≡ C (answers)".into(), format!("{ok31}/{n}")],
        vec![
            "Lemma 3.3: M_c ≡ δ(M) (answers)".into(),
            format!("{ok33_val}/{n}"),
        ],
        vec![
            "Lemma 3.3: stores δ-related".into(),
            format!("{ok33_sto}/{n}"),
        ],
    ];
    println!("{}", render_table(&["claim", "holds"], &rows));
}

/// E1: Theorem 5.1 — the worked example, all three analyzers.
fn e1_theorem_5_1() {
    section(
        "E1",
        "Theorem 5.1: direct analysis strictly beats syntactic-CPS on Π1",
    );
    println!("program: {}\n", paper::THEOREM_5_1);
    let p = AnfProgram::parse(paper::THEOREM_5_1).unwrap();
    let c = CpsProgram::from_anf(&p);
    let d = DirectAnalyzer::<Flat>::new(&p).analyze().unwrap();
    let sem = SemCpsAnalyzer::<Flat>::new(&p).analyze().unwrap();
    let syn = SynCpsAnalyzer::<Flat>::new(&c).analyze().unwrap();

    let mut rows = Vec::new();
    for (v, name) in p.iter_vars() {
        let syn_cell = c
            .user_var_id(name)
            .map(|id| syn.store.get(id).to_string())
            .unwrap_or_default();
        rows.push(vec![
            name.to_string(),
            d.store.get(v).to_string(),
            sem.store.get(v).to_string(),
            syn_cell,
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "variable",
                "direct M_e",
                "semantic-CPS C_e",
                "syntactic-CPS M_s"
            ],
            &rows
        )
    );
    let cross = compare_via_delta(&p, &c, &d.store, &syn.store);
    println!("δe comparison (Theorem 5.1 statement): {}", overall(&cross));
    println!("paper expectation: direct proves a1 = 1; CPS analysis yields ⊤ (false return).");
}

/// E2: Theorem 5.2 — both worked examples.
fn e2_theorem_5_2() {
    section(
        "E2",
        "Theorem 5.2: syntactic-CPS strictly beats direct (duplication)",
    );
    for (case, src, expect) in [
        (
            "case 1 (branch correlation)",
            paper::THEOREM_5_2_CASE_1,
            3i64,
        ),
        (
            "case 2 (callee correlation)",
            paper::THEOREM_5_2_CASE_2,
            5i64,
        ),
    ] {
        println!("-- {case}: {src}\n");
        let p = AnfProgram::parse(src).unwrap();
        let c = CpsProgram::from_anf(&p);
        let d = DirectAnalyzer::<Flat>::new(&p).analyze().unwrap();
        let syn = SynCpsAnalyzer::<Flat>::new(&c).analyze().unwrap();
        let a2 = p.var_named("a2").unwrap();
        let a2c = c.var_named("a2").unwrap();
        let rows = vec![
            vec!["direct M_e".into(), d.store.get(a2).to_string()],
            vec!["syntactic-CPS M_s".into(), syn.store.get(a2c).to_string()],
        ];
        println!("{}", render_table(&["analyzer", "σ(a2)"], &rows));
        println!(
            "δe comparison: {} (paper expects CPS strictly better, a2 = {expect})\n",
            overall(&compare_via_delta(&p, &c, &d.store, &syn.store))
        );
    }
}

/// E3: Theorem 5.4 over a corpus, both clauses.
fn e3_theorem_5_4() {
    section(
        "E3",
        "Theorem 5.4: C_e refines M_e; equal iff the analysis is distributive",
    );
    let n = 300;
    let mut flat = Census::default();
    let mut any = Census::default();
    let progs = corpus(0xE3, n, &open_config());
    let orders = par_map(&progs, |t| {
        let p = AnfProgram::from_term(t);
        let df = DirectAnalyzer::<Flat>::new(&p).analyze().unwrap();
        let cf = SemCpsAnalyzer::<Flat>::new(&p).analyze().unwrap();
        let da = DirectAnalyzer::<AnyNum>::new(&p).analyze().unwrap();
        let ca = SemCpsAnalyzer::<AnyNum>::new(&p).analyze().unwrap();
        (
            compare_stores(&cf.store, &df.store),
            compare_stores(&ca.store, &da.store),
        )
    });
    for (flat_ord, any_ord) in orders {
        flat.record(flat_ord);
        any.record(any_ord);
    }
    let rows = vec![
        vec![
            "Flat (non-distributive)".into(),
            distrib::is_distributive::<Flat>().to_string(),
            flat.equal.to_string(),
            flat.left.to_string(),
            flat.right.to_string(),
            flat.incomparable.to_string(),
        ],
        vec![
            "AnyNum (distributive)".into(),
            distrib::is_distributive::<AnyNum>().to_string(),
            any.equal.to_string(),
            any.left.to_string(),
            any.right.to_string(),
            any.incomparable.to_string(),
        ],
    ];
    println!(
        "{}",
        render_table(
            &[
                "domain",
                "Def 5.3 holds",
                "equal",
                "C_e strictly better",
                "M_e better (!)",
                "incomparable (!)"
            ],
            &rows
        )
    );
    println!("paper expectation: 'M_e better' and 'incomparable' columns are 0 in both rows;");
    println!("the strict column is 0 exactly in the distributive row. (n = {n} programs)");
}

/// E4: Theorem 5.5 over a corpus.
fn e4_theorem_5_5() {
    section(
        "E4",
        "Theorem 5.5: δe(C_e) refines M_s (semantic- vs syntactic-CPS)",
    );
    let n = 300;
    let mut census = Census::default();
    let progs = corpus(0xE4, n, &open_config());
    for order in par_map(&progs, |t| {
        let p = AnfProgram::from_term(t);
        let c = CpsProgram::from_anf(&p);
        let sem = SemCpsAnalyzer::<Flat>::new(&p).analyze().unwrap();
        let syn = SynCpsAnalyzer::<Flat>::new(&c).analyze().unwrap();
        overall(&compare_via_delta(&p, &c, &sem.store, &syn.store))
    }) {
        census.record(order);
    }
    // Random programs rarely call one procedure twice, so add the family
    // that drives false returns (strict instances of the theorem).
    let mut strict_family = Census::default();
    for m in 2..=8 {
        let p = AnfProgram::from_term(&families::repeated_calls(m));
        let c = CpsProgram::from_anf(&p);
        let sem = SemCpsAnalyzer::<Flat>::new(&p).analyze().unwrap();
        let syn = SynCpsAnalyzer::<Flat>::new(&c).analyze().unwrap();
        strict_family.record(overall(&compare_via_delta(&p, &c, &sem.store, &syn.store)));
    }
    let rows = vec![
        vec![
            format!("random corpus (n={n})"),
            census.equal.to_string(),
            census.left.to_string(),
            census.right.to_string(),
            census.incomparable.to_string(),
        ],
        vec![
            "repeated_calls(2..8)".into(),
            strict_family.equal.to_string(),
            strict_family.left.to_string(),
            strict_family.right.to_string(),
            strict_family.incomparable.to_string(),
        ],
    ];
    println!(
        "{}",
        render_table(
            &[
                "corpus",
                "equal",
                "C_e strictly better",
                "M_s better (!)",
                "incomparable (!)"
            ],
            &rows
        )
    );
    println!("paper expectation: the last two columns are 0 everywhere; strictness appears");
    println!("exactly where returns are confused (several continuations at one k).");
}

/// E5: §6.1 false-return census on repeated calls and dispatch.
fn e5_false_returns() {
    section(
        "E5",
        "§6.1 false returns: merged continuation edges, CPS analysis only",
    );
    let mut rows = Vec::new();
    for m in 1..=8 {
        let p = AnfProgram::from_term(&families::repeated_calls(m));
        let c = CpsProgram::from_anf(&p);
        let syn = SynCpsAnalyzer::<Flat>::new(&c).analyze().unwrap();
        let d = DirectAnalyzer::<Flat>::new(&p).analyze().unwrap();
        let a1 = p.var_named("a1").unwrap();
        rows.push(vec![
            m.to_string(),
            "0".into(),
            syn.flows.false_return_edges().to_string(),
            d.store.get(a1).num.to_string(),
            c.var_named("a1")
                .map(|v| syn.store.get(v).num.to_string())
                .unwrap_or_default(),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "calls m",
                "direct false returns",
                "CPS false returns",
                "direct σ(a1)",
                "CPS σ(a1)"
            ],
            &rows
        )
    );
    println!("paper expectation: the direct analysis never confuses returns; the CPS");
    println!("analysis loses a1 as soon as a second continuation reaches the shared k (m ≥ 2).");
}

/// E6: §6.2 cost on cond_chain.
fn e6_cond_chain_cost() {
    section(
        "E6",
        "§6.2 duplication cost: goals on cond_chain(n) (2^n paths)",
    );
    let budget = AnalysisBudget::new(3_000_000);
    let mut rows = Vec::new();
    for n in 1..=14 {
        let p = AnfProgram::from_term(&families::cond_chain(n));
        let mut row = vec![n.to_string()];
        for a in [Analyzer::Direct, Analyzer::SemCps, Analyzer::SynCps] {
            row.push(match run_goals::<Flat>(a, &p, budget) {
                Ok(g) => g.to_string(),
                Err(_) => "budget!".into(),
            });
        }
        rows.push(row);
    }
    println!(
        "{}",
        render_table(&["n", "direct", "semantic-cps", "syntactic-cps"], &rows)
    );
    println!("paper expectation: direct linear (3n+2 here); CPS-style ~2x per conditional.");
}

/// E7: §6.2 cost at call sites: dispatch(k) × repeated conditionals.
fn e7_dispatch_cost() {
    section(
        "E7",
        "§6.2 duplication cost at call sites: dispatch(k) goals",
    );
    let budget = AnalysisBudget::new(3_000_000);
    let mut rows = Vec::new();
    for k in 1..=8 {
        let p = AnfProgram::from_term(&families::dispatch(k));
        let mut row = vec![k.to_string()];
        for a in [Analyzer::Direct, Analyzer::SemCps, Analyzer::SynCps] {
            row.push(match run_goals::<Flat>(a, &p, budget) {
                Ok(g) => g.to_string(),
                Err(_) => "budget!".into(),
            });
        }
        rows.push(row);
    }
    println!(
        "{}",
        render_table(
            &["closures k", "direct", "semantic-cps", "syntactic-cps"],
            &rows
        )
    );
    println!("paper expectation: at a call site the continuation is analyzed once per");
    println!("abstract closure — CPS-style cost grows with k while direct joins first.");
}

/// E8: §6.2 non-computability with the loop construct.
fn e8_loop_noncomputability() {
    section(
        "E8",
        "§6.2 loop: the semantic-CPS analysis is not computable",
    );
    let p = AnfProgram::from_term(&families::loop_then_branch(1));
    println!("program: {}\n", p.root());
    let mut rows = Vec::new();
    for budget in [1_000u64, 10_000, 100_000, 1_000_000] {
        let sem = SemCpsAnalyzer::<Flat>::new(&p)
            .with_budget(AnalysisBudget::new(budget))
            .analyze();
        let syn = {
            let c = CpsProgram::from_anf(&p);
            SynCpsAnalyzer::<Flat>::new(&c)
                .with_budget(AnalysisBudget::new(budget))
                .analyze()
                .map(|r| r.stats.goals)
        };
        rows.push(vec![
            budget.to_string(),
            match sem {
                Ok(_) => "converged (unexpected!)".into(),
                Err(_) => "budget exhausted".into(),
            },
            match syn {
                Ok(_) => "converged (unexpected!)".into(),
                Err(_) => "budget exhausted".into(),
            },
        ]);
    }
    println!(
        "{}",
        render_table(&["budget (goals)", "semantic-cps", "syntactic-cps"], &rows)
    );
    let d = DirectAnalyzer::<Flat>::new(&p).analyze().unwrap();
    let w = SemCpsAnalyzer::<Flat>::new(&p)
        .with_loop_widening(true)
        .analyze()
        .unwrap();
    println!(
        "direct M_e terminates in {} goals (loop ↦ ⊤, §6.2's extension rule);",
        d.stats.goals
    );
    println!(
        "the widened repair (not the paper's analyzer) terminates in {} goals, result {} vs direct.",
        w.stats.goals,
        compare_stores(&w.store, &d.store)
    );
}

/// E9: §6.2 Nielson / Kam–Ullman: MFP vs MOP vs the analyzers.
fn e9_mop_vs_mfp() {
    section("E9", "§6.2 MFP vs MOP: M_e ~ MFP, C_e ~ feasible-path MOP");
    // Part 1: the analyzers against the substrate on diamond chains.
    let mut rows = Vec::new();
    for n in 1..=4 {
        let p = AnfProgram::from_term(&families::diamond_chain(n));
        let cfg = Cfg::from_first_order(&p).unwrap();
        let init = cfg.initial_env::<Flat>(&p);
        let mfp = cfg.solve_mfp::<Flat>(init.clone()).unwrap();
        let (mop, paths) = cfg
            .solve_mop::<Flat>(init, 100_000, PathMode::AllPaths)
            .unwrap();
        let d = DirectAnalyzer::<Flat>::new(&p).analyze().unwrap();
        let bound_vars: Vec<_> = p
            .iter_vars()
            .filter(|(v, _)| !p.free_vars().contains(v))
            .collect();
        let direct_eq_mfp = bound_vars
            .iter()
            .all(|(v, _)| d.store.get(*v).num == *mfp.get(*v));
        let mop_eq_mfp = mop.leq(&mfp) && mfp.leq(&mop);
        rows.push(vec![
            n.to_string(),
            paths.to_string(),
            direct_eq_mfp.to_string(),
            mop_eq_mfp.to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "diamonds n",
                "graph paths",
                "M_e = MFP",
                "MOP(all) = MFP (unary ⇒ distributive)"
            ],
            &rows
        )
    );

    // Part 2: feasible-path MOP matches C_e on the paper's diamond.
    let p = AnfProgram::parse(paper::THEOREM_5_2_CASE_1).unwrap();
    let cfg = Cfg::from_first_order(&p).unwrap();
    let init = cfg.initial_env::<Flat>(&p);
    let (mop_f, paths_f) = cfg
        .solve_mop::<Flat>(init.clone(), 100_000, PathMode::FeasiblePaths)
        .unwrap();
    let (mop_a, paths_a) = cfg
        .solve_mop::<Flat>(init, 100_000, PathMode::AllPaths)
        .unwrap();
    let sem = SemCpsAnalyzer::<Flat>::new(&p).analyze().unwrap();
    let a2 = p.var_named("a2").unwrap();
    let rows = vec![vec![
        format!("{paths_a} / {paths_f}"),
        mop_a.get(a2).to_string(),
        mop_f.get(a2).to_string(),
        sem.store.get(a2).num.to_string(),
    ]];
    println!(
        "{}",
        render_table(
            &[
                "paths all/feasible",
                "MOP(all) σ(a2)",
                "MOP(feasible) σ(a2)",
                "C_e σ(a2)"
            ],
            &rows
        )
    );

    // Part 3: the classical Kam–Ullman separation (needs a binary transfer).
    use cpsdfa_anf::VarId;
    let (a, b, c, z) = (VarId(0), VarId(1), VarId(2), VarId(3));
    let nodes = vec![
        Node {
            stmt: Stmt::Havoc(z),
            succs: vec![NodeId(1)],
            cond: None,
        },
        Node {
            stmt: Stmt::Nop,
            succs: vec![NodeId(2), NodeId(4)],
            cond: Some(Cond::Var(z)),
        },
        Node {
            stmt: Stmt::Const(a, 1),
            succs: vec![NodeId(3)],
            cond: None,
        },
        Node {
            stmt: Stmt::Const(b, 2),
            succs: vec![NodeId(6)],
            cond: None,
        },
        Node {
            stmt: Stmt::Const(a, 2),
            succs: vec![NodeId(5)],
            cond: None,
        },
        Node {
            stmt: Stmt::Const(b, 1),
            succs: vec![NodeId(6)],
            cond: None,
        },
        Node {
            stmt: Stmt::Sum(c, a, b),
            succs: vec![NodeId(7)],
            cond: None,
        },
        Node {
            stmt: Stmt::Nop,
            succs: vec![],
            cond: None,
        },
    ];
    let g = Cfg::from_parts(nodes, NodeId(0), NodeId(7), 4).unwrap();
    let mfp = g.solve_mfp::<Flat>(g.bottom_env()).unwrap();
    let (mop, _) = g
        .solve_mop::<Flat>(g.bottom_env(), 100, PathMode::AllPaths)
        .unwrap();
    let rows = vec![vec![
        "c := a + b (hand-built)".into(),
        mfp.get(c).to_string(),
        mop.get(c).to_string(),
    ]];
    println!(
        "{}",
        render_table(&["Kam–Ullman classic", "MFP", "MOP"], &rows)
    );
    println!("paper expectation: MOP proves c = 3 where MFP reports ⊤ — and MOP is not");
    println!("computable in general, which is why the loop rule of E8 cannot be fixed.");
}

/// E10: §6.3 — bounded duplication as the practical alternative.
fn e10_bounded_duplication() {
    section(
        "E10",
        "§6.3 ablation: direct analysis + bounded duplication",
    );
    // Precision on the paper's examples, cost on cond_chain(12).
    let chain = AnfProgram::from_term(&families::cond_chain(12));
    let mut rows = Vec::new();
    for analyzer in [
        Analyzer::Direct,
        Analyzer::DirectDup(1),
        Analyzer::DirectDup(2),
        Analyzer::DirectDup(4),
        Analyzer::SemCps,
    ] {
        let goals = run_goals::<Flat>(analyzer, &chain, AnalysisBudget::new(3_000_000))
            .map(|g| g.to_string())
            .unwrap_or_else(|_| "budget!".into());
        let case1 = AnfProgram::parse(paper::THEOREM_5_2_CASE_1).unwrap();
        let case2 = AnfProgram::parse(paper::THEOREM_5_2_CASE_2).unwrap();
        let a2_of = |p: &AnfProgram| -> String {
            let v = p.var_named("a2").unwrap();
            match analyzer {
                Analyzer::SemCps => SemCpsAnalyzer::<Flat>::new(p)
                    .analyze()
                    .unwrap()
                    .store
                    .get(v)
                    .num
                    .to_string(),
                Analyzer::Direct => DirectAnalyzer::<Flat>::new(p)
                    .analyze()
                    .unwrap()
                    .store
                    .get(v)
                    .num
                    .to_string(),
                Analyzer::DirectDup(d) => DirectAnalyzer::<Flat>::new(p)
                    .with_duplication_depth(d)
                    .analyze()
                    .unwrap()
                    .store
                    .get(v)
                    .num
                    .to_string(),
                Analyzer::SynCps => unreachable!(),
            }
        };
        rows.push(vec![analyzer.label(), a2_of(&case1), a2_of(&case2), goals]);
    }
    println!(
        "{}",
        render_table(
            &[
                "analyzer",
                "Thm5.2c1 σ(a2)",
                "Thm5.2c2 σ(a2)",
                "goals on cond_chain(12)"
            ],
            &rows
        )
    );
    println!("paper conclusion (§6.3): 'a direct data flow analysis that relies on some");
    println!("amount of duplication would be as satisfactory as a CPS analysis' — depth 1");
    println!("already recovers both Theorem 5.2 gains at a fraction of the full CPS cost.");

    // Sensitivity: PowerSet tightens everything but the ordering persists.
    let p = AnfProgram::parse(paper::THEOREM_5_2_CASE_1).unwrap();
    let a2 = p.var_named("a2").unwrap();
    let d = DirectAnalyzer::<PowerSet<8>>::new(&p).analyze().unwrap();
    let s = SemCpsAnalyzer::<PowerSet<8>>::new(&p).analyze().unwrap();
    println!(
        "\nPowerSet<8> sensitivity: direct σ(a2) = {} vs semantic-CPS σ(a2) = {}",
        d.store.get(a2).num,
        s.store.get(a2).num
    );
}

/// E11: extension — the paper's comparisons across richer numeric domains.
fn e11_domain_sensitivity() {
    section(
        "E11",
        "extension: domain sensitivity — the analyzer orderings are domain-independent",
    );

    fn row<D: NumDomain>(name: &str) -> Vec<String> {
        let p = AnfProgram::parse(paper::THEOREM_5_2_CASE_1).unwrap();
        let a2 = p.var_named("a2").unwrap();
        let d = DirectAnalyzer::<D>::new(&p).analyze().unwrap();
        let s = SemCpsAnalyzer::<D>::new(&p).analyze().unwrap();
        let strict = s.store.leq(&d.store) && !d.store.leq(&s.store);
        // corpus census of C_e ⊑ M_e strictness
        let n = 120;
        let progs = corpus(0xE11, n, &open_config());
        let strict_count = par_map(&progs, |t| {
            let prog = AnfProgram::from_term(t);
            let dd = DirectAnalyzer::<D>::new(&prog).analyze().unwrap();
            let cc = SemCpsAnalyzer::<D>::new(&prog).analyze().unwrap();
            assert!(
                cc.store.leq(&dd.store),
                "Theorem 5.4 ordering violated for {name}"
            );
            !dd.store.leq(&cc.store)
        })
        .into_iter()
        .filter(|&strict| strict)
        .count();
        vec![
            name.to_owned(),
            distrib::is_distributive::<D>().to_string(),
            d.store.get(a2).num.to_string(),
            s.store.get(a2).num.to_string(),
            strict.to_string(),
            format!("{strict_count}/{n}"),
        ]
    }

    let rows = vec![
        row::<Flat>("Flat"),
        row::<PowerSet<8>>("PowerSet<8>"),
        row::<Sign>("Sign"),
        row::<Parity>("Parity"),
        row::<Interval<64>>("Interval<64>"),
        row::<AnyNum>("AnyNum"),
    ];
    println!(
        "{}",
        render_table(
            &[
                "domain",
                "Def 5.3",
                "M_e σ(a2) [Thm5.2c1]",
                "C_e σ(a2)",
                "strict gain",
                "corpus strict",
            ],
            &rows
        )
    );
    println!("expected shape: Theorem 5.4's ordering holds for every domain (asserted while");
    println!("building the table); the gain is strict exactly for the non-distributive rows.");
}

/// E12: extension — constraint-based 0CFA (Shivers) against the derived
/// analyzers.
fn e12_zero_cfa() {
    section(
        "E12",
        "extension: constraint-based 0CFA agrees with the derived analyzers",
    );
    // Part 1: false-return parity with Figure 6 on the §6.1 family.
    let mut rows = Vec::new();
    for m in 1..=6 {
        let p = AnfProgram::from_term(&families::repeated_calls(m));
        let c = CpsProgram::from_anf(&p);
        let cfa = zero_cfa_cps(&c).unwrap();
        let syn = SynCpsAnalyzer::<AnyNum>::new(&c).analyze().unwrap();
        rows.push(vec![
            m.to_string(),
            cfa.false_return_edges().to_string(),
            syn.flows.false_return_edges().to_string(),
            cfa.iterations.to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "calls m",
                "0CFA false returns",
                "M_s false returns",
                "0CFA iterations"
            ],
            &rows
        )
    );

    // Part 2: source-level 0CFA vs M_e closure sets on a corpus.
    let n = 200;
    let progs = corpus(0xE12, n, &open_config());
    let agree = par_map(&progs, |t| {
        let p = AnfProgram::from_term(t);
        let cfa = zero_cfa(&p).unwrap();
        let d = DirectAnalyzer::<AnyNum>::new(&p).analyze().unwrap();
        let mut same = true;
        for (v, _) in p.iter_vars() {
            same &= cfa.get(v) == &d.store.get(v).clos;
        }
        same
    })
    .into_iter()
    .filter(|&same| same)
    .count();
    println!("source-level 0CFA = M_e closure sets on {agree}/{n} random programs.");

    // Part 3: the documented divergence — least fixpoints beat §4.4 cuts.
    let p = AnfProgram::parse(paper::OMEGA).unwrap();
    let cfa = zero_cfa(&p).unwrap();
    let d = DirectAnalyzer::<AnyNum>::new(&p).analyze().unwrap();
    let r = p.var_named("r").unwrap();
    println!(
        "on Ω: 0CFA σ(r) has {} closures; M_e's §4.4 cut reports CL⊤ with {} — the
         fixpoint formulation is strictly finer on recursion (see core::cfa docs).",
        cfa.get(r).len(),
        d.store.get(r).clos.len()
    );
}

/// E13: extension — bounded-exhaustive verification of the orderings.
fn e13_small_scope() {
    use cpsdfa_workloads::exhaustive::enumerate_terms;
    section(
        "E13",
        "extension: small-scope verification — the orderings on EVERY tiny program",
    );
    let size = 7;
    let all = enumerate_terms(size);
    let strictness = par_map(&all, |t| {
        let p = AnfProgram::from_term(t);
        let c = CpsProgram::from_anf(&p);
        let d = DirectAnalyzer::<Flat>::new(&p).analyze().unwrap();
        let sem = SemCpsAnalyzer::<Flat>::new(&p).analyze().unwrap();
        let syn = SynCpsAnalyzer::<Flat>::new(&c).analyze().unwrap();
        assert!(
            sem.store.leq(&d.store),
            "Theorem 5.4 ordering violated on {t}"
        );
        let rows = compare_via_delta(&p, &c, &sem.store, &syn.store);
        let mut any_strict = false;
        for r in &rows {
            assert!(
                !matches!(
                    r.order,
                    cpsdfa_core::PrecisionOrder::RightMorePrecise
                        | cpsdfa_core::PrecisionOrder::Incomparable
                ),
                "Theorem 5.5 violated at {} on {t}",
                r.name
            );
            any_strict |= r.order == cpsdfa_core::PrecisionOrder::LeftMorePrecise;
        }
        (!d.store.leq(&sem.store), any_strict)
    });
    let checked = strictness.len();
    let strict_54 = strictness.iter().filter(|s| s.0).count();
    let strict_55 = strictness.iter().filter(|s| s.1).count();
    let rows = vec![
        vec![
            "programs checked (size ≤ 7, exhaustive)".into(),
            checked.to_string(),
        ],
        vec!["Theorem 5.4 violations".into(), "0".into()],
        vec!["Theorem 5.5 violations".into(), "0".into()],
        vec![
            "strict C_e-over-M_e instances".into(),
            strict_54.to_string(),
        ],
        vec![
            "strict C_e-over-M_s instances".into(),
            strict_55.to_string(),
        ],
    ];
    println!("{}", render_table(&["small-scope census", "count"], &rows));
    println!("every well-scoped program with ≤ {size} nodes over the small vocabulary");
    println!("satisfies the orderings of Theorems 5.4 and 5.5 — a bounded-exhaustive check.");
    println!("(strict-gain instances need the Theorem 5.2 correlated-diamond shape, whose");
    println!("smallest member has 9 nodes — outside this scope; E3/E11 cover strictness.)");
}

/// E14: extension — continuation polyvariance repairs §6.1's false returns.
fn e14_context_sensitivity() {
    use cpsdfa_core::kcfa::cont_sensitive_cfa;
    section(
        "E14",
        "extension: call-site-indexed continuations eliminate false returns",
    );
    let mut rows = Vec::new();
    for m in 1..=8 {
        let p = AnfProgram::from_term(&families::repeated_calls(m));
        let c = CpsProgram::from_anf(&p);
        let mono = zero_cfa_cps(&c).unwrap();
        let poly = cont_sensitive_cfa(&c);
        rows.push(vec![
            m.to_string(),
            mono.false_return_edges().to_string(),
            poly.false_return_edges().to_string(),
            poly.states.to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "calls m",
                "0CFA false returns",
                "cont-polyvariant false returns",
                "states"
            ],
            &rows
        )
    );
    println!("the paper's closing suggestion — 'combine heuristic in-lining with a");
    println!("direct-style analysis' — corresponds on the CPS side to indexing each");
    println!("procedure's continuation variable by its call site: every false return of");
    println!("the monovariant analysis disappears, at polynomial (not exponential) cost.");
}

/// E15: extension — what each analyzer's precision buys an optimizer.
fn e15_optimizer() {
    use cpsdfa_opt::{optimize, FactSource};
    section(
        "E15",
        "extension: optimizations enabled by each analyzer's facts",
    );
    // Paper examples first: the theorems as optimizer behavior.
    let mut rows = Vec::new();
    for (name, src) in [
        ("Thm 5.2 case 1", paper::THEOREM_5_2_CASE_1),
        ("Thm 5.2 case 2", paper::THEOREM_5_2_CASE_2),
        ("Π1 (Thm 5.1)", paper::THEOREM_5_1),
    ] {
        let p = AnfProgram::parse(src).unwrap();
        let mut row = vec![name.to_owned(), p.root().size().to_string()];
        for source in [
            FactSource::Direct,
            FactSource::DirectDup(1),
            FactSource::SemCps,
        ] {
            let (q, stats) = optimize(&p, source).unwrap();
            row.push(format!(
                "{} ({} rw)",
                q.root().size(),
                stats.total_rewrites()
            ));
        }
        rows.push(row);
    }
    println!(
        "{}",
        render_table(
            &[
                "program",
                "size",
                "direct: residue",
                "direct+dup1",
                "semantic-cps"
            ],
            &rows
        )
    );

    // Corpus aggregate: average residual size per fact source.
    let n = 200;
    let mut sums = [0usize; 3];
    let mut rewrites = [0usize; 3];
    let mut original = 0usize;
    let progs = corpus(0xE15, n, &open_config());
    let per_prog = par_map(&progs, |t| {
        let p = AnfProgram::from_term(t);
        let mut residues = [(0usize, 0usize); 3];
        for (i, source) in [
            FactSource::Direct,
            FactSource::DirectDup(1),
            FactSource::SemCps,
        ]
        .into_iter()
        .enumerate()
        {
            let (q, stats) = optimize(&p, source).unwrap();
            residues[i] = (q.root().size(), stats.total_rewrites());
        }
        (p.root().size(), residues)
    });
    for (size, residues) in per_prog {
        original += size;
        for (i, (residue, rw)) in residues.into_iter().enumerate() {
            sums[i] += residue;
            rewrites[i] += rw;
        }
    }
    let rows = vec![vec![
        format!("{:.1}", original as f64 / n as f64),
        format!("{:.1} ({} rw)", sums[0] as f64 / n as f64, rewrites[0]),
        format!("{:.1} ({} rw)", sums[1] as f64 / n as f64, rewrites[1]),
        format!("{:.1} ({} rw)", sums[2] as f64 / n as f64, rewrites[2]),
    ]];
    println!(
        "{}",
        render_table(
            &[
                "avg original size",
                "direct residue",
                "direct+dup1 residue",
                "semantic-cps residue",
            ],
            &rows
        )
    );
    println!("expected shape: residual size shrinks monotonically with fact precision;");
    println!("§6.3's bounded duplication captures most of the semantic-CPS gain. (n = {n})");
}

/// A named program family on its size ladder.
type Family = (&'static str, fn(usize) -> cpsdfa_syntax::Term);

/// Interleaved paired medians, in milliseconds, plus the last result of
/// each closure (all runs compute the same fixpoint). The two sides
/// alternate inside one sampling loop so slow machine-state drift
/// (frequency scaling, cache temperature) lands on both columns equally
/// instead of on whichever side happened to be timed second — at the
/// tens-of-µs scale that drift otherwise dominates the ratio. Runs at
/// least `min_reps` pairs and keeps sampling until the *cheaper* side
/// has accumulated ~2 ms of measured time (capped at 301 pairs): a
/// 5-rep median of a 30 µs workload is scheduler jitter, not a
/// measurement.
fn paired_median_ms<A, B>(
    min_reps: usize,
    mut run_a: impl FnMut() -> A,
    mut run_b: impl FnMut() -> B,
) -> ((f64, A), (f64, B)) {
    const TARGET_MS: f64 = 2.0;
    const MAX_REPS: usize = 301;
    let mut samples_a = Vec::with_capacity(min_reps);
    let mut samples_b = Vec::with_capacity(min_reps);
    let (mut last_a, mut last_b) = (None, None);
    let (mut total_a, mut total_b) = (0.0f64, 0.0f64);
    while samples_a.len() < min_reps
        || (total_a.min(total_b) < TARGET_MS && samples_a.len() < MAX_REPS)
    {
        let t0 = std::time::Instant::now();
        last_a = Some(run_a());
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        total_a += ms;
        samples_a.push(ms);

        let t0 = std::time::Instant::now();
        last_b = Some(run_b());
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        total_b += ms;
        samples_b.push(ms);
    }
    samples_a.sort_by(f64::total_cmp);
    samples_b.sort_by(f64::total_cmp);
    (
        (
            samples_a[samples_a.len() / 2],
            last_a.expect("min_reps >= 1"),
        ),
        (
            samples_b[samples_b.len() / 2],
            last_b.expect("min_reps >= 1"),
        ),
    )
}

/// The E16 measurement grid: the cost-experiment families ladder for the
/// two 0CFA analyzers, and the first-order diamond chain for MFP. The grid
/// is shared by the live measurement path and [`e16_regen`], so a recorded
/// trace addresses exactly the cells a fresh run would produce.
const E16_LADDER: [Family; 3] = [
    ("cond-chain", families::cond_chain),
    ("dispatch", families::dispatch),
    ("polyvariant", families::repeated_calls),
];
const E16_SIZES: [usize; 3] = [32, 128, 320];
const E16_MFP_SIZES: [usize; 3] = [16, 64, 160];

/// One measured (or trace-reconstructed) E16 cell: a workload × analyzer
/// pair with its paired dense/sparse medians and the sparse run's counters.
struct E16Cell {
    family: &'static str,
    n: usize,
    program_size: usize,
    /// JSON key: `0cfa`, `0cfa-cps`, or `mfp`.
    analyzer: &'static str,
    /// Table label: `0CFA`, `0CFA-CPS`, or `MFP`.
    label: &'static str,
    dense_ms: f64,
    sparse_ms: f64,
    dense_iters: u64,
    stats: SolverStats,
}

impl E16Cell {
    /// The trace-event prefix all of this cell's events share.
    fn prefix(&self) -> String {
        format!("e16.{}.{}.{}", self.analyzer, self.family, self.n)
    }

    /// Whether this cell is its analyzer's largest workload (the rows the
    /// harness calls out beneath the table).
    fn is_largest(&self) -> bool {
        if self.analyzer == "mfp" {
            self.n == *E16_MFP_SIZES.last().unwrap()
        } else {
            self.n == *E16_SIZES.last().unwrap()
        }
    }

    /// Emits the cell into a trace sink: wall times as timers, dense
    /// iterations as a counter, program size as a gauge, and the sparse
    /// solver counters under `<prefix>.sparse`. [`from_agg`](E16Cell::from_agg)
    /// inverts this, which is what makes the E16 table reproducible from a
    /// JSONL artifact alone.
    fn emit_into(&self, sink: &mut impl TraceSink) {
        if !sink.enabled() {
            return;
        }
        let p = self.prefix();
        sink.gauge(&format!("{p}.program_size"), self.program_size as u64);
        sink.time_ns(&format!("{p}.dense_ns"), (self.dense_ms * 1e6) as u64);
        sink.time_ns(&format!("{p}.sparse_ns"), (self.sparse_ms * 1e6) as u64);
        sink.counter(&format!("{p}.dense_iters"), self.dense_iters);
        self.stats.emit_into(sink, &format!("{p}.sparse"));
    }

    /// Reconstructs the cell from an aggregated trace; `None` if the trace
    /// has no measurement for it (e.g. a partial or foreign file).
    fn from_agg(
        agg: &AggSink,
        family: &'static str,
        n: usize,
        analyzer: &'static str,
        label: &'static str,
    ) -> Option<Self> {
        let p = format!("e16.{analyzer}.{family}.{n}");
        let ms = |name: &str| {
            agg.timer_agg(&format!("{p}.{name}"))
                .filter(|t| t.count > 0)
                .map(|t| t.total_ns as f64 / t.count as f64 / 1e6)
        };
        Some(E16Cell {
            family,
            n,
            program_size: agg.gauge_value(&format!("{p}.program_size")) as usize,
            analyzer,
            label,
            dense_ms: ms("dense_ns")?,
            sparse_ms: ms("sparse_ns")?,
            dense_iters: agg.counter_value(&format!("{p}.dense_iters")),
            stats: SolverStats::from_agg(agg, &format!("{p}.sparse")),
        })
    }
}

/// Renders the E16 table, per-analyzer largest-workload speedups, and the
/// final CPS counter block from a set of cells, and writes the same rows to
/// `BENCH_solver.json`. Shared by the live measurement path and
/// [`e16_regen`], so both produce the identical report for identical cells.
fn e16_render(cells: &[E16Cell]) {
    use cpsdfa_core::report::render_solver_stats;

    let mut json: Vec<String> = Vec::new();
    let mut rows: Vec<Vec<String>> = Vec::new();
    for c in cells {
        json.push(format!(
            "  {{\"family\": \"{}\", \"n\": {}, \"program_size\": {}, \
             \"analyzer\": \"{}\", \"impl\": \"sparse-delta\", \"wall_ms\": {:.4}, \
             \"iterations\": {}, \"posts\": {}, \
             \"delta_elems\": {}, \"mean_delta\": {:.3}}}",
            c.family,
            c.n,
            c.program_size,
            c.analyzer,
            c.sparse_ms,
            c.stats.fired,
            c.stats.posted,
            c.stats.delta_elems,
            c.stats.mean_delta(),
        ));
        json.push(format!(
            "  {{\"family\": \"{}\", \"n\": {}, \"program_size\": {}, \
             \"analyzer\": \"{}\", \"impl\": \"dense\", \"wall_ms\": {:.4}, \
             \"iterations\": {}, \"posts\": 0, \
             \"delta_elems\": 0, \"mean_delta\": 0.000}}",
            c.family, c.n, c.program_size, c.analyzer, c.dense_ms, c.dense_iters,
        ));
        rows.push(vec![
            format!("{}({})", c.family, c.n),
            c.label.into(),
            format!("{:.2}", c.dense_ms),
            format!("{:.2}", c.sparse_ms),
            format!("{:.1}x", c.dense_ms / c.sparse_ms),
            format!("{} × {:.2}", c.stats.fired, c.stats.mean_delta()),
        ]);
    }

    println!(
        "{}",
        render_table(
            &[
                "workload",
                "analyzer",
                "dense ms",
                "sparse ms",
                "speedup",
                "firings × mean Δ",
            ],
            &rows
        )
    );
    for c in cells.iter().filter(|c| c.is_largest()) {
        println!(
            "largest workload: {} on {}({}) — {:.1}x over the dense sweep",
            c.label,
            c.family,
            c.n,
            c.dense_ms / c.sparse_ms
        );
    }
    if let Some(c) = cells
        .iter()
        .rfind(|c| c.analyzer == "0cfa-cps" && c.is_largest())
    {
        let label = format!("{} {}({})", c.label, c.family, c.n);
        println!("\nsparse-engine counters, {label}:");
        print!("{}", render_solver_stats(&label, &c.stats));
    }

    // The curve experiments' rows (E21, E22, and the retired E19's
    // recorded history) live in the same file; keep them across an E16
    // rewrite (the curve writers symmetrically keep these rows).
    let fresh = json.len();
    json.extend(bench_solver_rows(|line| line.contains("\"curve\"")));
    let payload = format!("[\n{}\n]\n", json.join(",\n"));
    match std::fs::write("BENCH_solver.json", &payload) {
        Ok(()) => println!("\nwrote {fresh} measurements to BENCH_solver.json"),
        Err(e) => println!("\ncould not write BENCH_solver.json: {e}"),
    }
}

/// The rows of `BENCH_solver.json` whose line passes `keep`, stripped of
/// array brackets and trailing commas — the merge primitive that lets E16
/// (non-curve rows) and each curve experiment rewrite only its own slice
/// of the shared file. Line-based on purpose: the file is written one row
/// per line by this harness, and a foreign/corrupt file degrades to
/// "keep nothing", which a fresh full run repairs.
fn bench_solver_rows(keep: impl Fn(&str) -> bool) -> Vec<String> {
    std::fs::read_to_string("BENCH_solver.json")
        .map(|text| {
            text.lines()
                .filter(|l| {
                    let t = l.trim();
                    !t.is_empty() && t != "[" && t != "]" && keep(t)
                })
                .map(|l| l.trim_end().trim_end_matches(',').to_owned())
                .collect()
        })
        .unwrap_or_default()
}

/// `--regen-e16 <path>`: rebuild the E16 (and, if recorded, E17) report
/// from a JSONL trace — no analyzers run; every number comes from the
/// artifact.
fn e16_regen(path: &str) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read trace file {path}: {e}"));
    let agg = AggSink::from_jsonl(&text);
    let mut cells = Vec::new();
    for (family, _) in E16_LADDER {
        for n in E16_SIZES {
            cells.extend(E16Cell::from_agg(&agg, family, n, "0cfa", "0CFA"));
            cells.extend(E16Cell::from_agg(&agg, family, n, "0cfa-cps", "0CFA-CPS"));
        }
    }
    for n in E16_MFP_SIZES {
        cells.extend(E16Cell::from_agg(&agg, "diamond", n, "mfp", "MFP"));
    }
    let mut pipeline_cells = Vec::new();
    for (family, _) in E16_LADDER {
        for n in E17_SIZES {
            pipeline_cells.extend(E17Cell::from_agg(&agg, family, n));
        }
    }
    assert!(
        !cells.is_empty() || !pipeline_cells.is_empty(),
        "{path} holds no e16.*/e17.* events; record one with \
         `experiments -- E16 E17 --trace {path}`"
    );
    if !cells.is_empty() {
        section(
            "E16",
            "tentpole: semi-naïve (delta) sparse fixpoints vs the dense sweeps they replaced",
        );
        println!("(regenerated from {path}; nothing re-measured)\n");
        e16_render(&cells);
    }
    if !pipeline_cells.is_empty() {
        section(
            "E17",
            "tentpole: interned front-end pipeline (parse → ANF → CPS) vs the boxed trees it replaced",
        );
        println!("(regenerated from {path}; nothing re-measured)\n");
        e17_render(&pipeline_cells);
    }
}

/// E16: tentpole — the sparse worklist engine against the dense sweeps it
/// replaced, on the cost-experiment families. Writes the measurements to
/// `BENCH_solver.json` and, when tracing, emits every cell into the sink so
/// `--regen-e16` can rebuild this table from the artifact alone.
fn e16_solver_cost(sink: &mut impl TraceSink) {
    use cpsdfa_core::cfa::{
        zero_cfa_cps_dense, zero_cfa_cps_instrumented, zero_cfa_dense, zero_cfa_instrumented,
    };

    section(
        "E16",
        "tentpole: semi-naïve (delta) sparse fixpoints vs the dense sweeps they replaced",
    );
    let reps = 5;
    let mut cells: Vec<E16Cell> = Vec::new();
    for (family, build) in E16_LADDER {
        for n in E16_SIZES {
            let prog = AnfProgram::from_term(&build(n));
            let cps = CpsProgram::from_anf(&prog);
            let psize = prog.root().size();

            let ((sparse_ms, (sres, sstats)), (dense_ms, dres)) = paired_median_ms(
                reps,
                || zero_cfa_instrumented(&prog).unwrap(),
                || zero_cfa_dense(&prog),
            );
            assert!(
                sres.same_solution(&dres),
                "sparse/dense 0CFA disagree on {family}({n})"
            );
            cells.push(E16Cell {
                family,
                n,
                program_size: psize,
                analyzer: "0cfa",
                label: "0CFA",
                dense_ms,
                sparse_ms,
                dense_iters: dres.iterations,
                stats: sstats,
            });

            let ((csparse_ms, (cres, cstats)), (cdense_ms, cdres)) = paired_median_ms(
                reps,
                || zero_cfa_cps_instrumented(&cps).unwrap(),
                || zero_cfa_cps_dense(&cps),
            );
            assert!(
                cres.same_solution(&cdres),
                "sparse/dense CPS 0CFA disagree on {family}({n})"
            );
            cells.push(E16Cell {
                family,
                n,
                program_size: psize,
                analyzer: "0cfa-cps",
                label: "0CFA-CPS",
                dense_ms: cdense_ms,
                sparse_ms: csparse_ms,
                dense_iters: cdres.iterations,
                stats: cstats,
            });
        }
    }

    // MFP needs the first-order fragment: diamond chains, where the dense
    // LIFO worklist cascades over the suffix and each phase of the
    // RPO-ranked sparse solver fires each of its constraints once.
    for n in E16_MFP_SIZES {
        let prog = AnfProgram::from_term(&families::diamond_chain(n));
        let cfg = Cfg::from_first_order(&prog).unwrap();
        let init = cfg.initial_env::<Flat>(&prog);
        let psize = prog.root().size();
        let ((sparse_ms, (ssum, sstats)), (dense_ms, dsum)) = paired_median_ms(
            reps,
            || cfg.solve_mfp_instrumented::<Flat>(init.clone()).unwrap(),
            || cfg.solve_mfp_dense::<Flat>(init.clone()),
        );
        assert!(ssum == dsum, "sparse/dense MFP disagree on diamond({n})");
        cells.push(E16Cell {
            family: "diamond",
            n,
            program_size: psize,
            analyzer: "mfp",
            label: "MFP",
            dense_ms,
            sparse_ms,
            // The dense MFP sweep reports no iteration counter.
            dense_iters: 0,
            stats: sstats,
        });
    }

    for c in &cells {
        c.emit_into(sink);
    }
    e16_render(&cells);
}

/// The E21 census grid: the three families where the monovariant CPS
/// 0CFA merges continuations at a shared `k` — the dispatcher, the new
/// polyvariant funnel, and the paper's repeated-calls family — swept over
/// the sizes where E5 records the §6.1 losses.
const E21_CENSUS_NS: [usize; 7] = [2, 3, 4, 5, 6, 7, 8];
const E21_FAMILIES: [Family; 3] = [
    ("dispatch", families::dispatch),
    ("polyvariant", families::polyvariant),
    ("repeated_calls", families::repeated_calls),
];
/// The cost pair is measured at E16's largest workload size.
const E21_N: usize = 320;
const E21_TEST_N: usize = 32;

/// Appends E21 curve rows to `BENCH_solver.json`: rows of every other
/// producer (E16's plain rows, the other curves) are kept, stale e21 rows
/// are dropped, fresh ones appended.
fn e21_append_rows(rows: &[String]) {
    let mut all = bench_solver_rows(|line| !line.contains("\"curve\": \"e21\""));
    all.extend(rows.iter().cloned());
    let payload = format!("[\n{}\n]\n", all.join(",\n"));
    match std::fs::write("BENCH_solver.json", &payload) {
        Ok(()) => println!(
            "\nappended {} pushdown rows to BENCH_solver.json",
            rows.len()
        ),
        Err(e) => println!("\ncould not write BENCH_solver.json: {e}"),
    }
}

/// E21: the §6.1 false-return census re-run under the pushdown rung. The
/// summary-based solver matches every return edge to a recorded call, so
/// the spurious-edge count must be *zero* on every family where the
/// monovariant CPS 0CFA merges returns — asserted, not just printed —
/// while per-variable flow sets stay contained in the 0CFA's (also
/// asserted). The cost half pairs the pushdown solve against the CPS
/// 0CFA at E16's largest workload size and writes `"curve": "e21"` rows into
/// `BENCH_solver.json`.
fn e21_pushdown_census(sink: &mut impl TraceSink, test_mode: bool) {
    use cpsdfa_core::cfa::zero_cfa_cps_instrumented;
    use cpsdfa_core::pushdown::pushdown_cfa_instrumented;

    section(
        "E21",
        "pushdown call/return matching: zero §6.1 false returns, at what cost",
    );

    // --- census: spurious return edges and flow facts, rung vs rung ---
    let mut rows: Vec<Vec<String>> = Vec::new();
    for (family, build) in E21_FAMILIES {
        for n in E21_CENSUS_NS {
            let prog = AnfProgram::from_term(&build(n));
            let cps = CpsProgram::from_anf(&prog);
            let (mono, _) = zero_cfa_cps_instrumented(&cps).unwrap();
            let (pd, _) = pushdown_cfa_instrumented(&cps).unwrap();
            if let Some(violation) = pd.refinement_violation(&mono) {
                panic!("pushdown does not refine 0CFA on {family}({n}): {violation}");
            }
            let merged = mono.false_return_edges();
            let spurious = pd.false_return_edges();
            assert_eq!(
                spurious, 0,
                "pushdown left spurious return edges on {family}({n})"
            );
            let mono_facts: usize = mono.vars.iter().map(|s| s.len()).sum();
            sink.gauge(
                &format!("e21.census.{family}.{n}.merged_0cfa"),
                merged as u64,
            );
            sink.gauge(
                &format!("e21.census.{family}.{n}.spurious_pd"),
                spurious as u64,
            );
            rows.push(vec![
                format!("{family}({n})"),
                merged.to_string(),
                spurious.to_string(),
                mono_facts.to_string(),
                pd.flow_facts().to_string(),
                pd.summaries.to_string(),
            ]);
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "workload",
                "0CFA merged returns",
                "pushdown spurious",
                "0CFA flow facts",
                "pushdown flow facts",
                "summaries",
            ],
            &rows
        )
    );
    println!("every row's pushdown census is asserted zero and every pushdown flow set");
    println!("is asserted contained in the 0CFA's — the precision is free of surprises;");
    println!("the cost table below is what it is not free of.\n");

    // --- cost: the pushdown rung paired against the CPS 0CFA ---
    let n = if test_mode { E21_TEST_N } else { E21_N };
    let reps = if test_mode { 2 } else { 5 };
    let hw = hw_threads();
    let mut cost_rows: Vec<Vec<String>> = Vec::new();
    let mut json_rows: Vec<String> = Vec::new();
    for (family, build) in E21_FAMILIES {
        let prog = AnfProgram::from_term(&build(n));
        let cps = CpsProgram::from_anf(&prog);
        let psize = prog.root().size();
        let ((mono_ms, (mono, mono_stats)), (pd_ms, (pd, pd_stats))) = paired_median_ms(
            reps,
            || zero_cfa_cps_instrumented(&cps).unwrap(),
            || pushdown_cfa_instrumented(&cps).unwrap(),
        );
        if let Some(violation) = pd.refinement_violation(&mono) {
            panic!("pushdown does not refine 0CFA on {family}({n}): {violation}");
        }
        assert_eq!(pd.false_return_edges(), 0);
        let p = format!("e21.{family}.{n}");
        sink.gauge(&format!("{p}.program_size"), psize as u64);
        sink.time_ns(&format!("{p}.mono_ns"), (mono_ms * 1e6) as u64);
        sink.time_ns(&format!("{p}.pd_ns"), (pd_ms * 1e6) as u64);
        sink.gauge(&format!("{p}.summaries"), pd.summaries);
        pd_stats.emit_into(sink, &format!("{p}.pd"));
        cost_rows.push(vec![
            format!("{family}({n})"),
            format!("{mono_ms:.2}"),
            format!("{pd_ms:.2}"),
            format!("{:.2}x", pd_ms / mono_ms),
            format!("{}", mono_stats.fired),
            format!("{}", pd_stats.fired),
            format!("{}", mono.false_return_edges()),
        ]);
        json_rows.push(format!(
            "  {{\"family\": \"{}\", \"n\": {}, \"program_size\": {}, \
             \"analyzer\": \"pushdown\", \"impl\": \"summary-delta\", \
             \"wall_ms\": {:.4}, \"iterations\": {}, \"posts\": {}, \
             \"delta_elems\": {}, \"mean_delta\": {:.3}, \
             \"summaries\": {}, \"false_returns\": 0, \
             \"mono_wall_ms\": {:.4}, \"mono_iterations\": {}, \
             \"mono_false_returns\": {}, \"hw_threads\": {}, \
             \"curve\": \"e21\"}}",
            family,
            n,
            psize,
            pd_ms,
            pd_stats.fired,
            pd_stats.posted,
            pd_stats.delta_elems,
            pd_stats.mean_delta(),
            pd.summaries,
            mono_ms,
            mono_stats.fired,
            mono.false_return_edges(),
            hw,
        ));
    }
    println!(
        "{}",
        render_table(
            &[
                "workload",
                "0CFA ms",
                "pushdown ms",
                "pd/0CFA",
                "0CFA firings",
                "pd firings",
                "0CFA merged returns",
            ],
            &cost_rows
        )
    );
    e21_append_rows(&json_rows);
}

/// The E17 measurement grid: the same families ladder as E16, pushed to
/// larger sizes — the front end is linear in program size, so the pipeline
/// comparison can afford workloads the fixpoint solvers cannot.
const E17_SIZES: [usize; 3] = [32, 128, 512];

/// One measured (or trace-reconstructed) E17 cell: a workload with its
/// paired boxed/interned front-end medians and the interned run's arena
/// footprint.
struct E17Cell {
    family: &'static str,
    n: usize,
    /// Labeled nodes produced per run (ANF + CPS) — the throughput unit.
    nodes: u64,
    boxed_ms: f64,
    interned_ms: f64,
    arena_bytes: u64,
    interned_syms: u64,
}

impl E17Cell {
    /// The trace-event prefix all of this cell's events share.
    fn prefix(&self) -> String {
        format!("e17.pipeline.{}.{}", self.family, self.n)
    }

    fn is_largest(&self) -> bool {
        self.n == *E17_SIZES.last().unwrap()
    }

    /// Nodes/second through the interned pipeline.
    fn interned_rate(&self) -> f64 {
        self.nodes as f64 / (self.interned_ms / 1e3)
    }

    /// Emits the cell into a trace sink. Alongside the per-cell events,
    /// the run-wide `pipeline.arena_bytes` / `pipeline.interned_syms`
    /// gauges record the peak across cells (gauges aggregate by max), so a
    /// trace consumer can read the front end's footprint without knowing
    /// the grid. [`from_agg`](E17Cell::from_agg) inverts the per-cell
    /// events, which is what makes the E17 table reproducible from a JSONL
    /// artifact alone.
    fn emit_into(&self, sink: &mut impl TraceSink) {
        if !sink.enabled() {
            return;
        }
        let p = self.prefix();
        sink.gauge(&format!("{p}.nodes"), self.nodes);
        sink.time_ns(&format!("{p}.boxed_ns"), (self.boxed_ms * 1e6) as u64);
        sink.time_ns(&format!("{p}.interned_ns"), (self.interned_ms * 1e6) as u64);
        sink.gauge(&format!("{p}.arena_bytes"), self.arena_bytes);
        sink.gauge(&format!("{p}.interned_syms"), self.interned_syms);
        sink.gauge("pipeline.arena_bytes", self.arena_bytes);
        sink.gauge("pipeline.interned_syms", self.interned_syms);
    }

    /// Reconstructs the cell from an aggregated trace; `None` if the trace
    /// has no measurement for it.
    fn from_agg(agg: &AggSink, family: &'static str, n: usize) -> Option<Self> {
        let p = format!("e17.pipeline.{family}.{n}");
        let ms = |name: &str| {
            agg.timer_agg(&format!("{p}.{name}"))
                .filter(|t| t.count > 0)
                .map(|t| t.total_ns as f64 / t.count as f64 / 1e6)
        };
        Some(E17Cell {
            family,
            n,
            nodes: agg.gauge_value(&format!("{p}.nodes")),
            boxed_ms: ms("boxed_ns")?,
            interned_ms: ms("interned_ns")?,
            arena_bytes: agg.gauge_value(&format!("{p}.arena_bytes")),
            interned_syms: agg.gauge_value(&format!("{p}.interned_syms")),
        })
    }
}

/// Renders the E17 table and the largest-workload speedups, and writes the
/// rows to `BENCH_pipeline.json`. Shared by the live measurement path and
/// the `--regen-e16` replay, so both produce the identical report.
fn e17_render(cells: &[E17Cell]) {
    let mut json: Vec<String> = Vec::new();
    let mut rows: Vec<Vec<String>> = Vec::new();
    for c in cells {
        for (impl_name, ms) in [("boxed", c.boxed_ms), ("interned", c.interned_ms)] {
            json.push(format!(
                "  {{\"family\": \"{}\", \"n\": {}, \"nodes\": {}, \
                 \"impl\": \"{}\", \"wall_ms\": {:.4}, \
                 \"nodes_per_sec\": {:.0}, \"arena_bytes\": {}, \
                 \"interned_syms\": {}}}",
                c.family,
                c.n,
                c.nodes,
                impl_name,
                ms,
                c.nodes as f64 / (ms / 1e3),
                if impl_name == "interned" {
                    c.arena_bytes
                } else {
                    0
                },
                c.interned_syms,
            ));
        }
        rows.push(vec![
            format!("{}({})", c.family, c.n),
            format!("{}", c.nodes),
            format!("{:.3}", c.boxed_ms),
            format!("{:.3}", c.interned_ms),
            format!("{:.1}x", c.boxed_ms / c.interned_ms),
            format!("{:.2e}", c.interned_rate()),
            format!("{}", c.arena_bytes),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "workload",
                "nodes",
                "boxed ms",
                "interned ms",
                "speedup",
                "nodes/s",
                "arena B",
            ],
            &rows
        )
    );
    for c in cells.iter().filter(|c| c.is_largest()) {
        println!(
            "largest workload: {}({}) — {:.1}x over the boxed front end, \
             {:.2e} nodes/s, {} arena bytes, {} interned symbols",
            c.family,
            c.n,
            c.boxed_ms / c.interned_ms,
            c.interned_rate(),
            c.arena_bytes,
            c.interned_syms,
        );
    }

    let payload = format!("[\n{}\n]\n", json.join(",\n"));
    match std::fs::write("BENCH_pipeline.json", &payload) {
        Ok(()) => println!("\nwrote {} measurements to BENCH_pipeline.json", json.len()),
        Err(e) => println!("\ncould not write BENCH_pipeline.json: {e}"),
    }
}

/// E17: tentpole — the interned (hash-consed Λ arena + flat ANF/CPS
/// arenas) front end against the boxed-tree front end it replaced, on the
/// families ladder. Writes `BENCH_pipeline.json` and, when tracing, emits
/// every cell so `--regen-e16` can rebuild the table from the artifact.
fn e17_pipeline_throughput(sink: &mut impl TraceSink) {
    use cpsdfa_bench::{pipeline_boxed, pipeline_interned};

    section(
        "E17",
        "tentpole: interned front-end pipeline (parse → ANF → CPS) vs the boxed trees it replaced",
    );
    let reps = 5;
    let mut cells: Vec<E17Cell> = Vec::new();
    for (family, build) in E16_LADDER {
        for n in E17_SIZES {
            let src = build(n).to_string();
            let ((interned_ms, iout), (boxed_ms, bout)) =
                paired_median_ms(reps, || pipeline_interned(&src), || pipeline_boxed(&src));
            assert_eq!(
                (iout.anf_labels, iout.cps_labels),
                (bout.anf_labels, bout.cps_labels),
                "front ends disagree on {family}({n})"
            );
            cells.push(E17Cell {
                family,
                n,
                nodes: iout.nodes(),
                boxed_ms,
                interned_ms,
                arena_bytes: iout.arena_bytes as u64,
                interned_syms: cpsdfa_syntax::intern::Symbol::interned_count(),
            });
        }
    }
    for c in &cells {
        c.emit_into(sink);
    }
    e17_render(&cells);
}

/// The E18 degradation grid sizes (shrunk under `--test` so the CI
/// fault-injection job stays fast).
fn e18_sizes(test_mode: bool) -> &'static [usize] {
    if test_mode {
        &[32]
    } else {
        &[32, 128, 320]
    }
}

/// One row of the E18 degradation grid, also serialized to
/// `BENCH_degrade.json`.
struct E18Row {
    family: &'static str,
    n: usize,
    budget_label: &'static str,
    budget: u64,
    answered_by: String,
    rungs_tried: usize,
    resource: String,
    residual_budget: u64,
    latency_ms: f64,
}

impl E18Row {
    fn to_json(&self) -> String {
        format!(
            "  {{\"family\": \"{}\", \"n\": {}, \"budget\": \"{}\", \
             \"budget_goals\": {}, \"answer\": \"{}\", \"rungs\": {}, \
             \"trip\": \"{}\", \"residual_budget\": {}, \"latency_ms\": {:.4}}}",
            self.family,
            self.n,
            self.budget_label,
            self.budget,
            self.answered_by,
            self.rungs_tried,
            self.resource,
            self.residual_budget,
            self.latency_ms,
        )
    }
}

/// E18: the resource-governed driver — degradation ladders under budget
/// starvation across the workload families, a seeded fault-injection sweep
/// tabling fallback rates, and the panic-isolated / cancellable corpus
/// sweep. Writes `BENCH_degrade.json`.
fn e18_degradation(sink: &mut impl TraceSink, test_mode: bool) {
    use cpsdfa_core::cfa::{zero_cfa_cps_instrumented, zero_cfa_instrumented};
    use cpsdfa_core::faultinject::{FaultKind, FaultPlan, INJECTED_PANIC};
    use cpsdfa_core::govern::{governed_zero_cfa_cps, CancelToken, CfaAnswer, GovernPolicy};
    use cpsdfa_workloads::par::{par_map_isolated, ParOutcome};

    section(
        "E18",
        "resource governance: degradation ladders, fault injection, panic isolation",
    );
    // Panics are injected on purpose below; silence their default report.
    let previous_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| info.payload().downcast_ref::<String>().cloned())
            .unwrap_or_default();
        if msg.contains(INJECTED_PANIC) || msg.contains("e18: poisoned worker") {
            return;
        }
        previous_hook(info);
    }));

    // -- Part 1: degradation grid -----------------------------------------
    // Each workload runs the governed 0CFA ladder (cfa.cps -> cfa.src)
    // under three budgets derived from its own un-governed firing costs:
    // "ample" (default budget, no degradation), "starved" (exactly the
    // direct rung's cost — the CPS rung trips, the ladder answers at
    // cfa.src), and "tiny" (a quarter of that — every rung trips).
    println!("### Degradation grid: governed 0CFA ladder under shrinking budgets\n");
    let mut rows: Vec<E18Row> = Vec::new();
    for (family, build) in E16_LADDER {
        for &n in e18_sizes(test_mode) {
            let prog = AnfProgram::from_term(&build(n));
            let (_, src_stats) = zero_cfa_instrumented(&prog).unwrap();
            let budgets: [(&'static str, u64); 3] = [
                ("ample", AnalysisBudget::default().max_goals()),
                ("starved", src_stats.fired),
                ("tiny", (src_stats.fired / 4).max(1)),
            ];
            for (label, goals) in budgets {
                let policy = GovernPolicy::new().with_budget(AnalysisBudget::new(goals));
                let (answered_by, rungs_tried, resource, residual, latency_ns) =
                    match governed_zero_cfa_cps(&prog, &CpsProgram::from_anf(&prog), &policy, sink)
                    {
                        Ok(governed) => {
                            let r = &governed.report;
                            (
                                r.answered_by().unwrap_or("-").to_owned(),
                                r.rungs_tried(),
                                r.resource.unwrap_or("-").to_owned(),
                                r.residual_budget,
                                r.elapsed_ns,
                            )
                        }
                        Err(e) => ("(error)".to_owned(), 2, e.resource().to_owned(), 0, 0),
                    };
                sink.counter(
                    &format!("e18.grid.{family}.{n}.{label}.rungs"),
                    rungs_tried as u64,
                );
                rows.push(E18Row {
                    family,
                    n,
                    budget_label: label,
                    budget: goals,
                    answered_by,
                    rungs_tried,
                    resource,
                    residual_budget: residual,
                    latency_ms: latency_ns as f64 / 1e6,
                });
            }
        }
    }
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{}({})", r.family, r.n),
                format!("{} ({})", r.budget_label, r.budget),
                r.answered_by.clone(),
                format!("{}", r.rungs_tried),
                r.resource.clone(),
                format!("{}", r.residual_budget),
                format!("{:.3}", r.latency_ms),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["workload", "budget", "answer", "rungs", "trip", "residual", "ms"],
            &table_rows
        )
    );

    // -- Part 2: seeded fault-injection sweep ------------------------------
    // One deterministic recoverable fault per corpus program, injected at a
    // seed-chosen firing inside (or just past) the un-faulted schedule.
    let sweep_n = if test_mode { 60 } else { 300 };
    println!("\n### Seeded fault sweep: {sweep_n}-program corpus, one recoverable fault each\n");
    let progs = corpus(0xE18, sweep_n, &open_config());
    let indexed: Vec<(u64, &cpsdfa_syntax::Term)> = progs
        .iter()
        .enumerate()
        .map(|(i, t)| (i as u64, t))
        .collect();
    // Per program: (fault kind, recovered?, degraded?, answer matches un-faulted rung?)
    let outcomes = par_map(&indexed, |&(i, t)| {
        let p = AnfProgram::from_term(t);
        let c = CpsProgram::from_anf(&p);
        let (cps_baseline, stats) = zero_cfa_cps_instrumented(&c).unwrap();
        let fault = FaultPlan::from_seed_recoverable(0xE18 ^ i, stats.fired.max(1) + 8);
        let kind = fault.kind();
        let policy = GovernPolicy::new().with_fault(fault);
        match governed_zero_cfa_cps(&p, &CpsProgram::from_anf(&p), &policy, &mut NoopSink) {
            Ok(governed) => {
                let degraded = governed.report.degraded();
                let matches = match &governed.value {
                    CfaAnswer::Cps(a) => a.same_solution(&cps_baseline),
                    CfaAnswer::Direct(a) => a.same_solution(&zero_cfa(&p).unwrap()),
                    // The 0CFA ladder has no pushdown rung.
                    CfaAnswer::Pushdown(_) => false,
                };
                (kind, true, degraded, matches)
            }
            Err(_) => (kind, false, false, true),
        }
    });
    let mut sweep_rows: Vec<Vec<String>> = Vec::new();
    let mut sweep_json: Vec<String> = Vec::new();
    for kind in FaultKind::RECOVERABLE {
        let of_kind: Vec<_> = outcomes.iter().filter(|o| o.0 == kind).collect();
        let injected = of_kind.len();
        let recovered = of_kind.iter().filter(|o| o.1).count();
        let degraded = of_kind.iter().filter(|o| o.2).count();
        let mismatched = of_kind.iter().filter(|o| !o.3).count();
        sink.counter(&format!("e18.sweep.{kind:?}.injected"), injected as u64);
        sink.counter(&format!("e18.sweep.{kind:?}.recovered"), recovered as u64);
        sink.counter(&format!("e18.sweep.{kind:?}.mismatched"), mismatched as u64);
        sweep_rows.push(vec![
            format!("{kind:?}"),
            format!("{injected}"),
            format!("{recovered}"),
            format!("{degraded}"),
            format!("{}", injected - recovered),
            format!("{mismatched}"),
        ]);
        sweep_json.push(format!(
            "  {{\"fault\": \"{kind:?}\", \"injected\": {injected}, \
             \"recovered\": {recovered}, \"degraded\": {degraded}, \
             \"failed\": {}, \"mismatched\": {mismatched}}}",
            injected - recovered,
        ));
    }
    println!(
        "{}",
        render_table(
            &[
                "fault",
                "injected",
                "recovered",
                "degraded",
                "failed",
                "mismatch"
            ],
            &sweep_rows
        )
    );
    let total_mismatch: usize = outcomes.iter().filter(|o| !o.3).count();
    println!(
        "\nevery recovered run must match its un-faulted rung: {} mismatches",
        total_mismatch
    );
    assert_eq!(total_mismatch, 0, "a recovered fault changed an answer");

    // -- Part 3: panic isolation and cooperative cancellation --------------
    println!("\n### Worker panic isolation and cancellation\n");
    let demo = corpus(0xE18_0DD, if test_mode { 24 } else { 96 }, &open_config());
    let poisoned = demo.len() / 2;
    let indexed: Vec<(usize, &cpsdfa_syntax::Term)> = demo.iter().enumerate().collect();
    let report = par_map_isolated(&indexed, None, |&(i, t)| {
        assert!(i != poisoned, "e18: poisoned worker {i}");
        let p = AnfProgram::from_term(t);
        zero_cfa(&p).unwrap().iterations
    });
    println!(
        "poisoned worker sweep: {} items, {} completed, {} panicked, interrupted: {}",
        demo.len(),
        report.completed,
        report.panicked,
        report.interrupted,
    );
    sink.counter("e18.par.completed", report.completed as u64);
    sink.counter("e18.par.panicked", report.panicked as u64);
    assert_eq!(report.panicked, 1, "exactly the poisoned item fails");
    assert_eq!(
        report.completed,
        demo.len() - 1,
        "every other worker's result is intact"
    );

    // A sweep cancelled from another thread: partial results come back with
    // the explicit Interrupted marker and the skipped tail is logged as the
    // harness.cancelled counter.
    let token = CancelToken::new();
    token.cancel();
    let cancelled = par_map_isolated(&indexed, Some(token.as_flag()), |&(_, t)| {
        let p = AnfProgram::from_term(t);
        zero_cfa(&p).unwrap().iterations
    });
    let skipped = cancelled
        .results
        .iter()
        .filter(|o| matches!(o, ParOutcome::Skipped))
        .count();
    sink.counter("harness.cancelled", skipped as u64);
    println!(
        "cancelled sweep: interrupted: {}, {} of {} items skipped (harness.cancelled)",
        cancelled.interrupted,
        skipped,
        demo.len(),
    );
    assert!(
        cancelled.interrupted,
        "pre-cancelled sweep must be cut short"
    );

    // -- Artifact ----------------------------------------------------------
    let grid_json: Vec<String> = rows.iter().map(E18Row::to_json).collect();
    let payload = format!(
        "{{\n\"grid\": [\n{}\n],\n\"fault_sweep\": [\n{}\n]\n}}\n",
        grid_json.join(",\n"),
        sweep_json.join(",\n"),
    );
    match std::fs::write("BENCH_degrade.json", &payload) {
        Ok(()) => println!(
            "\nwrote {} grid rows and {} sweep rows to BENCH_degrade.json",
            rows.len(),
            sweep_json.len()
        ),
        Err(e) => println!("\ncould not write BENCH_degrade.json: {e}"),
    }
}

// ===========================================================================
// E20 — the analysis service: content-addressed cache under mixed traffic
// ===========================================================================

/// The E20 request pool: every analysis kind crossed with the cost-
/// experiment families it accepts. Each point contributes two program
/// sizes, so the pool holds 12 distinct programs — enough spread for a
/// zipf-skewed mix to produce a realistic hit/miss interleaving.
const E20_POOL: [(&str, Family, usize, usize); 6] = [
    ("cfa.src", ("dispatch", families::dispatch), 96, 12),
    ("cfa.src", ("polyvariant", families::repeated_calls), 96, 12),
    ("cfa.cps", ("dispatch", families::dispatch), 96, 12),
    ("cfa.cps", ("polyvariant", families::repeated_calls), 96, 12),
    ("mfp.flat", ("diamond", families::diamond_chain), 48, 6),
    ("mfp.flat", ("cond-chain", families::cond_chain), 96, 12),
];

/// One distinct request of the E20 pool: the JSONL tail shared by every
/// submission of this program (ids are assigned per mix).
struct E20Req {
    label: String,
    tail: String,
}

/// Summary of one (mix, cache setting) run: the latency distribution of
/// the measured batch, its wall-clock throughput, and the hit/miss split
/// read back from the responses themselves.
struct E20Mix {
    mix: &'static str,
    cache: &'static str,
    requests: usize,
    wall_ms: f64,
    p50_us: u64,
    p95_us: u64,
    p99_us: u64,
    hits: u64,
    misses: u64,
}

impl E20Mix {
    fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }

    fn throughput_rps(&self) -> f64 {
        self.requests as f64 / (self.wall_ms / 1e3)
    }

    fn to_json(&self) -> String {
        format!(
            "  {{\"mix\": \"{}\", \"cache\": \"{}\", \"requests\": {}, \
             \"wall_ms\": {:.4}, \"throughput_rps\": {:.0}, \
             \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {}, \
             \"hits\": {}, \"misses\": {}, \"hit_rate\": {:.4}}}",
            self.mix,
            self.cache,
            self.requests,
            self.wall_ms,
            self.throughput_rps(),
            self.p50_us,
            self.p95_us,
            self.p99_us,
            self.hits,
            self.misses,
            self.hit_rate(),
        )
    }

    fn emit_into(&self, sink: &mut impl TraceSink) {
        if !sink.enabled() {
            return;
        }
        let p = format!("e20.{}.{}", self.mix, self.cache);
        sink.gauge(&format!("{p}.requests"), self.requests as u64);
        sink.time_ns(&format!("{p}.wall_ns"), (self.wall_ms * 1e6) as u64);
        sink.gauge(&format!("{p}.p50_us"), self.p50_us);
        sink.gauge(&format!("{p}.p95_us"), self.p95_us);
        sink.gauge(&format!("{p}.p99_us"), self.p99_us);
        sink.counter(&format!("{p}.hits"), self.hits);
        sink.counter(&format!("{p}.misses"), self.misses);
    }
}

/// Runs one measured batch against `service`, folding the per-request
/// trace into the harness sink under `e20.<mix>.<cache>` and reading the
/// hit/miss split back from the responses. Any non-ok response fails the
/// experiment — every E20 request is well-formed and admission is opened
/// up, so a failure here is a service bug.
fn e20_run_mix(
    service: &cpsdfa_service::AnalysisService,
    mix: &'static str,
    cache: &'static str,
    lines: &[String],
    sink: &mut impl TraceSink,
) -> (E20Mix, Vec<cpsdfa_service::Outcome>) {
    use cpsdfa_service::proto::{Served, Status};
    use std::time::Instant;

    let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
    let mut agg = AggSink::new();
    let start = Instant::now();
    let outcomes = service.run_batch_traced(&refs, &mut agg);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    trace::with_span(sink, &format!("e20.{mix}.{cache}"), |s| agg.replay_into(s));
    let (mut hits, mut misses) = (0u64, 0u64);
    let mut latencies = Vec::with_capacity(outcomes.len());
    for o in &outcomes {
        match &o.response.status {
            Status::Ok { cache, .. } => {
                latencies.push(o.response.latency_us);
                match cache {
                    Served::Hit => hits += 1,
                    // E20 requests carry no session id, so the watch-mode
                    // warm path can never answer here.
                    Served::Miss | Served::Warm => misses += 1,
                    Served::Off => {}
                }
            }
            other => panic!(
                "E20 {mix}/{cache}: request {} failed: {other:?}",
                o.response.id
            ),
        }
    }
    let summary = E20Mix {
        mix,
        cache,
        requests: outcomes.len(),
        wall_ms,
        p50_us: e20_percentile(&latencies, 0.50),
        p95_us: e20_percentile(&latencies, 0.95),
        p99_us: e20_percentile(&latencies, 0.99),
        hits,
        misses,
    };
    summary.emit_into(sink);
    (summary, outcomes)
}

/// Nearest-rank percentile over an unsorted latency sample.
fn e20_percentile(samples: &[u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// E20: the analysis-as-a-service daemon's content-addressed cache under
/// sustained mixed-family traffic. Three request mixes — cold (every
/// program distinct), warm-repeat (a primed pool replayed), zipf-skewed
/// (rank-weighted draws over the pool) — each run against a cache-on and a
/// cache-off service built from the *same* request lines, with per-sample
/// bit-identity asserted between the two. Records p50/p95/p99 service
/// latency, throughput, and hit-rate into `BENCH_service.json` and
/// `e20.*` trace events; the acceptance target is a >= 10x warm-repeat
/// p50 over cold.
fn e20_service(sink: &mut impl TraceSink, test_mode: bool) {
    use cpsdfa_service::{AnalysisService, Outcome, ServiceConfig};

    section(
        "E20",
        "analysis service: content-addressed fixpoint cache under mixed traffic",
    );
    let workers = cpsdfa_workloads::par::worker_count();
    let hw = hw_threads();
    sink.gauge("e20.workers", workers as u64);
    sink.gauge("e20.hw_threads", hw as u64);
    println!("service workers: {workers}; hardware threads: {hw}");
    println!("(latency is per-request service time — cache probe + solve — so the");
    println!(" warm/cold ratio is queue-independent; throughput is batch wall-clock)\n");

    // -- The request pool --------------------------------------------------
    let pool: Vec<E20Req> = E20_POOL
        .iter()
        .flat_map(|&(analysis, (family, build), n_full, n_test)| {
            let n = if test_mode { n_test } else { n_full };
            [n, (n / 2).max(2)].map(move |n| {
                let program = build(n).to_string();
                E20Req {
                    label: format!("{analysis} {family}({n})"),
                    tail: format!(
                        "\"analysis\": \"{analysis}\", \"program\": \"{}\"",
                        cpsdfa_service::json::escape(&program)
                    ),
                }
            })
        })
        .collect();
    println!(
        "request pool ({} distinct programs, zipf rank order): {}\n",
        pool.len(),
        pool.iter()
            .map(|r| r.label.as_str())
            .collect::<Vec<_>>()
            .join(", ")
    );
    let line = |id: usize, req: &E20Req| format!("{{\"id\": {id}, {}}}", req.tail);
    let pool_pass = |base: usize| -> Vec<String> {
        pool.iter()
            .enumerate()
            .map(|(i, r)| line(base + i, r))
            .collect()
    };

    // E20 measures the cache, not admission control: the batch feeder
    // enqueues a whole mix at once, so worst-case reservations for the
    // backlog would trip the capacity rung. Open the admission ladder up.
    let config = |cache_enabled: bool| ServiceConfig {
        workers,
        cache_enabled,
        capacity_charges: u64::MAX / 2,
        max_queue: 1 << 16,
        ..ServiceConfig::default()
    };

    // Per-sample differential: the cache-on and cache-off services ran the
    // identical request sequence, so outcome i of one must be bit-identical
    // to outcome i of the other — same canonical digest, same whole answer.
    let assert_bit_identity = |mix: &str, on: &[Outcome], off: &[Outcome]| -> usize {
        assert_eq!(on.len(), off.len(), "E20 {mix}: sample counts differ");
        for (a, b) in on.iter().zip(off) {
            let fa = a.fixpoint.as_ref().unwrap_or_else(|| {
                panic!(
                    "E20 {mix}: cache-on request {} has no answer",
                    a.response.id
                )
            });
            let fb = b.fixpoint.as_ref().unwrap_or_else(|| {
                panic!(
                    "E20 {mix}: cache-off request {} has no answer",
                    b.response.id
                )
            });
            assert_eq!(
                fa.answer_digest, fb.answer_digest,
                "E20 {mix}: request {} digests diverge between cache on/off",
                a.response.id
            );
            assert_eq!(
                fa.answer, fb.answer,
                "E20 {mix}: request {} answers diverge between cache on/off",
                a.response.id
            );
        }
        on.len()
    };

    let mut summaries: Vec<E20Mix> = Vec::new();
    let mut identical_samples = 0usize;

    // -- Mix 1: cold — every program distinct, nothing to reuse ------------
    let cold_lines = pool_pass(1_000);
    let (cold_on, cold_off) = (AnalysisService::new(config(true)), {
        AnalysisService::new(config(false))
    });
    let (cold_on_mix, cold_on_out) = e20_run_mix(&cold_on, "cold", "on", &cold_lines, sink);
    let (cold_off_mix, cold_off_out) = e20_run_mix(&cold_off, "cold", "off", &cold_lines, sink);
    identical_samples += assert_bit_identity("cold", &cold_on_out, &cold_off_out);
    assert_eq!(cold_on_mix.hits, 0, "a cold mix cannot hit");

    // -- Mix 2: warm-repeat — prime once, then replay the pool -------------
    let passes = if test_mode { 2 } else { 8 };
    let (warm_on, warm_off) = (AnalysisService::new(config(true)), {
        AnalysisService::new(config(false))
    });
    // The priming pass is run on both services (and excluded from the
    // measurement) so the measured sequences stay sample-aligned.
    for service in [&warm_on, &warm_off] {
        let prime = pool_pass(2_000);
        let refs: Vec<&str> = prime.iter().map(String::as_str).collect();
        service.run_batch(&refs);
    }
    let warm_lines: Vec<String> = (0..passes)
        .flat_map(|pass| pool_pass(3_000 + pass * pool.len()))
        .collect();
    let (warm_on_mix, warm_on_out) = e20_run_mix(&warm_on, "warm-repeat", "on", &warm_lines, sink);
    let (warm_off_mix, warm_off_out) =
        e20_run_mix(&warm_off, "warm-repeat", "off", &warm_lines, sink);
    identical_samples += assert_bit_identity("warm-repeat", &warm_on_out, &warm_off_out);
    assert_eq!(
        warm_on_mix.misses, 0,
        "a primed pool replay must be all hits"
    );

    // -- Mix 3: zipf-skewed — rank-weighted draws over the pool ------------
    // Rank r of the pool carries weight 1/r (zipf s=1); draws come from a
    // fixed-seed LCG so the mix is reproducible run to run.
    let draws = if test_mode { 32 } else { 200 };
    let weights: Vec<f64> = (1..=pool.len()).map(|r| 1.0 / r as f64).collect();
    let total_weight: f64 = weights.iter().sum();
    let mut lcg: u64 = 0xE20_5EED;
    let mut next_index = || -> usize {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let u = (lcg >> 11) as f64 / (1u64 << 53) as f64;
        let mut target = u * total_weight;
        for (i, w) in weights.iter().enumerate() {
            if target < *w {
                return i;
            }
            target -= w;
        }
        pool.len() - 1
    };
    let zipf_lines: Vec<String> = (0..draws)
        .map(|i| line(10_000 + i, &pool[next_index()]))
        .collect();
    let (zipf_on, zipf_off) = (AnalysisService::new(config(true)), {
        AnalysisService::new(config(false))
    });
    let (zipf_on_mix, zipf_on_out) = e20_run_mix(&zipf_on, "zipf", "on", &zipf_lines, sink);
    let (zipf_off_mix, zipf_off_out) = e20_run_mix(&zipf_off, "zipf", "off", &zipf_lines, sink);
    identical_samples += assert_bit_identity("zipf", &zipf_on_out, &zipf_off_out);
    assert!(
        zipf_on_mix.hits > 0 && zipf_on_mix.misses > 0,
        "a zipf mix over a {}-program pool must interleave hits and misses",
        pool.len()
    );

    // -- Report ------------------------------------------------------------
    let ratio = cold_on_mix.p50_us as f64 / warm_on_mix.p50_us.max(1) as f64;
    summaries.extend([
        cold_on_mix,
        cold_off_mix,
        warm_on_mix,
        warm_off_mix,
        zipf_on_mix,
        zipf_off_mix,
    ]);
    let rows: Vec<Vec<String>> = summaries
        .iter()
        .map(|m| {
            vec![
                m.mix.to_string(),
                m.cache.to_string(),
                format!("{}", m.requests),
                format!("{}", m.p50_us),
                format!("{}", m.p95_us),
                format!("{}", m.p99_us),
                format!("{:.0}", m.throughput_rps()),
                format!("{:.0}%", m.hit_rate() * 100.0),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["mix", "cache", "reqs", "p50 us", "p95 us", "p99 us", "req/s", "hit rate",],
            &rows
        )
    );
    println!(
        "warm-repeat p50 speedup over cold (cache on): {ratio:.1}x  \
         (target >= 10x)"
    );
    println!(
        "bit-identity: {identical_samples} samples compared cache-on vs \
         cache-off, all identical"
    );
    sink.gauge("e20.warm_cold_p50_ratio_x100", (ratio * 100.0) as u64);
    sink.gauge("e20.identical_samples", identical_samples as u64);
    if !test_mode {
        assert!(
            ratio >= 10.0,
            "warm-repeat p50 must be >= 10x faster than cold (got {ratio:.1}x)"
        );
    }

    // -- Artifact ----------------------------------------------------------
    let mixes = format!(
        "[\n{}\n]",
        summaries
            .iter()
            .map(E20Mix::to_json)
            .collect::<Vec<_>>()
            .join(",\n")
    );
    let summary = format!(
        "{{\"warm_cold_p50_ratio\": {ratio:.2}, \
         \"identical_samples\": {identical_samples}, \"pool_programs\": {}, \
         \"workers\": {workers}, \"hw_threads\": {hw}, \"test_mode\": {test_mode}}}",
        pool.len(),
    );
    bench_service_merge(&[("mixes", mixes), ("summary", summary)]);
}

/// Splits the text of a JSON object into `(key, raw value)` pairs at the
/// top level — strings and nesting respected, values left as raw text.
/// `None` when the text is not a braced object (the caller starts fresh).
fn json_top_sections(text: &str) -> Option<Vec<(String, String)>> {
    let bytes = text.as_bytes();
    let mut i = 0usize;
    let skip_ws = |i: &mut usize| {
        while *i < bytes.len() && bytes[*i].is_ascii_whitespace() {
            *i += 1;
        }
    };
    skip_ws(&mut i);
    if i >= bytes.len() || bytes[i] != b'{' {
        return None;
    }
    i += 1;
    let mut out = Vec::new();
    loop {
        skip_ws(&mut i);
        if i >= bytes.len() {
            return None;
        }
        if bytes[i] == b'}' {
            return Some(out);
        }
        if bytes[i] != b'"' {
            return None;
        }
        let key_start = i + 1;
        i += 1;
        while i < bytes.len() && bytes[i] != b'"' {
            i += 1 + usize::from(bytes[i] == b'\\');
        }
        if i >= bytes.len() {
            return None;
        }
        let key = text[key_start..i].to_owned();
        i += 1;
        skip_ws(&mut i);
        if i >= bytes.len() || bytes[i] != b':' {
            return None;
        }
        i += 1;
        skip_ws(&mut i);
        let val_start = i;
        let mut depth = 0u32;
        let mut in_str = false;
        while i < bytes.len() {
            let b = bytes[i];
            if in_str {
                if b == b'\\' {
                    i += 1;
                } else if b == b'"' {
                    in_str = false;
                }
            } else {
                match b {
                    b'"' => in_str = true,
                    b'{' | b'[' => depth += 1,
                    b'}' | b']' if depth > 0 => depth -= 1,
                    b'}' | b',' if depth == 0 => break,
                    _ => {}
                }
            }
            i += 1;
        }
        out.push((key, text[val_start..i].trim_end().to_owned()));
        skip_ws(&mut i);
        if i < bytes.len() && bytes[i] == b',' {
            i += 1;
        }
    }
}

/// Merges top-level sections into `BENCH_service.json`: sections of other
/// producers survive, same-named sections are replaced, new ones appended
/// — the same live-and-let-live contract the `BENCH_solver.json` row
/// helpers give the curve experiments.
fn bench_service_merge(sections: &[(&str, String)]) {
    let mut all: Vec<(String, String)> = std::fs::read_to_string("BENCH_service.json")
        .ok()
        .as_deref()
        .and_then(json_top_sections)
        .unwrap_or_default();
    for (key, value) in sections {
        match all.iter_mut().find(|(k, _)| k == key) {
            Some(slot) => slot.1 = value.clone(),
            None => all.push(((*key).to_owned(), value.clone())),
        }
    }
    let body = all
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect::<Vec<_>>()
        .join(",\n");
    let names = sections
        .iter()
        .map(|(k, _)| *k)
        .collect::<Vec<_>>()
        .join(", ");
    match std::fs::write("BENCH_service.json", format!("{{\n{body}\n}}\n")) {
        Ok(()) => println!("\nwrote sections [{names}] into BENCH_service.json"),
        Err(e) => println!("\ncould not write BENCH_service.json: {e}"),
    }
}

// ---------------------------------------------------------------------------
// E22: incremental re-analysis
// ---------------------------------------------------------------------------

const E22_FAMILIES: [Family; 2] = [
    ("dispatch", families::dispatch),
    ("polyvariant", families::polyvariant),
];
const E22_NS: [usize; 3] = [40, 160, 640];
const E22_TEST_NS: [usize; 1] = [24];
/// The dispatch family's wall gate gets one extra scale rung in full
/// mode: the warm update is edit-proportional while the cold solve is
/// ~quadratic, so the margin over the 10x bar widens with n and the
/// assertion stops being sensitive to allocator noise from earlier
/// experiments in the suite (polyvariant already clears it ~60x at 640).
const E22_DISPATCH_TOP_N: usize = 1280;

/// Appends E22 curve rows to `BENCH_solver.json`, symmetric with
/// [`e21_append_rows`]: rows of every other producer
/// survive, stale e22 rows are dropped, fresh ones appended.
fn e22_append_rows(rows: &[String]) {
    let mut all = bench_solver_rows(|line| !line.contains("\"curve\": \"e22\""));
    all.extend(rows.iter().cloned());
    let payload = format!("[\n{}\n]\n", all.join(",\n"));
    match std::fs::write("BENCH_solver.json", &payload) {
        Ok(()) => println!(
            "\nappended {} incremental rows to BENCH_solver.json",
            rows.len()
        ),
        Err(e) => println!("\ncould not write BENCH_solver.json: {e}"),
    }
}

/// E22: the edit-delta warm-start solver. Three parts:
///
/// 1. **Headline ratio** — a *live*
///    [`IncrementalCfa`](cpsdfa_core::incremental::IncrementalCfa)
///    session absorbs a single leaf edit (toggling one binding between a
///    constant and a free variable) on the big dispatch/polyvariant
///    workloads. Each
///    warm update rides the retract rung — work proportional to the
///    edit, not the fixpoint — and is paired against a from-scratch
///    solve of the same program in one interleaved sampling loop.
///    `"curve": "e22"` rows (warm vs cold wall time *and* fired
///    constraints) land in `BENCH_solver.json`. On the largest size the
///    live warm path must beat from-scratch ≥10× on fired constraints
///    always, and on wall time in a full run (`--test` skips the wall
///    assertion because CI wall clocks on shrunken programs measure
///    noise). Bit-identity is asserted outside the timing loop, in both
///    edit directions.
/// 2. **Stateless transport** — the sessionless `zero_cfa_warm` driver
///    across an inserted-leaf edit, reported honestly: it saves ≥10× on
///    fired constraints but its seed transport is Ω(fixpoint), so no
///    wall-ratio bar applies (the table shows whatever it measures).
/// 3. **Rung census** — a generated edit script covering every
///    [`EditKind`](cpsdfa_workloads::edits::EditKind) twice drives the
///    live incremental analyzer; each step's warm fixpoint is checked
///    bit-identical to a from-scratch solve, and the table records which
///    cascade rung (noop / retract / seeded / transport / cold) answered.
fn e22_incremental(sink: &mut impl TraceSink, test_mode: bool) {
    use cpsdfa_core::cfa::zero_cfa_instrumented;
    use cpsdfa_core::incremental::{zero_cfa_warm, IncrementalCfa, Outcome, WarmPath, WarmSolve};
    use cpsdfa_syntax::build::{let_, num, var};
    use cpsdfa_workloads::edits::{edit_script, ALL_EDIT_KINDS};

    section(
        "E22",
        "incremental re-analysis: warm-start vs from-scratch after an edit",
    );

    // --- headline: a live session toggling one leaf binding ---
    let ns: &[usize] = if test_mode { &E22_TEST_NS } else { &E22_NS };
    let reps = if test_mode { 2 } else { 5 };
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut json_rows: Vec<String> = Vec::new();
    for (family, build) in E22_FAMILIES {
        let mut grid: Vec<usize> = ns.to_vec();
        if !test_mode && family == "dispatch" {
            grid.push(E22_DISPATCH_TOP_N);
        }
        for &n in &grid {
            // `e22w` mentions `z` so the free-variable space is identical
            // in both versions; the edit toggles `e22x` between a constant
            // and that (closure-free) variable, which the aligner resolves
            // on the retract rung in both directions.
            let inner = build(n);
            let v0 = let_("e22w", var("z"), let_("e22x", num(1), inner.clone()));
            let v1 = let_("e22w", var("z"), let_("e22x", var("z"), inner));
            let p0 = AnfProgram::from_term(&v0);
            let p1 = AnfProgram::from_term(&v1);
            let psize = p1.root().size();
            let mut live = IncrementalCfa::new(p0.clone()).expect("live base solve");
            let (mut cold_flip, mut warm_flip) = (0usize, 0usize);
            let ((cold_ms, (_, cold_stats)), (warm_ms, report)) = paired_median_ms(
                reps,
                || {
                    let target = if cold_flip % 2 == 0 { &p1 } else { &p0 };
                    cold_flip += 1;
                    zero_cfa_instrumented(target).expect("cold edited solve")
                },
                || {
                    let target = if warm_flip % 2 == 0 { &p1 } else { &p0 };
                    warm_flip += 1;
                    let report = live.update(target.clone()).expect("warm update");
                    assert!(
                        matches!(report.outcome, Outcome::Warm(WarmPath::Retract)),
                        "leaf toggle on {family}({n}) must ride the retract rung, \
                         got {:?}",
                        report.outcome
                    );
                    report
                },
            );
            // Bit-identity in both directions, outside the timing loop
            // (the first update may be a noop if the session already sits
            // at that version — still warm, still identical).
            for target in [&p0, &p1] {
                let rep = live.update(target.clone()).expect("verify update");
                assert!(
                    matches!(rep.outcome, Outcome::Warm(_)),
                    "verification update fell cold on {family}({n}): {:?}",
                    rep.outcome
                );
                let (fresh, _) = zero_cfa_instrumented(target).expect("verify cold solve");
                assert!(
                    live.result().same_solution(&fresh),
                    "live warm fixpoint diverges from from-scratch on {family}({n})"
                );
            }
            let cold_fired = cold_stats.fired.max(1);
            let warm_fired = report.fired;
            let wall_ratio = cold_ms / warm_ms;
            let fired_ratio = cold_fired as f64 / warm_fired.max(1) as f64;
            let p = format!("e22.{family}.{n}");
            sink.gauge(&format!("{p}.program_size"), psize as u64);
            sink.time_ns(&format!("{p}.cold_ns"), (cold_ms * 1e6) as u64);
            sink.time_ns(&format!("{p}.warm_ns"), (warm_ms * 1e6) as u64);
            sink.gauge(&format!("{p}.cold_fired"), cold_fired);
            sink.gauge(&format!("{p}.warm_fired"), warm_fired);
            rows.push(vec![
                format!("{family}({n})"),
                format!("{cold_ms:.2}"),
                format!("{warm_ms:.3}"),
                format!("{wall_ratio:.1}x"),
                format!("{cold_fired}"),
                format!("{warm_fired}"),
                format!("{fired_ratio:.1}x"),
            ]);
            json_rows.push(format!(
                "  {{\"family\": \"{}\", \"n\": {}, \"program_size\": {}, \
                 \"analyzer\": \"0cfa-src\", \"impl\": \"live-incremental\", \
                 \"edit\": \"toggle-leaf\", \"wall_ms\": {:.4}, \
                 \"cold_wall_ms\": {:.4}, \"iterations\": {}, \
                 \"cold_iterations\": {}, \"wall_ratio\": {:.2}, \
                 \"fired_ratio\": {:.2}, \"curve\": \"e22\"}}",
                family, n, psize, warm_ms, cold_ms, warm_fired, cold_fired, wall_ratio, fired_ratio,
            ));
            if n == *grid.last().unwrap() {
                assert!(
                    fired_ratio >= 10.0,
                    "live warm update must fire >=10x fewer constraints than \
                     from-scratch on {family}({n}): cold {cold_fired}, warm {warm_fired}"
                );
                if !test_mode {
                    assert!(
                        wall_ratio >= 10.0,
                        "live warm update must be >=10x faster than from-scratch \
                         on {family}({n}): cold {cold_ms:.2}ms, warm {warm_ms:.3}ms"
                    );
                }
            }
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "workload",
                "cold ms",
                "warm ms",
                "wall",
                "cold fired",
                "warm fired",
                "fired",
            ],
            &rows
        )
    );
    println!("every warm fixpoint checked bit-identical to the from-scratch solve");

    // --- stateless transport: sessionless warm across an inserted leaf ---
    let mut seeded_rows: Vec<Vec<String>> = Vec::new();
    for (family, build) in E22_FAMILIES {
        let n = *ns.last().unwrap();
        let base = build(n);
        let edited = let_("e22fresh", num(1), base.clone());
        let old = AnfProgram::from_term(&base);
        let new = AnfProgram::from_term(&edited);
        let psize = new.root().size();
        let (prev, _) = zero_cfa_instrumented(&old).expect("cold base solve");
        let ((cold_ms, (cold, cold_stats)), (warm_ms, (warm, report))) = paired_median_ms(
            reps,
            || zero_cfa_instrumented(&new).expect("cold edited solve"),
            || match zero_cfa_warm(&old, &prev, &new).expect("warm solve") {
                WarmSolve::Warm(r, rep) => (r, rep),
                WarmSolve::Cold(reason) => {
                    panic!("leaf edit on {family}({n}) must warm-start, fell cold: {reason:?}")
                }
            },
        );
        assert!(
            warm.same_solution(&cold),
            "stateless warm fixpoint diverges from from-scratch on {family}({n})"
        );
        let cold_fired = cold_stats.fired.max(1);
        let warm_fired = report.fired;
        let fired_ratio = cold_fired as f64 / warm_fired.max(1) as f64;
        assert!(
            fired_ratio >= 10.0,
            "stateless warm must fire >=10x fewer constraints than \
             from-scratch on {family}({n}): cold {cold_fired}, warm {warm_fired}"
        );
        seeded_rows.push(vec![
            format!("{family}({n})"),
            format!("{cold_ms:.2}"),
            format!("{warm_ms:.3}"),
            format!("{cold_fired}"),
            format!("{warm_fired}"),
            format!("{fired_ratio:.1}x"),
        ]);
        json_rows.push(format!(
            "  {{\"family\": \"{}\", \"n\": {}, \"program_size\": {}, \
             \"analyzer\": \"0cfa-src\", \"impl\": \"seeded-stateless\", \
             \"edit\": \"insert-leaf\", \"wall_ms\": {:.4}, \
             \"cold_wall_ms\": {:.4}, \"iterations\": {}, \
             \"cold_iterations\": {}, \"wall_ratio\": {:.2}, \
             \"fired_ratio\": {:.2}, \"curve\": \"e22\"}}",
            family,
            n,
            psize,
            warm_ms,
            cold_ms,
            warm_fired,
            cold_fired,
            cold_ms / warm_ms,
            fired_ratio,
        ));
    }
    println!(
        "\nstateless transport (sessionless zero_cfa_warm; seed transport is \
         proportional to the fixpoint, so only the fired bar applies):\n"
    );
    println!(
        "{}",
        render_table(
            &[
                "workload",
                "cold ms",
                "warm ms",
                "cold fired",
                "warm fired",
                "fired",
            ],
            &seeded_rows
        )
    );

    // --- rung census: a full edit script on the live analyzer ---
    let census_n = if test_mode { 12 } else { 48 };
    let base = families::dispatch(census_n);
    let kinds: Vec<_> = ALL_EDIT_KINDS
        .iter()
        .chain(ALL_EDIT_KINDS.iter())
        .copied()
        .collect();
    let script = edit_script(&base, &kinds, 0xE22);
    let mut live =
        IncrementalCfa::new(AnfProgram::from_term(&script.base)).expect("live base solve");
    let mut census: Vec<Vec<String>> = Vec::new();
    for step in &script.steps {
        let prog = AnfProgram::from_term(&step.term);
        let report = live.update(prog.clone()).expect("live update");
        let (fresh, _) = zero_cfa_instrumented(&prog).expect("census cold solve");
        assert!(
            live.result().same_solution(&fresh),
            "live analyzer diverged from from-scratch after {:?}",
            step.kind
        );
        let rung = match report.outcome {
            Outcome::Warm(WarmPath::Noop) => "noop".to_owned(),
            Outcome::Warm(WarmPath::Retract) => "retract".to_owned(),
            Outcome::Warm(WarmPath::Seeded) => "seeded".to_owned(),
            Outcome::Warm(WarmPath::Transport) => "transport".to_owned(),
            Outcome::Cold(reason) => format!("cold ({reason:?})"),
        };
        sink.counter(
            &format!("e22.script.rung.{}", rung.split(' ').next().unwrap()),
            1,
        );
        sink.counter("e22.script.fired", report.fired);
        census.push(vec![
            format!("{:?}", step.kind),
            rung,
            format!("{}", report.fired),
            format!("{}", report.retracted),
            format!("{}", report.added),
        ]);
    }
    println!(
        "\nedit-script rung census on dispatch({census_n}), {} steps:\n",
        script.steps.len()
    );
    println!(
        "{}",
        render_table(&["edit", "rung", "fired", "retracted", "added"], &census)
    );
    println!("every step checked bit-identical to a from-scratch solve");
    e22_append_rows(&json_rows);
}

// ---------------------------------------------------------------------------
// E23: chaos harness — kill/restart/corrupt over the persistent cache
// ---------------------------------------------------------------------------

/// E23: the crash-safety acceptance run. Phase A fills a persisted cache
/// (plus a watch-session journal) with cold solves; phase B restarts the
/// daemon over the same directory and measures the post-restart warm
/// hit-rate; phase C loops every
/// [`PersistFault`](cpsdfa_core::PersistFault) through a
/// store/kill/restart cycle with full serve-path certification on,
/// asserting three invariants: zero wrong answers served (every response's
/// digest matches a from-scratch baseline and every served answer is
/// certified), every injected corruption detected and counted in the
/// matching recovery column, and every corruption healed (a second
/// recovery over the directory is clean). Results land in the `"e23"`
/// section of `BENCH_service.json`.
fn e23_chaos(sink: &mut impl TraceSink, test_mode: bool) {
    use cpsdfa_core::faultinject::{PersistFault, PersistFaultPlan};
    use cpsdfa_service::proto::{Served, Status};
    use cpsdfa_service::{AnalysisService, ServiceConfig};
    use std::collections::HashMap;
    use std::sync::Arc;

    section(
        "E23",
        "chaos harness: certified answers over a crash-safe persistent cache",
    );

    let ns: &[usize] = if test_mode {
        &[4, 5, 6]
    } else {
        &[4, 6, 8, 10, 12]
    };
    let mut reqs: Vec<(&'static str, String)> = Vec::new();
    for &n in ns {
        reqs.push(("cfa.src", families::dispatch(n).to_string()));
        reqs.push(("cfa.cps", families::repeated_calls(n).to_string()));
        reqs.push(("mfp.flat", families::cond_chain(n).to_string()));
    }
    let line_for = |id: u64, analysis: &str, program: &str| {
        format!(
            "{{\"id\": {id}, \"analysis\": \"{analysis}\", \"program\": \"{}\"}}",
            cpsdfa_service::json::escape(program)
        )
    };
    let ok_of = |status: &Status| -> (Served, u64) {
        match status {
            Status::Ok {
                cache,
                answer_digest,
                ..
            } => (cache.clone(), *answer_digest),
            other => panic!("E23: request failed: {other:?}"),
        }
    };

    // From-scratch ground truth, computed with the cache disabled: the
    // digest every certified/recovered/healed answer must reproduce.
    let mut truth: HashMap<(&'static str, String), u64> = HashMap::new();
    {
        let baseline = AnalysisService::new(ServiceConfig {
            workers: 1,
            capacity_charges: u64::MAX / 2,
            cache_enabled: false,
            ..ServiceConfig::default()
        });
        for (i, (analysis, program)) in reqs.iter().enumerate() {
            let line = line_for(i as u64, analysis, program);
            let out = baseline.run_batch(&[&line]);
            truth.insert(
                (analysis, program.clone()),
                ok_of(&out[0].response.status).1,
            );
        }
    }
    println!(
        "{} programs across cfa.src / cfa.cps / mfp.flat",
        reqs.len()
    );

    let scratch = std::env::temp_dir().join(format!("cpsdfa-e23-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let config_for = |dir: &std::path::Path| ServiceConfig {
        workers: 1,
        capacity_charges: u64::MAX / 2,
        persist_dir: Some(dir.to_path_buf()),
        certify_sample: 1,
        ..ServiceConfig::default()
    };

    // -- Phase A: cold fill + watch session ---------------------------------
    let warm_dir = scratch.join("restart");
    let session_base = families::dispatch(*ns.last().unwrap()).to_string();
    {
        let service = AnalysisService::new(config_for(&warm_dir));
        for (i, (analysis, program)) in reqs.iter().enumerate() {
            let line = line_for(i as u64, analysis, program);
            let out = service.run_batch(&[&line]);
            let (served, digest) = ok_of(&out[0].response.status);
            assert_eq!(served, Served::Miss, "phase A solves cold");
            assert_eq!(digest, truth[&(*analysis, program.clone())]);
        }
        let line = format!(
            "{{\"id\": 900, \"session\": 9, \"analysis\": \"cfa.cps\", \"program\": \"{}\"}}",
            cpsdfa_service::json::escape(&session_base)
        );
        service.run_batch(&[&line]);
    }

    // -- Phase B: restart, measure the warm hit-rate ------------------------
    let (recovered, warm_hit_rate);
    {
        let service = AnalysisService::new(config_for(&warm_dir));
        let rec = *service.recovery().expect("persist dir recovers");
        assert_eq!(rec.dropped(), 0, "clean shutdown leaves no corruption");
        assert_eq!(rec.sessions, 1, "watch session journaled: {rec:?}");
        recovered = rec.recovered;
        let mut warm_served = 0usize;
        for (i, (analysis, program)) in reqs.iter().enumerate() {
            let line = line_for(1000 + i as u64, analysis, program);
            let out = service.run_batch(&[&line]);
            let (served, digest) = ok_of(&out[0].response.status);
            assert_eq!(digest, truth[&(*analysis, program.clone())]);
            if served == Served::Hit {
                warm_served += 1;
            }
        }
        // The journaled session warm-starts an edit of its last program —
        // an answer no cache key could have served.
        let edited = cpsdfa_syntax::build::let_(
            "e23fresh",
            cpsdfa_syntax::build::num(3),
            families::dispatch(*ns.last().unwrap()),
        )
        .to_string();
        let line = format!(
            "{{\"id\": 901, \"session\": 9, \"analysis\": \"cfa.cps\", \"program\": \"{}\"}}",
            cpsdfa_service::json::escape(&edited)
        );
        let out = service.run_batch(&[&line]);
        let (served, _) = ok_of(&out[0].response.status);
        assert_eq!(served, Served::Warm, "journaled session warm-starts");
        warm_hit_rate = warm_served as f64 / reqs.len() as f64;
        assert!(
            warm_hit_rate > 0.0,
            "post-restart warm hit-rate must be nonzero"
        );
        let stats = service.cache_stats();
        assert_eq!(
            stats.certify_fail, 0,
            "nothing to refute after a clean restart"
        );
        assert!(stats.certify_ok > 0, "served answers were certified");
    }
    println!(
        "restart recovery: {recovered} entries re-admitted, post-restart \
         warm hit-rate {:.0}%",
        warm_hit_rate * 100.0
    );
    sink.gauge("e23.restart.recovered", recovered);
    sink.gauge(
        "e23.restart.warm_hit_rate_x100",
        (warm_hit_rate * 100.0) as u64,
    );

    // -- Phase C: the fault loop --------------------------------------------
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut faults_injected = 0u64;
    let mut faults_detected = 0u64;
    let chaos_reqs: &[(&'static str, String)] = &reqs[..reqs.len().min(6)];
    for fault in PersistFault::ALL {
        let dir = scratch.join(fault.as_str());
        {
            let mut cfg = config_for(&dir);
            cfg.persist_faults = Some(Arc::new(PersistFaultPlan::new(fault, 2)));
            let service = AnalysisService::new(cfg);
            for (i, (analysis, program)) in chaos_reqs.iter().enumerate() {
                let line = line_for(i as u64, analysis, program);
                let out = service.run_batch(&[&line]);
                let (_, digest) = ok_of(&out[0].response.status);
                assert_eq!(
                    digest,
                    truth[&(*analysis, program.clone())],
                    "{fault:?}: a spill fault must never change the served answer"
                );
            }
            assert!(
                service
                    .config()
                    .persist_faults
                    .as_ref()
                    .unwrap()
                    .has_fired(),
                "{fault:?}: the plan must fire"
            );
            faults_injected += 1;
        }
        // Restart: detection. Kill-before-rename loses the entry without
        // corrupting anything (detected as a swept interruption); the
        // other three leave damage recovery must classify and delete.
        let service = AnalysisService::new(config_for(&dir));
        let rec = *service.recovery().expect("persist dir recovers");
        let detected = match fault {
            PersistFault::KillBeforeRename => rec.interrupted,
            PersistFault::TruncateTail | PersistFault::BitFlip => rec.corrupt,
            PersistFault::StaleKey => rec.stale,
        };
        assert_eq!(
            detected, 1,
            "{fault:?}: detected in its own column: {rec:?}"
        );
        faults_detected += detected;
        // Healing: every program still answers with the ground-truth
        // digest, certified (certify_sample = 1).
        for (i, (analysis, program)) in chaos_reqs.iter().enumerate() {
            let line = line_for(2000 + i as u64, analysis, program);
            let out = service.run_batch(&[&line]);
            let (_, digest) = ok_of(&out[0].response.status);
            assert_eq!(digest, truth[&(*analysis, program.clone())], "{fault:?}");
        }
        assert_eq!(
            service.cache_stats().certify_fail,
            0,
            "{fault:?}: recovery left nothing refutable in the cache"
        );
        // A second restart proves the damage was deleted, not skipped.
        let clean = AnalysisService::new(config_for(&dir));
        let rec2 = *clean.recovery().expect("persist dir recovers");
        assert_eq!(
            rec2.corrupt + rec2.stale + rec2.interrupted,
            0,
            "{fault:?}: healed directory recovers clean: {rec2:?}"
        );
        sink.counter(&format!("e23.fault.{}.detected", fault.as_str()), detected);
        rows.push(vec![
            fault.as_str().to_owned(),
            format!("{detected}"),
            format!("{}", rec.recovered),
            "0".to_owned(),
            "yes".to_owned(),
        ]);
    }
    println!(
        "\n{}",
        render_table(
            &["fault", "detected", "recovered", "mis-served", "healed"],
            &rows
        )
    );
    assert_eq!(
        faults_detected, faults_injected,
        "every injected persistence fault must be detected"
    );
    println!(
        "{faults_injected}/{faults_injected} injected faults detected and healed, \
         0 wrong answers served"
    );
    sink.gauge("e23.faults.injected", faults_injected);
    sink.gauge("e23.faults.detected", faults_detected);

    let _ = std::fs::remove_dir_all(&scratch);

    // -- Artifact ------------------------------------------------------------
    bench_service_merge(&[(
        "e23",
        format!(
            "{{\"faults_injected\": {faults_injected}, \"faults_detected\": {faults_detected}, \
             \"mis_served\": 0, \"restart_recovered\": {recovered}, \
             \"warm_hit_rate\": {warm_hit_rate:.2}, \"programs\": {}, \
             \"test_mode\": {test_mode}}}",
            reqs.len()
        ),
    )]);
}
