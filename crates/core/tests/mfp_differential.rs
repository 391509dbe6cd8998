//! Differential tests for the sparse MFP solver (`Cfg::solve_mfp`): its
//! reaching-sources + def-use formulation must return exactly the least
//! fixpoint of the textbook per-node-environment equations, as computed
//! independently by `certify::mfp_least_model`. Every summary of a lowered
//! program must also pass the checker built on that reference
//! (`certify_mfp`).
//!
//! The inputs cover the shapes the exactness argument in `core::mfp` leans
//! on: the first-order families at daemon sizes, random first-order
//! programs, and hand-built `Cfg::from_parts` graphs with back edges,
//! `Sum`, multiply-defined variables, unreachable definitions, an entry
//! node that defines a variable, and an isolated node — plus random graphs
//! that mix all of them, over three finite-height domains.

use cpsdfa_anf::AnfProgram;
use cpsdfa_core::certify::{certify_mfp, mfp_least_model};
use cpsdfa_core::domain::{Flat, NumDomain, Parity, Sign};
use cpsdfa_core::mfp::{Cfg, Cond, DfEnv, DfSummary, Node, NodeId, Stmt};
use cpsdfa_syntax::Term;
use cpsdfa_workloads::families;
use cpsdfa_workloads::random::{corpus, GenConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The sparse `Flat` summary of a lowered program certifies.
fn check_program(t: &Term, what: &str) {
    let p = AnfProgram::from_term(t);
    let cfg = Cfg::from_first_order(&p).unwrap_or_else(|e| panic!("{what}: {e}"));
    let sparse = cfg
        .solve_mfp::<Flat>(cfg.initial_env(&p))
        .unwrap_or_else(|e| panic!("{what}: sparse MFP failed: {e}"));
    certify_mfp(&p, &sparse).unwrap_or_else(|e| panic!("{what}: summary refuted: {e}"));
}

/// Sparse == least model on a hand-built graph from `init`; returns the
/// summary.
fn check_graph<D: NumDomain>(g: &Cfg, init: DfEnv<D>, what: &str) -> DfSummary<D> {
    let sparse = g
        .solve_mfp::<D>(init.clone())
        .unwrap_or_else(|e| panic!("{what}: sparse MFP failed: {e}"));
    assert_eq!(
        sparse,
        mfp_least_model::<D>(g, init),
        "{what}: sparse MFP is not the least model"
    );
    sparse
}

/// [`check_graph`] over `Flat` and `Sign` from all-⊤ and all-⊥ entry
/// values and over `Parity` from all-⊥; returns the `Flat` summary from
/// all-⊥.
fn check_graph_all_domains(g: &Cfg, what: &str) -> DfSummary<Flat> {
    check_graph(g, all_top::<Flat>(g), what);
    check_graph(g, all_top::<Sign>(g), what);
    check_graph(g, g.bottom_env::<Sign>(), what);
    check_graph(g, g.bottom_env::<Parity>(), what);
    check_graph(g, g.bottom_env::<Flat>(), what)
}

/// Every variable ⊤ on entry.
fn all_top<D: NumDomain>(g: &Cfg) -> DfEnv<D> {
    g.bottom_env::<D>().iter().map(|_| D::top()).collect()
}

type VarIdx = u32;

fn node(stmt: Stmt, succs: &[usize]) -> Node {
    Node {
        stmt,
        succs: succs.iter().map(|&s| NodeId(s)).collect(),
        cond: None,
    }
}

fn branch(test: VarIdx, succs: [usize; 2]) -> Node {
    Node {
        stmt: Stmt::Nop,
        succs: succs.iter().map(|&s| NodeId(s)).collect(),
        cond: Some(Cond::Var(v(test))),
    }
}

fn v(i: VarIdx) -> cpsdfa_anf::VarId {
    cpsdfa_anf::VarId(i)
}

fn graph(nodes: Vec<Node>, exit: usize, vars: usize) -> Cfg {
    Cfg::from_parts(nodes, NodeId(0), NodeId(exit), vars).expect("hand-built graph is well-formed")
}

#[test]
fn chain_families_at_daemon_sizes() {
    for n in [16, 64, 192, 320] {
        check_program(&families::diamond_chain(n), &format!("diamond_chain({n})"));
        check_program(&families::cond_chain(n), &format!("cond_chain({n})"));
    }
}

#[test]
fn random_first_order_programs() {
    // Order 0 generates no function types; the few programs that still
    // apply a non-primitive are out of the first-order fragment.
    let config = GenConfig {
        max_order: 0,
        max_depth: 8,
        diamond_bias: 30,
        free_inputs: 35,
        ..GenConfig::default()
    };
    let mut lowered = 0;
    for (i, t) in corpus(0x0_3FF, 300, &config).iter().enumerate() {
        if Cfg::from_first_order(&AnfProgram::from_term(t)).is_ok() {
            check_program(t, &format!("random program {i}"));
            lowered += 1;
        }
    }
    assert!(
        lowered >= 150,
        "only {lowered} of 300 programs are first-order"
    );
}

#[test]
fn back_edge_through_a_self_increment() {
    // x := 0; while z { x := x + 1 }; y := x
    let (x, y, z) = (0, 1, 2);
    let g = graph(
        vec![
            node(Stmt::Const(v(x), 0), &[1]),
            branch(z, [2, 3]),
            node(Stmt::Add1(v(x), v(x)), &[1]),
            node(Stmt::Copy(v(y), v(x)), &[4]),
            node(Stmt::Nop, &[]),
        ],
        4,
        3,
    );
    let s = check_graph_all_domains(&g, "back edge");
    assert!(s.get(v(x)).is_top() && s.get(v(y)).is_top());
    // The same loop as a self-edge on the incrementing node.
    let g = graph(
        vec![
            node(Stmt::Const(v(x), 0), &[1]),
            Node {
                stmt: Stmt::Add1(v(x), v(x)),
                succs: vec![NodeId(1), NodeId(2)],
                cond: Some(Cond::Var(v(z))),
            },
            node(Stmt::Copy(v(y), v(x)), &[3]),
            node(Stmt::Nop, &[]),
        ],
        3,
        3,
    );
    let s = check_graph_all_domains(&g, "self edge");
    assert!(s.get(v(x)).is_top() && s.get(v(y)).is_top());
}

#[test]
fn sum_over_merged_and_repeated_operands() {
    // {a := 1; b := 2} or {a := 2; b := 1}; c := a + b; d := c + c; e := a + a
    let (a, b, c, d, e, z) = (0, 1, 2, 3, 4, 5);
    let g = graph(
        vec![
            node(Stmt::Const(v(c), 0), &[1]),
            branch(z, [2, 4]),
            node(Stmt::Const(v(a), 1), &[3]),
            node(Stmt::Const(v(b), 2), &[6]),
            node(Stmt::Const(v(a), 2), &[5]),
            node(Stmt::Const(v(b), 1), &[6]),
            node(Stmt::Sum(v(c), v(a), v(b)), &[7]),
            node(Stmt::Sum(v(d), v(c), v(c)), &[8]),
            node(Stmt::Sum(v(e), v(b), v(b)), &[9]),
            node(Stmt::Nop, &[]),
        ],
        9,
        6,
    );
    let s = check_graph_all_domains(&g, "sum");
    // c's two definitions (0 at the entry, ⊤ after the merge) join to ⊤.
    assert!(s.get(v(c)).is_top() && s.get(v(d)).is_top() && s.get(v(e)).is_top());
    // Straight-line sums stay exact.
    let g = graph(
        vec![
            node(Stmt::Const(v(a), 3), &[1]),
            node(Stmt::Sum(v(b), v(a), v(a)), &[2]),
            node(Stmt::Sum(v(c), v(a), v(b)), &[3]),
            node(Stmt::Nop, &[]),
        ],
        3,
        6,
    );
    let s = check_graph_all_domains(&g, "straight sum");
    assert_eq!(s.get(v(b)).as_const(), Some(6));
    assert_eq!(s.get(v(c)).as_const(), Some(9));
}

#[test]
fn a_variable_with_three_definitions() {
    // x := 5 | x := 5 | x := w + 1 (w = 4); y := x
    let (x, y, w, z) = (0, 1, 2, 3);
    let g = graph(
        vec![
            node(Stmt::Const(v(w), 4), &[1]),
            branch(z, [2, 3]),
            node(Stmt::Const(v(x), 5), &[6]),
            branch(z, [4, 5]),
            node(Stmt::Const(v(x), 5), &[6]),
            node(Stmt::Add1(v(x), v(w)), &[6]),
            node(Stmt::Copy(v(y), v(x)), &[7]),
            node(Stmt::Nop, &[]),
        ],
        7,
        4,
    );
    let s = check_graph_all_domains(&g, "three definitions");
    assert_eq!(s.get(v(x)).as_const(), Some(5));
    assert_eq!(s.get(v(y)).as_const(), Some(5));
}

#[test]
fn unreachable_definitions_feeding_each_other() {
    // Reachable: entry → exit. Unreachable: a := b + 1 ⇄ b := a − 1, and
    // a seeded pair c := 7 → d := c + 1 → (back to c's successor).
    let (a, b, c, d) = (0, 1, 2, 3);
    let g = graph(
        vec![
            node(Stmt::Nop, &[1]),
            node(Stmt::Nop, &[]),
            node(Stmt::Add1(v(a), v(b)), &[3]),
            node(Stmt::Sub1(v(b), v(a)), &[2]),
            node(Stmt::Const(v(c), 7), &[5]),
            node(Stmt::Add1(v(d), v(c)), &[4]),
        ],
        1,
        4,
    );
    let s = check_graph_all_domains(&g, "unreachable cycle");
    // Entry values never reach the unreachable cycle, so a and b stay ⊥
    // even when every variable starts at ⊤ (checked in the helper).
    assert!(s.get(v(a)).is_bot() && s.get(v(b)).is_bot());
    assert_eq!(s.get(v(c)).as_const(), Some(7));
    assert_eq!(s.get(v(d)).as_const(), Some(8));
    let s = check_graph(&g, all_top::<Flat>(&g), "unreachable cycle from ⊤");
    assert!(s.get(v(a)).is_bot() && s.get(v(b)).is_bot());
}

#[test]
fn an_entry_definition_kills_the_entry_value() {
    // Entry x := 5 with x = ⊤ on entry; y := x sees only the 5. A back edge
    // into the entry keeps the kill in force on every pass.
    let (x, y, z) = (0, 1, 2);
    let g = graph(
        vec![
            node(Stmt::Const(v(x), 5), &[1]),
            node(Stmt::Copy(v(y), v(x)), &[2]),
            branch(z, [0, 3]),
            node(Stmt::Nop, &[]),
        ],
        3,
        3,
    );
    let s = check_graph(&g, all_top::<Flat>(&g), "entry definition");
    assert_eq!(s.get(v(x)).as_const(), Some(5));
    assert_eq!(s.get(v(y)).as_const(), Some(5));
    check_graph_all_domains(&g, "entry definition");
}

#[test]
fn an_isolated_node() {
    // An isolated copy reads nothing (its in-set is empty), an isolated
    // havoc still defines ⊤.
    let (x, w, h) = (0, 1, 2);
    let g = graph(
        vec![
            node(Stmt::Const(v(x), 1), &[1]),
            node(Stmt::Nop, &[]),
            node(Stmt::Copy(v(w), v(x)), &[]),
            node(Stmt::Havoc(v(h)), &[]),
        ],
        1,
        3,
    );
    let s = check_graph(&g, all_top::<Flat>(&g), "isolated");
    assert!(s.get(v(w)).is_bot());
    assert!(s.get(v(h)).is_top());
    check_graph_all_domains(&g, "isolated");
}

/// A random well-formed graph: up to 12 nodes over up to 4 variables, any
/// edges (so cycles, unreachable and isolated nodes all occur), every
/// statement kind.
fn random_graph(seed: u64) -> Cfg {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(2..=12usize);
    let vars = rng.gen_range(1..=4u32);
    let var = |rng: &mut StdRng| v(rng.gen_range(0..vars));
    let nodes = (0..n)
        .map(|_| {
            let stmt = match rng.gen_range(0..7u32) {
                0 => Stmt::Const(var(&mut rng), rng.gen_range(-2..=2i64)),
                1 => Stmt::Copy(var(&mut rng), var(&mut rng)),
                2 => Stmt::Add1(var(&mut rng), var(&mut rng)),
                3 => Stmt::Sub1(var(&mut rng), var(&mut rng)),
                4 => Stmt::Sum(var(&mut rng), var(&mut rng), var(&mut rng)),
                5 => Stmt::Havoc(var(&mut rng)),
                _ => Stmt::Nop,
            };
            let succs: Vec<NodeId> = (0..rng.gen_range(0..=2usize))
                .map(|_| NodeId(rng.gen_range(0..n)))
                .collect();
            let cond = (succs.len() == 2).then(|| Cond::Var(var(&mut rng)));
            Node { stmt, succs, cond }
        })
        .collect();
    Cfg::from_parts(nodes, NodeId(0), NodeId(n - 1), vars as usize)
        .expect("random graph is well-formed")
}

proptest! {
    #[test]
    fn random_graphs_match_the_least_model(seed in 0u64..100_000) {
        let g = random_graph(seed);
        check_graph_all_domains(&g, &format!("random graph {seed}"));
    }
}
