//! Constraint-based 0CFA — the *baseline* formulation of control-flow
//! analysis (Shivers 1991), for comparison with the paper's derived
//! analyzers.
//!
//! §6.1 explains the folklore observation that "Shivers's 0CFA analysis of
//! CPS programs merges distinct control paths unnecessarily" by the false
//! returns of Figure 6. To make that connection concrete, this module
//! implements the standard *constraint/fixpoint* formulation of 0CFA over
//! both program representations:
//!
//! * [`zero_cfa`] — set constraints over the ANF source; corresponds to the
//!   closure component of `M_e` (Figure 4) under the [`AnyNum`] domain;
//! * [`zero_cfa_cps`] — set constraints over cps(Λ), where continuations
//!   are values; corresponds to the closure/continuation components of
//!   `M_s` (Figure 6), including its false returns.
//!
//! Both run on the shared sparse [`WorklistSolver`] with **semi-naïve
//! (delta) propagation**: constraints re-fire only when a watched flow node
//! grows, and a firing consumes only the *new* elements
//! ([`WorklistSolver::take_deltas`]) from the node's append-only growth log
//! ([`DeltaNodes`]), so a k-element set that grew by one costs one element
//! of work, not k. While the fixpoint moves, node sets live as growth logs
//! plus bitsets over [`DeltaNodes`]' dense value universe — each abstract
//! closure is hashed once, then forwarded between nodes by index — and are
//! interned into the hash-consed [`SetPool`] only at the commit point after
//! convergence ([`DeltaNodes::commit_into`]). Two further cheats ride on
//! the delta discipline: seed edges are applied directly to the store at
//! setup instead of becoming constraints, and watching constraints are not
//! posted initially — an empty watched node means the first firing would
//! consume an empty delta, so [`WorklistSolver::node_grew`] posting on
//! first growth is enough. The reference both solvers are tested against
//! is [`certify`](crate::certify), which re-derives every rule from the
//! AST rather than from the constraint lists built here, and accepts an
//! answer only if it is exactly the least model of those rules.
//!
//! Two deliberate differences from the derivation-style analyzers, checked
//! by tests because they are findings, not bugs:
//!
//! 1. The constraint solver is *reachability-blind*: it generates
//!    constraints for all code, so dead code can contribute flows that the
//!    interpreters never see.
//! 2. It computes a least fixpoint, so recursion costs iteration rather
//!    than a §4.4 cut to `CL⊤` — on looping programs 0CFA is strictly
//!    *more* precise than the derivation-style analyzers' closure sets.
//!
//! [`AnyNum`]: crate::domain::AnyNum

use crate::absval::{AbsClo, AbsKont};
use crate::budget::{AnalysisBudget, AnalysisError};
use crate::govern::RunGuard;
use crate::labtab::LabelTable;
use crate::setpool::{DeltaNodes, SetPool};
use crate::solver::{ConstraintId, DeltaRange, SolverMode, WorklistSolver};
use crate::stats::SolverStats;
use crate::trace::{self, NoopSink, TraceSink};
use cpsdfa_anf::{AValKind, Anf, AnfKind, AnfProgram, Bind, VarId};
use cpsdfa_cps::{CTermKind, CValKind, CVarId, CpsProgram};
use cpsdfa_syntax::Label;
use std::collections::BTreeSet;
use std::hash::Hash;
use std::sync::Arc;

/// The result of source-level 0CFA.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CfaResult {
    /// Closure set per variable. The sets are the hash-consed commit
    /// handles of the run's [`SetPool`]: identical sets (every call site of
    /// a function, say) share one allocation, and cloning a result is
    /// handle-copying, not set-copying.
    pub vars: Vec<Arc<BTreeSet<AbsClo>>>,
    /// Closure set flowing out of each term (keyed by term label; dense).
    /// Shared commit handles, as in [`CfaResult::vars`].
    pub terms: LabelTable<Arc<BTreeSet<AbsClo>>>,
    /// Call graph: call-site `let` label → applicable closures (dense).
    /// `Arc`-shared like the flow sets, so cloning a result (a cache hit, a
    /// noop warm step) never deep-copies the call graph.
    pub calls: Arc<LabelTable<BTreeSet<AbsClo>>>,
    /// Fixpoint work performed: constraint firings. Always ≥ 1.
    pub iterations: u64,
}

impl CfaResult {
    /// The closure set of a variable.
    pub fn get(&self, v: VarId) -> &BTreeSet<AbsClo> {
        self.vars[v.index()].as_ref()
    }

    /// True if the analysis solutions (not the work counters) coincide.
    pub fn same_solution(&self, other: &CfaResult) -> bool {
        self.vars == other.vars && self.terms == other.terms && self.calls == other.calls
    }
}

// ---------------------------------------------------------------------------
// Source-level constraint generation
// ---------------------------------------------------------------------------

/// A flow node of the source-level constraint graph.
#[derive(Clone, Copy)]
enum Node {
    Var(VarId),
    Term(Label),
}

/// A static constraint of the source-level graph.
enum Edge {
    /// constant ⊆ node
    Seed(BTreeSet<AbsClo>, Node),
    /// src ⊆ dst
    Sub(Node, Node),
    /// application: callees from `f`, argument flow + return flow
    Call {
        f: Node,
        arg: Node,
        bind: VarId,
        site: Label,
    },
}

fn collect_edges(prog: &AnfProgram) -> Vec<Edge> {
    let mut edges: Vec<Edge> = Vec::new();
    let flow_of = |v: &cpsdfa_anf::AVal| -> Result<BTreeSet<AbsClo>, VarId> {
        match &v.kind {
            AValKind::Num(_) => Ok(BTreeSet::new()),
            AValKind::Add1 => Ok(BTreeSet::from([AbsClo::Inc])),
            AValKind::Sub1 => Ok(BTreeSet::from([AbsClo::Dec])),
            AValKind::Lam(..) => Ok(BTreeSet::from([AbsClo::Lam(v.label)])),
            AValKind::Var(x) => Err(prog.var_id(x).expect("indexed variable")),
        }
    };
    let val_node = |v: &cpsdfa_anf::AVal, dst: Node, edges: &mut Vec<Edge>| match flow_of(v) {
        Ok(set) => {
            if !set.is_empty() {
                edges.push(Edge::Seed(set, dst));
            }
        }
        Err(var) => edges.push(Edge::Sub(Node::Var(var), dst)),
    };

    fn gen(
        m: &Anf,
        prog: &AnfProgram,
        edges: &mut Vec<Edge>,
        val_node: &impl Fn(&cpsdfa_anf::AVal, Node, &mut Vec<Edge>),
    ) {
        match &m.kind {
            AnfKind::Value(v) => {
                val_node(v, Node::Term(m.label), edges);
                if let AValKind::Lam(_, body) = &v.kind {
                    gen(body, prog, edges, val_node);
                }
            }
            AnfKind::Let { var, bind, body } => {
                let x = prog.var_id(var).expect("indexed variable");
                match bind {
                    Bind::Value(v) => {
                        val_node(v, Node::Var(x), edges);
                        if let AValKind::Lam(_, lbody) = &v.kind {
                            gen(lbody, prog, edges, val_node);
                        }
                    }
                    Bind::App(f, a) => {
                        // Materialize operand flows through the term nodes
                        // of the operands themselves.
                        val_node(f, Node::Term(f.label), edges);
                        val_node(a, Node::Term(a.label), edges);
                        if let AValKind::Lam(_, b) = &f.kind {
                            gen(b, prog, edges, val_node);
                        }
                        if let AValKind::Lam(_, b) = &a.kind {
                            gen(b, prog, edges, val_node);
                        }
                        edges.push(Edge::Call {
                            f: Node::Term(f.label),
                            arg: Node::Term(a.label),
                            bind: x,
                            site: m.label,
                        });
                    }
                    Bind::If0(c, t, e) => {
                        val_node(c, Node::Term(c.label), edges);
                        gen(t, prog, edges, val_node);
                        gen(e, prog, edges, val_node);
                        edges.push(Edge::Sub(Node::Term(t.label), Node::Var(x)));
                        edges.push(Edge::Sub(Node::Term(e.label), Node::Var(x)));
                    }
                    Bind::Loop => {}
                }
                gen(body, prog, edges, val_node);
                edges.push(Edge::Sub(Node::Term(body.label), Node::Term(m.label)));
            }
        }
    }
    gen(prog.root(), prog, &mut edges, &val_node);
    edges
}

/// Dense indexing of the flow nodes: variables first, then term labels.
/// Labels are dense per program, so the label→node map is a flat `Vec`
/// (sentinel `usize::MAX` = unindexed) instead of a `HashMap`, and the
/// propagation-target set — exactly the key set of [`CfaResult::terms`] —
/// is a flag per label.
struct NodeIndex {
    num_vars: usize,
    term_ids: Vec<usize>,
    num_terms: usize,
    dst_flags: Vec<bool>,
}

const UNINDEXED: usize = usize::MAX;

impl NodeIndex {
    fn build(prog: &AnfProgram, edges: &[Edge]) -> NodeIndex {
        let n = prog.label_count() as usize;
        let mut idx = NodeIndex {
            num_vars: prog.num_vars(),
            term_ids: vec![UNINDEXED; n],
            num_terms: 0,
            dst_flags: vec![false; n],
        };
        for e in edges {
            match e {
                Edge::Seed(_, dst) => idx.touch_dst(*dst),
                Edge::Sub(src, dst) => {
                    idx.touch(*src);
                    idx.touch_dst(*dst);
                }
                Edge::Call { f, arg, .. } => {
                    idx.touch(*f);
                    idx.touch(*arg);
                }
            }
        }
        // Lambda bodies are sources of dynamically-discovered return edges;
        // a constant body never appears in the static edges, so index them
        // all up front.
        for lam in prog.lambdas().values() {
            idx.touch(Node::Term(lam.body.label));
        }
        idx
    }

    fn touch(&mut self, n: Node) {
        if let Node::Term(l) = n {
            let i = l.index() as usize;
            if i >= self.term_ids.len() {
                self.term_ids.resize(i + 1, UNINDEXED);
                self.dst_flags.resize(i + 1, false);
            }
            if self.term_ids[i] == UNINDEXED {
                self.term_ids[i] = self.num_terms;
                self.num_terms += 1;
            }
        }
    }

    fn touch_dst(&mut self, n: Node) {
        self.touch(n);
        if let Node::Term(l) = n {
            self.dst_flags[l.index() as usize] = true;
        }
    }

    fn node(&self, n: Node) -> usize {
        match n {
            Node::Var(v) => v.index(),
            Node::Term(l) => self.num_vars + self.term_ids[l.index() as usize],
        }
    }

    fn total(&self) -> usize {
        self.num_vars + self.num_terms
    }

    /// Builds [`CfaResult::terms`] by committing every propagation-target
    /// term node through `commit`, in label order.
    fn commit_dst_terms(
        &self,
        mut commit: impl FnMut(usize) -> Arc<BTreeSet<AbsClo>>,
    ) -> LabelTable<Arc<BTreeSet<AbsClo>>> {
        let mut terms = LabelTable::new(self.dst_flags.len() as u32);
        for (i, &is_dst) in self.dst_flags.iter().enumerate() {
            if is_dst {
                let l = Label::new(i as u32);
                terms.insert(l, commit(self.node(Node::Term(l))));
            }
        }
        terms
    }
}

/// A source-level constraint over indexed flow nodes. The constraints store
/// only their *targets*: sources are owned by the solver's watch edges and
/// arrive as delta ranges at firing time. Seed edges never become
/// constraints — they fire exactly once, so setup applies them directly.
#[derive(Clone, Copy)]
enum SrcConstraint {
    Sub(usize),
    Call {
        arg: usize,
        bind: usize,
        site: Label,
    },
}

/// Flat per-label side tables for source-level call wiring: everything a
/// firing needs from the AST, pre-resolved to node indices, so the firing
/// bodies never touch the program tree.
struct SrcTables {
    /// By lambda label: `(param var node, body term node)`; `UNINDEXED`
    /// when the label is not a lambda.
    lam: Vec<(usize, usize)>,
    /// By flow node: call wires out of this node are registered. True for
    /// every variable and every term node some static edge targets. A term
    /// node no static edge targets — a literal operand, a constant lambda
    /// body — stays empty forever, so [`fire_src`] skips wires from it.
    live_src: Vec<bool>,
}

impl SrcTables {
    fn build(prog: &AnfProgram, idx: &NodeIndex) -> SrcTables {
        let mut lam = vec![(UNINDEXED, UNINDEXED); prog.label_count() as usize];
        for (l, r) in prog.lambdas() {
            let i = l.index() as usize;
            if i >= lam.len() {
                lam.resize(i + 1, (UNINDEXED, UNINDEXED));
            }
            lam[i] = (r.param_id.index(), idx.node(Node::Term(r.body.label)));
        }
        let mut live_src = vec![true; idx.total()];
        for (&t, &is_dst) in idx.term_ids.iter().zip(&idx.dst_flags) {
            if t != UNINDEXED {
                live_src[idx.num_vars + t] = is_dst;
            }
        }
        SrcTables { lam, live_src }
    }
}

/// Registers constraint `c` as a watcher of `node`. The watch starts at
/// cursor 0 and is posted at once when the log is non-empty, so its first
/// firing replays the whole history.
fn watch_from<T: Eq + Hash + Clone>(
    solver: &mut WorklistSolver,
    nodes: &DeltaNodes<T>,
    node: usize,
    c: ConstraintId,
) {
    solver.watch(node, c);
    if !nodes.log(node).is_empty() {
        solver.post(c);
    }
}

/// Registers the call wire `src ⊆ dst` as a new `Sub` constraint.
fn add_wire(
    solver: &mut WorklistSolver,
    nodes: &DeltaNodes<AbsClo>,
    constraints: &mut Vec<SrcConstraint>,
    (src, dst): (usize, usize),
) {
    let c = solver.add_constraint(constraints.len() as u32);
    constraints.push(SrcConstraint::Sub(dst));
    watch_from(solver, nodes, src, c);
}

/// Fires source constraint `ci` of a [`zero_cfa_impl`] run.
fn fire_src(
    ci: ConstraintId,
    solver: &mut WorklistSolver,
    nodes: &mut DeltaNodes<AbsClo>,
    constraints: &mut Vec<SrcConstraint>,
    calls: &mut LabelTable<BTreeSet<AbsClo>>,
    tables: &SrcTables,
    deltas: &mut Vec<DeltaRange>,
) {
    match constraints[ci] {
        SrcConstraint::Sub(dst) => {
            solver.take_deltas(ci, deltas);
            // Watchers are notified once per firing, not per element: the
            // cursors only ever observe the post-batch log length.
            let mut grew = false;
            for &(src, lo, hi) in deltas.iter() {
                grew |= nodes.forward_range(src, lo, hi, dst).is_some();
            }
            if grew {
                solver.node_grew(dst, nodes.log(dst).len());
            }
        }
        SrcConstraint::Call { arg, bind, site } => {
            // The delta of `f` is exactly the not-yet-wired callees.
            solver.take_deltas(ci, deltas);
            for &(f, lo, hi) in deltas.iter() {
                for i in lo..hi {
                    let clo = nodes.log(f)[i].0;
                    if !calls.entry_or_default(site).insert(clo) {
                        continue; // already wired
                    }
                    if let AbsClo::Lam(l) = clo {
                        // Newly-discovered callee: wire the argument flow
                        // into the parameter and the body result into the
                        // binder as persistent sparse edges. The fresh
                        // watches start at cursor 0, so their first delta
                        // carries the sources' full current logs. A wire
                        // from a constant node would never fire: skip it.
                        let (param, body) = tables.lam[l.index() as usize];
                        for wire in [(arg, param), (body, bind)] {
                            if tables.live_src[wire.0] {
                                add_wire(solver, nodes, constraints, wire);
                            }
                        }
                    }
                    // Inc/Dec return numbers: no closure flow.
                }
            }
        }
    }
}

/// Constraint-based 0CFA over an ANF program (sparse worklist solver),
/// under the default [`AnalysisBudget`] — the same §6.2 safety bound the
/// abstract interpreters enforce, charged per constraint firing.
///
/// ```
/// use cpsdfa_anf::AnfProgram;
/// use cpsdfa_core::cfa::zero_cfa;
///
/// let p = AnfProgram::parse("(let (f (lambda (x) x)) (f f))").unwrap();
/// let r = zero_cfa(&p).unwrap();
/// // the identity flows to f, and (via the self-application) to x
/// let f = p.var_named("f").unwrap();
/// let x = p.var_named("x").unwrap();
/// assert_eq!(r.get(f).len(), 1);
/// assert_eq!(r.get(f), r.get(x));
/// ```
pub fn zero_cfa(prog: &AnfProgram) -> Result<CfaResult, AnalysisError> {
    Ok(zero_cfa_instrumented(prog)?.0)
}

/// [`zero_cfa`] plus the solver/pool counters of the run.
pub fn zero_cfa_instrumented(prog: &AnfProgram) -> Result<(CfaResult, SolverStats), AnalysisError> {
    zero_cfa_guarded(
        prog,
        &RunGuard::new(AnalysisBudget::default()),
        &mut NoopSink,
    )
}

/// [`zero_cfa`] under a full [`RunGuard`] and a trace sink: firings are
/// charged through the guard (budget + deadline + cancellation + injected
/// faults) and the delta store's footprint is checked against the guard's
/// memory ceiling once per firing. The run executes inside a `cfa.src`
/// span and flushes its solver/pool counters into the sink at the commit
/// point (prefix `cfa.src`); pass [`NoopSink`] for the zero-overhead path.
/// This is the `cfa.src` rung [`govern::solve`](crate::govern::solve) runs.
pub fn zero_cfa_guarded(
    prog: &AnfProgram,
    guard: &RunGuard,
    sink: &mut impl TraceSink,
) -> Result<(CfaResult, SolverStats), AnalysisError> {
    trace::with_span(sink, "cfa.src", |sink| zero_cfa_impl(prog, guard, sink))
}

/// [`zero_cfa_guarded`] with a [`SolverMode`] argument, kept because
/// `cpsbench/src/replay.rs` calls it.
pub fn zero_cfa_guarded_mode(
    prog: &AnfProgram,
    _mode: SolverMode,
    guard: &RunGuard,
    sink: &mut impl TraceSink,
) -> Result<(CfaResult, SolverStats), AnalysisError> {
    zero_cfa_guarded(prog, guard, sink)
}

/// Source-level 0CFA — the one place it registers its constraints. Every
/// node starts empty and every watch at cursor 0; the static seeds are
/// poured last, after every watch exists, so `node_grew` reaches all
/// watchers. Counters go under the `cfa.src` prefix.
fn zero_cfa_impl(
    prog: &AnfProgram,
    guard: &RunGuard,
    sink: &mut impl TraceSink,
) -> Result<(CfaResult, SolverStats), AnalysisError> {
    let edges = collect_edges(prog);
    let idx = NodeIndex::build(prog, &edges);
    let tables = SrcTables::build(prog, &idx);
    let total = idx.total();

    let mut solver = WorklistSolver::new();
    solver.add_nodes(total);
    solver.reserve(edges.len());
    let mut nodes: DeltaNodes<AbsClo> = DeltaNodes::new(total);
    let mut calls: LabelTable<BTreeSet<AbsClo>> = LabelTable::new(prog.label_count());

    let mut constraints: Vec<SrcConstraint> = Vec::with_capacity(edges.len());
    for e in &edges {
        match e {
            Edge::Seed(..) => {}
            Edge::Sub(src, dst) => {
                let c = solver.add_constraint(constraints.len() as u32);
                constraints.push(SrcConstraint::Sub(idx.node(*dst)));
                solver.watch(idx.node(*src), c);
            }
            Edge::Call { f, arg, bind, site } => {
                let c = solver.add_constraint(constraints.len() as u32);
                constraints.push(SrcConstraint::Call {
                    arg: idx.node(*arg),
                    bind: bind.index(),
                    site: *site,
                });
                solver.watch(idx.node(*f), c);
            }
        }
    }

    for e in &edges {
        if let Edge::Seed(set, dst) = e {
            let dst = idx.node(*dst);
            let mut grew = false;
            for v in set {
                grew |= nodes.add(dst, *v).is_some();
            }
            if grew {
                solver.node_grew(dst, nodes.log(dst).len());
            }
        }
    }

    let mut deltas: Vec<DeltaRange> = Vec::new();
    solver.run_guarded(guard, |solver, ci| {
        guard.charge_memory(nodes.approx_bytes() as u64)?;
        fire_src(
            ci,
            solver,
            &mut nodes,
            &mut constraints,
            &mut calls,
            &tables,
            &mut deltas,
        );
        Ok(())
    })?;

    // Commit point: intern each converged node set (deduping identical
    // ones), variables first, then the propagation targets in label order.
    let mut pool: SetPool<AbsClo> = SetPool::new();
    let mut commit = |node: usize| {
        let id = nodes.commit_into(node, &mut pool);
        pool.get_arc(id)
    };
    let vars: Vec<Arc<BTreeSet<AbsClo>>> = (0..idx.num_vars).map(&mut commit).collect();
    let terms = idx.commit_dst_terms(commit);
    let stats = solver.stats().with_pool(pool.stats());
    stats.emit_into(sink, "cfa.src");
    let iterations = stats.fired.max(1);
    Ok((
        CfaResult {
            vars,
            terms,
            calls: Arc::new(calls),
            iterations,
        },
        stats,
    ))
}

/// A flow value of CPS-level 0CFA: a closure or a reified continuation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CpsFlow {
    /// A procedure.
    Clo(AbsClo),
    /// A continuation.
    Kont(AbsKont),
}

/// The result of CPS-level 0CFA.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpsCfaResult {
    /// Flow set per variable (both namespaces). Shared hash-consed commit
    /// handles, as in [`CfaResult::vars`].
    pub vars: Vec<Arc<BTreeSet<CpsFlow>>>,
    /// Return sites `(k W)` → continuations invoked (dense by site label).
    pub returns: LabelTable<BTreeSet<AbsKont>>,
    /// Call sites → applicable closures (dense by site label).
    pub calls: LabelTable<BTreeSet<AbsClo>>,
    /// Fixpoint work performed: constraint firings. Always ≥ 1.
    pub iterations: u64,
}

impl CpsCfaResult {
    /// The flow set of a variable.
    pub fn get(&self, v: CVarId) -> &BTreeSet<CpsFlow> {
        self.vars[v.index()].as_ref()
    }

    /// True if the analysis solutions (not the work counters) coincide.
    pub fn same_solution(&self, other: &CpsCfaResult) -> bool {
        self.vars == other.vars && self.returns == other.returns && self.calls == other.calls
    }

    /// §6.1's measurable shadow, as in
    /// [`FlowLog::false_return_edges`](crate::flow::FlowLog::false_return_edges):
    /// only `Co` targets merge — the halt continuation is not a procedure
    /// return.
    pub fn false_return_edges(&self) -> usize {
        self.returns
            .values()
            .map(|ks| {
                ks.iter()
                    .filter(|k| matches!(k, AbsKont::Co(_)))
                    .count()
                    .saturating_sub(1)
            })
            .sum()
    }
}

// ---------------------------------------------------------------------------
// CPS-level constraint generation
// ---------------------------------------------------------------------------

/// A CPS operand: either a constant flow or a variable. Shared with the
/// pushdown analyzer ([`crate::pushdown`]), which generates constraints
/// over the same operand shape.
#[derive(Clone, Copy)]
pub(crate) enum Flow {
    None,
    Const(CpsFlow),
    Var(CVarId),
}

/// A static constraint of the CPS-level graph.
enum CpsEdge {
    Seed(CpsFlow, CVarId),
    Sub(CVarId, CVarId),
    /// `(k W)`: for each continuation in `k`, `W` flows to its binder.
    Ret {
        k: CVarId,
        w: Flow,
        site: Label,
    },
    /// `(W₁ W₂ (λx.P))`.
    Call {
        f: Flow,
        arg: Flow,
        cont: Label,
        site: Label,
    },
}

fn collect_cps_edges(prog: &CpsProgram) -> Vec<CpsEdge> {
    let flow_of = |w: &cpsdfa_cps::CVal| -> Flow {
        match &w.kind {
            CValKind::Num(_) => Flow::None,
            CValKind::Add1K => Flow::Const(CpsFlow::Clo(AbsClo::Inc)),
            CValKind::Sub1K => Flow::Const(CpsFlow::Clo(AbsClo::Dec)),
            CValKind::Lam { .. } => Flow::Const(CpsFlow::Clo(AbsClo::Lam(w.label))),
            CValKind::Var(x) => Flow::Var(prog.user_var_id(x).expect("indexed variable")),
        }
    };

    let mut edges: Vec<CpsEdge> = Vec::new();
    fn gen<'p>(
        t: &'p cpsdfa_cps::CTerm,
        prog: &CpsProgram,
        edges: &mut Vec<CpsEdge>,
        flow_of: &impl Fn(&'p cpsdfa_cps::CVal) -> Flow,
    ) {
        match &t.kind {
            CTermKind::Ret(k, w) => {
                let kid = prog.kont_var_id(k).expect("indexed k");
                edges.push(CpsEdge::Ret {
                    k: kid,
                    w: flow_of(w),
                    site: t.label,
                });
                if let CValKind::Lam { body, .. } = &w.kind {
                    gen(body, prog, edges, flow_of);
                }
            }
            CTermKind::Let { var, val, body } => {
                let x = prog.user_var_id(var).expect("indexed variable");
                match flow_of(val) {
                    Flow::None => {}
                    Flow::Const(c) => edges.push(CpsEdge::Seed(c, x)),
                    Flow::Var(y) => edges.push(CpsEdge::Sub(y, x)),
                }
                if let CValKind::Lam { body: b, .. } = &val.kind {
                    gen(b, prog, edges, flow_of);
                }
                gen(body, prog, edges, flow_of);
            }
            CTermKind::Call { f, arg, cont } => {
                edges.push(CpsEdge::Call {
                    f: flow_of(f),
                    arg: flow_of(arg),
                    cont: cont.label,
                    site: t.label,
                });
                if let CValKind::Lam { body, .. } = &f.kind {
                    gen(body, prog, edges, flow_of);
                }
                if let CValKind::Lam { body, .. } = &arg.kind {
                    gen(body, prog, edges, flow_of);
                }
                gen(&cont.body, prog, edges, flow_of);
            }
            CTermKind::LetK {
                k,
                cont,
                then_,
                else_,
                ..
            } => {
                let kid = prog.kont_var_id(k).expect("indexed k");
                edges.push(CpsEdge::Seed(CpsFlow::Kont(AbsKont::Co(cont.label)), kid));
                gen(&cont.body, prog, edges, flow_of);
                gen(then_, prog, edges, flow_of);
                gen(else_, prog, edges, flow_of);
            }
            CTermKind::Loop { cont } => gen(&cont.body, prog, edges, flow_of),
        }
    }
    gen(prog.root(), prog, &mut edges, &flow_of);

    // The top continuation holds `stop`.
    let k0 = prog.kont_var_id(prog.top_k()).expect("top k indexed");
    edges.push(CpsEdge::Seed(CpsFlow::Kont(AbsKont::Stop), k0));
    edges
}

/// A CPS-level constraint over indexed flow nodes. As with
/// [`SrcConstraint`], watched sources live on the solver's watch edges and
/// arrive as delta ranges, so only targets and operands are stored. Seed
/// edges are applied directly at setup and never become constraints.
#[derive(Clone, Copy)]
enum CpsConstraint {
    Sub(usize),
    Ret {
        w: Flow,
        site: Label,
    },
    Call {
        f: Flow,
        arg: Flow,
        cont: Label,
        site: Label,
    },
}

/// Flat per-label side tables for CPS call/return wiring, pre-resolved to
/// variable node indices so the firing bodies never touch the program
/// tree.
#[derive(Clone)]
pub(crate) struct CpsTables {
    /// By lambda label: `(param var node, k var node)`; `UNINDEXED` when
    /// the label is not a lambda.
    pub(crate) lam: Vec<(usize, usize)>,
    /// By continuation label: the continuation's binder var node.
    pub(crate) cont_var: Vec<usize>,
}

impl CpsTables {
    pub(crate) fn build(prog: &CpsProgram) -> CpsTables {
        let n = prog.label_count() as usize;
        let mut lam = vec![(UNINDEXED, UNINDEXED); n];
        for (l, r) in prog.lambdas() {
            let i = l.index() as usize;
            if i >= lam.len() {
                lam.resize(i + 1, (UNINDEXED, UNINDEXED));
            }
            lam[i] = (r.param_id.index(), r.k_id.index());
        }
        let mut cont_var = vec![UNINDEXED; n];
        for (l, r) in prog.conts() {
            let i = l.index() as usize;
            if i >= cont_var.len() {
                cont_var.resize(i + 1, UNINDEXED);
            }
            cont_var[i] = r.var_id.index();
        }
        CpsTables { lam, cont_var }
    }
}

/// Joins `flow` into node `dst`: a constant grows the node's log directly,
/// a variable becomes a persistent delta-watched `Sub` edge whose fresh
/// cursor replays the source's full history on its first firing.
fn cps_wire_flow(
    flow: Flow,
    dst: usize,
    solver: &mut WorklistSolver,
    nodes: &mut DeltaNodes<CpsFlow>,
    constraints: &mut Vec<CpsConstraint>,
) {
    match flow {
        Flow::None => {}
        Flow::Const(cflow) => {
            if let Some(len) = nodes.add(dst, cflow) {
                solver.node_grew(dst, len);
            }
        }
        Flow::Var(v) => {
            let c = solver.add_constraint(constraints.len() as u32);
            constraints.push(CpsConstraint::Sub(dst));
            watch_from(solver, nodes, v.index(), c);
        }
    }
}

/// Wires a newly-discovered callee at `site`: argument into the parameter,
/// the call's continuation into the callee's `k`.
#[allow(clippy::too_many_arguments)]
fn cps_apply_clo(
    v: CpsFlow,
    arg: Flow,
    cont: Label,
    site: Label,
    solver: &mut WorklistSolver,
    nodes: &mut DeltaNodes<CpsFlow>,
    constraints: &mut Vec<CpsConstraint>,
    calls: &mut LabelTable<BTreeSet<AbsClo>>,
    tables: &CpsTables,
) {
    let CpsFlow::Clo(clo) = v else { return };
    if !calls.entry_or_default(site).insert(clo) {
        return; // already wired
    }
    if let AbsClo::Lam(l) = clo {
        let (param, kvar) = tables.lam[l.index() as usize];
        cps_wire_flow(arg, param, solver, nodes, constraints);
        cps_wire_flow(
            Flow::Const(CpsFlow::Kont(AbsKont::Co(cont))),
            kvar,
            solver,
            nodes,
            constraints,
        );
    }
    // Primitives return numbers directly to the continuation: no closure
    // flow.
}

/// Fires CPS constraint `ci`: forwards a `Sub` delta, or wires the
/// continuations (at a return) or callees (at a call) it has not seen yet.
#[allow(clippy::too_many_arguments)]
fn fire_cps(
    ci: ConstraintId,
    solver: &mut WorklistSolver,
    nodes: &mut DeltaNodes<CpsFlow>,
    constraints: &mut Vec<CpsConstraint>,
    returns: &mut LabelTable<BTreeSet<AbsKont>>,
    calls: &mut LabelTable<BTreeSet<AbsClo>>,
    tables: &CpsTables,
    deltas: &mut Vec<DeltaRange>,
) {
    match constraints[ci] {
        CpsConstraint::Sub(dst) => {
            solver.take_deltas(ci, deltas);
            // One watcher notification per firing, not per element.
            let mut grew = false;
            for &(src, lo, hi) in deltas.iter() {
                grew |= nodes.forward_range(src, lo, hi, dst).is_some();
            }
            if grew {
                solver.node_grew(dst, nodes.log(dst).len());
            }
        }
        CpsConstraint::Ret { w, site } => {
            // The delta of `k` is exactly the not-yet-wired continuations.
            solver.take_deltas(ci, deltas);
            for &(k, lo, hi) in deltas.iter() {
                for i in lo..hi {
                    let CpsFlow::Kont(kk) = nodes.log(k)[i].0 else {
                        continue;
                    };
                    if !returns.entry_or_default(site).insert(kk) {
                        continue; // already wired
                    }
                    if let AbsKont::Co(l) = kk {
                        let dst = tables.cont_var[l.index() as usize];
                        cps_wire_flow(w, dst, solver, nodes, constraints);
                    }
                }
            }
        }
        CpsConstraint::Call { f, arg, cont, site } => match f {
            Flow::None => {}
            // A constant operator fires exactly once (no watches).
            Flow::Const(c) => cps_apply_clo(
                c,
                arg,
                cont,
                site,
                solver,
                nodes,
                constraints,
                calls,
                tables,
            ),
            Flow::Var(_) => {
                solver.take_deltas(ci, deltas);
                for &(fnode, lo, hi) in deltas.iter() {
                    for i in lo..hi {
                        let v = nodes.log(fnode)[i].0;
                        cps_apply_clo(
                            v,
                            arg,
                            cont,
                            site,
                            solver,
                            nodes,
                            constraints,
                            calls,
                            tables,
                        );
                    }
                }
            }
        },
    }
}

/// Constraint-based 0CFA over a CPS program — Shivers' original setting.
/// Continuations are ordinary flow values, so the analysis collects
/// continuation *sets* at `k` variables and merges returns exactly as
/// Figure 6 does. Runs on the sparse worklist solver under the default
/// [`AnalysisBudget`] — this is the path where unbounded exponential CPS
/// workloads used to loop; they now stop with
/// [`AnalysisError::BudgetExhausted`].
pub fn zero_cfa_cps(prog: &CpsProgram) -> Result<CpsCfaResult, AnalysisError> {
    Ok(zero_cfa_cps_instrumented(prog)?.0)
}

/// [`zero_cfa_cps`] plus the solver/pool counters of the run.
pub fn zero_cfa_cps_instrumented(
    prog: &CpsProgram,
) -> Result<(CpsCfaResult, SolverStats), AnalysisError> {
    zero_cfa_cps_guarded(
        prog,
        &RunGuard::new(AnalysisBudget::default()),
        &mut NoopSink,
    )
}

/// [`zero_cfa_cps`] under a full [`RunGuard`] — the `cfa.cps` rung of the
/// degradation ladders ([`govern::ladder`](crate::govern::ladder)); span
/// and counter prefix `cfa.cps`, guard semantics as in [`zero_cfa_guarded`].
pub fn zero_cfa_cps_guarded(
    prog: &CpsProgram,
    guard: &RunGuard,
    sink: &mut impl TraceSink,
) -> Result<(CpsCfaResult, SolverStats), AnalysisError> {
    trace::with_span(sink, "cfa.cps", |sink| zero_cfa_cps_impl(prog, guard, sink))
}

/// [`zero_cfa_cps_guarded`] with a [`SolverMode`] argument, kept because
/// `cpsbench/src/replay.rs` calls it.
pub fn zero_cfa_cps_guarded_mode(
    prog: &CpsProgram,
    _mode: SolverMode,
    guard: &RunGuard,
    sink: &mut impl TraceSink,
) -> Result<(CpsCfaResult, SolverStats), AnalysisError> {
    zero_cfa_cps_guarded(prog, guard, sink)
}

/// CPS-level 0CFA — the one place it registers its constraints. Every
/// node starts empty; only the static seeds and constant-operator calls
/// schedule work. Counters go under the `cfa.cps` prefix.
fn zero_cfa_cps_impl(
    prog: &CpsProgram,
    guard: &RunGuard,
    sink: &mut impl TraceSink,
) -> Result<(CpsCfaResult, SolverStats), AnalysisError> {
    let tables = CpsTables::build(prog);
    let edges = collect_cps_edges(prog);
    let n = prog.num_vars();

    let mut solver = WorklistSolver::new();
    solver.add_nodes(n);
    solver.reserve(edges.len());
    let mut nodes: DeltaNodes<CpsFlow> = DeltaNodes::new(n);
    let mut returns: LabelTable<BTreeSet<AbsKont>> = LabelTable::new(prog.label_count());
    let mut calls: LabelTable<BTreeSet<AbsClo>> = LabelTable::new(prog.label_count());

    // Watching constraints are not posted while their node is empty (the
    // first delta would be empty — a no-op); `node_grew` schedules them.
    // Seeds skip the worklist entirely and are poured after this loop, so
    // their growth reaches every watcher.
    let mut constraints: Vec<CpsConstraint> = Vec::with_capacity(edges.len());
    for e in &edges {
        match e {
            CpsEdge::Seed(..) => {}
            CpsEdge::Sub(src, dst) => {
                let c = solver.add_constraint(constraints.len() as u32);
                constraints.push(CpsConstraint::Sub(dst.index()));
                solver.watch(src.index(), c);
            }
            CpsEdge::Ret { k, w, site } => {
                let c = solver.add_constraint(constraints.len() as u32);
                constraints.push(CpsConstraint::Ret { w: *w, site: *site });
                solver.watch(k.index(), c);
            }
            CpsEdge::Call { f, arg, cont, site } => {
                let c = solver.add_constraint(constraints.len() as u32);
                constraints.push(CpsConstraint::Call {
                    f: *f,
                    arg: *arg,
                    cont: *cont,
                    site: *site,
                });
                match f {
                    Flow::Var(v) => solver.watch(v.index(), c),
                    // A constant operator has no watches, so it is posted
                    // once — a numeric one too, where the firing does
                    // nothing.
                    Flow::Const(_) | Flow::None => solver.post(c),
                }
            }
        }
    }

    for e in &edges {
        if let CpsEdge::Seed(flow, dst) = e {
            let dst = dst.index();
            if let Some(len) = nodes.add(dst, *flow) {
                solver.node_grew(dst, len);
            }
        }
    }

    let mut deltas: Vec<DeltaRange> = Vec::new();
    solver.run_guarded(guard, |solver, ci| {
        guard.charge_memory(nodes.approx_bytes() as u64)?;
        fire_cps(
            ci,
            solver,
            &mut nodes,
            &mut constraints,
            &mut returns,
            &mut calls,
            &tables,
            &mut deltas,
        );
        Ok(())
    })?;

    // Commit point: intern each converged node set (deduping identical
    // ones); the result holds the shared pool handles directly. The store
    // commits in universe-index order, so no per-node sort happens.
    let mut pool: SetPool<CpsFlow> = SetPool::new();
    let vars: Vec<Arc<BTreeSet<CpsFlow>>> = (0..n)
        .map(|i| {
            let id = nodes.commit_into(i, &mut pool);
            pool.get_arc(id)
        })
        .collect();
    let stats = solver.stats().with_pool(pool.stats());
    stats.emit_into(sink, "cfa.cps");
    let iterations = stats.fired.max(1);
    Ok((
        CpsCfaResult {
            vars,
            returns,
            calls,
            iterations,
        },
        stats,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct::DirectAnalyzer;
    use crate::domain::AnyNum;
    use crate::syncps::SynCpsAnalyzer;

    #[test]
    fn identity_flows_through_self_application() {
        let p = AnfProgram::parse("(let (f (lambda (x) x)) (f f))").unwrap();
        let r = zero_cfa(&p).unwrap();
        let f = p.var_named("f").unwrap();
        let x = p.var_named("x").unwrap();
        let lam = AbsClo::Lam(p.lambda_labels()[0]);
        assert!(r.get(f).contains(&lam));
        assert!(r.get(x).contains(&lam));
        assert_eq!(r.calls.len(), 1);
    }

    #[test]
    fn matches_direct_analyzer_closures_on_nonrecursive_programs() {
        for src in [
            "(let (f (lambda (x) x)) (let (a1 (f 1)) (let (a2 (f 2)) a1)))",
            "(let (f (if0 z (lambda (d0) 0) (lambda (d1) 1))) (let (a (f 9)) a))",
            "(let (g (lambda (h) (h 3))) (g (lambda (y) (add1 y))))",
        ] {
            let p = AnfProgram::parse(src).unwrap();
            let cfa = zero_cfa(&p).unwrap();
            let d = DirectAnalyzer::<AnyNum>::new(&p).analyze().unwrap();
            for (v, name) in p.iter_vars() {
                assert_eq!(
                    cfa.get(v),
                    &d.store.get(v).clos,
                    "0CFA and M_e closure sets differ at {name} in {src}"
                );
            }
        }
    }

    #[test]
    fn fixpoint_beats_cycle_cut_on_omega() {
        // The §4.4 cut answers Ω with CL⊤; the constraint solver computes
        // the least fixpoint and keeps the set exact — a strictly more
        // precise closure result (documented divergence, see module docs).
        let p = AnfProgram::parse("(let (w (lambda (x) (x x))) (let (r (w w)) r))").unwrap();
        let cfa = zero_cfa(&p).unwrap();
        let d = DirectAnalyzer::<AnyNum>::new(&p).analyze().unwrap();
        let x = p.var_named("x").unwrap();
        let lam = AbsClo::Lam(p.lambda_labels()[0]);
        assert_eq!(cfa.get(x), &BTreeSet::from([lam]));
        // M_e's r contains CL⊤ because of the cut:
        let r = p.var_named("r").unwrap();
        assert!(cfa.get(r).is_subset(&d.store.get(r).clos));
    }

    #[test]
    fn cps_cfa_reproduces_false_returns() {
        let p = AnfProgram::parse("(let (f (lambda (x) x)) (let (a1 (f 1)) (let (a2 (f 2)) a1)))")
            .unwrap();
        let c = CpsProgram::from_anf(&p);
        let r = zero_cfa_cps(&c).unwrap();
        assert!(r.false_return_edges() > 0, "Shivers' merge must be visible");
        // and it is the same count the Figure 6 analyzer reports
        let syn = SynCpsAnalyzer::<AnyNum>::new(&c).analyze().unwrap();
        assert_eq!(r.false_return_edges(), syn.flows.false_return_edges());
    }

    #[test]
    fn cps_cfa_matches_syncps_analyzer_flow_sets() {
        for src in [
            "(let (f (lambda (x) x)) (let (a1 (f 1)) (let (a2 (f 2)) a1)))",
            "(let (a (if0 z 0 1)) (add1 a))",
            "(let (g (lambda (h) (h 3))) (g (lambda (y) (add1 y))))",
        ] {
            let p = AnfProgram::parse(src).unwrap();
            let c = CpsProgram::from_anf(&p);
            let cfa = zero_cfa_cps(&c).unwrap();
            let syn = SynCpsAnalyzer::<AnyNum>::new(&c).analyze().unwrap();
            for (v, key) in c.iter_vars() {
                let mut expect: BTreeSet<CpsFlow> = BTreeSet::new();
                let sv = syn.store.get(v);
                expect.extend(sv.clos.iter().map(|&x| CpsFlow::Clo(x)));
                expect.extend(sv.konts.iter().map(|&x| CpsFlow::Kont(x)));
                assert_eq!(cfa.get(v), &expect, "mismatch at {key} in {src}");
            }
        }
    }

    #[test]
    fn single_call_has_no_false_returns() {
        let p = AnfProgram::parse("(let (f (lambda (x) x)) (f 1))").unwrap();
        let c = CpsProgram::from_anf(&p);
        let r = zero_cfa_cps(&c).unwrap();
        assert_eq!(r.false_return_edges(), 0);
        assert!(r.iterations >= 1);
    }

    #[test]
    fn prims_contribute_inc_dec_flow() {
        let p = AnfProgram::parse("(let (g add1) (g 1))").unwrap();
        let r = zero_cfa(&p).unwrap();
        let g = p.var_named("g").unwrap();
        assert!(r.get(g).contains(&AbsClo::Inc));
        assert!(r.calls.values().next().unwrap().contains(&AbsClo::Inc));
    }

    #[test]
    fn sparse_answers_certify_on_sample_programs() {
        use crate::certify::{certify_cfa_cps, certify_cfa_src};
        for src in [
            "(let (f (lambda (x) x)) (f f))",
            "(let (f (lambda (x) x)) (let (a1 (f 1)) (let (a2 (f 2)) a1)))",
            "(let (f (if0 z (lambda (d0) 0) (lambda (d1) 1))) (let (a (f 9)) a))",
            "(let (g (lambda (h) (h 3))) (g (lambda (y) (add1 y))))",
            "(let (w (lambda (x) (x x))) (let (r (w w)) r))",
            "(let (g add1) (g 1))",
            "(let (a (if0 z 0 1)) (add1 a))",
            "5",
        ] {
            let p = AnfProgram::parse(src).unwrap();
            let sparse = zero_cfa(&p).unwrap();
            certify_cfa_src(&p, &sparse).unwrap_or_else(|e| panic!("src 0CFA on {src}: {e}"));
            let c = CpsProgram::from_anf(&p);
            let sparse_c = zero_cfa_cps(&c).unwrap();
            certify_cfa_cps(&c, &sparse_c).unwrap_or_else(|e| panic!("CPS 0CFA on {src}: {e}"));
        }
    }

    #[test]
    fn instrumented_run_reports_sparse_counters() {
        let p = AnfProgram::parse("(let (f (lambda (x) x)) (let (a1 (f 1)) (let (a2 (f 2)) a1)))")
            .unwrap();
        let (r, stats) = zero_cfa_instrumented(&p).unwrap();
        assert!(r.iterations >= 1);
        assert!(stats.constraints > 0);
        // Initial posts are elided for watching constraints (they would
        // consume an empty delta), so firings can undercut the constraint
        // count — but never the post count, and something must have fired.
        assert!(stats.fired >= 1);
        assert!(
            stats.fired <= stats.posted,
            "a firing without a post slipped through"
        );
        assert!(stats.pool_interned >= 1);
        assert!(stats.pool_commit_hits + stats.pool_commit_misses >= 1);
    }

    #[test]
    fn traced_run_matches_untraced_and_emits_counters() {
        use crate::trace::AggSink;
        let p = AnfProgram::parse("(let (f (lambda (x) x)) (let (a1 (f 1)) (let (a2 (f 2)) a1)))")
            .unwrap();
        let plain = zero_cfa(&p).unwrap();
        let mut agg = AggSink::new();
        let (traced, stats) =
            zero_cfa_guarded(&p, &RunGuard::new(AnalysisBudget::default()), &mut agg).unwrap();
        assert!(
            plain.same_solution(&traced),
            "tracing must not change flows"
        );
        assert_eq!(agg.counter_value("cfa.src.fired"), stats.fired);
        assert_eq!(agg.gauge_value("cfa.src.queue_peak"), stats.queue_peak);
        assert_eq!(agg.span_agg("cfa.src").unwrap().count, 1);

        let c = CpsProgram::from_anf(&p);
        let plain_c = zero_cfa_cps(&c).unwrap();
        let mut agg_c = AggSink::new();
        let (traced_c, stats_c) =
            zero_cfa_cps_guarded(&c, &RunGuard::new(AnalysisBudget::default()), &mut agg_c)
                .unwrap();
        assert!(plain_c.same_solution(&traced_c));
        assert_eq!(agg_c.counter_value("cfa.cps.fired"), stats_c.fired);
        assert_eq!(SolverStats::from_agg(&agg_c, "cfa.cps"), stats_c);
    }

    #[test]
    fn polyvariant_fires_linearly_and_skips_constant_wires() {
        // polyvariant(n) passes n closures through one identity, so every
        // call site sees all n callees (§6.1). A solve should cost about the
        // size of that answer: no firing per (watcher, element) pair, and no
        // wire from a literal operand or a constant body, which never grow.
        for n in [16usize, 64, 160] {
            let p = AnfProgram::from_term(&cpsdfa_workloads::families::polyvariant(n));
            let (src, stats) = zero_cfa_instrumented(&p).unwrap();
            let cps = zero_cfa_cps(&CpsProgram::from_anf(&p)).unwrap();
            let bound = 8 * n as u64;
            assert!(
                src.iterations <= bound,
                "n={n}: cfa.src fired {}",
                src.iterations
            );
            assert!(
                cps.iterations <= bound,
                "n={n}: cfa.cps fired {}",
                cps.iterations
            );
            let statics = collect_edges(&p).len() as u64;
            assert!(
                stats.constraints < 4 * n as u64 + statics,
                "n={n}: cfa.src registered {} constraints over {statics} static edges",
                stats.constraints
            );
        }
    }

    #[test]
    fn tiny_budgets_stop_both_sparse_solvers() {
        let p = AnfProgram::parse("(let (w (lambda (x) (x x))) (let (r (w w)) r))").unwrap();
        let err = zero_cfa_guarded(&p, &RunGuard::new(AnalysisBudget::new(1)), &mut NoopSink)
            .expect_err("one firing cannot solve omega");
        assert!(matches!(err, AnalysisError::BudgetExhausted { budget: 1 }));
        let c = CpsProgram::from_anf(&p);
        let err = zero_cfa_cps_guarded(&c, &RunGuard::new(AnalysisBudget::new(1)), &mut NoopSink)
            .expect_err("one firing cannot solve CPS omega");
        assert!(matches!(err, AnalysisError::BudgetExhausted { budget: 1 }));
    }
}
