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
//! Both run, with [`pushdown`](crate::pushdown), on one semi-naïve
//! set-flow engine over the sparse [`WorklistSolver`]: constraints re-fire
//! only when a watched flow node grows, and a firing consumes only the
//! *new* elements ([`WorklistSolver::take_deltas`]) from the node's
//! append-only growth log ([`DeltaNodes`]), so a k-element set that grew
//! by one costs one element of work, not k. While the fixpoint moves, node
//! sets live as growth logs plus bitsets over [`DeltaNodes`]' dense value
//! universe — each abstract closure is hashed once, then forwarded between
//! nodes by index — and are interned into the hash-consed [`SetPool`] only
//! at the commit point after convergence ([`DeltaNodes::commit_into`]).
//! The engine writes the subset edges, seeds, firing loop and commit once;
//! this module holds only each analysis's edges and call/return rules. Two
//! further cheats ride on the delta discipline: seed edges are applied
//! directly to the store at setup instead of becoming constraints, and
//! watching constraints are not posted initially — an empty watched node
//! means the first firing would consume an empty delta, so
//! [`WorklistSolver::node_grew`] posting on first growth is enough. The
//! reference both solvers are tested against
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
//! [`DeltaNodes`]: crate::setpool::DeltaNodes
//! [`DeltaNodes::commit_into`]: crate::setpool::DeltaNodes::commit_into
//! [`SetPool`]: crate::setpool::SetPool
//! [`WorklistSolver`]: crate::solver::WorklistSolver
//! [`WorklistSolver::take_deltas`]: crate::solver::WorklistSolver::take_deltas
//! [`WorklistSolver::node_grew`]: crate::solver::WorklistSolver::node_grew

use crate::absval::{AbsClo, AbsKont};
use crate::budget::{AnalysisBudget, AnalysisError};
use crate::govern::RunGuard;
use crate::labtab::LabelTable;
use crate::solver::{Committed, ConstraintId, Flow, SetRun, SolverMode};
use crate::stats::SolverStats;
use crate::trace::{self, NoopSink, TraceSink};
use cpsdfa_anf::{AValKind, Anf, AnfKind, AnfProgram, Bind, VarId};
use cpsdfa_cps::{CTermKind, CValKind, CVarId, CpsProgram};
use cpsdfa_syntax::Label;
use std::collections::BTreeSet;
use std::sync::Arc;

/// The result of source-level 0CFA.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CfaResult {
    /// Closure set per variable. The sets are the hash-consed commit
    /// handles of the run's [`SetPool`]: identical sets (every call site of
    /// a function, say) share one allocation, and cloning a result is
    /// handle-copying, not set-copying.
    ///
    /// [`SetPool`]: crate::setpool::SetPool
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
    /// constant ∈ node
    Seed(AbsClo, Node),
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
    let val_node = |v: &cpsdfa_anf::AVal, dst: Node, edges: &mut Vec<Edge>| {
        let clo = match &v.kind {
            AValKind::Num(_) => return,
            AValKind::Add1 => AbsClo::Inc,
            AValKind::Sub1 => AbsClo::Dec,
            AValKind::Lam(..) => AbsClo::Lam(v.label),
            AValKind::Var(x) => {
                let x = prog.var_id(x).expect("indexed variable");
                return edges.push(Edge::Sub(Node::Var(x), dst));
            }
        };
        edges.push(Edge::Seed(clo, dst));
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

/// The side-table entry of a label that is not a λ (or a continuation).
pub(crate) const UNINDEXED: usize = usize::MAX;

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

    /// The propagation-target terms — the key set of
    /// [`CfaResult::terms`] — with their nodes, in label order.
    fn dst_terms(&self) -> impl Iterator<Item = (Label, usize)> + '_ {
        let labels = self.dst_flags.iter().enumerate();
        labels.filter(|&(_, &is_dst)| is_dst).map(|(i, _)| {
            let l = Label::new(i as u32);
            (l, self.node(Node::Term(l)))
        })
    }
}

/// The source-level call rule `(f a)` at `site`, binding `bind`, over
/// indexed flow nodes. It watches `f`, whose delta is exactly the
/// not-yet-wired callees. The subset edges are the engine's own, and seed
/// edges never become constraints — they fire exactly once, so setup
/// applies them directly.
#[derive(Clone, Copy)]
struct SrcCall {
    arg: usize,
    bind: usize,
    site: Label,
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
    /// body — stays empty forever, so the call rule skips wires from it.
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
    let mut run: SetRun<AbsClo, SrcCall> = SetRun::new(idx.total(), edges.len());
    for e in &edges {
        match *e {
            Edge::Seed(..) => {}
            Edge::Sub(src, dst) => run.wire(idx.node(src), idx.node(dst)),
            Edge::Call { f, arg, bind, site } => {
                let (arg, bind) = (idx.node(arg), bind.index());
                run.rule(SrcCall { arg, bind, site }, Some(idx.node(f)));
            }
        }
    }
    for e in &edges {
        if let Edge::Seed(clo, dst) = *e {
            run.seed(idx.node(dst), clo);
        }
    }

    let mut calls: LabelTable<BTreeSet<AbsClo>> = LabelTable::new(prog.label_count());
    run.run(guard, |run, ci, SrcCall { arg, bind, site }| {
        run.for_each_new(ci, |run, clo| {
            if !calls.entry_or_default(site).insert(clo) {
                return; // already wired
            }
            if let AbsClo::Lam(l) = clo {
                // Newly-discovered callee: wire the argument flow into the
                // parameter and the body result into the binder as
                // persistent subset edges. A wire from a constant node
                // would never fire: skip it.
                let (param, body) = tables.lam[l.index() as usize];
                for (src, dst) in [(arg, param), (body, bind)] {
                    if tables.live_src[src] {
                        run.wire(src, dst);
                    }
                }
            }
            // Inc/Dec return numbers: no closure flow.
        });
    })?;

    // Commit point: variables first, then the propagation targets in label
    // order.
    let order = (0..idx.num_vars).chain(idx.dst_terms().map(|(_, node)| node));
    let Committed {
        mut sets,
        stats,
        iterations,
    } = run.commit(order, sink, "cfa.src");
    let mut terms = LabelTable::new(idx.dst_flags.len() as u32);
    for ((l, _), set) in idx.dst_terms().zip(sets.drain(idx.num_vars..)) {
        terms.insert(l, set);
    }
    Ok((
        CfaResult {
            vars: sets,
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

/// A static constraint of the CPS-level graph over variable nodes — the
/// one walk both CPS 0CFA and [`pushdown`](crate::pushdown) read.
pub(crate) enum CpsEdge {
    Seed(CpsFlow, usize),
    Sub(usize, usize),
    /// `(k W)`: for each continuation in `k`, `W` flows to its binder.
    Ret {
        k: usize,
        w: Flow<CpsFlow>,
        site: Label,
    },
    Call(CpsCall),
}

/// `(W₁ W₂ (λx.P))` at `site`: operator, operand and the literal
/// continuation λ's label.
#[derive(Clone, Copy)]
pub(crate) struct CpsCall {
    pub(crate) f: Flow<CpsFlow>,
    pub(crate) arg: Flow<CpsFlow>,
    pub(crate) cont: Label,
    pub(crate) site: Label,
}

impl CpsCall {
    /// The node the call rule watches: its operator's. A constant
    /// operator has no watch, so its rule is posted once — a numeric one
    /// too, where the firing does nothing.
    pub(crate) fn watched(&self) -> Option<usize> {
        match self.f {
            Flow::Var(f) => Some(f),
            Flow::None | Flow::Const(_) => None,
        }
    }

    /// Fires this call's rule `ci`: records in `calls` each callee the
    /// operator has delivered since the last firing — a constant
    /// operator's at its one firing, a variable's delta — and hands each
    /// newly applied user λ to `enter`. Primitives return numbers
    /// directly to the continuation: no closure flow.
    pub(crate) fn fire<C: Copy>(
        &self,
        run: &mut SetRun<CpsFlow, C>,
        ci: ConstraintId,
        calls: &mut LabelTable<BTreeSet<AbsClo>>,
        mut enter: impl FnMut(&mut SetRun<CpsFlow, C>, Label),
    ) {
        let site = self.site;
        let mut apply = |run: &mut SetRun<CpsFlow, C>, v: CpsFlow| {
            let CpsFlow::Clo(clo) = v else { return };
            if !calls.entry_or_default(site).insert(clo) {
                return; // already wired
            }
            if let AbsClo::Lam(l) = clo {
                enter(run, l);
            }
        };
        match self.f {
            Flow::None => {}
            Flow::Const(v) => apply(run, v),
            Flow::Var(_) => run.for_each_new(ci, apply),
        }
    }
}

pub(crate) fn collect_cps_edges(prog: &CpsProgram) -> Vec<CpsEdge> {
    let flow_of = |w: &cpsdfa_cps::CVal| -> Flow<CpsFlow> {
        match &w.kind {
            CValKind::Num(_) => Flow::None,
            CValKind::Add1K => Flow::Const(CpsFlow::Clo(AbsClo::Inc)),
            CValKind::Sub1K => Flow::Const(CpsFlow::Clo(AbsClo::Dec)),
            CValKind::Lam { .. } => Flow::Const(CpsFlow::Clo(AbsClo::Lam(w.label))),
            CValKind::Var(x) => Flow::Var(prog.user_var_id(x).expect("indexed variable").index()),
        }
    };

    let mut edges: Vec<CpsEdge> = Vec::new();
    fn gen<'p>(
        t: &'p cpsdfa_cps::CTerm,
        prog: &CpsProgram,
        edges: &mut Vec<CpsEdge>,
        flow_of: &impl Fn(&'p cpsdfa_cps::CVal) -> Flow<CpsFlow>,
    ) {
        let kont_node = |k| prog.kont_var_id(k).expect("indexed k").index();
        match &t.kind {
            CTermKind::Ret(k, w) => {
                edges.push(CpsEdge::Ret {
                    k: kont_node(k),
                    w: flow_of(w),
                    site: t.label,
                });
                if let CValKind::Lam { body, .. } = &w.kind {
                    gen(body, prog, edges, flow_of);
                }
            }
            CTermKind::Let { var, val, body } => {
                let x = prog.user_var_id(var).expect("indexed variable").index();
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
                edges.push(CpsEdge::Call(CpsCall {
                    f: flow_of(f),
                    arg: flow_of(arg),
                    cont: cont.label,
                    site: t.label,
                }));
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
                let co = CpsFlow::Kont(AbsKont::Co(cont.label));
                edges.push(CpsEdge::Seed(co, kont_node(k)));
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
    edges.push(CpsEdge::Seed(CpsFlow::Kont(AbsKont::Stop), k0.index()));
    edges
}

/// A CPS-level rule over indexed flow nodes; the subset edges are the
/// engine's own. Seed edges are applied directly at setup and never
/// become constraints.
#[derive(Clone, Copy)]
enum CpsRule {
    /// `(k W)`: watches `k`, whose delta is the not-yet-wired
    /// continuations.
    Ret {
        w: Flow<CpsFlow>,
        site: Label,
    },
    Call(CpsCall),
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
    let mut run: SetRun<CpsFlow, CpsRule> = SetRun::new(n, edges.len());
    // Seeds skip the worklist entirely and are poured after this loop, so
    // their growth reaches every watcher.
    for e in &edges {
        match *e {
            CpsEdge::Seed(..) => {}
            CpsEdge::Sub(src, dst) => run.wire(src, dst),
            CpsEdge::Ret { k, w, site } => run.rule(CpsRule::Ret { w, site }, Some(k)),
            CpsEdge::Call(call) => run.rule(CpsRule::Call(call), call.watched()),
        }
    }
    for e in &edges {
        if let CpsEdge::Seed(flow, dst) = *e {
            run.seed(dst, flow);
        }
    }

    let mut returns: LabelTable<BTreeSet<AbsKont>> = LabelTable::new(prog.label_count());
    let mut calls: LabelTable<BTreeSet<AbsClo>> = LabelTable::new(prog.label_count());
    run.run(guard, |run, ci, rule| match rule {
        CpsRule::Ret { w, site } => run.for_each_new(ci, |run, v| {
            let CpsFlow::Kont(kk) = v else { return };
            if !returns.entry_or_default(site).insert(kk) {
                return; // already wired
            }
            if let AbsKont::Co(l) = kk {
                run.flow(w, tables.cont_var[l.index() as usize]);
            }
        }),
        // A newly applied λ: the argument into its parameter, the call's
        // continuation into its `k`.
        CpsRule::Call(call) => call.fire(run, ci, &mut calls, |run, l| {
            let (param, kvar) = tables.lam[l.index() as usize];
            run.flow(call.arg, param);
            run.seed(kvar, CpsFlow::Kont(AbsKont::Co(call.cont)));
        }),
    })?;

    // Commit point: the store commits in universe-index order, so no
    // per-node sort happens.
    let Committed {
        sets,
        stats,
        iterations,
    } = run.commit(0..n, sink, "cfa.cps");
    Ok((
        CpsCfaResult {
            vars: sets,
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
