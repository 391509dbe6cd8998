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
//! first growth is enough. The original dense formulations — full
//! re-sweeps over the constraint list with `BTreeSet` clones on every
//! propagation — are retained as [`zero_cfa_dense`] /
//! [`zero_cfa_cps_dense`]: they are the measured baseline for the solver
//! benchmarks, and differential tests assert the two formulations produce
//! bit-identical results.
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
use crate::fxhash::FxHashMap;
use crate::govern::RunGuard;
use crate::labtab::{LabelLookup, LabelTable};
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
    /// `Arc`-shared like the flow sets: the live incremental solver re-uses
    /// one snapshot across commits whenever no new callee was discovered,
    /// so a warm re-commit never deep-copies the call graph.
    pub calls: Arc<LabelTable<BTreeSet<AbsClo>>>,
    /// Fixpoint work performed: constraint firings (sparse solver) or full
    /// sweeps (dense baseline). Always ≥ 1.
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
// Source-level constraint generation (shared by sparse and dense solvers)
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

    /// Builds [`CfaResult::terms`] for the dense baseline by committing
    /// every propagation-target term node through `commit`, in label order.
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
    /// Monotone: once an edit makes a node a target
    /// ([`SrcLive::apply_edit`]) its skipped wires are added and the flag
    /// stays set.
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

/// Registers constraint `c` as a watcher of `node`. A `caught_up` watch
/// starts past the node's current log, because a seed already reflects
/// it. Any other watch starts at cursor 0 and is posted at once when the
/// log is non-empty, so its first firing replays the whole history.
fn watch_from<T: Eq + Hash + Clone>(
    solver: &mut WorklistSolver,
    nodes: &DeltaNodes<T>,
    node: usize,
    c: ConstraintId,
    caught_up: bool,
) {
    if caught_up {
        solver.watch_caught_up(node, c);
    } else {
        solver.watch(node, c);
        if !nodes.log(node).is_empty() {
            solver.post(c);
        }
    }
}

/// Registers the call wire `src ⊆ dst` as a new `Sub` constraint; see
/// [`watch_from`] for `caught_up`.
fn add_wire(
    solver: &mut WorklistSolver,
    nodes: &DeltaNodes<AbsClo>,
    constraints: &mut Vec<SrcConstraint>,
    (src, dst): (usize, usize),
    caught_up: bool,
) {
    let c = solver.add_constraint(constraints.len() as u32);
    constraints.push(SrcConstraint::Sub(dst));
    watch_from(solver, nodes, src, c, caught_up);
}

/// Fires source constraint `ci` on the live solver ([`SrcLive`]), whether
/// it was built cold, built from a seed or edited in place.
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
                                add_wire(solver, nodes, constraints, wire, false);
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
/// This is the rung the governed drivers in [`govern`](crate::govern) call.
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

fn zero_cfa_impl(
    prog: &AnfProgram,
    guard: &RunGuard,
    sink: &mut impl TraceSink,
) -> Result<(CfaResult, SolverStats), AnalysisError> {
    Ok(zero_cfa_seeded(prog, None, guard, sink)?.expect("an unseeded build is total"))
}

/// Source-level 0CFA from an optional warm-start seed: builds a live
/// solver ([`SrcLive::build`]), converges it, and commits. A cold solve is
/// the unseeded build and reports its counters under `cfa.src`; a seeded
/// one reports under `cfa.src.warm`. `Ok(None)` means the seed did not fit
/// the program's shape — the caller should fall back to a cold solve.
pub(crate) fn zero_cfa_seeded(
    prog: &AnfProgram,
    seed: Option<&SrcSeed>,
    guard: &RunGuard,
    sink: &mut impl TraceSink,
) -> Result<Option<(CfaResult, SolverStats)>, AnalysisError> {
    let Some(mut live) = SrcLive::build(prog, seed) else {
        return Ok(None);
    };
    live.run(guard)?;
    let result = live.commit();
    let stats = live.stats();
    let prefix = if seed.is_some() {
        "cfa.src.warm"
    } else {
        "cfa.src"
    };
    stats.emit_into(sink, prefix);
    Ok(Some((result, stats)))
}

// ---------------------------------------------------------------------------
// The source-level solver, cold or warm-started — see `crate::incremental`
// ---------------------------------------------------------------------------

/// A warm-start seed for the source-level solver: a previous fixpoint
/// already transported into the *new* program's variable/label spaces by
/// the aligner in [`crate::incremental`]. Pouring a seed below the least
/// fixpoint is always sound for a monotone constraint system — the solver
/// re-derives exactly the missing growth.
pub(crate) struct SrcSeed {
    /// Closure set per new variable index (dense; length = `num_vars`).
    pub(crate) vars: Vec<BTreeSet<AbsClo>>,
    /// Seeded term-node sets, keyed by new label.
    pub(crate) terms: Vec<(Label, BTreeSet<AbsClo>)>,
    /// Pre-wired call graph: new site label → callees already discovered.
    pub(crate) calls: Vec<(Label, BTreeSet<AbsClo>)>,
}

/// A position-free fingerprint of a static source edge, used to diff the
/// old and new constraint sets of an in-place edit
/// ([`SrcLive::apply_edit`]). Two edges with equal keys denote the same
/// constraint because the caller only diffs under an identity alignment
/// (same variable ids, same label spans).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum EdgeKey {
    Seed(Vec<AbsClo>, (u8, u32)),
    Sub((u8, u32), (u8, u32)),
    Call {
        f: (u8, u32),
        arg: (u8, u32),
        bind: u32,
        site: u32,
    },
}

impl EdgeKey {
    fn node(n: Node) -> (u8, u32) {
        match n {
            Node::Var(v) => (0, v.index() as u32),
            Node::Term(l) => (1, l.index()),
        }
    }

    fn of(e: &Edge) -> EdgeKey {
        match e {
            Edge::Seed(set, dst) => EdgeKey::Seed(set.iter().copied().collect(), Self::node(*dst)),
            Edge::Sub(src, dst) => EdgeKey::Sub(Self::node(*src), Self::node(*dst)),
            Edge::Call { f, arg, bind, site } => EdgeKey::Call {
                f: Self::node(*f),
                arg: Self::node(*arg),
                bind: bind.index() as u32,
                site: site.index(),
            },
        }
    }
}

/// Net constraint churn of an in-place edit ([`SrcLive::apply_edit`]).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct EditDelta {
    pub(crate) retracted: usize,
    pub(crate) added: usize,
}

/// A source-level 0CFA solver kept **alive between edits**: the solver,
/// delta store, constraint list and call graph of the last run, ready to
/// be re-fired from the converged state. Three entry points build or
/// mutate one:
///
/// * [`SrcLive::build`] — cold (empty store) or warm (seed poured
///   silently, watches registered caught-up where the seed already
///   satisfies them);
/// * [`SrcLive::apply_edit`] — in-place constraint retraction/regeneration
///   for an identity-aligned edit (same ids, changed constraint set);
/// * [`SrcLive::run`] + [`SrcLive::commit`] — converge and extract.
pub(crate) struct SrcLive {
    solver: WorklistSolver,
    nodes: DeltaNodes<AbsClo>,
    pool: SetPool<AbsClo>,
    constraints: Vec<SrcConstraint>,
    calls: LabelTable<BTreeSet<AbsClo>>,
    tables: SrcTables,
    /// label → absolute flow-node index (`UNINDEXED` when the label has no
    /// node). Grows in place when an edit introduces new term nodes.
    node_of_label: Vec<usize>,
    /// label → is a propagation target (key set of [`CfaResult::terms`]).
    dst_flags: Vec<bool>,
    /// Alive *static* constraints with their edge fingerprints, in
    /// registration order — the diff base for [`SrcLive::apply_edit`].
    /// Dynamically discovered call wires are not listed: they reference
    /// only nodes that outlive any eligible edit.
    statics: Vec<(EdgeKey, ConstraintId)>,
    /// Fingerprints of the static `Seed` edges already poured.
    seed_keys: Vec<EdgeKey>,
    num_vars: usize,
    /// Per-node commit memo: `(log length at last commit, handle)`. Nodes
    /// only ever grow — [`SrcLive::apply_edit`] refuses to retract a
    /// constraint whose source contributed anything — so an unchanged log
    /// length means an unchanged set, and a repeat commit reuses the
    /// handle without walking the bitset. This is what keeps the live
    /// session's per-edit cost proportional to the edit, not the fixpoint.
    commit_cache: Vec<Option<(usize, Arc<BTreeSet<AbsClo>>)>>,
    /// Call-graph snapshot from the last commit, keyed by the table's
    /// total callee count. Call discovery only ever adds entries, so an
    /// unchanged count means an unchanged graph and the snapshot is
    /// reshared instead of deep-cloned.
    calls_snapshot: Option<(usize, Arc<LabelTable<BTreeSet<AbsClo>>>)>,
}

impl SrcLive {
    /// Builds a live solver over `prog` — the one place source-level 0CFA
    /// registers its constraints. With `seed: None` every node starts
    /// empty and watches start at cursor 0. With a seed, the previous
    /// fixpoint is poured **silently** (no watcher notifications), every
    /// node's cursor base is pinned past the poured history, and each
    /// constraint is registered caught-up when the seed already satisfies
    /// it — so a converged seed fires nothing at all. Returns `None` when
    /// the seed references entities the new program does not have (the
    /// caller falls back to a cold solve).
    pub(crate) fn build(prog: &AnfProgram, seed: Option<&SrcSeed>) -> Option<SrcLive> {
        let edges = collect_edges(prog);
        let idx = NodeIndex::build(prog, &edges);
        let tables = SrcTables::build(prog, &idx);
        let total = idx.total();
        let label_count = prog.label_count() as usize;

        let mut solver = WorklistSolver::new();
        solver.add_nodes(total);
        solver.reserve(edges.len());
        let mut nodes: DeltaNodes<AbsClo> = DeltaNodes::new(total);
        let mut calls: LabelTable<BTreeSet<AbsClo>> = LabelTable::new(prog.label_count());

        let warm = seed.is_some();
        if let Some(seed) = seed {
            if seed.vars.len() != idx.num_vars {
                return None;
            }
            for (i, set) in seed.vars.iter().enumerate() {
                for v in set {
                    nodes.add(i, *v);
                }
            }
            for (l, set) in &seed.terms {
                let li = l.index() as usize;
                if li >= idx.term_ids.len() || idx.term_ids[li] == UNINDEXED {
                    if set.is_empty() {
                        continue;
                    }
                    return None; // seeded label is not a flow node here
                }
                let n = idx.node(Node::Term(*l));
                for v in set {
                    nodes.add(n, *v);
                }
            }
            // Pin the cursor bases: watches registered below at the
            // caught-up position treat the poured history as consumed.
            for n in 0..total {
                solver.set_node_len(n, nodes.log(n).len());
            }
            for (site, set) in &seed.calls {
                calls.entry_or_default(*site).extend(set.iter().copied());
            }
        }

        let mut constraints: Vec<SrcConstraint> = Vec::with_capacity(edges.len());
        let mut statics: Vec<(EdgeKey, ConstraintId)> = Vec::with_capacity(edges.len());
        let mut seed_keys: Vec<EdgeKey> = Vec::new();
        // Call-site operand/binder nodes, for re-wiring seeded callees.
        let mut site_nodes = vec![(UNINDEXED, UNINDEXED); label_count];
        for e in &edges {
            match e {
                Edge::Seed(..) => seed_keys.push(EdgeKey::of(e)),
                Edge::Sub(src, dst) => {
                    let (s, d) = (idx.node(*src), idx.node(*dst));
                    let c = solver.add_constraint(constraints.len() as u32);
                    constraints.push(SrcConstraint::Sub(d));
                    statics.push((EdgeKey::of(e), c));
                    watch_from(&mut solver, &nodes, s, c, warm && nodes.is_subset(s, d));
                }
                Edge::Call { f, arg, bind, site } => {
                    let fnode = idx.node(*f);
                    let c = solver.add_constraint(constraints.len() as u32);
                    constraints.push(SrcConstraint::Call {
                        arg: idx.node(*arg),
                        bind: bind.index(),
                        site: *site,
                    });
                    statics.push((EdgeKey::of(e), c));
                    site_nodes[site.index() as usize] = (idx.node(*arg), bind.index());
                    let caught_up = warm && {
                        let wired = calls.get(*site);
                        nodes
                            .log(fnode)
                            .iter()
                            .all(|(v, _)| wired.is_some_and(|s| s.contains(v)))
                    };
                    watch_from(&mut solver, &nodes, fnode, c, caught_up);
                }
            }
        }

        // Warm: re-establish the dynamically discovered wires of the
        // previous run (what `fire_src` built at callee-discovery time).
        // A wire whose flow is already complete registers caught-up.
        if let Some(seed) = seed {
            for (site, set) in &seed.calls {
                let (arg, bind) = site_nodes[site.index() as usize];
                if arg == UNINDEXED {
                    if set.is_empty() {
                        continue;
                    }
                    return None; // call site vanished but had callees
                }
                for clo in set {
                    if let AbsClo::Lam(l) = clo {
                        let li = l.index() as usize;
                        if li >= tables.lam.len() || tables.lam[li].0 == UNINDEXED {
                            return None; // callee lambda vanished
                        }
                        let (param, body) = tables.lam[li];
                        for (src, dst) in [(arg, param), (body, bind)] {
                            if tables.live_src[src] {
                                let caught_up = nodes.is_subset(src, dst);
                                add_wire(
                                    &mut solver,
                                    &nodes,
                                    &mut constraints,
                                    (src, dst),
                                    caught_up,
                                );
                            }
                        }
                    }
                }
            }
        }

        // Static seeds last, after every watch exists, so `node_grew`
        // reaches all watchers. On a warm build these are no-ops where the
        // poured fixpoint already holds the constant and real (posted)
        // growth where the edit introduced one.
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

        let mut node_of_label = vec![UNINDEXED; label_count];
        for (l, node) in node_of_label.iter_mut().enumerate() {
            if idx.term_ids[l] != UNINDEXED {
                *node = idx.num_vars + idx.term_ids[l];
            }
        }

        Some(SrcLive {
            solver,
            nodes,
            pool: SetPool::new(),
            constraints,
            calls,
            tables,
            node_of_label,
            dst_flags: idx.dst_flags,
            statics,
            seed_keys,
            num_vars: idx.num_vars,
            commit_cache: vec![None; total],
            calls_snapshot: None,
        })
    }

    /// The flow node of `l`, allocating a fresh (empty) node when the edit
    /// introduced a label the original program did not index.
    fn node_for_label(&mut self, l: Label) -> usize {
        let li = l.index() as usize;
        if li >= self.node_of_label.len() {
            self.node_of_label.resize(li + 1, UNINDEXED);
            self.dst_flags.resize(li + 1, false);
        }
        if self.node_of_label[li] == UNINDEXED {
            let n = self.solver.add_node();
            let n2 = self.nodes.push_node();
            debug_assert_eq!(n, n2);
            self.tables.live_src.push(false);
            self.node_of_label[li] = n;
        }
        self.node_of_label[li]
    }

    fn node_of(&mut self, n: Node) -> usize {
        match n {
            Node::Var(v) => v.index(),
            Node::Term(l) => self.node_for_label(l),
        }
    }

    /// Retracts the constraints an identity-aligned edit removed and
    /// registers (and re-fires) the ones it added, **in place** on the
    /// converged solver. The caller guarantees the edit preserves variable
    /// ids and label spans (see `crate::incremental`); this method
    /// additionally verifies that every *removed* constraint contributed
    /// nothing to the fixpoint — the condition under which the converged
    /// store is still below the new least fixpoint — and returns `None`
    /// (leaving the state untouched) when it cannot prove that.
    pub(crate) fn apply_edit(&mut self, prog: &AnfProgram) -> Option<EditDelta> {
        let new_edges = collect_edges(prog);
        // Hashed, not ordered: the diff does one lookup per edge on both
        // sides, and `EdgeKey` comparisons (seed keys carry value vectors)
        // made an ordered map the hot spot of the whole retract rung. The
        // surviving indices are sorted before registration below, so
        // constraint order stays deterministic.
        let mut fresh: FxHashMap<EdgeKey, Vec<usize>> = FxHashMap::default();
        for (i, e) in new_edges.iter().enumerate() {
            fresh.entry(EdgeKey::of(e)).or_default().push(i);
        }

        // Phase 1: validate every removal before mutating anything. A
        // removed Sub must have an empty (never-contributed) source; a
        // removed Call must have discovered no callees; a removed Seed
        // poured a constant we cannot un-pour, so it always disqualifies.
        let mut retract: Vec<ConstraintId> = Vec::new();
        let mut removed_statics: Vec<usize> = Vec::new();
        for (i, (key, cid)) in self.statics.iter().enumerate() {
            if let Some(slots) = fresh.get_mut(key) {
                if let Some(_matched) = slots.pop() {
                    if slots.is_empty() {
                        fresh.remove(key);
                    }
                    continue;
                }
            }
            match key {
                EdgeKey::Sub(src, _) => {
                    let s = match *src {
                        (0, v) => v as usize,
                        (_, l) => *self.node_of_label.get(l as usize)?,
                    };
                    if s == UNINDEXED || !self.nodes.log(s).is_empty() {
                        return None;
                    }
                }
                EdgeKey::Call { site, .. } => {
                    let wired = self.calls.get(Label::new(*site));
                    if wired.is_some_and(|s| !s.is_empty()) {
                        return None;
                    }
                }
                EdgeKey::Seed(..) => unreachable!("seeds are not statics"),
            }
            retract.push(*cid);
            removed_statics.push(i);
        }
        let mut kept_seeds: Vec<EdgeKey> = Vec::new();
        for key in &self.seed_keys {
            if let Some(slots) = fresh.get_mut(key) {
                if slots.pop().is_some() {
                    if slots.is_empty() {
                        fresh.remove(key);
                    }
                    kept_seeds.push(key.clone());
                    continue;
                }
            }
            return None; // a poured seed vanished: cannot shrink in place
        }

        // Phase 2: retract. The solver physically unlinks the watch edges;
        // a retracted constraint can never fire again.
        let delta = EditDelta {
            retracted: retract.len(),
            added: fresh.values().map(Vec::len).sum(),
        };
        for cid in retract {
            self.solver.retract_constraint(cid);
        }
        for i in removed_statics.into_iter().rev() {
            self.statics.swap_remove(i);
        }
        self.seed_keys = kept_seeds;

        // Phase 3: regenerate. New lambdas need side-table entries and an
        // indexed body node before any wire can reference them.
        for (l, r) in prog.lambdas() {
            let li = l.index() as usize;
            if li >= self.tables.lam.len() {
                self.tables.lam.resize(li + 1, (UNINDEXED, UNINDEXED));
            }
            if self.tables.lam[li].0 == UNINDEXED {
                let body = self.node_for_label(r.body.label);
                self.tables.lam[li] = (r.param_id.index(), body);
            }
        }
        let mut added: Vec<usize> = fresh.into_values().flatten().collect();
        added.sort_unstable();
        for i in added {
            match &new_edges[i] {
                Edge::Seed(set, dst) => {
                    let dst = self.node_of(*dst);
                    let mut grew = false;
                    for v in set {
                        grew |= self.nodes.add(dst, *v).is_some();
                    }
                    if grew {
                        self.solver.node_grew(dst, self.nodes.log(dst).len());
                    }
                    self.seed_keys.push(EdgeKey::of(&new_edges[i]));
                }
                Edge::Sub(src, dst) => {
                    let (s, d) = (self.node_of(*src), self.node_of(*dst));
                    let c = self.solver.add_constraint(self.constraints.len() as u32);
                    self.constraints.push(SrcConstraint::Sub(d));
                    self.statics.push((EdgeKey::of(&new_edges[i]), c));
                    watch_from(&mut self.solver, &self.nodes, s, c, false);
                }
                Edge::Call { f, arg, bind, site } => {
                    let (fnode, argnode) = (self.node_of(*f), self.node_of(*arg));
                    let c = self.solver.add_constraint(self.constraints.len() as u32);
                    self.constraints.push(SrcConstraint::Call {
                        arg: argnode,
                        bind: bind.index(),
                        site: *site,
                    });
                    self.statics.push((EdgeKey::of(&new_edges[i]), c));
                    watch_from(&mut self.solver, &self.nodes, fnode, c, false);
                }
            }
        }

        // The propagation-target set may have shifted with the edit.
        self.dst_flags.iter_mut().for_each(|f| *f = false);
        for e in &new_edges {
            if let Edge::Seed(_, Node::Term(l)) | Edge::Sub(_, Node::Term(l)) = e {
                self.dst_flags[l.index() as usize] = true;
            }
        }
        self.revive_wires();
        Some(delta)
    }

    /// Adds the call wires [`fire_src`] skipped from term nodes that the
    /// edit made propagation targets (a constant operand or lambda body
    /// replaced by a variable): such a node can grow now, so every callee
    /// already discovered through it gets its wire, exactly as if the node
    /// had been live when the callee was found.
    fn revive_wires(&mut self) {
        let mut revived: Vec<bool> = Vec::new();
        for (&is_dst, &node) in self.dst_flags.iter().zip(&self.node_of_label) {
            if is_dst && node != UNINDEXED && !self.tables.live_src[node] {
                self.tables.live_src[node] = true;
                revived.resize(self.tables.live_src.len(), false);
                revived[node] = true;
            }
        }
        if revived.is_empty() {
            return;
        }
        // Each live `Call` constraint is the one static call at its site.
        for ci in 0..self.constraints.len() {
            let SrcConstraint::Call { arg, bind, site } = self.constraints[ci] else {
                continue;
            };
            let Some(callees) = self.calls.get(site) else {
                continue;
            };
            if self.solver.is_retracted(ci) {
                continue;
            }
            for clo in callees {
                if let AbsClo::Lam(l) = clo {
                    let (param, body) = self.tables.lam[l.index() as usize];
                    for wire in [(arg, param), (body, bind)] {
                        if revived[wire.0] {
                            add_wire(
                                &mut self.solver,
                                &self.nodes,
                                &mut self.constraints,
                                wire,
                                false,
                            );
                        }
                    }
                }
            }
        }
    }

    /// Runs the solver to its fixpoint under `guard`, charging the store's
    /// footprint against the memory ceiling once per firing.
    pub(crate) fn run(&mut self, guard: &RunGuard) -> Result<(), AnalysisError> {
        let SrcLive {
            solver,
            nodes,
            constraints,
            calls,
            tables,
            ..
        } = self;
        let mut deltas: Vec<DeltaRange> = Vec::new();
        solver.run_guarded(guard, |solver, ci| {
            guard.charge_memory(nodes.approx_bytes() as u64)?;
            fire_src(ci, solver, nodes, constraints, calls, tables, &mut deltas);
            Ok(())
        })
    }

    /// Commits the converged store into a fresh [`CfaResult`]. The pool is
    /// owned by the live state, so repeated commits across edits keep the
    /// store's memo table valid and dedup against earlier fixpoints.
    pub(crate) fn commit(&mut self) -> CfaResult {
        let SrcLive {
            nodes,
            pool,
            calls,
            node_of_label,
            dst_flags,
            commit_cache,
            calls_snapshot,
            ..
        } = self;
        if commit_cache.len() < nodes.node_count() {
            commit_cache.resize(nodes.node_count(), None);
        }
        let mut commit = |node: usize, pool: &mut SetPool<AbsClo>| -> Arc<BTreeSet<AbsClo>> {
            let len = nodes.log(node).len();
            if let Some((cached_len, set)) = &commit_cache[node] {
                if *cached_len == len {
                    return Arc::clone(set);
                }
            }
            let id = nodes.commit_into(node, pool);
            let set = pool.get_arc(id);
            commit_cache[node] = Some((len, Arc::clone(&set)));
            set
        };
        let vars: Vec<Arc<BTreeSet<AbsClo>>> =
            (0..self.num_vars).map(|i| commit(i, pool)).collect();
        let mut terms = LabelTable::new(dst_flags.len() as u32);
        for (i, &is_dst) in dst_flags.iter().enumerate() {
            if is_dst {
                let l = Label::new(i as u32);
                terms.insert(l, commit(node_of_label[i], pool));
            }
        }
        let callee_count: usize = calls.values().map(BTreeSet::len).sum();
        let calls = match calls_snapshot {
            Some((count, snap)) if *count == callee_count => Arc::clone(snap),
            _ => {
                let snap = Arc::new(calls.clone());
                *calls_snapshot = Some((callee_count, Arc::clone(&snap)));
                snap
            }
        };
        CfaResult {
            vars,
            terms,
            calls,
            iterations: self.solver.stats().fired.max(1),
        }
    }

    /// Constraint firings so far (cumulative across edits).
    pub(crate) fn fired(&self) -> u64 {
        self.solver.stats().fired
    }

    /// Solver statistics combined with the live pool's counters.
    pub(crate) fn stats(&self) -> SolverStats {
        self.solver.stats().with_pool(self.pool.stats())
    }
}

/// The original dense formulation: every constraint re-evaluated per sweep,
/// sets cloned on every propagation. Kept as the measured baseline for the
/// solver benchmarks and as a differential oracle for the sparse solver.
pub fn zero_cfa_dense(prog: &AnfProgram) -> CfaResult {
    let lambdas = LabelLookup::build(prog.label_count(), prog.lambdas());
    let edges = collect_edges(prog);
    let idx = NodeIndex::build(prog, &edges);

    /// The dense constraint form: `Seed` points into the parallel `seeds`
    /// table so the whole list stays `Copy`.
    #[derive(Clone, Copy)]
    enum Dense {
        Seed(usize, usize),
        Sub(usize, usize),
        Call {
            f: usize,
            arg: usize,
            bind: usize,
            site: Label,
        },
    }

    let mut seeds: Vec<BTreeSet<AbsClo>> = Vec::new();
    let mut constraints: Vec<Dense> = edges
        .iter()
        .map(|e| match e {
            Edge::Seed(set, dst) => {
                seeds.push(set.clone());
                Dense::Seed(seeds.len() - 1, idx.node(*dst))
            }
            Edge::Sub(src, dst) => Dense::Sub(idx.node(*src), idx.node(*dst)),
            Edge::Call { f, arg, bind, site } => Dense::Call {
                f: idx.node(*f),
                arg: idx.node(*arg),
                bind: bind.index(),
                site: *site,
            },
        })
        .collect();

    let mut values: Vec<BTreeSet<AbsClo>> = vec![BTreeSet::new(); idx.total()];
    fn extend(values: &mut [BTreeSet<AbsClo>], dst: usize, set: BTreeSet<AbsClo>) -> bool {
        let target = &mut values[dst];
        let before = target.len();
        target.extend(set);
        target.len() != before
    }

    let mut calls: LabelTable<BTreeSet<AbsClo>> = LabelTable::new(prog.label_count());
    let mut iterations = 0u64;
    loop {
        iterations += 1;
        let mut changed = false;
        let mut new_edges: Vec<Dense> = Vec::new();
        for e in &constraints {
            match *e {
                Dense::Seed(s, dst) => {
                    changed |= extend(&mut values, dst, seeds[s].clone());
                }
                Dense::Sub(src, dst) => {
                    let s = values[src].clone();
                    changed |= extend(&mut values, dst, s);
                }
                Dense::Call { f, arg, bind, site } => {
                    let callees = values[f].clone();
                    for clo in callees {
                        let newly = calls.entry_or_default(site).insert(clo);
                        changed |= newly;
                        if let AbsClo::Lam(l) = clo {
                            let lam = lambdas.expect(l);
                            // argument flows into the parameter
                            let s = values[arg].clone();
                            changed |= extend(&mut values, lam.param_id.index(), s);
                            // body result flows into the binder
                            new_edges.push(Dense::Sub(idx.node(Node::Term(lam.body.label)), bind));
                        }
                        // Inc/Dec return numbers: no closure flow.
                    }
                }
            }
        }
        for e in new_edges {
            // Persist dynamically discovered return edges (duplicates and
            // all — this is the dense baseline's documented inefficiency).
            if let Dense::Sub(src, dst) = e {
                let s = values[src].clone();
                changed |= extend(&mut values, dst, s);
            }
            constraints.push(e);
        }
        if !changed {
            break;
        }
    }

    let vars: Vec<Arc<BTreeSet<AbsClo>>> = values[..idx.num_vars]
        .iter()
        .map(|s| Arc::new(s.clone()))
        .collect();
    let terms = idx.commit_dst_terms(|node| Arc::new(values[node].clone()));
    CfaResult {
        vars,
        terms,
        calls: Arc::new(calls),
        iterations,
    }
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
    /// Fixpoint work performed: constraint firings (sparse solver) or full
    /// sweeps (dense baseline). Always ≥ 1.
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
// CPS-level constraint generation (shared by sparse and dense solvers)
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
            solver.watch(v.index(), c);
            constraints.push(CpsConstraint::Sub(dst));
            // Replay the source's existing log (fresh cursor = 0); an
            // empty source needs no first firing.
            if !nodes.log(v.index()).is_empty() {
                solver.post(c);
            }
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

/// [`zero_cfa_cps`] under a full [`RunGuard`] — the finest rung of the
/// governed 0CFA ladder
/// ([`governed_zero_cfa_cps`](crate::govern::governed_zero_cfa_cps)); span
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

fn zero_cfa_cps_impl(
    prog: &CpsProgram,
    guard: &RunGuard,
    sink: &mut impl TraceSink,
) -> Result<(CpsCfaResult, SolverStats), AnalysisError> {
    Ok(zero_cfa_cps_seeded(prog, None, guard, sink)?.expect("an unseeded build is total"))
}

// ---------------------------------------------------------------------------
// The CPS-level solver, cold or warm-started — see `crate::incremental`
// ---------------------------------------------------------------------------

/// A warm-start seed for the CPS-level solver, already transported into
/// the new program's spaces (the CPS mirror of [`SrcSeed`]).
pub(crate) struct CpsSeed {
    /// Flow set per new variable index (both namespaces; dense).
    pub(crate) vars: Vec<BTreeSet<CpsFlow>>,
    /// Pre-wired return sites: new site label → continuations discovered.
    pub(crate) returns: Vec<(Label, BTreeSet<AbsKont>)>,
    /// Pre-wired call graph: new site label → callees discovered.
    pub(crate) calls: Vec<(Label, BTreeSet<AbsClo>)>,
}

/// The seeded analog of [`cps_wire_flow`]: instead of growing nodes on the
/// spot, a constant flow that the seed does not already hold is **deferred**
/// into `pours` — applied only after every watch of the run is registered,
/// so the growth notification reaches watchers registered later than the
/// wire. Variable flows become the usual persistent `Sub` edges,
/// registered caught-up when the seed already contains the source.
fn cps_warm_wire(
    flow: Flow,
    dst: usize,
    solver: &mut WorklistSolver,
    nodes: &DeltaNodes<CpsFlow>,
    constraints: &mut Vec<CpsConstraint>,
    pours: &mut Vec<(usize, CpsFlow)>,
) {
    match flow {
        Flow::None => {}
        Flow::Const(cflow) => {
            if !nodes.contains(dst, &cflow) {
                pours.push((dst, cflow));
            }
        }
        Flow::Var(v) => {
            let c = solver.add_constraint(constraints.len() as u32);
            constraints.push(CpsConstraint::Sub(dst));
            watch_from(solver, nodes, v.index(), c, nodes.is_subset(v.index(), dst));
        }
    }
}

/// CPS-level 0CFA from an optional warm-start seed — the one place it
/// registers its constraints. Unseeded, every node starts empty and only
/// the static seeds and constant-operator calls schedule work. Seeded, the
/// previous fixpoint is poured silently, the cursor bases are pinned past
/// it, the returns/calls tables are prefilled, the previous run's dynamic
/// wires are re-established, and each constraint the seed already
/// satisfies registers caught-up, so only growth (new constants, unmet
/// subsets) schedules work. Counters go under `cfa.cps` cold and
/// `cfa.cps.warm` seeded. `Ok(None)` = the seed does not fit the new
/// program's shape; fall back to a cold solve.
pub(crate) fn zero_cfa_cps_seeded(
    prog: &CpsProgram,
    seed: Option<&CpsSeed>,
    guard: &RunGuard,
    sink: &mut impl TraceSink,
) -> Result<Option<(CpsCfaResult, SolverStats)>, AnalysisError> {
    let tables = CpsTables::build(prog);
    let edges = collect_cps_edges(prog);
    let n = prog.num_vars();

    let mut solver = WorklistSolver::new();
    solver.add_nodes(n);
    solver.reserve(edges.len());
    let mut nodes: DeltaNodes<CpsFlow> = DeltaNodes::new(n);
    let mut returns: LabelTable<BTreeSet<AbsKont>> = LabelTable::new(prog.label_count());
    let mut calls: LabelTable<BTreeSet<AbsClo>> = LabelTable::new(prog.label_count());

    let warm = seed.is_some();
    if let Some(seed) = seed {
        if seed.vars.len() != n {
            return Ok(None);
        }
        for (i, set) in seed.vars.iter().enumerate() {
            for v in set {
                nodes.add(i, *v);
            }
        }
        // Pin the cursor bases: caught-up watches treat the poured history
        // as consumed.
        for i in 0..n {
            solver.set_node_len(i, nodes.log(i).len());
        }
        for (site, set) in &seed.returns {
            returns.entry_or_default(*site).extend(set.iter().copied());
        }
        for (site, set) in &seed.calls {
            calls.entry_or_default(*site).extend(set.iter().copied());
        }
    }

    // Per-site operands, for re-establishing a seed's wires (empty cold).
    let sites = if warm { prog.label_count() as usize } else { 0 };
    let mut ret_w: Vec<Option<Flow>> = vec![None; sites];
    let mut call_ac: Vec<Option<(Flow, Label)>> = vec![None; sites];

    // Watching constraints are not posted while their node is empty (the
    // first delta would be empty — a no-op); `node_grew` schedules them.
    // Seeds skip the worklist entirely and are poured after this loop, so
    // their growth reaches every watcher.
    let mut constraints: Vec<CpsConstraint> = Vec::with_capacity(edges.len());
    for e in &edges {
        match e {
            CpsEdge::Seed(..) => {}
            CpsEdge::Sub(src, dst) => {
                let (s, d) = (src.index(), dst.index());
                let c = solver.add_constraint(constraints.len() as u32);
                constraints.push(CpsConstraint::Sub(d));
                watch_from(&mut solver, &nodes, s, c, warm && nodes.is_subset(s, d));
            }
            CpsEdge::Ret { k, w, site } => {
                let c = solver.add_constraint(constraints.len() as u32);
                constraints.push(CpsConstraint::Ret { w: *w, site: *site });
                if warm {
                    ret_w[site.index() as usize] = Some(*w);
                }
                let kn = k.index();
                let wired = returns.get(*site);
                let caught_up = warm
                    && nodes.log(kn).iter().all(|(v, _)| match v {
                        CpsFlow::Kont(kk) => wired.is_some_and(|s| s.contains(kk)),
                        CpsFlow::Clo(_) => true, // closures in k are skipped by the firing
                    });
                watch_from(&mut solver, &nodes, kn, c, caught_up);
            }
            CpsEdge::Call { f, arg, cont, site } => {
                let c = solver.add_constraint(constraints.len() as u32);
                constraints.push(CpsConstraint::Call {
                    f: *f,
                    arg: *arg,
                    cont: *cont,
                    site: *site,
                });
                if warm {
                    call_ac[site.index() as usize] = Some((*arg, *cont));
                }
                let wired = calls.get(*site);
                match f {
                    Flow::Var(v) => {
                        let caught_up = warm
                            && nodes.log(v.index()).iter().all(|(val, _)| match val {
                                CpsFlow::Clo(clo) => wired.is_some_and(|s| s.contains(clo)),
                                CpsFlow::Kont(_) => true, // non-closures are skipped
                            });
                        watch_from(&mut solver, &nodes, v.index(), c, caught_up);
                    }
                    // A constant operator has no watches, so it is posted
                    // once — a numeric one too, where the firing does
                    // nothing. A seed that already wired the callee makes
                    // the firing a no-op, so that one is skipped.
                    Flow::Const(CpsFlow::Clo(clo)) if wired.is_some_and(|s| s.contains(clo)) => {}
                    Flow::Const(_) | Flow::None => solver.post(c),
                }
            }
        }
    }

    if let Some(seed) = seed {
        // Re-establish the previous run's dynamic wires. `Ok(None)` whenever
        // a seeded site or callee has no counterpart in the new program.
        let mut pours: Vec<(usize, CpsFlow)> = Vec::new();
        for (site, set) in &seed.returns {
            let w = match ret_w.get(site.index() as usize).copied().flatten() {
                Some(w) => w,
                None if set.is_empty() => continue,
                None => return Ok(None),
            };
            for kk in set {
                if let AbsKont::Co(l) = kk {
                    let dst = tables
                        .cont_var
                        .get(l.index() as usize)
                        .copied()
                        .unwrap_or(UNINDEXED);
                    if dst == UNINDEXED {
                        return Ok(None);
                    }
                    cps_warm_wire(w, dst, &mut solver, &nodes, &mut constraints, &mut pours);
                }
            }
        }
        for (site, set) in &seed.calls {
            let (arg, cont) = match call_ac.get(site.index() as usize).copied().flatten() {
                Some(ac) => ac,
                None if set.is_empty() => continue,
                None => return Ok(None),
            };
            for clo in set {
                if let AbsClo::Lam(l) = clo {
                    let (param, kvar) = tables
                        .lam
                        .get(l.index() as usize)
                        .copied()
                        .unwrap_or((UNINDEXED, UNINDEXED));
                    if param == UNINDEXED {
                        return Ok(None);
                    }
                    cps_warm_wire(
                        arg,
                        param,
                        &mut solver,
                        &nodes,
                        &mut constraints,
                        &mut pours,
                    );
                    cps_warm_wire(
                        Flow::Const(CpsFlow::Kont(AbsKont::Co(cont))),
                        kvar,
                        &mut solver,
                        &nodes,
                        &mut constraints,
                        &mut pours,
                    );
                }
            }
        }
        // Deferred constant pours: every watch exists now, so this growth
        // notifies all of them (including caught-up ones, via their cursors).
        for (dst, flow) in pours {
            if let Some(len) = nodes.add(dst, flow) {
                solver.node_grew(dst, len);
            }
        }
    }
    // Static seeds: on a warm build, no-ops where the poured fixpoint
    // already holds the constant, real growth where the edit introduced one.
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
    stats.emit_into(sink, if warm { "cfa.cps.warm" } else { "cfa.cps" });
    let iterations = stats.fired.max(1);
    Ok(Some((
        CpsCfaResult {
            vars,
            returns,
            calls,
            iterations,
        },
        stats,
    )))
}

/// The original dense CPS formulation (full re-sweeps, per-propagation set
/// clones) — the measured baseline and differential oracle.
pub fn zero_cfa_cps_dense(prog: &CpsProgram) -> CpsCfaResult {
    let lambdas = LabelLookup::build(prog.label_count(), prog.lambdas());
    let conts = LabelLookup::build(prog.label_count(), prog.conts());
    let edges = collect_cps_edges(prog);
    let mut values: Vec<BTreeSet<CpsFlow>> = vec![BTreeSet::new(); prog.num_vars()];
    let mut returns: LabelTable<BTreeSet<AbsKont>> = LabelTable::new(prog.label_count());
    let mut calls: LabelTable<BTreeSet<AbsClo>> = LabelTable::new(prog.label_count());

    let read = |f: Flow, vars: &[BTreeSet<CpsFlow>]| -> BTreeSet<CpsFlow> {
        match f {
            Flow::None => BTreeSet::new(),
            Flow::Const(c) => BTreeSet::from([c]),
            Flow::Var(v) => vars[v.index()].clone(),
        }
    };

    let mut iterations = 0u64;
    loop {
        iterations += 1;
        let mut changed = false;
        let add = |v: CVarId, set: BTreeSet<CpsFlow>, vars: &mut [BTreeSet<CpsFlow>]| {
            let target = &mut vars[v.index()];
            let before = target.len();
            target.extend(set);
            target.len() != before
        };
        for e in &edges {
            match e {
                CpsEdge::Seed(c, dst) => {
                    changed |= add(*dst, BTreeSet::from([*c]), &mut values);
                }
                CpsEdge::Sub(src, dst) => {
                    let s = values[src.index()].clone();
                    changed |= add(*dst, s, &mut values);
                }
                CpsEdge::Ret { k, w, site } => {
                    let konts: Vec<AbsKont> = values[k.index()]
                        .iter()
                        .filter_map(|f| match f {
                            CpsFlow::Kont(kk) => Some(*kk),
                            CpsFlow::Clo(_) => None,
                        })
                        .collect();
                    for kk in konts {
                        changed |= returns.entry_or_default(*site).insert(kk);
                        if let AbsKont::Co(l) = kk {
                            let cont = conts.expect(l);
                            let s = read(*w, &values);
                            changed |= add(cont.var_id, s, &mut values);
                        }
                    }
                }
                CpsEdge::Call { f, arg, cont, site } => {
                    let callees: Vec<AbsClo> = read(*f, &values)
                        .into_iter()
                        .filter_map(|fl| match fl {
                            CpsFlow::Clo(c) => Some(c),
                            CpsFlow::Kont(_) => None,
                        })
                        .collect();
                    for clo in callees {
                        changed |= calls.entry_or_default(*site).insert(clo);
                        if let AbsClo::Lam(l) = clo {
                            let lam = lambdas.expect(l);
                            let s = read(*arg, &values);
                            changed |= add(lam.param_id, s, &mut values);
                            changed |= add(
                                lam.k_id,
                                BTreeSet::from([CpsFlow::Kont(AbsKont::Co(*cont))]),
                                &mut values,
                            );
                        } else {
                            // Primitives return numbers directly to the
                            // continuation: no closure flow.
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    CpsCfaResult {
        vars: values.into_iter().map(Arc::new).collect(),
        returns,
        calls,
        iterations,
    }
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
    fn sparse_and_dense_agree_on_sample_programs() {
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
            let dense = zero_cfa_dense(&p);
            assert!(sparse.same_solution(&dense), "src 0CFA diverges on {src}");
            assert_eq!(
                sparse.terms.len(),
                dense.terms.len(),
                "terms key set on {src}"
            );
            let c = CpsProgram::from_anf(&p);
            let sparse_c = zero_cfa_cps(&c).unwrap();
            let dense_c = zero_cfa_cps_dense(&c);
            assert!(
                sparse_c.same_solution(&dense_c),
                "CPS 0CFA diverges on {src}"
            );
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
    fn an_edit_that_makes_a_constant_node_grow_adds_its_skipped_wires() {
        // The literal operand `0` and the constant body `1` get no wires
        // while they are constants; replacing each with `g` must wire the
        // already-discovered callee in place, as a cold solve would.
        let before = "(let (g (lambda (y) y)) (let (f (lambda (x) 1)) (let (a (f 0)) a)))";
        let after = "(let (g (lambda (y) y)) (let (f (lambda (x) g)) (let (a (f g)) a)))";
        let (old, new) = (
            AnfProgram::parse(before).unwrap(),
            AnfProgram::parse(after).unwrap(),
        );
        assert!(crate::incremental::align_anf(&old, &new).identity_spans());
        let guard = RunGuard::new(AnalysisBudget::default());
        let mut live = SrcLive::build(&old, None).unwrap();
        live.run(&guard).unwrap();
        let wired = live.stats().constraints;
        live.apply_edit(&new)
            .expect("constant → variable edits retract in place");
        live.run(&guard).unwrap();
        let warm = live.commit();
        let cold = zero_cfa(&new).unwrap();
        assert!(
            warm.same_solution(&cold),
            "in-place edit diverges from cold"
        );
        let (x, a) = (new.var_named("x").unwrap(), new.var_named("a").unwrap());
        assert_eq!(warm.get(x).len(), 1, "argument wire revived");
        assert_eq!(warm.get(a).len(), 1, "body wire revived");
        // Two static Subs into the new variable operands, two revived wires.
        assert_eq!(live.stats().constraints, wired + 4);
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
        // The dense oracles take no budget and still converge.
        assert!(zero_cfa_dense(&p).iterations >= 1);
        assert!(zero_cfa_cps_dense(&c).iterations >= 1);
    }
}
