//! Pushdown (summary-based) control-flow analysis over the CPS arena —
//! the repair for §6.1's false returns.
//!
//! [`zero_cfa_cps`](crate::cfa::zero_cfa_cps) treats continuations as
//! ordinary flow values: every continuation that reaches a procedure's `k`
//! is applied at every return site `(k W)`, so distinct procedure returns
//! merge (Shivers' folklore problem, Theorem 5.1's `a1` loss). The CFA2
//! line of work (Vardoulakis & Shivers; "Pushdown Control-Flow Analysis
//! for Free") fixes this by treating the continuation argument as a
//! *stack* rather than a value: calls push a frame, returns pop exactly
//! the matching frame, and procedure effects are communicated through
//! entry-state × exit-value *summaries*.
//!
//! This module implements that discipline for the repo's CPS IR, where it
//! is unusually cheap, because the CPS transform ([`CpsProgram::from_anf`])
//! guarantees **perfect stack discipline statically**:
//!
//! * every `Call` passes a *literal* continuation λ — continuations never
//!   escape as values, so each call site's frame is known syntactically;
//! * every return site `(k W)` names a continuation *variable* that is
//!   bound in exactly one of three ways: a user λ's own `k` parameter
//!   (a **frame** return — the pop to match against pushes), a `letk`
//!   join point (branch merge — not a procedure return), or the top-level
//!   halt continuation.
//!
//! So instead of propagating continuation sets, the analyzer classifies
//! every return site once, collects a per-λ **return template** (the
//! frame-return sites of the λ together with what they return: the λ's own
//! parameter, a constant, another variable, or a number), and at each
//! *discovered call* `(f a (λx.P))` with `λl ∈ f` instantiates `l`'s
//! template at that call: the entry's own argument — not the merged
//! parameter set — flows to the caller's binder `x`. Closure flow still
//! runs on the shared semi-naïve [`WorklistSolver`]/[`DeltaNodes`]
//! machinery; only the continuation dimension changes. The result is a
//! strict refinement of [`zero_cfa_cps`](crate::cfa::zero_cfa_cps):
//! per-variable flow sets are subsets (`polyvariant(n)` keeps each
//! funneled closure separate where 0CFA merges all `n`), and every
//! recorded return edge carries a matching-call witness, so the §6.1 census
//! ([`PushdownCfaResult::false_return_edges`]) is zero — verified
//! empirically by experiment E21 and the differential suite.
//!
//! Costs: one summary instantiation per discovered `(call site, callee)`
//! pair, the same asymptotics as 0CFA's call wiring. The analyzer is the
//! top rung (`cfa.pushdown`) of its degradation ladder
//! ([`govern::ladder`](crate::govern::ladder)):
//! coarser-but-cheaper `cfa.cps` and `cfa.src` remain as fallbacks.
//!
//! [`CpsProgram::from_anf`]: cpsdfa_cps::CpsProgram::from_anf

use crate::absval::{AbsClo, AbsKont};
use crate::budget::{AnalysisBudget, AnalysisError};
use crate::cfa::{CpsCfaResult, CpsFlow, CpsTables, Flow};
use crate::govern::RunGuard;
use crate::labtab::LabelTable;
use crate::setpool::{DeltaNodes, SetPool};
use crate::solver::{ConstraintId, DeltaRange, SolverMode, WorklistSolver};
use crate::stats::SolverStats;
use crate::trace::{self, NoopSink, TraceSink};
use cpsdfa_cps::{CTerm, CTermKind, CVal, CValKind, CVarId, CpsProgram};
use cpsdfa_syntax::Label;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// One matched return edge: the pop witnessed by its push. `callee`'s
/// return site `ret_site` was wired to the continuation `cont` because the
/// call at `call_site` (whose literal continuation is `cont`) was observed
/// to apply `callee`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct MatchedReturn {
    /// The `(k W)` return site inside `callee`.
    pub ret_site: Label,
    /// The returning user λ.
    pub callee: Label,
    /// The call site whose summary instantiation wired this edge.
    pub call_site: Label,
    /// The continuation λ the return resumes (the caller's frame).
    pub cont: Label,
}

/// The result of the pushdown analysis. Same shape as
/// [`CpsCfaResult`] — per-variable flow sets plus call/return tables — so
/// the two rungs are directly comparable, plus the matched-return
/// witnesses and the summary-instantiation counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PushdownCfaResult {
    /// Flow set per variable (both namespaces), as hash-consed commit
    /// handles. Continuation variables hold the frames the analysis
    /// *matched* (a subset of the sets 0CFA merges there).
    pub vars: Vec<Arc<BTreeSet<CpsFlow>>>,
    /// Return site → continuations resumed there. Frame-return entries
    /// are accumulated per matched call; join/halt entries are static.
    pub returns: LabelTable<BTreeSet<AbsKont>>,
    /// Call site → abstract closures applied there.
    pub calls: LabelTable<BTreeSet<AbsClo>>,
    /// Every frame-return edge, with its matching-call witness.
    pub matched: BTreeSet<MatchedReturn>,
    /// Summary instantiations performed (one per discovered
    /// `(call site, user-λ callee)` pair).
    pub summaries: u64,
    /// Constraint firings until fixpoint (cost measure, ≥ 1).
    pub iterations: u64,
}

impl PushdownCfaResult {
    /// The flow set of a variable.
    pub fn get(&self, v: CVarId) -> &BTreeSet<CpsFlow> {
        self.vars[v.index()].as_ref()
    }

    /// True if the analysis solutions (not the work counters) coincide.
    pub fn same_solution(&self, other: &PushdownCfaResult) -> bool {
        self.vars == other.vars
            && self.returns == other.returns
            && self.calls == other.calls
            && self.matched == other.matched
    }

    /// §6.1's census under call/return matching: the number of recorded
    /// return edges whose `(call_site, callee)` witness is *not* in the
    /// calls table — i.e. returns wired without a matching call. The
    /// summary instantiation only ever wires a return after inserting the
    /// witnessing call, so this is structurally zero; E21 checks it
    /// empirically against the same census that convicts 0CFA (where
    /// every continuation bound to `k` is applied at `(k W)`, matched or
    /// not).
    pub fn false_return_edges(&self) -> usize {
        self.matched
            .iter()
            .filter(|m| {
                !self
                    .calls
                    .get(m.call_site)
                    .is_some_and(|s| s.contains(&AbsClo::Lam(m.callee)))
            })
            .count()
    }

    /// Total committed flow facts (`Σ |vars[i]|`) — the precision bulk
    /// measure E21 tabulates against 0CFA.
    pub fn flow_facts(&self) -> usize {
        self.vars.iter().map(|s| s.len()).sum()
    }

    /// Checks that this answer *refines* the monovariant CPS 0CFA on the
    /// same program: every per-variable flow set, per-site call set, and
    /// per-site return set is a subset of 0CFA's. Returns a description
    /// of the first violation, or `None` when the containment holds.
    pub fn refinement_violation(&self, mono: &CpsCfaResult) -> Option<String> {
        if self.vars.len() != mono.vars.len() {
            return Some(format!(
                "variable universes differ: {} vs {}",
                self.vars.len(),
                mono.vars.len()
            ));
        }
        for (i, (fine, coarse)) in self.vars.iter().zip(mono.vars.iter()).enumerate() {
            if !fine.is_subset(coarse) {
                return Some(format!("var {i}: pushdown {fine:?} ⊄ 0CFA {coarse:?}"));
            }
        }
        for (site, clos) in self.calls.iter() {
            let coarse = mono.calls.get(site);
            if !coarse.is_some_and(|c| clos.is_subset(c)) {
                return Some(format!("calls at {site}: {clos:?} ⊄ {coarse:?}"));
            }
        }
        for (site, ks) in self.returns.iter() {
            let coarse = mono.returns.get(site);
            if !coarse.is_some_and(|c| ks.is_subset(c)) {
                return Some(format!("returns at {site}: {ks:?} ⊄ {coarse:?}"));
            }
        }
        None
    }

    /// [`Self::refinement_violation`] as a predicate.
    pub fn refines(&self, mono: &CpsCfaResult) -> bool {
        self.refinement_violation(mono).is_none()
    }
}

// ---------------------------------------------------------------------------
// Static structure: return-site classification and per-λ return templates
// ---------------------------------------------------------------------------

/// One frame-return site of a user λ: what `(k W)` returns when the λ's
/// own `k` is popped.
#[derive(Clone, Copy)]
struct RetTemplate {
    /// The `(k W)` term's label.
    site: Label,
    /// The returned operand.
    w: Flow,
    /// True when `W` is the λ's *own parameter* — the case where summary
    /// instantiation beats monovariance: the caller's argument (not the
    /// merged parameter set) flows to the caller's binder.
    own_param: bool,
}

/// A static constraint of the pushdown flow graph. Return sites never
/// appear: frame returns are instantiated from templates at call
/// discovery, join and halt returns are resolved at collection time.
enum PdEdge {
    Seed(CpsFlow, CVarId),
    Sub(CVarId, CVarId),
    /// `(k W)` with `k` a `letk` join: `W` flows to the join
    /// continuation's binder — an ordinary static edge.
    Join {
        w: Flow,
        cont: Label,
    },
    /// `(W₁ W₂ (λx.P))`.
    Call {
        f: Flow,
        arg: Flow,
        cont: Label,
        site: Label,
    },
}

/// The enclosing user λ while walking a body.
#[derive(Clone, Copy)]
struct Frame {
    label: Label,
    param: CVarId,
    k: CVarId,
}

/// Everything the solver needs, extracted in one deterministic walk.
struct PdStatic {
    edges: Vec<PdEdge>,
    /// By λ label: the frame-return template.
    templates: Vec<Vec<RetTemplate>>,
    /// `letk`-bound continuation variable node → its join continuation.
    join_of: HashMap<usize, Label>,
    /// Halt return sites (`(k₀ W)`) — recorded statically.
    halt_returns: Vec<Label>,
    /// Join return sites with their static continuation.
    join_returns: Vec<(Label, Label)>,
}

fn collect_pushdown(prog: &CpsProgram) -> PdStatic {
    let flow_of = |w: &CVal| -> Flow {
        match &w.kind {
            CValKind::Num(_) => Flow::None,
            CValKind::Add1K => Flow::Const(CpsFlow::Clo(AbsClo::Inc)),
            CValKind::Sub1K => Flow::Const(CpsFlow::Clo(AbsClo::Dec)),
            CValKind::Lam { .. } => Flow::Const(CpsFlow::Clo(AbsClo::Lam(w.label))),
            CValKind::Var(x) => Flow::Var(prog.user_var_id(x).expect("indexed variable")),
        }
    };
    // Frames of every user λ, by the λ value's label.
    let mut frames: HashMap<Label, Frame> = HashMap::new();
    for (l, r) in prog.lambdas() {
        frames.insert(
            l,
            Frame {
                label: l,
                param: r.param_id,
                k: r.k_id,
            },
        );
    }
    let top_k = prog.kont_var_id(prog.top_k()).expect("top k indexed");

    let mut st = PdStatic {
        edges: Vec::new(),
        templates: vec![Vec::new(); prog.label_count() as usize],
        join_of: HashMap::new(),
        halt_returns: Vec::new(),
        join_returns: Vec::new(),
    };

    // Lexical scoping makes return-site classification local: inside a
    // user λ the only continuation variables in scope are its own `k` and
    // `letk` joins introduced within; at the top level, `k₀` and joins.
    fn walk<'p>(
        t: &'p CTerm,
        frame: Option<Frame>,
        prog: &CpsProgram,
        frames: &HashMap<Label, Frame>,
        top_k: CVarId,
        st: &mut PdStatic,
        flow_of: &impl Fn(&'p CVal) -> Flow,
    ) {
        let enter_val = |v: &'p CVal, st: &mut PdStatic| {
            if let CValKind::Lam { body, .. } = &v.kind {
                let f = frames[&v.label];
                walk(body, Some(f), prog, frames, top_k, st, flow_of);
            }
        };
        match &t.kind {
            CTermKind::Ret(k, w) => {
                let kid = prog.kont_var_id(k).expect("indexed k");
                let wf = flow_of(w);
                match frame {
                    Some(f) if kid == f.k => {
                        st.templates[f.label.index() as usize].push(RetTemplate {
                            site: t.label,
                            w: wf,
                            own_param: matches!(wf, Flow::Var(v) if v == f.param),
                        })
                    }
                    _ if kid == top_k => st.halt_returns.push(t.label),
                    _ => {
                        let cont = *st
                            .join_of
                            .get(&kid.index())
                            .expect("return continuation is a frame, join, or halt");
                        st.join_returns.push((t.label, cont));
                        st.edges.push(PdEdge::Join { w: wf, cont });
                    }
                }
                enter_val(w, st);
            }
            CTermKind::Let { var, val, body } => {
                let x = prog.user_var_id(var).expect("indexed variable");
                match flow_of(val) {
                    Flow::None => {}
                    Flow::Const(c) => st.edges.push(PdEdge::Seed(c, x)),
                    Flow::Var(y) => st.edges.push(PdEdge::Sub(y, x)),
                }
                enter_val(val, st);
                walk(body, frame, prog, frames, top_k, st, flow_of);
            }
            CTermKind::Call { f, arg, cont } => {
                st.edges.push(PdEdge::Call {
                    f: flow_of(f),
                    arg: flow_of(arg),
                    cont: cont.label,
                    site: t.label,
                });
                enter_val(f, st);
                enter_val(arg, st);
                // The literal continuation body runs in the *caller's*
                // frame: its returns pop the caller's stack, not a new one.
                walk(&cont.body, frame, prog, frames, top_k, st, flow_of);
            }
            CTermKind::LetK {
                k,
                cont,
                then_,
                else_,
                ..
            } => {
                let kid = prog.kont_var_id(k).expect("indexed k");
                st.join_of.insert(kid.index(), cont.label);
                walk(&cont.body, frame, prog, frames, top_k, st, flow_of);
                walk(then_, frame, prog, frames, top_k, st, flow_of);
                walk(else_, frame, prog, frames, top_k, st, flow_of);
            }
            CTermKind::Loop { cont } => walk(&cont.body, frame, prog, frames, top_k, st, flow_of),
        }
    }
    walk(prog.root(), None, prog, &frames, top_k, &mut st, &flow_of);
    st
}

// ---------------------------------------------------------------------------
// Solving
// ---------------------------------------------------------------------------

/// A live constraint. No `Ret` variant: the continuation dimension is
/// resolved statically (joins) or by summary instantiation (frames).
#[derive(Clone, Copy)]
enum PdConstraint {
    Sub(usize),
    Call {
        f: Flow,
        arg: Flow,
        cont: Label,
        site: Label,
    },
}

/// The mutable call/return record grown during solving.
struct PdRecord {
    returns: LabelTable<BTreeSet<AbsKont>>,
    calls: LabelTable<BTreeSet<AbsClo>>,
    matched: BTreeSet<MatchedReturn>,
    /// Callee λ → continuations of its discovered callers (the frames to
    /// pour into its `k` node at commit).
    callers: LabelTable<BTreeSet<Label>>,
    summaries: u64,
}

/// Joins `flow` into node `dst` — [`cps_wire_flow`] over the pushdown
/// constraint vocabulary.
///
/// [`cps_wire_flow`]: crate::cfa
fn pd_wire_flow(
    flow: Flow,
    dst: usize,
    solver: &mut WorklistSolver,
    nodes: &mut DeltaNodes<CpsFlow>,
    constraints: &mut Vec<PdConstraint>,
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
            constraints.push(PdConstraint::Sub(dst));
            if !nodes.log(v.index()).is_empty() {
                solver.post(c);
            }
        }
    }
}

/// Wires a newly-discovered callee at `site`: the argument into the
/// parameter (monovariant body analysis), then the callee's return
/// template instantiated *at this call* — own-parameter returns route the
/// call's own argument to the caller's binder, which is exactly where the
/// pushdown analysis refines 0CFA.
#[allow(clippy::too_many_arguments)]
fn pd_apply_clo(
    v: CpsFlow,
    arg: Flow,
    cont: Label,
    site: Label,
    solver: &mut WorklistSolver,
    nodes: &mut DeltaNodes<CpsFlow>,
    constraints: &mut Vec<PdConstraint>,
    rec: &mut PdRecord,
    tables: &CpsTables,
    templates: &[Vec<RetTemplate>],
) {
    let CpsFlow::Clo(clo) = v else { return };
    if !rec.calls.entry_or_default(site).insert(clo) {
        return; // already wired
    }
    let AbsClo::Lam(l) = clo else {
        return; // primitives return numbers: no closure flow
    };
    let (param, _kvar) = tables.lam[l.index() as usize];
    pd_wire_flow(arg, param, solver, nodes, constraints);
    rec.callers.entry_or_default(l).insert(cont);
    rec.summaries += 1;
    let binder = tables.cont_var[cont.index() as usize];
    for tpl in &templates[l.index() as usize] {
        rec.returns
            .entry_or_default(tpl.site)
            .insert(AbsKont::Co(cont));
        rec.matched.insert(MatchedReturn {
            ret_site: tpl.site,
            callee: l,
            call_site: site,
            cont,
        });
        let w = if tpl.own_param { arg } else { tpl.w };
        pd_wire_flow(w, binder, solver, nodes, constraints);
    }
}

/// Fires pushdown constraint `ci`.
#[allow(clippy::too_many_arguments)]
fn fire_pd(
    ci: ConstraintId,
    solver: &mut WorklistSolver,
    nodes: &mut DeltaNodes<CpsFlow>,
    constraints: &mut Vec<PdConstraint>,
    rec: &mut PdRecord,
    tables: &CpsTables,
    templates: &[Vec<RetTemplate>],
    deltas: &mut Vec<DeltaRange>,
) {
    match constraints[ci] {
        PdConstraint::Sub(dst) => {
            solver.take_deltas(ci, deltas);
            let mut grew = false;
            for &(src, lo, hi) in deltas.iter() {
                grew |= nodes.forward_range(src, lo, hi, dst).is_some();
            }
            if grew {
                solver.node_grew(dst, nodes.log(dst).len());
            }
        }
        PdConstraint::Call { f, arg, cont, site } => match f {
            Flow::None => {}
            Flow::Const(c) => pd_apply_clo(
                c,
                arg,
                cont,
                site,
                solver,
                nodes,
                constraints,
                rec,
                tables,
                templates,
            ),
            Flow::Var(_) => {
                solver.take_deltas(ci, deltas);
                for &(fnode, lo, hi) in deltas.iter() {
                    for i in lo..hi {
                        let v = nodes.log(fnode)[i].0;
                        pd_apply_clo(
                            v,
                            arg,
                            cont,
                            site,
                            solver,
                            nodes,
                            constraints,
                            rec,
                            tables,
                            templates,
                        );
                    }
                }
            }
        },
    }
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Pushdown CFA under the default budget.
pub fn pushdown_cfa(prog: &CpsProgram) -> Result<PushdownCfaResult, AnalysisError> {
    Ok(pushdown_cfa_instrumented(prog)?.0)
}

/// [`pushdown_cfa`] plus the solver/pool counters of the run.
pub fn pushdown_cfa_instrumented(
    prog: &CpsProgram,
) -> Result<(PushdownCfaResult, SolverStats), AnalysisError> {
    pushdown_cfa_guarded(
        prog,
        &RunGuard::new(AnalysisBudget::default()),
        &mut NoopSink,
    )
}

/// [`pushdown_cfa`] under a full [`RunGuard`] and a trace sink (span and
/// counter prefix `cfa.pushdown`) — the finest rung of its degradation
/// ladder ([`govern::ladder`](crate::govern::ladder)).
pub fn pushdown_cfa_guarded(
    prog: &CpsProgram,
    guard: &RunGuard,
    sink: &mut impl TraceSink,
) -> Result<(PushdownCfaResult, SolverStats), AnalysisError> {
    trace::with_span(sink, "cfa.pushdown", |sink| {
        pushdown_cfa_impl(prog, guard, sink)
    })
}

/// [`pushdown_cfa_guarded`] with a [`SolverMode`] argument, kept because
/// `cpsbench/src/replay.rs` calls it.
pub fn pushdown_cfa_guarded_mode(
    prog: &CpsProgram,
    _mode: SolverMode,
    guard: &RunGuard,
    sink: &mut impl TraceSink,
) -> Result<(PushdownCfaResult, SolverStats), AnalysisError> {
    pushdown_cfa_guarded(prog, guard, sink)
}

fn pushdown_cfa_impl(
    prog: &CpsProgram,
    guard: &RunGuard,
    sink: &mut impl TraceSink,
) -> Result<(PushdownCfaResult, SolverStats), AnalysisError> {
    let tables = CpsTables::build(prog);
    let st = collect_pushdown(prog);
    let n = prog.num_vars();

    let mut solver = WorklistSolver::new();
    solver.add_nodes(n);
    solver.reserve(st.edges.len());
    let mut nodes: DeltaNodes<CpsFlow> = DeltaNodes::new(n);
    let mut constraints: Vec<PdConstraint> = Vec::with_capacity(st.edges.len());

    // Watch registration first, seed pours second — same discipline as
    // `zero_cfa_cps_impl`: watching constraints are scheduled by
    // `node_grew`, so they are not posted while every node is empty.
    for e in &st.edges {
        match e {
            PdEdge::Seed(..) => {}
            PdEdge::Sub(src, dst) => {
                let c = solver.add_constraint(constraints.len() as u32);
                solver.watch(src.index(), c);
                constraints.push(PdConstraint::Sub(dst.index()));
            }
            PdEdge::Join { w, cont } => {
                let dst = tables.cont_var[cont.index() as usize];
                match *w {
                    Flow::None | Flow::Const(_) => {} // poured below
                    Flow::Var(y) => {
                        let c = solver.add_constraint(constraints.len() as u32);
                        solver.watch(y.index(), c);
                        constraints.push(PdConstraint::Sub(dst));
                    }
                }
            }
            PdEdge::Call { f, arg, cont, site } => {
                let c = solver.add_constraint(constraints.len() as u32);
                if let Flow::Var(v) = f {
                    solver.watch(v.index(), c);
                } else {
                    solver.post(c);
                }
                constraints.push(PdConstraint::Call {
                    f: *f,
                    arg: *arg,
                    cont: *cont,
                    site: *site,
                });
            }
        }
    }
    for e in &st.edges {
        match e {
            PdEdge::Seed(flow, dst) => {
                let dst = dst.index();
                if let Some(len) = nodes.add(dst, *flow) {
                    solver.node_grew(dst, len);
                }
            }
            PdEdge::Join {
                w: Flow::Const(flow),
                cont,
            } => {
                let dst = tables.cont_var[cont.index() as usize];
                if let Some(len) = nodes.add(dst, *flow) {
                    solver.node_grew(dst, len);
                }
            }
            _ => {}
        }
    }

    let mut rec = PdRecord {
        returns: LabelTable::new(prog.label_count()),
        calls: LabelTable::new(prog.label_count()),
        matched: BTreeSet::new(),
        callers: LabelTable::new(prog.label_count()),
        summaries: 0,
    };
    // Join and halt return sites are static facts, recorded up front
    // (reachability-blind, exactly like 0CFA's constraint generation).
    for &site in &st.halt_returns {
        rec.returns.entry_or_default(site).insert(AbsKont::Stop);
    }
    for &(site, cont) in &st.join_returns {
        rec.returns.entry_or_default(site).insert(AbsKont::Co(cont));
    }

    let mut deltas: Vec<DeltaRange> = Vec::new();
    solver.run_guarded(guard, |solver, ci| {
        guard.charge_memory(nodes.approx_bytes() as u64)?;
        fire_pd(
            ci,
            solver,
            &mut nodes,
            &mut constraints,
            &mut rec,
            &tables,
            &st.templates,
            &mut deltas,
        );
        Ok(())
    })?;

    // Continuation-variable slots: fill with the *matched* frames so the
    // committed store is comparable (per-variable ⊆) with 0CFA's, where
    // these hold the merged continuation sets.
    for (l, r) in prog.lambdas() {
        if let Some(conts) = rec.callers.get(l) {
            let k = r.k_id.index();
            for &c in conts {
                nodes.add(k, CpsFlow::Kont(AbsKont::Co(c)));
            }
        }
    }
    for (&kvar, &cont) in &st.join_of {
        nodes.add(kvar, CpsFlow::Kont(AbsKont::Co(cont)));
    }
    let top_k = prog.kont_var_id(prog.top_k()).expect("top k indexed");
    nodes.add(top_k.index(), CpsFlow::Kont(AbsKont::Stop));

    let mut pool: SetPool<CpsFlow> = SetPool::new();
    let vars: Vec<Arc<BTreeSet<CpsFlow>>> = (0..n)
        .map(|i| {
            let id = nodes.commit_into(i, &mut pool);
            pool.get_arc(id)
        })
        .collect();
    let stats = solver.stats().with_pool(pool.stats());
    stats.emit_into(sink, "cfa.pushdown");
    sink.gauge("cfa.pushdown.summaries", rec.summaries);
    let iterations = stats.fired.max(1);
    Ok((
        PushdownCfaResult {
            vars,
            returns: rec.returns,
            calls: rec.calls,
            matched: rec.matched,
            summaries: rec.summaries,
            iterations,
        },
        stats,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfa::zero_cfa_cps;
    use cpsdfa_anf::AnfProgram;
    use cpsdfa_workloads::families;

    fn cps_of(t: &cpsdfa_syntax::Term) -> (AnfProgram, CpsProgram) {
        let p = AnfProgram::from_term(t);
        let c = CpsProgram::from_anf(&p);
        (p, c)
    }

    #[test]
    fn polyvariant_binders_stay_separate() {
        let n = 4;
        let (_, c) = cps_of(&families::polyvariant(n));
        let pd = pushdown_cfa(&c).unwrap();
        let mono = zero_cfa_cps(&c).unwrap();
        for i in 1..=n {
            let a = c.var_named(&format!("a{i}")).unwrap();
            // 0CFA merges all n funneled closures into every binder…
            assert_eq!(mono.get(a).len(), n, "a{i} under 0CFA");
            // …call/return matching keeps exactly the one that entered.
            let fi = c.var_named(&format!("f{i}")).unwrap();
            assert_eq!(pd.get(a), pd.get(fi), "a{i} under pushdown");
            assert_eq!(pd.get(a).len(), 1, "a{i} under pushdown");
        }
        assert!(mono.false_return_edges() >= n - 1);
        assert_eq!(pd.false_return_edges(), 0);
        assert!(pd.refines(&mono), "{:?}", pd.refinement_violation(&mono));
    }

    #[test]
    fn census_is_zero_where_zero_cfa_merges() {
        for (name, t) in [
            ("repeated_calls(6)", families::repeated_calls(6)),
            ("polyvariant(5)", families::polyvariant(5)),
            ("dispatch(4)", families::dispatch(4)),
            ("church(6)", families::church(6)),
            ("y_countdown(5)", families::y_countdown(5)),
            ("even_odd(6)", families::even_odd(6)),
        ] {
            let (_, c) = cps_of(&t);
            let pd = pushdown_cfa(&c).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(pd.false_return_edges(), 0, "{name}");
            assert!(!pd.matched.is_empty(), "{name}: some return must match");
        }
    }

    #[test]
    fn refines_zero_cfa_on_mixed_programs() {
        for (src, calls_lambda) in [
            (
                "(let (f (lambda (x) x)) (let (a1 (f 1)) (let (a2 (f 2)) a1)))",
                true,
            ),
            // Primitive-only calls: no summaries, still a refinement.
            ("(let (a (if0 z 0 1)) (add1 a))", false),
            (
                "(let (g (lambda (h) (h 3))) (g (lambda (y) (add1 y))))",
                true,
            ),
            (
                "(let (f (lambda (x) x)) (let (g (lambda (y) (f y))) (g (lambda (d) d))))",
                true,
            ),
        ] {
            let p = AnfProgram::parse(src).unwrap();
            let c = CpsProgram::from_anf(&p);
            let pd = pushdown_cfa(&c).unwrap();
            let mono = zero_cfa_cps(&c).unwrap();
            assert!(
                pd.refines(&mono),
                "{src}: {:?}",
                pd.refinement_violation(&mono)
            );
            assert_eq!(pd.summaries >= 1, calls_lambda, "{src}");
        }
    }

    #[test]
    fn theorem_51_example_recovers_a1() {
        // §5.1: 0CFA loses a1 to the false return; matching recovers it.
        let p = AnfProgram::parse("(let (f (lambda (x) x)) (let (a1 (f 1)) (let (a2 (f 2)) a1)))")
            .unwrap();
        let c = CpsProgram::from_anf(&p);
        let pd = pushdown_cfa(&c).unwrap();
        let mono = zero_cfa_cps(&c).unwrap();
        assert!(mono.false_return_edges() > 0);
        assert_eq!(pd.false_return_edges(), 0);
        // Both calls are still seen.
        assert_eq!(pd.calls.iter().count(), mono.calls.iter().count());
    }

    #[test]
    fn recursion_reaches_fixpoint() {
        let (_, c) = cps_of(&families::y_countdown(3));
        let a = pushdown_cfa(&c).unwrap();
        let b = pushdown_cfa(&c).unwrap();
        assert!(a.same_solution(&b));
        assert!(a.iterations >= 1);
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let (_, c) = cps_of(&families::y_countdown(8));
        let err = pushdown_cfa_guarded(&c, &RunGuard::new(AnalysisBudget::new(3)), &mut NoopSink)
            .expect_err("three firings cannot finish the Y combinator");
        assert!(matches!(err, AnalysisError::BudgetExhausted { .. }));
    }
}
