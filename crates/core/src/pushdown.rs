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
//! So instead of propagating continuation sets, the analyzer reads CPS
//! 0CFA's constraint walk, classifies each of its return sites once by the
//! binder of `k`, collects a per-λ **return template** (the
//! frame-return sites of the λ together with what they return: the λ's own
//! parameter, a constant, another variable, or a number), and at each
//! *discovered call* `(f a (λx.P))` with `λl ∈ f` instantiates `l`'s
//! template at that call: the entry's own argument — not the merged
//! parameter set — flows to the caller's binder `x`. Closure flow still
//! runs on the semi-naïve set-flow engine CPS 0CFA runs on, over the
//! shared [`WorklistSolver`]/[`DeltaNodes`] machinery; only the
//! continuation dimension changes. The result is a
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
//! ([`govern::ladder`](crate::govern::ladder)), with `cfa.cps` and
//! `cfa.src` as fallbacks. `cfa.cps` is coarser but not cheaper: E21 has
//! it firing at least as often as pushdown on every row, so a fall to it
//! can rescue a deadline, memory or panic trip, not a firing budget.
//! `cfa.src` does fire less on some families (`dispatch`).
//!
//! [`CpsProgram::from_anf`]: cpsdfa_cps::CpsProgram::from_anf
//! [`WorklistSolver`]: crate::solver::WorklistSolver
//! [`DeltaNodes`]: crate::setpool::DeltaNodes

use crate::absval::{AbsClo, AbsKont};
use crate::budget::{AnalysisBudget, AnalysisError};
use crate::cfa::{
    collect_cps_edges, CpsCall, CpsCfaResult, CpsEdge, CpsFlow, CpsTables, UNINDEXED,
};
use crate::govern::RunGuard;
use crate::labtab::LabelTable;
use crate::solver::{Committed, Flow, SetRun, SolverMode};
use crate::stats::SolverStats;
use crate::trace::{self, NoopSink, TraceSink};
use cpsdfa_cps::{CVarId, CpsProgram};
use cpsdfa_syntax::Label;
use std::collections::BTreeSet;
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
    w: Flow<CpsFlow>,
    /// True when `W` is the λ's *own parameter* — the case where summary
    /// instantiation beats monovariance: the caller's argument (not the
    /// merged parameter set) flows to the caller's binder.
    own_param: bool,
}

/// What binds a variable node. Every continuation variable is bound
/// exactly once, so a return site `(k W)` is classified by `k`'s binder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum KBinder {
    /// Not a continuation variable.
    None,
    /// A user λ's own `k`: returns through it pop that λ's frame.
    Frame(Label),
    /// A `letk` join point, bound to this continuation λ.
    Join(Label),
    /// The top-level halt continuation.
    Halt,
}

/// The binder of each of the `n` variable nodes, read off the λ table and
/// the CPS walk's continuation seeds: a `letk` seeds its `k` with the join
/// continuation, and the walk seeds the top `k` with `stop`.
fn kont_binders(n: usize, tables: &CpsTables, edges: &[CpsEdge]) -> Vec<KBinder> {
    let mut binders = vec![KBinder::None; n];
    let mut bind = |k: usize, binder: KBinder| {
        debug_assert_eq!(
            binders[k],
            KBinder::None,
            "continuation variable {k} is bound twice"
        );
        binders[k] = binder;
    };
    for (l, &(_, k)) in tables.lam.iter().enumerate() {
        if k != UNINDEXED {
            bind(k, KBinder::Frame(Label::new(l as u32)));
        }
    }
    for e in edges {
        match *e {
            CpsEdge::Seed(CpsFlow::Kont(AbsKont::Co(cont)), k) => bind(k, KBinder::Join(cont)),
            CpsEdge::Seed(CpsFlow::Kont(AbsKont::Stop), k) => bind(k, KBinder::Halt),
            _ => {}
        }
    }
    binders
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

/// Pushdown CFA on the CPS 0CFA constraint walk. Registration is CPS
/// 0CFA's but for the return sites, which are classified by the binder of
/// `k`: a frame return joins its λ's return template, a halt or join
/// return is a static fact (reachability-blind, like 0CFA's constraint
/// generation), and a join's operand flows to the join continuation's
/// binder. Continuation seeds wait for the commit. Counters go under the
/// `cfa.pushdown` prefix.
fn pushdown_cfa_impl(
    prog: &CpsProgram,
    guard: &RunGuard,
    sink: &mut impl TraceSink,
) -> Result<(PushdownCfaResult, SolverStats), AnalysisError> {
    let tables = CpsTables::build(prog);
    let edges = collect_cps_edges(prog);
    let n = prog.num_vars();
    let binders = kont_binders(n, &tables, &edges);
    let cont_binder = |cont: Label| tables.cont_var[cont.index() as usize];
    let mut run: SetRun<CpsFlow, CpsCall> = SetRun::new(n, edges.len());
    let mut templates: Vec<Vec<RetTemplate>> = vec![Vec::new(); prog.label_count() as usize];
    let mut returns: LabelTable<BTreeSet<AbsKont>> = LabelTable::new(prog.label_count());
    for e in &edges {
        match *e {
            CpsEdge::Seed(..) => {}
            CpsEdge::Sub(src, dst) => run.wire(src, dst),
            CpsEdge::Ret { k, w, site } => match binders[k] {
                KBinder::Frame(l) => {
                    let (param, _) = tables.lam[l.index() as usize];
                    let own_param = w == Flow::Var(param);
                    templates[l.index() as usize].push(RetTemplate { site, w, own_param });
                }
                KBinder::Halt => {
                    returns.entry_or_default(site).insert(AbsKont::Stop);
                }
                KBinder::Join(cont) => {
                    returns.entry_or_default(site).insert(AbsKont::Co(cont));
                    if let Flow::Var(y) = w {
                        run.wire(y, cont_binder(cont));
                    }
                }
                KBinder::None => unreachable!("return continuation is a frame, join, or halt"),
            },
            CpsEdge::Call(call) => run.rule(call, call.watched()),
        }
    }
    for e in &edges {
        match *e {
            CpsEdge::Seed(flow @ CpsFlow::Clo(_), dst) => run.seed(dst, flow),
            CpsEdge::Ret {
                k,
                w: Flow::Const(flow),
                ..
            } => {
                if let KBinder::Join(cont) = binders[k] {
                    run.seed(cont_binder(cont), flow);
                }
            }
            _ => {}
        }
    }

    let mut calls: LabelTable<BTreeSet<AbsClo>> = LabelTable::new(prog.label_count());
    let mut matched: BTreeSet<MatchedReturn> = BTreeSet::new();
    // Callee λ → continuations of its discovered callers (the frames to
    // pour into its `k` node at commit).
    let mut callers: LabelTable<BTreeSet<Label>> = LabelTable::new(prog.label_count());
    let mut summaries = 0u64;
    run.run(guard, |run, ci, call| {
        // A newly applied λ: the argument into its parameter (monovariant
        // body analysis), then its return template instantiated *at this
        // call* — own-parameter returns route the call's own argument to
        // the caller's binder, which is exactly where the pushdown analysis
        // refines 0CFA.
        call.fire(run, ci, &mut calls, |run, l| {
            let (param, _) = tables.lam[l.index() as usize];
            run.flow(call.arg, param);
            callers.entry_or_default(l).insert(call.cont);
            summaries += 1;
            let cont = call.cont;
            for tpl in &templates[l.index() as usize] {
                returns.entry_or_default(tpl.site).insert(AbsKont::Co(cont));
                matched.insert(MatchedReturn {
                    ret_site: tpl.site,
                    callee: l,
                    call_site: call.site,
                    cont,
                });
                let w = if tpl.own_param { call.arg } else { tpl.w };
                run.flow(w, cont_binder(cont));
            }
        });
    })?;

    // Continuation-variable slots: fill with the *matched* frames, the
    // join continuation or `stop`, so the committed store is comparable
    // (per-variable ⊆) with 0CFA's, where these hold the merged
    // continuation sets. Poured after the fixpoint, so nothing fires.
    for (k, &binder) in binders.iter().enumerate() {
        let mut pour = |kont| {
            run.nodes.add(k, CpsFlow::Kont(kont));
        };
        match binder {
            KBinder::Frame(l) => {
                for &c in callers.get(l).into_iter().flatten() {
                    pour(AbsKont::Co(c));
                }
            }
            KBinder::Join(cont) => pour(AbsKont::Co(cont)),
            KBinder::Halt => pour(AbsKont::Stop),
            KBinder::None => {}
        }
    }

    let Committed {
        sets,
        stats,
        iterations,
    } = run.commit(0..n, sink, "cfa.pushdown");
    sink.gauge("cfa.pushdown.summaries", summaries);
    Ok((
        PushdownCfaResult {
            vars: sets,
            returns,
            calls,
            matched,
            summaries,
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
    use cpsdfa_cps::CTermKind;
    use cpsdfa_workloads::families;
    use cpsdfa_workloads::random::{corpus, open_config, GenConfig};

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

    /// The premise of classifying returns by binder: every `(k W)` names a
    /// `k` bound exactly once, as a user λ's own `k`, a `letk` join, or
    /// the top `k` — counted here by a walk of the term, independently of
    /// [`kont_binders`].
    #[test]
    fn every_return_continuation_has_exactly_one_binder() {
        let mut terms = Vec::new();
        for n in [4usize, 16, 64] {
            terms.push(families::dispatch(n));
            terms.push(families::polyvariant(n));
            terms.push(families::repeated_calls(n));
            terms.push(families::cond_chain(n));
            terms.push(families::church(n));
            terms.push(families::diamond_chain(n));
            terms.push(families::loop_then_branch(n));
            terms.push(families::y_countdown(n as i64));
            terms.push(families::even_odd(n as i64));
        }
        terms.extend(corpus(31, 200, &GenConfig::default()));
        terms.extend(corpus(32, 200, &open_config()));
        for t in &terms {
            let (_, c) = cps_of(t);
            let node = |k| c.kont_var_id(k).expect("indexed k").index();
            let mut bound = vec![0usize; c.num_vars()];
            for (_, r) in c.lambdas() {
                bound[r.k_id.index()] += 1;
            }
            bound[node(c.top_k())] += 1;
            let mut rets = Vec::new();
            c.root().visit_terms(&mut |term| match &term.kind {
                CTermKind::LetK { k, .. } => bound[node(k)] += 1,
                CTermKind::Ret(k, _) => rets.push(node(k)),
                _ => {}
            });
            assert!(!rets.is_empty());
            let tables = CpsTables::build(&c);
            let binders = kont_binders(c.num_vars(), &tables, &collect_cps_edges(&c));
            for k in rets {
                assert_eq!(bound[k], 1, "return continuation {k} in {t:?}");
                assert_ne!(binders[k], KBinder::None, "{t:?}");
            }
        }
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let (_, c) = cps_of(&families::y_countdown(8));
        let err = pushdown_cfa_guarded(&c, &RunGuard::new(AnalysisBudget::new(3)), &mut NoopSink)
            .expect_err("three firings cannot finish the Y combinator");
        assert!(matches!(err, AnalysisError::BudgetExhausted { .. }));
    }
}
