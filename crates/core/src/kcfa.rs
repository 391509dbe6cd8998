//! Continuation-polyvariant CFA over CPS programs — the context-sensitivity
//! repair for §6.1's false returns.
//!
//! The paper diagnoses why CPS confuses analyses: a procedure's continuation
//! variable `k` collects *every* caller's continuation, and a return `(k W)`
//! applies them all. The monovariant analyses of Figure 6 and
//! [`crate::cfa::zero_cfa_cps`] both suffer this. The repair — known since
//! Shivers' 1CFA — is to analyze procedure bodies *once per call site*, so
//! each activation's `k` holds exactly its own caller's continuation.
//!
//! [`cont_sensitive_cfa`] implements the cheapest such repair: user
//! variables stay monovariant (0CFA), while continuation variables are
//! indexed by a one-deep call string. The experiment E14 shows that this
//! eliminates every false return of the `repeated_calls` family at
//! polynomial cost — quantifying the paper's closing remark that "a more
//! practical alternative is to combine heuristic in-lining with a
//! direct-style analysis": call-site-indexed continuations *are* the
//! analysis-side version of inlining the return path.

use crate::absval::{AbsClo, AbsKont};
use crate::labtab::LabelLookup;
use cpsdfa_cps::{CTerm, CTermKind, CValKind, CVarId, CpsProgram};
use cpsdfa_syntax::Label;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

/// A one-deep call-string context: the call site whose activation we are
/// analyzing (`None` = the program's top level).
pub type Ctx = Option<Label>;

/// A continuation value with its creation context: returning through it
/// resumes analysis in that context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CtxKont {
    /// The initial continuation.
    Stop,
    /// `(coe x, P)` created in context `Ctx`.
    Co(Label, Ctx),
}

impl CtxKont {
    /// Erases the context, for comparison against monovariant results.
    pub fn erase(self) -> AbsKont {
        match self {
            CtxKont::Stop => AbsKont::Stop,
            CtxKont::Co(l, _) => AbsKont::Co(l),
        }
    }
}

/// The result of the continuation-polyvariant analysis.
#[derive(Debug, Clone)]
pub struct ContCfaResult {
    /// Monovariant closure set per user variable.
    pub users: Vec<BTreeSet<AbsClo>>,
    /// Context-indexed continuation sets per continuation variable.
    pub konts: HashMap<(CVarId, Ctx), BTreeSet<CtxKont>>,
    /// Per `(return site, context)`: the continuations invoked there.
    pub returns: BTreeMap<(Label, Ctx), BTreeSet<CtxKont>>,
    /// Analysis states explored (cost measure).
    pub states: usize,
}

impl ContCfaResult {
    /// The closure set of a user variable.
    pub fn get_user(&self, v: CVarId) -> &BTreeSet<AbsClo> {
        &self.users[v.index()]
    }

    /// Merged-return edges, context-sensitively: at each *activation* of a
    /// return site, `|konts| − 1` procedure returns are confused (the halt
    /// continuation never counts, matching
    /// [`FlowLog::false_return_edges`](crate::flow::FlowLog::false_return_edges)).
    /// Context sensitivity drives this to 0 where 0CFA reports `m − 1`.
    pub fn false_return_edges(&self) -> usize {
        self.returns
            .values()
            .map(|ks| {
                ks.iter()
                    .filter(|k| matches!(k, CtxKont::Co(_, _)))
                    .count()
                    .saturating_sub(1)
            })
            .sum()
    }

    /// The context-*erased* continuation set of a continuation variable,
    /// for comparison with monovariant analyses.
    pub fn erased_konts(&self, v: CVarId) -> BTreeSet<AbsKont> {
        self.konts
            .iter()
            .filter(|((var, _), _)| *var == v)
            .flat_map(|(_, ks)| ks.iter().map(|k| k.erase()))
            .collect()
    }
}

/// Runs the continuation-polyvariant CFA: 0CFA on user variables, one-deep
/// call strings on continuation variables.
///
/// ```
/// use cpsdfa_anf::AnfProgram;
/// use cpsdfa_core::cfa::zero_cfa_cps;
/// use cpsdfa_core::kcfa::cont_sensitive_cfa;
/// use cpsdfa_cps::CpsProgram;
///
/// // Theorem 5.1's program: two calls to one procedure.
/// let p = AnfProgram::parse("(let (f (lambda (x) x)) (let (a1 (f 1)) (let (a2 (f 2)) a1)))")?;
/// let c = CpsProgram::from_anf(&p);
/// assert!(zero_cfa_cps(&c)?.false_return_edges() > 0);   // 0CFA merges returns
/// assert_eq!(cont_sensitive_cfa(&c).false_return_edges(), 0); // 1-deep contexts do not
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn cont_sensitive_cfa(prog: &CpsProgram) -> ContCfaResult {
    let lambdas = LabelLookup::build(prog.label_count(), prog.lambdas());
    let conts = LabelLookup::build(prog.label_count(), prog.conts());
    let mut r = ContCfaResult {
        users: vec![BTreeSet::new(); prog.num_vars()],
        konts: HashMap::new(),
        returns: BTreeMap::new(),
        states: 0,
    };

    let k0 = prog.kont_var_id(prog.top_k()).expect("top k indexed");
    r.konts.entry((k0, None)).or_default().insert(CtxKont::Stop);

    // Worklist of (term, context) states. Terms are addressed by label;
    // a state re-enters the queue whenever a store cell it may read grows.
    // For simplicity (programs are small) we re-run all discovered states
    // until the global store stabilizes.
    let mut discovered: HashSet<(Label, Ctx)> = HashSet::new();
    let mut queue: VecDeque<(&CTerm, Ctx)> = VecDeque::new();
    fn push<'p>(
        t: &'p CTerm,
        ctx: Ctx,
        discovered: &mut HashSet<(Label, Ctx)>,
        queue: &mut VecDeque<(&'p CTerm, Ctx)>,
    ) {
        if discovered.insert((t.label, ctx)) {
            queue.push_back((t, ctx));
        }
    }
    push(prog.root(), None, &mut discovered, &mut queue);

    // Iterate to a fixpoint: drain the queue, and whenever anything
    // changed, re-enqueue every discovered state.
    let mut all_states: Vec<(&CTerm, Ctx)> = Vec::new();
    loop {
        let mut changed = false;
        while let Some((t, ctx)) = queue.pop_front() {
            all_states.push((t, ctx));
            let mut newly: Vec<(&CTerm, Ctx)> = Vec::new();
            changed |= step(t, ctx, prog, &lambdas, &conts, &mut r, &mut |nt, nctx| {
                newly.push((nt, nctx));
            });
            for (nt, nctx) in newly {
                push(nt, nctx, &mut discovered, &mut queue);
            }
        }
        if !changed {
            break;
        }
        for &(t, ctx) in &all_states {
            queue.push_back((t, ctx));
        }
        all_states.clear();
    }
    r.states = discovered.len();
    r
}

/// One transfer of a `(term, ctx)` state; returns whether the store grew.
fn step<'p>(
    t: &'p CTerm,
    ctx: Ctx,
    prog: &CpsProgram,
    lambdas: &LabelLookup<cpsdfa_cps::CLambdaRef<'p>>,
    conts: &LabelLookup<cpsdfa_cps::ContRef<'p>>,
    r: &mut ContCfaResult,
    enqueue: &mut impl FnMut(&'p CTerm, Ctx),
) -> bool {
    let mut changed = false;
    let flow = |w: &cpsdfa_cps::CVal, r: &ContCfaResult| -> BTreeSet<AbsClo> {
        match &w.kind {
            CValKind::Num(_) => BTreeSet::new(),
            CValKind::Add1K => BTreeSet::from([AbsClo::Inc]),
            CValKind::Sub1K => BTreeSet::from([AbsClo::Dec]),
            CValKind::Lam { .. } => BTreeSet::from([AbsClo::Lam(w.label)]),
            CValKind::Var(x) => {
                let id = prog.user_var_id(x).expect("indexed user variable");
                r.users[id.index()].clone()
            }
        }
    };
    let bind_user = |v: CVarId, set: BTreeSet<AbsClo>, r: &mut ContCfaResult| {
        let cell = &mut r.users[v.index()];
        let before = cell.len();
        cell.extend(set);
        cell.len() != before
    };

    match &t.kind {
        CTermKind::Ret(k, w) => {
            let kid = prog.kont_var_id(k).expect("indexed continuation variable");
            let konts: Vec<CtxKont> = r
                .konts
                .get(&(kid, ctx))
                .map(|s| s.iter().copied().collect())
                .unwrap_or_default();
            let wf = flow(w, r);
            for kk in konts {
                changed |= r.returns.entry((t.label, ctx)).or_default().insert(kk);
                if let CtxKont::Co(l, cctx) = kk {
                    let cont = conts.expect(l);
                    changed |= bind_user(cont.var_id, wf.clone(), r);
                    enqueue(cont.body, cctx);
                }
            }
        }
        CTermKind::Let { var, val, body } => {
            let x = prog.user_var_id(var).expect("indexed user variable");
            let f = flow(val, r);
            changed |= bind_user(x, f, r);
            enqueue(body, ctx);
        }
        CTermKind::Call { f, arg, cont } => {
            let callees = flow(f, r);
            let argf = flow(arg, r);
            for clo in callees {
                match clo {
                    AbsClo::Lam(l) => {
                        let lam = lambdas.expect(l);
                        changed |= bind_user(lam.param_id, argf.clone(), r);
                        let nctx = Some(t.label);
                        let cell = r.konts.entry((lam.k_id, nctx)).or_default();
                        let before = cell.len();
                        cell.insert(CtxKont::Co(cont.label, ctx));
                        changed |= cell.len() != before;
                        enqueue(lam.body, nctx);
                    }
                    AbsClo::Inc | AbsClo::Dec => {
                        // Primitive result is numeric: the continuation is
                        // invoked in the current context with no closure
                        // flow.
                        enqueue(&cont.body, ctx);
                    }
                }
            }
        }
        CTermKind::LetK {
            k,
            cont,
            then_,
            else_,
            ..
        } => {
            let kid = prog.kont_var_id(k).expect("indexed continuation variable");
            let cell = r.konts.entry((kid, ctx)).or_default();
            let before = cell.len();
            cell.insert(CtxKont::Co(cont.label, ctx));
            changed |= cell.len() != before;
            enqueue(then_, ctx);
            enqueue(else_, ctx);
        }
        CTermKind::Loop { cont } => {
            // Numeric values only: the continuation runs in this context.
            enqueue(&cont.body, ctx);
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfa::zero_cfa_cps;
    use cpsdfa_anf::AnfProgram;
    use cpsdfa_workloads::families;

    fn cps(src: &str) -> CpsProgram {
        CpsProgram::from_anf(&AnfProgram::parse(src).unwrap())
    }

    #[test]
    fn theorem_5_1_false_return_is_repaired() {
        let c = cps("(let (f (lambda (x) x)) (let (a1 (f 1)) (let (a2 (f 2)) a1)))");
        let mono = zero_cfa_cps(&c).unwrap();
        let poly = cont_sensitive_cfa(&c);
        assert_eq!(mono.false_return_edges(), 1);
        assert_eq!(poly.false_return_edges(), 0);
    }

    #[test]
    fn repeated_calls_family_is_fully_repaired() {
        for m in 1..=8 {
            let p = AnfProgram::from_term(&families::repeated_calls(m));
            let c = CpsProgram::from_anf(&p);
            let mono = zero_cfa_cps(&c).unwrap();
            let poly = cont_sensitive_cfa(&c);
            assert_eq!(mono.false_return_edges(), m.saturating_sub(1));
            assert_eq!(poly.false_return_edges(), 0, "m = {m}");
        }
    }

    #[test]
    fn user_closure_sets_match_monovariant_cfa() {
        // Continuation polyvariance must not change user-level flows on
        // these programs (it only splits the return paths).
        for src in [
            "(let (f (lambda (x) x)) (let (a1 (f 1)) (let (a2 (f 2)) a1)))",
            "(let (g (lambda (h) (h 3))) (g (lambda (y) (add1 y))))",
            "(let (a (if0 z 0 1)) (add1 a))",
        ] {
            let c = cps(src);
            let mono = zero_cfa_cps(&c).unwrap();
            let poly = cont_sensitive_cfa(&c);
            for (v, key) in c.iter_vars() {
                if matches!(key, cpsdfa_cps::VarKey::User(_)) {
                    let mono_clos: BTreeSet<AbsClo> = mono
                        .get(v)
                        .iter()
                        .filter_map(|f| match f {
                            crate::cfa::CpsFlow::Clo(cl) => Some(*cl),
                            crate::cfa::CpsFlow::Kont(_) => None,
                        })
                        .collect();
                    assert_eq!(poly.get_user(v), &mono_clos, "{key} in {src}");
                }
            }
        }
    }

    #[test]
    fn erased_continuation_sets_refine_monovariant_sets() {
        let c = cps("(let (f (lambda (x) x)) (let (a1 (f 1)) (let (a2 (f 2)) a1)))");
        let mono = zero_cfa_cps(&c).unwrap();
        let poly = cont_sensitive_cfa(&c);
        for (v, key) in c.iter_vars() {
            if matches!(key, cpsdfa_cps::VarKey::Kont(_)) {
                let mono_konts: BTreeSet<AbsKont> = mono
                    .get(v)
                    .iter()
                    .filter_map(|f| match f {
                        crate::cfa::CpsFlow::Kont(k) => Some(*k),
                        crate::cfa::CpsFlow::Clo(_) => None,
                    })
                    .collect();
                assert!(
                    poly.erased_konts(v).is_subset(&mono_konts),
                    "polyvariant konts not ⊆ monovariant at {key}"
                );
            }
        }
    }

    #[test]
    fn recursion_terminates() {
        let c = cps("(let (w (lambda (x) (x x))) (let (r (w w)) r))");
        let r = cont_sensitive_cfa(&c);
        assert!(r.states > 0);
    }

    #[test]
    fn conditionals_keep_contexts_apart() {
        let c = cps("(let (f (lambda (x) (if0 x 0 1))) (let (a (f 0)) (let (b (f 5)) b)))");
        let poly = cont_sensitive_cfa(&c);
        // two separate activations, each with a single caller continuation
        assert_eq!(poly.false_return_edges(), 0);
    }
}
