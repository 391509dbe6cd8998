//! Independent fixpoint certification — translation validation for served
//! analysis answers.
//!
//! The service hands out fixpoints computed through three increasingly
//! subtle paths: the worklist solver, incremental warm-starts, and the
//! content-addressed cache (now backed by a crash-safe disk spill,
//! [`crate::cache::persist`]). Every one
//! of those paths is *trusted* unless something checks the answer after the
//! fact. This module is that check: given the program and a claimed
//! solution, it **re-derives every constraint from the AST** with its own
//! walk — sharing the front end (parser, ANF/CPS transforms, CFG lowering)
//! but *no solver code* — recomputes the least model by naive Kleene
//! iteration, and demands exact equality with the claim.
//!
//! Why not just check closure? A closed superset of the least fixpoint is
//! still closed: an extra `λ ∈ x` fact can justify itself through a
//! self-loop edge (`x ⊆ x` via self-application), so a corrupted answer
//! with *additions* passes any local consistency test. Comparing against an
//! independently recomputed least model catches both directions:
//!
//! * **missing** facts refute as [`Refutation::Unclosed`], with the
//!   violated constraint as a counterexample edge (found by a single
//!   O(edges) closure scan of the claim);
//! * **extra** facts refute as [`Refutation::Unsupported`], naming a fact
//!   the least model does not contain;
//! * wrong table dimensions refute as [`Refutation::Shape`].
//!
//! Work counters (`iterations`, `summaries`) are *not* certified — they are
//! schedule-dependent cost measures, excluded from answer digests for the
//! same reason.
//!
//! The checkers reproduce the exact result-surface conventions of the
//! analyzers (verified by the differential suite in
//! `tests/certify_differential.rs`):
//!
//! * source 0CFA `terms` holds exactly the propagation-*target* labels —
//!   including empty sets — while `calls` holds only non-empty entries;
//! * CPS 0CFA `returns`/`calls` hold only non-empty entries, and variables
//!   commit densely over both namespaces;
//! * pushdown records halt/join returns statically (reachability-blind),
//!   instantiates frame returns per matched call, and back-fills
//!   continuation variables with the *matched* frames after the solve;
//! * MFP summarizes each variable at its defining nodes only.
//!
//! Trust argument: a bug in the shared front end changes *which* constraint
//! system both the solver and the checker see, so it cannot be caught here
//! (nothing short of a second front end could); a bug anywhere downstream —
//! solver scheduling, warm-start reuse, cache storage, disk
//! corruption that slips past checksums — produces an answer that fails
//! this check. The daemon's `--certify` mode samples served answers through
//! [`certify_answer`] and evicts + recomputes on refutation instead of
//! serving the bad fixpoint (DESIGN.md §13).

use crate::absval::{AbsClo, AbsKont};
use crate::cache::{AnalysisKind, CachedAnswer};
use crate::cfa::{CfaResult, CpsCfaResult, CpsFlow};
use crate::domain::{Flat, NumDomain};
use crate::mfp::{Cfg, DfSummary, Stmt};
use crate::pushdown::{MatchedReturn, PushdownCfaResult};
use cpsdfa_anf::{AValKind, Anf, AnfKind, AnfProgram, Bind, VarId};
use cpsdfa_cps::{CTerm, CTermKind, CVal, CValKind, CVarId, CpsProgram};
use cpsdfa_syntax::Label;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

/// A machine-readable witness that a claimed solution *is* the least
/// fixpoint of the constraint system re-derived from the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Certificate {
    /// The analysis whose answer was certified.
    pub kind: AnalysisKind,
    /// Static constraints re-derived and checked.
    pub constraints: usize,
    /// Total facts (set elements + table entries) in the certified answer.
    pub facts: usize,
}

/// A machine-readable refutation: why a claimed solution is *not* the
/// analysis' least fixpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Refutation {
    /// The claim has the wrong dimensions (variable universe, term-table
    /// key set, …) for this program — it cannot be a solution at all.
    Shape {
        /// What dimension disagrees.
        detail: String,
    },
    /// The claim is missing facts: `edge` is a re-derived constraint the
    /// claim violates (the counterexample), `missing` the fact it fails to
    /// propagate.
    Unclosed {
        /// The violated constraint.
        edge: String,
        /// A fact required by `edge` but absent from the claim.
        missing: String,
    },
    /// The claim is closed but *larger* than the least model: it contains
    /// `fact`, which no derivation supports.
    Unsupported {
        /// The unsupported fact.
        fact: String,
    },
}

impl Refutation {
    /// Stable short tag for counters and logs.
    pub fn tag(&self) -> &'static str {
        match self {
            Refutation::Shape { .. } => "shape",
            Refutation::Unclosed { .. } => "unclosed",
            Refutation::Unsupported { .. } => "unsupported",
        }
    }
}

impl fmt::Display for Refutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Refutation::Shape { detail } => write!(f, "shape: {detail}"),
            Refutation::Unclosed { edge, missing } => {
                write!(f, "unclosed: {edge} does not propagate {missing}")
            }
            Refutation::Unsupported { fact } => write!(f, "unsupported fact: {fact}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Source-level 0CFA
// ---------------------------------------------------------------------------

/// A flow node of the re-derived source constraint graph.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum SNode {
    Var(VarId),
    Term(Label),
}

impl fmt::Display for SNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SNode::Var(v) => write!(f, "v{}", v.index()),
            SNode::Term(l) => write!(f, "t{l}"),
        }
    }
}

/// The source constraint system, re-derived by an independent AST walk.
struct SrcSystem {
    seeds: Vec<(BTreeSet<AbsClo>, SNode)>,
    subs: Vec<(SNode, SNode)>,
    /// `(f node, arg node, bind var, site)`.
    calls: Vec<(SNode, SNode, VarId, Label)>,
    /// Labels that are propagation targets — exactly the key set the
    /// analyzer's `terms` table must have.
    dst_terms: BTreeSet<Label>,
    /// `λ label → (param, body label)`.
    lam: HashMap<Label, (VarId, Label)>,
}

impl SrcSystem {
    fn derive(prog: &AnfProgram) -> SrcSystem {
        let mut sys = SrcSystem {
            seeds: Vec::new(),
            subs: Vec::new(),
            calls: Vec::new(),
            dst_terms: BTreeSet::new(),
            lam: HashMap::new(),
        };
        for (l, r) in prog.lambdas() {
            sys.lam.insert(l, (r.param_id, r.body.label));
        }
        sys.walk(prog.root(), prog);
        sys
    }

    fn constraints(&self) -> usize {
        self.seeds.len() + self.subs.len() + self.calls.len()
    }

    fn dst(&mut self, n: SNode) {
        if let SNode::Term(l) = n {
            self.dst_terms.insert(l);
        }
    }

    /// The flow of a syntactic value into `dst`: constants seed (empty
    /// constant sets — numbers — generate nothing, so the target is not
    /// marked), variables subset-edge.
    fn val(&mut self, v: &cpsdfa_anf::AVal, dst: SNode, prog: &AnfProgram) {
        match &v.kind {
            AValKind::Num(_) => {}
            AValKind::Add1 => {
                self.dst(dst);
                self.seeds.push((BTreeSet::from([AbsClo::Inc]), dst));
            }
            AValKind::Sub1 => {
                self.dst(dst);
                self.seeds.push((BTreeSet::from([AbsClo::Dec]), dst));
            }
            AValKind::Lam(..) => {
                self.dst(dst);
                self.seeds
                    .push((BTreeSet::from([AbsClo::Lam(v.label)]), dst));
            }
            AValKind::Var(x) => {
                self.dst(dst);
                let y = prog.var_id(x).expect("indexed variable");
                self.subs.push((SNode::Var(y), dst));
            }
        }
    }

    fn walk(&mut self, m: &Anf, prog: &AnfProgram) {
        match &m.kind {
            AnfKind::Value(v) => {
                self.val(v, SNode::Term(m.label), prog);
                if let AValKind::Lam(_, body) = &v.kind {
                    self.walk(body, prog);
                }
            }
            AnfKind::Let { var, bind, body } => {
                let x = prog.var_id(var).expect("indexed variable");
                match bind {
                    Bind::Value(v) => {
                        self.val(v, SNode::Var(x), prog);
                        if let AValKind::Lam(_, lbody) = &v.kind {
                            self.walk(lbody, prog);
                        }
                    }
                    Bind::App(f, a) => {
                        self.val(f, SNode::Term(f.label), prog);
                        self.val(a, SNode::Term(a.label), prog);
                        if let AValKind::Lam(_, b) = &f.kind {
                            self.walk(b, prog);
                        }
                        if let AValKind::Lam(_, b) = &a.kind {
                            self.walk(b, prog);
                        }
                        self.calls
                            .push((SNode::Term(f.label), SNode::Term(a.label), x, m.label));
                    }
                    Bind::If0(c, t, e) => {
                        self.val(c, SNode::Term(c.label), prog);
                        self.walk(t, prog);
                        self.walk(e, prog);
                        self.subs.push((SNode::Term(t.label), SNode::Var(x)));
                        self.subs.push((SNode::Term(e.label), SNode::Var(x)));
                    }
                    Bind::Loop => {}
                }
                self.walk(body, prog);
                self.dst(SNode::Term(m.label));
                self.subs
                    .push((SNode::Term(body.label), SNode::Term(m.label)));
            }
        }
    }
}

/// The claimed or recomputed source store, with uniform node access.
struct SrcStore {
    vars: Vec<BTreeSet<AbsClo>>,
    terms: BTreeMap<Label, BTreeSet<AbsClo>>,
    calls: BTreeMap<Label, BTreeSet<AbsClo>>,
}

impl SrcStore {
    fn get(&self, n: SNode) -> Option<&BTreeSet<AbsClo>> {
        match n {
            SNode::Var(v) => self.vars.get(v.index()),
            SNode::Term(l) => self.terms.get(&l),
        }
    }

    fn add(&mut self, n: SNode, v: AbsClo) -> bool {
        match n {
            SNode::Var(x) => self.vars[x.index()].insert(v),
            SNode::Term(l) => self.terms.entry(l).or_default().insert(v),
        }
    }
}

static EMPTY_CLO: BTreeSet<AbsClo> = BTreeSet::new();

/// Least model of the re-derived source system, by naive Kleene iteration:
/// every round re-applies every static edge and every call-discovered
/// dynamic edge until nothing grows. Quadratic in the worst case where the
/// analyzer's semi-naive solver is linear — certification trades speed for
/// independence.
fn src_least_model(sys: &SrcSystem, num_vars: usize) -> SrcStore {
    let mut st = SrcStore {
        vars: vec![BTreeSet::new(); num_vars],
        terms: BTreeMap::new(),
        calls: BTreeMap::new(),
    };
    for (set, dst) in &sys.seeds {
        for v in set {
            st.add(*dst, *v);
        }
    }
    loop {
        let mut changed = false;
        for &(src, dst) in &sys.subs {
            let flows: Vec<AbsClo> = st
                .get(src)
                .map(|s| s.iter().copied().collect())
                .unwrap_or_default();
            for v in flows {
                changed |= st.add(dst, v);
            }
        }
        for &(f, arg, bind, site) in &sys.calls {
            let callees: Vec<AbsClo> = st
                .get(f)
                .map(|s| s.iter().copied().collect())
                .unwrap_or_default();
            for clo in callees {
                changed |= st.calls.entry(site).or_default().insert(clo);
                if let AbsClo::Lam(l) = clo {
                    let (param, body) = sys.lam[&l];
                    let args: Vec<AbsClo> = st
                        .get(arg)
                        .map(|s| s.iter().copied().collect())
                        .unwrap_or_default();
                    for v in args {
                        changed |= st.add(SNode::Var(param), v);
                    }
                    let rets: Vec<AbsClo> = st
                        .get(SNode::Term(body))
                        .map(|s| s.iter().copied().collect())
                        .unwrap_or_default();
                    for v in rets {
                        changed |= st.add(SNode::Var(bind), v);
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    st
}

/// One O(edges) closure scan of the claim: returns the first violated
/// constraint as an [`Refutation::Unclosed`] counterexample, or `None` when
/// the claim is closed.
fn src_closure_counterexample(sys: &SrcSystem, claim: &SrcStore) -> Option<Refutation> {
    let get = |n: SNode| claim.get(n).unwrap_or(&EMPTY_CLO);
    for (set, dst) in &sys.seeds {
        if let Some(v) = set.iter().find(|v| !get(*dst).contains(v)) {
            return Some(Refutation::Unclosed {
                edge: format!("seed ⊆ {dst}"),
                missing: format!("{v:?} ∈ {dst}"),
            });
        }
    }
    for &(src, dst) in &sys.subs {
        if let Some(v) = get(src).iter().find(|v| !get(dst).contains(v)) {
            return Some(Refutation::Unclosed {
                edge: format!("{src} ⊆ {dst}"),
                missing: format!("{v:?} ∈ {dst}"),
            });
        }
    }
    for &(f, arg, bind, site) in &sys.calls {
        for clo in get(f) {
            if !claim.calls.get(&site).is_some_and(|s| s.contains(clo)) {
                return Some(Refutation::Unclosed {
                    edge: format!("call@{site}"),
                    missing: format!("{clo:?} ∈ calls[{site}]"),
                });
            }
            if let AbsClo::Lam(l) = clo {
                let (param, body) = sys.lam[l];
                if let Some(v) = get(arg)
                    .iter()
                    .find(|v| !get(SNode::Var(param)).contains(v))
                {
                    return Some(Refutation::Unclosed {
                        edge: format!("call@{site} arg ⊆ v{}", param.index()),
                        missing: format!("{v:?} ∈ v{}", param.index()),
                    });
                }
                if let Some(v) = get(SNode::Term(body))
                    .iter()
                    .find(|v| !get(SNode::Var(bind)).contains(v))
                {
                    return Some(Refutation::Unclosed {
                        edge: format!("call@{site} ret ⊆ v{}", bind.index()),
                        missing: format!("{v:?} ∈ v{}", bind.index()),
                    });
                }
            }
        }
    }
    None
}

/// Certifies a source-level 0CFA answer against `prog`.
pub fn certify_cfa_src(prog: &AnfProgram, claimed: &CfaResult) -> Result<Certificate, Refutation> {
    if claimed.vars.len() != prog.num_vars() {
        return Err(Refutation::Shape {
            detail: format!(
                "claimed {} variables, program has {}",
                claimed.vars.len(),
                prog.num_vars()
            ),
        });
    }
    let sys = SrcSystem::derive(prog);
    let claimed_keys: BTreeSet<Label> = claimed.terms.keys().collect();
    if claimed_keys != sys.dst_terms {
        return Err(Refutation::Shape {
            detail: format!(
                "terms table keyed on {:?}, propagation targets are {:?}",
                claimed_keys, sys.dst_terms
            ),
        });
    }
    let claim = SrcStore {
        vars: claimed.vars.iter().map(|s| (**s).clone()).collect(),
        terms: claimed
            .terms
            .iter()
            .map(|(l, s)| (l, (**s).clone()))
            .collect(),
        calls: claimed.calls.iter().map(|(l, s)| (l, s.clone())).collect(),
    };
    if let Some(r) = src_closure_counterexample(&sys, &claim) {
        return Err(r);
    }
    // Closed and seeded ⇒ the claim contains the least model; any
    // difference left is an unsupported (extra) fact.
    let lfp = src_least_model(&sys, prog.num_vars());
    for (i, (c, d)) in claim.vars.iter().zip(&lfp.vars).enumerate() {
        if let Some(v) = c.difference(d).next() {
            return Err(Refutation::Unsupported {
                fact: format!("{v:?} ∈ v{i}"),
            });
        }
    }
    for (l, c) in &claim.terms {
        let d = lfp.terms.get(l).unwrap_or(&EMPTY_CLO);
        if let Some(v) = c.difference(d).next() {
            return Err(Refutation::Unsupported {
                fact: format!("{v:?} ∈ t{l}"),
            });
        }
    }
    for (l, c) in &claim.calls {
        let d = lfp.calls.get(l).unwrap_or(&EMPTY_CLO);
        if let Some(v) = c.difference(d).next() {
            return Err(Refutation::Unsupported {
                fact: format!("{v:?} ∈ calls[{l}]"),
            });
        }
        if c.is_empty() {
            return Err(Refutation::Unsupported {
                fact: format!("empty calls[{l}] entry"),
            });
        }
    }
    // The lfp calls table only holds non-empty entries; the claim matching
    // it elementwise plus having no extras means the key sets agree.
    if claim.calls.len() != lfp.calls.len() {
        return Err(Refutation::Shape {
            detail: format!(
                "calls table has {} sites, least model has {}",
                claim.calls.len(),
                lfp.calls.len()
            ),
        });
    }
    Ok(Certificate {
        kind: AnalysisKind::CfaSrc,
        constraints: sys.constraints(),
        facts: claim.vars.iter().map(BTreeSet::len).sum::<usize>()
            + claim.terms.values().map(BTreeSet::len).sum::<usize>()
            + claim.calls.values().map(BTreeSet::len).sum::<usize>(),
    })
}

// ---------------------------------------------------------------------------
// CPS-level 0CFA
// ---------------------------------------------------------------------------

/// A CPS operand, re-derived: nothing (a number), a constant flow, or a
/// variable.
#[derive(Clone, Copy)]
enum Op {
    None,
    Const(CpsFlow),
    Var(CVarId),
}

/// The CPS constraint system, re-derived by an independent walk.
struct CpsSystem {
    seeds: Vec<(CpsFlow, CVarId)>,
    subs: Vec<(CVarId, CVarId)>,
    /// `(k var, returned operand, site)`.
    rets: Vec<(CVarId, Op, Label)>,
    /// `(operator, argument, literal continuation label, site)`.
    calls: Vec<(Op, Op, Label, Label)>,
    /// `λ label → (param var, k var)`.
    lam: HashMap<Label, (CVarId, CVarId)>,
    /// continuation label → binder var.
    cont_var: HashMap<Label, CVarId>,
}

impl CpsSystem {
    fn derive(prog: &CpsProgram) -> CpsSystem {
        let mut sys = CpsSystem {
            seeds: Vec::new(),
            subs: Vec::new(),
            rets: Vec::new(),
            calls: Vec::new(),
            lam: HashMap::new(),
            cont_var: HashMap::new(),
        };
        for (l, r) in prog.lambdas() {
            sys.lam.insert(l, (r.param_id, r.k_id));
        }
        for (l, r) in prog.conts() {
            sys.cont_var.insert(l, r.var_id);
        }
        sys.walk(prog.root(), prog);
        let k0 = prog.kont_var_id(prog.top_k()).expect("top k indexed");
        sys.seeds.push((CpsFlow::Kont(AbsKont::Stop), k0));
        sys
    }

    fn constraints(&self) -> usize {
        self.seeds.len() + self.subs.len() + self.rets.len() + self.calls.len()
    }

    fn op_of(&self, w: &CVal, prog: &CpsProgram) -> Op {
        match &w.kind {
            CValKind::Num(_) => Op::None,
            CValKind::Add1K => Op::Const(CpsFlow::Clo(AbsClo::Inc)),
            CValKind::Sub1K => Op::Const(CpsFlow::Clo(AbsClo::Dec)),
            CValKind::Lam { .. } => Op::Const(CpsFlow::Clo(AbsClo::Lam(w.label))),
            CValKind::Var(x) => Op::Var(prog.user_var_id(x).expect("indexed variable")),
        }
    }

    fn enter_val(&mut self, v: &CVal, prog: &CpsProgram) {
        if let CValKind::Lam { body, .. } = &v.kind {
            self.walk(body, prog);
        }
    }

    fn walk(&mut self, t: &CTerm, prog: &CpsProgram) {
        match &t.kind {
            CTermKind::Ret(k, w) => {
                let kid = prog.kont_var_id(k).expect("indexed k");
                let op = self.op_of(w, prog);
                self.rets.push((kid, op, t.label));
                self.enter_val(w, prog);
            }
            CTermKind::Let { var, val, body } => {
                let x = prog.user_var_id(var).expect("indexed variable");
                match self.op_of(val, prog) {
                    Op::None => {}
                    Op::Const(c) => self.seeds.push((c, x)),
                    Op::Var(y) => self.subs.push((y, x)),
                }
                self.enter_val(val, prog);
                self.walk(body, prog);
            }
            CTermKind::Call { f, arg, cont } => {
                let fo = self.op_of(f, prog);
                let ao = self.op_of(arg, prog);
                self.calls.push((fo, ao, cont.label, t.label));
                self.enter_val(f, prog);
                self.enter_val(arg, prog);
                self.walk(&cont.body, prog);
            }
            CTermKind::LetK {
                k,
                cont,
                then_,
                else_,
                ..
            } => {
                let kid = prog.kont_var_id(k).expect("indexed k");
                self.seeds
                    .push((CpsFlow::Kont(AbsKont::Co(cont.label)), kid));
                self.walk(&cont.body, prog);
                self.walk(then_, prog);
                self.walk(else_, prog);
            }
            CTermKind::Loop { cont } => self.walk(&cont.body, prog),
        }
    }
}

/// The claimed or recomputed CPS store.
struct CpsStore {
    vars: Vec<BTreeSet<CpsFlow>>,
    returns: BTreeMap<Label, BTreeSet<AbsKont>>,
    calls: BTreeMap<Label, BTreeSet<AbsClo>>,
}

impl CpsStore {
    fn op_flows(&self, op: Op) -> Vec<CpsFlow> {
        match op {
            Op::None => Vec::new(),
            Op::Const(c) => vec![c],
            Op::Var(v) => self.vars[v.index()].iter().copied().collect(),
        }
    }
}

/// Least model of the re-derived CPS system (naive Kleene iteration).
fn cps_least_model(sys: &CpsSystem, num_vars: usize) -> CpsStore {
    let mut st = CpsStore {
        vars: vec![BTreeSet::new(); num_vars],
        returns: BTreeMap::new(),
        calls: BTreeMap::new(),
    };
    for &(c, dst) in &sys.seeds {
        st.vars[dst.index()].insert(c);
    }
    loop {
        let mut changed = false;
        for &(src, dst) in &sys.subs {
            let flows: Vec<CpsFlow> = st.vars[src.index()].iter().copied().collect();
            for v in flows {
                changed |= st.vars[dst.index()].insert(v);
            }
        }
        for &(k, w, site) in &sys.rets {
            let ks: Vec<AbsKont> = st.vars[k.index()]
                .iter()
                .filter_map(|v| match v {
                    CpsFlow::Kont(kk) => Some(*kk),
                    CpsFlow::Clo(_) => None,
                })
                .collect();
            for kk in ks {
                changed |= st.returns.entry(site).or_default().insert(kk);
                if let AbsKont::Co(l) = kk {
                    let binder = sys.cont_var[&l];
                    let flows = st.op_flows(w);
                    for v in flows {
                        changed |= st.vars[binder.index()].insert(v);
                    }
                }
            }
        }
        for &(f, arg, cont, site) in &sys.calls {
            let callees: Vec<AbsClo> = st
                .op_flows(f)
                .into_iter()
                .filter_map(|v| match v {
                    CpsFlow::Clo(c) => Some(c),
                    CpsFlow::Kont(_) => None,
                })
                .collect();
            for clo in callees {
                changed |= st.calls.entry(site).or_default().insert(clo);
                if let AbsClo::Lam(l) = clo {
                    let (param, kvar) = sys.lam[&l];
                    let flows = st.op_flows(arg);
                    for v in flows {
                        changed |= st.vars[param.index()].insert(v);
                    }
                    changed |= st.vars[kvar.index()].insert(CpsFlow::Kont(AbsKont::Co(cont)));
                }
            }
        }
        if !changed {
            break;
        }
    }
    st
}

/// Closure scan of a claimed CPS store; first violated constraint, if any.
fn cps_closure_counterexample(sys: &CpsSystem, claim: &CpsStore) -> Option<Refutation> {
    for &(c, dst) in &sys.seeds {
        if !claim.vars[dst.index()].contains(&c) {
            return Some(Refutation::Unclosed {
                edge: format!("seed ⊆ v{}", dst.index()),
                missing: format!("{c:?} ∈ v{}", dst.index()),
            });
        }
    }
    for &(src, dst) in &sys.subs {
        if let Some(v) = claim.vars[src.index()]
            .difference(&claim.vars[dst.index()])
            .next()
        {
            return Some(Refutation::Unclosed {
                edge: format!("v{} ⊆ v{}", src.index(), dst.index()),
                missing: format!("{v:?} ∈ v{}", dst.index()),
            });
        }
    }
    for &(k, w, site) in &sys.rets {
        for v in claim.vars[k.index()].iter() {
            let CpsFlow::Kont(kk) = v else { continue };
            if !claim.returns.get(&site).is_some_and(|s| s.contains(kk)) {
                return Some(Refutation::Unclosed {
                    edge: format!("ret@{site}"),
                    missing: format!("{kk:?} ∈ returns[{site}]"),
                });
            }
            if let AbsKont::Co(l) = kk {
                let binder = sys.cont_var[l];
                for f in claim.op_flows(w) {
                    if !claim.vars[binder.index()].contains(&f) {
                        return Some(Refutation::Unclosed {
                            edge: format!("ret@{site} ⊆ v{}", binder.index()),
                            missing: format!("{f:?} ∈ v{}", binder.index()),
                        });
                    }
                }
            }
        }
    }
    for &(f, arg, cont, site) in &sys.calls {
        for v in claim.op_flows(f) {
            let CpsFlow::Clo(clo) = v else { continue };
            if !claim.calls.get(&site).is_some_and(|s| s.contains(&clo)) {
                return Some(Refutation::Unclosed {
                    edge: format!("call@{site}"),
                    missing: format!("{clo:?} ∈ calls[{site}]"),
                });
            }
            if let AbsClo::Lam(l) = clo {
                let (param, kvar) = sys.lam[&l];
                for a in claim.op_flows(arg) {
                    if !claim.vars[param.index()].contains(&a) {
                        return Some(Refutation::Unclosed {
                            edge: format!("call@{site} arg ⊆ v{}", param.index()),
                            missing: format!("{a:?} ∈ v{}", param.index()),
                        });
                    }
                }
                let kc = CpsFlow::Kont(AbsKont::Co(cont));
                if !claim.vars[kvar.index()].contains(&kc) {
                    return Some(Refutation::Unclosed {
                        edge: format!("call@{site} cont ⊆ v{}", kvar.index()),
                        missing: format!("{kc:?} ∈ v{}", kvar.index()),
                    });
                }
            }
        }
    }
    None
}

/// Shared tail of the CPS-shaped certifiers: claim closed, compare against
/// the recomputed least model; any residual difference is unsupported.
fn cps_store_excess(claim: &CpsStore, lfp: &CpsStore) -> Option<Refutation> {
    for (i, (c, d)) in claim.vars.iter().zip(&lfp.vars).enumerate() {
        if let Some(v) = c.difference(d).next() {
            return Some(Refutation::Unsupported {
                fact: format!("{v:?} ∈ v{i}"),
            });
        }
    }
    for (l, c) in &claim.returns {
        let empty = BTreeSet::new();
        let d = lfp.returns.get(l).unwrap_or(&empty);
        if let Some(v) = c.difference(d).next() {
            return Some(Refutation::Unsupported {
                fact: format!("{v:?} ∈ returns[{l}]"),
            });
        }
        if c.is_empty() {
            return Some(Refutation::Unsupported {
                fact: format!("empty returns[{l}] entry"),
            });
        }
    }
    for (l, c) in &claim.calls {
        let d = lfp.calls.get(l).unwrap_or(&EMPTY_CLO);
        if let Some(v) = c.difference(d).next() {
            return Some(Refutation::Unsupported {
                fact: format!("{v:?} ∈ calls[{l}]"),
            });
        }
        if c.is_empty() {
            return Some(Refutation::Unsupported {
                fact: format!("empty calls[{l}] entry"),
            });
        }
    }
    if claim.returns.len() != lfp.returns.len() || claim.calls.len() != lfp.calls.len() {
        return Some(Refutation::Shape {
            detail: format!(
                "{}×{} call/return sites claimed, least model has {}×{}",
                claim.calls.len(),
                claim.returns.len(),
                lfp.calls.len(),
                lfp.returns.len()
            ),
        });
    }
    None
}

fn cps_store_facts(st: &CpsStore) -> usize {
    st.vars.iter().map(BTreeSet::len).sum::<usize>()
        + st.returns.values().map(BTreeSet::len).sum::<usize>()
        + st.calls.values().map(BTreeSet::len).sum::<usize>()
}

/// Certifies a CPS-level 0CFA answer against `prog`.
pub fn certify_cfa_cps(
    prog: &CpsProgram,
    claimed: &CpsCfaResult,
) -> Result<Certificate, Refutation> {
    if claimed.vars.len() != prog.num_vars() {
        return Err(Refutation::Shape {
            detail: format!(
                "claimed {} variables, program has {}",
                claimed.vars.len(),
                prog.num_vars()
            ),
        });
    }
    let sys = CpsSystem::derive(prog);
    let claim = CpsStore {
        vars: claimed.vars.iter().map(|s| (**s).clone()).collect(),
        returns: claimed
            .returns
            .iter()
            .map(|(l, s)| (l, s.clone()))
            .collect(),
        calls: claimed.calls.iter().map(|(l, s)| (l, s.clone())).collect(),
    };
    if let Some(r) = cps_closure_counterexample(&sys, &claim) {
        return Err(r);
    }
    let lfp = cps_least_model(&sys, prog.num_vars());
    if let Some(r) = cps_store_excess(&claim, &lfp) {
        return Err(r);
    }
    Ok(Certificate {
        kind: AnalysisKind::CfaCps,
        constraints: sys.constraints(),
        facts: cps_store_facts(&claim),
    })
}

// ---------------------------------------------------------------------------
// Pushdown CFA
// ---------------------------------------------------------------------------

/// One frame-return site of a user λ, re-derived.
#[derive(Clone, Copy)]
struct RTpl {
    site: Label,
    w: Op,
    own_param: bool,
}

/// The pushdown constraint system: classification of every return site plus
/// the static flow edges, re-derived with an independent frame-carrying
/// walk.
struct PdSystem {
    seeds: Vec<(CpsFlow, CVarId)>,
    subs: Vec<(CVarId, CVarId)>,
    /// `(k W)` under a `letk` join: operand flows to the join binder.
    joins: Vec<(Op, Label)>,
    calls: Vec<(Op, Op, Label, Label)>,
    templates: HashMap<Label, Vec<RTpl>>,
    /// `letk` continuation variable → its join continuation label.
    join_of: HashMap<usize, Label>,
    halt_returns: Vec<Label>,
    join_returns: Vec<(Label, Label)>,
    lam: HashMap<Label, (CVarId, CVarId)>,
    cont_var: HashMap<Label, CVarId>,
    top_k: CVarId,
}

/// The enclosing user λ during the pushdown walk.
#[derive(Clone, Copy)]
struct PdFrame {
    label: Label,
    param: CVarId,
    k: CVarId,
}

impl PdSystem {
    fn derive(prog: &CpsProgram) -> Result<PdSystem, Refutation> {
        let top_k = prog.kont_var_id(prog.top_k()).expect("top k indexed");
        let mut sys = PdSystem {
            seeds: Vec::new(),
            subs: Vec::new(),
            joins: Vec::new(),
            calls: Vec::new(),
            templates: HashMap::new(),
            join_of: HashMap::new(),
            halt_returns: Vec::new(),
            join_returns: Vec::new(),
            lam: HashMap::new(),
            cont_var: HashMap::new(),
            top_k,
        };
        let mut frames: HashMap<Label, PdFrame> = HashMap::new();
        for (l, r) in prog.lambdas() {
            sys.lam.insert(l, (r.param_id, r.k_id));
            frames.insert(
                l,
                PdFrame {
                    label: l,
                    param: r.param_id,
                    k: r.k_id,
                },
            );
        }
        for (l, r) in prog.conts() {
            sys.cont_var.insert(l, r.var_id);
        }
        sys.walk(prog.root(), None, prog, &frames)?;
        Ok(sys)
    }

    fn constraints(&self) -> usize {
        self.seeds.len()
            + self.subs.len()
            + self.joins.len()
            + self.calls.len()
            + self.halt_returns.len()
            + self.join_returns.len()
    }

    fn op_of(&self, w: &CVal, prog: &CpsProgram) -> Op {
        match &w.kind {
            CValKind::Num(_) => Op::None,
            CValKind::Add1K => Op::Const(CpsFlow::Clo(AbsClo::Inc)),
            CValKind::Sub1K => Op::Const(CpsFlow::Clo(AbsClo::Dec)),
            CValKind::Lam { .. } => Op::Const(CpsFlow::Clo(AbsClo::Lam(w.label))),
            CValKind::Var(x) => Op::Var(prog.user_var_id(x).expect("indexed variable")),
        }
    }

    fn walk(
        &mut self,
        t: &CTerm,
        frame: Option<PdFrame>,
        prog: &CpsProgram,
        frames: &HashMap<Label, PdFrame>,
    ) -> Result<(), Refutation> {
        match &t.kind {
            CTermKind::Ret(k, w) => {
                let kid = prog.kont_var_id(k).expect("indexed k");
                let wf = self.op_of(w, prog);
                match frame {
                    Some(f) if kid == f.k => {
                        self.templates.entry(f.label).or_default().push(RTpl {
                            site: t.label,
                            w: wf,
                            own_param: matches!(wf, Op::Var(v) if v == f.param),
                        });
                    }
                    _ if kid == self.top_k => self.halt_returns.push(t.label),
                    _ => {
                        let cont =
                            *self
                                .join_of
                                .get(&kid.index())
                                .ok_or_else(|| Refutation::Shape {
                                    detail: format!(
                                        "return@{} names a continuation that is neither \
                                     frame, join, nor halt",
                                        t.label
                                    ),
                                })?;
                        self.join_returns.push((t.label, cont));
                        self.joins.push((wf, cont));
                    }
                }
                self.enter_val(w, prog, frames)?;
            }
            CTermKind::Let { var, val, body } => {
                let x = prog.user_var_id(var).expect("indexed variable");
                match self.op_of(val, prog) {
                    Op::None => {}
                    Op::Const(c) => self.seeds.push((c, x)),
                    Op::Var(y) => self.subs.push((y, x)),
                }
                self.enter_val(val, prog, frames)?;
                self.walk(body, frame, prog, frames)?;
            }
            CTermKind::Call { f, arg, cont } => {
                let fo = self.op_of(f, prog);
                let ao = self.op_of(arg, prog);
                self.calls.push((fo, ao, cont.label, t.label));
                self.enter_val(f, prog, frames)?;
                self.enter_val(arg, prog, frames)?;
                // The literal continuation body runs in the caller's frame.
                self.walk(&cont.body, frame, prog, frames)?;
            }
            CTermKind::LetK {
                k,
                cont,
                then_,
                else_,
                ..
            } => {
                let kid = prog.kont_var_id(k).expect("indexed k");
                self.join_of.insert(kid.index(), cont.label);
                self.walk(&cont.body, frame, prog, frames)?;
                self.walk(then_, frame, prog, frames)?;
                self.walk(else_, frame, prog, frames)?;
            }
            CTermKind::Loop { cont } => self.walk(&cont.body, frame, prog, frames)?,
        }
        Ok(())
    }

    fn enter_val(
        &mut self,
        v: &CVal,
        prog: &CpsProgram,
        frames: &HashMap<Label, PdFrame>,
    ) -> Result<(), Refutation> {
        if let CValKind::Lam { body, .. } = &v.kind {
            let f = frames[&v.label];
            self.walk(body, Some(f), prog, frames)?;
        }
        Ok(())
    }
}

/// The pushdown store: the CPS store plus the matched-return witnesses.
struct PdStore {
    st: CpsStore,
    matched: BTreeSet<MatchedReturn>,
}

/// Least model of the re-derived pushdown system: Kleene iteration over the
/// static edges and per-call template instantiation, then the static
/// continuation-variable fill the analyzer performs after its solve.
fn pd_least_model(sys: &PdSystem, num_vars: usize) -> PdStore {
    let mut st = CpsStore {
        vars: vec![BTreeSet::new(); num_vars],
        returns: BTreeMap::new(),
        calls: BTreeMap::new(),
    };
    let mut matched: BTreeSet<MatchedReturn> = BTreeSet::new();
    // Callee λ → discovered caller continuations (for the post-solve fill).
    let mut callers: BTreeMap<Label, BTreeSet<Label>> = BTreeMap::new();
    for &(c, dst) in &sys.seeds {
        st.vars[dst.index()].insert(c);
    }
    // Halt and join returns are static, reachability-blind facts.
    for &site in &sys.halt_returns {
        st.returns.entry(site).or_default().insert(AbsKont::Stop);
    }
    for &(site, cont) in &sys.join_returns {
        st.returns
            .entry(site)
            .or_default()
            .insert(AbsKont::Co(cont));
    }
    static NO_TPL: Vec<RTpl> = Vec::new();
    loop {
        let mut changed = false;
        for &(src, dst) in &sys.subs {
            let flows: Vec<CpsFlow> = st.vars[src.index()].iter().copied().collect();
            for v in flows {
                changed |= st.vars[dst.index()].insert(v);
            }
        }
        for &(w, cont) in &sys.joins {
            let binder = sys.cont_var[&cont];
            let flows = st.op_flows(w);
            for v in flows {
                changed |= st.vars[binder.index()].insert(v);
            }
        }
        for &(f, arg, cont, site) in &sys.calls {
            let callees: Vec<AbsClo> = st
                .op_flows(f)
                .into_iter()
                .filter_map(|v| match v {
                    CpsFlow::Clo(c) => Some(c),
                    CpsFlow::Kont(_) => None,
                })
                .collect();
            for clo in callees {
                changed |= st.calls.entry(site).or_default().insert(clo);
                if let AbsClo::Lam(l) = clo {
                    let (param, _kvar) = sys.lam[&l];
                    let flows = st.op_flows(arg);
                    for v in flows {
                        changed |= st.vars[param.index()].insert(v);
                    }
                    changed |= callers.entry(l).or_default().insert(cont);
                    let binder = sys.cont_var[&cont];
                    for tpl in sys.templates.get(&l).unwrap_or(&NO_TPL) {
                        changed |= st
                            .returns
                            .entry(tpl.site)
                            .or_default()
                            .insert(AbsKont::Co(cont));
                        changed |= matched.insert(MatchedReturn {
                            ret_site: tpl.site,
                            callee: l,
                            call_site: site,
                            cont,
                        });
                        let w = if tpl.own_param { arg } else { tpl.w };
                        let flows = st.op_flows(w);
                        for v in flows {
                            changed |= st.vars[binder.index()].insert(v);
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    // Post-fixpoint continuation-variable fill, exactly as the analyzer
    // commits it: matched frames into each λ's `k`, the static join
    // continuation into each `letk` binder, `stop` into the top `k`.
    for (l, conts) in &callers {
        let (_param, kvar) = sys.lam[l];
        for &c in conts {
            st.vars[kvar.index()].insert(CpsFlow::Kont(AbsKont::Co(c)));
        }
    }
    for (&kvar, &cont) in &sys.join_of {
        st.vars[kvar].insert(CpsFlow::Kont(AbsKont::Co(cont)));
    }
    st.vars[sys.top_k.index()].insert(CpsFlow::Kont(AbsKont::Stop));
    PdStore { st, matched }
}

/// Closure scan of a claimed pushdown store; first violated constraint.
fn pd_closure_counterexample(sys: &PdSystem, claim: &PdStore) -> Option<Refutation> {
    let st = &claim.st;
    for &(c, dst) in &sys.seeds {
        if !st.vars[dst.index()].contains(&c) {
            return Some(Refutation::Unclosed {
                edge: format!("seed ⊆ v{}", dst.index()),
                missing: format!("{c:?} ∈ v{}", dst.index()),
            });
        }
    }
    for &(src, dst) in &sys.subs {
        if let Some(v) = st.vars[src.index()]
            .difference(&st.vars[dst.index()])
            .next()
        {
            return Some(Refutation::Unclosed {
                edge: format!("v{} ⊆ v{}", src.index(), dst.index()),
                missing: format!("{v:?} ∈ v{}", dst.index()),
            });
        }
    }
    for &site in &sys.halt_returns {
        if !st
            .returns
            .get(&site)
            .is_some_and(|s| s.contains(&AbsKont::Stop))
        {
            return Some(Refutation::Unclosed {
                edge: format!("halt return@{site}"),
                missing: format!("stop ∈ returns[{site}]"),
            });
        }
    }
    for &(site, cont) in &sys.join_returns {
        if !st
            .returns
            .get(&site)
            .is_some_and(|s| s.contains(&AbsKont::Co(cont)))
        {
            return Some(Refutation::Unclosed {
                edge: format!("join return@{site}"),
                missing: format!("co@{cont} ∈ returns[{site}]"),
            });
        }
    }
    for &(w, cont) in &sys.joins {
        let binder = sys.cont_var[&cont];
        for v in st.op_flows(w) {
            if !st.vars[binder.index()].contains(&v) {
                return Some(Refutation::Unclosed {
                    edge: format!("join ⊆ v{}", binder.index()),
                    missing: format!("{v:?} ∈ v{}", binder.index()),
                });
            }
        }
    }
    static NO_TPL: Vec<RTpl> = Vec::new();
    for &(f, arg, cont, site) in &sys.calls {
        for v in st.op_flows(f) {
            let CpsFlow::Clo(clo) = v else { continue };
            if !st.calls.get(&site).is_some_and(|s| s.contains(&clo)) {
                return Some(Refutation::Unclosed {
                    edge: format!("call@{site}"),
                    missing: format!("{clo:?} ∈ calls[{site}]"),
                });
            }
            let AbsClo::Lam(l) = clo else { continue };
            let (param, kvar) = sys.lam[&l];
            for a in st.op_flows(arg) {
                if !st.vars[param.index()].contains(&a) {
                    return Some(Refutation::Unclosed {
                        edge: format!("call@{site} arg ⊆ v{}", param.index()),
                        missing: format!("{a:?} ∈ v{}", param.index()),
                    });
                }
            }
            // Matched-call fill: the caller's frame must be visible in the
            // callee's k slot.
            let kc = CpsFlow::Kont(AbsKont::Co(cont));
            if !st.vars[kvar.index()].contains(&kc) {
                return Some(Refutation::Unclosed {
                    edge: format!("call@{site} frame ⊆ v{}", kvar.index()),
                    missing: format!("{kc:?} ∈ v{}", kvar.index()),
                });
            }
            let binder = sys.cont_var[&cont];
            for tpl in sys.templates.get(&l).unwrap_or(&NO_TPL) {
                if !st
                    .returns
                    .get(&tpl.site)
                    .is_some_and(|s| s.contains(&AbsKont::Co(cont)))
                {
                    return Some(Refutation::Unclosed {
                        edge: format!("summary {l}@{site}"),
                        missing: format!("co@{cont} ∈ returns[{}]", tpl.site),
                    });
                }
                let m = MatchedReturn {
                    ret_site: tpl.site,
                    callee: l,
                    call_site: site,
                    cont,
                };
                if !claim.matched.contains(&m) {
                    return Some(Refutation::Unclosed {
                        edge: format!("summary {l}@{site}"),
                        missing: format!("matched witness {m:?}"),
                    });
                }
                let w = if tpl.own_param { arg } else { tpl.w };
                for v in st.op_flows(w) {
                    if !st.vars[binder.index()].contains(&v) {
                        return Some(Refutation::Unclosed {
                            edge: format!("summary {l}@{site} ⊆ v{}", binder.index()),
                            missing: format!("{v:?} ∈ v{}", binder.index()),
                        });
                    }
                }
            }
        }
    }
    // Static fills.
    for (&kvar, &cont) in &sys.join_of {
        let kc = CpsFlow::Kont(AbsKont::Co(cont));
        if !st.vars[kvar].contains(&kc) {
            return Some(Refutation::Unclosed {
                edge: format!("letk fill ⊆ v{kvar}"),
                missing: format!("{kc:?} ∈ v{kvar}"),
            });
        }
    }
    if !st.vars[sys.top_k.index()].contains(&CpsFlow::Kont(AbsKont::Stop)) {
        return Some(Refutation::Unclosed {
            edge: format!("halt fill ⊆ v{}", sys.top_k.index()),
            missing: format!("stop ∈ v{}", sys.top_k.index()),
        });
    }
    None
}

/// Certifies a pushdown CFA answer against `prog`.
pub fn certify_pushdown(
    prog: &CpsProgram,
    claimed: &PushdownCfaResult,
) -> Result<Certificate, Refutation> {
    if claimed.vars.len() != prog.num_vars() {
        return Err(Refutation::Shape {
            detail: format!(
                "claimed {} variables, program has {}",
                claimed.vars.len(),
                prog.num_vars()
            ),
        });
    }
    let sys = PdSystem::derive(prog)?;
    let claim = PdStore {
        st: CpsStore {
            vars: claimed.vars.iter().map(|s| (**s).clone()).collect(),
            returns: claimed
                .returns
                .iter()
                .map(|(l, s)| (l, s.clone()))
                .collect(),
            calls: claimed.calls.iter().map(|(l, s)| (l, s.clone())).collect(),
        },
        matched: claimed.matched.clone(),
    };
    if let Some(r) = pd_closure_counterexample(&sys, &claim) {
        return Err(r);
    }
    let lfp = pd_least_model(&sys, prog.num_vars());
    if let Some(m) = claim.matched.difference(&lfp.matched).next() {
        return Err(Refutation::Unsupported {
            fact: format!("matched witness {m:?}"),
        });
    }
    if let Some(r) = cps_store_excess(&claim.st, &lfp.st) {
        return Err(r);
    }
    Ok(Certificate {
        kind: AnalysisKind::CfaPushdown,
        constraints: sys.constraints(),
        facts: cps_store_facts(&claim.st) + claim.matched.len(),
    })
}

// ---------------------------------------------------------------------------
// MFP over the first-order CFG
// ---------------------------------------------------------------------------

/// The checker's own transfer function — same abstract semantics as the
/// CFG's, re-implemented here so the solver's transfer is not in the
/// trusted base.
fn flat_transfer(stmt: Stmt, env: &[Flat]) -> Vec<Flat> {
    let mut out = env.to_vec();
    match stmt {
        Stmt::Const(x, n) => out[x.index()] = Flat::constant(n),
        Stmt::Copy(x, y) => out[x.index()] = env[y.index()],
        Stmt::Add1(x, y) => out[x.index()] = env[y.index()].add1(),
        Stmt::Sub1(x, y) => out[x.index()] = env[y.index()].sub1(),
        Stmt::Sum(x, y, z) => {
            let a = env[y.index()];
            let b = env[z.index()];
            out[x.index()] = match (a.as_const(), b.as_const()) {
                (Some(p), Some(q)) => Flat::constant(p + q),
                _ if a.is_bot() || b.is_bot() => Flat::bot(),
                _ => Flat::top(),
            };
        }
        Stmt::Havoc(x) => out[x.index()] = Flat::top(),
        Stmt::Nop => {}
    }
    out
}

fn flat_join(a: &mut [Flat], b: &[Flat]) -> bool {
    let mut changed = false;
    for (x, y) in a.iter_mut().zip(b) {
        let j = x.join(y);
        if j != *x {
            *x = j;
            changed = true;
        }
    }
    changed
}

/// Certifies an MFP constant-propagation summary against `prog`.
///
/// The CFG lowering is shared front end (like the parser); the transfer,
/// join, fixpoint loop, and defining-node summarization are re-implemented
/// here and iterated round-robin to the least fixpoint.
pub fn certify_mfp(
    prog: &AnfProgram,
    claimed: &DfSummary<Flat>,
) -> Result<Certificate, Refutation> {
    let cfg = Cfg::from_first_order(prog).map_err(|e| Refutation::Shape {
        detail: format!("program does not lower to a first-order CFG: {e:?}"),
    })?;
    let num_vars = cfg.bottom_env::<Flat>().len();
    if claimed.vars.len() != num_vars {
        return Err(Refutation::Shape {
            detail: format!(
                "claimed {} variables, CFG has {}",
                claimed.vars.len(),
                num_vars
            ),
        });
    }
    let init: Vec<Flat> = cfg.initial_env::<Flat>(prog);
    let nodes = cfg.nodes();
    let entry = cfg.entry().0;
    let mut outs: Vec<Vec<Flat>> = vec![vec![Flat::bot(); num_vars]; nodes.len()];
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for (i, node) in nodes.iter().enumerate() {
        for s in &node.succs {
            preds[s.0].push(i);
        }
    }
    loop {
        let mut changed = false;
        for (i, node) in nodes.iter().enumerate() {
            let mut inn = if i == entry {
                init.clone()
            } else {
                vec![Flat::bot(); num_vars]
            };
            for &p in &preds[i] {
                flat_join(&mut inn, &outs[p]);
            }
            let out = flat_transfer(node.stmt, &inn);
            changed |= flat_join(&mut outs[i], &out);
        }
        if !changed {
            break;
        }
    }
    let mut vars = vec![Flat::bot(); num_vars];
    for (i, node) in nodes.iter().enumerate() {
        if let Some(x) = node.stmt.def() {
            vars[x.index()] = vars[x.index()].join(&outs[i][x.index()]);
        }
    }
    for (x, (c, d)) in claimed.vars.iter().zip(&vars).enumerate() {
        if c != d {
            return Err(if c.leq(d) {
                Refutation::Unclosed {
                    edge: format!("defs(v{x})"),
                    missing: format!("v{x} = {d:?} (claimed {c:?})"),
                }
            } else {
                Refutation::Unsupported {
                    fact: format!("v{x} = {c:?} (least model has {d:?})"),
                }
            });
        }
    }
    Ok(Certificate {
        kind: AnalysisKind::MfpFlat,
        constraints: nodes.len(),
        facts: num_vars,
    })
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

/// Certifies any cached answer against the (already parsed) program it
/// claims to solve. CPS-level answers re-derive the CPS program through the
/// shared transform — the same front end the analyzers used.
pub fn certify_answer(prog: &AnfProgram, answer: &CachedAnswer) -> Result<Certificate, Refutation> {
    match answer {
        CachedAnswer::CfaSrc(r) => certify_cfa_src(prog, r),
        CachedAnswer::CfaCps(r) => certify_cfa_cps(&CpsProgram::from_anf(prog), r),
        CachedAnswer::CfaPushdown(r) => certify_pushdown(&CpsProgram::from_anf(prog), r),
        CachedAnswer::MfpFlat(s) => certify_mfp(prog, s),
    }
}

/// [`certify_answer`] from source text: parses, then certifies. A source
/// that no longer parses refutes as [`Refutation::Shape`] — the persisted
/// entry cannot belong to this program.
pub fn certify_source(source: &str, answer: &CachedAnswer) -> Result<Certificate, Refutation> {
    let prog = AnfProgram::parse(source).map_err(|e| Refutation::Shape {
        detail: format!("source does not parse: {e}"),
    })?;
    certify_answer(&prog, answer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfa::{zero_cfa, zero_cfa_cps};
    use crate::pushdown::pushdown_cfa;
    use std::sync::Arc;

    const PROGRAMS: &[&str] = &[
        "(let (f (lambda (x) x)) (f f))",
        "(let (id (lambda (x) x)) (let (a (id add1)) (let (b (id 1)) (a b))))",
        "(let (f (lambda (x) (x x))) (f (lambda (y) y)))",
        "(let (c (if0 0 1 2)) (add1 c))",
        "(let (g (lambda (x) (let (h (lambda (y) x)) h))) (let (k (g 1)) (k 2)))",
        "(let (x (loop)) (if0 x (add1 x) (sub1 x)))",
    ];

    #[test]
    fn src_answers_certify() {
        for src in PROGRAMS {
            let p = AnfProgram::parse(src).unwrap();
            let r = zero_cfa(&p).unwrap();
            let cert = certify_cfa_src(&p, &r).unwrap_or_else(|e| panic!("{src}: {e}"));
            assert_eq!(cert.kind, AnalysisKind::CfaSrc);
            assert!(cert.constraints > 0);
        }
    }

    #[test]
    fn cps_answers_certify() {
        for src in PROGRAMS {
            let p = AnfProgram::parse(src).unwrap();
            let c = CpsProgram::from_anf(&p);
            let r = zero_cfa_cps(&c).unwrap();
            certify_cfa_cps(&c, &r).unwrap_or_else(|e| panic!("{src}: {e}"));
        }
    }

    #[test]
    fn pushdown_answers_certify() {
        for src in PROGRAMS {
            let p = AnfProgram::parse(src).unwrap();
            let c = CpsProgram::from_anf(&p);
            let r = pushdown_cfa(&c).unwrap();
            certify_pushdown(&c, &r).unwrap_or_else(|e| panic!("{src}: {e}"));
        }
    }

    #[test]
    fn mfp_answers_certify() {
        for src in ["(let (x 1) (add1 x))", "(let (c (if0 0 1 2)) (add1 c))"] {
            let p = AnfProgram::parse(src).unwrap();
            let cfg = Cfg::from_first_order(&p).unwrap();
            let s = cfg.solve_mfp::<Flat>(cfg.initial_env(&p)).unwrap();
            certify_mfp(&p, &s).unwrap_or_else(|e| panic!("{src}: {e}"));
        }
    }

    #[test]
    fn added_fact_refutes_as_unsupported_even_when_self_justified() {
        // `(f f)` wires x ⊆ x via the self-application: an extra closure in
        // x stays closed under every edge, so a pure closure check would
        // accept it. The least-model comparison refutes it.
        let p = AnfProgram::parse("(let (f (lambda (x) x)) (f f))").unwrap();
        let mut r = zero_cfa(&p).unwrap();
        let x = p.var_named("x").unwrap();
        let mut poisoned = (*r.vars[x.index()]).clone();
        poisoned.insert(AbsClo::Inc);
        r.vars[x.index()] = Arc::new(poisoned);
        let err = certify_cfa_src(&p, &r).unwrap_err();
        assert!(
            matches!(
                err,
                Refutation::Unclosed { .. } | Refutation::Unsupported { .. }
            ),
            "got {err}"
        );
    }

    #[test]
    fn removed_fact_refutes_with_counterexample_edge() {
        let p = AnfProgram::parse("(let (f (lambda (x) x)) (f f))").unwrap();
        let mut r = zero_cfa(&p).unwrap();
        let f = p.var_named("f").unwrap();
        r.vars[f.index()] = Arc::new(BTreeSet::new());
        match certify_cfa_src(&p, &r).unwrap_err() {
            Refutation::Unclosed { edge, missing } => {
                assert!(!edge.is_empty() && !missing.is_empty());
            }
            other => panic!("expected Unclosed, got {other}"),
        }
    }

    #[test]
    fn dropped_call_edge_refutes() {
        let p = AnfProgram::parse("(let (f (lambda (x) x)) (f f))").unwrap();
        let mut r = zero_cfa(&p).unwrap();
        let mut calls = (*r.calls).clone();
        let site = calls.keys().next().unwrap();
        calls.insert(site, BTreeSet::new());
        r.calls = Arc::new(calls);
        assert!(certify_cfa_src(&p, &r).is_err());
    }

    #[test]
    fn wrong_shape_refutes() {
        let p = AnfProgram::parse("(let (f (lambda (x) x)) (f f))").unwrap();
        let mut r = zero_cfa(&p).unwrap();
        r.vars.pop();
        assert!(matches!(
            certify_cfa_src(&p, &r).unwrap_err(),
            Refutation::Shape { .. }
        ));
    }

    #[test]
    fn mutated_mfp_summary_refutes_both_directions() {
        let p = AnfProgram::parse("(let (x 1) (add1 x))").unwrap();
        let cfg = Cfg::from_first_order(&p).unwrap();
        let s = cfg.solve_mfp::<Flat>(cfg.initial_env(&p)).unwrap();
        for (i, v) in s.vars.iter().enumerate() {
            let mut up = s.clone();
            up.vars[i] = Flat::top();
            let mut down = s.clone();
            down.vars[i] = Flat::bot();
            if *v != Flat::top() {
                assert!(certify_mfp(&p, &up).is_err(), "⊤ at v{i} accepted");
            }
            if *v != Flat::bot() {
                assert!(certify_mfp(&p, &down).is_err(), "⊥ at v{i} accepted");
            }
        }
    }

    #[test]
    fn certify_answer_dispatches_all_kinds() {
        let src = "(let (f (lambda (x) x)) (f f))";
        let p = AnfProgram::parse(src).unwrap();
        let r = zero_cfa(&p).unwrap();
        let ans = CachedAnswer::CfaSrc(r);
        assert!(certify_answer(&p, &ans).is_ok());
        assert!(certify_source(src, &ans).is_ok());
        assert!(certify_source("(let (y 1) (add1 y))", &ans).is_err());
    }
}
