//! Independent fixpoint certification — translation validation for served
//! analysis answers.
//!
//! The service hands out fixpoints computed through three paths: the
//! worklist solver, watch-session answer reuse, and the content-addressed
//! cache (now backed by a crash-safe disk spill,
//! [`crate::cache::persist`]). Every one
//! of those paths is *trusted* unless something checks the answer after the
//! fact. This module is that check: given the program and a claimed
//! solution, it **re-derives every constraint from the AST** with its own
//! walk — sharing the front end (parser, ANF/CPS transforms, CFG lowering)
//! but *no solver code* — and certifies in two stages:
//!
//! 1. **The least model**, computed semi-naively over plain vectors (the
//!    Datalog reading of Silverman et al., "So You Want to Analyze Scheme
//!    Programs With Datalog?"): a fact is queued once, when it is first
//!    derived; popping it fires only the rules it triggers; a dynamic edge
//!    (call → parameter/return, return → join binder, pushdown summary) is
//!    installed once and replays its source's current facts. Every new
//!    fact is appended to a derivation log with the rule that derived it.
//! 2. **One comparison** of the claim against that model, which demands
//!    exact equality.
//!
//! Why not just check closure? A closed superset of the least fixpoint is
//! still closed: an extra `λ ∈ x` fact can justify itself through a
//! self-loop edge (`x ⊆ x` via self-application), so a corrupted answer
//! with *additions* passes any local consistency test. The comparison
//! catches both directions:
//!
//! * **missing** facts refute as [`Refutation::Unclosed`]. The log is
//!   walked in derivation order and the first fact the claim lacks is the
//!   counterexample: every premise of its rule was logged earlier, so the
//!   claim holds them all, and the rule is an edge the claim violates;
//! * **extra** facts refute as [`Refutation::Unsupported`], naming a
//!   claimed fact the least model does not contain;
//! * wrong table dimensions refute as [`Refutation::Shape`].
//!
//! The model is computed from the program alone, so a claim naming labels
//! that are no λ or continuation of the program is only ever looked up,
//! never followed, and refutes like any other extra fact.
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
//! solver scheduling, answer reuse, cache storage, disk
//! corruption that slips past checksums — produces an answer that fails
//! this check. The daemon's `--certify` mode samples served answers through
//! [`certify_answer`] and evicts + recomputes on refutation instead of
//! serving the bad fixpoint (DESIGN.md §13).

use crate::absval::{AbsClo, AbsKont};
use crate::cache::{AnalysisKind, CachedAnswer};
use crate::cfa::{CfaResult, CpsCfaResult, CpsFlow};
use crate::domain::{Flat, NumDomain};
use crate::labtab::LabelTable;
use crate::mfp::{Cfg, DfEnv, DfSummary, Stmt};
use crate::pushdown::{MatchedReturn, PushdownCfaResult};
use cpsdfa_anf::{AValKind, Anf, AnfKind, AnfProgram, Bind, VarId};
use cpsdfa_cps::{CTerm, CTermKind, CVal, CValKind, CVarId, CpsProgram};
use cpsdfa_syntax::Label;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

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

/// The variable-universe check every CFA certifier starts with.
fn same_vars(claimed: usize, program: usize) -> Result<(), Refutation> {
    if claimed == program {
        return Ok(());
    }
    Err(Refutation::Shape {
        detail: format!("claimed {claimed} variables, program has {program}"),
    })
}

// ---------------------------------------------------------------------------
// The semi-naive least model
// ---------------------------------------------------------------------------

/// Where a model node lives: a variable, or an entry of one of the two
/// label-indexed tables (source `terms`/`calls`, CPS `returns`/`calls`).
#[derive(Clone, Copy)]
enum Slot {
    Var(usize),
    Tab(usize, Label),
}

/// The rule that derived a fact, printed as the counterexample edge of an
/// [`Refutation::Unclosed`]; the label is the call or return site it fired
/// at. Eight bytes, like a node id, because the log keeps one per fact.
#[derive(Clone, Copy)]
enum Rule {
    Seed,
    /// A static subset edge out of the given node.
    Sub(u32),
    Call(Label),
    CallArg(Label),
    CallRet(Label),
    CallCont(Label),
    CallFrame(Label),
    Ret(Label),
    HaltReturn(Label),
    JoinReturn(Label),
    Join(Label),
    Summary(Label),
    LetkFill,
    HaltFill,
}

/// A derived fact: `v ∈ node`, or a pushdown matched-return witness.
#[derive(Clone, Copy)]
enum Fact {
    In(u32, CpsFlow),
    Matched(MatchedReturn),
}

/// A subset edge into `dst`, static or installed by a dynamic rule.
#[derive(Clone, Copy)]
struct Edge {
    dst: u32,
    rule: Rule,
}

/// A CPS operand, re-derived: nothing (a number), a constant flow, or a
/// variable.
#[derive(Clone, Copy)]
enum Op {
    None,
    Const(CpsFlow),
    Var(CVarId),
}

/// A least model under semi-naive evaluation. Nodes are dense: the
/// variables, then the first table, then the second, each table indexed by
/// label. Facts live in per-node sets; the derivation log doubles as the
/// worklist, so each fact is queued exactly once, when first derived.
/// The log and the edges hold node ids as `u32`, which [`Model::new`]
/// checks they fit.
struct Model {
    vars: usize,
    labels: usize,
    /// CPS-shaped: the first table holds returns (continuations only);
    /// otherwise it holds source terms.
    cps: bool,
    sets: Vec<BTreeSet<CpsFlow>>,
    out: Vec<Vec<Edge>>,
    matched: BTreeSet<MatchedReturn>,
    log: Vec<(Fact, Rule)>,
    /// The log position of the next fact to fire.
    next: usize,
}

impl Model {
    fn new(vars: usize, labels: u32, cps: bool) -> Model {
        let nodes = vars + 2 * labels as usize;
        assert!(u32::try_from(nodes).is_ok(), "{nodes} model nodes");
        Model {
            vars,
            labels: labels as usize,
            cps,
            sets: vec![BTreeSet::new(); nodes],
            out: vec![Vec::new(); nodes],
            matched: BTreeSet::new(),
            log: Vec::new(),
            next: 0,
        }
    }

    /// The node of table `t`'s entry for `l`; out of range (so held by no
    /// node) for a label the program does not have.
    fn tab(&self, t: usize, l: Label) -> usize {
        let i = l.index() as usize;
        if i < self.labels {
            self.vars + t * self.labels + i
        } else {
            usize::MAX
        }
    }

    fn slot(&self, n: usize) -> Slot {
        if n < self.vars {
            return Slot::Var(n);
        }
        let i = n - self.vars;
        Slot::Tab(i / self.labels, Label::new((i % self.labels) as u32))
    }

    fn name(&self, n: usize) -> String {
        match self.slot(n) {
            Slot::Var(i) => format!("v{i}"),
            Slot::Tab(t, l) => format!("{}[{l}]", self.table(t)),
        }
    }

    fn table(&self, t: usize) -> &'static str {
        match (t, self.cps) {
            (0, true) => "returns",
            (0, false) => "terms",
            _ => "calls",
        }
    }

    fn has(&self, n: usize, v: CpsFlow) -> bool {
        self.sets.get(n).is_some_and(|s| s.contains(&v))
    }

    /// Non-empty entries of table `t`.
    fn entries(&self, t: usize) -> usize {
        let first = self.vars + t * self.labels;
        self.sets[first..first + self.labels]
            .iter()
            .filter(|s| !s.is_empty())
            .count()
    }

    /// Adds `v ∈ n`, logging (and so queueing) it if it is new. A call
    /// table holds only closures, a return table only continuations.
    fn derive(&mut self, n: usize, v: CpsFlow, rule: Rule) {
        let fits = match self.slot(n) {
            Slot::Var(_) => true,
            Slot::Tab(t, _) => matches!(v, CpsFlow::Kont(_)) == (t == 0 && self.cps),
        };
        if fits && self.sets[n].insert(v) {
            self.log.push((Fact::In(n as u32, v), rule));
        }
    }

    /// Adds a pushdown matched-return witness, logging it if it is new.
    fn witness(&mut self, w: MatchedReturn, rule: Rule) {
        if self.matched.insert(w) {
            self.log.push((Fact::Matched(w), rule));
        }
    }

    /// Installs `src ⊆ dst` and replays the facts `src` already holds.
    fn edge(&mut self, src: usize, dst: usize, rule: Rule) {
        let now: Vec<CpsFlow> = self.sets[src].iter().copied().collect();
        self.out[src].push(Edge {
            dst: dst as u32,
            rule,
        });
        for v in now {
            self.derive(dst, v, rule);
        }
    }

    /// Flows a CPS operand into `dst`: a constant directly, a variable by
    /// a subset edge.
    fn flow(&mut self, op: Op, dst: usize, rule: Rule) {
        match op {
            Op::None => {}
            Op::Const(c) => self.derive(dst, c, rule),
            Op::Var(y) => self.edge(y.index(), dst, rule),
        }
    }

    /// Pops the next queued fact after firing it along every edge out of
    /// its node; the caller fires the analysis' dynamic rules.
    fn pop(&mut self) -> Option<(usize, CpsFlow)> {
        while let Some(&(fact, _)) = self.log.get(self.next) {
            self.next += 1;
            if let Fact::In(n, v) = fact {
                let n = n as usize;
                for i in 0..self.out[n].len() {
                    let e = self.out[n][i];
                    self.derive(e.dst as usize, v, e.rule);
                }
                return Some((n, v));
            }
        }
        None
    }

    /// The comparison's first half: the first logged fact the claim lacks
    /// refutes as [`Refutation::Unclosed`], naming the rule that derived
    /// it.
    fn first_unclosed(&self, holds: impl Fn(&Fact) -> bool) -> Result<(), Refutation> {
        let Some((fact, rule)) = self.log.iter().find(|(f, _)| !holds(f)) else {
            return Ok(());
        };
        let rule = match *rule {
            Rule::Seed => "seed".to_string(),
            Rule::Sub(n) => self.name(n as usize),
            Rule::Call(l) => format!("call@{l}"),
            Rule::CallArg(l) => format!("call@{l} arg"),
            Rule::CallRet(l) => format!("call@{l} ret"),
            Rule::CallCont(l) => format!("call@{l} cont"),
            Rule::CallFrame(l) => format!("call@{l} frame"),
            Rule::Ret(l) => format!("ret@{l}"),
            Rule::HaltReturn(l) => format!("halt return@{l}"),
            Rule::JoinReturn(l) => format!("join return@{l}"),
            Rule::Join(l) => format!("join@{l}"),
            Rule::Summary(l) => format!("summary@{l}"),
            Rule::LetkFill => "letk fill".to_string(),
            Rule::HaltFill => "halt fill".to_string(),
        };
        Err(match *fact {
            Fact::In(n, v) => Refutation::Unclosed {
                edge: format!("{rule} ⊆ {}", self.name(n as usize)),
                missing: format!("{v:?} ∈ {}", self.name(n as usize)),
            },
            Fact::Matched(w) => Refutation::Unclosed {
                edge: rule,
                missing: format!("matched witness {w:?}"),
            },
        })
    }

    /// The comparison's second half for one claimed set, held at node `n`
    /// and named `at`: an element the least model lacks is unsupported.
    fn supports<T: Copy + fmt::Debug>(
        &self,
        n: usize,
        claimed: &BTreeSet<T>,
        lift: impl Fn(T) -> CpsFlow,
        at: fmt::Arguments<'_>,
    ) -> Result<(), Refutation> {
        match claimed.iter().find(|v| !self.has(n, lift(**v))) {
            Some(v) => Err(Refutation::Unsupported {
                fact: format!("{v:?} ∈ {at}"),
            }),
            None => Ok(()),
        }
    }

    /// [`Model::supports`] over a claimed call or return table, whose
    /// entries must also be non-empty.
    fn supports_table<T: Copy + fmt::Debug>(
        &self,
        t: usize,
        claimed: &LabelTable<BTreeSet<T>>,
        lift: impl Fn(T) -> CpsFlow + Copy,
    ) -> Result<(), Refutation> {
        for (l, set) in claimed.iter() {
            let name = self.table(t);
            self.supports(self.tab(t, l), set, lift, format_args!("{name}[{l}]"))?;
            if set.is_empty() {
                return Err(Refutation::Unsupported {
                    fact: format!("empty {name}[{l}] entry"),
                });
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Source-level 0CFA
// ---------------------------------------------------------------------------

/// The source constraint system, re-derived by an independent AST walk
/// straight into its model's seeds and static edges.
struct SrcSystem {
    m: Model,
    /// Call site → (argument node, binder node).
    calls: HashMap<Label, (usize, usize)>,
    /// `λ label → (param, body label)`.
    lam: HashMap<Label, (VarId, Label)>,
    /// Labels that are propagation targets — exactly the key set the
    /// analyzer's `terms` table must have.
    dst_terms: BTreeSet<Label>,
    constraints: usize,
}

impl SrcSystem {
    fn derive(prog: &AnfProgram) -> SrcSystem {
        let mut sys = SrcSystem {
            m: Model::new(prog.num_vars(), prog.label_count(), false),
            calls: HashMap::new(),
            lam: prog
                .lambdas()
                .into_iter()
                .map(|(l, r)| (l, (r.param_id, r.body.label)))
                .collect(),
            dst_terms: BTreeSet::new(),
            constraints: 0,
        };
        sys.walk(prog.root(), prog);
        sys
    }

    fn term(&self, l: Label) -> usize {
        self.m.tab(0, l)
    }

    /// A seed `c ∈ dst`.
    fn seed(&mut self, dst: usize, c: AbsClo) {
        self.target(dst);
        self.m.derive(dst, CpsFlow::Clo(c), Rule::Seed);
    }

    /// A subset edge `src ⊆ dst`.
    fn sub(&mut self, src: usize, dst: usize) {
        self.target(dst);
        self.m.edge(src, dst, Rule::Sub(src as u32));
    }

    /// Counts a seed or subset constraint into `dst`, and records `dst` as
    /// a propagation target if it is a term.
    fn target(&mut self, dst: usize) {
        self.constraints += 1;
        if let Slot::Tab(_, l) = self.m.slot(dst) {
            self.dst_terms.insert(l);
        }
    }

    /// The flow of a syntactic value into `dst`: constants seed (empty
    /// constant sets — numbers — generate nothing, so the target is not
    /// marked), variables subset-edge.
    fn val(&mut self, v: &cpsdfa_anf::AVal, dst: usize, prog: &AnfProgram) {
        let c = match &v.kind {
            AValKind::Num(_) => return,
            AValKind::Add1 => AbsClo::Inc,
            AValKind::Sub1 => AbsClo::Dec,
            AValKind::Lam(..) => AbsClo::Lam(v.label),
            AValKind::Var(x) => {
                let y = prog.var_id(x).expect("indexed variable");
                return self.sub(y.index(), dst);
            }
        };
        self.seed(dst, c);
    }

    fn walk(&mut self, m: &Anf, prog: &AnfProgram) {
        match &m.kind {
            AnfKind::Value(v) => {
                self.val(v, self.term(m.label), prog);
                if let AValKind::Lam(_, body) = &v.kind {
                    self.walk(body, prog);
                }
            }
            AnfKind::Let { var, bind, body } => {
                let x = prog.var_id(var).expect("indexed variable").index();
                match bind {
                    Bind::Value(v) => {
                        self.val(v, x, prog);
                        if let AValKind::Lam(_, lbody) = &v.kind {
                            self.walk(lbody, prog);
                        }
                    }
                    Bind::App(f, a) => {
                        self.val(f, self.term(f.label), prog);
                        self.val(a, self.term(a.label), prog);
                        if let AValKind::Lam(_, b) = &f.kind {
                            self.walk(b, prog);
                        }
                        if let AValKind::Lam(_, b) = &a.kind {
                            self.walk(b, prog);
                        }
                        self.constraints += 1;
                        self.calls.insert(m.label, (self.term(a.label), x));
                        let dst = self.m.tab(1, m.label);
                        self.m.edge(self.term(f.label), dst, Rule::Call(m.label));
                    }
                    Bind::If0(c, t, e) => {
                        self.val(c, self.term(c.label), prog);
                        self.walk(t, prog);
                        self.walk(e, prog);
                        self.sub(self.term(t.label), x);
                        self.sub(self.term(e.label), x);
                    }
                    Bind::Loop => {}
                }
                self.walk(body, prog);
                self.sub(self.term(body.label), self.term(m.label));
            }
        }
    }
}

/// Least model of the re-derived source system: a closure reaching a call
/// site installs its argument and return edges.
fn src_least_model(sys: &mut SrcSystem) {
    while let Some((n, v)) = sys.m.pop() {
        let (Slot::Tab(1, site), CpsFlow::Clo(AbsClo::Lam(l))) = (sys.m.slot(n), v) else {
            continue;
        };
        let (arg, bind) = sys.calls[&site];
        let (param, body) = sys.lam[&l];
        sys.m.edge(arg, param.index(), Rule::CallArg(site));
        sys.m.edge(sys.term(body), bind, Rule::CallRet(site));
    }
}

/// Certifies a source-level 0CFA answer against `prog`.
pub fn certify_cfa_src(prog: &AnfProgram, claimed: &CfaResult) -> Result<Certificate, Refutation> {
    same_vars(claimed.vars.len(), prog.num_vars())?;
    let mut sys = SrcSystem::derive(prog);
    let claimed_keys: BTreeSet<Label> = claimed.terms.keys().collect();
    if claimed_keys != sys.dst_terms {
        return Err(Refutation::Shape {
            detail: format!(
                "terms table keyed on {:?}, propagation targets are {:?}",
                claimed_keys, sys.dst_terms
            ),
        });
    }
    src_least_model(&mut sys);
    let m = &sys.m;
    m.first_unclosed(|fact| {
        let Fact::In(n, CpsFlow::Clo(c)) = *fact else {
            return false;
        };
        match m.slot(n as usize) {
            Slot::Var(i) => claimed.vars[i].contains(&c),
            Slot::Tab(0, l) => claimed.terms.get(l).is_some_and(|s| s.contains(&c)),
            Slot::Tab(_, l) => claimed.calls.get(l).is_some_and(|s| s.contains(&c)),
        }
    })?;
    for (i, set) in claimed.vars.iter().enumerate() {
        m.supports(i, set, CpsFlow::Clo, format_args!("v{i}"))?;
    }
    for (l, set) in claimed.terms.iter() {
        m.supports(m.tab(0, l), set, CpsFlow::Clo, format_args!("terms[{l}]"))?;
    }
    m.supports_table(1, &claimed.calls, CpsFlow::Clo)?;
    // The model's calls table only holds non-empty entries; the claim
    // matching it elementwise plus having no extras means the key sets
    // agree.
    if claimed.calls.len() != m.entries(1) {
        return Err(Refutation::Shape {
            detail: format!(
                "calls table has {} sites, least model has {}",
                claimed.calls.len(),
                m.entries(1)
            ),
        });
    }
    Ok(Certificate {
        kind: AnalysisKind::CfaSrc,
        constraints: sys.constraints,
        facts: claimed.vars.iter().map(|s| s.len()).sum::<usize>()
            + claimed.terms.values().map(|s| s.len()).sum::<usize>()
            + claimed.calls.values().map(BTreeSet::len).sum::<usize>(),
    })
}

// ---------------------------------------------------------------------------
// CPS-level 0CFA
// ---------------------------------------------------------------------------

fn op_of(w: &CVal, prog: &CpsProgram) -> Op {
    match &w.kind {
        CValKind::Num(_) => Op::None,
        CValKind::Add1K => Op::Const(CpsFlow::Clo(AbsClo::Inc)),
        CValKind::Sub1K => Op::Const(CpsFlow::Clo(AbsClo::Dec)),
        CValKind::Lam { .. } => Op::Const(CpsFlow::Clo(AbsClo::Lam(w.label))),
        CValKind::Var(x) => Op::Var(prog.user_var_id(x).expect("indexed variable")),
    }
}

/// A CPS `let`: a constant seeds the binder, a variable subset-edges into
/// it. Returns the number of constraints it adds.
fn let_flow(m: &mut Model, op: Op, x: CVarId) -> usize {
    let rule = match op {
        Op::None => return 0,
        Op::Const(_) => Rule::Seed,
        Op::Var(y) => Rule::Sub(y.index() as u32),
    };
    m.flow(op, x.index(), rule);
    1
}

/// A claimed CPS-shaped answer, read in place from the result it came
/// from (pushdown's adds the matched-return witnesses).
struct CpsClaim<'a> {
    vars: &'a [Arc<BTreeSet<CpsFlow>>],
    returns: &'a LabelTable<BTreeSet<AbsKont>>,
    calls: &'a LabelTable<BTreeSet<AbsClo>>,
    matched: &'a BTreeSet<MatchedReturn>,
}

impl CpsClaim<'_> {
    fn holds(&self, m: &Model, fact: &Fact) -> bool {
        match *fact {
            Fact::In(n, v) => match (m.slot(n as usize), v) {
                (Slot::Var(i), v) => self.vars[i].contains(&v),
                (Slot::Tab(0, l), CpsFlow::Kont(k)) => {
                    self.returns.get(l).is_some_and(|s| s.contains(&k))
                }
                (Slot::Tab(_, l), CpsFlow::Clo(c)) => {
                    self.calls.get(l).is_some_and(|s| s.contains(&c))
                }
                _ => false,
            },
            Fact::Matched(w) => self.matched.contains(&w),
        }
    }

    /// The least-model comparison shared by the CPS-shaped certifiers.
    fn compare(&self, m: &Model) -> Result<(), Refutation> {
        m.first_unclosed(|fact| self.holds(m, fact))?;
        if let Some(w) = self.matched.difference(&m.matched).next() {
            return Err(Refutation::Unsupported {
                fact: format!("matched witness {w:?}"),
            });
        }
        for (i, set) in self.vars.iter().enumerate() {
            m.supports(i, set, |v| v, format_args!("v{i}"))?;
        }
        m.supports_table(0, self.returns, CpsFlow::Kont)?;
        m.supports_table(1, self.calls, CpsFlow::Clo)?;
        if self.returns.len() != m.entries(0) || self.calls.len() != m.entries(1) {
            return Err(Refutation::Shape {
                detail: format!(
                    "{}×{} call/return sites claimed, least model has {}×{}",
                    self.calls.len(),
                    self.returns.len(),
                    m.entries(1),
                    m.entries(0)
                ),
            });
        }
        Ok(())
    }

    fn facts(&self) -> usize {
        self.vars.iter().map(|s| s.len()).sum::<usize>()
            + self.returns.values().map(BTreeSet::len).sum::<usize>()
            + self.calls.values().map(BTreeSet::len).sum::<usize>()
            + self.matched.len()
    }
}

/// The CPS constraint system, re-derived by an independent walk straight
/// into its model's seeds and static edges.
struct CpsSystem {
    m: Model,
    /// Return site → returned operand.
    rets: HashMap<Label, Op>,
    /// Call site → (argument, literal continuation label).
    calls: HashMap<Label, (Op, Label)>,
    /// `λ label → (param var, k var)`.
    lam: HashMap<Label, (CVarId, CVarId)>,
    /// continuation label → binder var.
    cont_var: HashMap<Label, CVarId>,
    constraints: usize,
}

impl CpsSystem {
    fn derive(prog: &CpsProgram) -> CpsSystem {
        let mut sys = CpsSystem {
            m: Model::new(prog.num_vars(), prog.label_count(), true),
            rets: HashMap::new(),
            calls: HashMap::new(),
            lam: prog
                .lambdas()
                .into_iter()
                .map(|(l, r)| (l, (r.param_id, r.k_id)))
                .collect(),
            cont_var: prog
                .conts()
                .into_iter()
                .map(|(l, r)| (l, r.var_id))
                .collect(),
            constraints: 0,
        };
        sys.walk(prog.root(), prog);
        sys.constraints += 1;
        let k0 = prog.kont_var_id(prog.top_k()).expect("top k indexed");
        let stop = CpsFlow::Kont(AbsKont::Stop);
        sys.m.derive(k0.index(), stop, Rule::Seed);
        sys
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
                self.constraints += 1;
                self.rets.insert(t.label, op_of(w, prog));
                let dst = self.m.tab(0, t.label);
                self.m.edge(kid.index(), dst, Rule::Ret(t.label));
                self.enter_val(w, prog);
            }
            CTermKind::Let { var, val, body } => {
                let x = prog.user_var_id(var).expect("indexed variable");
                self.constraints += let_flow(&mut self.m, op_of(val, prog), x);
                self.enter_val(val, prog);
                self.walk(body, prog);
            }
            CTermKind::Call { f, arg, cont } => {
                self.constraints += 1;
                self.calls.insert(t.label, (op_of(arg, prog), cont.label));
                let dst = self.m.tab(1, t.label);
                self.m.flow(op_of(f, prog), dst, Rule::Call(t.label));
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
                self.constraints += 1;
                let co = CpsFlow::Kont(AbsKont::Co(cont.label));
                self.m.derive(kid.index(), co, Rule::Seed);
                self.walk(&cont.body, prog);
                self.walk(then_, prog);
                self.walk(else_, prog);
            }
            CTermKind::Loop { cont } => self.walk(&cont.body, prog),
        }
    }
}

/// Least model of the re-derived CPS system: a continuation reaching a
/// return site flows the returned operand into its binder; a closure
/// reaching a call site flows the argument into its parameter and the
/// literal continuation into its `k`.
fn cps_least_model(sys: &mut CpsSystem) {
    while let Some((n, v)) = sys.m.pop() {
        match (sys.m.slot(n), v) {
            (Slot::Tab(0, site), CpsFlow::Kont(AbsKont::Co(l))) => {
                let binder = sys.cont_var[&l].index();
                sys.m.flow(sys.rets[&site], binder, Rule::Ret(site));
            }
            (Slot::Tab(1, site), CpsFlow::Clo(AbsClo::Lam(l))) => {
                let (arg, cont) = sys.calls[&site];
                let (param, kvar) = sys.lam[&l];
                sys.m.flow(arg, param.index(), Rule::CallArg(site));
                let co = CpsFlow::Kont(AbsKont::Co(cont));
                sys.m.derive(kvar.index(), co, Rule::CallCont(site));
            }
            _ => {}
        }
    }
}

/// Certifies a CPS-level 0CFA answer against `prog`.
pub fn certify_cfa_cps(
    prog: &CpsProgram,
    claimed: &CpsCfaResult,
) -> Result<Certificate, Refutation> {
    static NO_WITNESSES: BTreeSet<MatchedReturn> = BTreeSet::new();
    same_vars(claimed.vars.len(), prog.num_vars())?;
    let mut sys = CpsSystem::derive(prog);
    cps_least_model(&mut sys);
    let claim = CpsClaim {
        vars: &claimed.vars,
        returns: &claimed.returns,
        calls: &claimed.calls,
        matched: &NO_WITNESSES,
    };
    claim.compare(&sys.m)?;
    Ok(Certificate {
        kind: AnalysisKind::CfaCps,
        constraints: sys.constraints,
        facts: claim.facts(),
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

/// The enclosing user λ during the pushdown walk.
#[derive(Clone, Copy)]
struct PdFrame {
    label: Label,
    param: CVarId,
    k: CVarId,
}

/// The pushdown constraint system: classification of every return site plus
/// the static flow edges, re-derived with an independent frame-carrying
/// walk straight into its model.
struct PdSystem {
    m: Model,
    /// Call site → (argument, literal continuation label).
    calls: HashMap<Label, (Op, Label)>,
    templates: HashMap<Label, Vec<RTpl>>,
    /// `letk` continuation variable → its join continuation label.
    join_of: BTreeMap<usize, Label>,
    frames: HashMap<Label, PdFrame>,
    cont_var: HashMap<Label, CVarId>,
    top_k: CVarId,
    constraints: usize,
    /// The first return site whose continuation is neither frame, join,
    /// nor halt: the program has no pushdown reading.
    stray_return: Option<Label>,
}

impl PdSystem {
    fn derive(prog: &CpsProgram) -> Result<PdSystem, Refutation> {
        let mut sys = PdSystem {
            m: Model::new(prog.num_vars(), prog.label_count(), true),
            calls: HashMap::new(),
            templates: HashMap::new(),
            join_of: BTreeMap::new(),
            frames: prog
                .lambdas()
                .into_iter()
                .map(|(l, r)| {
                    let (param, k) = (r.param_id, r.k_id);
                    (l, PdFrame { label: l, param, k })
                })
                .collect(),
            cont_var: prog
                .conts()
                .into_iter()
                .map(|(l, r)| (l, r.var_id))
                .collect(),
            top_k: prog.kont_var_id(prog.top_k()).expect("top k indexed"),
            constraints: 0,
            stray_return: None,
        };
        sys.walk(prog.root(), None, prog);
        match sys.stray_return {
            None => Ok(sys),
            Some(site) => Err(Refutation::Shape {
                detail: format!(
                    "return@{site} names a continuation that is neither frame, join, nor halt"
                ),
            }),
        }
    }

    fn walk(&mut self, t: &CTerm, frame: Option<PdFrame>, prog: &CpsProgram) {
        match &t.kind {
            CTermKind::Ret(k, w) => {
                let kid = prog.kont_var_id(k).expect("indexed k");
                let wf = op_of(w, prog);
                let dst = self.m.tab(0, t.label);
                match frame {
                    Some(f) if kid == f.k => {
                        self.templates.entry(f.label).or_default().push(RTpl {
                            site: t.label,
                            w: wf,
                            own_param: matches!(wf, Op::Var(v) if v == f.param),
                        });
                    }
                    _ if kid == self.top_k => {
                        self.constraints += 1;
                        let rule = Rule::HaltReturn(t.label);
                        self.m.derive(dst, CpsFlow::Kont(AbsKont::Stop), rule);
                    }
                    _ => {
                        let Some(&cont) = self.join_of.get(&kid.index()) else {
                            self.stray_return.get_or_insert(t.label);
                            return;
                        };
                        self.constraints += 2;
                        let co = CpsFlow::Kont(AbsKont::Co(cont));
                        self.m.derive(dst, co, Rule::JoinReturn(t.label));
                        let binder = self.cont_var[&cont].index();
                        self.m.flow(wf, binder, Rule::Join(t.label));
                    }
                }
                self.enter_val(w, prog);
            }
            CTermKind::Let { var, val, body } => {
                let x = prog.user_var_id(var).expect("indexed variable");
                self.constraints += let_flow(&mut self.m, op_of(val, prog), x);
                self.enter_val(val, prog);
                self.walk(body, frame, prog);
            }
            CTermKind::Call { f, arg, cont } => {
                self.constraints += 1;
                self.calls.insert(t.label, (op_of(arg, prog), cont.label));
                let dst = self.m.tab(1, t.label);
                self.m.flow(op_of(f, prog), dst, Rule::Call(t.label));
                self.enter_val(f, prog);
                self.enter_val(arg, prog);
                // The literal continuation body runs in the caller's frame.
                self.walk(&cont.body, frame, prog);
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
                self.walk(&cont.body, frame, prog);
                self.walk(then_, frame, prog);
                self.walk(else_, frame, prog);
            }
            CTermKind::Loop { cont } => self.walk(&cont.body, frame, prog),
        }
    }

    fn enter_val(&mut self, v: &CVal, prog: &CpsProgram) {
        if let CValKind::Lam { body, .. } = &v.kind {
            let f = self.frames[&v.label];
            self.walk(body, Some(f), prog);
        }
    }
}

/// Least model of the re-derived pushdown system: a closure reaching a
/// call site flows the argument into its parameter and instantiates the
/// callee's return summary for the caller's frame. After the loop comes
/// the continuation-variable fill the analyzer commits after its solve:
/// matched frames into each λ's `k`, the static join continuation into
/// each `letk` binder, `stop` into the top `k`.
fn pd_least_model(sys: &mut PdSystem) {
    let mut frames = Vec::new();
    while let Some((n, v)) = sys.m.pop() {
        let (Slot::Tab(1, site), CpsFlow::Clo(AbsClo::Lam(l))) = (sys.m.slot(n), v) else {
            continue;
        };
        let (arg, cont) = sys.calls[&site];
        let f = sys.frames[&l];
        sys.m.flow(arg, f.param.index(), Rule::CallArg(site));
        frames.push((f.k, cont, site));
        let binder = sys.cont_var[&cont].index();
        let rule = Rule::Summary(site);
        for tpl in sys.templates.get(&l).map_or(&[][..], Vec::as_slice) {
            let co = CpsFlow::Kont(AbsKont::Co(cont));
            sys.m.derive(sys.m.tab(0, tpl.site), co, rule);
            sys.m.witness(
                MatchedReturn {
                    ret_site: tpl.site,
                    callee: l,
                    call_site: site,
                    cont,
                },
                rule,
            );
            sys.m
                .flow(if tpl.own_param { arg } else { tpl.w }, binder, rule);
        }
    }
    for (k, cont, site) in frames {
        let co = CpsFlow::Kont(AbsKont::Co(cont));
        sys.m.derive(k.index(), co, Rule::CallFrame(site));
    }
    for (&k, &cont) in &sys.join_of {
        let co = CpsFlow::Kont(AbsKont::Co(cont));
        sys.m.derive(k, co, Rule::LetkFill);
    }
    let stop = CpsFlow::Kont(AbsKont::Stop);
    sys.m.derive(sys.top_k.index(), stop, Rule::HaltFill);
}

/// Certifies a pushdown CFA answer against `prog`.
pub fn certify_pushdown(
    prog: &CpsProgram,
    claimed: &PushdownCfaResult,
) -> Result<Certificate, Refutation> {
    same_vars(claimed.vars.len(), prog.num_vars())?;
    let mut sys = PdSystem::derive(prog)?;
    pd_least_model(&mut sys);
    let claim = CpsClaim {
        vars: &claimed.vars,
        returns: &claimed.returns,
        calls: &claimed.calls,
        matched: &claimed.matched,
    };
    claim.compare(&sys.m)?;
    Ok(Certificate {
        kind: AnalysisKind::CfaPushdown,
        constraints: sys.constraints,
        facts: claim.facts(),
    })
}

// ---------------------------------------------------------------------------
// MFP over the first-order CFG
// ---------------------------------------------------------------------------

/// The checker's own transfer function — same abstract semantics as the
/// CFG's, re-implemented here so the solver's transfer is not in the
/// trusted base.
fn transfer<D: NumDomain>(stmt: Stmt, env: &[D]) -> Vec<D> {
    let mut out = env.to_vec();
    match stmt {
        Stmt::Const(x, n) => out[x.index()] = D::constant(n),
        Stmt::Copy(x, y) => out[x.index()] = env[y.index()].clone(),
        Stmt::Add1(x, y) => out[x.index()] = env[y.index()].add1(),
        Stmt::Sub1(x, y) => out[x.index()] = env[y.index()].sub1(),
        Stmt::Sum(x, y, z) => {
            let (a, b) = (&env[y.index()], &env[z.index()]);
            out[x.index()] = match (a.as_const(), b.as_const()) {
                (Some(p), Some(q)) => D::constant(p + q),
                _ if a.is_bot() || b.is_bot() => D::bot(),
                _ => D::top(),
            };
        }
        Stmt::Havoc(x) => out[x.index()] = D::top(),
        Stmt::Nop => {}
    }
    out
}

fn join_into<D: NumDomain>(a: &mut [D], b: &[D]) -> bool {
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

/// The least MFP fixpoint of `cfg` from entry environment `init`, as a
/// per-variable summary: one environment per node, iterated round-robin
/// until no node's out-environment grows, then each variable joined over
/// its defining nodes. The reference the sparse MFP solver is tested
/// against; it shares only the CFG with it.
pub fn mfp_least_model<D: NumDomain>(cfg: &Cfg, init: DfEnv<D>) -> DfSummary<D> {
    let bot = cfg.bottom_env::<D>();
    let nodes = cfg.nodes();
    let entry = cfg.entry().0;
    let mut outs: Vec<Vec<D>> = vec![bot.clone(); nodes.len()];
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for (i, node) in nodes.iter().enumerate() {
        for s in &node.succs {
            preds[s.0].push(i);
        }
    }
    loop {
        let mut changed = false;
        for (i, node) in nodes.iter().enumerate() {
            let mut inn = if i == entry { &init } else { &bot }.clone();
            for &p in &preds[i] {
                join_into(&mut inn, &outs[p]);
            }
            let out = transfer(node.stmt, &inn);
            changed |= join_into(&mut outs[i], &out);
        }
        if !changed {
            break;
        }
    }
    let mut vars = bot;
    for (i, node) in nodes.iter().enumerate() {
        if let Some(x) = node.stmt.def() {
            vars[x.index()] = vars[x.index()].join(&outs[i][x.index()]);
        }
    }
    DfSummary { vars }
}

/// Certifies an MFP constant-propagation summary against `prog`.
///
/// The CFG lowering is shared front end (like the parser); the transfer,
/// join, fixpoint loop, and defining-node summarization are
/// [`mfp_least_model`]'s own.
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
    let vars = mfp_least_model::<Flat>(&cfg, cfg.initial_env(prog)).vars;
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
        constraints: cfg.nodes().len(),
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
            let s = mfp_least_model::<Flat>(&cfg, cfg.initial_env(&p));
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
        assert!(matches!(err, Refutation::Unsupported { .. }), "got {err}");
    }

    const SELF_APP: &str = "(let (f (lambda (x) x)) (f f))";

    /// `set` plus `lie` if it holds an element `real` picks out.
    fn poison<T: Ord + Copy>(set: &BTreeSet<T>, real: fn(&T) -> bool, lie: T) -> BTreeSet<T> {
        let mut out = set.clone();
        if set.iter().any(real) {
            out.insert(lie);
        }
        out
    }

    /// Names `bogus` wherever a CPS-shaped answer names a real callee or
    /// continuation.
    fn poison_cps(
        bogus: Label,
        vars: &mut [Arc<BTreeSet<CpsFlow>>],
        returns: &mut LabelTable<BTreeSet<AbsKont>>,
        calls: &mut LabelTable<BTreeSet<AbsClo>>,
    ) {
        for v in vars.iter_mut() {
            let lam = |f: &CpsFlow| matches!(f, CpsFlow::Clo(AbsClo::Lam(_)));
            let co = |f: &CpsFlow| matches!(f, CpsFlow::Kont(AbsKont::Co(_)));
            let s = poison(v, lam, CpsFlow::Clo(AbsClo::Lam(bogus)));
            *v = Arc::new(poison(&s, co, CpsFlow::Kont(AbsKont::Co(bogus))));
        }
        let co = |k: &AbsKont| matches!(k, AbsKont::Co(_));
        *returns = returns
            .iter()
            .map(|(l, s)| (l, poison(s, co, AbsKont::Co(bogus))))
            .collect();
        let lam = |c: &AbsClo| matches!(c, AbsClo::Lam(_));
        *calls = calls
            .iter()
            .map(|(l, s)| (l, poison(s, lam, AbsClo::Lam(bogus))))
            .collect();
    }

    /// A label of the CPS program that is neither a λ nor a continuation.
    fn cps_non_binder(c: &CpsProgram) -> Label {
        let (lams, conts) = (c.lambdas(), c.conts());
        (0..c.label_count())
            .map(Label::new)
            .find(|l| !lams.contains_key(l) && !conts.contains_key(l))
            .expect("some label binds nothing")
    }

    #[test]
    fn a_non_lambda_callee_in_a_src_claim_refutes_as_unsupported() {
        let p = AnfProgram::parse(SELF_APP).unwrap();
        let lams = p.lambdas();
        let bogus = (0..p.label_count())
            .map(Label::new)
            .find(|l| !lams.contains_key(l))
            .unwrap();
        let lam = |c: &AbsClo| matches!(c, AbsClo::Lam(_));
        let lie = AbsClo::Lam(bogus);
        let mut r = zero_cfa(&p).unwrap();
        for v in r.vars.iter_mut() {
            *v = Arc::new(poison(v, lam, lie));
        }
        r.terms = r
            .terms
            .iter()
            .map(|(l, s)| (l, Arc::new(poison(s, lam, lie))))
            .collect();
        r.calls = Arc::new(
            r.calls
                .iter()
                .map(|(l, s)| (l, poison(s, lam, lie)))
                .collect(),
        );
        let err = certify_cfa_src(&p, &r).unwrap_err();
        assert!(matches!(err, Refutation::Unsupported { .. }), "got {err}");
    }

    #[test]
    fn a_non_lambda_callee_in_a_cps_claim_refutes_as_unsupported() {
        let c = CpsProgram::from_anf(&AnfProgram::parse(SELF_APP).unwrap());
        let mut r = zero_cfa_cps(&c).unwrap();
        poison_cps(
            cps_non_binder(&c),
            &mut r.vars,
            &mut r.returns,
            &mut r.calls,
        );
        let err = certify_cfa_cps(&c, &r).unwrap_err();
        assert!(matches!(err, Refutation::Unsupported { .. }), "got {err}");
    }

    #[test]
    fn a_non_lambda_callee_in_a_pushdown_claim_refutes_as_unsupported() {
        let c = CpsProgram::from_anf(&AnfProgram::parse(SELF_APP).unwrap());
        let mut r = pushdown_cfa(&c).unwrap();
        poison_cps(
            cps_non_binder(&c),
            &mut r.vars,
            &mut r.returns,
            &mut r.calls,
        );
        let err = certify_pushdown(&c, &r).unwrap_err();
        assert!(matches!(err, Refutation::Unsupported { .. }), "got {err}");
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
        let s = mfp_least_model::<Flat>(&cfg, cfg.initial_env(&p));
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
        let other = AnfProgram::parse("(let (y 1) (add1 y))").unwrap();
        assert!(certify_answer(&other, &ans).is_err());
    }
}
