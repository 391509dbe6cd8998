//! Incremental re-analysis: reusing a previous solution across a program
//! edit.
//!
//! The paper's CPS-vs-direct comparison asks how much flow information must
//! be recomputed when the *representation* changes; this module asks the
//! same question over *time*, when the program itself is edited. Every
//! driver here is stateless: it takes the old program, its fixpoint and the
//! new program, and answers on one of two rungs:
//!
//! 1. **Noop** — the edit changed only constants and names. A lockstep
//!    identity walk ([`anf_identity`], [`cps_identity`]) checks that both
//!    programs have the same shape: every pair of nodes has the same kind
//!    and label index, every binder and occurrence the same variable
//!    index, free variables pair by name, and the variable and label
//!    counts match. The constraint graph of 0CFA is invariant under such
//!    an edit, so the previous result is reused outright (`Arc` handle
//!    clones, zero constraints fired). MFP, which is constant-sensitive,
//!    reuses its solution only when the constants are unchanged too, as a
//!    **Transport**.
//! 2. **Cold** — any other edit (an inserted or deleted binding, an
//!    occurrence pointed at a different binder, a changed `(+ M n)` chain)
//!    is re-solved from scratch by the caller, with the reason recorded in
//!    [`ColdReason`].
//!
//! Pouring the old fixpoint into a fresh solver as a seed is the other
//! classic warm start, but transporting the seed into the new program
//! costs as much as the cold solve it replaces (EXPERIMENTS.md, E22), so
//! there is no such rung.

use crate::budget::{AnalysisBudget, AnalysisError};
use crate::cfa::{CfaResult, CpsCfaResult};
use crate::domain::Flat;
use crate::govern::RunGuard;
use crate::mfp::DfSummary;
use crate::pushdown::PushdownCfaResult;
use crate::trace::{NoopSink, TraceSink};
use cpsdfa_anf::{AVal, AValKind, Anf, AnfKind, AnfProgram, Bind};
use cpsdfa_cps::{CTerm, CTermKind, CVal, CValKind, CVarId, ContLam, CpsProgram, VarKey};

// ---------------------------------------------------------------------------
// Outcome reporting
// ---------------------------------------------------------------------------

/// Why an edit is re-solved cold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColdReason {
    /// The two programs differ in shape: a node kind, a label, a variable
    /// at some binder or occurrence, or the variable/label counts.
    StructureMismatch,
    /// Constants changed under a constant-sensitive analysis (MFP over
    /// [`Flat`] is not monotone in the program's constants).
    ConstantsChanged,
}

/// Which warm rung produced the answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarmPath {
    /// Same shape: the previous result is reused, nothing fired.
    Noop,
    /// Same shape and constants: MFP's solution is reused wholesale.
    Transport,
}

/// How one re-analysis was answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Warm: the previous fixpoint was reused via the given rung.
    Warm(WarmPath),
    /// Cold: full re-solve, for the given reason.
    Cold(ColdReason),
}

/// The cost card of one incremental step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarmReport {
    /// Which rung answered (and why, when cold).
    pub outcome: Outcome,
    /// Constraints fired by this step (0 on both warm rungs).
    pub fired: u64,
}

impl WarmReport {
    fn warm(path: WarmPath) -> WarmReport {
        WarmReport {
            outcome: Outcome::Warm(path),
            fired: 0,
        }
    }

    /// True when the step reused the previous fixpoint.
    pub fn is_warm(&self) -> bool {
        matches!(self.outcome, Outcome::Warm(_))
    }
}

/// The result of a stateless incremental driver: either a warm answer
/// (bit-identical to the from-scratch solution) or an instruction to
/// re-solve cold for the given reason.
#[derive(Debug)]
pub enum WarmSolve<R> {
    /// The warm answer plus its cost card.
    Warm(R, WarmReport),
    /// The edit was not warm-eligible; the caller must solve cold.
    Cold(ColdReason),
}

// ---------------------------------------------------------------------------
// Identity walks
// ---------------------------------------------------------------------------

/// Both sides resolved to the same variable index.
fn same_index(o: Option<usize>, n: Option<usize>) -> bool {
    o.is_some() && o == n
}

/// A pair of ANF nodes still to compare.
enum AnfPair<'a> {
    Term(&'a Anf, &'a Anf),
    Val(&'a AVal, &'a AVal),
}

/// Walks two ANF programs in lockstep over an explicit stack. `None` when
/// they differ in shape (node kind, label index, the variable index at a
/// binder or occurrence, a free variable's index, or the variable/label
/// counts); otherwise `Some(consts_changed)`.
pub fn anf_identity(old: &AnfProgram, new: &AnfProgram) -> Option<bool> {
    if old.num_vars() != new.num_vars() || old.label_count() != new.label_count() {
        return None;
    }
    // Free variables have no binder to pair them: they pair by name.
    for &v in old.free_vars() {
        if new.var_id(old.ident(v)).map(|n| n.index()) != Some(v.index()) {
            return None;
        }
    }
    let var = |o, n| {
        same_index(
            old.var_id(o).map(|v| v.index()),
            new.var_id(n).map(|v| v.index()),
        )
    };
    let mut consts_changed = false;
    let mut stack = vec![AnfPair::Term(old.root(), new.root())];
    while let Some(pair) = stack.pop() {
        match pair {
            AnfPair::Term(o, n) => {
                if o.label != n.label {
                    return None;
                }
                match (&o.kind, &n.kind) {
                    (AnfKind::Value(vo), AnfKind::Value(vn)) => stack.push(AnfPair::Val(vo, vn)),
                    (
                        AnfKind::Let {
                            var: xo,
                            bind: bo,
                            body: mo,
                        },
                        AnfKind::Let {
                            var: xn,
                            bind: bn,
                            body: mn,
                        },
                    ) => {
                        if !var(xo, xn) {
                            return None;
                        }
                        match (bo, bn) {
                            (Bind::Value(vo), Bind::Value(vn)) => stack.push(AnfPair::Val(vo, vn)),
                            (Bind::App(fo, ao), Bind::App(fnn, an)) => {
                                stack.push(AnfPair::Val(fo, fnn));
                                stack.push(AnfPair::Val(ao, an));
                            }
                            (Bind::If0(co, to, eo), Bind::If0(cn, tn, en)) => {
                                stack.push(AnfPair::Val(co, cn));
                                stack.push(AnfPair::Term(to, tn));
                                stack.push(AnfPair::Term(eo, en));
                            }
                            (Bind::Loop, Bind::Loop) => {}
                            _ => return None,
                        }
                        stack.push(AnfPair::Term(mo, mn));
                    }
                    _ => return None,
                }
            }
            AnfPair::Val(o, n) => {
                if o.label != n.label {
                    return None;
                }
                match (&o.kind, &n.kind) {
                    (AValKind::Num(a), AValKind::Num(b)) => consts_changed |= a != b,
                    (AValKind::Var(xo), AValKind::Var(xn)) if var(xo, xn) => {}
                    (AValKind::Add1, AValKind::Add1) | (AValKind::Sub1, AValKind::Sub1) => {}
                    (AValKind::Lam(po, bo), AValKind::Lam(pn, bn)) if var(po, pn) => {
                        stack.push(AnfPair::Term(bo, bn));
                    }
                    _ => return None,
                }
            }
        }
    }
    Some(consts_changed)
}

/// A pair of CPS nodes still to compare.
enum CpsPair<'a> {
    Term(&'a CTerm, &'a CTerm),
    Val(&'a CVal, &'a CVal),
    Cont(&'a ContLam, &'a ContLam),
}

/// The CPS mirror of [`anf_identity`]. User and continuation variables
/// share one index space; the top continuation pairs like a free
/// variable.
pub fn cps_identity(old: &CpsProgram, new: &CpsProgram) -> Option<bool> {
    if old.num_vars() != new.num_vars() || old.label_count() != new.label_count() {
        return None;
    }
    let index = |v: CVarId| v.index();
    let user = |o, n| same_index(old.user_var_id(o).map(index), new.user_var_id(n).map(index));
    let kont = |o, n| same_index(old.kont_var_id(o).map(index), new.kont_var_id(n).map(index));
    if !kont(old.top_k(), new.top_k()) {
        return None;
    }
    for &v in old.free_vars() {
        if let VarKey::User(x) = old.key(v) {
            if new.user_var_id(x).map(index) != Some(v.index()) {
                return None;
            }
        }
    }
    let mut consts_changed = false;
    let mut stack = vec![CpsPair::Term(old.root(), new.root())];
    while let Some(pair) = stack.pop() {
        match pair {
            CpsPair::Term(o, n) => {
                if o.label != n.label {
                    return None;
                }
                match (&o.kind, &n.kind) {
                    (CTermKind::Ret(ko, wo), CTermKind::Ret(kn, wn)) if kont(ko, kn) => {
                        stack.push(CpsPair::Val(wo, wn));
                    }
                    (
                        CTermKind::Let {
                            var: xo,
                            val: vo,
                            body: mo,
                        },
                        CTermKind::Let {
                            var: xn,
                            val: vn,
                            body: mn,
                        },
                    ) if user(xo, xn) => {
                        stack.push(CpsPair::Val(vo, vn));
                        stack.push(CpsPair::Term(mo, mn));
                    }
                    (
                        CTermKind::Call {
                            f: fo,
                            arg: ao,
                            cont: co,
                        },
                        CTermKind::Call {
                            f: fnn,
                            arg: an,
                            cont: cn,
                        },
                    ) => {
                        stack.push(CpsPair::Val(fo, fnn));
                        stack.push(CpsPair::Val(ao, an));
                        stack.push(CpsPair::Cont(co, cn));
                    }
                    (
                        CTermKind::LetK {
                            k: ko,
                            cont: co,
                            test: to,
                            then_: tho,
                            else_: eo,
                        },
                        CTermKind::LetK {
                            k: kn,
                            cont: cn,
                            test: tn,
                            then_: thn,
                            else_: en,
                        },
                    ) if kont(ko, kn) => {
                        stack.push(CpsPair::Cont(co, cn));
                        stack.push(CpsPair::Val(to, tn));
                        stack.push(CpsPair::Term(tho, thn));
                        stack.push(CpsPair::Term(eo, en));
                    }
                    (CTermKind::Loop { cont: co }, CTermKind::Loop { cont: cn }) => {
                        stack.push(CpsPair::Cont(co, cn));
                    }
                    _ => return None,
                }
            }
            CpsPair::Val(o, n) => {
                if o.label != n.label {
                    return None;
                }
                match (&o.kind, &n.kind) {
                    (CValKind::Num(a), CValKind::Num(b)) => consts_changed |= a != b,
                    (CValKind::Var(xo), CValKind::Var(xn)) if user(xo, xn) => {}
                    (CValKind::Add1K, CValKind::Add1K) | (CValKind::Sub1K, CValKind::Sub1K) => {}
                    (
                        CValKind::Lam {
                            param: po,
                            k: ko,
                            body: bo,
                        },
                        CValKind::Lam {
                            param: pn,
                            k: kn,
                            body: bn,
                        },
                    ) if user(po, pn) && kont(ko, kn) => stack.push(CpsPair::Term(bo, bn)),
                    _ => return None,
                }
            }
            CpsPair::Cont(o, n) => {
                if o.label != n.label || !user(&o.var, &n.var) {
                    return None;
                }
                stack.push(CpsPair::Term(&o.body, &n.body));
            }
        }
    }
    Some(consts_changed)
}

// ---------------------------------------------------------------------------
// Stateless incremental drivers
// ---------------------------------------------------------------------------

/// Source-level 0CFA across an edit: `prev` must be the fixpoint of `old`.
/// Returns `prev` itself (bit-identical to `zero_cfa(new)`) when the edit
/// keeps the program's shape, or a [`ColdReason`] instructing the caller
/// to solve cold.
///
/// `_guard` and `_sink` are unused; they stay only for
/// `cpsbench/src/replay.rs`.
pub fn zero_cfa_incremental(
    old: &AnfProgram,
    prev: &CfaResult,
    new: &AnfProgram,
    _guard: &RunGuard,
    _sink: &mut impl TraceSink,
) -> Result<WarmSolve<CfaResult>, AnalysisError> {
    if anf_identity(old, new).is_none() {
        return Ok(WarmSolve::Cold(ColdReason::StructureMismatch));
    }
    let result = CfaResult {
        iterations: 1,
        ..prev.clone()
    };
    Ok(WarmSolve::Warm(result, WarmReport::warm(WarmPath::Noop)))
}

/// CPS-level 0CFA across an edit (the CPS mirror of
/// [`zero_cfa_incremental`]).
///
/// `_guard` and `_sink` are unused; they stay only for
/// `cpsbench/src/replay.rs`.
pub fn zero_cfa_cps_incremental(
    old: &CpsProgram,
    prev: &CpsCfaResult,
    new: &CpsProgram,
    _guard: &RunGuard,
    _sink: &mut impl TraceSink,
) -> Result<WarmSolve<CpsCfaResult>, AnalysisError> {
    if cps_identity(old, new).is_none() {
        return Ok(WarmSolve::Cold(ColdReason::StructureMismatch));
    }
    let result = CpsCfaResult {
        iterations: 1,
        ..prev.clone()
    };
    Ok(WarmSolve::Warm(result, WarmReport::warm(WarmPath::Noop)))
}

/// Pushdown 0CFA across an edit (the pushdown mirror of
/// [`zero_cfa_cps_incremental`]).
///
/// `_guard` and `_sink` are unused; they stay only for
/// `cpsbench/src/replay.rs`.
pub fn pushdown_cfa_incremental(
    old: &CpsProgram,
    prev: &PushdownCfaResult,
    new: &CpsProgram,
    _guard: &RunGuard,
    _sink: &mut impl TraceSink,
) -> Result<WarmSolve<PushdownCfaResult>, AnalysisError> {
    if cps_identity(old, new).is_none() {
        return Ok(WarmSolve::Cold(ColdReason::StructureMismatch));
    }
    let result = PushdownCfaResult {
        iterations: 1,
        ..prev.clone()
    };
    Ok(WarmSolve::Warm(result, WarmReport::warm(WarmPath::Noop)))
}

/// MFP across an edit: the [`Flat`] lattice is constant-sensitive (and not
/// monotone in the program's constants), so the only warm rung is a pure
/// transport when the shape and the constants are unchanged — exactly the
/// α-renaming case. `None` = solve cold.
pub fn solve_mfp_incremental(
    old: &AnfProgram,
    prev: &DfSummary<Flat>,
    new: &AnfProgram,
) -> Option<(DfSummary<Flat>, WarmReport)> {
    if anf_identity(old, new) != Some(false) {
        return None;
    }
    let summary = DfSummary {
        vars: prev.vars.clone(),
    };
    Some((summary, WarmReport::warm(WarmPath::Transport)))
}

/// Convenience wrapper over [`zero_cfa_incremental`] with a default-budget
/// guard and no tracing — the differential tests' entry point.
pub fn zero_cfa_warm(
    old: &AnfProgram,
    prev: &CfaResult,
    new: &AnfProgram,
) -> Result<WarmSolve<CfaResult>, AnalysisError> {
    let guard = RunGuard::new(AnalysisBudget::default());
    zero_cfa_incremental(old, prev, new, &guard, &mut NoopSink)
}

/// Convenience wrapper over [`zero_cfa_cps_incremental`].
pub fn zero_cfa_cps_warm(
    old: &CpsProgram,
    prev: &CpsCfaResult,
    new: &CpsProgram,
) -> Result<WarmSolve<CpsCfaResult>, AnalysisError> {
    let guard = RunGuard::new(AnalysisBudget::default());
    zero_cfa_cps_incremental(old, prev, new, &guard, &mut NoopSink)
}

/// Convenience wrapper over [`pushdown_cfa_incremental`].
pub fn pushdown_cfa_warm(
    old: &CpsProgram,
    prev: &PushdownCfaResult,
    new: &CpsProgram,
) -> Result<WarmSolve<PushdownCfaResult>, AnalysisError> {
    let guard = RunGuard::new(AnalysisBudget::default());
    pushdown_cfa_incremental(old, prev, new, &guard, &mut NoopSink)
}
