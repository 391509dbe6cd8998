//! Incremental re-analysis: warm-starting the fixpoint from a previous
//! solution across a program edit.
//!
//! The paper's CPS-vs-direct comparison asks how much flow information must
//! be recomputed when the *representation* changes; this module asks the
//! same question over *time*, when the program itself is edited. The key
//! soundness fact is the one the semi-naive engine already relies on: for a
//! monotone constraint system, the least fixpoint above any seed `S ⊆ lfp`
//! equals `lfp` — so pouring a previous solution (transported into the new
//! program's variable/label spaces) below the new least fixpoint and
//! re-running yields a **bit-identical** answer while firing only the
//! constraints the edit actually perturbs.
//!
//! Every driver here is stateless: it takes the old program, its fixpoint
//! and the new program, and tries three rungs in order of decreasing
//! savings:
//!
//! 1. **Noop** — the alignment is a pure identity (same structure, same
//!    variable/label spaces; constants and names may differ). The
//!    constraint graph of 0CFA is invariant under constant and name
//!    changes, so the previous result is reused outright (`Arc` handle
//!    clones, zero constraints fired). MFP, which is constant-sensitive,
//!    has only this rung, as a **Transport** under unchanged constants.
//! 2. **Seeded** — the edit inserts or deletes whole bindings, or rewrites
//!    subtrees ("regions"). A structural aligner maps the unchanged
//!    entities, the previous fixpoint is transported through the maps and
//!    poured silently into a fresh solver, and only the genuinely new flow
//!    is derived. Eligibility is checked, not assumed: every *unmapped*
//!    old entity must have had an empty flow set, and every region
//!    boundary that removed a flow contribution into a mapped node must be
//!    provably flowless ([`Boundary`]).
//! 3. **Cold** — anything else (a deleted binding whose set was nonempty,
//!    a λ moved between labels, an exhausted warm budget) falls back to a
//!    full re-solve, with the reason recorded in [`ColdReason`]. A
//!    non-monotone edit can therefore never produce a stale answer.
//!
//! The aligner ([`align_anf`], [`align_cps`]) is a deterministic `O(n)`
//! lockstep walk over the two syntax trees guided by per-label structural
//! digests (FNV-1a over structure and constants — *not* names or labels,
//! so a renamed variable or a re-numbered CPS continuation still aligns).
//! At each pair of nodes it either matches kinds and recurses, skips an
//! inserted/deleted `let` whose digest identifies the survivor, or marks a
//! changed region and records the boundary obligations.

use crate::absval::{AbsClo, AbsKont};
use crate::budget::{AnalysisBudget, AnalysisError};
use crate::cfa::{
    zero_cfa_cps_seeded, zero_cfa_seeded, CfaResult, CpsCfaResult, CpsFlow, CpsSeed, SrcSeed,
};
use crate::domain::Flat;
use crate::govern::RunGuard;
use crate::mfp::DfSummary;
use crate::pushdown::{pushdown_cfa_warm_impl, PushdownCfaResult};
use crate::trace::{NoopSink, TraceSink};
use cpsdfa_anf::{AVal, AValKind, Anf, AnfKind, AnfProgram, Bind};
use cpsdfa_cps::{CTerm, CTermKind, CVal, CValKind, ContLam, CpsProgram, VarKey};
use cpsdfa_syntax::{Ident, KIdent, Label};
use std::collections::BTreeSet;

// ---------------------------------------------------------------------------
// Outcome reporting
// ---------------------------------------------------------------------------

/// Why a warm attempt was abandoned for a full re-solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColdReason {
    /// The edit removed a constraint that had already contributed flow
    /// (e.g. a deleted binding with a nonempty closure set): re-using the
    /// previous fixpoint could only over-approximate, so it is discarded.
    NonMonotone,
    /// A transported flow value referred to a λ or continuation whose
    /// label did not survive the edit.
    UnmappedFlow,
    /// The programs did not align well enough to build a seed (or the
    /// seeded solver rejected the seed's shape).
    StructureMismatch,
    /// Constants changed under a constant-sensitive analysis (MFP over
    /// [`Flat`] is not monotone in the program's constants).
    ConstantsChanged,
    /// The warm attempt ran past its budget; a bounded warm try must not
    /// cost more than the cold solve it replaces.
    BudgetExhausted,
}

/// Which warm rung produced the answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarmPath {
    /// Identity alignment: previous result reused, nothing fired.
    Noop,
    /// Fresh solver seeded with the transported previous fixpoint.
    Seeded,
    /// Solution transported wholesale (MFP under an identity alignment).
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
    /// Constraints fired by this step (0 for `Noop`/`Transport`).
    pub fired: u64,
}

impl WarmReport {
    fn noop() -> WarmReport {
        WarmReport {
            outcome: Outcome::Warm(WarmPath::Noop),
            fired: 0,
        }
    }

    fn seeded(fired: u64) -> WarmReport {
        WarmReport {
            outcome: Outcome::Warm(WarmPath::Seeded),
            fired,
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
// Structural digests
// ---------------------------------------------------------------------------

const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV_PRIME: u128 = 0x0000000001000000000000000000013B;

#[inline]
fn mix(h: u128, v: u128) -> u128 {
    (h ^ v).wrapping_mul(FNV_PRIME)
}

fn dig_anf_val(v: &AVal, out: &mut [u128]) -> u128 {
    let h = match &v.kind {
        AValKind::Num(n) => mix(mix(FNV_OFFSET, 20), *n as u64 as u128),
        // Name-insensitive: a variable occurrence digests as its tag only,
        // so renames align; identity of the *binding* is checked by the
        // aligner's variable map, not the digest.
        AValKind::Var(_) => mix(FNV_OFFSET, 21),
        AValKind::Add1 => mix(FNV_OFFSET, 22),
        AValKind::Sub1 => mix(FNV_OFFSET, 23),
        AValKind::Lam(_, body) => mix(mix(FNV_OFFSET, 24), dig_anf_term(body, out)),
    };
    out[v.label.index() as usize] = h;
    h
}

fn dig_anf_term(t: &Anf, out: &mut [u128]) -> u128 {
    let h = match &t.kind {
        AnfKind::Value(v) => mix(mix(FNV_OFFSET, 1), dig_anf_val(v, out)),
        AnfKind::Let { bind, body, .. } => {
            let hb = match bind {
                Bind::Value(v) => mix(mix(FNV_OFFSET, 10), dig_anf_val(v, out)),
                Bind::App(f, a) => mix(
                    mix(mix(FNV_OFFSET, 11), dig_anf_val(f, out)),
                    dig_anf_val(a, out),
                ),
                Bind::If0(c, th, el) => mix(
                    mix(
                        mix(mix(FNV_OFFSET, 12), dig_anf_val(c, out)),
                        dig_anf_term(th, out),
                    ),
                    dig_anf_term(el, out),
                ),
                Bind::Loop => mix(FNV_OFFSET, 13),
            };
            mix(mix(mix(FNV_OFFSET, 2), hb), dig_anf_term(body, out))
        }
    };
    out[t.label.index() as usize] = h;
    h
}

fn anf_digests(prog: &AnfProgram) -> Vec<u128> {
    let mut out = vec![0u128; prog.label_count() as usize];
    dig_anf_term(prog.root(), &mut out);
    out
}

fn dig_cps_val(v: &CVal, out: &mut [u128]) -> u128 {
    let h = match &v.kind {
        CValKind::Num(n) => mix(mix(FNV_OFFSET, 40), *n as u64 as u128),
        CValKind::Var(_) => mix(FNV_OFFSET, 41),
        CValKind::Add1K => mix(FNV_OFFSET, 42),
        CValKind::Sub1K => mix(FNV_OFFSET, 43),
        CValKind::Lam { body, .. } => mix(mix(FNV_OFFSET, 44), dig_cps_term(body, out)),
    };
    out[v.label.index() as usize] = h;
    h
}

fn dig_cont_lam(c: &ContLam, out: &mut [u128]) -> u128 {
    let h = mix(mix(FNV_OFFSET, 45), dig_cps_term(&c.body, out));
    out[c.label.index() as usize] = h;
    h
}

fn dig_cps_term(t: &CTerm, out: &mut [u128]) -> u128 {
    let h = match &t.kind {
        CTermKind::Ret(_, w) => mix(mix(FNV_OFFSET, 30), dig_cps_val(w, out)),
        CTermKind::Let { val, body, .. } => mix(
            mix(mix(FNV_OFFSET, 31), dig_cps_val(val, out)),
            dig_cps_term(body, out),
        ),
        CTermKind::Call { f, arg, cont } => mix(
            mix(
                mix(mix(FNV_OFFSET, 32), dig_cps_val(f, out)),
                dig_cps_val(arg, out),
            ),
            dig_cont_lam(cont, out),
        ),
        CTermKind::LetK {
            cont,
            test,
            then_,
            else_,
            ..
        } => mix(
            mix(
                mix(
                    mix(mix(FNV_OFFSET, 33), dig_cont_lam(cont, out)),
                    dig_cps_val(test, out),
                ),
                dig_cps_term(then_, out),
            ),
            dig_cps_term(else_, out),
        ),
        CTermKind::Loop { cont } => mix(mix(FNV_OFFSET, 34), dig_cont_lam(cont, out)),
    };
    out[t.label.index() as usize] = h;
    h
}

fn cps_digests(prog: &CpsProgram) -> Vec<u128> {
    let mut out = vec![0u128; prog.label_count() as usize];
    dig_cps_term(prog.root(), &mut out);
    out
}

// ---------------------------------------------------------------------------
// Alignment
// ---------------------------------------------------------------------------

/// An obligation the seed builder must discharge against the *previous*
/// fixpoint before a region-crossing edit is warm-eligible: the flow the
/// removed constraint used to contribute into a surviving node must have
/// been empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Boundary {
    /// The old variable's flow set must be empty.
    VarEmpty(u32),
    /// The old call site's discovered-callee set must be empty.
    SiteEmpty(u32),
    /// The old return site's invoked-continuation set must be empty
    /// (CPS only).
    RetEmpty(u32),
    /// The removed contribution was a constant flow (a λ or primitive):
    /// never warm-eligible.
    Never,
}

/// The result of structurally aligning an old program against its edited
/// successor: entity maps, edit counters, and the boundary obligations a
/// seed transport must discharge.
#[derive(Debug, Clone)]
pub struct Alignment {
    /// old variable index → new variable index (`None` = did not survive).
    pub var_map: Vec<Option<u32>>,
    /// old label → new label (`None` = did not survive).
    pub label_map: Vec<Option<u32>>,
    /// A numeral changed under an otherwise matching node.
    pub consts_changed: bool,
    /// `let`s present only in the new program (skipped by digest).
    pub insertions: usize,
    /// `let`s present only in the old program (skipped by digest).
    pub deletions: usize,
    /// Sub-tree pairs that did not match and were left unmapped.
    pub regions: usize,
    /// Obligations for region edges into surviving nodes.
    pub checks: Vec<Boundary>,
    /// Some mapped entity moved (`old index ≠ new index`).
    pub maps_shifted: bool,
    new_vars: usize,
    new_labels: usize,
}

impl Alignment {
    fn new(old_vars: usize, old_labels: usize, new_vars: usize, new_labels: usize) -> Alignment {
        Alignment {
            var_map: vec![None; old_vars],
            label_map: vec![None; old_labels],
            consts_changed: false,
            insertions: 0,
            deletions: 0,
            regions: 0,
            checks: Vec::new(),
            maps_shifted: false,
            new_vars,
            new_labels,
        }
    }

    /// Every old variable and label survived into the new program.
    pub fn total(&self) -> bool {
        self.var_map.iter().all(Option::is_some) && self.label_map.iter().all(Option::is_some)
    }

    /// Pure identity: same spaces, every entity in place, nothing
    /// inserted, deleted, or rewritten. Constants and names may differ —
    /// the control-flow constraint graph is invariant under both.
    pub fn identity(&self) -> bool {
        self.var_map.len() == self.new_vars
            && self.label_map.len() == self.new_labels
            && !self.maps_shifted
            && self.insertions == 0
            && self.deletions == 0
            && self.regions == 0
            && self.total()
    }

    /// True when transporting a solution through the maps cannot merge two
    /// old entities into one new one.
    fn injective(&self) -> bool {
        let mut seen_v = vec![false; self.new_vars];
        for m in self.var_map.iter().flatten() {
            let i = *m as usize;
            if i >= seen_v.len() || seen_v[i] {
                return false;
            }
            seen_v[i] = true;
        }
        let mut seen_l = vec![false; self.new_labels];
        for m in self.label_map.iter().flatten() {
            let i = *m as usize;
            if i >= seen_l.len() || seen_l[i] {
                return false;
            }
            seen_l[i] = true;
        }
        true
    }
}

/// Flow context of a value position, deciding which [`Boundary`] a
/// region at that position must record.
#[derive(Clone, Copy)]
enum ValCtx {
    /// Flows into a mapped variable or term node: the removed side must
    /// have contributed nothing.
    Flow,
    /// Operand of a call at the given old site: covered by the site's
    /// discovered-callee set being empty.
    CallSite(u32),
    /// Returned value at the given old return site (CPS): covered by the
    /// site's invoked-continuation set being empty.
    RetSite(u32),
    /// No flow contribution (an `if0` test position).
    Ignored,
}

struct AnfAligner<'a> {
    old: &'a AnfProgram,
    new: &'a AnfProgram,
    od: Vec<u128>,
    nd: Vec<u128>,
    al: Alignment,
}

impl<'a> AnfAligner<'a> {
    fn map_label(&mut self, o: Label, n: Label) {
        if o.index() != n.index() {
            self.al.maps_shifted = true;
        }
        self.al.label_map[o.index() as usize] = Some(n.index());
    }

    /// Records a binder pairing; a conflict (one old variable apparently
    /// becoming two new ones) poisons the alignment.
    fn map_var(&mut self, o: &Ident, n: &Ident) {
        let (Some(ov), Some(nv)) = (self.old.var_id(o), self.new.var_id(n)) else {
            self.al.regions += 1;
            self.al.checks.push(Boundary::Never);
            return;
        };
        let oi = ov.index();
        let ni = nv.index() as u32;
        match self.al.var_map[oi] {
            None => {
                if oi as u32 != ni {
                    self.al.maps_shifted = true;
                }
                self.al.var_map[oi] = Some(ni);
            }
            Some(m) if m == ni => {}
            Some(_) => {
                self.al.regions += 1;
                self.al.checks.push(Boundary::Never);
            }
        }
    }

    fn val_region(&mut self, vo: &AVal, ctx: ValCtx) {
        self.al.regions += 1;
        match ctx {
            ValCtx::Flow => match &vo.kind {
                // A numeral contributes no closure flow: removing it is
                // always sound.
                AValKind::Num(_) => {}
                AValKind::Var(x) => match self.old.var_id(x) {
                    Some(v) => self.al.checks.push(Boundary::VarEmpty(v.index() as u32)),
                    None => self.al.checks.push(Boundary::Never),
                },
                _ => self.al.checks.push(Boundary::Never),
            },
            ValCtx::CallSite(l) => self.al.checks.push(Boundary::SiteEmpty(l)),
            ValCtx::RetSite(l) => self.al.checks.push(Boundary::RetEmpty(l)),
            ValCtx::Ignored => {}
        }
    }

    fn val(&mut self, vo: &AVal, vn: &AVal, ctx: ValCtx) {
        match (&vo.kind, &vn.kind) {
            (AValKind::Num(a), AValKind::Num(b)) => {
                self.map_label(vo.label, vn.label);
                if a != b {
                    self.al.consts_changed = true;
                }
            }
            (AValKind::Var(xo), AValKind::Var(xn)) => {
                match (self.old.var_id(xo), self.new.var_id(xn)) {
                    (Some(ov), Some(nv))
                        if self.al.var_map[ov.index()] == Some(nv.index() as u32) =>
                    {
                        self.map_label(vo.label, vn.label);
                    }
                    // Unmapped or conflicting occurrence: treat as a
                    // region, not a fresh pairing — an occurrence must
                    // follow its binder (or the free-variable pre-seed).
                    _ => self.val_region(vo, ctx),
                }
            }
            (AValKind::Add1, AValKind::Add1) | (AValKind::Sub1, AValKind::Sub1) => {
                self.map_label(vo.label, vn.label);
            }
            (AValKind::Lam(po, bo), AValKind::Lam(pn, bn)) => {
                self.map_label(vo.label, vn.label);
                self.map_var(po, pn);
                self.term(bo, bn);
            }
            _ => self.val_region(vo, ctx),
        }
    }

    fn bind(&mut self, bo: &Bind, bn: &Bind, site_o: Label) {
        match (bo, bn) {
            (Bind::Value(vo), Bind::Value(vn)) => self.val(vo, vn, ValCtx::Flow),
            (Bind::App(fo, ao), Bind::App(fnn, an)) => {
                self.val(fo, fnn, ValCtx::CallSite(site_o.index()));
                self.val(ao, an, ValCtx::CallSite(site_o.index()));
            }
            (Bind::If0(co, to, eo), Bind::If0(cn, tn, en)) => {
                // The test flows only into its own (value) node; the arms
                // are terms whose contributions route through their own
                // labels — both covered by unmapped-entity emptiness.
                self.val(co, cn, ValCtx::Ignored);
                self.term(to, tn);
                self.term(eo, en);
            }
            (Bind::Loop, Bind::Loop) => {}
            _ => {
                self.al.regions += 1;
                match bo {
                    Bind::Value(v) => self.val_region(v, ValCtx::Flow),
                    Bind::App(..) => self.al.checks.push(Boundary::SiteEmpty(site_o.index())),
                    Bind::If0(..) | Bind::Loop => {}
                }
            }
        }
    }

    fn term(&mut self, o: &Anf, n: &Anf) {
        let (odig, ndig) = (
            self.od[o.label.index() as usize],
            self.nd[n.label.index() as usize],
        );
        if odig != ndig {
            // An inserted `let` whose body digests back to the old term:
            // skip it (its entities are new; they need no seed).
            if let AnfKind::Let { body, .. } = &n.kind {
                if self.nd[body.label.index() as usize] == odig {
                    self.al.insertions += 1;
                    self.al.maps_shifted = true;
                    return self.term(o, body);
                }
            }
            // A deleted `let` whose body digests to the new term: skip it
            // (its entities must be flowless; the seed builder checks).
            if let AnfKind::Let { body, .. } = &o.kind {
                if self.od[body.label.index() as usize] == ndig {
                    self.al.deletions += 1;
                    self.al.maps_shifted = true;
                    return self.term(body, n);
                }
            }
        }
        match (&o.kind, &n.kind) {
            (AnfKind::Value(vo), AnfKind::Value(vn)) => {
                self.map_label(o.label, n.label);
                self.val(vo, vn, ValCtx::Flow);
            }
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
                self.map_label(o.label, n.label);
                self.map_var(xo, xn);
                self.bind(bo, bn, o.label);
                self.term(mo, mn);
            }
            // Term-shape mismatch: the whole old subtree stays unmapped;
            // its contributions route through its own (unmapped) term
            // label, so emptiness checks at seed build cover it.
            _ => self.al.regions += 1,
        }
    }
}

/// Aligns two ANF programs. Deterministic, `O(n)` in the program sizes.
pub fn align_anf(old: &AnfProgram, new: &AnfProgram) -> Alignment {
    let mut a = AnfAligner {
        old,
        new,
        od: anf_digests(old),
        nd: anf_digests(new),
        al: Alignment::new(
            old.num_vars(),
            old.label_count() as usize,
            new.num_vars(),
            new.label_count() as usize,
        ),
    };
    // Free variables pair by name: they have no binder to pair them.
    for &v in old.free_vars() {
        if let Some(nv) = new.var_id(old.ident(v)) {
            let oi = v.index();
            let ni = nv.index() as u32;
            if oi as u32 != ni {
                a.al.maps_shifted = true;
            }
            a.al.var_map[oi] = Some(ni);
        }
    }
    a.term(old.root(), new.root());
    a.al
}

struct CpsAligner<'a> {
    old: &'a CpsProgram,
    new: &'a CpsProgram,
    od: Vec<u128>,
    nd: Vec<u128>,
    al: Alignment,
}

impl<'a> CpsAligner<'a> {
    fn map_label(&mut self, o: Label, n: Label) {
        if o.index() != n.index() {
            self.al.maps_shifted = true;
        }
        self.al.label_map[o.index() as usize] = Some(n.index());
    }

    fn map_ids(&mut self, oi: usize, ni: u32) {
        match self.al.var_map[oi] {
            None => {
                if oi as u32 != ni {
                    self.al.maps_shifted = true;
                }
                self.al.var_map[oi] = Some(ni);
            }
            Some(m) if m == ni => {}
            Some(_) => {
                self.al.regions += 1;
                self.al.checks.push(Boundary::Never);
            }
        }
    }

    fn map_user_var(&mut self, o: &Ident, n: &Ident) {
        match (self.old.user_var_id(o), self.new.user_var_id(n)) {
            (Some(ov), Some(nv)) => self.map_ids(ov.index(), nv.index() as u32),
            _ => {
                self.al.regions += 1;
                self.al.checks.push(Boundary::Never);
            }
        }
    }

    fn map_kont_var(&mut self, o: &KIdent, n: &KIdent) {
        match (self.old.kont_var_id(o), self.new.kont_var_id(n)) {
            (Some(ov), Some(nv)) => self.map_ids(ov.index(), nv.index() as u32),
            _ => {
                self.al.regions += 1;
                self.al.checks.push(Boundary::Never);
            }
        }
    }

    fn val_region(&mut self, vo: &CVal, ctx: ValCtx) {
        self.al.regions += 1;
        match ctx {
            ValCtx::Flow => match &vo.kind {
                CValKind::Num(_) => {}
                CValKind::Var(x) => match self.old.user_var_id(x) {
                    Some(v) => self.al.checks.push(Boundary::VarEmpty(v.index() as u32)),
                    None => self.al.checks.push(Boundary::Never),
                },
                _ => self.al.checks.push(Boundary::Never),
            },
            ValCtx::CallSite(l) => self.al.checks.push(Boundary::SiteEmpty(l)),
            ValCtx::RetSite(l) => self.al.checks.push(Boundary::RetEmpty(l)),
            ValCtx::Ignored => {}
        }
    }

    fn val(&mut self, vo: &CVal, vn: &CVal, ctx: ValCtx) {
        match (&vo.kind, &vn.kind) {
            (CValKind::Num(a), CValKind::Num(b)) => {
                self.map_label(vo.label, vn.label);
                if a != b {
                    self.al.consts_changed = true;
                }
            }
            (CValKind::Var(xo), CValKind::Var(xn)) => {
                match (self.old.user_var_id(xo), self.new.user_var_id(xn)) {
                    (Some(ov), Some(nv))
                        if self.al.var_map[ov.index()] == Some(nv.index() as u32) =>
                    {
                        self.map_label(vo.label, vn.label);
                    }
                    _ => self.val_region(vo, ctx),
                }
            }
            (CValKind::Add1K, CValKind::Add1K) | (CValKind::Sub1K, CValKind::Sub1K) => {
                self.map_label(vo.label, vn.label);
            }
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
            ) => {
                self.map_label(vo.label, vn.label);
                self.map_user_var(po, pn);
                self.map_kont_var(ko, kn);
                self.term(bo, bn);
            }
            _ => self.val_region(vo, ctx),
        }
    }

    fn cont_lam(&mut self, o: &ContLam, n: &ContLam) {
        self.map_label(o.label, n.label);
        self.map_user_var(&o.var, &n.var);
        self.term(&o.body, &n.body);
    }

    fn term(&mut self, o: &CTerm, n: &CTerm) {
        let (odig, ndig) = (
            self.od[o.label.index() as usize],
            self.nd[n.label.index() as usize],
        );
        if odig != ndig {
            if let CTermKind::Let { body, .. } = &n.kind {
                if self.nd[body.label.index() as usize] == odig {
                    self.al.insertions += 1;
                    self.al.maps_shifted = true;
                    return self.term(o, body);
                }
            }
            if let CTermKind::Let { body, .. } = &o.kind {
                if self.od[body.label.index() as usize] == ndig {
                    self.al.deletions += 1;
                    self.al.maps_shifted = true;
                    return self.term(body, n);
                }
            }
        }
        match (&o.kind, &n.kind) {
            (CTermKind::Ret(ko, wo), CTermKind::Ret(kn, wn)) => {
                self.map_label(o.label, n.label);
                self.map_kont_var(ko, kn);
                self.val(wo, wn, ValCtx::RetSite(o.label.index()));
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
            ) => {
                self.map_label(o.label, n.label);
                self.map_user_var(xo, xn);
                self.val(vo, vn, ValCtx::Flow);
                self.term(mo, mn);
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
                self.map_label(o.label, n.label);
                self.val(fo, fnn, ValCtx::CallSite(o.label.index()));
                self.val(ao, an, ValCtx::CallSite(o.label.index()));
                self.cont_lam(co, cn);
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
            ) => {
                self.map_label(o.label, n.label);
                self.map_kont_var(ko, kn);
                self.cont_lam(co, cn);
                self.val(to, tn, ValCtx::Ignored);
                self.term(tho, thn);
                self.term(eo, en);
            }
            (CTermKind::Loop { cont: co }, CTermKind::Loop { cont: cn }) => {
                self.map_label(o.label, n.label);
                self.cont_lam(co, cn);
            }
            _ => {
                self.al.regions += 1;
                match &o.kind {
                    // A removed return had poured its value into every
                    // continuation it invoked; a removed call likewise.
                    CTermKind::Ret(..) => self.al.checks.push(Boundary::RetEmpty(o.label.index())),
                    CTermKind::Call { .. } => {
                        self.al.checks.push(Boundary::SiteEmpty(o.label.index()))
                    }
                    // Let/LetK/Loop contributions land in their own (now
                    // unmapped) variables.
                    _ => {}
                }
            }
        }
    }
}

/// Aligns two CPS programs. Name-insensitive, so the transform's
/// re-numbered continuation variables still pair up positionally.
pub fn align_cps(old: &CpsProgram, new: &CpsProgram) -> Alignment {
    let mut a = CpsAligner {
        old,
        new,
        od: cps_digests(old),
        nd: cps_digests(new),
        al: Alignment::new(
            old.num_vars(),
            old.label_count() as usize,
            new.num_vars(),
            new.label_count() as usize,
        ),
    };
    // Pre-seed the variables with no binder: the top continuation and the
    // free user variables (paired by name).
    if let (Some(ok), Some(nk)) = (old.kont_var_id(old.top_k()), new.kont_var_id(new.top_k())) {
        a.map_ids(ok.index(), nk.index() as u32);
    }
    for &v in old.free_vars() {
        if let VarKey::User(x) = old.key(v) {
            if let Some(nv) = new.user_var_id(x) {
                a.map_ids(v.index(), nv.index() as u32);
            }
        }
    }
    a.term(old.root(), new.root());
    a.al
}

// ---------------------------------------------------------------------------
// Seed transport
// ---------------------------------------------------------------------------

fn xlate_clo(c: AbsClo, lm: &[Option<u32>]) -> Result<AbsClo, ColdReason> {
    match c {
        AbsClo::Lam(l) => lm[l.index() as usize]
            .map(|n| AbsClo::Lam(Label::new(n)))
            .ok_or(ColdReason::UnmappedFlow),
        other => Ok(other),
    }
}

fn xlate_kont(k: AbsKont, lm: &[Option<u32>]) -> Result<AbsKont, ColdReason> {
    match k {
        AbsKont::Co(l) => lm[l.index() as usize]
            .map(|n| AbsKont::Co(Label::new(n)))
            .ok_or(ColdReason::UnmappedFlow),
        AbsKont::Stop => Ok(AbsKont::Stop),
    }
}

fn xlate_flow(f: CpsFlow, lm: &[Option<u32>]) -> Result<CpsFlow, ColdReason> {
    match f {
        CpsFlow::Clo(c) => xlate_clo(c, lm).map(CpsFlow::Clo),
        CpsFlow::Kont(k) => xlate_kont(k, lm).map(CpsFlow::Kont),
    }
}

/// Translates a whole set through `xlate` in one pass. Collecting into a
/// `Vec` first lets `BTreeSet::from_iter` sort-and-bulk-load instead of
/// paying a tree insert per element — on the large fixpoints this is the
/// dominant cost of seed transport, and order-preserving label maps (the
/// common insert/delete edit) keep the run pre-sorted so the sort is
/// linear.
fn xlate_set<T: Ord + Copy>(
    set: &BTreeSet<T>,
    lm: &[Option<u32>],
    xlate: impl Fn(T, &[Option<u32>]) -> Result<T, ColdReason>,
) -> Result<BTreeSet<T>, ColdReason> {
    let mut out = Vec::with_capacity(set.len());
    for v in set.iter() {
        out.push(xlate(*v, lm)?);
    }
    Ok(out.into_iter().collect())
}

/// Discharges the alignment's boundary obligations against a previous
/// source-level fixpoint.
fn check_src_boundaries(prev: &CfaResult, al: &Alignment) -> Result<(), ColdReason> {
    for c in &al.checks {
        let ok = match c {
            Boundary::VarEmpty(v) => prev.vars[*v as usize].is_empty(),
            Boundary::SiteEmpty(l) => prev.calls.get(Label::new(*l)).is_none_or(|s| s.is_empty()),
            Boundary::RetEmpty(_) | Boundary::Never => false,
        };
        if !ok {
            return Err(ColdReason::NonMonotone);
        }
    }
    Ok(())
}

/// Builds a source-level warm seed by transporting `prev` through the
/// alignment. Fails (→ cold) when any unmapped old entity had flow, any
/// boundary obligation does not hold, or a flow value's λ label did not
/// survive.
pub(crate) fn build_src_seed(
    prev: &CfaResult,
    al: &Alignment,
    new_vars: usize,
) -> Result<SrcSeed, ColdReason> {
    check_src_boundaries(prev, al)?;
    if !al.injective() {
        return Err(ColdReason::StructureMismatch);
    }
    for (i, set) in prev.vars.iter().enumerate() {
        if al.var_map[i].is_none() && !set.is_empty() {
            return Err(ColdReason::NonMonotone);
        }
    }
    for (l, set) in prev.terms.iter() {
        if !set.is_empty() && al.label_map[l.index() as usize].is_none() {
            return Err(ColdReason::NonMonotone);
        }
    }
    for (l, set) in prev.calls.iter() {
        if !set.is_empty() && al.label_map[l.index() as usize].is_none() {
            return Err(ColdReason::NonMonotone);
        }
    }

    let mut vars = vec![BTreeSet::new(); new_vars];
    for (i, set) in prev.vars.iter().enumerate() {
        if let Some(ni) = al.var_map[i] {
            // Injectivity (checked above) means each new var receives
            // exactly one old set, so direct assignment is a plain move.
            vars[ni as usize] = xlate_set(set, &al.label_map, xlate_clo)?;
        }
    }
    let mut terms = Vec::new();
    for (l, set) in prev.terms.iter() {
        if set.is_empty() {
            continue;
        }
        if let Some(nl) = al.label_map[l.index() as usize] {
            terms.push((Label::new(nl), xlate_set(set, &al.label_map, xlate_clo)?));
        }
    }
    let mut calls = Vec::new();
    for (l, set) in prev.calls.iter() {
        if set.is_empty() {
            continue;
        }
        if let Some(nl) = al.label_map[l.index() as usize] {
            calls.push((Label::new(nl), xlate_set(set, &al.label_map, xlate_clo)?));
        }
    }
    Ok(SrcSeed { vars, terms, calls })
}

fn check_cps_boundaries(prev: &CpsCfaResult, al: &Alignment) -> Result<(), ColdReason> {
    for c in &al.checks {
        let ok = match c {
            Boundary::VarEmpty(v) => prev.vars[*v as usize].is_empty(),
            Boundary::SiteEmpty(l) => prev.calls.get(Label::new(*l)).is_none_or(|s| s.is_empty()),
            Boundary::RetEmpty(l) => prev
                .returns
                .get(Label::new(*l))
                .is_none_or(|s| s.is_empty()),
            Boundary::Never => false,
        };
        if !ok {
            return Err(ColdReason::NonMonotone);
        }
    }
    Ok(())
}

/// The CPS mirror of [`build_src_seed`].
pub(crate) fn build_cps_seed(
    prev: &CpsCfaResult,
    al: &Alignment,
    new_vars: usize,
) -> Result<CpsSeed, ColdReason> {
    check_cps_boundaries(prev, al)?;
    if !al.injective() {
        return Err(ColdReason::StructureMismatch);
    }
    for (i, set) in prev.vars.iter().enumerate() {
        if al.var_map[i].is_none() && !set.is_empty() {
            return Err(ColdReason::NonMonotone);
        }
    }
    for (l, set) in prev.returns.iter() {
        if !set.is_empty() && al.label_map[l.index() as usize].is_none() {
            return Err(ColdReason::NonMonotone);
        }
    }
    for (l, set) in prev.calls.iter() {
        if !set.is_empty() && al.label_map[l.index() as usize].is_none() {
            return Err(ColdReason::NonMonotone);
        }
    }

    let mut vars = vec![BTreeSet::new(); new_vars];
    for (i, set) in prev.vars.iter().enumerate() {
        if let Some(ni) = al.var_map[i] {
            // Injectivity (checked above): one old set per new var.
            vars[ni as usize] = xlate_set(set, &al.label_map, xlate_flow)?;
        }
    }
    let mut returns = Vec::new();
    for (l, set) in prev.returns.iter() {
        if set.is_empty() {
            continue;
        }
        if let Some(nl) = al.label_map[l.index() as usize] {
            returns.push((Label::new(nl), xlate_set(set, &al.label_map, xlate_kont)?));
        }
    }
    let mut calls = Vec::new();
    for (l, set) in prev.calls.iter() {
        if set.is_empty() {
            continue;
        }
        if let Some(nl) = al.label_map[l.index() as usize] {
            calls.push((Label::new(nl), xlate_set(set, &al.label_map, xlate_clo)?));
        }
    }
    Ok(CpsSeed {
        vars,
        returns,
        calls,
    })
}

// ---------------------------------------------------------------------------
// Stateless incremental drivers
// ---------------------------------------------------------------------------

fn map_budget_err<T>(e: AnalysisError) -> Result<WarmSolve<T>, AnalysisError> {
    match e {
        AnalysisError::BudgetExhausted { .. } => Ok(WarmSolve::Cold(ColdReason::BudgetExhausted)),
        other => Err(other),
    }
}

/// Source-level 0CFA across an edit: `prev` must be the fixpoint of `old`.
/// Returns a warm answer bit-identical to `zero_cfa(new)`, or a
/// [`ColdReason`] instructing the caller to solve cold. The guard bounds
/// the warm attempt only — budget exhaustion is reported as
/// [`ColdReason::BudgetExhausted`], never as an error.
pub fn zero_cfa_incremental(
    old: &AnfProgram,
    prev: &CfaResult,
    new: &AnfProgram,
    guard: &RunGuard,
    sink: &mut impl TraceSink,
) -> Result<WarmSolve<CfaResult>, AnalysisError> {
    let al = align_anf(old, new);
    if al.identity() {
        let result = CfaResult {
            vars: prev.vars.clone(),
            terms: prev.terms.clone(),
            calls: prev.calls.clone(),
            iterations: 1,
        };
        return Ok(WarmSolve::Warm(result, WarmReport::noop()));
    }
    let seed = match build_src_seed(prev, &al, new.num_vars()) {
        Ok(s) => s,
        Err(r) => return Ok(WarmSolve::Cold(r)),
    };
    match zero_cfa_seeded(new, Some(&seed), guard, sink) {
        Ok(Some((result, stats))) => Ok(WarmSolve::Warm(result, WarmReport::seeded(stats.fired))),
        Ok(None) => Ok(WarmSolve::Cold(ColdReason::StructureMismatch)),
        Err(e) => map_budget_err(e),
    }
}

/// CPS-level 0CFA across an edit (the CPS mirror of
/// [`zero_cfa_incremental`]).
pub fn zero_cfa_cps_incremental(
    old: &CpsProgram,
    prev: &CpsCfaResult,
    new: &CpsProgram,
    guard: &RunGuard,
    sink: &mut impl TraceSink,
) -> Result<WarmSolve<CpsCfaResult>, AnalysisError> {
    let al = align_cps(old, new);
    if al.identity() {
        let result = CpsCfaResult {
            vars: prev.vars.clone(),
            returns: prev.returns.clone(),
            calls: prev.calls.clone(),
            iterations: 1,
        };
        return Ok(WarmSolve::Warm(result, WarmReport::noop()));
    }
    let seed = match build_cps_seed(prev, &al, new.num_vars()) {
        Ok(s) => s,
        Err(r) => return Ok(WarmSolve::Cold(r)),
    };
    match zero_cfa_cps_seeded(new, Some(&seed), guard, sink) {
        Ok(Some((result, stats))) => Ok(WarmSolve::Warm(result, WarmReport::seeded(stats.fired))),
        Ok(None) => Ok(WarmSolve::Cold(ColdReason::StructureMismatch)),
        Err(e) => map_budget_err(e),
    }
}

/// Pushdown 0CFA across an edit. The transported seed carries only the
/// **user-variable** sets — the call/return/summary machinery is re-derived
/// by the solve, so eligibility is stricter: every old entity must survive
/// and nothing may be rewritten (pure insertions are fine; they only grow
/// the fixpoint).
pub fn pushdown_cfa_incremental(
    old: &CpsProgram,
    prev: &PushdownCfaResult,
    new: &CpsProgram,
    guard: &RunGuard,
    sink: &mut impl TraceSink,
) -> Result<WarmSolve<PushdownCfaResult>, AnalysisError> {
    let al = align_cps(old, new);
    if al.identity() {
        let mut result = prev.clone();
        result.iterations = 1;
        return Ok(WarmSolve::Warm(result, WarmReport::noop()));
    }
    if !(al.total() && al.regions == 0 && al.injective()) {
        return Ok(WarmSolve::Cold(ColdReason::StructureMismatch));
    }
    let mut is_user = vec![false; new.num_vars()];
    for (v, key) in new.iter_vars() {
        is_user[v.index()] = matches!(key, VarKey::User(_));
    }
    let mut seed = vec![BTreeSet::new(); new.num_vars()];
    for (i, set) in prev.vars.iter().enumerate() {
        let Some(ni) = al.var_map[i] else {
            return Ok(WarmSolve::Cold(ColdReason::StructureMismatch));
        };
        if !is_user[ni as usize] {
            continue;
        }
        let dst = &mut seed[ni as usize];
        for f in set.iter() {
            match xlate_flow(*f, &al.label_map) {
                Ok(t) => {
                    dst.insert(t);
                }
                Err(r) => return Ok(WarmSolve::Cold(r)),
            }
        }
    }
    match pushdown_cfa_warm_impl(new, &seed, guard, sink) {
        Ok(Some((result, stats))) => Ok(WarmSolve::Warm(result, WarmReport::seeded(stats.fired))),
        Ok(None) => Ok(WarmSolve::Cold(ColdReason::StructureMismatch)),
        Err(e) => map_budget_err(e),
    }
}

/// MFP across an edit: the [`Flat`] lattice is constant-sensitive (and not
/// monotone in the program's constants), so the only warm rung is a pure
/// transport under an identity alignment with unchanged constants —
/// exactly the α-renaming case. `None` = solve cold.
pub fn solve_mfp_incremental(
    old: &AnfProgram,
    prev: &DfSummary<Flat>,
    new: &AnfProgram,
) -> Option<(DfSummary<Flat>, WarmReport)> {
    let al = align_anf(old, new);
    if al.identity() && !al.consts_changed {
        let report = WarmReport {
            outcome: Outcome::Warm(WarmPath::Transport),
            fired: 0,
        };
        return Some((
            DfSummary {
                vars: prev.vars.clone(),
            },
            report,
        ));
    }
    None
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
