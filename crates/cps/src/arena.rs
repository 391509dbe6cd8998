//! A flat, arena-backed representation of CPS programs, and the arena CPS
//! transform that produces it.
//!
//! [`CpsArena`] stores every CPS term, value, and continuation-λ node in
//! flat vectors indexed by [`CTermId`]/[`CValId`]/[`ContId`]. Like the ANF
//! arena (and unlike the hash-consed Λ [`TermArena`]), nodes are *not*
//! deduplicated: every node carries a [`Label`] unique to its occurrence.
//!
//! [`cps_transform_arena`] mirrors the boxed
//! [`cps_transform`](crate::transform::cps_transform) exactly — the same
//! interleaving of label draws and fresh continuation names (continuation
//! labels before their bodies, value labels before λ bodies, term labels
//! after their children) — so the materialized output, the [`LabelMap`],
//! and the label count are all bit-identical to the boxed transform's.
//! Differential corpus tests pin this down.
//!
//! [`TermArena`]: cpsdfa_syntax::arena::TermArena

use crate::ast::{CTerm, CTermKind, CVal, CValKind, ContLam};
use crate::transform::LabelMap;
use cpsdfa_anf::arena::{AValId, AValNodeKind, AnfArena, AnfId, AnfNodeKind, BindNode};
use cpsdfa_syntax::label::LabelGen;
use cpsdfa_syntax::{FreshGen, Ident, KIdent, Label};

/// Dense handle of a CPS term node in a [`CpsArena`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CTermId(u32);

impl CTermId {
    /// The dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Dense handle of a CPS value node in a [`CpsArena`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CValId(u32);

impl CValId {
    /// The dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Dense handle of a continuation-λ node in a [`CpsArena`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ContId(u32);

impl ContId {
    /// The dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An arena CPS term node.
#[derive(Clone, Debug)]
pub struct CTermNode {
    /// The program-point label.
    pub label: Label,
    /// The structure of the term.
    pub kind: CTermNodeKind,
}

/// The shape of an arena CPS term.
#[derive(Clone, Debug)]
pub enum CTermNodeKind {
    /// `(k V)` — return `V` to continuation `k`.
    Ret(KIdent, CValId),
    /// `(let (x V) P)`.
    Let {
        /// The bound variable.
        var: Ident,
        /// The bound value.
        val: CValId,
        /// The body.
        body: CTermId,
    },
    /// `(V V (λx.P))` — call with reified continuation.
    Call {
        /// The operator.
        f: CValId,
        /// The operand.
        arg: CValId,
        /// The continuation receiving the result.
        cont: ContId,
    },
    /// `(let (k (λx.P)) (if0 V P₁ P₂))` — named join continuation.
    LetK {
        /// The continuation variable.
        k: KIdent,
        /// The join continuation.
        cont: ContId,
        /// The tested value.
        test: CValId,
        /// Taken when the test is zero.
        then_: CTermId,
        /// Taken otherwise.
        else_: CTermId,
    },
    /// `(loop (λx.P))` — the §6.2 extension.
    Loop {
        /// The continuation receiving each of `{0, 1, 2, …}`.
        cont: ContId,
    },
}

/// An arena continuation-λ node `(λx.P)`.
#[derive(Clone, Debug)]
pub struct ContNode {
    /// The label (identity of the abstract continuation `(coe x, P)`).
    pub label: Label,
    /// The variable receiving the returned value.
    pub var: Ident,
    /// The body.
    pub body: CTermId,
}

/// An arena CPS value node.
#[derive(Clone, Debug)]
pub struct CValNode {
    /// The label (for λ this identifies the abstract closure).
    pub label: Label,
    /// The structure of the value.
    pub kind: CValNodeKind,
}

/// The shape of an arena CPS value.
#[derive(Clone, Debug)]
pub enum CValNodeKind {
    /// A numeral.
    Num(i64),
    /// A variable occurrence.
    Var(Ident),
    /// CPS successor.
    Add1K,
    /// CPS predecessor.
    Sub1K,
    /// `(λx k.P)`.
    Lam {
        /// The ordinary parameter.
        param: Ident,
        /// The continuation parameter.
        k: KIdent,
        /// The body.
        body: CTermId,
    },
}

/// A flat per-program arena of CPS nodes. Append-only; ids never move.
#[derive(Clone, Default, Debug)]
pub struct CpsArena {
    terms: Vec<CTermNode>,
    values: Vec<CValNode>,
    conts: Vec<ContNode>,
}

impl CpsArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a labeled term node.
    pub fn push_term(&mut self, label: Label, kind: CTermNodeKind) -> CTermId {
        let id = u32::try_from(self.terms.len()).expect("CPS arena overflow");
        self.terms.push(CTermNode { label, kind });
        CTermId(id)
    }

    /// Appends a labeled value node.
    pub fn push_value(&mut self, label: Label, kind: CValNodeKind) -> CValId {
        let id = u32::try_from(self.values.len()).expect("CPS arena overflow");
        self.values.push(CValNode { label, kind });
        CValId(id)
    }

    /// Appends a labeled continuation node.
    pub fn push_cont(&mut self, label: Label, var: Ident, body: CTermId) -> ContId {
        let id = u32::try_from(self.conts.len()).expect("CPS arena overflow");
        self.conts.push(ContNode { label, var, body });
        ContId(id)
    }

    /// The node behind a term id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this arena.
    pub fn term(&self, id: CTermId) -> &CTermNode {
        &self.terms[id.index()]
    }

    /// The node behind a value id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this arena.
    pub fn value(&self, id: CValId) -> &CValNode {
        &self.values[id.index()]
    }

    /// The node behind a continuation id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this arena.
    pub fn cont(&self, id: ContId) -> &ContNode {
        &self.conts[id.index()]
    }

    /// Total nodes stored (terms + values + continuations).
    pub fn num_nodes(&self) -> usize {
        self.terms.len() + self.values.len() + self.conts.len()
    }

    /// Approximate heap footprint of the node storage in bytes.
    pub fn arena_bytes(&self) -> usize {
        self.terms.capacity() * std::mem::size_of::<CTermNode>()
            + self.values.capacity() * std::mem::size_of::<CValNode>()
            + self.conts.capacity() * std::mem::size_of::<ContNode>()
    }

    /// Materializes the boxed tree for `id`, labels included.
    pub fn to_cterm(&self, id: CTermId) -> CTerm {
        let node = self.term(id);
        let kind = match &node.kind {
            CTermNodeKind::Ret(k, w) => CTermKind::Ret(k.clone(), self.to_cval(*w)),
            CTermNodeKind::Let { var, val, body } => CTermKind::Let {
                var: var.clone(),
                val: self.to_cval(*val),
                body: Box::new(self.to_cterm(*body)),
            },
            CTermNodeKind::Call { f, arg, cont } => CTermKind::Call {
                f: self.to_cval(*f),
                arg: self.to_cval(*arg),
                cont: self.to_contlam(*cont),
            },
            CTermNodeKind::LetK {
                k,
                cont,
                test,
                then_,
                else_,
            } => CTermKind::LetK {
                k: k.clone(),
                cont: self.to_contlam(*cont),
                test: self.to_cval(*test),
                then_: Box::new(self.to_cterm(*then_)),
                else_: Box::new(self.to_cterm(*else_)),
            },
            CTermNodeKind::Loop { cont } => CTermKind::Loop {
                cont: self.to_contlam(*cont),
            },
        };
        CTerm {
            label: node.label,
            kind,
        }
    }

    fn to_cval(&self, id: CValId) -> CVal {
        let node = self.value(id);
        let kind = match &node.kind {
            CValNodeKind::Num(n) => CValKind::Num(*n),
            CValNodeKind::Var(x) => CValKind::Var(x.clone()),
            CValNodeKind::Add1K => CValKind::Add1K,
            CValNodeKind::Sub1K => CValKind::Sub1K,
            CValNodeKind::Lam { param, k, body } => CValKind::Lam {
                param: param.clone(),
                k: k.clone(),
                body: Box::new(self.to_cterm(*body)),
            },
        };
        CVal {
            label: node.label,
            kind,
        }
    }

    fn to_contlam(&self, id: ContId) -> ContLam {
        let node = self.cont(id);
        ContLam {
            label: node.label,
            var: node.var.clone(),
            body: Box::new(self.to_cterm(node.body)),
        }
    }
}

/// The output of the arena CPS transformation.
#[derive(Debug, Clone)]
pub struct TransformedArena {
    /// The arena holding the CPS program.
    pub arena: CpsArena,
    /// The root term id.
    pub root: CTermId,
    /// The initial continuation variable `k₀`.
    pub top_k: KIdent,
    /// Source ↔ CPS program-point correspondence.
    pub labels: LabelMap,
    /// Number of CPS labels assigned (`0..count`).
    pub label_count: u32,
}

/// Transforms an arena ANF term into an arena CPS program. Mirror of the
/// boxed [`cps_transform`](crate::transform::cps_transform): identical
/// label draws, fresh-name draws, and [`LabelMap`] entries, so
/// materializing the result is byte-identical to the boxed transform.
pub fn cps_transform_arena(anf: &AnfArena, root: AnfId, fresh: &mut FreshGen) -> TransformedArena {
    let mut out = CpsArena::new();
    // The transform emits roughly one CPS term per ANF term, one value per
    // ANF value, and a continuation per frame-creating let; seeding the
    // vectors skips the early doublings without over-reserving.
    out.terms.reserve(anf.num_terms());
    out.values.reserve(anf.num_values());
    out.conts.reserve(anf.num_terms() / 2);
    let mut map = LabelMap::default();
    map.reserve(anf.num_terms() / 2);
    let mut tx = TxA {
        anf,
        labels: LabelGen::new(),
        map,
        fresh: fresh.clone(),
        out,
    };
    let top_k = tx.fresh.fresh_k("k");
    let root = tx.term(root, &top_k);
    *fresh = tx.fresh;
    TransformedArena {
        arena: tx.out,
        root,
        top_k,
        labels: tx.map,
        label_count: tx.labels.count(),
    }
}

struct TxA<'a> {
    anf: &'a AnfArena,
    labels: LabelGen,
    map: LabelMap,
    fresh: FreshGen,
    out: CpsArena,
}

impl TxA<'_> {
    fn term(&mut self, m: AnfId, k: &KIdent) -> CTermId {
        let node = self.anf.term(m).clone();
        match node.kind {
            AnfNodeKind::Value(v) => {
                let w = self.value(v);
                self.mk(CTermNodeKind::Ret(k.clone(), w))
            }
            AnfNodeKind::Let { var, bind, body } => match bind {
                BindNode::Value(v) => {
                    let w = self.value(v);
                    let body = self.term(body, k);
                    self.mk(CTermNodeKind::Let { var, val: w, body })
                }
                BindNode::App(f, a) => {
                    let wf = self.value(f);
                    let wa = self.value(a);
                    let cont = self.cont(node.label, &var, body, k);
                    self.mk(CTermNodeKind::Call {
                        f: wf,
                        arg: wa,
                        cont,
                    })
                }
                BindNode::If0(c, then_, else_) => {
                    let wc = self.value(c);
                    let kp = self.fresh.fresh_k("k");
                    let cont = self.cont(node.label, &var, body, k);
                    let then_ = self.term(then_, &kp);
                    let else_ = self.term(else_, &kp);
                    self.mk(CTermNodeKind::LetK {
                        k: kp,
                        cont,
                        test: wc,
                        then_,
                        else_,
                    })
                }
                BindNode::Loop => {
                    let cont = self.cont(node.label, &var, body, k);
                    self.mk(CTermNodeKind::Loop { cont })
                }
            },
        }
    }

    /// Builds the continuation λ reifying the frame `(let (x []) M)` whose
    /// source `let` has label `src_let`.
    fn cont(&mut self, src_let: Label, var: &Ident, body: AnfId, k: &KIdent) -> ContId {
        let label = self.labels.next();
        self.map.record_cont(src_let, label);
        let body = self.term(body, k);
        self.out.push_cont(label, var.clone(), body)
    }

    fn value(&mut self, v: AValId) -> CValId {
        let node = self.anf.value(v).clone();
        let label = self.labels.next();
        let kind = match node.kind {
            AValNodeKind::Num(n) => CValNodeKind::Num(n),
            AValNodeKind::Var(x) => CValNodeKind::Var(x),
            AValNodeKind::Add1 => CValNodeKind::Add1K,
            AValNodeKind::Sub1 => CValNodeKind::Sub1K,
            AValNodeKind::Lam(x, body) => {
                self.map.record_lam(node.label, label);
                let k = self.fresh.fresh_k("k");
                let body = self.term(body, &k);
                CValNodeKind::Lam { param: x, k, body }
            }
        };
        self.out.push_value(label, kind)
    }

    fn mk(&mut self, kind: CTermNodeKind) -> CTermId {
        let label = self.labels.next();
        self.out.push_term(label, kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::cps_transform;
    use cpsdfa_anf::AnfProgram;

    /// Both transforms, same ANF program; printed forms, label maps, and
    /// label counts must agree.
    fn check(src: &str) {
        let p = AnfProgram::parse(src).unwrap();

        let mut boxed_fresh = p.fresh_gen();
        let boxed = cps_transform(p.root(), &mut boxed_fresh);

        let mut arena_fresh = p.fresh_gen();
        let t = cps_transform_arena(p.arena(), p.root_id(), &mut arena_fresh);

        let materialized = t.arena.to_cterm(t.root);
        assert_eq!(
            materialized.to_string(),
            boxed.root.to_string(),
            "transforms disagree on {src}"
        );
        assert_eq!(t.top_k, boxed.top_k, "top_k disagrees on {src}");
        assert_eq!(t.label_count, boxed.label_count);
        assert_eq!(
            arena_fresh.generated(),
            boxed_fresh.generated(),
            "fresh draw counts disagree on {src}"
        );
        assert_eq!(t.labels.lam, boxed.labels.lam);
        assert_eq!(t.labels.cont_of_let, boxed.labels.cont_of_let);

        // Labels are semantic identities; pin the full assignment.
        fn all_labels(t: &CTerm) -> Vec<Label> {
            let mut terms = Vec::new();
            t.visit_terms(&mut |n| terms.push(n.label));
            let (mut vals, mut conts) = (Vec::new(), Vec::new());
            t.visit_parts(&mut |v| vals.push(v.label), &mut |c| conts.push(c.label));
            terms.extend(vals);
            terms.extend(conts);
            terms
        }
        assert_eq!(
            all_labels(&materialized),
            all_labels(&boxed.root),
            "label assignment disagrees on {src}"
        );
    }

    #[test]
    fn arena_transform_matches_boxed_on_samples() {
        for src in [
            "42",
            "x",
            "(lambda (x) x)",
            "(let (x 1) x)",
            "(let (a (f 1)) a)",
            "(let (a1 (f 1)) (let (a2 (f 2)) a1))",
            "(let (a (if0 z 0 1)) a)",
            "(let (x (loop)) x)",
            "(let (f (lambda (x) (add1 x))) (let (a (f 1)) (let (b (if0 a 0 1)) b)))",
            "(f (g (h 1)))",
            "(if0 (f 1) (g 2) (h 3))",
        ] {
            check(src);
        }
    }

    #[test]
    fn arena_bytes_grows_with_nodes() {
        let mut arena = CpsArena::new();
        assert_eq!(arena.arena_bytes(), 0);
        arena.push_value(Label::UNASSIGNED, CValNodeKind::Num(1));
        assert!(arena.arena_bytes() > 0);
    }
}
