//! A flat, arena-backed representation of ANF programs, and the arena
//! A-normalizer that produces it.
//!
//! [`AnfArena`] stores every ANF term/value node in flat vectors indexed by
//! [`AnfId`]/[`AValId`]. Unlike the Λ [`TermArena`] this arena is **not**
//! hash-consed: every node carries a [`Label`], and labels are unique per
//! *occurrence*, so structurally identical subterms must remain distinct
//! nodes. What the arena buys instead is allocation shape: the normalizer
//! appends one flat node per construct (`Vec` pushes) rather than building
//! a `Box`-per-node tree, and node handles are `Copy` `u32`s.
//!
//! [`normalize_arena`] is a structural mirror of the boxed
//! [`normalize`](crate::normalize::normalize) pass — same continuation
//! discipline, same A-reductions, same fresh-name draw order — so the
//! materialized output is *byte-identical* to the boxed normalizer's
//! (differential corpus tests in `tests/pipeline.rs` pin this down).
//! Likewise [`AnfArena::assign_labels`] replicates the exact pre-order of
//! the boxed labeling pass, so labels — the semantic identities every
//! analyzer keys on — agree bit-for-bit between the two pipelines.

use crate::ast::{AVal, AValKind, Anf, AnfKind, Bind};
use cpsdfa_syntax::arena::TermNode;
use cpsdfa_syntax::arena::{TermArena, TermId, ValueId, ValueNode};
use cpsdfa_syntax::label::LabelGen;
use cpsdfa_syntax::{FreshGen, Ident, Label};

/// Dense handle of an ANF term node in an [`AnfArena`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct AnfId(u32);

impl AnfId {
    /// The dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Dense handle of an ANF value node in an [`AnfArena`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct AValId(u32);

impl AValId {
    /// The dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An arena ANF term node.
#[derive(Clone, Debug)]
pub struct AnfNode {
    /// The program-point label (assigned by [`AnfArena::assign_labels`]).
    pub label: Label,
    /// The structure of the term.
    pub kind: AnfNodeKind,
}

/// The shape of an arena ANF term.
#[derive(Clone, Debug)]
pub enum AnfNodeKind {
    /// A value in tail position.
    Value(AValId),
    /// `(let (x B) M)`.
    Let {
        /// The bound variable.
        var: Ident,
        /// The right-hand side.
        bind: BindNode,
        /// The body.
        body: AnfId,
    },
}

/// The right-hand side of an arena `let`.
#[derive(Clone, Debug)]
pub enum BindNode {
    /// Bind a value.
    Value(AValId),
    /// Bind an application result.
    App(AValId, AValId),
    /// Bind a conditional result.
    If0(AValId, AnfId, AnfId),
    /// Bind the §6.2 `loop` construct.
    Loop,
}

/// An arena ANF value node.
#[derive(Clone, Debug)]
pub struct AValNode {
    /// The label (for λ this identifies the abstract closure).
    pub label: Label,
    /// The structure of the value.
    pub kind: AValNodeKind,
}

/// The shape of an arena ANF value.
#[derive(Clone, Debug)]
pub enum AValNodeKind {
    /// A numeral.
    Num(i64),
    /// A variable occurrence.
    Var(Ident),
    /// The successor primitive.
    Add1,
    /// The predecessor primitive.
    Sub1,
    /// `(λx.M)` with arena body.
    Lam(Ident, AnfId),
}

/// A flat per-program arena of ANF nodes. Append-only; ids never move.
#[derive(Clone, Default, Debug)]
pub struct AnfArena {
    terms: Vec<AnfNode>,
    values: Vec<AValNode>,
}

impl AnfArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an unlabeled term node.
    pub fn push_term(&mut self, kind: AnfNodeKind) -> AnfId {
        let id = u32::try_from(self.terms.len()).expect("ANF arena overflow");
        self.terms.push(AnfNode {
            label: Label::UNASSIGNED,
            kind,
        });
        AnfId(id)
    }

    /// Appends an unlabeled value node.
    pub fn push_value(&mut self, kind: AValNodeKind) -> AValId {
        let id = u32::try_from(self.values.len()).expect("ANF arena overflow");
        self.values.push(AValNode {
            label: Label::UNASSIGNED,
            kind,
        });
        AValId(id)
    }

    /// The node behind a term id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this arena.
    pub fn term(&self, id: AnfId) -> &AnfNode {
        &self.terms[id.index()]
    }

    /// The node behind a value id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this arena.
    pub fn value(&self, id: AValId) -> &AValNode {
        &self.values[id.index()]
    }

    /// Number of term nodes stored.
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// Number of value nodes stored.
    pub fn num_values(&self) -> usize {
        self.values.len()
    }

    /// Total nodes stored (terms + values).
    pub fn num_nodes(&self) -> usize {
        self.terms.len() + self.values.len()
    }

    /// Approximate heap footprint of the node storage in bytes.
    pub fn arena_bytes(&self) -> usize {
        self.terms.capacity() * std::mem::size_of::<AnfNode>()
            + self.values.capacity() * std::mem::size_of::<AValNode>()
    }

    /// Assigns dense labels to the subtree rooted at `root` in the same
    /// pre-order as the boxed program builder (term, then its values, then
    /// `if0` arms, then the body), returning the number of labels assigned.
    pub fn assign_labels(&mut self, root: AnfId) -> u32 {
        let mut gen = LabelGen::new();
        self.label_term(root, &mut gen);
        gen.count()
    }

    fn label_term(&mut self, id: AnfId, gen: &mut LabelGen) {
        self.terms[id.index()].label = gen.next();
        let kind = self.terms[id.index()].kind.clone();
        match kind {
            AnfNodeKind::Value(v) => self.label_value(v, gen),
            AnfNodeKind::Let { bind, body, .. } => {
                match bind {
                    BindNode::Value(v) => self.label_value(v, gen),
                    BindNode::App(a, b) => {
                        self.label_value(a, gen);
                        self.label_value(b, gen);
                    }
                    BindNode::If0(c, then_, else_) => {
                        self.label_value(c, gen);
                        self.label_term(then_, gen);
                        self.label_term(else_, gen);
                    }
                    BindNode::Loop => {}
                }
                self.label_term(body, gen);
            }
        }
    }

    fn label_value(&mut self, id: AValId, gen: &mut LabelGen) {
        self.values[id.index()].label = gen.next();
        if let AValNodeKind::Lam(_, body) = self.values[id.index()].kind.clone() {
            self.label_term(body, gen);
        }
    }

    /// Materializes the boxed tree for `id`, labels included.
    pub fn to_anf(&self, id: AnfId) -> Anf {
        let node = self.term(id);
        let kind = match &node.kind {
            AnfNodeKind::Value(v) => AnfKind::Value(self.to_aval(*v)),
            AnfNodeKind::Let { var, bind, body } => AnfKind::Let {
                var: var.clone(),
                bind: match bind {
                    BindNode::Value(v) => Bind::Value(self.to_aval(*v)),
                    BindNode::App(a, b) => Bind::App(self.to_aval(*a), self.to_aval(*b)),
                    BindNode::If0(c, t, e) => Bind::If0(
                        self.to_aval(*c),
                        Box::new(self.to_anf(*t)),
                        Box::new(self.to_anf(*e)),
                    ),
                    BindNode::Loop => Bind::Loop,
                },
                body: Box::new(self.to_anf(*body)),
            },
        };
        Anf {
            label: node.label,
            kind,
        }
    }

    fn to_aval(&self, id: AValId) -> AVal {
        let node = self.value(id);
        let kind = match &node.kind {
            AValNodeKind::Num(n) => AValKind::Num(*n),
            AValNodeKind::Var(x) => AValKind::Var(x.clone()),
            AValNodeKind::Add1 => AValKind::Add1,
            AValNodeKind::Sub1 => AValKind::Sub1,
            AValNodeKind::Lam(x, body) => AValKind::Lam(x.clone(), Box::new(self.to_anf(*body))),
        };
        AVal {
            label: node.label,
            kind,
        }
    }

    /// Imports a boxed tree, copying its labels verbatim. Used when a
    /// program is hand-built from boxed nodes rather than normalized.
    pub fn from_anf(&mut self, t: &Anf) -> AnfId {
        let kind = match &t.kind {
            AnfKind::Value(v) => AnfNodeKind::Value(self.import_aval(v)),
            AnfKind::Let { var, bind, body } => AnfNodeKind::Let {
                var: var.clone(),
                bind: match bind {
                    Bind::Value(v) => BindNode::Value(self.import_aval(v)),
                    Bind::App(a, b) => BindNode::App(self.import_aval(a), self.import_aval(b)),
                    Bind::If0(c, t1, t2) => {
                        BindNode::If0(self.import_aval(c), self.from_anf(t1), self.from_anf(t2))
                    }
                    Bind::Loop => BindNode::Loop,
                },
                body: self.from_anf(body),
            },
        };
        let id = self.push_term(kind);
        self.terms[id.index()].label = t.label;
        id
    }

    fn import_aval(&mut self, v: &AVal) -> AValId {
        let kind = match &v.kind {
            AValKind::Num(n) => AValNodeKind::Num(*n),
            AValKind::Var(x) => AValNodeKind::Var(x.clone()),
            AValKind::Add1 => AValNodeKind::Add1,
            AValKind::Sub1 => AValNodeKind::Sub1,
            AValKind::Lam(x, body) => AValNodeKind::Lam(x.clone(), self.from_anf(body)),
        };
        let id = self.push_value(kind);
        self.values[id.index()].label = v.label;
        id
    }

    /// The number of nodes in the tree rooted at `id` (like [`Anf::size`]).
    pub fn size(&self, id: AnfId) -> usize {
        match &self.term(id).kind {
            AnfNodeKind::Value(v) => 1 + self.value_size(*v),
            AnfNodeKind::Let { bind, body, .. } => {
                let bind_size = match bind {
                    BindNode::Value(v) => self.value_size(*v),
                    BindNode::App(a, b) => 1 + self.value_size(*a) + self.value_size(*b),
                    BindNode::If0(c, t, e) => {
                        1 + self.value_size(*c) + self.size(*t) + self.size(*e)
                    }
                    BindNode::Loop => 1,
                };
                1 + bind_size + self.size(*body)
            }
        }
    }

    fn value_size(&self, id: AValId) -> usize {
        match &self.value(id).kind {
            AValNodeKind::Lam(_, body) => 1 + self.size(*body),
            _ => 1,
        }
    }
}

/// A-normalizes an arena Λ term into a fresh [`AnfArena`], drawing fresh
/// names from `gen`. Structural mirror of the boxed
/// [`normalize`](crate::normalize::normalize): identical fresh-name order,
/// identical A-reductions, so the materialized result is identical too.
///
/// Where the boxed normalizer allocates a `Box<dyn FnOnce>` continuation
/// per visited node, this pass is *defunctionalized*: each continuation
/// shape is a `KFrame`/`KbFrame` enum variant appended to a flat frame
/// arena and referenced by `u32` index. Same control flow, same effect
/// order on the output arena and the fresh-name generator — just no
/// per-node closure allocations.
pub fn normalize_arena(ta: &TermArena, root: TermId, gen: &mut FreshGen) -> (AnfArena, AnfId) {
    let mut out = AnfArena::new();
    // Normalization adds a let per serious term, so the output is a bit
    // larger than the input; seeding with the input's node count skips the
    // early doublings without over-reserving.
    out.terms.reserve(ta.num_terms());
    out.values.reserve(ta.num_values());
    let mut nx = Nx {
        ta,
        gen: gen.clone(),
        out,
        ks: Vec::with_capacity(ta.num_terms()),
        kbs: Vec::with_capacity(ta.num_terms()),
    };
    let root = nx.norm_root(root);
    *gen = nx.gen;
    (nx.out, root)
}

struct Nx<'t> {
    ta: &'t TermArena,
    gen: FreshGen,
    out: AnfArena,
    ks: Vec<KFrame>,
    kbs: Vec<KbFrame>,
}

/// A defunctionalized normalization continuation: what to do with the value
/// id naming the result of a sub-term. Mirrors the closures of the boxed
/// normalizer one-for-one.
#[derive(Clone)]
enum KFrame {
    /// Tail position: wrap the value as the final term.
    Root,
    /// Operator of an application is named; normalize the operand next.
    AppFun { arg: TermId, kb: u32 },
    /// Both application halves are named; deliver the `App` bind.
    AppArg { vf: AValId, kb: u32 },
    /// `if0` test is named; normalize both arms, deliver the `If0` bind.
    If0Test {
        then_: TermId,
        else_: TermId,
        kb: u32,
    },
}

/// A defunctionalized binding continuation: what to do with the
/// [`BindNode`] for a right-hand side.
#[derive(Clone)]
enum KbFrame {
    /// A source `let`: emit it around the normalized body.
    LetBind { var: Ident, body: TermId, k: u32 },
    /// An unnamed serious term: name the result with a fresh temporary.
    Name { k: u32 },
    /// The A-reduction `(let (x (let (y N) M)) B) ⇒ (let (y N) (let (x M) B))`.
    LetRotate { var: Ident, body: TermId, kb: u32 },
}

impl Nx<'_> {
    fn push_k(&mut self, f: KFrame) -> u32 {
        let id = u32::try_from(self.ks.len()).expect("normalizer frame overflow");
        self.ks.push(f);
        id
    }

    fn push_kb(&mut self, f: KbFrame) -> u32 {
        let id = u32::try_from(self.kbs.len()).expect("normalizer frame overflow");
        self.kbs.push(f);
        id
    }

    fn norm_root(&mut self, t: TermId) -> AnfId {
        let k = self.push_k(KFrame::Root);
        self.norm_term(t, k)
    }

    fn norm_term(&mut self, t: TermId, k: u32) -> AnfId {
        match self.ta.term(t).clone() {
            TermNode::Value(v) => {
                let av = self.norm_value(v);
                self.apply_k(k, av)
            }
            TermNode::Let(x, rhs, body) => {
                let kb = self.push_kb(KbFrame::LetBind { var: x, body, k });
                self.norm_bind(rhs, kb)
            }
            // Unnamed serious terms: name the result and continue with the
            // name.
            TermNode::App(..) | TermNode::If0(..) | TermNode::Loop => {
                let kb = self.push_kb(KbFrame::Name { k });
                self.norm_bind(t, kb)
            }
        }
    }

    fn norm_bind(&mut self, t: TermId, kb: u32) -> AnfId {
        match self.ta.term(t).clone() {
            TermNode::Value(v) => {
                let av = self.norm_value(v);
                self.apply_kb(kb, BindNode::Value(av))
            }
            TermNode::App(f, a) => {
                let k = self.push_k(KFrame::AppFun { arg: a, kb });
                self.norm_term(f, k)
            }
            TermNode::If0(c, t1, t2) => {
                let k = self.push_k(KFrame::If0Test {
                    then_: t1,
                    else_: t2,
                    kb,
                });
                self.norm_term(c, k)
            }
            TermNode::Let(y, rhs, body) => {
                let kb2 = self.push_kb(KbFrame::LetRotate { var: y, body, kb });
                self.norm_bind(rhs, kb2)
            }
            TermNode::Loop => self.apply_kb(kb, BindNode::Loop),
        }
    }

    fn apply_k(&mut self, k: u32, v: AValId) -> AnfId {
        match self.ks[k as usize].clone() {
            KFrame::Root => self.out.push_term(AnfNodeKind::Value(v)),
            KFrame::AppFun { arg, kb } => {
                let k2 = self.push_k(KFrame::AppArg { vf: v, kb });
                self.norm_term(arg, k2)
            }
            KFrame::AppArg { vf, kb } => self.apply_kb(kb, BindNode::App(vf, v)),
            KFrame::If0Test { then_, else_, kb } => {
                let then_ = self.norm_root(then_);
                let else_ = self.norm_root(else_);
                self.apply_kb(kb, BindNode::If0(v, then_, else_))
            }
        }
    }

    fn apply_kb(&mut self, kb: u32, bind: BindNode) -> AnfId {
        match self.kbs[kb as usize].clone() {
            KbFrame::LetBind { var, body, k } => {
                let body = self.norm_term(body, k);
                self.out.push_term(AnfNodeKind::Let { var, bind, body })
            }
            KbFrame::Name { k } => {
                let tmp = self.gen.fresh("t");
                let var_ref = self.out.push_value(AValNodeKind::Var(tmp.clone()));
                let body = self.apply_k(k, var_ref);
                self.out.push_term(AnfNodeKind::Let {
                    var: tmp,
                    bind,
                    body,
                })
            }
            KbFrame::LetRotate { var, body, kb } => {
                let rest = self.norm_bind(body, kb);
                self.out.push_term(AnfNodeKind::Let {
                    var,
                    bind,
                    body: rest,
                })
            }
        }
    }

    fn norm_value(&mut self, v: ValueId) -> AValId {
        match self.ta.value(v).clone() {
            ValueNode::Num(n) => self.out.push_value(AValNodeKind::Num(n)),
            ValueNode::Var(x) => self.out.push_value(AValNodeKind::Var(x)),
            ValueNode::Add1 => self.out.push_value(AValNodeKind::Add1),
            ValueNode::Sub1 => self.out.push_value(AValNodeKind::Sub1),
            ValueNode::Lam(x, body) => {
                let body = self.norm_root(body);
                self.out.push_value(AValNodeKind::Lam(x, body))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalize::normalize;
    use cpsdfa_syntax::parse::parse_term;

    /// Both normalizers, same input, printed forms must agree.
    fn check(src: &str) {
        let term = parse_term(src).unwrap();

        let mut boxed_gen = FreshGen::new();
        let boxed = normalize(&term, &mut boxed_gen);

        let mut ta = TermArena::new();
        let tid = ta.from_term(&term);
        let mut arena_gen = FreshGen::new();
        let (arena, root) = normalize_arena(&ta, tid, &mut arena_gen);

        assert_eq!(
            arena.to_anf(root).to_string(),
            boxed.to_string(),
            "normalizers disagree on {src}"
        );
        assert_eq!(
            arena_gen.generated(),
            boxed_gen.generated(),
            "fresh draw counts disagree on {src}"
        );
    }

    #[test]
    fn arena_normalizer_matches_boxed_on_samples() {
        for src in [
            "42",
            "x",
            "(lambda (x) x)",
            "(f (let (x 1) (g x)))",
            "(f 1)",
            "(f (g 1))",
            "(let (a (f 1)) a)",
            "(if0 z (f 1) 2)",
            "(let (x (let (y 1) y)) x)",
            "(add1 (let (x 5) 0))",
            "(lambda (x) (f (g x)))",
            "(loop)",
            "(let (x (loop)) x)",
            "((f 1) (g 2))",
        ] {
            check(src);
        }
    }

    #[test]
    fn arena_labels_match_boxed_label_order() {
        let src = "(let (a (f 1)) (let (b (if0 a 2 (g a))) b))";
        let term = parse_term(src).unwrap();

        // Boxed path: normalize then label via the program builder's order.
        let p = crate::AnfProgram::from_term(&term);

        // Arena path: normalize in the arena, label, materialize.
        let mut ta = TermArena::new();
        let tid = ta.from_term(&term);
        let mut gen = FreshGen::new();
        let (mut arena, root) = normalize_arena(&ta, tid, &mut gen);
        let count = arena.assign_labels(root);

        assert_eq!(count, p.label_count());
        let materialized = arena.to_anf(root);
        assert_eq!(materialized.to_string(), p.root().to_string());
        // Labels are semantic identities; pin the full assignment on both
        // term and value nodes.
        let mut labels = Vec::new();
        materialized.visit_terms(&mut |t| labels.push(t.label));
        materialized.visit_values(&mut |v| labels.push(v.label));
        let mut expected = Vec::new();
        p.root().visit_terms(&mut |t| expected.push(t.label));
        p.root().visit_values(&mut |v| expected.push(v.label));
        assert_eq!(labels, expected);
    }

    #[test]
    fn from_anf_roundtrips_with_labels() {
        let p = crate::AnfProgram::parse("(let (a (f 1)) (let (b (if0 a 2 (g a))) b))").unwrap();
        let mut arena = AnfArena::new();
        let id = arena.from_anf(p.root());
        let back = arena.to_anf(id);
        assert_eq!(back.to_string(), p.root().to_string());
        let mut labels = Vec::new();
        back.visit_terms(&mut |t| labels.push(t.label));
        back.visit_values(&mut |v| labels.push(v.label));
        let mut expected = Vec::new();
        p.root().visit_terms(&mut |t| expected.push(t.label));
        p.root().visit_values(&mut |v| expected.push(v.label));
        assert_eq!(labels, expected);
        assert_eq!(arena.size(id), p.root().size());
    }

    #[test]
    fn arena_bytes_grows_with_nodes() {
        let mut arena = AnfArena::new();
        assert_eq!(arena.arena_bytes(), 0);
        arena.push_value(AValNodeKind::Num(1));
        assert!(arena.arena_bytes() > 0);
    }
}
