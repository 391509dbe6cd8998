//! A hash-consed, arena-backed representation of Λ terms.
//!
//! [`TermArena`] stores every term and value node exactly once in flat
//! vectors; [`TermId`]/[`ValueId`] are dense `u32` handles. Because the
//! arena *hash-conses* (structurally identical nodes get the same id),
//! equality of whole subtrees is a single integer comparison, shared
//! substructure is stored once, and node handles are `Copy` — the
//! A-normalizer and CPS transform downstream append one node per construct
//! instead of deep-cloning boxed trees.
//!
//! Invariants:
//!
//! * **Canonical ids**: for a given arena, structurally equal terms have
//!   equal [`TermId`]s (and conversely). Interning is memoized bottom-up,
//!   so `intern_term` on an already-present shape is a hash-map hit with no
//!   allocation.
//! * **Append-only**: ids are never invalidated; `Vec` growth only.
//! * **Ids are per-arena**: comparing ids across arenas is meaningless.
//!
//! The parser writes straight into an arena ([`TermArena::parse`]); the
//! boxed [`Term`] tree remains the interchange format (the printer, the
//! interpreters and the generators use it), and [`TermArena::from_term`]
//! and [`TermArena::to_term`] convert losslessly in both directions.

use crate::ast::{Term, Value};
use crate::fxhash::FxHashMap;
use crate::ident::Ident;

/// Dense handle of a term node in a [`TermArena`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TermId(u32);

impl TermId {
    /// The dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Dense handle of a value node in a [`TermArena`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ValueId(u32);

impl ValueId {
    /// The dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An arena term node; children are ids, so the node is a few words.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum TermNode {
    /// A syntactic value.
    Value(ValueId),
    /// An application `(M M)`.
    App(TermId, TermId),
    /// `(let (x M₁) M₂)`.
    Let(Ident, TermId, TermId),
    /// `(if0 M₀ M₁ M₂)`.
    If0(TermId, TermId, TermId),
    /// `(loop)`.
    Loop,
}

/// An arena value node.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum ValueNode {
    /// A numeral.
    Num(i64),
    /// A variable occurrence.
    Var(Ident),
    /// The successor primitive.
    Add1,
    /// The predecessor primitive.
    Sub1,
    /// `(λx.M)`.
    Lam(Ident, TermId),
}

/// A hash-consing arena for Λ terms. See the module docs for invariants.
#[derive(Clone, Default, Debug)]
pub struct TermArena {
    terms: Vec<TermNode>,
    term_memo: FxHashMap<TermNode, u32>,
    values: Vec<ValueNode>,
    value_memo: FxHashMap<ValueNode, u32>,
}

impl TermArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserves room for about `terms` term nodes and `values` value nodes
    /// (vectors and memo tables both), so a parse of known source size
    /// avoids incremental growth and memo rehashes.
    pub fn reserve(&mut self, terms: usize, values: usize) {
        self.terms.reserve(terms);
        self.term_memo.reserve(terms);
        self.values.reserve(values);
        self.value_memo.reserve(values);
    }

    /// Number of distinct term nodes stored.
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// Number of distinct value nodes stored.
    pub fn num_values(&self) -> usize {
        self.values.len()
    }

    /// Total distinct nodes (terms + values).
    pub fn num_nodes(&self) -> usize {
        self.terms.len() + self.values.len()
    }

    /// Approximate heap footprint of the node storage in bytes (the memo
    /// tables are excluded: they are build-time scaffolding, not the
    /// representation).
    pub fn arena_bytes(&self) -> usize {
        self.terms.capacity() * std::mem::size_of::<TermNode>()
            + self.values.capacity() * std::mem::size_of::<ValueNode>()
    }

    /// Interns a term node, returning the canonical id for its shape.
    /// One hash probe whether hit or miss.
    pub fn intern_term(&mut self, node: TermNode) -> TermId {
        let terms = &mut self.terms;
        let id = *self.term_memo.entry(node).or_insert_with_key(|n| {
            let id = u32::try_from(terms.len()).expect("term arena overflow");
            terms.push(n.clone());
            id
        });
        TermId(id)
    }

    /// Interns a value node, returning the canonical id for its shape.
    /// One hash probe whether hit or miss.
    pub fn intern_value(&mut self, node: ValueNode) -> ValueId {
        let values = &mut self.values;
        let id = *self.value_memo.entry(node).or_insert_with_key(|n| {
            let id = u32::try_from(values.len()).expect("value arena overflow");
            values.push(n.clone());
            id
        });
        ValueId(id)
    }

    /// The node behind a term id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this arena.
    pub fn term(&self, id: TermId) -> &TermNode {
        &self.terms[id.index()]
    }

    /// The node behind a value id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this arena.
    pub fn value(&self, id: ValueId) -> &ValueNode {
        &self.values[id.index()]
    }

    /// Interns a boxed [`Term`] tree bottom-up. Structurally identical
    /// subtrees of `t` collapse to the same id.
    pub fn from_term(&mut self, t: &Term) -> TermId {
        match t {
            Term::Value(v) => {
                let vid = self.from_value(v);
                self.intern_term(TermNode::Value(vid))
            }
            Term::App(f, a) => {
                let f = self.from_term(f);
                let a = self.from_term(a);
                self.intern_term(TermNode::App(f, a))
            }
            Term::Let(x, rhs, body) => {
                let rhs = self.from_term(rhs);
                let body = self.from_term(body);
                self.intern_term(TermNode::Let(x.clone(), rhs, body))
            }
            Term::If0(c, t1, t2) => {
                let c = self.from_term(c);
                let t1 = self.from_term(t1);
                let t2 = self.from_term(t2);
                self.intern_term(TermNode::If0(c, t1, t2))
            }
            Term::Loop => self.intern_term(TermNode::Loop),
        }
    }

    /// Interns a boxed [`Value`].
    pub fn from_value(&mut self, v: &Value) -> ValueId {
        match v {
            Value::Num(n) => self.intern_value(ValueNode::Num(*n)),
            Value::Var(x) => self.intern_value(ValueNode::Var(x.clone())),
            Value::Add1 => self.intern_value(ValueNode::Add1),
            Value::Sub1 => self.intern_value(ValueNode::Sub1),
            Value::Lam(x, body) => {
                let body = self.from_term(body);
                self.intern_value(ValueNode::Lam(x.clone(), body))
            }
        }
    }

    /// Parses source text directly into the arena: a single pass that
    /// interns nodes as constructs complete, with no intermediate tree,
    /// per-node `Box` or per-atom `String`. This is the workspace's one
    /// parser; [`parse_term`](crate::parse::parse_term) is this followed by
    /// [`to_term`](Self::to_term).
    ///
    /// # Errors
    ///
    /// Returns the parser's error for malformed input or a term deeper than
    /// [`MAX_DEPTH`](crate::parse::MAX_DEPTH).
    pub fn parse(&mut self, src: &str) -> Result<TermId, crate::parse::ParseError> {
        crate::parse::parse_into(self, src)
    }

    /// Rebuilds the boxed tree for a term id (shared substructure is
    /// re-expanded).
    pub fn to_term(&self, id: TermId) -> Term {
        match self.term(id) {
            TermNode::Value(v) => Term::Value(self.to_value(*v)),
            TermNode::App(f, a) => {
                Term::App(Box::new(self.to_term(*f)), Box::new(self.to_term(*a)))
            }
            TermNode::Let(x, rhs, body) => Term::Let(
                x.clone(),
                Box::new(self.to_term(*rhs)),
                Box::new(self.to_term(*body)),
            ),
            TermNode::If0(c, t, e) => Term::If0(
                Box::new(self.to_term(*c)),
                Box::new(self.to_term(*t)),
                Box::new(self.to_term(*e)),
            ),
            TermNode::Loop => Term::Loop,
        }
    }

    /// Rebuilds the boxed value for a value id.
    pub fn to_value(&self, id: ValueId) -> Value {
        match self.value(id) {
            ValueNode::Num(n) => Value::Num(*n),
            ValueNode::Var(x) => Value::Var(x.clone()),
            ValueNode::Add1 => Value::Add1,
            ValueNode::Sub1 => Value::Sub1,
            ValueNode::Lam(x, body) => Value::Lam(x.clone(), Box::new(self.to_term(*body))),
        }
    }

    /// The number of AST nodes in the *tree* rooted at `id` (counting shared
    /// substructure once per occurrence, like [`Term::size`]).
    pub fn size(&self, id: TermId) -> usize {
        match self.term(id) {
            TermNode::Value(v) => self.value_size(*v),
            TermNode::App(f, a) => 1 + self.size(*f) + self.size(*a),
            TermNode::Let(_, rhs, body) => 1 + self.size(*rhs) + self.size(*body),
            TermNode::If0(c, t, e) => 1 + self.size(*c) + self.size(*t) + self.size(*e),
            TermNode::Loop => 1,
        }
    }

    fn value_size(&self, id: ValueId) -> usize {
        match self.value(id) {
            ValueNode::Lam(_, body) => 1 + self.size(*body),
            _ => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::*;

    /// Hand-built terms with the source text each one is written as.
    fn samples() -> Vec<(&'static str, Term)> {
        vec![
            (
                "(let (x 1) (add1 x))",
                let_("x", num(1), app(add1(), var("x"))),
            ),
            (
                "(lambda (f) (f (f 0)))",
                lam("f", app(var("f"), app(var("f"), num(0)))),
            ),
            (
                "(if0 (sub1 n) 1 ((fact (sub1 n)) n))",
                if0(
                    app(sub1(), var("n")),
                    num(1),
                    app(app(var("fact"), app(sub1(), var("n"))), var("n")),
                ),
            ),
            ("(lambda (x) (x x))", lam("x", app(var("x"), var("x")))),
            ("(loop)", loop_()),
            ("-3", num(-3)),
        ]
    }

    #[test]
    fn equal_terms_intern_to_equal_ids() {
        let mut a = TermArena::new();
        for (src, t) in samples() {
            let parsed = a.parse(src).unwrap();
            assert_eq!(a.from_term(&t), parsed, "{src}");
        }
    }

    #[test]
    fn distinct_terms_intern_to_distinct_ids() {
        let mut a = TermArena::new();
        let id1 = a.from_term(&num(1));
        let id2 = a.from_term(&num(2));
        assert_ne!(id1, id2);
    }

    #[test]
    fn shared_substructure_is_stored_once() {
        // ((f x) (f x)): the operand tree equals the operator tree.
        let mut a = TermArena::new();
        let sub = app(var("f"), var("x"));
        let t = app(sub.clone(), sub);
        let before_then = a.num_nodes();
        let _ = a.from_term(&t);
        // f, x, (f x), and the outer app: the duplicate (f x) adds nothing.
        let nodes = a.num_nodes() - before_then;
        assert_eq!(nodes, 6); // values f, x; terms: f, x (as value terms), (f x), outer
    }

    #[test]
    fn roundtrips_through_boxed_form() {
        let mut a = TermArena::new();
        for (src, t) in samples() {
            let id = a.from_term(&t);
            assert_eq!(a.to_term(id), t, "roundtrip failed for {src}");
        }
    }

    #[test]
    fn parse_into_arena_builds_the_written_term() {
        let mut a = TermArena::new();
        for (src, t) in samples() {
            let id = a.parse(src).unwrap();
            assert_eq!(a.to_term(id), t, "{src}");
        }
        assert!(a.parse("(bad%").is_err());
    }

    #[test]
    fn size_matches_boxed_size() {
        let mut a = TermArena::new();
        for (src, t) in samples() {
            let id = a.from_term(&t);
            assert_eq!(a.size(id), t.size(), "size mismatch for {src}");
        }
    }

    #[test]
    fn arena_bytes_is_nonzero_after_interning() {
        let mut a = TermArena::new();
        assert_eq!(a.arena_bytes(), 0);
        a.from_term(&num(1));
        assert!(a.arena_bytes() > 0);
    }
}
