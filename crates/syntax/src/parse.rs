//! The parser for Λ: one pass from source text straight into a
//! [`TermArena`].
//!
//! Accepted grammar (a superset of the paper's concrete syntax, with the
//! conveniences used in the paper's own examples):
//!
//! ```text
//! M ::= n | x | add1 | sub1
//!     | (lambda (x) M)            ; also (λ (x) M)
//!     | (let (x M) M)
//!     | (if0 M M M)
//!     | (loop)
//!     | (+ M n)                   ; paper's abbreviation: n × add1/sub1
//!     | (M M M ...)               ; curried application, left associative
//! ```
//!
//! Identifiers may not contain `%` (reserved for machine-generated fresh
//! names) and may not be keywords.

use crate::arena::{TermArena, TermId, TermNode, ValueNode};
use crate::ast::Term;
use crate::fxhash::FxHashMap;
use crate::ident::Ident;
use std::error::Error;
use std::fmt;

/// The deepest term the parser accepts: the height of the term
/// tree, one level per application, `let`, `if0` and λ, and one per
/// `add1`/`sub1` step a `(+ M n)` abbreviation expands to. Most walkers
/// downstream of the parser (`to_term`, digests, the analyzers) recurse on
/// this height, so a deeper program is refused here, as a structured
/// error, instead of overflowing a thread's stack later.
pub const MAX_DEPTH: u32 = 4096;

/// What kind of input a [`ParseError`] rejects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// The text is not a term of the grammar.
    Syntax,
    /// The term is well formed but nests deeper than [`MAX_DEPTH`].
    TooDeep,
}

/// A parse error with a byte position into the source text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the input where the error was detected.
    pub position: usize,
    /// Human-readable description of the problem.
    pub message: String,
    /// Malformed text or a too-deep term.
    pub kind: ParseErrorKind,
}

impl ParseError {
    fn new(position: usize, message: impl Into<String>) -> Self {
        ParseError {
            position,
            message: message.into(),
            kind: ParseErrorKind::Syntax,
        }
    }

    fn too_deep(position: usize) -> Self {
        ParseError {
            position,
            message: format!("term nests deeper than {MAX_DEPTH} levels"),
            kind: ParseErrorKind::TooDeep,
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.position, self.message)
    }
}

impl Error for ParseError {}

/// Parses a single Λ term into a boxed [`Term`]: [`TermArena::parse`]
/// into a scratch arena, then [`TermArena::to_term`]. Trailing whitespace
/// and `;` line comments are allowed, any other trailing input is an
/// error.
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input, reserved identifiers,
/// trailing tokens, or a term deeper than [`MAX_DEPTH`].
///
/// ```
/// use cpsdfa_syntax::parse::parse_term;
/// let t = parse_term("(let (x 1) x) ; comment")?;
/// assert_eq!(t.to_string(), "(let (x 1) x)");
/// # Ok::<(), cpsdfa_syntax::parse::ParseError>(())
/// ```
pub fn parse_term(input: &str) -> Result<Term, ParseError> {
    let mut arena = TermArena::new();
    let root = arena.parse(input)?;
    Ok(arena.to_term(root))
}

const KEYWORDS: &[&str] = &["lambda", "λ", "let", "if0", "loop", "add1", "sub1", "+"];

/// Checks whether `name` is usable as a source-program variable.
pub fn is_valid_ident(name: &str) -> bool {
    let not_number_like = !name.starts_with(|c: char| c.is_ascii_digit())
        && name != "-"
        && !(name.starts_with('-') && name[1..].starts_with(|c: char| c.is_ascii_digit()));
    !name.is_empty()
        && !KEYWORDS.contains(&name)
        && !name.contains('%')
        && not_number_like
        && name.chars().all(is_ident_char)
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || "-_!?*/<>=+.".contains(c)
}

/// Parses `src` straight into `arena`, interning nodes as constructs
/// complete — no intermediate tree, no boxed [`Term`], no per-atom
/// `String`. It refuses a term deeper than [`MAX_DEPTH`] with a
/// [`ParseErrorKind::TooDeep`] error, before its recursion gets that deep.
///
/// This is the parser behind [`TermArena::parse`] and so behind every
/// front end in the workspace; [`parse_term`] wraps it.
pub(crate) fn parse_into(arena: &mut TermArena, src: &str) -> Result<TermId, ParseError> {
    // S-expression sources run a handful of bytes per node; seeding the
    // arena and the atom cache avoids mid-parse rehashes without
    // over-reserving (Vec doubling would overshoot further than this).
    let nodes_guess = src.len() / 4;
    arena.reserve(nodes_guess, nodes_guess / 2);
    let mut cache = FxHashMap::default();
    cache.reserve(nodes_guess / 2);
    let mut p = ArenaParser {
        src,
        pos: 0,
        arena,
        atom_cache: cache,
    };
    let (id, _) = p.term(0)?;
    p.skip_trivia();
    if !p.at_end() {
        return Err(ParseError::new(p.pos, "unexpected trailing input"));
    }
    Ok(id)
}

/// What a byte means to the tokenizer; a 256-entry table beats per-byte
/// char classification in the scanning loops.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ByteClass {
    /// ASCII whitespace (what `char::is_whitespace` accepts below 0x80).
    Space,
    /// `(`, `)`, or `;` — always ends an atom.
    Delim,
    /// Any other ASCII byte: part of an atom.
    Other,
    /// Lead byte of a multi-byte char: needs a char decode.
    NonAscii,
}

const BYTE_CLASS: [ByteClass; 256] = {
    let mut t = [ByteClass::Other; 256];
    let mut i = 0x80;
    while i < 256 {
        t[i] = ByteClass::NonAscii;
        i += 1;
    }
    t[b' ' as usize] = ByteClass::Space;
    t[b'\t' as usize] = ByteClass::Space;
    t[b'\n' as usize] = ByteClass::Space;
    t[b'\r' as usize] = ByteClass::Space;
    t[0x0b] = ByteClass::Space; // vertical tab
    t[0x0c] = ByteClass::Space; // form feed
    t[b'(' as usize] = ByteClass::Delim;
    t[b')' as usize] = ByteClass::Delim;
    t[b';' as usize] = ByteClass::Delim;
    t
};

struct ArenaParser<'s, 'a> {
    src: &'s str,
    pos: usize,
    arena: &'a mut TermArena,
    /// Atom text → interned term, so a repeated identifier or numeral costs
    /// one local hash lookup instead of a global interner round-trip plus
    /// two arena memo probes. Keys borrow from `src`.
    atom_cache: FxHashMap<&'s str, TermId>,
}

/// A parsed term and the height of its tree (an atom is 1).
type Parsed = (TermId, u32);

impl<'s> ArenaParser<'s, '_> {
    fn at_end(&self) -> bool {
        self.pos >= self.src.len()
    }

    /// The next byte; scanning is byte-oriented with an ASCII fast path
    /// (the grammar's delimiters are all ASCII), falling back to char
    /// decoding only for non-ASCII input like the `λ` keyword.
    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_trivia(&mut self) {
        let bytes = self.src.as_bytes();
        loop {
            match bytes.get(self.pos) {
                Some(&c) if BYTE_CLASS[c as usize] == ByteClass::Space => self.pos += 1,
                Some(b';') => {
                    self.pos += 1;
                    while let Some(&c) = bytes.get(self.pos) {
                        self.pos += 1;
                        if c == b'\n' {
                            break;
                        }
                    }
                }
                Some(&c) if c >= 0x80 => {
                    let ch = self.src[self.pos..].chars().next().expect("valid UTF-8");
                    if ch.is_whitespace() {
                        self.pos += ch.len_utf8();
                    } else {
                        break;
                    }
                }
                _ => break,
            }
        }
    }

    /// Reads one atom token as a borrowed slice (never allocates).
    fn atom(&mut self) -> &'s str {
        let bytes = self.src.as_bytes();
        let start = self.pos;
        while let Some(&c) = bytes.get(self.pos) {
            match BYTE_CLASS[c as usize] {
                ByteClass::Other => self.pos += 1,
                ByteClass::Space | ByteClass::Delim => break,
                ByteClass::NonAscii => {
                    let ch = self.src[self.pos..].chars().next().expect("valid UTF-8");
                    if ch.is_whitespace() {
                        break;
                    }
                    self.pos += ch.len_utf8();
                }
            }
        }
        &self.src[start..self.pos]
    }

    /// Parses one term; `depth` lists are open around it.
    fn term(&mut self, depth: u32) -> Result<Parsed, ParseError> {
        self.skip_trivia();
        let start = self.pos;
        match self.peek() {
            None => Err(ParseError::new(start, "unexpected end of input")),
            Some(b'(') => {
                self.pos += 1;
                self.list_term(start, depth + 1)
            }
            Some(b')') => Err(ParseError::new(start, "unexpected `)`")),
            Some(_) => {
                let a = self.atom();
                Ok((self.atom_term(start, a)?, 1))
            }
        }
    }

    /// Interns `node`, whose tree has height `height`, refusing it past
    /// [`MAX_DEPTH`]; `start` is where its form began.
    fn node(&mut self, node: TermNode, height: u32, start: usize) -> Result<Parsed, ParseError> {
        if height > MAX_DEPTH {
            return Err(ParseError::too_deep(start));
        }
        Ok((self.arena.intern_term(node), height))
    }

    fn atom_term(&mut self, pos: usize, a: &'s str) -> Result<TermId, ParseError> {
        use std::collections::hash_map::Entry;
        // Entry keeps the hash computed by the lookup alive for the insert,
        // so a cache miss hashes the atom text once rather than twice.
        let arena = &mut *self.arena;
        let vacant = match self.atom_cache.entry(a) {
            Entry::Occupied(e) => return Ok(*e.get()),
            Entry::Vacant(e) => e,
        };
        let node = if let Ok(n) = a.parse::<i64>() {
            ValueNode::Num(n)
        } else {
            match a {
                "add1" => ValueNode::Add1,
                "sub1" => ValueNode::Sub1,
                _ if is_valid_ident(a) => ValueNode::Var(Ident::new(a)),
                _ => return Err(ParseError::new(pos, format!("invalid identifier `{a}`"))),
            }
        };
        let v = arena.intern_value(node);
        let id = arena.intern_term(TermNode::Value(v));
        vacant.insert(id);
        Ok(id)
    }

    /// Parses a list body; the opening `(` at `start` is already consumed
    /// and `depth` lists (this one included) are open. A list form is at
    /// least one level taller than any list inside it, so the open-list
    /// count bounds the recursion before the height is known.
    fn list_term(&mut self, start: usize, depth: u32) -> Result<Parsed, ParseError> {
        if depth > MAX_DEPTH {
            return Err(ParseError::too_deep(start));
        }
        self.skip_trivia();
        let head_pos = self.pos;
        let operator = match self.peek() {
            None => return Err(ParseError::new(self.pos, "unclosed parenthesis")),
            Some(b')') => {
                self.pos += 1;
                return Err(ParseError::new(
                    start,
                    "application expects an operator and at least one operand",
                ));
            }
            Some(b'(') => {
                self.pos += 1;
                self.list_term(head_pos, depth + 1)?
            }
            Some(_) => {
                let a = self.atom();
                match a {
                    "lambda" | "λ" => return self.lambda_tail(start, depth),
                    "let" => return self.let_tail(start, depth),
                    "if0" => return self.if0_tail(start, depth),
                    "loop" => return self.loop_tail(start),
                    "+" => return self.plus_tail(start, depth),
                    _ => (self.atom_term(head_pos, a)?, 1),
                }
            }
        };
        self.apply_tail(start, depth, operator)
    }

    /// Folds operands onto `f` left-associatively until the closing `)`.
    fn apply_tail(
        &mut self,
        start: usize,
        depth: u32,
        (mut f, mut height): Parsed,
    ) -> Result<Parsed, ParseError> {
        let mut args = 0usize;
        loop {
            self.skip_trivia();
            match self.peek() {
                None => return Err(ParseError::new(self.pos, "unclosed parenthesis")),
                Some(b')') => {
                    self.pos += 1;
                    if args == 0 {
                        return Err(ParseError::new(
                            start,
                            "application expects an operator and at least one operand",
                        ));
                    }
                    return Ok((f, height));
                }
                Some(_) => {
                    let (a, a_height) = self.term(depth)?;
                    (f, height) =
                        self.node(TermNode::App(f, a), height.max(a_height) + 1, start)?;
                    args += 1;
                }
            }
        }
    }

    /// Consumes a closing `)`; `err` describes the form whose arity is
    /// violated when something else is found.
    fn expect_close(&mut self, err: &str) -> Result<(), ParseError> {
        self.skip_trivia();
        match self.peek() {
            None => Err(ParseError::new(self.pos, "unclosed parenthesis")),
            Some(b')') => {
                self.pos += 1;
                Ok(())
            }
            Some(_) => Err(ParseError::new(self.pos, err)),
        }
    }

    fn binder(&mut self, err: &str) -> Result<Ident, ParseError> {
        self.skip_trivia();
        let pos = self.pos;
        match self.peek() {
            Some(c) if c != b'(' && c != b')' => {
                let a = self.atom();
                if is_valid_ident(a) {
                    Ok(Ident::new(a))
                } else {
                    Err(ParseError::new(pos, "expected a variable name"))
                }
            }
            _ => Err(ParseError::new(pos, err)),
        }
    }

    fn lambda_tail(&mut self, start: usize, depth: u32) -> Result<Parsed, ParseError> {
        self.skip_trivia();
        if self.peek() != Some(b'(') {
            return Err(ParseError::new(
                self.pos,
                "lambda expects a single-parameter list (x)",
            ));
        }
        self.pos += 1;
        let param = self.binder("lambda expects a single-parameter list (x)")?;
        self.expect_close("lambda expects a single-parameter list (x)")?;
        let (body, height) = self.term(depth)?;
        self.expect_close("lambda expects (lambda (x) M)")?;
        let v = self.arena.intern_value(ValueNode::Lam(param, body));
        self.node(TermNode::Value(v), height + 1, start)
    }

    fn let_tail(&mut self, start: usize, depth: u32) -> Result<Parsed, ParseError> {
        self.skip_trivia();
        if self.peek() != Some(b'(') {
            return Err(ParseError::new(self.pos, "let expects a binding (x M)"));
        }
        self.pos += 1;
        let x = self.binder("let expects a binding (x M)")?;
        let (rhs, rhs_height) = self.term(depth)?;
        self.expect_close("let expects a binding (x M)")?;
        let (body, body_height) = self.term(depth)?;
        self.expect_close("let expects (let (x M) M)")?;
        let height = rhs_height.max(body_height) + 1;
        self.node(TermNode::Let(x, rhs, body), height, start)
    }

    fn if0_tail(&mut self, start: usize, depth: u32) -> Result<Parsed, ParseError> {
        let (c, c_height) = self.term(depth)?;
        let (t, t_height) = self.term(depth)?;
        let (e, e_height) = self.term(depth)?;
        self.expect_close("if0 expects (if0 M M M)")?;
        let height = c_height.max(t_height).max(e_height) + 1;
        self.node(TermNode::If0(c, t, e), height, start)
    }

    fn loop_tail(&mut self, start: usize) -> Result<Parsed, ParseError> {
        self.expect_close("loop expects no arguments: (loop)")?;
        self.node(TermNode::Loop, 1, start)
    }

    fn plus_tail(&mut self, start: usize, depth: u32) -> Result<Parsed, ParseError> {
        let (m, m_height) = self.term(depth)?;
        self.skip_trivia();
        let pos = self.pos;
        let n = match self.peek() {
            Some(c) if c != b'(' && c != b')' => self
                .atom()
                .parse::<i64>()
                .map_err(|_| ParseError::new(pos, "+ expects a literal integer offset"))?,
            _ => return Err(ParseError::new(pos, "+ expects a literal integer offset")),
        };
        self.expect_close("+ expects (+ M n) with literal n")?;
        // Checked before expanding, so a huge `n` costs nothing.
        let height = u64::from(m_height) + n.unsigned_abs();
        if height > u64::from(MAX_DEPTH) {
            return Err(ParseError::too_deep(start));
        }
        // Paper abbreviation (+ M n): n applications of add1/sub1.
        let prim = if n >= 0 {
            ValueNode::Add1
        } else {
            ValueNode::Sub1
        };
        let pv = self.arena.intern_value(prim);
        let pt = self.arena.intern_term(TermNode::Value(pv));
        let mut acc = m;
        for _ in 0..n.unsigned_abs() {
            acc = self.arena.intern_term(TermNode::App(pt, acc));
        }
        Ok((acc, height as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::*;

    fn ok(s: &str) -> Term {
        parse_term(s).unwrap_or_else(|e| panic!("{s}: {e}"))
    }

    #[test]
    fn parses_atoms() {
        assert_eq!(ok("42"), num(42));
        assert_eq!(ok("-7"), num(-7));
        assert_eq!(ok("x"), var("x"));
        assert_eq!(ok("add1"), add1());
        assert_eq!(ok("sub1"), sub1());
    }

    #[test]
    fn parses_compound_forms() {
        assert_eq!(ok("(f x)"), app(var("f"), var("x")));
        assert_eq!(ok("(lambda (x) x)"), lam("x", var("x")));
        assert_eq!(ok("(λ (x) x)"), lam("x", var("x")));
        assert_eq!(ok("(let (x 1) x)"), let_("x", num(1), var("x")));
        assert_eq!(ok("(if0 x 1 2)"), if0(var("x"), num(1), num(2)));
        assert_eq!(ok("(loop)"), loop_());
    }

    #[test]
    fn curried_application_associates_left() {
        assert_eq!(ok("(f x y)"), app(app(var("f"), var("x")), var("y")));
    }

    #[test]
    fn plus_abbreviation_expands() {
        assert_eq!(
            ok("(+ a 3)"),
            app(add1(), app(add1(), app(add1(), var("a"))))
        );
        assert_eq!(ok("(+ a -2)"), app(sub1(), app(sub1(), var("a"))));
    }

    #[test]
    fn comments_and_whitespace_ignored() {
        assert_eq!(
            ok("  ( let ; binding\n (x 1) x )  "),
            let_("x", num(1), var("x"))
        );
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "(",
            ")",
            "(let x 1)",
            "(lambda x x)",
            "(lambda (x y) x)",
            "(if0 1 2)",
            "(loop 1)",
            "(f)",
            "(let (x 1) x) trailing",
            "(+ a b)",
            "bad%name",
            "(let (let 1) 2)",
        ] {
            assert!(parse_term(bad).is_err(), "expected error for {bad:?}");
        }
    }

    #[test]
    fn keywords_are_not_variables() {
        assert!(parse_term("(let (lambda 1) 2)").is_err());
        assert!(parse_term("(lambda (if0) 1)").is_err());
    }

    #[test]
    fn error_positions_point_into_source() {
        let err = parse_term("(let (x 1) ").unwrap_err();
        assert_eq!(err.position, 11);
        let err = parse_term("abc)").unwrap_err();
        assert!(err.message.contains("trailing"));
    }

    /// `(add1 (add1 … 1))`, `n` lists deep: a tree of height `n + 1`.
    fn add1_tower(n: usize) -> String {
        format!("{}1{}", "(add1 ".repeat(n), ")".repeat(n))
    }

    #[test]
    fn arena_parse_refuses_terms_deeper_than_the_bound() {
        // Unoptimized frames need more than the default test-thread stack
        // to recurse `MAX_DEPTH` levels.
        std::thread::Builder::new()
            .stack_size(64 << 20)
            .spawn(refuse_deep_terms)
            .unwrap()
            .join()
            .unwrap();
    }

    fn refuse_deep_terms() {
        let mut arena = TermArena::new();
        let deepest = MAX_DEPTH as usize - 1;
        assert!(arena.parse(&add1_tower(deepest)).is_ok());
        for bomb in [
            add1_tower(deepest + 1),
            add1_tower(20_000),
            // Depth without nesting: a wide curried application, and the
            // `+` abbreviation, nested or with a huge offset.
            format!("(f{})", " 1".repeat(MAX_DEPTH as usize + 1)),
            "(+ (+ 1 3000) 3000)".to_owned(),
            "(+ 1 9223372036854775807)".to_owned(),
        ] {
            let err = arena.parse(&bomb).unwrap_err();
            assert_eq!(err.kind, ParseErrorKind::TooDeep, "{err}");
        }
        assert_eq!(
            arena.parse("(let x 1)").unwrap_err().kind,
            ParseErrorKind::Syntax
        );
    }

    #[test]
    fn display_roundtrip_on_samples() {
        for s in [
            "(let (x 1) (add1 x))",
            "(lambda (f) (f (f 0)))",
            "(if0 (sub1 n) 1 ((fact (sub1 n)) n))",
            "(loop)",
            "-3",
        ] {
            let t = ok(s);
            assert_eq!(ok(&t.to_string()), t, "roundtrip failed for {s}");
        }
    }
}
