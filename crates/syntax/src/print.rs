//! Pretty printer for Λ, producing the paper's concrete syntax.
//!
//! The printer emits exactly the grammar accepted by [`crate::parse`], so
//! `parse(print(t)) == t` (the property tests in `tests/roundtrip.rs` check
//! this).

use crate::ast::{Term, Value};
use std::fmt;

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Value(v) => write!(f, "{v}"),
            Term::App(fun, arg) => write!(f, "({fun} {arg})"),
            Term::Let(x, rhs, body) => write!(f, "(let ({x} {rhs}) {body})"),
            Term::If0(c, t, e) => write!(f, "(if0 {c} {t} {e})"),
            Term::Loop => f.write_str("(loop)"),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Num(n) => write!(f, "{n}"),
            Value::Var(x) => write!(f, "{x}"),
            Value::Add1 => f.write_str("add1"),
            Value::Sub1 => f.write_str("sub1"),
            Value::Lam(x, body) => write!(f, "(lambda ({x}) {body})"),
        }
    }
}

/// Renders a term with indentation, two spaces per level, for human-facing
/// reports. `let` chains stay flat (one binding per line) because A-normal
/// forms are long `let` chains.
///
/// ```
/// use cpsdfa_syntax::{parse::parse_term, print::pretty};
/// let t = parse_term("(let (x 1) (let (y 2) x))").unwrap();
/// assert_eq!(pretty(&t), "(let (x 1)\n(let (y 2)\n  x))");
/// ```
pub fn pretty(term: &Term) -> String {
    let mut out = String::new();
    pretty_into(term, 0, &mut out);
    out
}

fn indent(level: usize, out: &mut String) {
    for _ in 0..level {
        out.push_str("  ");
    }
}

fn pretty_into(term: &Term, level: usize, out: &mut String) {
    match term {
        Term::Value(Value::Lam(x, body)) => {
            out.push_str(&format!("(lambda ({x})\n"));
            indent(level + 1, out);
            pretty_into(body, level + 1, out);
            out.push(')');
        }
        Term::Value(v) => out.push_str(&v.to_string()),
        Term::App(f, a) => {
            out.push('(');
            pretty_into(f, level, out);
            out.push(' ');
            pretty_into(a, level, out);
            out.push(')');
        }
        Term::Let(x, rhs, body) => {
            out.push_str(&format!("(let ({x} "));
            pretty_into(rhs, level + 1, out);
            out.push_str(")\n");
            // Keep let chains at the same indentation so ANF reads as a
            // sequence of bindings rather than a staircase.
            let body_level = if matches!(**body, Term::Let(..)) {
                level
            } else {
                level + 1
            };
            indent(body_level, out);
            pretty_into(body, body_level, out);
            out.push(')');
        }
        Term::If0(c, t, e) => {
            out.push_str("(if0 ");
            pretty_into(c, level, out);
            out.push('\n');
            indent(level + 1, out);
            pretty_into(t, level + 1, out);
            out.push('\n');
            indent(level + 1, out);
            pretty_into(e, level + 1, out);
            out.push(')');
        }
        Term::Loop => out.push_str("(loop)"),
    }
}

#[cfg(test)]
mod tests {
    use crate::build::*;
    use crate::print::pretty;

    #[test]
    fn display_matches_paper_syntax() {
        let t = let_("x", num(1), app(add1(), var("x")));
        assert_eq!(t.to_string(), "(let (x 1) (add1 x))");
    }

    #[test]
    fn lambda_prints_with_keyword() {
        assert_eq!(lam("x", var("x")).to_string(), "(lambda (x) x)");
    }

    #[test]
    fn if0_and_loop_print() {
        assert_eq!(
            if0(var("x"), num(0), loop_()).to_string(),
            "(if0 x 0 (loop))"
        );
    }

    #[test]
    fn negative_numbers_print_parseably() {
        assert_eq!(num(-42).to_string(), "-42");
    }

    #[test]
    fn pretty_flattens_let_chains() {
        let t = let_("a", num(1), let_("b", num(2), var("b")));
        let p = pretty(&t);
        assert_eq!(p.lines().count(), 3);
        assert!(p.starts_with("(let (a 1)\n(let (b 2)\n"));
    }

    #[test]
    fn pretty_indents_if0_arms() {
        let t = if0(var("x"), num(1), num(2));
        assert_eq!(pretty(&t), "(if0 x\n  1\n  2)");
    }
}
