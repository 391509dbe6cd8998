//! Free-variable computation and closedness checks for Λ terms.

use crate::ast::{Term, Value};
use crate::fxhash::FxHashMap;
use crate::ident::Ident;
use std::collections::BTreeSet;

/// The set of free variables of a term.
///
/// ```
/// use cpsdfa_syntax::{free::free_vars, parse::parse_term, Ident};
/// let t = parse_term("(lambda (x) (f x))").unwrap();
/// let fv = free_vars(&t);
/// assert!(fv.contains(&Ident::new("f")));
/// assert!(!fv.contains(&Ident::new("x")));
/// ```
pub fn free_vars(term: &Term) -> BTreeSet<Ident> {
    let mut out = BTreeSet::new();
    collect_term(term, &mut Binders::default(), &mut out);
    out
}

/// The binders enclosing the walk's position, counted per name, so an
/// occurrence costs one hash probe however deep the `let` chain is.
#[derive(Default)]
struct Binders(FxHashMap<Ident, u32>);

impl Binders {
    fn enter(&mut self, x: &Ident) {
        *self.0.entry(x.clone()).or_insert(0) += 1;
    }

    fn leave(&mut self, x: &Ident) {
        if let Some(n) = self.0.get_mut(x) {
            *n -= 1;
        }
    }

    fn binds(&self, x: &Ident) -> bool {
        self.0.get(x).is_some_and(|&n| n > 0)
    }
}

/// True if the term has no free variables.
pub fn is_closed(term: &Term) -> bool {
    free_vars(term).is_empty()
}

/// True if every binder in the term binds a distinct variable and no bound
/// variable also occurs free — the "all bound variables in a program are
/// unique" hygiene assumption of §2.
pub fn has_unique_binders(term: &Term) -> bool {
    has_unique_binders_given(term, &free_vars(term))
}

/// [`has_unique_binders`] for a term whose free variables, `free`, are
/// already known.
pub fn has_unique_binders_given(term: &Term, free: &BTreeSet<Ident>) -> bool {
    let mut seen = BTreeSet::new();
    unique_binders(term, &mut seen) && seen.is_disjoint(free)
}

fn collect_term(term: &Term, bound: &mut Binders, out: &mut BTreeSet<Ident>) {
    match term {
        Term::Value(v) => collect_value(v, bound, out),
        Term::App(f, a) => {
            collect_term(f, bound, out);
            collect_term(a, bound, out);
        }
        Term::Let(x, rhs, body) => {
            collect_term(rhs, bound, out);
            bound.enter(x);
            collect_term(body, bound, out);
            bound.leave(x);
        }
        Term::If0(c, t, e) => {
            collect_term(c, bound, out);
            collect_term(t, bound, out);
            collect_term(e, bound, out);
        }
        Term::Loop => {}
    }
}

fn collect_value(value: &Value, bound: &mut Binders, out: &mut BTreeSet<Ident>) {
    match value {
        Value::Var(x) => {
            if !bound.binds(x) {
                out.insert(x.clone());
            }
        }
        Value::Lam(x, body) => {
            bound.enter(x);
            collect_term(body, bound, out);
            bound.leave(x);
        }
        Value::Num(_) | Value::Add1 | Value::Sub1 => {}
    }
}

fn unique_binders(term: &Term, seen: &mut BTreeSet<Ident>) -> bool {
    match term {
        Term::Value(Value::Lam(x, body)) => seen.insert(x.clone()) && unique_binders(body, seen),
        Term::Value(_) | Term::Loop => true,
        Term::App(f, a) => unique_binders(f, seen) && unique_binders(a, seen),
        Term::Let(x, rhs, body) => {
            unique_binders(rhs, seen) && seen.insert(x.clone()) && unique_binders(body, seen)
        }
        Term::If0(c, t, e) => {
            unique_binders(c, seen) && unique_binders(t, seen) && unique_binders(e, seen)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::*;

    #[test]
    fn free_vars_of_open_term() {
        let t = app(var("f"), var("x"));
        let fv = free_vars(&t);
        assert_eq!(fv.len(), 2);
    }

    #[test]
    fn let_binds_only_in_body() {
        // (let (x x) x): the rhs x is free, the body x is bound.
        let t = let_("x", var("x"), var("x"));
        let fv = free_vars(&t);
        assert!(fv.contains(&Ident::new("x")));
    }

    #[test]
    fn shadowing_is_respected() {
        // (lambda (x) (let (x 1) x)) is closed.
        let t = lam("x", let_("x", num(1), var("x")));
        assert!(is_closed(&t));
        assert!(!has_unique_binders(&t));
    }

    #[test]
    fn closed_combinators() {
        assert!(is_closed(&identity("x")));
        assert!(is_closed(&num(3)));
        assert!(is_closed(&loop_()));
        assert!(!is_closed(&var("y")));
    }

    #[test]
    fn unique_binders_detects_reuse_and_capture() {
        let distinct = let_("a", num(1), let_("b", num(2), var("a")));
        assert!(has_unique_binders(&distinct));
        let reused = let_("a", num(1), let_("a", num(2), var("a")));
        assert!(!has_unique_binders(&reused));
        // bound name equal to a free name is also rejected
        let capture = let_("a", var("a"), num(0));
        assert!(!has_unique_binders(&capture));
    }
}
