//! Edit scripts over Λ terms for the incremental-analysis experiments.
//!
//! An *edit script* is a deterministic sequence of single-site mutations of
//! a surface term — the kind of churn a watch-mode analyzer sees from an
//! editor: a constant tweaked, a variable renamed, a binding inserted or
//! deleted, branch arms swapped. Each step applies **exactly one** edit to
//! the previous step's term, so a differential harness can re-analyze after
//! every step and compare the warm fixpoint against a from-scratch solve.
//!
//! The kinds are chosen to exercise both rungs of
//! `cpsdfa_core::incremental` and its cold fallback (MFP, which is
//! constant-sensitive, answers `ReplaceConst` cold and `RenameVar` on its
//! Transport rung):
//!
//! | kind | expected rung |
//! |------|---------------|
//! | [`EditKind::ReplaceConst`] | Noop (constants do not steer control flow) |
//! | [`EditKind::RenameVar`] | Noop (the identity walk compares variable indices, not names) |
//! | [`EditKind::ReplaceConstWithVar`] | Cold (a numeral became a variable) |
//! | [`EditKind::InsertLeaf`] | Cold (label and variable spaces shift) |
//! | [`EditKind::InsertLambda`] | Cold (label and variable spaces shift) |
//! | [`EditKind::SwapArms`] | Noop for constant arms; Cold when closures move |
//! | [`EditKind::DeleteBinding`] | Cold (label and variable spaces shift) |
//!
//! Determinism: script generation is a pure function of the base term, the
//! kind sequence, and the seed.

use cpsdfa_syntax::build::{lam, let_, num, var};
use cpsdfa_syntax::{Ident, Term, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// One kind of single-site program mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditKind {
    /// Change one numeric literal to a different numeral.
    ReplaceConst,
    /// Rename one binder (and all its occurrences) to a fresh name.
    RenameVar,
    /// Replace one numeric literal with an occurrence of the free
    /// variable `z` — changes the constraint set without moving any
    /// binder.
    ReplaceConstWithVar,
    /// Insert `(let (eN c) …)` around the whole program — a leaf edit
    /// that shifts every label/variable index but adds no flow.
    InsertLeaf,
    /// Insert `(let (eN (λpN. pN)) …)` around the whole program — a new,
    /// unused procedure.
    InsertLambda,
    /// Swap the two arms of one `if0`.
    SwapArms,
    /// Delete one `let` whose variable is unused in its body (e.g. a
    /// previously inserted binding).
    DeleteBinding,
}

/// All kinds, in a corpus-friendly order: value-level edits first, then
/// structural ones, ending with a deletion.
pub const ALL_EDIT_KINDS: [EditKind; 7] = [
    EditKind::ReplaceConst,
    EditKind::RenameVar,
    EditKind::ReplaceConstWithVar,
    EditKind::InsertLeaf,
    EditKind::InsertLambda,
    EditKind::SwapArms,
    EditKind::DeleteBinding,
];

/// One applied step of a script: the kind and the term *after* the edit.
#[derive(Debug, Clone)]
pub struct EditStep {
    /// The mutation applied.
    pub kind: EditKind,
    /// The program after the mutation.
    pub term: Term,
}

/// A base term plus the edits applied to it, in order.
#[derive(Debug, Clone)]
pub struct EditScript {
    /// The unedited program.
    pub base: Term,
    /// Each applied edit with its resulting program.
    pub steps: Vec<EditStep>,
}

/// Generates a deterministic edit script: each requested kind is applied
/// (in order) to the previous step's term. Kinds with no applicable site
/// in the current term are skipped, so `steps.len() ≤ kinds.len()`.
pub fn edit_script(base: &Term, kinds: &[EditKind], seed: u64) -> EditScript {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut fresh = FreshNames::over(base);
    let mut cur = base.clone();
    let mut steps = Vec::new();
    for &kind in kinds {
        if let Some(next) = apply_edit(&cur, kind, &mut rng, &mut fresh) {
            cur = next.clone();
            steps.push(EditStep { kind, term: next });
        }
    }
    EditScript {
        base: base.clone(),
        steps,
    }
}

/// Applies one edit of the given kind at a seeded-random applicable site.
/// Returns `None` when the term has no applicable site (e.g. no `if0` to
/// swap, no unused binding to delete).
pub fn apply_edit(
    term: &Term,
    kind: EditKind,
    rng: &mut StdRng,
    fresh: &mut FreshNames,
) -> Option<Term> {
    match kind {
        EditKind::ReplaceConst => {
            let n = count_consts(term);
            if n == 0 {
                return None;
            }
            let target = rng.gen_range(0..n);
            let delta = rng.gen_range(1..5i64);
            let mut t = term.clone();
            let mut k = 0usize;
            edit_values(&mut t, &mut |v| {
                if let Value::Num(c) = v {
                    if k == target {
                        *c += delta;
                    }
                    k += 1;
                }
            });
            Some(t)
        }
        EditKind::ReplaceConstWithVar => {
            // Reuses the conventional free input `z`; a term that *binds*
            // `z` cannot take this edit (a binder may not shadow a free
            // variable).
            if binder_names(term).contains(&Ident::from("z")) {
                return None;
            }
            let n = count_consts(term);
            if n == 0 {
                return None;
            }
            let target = rng.gen_range(0..n);
            let mut t = term.clone();
            let mut k = 0usize;
            edit_values(&mut t, &mut |v| {
                if let Value::Num(_) = v {
                    if k == target {
                        *v = Value::Var(Ident::from("z"));
                    }
                    k += 1;
                }
            });
            Some(t)
        }
        EditKind::RenameVar => {
            let binders: Vec<Ident> = binder_names(term).into_iter().collect();
            if binders.is_empty() {
                return None;
            }
            let old = binders[rng.gen_range(0..binders.len())].clone();
            let new = fresh.next("rv");
            // Binder names are globally unique in a well-formed program
            // (duplicate binders are rejected at indexing), so a global
            // rename of the name is exactly a scope-correct rename.
            let mut t = term.clone();
            rename_ident(&mut t, &old, &new);
            Some(t)
        }
        EditKind::InsertLeaf => {
            let c = rng.gen_range(-3..=3i64);
            Some(let_(fresh.next("e"), num(c), term.clone()))
        }
        EditKind::InsertLambda => {
            let p = fresh.next("p");
            Some(let_(fresh.next("e"), lam(p.clone(), var(p)), term.clone()))
        }
        EditKind::SwapArms => {
            let n = count_if0s(term);
            if n == 0 {
                return None;
            }
            let target = rng.gen_range(0..n);
            let mut t = term.clone();
            let mut k = 0usize;
            swap_nth_if0(&mut t, target, &mut k);
            Some(t)
        }
        EditKind::DeleteBinding => {
            let candidates = unused_bindings(term);
            if candidates.is_empty() {
                return None;
            }
            let target = candidates[rng.gen_range(0..candidates.len())];
            let mut k = 0usize;
            delete_nth_let(term, target, &mut k)
        }
    }
}

/// A fresh-name source that avoids every identifier occurring in the base
/// term (binders, occurrences, and free variables alike).
#[derive(Debug, Clone)]
pub struct FreshNames {
    taken: BTreeSet<String>,
    counter: u32,
}

impl FreshNames {
    /// Collects the identifiers of `term` as the avoid-set.
    pub fn over(term: &Term) -> FreshNames {
        let mut taken = BTreeSet::new();
        collect_idents(term, &mut taken);
        FreshNames { taken, counter: 0 }
    }

    /// A fresh identifier with the given prefix.
    pub fn next(&mut self, prefix: &str) -> Ident {
        loop {
            let name = format!("{prefix}{}", self.counter);
            self.counter += 1;
            if self.taken.insert(name.clone()) {
                return Ident::from(name.as_str());
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Term walking helpers
// ---------------------------------------------------------------------------

/// Applies `f` to every `Value` node, outermost first (recursing into λ
/// bodies after `f` has seen the λ).
fn edit_values(t: &mut Term, f: &mut impl FnMut(&mut Value)) {
    match t {
        Term::Value(v) => {
            f(v);
            if let Value::Lam(_, body) = v {
                edit_values(body, f);
            }
        }
        Term::App(a, b) => {
            edit_values(a, f);
            edit_values(b, f);
        }
        Term::Let(_, rhs, body) => {
            edit_values(rhs, f);
            edit_values(body, f);
        }
        Term::If0(c, th, el) => {
            edit_values(c, f);
            edit_values(th, f);
            edit_values(el, f);
        }
        Term::Loop => {}
    }
}

fn count_consts(t: &Term) -> usize {
    let mut n = 0usize;
    let mut t = t.clone();
    edit_values(&mut t, &mut |v| {
        if matches!(v, Value::Num(_)) {
            n += 1;
        }
    });
    n
}

fn collect_idents(t: &Term, out: &mut BTreeSet<String>) {
    match t {
        Term::Value(v) => collect_value_idents(v, out),
        Term::App(a, b) => {
            collect_idents(a, out);
            collect_idents(b, out);
        }
        Term::Let(x, rhs, body) => {
            out.insert(x.as_str().to_string());
            collect_idents(rhs, out);
            collect_idents(body, out);
        }
        Term::If0(c, th, el) => {
            collect_idents(c, out);
            collect_idents(th, out);
            collect_idents(el, out);
        }
        Term::Loop => {}
    }
}

fn collect_value_idents(v: &Value, out: &mut BTreeSet<String>) {
    match v {
        Value::Var(x) => {
            out.insert(x.as_str().to_string());
        }
        Value::Lam(p, body) => {
            out.insert(p.as_str().to_string());
            collect_idents(body, out);
        }
        _ => {}
    }
}

fn binder_names(t: &Term) -> BTreeSet<Ident> {
    fn go(t: &Term, out: &mut BTreeSet<Ident>) {
        match t {
            Term::Value(Value::Lam(p, body)) => {
                out.insert(p.clone());
                go(body, out);
            }
            Term::Value(_) | Term::Loop => {}
            Term::App(a, b) => {
                go(a, out);
                go(b, out);
            }
            Term::Let(x, rhs, body) => {
                out.insert(x.clone());
                go(rhs, out);
                go(body, out);
            }
            Term::If0(c, th, el) => {
                go(c, out);
                go(th, out);
                go(el, out);
            }
        }
    }
    let mut out = BTreeSet::new();
    go(t, &mut out);
    out
}

fn rename_ident(t: &mut Term, old: &Ident, new: &Ident) {
    match t {
        Term::Value(v) => rename_value(v, old, new),
        Term::App(a, b) => {
            rename_ident(a, old, new);
            rename_ident(b, old, new);
        }
        Term::Let(x, rhs, body) => {
            if x == old {
                *x = new.clone();
            }
            rename_ident(rhs, old, new);
            rename_ident(body, old, new);
        }
        Term::If0(c, th, el) => {
            rename_ident(c, old, new);
            rename_ident(th, old, new);
            rename_ident(el, old, new);
        }
        Term::Loop => {}
    }
}

fn rename_value(v: &mut Value, old: &Ident, new: &Ident) {
    match v {
        Value::Var(x) if x == old => *x = new.clone(),
        Value::Lam(p, body) => {
            if p == old {
                *p = new.clone();
            }
            rename_ident(body, old, new);
        }
        _ => {}
    }
}

fn count_if0s(t: &Term) -> usize {
    match t {
        Term::Value(Value::Lam(_, body)) => count_if0s(body),
        Term::Value(_) | Term::Loop => 0,
        Term::App(a, b) => count_if0s(a) + count_if0s(b),
        Term::Let(_, rhs, body) => count_if0s(rhs) + count_if0s(body),
        Term::If0(c, th, el) => 1 + count_if0s(c) + count_if0s(th) + count_if0s(el),
    }
}

fn swap_nth_if0(t: &mut Term, target: usize, k: &mut usize) {
    match t {
        Term::Value(Value::Lam(_, body)) => swap_nth_if0(body, target, k),
        Term::Value(_) | Term::Loop => {}
        Term::App(a, b) => {
            swap_nth_if0(a, target, k);
            swap_nth_if0(b, target, k);
        }
        Term::Let(_, rhs, body) => {
            swap_nth_if0(rhs, target, k);
            swap_nth_if0(body, target, k);
        }
        Term::If0(c, th, el) => {
            if *k == target {
                *k += 1;
                std::mem::swap(th, el);
                return;
            }
            *k += 1;
            swap_nth_if0(c, target, k);
            swap_nth_if0(th, target, k);
            swap_nth_if0(el, target, k);
        }
    }
}

/// Occurrence count of `x` in `t` (binder names are globally unique, so
/// this is exactly the in-scope use count).
fn occurrences(t: &Term, x: &Ident) -> usize {
    match t {
        Term::Value(Value::Var(y)) => usize::from(y == x),
        Term::Value(Value::Lam(_, body)) => occurrences(body, x),
        Term::Value(_) | Term::Loop => 0,
        Term::App(a, b) => occurrences(a, x) + occurrences(b, x),
        Term::Let(_, rhs, body) => occurrences(rhs, x) + occurrences(body, x),
        Term::If0(c, th, el) => occurrences(c, x) + occurrences(th, x) + occurrences(el, x),
    }
}

/// Preorder indices of `let`s whose bound variable is never used.
fn unused_bindings(t: &Term) -> Vec<usize> {
    fn go(t: &Term, k: &mut usize, out: &mut Vec<usize>) {
        match t {
            Term::Value(Value::Lam(_, body)) => go(body, k, out),
            Term::Value(_) | Term::Loop => {}
            Term::App(a, b) => {
                go(a, k, out);
                go(b, k, out);
            }
            Term::Let(x, rhs, body) => {
                if occurrences(body, x) == 0 {
                    out.push(*k);
                }
                *k += 1;
                go(rhs, k, out);
                go(body, k, out);
            }
            Term::If0(c, th, el) => {
                go(c, k, out);
                go(th, k, out);
                go(el, k, out);
            }
        }
    }
    let mut out = Vec::new();
    let mut k = 0usize;
    go(t, &mut k, &mut out);
    out
}

/// Replaces the `target`-th `let` (preorder) with its body.
fn delete_nth_let(t: &Term, target: usize, k: &mut usize) -> Option<Term> {
    match t {
        Term::Value(Value::Lam(p, body)) => {
            delete_nth_let(body, target, k).map(|b| Term::Value(Value::Lam(p.clone(), Box::new(b))))
        }
        Term::Value(_) | Term::Loop => None,
        Term::App(a, b) => {
            if let Some(na) = delete_nth_let(a, target, k) {
                return Some(Term::App(Box::new(na), b.clone()));
            }
            delete_nth_let(b, target, k).map(|nb| Term::App(a.clone(), Box::new(nb)))
        }
        Term::Let(x, rhs, body) => {
            if *k == target {
                *k += 1;
                return Some((**body).clone());
            }
            *k += 1;
            if let Some(nr) = delete_nth_let(rhs, target, k) {
                return Some(Term::Let(x.clone(), Box::new(nr), body.clone()));
            }
            delete_nth_let(body, target, k)
                .map(|nb| Term::Let(x.clone(), rhs.clone(), Box::new(nb)))
        }
        Term::If0(c, th, el) => {
            if let Some(nc) = delete_nth_let(c, target, k) {
                return Some(Term::If0(Box::new(nc), th.clone(), el.clone()));
            }
            if let Some(nt) = delete_nth_let(th, target, k) {
                return Some(Term::If0(c.clone(), Box::new(nt), el.clone()));
            }
            delete_nth_let(el, target, k).map(|ne| Term::If0(c.clone(), th.clone(), Box::new(ne)))
        }
    }
}
