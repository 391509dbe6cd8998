//! A labeled CPS program with a dense variable index spanning both
//! namespaces (`Vars` and `KVars`).

use crate::arena::cps_transform_arena;
use crate::ast::{CTerm, CTermKind, CVal, CValKind, ContLam};
use crate::transform::{cps_transform, LabelMap};
use cpsdfa_anf::AnfProgram;
use cpsdfa_syntax::{Ident, KIdent, Label};
use std::collections::HashMap;
use std::fmt;

/// A variable of a CPS program: ordinary or continuation.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum VarKey {
    /// An ordinary variable `x ∈ Vars`.
    User(Ident),
    /// A continuation variable `k ∈ KVars`.
    Kont(KIdent),
}

impl fmt::Display for VarKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VarKey::User(x) => write!(f, "{x}"),
            VarKey::Kont(k) => write!(f, "{k}"),
        }
    }
}

impl fmt::Debug for VarKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VarKey::User(x) => write!(f, "User({x})"),
            VarKey::Kont(k) => write!(f, "Kont({k})"),
        }
    }
}

/// Dense index of a CPS-program variable (ordinary or continuation).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CVarId(pub u32);

impl CVarId {
    /// The dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CVarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{}", self.0)
    }
}

impl fmt::Debug for CVarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// Information about one user λ `(λx k.P)` in a CPS program.
#[derive(Debug, Clone, Copy)]
pub struct CLambdaRef<'p> {
    /// The λ's label (identity of the abstract closure `(cle xk, P)`).
    pub label: Label,
    /// The ordinary parameter.
    pub param: &'p Ident,
    /// Dense index of the parameter.
    pub param_id: CVarId,
    /// The continuation parameter.
    pub k: &'p KIdent,
    /// Dense index of the continuation parameter.
    pub k_id: CVarId,
    /// The body.
    pub body: &'p CTerm,
}

/// Information about one continuation λ `(λx.P)` in a CPS program.
#[derive(Debug, Clone, Copy)]
pub struct ContRef<'p> {
    /// The continuation λ's label (identity of `(coe x, P)`).
    pub label: Label,
    /// The variable receiving the returned value.
    pub var: &'p Ident,
    /// Dense index of that variable.
    pub var_id: CVarId,
    /// The body.
    pub body: &'p CTerm,
}

/// A labeled CPS program: the output of the syntactic CPS transformation
/// (or a hand-built cps(Λ) term), with variable index and closure /
/// continuation universes.
#[derive(Clone)]
pub struct CpsProgram {
    root: CTerm,
    top_k: KIdent,
    vars: Vec<VarKey>,
    var_ids: HashMap<VarKey, CVarId>,
    free: Vec<CVarId>,
    label_count: u32,
    lambda_labels: Vec<Label>,
    cont_labels: Vec<Label>,
    label_map: LabelMap,
}

impl CpsProgram {
    /// Transforms an ANF program into CPS (Definition 3.2), indexing every
    /// variable of both namespaces.
    ///
    /// ```
    /// use cpsdfa_anf::AnfProgram;
    /// use cpsdfa_cps::CpsProgram;
    /// let p = AnfProgram::parse("(let (a1 (f 1)) (let (a2 (f 2)) a1))")?;
    /// let c = CpsProgram::from_anf(&p);
    /// assert!(c.root().to_string().starts_with("(f 1 (lambda (a1)"));
    /// assert!(c.var_named("a1").is_some());
    /// # Ok::<(), cpsdfa_syntax::parse::ParseError>(())
    /// ```
    pub fn from_anf(prog: &AnfProgram) -> CpsProgram {
        let mut fresh = prog.fresh_gen();
        let t = cps_transform_arena(prog.arena(), prog.root_id(), &mut fresh);
        let root = t.arena.to_cterm(t.root);
        Self::index(root, t.top_k, t.label_count, t.labels)
    }

    /// Like [`from_anf`](Self::from_anf) but through the legacy boxed
    /// transform. Kept as the differential-testing oracle: the interned
    /// pipeline's output must be byte-identical to this one's.
    pub fn from_anf_via_boxed(prog: &AnfProgram) -> CpsProgram {
        let mut fresh = prog.fresh_gen();
        let t = cps_transform(prog.root(), &mut fresh);
        Self::index(t.root, t.top_k, t.label_count, t.labels)
    }

    fn index(root: CTerm, top_k: KIdent, label_count: u32, label_map: LabelMap) -> CpsProgram {
        let mut vars: Vec<VarKey> = Vec::new();
        let mut var_ids: HashMap<VarKey, CVarId> = HashMap::new();
        let add = |key: VarKey, vars: &mut Vec<VarKey>, var_ids: &mut HashMap<VarKey, CVarId>| {
            var_ids.entry(key.clone()).or_insert_with(|| {
                let id = CVarId(vars.len() as u32);
                vars.push(key);
                id
            });
        };

        // Free user variables first (computed over the CPS term), then the
        // top continuation, then binders in traversal order.
        for x in free_user_vars(&root) {
            add(VarKey::User(x), &mut vars, &mut var_ids);
        }
        let free_count = vars.len();
        add(VarKey::Kont(top_k.clone()), &mut vars, &mut var_ids);

        collect_binders(&root, &mut |key| add(key, &mut vars, &mut var_ids));

        let mut lambda_labels = Vec::new();
        let mut cont_labels = Vec::new();
        root.visit_parts(
            &mut |v| {
                if v.is_lambda() {
                    lambda_labels.push(v.label);
                }
            },
            &mut |c| cont_labels.push(c.label),
        );

        let free = (0..free_count as u32).map(CVarId).collect();
        CpsProgram {
            root,
            top_k,
            vars,
            var_ids,
            free,
            label_count,
            lambda_labels,
            cont_labels,
            label_map,
        }
    }

    /// The CPS term.
    pub fn root(&self) -> &CTerm {
        &self.root
    }

    /// The initial continuation variable `k₀`; the initial store binds it to
    /// `stop` (Lemma 3.3).
    pub fn top_k(&self) -> &KIdent {
        &self.top_k
    }

    /// The number of labels assigned.
    pub fn label_count(&self) -> u32 {
        self.label_count
    }

    /// The number of indexed variables (both namespaces, free + bound).
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Dense id of a variable key.
    pub fn var_id(&self, key: &VarKey) -> Option<CVarId> {
        self.var_ids.get(key).copied()
    }

    /// Dense id of an ordinary variable.
    pub fn user_var_id(&self, x: &Ident) -> Option<CVarId> {
        self.var_id(&VarKey::User(x.clone()))
    }

    /// Dense id of a continuation variable.
    pub fn kont_var_id(&self, k: &KIdent) -> Option<CVarId> {
        self.var_id(&VarKey::Kont(k.clone()))
    }

    /// The key of an indexed variable.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn key(&self, id: CVarId) -> &VarKey {
        &self.vars[id.index()]
    }

    /// Looks up an ordinary variable by source name (exact, or unique
    /// `name%N` variant) — mirrors [`AnfProgram::var_named`].
    ///
    /// [`AnfProgram::var_named`]: cpsdfa_anf::AnfProgram::var_named
    pub fn var_named(&self, name: &str) -> Option<CVarId> {
        if let Some(id) = self.var_ids.get(&VarKey::User(Ident::new(name))) {
            return Some(*id);
        }
        let prefix = format!("{name}%");
        let mut found = None;
        for (i, key) in self.vars.iter().enumerate() {
            if let VarKey::User(x) = key {
                if x.as_str().starts_with(&prefix) {
                    if found.is_some() {
                        return None;
                    }
                    found = Some(CVarId(i as u32));
                }
            }
        }
        found
    }

    /// Iterates over `(CVarId, key)` pairs in index order.
    pub fn iter_vars(&self) -> impl Iterator<Item = (CVarId, &VarKey)> {
        self.vars
            .iter()
            .enumerate()
            .map(|(i, k)| (CVarId(i as u32), k))
    }

    /// Ids of the free (user) variables.
    pub fn free_vars(&self) -> &[CVarId] {
        &self.free
    }

    /// Labels of every user λ — the universe `CL⊤` of Figure 6's loop rule.
    pub fn lambda_labels(&self) -> &[Label] {
        &self.lambda_labels
    }

    /// Labels of every continuation λ — the universe `K⊤` of Figure 6's loop
    /// rule ("the set of all abstract continuations `(coe x, P)` in the
    /// program").
    pub fn cont_labels(&self) -> &[Label] {
        &self.cont_labels
    }

    /// The source ↔ CPS program-point correspondence recorded by the
    /// transformation (empty for hand-built programs).
    pub fn label_map(&self) -> &LabelMap {
        &self.label_map
    }

    /// Reference table of every user λ, keyed by label.
    pub fn lambdas(&self) -> HashMap<Label, CLambdaRef<'_>> {
        let mut out = HashMap::new();
        self.root.visit_parts(
            &mut |v| {
                if let CValKind::Lam { param, k, body } = &v.kind {
                    out.insert(
                        v.label,
                        CLambdaRef {
                            label: v.label,
                            param,
                            param_id: self.user_var_id(param).expect("λ param indexed"),
                            k,
                            k_id: self.kont_var_id(k).expect("λ k indexed"),
                            body,
                        },
                    );
                }
            },
            &mut |_| {},
        );
        out
    }

    /// Reference table of every continuation λ, keyed by label.
    pub fn conts(&self) -> HashMap<Label, ContRef<'_>> {
        let mut out = HashMap::new();
        self.root.visit_parts(&mut |_| {}, &mut |c| {
            out.insert(
                c.label,
                ContRef {
                    label: c.label,
                    var: &c.var,
                    var_id: self.user_var_id(&c.var).expect("cont var indexed"),
                    body: &c.body,
                },
            );
        });
        out
    }
}

impl fmt::Display for CpsProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.root)
    }
}

impl fmt::Debug for CpsProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CpsProgram")
            .field("root", &self.root)
            .field("top_k", &self.top_k)
            .field("vars", &self.vars.len())
            .finish()
    }
}

/// Free user variables of a CPS term, in first-occurrence order.
fn free_user_vars(t: &CTerm) -> Vec<Ident> {
    let mut bound: Vec<Ident> = Vec::new();
    let mut out: Vec<Ident> = Vec::new();
    walk_term(t, &mut bound, &mut out);
    out
}

fn note_var(x: &Ident, bound: &[Ident], out: &mut Vec<Ident>) {
    if !bound.contains(x) && !out.contains(x) {
        out.push(x.clone());
    }
}

fn walk_val(v: &CVal, bound: &mut Vec<Ident>, out: &mut Vec<Ident>) {
    match &v.kind {
        CValKind::Var(x) => note_var(x, bound, out),
        CValKind::Lam { param, body, .. } => {
            bound.push(param.clone());
            walk_term(body, bound, out);
            bound.pop();
        }
        _ => {}
    }
}

fn walk_cont(c: &ContLam, bound: &mut Vec<Ident>, out: &mut Vec<Ident>) {
    bound.push(c.var.clone());
    walk_term(&c.body, bound, out);
    bound.pop();
}

fn walk_term(t: &CTerm, bound: &mut Vec<Ident>, out: &mut Vec<Ident>) {
    match &t.kind {
        CTermKind::Ret(_, w) => walk_val(w, bound, out),
        CTermKind::Let { var, val, body } => {
            walk_val(val, bound, out);
            bound.push(var.clone());
            walk_term(body, bound, out);
            bound.pop();
        }
        CTermKind::Call { f, arg, cont } => {
            walk_val(f, bound, out);
            walk_val(arg, bound, out);
            walk_cont(cont, bound, out);
        }
        CTermKind::LetK {
            cont,
            test,
            then_,
            else_,
            ..
        } => {
            walk_cont(cont, bound, out);
            walk_val(test, bound, out);
            walk_term(then_, bound, out);
            walk_term(else_, bound, out);
        }
        CTermKind::Loop { cont } => walk_cont(cont, bound, out),
    }
}

/// Calls `add` for every binder (both namespaces) in traversal order.
fn collect_binders(t: &CTerm, add: &mut impl FnMut(VarKey)) {
    match &t.kind {
        CTermKind::Ret(_, w) => binders_val(w, add),
        CTermKind::Let { var, val, body } => {
            add(VarKey::User(var.clone()));
            binders_val(val, add);
            collect_binders(body, add);
        }
        CTermKind::Call { f, arg, cont } => {
            binders_val(f, add);
            binders_val(arg, add);
            binders_cont(cont, add);
        }
        CTermKind::LetK {
            k,
            cont,
            test,
            then_,
            else_,
        } => {
            add(VarKey::Kont(k.clone()));
            binders_cont(cont, add);
            binders_val(test, add);
            collect_binders(then_, add);
            collect_binders(else_, add);
        }
        CTermKind::Loop { cont } => binders_cont(cont, add),
    }
}

fn binders_val(v: &CVal, add: &mut impl FnMut(VarKey)) {
    if let CValKind::Lam { param, k, body } = &v.kind {
        add(VarKey::User(param.clone()));
        add(VarKey::Kont(k.clone()));
        collect_binders(body, add);
    }
}

fn binders_cont(c: &ContLam, add: &mut impl FnMut(VarKey)) {
    add(VarKey::User(c.var.clone()));
    collect_binders(&c.body, add);
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpsdfa_anf::AnfProgram;

    fn cps(src: &str) -> CpsProgram {
        CpsProgram::from_anf(&AnfProgram::parse(src).unwrap())
    }

    #[test]
    fn indexes_both_namespaces() {
        let c = cps("(let (f (lambda (x) x)) (let (a (f 1)) a))");
        // user vars: f, x, a; k vars: top k and the λ's k
        let users = c
            .iter_vars()
            .filter(|(_, k)| matches!(k, VarKey::User(_)))
            .count();
        let konts = c
            .iter_vars()
            .filter(|(_, k)| matches!(k, VarKey::Kont(_)))
            .count();
        assert_eq!(users, 3);
        assert_eq!(konts, 2);
        assert!(c.kont_var_id(c.top_k()).is_some());
    }

    #[test]
    fn free_variables_survive_transformation() {
        let c = cps("(let (a1 (f 1)) (let (a2 (f 2)) a1))");
        assert_eq!(c.free_vars().len(), 1);
        let key = c.key(c.free_vars()[0]).clone();
        assert_eq!(key, VarKey::User(Ident::new("f")));
    }

    #[test]
    fn var_named_finds_source_variables() {
        let c = cps("(let (a1 (f 1)) (let (a2 (f 2)) a1))");
        assert!(c.var_named("a1").is_some());
        assert!(c.var_named("a2").is_some());
        assert!(c.var_named("zzz").is_none());
    }

    #[test]
    fn lambda_and_cont_universes() {
        let c = cps("(let (f (lambda (x) x)) (let (a (f 1)) (let (b (if0 a 0 1)) b)))");
        assert_eq!(c.lambda_labels().len(), 1);
        // frames: the application let and the if0 let
        assert_eq!(c.cont_labels().len(), 2);
        assert_eq!(c.lambdas().len(), 1);
        assert_eq!(c.conts().len(), 2);
        for (l, r) in c.lambdas() {
            assert_eq!(l, r.label);
        }
    }

    #[test]
    fn label_map_bridges_source_and_cps() {
        let p = AnfProgram::parse("(let (f (lambda (x) x)) (let (a (f 1)) a))").unwrap();
        let c = CpsProgram::from_anf(&p);
        let src_lam = p.lambda_labels()[0];
        let cps_lam = c.label_map().lam[&src_lam];
        assert!(c.lambda_labels().contains(&cps_lam));
    }

    #[test]
    fn cont_var_ids_resolve() {
        let c = cps("(let (a (f 1)) (let (b (if0 a 0 1)) b))");
        for cont in c.conts().values() {
            assert_eq!(c.key(cont.var_id), &VarKey::User(cont.var.clone()));
        }
    }
}
