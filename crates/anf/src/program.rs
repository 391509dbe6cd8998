//! A labeled, validated ANF program with a dense variable index.
//!
//! [`AnfProgram`] is the unit of work for the interpreters and analyzers:
//! it owns the normalized term, assigns a [`Label`] to every node, indexes
//! every variable (bound *and* free) with a dense [`VarId`] so abstract
//! stores can be flat vectors, and records the labels of all λ-abstractions
//! (the finite universe `CL⊤` needed by the §4.4 loop rule).

use crate::arena::{normalize_arena, AnfArena, AnfId};
use crate::ast::{AVal, AValKind, Anf, AnfKind, Bind};
use crate::normalize::normalize;
use cpsdfa_syntax::arena::TermArena;
use cpsdfa_syntax::ast::Term;
use cpsdfa_syntax::free::{free_vars, has_unique_binders_given};
use cpsdfa_syntax::fresh::freshen_with;
use cpsdfa_syntax::label::LabelGen;
use cpsdfa_syntax::{FreshGen, Ident, Label};
use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};
use std::error::Error;
use std::fmt;

/// A dense index for a program variable; abstract stores are `Vec`s indexed
/// by `VarId` (§4.1: one abstract location per variable).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub u32);

impl VarId {
    /// The dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Debug for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// Errors raised when validating a hand-built ANF term.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnfError {
    /// Two binders use the same variable, violating the §2 hygiene
    /// assumption.
    DuplicateBinder(Ident),
    /// A binder shadows (or collides with) a free variable of the program.
    BinderShadowsFree(Ident),
}

impl fmt::Display for AnfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnfError::DuplicateBinder(x) => write!(f, "duplicate binder `{x}`"),
            AnfError::BinderShadowsFree(x) => {
                write!(
                    f,
                    "binder `{x}` collides with a free variable of the program"
                )
            }
        }
    }
}

impl Error for AnfError {}

/// Information about one λ-abstraction in the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LambdaRef<'p> {
    /// The label of the λ value (the identity of the abstract closure
    /// `(cle x, M)`).
    pub label: Label,
    /// The parameter `x`.
    pub param: &'p Ident,
    /// The parameter's dense index.
    pub param_id: VarId,
    /// The body `M`.
    pub body: &'p Anf,
}

/// A labeled, validated program in the restricted subset.
///
/// The program owns two views of the same term: the flat [`AnfArena`]
/// (what the arena normalizer produced — `Copy` ids, one `Vec` slot per
/// node) and the boxed [`Anf`] tree materialized from it (the interchange
/// form the interpreters and printers walk). Labels agree between the two
/// by construction.
#[derive(Clone)]
pub struct AnfProgram {
    root: Anf,
    arena: AnfArena,
    root_id: AnfId,
    /// VarId → name.
    vars: Vec<Ident>,
    var_ids: HashMap<Ident, VarId>,
    free: Vec<VarId>,
    label_count: u32,
    lambda_labels: Vec<Label>,
    fresh: FreshGen,
}

impl AnfProgram {
    /// Normalizes a Λ term into a labeled program. If the term does not have
    /// unique binders it is α-freshened first, so this constructor accepts
    /// any Λ term.
    ///
    /// ```
    /// use cpsdfa_anf::AnfProgram;
    /// use cpsdfa_syntax::parse::parse_term;
    /// let t = parse_term("(f (let (x 1) (g x)))").unwrap();
    /// let p = AnfProgram::from_term(&t);
    /// assert_eq!(
    ///     p.root().to_string(),
    ///     "(let (x 1) (let (t%0 (g x)) (let (t%1 (f t%0)) t%1)))"
    /// );
    /// assert!(p.var_named("x").is_some());
    /// ```
    pub fn from_term(term: &Term) -> AnfProgram {
        let mut gen = FreshGen::new();
        let (term, free) = hygienic(term, &mut gen);
        let mut ta = TermArena::new();
        let tid = ta.from_term(&term);
        let (mut arena, root_id) = normalize_arena(&ta, tid, &mut gen);
        let label_count = arena.assign_labels(root_id);
        let root = arena.to_anf(root_id);
        Self::index(root, arena, root_id, label_count, gen, free)
            .expect("normalization of a hygienic term yields unique binders")
    }

    /// Like [`from_term`](Self::from_term) but through the legacy boxed
    /// normalizer and labeling pass. Kept as the differential-testing
    /// oracle: the interned pipeline's output must be byte-identical to
    /// this one's on every input.
    pub fn from_term_via_boxed(term: &Term) -> AnfProgram {
        let mut gen = FreshGen::new();
        let (term, free) = hygienic(term, &mut gen);
        let mut root = normalize(&term, &mut gen);
        let mut labels = LabelGen::new();
        label_term(&mut root, &mut labels);
        let mut arena = AnfArena::new();
        let root_id = arena.from_anf(&root);
        Self::index(root, arena, root_id, labels.count(), gen, free)
            .expect("normalization of a hygienic term yields unique binders")
    }

    /// Parses and normalizes in one step.
    ///
    /// # Errors
    ///
    /// Returns the parser's error for malformed source text.
    pub fn parse(src: &str) -> Result<AnfProgram, cpsdfa_syntax::parse::ParseError> {
        Ok(Self::from_term(&cpsdfa_syntax::parse::parse_term(src)?))
    }

    /// Wraps a hand-built ANF term, validating the hygiene assumptions.
    ///
    /// # Errors
    ///
    /// Returns [`AnfError`] if binders are duplicated or collide with free
    /// variables.
    pub fn from_root(root: Anf) -> Result<AnfProgram, AnfError> {
        let mut root = root;
        let mut labels = LabelGen::new();
        label_term(&mut root, &mut labels);
        let mut arena = AnfArena::new();
        let root_id = arena.from_anf(&root);
        let free = free_vars(&root.to_term());
        Self::index(root, arena, root_id, labels.count(), FreshGen::new(), free)
    }

    /// Indexes the program's variables; `free_names` are the free
    /// variables of `root`.
    fn index(
        root: Anf,
        arena: AnfArena,
        root_id: AnfId,
        label_count: u32,
        fresh: FreshGen,
        free_names: BTreeSet<Ident>,
    ) -> Result<AnfProgram, AnfError> {
        // Index variables: free variables first (so seeding them is easy),
        // then binders in label order. Free variables are sorted by *name*:
        // `Ident`'s own order is by intern index, which depends on global
        // interner state, and VarId assignment must be deterministic.
        let mut vars = Vec::new();
        let mut var_ids: HashMap<Ident, VarId> = HashMap::new();
        let mut free = Vec::new();
        let mut free_sorted: Vec<Ident> = free_names.into_iter().collect();
        free_sorted.sort_by_key(|x| x.as_str());
        for x in free_sorted {
            let id = VarId(vars.len() as u32);
            vars.push(x.clone());
            var_ids.insert(x, id);
            free.push(id);
        }
        let mut dup: Option<AnfError> = None;
        {
            let free_count = vars.len();
            let mut add_binder = |x: &Ident| {
                if dup.is_some() {
                    return;
                }
                if let Some(prev) = var_ids.get(x) {
                    dup = Some(if prev.index() < free_count {
                        AnfError::BinderShadowsFree(x.clone())
                    } else {
                        AnfError::DuplicateBinder(x.clone())
                    });
                    return;
                }
                let id = VarId(vars.len() as u32);
                vars.push(x.clone());
                var_ids.insert(x.clone(), id);
            };
            root.visit_terms(&mut |t| {
                if let AnfKind::Let { var, .. } = &t.kind {
                    add_binder(var);
                }
            });
            root.visit_values(&mut |v| {
                if let AValKind::Lam(x, _) = &v.kind {
                    add_binder(x);
                }
            });
        }
        if let Some(e) = dup {
            return Err(e);
        }

        // Collect λ labels (the universe CL⊤).
        let mut lambda_labels = Vec::new();
        root.visit_values(&mut |v| {
            if v.is_lambda() {
                lambda_labels.push(v.label);
            }
        });

        Ok(AnfProgram {
            root,
            arena,
            root_id,
            vars,
            var_ids,
            free,
            label_count,
            lambda_labels,
            fresh,
        })
    }

    /// The normalized, labeled term.
    pub fn root(&self) -> &Anf {
        &self.root
    }

    /// The flat arena backing the program.
    pub fn arena(&self) -> &AnfArena {
        &self.arena
    }

    /// The arena id of the root term.
    pub fn root_id(&self) -> AnfId {
        self.root_id
    }

    /// The number of labels assigned (labels are `0..label_count`).
    pub fn label_count(&self) -> u32 {
        self.label_count
    }

    /// The number of indexed variables (bound + free).
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// The dense id of a variable, if it occurs in the program.
    pub fn var_id(&self, x: &Ident) -> Option<VarId> {
        self.var_ids.get(x).copied()
    }

    /// The name of an indexed variable.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this program.
    pub fn ident(&self, id: VarId) -> &Ident {
        &self.vars[id.index()]
    }

    /// Looks up a variable by source name. Exact matches win; otherwise a
    /// *unique* freshened variant (`name%N`) matches, so paper examples can
    /// be queried by their original names even after α-freshening.
    pub fn var_named(&self, name: &str) -> Option<VarId> {
        if let Some(id) = self.var_ids.get(&Ident::new(name)) {
            return Some(*id);
        }
        let prefix = format!("{name}%");
        let mut found = None;
        for (i, x) in self.vars.iter().enumerate() {
            if x.as_str().starts_with(&prefix) {
                if found.is_some() {
                    return None; // ambiguous
                }
                found = Some(VarId(i as u32));
            }
        }
        found
    }

    /// Iterates over `(VarId, name)` pairs in index order.
    pub fn iter_vars(&self) -> impl Iterator<Item = (VarId, &Ident)> {
        self.vars
            .iter()
            .enumerate()
            .map(|(i, x)| (VarId(i as u32), x))
    }

    /// The free variables of the program (their ids precede all binders).
    pub fn free_vars(&self) -> &[VarId] {
        &self.free
    }

    /// Labels of every λ in the program — the universe `CL⊤` used when the
    /// §4.4 loop rule must return the least precise closure set.
    pub fn lambda_labels(&self) -> &[Label] {
        &self.lambda_labels
    }

    /// Collects a reference table of every λ in the program, for analyzers
    /// that must apply abstract closures by label.
    pub fn lambdas(&self) -> HashMap<Label, LambdaRef<'_>> {
        let mut out = HashMap::new();
        self.root.visit_values(&mut |v| {
            if let AValKind::Lam(x, body) = &v.kind {
                let param_id = self.var_id(x).expect("lambda parameter is indexed");
                out.insert(
                    v.label,
                    LambdaRef {
                        label: v.label,
                        param: x,
                        param_id,
                        body,
                    },
                );
            }
        });
        out
    }

    /// A fresh-name generator that cannot collide with any name in the
    /// program; the CPS transform continues from here.
    pub fn fresh_gen(&self) -> FreshGen {
        self.fresh.clone()
    }

    /// Renders the program with one binding per line.
    pub fn pretty(&self) -> String {
        cpsdfa_syntax::print::pretty(&self.root.to_term())
    }
}

impl fmt::Display for AnfProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.root)
    }
}

impl fmt::Debug for AnfProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AnfProgram")
            .field("root", &self.root)
            .field("vars", &self.vars)
            .field("labels", &self.label_count)
            .finish()
    }
}

/// `term` with unique binders (α-freshened from `gen` when its binders
/// repeat or capture a free name), and its free variables. Freshening renames only binders and
/// A-normalization only adds them, so the set is also the free set of the
/// normalized program.
fn hygienic<'t>(term: &'t Term, gen: &mut FreshGen) -> (Cow<'t, Term>, BTreeSet<Ident>) {
    let free = free_vars(term);
    let term = if has_unique_binders_given(term, &free) {
        Cow::Borrowed(term)
    } else {
        Cow::Owned(freshen_with(term, gen))
    };
    (term, free)
}

/// Assigns dense labels to a boxed ANF tree in the canonical pre-order,
/// returning the number of labels. This is the legacy labeling pass the
/// arena pipeline's [`AnfArena::assign_labels`] mirrors; it is public so
/// the differential corpus tests and the pipeline benchmark can drive the
/// boxed oracle end to end.
pub fn label_anf(root: &mut Anf) -> u32 {
    let mut labels = LabelGen::new();
    label_term(root, &mut labels);
    labels.count()
}

fn label_term(t: &mut Anf, gen: &mut LabelGen) {
    t.label = gen.next();
    match &mut t.kind {
        AnfKind::Value(v) => label_value(v, gen),
        AnfKind::Let { bind, body, .. } => {
            match bind {
                Bind::Value(v) => label_value(v, gen),
                Bind::App(a, b) => {
                    label_value(a, gen);
                    label_value(b, gen);
                }
                Bind::If0(c, then_, else_) => {
                    label_value(c, gen);
                    label_term(then_, gen);
                    label_term(else_, gen);
                }
                Bind::Loop => {}
            }
            label_term(body, gen);
        }
    }
}

fn label_value(v: &mut AVal, gen: &mut LabelGen) {
    v.label = gen.next();
    if let AValKind::Lam(_, body) = &mut v.kind {
        label_term(body, gen);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpsdfa_syntax::parse::parse_term;

    fn prog(src: &str) -> AnfProgram {
        AnfProgram::parse(src).unwrap()
    }

    #[test]
    fn labels_are_dense_and_unique() {
        let p = prog("(let (a (f 1)) (let (b (if0 a 2 (g a))) b))");
        let mut seen = std::collections::HashSet::new();
        p.root().visit_terms(&mut |t| {
            assert!(t.label.is_assigned());
            assert!(seen.insert(t.label));
        });
        p.root().visit_values(&mut |v| {
            assert!(v.label.is_assigned());
            assert!(seen.insert(v.label));
        });
        assert_eq!(seen.len() as u32, p.label_count());
    }

    #[test]
    fn free_vars_are_indexed_first() {
        let p = prog("(let (a (f 1)) (g a))");
        let free: Vec<_> = p.free_vars().iter().map(|&v| p.ident(v).as_str()).collect();
        assert_eq!(free, ["f", "g"]);
        assert!(p.var_id(&Ident::new("a")).unwrap().index() >= 2);
    }

    #[test]
    fn var_named_matches_fresh_suffixes() {
        // Shadowed binders get freshened; both variants of `x` exist, so the
        // base name is ambiguous, but unique names resolve.
        let t = parse_term("(let (x 1) (let (x (add1 x)) (let (y x) y)))").unwrap();
        let p = AnfProgram::from_term(&t);
        assert!(p.var_named("y").is_some());
        assert!(p.var_named("x").is_none()); // ambiguous after freshening
        assert!(p.var_named("nonexistent").is_none());
    }

    #[test]
    fn lambda_table_contains_every_lambda() {
        let p = prog("(let (f (lambda (x) x)) (let (g (lambda (y) (f y))) (g 1)))");
        let lambdas = p.lambdas();
        assert_eq!(lambdas.len(), 2);
        assert_eq!(p.lambda_labels().len(), 2);
        for l in p.lambda_labels() {
            assert!(lambdas.contains_key(l));
        }
    }

    #[test]
    fn from_root_rejects_duplicate_binders() {
        use crate::ast::*;
        let dup = Anf::new(AnfKind::Let {
            var: Ident::new("x"),
            bind: Bind::Value(AVal::new(AValKind::Num(1))),
            body: Box::new(Anf::new(AnfKind::Let {
                var: Ident::new("x"),
                bind: Bind::Value(AVal::new(AValKind::Num(2))),
                body: Box::new(Anf::new(AnfKind::Value(AVal::new(AValKind::Var(
                    Ident::new("x"),
                ))))),
            })),
        });
        assert_eq!(
            AnfProgram::from_root(dup).unwrap_err(),
            AnfError::DuplicateBinder(Ident::new("x"))
        );
    }

    #[test]
    fn from_root_rejects_binder_colliding_with_free() {
        use crate::ast::*;
        // (let (x x) x): binder x, but x is also free (in the rhs).
        let t = Anf::new(AnfKind::Let {
            var: Ident::new("x"),
            bind: Bind::Value(AVal::new(AValKind::Var(Ident::new("x")))),
            body: Box::new(Anf::new(AnfKind::Value(AVal::new(AValKind::Var(
                Ident::new("x"),
            ))))),
        });
        assert_eq!(
            AnfProgram::from_root(t).unwrap_err(),
            AnfError::BinderShadowsFree(Ident::new("x"))
        );
    }

    #[test]
    fn num_vars_counts_free_and_bound() {
        let p = prog("(let (a (f 1)) a)");
        assert_eq!(p.num_vars(), 2); // f, a
        let names: Vec<_> = p.iter_vars().map(|(_, x)| x.as_str().to_owned()).collect();
        assert!(names.contains(&"f".to_owned()));
        assert!(names.contains(&"a".to_owned()));
    }

    #[test]
    fn front_ends_refuse_offset_overflow_and_deep_towers() {
        // Unoptimized frames need more than the default test-thread stack
        // to recurse `MAX_DEPTH` levels.
        std::thread::Builder::new()
            .stack_size(64 << 20)
            .spawn(refuse_too_deep)
            .unwrap()
            .join()
            .unwrap();
    }

    fn refuse_too_deep() {
        use cpsdfa_syntax::parse::ParseErrorKind;
        let tower = format!("{}1{}", "(add1 ".repeat(20_000), ")".repeat(20_000));
        for src in [
            "(+ 1 -9223372036854775808)",
            "(+ 1 9223372036854775807)",
            tower.as_str(),
        ] {
            let shown = &src[..src.len().min(32)];
            let err = parse_term(src).unwrap_err();
            assert_eq!(
                err.kind,
                ParseErrorKind::TooDeep,
                "parse_term {shown}: {err}"
            );
            let err = AnfProgram::parse(src).unwrap_err();
            assert_eq!(
                err.kind,
                ParseErrorKind::TooDeep,
                "AnfProgram::parse {shown}: {err}"
            );
        }
    }

    #[test]
    fn display_shows_normalized_program() {
        let p = prog("(add1 1)");
        assert_eq!(p.to_string(), "(let (t%0 (add1 1)) t%0)");
        assert!(!p.pretty().is_empty());
    }
}
