//! Random generation of well-behaved Λ programs, deterministic per seed.
//!
//! The differential and property experiments (E0, E3, E4) need corpora of
//! programs that (a) never get dynamically stuck and (b) always terminate,
//! so every interpreter/analyzer pair can be compared without filtering.
//! Both properties are guaranteed *by construction*: the generator produces
//! simply-typed terms (`τ ::= num | τ → τ`), and the simply-typed fragment
//! of Λ is strongly normalizing.
//!
//! Determinism: the generator is a pure function of the [`GenConfig`] and
//! the seed, so corpora are reproducible across runs and machines.

use cpsdfa_syntax::build;
use cpsdfa_syntax::{Ident, Term};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::rc::Rc;

/// Simple types for generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ty {
    /// A number.
    Num,
    /// A function.
    Fun(Rc<Ty>, Rc<Ty>),
}

impl Ty {
    fn fun(a: Ty, b: Ty) -> Ty {
        Ty::Fun(Rc::new(a), Rc::new(b))
    }
}

/// Generator parameters.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Maximum term depth.
    pub max_depth: usize,
    /// Maximum order of generated function types (1 = first-order
    /// functions over numbers, 2 = functions over those, …).
    pub max_order: usize,
    /// Numeric literals are drawn from `-lit_range..=lit_range`.
    pub lit_range: i64,
    /// Probability (percent) of choosing a compound form over a value when
    /// both are allowed.
    pub compound_bias: u32,
    /// Probability (percent) of emitting a *correlated diamond* —
    /// `(let (a (if0 C n₁ n₂)) (if0 a M M))` — the shape where
    /// continuation duplication gains precision (Theorem 5.2). Without this
    /// bias random programs almost never produce strict Theorem 5.4/5.2
    /// instances.
    pub diamond_bias: u32,
    /// Probability (percent) that a numeric leaf is the free *input*
    /// variable `z` instead of a literal. `0` keeps programs closed (the
    /// default, needed by the differential interpreter tests); nonzero
    /// values introduce the unknowns that make precision differences
    /// between the analyzers possible at all.
    pub free_inputs: u32,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            max_depth: 6,
            max_order: 2,
            lit_range: 3,
            compound_bias: 65,
            diamond_bias: 10,
            free_inputs: 0,
        }
    }
}

/// Generates one closed, well-typed, terminating program of type `num`.
///
/// ```
/// use cpsdfa_workloads::random::{generate, GenConfig};
/// use cpsdfa_anf::AnfProgram;
/// use cpsdfa_interp::{run_direct, Fuel};
///
/// let t = generate(42, &GenConfig::default());
/// let p = AnfProgram::from_term(&t);
/// // Simply-typed ⇒ runs to a number without errors.
/// assert!(run_direct(&p, &[], Fuel::default())?.value.as_num().is_some());
/// # Ok::<(), cpsdfa_interp::InterpError>(())
/// ```
pub fn generate(seed: u64, config: &GenConfig) -> Term {
    let mut g = Gen {
        rng: StdRng::seed_from_u64(seed),
        config: config.clone(),
        fresh: 0,
    };
    let mut env = Vec::new();
    g.term(&Ty::Num, &mut env, config.max_depth)
}

/// Generates a corpus of `n` programs from consecutive seeds.
pub fn corpus(base_seed: u64, n: usize, config: &GenConfig) -> Vec<Term> {
    (0..n as u64)
        .map(|i| generate(base_seed + i, config))
        .collect()
}

/// A configuration for *open* programs with unknown inputs and correlated
/// diamonds — the corpus used by the precision experiments (E3/E4). Closed
/// programs are analyzed exactly by every analyzer, so precision
/// differences require unknowns.
pub fn open_config() -> GenConfig {
    GenConfig {
        diamond_bias: 30,
        free_inputs: 35,
        ..GenConfig::default()
    }
}

struct Gen {
    rng: StdRng,
    config: GenConfig,
    fresh: u64,
}

impl Gen {
    fn fresh_var(&mut self, hint: &str) -> Ident {
        self.fresh += 1;
        Ident::new(format!("{hint}{}", self.fresh))
    }

    /// A random type of bounded order (biased toward `num`).
    fn ty(&mut self, max_order: usize) -> Ty {
        if max_order == 0 || self.rng.gen_range(0..100) < 60 {
            Ty::Num
        } else {
            let a = self.ty(max_order - 1);
            let b = self.ty(max_order - 1);
            Ty::fun(a, b)
        }
    }

    fn vars_of<'e>(env: &'e [(Ident, Ty)], ty: &Ty) -> Vec<&'e Ident> {
        env.iter()
            .filter(|(_, t)| t == ty)
            .map(|(x, _)| x)
            .collect()
    }

    /// Generates a term of type `ty` under `env`.
    fn term(&mut self, ty: &Ty, env: &mut Vec<(Ident, Ty)>, depth: usize) -> Term {
        let compound_ok = depth > 0;
        if !compound_ok || self.rng.gen_range(0..100) >= self.config.compound_bias {
            return self.value(ty, env, depth);
        }
        if *ty == Ty::Num && depth >= 2 && self.rng.gen_range(0..100) < self.config.diamond_bias {
            return self.correlated_diamond(env, depth);
        }
        match self.rng.gen_range(0..3) {
            // (let (x N) M)
            0 => {
                let xty = self.ty(self.config.max_order);
                let rhs = self.term(&xty, env, depth - 1);
                let x = self.fresh_var("v");
                env.push((x.clone(), xty));
                let body = self.term(ty, env, depth - 1);
                env.pop();
                build::let_(x, rhs, body)
            }
            // (if0 C M M)
            1 => {
                let c = self.term(&Ty::Num, env, depth - 1);
                let t = self.term(ty, env, depth - 1);
                let e = self.term(ty, env, depth - 1);
                build::if0(c, t, e)
            }
            // (F A) for a random argument type
            _ => {
                let aty = self.ty(self.config.max_order.saturating_sub(1));
                // add1/sub1 are the only primitive num → num functions;
                // prefer them for num → num to keep programs arithmetic.
                if aty == Ty::Num && *ty == Ty::Num && self.rng.gen_bool(0.5) {
                    let prim = if self.rng.gen_bool(0.5) {
                        build::add1()
                    } else {
                        build::sub1()
                    };
                    let arg = self.term(&Ty::Num, env, depth - 1);
                    return build::app(prim, arg);
                }
                let fty = Ty::fun(aty.clone(), ty.clone());
                let f = self.term(&fty, env, depth - 1);
                let a = self.term(&aty, env, depth - 1);
                build::app(f, a)
            }
        }
    }

    /// `(let (a (if0 C n₁ n₂)) (if0 a M₁ M₂))` with distinct constants
    /// `n₁ ≠ n₂` and arms that mention `a` — the Theorem 5.2 shape.
    fn correlated_diamond(&mut self, env: &mut Vec<(Ident, Ty)>, depth: usize) -> Term {
        let c = self.term(&Ty::Num, env, depth - 2);
        let n1 = self
            .rng
            .gen_range(-self.config.lit_range..=self.config.lit_range);
        let mut n2 = self
            .rng
            .gen_range(-self.config.lit_range..=self.config.lit_range);
        if n2 == n1 {
            n2 += 1;
        }
        let a = self.fresh_var("a");
        env.push((a.clone(), Ty::Num));
        let then_ = build::plus_const(build::var(a.clone()), 1);
        let else_ = self.term(&Ty::Num, env, depth - 2);
        env.pop();
        build::let_(
            a.clone(),
            build::if0(c, build::num(n1), build::num(n2)),
            build::if0(build::var(a), then_, else_),
        )
    }

    /// Generates a syntactic value of type `ty`.
    fn value(&mut self, ty: &Ty, env: &mut Vec<(Ident, Ty)>, depth: usize) -> Term {
        // Prefer a variable of the right type when available.
        let candidates = Self::vars_of(env, ty);
        if !candidates.is_empty() && self.rng.gen_bool(0.5) {
            let i = self.rng.gen_range(0..candidates.len());
            return build::var(candidates[i].clone());
        }
        match ty {
            Ty::Num => {
                if self.rng.gen_range(0..100) < self.config.free_inputs {
                    return build::var("z");
                }
                let n = self
                    .rng
                    .gen_range(-self.config.lit_range..=self.config.lit_range);
                build::num(n)
            }
            Ty::Fun(a, b) => {
                if **a == Ty::Num && **b == Ty::Num && self.rng.gen_bool(0.25) {
                    return if self.rng.gen_bool(0.5) {
                        build::add1()
                    } else {
                        build::sub1()
                    };
                }
                let x = self.fresh_var("p");
                env.push((x.clone(), (**a).clone()));
                let body = self.term(b, env, depth.saturating_sub(1));
                env.pop();
                build::lam(x, body)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpsdfa_anf::AnfProgram;
    use cpsdfa_cps::CpsProgram;
    use cpsdfa_interp::{run_direct, run_semcps, run_syncps, Fuel};
    use cpsdfa_syntax::free::is_closed;

    #[test]
    fn generation_is_deterministic() {
        let c = GenConfig::default();
        assert_eq!(generate(7, &c), generate(7, &c));
        assert_ne!(generate(7, &c), generate(8, &c));
    }

    #[test]
    fn generated_programs_are_closed_by_default() {
        for t in corpus(0, 50, &GenConfig::default()) {
            assert!(is_closed(&t), "open term generated: {t}");
        }
    }

    #[test]
    fn open_config_produces_programs_with_inputs() {
        let open = corpus(0, 50, &open_config());
        assert!(
            open.iter().any(|t| !is_closed(t)),
            "no open programs generated"
        );
        // and they still run with z supplied
        for t in &open {
            let p = AnfProgram::from_term(t);
            let r = run_direct(
                &p,
                &[(cpsdfa_syntax::Ident::new("z"), 1)],
                Fuel::new(200_000),
            );
            assert!(r.is_ok(), "open program stuck: {t}: {r:?}");
        }
    }

    #[test]
    fn generated_programs_run_on_all_three_interpreters() {
        for (i, t) in corpus(100, 60, &GenConfig::default())
            .into_iter()
            .enumerate()
        {
            let p = AnfProgram::from_term(&t);
            let fuel = Fuel::new(200_000);
            let d = run_direct(&p, &[], fuel).unwrap_or_else(|e| panic!("direct #{i}: {e}\n{t}"));
            let s = run_semcps(&p, &[], fuel).unwrap_or_else(|e| panic!("semcps #{i}: {e}\n{t}"));
            let c = CpsProgram::from_anf(&p);
            let m = run_syncps(&c, &[], fuel).unwrap_or_else(|e| panic!("syncps #{i}: {e}\n{t}"));
            // and they agree on numeric answers (Lemmas 3.1, 3.3)
            assert_eq!(d.value.as_num(), s.value.as_num(), "#{i}: {t}");
            assert_eq!(d.value.as_num(), m.value.as_num(), "#{i}: {t}");
        }
    }

    #[test]
    fn corpus_has_varied_sizes() {
        let sizes: Vec<usize> = corpus(0, 30, &GenConfig::default())
            .iter()
            .map(Term::size)
            .collect();
        let min = sizes.iter().min().unwrap();
        let max = sizes.iter().max().unwrap();
        assert!(max > min, "all programs identical in size");
    }

    #[test]
    fn deeper_configs_make_bigger_programs() {
        let small = GenConfig {
            max_depth: 3,
            ..GenConfig::default()
        };
        let large = GenConfig {
            max_depth: 9,
            ..GenConfig::default()
        };
        let avg = |cfg: &GenConfig| -> f64 {
            let c = corpus(0, 40, cfg);
            c.iter().map(|t| t.size() as f64).sum::<f64>() / c.len() as f64
        };
        assert!(avg(&large) > avg(&small));
    }
}
