//! Property tests: printing then parsing is the identity on Λ terms, also
//! when the text is laid out with arbitrary whitespace, comments and the
//! other spellings the grammar allows, and α-freshening preserves
//! size/shape while establishing unique binders.

use cpsdfa_syntax::ast::{Term, Value};
use cpsdfa_syntax::free::has_unique_binders;
use cpsdfa_syntax::fresh::freshen;
use cpsdfa_syntax::parse::parse_term;
use proptest::prelude::*;

/// Strategy for source-level identifiers (no `%`, not keywords).
fn ident_strategy() -> impl Strategy<Value = String> {
    prop::sample::select(vec![
        "a", "b", "c", "f", "g", "x", "y", "z", "acc", "n", "tmp", "fun-1", "lst?",
    ])
    .prop_map(str::to_owned)
}

fn term_strategy() -> impl Strategy<Value = Term> {
    let leaf = prop_oneof![
        any::<i32>().prop_map(|n| Term::Value(Value::Num(n as i64))),
        ident_strategy().prop_map(|x| Term::Value(Value::Var(x.into()))),
        Just(Term::Value(Value::Add1)),
        Just(Term::Value(Value::Sub1)),
        Just(Term::Loop),
    ];
    leaf.prop_recursive(5, 64, 3, |inner| {
        prop_oneof![
            (ident_strategy(), inner.clone())
                .prop_map(|(x, b)| Term::Value(Value::Lam(x.into(), Box::new(b)))),
            (inner.clone(), inner.clone()).prop_map(|(f, a)| Term::App(Box::new(f), Box::new(a))),
            (ident_strategy(), inner.clone(), inner.clone()).prop_map(|(x, r, b)| Term::Let(
                x.into(),
                Box::new(r),
                Box::new(b)
            )),
            (inner.clone(), inner.clone(), inner).prop_map(|(c, t, e)| Term::If0(
                Box::new(c),
                Box::new(t),
                Box::new(e)
            )),
        ]
    })
}

/// A splitmix64 stream: the layout choices of one [`noisy`] rendering.
struct Choices(u64);

impl Choices {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }
}

/// The tokens of a rendering of `t` that the printer never emits: `λ` for
/// some `lambda`s, curried applications `(f a b)` for some nested ones,
/// and `(+ M n)` for some `add1`/`sub1` chains.
fn noisy_tokens(t: &Term, c: &mut Choices, out: &mut Vec<String>) {
    let chain = |prim: &Value| {
        let mut n = 0;
        let mut m = t;
        while let Term::App(f, a) = m {
            if **f != Term::Value(prim.clone()) {
                break;
            }
            n += 1;
            m = a;
        }
        (n, m)
    };
    for (prim, sign) in [(Value::Add1, 1i64), (Value::Sub1, -1)] {
        let (n, m) = chain(&prim);
        if n > 0 && c.below(3) == 0 {
            out.push("(".into());
            out.push("+".into());
            noisy_tokens(m, c, out);
            out.push((sign * n).to_string());
            out.push(")".into());
            return;
        }
    }
    match t {
        Term::Value(Value::Lam(x, body)) => {
            out.push("(".into());
            out.push(if c.below(2) == 0 { "λ" } else { "lambda" }.into());
            out.extend(["(".into(), x.to_string(), ")".into()]);
            noisy_tokens(body, c, out);
            out.push(")".into());
        }
        Term::Value(v) => out.push(v.to_string()),
        Term::App(..) if c.below(2) == 0 => {
            // Curried: `((f a) b)` as `(f a b)`.
            let mut args = Vec::new();
            let mut head = t;
            while let Term::App(f, a) = head {
                args.push(&**a);
                head = f;
            }
            out.push("(".into());
            noisy_tokens(head, c, out);
            for a in args.into_iter().rev() {
                noisy_tokens(a, c, out);
            }
            out.push(")".into());
        }
        Term::App(f, a) => {
            out.push("(".into());
            noisy_tokens(f, c, out);
            noisy_tokens(a, c, out);
            out.push(")".into());
        }
        Term::Let(x, rhs, body) => {
            out.extend(["(".into(), "let".into(), "(".into(), x.to_string()]);
            noisy_tokens(rhs, c, out);
            out.push(")".into());
            noisy_tokens(body, c, out);
            out.push(")".into());
        }
        Term::If0(cond, then_, else_) => {
            out.extend(["(".into(), "if0".into()]);
            for part in [cond, then_, else_] {
                noisy_tokens(part, c, out);
            }
            out.push(")".into());
        }
        Term::Loop => out.extend(["(".into(), "loop".into(), ")".into()]),
    }
}

/// Renders `t` as [`noisy_tokens`] with random trivia between tokens:
/// spaces, tabs, newlines, a non-ASCII space and `;` comments, which end
/// at a newline or at the end of the text.
fn noisy(t: &Term, seed: u64) -> String {
    const GAPS: [&str; 8] = [
        " ",
        "  ",
        "\t",
        "\n",
        "\r\n",
        "\u{2003}",
        "; note ( ) λ\n",
        " ;;\n\t",
    ];
    let mut c = Choices(seed);
    let mut tokens = Vec::new();
    noisy_tokens(t, &mut c, &mut tokens);
    let is_paren = |tok: &str| tok == "(" || tok == ")";
    let mut out = String::new();
    let mut prev: Option<&str> = None;
    for tok in &tokens {
        // Two atoms need a separator; next to a parenthesis it is optional.
        let needed = prev.is_some_and(|p| !is_paren(p) && !is_paren(tok));
        if needed || c.below(2) == 0 {
            out.push_str(GAPS[c.below(GAPS.len() as u64) as usize]);
        }
        out.push_str(tok);
        prev = Some(tok);
    }
    if c.below(2) == 0 {
        out.push_str(GAPS[c.below(GAPS.len() as u64) as usize]);
    }
    if c.below(4) == 0 {
        out.push_str("; trailing comment");
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn print_parse_roundtrip(t in term_strategy()) {
        let printed = t.to_string();
        let reparsed = parse_term(&printed)
            .unwrap_or_else(|e| panic!("printed term failed to parse: {printed}: {e}"));
        prop_assert_eq!(reparsed, t);
    }

    #[test]
    fn parse_ignores_layout_comments_and_spelling(t in term_strategy(), seed in any::<u64>()) {
        let text = noisy(&t, seed);
        let reparsed = parse_term(&text)
            .unwrap_or_else(|e| panic!("noisy rendering failed to parse: {text:?}: {e}"));
        prop_assert_eq!(reparsed, t);
    }

    #[test]
    fn freshen_establishes_unique_binders(t in term_strategy()) {
        let (u, _) = freshen(&t);
        prop_assert!(has_unique_binders(&u));
        prop_assert_eq!(u.size(), t.size());
        prop_assert_eq!(u.depth(), t.depth());
        prop_assert_eq!(u.lambda_count(), t.lambda_count());
    }

    #[test]
    fn freshen_is_stable_under_reprinting(t in term_strategy()) {
        // freshening, printing and reparsing yields a structurally equal term
        let (u, _) = freshen(&t);
        // Fresh names contain '%' which the parser rejects by design, so we
        // compare against the pretty printer only when no '%' appears.
        let printed = u.to_string();
        if !printed.contains('%') {
            prop_assert_eq!(parse_term(&printed).unwrap(), u);
        }
    }
}
