//! Robustness fuzzing for the parser the daemon runs (`TermArena::parse`,
//! reached through `parse_term`): arbitrary byte soup must parse or fail
//! with a positioned error — never panic — and accepted inputs must
//! round-trip.

use cpsdfa_syntax::parse::{is_valid_ident, parse_term};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parser_never_panics_on_arbitrary_strings(s in ".{0,120}") {
        let _ = parse_term(&s); // ok or Err — both fine, panic is not
    }

    #[test]
    fn parser_never_panics_on_paren_heavy_soup(
        s in "[()λa-z0-9 +.%;\\-]{0,200}"
    ) {
        let _ = parse_term(&s);
    }

    #[test]
    fn accepted_inputs_round_trip(s in "[()a-z0-9 \\-]{0,80}") {
        if let Ok(t) = parse_term(&s) {
            let printed = t.to_string();
            let again = parse_term(&printed)
                .unwrap_or_else(|e| panic!("printed form `{printed}` failed: {e}"));
            prop_assert_eq!(again, t);
        }
    }

    #[test]
    fn error_positions_are_in_bounds(s in ".{0,120}") {
        if let Err(e) = parse_term(&s) {
            prop_assert!(e.position <= s.len(), "position {} > len {}", e.position, s.len());
            prop_assert!(!e.message.is_empty());
            prop_assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn ident_validity_is_stable_under_keywords(w in "[a-zA-Z0-9%+\\-]{1,12}") {
        // is_valid_ident must agree with the parser's acceptance of the
        // word as a bare variable.
        let as_var = parse_term(&w);
        let valid = is_valid_ident(&w);
        let is_literal = w.parse::<i64>().is_ok();
        let is_prim = w == "add1" || w == "sub1";
        if valid {
            prop_assert!(as_var.is_ok(), "valid ident `{w}` rejected");
        } else if !is_literal && !is_prim {
            prop_assert!(as_var.is_err(), "invalid ident `{w}` accepted");
        }
    }
}
