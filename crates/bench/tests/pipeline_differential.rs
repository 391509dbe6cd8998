//! Differential proof obligation for the interned front end: on an
//! 800-program random corpus, parsing a printed program gives back the
//! generator's own term, and the arena pipeline (defunctionalized
//! A-normalizer → arena CPS transform) must be **byte-identical** —
//! printed forms, label counts, label maps — to the legacy boxed pipeline
//! it replaced, which is kept as a test-only oracle
//! (`from_term_via_boxed` / `from_anf_via_boxed`). `core::certify` does not
//! cover this: it takes the lowered program as given.

use cpsdfa_anf::AnfProgram;
use cpsdfa_cps::CpsProgram;
use cpsdfa_syntax::arena::TermArena;
use cpsdfa_syntax::free::free_vars;
use cpsdfa_syntax::Ident;
use cpsdfa_syntax::Term;
use cpsdfa_workloads::random::{corpus, open_config, GenConfig};

/// 800 programs: half from the closed default configuration, half from the
/// open (free-variable) one, drawn from disjoint seed ranges.
fn differential_corpus() -> Vec<Term> {
    let mut terms = corpus(0, 400, &GenConfig::default());
    terms.extend(corpus(1000, 400, &open_config()));
    assert_eq!(terms.len(), 800);
    terms
}

#[test]
fn parser_reproduces_the_generated_corpus() {
    for (i, t) in differential_corpus().iter().enumerate() {
        let src = t.to_string();
        let mut ta = TermArena::new();
        let tid = ta
            .parse(&src)
            .unwrap_or_else(|e| panic!("program {i}: {e}"));
        assert_eq!(
            &ta.to_term(tid),
            t,
            "parse of print differs on program {i}: {src}"
        );
    }
}

#[test]
fn interned_anf_pipeline_is_bit_identical_to_boxed_on_corpus() {
    for (i, t) in differential_corpus().iter().enumerate() {
        let interned = AnfProgram::from_term(t);
        let oracle = AnfProgram::from_term_via_boxed(t);
        assert_eq!(
            interned.root().to_string(),
            oracle.root().to_string(),
            "ANF printed forms disagree on program {i}: {t}"
        );
        assert_eq!(interned.label_count(), oracle.label_count(), "program {i}");
        assert_eq!(
            interned.lambda_labels(),
            oracle.lambda_labels(),
            "program {i}"
        );
        // `from_term` indexes the source term's free variables; they must
        // be the normalized program's, in name order.
        let indexed: Vec<&str> = interned
            .free_vars()
            .iter()
            .map(|&v| interned.ident(v).as_str())
            .collect();
        let mut normalized: Vec<Ident> =
            free_vars(&interned.root().to_term()).into_iter().collect();
        normalized.sort_by_key(|x| x.as_str());
        let normalized: Vec<&str> = normalized.iter().map(Ident::as_str).collect();
        assert_eq!(indexed, normalized, "program {i}");
    }
}

#[test]
fn interned_cps_pipeline_is_bit_identical_to_boxed_on_corpus() {
    for (i, t) in differential_corpus().iter().enumerate() {
        let prog = AnfProgram::from_term(t);
        let interned = CpsProgram::from_anf(&prog);
        let oracle = CpsProgram::from_anf_via_boxed(&prog);
        assert_eq!(
            interned.root().to_string(),
            oracle.root().to_string(),
            "CPS printed forms disagree on program {i}: {t}"
        );
        assert_eq!(interned.label_count(), oracle.label_count(), "program {i}");
        assert_eq!(
            interned.label_map().lam,
            oracle.label_map().lam,
            "program {i}"
        );
        assert_eq!(
            interned.label_map().cont_of_let,
            oracle.label_map().cont_of_let,
            "program {i}"
        );
    }
}
