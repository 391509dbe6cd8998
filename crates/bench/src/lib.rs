//! Shared helpers for the cpsdfa benches and the experiment harness.
//!
//! The benches (one per cost claim of §6.2, see `DESIGN.md`'s experiment
//! index) live under `benches/`; the table-producing harness is the
//! `experiments` binary.

use cpsdfa_anf::{label_anf, normalize, normalize_arena, AnfProgram};
use cpsdfa_core::domain::NumDomain;
use cpsdfa_core::{AnalysisBudget, AnalysisError, DirectAnalyzer, SemCpsAnalyzer, SynCpsAnalyzer};
use cpsdfa_cps::{cps_transform, cps_transform_arena, CpsProgram};
use cpsdfa_syntax::arena::TermArena;
use cpsdfa_syntax::parse::parse_term;
use cpsdfa_syntax::FreshGen;

/// Which of the paper's three analyzers to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Analyzer {
    /// `M_e`, Figure 4.
    Direct,
    /// `M_e` with §6.3 bounded duplication at depth `d`.
    DirectDup(u32),
    /// `C_e`, Figure 5.
    SemCps,
    /// `M_s`, Figure 6 (runs on the CPS transform of the program).
    SynCps,
}

impl Analyzer {
    /// Short label for tables.
    pub fn label(&self) -> String {
        match self {
            Analyzer::Direct => "direct".to_owned(),
            Analyzer::DirectDup(d) => format!("direct+dup{d}"),
            Analyzer::SemCps => "semantic-cps".to_owned(),
            Analyzer::SynCps => "syntactic-cps".to_owned(),
        }
    }
}

/// One measured run: goals expanded (machine-independent cost) or a budget
/// failure.
pub fn run_goals<D: NumDomain>(
    analyzer: Analyzer,
    prog: &AnfProgram,
    budget: AnalysisBudget,
) -> Result<u64, AnalysisError> {
    match analyzer {
        Analyzer::Direct => Ok(DirectAnalyzer::<D>::new(prog)
            .with_budget(budget)
            .analyze()?
            .stats
            .goals),
        Analyzer::DirectDup(d) => Ok(DirectAnalyzer::<D>::new(prog)
            .with_budget(budget)
            .with_duplication_depth(d)
            .analyze()?
            .stats
            .goals),
        Analyzer::SemCps => Ok(SemCpsAnalyzer::<D>::new(prog)
            .with_budget(budget)
            .analyze()?
            .stats
            .goals),
        Analyzer::SynCps => {
            let cps = CpsProgram::from_anf(prog);
            Ok(SynCpsAnalyzer::<D>::new(&cps)
                .with_budget(budget)
                .analyze()?
                .stats
                .goals)
        }
    }
}

/// Runs the analyzer purely for wall-time measurement, returning a value
/// that depends on the result so the optimizer cannot elide the work.
pub fn run_blackbox<D: NumDomain>(analyzer: Analyzer, prog: &AnfProgram) -> u64 {
    run_goals::<D>(analyzer, prog, AnalysisBudget::default()).unwrap_or(u64::MAX)
}

/// What one front-end pipeline run produced. The label counts are the
/// "nodes processed" measure for throughput (every ANF and CPS node gets
/// exactly one label); `arena_bytes` is the interned pipeline's peak arena
/// footprint (0 for the boxed pipeline, whose allocations are scattered
/// `Box`es with no single measurable pool).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineOut {
    /// Labels assigned by the A-normalizer.
    pub anf_labels: u32,
    /// Labels assigned by the CPS transform.
    pub cps_labels: u32,
    /// Bytes held by the Λ/ANF/CPS arenas after the run.
    pub arena_bytes: usize,
}

impl PipelineOut {
    /// Total labeled nodes produced — the unit of pipeline throughput.
    pub fn nodes(&self) -> u64 {
        u64::from(self.anf_labels) + u64::from(self.cps_labels)
    }
}

/// The legacy boxed front end: parse to a boxed tree → boxed A-normalize →
/// label → boxed CPS transform. The parse is the one arena parser followed
/// by `to_term`, so only the stages after it are the boxed oracles. Assumes
/// the source has unique binders (all workload families do), matching what
/// `AnfProgram::from_term` skips freshening on.
pub fn pipeline_boxed(src: &str) -> PipelineOut {
    let t = parse_term(src).expect("pipeline source parses");
    let mut gen = FreshGen::new();
    let mut root = normalize(&t, &mut gen);
    let anf_labels = label_anf(&mut root);
    let tx = cps_transform(&root, &mut gen);
    PipelineOut {
        anf_labels,
        cps_labels: tx.label_count,
        arena_bytes: 0,
    }
}

/// The interned front end: parse into the hash-consed Λ arena → arena
/// A-normalize → label → arena CPS transform. Produces byte-identical
/// printed output and identical label assignments to [`pipeline_boxed`]
/// (asserted by the differential corpus tests), allocating flat arena nodes
/// instead of boxed trees.
pub fn pipeline_interned(src: &str) -> PipelineOut {
    let mut ta = TermArena::new();
    let tid = ta.parse(src).expect("pipeline source parses");
    let mut gen = FreshGen::new();
    let (mut anf, root) = normalize_arena(&ta, tid, &mut gen);
    let anf_labels = anf.assign_labels(root);
    let tx = cps_transform_arena(&anf, root, &mut gen);
    PipelineOut {
        anf_labels,
        cps_labels: tx.label_count,
        arena_bytes: ta.arena_bytes() + anf.arena_bytes() + tx.arena.arena_bytes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpsdfa_core::domain::Flat;
    use cpsdfa_workloads::families;

    #[test]
    fn helpers_run_every_analyzer() {
        let prog = AnfProgram::from_term(&families::cond_chain(3));
        for a in [
            Analyzer::Direct,
            Analyzer::DirectDup(1),
            Analyzer::SemCps,
            Analyzer::SynCps,
        ] {
            let goals = run_goals::<Flat>(a, &prog, AnalysisBudget::default()).unwrap();
            assert!(goals > 0, "{}", a.label());
        }
    }

    #[test]
    fn pipelines_agree_on_label_counts() {
        for n in [4, 16] {
            let src = families::dispatch(n).to_string();
            let boxed = pipeline_boxed(&src);
            let interned = pipeline_interned(&src);
            assert_eq!(boxed.anf_labels, interned.anf_labels, "n = {n}");
            assert_eq!(boxed.cps_labels, interned.cps_labels, "n = {n}");
            assert!(interned.nodes() > 0);
            assert!(interned.arena_bytes > 0);
        }
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<String> = [
            Analyzer::Direct,
            Analyzer::DirectDup(1),
            Analyzer::DirectDup(2),
            Analyzer::SemCps,
            Analyzer::SynCps,
        ]
        .iter()
        .map(Analyzer::label)
        .collect();
        assert_eq!(labels.len(), 5);
    }
}
