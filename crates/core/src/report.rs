//! Human-readable rendering of analysis results, used by the examples and
//! the experiment harness.

use crate::absval::{AbsStore, CAbsStore};
use crate::cache::CacheStats;
use crate::domain::NumDomain;
use crate::stats::SolverStats;
use crate::trace::AggSink;
use cpsdfa_anf::AnfProgram;
use cpsdfa_cps::CpsProgram;
use std::fmt::Write as _;

/// Renders a direct/semantic-CPS store as one `x ↦ (n̂, {closures})` line
/// per variable, in index order.
pub fn render_store<D: NumDomain>(prog: &AnfProgram, store: &AbsStore<D>) -> String {
    let mut out = String::new();
    for (v, name) in prog.iter_vars() {
        let _ = writeln!(out, "  {name:<10} ↦ {}", store.get(v));
    }
    out
}

/// Renders a syntactic-CPS store, both namespaces, in index order.
pub fn render_cstore<D: NumDomain>(prog: &CpsProgram, store: &CAbsStore<D>) -> String {
    let mut out = String::new();
    for (v, key) in prog.iter_vars() {
        let _ = writeln!(out, "  {:<10} ↦ {}", key.to_string(), store.get(v));
    }
    out
}

/// Renders the sparse-engine counters of one analysis run as an indented
/// block: scheduling work on the first line, savings relative to a dense
/// sweep on the second, semi-naïve delta sizes on the third. `coalesced`
/// posts are evaluations a dense formulation pays for and the sparse one
/// does not; `mean delta` is how little of each watched set a firing
/// actually re-reads.
pub fn render_solver_stats(label: &str, stats: &SolverStats) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "  {label:<10} {} nodes, {} constraints, {} fired ({} posts, {} coalesced)",
        stats.nodes, stats.constraints, stats.fired, stats.posted, stats.coalesced
    );
    let _ = writeln!(
        out,
        "  {:<10} {} node updates, queue peak {}, {} pooled sets",
        "", stats.node_updates, stats.queue_peak, stats.pool_interned
    );
    let hist = stats
        .delta_hist
        .iter()
        .map(|c| c.to_string())
        .collect::<Vec<_>>()
        .join("/");
    let _ = writeln!(
        out,
        "  {:<10} {} delta elems, mean delta {:.2}, size hist [{hist}]",
        "",
        stats.delta_elems,
        stats.mean_delta()
    );
    out
}

/// [`render_solver_stats`] fed from an aggregated trace instead of a live
/// `SolverStats` value: reconstructs the counters emitted under `prefix`
/// (via [`SolverStats::from_agg`]) and renders the same block. This is the
/// unification point between the hand-rolled counter plumbing and the trace
/// layer — a recorded JSONL file reproduces the report byte-for-byte.
pub fn render_solver_stats_from_agg(label: &str, agg: &AggSink, prefix: &str) -> String {
    render_solver_stats(label, &SolverStats::from_agg(agg, prefix))
}

/// Renders the content-addressed cache's counters as an indented block:
/// traffic (hits/misses and the derived hit rate) on the first line,
/// residency against the eviction ceiling on the second.
pub fn render_cache_stats(label: &str, stats: &CacheStats) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "  {label:<10} {} hits, {} misses ({:.0}% hit rate), {} inserted, {} evicted, {} rejected",
        stats.hits,
        stats.misses,
        stats.hit_rate() * 100.0,
        stats.inserts,
        stats.evictions,
        stats.rejects
    );
    let _ = writeln!(
        out,
        "  {:<10} {} entries resident, {} / {} bytes",
        "", stats.entries, stats.bytes, stats.ceiling_bytes
    );
    out
}

/// [`render_cache_stats`] fed from an aggregated trace instead of a live
/// [`CacheStats`] value: reconstructs the `cache.*` counters emitted under
/// `prefix` (via [`CacheStats::from_agg`]) and renders the same block, so
/// a recorded JSONL service trace reproduces the cache report
/// byte-for-byte — the same contract [`render_solver_stats_from_agg`]
/// gives the solver counters.
pub fn render_cache_stats_from_agg(label: &str, agg: &AggSink, prefix: &str) -> String {
    render_cache_stats(label, &CacheStats::from_agg(agg, prefix))
}

/// Renders a two-column side-by-side comparison of per-variable rows.
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let ncols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(ncols) {
            widths[i] = widths[i].max(cell.chars().count());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            let w = widths.get(i).copied().unwrap_or(0);
            let pad = w.saturating_sub(cell.chars().count());
            let _ = write!(line, "| {}{} ", cell, " ".repeat(pad));
        }
        line.push('|');
        line
    };
    let hdr: Vec<String> = header.iter().map(|s| (*s).to_owned()).collect();
    out.push_str(&fmt_row(&hdr, &widths));
    out.push('\n');
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    out.push_str(&fmt_row(&sep, &widths));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct::DirectAnalyzer;
    use crate::domain::Flat;
    use crate::govern::RunGuard;
    use crate::syncps::SynCpsAnalyzer;

    #[test]
    fn store_rendering_lists_every_variable() {
        let p = AnfProgram::parse("(let (a 1) (let (b (add1 a)) b))").unwrap();
        let r = DirectAnalyzer::<Flat>::new(&p).analyze().unwrap();
        let text = render_store(&p, &r.store);
        assert!(text.contains("a "));
        assert!(text.contains("b "));
        assert!(text.contains("(2, ∅)"));
    }

    #[test]
    fn cstore_rendering_includes_continuation_vars() {
        let p = AnfProgram::parse("(let (f (lambda (x) x)) (f 1))").unwrap();
        let c = CpsProgram::from_anf(&p);
        let r = SynCpsAnalyzer::<Flat>::new(&c).analyze().unwrap();
        let text = render_cstore(&c, &r.store);
        assert!(text.contains("k%"));
        assert!(text.contains("stop"));
    }

    #[test]
    fn solver_stats_rendering_names_the_savings() {
        let p = AnfProgram::parse("(let (f (lambda (x) x)) (f f))").unwrap();
        let (_, stats) = crate::cfa::zero_cfa_instrumented(&p).unwrap();
        let text = render_solver_stats("0CFA", &stats);
        assert!(text.contains("0CFA"));
        assert!(text.contains("coalesced"));
        assert!(text.contains("queue peak"));
        assert!(text.contains("pooled sets"));
        assert!(text.contains("mean delta"));
        assert!(text.contains("size hist ["));
    }

    #[test]
    fn agg_rendering_reproduces_the_live_report() {
        use crate::budget::AnalysisBudget;
        let p = AnfProgram::parse("(let (f (lambda (x) x)) (f f))").unwrap();
        let mut agg = AggSink::new();
        let (_, stats) =
            crate::cfa::zero_cfa_guarded(&p, &RunGuard::new(AnalysisBudget::default()), &mut agg)
                .unwrap();
        assert_eq!(
            render_solver_stats_from_agg("0CFA", &agg, "cfa.src"),
            render_solver_stats("0CFA", &stats),
            "trace-reconstructed report must match the live one"
        );
    }

    #[test]
    fn cache_report_round_trips_through_jsonl() {
        use crate::trace::JsonlSink;
        let stats = CacheStats {
            hits: 42,
            misses: 8,
            inserts: 8,
            evictions: 3,
            rejects: 1,
            bytes: 65536,
            entries: 5,
            ceiling_bytes: 1 << 20,
            ..CacheStats::default()
        };
        let live = render_cache_stats("service", &stats);
        assert!(live.contains("84% hit rate"));
        assert!(live.contains("65536 / 1048576 bytes"));
        // Live → JSONL stream → AggSink replay → identical report.
        let mut jsonl = JsonlSink::new(Vec::new());
        stats.emit_into(&mut jsonl, "cache");
        let text = String::from_utf8(jsonl.into_inner()).unwrap();
        let agg = AggSink::from_jsonl(&text);
        assert_eq!(
            render_cache_stats_from_agg("service", &agg, "cache"),
            live,
            "trace-reconstructed cache report must match the live one"
        );
    }

    #[test]
    fn agg_replay_preserves_counters_and_gauges() {
        use crate::trace::TraceSink;
        let mut per_request = AggSink::new();
        per_request.counter("cache.hit", 3);
        per_request.counter("cache.hit", 2);
        per_request.gauge("cache.bytes", 512);
        per_request.time_ns("service.req.solve", 1000);
        per_request.time_ns("service.req.solve", 500);
        let mut shared = AggSink::new();
        shared.counter("cache.hit", 10); // pre-existing traffic
        per_request.replay_into(&mut shared);
        assert_eq!(shared.counter_value("cache.hit"), 15);
        assert_eq!(shared.gauge_value("cache.bytes"), 512);
        assert_eq!(
            shared.timer_agg("service.req.solve").unwrap().total_ns,
            1500,
            "timer totals survive replay"
        );
    }

    #[test]
    fn tables_align_columns() {
        let t = render_table(
            &["var", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "⊤".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("| var"));
        assert!(lines[2].contains("| a"));
    }
}
