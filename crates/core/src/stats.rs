//! Machine-independent cost accounting for the analyzers.
//!
//! §6.2 argues that CPS-style analyses duplicate the analysis of the
//! continuation "at an overall exponential cost". Wall-clock time depends
//! on the machine; *goals expanded* does not, so every analyzer counts its
//! rule instantiations, cycle cuts (§4.4 loop detections), and maximum
//! derivation depth. The cost experiments (E6–E8) report these.

use crate::trace::{AggSink, TraceSink};
use std::fmt;

/// Counters accumulated during one analysis run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AnalysisStats {
    /// Rule instantiations (term-evaluation goals).
    pub goals: u64,
    /// §4.4 loop detections: goals answered with the least-precise value
    /// because `(M, σ)` repeated on the derivation path.
    pub cycle_cuts: u64,
    /// Deepest derivation path observed.
    pub max_depth: usize,
    /// Continuation applications (`appr`-style transitions), where the
    /// duplication of §6.2 shows up directly.
    pub returns: u64,
}

impl AnalysisStats {
    /// Records entering a goal at depth `depth`.
    pub(crate) fn enter_goal(&mut self, depth: usize) {
        self.goals += 1;
        self.max_depth = self.max_depth.max(depth);
    }

    /// Flushes these counters into a trace sink under `prefix` (e.g.
    /// `semcps.goals`, `semcps.max_depth`). One call per run — the per-goal
    /// path never touches the sink.
    pub fn emit_into(&self, sink: &mut impl TraceSink, prefix: &str) {
        if !sink.enabled() {
            return;
        }
        sink.counter(&format!("{prefix}.goals"), self.goals);
        sink.counter(&format!("{prefix}.cycle_cuts"), self.cycle_cuts);
        sink.counter(&format!("{prefix}.returns"), self.returns);
        sink.gauge(&format!("{prefix}.max_depth"), self.max_depth as u64);
    }
}

impl fmt::Display for AnalysisStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "goals={} returns={} cuts={} depth={}",
            self.goals, self.returns, self.cycle_cuts, self.max_depth
        )
    }
}

/// Counters from one run of the sparse worklist engine
/// ([`WorklistSolver`](crate::solver::WorklistSolver)), optionally folded
/// together with the set-pool counters of the same run. The interesting
/// quantity for §6-style cost arguments is `coalesced`: every coalesced
/// post is a constraint evaluation the dense formulation would have paid
/// for and the sparse one did not.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SolverStats {
    /// Flow nodes registered.
    pub nodes: u64,
    /// Constraints registered.
    pub constraints: u64,
    /// Constraint activations requested (initial posts + change posts).
    pub posted: u64,
    /// Activations absorbed by an already-pending constraint — re-visits
    /// the sparse engine saved.
    pub coalesced: u64,
    /// Constraint evaluations actually performed.
    pub fired: u64,
    /// Node-value growth events observed.
    pub node_updates: u64,
    /// Worklist depth high-water mark (pending constraints, both rounds).
    pub queue_peak: u64,
    /// Worklist rounds started: each round drains its queue in rank order
    /// before the posts it deferred begin the next one.
    pub rounds: u64,
    /// Distinct sets the run committed, the empty set counted once (0 for
    /// runs without a commit, such as MFP).
    pub pool_interned: u64,
    /// Canonical-run commits answered from the commit memo
    /// ([`DeltaNodes::commit`](crate::setpool::DeltaNodes::commit)).
    pub pool_commit_hits: u64,
    /// Canonical-run commits that had to build a set.
    pub pool_commit_misses: u64,
    /// Non-empty per-watch delta deliveries
    /// ([`take_deltas`](crate::solver::WorklistSolver::take_deltas) ranges).
    pub delta_batches: u64,
    /// Total delta elements delivered across all firings (for
    /// version-counter clients such as MFP: change events observed).
    pub delta_elems: u64,
    /// Histogram of per-firing delta sizes in log₂ buckets:
    /// `[0, 1, 2, 3–4, 5–8, 9–16, 17–32, >32]`. The shape distinguishes
    /// semi-naïve regimes (many small deltas) from full re-reads (few huge
    /// ones); E16 renders it alongside firings × mean-delta.
    pub delta_hist: [u64; 8],
}

/// Upper bounds of the [`SolverStats::delta_hist`] buckets (the last bucket
/// is unbounded).
pub const DELTA_HIST_BOUNDS: [u64; 7] = [0, 1, 2, 4, 8, 16, 32];

impl SolverStats {
    /// Folds a run's commit counters into these solver counters.
    #[must_use]
    pub fn with_pool(mut self, pool: crate::setpool::PoolStats) -> Self {
        self.pool_interned += pool.interned;
        self.pool_commit_hits += pool.commit_hits;
        self.pool_commit_misses += pool.commit_misses;
        self
    }

    /// Flushes these counters into a trace sink under `prefix` (e.g.
    /// `solver.fired` for `prefix = "solver"`). Emission is a phase-boundary
    /// operation: the solver hot loop keeps its plain field increments and
    /// this method publishes them once per run. [`from_agg`] inverts it.
    ///
    /// [`from_agg`]: SolverStats::from_agg
    pub fn emit_into(&self, sink: &mut impl TraceSink, prefix: &str) {
        if !sink.enabled() {
            return;
        }
        sink.counter(&format!("{prefix}.nodes"), self.nodes);
        sink.counter(&format!("{prefix}.constraints"), self.constraints);
        sink.counter(&format!("{prefix}.posted"), self.posted);
        sink.counter(&format!("{prefix}.coalesced"), self.coalesced);
        sink.counter(&format!("{prefix}.fired"), self.fired);
        sink.counter(&format!("{prefix}.node_updates"), self.node_updates);
        sink.gauge(&format!("{prefix}.queue_peak"), self.queue_peak);
        sink.counter(&format!("{prefix}.rounds"), self.rounds);
        sink.counter(&format!("{prefix}.pool.interned"), self.pool_interned);
        sink.counter(&format!("{prefix}.pool.commit_hits"), self.pool_commit_hits);
        sink.counter(
            &format!("{prefix}.pool.commit_misses"),
            self.pool_commit_misses,
        );
        sink.counter(&format!("{prefix}.delta_batches"), self.delta_batches);
        sink.counter(&format!("{prefix}.delta_elems"), self.delta_elems);
        for (i, &n) in self.delta_hist.iter().enumerate() {
            sink.counter(&format!("{prefix}.delta_hist.{i}"), n);
        }
    }

    /// Reconstructs solver counters from an aggregated trace, inverting
    /// [`emit_into`] — the mechanism by which `experiments -- E16` rebuilds
    /// its table from a recorded JSONL file. Gauges (queue peak) come back
    /// as the max across merged runs; counters as sums.
    ///
    /// [`emit_into`]: SolverStats::emit_into
    pub fn from_agg(agg: &AggSink, prefix: &str) -> Self {
        let c = |name: &str| agg.counter_value(&format!("{prefix}.{name}"));
        let mut delta_hist = [0u64; 8];
        for (i, slot) in delta_hist.iter_mut().enumerate() {
            *slot = c(&format!("delta_hist.{i}"));
        }
        SolverStats {
            nodes: c("nodes"),
            constraints: c("constraints"),
            posted: c("posted"),
            coalesced: c("coalesced"),
            fired: c("fired"),
            node_updates: c("node_updates"),
            queue_peak: agg.gauge_value(&format!("{prefix}.queue_peak")),
            rounds: c("rounds"),
            pool_interned: c("pool.interned"),
            pool_commit_hits: c("pool.commit_hits"),
            pool_commit_misses: c("pool.commit_misses"),
            delta_batches: c("delta_batches"),
            delta_elems: c("delta_elems"),
            delta_hist,
        }
    }

    /// Buckets one firing's total delta size into [`delta_hist`]
    /// (`[0, 1, 2, 3–4, 5–8, 9–16, 17–32, >32]`).
    ///
    /// [`delta_hist`]: SolverStats::delta_hist
    pub fn record_delta(&mut self, size: usize) {
        let bucket = DELTA_HIST_BOUNDS
            .iter()
            .position(|&hi| size as u64 <= hi)
            .unwrap_or(DELTA_HIST_BOUNDS.len());
        self.delta_hist[bucket] += 1;
    }

    /// Mean delta elements per constraint firing — the semi-naïve payoff
    /// metric E16 reports as `firings × mean-delta`.
    pub fn mean_delta(&self) -> f64 {
        if self.fired == 0 {
            0.0
        } else {
            self.delta_elems as f64 / self.fired as f64
        }
    }
}

impl fmt::Display for SolverStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "nodes={} constraints={} posted={} coalesced={} fired={} updates={} \
             delta(elems={} mean={:.2}) pool(sets={})",
            self.nodes,
            self.constraints,
            self.posted,
            self.coalesced,
            self.fired,
            self.node_updates,
            self.delta_elems,
            self.mean_delta(),
            self.pool_interned,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enter_goal_tracks_depth_high_water_mark() {
        let mut s = AnalysisStats::default();
        s.enter_goal(3);
        s.enter_goal(1);
        assert_eq!(s.goals, 2);
        assert_eq!(s.max_depth, 3);
    }

    #[test]
    fn display_lists_all_counters() {
        let s = AnalysisStats {
            goals: 1,
            cycle_cuts: 2,
            max_depth: 3,
            returns: 4,
        };
        let text = s.to_string();
        for needle in ["goals=1", "cuts=2", "depth=3", "returns=4"] {
            assert!(text.contains(needle));
        }
    }

    #[test]
    fn solver_stats_fold_pool_counters() {
        let pool = crate::setpool::PoolStats {
            interned: 5,
            commit_hits: 3,
            commit_misses: 1,
        };
        let s = SolverStats {
            posted: 10,
            coalesced: 4,
            fired: 6,
            ..SolverStats::default()
        }
        .with_pool(pool);
        assert_eq!(s.pool_interned, 5);
        assert_eq!((s.pool_commit_hits, s.pool_commit_misses), (3, 1));
        let text = s.to_string();
        for needle in ["posted=10", "coalesced=4", "fired=6", "pool(sets=5)"] {
            assert!(text.contains(needle), "missing {needle} in {text}");
        }
    }

    #[test]
    fn delta_histogram_buckets_by_size() {
        let mut s = SolverStats::default();
        for size in [0usize, 1, 2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 1000] {
            s.record_delta(size);
        }
        assert_eq!(s.delta_hist, [1, 1, 1, 2, 2, 2, 2, 2]);
    }

    #[test]
    fn solver_stats_round_trip_through_the_agg_sink() {
        let mut s = SolverStats {
            nodes: 3,
            constraints: 4,
            posted: 10,
            coalesced: 2,
            fired: 8,
            node_updates: 6,
            queue_peak: 5,
            rounds: 11,
            pool_interned: 7,
            pool_commit_hits: 3,
            pool_commit_misses: 4,
            delta_batches: 9,
            delta_elems: 20,
            delta_hist: [0; 8],
        };
        s.record_delta(3);
        s.record_delta(40);
        let mut agg = AggSink::new();
        s.emit_into(&mut agg, "solver");
        assert_eq!(SolverStats::from_agg(&agg, "solver"), s);
        // Emitting a second run accumulates counters and maxes the gauge.
        s.emit_into(&mut agg, "solver");
        let doubled = SolverStats::from_agg(&agg, "solver");
        assert_eq!(doubled.fired, 16);
        assert_eq!(doubled.queue_peak, 5);
    }

    #[test]
    fn analysis_stats_emit_under_a_prefix() {
        let s = AnalysisStats {
            goals: 11,
            cycle_cuts: 2,
            max_depth: 7,
            returns: 3,
        };
        let mut agg = AggSink::new();
        s.emit_into(&mut agg, "semcps");
        assert_eq!(agg.counter_value("semcps.goals"), 11);
        assert_eq!(agg.gauge_value("semcps.max_depth"), 7);
        // The no-op sink takes the early-out and stays empty.
        s.emit_into(&mut crate::trace::NoopSink, "semcps");
    }

    #[test]
    fn mean_delta_divides_elems_by_firings() {
        let s = SolverStats {
            fired: 4,
            delta_elems: 10,
            ..SolverStats::default()
        };
        assert!((s.mean_delta() - 2.5).abs() < 1e-9);
        assert_eq!(SolverStats::default().mean_delta(), 0.0);
        let text = s.to_string();
        assert!(text.contains("delta(elems=10 mean=2.50)"), "got {text}");
    }
}
