//! The shared sparse, dependency-driven worklist fixpoint engine, with
//! **semi-naïve (delta) propagation**.
//!
//! Every fixpoint computation in this crate — source and CPS 0CFA
//! ([`cfa`](crate::cfa)), pushdown CFA ([`pushdown`](crate::pushdown)) and
//! the classical MFP solver ([`mfp`](crate::mfp)) — is an instance of the
//! same shape: a graph of
//! *flow nodes* carrying lattice values and *constraints* that read some
//! nodes and join into others. The dense formulation re-evaluates every
//! constraint each sweep until nothing changes; this engine re-evaluates a
//! constraint only when a node it *watches* actually changed, which turns
//! O(iterations × constraints) sweeps into O(total firings) — the standard
//! sparse worklist discipline of constraint-based CFA solvers.
//!
//! On top of the sparse discipline the engine supports **difference
//! propagation**, the semi-naïve evaluation strategy of Datalog-based CFA
//! engines: a constraint firing receives only the *delta* of each watched
//! node — the elements appended since this watcher last fired — rather
//! than re-reading whole sets. Each `watch` edge carries a cursor into the
//! watched node's append-only growth log; [`WorklistSolver::take_deltas`]
//! hands the un-consumed `(node, lo, hi)` ranges to the firing and
//! advances the cursors, so posts that coalesce while a constraint is
//! pending merge into one delta and nothing is ever delivered twice.
//!
//! The engine is deliberately value-agnostic: it schedules constraint ids
//! and tracks per-watch cursors, while the client owns the node values
//! (append-only element logs with [`DeltaNodes`](crate::setpool::DeltaNodes)
//! for the CFA solvers, reaching-source bitsets and source values for MFP)
//! and calls [`WorklistSolver::node_grew`] (log clients) or
//! [`WorklistSolver::node_changed`] (version-counter clients) when a value
//! grows. The three CFA solvers share that client half too: the crate's
//! `SetRun` owns a run's engine, its `DeltaNodes` store and its
//! constraints, and leaves each solver only its own rules.
//!
//! Pops run in **rounds**, as in Datalog's semi-naïve evaluation. A
//! priority `rank` per constraint orders each round — clients pass
//! reverse-postorder ranks (MFP) or source order (CFA) — and a round
//! drains its queue in `(rank, id)` order. A post made during a firing to
//! a constraint that sorts after the firing one joins the current round; a
//! post to one at or before it waits for the next round, so a watcher
//! behind the growing node fires once on the whole delta of the round
//! instead of once per element. Posts made while nothing is firing (setup,
//! seeds) join the current round.
//! Solving is fully deterministic.

use crate::budget::{AnalysisBudget, AnalysisError};
use crate::govern::RunGuard;
use crate::stats::SolverStats;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::num::NonZeroUsize;

mod setrun;
pub(crate) use setrun::{Committed, Flow, SetRun};

/// The fixpoint engine a request runs on. Only the sequential worklist
/// engine exists; the type survives so that `cpsbench/src/replay.rs`,
/// which threads a request's mode through the `*_guarded_mode` entry
/// points, still compiles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SolverMode {
    /// The single-threaded worklist engine.
    #[default]
    Seq,
}

/// The worker count configured for this process: the `CPSDFA_WORKERS`
/// environment variable if set to a parseable integer (clamped to at least
/// 1, so `0` means "sequential", not "panic"), otherwise the available
/// hardware parallelism, or 1 if neither can be determined.
///
/// This is the single parsing point for the knob: `workloads::par` (the
/// corpus-level map) and the service's worker pool both call through
/// here, so the two always agree on what the variable means.
pub fn worker_count() -> usize {
    if let Ok(raw) = std::env::var("CPSDFA_WORKERS") {
        if let Ok(n) = raw.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// A constraint index handed out by [`WorklistSolver::add_constraint`].
pub type ConstraintId = usize;

/// A flow-node index registered by [`WorklistSolver::add_nodes`].
pub type FlowNodeId = usize;

/// One consumed-delta range: the watched `node` grew from `lo` to `hi`
/// elements since the owning constraint last fired. For version-counter
/// clients (MFP) only `node` is meaningful.
pub type DeltaRange = (FlowNodeId, usize, usize);

/// Chain terminator for the intrusive watch lists.
const NIL: u32 = u32::MAX;

/// The scheduling core: dependency lists with per-watch delta cursors plus
/// a deduplicating priority worklist.
///
/// Watch edges live in flat parallel arrays; the two lists that index them
/// (watchers-of-a-node, watches-of-a-constraint) are intrusive singly
/// linked chains threaded through those arrays, head+tail per owner. A
/// `Vec<Vec<u32>>` would pay one heap allocation per edge — on small
/// workloads those ~2·edges allocations rival the whole fixpoint.
pub struct WorklistSolver {
    /// `watcher_head[n]`/`watcher_tail[n]` = chain of watch-edge ids
    /// triggered when node `n` grows (`NIL` when empty).
    watcher_head: Vec<u32>,
    watcher_tail: Vec<u32>,
    /// `cwatch_head[c]`/`cwatch_tail[c]` = chain of watch-edge ids owned by
    /// constraint `c`, in registration order (tail appends keep the order —
    /// it drives deterministic delta delivery).
    cwatch_head: Vec<u32>,
    cwatch_tail: Vec<u32>,
    /// Per watch edge: the constraint it re-fires.
    watch_constraint: Vec<ConstraintId>,
    /// Per watch edge: the node it observes.
    watch_node: Vec<FlowNodeId>,
    /// Per watch edge: elements of the node's growth log already delivered.
    /// A fresh watch starts at 0, so its first delta is the node's full
    /// history — exactly what dynamically discovered edges need.
    watch_cursor: Vec<usize>,
    /// Per watch edge: next watch of the same node (`NIL` ends the chain).
    watch_next_of_node: Vec<u32>,
    /// Per watch edge: next watch of the same constraint.
    watch_next_of_constraint: Vec<u32>,
    /// `node_len[n]` = committed growth-log length (or version counter).
    node_len: Vec<usize>,
    /// `rank[c]` = pop priority (lower pops first).
    rank: Vec<u32>,
    /// `pending[c]` = already queued (posts coalesce into one firing).
    pending: Vec<bool>,
    /// The current round. Entries are `rank << 32 | constraint id`, so
    /// ordering is (rank, id) — same as a `(u32, ConstraintId)` tuple at
    /// half the width.
    queue: BinaryHeap<Reverse<u64>>,
    /// The next round: posts to constraints at or before the firing one.
    next: BinaryHeap<Reverse<u64>>,
    /// Packed `(rank, id)` of the constraint last handed out by
    /// [`pop`](Self::pop); `None` while the engine is idle (fresh, or both
    /// rounds drained).
    firing: Option<u64>,
    stats: SolverStats,
}

impl WorklistSolver {
    /// An empty engine.
    pub fn new() -> Self {
        WorklistSolver {
            watcher_head: Vec::new(),
            watcher_tail: Vec::new(),
            cwatch_head: Vec::new(),
            cwatch_tail: Vec::new(),
            watch_constraint: Vec::new(),
            watch_node: Vec::new(),
            watch_cursor: Vec::new(),
            watch_next_of_node: Vec::new(),
            watch_next_of_constraint: Vec::new(),
            node_len: Vec::new(),
            rank: Vec::new(),
            pending: Vec::new(),
            queue: BinaryHeap::new(),
            next: BinaryHeap::new(),
            firing: None,
            stats: SolverStats::default(),
        }
    }

    /// Registers `n` flow nodes at once; they receive the `n` contiguous
    /// ids starting at the current node count (so `0..n` only on a fresh
    /// engine).
    pub fn add_nodes(&mut self, n: usize) {
        self.watcher_head.resize(self.watcher_head.len() + n, NIL);
        self.watcher_tail.resize(self.watcher_tail.len() + n, NIL);
        self.node_len.resize(self.node_len.len() + n, 0);
        self.stats.nodes += n as u64;
    }

    /// Pre-sizes the constraint and watch arenas for `constraints`
    /// registrations of one watch each (the CFA shape) — callers know the
    /// edge count up front, so setup need not grow the arrays piecemeal.
    pub fn reserve(&mut self, constraints: usize) {
        self.rank.reserve(constraints);
        self.pending.reserve(constraints);
        self.cwatch_head.reserve(constraints);
        self.cwatch_tail.reserve(constraints);
        self.watch_constraint.reserve(constraints);
        self.watch_node.reserve(constraints);
        self.watch_cursor.reserve(constraints);
        self.watch_next_of_node.reserve(constraints);
        self.watch_next_of_constraint.reserve(constraints);
    }

    /// Registers a constraint with pop priority `rank`; returns its id.
    pub fn add_constraint(&mut self, rank: u32) -> ConstraintId {
        debug_assert!(
            self.rank.len() < u32::MAX as usize,
            "constraint ids must fit in 32 bits (queue packing)"
        );
        self.rank.push(rank);
        self.pending.push(false);
        self.cwatch_head.push(NIL);
        self.cwatch_tail.push(NIL);
        self.stats.constraints += 1;
        self.rank.len() - 1
    }

    /// Makes `constraint` re-fire whenever `node` grows, delivering the
    /// growth as a delta via [`take_deltas`](Self::take_deltas). The new
    /// watch's cursor starts at 0: its first delta covers the node's whole
    /// current log.
    pub fn watch(&mut self, node: FlowNodeId, constraint: ConstraintId) {
        debug_assert!(
            node < self.watcher_head.len(),
            "watch: node {node} out of range"
        );
        debug_assert!(
            constraint < self.rank.len(),
            "watch: constraint {constraint} out of range"
        );
        let w = self.watch_constraint.len() as u32;
        self.watch_constraint.push(constraint);
        self.watch_node.push(node);
        self.watch_cursor.push(0);
        self.watch_next_of_node.push(NIL);
        self.watch_next_of_constraint.push(NIL);
        // Tail-append into both chains.
        match self.watcher_tail[node] {
            NIL => self.watcher_head[node] = w,
            t => self.watch_next_of_node[t as usize] = w,
        }
        self.watcher_tail[node] = w;
        match self.cwatch_tail[constraint] {
            NIL => self.cwatch_head[constraint] = w,
            t => self.watch_next_of_constraint[t as usize] = w,
        }
        self.cwatch_tail[constraint] = w;
    }

    /// Schedules `constraint` (coalescing with an already-pending post):
    /// into the current round when it sorts after the firing constraint or
    /// nothing is firing, into the next round otherwise.
    pub fn post(&mut self, constraint: ConstraintId) {
        self.stats.posted += 1;
        if self.pending[constraint] {
            // A pending constraint will see the merged delta when it fires:
            // this post is a re-visit the semi-naïve engine saved.
            self.stats.coalesced += 1;
            return;
        }
        self.pending[constraint] = true;
        let packed = (self.rank[constraint] as u64) << 32 | constraint as u64;
        match self.firing {
            Some(f) if packed <= f => self.next.push(Reverse(packed)),
            _ => self.queue.push(Reverse(packed)),
        }
        let depth = (self.queue.len() + self.next.len()) as u64;
        if depth > self.stats.queue_peak {
            self.stats.queue_peak = depth;
        }
    }

    /// Reports that a node's growth log extended to `new_len` elements:
    /// schedules every watcher (each necessarily has a pending delta).
    /// Log clients call this with the log's new length after appending.
    pub fn node_grew(&mut self, node: FlowNodeId, new_len: usize) {
        debug_assert!(
            new_len >= self.node_len[node],
            "node {node} growth log shrank ({} -> {new_len})",
            self.node_len[node]
        );
        self.stats.node_updates += 1;
        self.node_len[node] = new_len;
        // The chains are append-only, so walking by index while `post`
        // borrows `&mut self` is safe.
        let mut w = self.watcher_head[node];
        while w != NIL {
            let c = self.watch_constraint[w as usize];
            self.post(c);
            w = self.watch_next_of_node[w as usize];
        }
    }

    /// Reports that a node's value grew, for clients whose values are not
    /// element logs (MFP's bitsets and lattice values): bumps the node's
    /// version counter and schedules every watcher. Deltas then carry
    /// *which* nodes changed; the range endpoints are version numbers.
    pub fn node_changed(&mut self, node: FlowNodeId) {
        self.node_grew(node, self.node_len[node] + 1);
    }

    /// Records a node's log length *without scheduling anybody*. A client
    /// that fills its logs before solving (MFP's initial reachability)
    /// syncs the engine's length bookkeeping this way, so cursor-0 watches
    /// registered later still see that history as their first delta while
    /// nothing fires just because the history exists.
    ///
    /// Must not shrink: like [`node_grew`](Self::node_grew), lengths are
    /// monotone.
    pub fn set_node_len(&mut self, node: FlowNodeId, len: usize) {
        debug_assert!(
            len >= self.node_len[node],
            "node {node} growth log shrank ({} -> {len})",
            self.node_len[node]
        );
        self.node_len[node] = len;
    }

    /// The engine's current length bookkeeping for `node`.
    pub fn node_len(&self, node: FlowNodeId) -> usize {
        self.node_len[node]
    }

    /// The next constraint to evaluate: the lowest `(rank, id)` of the
    /// current round, or — once that round is drained — of the next one.
    /// `None` at fixpoint, which leaves the engine idle.
    pub fn pop(&mut self) -> Option<ConstraintId> {
        let Reverse(packed) = match self.queue.pop() {
            Some(top) => top,
            None => {
                self.firing = None;
                if self.next.is_empty() {
                    return None;
                }
                std::mem::swap(&mut self.queue, &mut self.next);
                self.queue.pop().expect("the next round is non-empty")
            }
        };
        let c = (packed & u32::MAX as u64) as ConstraintId;
        self.pending[c] = false;
        if self.firing.is_none() {
            self.stats.rounds += 1;
        }
        self.firing = Some(packed);
        self.stats.fired += 1;
        Some(c)
    }

    /// Collects into `out` the un-consumed delta of every node `constraint`
    /// watches — one `(node, lo, hi)` range per watched node that grew
    /// since this constraint last consumed it — and advances the cursors,
    /// so consecutive calls never overlap. Ranges appear in watch
    /// registration order; `out` is cleared first (pass a reused buffer).
    pub fn take_deltas(&mut self, constraint: ConstraintId, out: &mut Vec<DeltaRange>) {
        out.clear();
        let mut total = 0usize;
        let mut w = self.cwatch_head[constraint];
        while w != NIL {
            let wi = w as usize;
            let node = self.watch_node[wi];
            let lo = self.watch_cursor[wi];
            let hi = self.node_len[node];
            if lo < hi {
                self.watch_cursor[wi] = hi;
                out.push((node, lo, hi));
                total += hi - lo;
                self.stats.delta_batches += 1;
            }
            w = self.watch_next_of_constraint[wi];
        }
        self.stats.delta_elems += total as u64;
        self.stats.record_delta(total);
    }

    /// Drives the engine to fixpoint, charging every firing against
    /// `budget`: pops constraints round by round and hands each to `step`
    /// (which receives the solver back for `take_deltas`/`watch`/`post`
    /// re-entry). Returns [`AnalysisError::BudgetExhausted`] as soon as the
    /// cumulative firing count exceeds the budget — this is the §6.2 safety
    /// property on the sparse path: exponential CPS workloads stop instead
    /// of looping unbounded.
    pub fn run<F>(&mut self, budget: AnalysisBudget, step: F) -> Result<(), AnalysisError>
    where
        F: FnMut(&mut Self, ConstraintId) -> Result<(), AnalysisError>,
    {
        self.run_guarded(&RunGuard::new(budget), step)
    }

    /// [`run`](WorklistSolver::run) under a full [`RunGuard`]: every firing
    /// is charged through the guard, so the wall-clock deadline, the
    /// cancellation token, and any injected fault plan are enforced on the
    /// sparse path alongside the goal budget. `run` itself delegates here
    /// with a budget-only guard, so the two paths cannot drift.
    pub fn run_guarded<F>(&mut self, guard: &RunGuard, mut step: F) -> Result<(), AnalysisError>
    where
        F: FnMut(&mut Self, ConstraintId) -> Result<(), AnalysisError>,
    {
        while let Some(c) = self.pop_charged(guard)? {
            step(self, c)?;
        }
        Ok(())
    }

    /// [`pop`](Self::pop), charging the popped firing one unit through
    /// `guard` — the step every guarded run loop takes, here and in
    /// [`SetRun::run`].
    pub(crate) fn pop_charged(
        &mut self,
        guard: &RunGuard,
    ) -> Result<Option<ConstraintId>, AnalysisError> {
        let Some(c) = self.pop() else {
            return Ok(None);
        };
        guard.charge(1)?;
        Ok(Some(c))
    }

    /// Scheduling counters for this run.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }
}

impl Default for WorklistSolver {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy transitive-closure instance on the delta API: nodes hold
    /// append-only logs of u32 tokens, Sub constraints propagate the
    /// *delta* of src into dst.
    fn run_reachability(
        edges: &[(usize, usize)],
        seeds: &[(usize, u32)],
        n: usize,
    ) -> Vec<Vec<u32>> {
        let mut s = WorklistSolver::new();
        s.add_nodes(n);
        let mut logs: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, &(src, _)) in edges.iter().enumerate() {
            let c = s.add_constraint(i as u32);
            s.watch(src, c);
            s.post(c);
        }
        for &(node, bits) in seeds {
            if !logs[node].contains(&bits) {
                logs[node].push(bits);
                s.node_grew(node, logs[node].len());
            }
        }
        let mut deltas = Vec::new();
        while let Some(c) = s.pop() {
            let (_, dst) = edges[c];
            s.take_deltas(c, &mut deltas);
            for &(node, lo, hi) in &deltas {
                for i in lo..hi {
                    let v = logs[node][i];
                    if !logs[dst].contains(&v) {
                        logs[dst].push(v);
                        s.node_grew(dst, logs[dst].len());
                    }
                }
            }
        }
        logs
    }

    fn sorted(mut v: Vec<u32>) -> Vec<u32> {
        v.sort_unstable();
        v
    }

    #[test]
    fn propagates_through_chains_and_cycles() {
        // 0 → 1 → 2 → 0 cycle plus 2 → 3 tail.
        let logs = run_reachability(
            &[(0, 1), (1, 2), (2, 0), (2, 3)],
            &[(0, 0b01), (1, 0b10)],
            4,
        );
        for log in logs {
            assert_eq!(sorted(log), vec![0b01, 0b10]);
        }
    }

    #[test]
    fn firing_count_is_sparse_not_quadratic() {
        // A 64-node chain: the dense loop would fire 64 edges × ~64 sweeps;
        // sparse fires each edge O(1) times since each seed passes once.
        let n = 64;
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let mut s = WorklistSolver::new();
        s.add_nodes(n);
        let mut logs: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, &(src, _)) in edges.iter().enumerate() {
            let c = s.add_constraint(i as u32);
            s.watch(src, c);
            s.post(c);
        }
        logs[0].push(1);
        s.node_grew(0, 1);
        let mut deltas = Vec::new();
        while let Some(c) = s.pop() {
            let (_, dst) = edges[c];
            s.take_deltas(c, &mut deltas);
            for &(node, lo, hi) in &deltas {
                for i in lo..hi {
                    let v = logs[node][i];
                    if !logs[dst].contains(&v) {
                        logs[dst].push(v);
                        s.node_grew(dst, logs[dst].len());
                    }
                }
            }
        }
        assert!(logs.iter().all(|l| l == &vec![1]));
        let fired = s.stats().fired;
        assert!(
            fired <= 2 * (n as u64),
            "chain of {n} fired {fired} times — not sparse"
        );
        // Semi-naïve accounting: exactly one element crossed each edge.
        assert_eq!(s.stats().delta_elems, (n as u64) - 1);
    }

    #[test]
    fn posts_coalesce_while_pending() {
        let mut s = WorklistSolver::new();
        s.add_nodes(2);
        let c = s.add_constraint(0);
        s.watch(0, c);
        s.post(c);
        s.node_changed(0);
        s.node_changed(0);
        assert_eq!(s.stats().posted, 3);
        assert_eq!(s.stats().coalesced, 2);
        assert_eq!(s.pop(), Some(c));
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn pop_order_follows_rank() {
        let mut s = WorklistSolver::new();
        let c_hi = s.add_constraint(10);
        let c_lo = s.add_constraint(1);
        let c_mid = s.add_constraint(5);
        s.post(c_hi);
        s.post(c_lo);
        s.post(c_mid);
        assert_eq!(s.pop(), Some(c_lo));
        assert_eq!(s.pop(), Some(c_mid));
        assert_eq!(s.pop(), Some(c_hi));
    }

    #[test]
    fn posts_at_or_before_the_firing_constraint_wait_for_the_next_round() {
        let mut s = WorklistSolver::new();
        let c0 = s.add_constraint(0);
        let c1 = s.add_constraint(1);
        let c2 = s.add_constraint(2);
        s.post(c1);
        s.post(c2);
        assert_eq!(s.pop(), Some(c1));
        // While c1 fires: c0 sorts before it and c1 is itself, so both wait;
        // c2 is already pending later in this round.
        s.post(c0);
        s.post(c1);
        s.post(c2);
        assert_eq!(s.pop(), Some(c2), "the current round drains first");
        assert_eq!(s.pop(), Some(c0), "then the next round, in rank order");
        assert_eq!(s.pop(), Some(c1));
        assert_eq!(s.stats().rounds, 2);
        assert_eq!(s.pop(), None);
        // Idle again: a post joins a fresh current round, even behind the
        // last constraint that fired.
        s.post(c0);
        assert_eq!(s.pop(), Some(c0));
        assert_eq!(s.pop(), None);
        assert_eq!(s.stats().rounds, 3);
        assert_eq!(s.stats().queue_peak, 3);
    }

    #[test]
    fn coalesced_posts_merge_into_one_delta_without_double_counting() {
        // Delta-merge idempotence: a constraint posted three times while
        // pending (its watched node grew 0→1, 1→2, 2→3) fires *once* and
        // receives the merged range exactly once; a second firing sees an
        // empty delta — no element is ever delivered twice.
        let mut s = WorklistSolver::new();
        s.add_nodes(1);
        let c = s.add_constraint(0);
        s.watch(0, c);
        for len in 1..=3 {
            s.node_grew(0, len);
        }
        let mut deltas = Vec::new();
        assert_eq!(s.pop(), Some(c));
        s.take_deltas(c, &mut deltas);
        assert_eq!(deltas, vec![(0, 0, 3)], "merged delta covers all growth");
        // Re-fire with no intervening growth: nothing left to deliver.
        s.post(c);
        assert_eq!(s.pop(), Some(c));
        s.take_deltas(c, &mut deltas);
        assert!(deltas.is_empty(), "overlapping firing must not re-deliver");
        assert_eq!(s.stats().delta_elems, 3);
    }

    #[test]
    fn fresh_watch_sees_full_history_as_first_delta() {
        // Dynamically discovered edges (CFA call wiring) watch a node that
        // already grew; their first delta must cover the whole log.
        let mut s = WorklistSolver::new();
        s.add_nodes(1);
        s.node_grew(0, 5);
        let c = s.add_constraint(0);
        s.watch(0, c);
        s.post(c);
        let mut deltas = Vec::new();
        assert_eq!(s.pop(), Some(c));
        s.take_deltas(c, &mut deltas);
        assert_eq!(deltas, vec![(0, 0, 5)]);
    }

    #[test]
    fn two_watchers_consume_independent_cursors() {
        let mut s = WorklistSolver::new();
        s.add_nodes(1);
        let c1 = s.add_constraint(0);
        let c2 = s.add_constraint(1);
        s.watch(0, c1);
        s.watch(0, c2);
        s.node_grew(0, 2);
        let mut deltas = Vec::new();
        s.take_deltas(c1, &mut deltas);
        assert_eq!(deltas, vec![(0, 0, 2)]);
        s.node_grew(0, 3);
        s.take_deltas(c1, &mut deltas);
        assert_eq!(deltas, vec![(0, 2, 3)], "c1 resumes where it left off");
        s.take_deltas(c2, &mut deltas);
        assert_eq!(deltas, vec![(0, 0, 3)], "c2's cursor is independent");
    }

    #[test]
    fn default_is_an_empty_engine() {
        let mut s = WorklistSolver::default();
        assert_eq!(s.pop(), None);
        assert_eq!(s.stats().nodes, 0);
    }

    #[test]
    fn run_drives_to_fixpoint_and_charges_the_budget() {
        // Same 8-node chain as run_reachability, but through `run`.
        let n = 8;
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let mut s = WorklistSolver::new();
        s.add_nodes(n);
        let mut logs: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, &(src, _)) in edges.iter().enumerate() {
            let c = s.add_constraint(i as u32);
            s.watch(src, c);
            s.post(c);
        }
        logs[0].push(1);
        s.node_grew(0, 1);
        let mut deltas = Vec::new();
        s.run(AnalysisBudget::default(), |s, c| {
            let (_, dst) = edges[c];
            s.take_deltas(c, &mut deltas);
            for &(node, lo, hi) in &deltas {
                for i in lo..hi {
                    let v = logs[node][i];
                    if !logs[dst].contains(&v) {
                        logs[dst].push(v);
                        s.node_grew(dst, logs[dst].len());
                    }
                }
            }
            Ok(())
        })
        .expect("default budget is ample for an 8-node chain");
        assert!(logs.iter().all(|l| l == &vec![1]));
    }

    #[test]
    fn run_returns_budget_exhausted_on_a_livelock() {
        // A self-loop constraint that re-posts itself forever: without the
        // budget, `run` would never terminate.
        let mut s = WorklistSolver::new();
        s.add_nodes(1);
        let c = s.add_constraint(0);
        s.watch(0, c);
        s.post(c);
        let err = s
            .run(AnalysisBudget::new(100), |s, _c| {
                s.node_changed(0);
                Ok(())
            })
            .expect_err("a livelock must exhaust the budget");
        assert!(matches!(
            err,
            AnalysisError::BudgetExhausted { budget: 100 }
        ));
        assert!(s.stats().fired <= 102, "stops right at the budget");
    }

    #[test]
    fn poured_seeds_are_silent_but_visible_to_cursor_zero_watches() {
        // Record a pre-filled history with `set_node_len` (nothing fires);
        // a fresh watch still receives that history as its first delta.
        let mut s = WorklistSolver::new();
        s.add_nodes(1);
        s.set_node_len(0, 4);
        assert_eq!(s.node_len(0), 4);
        assert_eq!(s.pop(), None, "pouring seeds must not schedule anybody");
        let c = s.add_constraint(0);
        s.watch(0, c);
        s.post(c);
        let mut deltas = Vec::new();
        assert_eq!(s.pop(), Some(c));
        s.take_deltas(c, &mut deltas);
        assert_eq!(
            deltas,
            vec![(0, 0, 4)],
            "recorded history is the first delta"
        );
    }

    #[test]
    fn queue_peak_tracks_the_high_water_mark() {
        let mut s = WorklistSolver::new();
        let a = s.add_constraint(0);
        let b = s.add_constraint(1);
        let c = s.add_constraint(2);
        s.post(a);
        s.post(b);
        s.post(c);
        s.pop();
        s.pop();
        s.pop();
        s.post(a);
        assert_eq!(s.stats().queue_peak, 3);
    }
}
