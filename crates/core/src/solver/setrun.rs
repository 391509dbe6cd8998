//! The semi-naïve set-flow run under the three CFA solvers — source 0CFA,
//! CPS 0CFA ([`cfa`](crate::cfa)) and pushdown
//! ([`pushdown`](crate::pushdown)).
//!
//! The three differ only in their rules: which static edges they collect
//! and what a call or return wires when it discovers a new element. The
//! machinery around the rules is the same, so it is written once here. A
//! [`SetRun`] owns one run's [`WorklistSolver`], its [`DeltaNodes`] store
//! and its constraint list. Each constraint is either the engine's own
//! subset edge (`src ⊆ dst`, forwarded delta by delta) or a client rule,
//! which [`SetRun::run`] hands back to the client's firing closure. The
//! engine registers constraints (rank = registration index), pours seeds,
//! wires subset edges, delivers each rule's new elements, charges every
//! firing against the run's guard, and interns the converged sets into a
//! [`SetPool`] at the commit point.

use super::{ConstraintId, DeltaRange, WorklistSolver};
use crate::budget::AnalysisError;
use crate::govern::RunGuard;
use crate::setpool::{DeltaNodes, SetPool};
use crate::stats::SolverStats;
use crate::trace::TraceSink;
use std::collections::BTreeSet;
use std::hash::Hash;
use std::sync::Arc;

/// An operand of a flow rule: no flow (a number), one constant element,
/// or the contents of a flow node.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Flow<T> {
    None,
    Const(T),
    Var(usize),
}

/// A registered constraint: the engine's subset edge into `dst`, or a
/// client rule. Sources live on the solver's watch edges and arrive as
/// delta ranges, so neither stores them.
#[derive(Clone, Copy)]
enum Con<C> {
    Sub(usize),
    Rule(C),
}

/// One semi-naïve set-flow run over elements `T` and client rules `C`.
pub(crate) struct SetRun<T, C> {
    solver: WorklistSolver,
    /// The flow sets while the fixpoint moves. Pushdown pours its
    /// continuation slots straight into it after [`run`](Self::run).
    pub(crate) nodes: DeltaNodes<T>,
    constraints: Vec<Con<C>>,
    /// Reused delta buffer for [`WorklistSolver::take_deltas`].
    deltas: Vec<DeltaRange>,
}

/// What [`SetRun::commit`] hands back.
pub(crate) struct Committed<T> {
    /// The interned sets, in the order the commit named their nodes.
    pub(crate) sets: Vec<Arc<BTreeSet<T>>>,
    pub(crate) stats: SolverStats,
    /// Constraint firings, at least 1.
    pub(crate) iterations: u64,
}

impl<T: Copy + Ord + Hash, C: Copy> SetRun<T, C> {
    /// A run over `nodes` empty flow nodes, with room for `constraints`
    /// static constraints.
    pub(crate) fn new(nodes: usize, constraints: usize) -> Self {
        let mut solver = WorklistSolver::new();
        solver.add_nodes(nodes);
        solver.reserve(constraints);
        SetRun {
            solver,
            nodes: DeltaNodes::new(nodes),
            constraints: Vec::with_capacity(constraints),
            deltas: Vec::new(),
        }
    }

    /// Registers `con` at rank = its index. A watching constraint starts at
    /// cursor 0 and is posted at once only when its node is non-empty (an
    /// empty node's first delta would be a no-op; `node_grew` posts it on
    /// first growth). A constraint with no watch is posted once.
    fn register(&mut self, con: Con<C>, watched: Option<usize>) {
        let c = self.solver.add_constraint(self.constraints.len() as u32);
        self.constraints.push(con);
        match watched {
            Some(node) => {
                self.solver.watch(node, c);
                if !self.nodes.log(node).is_empty() {
                    self.solver.post(c);
                }
            }
            None => self.solver.post(c),
        }
    }

    /// Registers client rule `rule`, watching `watched` (or posted once).
    pub(crate) fn rule(&mut self, rule: C, watched: Option<usize>) {
        self.register(Con::Rule(rule), watched);
    }

    /// Wires `src ⊆ dst` as a persistent subset edge. Its fresh cursor
    /// replays `src`'s whole history on the first firing.
    pub(crate) fn wire(&mut self, src: usize, dst: usize) {
        self.register(Con::Sub(dst), Some(src));
    }

    /// Adds `v` to `dst`, scheduling `dst`'s watchers if it grew.
    pub(crate) fn seed(&mut self, dst: usize, v: T) {
        if let Some(len) = self.nodes.add(dst, v) {
            self.solver.node_grew(dst, len);
        }
    }

    /// Joins `flow` into `dst`: a constant is seeded, a node is wired.
    pub(crate) fn flow(&mut self, flow: Flow<T>, dst: usize) {
        match flow {
            Flow::None => {}
            Flow::Const(v) => self.seed(dst, v),
            Flow::Var(src) => self.wire(src, dst),
        }
    }

    /// Hands `f` each element of constraint `ci`'s delta — the elements
    /// its watched nodes gained since it last fired — in log order.
    pub(crate) fn for_each_new(&mut self, ci: ConstraintId, mut f: impl FnMut(&mut Self, T)) {
        let mut deltas = std::mem::take(&mut self.deltas);
        self.solver.take_deltas(ci, &mut deltas);
        for &(node, lo, hi) in &deltas {
            for i in lo..hi {
                let v = self.nodes.log(node)[i].0;
                f(self, v);
            }
        }
        self.deltas = deltas;
    }

    /// Drives the run to fixpoint under `guard`. Every firing is charged
    /// one unit and checks the store's footprint against the memory
    /// ceiling; subset edges forward their delta here, and each rule goes
    /// to `fire` with its constraint id.
    pub(crate) fn run(
        &mut self,
        guard: &RunGuard,
        mut fire: impl FnMut(&mut Self, ConstraintId, C),
    ) -> Result<(), AnalysisError> {
        while let Some(ci) = self.solver.pop_charged(guard)? {
            guard.charge_memory(self.nodes.approx_bytes() as u64)?;
            match self.constraints[ci] {
                Con::Sub(dst) => {
                    self.solver.take_deltas(ci, &mut self.deltas);
                    // Watchers are notified once per firing, not per
                    // element: cursors only observe the post-batch length.
                    let mut grew = false;
                    for &(src, lo, hi) in &self.deltas {
                        grew |= self.nodes.forward_range(src, lo, hi, dst).is_some();
                    }
                    if grew {
                        self.solver.node_grew(dst, self.nodes.log(dst).len());
                    }
                }
                Con::Rule(rule) => fire(self, ci, rule),
            }
        }
        Ok(())
    }

    /// The commit point: interns the converged set of each node in `order`
    /// into a fresh [`SetPool`] (identical sets share one handle), then
    /// flushes the run's solver and pool counters into `sink` under
    /// `prefix`.
    pub(crate) fn commit(
        mut self,
        order: impl IntoIterator<Item = usize>,
        sink: &mut impl TraceSink,
        prefix: &str,
    ) -> Committed<T> {
        let mut pool = SetPool::new();
        let sets = order
            .into_iter()
            .map(|node| {
                let id = self.nodes.commit_into(node, &mut pool);
                pool.get_arc(id)
            })
            .collect();
        let stats = self.solver.stats().with_pool(pool.stats());
        stats.emit_into(sink, prefix);
        Committed {
            sets,
            stats,
            iterations: stats.fired.max(1),
        }
    }
}
