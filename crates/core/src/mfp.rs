//! The classical data-flow substrate for §6.2's MOP-vs-MFP discussion.
//!
//! Nielson \[13\] proved that a semantic-CPS analysis computes the **MOP**
//! (meet/join over paths) solution while a direct analysis computes the
//! weaker **MFP** (maximal fixed point) solution; Kam & Ullman \[9\] proved
//! that MOP is not computable in general monotone frameworks and equals MFP
//! for distributive ones. This module provides the textbook machinery to
//! observe all of that:
//!
//! * a [`Cfg`] lowered from the *first-order* fragment of Λ (or hand-built
//!   via [`Cfg::from_parts`]);
//! * a sparse [MFP solver](Cfg::solve_mfp) — condition-blind, as in the
//!   classical framework — that works over def-use edges instead of one
//!   environment per CFG node (see *Sparse MFP* below);
//! * a path-enumerating [MOP solver](Cfg::solve_mop) with two modes
//!   ([`PathMode`]): the classical *all graph paths*, and *feasible paths
//!   only*, where a branch on a known-constant test follows one edge — the
//!   path filtering that continuation duplication performs implicitly.
//!
//! Two observations matter for experiment E9:
//!
//! 1. With only unary transfers (`add1`/`sub1`, copies, constants) the flat
//!    CP framework is distributive in the Kam–Ullman sense, so classical
//!    MOP = MFP on programs lowered from Λ. The binary [`Stmt::Sum`]
//!    statement (substrate-only; Λ has no binary primitive) restores the
//!    textbook MOP ⊏ MFP separation.
//! 2. The semantic-CPS analyzer `C_e` corresponds to **feasible-path MOP**:
//!    its per-branch duplication carries each path's constants into the
//!    branch decisions downstream. The direct analyzer `M_e` corresponds to
//!    MFP (when tests are unknown). E9 checks both correspondences.
//!
//! # Sparse MFP
//!
//! The textbook MFP keeps `in[n]` and `out[n]`, a lattice value for every
//! variable, at every node: 2·nodes·vars cells, almost all of them copies.
//! [`Cfg::solve_mfp`] instead solves two smaller systems on the
//! [`WorklistSolver`], both ranked in reverse postorder.
//!
//! A *source* is one variable's entry value or one defining node; the
//! sources of a variable are numbered contiguously.
//!
//! 1. **Reaching sources.** Each node is a constraint over a bitset of the
//!    sources that reach its entry (one flat `Vec<u64>` of
//!    nodes × ⌈sources/64⌉ words): `in[n] = ⋃ out[pred]`, where `out[p]` is
//!    `in[p]` minus the sources of the variable `p` defines, plus `p`'s own
//!    source. The entry's in-set starts with the entry sources.
//! 2. **Values.** Each defining node `d` is a constraint watching the
//!    sources of its used variables that reach it (`Sum` uses two
//!    variables; `Copy`, `Add1` and `Sub1` one). A firing applies the
//!    statement's transfer to the join of those sources' values and grows
//!    `val(d)`. `summary[x]` is the join of the values of `x`'s defining
//!    sources.
//!
//! **Why it is exact.** Every [`Stmt`] defines at most one variable and
//! reads `in[n]` only through the variables it uses, and every other
//! variable passes through unchanged. So in the dense least fixpoint,
//! `in[n][y]` is the join, over the `y`-sources whose definition reaches
//! `n` along a definition-clear path, of their values — `init[y]` for the
//! entry source, `out[d][y]` for a defining node `d`. Phase 1 computes
//! exactly that path relation (a least fixpoint of the same edges with a
//! gen/kill transfer), and phase 2 evaluates `out[d][def(d)]` from those
//! joins, so both systems have the same least solution and the summaries
//! coincide. Nothing here needs the entry to reach a node:
//!
//! * an unreachable node's in-set holds only sources defined in the
//!   unreachable region (none for an isolated node), just as its dense
//!   `in` holds only values defined there — the dense solver is
//!   reachability-blind, and so is this one;
//! * cycles (including a self-loop such as `x := x + 1`) are two ordinary
//!   fixpoint iterations; `Sum` reads two joins, each exact on its own;
//! * a variable with several definitions has several sources, and a
//!   definition at the entry node kills that variable's entry source.
//!
//! An entry source whose value is ⊥ contributes nothing to any join, so it
//! is not numbered. The working set is the bitsets plus one value per
//! source, O(nodes·sources/64) words; it is charged to the
//! [`RunGuard`] memory ceiling before either phase runs.

use crate::budget::{AnalysisBudget, AnalysisError};
use crate::domain::NumDomain;
use crate::govern::RunGuard;
use crate::solver::{DeltaRange, SolverMode, WorklistSolver};
use crate::stats::SolverStats;
use crate::trace::{self, NoopSink, TraceSink};
use cpsdfa_anf::{AValKind, Anf, AnfKind, AnfProgram, Bind, VarId};
use std::error::Error;
use std::fmt;

/// A node index in the control-flow graph.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A first-order statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stmt {
    /// `x := n`.
    Const(VarId, i64),
    /// `x := y`.
    Copy(VarId, VarId),
    /// `x := y + 1`.
    Add1(VarId, VarId),
    /// `x := y − 1`.
    Sub1(VarId, VarId),
    /// `x := y + z` — substrate-only binary statement for the classical
    /// non-distributive constant-propagation example (Λ cannot express it).
    Sum(VarId, VarId, VarId),
    /// `x := ⊤` (the `loop` construct, or an unknown input).
    Havoc(VarId),
    /// No effect (branch and join points).
    Nop,
}

impl Stmt {
    /// The variable this statement assigns, if any.
    pub fn def(&self) -> Option<VarId> {
        match self {
            Stmt::Const(x, _)
            | Stmt::Copy(x, _)
            | Stmt::Add1(x, _)
            | Stmt::Sub1(x, _)
            | Stmt::Sum(x, _, _)
            | Stmt::Havoc(x) => Some(*x),
            Stmt::Nop => None,
        }
    }
}

/// What a two-way branch tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cond {
    /// `if0 x`.
    Var(VarId),
    /// `if0 n` (a literal test).
    Num(i64),
}

/// A CFG node: one statement, successors, and (for branch nodes) the
/// tested condition — `succs[0]` is the zero edge, `succs[1]` the nonzero
/// edge.
#[derive(Debug, Clone)]
pub struct Node {
    /// The statement executed at this node.
    pub stmt: Stmt,
    /// Successor nodes (two for branch points).
    pub succs: Vec<NodeId>,
    /// The branch condition, for two-way nodes.
    pub cond: Option<Cond>,
}

impl Node {
    /// A straight-line node.
    pub fn stmt(stmt: Stmt) -> Node {
        Node {
            stmt,
            succs: Vec::new(),
            cond: None,
        }
    }
}

/// How the MOP solver treats branch conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathMode {
    /// All graph paths, as in Kam & Ullman's framework.
    AllPaths,
    /// Only paths consistent with the propagated constants — a branch whose
    /// test is a known constant follows a single edge. This is the path set
    /// the semantic-CPS analyzer effectively enumerates.
    FeasiblePaths,
}

/// Errors lowering a program or enumerating paths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CfgError {
    /// The program uses procedures (λ or a non-primitive call) and is out
    /// of scope for the classical framework.
    HigherOrder(String),
    /// The MOP path enumeration exceeded its bound.
    TooManyPaths {
        /// The bound that was exceeded.
        limit: usize,
    },
    /// `from_parts` received an inconsistent graph.
    Malformed(String),
}

impl fmt::Display for CfgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CfgError::HigherOrder(what) => write!(f, "not a first-order program: {what}"),
            CfgError::TooManyPaths { limit } => {
                write!(f, "MOP enumeration exceeded {limit} paths")
            }
            CfgError::Malformed(why) => write!(f, "malformed CFG: {why}"),
        }
    }
}

impl Error for CfgError {}

/// A first-order control-flow graph.
#[derive(Debug, Clone)]
pub struct Cfg {
    nodes: Vec<Node>,
    entry: NodeId,
    exit: NodeId,
    num_vars: usize,
}

/// A data-flow environment: one lattice element per variable.
pub type DfEnv<D> = Vec<D>;

/// The per-variable summary of a data-flow solution: the join of the
/// variable's value at each of its definition points — directly comparable
/// to the analyzers' abstract stores.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DfSummary<D> {
    /// `summary[x]` = joined value of `x` at its definitions.
    pub vars: Vec<D>,
}

impl<D: NumDomain> DfSummary<D> {
    /// `self ⊑ other`, pointwise.
    pub fn leq(&self, other: &Self) -> bool {
        self.vars.len() == other.vars.len()
            && self.vars.iter().zip(&other.vars).all(|(a, b)| a.leq(b))
    }

    /// The summary value of `x`.
    pub fn get(&self, x: VarId) -> &D {
        &self.vars[x.index()]
    }
}

impl Cfg {
    /// Lowers a first-order ANF program: `let`s of numerals, copies,
    /// `add1`/`sub1` applications, `loop`, and `if0`.
    ///
    /// # Errors
    ///
    /// [`CfgError::HigherOrder`] if the program mentions λ or applies
    /// anything but `add1`/`sub1`.
    pub fn from_first_order(prog: &AnfProgram) -> Result<Cfg, CfgError> {
        let mut b = Builder {
            nodes: Vec::new(),
            prog,
        };
        let entry = b.push(Node::stmt(Stmt::Nop));
        let last = b.lower(prog.root(), entry)?;
        let exit = b.push(Node::stmt(Stmt::Nop));
        b.connect(last, exit);
        Ok(Cfg {
            nodes: b.nodes,
            entry,
            exit,
            num_vars: prog.num_vars(),
        })
    }

    /// Builds a CFG directly — used for the classical examples that need
    /// [`Stmt::Sum`].
    ///
    /// # Errors
    ///
    /// [`CfgError::Malformed`] if edges or variable indices are out of
    /// range, or a two-way node lacks a condition.
    pub fn from_parts(
        nodes: Vec<Node>,
        entry: NodeId,
        exit: NodeId,
        num_vars: usize,
    ) -> Result<Cfg, CfgError> {
        let n = nodes.len();
        if entry.0 >= n || exit.0 >= n {
            return Err(CfgError::Malformed("entry/exit out of range".to_owned()));
        }
        for (i, node) in nodes.iter().enumerate() {
            if node.succs.iter().any(|s| s.0 >= n) {
                return Err(CfgError::Malformed(format!("edge out of range at n{i}")));
            }
            if node.succs.len() > 1 && node.cond.is_none() {
                return Err(CfgError::Malformed(format!(
                    "two-way node n{i} lacks a condition"
                )));
            }
            if let Some(x) = node.stmt.def() {
                if x.index() >= num_vars {
                    return Err(CfgError::Malformed(format!(
                        "variable out of range at n{i}"
                    )));
                }
            }
        }
        Ok(Cfg {
            nodes,
            entry,
            exit,
            num_vars,
        })
    }

    /// The nodes of the graph.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The unique entry node.
    pub fn entry(&self) -> NodeId {
        self.entry
    }

    /// The unique exit node.
    pub fn exit(&self) -> NodeId {
        self.exit
    }

    /// The initial environment: free variables ⊤, everything else ⊥.
    pub fn initial_env<D: NumDomain>(&self, prog: &AnfProgram) -> DfEnv<D> {
        let mut env = vec![D::bot(); self.num_vars];
        for &v in prog.free_vars() {
            env[v.index()] = D::top();
        }
        env
    }

    /// An all-⊥ environment sized for this graph.
    pub fn bottom_env<D: NumDomain>(&self) -> DfEnv<D> {
        vec![D::bot(); self.num_vars]
    }

    fn transfer<D: NumDomain>(&self, stmt: Stmt, env: &DfEnv<D>) -> DfEnv<D> {
        let mut out = env.clone();
        match stmt {
            Stmt::Const(x, n) => out[x.index()] = D::constant(n),
            Stmt::Copy(x, y) => out[x.index()] = env[y.index()].clone(),
            Stmt::Add1(x, y) => out[x.index()] = env[y.index()].add1(),
            Stmt::Sub1(x, y) => out[x.index()] = env[y.index()].sub1(),
            Stmt::Sum(x, y, z) => {
                let a = &env[y.index()];
                let b = &env[z.index()];
                out[x.index()] = match (a.as_const(), b.as_const()) {
                    (Some(p), Some(q)) => D::constant(p + q),
                    _ if a.is_bot() || b.is_bot() => D::bot(),
                    _ => D::top(),
                };
            }
            Stmt::Havoc(x) => out[x.index()] = D::top(),
            Stmt::Nop => {}
        }
        out
    }

    fn join_env<D: NumDomain>(a: &DfEnv<D>, b: &DfEnv<D>) -> DfEnv<D> {
        a.iter().zip(b).map(|(x, y)| x.join(y)).collect()
    }

    fn env_leq<D: NumDomain>(a: &DfEnv<D>, b: &DfEnv<D>) -> bool {
        a.iter().zip(b).all(|(x, y)| x.leq(y))
    }

    /// The **MFP** solution — `in[n] = ⊔ out[pred]`, `out[n] = f_n(in[n])`,
    /// iterated to fixpoint — computed in two sparse phases on the
    /// [`WorklistSolver`] (see the [module docs](self#sparse-mfp)): the
    /// sources reaching each node, then the value of each definition from
    /// the reaching sources of the variables it uses. Phase 1 is
    /// semi-naïve: a firing re-joins only the predecessors whose out-set
    /// changed (reported by [`WorklistSolver::take_deltas`]). Constraints
    /// pop in reverse postorder, so forward flow settles in one firing per
    /// constraint on acyclic graphs. Runs under the default
    /// [`AnalysisBudget`], charged per constraint firing of either phase.
    /// Returns the per-variable summary.
    pub fn solve_mfp<D: NumDomain>(&self, init: DfEnv<D>) -> Result<DfSummary<D>, AnalysisError> {
        Ok(self.solve_mfp_instrumented(init)?.0)
    }

    /// [`solve_mfp`](Cfg::solve_mfp) plus the solver counters of the run.
    pub fn solve_mfp_instrumented<D: NumDomain>(
        &self,
        init: DfEnv<D>,
    ) -> Result<(DfSummary<D>, SolverStats), AnalysisError> {
        self.solve_mfp_guarded(
            init,
            &RunGuard::new(AnalysisBudget::default()),
            &mut NoopSink,
        )
    }

    /// [`solve_mfp`](Cfg::solve_mfp) under a full [`RunGuard`] and a trace
    /// sink (span and
    /// counter prefix `mfp`): every constraint firing is charged through
    /// the guard, so deadlines, cancellation, and injected faults govern
    /// the MFP substrate exactly as they do the CFA solvers.
    pub fn solve_mfp_guarded<D: NumDomain>(
        &self,
        init: DfEnv<D>,
        guard: &RunGuard,
        sink: &mut impl TraceSink,
    ) -> Result<(DfSummary<D>, SolverStats), AnalysisError> {
        trace::with_span(sink, "mfp", |sink| self.solve_mfp_impl(init, guard, sink))
    }

    /// [`solve_mfp_guarded`](Cfg::solve_mfp_guarded) with a [`SolverMode`]
    /// argument, kept because `cpsbench/src/replay.rs` calls it.
    pub fn solve_mfp_guarded_mode<D: NumDomain>(
        &self,
        init: DfEnv<D>,
        _mode: SolverMode,
        guard: &RunGuard,
        sink: &mut impl TraceSink,
    ) -> Result<(DfSummary<D>, SolverStats), AnalysisError> {
        self.solve_mfp_guarded(init, guard, sink)
    }

    fn solve_mfp_impl<D: NumDomain>(
        &self,
        init: DfEnv<D>,
        guard: &RunGuard,
        sink: &mut impl TraceSink,
    ) -> Result<(DfSummary<D>, SolverStats), AnalysisError> {
        let n = self.nodes.len();
        let mut mfp = SparseMfp::new(self, &init, guard)?;
        let preds = self.preds();
        let rank = self.rpo_ranks();
        let mut solver = WorklistSolver::new();

        // Phase 1, reaching sources: constraint `i` computes node `i`'s
        // in-set from its predecessors, and flow node `i` versions node
        // `i`'s out-set. Every constraint is posted up front: like the
        // dense solver, MFP is condition- and reachability-blind, so
        // unreachable nodes still define (entry-free) values. A node whose
        // out-set is non-empty before anything fires (the entry, every
        // defining node) starts at version 1, so each successor's first
        // firing reads it.
        solver.add_nodes(n);
        solver.reserve(n);
        for (i, ps) in preds.iter().enumerate() {
            let c = solver.add_constraint(rank[i]);
            debug_assert_eq!(c, i);
            for &p in ps {
                solver.watch(p.0, c);
            }
            solver.post(c);
            if i == self.entry.0 || mfp.src[i] != NO_SOURCE {
                solver.set_node_len(i, 1);
            }
        }
        let mut deltas: Vec<DeltaRange> = Vec::new();
        solver.run_guarded(guard, |solver, i| {
            mfp.fire_reach(i, solver, &mut deltas);
            Ok(())
        })?;

        // Phase 2, values: flow node `n + s` is source `s`'s value, and
        // constraint `n + k` is the `k`-th defining node, which watches the
        // sources of its used variables that reach it.
        solver.add_nodes(mfp.vals.len());
        let defs: Vec<usize> = (0..n).filter(|&i| mfp.src[i] != NO_SOURCE).collect();
        for &d in &defs {
            let c = solver.add_constraint(rank[d]);
            for y in uses(self.nodes[d].stmt).into_iter().flatten() {
                for s in mfp.reaching(d, y) {
                    solver.watch(n + s, c);
                }
            }
            solver.post(c);
        }
        solver.run_guarded(guard, |solver, c| {
            mfp.fire_value(defs[c - n], solver);
            Ok(())
        })?;

        let stats = solver.stats();
        stats.emit_into(sink, "mfp");
        Ok((mfp.summary(), stats))
    }

    /// The predecessor lists of every node.
    fn preds(&self) -> Vec<Vec<NodeId>> {
        let mut preds: Vec<Vec<NodeId>> = vec![Vec::new(); self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            for &s in &node.succs {
                preds[s.0].push(NodeId(i));
            }
        }
        preds
    }

    /// Reverse-postorder pop priorities from the entry; nodes unreachable
    /// from the entry are ranked after all reachable ones, in index order.
    fn rpo_ranks(&self) -> Vec<u32> {
        let n = self.nodes.len();
        let mut postorder: Vec<usize> = Vec::with_capacity(n);
        let mut seen = vec![false; n];
        // Iterative DFS: (node, next successor slot to visit).
        let mut stack: Vec<(usize, usize)> = vec![(self.entry.0, 0)];
        seen[self.entry.0] = true;
        while let Some(&mut (id, ref mut next)) = stack.last_mut() {
            if let Some(&s) = self.nodes[id].succs.get(*next) {
                *next += 1;
                if !seen[s.0] {
                    seen[s.0] = true;
                    stack.push((s.0, 0));
                }
            } else {
                postorder.push(id);
                stack.pop();
            }
        }
        let mut rank = vec![0u32; n];
        let reachable = postorder.len() as u32;
        for (i, &id) in postorder.iter().rev().enumerate() {
            rank[id] = i as u32;
        }
        let mut next = reachable;
        for (id, r) in rank.iter_mut().enumerate() {
            if !seen[id] {
                *r = next;
                next += 1;
            }
        }
        rank
    }

    /// The original dense MFP worklist (LIFO over node ids, no dependency
    /// tracking) — the measured baseline and differential oracle for
    /// [`solve_mfp`](Cfg::solve_mfp).
    pub fn solve_mfp_dense<D: NumDomain>(&self, init: DfEnv<D>) -> DfSummary<D> {
        let n = self.nodes.len();
        let mut preds: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for (i, node) in self.nodes.iter().enumerate() {
            for &s in &node.succs {
                preds[s.0].push(NodeId(i));
            }
        }
        let mut outs: Vec<DfEnv<D>> = vec![vec![D::bot(); self.num_vars]; n];
        let mut work: Vec<NodeId> = (0..n).map(NodeId).collect();
        while let Some(id) = work.pop() {
            let mut inn = if id == self.entry {
                init.clone()
            } else {
                vec![D::bot(); self.num_vars]
            };
            for &p in &preds[id.0] {
                inn = Self::join_env(&inn, &outs[p.0]);
            }
            let out = self.transfer(self.nodes[id.0].stmt, &inn);
            if !Self::env_leq(&out, &outs[id.0]) {
                outs[id.0] = Self::join_env(&outs[id.0], &out);
                for &s in &self.nodes[id.0].succs {
                    work.push(s);
                }
            }
        }
        self.summarize(&outs)
    }

    /// The **MOP** solution by explicit path enumeration, joining each
    /// variable's value at its definitions *per path*. Exponential; bounded
    /// by `max_paths`. Returns the summary and the number of paths.
    ///
    /// # Errors
    ///
    /// [`CfgError::TooManyPaths`] past the bound.
    pub fn solve_mop<D: NumDomain>(
        &self,
        init: DfEnv<D>,
        max_paths: usize,
        mode: PathMode,
    ) -> Result<(DfSummary<D>, usize), CfgError> {
        let mut summary = vec![D::bot(); self.num_vars];
        let mut paths = 0usize;
        let mut stack: Vec<(NodeId, DfEnv<D>, Vec<D>)> = Vec::new();
        stack.push((self.entry, init, vec![D::bot(); self.num_vars]));
        while let Some((id, env, mut defs)) = stack.pop() {
            let node = &self.nodes[id.0];
            let out = self.transfer(node.stmt, &env);
            if let Some(x) = node.stmt.def() {
                defs[x.index()] = defs[x.index()].join(&out[x.index()]);
            }
            if id == self.exit {
                paths += 1;
                if paths > max_paths {
                    return Err(CfgError::TooManyPaths { limit: max_paths });
                }
                for (s, d) in summary.iter_mut().zip(&defs) {
                    *s = s.join(d);
                }
                continue;
            }
            let succs = self.feasible_succs(node, &out, mode);
            for s in succs {
                stack.push((s, out.clone(), defs.clone()));
            }
        }
        Ok((DfSummary { vars: summary }, paths))
    }

    fn feasible_succs<D: NumDomain>(
        &self,
        node: &Node,
        env: &DfEnv<D>,
        mode: PathMode,
    ) -> Vec<NodeId> {
        if node.succs.len() != 2 || mode == PathMode::AllPaths {
            return node.succs.clone();
        }
        let test: D = match node.cond {
            Some(Cond::Var(x)) => env[x.index()].clone(),
            Some(Cond::Num(n)) => D::constant(n),
            None => return node.succs.clone(),
        };
        if test.is_exactly_zero() {
            vec![node.succs[0]]
        } else if !test.may_be_zero() {
            vec![node.succs[1]]
        } else {
            node.succs.clone()
        }
    }

    fn summarize<D: NumDomain>(&self, outs: &[DfEnv<D>]) -> DfSummary<D> {
        let mut vars = vec![D::bot(); self.num_vars];
        for (i, node) in self.nodes.iter().enumerate() {
            if let Some(x) = node.stmt.def() {
                vars[x.index()] = vars[x.index()].join(&outs[i][x.index()]);
            }
        }
        DfSummary { vars }
    }
}

/// The variables a statement reads: one for `Copy`/`Add1`/`Sub1`, two
/// distinct ones for `Sum`, none otherwise.
fn uses(stmt: Stmt) -> [Option<VarId>; 2] {
    match stmt {
        Stmt::Copy(_, y) | Stmt::Add1(_, y) | Stmt::Sub1(_, y) => [Some(y), None],
        Stmt::Sum(_, y, z) => [Some(y), (z != y).then_some(z)],
        Stmt::Const(..) | Stmt::Havoc(_) | Stmt::Nop => [None, None],
    }
}

/// `src` entry of a node that defines nothing.
const NO_SOURCE: u32 = u32::MAX;

/// The bits of `[lo, hi)` that fall in bitset word `w`.
fn range_mask(w: usize, lo: usize, hi: usize) -> u64 {
    let (base, end) = (w * 64, w * 64 + 64);
    let (lo, hi) = (lo.clamp(base, end), hi.clamp(base, end));
    match hi - lo {
        0 => 0,
        64 => !0,
        len => ((1u64 << len) - 1) << (lo - base),
    }
}

/// The state of one sparse MFP solve (see [`Cfg::solve_mfp`]).
///
/// A *source* is one variable's non-⊥ entry value or one defining node.
/// The sources of variable `x` are numbered contiguously,
/// `start[x]..start[x + 1]` with the entry source first, so the kill set of
/// a definition of `x` is a single bit range.
struct SparseMfp<'c, D> {
    cfg: &'c Cfg,
    /// `start[x]..start[x + 1]` = the sources of variable `x`.
    start: Vec<u32>,
    /// `src[i]` = the source CFG node `i` defines, or [`NO_SOURCE`].
    src: Vec<u32>,
    /// Words per reaching-source bitset.
    words: usize,
    /// Row `i` (`words` words) = the sources reaching the entry of node `i`.
    reach: Vec<u64>,
    /// `vals[s]` = the value of source `s`: the entry value for an entry
    /// source, the accumulated defined value for a defining node.
    vals: Vec<D>,
}

impl<'c, D: NumDomain> SparseMfp<'c, D> {
    /// Numbers the sources, charges the working set (bitsets plus source
    /// values) to `guard`, and seeds the entry's in-set with the entry
    /// sources.
    fn new(cfg: &'c Cfg, init: &DfEnv<D>, guard: &RunGuard) -> Result<Self, AnalysisError> {
        let has_entry = |x: usize| !init[x].is_bot();
        let mut start = vec![0u32; cfg.num_vars + 1];
        for x in 0..cfg.num_vars {
            start[x + 1] = u32::from(has_entry(x));
        }
        for node in &cfg.nodes {
            if let Some(x) = node.stmt.def() {
                start[x.index() + 1] += 1;
            }
        }
        for x in 0..cfg.num_vars {
            start[x + 1] += start[x];
        }
        let mut next: Vec<u32> = (0..cfg.num_vars)
            .map(|x| start[x] + u32::from(has_entry(x)))
            .collect();
        let src: Vec<u32> = cfg
            .nodes
            .iter()
            .map(|node| match node.stmt.def() {
                Some(x) => {
                    next[x.index()] += 1;
                    next[x.index()] - 1
                }
                None => NO_SOURCE,
            })
            .collect();
        let sources = start[cfg.num_vars] as usize;
        let words = sources.div_ceil(64);
        let n = cfg.nodes.len();
        guard.charge_memory(
            (n * words * std::mem::size_of::<u64>() + sources * std::mem::size_of::<D>()) as u64,
        )?;
        let mut mfp = SparseMfp {
            cfg,
            start,
            src,
            words,
            reach: vec![0; n * words],
            vals: vec![D::bot(); sources],
        };
        let entry = cfg.entry.0 * words;
        for x in (0..cfg.num_vars).filter(|&x| has_entry(x)) {
            let s = mfp.start[x] as usize;
            mfp.vals[s] = init[x].clone();
            mfp.reach[entry + s / 64] |= 1 << (s % 64);
        }
        Ok(mfp)
    }

    /// The sources node `i` kills: those of the variable it defines.
    fn kill(&self, i: usize) -> (usize, usize) {
        match self.cfg.nodes[i].stmt.def() {
            Some(x) => (
                self.start[x.index()] as usize,
                self.start[x.index() + 1] as usize,
            ),
            None => (0, 0),
        }
    }

    /// The sources of `y` that reach the entry of node `d`.
    fn reaching(&self, d: usize, y: VarId) -> impl Iterator<Item = usize> + '_ {
        let row = &self.reach[d * self.words..(d + 1) * self.words];
        (self.start[y.index()] as usize..self.start[y.index() + 1] as usize)
            .filter(move |&s| row[s / 64] >> (s % 64) & 1 == 1)
    }

    /// `in[d][y]`: the join of the values of `y`'s sources reaching `d`.
    fn reaching_join(&self, d: usize, y: VarId) -> D {
        self.reaching(d, y)
            .fold(D::bot(), |acc, s| acc.join(&self.vals[s]))
    }

    /// Phase-1 firing of node `i`: join the out-sets of the predecessors
    /// that changed since the last firing (out = in − kill ∪ {own source})
    /// into `i`'s in-set, and report a change of `i`'s own out-set — new
    /// in-bits outside its kill range.
    fn fire_reach(&mut self, i: usize, solver: &mut WorklistSolver, deltas: &mut Vec<DeltaRange>) {
        solver.take_deltas(i, deltas);
        let w = self.words;
        let (klo, khi) = self.kill(i);
        let mut grew = false;
        for &(p, _, _) in deltas.iter() {
            let (plo, phi) = self.kill(p);
            let own = self.src[p];
            for k in 0..w {
                let mut out = self.reach[p * w + k] & !range_mask(k, plo, phi);
                if own != NO_SOURCE && own as usize / 64 == k {
                    out |= 1 << (own % 64);
                }
                let old = self.reach[i * w + k];
                if out & !old != 0 {
                    self.reach[i * w + k] = old | out;
                    grew |= out & !old & !range_mask(k, klo, khi) != 0;
                }
            }
        }
        if grew {
            solver.node_changed(i);
        }
    }

    /// Phase-2 firing of defining node `d`: apply its statement to the
    /// join of its used variables' reaching sources and grow its source's
    /// value.
    fn fire_value(&mut self, d: usize, solver: &mut WorklistSolver) {
        let v = match self.cfg.nodes[d].stmt {
            Stmt::Const(_, k) => D::constant(k),
            Stmt::Havoc(_) => D::top(),
            Stmt::Copy(_, y) => self.reaching_join(d, y),
            Stmt::Add1(_, y) => self.reaching_join(d, y).add1(),
            Stmt::Sub1(_, y) => self.reaching_join(d, y).sub1(),
            Stmt::Sum(_, y, z) => {
                let (a, b) = (self.reaching_join(d, y), self.reaching_join(d, z));
                match (a.as_const(), b.as_const()) {
                    (Some(p), Some(q)) => D::constant(p + q),
                    _ if a.is_bot() || b.is_bot() => D::bot(),
                    _ => D::top(),
                }
            }
            Stmt::Nop => unreachable!("a Nop node defines no source"),
        };
        let s = self.src[d] as usize;
        if !v.leq(&self.vals[s]) {
            self.vals[s] = self.vals[s].join(&v);
            solver.node_changed(self.cfg.nodes.len() + s);
        }
    }

    /// `summary[x]` = the join of the values of `x`'s defining sources.
    fn summary(&self) -> DfSummary<D> {
        let mut vars = vec![D::bot(); self.cfg.num_vars];
        for (node, &s) in self.cfg.nodes.iter().zip(&self.src) {
            if let Some(x) = node.stmt.def() {
                vars[x.index()] = vars[x.index()].join(&self.vals[s as usize]);
            }
        }
        DfSummary { vars }
    }
}

struct Builder<'p> {
    nodes: Vec<Node>,
    prog: &'p AnfProgram,
}

impl Builder<'_> {
    fn push(&mut self, node: Node) -> NodeId {
        self.nodes.push(node);
        NodeId(self.nodes.len() - 1)
    }

    fn connect(&mut self, from: NodeId, to: NodeId) {
        self.nodes[from.0].succs.push(to);
    }

    fn var(&self, x: &cpsdfa_syntax::Ident) -> VarId {
        self.prog.var_id(x).expect("validated program variable")
    }

    /// Lowers `m` after node `pred`; returns the last node of the lowering.
    fn lower(&mut self, m: &Anf, pred: NodeId) -> Result<NodeId, CfgError> {
        match &m.kind {
            AnfKind::Value(v) => {
                Self::check_first_order_value(v)?;
                Ok(pred)
            }
            AnfKind::Let { var, bind, body } => {
                let x = self.var(var);
                let after_bind = match bind {
                    Bind::Value(v) => {
                        let stmt = match &v.kind {
                            AValKind::Num(n) => Stmt::Const(x, *n),
                            AValKind::Var(y) => Stmt::Copy(x, self.var(y)),
                            AValKind::Lam(..) | AValKind::Add1 | AValKind::Sub1 => {
                                return Err(CfgError::HigherOrder(format!(
                                    "procedure value bound to `{var}`"
                                )))
                            }
                        };
                        let n = self.push(Node::stmt(stmt));
                        self.connect(pred, n);
                        n
                    }
                    Bind::App(f, a) => {
                        let stmt = match (&f.kind, &a.kind) {
                            (AValKind::Add1, AValKind::Var(y)) => Stmt::Add1(x, self.var(y)),
                            (AValKind::Sub1, AValKind::Var(y)) => Stmt::Sub1(x, self.var(y)),
                            (AValKind::Add1, AValKind::Num(n)) => Stmt::Const(x, n + 1),
                            (AValKind::Sub1, AValKind::Num(n)) => Stmt::Const(x, n - 1),
                            _ => {
                                return Err(CfgError::HigherOrder(format!(
                                    "non-primitive application bound to `{var}`"
                                )))
                            }
                        };
                        let n = self.push(Node::stmt(stmt));
                        self.connect(pred, n);
                        n
                    }
                    Bind::If0(c, then_, else_) => {
                        let cond = match &c.kind {
                            AValKind::Var(y) => Cond::Var(self.var(y)),
                            AValKind::Num(n) => Cond::Num(*n),
                            _ => {
                                return Err(CfgError::HigherOrder(
                                    "procedure test in if0".to_owned(),
                                ))
                            }
                        };
                        let branch = self.push(Node {
                            stmt: Stmt::Nop,
                            succs: Vec::new(),
                            cond: Some(cond),
                        });
                        self.connect(pred, branch);
                        let t_end = self.lower_arm(then_, branch, x)?;
                        let e_end = self.lower_arm(else_, branch, x)?;
                        let join = self.push(Node::stmt(Stmt::Nop));
                        self.connect(t_end, join);
                        self.connect(e_end, join);
                        join
                    }
                    Bind::Loop => {
                        let n = self.push(Node::stmt(Stmt::Havoc(x)));
                        self.connect(pred, n);
                        n
                    }
                };
                self.lower(body, after_bind)
            }
        }
    }

    /// Lowers a conditional arm and assigns its result value into `x`.
    /// Crucially the arm is lowered behind an intermediate node so the
    /// branch's two successor slots stay `[then, else]`.
    fn lower_arm(&mut self, arm: &Anf, branch: NodeId, x: VarId) -> Result<NodeId, CfgError> {
        let head = self.push(Node::stmt(Stmt::Nop));
        self.connect(branch, head);
        let end = self.lower(arm, head)?;
        let result = Self::tail_value(arm);
        let stmt = match &result.kind {
            AValKind::Num(n) => Stmt::Const(x, *n),
            AValKind::Var(y) => Stmt::Copy(x, self.var(y)),
            _ => {
                return Err(CfgError::HigherOrder(
                    "procedure value in conditional arm".to_owned(),
                ))
            }
        };
        let n = self.push(Node::stmt(stmt));
        self.connect(end, n);
        Ok(n)
    }

    fn tail_value(m: &Anf) -> &cpsdfa_anf::AVal {
        match &m.kind {
            AnfKind::Value(v) => v,
            AnfKind::Let { body, .. } => Self::tail_value(body),
        }
    }

    fn check_first_order_value(v: &cpsdfa_anf::AVal) -> Result<(), CfgError> {
        match &v.kind {
            AValKind::Lam(..) => Err(CfgError::HigherOrder("λ value".to_owned())),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Flat;

    /// Parses `src` into a first-order CFG, naming the source in every
    /// failure so a corpus regression points at the offending program.
    fn cfg(src: &str) -> (AnfProgram, Cfg) {
        let p = AnfProgram::parse(src).unwrap_or_else(|e| panic!("parse failed on {src:?}: {e}"));
        let c = Cfg::from_first_order(&p)
            .unwrap_or_else(|e| panic!("CFG construction failed on {src:?}: {e}"));
        (p, c)
    }

    /// `solve_mfp` over `Flat` from the program's initial environment,
    /// naming `src` on divergence.
    fn mfp_flat(p: &AnfProgram, c: &Cfg, src: &str) -> DfSummary<Flat> {
        c.solve_mfp::<Flat>(c.initial_env(p))
            .unwrap_or_else(|e| panic!("MFP failed on {src:?}: {e}"))
    }

    #[test]
    fn straight_line_mfp_propagates_constants() {
        let src = "(let (a 1) (let (b (add1 a)) b))";
        let (p, c) = cfg(src);
        let mfp = mfp_flat(&p, &c, src);
        assert_eq!(mfp.get(p.var_named("a").unwrap()).as_const(), Some(1));
        assert_eq!(mfp.get(p.var_named("b").unwrap()).as_const(), Some(2));
    }

    #[test]
    fn unary_transfers_make_classical_mop_equal_mfp() {
        // With only add1/sub1 the framework instance is distributive, so
        // the Kam–Ullman all-paths MOP coincides with MFP even on diamonds.
        let src = "(let (a1 (if0 z 0 1)) (let (a2 (if0 a1 (+ a1 3) (+ a1 2))) a2))";
        let (p, c) = cfg(src);
        let init = c.initial_env::<Flat>(&p);
        let mfp = c
            .solve_mfp::<Flat>(init.clone())
            .unwrap_or_else(|e| panic!("MFP failed on {src:?}: {e}"));
        let (mop, _) = c
            .solve_mop::<Flat>(init, 100, PathMode::AllPaths)
            .unwrap_or_else(|e| panic!("MOP failed on {src:?}: {e}"));
        assert!(mop.leq(&mfp) && mfp.leq(&mop));
        assert!(mfp.get(p.var_named("a2").unwrap()).is_top());
    }

    #[test]
    fn feasible_path_mop_matches_semantic_cps_gain() {
        // Feasible-path MOP prunes (a1=0, else) and (a1=1, then): only two
        // paths remain and both give a2 = 3 — exactly C_e's answer.
        let src = "(let (a1 (if0 z 0 1)) (let (a2 (if0 a1 (+ a1 3) (+ a1 2))) a2))";
        let (p, c) = cfg(src);
        let init = c.initial_env::<Flat>(&p);
        let (mop, paths) = c
            .solve_mop::<Flat>(init, 100, PathMode::FeasiblePaths)
            .unwrap_or_else(|e| panic!("feasible-path MOP failed on {src:?}: {e}"));
        assert_eq!(paths, 2);
        assert_eq!(mop.get(p.var_named("a2").unwrap()).as_const(), Some(3));
    }

    #[test]
    fn sum_statement_restores_classical_separation() {
        // The textbook example: {a:=1; b:=2} or {a:=2; b:=1}; c := a + b.
        // MOP: c = 3 on both paths. MFP: a = b = ⊤ at the join, c = ⊤.
        let a = VarId(0);
        let b = VarId(1);
        let cc = VarId(2);
        let z = VarId(3);
        let nodes = vec![
            Node {
                stmt: Stmt::Havoc(z),
                succs: vec![NodeId(1)],
                cond: None,
            }, // 0 entry
            Node {
                stmt: Stmt::Nop,
                succs: vec![NodeId(2), NodeId(4)],
                cond: Some(Cond::Var(z)),
            },
            Node {
                stmt: Stmt::Const(a, 1),
                succs: vec![NodeId(3)],
                cond: None,
            },
            Node {
                stmt: Stmt::Const(b, 2),
                succs: vec![NodeId(6)],
                cond: None,
            },
            Node {
                stmt: Stmt::Const(a, 2),
                succs: vec![NodeId(5)],
                cond: None,
            },
            Node {
                stmt: Stmt::Const(b, 1),
                succs: vec![NodeId(6)],
                cond: None,
            },
            Node {
                stmt: Stmt::Sum(cc, a, b),
                succs: vec![NodeId(7)],
                cond: None,
            },
            Node {
                stmt: Stmt::Nop,
                succs: vec![],
                cond: None,
            }, // 7 exit
        ];
        let g = Cfg::from_parts(nodes, NodeId(0), NodeId(7), 4)
            .expect("the hand-built two-branch sum CFG is well-formed");
        let init = g.bottom_env::<Flat>();
        let mfp = g
            .solve_mfp::<Flat>(init.clone())
            .expect("MFP failed on the hand-built two-branch sum CFG");
        let (mop, paths) = g
            .solve_mop::<Flat>(init, 10, PathMode::AllPaths)
            .expect("MOP failed on the hand-built two-branch sum CFG");
        assert_eq!(paths, 2);
        assert!(mfp.get(cc).is_top(), "MFP merges early");
        assert_eq!(mop.get(cc).as_const(), Some(3), "MOP keeps the correlation");
        assert!(mop.leq(&mfp) && !mfp.leq(&mop));
    }

    #[test]
    fn loop_construct_becomes_havoc() {
        let src = "(let (x (loop)) (let (y (add1 x)) y))";
        let (p, c) = cfg(src);
        let mfp = mfp_flat(&p, &c, src);
        assert!(mfp.get(p.var_named("x").unwrap()).is_top());
        assert!(mfp.get(p.var_named("y").unwrap()).is_top());
    }

    #[test]
    fn higher_order_programs_are_rejected() {
        let p = AnfProgram::parse("(let (f (lambda (x) x)) (f 1))").unwrap();
        assert!(matches!(
            Cfg::from_first_order(&p),
            Err(CfgError::HigherOrder(_))
        ));
    }

    #[test]
    fn path_bound_is_enforced() {
        let src = "(let (a (if0 z 0 1)) (let (b (if0 w 0 1)) (let (c (if0 v 0 1)) c)))";
        let (p, c) = cfg(src);
        let init = c.initial_env::<Flat>(&p);
        let err = c
            .solve_mop::<Flat>(init.clone(), 7, PathMode::AllPaths)
            .unwrap_err();
        assert_eq!(err, CfgError::TooManyPaths { limit: 7 });
        let (_, paths) = c
            .solve_mop::<Flat>(init, 8, PathMode::AllPaths)
            .unwrap_or_else(|e| panic!("MOP failed on {src:?}: {e}"));
        assert_eq!(paths, 8);
    }

    #[test]
    fn mop_always_refines_mfp() {
        for src in [
            "(let (a (if0 z 1 2)) (let (b (add1 a)) b))",
            "(let (a (if0 z 7 7)) a)",
            "(let (a 3) (let (b (if0 z a (add1 a))) b))",
            "(let (a (if0 0 1 2)) a)",
        ] {
            let (p, c) = cfg(src);
            let init = c.initial_env::<Flat>(&p);
            let mfp = c
                .solve_mfp::<Flat>(init.clone())
                .unwrap_or_else(|e| panic!("MFP failed on {src:?}: {e}"));
            for mode in [PathMode::AllPaths, PathMode::FeasiblePaths] {
                let (mop, _) = c
                    .solve_mop::<Flat>(init.clone(), 1000, mode)
                    .unwrap_or_else(|e| panic!("MOP ({mode:?}) failed on {src:?}: {e}"));
                assert!(mop.leq(&mfp), "MOP ⋢ MFP on {src} ({mode:?})");
            }
        }
    }

    #[test]
    fn sparse_and_dense_mfp_agree() {
        for src in [
            "(let (a 1) (let (b (add1 a)) b))",
            "(let (a1 (if0 z 0 1)) (let (a2 (if0 a1 (+ a1 3) (+ a1 2))) a2))",
            "(let (x (loop)) (let (y (add1 x)) y))",
            "(let (a (if0 z 1 2)) (let (b (add1 a)) b))",
            "(let (a (if0 z 0 1)) (let (b (if0 w 0 1)) (let (c (if0 v 0 1)) c)))",
        ] {
            let (p, c) = cfg(src);
            let init = c.initial_env::<Flat>(&p);
            let (sparse, stats) = c
                .solve_mfp_instrumented::<Flat>(init.clone())
                .unwrap_or_else(|e| panic!("sparse MFP failed on {src:?}: {e}"));
            let dense = c.solve_mfp_dense::<Flat>(init);
            assert_eq!(sparse, dense, "MFP solutions diverge on {src}");
            assert_eq!(stats.constraints, two_phase_constraints(&c));
            assert!(stats.fired >= stats.constraints);
        }
    }

    /// One reaching-sources constraint per node plus one value constraint
    /// per defining node.
    fn two_phase_constraints(c: &Cfg) -> u64 {
        let defs = c.nodes().iter().filter(|n| n.stmt.def().is_some()).count();
        (c.nodes().len() + defs) as u64
    }

    #[test]
    fn rpo_pops_forward_graphs_in_one_pass_each() {
        // On an acyclic diamond the RPO rank order means every constraint
        // of each phase fires exactly once with no re-posts surviving
        // coalescing: a node's predecessors, and a definition's reaching
        // sources, all rank before it.
        let src = "(let (a1 (if0 z 0 1)) (let (a2 (add1 a1)) a2))";
        let (p, c) = cfg(src);
        let (_, stats) = c
            .solve_mfp_instrumented::<Flat>(c.initial_env::<Flat>(&p))
            .unwrap_or_else(|e| panic!("sparse MFP failed on {src:?}: {e}"));
        assert_eq!(stats.constraints, two_phase_constraints(&c));
        assert_eq!(
            stats.fired, stats.constraints,
            "acyclic CFG should settle in one RPO pass per phase"
        );
    }

    #[test]
    fn traced_mfp_matches_and_tiny_budget_stops_it() {
        let src = "(let (a1 (if0 z 0 1)) (let (a2 (if0 a1 (+ a1 3) (+ a1 2))) a2))";
        let (p, c) = cfg(src);
        let init = c.initial_env::<Flat>(&p);
        let mut agg = crate::trace::AggSink::new();
        let (traced, stats) = c
            .solve_mfp_guarded::<Flat>(
                init.clone(),
                &RunGuard::new(AnalysisBudget::default()),
                &mut agg,
            )
            .unwrap_or_else(|e| panic!("traced MFP failed on {src:?}: {e}"));
        assert_eq!(
            traced,
            c.solve_mfp::<Flat>(init.clone())
                .unwrap_or_else(|e| panic!("MFP failed on {src:?}: {e}"))
        );
        assert_eq!(agg.counter_value("mfp.fired"), stats.fired);
        assert_eq!(agg.span_agg("mfp").unwrap().count, 1);
        let err = c
            .solve_mfp_guarded::<Flat>(init, &RunGuard::new(AnalysisBudget::new(1)), &mut NoopSink)
            .expect_err("one firing cannot settle a diamond");
        assert!(matches!(err, AnalysisError::BudgetExhausted { budget: 1 }));
    }

    #[test]
    fn from_parts_validates() {
        let bad = vec![Node {
            stmt: Stmt::Nop,
            succs: vec![NodeId(5)],
            cond: None,
        }];
        assert!(matches!(
            Cfg::from_parts(bad, NodeId(0), NodeId(0), 0),
            Err(CfgError::Malformed(_))
        ));
        let two_way = vec![
            Node {
                stmt: Stmt::Nop,
                succs: vec![NodeId(1), NodeId(1)],
                cond: None,
            },
            Node {
                stmt: Stmt::Nop,
                succs: vec![],
                cond: None,
            },
        ];
        assert!(matches!(
            Cfg::from_parts(two_way, NodeId(0), NodeId(1), 0),
            Err(CfgError::Malformed(_))
        ));
    }
}
