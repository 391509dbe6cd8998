//! Hash-consed set arena: interns `BTreeSet<T>` values into small [`SetId`]
//! handles, so equal sets are stored once and compare by handle — plus
//! [`DeltaNodes`], the growth store the semi-naïve solvers use while a
//! fixpoint is still moving.
//!
//! Interning every intermediate set has a failure mode: a node that grows
//! one element at a time pays an O(|set|) clone + hash per growth step, so
//! workloads dominated by incremental growth (CPS 0CFA on wide dispatch)
//! would regress below a dense in-place `extend`. So *growing* sets stay
//! out of the arena entirely: [`DeltaNodes`] stores every flow node as an
//! append-only growth log (the delta source the
//! [`WorklistSolver`](crate::solver::WorklistSolver) cursors index) plus a
//! bitset over a store-wide dense value universe, so a value is hashed once
//! at first sight and forwarded between nodes with pure bit ops. Nodes
//! intern into the pool only at the commit point
//! ([`DeltaNodes::commit_into`]), after convergence, and the commit walks
//! the bitset in universe-index order, memoizing on the canonical index
//! run, so no comparison sort or re-hash happens at extraction either.
//! Persist decode shares the sets of one answer by their encoded bytes,
//! so a recovered answer shares its sets the way a fresh one does.
//!
//! Each analysis task owns its pool (see the corpus driver in
//! `cpsdfa-workloads`), so the arena itself needs no lock. Its sets are
//! [`Arc`]-shared, though: the handles a solver commits into its result
//! stay shared when that result crosses into the service's cross-thread
//! cache, so a cached answer stores each distinct set once.

use crate::kernels;
use cpsdfa_syntax::fxhash::FxHashMap;
use std::collections::BTreeSet;
use std::hash::Hash;
use std::sync::Arc;

/// A handle to an interned set. Two handles from the *same pool* are equal
/// iff the sets they denote are equal. [`SetPool::EMPTY`] is always the
/// empty set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SetId(u32);

impl SetId {
    /// The dense index of this handle (for side tables).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Counters describing pool effectiveness; folded into
/// [`SolverStats`](crate::stats::SolverStats) by the sparse analyzers.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Distinct sets interned (arena size).
    pub interned: u64,
    /// [`DeltaNodes::commit_into`] calls answered from the commit memo (or
    /// trivially empty).
    pub commit_hits: u64,
    /// Commits that had to intern a set.
    pub commit_misses: u64,
}

/// The arena. `T` is the set element (e.g. `AbsClo`, `AbsKont`, or the CPS
/// mixed flow value).
pub struct SetPool<T> {
    sets: Vec<Arc<BTreeSet<T>>>,
    intern: FxHashMap<Arc<BTreeSet<T>>, SetId>,
    stats: PoolStats,
}

impl<T: Ord + Clone + Hash> SetPool<T> {
    /// The empty set's handle, valid in every pool.
    pub const EMPTY: SetId = SetId(0);

    /// A fresh pool containing only the empty set.
    pub fn new() -> Self {
        let empty = Arc::new(BTreeSet::new());
        let mut intern = FxHashMap::default();
        intern.insert(Arc::clone(&empty), SetId(0));
        SetPool {
            sets: vec![empty],
            intern,
            stats: PoolStats {
                interned: 1,
                ..PoolStats::default()
            },
        }
    }

    /// Interns `set`, returning its canonical handle.
    pub fn intern(&mut self, set: BTreeSet<T>) -> SetId {
        if let Some(&id) = self.intern.get(&set) {
            return id;
        }
        let id = SetId(self.sets.len() as u32);
        let set = Arc::new(set);
        self.sets.push(Arc::clone(&set));
        self.intern.insert(set, id);
        self.stats.interned += 1;
        id
    }

    /// An O(1) shared handle to the set: what a committed result (and a
    /// decoded one) stores, so every slot holding the set shares it.
    pub fn get_arc(&self, id: SetId) -> Arc<BTreeSet<T>> {
        Arc::clone(&self.sets[id.index()])
    }

    /// Pool effectiveness counters.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }
}

/// The value store of a semi-naïve CFA solver: per flow node, an append-only
/// **growth log** in insertion order plus a **bitset** membership filter
/// over a store-wide dense value universe. The log is what
/// [`WorklistSolver::take_deltas`](crate::solver::WorklistSolver::take_deltas)
/// ranges index: `log(n)[lo..hi]` is exactly the delta a firing consumes,
/// and the log as a whole holds the node's distinct elements — the commit
/// input. Because adds dedup through the filter, the log never repeats an
/// element, so delivering disjoint log ranges can never double-count — the
/// delta-merge idempotence the solvers rely on.
///
/// The universe trick is what makes propagation cheap: a value is hashed
/// *once*, when it first enters the store ([`add`](DeltaNodes::add)
/// assigns it the next dense index), and the index rides along in the log
/// entries. Forwarding an element from one node's log into another node
/// ([`add_indexed`](DeltaNodes::add_indexed)) is then a bit test and two
/// pushes — no hashing at all — which matters because flow-heavy workloads
/// (wide dispatch) forward each element across many edges but introduce it
/// only once. A sorted vector per node would also work, but its O(|set|)
/// shift per insert re-creates the clone-per-element regime this engine
/// exists to kill.
pub struct DeltaNodes<T> {
    /// value → dense universe index, assigned at first sight.
    universe: FxHashMap<T, u32>,
    /// universe index → value (the inverse of `universe`), for
    /// [`commit_into`](DeltaNodes::commit_into)'s index-order walk.
    rev: Vec<T>,
    /// Per node: insertion-ordered distinct `(value, universe index)`.
    logs: Vec<Vec<(T, u32)>>,
    /// Per node: membership bits over universe indices, grown on demand.
    bits: Vec<Vec<u64>>,
    /// Canonical index runs already committed → their pool handle.
    commit_memo: FxHashMap<Box<[u32]>, SetId>,
    /// Reused index buffer for [`commit_into`](DeltaNodes::commit_into).
    commit_scratch: Vec<u32>,
    /// Reused diff-word buffer for the bulk
    /// [`forward_range`](DeltaNodes::forward_range) kernel.
    diff_scratch: Vec<u64>,
    /// Total log entries across nodes (running count).
    log_entries: usize,
    /// Total *reserved* log slots across nodes — `Vec` capacity, not
    /// length, so [`approx_bytes`](DeltaNodes::approx_bytes) charges the
    /// heap the allocator actually handed out (a growth log doubling from
    /// 1024 to 2048 entries costs its full reservation the moment it
    /// happens, not as elements trickle in).
    log_cap: usize,
    /// Total in-use bitset words across nodes (running count).
    bit_words: usize,
    /// Total reserved bitset words across nodes (capacity, as `log_cap`).
    bit_cap: usize,
}

impl<T: Eq + Hash + Clone> DeltaNodes<T> {
    /// `n` empty nodes. Logs and bitsets allocate lazily on first growth.
    pub fn new(n: usize) -> Self {
        DeltaNodes {
            universe: FxHashMap::default(),
            rev: Vec::new(),
            logs: vec![Vec::new(); n],
            bits: vec![Vec::new(); n],
            commit_memo: FxHashMap::default(),
            commit_scratch: Vec::new(),
            diff_scratch: Vec::new(),
            log_entries: 0,
            log_cap: 0,
            bit_words: 0,
            bit_cap: 0,
        }
    }

    /// Adds `v` to `node`; on growth returns `Some(new_log_len)` — the
    /// value to hand to
    /// [`WorklistSolver::node_grew`](crate::solver::WorklistSolver::node_grew)
    /// — and `None` if the element was already present (idempotent).
    /// Hashes `v` to find (or mint) its universe index; when forwarding an
    /// element already carrying its index, use
    /// [`add_indexed`](DeltaNodes::add_indexed) instead.
    pub fn add(&mut self, node: usize, v: T) -> Option<usize> {
        let vi = match self.universe.get(&v) {
            Some(&vi) => vi,
            None => {
                let vi = self.universe.len() as u32;
                self.universe.insert(v.clone(), vi);
                self.rev.push(v.clone());
                vi
            }
        };
        self.add_indexed(node, v, vi)
    }

    /// [`add`](DeltaNodes::add) for a `(value, index)` pair read from one of
    /// *this store's* log entries — the no-hash propagation path. `vi` must
    /// be the index paired with `v` in a log of this `DeltaNodes`.
    pub fn add_indexed(&mut self, node: usize, v: T, vi: u32) -> Option<usize> {
        let (word, bit) = (vi as usize / 64, vi % 64);
        let bits = &mut self.bits[node];
        if word >= bits.len() {
            let cap_before = bits.capacity();
            self.bit_words += word + 1 - bits.len();
            bits.resize(word + 1, 0);
            self.bit_cap += bits.capacity() - cap_before;
        }
        if bits[word] & (1 << bit) != 0 {
            return None;
        }
        bits[word] |= 1 << bit;
        let log = &mut self.logs[node];
        let cap_before = log.capacity();
        log.push((v, vi));
        self.log_cap += log.capacity() - cap_before;
        self.log_entries += 1;
        Some(self.logs[node].len())
    }

    /// Bulk-forwards `log(src)[lo..hi]` into `dst`, the one-call form of
    /// the per-element [`add_indexed`](DeltaNodes::add_indexed) loop every
    /// `Sub`-edge firing runs. When the range covers the *whole* source log
    /// — the dominant case: a constraint created after its source stopped
    /// growing, or a node consumed in one delta batch — the transfer drops
    /// to the word kernels ([`kernels::union_into_diff`] +
    /// [`kernels::for_each_set_bit`]): no per-element bit tests, and the
    /// new elements append in universe-index order. Partial ranges take the
    /// scalar indexed path (log order). Returns `Some(new_log_len)` iff
    /// `dst` grew.
    pub fn forward_range(&mut self, src: usize, lo: usize, hi: usize, dst: usize) -> Option<usize> {
        if lo >= hi || src == dst {
            return None;
        }
        if lo == 0 && hi == self.logs[src].len() {
            // Kernel path. Take dst's bits out so the src bits can be read
            // while the union writes — the empty Vec left behind is
            // restored below.
            let mut dstbits = std::mem::take(&mut self.bits[dst]);
            let srcbits = &self.bits[src];
            if dstbits.len() < srcbits.len() {
                let cap_before = dstbits.capacity();
                self.bit_words += srcbits.len() - dstbits.len();
                dstbits.resize(srcbits.len(), 0);
                self.bit_cap += dstbits.capacity() - cap_before;
            }
            let changed = kernels::union_into_diff(&mut dstbits, srcbits, &mut self.diff_scratch);
            self.bits[dst] = dstbits;
            if !changed {
                return None;
            }
            let rev = &self.rev;
            let log = &mut self.logs[dst];
            let cap_before = log.capacity();
            let len_before = log.len();
            kernels::for_each_set_bit(&self.diff_scratch, |vi| {
                log.push((rev[vi as usize].clone(), vi));
            });
            self.log_cap += log.capacity() - cap_before;
            self.log_entries += log.len() - len_before;
            return Some(self.logs[dst].len());
        }
        let mut grew = None;
        for i in lo..hi {
            let (v, vi) = self.logs[src][i].clone();
            if let Some(len) = self.add_indexed(dst, v, vi) {
                grew = Some(len);
            }
        }
        grew
    }

    /// An estimate of the store's heap footprint in bytes — growth logs,
    /// membership bitsets, and the value universe (entry and reverse
    /// table), all charged at their *reserved* capacity rather than their
    /// in-use length, so the figure tracks what the allocator is actually
    /// holding (amortized-doubling `Vec`s can reserve ~2× what they use).
    /// O(1):
    /// maintained incrementally by the add paths. This is what the governed
    /// CFA drivers feed the [`RunGuard`](crate::govern::RunGuard) memory
    /// ceiling, and the number tracks the same growth the `pool.*` gauges
    /// report at commit time.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        self.log_cap * size_of::<(T, u32)>()
            + self.bit_cap * size_of::<u64>()
            + self.rev.capacity() * size_of::<T>()
            + self.universe.capacity() * (size_of::<T>() + size_of::<u32>())
    }

    /// The growth log of `node`: its distinct elements in insertion order,
    /// each paired with its universe index.
    pub fn log(&self, node: usize) -> &[(T, u32)] {
        &self.logs[node]
    }

    /// The values of `node`'s growth log, in insertion order (the commit
    /// iterator).
    pub fn values(&self, node: usize) -> impl Iterator<Item = &T> {
        self.logs[node].iter().map(|(v, _)| v)
    }

    /// Interns `node`'s converged set into `pool` — the extraction commit
    /// point. The node's bitset already holds its elements as
    /// sorted-distinct universe indices, so the canonical form costs a word
    /// walk, not a comparison sort, and duplicate sets (every call site of
    /// a function converging to the same callee set) dedup through one
    /// `u32`-run hash before any `BTreeSet` is built. Handles are memoized
    /// per store: always pass the same `pool` for the lifetime of `self`.
    pub fn commit_into(&mut self, node: usize, pool: &mut SetPool<T>) -> SetId
    where
        T: Ord,
    {
        self.commit_scratch.clear();
        let scratch = &mut self.commit_scratch;
        kernels::for_each_set_bit(&self.bits[node], |vi| scratch.push(vi));
        if self.commit_scratch.is_empty() {
            pool.stats.commit_hits += 1;
            return SetPool::<T>::EMPTY;
        }
        if let Some(&id) = self.commit_memo.get(self.commit_scratch.as_slice()) {
            pool.stats.commit_hits += 1;
            return id;
        }
        pool.stats.commit_misses += 1;
        let set: BTreeSet<T> = self
            .commit_scratch
            .iter()
            .map(|&vi| self.rev[vi as usize].clone())
            .collect();
        let id = pool.intern(set);
        self.commit_memo.insert(
            self.commit_scratch.as_slice().to_vec().into_boxed_slice(),
            id,
        );
        id
    }
}

impl<T: Ord + Clone + Hash> Default for SetPool<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handle_equality_is_set_equality() {
        let mut p = SetPool::new();
        let a = p.intern(BTreeSet::from([1, 2, 3]));
        let b = p.intern(BTreeSet::from([3, 2, 1]));
        let c = p.intern(BTreeSet::from([1, 2]));
        assert_eq!(a, b, "same set must intern to the same handle");
        assert_ne!(a, c);
        assert_eq!(*p.get_arc(a), BTreeSet::from([1, 2, 3]));
        assert!(Arc::ptr_eq(&p.get_arc(a), &p.get_arc(b)), "stored once");
        assert_eq!(p.intern(BTreeSet::new()), SetPool::<i32>::EMPTY);
        assert_eq!(p.stats().interned, 3, "∅, {{1, 2, 3}} and {{1, 2}}");
    }

    #[test]
    fn delta_nodes_log_never_repeats_an_element() {
        let mut nodes: DeltaNodes<u32> = DeltaNodes::new(2);
        assert_eq!(nodes.add(0, 7), Some(1));
        assert_eq!(nodes.add(0, 9), Some(2));
        assert_eq!(nodes.add(0, 7), None, "overlapping add must be a no-op");
        assert_eq!(
            nodes.log(0),
            &[(7, 0), (9, 1)],
            "log keeps insertion order, deduped, with dense universe indices"
        );
        assert_eq!(nodes.log(1), &[] as &[(u32, u32)]);
    }

    #[test]
    fn delta_nodes_indexed_forwarding_matches_hashed_adds() {
        let mut nodes: DeltaNodes<u32> = DeltaNodes::new(2);
        for v in [5, 6, 7] {
            nodes.add(0, v);
        }
        // Forward node 0's log into node 1 via the carried indices — the
        // propagation path the solvers use.
        for i in 0..nodes.log(0).len() {
            let (v, vi) = nodes.log(0)[i];
            assert!(nodes.add_indexed(1, v, vi).is_some());
            assert!(
                nodes.add_indexed(1, v, vi).is_none(),
                "re-forwarding must be a no-op"
            );
        }
        let a: Vec<u32> = nodes.values(0).copied().collect();
        let b: Vec<u32> = nodes.values(1).copied().collect();
        assert_eq!(a, b);
        // Values minted after the forwarding get fresh universe indices.
        assert_eq!(nodes.add(1, 99), Some(4));
        assert!(nodes.values(1).any(|&v| v == 99) && !nodes.values(0).any(|&v| v == 99));
    }

    #[test]
    fn forward_range_kernel_and_scalar_paths_agree() {
        // Node 0 grows past one bitset word so the kernel path exercises
        // multi-word unions; forward the full log (kernel) into node 1 and
        // the same log in two partial slices (scalar) into node 2.
        let mut nodes: DeltaNodes<u32> = DeltaNodes::new(3);
        for v in 0..150 {
            nodes.add(0, v * 3);
        }
        assert_eq!(nodes.forward_range(0, 0, 150, 1), Some(150));
        assert_eq!(nodes.forward_range(0, 0, 70, 2), Some(70));
        assert_eq!(nodes.forward_range(0, 70, 150, 2), Some(150));
        let a: BTreeSet<u32> = nodes.values(1).copied().collect();
        let b: BTreeSet<u32> = nodes.values(2).copied().collect();
        let src: BTreeSet<u32> = nodes.values(0).copied().collect();
        assert_eq!(a, src);
        assert_eq!(b, src);
        // Re-forwarding is a no-op on both paths, and self-forwarding too.
        assert_eq!(nodes.forward_range(0, 0, 150, 1), None);
        assert_eq!(nodes.forward_range(0, 20, 90, 2), None);
        assert_eq!(nodes.forward_range(0, 0, 150, 0), None);
        assert_eq!(nodes.log(1).len(), 150, "no element forwarded twice");
    }

    #[test]
    fn forward_range_matches_per_element_adds_exactly() {
        // Differential: kernel-forwarded store vs the old per-element loop.
        let mut a: DeltaNodes<u32> = DeltaNodes::new(2);
        let mut b: DeltaNodes<u32> = DeltaNodes::new(2);
        for v in [9, 1, 130, 64, 63, 2, 200] {
            a.add(0, v);
            b.add(0, v);
        }
        // Seed dst with an overlap so the diff is partial.
        a.add(1, 130);
        b.add(1, 130);
        a.forward_range(0, 0, 7, 1);
        for i in 0..7 {
            let (v, vi) = b.log(0)[i];
            b.add_indexed(1, v, vi);
        }
        let sa: BTreeSet<u32> = a.values(1).copied().collect();
        let sb: BTreeSet<u32> = b.values(1).copied().collect();
        assert_eq!(sa, sb);
        assert_eq!(a.log(1).len(), b.log(1).len(), "same distinct count");
    }

    #[test]
    fn approx_bytes_charges_reserved_capacity() {
        let mut nodes: DeltaNodes<u64> = DeltaNodes::new(4);
        assert_eq!(nodes.log(0).len(), 0);
        let empty_estimate = nodes.approx_bytes();
        nodes.add(0, 1);
        let one = nodes.approx_bytes();
        assert!(one > empty_estimate, "first add must register");
        // Grow far enough to force several capacity doublings; the estimate
        // must cover at least the *length*-based lower bound at all times.
        for v in 0..500u64 {
            nodes.add(1, v);
        }
        let est = nodes.approx_bytes();
        let len_lower = std::mem::size_of_val(nodes.log(1));
        assert!(
            est >= len_lower,
            "capacity-aware estimate {est} must dominate the in-use bound {len_lower}"
        );
        // And the reserved-but-unused slack is actually charged: the
        // estimate must dominate the true reserved-capacity bound too
        // (tests live in-module, so the private fields are visible).
        let cap_lower = nodes.logs[1].capacity() * std::mem::size_of::<(u64, u32)>();
        assert!(cap_lower > len_lower, "500 pushes leave doubling slack");
        assert!(
            est >= cap_lower,
            "estimate {est} must cover reserved {cap_lower}"
        );
    }

    #[test]
    fn commit_memo_hits_are_counted() {
        let mut p = SetPool::new();
        let mut nodes: DeltaNodes<i32> = DeltaNodes::new(3);
        for v in [2, 1] {
            nodes.add(0, v);
            nodes.add(2, v);
        }
        let id = nodes.commit_into(0, &mut p); // miss: first sight of {1, 2}
        assert_eq!(nodes.commit_into(2, &mut p), id); // hit: same index run
        assert_eq!(nodes.commit_into(1, &mut p), SetPool::<i32>::EMPTY); // hit
        assert_eq!(p.stats().commit_misses, 1);
        assert_eq!(p.stats().commit_hits, 2);
        assert_eq!(
            p.intern(BTreeSet::from([1, 2])),
            id,
            "a committed node unifies with an independently interned set"
        );
    }
}
