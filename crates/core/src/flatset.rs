//! The committed set: a sorted, deduplicated, shared slice.
//!
//! Every set in a committed CFA answer — a variable's flow set, a term's
//! closure set, a call or return table entry, pushdown's matched-return
//! witnesses — is a [`FlatSet`]: one `Arc<[T]>` allocation holding the
//! elements in ascending order. Sets are built once, at the solver's commit
//! point or by persist decode, and never mutated afterwards, so a tree
//! buys nothing: a slice costs one block per set instead of a node per ~11
//! elements, answers membership by binary search, and iterates in the same
//! ascending order a `BTreeSet` would (which is what the answer digest, the
//! spill bytes and the printers read). Cloning a handle is a reference
//! count; equal sets built once are shared by every slot that holds them.
//!
//! The type is plain data: it lives outside the solver machinery, so
//! [`certify`](crate::certify) can read answers without importing any of
//! it.

use crate::labtab::LabelTable;
use cpsdfa_syntax::fxhash::FxBuildHasher;
use std::borrow::Borrow;
use std::collections::{BTreeSet, HashSet};
use std::fmt;
use std::hash::Hash;
use std::sync::Arc;

/// A sorted, deduplicated, immutable set behind a shared handle.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct FlatSet<T>(Arc<[T]>);

impl<T> FlatSet<T> {
    /// The elements in ascending order.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.0.iter()
    }

    /// The elements in ascending order, as a slice.
    pub fn as_slice(&self) -> &[T] {
        &self.0
    }

    /// The number of elements.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True for the empty set.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl<T: Ord> FlatSet<T> {
    /// Membership, by binary search.
    pub fn contains(&self, v: &T) -> bool {
        self.0.binary_search(v).is_ok()
    }

    /// True if every element of `self` is in `other` (one merge walk).
    pub fn is_subset(&self, other: &FlatSet<T>) -> bool {
        let mut theirs = other.iter();
        self.iter().all(|v| theirs.any(|w| w == v))
    }
}

impl<T: Clone + Ord> FlatSet<T> {
    /// The set holding `sorted`, which must be strictly ascending (checked
    /// in debug builds): one allocation, no sort.
    pub(crate) fn from_sorted(sorted: &[T]) -> FlatSet<T> {
        debug_assert!(
            sorted.windows(2).all(|w| w[0] < w[1]),
            "FlatSet::from_sorted needs strictly ascending elements"
        );
        FlatSet(Arc::from(sorted))
    }
}

/// A solver's call or return table, committed: each row, a list of
/// distinct elements in discovery order, becomes its sorted set, and rows
/// that hold the same set share one handle (on `polyvariant(n)` every
/// call site sees the same n callees). One buffer is reused across rows,
/// so each distinct set costs its one allocation.
pub(crate) fn flatten_table<T: Clone + Ord + Hash>(
    table: &LabelTable<Vec<T>>,
) -> LabelTable<FlatSet<T>> {
    let mut buf = Vec::new();
    let mut built: HashSet<FlatSet<T>, FxBuildHasher> = HashSet::default();
    table.map(|row| {
        buf.clear();
        buf.extend_from_slice(row);
        buf.sort_unstable();
        if let Some(set) = built.get(buf.as_slice()) {
            return set.clone();
        }
        let set = FlatSet::from_sorted(&buf);
        built.insert(set.clone());
        set
    })
}

impl<T> Default for FlatSet<T> {
    fn default() -> Self {
        FlatSet(Arc::from(Vec::new()))
    }
}

impl<T: Ord> FromIterator<T> for FlatSet<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut v: Vec<T> = iter.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        FlatSet(Arc::from(v))
    }
}

/// Hashes and compares as its slice, so a set can be looked up by the
/// elements of one not yet built.
impl<T> Borrow<[T]> for FlatSet<T> {
    fn borrow(&self) -> &[T] {
        &self.0
    }
}

impl<'a, T> IntoIterator for &'a FlatSet<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T: Ord> PartialEq<BTreeSet<T>> for FlatSet<T> {
    fn eq(&self, other: &BTreeSet<T>) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl<T: fmt::Debug> fmt::Debug for FlatSet<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collects_sorted_and_deduplicated() {
        let s: FlatSet<u32> = [5, 1, 3, 1, 5].into_iter().collect();
        assert_eq!(s.as_slice(), &[1, 3, 5]);
        assert!(s.contains(&3) && !s.contains(&4));
        assert_eq!(s, BTreeSet::from([1, 3, 5]));
        assert_eq!(format!("{s:?}"), "{1, 3, 5}");
    }

    #[test]
    fn subset_is_a_merge_walk() {
        let s = |v: &[u32]| FlatSet::from_sorted(v);
        assert!(s(&[]).is_subset(&s(&[1])));
        assert!(s(&[1, 4]).is_subset(&s(&[1, 2, 4])));
        assert!(!s(&[1, 3]).is_subset(&s(&[1, 2, 4])));
        assert!(!s(&[5]).is_subset(&s(&[1, 2, 4])));
        assert!(FlatSet::<u32>::default().is_empty());
    }
}
