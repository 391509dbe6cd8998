//! Collection strategies: `vec` and `btree_set`.

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use std::collections::BTreeSet;
use std::ops::Range;

/// A `Vec` of values from `element`, with length drawn from `size`.
pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
    VecStrategy { element, size }
}

/// The result of [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: Range<usize>,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let len = rng.in_range(self.size.start as i128, self.size.end as i128) as usize;
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

/// A `BTreeSet` built from `size`-many draws of `element` (duplicates
/// collapse, so the set may come out smaller than the drawn count).
pub fn btree_set<S>(element: S, size: Range<usize>) -> BTreeSetStrategy<S>
where
    S: Strategy,
    S::Value: Ord,
{
    BTreeSetStrategy { element, size }
}

/// The result of [`btree_set`].
#[derive(Debug, Clone)]
pub struct BTreeSetStrategy<S> {
    element: S,
    size: Range<usize>,
}

impl<S> Strategy for BTreeSetStrategy<S>
where
    S: Strategy,
    S::Value: Ord,
{
    type Value = BTreeSet<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
        let draws = rng.in_range(self.size.start as i128, self.size.end as i128) as usize;
        (0..draws).map(|_| self.element.generate(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_lengths_cover_the_range() {
        let s = vec(0i64..10, 0..4);
        let mut rng = TestRng::from_name("veclen");
        let mut seen = [false; 4];
        for _ in 0..200 {
            let v = s.generate(&mut rng);
            assert!(v.len() < 4);
            assert!(v.iter().all(|n| (0..10).contains(n)));
            seen[v.len()] = true;
        }
        assert!(seen.iter().all(|&b| b), "some length in 0..4 never drawn");
    }

    #[test]
    fn btree_set_is_bounded_and_sorted() {
        let s = btree_set(0i32..6, 0..5);
        let mut rng = TestRng::from_name("set");
        for _ in 0..100 {
            let set = s.generate(&mut rng);
            assert!(set.len() < 5);
        }
    }
}
