//! Dense label-indexed tables.
//!
//! Labels are dense `u32`s assigned by the labeling passes (`0..label_count`
//! per program), so any per-program-point table can be a flat `Vec` indexed
//! by [`Label::index`] instead of a `HashMap`/`BTreeMap` keyed on labels.
//! [`LabelTable`] is that table: O(1) unhashed lookup, one allocation, and
//! iteration in label order — which coincides with the `BTreeMap` iteration
//! order the analyses used before, so downstream consumers observe the same
//! sequences.
//!
//! Equality compares *occupied entries only*: two tables built for programs
//! of different label counts (or grown lazily) are equal iff they hold the
//! same `(label, value)` pairs, exactly like the maps they replace.

use cpsdfa_syntax::Label;

/// A flat table mapping dense [`Label`]s to values.
#[derive(Clone)]
pub struct LabelTable<T> {
    slots: Vec<Option<T>>,
    occupied: usize,
}

impl<T> LabelTable<T> {
    /// An empty table pre-sized for labels `0..label_count`.
    pub fn new(label_count: u32) -> Self {
        let mut slots = Vec::new();
        slots.resize_with(label_count as usize, || None);
        LabelTable { slots, occupied: 0 }
    }

    /// The value at `l`, if one was inserted.
    pub fn get(&self, l: Label) -> Option<&T> {
        self.slots.get(l.index() as usize).and_then(Option::as_ref)
    }

    /// Inserts `v` at `l`, returning the previous value if any. Grows the
    /// table when `l` exceeds the pre-sized capacity (hand-built programs).
    pub fn insert(&mut self, l: Label, v: T) -> Option<T> {
        let i = l.index() as usize;
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        let old = self.slots[i].replace(v);
        if old.is_none() {
            self.occupied += 1;
        }
        old
    }

    /// The value at `l`, inserting `T::default()` first if absent — the
    /// dense analogue of `map.entry(l).or_default()`.
    pub fn entry_or_default(&mut self, l: Label) -> &mut T
    where
        T: Default,
    {
        let i = l.index() as usize;
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        if self.slots[i].is_none() {
            self.slots[i] = Some(T::default());
            self.occupied += 1;
        }
        self.slots[i].as_mut().expect("just filled")
    }

    /// Number of occupied entries.
    pub fn len(&self) -> usize {
        self.occupied
    }

    /// True if no entry is occupied.
    pub fn is_empty(&self) -> bool {
        self.occupied == 0
    }

    /// Occupied entries in ascending label order.
    pub fn iter(&self) -> impl Iterator<Item = (Label, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|v| (Label::new(i as u32), v)))
    }

    /// Occupied values in ascending label order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().filter_map(Option::as_ref)
    }

    /// The table with each occupied value mapped through `f`, at the same
    /// labels.
    pub fn map<U>(&self, mut f: impl FnMut(&T) -> U) -> LabelTable<U> {
        LabelTable {
            slots: self.slots.iter().map(|s| s.as_ref().map(&mut f)).collect(),
            occupied: self.occupied,
        }
    }

    /// Occupied labels in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = Label> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|_| Label::new(i as u32)))
    }
}

impl<T: PartialEq> PartialEq for LabelTable<T> {
    fn eq(&self, other: &Self) -> bool {
        self.occupied == other.occupied && self.iter().eq(other.iter())
    }
}

impl<T: Eq> Eq for LabelTable<T> {}

impl<T: std::fmt::Debug> std::fmt::Debug for LabelTable<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<T> FromIterator<(Label, T)> for LabelTable<T> {
    fn from_iter<I: IntoIterator<Item = (Label, T)>>(iter: I) -> Self {
        let mut t = LabelTable::new(0);
        for (l, v) in iter {
            t.insert(l, v);
        }
        t
    }
}

/// A dense partial map from [`Label`] to `Copy` references (λ and
/// continuation tables): the flat replacement for the `HashMap<Label, …>`
/// lookups on the solvers' hot paths.
#[derive(Debug, Clone)]
pub struct LabelLookup<T: Copy> {
    slots: Vec<Option<T>>,
}

impl<T: Copy> LabelLookup<T> {
    /// Builds a lookup sized for `label_count` from `(label, value)` pairs.
    pub fn build(label_count: u32, entries: impl IntoIterator<Item = (Label, T)>) -> Self {
        let mut slots = vec![None; label_count as usize];
        for (l, v) in entries {
            let i = l.index() as usize;
            if i >= slots.len() {
                slots.resize(i + 1, None);
            }
            slots[i] = Some(v);
        }
        LabelLookup { slots }
    }

    /// The entry at `l`; panics (like `map[&l]`) if absent.
    pub fn expect(&self, l: Label) -> T {
        self.slots[l.index() as usize].expect("label not in lookup table")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iterates_in_label_order_like_a_btreemap() {
        let mut t: LabelTable<&str> = LabelTable::new(8);
        t.insert(Label::new(5), "five");
        t.insert(Label::new(1), "one");
        t.insert(Label::new(3), "three");
        let keys: Vec<u32> = t.keys().map(Label::index).collect();
        assert_eq!(keys, vec![1, 3, 5]);
        let vals: Vec<&&str> = t.values().collect();
        assert_eq!(vals, vec![&"one", &"three", &"five"]);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn equality_ignores_capacity() {
        let mut a: LabelTable<u32> = LabelTable::new(4);
        let mut b: LabelTable<u32> = LabelTable::new(64);
        a.insert(Label::new(2), 7);
        b.insert(Label::new(2), 7);
        assert_eq!(a, b);
        b.insert(Label::new(3), 9);
        assert_ne!(a, b);
    }

    #[test]
    fn entry_or_default_inserts_once() {
        let mut t: LabelTable<Vec<u32>> = LabelTable::new(2);
        t.entry_or_default(Label::new(1)).push(10);
        t.entry_or_default(Label::new(1)).push(11);
        assert_eq!(t.get(Label::new(1)), Some(&vec![10, 11]));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn insert_grows_past_presized_capacity() {
        let mut t: LabelTable<u8> = LabelTable::new(1);
        assert_eq!(t.insert(Label::new(9), 3), None);
        assert_eq!(t.insert(Label::new(9), 4), Some(3));
        assert_eq!(t.get(Label::new(9)), Some(&4));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn lookup_expects_registered_labels() {
        let lk = LabelLookup::build(4, [(Label::new(2), 42u64)]);
        assert_eq!(lk.expect(Label::new(2)), 42);
    }
}
