//! A fast, non-cryptographic hasher for the interner and arena memo tables,
//! shared with `cpsdfa-core`'s set pool and fixpoint cache.
//!
//! The pipeline's hash keys are tiny — short identifier strings, few-word
//! arena nodes, abstract values, label runs and cache keys — and the tables
//! are process-internal, so SipHash's DoS resistance buys nothing here
//! while costing most of the lookup time.
//! This is the classic Fx multiply-rotate hash (as used by rustc): each
//! word is folded in with a rotate, xor, and multiply by a single odd
//! constant. Quality is plenty for interning workloads; speed is the point.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier from the golden-ratio family; odd, high avalanche on the top
/// bits, which `HashMap` uses for bucket selection.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The hasher state: one word, folded with rotate-xor-multiply.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            // Fold the length into the tail word so "ab" and "ab\0" differ.
            tail[7] = rest.len() as u8;
            self.add(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// `BuildHasher` plugging [`FxHasher`] into `HashMap`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn equal_inputs_hash_equal() {
        assert_eq!(hash_of("t%17"), hash_of("t%17"));
        assert_eq!(hash_of(42u64), hash_of(42u64));
    }

    #[test]
    fn distinct_short_strings_hash_distinct() {
        // Not a collision-resistance claim — just a smoke test that the
        // tail handling distinguishes the shapes the interner sees.
        let names: Vec<String> = (0..1000).map(|i| format!("t%{i}")).collect();
        let hashes: std::collections::HashSet<u64> =
            names.iter().map(|s| hash_of(s.as_str())).collect();
        assert_eq!(hashes.len(), names.len());
    }

    #[test]
    fn prefix_and_padded_inputs_differ() {
        assert_ne!(hash_of("ab"), hash_of("ab\0"));
        assert_ne!(hash_of("abcdefgh"), hash_of("abcdefg"));
    }

    #[test]
    fn fxhashmap_roundtrips() {
        let mut m: FxHashMap<&str, u32> = FxHashMap::default();
        m.insert("x", 1);
        m.insert("y", 2);
        assert_eq!(m.get("x"), Some(&1));
        assert_eq!(m.get("y"), Some(&2));
        assert_eq!(m.get("z"), None);
    }
}
