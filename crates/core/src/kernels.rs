//! Word-level bitset kernels for the delta store's hot loops.
//!
//! The semi-naïve solvers spend their propagation time in three loops over
//! `Vec<u64>` membership bitsets: union-with-diff when a whole growth log is
//! forwarded across a `Sub` edge, the set-bit walk that extracts a node's
//! canonical index run at commit time, and popcounts for sizing. This module
//! rewrites those as chunked kernels — [`CHUNK`] words per step, plain
//! shift/mask/`count_ones`/`trailing_zeros` ops with no cross-iteration
//! dependence inside a chunk — the shape LLVM's autovectorizer turns into
//! SIMD on every target the workspace builds for, while staying 100% stable
//! Rust with zero `unsafe`. Every solver path calls through here, so there
//! is exactly one implementation of each hot loop to keep correct.

/// Words processed per unrolled step. Four `u64`s = one 256-bit lane on
/// AVX2-class hardware and two 128-bit lanes on NEON/SSE2; wider chunks
/// (8) measured the same here while bloating the scalar remainder, so 4 is
/// the word width both kernels use.
pub const CHUNK: usize = 4;

/// `dst |= src`, recording the newly-set words: `newly[i] = src[i] & !old
/// dst[i]`. `dst` must already be at least `src.len()` words long (callers
/// resize before the call so the kernel itself never reallocates). `newly`
/// is cleared and filled to `src.len()` words. Returns `true` iff any new
/// bit was set.
pub fn union_into_diff(dst: &mut [u64], src: &[u64], newly: &mut Vec<u64>) -> bool {
    debug_assert!(dst.len() >= src.len());
    newly.clear();
    newly.resize(src.len(), 0);
    let n = src.len();
    let mut any = 0u64;
    let mut i = 0;
    while i + CHUNK <= n {
        // Chunked body: independent word ops, no early exit — exactly the
        // pattern the autovectorizer lifts into vector or/andnot lanes.
        for k in 0..CHUNK {
            let s = src[i + k];
            let d = dst[i + k];
            let fresh = s & !d;
            newly[i + k] = fresh;
            dst[i + k] = d | s;
            any |= fresh;
        }
        i += CHUNK;
    }
    while i < n {
        let fresh = src[i] & !dst[i];
        newly[i] = fresh;
        dst[i] |= src[i];
        any |= fresh;
        i += 1;
    }
    any != 0
}

/// Calls `f(bit_index)` for every set bit of `words`, in ascending index
/// order. Scans [`CHUNK`] words at a time, skipping all-zero chunks with a
/// single OR-reduction before falling into the per-word
/// `trailing_zeros`/clear-lowest loop — sparse bitsets (the common case for
/// flow-node membership) touch most of their words only in the vectorized
/// zero test.
pub fn for_each_set_bit(words: &[u64], mut f: impl FnMut(u32)) {
    let n = words.len();
    let mut i = 0;
    while i + CHUNK <= n {
        if (words[i] | words[i + 1] | words[i + 2] | words[i + 3]) != 0 {
            for k in 0..CHUNK {
                scan_word(words[i + k], ((i + k) * 64) as u32, &mut f);
            }
        }
        i += CHUNK;
    }
    while i < n {
        scan_word(words[i], (i * 64) as u32, &mut f);
        i += 1;
    }
}

#[inline]
fn scan_word(mut w: u64, base: u32, f: &mut impl FnMut(u32)) {
    while w != 0 {
        f(base + w.trailing_zeros());
        w &= w - 1;
    }
}

/// Total set bits, as a chunked `count_ones` reduction.
pub fn popcount(words: &[u64]) -> u64 {
    let n = words.len();
    let mut acc = [0u64; CHUNK];
    let mut i = 0;
    while i + CHUNK <= n {
        for k in 0..CHUNK {
            acc[k] += words[i + k].count_ones() as u64;
        }
        i += CHUNK;
    }
    let mut total: u64 = acc.iter().sum();
    while i < n {
        total += words[i].count_ones() as u64;
        i += 1;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_bits(words: &[u64]) -> Vec<u32> {
        let mut out = Vec::new();
        for (w, &word) in words.iter().enumerate() {
            for b in 0..64 {
                if word & (1u64 << b) != 0 {
                    out.push((w * 64 + b) as u32);
                }
            }
        }
        out
    }

    #[test]
    fn union_diff_matches_the_scalar_definition() {
        // Sizes straddle the chunk boundary: 0..=2*CHUNK+1 words.
        for n in 0..=(2 * CHUNK + 1) {
            let src: Vec<u64> = (0..n)
                .map(|i| 0x9e3779b97f4a7c15u64.rotate_left(i as u32))
                .collect();
            let mut dst: Vec<u64> = (0..n)
                .map(|i| 0x2545f4914f6cdd1du64.rotate_right(i as u32))
                .collect();
            let expect_new: Vec<u64> = src.iter().zip(&dst).map(|(s, d)| s & !d).collect();
            let expect_dst: Vec<u64> = src.iter().zip(&dst).map(|(s, d)| s | d).collect();
            let mut newly = Vec::new();
            let changed = union_into_diff(&mut dst, &src, &mut newly);
            assert_eq!(dst, expect_dst, "n={n}");
            assert_eq!(newly, expect_new, "n={n}");
            assert_eq!(changed, expect_new.iter().any(|&w| w != 0), "n={n}");
        }
    }

    #[test]
    fn union_diff_handles_longer_dst() {
        let src = vec![u64::MAX, 0b1010];
        let mut dst = vec![0b1, 0, 0xff, 0xee];
        let mut newly = Vec::new();
        assert!(union_into_diff(&mut dst, &src, &mut newly));
        assert_eq!(dst, vec![u64::MAX, 0b1010, 0xff, 0xee]);
        assert_eq!(newly, vec![!0b1_u64, 0b1010]);
    }

    #[test]
    fn union_diff_of_subset_reports_no_change() {
        let src = vec![0b0110; 9];
        let mut dst = vec![0b1111; 9];
        let mut newly = Vec::new();
        assert!(!union_into_diff(&mut dst, &src, &mut newly));
        assert!(newly.iter().all(|&w| w == 0));
    }

    #[test]
    fn set_bit_walk_visits_every_bit_in_order() {
        for n in 0..=(2 * CHUNK + 2) {
            let words: Vec<u64> = (0..n)
                .map(|i| {
                    if i % 3 == 1 {
                        0
                    } else {
                        0x8000000000400081u64 >> (i % 7)
                    }
                })
                .collect();
            let mut seen = Vec::new();
            for_each_set_bit(&words, |b| seen.push(b));
            assert_eq!(seen, naive_bits(&words), "n={n}");
            assert_eq!(popcount(&words), seen.len() as u64, "n={n}");
        }
    }

    #[test]
    fn popcount_empty_and_full() {
        assert_eq!(popcount(&[]), 0);
        assert_eq!(popcount(&[u64::MAX; 5]), 320);
    }
}
