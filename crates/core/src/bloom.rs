//! A Bloom filter for weak-row tracking (paper §8.2, after RAIDR).
//!
//! "Storing the minimum tRCD value of all cache lines is not scalable …
//! we implement a Bloom filter in the software memory controller that tracks
//! weak DRAM rows. We use weak rows as keys such that a false positive does
//! not cause a reduced-tRCD access to a weak row." A *false positive*
//! (strong row reported weak) merely loses the latency benefit; a false
//! negative is impossible, so correctness never depends on the filter.

use easydram_dram::det::hash_coords;

/// A fixed-size Bloom filter over `u64` keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    bits: Vec<u64>,
    n_bits: u64,
    n_hashes: u32,
    seed: u64,
    inserted: u64,
}

impl BloomFilter {
    /// Creates a filter with `n_bits` bits (rounded up to a multiple of 64)
    /// and `n_hashes` hash functions.
    ///
    /// # Panics
    ///
    /// Panics if `n_bits` or `n_hashes` is zero.
    #[must_use]
    pub fn new(n_bits: u64, n_hashes: u32, seed: u64) -> Self {
        assert!(n_bits > 0, "filter needs at least one bit");
        assert!(n_hashes > 0, "filter needs at least one hash");
        let words = n_bits.div_ceil(64);
        Self {
            bits: vec![0; words as usize],
            n_bits: words * 64,
            n_hashes,
            seed,
            inserted: 0,
        }
    }

    /// Sizes a filter for `n_keys` expected insertions at roughly 1 % false
    /// positives (≈10 bits/key, 7 hashes — the classic optimum).
    #[must_use]
    pub fn for_keys(n_keys: u64, seed: u64) -> Self {
        Self::new((n_keys.max(1)) * 10, 7, seed)
    }

    fn bit_index(&self, key: u64, i: u32) -> u64 {
        hash_coords(self.seed, b"bloom", &[key, u64::from(i)]) % self.n_bits
    }

    /// Inserts a key.
    pub fn insert(&mut self, key: u64) {
        for i in 0..self.n_hashes {
            let b = self.bit_index(key, i);
            self.bits[(b / 64) as usize] |= 1 << (b % 64);
        }
        self.inserted += 1;
    }

    /// Tests membership: `true` means *possibly inserted* (false positives
    /// allowed), `false` means *definitely not inserted*.
    #[must_use]
    pub fn contains(&self, key: u64) -> bool {
        (0..self.n_hashes).all(|i| {
            let b = self.bit_index(key, i);
            self.bits[(b / 64) as usize] & (1 << (b % 64)) != 0
        })
    }

    /// Number of keys inserted so far.
    #[must_use]
    pub fn inserted(&self) -> u64 {
        self.inserted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::for_keys(1_000, 7);
        for k in 0..1_000u64 {
            f.insert(k * 17 + 3);
        }
        for k in 0..1_000u64 {
            assert!(f.contains(k * 17 + 3), "false negative for {k}");
        }
    }

    #[test]
    fn false_positive_rate_is_low() {
        let mut f = BloomFilter::for_keys(1_000, 7);
        for k in 0..1_000u64 {
            f.insert(k);
        }
        let fp = (1_000u64..21_000).filter(|&k| f.contains(k)).count();
        let rate = fp as f64 / 20_000.0;
        assert!(rate < 0.05, "false positive rate {rate}");
    }

    #[test]
    fn empty_filter_contains_nothing() {
        let f = BloomFilter::new(1024, 4, 9);
        assert!(!f.contains(0));
        assert!(!f.contains(123_456));
        assert_eq!(f.inserted(), 0);
    }

    #[test]
    fn capacity_rounds_to_words() {
        let f = BloomFilter::new(100, 2, 0);
        assert_eq!(f.n_bits, 128);
    }

    #[test]
    #[should_panic(expected = "at least one bit")]
    fn zero_bits_rejected() {
        let _ = BloomFilter::new(0, 1, 0);
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = BloomFilter::new(4096, 5, 42);
        let mut b = BloomFilter::new(4096, 5, 42);
        for k in [5u64, 900, 77] {
            a.insert(k);
            b.insert(k);
        }
        assert_eq!(a, b);
    }
}
