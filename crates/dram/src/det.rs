//! Deterministic hashing utilities (SplitMix64) used for all "random-looking"
//! device behaviour: manufacturing variation fields, flaky-trial outcomes, and
//! power-on garbage. Using coordinate hashing instead of a stateful RNG keeps
//! every query order-independent and the whole simulation reproducible.

/// One round of the SplitMix64 mixing function.
///
/// # Example
///
/// ```
/// let a = easydram_dram::det::splitmix64(42);
/// let b = easydram_dram::det::splitmix64(42);
/// assert_eq!(a, b);
/// assert_ne!(a, easydram_dram::det::splitmix64(43));
/// ```
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Hashes a seed together with a domain-separation tag and a list of
/// coordinates into a single `u64`.
///
/// # Example
///
/// ```
/// use easydram_dram::det::hash_coords;
/// let h1 = hash_coords(7, b"line", &[0, 12, 3]);
/// let h2 = hash_coords(7, b"line", &[0, 12, 3]);
/// assert_eq!(h1, h2);
/// assert_ne!(h1, hash_coords(7, b"pair", &[0, 12, 3]));
/// ```
#[must_use]
pub fn hash_coords(seed: u64, tag: &[u8], coords: &[u64]) -> u64 {
    let mut acc = splitmix64(seed ^ 0xA076_1D64_78BD_642F);
    for chunk in tag.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        acc = splitmix64(acc ^ u64::from_le_bytes(word));
    }
    coords.iter().fold(acc, |acc, &c| hash_extend(acc, c))
}

/// Folds one more coordinate into a [`hash_coords`] value: the hash is a
/// left fold, so a caller that varies only the last coordinate hashes the
/// rest once.
///
/// # Example
///
/// ```
/// use easydram_dram::det::{hash_coords, hash_extend};
/// let row = hash_coords(7, b"line", &[0, 12]);
/// assert_eq!(hash_extend(row, 3), hash_coords(7, b"line", &[0, 12, 3]));
/// ```
#[must_use]
#[inline]
pub fn hash_extend(hash: u64, coord: u64) -> u64 {
    splitmix64(hash ^ coord)
}

/// Maps a hash of the given coordinates to a float in `[0, 1)`.
///
/// # Example
///
/// ```
/// let x = easydram_dram::det::hash01(1, b"t", &[5]);
/// assert!((0.0..1.0).contains(&x));
/// ```
#[must_use]
pub fn hash01(seed: u64, tag: &[u8], coords: &[u64]) -> f64 {
    // 53 mantissa bits give a uniform double in [0, 1).
    (hash_coords(seed, tag, coords) >> 11) as f64 / (1u64 << 53) as f64
}

/// Maps a hash to an integer uniformly distributed in `[lo, hi]`.
///
/// # Panics
///
/// Panics if `lo > hi`.
///
/// # Example
///
/// ```
/// let v = easydram_dram::det::hash_range(9, b"r", &[1, 2], 10, 20);
/// assert!((10..=20).contains(&v));
/// ```
#[must_use]
pub fn hash_range(seed: u64, tag: &[u8], coords: &[u64], lo: u64, hi: u64) -> u64 {
    assert!(lo <= hi, "hash_range: lo {lo} > hi {hi}");
    let span = hi - lo + 1;
    lo + hash_coords(seed, tag, coords) % span
}

/// A small deterministic sequential RNG (xorshift64) for the places that
/// need a *stream* of draws rather than order-independent coordinate hashes:
/// workload shuffles, probabilistic controller policies (PARA coin flips),
/// and similar. Every probabilistic draw in the suite routes through either
/// this stream or the coordinate hashes above — never an ad-hoc inline
/// generator — so whole-system runs stay reproducible.
///
/// # Example
///
/// ```
/// use easydram_dram::det::DetRng;
/// let mut a = DetRng::new(7);
/// let mut b = DetRng::new(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetRng {
    state: u64,
}

impl DetRng {
    /// The historical default stream seed (golden-ratio constant) used by
    /// the suite's shuffled workloads.
    pub const DEFAULT_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

    /// Creates a stream from `seed`. A zero seed is remapped through
    /// [`splitmix64`] (xorshift has a zero fixed point; mapping it to a
    /// hash rather than to [`DetRng::DEFAULT_SEED`] keeps seed 0 from
    /// silently aliasing another valid seed's stream).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            state: if seed == 0 { splitmix64(0) } else { seed },
        }
    }

    /// The next 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        self.state
    }

    /// The next draw mapped to `[0, 1)`.
    pub fn next01(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffles `xs` in place using this stream.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_spreads() {
        assert_eq!(splitmix64(0), splitmix64(0));
        // Consecutive inputs must not produce consecutive outputs.
        let a = splitmix64(1);
        let b = splitmix64(2);
        assert!(a.abs_diff(b) > 1 << 32);
    }

    #[test]
    fn hash_coords_separates_domains() {
        let a = hash_coords(1, b"a", &[1, 2, 3]);
        let b = hash_coords(1, b"b", &[1, 2, 3]);
        let c = hash_coords(2, b"a", &[1, 2, 3]);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn hash_coords_sensitive_to_every_coordinate() {
        let base = hash_coords(1, b"x", &[1, 2, 3]);
        assert_ne!(base, hash_coords(1, b"x", &[0, 2, 3]));
        assert_ne!(base, hash_coords(1, b"x", &[1, 0, 3]));
        assert_ne!(base, hash_coords(1, b"x", &[1, 2, 0]));
    }

    #[test]
    fn hash01_in_unit_interval() {
        for i in 0..1000 {
            let x = hash01(33, b"u", &[i]);
            assert!((0.0..1.0).contains(&x), "{x}");
        }
    }

    #[test]
    fn hash01_roughly_uniform() {
        let n = 10_000;
        let mean: f64 = (0..n).map(|i| hash01(5, b"m", &[i])).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn hash_range_bounds_inclusive() {
        let mut saw_lo = false;
        let mut saw_hi = false;
        for i in 0..10_000 {
            let v = hash_range(7, b"hr", &[i], 3, 6);
            assert!((3..=6).contains(&v));
            saw_lo |= v == 3;
            saw_hi |= v == 6;
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn hash_range_single_value() {
        assert_eq!(hash_range(7, b"hr", &[1], 5, 5), 5);
    }

    #[test]
    fn det_rng_streams_reproduce_and_separate_by_seed() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        let mut c = DetRng::new(43);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
        assert!((0.0..1.0).contains(&DetRng::new(9).next01()));
    }

    #[test]
    fn det_rng_shuffle_is_a_permutation() {
        let mut rng = DetRng::new(DetRng::DEFAULT_SEED);
        let mut xs: Vec<u64> = (0..64).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>());
        assert_ne!(xs, (0..64).collect::<Vec<_>>(), "shuffle must move things");
    }

    /// Golden vectors pinning the exact xorshift64 stream. Reproducibility
    /// across *versions* is part of the det contract: shuffled workloads and
    /// PARA coin flips — and through them every figure snapshot — depend on
    /// these precise draws, so any change to the generator must show up here
    /// as a deliberate golden update, not as silent drift.
    #[test]
    fn det_rng_golden_vectors() {
        #[rustfmt::skip]
        const GOLDEN: [(u64, [u64; 16]); 3] = [
            (1, [
                0x0000_0000_4082_2041, 0x1000_4106_0C01_1441,
                0x9B1E_842F_6E86_2629, 0xF554_F503_555D_8025,
                0x860C_1FB0_9059_9265, 0xF6B0_5302_E553_1801,
                0xA246_0108_EBBD_9E71, 0xC62C_9FC1_14D9_590D,
                0x7D3E_032E_9A79_08FF, 0x73A3_97E1_324C_252E,
                0x1CCA_C1C3_8A4C_36E4, 0xEFAD_64F8_379B_9789,
                0x4E2A_A10F_962C_62E6, 0x90E4_59E5_0902_43A3,
                0x8986_DEDD_543C_CFE4, 0xCF9D_3E05_E6AD_CF7B,
            ]),
            (42, [
                0x0000_000A_9551_4AAA, 0xA00A_AAFD_F802_02BF,
                0x8B13_399C_D1D1_497A, 0x283B_88FE_5FDF_F568,
                0x4E91_5FE3_8B34_1082, 0x8C17_F2B4_3370_1823,
                0x9EC2_FE1A_A5B2_90D3, 0x9370_F576_EC23_A132,
                0xA583_6EC8_A8D5_EAF0, 0x5781_AC64_4BEA_FD25,
                0x1C6F_739E_A558_C19F, 0xCF0F_3258_39A9_F7DC,
                0x5319_07BE_7B3A_D333, 0x5998_3374_87B4_0A55,
                0xC2C3_4B23_ACF1_5701, 0x4B71_8AFA_56C3_55EF,
            ]),
            (DetRng::DEFAULT_SEED, [
                0xDC1B_77AE_0BF3_4DAD, 0x64F0_EEB9_026E_6076,
                0x7B07_CE91_E590_6136, 0x305F_050C_368D_CC74,
                0x2CEB_16E0_A1C5_4AEC, 0x9710_1DCE_4E7B_FB79,
                0x9AD2_E144_D6E8_F2CF, 0xD9AA_792E_1AF4_70EA,
                0xDDAA_4E85_B0D6_E28B, 0x8F8E_A9D3_4942_8D8E,
                0x08F4_74FF_B8E8_AB15, 0x2EAD_8547_56D7_1F03,
                0x55BC_79F8_ADA7_11FD, 0x0E1F_C49B_D63B_809E,
                0xB921_99E8_3F5A_101F, 0xC576_5079_FC5D_43FF,
            ]),
        ];
        for (seed, expected) in GOLDEN {
            let mut rng = DetRng::new(seed);
            let drawn: Vec<u64> = (0..16).map(|_| rng.next_u64()).collect();
            assert_eq!(drawn, expected, "stream drifted for seed {seed:#x}");
        }
        // The zero-seed remap is part of the pinned contract too.
        assert_eq!(DetRng::new(0).next_u64(), {
            let mut r = DetRng {
                state: 0xE220_A839_7B1D_CDAF,
            };
            r.next_u64()
        });
    }

    #[test]
    fn zero_seed_is_remapped_without_aliasing() {
        assert_ne!(DetRng::new(0).next_u64(), 0);
        assert_ne!(
            DetRng::new(0).next_u64(),
            DetRng::new(DetRng::DEFAULT_SEED).next_u64(),
            "seed 0 must not silently share another seed's stream"
        );
    }
}
