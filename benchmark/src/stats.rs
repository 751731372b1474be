//! Small numeric helpers: quantiles, the digest hash, host-side probes.

use std::time::Instant;

/// The `p`-quantile (0..=1) of `sorted` by linear interpolation between the
/// two nearest ranks. `sorted` must be ascending and non-empty.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Sorts a sample ascending (total order, so a stray NaN cannot panic).
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

/// Median of an unsorted sample.
pub fn median(xs: Vec<f64>) -> f64 {
    quantile(&sorted(xs), 0.5)
}

/// FNV-1a over little-endian `u64` words: the sim digest's hash. Stable
/// across hosts and toolchains by construction (no `Hasher` involved).
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// splitmix64: turns `--seed` into well-mixed derived values. The benchmark
/// keeps its own copy (the simulator has one in `easydram_dram::det`) so that
/// no change to the simulator can change the benchmark's inputs.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Median host nanoseconds per call of `f` over `batches` batches of `reps`
/// calls each. One timer pair brackets a whole batch, so the timer's own
/// cost is amortised over `reps`.
pub fn ns_per_call(batches: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    let samples = (0..batches)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..reps {
                f();
            }
            t0.elapsed().as_nanos() as f64 / reps as f64
        })
        .collect();
    median(samples)
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 when the
/// kernel does not report it.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 0.25), 2.0);
        assert_eq!(quantile(&xs, 0.5), 3.0);
        assert_eq!(quantile(&xs, 1.0), 5.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.25), 1.25);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn median_sorts_first() {
        assert_eq!(median(vec![9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn fnv_is_the_published_function() {
        // FNV-1a of eight zero bytes, from the reference implementation.
        let mut h = Fnv::new();
        h.word(0);
        assert_eq!(h.0, 0xa8c7_f832_281a_39c5);
    }
}
