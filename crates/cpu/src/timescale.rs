//! Clock-domain duration↔cycle conversions shared by every crate.
//!
//! The whole workspace uses **one** rounding policy: half-up to the nearest
//! cycle in both directions. A single truncating conversion anywhere would
//! re-introduce the systematic one-cycle-low drift the emulated timeline
//! work purged (see `easydram::timescale` for the round-trip identity
//! property). [`Clock`] lives in the CPU crate — the bottom of the
//! dependency stack — so the core model's own wall-time conversions (e.g.
//! the MMIO round-trip of a RowClone trigger) go through the same policy as
//! the memory system's.

/// Picoseconds per second.
const PS_PER_S: u64 = 1_000_000_000_000;

/// A clock domain whose period is an exact fraction of a picosecond, `b/a`
/// ps in lowest terms, fixed when the clock is configured.
///
/// Both conversions round half-up:
/// - `cycles → ps` is `⌊(c·b + ⌊a/2⌋) / a⌋`;
/// - `ps → cycles` is `⌊(ps·a + ⌊b/2⌋) / b⌋`.
///
/// For a clock of `hz` with `g = gcd(hz, 10¹²)`, `b = 10¹²/g` and `a = hz/g`,
/// so by the nested-floor identity `⌊⌊x/g⌋/d⌋ = ⌊x/(g·d)⌋` these equal
/// `round(c·10¹²/hz)` and `round(ps·hz/10¹²)` bit for bit. The one division
/// left, by `a` or `b`, is by a constant of the clock: a multiply-high and
/// two shifts, or a single shift when the divisor is a power of two (every
/// shipped clock's `a` is 1 except the 1.43 GHz core's 143). A numerator too
/// wide for `u64` takes the same formula in 128 bits.
///
/// Half-up in both directions makes `cycles → ps → cycles` an identity for
/// every clock below 1 THz: the ps-side rounding error is at most 0.5 ps,
/// which converts back to strictly less than half a cycle (a property test
/// in `easydram::timescale` pins it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Clock {
    /// Cycles per `b` picoseconds.
    a: u64,
    /// Picoseconds per `a` cycles.
    b: u64,
    by_a: Divisor,
    by_b: Divisor,
}

impl Clock {
    /// The clock ticking at `hz`.
    ///
    /// # Panics
    ///
    /// Panics if `hz` is zero.
    #[must_use]
    pub fn from_hz(hz: u64) -> Self {
        assert!(hz > 0, "a clock needs a non-zero frequency");
        let g = gcd(hz, PS_PER_S);
        Self::from_fraction(PS_PER_S / g, hz / g)
    }

    /// The clock whose period is exactly `period_ps`: a DRAM command grid,
    /// where `ps_to_cycles` snaps to the nearest clock edge.
    ///
    /// # Panics
    ///
    /// Panics if `period_ps` is zero.
    #[must_use]
    pub fn from_period_ps(period_ps: u64) -> Self {
        assert!(period_ps > 0, "a clock needs a non-zero period");
        Self::from_fraction(period_ps, 1)
    }

    fn from_fraction(b: u64, a: u64) -> Self {
        Self {
            a,
            b,
            by_a: Divisor::new(a),
            by_b: Divisor::new(b),
        }
    }

    /// Converts `cycles` of this clock to picoseconds, rounding half-up.
    #[inline]
    #[must_use]
    pub fn cycles_to_ps(&self, cycles: u64) -> u64 {
        match cycles
            .checked_mul(self.b)
            .and_then(|n| n.checked_add(self.a / 2))
        {
            Some(n) => self.by_a.div(n),
            None => wide_round(cycles, self.b, self.a),
        }
    }

    /// Converts a picosecond duration to cycles of this clock, rounding
    /// half-up (the quantization the FPGA counters introduce).
    #[inline]
    #[must_use]
    pub fn ps_to_cycles(&self, ps: u64) -> u64 {
        match ps
            .checked_mul(self.a)
            .and_then(|n| n.checked_add(self.b / 2))
        {
            Some(n) => self.by_b.div(n),
            None => wide_round(ps, self.a, self.b),
        }
    }
}

/// `⌊(x·m + ⌊d/2⌋) / d⌋` in 128 bits, truncated to 64: the path of a
/// numerator that overflows `u64` (a day of cycles at 4 GHz does not).
#[cold]
fn wide_round(x: u64, m: u64, d: u64) -> u64 {
    ((u128::from(x) * u128::from(m) + u128::from(d / 2)) / u128::from(d)) as u64
}

fn gcd(mut x: u64, mut y: u64) -> u64 {
    while y != 0 {
        (x, y) = (y, x % y);
    }
    x
}

/// Floor division of any `u64` by a divisor fixed at construction, without
/// a divide instruction (Granlund and Montgomery, "Division by invariant
/// integers using multiplication", 1994, Fig. 4.1): with `l = ⌈log2 d⌉` and
/// `m = ⌊2⁶⁴·(2ˡ − d) / d⌋ + 1`, `q = mulhi(m, n)` gives
/// `⌊n/d⌋ = (q + (n − q) / 2) >> (l − 1)`. A power of two is a plain shift.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Divisor {
    /// `m` above; 0 marks a power of two.
    magic: u64,
    /// `l − 1` above, or `log2 d` for a power of two.
    shift: u32,
}

impl Divisor {
    fn new(d: u64) -> Self {
        debug_assert!(d > 0);
        if d.is_power_of_two() {
            return Self {
                magic: 0,
                shift: d.trailing_zeros(),
            };
        }
        // d ≥ 3, so 1 ≤ l − 1 and 2ˡ − d < d: m < 2⁶⁴.
        let l = u64::BITS - (d - 1).leading_zeros();
        let d = u128::from(d);
        let magic = ((((1u128 << l) - d) << 64) / d + 1) as u64;
        Self {
            magic,
            shift: l - 1,
        }
    }

    #[inline]
    fn div(self, n: u64) -> u64 {
        if self.magic == 0 {
            return n >> self.shift;
        }
        let q = ((u128::from(self.magic) * u128::from(n)) >> 64) as u64;
        (q + ((n - q) >> 1)) >> self.shift
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The conversions as the workspace computed them before [`Clock`]:
    /// straight from `hz`, in 128 bits.
    fn oracle_cycles_to_ps(cycles: u64, hz: u64) -> u64 {
        ((u128::from(cycles) * 1_000_000_000_000 + u128::from(hz) / 2) / u128::from(hz)) as u64
    }

    fn oracle_ps_to_cycles(ps: u64, hz: u64) -> u64 {
        ((u128::from(ps) * u128::from(hz) + 500_000_000_000) / 1_000_000_000_000) as u64
    }

    /// Inputs around the `u64` overflow boundary of the numerator `x·m + ⌊d/2⌋`,
    /// plus both ends of the range.
    fn around_the_boundary(m: u64, d: u64) -> Vec<u64> {
        let edge = (u64::MAX - d / 2) / m;
        let mut xs = vec![0, 1, u64::MAX - 1, u64::MAX];
        xs.extend((0..=4).map(|k| edge.saturating_sub(2).saturating_add(k)));
        xs
    }

    fn assert_matches_oracle(hz: u64, xs: impl IntoIterator<Item = u64>) {
        let clock = Clock::from_hz(hz);
        for x in xs {
            assert_eq!(
                clock.cycles_to_ps(x),
                oracle_cycles_to_ps(x, hz),
                "{hz} Hz: {x} cycles"
            );
            assert_eq!(
                clock.ps_to_cycles(x),
                oracle_ps_to_cycles(x, hz),
                "{hz} Hz: {x} ps"
            );
        }
    }

    #[test]
    fn ns_conversion_rounds_half_up() {
        // 120 ns at 1.43 GHz = 171.6 cycles → 172 (floor would say 171).
        let core = Clock::from_hz(1_430_000_000);
        assert_eq!(core.ps_to_cycles(120_000), 172);
        // 1.5 cycles rounds up.
        assert_eq!(Clock::from_hz(500_000_000).ps_to_cycles(3_000), 2);
        // Exact grid stays exact.
        assert_eq!(Clock::from_hz(1_000_000_000).ps_to_cycles(10_000), 10);
        assert_eq!(core.ps_to_cycles(0), 0);
    }

    #[test]
    fn ps_round_trip_on_grid() {
        let clock = Clock::from_hz(1_430_000_000);
        for c in [0u64, 1, 7, 100, 12_345] {
            assert_eq!(clock.ps_to_cycles(clock.cycles_to_ps(c)), c, "cycle {c}");
        }
    }

    #[test]
    fn a_clock_is_its_period_in_lowest_terms() {
        let ratio = |c: Clock| (c.b, c.a);
        assert_eq!(ratio(Clock::from_hz(1_430_000_000)), (100_000, 143));
        assert_eq!(ratio(Clock::from_hz(100_000_000)), (10_000, 1));
        assert_eq!(ratio(Clock::from_hz(3_000_000_000_000)), (1, 3));
        assert_eq!(ratio(Clock::from_hz(7)), (1_000_000_000_000, 7));
        assert_eq!(ratio(Clock::from_period_ps(1_500)), (1_500, 1));
    }

    #[test]
    fn the_divisor_is_exact_for_every_width() {
        // Every divisor width, with dividends at its multiples and at both
        // ends of the range.
        let mut divisors: Vec<u64> = (1..=300).collect();
        for k in 2..64 {
            let p = 1u64 << k;
            divisors.extend([p - 1, p, p + 1]);
        }
        divisors.extend([u64::MAX - 1, u64::MAX, 143, 100_000, 1_000_000_000_000]);
        for d in divisors {
            let div = Divisor::new(d);
            let q_max = u64::MAX / d;
            for q in [0, 1, 2, 3, q_max / 2, q_max - 1, q_max] {
                let base = q.saturating_mul(d);
                for n in [base, base.saturating_add(d - 1), base.saturating_sub(1)] {
                    assert_eq!(div.div(n), n / d, "{n} / {d}");
                }
            }
            assert_eq!(div.div(u64::MAX), u64::MAX / d, "max / {d}");
        }
    }

    #[test]
    fn clocks_equal_the_oracle_on_both_sides_of_the_u64_boundary() {
        for hz in [
            1u64,
            7,
            25_000_000,
            100_000_000,
            150_000_000,
            1_430_000_000,
            2_000_000_000,
            999_999_999_989, // prime, below 1 THz
            PS_PER_S,
            3 * PS_PER_S + 1,
            u64::MAX,
        ] {
            let clock = Clock::from_hz(hz);
            let mut xs = around_the_boundary(clock.b, clock.a);
            xs.extend(around_the_boundary(clock.a, clock.b));
            assert_matches_oracle(hz, xs);
        }
    }

    proptest! {
        #[test]
        fn clocks_equal_the_oracle(
            hz in prop_oneof![1u64..4_000_000_000, PS_PER_S..u64::MAX, 1u64..u64::MAX],
            // 10k + 3 is coprime to 10: the period does not reduce at all.
            k in 0u64..400_000_000,
            xs in prop::collection::vec(any::<u64>(), 1..16),
        ) {
            for hz in [hz, 10 * k + 3] {
                let clock = Clock::from_hz(hz);
                for x in xs.iter().flat_map(|&x| [x, x >> 20, x >> 40]) {
                    prop_assert_eq!(clock.cycles_to_ps(x), oracle_cycles_to_ps(x, hz));
                    prop_assert_eq!(clock.ps_to_cycles(x), oracle_ps_to_cycles(x, hz));
                }
            }
        }

        #[test]
        fn a_period_grid_snaps_half_up(period in 1u64..100_000, ps in any::<u64>()) {
            let grid = Clock::from_period_ps(period);
            let snapped = ps.checked_add(period / 2).map(|n| n / period);
            if let Some(edges) = snapped {
                prop_assert_eq!(grid.ps_to_cycles(ps), edges);
                if let Some(edge_ps) = edges.checked_mul(period) {
                    prop_assert_eq!(grid.cycles_to_ps(edges), edge_ps);
                }
            }
        }
    }
}
