//! Real-chip variation model.
//!
//! Substitutes the manufacturing variation of a physical DDR4 module with a
//! deterministic field derived from a seed:
//!
//! * **Per-cache-line minimum reliable tRCD** — every line can be accessed
//!   below the nominal 13.5 ns (paper Fig. 12 observation 1); most lines are
//!   *strong* (reliable at ≤ 9.0 ns) while ~15 % are *weak* and clustered in
//!   specific banks and areas (observations 2–3). Clustering is modeled as a
//!   sum of Gaussian-ish "weak blobs" over the 64×64 (group × row-in-group)
//!   grid that Fig. 12 plots.
//! * **RowClone pair reliability** — same-subarray row pairs fall into
//!   `Always` / `Flaky` / `Never` classes; cross-subarray attempts always
//!   fail (paper §7.1 "mapping problem"). Flaky pairs fail a small fraction
//!   of trials, which is what the paper's 1000-trial clonability test
//!   filters out.

use crate::config::Geometry;
use crate::det::{hash01, hash_range};

/// Reliability class of a same-subarray RowClone pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PairClass {
    /// The pair never fails.
    Always,
    /// The pair fails each trial independently with the given probability.
    Flaky {
        /// Per-trial failure probability in `[0, 1]`.
        fail_rate_milli: u32,
    },
    /// The pair never succeeds.
    Never,
}

/// Lower bound of the strong-region minimum reliable tRCD (ps).
const STRONG_FLOOR_PS: u64 = 8_200;
/// Upper bound of the strong-region minimum reliable tRCD (ps).
const STRONG_CEIL_PS: u64 = 9_000;
/// Ceiling of any line's minimum reliable tRCD (ps), blob term included.
const MAX_MIN_TRCD_PS: u64 = 11_000;
/// Number of weak-cluster blobs per bank.
const BLOBS_PER_BANK: u32 = 4;
/// Blob radius range, in units of the 64×64 characterization grid.
const BLOB_RADIUS: (u32, u32) = (6, 18);
/// Extra tRCD added at a blob center (ps).
const BLOB_EXTRA_PS: (u64, u64) = (600, 1_700);
/// Width of the stochastic band below a line's minimum reliable tRCD in
/// which accesses fail probabilistically rather than always (ps).
pub(crate) const FLAKY_BAND_PS: u64 = 400;
/// Fraction (in 1/1000) of same-subarray pairs that always clone.
const PAIR_ALWAYS_MILLI: u32 = 800;
/// Maximum per-trial failure rate (in 1/1000) of a flaky pair.
const PAIR_FLAKY_MAX_FAIL_MILLI: u32 = 200;

/// Configuration of the variation field.
#[derive(Debug, Clone, PartialEq)]
pub struct VariationConfig {
    /// Seed from which the entire field is derived.
    pub seed: u64,
    /// When `false`, every line is reliable at any tRCD ≥ 8.2 ns (the floor
    /// of the strong region) and every same-subarray pair clones reliably
    /// (the "idealized DRAM" the paper's Ramulator baseline assumes, §7.2
    /// footnote 6).
    pub enabled: bool,
    /// Fraction (in 1/1000) of same-subarray pairs that are flaky.
    pub pair_flaky_milli: u32,
    /// When `true`, the device models read disturbance (RowHammer): every
    /// activation counts against the row's [`VariationModel::hc_first`]
    /// threshold within the current refresh window, and exceeding it injects
    /// bit flips into the ±2-row blast radius. Off by default so existing
    /// reports stay byte-identical.
    pub disturb_enabled: bool,
    /// Range of the seed-derived per-row disturbance threshold `HCfirst`
    /// (activations within one refresh window before neighbors start
    /// flipping). Real DDR4 rows sit in the tens of thousands; evaluation
    /// rigs shrink the range so attacks stay cheap to emulate.
    pub hc_first: (u64, u64),
    /// Probability (in 1/1000) that one over-threshold activation flips a
    /// bit in an adjacent (±1) victim row; ±2 rows flip at a quarter of
    /// this rate.
    pub disturb_flip_milli: u32,
}

impl Default for VariationConfig {
    fn default() -> Self {
        Self {
            seed: 0xEA5D_0D12,
            enabled: true,
            pair_flaky_milli: 150,
            disturb_enabled: false,
            hc_first: (16_384, 65_536),
            disturb_flip_milli: 100,
        }
    }
}

impl VariationConfig {
    /// An idealized configuration with variation disabled (Ramulator-style).
    #[must_use]
    pub fn ideal() -> Self {
        Self {
            enabled: false,
            ..Self::default()
        }
    }
}

/// Precomputed weak-cluster blob.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Blob {
    /// Center on the 64-wide group axis.
    cx: f64,
    /// Center on the 64-wide row-in-group axis.
    cy: f64,
    /// Radius in grid units.
    radius: f64,
    /// Extra tRCD at the center, in ps.
    extra_ps: f64,
}

/// The instantiated variation field for one device.
#[derive(Debug, Clone)]
pub struct VariationModel {
    cfg: VariationConfig,
    geometry: Geometry,
    /// [`BLOBS_PER_BANK`] blobs for each bank, indexed
    /// `bank * BLOBS_PER_BANK + i`.
    blobs: Vec<Blob>,
}

impl VariationModel {
    /// Builds the field for `geometry` from `cfg`.
    #[must_use]
    pub fn new(cfg: VariationConfig, geometry: Geometry) -> Self {
        let mut blobs = Vec::new();
        if cfg.enabled {
            for bank in 0..geometry.banks() {
                for i in 0..BLOBS_PER_BANK {
                    let c = [u64::from(bank), u64::from(i)];
                    let cx = hash01(cfg.seed, b"blob-x", &c) * 64.0;
                    let cy = hash01(cfg.seed, b"blob-y", &c) * 64.0;
                    let radius = hash_range(
                        cfg.seed,
                        b"blob-r",
                        &c,
                        u64::from(BLOB_RADIUS.0),
                        u64::from(BLOB_RADIUS.1),
                    ) as f64;
                    let extra_ps =
                        hash_range(cfg.seed, b"blob-e", &c, BLOB_EXTRA_PS.0, BLOB_EXTRA_PS.1)
                            as f64;
                    blobs.push(Blob {
                        cx,
                        cy,
                        radius,
                        extra_ps,
                    });
                }
            }
        }
        Self {
            cfg,
            geometry,
            blobs,
        }
    }

    /// The configuration this field was built from.
    #[must_use]
    pub fn config(&self) -> &VariationConfig {
        &self.cfg
    }

    /// Grid coordinates used by the Fig. 12 heatmap: `(row / 64, row % 64)`.
    fn grid_coords(row: u32) -> (f64, f64) {
        (f64::from(row / 64 % 64), f64::from(row % 64))
    }

    /// Total blob-induced extra tRCD for a row, in ps.
    fn blob_extra_ps(&self, bank: u32, row: u32) -> u64 {
        if !self.cfg.enabled {
            return 0;
        }
        let (gx, gy) = Self::grid_coords(row);
        let n = BLOBS_PER_BANK as usize;
        let start = bank as usize * n;
        let mut extra = 0.0f64;
        for blob in &self.blobs[start..start + n] {
            let dx = gx - blob.cx;
            let dy = gy - blob.cy;
            let d2 = dx * dx + dy * dy;
            let r2 = blob.radius * blob.radius;
            if d2 < r2 {
                extra += blob.extra_ps * (1.0 - d2 / r2);
            }
        }
        extra as u64
    }

    /// Minimum reliable tRCD of one cache line, in ps.
    ///
    /// Always strictly below the nominal 13.5 ns (paper Fig. 12
    /// observation 1: "all cache lines can reliably operate at tRCD values
    /// lower than the nominal value").
    #[must_use]
    pub fn line_min_trcd_ps(&self, bank: u32, row: u32, col: u32) -> u64 {
        if !self.cfg.enabled {
            return STRONG_FLOOR_PS;
        }
        (self.line_base_trcd_ps(bank, row, col) + self.blob_extra_ps(bank, row))
            .min(MAX_MIN_TRCD_PS)
    }

    /// A line's own draw in the strong region, before its row's blob term.
    fn line_base_trcd_ps(&self, bank: u32, row: u32, col: u32) -> u64 {
        hash_range(
            self.cfg.seed,
            b"line-trcd",
            &[u64::from(bank), u64::from(row), u64::from(col)],
            STRONG_FLOOR_PS,
            STRONG_CEIL_PS,
        )
    }

    /// Minimum reliable tRCD of a whole row: the weakest (largest-threshold)
    /// cache line in the row (paper §8.2: "we identify the weakest cache
    /// line in each row and use its tRCD value").
    ///
    /// Every line of a row shares the row's blob term, and
    /// `x ↦ (x + blob).min(cap)` never decreases as `x` grows, so the row's
    /// maximum is its largest line draw with the blob term added once.
    #[must_use]
    pub fn row_min_trcd_ps(&self, bank: u32, row: u32) -> u64 {
        if !self.cfg.enabled {
            return STRONG_FLOOR_PS;
        }
        (0..self.geometry.cols_per_row())
            .map(|col| self.line_base_trcd_ps(bank, row, col))
            .max()
            .map_or(STRONG_FLOOR_PS, |base| {
                (base + self.blob_extra_ps(bank, row)).min(MAX_MIN_TRCD_PS)
            })
    }

    /// Decides whether a read of `(bank, row, col)` with the *applied* tRCD
    /// `applied_ps` returns correct data on trial `nonce`.
    ///
    /// Above the line's threshold reads always succeed; more than the
    /// 400 ps flaky band below they always fail; in between they fail with
    /// a probability proportional to the shortfall (real chips are
    /// stochastic near the threshold, which is why the paper's profiler
    /// tests each line and the Bloom filter must be conservative).
    #[must_use]
    pub fn read_ok(&self, bank: u32, row: u32, col: u32, applied_ps: u64, nonce: u64) -> bool {
        let min = self.line_min_trcd_ps(bank, row, col);
        if applied_ps >= min {
            return true;
        }
        let shortfall = min - applied_ps;
        if shortfall >= FLAKY_BAND_PS {
            return false;
        }
        let p_fail = shortfall as f64 / FLAKY_BAND_PS as f64;
        hash01(
            self.cfg.seed,
            b"trcd-trial",
            &[u64::from(bank), u64::from(row), u64::from(col), nonce],
        ) >= 1.0 - p_fail
    }

    /// The row's read-disturbance threshold `HCfirst`: how many activations
    /// of this row within one refresh window its neighborhood tolerates
    /// before victim bits start flipping. `u64::MAX` (never) when
    /// disturbance modeling is off.
    ///
    /// Rows inside weak clusters tolerate up to 50 % fewer activations,
    /// mirroring the observed spatial correlation between retention/tRCD
    /// weakness and hammer susceptibility.
    #[must_use]
    pub fn hc_first(&self, bank: u32, row: u32) -> u64 {
        if !self.cfg.disturb_enabled {
            return u64::MAX;
        }
        let base = hash_range(
            self.cfg.seed,
            b"hc-first",
            &[u64::from(bank), u64::from(row)],
            self.cfg.hc_first.0,
            self.cfg.hc_first.1,
        );
        let weakness = self.blob_extra_ps(bank, row).min(1_000);
        (base - base * weakness / 2_000).max(1)
    }

    /// Decides whether one over-threshold activation flips a bit in the
    /// victim at `distance` rows from the hammered row. `count` is the
    /// aggressor's window activation count and `window` identifies the
    /// refresh window (the device passes its start time): the draw differs
    /// per overage activation *and* per window, so sustained hammering
    /// accumulates flips deterministically without a later window replaying
    /// — and thereby XOR-cancelling — an earlier window's exact bit set.
    #[must_use]
    pub fn disturb_flips(
        &self,
        bank: u32,
        victim: u32,
        aggressor: u32,
        count: u64,
        window: u64,
    ) -> bool {
        let distance = u64::from(victim.abs_diff(aggressor));
        debug_assert!((1..=2).contains(&distance), "outside the blast radius");
        let p = f64::from(self.cfg.disturb_flip_milli) / 1_000.0 / ((distance * distance) as f64);
        hash01(
            self.cfg.seed,
            b"rh-flip",
            &[
                u64::from(bank),
                u64::from(victim),
                u64::from(aggressor),
                count,
                window,
            ],
        ) < p
    }

    /// Reliability class of a RowClone pair `(src → dst)` in `bank`.
    ///
    /// Cross-subarray pairs are always [`PairClass::Never`]. Rows inside weak
    /// clusters are biased towards `Flaky`/`Never`, mirroring the paper's
    /// observation that weakness is spatially correlated.
    #[must_use]
    pub fn pair_class(&self, bank: u32, src_row: u32, dst_row: u32) -> PairClass {
        if self.geometry.subarray_of(src_row) != self.geometry.subarray_of(dst_row)
            || src_row == dst_row
        {
            return PairClass::Never;
        }
        if !self.cfg.enabled {
            return PairClass::Always;
        }
        // Canonicalize so (a, b) and (b, a) share a class.
        let (a, b) = if src_row <= dst_row {
            (src_row, dst_row)
        } else {
            (dst_row, src_row)
        };
        let coords = [u64::from(bank), u64::from(a), u64::from(b)];
        let mut draw = (hash01(self.cfg.seed, b"pair-class", &coords) * 1000.0) as u32;
        // Weak-cluster bias: shift the draw towards the flaky/never region.
        let weakness = self.blob_extra_ps(bank, a).max(self.blob_extra_ps(bank, b));
        draw += (weakness / 8) as u32;
        if draw < PAIR_ALWAYS_MILLI {
            PairClass::Always
        } else if draw < PAIR_ALWAYS_MILLI + self.cfg.pair_flaky_milli {
            let fail = hash_range(
                self.cfg.seed,
                b"pair-fail",
                &coords,
                1,
                u64::from(PAIR_FLAKY_MAX_FAIL_MILLI),
            ) as u32;
            PairClass::Flaky {
                fail_rate_milli: fail,
            }
        } else {
            PairClass::Never
        }
    }

    /// Decides one RowClone trial for the pair, using `nonce` to
    /// differentiate repeated attempts.
    #[must_use]
    pub fn rowclone_ok(&self, bank: u32, src_row: u32, dst_row: u32, nonce: u64) -> bool {
        match self.pair_class(bank, src_row, dst_row) {
            PairClass::Always => true,
            PairClass::Never => false,
            PairClass::Flaky { fail_rate_milli } => {
                let (a, b) = if src_row <= dst_row {
                    (src_row, dst_row)
                } else {
                    (dst_row, src_row)
                };
                hash01(
                    self.cfg.seed,
                    b"pair-trial",
                    &[u64::from(bank), u64::from(a), u64::from(b), nonce],
                ) >= f64::from(fail_rate_milli) / 1000.0
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn model() -> VariationModel {
        VariationModel::new(VariationConfig::default(), Geometry::default())
    }

    /// The row's minimum reliable tRCD by its definition, kept as the
    /// oracle: the largest of its lines' own minima.
    fn row_min_per_column(m: &VariationModel, bank: u32, row: u32) -> u64 {
        (0..m.geometry.cols_per_row())
            .map(|col| m.line_min_trcd_ps(bank, row, col))
            .max()
            .unwrap_or(STRONG_FLOOR_PS)
    }

    proptest! {
        /// Adding the row's blob term once, after the maximum over its
        /// lines, is the per-line maximum, for any seed, bank and row,
        /// with variation on and off.
        #[test]
        fn row_min_trcd_is_the_weakest_line(
            seed in any::<u64>(),
            enabled in any::<bool>(),
            bank in 0u32..16,
            rows in prop::array::uniform32(0u32..32_768),
        ) {
            let cfg = VariationConfig { seed, enabled, ..VariationConfig::default() };
            let m = VariationModel::new(cfg, Geometry::default());
            for row in rows {
                prop_assert_eq!(
                    m.row_min_trcd_ps(bank, row),
                    row_min_per_column(&m, bank, row),
                    "seed {} bank {} row {}", seed, bank, row
                );
            }
        }
    }

    #[test]
    fn every_line_below_nominal() {
        let m = model();
        for row in (0..4096).step_by(37) {
            for col in [0, 64, 127] {
                let v = m.line_min_trcd_ps(0, row, col);
                assert!(v < 13_500, "line trcd {v} must be below nominal");
                assert!(v >= 8_200);
            }
        }
    }

    #[test]
    fn strong_fraction_is_majority() {
        // Paper Fig. 12: 84.5 % of cache lines are strong (<= 9.0 ns).
        let m = model();
        let mut strong = 0u32;
        let mut total = 0u32;
        for bank in 0..2 {
            for row in 0..4096u32 {
                let v = m.row_min_trcd_ps(bank, row);
                if v <= 9_000 {
                    strong += 1;
                }
                total += 1;
            }
        }
        let frac = f64::from(strong) / f64::from(total);
        assert!((0.6..0.97).contains(&frac), "strong fraction {frac}");
    }

    #[test]
    fn weak_rows_are_clustered() {
        // Adjacent rows inside a blob should share weakness more often than
        // random rows do: measure autocorrelation of the weak indicator.
        let m = model();
        let weak: Vec<bool> = (0..4096).map(|r| m.row_min_trcd_ps(0, r) > 9_000).collect();
        let n_weak = weak.iter().filter(|&&w| w).count();
        if n_weak == 0 {
            panic!("expected some weak rows");
        }
        let p = n_weak as f64 / weak.len() as f64;
        let mut both = 0usize;
        for w in weak.windows(2) {
            if w[0] && w[1] {
                both += 1;
            }
        }
        let p_adj = both as f64 / (weak.len() - 1) as f64;
        assert!(
            p_adj > p * p * 2.0,
            "weakness not clustered: p={p}, p_adj={p_adj}"
        );
    }

    #[test]
    fn read_ok_threshold_behaviour() {
        let m = model();
        let min = m.line_min_trcd_ps(1, 10, 3);
        assert!(m.read_ok(1, 10, 3, min, 0));
        assert!(m.read_ok(1, 10, 3, min + 1_000, 1));
        assert!(
            !m.read_ok(1, 10, 3, min - 500, 2),
            "deep violation always fails"
        );
        // Inside the flaky band: some trials fail, some succeed over many nonces.
        let shallow = min - 200;
        let fails = (0..200)
            .filter(|&n| !m.read_ok(1, 10, 3, shallow, n))
            .count();
        assert!(
            fails > 0 && fails < 200,
            "band should be stochastic, got {fails}/200"
        );
    }

    #[test]
    fn cross_subarray_pairs_never_clone() {
        let m = model();
        let g = Geometry::default();
        let src = 0;
        let dst = g.subarray_rows; // first row of next subarray
        assert_eq!(m.pair_class(0, src, dst), PairClass::Never);
        assert!(!m.rowclone_ok(0, src, dst, 0));
    }

    #[test]
    fn self_clone_is_never() {
        let m = model();
        assert_eq!(m.pair_class(0, 5, 5), PairClass::Never);
    }

    #[test]
    fn pair_class_symmetric_and_deterministic() {
        let m = model();
        for (a, b) in [(1u32, 2u32), (7, 100), (300, 301)] {
            assert_eq!(m.pair_class(2, a, b), m.pair_class(2, b, a));
            assert_eq!(m.pair_class(2, a, b), m.pair_class(2, a, b));
        }
    }

    #[test]
    fn pair_classes_have_expected_mix() {
        let m = model();
        let mut always = 0;
        let mut flaky = 0;
        let mut never = 0;
        for a in 0..300u32 {
            let b = a + 1 + (a % 50); // same subarray for most
            if Geometry::default().subarray_of(a) != Geometry::default().subarray_of(b) {
                continue;
            }
            match m.pair_class(0, a, b) {
                PairClass::Always => always += 1,
                PairClass::Flaky { .. } => flaky += 1,
                PairClass::Never => never += 1,
            }
        }
        assert!(
            always > flaky,
            "always {always} flaky {flaky} never {never}"
        );
        assert!(always > never, "always {always} never {never}");
        assert!(flaky + never > 0, "some pairs must be unreliable");
    }

    #[test]
    fn always_pairs_survive_1000_trials() {
        let m = model();
        let g = Geometry::default();
        let mut checked = 0;
        for a in 0..200u32 {
            let b = a + 3;
            if g.subarray_of(a) != g.subarray_of(b) {
                continue;
            }
            if m.pair_class(0, a, b) == PairClass::Always {
                assert!((0..1000).all(|n| m.rowclone_ok(0, a, b, n)));
                checked += 1;
            }
        }
        assert!(checked > 50);
    }

    #[test]
    fn hc_first_defaults_off_and_is_bounded_when_enabled() {
        let m = model();
        assert_eq!(m.hc_first(0, 10), u64::MAX, "disturbance is off by default");
        let cfg = VariationConfig {
            disturb_enabled: true,
            hc_first: (1_000, 4_000),
            ..VariationConfig::default()
        };
        let m = VariationModel::new(cfg, Geometry::default());
        for row in (0..4096).step_by(31) {
            let hc = m.hc_first(0, row);
            assert!(hc >= 500, "weak-cluster bias halves at most: {hc}");
            assert!(hc <= 4_000, "threshold above the configured ceiling: {hc}");
            assert_eq!(hc, m.hc_first(0, row), "deterministic");
        }
    }

    #[test]
    fn disturb_flip_draws_favor_near_victims() {
        let cfg = VariationConfig {
            disturb_enabled: true,
            disturb_flip_milli: 200,
            ..VariationConfig::default()
        };
        let m = VariationModel::new(cfg, Geometry::default());
        let near = (0..5_000)
            .filter(|&c| m.disturb_flips(0, 101, 100, c, 0))
            .count();
        let far = (0..5_000)
            .filter(|&c| m.disturb_flips(0, 102, 100, c, 0))
            .count();
        assert!(
            near > 0,
            "adjacent victims must flip under sustained hammering"
        );
        assert!(
            near > 2 * far,
            "±1 rows must flip well above the ±2 rate: {near} vs {far}"
        );
    }

    #[test]
    fn ideal_config_is_fully_reliable() {
        let m = VariationModel::new(VariationConfig::ideal(), Geometry::default());
        assert_eq!(m.line_min_trcd_ps(0, 0, 0), STRONG_FLOOR_PS);
        assert_eq!(m.pair_class(0, 1, 2), PairClass::Always);
        assert!(m.read_ok(0, 0, 0, STRONG_FLOOR_PS, 9));
    }

    #[test]
    fn flaky_pairs_fail_some_trials() {
        let m = model();
        let g = Geometry::default();
        let mut found = false;
        'outer: for a in 0..2_000u32 {
            for off in 1..20u32 {
                let b = a + off;
                if b >= g.rows_per_bank || g.subarray_of(a) != g.subarray_of(b) {
                    continue;
                }
                if let PairClass::Flaky { fail_rate_milli } = m.pair_class(0, a, b) {
                    assert!(fail_rate_milli >= 1);
                    let fails = (0..5_000).filter(|&n| !m.rowclone_ok(0, a, b, n)).count();
                    assert!(
                        fails > 0,
                        "flaky pair with rate {fail_rate_milli} never failed"
                    );
                    found = true;
                    break 'outer;
                }
            }
        }
        assert!(found, "no flaky pair found in scan");
    }
}
