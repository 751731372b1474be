//! Device geometry and top-level configuration.

use crate::error::DramError;
use crate::timing::TimingParams;
use crate::variation::VariationConfig;

/// Physical organization of the modeled DRAM system (paper §2.1, Figure 1).
///
/// The default matches the paper's evaluation system (§7.2 footnote 5):
/// a single channel and single rank of DDR4 with 4 bank groups × 4 banks,
/// 32 K rows per bank, and 8 KiB rows. Setting `channels`/`ranks` above 1
/// generalizes the model: each channel has a private data bus and command
/// stream, and each rank of a channel has its own bank array and refresh
/// schedule.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Geometry {
    /// Independent memory channels (each with its own bus and controller).
    pub channels: u32,
    /// Ranks per channel (each with its own bank array and refresh).
    pub ranks: u32,
    /// Number of bank groups in one rank.
    pub bank_groups: u32,
    /// Banks per bank group.
    pub banks_per_group: u32,
    /// Rows per bank.
    pub rows_per_bank: u32,
    /// Bytes per row (the RowClone copy granularity, typically 8 KiB).
    pub row_bytes: u32,
    /// Rows per subarray. FPM RowClone only works within a subarray
    /// (paper §7.1 "mapping problem").
    pub subarray_rows: u32,
}

impl Geometry {
    /// Most address bits a geometry may span above the 6-bit line offset:
    /// [`Geometry::capacity_bytes`] then fits a `u64` and no shift of the
    /// address decode reaches the word width.
    const MAX_LINE_ADDRESS_BITS: u32 = 57;

    /// Number of banks in one rank (`bank_groups * banks_per_group`).
    #[must_use]
    pub fn banks(&self) -> u32 {
        self.bank_groups * self.banks_per_group
    }

    /// Banks per channel across all of its ranks (`ranks * banks()`). This
    /// is the size of the flat within-channel bank index used by
    /// [`crate::DramAddress::bank`].
    #[must_use]
    pub fn banks_per_channel(&self) -> u32 {
        self.ranks * self.banks()
    }

    /// Banks in the whole memory system (`channels * ranks * banks()`).
    #[must_use]
    pub fn total_banks(&self) -> u32 {
        self.channels * self.banks_per_channel()
    }

    /// The single-channel single-rank geometry one channel's device models:
    /// the ranks of the channel are folded into the bank-group dimension, so
    /// a flat within-channel bank index (`rank * banks() + bank_in_rank`)
    /// addresses the folded device directly, and banks in different ranks
    /// never share a bank group (their timing constraints are the relaxed
    /// cross-group ones, as on real modules).
    #[must_use]
    pub fn per_channel(&self) -> Geometry {
        Geometry {
            channels: 1,
            ranks: 1,
            bank_groups: self.bank_groups * self.ranks,
            ..self.clone()
        }
    }

    /// Cache-line columns per row (`row_bytes / 64`).
    #[must_use]
    pub fn cols_per_row(&self) -> u32 {
        self.row_bytes / crate::command::LINE_BYTES as u32
    }

    /// Total capacity of the memory system in bytes (all channels/ranks).
    #[must_use]
    pub fn capacity_bytes(&self) -> u64 {
        u64::from(self.total_banks()) * u64::from(self.rows_per_bank) * u64::from(self.row_bytes)
    }

    /// Subarray index of a row.
    #[must_use]
    pub fn subarray_of(&self, row: u32) -> u32 {
        row / self.subarray_rows
    }

    /// Bank group of a flat bank index.
    #[must_use]
    pub(crate) fn group_of(&self, bank: u32) -> u32 {
        bank / self.banks_per_group
    }

    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency (zero-sized
    /// dimension, row size not a multiple of the line size, a subarray
    /// size that does not divide the bank, or a bank count or capacity too
    /// large for the address decode). Never panics, whatever the fields
    /// hold: the other methods may multiply them only after it passed.
    pub fn validate(&self) -> Result<(), String> {
        if self.channels == 0 || !self.channels.is_power_of_two() {
            return Err("channel count must be a non-zero power of two".into());
        }
        if self.ranks == 0 || !self.ranks.is_power_of_two() {
            return Err("rank count must be a non-zero power of two".into());
        }
        if self.bank_groups == 0 || self.banks_per_group == 0 {
            return Err("geometry must have at least one bank".into());
        }
        if self.rows_per_bank == 0 {
            return Err("geometry must have at least one row".into());
        }
        if self.row_bytes == 0 || self.row_bytes % crate::command::LINE_BYTES as u32 != 0 {
            return Err("row size must be a non-zero multiple of 64 bytes".into());
        }
        if self.subarray_rows == 0 || self.rows_per_bank % self.subarray_rows != 0 {
            return Err("subarray size must divide rows_per_bank".into());
        }
        if !self.rows_per_bank.is_power_of_two() || !self.cols_per_row().is_power_of_two() {
            return Err("rows and columns must be powers of two for address mapping".into());
        }
        // In 64 bits, so a hostile pair of factors cannot overflow the check.
        let banks = u64::from(self.bank_groups) * u64::from(self.banks_per_group);
        if !banks.is_power_of_two() {
            return Err("bank count must be a power of two for address mapping".into());
        }
        // Everything above is a power of two, so sizes add as bit widths.
        let bank_bits = self.channels.ilog2() + self.ranks.ilog2() + banks.ilog2();
        if bank_bits >= u32::BITS {
            return Err(format!(
                "channels * ranks * bank_groups * banks_per_group = 2^{bank_bits} banks does not fit 32 bits"
            ));
        }
        let line_bits = bank_bits + self.rows_per_bank.ilog2() + self.cols_per_row().ilog2();
        if line_bits > Self::MAX_LINE_ADDRESS_BITS {
            return Err(format!(
                "banks * rows_per_bank * row_bytes needs {line_bits} address bits above the \
                 line offset, more than the {} supported",
                Self::MAX_LINE_ADDRESS_BITS
            ));
        }
        Ok(())
    }
}

/// Mini geometries for the exhaustive protocol model checker
/// (`easydram-model`). Tiny on purpose: the bounded state-space enumeration
/// is exponential in the command alphabet, and these shapes keep every
/// interesting constraint class reachable (same-group and cross-group pairs,
/// tFAW with exactly four banks) at a tractable size. Compiled with the
/// `oracle` feature, alongside the frozen checker the model compares against.
#[cfg(any(test, feature = "oracle"))]
impl Geometry {
    /// The model checker's base shape: 1 channel × 1 rank, 2 bank groups of
    /// 2 banks, 4 rows of 2 cache lines. Satisfies [`Geometry::validate`].
    #[must_use]
    pub fn model_small() -> Geometry {
        Geometry {
            channels: 1,
            ranks: 1,
            bank_groups: 2,
            banks_per_group: 2,
            rows_per_bank: 4,
            row_bytes: 128,
            subarray_rows: 4,
        }
    }

    /// The rank-folded variant: 2 ranks × 2 groups × 1 bank, folded through
    /// [`Geometry::per_channel`] into 4 single-bank groups — every
    /// cross-bank constraint resolves at the relaxed cross-group scope, the
    /// opposite extreme from [`Geometry::model_small`].
    #[must_use]
    pub fn model_rank_folded() -> Geometry {
        Geometry {
            channels: 1,
            ranks: 2,
            bank_groups: 2,
            banks_per_group: 1,
            rows_per_bank: 4,
            row_bytes: 128,
            subarray_rows: 4,
        }
        .per_channel()
    }
}

impl Default for Geometry {
    fn default() -> Self {
        Self {
            channels: 1,
            ranks: 1,
            bank_groups: 4,
            banks_per_group: 4,
            rows_per_bank: 32_768,
            row_bytes: 8_192,
            subarray_rows: 512,
        }
    }
}

/// Complete configuration of a [`crate::DramDevice`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DramConfig {
    /// Rank geometry.
    pub geometry: Geometry,
    /// Timing parameter bin.
    pub timing: TimingParams,
    /// Real-chip variation model configuration.
    pub variation: VariationConfig,
}

impl DramConfig {
    /// A small-geometry configuration for fast unit tests (2 banks × 1 K rows).
    #[must_use]
    pub fn small_for_tests() -> Self {
        Self {
            geometry: Geometry {
                channels: 1,
                ranks: 1,
                bank_groups: 1,
                banks_per_group: 2,
                rows_per_bank: 1_024,
                row_bytes: 8_192,
                subarray_rows: 128,
            },
            timing: TimingParams::ddr4_1333(),
            variation: VariationConfig::default(),
        }
    }

    /// Validates geometry and timing together, plus cross-cutting
    /// constraints neither can see alone.
    ///
    /// # Errors
    ///
    /// Propagates the first geometry inconsistency as
    /// [`DramError::InvalidConfig`] and the first timing contradiction as
    /// [`DramError::InvalidTiming`] (typed: stable `cfg/...` rule id,
    /// offending parameters, implied contradiction). Additionally rejects
    /// `t_rfm_ps == 0` (RFM unsupported) when read-disturbance modeling is
    /// enabled — rule [`ConfigRule::RfmRequired`] — because every
    /// mitigation issues targeted refreshes, and a zero-duration RFM would
    /// make them silently free.
    ///
    /// [`ConfigRule::RfmRequired`]: crate::consistency::ConfigRule::RfmRequired
    pub fn validate(&self) -> Result<(), DramError> {
        self.geometry.validate().map_err(DramError::InvalidConfig)?;
        self.timing.validate()?;
        if self.variation.disturb_enabled && self.timing.t_rfm_ps == 0 {
            return Err(DramError::InvalidTiming(
                crate::consistency::TimingContradiction {
                    rule: crate::consistency::ConfigRule::RfmRequired,
                    params: vec![("t_rfm_ps", 0)],
                    implied: "disturbance mitigation requires targeted refresh: \
                              t_rfm_ps must be non-zero"
                        .into(),
                },
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_trfm_rejected_only_with_mitigation() {
        let mut cfg = DramConfig::default();
        cfg.timing.t_rfm_ps = 0;
        cfg.validate().unwrap(); // RFM unsupported, mitigation off: fine
        cfg.variation.disturb_enabled = true;
        let err = cfg.validate().unwrap_err();
        match &err {
            DramError::InvalidTiming(c) => {
                assert_eq!(c.rule.id(), "cfg/rfm-required");
                assert!(c.params.contains(&("t_rfm_ps", 0)));
            }
            other => panic!("expected a typed timing contradiction, got {other:?}"),
        }
        assert!(err.to_string().contains("t_rfm_ps"), "{err}");
        cfg.timing.t_rfm_ps = 60_000;
        cfg.validate().unwrap();
    }

    #[test]
    fn default_geometry_matches_paper() {
        let g = Geometry::default();
        assert_eq!(g.banks(), 16);
        assert_eq!(g.cols_per_row(), 128);
        assert_eq!(g.capacity_bytes(), 16 * 32_768 * 8_192);
        g.validate().unwrap();
    }

    #[test]
    fn subarray_mapping() {
        let g = Geometry::default();
        assert_eq!(g.subarray_of(0), 0);
        assert_eq!(g.subarray_of(511), 0);
        assert_eq!(g.subarray_of(512), 1);
        assert_eq!(g.subarray_of(32_767), 63);
    }

    #[test]
    fn group_of_flat_bank() {
        let g = Geometry::default();
        assert_eq!(g.group_of(0), 0);
        assert_eq!(g.group_of(3), 0);
        assert_eq!(g.group_of(4), 1);
        assert_eq!(g.group_of(15), 3);
    }

    #[test]
    fn validation_rejects_bad_geometry() {
        let g = Geometry {
            row_bytes: 100,
            ..Geometry::default()
        };
        assert!(g.validate().is_err());

        let g = Geometry {
            subarray_rows: 500, // does not divide 32768
            ..Geometry::default()
        };
        assert!(g.validate().is_err());

        let g = Geometry {
            rows_per_bank: 0,
            ..Geometry::default()
        };
        assert!(g.validate().is_err());
    }

    #[test]
    fn validation_rejects_overflowing_geometry_without_panicking() {
        // `banks()` overflows u32.
        let g = Geometry {
            bank_groups: 1 << 16,
            banks_per_group: 1 << 16,
            ..Geometry::default()
        };
        assert!(g.validate().unwrap_err().contains("banks_per_group"));
        // `total_banks()` overflows u32 through the channel and rank factors.
        let g = Geometry {
            channels: 1 << 15,
            ranks: 1 << 15,
            ..Geometry::default()
        };
        assert!(g.validate().unwrap_err().contains("channels * ranks"));
        // `capacity_bytes()` overflows u64: 2^(20 + 31 + 13) bytes.
        let g = Geometry {
            channels: 1 << 16,
            rows_per_bank: 1 << 31,
            subarray_rows: 1 << 9,
            ..Geometry::default()
        };
        assert!(g.validate().unwrap_err().contains("row_bytes"));
        // The largest geometry that passes still has a capacity.
        let g = Geometry {
            channels: 1 << 15,
            rows_per_bank: 1 << 31,
            subarray_rows: 1 << 9,
            ..Geometry::default()
        };
        g.validate().unwrap();
        assert_eq!(g.capacity_bytes(), 1 << 63);
    }

    #[test]
    fn small_test_config_is_valid() {
        DramConfig::small_for_tests().validate().unwrap();
    }

    #[test]
    fn multi_channel_geometry_scales_capacity() {
        let g = Geometry {
            channels: 2,
            ranks: 2,
            ..Geometry::default()
        };
        g.validate().unwrap();
        assert_eq!(g.banks(), 16, "banks() stays per-rank");
        assert_eq!(g.banks_per_channel(), 32);
        assert_eq!(g.total_banks(), 64);
        assert_eq!(g.capacity_bytes(), 4 * Geometry::default().capacity_bytes());
        // A flat within-channel bank index is `rank * banks() + bank_in_rank`.
        assert_eq!([0, 15, 16].map(|b| b / g.banks()), [0, 0, 1]);
    }

    #[test]
    fn per_channel_folds_ranks_into_groups() {
        let g = Geometry {
            channels: 4,
            ranks: 2,
            ..Geometry::default()
        };
        let pc = g.per_channel();
        pc.validate().unwrap();
        assert_eq!(pc.channels, 1);
        assert_eq!(pc.ranks, 1);
        assert_eq!(pc.banks(), g.banks_per_channel());
        // Banks of different ranks never share a folded bank group.
        assert_ne!(pc.group_of(0), pc.group_of(g.banks()));
        // Folding is the identity for the default single-rank geometry.
        assert_eq!(Geometry::default().per_channel(), Geometry::default());
    }

    #[test]
    fn validation_rejects_non_pow2_channels_and_ranks() {
        for (channels, ranks) in [(0, 1), (3, 1), (1, 0), (1, 6)] {
            let g = Geometry {
                channels,
                ranks,
                ..Geometry::default()
            };
            assert!(g.validate().is_err(), "{channels} ch / {ranks} ranks");
        }
    }
}
