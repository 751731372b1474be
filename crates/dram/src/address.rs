//! Physical-address ⇄ DRAM-address translation (paper §2.3).
//!
//! One layout decides where every physical address lives (see
//! [`MappingScheme`]). The RowClone allocator in `easydram` layers its
//! OS-style row remap over this decode, so that RowClone operands can be
//! placed on row boundaries within one subarray (paper §7.1, "alignment
//! problem"); the allocator owns that remap and its decode.
//!
//! Multi-channel/multi-rank geometries add two interleave fields to the
//! decode: the **channel** is taken from the lowest line-address bits
//! (`line % channels`), so consecutive cache lines rotate channels — the
//! standard layout for maximal channel-level parallelism — and the **rank**
//! is folded into the bank field (`bank = rank * banks_per_rank +
//! bank_in_rank`), so the decode spreads traffic across ranks exactly as it
//! already spreads it across banks.

use crate::config::Geometry;

/// A fully decoded DRAM location: channel, flat within-channel bank
/// (rank-folded), row, and cache-line column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct DramAddress {
    /// Memory channel.
    pub channel: u32,
    /// Flat within-channel bank index
    /// (`rank * banks_per_rank + group * banks_per_group + bank_in_group`).
    pub bank: u32,
    /// Row within the bank.
    pub row: u32,
    /// Cache-line column within the row.
    pub col: u32,
}

impl DramAddress {
    /// Creates a channel-0 address from its components (the single-channel
    /// common case).
    #[must_use]
    pub fn new(bank: u32, row: u32, col: u32) -> Self {
        Self {
            channel: 0,
            bank,
            row,
            col,
        }
    }
}

impl std::fmt::Display for DramAddress {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "<ch {}, bank {}, row {}, col {}>",
            self.channel, self.bank, self.row, self.col
        )
    }
}

/// How physical address bits map onto DRAM coordinates: one layout,
/// `[row | col | bank | channel | offset]` with the bank index XOR-hashed by
/// the low row bits (ranks folded into the bank field). Consecutive cache
/// lines rotate channels, then banks, and row-aligned streams (e.g. a
/// copy's source and destination) do not collide in the same banks — the
/// standard trick real controllers use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MappingScheme {
    /// The one layout above.
    #[default]
    RowColBankXor,
}

/// Bidirectional physical ⇄ DRAM address mapper for a given [`Geometry`].
///
/// Every dimension of a valid geometry is a power of two, so the mapper
/// keeps each field's bit width and decodes with shifts and masks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddressMapper {
    geometry: Geometry,
    /// log2 of the channel count, columns per row, banks per channel and
    /// rows per bank.
    channel_bits: u32,
    col_bits: u32,
    bank_bits: u32,
    row_bits: u32,
}

/// The low `bits` bits of `v`.
fn low_bits(v: u64, bits: u32) -> u64 {
    v & ((1 << bits) - 1)
}

impl AddressMapper {
    /// Creates a mapper for `geometry`. [`MappingScheme`] has one variant,
    /// so `scheme` names the layout rather than choosing it.
    ///
    /// # Panics
    ///
    /// Panics if the geometry fails [`Geometry::validate`]; the decode is
    /// built from its power-of-two dimensions.
    #[must_use]
    pub fn new(geometry: Geometry, scheme: MappingScheme) -> Self {
        let MappingScheme::RowColBankXor = scheme;
        geometry
            .validate()
            .expect("address mapper requires a valid geometry");
        Self {
            channel_bits: geometry.channels.ilog2(),
            col_bits: geometry.cols_per_row().ilog2(),
            bank_bits: geometry.banks_per_channel().ilog2(),
            row_bits: geometry.rows_per_bank.ilog2(),
            geometry,
        }
    }

    /// The mapper's geometry.
    #[must_use]
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// Translates a physical byte address to a DRAM coordinate.
    ///
    /// The 6 low bits (line offset) are ignored; addresses beyond the system
    /// capacity wrap, which mirrors how a real controller decodes only the
    /// low address bits.
    #[must_use]
    #[inline]
    pub fn to_dram(&self, phys: u64) -> DramAddress {
        let line = phys >> 6;
        let channel = low_bits(line, self.channel_bits);
        let line = line >> self.channel_bits;
        let (cols, banks) = (self.col_bits, self.bank_bits);
        let row = low_bits(line >> (banks + cols), self.row_bits);
        DramAddress {
            channel: channel as u32,
            bank: (low_bits(line, banks) ^ low_bits(row, banks)) as u32,
            row: row as u32,
            col: low_bits(line >> banks, cols) as u32,
        }
    }

    /// Translates a DRAM coordinate back to the canonical physical byte
    /// address of the start of that cache line.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is outside the geometry.
    #[must_use]
    pub fn to_phys(&self, addr: DramAddress) -> u64 {
        assert!(
            addr.channel < self.geometry.channels,
            "channel {} out of range",
            addr.channel
        );
        assert!(
            addr.bank < self.geometry.banks_per_channel(),
            "bank {} out of range",
            addr.bank
        );
        assert!(
            addr.row < self.geometry.rows_per_bank,
            "row {} out of range",
            addr.row
        );
        assert!(
            addr.col < self.geometry.cols_per_row(),
            "col {} out of range",
            addr.col
        );
        let (row, col) = (u64::from(addr.row), u64::from(addr.col));
        let bank = u64::from(addr.bank) ^ low_bits(row, self.bank_bits);
        let line = ((row << self.col_bits | col) << self.bank_bits) | bank;
        (line << self.channel_bits | u64::from(addr.channel)) << 6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mapper(geometry: Geometry) -> AddressMapper {
        AddressMapper::new(geometry, MappingScheme::RowColBankXor)
    }

    fn multi_mapper() -> AddressMapper {
        mapper(Geometry {
            channels: 2,
            ranks: 2,
            ..Geometry::default()
        })
    }

    /// The division-and-modulo decode the shift decode replaced, kept word
    /// for word as the oracle: `to_dram` and `to_phys` as they were, over
    /// the mapper's geometry.
    fn div_dram(m: &AddressMapper, phys: u64) -> DramAddress {
        let line = phys >> 6;
        let channels = u64::from(m.geometry.channels);
        let channel = line % channels;
        let line = line / channels;
        let cols = u64::from(m.geometry.cols_per_row());
        let banks = u64::from(m.geometry.banks_per_channel());
        let rows = u64::from(m.geometry.rows_per_bank);
        let bank = line % banks;
        let col = (line / banks) % cols;
        let row = (line / banks / cols) % rows;
        DramAddress {
            channel: channel as u32,
            bank: (bank ^ (row % banks)) as u32,
            row: row as u32,
            col: col as u32,
        }
    }

    fn div_phys(m: &AddressMapper, addr: DramAddress) -> u64 {
        let cols = u64::from(m.geometry.cols_per_row());
        let banks = u64::from(m.geometry.banks_per_channel());
        let bank = u64::from(addr.bank) ^ (u64::from(addr.row) % banks);
        let line = (u64::from(addr.row) * cols + u64::from(addr.col)) * banks + bank;
        let line = line * u64::from(m.geometry.channels) + u64::from(addr.channel);
        line << 6
    }

    /// Channels {1, 2, 4} × ranks {1, 2} × the default, the unit-test and
    /// the two model-checker geometries.
    fn oracle_mappers() -> Vec<AddressMapper> {
        let bases = [
            Geometry::default(),
            crate::DramConfig::small_for_tests().geometry,
            Geometry::model_small(),
            Geometry::model_rank_folded(),
        ];
        let mut out = Vec::new();
        for base in &bases {
            for (channels, ranks) in [(1, 1), (2, 1), (4, 1), (1, 2), (2, 2), (4, 2)] {
                out.push(mapper(Geometry {
                    channels,
                    ranks,
                    ..base.clone()
                }));
            }
        }
        out
    }

    proptest::proptest! {
        /// The shift decode is the division decode on every mapper above:
        /// addresses inside the capacity, beyond it (the wrap) and up to
        /// `u64::MAX`. The remap-aware decode has its own oracle, next to
        /// the RowClone allocator that owns it.
        #[test]
        fn shift_decode_matches_the_division_decode(raw in proptest::any::<u64>()) {
            for m in oracle_mappers() {
                let cap = m.geometry.capacity_bytes();
                for phys in [raw % cap, cap + raw % cap, raw, u64::MAX - raw % 128, u64::MAX] {
                    let d = m.to_dram(phys);
                    proptest::prop_assert_eq!(d, div_dram(&m, phys), "{:?} {:#x}", m, phys);
                    proptest::prop_assert_eq!(m.to_phys(d), div_phys(&m, d), "{:?} {}", m, d);
                    proptest::prop_assert_eq!(m.to_phys(d), (phys % cap) & !63, "{:?} {:#x}", m, phys);
                }
            }
        }
    }

    #[test]
    fn round_trip_all_schemes() {
        let m = mapper(Geometry::default());
        for phys in [0u64, 64, 4096, 8192, 1 << 20, (1 << 27) - 64] {
            let d = m.to_dram(phys);
            assert_eq!(m.to_phys(d), phys, "{phys:#x}");
        }
    }

    #[test]
    fn round_trip_multi_channel_rank() {
        let m = multi_mapper();
        for phys in (0u64..4096).map(|i| i * 64) {
            let d = m.to_dram(phys);
            assert!(d.channel < 2);
            assert!(d.bank < 32, "bank field covers both ranks");
            assert_eq!(m.to_phys(d), phys, "{phys:#x}");
        }
    }

    #[test]
    fn consecutive_lines_rotate_channels() {
        let m = multi_mapper();
        let a = m.to_dram(0);
        let b = m.to_dram(64);
        let c = m.to_dram(128);
        assert_eq!(a.channel, 0);
        assert_eq!(b.channel, 1);
        assert_eq!(c.channel, 0);
    }

    #[test]
    fn rank_bits_ride_the_bank_field() {
        let geometry = Geometry {
            ranks: 2,
            ..Geometry::default()
        };
        let m = mapper(geometry.clone());
        // The bank field rotates fastest: 32 consecutive lines cover both
        // ranks' 16-bank arrays.
        let banks: std::collections::BTreeSet<u32> =
            (0..32u64).map(|i| m.to_dram(i * 64).bank).collect();
        assert_eq!(banks.len(), 32);
        assert!(banks.iter().any(|&b| b / geometry.banks() == 1));
    }

    #[test]
    fn offset_bits_ignored() {
        for m in [mapper(Geometry::default()), multi_mapper()] {
            assert_eq!(m.to_dram(0x1234 << 6), m.to_dram((0x1234 << 6) | 0x3F));
        }
    }

    #[test]
    fn xor_hashing_separates_row_aligned_streams() {
        let m = mapper(Geometry::default());
        // Two addresses one row-span apart share the line-offset pattern but
        // must mostly land in different banks.
        let row_span = 128 * 1024u64; // one full row per bank
        let same = (0..64u64)
            .filter(|i| m.to_dram(i * 64).bank == m.to_dram(i * 64 + row_span).bank)
            .count();
        assert!(
            same < 16,
            "XOR hash should separate streams, {same}/64 collide"
        );
    }

    #[test]
    fn addresses_wrap_at_capacity() {
        for m in [mapper(Geometry::default()), multi_mapper()] {
            let cap = m.geometry().capacity_bytes();
            assert_eq!(m.to_dram(0), m.to_dram(cap));
        }
    }

    #[test]
    #[should_panic(expected = "row 40000 out of range")]
    fn to_phys_validates() {
        let m = mapper(Geometry::default());
        let _ = m.to_phys(DramAddress::new(0, 40_000, 0));
    }

    #[test]
    #[should_panic(expected = "channel 1 out of range")]
    fn to_phys_validates_channel() {
        let m = mapper(Geometry::default());
        let _ = m.to_phys(DramAddress {
            channel: 1,
            ..DramAddress::new(0, 0, 0)
        });
    }
}
