//! Physical-address ⇄ DRAM-address translation (paper §2.3).
//!
//! EasyAPI exposes these mappers to both the processor-side allocator and the
//! software memory controller so RowClone operands can be placed on row
//! boundaries within one subarray (paper §7.1, "alignment problem").
//!
//! Multi-channel/multi-rank geometries add two interleave fields to the
//! decode: the **channel** is taken from the lowest line-address bits
//! (`line % channels`), so consecutive cache lines rotate channels — the
//! standard layout for maximal channel-level parallelism — and the **rank**
//! is folded into the bank field (`bank = rank * banks_per_rank +
//! bank_in_rank`), so every [`MappingScheme`] transparently spreads traffic
//! across ranks exactly as it already spreads it across banks.

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

/// How physical address bits map onto DRAM coordinates (channel bits are
/// always the lowest line-address bits; the scheme governs the per-channel
/// remainder, with ranks folded into the bank dimension).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MappingScheme {
    /// `[row | bank | col | channel | offset]`: consecutive cache lines walk
    /// a row (maximal row-buffer locality), consecutive rows rotate banks.
    #[default]
    RowBankCol,
    /// `[row | col | bank | channel | offset]`: consecutive cache lines
    /// rotate banks (maximal bank-level parallelism).
    RowColBank,
    /// `[bank | row | col | channel | offset]`: a bank owns one contiguous
    /// region of the physical address space (simplest to reason about).
    /// The RowClone allocator's heap/pool rule assumes a natural row is
    /// `addr / (row_bytes · total_banks)`, which this scheme breaks.
    BankRowCol,
    /// [`MappingScheme::RowColBank`] with the bank index XOR-hashed by the
    /// low row bits, the standard trick real controllers use so that
    /// row-aligned streams (e.g. a copy's source and destination) do not
    /// collide in the same banks.
    RowColBankXor,
}

/// Bidirectional physical ⇄ DRAM address mapper for a given [`Geometry`].
///
/// Every dimension of a valid geometry is a power of two, so the mapper
/// keeps each field's bit width and decodes with shifts and masks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddressMapper {
    geometry: Geometry,
    scheme: MappingScheme,
    /// log2 of the channel count, columns per row, banks per channel and
    /// rows per bank.
    channel_bits: u32,
    col_bits: u32,
    bank_bits: u32,
    row_bits: u32,
    /// log2 of the row size in bytes: `phys >> row_shift` is the virtual
    /// row a remap entry is keyed on.
    row_shift: u32,
}

/// The low `bits` bits of `v`.
fn low_bits(v: u64, bits: u32) -> u64 {
    v & ((1 << bits) - 1)
}

impl AddressMapper {
    /// Creates a mapper for `geometry` using `scheme`.
    ///
    /// # Panics
    ///
    /// Panics if the geometry fails [`Geometry::validate`]; the decode is
    /// built from its power-of-two dimensions.
    #[must_use]
    pub fn new(geometry: Geometry, scheme: MappingScheme) -> Self {
        geometry
            .validate()
            .expect("address mapper requires a valid geometry");
        let col_bits = geometry.cols_per_row().ilog2();
        Self {
            channel_bits: geometry.channels.ilog2(),
            col_bits,
            bank_bits: geometry.banks_per_channel().ilog2(),
            row_bits: geometry.rows_per_bank.ilog2(),
            row_shift: 6 + col_bits,
            geometry,
            scheme,
        }
    }

    /// The mapper's geometry.
    #[must_use]
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// The mapper's scheme.
    #[must_use]
    pub fn scheme(&self) -> MappingScheme {
        self.scheme
    }

    /// Translates a physical byte address to a DRAM coordinate.
    ///
    /// The 6 low bits (line offset) are ignored; addresses beyond the system
    /// capacity wrap, which mirrors how a real controller decodes only the
    /// low address bits.
    #[must_use]
    pub fn to_dram(&self, phys: u64) -> DramAddress {
        let line = phys >> 6;
        let channel = low_bits(line, self.channel_bits);
        let line = line >> self.channel_bits;
        let (cols, banks, rows) = (self.col_bits, self.bank_bits, self.row_bits);
        let field = |shift: u32, bits: u32| low_bits(line >> shift, bits);
        let (bank, row, col) = match self.scheme {
            MappingScheme::RowBankCol => (
                field(cols, banks),
                field(cols + banks, rows),
                field(0, cols),
            ),
            MappingScheme::RowColBank => (
                field(0, banks),
                field(banks + cols, rows),
                field(banks, cols),
            ),
            MappingScheme::BankRowCol => {
                (field(cols + rows, banks), field(cols, rows), field(0, cols))
            }
            MappingScheme::RowColBankXor => {
                let row = field(banks + cols, rows);
                (
                    field(0, banks) ^ low_bits(row, banks),
                    row,
                    field(banks, cols),
                )
            }
        };
        DramAddress {
            channel: channel as u32,
            bank: bank as u32,
            row: row as u32,
            col: col as u32,
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
        let (cols, banks, rows) = (self.col_bits, self.bank_bits, self.row_bits);
        let (bank, row, col) = (
            u64::from(addr.bank),
            u64::from(addr.row),
            u64::from(addr.col),
        );
        let line = match self.scheme {
            MappingScheme::RowBankCol => ((row << banks | bank) << cols) | col,
            MappingScheme::RowColBank => ((row << cols | col) << banks) | bank,
            MappingScheme::BankRowCol => ((bank << rows | row) << cols) | col,
            MappingScheme::RowColBankXor => {
                ((row << cols | col) << banks) | (bank ^ low_bits(row, banks))
            }
        };
        (line << self.channel_bits | u64::from(addr.channel)) << 6
    }

    /// Remap-aware physical-to-DRAM translation: virtual rows with an
    /// OS-style remap entry (installed by the RowClone allocator, paper §7.1)
    /// go to their remapped `(bank, row)` keeping the in-row column; all
    /// other addresses use the plain scheme. The entry is keyed on the
    /// virtual row, `phys >> log2(row_bytes)`.
    ///
    /// Remapped rows always live on **channel 0**: RowClone operands must
    /// share a subarray, so the allocator places every remap pool in one
    /// channel's device and the remap entry overrides the channel interleave
    /// along with the bank/row decode.
    ///
    /// This is the one shared decode path of EasyAPI's `get_addr_mapping`
    /// (Table 2) and the tile's per-bank timeline bookkeeping.
    #[must_use]
    pub fn to_dram_remapped(
        &self,
        remap: &std::collections::BTreeMap<u64, (u32, u32)>,
        phys: u64,
    ) -> DramAddress {
        match remap.get(&(phys >> self.row_shift)) {
            Some(&(bank, row)) => DramAddress {
                channel: 0,
                bank,
                row,
                col: low_bits(phys >> 6, self.col_bits) as u32,
            },
            None => self.to_dram(phys),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_schemes() -> [MappingScheme; 4] {
        [
            MappingScheme::RowBankCol,
            MappingScheme::RowColBank,
            MappingScheme::BankRowCol,
            MappingScheme::RowColBankXor,
        ]
    }

    fn mappers() -> Vec<AddressMapper> {
        all_schemes()
            .into_iter()
            .map(|s| AddressMapper::new(Geometry::default(), s))
            .collect()
    }

    fn multi_mappers() -> Vec<AddressMapper> {
        let geometry = Geometry {
            channels: 2,
            ranks: 2,
            ..Geometry::default()
        };
        all_schemes()
            .into_iter()
            .map(|s| AddressMapper::new(geometry.clone(), s))
            .collect()
    }

    /// The division-and-modulo decode the shift decode replaced, kept word
    /// for word as the oracle: `to_dram`, `to_phys` and `to_dram_remapped`
    /// as they were, over the mapper's geometry and scheme.
    fn div_dram(m: &AddressMapper, phys: u64) -> DramAddress {
        let line = phys >> 6;
        let channels = u64::from(m.geometry.channels);
        let channel = line % channels;
        let line = line / channels;
        let cols = u64::from(m.geometry.cols_per_row());
        let banks = u64::from(m.geometry.banks_per_channel());
        let rows = u64::from(m.geometry.rows_per_bank);
        let (bank, row, col) = match m.scheme {
            MappingScheme::RowBankCol => {
                let col = line % cols;
                let bank = (line / cols) % banks;
                let row = (line / cols / banks) % rows;
                (bank, row, col)
            }
            MappingScheme::RowColBank => {
                let bank = line % banks;
                let col = (line / banks) % cols;
                let row = (line / banks / cols) % rows;
                (bank, row, col)
            }
            MappingScheme::BankRowCol => {
                let col = line % cols;
                let row = (line / cols) % rows;
                let bank = (line / cols / rows) % banks;
                (bank, row, col)
            }
            MappingScheme::RowColBankXor => {
                let bank = line % banks;
                let col = (line / banks) % cols;
                let row = (line / banks / cols) % rows;
                (bank ^ (row % banks), row, col)
            }
        };
        DramAddress {
            channel: channel as u32,
            bank: bank as u32,
            row: row as u32,
            col: col as u32,
        }
    }

    fn div_phys(m: &AddressMapper, addr: DramAddress) -> u64 {
        let cols = u64::from(m.geometry.cols_per_row());
        let banks = u64::from(m.geometry.banks_per_channel());
        let rows = u64::from(m.geometry.rows_per_bank);
        let line = match m.scheme {
            MappingScheme::RowBankCol => {
                (u64::from(addr.row) * banks + u64::from(addr.bank)) * cols + u64::from(addr.col)
            }
            MappingScheme::RowColBank => {
                (u64::from(addr.row) * cols + u64::from(addr.col)) * banks + u64::from(addr.bank)
            }
            MappingScheme::BankRowCol => {
                (u64::from(addr.bank) * rows + u64::from(addr.row)) * cols + u64::from(addr.col)
            }
            MappingScheme::RowColBankXor => {
                let bank = u64::from(addr.bank) ^ (u64::from(addr.row) % banks);
                (u64::from(addr.row) * cols + u64::from(addr.col)) * banks + bank
            }
        };
        let line = line * u64::from(m.geometry.channels) + u64::from(addr.channel);
        line << 6
    }

    fn div_dram_remapped(
        m: &AddressMapper,
        remap: &std::collections::BTreeMap<u64, (u32, u32)>,
        phys: u64,
    ) -> DramAddress {
        let row_bytes = u64::from(m.geometry.row_bytes);
        let vrow = phys / row_bytes;
        match remap.get(&vrow) {
            Some(&(bank, row)) => DramAddress {
                channel: 0,
                bank,
                row,
                col: ((phys % row_bytes) / crate::LINE_BYTES as u64) as u32,
            },
            None => div_dram(m, phys),
        }
    }

    /// Every scheme × channels {1, 2, 4} × ranks {1, 2} × the default, the
    /// unit-test and the two model-checker geometries.
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
                let geometry = Geometry {
                    channels,
                    ranks,
                    ..base.clone()
                };
                out.extend(all_schemes().map(|s| AddressMapper::new(geometry.clone(), s)));
            }
        }
        out
    }

    proptest::proptest! {
        /// The shift decode is the division decode on every mapper above:
        /// addresses inside the capacity, beyond it (the wrap) and up to
        /// `u64::MAX`, with no remap, with entries on both sides of the
        /// probed row, and with the probed row itself remapped.
        #[test]
        fn shift_decode_matches_the_division_decode(
            raw in proptest::any::<u64>(),
            target in (0u32..4, 0u32..4),
        ) {
            for m in oracle_mappers() {
                let cap = m.geometry.capacity_bytes();
                for phys in [raw % cap, cap + raw % cap, raw, u64::MAX - raw % 128, u64::MAX] {
                    let d = m.to_dram(phys);
                    proptest::prop_assert_eq!(d, div_dram(&m, phys), "{:?} {:#x}", m, phys);
                    proptest::prop_assert_eq!(m.to_phys(d), div_phys(&m, d), "{:?} {}", m, d);
                    proptest::prop_assert_eq!(m.to_phys(d), (phys % cap) & !63, "{:?} {:#x}", m, phys);

                    let vrow = phys / u64::from(m.geometry.row_bytes);
                    let mut remap = std::collections::BTreeMap::new();
                    let plain = m.to_dram_remapped(&remap, phys);
                    remap.insert(vrow.wrapping_sub(1), (target.1, target.0));
                    remap.insert(vrow.wrapping_add(1), (target.0, target.1));
                    let beside = m.to_dram_remapped(&remap, phys);
                    proptest::prop_assert_eq!(beside, div_dram_remapped(&m, &remap, phys));
                    proptest::prop_assert_eq!((plain, beside), (d, d), "{:?} {:#x}", m, phys);
                    remap.insert(vrow, target);
                    let on = m.to_dram_remapped(&remap, phys);
                    proptest::prop_assert_eq!(on, div_dram_remapped(&m, &remap, phys));
                    proptest::prop_assert_eq!((on.channel, on.bank, on.row), (0, target.0, target.1));
                }
            }
        }
    }

    #[test]
    fn round_trip_all_schemes() {
        for m in mappers() {
            for phys in [0u64, 64, 4096, 8192, 1 << 20, (1 << 27) - 64] {
                let d = m.to_dram(phys);
                assert_eq!(m.to_phys(d), phys, "{:?} {phys:#x}", m.scheme());
            }
        }
    }

    #[test]
    fn round_trip_multi_channel_rank() {
        for m in multi_mappers() {
            for phys in (0u64..4096).map(|i| i * 64) {
                let d = m.to_dram(phys);
                assert!(d.channel < 2);
                assert!(d.bank < 32, "bank field covers both ranks");
                assert_eq!(m.to_phys(d), phys, "{:?} {phys:#x}", m.scheme());
            }
        }
    }

    #[test]
    fn consecutive_lines_rotate_channels() {
        for m in multi_mappers() {
            let a = m.to_dram(0);
            let b = m.to_dram(64);
            let c = m.to_dram(128);
            assert_eq!(a.channel, 0);
            assert_eq!(b.channel, 1, "{:?}", m.scheme());
            assert_eq!(c.channel, 0);
        }
    }

    #[test]
    fn rank_bits_ride_the_bank_field() {
        let geometry = Geometry {
            ranks: 2,
            ..Geometry::default()
        };
        let m = AddressMapper::new(geometry.clone(), MappingScheme::RowColBank);
        // Under RowColBank the bank field rotates fastest: 32 consecutive
        // lines cover both ranks' 16-bank arrays.
        let banks: std::collections::BTreeSet<u32> =
            (0..32u64).map(|i| m.to_dram(i * 64).bank).collect();
        assert_eq!(banks.len(), 32);
        assert!(banks.iter().any(|&b| geometry.rank_of(b) == 1));
    }

    #[test]
    fn offset_bits_ignored() {
        for m in mappers().into_iter().chain(multi_mappers()) {
            assert_eq!(m.to_dram(0x1234 << 6), m.to_dram((0x1234 << 6) | 0x3F));
        }
    }

    #[test]
    fn row_bank_col_walks_rows() {
        let m = AddressMapper::new(Geometry::default(), MappingScheme::RowBankCol);
        let a = m.to_dram(0);
        let b = m.to_dram(64);
        assert_eq!(a.row, b.row);
        assert_eq!(a.bank, b.bank);
        assert_eq!(b.col, a.col + 1);
    }

    #[test]
    fn row_col_bank_rotates_banks() {
        let m = AddressMapper::new(Geometry::default(), MappingScheme::RowColBank);
        let a = m.to_dram(0);
        let b = m.to_dram(64);
        assert_eq!(b.bank, a.bank + 1);
    }

    #[test]
    fn bank_row_col_is_contiguous_per_bank() {
        let m = AddressMapper::new(Geometry::default(), MappingScheme::BankRowCol);
        let bank_span =
            u64::from(Geometry::default().rows_per_bank) * u64::from(Geometry::default().row_bytes);
        assert_eq!(m.to_dram(0).bank, 0);
        assert_eq!(m.to_dram(bank_span).bank, 1);
    }

    #[test]
    fn xor_hashing_separates_row_aligned_streams() {
        let m = AddressMapper::new(Geometry::default(), MappingScheme::RowColBankXor);
        // Two addresses one row-span apart share the line-offset pattern but
        // must mostly land in different banks.
        let row_span = 128 * 1024u64; // one full row per bank at this scheme
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
        for m in mappers().into_iter().chain(multi_mappers()) {
            let cap = m.geometry().capacity_bytes();
            assert_eq!(m.to_dram(0), m.to_dram(cap));
        }
    }

    #[test]
    fn remapped_rows_override_the_scheme() {
        let m = AddressMapper::new(Geometry::default(), MappingScheme::RowBankCol);
        let mut remap = std::collections::BTreeMap::new();
        remap.insert(0u64, (1u32, 77u32)); // virtual row 0 -> bank 1 row 77
        let d = m.to_dram_remapped(&remap, 128); // third line of virtual row 0
        assert_eq!((d.bank, d.row, d.col), (1, 77, 2));
        // Unmapped rows fall through to the plain mapper.
        let far = 10 * u64::from(Geometry::default().row_bytes);
        assert_eq!(m.to_dram_remapped(&remap, far), m.to_dram(far));
    }

    #[test]
    fn remapped_rows_pin_channel_zero() {
        let geometry = Geometry {
            channels: 4,
            ..Geometry::default()
        };
        let m = AddressMapper::new(geometry, MappingScheme::RowColBankXor);
        let mut remap = std::collections::BTreeMap::new();
        remap.insert(3u64, (2u32, 99u32));
        // Every line of the remapped virtual row decodes to channel 0, even
        // though the plain interleave would spread the lines across channels.
        for line in 0..4u64 {
            let phys = 3 * 8192 + line * 64;
            let d = m.to_dram_remapped(&remap, phys);
            assert_eq!(
                (d.channel, d.bank, d.row, d.col),
                (0, 2, 99, line as u32),
                "line {line}"
            );
        }
        // The plain interleave really would have spread those lines.
        assert_eq!(m.to_dram(3 * 8192 + 64).channel, 1);
    }

    #[test]
    #[should_panic(expected = "row 40000 out of range")]
    fn to_phys_validates() {
        let m = AddressMapper::new(Geometry::default(), MappingScheme::RowBankCol);
        let _ = m.to_phys(DramAddress::new(0, 40_000, 0));
    }

    #[test]
    #[should_panic(expected = "channel 1 out of range")]
    fn to_phys_validates_channel() {
        let m = AddressMapper::new(Geometry::default(), MappingScheme::RowBankCol);
        let _ = m.to_phys(DramAddress {
            channel: 1,
            ..DramAddress::new(0, 0, 0)
        });
    }
}
