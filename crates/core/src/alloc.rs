//! RowClone placement (paper §7.1), with one owner.
//!
//! FPM RowClone imposes four constraints on operands: row alignment, row
//! granularity, same-subarray placement, and coherence. This module solves
//! the placement half with an OS-style **row remapping** layer: workload
//! address ranges stay contiguous, but each virtual row is backed by a
//! physical row chosen by the allocator — source/destination rows of a copy
//! pair land in the same subarray, qualified by the paper's 1000-trial
//! clonability test; init regions get one pattern source row per subarray.
//!
//! [`RowCloneAllocator`] owns every part of that decision: the bump heap
//! that hands out addresses, the per-bank pools remapped rows come from,
//! the remap table, the qualified copy pairs and the init sources. It is
//! also the one decode of where an address lives
//! ([`RowCloneAllocator::decode`]): a remapped row, else the plain
//! [`AddressMapper`].
//!
//! **The heap/pool rule.** Pools are whole subarrays taken from the top of
//! each bank of channel 0, rank 0 (operands must share a subarray, so pools
//! never span channels or ranks); the heap's natural rows grow from the
//! bottom. The heap may only grow up to the address where natural rows
//! reach the lowest row any pool has handed out, and both RowClone paths
//! check after planning that the pools stayed clear of the heap. A natural
//! row is `addr / (row_bytes · total_banks)`: the mapping's row field sits
//! above its bank, column and channel fields.
//!
//! **Qualification looks a pair's class up once.** A candidate pair costs
//! one [`VariationModel::pair_class`], however many trials the test runs:
//! an `Always` pair passes and a `Never` pair fails without a draw, and
//! only a `Flaky` pair draws its trials, up to the first failure. The
//! trial nonce advances as if every trial ran: by `trials` on a pass, and
//! on a failure by the trials up to and including the first failed one.
//! So plans are the same as with one `rowclone_ok` call per trial.
//!
//! **A remap is one-to-one.** Every remap entry goes through
//! [`RowCloneAllocator::back`], which records the physical row it hands out
//! and panics if that row already backs a virtual row: two virtual rows on
//! one physical row would let a fallback CPU copy of one overwrite the clone
//! of the other.

use std::collections::{BTreeMap, BTreeSet};

use easydram_cpu::BumpAllocator;
use easydram_dram::{AddressMapper, DramAddress, Geometry, PairClass, VariationModel};

/// The allocator: owns the heap, the per-bank free-row pools, the remap
/// table and the qualification state. Ordered maps: they are written on the
/// cold allocation path only, and ordering keeps any traversal
/// deterministic by construction.
#[derive(Debug, Clone)]
pub(crate) struct RowCloneAllocator {
    /// The plain decode of every address no remap entry covers.
    mapper: AddressMapper,
    /// Channel 0, rank 0 of the system geometry: the bank array the pools
    /// live in.
    geometry: Geometry,
    trials: u32,
    row_bytes: u64,
    /// log2 of `row_bytes`: address `a` lies in virtual row
    /// `a >> row_shift`, the key of every remap entry.
    row_shift: u32,
    /// Bytes of one natural row across every bank of the system: heap
    /// address `a` lies in natural row `a / natural_row_bytes`.
    natural_row_bytes: u64,
    heap: BumpAllocator,
    /// Next free row at the top of each bank (descending allocation).
    /// Rows are handed out in whole subarrays.
    next_subarray_top: Vec<u32>,
    /// Round-robin cursor over banks.
    bank_cursor: usize,
    nonce: u64,
    /// Virtual row (`addr >> row_shift`) → backing `(bank, row)`.
    remap: BTreeMap<u64, (u32, u32)>,
    /// Every `(bank, row)` a remap entry backs: the image of `remap`.
    backed: BTreeSet<(u32, u32)>,
    /// Copy pairs `(src_vrow, dst_vrow)` that passed the trial test.
    clonable: BTreeSet<(u64, u64)>,
    /// Init destination vrow → pattern-source vrow, for the pairs that
    /// passed the trial test.
    init_sources: BTreeMap<u64, u64>,
}

/// A whole subarray of physical rows grabbed from a bank's pool.
#[derive(Debug, Clone, Copy)]
struct SubarrayBlock {
    bank: u32,
    first_row: u32,
}

impl RowCloneAllocator {
    /// Creates the allocator for the system `mapper` decodes, using
    /// `trials` qualification attempts per pair (the paper uses 1000).
    pub(crate) fn new(mapper: AddressMapper, trials: u32) -> Self {
        let geometry = mapper.geometry();
        let row_bytes = u64::from(geometry.row_bytes);
        let pools = Geometry {
            channels: 1,
            ranks: 1,
            ..geometry.clone()
        };
        Self {
            next_subarray_top: vec![pools.rows_per_bank; pools.banks() as usize],
            natural_row_bytes: row_bytes * u64::from(geometry.total_banks()),
            geometry: pools,
            mapper,
            trials: trials.max(1),
            row_bytes,
            row_shift: row_bytes.ilog2(),
            heap: BumpAllocator::new(),
            bank_cursor: 0,
            nonce: 0x5EED,
            remap: BTreeMap::new(),
            backed: BTreeSet::new(),
            clonable: BTreeSet::new(),
            init_sources: BTreeMap::new(),
        }
    }

    /// The plain (remap-unaware) decode.
    pub(crate) fn mapper(&self) -> &AddressMapper {
        &self.mapper
    }

    /// The virtual row of address `addr`.
    fn vrow(&self, addr: u64) -> u64 {
        addr >> self.row_shift
    }

    /// Where `phys` lives: virtual rows with a remap entry go to their
    /// remapped `(bank, row)` keeping the in-row column; every other
    /// address takes the plain decode.
    ///
    /// Remapped rows always live on **channel 0**: RowClone operands must
    /// share a subarray, so every remap pool sits in one channel's device
    /// and the remap entry overrides the channel interleave along with the
    /// bank/row decode.
    ///
    /// This is the one decode behind EasyAPI's `get_addr_mapping` (Table 2)
    /// and the tag the tile gives every request. It stays out of line, the
    /// shape the tile's posting path had when this decode lived in
    /// `easydram-dram`: inlined into `Tile::{read_line, post_write}`, it
    /// made `hammer_graphene` ops ~15% slower on a 2-vCPU x86-64 host.
    #[inline(never)]
    pub(crate) fn decode(&self, phys: u64) -> DramAddress {
        match self.remap.get(&self.vrow(phys)) {
            Some(&(bank, row)) => DramAddress {
                channel: 0,
                bank,
                row,
                col: ((phys & (self.row_bytes - 1)) >> 6) as u32,
            },
            None => self.mapper.to_dram(phys),
        }
    }

    /// Whether the controller may clone `src_addr`'s row onto
    /// `dst_addr`'s: a qualified copy pair, or an init destination with its
    /// source.
    pub(crate) fn qualified(&self, src_addr: u64, dst_addr: u64) -> bool {
        let (src, dst) = (self.vrow(src_addr), self.vrow(dst_addr));
        self.clonable.contains(&(src, dst)) || self.init_sources.get(&dst) == Some(&src)
    }

    /// The pattern source row of an init destination row, `None` when the
    /// row is no init destination or its pair failed qualification.
    pub(crate) fn init_source(&self, dst_addr: u64) -> Option<u64> {
        let src = self.init_sources.get(&self.vrow(dst_addr))?;
        Some(src << self.row_shift)
    }

    /// Allocates `bytes` at `align` from the heap.
    ///
    /// # Panics
    ///
    /// Panics with `allocation exceeds capacity` if the heap would reach
    /// the natural row of the lowest pool row handed out (the whole
    /// capacity while no pool is in use).
    pub(crate) fn alloc(&mut self, bytes: u64, align: u64) -> u64 {
        let capacity = u64::from(self.pool_floor()) * self.natural_row_bytes;
        self.heap.alloc(bytes, align, capacity)
    }

    /// Allocates a source/destination pair of `bytes` each, rows remapped
    /// into qualified same-subarray pairs. `None` when the pools are
    /// exhausted.
    ///
    /// # Panics
    ///
    /// Panics if the heap is full, or if the pools now reach the heap.
    pub(crate) fn alloc_copy(&mut self, var: &VariationModel, bytes: u64) -> Option<(u64, u64)> {
        let rb = self.row_bytes;
        let n_rows = bytes.div_ceil(rb);
        let src = self.alloc(n_rows * rb, rb);
        let dst = self.alloc(n_rows * rb, rb);
        self.plan_copy(var, n_rows, self.vrow(src), self.vrow(dst))?;
        self.assert_pools_clear_of_heap();
        Some((src, dst))
    }

    /// Allocates a `bytes`-long init destination plus one pattern source
    /// row per subarray used, returning `(dst_base, source_row_addrs)`.
    /// `None` when the pools are exhausted.
    ///
    /// # Panics
    ///
    /// Panics if the heap is full, or if the pools now reach the heap.
    pub(crate) fn alloc_init(
        &mut self,
        var: &VariationModel,
        bytes: u64,
    ) -> Option<(u64, Vec<u64>)> {
        let rb = self.row_bytes;
        let n_rows = bytes.div_ceil(rb);
        let blocks = n_rows.div_ceil(u64::from(self.geometry.subarray_rows) - 1);
        let dst = self.alloc(n_rows * rb, rb);
        let src = self.alloc(blocks * rb, rb);
        self.plan_init(var, n_rows, self.vrow(dst), self.vrow(src))?;
        self.assert_pools_clear_of_heap();
        Some((dst, (0..blocks).map(|b| src + b * rb).collect()))
    }

    /// The lowest row any pool has handed out, over every bank
    /// (`rows_per_bank` while no pool is in use).
    fn pool_floor(&self) -> u32 {
        let top = self.geometry.rows_per_bank;
        self.next_subarray_top.iter().copied().fold(top, u32::min)
    }

    /// The pools must stay above the heap's natural rows, with two rows to
    /// spare.
    fn assert_pools_clear_of_heap(&self) {
        let used = self.heap.cursor() / self.natural_row_bytes + 2;
        assert!(
            u64::from(self.pool_floor()) > used,
            "remap pool collided with heap"
        );
    }

    fn grab_subarray(&mut self) -> Option<SubarrayBlock> {
        let banks = self.geometry.banks() as usize;
        let sub = self.geometry.subarray_rows;
        for _ in 0..banks {
            let bank = self.bank_cursor;
            self.bank_cursor = (self.bank_cursor + 1) % banks;
            let top = self.next_subarray_top[bank];
            if top >= sub {
                let first = top - sub;
                self.next_subarray_top[bank] = first;
                return Some(SubarrayBlock {
                    bank: bank as u32,
                    first_row: first,
                });
            }
        }
        None
    }

    /// The paper's test (§7.1 "mapping problem"): the pair is clonable only
    /// if it never fails across `trials` RowClone copy operations.
    ///
    /// One class lookup per pair; only a `Flaky` pair draws, up to its
    /// first failure. The nonce advances by `trials` on a pass, and on a
    /// failure by the trials up to and including the first failed one.
    fn qualify(&mut self, var: &VariationModel, bank: u32, src: u32, dst: u32) -> bool {
        match var.pair_class(bank, src, dst) {
            PairClass::Always => {
                self.nonce += u64::from(self.trials);
                true
            }
            PairClass::Never => {
                self.nonce += 1;
                false
            }
            PairClass::Flaky { .. } => (0..self.trials).all(|_| {
                self.nonce += 1;
                var.rowclone_ok(bank, src, dst, self.nonce)
            }),
        }
    }

    /// Places a copy pair of `n_rows` rows each, with virtual regions
    /// starting at `src_vrow0` and `dst_vrow0`.
    ///
    /// Within each subarray block, the first half backs source rows and the
    /// allocator greedily matches each source with a tested-clonable
    /// destination row from the second half.
    ///
    /// Returns `None` when the physical pools are exhausted.
    fn plan_copy(
        &mut self,
        var: &VariationModel,
        n_rows: u64,
        src_vrow0: u64,
        dst_vrow0: u64,
    ) -> Option<()> {
        let half = u64::from(self.geometry.subarray_rows / 2);
        let mut i = 0u64;
        while i < n_rows {
            let block = self.grab_subarray()?;
            let in_block = half.min(n_rows - i);
            let mut dst_used = vec![false; half as usize];
            for j in 0..in_block {
                let src_row = block.first_row + j as u32;
                let slot_row = |k: usize| block.first_row + half as u32 + k as u32;
                // Greedy scan of the destination half for a qualified pair.
                let mut chosen = None;
                for (k, used) in dst_used.iter().enumerate() {
                    if !*used && self.qualify(var, block.bank, src_row, slot_row(k)) {
                        chosen = Some(k);
                        break;
                    }
                }
                let (src_vrow, dst_vrow) = (src_vrow0 + i + j, dst_vrow0 + i + j);
                if chosen.is_some() {
                    self.clonable.insert((src_vrow, dst_vrow));
                }
                // No qualified partner: take the aligned slot unless an
                // earlier source's scan owns it, else the first free one (a
                // block places at most `half` sources into `half` slots), and
                // fall back to CPU copies at run time.
                let k = chosen.unwrap_or_else(|| {
                    let aligned = j as usize;
                    if dst_used[aligned] {
                        let first_free = dst_used.iter().position(|used| !used);
                        first_free.expect("a block has a free slot per source")
                    } else {
                        aligned
                    }
                });
                let dst_row = slot_row(k);
                dst_used[k] = true;
                self.back(src_vrow, block.bank, src_row);
                self.back(dst_vrow, block.bank, dst_row);
            }
            i += in_block;
        }
        Some(())
    }

    /// Places an init region of `n_rows` destination rows starting at
    /// virtual row `dst_vrow0`, with pattern source rows at virtual rows
    /// `src_vrow0..`, one per subarray used.
    ///
    /// One source row is allocated per subarray used (paper §7.1: "we
    /// allocate one source row in each subarray"); of a few candidates, the
    /// one with the most qualified destinations wins.
    ///
    /// Returns `None` when the physical pools are exhausted.
    fn plan_init(
        &mut self,
        var: &VariationModel,
        n_rows: u64,
        dst_vrow0: u64,
        src_vrow0: u64,
    ) -> Option<()> {
        let sub = self.geometry.subarray_rows;
        let per_block = u64::from(sub) - 1;
        let mut i = 0u64;
        let mut src_vrow = src_vrow0;
        while i < n_rows {
            let block = self.grab_subarray()?;
            let in_block = per_block.min(n_rows - i);
            // Candidate source rows: a few spread across the subarray.
            let candidates = [0u32, sub / 2, sub - 1];
            let mut best: Option<(u32, Vec<bool>, usize)> = None;
            for &c in &candidates {
                let src_row = block.first_row + c;
                let ok: Vec<bool> = (0..in_block)
                    .map(|j| {
                        let dst_row = block.first_row + Self::dst_offset(c, j as u32);
                        self.qualify(var, block.bank, src_row, dst_row)
                    })
                    .collect();
                let score = ok.iter().filter(|&&b| b).count();
                if !best.as_ref().is_some_and(|b| b.2 >= score) {
                    best = Some((c, ok, score));
                }
            }
            let (src_off, ok, _) = best.expect("candidates is non-empty");
            self.back(src_vrow, block.bank, block.first_row + src_off);
            for j in 0..in_block {
                let dst_vrow = dst_vrow0 + i + j;
                let dst_row = block.first_row + Self::dst_offset(src_off, j as u32);
                self.back(dst_vrow, block.bank, dst_row);
                if ok[j as usize] {
                    self.init_sources.insert(dst_vrow, src_vrow);
                }
            }
            src_vrow += 1;
            i += in_block;
        }
        Some(())
    }

    /// Backs virtual row `vrow` with physical row `row` of `bank`: the one
    /// way a remap entry is made.
    ///
    /// # Panics
    ///
    /// Panics if `(bank, row)` already backs a virtual row, or if `vrow`
    /// already has a backing row.
    fn back(&mut self, vrow: u64, bank: u32, row: u32) {
        assert!(
            self.backed.insert((bank, row)),
            "bank {bank} row {row} already backs a virtual row"
        );
        assert!(
            self.remap.insert(vrow, (bank, row)).is_none(),
            "virtual row {vrow} is already remapped"
        );
    }

    /// The destination row offset for index `j` when the source occupies
    /// offset `src_off` (skips the source row).
    fn dst_offset(src_off: u32, j: u32) -> u32 {
        if j >= src_off {
            j + 1
        } else {
            j
        }
    }
}

#[cfg(test)]
impl RowCloneAllocator {
    /// Remaps virtual row `vrow` onto `(bank, row)`, as the planners do.
    pub(crate) fn remap_row(&mut self, vrow: u64, bank: u32, row: u32) {
        self.back(vrow, bank, row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easydram_dram::{DramConfig, MappingScheme, VariationConfig};
    use proptest::prelude::*;

    fn fixtures() -> (Geometry, VariationModel) {
        let cfg = DramConfig::small_for_tests();
        let var = VariationModel::new(cfg.variation.clone(), cfg.geometry.clone());
        (cfg.geometry, var)
    }

    fn allocator(geometry: &Geometry, trials: u32) -> RowCloneAllocator {
        let mapper = AddressMapper::new(geometry.clone(), MappingScheme::RowColBankXor);
        RowCloneAllocator::new(mapper, trials)
    }

    /// Every physical `(bank, row)` the remap table backs more than one
    /// virtual row with, with those virtual rows.
    fn shared_rows(a: &RowCloneAllocator) -> Vec<((u32, u32), Vec<u64>)> {
        let mut owners: BTreeMap<(u32, u32), Vec<u64>> = BTreeMap::new();
        for (&vrow, &phys) in &a.remap {
            owners.entry(phys).or_default().push(vrow);
        }
        owners.into_iter().filter(|(_, v)| v.len() > 1).collect()
    }

    /// A copy plan of `rows` pairs on the unit-test device at variation
    /// `seed`, qualified over `trials` trials.
    fn copy_plan(seed: u64, trials: u32, rows: u64) -> RowCloneAllocator {
        let mut cfg = DramConfig::small_for_tests();
        cfg.variation.seed = seed;
        let var = VariationModel::new(cfg.variation, cfg.geometry.clone());
        let mut a = allocator(&cfg.geometry, trials);
        a.plan_copy(&var, rows, 0, rows)
            .expect("pool not exhausted");
        a
    }

    /// An init plan of `rows` destination rows on the unit-test device at
    /// variation `seed`, qualified over `trials` trials.
    fn init_plan(seed: u64, trials: u32, rows: u64) -> RowCloneAllocator {
        let mut cfg = DramConfig::small_for_tests();
        cfg.variation.seed = seed;
        let var = VariationModel::new(cfg.variation, cfg.geometry.clone());
        let mut a = allocator(&cfg.geometry, trials);
        a.plan_init(&var, rows, 0, rows)
            .expect("pool not exhausted");
        a
    }

    /// The division-and-modulo remap decode the shift decode replaced, kept
    /// as the oracle: the virtual row is `phys / row_bytes`, the column
    /// `(phys % row_bytes) / 64`.
    fn div_decode(a: &RowCloneAllocator, phys: u64) -> DramAddress {
        let row_bytes = u64::from(a.mapper.geometry().row_bytes);
        match a.remap.get(&(phys / row_bytes)) {
            Some(&(bank, row)) => DramAddress {
                channel: 0,
                bank,
                row,
                col: ((phys % row_bytes) / easydram_dram::LINE_BYTES as u64) as u32,
            },
            None => a.mapper.to_dram(phys),
        }
    }

    /// The per-trial qualification the class lookup replaced, kept as the
    /// oracle: every trial takes the next nonce and asks
    /// `VariationModel::rowclone_ok`, until one fails.
    fn qualify_per_trial(
        var: &VariationModel,
        trials: u32,
        nonce: &mut u64,
        bank: u32,
        src: u32,
        dst: u32,
    ) -> bool {
        (0..trials).all(|_| {
            *nonce += 1;
            var.rowclone_ok(bank, src, dst, *nonce)
        })
    }

    /// Channels {1, 2, 4} × ranks {1, 2} over `bases`.
    fn spread(bases: &[Geometry]) -> Vec<Geometry> {
        let mut out = Vec::new();
        for base in bases {
            for (channels, ranks) in [(1, 1), (2, 1), (4, 1), (1, 2), (2, 2), (4, 2)] {
                out.push(Geometry {
                    channels,
                    ranks,
                    ..base.clone()
                });
            }
        }
        out
    }

    /// The default and the unit-test geometries, plus the model checker's
    /// two mini shapes (2 groups of 2 banks; 2 ranks of 2 single-bank
    /// groups, folded).
    fn oracle_geometries() -> Vec<Geometry> {
        let mini = Geometry {
            channels: 1,
            ranks: 1,
            bank_groups: 2,
            banks_per_group: 2,
            rows_per_bank: 4,
            row_bytes: 128,
            subarray_rows: 4,
        };
        let folded = Geometry {
            ranks: 2,
            banks_per_group: 1,
            ..mini.clone()
        }
        .per_channel();
        spread(&[
            Geometry::default(),
            DramConfig::small_for_tests().geometry,
            mini,
            folded,
        ])
    }

    proptest! {
        /// The shift decode is the division decode on every geometry above:
        /// addresses inside the capacity, beyond it (the wrap) and up to
        /// `u64::MAX`, with no remap, with entries on both sides of the
        /// probed row, and with the probed row itself remapped.
        #[test]
        fn remapped_decode_matches_the_division_decode(
            raw in any::<u64>(),
            target in (0u32..4, 0u32..4),
        ) {
            for geometry in oracle_geometries() {
                let cap = geometry.capacity_bytes();
                let row_bytes = u64::from(geometry.row_bytes);
                for phys in [raw % cap, cap + raw % cap, raw, u64::MAX - raw % 128, u64::MAX] {
                    let mut a = allocator(&geometry, 1);
                    let d = a.mapper.to_dram(phys);
                    let vrow = phys / row_bytes;
                    let plain = a.decode(phys);
                    a.remap.insert(vrow.wrapping_sub(1), (target.1, target.0));
                    a.remap.insert(vrow.wrapping_add(1), (target.0, target.1));
                    let beside = a.decode(phys);
                    prop_assert_eq!(beside, div_decode(&a, phys));
                    prop_assert_eq!((plain, beside), (d, d), "{:?} {:#x}", geometry, phys);
                    a.remap.insert(vrow, target);
                    let on = a.decode(phys);
                    prop_assert_eq!(on, div_decode(&a, phys));
                    prop_assert_eq!((on.channel, on.bank, on.row), (0, target.0, target.1));
                }
            }
        }

        /// The remap-aware decode agrees with the plain decode off-table and
        /// pins remapped virtual rows to channel 0 with the in-row column
        /// kept, on every multi-channel geometry.
        #[test]
        fn remapped_decode_round_trips(
            ch_idx in 0usize..3,
            vrow in 0u64..4096,
            col in 0u32..128,
            bank in 0u32..16,
            row in 0u32..32_768,
        ) {
            let channels = [1u32, 2, 4][ch_idx];
            let mut a = allocator(&Geometry { channels, ..Geometry::default() }, 1);
            a.remap.insert(vrow, (bank, row));
            let phys = vrow * 8192 + u64::from(col) * 64;
            let d = a.decode(phys);
            prop_assert_eq!((d.channel, d.bank, d.row, d.col), (0, bank, row, col));
            // One row over is off-table: the plain decode decides.
            let other = (vrow + 1) * 8192 + u64::from(col) * 64;
            prop_assert_eq!(a.decode(other), a.mapper.to_dram(other));
        }

        /// One class lookup gives the per-trial loop's verdict and leaves
        /// the nonce where the loop leaves it, for any seed and bank, with
        /// variation on and off, on 16 destinations of the source's
        /// subarray (the source itself among them when the window holds
        /// it) and one anywhere in the bank, for 1-1,000 trials from any
        /// starting nonce.
        #[test]
        fn qualify_matches_the_per_trial_loop(
            seed in any::<u64>(),
            enabled in any::<bool>(),
            bank in 0u32..16,
            src in 0u32..32_768,
            window in 0u32..512,
            far in 0u32..32_768,
            trials in 1u32..=1_000,
            nonce in 0u64..u64::MAX / 2,
        ) {
            let geometry = Geometry::default();
            let variation = VariationConfig { seed, enabled, ..VariationConfig::default() };
            let var = VariationModel::new(variation, geometry.clone());
            let base = src - src % geometry.subarray_rows;
            let near = (0..16).map(|k| base + (window + k) % geometry.subarray_rows);
            for dst in near.chain([far]) {
                let mut a = allocator(&geometry, trials);
                a.nonce = nonce;
                let mut expected = nonce;
                let oracle = qualify_per_trial(&var, trials, &mut expected, bank, src, dst);
                prop_assert_eq!(
                    (a.qualify(&var, bank, src, dst), a.nonce),
                    (oracle, expected),
                    "{:?} bank {} {} -> {}", var.pair_class(bank, src, dst), bank, src, dst
                );
            }
        }

        /// A copy plan backs distinct virtual rows with distinct physical
        /// rows, whichever sources find no qualified partner: a source that
        /// falls back must not take a destination slot an earlier source's
        /// scan already owns.
        #[test]
        fn copy_plans_are_one_to_one(
            seed in any::<u64>(),
            trials in 1u32..=1_000,
            rows in 1u64..=512,
        ) {
            let a = copy_plan(seed, trials, rows);
            prop_assert_eq!(a.remap.len() as u64, 2 * rows);
            prop_assert_eq!(shared_rows(&a), Vec::new(), "seed {} trials {} rows {}", seed, trials, rows);
        }

        /// An init plan backs distinct virtual rows with distinct physical
        /// rows: each block's destinations skip its source row, and no two
        /// blocks share a subarray.
        #[test]
        fn init_plans_are_one_to_one(
            seed in any::<u64>(),
            trials in 1u32..=1_000,
            rows in 1u64..=512,
        ) {
            let a = init_plan(seed, trials, rows);
            let per_block = u64::from(DramConfig::small_for_tests().geometry.subarray_rows) - 1;
            prop_assert_eq!(a.remap.len() as u64, rows + rows.div_ceil(per_block));
            prop_assert_eq!(shared_rows(&a), Vec::new(), "seed {} trials {} rows {}", seed, trials, rows);
        }

        /// The heap/pool rule's premise: every heap address below the
        /// capacity lies in DRAM row `a / natural_row_bytes` of whatever
        /// bank and channel the mapping picks, on the default and the
        /// unit-test geometries with channels {1, 2, 4} × ranks {1, 2}.
        #[test]
        fn heap_addresses_lie_in_their_natural_row(raw in any::<u64>()) {
            for geometry in spread(&[Geometry::default(), DramConfig::small_for_tests().geometry]) {
                let a = allocator(&geometry, 1);
                let addr = raw % geometry.capacity_bytes();
                prop_assert_eq!(
                    u64::from(a.mapper.to_dram(addr).row),
                    addr / a.natural_row_bytes,
                    "{:?} {:#x}", geometry, addr
                );
            }
        }
    }

    #[test]
    fn remapped_rows_override_the_scheme() {
        let mut a = allocator(&Geometry::default(), 1);
        a.remap.insert(0, (1, 77)); // virtual row 0 -> bank 1 row 77
        let d = a.decode(128); // third line of virtual row 0
        assert_eq!((d.bank, d.row, d.col), (1, 77, 2));
        // Unmapped rows fall through to the plain mapper.
        let far = 10 * u64::from(Geometry::default().row_bytes);
        assert_eq!(a.decode(far), a.mapper.to_dram(far));
    }

    #[test]
    fn remapped_rows_pin_channel_zero() {
        let geometry = Geometry {
            channels: 4,
            ..Geometry::default()
        };
        let mut a = allocator(&geometry, 1);
        a.remap.insert(3, (2, 99));
        // Every line of the remapped virtual row decodes to channel 0, even
        // though the plain interleave would spread the lines across channels.
        for line in 0..4u64 {
            let d = a.decode(3 * 8192 + line * 64);
            assert_eq!(
                (d.channel, d.bank, d.row, d.col),
                (0, 2, 99, line as u32),
                "line {line}"
            );
        }
        // The plain interleave really would have spread those lines.
        assert_eq!(a.mapper.to_dram(3 * 8192 + 64).channel, 1);
    }

    #[test]
    fn copy_plan_pairs_are_same_subarray() {
        let (geo, var) = fixtures();
        let mut a = allocator(&geo, 100);
        let n = 100;
        a.plan_copy(&var, n, 0, n).expect("pool not exhausted");
        assert_eq!(a.remap.len() as u64, 2 * n);
        for i in 0..n {
            let (sb, sr) = a.remap[&i];
            let (db, dr) = a.remap[&(n + i)];
            assert_eq!(sb, db, "pair {i} crosses banks");
            assert_eq!(
                geo.subarray_of(sr),
                geo.subarray_of(dr),
                "pair {i} crosses subarrays"
            );
            assert_ne!(sr, dr);
        }
    }

    /// A known case of a fallback source landing on a slot an earlier
    /// source had qualified: two virtual rows on one physical row,
    /// so the fallback CPU copy of one overwrites the clone of the other.
    #[test]
    fn seed_1_copy_plan_is_one_to_one() {
        let a = copy_plan(1, 100, 512);
        assert_eq!(shared_rows(&a), Vec::new());
    }

    /// Paper scale on the default device, where Figs. 10 and 11 lost
    /// rows at variation seeds 1 and 42 before plans were one-to-one: a
    /// 2,048-row (16 MiB) copy plan and a 2,048-row init plan on one
    /// allocator, qualified over the paper's 1,000 trials.
    #[test]
    fn paper_scale_plans_are_one_to_one_at_seeds_1_and_42() {
        let rows = 2_048;
        for seed in [1, 42] {
            let mut cfg = DramConfig::default();
            cfg.variation.seed = seed;
            let a = plans(&cfg, 1_000, rows);
            let sources = rows.div_ceil(u64::from(cfg.geometry.subarray_rows) - 1);
            assert_eq!(a.remap.len() as u64, 3 * rows + sources, "seed {seed}");
            assert_eq!(shared_rows(&a), Vec::new(), "seed {seed}");
        }
    }

    #[test]
    fn copy_plan_mostly_clonable() {
        let (geo, var) = fixtures();
        let mut a = allocator(&geo, 100);
        a.plan_copy(&var, 120, 0, 120).unwrap();
        let ok = a.clonable.len();
        assert!(
            ok * 10 >= 120 * 8,
            "greedy matching should qualify most pairs: {ok}/120"
        );
    }

    #[test]
    fn clonable_pairs_really_pass_trials() {
        let (geo, var) = fixtures();
        let mut a = allocator(&geo, 100);
        let n = 40;
        a.plan_copy(&var, n, 0, n).unwrap();
        assert!(!a.clonable.is_empty());
        for &(src, dst) in &a.clonable {
            assert_eq!(dst, n + src, "pairs keep their row index");
            let (b, sr) = a.remap[&src];
            let (_, dr) = a.remap[&dst];
            // Re-test with fresh nonces: overwhelmingly reliable.
            let fails = (0..200)
                .filter(|&t| !var.rowclone_ok(b, sr, dr, 1_000_000 + t))
                .count();
            assert!(fails <= 2, "qualified pair {src} failed {fails}/200 trials");
        }
    }

    #[test]
    fn init_plan_sources_cover_destinations() {
        let (geo, var) = fixtures();
        let mut a = allocator(&geo, 100);
        let n = 200;
        a.plan_init(&var, n, 0, 10_000).unwrap();
        let mut fallback = 0;
        for j in 0..n {
            let (db, dr) = a.remap[&j];
            match a.init_sources.get(&j) {
                Some(s) => {
                    let (sb, sr) = a.remap[s];
                    assert_eq!(sb, db);
                    assert_eq!(geo.subarray_of(sr), geo.subarray_of(dr));
                    assert_ne!(sr, dr, "source must differ from destination");
                }
                None => fallback += 1,
            }
        }
        assert!(
            fallback < n as usize / 2,
            "most rows should be initializable: {fallback}"
        );
        assert!(fallback > 0, "real chips leave some rows unclonable");
    }

    #[test]
    fn ideal_variation_qualifies_everything() {
        let cfg = DramConfig::small_for_tests();
        let var = VariationModel::new(VariationConfig::ideal(), cfg.geometry.clone());
        let mut a = allocator(&cfg.geometry, 10);
        a.plan_copy(&var, 50, 0, 50).unwrap();
        assert!((0..50).all(|i| a.clonable.contains(&(i, 50 + i))));
        a.plan_init(&var, 50, 100, 10_000).unwrap();
        assert!((100..150).all(|j| a.init_sources.contains_key(&j)));
    }

    #[test]
    fn pool_exhaustion_returns_none() {
        let (geo, var) = fixtures();
        let total_rows = u64::from(geo.rows_per_bank) * u64::from(geo.banks());
        let mut a = allocator(&geo, 1);
        // Ask for far more pairs than the device holds.
        assert!(a.plan_copy(&var, total_rows, 0, total_rows).is_none());
    }

    #[test]
    fn pools_shrink_monotonically() {
        let (geo, var) = fixtures();
        let mut a = allocator(&geo, 10);
        let before: u32 = a.next_subarray_top.iter().sum();
        a.plan_copy(&var, 64, 0, 64).unwrap();
        let after: u32 = a.next_subarray_top.iter().sum();
        assert!(after < before);
    }

    #[test]
    fn dst_offset_skips_source() {
        assert_eq!(RowCloneAllocator::dst_offset(0, 0), 1);
        assert_eq!(RowCloneAllocator::dst_offset(3, 2), 2);
        assert_eq!(RowCloneAllocator::dst_offset(3, 3), 4);
    }

    /// FNV-1a of `x`'s little-endian bytes, folded into `d`.
    fn fold(d: &mut u64, x: u64) {
        for b in x.to_le_bytes() {
            *d = (*d ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Everything a plan decides: the remap table, the qualified copy
    /// pairs, the init sources and the nonce qualification ended on.
    fn fold_plans(d: &mut u64, a: &RowCloneAllocator) {
        for (&vrow, &(bank, row)) in &a.remap {
            for x in [vrow, u64::from(bank), u64::from(row)] {
                fold(d, x);
            }
        }
        for &(src, dst) in &a.clonable {
            fold(d, src);
            fold(d, dst);
        }
        for (&dst, &src) in &a.init_sources {
            fold(d, dst);
            fold(d, src);
        }
        for x in [a.remap.len(), a.clonable.len(), a.init_sources.len()] {
            fold(d, x as u64);
        }
        fold(d, a.nonce);
    }

    /// A copy plan, then an init plan on the same allocator, so the second
    /// qualifies from the nonce the first ended on.
    fn plans(cfg: &DramConfig, trials: u32, rows: u64) -> RowCloneAllocator {
        let var = VariationModel::new(cfg.variation.clone(), cfg.geometry.clone());
        let mut a = allocator(&cfg.geometry, trials);
        a.plan_copy(&var, rows, 0, rows)
            .expect("pool not exhausted");
        a.plan_init(&var, rows, 2 * rows, 3 * rows)
            .expect("pool not exhausted");
        a
    }

    /// Copy and init plans across variation seeds (and variation off),
    /// trial counts and sizes, on the unit-test device and at 1,000 trials
    /// on the default one. Recorded before qualification asked for a
    /// pair's class once instead of once per trial.
    const PLAN_DIGEST: u64 = 0x9377_DA2B_BC94_28F7;

    #[test]
    fn plans_match_the_recorded_digest() {
        let mut d = 0xCBF2_9CE4_8422_2325;
        let small = DramConfig::small_for_tests();
        let seeds = [small.variation.seed, 1, 42, 0xDEAD_BEEF];
        let mut variations: Vec<VariationConfig> = seeds
            .iter()
            .map(|&seed| VariationConfig {
                seed,
                ..VariationConfig::default()
            })
            .collect();
        variations.push(VariationConfig::ideal());
        for variation in &variations {
            let cfg = DramConfig {
                variation: variation.clone(),
                ..small.clone()
            };
            for trials in [1, 2, 10, 100, 1_000] {
                for rows in [1, 64, 200, 512] {
                    fold_plans(&mut d, &plans(&cfg, trials, rows));
                }
            }
        }
        for seed in [1, 42] {
            let mut cfg = DramConfig::default();
            cfg.variation.seed = seed;
            fold_plans(&mut d, &plans(&cfg, 1_000, 700));
        }
        assert_eq!(d, PLAN_DIGEST, "{d:#018x}");
    }

    #[test]
    fn heap_spans_the_capacity_while_no_pool_is_in_use() {
        let (geo, _) = fixtures();
        let mut a = allocator(&geo, 1);
        let base = a.alloc(1, 0);
        a.alloc(geo.capacity_bytes() - base - 2, 0);
    }
}
