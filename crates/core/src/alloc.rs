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
//! the remap table, the qualified copy pairs and the init sources.
//!
//! **The heap/pool rule.** Pools are whole subarrays taken from the top of
//! each bank of channel 0, rank 0 (operands must share a subarray, so pools
//! never span channels or ranks); the heap's natural rows grow from the
//! bottom. The heap may only grow up to the address where natural rows
//! reach the lowest row any pool has handed out, and both RowClone paths
//! check after planning that the pools stayed clear of the heap. A natural
//! row is `addr / (row_bytes · total_banks)`, which holds for every mapping
//! scheme whose row field sits above the bank, column and channel fields —
//! every scheme but `MappingScheme::BankRowCol`, which the rule does not
//! cover.

use std::collections::{BTreeMap, BTreeSet};

use easydram_cpu::BumpAllocator;
use easydram_dram::{Geometry, VariationModel};

/// The allocator: owns the heap, the per-bank free-row pools, the remap
/// table and the qualification state. Ordered maps: they are written on the
/// cold allocation path only, and ordering keeps any traversal
/// deterministic by construction.
#[derive(Debug, Clone)]
pub(crate) struct RowCloneAllocator {
    /// Channel 0, rank 0 of the system geometry: the bank array the pools
    /// live in.
    geometry: Geometry,
    trials: u32,
    row_bytes: u64,
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
    /// Virtual row (`addr / row_bytes`) → backing `(bank, row)`.
    remap: BTreeMap<u64, (u32, u32)>,
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
    /// Creates the allocator for a system of `geometry` using `trials`
    /// qualification attempts per pair (the paper uses 1000).
    pub(crate) fn new(geometry: &Geometry, trials: u32) -> Self {
        let row_bytes = u64::from(geometry.row_bytes);
        let pools = Geometry {
            channels: 1,
            ranks: 1,
            ..geometry.clone()
        };
        Self {
            next_subarray_top: vec![pools.rows_per_bank; pools.banks() as usize],
            geometry: pools,
            trials: trials.max(1),
            row_bytes,
            natural_row_bytes: row_bytes * u64::from(geometry.total_banks()),
            heap: BumpAllocator::new(),
            bank_cursor: 0,
            nonce: 0x5EED,
            remap: BTreeMap::new(),
            clonable: BTreeSet::new(),
            init_sources: BTreeMap::new(),
        }
    }

    /// The remap table the tile decodes through.
    pub(crate) fn remap(&self) -> &BTreeMap<u64, (u32, u32)> {
        &self.remap
    }

    /// Whether the controller may clone `src_addr`'s row onto
    /// `dst_addr`'s: a qualified copy pair, or an init destination with its
    /// source.
    pub(crate) fn qualified(&self, src_addr: u64, dst_addr: u64) -> bool {
        let (src, dst) = (src_addr / self.row_bytes, dst_addr / self.row_bytes);
        self.clonable.contains(&(src, dst)) || self.init_sources.get(&dst) == Some(&src)
    }

    /// The pattern source row of an init destination row, `None` when the
    /// row is no init destination or its pair failed qualification.
    pub(crate) fn init_source(&self, dst_addr: u64) -> Option<u64> {
        let src = self.init_sources.get(&(dst_addr / self.row_bytes))?;
        Some(src * self.row_bytes)
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
        self.plan_copy(var, n_rows, src / rb, dst / rb)?;
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
        self.plan_init(var, n_rows, dst / rb, src / rb)?;
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

    fn qualify(&mut self, var: &VariationModel, bank: u32, src: u32, dst: u32) -> bool {
        // The paper's test: the pair is clonable only if it never fails
        // across `trials` RowClone copy operations (§7.1 "mapping problem").
        (0..self.trials).all(|_| {
            self.nonce += 1;
            var.rowclone_ok(bank, src, dst, self.nonce)
        })
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
                // Greedy scan of the destination half for a qualified pair.
                let mut chosen = None;
                for (k, used) in dst_used.iter().enumerate() {
                    if *used {
                        continue;
                    }
                    let dst_row = block.first_row + half as u32 + k as u32;
                    if self.qualify(var, block.bank, src_row, dst_row) {
                        chosen = Some((k, dst_row));
                        break;
                    }
                }
                let (src_vrow, dst_vrow) = (src_vrow0 + i + j, dst_vrow0 + i + j);
                if chosen.is_some() {
                    self.clonable.insert((src_vrow, dst_vrow));
                }
                // No qualified partner: take the aligned slot, fall back to
                // CPU copies at run time.
                let (k, dst_row) =
                    chosen.unwrap_or((j as usize, block.first_row + half as u32 + j as u32));
                dst_used[k] = true;
                self.remap.insert(src_vrow, (block.bank, src_row));
                self.remap.insert(dst_vrow, (block.bank, dst_row));
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
            self.remap
                .insert(src_vrow, (block.bank, block.first_row + src_off));
            for j in 0..in_block {
                let dst_vrow = dst_vrow0 + i + j;
                let dst_row = block.first_row + Self::dst_offset(src_off, j as u32);
                self.remap.insert(dst_vrow, (block.bank, dst_row));
                if ok[j as usize] {
                    self.init_sources.insert(dst_vrow, src_vrow);
                }
            }
            src_vrow += 1;
            i += in_block;
        }
        Some(())
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
mod tests {
    use super::*;
    use easydram_dram::{DramConfig, VariationConfig};

    fn fixtures() -> (Geometry, VariationModel) {
        let cfg = DramConfig::small_for_tests();
        let var = VariationModel::new(cfg.variation.clone(), cfg.geometry.clone());
        (cfg.geometry, var)
    }

    #[test]
    fn copy_plan_pairs_are_same_subarray() {
        let (geo, var) = fixtures();
        let mut a = RowCloneAllocator::new(&geo, 100);
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

    #[test]
    fn copy_plan_mostly_clonable() {
        let (geo, var) = fixtures();
        let mut a = RowCloneAllocator::new(&geo, 100);
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
        let mut a = RowCloneAllocator::new(&geo, 100);
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
        let mut a = RowCloneAllocator::new(&geo, 100);
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
        let mut a = RowCloneAllocator::new(&cfg.geometry, 10);
        a.plan_copy(&var, 50, 0, 50).unwrap();
        assert!((0..50).all(|i| a.clonable.contains(&(i, 50 + i))));
        a.plan_init(&var, 50, 100, 10_000).unwrap();
        assert!((100..150).all(|j| a.init_sources.contains_key(&j)));
    }

    #[test]
    fn pool_exhaustion_returns_none() {
        let (geo, var) = fixtures();
        let total_rows = u64::from(geo.rows_per_bank) * u64::from(geo.banks());
        let mut a = RowCloneAllocator::new(&geo, 1);
        // Ask for far more pairs than the device holds.
        assert!(a.plan_copy(&var, total_rows, 0, total_rows).is_none());
    }

    #[test]
    fn pools_shrink_monotonically() {
        let (geo, var) = fixtures();
        let mut a = RowCloneAllocator::new(&geo, 10);
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

    #[test]
    fn heap_spans_the_capacity_while_no_pool_is_in_use() {
        let (geo, _) = fixtures();
        let mut a = RowCloneAllocator::new(&geo, 1);
        let base = a.alloc(1, 0);
        a.alloc(geo.capacity_bytes() - base - 2, 0);
    }
}
