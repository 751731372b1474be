//! RowClone-aware memory allocation (paper §7.1).
//!
//! FPM RowClone imposes four constraints on operands: row alignment, row
//! granularity, same-subarray placement, and coherence. This module solves
//! the placement half with an OS-style **row remapping** layer: workload
//! address ranges stay contiguous, but each virtual row is backed by a
//! physical row chosen by the allocator — source/destination rows of a copy
//! pair land in the same subarray, qualified by the paper's 1000-trial
//! clonability test; init regions get one pattern source row per subarray.
//!
//! Physical rows for remapping are taken from the top of each bank, far
//! above the rows the natural (bump-allocated) address range ever touches.

use std::collections::BTreeMap;

use easydram_dram::{Geometry, VariationModel};

/// A remap entry: virtual row → physical `(bank, row)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemapEntry {
    /// Virtual row index (`addr / row_bytes`).
    pub vrow: u64,
    /// Backing bank.
    pub bank: u32,
    /// Backing row.
    pub row: u32,
}

/// Result of a copy-pair allocation.
#[derive(Debug, Clone, Default)]
pub struct CopyPlan {
    /// Remap entries for both regions.
    pub remaps: Vec<RemapEntry>,
    /// Per row-index: whether the (src, dst) pair passed the trial test.
    pub clonable: Vec<bool>,
}

/// Result of an init-region allocation.
#[derive(Debug, Clone, Default)]
pub struct InitPlan {
    /// Remap entries for destination and source rows.
    pub remaps: Vec<RemapEntry>,
    /// Virtual row of the pattern source for each destination row index,
    /// `None` when the pair failed qualification (CPU fallback).
    pub sources: Vec<Option<u64>>,
    /// Virtual rows holding the pattern sources (one per subarray used).
    pub source_vrows: Vec<u64>,
}

/// The allocator: owns the per-bank free-row pools and qualification state.
#[derive(Debug, Clone)]
pub struct RowCloneAllocator {
    geometry: Geometry,
    trials: u32,
    /// Next free row at the top of each bank (descending allocation).
    /// Rows are handed out in whole subarrays.
    next_subarray_top: Vec<u32>,
    /// Round-robin cursor over banks.
    bank_cursor: usize,
    nonce: u64,
}

/// A whole subarray of physical rows grabbed from a bank's pool.
#[derive(Debug, Clone, Copy)]
struct SubarrayBlock {
    bank: u32,
    first_row: u32,
}

impl RowCloneAllocator {
    /// Creates an allocator for the given geometry using `trials`
    /// qualification attempts per pair (the paper uses 1000).
    #[must_use]
    pub fn new(geometry: Geometry, trials: u32) -> Self {
        let banks = geometry.banks() as usize;
        let top = geometry.rows_per_bank;
        Self {
            geometry,
            trials: trials.max(1),
            next_subarray_top: vec![top; banks],
            bank_cursor: 0,
            nonce: 0x5EED,
        }
    }

    /// Rows still available for remapping in `bank`.
    #[must_use]
    pub fn free_rows(&self, bank: u32) -> u32 {
        self.next_subarray_top[bank as usize]
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

    /// Plans a copy-pair allocation of `n_rows` rows each, with virtual
    /// regions starting at `src_vrow0` and `dst_vrow0`.
    ///
    /// Within each subarray block, the first half backs source rows and the
    /// allocator greedily matches each source with a tested-clonable
    /// destination row from the second half.
    ///
    /// Returns `None` when the physical pools are exhausted.
    #[must_use]
    pub fn plan_copy(
        &mut self,
        var: &VariationModel,
        n_rows: u64,
        src_vrow0: u64,
        dst_vrow0: u64,
    ) -> Option<CopyPlan> {
        let half = u64::from(self.geometry.subarray_rows / 2);
        let mut plan = CopyPlan::default();
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
                        chosen = Some((k, dst_row, true));
                        break;
                    }
                }
                let (k, dst_row, clonable) = chosen.unwrap_or_else(|| {
                    // No qualified partner: take the aligned slot, fall back
                    // to CPU copies at run time.
                    let k = j as usize;
                    (k, block.first_row + half as u32 + j as u32, false)
                });
                dst_used[k] = true;
                plan.remaps.push(RemapEntry {
                    vrow: src_vrow0 + i + j,
                    bank: block.bank,
                    row: src_row,
                });
                plan.remaps.push(RemapEntry {
                    vrow: dst_vrow0 + i + j,
                    bank: block.bank,
                    row: dst_row,
                });
                plan.clonable.push(clonable);
            }
            i += in_block;
        }
        Some(plan)
    }

    /// Plans an init-region allocation of `n_rows` destination rows starting
    /// at virtual row `dst_vrow0`, with pattern source rows placed at
    /// virtual rows `src_vrow0..`.
    ///
    /// One source row is allocated per subarray used (paper §7.1: "we
    /// allocate one source row in each subarray"); of a few candidates, the
    /// one with the most qualified destinations wins.
    ///
    /// Returns `None` when the physical pools are exhausted.
    #[must_use]
    pub fn plan_init(
        &mut self,
        var: &VariationModel,
        n_rows: u64,
        dst_vrow0: u64,
        src_vrow0: u64,
    ) -> Option<InitPlan> {
        let per_block = u64::from(self.geometry.subarray_rows) - 1;
        let mut plan = InitPlan::default();
        let mut i = 0u64;
        let mut src_cursor = src_vrow0;
        while i < n_rows {
            let block = self.grab_subarray()?;
            let in_block = per_block.min(n_rows - i);
            let sub = self.geometry.subarray_rows;
            // Candidate source rows: a few spread across the subarray.
            let candidates = [0u32, sub / 2, sub - 1];
            let mut best: Option<(u32, Vec<bool>)> = None;
            for &c in &candidates {
                let src_row = block.first_row + c;
                let ok: Vec<bool> = (0..in_block)
                    .map(|j| {
                        let dst_row = block.first_row + Self::dst_offset(c, j as u32);
                        self.qualify(var, block.bank, src_row, dst_row)
                    })
                    .collect();
                let score = ok.iter().filter(|&&b| b).count();
                let better = match &best {
                    None => true,
                    Some((_, bok)) => score > bok.iter().filter(|&&b| b).count(),
                };
                if better {
                    best = Some((c, ok));
                }
            }
            let (src_off, ok) = best.expect("candidates is non-empty");
            let src_row = block.first_row + src_off;
            let src_vrow = src_cursor;
            src_cursor += 1;
            plan.remaps.push(RemapEntry {
                vrow: src_vrow,
                bank: block.bank,
                row: src_row,
            });
            plan.source_vrows.push(src_vrow);
            for j in 0..in_block {
                let dst_row = block.first_row + Self::dst_offset(src_off, j as u32);
                plan.remaps.push(RemapEntry {
                    vrow: dst_vrow0 + i + j,
                    bank: block.bank,
                    row: dst_row,
                });
                plan.sources.push(ok[j as usize].then_some(src_vrow));
            }
            i += in_block;
        }
        Some(plan)
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

/// Builds a remap lookup from plan entries. Ordered map: remaps are
/// installed on the cold allocation path, and an ordered structure keeps
/// any traversal of remap state deterministic by construction.
#[must_use]
pub fn remap_table(entries: &[RemapEntry]) -> BTreeMap<u64, (u32, u32)> {
    entries.iter().map(|e| (e.vrow, (e.bank, e.row))).collect()
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
        let mut a = RowCloneAllocator::new(geo.clone(), 100);
        let n = 100;
        let plan = a.plan_copy(&var, n, 0, n).expect("pool not exhausted");
        assert_eq!(plan.clonable.len() as u64, n);
        let table = remap_table(&plan.remaps);
        for i in 0..n {
            let (sb, sr) = table[&i];
            let (db, dr) = table[&(n + i)];
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
        let mut a = RowCloneAllocator::new(geo, 100);
        let plan = a.plan_copy(&var, 120, 0, 120).unwrap();
        let ok = plan.clonable.iter().filter(|&&c| c).count();
        assert!(
            ok * 10 >= plan.clonable.len() * 8,
            "greedy matching should qualify most pairs: {ok}/{}",
            plan.clonable.len()
        );
    }

    #[test]
    fn clonable_pairs_really_pass_trials() {
        let (geo, var) = fixtures();
        let mut a = RowCloneAllocator::new(geo, 100);
        let n = 40;
        let plan = a.plan_copy(&var, n, 0, n).unwrap();
        let table = remap_table(&plan.remaps);
        for i in 0..n {
            if plan.clonable[i as usize] {
                let (b, sr) = table[&i];
                let (_, dr) = table[&(n + i)];
                // Re-test with fresh nonces: overwhelmingly reliable.
                let fails = (0..200)
                    .filter(|&t| !var.rowclone_ok(b, sr, dr, 1_000_000 + t))
                    .count();
                assert!(fails <= 2, "qualified pair {i} failed {fails}/200 trials");
            }
        }
    }

    #[test]
    fn init_plan_sources_cover_destinations() {
        let (geo, var) = fixtures();
        let mut a = RowCloneAllocator::new(geo.clone(), 100);
        let n = 200;
        let plan = a.plan_init(&var, n, 0, 10_000).unwrap();
        assert_eq!(plan.sources.len() as u64, n);
        let table = remap_table(&plan.remaps);
        let mut fallback = 0;
        for (j, src) in plan.sources.iter().enumerate() {
            match src {
                Some(s) => {
                    let (sb, sr) = table[s];
                    let (db, dr) = table[&(j as u64)];
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
        let mut a = RowCloneAllocator::new(cfg.geometry, 10);
        let plan = a.plan_copy(&var, 50, 0, 50).unwrap();
        assert!(plan.clonable.iter().all(|&c| c));
        let plan = a.plan_init(&var, 50, 100, 10_000).unwrap();
        assert!(plan.sources.iter().all(Option::is_some));
    }

    #[test]
    fn pool_exhaustion_returns_none() {
        let (geo, var) = fixtures();
        let total_rows = u64::from(geo.rows_per_bank) * u64::from(geo.banks());
        let mut a = RowCloneAllocator::new(geo, 1);
        // Ask for far more pairs than the device holds.
        assert!(a.plan_copy(&var, total_rows, 0, total_rows).is_none());
    }

    #[test]
    fn pools_shrink_monotonically() {
        let (geo, var) = fixtures();
        let mut a = RowCloneAllocator::new(geo.clone(), 10);
        let before: u32 = (0..geo.banks()).map(|b| a.free_rows(b)).sum();
        let _ = a.plan_copy(&var, 64, 0, 64).unwrap();
        let after: u32 = (0..geo.banks()).map(|b| a.free_rows(b)).sum();
        assert!(after < before);
    }

    #[test]
    fn dst_offset_skips_source() {
        assert_eq!(RowCloneAllocator::dst_offset(0, 0), 1);
        assert_eq!(RowCloneAllocator::dst_offset(3, 2), 2);
        assert_eq!(RowCloneAllocator::dst_offset(3, 3), 4);
    }
}
