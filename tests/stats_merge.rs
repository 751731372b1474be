//! Permutation and window-additivity proofs for the stats merges.
//!
//! Every serve pass folds per-lane [`SmcStats`] / [`ChannelStats`] /
//! [`RequestorStats`] shards into the tile totals. Those merges must be
//! order-invariant: commutative and associative over any sharding of the
//! same activity, so a total never depends on how the work was split.
//! These tests generate random shards, reduce them in the original order,
//! in a random permutation, and as a pairwise tree, and assert all three
//! reductions agree — including the `peak_batch` field, which is a maximum
//! rather than a sum and would silently fabricate batch sizes if merged
//! additively.

use proptest::prelude::*;

use easydram::report::{BankRowOutcomes, ChannelStats, RequestorStats, SmcStats};
use easydram::{Counters, LogHistogram, ServeResult, TileMetrics};
use easydram_cpu::CoreStats;
use easydram_dram::DeviceStats;

/// One generated shard: 32 bytes of entropy, spread across every counter.
type Raw = [u8; 32];

fn serve_from(b: &Raw) -> ServeResult {
    ServeResult {
        row_hits: b[8] as u64,
        row_misses: b[9] as u64,
        row_conflicts: b[10] as u64,
        reduced_trcd_accesses: b[11] as u64,
    }
}

fn smc_from(b: &Raw) -> SmcStats {
    SmcStats {
        requests: b[0] as u64,
        rocket_cycles: b[1] as u64,
        hw_cycles: b[2] as u64,
        batches: b[3] as u64,
        posted_writes: b[4] as u64,
        forced_drains: b[5] as u64,
        peak_batch: b[6] as u64,
        serve: serve_from(b),
        rowclone_fallbacks: b[12] as u64,
    }
}

fn channel_from(b: &Raw) -> ChannelStats {
    // Vectors of *different* lengths per shard: a lane that never touched
    // rank 2 reports a shorter vector, and merge must grow-then-add.
    let ranks = (b[13] % 4) as usize;
    let banks = (b[14] % 5) as usize;
    ChannelStats {
        requests: b[0] as u64,
        rocket_cycles: b[1] as u64,
        hw_cycles: b[2] as u64,
        batches: b[3] as u64,
        serve: serve_from(b),
        refreshes_per_rank: (0..ranks).map(|i| b[15 + i] as u64).collect(),
        acts_per_bank: (0..banks).map(|i| b[19 + i] as u64).collect(),
        row_outcomes_per_bank: (0..banks)
            .map(|i| BankRowOutcomes {
                hits: b[24 + (i % 4)] as u64,
                misses: b[25 + (i % 4)] as u64,
                conflicts: b[26 + (i % 4)] as u64,
            })
            .collect(),
    }
}

fn hist_from(b: &Raw) -> LogHistogram {
    let mut h = LogHistogram::default();
    for (i, &byte) in b.iter().enumerate() {
        // Spread samples across the full bucket range: shift some bytes up
        // so high buckets (including the `u64::MAX` tail) get exercised.
        h.record(u64::from(byte) << (2 * (i % 24)));
    }
    h
}

fn metrics_from(b: &Raw) -> TileMetrics {
    let mut rot = *b;
    rot.rotate_left(5);
    let mut rot2 = *b;
    rot2.rotate_left(11);
    TileMetrics {
        request_latency: hist_from(b),
        read_latency: hist_from(&rot),
        write_latency: hist_from(&rot2),
        batch_size: hist_from(&rot),
    }
}

fn requestor_from(id: u32, b: &Raw) -> RequestorStats {
    RequestorStats {
        requestor: id,
        requests: b[0] as u64,
        reads: b[1] as u64,
        writes: b[2] as u64,
        rowclones: b[3] as u64,
        row_hits: b[4] as u64,
        row_misses: b[5] as u64,
        row_conflicts: b[6] as u64,
        rocket_cycles: b[7] as u64,
        dram_occupancy_ps: b[8] as u64,
        column_ops: b[9] as u64,
    }
}

fn core_from(b: &Raw) -> CoreStats {
    CoreStats {
        instructions: b[0] as u64,
        loads: b[1] as u64,
        stores: b[2] as u64,
        clflushes: b[3] as u64,
        fences: b[4] as u64,
        mem_reads: b[5] as u64,
        mem_writes: b[6] as u64,
        rowclone_requests: b[7] as u64,
        rowclone_copies: b[8] as u64,
        stall_cycles: b[9] as u64,
    }
}

fn device_from(b: &Raw) -> DeviceStats {
    DeviceStats {
        activates: b[10] as u64,
        precharges: b[11] as u64,
        reads: b[12] as u64,
        writes: b[13] as u64,
        refreshes: b[14] as u64,
        violations: b[15] as u64,
        rowclone_attempts: b[16] as u64,
        rowclone_successes: b[17] as u64,
        reduced_trcd_reads: b[18] as u64,
        corrupted_reads: b[19] as u64,
        targeted_refreshes: b[20] as u64,
        disturbance_flips: b[21] as u64,
    }
}

/// Deterministic Fisher–Yates driven by a generated seed (splitmix64), so
/// each proptest case exercises a different permutation reproducibly.
fn shuffled<T: Clone>(items: &[T], mut state: u64) -> Vec<T> {
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut v = items.to_vec();
    for i in (1..v.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

/// Left fold with `merge`.
fn fold<T: Default, F: Fn(&mut T, &T)>(shards: &[T], merge: F) -> T {
    let mut acc = T::default();
    for s in shards {
        merge(&mut acc, s);
    }
    acc
}

/// Pairwise tree reduction with `merge` — a different association of the
/// same shards, as a work-stealing scheduler might produce.
fn tree_reduce<T: Default + Clone, F: Fn(&mut T, &T) + Copy>(shards: &[T], merge: F) -> T {
    match shards.len() {
        0 => T::default(),
        1 => shards[0].clone(),
        n => {
            let (lo, hi) = shards.split_at(n / 2);
            let mut left = tree_reduce(lo, merge);
            let right = tree_reduce(hi, merge);
            merge(&mut left, &right);
            left
        }
    }
}

/// Folds `shards` into a live record the way the tile does, closing a run
/// window (`now.since(&start)`) after every shard whose bit of `cuts` is set
/// and after the last one. Returns the windows and the lifetime total.
fn windowed<T: Counters + Default>(shards: &[T], cuts: u64) -> (Vec<T>, T) {
    let mut live = T::default();
    let mut start = T::default();
    let mut windows = Vec::new();
    for (i, shard) in shards.iter().enumerate() {
        live.fold(shard);
        if cuts >> i & 1 == 1 || i + 1 == shards.len() {
            windows.push(live.since(&start));
            start = live.clone();
        }
    }
    (windows, live)
}

fn raw_shards() -> impl Strategy<Value = Vec<Raw>> {
    prop::collection::vec(prop::array::uniform32(any::<u8>()), 1..12)
}

proptest! {
    /// Any permutation and any association of SmcStats shards reduces to
    /// the same record.
    #[test]
    fn smc_merge_is_order_invariant(raws in raw_shards(), seed in any::<u64>()) {
        let shards: Vec<SmcStats> = raws.iter().map(smc_from).collect();
        let in_order = fold(&shards, SmcStats::merge);
        let permuted = fold(&shuffled(&shards, seed), SmcStats::merge);
        let tree = tree_reduce(&shards, SmcStats::merge);
        prop_assert_eq!(in_order, permuted);
        prop_assert_eq!(in_order, tree);
    }

    /// `peak_batch` reduces as a maximum: the merged record reports the
    /// largest batch any shard carried, never the sum (which would claim a
    /// batch size no pass ever executed).
    #[test]
    fn peak_batch_reduces_as_max_not_sum(raws in raw_shards(), seed in any::<u64>()) {
        let shards: Vec<SmcStats> = raws.iter().map(smc_from).collect();
        let expected_peak = shards.iter().map(|s| s.peak_batch).max().unwrap_or(0);
        let merged = fold(&shuffled(&shards, seed), SmcStats::merge);
        prop_assert_eq!(merged.peak_batch, expected_peak);
        // Every summed counter still partitions exactly.
        let total_requests: u64 = shards.iter().map(|s| s.requests).sum();
        prop_assert_eq!(merged.requests, total_requests);
    }

    /// ChannelStats merge is order-invariant even when shards report
    /// per-rank/per-bank vectors of different lengths.
    #[test]
    fn channel_merge_is_order_invariant(raws in raw_shards(), seed in any::<u64>()) {
        let shards: Vec<ChannelStats> = raws.iter().map(channel_from).collect();
        let in_order = fold(&shards, ChannelStats::merge);
        let permuted = fold(&shuffled(&shards, seed), ChannelStats::merge);
        let tree = tree_reduce(&shards, ChannelStats::merge);
        prop_assert_eq!(&in_order, &permuted);
        prop_assert_eq!(&in_order, &tree);
        // The merged vectors are exactly as long as the longest shard's.
        let max_ranks = shards.iter().map(|s| s.refreshes_per_rank.len()).max().unwrap_or(0);
        let max_banks = shards.iter().map(|s| s.acts_per_bank.len()).max().unwrap_or(0);
        prop_assert_eq!(in_order.refreshes_per_rank.len(), max_ranks);
        prop_assert_eq!(in_order.acts_per_bank.len(), max_banks);
    }

    /// Log2 latency histograms merge commutatively and associatively, so
    /// the observability layer's percentile data survives any sharding —
    /// same proof obligation as the counters.
    #[test]
    fn histogram_merge_is_order_invariant(raws in raw_shards(), seed in any::<u64>()) {
        let shards: Vec<LogHistogram> = raws.iter().map(hist_from).collect();
        let in_order = fold(&shards, LogHistogram::merge);
        let permuted = fold(&shuffled(&shards, seed), LogHistogram::merge);
        let tree = tree_reduce(&shards, LogHistogram::merge);
        prop_assert_eq!(in_order, permuted);
        prop_assert_eq!(in_order, tree);
        // Sample count and sum partition exactly across shards.
        let n: u64 = shards.iter().map(|h| h.count).sum();
        prop_assert_eq!(in_order.count, n);
    }

    /// Whole [`TileMetrics`] bundles reduce order-invariantly, field by
    /// field.
    #[test]
    fn tile_metrics_merge_is_order_invariant(raws in raw_shards(), seed in any::<u64>()) {
        let shards: Vec<TileMetrics> = raws.iter().map(metrics_from).collect();
        let in_order = fold(&shards, TileMetrics::merge);
        let permuted = fold(&shuffled(&shards, seed), TileMetrics::merge);
        let tree = tree_reduce(&shards, TileMetrics::merge);
        prop_assert_eq!(in_order, permuted);
        prop_assert_eq!(in_order, tree);
    }

    /// Rebasing a merged histogram by a window-start snapshot recovers
    /// exactly the activity after the snapshot — the windowing identity the
    /// report layer relies on for every stat.
    #[test]
    fn histogram_window_rebase_is_exact(raws in raw_shards()) {
        let shards: Vec<LogHistogram> = raws.iter().map(hist_from).collect();
        let baseline = shards[0];
        let mut total = baseline;
        for s in &shards[1..] {
            total.merge(s);
        }
        total.rebase(&baseline);
        let window = fold(&shards[1..], LogHistogram::merge);
        prop_assert_eq!(total, window);
    }

    /// Window additivity: however a shard sequence is cut into consecutive
    /// run windows, the windows fold back to the lifetime total for every
    /// counter of every struct — and the lifetime `peak_batch` is the max of
    /// the window peaks, never their sum.
    #[test]
    fn windows_fold_to_the_lifetime_total(raws in raw_shards(), cuts in any::<u64>()) {
        let smc: Vec<SmcStats> = raws.iter().map(smc_from).collect();
        let (windows, lifetime) = windowed(&smc, cuts);
        prop_assert_eq!(windows.iter().map(|w| w.peak_batch).max(), Some(lifetime.peak_batch));
        prop_assert_eq!(fold(&windows, SmcStats::merge), lifetime);

        let channels: Vec<ChannelStats> = raws.iter().map(channel_from).collect();
        let (windows, lifetime) = windowed(&channels, cuts);
        prop_assert_eq!(fold(&windows, ChannelStats::merge), lifetime);

        let requestors: Vec<RequestorStats> = raws.iter().map(|b| requestor_from(0, b)).collect();
        let (windows, lifetime) = windowed(&requestors, cuts);
        prop_assert_eq!(fold(&windows, RequestorStats::merge), lifetime);

        let metrics: Vec<TileMetrics> = raws.iter().map(metrics_from).collect();
        let (windows, lifetime) = windowed(&metrics, cuts);
        prop_assert_eq!(fold(&windows, TileMetrics::merge), lifetime);

        // The two structs defined below `easydram` (no inherent `merge`).
        let cores: Vec<CoreStats> = raws.iter().map(core_from).collect();
        let (windows, lifetime) = windowed(&cores, cuts);
        prop_assert_eq!(fold(&windows, CoreStats::fold), lifetime);
        prop_assert_eq!(lifetime.stall_cycles, cores.iter().map(|c| c.stall_cycles).sum::<u64>());

        let devices: Vec<DeviceStats> = raws.iter().map(device_from).collect();
        let (windows, lifetime) = windowed(&devices, cuts);
        prop_assert_eq!(fold(&windows, DeviceStats::fold), lifetime);
        prop_assert_eq!(lifetime.commands(), devices.iter().map(DeviceStats::commands).sum::<u64>());
    }

    /// RequestorStats merge is order-invariant for shards of one requestor.
    #[test]
    fn requestor_merge_is_order_invariant(raws in raw_shards(), seed in any::<u64>(), id in 0u32..8) {
        let shards: Vec<RequestorStats> = raws.iter().map(|b| requestor_from(id, b)).collect();
        let base = || RequestorStats::new(id);
        let fold_req = |shards: &[RequestorStats]| {
            let mut acc = base();
            for s in shards {
                acc.merge(s);
            }
            acc
        };
        let in_order = fold_req(&shards);
        let permuted = fold_req(&shuffled(&shards, seed));
        prop_assert_eq!(in_order, permuted);
        prop_assert_eq!(in_order.requestor, id);
    }
}

/// The concrete regression the permutation tests generalize: two serve
/// passes of 6 and 4 requests peak at 6, not 10.
#[test]
fn peak_batch_two_pass_regression() {
    let mut total = SmcStats::default();
    total.merge(&SmcStats {
        requests: 6,
        peak_batch: 6,
        ..SmcStats::default()
    });
    total.merge(&SmcStats {
        requests: 4,
        peak_batch: 4,
        ..SmcStats::default()
    });
    assert_eq!(total.requests, 10);
    assert_eq!(total.peak_batch, 6, "peak is a max, not a sum");
}
