//! Post→retire identity: what comes out of the tile is exactly what was
//! handed in.
//!
//! Random mixes of reads, posted writes, fences and RowClone from 1-3
//! requestors are driven straight into a traced [`easydram::System`] tile
//! over 1/2/4 channels under FCFS and FR-FCFS. Whatever the controllers
//! reorder, every posted id must retire exactly once, with the lane,
//! requestor and class it was enqueued under, no earlier than the cycle
//! after it arrived; reads must see the latest write to their line; and the
//! per-requestor and per-bank counters must partition the tile and channel
//! totals.

use std::collections::BTreeMap;

use proptest::prelude::*;

use easydram::{
    EventKind, FcfsController, FrFcfsController, System, SystemConfig, TimingMode, TraceConfig,
    TraceEvent,
};
use easydram_cpu::timescale::Clock;
use easydram_cpu::{MemoryBackend, LINE_BYTES};

/// Lines in the read/write region (four 8 KiB rows' worth, so the mix hits
/// several rows, banks and — interleaved — every channel).
const LINES: u64 = 512;
/// Rows in the RowClone copy pair.
const CLONE_ROWS: u64 = 4;

proptest! {
    #[test]
    fn every_posted_request_retires_once_as_itself(
        channels_log2 in 0u32..3,
        requestors in 1u32..4,
        frfcfs in any::<bool>(),
        ops in prop::collection::vec((0u8..8, 0u32..3, 0u64..LINES), 1..48),
    ) {
        let mut cfg = SystemConfig::small_for_tests(TimingMode::TimeScaling);
        cfg.dram.geometry.channels = 1 << channels_log2;
        cfg.write_buffer_depth = 4;
        cfg.trace = Some(TraceConfig::default());
        let core = Clock::from_hz(cfg.core.freq_hz);
        let mut sys = System::new(cfg);
        let tile = sys.tile_mut();
        if frfcfs {
            tile.install_controllers(|_| Box::new(FrFcfsController::new()));
        } else {
            tile.install_controllers(|_| Box::new(FcfsController::new()));
        }
        let row_bytes = tile.row_bytes();
        let base = tile.alloc(LINES * LINE_BYTES as u64, row_bytes);
        let (src, dst) = tile
            .rowclone_alloc_copy(CLONE_ROWS * row_bytes)
            .expect("the small device has room for a copy pair");

        // --- Drive the mix, modelling line contents on the side. ---
        let mut written: BTreeMap<u64, [u8; LINE_BYTES]> = BTreeMap::new();
        let mut now = 0u64;
        for (i, &(op, requestor, line)) in ops.iter().enumerate() {
            tile.set_requestor(requestor % requestors);
            let addr = base + line * LINE_BYTES as u64;
            now = match op {
                0..=2 => {
                    let fetch = tile.read_line(addr, now);
                    if let Some(data) = written.get(&addr) {
                        prop_assert_eq!(&fetch.data, data, "read of line {} after its write", line);
                    }
                    fetch.complete_cycle
                }
                3..=5 => {
                    let data = [i as u8 + 1; LINE_BYTES];
                    written.insert(addr, data);
                    tile.post_write(addr, data, now) + 1
                }
                6 => tile.drain_writes(now),
                _ => {
                    let row = (line % CLONE_ROWS) * row_bytes;
                    let done = tile.rowclone(src + row, dst + row, now);
                    done.expect("the tile supports RowClone").complete_cycle
                }
            }
            .max(now + 1);
        }
        tile.drain_writes(now);

        // --- Every Enqueue has exactly one Retire, and they agree. ---
        let log = tile.take_trace();
        prop_assert_eq!(log.dropped, 0);
        let of_kind = |kind: EventKind| -> Vec<TraceEvent> {
            log.events.iter().filter(|e| e.kind == kind).copied().collect()
        };
        let posted: BTreeMap<u64, TraceEvent> =
            of_kind(EventKind::Enqueue).into_iter().map(|e| (e.id, e)).collect();
        let retired = of_kind(EventKind::Retire);
        prop_assert_eq!(retired.len(), posted.len(), "one retire per posted id");
        let ids: Vec<u64> = posted.keys().copied().collect();
        prop_assert_eq!(ids, (0..posted.len() as u64).collect::<Vec<_>>(), "ids are dense");
        let mut seen = vec![false; posted.len()];
        for r in &retired {
            let e = &posted[&r.id];
            prop_assert!(!std::mem::replace(&mut seen[r.id as usize], true), "id {} retired twice", r.id);
            prop_assert_eq!((r.lane, r.requestor, r.a), (e.lane, e.requestor, e.a), "id {}", r.id);
            prop_assert!(
                core.ps_to_cycles(r.ps) > core.ps_to_cycles(e.ps),
                "id {} released at or before its arrival",
                r.id
            );
        }

        // --- Per-requestor counters partition the tile totals, per-bank
        // outcomes the channel totals. ---
        let smc = *tile.smc_stats();
        let per_requestor = tile.requestor_stats();
        prop_assert_eq!(smc.requests, posted.len() as u64);
        prop_assert_eq!(per_requestor.iter().map(|q| q.requests).sum::<u64>(), smc.requests);
        for q in &per_requestor {
            prop_assert_eq!(q.reads + q.writes + q.rowclones, q.requests);
            let retires = retired.iter().filter(|r| r.requestor == q.requestor).count();
            prop_assert_eq!(q.requests, retires as u64, "requestor {}", q.requestor);
        }
        let outcomes = |f: fn(&easydram::RequestorStats) -> u64| per_requestor.iter().map(f).sum::<u64>();
        prop_assert_eq!(outcomes(|q| q.row_hits), smc.serve.row_hits);
        prop_assert_eq!(outcomes(|q| q.row_misses), smc.serve.row_misses);
        prop_assert_eq!(outcomes(|q| q.row_conflicts), smc.serve.row_conflicts);
        let per_channel = tile.channel_stats();
        prop_assert_eq!(per_channel.iter().map(|c| c.requests).sum::<u64>(), smc.requests);
        for c in &per_channel {
            let banks = &c.row_outcomes_per_bank;
            prop_assert_eq!(banks.iter().map(|b| b.hits).sum::<u64>(), c.serve.row_hits);
            prop_assert_eq!(banks.iter().map(|b| b.misses).sum::<u64>(), c.serve.row_misses);
            prop_assert_eq!(banks.iter().map(|b| b.conflicts).sum::<u64>(), c.serve.row_conflicts);
        }
    }
}
