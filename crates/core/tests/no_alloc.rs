//! The steady-state request path at the tile — `MemoryBackend::post_write` /
//! `read_line` / `drain_writes` down through the serve pass, the controller
//! (mitigation hook included), DRAM Bender and the device — performs no heap
//! allocation once the rows it touches are materialised and its buffers have
//! grown, in every timing mode, traced or not.
//!
//! This counts what the allocator is actually asked for, through every call;
//! `crates/bender/tests/no_alloc.rs` does the same one layer down.

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations;
use easydram::{
    GrapheneController, ParaController, SoftwareMemoryController, System, SystemConfig, TimingMode,
    TraceConfig,
};
use easydram_cpu::{MemoryBackend, LINE_BYTES};

/// Lines in the swept buffer (256 KiB: every bank of both channels, many
/// rows each).
const LINES: u64 = 4_096;
/// Sweeps before counting: every first touch (rows, row-table pages,
/// overlays, session buffers, mitigation tables at full size) is behind us.
const WARM_UP_SWEEPS: u64 = 8;
const COUNTED_SWEEPS: u64 = 4;

/// One pass over the buffer: post a write to every line (the bounded buffer
/// forces drains), read every line back, fence. Successive accesses alternate
/// between the buffer's halves, which are different rows of one bank, so the
/// pass is row conflicts (activations for a mitigation to count), not one
/// open-row stream. Returns the cycle it ends at.
fn sweep(sys: &mut System, base: u64, salt: u8, mut now: u64) -> u64 {
    let tile = sys.tile_mut();
    let line = |i: u64| (i % 2) * (LINES / 2) + i / 2;
    for i in (0..LINES).map(line) {
        let data = [salt.wrapping_add(i as u8); LINE_BYTES];
        now = tile.post_write(base + i * LINE_BYTES as u64, data, now) + 1;
    }
    for i in (0..LINES).map(line) {
        let fetch = tile.read_line(base + i * LINE_BYTES as u64, now);
        assert_eq!(fetch.data[0], salt.wrapping_add(i as u8), "line {i}");
        now = fetch.complete_cycle;
    }
    tile.drain_writes(now)
}

type MakeController = fn(u32) -> Box<dyn SoftwareMemoryController>;

#[test]
fn steady_state_tile_requests_do_not_allocate() {
    let controllers: [(&str, Option<MakeController>); 3] = [
        ("frfcfs", None),
        (
            "graphene",
            Some(|_| Box::new(GrapheneController::new(64, 16))),
        ),
        (
            "para",
            Some(|ch| Box::new(ParaController::new(64, 0xEA5D + u64::from(ch)))),
        ),
    ];
    let mut failures = Vec::new();
    for mode in [
        TimingMode::Reference,
        TimingMode::TimeScaling,
        TimingMode::NoTimeScaling,
    ] {
        for trace in [
            None,
            Some(TraceConfig {
                ring_capacity: 1024,
            }),
        ] {
            for (name, make) in controllers {
                let mut cfg = SystemConfig::small_for_tests(mode);
                cfg.dram.geometry.channels = 2;
                cfg.dram.variation.disturb_enabled = make.is_some();
                cfg.trace = trace;
                let mut sys = System::new(cfg);
                if let Some(make) = make {
                    sys.tile_mut().install_controllers(make);
                }
                let base = sys.tile_mut().alloc(LINES * LINE_BYTES as u64, 64);
                let mut now = 0;
                for s in 0..WARM_UP_SWEEPS {
                    now = sweep(&mut sys, base, s as u8, now);
                }
                let refreshes_before = sys.tile().mitigation_stats().map(|m| m.targeted_refreshes);
                let before = allocations();
                for s in 0..COUNTED_SWEEPS {
                    now = sweep(&mut sys, base, 0x80 + s as u8, now);
                }
                let allocs = allocations() - before;
                let refreshes = sys.tile().mitigation_stats().map(|m| m.targeted_refreshes);
                assert_eq!(refreshes.is_some(), make.is_some());
                assert!(
                    refreshes.is_none() || refreshes > refreshes_before,
                    "{name}: the counted sweeps must exercise the mitigation"
                );
                if allocs != 0 {
                    failures.push(format!(
                        "{mode} / trace {} / {name}: {allocs} allocations in {COUNTED_SWEEPS} sweeps",
                        trace.is_some()
                    ));
                }
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
