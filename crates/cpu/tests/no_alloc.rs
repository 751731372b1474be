//! The core's steady state — loads, stores, `compute`, `clflush` + `fence`
//! and streamed loads through both cache levels to the backend and back —
//! performs no heap allocation once its working set is materialised.
//!
//! This counts what the allocator is actually asked for, as
//! `crates/core/tests/no_alloc.rs` does one layer down, at the tile.

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations;
use easydram_cpu::{CoreConfig, CoreModel, CpuApi, FixedLatencyBackend};

/// Lines in the working set: 1 MiB, twice the Cortex-A57 preset's L2, so
/// every sweep evicts from both levels and writes dirty lines back.
const LINES: u64 = 16_384;
/// Warm-up passes: two rewrites of the working set push every line out of
/// the hierarchy once, which materialises the backend's pages.
const WARM_UP_SWEEPS: u64 = 2;
const COUNTED_SWEEPS: u64 = 2;

/// Rewrites every line behind a dependent load, with compute between. The
/// load brings the line in, so both stores hit: this pass occupies no MSHR.
/// `salt` is the previous pass's plus one (zero over fresh memory).
fn rewrite(core: &mut CoreModel<FixedLatencyBackend>, base: u64, salt: u64) {
    for i in 0..LINES {
        let addr = base + i * 64;
        assert_eq!(core.load(addr + 17, 1), salt.saturating_sub(1), "line {i}");
        core.store(addr, 8, i ^ salt);
        core.store(addr + 17, 1, salt);
        core.compute(3);
    }
}

/// The paths that hold MSHRs: flush bursts fenced in batches, stores that
/// miss and write-allocate, and streamed loads.
fn flush_and_stream(core: &mut CoreModel<FixedLatencyBackend>, base: u64, salt: u64) {
    for i in (0..LINES).step_by(8) {
        core.clflush(base + i * 64);
        core.store(base + i * 64 + 32, 2, salt);
        if i % 512 == 0 {
            core.fence();
        }
    }
    core.stream_begin();
    for i in 0..LINES {
        assert_eq!(core.load(base + i * 64, 4), i ^ salt, "line {i}");
    }
    core.stream_end();
    core.fence();
}

#[test]
fn steady_state_core_ops_do_not_allocate() {
    let mut core = CoreModel::new(
        CoreConfig::cortex_a57(),
        FixedLatencyBackend::with_bandwidth(100, 4),
    );
    let base = core.alloc(LINES * 64, 64);
    // The warm-up never fills an MSHR: the file must come with the core,
    // not grow on the counted passes' first misses.
    for salt in 0..WARM_UP_SWEEPS {
        rewrite(&mut core, base, salt);
    }
    assert_eq!(core.mshr_occupancy(), 0);
    let writes_before = core.stats().mem_writes;
    let before = allocations();
    for salt in WARM_UP_SWEEPS..WARM_UP_SWEEPS + COUNTED_SWEEPS {
        rewrite(&mut core, base, salt);
        flush_and_stream(&mut core, base, salt);
    }
    let allocs = allocations() - before;
    assert!(
        core.stats().mem_writes > writes_before + LINES,
        "the counted sweeps must evict and flush dirty lines"
    );
    assert_eq!(allocs, 0, "allocations in {COUNTED_SWEEPS} sweeps");
}
