//! The core's steady state — loads, stores, `compute`, `clflush` + `fence`
//! and streamed loads through both cache levels to the backend and back —
//! performs no heap allocation once its working set is materialised.
//!
//! This counts what the allocator is actually asked for, as
//! `crates/core/tests/no_alloc.rs` does one layer down, at the tile.

#![expect(
    unsafe_code,
    reason = "the one `unsafe impl` a counting allocator needs; the library under test `forbid`s `unsafe_code`"
)]

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;

use easydram_cpu::{CoreConfig, CoreModel, CpuApi, FixedLatencyBackend};

thread_local! {
    /// Allocations (and reallocations) made by this thread. Per thread, so
    /// the test harness's own threads do not count.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator, which
// upholds the `GlobalAlloc` contract; the only addition is a counter in a
// `const` thread-local `Cell` (no lazy initialiser, no destructor, so
// touching it inside the allocator cannot allocate or re-enter).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { SystemAlloc.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from the system allocator with this `layout`.
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { SystemAlloc.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

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
    let before = ALLOCS.with(Cell::get);
    for salt in WARM_UP_SWEEPS..WARM_UP_SWEEPS + COUNTED_SWEEPS {
        rewrite(&mut core, base, salt);
        flush_and_stream(&mut core, base, salt);
    }
    let allocs = ALLOCS.with(Cell::get) - before;
    assert!(
        core.stats().mem_writes > writes_before + LINES,
        "the counted sweeps must evict and flush dirty lines"
    );
    assert_eq!(allocs, 0, "allocations in {COUNTED_SWEEPS} sweeps");
}
