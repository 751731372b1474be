//! End-to-end RowClone (paper §7): allocate a RowClone-compatible buffer
//! pair, copy it in-DRAM with CPU fallback for unqualified rows, verify the
//! data, and compare against a plain CPU copy.
//!
//! ```sh
//! cargo run --release --example rowclone_copy
//! ```

use easydram_suite::cpu::{CpuApi, RowCloneStatus};
use easydram_suite::easydram::{System, SystemConfig, TimingMode};

fn main() {
    let mut cfg = SystemConfig::jetson_nano(TimingMode::TimeScaling);
    cfg.rowclone_test_trials = 1_000; // the paper's qualification test
    let mut sys = System::new(cfg);

    let bytes = 16 * 8192u64; // 16 DRAM rows
    let rb = sys.cpu().row_bytes();
    let rows = bytes / rb;

    // The allocator solves §7.1's constraints: row alignment, granularity,
    // same-subarray placement with 1000-trial-qualified pairs.
    let (src, dst) = sys
        .cpu()
        .rowclone_alloc_copy(bytes)
        .expect("allocation fits");

    // Fill the source and push it to DRAM (RowClone operates on the array,
    // not the caches — the "coherence problem").
    for i in 0..bytes / 8 {
        let v = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        sys.cpu().store_u64(src + i * 8, v);
    }
    for line in 0..bytes / 64 {
        sys.cpu().clflush(src + line * 64);
    }
    sys.cpu().fence();

    let t0 = sys.cpu().now_cycles();
    let mut cloned = 0;
    let mut fallback = 0;
    for r in 0..rows {
        match sys.cpu().rowclone_row(src + r * rb, dst + r * rb) {
            RowCloneStatus::Copied => cloned += 1,
            RowCloneStatus::FallbackNeeded | RowCloneStatus::Unsupported => {
                fallback += 1;
                sys.cpu().stream_begin();
                for i in 0..rb / 8 {
                    let v = sys.cpu().load_u64(src + r * rb + i * 8);
                    sys.cpu().store_u64(dst + r * rb + i * 8, v);
                }
                sys.cpu().stream_end();
            }
        }
    }
    sys.cpu().fence();
    let rowclone_cycles = sys.cpu().now_cycles() - t0;

    // Verify every word.
    let mut mismatches = 0u64;
    for i in 0..bytes / 8 {
        let v = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        if sys.cpu().load_u64(dst + i * 8) != v {
            mismatches += 1;
        }
    }

    // Plain CPU copy of the same size for comparison.
    let a = sys.cpu().alloc(bytes, rb);
    let b = sys.cpu().alloc(bytes, rb);
    let t0 = sys.cpu().now_cycles();
    sys.cpu().stream_begin();
    for i in 0..bytes / 8 {
        let v = sys.cpu().load_u64(a + i * 8);
        sys.cpu().store_u64(b + i * 8, v);
    }
    sys.cpu().stream_end();
    sys.cpu().fence();
    let cpu_cycles = sys.cpu().now_cycles() - t0;

    println!("RowClone copy of {bytes} bytes ({rows} rows):");
    println!("  in-DRAM clones: {cloned}, CPU fallbacks: {fallback}");
    println!("  verification mismatches: {mismatches}");
    println!("  RowClone path: {rowclone_cycles} cycles");
    println!("  CPU copy:      {cpu_cycles} cycles");
    println!(
        "  speedup:       {:.1}x",
        cpu_cycles as f64 / rowclone_cycles as f64
    );
    println!("\nDRAM device: {}", sys.tile().channel_device(0).stats());
}
