//! Multi-core shared-tile co-runs: N cores, one memory system, measurable
//! interference.
//!
//! Two demos over `MultiCoreSystem`:
//!
//! 1. co-run two identical pointer chases and watch the per-requestor
//!    report split the tile's traffic (and bandwidth) evenly;
//! 2. co-run a latency-sensitive chase against a streaming writer at 1 and
//!    2 channels and watch the second channel recover most of the
//!    interference.
//!
//! ```sh
//! cargo run --release --example multi_core
//! ```

use easydram_suite::easydram::{MultiCoreSystem, SystemConfig, TimingMode};
use easydram_suite::workloads::lmbench::LatMemRd;
use easydram_suite::workloads::StreamWriter;

#[expect(
    clippy::disallowed_methods,
    reason = "a run-length knob for CI; it picks the workload, not the simulation's behaviour"
)]
fn quick() -> bool {
    std::env::var("EASYDRAM_QUICK").is_ok_and(|v| v != "0")
}

fn main() {
    let loads = if quick() { 512 } else { 2_048 };

    // --- Demo 1: a symmetric pair over one shared 1-channel tile. ---
    let cfg = SystemConfig::small_for_tests(TimingMode::Reference);
    let mut sys = MultiCoreSystem::new(cfg.clone(), 2);
    let mut a = LatMemRd::with_loads(64 * 1024, 64, loads);
    let mut b = LatMemRd::with_loads(64 * 1024, 64, loads);
    let report = sys.co_run(&mut [&mut a, &mut b]);
    println!("symmetric pair on one shared tile:\n{report}\n");
    let q = &report.aggregate.requestors;
    let total: u64 = q.iter().map(|q| q.dram_occupancy_ps).sum();
    for q in q {
        println!(
            "  requestor {}: {} requests, {:.0}% bandwidth share, {:.0}% row hits",
            q.requestor,
            q.requests,
            q.bandwidth_share(total) * 100.0,
            q.row_hit_rate() * 100.0,
        );
    }

    // --- Demo 2: victim vs aggressor, 1 channel then 2. The cache
    // hierarchy is shrunk (4 KiB L1, 32 KiB L2) so the 256 KiB chase is
    // memory-resident and the contention happens where it matters: on the
    // per-channel DRAM buses. ---
    use easydram_suite::cpu::CacheConfig;
    println!("\nchase vs streaming writer:");
    for channels in [1u32, 2] {
        let mut cfg = cfg.clone();
        cfg.dram.geometry.channels = channels;
        cfg.dram.geometry.bank_groups = 2;
        cfg.dram.geometry.banks_per_group = 4;
        cfg.core.l1 = Some(CacheConfig {
            size_bytes: 4 * 1024,
            ways: 2,
            hit_latency_cycles: 4,
        });
        cfg.core.l2 = Some(CacheConfig {
            size_bytes: 32 * 1024,
            ways: 4,
            hit_latency_cycles: 12,
        });

        let mut solo = LatMemRd::shuffled_with_loads(256 * 1024, 64, loads);
        let mut sys = MultiCoreSystem::new(cfg.clone(), 1);
        sys.set_quantum(40);
        sys.co_run(&mut [&mut solo]);

        let mut chase = LatMemRd::shuffled_with_loads(256 * 1024, 64, loads);
        let mut writer = StreamWriter::new(256 * 1024, 2_000_000);
        let mut sys = MultiCoreSystem::new(cfg, 2);
        sys.set_quantum(40);
        sys.co_run(&mut [&mut chase, &mut writer]);

        let solo_cpl = solo.cycles_per_load().unwrap();
        let co_cpl = chase.cycles_per_load().unwrap();
        println!(
            "  {channels} channel(s): {solo_cpl:6.1} cycles/load solo, {co_cpl:6.1} co-run \
             ({:.2}x degradation)",
            co_cpl / solo_cpl
        );
    }
}
