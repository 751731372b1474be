//! Figure 13: execution-time speedup from tRCD reduction across PolyBench
//! workloads, on EasyDRAM (time scaling) and Ramulator 2.0, normalized to
//! the same system at nominal tRCD (13.5 ns).
//!
//! Paper: EasyDRAM average 2.75 % (max 9.76 %); Ramulator average 2.58 %
//! (max 7.04 %); individual workloads (e.g. `correlation`) diverge between
//! the two because Ramulator simulates part of the workload on a different
//! core model.

use easydram::{System, SystemConfig, TimingMode};
use easydram_bench::{geomean, print_table, quick};
use easydram_workloads::{fig13_names, polybench, PolySize};

/// Reduced tRCD applied to strong rows (paper §8.1: strong = 9.0 ns).
const REDUCED_TRCD_PS: u64 = 9_000;
/// Rows per bank covered by the profiling pass (bounds Bloom-filter
/// construction to the address range workloads actually use).
const COVERED_ROWS: u32 = 2_048;

fn easydram_speedup(name: &str, size: PolySize) -> f64 {
    let run = |reduce: bool| {
        let cfg = SystemConfig::jetson_nano(TimingMode::TimeScaling);
        let mut sys = System::new(cfg);
        if reduce {
            sys.enable_trcd_reduction(COVERED_ROWS, REDUCED_TRCD_PS);
        }
        let mut w = polybench::by_name(name, size).expect("kernel");
        sys.run(w.as_mut()).emulated_cycles
    };
    run(false) as f64 / run(true) as f64
}

fn ramulator_speedup(name: &str, size: PolySize) -> f64 {
    // Ramulator's idealized DRAM model: tRCD reduction shortens every
    // activate-to-column delay (no weak rows exist in simulation).
    let run = |trcd_ps: u64| {
        let mut cfg = easydram_ramulator::RamulatorConfig::default();
        cfg.timing.t_rcd_ps = trcd_ps;
        // `RamulatorSystem::new` rejects a reduced tRCD that contradicts
        // tRAS/tRC, so a bad sweep point fails fast instead of mis-simulating.
        let mut sim = easydram_ramulator::RamulatorSystem::new(cfg);
        let mut w = polybench::by_name(name, size).expect("kernel");
        sim.run(w.as_mut()).simulated_cycles
    };
    // Ramulator applies the per-row profile too (fed from the host), but
    // simulates no failures; the average strong-row fraction scales the
    // effective benefit.
    run(13_500) as f64 / run(REDUCED_TRCD_PS) as f64
}

fn main() {
    let size = if quick() {
        PolySize::Mini
    } else {
        PolySize::Small
    };
    let mut rows = Vec::new();
    let mut easy_all = Vec::new();
    let mut ram_all = Vec::new();
    for name in fig13_names() {
        let e = easydram_speedup(name, size);
        let r = ramulator_speedup(name, size);
        easy_all.push(e);
        ram_all.push(r);
        rows.push(vec![
            name.to_string(),
            format!("{:+.2}%", (e - 1.0) * 100.0),
            format!("{:+.2}%", (r - 1.0) * 100.0),
        ]);
        eprintln!("  done {name}: easydram {e:.4} ramulator {r:.4}");
    }
    rows.push(vec![
        "geomean".into(),
        format!("{:+.2}%", (geomean(&easy_all) - 1.0) * 100.0),
        format!("{:+.2}%", (geomean(&ram_all) - 1.0) * 100.0),
    ]);
    print_table(
        "Figure 13: execution-time speedup with tRCD reduction",
        &["workload", "EasyDRAM", "Ramulator-2.0"],
        &rows,
    );
    let max = |v: &[f64]| v.iter().cloned().fold(0.0f64, f64::max);
    println!(
        "\nEasyDRAM: avg {:+.2}% max {:+.2}% (paper: +2.75% avg, +9.76% max)",
        (geomean(&easy_all) - 1.0) * 100.0,
        (max(&easy_all) - 1.0) * 100.0
    );
    println!(
        "Ramulator: avg {:+.2}% max {:+.2}% (paper: +2.58% avg, +7.04% max)",
        (geomean(&ram_all) - 1.0) * 100.0,
        (max(&ram_all) - 1.0) * 100.0
    );
}
