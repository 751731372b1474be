//! Table 1: qualitative comparison of evaluation platform types, extended
//! with this reproduction's measured quantities where applicable.

use easydram::{System, SystemConfig, TimingMode};
use easydram_bench::{print_table, ramulator};
use easydram_workloads::{polybench, PolySize};

fn main() {
    let rows = vec![
        vec![
            "Commercial systems".into(),
            "yes".into(),
            "no".into(),
            "billions".into(),
            "yes".into(),
            "no".into(),
        ],
        vec![
            "Software simulators".into(),
            "no".into(),
            "yes (C/C++)".into(),
            "~10K - ~1M".into(),
            "yes".into(),
            "yes".into(),
        ],
        vec![
            "FPGA-based simulators".into(),
            "no".into(),
            "no".into(),
            "~4M - ~100M".into(),
            "yes".into(),
            "yes".into(),
        ],
        vec![
            "DRAM testing platforms".into(),
            "DDR3/4".into(),
            "no".into(),
            "n/a".into(),
            "no".into(),
            "no".into(),
        ],
        vec![
            "FPGA-based emulators".into(),
            "DDR3/4".into(),
            "HDL".into(),
            "50M - 200M".into(),
            "no".into(),
            "yes".into(),
        ],
        vec![
            "EasyDRAM (this work)".into(),
            "DDR4".into(),
            "yes (C/C++)".into(),
            "~10M".into(),
            "yes".into(),
            "yes".into(),
        ],
    ];
    print_table(
        "Table 1: comparison of prototyping and evaluation platforms",
        &[
            "platform",
            "real DRAM",
            "flexible MC",
            "CPU cycles/s",
            "accurate perf",
            "configurable",
        ],
        &rows,
    );

    // Back the EasyDRAM row's claims with measurements from this build.
    let cfg = SystemConfig::jetson_nano(TimingMode::TimeScaling);
    let mut sys = System::new(cfg);
    let mut w = polybench::Gemm::new(PolySize::Mini);
    let er = sys.run(&mut w);
    let mut ram = ramulator();
    let mut w = polybench::Gemm::new(PolySize::Mini);
    let rr = ram.run(&mut w);
    println!("\nMeasured on this build (gemm, mini):");
    println!(
        "  EasyDRAM evaluated CPU cycles/s: {:.2}M (paper Table 1: ~10M)",
        er.sim_speed_hz / 1e6
    );
    println!(
        "  Software-simulator cycles/s (modeled): {:.2}M (paper: ~10K-~1M)",
        rr.modeled_speed_hz / 1e6
    );
    println!(
        "  Flexible MC: controller '{}' is plain Rust over EasyAPI (Table 2)",
        sys.tile().controller_name()
    );
}
