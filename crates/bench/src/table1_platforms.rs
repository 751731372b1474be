//! Table 1: qualitative comparison of evaluation platform types, with the
//! EasyDRAM and software-simulator rows' speeds measured on `gemm`.

use easydram::{System, SystemConfig, TimingMode};
use easydram_ramulator::RamulatorConfig;
use easydram_workloads::polybench::Gemm;
use easydram_workloads::PolySize;

use crate::{Figure, Scale};

const PLATFORMS: [[&str; 6]; 6] = [
    ["Commercial systems", "yes", "no", "billions", "yes", "no"],
    [
        "Software simulators",
        "no",
        "yes (C/C++)",
        "~10K - ~1M",
        "yes",
        "yes",
    ],
    [
        "FPGA-based simulators",
        "no",
        "no",
        "~4M - ~100M",
        "yes",
        "yes",
    ],
    ["DRAM testing platforms", "DDR3/4", "no", "n/a", "no", "no"],
    [
        "FPGA-based emulators",
        "DDR3/4",
        "HDL",
        "50M - 200M",
        "no",
        "yes",
    ],
    [
        "EasyDRAM (this work)",
        "DDR4",
        "yes (C/C++)",
        "~10M",
        "yes",
        "yes",
    ],
];

pub(crate) fn run(scale: Scale) -> Figure {
    let mut fig = Figure::default();
    let rows: Vec<Vec<String>> = PLATFORMS
        .iter()
        .map(|row| row.iter().map(ToString::to_string).collect())
        .collect();
    fig.table(
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

    let mut sys = System::new(scale.config(SystemConfig::jetson_nano(TimingMode::TimeScaling)));
    let easy = sys.run(&mut Gemm::new(PolySize::Mini));
    fig.section("easydram gemm", &easy);
    let ram = fig.ramulator(
        "ramulator gemm",
        RamulatorConfig::default(),
        &mut Gemm::new(PolySize::Mini),
    );
    fig.note(format_args!(
        "\nFlexible MC: controller '{}' is plain Rust over EasyAPI (Table 2)",
        sys.tile().controller_name()
    ));

    let (easy_m, ram_m) = (easy.sim_speed_hz / 1e6, ram.modeled_speed_hz / 1e6);
    fig.claim(
        "Table 1",
        easy_m > 5.0,
        format!("EasyDRAM evaluates {easy_m:.2}M CPU cycles/s on gemm, the ~10M class (> 5M)"),
    );
    fig.claim(
        "Table 1",
        ram_m < 3.0,
        format!(
            "a software simulator (modeled) runs {ram_m:.2}M cycles/s on gemm, \
             the ~10K - ~1M class (< 3M)"
        ),
    );
    fig
}
