//! Figure 13: execution-time speedup from tRCD reduction across PolyBench
//! workloads, on EasyDRAM (time scaling; strong rows only, weak rows kept
//! out by a Bloom filter, §8.2) and Ramulator 2.0 (every access), each
//! normalized to the same system at nominal tRCD.
//!
//! Paper: EasyDRAM average 2.75 % (max 9.76 %); Ramulator average 2.58 %
//! (max 7.04 %). docs/REPRODUCING.md records the magnitudes measured here.

use easydram::{System, SystemConfig, TimingMode};
use easydram_ramulator::RamulatorConfig;
use easydram_workloads::{fig13_names, polybench};

use crate::{geomean, Figure, Scale};

/// Reduced tRCD applied to strong rows (paper §8.1: strong = 9.0 ns).
const REDUCED_TRCD_PS: u64 = 9_000;
/// Rows per bank covered by the profiling pass (bounds Bloom-filter
/// construction to the address range workloads actually use).
const COVERED_ROWS: u32 = 2_048;

pub(crate) fn run(scale: Scale) -> Figure {
    let mut fig = Figure::default();
    let kernels = scale.pick(vec![polybench::Mvt::NAME], fig13_names(), fig13_names());
    let mut rows = Vec::new();
    let (mut easy_all, mut ram_all) = (Vec::new(), Vec::new());
    let mut corrupted = 0;
    for name in kernels {
        let easy = [false, true].map(|reduce| {
            let mut sys =
                System::new(scale.config(SystemConfig::jetson_nano(TimingMode::TimeScaling)));
            if reduce {
                sys.enable_trcd_reduction(COVERED_ROWS, REDUCED_TRCD_PS);
            }
            let r = sys.run(scale.kernel(name).as_mut());
            fig.section(
                if reduce {
                    "reduced trcd"
                } else {
                    "nominal trcd"
                },
                &r,
            );
            corrupted += r.dram.corrupted_reads;
            r.emulated_cycles
        });
        // Ramulator's idealized DRAM has no weak rows: the reduction
        // shortens every activate-to-column delay.
        let ram = [false, true].map(|reduce| {
            let mut cfg = RamulatorConfig::default();
            if reduce {
                cfg.timing.t_rcd_ps = REDUCED_TRCD_PS;
            }
            let label = if reduce {
                "ramulator reduced trcd"
            } else {
                "ramulator nominal trcd"
            };
            fig.ramulator(label, cfg, scale.kernel(name).as_mut())
                .simulated_cycles
        });
        let speedup = |[nominal, reduced]: [u64; 2]| nominal as f64 / reduced as f64;
        let (e, r) = (speedup(easy), speedup(ram));
        easy_all.push((e, name));
        ram_all.push(r);
        rows.push(vec![name.to_string(), pct(e), pct(r)]);
    }
    let easy: Vec<f64> = easy_all.iter().map(|e| e.0).collect();
    rows.push(vec![
        "geomean".into(),
        pct(geomean(&easy)),
        pct(geomean(&ram_all)),
    ]);
    fig.table(
        "Figure 13: execution-time speedup with tRCD reduction",
        &["workload", "EasyDRAM", "Ramulator-2.0"],
        &rows,
    );
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    fig.note(format_args!(
        "\nEasyDRAM: avg {} max {} (paper: +2.75% avg, +9.76% max)",
        pct(geomean(&easy)),
        pct(max(&easy))
    ));
    fig.note(format_args!(
        "Ramulator: avg {} max {} (paper: +2.58% avg, +7.04% max)",
        pct(geomean(&ram_all)),
        pct(max(&ram_all))
    ));

    let n = easy_all.len();
    fig.claim(
        "§8.2",
        corrupted == 0,
        format!(
            "the Bloom filter keeps weak rows out: {corrupted} corrupted reads over {n} workloads"
        ),
    );
    let (slowest, slowest_name) =
        easy_all
            .iter()
            .copied()
            .fold((f64::INFINITY, ""), |w, e| if e.0 < w.0 { e } else { w });
    fig.claim(
        "Fig. 13",
        slowest > 1.0 / 1.005,
        format!(
            "tRCD reduction slows no workload: the least speedup is {} on {slowest_name} \
             (> -0.5%)",
            pct(slowest)
        ),
    );
    fig
}

/// A speedup as the percentage the paper plots.
fn pct(speedup: f64) -> String {
    format!("{:+.2}%", (speedup - 1.0) * 100.0)
}
