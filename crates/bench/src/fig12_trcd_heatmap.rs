//! Figure 12: minimum reliable tRCD of rows across two banks, profiled with
//! real requests end to end through the software memory controller and
//! DRAM Bender (§8.1), drawn as a 64×64 group/row heatmap per bank.
//!
//! Paper observations: (1) every cache line works below the nominal
//! 13.5 ns; (2) 84.5 % of cache lines are strong (≤ 9.0 ns); (3) weak cells
//! cluster in specific banks and areas.

use easydram::profiling::TrcdProfiler;
use easydram::{System, SystemConfig, TimingMode};

use crate::{Figure, Scale};

const BANKS: u32 = 2;

/// One bank's grid as ASCII art: one character per 64-row group, columns
/// are group ids and rows are rows-in-group, downsampled 2×.
fn render(fig: &mut Figure, grid: &[Vec<f64>]) {
    fig.note("      tRCD ns:  .<9.0  -<9.5  +<10.0  *<10.5  #>=10.5");
    for y in (0..64).step_by(2) {
        let line: String = grid
            .iter()
            .map(|gx| match (gx[y] + gx[y + 1]) / 2.0 {
                v if v <= 0.0 => ' ',
                v if v < 9.0 => '.',
                v if v < 9.5 => '-',
                v if v < 10.0 => '+',
                v if v < 10.5 => '*',
                _ => '#',
            })
            .collect();
        fig.note(format_args!("    {line}"));
    }
}

pub(crate) fn run(scale: Scale) -> Figure {
    let mut fig = Figure::default();
    let mut sys = System::new(scale.config(SystemConfig::jetson_nano(TimingMode::Reference)));
    let rows = scale.pick(32, 1024, 4096);
    let profiler = TrcdProfiler {
        cols_sampled: scale.pick(1, 2, 4),
        ..TrcdProfiler::default()
    };
    let out = profiler.profile_region(&mut sys, BANKS, rows);
    let minima: Vec<u64> = out.rows.iter().map(|r| r.2).collect();
    fig.section(
        "min tRCD per profiled row, ps (bank 0, then bank 1)",
        &minima,
    );
    fig.section("report", &sys.report("fig12"));

    let ns = |ps: u64| ps as f64 / 1000.0;
    let nominal = sys.tile().channel_device(0).timing().t_rcd_ps;
    let (min, max) = out.min_max_ps().expect("profiled rows");
    fig.note("\n== Figure 12: minimum reliable tRCD across two banks ==");
    for bank in 0..BANKS {
        fig.note(format_args!(
            "\n  Bank {bank} (x: group id 0-63, y: row in group):"
        ));
        render(&mut fig, &out.grid_ns(bank));
    }
    let strong = out.strong_fraction() * 100.0;
    let weak = out
        .rows
        .iter()
        .filter(|r| r.2 > profiler.strong_threshold_ps)
        .count();
    fig.note(format_args!(
        "\nObserved range: {:.2} - {:.2} ns; nominal {:.1} ns",
        ns(min),
        ns(max),
        ns(nominal)
    ));

    fig.claim(
        "Fig. 12",
        max < nominal,
        format!(
            "every profiled row works below the nominal {:.1} ns: the slowest needs {:.2} ns",
            ns(nominal),
            ns(max)
        ),
    );
    fig.claim(
        "Fig. 12",
        strong > 55.0,
        format!(
            "strong rows (<= {:.1} ns) are the majority: {strong:.1}% (paper: 84.5% of cache \
             lines; > 55%)",
            ns(profiler.strong_threshold_ps)
        ),
    );
    fig.claim(
        "Fig. 12",
        weak > 0,
        format!("weak rows exist: {weak} of {} profiled", out.rows.len()),
    );
    fig
}
