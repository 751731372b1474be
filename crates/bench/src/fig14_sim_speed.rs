//! Figure 14: simulation speed (simulated processor cycles per wall second)
//! of EasyDRAM and Ramulator 2.0 across PolyBench workloads.
//!
//! Paper: EasyDRAM is 5.9× faster on average (20.3× max); the advantage
//! grows as memory intensity falls (`durbin`, with 0.01 LLC misses per kilo
//! cycle, benefits most). EasyDRAM's wall clock is the modeled FPGA time
//! (processor-domain execution + frozen SMC/DRAM-Bender intervals);
//! Ramulator's is the documented software-simulator cost model, with this
//! Rust implementation's measured host speed printed alongside.
//!
//! An optimised build also races the serve loop's two timing back ends,
//! the precomputed timing table against the rule-based oracle checker it
//! replaced, over one deterministic command stream, and claims the table is
//! at least [`SIM_SPEED_THRESHOLD`]× faster. That claim times host code, so
//! an unoptimised build (which fails it) skips the race.

use easydram::{System, SystemConfig, TimingMode};
use easydram_dram::TimingParams;
use easydram_ramulator::RamulatorConfig;
use easydram_workloads::{fig13_names, polybench};

use crate::{
    geomean, median_ns_per_cmd, run_oracle_kernel, run_table_kernel, sim_speed_geometry,
    sim_speed_stream, Figure, Scale, SIM_SPEED_THRESHOLD,
};

pub(crate) fn run(scale: Scale) -> Figure {
    let mut fig = Figure::default();
    let kernels = scale.pick(vec![polybench::Durbin::NAME], fig13_names(), fig13_names());
    let mut rows = Vec::new();
    // (workload, EasyDRAM / Ramulator speed ratio, LLC misses per kilo cycle)
    let mut points = Vec::new();
    for name in kernels {
        let mut sys = System::new(scale.config(SystemConfig::jetson_nano(TimingMode::TimeScaling)));
        let easy = sys.run(scale.kernel(name).as_mut());
        fig.section(format_args!("easydram {name}"), &easy);
        let mut w = scale.kernel(name);
        let ram = fig.ramulator(
            format_args!("ramulator {name}"),
            RamulatorConfig::default(),
            w.as_mut(),
        );
        let ratio = easy.sim_speed_hz / ram.modeled_speed_hz.max(1.0);
        points.push((name, ratio, easy.mem_reads_per_kilo_cycle));
        rows.push(vec![
            name.to_string(),
            format!("{:.2}", easy.sim_speed_hz / 1e6),
            format!("{:.2}", ram.modeled_speed_hz / 1e6),
            format!(
                "{:.2}",
                ram.simulated_cycles as f64 / ram.host_wall_seconds.max(1e-9) / 1e6
            ),
            format!("{ratio:.1}x"),
            format!("{:.2}", easy.mem_reads_per_kilo_cycle),
        ]);
    }
    fig.table(
        "Figure 14: simulation speed (MHz = 1e6 simulated cycles / wall second)",
        &[
            "workload",
            "EasyDRAM",
            "Ramulator (modeled)",
            "Ramulator (host, this impl)",
            "ratio",
            "LLC-MPKC",
        ],
        &rows,
    );
    let ratios: Vec<f64> = points.iter().map(|p| p.1).collect();
    let fastest = points.iter().max_by(|a, b| a.1.total_cmp(&b.1));
    let least_intensive = points.iter().min_by(|a, b| a.2.total_cmp(&b.2));
    let (fastest, best) = fastest.map_or(("", f64::NAN), |p| (p.0, p.1));
    let least_intensive = least_intensive.map_or("", |p| p.0);
    fig.note(format_args!(
        "\nEasyDRAM vs Ramulator (modeled): avg {:.1}x, max {best:.1}x on {fastest} \
         (paper: 5.9x avg, 20.3x max on durbin)",
        geomean(&ratios)
    ));

    let slowest = ratios.iter().copied().fold(f64::INFINITY, f64::min);
    fig.claim(
        "Fig. 14",
        slowest > 1.0,
        format!(
            "EasyDRAM outruns the software simulator on all {} workloads (least {slowest:.1}x)",
            ratios.len()
        ),
    );
    fig.claim(
        "Fig. 14",
        fastest == least_intensive,
        format!(
            "the advantage peaks on the least memory-intensive workload: fastest {fastest}, \
             fewest LLC misses {least_intensive}"
        ),
    );
    if !cfg!(debug_assertions) {
        serve_loop_race(&mut fig, scale);
    }
    fig
}

/// Races the timing-table serve-loop kernel against the rule-based oracle
/// on the same stream and claims the table's speedup.
fn serve_loop_race(fig: &mut Figure, scale: Scale) {
    let (commands, samples) = scale.pick((40_000, 5), (40_000, 5), (200_000, 7));
    let geometry = sim_speed_geometry();
    let timing = TimingParams::ddr4_1333();
    let stream = sim_speed_stream(commands, &geometry, &timing);
    let table = || run_table_kernel(&geometry, &timing, &stream);
    let oracle = || run_oracle_kernel(&geometry, &timing, &stream);
    let table_ns = median_ns_per_cmd(samples, commands, table);
    let oracle_ns = median_ns_per_cmd(samples, commands, oracle);
    let speedup = oracle_ns / table_ns;
    fig.table(
        "Serve-loop kernel: timing table vs rule-based oracle",
        &["kernel", "ns/cmd (median)", "speedup"],
        &[
            vec!["table".into(), format!("{table_ns:.1}"), "1.0x".into()],
            vec![
                "oracle".into(),
                format!("{oracle_ns:.1}"),
                format!("{speedup:.2}x slower"),
            ],
        ],
    );
    // If the two ever disagree, the speedup is meaningless.
    fig.claim(
        "Fig. 14",
        table() == oracle(),
        format!("the timing table and the rule oracle agree on a {commands}-command stream"),
    );
    fig.claim(
        "Fig. 14",
        speedup >= SIM_SPEED_THRESHOLD,
        format!(
            "the timing table serves commands {speedup:.2}x faster than the rule oracle \
             (median of {samples}; >= {SIM_SPEED_THRESHOLD:.1}x)"
        ),
    );
}
