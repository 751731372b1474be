//! Figure 14: simulation speed (simulated processor cycles per wall second)
//! of EasyDRAM and Ramulator 2.0 across PolyBench workloads.
//!
//! Paper: EasyDRAM is 5.9× faster on average (20.3× max); the advantage
//! grows as memory intensity falls (`durbin`, with 0.01 LLC misses per kilo
//! cycle, benefits most). EasyDRAM's wall clock is the modeled FPGA time
//! (processor-domain execution + frozen SMC/DRAM-Bender intervals);
//! Ramulator's is the documented software-simulator cost model, with this
//! Rust implementation's actually measured host speed printed alongside.
//!
//! The harness additionally races the serve loop's two timing back ends —
//! the precomputed timing-table hot path against the rule-based oracle
//! checker it replaced — over an identical deterministic command stream,
//! writes the medians to `target/sim-speed.json`, and **fails (exit 1)**
//! if the table path is less than [`SIM_SPEED_THRESHOLD`]× faster. This is
//! the CI regression gate for the hot-path rewrite.

use easydram::json::JsonWriter;
use easydram::{System, SystemConfig, TimingMode};
use easydram_bench::{
    geomean, median_ns_per_cmd, print_table, quick, ramulator, run_oracle_kernel, run_table_kernel,
    sim_speed_geometry, sim_speed_stream, write_record, SIM_SPEED_THRESHOLD,
};
use easydram_dram::TimingParams;
use easydram_workloads::{fig13_names, polybench, PolySize};

fn main() {
    let size = if quick() {
        PolySize::Mini
    } else {
        PolySize::Small
    };
    let mut rows = Vec::new();
    let mut ratios = Vec::new();
    let mut best: Option<(String, f64)> = None;
    for name in fig13_names() {
        let cfg = SystemConfig::jetson_nano(TimingMode::TimeScaling);
        let mut sys = System::new(cfg);
        let mut w = polybench::by_name(name, size).expect("kernel");
        let er = sys.run(w.as_mut());
        let mut ram = ramulator();
        let mut w = polybench::by_name(name, size).expect("kernel");
        let rr = ram.run(w.as_mut());
        let ratio = er.sim_speed_hz / rr.modeled_speed_hz.max(1.0);
        ratios.push(ratio);
        if best.as_ref().map_or(true, |(_, b)| ratio > *b) {
            best = Some((name.to_string(), ratio));
        }
        rows.push(vec![
            name.to_string(),
            format!("{:.2}", er.sim_speed_hz / 1e6),
            format!("{:.2}", rr.modeled_speed_hz / 1e6),
            format!(
                "{:.2}",
                rr.simulated_cycles as f64 / rr.host_wall_seconds.max(1e-9) / 1e6
            ),
            format!("{:.1}x", ratio),
            format!("{:.2}", er.mem_reads_per_kilo_cycle),
        ]);
        eprintln!("  done {name}");
    }
    print_table(
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
    let (best_name, best_ratio) = best.expect("workloads ran");
    println!(
        "\nEasyDRAM vs Ramulator (modeled): avg {:.1}x, max {:.1}x on {best_name} \
         (paper: 5.9x avg, 20.3x max on durbin)",
        geomean(&ratios),
        best_ratio
    );
    println!(
        "Shape check: the advantage should peak on the least memory-intensive workload (durbin)."
    );

    serve_loop_regression_gate();
}

/// Races the timing-table serve-loop kernel against the rule-based oracle
/// on the same stream, records the result, and exits non-zero when the
/// speedup regresses below the threshold.
fn serve_loop_regression_gate() {
    let (commands, samples) = if quick() { (40_000, 5) } else { (200_000, 7) };
    let geometry = sim_speed_geometry();
    let timing = TimingParams::ddr4_1333();
    let stream = sim_speed_stream(commands, &geometry, &timing);

    // Digest equality doubles as an online differential check: if the table
    // path ever disagrees with the oracle, the speedup number is meaningless.
    assert_eq!(
        run_table_kernel(&geometry, &timing, &stream),
        run_oracle_kernel(&geometry, &timing, &stream),
        "table and oracle kernels diverged on the shared stream"
    );

    let table_ns = median_ns_per_cmd(samples, commands, || {
        run_table_kernel(&geometry, &timing, &stream)
    });
    let oracle_ns = median_ns_per_cmd(samples, commands, || {
        run_oracle_kernel(&geometry, &timing, &stream)
    });
    let speedup = oracle_ns / table_ns;
    print_table(
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
    println!(
        "\nTiming-table hot path is {speedup:.2}x faster than the rule-based oracle \
         ({commands} commands, median of {samples} samples; threshold {SIM_SPEED_THRESHOLD:.1}x)."
    );
    let pass = speedup >= SIM_SPEED_THRESHOLD;
    let mut w = JsonWriter::new();
    w.begin_object().key("commands").number(commands);
    w.key("samples").number(samples);
    w.key("table_ns_per_cmd")
        .number(format_args!("{table_ns:.3}"));
    w.key("oracle_ns_per_cmd")
        .number(format_args!("{oracle_ns:.3}"));
    w.key("speedup").number(format_args!("{speedup:.3}"));
    w.key("threshold")
        .number(format_args!("{SIM_SPEED_THRESHOLD:.1}"));
    w.key("pass").bool(pass).end_object();
    write_record("target/sim-speed.json", &w.finish());
    if !pass {
        eprintln!(
            "FAIL: serve-loop speedup {speedup:.2}x is below the {SIM_SPEED_THRESHOLD:.1}x \
             regression threshold"
        );
        std::process::exit(1);
    }
}
