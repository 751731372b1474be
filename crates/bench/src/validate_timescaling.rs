//! §6 time-scaling validation: an EasyDRAM system emulating a 1 GHz
//! processor from a 100 MHz FPGA clock via time scaling, against an RTL
//! reference natively at 1 GHz making identical scheduling decisions.
//!
//! Paper: execution-time and memory-latency inaccuracy below 0.1 % on
//! average and below 1 % maximum, across 28 PolyBench workloads plus the
//! lmbench memory-read-latency benchmark.

use easydram::{ExecutionReport, System, SystemConfig, TimingMode};
use easydram_workloads::lmbench::LatMemRd;
use easydram_workloads::polybench;

use crate::{fmt_size, mean, Figure, Scale, MIB};

/// Reference first, then the time-scaled system.
const MODES: [TimingMode; 2] = [TimingMode::Reference, TimingMode::TimeScaling];

fn config(scale: Scale, mode: TimingMode) -> SystemConfig {
    scale.config(SystemConfig::validation_1ghz(mode))
}

/// Runs one workload on a fresh system of each mode and pins each report
/// under its mode's name.
fn pair(
    fig: &mut Figure,
    scale: Scale,
    mut run: impl FnMut(&mut System) -> ExecutionReport,
) -> [ExecutionReport; 2] {
    MODES.map(|mode| {
        let r = run(&mut System::new(config(scale, mode)));
        fig.section(mode, &r);
        r
    })
}

/// How far `x` is from `reference`, in percent.
fn pct(x: f64, reference: f64) -> f64 {
    (x - reference).abs() / reference * 100.0
}

/// The largest error and the workload it belongs to.
fn worst<'a>(errors: impl Iterator<Item = (f64, &'a str)>) -> (f64, &'a str) {
    errors.fold((0.0, ""), |w, e| if e.0 > w.0 { e } else { w })
}

pub(crate) fn run(scale: Scale) -> Figure {
    let mut fig = Figure::default();
    let all = polybench::all_names().to_vec();
    let kernels = scale.pick(vec![polybench::Jacobi1d::NAME], all.clone(), all);
    // Past the 512 KiB L2 at every scale, so the chase measures DRAM.
    let lm_bytes = scale.pick(MIB, MIB, 4 * MIB);

    let mut runs: Vec<(&str, [ExecutionReport; 2])> = kernels
        .into_iter()
        .map(|name| {
            let reports = pair(&mut fig, scale, |sys| sys.run(scale.kernel(name).as_mut()));
            (name, reports)
        })
        .collect();
    // The 29th workload: lmbench memory read latency.
    let mut cycles_per_load = Vec::new();
    let lmbench = pair(&mut fig, scale, |sys| {
        let mut w = LatMemRd::new(lm_bytes, 64);
        let r = sys.run(&mut w);
        cycles_per_load.push(w.cycles_per_load().expect("lmbench ran"));
        r
    });
    runs.push(("lat_mem_rd", lmbench));

    // (workload, execution-time error %, mean request latency error %)
    let mut errors = Vec::new();
    let mut rows = Vec::new();
    for (name, [reference, ts]) in &runs {
        let err = pct(ts.emulated_cycles as f64, reference.emulated_cycles as f64);
        let lat = [reference, ts].map(|r| r.metrics.request_latency.mean());
        errors.push((*name, err, pct(lat[1], lat[0])));
        rows.push(vec![
            name.to_string(),
            reference.emulated_cycles.to_string(),
            ts.emulated_cycles.to_string(),
            format!("{err:.4}%"),
            format!("{:.2}", lat[0]),
            format!("{:.2}", lat[1]),
        ]);
    }
    fig.table(
        "Time-scaling validation: 100 MHz FPGA clock emulating 1 GHz vs native 1 GHz reference",
        &[
            "workload",
            "reference cycles",
            "time-scaled cycles",
            "error",
            "ref req latency",
            "TS req latency",
        ],
        &rows,
    );
    let n = errors.len();
    let avg = mean(&errors.iter().map(|e| e.1).collect::<Vec<_>>());
    let (max, max_name) = worst(errors.iter().map(|e| (e.1, e.0)));
    let lat_avg = mean(&errors.iter().map(|e| e.2).collect::<Vec<_>>());
    let (lat_max, lat_max_name) = worst(errors.iter().map(|e| (e.2, e.0)));
    fig.note(format_args!(
        "\nExecution-time inaccuracy across {n} workloads: avg {avg:.4}% max {max:.4}%"
    ));
    fig.note(format_args!(
        "Mean request latency (cycles) differs by avg {lat_avg:.2}% max {lat_max:.2}% \
         ({lat_max_name}); not a paper bound, see docs/REPRODUCING.md"
    ));

    fig.claim(
        "§6",
        avg < 0.1,
        format!("execution-time inaccuracy over {n} workloads averages {avg:.4}% (< 0.1%)"),
    );
    fig.claim(
        "§6",
        max < 1.0,
        format!("execution-time inaccuracy peaks at {max:.4}% on {max_name} (< 1%)"),
    );
    let (cpl_ref, cpl_ts) = (cycles_per_load[0], cycles_per_load[1]);
    let lat_err = pct(cpl_ts, cpl_ref);
    fig.claim(
        "§6",
        lat_err < 0.1,
        format!(
            "lmbench memory latency: time-scaled {cpl_ts:.3} vs reference {cpl_ref:.3} \
             cycles/load, {lat_err:.4}% apart (< 0.1%)"
        ),
    );
    // A load that misses L1 and hits L2 costs both lookups; an L2-resident
    // chase reads just under that, a DRAM-bound one far above it.
    let core = config(scale, TimingMode::Reference).core;
    let l2_path: u64 = [core.l1, core.l2]
        .iter()
        .flatten()
        .map(|c| c.hit_latency_cycles)
        .sum();
    fig.claim(
        "§6",
        cpl_ref > l2_path as f64,
        format!(
            "the {} lmbench working set reaches DRAM: {cpl_ref:.1} cycles/load, above the \
             {l2_path}-cycle L1 + L2 hit path",
            fmt_size(lm_bytes)
        ),
    );
    fig
}
