//! §6 time-scaling validation: an EasyDRAM system emulating a 1 GHz
//! processor from a 100 MHz FPGA clock via time scaling, against an RTL
//! reference system natively at 1 GHz making identical scheduling decisions.
//!
//! Paper: execution-time and memory-latency inaccuracy below 0.1 % on
//! average and below 1 % maximum across 28 PolyBench workloads plus the
//! lmbench memory-read-latency benchmark.

use easydram::{System, SystemConfig, TimingMode};
use easydram_bench::{print_table, quick};
use easydram_cpu::Workload;
use easydram_workloads::lmbench::LatMemRd;
use easydram_workloads::{validation_suite, PolySize};

fn run_pair(mk: impl Fn() -> Box<dyn Workload>) -> (u64, u64) {
    let ts_cfg = SystemConfig::validation_1ghz(TimingMode::TimeScaling);
    let mut ts = System::new(ts_cfg);
    let mut w = mk();
    let ts_cycles = ts.run(w.as_mut()).emulated_cycles;
    let mut reference = System::new(SystemConfig::validation_1ghz(TimingMode::Reference));
    let mut w = mk();
    let ref_cycles = reference.run(w.as_mut()).emulated_cycles;
    (ts_cycles, ref_cycles)
}

fn main() {
    let size = if quick() {
        PolySize::Mini
    } else {
        PolySize::Small
    };
    let names: Vec<String> = validation_suite(size)
        .iter()
        .map(|w| w.name().to_string())
        .collect();
    let mut rows = Vec::new();
    let mut errors = Vec::new();
    for name in &names {
        let n = name.clone();
        let (ts, reference) =
            run_pair(move || easydram_workloads::polybench::by_name(&n, size).expect("kernel"));
        let err = (ts as f64 - reference as f64).abs() / reference as f64 * 100.0;
        errors.push(err);
        rows.push(vec![
            name.clone(),
            reference.to_string(),
            ts.to_string(),
            format!("{err:.4}%"),
        ]);
        eprintln!("  done {name}: err {err:.4}%");
    }
    // The 29th workload: lmbench memory read latency.
    let lm_size = if quick() { 256 * 1024 } else { 4 * 1024 * 1024 };
    let (ts, reference) = run_pair(move || Box::new(LatMemRd::new(lm_size, 64)));
    let err = (ts as f64 - reference as f64).abs() / reference as f64 * 100.0;
    errors.push(err);
    rows.push(vec![
        "lat_mem_rd".into(),
        reference.to_string(),
        ts.to_string(),
        format!("{err:.4}%"),
    ]);
    print_table(
        "Time-scaling validation: 100 MHz FPGA clock emulating 1 GHz vs native 1 GHz reference",
        &[
            "workload",
            "reference cycles",
            "time-scaled cycles",
            "error",
        ],
        &rows,
    );
    let avg = errors.iter().sum::<f64>() / errors.len() as f64;
    let max = errors.iter().cloned().fold(0.0f64, f64::max);
    println!(
        "\nExecution-time inaccuracy across {} workloads: avg {avg:.4}% max {max:.4}%",
        errors.len()
    );
    println!(
        "Paper: < 0.1% average, < 1% maximum. PASS: {}",
        avg < 0.1 && max < 1.0
    );
}
