//! Criterion benches for the serve loop's timing back ends: the precomputed
//! timing-table hot path vs the rule-based oracle checker it replaced.
//!
//! The table-vs-oracle regression threshold is enforced by the
//! `fig14_sim_speed` harness, which records it. The gate here prices the
//! observability layer: with tracing off (the gate hoisted out of the
//! command loop, as in the tile's serve pass), the kernel must stay within
//! [`OBS_OVERHEAD_LIMIT`]× of the bare kernel's median. The offline
//! criterion shim keeps no saved baselines, so it is enforced directly on
//! median timings.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use easydram_bench::{
    median_ns_per_cmd, run_oracle_kernel, run_table_kernel, run_table_kernel_obs,
    sim_speed_geometry, sim_speed_stream, OBS_OVERHEAD_LIMIT,
};
use easydram_dram::TimingParams;

fn serve_loop(c: &mut Criterion) {
    let commands = 20_000;
    let geometry = sim_speed_geometry();
    let timing = TimingParams::ddr4_1333();
    let stream = sim_speed_stream(commands, &geometry, &timing);

    let mut g = c.benchmark_group("serve_loop");
    g.throughput(Throughput::Elements(commands as u64));
    g.bench_function("timing_table", |b| {
        b.iter(|| black_box(run_table_kernel(&geometry, &timing, &stream)));
    });
    g.bench_function("rule_oracle", |b| {
        b.iter(|| black_box(run_oracle_kernel(&geometry, &timing, &stream)));
    });
    g.bench_function("timing_table_trace_off", |b| {
        b.iter(|| black_box(run_table_kernel_obs(&geometry, &timing, &stream, None)));
    });
    g.bench_function("timing_table_trace_on", |b| {
        b.iter(|| {
            black_box(run_table_kernel_obs(
                &geometry,
                &timing,
                &stream,
                Some(65_536),
            ))
        });
    });
    g.finish();

    // Observability gate: tracing off must be free (within noise). Each
    // round measures the pair back to back so host frequency drift cancels
    // within the round; the min over rounds discards one-off noise spikes
    // (a real regression inflates every round, so the min still catches it).
    let overhead = (0..3)
        .map(|_| {
            let t = median_ns_per_cmd(5, commands, || {
                run_table_kernel(&geometry, &timing, &stream)
            });
            let o = median_ns_per_cmd(5, commands, || {
                run_table_kernel_obs(&geometry, &timing, &stream, None)
            });
            o / t
        })
        .fold(f64::INFINITY, f64::min);
    println!("serve_loop trace-off overhead: {overhead:.3}x (limit {OBS_OVERHEAD_LIMIT:.2}x)");
    assert!(
        overhead <= OBS_OVERHEAD_LIMIT,
        "observability regression: the tracing-off kernel costs {overhead:.3}x \
         over the bare kernel (limit {OBS_OVERHEAD_LIMIT:.2}x)"
    );
}

criterion_group!(benches, serve_loop);
criterion_main!(benches);
