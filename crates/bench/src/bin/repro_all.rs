//! Runs every table/figure harness in sequence (respects `EASYDRAM_QUICK`)
//! and writes a machine-readable record to `target/bench-report.json` so the
//! perf trajectory can be tracked across commits.
//!
//! Equivalent to running each `figNN_*`/`table1_*`/`validate_*` binary; see
//! `EXPERIMENTS.md` for the paper-vs-measured record.

use std::process::Command;
use std::time::Instant;

use easydram::{SystemConfig, TimingMode};
use easydram_bench::validate_system_timing;
use easydram_ramulator::RamulatorConfig;

/// Fail-fast gate over every canonical timing bin the harnesses below will
/// build, before any of them spends wall-clock: a contradictory bin aborts
/// the whole reproduction with structured `TimingContradiction` diagnostics
/// instead of surfacing as one harness's mystery failure mid-sequence.
fn validate_all_timing_configs() {
    validate_system_timing(
        "jetson-nano (time scaling)",
        &SystemConfig::jetson_nano(TimingMode::TimeScaling),
    );
    validate_system_timing(
        "jetson-nano (reference)",
        &SystemConfig::jetson_nano(TimingMode::Reference),
    );
    validate_system_timing("pidram-like", &SystemConfig::pidram_like());
    validate_system_timing(
        "validation-1ghz",
        &SystemConfig::validation_1ghz(TimingMode::TimeScaling),
    );
    validate_system_timing(
        "small-for-tests",
        &SystemConfig::small_for_tests(TimingMode::Reference),
    );
    easydram_bench::validate_timing("ramulator baseline", &RamulatorConfig::default().timing);
    println!("timing configurations validated (check_consistency clean).");
}

fn main() {
    validate_all_timing_configs();
    let exe = std::env::current_exe().expect("own path");
    let dir = exe.parent().expect("bin dir");
    let bins = [
        "table1_platforms",
        "validate_timescaling",
        "fig8_latency_profile",
        "fig10_rowclone_noflush",
        "fig11_rowclone_clflush",
        "fig12_trcd_heatmap",
        "fig13_trcd_speedup",
        "fig14_sim_speed",
        "fig_channel_sweep",
        "fig_multicore_contention",
        "fig_rowhammer",
        "fig_latency_cdf",
    ];
    // Stale sweep records must not masquerade as this run's numbers — the
    // aggregate report included.
    std::fs::remove_file("target/channel-sweep.json").ok();
    std::fs::remove_file("target/multicore-contention.json").ok();
    std::fs::remove_file("target/rowhammer.json").ok();
    std::fs::remove_file("target/sim-speed.json").ok();
    std::fs::remove_file("target/latency-cdf.json").ok();
    std::fs::remove_file("target/trace.json").ok();
    std::fs::remove_file("target/trace.bin").ok();
    std::fs::remove_file("target/bench-report.json").ok();
    let mut runs: Vec<(String, bool, f64)> = Vec::new();
    for bin in bins {
        println!("\n########## {bin} ##########");
        let t0 = Instant::now();
        let status = Command::new(dir.join(bin)).status();
        let ok = matches!(status, Ok(s) if s.success());
        if !ok {
            eprintln!("{bin} failed: {status:?}");
        }
        runs.push((bin.to_string(), ok, t0.elapsed().as_secs_f64()));
    }
    let report_path = "target/bench-report.json";
    // The channel sweep leaves a per-channel record behind; embed it so the
    // bench report carries the scaling trajectory alongside pass/fail. Only
    // a record produced by a *successful* run of this sequence qualifies.
    let section_ok = |bin: &str| runs.iter().any(|(name, ok, _)| name == bin && *ok);
    let sections: Vec<(&str, String)> = [
        (
            "channel_sweep",
            "fig_channel_sweep",
            "target/channel-sweep.json",
        ),
        (
            "multicore_contention",
            "fig_multicore_contention",
            "target/multicore-contention.json",
        ),
        ("rowhammer", "fig_rowhammer", "target/rowhammer.json"),
        ("sim_speed", "fig14_sim_speed", "target/sim-speed.json"),
        ("latency_cdf", "fig_latency_cdf", "target/latency-cdf.json"),
    ]
    .into_iter()
    .filter_map(|(key, bin, path)| {
        std::fs::read_to_string(path)
            .ok()
            .filter(|_| section_ok(bin))
            .map(|json| (key, json))
    })
    .collect();
    let wrote =
        match easydram_bench::write_bench_report_with_sections(report_path, &runs, &sections) {
            Ok(()) => {
                println!("\nwrote {report_path}");
                true
            }
            Err(e) => {
                eprintln!("\ncould not write {report_path}: {e}");
                false
            }
        };
    // Schema-8 contract: the report written by *this* run must self-identify
    // as schema 8 and, when the relevant harness succeeded, carry its
    // section with the fields downstream tooling keys on. (The files were
    // removed up front, so a failed write cannot validate stale data.)
    if wrote {
        let report = std::fs::read_to_string(report_path).expect("just wrote the report");
        assert!(
            report.contains("\"schema\": 8"),
            "bench report must declare schema 8"
        );
        if section_ok("fig_rowhammer") {
            for field in [
                "\"rowhammer\": {",
                "\"defense\"",
                "\"iterations\"",
                "\"flips\"",
                "\"targeted_refreshes\"",
                "\"overhead\"",
            ] {
                assert!(
                    report.contains(field),
                    "schema-5 rowhammer section is missing {field}"
                );
            }
        }
        if section_ok("fig14_sim_speed") {
            for field in [
                "\"sim_speed\": {",
                "\"table_ns_per_cmd\"",
                "\"oracle_ns_per_cmd\"",
                "\"speedup\"",
                "\"threshold\"",
                "\"commands\"",
            ] {
                assert!(
                    report.contains(field),
                    "sim_speed section is missing {field}"
                );
            }
        }
        if section_ok("fig_latency_cdf") {
            for field in [
                "\"latency_cdf\": {",
                "\"requests\"",
                "\"p50_cycles\"",
                "\"p95_cycles\"",
                "\"p99_cycles\"",
                "\"trace_events\"",
                "\"trace_dropped\"",
            ] {
                assert!(
                    report.contains(field),
                    "schema-7 latency_cdf section is missing {field}"
                );
            }
        }
        println!("bench-report schema 8 validated.");
    }
    let failures: Vec<&str> = runs
        .iter()
        .filter(|(_, ok, _)| !ok)
        .map(|(name, _, _)| name.as_str())
        .collect();
    if failures.is_empty() {
        println!("All experiment harnesses completed.");
    } else {
        eprintln!("Failed harnesses: {failures:?}");
        std::process::exit(1);
    }
}
