//! Runs every table/figure harness in sequence (respects `EASYDRAM_QUICK`)
//! and writes a machine-readable record to `target/bench-report.json` so the
//! perf trajectory can be tracked across commits.
//!
//! Equivalent to running each `figNN_*`/`table1_*`/`validate_*` binary; see
//! `EXPERIMENTS.md` for the paper-vs-measured record. `repro_all --check
//! <record>...` runs only the structural check of section records.

use std::process::Command;
use std::time::Instant;

use easydram::json::key_paths;
use easydram_bench::{bench_report_json, write_record};

/// The sweep records the harnesses leave behind for the bench report: the
/// report's section key (the record is `target/<key, dashed>.json`), the
/// harness that writes it, and the key paths downstream tooling reads.
const SECTIONS: [(&str, &str, &str); 5] = [
    (
        "channel_sweep",
        "fig_channel_sweep",
        "stream_reads channels.channels channels.stream_cycles channels.speedup",
    ),
    (
        "multicore_contention",
        "fig_multicore_contention",
        "chase_loads channels.channels channels.solo_cycles_per_load \
         channels.corun_cycles_per_load channels.degradation",
    ),
    (
        "rowhammer",
        "fig_rowhammer",
        "points.defense points.iterations points.flips points.cycles \
         points.targeted_refreshes points.overhead",
    ),
    (
        "sim_speed",
        "fig14_sim_speed",
        "commands samples table_ns_per_cmd oracle_ns_per_cmd speedup threshold pass",
    ),
    (
        "latency_cdf",
        "fig_latency_cdf",
        "requests p50_cycles p95_cycles p99_cycles trace_events trace_dropped",
    ),
];

fn record_path(key: &str) -> String {
    format!("target/{}.json", key.replace('_', "-"))
}

/// Reads the section record at `path` and checks it structurally: the
/// document is well-formed and carries every key path of its section.
fn checked_section(path: &str) -> Result<String, String> {
    let (.., fields) = SECTIONS
        .iter()
        .find(|(key, ..)| record_path(key) == path)
        .ok_or_else(|| format!("{path} is not a bench-report section"))?;
    let json = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let paths = key_paths(&json).map_err(|e| format!("{path}: {e}"))?;
    match fields.split_whitespace().find(|f| !paths.contains(*f)) {
        Some(missing) => Err(format!("{path} is missing `{missing}`")),
        None => Ok(json),
    }
}

fn main() {
    // `repro_all --check <record>...`: only the structural section check,
    // over records an earlier harness run left behind (CI's gate).
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some((flag, records)) = args.split_first() {
        assert_eq!(flag, "--check", "usage: repro_all [--check <record>...]");
        for path in records {
            if let Err(e) = checked_section(path) {
                eprintln!("{e}");
                std::process::exit(1);
            }
            println!("{path}: section check passed");
        }
        return;
    }
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
    for (key, ..) in SECTIONS {
        std::fs::remove_file(record_path(key)).ok();
    }
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
    // Embed each sweep record, so the bench report carries the trajectories
    // alongside pass/fail. Only a record produced by a *successful* run of
    // this sequence qualifies (the files were removed up front), and it must
    // pass the structural check: a malformed section fails the reproduction.
    let mut sections = Vec::new();
    for (key, bin, _) in SECTIONS {
        if runs.iter().any(|(name, ok, _)| name == bin && *ok) {
            match checked_section(&record_path(key)) {
                Ok(json) => sections.push((key, json)),
                Err(e) => {
                    eprintln!("{e}");
                    runs.push((format!("{key} section check"), false, 0.0));
                }
            }
        }
    }
    let report = bench_report_json(&runs, &sections);
    key_paths(&report).expect("the bench report is well-formed");
    write_record("target/bench-report.json", &report);
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
