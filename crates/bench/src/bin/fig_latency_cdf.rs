//! Request-latency CDF and trace export: the observability layer's figure
//! harness.
//!
//! Runs the contention rig (a shuffled pointer chase against a streaming
//! writer on a shared 2-channel tile) with event tracing **enabled**, then:
//!
//! * reports the request-latency percentiles (p50/p95/p99, in core cycles)
//!   from the always-on log2 histograms — total and read/write split;
//! * drains the structured trace and exports it as Chrome trace-event JSON
//!   (`target/trace.json`, loadable at <https://ui.perfetto.dev>) and as the
//!   compact binary dump (`target/trace.bin`);
//! * self-validates the exports: the JSON must pass
//!   [`validate_chrome_json`], per-track timestamps must be monotone, and
//!   the binary dump must round-trip losslessly — so the CI `trace-smoke`
//!   job just runs this binary;
//! * proves the observer effect is zero by re-running the identical rig
//!   with tracing off and asserting a byte-identical aggregate report.
//!
//! Leaves `target/latency-cdf.json` behind for `repro_all` to embed into
//! bench-report schema 7 under `latency_cdf`.

use easydram::json::JsonWriter;
use easydram::{
    validate_chrome_json, MultiCoreSystem, SystemConfig, TimingMode, TraceConfig, TraceLog,
};
use easydram_bench::{print_table, quick, write_record};
use easydram_cpu::CacheConfig;
use easydram_workloads::lmbench::LatMemRd;
use easydram_workloads::StreamWriter;

/// Emulation-order skew bound, matched to `fig_multicore_contention`.
const QUANTUM: u64 = 40;

/// The contention rig with tracing dialed in explicitly (`trace: Some` wins
/// over the `EASYDRAM_TRACE` environment), or off for the observer-effect
/// control run.
fn rig(trace: Option<TraceConfig>) -> SystemConfig {
    let mut cfg = SystemConfig::small_for_tests(TimingMode::Reference);
    cfg.dram.geometry.channels = 2;
    cfg.dram.geometry.bank_groups = 2;
    cfg.dram.geometry.banks_per_group = 4;
    cfg.core.l1 = Some(CacheConfig {
        size_bytes: 4 * 1024,
        ways: 2,
        hit_latency_cycles: 4,
    });
    cfg.core.l2 = Some(CacheConfig {
        size_bytes: 32 * 1024,
        ways: 4,
        hit_latency_cycles: 12,
    });
    cfg.trace = trace;
    cfg
}

/// One traced (or control) co-run; returns the deterministic report surface
/// plus, when traced, the drained trace log.
fn co_run(
    trace: Option<TraceConfig>,
    chase_loads: u64,
    chase_bytes: u64,
) -> (easydram::ExecutionReport, Option<TraceLog>) {
    let mut chase = LatMemRd::shuffled_with_loads(chase_bytes, 64, chase_loads);
    let mut writer = StreamWriter::new(128 * 1024, 1_000_000);
    let mut sys = MultiCoreSystem::new(rig(trace), 2);
    sys.set_quantum(QUANTUM);
    let r = sys.co_run(&mut [&mut chase, &mut writer]);
    let log = trace.map(|_| sys.take_trace());
    (r.aggregate, log)
}

fn main() {
    let (chase_loads, chase_bytes) = if quick() {
        (1_024, 64 * 1024)
    } else {
        (2_048, 128 * 1024)
    };
    let traced_cfg = Some(TraceConfig::default());
    let (report, log) = co_run(traced_cfg, chase_loads, chase_bytes);
    let mut log = log.expect("traced run drains a log");

    // --- Latency percentiles from the always-on histograms. ---
    let m = report.metrics;
    let (p50, p95, p99) = m.latency_percentiles();
    let rows: Vec<Vec<String>> = [
        ("all requests", &m.request_latency),
        ("reads", &m.read_latency),
        ("writes", &m.write_latency),
    ]
    .iter()
    .map(|(label, h)| {
        vec![
            (*label).to_string(),
            format!("{}", h.count),
            format!("{}", h.percentile(50)),
            format!("{}", h.percentile(95)),
            format!("{}", h.percentile(99)),
            format!("{:.1}", h.mean()),
        ]
    })
    .collect();
    print_table(
        &format!("Request latency CDF (core cycles, {chase_loads}-load chase vs writer)"),
        &["class", "n", "p50", "p95", "p99", "mean"],
        &rows,
    );

    // --- Exports + self-validation. ---
    log.sort_for_export();
    let chrome = log.to_chrome_json();
    if let Err(e) = validate_chrome_json(&chrome) {
        eprintln!("chrome trace export is malformed: {e}");
        std::process::exit(1);
    }
    assert!(
        log.tracks_monotone(),
        "per-track timestamps must be monotone after sort_for_export"
    );
    let binary = log.to_binary();
    let parsed = TraceLog::parse_binary(&binary).unwrap_or_else(|| {
        eprintln!("binary trace dump does not round-trip");
        std::process::exit(1);
    });
    assert_eq!(parsed, log.events, "binary round-trip must be lossless");
    std::fs::create_dir_all("target").ok();
    std::fs::write("target/trace.json", &chrome).expect("write target/trace.json");
    std::fs::write("target/trace.bin", &binary).expect("write target/trace.bin");
    println!(
        "\nwrote target/trace.json ({} events, {} bytes; load it at ui.perfetto.dev) \
         and target/trace.bin ({} bytes)",
        log.events.len(),
        chrome.len(),
        binary.len()
    );
    assert!(
        !log.events.is_empty(),
        "a traced co-run must produce events"
    );

    // --- Observer-effect control: tracing off, byte-identical report. ---
    let (control, none) = co_run(None, chase_loads, chase_bytes);
    assert!(none.is_none(), "control run must not trace");
    let traced_surface = format!("{report:#?}");
    let control_surface = format!("{control:#?}");
    assert!(
        traced_surface == control_surface,
        "tracing changed the report — the observability layer must be invisible"
    );
    println!("observer effect: zero (traced and untraced reports byte-identical).");

    let mut w = JsonWriter::new();
    w.begin_object()
        .key("requests")
        .number(m.request_latency.count);
    w.key("p50_cycles").number(p50);
    w.key("p95_cycles").number(p95);
    w.key("p99_cycles").number(p99);
    w.key("trace_events").number(log.events.len());
    w.key("trace_dropped").number(log.dropped).end_object();
    write_record("target/latency-cdf.json", &w.finish());
    println!(
        "latency_cdf: requests={} p50={p50} p95={p95} p99={p99} trace_events={} dropped={}",
        m.request_latency.count,
        log.events.len(),
        log.dropped
    );
}
