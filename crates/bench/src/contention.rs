//! The contention rig (beyond the paper): a shuffled lmbench pointer chase
//! co-run against an elastic streaming writer, as two requestors of one
//! `MultiCoreSystem` over a shared tile. Two figures use it:
//!
//! * [`multicore`]: the chase's slowdown under contention, swept over
//!   channel counts, with per-requestor bandwidth shares;
//! * [`latency_cdf`]: the request-latency percentiles of a traced co-run,
//!   its Chrome-trace and binary exports, and the proof that tracing moves
//!   no report byte.

use easydram::{
    validate_chrome_json, ExecutionReport, MultiCoreSystem, SystemConfig, TimingMode, TraceConfig,
    TraceLog,
};
use easydram_cpu::{CacheConfig, Workload};
use easydram_workloads::lmbench::LatMemRd;
use easydram_workloads::StreamWriter;

use crate::{Figure, Scale, KIB};

/// Emulation-order skew bound for the co-run (see
/// `easydram::multicore::DEFAULT_QUANTUM_CYCLES`); interference studies keep
/// it well under one DRAM round trip.
const QUANTUM: u64 = 40;

/// The small-row test device with 8 banks per channel and a shrunken cache
/// hierarchy (4 KiB L1, 32 KiB L2), so a memory-resident chase stays cheap
/// to emulate while the contended resource, the per-channel bus, behaves
/// like the full-size system's.
fn rig(scale: Scale, channels: u32) -> SystemConfig {
    let mut cfg = scale.config(SystemConfig::small_for_tests(TimingMode::Reference));
    cfg.dram.geometry.channels = channels;
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
    cfg
}

/// The chase's dependent loads and working set, then the writer's sweep
/// and emulated-cycle target.
type Load = (u64, u64, u64, u64);

fn chase(&(loads, bytes, ..): &Load) -> LatMemRd {
    LatMemRd::shuffled_with_loads(bytes, 64, loads)
}

fn writer(&(.., bytes, cycles): &Load) -> StreamWriter {
    StreamWriter::new(bytes, cycles)
}

/// Co-runs `workloads` on `cfg`, one core each.
fn co_run(
    cfg: SystemConfig,
    workloads: &mut [&mut dyn Workload],
) -> (ExecutionReport, MultiCoreSystem) {
    let mut sys = MultiCoreSystem::new(cfg, workloads.len());
    sys.set_quantum(QUANTUM);
    let r = sys.co_run(workloads);
    (r.aggregate, sys)
}

/// Multi-core contention: per channel count, the chase's cycles/load alone
/// and against the writer. One channel degrades the chase measurably, and
/// a second channel recovers more than half of that loss: the chase queues
/// only behind the writer's in-flight bursts on its own channel, and the
/// line interleave moves half of those to the other bus.
pub(crate) fn multicore(scale: Scale) -> Figure {
    let mut fig = Figure::default();
    let channels = scale.pick(&[1][..], &[1, 2, 4], &[1, 2, 4]);
    let load: Load = scale.pick(
        (2_000, 16 * KIB, 64 * KIB, 50_000),
        (1_024, 128 * KIB, 256 * KIB, 2_000_000),
        (2_048, 256 * KIB, 256 * KIB, 2_000_000),
    );
    let mut rows = Vec::new();
    let mut degradation = Vec::new();
    for &ch in channels {
        let mut solo = chase(&load);
        co_run(rig(scale, ch), &mut [&mut solo]);
        let solo = solo.cycles_per_load();
        fig.section("solo chase cycles/load", &solo);
        let mut victim = chase(&load);
        let (r, _) = co_run(rig(scale, ch), &mut [&mut victim, &mut writer(&load)]);
        let corun = victim.cycles_per_load();
        fig.section("chase cycles/load", &corun);
        fig.section("co-run aggregate", &r);
        let (solo, corun) = (solo.expect("chase ran"), corun.expect("chase ran"));
        let total: u64 = r.requestors.iter().map(|q| q.dram_occupancy_ps).sum();
        let share = |i: usize| r.requestors[i].bandwidth_share(total) * 100.0;
        degradation.push(corun / solo);
        rows.push(vec![
            ch.to_string(),
            format!("{solo:.1}"),
            format!("{corun:.1}"),
            format!("{:.3}x", corun / solo),
            format!("{:.0}%/{:.0}%", share(0), share(1)),
        ]);
    }
    fig.table(
        &format!(
            "Multi-core contention: shuffled {}-load chase vs streaming writer \
             (Reference mode, quantum {QUANTUM})",
            load.0
        ),
        &[
            "channels",
            "solo cyc/load",
            "co-run cyc/load",
            "degradation",
            "victim/aggressor bw",
        ],
        &rows,
    );

    let one = degradation[0];
    let two = degradation.get(1).copied().unwrap_or(f64::NAN);
    fig.claim(
        "Contention",
        one >= 1.1,
        format!("the streaming writer degrades the chase {one:.3}x on one channel (>= 1.1x)"),
    );
    fig.claim(
        "Contention",
        two - 1.0 < (one - 1.0) / 2.0,
        format!(
            "a second channel recovers more than half of the interference: {one:.3}x -> {two:.3}x"
        ),
    );
    fig
}

/// Request-latency CDF and trace export: the contention rig on two channels
/// with event tracing on, its latency percentiles from the always-on log2
/// histograms, the Chrome trace-event JSON (`target/trace.json`, loadable
/// at <https://ui.perfetto.dev>) and the binary dump (`target/trace.bin`),
/// each checked, and an untraced control run whose report must match.
pub(crate) fn latency_cdf(scale: Scale) -> Figure {
    let mut fig = Figure::default();
    let load: Load = scale.pick(
        (256, 16 * KIB, 64 * KIB, 50_000),
        (1_024, 64 * KIB, 128 * KIB, 1_000_000),
        (2_048, 128 * KIB, 128 * KIB, 1_000_000),
    );
    let run = |trace: Option<TraceConfig>| {
        let mut cfg = rig(scale, 2);
        cfg.trace = trace;
        co_run(cfg, &mut [&mut chase(&load), &mut writer(&load)])
    };
    let (report, mut sys) = run(Some(TraceConfig::default()));
    let mut log = sys.take_trace();
    let (control, _) = run(None);
    fig.section("co-run aggregate", &report);
    fig.section("trace events, dropped", &(log.events.len(), log.dropped));

    let m = &report.metrics;
    let rows: Vec<Vec<String>> = [
        ("all requests", &m.request_latency),
        ("reads", &m.read_latency),
        ("writes", &m.write_latency),
    ]
    .iter()
    .map(|(label, h)| {
        let mut row = vec![label.to_string(), h.count.to_string()];
        row.extend([50, 95, 99].map(|p| h.percentile(p).to_string()));
        row.push(format!("{:.1}", h.mean()));
        row
    })
    .collect();
    fig.table(
        &format!(
            "Request latency CDF (core cycles, {}-load chase vs writer)",
            load.0
        ),
        &["class", "n", "p50", "p95", "p99", "mean"],
        &rows,
    );

    log.sort_for_export();
    let chrome = log.to_chrome_json();
    let binary = log.to_binary();
    let events = log.events.len();
    fig.claim(
        "Tracing",
        events > 0,
        format!(
            "a traced co-run records events: {events} ({} dropped)",
            log.dropped
        ),
    );
    let valid = validate_chrome_json(&chrome);
    fig.claim(
        "Tracing",
        valid.is_ok(),
        format!(
            "the Chrome trace export ({} bytes) validates: {valid:?}",
            chrome.len()
        ),
    );
    fig.claim(
        "Tracing",
        log.tracks_monotone(),
        "per-track timestamps are monotone after sort_for_export",
    );
    fig.claim(
        "Tracing",
        TraceLog::parse_binary(&binary).as_ref() == Some(&log.events),
        format!(
            "the binary dump ({} bytes) round-trips losslessly",
            binary.len()
        ),
    );
    fig.claim(
        "Tracing",
        format!("{report:#?}") == format!("{control:#?}"),
        "tracing moves no report byte: the traced and untraced aggregates are identical",
    );
    fig.files.push(("target/trace.json", chrome.into_bytes()));
    fig.files.push(("target/trace.bin", binary));
    fig
}
