//! Snapshot pin layer for the timing-table hot-path rewrite.
//!
//! One deterministic miniature scenario per figure harness in
//! `crates/bench/src/bin/` (the `repro_all` set), each dumping the full
//! [`ExecutionReport`] (and companion structures) to a golden file under
//! `tests/goldens/`. The real `target/bench-report.json` carries host
//! wall-clock fields, so byte-identity is pinned here on the *deterministic*
//! report surface those figures are computed from: emulated cycles,
//! instruction counts, DRAM/controller/channel/requestor counters, modeled
//! (not measured) wall time, and derived rates.
//!
//! Any change to the command-legality path, the serve loop, or the emulated
//! timeline that shifts a single counter in any figure's pipeline shows up
//! as a byte diff here, pretty-printed at the first divergent field.
//!
//! Every figure render additionally runs a second time with
//! `EASYDRAM_TRACE=1`, which proves the observability layer has zero
//! observer effect: event tracing on or off, the report bytes never move.
//!
//! Regenerate the goldens with:
//!
//! ```text
//! EASYDRAM_BLESS=1 cargo test --test snapshots
//! ```

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;
use std::sync::Mutex;

use easydram_suite::cpu::backend::MemoryBackend;
use easydram_suite::cpu::{CacheConfig, CpuApi};
use easydram_suite::easydram::{
    GrapheneController, MultiCoreSystem, RequestKind, System, SystemConfig, TimingMode, TRACE_ENV,
};
use easydram_suite::ramulator::{RamulatorConfig, RamulatorSystem};
use easydram_suite::workloads::lmbench::LatMemRd;
use easydram_suite::workloads::micro::{CpuCopy, CpuInit, FlushMode, RowCloneCopy, RowCloneInit};
use easydram_suite::workloads::{polybench, HammerKernel, HammerPattern, PolySize, StreamWriter};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(format!("{name}.snap"))
}

/// Compares `actual` against the stored golden, or rewrites the golden when
/// `EASYDRAM_BLESS` is set. On mismatch, panics with the first divergent
/// field pretty-printed (line number, expected vs. actual, and context).
fn check_snapshot(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("EASYDRAM_BLESS").is_some() {
        fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir goldens");
        fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing golden {}; generate it with EASYDRAM_BLESS=1 cargo test --test snapshots",
            path.display()
        )
    });
    if expected != actual {
        panic!("{}", first_divergence(name, &expected, actual));
    }
}

/// `EASYDRAM_TRACE` is process-global and the tests in this binary run
/// concurrently, so every render pair serializes behind this lock and
/// restores the variable before releasing it.
static TRACE_LOCK: Mutex<()> = Mutex::new(());

/// Restores `EASYDRAM_TRACE` to its pre-render value on drop, so a
/// panicking render cannot leak tracing into later tests.
struct TraceEnvGuard(Option<std::ffi::OsString>);

impl Drop for TraceEnvGuard {
    fn drop(&mut self) {
        match self.0.take() {
            Some(v) => std::env::set_var(TRACE_ENV, v),
            None => std::env::remove_var(TRACE_ENV),
        }
    }
}

/// Renders the figure untraced and with `EASYDRAM_TRACE=1`, asserts the two
/// snapshots are byte-identical (the observer-effect probe), then pins the
/// untraced render against the golden.
fn check_snapshot_trace_invisible(name: &str, render: impl Fn() -> String) {
    let _serial = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _restore = TraceEnvGuard(std::env::var_os(TRACE_ENV));
    std::env::remove_var(TRACE_ENV);
    let untraced = render();
    std::env::set_var(TRACE_ENV, "1");
    let traced = render();
    assert!(
        traced == untraced,
        "figure '{name}' is not trace-invisible \
         (EASYDRAM_TRACE=1 changed the report):\n{}",
        first_divergence(name, &untraced, &traced)
    );
    check_snapshot(name, &untraced);
}

/// Renders the first divergent line of two snapshots with surrounding
/// context — the "diff and pretty-print the first divergent field" helper
/// the figure-pinning workflow relies on.
fn first_divergence(name: &str, expected: &str, actual: &str) -> String {
    let exp: Vec<&str> = expected.lines().collect();
    let act: Vec<&str> = actual.lines().collect();
    let n = exp.len().max(act.len());
    for i in 0..n {
        let e = exp.get(i).copied();
        let a = act.get(i).copied();
        if e == a {
            continue;
        }
        let mut msg = format!("snapshot '{name}' diverges at line {}:\n", i + 1);
        let ctx_start = i.saturating_sub(2);
        for (j, line) in exp.iter().enumerate().take(i).skip(ctx_start) {
            let _ = writeln!(msg, "       {:>5} | {line}", j + 1);
        }
        let _ = writeln!(msg, "  expected | {}", e.unwrap_or("<end of snapshot>"));
        let _ = writeln!(msg, "    actual | {}", a.unwrap_or("<end of snapshot>"));
        let _ = writeln!(
            msg,
            "(field `{}`; bless with EASYDRAM_BLESS=1 only if the change is intended)",
            e.or(a)
                .map(|l| l.trim().split(':').next().unwrap_or("").trim())
                .unwrap_or("?")
        );
        return msg;
    }
    format!("snapshot '{name}' diverges only in trailing whitespace")
}

/// Appends one labeled `Debug`-formatted section to a snapshot.
fn section(out: &mut String, label: &str, value: &impl std::fmt::Debug) {
    let _ = writeln!(out, "== {label} ==\n{value:#?}\n");
}

fn small(mode: TimingMode) -> SystemConfig {
    SystemConfig::small_for_tests(mode)
}

#[test]
fn snapshot_table1_platforms() {
    // Table 1: the platform classes. One report per platform archetype on
    // the same kernel: EasyDRAM (time-scaled) and a PiDRAM-class No-TS
    // system, both on the small test geometry.
    check_snapshot_trace_invisible("table1_platforms", || {
        let mut out = String::new();
        let mut sys = System::new(small(TimingMode::TimeScaling));
        let mut w = polybench::by_name("durbin", PolySize::Mini).expect("kernel");
        section(&mut out, "easydram durbin", &sys.run(w.as_mut()));
        let mut cfg = SystemConfig::pidram_like();
        cfg.dram = easydram_suite::dram::DramConfig::small_for_tests();
        cfg.rowclone_test_trials = 100;
        let mut sys = System::new(cfg);
        let mut w = polybench::by_name("durbin", PolySize::Mini).expect("kernel");
        section(&mut out, "pidram durbin", &sys.run(w.as_mut()));
        out
    });
}

#[test]
fn snapshot_validate_timescaling() {
    // §6 validation: the TS and Reference systems on the same kernel.
    check_snapshot_trace_invisible("validate_timescaling", || {
        let mut out = String::new();
        for mode in [TimingMode::Reference, TimingMode::TimeScaling] {
            let mut cfg = SystemConfig::validation_1ghz(mode);
            cfg.dram = easydram_suite::dram::DramConfig::small_for_tests();
            cfg.rowclone_test_trials = 100;
            let mut sys = System::new(cfg);
            let mut w = polybench::by_name("jacobi-1d", PolySize::Mini).expect("kernel");
            section(&mut out, &format!("{mode}"), &sys.run(w.as_mut()));
        }
        out
    });
}

#[test]
fn snapshot_fig8_latency_profile() {
    // Fig. 8: dependent-load latency through the full hierarchy.
    check_snapshot_trace_invisible("fig8_latency_profile", || {
        let mut out = String::new();
        for (label, mode) in [
            ("reference", TimingMode::Reference),
            ("time-scaling", TimingMode::TimeScaling),
        ] {
            let mut sys = System::new(small(mode));
            let mut w = LatMemRd::new(64 * 1024, 64);
            let r = sys.run(&mut w);
            let _ = writeln!(
                &mut out,
                "== {label} cycles/load ==\n{:?}\n",
                w.cycles_per_load()
            );
            section(&mut out, &format!("{label} report"), &r);
        }
        out
    });
}

#[test]
fn snapshot_fig10_rowclone_noflush() {
    // Fig. 10: RowClone copy vs. CPU copy, no cache maintenance.
    check_snapshot_trace_invisible("fig10_rowclone_noflush", || {
        let bytes = 16 * 1024;
        let mut out = String::new();
        let mut sys = System::new(small(TimingMode::TimeScaling));
        section(&mut out, "cpu copy", &sys.run(&mut CpuCopy::new(bytes)));
        let mut sys = System::new(small(TimingMode::TimeScaling));
        section(
            &mut out,
            "rowclone copy noflush",
            &sys.run(&mut RowCloneCopy::new(bytes, FlushMode::NoFlush)),
        );
        out
    });
}

#[test]
fn snapshot_fig11_rowclone_clflush() {
    // Fig. 11: the CLFLUSH coherence variant, plus the small-size init case.
    check_snapshot_trace_invisible("fig11_rowclone_clflush", || {
        let mut out = String::new();
        let mut sys = System::new(small(TimingMode::TimeScaling));
        section(
            &mut out,
            "rowclone copy clflush",
            &sys.run(&mut RowCloneCopy::new(16 * 1024, FlushMode::ClFlush)),
        );
        let mut sys = System::new(small(TimingMode::TimeScaling));
        section(
            &mut out,
            "rowclone init clflush",
            &sys.run(&mut RowCloneInit::new(8 * 1024, FlushMode::ClFlush)),
        );
        let mut sys = System::new(small(TimingMode::TimeScaling));
        section(&mut out, "cpu init", &sys.run(&mut CpuInit::new(8 * 1024)));
        out
    });
}

#[test]
fn snapshot_fig12_trcd_heatmap() {
    // Fig. 12: the seeded tRCD variation surface plus the profiling path.
    check_snapshot_trace_invisible("fig12_trcd_heatmap", || {
        let mut sys = System::new(small(TimingMode::Reference));
        let mut out = String::new();
        {
            let var = sys.tile().device().variation().clone();
            let grid: Vec<u64> = (0..2u32)
                .flat_map(|bank| (0..2048).step_by(97).map(move |row| (bank, row)))
                .map(|(bank, row)| var.row_min_trcd_ps(bank, row))
                .collect();
            section(&mut out, "row min tRCD grid (stride 97)", &grid);
        }
        // Profile two rows at two tRCD points through the real command path.
        let issue = sys.cpu().now_cycles();
        let probes: Vec<(u32, u64, bool)> =
            [(0u32, 13_500u64), (0, 8_000), (7, 13_500), (7, 8_000)]
                .iter()
                .map(|&(row, trcd)| {
                    (
                        row,
                        trcd,
                        sys.tile_mut().profile_line(0, row, 0, trcd, issue),
                    )
                })
                .collect();
        section(&mut out, "profile_line probes (row, trcd_ps, ok)", &probes);
        section(&mut out, "report", &sys.report("fig12"));
        out
    });
}

#[test]
fn snapshot_fig13_trcd_speedup() {
    // Fig. 13: tRCD reduction on a kernel, Bloom-filter-protected.
    check_snapshot_trace_invisible("fig13_trcd_speedup", || {
        let mut out = String::new();
        for reduce in [false, true] {
            let mut sys = System::new(small(TimingMode::TimeScaling));
            if reduce {
                sys.enable_trcd_reduction(2_048, 9_000);
            }
            let mut w = polybench::by_name("mvt", PolySize::Mini).expect("kernel");
            section(
                &mut out,
                if reduce {
                    "reduced trcd"
                } else {
                    "nominal trcd"
                },
                &sys.run(w.as_mut()),
            );
        }
        out
    });
}

#[test]
fn snapshot_fig14_sim_speed() {
    // Fig. 14: EasyDRAM vs. the software-simulator baseline on one kernel.
    // `host_wall_seconds` is measured host time — zeroed before pinning.
    check_snapshot_trace_invisible("fig14_sim_speed", || {
        let mut out = String::new();
        let mut sys = System::new(small(TimingMode::TimeScaling));
        let mut w = polybench::by_name("durbin", PolySize::Mini).expect("kernel");
        section(&mut out, "easydram durbin", &sys.run(w.as_mut()));
        let mut ram = RamulatorSystem::new(RamulatorConfig::default());
        let mut w = polybench::by_name("durbin", PolySize::Mini).expect("kernel");
        let mut r = ram.run(w.as_mut());
        r.host_wall_seconds = 0.0;
        section(&mut out, "ramulator durbin", &r);
        out
    });
}

#[test]
fn snapshot_fig_channel_sweep() {
    // Channel sweep: an interleaved read batch on a 2-channel small system.
    check_snapshot_trace_invisible("fig_channel_sweep", || {
        let mut cfg = small(TimingMode::Reference);
        cfg.dram.geometry.channels = 2;
        let mut sys = System::new(cfg);
        let tile = sys.tile_mut();
        for i in 0..64u64 {
            tile.post_request(
                RequestKind::Read {
                    addr: 0x4_0000 + i * 64,
                },
                0,
            );
        }
        let release = tile.drain_writes(0);
        let mut out = String::new();
        section(&mut out, "last release cycle", &release);
        section(&mut out, "report", &sys.report("channel_sweep"));
        out
    });
}

#[test]
fn snapshot_fig_multicore_contention() {
    // Multi-core contention: a shuffled chase co-run against a streaming
    // writer on one shared channel.
    check_snapshot_trace_invisible("fig_multicore_contention", || {
        let mut cfg = small(TimingMode::Reference);
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
        let mut mc = MultiCoreSystem::new(cfg, 2);
        mc.set_quantum(40);
        let mut chase = LatMemRd::shuffled_with_loads(16 * 1024, 64, 2_000);
        let mut writer = StreamWriter::new(64 * 1024, 50_000);
        let r = mc.co_run(&mut [&mut chase, &mut writer]);
        let mut out = String::new();
        section(&mut out, "chase cycles/load", &chase.cycles_per_load());
        section(&mut out, "co-run aggregate", &r.aggregate);
        out
    });
}

#[test]
fn snapshot_model_counterexamples() {
    // Model-checker self-validation: the minimized counterexamples for the
    // three named coarse table mutants are pinned byte-for-byte. The
    // explorer and minimizer are fully deterministic (DFS in alphabet
    // order, greedy left-to-right delta debugging), so any change to the
    // timing tables, the trackers, or the checker's search order shows up
    // as a diff here. No tile is involved, so this snapshot skips the
    // traced render.
    use easydram_model::{
        corrupt_tfaw_window, format_trace, swap_bank_group_act_spacing, verdict, zero_rfm_fold,
        ModelConfig,
    };
    let mut cfg = ModelConfig::small(4);
    cfg.act_rows = 1;
    cfg.jitter = false;
    cfg.fail_fast = true;
    cfg.max_violations = 1;
    let mut out = String::new();
    for m in [
        corrupt_tfaw_window(&cfg.timing),
        swap_bank_group_act_spacing(&cfg.timing),
        zero_rfm_fold(&cfg.timing),
    ] {
        let v = verdict(&cfg, m);
        let _ = writeln!(&mut out, "== {} ==", v.label);
        let _ = writeln!(
            &mut out,
            "static: {}\ndynamic: {}",
            if v.static_caught { "caught" } else { "missed" },
            if v.dynamic_caught { "caught" } else { "missed" },
        );
        let _ = writeln!(&mut out, "detail: {}", v.detail);
        let _ = writeln!(
            &mut out,
            "minimized trace:\n{}",
            format_trace(&v.counterexample)
        );
    }
    check_snapshot("model_counterexamples", &out);
}

#[test]
fn snapshot_fig_rowhammer() {
    // RowHammer attack/defense: unmitigated vs. Graphene at one intensity.
    check_snapshot_trace_invisible("fig_rowhammer", || {
        let mut out = String::new();
        for defense in ["none", "graphene"] {
            let mut cfg = small(TimingMode::Reference);
            cfg.dram.variation.disturb_enabled = true;
            cfg.dram.variation.hc_first = (2_048, 4_096);
            let mut sys = System::new(cfg.clone());
            if defense == "graphene" {
                sys.install_controller(Box::new(GrapheneController::new(512, 8)));
            }
            let mut kernel = HammerKernel::in_bank(
                &cfg.dram.geometry,
                cfg.mapping,
                0,
                500,
                HammerPattern::DoubleSided,
                1_200,
            );
            sys.run(&mut kernel);
            section(&mut out, &format!("{defense} flips"), &kernel.bit_flips());
            section(&mut out, &format!("{defense} report"), &sys.report(defense));
        }
        out
    });
}
