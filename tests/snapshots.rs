//! Snapshot pins for every figure.
//!
//! Each figure of `easydram_bench::FIGURES` renders at `Scale::GOLDEN` (small
//! DRAM geometry, few points), each entry's run once for all of its
//! figures, and each figure's labelled sections, the `{:#?}` of
//! every deterministic report it ran, are compared byte for byte against
//! `tests/goldens/<figure>.snap`. Any change to the command-legality path,
//! the serve loop or the emulated timeline that shifts a single counter in
//! any figure's pipeline shows up as a byte diff here, pretty-printed at the
//! first divergent field.
//!
//! Figures render with the tracing their own configurations set (only
//! `fig_latency_cdf` traces). That tracing moves no report byte is checked
//! where the rings live, by `tracing_moves_no_report_byte` in
//! `crates/core/tests/serve_characterisation.rs`.
//!
//! Regenerate the goldens with:
//!
//! ```text
//! EASYDRAM_BLESS=1 cargo test --test snapshots
//! ```

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;
use std::sync::OnceLock;

use easydram_bench::{names, Figure, Scale, FIGURES};

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
    #[expect(
        clippy::disallowed_methods,
        reason = "a developer switch that rewrites the goldens; it never reaches a simulation"
    )]
    let bless = std::env::var_os("EASYDRAM_BLESS").is_some();
    if bless {
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

/// Renders figure `name` at `Scale::GOLDEN` and pins its sections. Each
/// entry of `FIGURES` runs once per test binary, however many figures it
/// renders.
fn check_figure(name: &str) {
    static RUNS: [OnceLock<Vec<Figure>>; FIGURES.len()] =
        [const { OnceLock::new() }; FIGURES.len()];
    let i = FIGURES
        .iter()
        .position(|(names, _)| names.contains(&name))
        .expect("a figure of FIGURES");
    let (names, run) = FIGURES[i];
    let j = names.iter().position(|n| *n == name).expect("its place");
    let figures = RUNS[i].get_or_init(|| run(Scale::GOLDEN));
    check_snapshot(name, &figures[j].sections);
}

macro_rules! figure_snapshots {
    ($($test:ident: $name:literal,)*) => {
        $(
            #[test]
            fn $test() {
                check_figure($name);
            }
        )*

        #[test]
        fn every_figure_has_a_snapshot_test() {
            let names: Vec<&str> = names().collect();
            assert_eq!(names, [$($name),*]);
        }
    };
}

figure_snapshots! {
    snapshot_table1_platforms: "table1_platforms",
    snapshot_validate_timescaling: "validate_timescaling",
    snapshot_fig8_latency_profile: "fig8_latency_profile",
    snapshot_fig10_rowclone_noflush: "fig10_rowclone_noflush",
    snapshot_fig11_rowclone_clflush: "fig11_rowclone_clflush",
    snapshot_fig12_trcd_heatmap: "fig12_trcd_heatmap",
    snapshot_fig13_trcd_speedup: "fig13_trcd_speedup",
    snapshot_fig14_sim_speed: "fig14_sim_speed",
    snapshot_fig_channel_sweep: "fig_channel_sweep",
    snapshot_fig_multicore_contention: "fig_multicore_contention",
    snapshot_fig_rowhammer: "fig_rowhammer",
    snapshot_fig_latency_cdf: "fig_latency_cdf",
}

#[test]
fn snapshot_model_counterexamples() {
    // Model-checker self-validation: the minimized counterexamples for the
    // three named coarse table mutants are pinned byte-for-byte. The
    // explorer and minimizer are fully deterministic (DFS in alphabet
    // order, greedy left-to-right delta debugging), so any change to the
    // timing tables, the trackers, or the checker's search order shows up
    // as a diff here.
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
