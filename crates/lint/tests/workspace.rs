//! The workspace integration gate: the real source tree must be lint-clean
//! with every rule enabled. This is the same check CI's `static-analysis`
//! job runs via `cargo run -p easydram-lint -- --deny`.

use easydram_lint::{run, LintConfig};

fn workspace_root() -> std::path::PathBuf {
    // crates/lint/ -> workspace root
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf()
}

#[test]
fn workspace_is_lint_clean() {
    let report = run(&LintConfig::new(workspace_root())).expect("lint walk");
    assert!(
        report.files.len() > 20,
        "walker must visit the whole workspace, saw {} files",
        report.files.len()
    );
    assert!(
        report.diagnostics.is_empty(),
        "workspace must be lint-clean, got {} finding(s):\n{}",
        report.diagnostics.len(),
        report
            .diagnostics
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The most `// lint: allow(...)` escapes the linted file set may hold. A
/// ratchet: lower it whenever an allow is deleted, never raise it.
///
/// The three left each wait on a `benchmark` PR (the only kind that may
/// touch `benchmark/`): the two `det/wall-clock` allows in `ramulator` go
/// once `benchmark/` stops reading `RamReport::host_wall_seconds` and times
/// the baseline from outside; the `det/thread-spawn` allow in
/// `multicore.rs` goes with `CoScheduler`, which `benchmark/` pins.
const ALLOW_CEILING: usize = 3;

#[test]
fn allow_pragmas_only_go_down() {
    let root = workspace_root();
    let report = run(&LintConfig::new(&root)).expect("lint walk");
    let allows: usize = report
        .files
        .iter()
        .map(|f| {
            let src = std::fs::read_to_string(root.join(f)).expect("linted file");
            let pragmas = easydram_lint::lexer::lex(&src).pragmas;
            pragmas
                .iter()
                .filter(|p| p.body.starts_with("allow("))
                .count()
        })
        .sum();
    assert!(
        allows <= ALLOW_CEILING,
        "{allows} `lint: allow(` pragmas, ceiling is {ALLOW_CEILING}: remove the new escape"
    );
}

#[test]
fn walker_visits_known_hot_files_and_skips_exclusions() {
    let report = run(&LintConfig::new(workspace_root())).expect("lint walk");
    for must_see in [
        "crates/core/src/system.rs",
        "crates/dram/src/table.rs",
        "crates/dram/src/det.rs",
        "src/lib.rs",
    ] {
        assert!(
            report.files.iter().any(|f| f == must_see),
            "walker must visit {must_see}"
        );
    }
    for skipped in ["shims/", "crates/lint/", "target/"] {
        assert!(
            !report.files.iter().any(|f| f.starts_with(skipped)),
            "walker must not visit {skipped}"
        );
    }
}
