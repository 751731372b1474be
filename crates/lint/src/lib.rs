//! `easydram-lint`: the workspace invariant linter.
//!
//! A dependency-free static-analysis pass over the workspace's Rust source.
//! It lexes each file with a hand-rolled token scanner ([`lexer`]) — no
//! `syn`, no crates.io — and enforces three families of invariants
//! ([`rules::Rule`]):
//!
//! * **Determinism** (`det/*`): simulation crates may not use
//!   `HashMap`/`HashSet` (iteration order), `SystemTime`/`Instant`
//!   (wall clock), or construct randomness outside `easydram_dram::det`.
//! * **Hot-path allocation** (`alloc/*`): code annotated
//!   `// lint: no_alloc` may not construct `Vec`/`String`/`Box`, `.clone()`,
//!   or `.collect()`.
//! * **Pragma hygiene** (`pragma/*`): `allow(...)` escapes need a
//!   justification, must name catalog rules, and must actually suppress
//!   something.
//!
//! Run it as `cargo run -p easydram-lint -- --deny` (CI's `static-analysis`
//! job), or through the workspace integration test.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod lexer;
pub mod rules;

pub use engine::{lint_source, Diagnostic, FileScope};
pub use rules::Rule;

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Crates whose `src/` is simulation code (determinism rules apply). The
/// bench harness and the linter itself are intentionally absent: neither
/// feeds simulated state.
const SIM_CRATES: &[&str] = &["bender", "core", "cpu", "dram", "ramulator", "workloads"];

/// The one file allowed to construct RNG state.
const RNG_HOME: &str = "crates/dram/src/det.rs";

/// What to lint and which rules to run.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Workspace root (the directory holding the top-level `Cargo.toml`).
    pub root: PathBuf,
    /// Rules switched off via `--disable`.
    pub disabled: BTreeSet<Rule>,
}

impl LintConfig {
    /// All rules on, rooted at `root`.
    #[must_use]
    pub fn new(root: impl Into<PathBuf>) -> Self {
        Self {
            root: root.into(),
            disabled: BTreeSet::new(),
        }
    }

    /// The enabled rule set.
    #[must_use]
    pub fn enabled(&self) -> BTreeSet<Rule> {
        Rule::all()
            .iter()
            .copied()
            .filter(|r| !self.disabled.contains(r))
            .collect()
    }
}

/// Result of a workspace run.
#[derive(Debug)]
pub struct Report {
    /// Repo-relative paths of every file scanned, sorted.
    pub files: Vec<String>,
    /// All findings, sorted by (path, line, rule).
    pub diagnostics: Vec<Diagnostic>,
}

/// Lints the workspace rooted at `cfg.root`.
///
/// Scans `src/` and every `crates/*/src/` except the linter's own crate;
/// `shims/` (offline stand-ins for crates.io dev-deps) and generated code
/// under `target/` are never visited.
///
/// # Errors
///
/// Returns any I/O error encountered while walking or reading source files.
pub fn run(cfg: &LintConfig) -> std::io::Result<Report> {
    let enabled = cfg.enabled();
    let mut files: Vec<PathBuf> = Vec::new();
    let root_src = cfg.root.join("src");
    if root_src.is_dir() {
        collect_rs(&root_src, &mut files)?;
    }
    let crates_dir = cfg.root.join("crates");
    if crates_dir.is_dir() {
        let mut crates: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        crates.sort();
        for krate in crates {
            if krate.file_name().is_some_and(|n| n == "lint") {
                continue; // the linter does not lint itself
            }
            let src = krate.join("src");
            if src.is_dir() {
                collect_rs(&src, &mut files)?;
            }
        }
    }
    files.sort();

    let mut report = Report {
        files: Vec::with_capacity(files.len()),
        diagnostics: Vec::new(),
    };
    for path in files {
        let rel = rel_label(&cfg.root, &path);
        let src = std::fs::read_to_string(&path)?;
        let scope = scope_for(&rel);
        report
            .diagnostics
            .extend(lint_source(&rel, &src, scope, &enabled));
        report.files.push(rel);
    }
    report.diagnostics.sort();
    Ok(report)
}

/// Derives the lint scope from a repo-relative path.
#[must_use]
pub fn scope_for(rel: &str) -> FileScope {
    let sim = rel.starts_with("src/")
        || SIM_CRATES
            .iter()
            .any(|c| rel.starts_with(&format!("crates/{c}/src/")));
    FileScope {
        sim,
        rng_exempt: rel == RNG_HOME,
    }
}

/// Recursively collects `.rs` files under `dir`, sorted for determinism.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Repo-relative, `/`-separated label for diagnostics.
fn rel_label(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_classification() {
        assert!(scope_for("crates/dram/src/device.rs").sim);
        assert!(scope_for("crates/core/src/system.rs").sim);
        assert!(scope_for("src/lib.rs").sim);
        assert!(
            !scope_for("crates/bench/src/lib.rs").sim,
            "bench is host-side"
        );
        let det = scope_for("crates/dram/src/det.rs");
        assert!(det.sim && det.rng_exempt);
        assert!(!scope_for("crates/dram/src/device.rs").rng_exempt);
    }

    #[test]
    fn disable_removes_rule_from_enabled_set() {
        let mut cfg = LintConfig::new(".");
        assert_eq!(cfg.enabled().len(), Rule::all().len());
        cfg.disabled.insert(Rule::DetHashOrder);
        assert!(!cfg.enabled().contains(&Rule::DetHashOrder));
        assert_eq!(cfg.enabled().len(), Rule::all().len() - 1);
    }
}
