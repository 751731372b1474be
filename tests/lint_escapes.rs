//! The ratchet on escapes from the determinism rules (`clippy.toml`): the
//! production code of the simulation crates may hold at most
//! `ESCAPE_CEILING` `#[expect(clippy::disallowed_..)]` attributes. That the
//! tree is clean under the rules, and that every escape still suppresses
//! something and carries a reason, is the clippy job's to enforce.

#[path = "support/sources.rs"]
mod sources;

use sources::{production, rust_files};
use std::path::Path;

/// Lower it whenever an escape is deleted, never raise it. The three left
/// each wait on a `benchmark` PR: two for the `Instant` behind
/// `RamReport::host_wall_seconds` in `ramulator` (`benchmark/` reads it), one
/// for `co_run`'s `thread::scope` in `multicore.rs` (`benchmark/` pins
/// `CoScheduler`).
const ESCAPE_CEILING: usize = 3;

#[test]
fn determinism_escapes_only_go_down() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    // The rules cover `src/` and every crate without an opt-out `clippy.toml`.
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/") {
        let krate = krate.expect("directory entry").path();
        if !krate.join("clippy.toml").exists() {
            rust_files(&krate.join("src"), &mut files);
        }
    }
    assert!(files.len() > 40, "only {} files found", files.len());
    // Whitespace-free, so rustfmt's line breaks cannot hide an attribute.
    let squeeze = |s: &str| s.split_whitespace().collect::<String>();
    let mut escapes = 0;
    for file in &files {
        let text = std::fs::read_to_string(file).expect("source file");
        // An `allow` cannot go stale; an `expect` can.
        assert!(
            !squeeze(&text).contains("allow(clippy::disallowed_"),
            "{}: use #[expect(.., reason = \"..\")]",
            file.display()
        );
        escapes += squeeze(production(&text))
            .matches("expect(clippy::disallowed_")
            .count();
    }
    assert!(
        escapes <= ESCAPE_CEILING,
        "{escapes} determinism escapes in production code, ceiling is {ESCAPE_CEILING}: remove the new one"
    );
}
