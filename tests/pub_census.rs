//! The ratchet on the library crates' public surface: the production
//! code of `crates/{core,cpu,dram,bender,workloads}/src` may hold at most
//! `PUB_CEILING` `pub` declarations. A declaration counts when its line
//! opens with `pub ` (items, fields and re-exports alike); `pub(crate)` and
//! the other restricted forms do not.

#[path = "support/sources.rs"]
mod sources;

use sources::{production, rust_files};
use std::path::Path;

/// Lower it whenever a `pub` declaration is deleted or narrowed, never
/// raise it: a helper the crate alone calls is `pub(crate)`.
const PUB_CEILING: usize = 839;

#[test]
fn pub_declarations_only_go_down() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for krate in ["core", "cpu", "dram", "bender", "workloads"] {
        rust_files(&root.join("crates").join(krate).join("src"), &mut files);
    }
    assert!(files.len() > 30, "only {} files found", files.len());
    let mut count = 0;
    for file in &files {
        let text = std::fs::read_to_string(file).expect("source file");
        count += production(&text)
            .lines()
            .filter(|line| line.trim_start().starts_with("pub "))
            .count();
    }
    assert!(
        count <= PUB_CEILING,
        "{count} `pub` declarations in production code, ceiling is {PUB_CEILING}: make the new one `pub(crate)` or private"
    );
}
