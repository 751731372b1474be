//! The workspace's Rust sources, for the tests that scan them
//! (`lint_escapes.rs`, `pub_census.rs`, `doc_links.rs`). Integration tests share no
//! crate, so each one includes this file with `#[path]`.

use std::path::{Path, PathBuf};

/// Every `.rs` file under `dir`, recursively.
pub fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("source directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// A source file's production code: everything before its first
/// `#[cfg(test)]`.
pub fn production(text: &str) -> &str {
    text.split("\n#[cfg(test)]").next().unwrap_or_default()
}
