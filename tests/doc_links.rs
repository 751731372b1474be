//! Every Markdown file the project points at exists: a backticked `.md`
//! path in the Rust sources (`crates/*/src`, `src`, `examples`, `tests`)
//! names a file relative to the repository root, and a relative link in
//! README.md or docs/*.md resolves from the file that holds it.

#[path = "support/sources.rs"]
#[expect(
    dead_code,
    reason = "links are checked in test code too, so `production` goes unused"
)]
mod sources;

use sources::rust_files;
use std::path::{Path, PathBuf};

/// The backticked spans of `text` that are paths to a Markdown file, such
/// as `docs/API.md`. A span counts when it ends in `.md` and holds only
/// path characters, so globs and prose in backticks are left alone.
fn backticked_md_paths(text: &str) -> Vec<&str> {
    let is_path = |s: &str| {
        s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_-./".contains(c))
    };
    text.match_indices(".md`")
        .filter_map(|(end, _)| {
            let start = text[..end].rfind('`')? + 1;
            let span = &text[start..end + 3];
            (start < end && is_path(span)).then_some(span)
        })
        .collect()
}

/// The targets of the relative Markdown links (`](path.md#anchor)`) in
/// `text`, anchors stripped.
fn relative_md_links(text: &str) -> Vec<&str> {
    text.match_indices("](")
        .filter_map(|(at, _)| {
            let rest = &text[at + 2..];
            let target = &rest[..rest.find(')')?];
            let path = target.split('#').next().unwrap_or_default();
            (path.ends_with(".md") && !path.contains("://")).then_some(path)
        })
        .collect()
}

#[test]
fn backticked_markdown_paths_in_the_sources_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["src", "examples", "tests"] {
        rust_files(&root.join(dir), &mut files);
    }
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/") {
        rust_files(
            &krate.expect("directory entry").path().join("src"),
            &mut files,
        );
    }
    assert!(files.len() > 40, "only {} files found", files.len());
    let mut missing = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file).expect("source file");
        for path in backticked_md_paths(&text) {
            if !root.join(path).is_file() {
                missing.push(format!("{}: `{path}`", file.display()));
            }
        }
    }
    assert!(missing.is_empty(), "no such file:\n{}", missing.join("\n"));
}

#[test]
fn relative_markdown_links_in_the_docs_resolve() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut docs: Vec<PathBuf> = vec![root.join("README.md")];
    for entry in std::fs::read_dir(root.join("docs")).expect("docs/") {
        let path = entry.expect("directory entry").path();
        if path.extension().is_some_and(|e| e == "md") {
            docs.push(path);
        }
    }
    let mut missing = Vec::new();
    let mut links = 0;
    for doc in &docs {
        let text = std::fs::read_to_string(doc).expect("Markdown file");
        let dir = doc.parent().expect("a file has a directory");
        for target in relative_md_links(&text) {
            links += 1;
            if !dir.join(target).is_file() {
                missing.push(format!("{}: ]({target})", doc.display()));
            }
        }
    }
    assert!(links > 5, "only {links} links found");
    assert!(missing.is_empty(), "broken link:\n{}", missing.join("\n"));
}

#[test]
fn the_scanners_find_what_they_look_for() {
    let rust = "/// See `docs/API.md` §3, not `*.md`, `.md` or `a b.md`.\n// `x` then DESIGN.md`";
    assert_eq!(backticked_md_paths(rust), ["docs/API.md"]);
    let md = "[a](API.md#threads), [b](../README.md) [c](https://x.org/y.md) [d](e.rs)";
    assert_eq!(relative_md_links(md), ["API.md", "../README.md"]);
}
