//! Reproduces the paper's tables and figures: `repro <name>|all`.
//!
//! Prints each figure's tables and claims, writes the files a figure
//! produces (the trace exports), and exits non-zero if any claim fails.
//! `EASYDRAM_QUICK=1` runs the short sweeps (`Scale::Quick`) instead of the
//! paper's.

use std::path::Path;

use easydram_bench::{Scale, FIGURES};

fn main() {
    let quick = std::env::var("EASYDRAM_QUICK").is_ok_and(|v| v != "0");
    let scale = if quick { Scale::Quick } else { Scale::Paper };
    let arg = std::env::args().nth(1).unwrap_or_default();
    let selected: Vec<_> = FIGURES
        .iter()
        .filter(|(name, _)| arg == "all" || *name == arg)
        .collect();
    if selected.is_empty() {
        let names: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
        eprintln!("usage: repro <figure>|all\nfigures: {}", names.join(" "));
        std::process::exit(2);
    }
    let (mut claims, mut failed) = (0, Vec::new());
    for (name, run) in selected {
        println!("\n########## {name} ##########");
        let fig = run(scale);
        print!("{}", fig.text);
        for (path, bytes) in &fig.files {
            let dir = Path::new(path).parent().expect("a path under a directory");
            std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(path, bytes))
                .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            println!("wrote {path} ({} bytes)", bytes.len());
        }
        println!("\nClaims:");
        for claim in &fig.claims {
            println!("  {claim}");
            if !claim.holds {
                failed.push(format!("{name}: {claim}"));
            }
        }
        claims += fig.claims.len();
    }
    if failed.is_empty() {
        println!("\nAll {claims} claims hold.");
        return;
    }
    eprintln!("\n{} of {claims} claims failed:", failed.len());
    for f in &failed {
        eprintln!("  {f}");
    }
    std::process::exit(1);
}
