//! Reproduces the paper's tables and figures:
//! `repro <name>|all [--device-seed N]`.
//!
//! Prints each figure's tables and claims, writes the files a figure
//! produces (the trace exports), and exits non-zero if any claim fails.
//! `EASYDRAM_QUICK=1` runs the short sweeps (`Size::Quick`) instead of the
//! paper's. `--device-seed N` (decimal, or hex with `0x`) builds every
//! device's variation field from seed `N` instead of the shipped one.

use std::path::Path;

use easydram_bench::{Scale, Size, FIGURES};

fn main() {
    let quick = std::env::var("EASYDRAM_QUICK").is_ok_and(|v| v != "0");
    let size = if quick { Size::Quick } else { Size::Paper };
    let (mut arg, mut device_seed) = (String::new(), None);
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--device-seed" {
            let seed = args.next().as_deref().and_then(parse_seed);
            device_seed = Some(seed.unwrap_or_else(|| usage()));
        } else {
            arg = a;
        }
    }
    let selected: Vec<_> = FIGURES
        .iter()
        .filter(|(name, _)| arg == "all" || *name == arg)
        .collect();
    if selected.is_empty() {
        usage();
    }
    if let Some(seed) = device_seed {
        println!("device seed {seed:#x}");
    }
    let scale = Scale { size, device_seed };
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

/// A seed in decimal, or in hex after `0x`.
fn parse_seed(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn usage() -> ! {
    let names: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
    eprintln!(
        "usage: repro <figure>|all [--device-seed N]\nfigures: {}",
        names.join(" ")
    );
    std::process::exit(2);
}
