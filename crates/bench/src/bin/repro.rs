//! Reproduces the paper's tables and figures:
//! `repro <name>|all [--device-seed N]`.
//!
//! Prints each figure's tables and claims, writes the files a figure
//! produces (the trace exports), and exits non-zero if any claim fails.
//! `EASYDRAM_QUICK=1` runs the short sweeps (`Size::Quick`) instead of the
//! paper's. `--device-seed N` (decimal, or hex with `0x`) builds every
//! device's variation field from seed `N` instead of the shipped one. A
//! missing, unknown or second name and a missing, bad or second seed print
//! the usage and exit 2, before anything runs.

use std::path::Path;

use easydram_bench::{names, Scale, Size, FIGURES};

fn main() {
    let quick = std::env::var("EASYDRAM_QUICK").is_ok_and(|v| v != "0");
    let size = if quick { Size::Quick } else { Size::Paper };
    let (mut arg, mut device_seed) = (None, None);
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let repeated = if a == "--device-seed" {
            let seed = args.next().as_deref().and_then(parse_seed);
            device_seed
                .replace(seed.unwrap_or_else(|| usage()))
                .is_some()
        } else {
            arg.replace(a).is_some()
        };
        if repeated {
            usage();
        }
    }
    let arg = arg
        .filter(|a| a == "all" || names().any(|n| n == a))
        .unwrap_or_else(|| usage());
    let wanted = |name: &str| arg == "all" || name == arg;
    if let Some(seed) = device_seed {
        println!("device seed {seed:#x}");
    }
    let scale = Scale { size, device_seed };
    let (mut claims, mut failed) = (0, Vec::new());
    // A run that renders two figures runs once for both, and prints only
    // the one asked for.
    for (named, run) in FIGURES
        .iter()
        .filter(|(named, _)| named.iter().any(|n| wanted(n)))
    {
        for (&name, fig) in named.iter().zip(run(scale)).filter(|(n, _)| wanted(n)) {
            println!("\n########## {name} ##########");
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
    let names: Vec<&str> = names().collect();
    eprintln!(
        "usage: repro <figure>|all [--device-seed N]\nfigures: {}",
        names.join(" ")
    );
    std::process::exit(2);
}
