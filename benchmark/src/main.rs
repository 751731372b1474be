//! The repo's benchmark. Three ways in:
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one run of one
//!   workload; the last line of standard output is the result object.
//! * no `--workload` — a full set: every workload, untraced then traced,
//!   one process each, printed as a table and written as one JSON file.
//! * `compare A.json B.json` — judges set B against set A.
//!
//! See `README.md` beside this package for what every number means.

mod compare;
mod json;
mod layers;
mod run;
mod spec;
mod stats;
mod timed;
mod workloads;

use std::process::{Command, ExitCode};

use json::Value;
use spec::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use workloads::NAMES;

/// Environment knobs of the simulator a run must not inherit.
const HERMETIC: [&str; 4] = [
    "EASYDRAM_THREADS",
    "EASYDRAM_TRACE",
    "EASYDRAM_QUICK",
    "EASYDRAM_MAX_BYTES",
];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    bless: bool,
    build_s: f64,
    out: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        bless: false,
        build_s: 0.0,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        let bad = |v: &str| format!("{flag}: cannot read {v:?}");
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?,
            "--seconds" => a.seconds = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?,
            "--build-s" => a.build_s = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--traced" => a.trace = true,
            "--bless" => a.bless = true,
            "--out" => a.out = Some(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(1..=120).contains(&a.seconds) {
        return Err(format!("--seconds {} is outside 1..=120", a.seconds));
    }
    Ok(a)
}

fn first_line(program: &str, args: &[&str]) -> String {
    // Provenance only, and only from inside the checkout: git must not walk
    // up into whatever directory holds it.
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(std::path::Path::to_path_buf))
        .unwrap_or_default();
    Command::new(program)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// The host's online CPUs, as the kernel lists them ("0-1").
fn cpus_online() -> String {
    std::fs::read_to_string("/sys/devices/system/cpu/online")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string())
}

/// Whether this process runs with address-space randomisation off, as
/// `run.sh` arranges (`ADDR_NO_RANDOMIZE` in its personality).
fn aslr_off() -> bool {
    std::fs::read_to_string("/proc/self/personality")
        .ok()
        .and_then(|p| u32::from_str_radix(p.trim(), 16).ok())
        .is_some_and(|p| p & 0x0004_0000 != 0)
}

/// The CPUs this process may run on (`run.sh` leaves it one).
fn cpus_allowed() -> String {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .map(|v| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The provenance object every output carries.
fn meta_json(a: &Args) -> String {
    format!(
        "{{\"seed\": {}, \"seconds\": {}, \"cpus_online\": {}, \"cpus_allowed\": {}, \"aslr_off\": {}, \"rustc\": {}, \"commit\": {}, \"build_s\": {}}}",
        a.seed,
        a.seconds,
        json::quote(&cpus_online()),
        json::quote(&cpus_allowed()),
        aslr_off(),
        json::quote(&first_line("rustc", &["-V"])),
        json::quote(&first_line("git", &["rev-parse", "HEAD"])),
        json::num(a.build_s)
    )
}

/// One run of one workload. Diagnostics and a `meta` line come first; the
/// result object is the last line.
fn single(a: &Args, workload: &str) -> ExitCode {
    let Some(out) = run::run(workload, a.seed, a.seconds, a.trace) else {
        eprintln!("unknown workload {workload:?}; the workloads are {NAMES:?}");
        return ExitCode::from(2);
    };
    if a.bless && !a.trace {
        if let Err(e) = run::bless(workload, a.seed, out.digest) {
            eprintln!("--bless could not write the expected digest: {e}");
            return ExitCode::from(2);
        }
    }
    eprintln!(
        "{workload}: {} ops timed, op_ms q1 {:.3} p50 {:.3} p90 {:.3} min {:.3} p10 {:.3}, build {:.1} s",
        out.attempted, out.op_ms[0], out.op_ms[1], out.op_ms[2], out.op_ms[3], out.op_ms[4], a.build_s
    );
    println!(
        "{{\"meta\": {}, \"workload\": {}, \"trace\": {}, \"digest\": \"{:016x}\", \"op_ms_iqr_share\": {}}}",
        meta_json(a),
        json::quote(workload),
        u8::from(a.trace),
        out.digest,
        json::num(out.op_ms_iqr_share)
    );
    println!("{}", out.result_line());
    ExitCode::SUCCESS
}

/// A child's two closing lines, parsed.
fn child(
    exe: &std::path::Path,
    a: &Args,
    workload: &str,
    trace: bool,
) -> Result<(Value, Value), String> {
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &a.seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if a.bless {
        cmd.arg("--bless");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!(
            "{workload} (trace {}) exited with {}: {}",
            u8::from(trace),
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines = text.lines().rev();
    let result = json::parse(lines.next().ok_or("no output")?)?;
    let meta = json::parse(lines.next().ok_or("no meta line")?)?;
    Ok((meta, result))
}

fn render_metrics(result: &Value) -> String {
    let entries: Vec<String> = result
        .get("metrics")
        .and_then(Value::as_obj)
        .unwrap_or_default()
        .iter()
        .map(|(k, v)| {
            format!(
                "        {}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(k),
                json::num(v.get("value").and_then(Value::as_f64).unwrap_or(0.0)),
                json::quote(v.get("unit").and_then(Value::as_str).unwrap_or(""))
            )
        })
        .collect();
    format!("{{\n{}\n      }}", entries.join(",\n"))
}

fn value_of(result: &Value, metric: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or(f64::NAN)
}

/// A full set: every workload, one process per run, untraced then traced.
fn full_set(a: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot find this executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut sections = Vec::new();
    let mut rows = Vec::new();
    let mut all_correct = true;
    for (w, why) in WORKLOADS {
        eprintln!("running {w}: {why}");
        let runs = child(&exe, a, w, false).and_then(|e2e| Ok((e2e, child(&exe, a, w, true)?)));
        let ((meta, e2e), (_, layers)) = match runs {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(1);
            }
        };
        let correct = [&e2e, &layers]
            .iter()
            .all(|r| r.get("correct") == Some(&Value::Bool(true)));
        let count = |k: &str| -> f64 {
            [&e2e, &layers]
                .iter()
                .filter_map(|r| r.get(k).and_then(Value::as_f64))
                .sum()
        };
        let (attempted, failed) = (count("attempted"), count("failed"));
        all_correct &= correct;
        sections.push(format!(
            "    {}: {{\n      \"correct\": {},\n      \"attempted\": {},\n      \"failed\": {},\n      \"digest\": {},\n      \"op_ms_iqr_share\": {},\n      \"end_to_end\": {},\n      \"per_layer\": {}\n    }}",
            json::quote(w),
            correct,
            attempted,
            failed,
            json::quote(meta.get("digest").and_then(Value::as_str).unwrap_or("")),
            json::num(
                meta.get("op_ms_iqr_share")
                    .and_then(Value::as_f64)
                    .unwrap_or(0.0)
            ),
            render_metrics(&e2e),
            render_metrics(&layers)
        ));
        rows.push((w, attempted, failed, e2e, layers));
    }

    print!("{:<16} {:>6} {:>6}", "workload", "ops", "failed");
    for m in &END_TO_END {
        print!(" {:>24}", format!("{} [{}]", m.name, m.unit));
    }
    println!();
    for (w, attempted, failed, e2e, _) in &rows {
        print!("{w:<16} {attempted:>6} {failed:>6}");
        for m in &END_TO_END {
            print!(" {:>24.4}", value_of(e2e, m.name));
        }
        println!();
    }
    println!("\nper-layer metrics, from the traced runs (0 = not measured on a co-run)");
    print!("{:<38}", "metric [unit]");
    for w in NAMES {
        print!(" {:>16}", w);
    }
    println!();
    for m in &PER_LAYER {
        print!("{:<38}", format!("{} [{}]", m.name, m.unit));
        for (_, _, _, _, layers) in &rows {
            print!(" {:>16.4}", value_of(layers, m.name));
        }
        println!();
    }

    let doc = format!(
        "{{\n  \"meta\": {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        meta_json(a),
        sections.join(",\n")
    );
    match &a.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &doc) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::from(2);
            }
            println!("\nwrote {path}");
        }
        None => println!("\n{doc}"),
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("at least one op failed its checks");
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    for var in HERMETIC {
        std::env::remove_var(var);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = argv.as_slice() else {
            eprintln!("usage: easydram-benchmark compare <a.json> <b.json>");
            return ExitCode::from(2);
        };
        return match compare::compare(a, b) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match args.workload.clone() {
        Some(w) => single(&args, &w),
        None => full_set(&args),
    }
}
