//! Shared harness for regenerating every table and figure of the EasyDRAM
//! paper's evaluation (see `EXPERIMENTS.md` for paper-vs-measured records).
//!
//! Each `src/bin/figNN_*.rs` binary prints the same rows/series the paper
//! reports. The harness honours two environment variables:
//!
//! * `EASYDRAM_QUICK=1` — smaller sweeps for smoke runs and CI;
//! * `EASYDRAM_MAX_BYTES=N` — cap the microbenchmark size sweeps.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use easydram::json::JsonWriter;
use easydram::{System, SystemConfig, TimingMode};
use easydram_cpu::Workload;
use easydram_dram::bank::RankTiming;
use easydram_dram::{DramCommand, Geometry, OracleRankTiming, TimingParams};
use easydram_ramulator::{RamulatorConfig, RamulatorSystem};
use easydram_workloads::micro::{CpuCopy, CpuInit, FlushMode, RowCloneCopy, RowCloneInit};

/// KiB.
pub const KIB: u64 = 1024;
/// MiB.
pub const MIB: u64 = 1024 * 1024;

/// Whether quick (CI) mode is enabled.
#[must_use]
pub fn quick() -> bool {
    std::env::var("EASYDRAM_QUICK").is_ok_and(|v| v != "0")
}

/// The paper's Fig. 10/11 size sweep: 8 KiB – 16 MiB, powers of two,
/// optionally capped.
#[must_use]
pub fn micro_sizes() -> Vec<u64> {
    let cap = std::env::var("EASYDRAM_MAX_BYTES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick() { 512 * KIB } else { 16 * MIB });
    let mut sizes = Vec::new();
    let mut s = 8 * KIB;
    while s <= cap {
        sizes.push(s);
        s *= 2;
    }
    sizes
}

/// The Fig. 8 lmbench working-set sweep: 1 KiB – 16 MiB.
#[must_use]
pub fn lmbench_sizes() -> Vec<u64> {
    let cap = if quick() { MIB } else { 16 * MIB };
    let mut sizes = Vec::new();
    let mut s = KIB;
    while s <= cap {
        sizes.push(s);
        s *= 2;
    }
    sizes
}

/// Builds the paper's main EasyDRAM system in the given mode.
#[must_use]
pub fn jetson(mode: TimingMode) -> System {
    let mut cfg = SystemConfig::jetson_nano(mode);
    if quick() {
        cfg.rowclone_test_trials = 100;
    }
    System::new(cfg)
}

/// Builds the PiDRAM-like No-Time-Scaling system of §7.2.
#[must_use]
pub fn pidram() -> System {
    let mut cfg = SystemConfig::pidram_like();
    if quick() {
        cfg.rowclone_test_trials = 100;
    }
    System::new(cfg)
}

/// Builds the Ramulator 2.0 baseline.
#[must_use]
pub fn ramulator() -> RamulatorSystem {
    RamulatorSystem::new(RamulatorConfig::default())
}

/// A simulator under measurement (EasyDRAM or the software baseline).
pub enum Sim {
    /// An EasyDRAM system.
    Easy(Box<System>),
    /// The Ramulator baseline.
    Ram(Box<RamulatorSystem>),
}

impl Sim {
    /// Runs a workload and returns its measured cycles (the workload's
    /// measured region if it defines one, else the full run).
    pub fn measure(&mut self, w: &mut dyn Workload) -> u64 {
        match self {
            Sim::Easy(s) => {
                let r = s.run(w);
                w.measured_cycles().unwrap_or(r.emulated_cycles)
            }
            Sim::Ram(s) => {
                let r = s.run(w);
                w.measured_cycles().unwrap_or(r.simulated_cycles)
            }
        }
    }
}

/// The shared body of Figures 10 and 11: RowClone Copy and Init speedup over
/// each configuration's CPU baseline, swept over [`micro_sizes`] on the
/// No-Time-Scaling system, the time-scaled system and the Ramulator
/// baseline. Prints the two tables (`"{figure}(a): RowClone - … Copy
/// speedup"` and `(b)` for Init, to `decimals` places) and the averages, and
/// returns the six speedup series — Copy then Init, each NoTS / TS /
/// Ramulator — for the figure's own shape check.
pub fn rowclone_speedup_figure(flush: FlushMode, figure: &str, decimals: usize) -> [Vec<f64>; 6] {
    type MakeSim = fn() -> Sim;
    let sims: [MakeSim; 3] = [
        || Sim::Easy(Box::new(pidram())),
        || Sim::Easy(Box::new(jetson(TimingMode::TimeScaling))),
        || Sim::Ram(Box::new(ramulator())),
    ];
    let speedup = |sim: MakeSim, base: &mut dyn Workload, rc: &mut dyn Workload| {
        sim().measure(base) as f64 / sim().measure(rc).max(1) as f64
    };
    let fmt = |x: f64| format!("{x:.decimals$}");
    let mut acc: [Vec<f64>; 6] = Default::default();
    let mut rows: [Vec<Vec<String>>; 2] = Default::default();
    for bytes in micro_sizes() {
        let copy = sims.map(|sim| {
            speedup(
                sim,
                &mut CpuCopy::new(bytes),
                &mut RowCloneCopy::new(bytes, flush),
            )
        });
        let init = sims.map(|sim| {
            speedup(
                sim,
                &mut CpuInit::new(bytes),
                &mut RowCloneInit::new(bytes, flush),
            )
        });
        for (series, x) in acc.iter_mut().zip(copy.into_iter().chain(init)) {
            series.push(x);
        }
        for (table, xs) in rows.iter_mut().zip([copy, init]) {
            table.push(
                std::iter::once(fmt_size(bytes))
                    .chain(xs.map(fmt))
                    .collect(),
            );
        }
        eprintln!("  done {}", fmt_size(bytes));
    }
    let header = ["size", "EasyDRAM-NoTS", "EasyDRAM-TS", "Ramulator-2.0"];
    let variant = match flush {
        FlushMode::NoFlush => "No Flush",
        FlushMode::ClFlush => "CLFLUSH",
    };
    for (part, kind, table) in [("a", "Copy", &rows[0]), ("b", "Init", &rows[1])] {
        let title = format!("{figure}({part}): RowClone - {variant} {kind} speedup");
        print_table(&title, &header, table);
    }
    let max = |v: &[f64]| v.iter().cloned().fold(0.0f64, f64::max);
    println!("\nAverages (maxima) over all sizes:");
    for (kind, series) in ["Copy", "Init"].iter().zip(acc.chunks(3)) {
        let cell = |v: &[f64]| format!("{}x ({}x)", fmt(geomean(v)), fmt(max(v)));
        println!(
            "  {kind}: NoTS {} | TS {} | Ramulator {}",
            cell(&series[0]),
            cell(&series[1]),
            cell(&series[2])
        );
    }
    acc
}

/// Formats a byte count the way the paper's x-axes do (8K, 64K, 1M, ...).
#[must_use]
pub fn fmt_size(bytes: u64) -> String {
    if bytes >= MIB {
        format!("{}M", bytes / MIB)
    } else {
        format!("{}K", bytes / KIB)
    }
}

/// Prints an aligned table: a header row and data rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!(
                "{:>w$}  ",
                c,
                w = widths.get(i).copied().unwrap_or(8)
            ));
        }
        println!("{}", s.trim_end());
    };
    line(&header.iter().map(|s| (*s).to_string()).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// The machine-readable harness report `repro_all` leaves in
/// `target/bench-report.json` for CI and perf-trajectory tooling: run
/// metadata, one named section per sweep record (`sections` values are the
/// JSON documents the harnesses wrote, already scanned), and one object per
/// harness with its name, pass/fail and wall seconds.
#[must_use]
pub fn bench_report_json(runs: &[(String, bool, f64)], sections: &[(&str, String)]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object().key("schema").number(8);
    w.key("quick").bool(quick());
    for (key, json) in sections {
        w.key(key).raw(json);
    }
    w.key("harnesses").begin_array();
    for (name, ok, secs) in runs {
        w.begin_object().key("name").string(name);
        w.key("ok").bool(*ok);
        w.key("wall_seconds").number(format_args!("{secs:.3}"));
        w.end_object();
    }
    w.end_array().end_object();
    w.finish()
}

/// Writes a harness's machine-readable record to `path` (creating the parent
/// directory) and says so. The record is a by-product of the run: a failed
/// write is reported, not fatal.
pub fn write_record(path: &str, json: &str) {
    let parent = std::path::Path::new(path).parent();
    let written = parent
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, json));
    match written {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("\ncould not write {path}: {e}"),
    }
}

/// Serve-loop regression threshold enforced by `fig14_sim_speed`: the
/// precomputed timing-table kernel must stay at least this many times faster
/// than the rule-based oracle checker.
pub const SIM_SPEED_THRESHOLD: f64 = 2.0;

/// The geometry the sim-speed kernels run on: two ranks folded into the
/// bank-group dimension ([`Geometry::per_channel`]), i.e. 32 banks across
/// 8 groups — the largest timing-table scope mix a single channel device
/// exercises (channel, rank, cross/same bank group, bank, same row).
#[must_use]
pub fn sim_speed_geometry() -> Geometry {
    Geometry {
        ranks: 2,
        ..Geometry::default()
    }
    .per_channel()
}

/// One pre-scheduled command of the sim-speed stream, packed to 24 bytes.
///
/// A full `(DramCommand, u64)` pair is ~80 bytes (the `Write` variant
/// carries its 64-byte payload), so a 200 k-command replay buffer would
/// stream ~16 MB from memory per pass — a shared cost that hides the
/// legality-decision difference the kernels are racing. The packed form
/// keeps the buffer cache-resident; both kernels pay the same few-cycle
/// [`ScheduledCmd::decode`], mirroring the serve loop's own hot decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledCmd {
    kind: u8,
    bank: u32,
    arg: u32,
    at: u64,
}

impl ScheduledCmd {
    const ACT: u8 = 0;
    const PRE: u8 = 1;
    const PREA: u8 = 2;
    const RD: u8 = 3;
    const WR: u8 = 4;
    const REF: u8 = 5;
    const RFM: u8 = 6;

    fn encode(cmd: &DramCommand, at: u64) -> Self {
        let (kind, bank, arg) = match *cmd {
            DramCommand::Activate { bank, row } => (Self::ACT, bank, row),
            DramCommand::Precharge { bank } => (Self::PRE, bank, 0),
            DramCommand::PrechargeAll => (Self::PREA, 0, 0),
            DramCommand::Read { bank, col } => (Self::RD, bank, col),
            DramCommand::Write { bank, col, .. } => (Self::WR, bank, col),
            DramCommand::Refresh => (Self::REF, 0, 0),
            DramCommand::RefreshRow { bank, row } => (Self::RFM, bank, row),
        };
        Self {
            kind,
            bank,
            arg,
            at,
        }
    }

    /// The command this entry schedules (writes carry a fixed pattern; the
    /// timing trackers never look at payload bytes).
    #[must_use]
    #[inline]
    pub fn decode(&self) -> DramCommand {
        match self.kind {
            Self::ACT => DramCommand::Activate {
                bank: self.bank,
                row: self.arg,
            },
            Self::PRE => DramCommand::Precharge { bank: self.bank },
            Self::PREA => DramCommand::PrechargeAll,
            Self::RD => DramCommand::Read {
                bank: self.bank,
                col: self.arg,
            },
            Self::WR => DramCommand::Write {
                bank: self.bank,
                col: self.arg,
                data: [0xA5; easydram_dram::LINE_BYTES],
            },
            Self::REF => DramCommand::Refresh,
            _ => DramCommand::RefreshRow {
                bank: self.bank,
                row: self.arg,
            },
        }
    }

    /// The issue time the scheduler stamped on this command.
    #[must_use]
    #[inline]
    pub fn issue_ps(&self) -> u64 {
        self.at
    }
}

/// A deterministic pre-scheduled command stream for the sim-speed kernels:
/// a fixed-seed LCG draws a DDR4-like mix (ACT/RD/WR heavy, occasional
/// PRE/PREA/REF/RFM) over the whole bank array, inserting the PRE/ACT
/// commands the protocol's bank state machine requires — a legal stream,
/// like the ones the SMC's serve loop actually emits. Each command is
/// stamped with its issue time (`max(prev + tCK, earliest_issue_ps)` — the
/// scheduler's job, paid once here). Both kernels replay the identical
/// `(command, issue_ps)` pairs, so their measured work is exactly the
/// per-command legality decision `DramDevice::execute` makes: an O(1)
/// table lookup on one side, the full rule walk on the other.
#[must_use]
pub fn sim_speed_stream(
    commands: usize,
    geometry: &Geometry,
    timing: &TimingParams,
) -> Vec<ScheduledCmd> {
    let banks = u64::from(geometry.banks());
    let rows = u64::from(geometry.rows_per_bank);
    let cols = u64::from(geometry.cols_per_row());
    let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        state >> 33
    };
    let mut scheduler = RankTiming::new(geometry.clone(), timing.clone());
    let mut now = 0u64;
    let mut out = Vec::with_capacity(commands + commands / 2);
    let push = |cmd: DramCommand, scheduler: &mut RankTiming, now: &mut u64| {
        *now = (*now + timing.t_ck_ps).max(scheduler.earliest_issue_ps(&cmd));
        scheduler.apply(&cmd, *now);
        ScheduledCmd::encode(&cmd, *now)
    };
    // Column-dominant mix with rare refreshes, like real serve-loop traffic
    // (tREFI is thousands of commands at DDR4 rates; row hits dominate).
    while out.len() < commands {
        let kind = next() % 64;
        let bank = (next() % banks) as u32;
        let row = (next() % rows) as u32;
        let col = (next() % cols) as u32;
        match kind {
            0..=7 => {
                if scheduler.open_row(bank).is_some() {
                    out.push(push(
                        DramCommand::Precharge { bank },
                        &mut scheduler,
                        &mut now,
                    ));
                }
                out.push(push(
                    DramCommand::Activate { bank, row },
                    &mut scheduler,
                    &mut now,
                ));
            }
            8..=33 => {
                if scheduler.open_row(bank).is_none() {
                    out.push(push(
                        DramCommand::Activate { bank, row },
                        &mut scheduler,
                        &mut now,
                    ));
                }
                out.push(push(
                    DramCommand::Read { bank, col },
                    &mut scheduler,
                    &mut now,
                ));
            }
            34..=53 => {
                if scheduler.open_row(bank).is_none() {
                    out.push(push(
                        DramCommand::Activate { bank, row },
                        &mut scheduler,
                        &mut now,
                    ));
                }
                let wr = DramCommand::Write {
                    bank,
                    col,
                    data: [0xA5; easydram_dram::LINE_BYTES],
                };
                out.push(push(wr, &mut scheduler, &mut now));
            }
            54..=60 => {
                out.push(push(
                    DramCommand::Precharge { bank },
                    &mut scheduler,
                    &mut now,
                ));
            }
            61 => {
                out.push(push(DramCommand::PrechargeAll, &mut scheduler, &mut now));
            }
            62 => {
                out.push(push(DramCommand::PrechargeAll, &mut scheduler, &mut now));
                out.push(push(DramCommand::Refresh, &mut scheduler, &mut now));
            }
            _ => {
                if scheduler.open_row(bank).is_some() {
                    out.push(push(
                        DramCommand::Precharge { bank },
                        &mut scheduler,
                        &mut now,
                    ));
                }
                out.push(push(
                    DramCommand::RefreshRow { bank, row },
                    &mut scheduler,
                    &mut now,
                ));
            }
        }
    }
    out.truncate(commands);
    out
}

/// Replays `stream` through the timing-table hot path ([`RankTiming`]):
/// each command pays one O(1) [`RankTiming::is_legal`] lookup and only
/// falls back to enumerating [`RankTiming::check`] violations when illegal
/// — exactly what `DramDevice::execute` does per command. Returns a state
/// digest (issue-time XOR plus violation counts) so the optimizer cannot
/// elide the walk; the digest is bit-identical to [`run_oracle_kernel`]'s
/// on the same stream.
#[must_use]
pub fn run_table_kernel(
    geometry: &Geometry,
    timing: &TimingParams,
    stream: &[ScheduledCmd],
) -> u64 {
    let mut rank = RankTiming::new(geometry.clone(), timing.clone());
    let mut acc = 0u64;
    for sc in stream {
        let cmd = sc.decode();
        let at = sc.issue_ps();
        if !rank.is_legal(&cmd, at) {
            acc = acc.wrapping_add(rank.check(&cmd, at).len() as u64);
        }
        rank.apply(&cmd, at);
        acc ^= at;
    }
    acc
}

/// Replays `stream` through the rule-based oracle checker
/// ([`OracleRankTiming`]): every command enumerates the full
/// [`OracleRankTiming::check`] rule walk — the pre-table hot path this
/// rewrite replaced. Returns the same state digest as
/// [`run_table_kernel`].
#[must_use]
pub fn run_oracle_kernel(
    geometry: &Geometry,
    timing: &TimingParams,
    stream: &[ScheduledCmd],
) -> u64 {
    let mut rank = OracleRankTiming::new(geometry.clone(), timing.clone());
    let mut acc = 0u64;
    for sc in stream {
        let cmd = sc.decode();
        let at = sc.issue_ps();
        acc = acc.wrapping_add(rank.check(&cmd, at).len() as u64);
        rank.apply(&cmd, at);
        acc ^= at;
    }
    acc
}

/// Times `kernel` `samples` times and returns the median wall nanoseconds
/// per command, the robust summary the fig14 harness reports and enforces
/// its threshold on.
pub fn median_ns_per_cmd(samples: usize, commands: usize, mut kernel: impl FnMut() -> u64) -> f64 {
    let mut ns: Vec<f64> = (0..samples.max(1))
        .map(|_| {
            let start = std::time::Instant::now();
            std::hint::black_box(kernel());
            start.elapsed().as_nanos() as f64 / commands.max(1) as f64
        })
        .collect();
    ns.sort_by(f64::total_cmp);
    ns[ns.len() / 2]
}

/// Geometric mean of a slice (for the paper's geomean rows).
#[must_use]
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Arithmetic mean.
#[must_use]
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use easydram::json::key_paths;

    #[test]
    fn sweeps_are_powers_of_two() {
        for s in micro_sizes() {
            assert!(s.is_power_of_two());
            assert!(s >= 8 * KIB);
        }
        assert!(lmbench_sizes().contains(&KIB));
    }

    #[test]
    fn size_formatting() {
        assert_eq!(fmt_size(8 * KIB), "8K");
        assert_eq!(fmt_size(16 * MIB), "16M");
    }

    #[test]
    fn bench_report_is_valid_flat_json() {
        let runs = vec![
            ("fig8".to_string(), true, 1.25),
            ("fig\"quoted\"".to_string(), false, 0.5),
        ];
        let s = bench_report_json(&runs, &[]);
        assert!(s.starts_with("{\"schema\":8,\"quick\":"));
        assert!(s.contains(r#"{"name":"fig8","ok":true,"wall_seconds":1.250}"#));
        assert!(s.contains(r#"fig\"quoted\""#), "quotes must be escaped");
        let paths = key_paths(&s).expect("well-formed");
        assert!(paths.contains("harnesses.wall_seconds"));
    }

    #[test]
    fn bench_report_embeds_channel_sweep_section() {
        let sweep = "{\"stream_reads\":256,\"channels\":[{\"channels\":2,\"speedup\":1.954}]}\n";
        let runs = vec![("fig_channel_sweep".to_string(), true, 0.4)];
        let s = bench_report_json(&runs, &[("channel_sweep", sweep.to_string())]);
        assert!(s.contains("\"channel_sweep\":{\"stream_reads\":256,"));
        let paths = key_paths(&s).expect("well-formed");
        assert!(paths.contains("channel_sweep.channels.speedup"));
        assert!(paths.contains("harnesses.name"));
    }

    #[test]
    fn sim_speed_kernels_agree_on_the_same_stream() {
        // The table kernel's digest must be bit-identical to the oracle's:
        // `is_legal` agrees with "check() is empty" and both sides share the
        // earliest-issue and state-update math, so any divergence here is a
        // hot-path correctness bug, not a perf artifact.
        let geometry = sim_speed_geometry();
        assert_eq!(geometry.banks(), 32, "two ranks folded into 8 groups");
        let timing = TimingParams::ddr4_1333();
        let stream = sim_speed_stream(4_000, &geometry, &timing);
        assert_eq!(stream.len(), 4_000);
        assert_eq!(
            run_table_kernel(&geometry, &timing, &stream),
            run_oracle_kernel(&geometry, &timing, &stream),
        );
        // Determinism: the same arguments always yield the same stream.
        assert_eq!(stream, sim_speed_stream(4_000, &geometry, &timing));
    }

    #[test]
    fn sim_speed_stream_mixes_all_command_kinds() {
        let geometry = sim_speed_geometry();
        let timing = TimingParams::ddr4_1333();
        let stream = sim_speed_stream(2_000, &geometry, &timing);
        let count = |m: &str| {
            stream
                .iter()
                .filter(|sc| sc.decode().mnemonic() == m)
                .count()
        };
        assert!(
            stream.windows(2).all(|w| w[0].issue_ps() < w[1].issue_ps()),
            "issue times are strictly increasing"
        );
        assert!(
            std::mem::size_of::<ScheduledCmd>() <= 24,
            "the replay buffer must stay cache-resident"
        );
        for mnemonic in ["ACT", "RD", "WR", "PRE", "PREA", "REF", "RFM"] {
            assert!(count(mnemonic) > 0, "stream must exercise {mnemonic}");
        }
        assert!(
            count("ACT") + count("RD") + count("WR") > stream.len() / 2,
            "the mix stays hot-path heavy"
        );
    }

    #[test]
    fn median_is_robust_to_one_outlier() {
        let mut calls = 0u64;
        let ns = median_ns_per_cmd(3, 1_000, || {
            calls += 1;
            if calls == 2 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            calls
        });
        assert_eq!(calls, 3);
        assert!(
            ns < 5_000.0,
            "median must shrug off the one slept sample, got {ns}"
        );
    }

    #[test]
    fn stats_helpers() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-9);
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
