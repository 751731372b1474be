//! The paper's evaluation: the runs that render its tables and figures.
//!
//! Each run is a `fn(Scale) -> Vec<Figure>` listed once in [`FIGURES`],
//! with the names of the figures it renders. Every run renders one figure
//! except the RowClone sweep, which renders Figs. 10 and 11 from the same
//! kernel runs. [`Scale`] picks only data: the configuration a system
//! preset is built at, the sizes swept, the kernels and the systems
//! compared. The printout (the `repro` binary), the goldens
//! (`tests/snapshots.rs`, at [`Scale::GOLDEN`]) and the claims
//! (`tests/claims.rs`, at [`Scale::QUICK`]) therefore all come from the
//! same code.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::{self, Debug, Display, Write as _};

use easydram::SystemConfig;
use easydram_cpu::Workload;
use easydram_dram::bank::RankTiming;
use easydram_dram::{DramCommand, DramConfig, Geometry, OracleRankTiming, TimingParams};
use easydram_ramulator::{RamReport, RamulatorConfig, RamulatorSystem};
use easydram_workloads::{polybench, PolySize};

mod contention;
mod fig12_trcd_heatmap;
mod fig13_trcd_speedup;
mod fig14_sim_speed;
mod fig8_latency_profile;
mod fig_channel_sweep;
mod fig_rowhammer;
mod rowclone;
mod table1_platforms;
mod validate_timescaling;

/// A run: renders its figures at a scale, in the order its entry of
/// [`FIGURES`] names them.
pub type Run = fn(Scale) -> Vec<Figure>;

/// Every run, with the names `repro` and the goldens use for the figures it
/// renders. Each figure is named once. The RowClone run names Figs. 10 and
/// 11: it runs once for both.
pub const FIGURES: [(&[&str], Run); 11] = [
    (&["table1_platforms"], |s| vec![table1_platforms::run(s)]),
    (&["validate_timescaling"], |s| {
        vec![validate_timescaling::run(s)]
    }),
    (&["fig8_latency_profile"], |s| {
        vec![fig8_latency_profile::run(s)]
    }),
    (
        &["fig10_rowclone_noflush", "fig11_rowclone_clflush"],
        rowclone::run,
    ),
    (&["fig12_trcd_heatmap"], |s| {
        vec![fig12_trcd_heatmap::run(s)]
    }),
    (&["fig13_trcd_speedup"], |s| {
        vec![fig13_trcd_speedup::run(s)]
    }),
    (&["fig14_sim_speed"], |s| vec![fig14_sim_speed::run(s)]),
    (&["fig_channel_sweep"], |s| vec![fig_channel_sweep::run(s)]),
    (&["fig_multicore_contention"], |s| {
        vec![contention::multicore(s)]
    }),
    (&["fig_rowhammer"], |s| vec![fig_rowhammer::run(s)]),
    (&["fig_latency_cdf"], |s| vec![contention::latency_cdf(s)]),
];

/// Every figure's name, in [`FIGURES`] order.
pub fn names() -> impl Iterator<Item = &'static str> {
    FIGURES.iter().flat_map(|(names, _)| names.iter().copied())
}

/// How much of a figure to run, and on which device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// The sizes swept, the kernels and the systems compared.
    pub size: Size,
    /// The seed every preset's device variation field is built from
    /// (`VariationConfig::seed`); `None` keeps the preset's shipped seed.
    pub device_seed: Option<u64>,
}

/// How much of a figure to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The miniature run a golden pins: small DRAM geometry, few points.
    Golden,
    /// Short sweeps whose claims tier-1 tests assert (`EASYDRAM_QUICK=1`).
    Quick,
    /// The paper's sweeps.
    Paper,
}

impl Scale {
    /// [`Size::Golden`] on the shipped device: what the goldens pin.
    pub const GOLDEN: Scale = Scale {
        size: Size::Golden,
        device_seed: None,
    };
    /// [`Size::Quick`] on the shipped device: what the claims test asserts.
    pub const QUICK: Scale = Scale {
        size: Size::Quick,
        device_seed: None,
    };

    /// The value for this scale.
    pub(crate) fn pick<T>(self, golden: T, quick: T, paper: T) -> T {
        match self.size {
            Size::Golden => golden,
            Size::Quick => quick,
            Size::Paper => paper,
        }
    }

    /// A system preset built at this scale: below `Paper`, RowClone pair
    /// qualification runs 100 trials instead of the preset's, `Golden`
    /// puts it on the small test DRAM, and a device seed replaces the
    /// variation field's.
    #[must_use]
    pub(crate) fn config(self, mut cfg: SystemConfig) -> SystemConfig {
        if self.size != Size::Paper {
            cfg.rowclone_test_trials = 100;
        }
        if self.size == Size::Golden {
            cfg.dram = DramConfig::small_for_tests();
        }
        if let Some(seed) = self.device_seed {
            cfg.dram.variation.seed = seed;
        }
        cfg
    }

    /// PolyBench kernel `name` at this scale's dataset size.
    #[must_use]
    pub(crate) fn kernel(self, name: &str) -> Box<dyn Workload> {
        let size = self.pick(PolySize::Mini, PolySize::Mini, PolySize::Small);
        polybench::by_name(name, size).expect("a PolyBench kernel")
    }
}

/// One statement of the paper (or of an extension) checked against the
/// numbers a figure just produced.
#[derive(Debug)]
pub struct Claim {
    /// Where it is stated: a paper section, figure or table.
    pub cite: &'static str,
    /// The statement, with the measured numbers.
    pub text: String,
    /// Whether the numbers bear it out.
    pub holds: bool,
}

impl Display for Claim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let verdict = if self.holds { "PASS" } else { "FAIL" };
        write!(f, "[{verdict}] {}: {}", self.cite, self.text)
    }
}

/// What a figure produced.
#[derive(Debug, Default)]
pub struct Figure {
    /// The printed tables and notes.
    pub text: String,
    /// Labelled `{:#?}` renders of every deterministic report the figure
    /// ran, in run order: what a golden pins.
    pub sections: String,
    /// The claims, computed from the numbers above.
    pub claims: Vec<Claim>,
    /// Files for `repro` to write: `(path, bytes)`.
    pub files: Vec<(&'static str, Vec<u8>)>,
}

impl Figure {
    /// Appends an aligned table: a title, a header row and data rows.
    pub(crate) fn table(&mut self, title: &str, header: &[&str], rows: &[Vec<String>]) {
        let header: Vec<String> = header.iter().map(ToString::to_string).collect();
        let mut widths: Vec<usize> = header.iter().map(String::len).collect();
        for row in rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let _ = writeln!(self.text, "\n== {title} ==");
        for row in std::iter::once(&header).chain(rows) {
            let cells: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(cell, w)| format!("{cell:>w$}"))
                .collect();
            let _ = writeln!(self.text, "{}", cells.join("  "));
        }
    }

    /// Appends one line of text.
    pub(crate) fn note(&mut self, line: impl Display) {
        let _ = writeln!(self.text, "{line}");
    }

    /// Appends a labelled section holding `value`'s pretty `Debug` render.
    pub(crate) fn section(&mut self, label: impl Display, value: &dyn Debug) {
        let _ = writeln!(self.sections, "== {label} ==\n{value:#?}\n");
    }

    /// Runs `w` on a fresh Ramulator baseline and pins its report as
    /// section `label`, measured host time zeroed.
    pub(crate) fn ramulator(
        &mut self,
        label: impl Display,
        cfg: RamulatorConfig,
        w: &mut dyn Workload,
    ) -> RamReport {
        let r = RamulatorSystem::new(cfg).run(w);
        let pinned = RamReport {
            host_wall_seconds: 0.0,
            ..r.clone()
        };
        self.section(label, &pinned);
        r
    }

    /// Records a claim.
    pub(crate) fn claim(&mut self, cite: &'static str, holds: bool, text: impl Into<String>) {
        self.claims.push(Claim {
            cite,
            text: text.into(),
            holds,
        });
    }
}

/// KiB.
pub(crate) const KIB: u64 = 1024;
/// MiB.
pub(crate) const MIB: u64 = 1024 * 1024;

/// The powers of two from `lo` to `hi`, both included.
#[must_use]
pub(crate) fn pow2_sweep(lo: u64, hi: u64) -> Vec<u64> {
    std::iter::successors(Some(lo), |s| Some(s * 2))
        .take_while(|&s| s <= hi)
        .collect()
}

/// Formats a byte count the way the paper's x-axes do (8K, 64K, 1M, ...).
#[must_use]
pub(crate) fn fmt_size(bytes: u64) -> String {
    if bytes >= MIB {
        format!("{}M", bytes / MIB)
    } else {
        format!("{}K", bytes / KIB)
    }
}

/// Serve-loop regression threshold a release `repro fig14_sim_speed` checks: the
/// precomputed timing-table kernel must stay at least this many times faster
/// than the rule-based oracle checker.
pub(crate) const SIM_SPEED_THRESHOLD: f64 = 2.0;

/// The geometry the sim-speed kernels run on: two ranks folded into the
/// bank-group dimension ([`Geometry::per_channel`]), i.e. 32 banks across
/// 8 groups — the largest timing-table scope mix a single channel device
/// exercises (channel, rank, cross/same bank group, bank, same row).
#[must_use]
pub(crate) fn sim_speed_geometry() -> Geometry {
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
pub(crate) struct ScheduledCmd {
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
    pub(crate) fn decode(&self) -> DramCommand {
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
    pub(crate) fn issue_ps(&self) -> u64 {
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
pub(crate) fn sim_speed_stream(
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
    // Column-dominant mix with rare refreshes, like real serve-loop traffic
    // (tREFI is thousands of commands at DDR4 rates; row hits dominate).
    while out.len() < commands {
        let kind = next() % 64;
        let bank = (next() % banks) as u32;
        let row = (next() % rows) as u32;
        let col = (next() % cols) as u32;
        let open = scheduler.open_row(bank).is_some();
        let pre = DramCommand::Precharge { bank };
        let act = DramCommand::Activate { bank, row };
        let data = [0xA5; easydram_dram::LINE_BYTES];
        let cmds = match kind {
            0..=7 => [open.then_some(pre), Some(act)],
            8..=33 => [
                (!open).then_some(act),
                Some(DramCommand::Read { bank, col }),
            ],
            34..=53 => [
                (!open).then_some(act),
                Some(DramCommand::Write { bank, col, data }),
            ],
            54..=60 => [Some(pre), None],
            61 => [Some(DramCommand::PrechargeAll), None],
            62 => [Some(DramCommand::PrechargeAll), Some(DramCommand::Refresh)],
            _ => [
                open.then_some(pre),
                Some(DramCommand::RefreshRow { bank, row }),
            ],
        };
        for cmd in cmds.into_iter().flatten() {
            now = (now + timing.t_ck_ps).max(scheduler.earliest_issue_ps(&cmd));
            scheduler.apply(&cmd, now);
            out.push(ScheduledCmd::encode(&cmd, now));
        }
    }
    out.truncate(commands);
    out
}

/// Replays `stream`, asking `violations` for each command's violation count,
/// and returns a state digest (issue-time XOR plus violation counts) so the
/// optimizer cannot elide the walk.
fn replay(stream: &[ScheduledCmd], mut violations: impl FnMut(&DramCommand, u64) -> usize) -> u64 {
    stream.iter().fold(0u64, |acc, sc| {
        let at = sc.issue_ps();
        acc.wrapping_add(violations(&sc.decode(), at) as u64) ^ at
    })
}

/// Replays `stream` through the timing-table hot path ([`RankTiming`]):
/// each command pays one O(1) [`RankTiming::is_legal`] lookup and only
/// falls back to enumerating [`RankTiming::check`] violations when illegal
/// — exactly what `DramDevice::execute` does per command. The digest is
/// bit-identical to [`run_oracle_kernel`]'s on the same stream.
#[must_use]
pub(crate) fn run_table_kernel(
    geometry: &Geometry,
    timing: &TimingParams,
    stream: &[ScheduledCmd],
) -> u64 {
    let mut rank = RankTiming::new(geometry.clone(), timing.clone());
    replay(stream, |cmd, at| {
        let violations = if rank.is_legal(cmd, at) {
            0
        } else {
            rank.check(cmd, at).len()
        };
        rank.apply(cmd, at);
        violations
    })
}

/// Replays `stream` through the rule-based oracle checker
/// ([`OracleRankTiming`]): every command enumerates the full
/// [`OracleRankTiming::check`] rule walk — the pre-table hot path this
/// rewrite replaced.
#[must_use]
pub(crate) fn run_oracle_kernel(
    geometry: &Geometry,
    timing: &TimingParams,
    stream: &[ScheduledCmd],
) -> u64 {
    let mut rank = OracleRankTiming::new(geometry.clone(), timing.clone());
    replay(stream, |cmd, at| {
        let violations = rank.check(cmd, at).len();
        rank.apply(cmd, at);
        violations
    })
}

/// Times `kernel` `samples` times and returns the median wall nanoseconds
/// per command, the robust summary Fig. 14's serve-loop race reports and
/// checks its threshold on.
pub(crate) fn median_ns_per_cmd(
    samples: usize,
    commands: usize,
    mut kernel: impl FnMut() -> u64,
) -> f64 {
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
pub(crate) fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Arithmetic mean.
#[must_use]
pub(crate) fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_are_powers_of_two() {
        let scale = |size| Scale {
            size,
            device_seed: None,
        };
        for size in [Size::Golden, Size::Quick, Size::Paper] {
            for s in rowclone::sizes(scale(size)) {
                assert!(s.is_power_of_two() && s >= 8 * KIB, "{size:?}: {s}");
            }
            for s in fig8_latency_profile::sizes(scale(size)) {
                assert!(s.is_power_of_two(), "{size:?}: {s}");
            }
        }
        assert_eq!(fig8_latency_profile::sizes(scale(Size::Paper))[0], KIB);
    }

    #[test]
    fn size_formatting() {
        assert_eq!(fmt_size(8 * KIB), "8K");
        assert_eq!(fmt_size(16 * MIB), "16M");
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
