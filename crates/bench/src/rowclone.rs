//! Figures 10 and 11: RowClone Copy and Init execution-time speedup over
//! each platform's CPU baseline, swept over data size, on EasyDRAM without
//! time scaling (PiDRAM-like), EasyDRAM with it, and the Ramulator 2.0
//! baseline. Fig. 10 keeps cache maintenance out of the measured region;
//! Fig. 11 flushes dirty source lines and invalidates target lines inside
//! it, RowClone's worst case.
//!
//! Paper, Fig. 10 averages (maxima): without time scaling Copy 306.7×
//! (423.1×), Init 36.7× (51.3×); with time scaling Copy 15.0× (17.4×), Init
//! 1.8× (2.0×); Ramulator 2.0 Copy 27.2× (33.0×), Init 17.3× (21.0×).
//! Fig. 11: with/without time scaling Copy improves 4.04×/3.1× on average
//! (6.62×/4.83× max). docs/REPRODUCING.md lists the Fig. 11 statements this
//! reproduction does not bear out.
//!
//! Both figures are rendered from one sweep. The CPU baselines take no flush
//! mode, so each runs once per platform and size; each RowClone kernel runs
//! once per flush mode. Fig. 10 shows the no-flush RowClone runs and Fig. 11
//! the CLFLUSH ones, each beside the same baselines.

use easydram::{System, SystemConfig, TimingMode};
use easydram_cpu::Workload;
use easydram_ramulator::RamulatorConfig;
use easydram_workloads::micro::{
    CpuCopy, CpuInit, FlushMode, MicroOutcome, RowCloneCopy, RowCloneInit,
};

use crate::{fmt_size, geomean, pow2_sweep, Figure, Scale, Size, KIB, MIB};

/// The data-size sweep.
pub(crate) fn sizes(scale: Scale) -> Vec<u64> {
    scale.pick(
        vec![8 * KIB, 16 * KIB],
        pow2_sweep(8 * KIB, 512 * KIB),
        pow2_sweep(8 * KIB, 16 * MIB),
    )
}

const NO_TS: &str = "EasyDRAM-NoTS";
const TS: &str = "EasyDRAM-TS";
const RAMULATOR: &str = "Ramulator-2.0";

enum Platform {
    Easy(Box<SystemConfig>),
    Ramulator,
}

impl Platform {
    /// Runs `w` on a fresh instance, pins the report as section `label` of
    /// `fig` and returns the cycles of the workload's measured region.
    fn measure(&self, fig: &mut Figure, label: &str, w: &mut dyn Workload) -> u64 {
        let total = match self {
            Platform::Easy(cfg) => {
                let r = System::new(SystemConfig::clone(cfg)).run(w);
                fig.section(label, &r);
                r.emulated_cycles
            }
            Platform::Ramulator => {
                fig.ramulator(label, RamulatorConfig::default(), w)
                    .simulated_cycles
            }
        };
        w.measured_cycles().unwrap_or(total)
    }
}

/// A kernel of the sweep. A RowClone kernel runs in one flush mode; a CPU
/// baseline has none.
#[derive(Clone, Copy, PartialEq)]
enum Kernel {
    CpuCopy,
    RowCloneCopy(FlushMode),
    RowCloneInit(FlushMode),
    CpuInit,
}

impl Kernel {
    /// The kernels in the order they run; each is swept over every size
    /// before the next starts. Each figure's sections pin its own four in
    /// this order.
    const ALL: [Kernel; 6] = [
        Kernel::CpuCopy,
        Kernel::RowCloneCopy(FlushMode::NoFlush),
        Kernel::RowCloneCopy(FlushMode::ClFlush),
        Kernel::RowCloneInit(FlushMode::NoFlush),
        Kernel::RowCloneInit(FlushMode::ClFlush),
        Kernel::CpuInit,
    ];

    /// Runs the kernel at `bytes` on `p` and returns its measured cycles and
    /// outcome (a CPU kernel's is empty).
    fn run(self, fig: &mut Figure, p: &Platform, bytes: u64) -> (u64, MicroOutcome) {
        let flush_name = |flush| match flush {
            FlushMode::NoFlush => "noflush",
            FlushMode::ClFlush => "clflush",
        };
        let none = MicroOutcome::default();
        match self {
            Kernel::CpuCopy => (p.measure(fig, "cpu copy", &mut CpuCopy::new(bytes)), none),
            Kernel::RowCloneCopy(flush) => {
                let mut w = RowCloneCopy::new(bytes, flush);
                let label = format!("rowclone copy {}", flush_name(flush));
                (p.measure(fig, &label, &mut w), *w.outcome())
            }
            Kernel::RowCloneInit(flush) => {
                let mut w = RowCloneInit::new(bytes, flush);
                let label = format!("rowclone init {}", flush_name(flush));
                (p.measure(fig, &label, &mut w), *w.outcome())
            }
            Kernel::CpuInit => (p.measure(fig, "cpu init", &mut CpuInit::new(bytes)), none),
        }
    }
}

fn easy(scale: Scale, preset: SystemConfig) -> Platform {
    Platform::Easy(Box::new(scale.config(preset)))
}

fn time_scaled(scale: Scale) -> Platform {
    easy(scale, SystemConfig::jetson_nano(TimingMode::TimeScaling))
}

/// One kernel run of the sweep, with the report section it pins.
struct Run {
    system: &'static str,
    bytes: u64,
    kernel: Kernel,
    cycles: u64,
    outcome: MicroOutcome,
    section: String,
}

/// The sweep both figures are rendered from.
struct Sweep {
    systems: Vec<&'static str>,
    sizes: Vec<u64>,
    runs: Vec<Run>,
}

impl Sweep {
    fn new(scale: Scale) -> Sweep {
        let systems = match scale.size {
            // The golden pins the time-scaled system only.
            Size::Golden => vec![(TS, time_scaled(scale))],
            _ => vec![
                (NO_TS, easy(scale, SystemConfig::pidram_like())),
                (TS, time_scaled(scale)),
                (RAMULATOR, Platform::Ramulator),
            ],
        };
        let sizes = sizes(scale);
        let mut runs = Vec::new();
        for &(system, ref p) in &systems {
            for kernel in Kernel::ALL {
                for &bytes in &sizes {
                    let mut fig = Figure::default();
                    let (cycles, outcome) = kernel.run(&mut fig, p, bytes);
                    runs.push(Run {
                        system,
                        bytes,
                        kernel,
                        cycles,
                        outcome,
                        section: fig.sections,
                    });
                }
            }
        }
        let systems = systems.iter().map(|&(n, _)| n).collect();
        Sweep {
            systems,
            sizes,
            runs,
        }
    }

    fn get(&self, system: &str, bytes: u64, kernel: Kernel) -> Option<&Run> {
        self.runs
            .iter()
            .find(|r| r.system == system && r.bytes == bytes && r.kernel == kernel)
    }

    /// The speedup of RowClone over the CPU baseline, `[baseline,
    /// rowclone]`, on `system` at `bytes`; NaN where the sweep lacks the
    /// point, so a claim on it fails.
    fn speedup(&self, system: &str, bytes: u64, [baseline, rowclone]: [Kernel; 2]) -> f64 {
        match (
            self.get(system, bytes, baseline),
            self.get(system, bytes, rowclone),
        ) {
            (Some(b), Some(r)) => b.cycles as f64 / r.cycles.max(1) as f64,
            _ => f64::NAN,
        }
    }

    /// The figure of flush mode `flush`: the sections of the runs it shows,
    /// in sweep order, its Copy and Init tables with their geomeans, and
    /// the claim that its RowClone runs verify.
    fn figure(&self, flush: FlushMode, figure: &'static str, decimals: usize) -> Figure {
        let mut fig = Figure::default();
        let shown = || {
            self.runs.iter().filter(move |r| {
                !matches!(r.kernel, Kernel::RowCloneCopy(f) | Kernel::RowCloneInit(f) if f != flush)
            })
        };
        for r in shown() {
            fig.sections.push_str(&r.section);
        }
        let variant = match flush {
            FlushMode::NoFlush => "No Flush",
            FlushMode::ClFlush => "CLFLUSH",
        };
        let (names, sizes) = (&self.systems, &self.sizes);
        let fmt = |x: f64| format!("{x:.decimals$}");
        let mut averages = Vec::new();
        for (part, kind, pair) in [
            ("a", "Copy", [Kernel::CpuCopy, Kernel::RowCloneCopy(flush)]),
            ("b", "Init", [Kernel::CpuInit, Kernel::RowCloneInit(flush)]),
        ] {
            let speedup = |n: &str, b: u64| self.speedup(n, b, pair);
            let rows: Vec<Vec<String>> = sizes
                .iter()
                .map(|&b| {
                    std::iter::once(fmt_size(b))
                        .chain(names.iter().map(|n| fmt(speedup(n, b))))
                        .collect()
                })
                .collect();
            let header: Vec<&str> = std::iter::once("size")
                .chain(names.iter().copied())
                .collect();
            let title = format!("{figure}({part}): RowClone - {variant} {kind} speedup");
            let cells: Vec<String> = names
                .iter()
                .map(|n| {
                    let v: Vec<f64> = sizes.iter().map(|&b| speedup(n, b)).collect();
                    let max = v.iter().copied().fold(0.0, f64::max);
                    format!("{n} {}x ({}x)", fmt(geomean(&v)), fmt(max))
                })
                .collect();
            averages.push(format!("  {kind}: {}", cells.join(" | ")));
            fig.table(&title, &header, &rows);
        }
        fig.note("\nGeomeans (maxima) over all sizes:");
        for line in averages {
            fig.note(line);
        }

        let mismatches: u64 = shown().map(|r| r.outcome.mismatches).sum();
        fig.claim(
            figure,
            mismatches == 0,
            format!("every RowClone Copy and Init verifies: {mismatches} mismatched words"),
        );
        fig
    }
}

/// Figs. 10 and 11, in that order, from one sweep.
pub(crate) fn run(scale: Scale) -> Vec<Figure> {
    let sweep = Sweep::new(scale);
    vec![noflush(&sweep), clflush(&sweep, scale)]
}

/// Fig. 10: RowClone - No Flush.
fn noflush(s: &Sweep) -> Figure {
    let mut fig = s.figure(FlushMode::NoFlush, "Fig. 10", 1);
    const COPY: [Kernel; 2] = [Kernel::CpuCopy, Kernel::RowCloneCopy(FlushMode::NoFlush)];
    const INIT: [Kernel; 2] = [Kernel::CpuInit, Kernel::RowCloneInit(FlushMode::NoFlush)];
    let ts = s.speedup(TS, 64 * KIB, COPY);
    let no_ts = s.speedup(NO_TS, 64 * KIB, COPY);
    fig.claim(
        "Fig. 10",
        ts > 5.0 && ts < 40.0,
        format!(
            "at 64K, time-scaled Copy gains {ts:.1}x: material, and in the paper's decade \
             (5x - 40x)"
        ),
    );
    fig.claim(
        "Fig. 10",
        no_ts > 4.0 * ts,
        format!("at 64K, without time scaling Copy reads {no_ts:.1}x, skewed > 4x above {ts:.1}x"),
    );
    let big = 256 * KIB;
    let (copy, init) = (s.speedup(TS, big, COPY), s.speedup(TS, big, INIT));
    let ram_init = s.speedup(RAMULATOR, big, INIT);
    fig.claim(
        "Fig. 10",
        copy > init,
        format!(
            "at 256K, time-scaled Copy beats Init: {copy:.1}x vs {init:.1}x (paper 15.0x vs 1.8x)"
        ),
    );
    fig.claim(
        "Fig. 10",
        ram_init > init,
        format!(
            "at 256K, idealized DRAM over-reports Init: Ramulator {ram_init:.1}x vs {init:.1}x"
        ),
    );
    let o = s
        .get(TS, big, INIT[1])
        .map(|r| r.outcome)
        .unwrap_or_default();
    fig.claim(
        "§7.1",
        o.fallback_rows > 0,
        format!(
            "real chips leave unclonable rows: time-scaled Init at 256K falls back to the CPU \
             on {} of {} rows",
            o.fallback_rows, o.total_rows
        ),
    );
    fig
}

/// Fig. 11: RowClone - CLFLUSH.
fn clflush(s: &Sweep, scale: Scale) -> Figure {
    let mut fig = s.figure(FlushMode::ClFlush, "Fig. 11", 2);
    // The no-flush copy that the CLFLUSH copy's cost is judged against. The
    // Golden sweep stops short of 64K, so it runs here at every scale.
    let at = 64 * KIB;
    let (noflush, _) =
        Kernel::RowCloneCopy(FlushMode::NoFlush).run(&mut fig, &time_scaled(scale), at);
    let clflush = s
        .get(TS, at, Kernel::RowCloneCopy(FlushMode::ClFlush))
        .map_or(f64::NAN, |r| r.cycles as f64);
    let ratio = clflush / noflush as f64;
    fig.claim(
        "Fig. 11",
        ratio > 2.0,
        format!(
            "at 64K, cache maintenance dominates: the CLFLUSH copy takes {ratio:.1}x the \
             no-flush copy's cycles (> 2x)"
        ),
    );
    const INIT: [Kernel; 2] = [Kernel::CpuInit, Kernel::RowCloneInit(FlushMode::ClFlush)];
    let small = s.speedup(TS, 8 * KIB, INIT);
    fig.claim(
        "Fig. 11",
        small < 2.0,
        format!(
            "small CLFLUSH Init loses most of its benefit: time-scaled {small:.2}x at 8K (< 2x)"
        ),
    );
    fig
}
