//! Figure 8: average cycles per load instruction for increasing lmbench
//! working-set sizes, on the modeled Cortex-A57 ground truth (`Reference`),
//! EasyDRAM with time scaling, and EasyDRAM without it (PiDRAM-like).
//!
//! Paper: the No-Time-Scaling profile sits far below the real system in
//! the main-memory region; the time-scaled profile matches it.

use easydram::{System, SystemConfig, TimingMode};
use easydram_workloads::lmbench::LatMemRd;

use crate::{fmt_size, pow2_sweep, Figure, Scale, KIB, MIB};

/// The lmbench working-set sweep.
pub(crate) fn sizes(scale: Scale) -> Vec<u64> {
    scale.pick(
        vec![64 * KIB],
        pow2_sweep(KIB, MIB),
        pow2_sweep(KIB, 16 * MIB),
    )
}

pub(crate) fn run(scale: Scale) -> Figure {
    let mut fig = Figure::default();
    let systems = [
        SystemConfig::jetson_nano(TimingMode::Reference),
        SystemConfig::jetson_nano(TimingMode::TimeScaling),
        SystemConfig::pidram_like(),
    ]
    .map(|cfg| scale.config(cfg));
    let sizes = sizes(scale);
    // cycles/load per size, one column per system
    let mut cpl: Vec<[f64; 3]> = Vec::new();
    for &size in &sizes {
        cpl.push(systems.clone().map(|cfg| {
            let mode = cfg.mode;
            let mut w = LatMemRd::new(size, 64);
            let r = System::new(cfg).run(&mut w);
            fig.section(
                format_args!("{mode} cycles/load"),
                &format_args!("{:?}", w.cycles_per_load()),
            );
            fig.section(format_args!("{mode} report"), &r);
            w.cycles_per_load().expect("lmbench ran")
        }));
    }
    let rows: Vec<Vec<String>> = sizes
        .iter()
        .zip(&cpl)
        .map(|(&size, c)| {
            std::iter::once(fmt_size(size))
                .chain(c.iter().map(|x| format!("{x:.1}")))
                .collect()
        })
        .collect();
    fig.table(
        "Figure 8: cycles per LD instruction vs lmbench size",
        &["size", "Cortex-A57 (ref)", "EasyDRAM-TS", "EasyDRAM-NoTS"],
        &rows,
    );

    // A point the sweep lacks reads NaN, so its claims fail.
    let at = |size: u64| {
        sizes
            .iter()
            .position(|&s| s == size)
            .map_or([f64::NAN; 3], |i| cpl[i])
    };
    let mem = *sizes.last().expect("non-empty sweep");
    let [reference, ts, no_ts] = at(mem);
    let skew = (ts - reference).abs() / reference * 100.0;
    fig.claim(
        "Fig. 8",
        skew < 2.0,
        format!(
            "at {}, time scaling tracks the real system: {ts:.1} vs {reference:.1} \
             cycles/load, {skew:.1}% apart (< 2%)",
            fmt_size(mem)
        ),
    );
    fig.claim(
        "Fig. 8",
        no_ts * 1.5 < reference,
        format!(
            "at {}, without time scaling memory looks {:.2}x faster than it is \
             ({no_ts:.1} vs {reference:.1} cycles/load; > 1.5x)",
            fmt_size(mem),
            reference / no_ts
        ),
    );
    let (l1, l2) = (at(8 * KIB)[0], at(128 * KIB)[0]);
    fig.claim(
        "Fig. 8",
        l1 < 8.0 && l1 < l2 && l2 < reference,
        format!(
            "cache plateaus on the real system: L1 (8K) {l1:.1} < 8 cycles/load, \
             L1 < L2 (128K) {l2:.1} < memory {reference:.1}"
        ),
    );
    fig
}
