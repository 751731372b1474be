//! Read-disturbance attack and defense (beyond the paper): a double-sided
//! RowHammer kernel swept over hammer intensity × {no defense, PARA,
//! Graphene}, end to end through the software memory controller.
//!
//! The rig is the small test geometry with disturbance modeling on and
//! `HCfirst` scaled down (2 048 – 4 096 activations) so the attack stays
//! cheap to emulate; thresholds scale, the mechanics do not. Per cell: net
//! victim-bit flips from the kernel's integrity checker, the hammer loop's
//! emulated cycles, the defense's targeted refreshes, and the cycle
//! overhead against the undefended run at the same intensity.

use easydram::{
    GrapheneController, ParaController, SoftwareMemoryController, System, SystemConfig, TimingMode,
};
use easydram_workloads::{HammerKernel, HammerPattern, Workload};

use crate::{Figure, Scale};

/// The seeded per-row disturbance-threshold range of the rig.
const HC_FIRST: (u64, u64) = (2_048, 4_096);

/// The weak-cluster bias can halve a row's threshold, so the lowest
/// `HCfirst` any row of the rig can carry is `HC_FIRST.0 / 2`: the floor
/// that defense sizing and the sub-threshold sweep point respect.
const HC_EFFECTIVE_MIN: u64 = HC_FIRST.0 / 2;

/// PARA's per-activation refresh probability is 1/512.
const PARA_P_INVERSE: u64 = 512;

/// Graphene triggers at half the effective minimum `HCfirst` (margin for
/// the Misra–Gries undercount on top of the weak-cluster bias).
const GRAPHENE_THRESHOLD: u64 = HC_EFFECTIVE_MIN / 2;

/// Victim row of the attack (mid-subarray, well above the heap region).
const VICTIM_ROW: u32 = 500;

const DEFENSES: [&str; 3] = ["none", "para", "graphene"];

/// One cell: victim flips, hammer-loop cycles, targeted refreshes.
fn measure(fig: &mut Figure, scale: Scale, defense: &str, iterations: u64) -> (u64, u64, u64) {
    let mut cfg = scale.config(SystemConfig::small_for_tests(TimingMode::Reference));
    cfg.dram.variation.disturb_enabled = true;
    cfg.dram.variation.hc_first = HC_FIRST;
    let mut sys = System::new(cfg.clone());
    let controller: Option<Box<dyn SoftwareMemoryController>> = match defense {
        "para" => Some(Box::new(ParaController::new(PARA_P_INVERSE, 0xEA5D_0D12))),
        "graphene" => Some(Box::new(GrapheneController::new(GRAPHENE_THRESHOLD, 8))),
        _ => None,
    };
    if let Some(c) = controller {
        sys.install_controller(c);
    }
    let mut kernel = HammerKernel::in_bank(
        &cfg.dram.geometry,
        cfg.mapping,
        0,
        VICTIM_ROW,
        HammerPattern::DoubleSided,
        iterations,
    );
    sys.run(&mut kernel);
    let r = sys.report(defense);
    fig.section(format_args!("{defense} flips"), &kernel.bit_flips());
    fig.section(format_args!("{defense} report"), &r);
    (
        kernel.bit_flips().expect("integrity check ran"),
        kernel.measured_cycles().expect("attack ran"),
        r.mitigation.map_or(0, |m| m.targeted_refreshes),
    )
}

pub(crate) fn run(scale: Scale) -> Figure {
    let mut fig = Figure::default();
    // The lowest Quick and Paper point sits below HC_EFFECTIVE_MIN, so it
    // is harmless for any row wherever the seed places the weak clusters.
    let intensities = scale.pick(&[1_200][..], &[800, 5_000], &[800, 3_000, 5_000, 10_000]);
    // (defense, iterations, flips, refreshes, overhead)
    let mut cells = Vec::new();
    let mut rows = Vec::new();
    for &iterations in intensities {
        let mut undefended = 0;
        for defense in DEFENSES {
            let (flips, cycles, refreshes) = measure(&mut fig, scale, defense, iterations);
            if defense == "none" {
                undefended = cycles;
            }
            let overhead = cycles as f64 / undefended as f64;
            cells.push((defense, iterations, flips, refreshes, overhead));
            rows.push(vec![
                iterations.to_string(),
                defense.to_string(),
                flips.to_string(),
                refreshes.to_string(),
                cycles.to_string(),
                format!("{overhead:.3}x"),
            ]);
        }
    }
    fig.table(
        &format!(
            "RowHammer attack/defense: double-sided, HCfirst {}..{} \
             (PARA p=1/{PARA_P_INVERSE}, Graphene T={GRAPHENE_THRESHOLD})",
            HC_FIRST.0, HC_FIRST.1
        ),
        &[
            "acts/aggr",
            "defense",
            "victim flips",
            "rfm",
            "hammer cycles",
            "overhead",
        ],
        &rows,
    );

    let top = *intensities.last().expect("non-empty sweep");
    let cell = |d: &str, i: u64| cells.iter().find(|c| c.0 == d && c.1 == i).copied();
    let none = cell("none", top).map_or(0, |c| c.2);
    fig.claim(
        "RowHammer",
        none >= 1,
        format!("undefended hammering above HCfirst flips victim bits: {none} at {top} acts"),
    );
    for defense in &DEFENSES[1..] {
        let (_, _, flips, refreshes, overhead) = cell(defense, top).expect("every defense ran");
        fig.claim(
            "RowHammer",
            flips == 0 && refreshes > 0 && overhead <= 1.3,
            format!(
                "{defense} holds at {flips} flips at {top} acts with {refreshes} targeted \
                 refreshes and {overhead:.3}x cycles (<= 1.3x)"
            ),
        );
    }
    let low = intensities[0];
    let low_flips = cell("none", low).expect("swept").2;
    fig.claim(
        "RowHammer",
        low < HC_EFFECTIVE_MIN && low_flips == 0,
        format!(
            "below the effective minimum HCfirst ({HC_EFFECTIVE_MIN}) nothing flips even \
             undefended: {low_flips} flips at {low} acts"
        ),
    );
    fig
}
