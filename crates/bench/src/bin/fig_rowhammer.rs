//! Read-disturbance attack/defense study (beyond the paper): a double-sided
//! RowHammer kernel swept over hammer intensity × {no defense, PARA,
//! Graphene}, end to end through the software memory controller.
//!
//! The rig is the small test geometry with disturbance modeling enabled and
//! `HCfirst` scaled down (2 048 – 4 096 activations) so the attack stays
//! cheap to emulate; thresholds scale, the mechanics don't. Reported per
//! cell: net victim-bit flips from the kernel's integrity checker, the
//! hammer loop's emulated cycles, the defense's targeted-refresh count, and
//! the cycle overhead vs. the unmitigated run at the same intensity.
//!
//! The headline regression: above `HCfirst`, the unmitigated run flips
//! victim bits while PARA (p = 1/512) and Graphene (threshold = effective
//! HCfirst min / 2) both hold at 0 flips within 1.3× emulated-cycle
//! overhead.

use easydram::json::JsonWriter;
use easydram::{
    GrapheneController, ParaController, SoftwareMemoryController, System, SystemConfig, TimingMode,
};
use easydram_bench::{print_table, quick, write_record};
use easydram_workloads::{HammerKernel, HammerPattern, Workload};

/// The seeded per-row disturbance-threshold range of the rig.
const HC_FIRST: (u64, u64) = (2_048, 4_096);

/// The weak-cluster bias can halve a row's threshold, so the lowest
/// `HCfirst` any row of the rig can carry is `HC_FIRST.0 / 2` — the floor
/// defense sizing and the sub-threshold sweep point must respect.
const HC_EFFECTIVE_MIN: u64 = HC_FIRST.0 / 2;

/// PARA's per-activation refresh probability is 1/512.
const PARA_P_INVERSE: u64 = 512;

/// Graphene triggers at half the *effective* minimum `HCfirst`
/// (no-false-negative margin for the Misra–Gries undercount on top of the
/// weak-cluster bias).
const GRAPHENE_THRESHOLD: u64 = HC_EFFECTIVE_MIN / 2;

/// Victim row of the attack (mid-subarray, well above the heap region).
const VICTIM_ROW: u32 = 500;

/// One measured cell of the sweep: an attack intensity against one defense.
struct RowhammerPoint {
    /// Installed defense: `"none"`, `"para"`, or `"graphene"`.
    defense: String,
    /// Activations issued per aggressor row.
    iterations: u64,
    /// Net victim bits the integrity checker found flipped.
    flips: u64,
    /// Emulated cycles of the hammer loop.
    cycles: u64,
    /// Targeted (per-row) refreshes the defense spent.
    targeted_refreshes: u64,
    /// Emulated-cycle overhead relative to the unmitigated run at the same
    /// intensity.
    overhead: f64,
}

fn rig() -> SystemConfig {
    let mut cfg = SystemConfig::small_for_tests(TimingMode::Reference);
    cfg.dram.variation.disturb_enabled = true;
    cfg.dram.variation.hc_first = HC_FIRST;
    cfg
}

fn defense(name: &str) -> Option<Box<dyn SoftwareMemoryController>> {
    match name {
        "para" => Some(Box::new(ParaController::new(PARA_P_INVERSE, 0xEA5D_0D12))),
        "graphene" => Some(Box::new(GrapheneController::new(GRAPHENE_THRESHOLD, 8))),
        _ => None,
    }
}

fn measure(defense_name: &str, iterations: u64) -> (u64, u64, u64) {
    let cfg = rig();
    let mut sys = System::new(cfg.clone());
    if let Some(c) = defense(defense_name) {
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
    let r = sys.report(defense_name);
    (
        kernel.bit_flips().expect("integrity check ran"),
        kernel.measured_cycles().expect("attack ran"),
        r.mitigation.map_or(0, |m| m.targeted_refreshes),
    )
}

fn main() {
    // The lowest point sits below HC_EFFECTIVE_MIN, so it is harmless for
    // *any* row regardless of where the seed places the weak clusters.
    let intensities: &[u64] = if quick() {
        &[800, 5_000]
    } else {
        &[800, 3_000, 5_000, 10_000]
    };
    let defenses = ["none", "para", "graphene"];

    let mut points = Vec::new();
    let mut rows = Vec::new();
    for &iterations in intensities {
        let mut baseline_cycles = 0u64;
        for d in defenses {
            let (flips, cycles, rfm) = measure(d, iterations);
            if d == "none" {
                baseline_cycles = cycles;
            }
            let overhead = cycles as f64 / baseline_cycles as f64;
            rows.push(vec![
                format!("{iterations}"),
                d.to_string(),
                format!("{flips}"),
                format!("{rfm}"),
                format!("{cycles}"),
                format!("{overhead:.3}x"),
            ]);
            points.push(RowhammerPoint {
                defense: d.to_string(),
                iterations,
                flips,
                cycles,
                targeted_refreshes: rfm,
                overhead,
            });
            eprintln!("  done {d} @ {iterations} acts/aggressor");
        }
    }

    print_table(
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

    let mut w = JsonWriter::new();
    w.begin_object().key("points").begin_array();
    for p in &points {
        w.begin_object().key("defense").string(&p.defense);
        w.key("iterations").number(p.iterations);
        w.key("flips").number(p.flips);
        w.key("cycles").number(p.cycles);
        w.key("targeted_refreshes").number(p.targeted_refreshes);
        w.key("overhead").number(format_args!("{:.3}", p.overhead));
        w.end_object();
    }
    w.end_array().end_object();
    write_record("target/rowhammer.json", &w.finish());

    // The regression contract (mirrors the tier-1 integration test).
    let top = *intensities.last().expect("non-empty sweep");
    let cell = |d: &str| {
        points
            .iter()
            .find(|p| p.defense == d && p.iterations == top)
            .expect("swept")
    };
    let (none, para, graphene) = (cell("none"), cell("para"), cell("graphene"));
    assert!(
        none.flips >= 1,
        "unmitigated hammering above HCfirst must flip victim bits"
    );
    for p in [para, graphene] {
        assert_eq!(p.flips, 0, "{} must hold at 0 flips", p.defense);
        assert!(
            p.targeted_refreshes > 0,
            "{} must spend refreshes",
            p.defense
        );
        assert!(
            p.overhead <= 1.3,
            "{} overhead {:.3}x exceeds the 1.3x budget",
            p.defense,
            p.overhead
        );
    }
    // Below the effective minimum threshold nothing flips even without a
    // defense, for any seed / weak-cluster placement.
    let low = points
        .iter()
        .find(|p| p.defense == "none" && p.iterations < HC_EFFECTIVE_MIN)
        .expect("sub-threshold point swept");
    assert_eq!(low.flips, 0, "sub-HCfirst hammering must be harmless");
    println!(
        "\nrowhammer: none={} flips, para={} flips ({:.3}x), graphene={} flips ({:.3}x) at {top} acts",
        none.flips, para.flips, para.overhead, graphene.flips, graphene.overhead
    );
    println!("rowhammer defense contract holds (flips without defense, 0 with, <= 1.3x overhead).");
}
