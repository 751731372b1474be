//! End-to-end read-disturbance regression: an attacker program hammering
//! through the full stack (CPU → cache → tile → controller → DRAM Bender →
//! device) flips victim bits when unmitigated, while the PARA and Graphene
//! software-memory-controller mitigations hold at bounded overhead.

use easydram::{
    EventKind, GrapheneController, MultiCoreSystem, ParaController, System, SystemConfig,
    TimingMode, TraceConfig, TraceLog,
};
use easydram_workloads::lmbench::LatMemRd;
use easydram_workloads::{HammerKernel, HammerPattern, Workload};

/// Per-aggressor activations the attack issues: comfortably above the
/// rig's highest `HCfirst`.
const ITERATIONS: u64 = 5_000;

/// The attacked rig: the small test geometry with disturbance modeling on
/// and thresholds scaled down so the attack stays cheap to emulate.
fn rig() -> SystemConfig {
    let mut cfg = SystemConfig::small_for_tests(TimingMode::Reference);
    cfg.dram.variation.disturb_enabled = true;
    cfg.dram.variation.hc_first = (2_048, 4_096);
    cfg
}

fn attack() -> HammerKernel {
    let cfg = rig();
    HammerKernel::in_bank(
        &cfg.dram.geometry,
        cfg.mapping,
        0,
        500,
        HammerPattern::DoubleSided,
        ITERATIONS,
    )
}

fn run_with(
    controller: Option<Box<dyn easydram::SoftwareMemoryController>>,
) -> (System, HammerKernel, u64) {
    let mut sys = System::new(rig());
    if let Some(c) = controller {
        sys.install_controller(c);
    }
    let mut kernel = attack();
    sys.run(&mut kernel);
    let cycles = kernel.measured_cycles().expect("attack ran");
    (sys, kernel, cycles)
}

#[test]
fn unmitigated_double_sided_hammering_flips_victim_bits() {
    let (sys, kernel, _) = run_with(None);
    let flips = kernel.bit_flips().expect("integrity check ran");
    assert!(
        flips >= 1,
        "hammering past HCfirst must flip at least one victim bit"
    );
    let r = sys.report("unmitigated");
    // The device counts every injected flip across the full ±2 neighborhood
    // (and re-flips of one bit cancel in the array), so it bounds the
    // checker's net count of one victim row from above.
    assert!(
        r.dram.disturbance_flips >= flips,
        "device injections ({}) must cover the checker's net flips ({flips})",
        r.dram.disturbance_flips
    );
    assert!(
        r.mitigation.is_none(),
        "no mitigation installed, none reported"
    );
    assert!(
        r.to_string().contains("rh flips"),
        "disturbance shows up in the rendered report"
    );
}

#[test]
fn para_and_graphene_defeat_the_attack_within_bounded_overhead() {
    let (_, _, baseline_cycles) = run_with(None);
    for (name, controller) in [
        (
            "para",
            Box::new(ParaController::new(512, 0xEA5D_0D12))
                as Box<dyn easydram::SoftwareMemoryController>,
        ),
        // Threshold = effective minimum HCfirst / 2: the weak-cluster bias
        // can halve hc_first.0 = 2_048 to 1_024, and the Misra–Gries
        // undercount needs margin below that.
        ("graphene", Box::new(GrapheneController::new(512, 8))),
    ] {
        let (sys, kernel, cycles) = run_with(Some(controller));
        assert_eq!(
            kernel.bit_flips(),
            Some(0),
            "{name} must keep every victim bit intact"
        );
        let r = sys.report(name);
        let m = r.mitigation.expect("mitigating controllers report stats");
        assert!(m.targeted_refreshes > 0, "{name} must have spent refreshes");
        assert_eq!(r.dram.disturbance_flips, 0, "{name}: device saw no flips");
        assert!(m.rocket_cycles > 0, "{name} tracking costs cycles");
        let overhead = cycles as f64 / baseline_cycles as f64;
        assert!(
            overhead <= 1.3,
            "{name} overhead {overhead:.3}x exceeds the 1.3x budget \
             ({cycles} vs {baseline_cycles} emulated cycles)"
        );
    }
}

#[test]
fn a_freshly_installed_mitigation_is_traced_from_its_first_refresh() {
    // The tile turns a mitigation's cumulative refresh counter into per-pass
    // delta events against what the lane's ring has already seen; a new
    // controller counts from zero, so what was seen must restart with it.
    let traced_refreshes = |log: &TraceLog| -> u64 {
        assert_eq!(log.dropped, 0, "the ring holds the whole attack");
        (log.events.iter())
            .filter(|e| e.kind == EventKind::Mitigation)
            .map(|e| u64::from(e.a))
            .sum()
    };
    let mut cfg = rig();
    cfg.trace = Some(TraceConfig {
        ring_capacity: 1 << 17,
    });
    let mut sys = System::new(cfg);
    sys.install_controller(Box::new(GrapheneController::new(512, 8)));
    sys.run(&mut attack());
    let first = sys.tile().mitigation_stats().expect("mitigating");
    assert!(first.targeted_refreshes > 0);
    assert_eq!(
        traced_refreshes(&sys.take_trace()),
        first.targeted_refreshes
    );

    sys.install_controller(Box::new(GrapheneController::new(512, 8)));
    sys.run(&mut attack());
    let second = sys.tile().mitigation_stats().expect("mitigating");
    assert!(second.targeted_refreshes > 0);
    assert_eq!(
        traced_refreshes(&sys.take_trace()),
        second.targeted_refreshes,
        "every refresh of the new controller is in the trace"
    );
}

/// Victim row of [`small_rig_attack`]: high in the small test geometry's
/// bank, far above the bump allocator's working region, so a co-running
/// victim workload's heap never collides with the attack rows.
const SMALL_RIG_VICTIM_ROW: u32 = 900;

/// Per-aggressor activations of [`small_rig_attack`]: below the realistic
/// `HCfirst` default.
const SMALL_RIG_ITERATIONS: u64 = 2_000;

/// An attack on bank 0 of `small_for_tests`'s geometry and mapping.
fn small_rig_attack(pattern: HammerPattern) -> HammerKernel {
    let cfg = SystemConfig::small_for_tests(TimingMode::Reference);
    HammerKernel::in_bank(
        &cfg.dram.geometry,
        cfg.mapping,
        0,
        SMALL_RIG_VICTIM_ROW,
        pattern,
        SMALL_RIG_ITERATIONS,
    )
}

#[test]
fn many_sided_attack_runs_against_the_shared_tile() {
    // A plain (disturbance-off) system must run a many-sided attack
    // unharmed: the attack executes, the victim stays intact.
    let mut sys = System::new(SystemConfig::small_for_tests(TimingMode::Reference));
    let mut kernel = small_rig_attack(HammerPattern::ManySided(6));
    let r = sys.run(&mut kernel);
    assert!(r.dram.activates > 0);
    assert_eq!(r.dram.disturbance_flips, 0, "disturbance is off by default");
}

#[test]
fn attacker_core_hammers_while_victim_core_chases() {
    // Core 0 runs a double-sided hammer, core 1 a latency-sensitive chase,
    // over one shared tile with disturbance modeling on. The realistic
    // `HCfirst` default sits far above the attack's activation budget, so
    // the victim's pointer chain survives while the device visibly
    // accumulates hammer pressure.
    let mut cfg = SystemConfig::small_for_tests(TimingMode::Reference);
    cfg.dram.variation.disturb_enabled = true;
    let mut sys = MultiCoreSystem::new(cfg, 2);
    let mut attacker = small_rig_attack(HammerPattern::DoubleSided);
    let mut victim = LatMemRd::shuffled_with_loads(128 * 1024, 64, 1_024);
    let r = sys.co_run(&mut [&mut attacker, &mut victim]);
    assert_eq!(r.aggregate.requestors.len(), 2);
    for q in &r.aggregate.requestors {
        assert!(q.requests > 0, "requestor {} starved", q.requestor);
    }
    assert!(victim.cycles_per_load().is_some(), "the chase completed");
    let aggressor_pressure = sys.with_tile(|t| {
        let d = t.channel_device(0);
        d.hammer_count(0, SMALL_RIG_VICTIM_ROW - 1) + d.hammer_count(0, SMALL_RIG_VICTIM_ROW + 1)
    });
    assert!(
        aggressor_pressure >= 2 * SMALL_RIG_ITERATIONS,
        "both aggressor rows must log their activations, got {aggressor_pressure}"
    );
    assert_eq!(
        r.aggregate.dram.disturbance_flips, 0,
        "the attack stays below the realistic HCfirst"
    );
}
