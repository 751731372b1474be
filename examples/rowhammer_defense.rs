//! RowHammer attack and defense in a dozen lines: enable the read-
//! disturbance model, hammer a victim row double-sided through the full
//! stack, then install the PARA and Graphene software-memory-controller
//! mitigations and watch the flips disappear at ~2 % cycle overhead.
//!
//! ```sh
//! cargo run --release --example rowhammer_defense
//! ```

use easydram_suite::easydram::{
    GrapheneController, ParaController, SoftwareMemoryController, System, SystemConfig, TimingMode,
};
use easydram_suite::workloads::hammer::{HammerKernel, HammerPattern};
use easydram_suite::workloads::Workload;

#[expect(
    clippy::disallowed_methods,
    reason = "a run-length knob for CI; it picks the workload, not the simulation's behaviour"
)]
fn quick() -> bool {
    std::env::var("EASYDRAM_QUICK").is_ok_and(|v| v != "0")
}

fn main() {
    // The small test rig with disturbance on and HCfirst scaled down so the
    // attack completes in seconds (mechanics are intensity-invariant).
    let mut cfg = SystemConfig::small_for_tests(TimingMode::Reference);
    cfg.dram.variation.disturb_enabled = true;
    cfg.dram.variation.hc_first = (2_048, 4_096);
    let iterations = if quick() { 5_000 } else { 8_000 };

    let run = |label: &str, controller: Option<Box<dyn SoftwareMemoryController>>| {
        let mut sys = System::new(cfg.clone());
        if let Some(c) = controller {
            sys.install_controller(c);
        }
        let mut attack = HammerKernel::in_bank(
            &cfg.dram.geometry,
            cfg.mapping,
            0,
            500,
            HammerPattern::DoubleSided,
            iterations,
        );
        sys.run(&mut attack);
        let report = sys.report(label);
        let rfm = report.mitigation.map_or(0, |m| m.targeted_refreshes);
        println!(
            "  {label:>10}: {} victim bits flipped, {} targeted refreshes, {} hammer cycles",
            attack.bit_flips().unwrap(),
            rfm,
            attack.measured_cycles().unwrap(),
        );
        (
            attack.bit_flips().unwrap(),
            attack.measured_cycles().unwrap(),
        )
    };

    println!("double-sided hammer, {iterations} activations per aggressor:");
    let (flips, base) = run("undefended", None);
    let (para_flips, para_cycles) = run(
        "PARA",
        Some(Box::new(ParaController::new(512, 0xEA5D_0D12))),
    );
    let (graphene_flips, graphene_cycles) =
        run("Graphene", Some(Box::new(GrapheneController::new(512, 8))));

    println!(
        "\nundefended flips: {flips}; PARA {para_flips} flips at {:.3}x, \
         Graphene {graphene_flips} flips at {:.3}x",
        para_cycles as f64 / base as f64,
        graphene_cycles as f64 / base as f64,
    );
    assert!(flips > 0, "the undefended attack must land");
    assert_eq!(para_flips, 0, "PARA must hold");
    assert_eq!(graphene_flips, 0, "Graphene must hold");
    println!("both defenses held.");
}
