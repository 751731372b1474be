//! Integration tests for the multi-core shared-tile subsystem: deterministic
//! co-scheduling, per-requestor attribution, and the headline contention
//! regression — an lmbench-style pointer chase slows down measurably when
//! co-run against a streaming writer on one channel, and a second channel
//! recovers most of the loss.

use easydram::{MultiCoreSystem, SystemConfig, TimingMode};
use easydram_cpu::{CacheConfig, CpuApi, Workload};
use easydram_workloads::lmbench::LatMemRd;
use easydram_workloads::StreamWriter;

/// Chase working set (8× the shrunken L2, so every dependent load misses).
const CHASE_BYTES: u64 = 256 * 1024;
/// Dependent loads in the chase's measured region.
const CHASE_LOADS: u64 = 2_048;

/// A small-cache variant of the test system so memory-resident working sets
/// stay cheap to emulate: 4 KiB L1, 32 KiB L2. The device keeps the small
/// row count but a realistic 8 banks per channel, so cross-core
/// interference is bus serialization (which extra channels split) rather
/// than pathological two-bank row conflicts.
fn cfg(channels: u32) -> SystemConfig {
    let mut cfg = SystemConfig::small_for_tests(TimingMode::Reference);
    cfg.dram.geometry.channels = channels;
    cfg.dram.geometry.bank_groups = 2;
    cfg.dram.geometry.banks_per_group = 4;
    cfg.core.l1 = Some(CacheConfig {
        size_bytes: 4 * 1024,
        ways: 2,
        hit_latency_cycles: 4,
    });
    cfg.core.l2 = Some(CacheConfig {
        size_bytes: 32 * 1024,
        ways: 4,
        hit_latency_cycles: 12,
    });
    cfg
}

/// Co-scheduling quantum for the contention study. The quantum bounds the
/// emulation-order skew between cores (a core may price requests up to one
/// quantum ahead of the laggard), so interference studies keep it small
/// relative to a memory round trip.
const QUANTUM: u64 = 40;

/// Cycles per dependent load of the chase, solo or co-run with the writer.
/// The chase is *shuffled* (no row-buffer locality of its own), so the
/// co-run delta is genuine queueing behind the writer's traffic rather
/// than lost open-row locality — the component a second channel splits.
fn chase_cpl(channels: u32, with_writer: bool) -> f64 {
    let mut chase = LatMemRd::shuffled_with_loads(CHASE_BYTES, 64, CHASE_LOADS);
    if with_writer {
        let mut sys = MultiCoreSystem::new(cfg(channels), 2);
        sys.set_quantum(QUANTUM);
        // An elastic streaming writer whose cycle budget comfortably covers
        // the chase's whole run, so the measured region is contended end to
        // end.
        let mut writer = StreamWriter::new(256 * 1024, 2_000_000);
        sys.co_run(&mut [&mut chase, &mut writer]);
    } else {
        let mut sys = MultiCoreSystem::new(cfg(channels), 1);
        sys.set_quantum(QUANTUM);
        sys.co_run(&mut [&mut chase]);
    }
    chase.cycles_per_load().expect("chase ran")
}

#[test]
fn streaming_writer_degrades_chase_latency_and_channels_recover_it() {
    let solo_1ch = chase_cpl(1, false);
    let co_1ch = chase_cpl(1, true);
    let solo_2ch = chase_cpl(2, false);
    let co_2ch = chase_cpl(2, true);
    let degradation_1ch = co_1ch / solo_1ch;
    let degradation_2ch = co_2ch / solo_2ch;
    println!(
        "chase cycles/load: solo 1ch {solo_1ch:.1}, co-run 1ch {co_1ch:.1} ({degradation_1ch:.3}x); \
         solo 2ch {solo_2ch:.1}, co-run 2ch {co_2ch:.1} ({degradation_2ch:.3}x)"
    );
    assert!(
        degradation_1ch >= 1.1,
        "co-running a streaming writer on one channel must slow the chase \
         by >= 1.1x, got {degradation_1ch:.3}x"
    );
    assert!(
        degradation_2ch - 1.0 < (degradation_1ch - 1.0) / 2.0,
        "a second channel must recover more than half the interference: \
         1ch {degradation_1ch:.3}x vs 2ch {degradation_2ch:.3}x"
    );
}

/// Two identical workloads on a 1-channel tile: per-requestor reports
/// partition the aggregate, and the whole co-run reproduces byte-identically.
#[test]
fn identical_pair_partitions_aggregate_and_reproduces_byte_identically() {
    let run = || {
        let mut sys = MultiCoreSystem::new(cfg(1), 2);
        let mut a = LatMemRd::with_loads(64 * 1024, 64, 256);
        let mut b = LatMemRd::with_loads(64 * 1024, 64, 256);
        let r = sys.co_run(&mut [&mut a, &mut b]);
        (format!("{r}"), r)
    };
    let (text1, r) = run();
    let (text2, _) = run();
    assert_eq!(text1, text2, "co-runs must reproduce byte-identically");

    let q = &r.aggregate.requestors;
    assert_eq!(q.len(), 2);
    assert_eq!(
        q.iter().map(|q| q.requests).sum::<u64>(),
        r.aggregate.smc.requests,
        "per-requestor requests partition the tile total"
    );
    assert_eq!(
        q.iter()
            .map(|q| q.reads + q.writes + q.rowclones)
            .sum::<u64>(),
        r.aggregate.smc.requests,
        "every request is classified exactly once"
    );
    assert_eq!(
        q.iter()
            .map(|q| q.row_hits + q.row_misses + q.row_conflicts)
            .sum::<u64>(),
        r.aggregate.smc.serve.row_hits
            + r.aggregate.smc.serve.row_misses
            + r.aggregate.smc.serve.row_conflicts,
        "per-requestor row outcomes partition the controller totals"
    );
    // Rocket cycles are attributed per response slice; trailing per-pass
    // work (the final scheduling-state write and empty-FIFO polls) stays
    // unattributed, so the slices bound the per-channel totals from below.
    let attributed: u64 = q.iter().map(|q| q.rocket_cycles).sum();
    let total: u64 = r.aggregate.channels.iter().map(|c| c.rocket_cycles).sum();
    assert!(
        attributed > 0 && attributed <= total,
        "attributed rocket cycles ({attributed}) bound the channel totals ({total})"
    );
    // Identical programs co-scheduled fairly see near-identical service.
    let (r0, r1) = (q[0].requests as f64, q[1].requests as f64);
    assert!(
        (r0 - r1).abs() / r0.max(r1) < 0.2,
        "identical workloads should split the tile roughly evenly: {r0} vs {r1}"
    );
    // The per-core summaries carry each core's own stall picture.
    for c in &r.cores {
        assert!(c.core.stall_cycles > 0);
    }
}

/// The report's requestor lines appear only for multi-core runs, and the
/// Display format carries the per-requestor breakdown.
#[test]
fn corun_report_displays_per_requestor_lines() {
    let mut sys = MultiCoreSystem::new(cfg(1), 2);
    let mut a = LatMemRd::with_loads(32 * 1024, 64, 128);
    let mut b = LatMemRd::with_loads(32 * 1024, 64, 128);
    let r = sys.co_run(&mut [&mut a, &mut b]);
    let text = r.to_string();
    assert!(text.contains("req0:"), "report lists requestor 0:\n{text}");
    assert!(text.contains("req1:"), "report lists requestor 1:\n{text}");
    assert!(
        text.contains("core0 [lat_mem_rd]"),
        "per-core summaries:\n{text}"
    );
}

/// A quad co-run (two PolyBench kernels, a chase and an init sweep) works
/// end to end on a 2-channel tile and every requestor is served.
#[test]
fn quad_corun_over_two_channels() {
    use easydram_workloads::micro::CpuInit;
    use easydram_workloads::polybench::{Gemm, Mvt};
    use easydram_workloads::PolySize;
    let mut gemm = Gemm::new(PolySize::Mini);
    let mut mvt = Mvt::new(PolySize::Mini);
    // A bounded chase keeps the test fast.
    let mut chase = LatMemRd::with_loads(64 * 1024, 64, 256);
    let mut init = CpuInit::new(256 * 1024);
    let mut sys = MultiCoreSystem::new(cfg(2), 4);
    let r = sys.co_run(&mut [&mut gemm, &mut mvt, &mut chase, &mut init]);
    assert_eq!(r.cores.len(), 4);
    assert_eq!(r.aggregate.requestors.len(), 4);
    for q in &r.aggregate.requestors {
        assert!(q.requests > 0, "requestor {} starved", q.requestor);
    }
    assert_eq!(r.aggregate.channels.len(), 2);
    assert!(r.aggregate.channels.iter().all(|c| c.requests > 0));
}

/// `System::run` is a 1-core co-run: over the figure workloads' whole
/// range of memory paths (cache-resident compute, a dependent chase,
/// RowClone copy and init in both flush settings, posted store sweeps and
/// a mitigated hammer), the plain report equals the co-run aggregate in
/// every field but the per-core caches.
#[test]
fn plain_run_equals_a_one_core_co_run() {
    use easydram::GrapheneController;
    use easydram_workloads::micro::{FlushMode, RowCloneCopy, RowCloneInit};
    use easydram_workloads::{polybench, HammerKernel, HammerPattern, PolySize};

    let plain = SystemConfig::small_for_tests(TimingMode::TimeScaling);
    let mut hammer_rig = SystemConfig::small_for_tests(TimingMode::Reference);
    hammer_rig.dram.variation.disturb_enabled = true;
    hammer_rig.dram.variation.hc_first = (2_048, 4_096);
    let hammer = || {
        HammerKernel::in_bank(
            &hammer_rig.dram.geometry,
            hammer_rig.mapping,
            0,
            500,
            HammerPattern::DoubleSided,
            3_000,
        )
    };
    type Case<'a> = (SystemConfig, bool, &'a dyn Fn() -> Box<dyn Workload>);
    let cases: [Case; 8] = [
        (plain.clone(), false, &|| {
            polybench::by_name("gemm", PolySize::Mini).expect("registered")
        }),
        (plain.clone(), false, &|| {
            Box::new(LatMemRd::shuffled_with_loads(64 * 1024, 64, 512))
        }),
        (plain.clone(), false, &|| {
            Box::new(RowCloneCopy::new(16 * 1024, FlushMode::NoFlush))
        }),
        (plain.clone(), false, &|| {
            Box::new(RowCloneCopy::new(16 * 1024, FlushMode::ClFlush))
        }),
        (plain.clone(), false, &|| {
            Box::new(RowCloneInit::new(16 * 1024, FlushMode::NoFlush))
        }),
        (plain.clone(), false, &|| {
            Box::new(RowCloneInit::new(16 * 1024, FlushMode::ClFlush))
        }),
        (plain.clone(), false, &|| {
            Box::new(StreamWriter::new(32 * 1024, 50_000))
        }),
        (hammer_rig.clone(), true, &|| Box::new(hammer())),
    ];
    for (cfg, graphene, make) in cases {
        let mut sys = easydram::System::new(cfg.clone());
        let mut multi = MultiCoreSystem::new(cfg, 1);
        if graphene {
            sys.install_controller(Box::new(GrapheneController::new(512, 8)));
            multi.with_tile(|t| t.install_controller(Box::new(GrapheneController::new(512, 8))));
        }
        let r = sys.run(make().as_mut());
        let mut expect = multi.co_run(&mut [make().as_mut()]).aggregate;
        // Caches are per core in a co-run, so the aggregate carries none.
        (expect.l1, expect.l2) = (r.l1, r.l2);
        assert_eq!(r, expect, "{}", r.name);
    }
}

/// Re-running on the same system opens a fresh window (mirrors
/// `System::run` semantics).
#[test]
fn successive_coruns_report_windows_not_lifetimes() {
    struct Tiny;
    impl Workload for Tiny {
        fn name(&self) -> &str {
            "tiny"
        }
        fn run(&mut self, cpu: &mut dyn CpuApi) {
            let a = cpu.alloc(4096, 64);
            for i in 0..64u64 {
                cpu.store_u64(a + i * 64, i);
            }
            cpu.fence();
        }
    }
    let mut sys = MultiCoreSystem::new(cfg(1), 2);
    let r1 = sys.co_run(&mut [&mut Tiny, &mut Tiny]);
    let r2 = sys.co_run(&mut [&mut Tiny, &mut Tiny]);
    assert!(r1.aggregate.smc.requests > 0);
    assert!(
        r2.aggregate.smc.requests <= r1.aggregate.smc.requests,
        "second window must not accumulate the first"
    );
    assert!(
        r2.aggregate
            .requestors
            .iter()
            .map(|q| q.requests)
            .sum::<u64>()
            == r2.aggregate.smc.requests,
        "windowed requestor stats partition the windowed total"
    );
}
