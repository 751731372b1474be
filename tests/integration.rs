//! Cross-crate integration tests: data integrity end-to-end through every
//! layer (workload → core → caches → SMC → DRAM Bender → device) and
//! cross-simulator functional equivalence.

use easydram_suite::cpu::{CpuApi, FixedLatencyBackend, MemoryBackend, RowCloneStatus, Workload};
use easydram_suite::easydram::{System, SystemConfig, TimingMode};
use easydram_suite::ramulator::{RamulatorConfig, RamulatorSystem};
use easydram_suite::workloads::{polybench, PolySize};

/// Every PolyBench kernel computes the same checksum on the EasyDRAM system
/// (all three timing modes) and on the Ramulator baseline: the memory
/// systems are functionally transparent even though their timing models
/// differ completely.
#[test]
fn all_28_kernels_compute_identical_results_on_every_memory_system() {
    for name in easydram_suite::workloads::polybench::all_names() {
        let checksum_easy = |mode: TimingMode| -> f64 {
            let mut sys = System::new(SystemConfig::small_for_tests(mode));
            let mut w = polybench::by_name(name, PolySize::Mini).expect("kernel");
            sys.run(w.as_mut());
            w.result_checksum()
                .unwrap_or_else(|| panic!("{name}: no checksum"))
        };
        let ts = checksum_easy(TimingMode::TimeScaling);
        let reference = checksum_easy(TimingMode::Reference);
        let ram = {
            let mut sim = RamulatorSystem::new(RamulatorConfig::default());
            let mut w = polybench::by_name(name, PolySize::Mini).expect("kernel");
            sim.run(w.as_mut());
            w.result_checksum()
                .unwrap_or_else(|| panic!("{name}: no checksum"))
        };
        assert_eq!(ts, reference, "{name}: timing mode must not change results");
        assert_eq!(ts, ram, "{name}: EasyDRAM vs Ramulator results differ");
        assert!(ts.is_finite(), "{name}");
    }
}

/// "Identical binaries on every platform" starts at the allocator: one
/// `(bytes, align)` sequence gets the same base addresses from the
/// fixed-latency reference, the Ramulator baseline and the EasyDRAM tile.
#[test]
fn same_alloc_sequence_same_addresses_on_every_backend() {
    let seq = [
        (10, 0),
        (64, 64),
        (3 * 8192, 8192),
        (1, 1),
        (4096, 4096),
        (100_000, 64),
        (8, 8),
        (1 << 20, 1 << 16),
    ];
    let bases = |b: &mut dyn MemoryBackend| seq.map(|(bytes, align)| b.alloc(bytes, align));
    let fixed = bases(&mut FixedLatencyBackend::new(1));
    let ram = bases(
        RamulatorSystem::new(RamulatorConfig::default())
            .cpu()
            .backend_mut(),
    );
    let tile = bases(System::new(SystemConfig::jetson_nano(TimingMode::TimeScaling)).tile_mut());
    assert_eq!(
        fixed[..2],
        [0x1_0000, 0x1_0040],
        "the heap starts at 64 KiB"
    );
    assert_eq!(fixed, ram);
    assert_eq!(fixed, tile);
}

/// RowClone with a deterministic always-reliable chip produces exact copies
/// through the real command path; with the default chip, fallback preserves
/// correctness.
#[test]
fn rowclone_end_to_end_data_integrity() {
    let mut cfg = SystemConfig::small_for_tests(TimingMode::TimeScaling);
    // Only Always/Never pairs: no silent flaky failures in this test.
    cfg.dram.variation.pair_flaky_milli = 0;
    let mut sys = System::new(cfg);
    let bytes = 8 * 8192u64;
    let (src, dst) = sys.cpu().rowclone_alloc_copy(bytes).expect("fits");
    for i in 0..bytes / 8 {
        sys.cpu().store_u64(src + i * 8, i ^ 0x1234_5678);
    }
    for line in 0..bytes / 64 {
        sys.cpu().clflush(src + line * 64);
    }
    sys.cpu().fence();
    for r in 0..bytes / 8192 {
        let s = src + r * 8192;
        let d = dst + r * 8192;
        if sys.cpu().rowclone_row(s, d) != RowCloneStatus::Copied {
            for i in 0..1024u64 {
                let v = sys.cpu().load_u64(s + i * 8);
                sys.cpu().store_u64(d + i * 8, v);
            }
        }
    }
    sys.cpu().fence();
    for i in 0..bytes / 8 {
        assert_eq!(sys.cpu().load_u64(dst + i * 8), i ^ 0x1234_5678, "word {i}");
    }
}

/// Disabling the Bloom filter's protection (accessing weak rows at reduced
/// tRCD) corrupts real data — the failure the paper's profiling+filter
/// design exists to prevent.
#[test]
fn unprotected_reduced_trcd_corrupts_weak_rows() {
    // Full geometry: weak clusters span the whole characterization grid.
    let mut sys = System::new(SystemConfig::jetson_nano(TimingMode::Reference));
    // Find a weak row via ground truth.
    let geo = sys.tile().config().dram.geometry.clone();
    let weak = {
        let var = sys.tile().channel_device(0).variation();
        (0..geo.rows_per_bank)
            .find(|&r| var.line_min_trcd_ps(0, r, 0) > 9_400)
            .expect("weak rows exist")
    };
    let strong = {
        let var = sys.tile().channel_device(0).variation();
        (0..geo.rows_per_bank)
            .find(|&r| var.line_min_trcd_ps(0, r, 0) <= 8_600)
            .expect("strong rows exist")
    };
    let issue = sys.cpu().now_cycles();
    // Reading the strong line at 9 ns works; the weak one fails.
    assert!(sys.tile_mut().profile_line(0, strong, 0, 9_000, issue));
    assert!(!sys.tile_mut().profile_line(0, weak, 0, 8_500, issue));
}

/// The timing-mode ordering holds for a full kernel, not just
/// microbenchmarks: time scaling tracks the reference exactly, and the
/// No-TS system observes far fewer stall cycles per memory request (the
/// Fig. 8 effect at workload scale).
#[test]
fn timing_modes_order_full_kernels() {
    let run = |cfg: SystemConfig| {
        let mut sys = System::new(cfg);
        let mut w = polybench::Gesummv::new(PolySize::Mini);
        let r = sys.run(&mut w);
        (
            r.emulated_cycles as f64,
            r.core.stall_cycles as f64 / r.core.mem_reads.max(1) as f64,
        )
    };
    let (reference, ref_stall) = run(SystemConfig::small_for_tests(TimingMode::Reference));
    let (ts, _) = run(SystemConfig::small_for_tests(TimingMode::TimeScaling));
    assert!((ts - reference).abs() / reference < 0.01);
    assert!(ref_stall > 0.0, "gesummv must touch memory");
    // The No-TS skew on dependent accesses (Fig. 8's effect) at kernel
    // scale: a dependent pointer chase observes far fewer cycles per load
    // on the 50 MHz system than on the modeled 1.43 GHz system.
    let chase = |cfg: SystemConfig| {
        let mut sys = System::new(cfg);
        let mut w = easydram_suite::workloads::lmbench::LatMemRd::new(1024 * 1024, 64);
        w.run(sys.cpu());
        w.cycles_per_load().expect("ran")
    };
    let ref_cpl = chase(SystemConfig::small_for_tests(TimingMode::Reference));
    let mut nots_cfg = SystemConfig::pidram_like();
    nots_cfg.dram = easydram_suite::dram::DramConfig::small_for_tests();
    let nots_cpl = chase(nots_cfg);
    assert!(
        nots_cpl * 1.5 < ref_cpl,
        "No-TS must underestimate dependent latency: {nots_cpl} vs {ref_cpl}"
    );
}
