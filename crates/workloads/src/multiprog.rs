//! Multi-programmed workload sets for shared-tile interference studies.
//!
//! A co-run pairs (or quads) independent workloads, one per core of a
//! multi-core shared-tile system (`easydram::MultiCoreSystem`). This module
//! provides:
//!
//! * [`StreamWriter`] — a bandwidth aggressor: streaming stores sweeping a
//!   larger-than-LLC buffer, generating a continuous fill-read + writeback
//!   stream until a target emulated runtime is reached;
//! * [`by_name`] — one registry over *all* workload families (PolyBench,
//!   lmbench, copy/init microbenchmarks, and the aggressor), so harnesses
//!   can co-run any pair by name;
//! * [`co_run_set`] — builds a named multi-programmed set.

use easydram_cpu::CpuApi;
use easydram_dram::{DramConfig, MappingScheme};

use crate::hammer::{HammerKernel, HammerPattern};
use crate::{lmbench::LatMemRd, micro, polybench, PolySize, Workload};

/// A streaming-store bandwidth aggressor.
///
/// Sweeps an allocation of `bytes` with line-stride stores under streaming
/// MSHR overlap, repeatedly, until the core has emulated `target_cycles`
/// since the run started (at least one full pass always executes). Each
/// sweep misses the write-allocate caches end to end, so the memory system
/// sees a continuous fill-read plus writeback stream — the classic co-run
/// aggressor for latency-sensitive victims.
#[derive(Debug, Clone)]
pub struct StreamWriter {
    bytes: u64,
    target_cycles: u64,
    passes: u64,
    measured: Option<u64>,
}

impl StreamWriter {
    /// Creates an aggressor sweeping `bytes` (rounded up to whole lines)
    /// until `target_cycles` emulated cycles have elapsed, storing as fast
    /// as the MSHRs allow (an elastic aggressor: it expands into whatever
    /// bandwidth the memory system offers).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is smaller than one cache line.
    #[must_use]
    pub fn new(bytes: u64, target_cycles: u64) -> Self {
        assert!(bytes >= 64, "the sweep needs at least one cache line");
        Self {
            bytes,
            target_cycles,
            passes: 0,
            measured: None,
        }
    }

    /// Full sweeps completed during the last run.
    #[must_use]
    pub fn passes(&self) -> u64 {
        self.passes
    }
}

impl Workload for StreamWriter {
    fn name(&self) -> &str {
        "stream-writer"
    }

    fn run(&mut self, cpu: &mut dyn CpuApi) {
        let lines = self.bytes.div_ceil(64);
        let base = cpu.alloc(lines * 64, 64);
        let t0 = cpu.now_cycles();
        self.passes = 0;
        loop {
            cpu.stream_begin();
            for i in 0..lines {
                cpu.store_u64(base + i * 64, i ^ self.passes);
            }
            cpu.stream_end();
            self.passes += 1;
            if cpu.now_cycles() - t0 >= self.target_cycles {
                break;
            }
        }
        cpu.fence();
        self.measured = Some(cpu.now_cycles() - t0);
    }

    fn measured_cycles(&self) -> Option<u64> {
        self.measured
    }
}

/// Default working set of the named `lat_mem_rd` chase: comfortably beyond
/// the 512 KiB LLC, so every dependent load goes to memory.
pub const CHASE_BYTES: u64 = 2 * 1024 * 1024;

/// Default byte sweep of the named `stream-writer` aggressor.
pub const WRITER_BYTES: u64 = 2 * 1024 * 1024;

/// Default emulated-cycle budget of the named `stream-writer` aggressor.
pub const WRITER_TARGET_CYCLES: u64 = 20_000_000;

/// Bank the named hammer kernels attack (channel 0).
pub const HAMMER_BANK: u32 = 0;

/// Victim row of the named hammer kernels: high in the small test
/// geometry's bank, far above the bump allocator's working region, so a
/// co-running victim workload's heap never collides with the attack rows.
pub const HAMMER_VICTIM_ROW: u32 = 900;

/// Activations per aggressor the named hammer kernels issue.
pub const HAMMER_ITERATIONS: u64 = 2_000;

/// The named hammer kernels plan against the small test rig
/// (`DramConfig::small_for_tests` geometry, the default `RowColBankXor`
/// mapping); attack studies on other rigs build [`HammerKernel::in_bank`]
/// explicitly.
fn hammer_by_pattern(pattern: HammerPattern) -> Box<dyn Workload> {
    Box::new(HammerKernel::in_bank(
        &DramConfig::small_for_tests().geometry,
        MappingScheme::RowColBankXor,
        HAMMER_BANK,
        HAMMER_VICTIM_ROW,
        pattern,
        HAMMER_ITERATIONS,
    ))
}

/// Builds any workload of the suite by name: all 28 PolyBench kernels (at
/// `size`), `lat_mem_rd`, `cpu-copy`, `cpu-init`, `stream-writer`, and the
/// RowHammer attack kernels `hammer-single` / `hammer-double` /
/// `hammer-many` (at their default shapes). `None` for unknown names.
#[must_use]
pub fn by_name(name: &str, size: PolySize) -> Option<Box<dyn Workload>> {
    match name {
        "lat_mem_rd" => Some(Box::new(LatMemRd::new(CHASE_BYTES, 64))),
        "cpu-copy" => Some(Box::new(micro::CpuCopy::new(256 * 1024))),
        "cpu-init" => Some(Box::new(micro::CpuInit::new(256 * 1024))),
        "stream-writer" => Some(Box::new(StreamWriter::new(
            WRITER_BYTES,
            WRITER_TARGET_CYCLES,
        ))),
        "hammer-single" => Some(hammer_by_pattern(HammerPattern::SingleSided)),
        "hammer-double" => Some(hammer_by_pattern(HammerPattern::DoubleSided)),
        "hammer-many" => Some(hammer_by_pattern(HammerPattern::ManySided(6))),
        _ => polybench::by_name(name, size),
    }
}

/// Builds a multi-programmed set — one workload per core — from names.
/// Any pair/quad mixing PolyBench, lmbench, and micro workloads works.
/// `None` if any name is unknown.
#[must_use]
pub fn co_run_set(names: &[&str], size: PolySize) -> Option<Vec<Box<dyn Workload>>> {
    names.iter().map(|n| by_name(n, size)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use easydram_cpu::{CoreConfig, CoreModel, FixedLatencyBackend};

    #[test]
    fn stream_writer_runs_to_its_cycle_target() {
        let mut cpu = CoreModel::new(CoreConfig::cortex_a57(), FixedLatencyBackend::new(100));
        let mut w = StreamWriter::new(64 * 1024, 500_000);
        w.run(&mut cpu);
        assert!(w.passes() >= 1);
        assert!(w.measured_cycles().unwrap() >= 500_000);
    }

    #[test]
    fn registry_spans_every_family() {
        for name in [
            "gemm",
            "lat_mem_rd",
            "cpu-copy",
            "cpu-init",
            "stream-writer",
            "hammer-single",
            "hammer-double",
            "hammer-many",
        ] {
            assert!(by_name(name, PolySize::Mini).is_some(), "{name} missing");
        }
        assert!(by_name("nonexistent", PolySize::Mini).is_none());
    }

    #[test]
    fn hammer_co_run_set_builds_attacker_victim_pairs() {
        let pair = co_run_set(&["hammer-double", "lat_mem_rd"], PolySize::Mini).unwrap();
        assert_eq!(pair.len(), 2);
        assert_eq!(pair[0].name(), "hammer-double");
    }

    #[test]
    fn co_run_sets_build_pairs_and_quads() {
        let pair = co_run_set(&["lat_mem_rd", "stream-writer"], PolySize::Mini).unwrap();
        assert_eq!(pair.len(), 2);
        let quad = co_run_set(&["gemm", "mvt", "lat_mem_rd", "cpu-copy"], PolySize::Mini).unwrap();
        assert_eq!(quad.len(), 4);
        assert!(co_run_set(&["gemm", "bogus"], PolySize::Mini).is_none());
    }
}
