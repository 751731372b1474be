//! The co-run aggressor for shared-tile interference studies.
//!
//! A co-run gives each core of a multi-core shared-tile system
//! (`easydram::MultiCoreSystem`) its own workload, built directly from its
//! type: a PolyBench kernel, an lmbench chase, a copy/init microbenchmark, a
//! RowHammer attack or the [`StreamWriter`] here, a bandwidth aggressor whose
//! streaming stores sweep a larger-than-LLC buffer, generating a continuous
//! fill-read + writeback stream until a target emulated runtime is reached.

use easydram_cpu::CpuApi;

use crate::Workload;

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
}
