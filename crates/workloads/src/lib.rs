//! Workloads for the EasyDRAM reproduction: the PolyBench kernel suite,
//! an lmbench-style memory-latency benchmark, and the Copy/Init RowClone
//! microbenchmarks from the paper's case studies.
//!
//! Every workload is an execution-driven program over
//! [`easydram_cpu::CpuApi`]: the same kernel source runs unchanged on the
//! EasyDRAM system, the Ramulator baseline, and plain test memories, exactly
//! as the paper runs identical binaries on each evaluated platform.
//!
//! # Example
//!
//! ```
//! use easydram_cpu::{CoreConfig, CoreModel, FixedLatencyBackend};
//! use easydram_workloads::{polybench, PolySize, Workload};
//!
//! let mut cpu = CoreModel::new(CoreConfig::cortex_a57(), FixedLatencyBackend::new(100));
//! let mut gemm = polybench::Gemm::new(PolySize::Mini);
//! gemm.run(&mut cpu);
//! assert!(gemm.checksum().is_finite());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hammer;
pub mod lmbench;
pub mod micro;
pub mod multiprog;
pub mod polybench;
pub mod util;

pub use easydram_cpu::Workload;
pub use hammer::{HammerKernel, HammerPattern};
pub use multiprog::StreamWriter;

/// Problem-size class for PolyBench kernels.
///
/// Sizes are miniaturized relative to PolyBench/C's `LARGE` dataset so that
/// full-workload emulation completes in seconds on a host machine; the cache
/// behaviour classes (L1-resident, L2-resident, memory-streaming) are
/// preserved. `docs/REPRODUCING.md` (*PolyBench problem sizes*) gives the
/// sizes and classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PolySize {
    /// Fast unit-test size.
    #[default]
    Mini,
    /// Evaluation size used by the figure harnesses.
    Small,
}

/// The 11 PolyBench workloads of the paper's Fig. 13/14 (tRCD reduction and
/// simulation-speed studies), in figure order.
#[must_use]
pub fn fig13_names() -> Vec<&'static str> {
    use polybench::*;
    vec![
        Gemver::NAME,
        Mvt::NAME,
        Gesummv::NAME,
        Syrk::NAME,
        Symm::NAME,
        Correlation::NAME,
        Covariance::NAME,
        Trisolv::NAME,
        Gramschmidt::NAME,
        Gemm::NAME,
        Durbin::NAME,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig13_is_subset_of_validation() {
        let all = polybench::all_names();
        assert_eq!(fig13_names().len(), 11);
        for n in fig13_names() {
            assert!(all.contains(&n), "{n} missing from suite");
        }
    }
}
