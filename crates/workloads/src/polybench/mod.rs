//! The PolyBench kernel suite (28 kernels), miniaturized for execution-driven
//! emulation (`docs/REPRODUCING.md`, *PolyBench problem sizes*, has the
//! size-substitution note).
//!
//! Kernels follow the PolyBench/C 4.2 reference algorithms; data sizes are
//! selected per kernel so the suite spans the same cache-behaviour classes
//! as the paper's evaluation: L1-resident (`durbin`), L2-resident, and
//! memory-streaming (`gemver`, `mvt`) working sets.

pub mod blas;
pub mod datamining;
pub mod medley;
pub mod solvers;
pub mod stencils;

use crate::{PolySize, Workload};

pub use blas::{
    Atax, Bicg, Doitgen, Gemm, Gemver, Gesummv, Mvt, Symm, Syr2k, Syrk, Three3mm, Trmm, Two2mm,
};
pub use datamining::{Correlation, Covariance};
pub use medley::FloydWarshall;
pub use solvers::{Cholesky, Durbin, Gramschmidt, Lu, Ludcmp, Trisolv};
pub use stencils::{Adi, Fdtd2d, Heat3d, Jacobi1d, Jacobi2d, Seidel2d};

/// The [`KERNELS`] rows of the listed kernel types.
macro_rules! kernels {
    ($($ty:ident),* $(,)?) => {
        [$(($ty::NAME, |size| Box::new($ty::new(size)))),*]
    };
}

/// Builds a kernel at the given problem size.
type Constructor = fn(PolySize) -> Box<dyn Workload>;

/// Every kernel once, sorted by name: its [`Workload::name`] and its
/// constructor.
const KERNELS: [(&str, Constructor); 28] = kernels![
    Two2mm,
    Three3mm,
    Adi,
    Atax,
    Bicg,
    Cholesky,
    Correlation,
    Covariance,
    Doitgen,
    Durbin,
    Fdtd2d,
    FloydWarshall,
    Gemm,
    Gemver,
    Gesummv,
    Gramschmidt,
    Heat3d,
    Jacobi1d,
    Jacobi2d,
    Lu,
    Ludcmp,
    Mvt,
    Seidel2d,
    Symm,
    Syr2k,
    Syrk,
    Trisolv,
    Trmm,
];

/// All 28 kernel names, sorted.
#[must_use]
pub fn all_names() -> [&'static str; 28] {
    KERNELS.map(|(name, _)| name)
}

/// Constructs a kernel by its [`all_names`] name.
#[must_use]
pub fn by_name(name: &str, size: PolySize) -> Option<Box<dyn Workload>> {
    let (_, new) = KERNELS.iter().find(|(n, _)| *n == name)?;
    Some(new(size))
}

/// Declares a PolyBench kernel wrapper struct around a body function.
macro_rules! poly_kernel {
    ($(#[$doc:meta])* $ty:ident, $name:literal, $body:path) => {
        $(#[$doc])*
        #[derive(Debug, Clone)]
        pub struct $ty {
            size: $crate::PolySize,
            checksum: f64,
        }

        impl $ty {
            /// The kernel's PolyBench name.
            pub const NAME: &'static str = $name;

            /// Creates the kernel at the given problem size.
            #[must_use]
            pub fn new(size: $crate::PolySize) -> Self {
                Self { size, checksum: f64::NAN }
            }

            /// Checksum of the kernel outputs after `run` (keeps the
            /// computation observable and guards against dead code).
            #[must_use]
            pub fn checksum(&self) -> f64 {
                self.checksum
            }
        }

        impl $crate::Workload for $ty {
            fn name(&self) -> &str {
                Self::NAME
            }

            fn run(&mut self, cpu: &mut dyn easydram_cpu::CpuApi) {
                self.checksum = $body(self.size, cpu);
            }

            fn result_checksum(&self) -> Option<f64> {
                self.checksum.is_finite().then_some(self.checksum)
            }
        }
    };
}
pub(crate) use poly_kernel;

#[cfg(test)]
mod tests {
    use super::*;
    use easydram_cpu::{CoreConfig, CoreModel, CpuApi, FixedLatencyBackend};

    #[test]
    fn registry_is_complete_and_closed() {
        for name in all_names() {
            let w = by_name(name, PolySize::Mini).expect("every name constructs");
            assert_eq!(w.name(), name);
        }
        assert!(by_name("nonexistent", PolySize::Mini).is_none());
        // One table: a duplicated row would still construct every listed
        // name while the kernel it replaced silently disappeared.
        assert!(
            all_names().windows(2).all(|pair| pair[0] < pair[1]),
            "names are distinct and sorted: {:?}",
            all_names()
        );
    }

    #[test]
    fn every_kernel_runs_and_produces_finite_work() {
        for name in all_names() {
            let mut cpu = CoreModel::new(CoreConfig::cortex_a57(), FixedLatencyBackend::new(50));
            let mut w = by_name(name, PolySize::Mini).unwrap();
            w.run(&mut cpu);
            assert!(cpu.now_cycles() > 0, "{name} consumed no time");
            assert!(
                cpu.instructions_retired() > 100,
                "{name} retired too little"
            );
        }
    }

    #[test]
    fn kernels_are_deterministic() {
        for name in ["gemm", "durbin", "correlation"] {
            let run = || {
                let mut cpu =
                    CoreModel::new(CoreConfig::cortex_a57(), FixedLatencyBackend::new(50));
                let mut w = by_name(name, PolySize::Mini).unwrap();
                w.run(&mut cpu);
                cpu.now_cycles()
            };
            assert_eq!(run(), run(), "{name} not deterministic");
        }
    }
}
