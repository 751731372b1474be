//! Behavioral DDR4 device model with real-chip variation — the "real DRAM chip"
//! substrate of the EasyDRAM reproduction.
//!
//! The EasyDRAM paper (DSN 2025) evaluates DRAM techniques by issuing command
//! sequences that *violate* JEDEC timings against a physical DDR4 module. This
//! crate substitutes the physical module with a deterministic, data-carrying
//! model that defines behaviour under violation:
//!
//! * **Reduced-tRCD reads** ([`DramDevice::issue_raw`] with a `READ` issued
//!   before `tRCD` elapses) return corrupted data for cache lines whose
//!   per-line minimum reliable tRCD (from the [`variation`] model) exceeds the
//!   applied value — reproducing the latency/reliability trade-off that
//!   Solar-DRAM-style techniques exploit (paper §8).
//! * **RowClone** (`ACT → PRE → ACT` in quick succession) copies the source
//!   row into the destination row, but only within a DRAM subarray and only
//!   for reliable row pairs — reproducing the FPM RowClone constraints of
//!   paper §7.1 (Figure 9).
//!
//! All stochastic behaviour derives from hashing a configuration seed with the
//! cell coordinates and a device nonce ([`det`]), so simulations are exactly
//! reproducible.
//!
//! # Example
//!
//! ```
//! use easydram_dram::{DramConfig, DramDevice, DramCommand};
//!
//! let mut dev = DramDevice::new(DramConfig::default());
//! let t = dev.timing().clone();
//! // Activate row 3 of bank 0, then read column 0 after a legal tRCD.
//! dev.issue_raw(DramCommand::Activate { bank: 0, row: 3 }, 0)?;
//! let out = dev.issue_raw(DramCommand::Read { bank: 0, col: 0 }, t.t_rcd_ps)?;
//! assert!(out.violations.is_empty() && !out.read_corrupted);
//! # Ok::<(), easydram_dram::DramError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod address;
pub mod bank;
pub mod command;
pub mod config;
pub mod consistency;
pub mod det;
pub mod device;
pub mod error;
#[cfg(any(test, feature = "oracle"))]
pub mod oracle;
mod ring;
pub mod stats;
pub mod table;
pub mod timing;
pub mod variation;

pub use address::{AddressMapper, DramAddress, MappingScheme};
pub use command::{DramCommand, LINE_BYTES};
pub use config::{DramConfig, Geometry};
pub use consistency::{ConfigRule, TimingContradiction};
pub use device::{
    blast_neighbors, CmdOutcome, CmdRecord, CmdSink, DramDevice, RowCloneOutcome, BLAST_RADIUS,
};
pub use error::{DramError, TimingRule, TimingViolation};
#[cfg(any(test, feature = "oracle"))]
pub use oracle::OracleRankTiming;
pub use ring::TraceRing;
pub use stats::DeviceStats;
pub use table::{CmdClass, MinDistance, Scope, TimingTable};
pub use timing::TimingParams;
pub use variation::{PairClass, VariationConfig, VariationModel};
