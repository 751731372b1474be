//! EasyDRAM core: the paper's primary contribution, reproduced in Rust.
//!
//! This crate implements the EasyDRAM framework of *"EasyDRAM: An FPGA-based
//! Infrastructure for Fast and Accurate End-to-End Evaluation of Emerging
//! DRAM Techniques"* (DSN 2025):
//!
//! * **EasyTile** — the programmable memory-controller tile: request FIFOs,
//!   scratchpad request table, command/readback buffers, and tile-control
//!   transfer cost model (paper §5.1, Figure 7).
//! * **Software memory controllers** — user programs written against
//!   [`EasyApi`] (paper Table 2) and the [`SoftwareMemoryController`] trait,
//!   with FCFS/FR-FCFS schedulers, a RowClone controller, and a
//!   tRCD-reduction controller with a RAIDR-style Bloom filter (§5.2, §7, §8).
//! * **Time scaling** — the clock-domain emulation technique that lets a
//!   slow FPGA prototype faithfully report the timing of a multi-GHz modeled
//!   system (§4.3, Figure 5), with the `Reference` and `NoTimeScaling`
//!   comparison modes used throughout the paper's evaluation.
//! * **RowClone allocation** — placement machinery that solves the
//!   alignment/granularity/mapping/coherence constraints of §7.1, including
//!   the 1000-trial pair test and per-subarray init source rows.
//! * **DRAM profiling** — the reduced-tRCD characterization engine of §8.1.
//!
//! # Quickstart
//!
//! ```
//! use easydram::{System, SystemConfig, TimingMode};
//! use easydram_cpu::CpuApi;
//!
//! let mut sys = System::new(SystemConfig::jetson_nano(TimingMode::TimeScaling));
//! let addr = sys.cpu().alloc(4096, 64);
//! sys.cpu().store_u64(addr, 42);
//! assert_eq!(sys.cpu().load_u64(addr), 42);
//! let report = sys.report("quickstart");
//! assert!(report.emulated_cycles > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::too_many_lines)]

mod alloc;
pub mod bloom;
pub mod config;
pub mod costs;
pub mod counters;
pub mod json;
pub mod multicore;
pub mod obs;
pub mod par;
pub mod profiling;
pub mod report;
pub mod request;
pub mod smc;
pub mod system;
pub mod timeline;
pub mod timescale;

pub use bloom::BloomFilter;
pub use config::{FpgaConfig, SystemConfig, TimingMode};
pub use costs::SmcCostModel;
pub use counters::Counters;
pub use multicore::{CoRunReport, CoreRun, MultiCoreSystem};
pub use obs::{
    validate_chrome_json, EventKind, EventRing, LogHistogram, TileMetrics, TraceConfig, TraceEvent,
    TraceLog,
};
pub use par::WorkerPool;
pub use profiling::{ProfileOutcome, TrcdProfiler};
pub use report::{BankRowOutcomes, ExecutionReport, RequestorStats};
pub use request::{MemRequest, MemResponse, RequestClass, RequestKind, RequestTag, ResponseSlice};
pub use smc::easyapi::EasyApi;
pub use smc::{
    FcfsController, FrFcfsController, GrapheneController, MitigationStats, ParaController,
    ServeResult, SoftwareMemoryController,
};
pub use system::System;
pub use timeline::{EmulatedTimeline, TimelineDemand};
