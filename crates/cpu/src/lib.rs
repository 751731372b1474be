//! Execution-driven processor and cache-hierarchy model — the "BOOM core +
//! caches" substrate of the EasyDRAM reproduction.
//!
//! Workloads are ordinary Rust programs written against [`CpuApi`]; every
//! load and store moves real bytes through a write-back/write-allocate cache
//! hierarchy to a pluggable [`MemoryBackend`] (the EasyDRAM tile, the
//! Ramulator baseline, or a fixed-latency test memory). Timing is charged as
//! the program executes:
//!
//! * compute bundles advance time by `ops / IPC`,
//! * dependent loads stall for the full latency of the level that serves
//!   them,
//! * streaming loads and stores overlap up to the configured MSHR count
//!   (memory-level parallelism),
//! * `clflush` writes dirty lines back to main memory — the coherence
//!   mechanism EasyDRAM exposes as a memory-mapped register (paper §7.1).
//!
//! # Example
//!
//! ```
//! use easydram_cpu::{CoreConfig, CoreModel, CpuApi, FixedLatencyBackend};
//!
//! let mut core = CoreModel::new(CoreConfig::cortex_a57(), FixedLatencyBackend::new(100));
//! let a = core.alloc(64, 64);
//! core.store_u64(a, 42);
//! assert_eq!(core.load_u64(a), 42);
//! assert!(core.now_cycles() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod backend;
pub mod cache;
pub mod config;
pub mod core;
pub mod fixed;
pub mod memory;
pub mod shared;
pub mod stats;
pub mod timescale;
pub mod workload;

pub use api::{CpuApi, RowCloneStatus};
pub use backend::{LineFetch, MemoryBackend, RowCloneRequestResult};
pub use cache::{Cache, CacheConfig, Eviction};
pub use config::CoreConfig;
pub use core::CoreModel;
pub use fixed::FixedLatencyBackend;
pub use memory::{BumpAllocator, LineStore};
pub use shared::{CoScheduler, QuantumSwitch, SharedBackend};
pub use stats::CoreStats;
pub use workload::Workload;

/// Cache-line size in bytes, shared with the DRAM substrate.
pub const LINE_BYTES: usize = 64;
