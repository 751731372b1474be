//! DRAM Bender substrate: a small instruction set and executor for issuing
//! DRAM command sequences with exact, user-controlled inter-command delays.
//!
//! EasyDRAM does not drive the DDRx interface from software directly — the
//! programmable core is far too slow (paper §4.2). Instead the software
//! memory controller assembles a *program* of DRAM Bender instructions in a
//! command buffer and hands it to specialized logic that replays it at
//! DRAM-clock granularity ("the delay between each DRAM command in a batch is
//! executed exactly as intended by the EasyDRAM user", §5.1). This crate is
//! that specialized logic.
//!
//! # Example: a RowClone command sequence
//!
//! ```
//! use easydram_bender::{BenderProgram, Executor};
//! use easydram_dram::{DramCommand, DramConfig, DramDevice, VariationConfig};
//!
//! let mut cfg = DramConfig::small_for_tests();
//! cfg.variation = VariationConfig::ideal();
//! let mut dev = DramDevice::new(cfg);
//! dev.write_row(0, 1, &vec![0xAB; 8192]);
//!
//! let mut prog = BenderProgram::new();
//! prog.cmd_auto(DramCommand::Activate { bank: 0, row: 1 })?; // open source row
//! prog.cmd_after(DramCommand::Precharge { bank: 0 }, 3_000)?; // interrupt it
//! prog.cmd_after(DramCommand::Activate { bank: 0, row: 2 }, 3_000)?; // clone!
//! prog.cmd_auto(DramCommand::Precharge { bank: 0 })?; // clean close
//!
//! let result = Executor::new().run(&mut dev, &prog, 0)?;
//! assert_eq!(result.rowclones.len(), 1);
//! assert!(result.rowclones[0].success);
//! assert_eq!(dev.row_data(0, 2), vec![0xAB; 8192].as_slice());
//! # Ok::<(), easydram_bender::BenderError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod executor;
pub mod isa;
pub mod program;
pub mod transfer;

pub use error::BenderError;
pub use executor::{BenderResult, Executor};
pub use isa::{BenderInstr, IssueAt};
pub use program::BenderProgram;
pub use transfer::TransferCost;
