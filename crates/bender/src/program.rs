//! The command buffer: a size-limited DRAM Bender program under construction.

use easydram_dram::DramCommand;

use crate::error::BenderError;
use crate::isa::{BenderInstr, IssueAt};

/// Default command-buffer capacity, in instructions.
///
/// The real EasyDRAM command buffer accumulates "multiple DRAM commands
/// before they are issued to the DRAM chip in a timing-preserving batch"
/// (paper §5.1 ⑦); 8192 entries comfortably holds a whole-row sweep.
pub const DEFAULT_CAPACITY: usize = 8_192;

/// A DRAM Bender program being assembled by the software memory controller.
///
/// Build with the `cmd*` methods, then hand to [`crate::Executor::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct BenderProgram {
    instrs: Vec<BenderInstr>,
    capacity: usize,
    reads: usize,
    columns: usize,
}

impl Default for BenderProgram {
    fn default() -> Self {
        Self::new()
    }
}

impl BenderProgram {
    /// Creates an empty program with [`DEFAULT_CAPACITY`].
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// Creates an empty program bounded to `capacity` instructions.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            instrs: Vec::new(),
            capacity,
            reads: 0,
            columns: 0,
        }
    }

    /// Appends `cmd` issued at the earliest JEDEC-legal time.
    ///
    /// # Errors
    ///
    /// Returns [`BenderError::ProgramTooLong`] when the buffer is full.
    pub fn cmd_auto(&mut self, cmd: DramCommand) -> Result<(), BenderError> {
        self.push(BenderInstr::Cmd {
            cmd,
            at: IssueAt::Auto,
        })
    }

    /// Appends `cmd` issued exactly `delay_ps` after the previous command —
    /// even when that violates timing rules.
    ///
    /// # Errors
    ///
    /// Returns [`BenderError::ProgramTooLong`] when the buffer is full.
    pub fn cmd_after(&mut self, cmd: DramCommand, delay_ps: u64) -> Result<(), BenderError> {
        self.push(BenderInstr::Cmd {
            cmd,
            at: IssueAt::After(delay_ps),
        })
    }

    /// Appends an idle period of `ps` picoseconds.
    ///
    /// # Errors
    ///
    /// Returns [`BenderError::ProgramTooLong`] when the buffer is full.
    pub fn sleep(&mut self, ps: u64) -> Result<(), BenderError> {
        self.push(BenderInstr::Sleep { ps })
    }

    fn push(&mut self, instr: BenderInstr) -> Result<(), BenderError> {
        if self.instrs.len() >= self.capacity {
            return Err(BenderError::ProgramTooLong {
                capacity: self.capacity,
            });
        }
        if let Some(cmd) = instr.command() {
            self.reads += usize::from(matches!(cmd, DramCommand::Read { .. }));
            self.columns += usize::from(cmd.is_column());
        }
        self.instrs.push(instr);
        Ok(())
    }

    /// The instructions in program order.
    #[must_use]
    pub fn instrs(&self) -> &[BenderInstr] {
        &self.instrs
    }

    /// Number of instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the program is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Number of `RD` commands (readback-buffer demand).
    #[must_use]
    pub(crate) fn read_count(&self) -> usize {
        self.reads
    }

    /// Number of column commands (`RD` and `WR`), counted as they are
    /// appended.
    #[must_use]
    pub fn column_count(&self) -> usize {
        self.columns
    }

    /// Empties the buffer for reuse, keeping its capacity.
    pub fn clear(&mut self) {
        self.instrs.clear();
        self.reads = 0;
        self.columns = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_counts() {
        let mut p = BenderProgram::new();
        p.cmd_auto(DramCommand::Activate { bank: 0, row: 1 })
            .unwrap();
        p.cmd_after(DramCommand::Read { bank: 0, col: 0 }, 9_000)
            .unwrap();
        p.sleep(100).unwrap();
        assert_eq!(p.len(), 3);
        assert_eq!(p.read_count(), 1);
        assert_eq!(p.column_count(), 1);
        p.cmd_auto(DramCommand::Write {
            bank: 0,
            col: 1,
            data: [0; 64],
        })
        .unwrap();
        assert_eq!((p.read_count(), p.column_count()), (1, 2));
        assert!(!p.is_empty());
    }

    #[test]
    fn capacity_enforced() {
        let mut p = BenderProgram::with_capacity(2);
        p.cmd_auto(DramCommand::Refresh).unwrap();
        p.cmd_auto(DramCommand::Refresh).unwrap();
        let err = p.cmd_auto(DramCommand::Refresh).unwrap_err();
        assert_eq!(err, BenderError::ProgramTooLong { capacity: 2 });
    }

    #[test]
    fn clear_resets() {
        let mut p = BenderProgram::with_capacity(4);
        p.cmd_auto(DramCommand::Read { bank: 0, col: 0 }).unwrap();
        p.clear();
        assert!(p.is_empty());
        assert_eq!((p.read_count(), p.column_count()), (0, 0));
        // Capacity retained.
        for _ in 0..4 {
            p.cmd_auto(DramCommand::Refresh).unwrap();
        }
        assert!(p.cmd_auto(DramCommand::Refresh).is_err());
    }

    #[test]
    fn default_program_admits_commands() {
        assert!(BenderProgram::default()
            .cmd_auto(DramCommand::Refresh)
            .is_ok());
    }
}
