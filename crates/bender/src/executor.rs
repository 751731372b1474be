//! Replays a [`BenderProgram`] against a [`DramDevice`] at DRAM-clock
//! granularity, preserving user-specified delays exactly.

use easydram_dram::{DramDevice, RowCloneOutcome, TimingViolation, LINE_BYTES};

use crate::error::BenderError;
use crate::isa::{BenderInstr, IssueAt};
use crate::program::BenderProgram;

/// Readback-buffer capacity in cache lines (paper §5.1 ⑧).
const DEFAULT_READBACK_CAPACITY: usize = 4_096;

/// Everything a program execution produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenderResult {
    /// Cache lines returned by `RD` commands, in program order (the readback
    /// buffer).
    pub reads: Vec<[u8; LINE_BYTES]>,
    /// Whether each read returned known-corrupt data (parallel to `reads`).
    pub read_corrupted: Vec<bool>,
    /// RowClone attempts recognized during execution.
    pub rowclones: Vec<RowCloneOutcome>,
    /// Every timing violation, in program order.
    pub violations: Vec<TimingViolation>,
    /// Wall-clock duration of the execution in picoseconds, from start to the
    /// completion of the last command's effects. This is the figure DRAM
    /// Bender reports back to the software memory controller so time scaling
    /// can advance the memory-controller cycle counter (paper Fig. 5 ④–⑤).
    pub elapsed_ps: u64,
    /// Absolute device time at which execution finished.
    pub end_ps: u64,
}

/// The DRAM Bender execution engine.
#[derive(Debug, Clone)]
pub struct Executor {
    readback_capacity: usize,
}

impl Default for Executor {
    fn default() -> Self {
        Self::new()
    }
}

impl Executor {
    /// Creates an executor with the default readback-buffer capacity (4,096
    /// cache lines).
    #[must_use]
    pub fn new() -> Self {
        Self {
            readback_capacity: DEFAULT_READBACK_CAPACITY,
        }
    }

    /// Runs `program` on `dev` starting no earlier than `start_ps`.
    ///
    /// `IssueAt::After` delays are honored exactly; `IssueAt::Auto` commands
    /// issue at the earliest JEDEC-legal time (at least one DRAM clock after
    /// the previous command). Execution begins at `max(start_ps, dev.now())`.
    ///
    /// # Errors
    ///
    /// Returns [`BenderError::ReadbackOverflow`] if the program reads more
    /// lines than the readback buffer holds, or [`BenderError::Device`] for
    /// out-of-range coordinates.
    pub fn run(
        &self,
        dev: &mut DramDevice,
        program: &BenderProgram,
        start_ps: u64,
    ) -> Result<BenderResult, BenderError> {
        let mut result = BenderResult::default();
        self.run_into(dev, program, start_ps, &mut result)
            .map(|()| result)
    }

    /// [`Executor::run`] into a caller-owned `result`, which is cleared first
    /// and keeps its buffers: a caller that reuses one `BenderResult` stops
    /// allocating once they have grown to its largest batch.
    ///
    /// # Errors
    ///
    /// As [`Executor::run`]; `result` then holds what ran before the error.
    pub fn run_into(
        &self,
        dev: &mut DramDevice,
        program: &BenderProgram,
        start_ps: u64,
        result: &mut BenderResult,
    ) -> Result<(), BenderError> {
        result.reads.clear();
        result.read_corrupted.clear();
        result.rowclones.clear();
        result.violations.clear();
        if program.read_count() > self.readback_capacity {
            return Err(BenderError::ReadbackOverflow {
                capacity: self.readback_capacity,
            });
        }
        let t_ck = dev.timing().t_ck_ps;
        let start = start_ps.max(dev.now_ps());
        let mut cursor = start;
        let mut last_issue: Option<u64> = None;
        let mut end = start;
        for instr in program.instrs() {
            match *instr {
                BenderInstr::Sleep { ps } => {
                    cursor += ps;
                    end = end.max(cursor);
                }
                BenderInstr::Cmd { cmd, at } => {
                    let issue = match at {
                        IssueAt::After(delay) => match last_issue {
                            Some(prev) => prev + delay,
                            None => cursor + delay,
                        },
                        IssueAt::Auto => {
                            let floor = match last_issue {
                                Some(prev) => (prev + t_ck).max(cursor),
                                None => cursor,
                            };
                            dev.earliest_issue_ps(&cmd).max(floor)
                        }
                    };
                    let issue = issue.max(dev.now_ps());
                    let out = dev.issue_raw(cmd, issue)?;
                    result.violations.extend(out.violations.iter().copied());
                    if let Some(data) = out.read_data {
                        result.reads.push(data);
                        result.read_corrupted.push(out.read_corrupted);
                    }
                    if let Some(rc) = out.rowclone {
                        result.rowclones.push(rc);
                    }
                    end = end.max(out.completion_ps);
                    last_issue = Some(issue);
                    cursor = issue;
                }
            }
        }
        result.end_ps = end;
        result.elapsed_ps = end - start;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easydram_dram::{DramCommand, DramConfig, TimingParams, TimingRule, VariationConfig};

    fn dev() -> DramDevice {
        DramDevice::new(DramConfig::small_for_tests())
    }

    fn ideal_dev() -> DramDevice {
        let mut cfg = DramConfig::small_for_tests();
        cfg.variation = VariationConfig::ideal();
        DramDevice::new(cfg)
    }

    fn t() -> TimingParams {
        TimingParams::ddr4_1333()
    }

    #[test]
    fn auto_sequence_is_violation_free() {
        let mut d = dev();
        let mut p = BenderProgram::new();
        p.cmd(DramCommand::Activate { bank: 0, row: 5 }).unwrap();
        p.cmd(DramCommand::Read { bank: 0, col: 0 }).unwrap();
        p.cmd(DramCommand::Read { bank: 0, col: 1 }).unwrap();
        p.cmd(DramCommand::Precharge { bank: 0 }).unwrap();
        let r = Executor::new().run(&mut d, &p, 0).unwrap();
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert_eq!(r.reads.len(), 2);
        assert!(!r.read_corrupted[0] && !r.read_corrupted[1]);
    }

    #[test]
    fn auto_read_waits_exactly_trcd() {
        let mut d = dev();
        let mut p = BenderProgram::new();
        p.cmd(DramCommand::Activate { bank: 0, row: 5 }).unwrap();
        p.cmd(DramCommand::Read { bank: 0, col: 0 }).unwrap();
        let r = Executor::new().run(&mut d, &p, 0).unwrap();
        // Data completes at tRCD + CL + burst for a closed-row access.
        assert_eq!(r.elapsed_ps, t().closed_row_access_ps());
    }

    #[test]
    fn exact_delays_are_preserved() {
        // The paper's core promise: "the delay between each DRAM command in a
        // batch is executed exactly as intended by the EasyDRAM user".
        let mut d = dev();
        let mut p = BenderProgram::new();
        p.cmd(DramCommand::Activate { bank: 0, row: 5 }).unwrap();
        p.cmd_after(DramCommand::Read { bank: 0, col: 0 }, 9_000)
            .unwrap();
        let r = Executor::new().run(&mut d, &p, 0).unwrap();
        assert!(r.violations.iter().any(|v| v.rule == TimingRule::Trcd));
        let trcd_viol = r
            .violations
            .iter()
            .find(|v| v.rule == TimingRule::Trcd)
            .unwrap();
        assert_eq!(trcd_viol.issued_ps, 9_000);
    }

    #[test]
    fn reduced_trcd_read_through_bender() {
        let mut d = dev();
        let line = [0x42u8; LINE_BYTES];
        d.write_line(0, 1, 0, &line);
        let min = d.variation().line_min_trcd_ps(0, 1, 0);
        let mut p = BenderProgram::new();
        p.cmd(DramCommand::Activate { bank: 0, row: 1 }).unwrap();
        p.cmd_after(DramCommand::Read { bank: 0, col: 0 }, min)
            .unwrap();
        let r = Executor::new().run(&mut d, &p, 0).unwrap();
        assert_eq!(r.reads[0], line);
        assert!(!r.read_corrupted[0]);
    }

    #[test]
    fn rowclone_program_copies_row() {
        let mut d = ideal_dev();
        let pattern: Vec<u8> = (0..8192u32).map(|i| (i * 7 % 256) as u8).collect();
        d.write_row(1, 10, &pattern);
        let mut p = BenderProgram::new();
        p.cmd(DramCommand::Activate { bank: 1, row: 10 }).unwrap();
        p.cmd_after(DramCommand::Precharge { bank: 1 }, 3_000)
            .unwrap();
        p.cmd_after(DramCommand::Activate { bank: 1, row: 11 }, 3_000)
            .unwrap();
        p.cmd_auto(DramCommand::Precharge { bank: 1 }).unwrap();
        let r = Executor::new().run(&mut d, &p, 0).unwrap();
        assert_eq!(r.rowclones.len(), 1);
        assert!(r.rowclones[0].success);
        assert_eq!(d.row_data(1, 11), pattern.as_slice());
    }

    #[test]
    fn sleep_advances_time() {
        let mut d = dev();
        let mut p = BenderProgram::new();
        p.sleep(50_000).unwrap();
        p.cmd_after(DramCommand::Activate { bank: 0, row: 0 }, 0)
            .unwrap();
        let r = Executor::new().run(&mut d, &p, 0).unwrap();
        // ACT issues at 50_000 and completes tRCD later.
        assert_eq!(r.end_ps, 50_000 + t().t_rcd_ps);
    }

    #[test]
    fn start_time_respected_and_elapsed_relative() {
        let mut d = dev();
        let mut p = BenderProgram::new();
        p.cmd(DramCommand::Activate { bank: 0, row: 0 }).unwrap();
        let r = Executor::new().run(&mut d, &p, 1_000_000).unwrap();
        assert_eq!(r.end_ps, 1_000_000 + t().t_rcd_ps);
        assert_eq!(r.elapsed_ps, t().t_rcd_ps);
    }

    #[test]
    fn starts_no_earlier_than_device_time() {
        let mut d = dev();
        d.issue_raw(DramCommand::Refresh, 2_000_000).unwrap();
        let mut p = BenderProgram::new();
        p.cmd(DramCommand::Activate { bank: 0, row: 0 }).unwrap();
        // Ask for start at 0: executor must clamp to device time and tRFC.
        let r = Executor::new().run(&mut d, &p, 0).unwrap();
        assert!(r.end_ps >= 2_000_000 + t().t_rfc_ps);
    }

    #[test]
    fn readback_overflow_detected_before_execution() {
        let mut d = dev();
        let mut p = BenderProgram::new();
        p.cmd(DramCommand::Activate { bank: 0, row: 0 }).unwrap();
        for col in 0..4 {
            p.cmd(DramCommand::Read { bank: 0, col }).unwrap();
        }
        let ex = Executor {
            readback_capacity: 2,
        };
        let err = ex.run(&mut d, &p, 0).unwrap_err();
        assert_eq!(err, BenderError::ReadbackOverflow { capacity: 2 });
        // Nothing executed.
        assert_eq!(d.stats().commands(), 0);
    }

    #[test]
    fn device_error_propagates() {
        let mut d = dev();
        let mut p = BenderProgram::new();
        p.cmd(DramCommand::Activate { bank: 99, row: 0 }).unwrap();
        let err = Executor::new().run(&mut d, &p, 0).unwrap_err();
        assert!(matches!(err, BenderError::Device(_)));
    }

    #[test]
    fn empty_program_is_instant() {
        let mut d = dev();
        let r = Executor::new()
            .run(&mut d, &BenderProgram::new(), 500)
            .unwrap();
        assert_eq!(r.elapsed_ps, 0);
        assert!(r.reads.is_empty());
    }

    #[test]
    fn consecutive_auto_commands_at_least_one_clock_apart() {
        let mut d = dev();
        let mut p = BenderProgram::new();
        p.cmd(DramCommand::Activate { bank: 0, row: 0 }).unwrap();
        p.cmd(DramCommand::Activate { bank: 1, row: 0 }).unwrap(); // same group
        let r = Executor::new().run(&mut d, &p, 0).unwrap();
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        // Second ACT at tRRD_L >= t_ck after the first.
        assert!(r.end_ps >= t().t_rrd_l_ps + t().t_rcd_ps);
    }
}
