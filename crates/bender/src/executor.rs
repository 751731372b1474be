//! Replays a [`BenderProgram`] against a [`DramDevice`] at DRAM-clock
//! granularity, preserving user-specified delays exactly.

use easydram_dram::{CmdSink, DramDevice, RowCloneOutcome, TimingViolation, LINE_BYTES};

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

/// The device appends straight to the readback buffers.
impl CmdSink for BenderResult {
    fn read(&mut self, data: &[u8; LINE_BYTES], corrupted: bool) {
        self.reads.push(*data);
        self.read_corrupted.push(corrupted);
    }

    fn rowclone(&mut self, outcome: RowCloneOutcome) {
        self.rowclones.push(outcome);
    }

    fn violations(&mut self) -> &mut Vec<TimingViolation> {
        &mut self.violations
    }
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
    /// lines than the readback buffer holds, [`BenderError::TimeOverflow`] if
    /// a sleep or delay runs past the end of the picosecond clock, or
    /// [`BenderError::Device`] for out-of-range coordinates or times.
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
            match instr {
                BenderInstr::Sleep { ps } => {
                    cursor = cursor.checked_add(*ps).ok_or(BenderError::TimeOverflow)?;
                    end = end.max(cursor);
                }
                BenderInstr::Cmd { cmd, at } => {
                    let (issue, done) = match *at {
                        IssueAt::After(delay) => {
                            let issue = last_issue
                                .unwrap_or(cursor)
                                .checked_add(delay)
                                .ok_or(BenderError::TimeOverflow)?
                                .max(dev.now_ps());
                            (issue, dev.issue_into(cmd, issue, result)?)
                        }
                        IssueAt::Auto => {
                            let floor = match last_issue {
                                Some(prev) => prev
                                    .checked_add(t_ck)
                                    .ok_or(BenderError::TimeOverflow)?
                                    .max(cursor),
                                None => cursor,
                            };
                            dev.issue_earliest_into(cmd, floor, result)?
                        }
                    };
                    end = end.max(done);
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
    use easydram_dram::{
        DramCommand, DramConfig, DramError, TimingParams, TimingRule, VariationConfig,
    };

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
        p.cmd_auto(DramCommand::Activate { bank: 0, row: 5 })
            .unwrap();
        p.cmd_auto(DramCommand::Read { bank: 0, col: 0 }).unwrap();
        p.cmd_auto(DramCommand::Read { bank: 0, col: 1 }).unwrap();
        p.cmd_auto(DramCommand::Precharge { bank: 0 }).unwrap();
        let r = Executor::new().run(&mut d, &p, 0).unwrap();
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert_eq!(r.reads.len(), 2);
        assert!(!r.read_corrupted[0] && !r.read_corrupted[1]);
    }

    #[test]
    fn auto_read_waits_exactly_trcd() {
        let mut d = dev();
        let mut p = BenderProgram::new();
        p.cmd_auto(DramCommand::Activate { bank: 0, row: 5 })
            .unwrap();
        p.cmd_auto(DramCommand::Read { bank: 0, col: 0 }).unwrap();
        let r = Executor::new().run(&mut d, &p, 0).unwrap();
        // Data completes at tRCD + CL + burst for a closed-row access.
        assert_eq!(r.elapsed_ps, t().t_rcd_ps + t().read_latency_ps());
    }

    #[test]
    fn exact_delays_are_preserved() {
        // The paper's core promise: "the delay between each DRAM command in a
        // batch is executed exactly as intended by the EasyDRAM user".
        let mut d = dev();
        let mut p = BenderProgram::new();
        p.cmd_auto(DramCommand::Activate { bank: 0, row: 5 })
            .unwrap();
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
        p.cmd_auto(DramCommand::Activate { bank: 0, row: 1 })
            .unwrap();
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
        p.cmd_auto(DramCommand::Activate { bank: 1, row: 10 })
            .unwrap();
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
        p.cmd_auto(DramCommand::Activate { bank: 0, row: 0 })
            .unwrap();
        let r = Executor::new().run(&mut d, &p, 1_000_000).unwrap();
        assert_eq!(r.end_ps, 1_000_000 + t().t_rcd_ps);
        assert_eq!(r.elapsed_ps, t().t_rcd_ps);
    }

    #[test]
    fn starts_no_earlier_than_device_time() {
        let mut d = dev();
        d.issue_raw(DramCommand::Refresh, 2_000_000).unwrap();
        let mut p = BenderProgram::new();
        p.cmd_auto(DramCommand::Activate { bank: 0, row: 0 })
            .unwrap();
        // Ask for start at 0: executor must clamp to device time and tRFC.
        let r = Executor::new().run(&mut d, &p, 0).unwrap();
        assert!(r.end_ps >= 2_000_000 + t().t_rfc_ps);
    }

    #[test]
    fn readback_overflow_detected_before_execution() {
        let mut d = dev();
        let mut p = BenderProgram::new();
        p.cmd_auto(DramCommand::Activate { bank: 0, row: 0 })
            .unwrap();
        for col in 0..4 {
            p.cmd_auto(DramCommand::Read { bank: 0, col }).unwrap();
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
        p.cmd_auto(DramCommand::Activate { bank: 99, row: 0 })
            .unwrap();
        let err = Executor::new().run(&mut d, &p, 0).unwrap_err();
        assert!(matches!(
            err,
            BenderError::Device(DramError::OutOfRange { what: "bank", .. })
        ));
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
        p.cmd_auto(DramCommand::Activate { bank: 0, row: 0 })
            .unwrap();
        p.cmd_auto(DramCommand::Activate { bank: 1, row: 0 })
            .unwrap(); // same group
        let r = Executor::new().run(&mut d, &p, 0).unwrap();
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        // Second ACT at tRRD_L >= t_ck after the first.
        assert!(r.end_ps >= t().t_rrd_l_ps + t().t_rcd_ps);
    }

    /// The executor loop as it was before the device had one `execute`, kept
    /// verbatim: ask for the earliest time, issue through `issue_raw` (which
    /// judges legality again), fold the returned `CmdOutcome` into the
    /// result. The reference `run_into` is compared against.
    fn run_into_reference(
        dev: &mut DramDevice,
        program: &BenderProgram,
        start_ps: u64,
        result: &mut BenderResult,
    ) -> Result<(), BenderError> {
        result.reads.clear();
        result.read_corrupted.clear();
        result.rowclones.clear();
        result.violations.clear();
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

    fn full_dev() -> DramDevice {
        let mut cfg = DramConfig::small_for_tests();
        cfg.variation.disturb_enabled = true;
        cfg.variation.hc_first = (4, 8);
        cfg.variation.disturb_flip_milli = 500;
        DramDevice::new(cfg)
    }

    /// One generated instruction: `kind` picks the command (or a sleep, or an
    /// out-of-range command), `at` its timing mode.
    type Gen = (u8, u32, usize, u32, u8, u8);

    fn append(p: &mut BenderProgram, (kind, bank, row, col, at, byte): Gen) {
        // Both sides of the subarray boundary at 128.
        let row = [0, 1, 126, 127, 128, 129][row];
        let cmd = match kind {
            0 | 1 => DramCommand::Activate { bank, row },
            2 | 3 => DramCommand::Precharge { bank },
            4 | 5 => DramCommand::Read { bank, col },
            6 | 7 => DramCommand::Write {
                bank,
                col,
                data: [byte; LINE_BYTES],
            },
            8 => DramCommand::PrechargeAll,
            9 => DramCommand::Refresh,
            10 => DramCommand::RefreshRow { bank, row },
            11 => return p.sleep(u64::from(byte) * 1_000).unwrap(),
            _ if byte < 8 => DramCommand::Read { bank: 9, col },
            _ => return p.sleep(7_800_000 * u64::from(byte)).unwrap(),
        };
        match at {
            0..=3 => p.cmd_auto(cmd),
            4 => p.cmd_after(cmd, 0),
            5 => p.cmd_after(cmd, 3_000),
            6 => p.cmd_after(cmd, 9_000),
            _ => p.cmd_after(cmd, u64::from(byte) * 500),
        }
        .unwrap();
    }

    proptest::proptest! {
        /// Random programs (`Auto`, `After` and `Sleep` mixed, legal and
        /// not, a bad coordinate now and then) run one after the other
        /// produce the same results, stats and clock through the fused path
        /// as through the three-walk reference.
        #[test]
        fn run_into_matches_the_three_walk_reference(
            programs in proptest::collection::vec(
                (
                    proptest::collection::vec(
                        (0u8..13, 0u32..2, 0usize..6, 0u32..3, 0u8..8, proptest::any::<u8>()),
                        0..12,
                    ),
                    0u64..60_000,
                ),
                1..16,
            ),
        ) {
            let (mut new, mut old) = (full_dev(), full_dev());
            let (mut got, mut want) = (BenderResult::default(), BenderResult::default());
            let exec = Executor::new();
            for (instrs, start) in programs {
                let mut p = BenderProgram::new();
                for g in instrs {
                    append(&mut p, g);
                }
                let start = if start % 3 == 0 { 0 } else { old.now_ps() + start };
                let a = exec.run_into(&mut new, &p, start, &mut got);
                let b = run_into_reference(&mut old, &p, start, &mut want);
                proptest::prop_assert_eq!(a, b);
                proptest::prop_assert_eq!(&got, &want);
                proptest::prop_assert_eq!(new.stats(), old.stats());
                proptest::prop_assert_eq!(new.now_ps(), old.now_ps());
            }
        }
    }

    /// ACT + WR to `(bank 0, row 5, col 0)`, all `Auto`.
    fn open_and_write(p: &mut BenderProgram) {
        p.cmd_auto(DramCommand::Activate { bank: 0, row: 5 })
            .unwrap();
        p.cmd_auto(DramCommand::Write {
            bank: 0,
            col: 0,
            data: [0xAB; LINE_BYTES],
        })
        .unwrap();
    }

    // An `Auto` command waits until its timing is met, so it is legal by
    // construction — unless the bank state does not admit it. That half of
    // the verdict must still reach `check`, with its consequences.

    #[test]
    fn auto_column_commands_on_a_closed_bank_report_bank_closed() {
        let mut d = dev();
        let mut p = BenderProgram::new();
        p.cmd_auto(DramCommand::Read { bank: 0, col: 0 }).unwrap();
        p.cmd_auto(DramCommand::Write {
            bank: 0,
            col: 0,
            data: [1; LINE_BYTES],
        })
        .unwrap();
        let r = Executor::new().run(&mut d, &p, 0).unwrap();
        let rules: Vec<_> = r.violations.iter().map(|v| v.rule).collect();
        assert_eq!(rules, [TimingRule::BankClosed, TimingRule::BankClosed]);
        assert_eq!(r.read_corrupted, [true], "bus garbage");
        assert_eq!(d.stats().violations, 2);
        assert_eq!(d.stats().corrupted_reads, 1);
    }

    #[test]
    fn auto_act_on_an_open_bank_reports_bank_open_and_drops_the_writes() {
        let mut d = dev();
        let before = d.line_data(0, 5, 0);
        let mut p = BenderProgram::new();
        open_and_write(&mut p);
        p.cmd_auto(DramCommand::Activate { bank: 0, row: 6 })
            .unwrap();
        p.cmd_auto(DramCommand::Precharge { bank: 0 }).unwrap();
        let r = Executor::new().run(&mut d, &p, 0).unwrap();
        let rules: Vec<_> = r.violations.iter().map(|v| v.rule).collect();
        assert_eq!(rules, [TimingRule::BankOpen]);
        assert_eq!(r.violations[0].issued_ps, r.violations[0].earliest_legal_ps);
        assert_eq!(d.line_data(0, 5, 0), before, "the write never restored");
    }

    #[test]
    fn auto_rfm_on_an_open_bank_reports_it_and_tramples_the_sense_amps() {
        let mut d = dev();
        let before = d.line_data(0, 5, 0);
        let mut p = BenderProgram::new();
        open_and_write(&mut p);
        p.cmd_auto(DramCommand::RefreshRow { bank: 0, row: 9 })
            .unwrap();
        p.cmd_auto(DramCommand::Read { bank: 0, col: 0 }).unwrap();
        let r = Executor::new().run(&mut d, &p, 0).unwrap();
        let rules: Vec<_> = r.violations.iter().map(|v| v.rule).collect();
        assert_eq!(
            rules,
            [TimingRule::RefWithOpenRows, TimingRule::BankClosed],
            "the RFM closed the bank under the read"
        );
        assert_eq!(r.read_corrupted, [true]);
        assert_eq!(d.open_row(0), None);
        assert_eq!(d.line_data(0, 5, 0), before, "the write is lost");
    }

    #[test]
    fn auto_ref_with_rows_open_reports_it_and_leaves_them_open() {
        let mut d = dev();
        let mut p = BenderProgram::new();
        open_and_write(&mut p);
        p.cmd_auto(DramCommand::Refresh).unwrap();
        p.cmd_auto(DramCommand::Read { bank: 0, col: 0 }).unwrap();
        let r = Executor::new().run(&mut d, &p, 0).unwrap();
        let rules: Vec<_> = r.violations.iter().map(|v| v.rule).collect();
        assert_eq!(rules, [TimingRule::RefWithOpenRows]);
        assert_eq!(r.reads, [[0xAB; LINE_BYTES]], "the row stayed open");
        assert_eq!(d.stats().refreshes, 1);
    }

    #[test]
    fn run_returns_exactly_what_run_into_produced() {
        // A RowClone into row 5, then a write and a too-early read of it.
        let mut p = BenderProgram::new();
        p.cmd_auto(DramCommand::Activate { bank: 0, row: 7 })
            .unwrap();
        p.cmd_after(DramCommand::Precharge { bank: 0 }, 3_000)
            .unwrap();
        p.cmd_after(DramCommand::Activate { bank: 0, row: 5 }, 3_000)
            .unwrap();
        p.cmd_after(
            DramCommand::Write {
                bank: 0,
                col: 0,
                data: [0xAB; LINE_BYTES],
            },
            4_500,
        )
        .unwrap();
        p.cmd_after(DramCommand::Read { bank: 0, col: 0 }, 4_500)
            .unwrap();
        p.cmd_auto(DramCommand::Read { bank: 0, col: 1 }).unwrap();
        p.sleep(40_000).unwrap();
        let (mut a, mut b) = (dev(), dev());
        let ex = Executor::new();
        // A warmed buffer holding another program's leftovers.
        let mut into = ex.run(&mut dev(), &p, 77).unwrap();
        ex.run_into(&mut a, &p, 0, &mut into).unwrap();
        let fresh = ex.run(&mut b, &p, 0).unwrap();
        assert_eq!(fresh, into, "the adapter drops nothing");
        assert_eq!((fresh.reads.len(), fresh.rowclones.len()), (2, 1));
        assert!(fresh.violations.len() >= 4, "{:?}", fresh.violations);
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn a_sleep_past_the_end_of_the_clock_is_an_error() {
        let mut d = dev();
        let mut p = BenderProgram::new();
        p.sleep(u64::MAX).unwrap();
        p.sleep(1).unwrap();
        let err = Executor::new().run(&mut d, &p, 0).unwrap_err();
        assert_eq!(err, BenderError::TimeOverflow);
        // A start time counts too.
        let mut p = BenderProgram::new();
        p.sleep(2).unwrap();
        let err = Executor::new().run(&mut d, &p, u64::MAX - 1).unwrap_err();
        assert_eq!(err, BenderError::TimeOverflow);
    }

    #[test]
    fn delays_past_the_end_of_the_clock_are_errors_and_nothing_wraps() {
        let act = DramCommand::Activate { bank: 0, row: 0 };
        let pre = DramCommand::Precharge { bank: 0 };
        // `cursor + delay` on the first command, `prev + delay` after it.
        for first in [true, false] {
            let mut d = dev();
            let mut p = BenderProgram::new();
            if !first {
                p.cmd_after(act, 5).unwrap();
            }
            p.cmd_after(pre, u64::MAX).unwrap();
            let err = Executor::new().run(&mut d, &p, 1).unwrap_err();
            assert_eq!(err, BenderError::TimeOverflow, "first: {first}");
            assert_eq!(d.stats().commands(), u64::from(!first));
        }
        // A sum that fits `u64` but not the device's biased timeline is the
        // device's to refuse: issued there, a wrapped time would be judged
        // against the timing tables.
        let mut d = dev();
        let mut p = BenderProgram::new();
        p.sleep(u64::MAX - 10).unwrap();
        p.cmd_auto(act).unwrap();
        let err = Executor::new().run(&mut d, &p, 0).unwrap_err();
        assert!(
            matches!(err, BenderError::Device(DramError::TimeOutOfRange { .. })),
            "{err}"
        );
        // `prev + t_ck`: an `Auto` command after one at the very end of
        // `u64` cannot happen (the device refuses that one first), so the
        // checked add is exercised just below the device's limit.
        let mut p = BenderProgram::new();
        p.sleep(easydram_dram::bank::MAX_ISSUE_PS).unwrap();
        p.cmd_auto(act).unwrap();
        p.cmd_auto(pre).unwrap();
        let err = Executor::new().run(&mut d, &p, 0).unwrap_err();
        assert!(
            matches!(err, BenderError::Device(DramError::TimeOutOfRange { .. })),
            "{err}"
        );
        assert_eq!(d.stats().commands(), 1, "the ACT at the limit ran");
        assert_eq!(d.now_ps(), easydram_dram::bank::MAX_ISSUE_PS);
    }
}
