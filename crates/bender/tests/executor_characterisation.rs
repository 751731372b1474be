//! Characterisation of the command path `Executor::run_into` →
//! `DramDevice` → `RankTiming`: one seeded ~50k-command stream of small
//! programs, every `BenderResult` field digested after every program, into
//! a single constant.
//!
//! The digest was recorded while the executor asked the device for a
//! command's earliest time, then for its legality, then applied it, and
//! collected a `CmdOutcome` per command, and re-recorded once with
//! retention decay off before that model was deleted; any change to it means
//! a program now issues at another time or produces something else.
//! `crates/dram/tests/device_characterisation.rs` pins the data path one
//! layer down, through `issue_raw`.

#[path = "../../../tests/support/fnv.rs"]
mod fnv;

use easydram_bender::{BenderError, BenderProgram, BenderResult, Executor};
use easydram_dram::det::splitmix64;
use easydram_dram::{DramCommand, DramConfig, DramDevice, Geometry, TimingParams, LINE_BYTES};
use fnv::Digest;

/// Two bank groups of two banks, so tCCD/tRRD take both their `_S` and
/// `_L` forms.
const BANKS: u32 = 4;
const COLS: u32 = 128;
/// Rows the stream names: a pool straddling the subarray boundary at 128
/// (RowClone within and across subarrays) plus both bank edges.
const POOL: [std::ops::Range<u32>; 3] = [0..3, 116..140, 1_021..1_024];
/// Rows whose final array contents are digested: the pool plus its ±2
/// neighbourhood.
const FINAL: [std::ops::Range<u32>; 3] = [0..5, 114..142, 1_019..1_024];

struct Stream {
    dev: DramDevice,
    exec: Executor,
    /// Reused across programs, as a controller session does.
    result: BenderResult,
    t: TimingParams,
    rng: u64,
    cmds: u64,
    programs: u64,
    errors: u64,
    digest: Digest,
}

impl Stream {
    fn rand(&mut self, n: u64) -> u64 {
        self.rng = splitmix64(self.rng);
        self.rng % n
    }

    fn bank(&mut self) -> u32 {
        self.rand(u64::from(BANKS)) as u32
    }

    fn row(&mut self) -> u32 {
        let n: u32 = POOL.iter().map(|r| r.end - r.start).sum();
        let mut k = self.rand(u64::from(n)) as u32;
        for r in POOL {
            if k < r.end - r.start {
                return r.start + k;
            }
            k -= r.end - r.start;
        }
        unreachable!("k < pool size")
    }

    fn col(&mut self) -> u32 {
        // A few hot columns so RD-after-WR happens.
        (self.rand(8) * 17 % u64::from(COLS)) as u32
    }

    fn write(&mut self, bank: u32, col: u32) -> DramCommand {
        let mut data = [0u8; LINE_BYTES];
        for chunk in data.chunks_mut(8) {
            self.rng = splitmix64(self.rng);
            chunk.copy_from_slice(&self.rng.to_le_bytes());
        }
        DramCommand::Write { bank, col, data }
    }

    fn column_op(&mut self, bank: u32) -> DramCommand {
        let col = self.col();
        if self.rand(3) == 0 {
            self.write(bank, col)
        } else {
            DramCommand::Read { bank, col }
        }
    }

    /// A `PRE` at the head of `p` when `bank` is open, so the program's own
    /// `ACT` lands on a precharged bank.
    fn close_first(&mut self, p: &mut BenderProgram, bank: u32) {
        if self.dev.open_row(bank).is_some() {
            p.cmd_auto(DramCommand::Precharge { bank }).unwrap();
        }
    }

    /// Runs `p` and digests everything it produced.
    fn run(&mut self, p: &BenderProgram) {
        // Mostly "now" (a start of 0 is clamped to device time), sometimes a
        // gap, rarely more than a refresh window (hammer windows expiring by
        // time).
        let start = match self.rand(32) {
            0..=15 => 0,
            16..=30 => self.dev.now_ps() + self.rand(40) * 1_500,
            _ => self.dev.now_ps() + self.t.t_refw_ps * (1 + self.rand(2)),
        };
        let ran = self
            .exec
            .run_into(&mut self.dev, p, start, &mut self.result);
        self.programs += 1;
        self.cmds += p.instrs().iter().filter_map(|i| i.command()).count() as u64;
        match ran {
            Ok(()) => self.digest.word(0),
            Err(BenderError::Device(_)) => {
                self.errors += 1;
                self.digest.word(1);
            }
            Err(e) => panic!("unexpected {e}"),
        }
        let r = &self.result;
        self.digest.word(r.reads.len() as u64);
        for (line, &bad) in r.reads.iter().zip(&r.read_corrupted) {
            self.digest.bytes(line);
            self.digest.word(u64::from(bad));
        }
        self.digest.word(r.read_corrupted.len() as u64);
        self.digest.word(r.rowclones.len() as u64);
        for rc in &r.rowclones {
            for x in [rc.bank, rc.src_row, rc.dst_row, u32::from(rc.success)] {
                self.digest.word(u64::from(x));
            }
        }
        self.digest.word(r.violations.len() as u64);
        for v in &r.violations {
            self.digest.word(v.rule as u64);
            self.digest.word(v.earliest_legal_ps);
            self.digest.word(v.issued_ps);
        }
        self.digest.word(r.elapsed_ps);
        self.digest.word(r.end_ps);
        self.digest.word(self.dev.now_ps());
    }

    fn scenario(&mut self) {
        let (bank, row) = (self.bank(), self.row());
        let mut p = BenderProgram::new();
        match self.rand(44) {
            // All-`Auto` open / column burst / close: the controller's
            // ordinary request.
            0..=9 => {
                self.close_first(&mut p, bank);
                p.cmd_auto(DramCommand::Activate { bank, row }).unwrap();
                for _ in 0..1 + self.rand(4) {
                    let op = self.column_op(bank);
                    p.cmd_auto(op).unwrap();
                }
                if self.rand(2) == 0 {
                    p.cmd_auto(DramCommand::Precharge { bank }).unwrap();
                }
            }
            // Row hits: column commands alone on whatever is open (a closed
            // bank answers with bus garbage and `BankClosed`).
            10..=12 => {
                for _ in 0..1 + self.rand(3) {
                    let op = self.column_op(bank);
                    p.cmd_auto(op).unwrap();
                }
            }
            // Reduced-tRCD column access, then `Auto` ones.
            13..=16 => {
                self.close_first(&mut p, bank);
                p.cmd_auto(DramCommand::Activate { bank, row }).unwrap();
                let op = self.column_op(bank);
                p.cmd_after(op, 1_500 + self.rand(9) * 1_500).unwrap();
                for _ in 0..self.rand(3) {
                    let op = self.column_op(bank);
                    p.cmd_auto(op).unwrap();
                }
                p.cmd_auto(DramCommand::Precharge { bank }).unwrap();
            }
            // Early PRE on a dirty row (tWR, often tRAS), then an early ACT
            // (tRP) outside the RowClone window.
            17..=20 => {
                self.close_first(&mut p, bank);
                p.cmd_auto(DramCommand::Activate { bank, row }).unwrap();
                let col = self.col();
                let wr = self.write(bank, col);
                if self.rand(3) == 0 {
                    p.cmd_after(wr, 3_000).unwrap();
                } else {
                    p.cmd_auto(wr).unwrap();
                }
                p.cmd_after(
                    DramCommand::Precharge { bank },
                    1_500 + self.rand(4) * 3_000,
                )
                .unwrap();
                let other = self.row();
                p.cmd_after(DramCommand::Activate { bank, row: other }, 7_500)
                    .unwrap();
                p.cmd_auto(DramCommand::Read { bank, col }).unwrap();
                p.cmd_auto(DramCommand::Precharge { bank }).unwrap();
            }
            // RowClone, as `EasyApi::rowclone` builds it; the source is
            // sometimes restored first, the destination in either subarray,
            // sometimes in another bank (no clone).
            21..=25 => {
                self.close_first(&mut p, bank);
                if self.rand(2) == 0 {
                    p.cmd_auto(DramCommand::Activate { bank, row }).unwrap();
                    p.cmd_auto(DramCommand::Precharge { bank }).unwrap();
                }
                p.cmd_auto(DramCommand::Activate { bank, row }).unwrap();
                p.cmd_after(DramCommand::Precharge { bank }, 3_000).unwrap();
                let dst = self.row();
                let dst_bank = if self.rand(8) == 0 { bank ^ 1 } else { bank };
                p.cmd_after(
                    DramCommand::Activate {
                        bank: dst_bank,
                        row: dst,
                    },
                    3_000,
                )
                .unwrap();
                for _ in 0..self.rand(3) {
                    let op = self.column_op(dst_bank);
                    p.cmd_auto(op).unwrap();
                }
                p.cmd_auto(DramCommand::Precharge { bank: dst_bank })
                    .unwrap();
            }
            // `Auto` commands the bank state does not admit: ACT and RFM on
            // an open bank, REF with rows open. The timing is met, the
            // state is not.
            26..=29 => {
                self.close_first(&mut p, bank);
                p.cmd_auto(DramCommand::Activate { bank, row }).unwrap();
                let wr = self.write(bank, 0);
                p.cmd_auto(wr).unwrap();
                let other = self.row();
                match self.rand(3) {
                    0 => p.cmd_auto(DramCommand::Activate { bank, row: other }),
                    1 => p.cmd_auto(DramCommand::RefreshRow { bank, row: other }),
                    _ => p.cmd_auto(DramCommand::Refresh),
                }
                .unwrap();
                p.cmd_auto(DramCommand::Read { bank, col: 0 }).unwrap();
                p.cmd_auto(DramCommand::Precharge { bank }).unwrap();
            }
            // PREA over open banks, `Auto` or early, then REF or RFM.
            30..=32 => {
                p.cmd_auto(DramCommand::Activate { bank, row }).unwrap();
                let other = self.row();
                p.cmd_auto(DramCommand::Activate {
                    bank: bank ^ 2,
                    row: other,
                })
                .unwrap();
                let wr = self.write(bank, 1);
                p.cmd_auto(wr).unwrap();
                if self.rand(2) == 0 {
                    p.cmd_auto(DramCommand::PrechargeAll).unwrap();
                } else {
                    p.cmd_after(DramCommand::PrechargeAll, 1_500).unwrap();
                }
                if self.rand(2) == 0 {
                    p.cmd_auto(DramCommand::Refresh).unwrap();
                } else {
                    p.cmd_after(DramCommand::RefreshRow { bank, row: other }, 4_500)
                        .unwrap();
                }
                p.cmd_auto(DramCommand::Activate { bank, row }).unwrap();
            }
            // Sleeps: before the first command, between `After` and `Auto`
            // commands, and trailing (the program ends when its last sleep
            // does).
            33..=36 => {
                self.close_first(&mut p, bank);
                p.sleep(self.rand(50) * 1_000).unwrap();
                p.cmd_after(DramCommand::Activate { bank, row }, self.rand(3) * 1_500)
                    .unwrap();
                p.sleep(self.rand(30) * 1_000).unwrap();
                let op = self.column_op(bank);
                if self.rand(2) == 0 {
                    p.cmd_auto(op).unwrap();
                } else {
                    p.cmd_after(op, 1_500 + self.rand(12) * 1_500).unwrap();
                }
                p.sleep(self.rand(3) * 40_000).unwrap();
                p.cmd_auto(DramCommand::Precharge { bank }).unwrap();
                p.sleep(self.rand(4) * 25_000).unwrap();
            }
            // Readback order: many reads, writes between them, two banks.
            37..=39 => {
                let other_bank = bank ^ 1 ^ (self.rand(2) as u32 * 2);
                self.close_first(&mut p, bank);
                self.close_first(&mut p, other_bank);
                p.cmd_auto(DramCommand::Activate { bank, row }).unwrap();
                let other = self.row();
                p.cmd_auto(DramCommand::Activate {
                    bank: other_bank,
                    row: other,
                })
                .unwrap();
                for _ in 0..4 + self.rand(8) {
                    let b = if self.rand(2) == 0 { bank } else { other_bank };
                    let op = self.column_op(b);
                    if self.rand(6) == 0 {
                        p.cmd_after(op, self.rand(4) * 1_500).unwrap();
                    } else {
                        p.cmd_auto(op).unwrap();
                    }
                }
            }
            // An out-of-range command in the middle: the result holds what
            // ran before it, nothing after it runs.
            40 => {
                self.close_first(&mut p, bank);
                p.cmd_auto(DramCommand::Activate { bank, row }).unwrap();
                p.cmd_auto(DramCommand::Read { bank, col: 3 }).unwrap();
                let bad = match self.rand(3) {
                    0 => DramCommand::Read { bank: 99, col: 0 },
                    1 => DramCommand::Activate { bank, row: 1 << 20 },
                    _ => DramCommand::Write {
                        bank,
                        col: COLS,
                        data: [0; LINE_BYTES],
                    },
                };
                if self.rand(2) == 0 {
                    p.cmd_auto(bad).unwrap();
                } else {
                    p.cmd_after(bad, 1_500).unwrap();
                }
                p.cmd_auto(DramCommand::Read { bank, col: 4 }).unwrap();
                p.cmd_auto(DramCommand::Precharge { bank }).unwrap();
            }
            // Hammer one row with `Auto` ACT/PRE pairs.
            41..=42 => {
                self.close_first(&mut p, bank);
                for _ in 0..10 + self.rand(40) {
                    p.cmd_auto(DramCommand::Activate { bank, row }).unwrap();
                    p.cmd_auto(DramCommand::Precharge { bank }).unwrap();
                }
            }
            // Nothing, or nothing but time.
            _ => {
                if self.rand(2) == 0 {
                    p.sleep(self.rand(100) * 1_000).unwrap();
                }
            }
        }
        self.run(&p);
    }
}

#[test]
fn command_path_digest_is_unchanged() {
    let mut cfg = DramConfig::small_for_tests();
    cfg.geometry = Geometry {
        bank_groups: 2,
        ..cfg.geometry
    };
    cfg.variation.disturb_enabled = true;
    // Default (non-ideal) variation otherwise; the disturbance threshold is
    // lowered so the stream hammers past `HCfirst`.
    cfg.variation.hc_first = (24, 64);
    cfg.variation.disturb_flip_milli = 400;
    let dev = DramDevice::new(cfg);
    assert_eq!(dev.config().geometry.banks(), BANKS);
    let mut s = Stream {
        t: dev.timing().clone(),
        dev,
        exec: Executor::new(),
        result: BenderResult::default(),
        rng: 0x00EA_5D4A_2026,
        cmds: 0,
        programs: 0,
        errors: 0,
        digest: Digest::default(),
    };
    while s.cmds < 50_000 {
        s.scenario();
    }
    let stats = *s.dev.stats();
    for x in [
        stats.activates,
        stats.precharges,
        stats.reads,
        stats.writes,
        stats.refreshes,
        stats.violations,
        stats.rowclone_attempts,
        stats.rowclone_successes,
        stats.reduced_trcd_reads,
        stats.corrupted_reads,
        stats.targeted_refreshes,
        stats.disturbance_flips,
    ] {
        s.digest.word(x);
    }
    for bank in 0..BANKS {
        for row in FINAL.into_iter().flatten() {
            let bytes = s.dev.row_data(bank, row).to_vec();
            s.digest.bytes(&bytes);
        }
    }
    // The stream reached every path it exists to pin.
    assert!(s.programs > 5_000, "{} programs", s.programs);
    assert!(s.errors > 50, "{} programs stopped mid-way", s.errors);
    assert!(stats.commands() < s.cmds, "errors skip commands");
    assert!(stats.violations > 5_000, "{stats:?}");
    assert!(stats.disturbance_flips > 100, "{stats:?}");
    assert!(stats.reduced_trcd_reads > 100, "{stats:?}");
    assert!(stats.corrupted_reads > 100, "{stats:?}");
    assert!(stats.rowclone_successes > 100, "{stats:?}");
    assert!(
        stats.rowclone_attempts - stats.rowclone_successes > 100,
        "{stats:?}"
    );
    assert!(
        stats.targeted_refreshes > 100 && stats.refreshes > 100,
        "{stats:?}"
    );
    assert_eq!(
        s.digest.0, 0xFE30_0526_EBC7_FD2D,
        "characterisation digest; {} programs, stats {stats:?}",
        s.programs
    );
}
