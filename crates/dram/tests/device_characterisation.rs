//! Characterisation of [`DramDevice`]'s data path: one seeded ~50k-command
//! stream over every way data moves between the array and the sense
//! amplifiers, digested into a single constant.
//!
//! The digest was recorded before the row buffer stopped being a copy of the
//! row, and re-recorded once with retention decay off before that model was
//! deleted; any change to it means the device now computes something else.

#[path = "../../../tests/support/fnv.rs"]
mod fnv;

use easydram_dram::det::splitmix64;
use easydram_dram::{CmdOutcome, DramCommand, DramConfig, DramDevice, TimingParams, LINE_BYTES};
use fnv::Digest;

const BANKS: u32 = 2;
const COLS: u32 = 128;
/// Rows the stream names: a pool straddling the subarray boundary at 128
/// (RowClone within and across subarrays, disturbance stopped by the sense
/// amplifier stripe) plus both bank edges (clamped blast neighbourhoods).
const POOL: [std::ops::Range<u32>; 3] = [0..3, 104..152, 1_021..1_024];
/// Rows whose final array contents are digested: the pool plus its ±2
/// neighbourhood.
const FINAL: [std::ops::Range<u32>; 3] = [0..5, 102..154, 1_019..1_024];

struct Stream {
    dev: DramDevice,
    t: TimingParams,
    rng: u64,
    now: u64,
    cmds: u64,
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
        // A few hot columns so RD-after-WR and backdoor collisions happen.
        (self.rand(8) * 17 % u64::from(COLS)) as u32
    }

    fn line(&mut self) -> [u8; LINE_BYTES] {
        let mut data = [0u8; LINE_BYTES];
        for chunk in data.chunks_mut(8) {
            self.rng = splitmix64(self.rng);
            chunk.copy_from_slice(&self.rng.to_le_bytes());
        }
        data
    }

    fn fold(&mut self, out: &CmdOutcome) {
        match out.read_data {
            Some(data) => {
                self.digest.word(1);
                self.digest.bytes(&data);
            }
            None => self.digest.word(0),
        }
        self.digest.word(u64::from(out.read_corrupted));
        match out.rowclone {
            Some(rc) => {
                self.digest.word(1);
                for x in [rc.bank, rc.src_row, rc.dst_row, u32::from(rc.success)] {
                    self.digest.word(u64::from(x));
                }
            }
            None => self.digest.word(0),
        }
        self.digest.word(out.violations.len() as u64);
        self.digest.word(out.completion_ps);
    }

    /// Issues `cmd` at exactly `at` (never before device time).
    fn at(&mut self, cmd: DramCommand, at: u64) {
        self.now = self.now.max(at);
        let out = self.dev.issue_raw(cmd, self.now).expect("in-range command");
        self.cmds += 1;
        self.fold(&out);
    }

    /// Issues `cmd` `delay` ps after the previous command.
    fn after(&mut self, cmd: DramCommand, delay: u64) {
        self.at(cmd, self.now + delay);
    }

    /// Issues `cmd` at its earliest JEDEC-legal time.
    fn legal(&mut self, cmd: DramCommand) {
        let at = self
            .dev
            .earliest_issue_ps(&cmd)
            .max(self.now + self.t.t_ck_ps);
        self.at(cmd, at);
    }

    fn close(&mut self, bank: u32) {
        if self.dev.open_row(bank).is_some() {
            self.legal(DramCommand::Precharge { bank });
        }
    }

    fn open(&mut self, bank: u32, row: u32) {
        self.close(bank);
        self.legal(DramCommand::Activate { bank, row });
    }

    fn write(&mut self, bank: u32, col: u32) -> DramCommand {
        let data = self.line();
        DramCommand::Write { bank, col, data }
    }

    fn column_op(&mut self, bank: u32) -> DramCommand {
        let col = self.col();
        if self.rand(2) == 0 {
            DramCommand::Read { bank, col }
        } else {
            self.write(bank, col)
        }
    }

    fn probe_hammer(&mut self, bank: u32, row: u32) {
        for r in row.saturating_sub(2)..=(row + 2).min(1_023) {
            let n = self.dev.hammer_count(bank, r);
            self.digest.word(n);
        }
    }

    fn probe_line(&mut self, bank: u32, row: u32, col: u32) {
        let line = self.dev.line_data(bank, row, col);
        self.digest.bytes(&line);
    }

    fn scenario(&mut self) {
        let (bank, row) = (self.bank(), self.row());
        match self.rand(40) {
            // Legal open / column burst / close.
            0..=7 => {
                self.open(bank, row);
                for _ in 0..1 + self.rand(4) {
                    let op = self.column_op(bank);
                    self.legal(op);
                }
                self.legal(DramCommand::Precharge { bank });
            }
            // Reduced-tRCD column access, then legal ones, legal close.
            8..=12 => {
                self.open(bank, row);
                let op = self.column_op(bank);
                let delay = 1_500 + self.rand(9) * 1_500;
                self.after(op, delay);
                for _ in 0..self.rand(3) {
                    let op = self.column_op(bank);
                    self.legal(op);
                }
                self.legal(DramCommand::Precharge { bank });
            }
            // Early PRE on a dirty row: tWR (and often tRAS) violated.
            13..=16 => {
                self.open(bank, row);
                for _ in 0..1 + self.rand(3) {
                    let op = self.column_op(bank);
                    if self.rand(3) == 0 {
                        self.after(op, 3_000);
                    } else {
                        self.legal(op);
                    }
                }
                let col = self.col();
                let wr = self.write(bank, col);
                self.legal(wr);
                let delay = 1_500 + self.rand(4) * 3_000;
                self.after(DramCommand::Precharge { bank }, delay);
                self.probe_line(bank, row, col);
            }
            // ACT on an open bank: un-restored writes are dropped.
            17..=19 => {
                self.open(bank, row);
                let col = self.col();
                let wr = self.write(bank, col);
                self.legal(wr);
                let other = self.row();
                self.after(DramCommand::Activate { bank, row: other }, 4_500);
                self.legal(DramCommand::Read { bank, col });
                let op = self.column_op(bank);
                self.legal(op);
                self.legal(DramCommand::Precharge { bank });
                self.probe_line(bank, row, col);
            }
            // RowClone: ACT(src) → PRE → ACT(dst) with 3 ns gaps, source
            // clean or freshly written, destination in either subarray.
            20..=24 => {
                self.open(bank, row);
                if self.rand(3) == 0 {
                    let op = self.column_op(bank);
                    self.legal(op);
                }
                if self.rand(2) == 0 {
                    // Let the source restore fully, then re-open it.
                    self.legal(DramCommand::Precharge { bank });
                    self.legal(DramCommand::Activate { bank, row });
                }
                let dst = self.row();
                self.after(DramCommand::Precharge { bank }, 3_000);
                self.after(DramCommand::Activate { bank, row: dst }, 3_000);
                for _ in 0..1 + self.rand(2) {
                    let op = self.column_op(bank);
                    self.legal(op);
                }
                self.legal(DramCommand::Precharge { bank });
            }
            // REF, mostly legal (all banks closed), sometimes over open rows.
            25 => {
                if self.rand(4) == 0 {
                    self.open(bank, row);
                    let wr = self.write(bank, 0);
                    self.legal(wr);
                    self.after(DramCommand::Refresh, 1_500);
                    self.legal(DramCommand::Read { bank, col: 0 });
                } else {
                    self.legal(DramCommand::PrechargeAll);
                    self.legal(DramCommand::Refresh);
                }
                self.probe_hammer(bank, row);
            }
            // RFM on a closed bank, or trampling an open dirty one.
            26..=28 => {
                let target = self.row();
                if self.rand(2) == 0 {
                    self.close(bank);
                    self.legal(DramCommand::RefreshRow { bank, row: target });
                } else {
                    self.open(bank, row);
                    let col = self.col();
                    let wr = self.write(bank, col);
                    self.legal(wr);
                    self.after(DramCommand::RefreshRow { bank, row: target }, 1_500);
                    self.legal(DramCommand::Read { bank, col });
                    self.legal(DramCommand::Precharge { bank });
                    self.probe_line(bank, row, col);
                }
                self.probe_hammer(bank, target);
            }
            // Hammer one row with legal ACT/PRE spacing.
            29..=32 => {
                self.close(bank);
                for _ in 0..10 + self.rand(50) {
                    self.legal(DramCommand::Activate { bank, row });
                    self.legal(DramCommand::Precharge { bank });
                }
                self.probe_hammer(bank, row);
            }
            // Hammer by re-activating over an open, written neighbour.
            33..=34 => {
                let victim = (row + 1).min(1_023);
                for _ in 0..5 + self.rand(20) {
                    self.legal(DramCommand::Activate { bank, row: victim });
                    let col = self.col();
                    let wr = self.write(bank, col);
                    self.legal(wr);
                    self.after(DramCommand::Activate { bank, row }, 1_500);
                }
                self.legal(DramCommand::Read { bank, col: 0 });
                self.probe_hammer(bank, row);
            }
            // Backdoor reads and writes against an open, written row.
            35..=37 => {
                self.open(bank, row);
                let (col, other) = (self.col(), self.col());
                let wr = self.write(bank, col);
                self.legal(wr);
                let line = self.line();
                self.dev.write_line(bank, row, col, &line);
                let line = self.line();
                self.dev.write_line(bank, row, other, &line);
                self.probe_line(bank, row, col);
                self.legal(DramCommand::Read { bank, col });
                self.legal(DramCommand::Read { bank, col: other });
                if self.rand(2) == 0 {
                    // A whole-row backdoor write over a line the sense
                    // amplifiers still hold un-restored.
                    let wr = self.write(bank, 5);
                    self.legal(wr);
                    let fill = self.rand(256) as u8;
                    self.dev.write_row(bank, row, &[fill; 8_192]);
                    self.legal(DramCommand::Read { bank, col: 5 });
                    self.legal(DramCommand::Read { bank, col });
                    let wr = self.write(bank, other);
                    self.legal(wr);
                    self.legal(DramCommand::Read { bank, col: other });
                }
                if self.rand(3) == 0 {
                    self.after(DramCommand::Precharge { bank }, 1_500);
                } else {
                    self.legal(DramCommand::Precharge { bank });
                }
                self.probe_line(bank, row, col);
                self.probe_line(bank, row, other);
            }
            // Column commands at a precharged bank.
            38 => {
                self.close(bank);
                self.legal(DramCommand::Read { bank, col: 1 });
                let wr = self.write(bank, 1);
                self.legal(wr);
            }
            // More than a refresh window passes: the hammer window expires by
            // time.
            _ => {
                self.now += self.t.t_refw_ps * (1 + self.rand(3));
                self.open(bank, row);
                let op = self.column_op(bank);
                self.legal(op);
                self.probe_hammer(bank, row);
            }
        }
    }
}

#[test]
fn data_path_digest_is_unchanged() {
    let mut cfg = DramConfig::small_for_tests();
    cfg.variation.disturb_enabled = true;
    // Default (non-ideal) variation otherwise; the disturbance threshold is
    // lowered so a 50k-command stream hammers well past `HCfirst`.
    cfg.variation.hc_first = (24, 64);
    cfg.variation.disturb_flip_milli = 400;
    let dev = DramDevice::new(cfg);
    let mut s = Stream {
        t: dev.timing().clone(),
        dev,
        rng: 0x00EA_5D4A_2025,
        now: 0,
        cmds: 0,
        digest: Digest::default(),
    };
    while s.cmds < 50_000 {
        s.scenario();
    }
    for bank in 0..BANKS {
        for row in FINAL.into_iter().flatten() {
            let bytes = s.dev.row_data(bank, row).to_vec();
            s.digest.bytes(&bytes);
        }
    }
    // The stream reached every path it exists to pin.
    let stats = *s.dev.stats();
    assert_eq!(stats.commands(), s.cmds);
    assert!(stats.disturbance_flips > 100, "{stats:?}");
    assert!(stats.reduced_trcd_reads > 100, "{stats:?}");
    assert!(stats.corrupted_reads > 100, "{stats:?}");
    assert!(stats.rowclone_successes > 100, "{stats:?}");
    assert!(
        stats.rowclone_attempts - stats.rowclone_successes > 100,
        "{stats:?}"
    );
    assert!(
        stats.targeted_refreshes > 100 && stats.refreshes > 10,
        "{stats:?}"
    );
    assert_eq!(
        s.digest.0, 0xE59D_4814_7DD5_75EA,
        "characterisation digest; stats {stats:?}"
    );
}
