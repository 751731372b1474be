//! The rule-based timing checker, frozen as a differential oracle.
//!
//! This module is a verbatim copy of the rank tracker as it existed before
//! the precomputed-[`TimingTable`](crate::table::TimingTable) rewrite of
//! [`crate::bank`]: every legality question is answered by walking the named
//! JEDEC rules one by one. It is deliberately *not* refactored to share code
//! with the hot path — sharing would let a bug hide in the shared half.
//!
//! The differential proptest layer drives randomized command streams through
//! both [`OracleRankTiming`] and [`RankTiming`](crate::bank::RankTiming) and
//! asserts identical `earliest_issue_ps` answers and identical violation
//! lists. The module is compiled only for tests, or when the `oracle` cargo
//! feature is enabled (useful for debugging a suspected table bug from a
//! downstream crate: enable the feature, run both trackers side by side).

use crate::command::DramCommand;
use crate::config::Geometry;
use crate::error::{TimingRule, TimingViolation};
use crate::timing::TimingParams;

pub use crate::bank::BankState;

const NEVER: u64 = 0;

#[derive(Debug, Clone, Copy)]
struct OracleBankTrack {
    state: BankState,
    last_act_ps: u64,
    act_valid: bool,
    last_pre_ps: u64,
    pre_valid: bool,
    prev_open_row: Option<u32>,
    last_rd_ps: u64,
    last_wr_end_ps: u64,
    rd_valid: bool,
    wr_valid: bool,
}

impl Default for OracleBankTrack {
    fn default() -> Self {
        Self {
            state: BankState::Idle,
            last_act_ps: NEVER,
            act_valid: false,
            last_pre_ps: NEVER,
            pre_valid: false,
            prev_open_row: None,
            last_rd_ps: NEVER,
            last_wr_end_ps: NEVER,
            rd_valid: false,
            wr_valid: false,
        }
    }
}

/// Rule-by-rule rank timing tracker (the pre-table implementation).
#[derive(Debug, Clone)]
pub struct OracleRankTiming {
    geometry: Geometry,
    timing: TimingParams,
    banks: Vec<OracleBankTrack>,
    act_window: [u64; 4],
    act_window_len: usize,
    last_act_by_group: Vec<(u64, bool)>,
    last_col: Option<(u64, bool, u32)>,
    ref_busy_until_ps: u64,
}

impl OracleRankTiming {
    /// Creates a tracker for the given geometry and timing bin.
    #[must_use]
    pub fn new(geometry: Geometry, timing: TimingParams) -> Self {
        let banks = vec![OracleBankTrack::default(); geometry.banks() as usize];
        let groups = geometry.bank_groups as usize;
        Self {
            geometry,
            timing,
            banks,
            act_window: [NEVER; 4],
            act_window_len: 0,
            last_act_by_group: vec![(NEVER, false); groups],
            last_col: None,
            ref_busy_until_ps: 0,
        }
    }

    /// The row currently open in `bank`, if any.
    #[must_use]
    pub fn open_row(&self, bank: u32) -> Option<u32> {
        match self.banks[bank as usize].state {
            BankState::Active { row } => Some(row),
            BankState::Idle => None,
        }
    }

    /// Earliest time `cmd` satisfies every timing rule, given current state.
    #[must_use]
    pub fn earliest_issue_ps(&self, cmd: &DramCommand) -> u64 {
        if cmd.bank().is_some_and(|b| b >= self.geometry.banks()) {
            return 0;
        }
        let mut earliest = self.ref_busy_until_ps;
        let t = &self.timing;
        match *cmd {
            DramCommand::Activate { bank, .. } => {
                let b = &self.banks[bank as usize];
                if b.pre_valid {
                    earliest = earliest.max(b.last_pre_ps + t.t_rp_ps);
                }
                let group = self.geometry.group_of(bank) as usize;
                for (g, &(time, valid)) in self.last_act_by_group.iter().enumerate() {
                    if valid {
                        let spacing = if g == group {
                            t.t_rrd_l_ps
                        } else {
                            t.t_rrd_s_ps
                        };
                        earliest = earliest.max(time + spacing);
                    }
                }
                if self.act_window_len == 4 {
                    earliest = earliest.max(self.act_window[0] + t.t_faw_ps);
                }
            }
            DramCommand::Precharge { bank } => {
                let b = &self.banks[bank as usize];
                if b.act_valid {
                    earliest = earliest.max(b.last_act_ps + t.t_ras_ps);
                }
                if b.rd_valid {
                    earliest = earliest.max(b.last_rd_ps + t.t_rtp_ps);
                }
                if b.wr_valid {
                    earliest = earliest.max(b.last_wr_end_ps + t.t_wr_ps);
                }
            }
            DramCommand::PrechargeAll => {
                for bank in 0..self.geometry.banks() {
                    earliest =
                        earliest.max(self.earliest_issue_ps(&DramCommand::Precharge { bank }));
                }
            }
            DramCommand::Read { bank, .. } => {
                let b = &self.banks[bank as usize];
                if b.act_valid {
                    earliest = earliest.max(b.last_act_ps + t.t_rcd_ps);
                }
                earliest = earliest.max(self.col_earliest(bank, false));
            }
            DramCommand::Write { bank, .. } => {
                let b = &self.banks[bank as usize];
                if b.act_valid {
                    earliest = earliest.max(b.last_act_ps + t.t_rcd_ps);
                }
                earliest = earliest.max(self.col_earliest(bank, true));
            }
            DramCommand::Refresh => {
                for b in &self.banks {
                    if b.pre_valid {
                        earliest = earliest.max(b.last_pre_ps + t.t_rp_ps);
                    }
                }
            }
            DramCommand::RefreshRow { bank, .. } => {
                let b = &self.banks[bank as usize];
                if b.pre_valid {
                    earliest = earliest.max(b.last_pre_ps + t.t_rp_ps);
                }
            }
        }
        earliest
    }

    fn col_earliest(&self, bank: u32, is_write: bool) -> u64 {
        let t = &self.timing;
        let Some((when, was_write, group)) = self.last_col else {
            return 0;
        };
        let same_group = group == self.geometry.group_of(bank);
        let ccd = if same_group {
            t.t_ccd_l_ps
        } else {
            t.t_ccd_s_ps
        };
        let mut earliest = when + ccd.max(t.t_burst_ps);
        if was_write && !is_write {
            earliest = earliest.max(when + t.t_cwl_ps + t.t_burst_ps + t.t_wtr_ps);
        }
        if !was_write && is_write {
            earliest = earliest.max(when + t.t_cl_ps + t.t_burst_ps);
        }
        earliest
    }

    /// Checks every applicable rule for `cmd` at time `now_ps`.
    #[must_use]
    pub fn check(&self, cmd: &DramCommand, now_ps: u64) -> Vec<TimingViolation> {
        let mut v = Vec::new();
        if cmd.bank().is_some_and(|b| b >= self.geometry.banks()) {
            return v;
        }
        let t = &self.timing;
        fn mk(rule: TimingRule, legal: u64, now_ps: u64) -> Option<TimingViolation> {
            (now_ps < legal).then_some(TimingViolation {
                rule,
                earliest_legal_ps: legal,
                issued_ps: now_ps,
            })
        }
        let push = |v: &mut Vec<TimingViolation>, rule: TimingRule, legal: u64| {
            v.extend(mk(rule, legal, now_ps));
        };
        if now_ps < self.ref_busy_until_ps {
            push(&mut v, TimingRule::Trfc, self.ref_busy_until_ps);
        }
        match *cmd {
            DramCommand::Activate { bank, .. } => {
                let b = &self.banks[bank as usize];
                if matches!(b.state, BankState::Active { .. }) {
                    v.push(TimingViolation {
                        rule: TimingRule::BankOpen,
                        earliest_legal_ps: now_ps,
                        issued_ps: now_ps,
                    });
                }
                if b.pre_valid {
                    push(&mut v, TimingRule::Trp, b.last_pre_ps + t.t_rp_ps);
                }
                let group = self.geometry.group_of(bank) as usize;
                for (g, &(time, valid)) in self.last_act_by_group.iter().enumerate() {
                    if valid {
                        if g == group {
                            push(&mut v, TimingRule::TrrdL, time + t.t_rrd_l_ps);
                        } else {
                            push(&mut v, TimingRule::TrrdS, time + t.t_rrd_s_ps);
                        }
                    }
                }
                if self.act_window_len == 4 {
                    push(&mut v, TimingRule::Tfaw, self.act_window[0] + t.t_faw_ps);
                }
            }
            DramCommand::Precharge { bank } => {
                let b = &self.banks[bank as usize];
                if b.act_valid && matches!(b.state, BankState::Active { .. }) {
                    push(&mut v, TimingRule::Tras, b.last_act_ps + t.t_ras_ps);
                }
                if b.rd_valid {
                    push(&mut v, TimingRule::Trtp, b.last_rd_ps + t.t_rtp_ps);
                }
                if b.wr_valid {
                    push(&mut v, TimingRule::Twr, b.last_wr_end_ps + t.t_wr_ps);
                }
            }
            DramCommand::PrechargeAll => {
                for bank in 0..self.geometry.banks() {
                    v.extend(self.check(&DramCommand::Precharge { bank }, now_ps));
                }
                v.retain(|viol| viol.rule != TimingRule::Trfc);
                if now_ps < self.ref_busy_until_ps {
                    v.push(TimingViolation {
                        rule: TimingRule::Trfc,
                        earliest_legal_ps: self.ref_busy_until_ps,
                        issued_ps: now_ps,
                    });
                }
            }
            DramCommand::Read { bank, .. } | DramCommand::Write { bank, .. } => {
                let is_write = matches!(cmd, DramCommand::Write { .. });
                let b = &self.banks[bank as usize];
                if !matches!(b.state, BankState::Active { .. }) {
                    v.push(TimingViolation {
                        rule: TimingRule::BankClosed,
                        earliest_legal_ps: now_ps,
                        issued_ps: now_ps,
                    });
                }
                if b.act_valid {
                    push(&mut v, TimingRule::Trcd, b.last_act_ps + t.t_rcd_ps);
                }
                if let Some((when, was_write, group)) = self.last_col {
                    let same = group == self.geometry.group_of(bank);
                    let ccd = if same { t.t_ccd_l_ps } else { t.t_ccd_s_ps };
                    let rule = if same {
                        TimingRule::TccdL
                    } else {
                        TimingRule::TccdS
                    };
                    push(&mut v, rule, when + ccd.max(t.t_burst_ps));
                    if was_write && !is_write {
                        push(
                            &mut v,
                            TimingRule::Twtr,
                            when + t.t_cwl_ps + t.t_burst_ps + t.t_wtr_ps,
                        );
                    }
                }
            }
            DramCommand::Refresh => {
                if self
                    .banks
                    .iter()
                    .any(|b| matches!(b.state, BankState::Active { .. }))
                {
                    v.push(TimingViolation {
                        rule: TimingRule::RefWithOpenRows,
                        earliest_legal_ps: now_ps,
                        issued_ps: now_ps,
                    });
                }
                for b in &self.banks {
                    if b.pre_valid {
                        push(&mut v, TimingRule::Trp, b.last_pre_ps + t.t_rp_ps);
                    }
                }
            }
            DramCommand::RefreshRow { bank, .. } => {
                let b = &self.banks[bank as usize];
                if matches!(b.state, BankState::Active { .. }) {
                    v.push(TimingViolation {
                        rule: TimingRule::RefWithOpenRows,
                        earliest_legal_ps: now_ps,
                        issued_ps: now_ps,
                    });
                }
                if b.pre_valid {
                    push(&mut v, TimingRule::Trp, b.last_pre_ps + t.t_rp_ps);
                }
            }
        }
        v
    }

    /// Records the effects of `cmd` issued at `now_ps` on the tracker state.
    pub fn apply(&mut self, cmd: &DramCommand, now_ps: u64) {
        let t = self.timing.clone();
        match *cmd {
            DramCommand::Activate { bank, row } => {
                let group = self.geometry.group_of(bank) as usize;
                let b = &mut self.banks[bank as usize];
                b.state = BankState::Active { row };
                b.last_act_ps = now_ps;
                b.act_valid = true;
                b.rd_valid = false;
                b.wr_valid = false;
                self.last_act_by_group[group] = (now_ps, true);
                if self.act_window_len == 4 {
                    self.act_window.rotate_left(1);
                    self.act_window[3] = now_ps;
                } else {
                    self.act_window[self.act_window_len] = now_ps;
                    self.act_window_len += 1;
                }
            }
            DramCommand::Precharge { bank } => {
                let b = &mut self.banks[bank as usize];
                b.prev_open_row = match b.state {
                    BankState::Active { row } => Some(row),
                    BankState::Idle => None,
                };
                b.state = BankState::Idle;
                b.last_pre_ps = now_ps;
                b.pre_valid = true;
            }
            DramCommand::PrechargeAll => {
                for bank in 0..self.geometry.banks() {
                    self.apply(&DramCommand::Precharge { bank }, now_ps);
                }
            }
            DramCommand::Read { bank, .. } => {
                let group = self.geometry.group_of(bank);
                let b = &mut self.banks[bank as usize];
                b.last_rd_ps = now_ps;
                b.rd_valid = true;
                self.last_col = Some((now_ps, false, group));
            }
            DramCommand::Write { bank, .. } => {
                let group = self.geometry.group_of(bank);
                let end = now_ps + t.t_cwl_ps + t.t_burst_ps;
                let b = &mut self.banks[bank as usize];
                b.last_wr_end_ps = end;
                b.wr_valid = true;
                self.last_col = Some((now_ps, true, group));
            }
            DramCommand::Refresh => {
                self.ref_busy_until_ps = now_ps + t.t_rfc_ps;
            }
            DramCommand::RefreshRow { bank, .. } => {
                let b = &mut self.banks[bank as usize];
                b.state = BankState::Idle;
                b.prev_open_row = None;
                b.last_pre_ps = now_ps + t.t_rfm_ps.saturating_sub(t.t_rp_ps);
                b.pre_valid = true;
            }
        }
    }
}

/// Differential tests: the table-driven tracker must agree with this frozen
/// rule-based implementation on every observable — `earliest_issue_ps`,
/// the full violation list of `check` (order and multiplicity included),
/// and per-bank open-row state — over randomized command streams.
#[cfg(test)]
pub(crate) mod differential {
    use super::*;
    use crate::bank::RankTiming;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// One abstract command: (kind, bank, row, col).
    pub(crate) type Op = (u8, u32, u32, u32);

    pub(crate) fn decode(op: Op, banks: u32) -> DramCommand {
        let (kind, bank, row, col) = op;
        let bank = bank % banks;
        match kind {
            // Column commands and ACT dominate real streams; weight them.
            0 | 7 => DramCommand::Activate { bank, row },
            1 => DramCommand::Precharge { bank },
            2 => DramCommand::PrechargeAll,
            3 | 8 => DramCommand::Read { bank, col },
            4 | 9 => DramCommand::Write {
                bank,
                col,
                data: [0xA5; 64],
            },
            5 => DramCommand::Refresh,
            _ => DramCommand::RefreshRow { bank, row },
        }
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        (0u8..10, 0u32..16, 0u32..64, 0u32..128)
    }

    /// Time advances chosen to straddle the interesting boundaries: intra-
    /// burst gaps, tRCD/tRAS-scale gaps, tRFC edges (350 000 ps on the
    /// 1333 bin), and tREFI-scale jumps.
    pub(crate) fn dt_strategy() -> impl Strategy<Value = u64> {
        prop_oneof![
            0u64..2_000,
            2_000u64..40_000,
            349_000u64..351_000,
            7_790_000u64..7_810_000,
        ]
    }

    fn assert_agree(table: &RankTiming, oracle: &OracleRankTiming, cmd: &DramCommand, now: u64) {
        assert_eq!(
            table.earliest_issue_ps(cmd),
            oracle.earliest_issue_ps(cmd),
            "earliest diverged for {cmd} at {now}"
        );
        assert_eq!(
            table.check(cmd, now),
            oracle.check(cmd, now),
            "violation list diverged for {cmd} at {now}"
        );
        let legal = table.check(cmd, now).is_empty();
        if table.is_legal(cmd, now) {
            assert!(legal, "is_legal=true but check flagged {cmd} at {now}");
        }
        // The converse may not hold (the scheduling-only rd→wr drain), but a
        // command at/after its earliest with compatible state must be legal.
    }

    fn run_stream(geometry: Geometry, ops: &[Op], dts: &[u64], issue_at_earliest: bool) {
        let timing = TimingParams::ddr4_1333();
        let banks = geometry.banks();
        let mut table = RankTiming::new(geometry.clone(), timing.clone());
        let mut oracle = OracleRankTiming::new(geometry, timing);
        let mut now = 0u64;
        for (op, dt) in ops.iter().zip(dts) {
            let cmd = decode(*op, banks);
            now += dt;
            let at = if issue_at_earliest {
                // Scheduled mode: issue exactly when the hot path says the
                // command becomes legal — the ready-cycle contract.
                now.max(table.earliest_issue_ps(&cmd))
            } else {
                // Raw mode: issue regardless of legality, as DRAM
                // techniques do.
                now
            };
            assert_agree(&table, &oracle, &cmd, at);
            table.apply(&cmd, at);
            oracle.apply(&cmd, at);
            now = at;
            for b in 0..banks {
                assert_eq!(table.open_row(b), oracle.open_row(b), "bank {b} state");
            }
        }
    }

    proptest! {
        /// Raw randomized streams (legal and illegal commands alike) over
        /// the default 4-group × 4-bank geometry.
        #[test]
        fn raw_streams_agree(
            ops in vec(op_strategy(), 1..120),
            dts in vec(dt_strategy(), 1..120),
        ) {
            let n = ops.len().min(dts.len());
            run_stream(Geometry::default(), &ops[..n], &dts[..n], false);
        }

        /// Scheduled streams: every command issued at the table tracker's
        /// earliest legal time must be judged identically by the oracle.
        #[test]
        fn scheduled_streams_agree(
            ops in vec(op_strategy(), 1..120),
            dts in vec(dt_strategy(), 1..120),
        ) {
            let n = ops.len().min(dts.len());
            run_stream(Geometry::default(), &ops[..n], &dts[..n], true);
        }

        /// The reduced test geometry (1 group × 2 banks) exercises the
        /// degenerate-group paths.
        #[test]
        fn small_geometry_agrees(
            ops in vec(op_strategy(), 1..80),
            dts in vec(dt_strategy(), 1..80),
        ) {
            let n = ops.len().min(dts.len());
            let geom = crate::config::DramConfig::small_for_tests().geometry;
            run_stream(geom, &ops[..n], &dts[..n], false);
        }
    }

    /// Deterministic regression: an RFM folded into the precharge timestamp
    /// must gate tRP-successors identically in both trackers, including a
    /// premature PRE that *rewinds* the folded timestamp.
    #[test]
    fn rfm_fold_and_premature_pre_agree() {
        let t = TimingParams::ddr4_1333();
        let geom = Geometry::default();
        let mut table = RankTiming::new(geom.clone(), t.clone());
        let mut oracle = OracleRankTiming::new(geom, t.clone());
        let script = [
            (DramCommand::Activate { bank: 0, row: 1 }, 0),
            (DramCommand::Precharge { bank: 0 }, t.t_ras_ps),
            (
                DramCommand::RefreshRow { bank: 0, row: 2 },
                t.t_ras_ps + t.t_rp_ps,
            ),
            // PRE while the RFM fold still points into the future: the
            // recorded precharge timestamp moves *backwards*.
            (
                DramCommand::Precharge { bank: 0 },
                t.t_ras_ps + t.t_rp_ps + 1,
            ),
            (DramCommand::Activate { bank: 0, row: 3 }, 2 * t.t_rfm_ps),
        ];
        for (cmd, at) in script {
            assert_eq!(
                table.earliest_issue_ps(&cmd),
                oracle.earliest_issue_ps(&cmd),
                "{cmd}"
            );
            assert_eq!(table.check(&cmd, at), oracle.check(&cmd, at), "{cmd}");
            table.apply(&cmd, at);
            oracle.apply(&cmd, at);
        }
    }
}
