//! The rule-based timing checker, frozen as the reference for the rank
//! tracker.
//!
//! This module is a verbatim copy of the rank tracker as it existed before
//! the precomputed-[`TimingTable`](crate::table::TimingTable) rewrite of
//! [`crate::bank`]: every legality question is answered by walking the named
//! JEDEC rules one by one. It is deliberately *not* refactored to share code
//! with the hot path — sharing would let a bug hide in the shared half.
//!
//! [`OracleRankTiming`] is the one reference the table-driven
//! [`RankTiming`](crate::bank::RankTiming) is held to: by one differential
//! harness (`tests/support/rank_differential.rs`, which the workspace's
//! `tests/oracle_differential.rs` and this crate's tests run), by
//! `easydram-model` and by the Fig. 14 race. Outside tests it needs the
//! `oracle` feature, which the last two and the workspace's tests enable.

use crate::bank::BankState;
use crate::command::DramCommand;
use crate::config::Geometry;
use crate::error::{TimingRule, TimingViolation};
use crate::timing::TimingParams;

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

#[cfg(test)]
pub(crate) mod differential;
