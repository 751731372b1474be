//! Per-bank state machine and rank-level timing rule tracking (paper §2.2).
//!
//! The tracker answers two questions for a candidate command at time `t`:
//! *is it legal?* ([`RankTiming::check`]) and *when would it become legal?*
//! ([`RankTiming::earliest_issue_ps`]). Commands may still be *executed* when
//! illegal — that is how DRAM techniques work — so checking and execution are
//! deliberately separate.
//!
//! All minimum distances come from a [`TimingTable`] precomputed once at
//! construction, and the DDR4 rules are stated once: one private walk visits
//! every rule that binds a command, each spacing as its table entry's rule
//! and the biased time it allows the command from, each bank-state
//! requirement as a rule and whether it is met. [`RankTiming::admission`],
//! the hot path behind [`RankTiming::is_legal`] and
//! [`RankTiming::earliest_issue_ps`], folds the walk into `(max, all met)`
//! without allocating. [`check`], the enumerating slow path, folds it into
//! the named spacings `now` is early for plus the unmet requirements,
//! byte-compatible with the frozen rule-based oracle in `oracle.rs` (built
//! for the crate's tests and under the `oracle` feature only).
//!
//! The folds differ only in ACT spacing. `check` visits tRRD once per bank
//! group: its contract is one violation per constraining group. `admission`
//! needs only the maximum, which the latest same-group ACT plus tRRD_L and
//! the latest ACT anywhere plus tRRD_S give when tRRD_L ≥ tRRD_S
//! (`cfg/rrd-scope`); a table without that falls back to the per-group visit.
//!
//! [`check`]: RankTiming::check

use crate::command::DramCommand;
use crate::config::Geometry;
use crate::error::{TimingRule, TimingViolation};
use crate::table::{CmdClass, MinDistance, Scope, TimingTable};
use crate::timing::TimingParams;

/// The row-buffer state of one bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BankState {
    /// All rows closed.
    #[default]
    Idle,
    /// `row` is open in the sense amplifiers.
    Active {
        /// The open row.
        row: u32,
    },
}

/// All tracker timestamps are stored *biased* by this amount: a stored value
/// of `t + BIAS` means "the event happened at `t` picoseconds", while
/// [`NEVER`] (zero) means "it never happened". `BIAS` (~1.1e12 ps) exceeds
/// every distance in the timing table (the largest, the tREFW refresh
/// window, is ~6.4e10 ps), so `NEVER + dist < BIAS <= now + BIAS` always
/// holds: a never-recorded event can never constrain a command, and the hot
/// path needs no validity flags or branches to say so.
const BIAS: u64 = 1 << 40;

/// Latest issue time the tracker accepts. A recorded event is `now + BIAS`
/// plus at most one offset, and a query adds one table distance to that; all
/// three stay below `BIAS`, so no sum at or below this limit can wrap.
/// [`crate::DramDevice`] rejects later times before they reach the tracker.
pub const MAX_ISSUE_PS: u64 = u64::MAX - 4 * BIAS;

/// Biased timestamp meaning "this event has not happened".
const NEVER: u64 = 0;

/// Biased timestamps of the most recent commands affecting one bank
/// (`*_bps` = biased picoseconds; see [`BIAS`]).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct BankTrack {
    state: BankState,
    /// This bank's bank-group index, cached at construction: `group_of` is
    /// an integer division by a runtime value, far too slow for a field the
    /// hot path reads once or twice per command.
    group: u32,
    /// Biased issue time of the last ACT.
    last_act_bps: u64,
    /// Biased issue time of the last PRE.
    last_pre_bps: u64,
    /// Row open before the last PRE (RowClone detection).
    pub(crate) prev_open_row: Option<u32>,
    /// Biased issue time of the last read.
    last_rd_bps: u64,
    /// Biased completion time of the last write's final data beat.
    last_wr_end_bps: u64,
}

impl BankTrack {
    /// Unbiased issue time of the last ACT, if one happened.
    #[inline]
    pub(crate) fn last_act_event_ps(&self) -> Option<u64> {
        (self.last_act_bps != NEVER).then(|| self.last_act_bps - BIAS)
    }

    /// Unbiased issue time of the last PRE, if one happened.
    #[inline]
    pub(crate) fn last_pre_event_ps(&self) -> Option<u64> {
        (self.last_pre_bps != NEVER).then(|| self.last_pre_bps - BIAS)
    }
}

/// What the rule walk of a [`RankTiming`] is folded into.
trait RuleFold {
    /// Whether ACT spacing is visited once per bank group rather than as
    /// the rolled-up same-group/any-group pair.
    const PER_GROUP_RRD: bool;

    /// A spacing: the command is allowed from biased time `legal_bps`.
    /// `rule` is what `check` names when it is broken; `None` for a
    /// scheduling-only spacing `check` never lists.
    fn spacing(&mut self, rule: Option<TimingRule>, legal_bps: u64);

    /// A bank-state requirement, and whether the state meets it.
    fn state(&mut self, rule: TimingRule, met: bool);

    /// The spacing of table entry `e` from an event recorded at biased
    /// `event_bps`. An unconstrained pair (`None`) allows anything.
    #[inline(always)]
    fn entry(&mut self, e: Option<MinDistance>, event_bps: u64) {
        let (rule, dist_ps) = e.map_or((None, 0), |e| (e.rule, e.dist_ps));
        self.spacing(rule, event_bps + dist_ps);
    }
}

/// The fold behind [`RankTiming::admission`]: the latest time any spacing
/// allows, and whether every requirement is met.
struct Admission {
    earliest_bps: u64,
    admits: bool,
}

impl RuleFold for Admission {
    const PER_GROUP_RRD: bool = false;

    #[inline(always)]
    fn spacing(&mut self, _: Option<TimingRule>, legal_bps: u64) {
        self.earliest_bps = self.earliest_bps.max(legal_bps);
    }

    #[inline(always)]
    fn state(&mut self, _: TimingRule, met: bool) {
        self.admits &= met;
    }
}

/// The fold behind [`RankTiming::check`]: one violation per named spacing
/// `now_ps` is early for, and one per unmet requirement.
struct Check {
    now_ps: u64,
    violations: Vec<TimingViolation>,
}

impl RuleFold for Check {
    const PER_GROUP_RRD: bool = true;

    fn spacing(&mut self, rule: Option<TimingRule>, legal_bps: u64) {
        // A never-recorded event allows the command from below `BIAS`, so
        // the compare that drops a satisfied rule drops an absent one too.
        if let Some(rule) = rule.filter(|_| self.now_ps + BIAS < legal_bps) {
            self.violations.push(TimingViolation {
                rule,
                earliest_legal_ps: legal_bps - BIAS,
                issued_ps: self.now_ps,
            });
        }
    }

    fn state(&mut self, rule: TimingRule, met: bool) {
        if !met {
            self.violations.push(TimingViolation {
                rule,
                earliest_legal_ps: self.now_ps,
                issued_ps: self.now_ps,
            });
        }
    }
}

/// Rank-level timing tracker shared by all banks (bus turnaround, tFAW, tRFC).
#[derive(Debug, Clone)]
pub struct RankTiming {
    geometry: Geometry,
    /// Precomputed per-scope minimum-distance matrices; the only place
    /// timing parameters survive construction.
    table: TimingTable,
    banks: Vec<BankTrack>,
    /// Circular window of the last four biased ACT issue times (tFAW); the
    /// oldest entry sits at `act_ptr`, and [`NEVER`] fills not-yet-used
    /// slots so a not-yet-full window can never constrain.
    act_window: [u64; 4],
    act_ptr: usize,
    /// Biased issue time of the most recent ACT in the rank, per group.
    last_act_by_group: Vec<u64>,
    /// Biased issue time of the most recent ACT in any group (rolled-up tRRD_S).
    last_act_any: u64,
    /// Number of banks currently holding an open row (rolled-up REF gate).
    open_banks: u32,
    /// Biased issue time of the last column command anywhere.
    last_col_bps: u64,
    /// Whether that column command was a write.
    last_col_was_write: bool,
    /// Bank group of that column command.
    last_col_group: u32,
    /// Biased issue time of the last all-bank refresh; every command class
    /// is gated by its own `Channel` `Ref→class` entry (all tRFC on DDR4),
    /// so each of those matrix entries is load-bearing.
    last_ref_bps: u64,
}

impl RankTiming {
    /// Creates a tracker for the given geometry and timing bin. The timing
    /// table is computed here, once; every later legality question is
    /// answered from it.
    #[must_use]
    pub fn new(geometry: Geometry, timing: TimingParams) -> Self {
        Self::from_table(geometry, TimingTable::new(&timing))
    }

    fn from_table(geometry: Geometry, table: TimingTable) -> Self {
        let mut banks = vec![BankTrack::default(); geometry.banks() as usize];
        for (i, b) in banks.iter_mut().enumerate() {
            b.group = geometry.group_of(i as u32);
        }
        let groups = geometry.bank_groups as usize;
        Self {
            geometry,
            table,
            banks,
            act_window: [NEVER; 4],
            act_ptr: 0,
            last_act_by_group: vec![NEVER; groups],
            last_act_any: NEVER,
            open_banks: 0,
            last_col_bps: NEVER,
            last_col_was_write: false,
            last_col_group: 0,
            last_ref_bps: NEVER,
        }
    }

    /// The precomputed distance table this tracker answers from.
    #[must_use]
    pub fn table(&self) -> &TimingTable {
        &self.table
    }

    pub(crate) fn bank(&self, bank: u32) -> &BankTrack {
        &self.banks[bank as usize]
    }

    /// The row currently open in `bank`, if any.
    #[must_use]
    #[inline]
    pub fn open_row(&self, bank: u32) -> Option<u32> {
        match self.banks[bank as usize].state {
            BankState::Active { row } => Some(row),
            BankState::Idle => None,
        }
    }

    /// Earliest time `cmd` satisfies every timing rule, given current state.
    ///
    /// Out-of-range banks are reported as unconstrained; the device rejects
    /// them with a proper error at issue time.
    #[must_use]
    #[inline]
    // The scheduler polls this per candidate command.
    pub fn earliest_issue_ps(&self, cmd: &DramCommand) -> u64 {
        self.admission(cmd).0
    }

    /// The answer a command needs on the hot path: the earliest time `cmd`
    /// satisfies every timing rule, and whether the bank state admits it
    /// (`ACT`/`RFM` want their bank precharged, a column command wants it
    /// open, `REF` wants every bank precharged). `cmd` is legal at `t` iff
    /// the state admits it and `t` is not before the earliest time, so a
    /// command issued at or after that time needs no second walk to be
    /// judged.
    ///
    /// The rule walk folded into `(max, all met)`. Every term is a biased
    /// timestamp plus a table distance, so never-happened events (stored as
    /// zero) fall below `BIAS` and drop out of the `max` without a branch.
    /// O(1) for every per-bank command: ACT spacing reads the rolled-up
    /// same-group/any-group pair when the bin allows it.
    #[must_use]
    #[inline]
    pub fn admission(&self, cmd: &DramCommand) -> (u64, bool) {
        let mut f = Admission {
            earliest_bps: NEVER,
            admits: true,
        };
        self.rules(cmd, &mut f);
        (f.earliest_bps.saturating_sub(BIAS), f.admits)
    }

    /// Fast legality test: [`admission`] judged at `now_ps`, with no
    /// allocation and no rule enumeration.
    ///
    /// `true` implies [`check`] is empty. The converse fails where a spacing
    /// binds the earliest time but `check` names no rule for it:
    /// - a `WR` inside the read→write bus drain, which no JEDEC rule names;
    /// - a `PRE` within tRAS of the last `ACT` to a bank already precharged:
    ///   tRAS binds from the `ACT` on, but `check` names it only while the
    ///   bank is open.
    ///
    /// Callers treat a `false` as "run the enumerating checker", which
    /// preserves exact behaviour.
    ///
    /// [`admission`]: RankTiming::admission
    /// [`check`]: RankTiming::check
    #[must_use]
    #[inline]
    // The hot-path legality gate (`check` is the cold diagnostic sibling and
    // is allowed to build violation lists).
    pub fn is_legal(&self, cmd: &DramCommand, now_ps: u64) -> bool {
        let (earliest_ps, admits) = self.admission(cmd);
        admits && now_ps >= earliest_ps
    }

    /// Checks every applicable rule for `cmd` at time `now_ps`.
    ///
    /// Returns all violations (possibly several); an empty vector means no
    /// named rule is broken (see [`RankTiming::is_legal`] for the two
    /// unnamed gaps). The enumerating slow path: the rule walk folded into
    /// the named spacings `now_ps` is early for plus the unmet bank-state
    /// requirements. The order and multiplicity of the returned violations
    /// are part of the contract (they feed violation statistics) and match
    /// the rule-based oracle.
    #[must_use]
    pub fn check(&self, cmd: &DramCommand, now_ps: u64) -> Vec<TimingViolation> {
        let mut f = Check {
            now_ps,
            violations: Vec::new(),
        };
        self.rules(cmd, &mut f);
        f.violations
    }

    /// Visits every rule that binds `cmd`, in the order `check` lists them.
    /// An out-of-range bank binds nothing.
    #[inline(always)]
    fn rules<F: RuleFold>(&self, cmd: &DramCommand, f: &mut F) {
        use CmdClass::{Act, Pre, Rd, Ref, Rfm, Wr};
        if cmd.bank().is_some_and(|b| b >= self.geometry.banks()) {
            return;
        }
        let tt = &self.table;
        let class = CmdClass::of(cmd);
        let trfc = tt.entry(Scope::Channel, Ref, class);
        // A PREA lists its tRFC after the banks' rules; every other command
        // lists it first.
        if !matches!(cmd, DramCommand::PrechargeAll) {
            f.entry(trfc, self.last_ref_bps);
        }
        match *cmd {
            DramCommand::Activate { bank, .. } => {
                let b = &self.banks[bank as usize];
                f.state(TimingRule::BankOpen, b.state == BankState::Idle);
                f.entry(tt.entry(Scope::Bank, Pre, Act), b.last_pre_bps);
                let group = b.group as usize;
                if F::PER_GROUP_RRD || !tt.rrd_rolled_ok {
                    for (g, &t_bps) in self.last_act_by_group.iter().enumerate() {
                        let scope = if g == group {
                            Scope::BankGroup
                        } else {
                            Scope::Rank
                        };
                        f.entry(tt.entry(scope, Act, Act), t_bps);
                    }
                } else {
                    let in_group_bps = self.last_act_by_group[group];
                    f.entry(tt.entry(Scope::BankGroup, Act, Act), in_group_bps);
                    f.entry(tt.entry(Scope::Rank, Act, Act), self.last_act_any);
                }
                let oldest = self.act_window[self.act_ptr];
                f.spacing(Some(TimingRule::Tfaw), oldest + tt.t_faw_ps);
            }
            DramCommand::Precharge { bank } => self.pre_rules(bank, f),
            DramCommand::PrechargeAll => {
                for bank in 0..self.geometry.banks() {
                    self.pre_rules(bank, f);
                }
                f.entry(trfc, self.last_ref_bps);
            }
            DramCommand::Read { bank, .. } | DramCommand::Write { bank, .. } => {
                let b = &self.banks[bank as usize];
                f.state(TimingRule::BankClosed, b.state != BankState::Idle);
                f.entry(tt.entry(Scope::Bank, Act, class), b.last_act_bps);
                // tCCD_L within a bank group, tCCD_S (the shared data bus)
                // across; then the direction turnaround, a rank-scope entry
                // that only a change of direction has.
                let prev = if self.last_col_was_write { Wr } else { Rd };
                let scope = if self.last_col_group == b.group {
                    Scope::BankGroup
                } else {
                    Scope::Channel
                };
                f.entry(tt.entry(scope, prev, class), self.last_col_bps);
                f.entry(tt.entry(Scope::Rank, prev, class), self.last_col_bps);
            }
            DramCommand::Refresh => {
                f.state(TimingRule::RefWithOpenRows, self.open_banks == 0);
                let trp = tt.entry(Scope::Bank, Pre, Ref);
                for b in &self.banks {
                    f.entry(trp, b.last_pre_bps);
                }
            }
            DramCommand::RefreshRow { bank, .. } => {
                let b = &self.banks[bank as usize];
                f.state(TimingRule::RefWithOpenRows, b.state == BankState::Idle);
                f.entry(tt.entry(Scope::Bank, Pre, Rfm), b.last_pre_bps);
            }
        }
    }

    /// The rules binding a precharge of `bank`, tRFC aside.
    #[inline(always)]
    fn pre_rules<F: RuleFold>(&self, bank: u32, f: &mut F) {
        use CmdClass::{Act, Pre, Rd, Wr};
        let (tt, b) = (&self.table, &self.banks[bank as usize]);
        // tRAS binds from the last ACT on, but a precharged bank has no row
        // to cut short, so the rule is named only while the bank is open.
        let open = b.state != BankState::Idle;
        let tras = tt.entry(Scope::Bank, Act, Pre).map(|e| MinDistance {
            rule: e.rule.filter(|_| open),
            ..e
        });
        f.entry(tras, b.last_act_bps);
        f.entry(tt.entry(Scope::Bank, Rd, Pre), b.last_rd_bps);
        f.entry(tt.entry(Scope::Bank, Wr, Pre), b.last_wr_end_bps);
    }

    /// Records the effects of `cmd` issued at `now_ps` on the tracker state.
    ///
    /// Public so that timing-only simulators (the Ramulator baseline) can
    /// reuse the rule tracker without a data-carrying device.
    #[inline]
    // State update for every issued command.
    pub fn apply(&mut self, cmd: &DramCommand, now_ps: u64) {
        let now_b = now_ps + BIAS;
        match *cmd {
            DramCommand::Activate { bank, row } => {
                let b = &mut self.banks[bank as usize];
                let group = b.group as usize;
                if matches!(b.state, BankState::Idle) {
                    self.open_banks += 1;
                }
                b.state = BankState::Active { row };
                b.last_act_bps = now_b;
                b.last_rd_bps = NEVER;
                b.last_wr_end_bps = NEVER;
                self.last_act_by_group[group] = now_b;
                self.last_act_any = now_b;
                // Overwrite the oldest slot and advance: the window is
                // circular from the start, with NEVER in unused slots.
                self.act_window[self.act_ptr] = now_b;
                self.act_ptr = (self.act_ptr + 1) & 3;
            }
            DramCommand::Precharge { bank } => {
                let b = &mut self.banks[bank as usize];
                b.prev_open_row = match b.state {
                    BankState::Active { row } => {
                        self.open_banks -= 1;
                        Some(row)
                    }
                    BankState::Idle => None,
                };
                b.state = BankState::Idle;
                b.last_pre_bps = now_b;
            }
            DramCommand::PrechargeAll => {
                for b in &mut self.banks {
                    b.prev_open_row = match b.state {
                        BankState::Active { row } => Some(row),
                        BankState::Idle => None,
                    };
                    b.state = BankState::Idle;
                    b.last_pre_bps = now_b;
                }
                self.open_banks = 0;
            }
            DramCommand::Read { bank, .. } => {
                let b = &mut self.banks[bank as usize];
                b.last_rd_bps = now_b;
                let group = b.group;
                self.last_col_bps = now_b;
                self.last_col_was_write = false;
                self.last_col_group = group;
            }
            DramCommand::Write { bank, .. } => {
                // Record the write at the end of its data burst; every
                // `Wr`-row table distance is relative to that event.
                let end_b = now_b + self.table.wr_event_offset_ps;
                let b = &mut self.banks[bank as usize];
                b.last_wr_end_bps = end_b;
                let group = b.group;
                self.last_col_bps = now_b;
                self.last_col_was_write = true;
                self.last_col_group = group;
            }
            DramCommand::Refresh => {
                self.last_ref_bps = now_b;
            }
            DramCommand::RefreshRow { bank, .. } => {
                // The bank internally activates and restores the row, then
                // returns to the precharged state `t_rfm` later. Folding the
                // busy interval into the precharge timestamp makes every
                // tRP-gated successor (ACT, REF, another RFM) wait until
                // `now + t_rfm` without a dedicated busy field; the cleared
                // `prev_open_row` also stops an intervening RFM from being
                // misread as part of a RowClone ACT→PRE→ACT sequence.
                let pre_b = now_b + self.table.rfm_pre_offset_ps;
                let b = &mut self.banks[bank as usize];
                if matches!(b.state, BankState::Active { .. }) {
                    self.open_banks -= 1;
                }
                b.state = BankState::Idle;
                b.prev_open_row = None;
                b.last_pre_bps = pre_b;
            }
        }
    }
}

/// Model-checker hooks, compiled for tests and the `oracle` feature only.
#[cfg(any(test, feature = "oracle"))]
impl RankTiming {
    /// Builds a tracker around a caller-supplied (possibly deliberately
    /// corrupted) distance table — the mutation harness's entry point.
    #[must_use]
    pub fn with_table(geometry: Geometry, table: TimingTable) -> Self {
        Self::from_table(geometry, table)
    }

    /// Appends a delta-normalized canonical fingerprint of the tracker state
    /// at `now_ps` to `out`.
    ///
    /// Two states with equal fingerprints are behaviorally equivalent for
    /// every future command sequence issued at or after `now_ps`: legality is
    /// a conjunction of `now' >= event + dist` comparisons, which only
    /// depends on `event - now` differences (translation invariance on the
    /// biased timeline), and any event older than `now -`
    /// [`TimingTable::max_distance_ps`] — including a never-recorded
    /// one — can never constrain again, so all such timestamps are clamped
    /// to one canonical "ancient" value. This is what makes the bounded
    /// model checker's reachable state space finite.
    pub fn canonical_key(&self, now_ps: u64, out: &mut Vec<u64>) {
        let now_b = now_ps + BIAS;
        let horizon = self.table.max_distance_ps();
        // Everything at or before the horizon floor is equivalent; emit
        // timestamps relative to it so two time-shifted histories collide.
        let floor = now_b.saturating_sub(horizon);
        let norm = |ts: u64| ts.max(floor) - floor;
        for b in &self.banks {
            out.push(match b.state {
                BankState::Idle => 0,
                BankState::Active { row } => 1 + u64::from(row),
            });
            out.push(b.prev_open_row.map_or(0, |r| 1 + u64::from(r)));
            out.push(norm(b.last_act_bps));
            out.push(norm(b.last_pre_bps));
            out.push(norm(b.last_rd_bps));
            out.push(norm(b.last_wr_end_bps));
        }
        // The tFAW window is circular; emit it oldest-first so rotation
        // state does not split otherwise-identical states.
        for i in 0..4 {
            out.push(norm(self.act_window[(self.act_ptr + i) & 3]));
        }
        for &t in &self.last_act_by_group {
            out.push(norm(t));
        }
        out.push(norm(self.last_act_any));
        out.push(u64::from(self.open_banks));
        let col = norm(self.last_col_bps);
        out.push(col);
        // Direction/group of the last column command only matter while that
        // event can still constrain; once clamped ancient they are noise.
        out.push(if col > 0 {
            1 + u64::from(self.last_col_was_write)
        } else {
            0
        });
        out.push(if col > 0 {
            u64::from(self.last_col_group)
        } else {
            0
        });
        out.push(norm(self.last_ref_bps));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::differential::harness;

    fn rank() -> RankTiming {
        RankTiming::new(Geometry::default(), TimingParams::ddr4_1333())
    }

    #[test]
    fn fresh_rank_accepts_activate() {
        let r = rank();
        assert!(r
            .check(&DramCommand::Activate { bank: 0, row: 1 }, 0)
            .is_empty());
        assert_eq!(
            r.earliest_issue_ps(&DramCommand::Activate { bank: 0, row: 1 }),
            0
        );
    }

    #[test]
    fn read_before_trcd_flags_trcd() {
        let mut r = rank();
        r.apply(&DramCommand::Activate { bank: 0, row: 1 }, 0);
        let v = r.check(&DramCommand::Read { bank: 0, col: 0 }, 9_000);
        assert!(v.iter().any(|x| x.rule == TimingRule::Trcd));
        let v = r.check(&DramCommand::Read { bank: 0, col: 0 }, 13_500);
        assert!(v.is_empty());
    }

    #[test]
    fn read_on_closed_bank_flags_bank_closed() {
        let r = rank();
        let v = r.check(&DramCommand::Read { bank: 0, col: 0 }, 1_000_000);
        assert!(v.iter().any(|x| x.rule == TimingRule::BankClosed));
    }

    #[test]
    fn precharge_before_tras_flags_tras() {
        let mut r = rank();
        r.apply(&DramCommand::Activate { bank: 2, row: 9 }, 0);
        let v = r.check(&DramCommand::Precharge { bank: 2 }, 10_000);
        assert!(v.iter().any(|x| x.rule == TimingRule::Tras));
        let v = r.check(&DramCommand::Precharge { bank: 2 }, 36_000);
        assert!(v.is_empty());
    }

    #[test]
    fn activate_after_precharge_needs_trp() {
        let mut r = rank();
        r.apply(&DramCommand::Activate { bank: 1, row: 1 }, 0);
        r.apply(&DramCommand::Precharge { bank: 1 }, 36_000);
        let v = r.check(&DramCommand::Activate { bank: 1, row: 2 }, 40_000);
        assert!(v.iter().any(|x| x.rule == TimingRule::Trp));
        assert_eq!(
            r.earliest_issue_ps(&DramCommand::Activate { bank: 1, row: 2 }),
            36_000 + 13_500
        );
    }

    #[test]
    fn activate_on_open_bank_flags_bank_open() {
        let mut r = rank();
        r.apply(&DramCommand::Activate { bank: 1, row: 1 }, 0);
        let v = r.check(&DramCommand::Activate { bank: 1, row: 2 }, 1_000_000);
        assert!(v.iter().any(|x| x.rule == TimingRule::BankOpen));
    }

    #[test]
    fn four_activate_window_enforced() {
        let mut r = rank();
        let t = TimingParams::ddr4_1333();
        let mut now = 0;
        for (i, bank) in [0u32, 4, 8, 12].iter().enumerate() {
            r.apply(
                &DramCommand::Activate {
                    bank: *bank,
                    row: 0,
                },
                now,
            );
            now += t.t_rrd_s_ps;
            let _ = i;
        }
        // Fifth ACT within tFAW of the first must violate.
        let v = r.check(&DramCommand::Activate { bank: 1, row: 0 }, now);
        assert!(v.iter().any(|x| x.rule == TimingRule::Tfaw), "{v:?}");
        let v = r.check(&DramCommand::Activate { bank: 1, row: 0 }, t.t_faw_ps);
        assert!(!v.iter().any(|x| x.rule == TimingRule::Tfaw));
    }

    #[test]
    fn rrd_spacing_by_group() {
        let mut r = rank();
        let t = TimingParams::ddr4_1333();
        r.apply(&DramCommand::Activate { bank: 0, row: 0 }, 0);
        // Same group (bank 1 is group 0): needs tRRD_L.
        let v = r.check(&DramCommand::Activate { bank: 1, row: 0 }, t.t_rrd_s_ps);
        assert!(v.iter().any(|x| x.rule == TimingRule::TrrdL));
        // Different group (bank 4 is group 1): tRRD_S suffices.
        let v = r.check(&DramCommand::Activate { bank: 4, row: 0 }, t.t_rrd_s_ps);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn column_spacing_and_turnaround() {
        let mut r = rank();
        let t = TimingParams::ddr4_1333();
        r.apply(&DramCommand::Activate { bank: 0, row: 0 }, 0);
        r.apply(&DramCommand::Read { bank: 0, col: 0 }, t.t_rcd_ps);
        // Back-to-back read too soon: tCCD_L.
        let v = r.check(&DramCommand::Read { bank: 0, col: 1 }, t.t_rcd_ps + 1_000);
        assert!(v.iter().any(|x| x.rule == TimingRule::TccdL));
        // After tCCD_L it is fine.
        let v = r.check(
            &DramCommand::Read { bank: 0, col: 1 },
            t.t_rcd_ps + t.t_ccd_l_ps,
        );
        assert!(v.is_empty());
    }

    #[test]
    fn write_to_read_turnaround() {
        let mut r = rank();
        let t = TimingParams::ddr4_1333();
        r.apply(&DramCommand::Activate { bank: 0, row: 0 }, 0);
        let wr_at = t.t_rcd_ps;
        r.apply(
            &DramCommand::Write {
                bank: 0,
                col: 0,
                data: [0; 64],
            },
            wr_at,
        );
        let too_soon = wr_at + t.t_ccd_l_ps;
        let v = r.check(&DramCommand::Read { bank: 0, col: 1 }, too_soon);
        assert!(v.iter().any(|x| x.rule == TimingRule::Twtr));
        let fine = wr_at + t.t_cwl_ps + t.t_burst_ps + t.t_wtr_ps;
        let v = r.check(&DramCommand::Read { bank: 0, col: 1 }, fine);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn refresh_blocks_commands_for_trfc() {
        let mut r = rank();
        let t = TimingParams::ddr4_1333();
        r.apply(&DramCommand::Refresh, 0);
        let v = r.check(&DramCommand::Activate { bank: 0, row: 0 }, t.t_rfc_ps - 1);
        assert!(v.iter().any(|x| x.rule == TimingRule::Trfc));
        let v = r.check(&DramCommand::Activate { bank: 0, row: 0 }, t.t_rfc_ps);
        assert!(v.is_empty());
    }

    #[test]
    fn refresh_with_open_row_flagged() {
        let mut r = rank();
        r.apply(&DramCommand::Activate { bank: 3, row: 7 }, 0);
        let v = r.check(&DramCommand::Refresh, 1_000_000);
        assert!(v.iter().any(|x| x.rule == TimingRule::RefWithOpenRows));
    }

    #[test]
    fn open_row_tracking() {
        let mut r = rank();
        assert_eq!(r.open_row(5), None);
        r.apply(&DramCommand::Activate { bank: 5, row: 1234 }, 0);
        assert_eq!(r.open_row(5), Some(1234));
        r.apply(&DramCommand::Precharge { bank: 5 }, 100_000);
        assert_eq!(r.open_row(5), None);
        assert_eq!(r.bank(5).prev_open_row, Some(1234));
    }

    #[test]
    fn earliest_matches_check_boundary() {
        // Property glue: at `earliest_issue_ps` the command must be legal;
        // one ps before, it must not be (when a constraint exists).
        let mut r = rank();
        let t = TimingParams::ddr4_1333();
        r.apply(&DramCommand::Activate { bank: 0, row: 0 }, 0);
        r.apply(&DramCommand::Read { bank: 0, col: 0 }, t.t_rcd_ps);
        for cmd in [
            DramCommand::Read { bank: 0, col: 1 },
            DramCommand::Precharge { bank: 0 },
        ] {
            let e = r.earliest_issue_ps(&cmd);
            assert!(r.check(&cmd, e).is_empty(), "{cmd}");
            assert!(!r.check(&cmd, e - 1).is_empty(), "{cmd}");
        }
    }

    #[test]
    fn unnamed_spacings_are_illegal_with_nothing_listed() {
        let t = TimingParams::ddr4_1333();
        // A WR inside the read→write bus drain: past tCCD_L, before
        // tCL + tBL.
        let mut r = rank();
        r.apply(&DramCommand::Activate { bank: 0, row: 0 }, 0);
        r.apply(&DramCommand::Read { bank: 0, col: 0 }, t.t_rcd_ps);
        let wr = DramCommand::Write {
            bank: 0,
            col: 1,
            data: [0; 64],
        };
        let at = t.t_rcd_ps + t.t_ccd_l_ps;
        assert!(!r.is_legal(&wr, at));
        assert_eq!(r.check(&wr, at), []);
        assert_eq!(
            r.earliest_issue_ps(&wr),
            t.t_rcd_ps + t.t_cl_ps + t.t_burst_ps
        );
        // A PRE within tRAS of the last ACT, to a bank an early PRE has
        // already closed: tRAS binds the time, but names nothing on an idle
        // bank.
        let mut r = rank();
        r.apply(&DramCommand::Activate { bank: 0, row: 0 }, 0);
        r.apply(&DramCommand::Precharge { bank: 0 }, 10_000);
        let pre = DramCommand::Precharge { bank: 0 };
        assert!(!r.is_legal(&pre, 20_000));
        assert_eq!(r.check(&pre, 20_000), []);
        assert_eq!(r.earliest_issue_ps(&pre), 36_000);
    }

    #[test]
    fn refresh_row_requires_precharged_bank_and_holds_it_busy() {
        let mut r = rank();
        let t = TimingParams::ddr4_1333();
        // On an open bank the targeted refresh is flagged.
        r.apply(&DramCommand::Activate { bank: 0, row: 7 }, 0);
        let v = r.check(&DramCommand::RefreshRow { bank: 0, row: 8 }, 1_000_000);
        assert!(v.iter().any(|x| x.rule == TimingRule::RefWithOpenRows));
        // Close the bank; after tRP the RFM is legal and occupies the bank
        // for t_rfm: the next ACT (or RFM) must wait exactly that long.
        r.apply(&DramCommand::Precharge { bank: 0 }, t.t_ras_ps);
        let rfm_at = t.t_ras_ps + t.t_rp_ps;
        assert!(r
            .check(&DramCommand::RefreshRow { bank: 0, row: 8 }, rfm_at)
            .is_empty());
        r.apply(&DramCommand::RefreshRow { bank: 0, row: 8 }, rfm_at);
        let act = DramCommand::Activate { bank: 0, row: 7 };
        assert_eq!(r.earliest_issue_ps(&act), rfm_at + t.t_rfm_ps);
        assert!(!r.check(&act, rfm_at + t.t_rfm_ps - 1).is_empty());
        assert!(r.check(&act, rfm_at + t.t_rfm_ps).is_empty());
        // Other banks are unaffected.
        assert!(r
            .check(
                &DramCommand::Activate { bank: 1, row: 0 },
                rfm_at + t.t_rrd_l_ps
            )
            .is_empty());
    }

    #[test]
    fn refresh_row_breaks_rowclone_detection() {
        let mut r = rank();
        let t = TimingParams::ddr4_1333();
        r.apply(&DramCommand::Activate { bank: 2, row: 9 }, 0);
        r.apply(&DramCommand::Precharge { bank: 2 }, t.t_ras_ps);
        assert_eq!(r.bank(2).prev_open_row, Some(9));
        r.apply(
            &DramCommand::RefreshRow { bank: 2, row: 10 },
            t.t_ras_ps + t.t_rp_ps,
        );
        assert_eq!(r.bank(2).prev_open_row, None);
    }

    proptest::proptest! {
        /// The rule walk, through both its folds (`admission`, `check`),
        /// against the frozen oracle on the default, rank-folded and
        /// model-checker geometries and every bin, raw and scheduled.
        #[test]
        fn walk_matches_reference(
            geometry in 0usize..3,
            bin in 0u8..3,
            scheduled in 0u8..2,
            ops in proptest::collection::vec(harness::op_strategy(), 1..100),
            dts in proptest::collection::vec(harness::dt_strategy(), 1..100),
        ) {
            let n = ops.len().min(dts.len());
            let geometry = harness::geometry([0, 3, 2][geometry]);
            let timing = harness::bin(bin);
            harness::run_stream(geometry, timing, &ops[..n], &dts[..n], scheduled == 1);
        }
    }
}
