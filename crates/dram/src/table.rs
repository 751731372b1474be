//! Precomputed command-to-command minimum-distance tables (the DRAMSim /
//! ramulator `Config::timing` idiom).
//!
//! Rule-by-rule legality checking walks a list of named JEDEC constraints
//! for every candidate command. The hot path wants the opposite layout:
//! compute, **once** at device construction, the minimum distance from every
//! *recorded* command event to every *candidate* command, per scope, and
//! answer legality questions with a handful of last-event-matrix lookups.
//!
//! A [`TimingTable`] holds one `(prev, next)` matrix per scope:
//!
//! * [`Scope::Channel`] — constraints gating the whole channel: tRFC after
//!   an all-bank REF, and the shared-data-bus column spacings (tCCD_S
//!   floored at the burst occupancy — the bus serialises bursts no matter
//!   which group they target).
//! * [`Scope::Rank`] — cross-bank-group constraints: tRRD_S, the
//!   write→read turnaround (tCWL + tBL + tWTR) and the read→write bus-drain
//!   gap (tCL + tBL). tFAW also lives at rank scope but is a 4-event window,
//!   not a pair distance ([`TimingTable::t_faw_ps`]).
//! * [`Scope::BankGroup`] — same-group tightenings: tRRD_L, tCCD_L.
//! * [`Scope::Bank`] — per-bank constraints: tRCD, tRAS, tRP, tRTP, tWR.
//! * [`Scope::SameRow`] — reserved. Plain DDR4 has no same-row pair
//!   distances beyond the bank-scope ones; emerging-technique models
//!   (per-row restoration, partial activation) hang their entries here.
//!
//! Distances are relative to the *recorded event time* of the previous
//! command, which for writes is the end of the data burst
//! (`issue + tCWL + tBL`) — exactly what the rule tracker stores. The table
//! therefore folds compound expressions like `tCWL + tBL + tWR` into single
//! lookups against the stored event.
//!
//! Each entry optionally names the [`TimingRule`] the checker reports when
//! the distance is violated; both of the rank tracker's answers, `admission`
//! and `check`, take their rules from the entries. Entries with `rule = None`
//! are scheduling-only: `admission` honours them but `check` never lists them
//! (the read→write bus-drain gap, which no JEDEC rule names).

use crate::command::DramCommand;
use crate::error::TimingRule;
use crate::timing::TimingParams;

/// Command classes the timing matrices are keyed by. One class per record
/// kind the rule tracker stores — reads and writes are distinct because
/// their recorded event times and outgoing distances differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum CmdClass {
    /// Row activation (`ACT`).
    Act = 0,
    /// Precharge (`PRE` / `PREA`).
    Pre = 1,
    /// Column read (`RD`).
    Rd = 2,
    /// Column write (`WR`), recorded at the end of its data burst.
    Wr = 3,
    /// All-bank refresh (`REF`).
    Ref = 4,
    /// Targeted per-row refresh (`RFM`).
    Rfm = 5,
}

impl CmdClass {
    /// All classes, in matrix-index order.
    pub const ALL: [CmdClass; N_CMD] = [
        CmdClass::Act,
        CmdClass::Pre,
        CmdClass::Rd,
        CmdClass::Wr,
        CmdClass::Ref,
        CmdClass::Rfm,
    ];

    /// The class a command is tracked under. `PrechargeAll` is per-bank
    /// precharges, `RefreshRow` is the targeted-refresh (RFM) class.
    #[must_use]
    #[inline]
    pub fn of(cmd: &DramCommand) -> CmdClass {
        match cmd {
            DramCommand::Activate { .. } => CmdClass::Act,
            DramCommand::Precharge { .. } | DramCommand::PrechargeAll => CmdClass::Pre,
            DramCommand::Read { .. } => CmdClass::Rd,
            DramCommand::Write { .. } => CmdClass::Wr,
            DramCommand::Refresh => CmdClass::Ref,
            DramCommand::RefreshRow { .. } => CmdClass::Rfm,
        }
    }
}

/// Number of command classes (the matrix dimension).
pub const N_CMD: usize = 6;

/// The scope a minimum distance applies at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scope {
    /// Whole channel (every bank of every rank the tracker models).
    Channel,
    /// Rank-wide, across bank groups.
    Rank,
    /// Within one bank group.
    BankGroup,
    /// Within one bank.
    Bank,
    /// Within one row of one bank (reserved; no DDR4 entries).
    SameRow,
}

impl Scope {
    /// All scopes, broadest first.
    pub const ALL: [Scope; 5] = [
        Scope::Channel,
        Scope::Rank,
        Scope::BankGroup,
        Scope::Bank,
        Scope::SameRow,
    ];
}

/// One precomputed minimum distance: the candidate command must issue at
/// least `dist_ps` after the recorded event of the previous command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MinDistance {
    /// Minimum spacing from the recorded previous-command event, ps.
    pub dist_ps: u64,
    /// The rule the checker reports on violation; `None` for
    /// scheduling-only constraints `check` never enumerates.
    pub rule: Option<TimingRule>,
}

type Matrix = [[Option<MinDistance>; N_CMD]; N_CMD];

/// Flat per-scope `(prev, next)` minimum-distance matrices, computed once
/// from a [`TimingParams`] bin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimingTable {
    channel: Matrix,
    rank: Matrix,
    group: Matrix,
    bank: Matrix,
    same_row: Matrix,
    /// Four-activate window length (rank scope; windowed, not pairwise).
    pub t_faw_ps: u64,
    /// Offset from a write's issue time to its recorded event (data-burst
    /// end): tCWL + tBL. All `Wr`-row distances are relative to this event.
    pub wr_event_offset_ps: u64,
    /// Offset from an RFM's issue time to the precharge event the tracker
    /// folds it into: `tRFM - tRP` (saturating), so every tRP-gated
    /// successor waits until `issue + tRFM`.
    pub rfm_pre_offset_ps: u64,
    /// Whether tRRD_L ≥ tRRD_S, i.e. whether the ACT-spacing earliest time
    /// can be computed from two rolled-up events (latest same-group ACT and
    /// latest ACT anywhere) instead of a per-group walk. True for every bin
    /// that passes `cfg/rrd-scope`; an unvalidated parameter set falls back
    /// to the walk.
    pub rrd_rolled_ok: bool,
}

impl TimingTable {
    /// Builds the distance matrices for one timing bin.
    #[must_use]
    pub fn new(t: &TimingParams) -> Self {
        let mut channel: Matrix = [[None; N_CMD]; N_CMD];
        let mut rank: Matrix = [[None; N_CMD]; N_CMD];
        let mut group: Matrix = [[None; N_CMD]; N_CMD];
        let mut bank: Matrix = [[None; N_CMD]; N_CMD];
        let same_row: Matrix = [[None; N_CMD]; N_CMD];
        let set =
            |m: &mut Matrix, p: CmdClass, n: CmdClass, dist_ps: u64, rule: Option<TimingRule>| {
                m[p as usize][n as usize] = Some(MinDistance { dist_ps, rule });
            };
        use CmdClass::{Act, Pre, Rd, Ref, Rfm, Wr};

        // Channel scope: an all-bank refresh blocks every command for tRFC,
        // and the shared data bus serialises column bursts regardless of the
        // bank group they hit (tCCD_S floored at the burst occupancy).
        for next in [Act, Pre, Rd, Wr, Ref, Rfm] {
            set(&mut channel, Ref, next, t.t_rfc_ps, Some(TimingRule::Trfc));
        }
        let ccd_s = t.t_ccd_s_ps.max(t.t_burst_ps);
        for (p, n) in [(Rd, Rd), (Rd, Wr), (Wr, Rd), (Wr, Wr)] {
            set(&mut channel, p, n, ccd_s, Some(TimingRule::TccdS));
        }

        // Bank scope. The write event is recorded at data end, so write
        // recovery is a plain `tWR` from the stored timestamp.
        set(&mut bank, Act, Rd, t.t_rcd_ps, Some(TimingRule::Trcd));
        set(&mut bank, Act, Wr, t.t_rcd_ps, Some(TimingRule::Trcd));
        set(&mut bank, Act, Pre, t.t_ras_ps, Some(TimingRule::Tras));
        set(&mut bank, Pre, Act, t.t_rp_ps, Some(TimingRule::Trp));
        set(&mut bank, Pre, Ref, t.t_rp_ps, Some(TimingRule::Trp));
        set(&mut bank, Pre, Rfm, t.t_rp_ps, Some(TimingRule::Trp));
        set(&mut bank, Rd, Pre, t.t_rtp_ps, Some(TimingRule::Trtp));
        set(&mut bank, Wr, Pre, t.t_wr_ps, Some(TimingRule::Twr));

        // Bank-group scope: same-group tightenings.
        set(&mut group, Act, Act, t.t_rrd_l_ps, Some(TimingRule::TrrdL));
        let ccd_l = t.t_ccd_l_ps.max(t.t_burst_ps);
        for (p, n) in [(Rd, Rd), (Rd, Wr), (Wr, Rd), (Wr, Wr)] {
            set(&mut group, p, n, ccd_l, Some(TimingRule::TccdL));
        }

        // Rank scope: cross-group ACT spacing and the bus turnarounds.
        // Column events are recorded at issue time, so the turnarounds fold
        // the data-phase latencies in.
        set(&mut rank, Act, Act, t.t_rrd_s_ps, Some(TimingRule::TrrdS));
        set(
            &mut rank,
            Wr,
            Rd,
            t.t_cwl_ps + t.t_burst_ps + t.t_wtr_ps,
            Some(TimingRule::Twtr),
        );
        // Read→write: the bus must drain the read burst. Scheduling-only —
        // no JEDEC rule names it, so the checker never reports it.
        set(&mut rank, Rd, Wr, t.t_cl_ps + t.t_burst_ps, None);

        Self {
            channel,
            rank,
            group,
            bank,
            same_row,
            t_faw_ps: t.t_faw_ps,
            wr_event_offset_ps: t.t_cwl_ps + t.t_burst_ps,
            rfm_pre_offset_ps: t.t_rfm_ps.saturating_sub(t.t_rp_ps),
            rrd_rolled_ok: t.t_rrd_l_ps >= t.t_rrd_s_ps,
        }
    }

    /// The entry for `(prev, next)` at `scope`, if the scope constrains the
    /// pair.
    #[must_use]
    #[inline]
    // Table lookups sit on the per-command rule walk.
    pub fn entry(&self, scope: Scope, prev: CmdClass, next: CmdClass) -> Option<MinDistance> {
        self.matrix(scope)[prev as usize][next as usize]
    }

    /// The minimum distance for `(prev, next)` at `scope`; 0 when the pair
    /// is unconstrained at that scope.
    #[must_use]
    #[inline]
    pub fn dist_ps(&self, scope: Scope, prev: CmdClass, next: CmdClass) -> u64 {
        self.matrix(scope)[prev as usize][next as usize].map_or(0, |d| d.dist_ps)
    }

    #[inline]
    fn matrix(&self, scope: Scope) -> &Matrix {
        match scope {
            Scope::Channel => &self.channel,
            Scope::Rank => &self.rank,
            Scope::BankGroup => &self.group,
            Scope::Bank => &self.bank,
            Scope::SameRow => &self.same_row,
        }
    }

    /// The largest distance any entry (or the tFAW window, or an
    /// event-recording offset) can project into the future. An event older
    /// than `now - max_distance_ps()` can never constrain any later command,
    /// which is what makes the model checker's delta-normalized state
    /// canonicalization finite.
    #[must_use]
    pub fn max_distance_ps(&self) -> u64 {
        let mut max = self
            .t_faw_ps
            .max(self.wr_event_offset_ps)
            .max(self.rfm_pre_offset_ps);
        for m in [
            &self.channel,
            &self.rank,
            &self.group,
            &self.bank,
            &self.same_row,
        ] {
            for row in m {
                for e in row.iter().flatten() {
                    max = max.max(e.dist_ps);
                }
            }
        }
        max
    }
}

/// Model-checker hooks: enumerate and perturb individual matrix entries.
/// Compiled for tests and the `oracle` feature only — production code never
/// mutates a built table.
#[cfg(any(test, feature = "oracle"))]
impl TimingTable {
    /// Every populated `(scope, prev, next, entry)` in a stable order.
    #[must_use]
    pub fn entries(&self) -> Vec<(Scope, CmdClass, CmdClass, MinDistance)> {
        let mut out = Vec::new();
        for scope in Scope::ALL {
            for prev in CmdClass::ALL {
                for next in CmdClass::ALL {
                    if let Some(e) = self.entry(scope, prev, next) {
                        out.push((scope, prev, next, e));
                    }
                }
            }
        }
        out
    }

    /// Overwrites (or clears) one matrix entry — the mutation harness's
    /// fault-injection hook.
    pub fn set_entry(
        &mut self,
        scope: Scope,
        prev: CmdClass,
        next: CmdClass,
        entry: Option<MinDistance>,
    ) {
        let m = match scope {
            Scope::Channel => &mut self.channel,
            Scope::Rank => &mut self.rank,
            Scope::BankGroup => &mut self.group,
            Scope::Bank => &mut self.bank,
            Scope::SameRow => &mut self.same_row,
        };
        m[prev as usize][next as usize] = entry;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use CmdClass::{Act, Pre, Rd, Ref, Rfm, Wr};

    #[test]
    fn ddr4_1333_distances_match_jedec_sums() {
        let t = TimingParams::ddr4_1333();
        let tt = TimingTable::new(&t);
        assert_eq!(tt.dist_ps(Scope::Bank, Act, Rd), 13_500);
        assert_eq!(tt.dist_ps(Scope::Bank, Act, Pre), 36_000);
        assert_eq!(tt.dist_ps(Scope::Bank, Pre, Act), 13_500);
        assert_eq!(tt.dist_ps(Scope::Bank, Rd, Pre), 7_500);
        // Write recovery is relative to the stored data-end event.
        assert_eq!(tt.dist_ps(Scope::Bank, Wr, Pre), 15_000);
        // Column spacings never dip below the burst occupancy.
        assert_eq!(tt.dist_ps(Scope::BankGroup, Rd, Rd), 7_500);
        assert_eq!(tt.dist_ps(Scope::Channel, Rd, Rd), 6_000);
        // Turnarounds fold the data-phase latencies in.
        assert_eq!(tt.dist_ps(Scope::Rank, Wr, Rd), 10_500 + 6_000 + 7_500);
        assert_eq!(tt.dist_ps(Scope::Rank, Rd, Wr), 13_500 + 6_000);
        assert_eq!(tt.dist_ps(Scope::Channel, Ref, Act), 350_000);
        assert_eq!(tt.dist_ps(Scope::Bank, Pre, Rfm), 13_500);
        assert_eq!(tt.t_faw_ps, 35_000);
        // Event-recording offsets: write data end and the RFM pre fold.
        assert_eq!(tt.wr_event_offset_ps, 10_500 + 6_000);
        assert_eq!(tt.rfm_pre_offset_ps, 60_000 - 13_500);
        assert!(tt.rrd_rolled_ok);
    }

    #[test]
    fn ddr4_2400_burst_floors_ccd_s() {
        // On the 2400 bin tCCD_S (3 332 ps) equals the burst; the table
        // floors every column spacing at the burst occupancy.
        let t = TimingParams::ddr4_2400();
        let tt = TimingTable::new(&t);
        assert_eq!(tt.dist_ps(Scope::Channel, Wr, Wr), t.t_burst_ps);
        assert_eq!(tt.dist_ps(Scope::BankGroup, Rd, Wr), t.t_ccd_l_ps);
    }

    #[test]
    fn read_to_write_drain_is_scheduling_only() {
        let tt = TimingTable::new(&TimingParams::ddr4_1333());
        let e = tt.entry(Scope::Rank, Rd, Wr).unwrap();
        assert_eq!(e.rule, None, "no JEDEC rule names the rd→wr drain");
        let e = tt.entry(Scope::Rank, Wr, Rd).unwrap();
        assert_eq!(e.rule, Some(TimingRule::Twtr));
    }

    #[test]
    fn unconstrained_pairs_report_zero() {
        let tt = TimingTable::new(&TimingParams::ddr4_1333());
        assert_eq!(tt.dist_ps(Scope::Bank, Rd, Act), 0);
        assert_eq!(tt.entry(Scope::SameRow, Act, Act), None);
        assert_eq!(tt.dist_ps(Scope::Channel, Act, Act), 0);
    }

    #[test]
    fn pathological_rrd_disables_rolled_lookup() {
        let mut t = TimingParams::ddr4_1333();
        t.t_rrd_l_ps = 1_000; // looser than tRRD_S: not a JEDEC bin
        assert!(!TimingTable::new(&t).rrd_rolled_ok);
    }
}
