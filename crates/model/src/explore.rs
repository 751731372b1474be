//! Bounded exhaustive exploration with delta-normalized state dedup.
//!
//! The explorer walks every protocol-legal command sequence up to the depth
//! bound: from each state, every alphabet command is scheduled at its
//! earliest legal time (`max(now, earliest_issue_ps)`, plus an optional
//! one-clock jitter variant) and followed only if the enumerating checker
//! accepts it there. Each *first-visited* canonical state gets the full
//! property sweep (equivalence probes, liveness bound, refresh
//! schedulability); every *edge* gets the cheap shadow-FSM cross-checks.
//!
//! Dedup keys on the table tracker's
//! [`canonical_key`](easydram_dram::bank::RankTiming::canonical_key): two
//! states with equal fingerprints answer every future legality question
//! identically, so re-expanding the second one can only rediscover known
//! territory. Scheduling is table-driven, so the oracle state reached through
//! a merged path is related to the representative's by the same time
//! translation; a divergence reachable only through the merged path would be
//! a table-indistinguishable divergence, which the representative's probe
//! sweep exposes. (Raw `earliest` values strictly below `now` can differ
//! between merged histories, but scheduling clamps to `max(now, earliest)`,
//! so those differences are behaviorally unobservable — see docs/API.md.)

use std::collections::HashSet;

use easydram_dram::oracle::OracleRankTiming;
use easydram_dram::{bank::RankTiming, DramCommand, TimingTable};

use crate::trace::Step;
use crate::{ModelConfig, Property, Violation};

/// Aggregate counters of one exploration run.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExploreStats {
    /// Distinct canonical states visited (after dedup), root included.
    pub states: u64,
    /// Accepted transitions taken (including ones landing on known states).
    pub edges: u64,
    /// Accepted transitions that landed on an already-visited state.
    pub dedup_hits: u64,
    /// Deepest sequence length expanded.
    pub deepest: usize,
    /// Individual `earliest`/`check` probe comparisons performed.
    pub probes: u64,
}

/// Result of one exploration run.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// Counters.
    pub stats: ExploreStats,
    /// Distinct violations found, each with a minimized counterexample.
    pub violations: Vec<Violation>,
}

/// Explores the configured state space with the table built straight from
/// `cfg.timing` (the well-formed case; any violation is a real bug).
#[must_use]
pub fn explore(cfg: &ModelConfig) -> ExploreReport {
    explore_with_table(cfg, TimingTable::new(&cfg.timing))
}

/// Explores with a caller-supplied — possibly deliberately corrupted —
/// distance table. The oracle is always built from the pristine
/// `cfg.timing`, so a corrupted table shows up as an equivalence (or
/// safety/liveness/schedulability) violation with a concrete trace.
#[must_use]
pub fn explore_with_table(cfg: &ModelConfig, table: TimingTable) -> ExploreReport {
    let mut ex = Explorer {
        cfg,
        table,
        alphabet: alphabet(cfg),
        horizon: 0,
        visited: HashSet::new(),
        stats: ExploreStats::default(),
        violations: Vec::new(),
    };
    ex.horizon = ex.table.max_distance_ps();
    let root = ex.root();
    let mut key = Vec::new();
    ex.visited.insert(ex.fingerprint(&root, &mut key));
    ex.stats.states = 1;
    let mut elems = Vec::new();
    ex.dfs(&root, &mut elems, 0);
    ExploreReport {
        stats: ex.stats,
        violations: ex.violations,
    }
}

/// The command alphabet for one geometry. Column and row identity never
/// affect timing, so a single column (and `act_rows` rows) covers every
/// timing behaviour; what matters is which *bank* and which *class*.
fn alphabet(cfg: &ModelConfig) -> Vec<DramCommand> {
    let banks = cfg.geometry.banks();
    let rows = cfg.act_rows.max(1).min(cfg.geometry.rows_per_bank);
    let mut a = Vec::new();
    for bank in 0..banks {
        for row in 0..rows {
            a.push(DramCommand::Activate { bank, row });
        }
    }
    for bank in 0..banks {
        a.push(DramCommand::Precharge { bank });
    }
    a.push(DramCommand::PrechargeAll);
    for bank in 0..banks {
        a.push(DramCommand::Read { bank, col: 0 });
    }
    for bank in 0..banks {
        a.push(DramCommand::Write {
            bank,
            col: 0,
            data: [0xA5; 64],
        });
    }
    a.push(DramCommand::Refresh);
    if cfg.with_rfm {
        for bank in 0..banks {
            a.push(DramCommand::RefreshRow { bank, row: 0 });
        }
    }
    a
}

/// Independent shadow state machine the trackers are cross-checked against.
/// Deliberately naive: open-row bookkeeping plus a plain list of accepted
/// ACT times for the four-activate window.
#[derive(Debug, Clone)]
struct Shadow {
    open: Vec<Option<u32>>,
    acts: Vec<u64>,
}

/// One node of the search: both trackers, the shadow, and absolute time.
#[derive(Debug, Clone)]
struct Node {
    table: RankTiming,
    oracle: OracleRankTiming,
    shadow: Shadow,
    now: u64,
}

/// A trace element as stored during search: the command plus how many extra
/// clocks past its earliest legal time it was delayed (0 or 1). Storing the
/// delay rather than the absolute time keeps traces replayable after the
/// minimizer removes elements and every downstream time shifts.
type Elem = (DramCommand, u64);

enum Stepped {
    /// The enumerating checker rejected the command at its scheduled time
    /// (a state-gating rule such as bank-open); not a legal transition.
    Rejected,
    /// The transition itself broke a shadow-FSM invariant.
    Edge(Property, String),
    /// Accepted; the child node and the resolved step.
    Ok(Box<Node>, Step),
}

struct Explorer<'a> {
    cfg: &'a ModelConfig,
    table: TimingTable,
    alphabet: Vec<DramCommand>,
    horizon: u64,
    visited: HashSet<u128>,
    stats: ExploreStats,
    violations: Vec<Violation>,
}

impl Explorer<'_> {
    fn root(&self) -> Node {
        let banks = self.cfg.geometry.banks() as usize;
        Node {
            table: RankTiming::with_table(self.cfg.geometry.clone(), self.table.clone()),
            oracle: OracleRankTiming::new(self.cfg.geometry.clone(), self.cfg.timing.clone()),
            shadow: Shadow {
                open: vec![None; banks],
                acts: Vec::new(),
            },
            now: 0,
        }
    }

    fn stop(&self) -> bool {
        (self.cfg.fail_fast && !self.violations.is_empty())
            || self.violations.len() >= self.cfg.max_violations
    }

    /// Double-FNV fingerprint of a node's canonical key. Only set
    /// *membership* is ever queried, so `HashSet` iteration order cannot
    /// leak into results and the run stays deterministic.
    fn fingerprint(&self, node: &Node, scratch: &mut Vec<u64>) -> u128 {
        scratch.clear();
        node.table.canonical_key(node.now, scratch);
        let mut a: u64 = 0xcbf2_9ce4_8422_2325;
        let mut b: u64 = 0x9e37_79b9_7f4a_7c15;
        for &w in scratch.iter() {
            for byte in w.to_le_bytes() {
                a = (a ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
                b = (b ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_0193);
            }
        }
        (u128::from(a) << 64) | u128::from(b)
    }

    fn dfs(&mut self, node: &Node, elems: &mut Vec<Elem>, depth: usize) {
        if self.stop() {
            return;
        }
        self.stats.deepest = self.stats.deepest.max(depth);
        if self.sweep(node).is_some() {
            self.record(elems.clone());
            if self.stop() {
                return;
            }
        }
        if depth == self.cfg.depth {
            return;
        }
        let delays: &[u64] = if self.cfg.jitter { &[0, 1] } else { &[0] };
        let mut key = Vec::new();
        let mut i = 0;
        while i < self.alphabet.len() {
            let cmd = self.alphabet[i];
            i += 1;
            for &delay in delays {
                match self.try_step(node, &cmd, delay) {
                    Stepped::Rejected => {
                        // Rejection is time-independent state gating; the
                        // delayed variant is rejected for the same reason.
                        break;
                    }
                    Stepped::Edge(..) => {
                        elems.push((cmd, delay));
                        self.record(elems.clone());
                        elems.pop();
                        if self.stop() {
                            return;
                        }
                    }
                    Stepped::Ok(child, _) => {
                        self.stats.edges += 1;
                        let fp = self.fingerprint(&child, &mut key);
                        if self.visited.insert(fp) {
                            self.stats.states += 1;
                            elems.push((cmd, delay));
                            self.dfs(&child, elems, depth + 1);
                            elems.pop();
                            if self.stop() {
                                return;
                            }
                        } else {
                            self.stats.dedup_hits += 1;
                        }
                    }
                }
            }
        }
    }

    /// Attempts one transition: schedule `cmd` at its earliest legal time
    /// plus `delay` clocks, require the enumerating checker to accept it
    /// there, apply it to both trackers and the shadow, and run the
    /// per-edge FSM invariants.
    fn try_step(&self, node: &Node, cmd: &DramCommand, delay: u64) -> Stepped {
        let at = node.now.max(node.table.earliest_issue_ps(cmd)) + delay * self.cfg.timing.t_ck_ps;
        if !node.table.check(cmd, at).is_empty() {
            return Stepped::Rejected;
        }
        // Pre-apply shadow gating: an accepted command must be compatible
        // with the naive FSM's view of bank state.
        let fail = |d: String| Stepped::Edge(Property::FsmSafety, d);
        match *cmd {
            DramCommand::Activate { bank, .. } => {
                if node.shadow.open[bank as usize].is_some() {
                    return fail(format!("accepted {cmd} on an open bank"));
                }
                let t_faw = self.cfg.timing.t_faw_ps;
                let in_window = node.shadow.acts.iter().filter(|&&t| t + t_faw > at).count();
                if in_window >= 4 {
                    return fail(format!(
                        "accepted {cmd} @ {at} is the {}th ACT inside one tFAW window",
                        in_window + 1
                    ));
                }
            }
            DramCommand::Read { bank, .. } | DramCommand::Write { bank, .. } => {
                if node.shadow.open[bank as usize].is_none() {
                    return fail(format!("accepted {cmd} on a closed bank"));
                }
            }
            DramCommand::Refresh => {
                if node.shadow.open.iter().any(Option::is_some) {
                    return fail("accepted REF with open rows".to_owned());
                }
            }
            DramCommand::RefreshRow { bank, .. } => {
                if node.shadow.open[bank as usize].is_some() {
                    return fail(format!("accepted {cmd} on an open bank"));
                }
            }
            DramCommand::Precharge { .. } | DramCommand::PrechargeAll => {}
        }
        let mut child = node.clone();
        child.table.apply(cmd, at);
        child.oracle.apply(cmd, at);
        child.now = at;
        match *cmd {
            DramCommand::Activate { bank, row } => {
                child.shadow.open[bank as usize] = Some(row);
                child.shadow.acts.push(at);
                let t_faw = self.cfg.timing.t_faw_ps;
                child.shadow.acts.retain(|&t| t + t_faw > at);
            }
            DramCommand::Precharge { bank } | DramCommand::RefreshRow { bank, .. } => {
                child.shadow.open[bank as usize] = None;
            }
            DramCommand::PrechargeAll => child.shadow.open.fill(None),
            DramCommand::Read { .. } | DramCommand::Write { .. } | DramCommand::Refresh => {}
        }
        // Post-apply invariants.
        for b in 0..self.cfg.geometry.banks() {
            let (s, t, o) = (
                child.shadow.open[b as usize],
                child.table.open_row(b),
                child.oracle.open_row(b),
            );
            if s != t || s != o {
                return fail(format!(
                    "open-row mismatch on bank {b} after {cmd} @ {at}: shadow {s:?}, table {t:?}, oracle {o:?}"
                ));
            }
        }
        match *cmd {
            DramCommand::RefreshRow { bank, .. } => {
                // Postcondition: the bank is busy for t_rfm — the next ACT
                // on it cannot be earlier than `at + t_rfm`.
                let probe = DramCommand::Activate { bank, row: 0 };
                let e = child.table.earliest_issue_ps(&probe);
                if e < at + self.cfg.timing.t_rfm_ps {
                    return fail(format!(
                        "{cmd} @ {at} left bank {bank} re-activatable at {e}, before at+t_rfm = {}",
                        at + self.cfg.timing.t_rfm_ps
                    ));
                }
            }
            DramCommand::Refresh => {
                // Postcondition: the whole rank is busy for t_rfc.
                for probe in &self.alphabet {
                    let e = child.table.earliest_issue_ps(probe);
                    if e < at + self.cfg.timing.t_rfc_ps {
                        return fail(format!(
                            "REF @ {at} left {probe} issuable at {e}, before at+t_rfc = {}",
                            at + self.cfg.timing.t_rfc_ps
                        ));
                    }
                }
            }
            _ => {}
        }
        Stepped::Ok(
            Box::new(child),
            Step {
                cmd: *cmd,
                at_ps: at,
            },
        )
    }

    /// Full property sweep at a first-visited state. Returns the first
    /// failure as `(property, detail, probe step)`.
    fn sweep(&mut self, node: &Node) -> Option<(Property, String, Step)> {
        let now = node.now;
        let mut i = 0;
        while i < self.alphabet.len() {
            let cmd = self.alphabet[i];
            i += 1;
            let et = node.table.earliest_issue_ps(&cmd);
            let eo = node.oracle.earliest_issue_ps(&cmd);
            self.stats.probes += 1;
            if et != eo {
                return Some((
                    Property::Equivalence,
                    format!("earliest_issue_ps diverged for {cmd}: table {et}, oracle {eo}"),
                    Step {
                        cmd,
                        at_ps: now.max(et),
                    },
                ));
            }
            // Liveness: the earliest legal time is bounded — no constraint
            // can project further than one recorded event offset plus one
            // table distance past `now`.
            if et > now.saturating_add(2 * self.horizon) {
                return Some((
                    Property::Liveness,
                    format!(
                        "earliest_issue_ps for {cmd} escaped the bound: {et} > now {now} + 2x{}",
                        self.horizon
                    ),
                    Step { cmd, at_ps: et },
                ));
            }
            let at = now.max(et);
            // The fused walk is the pair it replaced: the earliest time, and
            // the verdict of `is_legal` once that time has come.
            let fused = node.table.admission(&cmd);
            self.stats.probes += 1;
            if fused != (et, node.table.is_legal(&cmd, at)) {
                return Some((
                    Property::Equivalence,
                    format!(
                        "admission for {cmd} is {fused:?}, not (earliest {et}, is_legal @ {at})"
                    ),
                    Step { cmd, at_ps: at },
                ));
            }
            let mut probe_times = [now, at, 0];
            let mut n_probes = 2;
            if at > now {
                probe_times[2] = at - 1;
                n_probes = 3;
            }
            for &pt in &probe_times[..n_probes] {
                self.stats.probes += 1;
                let vt = node.table.check(&cmd, pt);
                let vo = node.oracle.check(&cmd, pt);
                if vt != vo {
                    return Some((
                        Property::Equivalence,
                        format!(
                            "violation list diverged for {cmd} @ {pt}: table {vt:?}, oracle {vo:?}"
                        ),
                        Step { cmd, at_ps: pt },
                    ));
                }
                // At its earliest time a command breaks no timing rule, so
                // whatever `check` still lists is the bank state's doing:
                // the executor runs `check` for an `Auto` command exactly
                // when the walk said the state does not admit it.
                if pt == at && fused.1 != vt.is_empty() {
                    return Some((
                        Property::Equivalence,
                        format!(
                            "admission says the state {} {cmd}, check @ {pt} lists {vt:?}",
                            if fused.1 { "admits" } else { "does not admit" }
                        ),
                        Step { cmd, at_ps: pt },
                    ));
                }
                if node.table.is_legal(&cmd, pt) && !vt.is_empty() {
                    return Some((
                        Property::Equivalence,
                        format!("is_legal accepted {cmd} @ {pt} but check flagged {vt:?}"),
                        Step { cmd, at_ps: pt },
                    ));
                }
            }
        }
        // Refresh schedulability: close everything at its earliest, refresh
        // at its earliest, and the refresh must still complete inside the
        // tREFI window that opened at `now`.
        let mut t = node.table.clone();
        let prea = DramCommand::PrechargeAll;
        let e_prea = now.max(t.earliest_issue_ps(&prea));
        let v = t.check(&prea, e_prea);
        if !v.is_empty() {
            return Some((
                Property::RefreshSchedulability,
                format!("PREA rejected at its own earliest time {e_prea}: {v:?}"),
                Step {
                    cmd: prea,
                    at_ps: e_prea,
                },
            ));
        }
        t.apply(&prea, e_prea);
        let refresh = DramCommand::Refresh;
        let e_ref = e_prea.max(t.earliest_issue_ps(&refresh));
        let v = t.check(&refresh, e_ref);
        if !v.is_empty() {
            return Some((
                Property::RefreshSchedulability,
                format!("REF rejected at its own earliest time {e_ref} after PREA: {v:?}"),
                Step {
                    cmd: refresh,
                    at_ps: e_ref,
                },
            ));
        }
        let deadline = now + self.cfg.timing.t_refi_ps;
        let done = e_ref + self.cfg.timing.t_rfc_ps;
        if done > deadline {
            return Some((
                Property::RefreshSchedulability,
                format!(
                    "refresh completes at {done}, past the tREFI deadline {deadline} (PREA @ {e_prea}, REF @ {e_ref})"
                ),
                Step { cmd: refresh, at_ps: e_ref },
            ));
        }
        None
    }

    /// Replays a trace from scratch, scheduled-at-earliest, re-running every
    /// edge invariant and the final sweep. `Some` means the failure
    /// reproduces; the returned violation carries the resolved steps.
    fn evaluate(&mut self, elems: &[Elem]) -> Option<Violation> {
        let mut node = self.root();
        let mut steps = Vec::new();
        for &(cmd, delay) in elems {
            match self.try_step(&node, &cmd, delay) {
                Stepped::Rejected => return None,
                Stepped::Edge(property, detail) => {
                    let at = node.now.max(node.table.earliest_issue_ps(&cmd))
                        + delay * self.cfg.timing.t_ck_ps;
                    steps.push(Step { cmd, at_ps: at });
                    return Some(Violation {
                        property,
                        detail,
                        trace: steps,
                    });
                }
                Stepped::Ok(child, step) => {
                    steps.push(step);
                    node = *child;
                }
            }
        }
        self.sweep(&node).map(|(property, detail, probe)| {
            steps.push(probe);
            Violation {
                property,
                detail,
                trace: steps,
            }
        })
    }

    /// Greedy delta debugging: repeatedly drop any element whose removal
    /// keeps the failure reproducible, to a fixpoint.
    fn minimize(&mut self, mut elems: Vec<Elem>) -> Vec<Elem> {
        loop {
            let mut removed = false;
            let mut i = 0;
            while i < elems.len() {
                let mut candidate = elems.clone();
                candidate.remove(i);
                if self.evaluate(&candidate).is_some() {
                    elems = candidate;
                    removed = true;
                } else {
                    i += 1;
                }
            }
            if !removed {
                return elems;
            }
        }
    }

    fn record(&mut self, elems: Vec<Elem>) {
        let minimal = self.minimize(elems);
        let Some(v) = self.evaluate(&minimal) else {
            // Minimization preserves reproducibility by construction.
            return;
        };
        if !self.violations.iter().any(|x| x.detail == v.detail) {
            self.violations.push(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(depth: usize) -> ModelConfig {
        let mut cfg = ModelConfig::small(depth);
        cfg.act_rows = 1;
        cfg.jitter = false;
        cfg
    }

    #[test]
    fn clean_table_has_no_violations_small() {
        let report = explore(&quick(3));
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.stats.states > 50, "{:?}", report.stats);
        assert_eq!(report.stats.deepest, 3);
    }

    #[test]
    fn clean_table_has_no_violations_rank_folded() {
        let mut cfg = ModelConfig::rank_folded(3);
        cfg.act_rows = 1;
        cfg.jitter = false;
        let report = explore(&cfg);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    #[test]
    fn jitter_and_rows_enrich_the_state_space() {
        let base = explore(&quick(3)).stats.states;
        let jittered = explore(&ModelConfig::small(3)).stats.states;
        assert!(jittered > base, "{jittered} vs {base}");
    }

    #[test]
    fn alphabet_covers_every_class_and_bank() {
        let cfg = ModelConfig::small(1);
        let a = alphabet(&cfg);
        // 4 banks x 2 rows ACT + 4 PRE + PREA + 4 RD + 4 WR + REF + 4 RFM.
        assert_eq!(a.len(), 26);
        let mut no_rfm = cfg.clone();
        no_rfm.with_rfm = false;
        assert_eq!(alphabet(&no_rfm).len(), 22);
    }

    #[test]
    fn corrupted_entry_yields_minimized_replayable_trace() {
        use easydram_dram::{CmdClass, MinDistance, Scope, TimingRule};
        let cfg = ModelConfig {
            fail_fast: true,
            ..quick(3)
        };
        let mut table = TimingTable::new(&cfg.timing);
        // Shorten tRCD by one tick: the table now admits a READ one ps
        // before the oracle (and JEDEC) allow it.
        let d = cfg.timing.t_rcd_ps - 1;
        for next in [CmdClass::Rd, CmdClass::Wr] {
            table.set_entry(
                Scope::Bank,
                CmdClass::Act,
                next,
                Some(MinDistance {
                    dist_ps: d,
                    rule: Some(TimingRule::Trcd),
                }),
            );
        }
        let report = explore_with_table(&cfg, table);
        assert!(!report.violations.is_empty());
        let v = &report.violations[0];
        assert_eq!(v.property, Property::Equivalence);
        // Minimal: one ACT to arm the constraint, plus the probe.
        assert!(v.trace.len() <= 2, "{v}");
        assert!(v.detail.contains("table"), "{v}");
    }
}
