//! Exhaustive bounded protocol model checker for the EasyDRAM timing stack.
//!
//! The workspace's differential proptest (`tests/oracle_differential.rs`)
//! samples random command streams; this crate replaces sampling with
//! **exhaustive enumeration**: it explores *every* protocol-legal command
//! sequence up to a depth bound `k` on deliberately small geometries
//! ([`Geometry::model_small`], [`Geometry::model_rank_folded`]) and checks
//! four property classes at every reachable state:
//!
//! 1. **Equivalence** — the precomputed-table tracker
//!    ([`RankTiming`](easydram_dram::bank::RankTiming)) and the frozen
//!    rule-based oracle ([`OracleRankTiming`](easydram_dram::OracleRankTiming))
//!    agree on `earliest_issue_ps` exactly and return identical violation
//!    lists (order and multiplicity included) at several probe times per
//!    candidate command.
//! 2. **FSM safety** — an independent shadow state machine cross-checks the
//!    trackers: ACT only on a precharged bank, RD/WR only on an open row,
//!    PRE on an idle bank stays idle, no accepted schedule ever exceeds the
//!    four-activate window, and RFM/REF leave the documented postconditions
//!    behind (bank idle and busy for `t_rfm` / rank busy for `t_rfc`).
//! 3. **Liveness** — from every reachable state, every command's
//!    `earliest_issue_ps` is finite and bounded by
//!    `now + 2 ·`[`TimingTable::max_distance_ps`].
//! 4. **Refresh schedulability** — from every reachable state, a pending
//!    tREFI deadline is meetable: precharge-all at its earliest, refresh at
//!    its earliest, and the refresh still completes within `t_refi` of `now`,
//!    with and without the RFM mitigation command in the alphabet.
//!
//! What makes the enumeration finite is **delta-normalized canonical state
//! hashing** ([`RankTiming::canonical_key`](easydram_dram::bank::RankTiming::canonical_key)):
//! legality only depends on `now - event` differences, and any event older
//! than the largest table distance can never constrain again, so timestamps
//! are re-based against a sliding horizon floor and states that differ only
//! by a time translation (or by ancient history) collapse into one visited
//! entry. On a violation the failing command sequence is shrunk by greedy
//! delta debugging to a minimal prefix and printed as a replayable
//! `<command> @ <ps>` trace.
//!
//! The crate is dependency-free (other than `easydram-dram` itself, with the
//! oracle compiled in): a CI gate must not drift with an ecosystem the build
//! environment cannot reach.
//!
//! A self-validation mutation harness ([`mutate`]) perturbs every populated
//! [`TimingTable`] matrix entry (and the three event-recording scalars) by
//! ±1 tick and asserts the checker convicts each mutant twice over:
//! statically via [`TimingTable::verify_against`] and dynamically with a
//! minimized diverging trace.
//!
//! [`TimingTable`]: easydram_dram::TimingTable
//! [`TimingTable::max_distance_ps`]: easydram_dram::TimingTable::max_distance_ps
//! [`TimingTable::verify_against`]: easydram_dram::TimingTable::verify_against
//! [`Geometry::model_small`]: easydram_dram::Geometry::model_small
//! [`Geometry::model_rank_folded`]: easydram_dram::Geometry::model_rank_folded

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod explore;
pub mod mutate;
pub mod trace;

use easydram_dram::{Geometry, TimingParams};

pub use explore::{explore, explore_with_table, ExploreReport, ExploreStats};
pub use mutate::{
    all_mutants, corrupt_tfaw_window, run_mutation_harness, swap_bank_group_act_spacing, verdict,
    zero_rfm_fold, Mutant, MutantVerdict,
};
pub use trace::{format_trace, Step};

/// The four property classes the explorer checks at every reachable state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Property {
    /// Table tracker and rule oracle disagree on `earliest_issue_ps`, on a
    /// violation list at a probe time, or `is_legal` contradicted `check`.
    Equivalence,
    /// A shadow-FSM invariant was broken: wrong open-row state, an accepted
    /// command in an incompatible bank state, a tFAW overrun, or a missing
    /// RFM/REF postcondition.
    FsmSafety,
    /// Some command's earliest legal time escaped the
    /// `now + 2·max_distance` bound (or overflowed).
    Liveness,
    /// A tREFI deadline could not be met from a reachable state.
    RefreshSchedulability,
}

impl Property {
    /// Stable display name used in reports and goldens.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Property::Equivalence => "equivalence",
            Property::FsmSafety => "fsm-safety",
            Property::Liveness => "liveness",
            Property::RefreshSchedulability => "refresh-schedulability",
        }
    }
}

impl std::fmt::Display for Property {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One property violation, carrying a minimized replayable counterexample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which property class failed.
    pub property: Property,
    /// Deterministic description of the failure (what diverged, where).
    pub detail: String,
    /// Minimal command prefix that reproduces the failure when replayed
    /// scheduled-at-earliest; the last step is the probe or the offending
    /// command itself.
    pub trace: Vec<Step>,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "[{}] {}", self.property, self.detail)?;
        writeln!(
            f,
            "  minimized counterexample ({} steps):",
            self.trace.len()
        )?;
        for s in &self.trace {
            writeln!(f, "    {s}")?;
        }
        Ok(())
    }
}

/// Configuration of one bounded exploration run.
#[derive(Debug, Clone)]
pub struct ModelConfig {
    /// Geometry under test (use the mini-geometries; the state space of a
    /// full part is far beyond exhaustive reach).
    pub geometry: Geometry,
    /// Timing bin the table and the oracle are built from.
    pub timing: TimingParams,
    /// Depth bound `k`: maximum number of issued commands per sequence.
    pub depth: usize,
    /// How many distinct rows per bank ACT commands in the alphabet may
    /// open. Row identity never affects timing, so 1 loses no timing
    /// coverage; 2 additionally exercises row-tracking state.
    pub act_rows: u32,
    /// Whether the RFM mitigation command is in the alphabet ("with
    /// mitigation" in the refresh-schedulability property).
    pub with_rfm: bool,
    /// Also branch on issuing each command one clock later than its
    /// earliest legal time. Enriches the reachable relative-timing states;
    /// later-than-earliest issue is always still protocol-legal.
    pub jitter: bool,
    /// Stop at the first violation (used by the mutation harness).
    pub fail_fast: bool,
    /// Cap on distinct recorded violations per run.
    pub max_violations: usize,
}

impl ModelConfig {
    /// The primary mini-geometry: 1 channel × 1 rank × 2 bank groups ×
    /// 2 banks/group × 4 rows.
    #[must_use]
    pub fn small(depth: usize) -> Self {
        Self {
            geometry: Geometry::model_small(),
            timing: TimingParams::ddr4_1333(),
            depth,
            act_rows: 2,
            with_rfm: true,
            jitter: true,
            fail_fast: false,
            max_violations: 5,
        }
    }

    /// The rank-folded variant: 2 ranks folded into 4 single-bank groups,
    /// putting every cross-bank constraint at the relaxed cross-group scope.
    #[must_use]
    pub fn rank_folded(depth: usize) -> Self {
        Self {
            geometry: Geometry::model_rank_folded(),
            ..Self::small(depth)
        }
    }
}
