//! The differential for the rank tracker: the table-driven `RankTiming`
//! must give every answer the frozen rule-based `OracleRankTiming`
//! (compiled via the dram crate's `oracle` feature) gives, on randomized
//! command streams over every geometry the workspace runs — the default
//! rank, the small test rank, the model checker's 2 × 2 and the
//! *rank-folded* geometry of the channel-sharded memory system — and every
//! timing bin.

use easydram_dram::bank::RankTiming;
use easydram_dram::{DramCommand, DramConfig, Geometry, OracleRankTiming, TimingParams};
use proptest::collection::vec;
use proptest::prelude::*;

#[path = "support/rank_differential.rs"]
mod rank_differential;

use rank_differential::{
    bin, dt_strategy, folded_two_rank_geometry, geometry, op_strategy, run_stream,
};

proptest! {
    /// Raw streams over the folded two-rank geometry: commands issued
    /// whether legal or not, both trackers must agree on everything.
    #[test]
    fn folded_rank_raw_streams_agree(
        ops in vec(op_strategy(), 1..150),
        dts in vec(dt_strategy(), 1..150),
    ) {
        let n = ops.len().min(dts.len());
        run_stream(
            folded_two_rank_geometry(),
            TimingParams::ddr4_1333(),
            &ops[..n],
            &dts[..n],
            false,
        );
    }

    /// Scheduled streams: issuing at the hot path's earliest legal time
    /// must produce identical ready-cycles under the oracle.
    #[test]
    fn folded_rank_scheduled_streams_agree(
        ops in vec(op_strategy(), 1..150),
        dts in vec(dt_strategy(), 1..150),
    ) {
        let n = ops.len().min(dts.len());
        run_stream(
            folded_two_rank_geometry(),
            TimingParams::ddr4_1333(),
            &ops[..n],
            &dts[..n],
            true,
        );
    }

    /// The faster 2400 bin has a different tCCD_S/tBURST relationship
    /// (burst-floored); agreement must hold there too.
    #[test]
    fn ddr4_2400_streams_agree(
        ops in vec(op_strategy(), 1..100),
        dts in vec(dt_strategy(), 1..100),
    ) {
        let n = ops.len().min(dts.len());
        run_stream(
            folded_two_rank_geometry(),
            TimingParams::ddr4_2400(),
            &ops[..n],
            &dts[..n],
            false,
        );
    }

    /// Raw and earliest-scheduled streams on every geometry and bin of
    /// `rank_differential`. On the third bin the table must not take the
    /// rolled-up tRRD pair, so `admission`'s per-group arm is reached.
    #[test]
    fn every_geometry_and_bin_agrees(
        geometry_index in 0u8..4,
        bin_index in 0u8..3,
        scheduled in 0u8..2,
        ops in vec(op_strategy(), 1..100),
        dts in vec(dt_strategy(), 1..100),
    ) {
        let (geometry, timing) = (geometry(geometry_index), bin(bin_index));
        let rolled = RankTiming::new(geometry.clone(), timing.clone()).table().rrd_rolled_ok;
        prop_assert_eq!(rolled, bin_index < 2);
        let n = ops.len().min(dts.len());
        run_stream(geometry, timing, &ops[..n], &dts[..n], scheduled == 1);
    }
}

/// A refresh issued exactly at a tREFI boundary followed by commands landing
/// on the tRFC edge — one ps early, exactly on, one ps late.
#[test]
fn trfc_edge_is_identical() {
    let t = TimingParams::ddr4_1333();
    let geometry = folded_two_rank_geometry();
    let mut table = RankTiming::new(geometry.clone(), t.clone());
    let mut oracle = OracleRankTiming::new(geometry, t.clone());
    table.apply(&DramCommand::Refresh, t.t_refi_ps);
    oracle.apply(&DramCommand::Refresh, t.t_refi_ps);
    let act = DramCommand::Activate { bank: 17, row: 3 };
    for at in [
        t.t_refi_ps + t.t_rfc_ps - 1,
        t.t_refi_ps + t.t_rfc_ps,
        t.t_refi_ps + t.t_rfc_ps + 1,
    ] {
        assert_eq!(table.check(&act, at), oracle.check(&act, at));
    }
    assert_eq!(
        table.earliest_issue_ps(&act),
        oracle.earliest_issue_ps(&act)
    );
    assert_eq!(table.earliest_issue_ps(&act), t.t_refi_ps + t.t_rfc_ps);
}

/// RefreshRow on a folded-rank bank index holds exactly that bank busy for
/// tRFM in both trackers; a sibling bank in the other folded rank is free.
#[test]
fn refresh_row_folded_rank_is_identical() {
    let t = TimingParams::ddr4_1333();
    let geometry = folded_two_rank_geometry();
    let mut table = RankTiming::new(geometry.clone(), t.clone());
    let mut oracle = OracleRankTiming::new(geometry, t.clone());
    let target = 20; // second folded rank
    table.apply(
        &DramCommand::RefreshRow {
            bank: target,
            row: 9,
        },
        0,
    );
    oracle.apply(
        &DramCommand::RefreshRow {
            bank: target,
            row: 9,
        },
        0,
    );
    let blocked = DramCommand::Activate {
        bank: target,
        row: 1,
    };
    let free = DramCommand::Activate { bank: 2, row: 1 };
    assert_eq!(
        table.earliest_issue_ps(&blocked),
        oracle.earliest_issue_ps(&blocked)
    );
    assert_eq!(table.earliest_issue_ps(&blocked), t.t_rfm_ps);
    assert_eq!(table.earliest_issue_ps(&free), 0);
    assert_eq!(oracle.earliest_issue_ps(&free), 0);
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
