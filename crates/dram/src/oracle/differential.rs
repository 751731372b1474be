//! The crate's own entry points to the rank tracker's differential. The
//! harness is the workspace's `tests/support/rank_differential.rs`, the one
//! `tests/oracle_differential.rs` runs on every geometry and bin; here it
//! runs on the default and the small test rank, and `bank`'s tests run the
//! rule walk through it.

use super::OracleRankTiming;
use crate::bank::RankTiming;
use crate::command::DramCommand;
use crate::config::{DramConfig, Geometry};
use crate::timing::TimingParams;
use proptest::collection::vec;
use proptest::prelude::*;

#[path = "../../../../tests/support/rank_differential.rs"]
pub(crate) mod harness;

use harness::{dt_strategy, op_strategy, run_stream};

proptest! {
    /// Raw streams (legal and illegal commands alike) on the default
    /// 4-group × 4-bank rank.
    #[test]
    fn raw_streams_agree(
        ops in vec(op_strategy(), 1..120),
        dts in vec(dt_strategy(), 1..120),
    ) {
        let n = ops.len().min(dts.len());
        run_stream(Geometry::default(), TimingParams::ddr4_1333(), &ops[..n], &dts[..n], false);
    }

    /// Scheduled streams: every command issued at the table's earliest
    /// legal time is judged identically by the oracle.
    #[test]
    fn scheduled_streams_agree(
        ops in vec(op_strategy(), 1..120),
        dts in vec(dt_strategy(), 1..120),
    ) {
        let n = ops.len().min(dts.len());
        run_stream(Geometry::default(), TimingParams::ddr4_1333(), &ops[..n], &dts[..n], true);
    }

    /// The reduced test geometry (1 group × 2 banks) exercises the
    /// degenerate-group paths.
    #[test]
    fn small_geometry_agrees(
        ops in vec(op_strategy(), 1..80),
        dts in vec(dt_strategy(), 1..80),
    ) {
        let n = ops.len().min(dts.len());
        let geometry = DramConfig::small_for_tests().geometry;
        run_stream(geometry, TimingParams::ddr4_1333(), &ops[..n], &dts[..n], false);
    }
}
