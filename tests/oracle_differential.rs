//! Differential timing-oracle tests at the workspace level: the
//! table-driven rank tracker must agree with the frozen rule-based checker
//! (compiled via the dram crate's `oracle` feature) on randomized command
//! streams over *rank-folded* geometries — the multi-rank configurations the
//! channel-sharded memory system actually runs.

use easydram_dram::bank::RankTiming;
use easydram_dram::{DramCommand, Geometry, OracleRankTiming, TimingParams};
use proptest::collection::vec;
use proptest::prelude::*;

/// Two ranks folded into the bank-group dimension, as
/// `Geometry::per_channel` does for the sharded memory system: 2 ranks ×
/// 4 groups × 4 banks → 8 folded groups, 32 banks.
fn folded_two_rank_geometry() -> Geometry {
    let g = Geometry {
        ranks: 2,
        ..Geometry::default()
    };
    let folded = g.per_channel();
    assert_eq!(folded.banks(), 2 * Geometry::default().banks());
    folded
}

type Op = (u8, u32, u32, u32);

fn decode(op: Op, banks: u32) -> DramCommand {
    let (kind, bank, row, col) = op;
    let bank = bank % banks;
    match kind {
        0 | 7 => DramCommand::Activate { bank, row },
        1 => DramCommand::Precharge { bank },
        2 => DramCommand::PrechargeAll,
        3 | 8 => DramCommand::Read { bank, col },
        4 | 9 => DramCommand::Write {
            bank,
            col,
            data: [0x5A; 64],
        },
        5 => DramCommand::Refresh,
        _ => DramCommand::RefreshRow { bank, row },
    }
}

fn run_stream(ops: &[Op], dts: &[u64], timing: &TimingParams, issue_at_earliest: bool) {
    let geometry = folded_two_rank_geometry();
    let banks = geometry.banks();
    let mut table = RankTiming::new(geometry.clone(), timing.clone());
    let mut oracle = OracleRankTiming::new(geometry, timing.clone());
    let mut now = 0u64;
    for (op, dt) in ops.iter().zip(dts) {
        let cmd = decode(*op, banks);
        now += dt;
        let at = if issue_at_earliest {
            now.max(table.earliest_issue_ps(&cmd))
        } else {
            now
        };
        assert_eq!(
            table.earliest_issue_ps(&cmd),
            oracle.earliest_issue_ps(&cmd),
            "earliest diverged for {cmd} at {at}"
        );
        assert_eq!(
            table.check(&cmd, at),
            oracle.check(&cmd, at),
            "violations diverged for {cmd} at {at}"
        );
        // `is_legal` is the stricter test: it also honours the two spacings
        // no rule names (the read→write drain, tRAS on an idle bank).
        if table.is_legal(&cmd, at) {
            assert_eq!(oracle.check(&cmd, at), [], "is_legal {cmd} at {at}");
        }
        // At its earliest time a command breaks no timing rule, so all that
        // `check` can list there is the bank state's doing.
        let (earliest, admits) = table.admission(&cmd);
        assert_eq!(
            admits,
            oracle.check(&cmd, at.max(earliest)).is_empty(),
            "admission's state verdict for {cmd} at {at}"
        );
        table.apply(&cmd, at);
        oracle.apply(&cmd, at);
        now = at;
        for b in 0..banks {
            assert_eq!(table.open_row(b), oracle.open_row(b), "bank {b} state");
        }
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..10, 0u32..32, 0u32..64, 0u32..128)
}

/// Gaps straddling burst spacing, row-cycle times, the tRFC edge, and
/// tREFI-scale jumps, so streams cross refresh windows mid-flight.
fn dt_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..2_000,
        2_000u64..40_000,
        349_000u64..351_000,
        7_790_000u64..7_810_000,
    ]
}

proptest! {
    /// Raw streams over the folded two-rank geometry: commands issued
    /// whether legal or not, both trackers must agree on everything.
    #[test]
    fn folded_rank_raw_streams_agree(
        ops in vec(op_strategy(), 1..150),
        dts in vec(dt_strategy(), 1..150),
    ) {
        let n = ops.len().min(dts.len());
        run_stream(&ops[..n], &dts[..n], &TimingParams::ddr4_1333(), false);
    }

    /// Scheduled streams: issuing at the hot path's earliest legal time
    /// must produce identical ready-cycles under the oracle.
    #[test]
    fn folded_rank_scheduled_streams_agree(
        ops in vec(op_strategy(), 1..150),
        dts in vec(dt_strategy(), 1..150),
    ) {
        let n = ops.len().min(dts.len());
        run_stream(&ops[..n], &dts[..n], &TimingParams::ddr4_1333(), true);
    }

    /// The faster 2400 bin has a different tCCD_S/tBURST relationship
    /// (burst-floored); agreement must hold there too.
    #[test]
    fn ddr4_2400_streams_agree(
        ops in vec(op_strategy(), 1..100),
        dts in vec(dt_strategy(), 1..100),
    ) {
        let n = ops.len().min(dts.len());
        run_stream(&ops[..n], &dts[..n], &TimingParams::ddr4_2400(), false);
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
