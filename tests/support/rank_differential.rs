//! The rank tracker's differential harness: randomized command streams run
//! through the table-driven `RankTiming` and the frozen rule-based
//! `OracleRankTiming`, every answer of the one held to the other's. The
//! workspace's `tests/oracle_differential.rs` and the dram crate's unit
//! tests share it with `#[path]`; each includer brings the six types named
//! below into scope.

use super::{DramCommand, DramConfig, Geometry, OracleRankTiming, RankTiming, TimingParams};
use proptest::prelude::*;

/// Two ranks folded into the bank-group dimension, as
/// `Geometry::per_channel` does for the sharded memory system: 2 ranks ×
/// 4 groups × 4 banks → 8 folded groups, 32 banks.
pub fn folded_two_rank_geometry() -> Geometry {
    let g = Geometry {
        ranks: 2,
        ..Geometry::default()
    };
    let folded = g.per_channel();
    assert_eq!(folded.banks(), 2 * Geometry::default().banks());
    folded
}

/// The geometries the workspace runs: 0 the default 4 × 4 rank, 1 the
/// 1-group × 2-bank test rank with its degenerate groups, 2 the model
/// checker's 2 × 2, 3 two ranks folded into eight groups.
pub fn geometry(i: u8) -> Geometry {
    match i {
        0 => Geometry::default(),
        1 => DramConfig::small_for_tests().geometry,
        2 => Geometry::model_small(),
        _ => folded_two_rank_geometry(),
    }
}

/// The timing bins: 0 `ddr4_1333`, 1 `ddr4_2400`, 2 `ddr4_1333` with
/// tRRD_L < tRRD_S. No JEDEC bin has that, and it is the only way into
/// `admission`'s per-group ACT-spacing arm.
pub fn bin(i: u8) -> TimingParams {
    match i {
        0 => TimingParams::ddr4_1333(),
        1 => TimingParams::ddr4_2400(),
        _ => TimingParams {
            t_rrd_l_ps: 4_000,
            ..TimingParams::ddr4_1333()
        },
    }
}

/// One abstract command: (kind, bank, row, col).
pub type Op = (u8, u32, u32, u32);

fn decode(op: Op, banks: u32) -> DramCommand {
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
            data: [0x5A; 64],
        },
        5 => DramCommand::Refresh,
        _ => DramCommand::RefreshRow { bank, row },
    }
}

/// Every command kind on banks 0, 1 and the last one, plus an
/// out-of-range bank: the probes asked of the tracker after each `apply`.
fn probes(banks: u32) -> Vec<DramCommand> {
    let mut out = vec![
        DramCommand::PrechargeAll,
        DramCommand::Refresh,
        DramCommand::Activate {
            bank: banks,
            row: 0,
        },
    ];
    for bank in [0, 1, banks - 1] {
        for kind in [0, 1, 3, 4, 6] {
            out.push(decode((kind, bank, 1, 2), banks));
        }
    }
    out
}

/// Holds every answer the tracker gives about `cmd` at `at` to the
/// oracle's. At its earliest time a command breaks no spacing, so all the
/// oracle's `check` lists there is the bank state's verdict: the `admits`
/// half of `admission`.
fn assert_agree(table: &RankTiming, oracle: &OracleRankTiming, cmd: &DramCommand, at: u64) {
    let earliest = oracle.earliest_issue_ps(cmd);
    let admits = oracle.check(cmd, at.max(earliest)).is_empty();
    assert_eq!(
        table.admission(cmd),
        (earliest, admits),
        "admission of {cmd} at {at}"
    );
    assert_eq!(
        table.is_legal(cmd, at),
        admits && at >= earliest,
        "is_legal {cmd} at {at}"
    );
    assert_eq!(
        table.check(cmd, at),
        oracle.check(cmd, at),
        "violations diverged for {cmd} at {at}"
    );
}

/// Runs `ops` (issued `dts` apart) through both trackers, holding every
/// answer to the oracle's before each command, and after it asking the
/// probes at `now`, one ps before their earliest time and at it. Raw mode
/// issues regardless of legality, as DRAM techniques do; scheduled mode
/// issues at the hot path's earliest time, the ready-cycle contract.
pub fn run_stream(
    geometry: Geometry,
    timing: TimingParams,
    ops: &[Op],
    dts: &[u64],
    issue_at_earliest: bool,
) {
    let banks = geometry.banks();
    let probes = probes(banks);
    let mut table = RankTiming::new(geometry.clone(), timing.clone());
    let mut oracle = OracleRankTiming::new(geometry, timing);
    let mut now = 0u64;
    for (op, dt) in ops.iter().zip(dts) {
        let cmd = decode(*op, banks);
        now += dt;
        let at = if issue_at_earliest {
            now.max(table.earliest_issue_ps(&cmd))
        } else {
            now
        };
        assert_agree(&table, &oracle, &cmd, at);
        table.apply(&cmd, at);
        oracle.apply(&cmd, at);
        now = at;
        for b in 0..banks {
            assert_eq!(table.open_row(b), oracle.open_row(b), "bank {b} state");
        }
        for p in &probes {
            let earliest = oracle.earliest_issue_ps(p);
            for at in [now, earliest.saturating_sub(1), earliest] {
                assert_agree(&table, &oracle, p, at);
            }
        }
    }
}

pub fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..10, 0u32..32, 0u32..64, 0u32..128)
}

/// Gaps straddling burst spacing, row-cycle times, the tRFC edge (350 000 ps
/// on the 1333 bin), and tREFI-scale jumps, so streams cross refresh windows
/// mid-flight.
pub fn dt_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..2_000,
        2_000u64..40_000,
        349_000u64..351_000,
        7_790_000u64..7_810_000,
    ]
}
