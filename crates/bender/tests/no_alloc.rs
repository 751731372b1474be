//! The steady-state request path — `Executor::run_into` down through
//! `DramDevice::issue_raw` — performs no heap allocation once the rows it
//! touches are materialised and its buffers have grown.
//!
//! This counts what the allocator is actually asked for, through every call.
//! Lives here, not under `crates/dram`, because `easydram-bender` already
//! depends on the device crate; `crates/core/tests/no_alloc.rs` counts the
//! same thing one layer up, at the tile.

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations;
use easydram_bender::{BenderProgram, BenderResult, Executor};
use easydram_dram::{DramCommand, DramConfig, DramDevice, LINE_BYTES};

#[test]
fn steady_state_cycles_do_not_allocate() {
    let mut cfg = DramConfig::small_for_tests();
    // Counters on, so the per-ACT disturbance bookkeeping is on the path.
    cfg.variation.disturb_enabled = true;
    let banks = cfg.geometry.banks();
    let mut dev = DramDevice::new(cfg);
    // One ACT / RD / WR / RD / PRE cycle per (bank, row): a row miss, a read
    // from the array, a write into the overlay, a read back out of it, and a
    // dirty precharge.
    let programs: Vec<BenderProgram> = (0..banks)
        .flat_map(|bank| (0..16).map(move |row| (bank, row * 3)))
        .map(|(bank, row)| {
            let col = row % 128;
            let data = [row as u8; LINE_BYTES];
            let mut p = BenderProgram::new();
            p.cmd_auto(DramCommand::Activate { bank, row }).unwrap();
            p.cmd_auto(DramCommand::Read { bank, col }).unwrap();
            p.cmd_auto(DramCommand::Write { bank, col, data }).unwrap();
            p.cmd_auto(DramCommand::Read { bank, col }).unwrap();
            p.cmd_auto(DramCommand::Precharge { bank }).unwrap();
            p
        })
        .collect();
    let exec = Executor::new();
    let mut result = BenderResult::default();
    // Warm-up sweep: materialises the rows, row-table pages and overlays,
    // and grows `result`'s buffers.
    for p in &programs {
        exec.run_into(&mut dev, p, 0, &mut result).unwrap();
    }
    let before = allocations();
    let mut cycles = 0u64;
    while cycles < 10_000 {
        for p in &programs {
            exec.run_into(&mut dev, p, 0, &mut result).unwrap();
            assert!(result.violations.is_empty());
            assert_eq!(result.reads[1][0], result.reads[0][0], "same data again");
            cycles += 1;
        }
    }
    let allocs = allocations() - before;
    assert_eq!(
        allocs, 0,
        "{allocs} allocations in {cycles} ACT/RD/WR/RD/PRE cycles"
    );
    assert_eq!(dev.stats().commands(), (programs.len() as u64 + cycles) * 5);
}

#[test]
fn a_violating_program_allocates_only_the_checkers_lists() {
    let mut dev = DramDevice::new(DramConfig::small_for_tests());
    // A reduced-tRCD read, an early PRE (tRAS and tRTP in one list), an
    // `Auto` RD the closed bank does not admit and an `Auto` ACT the open
    // bank does not: four illegal commands, each of which
    // `RankTiming::check` enumerates into one small `Vec` of its own. (The
    // rows stay clean: an interrupted restore of written lines snapshots
    // the row, which is the device's business, not the command path's.)
    let mut p = BenderProgram::new();
    p.cmd_auto(DramCommand::Activate { bank: 0, row: 3 })
        .unwrap();
    p.cmd_after(DramCommand::Read { bank: 0, col: 1 }, 7_500)
        .unwrap();
    p.cmd_after(DramCommand::Precharge { bank: 0 }, 3_000)
        .unwrap();
    p.cmd_auto(DramCommand::Read { bank: 0, col: 2 }).unwrap();
    p.cmd_auto(DramCommand::Activate { bank: 0, row: 3 })
        .unwrap();
    p.cmd_auto(DramCommand::Activate { bank: 0, row: 4 })
        .unwrap();
    p.cmd_auto(DramCommand::Precharge { bank: 0 }).unwrap();
    const ILLEGAL: u64 = 4;
    let exec = Executor::new();
    let mut result = BenderResult::default();
    // Warm-up: materialises the rows and grows `result`.
    exec.run_into(&mut dev, &p, 0, &mut result).unwrap();
    let before = allocations();
    let runs = 1_000;
    for _ in 0..runs {
        exec.run_into(&mut dev, &p, 0, &mut result).unwrap();
        assert!(result.violations.len() >= ILLEGAL as usize);
        assert_eq!(result.reads.len(), 2);
    }
    let allocs = allocations() - before;
    assert_eq!(
        allocs,
        runs * ILLEGAL,
        "one list per illegal command and nothing else"
    );
}
