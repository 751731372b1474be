//! Characterisation of the tile's serve pass — execute, price, account —
//! through everything a caller can observe: one seeded request mix driven
//! straight into a [`System`]'s tile under every timing mode, channel count
//! and controller family, traced and untraced, with every release cycle,
//! every [`easydram::ExecutionReport`] (`{:?}`) and the binary trace
//! digested into a single constant.
//!
//! The digest was recorded while `Tile::serve_pass` was one 243-line
//! function with the timing-mode arithmetic in its middle; any change to it
//! means a request is now released at another cycle, a counter folds
//! differently or a trace event moved.

#[path = "../../../tests/support/fnv.rs"]
mod fnv;

use easydram::{
    EventKind, FcfsController, GrapheneController, System, SystemConfig, TimingMode, TraceConfig,
};
use easydram_cpu::{CpuApi, MemoryBackend, Workload, LINE_BYTES};
use easydram_dram::det::splitmix64;
use easydram_dram::{AddressMapper, DramAddress};
use fnv::Digest;

/// Operations per configuration.
const OPS: u64 = 400;
/// Lines in the read/write region (four 8 KiB rows' worth: several rows of
/// every bank and, interleaved, every channel).
const LINES: u64 = 512;
/// Rows in the RowClone copy pair.
const CLONE_ROWS: u64 = 4;
/// The two aggressors of the hammer bursts: same bank, one victim between.
const HAMMER_ROWS: [u32; 2] = [700, 702];

#[derive(Clone, Copy)]
enum Controller {
    Fcfs,
    FrFcfs,
    FrFcfsReducedTrcd,
    Graphene,
}

/// Through the core and its caches, so the windowed report (`System::run`)
/// is on the digested path too.
struct FlushBurst;

impl Workload for FlushBurst {
    fn name(&self) -> &str {
        "flush-burst"
    }

    fn run(&mut self, cpu: &mut dyn CpuApi) {
        let a = cpu.alloc(64 * 24, 64);
        for i in 0..24u64 {
            cpu.store_u64(a + i * 64, i ^ 0x5A);
        }
        for i in 0..24u64 {
            cpu.clflush(a + i * 64);
        }
        cpu.fence();
        for i in 0..24u64 {
            assert_eq!(cpu.load_u64(a + i * 64), i ^ 0x5A);
        }
    }
}

fn drive(mode: TimingMode, channels: u32, controller: Controller, traced: bool, d: &mut Digest) {
    let mut cfg = SystemConfig::small_for_tests(mode);
    cfg.dram.geometry.channels = channels;
    cfg.write_buffer_depth = 4;
    cfg.dram.variation.disturb_enabled = matches!(controller, Controller::Graphene);
    cfg.trace = traced.then_some(TraceConfig {
        ring_capacity: 1 << 16,
    });
    let mapper = AddressMapper::new(cfg.dram.geometry.clone(), cfg.mapping);
    let mut sys = System::new(cfg);
    match controller {
        Controller::Fcfs => sys
            .tile_mut()
            .install_controllers(|_| Box::new(FcfsController::new())),
        Controller::FrFcfs => {}
        Controller::FrFcfsReducedTrcd => sys.enable_trcd_reduction(1_024, 9_000),
        Controller::Graphene => sys
            .tile_mut()
            .install_controllers(|_| Box::new(GrapheneController::new(16, 8))),
    }
    let report = sys.run(&mut FlushBurst);
    d.bytes(format!("{report:?}").as_bytes());

    let row_bytes = sys.tile().row_bytes();
    let base = sys.tile_mut().alloc(LINES * LINE_BYTES as u64, row_bytes);
    let (src, dst) = sys
        .tile_mut()
        .rowclone_alloc_copy(CLONE_ROWS * row_bytes)
        .expect("the small device has room for a copy pair");
    let hammer = HAMMER_ROWS.map(|row| mapper.to_phys(DramAddress::new(1, row, 0)));

    let mut rng = 0xEA5D_0000 + u64::from(channels);
    let mut rand = |n: u64| {
        rng = splitmix64(rng);
        rng % n
    };
    let mut now = sys.cpu().now_cycles();
    for i in 0..OPS {
        let tile = sys.tile_mut();
        tile.set_requestor(rand(2) as u32);
        let addr = base + rand(LINES) * LINE_BYTES as u64;
        let next = match rand(16) {
            0..=4 => {
                let fetch = tile.read_line(addr, now);
                d.bytes(&fetch.data[..8]);
                fetch.complete_cycle
            }
            5..=9 => tile.post_write(addr, [(i as u8).wrapping_add(1); LINE_BYTES], now) + 1,
            10 => tile.drain_writes(now),
            11 => {
                let row = rand(CLONE_ROWS) * row_bytes;
                let done = tile.rowclone(src + row, dst + row, now).expect("supported");
                d.word(u64::from(done.copied));
                done.complete_cycle
            }
            12 => {
                // Never qualified: the controller refuses without a pass.
                let done = tile.rowclone(base, base + row_bytes, now);
                let done = done.expect("supported");
                assert!(!done.copied);
                done.complete_cycle
            }
            13 => {
                let (row, col) = (rand(1_024) as u32, rand(128) as u32);
                let ok = tile.profile_line(rand(2) as u32, row, col, 9_000, now);
                d.word(u64::from(ok));
                now + 1
            }
            14 => {
                // Row conflicts in one bank: activations for Graphene to
                // count, and the only reads FR-FCFS cannot turn into hits.
                let mut t = now;
                for k in 0..8 {
                    t = tile.read_line(hammer[k % 2], t).complete_cycle;
                    d.word(t);
                }
                t
            }
            _ => {
                // A host-side batch: several reads posted, one drain.
                for _ in 0..3 {
                    let addr = base + rand(LINES) * LINE_BYTES as u64;
                    d.word(tile.post_request(easydram::RequestKind::Read { addr }, now));
                }
                tile.drain_writes(now)
            }
        };
        d.word(next);
        now = next.max(now + 1);
        if i % 100 == 99 {
            d.bytes(format!("{:?}", sys.report("checkpoint")).as_bytes());
        }
    }
    d.word(sys.tile_mut().drain_writes(now));
    let end = sys.report("end");
    d.bytes(format!("{end:?}").as_bytes());
    let log = sys.take_trace();
    assert_eq!(log.dropped, 0);
    // The mix reaches what it is here for.
    assert!(end.smc.forced_drains > 0 && end.smc.rowclone_fallbacks > 0);
    assert!(
        end.dram.rowclone_successes > 0,
        "a qualified pair copied in DRAM"
    );
    assert!(end.smc.peak_batch >= 4 && end.requestors.len() == 2);
    if matches!(controller, Controller::Graphene) {
        let refreshes = end.mitigation.expect("mitigating").targeted_refreshes;
        assert!(refreshes > 0, "the bursts must trip it");
        let traced_refreshes: u64 = (log.events.iter())
            .filter(|e| e.kind == EventKind::Mitigation)
            .map(|e| u64::from(e.a))
            .sum();
        assert_eq!(traced_refreshes, if traced { refreshes } else { 0 });
    }
    d.bytes(&log.to_binary());
}

/// Recorded at the parent of the serve-pass split, then re-recorded once
/// when four report fields that duplicated another counter went: the parent
/// with those fields stripped from each report string digests to this.
const SERVE_DIGEST: u64 = 0x5F49_1FC9_5A68_91F4;

#[test]
fn serve_pass_digest_is_unchanged() {
    let mut d = Digest::default();
    for mode in [
        TimingMode::Reference,
        TimingMode::TimeScaling,
        TimingMode::NoTimeScaling,
    ] {
        for channels in [1, 2, 4] {
            for controller in [
                Controller::Fcfs,
                Controller::FrFcfs,
                Controller::FrFcfsReducedTrcd,
                Controller::Graphene,
            ] {
                for traced in [false, true] {
                    drive(mode, channels, controller, traced, &mut d);
                }
            }
        }
    }
    assert_eq!(d.0, SERVE_DIGEST, "digest {:#018x}", d.0);
}
