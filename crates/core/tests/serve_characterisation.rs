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
//!
//! The same mix, traced and untraced, also pins the observer effect at
//! zero: tracing may add events, and must move nothing else.

#[path = "../../../tests/support/fnv.rs"]
mod fnv;

use easydram::{
    EventKind, FcfsController, GrapheneController, ParaController, System, SystemConfig,
    TimingMode, TraceConfig,
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

#[derive(Clone, Copy, Debug)]
enum Controller {
    Fcfs,
    FrFcfs,
    FrFcfsReducedTrcd,
    Graphene,
    Para,
}

const MODES: [TimingMode; 3] = [
    TimingMode::Reference,
    TimingMode::TimeScaling,
    TimingMode::NoTimeScaling,
];
const CHANNELS: [u32; 3] = [1, 2, 4];
/// The controllers the digest drives.
const DIGESTED: [Controller; 4] = [
    Controller::Fcfs,
    Controller::FrFcfs,
    Controller::FrFcfsReducedTrcd,
    Controller::Graphene,
];

/// One thing a drive observed.
#[derive(Debug, PartialEq)]
enum Seen {
    /// An [`easydram::ExecutionReport`], `{:?}`.
    Report(String),
    /// A release cycle, loaded data or another answer of the tile.
    Word(u64),
}

/// Everything one drive observed, in order, and then its binary trace: the
/// one output tracing may change.
struct Run {
    seen: Vec<Seen>,
    trace: Vec<u8>,
}

impl Run {
    fn digest(&self, d: &mut Digest) {
        for seen in &self.seen {
            match seen {
                Seen::Report(report) => d.bytes(report.as_bytes()),
                Seen::Word(x) => d.word(*x),
            }
        }
        d.bytes(&self.trace);
    }
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

fn drive(mode: TimingMode, channels: u32, controller: Controller, traced: bool) -> Run {
    let mitigating = matches!(controller, Controller::Graphene | Controller::Para);
    let mut cfg = SystemConfig::small_for_tests(mode);
    cfg.dram.geometry.channels = channels;
    cfg.write_buffer_depth = 4;
    cfg.dram.variation.disturb_enabled = mitigating;
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
        Controller::Para => sys
            .tile_mut()
            .install_controllers(|ch| Box::new(ParaController::new(8, 0xEA5D + u64::from(ch)))),
    }
    let mut seen = vec![Seen::Report(format!("{:?}", sys.run(&mut FlushBurst)))];

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
                let data = fetch.data[..8].try_into().expect("eight bytes");
                seen.push(Seen::Word(u64::from_le_bytes(data)));
                fetch.complete_cycle
            }
            5..=9 => tile.post_write(addr, [(i as u8).wrapping_add(1); LINE_BYTES], now) + 1,
            10 => tile.drain_writes(now),
            11 => {
                let row = rand(CLONE_ROWS) * row_bytes;
                let done = tile.rowclone(src + row, dst + row, now).expect("supported");
                seen.push(Seen::Word(u64::from(done.copied)));
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
                seen.push(Seen::Word(u64::from(ok)));
                now + 1
            }
            14 => {
                // Row conflicts in one bank: activations for Graphene to
                // count, and the only reads FR-FCFS cannot turn into hits.
                let mut t = now;
                for k in 0..8 {
                    t = tile.read_line(hammer[k % 2], t).complete_cycle;
                    seen.push(Seen::Word(t));
                }
                t
            }
            _ => {
                // A host-side batch: several reads posted, one drain.
                for _ in 0..3 {
                    let addr = base + rand(LINES) * LINE_BYTES as u64;
                    let posted = tile.post_request(easydram::RequestKind::Read { addr }, now);
                    seen.push(Seen::Word(posted));
                }
                tile.drain_writes(now)
            }
        };
        seen.push(Seen::Word(next));
        now = next.max(now + 1);
        if i % 100 == 99 {
            seen.push(Seen::Report(format!("{:?}", sys.report("checkpoint"))));
        }
    }
    seen.push(Seen::Word(sys.tile_mut().drain_writes(now)));
    let end = sys.report("end");
    seen.push(Seen::Report(format!("{end:?}")));
    let log = sys.take_trace();
    assert_eq!(log.dropped, 0);
    // The mix reaches what it is here for.
    assert!(end.smc.forced_drains > 0 && end.smc.rowclone_fallbacks > 0);
    assert!(
        end.dram.rowclone_successes > 0,
        "a qualified pair copied in DRAM"
    );
    assert!(end.smc.peak_batch >= 4 && end.requestors.len() == 2);
    if mitigating {
        let refreshes = end.mitigation.expect("mitigating").targeted_refreshes;
        assert!(refreshes > 0, "the bursts must trip it");
        let traced_refreshes: u64 = (log.events.iter())
            .filter(|e| e.kind == EventKind::Mitigation)
            .map(|e| u64::from(e.a))
            .sum();
        assert_eq!(traced_refreshes, if traced { refreshes } else { 0 });
    }
    Run {
        seen,
        trace: log.to_binary(),
    }
}

/// Recorded at the parent of the serve-pass split, then re-recorded once
/// when four report fields that duplicated another counter went: the parent
/// with those fields stripped from each report string digests to this.
const SERVE_DIGEST: u64 = 0x5F49_1FC9_5A68_91F4;

#[test]
fn serve_pass_digest_is_unchanged() {
    let mut d = Digest::default();
    for mode in MODES {
        for channels in CHANNELS {
            for controller in DIGESTED {
                for traced in [false, true] {
                    drive(mode, channels, controller, traced).digest(&mut d);
                }
            }
        }
    }
    assert_eq!(d.0, SERVE_DIGEST, "digest {:#018x}", d.0);
}

/// The observer effect is zero where the rings live: under every
/// configuration the digest drives, and PARA, a traced run observes exactly
/// what an untraced one does (every report string, every release cycle).
#[test]
fn tracing_moves_no_report_byte() {
    for mode in MODES {
        for channels in CHANNELS {
            for controller in DIGESTED.into_iter().chain([Controller::Para]) {
                let untraced = drive(mode, channels, controller, false).seen;
                let traced = drive(mode, channels, controller, true).seen;
                let n = untraced.len().max(traced.len());
                if let Some(i) = (0..n).find(|&i| untraced.get(i) != traced.get(i)) {
                    let (a, b) = (
                        format!("{:?}", untraced.get(i)),
                        format!("{:?}", traced.get(i)),
                    );
                    // Both from the field in which they part.
                    let at = a.bytes().zip(b.bytes()).take_while(|(x, y)| x == y).count();
                    let from = (a.get(..at))
                        .and_then(|s| s.rfind(", "))
                        .map_or(0, |k| k + 2);
                    let field = |s: &str| s[from..].chars().take(120).collect::<String>();
                    panic!(
                        "{mode:?}, {channels} channel(s), {controller:?}: tracing moved \
                         observation {i}\nuntraced: {}\n  traced: {}",
                        field(&a),
                        field(&b)
                    );
                }
            }
        }
    }
}
