//! Channel sweep (beyond the paper): emulated-cycle scaling of the sharded
//! memory system as the Jetson-Nano-class geometry grows from 1 to 2 to 4
//! channels, in two views:
//!
//! 1. **Interleaved stream**: a bank-conflict-free, channel-interleaved read
//!    batch posted straight into the tile's per-channel sessions. This is
//!    the memory system in isolation; the per-channel buses split the burst
//!    serialization evenly, so it scales near-linearly.
//! 2. **PolyBench end to end**: full workloads through the core. Gains are
//!    bounded by the channel-level parallelism the core's dependent-load
//!    stream exposes; the per-channel request counts show the interleave
//!    spreading traffic evenly.

use easydram::{RequestKind, System, SystemConfig, TimingMode};
use easydram_cpu::backend::MemoryBackend;
use easydram_workloads::polybench::{Atax, Gemm, Gesummv, Jacobi2d};

use crate::{Figure, Scale};

const CHANNELS: [u32; 3] = [1, 2, 4];

fn system(scale: Scale, channels: u32, mode: TimingMode) -> System {
    let mut cfg = scale.config(SystemConfig::jetson_nano(mode));
    cfg.dram.geometry.channels = channels;
    System::new(cfg)
}

pub(crate) fn run(scale: Scale) -> Figure {
    let mut fig = Figure::default();
    let reads: u64 = scale.pick(64, 256, 1024);
    let kernels = scale.pick(
        vec![],
        vec![Gemm::NAME, Jacobi2d::NAME],
        vec![Gemm::NAME, Jacobi2d::NAME, Atax::NAME, Gesummv::NAME],
    );

    // View 1: the latest release cycle of the interleaved read batch, one
    // pair of sections per channel count.
    let stream = CHANNELS.map(|ch| {
        let mut sys = system(scale, ch, TimingMode::Reference);
        let tile = sys.tile_mut();
        for i in 0..reads {
            tile.post_request(
                RequestKind::Read {
                    addr: 0x4_0000 + i * 64,
                },
                0,
            );
        }
        let release = tile.drain_writes(0);
        fig.section("last release cycle", &release);
        fig.section("report", &sys.report("channel_sweep"));
        release
    });
    let rows: Vec<Vec<String>> = CHANNELS
        .iter()
        .zip(stream)
        .map(|(&ch, cycles)| {
            let speedup = stream[0] as f64 / cycles as f64;
            vec![
                ch.to_string(),
                cycles.to_string(),
                format!("{speedup:.2}x"),
                format!("{:.2}", speedup / f64::from(ch)),
            ]
        })
        .collect();
    fig.table(
        &format!("Channel sweep: {reads}-read interleaved stream (Reference mode)"),
        &["channels", "emulated cycles", "speedup", "efficiency"],
        &rows,
    );

    // View 2: PolyBench end to end.
    let mut rows = Vec::new();
    let mut overheads = Vec::new();
    for name in kernels {
        let mut spread = String::new();
        let cycles = CHANNELS.map(|ch| {
            let mut sys = system(scale, ch, TimingMode::TimeScaling);
            let r = sys.run(scale.kernel(name).as_mut());
            fig.section(format_args!("{name}, {ch} channels"), &r);
            let per: Vec<u64> = r.channels.iter().map(|c| c.requests).collect();
            spread = format!("{per:?}");
            r.emulated_cycles
        });
        let slowdown = cycles[1].max(cycles[2]) as f64 / cycles[0] as f64;
        overheads.push((slowdown, name));
        rows.push(vec![
            name.to_string(),
            cycles[0].to_string(),
            format!("{:.3}x", cycles[0] as f64 / cycles[1] as f64),
            format!("{:.3}x", cycles[0] as f64 / cycles[2] as f64),
            spread,
        ]);
    }
    fig.table(
        "Channel sweep: PolyBench end-to-end (TimeScaling mode)",
        &[
            "workload",
            "1-ch cycles",
            "2-ch speedup",
            "4-ch speedup",
            "4-ch request spread",
        ],
        &rows,
    );

    let two = stream[1] as f64 / stream[0] as f64;
    fig.claim(
        "Channels",
        two <= 0.6,
        format!("a {reads}-read interleaved stream on 2 channels takes {two:.3}x the 1-channel cycles (<= 0.6x)"),
    );
    // Dependent-load kernels gain little from channels, and sharding has
    // real modeled costs: a writeback burst split across lanes shrinks each
    // channel's FR-FCFS batch (fewer row hits to pull forward) and
    // duplicates per-pass scheduling overhead, up to ~5% on gesummv.
    let (worst, worst_name) =
        overheads
            .iter()
            .copied()
            .fold((1.0, "none"), |w, o| if o.0 > w.0 { o } else { w });
    fig.claim(
        "Channels",
        worst <= 1.08,
        format!("sharding costs PolyBench at most {worst:.3}x cycles ({worst_name}; <= 1.08x)"),
    );
    fig
}
