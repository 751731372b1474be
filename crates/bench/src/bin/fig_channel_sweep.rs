//! Channel sweep: emulated-cycle scaling of the sharded memory system as
//! the geometry grows from 1 to 2 to 4 channels.
//!
//! Two views, both over the paper's Jetson-Nano-class system:
//!
//! 1. **Interleaved stream** — a bank-conflict-free, channel-interleaved
//!    read batch posted straight into the tile's per-channel sessions. This
//!    is the memory system in isolation and shows near-linear scaling: the
//!    per-channel buses split the burst serialization evenly.
//! 2. **PolyBench end-to-end** — full workloads through the BOOM core.
//!    Gains here are bounded by how much channel-level parallelism the
//!    core's (dependent-load-heavy) access stream actually exposes; the
//!    posted-writeback bursts are what overlaps.
//!
//! The per-channel request totals come from the new per-channel report
//! counters and demonstrate that the interleave spreads traffic evenly.

use easydram::json::JsonWriter;
use easydram::{RequestKind, System, SystemConfig, TimingMode};
use easydram_bench::{print_table, quick, write_record};
use easydram_cpu::backend::MemoryBackend;
use easydram_workloads::{polybench, PolySize};

const CHANNELS: [u32; 3] = [1, 2, 4];

fn jetson_with_channels(channels: u32, mode: TimingMode) -> System {
    let mut cfg = SystemConfig::jetson_nano(mode);
    cfg.dram.geometry.channels = channels;
    if quick() {
        cfg.rowclone_test_trials = 100;
    }
    System::new(cfg)
}

/// Latest release cycle of a channel-interleaved read batch posted directly
/// into the tile (the acceptance-criterion microbenchmark).
fn stream_cycles(channels: u32, reads: u64) -> u64 {
    let mut s = jetson_with_channels(channels, TimingMode::Reference);
    let tile = s.tile_mut();
    for i in 0..reads {
        tile.post_request(
            RequestKind::Read {
                addr: 0x4_0000 + i * 64,
            },
            0,
        );
    }
    tile.drain_writes(0)
}

fn main() {
    let reads: u64 = if quick() { 256 } else { 1024 };

    // --- View 1: the interleaved stream. CHANNELS[0] == 1 is the baseline.
    let mut rows = Vec::new();
    let mut stream_results = Vec::new();
    let mut base = 0u64;
    for ch in CHANNELS {
        let cycles = stream_cycles(ch, reads);
        if ch == 1 {
            base = cycles;
        }
        let speedup = base as f64 / cycles as f64;
        stream_results.push((ch, cycles, speedup));
        rows.push(vec![
            format!("{ch}"),
            format!("{cycles}"),
            format!("{:.2}x", speedup),
            format!("{:.2}", speedup / ch as f64),
        ]);
    }
    print_table(
        &format!("Channel sweep: {reads}-read interleaved stream (Reference mode)"),
        &["channels", "emulated cycles", "speedup", "efficiency"],
        &rows,
    );

    // --- View 2: PolyBench end-to-end. ---
    let size = if quick() {
        PolySize::Mini
    } else {
        PolySize::Small
    };
    let names = if quick() {
        vec!["gemm", "jacobi-2d"]
    } else {
        vec!["gemm", "jacobi-2d", "atax", "gesummv"]
    };
    let mut rows = Vec::new();
    let mut poly_results = Vec::new();
    for name in &names {
        let mut cycles_per_ch = Vec::new();
        let mut spread = String::new();
        for ch in CHANNELS {
            let mut sys = jetson_with_channels(ch, TimingMode::TimeScaling);
            let mut w = polybench::by_name(name, size).expect("kernel");
            let r = sys.run(w.as_mut());
            cycles_per_ch.push(r.emulated_cycles);
            if ch == 4 {
                let per: Vec<u64> = r.channels.iter().map(|c| c.requests).collect();
                spread = format!("{per:?}");
            }
        }
        poly_results.push((name.to_string(), cycles_per_ch.clone()));
        rows.push(vec![
            (*name).to_string(),
            format!("{}", cycles_per_ch[0]),
            format!("{:.3}x", cycles_per_ch[0] as f64 / cycles_per_ch[1] as f64),
            format!("{:.3}x", cycles_per_ch[0] as f64 / cycles_per_ch[2] as f64),
            spread,
        ]);
        eprintln!("  done {name}");
    }
    print_table(
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

    // Machine-readable record for repro_all / bench-report.json consumers.
    let mut w = JsonWriter::new();
    w.begin_object().key("stream_reads").number(reads);
    w.key("channels").begin_array();
    for &(ch, cycles, speedup) in &stream_results {
        w.begin_object().key("channels").number(ch);
        w.key("stream_cycles").number(cycles);
        w.key("speedup").number(format_args!("{speedup:.3}"));
        w.end_object();
    }
    w.end_array().end_object();
    write_record("target/channel-sweep.json", &w.finish());
    let (_, two_cycles, two_speedup) = stream_results[1];
    println!(
        "\nchannel_sweep: stream_reads={reads} one_ch_cycles={base} two_ch_cycles={two_cycles} \
         two_ch_speedup={two_speedup:.3}"
    );
    assert!(
        two_cycles * 10 <= base * 6,
        "2-channel stream must finish in <= 0.6x the 1-channel cycles"
    );
    for (name, c) in &poly_results {
        // Dependent-load kernels gain little from channels, and sharding has
        // real modeled costs: splitting a writeback burst across lanes
        // shrinks each channel's FR-FCFS batch (fewer row hits to pull
        // forward) and duplicates per-pass scheduling overhead. Measured:
        // up to ~5% on the most memory-intensive kernels (gesummv). Bound it
        // so a regression can't hide behind "sharding overhead".
        assert!(
            c[1] as f64 <= c[0] as f64 * 1.08 && c[2] as f64 <= c[0] as f64 * 1.08,
            "{name}: channel sharding overhead must stay within 8%: {c:?}"
        );
    }
    println!("channel sweep scaling holds (2-ch <= 0.6x on the interleaved stream).");
}
