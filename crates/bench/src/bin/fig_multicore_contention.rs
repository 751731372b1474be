//! Multi-core shared-tile contention study: a latency-sensitive lmbench
//! pointer chase co-run against a streaming writer, swept over channel
//! counts.
//!
//! The victim is a *shuffled* `lat_mem_rd` chase (no row-buffer locality of
//! its own), the aggressor an elastic streaming writer; both run as
//! requestors of one `MultiCoreSystem` over a shared multi-channel tile.
//! Reported per channel count:
//!
//! * solo and co-run chase cycles/load, and the degradation ratio;
//! * the per-requestor breakdown (requests, row outcomes, bandwidth share)
//!   from the new `ExecutionReport::requestors` counters.
//!
//! The headline numbers: one channel degrades the chase measurably
//! (≥ 1.1×), and a second channel recovers more than half of that loss.
//! The writer is *elastic* (it expands into whatever bandwidth the MSHRs
//! can extract), so its total traffic grows with a second channel — but
//! the chase read only queues behind the writer's in-flight bursts on its
//! *own* channel, and with the line interleave half of those move to the
//! other bus. Keeping the co-scheduling quantum small matters just as
//! much: it bounds how far ahead of the chase the writer may price
//! traffic (see `QUANTUM` below).

use easydram::json::JsonWriter;
use easydram::{MultiCoreSystem, SystemConfig, TimingMode};
use easydram_bench::{print_table, quick, write_record};
use easydram_cpu::CacheConfig;
use easydram_workloads::lmbench::LatMemRd;
use easydram_workloads::StreamWriter;

const CHANNELS: [u32; 3] = [1, 2, 4];
/// Emulation-order skew bound for the co-run (see
/// `easydram::multicore::DEFAULT_QUANTUM_CYCLES`); interference studies
/// keep it well under one DRAM round trip.
const QUANTUM: u64 = 40;

/// The contention rig: the small-row test device with 8 banks/channel and a
/// shrunken cache hierarchy (4 KiB L1, 32 KiB L2), so a memory-resident
/// chase stays cheap to emulate while the contended resource — the
/// per-channel bus — behaves like the full-size system's.
fn rig(channels: u32) -> SystemConfig {
    let mut cfg = SystemConfig::small_for_tests(TimingMode::Reference);
    cfg.dram.geometry.channels = channels;
    cfg.dram.geometry.bank_groups = 2;
    cfg.dram.geometry.banks_per_group = 4;
    cfg.core.l1 = Some(CacheConfig {
        size_bytes: 4 * 1024,
        ways: 2,
        hit_latency_cycles: 4,
    });
    cfg.core.l2 = Some(CacheConfig {
        size_bytes: 32 * 1024,
        ways: 4,
        hit_latency_cycles: 12,
    });
    cfg
}

struct Point {
    channels: u32,
    solo_cpl: f64,
    corun_cpl: f64,
    degradation: f64,
    victim_bw: f64,
    aggressor_bw: f64,
}

fn measure(channels: u32, chase_loads: u64, chase_bytes: u64) -> Point {
    let solo_cpl = {
        let mut chase = LatMemRd::shuffled_with_loads(chase_bytes, 64, chase_loads);
        let mut sys = MultiCoreSystem::new(rig(channels), 1);
        sys.set_quantum(QUANTUM);
        sys.co_run(&mut [&mut chase]);
        chase.cycles_per_load().expect("chase ran")
    };
    let mut chase = LatMemRd::shuffled_with_loads(chase_bytes, 64, chase_loads);
    let mut writer = StreamWriter::new(256 * 1024, 2_000_000);
    let mut sys = MultiCoreSystem::new(rig(channels), 2);
    sys.set_quantum(QUANTUM);
    let r = sys.co_run(&mut [&mut chase, &mut writer]);
    let corun_cpl = chase.cycles_per_load().expect("chase ran");
    let total_occ: u64 = r
        .aggregate
        .requestors
        .iter()
        .map(|q| q.dram_occupancy_ps)
        .sum();
    Point {
        channels,
        solo_cpl,
        corun_cpl,
        degradation: corun_cpl / solo_cpl,
        victim_bw: r.aggregate.requestors[0].bandwidth_share(total_occ),
        aggressor_bw: r.aggregate.requestors[1].bandwidth_share(total_occ),
    }
}

fn main() {
    let (chase_loads, chase_bytes) = if quick() {
        (1_024, 128 * 1024)
    } else {
        (2_048, 256 * 1024)
    };

    let points: Vec<Point> = CHANNELS
        .iter()
        .map(|&ch| {
            let p = measure(ch, chase_loads, chase_bytes);
            eprintln!("  done {ch}-channel point");
            p
        })
        .collect();

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                format!("{}", p.channels),
                format!("{:.1}", p.solo_cpl),
                format!("{:.1}", p.corun_cpl),
                format!("{:.3}x", p.degradation),
                format!("{:.0}%/{:.0}%", p.victim_bw * 100.0, p.aggressor_bw * 100.0),
            ]
        })
        .collect();
    print_table(
        &format!(
            "Multi-core contention: shuffled {chase_loads}-load chase vs streaming writer \
             (Reference mode, quantum {QUANTUM})"
        ),
        &[
            "channels",
            "solo cyc/load",
            "co-run cyc/load",
            "degradation",
            "victim/aggressor bw",
        ],
        &rows,
    );

    let mut w = JsonWriter::new();
    w.begin_object().key("chase_loads").number(chase_loads);
    w.key("channels").begin_array();
    for p in &points {
        w.begin_object().key("channels").number(p.channels);
        w.key("solo_cycles_per_load")
            .number(format_args!("{:.3}", p.solo_cpl));
        w.key("corun_cycles_per_load")
            .number(format_args!("{:.3}", p.corun_cpl));
        w.key("degradation")
            .number(format_args!("{:.3}", p.degradation));
        w.end_object();
    }
    w.end_array().end_object();
    write_record("target/multicore-contention.json", &w.finish());

    let one = points[0].degradation;
    let two = points[1].degradation;
    println!(
        "\nmulticore_contention: chase_loads={chase_loads} one_ch_degradation={one:.3} \
         two_ch_degradation={two:.3}"
    );
    assert!(
        one >= 1.1,
        "the streaming writer must degrade the chase >= 1.1x on one channel, got {one:.3}x"
    );
    assert!(
        two - 1.0 < (one - 1.0) / 2.0,
        "two channels must recover more than half the interference: {one:.3}x -> {two:.3}x"
    );
    println!("multicore contention holds (>= 1.1x on 1 channel, > half recovered on 2).");
}
