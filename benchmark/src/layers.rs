//! Per-layer timings taken from outside the simulator: the op's own DRAM
//! command stream replayed through each layer below the controller, and
//! direct micro-timings of the public functions of every other layer.
//!
//! Everything here calls `pub` items of the simulation crates and brackets
//! whole loops with one timer pair, so the timer's cost is amortised.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use easydram::report::{ChannelStats, SmcStats};
use easydram::{
    EmulatedTimeline, EventRing, LogHistogram, RequestorStats, System, SystemConfig,
    TimelineDemand, TimingMode, TraceEvent, WorkerPool,
};
use easydram_bender::{BenderProgram, Executor};
use easydram_cpu::{
    Cache, CacheConfig, CoScheduler, CoreConfig, CoreModel, FixedLatencyBackend, Workload,
};
use easydram_dram::bank::RankTiming;
use easydram_dram::{AddressMapper, DramAddress, DramCommand, DramDevice, MappingScheme};
use easydram_ramulator::{RamulatorConfig, RamulatorSystem};
use easydram_workloads::lmbench::LatMemRd;
use easydram_workloads::{polybench, PolySize};

use crate::stats::{median, ns_per_call};
use crate::workloads::{
    corun_traced_spec, corun_write_spec, reference_checksums, run_op, solo_writers_spec,
    stream_t2_spec, traced_log, CmdStream, IdleChase, SimSpec,
};

/// Commands of one stream that are replayed (a prefix, so the replay starts
/// from the same fresh device the capture did).
const REPLAY_CMDS: usize = 100_000;
/// Commands per `BenderProgram` in the bender replay: the controllers issue
/// a handful of commands per flush.
const PROGRAM_CMDS: usize = 8;

/// Replay results, host ns per item.
#[derive(Default, Debug, Clone, Copy)]
pub struct Replay {
    pub bender_run_ns_per_cmd: f64,
    pub issue_ns_per_cmd: f64,
    pub line_rw_ns: f64,
    pub legal_apply_ns_per_cmd: f64,
    pub earliest_ns_per_cmd: f64,
    pub to_dram_ns: f64,
    pub price_ns: f64,
}

fn decode(rec: &easydram_dram::CmdRecord) -> DramCommand {
    let (bank, arg) = (rec.bank, rec.arg);
    match rec.mnemonic {
        "ACT" => DramCommand::Activate { bank, row: arg },
        "PRE" => DramCommand::Precharge { bank },
        "PREA" => DramCommand::PrechargeAll,
        "RD" => DramCommand::Read { bank, col: arg },
        // The ring does not keep write data; any line exercises the array.
        "WR" => DramCommand::Write {
            bank,
            col: arg,
            data: [(bank ^ arg) as u8; 64],
        },
        "REF" => DramCommand::Refresh,
        _ => DramCommand::RefreshRow { bank, row: arg },
    }
}

fn elapsed_ns(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_nanos() as f64
}

/// Replays every captured stream through the layers under the controller.
pub fn replay(streams: &[CmdStream], mapping: MappingScheme) -> Replay {
    const REPS: usize = 3;
    // (total ns, items) per metric, summed over streams.
    let mut acc = [(0.0f64, 0usize); 7];
    for stream in streams {
        let cmds: Vec<(DramCommand, u64)> = stream
            .cmds
            .iter()
            .take(REPLAY_CMDS)
            .map(|r| (decode(r), r.ps))
            .collect();
        let n = cmds.len();
        let geometry = stream.dram.geometry.clone();
        let timing = stream.dram.timing.clone();

        // DramDevice::issue_raw, the exact command/time pairs of the op.
        let issue = median(
            (0..REPS)
                .map(|_| {
                    let mut dev = DramDevice::new(stream.dram.clone());
                    elapsed_ns(|| {
                        for &(cmd, ps) in &cmds {
                            black_box(dev.issue_raw(cmd, ps).is_ok());
                        }
                    })
                })
                .collect(),
        );
        acc[1].0 += issue;
        acc[1].1 += n;

        // Executor::run over the same stream cut into small programs with
        // the original inter-command delays (device time is included).
        let programs: Vec<(BenderProgram, u64)> = cmds
            .chunks(PROGRAM_CMDS)
            .map(|chunk| {
                let mut p = BenderProgram::new();
                let mut prev = chunk[0].1;
                for &(cmd, ps) in chunk {
                    p.cmd_after(cmd, ps - prev)
                        .expect("a program of a few commands fits the buffer");
                    prev = ps;
                }
                (p, chunk[0].1)
            })
            .collect();
        let executor = Executor::new();
        let bender = median(
            (0..REPS)
                .map(|_| {
                    let mut dev = DramDevice::new(stream.dram.clone());
                    elapsed_ns(|| {
                        for (p, start) in &programs {
                            black_box(executor.run(&mut dev, p, *start).is_ok());
                        }
                    })
                })
                .collect(),
        );
        acc[0].0 += bender;
        acc[0].1 += n;

        // RankTiming::{is_legal, apply} — the hot pair of every command.
        let legal = median(
            (0..REPS)
                .map(|_| {
                    let mut rank = RankTiming::new(geometry.clone(), timing.clone());
                    elapsed_ns(|| {
                        for (cmd, ps) in &cmds {
                            black_box(rank.is_legal(cmd, *ps));
                            rank.apply(cmd, *ps);
                        }
                    })
                })
                .collect(),
        );
        acc[3].0 += legal;
        acc[3].1 += n;

        // RankTiming::earliest_issue_ps, asked in chunks between untimed
        // applies so the tracker state keeps evolving with the stream.
        let mut rank = RankTiming::new(geometry.clone(), timing.clone());
        let mut earliest = 0.0;
        for chunk in cmds.chunks(64) {
            earliest += elapsed_ns(|| {
                for (cmd, _) in chunk {
                    black_box(rank.earliest_issue_ps(cmd));
                }
            });
            for (cmd, ps) in chunk {
                rank.apply(cmd, *ps);
            }
        }
        acc[4].0 += earliest;
        acc[4].1 += n;

        // The (bank, row, col) every column command of the stream touched.
        let mut open = vec![0u32; geometry.banks() as usize];
        let mut after_act = vec![false; geometry.banks() as usize];
        let mut cells = Vec::new();
        let mut demands = Vec::new();
        for (cmd, ps) in &cmds {
            match *cmd {
                DramCommand::Activate { bank, row } => {
                    open[bank as usize] = row;
                    after_act[bank as usize] = true;
                }
                DramCommand::Read { bank, col } | DramCommand::Write { bank, col, .. } => {
                    cells.push((bank, open[bank as usize], col));
                    demands.push(TimelineDemand {
                        arrival_ps: *ps,
                        bank: bank as usize,
                        prep_ps: if std::mem::take(&mut after_act[bank as usize]) {
                            timing.t_rcd_ps
                        } else {
                            0
                        },
                        burst_ps: timing.t_burst_ps,
                        has_columns: true,
                    });
                }
                _ => {}
            }
        }
        if cells.is_empty() {
            continue;
        }

        // The device's data array, through its host-side line accessors.
        let mut dev = DramDevice::new(stream.dram.clone());
        let line = [0x5Au8; 64];
        acc[2].0 += elapsed_ns(|| {
            for &(bank, row, col) in &cells {
                dev.write_line(bank, row, col, &line);
                black_box(dev.line_data(bank, row, col));
            }
        });
        acc[2].1 += 2 * cells.len();

        // AddressMapper::to_dram on the physical addresses of those cells.
        let mapper = AddressMapper::new(geometry.clone(), mapping);
        let phys: Vec<u64> = cells
            .iter()
            .map(|&(bank, row, col)| mapper.to_phys(DramAddress::new(bank, row, col)))
            .collect();
        acc[5].0 += elapsed_ns(|| {
            for &p in &phys {
                black_box(mapper.to_dram(p));
            }
        });
        acc[5].1 += phys.len();

        // EmulatedTimeline::price on one demand per column command.
        let mut timeline =
            EmulatedTimeline::with_ranks(1, geometry.banks() as usize, &timing, true);
        acc[6].0 += elapsed_ns(|| {
            for d in &demands {
                black_box(timeline.price(d));
            }
        });
        acc[6].1 += demands.len();
    }
    let per = |i: usize| acc[i].0 / acc[i].1.max(1) as f64;
    Replay {
        bender_run_ns_per_cmd: per(0),
        issue_ns_per_cmd: per(1),
        line_rw_ns: per(2),
        legal_apply_ns_per_cmd: per(3),
        earliest_ns_per_cmd: per(4),
        to_dram_ns: per(5),
        price_ns: per(6),
    }
}

/// Direct micro-timings of layers the op's spans cannot separate.
#[derive(Default, Debug, Clone, Copy)]
pub struct Micro {
    pub cache_lookup_insert_ns: f64,
    pub fixed_backend_ns_per_instr: f64,
    pub system_new_us: f64,
    pub merge_ns: f64,
    pub system_report_us: f64,
    pub ring_push_ns: f64,
    pub hist_record_ns: f64,
    pub pool_run_us_per_batch: f64,
    pub handoff_ns: f64,
    pub idle_flatness: f64,
    pub ramulator_ns_per_req: f64,
}

fn jetson() -> SystemConfig {
    let mut cfg = SystemConfig::jetson_nano(TimingMode::TimeScaling);
    cfg.threads = Some(1);
    cfg.trace = None;
    cfg
}

/// Host ns per tile request of the idle chase at `idle_ops` of compute
/// between loads (median of three fresh systems).
fn idle_chase_ns_per_req(idle_ops: u64) -> f64 {
    median(
        (0..3)
            .map(|_| {
                let mut sys = System::new(jetson());
                let mut chase = IdleChase {
                    loads: 20_000,
                    idle_ops,
                };
                let ns = elapsed_ns(|| {
                    black_box(sys.run(&mut chase));
                });
                ns / sys.tile().smc_stats().requests.max(1) as f64
            })
            .collect(),
    )
}

/// Two threads passing the `CoScheduler` baton back and forth: host ns per
/// hand-off. Uses two busy threads, the most the harness ever runs.
fn handoff_ns() -> f64 {
    const ROUNDS: u64 = 20_000;
    median(
        (0..3)
            .map(|_| {
                // Quantum 0: whoever publishes the larger cycle yields.
                let sched = CoScheduler::new(2, 0);
                let ns = elapsed_ns(|| {
                    std::thread::scope(|scope| {
                        for id in 0..2usize {
                            let sched = Arc::clone(&sched);
                            scope.spawn(move || {
                                sched.start(id);
                                for round in 1..=ROUNDS {
                                    sched.checkpoint(id, round * 2 + id as u64);
                                }
                                sched.finish(id, u64::MAX);
                            });
                        }
                    });
                });
                ns / (2 * ROUNDS) as f64
            })
            .collect(),
    )
}

pub fn micro() -> Micro {
    let mut m = Micro::default();

    // Cache::{lookup, insert}: a strided walk over twice the L1's capacity,
    // so lookups miss and every miss installs a line.
    let mut cache = Cache::new(CacheConfig::l1d_32k());
    let mut addr = 0u64;
    m.cache_lookup_insert_ns = ns_per_call(5, 200_000, || {
        addr = (addr + 64 * 17) % (64 * 1024);
        if cache.lookup(addr).is_none() {
            black_box(cache.insert(addr, [0; 64], false));
        }
    });

    // Core model + kernel with no tile underneath.
    m.fixed_backend_ns_per_instr = median(
        (0..3)
            .map(|_| {
                let mut core =
                    CoreModel::new(CoreConfig::cortex_a57(), FixedLatencyBackend::new(100));
                let mut gemm = polybench::Gemm::new(PolySize::Small);
                let ns = elapsed_ns(|| gemm.run(&mut core));
                ns / core.stats().instructions.max(1) as f64
            })
            .collect(),
    );

    m.system_new_us = ns_per_call(5, 20, || {
        black_box(System::new(jetson()));
    }) / 1e3;

    // The three shard merges every serve pass and report fold through.
    let smc = SmcStats {
        requests: 3,
        batches: 1,
        peak_batch: 3,
        ..SmcStats::default()
    };
    let chan = ChannelStats {
        requests: 3,
        acts_per_bank: vec![1; 8],
        refreshes_per_rank: vec![1],
        ..ChannelStats::default()
    };
    let req = RequestorStats::new(0);
    let (mut smc_acc, mut chan_acc, mut req_acc) = (smc, chan.clone(), req);
    m.merge_ns = ns_per_call(5, 100_000, || {
        smc_acc.merge(black_box(&smc));
        chan_acc.merge(black_box(&chan));
        req_acc.merge(black_box(&req));
    }) / 3.0;

    let mut sys = System::new(jetson());
    sys.run(&mut LatMemRd::with_loads(64 * 1024, 64, 1_024));
    m.system_report_us = ns_per_call(5, 200, || {
        black_box(sys.report("probe"));
    }) / 1e3;

    let mut ring = EventRing::new(65_536);
    let mut id = 0u64;
    m.ring_push_ns = ns_per_call(5, 500_000, || {
        id += 1;
        ring.push(black_box(TraceEvent::enqueue(id * 700, id, 0, 0, 0)));
    });
    let mut hist = LogHistogram::default();
    let mut v = 1u64;
    m.hist_record_ns = ns_per_call(5, 500_000, || {
        v = v.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        hist.record(black_box(v >> 44));
    });

    // WorkerPool::run: four empty jobs on the two threads the t2 workload
    // uses — pure dispatch, wake and join.
    let pool = WorkerPool::new(2);
    m.pool_run_us_per_batch = ns_per_call(5, 500, || {
        let jobs: Vec<Box<dyn FnOnce() -> u64 + Send>> =
            (0..4u64).map(|i| Box::new(move || i) as _).collect();
        black_box(pool.run(jobs));
    }) / 1e3;
    drop(pool);

    m.handoff_ns = handoff_ns();

    // No per-cycle loop anywhere: ten times the emulated idle time between
    // requests must not cost more host time per request.
    m.idle_flatness = idle_chase_ns_per_req(100_000) / idle_chase_ns_per_req(10_000);

    // The software baseline's host cost per memory transaction.
    m.ramulator_ns_per_req = median(
        (0..3)
            .map(|_| {
                let mut ram = RamulatorSystem::new(RamulatorConfig::default());
                let r = ram.run(&mut LatMemRd::shuffled_with_loads(1 << 20, 64, 16_384));
                r.host_wall_seconds * 1e9 / r.mem_events.max(1) as f64
            })
            .collect(),
    );
    m
}

/// Timings that belong to one workload's op but are reported on every
/// traced run, so the set of per-layer metrics is the same everywhere.
#[derive(Default, Debug, Clone, Copy)]
pub struct CrossWorkload {
    pub speedup_t2: f64,
    pub lane_dispatch_us: f64,
    pub solo_ratio: f64,
    pub export_chrome_ns_per_event: f64,
    pub export_binary_ns_per_event: f64,
    pub events_per_op: f64,
    pub dropped_per_op: f64,
}

/// Median host ms of three plain runs of an op, and its lane-serve count.
fn op_ms(specs: &[SimSpec]) -> (f64, u64) {
    let refs = reference_checksums(specs);
    let mut lane_serves = 0;
    let ms = median(
        (0..3)
            .map(|_| {
                elapsed_ns(|| {
                    lane_serves = black_box(run_op(specs, &refs)).lane_serves;
                }) / 1e6
            })
            .collect(),
    );
    (ms, lane_serves)
}

pub fn cross_workload(variation_seed: u64) -> CrossWorkload {
    let mut c = CrossWorkload::default();

    // stream_write_t2's op at one engine thread over the same op at two.
    let (ms1, lane_serves) = op_ms(&[stream_t2_spec(variation_seed, 1)]);
    let (ms2, _) = op_ms(&[stream_t2_spec(variation_seed, 2)]);
    c.speedup_t2 = ms1 / ms2;
    c.lane_dispatch_us = (ms2 - ms1) * 1e3 / lane_serves.max(1) as f64;

    // corun_write's op over its four writers run one after another.
    c.solo_ratio =
        op_ms(&[corun_write_spec(variation_seed)]).0 / op_ms(&solo_writers_spec(variation_seed)).0;

    // corun_traced's own trace through both exporters.
    let log = traced_log(&corun_traced_spec(variation_seed));
    let events = log.events.len().max(1) as f64;
    c.events_per_op = log.events.len() as f64;
    c.dropped_per_op = log.dropped as f64;
    c.export_chrome_ns_per_event = ns_per_call(3, 1, || {
        black_box(log.to_chrome_json());
    }) / events;
    c.export_binary_ns_per_event = ns_per_call(3, 1, || {
        black_box(log.to_binary());
    }) / events;
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::capture_cmd_streams;

    #[test]
    fn a_captured_stream_replays_through_every_layer() {
        let spec = crate::workloads::specs("hammer_graphene", 1).unwrap();
        // Shrink the attack: the test only needs a stream with every class.
        let mut spec = spec[0].clone();
        spec.cores = vec![crate::workloads::Kernel::Hammer {
            victim_row: 300,
            iterations: 600,
        }];
        let streams = capture_cmd_streams(&[spec.clone()]);
        assert_eq!(streams.len(), 1);
        assert!(streams[0].cmds.iter().any(|c| c.mnemonic == "ACT"));
        let r = replay(&streams, spec.cfg.mapping);
        for v in [
            r.bender_run_ns_per_cmd,
            r.issue_ns_per_cmd,
            r.line_rw_ns,
            r.legal_apply_ns_per_cmd,
            r.earliest_ns_per_cmd,
            r.to_dram_ns,
            r.price_ns,
        ] {
            assert!(v > 0.0 && v.is_finite(), "{r:?}");
        }
    }

    #[test]
    fn the_baton_ping_pong_terminates() {
        assert!(handoff_ns() > 0.0);
    }
}
