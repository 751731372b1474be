//! The seven workloads: what one op simulates, how it is run (plain, or
//! under the timing wrappers), and how its outputs are checked.
//!
//! An op is a fixed bundle of fresh-system simulations. Construction is
//! inside the op because every figure point pays it. `--seed` picks the DRAM
//! variation seed, the hammer victim row and the order of the bundle; the
//! simulator only ever sees the generated configuration and kernels.

use std::hint::black_box;
use std::time::Instant;

use easydram::{
    validate_chrome_json, ExecutionReport, FrFcfsController, GrapheneController, MultiCoreSystem,
    SoftwareMemoryController, System, SystemConfig, TimingMode, TraceConfig, TraceLog,
};
use easydram_cpu::{CacheConfig, CoreModel, CpuApi, FixedLatencyBackend, Workload};
use easydram_dram::{CmdRecord, DramConfig};
use easydram_workloads::lmbench::LatMemRd;
use easydram_workloads::micro::{CpuCopy, FlushMode, RowCloneCopy};
use easydram_workloads::{polybench, HammerKernel, HammerPattern, PolySize, StreamWriter};

use crate::stats::{splitmix, Fnv};
use crate::timed::{LayerTotals, Span, SpanClock, SpanSink, TimedBackend, TimedController};

const KIB: u64 = 1024;
const MIB: u64 = 1024 * KIB;

/// Workload names, in the order every table prints them.
pub const NAMES: [&str; 7] = [
    "poly_compute",
    "mem_read",
    "stream_write",
    "stream_write_t2",
    "corun_write",
    "hammer_graphene",
    "corun_traced",
];

/// One program a core executes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    Poly(&'static str),
    Chase { bytes: u64, loads: u64 },
    Writer { bytes: u64 },
    CpuCopy { bytes: u64 },
    RowCloneCopy { bytes: u64 },
    Hammer { victim_row: u32, iterations: u64 },
}

/// A built kernel, kept concrete so its own integrity counters can be read
/// back after the run.
enum Built {
    Poly(Box<dyn Workload>),
    Chase(LatMemRd),
    Writer(StreamWriter),
    CpuCopy(CpuCopy),
    RowCloneCopy(RowCloneCopy),
    Hammer(HammerKernel),
}

impl Kernel {
    fn build(self, cfg: &SystemConfig) -> Built {
        match self {
            Kernel::Poly(name) => Built::Poly(
                polybench::by_name(name, PolySize::Small).expect("a PolyBench kernel name"),
            ),
            Kernel::Chase { bytes, loads } => {
                Built::Chase(LatMemRd::shuffled_with_loads(bytes, 64, loads))
            }
            // A target of one cycle means exactly one sweep.
            Kernel::Writer { bytes } => Built::Writer(StreamWriter::new(bytes, 1)),
            Kernel::CpuCopy { bytes } => Built::CpuCopy(CpuCopy::new(bytes)),
            Kernel::RowCloneCopy { bytes } => {
                Built::RowCloneCopy(RowCloneCopy::new(bytes, FlushMode::ClFlush))
            }
            Kernel::Hammer {
                victim_row,
                iterations,
            } => Built::Hammer(HammerKernel::in_bank(
                &cfg.dram.geometry,
                cfg.mapping,
                0,
                victim_row,
                HammerPattern::DoubleSided,
                iterations,
            )),
        }
    }
}

impl Built {
    fn workload(&mut self) -> &mut dyn Workload {
        match self {
            Built::Poly(w) => w.as_mut(),
            Built::Chase(w) => w,
            Built::Writer(w) => w,
            Built::CpuCopy(w) => w,
            Built::RowCloneCopy(w) => w,
            Built::Hammer(w) => w,
        }
    }

    /// Whether the kernel's own outputs are right: the checksum equals the
    /// same kernel's on `CoreModel<FixedLatencyBackend>`, copies verify
    /// without mismatch or CPU fallback, and the defended victim row holds.
    fn passed(&self, reference: Option<f64>) -> bool {
        match self {
            Built::Poly(w) => {
                w.result_checksum().map(f64::to_bits) == reference.map(f64::to_bits)
                    && reference.is_some()
            }
            Built::Chase(w) => w.loads() > 0,
            Built::Writer(w) => w.passes() == 1,
            Built::CpuCopy(w) => w.mismatches() == 0,
            Built::RowCloneCopy(w) => {
                let o = w.outcome();
                o.total_rows > 0 && o.mismatches == 0 && o.fallback_rows == 0
            }
            Built::Hammer(w) => w.bit_flips() == Some(0),
        }
    }
}

/// One simulation of an op: a configuration, one kernel per core, and the
/// controller to install. One core runs on `System`, more on
/// `MultiCoreSystem`.
#[derive(Clone, Debug)]
pub struct SimSpec {
    pub cfg: SystemConfig,
    pub cores: Vec<Kernel>,
    /// Co-scheduling quantum (co-runs only).
    pub quantum: u64,
    /// `Some((threshold, table_k))` installs Graphene over FR-FCFS.
    pub graphene: Option<(u64, usize)>,
    /// Drain the trace after the run and push it through both exporters.
    pub export_trace: bool,
}

impl SimSpec {
    fn single(cfg: SystemConfig, kernel: Kernel) -> Self {
        Self {
            cfg,
            cores: vec![kernel],
            quantum: 0,
            graphene: None,
            export_trace: false,
        }
    }

    fn controller(&self) -> Box<dyn SoftwareMemoryController> {
        match self.graphene {
            Some((threshold, k)) => Box::new(GrapheneController::new(threshold, k)),
            None => Box::new(FrFcfsController::new()),
        }
    }
}

/// Every config pins `threads` and `trace`, so neither the environment nor
/// the host's core count reaches the simulator.
fn pinned(mut cfg: SystemConfig, variation_seed: u64) -> SystemConfig {
    cfg.threads = Some(1);
    cfg.trace = None;
    cfg.dram.variation.seed = variation_seed;
    cfg
}

/// The `fig_latency_cdf` contention rig: small caches so both working sets
/// miss end to end, two channels of eight banks.
fn contention_rig(variation_seed: u64) -> SystemConfig {
    let mut cfg = pinned(
        SystemConfig::small_for_tests(TimingMode::Reference),
        variation_seed,
    );
    cfg.dram.geometry.channels = 2;
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

/// The four-writer co-run of `corun_write`, also the numerator of
/// `cosched.solo_ratio`.
pub fn corun_write_spec(variation_seed: u64) -> SimSpec {
    let mut cfg = pinned(
        SystemConfig::small_for_tests(TimingMode::Reference),
        variation_seed,
    );
    cfg.dram.geometry.channels = 4;
    cfg.write_buffer_depth = 256;
    SimSpec {
        cfg,
        cores: vec![Kernel::Writer { bytes: 256 * KIB }; 4],
        quantum: 200,
        graphene: None,
        export_trace: false,
    }
}

/// The single sweep of `stream_write_t2` at the given engine width, also
/// both sides of `par.speedup_t2`.
pub fn stream_t2_spec(variation_seed: u64, threads: u32) -> SimSpec {
    let mut cfg = pinned(
        SystemConfig::jetson_nano(TimingMode::TimeScaling),
        variation_seed,
    );
    cfg.dram.geometry.channels = 4;
    cfg.write_buffer_depth = 64;
    cfg.threads = Some(threads);
    SimSpec::single(cfg, Kernel::Writer { bytes: MIB })
}

/// The traced two-core co-run of `corun_traced`, also the source of the
/// `obs.*` exporter timings.
pub fn corun_traced_spec(variation_seed: u64) -> SimSpec {
    let mut cfg = contention_rig(variation_seed);
    cfg.trace = Some(TraceConfig::default());
    SimSpec {
        cfg,
        cores: vec![
            Kernel::Chase {
                bytes: 256 * KIB,
                loads: 2_048,
            },
            Kernel::Writer { bytes: 256 * KIB },
        ],
        quantum: 40,
        graphene: None,
        export_trace: true,
    }
}

/// The DRAM variation seed `--seed` stands for.
pub fn variation_seed(seed: u64) -> u64 {
    splitmix(seed ^ 0xEA5D_0D12)
}

/// The bundle of simulations one op of `workload` runs, derived from `seed`.
pub fn specs(workload: &str, seed: u64) -> Option<Vec<SimSpec>> {
    let vseed = variation_seed(seed);
    let jetson = || pinned(SystemConfig::jetson_nano(TimingMode::TimeScaling), vseed);
    let mut sims = match workload {
        "poly_compute" => [
            "gemm",
            "syrk",
            "symm",
            "correlation",
            "covariance",
            "gramschmidt",
            "durbin",
        ]
        .into_iter()
        .map(|k| SimSpec::single(jetson(), Kernel::Poly(k)))
        .collect::<Vec<_>>(),
        "mem_read" => vec![
            SimSpec::single(jetson(), Kernel::Poly("mvt")),
            SimSpec::single(jetson(), Kernel::Poly("trisolv")),
            SimSpec::single(
                jetson(),
                Kernel::Chase {
                    bytes: MIB,
                    loads: 16_384,
                },
            ),
        ],
        "stream_write" => {
            let mut cfg = jetson();
            cfg.dram.geometry.channels = 2;
            cfg.write_buffer_depth = 64;
            vec![
                SimSpec::single(cfg.clone(), Kernel::Writer { bytes: 2 * MIB }),
                SimSpec::single(cfg.clone(), Kernel::CpuCopy { bytes: 512 * KIB }),
                SimSpec::single(cfg, Kernel::RowCloneCopy { bytes: 512 * KIB }),
            ]
        }
        "stream_write_t2" => vec![stream_t2_spec(vseed, 2)],
        "corun_write" => vec![corun_write_spec(vseed)],
        "hammer_graphene" => {
            // The `fig_rowhammer` rig: HCfirst scaled down so the attack is
            // cheap, Graphene at half the effective minimum threshold.
            let mut cfg = pinned(SystemConfig::small_for_tests(TimingMode::Reference), vseed);
            cfg.dram.variation.disturb_enabled = true;
            cfg.dram.variation.hc_first = (2_048, 4_096);
            // Mid-subarray rows only: the whole blast radius stays inside
            // one 128-row subarray and far above the heap.
            let subarray = 2 + splitmix(seed) % 5;
            let offset = 32 + splitmix(seed ^ 1) % 64;
            vec![SimSpec {
                graphene: Some((512, 8)),
                ..SimSpec::single(
                    cfg,
                    Kernel::Hammer {
                        victim_row: (subarray * 128 + offset) as u32,
                        iterations: 40_000,
                    },
                )
            }]
        }
        "corun_traced" => vec![corun_traced_spec(vseed)],
        _ => return None,
    };
    // Seeded bundle order (Fisher–Yates on splitmix draws).
    for i in (1..sims.len()).rev() {
        let j = (splitmix(seed.wrapping_add(i as u64)) % (i as u64 + 1)) as usize;
        sims.swap(i, j);
    }
    Some(sims)
}

/// The simulated statistics one simulation is pinned by.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimCounts {
    pub emulated_cycles: u64,
    pub instructions: u64,
    pub requests: u64,
    pub batches: u64,
    pub row_hits: u64,
    pub row_misses: u64,
    pub row_conflicts: u64,
    pub activates: u64,
    pub reads: u64,
    pub writes: u64,
    pub precharges: u64,
    pub refreshes: u64,
    pub targeted_refreshes: u64,
    pub flips: u64,
    pub lat_p50: u64,
    pub lat_p99: u64,
}

impl SimCounts {
    fn from_parts(
        emulated_cycles: u64,
        instructions: u64,
        smc: &easydram::report::SmcStats,
        dram: &easydram_dram::DeviceStats,
        metrics: &easydram::TileMetrics,
    ) -> Self {
        Self {
            emulated_cycles,
            instructions,
            requests: smc.requests,
            batches: smc.batches,
            row_hits: smc.serve.row_hits,
            row_misses: smc.serve.row_misses,
            row_conflicts: smc.serve.row_conflicts,
            activates: dram.activates,
            reads: dram.reads,
            writes: dram.writes,
            precharges: dram.precharges,
            refreshes: dram.refreshes,
            targeted_refreshes: dram.targeted_refreshes,
            flips: dram.disturbance_flips,
            lat_p50: metrics.request_latency.percentile(50),
            lat_p99: metrics.request_latency.percentile(99),
        }
    }

    fn from_report(r: &ExecutionReport) -> Self {
        Self::from_parts(
            r.emulated_cycles,
            r.instructions,
            &r.smc,
            &r.dram,
            &r.metrics,
        )
    }

    fn words(&self) -> [u64; 16] {
        [
            self.emulated_cycles,
            self.instructions,
            self.requests,
            self.batches,
            self.row_hits,
            self.row_misses,
            self.row_conflicts,
            self.activates,
            self.reads,
            self.writes,
            self.precharges,
            self.refreshes,
            self.targeted_refreshes,
            self.flips,
            self.lat_p50,
            self.lat_p99,
        ]
    }

    /// DRAM commands of every class.
    pub fn dram_cmds(&self) -> u64 {
        self.activates
            + self.reads
            + self.writes
            + self.precharges
            + self.refreshes
            + self.targeted_refreshes
    }
}

/// What one op produced.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OpResult {
    /// One entry per simulation, in bundle order.
    pub sims: Vec<SimCounts>,
    /// Every kernel's own check and every trace export check passed.
    pub passed: bool,
    /// Events drained and lost by traced simulations.
    pub trace_events: u64,
    pub trace_dropped: u64,
    /// Lane serves (one per recorded batch size) over all simulations.
    pub lane_serves: u64,
}

impl OpResult {
    /// The op's sim digest: a hash over every simulation's counts in order.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        for s in &self.sims {
            for w in s.words() {
                h.word(w);
            }
        }
        h.0
    }

    pub fn sum(&self, f: impl Fn(&SimCounts) -> u64) -> u64 {
        self.sims.iter().map(f).sum()
    }
}

/// Reference checksums: each PolyBench kernel of the bundle run once on
/// `CoreModel<FixedLatencyBackend>` (no tile underneath).
pub fn reference_checksums(specs: &[SimSpec]) -> Vec<Vec<Option<f64>>> {
    specs
        .iter()
        .map(|spec| {
            spec.cores
                .iter()
                .map(|k| match k {
                    Kernel::Poly(_) => {
                        let mut core =
                            CoreModel::new(spec.cfg.core.clone(), FixedLatencyBackend::new(100));
                        let mut built = k.build(&spec.cfg);
                        built.workload().run(&mut core);
                        built.workload().result_checksum()
                    }
                    _ => None,
                })
                .collect()
        })
        .collect()
}

fn export_checks(log: &mut TraceLog, out: &mut OpResult) -> bool {
    log.sort_for_export();
    let chrome = log.to_chrome_json();
    let binary = log.to_binary();
    out.trace_events += log.events.len() as u64;
    out.trace_dropped += log.dropped;
    !log.events.is_empty()
        && validate_chrome_json(&chrome).is_ok()
        && log.tracks_monotone()
        && TraceLog::parse_binary(&binary).as_deref() == Some(log.events.as_slice())
}

fn co_run(spec: &SimSpec, mc: &mut MultiCoreSystem, refs: &[Option<f64>], out: &mut OpResult) {
    mc.set_quantum(spec.quantum);
    let mut built: Vec<Built> = spec.cores.iter().map(|k| k.build(&spec.cfg)).collect();
    let report = {
        let mut programs: Vec<&mut dyn Workload> = built.iter_mut().map(|b| b.workload()).collect();
        mc.co_run(&mut programs)
    };
    out.passed &= built.iter().zip(refs).all(|(b, r)| b.passed(*r));
    if spec.export_trace {
        out.passed &= export_checks(&mut mc.take_trace(), out);
    }
    out.lane_serves += report.aggregate.metrics.batch_size.count;
    out.sims.push(SimCounts::from_report(&report.aggregate));
}

/// The export-ready trace of one traced co-run (`obs.*` exporter timings).
pub fn traced_log(spec: &SimSpec) -> TraceLog {
    let mut mc = MultiCoreSystem::new(spec.cfg.clone(), spec.cores.len());
    let quiet = SimSpec {
        export_trace: false,
        ..spec.clone()
    };
    co_run(
        &quiet,
        &mut mc,
        &vec![None; spec.cores.len()],
        &mut OpResult::default(),
    );
    let mut log = mc.take_trace();
    log.sort_for_export();
    log
}

/// Runs one op the way a user would: `System::run` / `co_run` on fresh
/// systems, nothing wrapped.
pub fn run_op(specs: &[SimSpec], refs: &[Vec<Option<f64>>]) -> OpResult {
    let mut out = OpResult {
        passed: true,
        ..OpResult::default()
    };
    for (spec, refs) in specs.iter().zip(refs) {
        if spec.cores.len() > 1 {
            let mut mc = MultiCoreSystem::new(spec.cfg.clone(), spec.cores.len());
            if spec.graphene.is_some() {
                mc.with_tile(|t| t.install_controllers(|_| spec.controller()));
            }
            co_run(spec, &mut mc, refs, &mut out);
            continue;
        }
        let mut sys = System::new(spec.cfg.clone());
        if spec.graphene.is_some() {
            sys.tile_mut().install_controllers(|_| spec.controller());
        }
        let mut built = spec.cores[0].build(&spec.cfg);
        let report = sys.run(built.workload());
        out.passed &= built.passed(refs[0]);
        if spec.export_trace {
            out.passed &= export_checks(&mut sys.take_trace(), &mut out);
        }
        out.lane_serves += report.metrics.batch_size.count;
        out.sims.push(SimCounts::from_report(&report));
    }
    out
}

/// Span buffers and totals of a traced run.
pub struct Recorder {
    pub clock: SpanClock,
    tile_spans: Vec<Span>,
    sink: SpanSink,
    /// Host time inside `Workload::run` / `co_run` of the current op, ns.
    run_ns: u64,
    /// Whether any simulation of the op could not wrap the tile (co-runs).
    pub tile_unwrapped: bool,
    pub totals: LayerTotals,
    /// Host time of the traced ops as a whole, ns.
    pub op_ns: u64,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            clock: SpanClock::calibrate(),
            tile_spans: Vec::with_capacity(1 << 18),
            sink: SpanSink::default(),
            run_ns: 0,
            tile_unwrapped: false,
            totals: LayerTotals::default(),
            op_ns: 0,
        }
    }
}

/// Runs one op under the timing wrappers and folds its spans. The op's host
/// time is returned alongside its result.
///
/// Single-core simulations run on a `CoreModel` the benchmark builds over
/// `TimedBackend(&mut Tile)`, with a `TimedController` on every channel.
/// Co-runs get the `TimedController` only: `MultiCoreSystem` owns its cores.
pub fn run_op_traced(
    specs: &[SimSpec],
    refs: &[Vec<Option<f64>>],
    rec: &mut Recorder,
) -> (OpResult, u64) {
    let mut out = OpResult {
        passed: true,
        ..OpResult::default()
    };
    let op_start = Instant::now();
    for (spec, refs) in specs.iter().zip(refs) {
        let sink = rec.sink.clone();
        let timed = |_| -> Box<dyn SoftwareMemoryController> {
            Box::new(TimedController::new(spec.controller(), sink.clone()))
        };
        if spec.cores.len() > 1 {
            rec.tile_unwrapped = true;
            let mut mc = MultiCoreSystem::new(spec.cfg.clone(), spec.cores.len());
            mc.with_tile(|t| t.install_controllers(timed));
            let t0 = Instant::now();
            co_run(spec, &mut mc, refs, &mut out);
            rec.run_ns += t0.elapsed().as_nanos() as u64;
            continue;
        }
        let mut sys = System::new(spec.cfg.clone());
        sys.tile_mut().install_controllers(timed);
        let mut built = spec.cores[0].build(&spec.cfg);
        let (cycles, instructions) = {
            let backend = TimedBackend::new(sys.tile_mut(), &mut rec.tile_spans);
            let mut core = CoreModel::new(spec.cfg.core.clone(), backend);
            let t0 = Instant::now();
            built.workload().run(&mut core);
            rec.run_ns += t0.elapsed().as_nanos() as u64;
            (core.now_cycles(), core.stats().instructions)
        };
        // `System::run` ends by assembling a report; pay that here too.
        black_box(sys.report(built.workload().name()));
        out.passed &= built.passed(refs[0]);
        if spec.export_trace {
            out.passed &= export_checks(&mut sys.take_trace(), &mut out);
        }
        let tile = sys.tile();
        out.lane_serves += tile.metrics().batch_size.count;
        out.sims.push(SimCounts::from_parts(
            cycles,
            instructions,
            tile.smc_stats(),
            &tile.device_stats(),
            &tile.metrics(),
        ));
    }
    let op_ns = op_start.elapsed().as_nanos() as u64;
    rec.op_ns += op_ns;
    // Every system of the op is dropped by now, so every controller has
    // handed its spans over.
    let mut smc = rec.sink.lock().expect("no controller outlives its op");
    rec.totals.fold(
        std::mem::take(&mut rec.run_ns),
        &mut rec.tile_spans,
        &mut smc,
        &rec.clock,
    );
    drop(smc);
    (out, op_ns)
}

/// One channel's command stream, captured from a real op.
pub struct CmdStream {
    pub dram: DramConfig,
    pub cmds: Vec<CmdRecord>,
}

/// Runs the op once more with `DramDevice::enable_cmd_trace` on every
/// channel and returns each channel's stream (streams that overflowed the
/// ring are dropped: a stream must start from a fresh device to replay).
pub fn capture_cmd_streams(specs: &[SimSpec]) -> Vec<CmdStream> {
    const CAPACITY: usize = 1 << 22;
    let mut streams = Vec::new();
    let mut keep = |dram: DramConfig, (cmds, dropped): (Vec<CmdRecord>, u64)| {
        if dropped == 0 && !cmds.is_empty() {
            streams.push(CmdStream { dram, cmds });
        }
    };
    for spec in specs {
        let channels = spec.cfg.dram.geometry.channels;
        let mut built: Vec<Built> = spec.cores.iter().map(|k| k.build(&spec.cfg)).collect();
        if built.len() > 1 {
            let mut mc = MultiCoreSystem::new(spec.cfg.clone(), built.len());
            mc.set_quantum(spec.quantum);
            mc.with_tile(|t| {
                t.install_controllers(|_| spec.controller());
                for ch in 0..channels {
                    t.channel_device_mut(ch).enable_cmd_trace(CAPACITY);
                }
            });
            let mut programs: Vec<&mut dyn Workload> =
                built.iter_mut().map(|b| b.workload()).collect();
            mc.co_run(&mut programs);
            mc.with_tile(|t| {
                for ch in 0..channels {
                    let dev = t.channel_device_mut(ch);
                    keep(dev.config().clone(), dev.take_cmd_trace());
                }
            });
        } else {
            let mut sys = System::new(spec.cfg.clone());
            sys.tile_mut().install_controllers(|_| spec.controller());
            for ch in 0..channels {
                sys.tile_mut()
                    .channel_device_mut(ch)
                    .enable_cmd_trace(CAPACITY);
            }
            sys.run(built[0].workload());
            for ch in 0..channels {
                let dev = sys.tile_mut().channel_device_mut(ch);
                keep(dev.config().clone(), dev.take_cmd_trace());
            }
        }
    }
    streams
}

/// `timescale_err_pct`: the largest |TimeScaling − Reference| emulated
/// cycles over Reference among the op's simulations, each run on its own
/// geometry with `validation_1ghz`'s clocks (co-runs: makespan).
pub fn timescale_err_pct(specs: &[SimSpec], refs: &[Vec<Option<f64>>]) -> f64 {
    let clocks = SystemConfig::validation_1ghz(TimingMode::Reference);
    let cycles = |mode: TimingMode| -> Vec<u64> {
        let moded: Vec<SimSpec> = specs
            .iter()
            .map(|s| {
                let mut s = s.clone();
                s.cfg.mode = mode;
                s.cfg.core.freq_hz = clocks.core.freq_hz;
                s.cfg.fpga.proc_clk_hz = clocks.fpga.proc_clk_hz;
                s.cfg.threads = Some(1);
                s.cfg.trace = None;
                s.export_trace = false;
                s
            })
            .collect();
        run_op(&moded, refs)
            .sims
            .iter()
            .map(|c| c.emulated_cycles)
            .collect()
    };
    let reference = cycles(TimingMode::Reference);
    let scaled = cycles(TimingMode::TimeScaling);
    reference
        .iter()
        .zip(&scaled)
        .map(|(&r, &s)| r.abs_diff(s) as f64 * 100.0 / r.max(1) as f64)
        .fold(0.0, f64::max)
}

/// The four writers of `corun_write` run one after another, each on a fresh
/// `System` of the co-run's configuration: the denominator of
/// `cosched.solo_ratio`.
pub fn solo_writers_spec(variation_seed: u64) -> Vec<SimSpec> {
    let co = corun_write_spec(variation_seed);
    co.cores
        .iter()
        .map(|&k| SimSpec::single(co.cfg.clone(), k))
        .collect()
}

/// A benchmark-owned chase for `tile.idle_flatness`: `loads` dependent cold
/// misses with `idle_ops` of compute between them.
pub struct IdleChase {
    pub loads: u64,
    pub idle_ops: u64,
}

impl Workload for IdleChase {
    fn name(&self) -> &str {
        "idle-chase"
    }

    fn run(&mut self, cpu: &mut dyn CpuApi) {
        let base = cpu.alloc(self.loads * 64, 64);
        for i in 0..self.loads {
            black_box(cpu.load_u64(base + i * 64));
            cpu.compute(self.idle_ops);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A bundle small enough for a debug-profile test: one cache-resident
    /// kernel, one that reaches the tile on both the read and write path.
    fn tiny() -> Vec<SimSpec> {
        let cfg = pinned(SystemConfig::small_for_tests(TimingMode::TimeScaling), 7);
        vec![
            SimSpec::single(cfg.clone(), Kernel::Poly("durbin")),
            SimSpec::single(cfg.clone(), Kernel::CpuCopy { bytes: 16 * KIB }),
            SimSpec::single(cfg, Kernel::Writer { bytes: 64 * KIB }),
        ]
    }

    #[test]
    fn digest_is_stable_across_repeats_and_sensitive_to_counts() {
        let specs = tiny();
        let refs = reference_checksums(&specs);
        let a = run_op(&specs, &refs);
        let b = run_op(&specs, &refs);
        assert!(a.passed);
        assert_eq!(a.digest(), b.digest());
        let mut c = a.clone();
        c.sims[0].lat_p99 += 1;
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn timing_wrappers_do_not_change_the_simulation() {
        let specs = tiny();
        let refs = reference_checksums(&specs);
        let plain = run_op(&specs, &refs);
        let mut rec = Recorder::new();
        let (traced, op_ns) = run_op_traced(&specs, &refs, &mut rec);
        assert!(traced.passed);
        assert_eq!(plain.sims, traced.sims);
        assert_eq!(plain.digest(), traced.digest());
        assert!(rec.totals.tile_spans > 0 && rec.totals.smc_spans > 0);
        assert!(rec.totals.root_ns <= op_ns && rec.totals.tile_ns <= rec.totals.root_ns);
        assert!(rec.totals.smc_covered_ns <= rec.totals.tile_ns);
    }

    #[test]
    fn a_wrong_reference_checksum_fails_the_op() {
        let specs = tiny();
        let mut refs = reference_checksums(&specs);
        refs[0][0] = refs[0][0].map(|c| c + 1.0);
        assert!(!run_op(&specs, &refs).passed);
    }

    #[test]
    fn every_named_workload_has_a_bundle_and_seed_moves_only_inputs() {
        for name in NAMES {
            let a = specs(name, 1).expect("named workload");
            let b = specs(name, 2).expect("named workload");
            assert_eq!(a.len(), b.len(), "{name}");
            for s in a.iter().chain(&b) {
                assert!(s.cfg.threads.is_some(), "{name} pins threads");
                assert!(s.cfg.validate().is_ok(), "{name}");
            }
            assert_ne!(
                a[0].cfg.dram.variation.seed, b[0].cfg.dram.variation.seed,
                "{name}"
            );
        }
        assert!(specs("nope", 1).is_none());
    }
}
