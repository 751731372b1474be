//! The assembled EasyDRAM system: BOOM-class core + EasyTile (programmable
//! memory controller + DRAM Bender) + real-DRAM model, advanced under one of
//! the three timing modes.
//!
//! The [`Tile`] implements [`MemoryBackend`]: every cache-line request from
//! the core runs end-to-end through the software memory controller
//! ([`crate::SoftwareMemoryController`]), DRAM Bender, and the device — the
//! lifetime of a memory request in paper Figure 6. The tile decodes and tags
//! a request once, when it posts it ([`crate::request::RequestTag`]); the tag
//! rides the request into the controller and comes back on the response, so a
//! serve pass keeps no per-request side table: it checks that every pending
//! id was answered exactly once, then prices and attributes each response
//! from the response alone. The configured [`crate::TimingMode`] is
//! interpreted in one place, `Pricing::release_cycle` in [`crate::timescale`].

use easydram_cpu::backend::{LineFetch, MemoryBackend, RowCloneRequestResult};
use easydram_cpu::cache::CacheLevelStats;
use easydram_cpu::timescale::Clock;
use easydram_cpu::{CoreModel, CoreStats, CpuApi, Workload};
use easydram_dram::{AddressMapper, DramAddress, DramDevice, LINE_BYTES};

use crate::alloc::RowCloneAllocator;
use crate::config::SystemConfig;
use crate::counters::{counters, Counters};
use crate::obs::{EventKind, EventRing, TileMetrics, TraceEvent, TraceLog};
use crate::obs_trace;
use crate::report::{BankRowOutcomes, ChannelStats, ExecutionReport, RequestorStats, SmcStats};
use crate::request::{MemRequest, MemResponse, RequestClass, RequestKind};
use crate::smc::easyapi::{ApiLedger, ApiSession};
use crate::smc::{FrFcfsController, ServeResult, SoftwareMemoryController, TrcdPlan};
use crate::timeline::{EmulatedTimeline, TimelineDemand};
use crate::timescale::Pricing;

/// What a serve pass hands back to the core side.
#[derive(Default)]
struct Served {
    /// The latest release cycle among the pass's responses; `None` when
    /// nothing was pending.
    latest_release: Option<u64>,
    /// The awaited request's data, corruption flag and release cycle.
    awaited: Option<(Option<[u8; LINE_BYTES]>, bool, u64)>,
}

/// One lane's finished controller invocation, pending pricing (its ledger
/// and responses stay in the lane's session).
struct LanePass {
    batch: u64,
    serve_res: ServeResult,
}

/// Stage three of a serve pass: where one lane's priced pass is accounted —
/// the tile's totals, histograms and per-requestor counters, the lane's
/// counters and its trace ring.
struct Books<'a> {
    ch: u32,
    pass: &'a Pricing,
    smc: &'a mut SmcStats,
    metrics: &'a mut TileMetrics,
    requestors: &'a mut Vec<RequestorStats>,
    channel: &'a mut ChannelStats,
    ring: &'a mut Option<EventRing>,
}

impl Books<'_> {
    /// Folds the lane's pass into the tile-wide and per-channel stats (sums
    /// plus a max for `peak_batch`; see `counters.rs`).
    #[inline]
    fn lane_pass(
        &mut self,
        p: &LanePass,
        ledger: &ApiLedger,
        controller: &dyn SoftwareMemoryController,
        mit_seen: &mut u64,
    ) {
        self.smc.fold(&SmcStats {
            requests: p.batch,
            rocket_cycles: ledger.totals.rocket_cycles,
            hw_cycles: ledger.hw_cycles,
            batches: ledger.totals.batches,
            peak_batch: p.batch,
            serve: p.serve_res,
            ..SmcStats::default()
        });
        self.metrics.batch_size.record(p.batch);
        self.channel.fold(&ChannelStats {
            requests: p.batch,
            rocket_cycles: ledger.totals.rocket_cycles,
            hw_cycles: ledger.hw_cycles,
            batches: ledger.totals.batches,
            serve: p.serve_res,
            ..ChannelStats::default()
        });
        // Mitigation activity becomes per-pass delta events: the cumulative
        // policy counter is differenced against what this lane's ring has
        // already seen. Only maintained while tracing — the counter itself
        // reaches reports through `mitigation_stats`.
        let Some(ring) = &mut *self.ring else { return };
        let refreshes = (controller.mitigation_stats()).map_or(0, |m| m.targeted_refreshes);
        if refreshes > *mit_seen {
            let delta = u32::try_from(refreshes - *mit_seen).unwrap_or(u32::MAX);
            *mit_seen = refreshes;
            let trigger_ps = self.pass.core.cycles_to_ps(self.pass.trigger_cycle);
            ring.push(TraceEvent::mitigation(trigger_ps, self.ch, delta));
        }
    }

    /// Accounts one response released at `release_cycle` after its data
    /// movement finished at `finish_mem_ps`.
    #[inline]
    fn response(&mut self, resp: &MemResponse, finish_mem_ps: u64, release_cycle: u64) {
        let (tag, bank) = (resp.tag, resp.tag.dram.bank as usize);
        // Per-requestor attribution: the response's slice carries exactly
        // this request's share of the pass.
        let rs = Tile::requestor_slot(self.requestors, tag.requestor);
        rs.requests += 1;
        match tag.class {
            RequestClass::Read => rs.reads += 1,
            RequestClass::Write => rs.writes += 1,
            RequestClass::RowClone => rs.rowclones += 1,
        }
        rs.row_hits += resp.slice.row_hits;
        rs.row_misses += resp.slice.row_misses;
        rs.row_conflicts += resp.slice.row_conflicts;
        rs.rocket_cycles += resp.slice.rocket_cycles;
        rs.dram_occupancy_ps += resp.slice.dram_occupancy_ps;
        rs.column_ops += resp.slice.column_ops;
        // Per-bank row-buffer outcome histogram, by the tag's decoded bank.
        let per_bank = &mut self.channel.row_outcomes_per_bank;
        if per_bank.len() <= bank {
            per_bank.resize(bank + 1, BankRowOutcomes::default());
        }
        per_bank[bank].fold(&BankRowOutcomes {
            hits: resp.slice.row_hits,
            misses: resp.slice.row_misses,
            conflicts: resp.slice.row_conflicts,
        });
        // Always-on latency metrics: identical traced and untraced.
        let latency_cycles = release_cycle - tag.arrival_cycle;
        self.metrics.request_latency.record(latency_cycles);
        match tag.class {
            RequestClass::Read => self.metrics.read_latency.record(latency_cycles),
            RequestClass::Write => self.metrics.write_latency.record(latency_cycles),
            RequestClass::RowClone => {}
        }
        let Some(ring) = &mut *self.ring else { return };
        let (id, ch, who) = (tag.id, self.ch, tag.requestor);
        let trigger_ps = self.pass.core.cycles_to_ps(self.pass.trigger_cycle);
        ring.push(TraceEvent::issue(trigger_ps, id, ch, who));
        ring.push(TraceEvent::slice_release(finish_mem_ps, id, ch, who));
        let retire_ps = self.pass.core.cycles_to_ps(release_cycle);
        ring.push(TraceEvent::retire(retire_ps, id, ch, who, tag.class as u32));
    }
}

/// One memory channel of the sharded tile: a private device (all ranks of
/// the channel, rank-folded), a private pending-request FIFO, one software
/// memory controller instance, and the channel's emulated timeline. Serve
/// passes run each lane's batch independently — channels overlap freely,
/// which is where multi-channel speedup comes from.
struct Lane {
    device: DramDevice,
    session: ApiSession,
    timeline: EmulatedTimeline,
    controller: Box<dyn SoftwareMemoryController>,
    /// Cumulative per-channel counters (refresh counts live on the
    /// timeline; see [`Tile::channel_stats`]).
    stats: ChannelStats,
    /// Event-trace ring, `None` when tracing is off (the hot path pays one
    /// branch per site; see [`crate::obs`]).
    ring: Option<EventRing>,
    /// The installed controller's mitigation targeted-refresh total already
    /// emitted as trace events — only maintained while tracing, to turn the
    /// cumulative counter into per-pass delta events.
    mit_seen: u64,
    /// This lane's share of the pass in flight: executed, not yet priced.
    pass: Option<LanePass>,
}

/// One core's clock and counters at one instant.
#[derive(Clone, Copy)]
pub(crate) struct CoreMark {
    pub(crate) cycles: u64,
    pub(crate) stats: CoreStats,
}

counters!(CoreMark: sum { cycles, stats });

impl CoreMark {
    pub(crate) fn of<B: MemoryBackend>(core: &CoreModel<B>) -> Self {
        Self {
            cycles: core.now_cycles(),
            stats: *core.stats(),
        }
    }
}

/// Everything a report windows, read at one instant by [`Tile::mark`]: the
/// cores' clocks and counters, the modeled FPGA wall clock and the tile-side
/// sections of an [`ExecutionReport`]. A run window is `now.since(&start)`;
/// a lifetime report is the window from zero, i.e. the mark itself.
#[derive(Clone)]
pub(crate) struct Mark {
    pub(crate) cores: Vec<CoreMark>,
    wall_ps: u64,
    smc: SmcStats,
    channels: Vec<ChannelStats>,
    requestors: Vec<RequestorStats>,
    mitigation: Option<crate::smc::MitigationStats>,
    metrics: TileMetrics,
}

counters!(Mark: sum {
    cores,
    wall_ps,
    smc,
    channels,
    requestors,
    mitigation,
    metrics,
});

/// The EasyTile plus DRAM: the memory system behind the core, sharded into
/// one lane (device + session + controller + timeline) per memory channel.
pub struct Tile {
    cfg: SystemConfig,
    /// The emulated-processor domain's FPGA clock (`fpga.proc_clk_hz`).
    proc_clk: Clock,
    /// The modeled processor's clock, the MC-emulation clock and the DRAM
    /// command grid, which every pass prices its responses with.
    pricing: Pricing,
    lanes: Vec<Lane>,
    /// The heap and RowClone placement: remap table, qualified pairs, init
    /// sources (paper §7.1), and with them the one address decode.
    placement: RowCloneAllocator,
    /// Absolute FPGA/DRAM wall clock, ps.
    wall_ps: u64,
    /// Total wall time the processor domain spent clock-gated, ps.
    frozen_ps: u64,
    /// Globally unique request ids across every lane's session.
    next_req_id: u64,
    /// The first id posted since the last serve pass. Every pass drains
    /// every lane, so a pass's pending ids are `first_pending_id..next_req_id`.
    first_pending_id: u64,
    /// Which of the pass's pending ids have been answered, indexed by
    /// `id - first_pending_id` (recycled across passes).
    answered: Vec<bool>,
    /// The core id tagged onto subsequently posted requests
    /// ([`MemoryBackend::set_requestor`]); 0 outside multi-core runs.
    current_requestor: u32,
    /// Cumulative per-requestor counters, indexed by requestor id (grown on
    /// demand; single-core systems only ever populate entry 0).
    requestor_stats: Vec<RequestorStats>,
    stats: SmcStats,
    /// Always-on latency/depth/batch histograms, accumulated in the
    /// pricing reduction (identical whether or not tracing is enabled).
    metrics: TileMetrics,
}

impl Tile {
    pub(crate) fn new(cfg: SystemConfig) -> Self {
        let geometry = cfg.dram.geometry.clone();
        let placement = RowCloneAllocator::new(
            AddressMapper::new(geometry.clone(), cfg.mapping),
            cfg.rowclone_test_trials,
        );
        let lanes = (0..geometry.channels)
            .map(|ch| {
                let mut dram = cfg.dram.clone();
                dram.geometry = geometry.per_channel();
                // Each channel is a distinct physical module: its variation
                // field derives from a per-channel seed (channel 0 keeps the
                // configured seed, so single-channel systems are unchanged).
                dram.variation.seed = dram.variation.seed.wrapping_add(u64::from(ch));
                let mut device = DramDevice::new(dram);
                if let Some(t) = cfg.trace {
                    device.enable_cmd_trace(t.ring_capacity);
                }
                Lane {
                    device,
                    session: ApiSession::new(&cfg),
                    timeline: EmulatedTimeline::with_ranks(
                        geometry.ranks as usize,
                        geometry.banks() as usize,
                        &cfg.dram.timing,
                        true,
                    ),
                    controller: Box::new(FrFcfsController::new()),
                    stats: ChannelStats::default(),
                    ring: cfg.trace.map(|t| EventRing::new(t.ring_capacity)),
                    mit_seen: 0,
                    pass: None,
                }
            })
            .collect();
        Self {
            proc_clk: Clock::from_hz(cfg.fpga.proc_clk_hz),
            pricing: Pricing::new(&cfg),
            cfg,
            lanes,
            placement,
            wall_ps: 0,
            frozen_ps: 0,
            next_req_id: 0,
            first_pending_id: 0,
            answered: Vec::new(),
            current_requestor: 0,
            requestor_stats: Vec::new(),
            stats: SmcStats::default(),
            metrics: TileMetrics::default(),
        }
    }

    /// The cumulative always-on metric frame (latency/depth/batch
    /// histograms). `System::run` rebases it per window like [`SmcStats`].
    #[must_use]
    pub fn metrics(&self) -> TileMetrics {
        self.metrics
    }

    /// Drains every lane's event ring and every channel device's command
    /// ring into one export-ready [`TraceLog`]. Empty when tracing is off.
    /// Tracing stays enabled afterwards, so a harness can capture one log
    /// per run window.
    pub fn take_trace(&mut self) -> TraceLog {
        self.take_trace_with_room(0)
    }

    /// [`Tile::take_trace`] into a log reserved once, for every ring plus
    /// `room` more events.
    pub(crate) fn take_trace_with_room(&mut self, room: usize) -> TraceLog {
        let commands: Vec<_> = (self.lanes.iter_mut())
            .map(|lane| lane.device.take_cmd_trace())
            .collect();
        let lane_events: usize = (self.lanes.iter())
            .filter_map(|lane| lane.ring.as_ref().map(EventRing::len))
            .sum();
        let command_events: usize = commands.iter().map(|(records, _)| records.len()).sum();
        let mut log = TraceLog {
            events: Vec::with_capacity(lane_events + command_events + room),
            dropped: 0,
        };
        for ((ch, lane), (records, dropped)) in self.lanes.iter_mut().enumerate().zip(commands) {
            if let Some(ring) = lane.ring.as_mut() {
                log.dropped += ring.drain_into(&mut log.events);
            }
            log.dropped += dropped;
            log.events.extend(records.into_iter().map(|rec| {
                let kind = EventKind::from_mnemonic(rec.mnemonic);
                TraceEvent::command(rec.ps, ch as u32, kind, rec.bank, rec.arg)
            }));
        }
        log
    }

    /// The system configuration.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The DRAM device behind one channel.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is outside the configured geometry.
    #[must_use]
    pub fn channel_device(&self, channel: u32) -> &DramDevice {
        &self.lanes[channel as usize].device
    }

    /// Mutable access to one channel's DRAM device.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is outside the configured geometry.
    pub fn channel_device_mut(&mut self, channel: u32) -> &mut DramDevice {
        &mut self.lanes[channel as usize].device
    }

    /// Number of memory channels the tile is sharded into.
    #[must_use]
    pub fn channels(&self) -> u32 {
        self.lanes.len() as u32
    }

    /// Device statistics aggregated across every channel.
    #[must_use]
    pub fn device_stats(&self) -> easydram_dram::DeviceStats {
        let mut total = easydram_dram::DeviceStats::default();
        for lane in &self.lanes {
            total.fold(lane.device.stats());
        }
        total
    }

    /// Accumulated controller statistics (system-wide totals).
    #[must_use]
    pub fn smc_stats(&self) -> &SmcStats {
        &self.stats
    }

    /// Cumulative per-channel controller statistics, one entry per channel.
    /// Refresh counts come from each channel's emulated timeline, per rank.
    #[must_use]
    pub fn channel_stats(&self) -> Vec<ChannelStats> {
        self.lanes
            .iter()
            .map(|lane| {
                let mut s = lane.stats.clone();
                s.refreshes_per_rank = lane.timeline.refreshes_per_rank().to_vec();
                s.acts_per_bank = lane.device.acts_per_bank().to_vec();
                s
            })
            .collect()
    }

    /// Cumulative RowHammer-mitigation counters summed over every channel
    /// whose controller runs a mitigation policy. `None` when no installed
    /// controller mitigates.
    #[must_use]
    pub fn mitigation_stats(&self) -> Option<crate::smc::MitigationStats> {
        let mut total: Option<crate::smc::MitigationStats> = None;
        for lane in &self.lanes {
            total.fold(&lane.controller.mitigation_stats());
        }
        total
    }

    /// Total modeled FPGA wall time so far given the processor has emulated
    /// `proc_cycles` cycles: processor-domain execution plus frozen time.
    fn wall_ps_at(&self, proc_cycles: u64) -> u64 {
        self.proc_clk.cycles_to_ps(proc_cycles) + self.frozen_ps
    }

    /// Installs a different software memory controller.
    ///
    /// # Panics
    ///
    /// Panics on multi-channel systems — every channel runs its own
    /// controller instance, so use [`Tile::install_controllers`] there.
    pub fn install_controller(&mut self, controller: Box<dyn SoftwareMemoryController>) {
        assert_eq!(
            self.lanes.len(),
            1,
            "multi-channel tiles need one controller per channel; use install_controllers"
        );
        self.lanes[0].controller = controller;
        self.lanes[0].mit_seen = 0;
    }

    /// Installs one software memory controller instance per channel: `make`
    /// is called with each channel index and returns that channel's
    /// instance.
    pub fn install_controllers<F>(&mut self, mut make: F)
    where
        F: FnMut(u32) -> Box<dyn SoftwareMemoryController>,
    {
        for (ch, lane) in self.lanes.iter_mut().enumerate() {
            lane.controller = make(ch as u32);
            lane.mit_seen = 0;
        }
    }

    /// The installed controller's name when every channel runs the same
    /// controller type, or `"mixed"` when [`Tile::install_controllers`]
    /// installed heterogeneous per-channel controllers (reporting channel
    /// 0's name for a mixed tile would mislabel sweep outputs). Per-channel
    /// names are available from [`Tile::controller_names`].
    #[must_use]
    pub fn controller_name(&self) -> &str {
        let first = self.lanes[0].controller.name();
        if self
            .lanes
            .iter()
            .all(|lane| lane.controller.name() == first)
        {
            first
        } else {
            "mixed"
        }
    }

    /// The installed controller's name on every channel, in channel order.
    #[must_use]
    pub fn controller_names(&self) -> Vec<String> {
        self.lanes
            .iter()
            .map(|lane| lane.controller.name().to_string())
            .collect()
    }

    /// Cumulative per-requestor counters, indexed by requestor id. Entry `i`
    /// describes everything core `i` has asked of the memory system; the
    /// entries partition the tile-wide totals. Stall cycles are core-side
    /// state: see each core's `CoreStats`.
    #[must_use]
    pub fn requestor_stats(&self) -> Vec<RequestorStats> {
        self.requestor_stats.clone()
    }

    /// The cumulative counter slot of one requestor, grown on demand.
    fn requestor_slot(stats: &mut Vec<RequestorStats>, requestor: u32) -> &mut RequestorStats {
        let idx = requestor as usize;
        while stats.len() <= idx {
            let id = stats.len() as u32;
            stats.push(RequestorStats::new(id));
        }
        &mut stats[idx]
    }

    /// Reads every windowed quantity at this instant. `cores` are the cores
    /// sharing the tile; the wall clock runs to the furthest of them.
    pub(crate) fn mark(&self, cores: Vec<CoreMark>) -> Mark {
        let furthest = cores.iter().map(|c| c.cycles).max().unwrap_or(0);
        Mark {
            cores,
            wall_ps: self.wall_ps_at(furthest),
            smc: self.stats,
            channels: self.channel_stats(),
            requestors: self.requestor_stats(),
            mitigation: self.mitigation_stats(),
            metrics: self.metrics,
        }
    }

    /// Opens a run window: marks the start and begins a fresh `peak_batch`
    /// observation, so the window reports its own peak, not the lifetime one.
    pub(crate) fn open_window(&mut self, cores: Vec<CoreMark>) -> Mark {
        let start = self.mark(cores);
        self.stats.peak_batch = 0;
        start
    }

    /// Closes the window opened at `start`: everything since, with the
    /// earlier peak folded back into the lifetime `peak_batch`.
    pub(crate) fn close_window(&mut self, start: &Mark, cores: Vec<CoreMark>) -> Mark {
        let window = self.mark(cores).since(start);
        self.stats.peak_batch = self.stats.peak_batch.max(start.smc.peak_batch);
        window
    }

    /// Assembles the report on `window`. The cores' counters sum and the
    /// slowest core's cycles are the window's length (its makespan); the
    /// cache and device statistics are not windowed.
    pub(crate) fn report_over(
        &self,
        name: String,
        window: Mark,
        l1: Option<CacheLevelStats>,
        l2: Option<CacheLevelStats>,
    ) -> ExecutionReport {
        let cycles = window.cores.iter().map(|c| c.cycles).max().unwrap_or(0);
        let mut core = CoreStats::default();
        for c in &window.cores {
            core.fold(&c.stats);
        }
        let wall_s = window.wall_ps as f64 / 1e12;
        ExecutionReport {
            name,
            mode: self.cfg.mode,
            emulated_cycles: cycles,
            emulated_seconds: cycles as f64 / self.cfg.core.freq_hz as f64,
            instructions: core.instructions,
            fpga_wall_seconds: wall_s,
            sim_speed_hz: if wall_s > 0.0 {
                cycles as f64 / wall_s
            } else {
                0.0
            },
            mem_reads_per_kilo_cycle: core.mem_reads_per_kilo_cycle(cycles),
            core,
            l1,
            l2,
            dram: self.device_stats(),
            smc: window.smc,
            channels: window.channels,
            controllers: self.controller_names(),
            requestors: window.requestors,
            mitigation: window.mitigation,
            metrics: window.metrics,
        }
    }

    /// The invariant [`crate::request::RequestTag::dram`] documents: every
    /// pending request's tag equals the current decode of its address.
    fn tags_match_decode(&self) -> bool {
        self.lanes
            .iter()
            .flat_map(|l| l.session.pending())
            .all(|r| r.tag.dram == self.placement.decode(r.addr()))
    }

    /// Posts one request into its channel's pending stream under a globally
    /// unique id, without serving it. Returns the id. Host-side tooling and
    /// scaling experiments use this to build multi-channel batches; the
    /// normal request paths go through [`MemoryBackend`].
    pub fn post_request(&mut self, kind: RequestKind, issue_cycle: u64) -> u64 {
        self.post_decoded(self.placement.decode(kind.addr()), kind, issue_cycle)
    }

    /// Tags a request whose address decodes to `dram` and posts it to its
    /// channel's session.
    fn post_decoded(&mut self, dram: DramAddress, kind: RequestKind, issue_cycle: u64) -> u64 {
        let id = self.next_req_id;
        self.next_req_id += 1;
        let req = MemRequest::new(id, self.current_requestor, kind, issue_cycle, dram);
        let lane = &mut self.lanes[dram.channel as usize];
        obs_trace!(
            lane.ring,
            TraceEvent::enqueue(
                self.pricing.core.cycles_to_ps(issue_cycle),
                id,
                dram.channel,
                req.tag.requestor,
                req.tag.class as u32
            )
        );
        lane.session.post(req);
        id
    }

    /// Remaining capacity-independent drain: serves everything pending in
    /// one batched pass and returns the latest release cycle (or
    /// `trigger_cycle` when nothing was pending).
    fn drain(&mut self, trigger_cycle: u64) -> u64 {
        self.serve_pass(trigger_cycle, None)
            .latest_release
            .unwrap_or(trigger_cycle)
    }

    /// Posts one request and immediately drains the stream, returning that
    /// request's response (host-side single-request path: reads, RowClone,
    /// profiling).
    fn serve_one(
        &mut self,
        kind: RequestKind,
        issue_cycle: u64,
    ) -> (Option<[u8; LINE_BYTES]>, bool, u64) {
        let id = self.post_request(kind, issue_cycle);
        self.serve_pass(issue_cycle, Some(id))
            .awaited
            .expect("the pass answers every pending request")
    }

    /// One batched serve pass over the whole pending stream (paper §4.1,
    /// Listing 1), sharded by channel, in three stages. [`Tile::execute`]
    /// runs every live lane's controller. Every response is then priced on
    /// its lane's emulated timeline from its own tag and
    /// [`crate::request::ResponseSlice`], in controller service order — so
    /// FR-FCFS reordering really changes per-request latency *within* a
    /// channel, while channels overlap freely — and [`Pricing::release_cycle`]
    /// turns that finish time into a release cycle, which [`Books`] accounts.
    /// Pricing waits for every lane: the pass's frozen wall time is the
    /// slowest lane's, and it is an input of the rule.
    ///
    /// `trigger_cycle` is the emulated cycle of whatever forced the drain
    /// (the read, fence, or the posted write that found the buffer full);
    /// `awaited` names the request whose response the caller wants back.
    ///
    /// # Panics
    ///
    /// Panics, naming the id, if a controller answers a request twice,
    /// answers one that is not pending, or leaves a pending one unanswered.
    // The steady-state serve loop runs on the sessions' buffers, cleared in
    // place; any per-pass allocation is a regression
    // (`crates/core/tests/no_alloc.rs` counts them).
    fn serve_pass(&mut self, trigger_cycle: u64, awaited: Option<u64>) -> Served {
        let mut served = Served::default();
        if self.lanes.iter().all(|l| l.session.is_empty()) {
            return served;
        }
        let base_wall = self.wall_ps_at(trigger_cycle);
        let end_wall = self.execute(self.wall_ps.max(base_wall));
        let wall_latency_ps = end_wall.saturating_sub(base_wall);
        self.frozen_ps += wall_latency_ps;
        let t_burst = self.cfg.dram.timing.t_burst_ps;
        self.pricing.begin_pass(trigger_cycle, wall_latency_ps);
        let pricing = &self.pricing;
        // Release cycles start at 1 (`arrival + 1` at the earliest).
        let mut last_release = 0u64;
        for (ch, lane) in self.lanes.iter_mut().enumerate() {
            let Some(p) = lane.pass.take() else { continue };
            let mut books = Books {
                ch: ch as u32,
                pass: pricing,
                smc: &mut self.stats,
                metrics: &mut self.metrics,
                requestors: &mut self.requestor_stats,
                channel: &mut lane.stats,
                ring: &mut lane.ring,
            };
            let ledger = lane.session.ledger();
            books.lane_pass(&p, ledger, &*lane.controller, &mut lane.mit_seen);
            for resp in lane.session.responses() {
                let (arrival, burst_ps) = (resp.tag.arrival_cycle, resp.slice.column_ops * t_burst);
                let finish_mem_ps = lane.timeline.price(&TimelineDemand {
                    arrival_ps: pricing.core.cycles_to_ps(arrival),
                    bank: resp.tag.dram.bank as usize,
                    prep_ps: resp.slice.dram_occupancy_ps.saturating_sub(burst_ps),
                    burst_ps,
                    has_columns: resp.slice.column_ops > 0,
                });
                let release_cycle =
                    pricing.release_cycle(arrival, finish_mem_ps, resp.slice.rocket_cycles);
                last_release = last_release.max(release_cycle);
                if awaited == Some(resp.tag.id) {
                    served.awaited = Some((resp.data, resp.corrupted, release_cycle));
                }
                books.response(resp, finish_mem_ps, release_cycle);
            }
        }
        served.latest_release = Some(last_release);
        served
    }

    /// Stage one of a serve pass: runs every live lane's controller over its
    /// own batch from `start_wall`, in lane order, checks that every pending
    /// id was answered exactly once, and advances the wall clock to the
    /// slowest lane's end (channels are concurrent hardware), returning it.
    fn execute(&mut self, start_wall: u64) -> u64 {
        let pending_ids = self.first_pending_id..self.next_req_id;
        self.first_pending_id = pending_ids.end;
        self.answered.clear();
        self.answered
            .resize((pending_ids.end - pending_ids.start) as usize, false);
        let mut max_end_wall = start_wall;
        for lane in &mut self.lanes {
            if lane.session.is_empty() {
                continue;
            }
            let batch = lane.session.len() as u64;
            let mut api = lane
                .session
                .begin(&mut lane.device, &self.placement, start_wall);
            let serve_res = lane.controller.serve(&mut api);
            max_end_wall = max_end_wall.max(api.wall_now_ps());
            for resp in lane.session.responses() {
                let id = resp.tag.id;
                assert!(
                    pending_ids.contains(&id),
                    "controller answered request {id}, which is not pending"
                );
                let slot = &mut self.answered[(id - pending_ids.start) as usize];
                assert!(!*slot, "controller answered request {id} twice");
                *slot = true;
            }
            lane.pass = Some(LanePass { batch, serve_res });
        }
        if let Some(missing) = self.answered.iter().position(|&a| !a) {
            panic!(
                "controller never answered request {}",
                pending_ids.start + missing as u64
            );
        }
        self.wall_ps = max_end_wall.max(self.wall_ps);
        max_end_wall
    }

    /// Serves a profiling request for one cache line at the given tRCD,
    /// returning `true` when the line read back correctly (paper §8.1).
    pub fn profile_line(
        &mut self,
        bank: u32,
        row: u32,
        col: u32,
        trcd_ps: u64,
        issue_cycle: u64,
    ) -> bool {
        let addr = self
            .placement
            .mapper()
            .to_phys(easydram_dram::DramAddress::new(bank, row, col));
        let (_, corrupted, _) =
            self.serve_one(RequestKind::ProfileTrcd { addr, trcd_ps }, issue_cycle);
        !corrupted
    }
}

impl MemoryBackend for Tile {
    fn set_requestor(&mut self, requestor: u32) {
        self.current_requestor = requestor;
    }

    fn read_line(&mut self, line_addr: u64, issue_cycle: u64) -> LineFetch {
        // Reads force a drain: the pending posted writes and this read are
        // scheduled together in one batched pass, so the controller can
        // reorder across the whole stream while same-address ordering keeps
        // the read coherent.
        let (data, _corrupted, release) =
            self.serve_one(RequestKind::Read { addr: line_addr }, issue_cycle);
        LineFetch {
            data: data.expect("read returns data"),
            complete_cycle: release,
        }
    }

    fn post_write(&mut self, line_addr: u64, data: [u8; LINE_BYTES], issue_cycle: u64) -> u64 {
        self.stats.posted_writes += 1;
        let dram = self.placement.decode(line_addr);
        let accepted = if self.lanes[dram.channel as usize].session.is_full() {
            // Bounded per-channel write buffer: make room by draining what
            // accumulated (all lanes — the pass overlaps them anyway).
            self.stats.forced_drains += 1;
            self.drain(issue_cycle)
        } else {
            issue_cycle
        };
        self.post_decoded(
            dram,
            RequestKind::Write {
                addr: line_addr,
                data,
            },
            issue_cycle,
        );
        accepted
    }

    fn drain_writes(&mut self, issue_cycle: u64) -> u64 {
        self.drain(issue_cycle)
    }

    fn alloc(&mut self, bytes: u64, align: u64) -> u64 {
        self.placement.alloc(bytes, align)
    }

    fn capacity_bytes(&self) -> u64 {
        self.cfg.dram.geometry.capacity_bytes()
    }

    fn row_bytes(&self) -> u64 {
        u64::from(self.cfg.dram.geometry.row_bytes)
    }

    fn rowclone(
        &mut self,
        src_row_addr: u64,
        dst_row_addr: u64,
        issue_cycle: u64,
    ) -> Option<RowCloneRequestResult> {
        if !self.placement.qualified(src_row_addr, dst_row_addr) {
            // The controller consults its qualification table and refuses:
            // the caller falls back to CPU loads/stores (paper §7.1).
            self.stats.rowclone_fallbacks += 1;
            let clocks = &self.pricing;
            let check = clocks.mc_emul.cycles_to_ps(self.cfg.smc_costs.bloom_check);
            let done = issue_cycle + clocks.core.ps_to_cycles(check).max(1);
            return Some(RowCloneRequestResult {
                complete_cycle: done,
                copied: false,
            });
        }
        let (_, _, release) = self.serve_one(
            RequestKind::RowClone {
                src_addr: src_row_addr,
                dst_addr: dst_row_addr,
            },
            issue_cycle,
        );
        Some(RowCloneRequestResult {
            complete_cycle: release,
            copied: true,
        })
    }

    fn rowclone_alloc_copy(&mut self, bytes: u64) -> Option<(u64, u64)> {
        let var = self.lanes[0].device.variation();
        let pair = self.placement.alloc_copy(var, bytes);
        debug_assert!(self.tags_match_decode(), "a pending row was remapped");
        pair
    }

    fn rowclone_alloc_init(&mut self, bytes: u64) -> Option<(u64, Vec<u64>)> {
        let var = self.lanes[0].device.variation();
        let region = self.placement.alloc_init(var, bytes);
        debug_assert!(self.tags_match_decode(), "a pending row was remapped");
        region
    }

    fn rowclone_init_source(&mut self, dst_row_addr: u64) -> Option<u64> {
        self.placement.init_source(dst_row_addr)
    }
}

/// The assembled system: core + tile.
pub struct System {
    core: CoreModel<Tile>,
}

impl System {
    /// Builds a system from `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails validation.
    #[must_use]
    pub fn new(cfg: SystemConfig) -> Self {
        cfg.validate().expect("invalid system configuration");
        let core_cfg = cfg.core.clone();
        Self {
            core: CoreModel::new(core_cfg, Tile::new(cfg)),
        }
    }

    /// The processor interface workloads run on.
    pub fn cpu(&mut self) -> &mut CoreModel<Tile> {
        &mut self.core
    }

    /// The tile (memory system).
    #[must_use]
    pub fn tile(&self) -> &Tile {
        self.core.backend()
    }

    /// Mutable tile access (host-side tooling).
    pub fn tile_mut(&mut self) -> &mut Tile {
        self.core.backend_mut()
    }

    /// Installs a different software memory controller.
    pub fn install_controller(&mut self, controller: Box<dyn SoftwareMemoryController>) {
        self.tile_mut().install_controller(controller);
    }

    /// Switches the controller to FR-FCFS with tRCD reduction, building the
    /// weak-row Bloom filter from profiling results over the first
    /// `covered_rows_per_bank` rows of every bank (paper §8.2). On
    /// multi-channel systems each channel's controller gets a plan profiled
    /// from that channel's own device (channels are distinct modules with
    /// distinct variation fields).
    pub fn enable_trcd_reduction(&mut self, covered_rows_per_bank: u32, reduced_trcd_ps: u64) {
        let plans: Vec<TrcdPlan> = {
            let tile = self.tile();
            (0..tile.channels())
                .map(|ch| {
                    let device = tile.channel_device(ch);
                    TrcdPlan::from_variation(
                        device.variation(),
                        &device.config().geometry,
                        covered_rows_per_bank,
                        reduced_trcd_ps,
                    )
                })
                .collect()
        };
        self.tile_mut().install_controllers(|ch| {
            Box::new(FrFcfsController::with_trcd_reduction(
                plans[ch as usize].clone(),
            ))
        });
    }

    /// Runs a workload to completion and reports on its window.
    pub fn run(&mut self, workload: &mut dyn Workload) -> ExecutionReport {
        let cores = vec![CoreMark::of(&self.core)];
        let start = self.tile_mut().open_window(cores);
        workload.run(&mut self.core);
        let cores = vec![CoreMark::of(&self.core)];
        let window = self.tile_mut().close_window(&start, cores);
        self.report_over(workload.name(), window)
    }

    /// A cumulative report over the system's whole lifetime: the window
    /// from zero.
    #[must_use]
    pub fn report(&self, name: &str) -> ExecutionReport {
        self.report_over(name, self.tile().mark(vec![CoreMark::of(&self.core)]))
    }

    fn report_over(&self, name: &str, window: Mark) -> ExecutionReport {
        let (l1, l2) = (self.core.l1_stats(), self.core.l2_stats());
        self.tile().report_over(name.to_string(), window, l1, l2)
    }

    /// Drains the tile's event and command rings into one export-ready
    /// [`TraceLog`] (empty when tracing is off; see [`Tile::take_trace`]).
    pub fn take_trace(&mut self) -> TraceLog {
        self.tile_mut().take_trace()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SystemConfig, TimingMode};
    use easydram_cpu::RowCloneStatus;

    fn sys(mode: TimingMode) -> System {
        System::new(SystemConfig::small_for_tests(mode))
    }

    #[test]
    fn data_round_trips_through_full_stack() {
        for mode in [
            TimingMode::Reference,
            TimingMode::TimeScaling,
            TimingMode::NoTimeScaling,
        ] {
            let mut s = sys(mode);
            let a = s.cpu().alloc(4096, 64);
            for i in 0..512u64 {
                s.cpu().store_u64(a + i * 8, i * 7 + 1);
            }
            // Push everything out of the caches and read back through DRAM.
            for line in 0..64u64 {
                s.cpu().clflush(a + line * 64);
            }
            s.cpu().fence();
            for i in 0..512u64 {
                assert_eq!(s.cpu().load_u64(a + i * 8), i * 7 + 1, "mode {mode}");
            }
        }
    }

    #[test]
    fn memory_latency_ordering_across_modes() {
        // Dependent cold miss latency: NoTS (slow clock) << Reference ≈ TS.
        let lat = |mode| {
            let mut s = sys(mode);
            let a = s.cpu().alloc(64, 64);
            let t0 = s.cpu().now_cycles();
            let _ = s.cpu().load_u64(a);
            s.cpu().now_cycles() - t0
        };
        let reference = lat(TimingMode::Reference);
        let ts = lat(TimingMode::TimeScaling);
        let diff = reference.abs_diff(ts);
        assert!(
            diff * 100 <= reference.max(1),
            "TS ({ts}) must track Reference ({reference}) within 1%"
        );
        assert!(
            reference > 50,
            "a 1.43 GHz core sees >50 cycles to DRAM, got {reference}"
        );
    }

    #[test]
    fn nots_sees_fewer_cycles_than_target_system() {
        // The paper's core observation (Fig. 8): the slow-clocked system
        // observes far fewer cycles per memory access.
        let mut fast = sys(TimingMode::Reference);
        let mut slow = System::new(SystemConfig {
            dram: easydram_dram::DramConfig::small_for_tests(),
            ..SystemConfig::pidram_like()
        });
        let lat = |s: &mut System| {
            let a = s.cpu().alloc(64, 64);
            let t0 = s.cpu().now_cycles();
            let _ = s.cpu().load_u64(a);
            s.cpu().now_cycles() - t0
        };
        let fast_lat = lat(&mut fast);
        let slow_lat = lat(&mut slow);
        assert!(
            slow_lat * 4 < fast_lat * 3,
            "No-TS latency {slow_lat} should be well below target-system {fast_lat}"
        );
    }

    #[test]
    fn rowclone_alloc_and_copy_end_to_end() {
        let mut s = sys(TimingMode::TimeScaling);
        let bytes = 4 * 8192u64;
        let (src, dst) = s.cpu().rowclone_alloc_copy(bytes).expect("alloc succeeds");
        // Write a pattern and flush it to DRAM.
        for i in 0..bytes / 8 {
            s.cpu().store_u64(src + i * 8, i ^ 0xABCD);
        }
        for line in 0..bytes / 64 {
            s.cpu().clflush(src + line * 64);
        }
        s.cpu().fence();
        let mut copied = 0;
        for r in 0..4u64 {
            match s.cpu().rowclone_row(src + r * 8192, dst + r * 8192) {
                RowCloneStatus::Copied => copied += 1,
                RowCloneStatus::FallbackNeeded => {
                    for i in 0..1024u64 {
                        let v = s.cpu().load_u64(src + r * 8192 + i * 8);
                        s.cpu().store_u64(dst + r * 8192 + i * 8, v);
                    }
                }
                RowCloneStatus::Unsupported => panic!("EasyDRAM supports RowClone"),
            }
        }
        assert!(copied >= 1, "most pairs qualify");
        // Verify the copy through the CPU path.
        for i in 0..bytes / 8 {
            assert_eq!(s.cpu().load_u64(dst + i * 8), i ^ 0xABCD, "word {i}");
        }
    }

    #[test]
    fn rowclone_init_end_to_end() {
        let mut s = sys(TimingMode::TimeScaling);
        let bytes = 4 * 8192u64;
        let (dst, sources) = s.cpu().rowclone_alloc_init(bytes).expect("alloc succeeds");
        assert!(!sources.is_empty());
        // Fill the pattern source rows and flush them.
        for &sr in &sources {
            for i in 0..1024u64 {
                s.cpu().store_u64(sr + i * 8, 0xF00D);
            }
            for line in 0..128u64 {
                s.cpu().clflush(sr + line * 64);
            }
        }
        s.cpu().fence();
        for r in 0..4u64 {
            let d = dst + r * 8192;
            match s.cpu().rowclone_init_source(d) {
                Some(src) => {
                    let st = s.cpu().rowclone_row(src, d);
                    assert_ne!(st, RowCloneStatus::Unsupported);
                    if st == RowCloneStatus::FallbackNeeded {
                        for i in 0..1024u64 {
                            s.cpu().store_u64(d + i * 8, 0xF00D);
                        }
                    }
                }
                None => {
                    for i in 0..1024u64 {
                        s.cpu().store_u64(d + i * 8, 0xF00D);
                    }
                }
            }
        }
        for i in 0..bytes / 8 {
            assert_eq!(s.cpu().load_u64(dst + i * 8), 0xF00D, "word {i}");
        }
    }

    /// Copy and init on a 2-channel × 2-rank tile with ideal chips: every
    /// word arrives, and every RowClone runs on channel 0.
    #[test]
    fn rowclone_runs_on_channel_zero_of_a_two_channel_two_rank_tile() {
        let mut cfg = SystemConfig::small_for_tests(TimingMode::TimeScaling);
        cfg.dram.geometry.channels = 2;
        cfg.dram.geometry.ranks = 2;
        cfg.dram.variation = easydram_dram::VariationConfig::ideal();
        let mut s = System::new(cfg);
        let (row, rows) = (s.cpu().row_bytes(), 4u64);
        let bytes = rows * row;
        let flush = |s: &mut System, base: u64, len: u64| {
            for line in 0..len / 64 {
                s.cpu().clflush(base + line * 64);
            }
        };
        let (src, dst) = s.cpu().rowclone_alloc_copy(bytes).expect("copy pair");
        for i in 0..bytes / 8 {
            s.cpu().store_u64(src + i * 8, i ^ 0x5A5A);
        }
        flush(&mut s, src, bytes);
        s.cpu().fence();
        for r in 0..rows {
            let st = s.cpu().rowclone_row(src + r * row, dst + r * row);
            assert_eq!(st, RowCloneStatus::Copied, "row {r}");
        }
        for i in 0..bytes / 8 {
            assert_eq!(s.cpu().load_u64(dst + i * 8), i ^ 0x5A5A, "copy word {i}");
        }
        let (init, sources) = s.cpu().rowclone_alloc_init(bytes).expect("init region");
        for &sr in &sources {
            for i in 0..row / 8 {
                s.cpu().store_u64(sr + i * 8, 0xF00D);
            }
            flush(&mut s, sr, row);
        }
        s.cpu().fence();
        for r in 0..rows {
            let d = init + r * row;
            let sr = s.cpu().rowclone_init_source(d).expect("ideal rows qualify");
            assert_eq!(s.cpu().rowclone_row(sr, d), RowCloneStatus::Copied);
        }
        for i in 0..bytes / 8 {
            assert_eq!(s.cpu().load_u64(init + i * 8), 0xF00D, "init word {i}");
        }
        let attempts = |ch| s.tile().channel_device(ch).stats().rowclone_attempts;
        assert_eq!(attempts(0), 2 * rows);
        assert_eq!(attempts(1), 0);
    }

    /// The init region's pools would reach the heap's natural rows.
    #[test]
    #[should_panic(expected = "remap pool collided with heap")]
    fn init_pool_may_not_reach_the_heap() {
        let _ = sys(TimingMode::TimeScaling)
            .cpu()
            .rowclone_alloc_init(8 << 20);
    }

    /// The copy pair's pools would reach the heap's natural rows.
    #[test]
    #[should_panic(expected = "remap pool collided with heap")]
    fn copy_pool_may_not_reach_the_heap() {
        let _ = sys(TimingMode::TimeScaling)
            .cpu()
            .rowclone_alloc_copy(4 << 20);
    }

    /// A 2 MiB copy pair leaves the heap 12 MiB; 8 MiB more would grow into
    /// the pools.
    #[test]
    #[should_panic(expected = "allocation exceeds capacity")]
    fn heap_may_not_grow_into_a_pool() {
        let mut s = sys(TimingMode::TimeScaling);
        s.cpu()
            .rowclone_alloc_copy(2 << 20)
            .expect("pools hold 2 MiB");
        s.cpu().alloc(8 << 20, 64);
    }

    #[test]
    fn unqualified_pair_reports_fallback() {
        let mut s = sys(TimingMode::TimeScaling);
        let a = s.cpu().alloc(2 * 8192, 8192);
        // Plain allocation: no qualified pairs installed.
        let st = s.cpu().rowclone_row(a, a + 8192);
        assert_eq!(st, RowCloneStatus::FallbackNeeded);
        assert_eq!(s.tile().smc_stats().rowclone_fallbacks, 1);
    }

    #[test]
    fn wall_clock_grows_with_memory_traffic() {
        let mut s = sys(TimingMode::TimeScaling);
        let r0 = s.report("t0");
        let a = s.cpu().alloc(64 * 256, 64);
        for i in 0..256u64 {
            let _ = s.cpu().load_u64(a + i * 64);
        }
        let r1 = s.report("t1");
        assert!(r1.fpga_wall_seconds > r0.fpga_wall_seconds);
        assert!(r1.smc.requests >= 256);
        assert!(r1.sim_speed_hz > 0.0);
    }

    #[test]
    fn run_reports_window_deltas() {
        struct Tiny;
        impl Workload for Tiny {
            fn name(&self) -> &str {
                "tiny"
            }
            fn run(&mut self, cpu: &mut dyn CpuApi) {
                let a = cpu.alloc(4096, 64);
                for i in 0..512u64 {
                    cpu.store_u64(a + i * 8, i);
                }
            }
        }
        let mut s = sys(TimingMode::Reference);
        let r1 = s.run(&mut Tiny);
        let r2 = s.run(&mut Tiny);
        assert!(r1.emulated_cycles > 0);
        // Second run is a fresh window, not cumulative.
        assert!(r2.emulated_cycles < r1.emulated_cycles * 3);
        assert_eq!(r1.name, "tiny");
    }

    #[test]
    fn run_reports_window_peak_batch_not_lifetime() {
        struct FlushBurst;
        impl Workload for FlushBurst {
            fn name(&self) -> &str {
                "flush-burst"
            }
            fn run(&mut self, cpu: &mut dyn CpuApi) {
                let a = cpu.alloc(64 * 6, 64);
                for i in 0..6u64 {
                    cpu.store_u64(a + i * 64, i);
                }
                for i in 0..6u64 {
                    cpu.clflush(a + i * 64);
                }
                cpu.fence();
            }
        }
        struct LoneLoads;
        impl Workload for LoneLoads {
            fn name(&self) -> &str {
                "lone-loads"
            }
            fn run(&mut self, cpu: &mut dyn CpuApi) {
                let a = cpu.alloc(64 * 4, 64);
                for i in 0..4u64 {
                    let _ = cpu.load_u64(a + i * 64);
                }
            }
        }
        let mut s = sys(TimingMode::Reference);
        let burst = s.run(&mut FlushBurst);
        assert!(burst.smc.peak_batch >= 4, "the flush burst batches");
        let lone = s.run(&mut LoneLoads);
        assert!(
            lone.smc.peak_batch < burst.smc.peak_batch,
            "a later window must not inherit the earlier peak: {} vs {}",
            lone.smc.peak_batch,
            burst.smc.peak_batch
        );
        // The lifetime statistic still remembers the burst.
        assert_eq!(s.tile().smc_stats().peak_batch, burst.smc.peak_batch);
        // Scheduling outcomes are windowed too: the second run's serve
        // stats describe only its own 4 loads, not the earlier burst.
        let serve = lone.smc.serve;
        assert_eq!(serve.row_hits + serve.row_misses + serve.row_conflicts, 4);
    }

    /// FCFS, except that a posted write is either swallowed or answered
    /// under the tag of the batch's newest request.
    struct MishandlesWrites {
        swallow: bool,
    }

    impl SoftwareMemoryController for MishandlesWrites {
        fn name(&self) -> &str {
            "mishandles-writes"
        }

        fn serve(&mut self, api: &mut crate::EasyApi<'_>) -> ServeResult {
            api.receive_all();
            let newest = *api.request_table().last().expect("a non-empty batch");
            while let Some(idx) = api.schedule_fcfs() {
                let req = api.take_request(idx);
                match req.tag.class {
                    RequestClass::Write if self.swallow => {}
                    RequestClass::Write => api.enqueue_response(&newest, None, false),
                    _ => api.enqueue_response(&req, Some([0; LINE_BYTES]), false),
                }
            }
            ServeResult::default()
        }
    }

    /// A posted write (id 0) and the read (id 1) that drains it, through a
    /// controller that mishandles the write.
    fn mishandle_a_write(swallow: bool) {
        let mut s = sys(TimingMode::Reference);
        s.install_controller(Box::new(MishandlesWrites { swallow }));
        let a = s.cpu().alloc(128, 64);
        s.tile_mut().post_write(a, [1; LINE_BYTES], 0);
        s.tile_mut().read_line(a + 64, 1);
    }

    #[test]
    #[should_panic(expected = "controller answered request 1 twice")]
    fn answering_one_request_twice_panics() {
        mishandle_a_write(false);
    }

    #[test]
    #[should_panic(expected = "controller never answered request 0")]
    fn swallowing_a_posted_write_panics() {
        mishandle_a_write(true);
    }

    #[test]
    fn refresh_charges_emulated_time() {
        let run = |cfg: SystemConfig| {
            let mut s = System::new(cfg);
            let a = s.cpu().alloc(64 * 2048, 64);
            // Spread dependent misses over enough emulated time to cross
            // several tREFI windows.
            for i in 0..2048u64 {
                let _ = s.cpu().load_u64(a + i * 64);
            }
            (
                s.cpu().now_cycles(),
                s.report("refresh").channels[0].refreshes_per_rank[0],
            )
        };
        let cfg = SystemConfig::small_for_tests(TimingMode::Reference);
        let mut unrefreshed = cfg.clone();
        // One second: no refresh falls due before the run ends.
        unrefreshed.dram.timing.t_refi_ps = 1_000_000_000_000;
        unrefreshed.dram.timing.t_refw_ps = 1_000_000_000_000;
        let (with, refreshes) = run(cfg);
        let (without, none) = run(unrefreshed);
        assert!(
            refreshes > 0 && none == 0,
            "{refreshes} vs {none} refreshes"
        );
        assert!(
            with > without,
            "refresh must cost time: {with} vs {without}"
        );
    }
}
