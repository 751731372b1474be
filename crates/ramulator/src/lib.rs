//! A Ramulator-2.0-style cycle-level software simulator — the baseline the
//! paper compares EasyDRAM against (§7.2, §8.3).
//!
//! Reproduces the structural properties the paper attributes to the
//! software-simulation methodology:
//!
//! * **Idealized DRAM**: no real-chip variation; every RowClone operation
//!   succeeds and every target row can be initialized in-DRAM (paper §7.2
//!   footnote 6) — which is why Ramulator over-reports Init benefits. The
//!   bytes live in an [`easydram_cpu::LineStore`] and addresses come from
//!   the [`easydram_cpu::BumpAllocator`] every backend shares; this crate
//!   is the timing.
//! * **A different, simpler processor model**: a simple out-of-order core
//!   with only a 512 KiB LLC (footnote 5) — which is why per-workload
//!   results diverge from EasyDRAM's real BOOM core.
//! * **Bounded simulation**: an instruction cap (500 M in the paper, §8.3)
//!   after which timing stops accruing even though the program runs to
//!   completion functionally.
//! * **Software-simulation speed**: a documented wall-clock cost model in
//!   the 1–2 M cycles/s class (paper Table 1), alongside the actually
//!   measured host speed of this Rust implementation.
//!
//! # Example
//!
//! ```
//! use easydram_ramulator::{RamulatorConfig, RamulatorSystem};
//! use easydram_workloads::{polybench, PolySize};
//!
//! let mut sim = RamulatorSystem::new(RamulatorConfig::default());
//! let mut w = polybench::Gemm::new(PolySize::Mini);
//! let report = sim.run(&mut w);
//! assert!(report.simulated_cycles > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[expect(clippy::disallowed_types, reason = "host speed only, out-of-band")]
use std::time::Instant;

use easydram_cpu::backend::{LineFetch, MemoryBackend, RowCloneRequestResult};
use easydram_cpu::timescale::Clock;
use easydram_cpu::{BumpAllocator, CoreConfig, CoreModel, CpuApi, LineStore, Workload, LINE_BYTES};
use easydram_dram::bank::RankTiming;
use easydram_dram::{AddressMapper, DramCommand, Geometry, MappingScheme, TimingParams};

/// Configuration of the software simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct RamulatorConfig {
    /// The simple out-of-order core model (LLC only; paper fn. 5).
    pub core: CoreConfig,
    /// DDR4 timing bin.
    pub timing: TimingParams,
    /// DRAM geometry.
    pub geometry: Geometry,
    /// Fixed controller latency added to each request, in ps.
    pub ctrl_latency_ps: u64,
    /// Stop accruing simulated time after this many instructions
    /// (the paper simulates 500 M instructions per workload, §8.3).
    pub instruction_cap: u64,
    /// Modeled simulation throughput of a cycle-level software simulator,
    /// in simulated cycles per host second (paper Table 1 places software
    /// simulators at ≈10 K–1 M cycles/s; Ramulator 2.0 with a simple core
    /// reaches the low millions).
    pub modeled_cycles_per_sec: f64,
    /// Additional modeled host time per memory transaction, seconds.
    pub modeled_seconds_per_mem_event: f64,
}

impl Default for RamulatorConfig {
    fn default() -> Self {
        Self {
            core: CoreConfig::ramulator_ooo(),
            timing: TimingParams::ddr4_1333(),
            geometry: Geometry::default(),
            ctrl_latency_ps: 20_000,
            instruction_cap: 500_000_000,
            modeled_cycles_per_sec: 1_500_000.0,
            modeled_seconds_per_mem_event: 2e-6,
        }
    }
}

/// The cycle-level memory model: JEDEC-checked command timing over an
/// idealized (variation-free) data store (a [`LineStore`], the same
/// functional memory the fixed-latency reference backend uses). Accepts the
/// same multi-channel / multi-rank [`Geometry`] as the EasyDRAM tile: each
/// channel gets its own rank-folded [`RankTiming`] tracker, device timeline,
/// and refresh schedule, and channels advance independently.
#[derive(Debug)]
pub struct RamulatorBackend {
    cfg: RamulatorConfig,
    /// The core's clock (`cfg.core.freq_hz`).
    core_clk: Clock,
    /// One rank-folded timing tracker per channel.
    channels: Vec<RankTiming>,
    mapper: AddressMapper,
    mem: LineStore,
    /// Per-channel device timeline in simulated ps.
    now_ps: Vec<u64>,
    heap: BumpAllocator,
    /// Next periodic refresh per channel, ps.
    next_ref_ps: Vec<u64>,
    /// Memory transactions served (for the wall-clock model).
    pub mem_events: u64,
    /// Each `rowclone_alloc_init` region's destination bytes and the
    /// pattern source row handed out for them.
    init_regions: Vec<(std::ops::Range<u64>, u64)>,
}

impl RamulatorBackend {
    /// Creates the memory model.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.timing` is self-contradictory, listing every
    /// contradiction found (a sweep must not simulate a nonsense bin).
    #[must_use]
    pub fn new(cfg: RamulatorConfig) -> Self {
        if let Err(contradictions) = cfg.timing.check_consistency() {
            let listed: Vec<String> = contradictions.iter().map(ToString::to_string).collect();
            panic!("invalid Ramulator timing: {}", listed.join("; "));
        }
        let n = cfg.geometry.channels as usize;
        let channels = (0..n)
            .map(|_| RankTiming::new(cfg.geometry.per_channel(), cfg.timing.clone()))
            .collect();
        let mapper = AddressMapper::new(cfg.geometry.clone(), MappingScheme::RowColBankXor);
        let next_ref = cfg.timing.t_refi_ps;
        Self {
            core_clk: Clock::from_hz(cfg.core.freq_hz),
            cfg,
            channels,
            mapper,
            mem: LineStore::new(),
            now_ps: vec![0; n],
            heap: BumpAllocator::new(),
            next_ref_ps: vec![next_ref; n],
            mem_events: 0,
            init_regions: Vec::new(),
        }
    }

    /// The processor cycle at which a response ready at `done_ps` reaches
    /// the core: at least one cycle after issue.
    fn complete_cycle(&self, done_ps: u64, issue_cycle: u64) -> u64 {
        self.core_clk.ps_to_cycles(done_ps).max(issue_cycle + 1)
    }

    fn issue_at_earliest(&mut self, ch: usize, cmd: DramCommand, not_before_ps: u64) -> u64 {
        let t = self.channels[ch]
            .earliest_issue_ps(&cmd)
            .max(not_before_ps)
            .max(self.now_ps[ch]);
        debug_assert!(
            self.channels[ch].check(&cmd, t).is_empty(),
            "ramulator never violates timing"
        );
        self.channels[ch].apply(&cmd, t);
        self.now_ps[ch] = t;
        t
    }

    fn maybe_refresh(&mut self, ch: usize, now_ps: u64) -> u64 {
        let mut ready = now_ps;
        while self.next_ref_ps[ch] <= ready {
            // All-bank refresh of the channel: close rows, issue REF, pay
            // tRFC.
            let t = self.channels[ch]
                .earliest_issue_ps(&DramCommand::PrechargeAll)
                .max(self.next_ref_ps[ch])
                .max(self.now_ps[ch]);
            self.channels[ch].apply(&DramCommand::PrechargeAll, t);
            let r = self.channels[ch]
                .earliest_issue_ps(&DramCommand::Refresh)
                .max(t);
            self.channels[ch].apply(&DramCommand::Refresh, r);
            self.now_ps[ch] = r;
            ready = ready.max(r + self.cfg.timing.t_rfc_ps);
            self.next_ref_ps[ch] += self.cfg.timing.t_refi_ps;
        }
        ready
    }

    /// Serves one column access and returns the completion time in ps.
    fn access(&mut self, line_addr: u64, issue_cycle: u64, is_write: bool) -> u64 {
        self.mem_events += 1;
        let arrival = self.core_clk.cycles_to_ps(issue_cycle) + self.cfg.ctrl_latency_ps;
        let d = self.mapper.to_dram(line_addr);
        let ch = d.channel as usize;
        let arrival = self.maybe_refresh(ch, arrival);
        // Open-page policy.
        match self.channels[ch].open_row(d.bank) {
            Some(r) if r == d.row => {}
            Some(_) => {
                self.issue_at_earliest(ch, DramCommand::Precharge { bank: d.bank }, arrival);
                self.issue_at_earliest(
                    ch,
                    DramCommand::Activate {
                        bank: d.bank,
                        row: d.row,
                    },
                    0,
                );
            }
            None => {
                self.issue_at_earliest(
                    ch,
                    DramCommand::Activate {
                        bank: d.bank,
                        row: d.row,
                    },
                    arrival,
                );
            }
        }
        let t = if is_write {
            let at = self.issue_at_earliest(
                ch,
                DramCommand::Write {
                    bank: d.bank,
                    col: d.col,
                    data: [0; LINE_BYTES],
                },
                arrival,
            );
            at + self.cfg.timing.write_latency_ps()
        } else {
            let at = self.issue_at_earliest(
                ch,
                DramCommand::Read {
                    bank: d.bank,
                    col: d.col,
                },
                arrival,
            );
            at + self.cfg.timing.read_latency_ps()
        };
        t + self.cfg.ctrl_latency_ps
    }
}

impl MemoryBackend for RamulatorBackend {
    fn read_line(&mut self, line_addr: u64, issue_cycle: u64) -> LineFetch {
        let done_ps = self.access(line_addr, issue_cycle, false);
        LineFetch {
            data: self.mem.read(line_addr),
            complete_cycle: self.complete_cycle(done_ps, issue_cycle),
        }
    }

    fn post_write(&mut self, line_addr: u64, data: [u8; LINE_BYTES], issue_cycle: u64) -> u64 {
        // The cycle-level simulator services writes inline (no posted-write
        // buffer to batch from — a structural simplification vs the tile).
        let done_ps = self.access(line_addr, issue_cycle, true);
        self.mem.write(line_addr, data);
        self.complete_cycle(done_ps, issue_cycle)
    }

    fn alloc(&mut self, bytes: u64, align: u64) -> u64 {
        self.heap.alloc(bytes, align, self.capacity_bytes())
    }

    fn capacity_bytes(&self) -> u64 {
        self.cfg.geometry.capacity_bytes()
    }

    fn row_bytes(&self) -> u64 {
        u64::from(self.cfg.geometry.row_bytes)
    }

    fn rowclone(
        &mut self,
        src_row_addr: u64,
        dst_row_addr: u64,
        issue_cycle: u64,
    ) -> Option<RowCloneRequestResult> {
        // Idealized in-DRAM copy: always succeeds (paper §7.2 footnote 6),
        // costs two back-to-back activations plus a precharge.
        self.mem_events += 1;
        self.mem
            .copy_row(src_row_addr, dst_row_addr, self.row_bytes());
        let t = self.cfg.timing.t_ras_ps + self.cfg.timing.t_rp_ps + self.cfg.timing.t_rcd_ps;
        let done = self.core_clk.cycles_to_ps(issue_cycle) + 2 * self.cfg.ctrl_latency_ps + t;
        Some(RowCloneRequestResult {
            complete_cycle: self.complete_cycle(done, issue_cycle),
            copied: true,
        })
    }

    fn rowclone_alloc_copy(&mut self, bytes: u64) -> Option<(u64, u64)> {
        let rb = self.row_bytes();
        let n = bytes.div_ceil(rb) * rb;
        Some((self.alloc(n, rb), self.alloc(n, rb)))
    }

    fn rowclone_alloc_init(&mut self, bytes: u64) -> Option<(u64, Vec<u64>)> {
        let rb = self.row_bytes();
        let n = bytes.div_ceil(rb) * rb;
        let dst = self.alloc(n, rb);
        let src = self.alloc(rb, rb);
        self.init_regions.push((dst..dst + n, src));
        Some((dst, vec![src]))
    }

    fn rowclone_init_source(&mut self, dst_row_addr: u64) -> Option<u64> {
        let (_, src) = self
            .init_regions
            .iter()
            .find(|(rows, _)| rows.contains(&dst_row_addr))?;
        Some(*src)
    }
}

/// Report of one software-simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct RamReport {
    /// Workload name.
    pub name: String,
    /// Simulated cycles within the instruction cap.
    pub simulated_cycles: u64,
    /// Total cycles had the cap not applied.
    pub uncapped_cycles: u64,
    /// Instructions executed (functionally).
    pub instructions: u64,
    /// Whether the instruction cap truncated the measurement.
    pub capped: bool,
    /// Modeled host wall time of a Ramulator-2.0-class simulator, seconds.
    pub modeled_wall_seconds: f64,
    /// Actually measured host wall time of this Rust implementation,
    /// seconds.
    pub host_wall_seconds: f64,
    /// Modeled simulation speed, simulated cycles per second.
    pub modeled_speed_hz: f64,
    /// Memory transactions served.
    pub mem_events: u64,
}

/// The assembled software simulator.
pub struct RamulatorSystem {
    core: CoreModel<RamulatorBackend>,
    cfg: RamulatorConfig,
}

impl RamulatorSystem {
    /// Builds the simulator.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.timing` is self-contradictory ([`RamulatorBackend::new`]).
    #[must_use]
    pub fn new(cfg: RamulatorConfig) -> Self {
        let core_cfg = cfg.core.clone();
        Self {
            core: CoreModel::new(core_cfg, RamulatorBackend::new(cfg.clone())),
            cfg,
        }
    }

    /// The processor interface.
    pub fn cpu(&mut self) -> &mut CoreModel<RamulatorBackend> {
        &mut self.core
    }

    /// Runs a workload to completion (functionally) and reports timing up
    /// to the instruction cap.
    pub fn run(&mut self, workload: &mut dyn Workload) -> RamReport {
        let cycles0 = self.core.now_cycles();
        let instr0 = self.core.stats().instructions;
        let events0 = self.core.backend().mem_events;
        // The value lands in `RamReport::host_wall_seconds`, never in timing.
        #[expect(clippy::disallowed_types, reason = "host-speed measurement only")]
        let host0 = Instant::now();
        workload.run(&mut self.core);
        let host_wall_seconds = host0.elapsed().as_secs_f64();
        let cycles = self.core.now_cycles() - cycles0;
        let instructions = self.core.stats().instructions - instr0;
        let capped = instructions > self.cfg.instruction_cap;
        let simulated_cycles = if capped {
            // Timing is reported for the capped prefix, scaled by the
            // instruction fraction (the simulator would have stopped there).
            (u128::from(cycles) * u128::from(self.cfg.instruction_cap)
                / u128::from(instructions.max(1))) as u64
        } else {
            cycles
        };
        let mem_events = self.core.backend().mem_events - events0;
        let modeled_wall_seconds = simulated_cycles as f64 / self.cfg.modeled_cycles_per_sec
            + mem_events as f64 * self.cfg.modeled_seconds_per_mem_event;
        RamReport {
            name: workload.name().to_string(),
            simulated_cycles,
            uncapped_cycles: cycles,
            instructions,
            capped,
            modeled_wall_seconds,
            host_wall_seconds,
            modeled_speed_hz: if modeled_wall_seconds > 0.0 {
                simulated_cycles as f64 / modeled_wall_seconds
            } else {
                0.0
            },
            mem_events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easydram_cpu::RowCloneStatus;

    fn sim() -> RamulatorSystem {
        RamulatorSystem::new(RamulatorConfig::default())
    }

    #[test]
    fn data_round_trips() {
        let mut s = sim();
        let a = s.cpu().alloc(4096, 64);
        for i in 0..512u64 {
            s.cpu().store_u64(a + i * 8, i + 9);
        }
        for i in 0..512u64 {
            assert_eq!(s.cpu().load_u64(a + i * 8), i + 9);
        }
    }

    #[test]
    fn memory_latency_is_dram_scale() {
        let mut s = sim();
        let a = s.cpu().alloc(64, 64);
        let t0 = s.cpu().now_cycles();
        let _ = s.cpu().load_u64(a);
        let lat = s.cpu().now_cycles() - t0;
        // 2 GHz core: ~50-90 ns DRAM + controller ≈ 120-250 cycles.
        assert!((80..400).contains(&lat), "latency {lat}");
    }

    #[test]
    fn row_hits_are_faster_than_conflicts() {
        let mut s = sim();
        let a = s.cpu().alloc(1 << 22, 8192);
        let _ = s.cpu().load_u64(a); // open the row
        let t0 = s.cpu().now_cycles();
        // Row hit: the bank field rotates fastest, so 16 lines on (one per
        // bank) is the next column of the same row.
        let _ = s.cpu().load_u64(a + 16 * 64);
        let hit = s.cpu().now_cycles() - t0;
        // Conflict: same bank, another row. Rows 16 apart share the bank's
        // XOR hash, and one row spans 16 banks * 8 KiB.
        let conflict_addr = a + 16 * 16 * 8192;
        let t0 = s.cpu().now_cycles();
        let _ = s.cpu().load_u64(conflict_addr);
        let conflict = s.cpu().now_cycles() - t0;
        assert!(hit < conflict, "hit {hit} vs conflict {conflict}");
    }

    #[test]
    fn rowclone_always_succeeds() {
        let mut s = sim();
        let (src, dst) = s.cpu().rowclone_alloc_copy(2 * 8192).unwrap();
        for i in 0..1024u64 {
            s.cpu().store_u64(src + i * 8, i);
        }
        for line in 0..128u64 {
            s.cpu().clflush(src + line * 64);
        }
        s.cpu().fence();
        for r in 0..2u64 {
            assert_eq!(
                s.cpu().rowclone_row(src + r * 8192, dst + r * 8192),
                RowCloneStatus::Copied,
                "idealized DRAM never fails"
            );
        }
        for i in 0..1024u64 {
            assert_eq!(s.cpu().load_u64(dst + i * 8), i);
        }
    }

    #[test]
    fn init_source_is_single_row() {
        let mut s = sim();
        let (dst, sources) = s.cpu().rowclone_alloc_init(4 * 8192).unwrap();
        assert_eq!(sources.len(), 1, "idealized model needs one pattern row");
        for r in 0..4u64 {
            assert_eq!(
                s.cpu().rowclone_init_source(dst + r * 8192),
                Some(sources[0])
            );
        }
    }

    #[test]
    fn init_source_is_scoped_to_its_region() {
        let mut s = sim();
        let plain = s.cpu().alloc(8192, 8192);
        let (first, first_src) = s.cpu().rowclone_alloc_init(2 * 8192).unwrap();
        let (second, second_src) = s.cpu().rowclone_alloc_init(2 * 8192).unwrap();
        assert_eq!(s.cpu().rowclone_init_source(plain), None, "plain row");
        assert_eq!(
            s.cpu().rowclone_init_source(first_src[0]),
            None,
            "source row"
        );
        assert_eq!(
            s.cpu().rowclone_init_source(first + 8192),
            Some(first_src[0])
        );
        assert_eq!(s.cpu().rowclone_init_source(second), Some(second_src[0]));
    }

    #[test]
    fn report_models_software_speed() {
        let mut s = sim();
        let mut w = easydram_workloads::polybench::Gemm::new(easydram_workloads::PolySize::Mini);
        let r = s.run(&mut w);
        assert!(r.simulated_cycles > 0);
        assert!(!r.capped);
        assert!(
            r.modeled_speed_hz < 3_000_000.0,
            "software simulators are slow"
        );
        assert!(r.modeled_wall_seconds > 0.0);
        assert!(r.mem_events > 0);
    }

    #[test]
    fn instruction_cap_truncates_measurement() {
        let cfg = RamulatorConfig {
            instruction_cap: 1_000,
            ..RamulatorConfig::default()
        };
        let mut s = RamulatorSystem::new(cfg);
        let mut w = easydram_workloads::polybench::Gemm::new(easydram_workloads::PolySize::Mini);
        let r = s.run(&mut w);
        assert!(r.capped);
        assert!(r.simulated_cycles < r.uncapped_cycles);
    }

    #[test]
    fn multi_channel_geometry_round_trips() {
        let mut cfg = RamulatorConfig::default();
        cfg.geometry.channels = 2;
        cfg.geometry.ranks = 2;
        let mut s = RamulatorSystem::new(cfg);
        let a = s.cpu().alloc(64 * 1024, 64);
        for i in 0..8192u64 {
            s.cpu().store_u64(a + i * 8, i ^ 0x77);
        }
        for i in 0..8192u64 {
            assert_eq!(s.cpu().load_u64(a + i * 8), i ^ 0x77);
        }
        // Latency stays DRAM-scale: the channel split must not break the
        // timing trackers.
        let t0 = s.cpu().now_cycles();
        let _ = s.cpu().load_u64(a + (1 << 19));
        let lat = s.cpu().now_cycles() - t0;
        assert!((80..400).contains(&lat), "latency {lat}");
    }

    #[test]
    fn refresh_consumes_time() {
        let run = |refi_scale: u64| {
            let mut cfg = RamulatorConfig::default();
            cfg.timing.t_refi_ps *= refi_scale;
            let mut s = RamulatorSystem::new(cfg);
            let a = s.cpu().alloc(64 * 4096, 64);
            for i in 0..4096u64 {
                let _ = s.cpu().load_u64(a + i * 64);
            }
            s.cpu().now_cycles()
        };
        let frequent_ref = run(1);
        let rare_ref = run(1000);
        assert!(frequent_ref > rare_ref, "{frequent_ref} vs {rare_ref}");
    }

    #[test]
    #[should_panic(expected = "cfg/faw-window")]
    fn contradictory_timing_is_rejected() {
        let mut cfg = RamulatorConfig::default();
        cfg.timing.t_faw_ps = 4 * cfg.timing.t_rrd_s_ps - 1;
        let _ = RamulatorSystem::new(cfg);
    }

    /// A PREA and a REF hold the channel for tRP + tRFC: with no more than
    /// that between refreshes, `maybe_refresh` falls further behind on every
    /// pass and never returns.
    #[test]
    #[should_panic(expected = "cfg/refresh-interval")]
    fn refresh_interval_without_room_is_rejected() {
        let mut cfg = RamulatorConfig::default();
        cfg.timing.t_refi_ps = cfg.timing.t_rfc_ps + cfg.timing.t_rp_ps;
        let _ = RamulatorSystem::new(cfg);
    }
}
