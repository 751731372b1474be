//! Execution reports: everything a figure harness needs from one run.

use easydram_cpu::cache::CacheLevelStats;
use easydram_cpu::CoreStats;
use easydram_dram::DeviceStats;

use crate::config::TimingMode;
use crate::counters::counters;
use crate::obs::TileMetrics;
use crate::smc::{MitigationStats, ServeResult};

// The two counter structs defined below this crate: the trait is local and
// their fields are public, so they are listed here like every other one.
counters!(CoreStats: sum {
    instructions, loads, stores, clflushes, fences, mem_reads, mem_writes,
    rowclone_requests, rowclone_copies, stall_cycles,
});
counters!(DeviceStats: sum {
    activates, precharges, reads, writes, refreshes, violations,
    rowclone_attempts, rowclone_successes, reduced_trcd_reads, corrupted_reads,
    targeted_refreshes, disturbance_flips,
});

/// Row-buffer outcomes of one bank's column sequences: how many requests
/// found their row open (hit), found the bank idle (miss), or had to close
/// another row first (conflict). A per-bank histogram of these exposes
/// *which* banks a co-runner is thrashing — the totals in [`ServeResult`]
/// cannot.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct BankRowOutcomes {
    /// Requests served from the already-open row.
    pub hits: u64,
    /// Requests that activated into an idle bank.
    pub misses: u64,
    /// Requests that had to precharge another row first.
    pub conflicts: u64,
}

counters!(pub BankRowOutcomes: sum { hits, misses, conflicts });

impl std::fmt::Debug for BankRowOutcomes {
    /// Compact `hits/misses/conflicts` rendering so per-bank vectors stay
    /// one golden line.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}/{}", self.hits, self.misses, self.conflicts)
    }
}

/// Software-memory-controller counters accumulated by the tile.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SmcStats {
    /// Requests served.
    pub requests: u64,
    /// Rocket cycles executed by controller code.
    pub rocket_cycles: u64,
    /// Tile-control/transfer FPGA cycles.
    pub hw_cycles: u64,
    /// DRAM Bender batches executed.
    pub batches: u64,
    /// Writes accepted into the pending-request stream without blocking.
    pub posted_writes: u64,
    /// Serve passes forced by a full posted-write buffer (as opposed to
    /// read- or fence-triggered drains).
    pub forced_drains: u64,
    /// Largest request batch one serve pass has carried.
    pub peak_batch: u64,
    /// Scheduling outcomes.
    pub serve: ServeResult,
    /// RowClone requests refused because the pair was not qualified
    /// (CPU fallback).
    pub rowclone_fallbacks: u64,
}

/// Per-channel controller counters of a sharded memory system. The tile
/// keeps one record per channel, cumulative over its lifetime; `System::run`
/// rebases them against a window-start snapshot exactly like the global
/// [`SmcStats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Requests served by this channel's controller.
    pub requests: u64,
    /// Rocket cycles executed by this channel's controller code.
    pub rocket_cycles: u64,
    /// Tile-control/transfer FPGA cycles of this channel.
    pub hw_cycles: u64,
    /// DRAM Bender batches executed on this channel.
    pub batches: u64,
    /// Scheduling outcomes of this channel's serve passes.
    pub serve: ServeResult,
    /// Refreshes charged on this channel's emulated timeline, per rank.
    pub refreshes_per_rank: Vec<u64>,
    /// ACT commands issued per bank of this channel's device (flat
    /// within-channel bank index). Skewed distributions expose both
    /// bank-contention hot spots and hammered rows' home banks.
    pub acts_per_bank: Vec<u64>,
    /// Row-buffer outcome histogram per bank of this channel (flat
    /// within-channel bank index), windowed exactly like `acts_per_bank`.
    /// Shows *where* locality is won or lost bank by bank.
    pub row_outcomes_per_bank: Vec<BankRowOutcomes>,
}

counters!(pub ChannelStats: sum {
    requests,
    rocket_cycles,
    hw_cycles,
    batches,
    serve,
    refreshes_per_rank,
    acts_per_bank,
    row_outcomes_per_bank,
});

/// Per-requestor (per-core) counters of a shared-tile memory system. The
/// tile keeps one record per requestor id, cumulative over its lifetime;
/// run harnesses rebase them against a window-start snapshot exactly like
/// [`ChannelStats`]. Summed over all requestors, these partition the
/// tile-wide totals — the property multi-core fairness studies rely on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequestorStats {
    /// The requestor (core) id this record describes.
    pub requestor: u32,
    /// Requests this requestor had served.
    pub requests: u64,
    /// Line reads (including profiling reads).
    pub reads: u64,
    /// Line writes / writebacks.
    pub writes: u64,
    /// RowClone operations.
    pub rowclones: u64,
    /// Row-buffer hits among this requestor's column sequences.
    pub row_hits: u64,
    /// Row misses among this requestor's column sequences.
    pub row_misses: u64,
    /// Row conflicts among this requestor's column sequences.
    pub row_conflicts: u64,
    /// Rocket (controller) cycles attributed to this requestor's responses.
    pub rocket_cycles: u64,
    /// DRAM bank/bus occupancy attributed to this requestor, in ps — the
    /// numerator of [`RequestorStats::bandwidth_share`].
    pub dram_occupancy_ps: u64,
    /// Column (RD/WR) commands issued for this requestor.
    pub column_ops: u64,
}

impl RequestorStats {
    /// A zeroed record for requestor `id`.
    #[must_use]
    pub fn new(requestor: u32) -> Self {
        Self {
            requestor,
            ..Self::default()
        }
    }

    /// This requestor's share of the given total DRAM occupancy (its
    /// bandwidth share of the run window). 0 when the total is 0.
    #[must_use]
    pub fn bandwidth_share(&self, total_occupancy_ps: u64) -> f64 {
        if total_occupancy_ps == 0 {
            0.0
        } else {
            self.dram_occupancy_ps as f64 / total_occupancy_ps as f64
        }
    }

    /// Row-buffer hit rate among this requestor's column sequences.
    #[must_use]
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses + self.row_conflicts;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }
}

// `same`: merging across requestors would silently misattribute traffic.
counters!(pub RequestorStats: same { requestor } sum {
    requests,
    reads,
    writes,
    rowclones,
    row_hits,
    row_misses,
    row_conflicts,
    rocket_cycles,
    dram_occupancy_ps,
    column_ops,
});

/// A complete account of one workload execution on an EasyDRAM system.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionReport {
    /// Workload name.
    pub name: String,
    /// Timing mode the system ran in.
    pub mode: TimingMode,
    /// Emulated processor cycles consumed.
    pub emulated_cycles: u64,
    /// Emulated time at the target frequency, in seconds.
    pub emulated_seconds: f64,
    /// Instructions retired.
    pub instructions: u64,
    /// Modeled FPGA wall-clock time, in seconds (processor-domain execution
    /// plus every frozen interval spent in the software memory controller
    /// and DRAM Bender).
    pub fpga_wall_seconds: f64,
    /// Simulation speed: emulated processor cycles per wall second (the
    /// paper's Fig. 14 metric).
    pub sim_speed_hz: f64,
    /// Memory-system read requests per thousand emulated cycles (the
    /// paper's LLC-MPKC metric, §8.3).
    pub mem_reads_per_kilo_cycle: f64,
    /// Core counters for the run window.
    pub core: CoreStats,
    /// L1 statistics (cumulative for the system).
    pub l1: Option<CacheLevelStats>,
    /// L2 statistics (cumulative for the system).
    pub l2: Option<CacheLevelStats>,
    /// DRAM device statistics (cumulative for the system).
    pub dram: DeviceStats,
    /// Controller statistics for the run window.
    pub smc: SmcStats,
    /// Per-channel controller statistics for the run window (one entry per
    /// channel; single-channel systems have exactly one).
    pub channels: Vec<ChannelStats>,
    /// The installed software memory controller's name on every channel, in
    /// channel order (heterogeneous per-channel controllers each report
    /// their own name, so sweep outputs stay correctly labeled).
    pub controllers: Vec<String>,
    /// Per-requestor (per-core) statistics for the run window. Single-core
    /// systems carry at most one entry (requestor 0); multi-core shared-tile
    /// runs carry one per core.
    pub requestors: Vec<RequestorStats>,
    /// RowHammer-mitigation counters for the run window, summed over every
    /// channel whose controller runs a mitigation policy (the device's
    /// flips are `dram.disturbance_flips`, cumulative like all of `dram`).
    /// `None` when no installed controller mitigates (the default — reports
    /// stay byte-identical to the pre-disturbance format).
    pub mitigation: Option<MitigationStats>,
    /// Always-on latency and batch-size histograms for the run window,
    /// collected in the deterministic pricing loop whether or not event
    /// tracing is enabled — so percentiles exist in every report and
    /// enabling tracing cannot change a report byte.
    pub metrics: TileMetrics,
}

impl ExecutionReport {
    /// Instructions per emulated cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.emulated_cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.emulated_cycles as f64
        }
    }

    /// Row-buffer hit rate among column accesses.
    #[must_use]
    pub fn row_hit_rate(&self) -> f64 {
        let s = &self.smc.serve;
        let total = s.row_hits + s.row_misses + s.row_conflicts;
        if total == 0 {
            0.0
        } else {
            s.row_hits as f64 / total as f64
        }
    }
}

// `peak_batch` is the tree's one maximum: summing it across shards would
// fabricate a batch size no pass ever carried.
counters!(pub SmcStats: sum {
    requests,
    rocket_cycles,
    hw_cycles,
    batches,
    posted_writes,
    forced_drains,
    serve,
    rowclone_fallbacks,
} max { peak_batch });

impl std::fmt::Display for ExecutionReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "[{}] {}: {} emulated cycles ({:.3} ms emulated, {:.3} ms FPGA wall)",
            self.mode,
            self.name,
            self.emulated_cycles,
            self.emulated_seconds * 1e3,
            self.fpga_wall_seconds * 1e3,
        )?;
        writeln!(
            f,
            "  sim speed {:.2} MHz | IPC {:.2} | mem-reads/kcycle {:.2} | row-hit {:.0}%",
            self.sim_speed_hz / 1e6,
            self.ipc(),
            self.mem_reads_per_kilo_cycle,
            self.row_hit_rate() * 100.0,
        )?;
        writeln!(f, "  core: {}", self.core)?;
        writeln!(f, "  dram: {}", self.dram)?;
        write!(
            f,
            "  smc: {} reqs, {} rocket cycles, {} batches, peak batch {}, {} rowclone fallbacks",
            self.smc.requests,
            self.smc.rocket_cycles,
            self.smc.batches,
            self.smc.peak_batch,
            self.smc.rowclone_fallbacks,
        )?;
        // Latency percentiles only when the window served requests — empty
        // windows keep the historical format.
        if self.metrics.request_latency.count > 0 {
            let (p50, p95, p99) = self.metrics.latency_percentiles();
            write!(
                f,
                "\n  latency cycles: p50 {p50} | p95 {p95} | p99 {p99} (n={})",
                self.metrics.request_latency.count,
            )?;
        }
        // Per-channel breakdown only when there is something to break down —
        // single-channel reports stay byte-identical to the pre-sharding
        // format.
        if self.channels.len() > 1 {
            for (ch, c) in self.channels.iter().enumerate() {
                write!(
                    f,
                    "\n  ch{ch}: {} reqs, {} rocket cycles, {} batches, {}/{}/{} hit/miss/conflict, refreshes {:?}, acts/bank {:?}",
                    c.requests,
                    c.rocket_cycles,
                    c.batches,
                    c.serve.row_hits,
                    c.serve.row_misses,
                    c.serve.row_conflicts,
                    c.refreshes_per_rank,
                    c.acts_per_bank,
                )?;
            }
            // Heterogeneous per-channel controllers would mislabel a sweep
            // if left implicit; call them out whenever they differ.
            if self.controllers.iter().any(|n| n != &self.controllers[0]) {
                write!(f, "\n  controllers: {:?}", self.controllers)?;
            }
        }
        // Per-requestor breakdown only for multi-core shared-tile runs —
        // single-core reports stay byte-identical to the historical format.
        if self.requestors.len() > 1 {
            let total_occ: u64 = self.requestors.iter().map(|q| q.dram_occupancy_ps).sum();
            for q in &self.requestors {
                write!(
                    f,
                    "\n  req{}: {} reqs (rd {} wr {}), {}/{}/{} hit/miss/conflict, bw {:.0}%",
                    q.requestor,
                    q.requests,
                    q.reads,
                    q.writes,
                    q.row_hits,
                    q.row_misses,
                    q.row_conflicts,
                    q.bandwidth_share(total_occ) * 100.0,
                )?;
            }
        }
        // Mitigation line only when a mitigation policy is installed —
        // default reports keep the historical (snapshot-pinned) format.
        if let Some(m) = &self.mitigation {
            write!(
                f,
                "\n  mitigation: {} targeted refreshes, {} rocket cycles",
                m.targeted_refreshes, m.rocket_cycles,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Counters;

    fn report() -> ExecutionReport {
        ExecutionReport {
            name: "test".into(),
            mode: TimingMode::TimeScaling,
            emulated_cycles: 1000,
            emulated_seconds: 1e-6,
            instructions: 1500,
            fpga_wall_seconds: 1e-4,
            sim_speed_hz: 1e7,
            mem_reads_per_kilo_cycle: 2.2,
            core: CoreStats::default(),
            l1: None,
            l2: None,
            dram: DeviceStats::default(),
            smc: SmcStats {
                serve: ServeResult {
                    row_hits: 3,
                    row_misses: 1,
                    ..ServeResult::default()
                },
                ..SmcStats::default()
            },
            channels: vec![ChannelStats::default()],
            controllers: vec!["fr-fcfs".into()],
            requestors: Vec::new(),
            mitigation: None,
            metrics: TileMetrics::default(),
        }
    }

    #[test]
    fn derived_metrics() {
        let r = report();
        assert!((r.ipc() - 1.5).abs() < 1e-9);
        assert!((r.row_hit_rate() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn display_mentions_key_numbers() {
        let s = report().to_string();
        assert!(s.contains("time-scaling"));
        assert!(s.contains("1000 emulated cycles"));
        assert!(s.contains("sim speed 10.00 MHz"));
    }

    #[test]
    fn single_channel_display_omits_channel_lines() {
        let s = report().to_string();
        assert!(
            !s.contains("ch0:"),
            "single-channel reports keep the pre-sharding format"
        );
    }

    #[test]
    fn multi_channel_display_breaks_down_channels() {
        let mut r = report();
        r.channels = vec![
            ChannelStats {
                requests: 10,
                refreshes_per_rank: vec![3, 1],
                ..ChannelStats::default()
            },
            ChannelStats {
                requests: 7,
                ..ChannelStats::default()
            },
        ];
        let s = r.to_string();
        assert!(s.contains("ch0: 10 reqs"));
        assert!(s.contains("ch1: 7 reqs"));
        assert!(s.contains("refreshes [3, 1]"));
    }

    #[test]
    fn channel_stats_rebase_subtracts_window_start() {
        let mut c = ChannelStats {
            requests: 10,
            rocket_cycles: 500,
            hw_cycles: 80,
            batches: 12,
            serve: ServeResult {
                row_hits: 6,
                ..ServeResult::default()
            },
            refreshes_per_rank: vec![5, 2],
            acts_per_bank: vec![9, 4],
            row_outcomes_per_bank: vec![
                BankRowOutcomes {
                    hits: 6,
                    misses: 3,
                    conflicts: 1,
                },
                BankRowOutcomes {
                    hits: 2,
                    misses: 2,
                    conflicts: 0,
                },
            ],
        };
        let start = ChannelStats {
            requests: 4,
            rocket_cycles: 200,
            hw_cycles: 30,
            batches: 5,
            serve: ServeResult {
                row_hits: 1,
                ..ServeResult::default()
            },
            refreshes_per_rank: vec![1, 2],
            acts_per_bank: vec![3, 4],
            row_outcomes_per_bank: vec![
                BankRowOutcomes {
                    hits: 1,
                    misses: 1,
                    conflicts: 0,
                },
                BankRowOutcomes {
                    hits: 2,
                    misses: 0,
                    conflicts: 0,
                },
            ],
        };
        c.rebase(&start);
        assert_eq!(c.requests, 6);
        assert_eq!(c.rocket_cycles, 300);
        assert_eq!(c.serve.row_hits, 5);
        assert_eq!(c.refreshes_per_rank, vec![4, 0]);
        assert_eq!(c.acts_per_bank, vec![6, 0]);
        assert_eq!(
            format!("{:?}", c.row_outcomes_per_bank),
            "[5/2/1, 0/2/0]",
            "per-bank outcomes rebase element-wise and render compactly"
        );
    }

    #[test]
    fn mitigation_line_renders_only_when_present() {
        let mut r = report();
        assert!(!r.to_string().contains("mitigation:"));
        r.mitigation = Some(MitigationStats {
            targeted_refreshes: 12,
            rocket_cycles: 340,
        });
        assert!(r
            .to_string()
            .contains("mitigation: 12 targeted refreshes, 340 rocket cycles"));
    }

    #[test]
    fn multi_channel_display_includes_bank_act_spread() {
        let mut r = report();
        r.channels = vec![
            ChannelStats {
                acts_per_bank: vec![7, 1],
                ..ChannelStats::default()
            },
            ChannelStats::default(),
        ];
        assert!(r.to_string().contains("acts/bank [7, 1]"));
    }

    #[test]
    fn latency_line_renders_only_when_requests_were_served() {
        let mut r = report();
        assert!(
            !r.to_string().contains("latency cycles:"),
            "empty windows keep the historical format"
        );
        for v in [40u64, 40, 40, 3000] {
            r.metrics.request_latency.record(v);
        }
        let s = r.to_string();
        assert!(
            s.contains("latency cycles: p50 63 | p95 4095 | p99 4095 (n=4)"),
            "unexpected latency line in: {s}"
        );
    }

    #[test]
    fn zero_cycle_report_is_safe() {
        let mut r = report();
        r.emulated_cycles = 0;
        r.smc.serve = ServeResult::default();
        assert_eq!(r.ipc(), 0.0);
        assert_eq!(r.row_hit_rate(), 0.0);
    }
}
