//! Multi-core execution over one shared EasyDRAM tile.
//!
//! [`MultiCoreSystem`] co-schedules N [`CoreModel`] instances over a single
//! multi-channel [`Tile`]: every core owns a [`SharedBackend`] handle tagged
//! with its requestor id, so the tile's serve passes interleave the cores'
//! request streams through the same per-channel controllers, devices, and
//! emulated timelines — real contention, measurable per requestor.
//!
//! # Determinism
//!
//! Workloads are ordinary run-to-completion programs, so each core executes
//! on its own thread — but never concurrently. A [`CoScheduler`] passes a
//! baton at memory-operation boundaries, always to the core with the
//! smallest emulated `now` (ties by core id), quantum-bounded: the running
//! core yields once it is more than a quantum of emulated cycles
//! ([`MultiCoreSystem::set_quantum`]) ahead of the laggard. Every scheduling
//! decision depends only on emulated cycle counts, so a co-run reproduces
//! **byte-identically** across repetitions and hosts. The trade-off is
//! interleaving granularity: a core that computes without touching memory
//! holds the baton until its next memory operation.

use std::sync::{Arc, Mutex};

use easydram_cpu::timescale::Clock;
use easydram_cpu::{
    CoScheduler, CoreModel, CoreStats, CpuApi, QuantumSwitch, SharedBackend, Workload,
};

use crate::config::SystemConfig;
use crate::obs::{TraceEvent, TraceLog};
use crate::report::ExecutionReport;
use crate::system::{CoreMark, Tile};

/// Default co-scheduling quantum, in emulated processor cycles.
///
/// The quantum bounds the **emulation-order skew**: the running core may
/// issue (and price on the shared timelines) requests up to one quantum
/// ahead of the laggard core's emulation point, so a large quantum lets an
/// aggressor reserve the bus ahead of a victim request with an earlier
/// arrival tag. 50 cycles is well under one DRAM round trip at the default
/// 1.43 GHz target, keeping that skew below the noise floor of latency
/// measurements while baton hand-offs stay cheap.
pub const DEFAULT_QUANTUM_CYCLES: u64 = 50;

/// Per-core summary of one co-run.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreRun {
    /// The core / requestor id.
    pub requestor: u32,
    /// The workload this core executed.
    pub workload: String,
    /// Emulated cycles this core consumed in the run window.
    pub emulated_cycles: u64,
    /// The workload's own measured region, when it defines one.
    pub measured_cycles: Option<u64>,
    /// This core's counters for the run window.
    pub core: CoreStats,
}

/// Everything a fairness/interference study needs from one co-run: the
/// tile-wide aggregate (whose `requestors` break the memory traffic down
/// per core) plus per-core execution summaries.
#[derive(Debug, Clone, PartialEq)]
pub struct CoRunReport {
    /// Aggregate report over the shared tile. `emulated_cycles` is the
    /// slowest core's window (the co-run's makespan); `core` sums every
    /// core's counters; `requestors` carries the per-core memory-system
    /// breakdown.
    pub aggregate: ExecutionReport,
    /// One summary per core, in requestor order.
    pub cores: Vec<CoreRun>,
}

impl std::fmt::Display for CoRunReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.aggregate)?;
        for c in &self.cores {
            write!(
                f,
                "\n  core{} [{}]: {} cycles | {}",
                c.requestor, c.workload, c.emulated_cycles, c.core
            )?;
        }
        Ok(())
    }
}

/// N cores co-scheduled over one shared tile.
pub struct MultiCoreSystem {
    tile: Arc<Mutex<Tile>>,
    cores: Vec<CoreModel<SharedBackend<Tile>>>,
    quantum: u64,
    /// Baton handoffs drained from co-run schedulers, pending export. Only
    /// populated while tracing (see [`MultiCoreSystem::take_trace`]).
    switches: Vec<QuantumSwitch>,
    switches_dropped: u64,
}

impl MultiCoreSystem {
    /// Builds `n_cores` identical cores (per `cfg.core`) over one shared
    /// tile built from `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails validation or `n_cores` is zero.
    #[must_use]
    pub fn new(cfg: SystemConfig, n_cores: usize) -> Self {
        cfg.validate().expect("invalid system configuration");
        assert!(n_cores > 0, "a multi-core system needs at least one core");
        let core_cfg = cfg.core.clone();
        let handles = SharedBackend::fan_out(Tile::new(cfg), n_cores);
        let tile = handles[0].shared();
        let cores = handles
            .into_iter()
            .map(|h| CoreModel::new(core_cfg.clone(), h))
            .collect();
        Self {
            tile,
            cores,
            quantum: DEFAULT_QUANTUM_CYCLES,
            switches: Vec::new(),
            switches_dropped: 0,
        }
    }

    /// Drains the shared tile's trace (event and command rings) plus every
    /// pending co-scheduler baton handoff into one export-ready
    /// [`TraceLog`]. Handoff cycles convert to emulated picoseconds at the
    /// target core frequency. Empty when tracing is off.
    pub fn take_trace(&mut self) -> TraceLog {
        let core = Clock::from_hz(self.with_tile(|t| t.config().core.freq_hz));
        let mut log = self.with_tile(|t| t.take_trace_with_room(self.switches.len()));
        for sw in self.switches.drain(..) {
            log.push(TraceEvent::quantum_switch(
                core.cycles_to_ps(sw.cycle),
                sw.from,
                sw.to,
            ));
        }
        log.dropped += std::mem::take(&mut self.switches_dropped);
        log
    }

    /// Sets the co-scheduling quantum (emulated cycles a core may run ahead
    /// of the laggard before yielding).
    pub fn set_quantum(&mut self, quantum: u64) {
        self.quantum = quantum;
    }

    /// Runs `f` over the shared tile (host-side tooling: controller
    /// installation, device setup, statistics).
    pub fn with_tile<R>(&self, f: impl FnOnce(&mut Tile) -> R) -> R {
        f(&mut self.tile.lock().expect("shared tile"))
    }

    /// One core's model, for pre/post-run inspection.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[must_use]
    pub fn core(&self, core: usize) -> &CoreModel<SharedBackend<Tile>> {
        &self.cores[core]
    }

    /// Co-runs one workload per core to completion and reports on the
    /// window. Core `i` executes `workloads[i]` as requestor `i`; the cores
    /// interleave deterministically (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics unless there is one workload per core, or propagates the first
    /// workload panic.
    pub fn co_run(&mut self, workloads: &mut [&mut dyn Workload]) -> CoRunReport {
        assert_eq!(
            workloads.len(),
            self.cores.len(),
            "one workload per core; pad with idle workloads if needed"
        );
        let n = self.cores.len();

        let start = self.with_tile(|t| t.open_window(self.core_marks()));

        // --- The co-run itself: one thread per core, baton-scheduled. ---
        let sched = CoScheduler::new(n, self.quantum);
        let trace_cfg = self.with_tile(|t| t.config().trace);
        if let Some(t) = trace_cfg {
            sched.enable_switch_log(t.ring_capacity);
        }
        for core in &mut self.cores {
            core.backend_mut().attach_scheduler(Arc::clone(&sched));
        }
        // Baton-scheduled: CoScheduler admits exactly one runnable core at a
        // time, so interleaving is a pure function of simulated cycle counts,
        // not OS scheduling.
        #[expect(clippy::disallowed_methods, reason = "baton-scheduled by CoScheduler")]
        std::thread::scope(|scope| {
            for (i, (core, workload)) in self.cores.iter_mut().zip(workloads.iter_mut()).enumerate()
            {
                let sched = Arc::clone(&sched);
                scope.spawn(move || {
                    sched.start(i);
                    // Release the baton even if the workload panics, so the
                    // other cores can finish and the panic propagates
                    // through the scope instead of deadlocking it.
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        workload.run(core);
                    }));
                    sched.finish(i, core.now_cycles());
                    if let Err(panic) = result {
                        std::panic::resume_unwind(panic);
                    }
                });
            }
        });
        for core in &mut self.cores {
            core.backend_mut().detach_scheduler();
        }
        if trace_cfg.is_some() {
            let (switches, dropped) = sched.take_switches();
            self.switches.extend(switches);
            self.switches_dropped += dropped;
        }

        // --- Window accounting: one subtraction, one assembler. ---
        let mut tile = self.tile.lock().expect("shared tile");
        let window = tile.close_window(&start, self.core_marks());
        let cores: Vec<CoreRun> = window
            .cores
            .iter()
            .zip(workloads.iter())
            .enumerate()
            .map(|(i, (c, w))| CoreRun {
                requestor: i as u32,
                workload: w.name().to_string(),
                emulated_cycles: c.cycles,
                measured_cycles: w.measured_cycles(),
                core: c.stats,
            })
            .collect();
        let name = cores
            .iter()
            .map(|c| c.workload.as_str())
            .collect::<Vec<_>>()
            .join("+");
        // Cache hierarchies are per core; see each `CoreRun` instead.
        let aggregate = tile.report_over(name, window, None, None);
        CoRunReport { aggregate, cores }
    }

    fn core_marks(&self) -> Vec<CoreMark> {
        self.cores.iter().map(CoreMark::of).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TimingMode;

    struct Touch {
        lines: u64,
        name: &'static str,
    }
    impl Workload for Touch {
        fn name(&self) -> &str {
            self.name
        }
        fn run(&mut self, cpu: &mut dyn CpuApi) {
            let a = cpu.alloc(self.lines * 64, 64);
            for i in 0..self.lines {
                cpu.store_u64(a + i * 64, i);
            }
            for i in 0..self.lines {
                cpu.clflush(a + i * 64);
            }
            cpu.fence();
            for i in 0..self.lines {
                assert_eq!(cpu.load_u64(a + i * 64), i);
            }
        }
    }

    #[test]
    fn two_cores_share_one_tile_and_stay_correct() {
        let mut sys = MultiCoreSystem::new(SystemConfig::small_for_tests(TimingMode::Reference), 2);
        let mut a = Touch {
            lines: 32,
            name: "a",
        };
        let mut b = Touch {
            lines: 32,
            name: "b",
        };
        let r = sys.co_run(&mut [&mut a, &mut b]);
        assert_eq!(r.cores.len(), 2);
        assert_eq!(r.aggregate.name, "a+b");
        assert!(r.aggregate.emulated_cycles > 0);
        // Both requestors really reached the memory system.
        assert_eq!(r.aggregate.requestors.len(), 2);
        for q in &r.aggregate.requestors {
            assert!(q.requests > 0, "requestor {} starved", q.requestor);
            assert!(q.reads >= 32, "each core read its own lines back");
        }
    }

    #[test]
    fn requestor_stats_partition_the_aggregate() {
        let mut sys =
            MultiCoreSystem::new(SystemConfig::small_for_tests(TimingMode::TimeScaling), 2);
        let mut a = Touch {
            lines: 24,
            name: "a",
        };
        let mut b = Touch {
            lines: 40,
            name: "b",
        };
        let r = sys.co_run(&mut [&mut a, &mut b]);
        let q = &r.aggregate.requestors;
        assert_eq!(
            q.iter().map(|q| q.requests).sum::<u64>(),
            r.aggregate.smc.requests
        );
        assert_eq!(
            q.iter().map(|q| q.row_hits).sum::<u64>(),
            r.aggregate.smc.serve.row_hits,
            "slice-attributed row hits partition the controller totals"
        );
        let shares: f64 = q
            .iter()
            .map(|q| {
                q.bandwidth_share(
                    r.aggregate
                        .requestors
                        .iter()
                        .map(|x| x.dram_occupancy_ps)
                        .sum(),
                )
            })
            .sum();
        assert!((shares - 1.0).abs() < 1e-9, "bandwidth shares sum to 1");
    }

    #[test]
    fn workload_panic_propagates_while_other_cores_finish() {
        // Core 1 panics holding the baton, mid-run. The baton must still
        // reach cores 0 and 2 (a lost baton would hang this test), and the
        // panic must reach the caller once they are done.
        struct Boom;
        impl Workload for Boom {
            fn name(&self) -> &str {
                "boom"
            }
            fn run(&mut self, cpu: &mut dyn CpuApi) {
                let a = cpu.alloc(64, 64);
                let _ = cpu.load_u64(a);
                panic!("boom");
            }
        }
        struct Finisher {
            inner: Touch,
            done: bool,
        }
        impl Workload for Finisher {
            fn name(&self) -> &str {
                self.inner.name
            }
            fn run(&mut self, cpu: &mut dyn CpuApi) {
                self.inner.run(cpu);
                self.done = true;
            }
        }
        let finisher = |name| Finisher {
            inner: Touch { lines: 32, name },
            done: false,
        };
        let mut sys = MultiCoreSystem::new(SystemConfig::small_for_tests(TimingMode::Reference), 3);
        let (mut a, mut c) = (finisher("a"), finisher("c"));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sys.co_run(&mut [&mut a, &mut Boom, &mut c])
        }));
        assert!(result.is_err(), "the workload panic reaches the caller");
        assert!(a.done && c.done, "the other cores ran to completion");
    }

    #[test]
    fn second_co_run_reports_its_own_peak_batch() {
        let mut sys = MultiCoreSystem::new(SystemConfig::small_for_tests(TimingMode::Reference), 1);
        let mut burst = Touch {
            lines: 6,
            name: "burst",
        };
        let first = sys.co_run(&mut [&mut burst]).aggregate.smc.peak_batch;
        assert!(first >= 4, "the flush burst batches");
        let mut lone = Touch {
            lines: 1,
            name: "lone",
        };
        let second = sys.co_run(&mut [&mut lone]).aggregate.smc.peak_batch;
        assert!(
            second < first,
            "window peak, not lifetime: {second} vs {first}"
        );
        assert_eq!(sys.with_tile(|t| t.smc_stats().peak_batch), first);
    }

    #[test]
    fn second_run_reports_its_own_window() {
        // `System::run` on a reused system is a 1-core co-run: every field
        // of the second report describes the second window alone.
        let cfg = SystemConfig::small_for_tests(TimingMode::TimeScaling);
        let mut plain = crate::System::new(cfg.clone());
        let mut multi = MultiCoreSystem::new(cfg, 1);
        let touch = || Touch {
            lines: 48,
            name: "solo",
        };
        plain.run(&mut touch());
        multi.co_run(&mut [&mut touch()]);
        let r2 = plain.run(&mut touch());
        let m2 = multi.co_run(&mut [&mut touch()]).aggregate;
        assert_eq!(r2.core.instructions, r2.instructions);
        // The two differ only where a co-run differs by design: caches are
        // per core there. So `sim_speed_hz` is window cycles over window
        // wall on both.
        let mut expect = m2;
        (expect.l1, expect.l2) = (r2.l1, r2.l2);
        assert_eq!(r2, expect);
    }
}
