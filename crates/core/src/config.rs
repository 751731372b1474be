//! System configuration: emulation mode, FPGA platform constants, target
//! system, and memory system.

use easydram_bender::TransferCost;
use easydram_cpu::CoreConfig;
use easydram_dram::{DramConfig, MappingScheme};

use crate::costs::SmcCostModel;
use crate::obs::{TraceConfig, MAX_RING_CAPACITY};

/// The deepest posted-write buffer `SystemConfig::validate` accepts.
const MAX_WRITE_BUFFER_DEPTH: usize = 1 << 12;

/// How request latencies observed by the processor are computed (paper §3,
/// §4.3, §6, §7.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimingMode {
    /// Ground truth for the modeled system: exact picosecond accounting of
    /// the modeled memory controller + real DRAM timing (the paper's RTL
    /// reference system in §6, and the stand-in for the real Cortex-A57
    /// board in Fig. 8).
    Reference,
    /// EasyDRAM with time scaling: the same quantities, with the DRAM finish
    /// time rounded to the DRAM clock and each component rounded to whole
    /// processor cycles, as the FPGA's counters do (§4.3). Validated to be
    /// within 0.1 % of `Reference` on average (§6).
    TimeScaling,
    /// EasyDRAM/PiDRAM without time scaling: the processor observes raw FPGA
    /// wall-clock latencies scaled by its slow FPGA clock — the skewed
    /// methodology the paper quantifies (§7.2).
    NoTimeScaling,
}

impl std::fmt::Display for TimingMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            TimingMode::Reference => "reference",
            TimingMode::TimeScaling => "time-scaling",
            TimingMode::NoTimeScaling => "no-time-scaling",
        };
        f.write_str(s)
    }
}

/// FPGA platform constants (paper §5, §6; `docs/API.md`, *Lifecycle*, shows
/// where a serve pass reads the tile clock).
#[derive(Debug, Clone, PartialEq)]
pub struct FpgaConfig {
    /// Clock of the tile domain: Rocket programmable core, tile control
    /// logic, and DRAM Bender front end. The paper's Rocket runs at 100 MHz.
    pub tile_clk_hz: u64,
    /// Clock of the emulated-processor domain on the FPGA (BOOM is
    /// synthesizable at a few tens of MHz on a VCU108).
    pub proc_clk_hz: u64,
    /// Cost model for command/readback transfers between the programmable
    /// core and DRAM Bender.
    pub transfer: TransferCost,
}

impl Default for FpgaConfig {
    fn default() -> Self {
        Self {
            tile_clk_hz: 100_000_000,
            proc_clk_hz: 25_000_000,
            transfer: TransferCost::default(),
        }
    }
}

/// Complete configuration of an EasyDRAM [`crate::System`].
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Timing mode.
    pub mode: TimingMode,
    /// FPGA platform constants.
    pub fpga: FpgaConfig,
    /// The modeled (target) processor.
    pub core: CoreConfig,
    /// Emulated clock frequency at which software-memory-controller cycles
    /// are converted to modeled-system scheduling latency (paper §4.3
    /// step 11: "the duration spent on scheduling a memory request is
    /// converted to the number of emulation cycles at the emulated system's
    /// clock frequency").
    pub mc_emul_hz: u64,
    /// Fixed modeled memory-controller pipeline latency added to every
    /// request (queueing, PHY) in picoseconds of emulated time.
    pub mc_fixed_latency_ps: u64,
    /// Per-EasyAPI-call Rocket-cycle costs.
    pub smc_costs: SmcCostModel,
    /// The DRAM device.
    pub dram: DramConfig,
    /// Physical-to-DRAM address mapping (one layout; see
    /// [`MappingScheme`]).
    pub mapping: MappingScheme,
    /// Depth of the tile's posted-write buffer: how many writes/writebacks
    /// the pending-request stream accumulates before a serve pass is forced.
    /// Reads and fences always drain the stream regardless of depth.
    /// `validate` accepts `1..=4096`: every channel reserves a request slot
    /// per entry up front (4096 is 16x the deepest buffer any caller sets).
    pub write_buffer_depth: usize,
    /// Number of RowClone trials the allocator uses to qualify a pair
    /// (paper §7.1: 1000).
    pub rowclone_test_trials: u32,
    /// Accepted and without effect: a simulation runs on its caller's
    /// threads only (docs/API.md "Threads"). Reports were already
    /// byte-identical at every value. The field stays because `benchmark/`
    /// sets it; it goes when that pin does (see ROADMAP).
    pub threads: Option<u32>,
    /// Event tracing: `None` (the default everywhere) records no events;
    /// `Some(cfg)` turns tracing on with the given ring capacity. This field
    /// is the only switch. Tracing never changes a report byte — it only
    /// records events (see `crate::obs`).
    pub trace: Option<TraceConfig>,
}

impl SystemConfig {
    /// The paper's main configuration: an NVIDIA Jetson Nano-class system
    /// (Cortex-A57 at 1.43 GHz, 512 KiB L2) over single-rank DDR4-1333
    /// (§6, §7.2).
    #[must_use]
    pub fn jetson_nano(mode: TimingMode) -> Self {
        Self {
            mode,
            fpga: FpgaConfig::default(),
            core: CoreConfig::cortex_a57(),
            mc_emul_hz: 2_000_000_000,
            mc_fixed_latency_ps: 24_000,
            smc_costs: SmcCostModel::default(),
            dram: DramConfig::default(),
            // Bank-interleaved line mapping: read and writeback streams
            // spread across banks instead of thrashing one row buffer.
            mapping: MappingScheme::RowColBankXor,
            write_buffer_depth: 8,
            rowclone_test_trials: 1_000,
            threads: None,
            trace: None,
        }
    }

    /// The PiDRAM-like configuration of §7.2: a simple in-order 50 MHz
    /// processor observing raw FPGA latencies (No Time Scaling).
    #[must_use]
    pub fn pidram_like() -> Self {
        Self {
            mode: TimingMode::NoTimeScaling,
            fpga: FpgaConfig {
                proc_clk_hz: 50_000_000,
                ..FpgaConfig::default()
            },
            core: CoreConfig::pidram_50mhz(),
            ..Self::jetson_nano(TimingMode::NoTimeScaling)
        }
    }

    /// The §6 validation pair: a 1 GHz in-order-ish system emulated from a
    /// 100 MHz FPGA processor clock. Returns the config for `mode`
    /// (`TimeScaling` for EasyDRAM, `Reference` for the RTL reference).
    #[must_use]
    pub fn validation_1ghz(mode: TimingMode) -> Self {
        let core = CoreConfig {
            freq_hz: 1_000_000_000,
            ..CoreConfig::cortex_a57()
        };
        Self {
            mode,
            fpga: FpgaConfig {
                proc_clk_hz: 100_000_000,
                ..FpgaConfig::default()
            },
            core,
            ..Self::jetson_nano(mode)
        }
    }

    /// A small-geometry configuration for fast unit tests.
    #[must_use]
    pub fn small_for_tests(mode: TimingMode) -> Self {
        Self {
            dram: DramConfig::small_for_tests(),
            rowclone_test_trials: 100,
            ..Self::jetson_nano(mode)
        }
    }

    /// Validates all nested configuration.
    ///
    /// # Errors
    ///
    /// Returns the first inconsistency found in any component.
    pub fn validate(&self) -> Result<(), String> {
        self.core.validate()?;
        // DRAM validation is typed (`DramError::InvalidTiming` carries the
        // contradiction rule id); the system-level validator flattens it
        // into the same string channel as the other components.
        self.dram.validate().map_err(|e| e.to_string())?;
        if self.fpga.tile_clk_hz == 0 || self.fpga.proc_clk_hz == 0 {
            return Err("FPGA clocks must be non-zero".into());
        }
        if self.mc_emul_hz == 0 {
            return Err("emulated MC frequency must be non-zero".into());
        }
        if self.rowclone_test_trials == 0 {
            return Err("pair qualification needs at least one trial".into());
        }
        if self.write_buffer_depth == 0 {
            return Err("the posted-write buffer needs at least one slot".into());
        }
        if self.write_buffer_depth > MAX_WRITE_BUFFER_DEPTH {
            return Err(format!(
                "the posted-write buffer holds at most {MAX_WRITE_BUFFER_DEPTH} writes"
            ));
        }
        if let Some(trace) = self.trace {
            if trace.ring_capacity == 0 {
                return Err("the trace ring needs at least one slot".into());
            }
            if trace.ring_capacity > MAX_RING_CAPACITY {
                return Err(format!(
                    "the trace ring holds at most {MAX_RING_CAPACITY} events"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        SystemConfig::jetson_nano(TimingMode::TimeScaling)
            .validate()
            .unwrap();
        SystemConfig::pidram_like().validate().unwrap();
        SystemConfig::validation_1ghz(TimingMode::Reference)
            .validate()
            .unwrap();
        SystemConfig::small_for_tests(TimingMode::NoTimeScaling)
            .validate()
            .unwrap();
    }

    #[test]
    fn pidram_matches_paper_shape() {
        let c = SystemConfig::pidram_like();
        assert_eq!(c.mode, TimingMode::NoTimeScaling);
        assert_eq!(c.core.freq_hz, 50_000_000);
        assert_eq!(
            c.fpga.proc_clk_hz, 50_000_000,
            "No-TS: processor runs at FPGA speed"
        );
    }

    #[test]
    fn validation_pair_share_target() {
        let a = SystemConfig::validation_1ghz(TimingMode::TimeScaling);
        let b = SystemConfig::validation_1ghz(TimingMode::Reference);
        assert_eq!(a.core.freq_hz, b.core.freq_hz);
        assert_eq!(a.fpga.proc_clk_hz, 100_000_000);
    }

    #[test]
    fn mode_display() {
        assert_eq!(TimingMode::TimeScaling.to_string(), "time-scaling");
        assert_eq!(TimingMode::Reference.to_string(), "reference");
        assert_eq!(TimingMode::NoTimeScaling.to_string(), "no-time-scaling");
    }

    #[test]
    fn validation_surfaces_core_cache_geometry() {
        // Either of these used to pass here and panic in `Cache::new`.
        let mut c = SystemConfig::jetson_nano(TimingMode::Reference);
        c.core.l1.as_mut().unwrap().ways = 0;
        assert!(c.validate().unwrap_err().starts_with("L1: "));
        let mut c = SystemConfig::jetson_nano(TimingMode::Reference);
        c.core.l2.as_mut().unwrap().ways = 3;
        assert!(c.validate().unwrap_err().starts_with("L2: "));
    }

    #[test]
    fn validation_catches_zero_clock() {
        let mut c = SystemConfig::jetson_nano(TimingMode::Reference);
        c.fpga.tile_clk_hz = 0;
        assert!(c.validate().is_err());
        let mut c = SystemConfig::jetson_nano(TimingMode::Reference);
        c.mc_emul_hz = 0;
        assert!(c.validate().is_err());
        let mut c = SystemConfig::jetson_nano(TimingMode::Reference);
        c.write_buffer_depth = 0;
        assert!(c.validate().is_err());
        let mut c = SystemConfig::jetson_nano(TimingMode::Reference);
        c.trace = Some(TraceConfig {
            ring_capacity: MAX_RING_CAPACITY,
        });
        assert!(c.validate().is_ok());
        c.trace = Some(TraceConfig {
            ring_capacity: MAX_RING_CAPACITY + 1,
        });
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_bounds_the_write_buffer() {
        // Each of these used to validate: the first then overflowed the
        // session's `depth + 1` in debug, the second aborted in the allocator.
        for depth in [usize::MAX, 1 << 40, MAX_WRITE_BUFFER_DEPTH + 1] {
            let mut c = SystemConfig::small_for_tests(TimingMode::Reference);
            c.write_buffer_depth = depth;
            let err = c.validate().unwrap_err();
            assert!(err.contains("at most 4096"), "{depth}: {err}");
        }
        let mut c = SystemConfig::small_for_tests(TimingMode::Reference);
        c.write_buffer_depth = MAX_WRITE_BUFFER_DEPTH;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_rejects_a_zero_refresh_interval() {
        // Used to validate, then divide by zero pricing the first read.
        let mut c = SystemConfig::small_for_tests(TimingMode::Reference);
        c.dram.timing.t_refi_ps = 0;
        c.dram.timing.t_rfc_ps = 0;
        let err = c.validate().unwrap_err();
        assert!(err.contains("cfg/refresh-interval"), "{err}");
    }
}
