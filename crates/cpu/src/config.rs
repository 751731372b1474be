//! Core-model configuration and the paper's processor presets.

use crate::cache::CacheConfig;
use crate::core::Q32_ONE;
use crate::LINE_BYTES;

/// Parameters of the modeled processor core.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreConfig {
    /// Human-readable name for reports.
    pub name: String,
    /// The processor's clock frequency in Hz (the *emulated* frequency; how
    /// cycles map to wall time is the memory backend's concern).
    pub freq_hz: u64,
    /// Sustained instructions per cycle for non-memory work.
    pub compute_ipc: f64,
    /// Maximum overlapping memory requests (MSHRs) for streaming accesses
    /// and stores. `1` models a blocking in-order cache.
    pub mshrs: usize,
    /// L1 data cache, or `None` for an uncached level.
    pub l1: Option<CacheConfig>,
    /// Unified L2 / last-level cache, or `None`.
    pub l2: Option<CacheConfig>,
    /// Pipeline cost of issuing any memory operation, in cycles.
    pub issue_cost_cycles: u64,
    /// Cost of a `clflush` operation (the paper's memory-mapped flush
    /// register write), in cycles, excluding the writeback itself.
    pub clflush_cost_cycles: u64,
    /// Round-trip time of the uncached MMIO accesses that trigger a RowClone
    /// operation and poll its completion (the PiDRAM-style driver interface),
    /// in nanoseconds. Constant in wall time, so a faster core spends more
    /// cycles on it.
    pub mmio_roundtrip_ns: u64,
}

impl CoreConfig {
    /// Cortex-A57-class out-of-order core at 1.43 GHz: the NVIDIA Jetson
    /// Nano CPU that EasyDRAM's time-scaled configuration targets (paper §6).
    ///
    /// The L2 is 512 KiB — the paper notes EasyDRAM's system has a 512 KiB
    /// L2 whereas the Jetson Nano has 2 MiB.
    #[must_use]
    pub fn cortex_a57() -> Self {
        Self {
            name: "cortex-a57".into(),
            freq_hz: 1_430_000_000,
            compute_ipc: 2.0,
            // 6 L2 MSHRs plus the stream prefetcher's outstanding lines.
            mshrs: 8,
            l1: Some(CacheConfig::l1d_32k()),
            l2: Some(CacheConfig::l2_512k()),
            issue_cost_cycles: 1,
            clflush_cost_cycles: 4,
            mmio_roundtrip_ns: 120,
        }
    }

    /// The PiDRAM-style evaluation processor: a simple in-order core at
    /// 50 MHz with a blocking cache (paper §7: "a simple in-order processor
    /// clocked at 50 MHz"). EasyDRAM's No-Time-Scaling configuration models
    /// the same system plus a 512 KiB L2.
    #[must_use]
    pub fn pidram_50mhz() -> Self {
        Self {
            name: "pidram-in-order-50mhz".into(),
            freq_hz: 50_000_000,
            compute_ipc: 1.0,
            mshrs: 1,
            l1: Some(CacheConfig::l1d_32k()),
            l2: Some(CacheConfig::l2_512k()),
            issue_cost_cycles: 1,
            clflush_cost_cycles: 4,
            mmio_roundtrip_ns: 120,
        }
    }

    /// The simple out-of-order core model used by the Ramulator 2.0 baseline:
    /// only a 512 KiB 8-way LLC, no L1 (paper §7.2 footnote 5: "a simple
    /// out-of-order core and a last-level cache ... significantly differs
    /// from EasyDRAM's real processor system").
    #[must_use]
    pub fn ramulator_ooo() -> Self {
        Self {
            name: "ramulator-simple-ooo".into(),
            freq_hz: 2_000_000_000,
            compute_ipc: 1.0,
            mshrs: 8,
            l1: None,
            l2: Some(CacheConfig {
                size_bytes: 512 * 1024,
                ways: 8,
                hit_latency_cycles: 18,
            }),
            issue_cost_cycles: 1,
            clflush_cost_cycles: 4,
            // Software simulation does not model the MMIO driver interface.
            mmio_roundtrip_ns: 0,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency: a zero frequency;
    /// an IPC that is not positive, or whose reciprocal does not fit the
    /// Q32.32 cycles-per-op `compute` accumulates; an MSHR count of zero or
    /// above 4096; a cache level whose geometry [`crate::Cache`] cannot
    /// index.
    pub fn validate(&self) -> Result<(), String> {
        if self.freq_hz == 0 {
            return Err("frequency must be non-zero".into());
        }
        if self.compute_ipc.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err("IPC must be positive".into());
        }
        let q32_one = Q32_ONE as f64;
        if self.compute_ipc <= 1.0 / q32_one || self.compute_ipc > q32_one {
            return Err(format!(
                "IPC {} is outside (2^-32, 2^32], where its reciprocal fits Q32.32",
                self.compute_ipc
            ));
        }
        if self.mshrs == 0 {
            return Err("at least one MSHR is required".into());
        }
        if self.mshrs > MAX_MSHRS {
            return Err(format!("at most {MAX_MSHRS} MSHRs are supported"));
        }
        for (level, cache) in [("L1", self.l1), ("L2", self.l2)] {
            if let Some(cache) = cache {
                validate_geometry(&cache).map_err(|e| format!("{level}: {e}"))?;
            }
        }
        Ok(())
    }
}

/// Most MSHRs a core may have: the file is allocated up front and scanned
/// linearly on every reservation.
const MAX_MSHRS: usize = 4096;

/// Checks that a cache level divides into whole sets of whole lines, and
/// into a power-of-two number of them ([`crate::Cache`] indexes sets with a
/// mask).
fn validate_geometry(cache: &CacheConfig) -> Result<(), String> {
    if cache.ways == 0 {
        return Err("associativity must be non-zero".into());
    }
    let set_bytes = u64::from(cache.ways) * LINE_BYTES as u64;
    let size = u64::from(cache.size_bytes);
    if size == 0 || size % set_bytes != 0 {
        return Err(format!(
            "size {size} is not a positive multiple of {} ways x {LINE_BYTES} bytes",
            cache.ways
        ));
    }
    if !(size / set_bytes).is_power_of_two() {
        return Err(format!(
            "set count {} must be a power of two",
            size / set_bytes
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        CoreConfig::cortex_a57().validate().unwrap();
        CoreConfig::pidram_50mhz().validate().unwrap();
        CoreConfig::ramulator_ooo().validate().unwrap();
    }

    #[test]
    fn preset_shapes_match_paper() {
        let a57 = CoreConfig::cortex_a57();
        assert_eq!(a57.freq_hz, 1_430_000_000);
        assert!(a57.mshrs > 1, "A57 overlaps misses");
        let pidram = CoreConfig::pidram_50mhz();
        assert_eq!(pidram.freq_hz, 50_000_000);
        assert_eq!(pidram.mshrs, 1, "blocking in-order cache");
        let ram = CoreConfig::ramulator_ooo();
        assert!(ram.l1.is_none(), "Ramulator model has only an LLC");
    }

    #[test]
    fn validation_rejects_nonsense() {
        let mut c = CoreConfig::cortex_a57();
        c.freq_hz = 0;
        assert!(c.validate().is_err());
        let mut c = CoreConfig::cortex_a57();
        c.compute_ipc = 0.0;
        assert!(c.validate().is_err());
        let mut c = CoreConfig::cortex_a57();
        c.mshrs = 0;
        assert!(c.validate().is_err());
        c.mshrs = MAX_MSHRS;
        c.validate().unwrap();
        c.mshrs = MAX_MSHRS + 1;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_rejects_ipc_outside_fixed_point() {
        let mut c = CoreConfig::cortex_a57();
        for ok in [0.5, 3.0, 4_294_967_296.0, 1.0 / 4_294_967_295.0] {
            c.compute_ipc = ok;
            c.validate().unwrap();
        }
        for bad in [
            1.0 / 4_294_967_296.0,
            4_294_967_297.0,
            f64::INFINITY,
            f64::NAN,
            -1.0,
        ] {
            c.compute_ipc = bad;
            assert!(c.validate().is_err(), "IPC {bad}");
        }
    }

    fn with_l1(size_bytes: u32, ways: u32) -> Result<(), String> {
        let mut c = CoreConfig::cortex_a57();
        c.l1 = Some(CacheConfig {
            size_bytes,
            ways,
            hit_latency_cycles: 1,
        });
        c.validate()
    }

    #[test]
    fn validation_rejects_zero_ways() {
        assert!(with_l1(1024, 0).unwrap_err().contains("associativity"));
    }

    #[test]
    fn validation_rejects_size_not_in_whole_sets() {
        assert!(with_l1(0, 2).unwrap_err().contains("multiple"));
        assert!(with_l1(1000, 2).unwrap_err().contains("multiple"));
        // ways x 64 overflows a u32 here; the check must not.
        assert!(with_l1(1 << 31, 1 << 27).unwrap_err().contains("multiple"));
    }

    #[test]
    fn validation_rejects_non_power_of_two_sets() {
        // 3 ways of 4 sets is fine; 2 ways of 3 sets is not.
        with_l1(768, 3).unwrap();
        assert!(with_l1(384, 2).unwrap_err().contains("power of two"));
        // The same rule holds for the L2, and names the level.
        let mut c = CoreConfig::cortex_a57();
        c.l2.as_mut().unwrap().ways = 3;
        assert!(c.validate().unwrap_err().starts_with("L2: "));
    }
}
