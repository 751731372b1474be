//! Core-side execution statistics.

/// Counters maintained by [`crate::CoreModel`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Instructions retired (compute ops + memory ops).
    pub instructions: u64,
    /// Load instructions.
    pub loads: u64,
    /// Store instructions.
    pub stores: u64,
    /// `clflush` operations.
    pub clflushes: u64,
    /// Fences executed.
    pub fences: u64,
    /// Cache-line read requests sent to the memory backend.
    pub mem_reads: u64,
    /// Cache-line write requests sent to the memory backend (writebacks and
    /// flushes).
    pub mem_writes: u64,
    /// RowClone operations requested through the backend.
    pub rowclone_requests: u64,
    /// RowClone operations the backend performed in DRAM.
    pub rowclone_copies: u64,
    /// Cycles spent stalled waiting for memory (dependent misses, full
    /// MSHRs, and fences).
    pub stall_cycles: u64,
}

impl CoreStats {
    /// Backend read requests per thousand cycles (the paper's
    /// "last-level cache misses per kilo processor cycles", §8.3).
    #[must_use]
    pub fn mem_reads_per_kilo_cycle(&self, cycles: u64) -> f64 {
        if cycles == 0 {
            0.0
        } else {
            self.mem_reads as f64 * 1000.0 / cycles as f64
        }
    }
}

impl std::fmt::Display for CoreStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "instrs {} (ld {} st {}) | mem rd {} wr {} | rowclone {}/{} | stalls {}",
            self.instructions,
            self.loads,
            self.stores,
            self.mem_reads,
            self.mem_writes,
            self.rowclone_copies,
            self.rowclone_requests,
            self.stall_cycles,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates() {
        let s = CoreStats {
            instructions: 2000,
            mem_reads: 4,
            ..CoreStats::default()
        };
        assert!((s.mem_reads_per_kilo_cycle(1000) - 4.0).abs() < 1e-9);
        assert_eq!(CoreStats::default().mem_reads_per_kilo_cycle(0), 0.0);
    }

    #[test]
    fn display_nonempty() {
        assert!(!CoreStats::default().to_string().is_empty());
    }
}
