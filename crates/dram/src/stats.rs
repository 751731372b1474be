//! Device-level statistics counters.

/// Counters maintained by [`crate::DramDevice`] across its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// ACT commands issued.
    pub activates: u64,
    /// PRE / PREA commands issued (PREA counts once).
    pub precharges: u64,
    /// RD commands issued.
    pub reads: u64,
    /// WR commands issued.
    pub writes: u64,
    /// REF commands issued.
    pub refreshes: u64,
    /// Total timing violations observed across all commands.
    pub violations: u64,
    /// ACT sequences recognized as RowClone attempts.
    pub rowclone_attempts: u64,
    /// RowClone attempts that copied data correctly.
    pub rowclone_successes: u64,
    /// RD commands issued before nominal tRCD elapsed.
    pub reduced_trcd_reads: u64,
    /// RD commands that returned corrupted data (for any reason).
    pub corrupted_reads: u64,
    /// Targeted per-row refresh (RFM) commands issued.
    pub targeted_refreshes: u64,
    /// Victim bits flipped by read disturbance (RowHammer).
    pub disturbance_flips: u64,
}

impl DeviceStats {
    /// Total commands issued.
    #[must_use]
    pub fn commands(&self) -> u64 {
        self.activates
            + self.precharges
            + self.reads
            + self.writes
            + self.refreshes
            + self.targeted_refreshes
    }
}

impl std::fmt::Display for DeviceStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ACT {} PRE {} RD {} WR {} REF {} | violations {} | rowclone {}/{} | weak-reads {}",
            self.activates,
            self.precharges,
            self.reads,
            self.writes,
            self.refreshes,
            self.violations,
            self.rowclone_successes,
            self.rowclone_attempts,
            self.corrupted_reads,
        )?;
        // Disturbance counters appear only when the model is exercised, so
        // default-config reports stay byte-identical (snapshot-pinned).
        if self.disturbance_flips > 0 || self.targeted_refreshes > 0 {
            write!(
                f,
                " | rh flips {} rfm {}",
                self.disturbance_flips, self.targeted_refreshes,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_rates() {
        let s = DeviceStats {
            activates: 2,
            precharges: 1,
            reads: 5,
            writes: 3,
            refreshes: 1,
            rowclone_attempts: 4,
            rowclone_successes: 3,
            ..DeviceStats::default()
        };
        assert_eq!(s.commands(), 12);
        assert!(!s.to_string().is_empty());
    }

    #[test]
    fn disturbance_counters_render_only_when_exercised() {
        let mut s = DeviceStats {
            activates: 1,
            ..DeviceStats::default()
        };
        assert!(
            !s.to_string().contains("rh flips"),
            "quiet devices keep the historical format"
        );
        s.disturbance_flips = 3;
        s.targeted_refreshes = 2;
        assert!(s.to_string().contains("rh flips 3 rfm 2"));
        assert_eq!(s.commands(), 3, "RFM counts as a command");
    }
}
