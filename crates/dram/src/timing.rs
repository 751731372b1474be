//! DRAM timing parameters (paper §2.2).
//!
//! All durations are expressed in **picoseconds** so that every clock domain
//! in the emulation (DRAM bus, FPGA fabric, modeled processor) shares one
//! integer timeline with no floating-point drift.

/// JEDEC-style timing parameter set for a DDR4 device.
///
/// Two speed bins are provided: [`TimingParams::ddr4_1333`] matches the
/// paper's evaluation module (single-channel, single-rank DDR4 at 1333 MT/s,
/// §7.2 footnote 5; nominal tRCD 13.5 ns per the Micron EDY4016A datasheet the
/// paper cites) and [`TimingParams::ddr4_2400`] is a faster bin used by tests
/// to check that timing rules scale.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TimingParams {
    /// DRAM command-clock period (1.5 ns at 1333 MT/s).
    pub t_ck_ps: u64,
    /// ACT to internal read/write delay (row-to-column delay).
    pub t_rcd_ps: u64,
    /// PRE to ACT delay (row precharge time).
    pub t_rp_ps: u64,
    /// ACT to PRE minimum (row active time / charge-restoration time).
    pub t_ras_ps: u64,
    /// READ command to first data (CAS latency).
    pub t_cl_ps: u64,
    /// WRITE command to first data (CAS write latency).
    pub t_cwl_ps: u64,
    /// Write recovery time (last write data to PRE).
    pub t_wr_ps: u64,
    /// READ to PRE delay.
    pub t_rtp_ps: u64,
    /// Write-to-read turnaround.
    pub t_wtr_ps: u64,
    /// Column-to-column delay, same bank group.
    pub t_ccd_l_ps: u64,
    /// Column-to-column delay, different bank group.
    pub t_ccd_s_ps: u64,
    /// ACT-to-ACT delay, same bank group.
    pub t_rrd_l_ps: u64,
    /// ACT-to-ACT delay, different bank group.
    pub t_rrd_s_ps: u64,
    /// Four-activate window.
    pub t_faw_ps: u64,
    /// Refresh command duration.
    pub t_rfc_ps: u64,
    /// Targeted per-row refresh duration (RFM-style victim refresh): the
    /// bank internally activates and restores one row, so the cost is on
    /// the order of one row cycle, not a full all-bank tRFC.
    pub t_rfm_ps: u64,
    /// Average refresh command interval (7.8 µs for DDR4, §2.2).
    pub t_refi_ps: u64,
    /// Refresh window: every row must be refreshed at least this often
    /// (64 ms for DDR4 at normal temperatures, §2.2).
    pub t_refw_ps: u64,
    /// Data-burst duration for one cache line (BL8 = 4 command clocks).
    pub t_burst_ps: u64,
}

impl TimingParams {
    /// DDR4-1333 bin: the paper's evaluation configuration.
    #[must_use]
    pub fn ddr4_1333() -> Self {
        Self {
            t_ck_ps: 1_500,
            t_rcd_ps: 13_500,
            t_rp_ps: 13_500,
            t_ras_ps: 36_000,
            t_cl_ps: 13_500,
            t_cwl_ps: 10_500,
            t_wr_ps: 15_000,
            t_rtp_ps: 7_500,
            t_wtr_ps: 7_500,
            t_ccd_l_ps: 7_500,
            t_ccd_s_ps: 6_000,
            t_rrd_l_ps: 7_500,
            t_rrd_s_ps: 6_000,
            t_faw_ps: 35_000,
            t_rfc_ps: 350_000,
            t_rfm_ps: 60_000,
            t_refi_ps: 7_800_000,
            t_refw_ps: 64_000_000_000,
            t_burst_ps: 6_000,
        }
    }

    /// DDR4-2400 bin (faster clock, same architectural rules).
    #[must_use]
    pub fn ddr4_2400() -> Self {
        Self {
            t_ck_ps: 833,
            t_rcd_ps: 13_320,
            t_rp_ps: 13_320,
            t_ras_ps: 32_000,
            t_cl_ps: 13_320,
            t_cwl_ps: 10_000,
            t_wr_ps: 15_000,
            t_rtp_ps: 7_500,
            t_wtr_ps: 7_500,
            t_ccd_l_ps: 5_000,
            t_ccd_s_ps: 3_332,
            t_rrd_l_ps: 4_900,
            t_rrd_s_ps: 3_300,
            t_faw_ps: 21_000,
            t_rfc_ps: 350_000,
            t_rfm_ps: 50_000,
            t_refi_ps: 7_800_000,
            t_refw_ps: 64_000_000_000,
            t_burst_ps: 3_332,
        }
    }

    /// Latency from READ issue to the full cache line on the bus.
    #[must_use]
    pub fn read_latency_ps(&self) -> u64 {
        self.t_cl_ps + self.t_burst_ps
    }

    /// Latency from WRITE issue to the last data beat written.
    #[must_use]
    pub fn write_latency_ps(&self) -> u64 {
        self.t_cwl_ps + self.t_burst_ps
    }

    /// Validates internal consistency of the parameter set against the
    /// closed [`crate::consistency::ConfigRule`] set, returning the first
    /// contradiction as a typed diagnostic. Use
    /// [`TimingParams::check_consistency`] to collect every contradiction.
    ///
    /// `t_rfm_ps == 0` is allowed here and means "the module does not
    /// support targeted refresh"; configurations that *rely* on RFM
    /// (disturbance mitigation) reject it in
    /// [`crate::DramConfig::validate`], where the mitigation flag is
    /// visible.
    ///
    /// # Errors
    ///
    /// Returns the first violated rule's [`TimingContradiction`] (stable
    /// rule id, offending parameters, implied contradiction).
    ///
    /// [`TimingContradiction`]: crate::consistency::TimingContradiction
    pub fn validate(&self) -> Result<(), crate::consistency::TimingContradiction> {
        self.check_consistency().map_err(|mut errs| errs.remove(0))
    }
}

impl Default for TimingParams {
    fn default() -> Self {
        Self::ddr4_1333()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_bin() {
        let t = TimingParams::default();
        assert_eq!(t, TimingParams::ddr4_1333());
        assert_eq!(t.t_rcd_ps, 13_500, "paper: nominal tRCD is 13.5 ns");
    }

    #[test]
    fn bins_validate() {
        TimingParams::ddr4_1333().validate().unwrap();
        TimingParams::ddr4_2400().validate().unwrap();
    }

    #[test]
    fn derived_quantities() {
        let t = TimingParams::ddr4_1333();
        assert_eq!(t.t_ras_ps + t.t_rp_ps, 49_500, "tRC");
        assert_eq!(t.read_latency_ps(), 19_500);
        assert_eq!(
            t.t_rcd_ps + t.read_latency_ps(),
            33_000,
            "closed-row access"
        );
    }

    #[test]
    fn validate_rejects_inconsistent_sets() {
        let mut t = TimingParams::ddr4_1333();
        t.t_ras_ps = 1_000; // below tRCD
        let c = t.validate().unwrap_err();
        assert_eq!(c.rule.id(), "cfg/ras-vs-rcd");

        // Regression (ISSUE 7 satellite): a four-activate window shorter
        // than four minimally-spaced activates is rejected with the right
        // rule id, as a typed error — not a panic, not a bare string.
        let mut t = TimingParams::ddr4_1333();
        t.t_faw_ps = 4 * t.t_rrd_s_ps - 1;
        let c = t.validate().unwrap_err();
        assert_eq!(c.rule, crate::consistency::ConfigRule::FawWindow);
        assert_eq!(c.rule.id(), "cfg/faw-window");

        let mut t = TimingParams::ddr4_1333();
        t.t_ck_ps = 0;
        assert!(t.validate().is_err());

        let mut t = TimingParams::ddr4_1333();
        t.t_refi_ps = 1;
        assert!(t.validate().is_err());
    }

    #[test]
    fn zero_trfm_is_valid_standalone() {
        // "RFM unsupported" is a legal parameter set on its own; only a
        // configuration that enables disturbance mitigation rejects it
        // (see `DramConfig::validate`).
        let mut t = TimingParams::ddr4_1333();
        t.t_rfm_ps = 0;
        t.validate().unwrap();
    }

    #[test]
    fn faster_bin_has_shorter_bus_occupancy() {
        let slow = TimingParams::ddr4_1333();
        let fast = TimingParams::ddr4_2400();
        assert!(fast.t_burst_ps < slow.t_burst_ps);
        assert!(fast.t_ck_ps < slow.t_ck_ps);
    }
}
