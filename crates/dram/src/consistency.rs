//! Static timing-configuration contradiction checker.
//!
//! SoftMC and DRAM Bender both stress that an evaluation infrastructure is
//! only trustworthy if illegal configurations are rejected *before* a run.
//! The [`crate::table::TimingTable`] pipeline will happily fold any
//! [`TimingParams`] into minimum-distance matrices — including contradictory
//! ones (`tFAW < 4·tRRD_S`, a refresh interval that leaves no room for its
//! own refresh) that silently produce meaningless figures.
//!
//! [`TimingParams::check_consistency`] closes that hole: every parameter set
//! is validated against a **closed rule set** ([`ConfigRule`]) and rejected
//! with structured diagnostics ([`TimingContradiction`]: stable rule id,
//! offending parameters by name, and the implied contradiction spelled out)
//! instead of a bare string. The last rule, [`ConfigRule::TableCoverage`],
//! cross-checks the *built* PR 6 matrices scope by scope against the raw
//! parameters, so a matrix-builder regression is caught as a config-time
//! contradiction rather than a wrong figure.

use std::fmt;

use crate::error::DramError;
use crate::table::{CmdClass, Scope, TimingTable};
use crate::timing::TimingParams;

/// The closed set of configuration-consistency rules.
///
/// Every variant carries a stable string id (`cfg/...`) used in diagnostics,
/// regression tests, and the rule table in `docs/API.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConfigRule {
    /// `t_ck_ps` or `t_burst_ps` is zero: no clock, no bus occupancy.
    ZeroClock,
    /// `t_ras < t_rcd`: the row would close before a column command is even
    /// permitted.
    RasVsRcd,
    /// `t_rc = t_ras + t_rp` must be representable (no `u64` overflow) — the
    /// derived row-cycle distance feeds the bank-scope matrices.
    RcVsRasRp,
    /// `t_faw < 4·t_rrd_s`: a four-activate window shorter than four
    /// minimally-spaced activates is vacuous, so the parameter set cannot
    /// mean what it says.
    FawWindow,
    /// `t_rrd_l < t_rrd_s`: the same-bank-group spacing must be at least the
    /// cross-group spacing. This is what keeps `RankTiming::admission`'s
    /// rolled-up ACT spacing sound: the latest same-group ACT plus tRRD_L and
    /// the latest ACT anywhere plus tRRD_S give the per-group maximum only
    /// when tRRD_L ≥ tRRD_S.
    RrdScope,
    /// `t_ccd_l < t_ccd_s`: same-group column spacing must be at least the
    /// cross-group spacing.
    CcdScope,
    /// `t_refi ≤ t_rfc + t_rp`: each refresh is a precharge-all followed by
    /// a REF, which together hold the rank for tRP + tRFC, so an interval no
    /// longer than that leaves no time to serve anything, and a refresh loop
    /// that issues one pair per interval falls further behind on every pass
    /// (a zero interval also divides by zero in the tile's refresh pricing).
    RefreshInterval,
    /// `t_refw < t_refi`: the retention window is shorter than the average
    /// refresh interval — rows would decay before their refresh arrives.
    RefreshWindow,
    /// `0 < t_rfm < t_rp`: the targeted-refresh fold
    /// (`rfm_pre_offset = t_rfm - t_rp`) would saturate and under-constrain
    /// every tRP-gated successor.
    RfmVsRp,
    /// `t_rfm == 0` while read-disturbance mitigation is enabled: every
    /// mitigation issues targeted refreshes, and a zero-duration RFM would
    /// make them silently free (checked by [`DramConfig::validate`], where
    /// the mitigation flag is visible).
    ///
    /// [`DramConfig::validate`]: crate::config::DramConfig::validate
    RfmRequired,
    /// A compound distance the rank-scope matrices fold (`tCWL+tBL+tWTR`,
    /// `tCL+tBL`) overflows `u64`.
    DistOverflow,
    /// The built [`TimingTable`] disagrees with the raw parameters in some
    /// scope — full coverage cross-check of the PR 6 matrices.
    TableCoverage,
}

impl ConfigRule {
    /// The stable diagnostic id, e.g. `cfg/faw-window`.
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            ConfigRule::ZeroClock => "cfg/zero-clock",
            ConfigRule::RasVsRcd => "cfg/ras-vs-rcd",
            ConfigRule::RcVsRasRp => "cfg/rc-vs-ras-rp",
            ConfigRule::FawWindow => "cfg/faw-window",
            ConfigRule::RrdScope => "cfg/rrd-scope",
            ConfigRule::CcdScope => "cfg/ccd-scope",
            ConfigRule::RefreshInterval => "cfg/refresh-interval",
            ConfigRule::RefreshWindow => "cfg/refresh-window",
            ConfigRule::RfmVsRp => "cfg/rfm-vs-rp",
            ConfigRule::RfmRequired => "cfg/rfm-required",
            ConfigRule::DistOverflow => "cfg/dist-overflow",
            ConfigRule::TableCoverage => "cfg/table-coverage",
        }
    }

    /// Every rule in the closed set, in diagnostic order.
    #[must_use]
    pub fn all() -> &'static [ConfigRule] {
        &[
            ConfigRule::ZeroClock,
            ConfigRule::RasVsRcd,
            ConfigRule::RcVsRasRp,
            ConfigRule::FawWindow,
            ConfigRule::RrdScope,
            ConfigRule::CcdScope,
            ConfigRule::RefreshInterval,
            ConfigRule::RefreshWindow,
            ConfigRule::RfmVsRp,
            ConfigRule::RfmRequired,
            ConfigRule::DistOverflow,
            ConfigRule::TableCoverage,
        ]
    }
}

impl fmt::Display for ConfigRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One structured contradiction: which rule failed, the offending parameters
/// by name and value (picoseconds), and the implied contradiction spelled
/// out for the person reading the rejection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimingContradiction {
    /// The violated rule.
    pub rule: ConfigRule,
    /// The offending parameters, `(name, value_ps)`.
    pub params: Vec<(&'static str, u64)>,
    /// The contradiction the parameter set implies, in words.
    pub implied: String,
}

impl fmt::Display for TimingContradiction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {} (", self.rule.id(), self.implied)?;
        for (i, (name, v)) in self.params.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{name} = {v}")?;
        }
        f.write_str(")")
    }
}

impl From<TimingContradiction> for DramError {
    fn from(c: TimingContradiction) -> Self {
        DramError::InvalidTiming(c)
    }
}

fn contra(
    rule: ConfigRule,
    params: &[(&'static str, u64)],
    implied: impl Into<String>,
) -> TimingContradiction {
    TimingContradiction {
        rule,
        params: params.to_vec(),
        implied: implied.into(),
    }
}

/// Cross-checks every scope of the built table against the raw parameters.
/// Returns the first mismatch as a coverage contradiction.
fn check_table_coverage(t: &TimingParams) -> Result<(), TimingContradiction> {
    check_table_against(t, &TimingTable::new(t))
}

/// Cross-checks an already-built table instance against the raw parameters.
/// Separated from [`check_table_coverage`] so the model checker's mutation
/// harness can statically convict a corrupted table without rebuilding it.
fn check_table_against(t: &TimingParams, tt: &TimingTable) -> Result<(), TimingContradiction> {
    use CmdClass::{Act, Pre, Rd, Ref, Rfm, Wr};
    let ccd_s = t.t_ccd_s_ps.max(t.t_burst_ps);
    let ccd_l = t.t_ccd_l_ps.max(t.t_burst_ps);
    // (scope, prev, next, expected distance) — one row per matrix entry the
    // PR 6 builder is responsible for, all five scopes covered (SameRow is
    // asserted empty below).
    let expected: &[(Scope, CmdClass, CmdClass, u64)] = &[
        (Scope::Channel, Ref, Act, t.t_rfc_ps),
        (Scope::Channel, Ref, Pre, t.t_rfc_ps),
        (Scope::Channel, Ref, Rd, t.t_rfc_ps),
        (Scope::Channel, Ref, Wr, t.t_rfc_ps),
        (Scope::Channel, Ref, Ref, t.t_rfc_ps),
        (Scope::Channel, Ref, Rfm, t.t_rfc_ps),
        (Scope::Channel, Rd, Rd, ccd_s),
        (Scope::Channel, Rd, Wr, ccd_s),
        (Scope::Channel, Wr, Rd, ccd_s),
        (Scope::Channel, Wr, Wr, ccd_s),
        (Scope::Rank, Act, Act, t.t_rrd_s_ps),
        (Scope::Rank, Wr, Rd, t.t_cwl_ps + t.t_burst_ps + t.t_wtr_ps),
        (Scope::Rank, Rd, Wr, t.t_cl_ps + t.t_burst_ps),
        (Scope::BankGroup, Act, Act, t.t_rrd_l_ps),
        (Scope::BankGroup, Rd, Rd, ccd_l),
        (Scope::BankGroup, Rd, Wr, ccd_l),
        (Scope::BankGroup, Wr, Rd, ccd_l),
        (Scope::BankGroup, Wr, Wr, ccd_l),
        (Scope::Bank, Act, Rd, t.t_rcd_ps),
        (Scope::Bank, Act, Wr, t.t_rcd_ps),
        (Scope::Bank, Act, Pre, t.t_ras_ps),
        (Scope::Bank, Pre, Act, t.t_rp_ps),
        (Scope::Bank, Pre, Ref, t.t_rp_ps),
        (Scope::Bank, Pre, Rfm, t.t_rp_ps),
        (Scope::Bank, Rd, Pre, t.t_rtp_ps),
        (Scope::Bank, Wr, Pre, t.t_wr_ps),
    ];
    for &(scope, prev, next, want) in expected {
        let got = tt.dist_ps(scope, prev, next);
        if got != want {
            return Err(contra(
                ConfigRule::TableCoverage,
                &[("table_dist_ps", got), ("param_dist_ps", want)],
                format!("built {scope:?} matrix entry {prev:?}→{next:?} disagrees with the raw parameters"),
            ));
        }
    }
    for prev in [Act, Pre, Rd, Wr, Ref, Rfm] {
        for next in [Act, Pre, Rd, Wr, Ref, Rfm] {
            if tt.entry(Scope::SameRow, prev, next).is_some() {
                return Err(contra(
                    ConfigRule::TableCoverage,
                    &[],
                    format!(
                        "SameRow scope must stay empty for plain DDR4, found {prev:?}→{next:?}"
                    ),
                ));
            }
        }
    }
    // Event-recording offsets the scheduler relies on.
    if tt.t_faw_ps != t.t_faw_ps
        || tt.wr_event_offset_ps != t.t_cwl_ps + t.t_burst_ps
        || tt.rfm_pre_offset_ps != t.t_rfm_ps.saturating_sub(t.t_rp_ps)
    {
        return Err(contra(
            ConfigRule::TableCoverage,
            &[
                ("t_faw_ps", tt.t_faw_ps),
                ("wr_event_offset_ps", tt.wr_event_offset_ps),
                ("rfm_pre_offset_ps", tt.rfm_pre_offset_ps),
            ],
            "table event-recording offsets disagree with the raw parameters",
        ));
    }
    Ok(())
}

impl TimingParams {
    /// Validates the parameter set against the closed [`ConfigRule`] set,
    /// collecting **every** contradiction rather than stopping at the first.
    ///
    /// # Errors
    ///
    /// Returns one [`TimingContradiction`] per violated rule, in
    /// [`ConfigRule::all`] order.
    pub fn check_consistency(&self) -> Result<(), Vec<TimingContradiction>> {
        let mut out = Vec::new();
        if self.t_ck_ps == 0 || self.t_burst_ps == 0 {
            out.push(contra(
                ConfigRule::ZeroClock,
                &[("t_ck_ps", self.t_ck_ps), ("t_burst_ps", self.t_burst_ps)],
                "command clock and burst occupancy must be non-zero",
            ));
        }
        if self.t_ras_ps < self.t_rcd_ps {
            out.push(contra(
                ConfigRule::RasVsRcd,
                &[("t_ras_ps", self.t_ras_ps), ("t_rcd_ps", self.t_rcd_ps)],
                "the row would be forced closed before a column command is permitted",
            ));
        }
        let rc = self.t_ras_ps.checked_add(self.t_rp_ps);
        if rc.is_none() {
            out.push(contra(
                ConfigRule::RcVsRasRp,
                &[("t_ras_ps", self.t_ras_ps), ("t_rp_ps", self.t_rp_ps)],
                "t_rc = t_ras + t_rp overflows the picosecond timeline",
            ));
        }
        match self.t_rrd_s_ps.checked_mul(4) {
            Some(four_rrd) if self.t_faw_ps >= four_rrd => {}
            Some(four_rrd) => out.push(contra(
                ConfigRule::FawWindow,
                &[
                    ("t_faw_ps", self.t_faw_ps),
                    ("t_rrd_s_ps", self.t_rrd_s_ps),
                    ("four_rrd_s_ps", four_rrd),
                ],
                "a four-activate window shorter than four minimally-spaced activates is vacuous",
            )),
            None => out.push(contra(
                ConfigRule::DistOverflow,
                &[("t_rrd_s_ps", self.t_rrd_s_ps)],
                "4·t_rrd_s overflows the picosecond timeline",
            )),
        }
        if self.t_rrd_l_ps < self.t_rrd_s_ps {
            out.push(contra(
                ConfigRule::RrdScope,
                &[
                    ("t_rrd_l_ps", self.t_rrd_l_ps),
                    ("t_rrd_s_ps", self.t_rrd_s_ps),
                ],
                "same-bank-group ACT spacing must be at least the cross-group spacing",
            ));
        }
        if self.t_ccd_l_ps < self.t_ccd_s_ps {
            out.push(contra(
                ConfigRule::CcdScope,
                &[
                    ("t_ccd_l_ps", self.t_ccd_l_ps),
                    ("t_ccd_s_ps", self.t_ccd_s_ps),
                ],
                "same-bank-group column spacing must be at least the cross-group spacing",
            ));
        }
        match self.t_rfc_ps.checked_add(self.t_rp_ps) {
            Some(busy) if self.t_refi_ps > busy => {}
            Some(_) => out.push(contra(
                ConfigRule::RefreshInterval,
                &[
                    ("t_refi_ps", self.t_refi_ps),
                    ("t_rfc_ps", self.t_rfc_ps),
                    ("t_rp_ps", self.t_rp_ps),
                ],
                "the refresh interval leaves no time beyond its own precharge-all and refresh",
            )),
            None => out.push(contra(
                ConfigRule::DistOverflow,
                &[("t_rfc_ps", self.t_rfc_ps), ("t_rp_ps", self.t_rp_ps)],
                "t_rfc + t_rp overflows the picosecond timeline",
            )),
        }
        if self.t_refw_ps < self.t_refi_ps {
            out.push(contra(
                ConfigRule::RefreshWindow,
                &[("t_refw_ps", self.t_refw_ps), ("t_refi_ps", self.t_refi_ps)],
                "rows would decay before their scheduled refresh arrives",
            ));
        }
        if self.t_rfm_ps != 0 && self.t_rfm_ps < self.t_rp_ps {
            out.push(contra(
                ConfigRule::RfmVsRp,
                &[("t_rfm_ps", self.t_rfm_ps), ("t_rp_ps", self.t_rp_ps)],
                "the targeted-refresh precharge fold would saturate and under-constrain successors",
            ));
        }
        for (name, sum) in [
            (
                "t_cwl + t_burst + t_wtr",
                self.t_cwl_ps
                    .checked_add(self.t_burst_ps)
                    .and_then(|x| x.checked_add(self.t_wtr_ps)),
            ),
            ("t_cl + t_burst", self.t_cl_ps.checked_add(self.t_burst_ps)),
        ] {
            if sum.is_none() {
                out.push(contra(
                    ConfigRule::DistOverflow,
                    &[],
                    format!("compound distance {name} overflows the picosecond timeline"),
                ));
            }
        }
        // The coverage cross-check folds the params through the real matrix
        // builder; only meaningful once the arithmetic above is sound.
        if out.is_empty() {
            if let Err(c) = check_table_coverage(self) {
                out.push(c);
            }
        }
        if out.is_empty() {
            Ok(())
        } else {
            Err(out)
        }
    }
}

/// Model-checker hook, compiled for tests and the `oracle` feature only.
#[cfg(any(test, feature = "oracle"))]
impl TimingTable {
    /// Cross-checks this table instance — which may have been perturbed via
    /// [`TimingTable::set_entry`] — against the raw parameters, scope by
    /// scope. This is the static tier of the model checker: any corrupted
    /// entry is convicted as a [`ConfigRule::TableCoverage`] contradiction
    /// even before the dynamic exploration finds a diverging trace.
    ///
    /// # Errors
    ///
    /// Returns the first mismatching entry as a structured contradiction.
    pub fn verify_against(&self, t: &TimingParams) -> Result<(), TimingContradiction> {
        check_table_against(t, self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_no_contradictions() {
        TimingParams::ddr4_1333().check_consistency().unwrap();
        TimingParams::ddr4_2400().check_consistency().unwrap();
        TimingParams::default().check_consistency().unwrap();
    }

    #[test]
    fn faw_window_contradiction_names_the_rule() {
        let mut t = TimingParams::ddr4_1333();
        t.t_faw_ps = 4 * t.t_rrd_s_ps - 1;
        let errs = t.check_consistency().unwrap_err();
        assert_eq!(errs.len(), 1);
        assert_eq!(errs[0].rule, ConfigRule::FawWindow);
        assert_eq!(errs[0].rule.id(), "cfg/faw-window");
        assert!(errs[0].params.contains(&("t_faw_ps", t.t_faw_ps)));
        let shown = errs[0].to_string();
        assert!(shown.contains("cfg/faw-window"), "{shown}");
        assert!(shown.contains("t_faw_ps"), "{shown}");
    }

    #[test]
    fn four_distinct_classes_are_rejected() {
        // 1. vacuous four-activate window
        let mut t = TimingParams::ddr4_1333();
        t.t_faw_ps = 0;
        assert_eq!(
            t.check_consistency().unwrap_err()[0].rule,
            ConfigRule::FawWindow
        );
        // 2. refresh interval shorter than the refresh command
        let mut t = TimingParams::ddr4_1333();
        t.t_refi_ps = t.t_rfc_ps - 1;
        assert_eq!(
            t.check_consistency().unwrap_err()[0].rule,
            ConfigRule::RefreshInterval
        );
        // 3. retention window shorter than the refresh interval
        let mut t = TimingParams::ddr4_1333();
        t.t_refw_ps = t.t_refi_ps - 1;
        assert_eq!(
            t.check_consistency().unwrap_err()[0].rule,
            ConfigRule::RefreshWindow
        );
        // 4. scope inversion: same-group ACT spacing looser than cross-group
        let mut t = TimingParams::ddr4_1333();
        t.t_rrd_l_ps = t.t_rrd_s_ps - 1;
        assert_eq!(
            t.check_consistency().unwrap_err()[0].rule,
            ConfigRule::RrdScope
        );
        // 5. row forced closed before a column command is permitted
        let mut t = TimingParams::ddr4_1333();
        t.t_ras_ps = t.t_rcd_ps - 1;
        assert_eq!(
            t.check_consistency().unwrap_err()[0].rule,
            ConfigRule::RasVsRcd
        );
        // 6. zero clock
        let mut t = TimingParams::ddr4_1333();
        t.t_ck_ps = 0;
        assert_eq!(
            t.check_consistency().unwrap_err()[0].rule,
            ConfigRule::ZeroClock
        );
        // 7. targeted refresh shorter than the precharge it folds
        let mut t = TimingParams::ddr4_1333();
        t.t_rfm_ps = t.t_rp_ps - 1;
        assert_eq!(
            t.check_consistency().unwrap_err()[0].rule,
            ConfigRule::RfmVsRp
        );
    }

    #[test]
    fn all_contradictions_are_collected() {
        let mut t = TimingParams::ddr4_1333();
        t.t_faw_ps = 0;
        t.t_refi_ps = 1; // breaks refresh-interval AND refresh-window
        t.t_ccd_l_ps = 0;
        let errs = t.check_consistency().unwrap_err();
        let rules: Vec<ConfigRule> = errs.iter().map(|e| e.rule).collect();
        assert!(rules.contains(&ConfigRule::FawWindow));
        assert!(rules.contains(&ConfigRule::RefreshInterval));
        assert!(rules.contains(&ConfigRule::CcdScope));
        // Diagnostic order follows the closed rule set.
        let order: Vec<usize> = rules
            .iter()
            .map(|r| ConfigRule::all().iter().position(|x| x == r).unwrap())
            .collect();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(order, sorted);
    }

    #[test]
    fn overflow_is_a_contradiction_not_a_panic() {
        let mut t = TimingParams::ddr4_1333();
        t.t_ras_ps = u64::MAX;
        let errs = t.check_consistency().unwrap_err();
        assert!(errs.iter().any(|e| e.rule == ConfigRule::RcVsRasRp));

        let mut t = TimingParams::ddr4_1333();
        t.t_rrd_s_ps = u64::MAX / 2;
        t.t_rrd_l_ps = u64::MAX / 2;
        let errs = t.check_consistency().unwrap_err();
        assert!(errs.iter().any(|e| e.rule == ConfigRule::DistOverflow));

        let mut t = TimingParams::ddr4_1333();
        t.t_rfc_ps = u64::MAX;
        let errs = t.check_consistency().unwrap_err();
        assert!(errs.iter().any(|e| e.rule == ConfigRule::DistOverflow));
    }

    #[test]
    fn refresh_interval_must_outlast_its_precharge_all_and_refresh() {
        let base = TimingParams::ddr4_1333();
        let with_refi = |t_refi_ps| TimingParams {
            t_refi_ps,
            ..base.clone()
        };
        for refi in [0, base.t_rfc_ps + base.t_rp_ps] {
            let rules: Vec<ConfigRule> = with_refi(refi)
                .check_consistency()
                .unwrap_err()
                .iter()
                .map(|e| e.rule)
                .collect();
            assert_eq!(rules, [ConfigRule::RefreshInterval], "t_refi_ps = {refi}");
        }
        with_refi(base.t_rfc_ps + base.t_rp_ps + 1)
            .check_consistency()
            .unwrap();
    }

    #[test]
    fn rule_ids_are_stable_and_distinct() {
        use std::collections::BTreeSet;
        let ids: BTreeSet<&str> = ConfigRule::all().iter().map(|r| r.id()).collect();
        assert_eq!(ids.len(), ConfigRule::all().len());
        assert!(ids.iter().all(|id| id.starts_with("cfg/")));
    }

    #[test]
    fn coverage_check_passes_on_burst_floored_bins() {
        // ddr4_2400 floors tCCD_S at the burst — coverage must model the
        // same floor, not the raw parameter.
        TimingParams::ddr4_2400().check_consistency().unwrap();
    }
}
