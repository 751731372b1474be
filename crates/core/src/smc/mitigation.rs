//! RowHammer mitigation as software-memory-controller policy.
//!
//! Read-disturbance mitigation is the canonical "emerging DRAM technique"
//! the EasyDRAM lineage (SoftMC, DRAM Bender) was built to study: a
//! mitigation is nothing but controller code that watches the activation
//! stream and spends targeted refreshes ([`EasyApi::ddr_refresh_row`]) to
//! keep every row's hammer count below its `HCfirst` threshold. Two shipped
//! controllers run FR-FCFS with a policy that is their own mitigation hook:
//!
//! * [`ParaController`] — PARA (probabilistic adjacent-row activation):
//!   stateless; on every activation, with probability `1/p_inverse`, the
//!   controller closes the bank and refreshes both adjacent rows. Cheap and
//!   unconditionally secure in expectation, at the cost of random refresh
//!   traffic.
//! * [`GrapheneController`] — Graphene-style deterministic tracking: a
//!   Misra–Gries top-k activation table per bank; when a tracked row's
//!   estimated count reaches the configured threshold, every row in its
//!   ±[`easydram_dram::BLAST_RADIUS`] blast radius is refreshed and the
//!   count resets. No false negatives as long as the threshold is set below
//!   the device's minimum `HCfirst` with margin for the table's
//!   undercounting.
//!
//! Both observe every controller-issued activation an attacker can reach —
//! demand reads/writes, RowClone operand rows, and tRCD-profiling accesses
//! — and account their overhead into [`MitigationStats`], which the tile
//! threads into `ExecutionReport::mitigation`.

use easydram_dram::det::DetRng;
use easydram_dram::BLAST_RADIUS;

use crate::smc::controllers::{serve_with_policy, RowPolicy};
use crate::smc::easyapi::EasyApi;
use crate::smc::{ServeResult, SoftwareMemoryController};

/// Counters a RowHammer mitigation policy accumulates, reported alongside
/// the per-channel/per-requestor statistics in `ExecutionReport`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MitigationStats {
    /// Targeted (per-row) refreshes issued to victim rows.
    pub targeted_refreshes: u64,
    /// Rocket cycles spent on mitigation work: per-activation tracking plus
    /// building/issuing the refresh sequences (the controller-side overhead
    /// of the defense).
    pub rocket_cycles: u64,
}

crate::counters::counters!(pub MitigationStats: sum {
    targeted_refreshes,
    rocket_cycles,
});

/// The hook a mitigation policy installs into the serve loop: called once
/// per request-issued activation (demand read/write row opens, RowClone
/// operand rows, profiling accesses), after the request's own commands
/// executed and before its response is finalized, so any refresh traffic
/// the policy adds is attributed to (and priced against) the triggering
/// request.
pub(crate) trait RowHammerMitigator {
    /// Observes the activation of `(bank, row)` and optionally issues
    /// mitigation commands through `api`.
    fn on_activate(&mut self, api: &mut EasyApi<'_>, bank: u32, row: u32);
}

/// Closes `bank` and refreshes every same-bank row within `radius` of
/// `aggressor`, charging the work to `stats`.
fn refresh_neighborhood(
    api: &mut EasyApi<'_>,
    stats: &mut MitigationStats,
    bank: u32,
    aggressor: u32,
    radius: u32,
) {
    const BUF: &str = "command buffer sized for a mitigation burst";
    let rows = api.rows_per_bank();
    let before = api.cycles_spent();
    // The serve loop leaves the row open (open-page policy); victim
    // refreshes need the bank precharged, so the mitigation pays a real
    // row-buffer penalty: the next access to the hammered row misses.
    if api.open_row(bank).is_some() {
        api.ddr_precharge(bank).expect(BUF);
    }
    for victim in easydram_dram::blast_neighbors(aggressor, rows, radius) {
        api.ddr_refresh_row(bank, victim).expect(BUF);
        stats.targeted_refreshes += 1;
    }
    api.flush_commands().expect(BUF);
    stats.rocket_cycles += api.cycles_spent() - before;
}

/// FR-FCFS (open page) with PARA: on each activation, with probability
/// `1 / p_inverse`, refresh the two adjacent rows. Draws come from a seeded
/// [`DetRng`] stream, so runs reproduce exactly.
#[derive(Debug, Clone)]
pub struct ParaController {
    p_inverse: u64,
    rng: DetRng,
    stats: MitigationStats,
}

impl ParaController {
    /// Creates a PARA controller refreshing adjacent rows with probability
    /// `1 / p_inverse` per activation; `seed` drives the coin-flip stream.
    ///
    /// # Panics
    ///
    /// Panics if `p_inverse` is zero.
    #[must_use]
    pub fn new(p_inverse: u64, seed: u64) -> Self {
        assert!(p_inverse > 0, "PARA needs a non-zero refresh probability");
        Self {
            p_inverse,
            rng: DetRng::new(seed),
            stats: MitigationStats::default(),
        }
    }
}

impl RowHammerMitigator for ParaController {
    fn on_activate(&mut self, api: &mut EasyApi<'_>, bank: u32, row: u32) {
        let before = api.cycles_spent();
        api.charge_mitigation_track();
        let fire = self.rng.next01() < 1.0 / self.p_inverse as f64;
        self.stats.rocket_cycles += api.cycles_spent() - before;
        if fire {
            refresh_neighborhood(api, &mut self.stats, bank, row, 1);
        }
    }
}

impl SoftwareMemoryController for ParaController {
    fn name(&self) -> &str {
        "frfcfs+para"
    }

    fn serve(&mut self, api: &mut EasyApi<'_>) -> ServeResult {
        serve_with_policy(api, RowPolicy::Open, None, Some(self))
    }

    fn mitigation_stats(&self) -> Option<MitigationStats> {
        Some(self.stats)
    }
}

/// A Misra–Gries top-k frequent-row summary for one bank: at most `k`
/// tracked rows; an untracked activation with a full table decrements every
/// counter (classic heavy-hitters bookkeeping), so a row activated `n`
/// times is undercounted by at most `acts_in_window / k`.
#[derive(Debug, Clone, Default)]
struct MisraGries {
    entries: Vec<(u32, u64)>,
}

impl MisraGries {
    /// Records one activation of `row` and returns its estimated count
    /// (0 when the row could not be tracked this round).
    fn observe(&mut self, row: u32, k: usize) -> u64 {
        if let Some(e) = self.entries.iter_mut().find(|e| e.0 == row) {
            e.1 += 1;
            return e.1;
        }
        if self.entries.len() < k {
            self.entries.push((row, 1));
            return 1;
        }
        for e in &mut self.entries {
            e.1 -= 1;
        }
        self.entries.retain(|e| e.1 > 0);
        0
    }

    fn reset(&mut self, row: u32) {
        self.entries.retain(|e| e.0 != row);
    }
}

/// FR-FCFS (open page) with Graphene-style deterministic tracking:
/// per-bank Misra–Gries tables; a tracked row reaching `threshold`
/// estimated activations triggers a blast-radius refresh and resets its
/// entry. Tables reset wholesale every `tREFW` of wall time — the device's
/// hammer windows close on the same period, so estimates stay per-window
/// quantities (lifetime counts would eventually trip the threshold on
/// arbitrarily slow benign traffic).
#[derive(Debug, Clone)]
pub struct GrapheneController {
    threshold: u64,
    table_k: usize,
    /// One table per bank, indexed by bank id and grown on first sight of a
    /// bank. An epoch reset empties every table in place: the serve path
    /// must not allocate in steady state.
    tables: Vec<MisraGries>,
    /// Start of the current tracking epoch, ps of controller wall time.
    epoch_start_ps: u64,
    stats: MitigationStats,
}

impl GrapheneController {
    /// Creates a Graphene controller that refreshes a tracked row's blast
    /// radius once its estimated window count reaches `threshold`, using a
    /// `table_k`-entry Misra–Gries table per bank.
    ///
    /// The table resets every `tREFW` of wall time, so estimates are
    /// per-refresh-window quantities like the device's own counters.
    ///
    /// **Sizing for a guarantee.** Misra–Gries undercounts a row by at most
    /// `window_acts / table_k` (every untracked activation with a full
    /// table decrements all entries), so the no-false-negative condition is
    /// `threshold + window_acts / table_k <= min effective HCfirst` — the
    /// table must be sized against the worst-case activations per refresh
    /// window, as the Graphene paper does. Note the *effective* minimum:
    /// `VariationModel::hc_first` halves thresholds of rows in weak
    /// clusters, so the floor is `hc_first.0 / 2`, not `hc_first.0`. A
    /// small table with `threshold = effective minimum / 2` (the shipped
    /// harness config) defeats concentrated patterns like double-/many-
    /// sided hammering but **can be decayed** by an attacker interleaving
    /// each aggressor activation with `table_k`+ distinct cold rows in the
    /// same bank; use PARA or a window-sized table when the access pattern
    /// is adversarially diverse.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` or `table_k` is zero.
    #[must_use]
    pub fn new(threshold: u64, table_k: usize) -> Self {
        assert!(threshold > 0, "a zero threshold would refresh on every ACT");
        assert!(table_k > 0, "the activation table needs at least one entry");
        Self {
            threshold,
            table_k,
            tables: Vec::new(),
            epoch_start_ps: 0,
            stats: MitigationStats::default(),
        }
    }
}

impl RowHammerMitigator for GrapheneController {
    fn on_activate(&mut self, api: &mut EasyApi<'_>, bank: u32, row: u32) {
        let before = api.cycles_spent();
        api.charge_mitigation_track();
        let now = api.wall_now_ps();
        if now.saturating_sub(self.epoch_start_ps) >= api.timing().t_refw_ps {
            for table in &mut self.tables {
                table.entries.clear();
            }
            self.epoch_start_ps = now;
        }
        let bank_idx = bank as usize;
        if self.tables.len() <= bank_idx {
            self.tables.resize_with(bank_idx + 1, MisraGries::default);
        }
        let count = self.tables[bank_idx].observe(row, self.table_k);
        self.stats.rocket_cycles += api.cycles_spent() - before;
        if count >= self.threshold {
            refresh_neighborhood(api, &mut self.stats, bank, row, BLAST_RADIUS);
            self.tables[bank_idx].reset(row);
        }
    }
}

impl SoftwareMemoryController for GrapheneController {
    fn name(&self) -> &str {
        "frfcfs+graphene"
    }

    fn serve(&mut self, api: &mut EasyApi<'_>) -> ServeResult {
        serve_with_policy(api, RowPolicy::Open, None, Some(self))
    }

    fn mitigation_stats(&self) -> Option<MitigationStats> {
        Some(self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RequestKind;
    use crate::smc::fixture::Fix;
    use easydram_dram::DramAddress;

    #[test]
    fn mitigation_observes_rowclone_and_profiling_activations() {
        // An always-firing PARA (p_inverse = 1) must spend refreshes on the
        // RowClone / ProfileTrcd streams too — otherwise in-DRAM copies
        // would be a mitigation-bypassing hammer channel.
        let mut f = Fix::new();
        let rowclone = RequestKind::RowClone {
            src_addr: f.to_phys(DramAddress::new(0, 10, 0)),
            dst_addr: f.to_phys(DramAddress::new(0, 12, 0)),
        };
        f.post(0, rowclone, 0);
        let profile = RequestKind::ProfileTrcd {
            addr: f.to_phys(DramAddress::new(0, 30, 0)),
            trcd_ps: 13_500,
        };
        f.post(0, profile, 0);
        let mut ctrl = ParaController::new(1, 7);
        ctrl.serve(&mut f.api());
        assert_eq!(f.session.responses().len(), 2);
        let m = ctrl.mitigation_stats().expect("PARA reports stats");
        // 2 RowClone activations + 2 profiling activations, each firing a
        // ±1 refresh pair.
        assert_eq!(m.targeted_refreshes, 8);
        assert!(f.dev.stats().targeted_refreshes >= 8);
    }

    #[test]
    fn misra_gries_tracks_heavy_hitters() {
        let mut mg = MisraGries::default();
        // A hot row interleaved with a spray of cold rows stays tracked and
        // its estimate grows (undercounted, never overcounted).
        let mut hot_estimate = 0;
        for i in 0..200u32 {
            hot_estimate = mg.observe(7, 4);
            mg.observe(1_000 + i, 4);
        }
        assert!(
            hot_estimate >= 100,
            "hot row undercounted too far: {hot_estimate}"
        );
        assert!(hot_estimate <= 200, "estimates never exceed the true count");
        mg.reset(7);
        assert_eq!(mg.observe(7, 4), 1, "reset forgets the row");
    }

    #[test]
    fn misra_gries_bounds_table_size() {
        let mut mg = MisraGries::default();
        for i in 0..100u32 {
            mg.observe(i, 4);
        }
        assert!(mg.entries.len() <= 4);
    }

    #[test]
    fn para_coin_fires_at_roughly_the_configured_rate() {
        let mut rng = DetRng::new(0xEA5D);
        let fires = (0..10_000).filter(|_| rng.next01() < 1.0 / 512.0).count();
        assert!((5..=50).contains(&fires), "~20 expected, got {fires}");
    }
}
