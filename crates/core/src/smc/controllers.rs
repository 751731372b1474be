//! The software memory controllers shipped with EasyDRAM's software library
//! (paper §5.2): FCFS (closed page) and FR-FCFS (open page), with optional
//! tRCD reduction (§8) and RowClone (§7) support.

use easydram_dram::{Geometry, VariationModel, LINE_BYTES};

use crate::bloom::BloomFilter;
use crate::request::{MemRequest, RequestKind};
use crate::smc::easyapi::EasyApi;
use crate::smc::mitigation::RowHammerMitigator;
use crate::smc::{ServeResult, SoftwareMemoryController};

/// Row-buffer management policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum RowPolicy {
    /// Leave rows open after column access (FR-FCFS exploits the hits).
    Open,
    /// Precharge after every access (FCFS pairs with closed page).
    Closed,
}

/// The tRCD-reduction plan loaded into the controller before emulation
/// (paper §8.2): a Bloom filter of weak rows plus the reduced timing.
///
/// Rows outside the profiled coverage are conservatively treated as weak.
#[derive(Debug, Clone)]
pub struct TrcdPlan {
    bloom: BloomFilter,
    reduced_trcd_ps: u64,
    covered_banks: u32,
    covered_rows_per_bank: u32,
    weak_rows: u64,
}

impl TrcdPlan {
    /// The Bloom-filter key of a row.
    fn row_key(bank: u32, row: u32) -> u64 {
        (u64::from(bank) << 32) | u64::from(row)
    }

    /// Builds a plan from profiled per-row minimum tRCD values
    /// (`(bank, row, min_trcd_ps)` triples) covering the first
    /// `covered_rows_per_bank` rows of the first `covered_banks` banks.
    /// Rows needing more than `reduced_trcd_ps` are inserted as weak.
    #[must_use]
    pub fn from_profile(
        rows: &[(u32, u32, u64)],
        covered_banks: u32,
        covered_rows_per_bank: u32,
        reduced_trcd_ps: u64,
    ) -> Self {
        let mut bloom = BloomFilter::for_keys(rows.len() as u64 / 4 + 64, 0x0007_2CD0);
        let mut weak_rows = 0;
        for &(bank, row, min_ps) in rows {
            if min_ps > reduced_trcd_ps {
                bloom.insert(Self::row_key(bank, row));
                weak_rows += 1;
            }
        }
        Self {
            bloom,
            reduced_trcd_ps,
            covered_banks,
            covered_rows_per_bank,
            weak_rows,
        }
    }

    /// Builds a plan directly from the device's variation field — the
    /// "profiling results generated on the host machine and loaded to the
    /// software memory controller before emulation begins" path (§8.2).
    /// `covered_rows_per_bank` bounds the profiled region.
    #[must_use]
    pub fn from_variation(
        variation: &VariationModel,
        geometry: &Geometry,
        covered_rows_per_bank: u32,
        reduced_trcd_ps: u64,
    ) -> Self {
        let covered = covered_rows_per_bank.min(geometry.rows_per_bank);
        let mut rows = Vec::new();
        for bank in 0..geometry.banks() {
            for row in 0..covered {
                rows.push((bank, row, variation.row_min_trcd_ps(bank, row)));
            }
        }
        Self::from_profile(&rows, geometry.banks(), covered, reduced_trcd_ps)
    }

    /// The tRCD to apply when opening `row` of `bank`: `Some(reduced)` for
    /// known-strong rows, `None` (nominal) otherwise.
    #[must_use]
    pub fn trcd_for(&self, bank: u32, row: u32) -> Option<u64> {
        if bank >= self.covered_banks || row >= self.covered_rows_per_bank {
            return None; // outside profiled coverage: conservative
        }
        if self.bloom.contains(Self::row_key(bank, row)) {
            None // weak (or false positive): nominal timing
        } else {
            Some(self.reduced_trcd_ps)
        }
    }

    /// Number of rows recorded as weak.
    #[must_use]
    pub fn weak_rows(&self) -> u64 {
        self.weak_rows
    }

    /// The reduced tRCD this plan applies, in ps.
    #[must_use]
    pub fn reduced_trcd_ps(&self) -> u64 {
        self.reduced_trcd_ps
    }
}

/// Deterministic pattern used by profiling requests.
fn profile_pattern(id: u64) -> [u8; LINE_BYTES] {
    let mut p = [0u8; LINE_BYTES];
    for (i, chunk) in p.chunks_mut(8).enumerate() {
        let w = easydram_dram::det::hash_coords(id, b"profile", &[i as u64]);
        chunk.copy_from_slice(&w.to_le_bytes());
    }
    p
}

/// Shared request-serving engine for every shipped controller. The page
/// policy picks the scheduler: FR-FCFS exploits the hits an open page
/// leaves, FCFS pairs with a closed page. An optional RowHammer mitigation
/// hook observes each demand activation (the stream an attacker controls)
/// and may spend targeted refreshes before the triggering request's
/// response is finalized — so mitigation overhead is attributed to, and
/// priced against, the request that caused it.
pub(crate) fn serve_with_policy(
    api: &mut EasyApi<'_>,
    policy: RowPolicy,
    trcd: Option<&TrcdPlan>,
    mut mitigator: Option<&mut dyn RowHammerMitigator>,
) -> ServeResult {
    let mut res = ServeResult::default();
    api.set_scheduling_state(true);
    api.receive_all();
    loop {
        let pick = match policy {
            RowPolicy::Open => api.schedule_frfcfs(),
            RowPolicy::Closed => api.schedule_fcfs(),
        };
        let Some(idx) = pick else { break };
        let req = api.take_request(idx);
        serve_one(api, policy, trcd, &req, &mut res, &mut mitigator);
    }
    api.set_scheduling_state(false);
    res
}

fn serve_one(
    api: &mut EasyApi<'_>,
    policy: RowPolicy,
    trcd: Option<&TrcdPlan>,
    req: &MemRequest,
    res: &mut ServeResult,
    mitigator: &mut Option<&mut dyn RowHammerMitigator>,
) {
    const BUF: &str = "command buffer sized for a single request";
    match req.kind {
        RequestKind::Read { .. } | RequestKind::Write { .. } => {
            // Borrowed, not copied: a 64-byte line held by value across the
            // arm cost reads 5% on `hammer_graphene`.
            let write = match &req.kind {
                RequestKind::Write { data, .. } => Some(data),
                _ => None,
            };
            let d = api.get_request_mapping(req);
            // "Each time a DRAM row is opened, the software memory
            // controller checks the Bloom filter" (§8.2) — row hits skip
            // both the check and the reduced timing (the row is already
            // open).
            let will_activate = api.open_row(d.bank) != Some(d.row);
            let reduced = if will_activate {
                trcd.and_then(|plan| {
                    api.charge_bloom_check();
                    plan.trcd_for(d.bank, d.row)
                })
            } else {
                None
            };
            if reduced.is_some() {
                res.reduced_trcd_accesses += 1;
            }
            let sequence = match write {
                Some(data) => api.write_sequence(d, *data, reduced),
                None => api.read_sequence(d, reduced),
            };
            let outcome = sequence.expect(BUF);
            outcome.tally(
                &mut res.row_hits,
                &mut res.row_misses,
                &mut res.row_conflicts,
            );
            if policy == RowPolicy::Closed {
                api.ddr_precharge(d.bank).expect(BUF);
            }
            // A read answers with the line its program read back.
            let (data, corrupted) = {
                let r = api.flush_commands().expect(BUF);
                match write {
                    Some(_) => (None, false),
                    None => (Some(r.reads[0]), r.read_corrupted[0]),
                }
            };
            if will_activate {
                if let Some(m) = mitigator.as_deref_mut() {
                    m.on_activate(api, d.bank, d.row);
                }
            }
            api.enqueue_response(req, data, corrupted);
        }
        RequestKind::RowClone { dst_addr, .. } => {
            let s = api.get_request_mapping(req);
            let d = api.get_addr_mapping(dst_addr);
            // The sequence manipulates raw bank state: close any open row
            // first so the ACT→PRE→ACT gaps are exactly ours.
            if api.open_row(s.bank).is_some() {
                api.ddr_precharge(s.bank).expect(BUF);
            }
            api.rowclone(s, d).expect(BUF);
            api.flush_commands().expect(BUF);
            // RowClone activates both operand rows — an attacker-reachable
            // stream (CpuApi exposes it), so mitigation policies must see
            // these activations too or in-DRAM copies become a hammer
            // side channel.
            if let Some(m) = mitigator.as_deref_mut() {
                m.on_activate(api, s.bank, s.row);
                m.on_activate(api, d.bank, d.row);
            }
            api.enqueue_response(req, None, false);
        }
        RequestKind::ProfileTrcd { trcd_ps, .. } => {
            let d = api.get_request_mapping(req);
            let pattern = profile_pattern(req.tag.id);
            // 1) initialize the target cache line with a known pattern,
            if api.open_row(d.bank).is_some() {
                api.ddr_precharge(d.bank).expect(BUF);
            }
            api.ddr_activate(d.bank, d.row).expect(BUF);
            api.ddr_write(d.bank, d.col, pattern).expect(BUF);
            api.ddr_precharge(d.bank).expect(BUF);
            // 2) access it with the requested tRCD,
            api.ddr_activate(d.bank, d.row).expect(BUF);
            api.ddr_read_after(d.bank, d.col, trcd_ps).expect(BUF);
            api.ddr_precharge(d.bank).expect(BUF);
            let data = {
                let r = api.flush_commands().expect(BUF);
                r.reads[0]
            };
            // Profiling activates the row twice; both count toward its
            // hammer window, so both are reported to the mitigation hook.
            if let Some(m) = mitigator.as_deref_mut() {
                m.on_activate(api, d.bank, d.row);
                m.on_activate(api, d.bank, d.row);
            }
            // 3) report whether the reduced value read correctly.
            let ok = data == pattern;
            api.enqueue_response(req, Some(data), !ok);
        }
    }
}

/// FR-FCFS controller with an open-page policy — EasyDRAM's default
/// (paper §5.2), optionally extended with tRCD reduction (§8).
#[derive(Debug, Clone, Default)]
pub struct FrFcfsController {
    trcd: Option<TrcdPlan>,
}

impl FrFcfsController {
    /// A plain FR-FCFS controller.
    #[must_use]
    pub fn new() -> Self {
        Self { trcd: None }
    }

    /// An FR-FCFS controller that accesses known-strong rows at reduced
    /// tRCD.
    #[must_use]
    pub fn with_trcd_reduction(plan: TrcdPlan) -> Self {
        Self { trcd: Some(plan) }
    }
}

impl SoftwareMemoryController for FrFcfsController {
    fn name(&self) -> &str {
        if self.trcd.is_some() {
            "frfcfs+trcd-reduction"
        } else {
            "frfcfs"
        }
    }

    fn serve(&mut self, api: &mut EasyApi<'_>) -> ServeResult {
        serve_with_policy(api, RowPolicy::Open, self.trcd.as_ref(), None)
    }
}

/// FCFS controller with a closed-page policy (paper Table 2,
/// `FCFS::schedule`).
#[derive(Debug, Clone, Copy, Default)]
pub struct FcfsController;

impl FcfsController {
    /// Creates the controller.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

impl SoftwareMemoryController for FcfsController {
    fn name(&self) -> &str {
        "fcfs"
    }

    fn serve(&mut self, api: &mut EasyApi<'_>) -> ServeResult {
        serve_with_policy(api, RowPolicy::Closed, None, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easydram_dram::{DramAddress, DramConfig, DramDevice};

    use crate::smc::fixture::Fix;

    #[test]
    fn frfcfs_serves_reads_and_counts_hits() {
        let mut f = Fix::new();
        let mut ctrl = FrFcfsController::new();
        // Same row twice, then a different row in the same bank.
        for (row, col) in [(0, 0), (0, 1), (1, 0)] {
            f.post_read(f.to_phys(DramAddress::new(0, row, col)));
        }
        let res = ctrl.serve(&mut f.api());
        assert_eq!(res.row_hits, 1, "second access hits the open row");
        assert!(res.row_misses >= 1);
        assert_eq!(f.session.responses().len(), 3);
        assert!(f.session.responses().iter().all(|r| r.data.is_some()));
    }

    #[test]
    fn fcfs_closed_page_never_hits() {
        let mut f = Fix::new();
        let mut ctrl = FcfsController::new();
        for col in 0..2 {
            f.post_read(f.to_phys(DramAddress::new(0, 0, col)));
        }
        let res = ctrl.serve(&mut f.api());
        assert_eq!(f.session.responses().len(), 2);
        assert_eq!(res.row_hits, 0, "closed page precharges after every access");
    }

    #[test]
    fn write_then_read_round_trips_through_dram() {
        let mut f = Fix::new();
        let mut ctrl = FrFcfsController::new();
        let mut line = [0u8; LINE_BYTES];
        line[7] = 0x99;
        let write = RequestKind::Write {
            addr: 192,
            data: line,
        };
        f.post(0, write, 0);
        let read = f.post_read(192);
        ctrl.serve(&mut f.api());
        let responses = f.session.responses();
        let read_resp = responses.iter().find(|r| r.tag.id == read).unwrap();
        assert_eq!(read_resp.data, Some(line));
    }

    #[test]
    fn profiling_request_reports_correctness() {
        let mut f = Fix::new();
        let mut ctrl = FrFcfsController::new();
        let nominal = f.dev.timing().t_rcd_ps;
        // Nominal tRCD always reads correctly; a drastically reduced one
        // must fail.
        for trcd_ps in [nominal, 2_000] {
            f.post(0, RequestKind::ProfileTrcd { addr: 0, trcd_ps }, 0);
        }
        ctrl.serve(&mut f.api());
        let responses = f.session.responses();
        assert!(!responses[0].corrupted, "nominal timing is reliable");
        assert!(responses[1].corrupted, "2 ns tRCD cannot work");
    }

    #[test]
    fn trcd_plan_classifies_rows() {
        let f = Fix::new();
        let geo = f.dev.config().geometry.clone();
        let plan = TrcdPlan::from_variation(f.dev.variation(), &geo, geo.rows_per_bank, 9_000);
        assert!(plan.weak_rows() > 0, "some rows must be weak");
        let mut strong = 0;
        let mut weak = 0;
        for row in 0..geo.rows_per_bank {
            match plan.trcd_for(0, row) {
                Some(t) => {
                    assert_eq!(t, 9_000);
                    strong += 1;
                }
                None => weak += 1,
            }
        }
        assert!(strong > weak, "majority of rows are strong (paper Fig. 12)");
        // Uncovered rows are conservatively weak.
        let narrow = TrcdPlan::from_variation(f.dev.variation(), &geo, 8, 9_000);
        assert_eq!(narrow.trcd_for(0, 100), None);
    }

    #[test]
    fn trcd_plan_treats_rows_of_unprofiled_banks_as_weak() {
        // The shape `profile_region(sys, 2, 256)` returns: banks 0-1, rows
        // 0-255, every one of them strong.
        let rows: Vec<(u32, u32, u64)> = (0..2)
            .flat_map(|bank| (0..256).map(move |row| (bank, row, 5_000)))
            .collect();
        let plan = TrcdPlan::from_profile(&rows, 2, 256, 9_000);
        assert_eq!(plan.trcd_for(1, 5), Some(9_000), "profiled and strong");
        assert_eq!(plan.trcd_for(1, 256), None, "row outside the profile");
        assert_eq!(plan.trcd_for(2, 5), None, "bank outside the profile");
    }

    #[test]
    fn trcd_plan_never_reduces_weak_rows() {
        // The safety property: every row the plan reduces must truly be
        // reliable at the reduced value (no false negatives in the filter).
        let f = Fix::new();
        let geo = f.dev.config().geometry.clone();
        let var = f.dev.variation();
        let plan = TrcdPlan::from_variation(var, &geo, geo.rows_per_bank, 9_000);
        for bank in 0..geo.banks() {
            for row in (0..geo.rows_per_bank).step_by(7) {
                if let Some(applied) = plan.trcd_for(bank, row) {
                    assert!(
                        var.row_min_trcd_ps(bank, row) <= applied,
                        "bank {bank} row {row} reduced below its threshold"
                    );
                }
            }
        }
    }

    #[test]
    fn trcd_reduction_controller_uses_reduced_timing() {
        let mut f = Fix::new();
        let geo = f.dev.config().geometry.clone();
        let plan = TrcdPlan::from_variation(f.dev.variation(), &geo, geo.rows_per_bank, 9_000);
        // Find a strong row and read from it.
        let strong_row = (0..geo.rows_per_bank)
            .find(|&r| plan.trcd_for(0, r).is_some())
            .expect("a strong row exists");
        let mut ctrl = FrFcfsController::with_trcd_reduction(plan);
        let addr = f.to_phys(DramAddress::new(0, strong_row, 0));
        f.post_read(addr);
        let res = ctrl.serve(&mut f.api());
        assert_eq!(res.reduced_trcd_accesses, 1);
        assert!(
            !f.session.responses()[0].corrupted,
            "strong row must read correctly at 9 ns"
        );
    }

    #[test]
    fn rowclone_request_copies_row() {
        let mut f = Fix::new();
        // Ideal variation so the pair is reliable.
        let mut cfg = DramConfig::small_for_tests();
        cfg.variation = easydram_dram::VariationConfig::ideal();
        f.dev = DramDevice::new(cfg);
        let pattern = vec![0xCDu8; 8192];
        f.dev.write_row(0, 1, &pattern);
        let src_addr = f.to_phys(DramAddress::new(0, 1, 0));
        let dst_addr = f.to_phys(DramAddress::new(0, 2, 0));
        f.post(0, RequestKind::RowClone { src_addr, dst_addr }, 0);
        FrFcfsController::new().serve(&mut f.api());
        assert_eq!(f.dev.row_data(0, 2), pattern.as_slice());
        assert_eq!(f.dev.stats().rowclone_successes, 1);
    }
}
