//! The emulated-timeline model of one channel of the modeled memory system.
//!
//! The modeled system has bank-level parallelism: row preparation (PRE/ACT)
//! proceeds per bank while the channel's data bus serializes one burst per
//! column command, and all-bank refresh stalls every bank *of one rank* for
//! tRFC once per tREFI (ranks refresh independently). [`EmulatedTimeline`]
//! owns that bookkeeping for a single channel and prices each request of a
//! serve-pass batch independently, so batched requests overlap across banks
//! exactly as they would under a real controller. Multi-channel systems hold
//! one timeline per channel; channels share nothing and overlap freely.

use easydram_dram::TimingParams;

/// One request's demand on the emulated memory timeline, derived from its
/// [`crate::request::ResponseSlice`].
#[derive(Debug, Clone, Copy)]
pub struct TimelineDemand {
    /// Emulated arrival time (the request's arrival cycle converted to ps).
    pub arrival_ps: u64,
    /// Flat bank index the request targets, within this channel
    /// (`rank * banks_per_rank + bank_in_rank`).
    pub bank: usize,
    /// Row-preparation time before the first burst (occupancy minus bursts).
    pub prep_ps: u64,
    /// Total data-bus burst time of the request's column commands.
    pub burst_ps: u64,
    /// Whether the request issued any column (RD/WR) commands; row-only
    /// batches (RowClone) occupy the bank but never the bus.
    pub has_columns: bool,
}

/// Per-bank and bus availability on one channel's emulated timeline, plus
/// per-rank periodic refresh. Prices requests one at a time, in controller
/// service order.
#[derive(Debug, Clone)]
pub struct EmulatedTimeline {
    /// Availability of each bank (row prep overlaps across banks), ps.
    /// Indexed by flat within-channel bank (`rank * banks_per_rank + bank`).
    bank_free_ps: Vec<u64>,
    /// Availability of the channel's shared data bus, ps.
    bus_free_ps: u64,
    /// Next periodic refresh of each rank, ps (`u64::MAX` when refresh is
    /// disabled).
    next_ref_ps: Vec<u64>,
    /// Refreshes charged so far, per rank (reported per-rank counters).
    refreshes: Vec<u64>,
    banks_per_rank: usize,
    t_refi_ps: u64,
    t_rfc_ps: u64,
    t_cl_ps: u64,
}

impl EmulatedTimeline {
    /// Creates an idle timeline for `ranks` ranks of `banks_per_rank` banks
    /// each. Each rank refreshes independently (tRFC every tREFI).
    ///
    /// # Panics
    ///
    /// Panics if `ranks` or `banks_per_rank` is zero, or if `timing` is
    /// self-contradictory, listing every contradiction found: refresh
    /// pricing divides by tREFI and by tREFI − tRFC.
    #[must_use]
    pub fn with_ranks(
        ranks: usize,
        banks_per_rank: usize,
        timing: &TimingParams,
        refresh_enabled: bool,
    ) -> Self {
        assert!(ranks > 0 && banks_per_rank > 0, "empty timeline geometry");
        if let Err(contradictions) = timing.check_consistency() {
            let listed: Vec<String> = contradictions.iter().map(ToString::to_string).collect();
            panic!("invalid timeline timing: {}", listed.join("; "));
        }
        let next_ref = if refresh_enabled {
            timing.t_refi_ps
        } else {
            u64::MAX
        };
        Self {
            bank_free_ps: vec![0; ranks * banks_per_rank],
            bus_free_ps: 0,
            next_ref_ps: vec![next_ref; ranks],
            refreshes: vec![0; ranks],
            banks_per_rank,
            t_refi_ps: timing.t_refi_ps,
            t_rfc_ps: timing.t_rfc_ps,
            t_cl_ps: timing.t_cl_ps,
        }
    }

    /// Number of ranks this timeline models.
    #[must_use]
    pub fn ranks(&self) -> usize {
        self.next_ref_ps.len()
    }

    /// Refreshes charged so far, per rank.
    #[must_use]
    pub fn refreshes_per_rank(&self) -> &[u64] {
        &self.refreshes
    }

    /// All-bank refresh of `rank`: every bank of that rank stalls until
    /// `ref_end`.
    fn stall_rank(&mut self, rank: usize, ref_end: u64) {
        let base = rank * self.banks_per_rank;
        for b in &mut self.bank_free_ps[base..base + self.banks_per_rank] {
            *b = (*b).max(ref_end);
        }
    }

    /// Charges every tREFI boundary at or before `t_end` (refreshes that
    /// interrupt an in-flight request): each one slides the remaining work
    /// past its tRFC stall. Returns the extended end time.
    ///
    /// Closed form of the boundary-by-boundary walk: each crossing extends
    /// the work by tRFC while the next boundary advances by tREFI, so the
    /// `j`-th crossing fires iff `(j-1)·(tREFI − tRFC) ≤ t_end − next_ref`,
    /// giving `n = (t_end − next_ref) / (tREFI − tRFC) + 1` crossings in one
    /// step. Only the last crossing's stall matters for bank availability
    /// (stalls accumulate by max), so a single `stall_rank` suffices.
    fn charge_refresh_crossings(&mut self, rank: usize, t_end: u64) -> u64 {
        let next_ref = self.next_ref_ps[rank];
        if t_end < next_ref {
            return t_end;
        }
        // `cfg/refresh-interval` (checked in `with_ranks`) keeps tREFI above
        // tRFC, so the gain is positive.
        let n = (t_end - next_ref) / (self.t_refi_ps - self.t_rfc_ps) + 1;
        self.stall_rank(rank, next_ref + (n - 1) * self.t_refi_ps + self.t_rfc_ps);
        self.next_ref_ps[rank] = next_ref + n * self.t_refi_ps;
        self.refreshes[rank] += n;
        t_end + n * self.t_rfc_ps
    }

    /// Prices one request on the timeline and returns the emulated time at
    /// which its data movement finishes, advancing the bank/bus bookkeeping.
    ///
    /// # Panics
    ///
    /// Panics if `demand.bank` is outside the configured geometry.
    pub fn price(&mut self, demand: &TimelineDemand) -> u64 {
        let rank = demand.bank / self.banks_per_rank;
        let mut start_bank = demand.arrival_ps.max(self.bank_free_ps[demand.bank]);
        // Refreshes due before the request starts delay the start itself.
        // Closed form: a later overdue boundary exists iff it is ≤ the
        // *original* start (each stall only reaches tRFC < tREFI past its
        // boundary), so k = (start − next_ref) / tREFI + 1 refreshes are
        // overdue and only the last one's stall can move the start.
        let next_ref = self.next_ref_ps[rank];
        if start_bank >= next_ref {
            let k = (start_bank - next_ref) / self.t_refi_ps + 1;
            let last_ref_end = next_ref + (k - 1) * self.t_refi_ps + self.t_rfc_ps;
            self.stall_rank(rank, last_ref_end);
            start_bank = start_bank.max(last_ref_end);
            self.next_ref_ps[rank] = next_ref + k * self.t_refi_ps;
            self.refreshes[rank] += k;
        }
        if demand.has_columns {
            let start_bus = (start_bank + demand.prep_ps).max(self.bus_free_ps);
            // A tREFI boundary inside the prep/burst interval interrupts the
            // request mid-flight: the tail of its work pays the tRFC stall.
            let bus_done = self.charge_refresh_crossings(rank, start_bus + demand.burst_ps);
            self.bank_free_ps[demand.bank] = bus_done;
            self.bus_free_ps = bus_done;
            // The CAS pipeline latency of the final read overlaps with later
            // requests; only the requester waits for it.
            bus_done + self.t_cl_ps
        } else {
            // Row-only sequences (RowClone) occupy the bank, not the bus.
            let finish = self.charge_refresh_crossings(rank, start_bank + demand.prep_ps);
            self.bank_free_ps[demand.bank] = finish;
            finish
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing() -> TimingParams {
        TimingParams::ddr4_1333()
    }

    fn demand(bank: usize, arrival_ps: u64) -> TimelineDemand {
        TimelineDemand {
            arrival_ps,
            bank,
            prep_ps: 30_000,
            burst_ps: 6_000,
            has_columns: true,
        }
    }

    #[test]
    fn same_bank_requests_serialize() {
        let mut tl = EmulatedTimeline::with_ranks(1, 4, &timing(), false);
        let a = tl.price(&demand(0, 0));
        let b = tl.price(&demand(0, 0));
        assert!(b > a, "second request waits for the bank: {a} vs {b}");
    }

    #[test]
    fn different_banks_overlap_prep() {
        let mut tl = EmulatedTimeline::with_ranks(1, 4, &timing(), false);
        let a = tl.price(&demand(0, 0));
        let mut tl2 = EmulatedTimeline::with_ranks(1, 4, &timing(), false);
        let _ = tl2.price(&demand(0, 0));
        let b = tl2.price(&demand(1, 0));
        // Bank 1's prep overlaps bank 0's; only the bus serializes.
        assert!(b < 2 * a, "bank-level parallelism must overlap prep");
        assert!(b > a, "the shared bus still serializes bursts");
    }

    #[test]
    fn row_only_demand_skips_the_bus() {
        let mut tl = EmulatedTimeline::with_ranks(1, 2, &timing(), false);
        let d = TimelineDemand {
            arrival_ps: 0,
            bank: 0,
            prep_ps: 50_000,
            burst_ps: 0,
            has_columns: false,
        };
        let done = tl.price(&d);
        assert_eq!(done, 50_000);
        assert_eq!(tl.bus_free_ps, 0, "row-only work never touches the bus");
        assert_eq!(tl.bank_free_ps[0], 50_000);
    }

    #[test]
    fn refresh_stalls_all_banks() {
        let t = timing();
        let mut on = EmulatedTimeline::with_ranks(1, 2, &t, true);
        let mut off = EmulatedTimeline::with_ranks(1, 2, &t, false);
        // Arrives 1 ps after the tREFI boundary: the refresh has already
        // begun, so the request's start slides to the end of the tRFC stall —
        // exactly (tRFC − 1) ps later than the refresh-free timeline.
        let late = demand(1, t.t_refi_ps + 1);
        let with = on.price(&late);
        let without = off.price(&late);
        assert_eq!(
            with,
            without + t.t_rfc_ps - 1,
            "a request arriving 1 ps into the refresh pays the remaining stall exactly"
        );
        assert_eq!(on.refreshes_per_rank(), &[1]);
        // The *other* bank of the rank is stalled too.
        assert!(on.bank_free_ps[0] >= t.t_refi_ps + t.t_rfc_ps);
    }

    #[test]
    fn refresh_crossing_mid_request_pays_trfc() {
        // Regression: a long row-only (RowClone-style) sequence that starts
        // before a tREFI boundary and finishes after it must be interrupted
        // by the refresh and pay tRFC — and `next_ref_ps` must keep pace.
        let t = timing();
        let mut tl = EmulatedTimeline::with_ranks(1, 2, &t, true);
        let long = TimelineDemand {
            arrival_ps: 0,
            bank: 0,
            prep_ps: t.t_refi_ps + 5_000,
            burst_ps: 0,
            has_columns: false,
        };
        let done = tl.price(&long);
        assert_eq!(
            done,
            t.t_refi_ps + 5_000 + t.t_rfc_ps,
            "the crossing charges exactly one tRFC"
        );
        assert_eq!(tl.refreshes_per_rank(), &[1]);
        // The refresh schedule advanced past the priced interval: a short
        // follow-up request well before the *next* boundary pays nothing.
        let short = TimelineDemand {
            arrival_ps: done,
            bank: 1,
            prep_ps: 10_000,
            burst_ps: 0,
            has_columns: false,
        };
        assert_eq!(tl.price(&short), done + 10_000);
        assert_eq!(tl.refreshes_per_rank(), &[1], "no double-charge later");
    }

    #[test]
    fn burst_crossing_extends_bus_and_bank() {
        // A column request whose burst straddles the boundary pays tRFC and
        // leaves both the bank and the bus busy until the extended finish.
        let t = timing();
        let mut tl = EmulatedTimeline::with_ranks(1, 2, &t, true);
        let d = TimelineDemand {
            arrival_ps: t.t_refi_ps - 10_000,
            bank: 0,
            prep_ps: 30_000,
            burst_ps: 6_000,
            has_columns: true,
        };
        let done = tl.price(&d);
        let unrefreshed_bus_done = t.t_refi_ps - 10_000 + 30_000 + 6_000;
        assert_eq!(done, unrefreshed_bus_done + t.t_rfc_ps + t.t_cl_ps);
        assert_eq!(tl.bank_free_ps[0], unrefreshed_bus_done + t.t_rfc_ps);
        assert_eq!(tl.bus_free_ps, unrefreshed_bus_done + t.t_rfc_ps);
    }

    #[test]
    fn refresh_exactly_at_request_start() {
        // A request arriving *exactly* on the tREFI boundary finds the
        // refresh due and pays the full tRFC before starting; one ps
        // earlier it starts cleanly (the boundary then interrupts the
        // in-flight work instead, charging tRFC at the end).
        let t = timing();
        let mut tl = EmulatedTimeline::with_ranks(1, 2, &t, true);
        let on_boundary = TimelineDemand {
            arrival_ps: t.t_refi_ps,
            bank: 0,
            prep_ps: 10_000,
            burst_ps: 0,
            has_columns: false,
        };
        assert_eq!(tl.price(&on_boundary), t.t_refi_ps + t.t_rfc_ps + 10_000);
        assert_eq!(tl.refreshes_per_rank(), &[1]);

        let mut tl = EmulatedTimeline::with_ranks(1, 2, &t, true);
        let just_before = TimelineDemand {
            arrival_ps: t.t_refi_ps - 1,
            ..on_boundary
        };
        assert_eq!(
            tl.price(&just_before),
            t.t_refi_ps - 1 + 10_000 + t.t_rfc_ps
        );
        assert_eq!(tl.refreshes_per_rank(), &[1], "mid-flight crossing");
    }

    #[test]
    fn zero_length_pass_is_free() {
        // A serve pass that demands no prep and no bursts must not advance
        // any availability and must not charge refreshes ahead of schedule.
        let t = timing();
        let mut tl = EmulatedTimeline::with_ranks(1, 2, &t, true);
        let nothing = TimelineDemand {
            arrival_ps: 5_000,
            bank: 1,
            prep_ps: 0,
            burst_ps: 0,
            has_columns: false,
        };
        assert_eq!(tl.price(&nothing), 5_000);
        assert_eq!(tl.bank_free_ps[1], 5_000);
        assert_eq!(tl.bus_free_ps, 0);
        assert_eq!(tl.refreshes_per_rank(), &[0]);
        // A zero-burst column request still pays the CAS pipeline latency
        // but leaves the bus at its start point.
        let empty_col = TimelineDemand {
            arrival_ps: 5_000,
            bank: 0,
            prep_ps: 0,
            burst_ps: 0,
            has_columns: true,
        };
        assert_eq!(tl.price(&empty_col), 5_000 + t.t_cl_ps);
        assert_eq!(tl.bus_free_ps, 5_000);
    }

    #[test]
    fn zero_length_demand_on_boundary_still_pays_overdue_refresh() {
        let t = timing();
        let mut tl = EmulatedTimeline::with_ranks(1, 2, &t, true);
        let nothing = TimelineDemand {
            arrival_ps: t.t_refi_ps,
            bank: 0,
            prep_ps: 0,
            burst_ps: 0,
            has_columns: false,
        };
        assert_eq!(tl.price(&nothing), t.t_refi_ps + t.t_rfc_ps);
        assert_eq!(tl.refreshes_per_rank(), &[1]);
    }

    #[test]
    fn far_future_arrival_charges_every_missed_refresh() {
        // The closed form must count exactly the boundaries the old
        // boundary-by-boundary walk would have visited.
        let t = timing();
        let mut tl = EmulatedTimeline::with_ranks(1, 2, &t, true);
        let k = 1_000u64;
        let late = TimelineDemand {
            arrival_ps: k * t.t_refi_ps + 1,
            bank: 0,
            prep_ps: 1,
            burst_ps: 0,
            has_columns: false,
        };
        let _ = tl.price(&late);
        assert_eq!(tl.refreshes_per_rank(), &[k]);
    }

    /// A timeline over `timing()` with tRFC and tREFI replaced.
    fn with_refresh(t_rfc_ps: u64, t_refi_ps: u64) -> EmulatedTimeline {
        let t = TimingParams {
            t_rfc_ps,
            t_refi_ps,
            ..timing()
        };
        EmulatedTimeline::with_ranks(1, 2, &t, true)
    }

    #[test]
    #[should_panic(expected = "cfg/refresh-interval")]
    fn zero_refresh_interval_is_rejected() {
        let _ = with_refresh(0, 0);
    }

    #[test]
    #[should_panic(expected = "cfg/refresh-interval")]
    fn refresh_interval_below_trfc_is_rejected() {
        let t_rfc = timing().t_rfc_ps;
        let _ = with_refresh(t_rfc, t_rfc - 1);
    }

    #[test]
    #[should_panic(expected = "cfg/refresh-interval")]
    fn refresh_interval_equal_to_trfc_is_rejected() {
        let t_rfc = timing().t_rfc_ps;
        let _ = with_refresh(t_rfc, t_rfc);
    }

    #[test]
    fn ranks_refresh_independently() {
        let t = timing();
        // 2 ranks × 2 banks: banks 0-1 are rank 0, banks 2-3 are rank 1.
        let mut tl = EmulatedTimeline::with_ranks(2, 2, &t, true);
        assert_eq!(tl.ranks(), 2);
        // A request on rank 0 that crosses the boundary charges rank 0 only.
        let long = TimelineDemand {
            arrival_ps: 0,
            bank: 0,
            prep_ps: t.t_refi_ps + 5_000,
            burst_ps: 0,
            has_columns: false,
        };
        let _ = tl.price(&long);
        assert_eq!(tl.refreshes_per_rank(), &[1, 0]);
        // Rank 1's banks were not stalled by rank 0's refresh.
        assert_eq!(tl.bank_free_ps[2], 0);
        assert_eq!(tl.bank_free_ps[3], 0);
        // But rank 1 still owes its own refresh when a request arrives late.
        let late = demand(2, t.t_refi_ps + 1);
        let mut off = EmulatedTimeline::with_ranks(2, 2, &t, false);
        let with = tl.price(&late);
        let without = off.price(&late);
        assert_eq!(with, without + t.t_rfc_ps - 1);
        assert_eq!(tl.refreshes_per_rank(), &[1, 1]);
    }
}
