//! Software memory controllers (paper §4.1, §5.2).
//!
//! A software memory controller is an ordinary program — here a Rust type
//! implementing [`SoftwareMemoryController`] — that serves memory requests
//! through the [`easyapi::EasyApi`] surface of paper Table 2. The tile
//! accumulates posted requests in one persistent controller session per
//! channel and invokes the controller in **batched serve passes**: one pass
//! may carry many in-flight requests (posted writebacks plus the read that
//! forced the drain), which is what makes FR-FCFS reordering, critical-mode
//! scheduling, and request batching meaningful. Every API call charges
//! Rocket cycles, and the accumulated ledger feeds time scaling.

pub mod controllers;
pub mod easyapi;
pub mod mitigation;

pub use controllers::{FcfsController, FrFcfsController, TrcdPlan};
pub use mitigation::{GrapheneController, MitigationStats, ParaController};

use crate::smc::easyapi::EasyApi;

/// Summary a controller returns after a scheduling pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeResult {
    /// Row-buffer hits among column accesses.
    pub row_hits: u64,
    /// Row misses (bank was idle).
    pub row_misses: u64,
    /// Row conflicts (another row was open).
    pub row_conflicts: u64,
    /// Accesses issued with a reduced tRCD.
    pub reduced_trcd_accesses: u64,
}

crate::counters::counters!(pub ServeResult: sum {
    row_hits,
    row_misses,
    row_conflicts,
    reduced_trcd_accesses,
});

/// A software memory controller: the C++ program of paper Listing 1,
/// expressed as a trait.
///
/// The contract of one serve pass:
///
/// * The incoming stream may hold **many** requests (posted writes plus the
///   read or fence that forced the drain). Implementations must drain every
///   pending request (`api.req_empty()` becomes true) and enqueue exactly
///   one response per request before returning; the tile checks every
///   pending id off after the pass and panics naming a duplicate or missing
///   one.
/// * Requests to the **same address** must be served in arrival order (the
///   table is arrival-ordered; both shipped schedulers pick the earliest
///   request among equals, which preserves this). Reordering across
///   different addresses — e.g. FR-FCFS pulling row hits forward — is the
///   point of batching.
/// * The cycles charged between one `enqueue_response` and the next are
///   attributed to that response ([`crate::request::ResponseSlice`]); the
///   system prices each slice independently on the emulated timeline and
///   releases every request at its own cycle.
///
/// `Send` is a supertrait so a tile holding controller instances can be
/// shared between the threads of a co-scheduled multi-core run; shipped
/// controllers are plain data structures.
pub trait SoftwareMemoryController: Send {
    /// Controller name for reports.
    fn name(&self) -> &str;

    /// One scheduling pass: receive pending requests, issue DRAM commands,
    /// enqueue responses.
    fn serve(&mut self, api: &mut EasyApi<'_>) -> ServeResult;

    /// Cumulative RowHammer-mitigation counters, for controllers that run a
    /// mitigation policy ([`mitigation::ParaController`],
    /// [`mitigation::GrapheneController`]). `None` — the default — means
    /// the controller mitigates nothing, and keeps reports byte-identical
    /// to the pre-disturbance format.
    fn mitigation_stats(&self) -> Option<MitigationStats> {
        None
    }
}

#[cfg(test)]
pub(crate) mod fixture {
    use easydram_dram::{AddressMapper, DramAddress, DramDevice, MappingScheme};

    use super::easyapi::{ApiSession, EasyApi};
    use crate::alloc::RowCloneAllocator;
    use crate::config::{SystemConfig, TimingMode};
    use crate::request::{MemRequest, RequestKind};

    /// The tile-side state a serve pass borrows, for controller unit tests:
    /// a small device, the allocator whose decode translates its addresses
    /// and one session to post into.
    pub(crate) struct Fix {
        pub(crate) dev: DramDevice,
        pub(crate) placement: RowCloneAllocator,
        pub(crate) session: ApiSession,
        next_id: u64,
    }

    impl Fix {
        /// The configuration the fixture's device and session come from.
        pub(crate) fn config() -> SystemConfig {
            SystemConfig {
                write_buffer_depth: 16,
                ..SystemConfig::small_for_tests(TimingMode::TimeScaling)
            }
        }

        pub(crate) fn new() -> Self {
            let cfg = Self::config();
            let dev = DramDevice::new(cfg.dram.clone());
            let geo = dev.config().geometry.clone();
            Self {
                dev,
                placement: RowCloneAllocator::new(
                    AddressMapper::new(geo, MappingScheme::RowColBankXor),
                    cfg.rowclone_test_trials,
                ),
                session: ApiSession::new(&cfg),
                next_id: 0,
            }
        }

        /// Posts `kind` the way the tile does — tagged with the next id and
        /// its decoded address — and returns the id.
        pub(crate) fn post(
            &mut self,
            requestor: u32,
            kind: RequestKind,
            arrival_cycle: u64,
        ) -> u64 {
            let id = self.next_id;
            self.next_id += 1;
            let dram = self.placement.decode(kind.addr());
            self.session
                .post(MemRequest::new(id, requestor, kind, arrival_cycle, dram));
            id
        }

        /// The physical address of the start of cache line `addr`.
        pub(crate) fn to_phys(&self, addr: DramAddress) -> u64 {
            self.placement.mapper().to_phys(addr)
        }

        /// Posts a read of `addr` from requestor 0 at cycle 0.
        pub(crate) fn post_read(&mut self, addr: u64) -> u64 {
            self.post(0, RequestKind::Read { addr }, 0)
        }

        /// Opens a pass over everything posted, starting at wall time 0.
        pub(crate) fn api(&mut self) -> EasyApi<'_> {
            self.session.begin(&mut self.dev, &self.placement, 0)
        }
    }
}
