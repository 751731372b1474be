//! Software memory controllers (paper §4.1, §5.2).
//!
//! A software memory controller is an ordinary program — here a Rust type
//! implementing [`SoftwareMemoryController`] — that serves memory requests
//! through the [`easyapi::EasyApi`] surface of paper Table 2. The tile
//! accumulates posted requests in a persistent [`easyapi::ApiSession`] and
//! invokes the controller in **batched serve passes**: one pass may carry
//! many in-flight requests (posted writebacks plus the read that forced the
//! drain), which is what makes FR-FCFS reordering, critical-mode
//! scheduling, and request batching meaningful. Every API call charges
//! Rocket cycles, and the accumulated ledger feeds time scaling.

pub mod controllers;
pub mod easyapi;
pub mod mitigation;

pub use controllers::{FcfsController, FrFcfsController, RowPolicy, TrcdPlan};
pub use easyapi::{ApiSession, TileCtx};
pub use mitigation::{GrapheneController, MitigationStats, ParaController};

use crate::smc::easyapi::EasyApi;

/// Summary a controller returns after a scheduling pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeResult {
    /// Requests served in this pass.
    pub served: u64,
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
    served,
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
    use std::collections::BTreeMap;

    use easydram_bender::{Executor, TransferCost};
    use easydram_dram::{AddressMapper, DramConfig, DramDevice, MappingScheme};

    use super::easyapi::{ApiSession, EasyApi, TileCtx};
    use crate::costs::SmcCostModel;
    use crate::request::{MemRequest, RequestKind};

    /// The tile-side state a serve pass borrows, for controller unit tests:
    /// a small device, its command substrate and one session to post into.
    pub(crate) struct Fix {
        pub(crate) dev: DramDevice,
        pub(crate) ex: Executor,
        pub(crate) map: AddressMapper,
        pub(crate) remap: BTreeMap<u64, (u32, u32)>,
        pub(crate) costs: SmcCostModel,
        pub(crate) transfer: TransferCost,
        pub(crate) session: ApiSession,
        next_id: u64,
    }

    impl Fix {
        pub(crate) fn new() -> Self {
            let dev = DramDevice::new(DramConfig::small_for_tests());
            let geo = dev.config().geometry.clone();
            Self {
                dev,
                ex: Executor::new(),
                map: AddressMapper::new(geo, MappingScheme::RowBankCol),
                remap: BTreeMap::new(),
                costs: SmcCostModel::default(),
                transfer: TransferCost::default(),
                session: ApiSession::new(16),
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
            let dram = self.map.to_dram_remapped(&self.remap, kind.addr());
            self.session
                .post(MemRequest::new(id, requestor, kind, arrival_cycle, dram));
            id
        }

        /// Posts a read of `addr` from requestor 0 at cycle 0.
        pub(crate) fn post_read(&mut self, addr: u64) -> u64 {
            self.post(0, RequestKind::Read { addr }, 0)
        }

        /// Opens a pass over everything posted.
        pub(crate) fn api(&mut self) -> EasyApi<'_> {
            self.session.begin(
                TileCtx {
                    device: &mut self.dev,
                    executor: &self.ex,
                    mapper: &self.map,
                    remap: &self.remap,
                    costs: &self.costs,
                    transfer: &self.transfer,
                    tile_clk_hz: 100_000_000,
                },
                0,
            )
        }
    }
}
