//! Memory requests and responses as seen by the software memory controller.

use easydram_dram::{DramAddress, LINE_BYTES};

/// What a request asks the memory system to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// Fetch one cache line at a physical address.
    Read {
        /// Physical address of the line (64-byte aligned).
        addr: u64,
    },
    /// Write one cache line back to memory.
    Write {
        /// Physical address of the line (64-byte aligned).
        addr: u64,
        /// The line contents.
        data: [u8; LINE_BYTES],
    },
    /// Copy a whole DRAM row inside the device (RowClone, paper §7).
    RowClone {
        /// Physical address of the source row base.
        src_addr: u64,
        /// Physical address of the destination row base.
        dst_addr: u64,
    },
    /// Test one cache line at a reduced tRCD (profiling request, §8.1).
    ProfileTrcd {
        /// Physical address of the line under test.
        addr: u64,
        /// The tRCD value to apply, in picoseconds.
        trcd_ps: u64,
    },
}

/// The operation class a request is accounted under (per-requestor
/// read/write counters, latency histograms, and, as `u32`, the `a` field of
/// its `Enqueue`/`Retire` trace events).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestClass {
    /// Moves line data to the host: reads and profiling reads.
    Read = 0,
    /// A line write / writeback.
    Write = 1,
    /// An in-DRAM row copy; never touches the data bus.
    RowClone = 2,
}

/// What the tile stamps on a request when it posts it, and the only carrier
/// of per-request state from post to retire: EasyAPI copies the tag from the
/// request onto the [`MemResponse`] that answers it, and the tile prices and
/// attributes the response from the tag alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestTag {
    /// Monotonic request identifier.
    pub id: u64,
    /// The core (hart) that issued the request. Single-core systems tag
    /// everything 0; shared-tile systems tag each core's id so responses and
    /// statistics stay attributable.
    pub requestor: u32,
    /// Processor-cycle tag at arrival (paper Fig. 5 ①: "the request is
    /// tagged with the current processor cycle counter value").
    pub arrival_cycle: u64,
    /// The operation class of [`MemRequest::kind`].
    pub class: RequestClass,
    /// The decoded DRAM coordinate of [`MemRequest::addr`], RowClone remaps
    /// included. Decoded once, at post: a row is remapped before its address
    /// is first handed out, so the decode cannot change under a pending
    /// request (the tile debug-asserts this after every RowClone
    /// allocation).
    pub dram: DramAddress,
}

/// A request in the tile's hardware buffers / software request table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// The tile's post-time tag.
    pub tag: RequestTag,
    /// The operation.
    pub kind: RequestKind,
}

/// The share of a serve pass attributable to one response: everything the
/// controller spent between finalizing the previous response and finalizing
/// this one. The tile prices each slice independently on the emulated
/// timeline, so every request in a batch gets its own release cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResponseSlice {
    /// Rocket cycles of controller code charged to this response (feeds its
    /// scheduling latency via time scaling).
    pub rocket_cycles: u64,
    /// DRAM bank/bus occupancy of this response's command batches, in ps.
    pub dram_occupancy_ps: u64,
    /// Column (RD/WR) commands — each occupies the data bus for one burst.
    pub column_ops: u64,
    /// Command batches flushed for this response.
    pub batches: u64,
    /// Row-buffer hits among this response's column sequences.
    pub row_hits: u64,
    /// Row misses (bank idle) among this response's column sequences.
    pub row_misses: u64,
    /// Row conflicts (other row open) among this response's sequences.
    pub row_conflicts: u64,
}

crate::counters::counters!(pub ResponseSlice: sum {
    rocket_cycles,
    dram_occupancy_ps,
    column_ops,
    batches,
    row_hits,
    row_misses,
    row_conflicts,
});

/// A response produced by the software memory controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemResponse {
    /// The tag of the request this answers, copied by EasyAPI at
    /// `enqueue_response` time so attribution survives reordering.
    pub tag: RequestTag,
    /// Line data for reads / profiling reads.
    pub data: Option<[u8; LINE_BYTES]>,
    /// Whether the data is known-corrupt (reduced-tRCD failure).
    pub corrupted: bool,
    /// This response's share of the serve pass (its emulated-timeline finish
    /// slice), attributed by EasyAPI at `enqueue_response` time.
    pub slice: ResponseSlice,
}

impl RequestKind {
    /// The physical line/row address this operation targets (source row for
    /// RowClone) — the address the tile routes on.
    #[must_use]
    pub fn addr(&self) -> u64 {
        match *self {
            RequestKind::Read { addr }
            | RequestKind::Write { addr, .. }
            | RequestKind::ProfileTrcd { addr, .. } => addr,
            RequestKind::RowClone { src_addr, .. } => src_addr,
        }
    }

    /// The class this operation is accounted under. Profiling requests move
    /// line data to the host just like reads.
    #[must_use]
    pub fn class(&self) -> RequestClass {
        match self {
            RequestKind::Read { .. } | RequestKind::ProfileTrcd { .. } => RequestClass::Read,
            RequestKind::Write { .. } => RequestClass::Write,
            RequestKind::RowClone { .. } => RequestClass::RowClone,
        }
    }
}

impl MemRequest {
    /// Tags `kind` for posting: `dram` is the decode of `kind.addr()`.
    #[must_use]
    pub fn new(
        id: u64,
        requestor: u32,
        kind: RequestKind,
        arrival_cycle: u64,
        dram: DramAddress,
    ) -> Self {
        Self {
            tag: RequestTag {
                id,
                requestor,
                arrival_cycle,
                class: kind.class(),
                dram,
            },
            kind,
        }
    }

    /// The physical line/row address this request targets (source row for
    /// RowClone).
    #[must_use]
    pub fn addr(&self) -> u64 {
        self.kind.addr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_extraction() {
        let r = MemRequest::new(
            1,
            0,
            RequestKind::Read { addr: 0x1000 },
            5,
            DramAddress::new(0, 0, 64),
        );
        assert_eq!(r.addr(), 0x1000);
        assert_eq!(r.tag.class, RequestClass::Read);
        let rc = MemRequest::new(
            2,
            3,
            RequestKind::RowClone {
                src_addr: 0x2000,
                dst_addr: 0x4000,
            },
            9,
            DramAddress::new(0, 1, 0),
        );
        assert_eq!(rc.addr(), 0x2000);
        assert_eq!(rc.tag.class, RequestClass::RowClone);
        assert_eq!((rc.tag.requestor, rc.tag.arrival_cycle), (3, 9));
    }
}
