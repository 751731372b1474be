//! Rocket-cycle cost model for software-memory-controller operations.
//!
//! "The memory controller executes hundreds of instructions in the
//! programmable core to process a memory request" (paper §4.1) — but the
//! Tile Control Logic "allows the programmable core to offload common memory
//! controller operations" (§5.1 ⑤), so the *hot path* of a tuned controller
//! is a few tens of Rocket cycles. Each [`crate::EasyApi`] call charges its
//! cost to the controller's cycle ledger; the ledger feeds both the FPGA
//! wall clock and (through time scaling) the modeled scheduling latency.

/// Per-operation Rocket-cycle costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SmcCostModel {
    /// Polling the incoming-request FIFO empty flag.
    pub poll: u64,
    /// Moving one request from the hardware FIFO into the request table
    /// (`receive_request`, Table 2).
    pub receive_request: u64,
    /// Physical-to-DRAM address translation (`get_addr_mapping`).
    pub addr_mapping: u64,
    /// One FCFS scheduling decision (`FCFS::schedule`).
    pub schedule_fcfs: u64,
    /// One FR-FCFS scheduling decision (`FRFCFS::schedule` — scans the
    /// request table for row hits, so it costs more).
    pub schedule_frfcfs: u64,
    /// Appending one DRAM command to the command batch (`ddr_activate`…).
    pub build_command: u64,
    /// Building a RowClone command sequence (`rowclone`, Table 2).
    pub build_rowclone: u64,
    /// Querying the weak-row Bloom filter (§8.2).
    pub bloom_check: u64,
    /// Per-activation RowHammer-mitigation bookkeeping: a PARA coin flip or
    /// a Graphene activation-table update (both are a few ALU/scratchpad
    /// operations on the hot path).
    pub mitigation_track: u64,
    /// Finalizing and enqueueing a response (`enqueue_response`).
    pub enqueue_response: u64,
    /// Entering/leaving critical mode (`set_scheduling_state`).
    pub set_scheduling_state: u64,
}

impl Default for SmcCostModel {
    fn default() -> Self {
        Self {
            poll: 4,
            receive_request: 24,
            addr_mapping: 8,
            schedule_fcfs: 8,
            schedule_frfcfs: 16,
            build_command: 4,
            // RowClone is not hot-path optimized: the controller walks the
            // qualification table and assembles the violating sequence
            // ("hundreds of instructions", paper §4.1).
            build_rowclone: 120,
            // A Bloom lookup is a handful of hash+mask ALU ops on the
            // scratchpad-resident filter.
            bloom_check: 4,
            mitigation_track: 6,
            enqueue_response: 20,
            set_scheduling_state: 4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frfcfs_costs_more_than_fcfs() {
        let c = SmcCostModel::default();
        assert!(c.schedule_frfcfs > c.schedule_fcfs);
    }
}
