//! Cost model for moving programs and data between the programmable core and
//! DRAM Bender.
//!
//! The paper counts "overheads of being coupled with DRAM Bender (e.g.,
//! transferring DRAM commands)" among the latencies that must be considered
//! for realistic system evaluation (§4.2). The Tile Control Logic streams the
//! command buffer into DRAM Bender and drains the readback buffer; we model
//! both as a fixed handshake plus one FPGA clock per element.

/// Transfer-cost model in FPGA (tile-domain) clock cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TransferCost {
    /// Fixed handshake cycles per batch (start + completion interrupt).
    pub batch_overhead_cycles: u64,
    /// Cycles to stream one instruction into the command buffer.
    pub cycles_per_instr: u64,
    /// Cycles to drain one cache line from the readback buffer.
    pub cycles_per_readback_line: u64,
}

impl Default for TransferCost {
    fn default() -> Self {
        Self {
            batch_overhead_cycles: 32,
            cycles_per_instr: 1,
            cycles_per_readback_line: 16,
        }
    }
}

impl TransferCost {
    /// Cycles to ship a program of `n_instrs` into DRAM Bender.
    #[must_use]
    pub fn program_cycles(&self, n_instrs: usize) -> u64 {
        self.batch_overhead_cycles + self.cycles_per_instr * n_instrs as u64
    }

    /// Cycles to drain `n_lines` cache lines of readback data.
    #[must_use]
    pub fn readback_cycles(&self, n_lines: usize) -> u64 {
        self.cycles_per_readback_line * n_lines as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn costs_are_monotonic_in_size() {
        let c = TransferCost::default();
        assert!(c.program_cycles(10) > c.program_cycles(1));
        assert!(c.readback_cycles(4) > c.readback_cycles(1));
    }

    #[test]
    fn empty_batch_still_pays_handshake() {
        let c = TransferCost::default();
        assert_eq!(c.program_cycles(0), c.batch_overhead_cycles);
        assert_eq!(c.readback_cycles(0), 0);
    }
}
