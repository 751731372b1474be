//! A fixed-latency, bandwidth-limited memory backend for unit tests and as
//! an idealized reference memory. This file is the timing only: the bytes
//! live in a [`LineStore`] and addresses come from the [`BumpAllocator`]
//! every backend shares (see [`crate::memory`]).

use crate::backend::{LineFetch, MemoryBackend};
use crate::memory::{BumpAllocator, LineStore};
use crate::LINE_BYTES;

/// Serves every line with constant latency and a configurable minimum
/// spacing between service completions (a crude bandwidth model).
#[derive(Debug, Clone)]
pub struct FixedLatencyBackend {
    mem: LineStore,
    latency_cycles: u64,
    service_interval_cycles: u64,
    server_free: u64,
    heap: BumpAllocator,
    /// Number of read requests served.
    pub reads: u64,
    /// Number of write requests served.
    pub writes: u64,
}

impl FixedLatencyBackend {
    /// Creates a backend with the given latency and no bandwidth limit.
    #[must_use]
    pub fn new(latency_cycles: u64) -> Self {
        Self::with_bandwidth(latency_cycles, 0)
    }

    /// Creates a backend where consecutive requests are also spaced at least
    /// `service_interval_cycles` apart.
    #[must_use]
    pub fn with_bandwidth(latency_cycles: u64, service_interval_cycles: u64) -> Self {
        Self {
            mem: LineStore::new(),
            latency_cycles,
            service_interval_cycles,
            server_free: 0,
            heap: BumpAllocator::new(),
            reads: 0,
            writes: 0,
        }
    }

    fn schedule(&mut self, issue_cycle: u64) -> u64 {
        let start = issue_cycle.max(self.server_free);
        self.server_free = start + self.service_interval_cycles;
        start + self.latency_cycles
    }
}

impl MemoryBackend for FixedLatencyBackend {
    fn read_line(&mut self, line_addr: u64, issue_cycle: u64) -> LineFetch {
        self.reads += 1;
        let complete_cycle = self.schedule(issue_cycle);
        LineFetch {
            data: self.mem.read(line_addr),
            complete_cycle,
        }
    }

    fn post_write(&mut self, line_addr: u64, data: [u8; LINE_BYTES], issue_cycle: u64) -> u64 {
        // No write buffer: posted writes are served immediately.
        self.writes += 1;
        self.mem.write(line_addr, data);
        self.schedule(issue_cycle)
    }

    fn alloc(&mut self, bytes: u64, align: u64) -> u64 {
        self.heap.alloc(bytes, align, self.capacity_bytes())
    }

    fn capacity_bytes(&self) -> u64 {
        1 << 40
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_returns_written_data() {
        let mut b = FixedLatencyBackend::new(10);
        let mut line = [0u8; LINE_BYTES];
        line[5] = 0xAA;
        b.write_line(0x40, line, 0);
        let f = b.read_line(0x40, 100);
        assert_eq!(f.data, line);
        assert_eq!(f.complete_cycle, 110);
    }

    #[test]
    fn bandwidth_serializes_requests() {
        let mut b = FixedLatencyBackend::with_bandwidth(10, 4);
        let a = b.read_line(0, 0);
        let c = b.read_line(64, 0);
        assert_eq!(a.complete_cycle, 10);
        assert_eq!(c.complete_cycle, 14, "second request waits for the server");
    }

    #[test]
    fn unwritten_lines_read_zero() {
        let mut b = FixedLatencyBackend::new(1);
        assert_eq!(b.read_line(0x1234 << 6, 0).data, [0; LINE_BYTES]);
    }
}
