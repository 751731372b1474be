//! The execution-driven core model: timing engine + cache hierarchy driver.

use crate::api::{CpuApi, RowCloneStatus};
use crate::backend::MemoryBackend;
use crate::cache::{Cache, CacheLevelStats};
use crate::config::CoreConfig;
use crate::stats::CoreStats;
use crate::timescale::Clock;
use crate::LINE_BYTES;

/// One cycle in the Q32.32 fixed point `compute` accumulates in.
pub(crate) const Q32_ONE: u64 = 1 << 32;

/// The modeled processor: owns the cache hierarchy and a memory backend,
/// executes [`CpuApi`] calls, and accounts time in emulated processor cycles.
#[derive(Debug)]
pub struct CoreModel<B> {
    cfg: CoreConfig,
    backend: B,
    l1: Option<Cache>,
    l2: Option<Cache>,
    /// On-chip cycles a memory fetch pays before it issues: the hit latency
    /// of the last cache level it missed in.
    miss_path_cycles: u64,
    now: u64,
    /// Completion cycles of in-flight overlapped requests (≤ `cfg.mshrs`).
    outstanding: Vec<u64>,
    stream_mode: bool,
    /// Cycles per compute op in Q32.32: `1 / compute_ipc`, rounded up.
    cycles_per_op_q32: u64,
    /// Fraction of a cycle (Q32) the compute ops so far have left over.
    compute_carry: u64,
    /// `cfg.mmio_roundtrip_ns` in core cycles, rounded half-up.
    mmio_roundtrip_cycles: u64,
    stats: CoreStats,
}

impl<B: MemoryBackend> CoreModel<B> {
    /// Creates a core with empty caches.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`CoreConfig::validate`].
    #[must_use]
    pub fn new(cfg: CoreConfig, backend: B) -> Self {
        cfg.validate().expect("invalid core configuration");
        Self {
            backend,
            l1: cfg.l1.map(Cache::new),
            l2: cfg.l2.map(Cache::new),
            miss_path_cycles: cfg.l2.or(cfg.l1).map_or(0, |c| c.hit_latency_cycles),
            now: 0,
            outstanding: Vec::with_capacity(cfg.mshrs),
            stream_mode: false,
            cycles_per_op_q32: (Q32_ONE as f64 / cfg.compute_ipc).ceil() as u64,
            compute_carry: 0,
            mmio_roundtrip_cycles: Clock::from_hz(cfg.freq_hz)
                .ps_to_cycles(cfg.mmio_roundtrip_ns.saturating_mul(1_000)),
            stats: CoreStats::default(),
            cfg,
        }
    }

    /// The core's configuration.
    #[must_use]
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Core-side statistics.
    #[must_use]
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// L1 hit/miss statistics, if an L1 is configured.
    #[must_use]
    pub fn l1_stats(&self) -> Option<CacheLevelStats> {
        self.l1.as_ref().map(|c| *c.stats())
    }

    /// L2 hit/miss statistics, if an L2 is configured.
    #[must_use]
    pub fn l2_stats(&self) -> Option<CacheLevelStats> {
        self.l2.as_ref().map(|c| *c.stats())
    }

    /// Borrows the memory backend.
    #[must_use]
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Mutably borrows the memory backend (host-side tooling, not workload
    /// code).
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }

    fn stall_until(&mut self, cycle: u64) {
        if cycle > self.now {
            self.stats.stall_cycles += cycle - self.now;
            self.now = cycle;
        }
    }

    /// Makes room for one more in-flight request: retires everything that
    /// has already completed, then — only if the MSHR file is still full —
    /// stalls until the earliest outstanding request completes.
    ///
    /// Retiring **before** the fullness check matters: a full-but-stale MSHR
    /// file (every slot holding an already-completed fill) has free space in
    /// reality, and must not force-retire a slot as if the core had to wait.
    ///
    /// With nothing in flight there is nothing to retire and (a valid
    /// configuration has at least one MSHR) room already: that check is all
    /// a streaming load that hits pays, inlined at the call.
    #[inline]
    fn reserve_mshr(&mut self) {
        if !self.outstanding.is_empty() {
            self.retire_mshrs();
        }
    }

    #[inline(never)]
    fn retire_mshrs(&mut self) {
        let now = self.now;
        self.outstanding.retain(|&c| c > now);
        if self.outstanding.len() >= self.cfg.mshrs {
            let (idx, &earliest) = self
                .outstanding
                .iter()
                .enumerate()
                .min_by_key(|&(_, &c)| c)
                .expect("outstanding is non-empty");
            self.outstanding.swap_remove(idx);
            self.stall_until(earliest);
            // The stall may have carried time past other completions.
            let now = self.now;
            self.outstanding.retain(|&c| c > now);
        }
        debug_assert!(
            self.outstanding.len() < self.cfg.mshrs,
            "reserve_mshr must leave room for one request"
        );
    }

    /// In-flight overlapped requests currently occupying MSHRs. Never
    /// exceeds the configured `mshrs` (each push is preceded by a
    /// reservation that guarantees a free slot — this invariant also covers
    /// the `clflush` push path).
    #[must_use]
    pub fn mshr_occupancy(&self) -> usize {
        self.outstanding.len()
    }

    /// A load the L1 could not serve: its probe there has missed, and
    /// counted the miss, or there is no L1.
    #[inline(never)]
    fn load_miss(&mut self, line_addr: u64, offset: usize, size: u8) -> u64 {
        let (value, was_miss, avail) =
            self.fetch_line(line_addr, |line| read_span(line, offset, size));
        if self.stream_mode && was_miss {
            self.outstanding.push(avail);
        } else if self.stream_mode {
            // Cache hits in streaming mode are pipelined: issue cost only.
        } else {
            self.stall_until(avail);
        }
        value
    }

    /// A store the L1 could not take: its probe there has missed, or there
    /// is no L1.
    #[inline(never)]
    fn store_miss(&mut self, line_addr: u64, offset: usize, size: u8, value: u64) {
        // Write-allocate: stores never stall the core (store buffer), but
        // their fills occupy MSHRs.
        self.reserve_mshr();
        // The hit path's probe counts nothing; the fill is an L1 lookup, and
        // an L1 miss, like a load's.
        if let Some(l1) = &mut self.l1 {
            let hit = l1.touch(line_addr);
            debug_assert!(hit.is_none(), "the store's L1 probe just missed");
        }
        // Only a core without caches carries the line away, patched, to
        // post it; with caches the line is patched where it was installed.
        let cacheless = self.l1.is_none() && self.l2.is_none();
        let (patched, was_miss, avail) = self.fetch_line(line_addr, |line| {
            cacheless.then(|| {
                let mut data = *line;
                write_span(&mut data, offset, size, value);
                data
            })
        });
        if was_miss {
            self.outstanding.push(avail);
        }
        if let Some(data) = patched {
            self.stats.mem_writes += 1;
            self.backend.post_write(line_addr, data, self.now);
        } else if let Some(top) = self.l1.as_mut().or(self.l2.as_mut()) {
            let slot = top.write_slot(line_addr).expect("line was just installed");
            write_span(&mut top.data[slot], offset, size, value);
        }
    }

    /// Brings a line the L1 does not hold (or a line of an L1-less core) to
    /// the top of the hierarchy and lends its bytes to `read` where they
    /// lie. Returns what `read` made of them, whether it was a backend
    /// miss, and the cycle at which the data is available.
    fn fetch_line<R>(
        &mut self,
        line_addr: u64,
        read: impl FnOnce(&[u8; LINE_BYTES]) -> R,
    ) -> (R, bool, u64) {
        if let Some(l2) = &mut self.l2 {
            if let Some(slot) = l2.touch(line_addr) {
                let avail = self.now + l2.config().hit_latency_cycles;
                let out = read(&l2.data[slot]);
                self.promote_to_l1(line_addr, slot);
                return (out, false, avail);
            }
        }
        // Memory fetch: charge the on-chip miss path before issue.
        self.stats.mem_reads += 1;
        let issue = self.now + self.miss_path_cycles;
        let fetch = self.backend.read_line(line_addr, issue);
        let Self {
            l1,
            l2,
            backend,
            stats,
            ..
        } = self;
        if let Some(last) = l2.as_mut().or(l1.as_mut()) {
            // Every level missed, and nothing since touched a cache.
            let (slot, displaced) = last.claim_absent(line_addr, false);
            Self::post_displaced(last, backend, stats, slot, displaced, self.now);
            last.data[slot] = fetch.data;
            self.promote_to_l1(line_addr, slot);
        }
        (read(&fetch.data), true, fetch.complete_cycle.max(issue))
    }

    /// Posts the line that claiming `slot` of `cache` displaced to memory,
    /// if there is one and it is dirty. The caller then fills the slot.
    fn post_displaced(
        cache: &Cache,
        backend: &mut B,
        stats: &mut CoreStats,
        slot: usize,
        displaced: Option<(u64, bool)>,
        now: u64,
    ) {
        if let Some((victim_addr, true)) = displaced {
            stats.mem_writes += 1;
            backend.post_write(victim_addr, cache.data[slot], now);
        }
    }

    /// With both levels present, copies the line in L2 slot `from` into L1,
    /// once the L1 victim, where dirty, has been copied into L2 (clean
    /// victims are dropped; L2 or DRAM still hold them).
    fn promote_to_l1(&mut self, line_addr: u64, from: usize) {
        let Self {
            l1: Some(l1),
            l2: Some(l2),
            backend,
            stats,
            ..
        } = self
        else {
            return;
        };
        // Only ever called after the L1 lookup of `line_addr` missed.
        let (to, displaced) = l1.claim_absent(line_addr, false);
        if let Some((victim_addr, true)) = displaced {
            let (spill, from_l2) = l2.claim(victim_addr, true);
            Self::post_displaced(l2, backend, stats, spill, from_l2, self.now);
            if spill == from {
                // A direct-mapped L2 gives the victim the very way the
                // promoted line is leaving: the two trade places.
                std::mem::swap(&mut l1.data[to], &mut l2.data[from]);
                return;
            }
            l2.data[spill] = l1.data[to];
        }
        l1.data[to] = l2.data[from];
    }
}

/// Panics unless the `size` bytes at `addr` are an access the core takes:
/// 1, 2, 4 or 8 bytes inside one line.
#[inline(always)]
fn check_span(addr: u64, size: u8) {
    let offset = (addr % LINE_BYTES as u64) as usize;
    if !matches!(size, 1 | 2 | 4 | 8) || offset + size as usize > LINE_BYTES {
        bad_span(addr, size);
    }
}

/// [`check_span`]'s panic, out of line: its formatting would otherwise sit
/// in every typed accessor.
#[cold]
#[inline(never)]
fn bad_span(addr: u64, size: u8) -> ! {
    assert!(
        matches!(size, 1 | 2 | 4 | 8),
        "access size {size} must be 1, 2, 4, or 8 bytes"
    );
    panic!("access at {addr:#x} size {size} crosses a cache line")
}

/// Where the ≤ 8-byte span at `offset` lies in one 8-byte word that ends
/// inside the line: the word's start, the span's shift within it, and the
/// mask of its low `size` bytes. A variable-length copy is a `memcpy` call;
/// this is a shift and a mask.
#[inline(always)]
fn span_word(offset: usize, size: u8) -> (usize, usize, u64) {
    let start = offset.min(LINE_BYTES - 8);
    (start, 8 * (offset - start), u64::MAX >> (64 - 8 * size))
}

/// The `size` bytes at `offset` of a line, zero-extended.
#[inline(always)]
fn read_span(line: &[u8; LINE_BYTES], offset: usize, size: u8) -> u64 {
    let (start, shift, mask) = span_word(offset, size);
    let word = *line[start..]
        .first_chunk()
        .expect("start <= LINE_BYTES - 8");
    (u64::from_le_bytes(word) >> shift) & mask
}

/// Overwrites the `size` bytes at `offset` of a line with the low `size`
/// bytes of `value`.
#[inline(always)]
fn write_span(line: &mut [u8; LINE_BYTES], offset: usize, size: u8, value: u64) {
    let (start, shift, mask) = span_word(offset, size);
    let chunk: &mut [u8; 8] = line[start..]
        .first_chunk_mut()
        .expect("start <= LINE_BYTES - 8");
    let word = u64::from_le_bytes(*chunk) & !(mask << shift);
    *chunk = (word | ((value & mask) << shift)).to_le_bytes();
}

impl<B: MemoryBackend> CpuApi for CoreModel<B> {
    fn alloc(&mut self, bytes: u64, align: u64) -> u64 {
        self.backend.alloc(bytes, align)
    }

    // The L1 hit path, which every typed accessor inlines: the rest of the
    // hierarchy is `load_miss`, out of line.
    #[inline(always)]
    fn load(&mut self, addr: u64, size: u8) -> u64 {
        check_span(addr, size);
        self.stats.instructions += 1;
        self.stats.loads += 1;
        self.now += self.cfg.issue_cost_cycles;
        if self.stream_mode {
            self.reserve_mshr();
        }
        let line_addr = addr & !(LINE_BYTES as u64 - 1);
        let offset = (addr % LINE_BYTES as u64) as usize;
        if let Some(l1) = &mut self.l1 {
            if let Some(slot) = l1.touch(line_addr) {
                let value = read_span(&l1.data[slot], offset, size);
                // Cache hits in streaming mode are pipelined: issue cost
                // only.
                if !self.stream_mode {
                    let avail = self.now + l1.config().hit_latency_cycles;
                    self.stall_until(avail);
                }
                return value;
            }
        }
        self.load_miss(line_addr, offset, size)
    }

    // The L1 hit path, as for `load`: a store that hits is written in place
    // and never stalls.
    #[inline(always)]
    fn store(&mut self, addr: u64, size: u8, value: u64) {
        check_span(addr, size);
        self.stats.instructions += 1;
        self.stats.stores += 1;
        self.now += self.cfg.issue_cost_cycles;
        let line_addr = addr & !(LINE_BYTES as u64 - 1);
        let offset = (addr % LINE_BYTES as u64) as usize;
        if let Some(l1) = &mut self.l1 {
            if let Some(slot) = l1.write_slot(line_addr) {
                write_span(&mut l1.data[slot], offset, size, value);
                return;
            }
        }
        self.store_miss(line_addr, offset, size, value);
    }

    fn compute(&mut self, ops: u64) {
        self.stats.instructions += ops;
        let cycles =
            u128::from(ops) * u128::from(self.cycles_per_op_q32) + u128::from(self.compute_carry);
        // Below 2^96, so the sum cannot wrap; whether it fits is one compare.
        let now = u128::from(self.now) + (cycles >> 32);
        self.now = u64::try_from(now).unwrap_or_else(|_| {
            panic!(
                "emulated clock overflow: {ops} compute ops at cycle {} pass cycle 2^64",
                self.now
            )
        });
        self.compute_carry = cycles as u64 % Q32_ONE;
    }

    fn clflush(&mut self, addr: u64) {
        self.stats.instructions += 1;
        self.stats.clflushes += 1;
        self.now += self.cfg.clflush_cost_cycles;
        let line_addr = addr & !(LINE_BYTES as u64 - 1);
        let now = self.now;
        // Newest copy wins: L1 first, then L2. Both copies are invalidated.
        let l1_ev = self.l1.as_mut().and_then(|c| c.invalidate(line_addr));
        let l2_ev = self.l2.as_mut().and_then(|c| c.invalidate(line_addr));
        let newest = l1_ev.filter(|e| e.dirty).or(l2_ev.filter(|e| e.dirty));
        if let Some(ev) = newest {
            self.stats.mem_writes += 1;
            // The flush lands in the memory system's pending stream as a
            // posted write; a later fence (or any read) orders after it.
            let accepted = self.backend.post_write(line_addr, ev.data, now);
            self.reserve_mshr();
            self.outstanding.push(accepted);
        }
    }

    fn fence(&mut self) {
        self.stats.fences += 1;
        if let Some(&max) = self.outstanding.iter().max() {
            self.stall_until(max);
        }
        self.outstanding.clear();
        // Fences also drain the memory system's posted-write stream.
        let drained = self.backend.drain_writes(self.now);
        self.stall_until(drained);
    }

    fn stream_begin(&mut self) {
        self.stream_mode = true;
    }

    fn stream_end(&mut self) {
        self.stream_mode = false;
        // Leaving streaming mode does not drain MSHRs; use `fence` for that.
    }

    fn rowclone_row(&mut self, src_row_addr: u64, dst_row_addr: u64) -> RowCloneStatus {
        self.stats.instructions += 1;
        self.stats.rowclone_requests += 1;
        self.now += self.cfg.issue_cost_cycles;
        // Uncached MMIO trigger + completion poll: constant wall time, so a
        // faster modeled core pays more cycles. Half-up like every other
        // duration→cycle conversion in the workspace (a truncating division
        // here under-charged cores whose frequency is off the ns grid).
        self.now += self.mmio_roundtrip_cycles;
        // The operation reads/writes DRAM directly; it must not race in-flight
        // line fills.
        self.fence();
        let now = self.now;
        match self.backend.rowclone(src_row_addr, dst_row_addr, now) {
            None => RowCloneStatus::Unsupported,
            Some(r) => {
                self.stall_until(r.complete_cycle);
                if r.copied {
                    self.stats.rowclone_copies += 1;
                    RowCloneStatus::Copied
                } else {
                    RowCloneStatus::FallbackNeeded
                }
            }
        }
    }

    fn rowclone_alloc_copy(&mut self, bytes: u64) -> Option<(u64, u64)> {
        self.backend.rowclone_alloc_copy(bytes)
    }

    fn rowclone_alloc_init(&mut self, bytes: u64) -> Option<(u64, Vec<u64>)> {
        self.backend.rowclone_alloc_init(bytes)
    }

    fn rowclone_init_source(&mut self, dst_row_addr: u64) -> Option<u64> {
        self.backend.rowclone_init_source(dst_row_addr)
    }

    fn row_bytes(&self) -> u64 {
        self.backend.row_bytes()
    }

    fn now_cycles(&self) -> u64 {
        self.now
    }

    fn instructions_retired(&self) -> u64 {
        self.stats.instructions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use crate::fixed::FixedLatencyBackend;
    use proptest::prelude::*;

    const MEM_LAT: u64 = 150;

    fn core() -> CoreModel<FixedLatencyBackend> {
        CoreModel::new(CoreConfig::cortex_a57(), FixedLatencyBackend::new(MEM_LAT))
    }

    /// `load` and `store` as one body each, the L1 probe inside
    /// `fetch_line`, as they were before the L1 hit path was split from the
    /// rest: the oracle for the split.
    impl<B: MemoryBackend> CoreModel<B> {
        fn monolithic_fetch_line<R>(
            &mut self,
            line_addr: u64,
            read: impl FnOnce(&[u8; LINE_BYTES]) -> R,
        ) -> (R, bool, u64) {
            if let Some(l1) = &mut self.l1 {
                if let Some(line) = l1.lookup(line_addr) {
                    return (read(line), false, self.now + l1.config().hit_latency_cycles);
                }
            }
            if let Some(l2) = &mut self.l2 {
                if let Some(slot) = l2.touch(line_addr) {
                    let avail = self.now + l2.config().hit_latency_cycles;
                    let out = read(&l2.data[slot]);
                    self.promote_to_l1(line_addr, slot);
                    return (out, false, avail);
                }
            }
            self.stats.mem_reads += 1;
            let issue = self.now + self.miss_path_cycles;
            let fetch = self.backend.read_line(line_addr, issue);
            let Self {
                l1,
                l2,
                backend,
                stats,
                ..
            } = self;
            if let Some(last) = l2.as_mut().or(l1.as_mut()) {
                let (slot, displaced) = last.claim_absent(line_addr, false);
                Self::post_displaced(last, backend, stats, slot, displaced, self.now);
                last.data[slot] = fetch.data;
                self.promote_to_l1(line_addr, slot);
            }
            (read(&fetch.data), true, fetch.complete_cycle.max(issue))
        }

        fn monolithic_load(&mut self, addr: u64, size: u8) -> u64 {
            check_span(addr, size);
            self.stats.instructions += 1;
            self.stats.loads += 1;
            self.now += self.cfg.issue_cost_cycles;
            let line_addr = addr & !(LINE_BYTES as u64 - 1);
            if self.stream_mode {
                self.reserve_mshr();
            }
            let offset = (addr % LINE_BYTES as u64) as usize;
            let (value, was_miss, avail) = self.monolithic_fetch_line(line_addr, |line| {
                let start = offset.min(LINE_BYTES - 8);
                let word = *line[start..]
                    .first_chunk()
                    .expect("start <= LINE_BYTES - 8");
                (u64::from_le_bytes(word) >> (8 * (offset - start))) & (u64::MAX >> (64 - 8 * size))
            });
            if self.stream_mode && was_miss {
                self.outstanding.push(avail);
            } else if !self.stream_mode {
                self.stall_until(avail);
            }
            value
        }

        fn monolithic_store(&mut self, addr: u64, size: u8, value: u64) {
            check_span(addr, size);
            self.stats.instructions += 1;
            self.stats.stores += 1;
            self.now += self.cfg.issue_cost_cycles;
            let line_addr = addr & !(LINE_BYTES as u64 - 1);
            let offset = (addr % LINE_BYTES as u64) as usize;
            let bytes = &value.to_le_bytes()[..size as usize];
            if let Some(l1) = &mut self.l1 {
                if l1.write_hit(line_addr, offset, bytes) {
                    return;
                }
            }
            self.reserve_mshr();
            let cacheless = self.l1.is_none() && self.l2.is_none();
            let (patched, was_miss, avail) = self.monolithic_fetch_line(line_addr, |line| {
                cacheless.then(|| {
                    let mut data = *line;
                    data[offset..offset + bytes.len()].copy_from_slice(bytes);
                    data
                })
            });
            if was_miss {
                self.outstanding.push(avail);
            }
            if let Some(data) = patched {
                self.stats.mem_writes += 1;
                self.backend.post_write(line_addr, data, self.now);
            } else if let Some(top) = self.l1.as_mut().or(self.l2.as_mut()) {
                let ok = top.write_hit(line_addr, offset, bytes);
                debug_assert!(ok, "line was just installed");
            }
        }
    }

    /// Hierarchies small enough that a few hundred ops over 6 KiB evict,
    /// spill and write back: both levels, a direct-mapped L2, each level
    /// alone, and none.
    fn small_hierarchy(which: usize) -> CoreConfig {
        let level = |size_bytes, ways, hit_latency_cycles| {
            Some(CacheConfig {
                size_bytes,
                ways,
                hit_latency_cycles,
            })
        };
        let (l1, l2) = [
            (level(1024, 2, 2), level(4096, 4, 9)),
            (level(1024, 2, 2), level(2048, 1, 9)),
            (None, level(4096, 4, 9)),
            (level(1024, 2, 2), None),
            (None, None),
        ][which];
        CoreConfig {
            l1,
            l2,
            mshrs: 3,
            ..CoreConfig::cortex_a57()
        }
    }

    proptest! {
        /// The split `load` and `store`, through the sized calls and the
        /// typed accessors on `&mut dyn CpuApi`, compute what the one-body
        /// versions computed: every value and cycle, and at the end the
        /// whole core, caches (tags, stamps, dirty bits, data, counters)
        /// and memory included.
        #[test]
        fn split_load_store_match_the_monolithic_bodies(
            which in 0usize..5,
            ops in prop::collection::vec(
                (0u8..16, 0u64..96, 0usize..64, 0u32..4, any::<u64>()),
                1..400,
            ),
        ) {
            let backend = FixedLatencyBackend::with_bandwidth(40, 5);
            let mut split = CoreModel::new(small_hierarchy(which), backend.clone());
            let mut oracle = CoreModel::new(small_hierarchy(which), backend);
            for (op, line, offset, size_log, value) in ops {
                let size = 1u8 << size_log;
                let addr = line * 64 + offset.min(LINE_BYTES - usize::from(size)) as u64;
                let cpu: &mut dyn CpuApi = &mut split;
                match op {
                    0..=2 => prop_assert_eq!(cpu.load(addr, size), oracle.monolithic_load(addr, size)),
                    3..=5 => prop_assert_eq!(
                        cpu.load_u64(addr & !7),
                        oracle.monolithic_load(addr & !7, 8)
                    ),
                    6..=8 => {
                        cpu.store(addr, size, value);
                        oracle.monolithic_store(addr, size, value);
                    }
                    9..=11 => {
                        cpu.store_f64(addr & !7, f64::from_bits(value));
                        oracle.monolithic_store(addr & !7, 8, value);
                    }
                    12 => {
                        cpu.compute(value % 50);
                        oracle.compute(value % 50);
                    }
                    13 => {
                        cpu.clflush(addr);
                        oracle.clflush(addr);
                    }
                    14 => {
                        cpu.fence();
                        oracle.fence();
                    }
                    _ if value & 1 == 0 => {
                        cpu.stream_begin();
                        oracle.stream_begin();
                    }
                    _ => {
                        cpu.stream_end();
                        oracle.stream_end();
                    }
                }
                prop_assert_eq!(split.now_cycles(), oracle.now_cycles());
            }
            prop_assert_eq!(format!("{split:?}"), format!("{oracle:?}"));
        }
    }

    #[test]
    fn load_store_round_trip_through_hierarchy() {
        let mut c = core();
        let a = c.alloc(4096, 64);
        for i in 0..512 {
            c.store_u64(a + i * 8, i * 3 + 1);
        }
        for i in 0..512 {
            assert_eq!(c.load_u64(a + i * 8), i * 3 + 1);
        }
    }

    #[test]
    fn dependent_miss_pays_full_latency_hit_does_not() {
        let mut c = core();
        let a = c.alloc(64, 64);
        let t0 = c.now_cycles();
        let _ = c.load_u64(a); // cold miss
        let miss_time = c.now_cycles() - t0;
        assert!(miss_time >= MEM_LAT, "miss took {miss_time}");
        let t1 = c.now_cycles();
        let _ = c.load_u64(a); // L1 hit
        let hit_time = c.now_cycles() - t1;
        assert!(hit_time <= 8, "hit took {hit_time}");
    }

    #[test]
    fn l2_hit_latency_between_l1_and_memory() {
        let mut c = core();
        let a = c.alloc(64 * 1024, 64);
        // Fill beyond L1 (32 KiB) so early lines fall to L2 but stay within
        // L2 (512 KiB).
        c.stream_begin();
        for i in 0..1024 {
            let _ = c.load_u64(a + i * 64);
        }
        c.stream_end();
        c.fence();
        let t0 = c.now_cycles();
        let _ = c.load_u64(a); // evicted from L1, resident in L2
        let dt = c.now_cycles() - t0;
        assert!(dt > 8 && dt < MEM_LAT, "L2 hit took {dt}");
    }

    #[test]
    fn streaming_overlaps_misses() {
        let lines = 64u64;
        // Dependent chain.
        let mut c1 = core();
        let a = c1.alloc(lines * 64, 64);
        let t0 = c1.now_cycles();
        for i in 0..lines {
            let _ = c1.load_u64(a + i * 64);
        }
        let dependent = c1.now_cycles() - t0;
        // Streaming.
        let mut c2 = core();
        let b = c2.alloc(lines * 64, 64);
        let t0 = c2.now_cycles();
        c2.stream_begin();
        for i in 0..lines {
            let _ = c2.load_u64(b + i * 64);
        }
        c2.stream_end();
        c2.fence();
        let streaming = c2.now_cycles() - t0;
        assert!(
            streaming * 3 < dependent,
            "streaming {streaming} should be well under dependent {dependent}"
        );
    }

    #[test]
    fn mshr_limit_bounds_overlap() {
        // With bandwidth-limited memory, 1 MSHR must be slower than 6.
        let cfg1 = CoreConfig {
            mshrs: 1,
            ..CoreConfig::cortex_a57()
        };
        let cfg6 = CoreConfig {
            mshrs: 6,
            ..CoreConfig::cortex_a57()
        };
        let mut c1 = CoreModel::new(cfg1, FixedLatencyBackend::with_bandwidth(MEM_LAT, 10));
        let mut c6 = CoreModel::new(cfg6, FixedLatencyBackend::with_bandwidth(MEM_LAT, 10));
        for (c, out) in [(&mut c1, 0usize), (&mut c6, 1)] {
            let a = c.alloc(256 * 64, 64);
            c.stream_begin();
            for i in 0..256u64 {
                let _ = c.load_u64(a + i * 64);
            }
            c.stream_end();
            c.fence();
            let _ = out;
        }
        assert!(c6.now_cycles() < c1.now_cycles());
    }

    #[test]
    fn stores_do_not_stall() {
        let mut c = core();
        let a = c.alloc(64 * 64, 64);
        let t0 = c.now_cycles();
        for i in 0..6u64 {
            c.store_u64(a + i * 64, i); // 6 cold misses, 6 MSHRs
        }
        let dt = c.now_cycles() - t0;
        assert!(dt < MEM_LAT, "stores stalled: {dt}");
    }

    #[test]
    fn writebacks_reach_memory() {
        let mut c = core();
        // Touch far more lines than L1+L2 capacity, writing each.
        let total_lines = (512 * 1024 + 32 * 1024) / 64 * 2;
        let a = c.alloc(total_lines * 64, 64);
        for i in 0..total_lines {
            c.store_u64(a + i * 64, i);
        }
        c.fence();
        assert!(c.stats().mem_writes > 0, "dirty evictions must write back");
        // And the data survives: re-read the first line (long evicted).
        assert_eq!(c.load_u64(a), 0);
        assert_eq!(c.load_u64(a + 64), 1);
    }

    #[test]
    fn clflush_writes_dirty_line_and_invalidates() {
        let mut c = core();
        let a = c.alloc(64, 64);
        c.store_u64(a, 77);
        assert_eq!(c.backend().writes, 0);
        c.clflush(a);
        c.fence();
        assert_eq!(c.backend().writes, 1, "dirty line must be flushed");
        // Next load misses all the way to memory and sees the data.
        let t0 = c.now_cycles();
        assert_eq!(c.load_u64(a), 77);
        assert!(c.now_cycles() - t0 >= MEM_LAT);
    }

    #[test]
    fn clflush_clean_line_no_writeback() {
        let mut c = core();
        let a = c.alloc(64, 64);
        let _ = c.load_u64(a);
        c.clflush(a);
        c.fence();
        assert_eq!(c.backend().writes, 0);
    }

    #[test]
    fn fence_waits_for_outstanding() {
        let mut c = core();
        let a = c.alloc(64 * 8, 64);
        c.stream_begin();
        let _ = c.load_u64(a);
        c.stream_end();
        let before = c.now_cycles();
        c.fence();
        assert!(c.now_cycles() >= before.max(MEM_LAT));
        assert_eq!(c.stats().fences, 1);
    }

    #[test]
    fn compute_respects_ipc() {
        let mut c = core();
        let t0 = c.now_cycles();
        c.compute(1000); // IPC 2.0 -> 500 cycles
        assert_eq!(c.now_cycles() - t0, 500);
        assert_eq!(c.stats().instructions, 1000);
    }

    #[test]
    fn compute_carry_accumulates() {
        let cfg = CoreConfig {
            compute_ipc: 3.0,
            ..CoreConfig::cortex_a57()
        };
        let mut c = CoreModel::new(cfg, FixedLatencyBackend::new(1));
        for _ in 0..3 {
            c.compute(1);
        }
        assert_eq!(c.now_cycles(), 1, "3 ops at IPC 3 = 1 cycle");
    }

    #[test]
    fn compute_at_non_dyadic_ipc_rounds_each_op_up_by_under_2_pow_minus_32() {
        // 1/3 cycle per op is stored as ceil(2^32 / 3) / 2^32: 3 x 2^32 ops
        // are 2^32 whole cycles plus 3 x 2^32 x (2/3) / 2^32 = 2 more.
        let cfg = CoreConfig {
            compute_ipc: 3.0,
            ..CoreConfig::cortex_a57()
        };
        let mut c = CoreModel::new(cfg, FixedLatencyBackend::new(1));
        c.compute(3 << 32);
        assert_eq!(c.now_cycles(), (1 << 32) + 2);
    }

    /// IPC 2^-31, which `validate` accepts: an op costs 2^31 cycles.
    fn slowest_core() -> CoreModel<FixedLatencyBackend> {
        let cfg = CoreConfig {
            compute_ipc: 2f64.powi(-31),
            ..CoreConfig::cortex_a57()
        };
        CoreModel::new(cfg, FixedLatencyBackend::new(1))
    }

    #[test]
    #[should_panic(expected = "emulated clock overflow")]
    fn compute_past_the_clock_range_panics_instead_of_wrapping() {
        // 2^40 ops are 2^71 cycles; the clock used to keep the low 64 bits
        // of that, 0, and not move.
        slowest_core().compute(1 << 40);
    }

    #[test]
    #[should_panic(expected = "emulated clock overflow")]
    fn compute_that_carries_the_clock_past_its_range_panics() {
        // Each call alone fits: 2^32 ops are 2^63 cycles.
        let mut c = slowest_core();
        c.compute(1 << 32);
        assert_eq!(c.now_cycles(), 1 << 63);
        c.compute(1 << 32);
    }

    #[test]
    fn mmio_roundtrip_rounds_half_up_not_floor() {
        // 120 ns at 1.43 GHz is 171.6 cycles: the uniform half-up policy
        // says 172. The old truncating division charged 171.
        let mut c = core();
        assert_eq!(c.config().mmio_roundtrip_ns, 120);
        assert_eq!(c.config().freq_hz, 1_430_000_000);
        let t0 = c.now_cycles();
        let _ = c.rowclone_row(0, 8192); // Unsupported, but the MMIO poll is paid
        let dt = c.now_cycles() - t0;
        // issue_cost (1) + MMIO round-trip (172) + fence (nothing pending).
        assert_eq!(dt, 1 + 172, "MMIO cycles must round half-up");
    }

    #[test]
    fn full_but_stale_mshr_file_does_not_stall() {
        // Fill every MSHR with streaming misses, then advance time far past
        // their completion with compute. The next reservation must see the
        // slots as free: no stall, occupancy drops to the new request only.
        let mut c = core();
        let mshrs = c.config().mshrs;
        let a = c.alloc(64 * 64, 64);
        c.stream_begin();
        for i in 0..mshrs as u64 {
            let _ = c.load_u64(a + i * 64);
        }
        assert_eq!(c.mshr_occupancy(), mshrs, "MSHR file is full");
        c.compute(2 * MEM_LAT * 2); // IPC 2: advances well past every fill
        let stalls_before = c.stats().stall_cycles;
        c.store_u64(a + 64 * 63, 1); // store miss reserves an MSHR
        assert_eq!(
            c.stats().stall_cycles,
            stalls_before,
            "a stale-full MSHR file must not stall the core"
        );
        assert_eq!(c.mshr_occupancy(), 1, "stale entries retired in bulk");
        c.stream_end();
    }

    #[test]
    fn mshr_occupancy_never_exceeds_config() {
        let mut c = core();
        let mshrs = c.config().mshrs;
        let a = c.alloc(64 * 256, 64);
        c.stream_begin();
        for i in 0..256u64 {
            let _ = c.load_u64(a + i * 64);
            assert!(c.mshr_occupancy() <= mshrs);
        }
        c.stream_end();
        for i in 0..256u64 {
            c.clflush(a + i * 64);
            assert!(c.mshr_occupancy() <= mshrs, "clflush path respects MSHRs");
        }
        c.fence();
        assert_eq!(c.mshr_occupancy(), 0, "fence drains the MSHR file");
    }

    #[test]
    fn rowclone_unsupported_on_plain_backend() {
        let mut c = core();
        assert_eq!(c.rowclone_row(0, 8192), RowCloneStatus::Unsupported);
        assert_eq!(c.stats().rowclone_requests, 1);
        assert_eq!(c.stats().rowclone_copies, 0);
    }

    #[test]
    fn llc_only_hierarchy_works() {
        let mut c = CoreModel::new(
            CoreConfig::ramulator_ooo(),
            FixedLatencyBackend::new(MEM_LAT),
        );
        let a = c.alloc(4096, 64);
        c.store_u64(a, 9);
        assert_eq!(c.load_u64(a), 9);
        assert!(c.l1_stats().is_none());
        assert!(c.l2_stats().is_some());
    }

    #[test]
    fn direct_mapped_l2_swaps_promoted_line_with_dirty_victim() {
        // One L1 set over one L2 set of one way: promoting `b` out of the
        // L2 evicts dirty `a` from the L1 into the only L2 way there is,
        // the one `b` is leaving.
        let one_set = |ways| CacheConfig {
            size_bytes: 64 * ways,
            ways,
            hit_latency_cycles: 1,
        };
        let cfg = CoreConfig {
            l1: Some(one_set(1)),
            l2: Some(one_set(1)),
            ..CoreConfig::cortex_a57()
        };
        let mut c = CoreModel::new(cfg, FixedLatencyBackend::new(MEM_LAT));
        let (a, b) = (c.alloc(64, 64), c.alloc(64, 64));
        c.store_u64(b, 22); // b dirty in L1
        c.store_u64(a, 11); // a dirty in L1; b spilled, dirty, into L2
        let reads = c.stats().mem_reads;
        assert_eq!(c.load_u64(b), 22, "b comes back from the L2");
        assert_eq!(c.load_u64(a), 11, "a went to the way b left");
        assert_eq!(c.stats().mem_reads, reads, "both were L2 hits");
        assert_eq!(c.l2_stats().unwrap().hits, 2);
        // b's dirty L2 copy was written back when a took its way.
        c.fence();
        assert_eq!(c.backend().writes, 1);
        c.clflush(a);
        c.clflush(b);
        c.fence();
        assert_eq!((c.load_u64(a), c.load_u64(b)), (11, 22));
    }

    #[test]
    #[should_panic(expected = "crosses a cache line")]
    fn line_crossing_access_rejected() {
        let mut c = core();
        let _ = c.load(60, 8);
    }

    #[test]
    #[should_panic(expected = "must be 1, 2, 4, or 8")]
    fn bad_size_rejected() {
        let mut c = core();
        let _ = c.load(0, 3);
    }

    #[test]
    fn stats_track_memory_traffic() {
        let mut c = core();
        let a = c.alloc(64 * 10, 64);
        for i in 0..10u64 {
            let _ = c.load_u64(a + i * 64);
        }
        assert_eq!(c.stats().mem_reads, 10);
        assert_eq!(c.stats().loads, 10);
        let l1 = c.l1_stats().unwrap();
        assert_eq!(l1.misses, 10);
    }
}
