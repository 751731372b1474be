//! Property-based tests for the cache hierarchy and core model.

use proptest::prelude::*;

use easydram_cpu::backend::{LineFetch, MemoryBackend};
use easydram_cpu::cache::CacheLevelStats;
use easydram_cpu::{
    Cache, CacheConfig, CoreConfig, CoreModel, CpuApi, Eviction, FixedLatencyBackend, LineStore,
};

/// A fixed-latency backend with an explicit posted-write buffer, so tests
/// can observe whether fences really drain the pending stream.
struct BufferedBackend {
    inner: FixedLatencyBackend,
    pending: Vec<(u64, [u8; 64], u64)>,
}

impl BufferedBackend {
    fn new(latency: u64) -> Self {
        Self {
            inner: FixedLatencyBackend::new(latency),
            pending: Vec::new(),
        }
    }

    fn flush_pending(&mut self, issue_cycle: u64) -> u64 {
        let mut last = issue_cycle;
        for (addr, data, posted) in self.pending.drain(..) {
            last = last.max(self.inner.post_write(addr, data, posted.max(issue_cycle)));
        }
        last
    }
}

impl MemoryBackend for BufferedBackend {
    fn read_line(&mut self, line_addr: u64, issue_cycle: u64) -> LineFetch {
        // Reads must observe every posted write: drain first.
        self.flush_pending(issue_cycle);
        self.inner.read_line(line_addr, issue_cycle)
    }

    fn post_write(&mut self, line_addr: u64, data: [u8; 64], issue_cycle: u64) -> u64 {
        self.pending.push((line_addr, data, issue_cycle));
        issue_cycle
    }

    fn drain_writes(&mut self, issue_cycle: u64) -> u64 {
        self.flush_pending(issue_cycle)
    }

    fn alloc(&mut self, bytes: u64, align: u64) -> u64 {
        self.inner.alloc(bytes, align)
    }

    fn capacity_bytes(&self) -> u64 {
        self.inner.capacity_bytes()
    }
}

proptest! {
    /// The cache never lies: a sequence of inserts, writes, lookups and
    /// invalidations agrees with a shadow that keeps each set as a recency
    /// list, down to which line every insertion evicts.
    #[test]
    fn cache_matches_shadow_model(
        ops in prop::collection::vec((0u64..64, 0u8..6, any::<u8>()), 1..300),
    ) {
        const WAYS: usize = 2;
        const SETS: u64 = 8;
        let mut cache = Cache::new(CacheConfig { size_bytes: 1024, ways: 2, hit_latency_cycles: 1 });
        // Resident lines as address → (bytes, dirty), and each set's
        // addresses from least to most recently used.
        let mut lines: std::collections::BTreeMap<u64, ([u8; 64], bool)> = Default::default();
        let mut recency: Vec<Vec<u64>> = vec![Vec::new(); SETS as usize];
        let mut stats = CacheLevelStats::default();
        for (slot, op, val) in ops {
            let addr = slot * 64;
            let set = &mut recency[(slot % SETS) as usize];
            let resident = lines.contains_key(&addr);
            // Every hit, write and insertion makes its line the set's newest.
            if resident && op != 4 {
                set.retain(|&a| a != addr);
                set.push(addr);
            }
            match op {
                0 | 1 => {
                    // Insert, dirty or clean, with a distinctive payload.
                    let dirty = op == 0;
                    let expected = if resident || set.len() < WAYS {
                        // In place, or into a free way (an invalidated one
                        // included): nothing leaves.
                        None
                    } else {
                        let victim = set.remove(0);
                        let (data, dirty) = lines.remove(&victim).unwrap();
                        stats.dirty_evictions += u64::from(dirty);
                        Some(Eviction { line_addr: victim, data, dirty })
                    };
                    prop_assert_eq!(cache.insert(addr, [val; 64], dirty), expected);
                    if !resident {
                        set.push(addr);
                    }
                    lines.insert(addr, ([val; 64], dirty));
                }
                2 => {
                    prop_assert_eq!(cache.write_hit(addr, 3, &[val]), resident);
                    if let Some((data, dirty)) = lines.get_mut(&addr) {
                        data[3] = val;
                        *dirty = true;
                    }
                }
                4 => {
                    let expected = lines
                        .remove(&addr)
                        .map(|(data, dirty)| Eviction { line_addr: addr, data, dirty });
                    set.retain(|&a| a != addr);
                    prop_assert_eq!(cache.invalidate(addr), expected);
                }
                _ => {
                    if resident {
                        stats.hits += 1;
                    } else {
                        stats.misses += 1;
                    }
                    prop_assert_eq!(cache.lookup(addr), lines.get(&addr).map(|(data, _)| data));
                }
            }
            prop_assert_eq!(cache.resident_lines(), lines.len());
            prop_assert_eq!(cache.stats(), &stats);
        }
    }

    /// `LineStore` agrees with an ordered-map shadow under random writes,
    /// reads and row copies on a sparse address range.
    #[test]
    fn line_store_matches_shadow_map(
        ops in prop::collection::vec((0u8..4, 0u64..512, 0u64..512, any::<u8>()), 1..200),
    ) {
        // Eight one-page regions 35 pages apart: slots share pages, the
        // pages in between are never written, and an 8 KiB row reaches from
        // a region into such a page.
        let addr = |slot: u64| (slot >> 6) * 0x2_3000 + (slot & 63) * 64;
        let get = |shadow: &std::collections::BTreeMap<u64, [u8; 64]>, a: u64| {
            shadow.get(&a).copied().unwrap_or([0; 64])
        };
        let mut store = LineStore::new();
        let mut shadow = std::collections::BTreeMap::new();
        for (op, a, b, val) in ops {
            match op {
                0 => {
                    store.write(addr(a), [val; 64]);
                    shadow.insert(addr(a), [val; 64]);
                }
                1 => prop_assert_eq!(
                    store.read(addr(a) + u64::from(val) % 64),
                    get(&shadow, addr(a)),
                    "any byte address names its line"
                ),
                _ => {
                    // 1 KiB rows put source and destination in one page,
                    // 8 KiB rows span two.
                    let rb = if op == 2 { 1024 } else { 8192 };
                    store.copy_row(addr(a), addr(b), rb);
                    let (src, dst) = (addr(a) / rb * rb, addr(b) / rb * rb);
                    for off in (0..rb).step_by(64) {
                        let line = get(&shadow, src + off);
                        shadow.insert(dst + off, line);
                    }
                }
            }
        }
        for slot in 0..512 {
            prop_assert_eq!(store.read(addr(slot)), get(&shadow, addr(slot)), "slot {}", slot);
        }
        for (&a, line) in &shadow {
            prop_assert_eq!(&store.read(a), line, "line {:#x}", a);
        }
    }

    /// Arbitrary store/load sequences through the full hierarchy return the
    /// last written value (data correctness under evictions and MLP).
    #[test]
    fn hierarchy_is_coherent(
        writes in prop::collection::vec((0u64..4096, any::<u64>()), 1..300),
        stream in any::<bool>(),
    ) {
        let mut core = CoreModel::new(
            CoreConfig {
                l1: Some(CacheConfig { size_bytes: 1024, ways: 2, hit_latency_cycles: 1 }),
                l2: Some(CacheConfig { size_bytes: 4096, ways: 4, hit_latency_cycles: 4 }),
                ..CoreConfig::cortex_a57()
            },
            FixedLatencyBackend::new(50),
        );
        let base = core.alloc(4096 * 8, 64);
        let mut shadow = std::collections::BTreeMap::new();
        if stream {
            core.stream_begin();
        }
        for (slot, val) in writes {
            core.store_u64(base + slot * 8, val);
            shadow.insert(slot, val);
        }
        core.fence();
        for (slot, val) in shadow {
            prop_assert_eq!(core.load_u64(base + slot * 8), val, "slot {}", slot);
        }
    }

    /// Under random mixed load/store/clflush/fence/stream sequences, the
    /// MSHR file never exceeds its configured capacity, a fence always
    /// leaves the outstanding set empty with the posted-write stream
    /// drained, and stall cycles grow monotonically.
    #[test]
    fn mshr_and_fence_invariants_hold_under_random_ops(
        mshrs in 1usize..8,
        ops in prop::collection::vec((0u8..6, 0u64..512, 1u64..64), 1..250),
    ) {
        let cfg = CoreConfig {
            mshrs,
            l1: Some(CacheConfig { size_bytes: 1024, ways: 2, hit_latency_cycles: 1 }),
            l2: Some(CacheConfig { size_bytes: 4096, ways: 4, hit_latency_cycles: 4 }),
            ..CoreConfig::cortex_a57()
        };
        let mut core = CoreModel::new(cfg, BufferedBackend::new(40));
        let base = core.alloc(512 * 64, 64);
        let mut last_stalls = 0;
        for (op, slot, n) in ops {
            match op {
                0 => { let _ = core.load_u64(base + slot * 8 % (512 * 64 - 8)); }
                1 => core.store_u64(base + slot * 8 % (512 * 64 - 8), slot),
                2 => core.compute(n),
                3 => core.clflush(base + slot * 64 % (512 * 64)),
                4 => core.fence(),
                _ => if slot % 2 == 0 { core.stream_begin() } else { core.stream_end() },
            }
            prop_assert!(
                core.mshr_occupancy() <= mshrs,
                "MSHR occupancy {} exceeded the configured {} after op {}",
                core.mshr_occupancy(), mshrs, op
            );
            prop_assert!(core.stats().stall_cycles >= last_stalls, "stalls are monotone");
            last_stalls = core.stats().stall_cycles;
        }
        core.fence();
        prop_assert_eq!(core.mshr_occupancy(), 0, "fence empties the MSHR file");
        prop_assert!(
            core.backend().pending.is_empty(),
            "fence drains the posted-write stream"
        );
    }

    /// `compute`'s fixed-point accumulator charges exactly what the `f64`
    /// divide-and-carry it replaced did, op by op, whenever the IPC is a
    /// power of two (every preset's is).
    #[test]
    fn compute_matches_the_f64_expression_it_replaced(
        ipc_log2 in 0i32..4,
        bundles in prop::collection::vec((any::<bool>(), 0u64..1 << 40), 1..200),
    ) {
        let ipc = 2f64.powi(ipc_log2 - 1); // 0.5, 1, 2, 4
        let cfg = CoreConfig { compute_ipc: ipc, ..CoreConfig::cortex_a57() };
        let mut core = CoreModel::new(cfg, FixedLatencyBackend::new(1));
        let (mut now, mut carry) = (0u64, 0f64);
        for (small, ops) in bundles {
            // Loop bodies are a handful of ops; whole phases are billions.
            let ops = if small { ops % 16 } else { ops };
            core.compute(ops);
            // The old `CoreModel::compute`, kept as the oracle.
            let cycles = ops as f64 / ipc + carry;
            let whole = cycles as u64;
            carry = cycles - whole as f64;
            now += whole;
            prop_assert_eq!(core.now_cycles(), now, "after {} ops at IPC {}", ops, ipc);
        }
    }

    /// Time is monotone and instructions are conserved across any op mix.
    #[test]
    fn time_and_instructions_are_monotone(
        ops in prop::collection::vec((0u8..4, 0u64..512, 1u64..64), 1..100),
    ) {
        let mut core = CoreModel::new(CoreConfig::cortex_a57(), FixedLatencyBackend::new(25));
        let base = core.alloc(512 * 64, 64);
        let mut last_now = 0;
        let mut last_instr = 0;
        for (op, slot, n) in ops {
            match op {
                0 => { let _ = core.load_u64(base + slot * 8 % (512 * 64 - 8)); }
                1 => core.store_u64(base + slot * 8 % (512 * 64 - 8), slot),
                2 => core.compute(n),
                _ => core.clflush(base + slot * 64 % (512 * 64)),
            }
            prop_assert!(core.now_cycles() >= last_now);
            prop_assert!(core.stats().instructions >= last_instr);
            last_now = core.now_cycles();
            last_instr = core.stats().instructions;
        }
    }
}
