//! Property-based tests for the cache hierarchy and core model.

use proptest::prelude::*;

use easydram_cpu::backend::{LineFetch, MemoryBackend};
use easydram_cpu::{
    Cache, CacheConfig, CoreConfig, CoreModel, CpuApi, FixedLatencyBackend, LineStore,
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
    /// The cache never lies: a sequence of inserts/writes/lookups agrees
    /// with a naive shadow model.
    #[test]
    fn cache_matches_shadow_model(
        ops in prop::collection::vec((0u64..64, 0u8..3, any::<u8>()), 1..200),
    ) {
        let mut cache = Cache::new(CacheConfig { size_bytes: 1024, ways: 2, hit_latency_cycles: 1 });
        let mut shadow: std::collections::BTreeMap<u64, [u8; 64]> = Default::default();
        let mut resident: std::collections::BTreeSet<u64> = Default::default();
        for (slot, op, val) in ops {
            let addr = slot * 64;
            match op {
                0 => {
                    // Insert with a distinctive payload.
                    let line = [val; 64];
                    if let Some(ev) = cache.insert(addr, line, true) {
                        prop_assert!(resident.remove(&ev.line_addr), "evicted non-resident line");
                        // The evicted data must match the shadow contents.
                        prop_assert_eq!(&ev.data, shadow.get(&ev.line_addr).unwrap());
                    }
                    shadow.insert(addr, line);
                    resident.insert(addr);
                }
                1 => {
                    let hit = cache.write_hit(addr, 3, &[val]);
                    prop_assert_eq!(hit, resident.contains(&addr));
                    if hit {
                        shadow.get_mut(&addr).unwrap()[3] = val;
                    }
                }
                _ => {
                    let got = cache.lookup(addr);
                    prop_assert_eq!(got.is_some(), resident.contains(&addr));
                    if let Some(data) = got {
                        prop_assert_eq!(&data, shadow.get(&addr).unwrap());
                    }
                }
            }
            prop_assert!(cache.resident_lines() <= 16, "capacity exceeded");
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
