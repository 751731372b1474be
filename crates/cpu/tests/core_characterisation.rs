//! Characterisation of [`CoreModel`] and its cache hierarchy: one seeded
//! 200k-op stream over every [`CpuApi`] operation, run on five hierarchies
//! and digested into a single constant.
//!
//! The digest was recorded before `Cache` split its tags from its data and
//! the core stopped moving lines by value; any change to it means the core
//! now computes something else (a value, a cycle count, a victim, a
//! writeback).

#[path = "../../../tests/support/fnv.rs"]
mod fnv;

use easydram_cpu::cache::CacheLevelStats;
use easydram_cpu::{
    CacheConfig, CoreConfig, CoreModel, CoreStats, CpuApi, FixedLatencyBackend, RowCloneStatus,
};
use fnv::Digest;

impl Digest {
    fn stats(&mut self, s: &CoreStats) {
        for x in [
            s.instructions,
            s.loads,
            s.stores,
            s.clflushes,
            s.fences,
            s.mem_reads,
            s.mem_writes,
            s.rowclone_requests,
            s.rowclone_copies,
            s.stall_cycles,
        ] {
            self.word(x);
        }
    }
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const OPS: u64 = 200_000;
/// The touched range: four times the Cortex-A57 L2, so the widest accesses
/// keep evicting from it.
const RANGE_BYTES: u64 = 2 << 20;
/// Accesses pick one of five nested regions with equal probability: the
/// first two fit the small hierarchy's L1 and L2, the next two the
/// Cortex-A57's, and the whole range fits nothing.
const REGION_BYTES: [u64; 5] = [512, 3 << 10, 24 << 10, 256 << 10, RANGE_BYTES];

struct Stream {
    core: CoreModel<FixedLatencyBackend>,
    base: u64,
    rng: u64,
    digest: Digest,
}

impl Stream {
    fn rand(&mut self, n: u64) -> u64 {
        self.rng = splitmix64(self.rng);
        self.rng % n
    }

    /// A line in one of the five regions.
    fn line(&mut self) -> u64 {
        let region = REGION_BYTES[self.rand(5) as usize];
        self.base + self.rand(region / 64) * 64
    }

    /// An access of `size` bytes anywhere in a line, unaligned included.
    fn span(&mut self) -> (u64, u8) {
        let size = 1u8 << self.rand(4);
        let line = self.line();
        (line + self.rand(65 - u64::from(size)), size)
    }

    /// Folds the clock and every counter; returns the cache levels' own.
    fn counters(&mut self) -> [Option<CacheLevelStats>; 2] {
        self.digest.word(self.core.now_cycles());
        let stats = *self.core.stats();
        self.digest.stats(&stats);
        let levels = [self.core.l1_stats(), self.core.l2_stats()];
        for level in levels {
            match level {
                Some(l) => {
                    for x in [1, l.hits, l.misses, l.dirty_evictions] {
                        self.digest.word(x);
                    }
                }
                None => self.digest.word(0),
            }
        }
        assert_eq!(stats.mem_reads, self.core.backend().reads);
        assert_eq!(stats.mem_writes, self.core.backend().writes);
        self.digest.word(self.core.backend().reads);
        self.digest.word(self.core.backend().writes);
        levels
    }

    fn op(&mut self) {
        match self.rand(64) {
            0..=24 => {
                let (addr, size) = self.span();
                let value = self.core.load(addr, size);
                self.digest.word(value);
            }
            25..=46 => {
                let (addr, size) = self.span();
                let value = self.rand(u64::MAX);
                self.core.store(addr, size, value);
            }
            47..=53 => {
                let ops = self.rand(40);
                self.core.compute(ops);
            }
            54..=58 => {
                let addr = self.line() + self.rand(64);
                self.core.clflush(addr);
            }
            59 => self.core.fence(),
            60 => self.core.stream_begin(),
            61..=62 => self.core.stream_end(),
            _ => {
                let (src, dst) = (self.rand(256) * 8_192, self.rand(256) * 8_192);
                let status = self.core.rowclone_row(self.base + src, self.base + dst);
                self.digest
                    .word(u64::from(status == RowCloneStatus::Unsupported));
            }
        }
        self.digest.word(self.core.now_cycles());
        self.digest.word(self.core.mshr_occupancy() as u64);
    }
}

fn tiny(size_bytes: u32, ways: u32, hit_latency_cycles: u64) -> Option<CacheConfig> {
    Some(CacheConfig {
        size_bytes,
        ways,
        hit_latency_cycles,
    })
}

#[test]
fn core_and_cache_digest_is_unchanged() {
    let hierarchies = [
        CoreConfig::cortex_a57(),
        // L2 only.
        CoreConfig::ramulator_ooo(),
        CoreConfig {
            l1: None,
            l2: None,
            ..CoreConfig::cortex_a57()
        },
        // Small enough that evictions, dirty L1 → L2 spills and L2
        // writebacks happen on most ops.
        CoreConfig {
            l1: tiny(1024, 2, 2),
            l2: tiny(4096, 4, 9),
            mshrs: 3,
            ..CoreConfig::pidram_50mhz()
        },
        // A direct-mapped L2: the dirty L1 victim of a promotion can land
        // on the very L2 way the promoted line is leaving.
        CoreConfig {
            l1: tiny(1024, 2, 2),
            l2: tiny(2048, 1, 9),
            ..CoreConfig::cortex_a57()
        },
    ];
    let mut digest = Digest::default();
    for cfg in hierarchies {
        let (has_l1, has_l2) = (cfg.l1.is_some(), cfg.l2.is_some());
        let mut core = CoreModel::new(cfg, FixedLatencyBackend::with_bandwidth(90, 7));
        let base = core.alloc(RANGE_BYTES, 8_192);
        let mut s = Stream {
            core,
            base,
            rng: 0x00EA_5D4A_2025,
            digest,
        };
        for _ in 0..OPS {
            s.op();
        }
        let stats = *s.core.stats();
        let levels = s.counters();
        // What the hierarchy holds, read back through it.
        s.core.stream_end();
        s.core.fence();
        for word in 0..RANGE_BYTES / 8 {
            let value = s.core.load(base + word * 8, 8);
            s.digest.word(value);
        }
        s.counters();
        // The stream reached every path it exists to pin.
        assert!(stats.rowclone_requests > 1_000, "{stats}");
        assert!(stats.clflushes > 10_000 && stats.fences > 1_000, "{stats}");
        assert!(
            stats.mem_reads > 10_000 && stats.mem_writes > 10_000,
            "{stats}"
        );
        for level in levels.into_iter().flatten() {
            assert!(level.hits > 5_000 && level.misses > 10_000, "{level:?}");
            assert!(level.dirty_evictions > 1_000, "{level:?}");
        }
        assert_eq!(levels[0].is_some(), has_l1);
        assert_eq!(levels[1].is_some(), has_l2);
        digest = s.digest;
    }
    assert_eq!(digest.0, 0x1AF0_2607_7556_53CA, "characterisation digest");
}
