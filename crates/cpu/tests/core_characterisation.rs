//! Characterisation of [`CoreModel`] and its cache hierarchy: one seeded
//! 200k-op stream over every [`CpuApi`] operation, run on five hierarchies
//! and digested into a single constant.
//!
//! The digest was recorded before `Cache` split its tags from its data and
//! the core stopped moving lines by value; any change to it means the core
//! now computes something else (a value, a cycle count, a victim, a
//! writeback).
//!
//! Kernels do not call `load(addr, size)`: they call the typed accessors
//! (`load_f64`, `store_u64`, ...) on `&mut dyn CpuApi`, whose default bodies
//! are where the core's inlined hit path lands. The second test drives a twin
//! core that way, op for op beside the first, and holds the two equal.

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
    /// A twin of `core` driven the way kernels drive a core, through
    /// `&mut dyn CpuApi` and its typed accessors; equal to `core` after
    /// every op.
    typed: Option<CoreModel<FixedLatencyBackend>>,
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

    /// Applies one op to `core` and to the twin, if there is one, and
    /// checks that both return the same.
    fn each<T: PartialEq + std::fmt::Debug>(&mut self, op: impl Fn(&mut dyn CpuApi) -> T) -> T {
        let out = op(&mut self.core);
        if let Some(typed) = &mut self.typed {
            assert_eq!(op(typed), out, "the twins disagree");
        }
        out
    }

    fn load(&mut self, addr: u64, size: u8) -> u64 {
        let value = self.core.load(addr, size);
        if let Some(typed) = &mut self.typed {
            assert_eq!(
                load_typed(typed, addr, size),
                value,
                "load {addr:#x} size {size}"
            );
        }
        value
    }

    /// Holds the twin equal to `core` in every counter, and folds the cache
    /// levels' counters, which the plain stream digests only at its end.
    fn check_twin(&mut self) {
        let Some(typed) = &self.typed else {
            return;
        };
        let core = &self.core;
        assert_eq!(typed.now_cycles(), core.now_cycles());
        assert_eq!(typed.mshr_occupancy(), core.mshr_occupancy());
        assert_eq!(typed.stats(), core.stats());
        let levels = [core.l1_stats(), core.l2_stats()];
        assert_eq!([typed.l1_stats(), typed.l2_stats()], levels);
        assert_eq!(typed.backend().reads, core.backend().reads);
        assert_eq!(typed.backend().writes, core.backend().writes);
        for l in levels.into_iter().flatten() {
            for x in [l.hits, l.misses, l.dirty_evictions] {
                self.digest.word(x);
            }
        }
    }

    fn op(&mut self) {
        match self.rand(64) {
            0..=24 => {
                let (addr, size) = self.span();
                let value = self.load(addr, size);
                self.digest.word(value);
            }
            25..=46 => {
                let (addr, size) = self.span();
                let value = self.rand(u64::MAX);
                self.core.store(addr, size, value);
                if let Some(typed) = &mut self.typed {
                    store_typed(typed, addr, size, value);
                }
            }
            47..=53 => {
                let ops = self.rand(40);
                self.each(|c| c.compute(ops));
            }
            54..=58 => {
                let addr = self.line() + self.rand(64);
                self.each(|c| c.clflush(addr));
            }
            59 => self.each(|c| c.fence()),
            60 => self.each(|c| c.stream_begin()),
            61..=62 => self.each(|c| c.stream_end()),
            _ => {
                let (src, dst) = (self.rand(256) * 8_192, self.rand(256) * 8_192);
                let (src, dst) = (self.base + src, self.base + dst);
                let status = self.each(|c| c.rowclone_row(src, dst));
                self.digest
                    .word(u64::from(status == RowCloneStatus::Unsupported));
            }
        }
        self.digest.word(self.core.now_cycles());
        self.digest.word(self.core.mshr_occupancy() as u64);
        self.check_twin();
    }
}

/// `load(addr, size)` as a kernel writes it: the typed accessor for the
/// size, with 8-byte loads split between `u64` and `f64` by address. No
/// accessor reads 2 bytes; those go through `load` on the trait object.
fn load_typed(cpu: &mut dyn CpuApi, addr: u64, size: u8) -> u64 {
    match size {
        1 => u64::from(cpu.load_u8(addr)),
        4 => u64::from(cpu.load_f32(addr).to_bits()),
        8 if addr & 8 == 0 => cpu.load_u64(addr),
        8 => cpu.load_f64(addr).to_bits(),
        _ => cpu.load(addr, size),
    }
}

/// [`load_typed`]'s counterpart for stores.
fn store_typed(cpu: &mut dyn CpuApi, addr: u64, size: u8, value: u64) {
    match size {
        1 => cpu.store_u8(addr, value as u8),
        4 => cpu.store_f32(addr, f32::from_bits(value as u32)),
        8 if addr & 8 == 0 => cpu.store_u64(addr, value),
        8 => cpu.store_f64(addr, f64::from_bits(value)),
        _ => cpu.store(addr, size, value),
    }
}

fn tiny(size_bytes: u32, ways: u32, hit_latency_cycles: u64) -> Option<CacheConfig> {
    Some(CacheConfig {
        size_bytes,
        ways,
        hit_latency_cycles,
    })
}

/// Runs the stream on every hierarchy and returns its digest. With `typed`,
/// each core has a twin driven through the typed accessors beside it.
fn run(typed: bool) -> u64 {
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
        let backend = FixedLatencyBackend::with_bandwidth(90, 7);
        let mut core = CoreModel::new(cfg.clone(), backend.clone());
        let base = core.alloc(RANGE_BYTES, 8_192);
        let typed = typed.then(|| {
            let mut twin = CoreModel::new(cfg, backend);
            assert_eq!(twin.alloc(RANGE_BYTES, 8_192), base);
            twin
        });
        let mut s = Stream {
            core,
            typed,
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
        s.each(|c| c.stream_end());
        s.each(|c| c.fence());
        for word in 0..RANGE_BYTES / 8 {
            let value = s.load(base + word * 8, 8);
            s.digest.word(value);
        }
        s.counters();
        s.check_twin();
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
    digest.0
}

#[test]
fn core_and_cache_digest_is_unchanged() {
    assert_eq!(run(false), 0x1AF0_2607_7556_53CA, "characterisation digest");
}

/// The same stream through `&mut dyn CpuApi`'s typed accessors, which is
/// how every kernel reaches the core: every value, cycle and counter, the
/// cache levels' included, equals the twin's after every op. The digest was
/// recorded while `load` and `store` were still one body each.
#[test]
fn typed_accessors_match_sized_access() {
    assert_eq!(run(true), 0x4BE9_463C_BF1E_A32F, "typed-accessor digest");
}
