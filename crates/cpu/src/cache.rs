//! A data-carrying set-associative cache with true-LRU replacement.

use crate::LINE_BYTES;

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u32,
    /// Associativity.
    pub ways: u32,
    /// Load-to-use latency of a hit in this level, in core cycles.
    pub hit_latency_cycles: u64,
}

impl CacheConfig {
    /// 32 KiB, 4-way, 4-cycle L1D (Cortex-A57-class).
    #[must_use]
    pub fn l1d_32k() -> Self {
        Self {
            size_bytes: 32 * 1024,
            ways: 4,
            hit_latency_cycles: 4,
        }
    }

    /// 512 KiB, 16-way, 21-cycle L2 (the EasyDRAM system's L2, paper §6).
    #[must_use]
    pub fn l2_512k() -> Self {
        Self {
            size_bytes: 512 * 1024,
            ways: 16,
            hit_latency_cycles: 21,
        }
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> u32 {
        self.size_bytes / (self.ways * LINE_BYTES as u32)
    }
}

/// A dirty or clean line pushed out of the cache by an insertion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Eviction {
    /// 64-byte-aligned address of the victim line.
    pub line_addr: u64,
    /// Victim data.
    pub data: [u8; LINE_BYTES],
    /// Whether the victim was modified and must be written downstream.
    pub dirty: bool,
}

#[derive(Debug, Clone)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    lru: u64,
    data: [u8; LINE_BYTES],
}

impl Default for Line {
    fn default() -> Self {
        Self {
            tag: 0,
            valid: false,
            dirty: false,
            lru: 0,
            data: [0; LINE_BYTES],
        }
    }
}

/// Per-level hit/miss statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheLevelStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Dirty evictions produced by insertions.
    pub dirty_evictions: u64,
}

/// One cache level holding real line data.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    sets: Vec<Line>,
    n_sets: u32,
    tick: u64,
    stats: CacheLevelStats,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration does not yield a power-of-two set count.
    #[must_use]
    pub fn new(cfg: CacheConfig) -> Self {
        let n_sets = cfg.sets();
        assert!(
            n_sets.is_power_of_two(),
            "set count {n_sets} must be a power of two"
        );
        Self {
            sets: vec![Line::default(); (n_sets * cfg.ways) as usize],
            n_sets,
            cfg,
            tick: 0,
            stats: CacheLevelStats::default(),
        }
    }

    /// The level's configuration.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &CacheLevelStats {
        &self.stats
    }

    fn set_of(&self, line_addr: u64) -> (usize, u64) {
        let idx = (line_addr >> 6) % u64::from(self.n_sets);
        let tag = (line_addr >> 6) / u64::from(self.n_sets);
        (idx as usize * self.cfg.ways as usize, tag)
    }

    fn find(&mut self, line_addr: u64) -> Option<usize> {
        let (base, tag) = self.set_of(line_addr);
        (base..base + self.cfg.ways as usize)
            .find(|&i| self.sets[i].valid && self.sets[i].tag == tag)
    }

    /// Looks up a line, updating LRU and hit/miss statistics.
    ///
    /// Returns a copy of the data on a hit.
    pub fn lookup(&mut self, line_addr: u64) -> Option<[u8; LINE_BYTES]> {
        self.tick += 1;
        let tick = self.tick;
        match self.find(line_addr) {
            Some(i) => {
                self.sets[i].lru = tick;
                self.stats.hits += 1;
                Some(self.sets[i].data)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Whether the line is present, without touching LRU or statistics.
    #[must_use]
    pub fn contains(&self, line_addr: u64) -> bool {
        let (base, tag) = self.set_of(line_addr);
        (base..base + self.cfg.ways as usize).any(|i| self.sets[i].valid && self.sets[i].tag == tag)
    }

    /// Overwrites bytes within a resident line and marks it dirty.
    ///
    /// Returns `false` when the line is not resident (statistics untouched).
    pub fn write_hit(&mut self, line_addr: u64, offset: usize, bytes: &[u8]) -> bool {
        self.tick += 1;
        let tick = self.tick;
        match self.find(line_addr) {
            Some(i) => {
                self.sets[i].lru = tick;
                self.sets[i].dirty = true;
                self.sets[i].data[offset..offset + bytes.len()].copy_from_slice(bytes);
                true
            }
            None => false,
        }
    }

    /// Inserts a line (fetched from downstream), evicting the set's LRU
    /// victim if necessary.
    pub fn insert(
        &mut self,
        line_addr: u64,
        data: [u8; LINE_BYTES],
        dirty: bool,
    ) -> Option<Eviction> {
        self.tick += 1;
        let tick = self.tick;
        let (base, tag) = self.set_of(line_addr);
        let ways = self.cfg.ways as usize;
        // Reuse an existing copy or an invalid way; otherwise evict LRU.
        let mut victim = base;
        let mut best_lru = u64::MAX;
        for i in base..base + ways {
            if self.sets[i].valid && self.sets[i].tag == tag {
                victim = i;
                break;
            }
            if !self.sets[i].valid {
                if best_lru > 0 {
                    victim = i;
                    best_lru = 0;
                }
            } else if self.sets[i].lru < best_lru {
                victim = i;
                best_lru = self.sets[i].lru;
            }
        }
        let evicted = if self.sets[victim].valid && self.sets[victim].tag != tag {
            let v = &self.sets[victim];
            let victim_addr =
                (v.tag * u64::from(self.n_sets) + (line_addr >> 6) % u64::from(self.n_sets)) << 6;
            let ev = Eviction {
                line_addr: victim_addr,
                data: v.data,
                dirty: v.dirty,
            };
            if ev.dirty {
                self.stats.dirty_evictions += 1;
            }
            Some(ev)
        } else {
            None
        };
        self.sets[victim] = Line {
            tag,
            valid: true,
            dirty,
            lru: tick,
            data,
        };
        evicted
    }

    /// Removes a line, returning it (for flushes).
    pub fn invalidate(&mut self, line_addr: u64) -> Option<Eviction> {
        let i = self.find(line_addr)?;
        let line = &mut self.sets[i];
        line.valid = false;
        Some(Eviction {
            line_addr,
            data: line.data,
            dirty: line.dirty,
        })
    }

    /// Number of valid lines currently resident.
    #[must_use]
    pub fn resident_lines(&self) -> usize {
        self.sets.iter().filter(|l| l.valid).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 8 sets x 2 ways x 64B = 1 KiB
        Cache::new(CacheConfig {
            size_bytes: 1024,
            ways: 2,
            hit_latency_cycles: 2,
        })
    }

    fn line(v: u8) -> [u8; LINE_BYTES] {
        [v; LINE_BYTES]
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert_eq!(c.lookup(0x1000), None);
        assert!(c.insert(0x1000, line(7), false).is_none());
        assert_eq!(c.lookup(0x1000), Some(line(7)));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Three lines mapping to the same set (stride = sets * 64 = 512).
        c.insert(0x0000, line(1), false);
        c.insert(0x0200, line(2), false);
        // Touch the first so the second is LRU.
        assert!(c.lookup(0x0000).is_some());
        let ev = c.insert(0x0400, line(3), false).expect("eviction");
        assert_eq!(ev.line_addr, 0x0200);
        assert!(!ev.dirty);
        assert!(c.contains(0x0000));
        assert!(c.contains(0x0400));
        assert!(!c.contains(0x0200));
    }

    #[test]
    fn dirty_eviction_carries_data() {
        let mut c = tiny();
        c.insert(0x0000, line(1), false);
        assert!(c.write_hit(0x0000, 3, &[9, 9]));
        c.insert(0x0200, line(2), false);
        let ev = c.insert(0x0400, line(3), false).expect("eviction");
        assert_eq!(ev.line_addr, 0x0000, "first line was LRU after ordering");
        assert!(ev.dirty);
        assert_eq!(ev.data[3], 9);
        assert_eq!(c.stats().dirty_evictions, 1);
    }

    #[test]
    fn write_hit_misses_gracefully() {
        let mut c = tiny();
        assert!(!c.write_hit(0x9000, 0, &[1]));
    }

    #[test]
    fn reinsertion_updates_in_place() {
        let mut c = tiny();
        c.insert(0x0000, line(1), false);
        assert!(
            c.insert(0x0000, line(4), true).is_none(),
            "same line: no eviction"
        );
        assert_eq!(c.lookup(0x0000), Some(line(4)));
        assert_eq!(c.resident_lines(), 1);
    }

    #[test]
    fn invalidate_returns_line() {
        let mut c = tiny();
        c.insert(0x0040, line(5), true);
        let ev = c.invalidate(0x0040).expect("line present");
        assert!(ev.dirty);
        assert_eq!(ev.data, line(5));
        assert!(!c.contains(0x0040));
        assert!(c.invalidate(0x0040).is_none());
    }

    #[test]
    fn set_count_power_of_two_enforced() {
        let r = std::panic::catch_unwind(|| {
            Cache::new(CacheConfig {
                size_bytes: 960,
                ways: 2,
                hit_latency_cycles: 1,
            })
        });
        assert!(r.is_err());
    }

    #[test]
    fn standard_configs() {
        assert_eq!(CacheConfig::l1d_32k().sets(), 128);
        assert_eq!(CacheConfig::l2_512k().sets(), 512);
    }
}
