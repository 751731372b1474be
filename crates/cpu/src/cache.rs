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

/// Tag of a way that holds no line. Tags are line numbers (`addr >> 6`),
/// which stop short of it.
const INVALID: u64 = u64::MAX;

/// One cache level holding real line data.
///
/// Tags, recency stamps and dirty bits are arrays of their own, apart from
/// the data: a probe compares one set's `ways` contiguous tags and touches
/// the slab only where it hits. All four are indexed by *slot*,
/// `set * ways + way`.
///
/// The probes are `#[inline]` because their caller, `CoreModel<B>`, is
/// instantiated in whichever crate names the backend: without the hint every
/// emulated load and store pays a cross-crate call per cache level.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    ways: usize,
    /// Set count minus one; the count is a power of two.
    set_mask: u64,
    /// The line number each slot holds, or [`INVALID`].
    tags: Vec<u64>,
    /// Tick of each slot's last use; 0 while it is invalid, so a set's
    /// smallest stamp is its first free way or, failing one, its LRU line.
    lru: Vec<u64>,
    dirty: Vec<bool>,
    /// Line bytes by slot. The core copies between two levels' slabs
    /// directly, through the slots [`Cache::touch`] and [`Cache::claim`]
    /// name.
    pub(crate) data: Vec<[u8; LINE_BYTES]>,
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
        let slots = (n_sets * cfg.ways) as usize;
        Self {
            cfg,
            ways: cfg.ways as usize,
            set_mask: u64::from(n_sets) - 1,
            tags: vec![INVALID; slots],
            lru: vec![0; slots],
            dirty: vec![false; slots],
            data: vec![[0; LINE_BYTES]; slots],
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

    /// The slots of the set `line` (a line number) maps to.
    #[inline]
    fn set_of(&self, line: u64) -> std::ops::Range<usize> {
        let base = (line & self.set_mask) as usize * self.ways;
        base..base + self.ways
    }

    /// The slot holding the line, without touching LRU or statistics.
    #[inline]
    fn find(&self, line_addr: u64) -> Option<usize> {
        let set = self.set_of(line_addr >> 6);
        let way = self.tags[set.clone()]
            .iter()
            .position(|&tag| tag == line_addr >> 6)?;
        Some(set.start + way)
    }

    /// [`Cache::lookup`], naming the slot instead of lending its bytes.
    #[inline]
    pub(crate) fn touch(&mut self, line_addr: u64) -> Option<usize> {
        self.tick += 1;
        let Some(slot) = self.find(line_addr) else {
            self.stats.misses += 1;
            return None;
        };
        self.lru[slot] = self.tick;
        self.stats.hits += 1;
        Some(slot)
    }

    /// Looks up a line, updating LRU and hit/miss statistics.
    ///
    /// Lends the line's bytes, in place, on a hit.
    #[inline]
    pub fn lookup(&mut self, line_addr: u64) -> Option<&[u8; LINE_BYTES]> {
        let slot = self.touch(line_addr)?;
        Some(&self.data[slot])
    }

    /// Overwrites bytes within a resident line and marks it dirty.
    ///
    /// Returns `false` when the line is not resident (statistics untouched).
    #[inline]
    pub fn write_hit(&mut self, line_addr: u64, offset: usize, bytes: &[u8]) -> bool {
        let Some(slot) = self.write_slot(line_addr) else {
            return false;
        };
        self.data[slot][offset..offset + bytes.len()].copy_from_slice(bytes);
        true
    }

    /// [`Cache::write_hit`] before the write: stamps the line's slot and
    /// marks it dirty, for the caller to write into. Counts nothing.
    #[inline]
    pub(crate) fn write_slot(&mut self, line_addr: u64) -> Option<usize> {
        self.tick += 1;
        let slot = self.find(line_addr)?;
        self.lru[slot] = self.tick;
        self.dirty[slot] = true;
        Some(slot)
    }

    /// Claims a slot for a line: its own if it is resident, else its set's
    /// first free way, else the set's LRU line (the first on ties). Stamps
    /// the slot, and returns it with the other line it displaces, if any, as
    /// `(line_addr, dirty)`.
    ///
    /// The slot's data is untouched, so still the displaced line's: the
    /// caller moves that out where it is dirty, then fills the slot.
    pub(crate) fn claim(&mut self, line_addr: u64, dirty: bool) -> (usize, Option<(u64, bool)>) {
        let Some(slot) = self.find(line_addr) else {
            return self.claim_absent(line_addr, dirty);
        };
        self.tick += 1;
        self.lru[slot] = self.tick;
        self.dirty[slot] = dirty;
        (slot, None)
    }

    /// [`Cache::claim`] for a line that is not resident, which a caller
    /// whose lookup of it has just missed knows without a second search.
    pub(crate) fn claim_absent(
        &mut self,
        line_addr: u64,
        dirty: bool,
    ) -> (usize, Option<(u64, bool)>) {
        debug_assert!(self.find(line_addr).is_none(), "{line_addr:#x} is resident");
        self.tick += 1;
        let set = self.set_of(line_addr >> 6);
        let slot = set.start + victim(&self.lru[set]);
        let held = self.tags[slot];
        let displaced = (held != INVALID).then(|| (held << 6, self.dirty[slot]));
        if let Some((_, true)) = displaced {
            self.stats.dirty_evictions += 1;
        }
        self.tags[slot] = line_addr >> 6;
        self.lru[slot] = self.tick;
        self.dirty[slot] = dirty;
        (slot, displaced)
    }

    /// Inserts a line (fetched from downstream), evicting the set's LRU
    /// victim if necessary.
    #[inline]
    pub fn insert(
        &mut self,
        line_addr: u64,
        data: [u8; LINE_BYTES],
        dirty: bool,
    ) -> Option<Eviction> {
        let (slot, displaced) = self.claim(line_addr, dirty);
        let evicted = displaced.map(|(line_addr, dirty)| Eviction {
            line_addr,
            data: self.data[slot],
            dirty,
        });
        self.data[slot] = data;
        evicted
    }

    /// Removes a line, returning it (for flushes).
    pub fn invalidate(&mut self, line_addr: u64) -> Option<Eviction> {
        let slot = self.find(line_addr)?;
        self.tags[slot] = INVALID;
        self.lru[slot] = 0;
        Some(Eviction {
            line_addr,
            data: self.data[slot],
            dirty: self.dirty[slot],
        })
    }

    /// Number of valid lines currently resident.
    #[must_use]
    pub fn resident_lines(&self) -> usize {
        self.tags.iter().filter(|&&tag| tag != INVALID).count()
    }
}

/// The way to claim in a set whose recency stamps are `stamps`: the first
/// free way, else the least recently used, the first on ties. A free way's
/// stamp is 0 and a live one's at least 1, so the first 0 is that way, and
/// the scan stops there.
#[inline]
fn victim(stamps: &[u64]) -> usize {
    let (mut way, mut oldest) = (0, u64::MAX);
    for (w, &stamp) in stamps.iter().enumerate() {
        if stamp == 0 {
            return w;
        }
        (way, oldest) = if stamp < oldest {
            (w, stamp)
        } else {
            (way, oldest)
        };
    }
    way
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    /// Whether the line is present, without touching LRU or statistics.
    fn contains(c: &Cache, line_addr: u64) -> bool {
        c.find(line_addr).is_some()
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert_eq!(c.lookup(0x1000), None);
        assert!(c.insert(0x1000, line(7), false).is_none());
        assert_eq!(c.lookup(0x1000), Some(&line(7)));
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
        assert!(contains(&c, 0x0000));
        assert!(contains(&c, 0x0400));
        assert!(!contains(&c, 0x0200));
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
        assert_eq!(c.lookup(0x0000), Some(&line(4)));
        assert_eq!(c.resident_lines(), 1);
    }

    #[test]
    fn invalidate_returns_line() {
        let mut c = tiny();
        c.insert(0x0040, line(5), true);
        let ev = c.invalidate(0x0040).expect("line present");
        assert!(ev.dirty);
        assert_eq!(ev.data, line(5));
        assert!(!contains(&c, 0x0040));
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

    proptest! {
        /// The early-exit scan picks the way a full scan for the first
        /// minimum picks, on sets with free ways and without.
        #[test]
        fn victim_is_the_first_minimum(
            stamps in prop::collection::vec(0u64..12, 1..17),
            live in any::<bool>(),
        ) {
            // Every stamp at least 1 half the time, as in a full set.
            let stamps: Vec<u64> = stamps.iter().map(|&s| s + u64::from(live)).collect();
            let first_min = stamps
                .iter()
                .enumerate()
                .min_by_key(|&(_, &stamp)| stamp)
                .map(|(way, _)| way);
            prop_assert_eq!(Some(victim(&stamps)), first_min, "{:?}", stamps);
        }
    }

    #[test]
    fn standard_configs() {
        assert_eq!(CacheConfig::l1d_32k().sets(), 128);
        assert_eq!(CacheConfig::l2_512k().sets(), 512);
    }
}
