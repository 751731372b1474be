//! The functional memory under the reference backends: where
//! [`crate::FixedLatencyBackend`] and the Ramulator baseline keep their
//! bytes, and the bump allocator every [`crate::MemoryBackend`] (the
//! EasyDRAM tile included) hands out physical addresses from.
//!
//! The paper runs identical binaries on every evaluated platform; here that
//! means one allocation sequence yields the same addresses on every backend
//! and a line written through one reads back the same through any other.
//! Both properties hold by construction: there is one implementation of
//! each.

use crate::LINE_BYTES;

/// Lines per page: 64 × 64 B = 4 KiB.
const PAGE_LINES: usize = 64;

type Page = [[u8; LINE_BYTES]; PAGE_LINES];

/// A zero-filled, line-granular byte store: a direct-indexed table of 4 KiB
/// pages allocated on first write. Lookup is a shift and two indexings, and
/// nothing is hashed or iterated, so runs reproduce exactly.
#[derive(Clone, Default)]
pub struct LineStore {
    /// Indexed by `line_addr >> 12`; grows to the highest page written.
    pages: Vec<Option<Box<Page>>>,
}

impl LineStore {
    /// An empty (all-zero) store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn split(line_addr: u64) -> (usize, usize) {
        (
            (line_addr >> 12) as usize,
            (line_addr >> 6) as usize % PAGE_LINES,
        )
    }

    fn line(&self, line_addr: u64) -> Option<&[u8; LINE_BYTES]> {
        let (page, line) = Self::split(line_addr);
        Some(&self.pages.get(page)?.as_ref()?[line])
    }

    /// The line containing `line_addr`. An untouched line reads as zeros
    /// and allocates nothing.
    #[must_use]
    pub fn read(&self, line_addr: u64) -> [u8; LINE_BYTES] {
        self.line(line_addr).map_or([0; LINE_BYTES], |l| *l)
    }

    /// Overwrites the line containing `line_addr`, allocating its page on
    /// first touch.
    pub fn write(&mut self, line_addr: u64, data: [u8; LINE_BYTES]) {
        let (page, line) = Self::split(line_addr);
        if page >= self.pages.len() {
            self.pages.resize_with(page + 1, || None);
        }
        let page = self.pages[page].get_or_insert_with(|| Box::new([[0; LINE_BYTES]; PAGE_LINES]));
        page[line] = data;
    }

    /// Copies the `row_bytes`-aligned row containing `src` onto the row
    /// containing `dst` (an idealised RowClone). Untouched source lines copy
    /// as zeros without allocating a page on either side.
    pub fn copy_row(&mut self, src: u64, dst: u64, row_bytes: u64) {
        let (src, dst) = (src / row_bytes * row_bytes, dst / row_bytes * row_bytes);
        for off in (0..row_bytes).step_by(LINE_BYTES) {
            match self.line(src + off).copied() {
                Some(line) => self.write(dst + off, line),
                None if self.line(dst + off).is_some() => self.write(dst + off, [0; LINE_BYTES]),
                None => {}
            }
        }
    }

    /// Number of 4 KiB pages allocated so far.
    #[must_use]
    pub fn pages(&self) -> usize {
        self.pages.iter().flatten().count()
    }
}

impl std::fmt::Debug for LineStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LineStore")
            .field("pages", &self.pages())
            .finish()
    }
}

/// The physical-address bump allocator shared by every backend: the heap
/// starts at 64 KiB and never frees.
#[derive(Debug, Clone)]
pub struct BumpAllocator {
    cursor: u64,
}

impl Default for BumpAllocator {
    fn default() -> Self {
        Self::new()
    }
}

impl BumpAllocator {
    /// An allocator with nothing handed out yet.
    #[must_use]
    pub fn new() -> Self {
        Self { cursor: 0x1_0000 }
    }

    /// Allocates `bytes` at `align` (0 means unaligned) and returns the base
    /// address.
    ///
    /// # Panics
    ///
    /// Panics if the heap would reach `capacity` (or the end of the address
    /// space); the cursor does not move.
    pub fn alloc(&mut self, bytes: u64, align: u64, capacity: u64) -> u64 {
        let fit = self
            .cursor
            .checked_next_multiple_of(align.max(1))
            .and_then(|base| Some((base, base.checked_add(bytes)?)))
            .filter(|&(_, end)| end < capacity);
        let Some((base, end)) = fit else {
            panic!("allocation exceeds capacity");
        };
        self.cursor = end;
        base
    }

    /// First address not handed out yet.
    #[must_use]
    pub fn cursor(&self) -> u64 {
        self.cursor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_of_untouched_lines_allocate_no_page() {
        let mut s = LineStore::new();
        assert_eq!(s.read(0x1234 << 6), [0; LINE_BYTES]);
        assert_eq!(s.pages(), 0, "a read allocates nothing");
        s.write(0x2_0040, [7; LINE_BYTES]);
        assert_eq!(s.pages(), 1);
        assert_eq!(s.read(0x2_0000), [0; LINE_BYTES], "page neighbour");
        assert_eq!(s.read(0x40_0000), [0; LINE_BYTES], "beyond the table");
        // A RowClone from a never-written row onto another materialises
        // neither; onto the written row it zeroes the line in place.
        s.copy_row(0x10_0000, 0x20_0000, 8192);
        assert_eq!(s.pages(), 1);
        s.copy_row(0x10_0000, 0x2_0000, 8192);
        assert_eq!(s.read(0x2_0040), [0; LINE_BYTES]);
        assert_eq!(s.pages(), 1);
        assert_eq!(format!("{s:?}"), "LineStore { pages: 1 }");
    }

    #[test]
    fn allocator_aligns_and_enforces_capacity() {
        let mut a = BumpAllocator::new();
        assert_eq!(a.alloc(10, 0, 1 << 20), 0x1_0000);
        assert_eq!(a.alloc(64, 64, 1 << 20), 0x1_0040);
        assert_eq!(a.alloc(1, 8192, 1 << 20), 0x1_2000);
        assert_eq!(a.cursor(), 0x1_2001);
        // The second size wraps `base + bytes` past zero.
        for bytes in [1 << 20, u64::MAX - 10] {
            let alloc = std::panic::AssertUnwindSafe(|| a.alloc(bytes, 1, 1 << 20));
            let full = std::panic::catch_unwind(alloc);
            assert!(full.is_err(), "the heap may not reach capacity");
            assert_eq!(a.cursor(), 0x1_2001, "a failed allocation moves nothing");
        }
    }
}
