//! Spans recorded from outside the simulator: wrappers the benchmark owns
//! around the two layer boundaries it can reach through public types.
//!
//! * [`TimedBackend`] wraps `&mut Tile` behind the `MemoryBackend` trait, so
//!   a `CoreModel` the benchmark builds itself sees the real tile while
//!   every call into it is bracketed by two reads of the [`SpanClock`].
//! * [`TimedController`] wraps a `SoftwareMemoryController` and is installed
//!   with `install_controllers`; it brackets every `serve`.
//!
//! Nesting is strict by construction — `serve` only ever runs inside a tile
//! call, and tile calls only run inside the simulation the harness timed as
//! the root span — so a span's parent is implied by its layer. Spans stay in
//! memory and are folded into per-layer totals after each op's timer has
//! stopped; the totals are printed when the run ends.

use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use easydram::{EasyApi, MitigationStats, ServeResult, SoftwareMemoryController};
use easydram_cpu::{LineFetch, MemoryBackend, RowCloneRequestResult, LINE_BYTES};

/// The clock spans are stamped with, in ticks. On x86-64 it is the time
/// stamp counter, which costs half of what `Instant::now()` does here (14 ns
/// against 31 ns): with two reads per span and up to 160 000 spans per op,
/// that difference is a tenth of the op.
#[cfg(target_arch = "x86_64")]
fn ticks() -> u64 {
    // SAFETY: RDTSC has no preconditions: it reads a counter into registers
    // and touches no memory.
    unsafe { core::arch::x86_64::_rdtsc() }
}

/// Elsewhere, nanoseconds since the first read.
#[cfg(not(target_arch = "x86_64"))]
fn ticks() -> u64 {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// What [`ticks`] means on this host, measured against `Instant`.
#[derive(Clone, Copy, Debug)]
pub struct SpanClock {
    pub ns_per_tick: f64,
    /// Cost of one read (`harness.timer_ns`).
    pub read_ns: f64,
}

impl SpanClock {
    /// Reads the clock two million times (tens of milliseconds) and takes
    /// both figures from the whole stretch.
    pub fn calibrate() -> Self {
        const READS: u64 = 2_000_000;
        let (t0, c0) = (Instant::now(), ticks());
        for _ in 0..READS {
            black_box(ticks());
        }
        let (ns, c1) = (t0.elapsed().as_nanos() as f64, ticks());
        Self {
            ns_per_tick: ns / c1.saturating_sub(c0).max(1) as f64,
            read_ns: ns / READS as f64,
        }
    }
}

/// One recorded interval, in [`ticks`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub start: u64,
    pub end: u64,
}

impl Span {
    fn ticks(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Where a [`TimedController`] leaves its spans for the harness.
pub type SpanSink = Arc<Mutex<Vec<Span>>>;

/// Brackets every call from the core into the tile.
pub struct TimedBackend<'a, B> {
    inner: &'a mut B,
    spans: &'a mut Vec<Span>,
}

impl<'a, B> TimedBackend<'a, B> {
    pub fn new(inner: &'a mut B, spans: &'a mut Vec<Span>) -> Self {
        Self { inner, spans }
    }

    // Out of line on purpose: inlined into `CoreModel`'s load and store
    // paths, the clock reads bloat the cache-hit fast path and the wrapped
    // core runs 1.4x slower than `CoreModel<Tile>` on cache-resident kernels.
    #[inline(never)]
    fn timed<R>(&mut self, f: impl FnOnce(&mut B) -> R) -> R {
        let start = ticks();
        let r = f(self.inner);
        let end = ticks();
        self.spans.push(Span { start, end });
        r
    }
}

impl<B: MemoryBackend> MemoryBackend for TimedBackend<'_, B> {
    fn set_requestor(&mut self, requestor: u32) {
        self.inner.set_requestor(requestor);
    }

    fn read_line(&mut self, line_addr: u64, issue_cycle: u64) -> LineFetch {
        self.timed(|b| b.read_line(line_addr, issue_cycle))
    }

    fn post_write(&mut self, line_addr: u64, data: [u8; LINE_BYTES], issue_cycle: u64) -> u64 {
        self.timed(|b| b.post_write(line_addr, data, issue_cycle))
    }

    fn drain_writes(&mut self, issue_cycle: u64) -> u64 {
        self.timed(|b| b.drain_writes(issue_cycle))
    }

    // One span, not the default post-then-drain through `self` (which would
    // record two).
    fn write_line(&mut self, line_addr: u64, data: [u8; LINE_BYTES], issue_cycle: u64) -> u64 {
        self.timed(|b| b.write_line(line_addr, data, issue_cycle))
    }

    fn alloc(&mut self, bytes: u64, align: u64) -> u64 {
        self.timed(|b| b.alloc(bytes, align))
    }

    fn capacity_bytes(&self) -> u64 {
        self.inner.capacity_bytes()
    }

    fn row_bytes(&self) -> u64 {
        self.inner.row_bytes()
    }

    fn rowclone(
        &mut self,
        src_row_addr: u64,
        dst_row_addr: u64,
        issue_cycle: u64,
    ) -> Option<RowCloneRequestResult> {
        self.timed(|b| b.rowclone(src_row_addr, dst_row_addr, issue_cycle))
    }

    fn rowclone_alloc_copy(&mut self, bytes: u64) -> Option<(u64, u64)> {
        self.timed(|b| b.rowclone_alloc_copy(bytes))
    }

    fn rowclone_alloc_init(&mut self, bytes: u64) -> Option<(u64, Vec<u64>)> {
        self.timed(|b| b.rowclone_alloc_init(bytes))
    }

    fn rowclone_init_source(&mut self, dst_row_addr: u64) -> Option<u64> {
        self.timed(|b| b.rowclone_init_source(dst_row_addr))
    }
}

/// Brackets every serve pass of the controller it wraps. Name and
/// mitigation counters pass through, so reports are unchanged. Spans collect
/// in the controller and reach the sink when the system that owns it is
/// dropped, so a serve pass takes no lock.
pub struct TimedController {
    inner: Box<dyn SoftwareMemoryController>,
    spans: Vec<Span>,
    sink: SpanSink,
}

impl TimedController {
    pub fn new(inner: Box<dyn SoftwareMemoryController>, sink: SpanSink) -> Self {
        Self {
            inner,
            spans: Vec::new(),
            sink,
        }
    }
}

impl SoftwareMemoryController for TimedController {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn serve(&mut self, api: &mut EasyApi<'_>) -> ServeResult {
        let start = ticks();
        let r = self.inner.serve(api);
        let end = ticks();
        self.spans.push(Span { start, end });
        r
    }

    fn mitigation_stats(&self) -> Option<MitigationStats> {
        self.inner.mitigation_stats()
    }
}

impl Drop for TimedController {
    fn drop(&mut self) {
        // A sink poisoned by a panicking harness has no reader left.
        if let Ok(mut sink) = self.sink.lock() {
            sink.append(&mut self.spans);
        }
    }
}

/// Per-layer totals folded from the spans of many ops.
#[derive(Default, Clone, Copy, Debug)]
pub struct LayerTotals {
    /// Timed ops folded in.
    pub ops: u64,
    /// Host time of the root spans (whole simulations), ns.
    pub root_ns: u64,
    /// Tile spans: count and summed duration.
    pub tile_spans: u64,
    pub tile_ns: u64,
    /// Controller spans: count, summed duration (CPU time across lanes) and
    /// the wall time their union covers (lanes may overlap under threads).
    pub smc_spans: u64,
    pub smc_ns: u64,
    pub smc_covered_ns: u64,
}

impl LayerTotals {
    /// Folds one op: `root_ns` of simulation wall time, the tile spans and
    /// the controller spans recorded inside it. Clears both span buffers,
    /// keeping their capacity.
    pub fn fold(
        &mut self,
        root_ns: u64,
        tile: &mut Vec<Span>,
        smc: &mut Vec<Span>,
        clock: &SpanClock,
    ) {
        let ns = |ticks: u64| (ticks as f64 * clock.ns_per_tick) as u64;
        self.ops += 1;
        self.root_ns += root_ns;
        self.tile_spans += tile.len() as u64;
        self.tile_ns += ns(tile.iter().map(Span::ticks).sum());
        self.smc_spans += smc.len() as u64;
        self.smc_ns += ns(smc.iter().map(Span::ticks).sum());
        smc.sort_unstable_by_key(|s| s.start);
        let mut covered = 0;
        let mut open: Option<Span> = None;
        for s in smc.iter() {
            match open.as_mut() {
                Some(o) if s.start <= o.end => o.end = o.end.max(s.end),
                _ => {
                    covered += open.map_or(0, |o| o.ticks());
                    open = Some(*s);
                }
            }
        }
        self.smc_covered_ns += ns(covered + open.map_or(0, |o| o.ticks()));
        tile.clear();
        smc.clear();
    }

    /// Self times net of the timer's own cost. Of the two clock reads a span
    /// makes, about one call's worth of time lands inside the
    /// span and one in its parent, so each layer sheds `timer_ns` per own
    /// span and per child span. Returns `(core, tile, smc)` in ns.
    pub fn self_ns(&self, timer_ns: f64) -> (f64, f64, f64) {
        let t = timer_ns;
        let smc = self.smc_ns as f64 - t * self.smc_spans as f64;
        let tile = self.tile_ns as f64
            - self.smc_covered_ns as f64
            - t * (self.tile_spans + self.smc_spans) as f64;
        let core = self.root_ns as f64 - self.tile_ns as f64 - t * self.tile_spans as f64;
        (core.max(0.0), tile.max(0.0), smc.max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_span_clock_calibrates_to_something_plausible() {
        let clock = SpanClock::calibrate();
        assert!(clock.ns_per_tick > 0.0 && clock.ns_per_tick.is_finite());
        assert!(clock.read_ns > 0.0 && clock.read_ns < 10_000.0, "{clock:?}");
        // The clock never runs backwards on one thread.
        let (a, b) = (ticks(), ticks());
        assert!(b >= a);
    }

    #[test]
    fn overlapping_controller_spans_are_covered_once() {
        let span = |start, end| Span { start, end };
        let mut tile = vec![span(0, 1_000)];
        // Two lanes overlapping in [100, 400], one later span.
        let mut smc = vec![span(200, 400), span(100, 300), span(600, 700)];
        let mut totals = LayerTotals::default();
        let clock = SpanClock {
            ns_per_tick: 1.0,
            read_ns: 0.0,
        };
        totals.fold(1_500, &mut tile, &mut smc, &clock);
        assert_eq!(totals.smc_ns, 500);
        assert_eq!(totals.smc_covered_ns, 400);
        assert_eq!(totals.tile_ns, 1_000);
        assert!(tile.is_empty() && smc.is_empty());
        let (core, tile_self, smc_self) = totals.self_ns(0.0);
        assert_eq!((core, tile_self, smc_self), (500.0, 600.0, 500.0));
    }
}
