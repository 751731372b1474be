//! Deterministic observability: structured event tracing, always-on log2
//! latency histograms, and trace exporters.
//!
//! Everything here obeys the workspace determinism contract:
//!
//! * **Timestamps are emulated picoseconds**, never host wall clock — every
//!   [`TraceEvent`] constructor takes a `ps: u64` already computed from the
//!   emulated timeline (no host-clock type can be named in a simulation
//!   crate: `clippy.toml` disallows `Instant` / `SystemTime`).
//! * **Zero cost when off**: tracing is gated behind an `Option<EventRing>`
//!   per lane and the [`crate::obs_trace!`] macro compiles to a branch on that
//!   option — the event expression is never even evaluated when tracing is
//!   disabled. Metrics histograms are always on, so reports carry latency
//!   percentiles whether or not events are being recorded, and enabling
//!   tracing cannot change a single report byte (observer effect = 0,
//!   pinned by `tracing_moves_no_report_byte` in
//!   `crates/core/tests/serve_characterisation.rs`). `SystemConfig::trace`
//!   is the only switch: nothing here reads the process environment.
//! * **Order-invariant reduction**: [`LogHistogram::merge`] and
//!   [`TileMetrics::merge`] are commutative and associative (element-wise
//!   sums), so shards fold to the same frame in any order (proven by
//!   permutation tests in `tests/stats_merge.rs`).
//!
//! Ring buffers are fixed-capacity and overwrite-oldest: a long run keeps
//! the trailing window of events and counts what it dropped. Draining
//! ([`TraceRing::drain_into`]) and exporting ([`TraceLog::to_chrome_json`],
//! [`TraceLog::to_binary`]) allocate freely — they run outside the serve
//! loop, at end of run.

use std::borrow::Cow;
use std::collections::BTreeMap;

use easydram_dram::TraceRing;

use crate::json::JsonWriter;
use crate::request::RequestClass;

/// Number of log2 buckets every [`LogHistogram`] carries. Bucket `b` counts
/// values whose bit length is `b` (so bucket 0 is exactly the value 0,
/// bucket 1 is the value 1, bucket 2 is 2–3, …); values of 2³⁰ and above
/// saturate into the top bucket.
pub const HIST_BUCKETS: usize = 32;

/// Default per-lane event-ring capacity (events, not bytes).
pub const DEFAULT_RING_CAPACITY: usize = 65_536;

/// Largest per-lane event-ring capacity a system accepts (events). Every
/// lane ring and every channel device's command ring reserves its full
/// capacity at construction, so an unbounded capacity would abort the
/// process in the allocator; 2²² events is 64x the default (160 MiB of lane
/// ring). `SystemConfig::validate` rejects a [`TraceConfig`] above it.
pub const MAX_RING_CAPACITY: usize = 1 << 22;

/// Event-tracing configuration: `SystemConfig::trace` set to `Some` turns
/// tracing on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Capacity of each per-lane event ring, in events. The DRAM command
    /// ring of each channel device uses the same capacity.
    pub ring_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            ring_capacity: DEFAULT_RING_CAPACITY,
        }
    }
}

/// What a [`TraceEvent`] describes. The request lifecycle (paper Fig. 6) is
/// `Enqueue → Issue → SliceRelease → Retire`; DRAM command kinds mirror the
/// device's command set; `Mitigation` marks a RowHammer defense spending
/// targeted refreshes; `QuantumSwitch` marks the co-scheduler moving the
/// execution baton between cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum EventKind {
    /// A request entered its channel's pending stream.
    Enqueue = 0,
    /// The request's batch entered the controller (serve pass began).
    Issue = 1,
    /// The request's DRAM work finished on the emulated timeline.
    SliceRelease = 2,
    /// The core may observe the response (release cycle reached).
    Retire = 3,
    /// ACT issued (bank/row in `a`/`b`).
    CmdActivate = 4,
    /// PRE / PREA issued.
    CmdPrecharge = 5,
    /// RD issued (bank/col in `a`/`b`).
    CmdRead = 6,
    /// WR issued (bank/col in `a`/`b`).
    CmdWrite = 7,
    /// REF issued.
    CmdRefresh = 8,
    /// RFM / targeted row refresh issued (bank/row in `a`/`b`).
    CmdRfm = 9,
    /// A mitigation policy spent targeted refreshes (count in `a`).
    Mitigation = 10,
    /// The co-scheduler moved the baton from core `a` to core `b`.
    QuantumSwitch = 11,
}

impl EventKind {
    /// Every kind, in discriminant order.
    const ALL: [Self; 12] = [
        Self::Enqueue,
        Self::Issue,
        Self::SliceRelease,
        Self::Retire,
        Self::CmdActivate,
        Self::CmdPrecharge,
        Self::CmdRead,
        Self::CmdWrite,
        Self::CmdRefresh,
        Self::CmdRfm,
        Self::Mitigation,
        Self::QuantumSwitch,
    ];

    /// Decodes the binary-dump representation.
    #[must_use]
    pub fn from_u8(v: u8) -> Option<Self> {
        Self::ALL.get(usize::from(v)).copied()
    }

    /// The command kind labelled with a device command's mnemonic (`PREA`
    /// traces as `PRE`). Panics on a mnemonic no command kind carries.
    pub(crate) fn from_mnemonic(mnemonic: &str) -> Self {
        let label = if mnemonic == "PREA" { "PRE" } else { mnemonic };
        let commands = &Self::ALL[Self::CmdActivate as usize..=Self::CmdRfm as usize];
        let kind = commands.iter().find(|k| k.label() == label);
        *kind.unwrap_or_else(|| panic!("no trace kind for DRAM command {mnemonic}"))
    }

    /// Stable label used by the exporters.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Enqueue => "enqueue",
            EventKind::Issue => "issue",
            EventKind::SliceRelease => "slice_release",
            EventKind::Retire => "retire",
            EventKind::CmdActivate => "ACT",
            EventKind::CmdPrecharge => "PRE",
            EventKind::CmdRead => "RD",
            EventKind::CmdWrite => "WR",
            EventKind::CmdRefresh => "REF",
            EventKind::CmdRfm => "RFM",
            EventKind::Mitigation => "mitigation",
            EventKind::QuantumSwitch => "quantum_switch",
        }
    }
}

/// One structured trace event: a flat, `Copy`, 36-byte record. Field
/// meaning varies by [`EventKind`] (see the per-constructor docs); `ps` is
/// always an **emulated** timestamp in picoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Emulated timestamp, picoseconds.
    pub ps: u64,
    /// What happened.
    pub kind: EventKind,
    /// Request id for lifecycle events; 0 otherwise.
    pub id: u64,
    /// Memory channel (lane) the event belongs to.
    pub lane: u32,
    /// Requestor (core) id for lifecycle events; 0 otherwise.
    pub requestor: u32,
    /// Kind-specific: request class, bank, mitigation count, or from-core.
    pub a: u32,
    /// Kind-specific: row/col or to-core.
    pub b: u32,
}

impl TraceEvent {
    /// A request entered the pending stream at emulated `ps`.
    #[must_use]
    pub fn enqueue(ps: u64, id: u64, lane: u32, requestor: u32, class: u32) -> Self {
        Self {
            ps,
            kind: EventKind::Enqueue,
            id,
            lane,
            requestor,
            a: class,
            b: 0,
        }
    }

    /// A request's batch entered the controller at emulated `ps`.
    #[must_use]
    pub fn issue(ps: u64, id: u64, lane: u32, requestor: u32) -> Self {
        Self {
            ps,
            kind: EventKind::Issue,
            id,
            lane,
            requestor,
            a: 0,
            b: 0,
        }
    }

    /// A request's DRAM slice finished on the emulated timeline at `ps`.
    #[must_use]
    pub fn slice_release(ps: u64, id: u64, lane: u32, requestor: u32) -> Self {
        Self {
            ps,
            kind: EventKind::SliceRelease,
            id,
            lane,
            requestor,
            a: 0,
            b: 0,
        }
    }

    /// The core may observe the response at emulated `ps`.
    #[must_use]
    pub fn retire(ps: u64, id: u64, lane: u32, requestor: u32, class: u32) -> Self {
        Self {
            ps,
            kind: EventKind::Retire,
            id,
            lane,
            requestor,
            a: class,
            b: 0,
        }
    }

    /// A DRAM command issued on `lane` at emulated `ps`.
    #[must_use]
    pub fn command(ps: u64, lane: u32, kind: EventKind, bank: u32, row_or_col: u32) -> Self {
        Self {
            ps,
            kind,
            id: 0,
            lane,
            requestor: 0,
            a: bank,
            b: row_or_col,
        }
    }

    /// A mitigation policy spent `targeted_refreshes` on `lane` at `ps`.
    #[must_use]
    pub fn mitigation(ps: u64, lane: u32, targeted_refreshes: u32) -> Self {
        Self {
            ps,
            kind: EventKind::Mitigation,
            id: 0,
            lane,
            requestor: 0,
            a: targeted_refreshes,
            b: 0,
        }
    }

    /// The co-scheduler moved the baton from core `from` to core `to` at
    /// emulated `ps`.
    #[must_use]
    pub fn quantum_switch(ps: u64, from: u32, to: u32) -> Self {
        Self {
            ps,
            kind: EventKind::QuantumSwitch,
            id: 0,
            lane: 0,
            requestor: 0,
            a: from,
            b: to,
        }
    }
}

/// Emits a trace event into an `Option`-gated ring. Compiles to a branch on
/// the option in the hot path: the event expression is evaluated **only**
/// when the ring exists, so a disabled tracer costs one predictable branch
/// per site and nothing else.
#[macro_export]
macro_rules! obs_trace {
    ($slot:expr, $ev:expr) => {
        if let Some(ring) = ($slot).as_mut() {
            ring.push($ev);
        }
    };
}

/// A lane's fixed-capacity overwrite-oldest ring of [`TraceEvent`]s. `push`
/// never allocates, so it is legal inside the serve loop
/// (`crates/core/tests/no_alloc.rs` counts traced runs).
pub type EventRing = TraceRing<TraceEvent>;

/// A fixed-bucket log2 histogram with a deterministic, order-invariant
/// merge. `Copy`, so snapshot/rebase windowing works exactly like the
/// scalar counters in `report.rs`.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct LogHistogram {
    /// Bucket `b` counts values of bit length `b` (saturating at the top).
    pub buckets: [u64; HIST_BUCKETS],
    /// Total values recorded.
    pub count: u64,
    /// Sum of recorded values (saturating).
    pub sum: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl LogHistogram {
    /// The bucket a value lands in: its bit length, capped at the top.
    #[must_use]
    pub(crate) fn bucket_of(value: u64) -> usize {
        ((u64::BITS - value.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }

    /// Inclusive upper bound of bucket `b` (`u64::MAX` for the saturating
    /// top bucket).
    #[must_use]
    pub fn bucket_upper(b: usize) -> u64 {
        if b >= HIST_BUCKETS - 1 {
            u64::MAX
        } else {
            (1u64 << b) - 1
        }
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Upper bound of the bucket containing the `pct`-th percentile value
    /// (integer math: rank = ceil(count × pct / 100)). 0 when empty.
    #[must_use]
    pub fn percentile(&self, pct: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (self.count * pct.min(100)).div_ceil(100).max(1);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::bucket_upper(b);
            }
        }
        Self::bucket_upper(HIST_BUCKETS - 1)
    }

    /// Mean of the recorded values (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

crate::counters::counters!(pub LogHistogram: sum { buckets, count, sum });

impl std::fmt::Debug for LogHistogram {
    /// Sparse rendering: only non-zero buckets, as `bit_len: count` pairs —
    /// keeps `{:#?}` report dumps (and the goldens pinned on them) compact.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "hist{{n={} sum={}", self.count, self.sum)?;
        for (b, &n) in self.buckets.iter().enumerate() {
            if n > 0 {
                write!(f, " {b}:{n}")?;
            }
        }
        write!(f, "}}")
    }
}

/// The tile's always-on metric frame, collected in the deterministic
/// pricing loop of every serve pass. Latencies are **emulated processor
/// cycles** (release − arrival); batch sizes are request counts. `Copy`
/// like `SmcStats`, so `System::run` windows it with the same
/// snapshot/rebase pattern.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TileMetrics {
    /// Latency of every request class combined.
    pub request_latency: LogHistogram,
    /// Read (and profiling-read) latency.
    pub read_latency: LogHistogram,
    /// Write / writeback latency.
    pub write_latency: LogHistogram,
    /// Requests per lane batch (one sample per live lane per pass).
    pub batch_size: LogHistogram,
}

impl TileMetrics {
    /// Request-latency percentiles `(p50, p95, p99)` in emulated cycles.
    #[must_use]
    pub fn latency_percentiles(&self) -> (u64, u64, u64) {
        (
            self.request_latency.percentile(50),
            self.request_latency.percentile(95),
            self.request_latency.percentile(99),
        )
    }
}

crate::counters::counters!(pub TileMetrics: sum {
    request_latency,
    read_latency,
    write_latency,
    batch_size,
});

/// Magic prefix of the compact binary event dump.
pub const TRACE_BIN_MAGIC: &[u8; 8] = b"EZTRACE1";

/// Bytes per record in the binary event dump.
pub const TRACE_BIN_RECORD_BYTES: usize = 36;

/// The exporters' name for a lifecycle event's request class (its `a`
/// field, a [`RequestClass`] as `u32`).
fn class_label(class: u32) -> &'static str {
    const READ: u32 = RequestClass::Read as u32;
    const WRITE: u32 = RequestClass::Write as u32;
    const ROWCLONE: u32 = RequestClass::RowClone as u32;
    match class {
        READ => "read",
        WRITE => "write",
        ROWCLONE => "rowclone",
        _ => "request",
    }
}

/// A drained, export-ready event log: every lane's ring (plus device
/// command rings and scheduler switches) flattened into one vector.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceLog {
    /// The events, in per-source insertion order until
    /// [`TraceLog::sort_for_export`] (an exporter handed an unsorted log
    /// sorts a copy).
    pub events: Vec<TraceEvent>,
    /// Events lost to ring overwrites across all sources.
    pub dropped: u64,
}

impl TraceLog {
    /// Appends one event.
    pub fn push(&mut self, ev: TraceEvent) {
        self.events.push(ev);
    }

    /// The Chrome trace-event track an event renders on: `(pid, tid)`.
    /// Request lifecycles get one thread per requestor inside their
    /// channel's process; commands and mitigation get dedicated threads;
    /// scheduler switches live in their own process.
    #[must_use]
    fn track(ev: &TraceEvent) -> (u32, u32) {
        match ev.kind {
            EventKind::Enqueue | EventKind::Issue | EventKind::SliceRelease | EventKind::Retire => {
                (ev.lane, ev.requestor)
            }
            EventKind::CmdActivate
            | EventKind::CmdPrecharge
            | EventKind::CmdRead
            | EventKind::CmdWrite
            | EventKind::CmdRefresh
            | EventKind::CmdRfm => (ev.lane, 1_000),
            EventKind::Mitigation => (ev.lane, 1_001),
            EventKind::QuantumSwitch => (10_000, 0),
        }
    }

    /// The export order: by track, then `(ps, id, kind)` within one.
    fn sort_key(ev: &TraceEvent) -> ((u32, u32), (u64, u64, EventKind)) {
        (Self::track(ev), (ev.ps, ev.id, ev.kind))
    }

    /// Deterministically orders the events by `(pid, tid, ps, id, kind)` —
    /// the order both exporters emit, which makes per-track timestamps
    /// monotone by construction (validated end-to-end by the
    /// `fig_latency_cdf` figure re-parsing the JSON). Stable: events equal
    /// in all five keep their order.
    pub fn sort_for_export(&mut self) {
        // A drained log is a concatenation of rings, and each track in one
        // is nearly in time order already: split the log by track, then let
        // an insertion sort undo a track's few short-range inversions. A
        // track that needs more than a few shifts per event goes to the
        // standard sort instead. Every step is stable.
        //
        // Every pass streams: one counts each track's events, one appends
        // them to a track sized exactly for them, in log order, and the
        // tracks go back in export order. Neighbouring events mostly share
        // a track: the last one found skips the map.
        let in_track = |ev: &TraceEvent| Self::sort_key(ev).1;
        let mut slots: BTreeMap<(u32, u32), usize> = BTreeMap::new();
        let mut last = None;
        let mut slot_of = |ev: &TraceEvent| {
            let track = Self::track(ev);
            let slot = match last {
                Some((seen, slot)) if seen == track => slot,
                _ => {
                    let fresh = slots.len();
                    *slots.entry(track).or_insert(fresh)
                }
            };
            last = Some((track, slot));
            slot
        };
        let mut counts: Vec<usize> = Vec::new();
        for ev in &self.events {
            let slot = slot_of(ev);
            if slot == counts.len() {
                counts.push(0);
            }
            counts[slot] += 1;
        }
        let mut tracks: Vec<Vec<TraceEvent>> =
            counts.iter().map(|&n| Vec::with_capacity(n)).collect();
        for ev in &self.events {
            tracks[slot_of(ev)].push(*ev);
        }
        self.events.clear();
        for slot in slots.into_values() {
            let track = &mut tracks[slot];
            let mut shifts = 16 * track.len();
            for at in 1..track.len() {
                let key = in_track(&track[at]);
                if in_track(&track[at - 1]) <= key {
                    continue;
                }
                let later = |ev: &&TraceEvent| in_track(ev) > key;
                let to = at - track[..at].iter().rev().take_while(later).count();
                track[to..=at].rotate_right(1);
                shifts = shifts.saturating_sub(at - to);
                if shifts == 0 {
                    track.sort_by_key(in_track);
                    break;
                }
            }
            self.events.append(track);
        }
    }

    /// The events in export order: the log's own when it is already sorted
    /// (one linear check), a sorted copy otherwise.
    fn export_order(&self) -> Cow<'_, [TraceEvent]> {
        let mut keys = self.events.iter().map(Self::sort_key);
        let mut last = keys.next();
        if keys.all(|key| last.replace(key) <= Some(key)) {
            return Cow::Borrowed(&self.events);
        }
        let mut copy = self.clone();
        copy.sort_for_export();
        Cow::Owned(copy.events)
    }

    /// Whether timestamps are non-decreasing within every `(pid, tid)`
    /// track, in the log's current event order.
    #[must_use]
    pub fn tracks_monotone(&self) -> bool {
        // The running track's last stamp is a local; `parked` holds the
        // others, touched only when the track changes. The placeholder the
        // loop starts on forbids nothing: no stamp is below 0.
        let mut parked: BTreeMap<(u32, u32), u64> = BTreeMap::new();
        let mut running = ((u32::MAX, u32::MAX), 0);
        for ev in &self.events {
            let track = Self::track(ev);
            if track != running.0 {
                parked.insert(running.0, running.1);
                running = (track, parked.get(&track).copied().unwrap_or(0));
            }
            if ev.ps < running.1 {
                return false;
            }
            running.1 = ev.ps;
        }
        true
    }

    /// Serializes the log as Chrome trace-event JSON (the
    /// `{"traceEvents": [...]}` object format), loadable in Perfetto or
    /// `chrome://tracing`. One process per memory channel with one thread
    /// per requestor (request lifecycles render as complete `X` slices from
    /// enqueue to retire), plus `commands`/`mitigation` threads of instant
    /// events and a `scheduler` process for quantum switches. Timestamps
    /// are emulated microseconds with picosecond precision.
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        let events = self.export_order();
        // Every event object opens with its phase and track.
        fn event<'w>(w: &'w mut JsonWriter, ph: &str, track: (u32, u32)) -> &'w mut JsonWriter {
            w.begin_object().key("ph").string(ph);
            w.key("pid").uint(track.0.into());
            w.key("tid").uint(track.1.into())
        }
        // An instant event, left open inside its `args`.
        fn instant<'w>(w: &'w mut JsonWriter, ev: &TraceEvent) -> &'w mut JsonWriter {
            event(w, "i", TraceLog::track(ev)).key("s").string("t");
            w.key("ts").millionths(ev.ps);
            w.key("name").string(ev.kind.label());
            w.key("args").begin_object()
        }
        // An instant is ~100 bytes, a complete slice ~150 for four events.
        let lifecycle = events.iter().filter(|ev| is_lifecycle(ev)).count();
        let mut w = JsonWriter::with_capacity(512 + 104 * events.len() - 64 * lifecycle);
        w.begin_object().key("traceEvents").begin_array();
        // Track metadata: name every process and thread that carries
        // events. Export order keeps each track, and each process, together.
        let name = |w: &mut JsonWriter, track, what: &str, name: &str| {
            event(w, "M", track).key("name").string(what);
            w.key("args").begin_object().key("name").string(name);
            w.end_object().end_object();
        };
        let mut last = None;
        for (pid, tid) in events.iter().map(Self::track) {
            if last == Some((pid, tid)) {
                continue;
            }
            if last.map(|(named, _)| named) != Some(pid) {
                let pname = match pid {
                    10_000 => "scheduler".to_string(),
                    _ => format!("channel {pid}"),
                };
                name(&mut w, (pid, 0), "process_name", &pname);
            }
            let tname = match tid {
                1_000 => "commands".to_string(),
                1_001 => "mitigation".to_string(),
                _ if pid == 10_000 => "switches".to_string(),
                r => format!("requestor {r}"),
            };
            name(&mut w, (pid, tid), "thread_name", &tname);
            last = Some((pid, tid));
        }
        // Complete slices for fully-observed request lifecycles; leftover
        // endpoints (the ring overwrote their partner) render as instants.
        for_each_life(&events, |id, life| match (life.enqueue, life.retire) {
            (Some(e), Some(r)) => {
                event(&mut w, "X", Self::track(e))
                    .key("ts")
                    .millionths(e.ps);
                w.key("dur").millionths(r.ps.saturating_sub(e.ps));
                w.key("name").string(class_label(e.a));
                w.key("args").begin_object().key("id").uint(id);
                if let Some(p) = life.issue {
                    w.key("issue_us").millionths(p);
                }
                if let Some(p) = life.slice {
                    w.key("slice_release_us").millionths(p);
                }
                w.end_object().end_object();
            }
            (enqueue, retire) => {
                for ev in [enqueue, retire].into_iter().flatten() {
                    instant(&mut w, ev).key("id").uint(id);
                    w.end_object().end_object();
                }
            }
        });
        for ev in events.iter().filter(|ev| !is_lifecycle(ev)) {
            instant(&mut w, ev).key("a").uint(ev.a.into());
            w.key("b").uint(ev.b.into());
            w.end_object().end_object();
        }
        w.end_array().key("displayTimeUnit").string("ns");
        w.key("otherData").begin_object();
        w.key("dropped_events").uint(self.dropped);
        w.end_object().end_object();
        w.finish()
    }

    /// Serializes the log as the compact binary dump the future replay
    /// frontend ingests: the [`TRACE_BIN_MAGIC`] header, a little-endian
    /// `u64` event count, then one fixed 36-byte little-endian record per
    /// event (`ps:u64, id:u64, lane:u32, requestor:u32, a:u32, b:u32,
    /// kind:u32`), in export order.
    #[must_use]
    pub fn to_binary(&self) -> Vec<u8> {
        Self::encode_binary(&self.export_order())
    }

    /// The binary dump of `events` in the order given.
    fn encode_binary(events: &[TraceEvent]) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + events.len() * TRACE_BIN_RECORD_BYTES);
        out.extend_from_slice(TRACE_BIN_MAGIC);
        out.extend_from_slice(&(events.len() as u64).to_le_bytes());
        for ev in events {
            out.extend_from_slice(&Self::record(ev));
        }
        out
    }

    /// One event's record: `ps:u64, id:u64, lane:u32, requestor:u32, a:u32,
    /// b:u32, kind:u32`, little-endian.
    #[inline]
    fn record(ev: &TraceEvent) -> [u8; TRACE_BIN_RECORD_BYTES] {
        let mut rec = [0; TRACE_BIN_RECORD_BYTES];
        rec[..8].copy_from_slice(&ev.ps.to_le_bytes());
        rec[8..16].copy_from_slice(&ev.id.to_le_bytes());
        let words = [ev.lane, ev.requestor, ev.a, ev.b, u32::from(ev.kind as u8)];
        for (at, word) in (16..).step_by(4).zip(words) {
            rec[at..at + 4].copy_from_slice(&word.to_le_bytes());
        }
        rec
    }

    /// The event a record encodes; `None` when its kind word names no kind.
    #[inline]
    fn from_record(rec: &[u8; TRACE_BIN_RECORD_BYTES]) -> Option<TraceEvent> {
        let u64_at = |at: usize| u64::from_le_bytes(rec[at..at + 8].try_into().expect("8 bytes"));
        let u32_at = |at: usize| u32::from_le_bytes(rec[at..at + 4].try_into().expect("4 bytes"));
        Some(TraceEvent {
            ps: u64_at(0),
            id: u64_at(8),
            lane: u32_at(16),
            requestor: u32_at(20),
            a: u32_at(24),
            b: u32_at(28),
            kind: EventKind::from_u8(u8::try_from(u32_at(32)).ok()?)?,
        })
    }

    /// Parses a binary dump back into events (round-trip check and the
    /// replay frontend's reader). `None` on a malformed dump.
    #[must_use]
    pub fn parse_binary(bytes: &[u8]) -> Option<Vec<TraceEvent>> {
        let rest = bytes.strip_prefix(&TRACE_BIN_MAGIC[..])?;
        let (count, rest) = rest.split_first_chunk::<8>()?;
        // The count is untrusted: it must describe exactly the bytes that
        // follow before anything is allocated for it.
        let count = usize::try_from(u64::from_le_bytes(*count)).ok()?;
        if count.checked_mul(TRACE_BIN_RECORD_BYTES) != Some(rest.len()) {
            return None;
        }
        let mut events = Vec::with_capacity(count);
        for rec in rest.chunks_exact(TRACE_BIN_RECORD_BYTES) {
            let rec = rec.try_into().expect("chunks_exact yields whole records");
            events.push(Self::from_record(rec)?);
        }
        Some(events)
    }
}

/// A request's lifecycle as the Chrome export renders it: the last event
/// of each kind in export order.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Life<'a> {
    enqueue: Option<&'a TraceEvent>,
    issue: Option<u64>,
    slice: Option<u64>,
    retire: Option<&'a TraceEvent>,
}

impl<'a> Life<'a> {
    /// Folds in a lifecycle event that comes later in export order.
    fn add(&mut self, ev: &'a TraceEvent) {
        match ev.kind {
            EventKind::Enqueue => self.enqueue = Some(ev),
            EventKind::Issue => self.issue = Some(ev.ps),
            EventKind::SliceRelease => self.slice = Some(ev.ps),
            _ => self.retire = Some(ev),
        }
    }
}

/// Calls `render` with every request id the lifecycle events of `events`
/// (in export order) carry, in ascending id order, and its [`Life`].
///
/// Ids are dense in a simulated log (a tile numbers its requests
/// consecutively), so when they span fewer values than there are lifecycle
/// events, a table indexed by id groups them in one pass. Any other log
/// sorts its `(id, position)` pairs, which groups them identically
/// (`lives_group_alike_in_a_table_and_by_sorting` in the tests).
fn for_each_life<'a>(events: &'a [TraceEvent], render: impl FnMut(u64, &Life<'a>)) {
    let lifecycle = events.iter().filter(|ev| is_lifecycle(ev));
    let (count, lo, hi) = lifecycle.fold((0u64, u64::MAX, 0), |(n, lo, hi), ev| {
        (n + 1, lo.min(ev.id), hi.max(ev.id))
    });
    if count > 0 && hi - lo < count {
        lives_by_table(events, lo, hi, render);
    } else {
        lives_by_sorting(events, render);
    }
}

/// Whether `ev` belongs to a request lifecycle.
fn is_lifecycle(ev: &TraceEvent) -> bool {
    ev.kind <= EventKind::Retire
}

/// [`for_each_life`] through a table of every id in `lo..=hi`, the span of
/// the lifecycle ids.
fn lives_by_table<'a>(
    events: &'a [TraceEvent],
    lo: u64,
    hi: u64,
    mut render: impl FnMut(u64, &Life<'a>),
) {
    let mut table = vec![Life::default(); (hi - lo + 1) as usize];
    for ev in events.iter().filter(|ev| is_lifecycle(ev)) {
        table[(ev.id - lo) as usize].add(ev);
    }
    for (offset, life) in table.iter().enumerate() {
        render(lo + offset as u64, life);
    }
}

/// [`for_each_life`] by sorting `(id, position)` pairs, for any ids.
fn lives_by_sorting<'a>(events: &'a [TraceEvent], mut render: impl FnMut(u64, &Life<'a>)) {
    let mut lives: Vec<(u64, usize)> = (events.iter().enumerate())
        .filter(|(_, ev)| is_lifecycle(ev))
        .map(|(at, ev)| (ev.id, at))
        .collect();
    lives.sort_unstable();
    for group in lives.chunk_by(|a, b| a.0 == b.0) {
        let mut life = Life::default();
        for &(_, at) in group {
            life.add(&events[at]);
        }
        render(group[0].0, &life);
    }
}

/// Validates that `json` is a structurally well-formed JSON object (scopes
/// balance, strings and escapes terminate) carrying a top-level
/// `traceEvents` key — the loadability check the `fig_latency_cdf` figure
/// runs over the Chrome trace it emits. One pass over the bytes that
/// tracks scope nesting only: no key inside the events costs anything.
///
/// # Errors
///
/// Returns a human-readable description of the first structural defect.
pub fn validate_chrome_json(json: &str) -> Result<(), String> {
    if !json.trim_start().starts_with('{') {
        return Err("top level must be a JSON object".to_string());
    }
    let mut has_events = false;
    crate::json::top_level_keys(json, |key| has_events |= key == "traceEvents")?;
    if !has_events {
        return Err("missing the traceEvents array".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Counters;
    use easydram_dram::DramCommand;
    use proptest::prelude::*;

    const READ: u32 = RequestClass::Read as u32;
    const WRITE: u32 = RequestClass::Write as u32;
    const ROWCLONE: u32 = RequestClass::RowClone as u32;

    proptest! {
        /// `sort_for_export` is the stable sort by `(pid, tid, ps, id, kind)`
        /// and `tracks_monotone` the per-track map it replaced, on logs that
        /// are nearly in order (the insertion path) and on shuffled ones.
        #[test]
        fn export_order_and_monotone_check_match_their_oracles(
            draws in prop::collection::vec((0u32..3, 0u32..3, 0u8..12, 0u64..40, 0u64..6), 0..300),
            shuffled in any::<bool>(),
        ) {
            let mut log = TraceLog::default();
            for (at, &(lane, requestor, kind, jitter, id)) in draws.iter().enumerate() {
                // Stamps rise with position, give or take a short range. A
                // shuffled log draws them from the whole range instead, on
                // two tracks long enough to exhaust the insertion budget.
                let base = if shuffled { jitter * 977 % 300 } else { at as u64 };
                let spread = u32::from(!shuffled);
                log.push(TraceEvent {
                    ps: (base + jitter % 8) / 2,
                    kind: EventKind::from_u8(kind % if shuffled { 10 } else { 12 }).unwrap(),
                    id,
                    lane: lane * spread,
                    requestor: requestor * spread,
                    a: at as u32, // tells apart events equal in every sort field
                    b: 0,
                });
            }
            let monotone = |log: &TraceLog| {
                let mut last = BTreeMap::new();
                log.events.iter().all(|ev| {
                    last.insert(TraceLog::track(ev), ev.ps).map_or(true, |prev| prev <= ev.ps)
                })
            };
            prop_assert_eq!(log.tracks_monotone(), monotone(&log));
            let mut expect = log.events.clone();
            expect.sort_by_key(|ev| (TraceLog::track(ev), ev.ps, ev.id, ev.kind));
            let binary = log.to_binary();
            log.sort_for_export();
            prop_assert_eq!(&log.events, &expect);
            prop_assert!(log.tracks_monotone() && monotone(&log));
            prop_assert_eq!(log.to_binary(), binary);
        }

        /// The Chrome export's two groupings of lifecycle events by id agree:
        /// the table over the ids' span and the sort of `(id, position)`
        /// pairs hand the renderer the same lifecycles in the same order, on
        /// logs with reused ids, every kind, and ids that span more or fewer
        /// values than there are events.
        #[test]
        fn lives_group_alike_in_a_table_and_by_sorting(
            draws in prop::collection::vec((0u8..12, 0u64..24, 0u64..1_000, 0u32..3), 1..120),
            (end, raw) in (0u8..3, any::<u64>()),
        ) {
            // Ids from 0, up to u64::MAX, or anywhere between.
            let base = [0, u64::MAX - 23, raw >> 1][usize::from(end)];
            let events: Vec<TraceEvent> = draws
                .iter()
                .map(|&(kind, id, ps, lane)| TraceEvent {
                    ps,
                    kind: EventKind::from_u8(kind).unwrap(),
                    id: base + id,
                    lane,
                    requestor: lane,
                    a: kind.into(),
                    b: 0,
                })
                .collect();
            let ids = events.iter().filter(|ev| is_lifecycle(ev)).map(|ev| ev.id);
            let Some((lo, hi)) = ids.clone().min().zip(ids.max()) else {
                return Ok(());
            };
            let (mut by_table, mut by_sorting) = (Vec::new(), Vec::new());
            lives_by_table(&events, lo, hi, |id, life| {
                if *life != Life::default() {
                    by_table.push((id, *life));
                }
            });
            lives_by_sorting(&events, |id, life| by_sorting.push((id, *life)));
            prop_assert_eq!(by_table, by_sorting);
        }

        /// `parse_binary` on hostile bytes: arbitrary strings, arbitrary
        /// records behind a well-formed header, and truncations and
        /// single-byte overwrites of a valid dump. It never panics, accepts
        /// exactly the `16 + 36·count`-byte dumps whose kind words are all
        /// ≤ 11, and re-encodes what it accepts to the input bytes.
        #[test]
        fn binary_parse_accepts_exactly_well_formed_dumps(
            mode in 0u8..4,
            noise in prop::collection::vec(any::<u8>(), 0..600),
            fields in prop::collection::vec(
                (any::<u64>(), any::<u64>(), any::<u32>(), any::<u32>(), 0u8..12),
                0..12,
            ),
            cut in any::<usize>(),
            patch in (any::<usize>(), any::<u8>()),
        ) {
            let events: Vec<TraceEvent> = fields
                .iter()
                .map(|&(ps, id, lane, a, kind)| TraceEvent {
                    ps,
                    kind: EventKind::from_u8(kind).unwrap(),
                    id,
                    lane,
                    requestor: a >> 16,
                    a,
                    b: !a,
                })
                .collect();
            let dump = TraceLog::encode_binary(&events);
            let bytes = match mode {
                0 => noise,
                1 => {
                    // Whole records with kind words in 0..13: most valid.
                    let mut body = noise;
                    body.truncate(body.len() / TRACE_BIN_RECORD_BYTES * TRACE_BIN_RECORD_BYTES);
                    for rec in body.chunks_exact_mut(TRACE_BIN_RECORD_BYTES) {
                        rec[32] %= 13;
                        rec[33..].fill(0);
                    }
                    let count = (body.len() / TRACE_BIN_RECORD_BYTES) as u64;
                    [&TRACE_BIN_MAGIC[..], &count.to_le_bytes(), &body].concat()
                }
                2 => dump[..cut % (dump.len() + 1)].to_vec(),
                _ => {
                    let mut d = dump;
                    let at = patch.0 % d.len();
                    d[at] = patch.1;
                    d
                }
            };
            // A little-endian word of `n` bytes at `at`, as the spec reads it.
            let word = |at: usize, n: usize| {
                bytes[at..at + n].iter().rev().fold(0u128, |w, &b| w << 8 | u128::from(b))
            };
            let well_formed = bytes.len() >= 16
                && bytes.starts_with(TRACE_BIN_MAGIC)
                && word(8, 8) * 36 == (bytes.len() - 16) as u128
                && (16..bytes.len()).step_by(36).all(|rec| word(rec + 32, 4) <= 11);
            let parsed = TraceLog::parse_binary(&bytes);
            prop_assert_eq!(parsed.is_some(), well_formed);
            if let Some(events) = parsed {
                prop_assert_eq!(TraceLog::encode_binary(&events), bytes);
            }
        }
    }

    #[test]
    fn histogram_buckets_and_percentiles() {
        let mut h = LogHistogram::default();
        assert_eq!(LogHistogram::bucket_of(0), 0);
        assert_eq!(LogHistogram::bucket_of(1), 1);
        assert_eq!(LogHistogram::bucket_of(3), 2);
        assert_eq!(LogHistogram::bucket_of(4), 3);
        assert_eq!(LogHistogram::bucket_of(u64::MAX), HIST_BUCKETS - 1);
        assert_eq!(h.percentile(50), 0, "empty histogram");
        for v in [1u64, 1, 1, 1, 1, 1, 1, 1, 1, 200] {
            h.record(v);
        }
        assert_eq!(h.count, 10);
        assert_eq!(h.sum, 209);
        assert_eq!(h.percentile(50), 1);
        assert_eq!(h.percentile(90), 1);
        // The one 200-value sample is the p91+ tail; bucket 8 covers 128–255.
        assert_eq!(h.percentile(99), 255);
        assert_eq!(h.percentile(100), 255);
    }

    #[test]
    fn histogram_merge_matches_combined_recording() {
        let mut a = LogHistogram::default();
        let mut b = LogHistogram::default();
        let mut all = LogHistogram::default();
        for (i, v) in [3u64, 9, 17, 1000, 0, 64, 64, 2].iter().enumerate() {
            if i % 2 == 0 {
                a.record(*v);
            } else {
                b.record(*v);
            }
            all.record(*v);
        }
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, all);
        assert_eq!(ba, all, "merge must be commutative");
        let mut windowed = all;
        windowed.rebase(&a);
        assert_eq!(windowed, b, "rebase undoes the first shard");
    }

    #[test]
    fn histogram_debug_is_sparse() {
        let mut h = LogHistogram::default();
        h.record(5);
        h.record(5);
        assert_eq!(format!("{h:?}"), "hist{n=2 sum=10 3:2}");
        assert_eq!(format!("{:?}", LogHistogram::default()), "hist{n=0 sum=0}");
    }

    #[test]
    fn event_kinds_decode_from_one_table() {
        for k in EventKind::ALL {
            assert_eq!(EventKind::from_u8(k as u8), Some(k));
        }
        assert_eq!(EventKind::from_u8(EventKind::ALL.len() as u8), None);
        let line = [0; easydram_dram::LINE_BYTES];
        let commands = [
            DramCommand::Activate { bank: 0, row: 0 },
            DramCommand::Precharge { bank: 0 },
            DramCommand::PrechargeAll,
            DramCommand::Read { bank: 0, col: 0 },
            DramCommand::Write {
                bank: 0,
                col: 0,
                data: line,
            },
            DramCommand::Refresh,
            DramCommand::RefreshRow { bank: 0, row: 0 },
        ];
        for cmd in commands {
            let label = EventKind::from_mnemonic(cmd.mnemonic()).label();
            match cmd {
                DramCommand::PrechargeAll => assert_eq!(label, "PRE"),
                _ => assert_eq!(label, cmd.mnemonic()),
            }
        }
    }

    #[test]
    fn ring_overwrites_oldest_and_drains_in_order() {
        let mut ring = EventRing::new(3);
        for i in 0..5u64 {
            ring.push(TraceEvent::enqueue(i * 10, i, 0, 0, READ));
        }
        let mut events = Vec::new();
        assert_eq!(ring.drain_into(&mut events), 2);
        let ids: Vec<u64> = events.iter().map(|e| e.id).collect();
        assert_eq!(ids, [2, 3, 4], "oldest-first drain after wrap");
        events.clear();
        assert_eq!(ring.drain_into(&mut events), 0, "drain resets the ring");
        assert!(events.is_empty());
    }

    #[test]
    fn trace_macro_skips_event_construction_when_off() {
        let mut slot: Option<EventRing> = None;
        let mut evaluated = false;
        obs_trace!(slot, {
            evaluated = true;
            TraceEvent::enqueue(0, 0, 0, 0, 0)
        });
        assert!(!evaluated, "disabled tracer must not evaluate the event");
        slot = Some(EventRing::new(4));
        obs_trace!(slot, {
            evaluated = true;
            TraceEvent::enqueue(7, 1, 0, 0, 0)
        });
        assert!(evaluated);
        let mut events = Vec::new();
        assert_eq!(slot.unwrap().drain_into(&mut events), 0);
        assert_eq!(events.len(), 1);
    }

    #[test]
    fn chrome_export_is_valid_and_monotone_per_track() {
        let mut log = TraceLog::default();
        log.push(TraceEvent::enqueue(2_000_000, 1, 0, 0, READ));
        log.push(TraceEvent::retire(5_500_000, 1, 0, 0, READ));
        log.push(TraceEvent::issue(3_000_000, 1, 0, 0));
        log.push(TraceEvent::command(
            2_500_000,
            0,
            EventKind::CmdActivate,
            3,
            42,
        ));
        log.push(TraceEvent::command(2_600_000, 0, EventKind::CmdRead, 3, 8));
        log.push(TraceEvent::quantum_switch(4_000_000, 0, 1));
        // An orphan enqueue (its retire was overwritten) renders as instant.
        log.push(TraceEvent::enqueue(6_000_000, 2, 0, 1, WRITE));
        let json = log.to_chrome_json();
        validate_chrome_json(&json).expect("valid chrome trace");
        assert!(json.contains("\"ph\":\"X\""), "complete request slice");
        assert!(json.contains("\"name\":\"read\""));
        assert!(json.contains("\"name\":\"ACT\""));
        assert!(json.contains("\"name\":\"channel 0\""));
        assert!(json.contains("\"name\":\"scheduler\""));
        assert!(json.contains("\"ts\":2.000000"), "ps render as µs");
        assert!(json.contains("\"dur\":3.500000"));
        let mut sorted = log.clone();
        sorted.sort_for_export();
        assert!(sorted.tracks_monotone());
    }

    #[test]
    fn binary_dump_round_trips() {
        let mut log = TraceLog::default();
        log.push(TraceEvent::retire(123, 9, 1, 2, ROWCLONE));
        log.push(TraceEvent::command(50, 0, EventKind::CmdRfm, 7, 99));
        let bytes = log.to_binary();
        assert_eq!(&bytes[..8], TRACE_BIN_MAGIC);
        let events = TraceLog::parse_binary(&bytes).expect("well-formed dump");
        let mut expect = log.clone();
        expect.sort_for_export();
        assert_eq!(events, expect.events);
        assert!(TraceLog::parse_binary(&bytes[..bytes.len() - 1]).is_none());
        assert!(TraceLog::parse_binary(b"NOTMAGIC").is_none());
        // The kind is a whole 32-bit word: one that only looks like a kind
        // in its low byte (0x100 would read as `Enqueue`) is malformed.
        for kind in [12u32, 0x100, 0x0000_0103, 0x8000_0000, u32::MAX] {
            let mut bad = bytes.clone();
            bad[16 + 32..16 + 36].copy_from_slice(&kind.to_le_bytes());
            assert!(TraceLog::parse_binary(&bad).is_none(), "kind {kind:#x}");
        }
        // A hostile count must be rejected before it sizes an allocation.
        for count in [u64::MAX, 1 << 40] {
            let hostile = [&TRACE_BIN_MAGIC[..], &count.to_le_bytes()].concat();
            assert!(TraceLog::parse_binary(&hostile).is_none());
        }
    }

    #[test]
    fn chrome_validator_rejects_malformed_documents() {
        assert!(validate_chrome_json("{\"traceEvents\":[]}").is_ok());
        assert!(validate_chrome_json("[1,2]").is_err(), "non-object top");
        assert!(validate_chrome_json("{\"traceEvents\":[}").is_err());
        assert!(validate_chrome_json("{\"traceEvents\":[]").is_err());
        assert!(validate_chrome_json("{\"x\": \"unterminated}").is_err());
        assert!(validate_chrome_json("{}").is_err(), "missing traceEvents");
    }

    #[test]
    fn tile_metrics_window_and_percentiles() {
        let mut m = TileMetrics::default();
        m.request_latency.record(100);
        m.read_latency.record(100);
        m.batch_size.record(4);
        let snap = m;
        m.request_latency.record(900);
        m.write_latency.record(900);
        m.rebase(&snap);
        assert_eq!(m.request_latency.count, 1);
        assert_eq!(m.read_latency.count, 0);
        let (p50, p95, p99) = m.latency_percentiles();
        assert_eq!((p50, p95, p99), (1023, 1023, 1023), "900 lands in 512–1023");
    }
}
