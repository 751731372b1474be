//! The data-carrying DDR4 device model.
//!
//! [`DramDevice`] executes decoded [`DramCommand`]s on a picosecond timeline,
//! tracks every JEDEC timing rule, and — crucially for EasyDRAM — **executes
//! violating commands with defined behavioural consequences** instead of
//! rejecting them:
//!
//! * `RD` before tRCD: returned data is correct only for cache lines whose
//!   variation threshold permits the applied tRCD (paper §8).
//! * `ACT → PRE → ACT` in quick succession: an FPM RowClone attempt whose
//!   success is governed by the subarray constraint and the pair-reliability
//!   model (paper §7).
//! * Early `PRE` with dirty row buffer: the incomplete restore loses writes.
//! * Activating a row more than its `HCfirst` times in a refresh window:
//!   read-disturbance bit flips in its blast radius, when disturbance
//!   modeling is on.
//!
//! # One copy of the data
//!
//! The **array** is the only place row contents live: a slab of materialised
//! rows, found through a lazily paged table indexed by
//! `row * banks + bank` (no hashing; untouched regions cost one null pointer
//! per 256 records). The same per-row record carries the row's
//! read-disturbance counter.
//!
//! A bank's **sense amplifiers** are not a copy of the open row. `ACT`
//! records which array row is open and copies nothing; `RD` reads the line
//! straight from the array. `WR` lands in a per-bank *overlay* — one
//! row-sized scratch buffer plus a bitmap of the lines written since the
//! `ACT` — and `RD` prefers an overlaid line. The array is updated only when
//! the cells would be:
//!
//! * a `PRE` that meets tRAS/tWR copies the written lines into the array (a
//!   clean `PRE` leaves it as it is);
//! * a `PRE` that violates them blends old and new contents word by word;
//! * an `ACT` or `RFM` landing on an open bank discards the overlay — the
//!   writes never reach the cells;
//! * RowClone, disturbance flips and the host backdoor (`write_line` /
//!   `write_row`) write the array directly. A backdoor write
//!   to the open row also drops the overlay lines it covers, so array and
//!   sense amplifiers agree there.
//!
//! [`DramDevice::line_data`] / [`DramDevice::row_data`] read the array, so
//! they show a `WR` only after its `PRE`.

use crate::bank::{RankTiming, MAX_ISSUE_PS};
use crate::command::{DramCommand, LINE_BYTES};
use crate::config::DramConfig;
use crate::det::{hash_coords, hash_extend};
use crate::error::{DramError, TimingRule, TimingViolation};
use crate::ring::TraceRing;
use crate::stats::DeviceStats;
use crate::timing::TimingParams;
use crate::variation::VariationModel;

/// Maximum ACT→PRE and PRE→ACT gaps (ps) that trigger a RowClone attempt.
///
/// Real FPM RowClone uses gaps of 1–2 command clocks (≈3 ns at DDR4-1333);
/// we accept anything up to 4 command clocks, comfortably below tRP/tRAS.
const ROWCLONE_GAP_MAX_PS: u64 = 6_000;

/// Result of a recognized RowClone attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowCloneOutcome {
    /// Bank in which the in-DRAM copy was attempted.
    pub bank: u32,
    /// Source row (previously open row).
    pub src_row: u32,
    /// Destination row (newly activated row).
    pub dst_row: u32,
    /// Whether the destination now holds an exact copy of the source.
    pub success: bool,
}

/// Everything that happened when one command was issued.
#[derive(Debug, Clone, Default)]
pub struct CmdOutcome {
    /// Timing rules the command violated (empty for legal commands).
    pub violations: Vec<TimingViolation>,
    /// The cache line returned by a `RD`.
    pub read_data: Option<[u8; LINE_BYTES]>,
    /// Whether the returned read data is known-corrupt (reduced-tRCD failure
    /// or closed-bank read).
    pub read_corrupted: bool,
    /// Present when the command completed a RowClone attempt.
    pub rowclone: Option<RowCloneOutcome>,
    /// Time at which the command's effects complete (data on bus for column
    /// commands, bank ready otherwise), in ps.
    pub completion_ps: u64,
}

/// Where the device puts what commands produce, as they produce it: a
/// [`CmdOutcome`] holds one command's worth, the Bender readback buffers a
/// whole program's. Nothing is built per command and handed back.
pub trait CmdSink {
    /// The cache line a `RD` returned, and whether it is known-corrupt.
    fn read(&mut self, data: &[u8; LINE_BYTES], corrupted: bool);
    /// A recognized RowClone attempt.
    fn rowclone(&mut self, outcome: RowCloneOutcome);
    /// The violation list. The device appends to it, and asks for it only
    /// when a command is illegal.
    fn violations(&mut self) -> &mut Vec<TimingViolation>;
}

impl CmdSink for CmdOutcome {
    fn read(&mut self, data: &[u8; LINE_BYTES], corrupted: bool) {
        self.read_data = Some(*data);
        self.read_corrupted = corrupted;
    }

    fn rowclone(&mut self, outcome: RowCloneOutcome) {
        self.rowclone = Some(outcome);
    }

    fn violations(&mut self) -> &mut Vec<TimingViolation> {
        &mut self.violations
    }
}

/// Rows per page of the row table.
const PAGE_ROWS: usize = 256;

type RowPage = [RowRecord; PAGE_ROWS];

/// What the row table knows about one row.
#[derive(Debug, Clone, Copy)]
struct RowRecord {
    /// Index of the row's data in [`DramDevice::rows`]; [`RowRecord::UNTOUCHED`]
    /// until the row is first touched.
    slot: usize,
    /// Activations within hammer window `epoch` (stale, i.e. zero, once the
    /// device's epoch has moved on).
    hammer: u64,
    epoch: u64,
    /// The row's `HCfirst`, hashed on its first counted activation; 0 until
    /// then (a threshold is at least 1, and the device's variation model
    /// never changes, so a stored threshold cannot go stale).
    hc_first: u64,
}

impl RowRecord {
    const UNTOUCHED: usize = usize::MAX;
    const EMPTY: Self = Self {
        slot: Self::UNTOUCHED,
        hammer: 0,
        epoch: 0,
        hc_first: 0,
    };
}

/// The row a bank currently holds in its sense amplifiers.
#[derive(Debug, Clone, Copy)]
struct OpenRow {
    row: u32,
    /// The row's index in [`DramDevice::rows`].
    slot: usize,
    act_ps: u64,
    /// Whether a `WR` landed since the `ACT` (a backdoor write that
    /// overtakes it does not clear this: the `PRE` still restores).
    dirty: bool,
}

/// One bank's sense amplifiers: which array row is open, plus the lines
/// written since its `ACT`. Lines not in `written` are read from the array.
#[derive(Debug, Clone)]
struct SenseAmps {
    open: Option<OpenRow>,
    /// Row-sized scratch holding the written lines; empty until the bank's
    /// first `WR`, then kept for the device's lifetime.
    overlay: Vec<u8>,
    /// One bit per column: the line lives in `overlay`, not in the array.
    written: Vec<u64>,
}

impl SenseAmps {
    fn is_written(&self, col: u32) -> bool {
        self.written[col as usize / 64] >> (col % 64) & 1 == 1
    }

    fn mark_written(&mut self, col: u32) {
        self.written[col as usize / 64] |= 1 << (col % 64);
    }

    fn drop_written(&mut self, col: u32) {
        self.written[col as usize / 64] &= !(1 << (col % 64));
    }

    /// Copies every written line into `array`, the open row's cells.
    fn restore_into(&self, array: &mut [u8]) {
        for (word, &bits) in self.written.iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                let start = (word * 64 + bits.trailing_zeros() as usize) * LINE_BYTES;
                array[start..start + LINE_BYTES]
                    .copy_from_slice(&self.overlay[start..start + LINE_BYTES]);
                bits &= bits - 1;
            }
        }
    }
}

/// Number of rows on each side of a hammered row that can flip (paper-lineage
/// blast radius: RowHammer disturbs up to two physically adjacent rows).
pub const BLAST_RADIUS: u32 = 2;

/// In-bounds rows within `radius` of `row` on both sides, nearest first
/// (the row itself excluded). The one neighbor enumeration shared by flip
/// injection, RFM counter bookkeeping, and controller mitigation policies,
/// so the neighborhood semantics stay coherent across layers.
pub fn blast_neighbors(row: u32, rows_per_bank: u32, radius: u32) -> impl Iterator<Item = u32> {
    (1..=radius).flat_map(move |d| {
        [row.checked_sub(d), row.checked_add(d)]
            .into_iter()
            .flatten()
            .filter(move |&v| v < rows_per_bank)
    })
}

/// One executed DRAM command, as recorded by the device's optional command
/// trace ring. Timestamps are the emulated picoseconds the command was
/// issued at — the device has no other notion of time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CmdRecord {
    /// Emulated issue time, ps.
    pub ps: u64,
    /// Command mnemonic (`ACT`, `PRE`, `PREA`, `RD`, `WR`, `REF`, `RFM`).
    pub mnemonic: &'static str,
    /// Flat bank index (0 for rank-scoped commands).
    pub bank: u32,
    /// Row for `ACT`/`RFM`, column for `RD`/`WR`, 0 otherwise.
    pub arg: u32,
}

/// The modeled DDR4 rank.
#[derive(Debug, Clone)]
pub struct DramDevice {
    cfg: DramConfig,
    rank: RankTiming,
    variation: VariationModel,
    /// The array: every row touched so far, in first-touch order. Rows are
    /// never removed, so a slot stays valid for the device's lifetime.
    rows: Vec<Vec<u8>>,
    /// [`DramDevice::row_index`] → [`RowRecord`], in pages of [`PAGE_ROWS`]
    /// allocated on first touch.
    row_table: Vec<Option<Box<RowPage>>>,
    /// Per-bank sense amplifiers.
    banks: Vec<SenseAmps>,
    now_ps: u64,
    nonce: u64,
    stats: DeviceStats,
    /// The current hammer window. A row's activation count
    /// ([`RowRecord::hammer`]) is live only while its `epoch` equals this,
    /// so `REF` (or `t_refw` elapsing — see [`DramDevice::note_hammer`])
    /// resets every counter by incrementing it. Counters only move when
    /// disturbance modeling is on; `RFM` zeroes its neighborhood in place.
    hammer_epoch: u64,
    /// Start of the current hammer window, ps.
    hammer_window_start_ps: u64,
    /// Lifetime ACT count per bank (surfaced into per-channel reports so
    /// contention and hammering hot spots are visible).
    acts_per_bank: Vec<u64>,
    /// Optional command trace: every executed command's `(ps, mnemonic,
    /// bank, arg)` in a fixed ring. `None` (the default) keeps the hot path
    /// at a single branch.
    cmd_trace: Option<TraceRing<CmdRecord>>,
}

impl DramDevice {
    /// Creates a device from `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation; construct configs through
    /// [`DramConfig`] helpers to avoid this.
    #[must_use]
    pub fn new(cfg: DramConfig) -> Self {
        cfg.validate().expect("invalid DRAM configuration");
        let rank = RankTiming::new(cfg.geometry.clone(), cfg.timing.clone());
        let variation = VariationModel::new(cfg.variation.clone(), cfg.geometry.clone());
        let banks = cfg.geometry.banks() as usize;
        let rows = banks * cfg.geometry.rows_per_bank as usize;
        let amps = SenseAmps {
            open: None,
            overlay: Vec::new(),
            written: vec![0; cfg.geometry.cols_per_row().div_ceil(64) as usize],
        };
        Self {
            cfg,
            rank,
            variation,
            rows: Vec::new(),
            row_table: vec![None; rows.div_ceil(PAGE_ROWS)],
            banks: vec![amps; banks],
            now_ps: 0,
            nonce: 0,
            stats: DeviceStats::default(),
            hammer_epoch: 0,
            hammer_window_start_ps: 0,
            acts_per_bank: vec![0; banks],
            cmd_trace: None,
        }
    }

    /// Enables command tracing into a fixed-capacity overwrite-oldest ring
    /// of at most `capacity` records (minimum 1), replacing any prior ring.
    pub fn enable_cmd_trace(&mut self, capacity: usize) {
        self.cmd_trace = Some(TraceRing::new(capacity));
    }

    /// Drains the command trace in issue order (oldest surviving record
    /// first), returning the records and how many were overwritten. Empty
    /// when tracing is disabled; tracing stays enabled afterwards.
    pub fn take_cmd_trace(&mut self) -> (Vec<CmdRecord>, u64) {
        let mut out = Vec::new();
        let dropped = self
            .cmd_trace
            .as_mut()
            .map_or(0, |ring| ring.drain_into(&mut out));
        (out, dropped)
    }

    /// The device's timing bin.
    #[must_use]
    pub fn timing(&self) -> &TimingParams {
        &self.cfg.timing
    }

    /// The device's configuration.
    #[must_use]
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// The device's variation field.
    #[must_use]
    pub fn variation(&self) -> &VariationModel {
        &self.variation
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    /// Current device time (the issue time of the latest command), in ps.
    #[must_use]
    pub fn now_ps(&self) -> u64 {
        self.now_ps
    }

    /// The row currently open in `bank`, if any.
    #[must_use]
    pub fn open_row(&self, bank: u32) -> Option<u32> {
        self.rank.open_row(bank)
    }

    /// Activations of `(bank, row)` within the current refresh window.
    /// Always 0 when disturbance modeling is off.
    #[must_use]
    pub fn hammer_count(&self, bank: u32, row: u32) -> u64 {
        let g = &self.cfg.geometry;
        if bank >= g.banks() || row >= g.rows_per_bank {
            return 0;
        }
        let idx = self.row_index(bank, row);
        match &self.row_table[idx / PAGE_ROWS] {
            Some(page) if page[idx % PAGE_ROWS].epoch == self.hammer_epoch => {
                page[idx % PAGE_ROWS].hammer
            }
            _ => 0,
        }
    }

    /// Lifetime ACT count of every bank, indexed by flat bank.
    #[must_use]
    pub fn acts_per_bank(&self) -> &[u64] {
        &self.acts_per_bank
    }

    /// Earliest time `cmd` would satisfy all timing rules.
    ///
    /// Two spacings bind this time without a rule that
    /// [`RankTiming::check`] names, so before it a command can be illegal
    /// with no violation listed: a `WR` inside the read→write bus drain,
    /// and a `PRE` within tRAS of the last `ACT` to a bank already
    /// precharged (see [`RankTiming::is_legal`]).
    #[must_use]
    pub fn earliest_issue_ps(&self, cmd: &DramCommand) -> u64 {
        self.rank.earliest_issue_ps(cmd)
    }

    fn next_nonce(&mut self) -> u64 {
        self.nonce += 1;
        self.nonce
    }

    /// What every issue path asks first: coordinates inside the geometry
    /// (three compares on outside input) and a time the clock can take.
    fn bounds_check(&self, cmd: &DramCommand, now_ps: u64) -> Result<(), DramError> {
        if now_ps < self.now_ps {
            return Err(DramError::TimeWentBackwards {
                now_ps: self.now_ps,
                requested_ps: now_ps,
            });
        }
        if now_ps > MAX_ISSUE_PS {
            return Err(DramError::TimeOutOfRange {
                requested_ps: now_ps,
                limit_ps: MAX_ISSUE_PS,
            });
        }
        let g = &self.cfg.geometry;
        if let Some(bank) = cmd.bank() {
            if bank >= g.banks() {
                return Err(DramError::OutOfRange {
                    what: "bank",
                    value: u64::from(bank),
                    limit: u64::from(g.banks()),
                });
            }
        }
        match *cmd {
            DramCommand::Activate { row, .. } | DramCommand::RefreshRow { row, .. }
                if row >= g.rows_per_bank =>
            {
                Err(DramError::OutOfRange {
                    what: "row",
                    value: u64::from(row),
                    limit: u64::from(g.rows_per_bank),
                })
            }
            DramCommand::Read { col, .. } | DramCommand::Write { col, .. }
                if col >= g.cols_per_row() =>
            {
                Err(DramError::OutOfRange {
                    what: "col",
                    value: u64::from(col),
                    limit: u64::from(g.cols_per_row()),
                })
            }
            _ => Ok(()),
        }
    }

    /// Host-side backdoor: reads a whole row's array contents (bypassing
    /// timing), materializing deterministic power-on garbage on first touch.
    ///
    /// Mirrors DRAM Bender's host DMA interface, which EasyDRAM's host tools
    /// use for result checking.
    pub fn row_data(&mut self, bank: u32, row: u32) -> &[u8] {
        self.row_entry(bank, row)
    }

    /// Host-side backdoor: overwrites a whole row's array contents.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not exactly one row long.
    pub fn write_row(&mut self, bank: u32, row: u32, bytes: &[u8]) {
        let row_bytes = self.cfg.geometry.row_bytes as usize;
        assert_eq!(
            bytes.len(),
            row_bytes,
            "row write must be exactly {row_bytes} bytes"
        );
        self.row_entry(bank, row).copy_from_slice(bytes);
        // The sense amplifiers of an open row follow the backdoor write.
        let amps = &mut self.banks[bank as usize];
        if amps.open.is_some_and(|open| open.row == row) {
            amps.written.fill(0);
        }
    }

    /// Host-side backdoor: reads one cache line from the array.
    pub fn line_data(&mut self, bank: u32, row: u32, col: u32) -> [u8; LINE_BYTES] {
        let start = col as usize * LINE_BYTES;
        let mut out = [0u8; LINE_BYTES];
        out.copy_from_slice(&self.row_entry(bank, row)[start..start + LINE_BYTES]);
        out
    }

    /// Host-side backdoor: writes one cache line into the array.
    pub fn write_line(&mut self, bank: u32, row: u32, col: u32, data: &[u8; LINE_BYTES]) {
        let start = col as usize * LINE_BYTES;
        self.row_entry(bank, row)[start..start + LINE_BYTES].copy_from_slice(data);
        let amps = &mut self.banks[bank as usize];
        if amps.open.is_some_and(|open| open.row == row) {
            amps.drop_written(col);
        }
    }

    /// Row-major, so the rows a small footprint touches — the same few row
    /// numbers in every bank, since the address mapping puts the row bits
    /// on top — share table pages.
    fn row_index(&self, bank: u32, row: u32) -> usize {
        row as usize * self.cfg.geometry.banks() as usize + bank as usize
    }

    fn record_mut(&mut self, idx: usize) -> &mut RowRecord {
        let page = self.row_table[idx / PAGE_ROWS]
            .get_or_insert_with(|| Box::new([RowRecord::EMPTY; PAGE_ROWS]));
        &mut page[idx % PAGE_ROWS]
    }

    /// The array slot of `(bank, row)`, materializing deterministic power-on
    /// garbage on first touch.
    fn row_slot(&mut self, bank: u32, row: u32) -> usize {
        let g = &self.cfg.geometry;
        assert!(bank < g.banks(), "bank {bank} out of range");
        assert!(row < g.rows_per_bank, "row {row} out of range");
        let idx = self.row_index(bank, row);
        let slot = self.record_mut(idx).slot;
        if slot != RowRecord::UNTOUCHED {
            return slot;
        }
        // Everything but the word index is hashed once per row, not per word.
        let seed = self.cfg.variation.seed;
        let of_row = hash_coords(seed, b"power-on", &[u64::from(bank), u64::from(row)]);
        let mut bytes = vec![0u8; self.cfg.geometry.row_bytes as usize];
        for (i, chunk) in bytes.chunks_mut(8).enumerate() {
            let src = hash_extend(of_row, i as u64).to_le_bytes();
            chunk.copy_from_slice(&src[..chunk.len()]);
        }
        let slot = self.rows.len();
        self.record_mut(idx).slot = slot;
        self.rows.push(bytes);
        slot
    }

    fn row_entry(&mut self, bank: u32, row: u32) -> &mut [u8] {
        let slot = self.row_slot(bank, row);
        &mut self.rows[slot]
    }

    fn corrupt_line(data: &mut [u8], seed: u64, nonce: u64) {
        // Flip 1–8 bits chosen deterministically from the nonce.
        let h = hash_coords(seed, b"corrupt", &[nonce]);
        let flips = 1 + (h % 8) as usize;
        for i in 0..flips {
            let hb = hash_coords(seed, b"corrupt-bit", &[nonce, i as u64]);
            let byte = (hb as usize / 8) % data.len();
            let bit = (hb % 8) as u8;
            data[byte] ^= 1 << bit;
        }
    }

    fn corrupt_mix(src: &[u8], dst: &mut [u8], seed: u64, nonce: u64) {
        // A failed in-DRAM copy leaves each 64-bit word as either the source
        // word, the stale destination word, or a bit-flipped blend.
        for (i, chunk) in dst.chunks_mut(8).enumerate() {
            let h = hash_coords(seed, b"mix", &[nonce, i as u64]);
            let s = &src[i * 8..i * 8 + chunk.len()];
            match h % 4 {
                0 | 1 => chunk.copy_from_slice(s),
                2 => {} // keep stale destination
                _ => {
                    chunk.copy_from_slice(s);
                    chunk[(h >> 8) as usize % chunk.len()] ^= 1 << ((h >> 16) % 8);
                }
            }
        }
    }

    /// Issues `cmd` at `now_ps`, executing it even if it violates timing
    /// rules; the outcome lists every violated rule and carries the
    /// behavioural consequences. [`DramDevice::issue_into`] with a
    /// [`CmdOutcome`] for its sink.
    ///
    /// # Errors
    ///
    /// Returns an error only for out-of-range coordinates or a time the
    /// clock cannot take — never for timing violations.
    pub fn issue_raw(&mut self, cmd: DramCommand, now_ps: u64) -> Result<CmdOutcome, DramError> {
        let mut out = CmdOutcome::default();
        out.completion_ps = self.issue_into(&cmd, now_ps, &mut out)?;
        Ok(out)
    }

    /// Issues `cmd` at exactly `now_ps`, violating or not, appending what it
    /// produces to `sink`. Returns the time its effects complete (data on
    /// the bus for column commands, bank ready otherwise), in ps.
    ///
    /// # Errors
    ///
    /// As [`DramDevice::issue_raw`]; nothing ran and `sink` is untouched.
    #[inline]
    pub fn issue_into(
        &mut self,
        cmd: &DramCommand,
        now_ps: u64,
        sink: &mut dyn CmdSink,
    ) -> Result<u64, DramError> {
        self.bounds_check(cmd, now_ps)?;
        let legal = self.rank.is_legal(cmd, now_ps);
        Ok(self.execute(cmd, now_ps, legal, sink))
    }

    /// Issues `cmd` at its earliest JEDEC-legal time that is not before
    /// `floor_ps` (nor before device time), appending what it produces to
    /// `sink`. Returns `(issue time, completion time)`. One table walk finds
    /// the time and judges the command: at or after its earliest time it is
    /// legal unless the bank state does not admit it.
    ///
    /// # Errors
    ///
    /// As [`DramDevice::issue_raw`]; nothing ran and `sink` is untouched.
    #[inline]
    pub fn issue_earliest_into(
        &mut self,
        cmd: &DramCommand,
        floor_ps: u64,
        sink: &mut dyn CmdSink,
    ) -> Result<(u64, u64), DramError> {
        let (earliest_ps, admits) = self.rank.admission(cmd);
        let now_ps = earliest_ps.max(floor_ps).max(self.now_ps);
        self.bounds_check(cmd, now_ps)?;
        Ok((now_ps, self.execute(cmd, now_ps, admits, sink)))
    }

    /// The one place a command runs. `legal` is the caller's verdict from
    /// [`RankTiming::admission`]; a legal command needs no rule enumeration
    /// and no allocation, an illegal (or drain-gapped) one falls back to
    /// the enumerating checker.
    fn execute(
        &mut self,
        cmd: &DramCommand,
        now_ps: u64,
        legal: bool,
        sink: &mut dyn CmdSink,
    ) -> u64 {
        let violations: &[TimingViolation] = if legal {
            &[]
        } else {
            let list = sink.violations();
            let first = list.len();
            list.append(&mut self.rank.check(cmd, now_ps));
            &list[first..]
        };
        self.stats.violations += violations.len() as u64;
        self.now_ps = now_ps;
        if let Some(ring) = self.cmd_trace.as_mut() {
            ring.push(CmdRecord {
                ps: now_ps,
                mnemonic: cmd.mnemonic(),
                bank: cmd.bank().unwrap_or(0),
                arg: match *cmd {
                    DramCommand::Activate { row, .. } | DramCommand::RefreshRow { row, .. } => row,
                    DramCommand::Read { col, .. } | DramCommand::Write { col, .. } => col,
                    _ => 0,
                },
            });
        }
        let done_ps;
        match *cmd {
            DramCommand::Activate { bank, row } => {
                done_ps = now_ps + self.cfg.timing.t_rcd_ps;
                self.stats.activates += 1;
                self.acts_per_bank[bank as usize] += 1;
                self.note_hammer(bank, row);
                let track = self.rank.bank(bank);
                let clone_src = match (
                    track.prev_open_row,
                    track.last_pre_event_ps(),
                    track.last_act_event_ps(),
                ) {
                    (Some(src), Some(pre_ps), Some(act_ps)) => {
                        let pre_gap = now_ps.saturating_sub(pre_ps);
                        let act_pre_gap = pre_ps.saturating_sub(act_ps);
                        (pre_gap <= ROWCLONE_GAP_MAX_PS
                            && act_pre_gap <= ROWCLONE_GAP_MAX_PS
                            && src != row)
                            .then_some(src)
                    }
                    _ => None,
                };
                if let Some(src) = clone_src {
                    sink.rowclone(self.perform_rowclone(bank, src, row, now_ps));
                } else {
                    let slot = self.row_slot(bank, row);
                    self.open_bank(bank, row, slot, now_ps);
                }
            }
            DramCommand::Precharge { bank } => {
                done_ps = now_ps + self.cfg.timing.t_rp_ps;
                self.stats.precharges += 1;
                self.precharge_bank(bank, violations);
            }
            DramCommand::PrechargeAll => {
                done_ps = now_ps + self.cfg.timing.t_rp_ps;
                self.stats.precharges += 1;
                for bank in 0..self.cfg.geometry.banks() {
                    self.precharge_bank(bank, violations);
                }
            }
            DramCommand::Read { bank, col } => {
                done_ps = now_ps + self.cfg.timing.read_latency_ps();
                self.stats.reads += 1;
                let corrupted = self.read_line(bank, col, now_ps, sink);
                self.stats.corrupted_reads += u64::from(corrupted);
            }
            DramCommand::Write {
                bank,
                col,
                ref data,
            } => {
                done_ps = now_ps + self.cfg.timing.write_latency_ps();
                self.stats.writes += 1;
                self.write_line_buffered(bank, col, data, now_ps);
            }
            DramCommand::Refresh => {
                self.stats.refreshes += 1;
                done_ps = now_ps + self.cfg.timing.t_rfc_ps;
                // Refreshing every row closes the disturbance window: all
                // per-row activation counters reset. (This device models one
                // rank-folded channel, so a rank-level REF covers everything
                // it holds; ranks of a multi-rank channel share the fold.)
                self.hammer_epoch += 1;
                self.hammer_window_start_ps = now_ps;
            }
            DramCommand::RefreshRow { bank, row } => {
                self.stats.targeted_refreshes += 1;
                done_ps = now_ps + self.cfg.timing.t_rfm_ps;
                // An RFM on an open bank tramples the sense amplifiers with
                // its internal activation: whatever was written since the ACT
                // is lost without restore, mirroring the illegal-ACT
                // consequence.
                if violations
                    .iter()
                    .any(|v| v.rule == TimingRule::RefWithOpenRows)
                {
                    self.banks[bank as usize].open = None;
                }
                // Restoring the row's cells neutralizes the disturbance its
                // neighborhood accumulated: the window counters of `row` and
                // of every row whose blast radius covers it reset.
                // Mitigations refresh every victim of a detected aggressor
                // in one action, so this conservative neighborhood reset
                // matches RFM-style bookkeeping.
                if self.cfg.variation.disturb_enabled {
                    let rows = self.cfg.geometry.rows_per_bank;
                    for r in std::iter::once(row).chain(blast_neighbors(row, rows, BLAST_RADIUS)) {
                        let idx = self.row_index(bank, r);
                        self.record_mut(idx).hammer = 0;
                    }
                }
            }
        }
        self.rank.apply(cmd, now_ps);
        done_ps
    }

    /// Read-disturbance bookkeeping for one ACT: counts the activation in
    /// the refresh window and, once the row's count exceeds its seeded
    /// `HCfirst`, deterministically flips victim bits within the
    /// ±[`BLAST_RADIUS`]-row, same-subarray neighborhood (sense-amplifier
    /// stripes isolate subarrays). Flips are sticky array corruption — a
    /// later refresh restores whatever (corrupt) value is stored, exactly
    /// like real RowHammer — so mitigation must refresh victims *before*
    /// the threshold is reached.
    fn note_hammer(&mut self, bank: u32, row: u32) {
        if !self.cfg.variation.disturb_enabled {
            return;
        }
        // Windows also close by time: real refresh walks every row once per
        // tREFW, so counters older than one refresh window encode damage
        // that periodic refresh has already undone. Controllers never relay
        // the timeline's periodic REF to the device, so without this expiry
        // a long benign run would accumulate phantom hammer pressure across
        // refresh windows. (Like the explicit REF path, expiry closes the
        // whole rank-folded window at once.)
        if self.now_ps.saturating_sub(self.hammer_window_start_ps) >= self.cfg.timing.t_refw_ps {
            self.hammer_epoch += 1;
            self.hammer_window_start_ps = self.now_ps;
        }
        let epoch = self.hammer_epoch;
        let idx = self.row_index(bank, row);
        let rec = self.record_mut(idx);
        if rec.epoch != epoch {
            rec.epoch = epoch;
            rec.hammer = 0;
        }
        rec.hammer += 1;
        let (count, mut hc_first) = (rec.hammer, rec.hc_first);
        if hc_first == 0 {
            hc_first = self.variation.hc_first(bank, row);
            self.record_mut(idx).hc_first = hc_first;
        }
        if count <= hc_first {
            return;
        }
        let seed = self.cfg.variation.seed;
        let window = self.hammer_window_start_ps;
        for victim in blast_neighbors(row, self.cfg.geometry.rows_per_bank, BLAST_RADIUS) {
            // Sense-amplifier stripes isolate subarrays: disturbance never
            // crosses a subarray boundary.
            let g = &self.cfg.geometry;
            if g.subarray_of(victim) != g.subarray_of(row) {
                continue;
            }
            if !self
                .variation
                .disturb_flips(bank, victim, row, count, window)
            {
                continue;
            }
            let h = hash_coords(
                seed,
                b"rh-bit",
                &[
                    u64::from(bank),
                    u64::from(victim),
                    u64::from(row),
                    count,
                    window,
                ],
            );
            // Only the array: if the victim is the row open in `bank`, the
            // ACT being counted is about to discard its sense amplifiers.
            let bytes = self.row_entry(bank, victim);
            let byte = (h as usize / 8) % bytes.len();
            bytes[byte] ^= 1 << (h % 8);
            self.stats.disturbance_flips += 1;
        }
    }

    fn perform_rowclone(&mut self, bank: u32, src: u32, dst: u32, now_ps: u64) -> RowCloneOutcome {
        self.stats.rowclone_attempts += 1;
        let nonce = self.next_nonce();
        let seed = self.cfg.variation.seed;
        let success = self.variation.rowclone_ok(bank, src, dst, nonce);
        if success {
            self.stats.rowclone_successes += 1;
        }
        let src_slot = self.row_slot(bank, src);
        let dst_slot = self.row_slot(bank, dst);
        // `src != dst`; lend the source bytes out while the destination is
        // written.
        let src_bytes = std::mem::take(&mut self.rows[src_slot]);
        let dst_bytes = &mut self.rows[dst_slot];
        if success {
            dst_bytes.copy_from_slice(&src_bytes);
        } else {
            Self::corrupt_mix(&src_bytes, dst_bytes, seed, nonce);
        }
        self.rows[src_slot] = src_bytes;
        self.open_bank(bank, dst, dst_slot, now_ps);
        RowCloneOutcome {
            bank,
            src_row: src,
            dst_row: dst,
            success,
        }
    }

    /// `ACT`: the sense amplifiers now hold array row `slot`. Nothing is
    /// copied; whatever the bank held un-restored (an `ACT` on an open bank)
    /// is gone.
    fn open_bank(&mut self, bank: u32, row: u32, slot: usize, now_ps: u64) {
        let amps = &mut self.banks[bank as usize];
        amps.written.fill(0);
        amps.open = Some(OpenRow {
            row,
            slot,
            act_ps: now_ps,
            dirty: false,
        });
    }

    // The interrupted restore (a snapshot) is out of line. A clean close
    // leaves the array as it is (restoration of a recently-activated row
    // survives an early PRE).
    fn precharge_bank(&mut self, bank: u32, violations: &[TimingViolation]) {
        let Some(open) = self.banks[bank as usize].open.take() else {
            return;
        };
        if open.dirty {
            let nonce = self.next_nonce();
            let restore_violated = violations
                .iter()
                .any(|v| matches!(v.rule, TimingRule::Tras | TimingRule::Twr));
            if restore_violated {
                self.restore_interrupted(bank, open.slot, nonce);
            } else {
                self.banks[bank as usize].restore_into(&mut self.rows[open.slot]);
            }
        }
    }

    /// Incomplete restore (tRAS/tWR violated): the cells end up a word-wise
    /// blend of what they held and what the sense amplifiers held, so writes
    /// are partially lost.
    fn restore_interrupted(&mut self, bank: u32, slot: usize, nonce: u64) {
        let array = &mut self.rows[slot];
        let old = array.clone();
        self.banks[bank as usize].restore_into(array);
        Self::corrupt_mix(&old, array, self.cfg.variation.seed, nonce);
    }

    /// Hands `sink` the line a `RD` returns and says whether it is corrupt.
    /// A read at nominal tRCD lends the line where it lies, in the array or
    /// the overlay: its one copy is the sink's.
    fn read_line(&mut self, bank: u32, col: u32, now_ps: u64, sink: &mut dyn CmdSink) -> bool {
        let seed = self.cfg.variation.seed;
        let amps = &self.banks[bank as usize];
        let Some(open) = amps.open else {
            // Reading a precharged bank: bus garbage.
            let nonce = self.next_nonce();
            let mut data = [0u8; LINE_BYTES];
            for (i, chunk) in data.chunks_mut(8).enumerate() {
                let h = hash_coords(seed, b"bus-garbage", &[nonce, i as u64]);
                chunk.copy_from_slice(&h.to_le_bytes()[..chunk.len()]);
            }
            sink.read(&data, true);
            return true;
        };
        let applied_trcd = now_ps.saturating_sub(open.act_ps);
        let start = col as usize * LINE_BYTES;
        let src = if amps.is_written(col) {
            &amps.overlay
        } else {
            &self.rows[open.slot]
        };
        let line: &[u8; LINE_BYTES] = src[start..start + LINE_BYTES]
            .try_into()
            .expect("a line-sized slice");
        if applied_trcd >= self.cfg.timing.t_rcd_ps {
            sink.read(line, false);
            return false;
        }
        let mut data = *line;
        self.stats.reduced_trcd_reads += 1;
        let nonce = self.next_nonce();
        let corrupted = !self
            .variation
            .read_ok(bank, open.row, col, applied_trcd, nonce);
        if corrupted {
            Self::corrupt_line(&mut data, seed, nonce);
        }
        sink.read(&data, corrupted);
        corrupted
    }

    // The overlay grows once, on the bank's first WR.
    fn write_line_buffered(&mut self, bank: u32, col: u32, data: &[u8; LINE_BYTES], now_ps: u64) {
        let nonce = self.next_nonce();
        let amps = &mut self.banks[bank as usize];
        let Some(open) = &mut amps.open else {
            // Write to a precharged bank: data is lost on the floor.
            return;
        };
        let applied_trcd = now_ps.saturating_sub(open.act_ps);
        let mut payload = *data;
        if applied_trcd < self.cfg.timing.t_rcd_ps
            && !self
                .variation
                .read_ok(bank, open.row, col, applied_trcd, nonce)
        {
            Self::corrupt_line(&mut payload, self.cfg.variation.seed, nonce);
        }
        open.dirty = true;
        if amps.overlay.is_empty() {
            amps.overlay.resize(self.cfg.geometry.row_bytes as usize, 0);
        }
        let start = col as usize * LINE_BYTES;
        amps.overlay[start..start + LINE_BYTES].copy_from_slice(&payload);
        amps.mark_written(col);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DramConfig;
    use crate::variation::VariationConfig;

    fn dev() -> DramDevice {
        DramDevice::new(DramConfig::small_for_tests())
    }

    fn t() -> TimingParams {
        TimingParams::ddr4_1333()
    }

    /// Issues `cmd` at `at`, asserting that it violates no timing rule.
    fn issue_legal(d: &mut DramDevice, cmd: DramCommand, at: u64) -> CmdOutcome {
        let out = d.issue_raw(cmd, at).unwrap();
        assert!(
            out.violations.is_empty(),
            "{cmd} @ {at}: {:?}",
            out.violations
        );
        out
    }

    /// ACT + RD with legal timing, returning (outcome, completion time).
    fn read_legal(dev: &mut DramDevice, bank: u32, row: u32, col: u32, at: u64) -> CmdOutcome {
        issue_legal(dev, DramCommand::Activate { bank, row }, at);
        issue_legal(dev, DramCommand::Read { bank, col }, at + t().t_rcd_ps)
    }

    #[test]
    fn legal_read_returns_array_data() {
        let mut d = dev();
        let mut line = [0u8; LINE_BYTES];
        line[0] = 0xAB;
        line[63] = 0xCD;
        d.write_line(0, 5, 3, &line);
        let out = read_legal(&mut d, 0, 5, 3, 0);
        assert_eq!(out.read_data, Some(line));
        assert!(!out.read_corrupted);
        assert!(out.violations.is_empty());
    }

    #[test]
    fn power_on_garbage_is_deterministic() {
        let mut a = dev();
        let mut b = dev();
        assert_eq!(a.row_data(1, 7), b.row_data(1, 7));
        // And not all-zero.
        assert!(a.row_data(1, 7).iter().any(|&x| x != 0));
    }

    #[test]
    fn write_then_precharge_then_read_round_trips() {
        let mut d = dev();
        let timing = t();
        issue_legal(&mut d, DramCommand::Activate { bank: 0, row: 2 }, 0);
        let mut line = [0x5Au8; LINE_BYTES];
        line[10] = 0x10;
        let wr_at = timing.t_rcd_ps;
        issue_legal(
            &mut d,
            DramCommand::Write {
                bank: 0,
                col: 4,
                data: line,
            },
            wr_at,
        );
        let pre_at = wr_at + timing.t_cwl_ps + timing.t_burst_ps + timing.t_wr_ps;
        issue_legal(
            &mut d,
            DramCommand::Precharge { bank: 0 },
            pre_at.max(timing.t_ras_ps),
        );
        assert_eq!(d.line_data(0, 2, 4), line);
        // Re-open and read back through the DRAM path.
        let act2 = pre_at.max(timing.t_ras_ps) + timing.t_rp_ps;
        let out = read_legal(&mut d, 0, 2, 4, act2);
        assert_eq!(out.read_data, Some(line));
    }

    #[test]
    fn a_trcd_violation_executes_and_is_reported() {
        let mut d = dev();
        issue_legal(&mut d, DramCommand::Activate { bank: 0, row: 1 }, 0);
        let out = d
            .issue_raw(DramCommand::Read { bank: 0, col: 0 }, 5_000)
            .unwrap();
        assert!(out.violations.iter().any(|v| v.rule == TimingRule::Trcd));
        assert_eq!(d.stats().reduced_trcd_reads, 1);
    }

    #[test]
    fn reduced_trcd_read_above_line_threshold_is_correct() {
        let mut d = dev();
        let min = d.variation().line_min_trcd_ps(0, 1, 0);
        let mut line = [0x77u8; LINE_BYTES];
        line[1] = 0x42;
        d.write_line(0, 1, 0, &line);
        d.issue_raw(DramCommand::Activate { bank: 0, row: 1 }, 0)
            .unwrap();
        let out = d
            .issue_raw(DramCommand::Read { bank: 0, col: 0 }, min)
            .unwrap();
        assert_eq!(out.read_data, Some(line));
        assert!(!out.read_corrupted);
    }

    #[test]
    fn reduced_trcd_read_deep_below_threshold_corrupts() {
        let mut d = dev();
        let min = d.variation().line_min_trcd_ps(0, 1, 0);
        let line = [0x33u8; LINE_BYTES];
        d.write_line(0, 1, 0, &line);
        d.issue_raw(DramCommand::Activate { bank: 0, row: 1 }, 0)
            .unwrap();
        let applied = min - crate::variation::FLAKY_BAND_PS - 100;
        let out = d
            .issue_raw(DramCommand::Read { bank: 0, col: 0 }, applied)
            .unwrap();
        assert!(out.read_corrupted);
        assert_ne!(out.read_data, Some(line));
        // The array itself is unharmed.
        assert_eq!(d.line_data(0, 1, 0), line);
    }

    #[test]
    fn rowclone_within_subarray_copies_data() {
        let mut cfg = DramConfig::small_for_tests();
        cfg.variation = VariationConfig::ideal(); // all pairs reliable
        let mut d = DramDevice::new(cfg);
        let pattern: Vec<u8> = (0..8192u32).map(|i| (i % 251) as u8).collect();
        d.write_row(0, 3, &pattern);
        let timing = t();
        // Fully open + restore src first (legal ACT), then the clone sequence:
        d.issue_raw(DramCommand::Activate { bank: 0, row: 3 }, 0)
            .unwrap();
        d.issue_raw(DramCommand::Precharge { bank: 0 }, timing.t_ras_ps)
            .unwrap();
        d.issue_raw(
            DramCommand::Activate { bank: 0, row: 3 },
            timing.t_ras_ps + timing.t_rp_ps,
        )
        .unwrap();
        let base = timing.t_ras_ps + timing.t_rp_ps;
        // RowClone: PRE then ACT(dst) with tiny gaps.
        d.issue_raw(DramCommand::Precharge { bank: 0 }, base + 3_000)
            .unwrap();
        let out = d
            .issue_raw(DramCommand::Activate { bank: 0, row: 9 }, base + 6_000)
            .unwrap();
        let rc = out.rowclone.expect("should recognize rowclone");
        assert!(rc.success);
        assert_eq!((rc.src_row, rc.dst_row), (3, 9));
        assert_eq!(d.row_data(0, 9), pattern.as_slice());
        // Source row survives.
        assert_eq!(d.row_data(0, 3), pattern.as_slice());
        assert_eq!(d.stats().rowclone_successes, 1);
    }

    #[test]
    fn rowclone_across_subarrays_fails_and_corrupts_dst() {
        let mut cfg = DramConfig::small_for_tests();
        cfg.variation = VariationConfig::ideal();
        let sub = cfg.geometry.subarray_rows;
        let mut d = DramDevice::new(cfg);
        let pattern = vec![0xEEu8; 8192];
        d.write_row(0, 0, &pattern);
        let dst = sub + 1; // different subarray
        let stale = d.row_data(0, dst).to_vec();
        // The FPM sequence: ACT(src) interrupted quickly by PRE, then ACT(dst).
        d.issue_raw(DramCommand::Activate { bank: 0, row: 0 }, 0)
            .unwrap();
        d.issue_raw(DramCommand::Precharge { bank: 0 }, 3_000)
            .unwrap();
        let out = d
            .issue_raw(DramCommand::Activate { bank: 0, row: dst }, 6_000)
            .unwrap();
        let rc = out.rowclone.expect("recognized as attempt");
        assert!(!rc.success);
        let now = d.row_data(0, dst).to_vec();
        assert_ne!(now, pattern, "must not be a faithful copy");
        let _ = stale;
    }

    #[test]
    fn slow_act_pre_act_is_not_rowclone() {
        let mut d = dev();
        let timing = t();
        issue_legal(&mut d, DramCommand::Activate { bank: 0, row: 0 }, 0);
        issue_legal(&mut d, DramCommand::Precharge { bank: 0 }, timing.t_ras_ps);
        let out = issue_legal(
            &mut d,
            DramCommand::Activate { bank: 0, row: 1 },
            timing.t_ras_ps + timing.t_rp_ps,
        );
        assert!(out.rowclone.is_none());
        assert_eq!(d.stats().rowclone_attempts, 0);
    }

    #[test]
    fn early_precharge_loses_writes() {
        let mut d = dev();
        let before = d.line_data(0, 4, 0);
        d.issue_raw(DramCommand::Activate { bank: 0, row: 4 }, 0)
            .unwrap();
        let line = [0xFFu8; LINE_BYTES];
        // Write immediately (violates tRCD badly) then precharge immediately
        // (violates tRAS and tWR): restore must be incomplete.
        d.issue_raw(
            DramCommand::Write {
                bank: 0,
                col: 0,
                data: line,
            },
            100,
        )
        .unwrap();
        d.issue_raw(DramCommand::Precharge { bank: 0 }, 200)
            .unwrap();
        let after = d.line_data(0, 4, 0);
        assert_ne!(after, line, "write must not fully land");
        let _ = before;
    }

    /// Legal ACT of `row` in bank 0 at `at`, then a legal WR of `data` to
    /// `col`. Returns the time of the WR.
    fn open_and_write(
        d: &mut DramDevice,
        row: u32,
        col: u32,
        data: [u8; LINE_BYTES],
        at: u64,
    ) -> u64 {
        issue_legal(d, DramCommand::Activate { bank: 0, row }, at);
        let wr_at = at + t().t_rcd_ps;
        issue_legal(d, DramCommand::Write { bank: 0, col, data }, wr_at);
        wr_at
    }

    /// Earliest legal PRE of bank 0, issued.
    fn close_legal(d: &mut DramDevice) {
        let pre = DramCommand::Precharge { bank: 0 };
        let at = d.earliest_issue_ps(&pre).max(d.now_ps());
        issue_legal(d, pre, at);
    }

    fn read_at_earliest(d: &mut DramDevice, col: u32) -> [u8; LINE_BYTES] {
        let rd = DramCommand::Read { bank: 0, col };
        let at = d.earliest_issue_ps(&rd).max(d.now_ps());
        issue_legal(d, rd, at).read_data.unwrap()
    }

    #[test]
    fn a_write_reaches_the_array_at_precharge_not_before() {
        let mut d = dev();
        let old = d.line_data(0, 2, 4);
        let new = [0x5Au8; LINE_BYTES];
        assert_ne!(old, new);
        open_and_write(&mut d, 2, 4, new, 0);
        assert_eq!(read_at_earliest(&mut d, 4), new, "RD sees the sense amps");
        assert_eq!(d.line_data(0, 2, 4), old, "the cells are not restored yet");
        let neighbor = d.line_data(0, 2, 5);
        assert_eq!(read_at_earliest(&mut d, 5), neighbor, "unwritten line");
        close_legal(&mut d);
        assert_eq!(d.line_data(0, 2, 4), new);
        assert_eq!(d.line_data(0, 2, 5), neighbor);
    }

    #[test]
    fn backdoor_write_overtakes_an_unrestored_write() {
        let mut d = dev();
        open_and_write(&mut d, 2, 4, [0x11; LINE_BYTES], 0);
        let backdoor = [0x22u8; LINE_BYTES];
        d.write_line(0, 2, 4, &backdoor);
        assert_eq!(read_at_earliest(&mut d, 4), backdoor);
        close_legal(&mut d);
        assert_eq!(
            d.line_data(0, 2, 4),
            backdoor,
            "the PRE restores nothing older"
        );
        // Same for a whole-row backdoor write.
        let at = d.earliest_issue_ps(&DramCommand::Activate { bank: 0, row: 2 });
        open_and_write(&mut d, 2, 4, [0x33; LINE_BYTES], at);
        d.write_row(0, 2, &[0x44; 8192]);
        assert_eq!(read_at_earliest(&mut d, 4), [0x44; LINE_BYTES]);
        close_legal(&mut d);
        assert_eq!(d.line_data(0, 2, 4), [0x44; LINE_BYTES]);
    }

    #[test]
    fn act_on_an_open_bank_drops_unrestored_writes() {
        let mut d = dev();
        let old = d.line_data(0, 2, 4);
        let other = d.line_data(0, 9, 4);
        let wr_at = open_and_write(&mut d, 2, 4, [0x5A; LINE_BYTES], 0);
        let out = d
            .issue_raw(DramCommand::Activate { bank: 0, row: 9 }, wr_at + 100_000)
            .unwrap();
        assert!(out
            .violations
            .iter()
            .any(|v| v.rule == TimingRule::BankOpen));
        assert_eq!(
            read_at_earliest(&mut d, 4),
            other,
            "row 9, not row 2's write"
        );
        close_legal(&mut d);
        assert_eq!(
            d.line_data(0, 2, 4),
            old,
            "the write never reached the cells"
        );
        assert_eq!(d.line_data(0, 9, 4), other);
    }

    fn disturb_dev(hc: (u64, u64), flip_milli: u32) -> DramDevice {
        let mut cfg = DramConfig::small_for_tests();
        cfg.variation.disturb_enabled = true;
        cfg.variation.hc_first = hc;
        cfg.variation.disturb_flip_milli = flip_milli;
        DramDevice::new(cfg)
    }

    /// ACT/PRE `row` of bank 0 `n` times with legal spacing, from `start`.
    /// Returns the device time after the last precharge.
    fn hammer(d: &mut DramDevice, row: u32, n: u64, start: u64) -> u64 {
        let t = t();
        let mut now = start.max(d.now_ps());
        for _ in 0..n {
            d.issue_raw(DramCommand::Activate { bank: 0, row }, now)
                .unwrap();
            now += t.t_ras_ps;
            d.issue_raw(DramCommand::Precharge { bank: 0 }, now)
                .unwrap();
            now += t.t_rp_ps;
        }
        now
    }

    #[test]
    fn hammering_beyond_hc_first_flips_only_the_blast_radius() {
        let mut d = disturb_dev((8, 16), 500);
        let victim_rows: Vec<u32> = (60..=70).collect();
        let pattern = vec![0u8; 8192];
        for &r in &victim_rows {
            d.write_row(0, r, &pattern);
        }
        let hc = d.variation().hc_first(0, 65);
        assert!(hc <= 16);
        hammer(&mut d, 65, hc + 200, 0);
        assert!(
            d.stats().disturbance_flips > 0,
            "sustained over-threshold hammering must flip victim bits"
        );
        for &r in &victim_rows {
            let dirty = d.row_data(0, r).iter().any(|&b| b != 0);
            if r.abs_diff(65) == 0 || r.abs_diff(65) > BLAST_RADIUS {
                assert!(!dirty, "row {r} is outside the blast radius");
            }
        }
        // The adjacent victims took the damage.
        let near_dirty = [64u32, 66]
            .iter()
            .any(|&r| d.row_data(0, r).iter().any(|&b| b != 0));
        assert!(near_dirty, "±1 rows must carry flips");
    }

    #[test]
    fn refresh_resets_the_hammer_window() {
        let mut d = disturb_dev((8, 16), 500);
        let hc = d.variation().hc_first(0, 65);
        let now = hammer(&mut d, 65, hc, 0);
        assert_eq!(d.hammer_count(0, 65), hc);
        d.issue_raw(DramCommand::Refresh, now).unwrap();
        assert_eq!(d.hammer_count(0, 65), 0, "REF closes the window");
        // Post-refresh hammering starts a fresh count: staying at or below
        // the threshold flips nothing.
        let pattern = vec![0u8; 8192];
        for r in 63..=67 {
            d.write_row(0, r, &pattern);
        }
        hammer(&mut d, 65, hc, now + t().t_rfc_ps);
        assert_eq!(d.stats().disturbance_flips, 0);
    }

    #[test]
    fn targeted_refresh_resets_the_neighborhood_and_occupies_the_bank() {
        let mut d = disturb_dev((8, 16), 500);
        let hc = d.variation().hc_first(0, 65);
        let now = hammer(&mut d, 65, hc, 0);
        // RFM on the adjacent victim resets the aggressor's counter (the
        // aggressor sits inside the victim's ±2 neighborhood)…
        let out = d
            .issue_raw(DramCommand::RefreshRow { bank: 0, row: 66 }, now)
            .unwrap();
        assert!(out.violations.is_empty());
        assert_eq!(out.completion_ps, now + t().t_rfm_ps);
        assert_eq!(d.hammer_count(0, 65), 0);
        assert_eq!(d.stats().targeted_refreshes, 1);
        // …and a far row's counter survives.
        let far = hammer(&mut d, 200, 5, now + t().t_rfm_ps);
        d.issue_raw(DramCommand::RefreshRow { bank: 0, row: 100 }, far)
            .unwrap();
        assert_eq!(d.hammer_count(0, 200), 5);
    }

    #[test]
    fn hammer_window_expires_after_t_refw_without_an_explicit_ref() {
        // Controllers charge periodic refresh on the emulated timeline
        // without relaying REF commands to the device; the window must
        // still close once tREFW of device time elapses, or long benign
        // runs would accumulate phantom hammer pressure.
        let mut d = disturb_dev((8, 16), 500);
        let now = hammer(&mut d, 65, 5, 0);
        assert_eq!(d.hammer_count(0, 65), 5);
        let past_window = now + t().t_refw_ps;
        hammer(&mut d, 65, 1, past_window);
        assert_eq!(
            d.hammer_count(0, 65),
            1,
            "the stale window must expire, counting only the fresh ACT"
        );
    }

    #[test]
    fn a_flip_on_an_open_written_victim_lands_in_the_array() {
        // Certain flips at distance 1 once the aggressor is past HCfirst.
        let mut d = disturb_dev((8, 16), 1_000);
        d.write_row(0, 66, &[0u8; 8192]);
        let hc = d.variation().hc_first(0, 65);
        let now = hammer(&mut d, 65, hc, 0);
        assert_eq!(d.stats().disturbance_flips, 0);
        // Open the victim and overlay every one of its lines, so whichever
        // byte the flip picks sits under an un-restored write.
        d.issue_raw(DramCommand::Activate { bank: 0, row: 66 }, now)
            .unwrap();
        for col in 0..128 {
            let data = [0xFF; LINE_BYTES];
            let wr = DramCommand::Write { bank: 0, col, data };
            let at = d.earliest_issue_ps(&wr);
            d.issue_raw(wr, at).unwrap();
        }
        // The over-threshold ACT lands on the open bank: it flips a victim
        // cell and, by reopening the bank, discards the victim's writes.
        let at = d.now_ps() + 1_500;
        d.issue_raw(DramCommand::Activate { bank: 0, row: 65 }, at)
            .unwrap();
        assert!(d.stats().disturbance_flips >= 1);
        let array = d.row_data(0, 66).to_vec();
        let flipped: Vec<usize> = (0..array.len()).filter(|&i| array[i] != 0).collect();
        assert_eq!(flipped.len(), 1, "one flipped cell, no 0xFF line restored");
        assert_eq!(array[flipped[0]].count_ones(), 1);
        // The flip is what a later ACT senses and what its PRE leaves.
        close_legal(&mut d);
        let act = DramCommand::Activate { bank: 0, row: 66 };
        let at = d.earliest_issue_ps(&act);
        d.issue_raw(act, at).unwrap();
        let col = (flipped[0] / LINE_BYTES) as u32;
        let start = col as usize * LINE_BYTES;
        assert_eq!(
            read_at_earliest(&mut d, col)[..],
            array[start..start + LINE_BYTES]
        );
        close_legal(&mut d);
        assert_eq!(d.row_data(0, 66), array.as_slice());
    }

    #[test]
    fn window_close_and_rfm_zero_exactly_the_counters_they_cover() {
        let mut d = disturb_dev((1_000, 2_000), 500);
        let mut now = 0;
        for row in (63..=68).chain([200]) {
            now = hammer(&mut d, row, 3, now);
        }
        d.issue_raw(DramCommand::RefreshRow { bank: 0, row: 65 }, now)
            .unwrap();
        for row in 63..=67 {
            assert_eq!(
                d.hammer_count(0, row),
                0,
                "row {row} is within ±2 of the RFM"
            );
        }
        assert_eq!(d.hammer_count(0, 68), 3);
        assert_eq!(d.hammer_count(0, 200), 3);
        // tREFW expiry zeroes rows that are not re-activated, too.
        hammer(&mut d, 300, 1, now + t().t_refw_ps);
        assert_eq!([68, 200, 300].map(|row| d.hammer_count(0, row)), [0, 0, 1]);
        let now = hammer(&mut d, 200, 4, 0);
        assert_eq!(d.hammer_count(0, 200), 4);
        d.issue_raw(DramCommand::Refresh, now).unwrap();
        assert_eq!([200, 300].map(|row| d.hammer_count(0, row)), [0, 0]);
        assert_eq!(d.hammer_count(7, 0), 0, "out of range reads as untouched");
        assert_eq!(d.hammer_count(0, 1 << 20), 0);
    }

    #[test]
    fn memoised_threshold_is_never_stale() {
        // `rehashed` forgets every stored threshold before each ACT, so its
        // `note_hammer` hashes `hc_first` per activation, as the device did
        // before it kept the threshold in the row record.
        let (mut d, mut rehashed) = (disturb_dev((4, 8), 500), disturb_dev((4, 8), 500));
        let watched: Vec<(u32, u32)> = (0..2)
            .flat_map(|bank| (60..=70).chain(298..=302).map(move |row| (bank, row)))
            .collect();
        let t = t();
        let mut now = 0;
        let act = |d: &mut DramDevice, rehashed: &mut DramDevice, bank, row, at: u64| {
            for rec in rehashed
                .row_table
                .iter_mut()
                .flatten()
                .flat_map(|p| p.iter_mut())
            {
                rec.hc_first = 0;
            }
            for dev in [&mut *d, &mut *rehashed] {
                dev.issue_raw(DramCommand::Activate { bank, row }, at)
                    .unwrap();
                dev.issue_raw(DramCommand::Precharge { bank }, at + t.t_ras_ps)
                    .unwrap();
            }
            let idx = d.row_index(bank, row);
            let stored = d.record_mut(idx).hc_first;
            assert_eq!(
                stored,
                d.variation().hc_first(bank, row),
                "bank {bank} row {row} at {at}"
            );
            assert_eq!(d.stats(), rehashed.stats(), "bank {bank} row {row} at {at}");
            for &(b, r) in &watched {
                assert_eq!(d.hammer_count(b, r), rehashed.hammer_count(b, r));
                assert_eq!(
                    d.row_data(b, r),
                    rehashed.row_data(b, r),
                    "bank {b} row {r}"
                );
            }
            at + t.t_ras_ps + t.t_rp_ps
        };
        // Window 1, then a second one opened by tREFW elapsing.
        for window_start in [0, t.t_refw_ps + 1] {
            now = now.max(window_start);
            for _ in 0..12 {
                for (bank, row) in [(0, 64), (0, 66), (1, 65), (0, 300), (0, 64)] {
                    now = act(&mut d, &mut rehashed, bank, row, now);
                }
            }
        }
        assert!(d.stats().disturbance_flips > 0, "thresholds were crossed");
        // An RFM zeroes a neighbourhood's counters, a REF every counter; the
        // thresholds of the rows hammered again afterwards are still theirs.
        for cmd in [
            DramCommand::RefreshRow { bank: 0, row: 65 },
            DramCommand::Refresh,
        ] {
            for dev in [&mut d, &mut rehashed] {
                dev.issue_raw(cmd, now).unwrap();
            }
            now += t.t_rfc_ps;
            for _ in 0..10 {
                for (bank, row) in [(0, 64), (0, 66), (1, 65), (1, 300)] {
                    now = act(&mut d, &mut rehashed, bank, row, now);
                }
            }
        }
        assert_eq!(d.hammer_count(0, 64), 10, "counted since the REF only");
    }

    #[test]
    fn refresh_row_bounds_checked_like_activate() {
        let mut d = dev();
        let err = d
            .issue_raw(
                DramCommand::RefreshRow {
                    bank: 0,
                    row: 1 << 30,
                },
                0,
            )
            .unwrap_err();
        assert!(matches!(err, DramError::OutOfRange { what: "row", .. }));
        assert_eq!(d.stats().targeted_refreshes, 0, "nothing executed");
    }

    #[test]
    fn blast_neighbors_clamp_to_the_bank() {
        let xs: Vec<u32> = blast_neighbors(0, 1_024, BLAST_RADIUS).collect();
        assert_eq!(xs, vec![1, 2], "low edge keeps only the high side");
        let xs: Vec<u32> = blast_neighbors(1_023, 1_024, BLAST_RADIUS).collect();
        assert_eq!(xs, vec![1_022, 1_021], "high edge keeps only the low side");
        let xs: Vec<u32> = blast_neighbors(10, 1_024, 1).collect();
        assert_eq!(xs, vec![9, 11], "radius 1 covers exactly the adjacent rows");
    }

    #[test]
    fn disturbance_off_keeps_no_counters() {
        let mut d = dev();
        hammer(&mut d, 65, 50, 0);
        assert_eq!(d.hammer_count(0, 65), 0);
        assert_eq!(d.stats().disturbance_flips, 0);
    }

    #[test]
    fn acts_per_bank_tracks_activates() {
        let mut d = dev();
        hammer(&mut d, 3, 4, 0);
        let now = d.now_ps();
        d.issue_raw(DramCommand::Activate { bank: 1, row: 0 }, now + 1_000)
            .unwrap();
        assert_eq!(d.acts_per_bank(), &[4, 1]);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut d = dev();
        let err = d
            .issue_raw(DramCommand::Activate { bank: 99, row: 0 }, 0)
            .unwrap_err();
        assert!(matches!(err, DramError::OutOfRange { what: "bank", .. }));
        let err = d
            .issue_raw(
                DramCommand::Activate {
                    bank: 0,
                    row: 1 << 30,
                },
                0,
            )
            .unwrap_err();
        assert!(matches!(err, DramError::OutOfRange { what: "row", .. }));
        let err = d
            .issue_raw(
                DramCommand::Read {
                    bank: 0,
                    col: 1 << 20,
                },
                0,
            )
            .unwrap_err();
        assert!(matches!(err, DramError::OutOfRange { what: "col", .. }));
    }

    #[test]
    fn time_cannot_go_backwards() {
        let mut d = dev();
        d.issue_raw(DramCommand::Activate { bank: 0, row: 0 }, 1_000)
            .unwrap();
        let err = d
            .issue_raw(DramCommand::Precharge { bank: 0 }, 500)
            .unwrap_err();
        assert!(matches!(err, DramError::TimeWentBackwards { .. }));
    }

    #[test]
    fn read_from_closed_bank_is_garbage() {
        let mut d = dev();
        let out = d
            .issue_raw(DramCommand::Read { bank: 0, col: 0 }, 0)
            .unwrap();
        assert!(out.read_corrupted);
        assert!(out
            .violations
            .iter()
            .any(|v| v.rule == TimingRule::BankClosed));
    }

    #[test]
    fn stats_accumulate() {
        let mut d = dev();
        read_legal(&mut d, 0, 0, 0, 0);
        assert_eq!(d.stats().activates, 1);
        assert_eq!(d.stats().reads, 1);
        assert_eq!(d.stats().commands(), 2);
    }

    #[test]
    fn cmd_trace_keeps_the_newest_records_and_counts_the_rest() {
        let mut d = dev();
        d.enable_cmd_trace(2);
        // Five commands in issue order: ACT, RD at col 0..3.
        issue_legal(&mut d, DramCommand::Activate { bank: 0, row: 7 }, 0);
        let mut at = t().t_rcd_ps;
        for col in 0..4 {
            issue_legal(&mut d, DramCommand::Read { bank: 0, col }, at);
            at += t().t_ccd_l_ps;
        }
        let (records, dropped) = d.take_cmd_trace();
        let kept: Vec<_> = records.iter().map(|r| (r.mnemonic, r.arg)).collect();
        assert_eq!(kept, [("RD", 2), ("RD", 3)], "the newest two, oldest first");
        assert_eq!(records[0].ps + t().t_ccd_l_ps, records[1].ps);
        assert_eq!(dropped, 3);
        // Tracing stays enabled after a drain.
        issue_legal(
            &mut d,
            DramCommand::Precharge { bank: 0 },
            at + t().t_ras_ps,
        );
        let (records, dropped) = d.take_cmd_trace();
        assert_eq!(records.len(), 1);
        assert_eq!((records[0].mnemonic, records[0].bank), ("PRE", 0));
        assert_eq!(dropped, 0, "a drain resets the overwritten count");
    }

    #[test]
    fn completion_times_reflect_timing() {
        let mut d = dev();
        let out = issue_legal(&mut d, DramCommand::Activate { bank: 0, row: 0 }, 0);
        assert_eq!(out.completion_ps, t().t_rcd_ps);
        let out = issue_legal(&mut d, DramCommand::Read { bank: 0, col: 0 }, t().t_rcd_ps);
        assert_eq!(out.completion_ps, t().t_rcd_ps + t().read_latency_ps());
    }

    /// The per-command path as it was before there was one `execute`: its
    /// body kept verbatim (legality asked again inside, a `CmdOutcome` built
    /// and handed back, the read line returned by value through
    /// `read_line_reference`, the old `read_line`), as the reference the sink
    /// path is compared against.
    impl DramDevice {
        fn issue_raw_reference(
            &mut self,
            cmd: DramCommand,
            now_ps: u64,
        ) -> Result<CmdOutcome, DramError> {
            self.bounds_check(&cmd, now_ps)?;
            Ok(self.execute_reference(cmd, now_ps))
        }

        fn execute_reference(&mut self, cmd: DramCommand, now_ps: u64) -> CmdOutcome {
            // Hot path: a legal command needs no rule enumeration and no
            // allocation — `Vec::new()` does not touch the heap. Only illegal
            // (or drain-gapped) commands fall back to the enumerating checker.
            let violations = if self.rank.is_legal(&cmd, now_ps) {
                Vec::new()
            } else {
                self.rank.check(&cmd, now_ps)
            };
            self.stats.violations += violations.len() as u64;
            self.now_ps = now_ps;
            if let Some(ring) = self.cmd_trace.as_mut() {
                ring.push(CmdRecord {
                    ps: now_ps,
                    mnemonic: cmd.mnemonic(),
                    bank: cmd.bank().unwrap_or(0),
                    arg: match cmd {
                        DramCommand::Activate { row, .. } | DramCommand::RefreshRow { row, .. } => {
                            row
                        }
                        DramCommand::Read { col, .. } | DramCommand::Write { col, .. } => col,
                        _ => 0,
                    },
                });
            }
            let mut out = CmdOutcome {
                violations,
                completion_ps: now_ps,
                ..CmdOutcome::default()
            };
            match cmd {
                DramCommand::Activate { bank, row } => {
                    self.stats.activates += 1;
                    self.acts_per_bank[bank as usize] += 1;
                    self.note_hammer(bank, row);
                    out.completion_ps = now_ps + self.cfg.timing.t_rcd_ps;
                    let track = self.rank.bank(bank);
                    let clone_src = match (
                        track.prev_open_row,
                        track.last_pre_event_ps(),
                        track.last_act_event_ps(),
                    ) {
                        (Some(src), Some(pre_ps), Some(act_ps)) => {
                            let pre_gap = now_ps.saturating_sub(pre_ps);
                            let act_pre_gap = pre_ps.saturating_sub(act_ps);
                            (pre_gap <= ROWCLONE_GAP_MAX_PS
                                && act_pre_gap <= ROWCLONE_GAP_MAX_PS
                                && src != row)
                                .then_some(src)
                        }
                        _ => None,
                    };
                    if let Some(src) = clone_src {
                        out.rowclone = Some(self.perform_rowclone(bank, src, row, now_ps));
                    } else {
                        let slot = self.row_slot(bank, row);
                        self.open_bank(bank, row, slot, now_ps);
                    }
                    self.rank.apply(&cmd, now_ps);
                }
                DramCommand::Precharge { bank } => {
                    self.stats.precharges += 1;
                    out.completion_ps = now_ps + self.cfg.timing.t_rp_ps;
                    self.precharge_bank(bank, &out.violations);
                    self.rank.apply(&cmd, now_ps);
                }
                DramCommand::PrechargeAll => {
                    self.stats.precharges += 1;
                    out.completion_ps = now_ps + self.cfg.timing.t_rp_ps;
                    for bank in 0..self.cfg.geometry.banks() {
                        self.precharge_bank(bank, &out.violations);
                    }
                    self.rank.apply(&cmd, now_ps);
                }
                DramCommand::Read { bank, col } => {
                    self.stats.reads += 1;
                    out.completion_ps = now_ps + self.cfg.timing.read_latency_ps();
                    let (data, corrupted) = self.read_line_reference(bank, col, now_ps);
                    out.read_data = Some(data);
                    out.read_corrupted = corrupted;
                    if corrupted {
                        self.stats.corrupted_reads += 1;
                    }
                    self.rank.apply(&cmd, now_ps);
                }
                DramCommand::Write { bank, col, data } => {
                    self.stats.writes += 1;
                    out.completion_ps = now_ps + self.cfg.timing.write_latency_ps();
                    self.write_line_buffered(bank, col, &data, now_ps);
                    self.rank.apply(&cmd, now_ps);
                }
                DramCommand::Refresh => {
                    self.stats.refreshes += 1;
                    out.completion_ps = now_ps + self.cfg.timing.t_rfc_ps;
                    // Refreshing every row closes the disturbance window: all
                    // per-row activation counters reset. (This device models one
                    // rank-folded channel, so a rank-level REF covers everything
                    // it holds; ranks of a multi-rank channel share the fold.)
                    self.hammer_epoch += 1;
                    self.hammer_window_start_ps = now_ps;
                    self.rank.apply(&cmd, now_ps);
                }
                DramCommand::RefreshRow { bank, row } => {
                    self.stats.targeted_refreshes += 1;
                    out.completion_ps = now_ps + self.cfg.timing.t_rfm_ps;
                    // An RFM on an open bank tramples the sense amplifiers with
                    // its internal activation: whatever was written since the ACT
                    // is lost without restore, mirroring the illegal-ACT
                    // consequence.
                    if out
                        .violations
                        .iter()
                        .any(|v| v.rule == TimingRule::RefWithOpenRows)
                    {
                        self.banks[bank as usize].open = None;
                    }
                    // Restoring the row's cells neutralizes the disturbance its
                    // neighborhood accumulated: the window counters of `row` and
                    // of every row whose blast radius covers it reset.
                    // Mitigations refresh every victim of a detected aggressor
                    // in one action, so this conservative neighborhood reset
                    // matches RFM-style bookkeeping.
                    if self.cfg.variation.disturb_enabled {
                        let rows = self.cfg.geometry.rows_per_bank;
                        for r in
                            std::iter::once(row).chain(blast_neighbors(row, rows, BLAST_RADIUS))
                        {
                            let idx = self.row_index(bank, r);
                            self.record_mut(idx).hammer = 0;
                        }
                    }
                    self.rank.apply(&cmd, now_ps);
                }
            }
            out
        }

        fn read_line_reference(
            &mut self,
            bank: u32,
            col: u32,
            now_ps: u64,
        ) -> ([u8; LINE_BYTES], bool) {
            let seed = self.cfg.variation.seed;
            let amps = &self.banks[bank as usize];
            let Some(open) = amps.open else {
                // Reading a precharged bank: bus garbage.
                let nonce = self.next_nonce();
                let mut data = [0u8; LINE_BYTES];
                for (i, chunk) in data.chunks_mut(8).enumerate() {
                    let h = hash_coords(seed, b"bus-garbage", &[nonce, i as u64]);
                    chunk.copy_from_slice(&h.to_le_bytes()[..chunk.len()]);
                }
                return (data, true);
            };
            let applied_trcd = now_ps.saturating_sub(open.act_ps);
            let start = col as usize * LINE_BYTES;
            let src = if amps.is_written(col) {
                &amps.overlay
            } else {
                &self.rows[open.slot]
            };
            let mut data = [0u8; LINE_BYTES];
            data.copy_from_slice(&src[start..start + LINE_BYTES]);
            if applied_trcd >= self.cfg.timing.t_rcd_ps {
                return (data, false);
            }
            self.stats.reduced_trcd_reads += 1;
            let nonce = self.next_nonce();
            if self
                .variation
                .read_ok(bank, open.row, col, applied_trcd, nonce)
            {
                (data, false)
            } else {
                Self::corrupt_line(&mut data, seed, nonce);
                (data, true)
            }
        }
    }

    /// A device with every behavioural model on.
    fn full_dev() -> DramDevice {
        let mut cfg = DramConfig::small_for_tests();
        cfg.variation.disturb_enabled = true;
        cfg.variation.hc_first = (4, 8);
        cfg.variation.disturb_flip_milli = 500;
        DramDevice::new(cfg)
    }

    /// Rows on both sides of the subarray boundary at 128.
    const ROWS: [u32; 6] = [0, 1, 126, 127, 128, 129];

    fn decode(kind: u8, bank: u32, row: usize, col: u32, byte: u8) -> DramCommand {
        let row = ROWS[row];
        match kind {
            0 | 1 => DramCommand::Activate { bank, row },
            2 | 3 => DramCommand::Precharge { bank },
            4 | 5 => DramCommand::Read { bank, col },
            6 | 7 => DramCommand::Write {
                bank,
                col,
                data: [byte; LINE_BYTES],
            },
            8 => DramCommand::PrechargeAll,
            9 => DramCommand::Refresh,
            _ => DramCommand::RefreshRow { bank, row },
        }
    }

    /// What one command produced, comparably.
    type Produced = (
        Vec<TimingViolation>,
        Option<[u8; LINE_BYTES]>,
        bool,
        Option<RowCloneOutcome>,
        u64,
    );

    fn produced(out: CmdOutcome) -> Produced {
        (
            out.violations,
            out.read_data,
            out.read_corrupted,
            out.rowclone,
            out.completion_ps,
        )
    }

    proptest::proptest! {
        /// Random command streams, legal and not, land the same way through
        /// the one `execute` as through the reference: every outcome, the
        /// stats, the clock and the array.
        #[test]
        fn sink_path_matches_the_reference(
            ops in proptest::collection::vec(
                (0u8..11, 0u32..2, 0usize..6, 0u32..3, 0u8..8, proptest::any::<u8>()),
                1..120,
            ),
        ) {
            let (mut new, mut old) = (full_dev(), full_dev());
            let t = t();
            let mut now = 0;
            for (kind, bank, row, col, gap, byte) in ops {
                let cmd = decode(kind, bank, row, col, byte);
                now = match gap {
                    0 => now + 1_500,
                    1 => now + 3_000,
                    2 => now + 9_000,
                    3 => now + t.t_ras_ps,
                    4 => now + t.t_refw_ps + 1,
                    _ => new.earliest_issue_ps(&cmd).max(now + t.t_ck_ps),
                };
                let a = new.issue_raw(cmd, now).map(produced);
                let b = old.issue_raw_reference(cmd, now).map(produced);
                proptest::prop_assert_eq!(a, b, "{} @ {}", cmd, now);
            }
            proptest::prop_assert_eq!(new.stats(), old.stats());
            proptest::prop_assert_eq!(new.now_ps(), old.now_ps());
            for bank in 0..2 {
                for row in 0..132 {
                    proptest::prop_assert_eq!(new.row_data(bank, row), old.row_data(bank, row));
                }
            }
        }
    }

    /// Collects like a Bender readback buffer.
    #[derive(Default, PartialEq, Debug)]
    struct Collected {
        reads: Vec<([u8; LINE_BYTES], bool)>,
        rowclones: Vec<RowCloneOutcome>,
        violations: Vec<TimingViolation>,
        completions: Vec<u64>,
    }

    impl CmdSink for Collected {
        fn read(&mut self, data: &[u8; LINE_BYTES], corrupted: bool) {
            self.reads.push((*data, corrupted));
        }

        fn rowclone(&mut self, outcome: RowCloneOutcome) {
            self.rowclones.push(outcome);
        }

        fn violations(&mut self) -> &mut Vec<TimingViolation> {
            &mut self.violations
        }
    }

    #[test]
    fn issue_raw_returns_exactly_what_the_sink_path_produced() {
        // A RowClone, a reduced-tRCD write and read, an early PRE on the
        // dirty row, a closed-bank read: every kind of product.
        let stream = [
            (DramCommand::Activate { bank: 0, row: 3 }, 0),
            (DramCommand::Precharge { bank: 0 }, 3_000),
            (DramCommand::Activate { bank: 0, row: 9 }, 6_000),
            (
                DramCommand::Write {
                    bank: 0,
                    col: 1,
                    data: [7; LINE_BYTES],
                },
                9_000,
            ),
            (DramCommand::Read { bank: 0, col: 1 }, 60_000),
            (DramCommand::Precharge { bank: 0 }, 61_500),
            (DramCommand::Read { bank: 0, col: 2 }, 100_000),
            (DramCommand::RefreshRow { bank: 1, row: 5 }, 200_000),
        ];
        let (mut by_outcome, mut by_sink) = (dev(), dev());
        let (mut adapted, mut direct) = (Collected::default(), Collected::default());
        for (cmd, at) in stream {
            let out = by_outcome.issue_raw(cmd, at).unwrap();
            adapted
                .reads
                .extend(out.read_data.map(|d| (d, out.read_corrupted)));
            assert!(out.read_data.is_some() || !out.read_corrupted);
            adapted.rowclones.extend(out.rowclone);
            adapted.violations.extend(out.violations);
            adapted.completions.push(out.completion_ps);
            let done = by_sink.issue_into(&cmd, at, &mut direct).unwrap();
            direct.completions.push(done);
        }
        assert_eq!(adapted, direct, "the adapter drops nothing");
        assert_eq!((direct.reads.len(), direct.rowclones.len()), (2, 1));
        assert!(direct.violations.len() >= 5, "{:?}", direct.violations);
        assert_eq!(by_outcome.stats(), by_sink.stats());
    }

    #[test]
    fn issue_earliest_into_waits_for_the_timing_and_still_judges_the_state() {
        let mut d = dev();
        let mut sink = Collected::default();
        let act = DramCommand::Activate { bank: 0, row: 1 };
        assert_eq!(
            d.issue_earliest_into(&act, 500, &mut sink).unwrap(),
            (500, 500 + t().t_rcd_ps),
            "the floor holds when nothing constrains"
        );
        let rd = DramCommand::Read { bank: 0, col: 0 };
        let (at, _) = d.issue_earliest_into(&rd, 0, &mut sink).unwrap();
        assert_eq!(at, 500 + t().t_rcd_ps, "tRCD, not the floor");
        assert!(sink.violations.is_empty() && !sink.reads[0].1);
        // The timing of a second ACT can be met; the open bank cannot.
        let earliest = d.earliest_issue_ps(&act).max(d.now_ps());
        let (at, _) = d.issue_earliest_into(&act, 0, &mut sink).unwrap();
        assert_eq!(at, earliest);
        assert_eq!(sink.violations.len(), 1);
        assert_eq!(sink.violations[0].rule, TimingRule::BankOpen);
        assert_eq!(d.stats().violations, 1);
    }

    #[test]
    fn times_past_the_clock_limit_are_rejected_not_wrapped() {
        let mut d = dev();
        let act = DramCommand::Activate { bank: 0, row: 0 };
        for at in [u64::MAX, MAX_ISSUE_PS + 1] {
            let err = d.issue_raw(act, at).unwrap_err();
            assert!(
                matches!(err, DramError::TimeOutOfRange { requested_ps, .. } if requested_ps == at),
                "{err}"
            );
        }
        let mut sink = Collected::default();
        assert!(matches!(
            d.issue_earliest_into(&act, u64::MAX, &mut sink),
            Err(DramError::TimeOutOfRange { .. })
        ));
        assert_eq!(d.stats().commands(), 0, "nothing executed");
        // The limit itself is a time like any other: every sum the tracker
        // and the device form from it stays below `u64::MAX`.
        let out = d.issue_raw(act, MAX_ISSUE_PS).unwrap();
        assert_eq!(out.completion_ps, MAX_ISSUE_PS + t().t_rcd_ps);
        let wr = DramCommand::Write {
            bank: 0,
            col: 0,
            data: [1; LINE_BYTES],
        };
        let out = d.issue_raw(wr, MAX_ISSUE_PS).unwrap();
        assert!(out.violations.iter().any(|v| v.rule == TimingRule::Trcd));
        let pre = DramCommand::Precharge { bank: 0 };
        assert!(d.earliest_issue_ps(&pre) > MAX_ISSUE_PS);
        assert!(!d
            .issue_raw(pre, MAX_ISSUE_PS)
            .unwrap()
            .violations
            .is_empty());
    }
}
