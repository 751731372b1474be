//! EasyAPI: the hardware-abstraction and software library surface that
//! software memory controllers program against (paper §5.2, Table 2).
//!
//! The system↔controller boundary is a **request stream**: the tile posts
//! tagged requests ([`crate::request::RequestTag`]) into each lane's
//! persistent controller session — the hardware FIFO and scratchpad request
//! table (the two ends of one buffer), command buffer and response queue of
//! paper Fig. 7, plus the constants a pass charges against (call costs,
//! transfer costs, tile clock) and the DRAM Bender executor. Each serve
//! pass lends the session, together with the device and the RowClone
//! allocator (the only things that change between passes; the allocator's
//! decode honours its remap table), to one [`EasyApi`] handle. The handle
//! exposes a multi-entry request table, so FR-FCFS and critical-mode
//! scheduling see every in-flight request at once. When the handle is
//! dropped the pass's responses and ledger stay in the session until the
//! next pass clears them.
//!
//! Every call charges Rocket cycles from the [`SmcCostModel`] to the pass's
//! ledger. The ledger feeds (a) the FPGA wall clock — how long the slow
//! programmable core really took — and (b), through time scaling, the
//! modeled system's scheduling latency. Cycles are *attributed*: each
//! [`MemResponse`] carries the tag of the request it answers and the slice
//! of the pass spent on it ([`crate::request::ResponseSlice`]), which is
//! what lets the tile give every request in a batch its own release cycle
//! from the response alone.

use easydram_bender::{BenderError, BenderProgram, BenderResult, Executor, TransferCost};
use easydram_cpu::timescale::Clock;
use easydram_dram::{DramAddress, DramCommand, DramDevice, LINE_BYTES};

use crate::alloc::RowCloneAllocator;
use crate::config::SystemConfig;
use crate::costs::SmcCostModel;
use crate::counters::Counters;
use crate::request::{MemRequest, MemResponse, ResponseSlice};

/// Gap used between the ACT→PRE→ACT commands of a RowClone sequence (well
/// below tRAS/tRP, comfortably inside the device's recognition window).
pub const ROWCLONE_GAP_PS: u64 = 3_000;

/// The persistent controller session owned by one tile lane: the hardware
/// request FIFO requests are posted into, the buffers a serve pass runs on
/// — request table, command program, response queue and ledger — and the
/// constants every pass charges against. One session lives as long as the
/// tile; [`ApiSession::begin`] lends it to an [`EasyApi`] handle for one
/// pass.
///
/// The request table and the FIFO are the two ends of one buffer, `queue`:
/// the table is `queue[..received]`, in the order the controller received
/// it, and the FIFO is the rest, oldest first. Receiving a request moves
/// the boundary and copies nothing.
///
/// The buffers never move: `begin` clears them in place (and each
/// `flush_commands` refills the one readback result), so steady-state
/// serving allocates nothing once they have grown to the high-water batch
/// size, and a finished pass's responses and ledger stay readable
/// ([`ApiSession::responses`], [`ApiSession::ledger`]) until the next one.
#[derive(Debug)]
pub(crate) struct ApiSession {
    queue: Vec<MemRequest>,
    /// How many of `queue`'s requests the controller has received: the
    /// request table's length.
    received: usize,
    capacity: usize,
    program: BenderProgram,
    /// What the latest `flush_commands` produced; refilled in place.
    flush: BenderResult,
    responses: Vec<MemResponse>,
    ledger: ApiLedger,
    executor: Executor,
    /// Per-EasyAPI-call Rocket-cycle costs.
    costs: SmcCostModel,
    /// Command/readback transfer cost model.
    transfer: TransferCost,
    /// The tile clock the Rocket and transfer cycles tick at.
    tile_clk: Clock,
}

impl ApiSession {
    /// Creates an empty session whose FIFO admits `cfg.write_buffer_depth`
    /// posted requests before the tile must drain it, charging
    /// `cfg.smc_costs` and `cfg.fpga.transfer` at `cfg.fpga.tile_clk_hz`.
    ///
    /// # Panics
    ///
    /// Panics if the depth is zero.
    pub(crate) fn new(cfg: &SystemConfig) -> Self {
        let capacity = cfg.write_buffer_depth;
        assert!(capacity > 0, "the request FIFO needs at least one slot");
        Self {
            queue: Vec::with_capacity(capacity + 1),
            received: 0,
            capacity,
            program: BenderProgram::new(),
            flush: BenderResult::default(),
            responses: Vec::new(),
            ledger: ApiLedger::default(),
            executor: Executor::new(),
            costs: cfg.smc_costs,
            transfer: cfg.fpga.transfer,
            tile_clk: Clock::from_hz(cfg.fpga.tile_clk_hz),
        }
    }

    /// Posts a tagged request into the FIFO.
    pub(crate) fn post(&mut self, req: MemRequest) {
        self.queue.push(req);
    }

    /// Whether the FIFO has reached its capacity (posting more would exceed
    /// the bounded write buffer; the tile drains first).
    pub(crate) fn is_full(&self) -> bool {
        self.len() >= self.capacity
    }

    /// Number of requests waiting in the FIFO.
    pub(crate) fn len(&self) -> usize {
        self.queue.len() - self.received
    }

    /// Whether the FIFO is empty.
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The requests currently pending in the FIFO, oldest first.
    pub(crate) fn pending(&self) -> &[MemRequest] {
        &self.queue[self.received..]
    }

    /// The most recent pass's responses, in service order.
    pub(crate) fn responses(&self) -> &[MemResponse] {
        &self.responses
    }

    /// The most recent pass's ledger.
    pub(crate) fn ledger(&self) -> &ApiLedger {
        &self.ledger
    }

    /// Opens an API handle for one serve pass over everything pending,
    /// clearing the previous pass's table, command buffer, responses and
    /// ledger in place. The pass runs on `device`, translates addresses
    /// through `placement`'s decode, and starts executing at
    /// `wall_base_ps`, absolute FPGA/DRAM time.
    pub(crate) fn begin<'a>(
        &'a mut self,
        device: &'a mut DramDevice,
        placement: &'a RowCloneAllocator,
        wall_base_ps: u64,
    ) -> EasyApi<'a> {
        if self.received > 0 {
            // What a controller received and never took.
            self.queue.drain(..self.received);
            self.received = 0;
        }
        self.program.clear();
        self.responses.clear();
        self.ledger = ApiLedger::default();
        EasyApi {
            session: self,
            device,
            placement,
            wall_base_ps,
            attributed: ResponseSlice::default(),
        }
    }
}

/// Everything the system needs back from one controller invocation, besides
/// the responses themselves ([`ApiSession::responses`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ApiLedger {
    /// FPGA tile cycles spent on command/readback transfers (wall time
    /// only).
    pub(crate) hw_cycles: u64,
    /// Total DRAM time of executed command batches, in ps.
    pub(crate) dram_elapsed_ps: u64,
    /// Running totals of every quantity that gets attributed to responses:
    /// Rocket cycles of controller code (feeds scheduling latency via time
    /// scaling), DRAM bus occupancy, column commands, batches, and the
    /// row-buffer outcomes observed by the read/write sequence helpers.
    pub(crate) totals: ResponseSlice,
}

/// The EasyAPI handle passed to [`crate::SoftwareMemoryController::serve`]:
/// one serve pass over a batch of pending requests, running on the borrowed
/// session's buffers and constants.
#[derive(Debug)]
pub struct EasyApi<'a> {
    session: &'a mut ApiSession,
    /// The DRAM device behind DRAM Bender.
    device: &'a mut DramDevice,
    /// The RowClone allocator, whose decode honours its row remapping.
    placement: &'a RowCloneAllocator,
    wall_base_ps: u64,
    /// Watermark of ledger totals already attributed to a response.
    attributed: ResponseSlice,
}

impl EasyApi<'_> {
    fn charge(&mut self, cycles: u64) {
        self.session.ledger.totals.rocket_cycles += cycles;
    }

    /// Charges one command build and appends `cmd` at its earliest legal
    /// time.
    fn build(&mut self, cmd: DramCommand) -> Result<(), BenderError> {
        self.charge(self.session.costs.build_command);
        self.session.program.cmd_auto(cmd)
    }

    /// The absolute FPGA/DRAM wall time at the controller's current point of
    /// execution: the tile-clock cycles spent so far convert to ps with the
    /// workspace's one rounding rule ([`Clock::cycles_to_ps`], half-up).
    #[must_use]
    pub fn wall_now_ps(&self) -> u64 {
        let ledger = &self.session.ledger;
        let tile_cycles = ledger.totals.rocket_cycles + ledger.hw_cycles;
        self.wall_base_ps + self.session.tile_clk.cycles_to_ps(tile_cycles) + ledger.dram_elapsed_ps
    }

    /// Rocket cycles charged so far.
    #[must_use]
    pub fn cycles_spent(&self) -> u64 {
        self.session.ledger.totals.rocket_cycles
    }

    /// Sets critical mode (`set_scheduling_state`, Table 2). The handle
    /// models the call's cost only: the tile gates the processor clock
    /// around the whole serve pass (its frozen wall time, `wall_latency_ps`).
    pub fn set_scheduling_state(&mut self, critical: bool) {
        let _ = critical;
        self.charge(self.session.costs.set_scheduling_state);
    }

    /// Whether the hardware request FIFO and the request table are both
    /// empty (the `req_empty()` poll of paper Listing 1).
    #[must_use = "polling has a purpose only if the result is inspected"]
    pub fn req_empty(&mut self) -> bool {
        self.charge(self.session.costs.poll);
        self.session.queue.is_empty()
    }

    /// Moves one request from the hardware FIFO into the software request
    /// table (`receive_request` / `add_request`, Table 2) and returns a copy.
    pub fn receive_request(&mut self) -> Option<MemRequest> {
        self.charge(self.session.costs.receive_request);
        let session = &mut *self.session;
        let req = *session.queue.get(session.received)?;
        session.received += 1;
        Some(req)
    }

    /// Drains the entire hardware FIFO into the request table — the
    /// `while (!req_empty()) add_request(receive_request())` loop of paper
    /// Listing 1. Returns the number of requests moved.
    ///
    /// Cost model (pinned by a unit test): one `poll` charge per FIFO
    /// emptiness check — `n + 1` checks for `n` pending requests, since the
    /// final check observes the FIFO empty — plus one `receive_request`
    /// charge per request moved. Total: `(n + 1) * poll +
    /// n * receive_request` Rocket cycles.
    pub fn receive_all(&mut self) -> usize {
        let costs = self.session.costs;
        let moved = self.session.len();
        self.session.received = self.session.queue.len();
        let n = moved as u64;
        self.charge((n + 1) * costs.poll + n * costs.receive_request);
        moved
    }

    /// The software request table (scratchpad memory).
    #[must_use]
    pub fn request_table(&self) -> &[MemRequest] {
        &self.session.queue[..self.session.received]
    }

    /// FCFS scheduling decision: the oldest request (`FCFS::schedule`).
    pub fn schedule_fcfs(&mut self) -> Option<usize> {
        self.charge(self.session.costs.schedule_fcfs);
        (self.session.received > 0).then_some(0)
    }

    /// FR-FCFS scheduling decision: the oldest row-hit if any, else the
    /// oldest request (`FRFCFS::schedule`).
    pub fn schedule_frfcfs(&mut self) -> Option<usize> {
        self.charge(self.session.costs.schedule_frfcfs);
        if self.session.received == 0 {
            return None;
        }
        let hit = self
            .request_table()
            .iter()
            .position(|r| self.device.open_row(r.tag.dram.bank) == Some(r.tag.dram.row));
        Some(hit.unwrap_or(0))
    }

    /// Removes the request at `idx` from the table.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is outside the request table.
    pub fn take_request(&mut self, idx: usize) -> MemRequest {
        let table = self.session.received;
        assert!(
            idx < table,
            "take_request({idx}) outside a request table of {table}"
        );
        self.session.received -= 1;
        self.session.queue.remove(idx)
    }

    /// Translates a physical address to a DRAM coordinate
    /// (`get_addr_mapping`, Table 2), honouring OS-level row remapping
    /// installed by the RowClone allocator.
    pub fn get_addr_mapping(&mut self, phys: u64) -> DramAddress {
        self.charge(self.session.costs.addr_mapping);
        self.placement.decode(phys)
    }

    /// The DRAM coordinate of `req`'s own address, at the cost of a
    /// [`EasyApi::get_addr_mapping`] call: the tile decoded it when it
    /// posted the request, and it rides the tag
    /// ([`crate::request::RequestTag::dram`]).
    pub fn get_request_mapping(&mut self, req: &MemRequest) -> DramAddress {
        self.charge(self.session.costs.addr_mapping);
        debug_assert_eq!(
            req.tag.dram,
            self.placement.decode(req.addr()),
            "request {} was remapped while pending",
            req.tag.id
        );
        req.tag.dram
    }

    /// The row currently open in `bank` (tile shadow state; free).
    #[must_use]
    pub fn open_row(&self, bank: u32) -> Option<u32> {
        self.device.open_row(bank)
    }

    /// Rows per bank of the channel's device (tile shadow state; free).
    /// Mitigation policies use this to clamp victim-row arithmetic.
    #[must_use]
    pub fn rows_per_bank(&self) -> u32 {
        self.device.config().geometry.rows_per_bank
    }

    /// The device's timing bin (tile shadow state; free). Mitigation
    /// policies read `t_refw_ps` off this to align their tracking epochs
    /// with the refresh window.
    #[must_use]
    pub fn timing(&self) -> &easydram_dram::TimingParams {
        self.device.timing()
    }

    /// Queries the weak-row Bloom filter cost point (§8.2). The filter
    /// itself lives in the controller; this only charges the lookup.
    pub fn charge_bloom_check(&mut self) {
        self.charge(self.session.costs.bloom_check);
    }

    /// Appends an `ACT` at the earliest legal time (`ddr_activate`).
    ///
    /// # Errors
    ///
    /// Returns an error when the command buffer is full.
    pub fn ddr_activate(&mut self, bank: u32, row: u32) -> Result<(), BenderError> {
        self.build(DramCommand::Activate { bank, row })
    }

    /// Appends a `PRE` at the earliest legal time (`ddr_precharge`).
    ///
    /// # Errors
    ///
    /// Returns an error when the command buffer is full.
    pub fn ddr_precharge(&mut self, bank: u32) -> Result<(), BenderError> {
        self.build(DramCommand::Precharge { bank })
    }

    /// Appends a `RD` at the earliest legal time (`ddr_read`).
    ///
    /// # Errors
    ///
    /// Returns an error when the command buffer is full.
    pub fn ddr_read(&mut self, bank: u32, col: u32) -> Result<(), BenderError> {
        self.build(DramCommand::Read { bank, col })
    }

    /// Appends a `RD` exactly `delay_ps` after the previous command — the
    /// reduced-tRCD access primitive (§8).
    ///
    /// # Errors
    ///
    /// Returns an error when the command buffer is full.
    pub fn ddr_read_after(
        &mut self,
        bank: u32,
        col: u32,
        delay_ps: u64,
    ) -> Result<(), BenderError> {
        self.charge(self.session.costs.build_command);
        self.session
            .program
            .cmd_after(DramCommand::Read { bank, col }, delay_ps)
    }

    /// Appends a `WR` at the earliest legal time (`ddr_write`).
    ///
    /// # Errors
    ///
    /// Returns an error when the command buffer is full.
    pub fn ddr_write(
        &mut self,
        bank: u32,
        col: u32,
        data: [u8; LINE_BYTES],
    ) -> Result<(), BenderError> {
        self.build(DramCommand::Write { bank, col, data })
    }

    /// Appends a `REF` at the earliest legal time (`ddr_refresh`).
    ///
    /// # Errors
    ///
    /// Returns an error when the command buffer is full.
    pub fn ddr_refresh(&mut self) -> Result<(), BenderError> {
        self.build(DramCommand::Refresh)
    }

    /// Appends a targeted per-row refresh (`RFM`) at the earliest legal
    /// time — the victim-refresh primitive RowHammer mitigations issue. The
    /// bank must be precharged when the command lands.
    ///
    /// # Errors
    ///
    /// Returns an error when the command buffer is full.
    pub fn ddr_refresh_row(&mut self, bank: u32, row: u32) -> Result<(), BenderError> {
        self.build(DramCommand::RefreshRow { bank, row })
    }

    /// Charges the per-activation mitigation-tracking cost point (a PARA
    /// coin flip or a Graphene table update).
    pub fn charge_mitigation_track(&mut self) {
        self.charge(self.session.costs.mitigation_track);
    }

    /// Appends a RowClone command sequence: open the source row, interrupt
    /// it with an early `PRE`, and immediately activate the destination row
    /// (`rowclone`, Table 2; paper Figure 4).
    ///
    /// # Errors
    ///
    /// Returns an error when the command buffer is full.
    pub fn rowclone(&mut self, src: DramAddress, dst: DramAddress) -> Result<(), BenderError> {
        self.charge(self.session.costs.build_rowclone);
        self.session.program.cmd_auto(DramCommand::Activate {
            bank: src.bank,
            row: src.row,
        })?;
        self.session
            .program
            .cmd_after(DramCommand::Precharge { bank: src.bank }, ROWCLONE_GAP_PS)?;
        self.session.program.cmd_after(
            DramCommand::Activate {
                bank: dst.bank,
                row: dst.row,
            },
            ROWCLONE_GAP_PS,
        )?;
        self.session
            .program
            .cmd_auto(DramCommand::Precharge { bank: dst.bank })
    }

    /// Ships the command batch to DRAM Bender and executes it
    /// (`flush_commands`, Table 2). Returns the execution result; read data
    /// lands in the readback buffer ([`BenderResult::reads`]).
    ///
    /// # Errors
    ///
    /// Propagates readback overflow or device addressing errors.
    pub fn flush_commands(&mut self) -> Result<&BenderResult, BenderError> {
        let n_instrs = self.session.program.len();
        self.session.ledger.hw_cycles += self.session.transfer.program_cycles(n_instrs);
        let start = self.wall_now_ps();
        let session = &mut *self.session;
        session
            .executor
            .run_into(self.device, &session.program, start, &mut session.flush)?;
        let result = &session.flush;
        let ledger = &mut session.ledger;
        ledger.hw_cycles += session.transfer.readback_cycles(result.reads.len());
        ledger.totals.batches += 1;
        ledger.dram_elapsed_ps += result.elapsed_ps;
        // Occupancy: the bus/bank time the batch holds the channel; the CAS
        // pipeline latency of the final read overlaps with later batches in
        // a real controller.
        let t_cl = self.device.timing().t_cl_ps;
        let columns = session.program.column_count() as u64;
        ledger.totals.column_ops += columns;
        let occupancy = if columns > 0 {
            result.elapsed_ps.saturating_sub(t_cl)
        } else {
            result.elapsed_ps
        };
        ledger.totals.dram_occupancy_ps += occupancy;
        session.program.clear();
        Ok(&self.session.flush)
    }

    /// Finalizes the response to `req` (`enqueue_response`, Table 2): copies
    /// the request's tag onto it and attributes to it everything the pass
    /// spent since the previous response was finalized — its
    /// [`ResponseSlice`].
    pub fn enqueue_response(
        &mut self,
        req: &MemRequest,
        data: Option<[u8; LINE_BYTES]>,
        corrupted: bool,
    ) {
        self.charge(self.session.costs.enqueue_response);
        let totals = self.session.ledger.totals;
        let slice = totals.since(&self.attributed);
        self.attributed = totals;
        self.session.responses.push(MemResponse {
            tag: req.tag,
            data,
            corrupted,
            slice,
        });
    }

    /// Convenience: a standard read sequence for `addr` under an open-row
    /// policy, returning the row-buffer outcome (hit/miss/conflict counters
    /// are the caller's).
    ///
    /// # Errors
    ///
    /// Returns an error when the command buffer is full.
    pub fn read_sequence(
        &mut self,
        addr: DramAddress,
        trcd_override_ps: Option<u64>,
    ) -> Result<RowBufferOutcome, BenderError> {
        let (bank, col) = (addr.bank, addr.col);
        self.column_sequence(addr, DramCommand::Read { bank, col }, trcd_override_ps)
    }

    /// Convenience: a standard write sequence for `addr` under an open-row
    /// policy.
    ///
    /// # Errors
    ///
    /// Returns an error when the command buffer is full.
    pub fn write_sequence(
        &mut self,
        addr: DramAddress,
        data: [u8; LINE_BYTES],
        trcd_override_ps: Option<u64>,
    ) -> Result<RowBufferOutcome, BenderError> {
        let (bank, col) = (addr.bank, addr.col);
        self.column_sequence(
            addr,
            DramCommand::Write { bank, col, data },
            trcd_override_ps,
        )
    }

    /// The open-row sequence around one `column` command to `addr`: `PRE` on
    /// a conflict, `ACT` unless the row is open, then the column command. A
    /// tRCD override spaces the column command from the `ACT` it follows; a
    /// row hit has none and ignores it.
    fn column_sequence(
        &mut self,
        addr: DramAddress,
        column: DramCommand,
        trcd_override_ps: Option<u64>,
    ) -> Result<RowBufferOutcome, BenderError> {
        let outcome = match self.device.open_row(addr.bank) {
            Some(r) if r == addr.row => RowBufferOutcome::Hit,
            Some(_) => RowBufferOutcome::Conflict,
            None => RowBufferOutcome::Miss,
        };
        if outcome == RowBufferOutcome::Conflict {
            self.ddr_precharge(addr.bank)?;
        }
        if outcome != RowBufferOutcome::Hit {
            self.ddr_activate(addr.bank, addr.row)?;
        }
        self.charge(self.session.costs.build_command);
        match trcd_override_ps {
            Some(trcd) if outcome != RowBufferOutcome::Hit => {
                self.session.program.cmd_after(column, trcd)?;
            }
            _ => self.session.program.cmd_auto(column)?,
        }
        // The slice attributed to the current response carries its own
        // outcome counts (per-requestor row-hit accounting reads them).
        let t = &mut self.session.ledger.totals;
        outcome.tally(&mut t.row_hits, &mut t.row_misses, &mut t.row_conflicts);
        Ok(outcome)
    }
}

/// Row-buffer state a column access found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowBufferOutcome {
    /// The target row was already open.
    Hit,
    /// The bank was idle (row activated fresh).
    Miss,
    /// Another row was open (precharge + activate).
    Conflict,
}

impl RowBufferOutcome {
    /// Counts this outcome in the one of `hits`, `misses` and `conflicts`
    /// it names.
    pub(crate) fn tally(self, hits: &mut u64, misses: &mut u64, conflicts: &mut u64) {
        *match self {
            Self::Hit => hits,
            Self::Miss => misses,
            Self::Conflict => conflicts,
        } += 1;
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use proptest::prelude::*;

    use super::*;
    use crate::request::{RequestKind, RequestTag};
    use crate::smc::fixture::Fix;

    #[test]
    fn listing1_style_flow() {
        // Reproduce the paper's Listing 1: wait, receive, map, read, respond.
        let mut f = Fix::new();
        let mut line = [0u8; LINE_BYTES];
        line[0] = 0xEE;
        f.dev.write_line(0, 0, 0, &line);
        let id = f.post_read(0);
        let mut a = f.api();
        assert!(!a.req_empty());
        let req = a.receive_request().unwrap();
        let addr = a.get_addr_mapping(req.addr());
        a.read_sequence(addr, None).unwrap();
        let reads = {
            let r = a.flush_commands().unwrap();
            r.reads.clone()
        };
        assert_eq!(reads[0], line);
        a.enqueue_response(&req, Some(reads[0]), false);
        let idx = a.schedule_fcfs().unwrap();
        let _ = a.take_request(idx);
        let responses = f.session.responses();
        assert_eq!(responses.len(), 1);
        assert_eq!(responses[0].tag, req.tag, "the response carries the tag");
        assert_eq!(responses[0].tag.id, id);
        let ledger = f.session.ledger();
        assert!(
            ledger.totals.rocket_cycles > 20,
            "API calls must cost cycles"
        );
        assert!(ledger.dram_elapsed_ps > 0);
        assert_eq!(ledger.totals.batches, 1);
    }

    #[test]
    fn session_posts_drain_into_a_pass() {
        let mut f = Fix::new();
        f.session = ApiSession::new(&SystemConfig {
            write_buffer_depth: 4,
            ..Fix::config()
        });
        let second = f.to_phys(DramAddress::new(0, 0, 1));
        f.post(0, RequestKind::Read { addr: 0 }, 5);
        f.post(1, RequestKind::Read { addr: second }, 6);
        assert_eq!(f.session.len(), 2);
        assert!(!f.session.is_full());
        assert_eq!(f.session.pending()[0].tag.arrival_cycle, 5);
        let mut a = f.api();
        assert_eq!(a.receive_all(), 2, "the pass sees the whole stream");
        let table = a.request_table();
        assert_eq!((table[0].tag.id, table[1].tag.id), (0, 1), "FIFO order");
        assert_eq!(table[1].tag.requestor, 1);
        assert!(f.session.is_empty(), "the pass drained the FIFO");
    }

    #[test]
    fn session_passes_recycle_their_buffers() {
        let mut f = Fix::new();
        let mut warm = None;
        for pass in 0..3u64 {
            for col in 0..4 {
                let addr = f.to_phys(DramAddress::new(0, 0, col));
                f.post(0, RequestKind::Read { addr }, pass);
            }
            let mut a = f.api();
            a.receive_all();
            while let Some(idx) = a.schedule_fcfs() {
                let req = a.take_request(idx);
                let d = a.get_addr_mapping(req.addr());
                a.read_sequence(d, None).unwrap();
                let data = a.flush_commands().unwrap().reads[0];
                a.enqueue_response(&req, Some(data), false);
            }
            assert_eq!(f.session.responses().len(), 4);
            assert!(f.session.is_empty(), "the pass drained the FIFO");
            // A pass on cleared buffers must behave exactly like one on fresh
            // buffers: once the row buffers are warm (pass 0 pays the
            // activates), every pass over the same stream charges the same
            // cycles, and nothing regrows.
            let now = (
                f.session.ledger().totals.rocket_cycles,
                f.session.responses.capacity(),
                f.session.queue.capacity(),
            );
            if pass > 0 {
                assert_eq!(*warm.get_or_insert(now), now, "pass {pass}");
            }
        }
    }

    #[test]
    fn receive_all_cost_model_is_pinned() {
        // Documented model: (n + 1) * poll + n * receive_request.
        for n in [0u64, 1, 4] {
            let mut f = Fix::new();
            for i in 0..n {
                f.post_read(i * 64);
            }
            let costs = f.session.costs;
            let mut a = f.api();
            let before = a.cycles_spent();
            assert_eq!(a.receive_all() as u64, n);
            let charged = a.cycles_spent() - before;
            assert_eq!(
                charged,
                (n + 1) * costs.poll + n * costs.receive_request,
                "receive_all cost for n = {n}"
            );
        }
    }

    #[test]
    fn responses_carry_disjoint_slices_that_sum_to_the_ledger() {
        let mut f = Fix::new();
        for (requestor, row) in [(0, 0), (1, 1)] {
            let addr = f.to_phys(DramAddress::new(0, row, 0));
            f.post(requestor, RequestKind::Read { addr }, 0);
        }
        let trailing = f.session.costs.set_scheduling_state;
        let mut a = f.api();
        a.receive_all();
        for idx in [0, 0] {
            let req = a.take_request(idx);
            let d = a.get_addr_mapping(req.addr());
            a.read_sequence(d, None).unwrap();
            let data = a.flush_commands().unwrap().reads[0];
            a.enqueue_response(&req, Some(data), false);
        }
        a.set_scheduling_state(false);
        let (responses, totals) = (f.session.responses(), f.session.ledger().totals);
        assert_eq!(responses.len(), 2);
        assert_eq!(
            (responses[0].tag.requestor, responses[1].tag.requestor),
            (0, 1)
        );
        let sum_rocket: u64 = responses.iter().map(|r| r.slice.rocket_cycles).sum();
        let sum_occ: u64 = responses.iter().map(|r| r.slice.dram_occupancy_ps).sum();
        let sum_cols: u64 = responses.iter().map(|r| r.slice.column_ops).sum();
        assert_eq!(
            sum_rocket + trailing,
            totals.rocket_cycles,
            "slices partition the pass (trailing work stays unattributed)"
        );
        assert_eq!(sum_occ, totals.dram_occupancy_ps);
        assert_eq!(sum_cols, totals.column_ops);
        assert!(responses.iter().all(|r| r.slice.batches == 1));
        assert!(responses.iter().all(|r| r.slice.rocket_cycles > 0));
    }

    #[test]
    fn frfcfs_prefers_row_hits() {
        let mut f = Fix::new();
        // Open row 5 of bank 0 so the second request is a hit.
        let mut a = f.api();
        a.ddr_activate(0, 5).unwrap();
        a.flush_commands().unwrap();
        let oldest = f.post_read(f.to_phys(DramAddress::new(0, 9, 0)));
        let hit = f.post(
            0,
            RequestKind::Read {
                addr: f.to_phys(DramAddress::new(0, 5, 0)),
            },
            1,
        );
        let mut a = f.api();
        a.receive_all();
        let pick = a.schedule_frfcfs().unwrap();
        assert_eq!(
            a.request_table()[pick].tag.id,
            hit,
            "FR-FCFS must pick the row hit"
        );
        // FCFS picks the oldest.
        let pick = a.schedule_fcfs().unwrap();
        assert_eq!(a.request_table()[pick].tag.id, oldest);
    }

    #[test]
    fn remap_overrides_mapper() {
        let mut f = Fix::new();
        f.placement.remap_row(0, 1, 77); // virtual row 0 -> bank 1 row 77
        let far = 10 * 8192;
        let plain = f.placement.mapper().to_dram(far);
        let mut a = f.api();
        let d = a.get_addr_mapping(128); // third line of virtual row 0
        assert_eq!((d.bank, d.row, d.col), (1, 77, 2));
        // Unmapped rows use the plain mapper.
        assert_eq!(a.get_addr_mapping(far), plain);
    }

    #[test]
    fn read_sequence_outcomes() {
        let mut f = Fix::new();
        let mut a = f.api();
        let addr = DramAddress::new(0, 3, 1);
        assert_eq!(a.read_sequence(addr, None).unwrap(), RowBufferOutcome::Miss);
        a.flush_commands().unwrap();
        assert_eq!(a.read_sequence(addr, None).unwrap(), RowBufferOutcome::Hit);
        a.flush_commands().unwrap();
        let other = DramAddress::new(0, 4, 0);
        assert_eq!(
            a.read_sequence(other, None).unwrap(),
            RowBufferOutcome::Conflict
        );
        a.flush_commands().unwrap();
    }

    #[test]
    fn rowclone_sequence_executes_in_device() {
        let mut f = Fix::new();
        let pattern = vec![0x5Au8; 8192];
        f.dev.write_row(0, 1, &pattern);
        let mut a = f.api();
        let src = DramAddress::new(0, 1, 0);
        let dst = DramAddress::new(0, 2, 0);
        a.rowclone(src, dst).unwrap();
        let result = a.flush_commands().unwrap();
        assert_eq!(result.rowclones.len(), 1);
    }

    #[test]
    fn wall_clock_advances_with_work() {
        let mut f = Fix::new();
        let mut a = f.api();
        let w0 = a.wall_now_ps();
        a.set_scheduling_state(true);
        assert!(a.wall_now_ps() > w0, "rocket cycles advance the wall");
        a.ddr_activate(0, 0).unwrap();
        a.flush_commands().unwrap();
        assert!(
            a.wall_now_ps() > w0 + 10_000,
            "bender time advances the wall"
        );
    }

    #[test]
    fn tile_cycles_round_half_up_at_a_clock_that_does_not_divide_a_second() {
        // At 150 MHz a Rocket cycle is 6,666.67 ps: 4 cycles are 26,666.67
        // ps, which rounds to 26,667 (a truncated per-cycle period would
        // give 26,664). Every golden runs at 100 MHz, where the two agree,
        // so only this pins the rounding.
        let mut f = Fix::new();
        let mut cfg = Fix::config();
        cfg.fpga.tile_clk_hz = 150_000_000;
        f.session = ApiSession::new(&cfg);
        assert_eq!(f.session.costs.set_scheduling_state, 4);
        let base = 1_000_000;
        let mut a = f.session.begin(&mut f.dev, &f.placement, base);
        a.set_scheduling_state(true);
        assert_eq!(a.wall_now_ps(), base + 26_667);
    }

    #[test]
    fn profiling_request_kind_round_trips() {
        let mut f = Fix::new();
        f.post(
            0,
            RequestKind::ProfileTrcd {
                addr: 0,
                trcd_ps: 9_000,
            },
            0,
        );
        let mut a = f.api();
        a.receive_all();
        assert_eq!(a.request_table().len(), 1);
    }

    #[test]
    #[should_panic(expected = "take_request(1) outside a request table of 1")]
    fn take_request_panics_on_an_index_still_in_the_fifo() {
        let mut f = Fix::new();
        f.post_read(0);
        f.post_read(64);
        let mut a = f.api();
        a.receive_request().unwrap();
        let _ = a.take_request(1);
    }

    #[test]
    fn request_mapping_is_the_live_decode_of_every_pending_request() {
        let mut f = Fix::new();
        // Virtual row 0 lives at bank 1 row 77, the way the RowClone
        // allocator remaps a pool row before handing out its address.
        f.placement.remap_row(0, 1, 77);
        let row = f.placement.mapper().geometry().row_bytes as u64;
        let mut line = [0u8; LINE_BYTES];
        line[3] = 7;
        f.post_read(128);
        f.post(
            0,
            RequestKind::Write {
                addr: 5 * row,
                data: line,
            },
            1,
        );
        f.post(
            0,
            RequestKind::RowClone {
                src_addr: 0,
                dst_addr: 9 * row,
            },
            2,
        );
        f.post(
            1,
            RequestKind::ProfileTrcd {
                addr: 3 * row + 64,
                trcd_ps: 9_000,
            },
            3,
        );
        let mut a = f.api();
        a.receive_all();
        let table = a.request_table().to_vec();
        assert_eq!(table[2].tag.dram.bank, 1, "the RowClone source is remapped");
        for req in &table {
            let before = a.cycles_spent();
            let own = a.get_request_mapping(req);
            let between = a.cycles_spent();
            assert_eq!(
                own,
                a.get_addr_mapping(req.addr()),
                "request {}",
                req.tag.id
            );
            assert_eq!(
                between - before,
                a.cycles_spent() - between,
                "the same charge"
            );
        }
    }

    /// The session as it was before the FIFO and the request table shared
    /// one buffer: a `VecDeque` FIFO, a `Vec` table, every call charging
    /// what it charges today, and the pass's responses as (tag, slice of
    /// Rocket cycles).
    #[derive(Default)]
    struct TwoBuffers {
        pending: VecDeque<MemRequest>,
        table: Vec<MemRequest>,
        rocket_cycles: u64,
        attributed: u64,
        responses: Vec<(RequestTag, u64)>,
    }

    impl TwoBuffers {
        fn begin(&mut self) {
            self.table.clear();
            self.responses.clear();
            (self.rocket_cycles, self.attributed) = (0, 0);
        }

        fn req_empty(&mut self, c: &SmcCostModel) -> bool {
            self.rocket_cycles += c.poll;
            self.pending.is_empty() && self.table.is_empty()
        }

        fn receive_request(&mut self, c: &SmcCostModel) -> Option<MemRequest> {
            self.rocket_cycles += c.receive_request;
            let req = self.pending.pop_front()?;
            self.table.push(req);
            Some(req)
        }

        fn receive_all(&mut self, c: &SmcCostModel) -> usize {
            let mut moved = 0;
            loop {
                self.rocket_cycles += c.poll;
                if self.pending.is_empty() {
                    break;
                }
                let _ = self.receive_request(c);
                moved += 1;
            }
            moved
        }

        fn schedule_fcfs(&mut self, c: &SmcCostModel) -> Option<usize> {
            self.rocket_cycles += c.schedule_fcfs;
            (!self.table.is_empty()).then_some(0)
        }

        fn schedule_frfcfs(&mut self, c: &SmcCostModel, open: &[Option<u32>]) -> Option<usize> {
            self.rocket_cycles += c.schedule_frfcfs;
            if self.table.is_empty() {
                return None;
            }
            let hit = (self.table.iter())
                .position(|r| open[r.tag.dram.bank as usize] == Some(r.tag.dram.row));
            Some(hit.unwrap_or(0))
        }

        fn enqueue_response(&mut self, c: &SmcCostModel, req: &MemRequest) {
            self.rocket_cycles += c.enqueue_response;
            self.responses
                .push((req.tag, self.rocket_cycles - self.attributed));
            self.attributed = self.rocket_cycles;
        }
    }

    proptest! {
        /// Random interleavings of posts and of every call that reads or
        /// moves the FIFO or the table give the same tables, picks,
        /// responses and ledger on the one-buffer session as on the two
        /// buffers it replaced. A post ends the pass in flight (the handle
        /// borrows the session); the next call opens a new one.
        #[test]
        fn one_buffer_session_matches_the_two_buffers_it_replaced(
            ops in prop::collection::vec((0u8..8, any::<u64>()), 1..48),
        ) {
            let mut f = Fix::new();
            // Bank b holds row b open, so FR-FCFS has hits to find.
            let banks = f.dev.config().geometry.banks();
            let mut a = f.api();
            for bank in 0..banks {
                a.ddr_activate(bank, bank).unwrap();
            }
            a.flush_commands().unwrap();
            let open: Vec<Option<u32>> = (0..banks).map(|b| f.dev.open_row(b)).collect();
            let costs = f.session.costs;
            let mut model = TwoBuffers::default();
            let mut taken: Vec<MemRequest> = Vec::new();
            let mut i = 0;
            while i < ops.len() {
                if let (0, x) = ops[i] {
                    let at = DramAddress::new(
                        (x % u64::from(banks)) as u32,
                        (x >> 8) as u32 % 4,
                        (x >> 16) as u32 % 8,
                    );
                    let addr = f.to_phys(at);
                    let id = f.post(0, RequestKind::Read { addr }, x >> 32);
                    let req = *f.session.pending().last().unwrap();
                    prop_assert_eq!(req.tag.id, id);
                    model.pending.push_back(req);
                    i += 1;
                    continue;
                }
                model.begin();
                let mut a = f.api();
                while i < ops.len() && ops[i].0 != 0 {
                    let (op, x) = ops[i];
                    i += 1;
                    match op {
                        1 => prop_assert_eq!(a.req_empty(), model.req_empty(&costs)),
                        2 => prop_assert_eq!(a.receive_request(), model.receive_request(&costs)),
                        3 => prop_assert_eq!(a.receive_all(), model.receive_all(&costs)),
                        4 => prop_assert_eq!(a.schedule_fcfs(), model.schedule_fcfs(&costs)),
                        5 => prop_assert_eq!(
                            a.schedule_frfcfs(),
                            model.schedule_frfcfs(&costs, &open)
                        ),
                        6 if !model.table.is_empty() => {
                            let idx = (x % model.table.len() as u64) as usize;
                            let req = a.take_request(idx);
                            prop_assert_eq!(req, model.table.remove(idx));
                            taken.push(req);
                        }
                        7 if !taken.is_empty() => {
                            let req = taken[(x % taken.len() as u64) as usize];
                            a.enqueue_response(&req, None, false);
                            model.enqueue_response(&costs, &req);
                        }
                        _ => {}
                    }
                    prop_assert_eq!(a.request_table(), model.table.as_slice());
                    prop_assert_eq!(a.cycles_spent(), model.rocket_cycles);
                }
                let responses: Vec<(RequestTag, u64)> = (f.session.responses().iter())
                    .map(|r| (r.tag, r.slice.rocket_cycles))
                    .collect();
                prop_assert_eq!(responses, model.responses.clone());
                prop_assert_eq!(f.session.ledger().totals.rocket_cycles, model.rocket_cycles);
                prop_assert!(f.session.pending().iter().eq(model.pending.iter()));
            }
        }
    }
}
