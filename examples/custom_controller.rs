//! Writing your own software memory controller (paper Listing 1 / Table 2):
//! implement `SoftwareMemoryController` against EasyAPI and install it in a
//! running system — no HDL involved.
//!
//! The system↔controller boundary is a **request stream**: the core posts
//! writes and writebacks into the tile's pending FIFO without blocking, and
//! a read (or fence, or a full write buffer) forces a drain. Your `serve`
//! is then invoked over the whole accumulated batch at once — the request
//! table can hold many in-flight requests. `enqueue_response(&req, ..)`
//! copies the request's tag onto its response (answer every request exactly
//! once — the tile checks), and everything you spend between one
//! `enqueue_response` and the next is attributed to that response, so every
//! request gets its own release cycle. See `docs/API.md` for the full
//! lifecycle and the migration notes.
//!
//! ```sh
//! cargo run --release --example custom_controller
//! ```

use easydram_suite::cpu::CpuApi;
use easydram_suite::easydram::request::RequestKind;
use easydram_suite::easydram::{
    EasyApi, ServeResult, SoftwareMemoryController, System, SystemConfig, TimingMode,
};

/// The paper's Listing 1: a minimal controller with a closed-page policy.
/// Writes are supported by write-allocating in DRAM directly.
struct ListingOneController;

impl SoftwareMemoryController for ListingOneController {
    fn name(&self) -> &str {
        "listing-1"
    }

    fn serve(&mut self, api: &mut EasyApi<'_>) -> ServeResult {
        let mut result = ServeResult::default();
        api.set_scheduling_state(true);
        // Drain the hardware FIFO into the request table (Listing 1 line 3:
        // `while (!req_empty()) add_request(receive_request())`). The batch
        // may hold one read plus every writeback posted before it.
        api.receive_all();
        // Serve the table to empty. FCFS keeps arrival order; a smarter
        // controller would scan `api.request_table()` for row hits here
        // (see `FrFcfsController`) — with a multi-entry table that genuinely
        // changes per-request latency.
        while let Some(idx) = api.schedule_fcfs() {
            let req = api.take_request(idx);
            // Translate physical address to DRAM address (Listing 1's
            // `get_addr_mapping(req.addr)`; the tile decoded the request's
            // own address when it posted it, so this reads the tag).
            let addr = api.get_request_mapping(&req);
            match req.kind {
                RequestKind::Read { .. } => {
                    // Issue DRAM commands to serve the request.
                    api.ddr_activate(addr.bank, addr.row).unwrap();
                    api.ddr_read(addr.bank, addr.col).unwrap();
                    api.ddr_precharge(addr.bank).unwrap();
                    let (data, corrupted) = {
                        let r = api.flush_commands().unwrap();
                        (r.reads[0], r.read_corrupted[0])
                    };
                    // Send request response to the processor; the cycles
                    // spent since the previous response become this one's
                    // timing slice.
                    api.enqueue_response(&req, Some(data), corrupted);
                    result.row_misses += 1;
                }
                RequestKind::Write { data, .. } => {
                    api.ddr_activate(addr.bank, addr.row).unwrap();
                    api.ddr_write(addr.bank, addr.col, data).unwrap();
                    api.ddr_precharge(addr.bank).unwrap();
                    api.flush_commands().unwrap();
                    api.enqueue_response(&req, None, false);
                    result.row_misses += 1;
                }
                _ => {
                    // This minimal controller serves only reads and writes.
                    api.enqueue_response(&req, None, false);
                }
            }
        }
        api.set_scheduling_state(false);
        result
    }
}

fn main() {
    let mut sys = System::new(SystemConfig::jetson_nano(TimingMode::TimeScaling));
    sys.install_controller(Box::new(ListingOneController));
    println!("installed controller: {}", sys.tile().controller_name());

    // Exercise it: data must round-trip through DRAM.
    let a = sys.cpu().alloc(64 * 1024, 64);
    for i in 0..8192u64 {
        sys.cpu().store_u64(a + i * 8, i * 31 + 5);
    }
    for line in 0..1024u64 {
        sys.cpu().clflush(a + line * 64);
    }
    sys.cpu().fence();
    let mut bad = 0;
    for i in 0..8192u64 {
        if sys.cpu().load_u64(a + i * 8) != i * 31 + 5 {
            bad += 1;
        }
    }
    let report = sys.report("custom-controller");
    println!("round-trip mismatches: {bad}");
    println!("{report}");
    println!(
        "posted writes: {} | forced drains: {} | peak batch: {}",
        report.smc.posted_writes, report.smc.forced_drains, report.smc.peak_batch
    );

    // The flush burst above reaches the controller as multi-request batches
    // through the bounded write buffer.
    assert!(report.smc.peak_batch > 1, "batching must happen");
    // Closed-page FCFS leaves row-hit opportunities on the table; the
    // shipped FR-FCFS controller is faster on the same access pattern.
    assert_eq!(bad, 0);
    assert_eq!(report.smc.serve.row_hits, 0, "closed page never hits");
}
