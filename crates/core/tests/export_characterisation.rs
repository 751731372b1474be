//! Characterisation of the trace export path: one seeded synthetic
//! [`TraceLog`] pushed in shuffled order, digested after
//! [`TraceLog::sort_for_export`] and through both exporters.
//!
//! The digests were recorded before the exporters stopped cloning and
//! re-sorting the log and before `JsonWriter` wrote digits itself; any
//! change to them means an exporter now emits different bytes or the sort
//! now produces a different order.

#[path = "../../../tests/support/fnv.rs"]
mod fnv;

use easydram::obs::{validate_chrome_json, EventKind, TraceEvent, TraceLog};
use easydram::RequestClass;
use fnv::Digest;

fn fnv(bytes: &[u8]) -> u64 {
    let mut d = Digest::default();
    d.bytes(bytes);
    d.0
}

fn order_digest(events: &[TraceEvent]) -> u64 {
    let mut d = Digest::default();
    for e in events {
        d.word(e.ps);
        d.word(e.id);
        d.word(u64::from(e.lane) << 32 | u64::from(e.requestor));
        d.word(u64::from(e.a) << 32 | u64::from(e.b));
        d.word(e.kind as u64);
    }
    d.0
}

struct Rng(u64);

impl Rng {
    /// splitmix64, reduced to `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }

    /// A timestamp on a coarse grid, so every track sees equal stamps.
    fn stamp(&mut self) -> u64 {
        self.below(40_000) * 2_500
    }
}

const LANES: u64 = 3;
const REQUESTORS: u64 = 3;
const REQUESTS: u64 = 12_000;

/// The log: request lifecycles (whole, and with the defects a wrapped ring
/// or a replayed id leaves behind), every command kind, mitigations and
/// baton switches, in shuffled order.
fn synthetic_log() -> TraceLog {
    let mut rng = Rng(0x00EA_5D7A);
    let mut log = TraceLog::default();
    for i in 0..REQUESTS {
        let id = match i {
            0 => 0,
            1 => u64::MAX,
            // Every 97th request reuses an earlier id, usually on another
            // track: the pairing must keep "the last event of a kind wins".
            _ if i % 97 == 0 => i / 2,
            _ => i,
        };
        let lane = rng.below(LANES) as u32;
        let requestor = rng.below(REQUESTORS) as u32;
        // Class 3 has no label of its own ("request").
        let class = rng.below(4) as u32;
        let enq = rng.stamp();
        let issue = enq + rng.below(8) * 2_500;
        let slice = issue + rng.below(40) * 2_500;
        // A few retire stamps precede their enqueue (duration saturates).
        let retire = if rng.below(50) == 0 {
            enq.saturating_sub(2_500)
        } else {
            slice + rng.below(8) * 2_500
        };
        let defect = rng.below(100);
        if !(0..7).contains(&defect) {
            log.push(TraceEvent::enqueue(enq, id, lane, requestor, class));
        }
        log.push(TraceEvent::issue(issue, id, lane, requestor));
        if defect == 20 {
            continue; // an issue alone: nothing to render
        }
        log.push(TraceEvent::slice_release(slice, id, lane, requestor));
        if !(5..12).contains(&defect) {
            log.push(TraceEvent::retire(retire, id, lane, requestor, class));
        }
        match defect {
            30..=33 => log.push(TraceEvent::issue(issue + 2_500, id, lane, requestor)),
            34 => log.push(TraceEvent::issue(issue, id, lane, requestor)),
            35 => log.push(TraceEvent::slice_release(
                slice + 5_000,
                id,
                lane,
                requestor,
            )),
            36 => log.push(TraceEvent::enqueue(enq, id, lane, requestor, class ^ 1)),
            37 => log.push(TraceEvent::retire(
                retire + 2_500,
                id,
                lane,
                requestor,
                class,
            )),
            _ => {}
        }
    }
    const COMMANDS: [EventKind; 6] = [
        EventKind::CmdActivate,
        EventKind::CmdPrecharge,
        EventKind::CmdRead,
        EventKind::CmdWrite,
        EventKind::CmdRefresh,
        EventKind::CmdRfm,
    ];
    for _ in 0..20_000 {
        let kind = COMMANDS[rng.below(6) as usize];
        let ps = rng.stamp();
        let lane = rng.below(LANES) as u32;
        // Few banks and rows: events equal in every sort field but `a`/`b`
        // occur, and only a stable sort keeps their pushed order.
        let (bank, arg) = (rng.below(4) as u32, rng.below(8) as u32);
        log.push(TraceEvent::command(ps, lane, kind, bank, arg));
    }
    for _ in 0..500 {
        let (ps, lane) = (rng.stamp(), rng.below(LANES) as u32);
        log.push(TraceEvent::mitigation(ps, lane, rng.below(5) as u32));
    }
    for _ in 0..2_000 {
        let (from, to) = (rng.below(REQUESTORS) as u32, rng.below(REQUESTORS) as u32);
        log.push(TraceEvent::quantum_switch(rng.stamp(), from, to));
    }
    // Stamps at both ends of the range and one past 10^12 ps.
    log.push(TraceEvent::command(0, 0, EventKind::CmdRefresh, 0, 0));
    log.push(TraceEvent::command(u64::MAX, 2, EventKind::CmdRfm, 1, 7));
    log.push(TraceEvent::enqueue(
        1_000_000_000_001,
        REQUESTS,
        1,
        2,
        RequestClass::Write as u32,
    ));
    log.push(TraceEvent::retire(
        2_000_000_999_999,
        REQUESTS,
        1,
        2,
        RequestClass::Write as u32,
    ));
    log.dropped = 4_321;
    // Fisher-Yates.
    for i in (1..log.events.len()).rev() {
        log.events.swap(i, rng.below(i as u64 + 1) as usize);
    }
    log
}

const EVENTS: usize = 69_606;
const ORDER_DIGEST: u64 = 0xFC0D_1164_9207_68CD;
const CHROME_DIGEST: u64 = 0x9CF4_2912_84AE_C176;
const CHROME_BYTES: usize = 3_566_220;
const BINARY_DIGEST: u64 = 0x4683_8C29_5D29_2618;

#[test]
fn export_path_matches_recorded_digests() {
    let log = synthetic_log();
    assert_eq!(log.events.len(), EVENTS);
    for kind in 0..12 {
        let kind = EventKind::from_u8(kind).unwrap();
        assert!(
            log.events.iter().any(|e| e.kind == kind),
            "{kind:?} present"
        );
    }
    assert!(
        !log.tracks_monotone(),
        "shuffled: some track runs backwards"
    );

    let mut sorted = log.clone();
    sorted.sort_for_export();
    assert!(
        sorted.tracks_monotone(),
        "export order is monotone per track"
    );
    assert_eq!(sorted.dropped, log.dropped);
    assert_eq!(
        order_digest(&sorted.events),
        ORDER_DIGEST,
        "order {:#018x}",
        order_digest(&sorted.events)
    );

    // Both exporters emit export order whatever order they are handed.
    let chrome = log.to_chrome_json();
    assert!(
        chrome == sorted.to_chrome_json(),
        "chrome: unsorted vs sorted"
    );
    let binary = log.to_binary();
    assert!(binary == sorted.to_binary(), "binary: unsorted vs sorted");
    assert_eq!(log.events.len(), EVENTS, "exporting leaves the log alone");

    validate_chrome_json(&chrome).expect("structurally valid");
    assert_eq!(
        (fnv(chrome.as_bytes()), chrome.len()),
        (CHROME_DIGEST, CHROME_BYTES),
        "chrome {:#018x}",
        fnv(chrome.as_bytes())
    );
    assert_eq!(fnv(&binary), BINARY_DIGEST, "binary {:#018x}", fnv(&binary));
    assert_eq!(
        TraceLog::parse_binary(&binary).as_deref(),
        Some(sorted.events.as_slice())
    );
}
