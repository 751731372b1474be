//! Sharing one memory backend between several cores.
//!
//! [`SharedBackend`] is a cloneable handle over an `Arc<Mutex<B>>`: each of
//! the N cores of a multi-core system owns one handle onto the *same*
//! memory system, tagged with its **requestor id**. Before every delegated
//! operation the handle announces its requestor through
//! [`MemoryBackend::set_requestor`], so the backend can attribute requests,
//! row hits, and bus occupancy per core.
//!
//! [`CoScheduler`] is the deterministic execution engine behind a
//! multi-programmed run. Workloads are ordinary run-to-completion programs,
//! so the cores execute on one OS thread each — but **never concurrently**:
//! the scheduler passes a baton, and exactly one core executes at any
//! instant. The baton moves at memory-operation boundaries, always to the
//! core with the smallest emulated `now` (ties broken by core id), bounded
//! by a quantum: the running core keeps the baton while it is within
//! `quantum` emulated cycles of the laggard. Because every scheduling
//! decision depends only on emulated cycle counts — never on host timing —
//! a co-run is byte-identical across repetitions. A core without the baton
//! is parked, and a hand-off wakes the one thread whose turn it is.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::{self, Thread};

use crate::backend::{LineFetch, MemoryBackend, RowCloneRequestResult};
use crate::LINE_BYTES;

struct CoState {
    /// Last emulated cycle each core reported at a checkpoint.
    now: Vec<u64>,
    finished: Vec<bool>,
    /// The core currently holding the execution baton.
    turn: usize,
    /// The thread each core runs on, once it has called `start`.
    threads: Vec<Option<Thread>>,
    /// Optional baton-handoff log (observability), `None` unless
    /// [`CoScheduler::enable_switch_log`] was called.
    switch_log: Option<SwitchLog>,
}

/// One baton handoff, as recorded by the co-scheduler's optional switch
/// log: purely emulated-time data (the publish cycle of the yielding core),
/// so logging cannot perturb scheduling decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuantumSwitch {
    /// Emulated cycle the yielding core had published when it handed off.
    pub cycle: u64,
    /// Core that released the baton.
    pub from: u32,
    /// Core that received it.
    pub to: u32,
}

/// Fixed-capacity overwrite-oldest ring of [`QuantumSwitch`] records.
struct SwitchLog {
    buf: Vec<QuantumSwitch>,
    cap: usize,
    head: usize,
    dropped: u64,
}

impl SwitchLog {
    fn push(&mut self, sw: QuantumSwitch) {
        if self.buf.len() < self.cap {
            self.buf.push(sw);
        } else {
            self.buf[self.head] = sw;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }
}

/// Deterministic smallest-`now`-first baton scheduler for co-run cores.
pub struct CoScheduler {
    state: Mutex<CoState>,
    /// Mirror of `CoState::turn` that parked cores read without the lock.
    /// Stored (`Release`) under the lock, loaded (`Acquire`) by the waiter:
    /// everything the last holder did happens before the next one runs.
    turn: AtomicUsize,
    quantum: u64,
}

impl CoScheduler {
    /// Creates a scheduler for `cores` cores with the given quantum
    /// (emulated cycles a core may run ahead of the laggard before
    /// yielding).
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    #[must_use]
    pub fn new(cores: usize, quantum: u64) -> Arc<Self> {
        assert!(cores > 0, "a co-run needs at least one core");
        Arc::new(Self {
            state: Mutex::new(CoState {
                now: vec![0; cores],
                finished: vec![false; cores],
                turn: 0,
                threads: vec![None; cores],
                switch_log: None,
            }),
            turn: AtomicUsize::new(0),
            quantum,
        })
    }

    /// The unfinished core that should run next: smallest `(now, id)`,
    /// except the incumbent keeps the baton while within the quantum.
    fn pick(&self, st: &CoState) -> usize {
        let laggard = (0..st.now.len())
            .filter(|&i| !st.finished[i])
            .min_by_key(|&i| (st.now[i], i));
        let Some(laggard) = laggard else {
            return st.turn;
        };
        if !st.finished[st.turn] && st.now[st.turn] <= st.now[laggard].saturating_add(self.quantum)
        {
            st.turn
        } else {
            laggard
        }
    }

    /// Moves the baton from core `id` to core `next` and wakes the thread
    /// `next` runs on, alone, once the state lock is released: a woken core
    /// that found the lock still held would go straight back to sleep.
    fn hand_off(&self, mut st: MutexGuard<'_, CoState>, id: usize, next: usize) {
        let cycle = st.now[id];
        if let Some(log) = st.switch_log.as_mut() {
            log.push(QuantumSwitch {
                cycle,
                from: id as u32,
                to: next as u32,
            });
        }
        st.turn = next;
        // Published under the lock `start` registers under: a core that has
        // not registered yet reads its turn afterwards and never parks.
        self.turn.store(next, Ordering::Release);
        let waiter = st.threads[next].clone();
        drop(st);
        if let Some(waiter) = waiter {
            waiter.unpark();
        }
    }

    /// Parks until core `id` holds the baton (a stale or spurious wake-up
    /// re-checks the turn).
    fn wait_for_turn(&self, id: usize) {
        while self.turn.load(Ordering::Acquire) != id {
            thread::park();
        }
    }

    /// Blocks until core `id` holds the baton. Each core's thread calls
    /// this once, before executing any workload code.
    pub fn start(&self, id: usize) {
        self.state.lock().expect("co-scheduler state").threads[id] = Some(thread::current());
        self.wait_for_turn(id);
    }

    /// Records core `id` at emulated cycle `now` and yields the baton if a
    /// laggard core has fallen more than the quantum behind. Returns once
    /// `id` holds the baton again. Called by [`SharedBackend`] before every
    /// memory operation. Only the baton holder ever calls this.
    pub fn checkpoint(&self, id: usize, now: u64) {
        let mut st = self.state.lock().expect("co-scheduler state");
        debug_assert_eq!(st.turn, id, "only the baton holder executes");
        st.now[id] = st.now[id].max(now);
        let next = self.pick(&st);
        if next != id {
            self.hand_off(st, id, next);
            self.wait_for_turn(id);
        }
    }

    /// Marks core `id` finished (at emulated cycle `now`) and hands the
    /// baton to the smallest-`now` remaining core.
    pub fn finish(&self, id: usize, now: u64) {
        let mut st = self.state.lock().expect("co-scheduler state");
        st.now[id] = st.now[id].max(now);
        st.finished[id] = true;
        if st.turn == id {
            let next = self.pick(&st);
            if next != id {
                self.hand_off(st, id, next);
            }
        }
    }

    /// Enables baton-handoff logging into a fixed-capacity overwrite-oldest
    /// ring of at most `capacity` records (minimum 1), replacing any prior
    /// log. The log lives behind the scheduler's own mutex and records only
    /// emulated cycles, so it cannot change any scheduling decision.
    pub fn enable_switch_log(&self, capacity: usize) {
        let cap = capacity.max(1);
        let mut st = self.state.lock().expect("co-scheduler state");
        st.switch_log = Some(SwitchLog {
            buf: Vec::with_capacity(cap),
            cap,
            head: 0,
            dropped: 0,
        });
    }

    /// Drains the baton-handoff log in handoff order (oldest surviving
    /// record first), returning the records and how many were overwritten.
    /// Empty when logging was never enabled; logging stays enabled
    /// afterwards.
    pub fn take_switches(&self) -> (Vec<QuantumSwitch>, u64) {
        let mut st = self.state.lock().expect("co-scheduler state");
        match st.switch_log.as_mut() {
            None => (Vec::new(), 0),
            Some(log) => {
                let mut out = Vec::with_capacity(log.buf.len());
                out.extend_from_slice(&log.buf[log.head..]);
                out.extend_from_slice(&log.buf[..log.head]);
                let dropped = log.dropped;
                log.buf.clear();
                log.head = 0;
                log.dropped = 0;
                (out, dropped)
            }
        }
    }
}

/// A cloneable [`MemoryBackend`] handle sharing one backend between cores.
///
/// Every operation is tagged with this handle's requestor id and serialized
/// through the shared mutex; when a [`CoScheduler`] is attached, the handle
/// also checkpoints the core's emulated time before each operation, which
/// is what interleaves the co-run deterministically.
pub struct SharedBackend<B> {
    inner: Arc<Mutex<B>>,
    requestor: u32,
    sched: Option<Arc<CoScheduler>>,
    /// Latest issue cycle seen, used to timestamp operations that carry no
    /// cycle of their own (allocation).
    last_now: u64,
}

impl<B: MemoryBackend> SharedBackend<B> {
    /// Wraps `backend` for sharing and returns one tagged handle per core:
    /// handle `i` is requestor `i`.
    #[must_use]
    pub fn fan_out(backend: B, cores: usize) -> Vec<Self> {
        let inner = Arc::new(Mutex::new(backend));
        (0..cores)
            .map(|i| Self {
                inner: Arc::clone(&inner),
                requestor: i as u32,
                sched: None,
                last_now: 0,
            })
            .collect()
    }

    /// The shared backend itself (for host-side tooling and reports).
    #[must_use]
    pub fn shared(&self) -> Arc<Mutex<B>> {
        Arc::clone(&self.inner)
    }

    /// This handle's requestor id.
    #[must_use]
    pub fn requestor(&self) -> u32 {
        self.requestor
    }

    /// Attaches the co-scheduler that arbitrates this handle's core.
    pub fn attach_scheduler(&mut self, sched: Arc<CoScheduler>) {
        self.sched = Some(sched);
    }

    /// Detaches the co-scheduler (end of a co-run).
    pub fn detach_scheduler(&mut self) {
        self.sched = None;
    }

    /// Runs `f` over the locked shared backend with this handle's requestor
    /// announced.
    fn with_inner<R>(&mut self, f: impl FnOnce(&mut B) -> R) -> R {
        let mut inner = self.inner.lock().expect("shared backend");
        inner.set_requestor(self.requestor);
        f(&mut inner)
    }

    /// Checkpoint at `now` (the issue cycle of the operation about to run).
    fn sync(&mut self, now: u64) {
        self.last_now = self.last_now.max(now);
        if let Some(sched) = &self.sched {
            sched.checkpoint(self.requestor as usize, now);
        }
    }
}

impl<B: MemoryBackend> MemoryBackend for SharedBackend<B> {
    fn set_requestor(&mut self, requestor: u32) {
        self.requestor = requestor;
    }

    fn read_line(&mut self, line_addr: u64, issue_cycle: u64) -> LineFetch {
        self.sync(issue_cycle);
        self.with_inner(|b| b.read_line(line_addr, issue_cycle))
    }

    fn post_write(&mut self, line_addr: u64, data: [u8; LINE_BYTES], issue_cycle: u64) -> u64 {
        self.sync(issue_cycle);
        self.with_inner(|b| b.post_write(line_addr, data, issue_cycle))
    }

    fn drain_writes(&mut self, issue_cycle: u64) -> u64 {
        self.sync(issue_cycle);
        self.with_inner(|b| b.drain_writes(issue_cycle))
    }

    fn alloc(&mut self, bytes: u64, align: u64) -> u64 {
        self.sync(self.last_now);
        self.with_inner(|b| b.alloc(bytes, align))
    }

    fn capacity_bytes(&self) -> u64 {
        self.inner.lock().expect("shared backend").capacity_bytes()
    }

    fn row_bytes(&self) -> u64 {
        self.inner.lock().expect("shared backend").row_bytes()
    }

    fn rowclone(
        &mut self,
        src_row_addr: u64,
        dst_row_addr: u64,
        issue_cycle: u64,
    ) -> Option<RowCloneRequestResult> {
        self.sync(issue_cycle);
        self.with_inner(|b| b.rowclone(src_row_addr, dst_row_addr, issue_cycle))
    }

    fn rowclone_alloc_copy(&mut self, bytes: u64) -> Option<(u64, u64)> {
        self.sync(self.last_now);
        self.with_inner(|b| b.rowclone_alloc_copy(bytes))
    }

    fn rowclone_alloc_init(&mut self, bytes: u64) -> Option<(u64, Vec<u64>)> {
        self.sync(self.last_now);
        self.with_inner(|b| b.rowclone_alloc_init(bytes))
    }

    fn rowclone_init_source(&mut self, dst_row_addr: u64) -> Option<u64> {
        // Checkpoint like every other delegated operation: the lookup reads
        // shared allocator state, so its position in the co-run order must
        // be a function of emulated time, not host scheduling.
        self.sync(self.last_now);
        self.with_inner(|b| b.rowclone_init_source(dst_row_addr))
    }
}

impl<B: std::fmt::Debug> std::fmt::Debug for SharedBackend<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedBackend")
            .field("requestor", &self.requestor)
            .field("co_scheduled", &self.sched.is_some())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed::FixedLatencyBackend;
    use crate::{CoreConfig, CoreModel, CpuApi};

    #[test]
    fn handles_share_data_and_allocator() {
        let mut handles = SharedBackend::fan_out(FixedLatencyBackend::new(10), 2);
        let mut b = handles.pop().unwrap();
        let mut a = handles.pop().unwrap();
        assert_eq!(a.requestor(), 0);
        assert_eq!(b.requestor(), 1);
        let addr = a.alloc(64, 64);
        let other = b.alloc(64, 64);
        assert_ne!(addr, other, "allocations come from one shared cursor");
        let mut line = [0u8; LINE_BYTES];
        line[0] = 0xCD;
        a.post_write(addr, line, 0);
        assert_eq!(b.read_line(addr, 5).data[0], 0xCD, "writes are visible");
    }

    #[test]
    fn cores_over_shared_backend_see_each_others_stores() {
        let mut handles = SharedBackend::fan_out(FixedLatencyBackend::new(50), 2);
        let hb = handles.pop().unwrap();
        let ha = handles.pop().unwrap();
        let mut core_a = CoreModel::new(CoreConfig::cortex_a57(), ha);
        let mut core_b = CoreModel::new(CoreConfig::cortex_a57(), hb);
        let addr = core_a.alloc(64, 64);
        core_a.store_u64(addr, 99);
        core_a.clflush(addr);
        core_a.fence();
        assert_eq!(core_b.load_u64(addr), 99);
    }

    #[test]
    fn scheduler_smallest_now_runs_first() {
        let sched = CoScheduler::new(2, 0);
        // Baton starts at core 0; core 0 at cycle 100 must yield to core 1
        // at cycle 0, then regain it once core 1 reports cycle 200.
        let s2 = Arc::clone(&sched);
        #[expect(clippy::disallowed_methods, reason = "the test plays the second core")]
        let t = std::thread::spawn(move || {
            s2.start(1);
            s2.checkpoint(1, 200);
            s2.finish(1, 250);
        });
        sched.start(0);
        sched.checkpoint(0, 100); // yields to core 1, returns when 1 passes 100
        sched.finish(0, 100);
        t.join().unwrap();
    }

    /// Two cores leapfrogging at quantum 0 hand the baton off six times; a
    /// two-record log keeps the newest two and counts the other four.
    #[test]
    fn switch_log_keeps_the_newest_handoffs() {
        let sched = CoScheduler::new(2, 0);
        sched.enable_switch_log(2);
        let s2 = Arc::clone(&sched);
        #[expect(clippy::disallowed_methods, reason = "the test plays the second core")]
        let t = std::thread::spawn(move || {
            s2.start(1);
            s2.checkpoint(1, 200);
            s2.checkpoint(1, 400);
            s2.finish(1, 600);
        });
        sched.start(0);
        for now in [100, 300, 500] {
            sched.checkpoint(0, now);
        }
        sched.finish(0, 500);
        t.join().unwrap();
        let (switches, dropped) = sched.take_switches();
        assert_eq!(
            switches,
            [
                QuantumSwitch {
                    cycle: 500,
                    from: 0,
                    to: 1
                },
                QuantumSwitch {
                    cycle: 600,
                    from: 1,
                    to: 0
                },
            ],
            "the newest two, in handoff order"
        );
        assert_eq!(dropped, 6 - 2);
    }

    /// Four cores on seeded cycle streams: the parked threads make exactly
    /// the baton moves a single-threaded replay of `pick` makes.
    #[test]
    fn threaded_baton_moves_match_a_replay_of_pick() {
        const CORES: usize = 4;
        const CHECKPOINTS: usize = 5_000;
        let mut rng = 0x5EED_u64;
        let streams: Vec<Vec<u64>> = (0..CORES)
            .map(|_| {
                let mut now = 0;
                let mut step = || {
                    // An LCG's high bits; steps of 0 make equal cycles.
                    rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
                    now += (rng >> 33) % 97;
                    now
                };
                (0..CHECKPOINTS).map(|_| step()).collect()
            })
            .collect();
        for quantum in [0, 40, 200] {
            let replay = CoScheduler::new(CORES, quantum);
            let mut expect = Vec::new();
            let mut st = replay.state.lock().unwrap();
            let mut cursor = [0; CORES];
            while !st.finished[st.turn] {
                let id = st.turn;
                match streams[id].get(cursor[id]) {
                    Some(&now) => st.now[id] = st.now[id].max(now),
                    None => st.finished[id] = true,
                }
                cursor[id] += 1;
                let next = replay.pick(&st);
                if next != id {
                    expect.push(QuantumSwitch {
                        cycle: st.now[id],
                        from: id as u32,
                        to: next as u32,
                    });
                    st.turn = next;
                }
            }

            let sched = CoScheduler::new(CORES, quantum);
            sched.enable_switch_log(CORES * (CHECKPOINTS + 1));
            #[expect(clippy::disallowed_methods, reason = "the test plays the cores")]
            std::thread::scope(|scope| {
                for (id, stream) in streams.iter().enumerate() {
                    let sched = &sched;
                    scope.spawn(move || {
                        sched.start(id);
                        for &now in stream {
                            sched.checkpoint(id, now);
                        }
                        sched.finish(id, stream[CHECKPOINTS - 1]);
                    });
                }
            });
            let (switches, dropped) = sched.take_switches();
            assert_eq!(dropped, 0);
            assert!(switches.len() > CHECKPOINTS / 4, "the baton moved");
            assert!(switches == expect, "quantum {quantum}");
        }
    }
}
