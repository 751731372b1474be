//! A batch worker pool. No simulation path uses it: serve passes and
//! co-runs execute on their caller's threads (see docs/API.md "Threads").
//! The module stays only because `benchmark/` times [`WorkerPool::run`] and
//! compiles against it; it goes with those probes (see ROADMAP).
//!
//! [`WorkerPool::run`] takes an ordered list of independent jobs and returns
//! their results **in job order**, whatever interleaving the threads
//! executed; with one thread (or a single job) it runs the jobs inline on
//! the caller. Work distribution is a work-stealing deque per participant
//! (the caller helps too): owners push and pop their own tail, idle threads
//! steal from the head of the other deques. Steals only change *who* runs a
//! job, never its result slot. The `det/thread-spawn` lint exempts exactly
//! this file.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};

/// An erased job enqueued on a deque. Jobs are self-contained: they write
/// their result into their own slot and count down the batch latch.
type Task = Box<dyn FnOnce() + Send>;

/// Countdown latch: `run` waits on it until every job of the batch has
/// executed, wherever it was stolen to.
struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
}

impl Latch {
    fn new(count: usize) -> Self {
        Self {
            remaining: Mutex::new(count),
            done: Condvar::new(),
        }
    }

    fn count_down(&self) {
        let mut left = self.remaining.lock().expect("latch state");
        *left -= 1;
        if *left == 0 {
            self.done.notify_all();
        }
    }

    fn wait(&self) {
        let mut left = self.remaining.lock().expect("latch state");
        while *left > 0 {
            left = self.done.wait(left).expect("latch state");
        }
    }
}

/// State shared between the pool handle and its worker threads.
struct PoolShared {
    /// One work-stealing deque per participant; the last one belongs to the
    /// caller of [`WorkerPool::run`]. Owners pop their own tail, thieves
    /// steal from the head — both under the deque's own short-lived lock, so
    /// `forbid(unsafe_code)` holds without a lock-free Chase–Lev core.
    deques: Vec<Mutex<VecDeque<Task>>>,
    /// Sleep/wake coordination. The predicate ("any deque non-empty, or
    /// shutdown") is re-checked under this lock after every wake, so a
    /// notification racing a worker's scan is never lost.
    signal: Mutex<bool>,
    bell: Condvar,
}

impl PoolShared {
    /// Takes one task: the caller's own tail first, then steal from the
    /// head of every other deque in index order.
    fn take_task(&self, home: usize) -> Option<Task> {
        if let Some(t) = self.deques[home].lock().expect("deque").pop_back() {
            return Some(t);
        }
        for (i, d) in self.deques.iter().enumerate() {
            if i == home {
                continue;
            }
            if let Some(t) = d.lock().expect("deque").pop_front() {
                return Some(t);
            }
        }
        None
    }

    fn any_pending(&self) -> bool {
        self.deques
            .iter()
            .any(|d| !d.lock().expect("deque").is_empty())
    }
}

/// Worker thread body: drain tasks, then sleep until the bell rings with
/// work pending (or shutdown).
fn worker_loop(shared: &PoolShared, home: usize) {
    loop {
        if let Some(task) = shared.take_task(home) {
            task();
            continue;
        }
        let mut shutdown = shared.signal.lock().expect("pool signal");
        loop {
            if *shutdown {
                return;
            }
            if shared.any_pending() {
                break;
            }
            shutdown = shared.bell.wait(shutdown).expect("pool signal");
        }
    }
}

/// A persistent pool of `threads - 1` worker threads plus the caller.
///
/// The pool is deliberately batch-oriented: [`WorkerPool::run`] submits a
/// whole batch, helps execute it, and returns every result in job order.
/// Worker threads are parked between batches and joined on drop.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    threads: u32,
}

impl WorkerPool {
    /// Builds a pool that executes batches on `threads` OS threads total
    /// (the caller of [`WorkerPool::run`] counts as one, so `threads <= 1`
    /// spawns nothing and `run` degenerates to the inline sequential path).
    #[must_use]
    pub fn new(threads: u32) -> Self {
        let spawn = threads.saturating_sub(1) as usize;
        let shared = Arc::new(PoolShared {
            deques: (0..spawn + 1)
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            signal: Mutex::new(false),
            bell: Condvar::new(),
        });
        let workers = (0..spawn)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("easydram-par-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("spawn pool worker")
            })
            .collect();
        Self {
            shared,
            workers,
            threads,
        }
    }

    /// Total threads (including the caller) this pool executes batches on.
    #[must_use]
    pub fn threads(&self) -> u32 {
        self.threads
    }

    /// Executes every job of the batch, concurrently where threads allow,
    /// and returns the results **in job order**.
    ///
    /// # Panics
    ///
    /// If a job panics, the batch still runs to completion (so no job's
    /// state is lost mid-steal) and the first panic payload is then
    /// re-raised on the caller.
    pub fn run<T: Send + 'static>(&self, jobs: Vec<Box<dyn FnOnce() -> T + Send>>) -> Vec<T> {
        let n = jobs.len();
        if n == 0 {
            return Vec::new();
        }
        if self.workers.is_empty() || n == 1 {
            // Exact sequential path: same call order, same caller thread.
            return jobs.into_iter().map(|job| job()).collect();
        }
        let slots: Arc<Mutex<Vec<Option<T>>>> =
            Arc::new(Mutex::new((0..n).map(|_| None).collect()));
        let first_panic: Arc<Mutex<Option<Box<dyn std::any::Any + Send>>>> =
            Arc::new(Mutex::new(None));
        let latch = Arc::new(Latch::new(n));
        let home = self.shared.deques.len() - 1;
        for (idx, job) in jobs.into_iter().enumerate() {
            let slots = Arc::clone(&slots);
            let first_panic = Arc::clone(&first_panic);
            let latch = Arc::clone(&latch);
            let task: Task = Box::new(move || {
                match catch_unwind(AssertUnwindSafe(job)) {
                    Ok(value) => slots.lock().expect("result slots")[idx] = Some(value),
                    Err(payload) => {
                        let mut slot = first_panic.lock().expect("panic slot");
                        if slot.is_none() {
                            *slot = Some(payload);
                        }
                    }
                }
                latch.count_down();
            });
            // Round-robin across every deque (workers and caller alike) so
            // a batch starts spread out instead of all-stealable-from-one.
            self.shared.deques[idx % self.shared.deques.len()]
                .lock()
                .expect("deque")
                .push_back(task);
        }
        {
            let _guard = self.shared.signal.lock().expect("pool signal");
            self.shared.bell.notify_all();
        }
        // The caller helps: tasks never enqueue further tasks, so once the
        // deques run dry all that is left is waiting for in-flight steals.
        while let Some(task) = self.shared.take_task(home) {
            task();
        }
        latch.wait();
        if let Some(payload) = first_panic.lock().expect("panic slot").take() {
            resume_unwind(payload);
        }
        let mut slots = slots.lock().expect("result slots");
        slots
            .drain(..)
            .map(|s| s.expect("every job stores its result"))
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut shutdown = self.shared.signal.lock().expect("pool signal");
            *shutdown = true;
        }
        self.shared.bell.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .field("workers", &self.workers.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn boxed_jobs(n: u64) -> Vec<Box<dyn FnOnce() -> u64 + Send>> {
        (0..n)
            .map(|i| Box::new(move || i * i) as Box<dyn FnOnce() -> u64 + Send>)
            .collect()
    }

    #[test]
    fn results_come_back_in_job_order() {
        for threads in [1, 2, 4, 8] {
            let pool = WorkerPool::new(threads);
            let out = pool.run(boxed_jobs(64));
            assert_eq!(out, (0..64).map(|i| i * i).collect::<Vec<u64>>());
        }
    }

    #[test]
    fn empty_and_single_batches_run_inline() {
        let pool = WorkerPool::new(4);
        assert!(pool.run(boxed_jobs(0)).is_empty());
        assert_eq!(pool.run(boxed_jobs(1)), vec![0]);
    }

    #[test]
    fn uneven_job_costs_still_reduce_deterministically() {
        let pool = WorkerPool::new(4);
        let jobs: Vec<Box<dyn FnOnce() -> u64 + Send>> = (0..32u64)
            .map(|i| {
                Box::new(move || {
                    // Skewed busy work: later jobs are much heavier.
                    let mut acc = i;
                    for k in 0..(i * 1000) {
                        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
                    }
                    std::hint::black_box(acc);
                    i
                }) as Box<dyn FnOnce() -> u64 + Send>
            })
            .collect();
        assert_eq!(pool.run(jobs), (0..32).collect::<Vec<u64>>());
    }

    #[test]
    fn pool_survives_reuse_across_batches() {
        let pool = WorkerPool::new(3);
        for round in 0..20u64 {
            let jobs: Vec<Box<dyn FnOnce() -> u64 + Send>> = (0..7u64)
                .map(|i| Box::new(move || round * 100 + i) as Box<dyn FnOnce() -> u64 + Send>)
                .collect();
            let out = pool.run(jobs);
            assert_eq!(out, (0..7).map(|i| round * 100 + i).collect::<Vec<u64>>());
        }
    }

    #[test]
    fn panics_propagate_after_the_batch_completes() {
        let pool = WorkerPool::new(4);
        let hits = Arc::new(Mutex::new(0u32));
        let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> = (0..8u32)
            .map(|i| {
                let hits = Arc::clone(&hits);
                Box::new(move || {
                    if i == 3 {
                        panic!("job 3 exploded");
                    }
                    *hits.lock().unwrap() += 1;
                    i
                }) as Box<dyn FnOnce() -> u32 + Send>
            })
            .collect();
        let res = catch_unwind(AssertUnwindSafe(|| pool.run(jobs)));
        let payload = res.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "job 3 exploded");
        // Every non-panicking job still ran to completion.
        assert_eq!(*hits.lock().unwrap(), 7);
    }
}
