//! A batch runner that is sequential; kept for `benchmark/`'s
//! `par.run_us_per_batch` probe, which compiles against these signatures. No
//! simulation path uses it, and like `SystemConfig::threads` the thread count
//! is accepted and has no effect (see docs/API.md "Threads"). It goes when a
//! `benchmark` PR drops the probe (see ROADMAP).

/// Runs batches of jobs on the caller, in job order.
#[derive(Debug)]
pub struct WorkerPool {
    threads: u32,
}

impl WorkerPool {
    /// Builds a pool; `threads` is recorded for [`WorkerPool::threads`] and
    /// changes nothing else.
    #[must_use]
    pub fn new(threads: u32) -> Self {
        Self { threads }
    }

    /// The thread count the pool was built with.
    #[must_use]
    pub fn threads(&self) -> u32 {
        self.threads
    }

    /// Runs every job on the calling thread and returns the results in job
    /// order. A panicking job unwinds through the caller; later jobs do not
    /// run.
    pub fn run<T: Send + 'static>(&self, jobs: Vec<Box<dyn FnOnce() -> T + Send>>) -> Vec<T> {
        jobs.into_iter().map(|job| job()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Job = Box<dyn FnOnce() -> u64 + Send>;

    #[test]
    fn results_come_back_in_job_order() {
        let pool = WorkerPool::new(2);
        assert_eq!(pool.threads(), 2);
        for n in [0u64, 1, 5] {
            let jobs: Vec<Job> = (0..n).map(|i| Box::new(move || i * i) as Job).collect();
            assert_eq!(pool.run(jobs), (0..n).map(|i| i * i).collect::<Vec<_>>());
        }
        let jobs: Vec<Job> = vec![Box::new(|| 1), Box::new(|| panic!("job 1 exploded"))];
        let run = std::panic::AssertUnwindSafe(|| pool.run(jobs));
        let payload = std::panic::catch_unwind(run).expect_err("panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"job 1 exploded"));
    }
}
