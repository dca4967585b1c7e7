//! Work-stealing worker pool (std only).
//!
//! Topology: one shared **injector** queue seeded with every job, plus one
//! **local deque** per worker. Owners drain their deque FIFO (pop from the
//! front), refill in batches from the injector, and — once the injector
//! runs dry — **steal** from the back of sibling deques (the victim's
//! newest-queued job: the opposite end from the owner, minimizing
//! contention). Jobs never spawn jobs, so "everything empty" is a sound
//! termination condition.
//!
//! Results stream to the caller through an [`std::sync::mpsc`] channel in
//! completion order; every job carries its submission index so callers can
//! re-establish deterministic order regardless of scheduling.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Per-worker execution counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Jobs this worker executed.
    pub jobs: u64,
    /// Jobs this worker stole from a sibling's deque.
    pub steals: u64,
    /// Wall time spent inside `exec` calls.
    pub busy: Duration,
    /// Wall time spent outside `exec` (dequeuing, stealing, waiting on
    /// the channel) between the worker's first and last activity.
    pub idle: Duration,
}

/// Resolves a requested thread count: `0` means "all available cores".
#[must_use]
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        requested
    }
}

/// Runs `jobs` on `threads` workers, streaming `(index, result)` pairs to
/// `consume` on the calling thread as they complete.
///
/// `consume` observes results in nondeterministic completion order; the
/// submission `index` lets the caller rebuild input order. Once `cancel`
/// (when present) reads `true`, workers stop dequeuing: jobs already
/// executing finish and their results are still delivered, the rest never
/// run. `queue_depth` (when present) is called with the injector's
/// remaining length after every batch refill, letting an observer sample
/// how fast the shared queue drains; it runs on worker threads under no
/// lock and must be cheap. Returns the per-worker counters.
///
/// # Panics
///
/// Propagates worker panics (via [`std::thread::scope`]).
pub fn run_jobs<J, R, E, C>(
    jobs: Vec<J>,
    threads: usize,
    cancel: Option<&AtomicBool>,
    queue_depth: Option<&(dyn Fn(usize) + Sync)>,
    exec: E,
    mut consume: C,
) -> Vec<WorkerStats>
where
    J: Send,
    R: Send,
    E: Fn(usize, J) -> R + Sync,
    C: FnMut(usize, R),
{
    let n = jobs.len();
    let threads = resolve_threads(threads).max(1).min(n.max(1));
    if n == 0 {
        return vec![WorkerStats::default(); threads];
    }

    // Batch size for injector refills: big enough to amortize the injector
    // lock, small enough that late stragglers still balance via stealing.
    let batch = (n / (threads * 8)).clamp(1, 64);

    let injector: Mutex<VecDeque<(usize, J)>> = Mutex::new(jobs.into_iter().enumerate().collect());
    let locals: Vec<Mutex<VecDeque<(usize, J)>>> =
        (0..threads).map(|_| Mutex::new(VecDeque::new())).collect();
    let (tx, rx) = mpsc::channel::<(usize, R)>();

    let mut stats = vec![WorkerStats::default(); threads];
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for worker in 0..threads {
            let tx = tx.clone();
            let injector = &injector;
            let locals = &locals;
            let exec = &exec;
            handles.push(scope.spawn(move || {
                let mut local_stats = WorkerStats::default();
                let started = Instant::now();
                loop {
                    if cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
                        break;
                    }
                    let job = next_job(
                        worker,
                        injector,
                        locals,
                        batch,
                        queue_depth,
                        &mut local_stats,
                    );
                    let Some((index, job)) = job else { break };
                    let t0 = Instant::now();
                    let result = exec(worker, job);
                    local_stats.busy += t0.elapsed();
                    local_stats.jobs += 1;
                    if tx.send((index, result)).is_err() {
                        break; // receiver gone: caller is unwinding
                    }
                }
                local_stats.idle = started.elapsed().saturating_sub(local_stats.busy);
                local_stats
            }));
        }
        drop(tx);

        // The calling thread doubles as the streaming aggregator.
        for (index, result) in rx {
            consume(index, result);
        }

        for (worker, handle) in handles.into_iter().enumerate() {
            match handle.join() {
                Ok(worker_stats) => stats[worker] = worker_stats,
                // Re-raise with the worker's own payload so the original
                // failure context survives to the caller.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    stats
}

/// Finds the next job for `worker`: local deque, then injector refill, then
/// stealing; `None` once every queue is empty.
fn next_job<J>(
    worker: usize,
    injector: &Mutex<VecDeque<(usize, J)>>,
    locals: &[Mutex<VecDeque<(usize, J)>>],
    batch: usize,
    queue_depth: Option<&(dyn Fn(usize) + Sync)>,
    stats: &mut WorkerStats,
) -> Option<(usize, J)> {
    if let Some(job) = locals[worker].lock().expect("local deque").pop_front() {
        return Some(job);
    }

    // Refill from the shared injector.
    {
        let mut inj = injector.lock().expect("injector");
        if !inj.is_empty() {
            let take = batch.min(inj.len());
            let mut mine = locals[worker].lock().expect("local deque");
            for _ in 0..take {
                if let Some(job) = inj.pop_front() {
                    mine.push_back(job);
                }
            }
            let remaining = inj.len();
            drop(inj);
            let popped = mine.pop_front();
            drop(mine);
            if let Some(observe) = queue_depth {
                observe(remaining);
            }
            return popped;
        }
    }

    // Steal from the *back* of a sibling (its newest-queued job — the
    // opposite end from the owner's front pops), round-robin
    // starting after our own slot to spread contention.
    let k = locals.len();
    for offset in 1..k {
        let victim = (worker + offset) % k;
        if let Some(job) = locals[victim].lock().expect("sibling deque").pop_back() {
            stats.steals += 1;
            return Some(job);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn all_jobs_run_exactly_once() {
        let executed = AtomicU64::new(0);
        let mut seen = vec![false; 500];
        let stats = run_jobs(
            (0..500u64).collect(),
            4,
            None,
            None,
            |_, j| {
                executed.fetch_add(1, Ordering::Relaxed);
                j * 2
            },
            |index, result| {
                assert_eq!(result, index as u64 * 2);
                assert!(!seen[index], "job {index} delivered twice");
                seen[index] = true;
            },
        );
        assert_eq!(executed.load(Ordering::Relaxed), 500);
        assert!(seen.iter().all(|&s| s));
        assert_eq!(stats.iter().map(|s| s.jobs).sum::<u64>(), 500);
    }

    #[test]
    fn single_thread_is_in_order() {
        let mut order = Vec::new();
        run_jobs(
            (0..50usize).collect(),
            1,
            None,
            None,
            |_, j| j,
            |index, _| order.push(index),
        );
        assert_eq!(order, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_is_fine() {
        let stats = run_jobs(
            Vec::<u8>::new(),
            3,
            None,
            None,
            |_, j| j,
            |_, _| unreachable!("no jobs"),
        );
        assert!(stats.iter().all(|s| s.jobs == 0));
    }

    #[test]
    fn uneven_work_gets_stolen() {
        // Job 0 parks until a sibling finishes a tiny job, so the rest of
        // the sweep must be stolen while its worker is pinned — a fixed
        // spin count was optimizer- and scheduler-dependent. The deadline
        // only bounds the failure mode (total starvation) instead of a hang.
        let tiny_done = AtomicU64::new(0);
        let stats = run_jobs(
            (0..64u64).collect(),
            4,
            None,
            None,
            |_, j| {
                if j == 0 {
                    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
                    while tiny_done.load(Ordering::Relaxed) == 0
                        && std::time::Instant::now() < deadline
                    {
                        std::hint::spin_loop();
                    }
                } else {
                    tiny_done.fetch_add(1, Ordering::Relaxed);
                }
                j
            },
            |_, _| {},
        );
        assert_eq!(stats.iter().map(|s| s.jobs).sum::<u64>(), 64);
        // No worker may have run everything while others idled.
        assert!(stats.iter().filter(|s| s.jobs > 0).count() > 1);
    }

    #[test]
    fn thread_resolution() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn cancellation_stops_dequeuing() {
        let cancel = AtomicBool::new(false);
        let mut delivered = 0usize;
        let stats = run_jobs(
            (0..500u64).collect(),
            2,
            Some(&cancel),
            None,
            |_, j| {
                std::thread::sleep(std::time::Duration::from_millis(1));
                j
            },
            |_, _| {
                delivered += 1;
                cancel.store(true, Ordering::Relaxed); // cancel on first result
            },
        );
        let executed: u64 = stats.iter().map(|s| s.jobs).sum();
        assert!(executed >= 1, "at least the first job ran");
        assert!(
            executed < 500,
            "cancellation must leave jobs unexecuted, ran {executed}"
        );
        assert_eq!(delivered as u64, executed, "every executed job delivers");
    }

    #[test]
    fn cancelled_before_start_runs_nothing() {
        let cancel = AtomicBool::new(true);
        let stats = run_jobs(
            (0..64u64).collect(),
            4,
            Some(&cancel),
            None,
            |_, j| j,
            |_, _| panic!("no job may run"),
        );
        assert_eq!(stats.iter().map(|s| s.jobs).sum::<u64>(), 0);
    }
}
