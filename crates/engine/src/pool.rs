//! Self-scheduling worker pool (std only).
//!
//! Workers claim jobs from one shared cursor over the job slice: each
//! `fetch_add` on an [`AtomicUsize`] hands out the next expansion index,
//! so jobs start in slice order and every index runs exactly once. Jobs
//! never spawn jobs, so a cursor past the end is a sound termination
//! condition.
//!
//! The calling thread is worker 0: it claims the first job before any
//! helper starts, runs jobs like any helper and, between its own jobs,
//! hands every finished result to the caller's `consume` — its own at
//! once, the helpers' as they arrive over an [`std::sync::mpsc`] channel. Only `threads − 1` helpers are spawned,
//! so a 1-thread pool spawns nothing and nobody sleeps waiting for
//! results while work is queued. Results are consumed in completion
//! order; every job carries its submission index so callers can
//! re-establish deterministic order regardless of scheduling.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Per-worker execution counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Jobs this worker executed.
    pub jobs: u64,
    /// Wall time spent inside `exec` calls.
    pub busy: Duration,
    /// Wall time spent outside `exec` (claiming jobs, handing on results)
    /// between the worker's first and last activity. Worker 0 runs on the
    /// calling thread, so its share includes the time spent in `consume`.
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

/// Runs `jobs` on `threads` workers, the calling thread among them, and
/// hands `(index, result)` pairs to `consume` on the calling thread as
/// they complete.
///
/// Jobs are claimed in slice order; `consume` observes results in
/// nondeterministic completion order, and the slice `index` lets the
/// caller rebuild input order. Once `cancel` (when present) reads `true`,
/// workers stop claiming: jobs already executing finish and their results
/// are still delivered, the rest never run. `queue_depth` (when present)
/// is called every few claims with the number of jobs not yet claimed,
/// letting an observer sample how fast the sweep drains; it runs on
/// worker threads under no lock and must be cheap. Returns the
/// per-worker counters.
///
/// `exec` runs on the calling thread as worker 0 and may set the thread's
/// trace lane; the caller's lane is restored after every such job, so
/// spans opened in `consume` (and after the call) carry the caller's lane.
///
/// # Panics
///
/// Propagates a panic from any job or from `consume` with its original
/// payload, once the helper threads have stopped.
pub fn run_jobs<J, R, E, C>(
    jobs: &[J],
    threads: usize,
    cancel: Option<&AtomicBool>,
    queue_depth: Option<&(dyn Fn(usize) + Sync)>,
    exec: E,
    mut consume: C,
) -> Vec<WorkerStats>
where
    J: Sync,
    R: Send,
    E: Fn(usize, &J) -> R + Sync,
    C: FnMut(usize, R),
{
    let n = jobs.len();
    let threads = resolve_threads(threads).max(1).min(n.max(1));
    if n == 0 {
        return vec![WorkerStats::default(); threads];
    }

    let cursor = Cursor {
        jobs,
        next: AtomicUsize::new(0),
        // Sampling every `sample_every`-th claim keeps the observer off
        // the per-job path: no shared store but the cursor's own.
        sample_every: (n / (threads * 8)).clamp(1, 64),
        cancel,
        queue_depth,
    };

    // Worker 0 claims before any helper exists, so the caller runs the
    // first job of every sweep that is not cancelled.
    let first = cursor.claim();
    let mut stats = vec![WorkerStats::default(); threads];
    std::thread::scope(|scope| {
        // Created inside the scope: if worker 0 unwinds, the receiver
        // drops first and every helper stops at its next send.
        let (tx, rx) = mpsc::channel::<(usize, R)>();
        let helpers: Vec<_> = (1..threads)
            .map(|worker| {
                let tx = tx.clone();
                let (cursor, exec) = (&cursor, &exec);
                scope.spawn(move || {
                    cursor.work(
                        cursor.claim(),
                        |job| exec(worker, job),
                        // A closed channel means the caller is unwinding.
                        |index, result| tx.send((index, result)).is_ok(),
                    )
                })
            })
            .collect();
        drop(tx);

        let lane = hetrta_obs::thread_lane();
        stats[0] = cursor.work(
            first,
            |job| {
                let _lane = RestoreLane(lane);
                exec(0, job)
            },
            |index, result| {
                consume(index, result);
                for (index, result) in rx.try_iter() {
                    consume(index, result);
                }
                true
            },
        );
        // Worker 0 is done: wait out the helpers' last jobs.
        for (index, result) in rx {
            consume(index, result);
        }

        for (slot, handle) in stats[1..].iter_mut().zip(helpers) {
            match handle.join() {
                Ok(worker_stats) => *slot = worker_stats,
                // Re-raise with the worker's own payload so the original
                // failure context survives to the caller.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    stats
}

/// Puts a thread's trace lane back when dropped, unwinding included:
/// after each job worker 0 runs, and after a session on its caller.
pub(crate) struct RestoreLane(pub(crate) u32);

impl Drop for RestoreLane {
    fn drop(&mut self) {
        hetrta_obs::set_thread_lane(self.0);
    }
}

/// The job slice, the shared claim cursor over it, and what every worker
/// consults between jobs.
struct Cursor<'a, J> {
    jobs: &'a [J],
    next: AtomicUsize,
    sample_every: usize,
    cancel: Option<&'a AtomicBool>,
    queue_depth: Option<&'a (dyn Fn(usize) + Sync)>,
}

impl<J> Cursor<'_, J> {
    /// The index of the next job, or `None` once `cancel` flipped or the
    /// cursor passed the last job.
    fn claim(&self) -> Option<usize> {
        if self.cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
            return None;
        }
        // The cursor publishes nothing but its own count (the slice is
        // shared before any worker starts), and the read-modify-write
        // alone makes every claimed index distinct. Each worker overshoots
        // the end at most once, so it cannot wrap.
        let index = self.next.fetch_add(1, Ordering::Relaxed);
        (index < self.jobs.len()).then_some(index)
    }

    /// Runs one worker's loop from its `claimed` job until a claim comes
    /// back empty or `deliver` refuses a result.
    fn work<R>(
        &self,
        mut claimed: Option<usize>,
        exec: impl Fn(&J) -> R,
        mut deliver: impl FnMut(usize, R) -> bool,
    ) -> WorkerStats {
        let mut stats = WorkerStats::default();
        let started = Instant::now();
        while let Some(index) = claimed {
            if let Some(observe) = self.queue_depth {
                let left = self.jobs.len() - index - 1;
                // The last claim always samples, so the depth drains to 0.
                if index.is_multiple_of(self.sample_every) || left == 0 {
                    observe(left);
                }
            }
            let t0 = Instant::now();
            let result = exec(&self.jobs[index]);
            stats.busy += t0.elapsed();
            stats.jobs += 1;
            if !deliver(index, result) {
                break;
            }
            claimed = self.claim();
        }
        stats.idle = started.elapsed().saturating_sub(stats.busy);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    #[test]
    fn all_jobs_run_exactly_once() {
        for n in [1usize, 2, 7, 64, 500] {
            let jobs: Vec<u64> = (0..n as u64).collect();
            for threads in [1, 2, 3, 8] {
                let executed = AtomicU64::new(0);
                let mut seen = vec![false; n];
                let depths = Mutex::new(Vec::new());
                let observe = |depth| depths.lock().unwrap().push(depth);
                let stats = run_jobs(
                    &jobs,
                    threads,
                    None,
                    Some(&observe),
                    |_, &j| {
                        executed.fetch_add(1, Ordering::Relaxed);
                        j * 2
                    },
                    |index, result| {
                        assert_eq!(result, index as u64 * 2);
                        assert!(!seen[index], "job {index} delivered twice");
                        seen[index] = true;
                    },
                );
                let case = format!("{n} jobs on {threads} threads");
                // The depth is sampled on a few claims, the last among them.
                let depths = depths.into_inner().unwrap();
                assert!(depths.contains(&0), "{case}: {depths:?}");
                assert!(depths.iter().all(|&d| d < n), "{case}: {depths:?}");
                assert!(depths.len() <= 16 * threads.min(n), "{case}: {depths:?}");
                assert_eq!(executed.load(Ordering::Relaxed), n as u64, "{case}");
                assert!(seen.iter().all(|&s| s), "{case}");
                assert_eq!(
                    stats.iter().map(|s| s.jobs).sum::<u64>(),
                    n as u64,
                    "{case}"
                );
            }
        }
    }

    #[test]
    fn single_thread_is_in_order() {
        let caller = std::thread::current().id();
        let mut order = Vec::new();
        let stats = run_jobs(
            &(0..50usize).collect::<Vec<_>>(),
            1,
            None,
            None,
            |_, &j| (j, std::thread::current().id()),
            |index, (_, ran_on)| {
                assert_eq!(ran_on, caller, "a 1-thread pool spawns nothing");
                order.push(index);
            },
        );
        assert_eq!(order, (0..50).collect::<Vec<_>>());
        assert_eq!(stats.len(), 1);
    }

    #[test]
    fn empty_input_is_fine() {
        let stats = run_jobs(
            &[] as &[u8],
            3,
            None,
            None,
            |_, &j| j,
            |_, _| unreachable!("no jobs"),
        );
        assert!(stats.iter().all(|s| s.jobs == 0));
    }

    #[test]
    fn a_parked_job_does_not_hold_up_the_rest() {
        // Job 0 parks until a sibling finishes a tiny job, so the rest of
        // the sweep must be claimed by other workers while its worker is
        // pinned. The deadline only bounds the failure mode (total
        // starvation) instead of a hang.
        let tiny_done = AtomicU64::new(0);
        let stats = run_jobs(
            &(0..64u64).collect::<Vec<_>>(),
            4,
            None,
            None,
            |_, &j| {
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
    fn n_threads_are_the_caller_and_n_minus_one_helpers() {
        // Every job waits until all workers hold one, so each of the
        // three runs exactly one; the deadline only bounds a failure.
        const THREADS: usize = 3;
        let caller = std::thread::current().id();
        let started = AtomicU64::new(0);
        let ran_on = Mutex::new(std::collections::HashMap::new());
        run_jobs(
            &(0..THREADS).collect::<Vec<_>>(),
            THREADS,
            None,
            None,
            |_, &j| {
                ran_on
                    .lock()
                    .unwrap()
                    .insert(j, std::thread::current().id());
                started.fetch_add(1, Ordering::SeqCst);
                let deadline = Instant::now() + Duration::from_secs(10);
                while started.load(Ordering::SeqCst) < THREADS as u64 && Instant::now() < deadline {
                    std::hint::spin_loop();
                }
                j
            },
            |_, _| {},
        );
        let ran_on = ran_on.into_inner().unwrap();
        assert_eq!(ran_on[&0], caller, "the caller is worker 0 and runs job 0");
        let threads: std::collections::HashSet<_> = ran_on.values().collect();
        assert_eq!(threads.len(), THREADS, "{} other threads", THREADS - 1);
    }

    #[test]
    fn the_callers_lane_survives_and_marks_consume_spans() {
        use hetrta_obs::{span, thread_lane, TraceRecorder};
        for threads in [1, 2] {
            let recorder = TraceRecorder::new();
            hetrta_obs::set_thread_lane(7);
            run_jobs(
                &(0..16u64).collect::<Vec<_>>(),
                threads,
                None,
                None,
                |worker, &j| {
                    // Workers mark their own lane, as the engine's do.
                    hetrta_obs::set_thread_lane(worker as u32 + 1);
                    let _span = span!(&recorder, "job");
                    j
                },
                |_, _| {
                    let _span = span!(&recorder, "consume");
                },
            );
            assert_eq!(thread_lane(), 7, "the caller's lane comes back");
            let spans = recorder.spans();
            let lanes = |name| {
                spans
                    .iter()
                    .filter(move |s| s.name == name)
                    .map(|s| s.lane)
                    .collect::<Vec<_>>()
            };
            assert_eq!(lanes("consume"), vec![7; 16], "{threads} threads");
            let jobs = lanes("job");
            assert_eq!(jobs.len(), 16);
            assert!(jobs
                .iter()
                .all(|&lane| (1..=threads as u32).contains(&lane)));
            hetrta_obs::set_thread_lane(0);
        }
    }

    #[test]
    fn a_panic_in_a_job_of_worker_0_propagates_once_the_helpers_stop() {
        let caller = std::thread::current().id();
        let helper_jobs = AtomicU64::new(0);
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_jobs(
                &(0..1000u64).collect::<Vec<_>>(),
                2,
                None,
                None,
                |_, &j| {
                    if std::thread::current().id() == caller {
                        panic!("worker 0 failed");
                    }
                    std::thread::sleep(Duration::from_millis(1));
                    helper_jobs.fetch_add(1, Ordering::SeqCst);
                    j
                },
                |_, _| {},
            )
        }))
        .expect_err("the panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"worker 0 failed"));
        // The helper was joined before the panic resumed, and it stopped
        // at its next result instead of running every remaining job.
        let ran = helper_jobs.load(Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(
            helper_jobs.load(Ordering::SeqCst),
            ran,
            "no helper still runs"
        );
        assert!(ran < 999, "the helper ran {ran} jobs after the panic");
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
            &(0..500u64).collect::<Vec<_>>(),
            2,
            Some(&cancel),
            None,
            |_, &j| {
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
            &(0..64u64).collect::<Vec<_>>(),
            4,
            Some(&cancel),
            None,
            |_, &j| j,
            |_, _| panic!("no job may run"),
        );
        assert_eq!(stats.iter().map(|s| s.jobs).sum::<u64>(), 0);
    }
}
