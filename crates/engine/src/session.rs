//! Event-driven sweep sessions: `submit` a spec, observe a typed event
//! stream, `wait` for (or `cancel`) the deterministic result.
//!
//! A [`SweepHandle`] is the observable face of one running sweep. The
//! sweep itself executes on a background orchestrator thread (the
//! work-stealing pool's worker 0 and the streaming aggregator), while the
//! handle exposes:
//!
//! * a typed [`SweepEvent`] stream — [`SweepEvent::JobStarted`],
//!   [`SweepEvent::JobFinished`] (content key, cache hit, wall time),
//!   periodic [`SweepEvent::PartialAggregate`] snapshots, and a terminal
//!   [`SweepEvent::SweepFinished`];
//! * live [`EngineStats`] snapshots while the sweep runs;
//! * [`SweepHandle::cancel`] (workers stop dequeuing; in-flight jobs
//!   finish) and [`SweepHandle::wait`] (blocks for the final
//!   [`EngineOutput`]).
//!
//! The event buffer is bounded: when a consumer falls more than
//! [`SessionConfig::max_buffered_events`] behind, the oldest events are
//! dropped (counted by [`SweepHandle::dropped_events`]) rather than
//! blocking the workers — progress consumers tolerate gaps; the final
//! aggregate never depends on the event stream.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::aggregate::AggregateUpdate;
use crate::engine::{EngineError, EngineOutput, EngineStats};
use crate::EngineCaches;

/// One observation from a running sweep, in the order the orchestrator
/// made it (worker completion order, not expansion order).
#[derive(Debug, Clone, PartialEq)]
pub enum SweepEvent {
    /// A worker dequeued the job and is about to execute it.
    JobStarted {
        /// The job's expansion index.
        index: usize,
    },
    /// A job completed (including fully-cached and declined-sample jobs).
    JobFinished {
        /// The job's expansion index.
        index: usize,
        /// The sweep cell the job contributes to.
        cell: usize,
        /// Stable content key of the job's input recipe (the identity
        /// hash the content-addressed caches are keyed under).
        key: u128,
        /// Whether every selected analysis was served from cache (memory
        /// or disk) without recomputation.
        cache_hit: bool,
        /// Wall-clock execution time of the job on its worker.
        wall_time: Duration,
    },
    /// A deterministic-so-far snapshot of the aggregate over every job
    /// that has completed (cadence set by [`SessionConfig::partial_every`]),
    /// delta-encoded: most events carry only the cells that changed since
    /// the previous snapshot, with a periodic full keyframe (cadence set
    /// by [`SessionConfig::keyframe_every`]). Reassemble with
    /// [`AggregateView`](crate::AggregateView).
    PartialAggregate {
        /// Jobs aggregated into this snapshot.
        completed: usize,
        /// Total jobs of the sweep.
        total: usize,
        /// The delta-encoded partial aggregate (cells summarize
        /// completed jobs only).
        update: AggregateUpdate,
    },
    /// Terminal event: the sweep finished (or was cancelled); the final
    /// result is ready for [`SweepHandle::wait`].
    SweepFinished {
        /// Jobs that completed.
        completed: usize,
        /// Whether the sweep was cancelled before running every job.
        cancelled: bool,
        /// Events this session discarded because the consumer fell behind
        /// the buffer bound — a remote consumer learns its stream was
        /// lossy from the terminal event itself (which, being the last
        /// push, is never dropped).
        events_dropped: u64,
    },
}

/// Observability knobs of one submitted sweep.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Emit [`SweepEvent::JobStarted`] / [`SweepEvent::JobFinished`] per
    /// job. Disable for fire-and-wait submissions that never drain the
    /// stream ([`Engine::run`](crate::Engine::run) does).
    pub job_events: bool,
    /// Emit a [`SweepEvent::PartialAggregate`] snapshot after every `n`
    /// completed jobs (`None` = only the terminal event).
    pub partial_every: Option<usize>,
    /// Every `keyframe_every`-th partial aggregate is a full
    /// [`AggregateUpdate::Keyframe`]; the ones in between are
    /// changed-cells deltas. `1` disables delta encoding (every partial
    /// is a keyframe); the default is 16.
    pub keyframe_every: usize,
    /// Event-buffer bound; beyond it the oldest events are dropped.
    pub max_buffered_events: usize,
    /// Write-ahead journal for crash-safe resume: every finished job is
    /// recorded (with periodic aggregate keyframes) before it enters the
    /// aggregator. Jobs an earlier run already journaled are replayed
    /// (with [`JournalConfig::resume`](crate::JournalConfig::resume) set):
    /// they count toward progress and partial aggregates, emit no job
    /// events, and show up in [`EngineStats::replayed_jobs`]. `None` = no
    /// journaling.
    pub journal: Option<crate::journal::JournalConfig>,
}

impl Default for SessionConfig {
    /// Job events on, no partial snapshots, keyframe every 16 partials,
    /// 64Ki-event buffer, no journal.
    fn default() -> Self {
        SessionConfig {
            job_events: true,
            partial_every: None,
            keyframe_every: 16,
            max_buffered_events: 1 << 16,
            journal: None,
        }
    }
}

impl SessionConfig {
    /// No events at all — for submit-and-wait callers that never consume
    /// the stream.
    #[must_use]
    pub fn quiet() -> Self {
        SessionConfig {
            job_events: false,
            partial_every: None,
            ..SessionConfig::default()
        }
    }

    /// Job events plus a partial aggregate every `n` completed jobs.
    #[must_use]
    pub fn with_partials(n: usize) -> Self {
        SessionConfig {
            partial_every: Some(n.max(1)),
            ..SessionConfig::default()
        }
    }
}

/// Bounded MPSC event buffer (drop-oldest on overflow, never blocks
/// producers).
#[derive(Debug)]
pub(crate) struct EventQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
    cap: usize,
}

#[derive(Debug)]
struct QueueState {
    events: VecDeque<SweepEvent>,
    closed: bool,
    dropped: u64,
}

impl EventQueue {
    pub(crate) fn new(cap: usize) -> Self {
        EventQueue {
            state: Mutex::new(QueueState {
                events: VecDeque::new(),
                closed: false,
                dropped: 0,
            }),
            ready: Condvar::new(),
            cap: cap.max(1),
        }
    }

    pub(crate) fn push(&self, event: SweepEvent) {
        self.push_with_dropped(|_| event);
    }

    /// Pushes an event built from the queue's exact drop count, with
    /// room-making and counting under the same lock — the terminal event
    /// reports every drop that preceded it, including the one its own
    /// arrival may cause.
    pub(crate) fn push_with_dropped(&self, make: impl FnOnce(u64) -> SweepEvent) {
        let mut state = self.state.lock().expect("event queue");
        if state.events.len() >= self.cap {
            state.events.pop_front();
            state.dropped += 1;
        }
        let event = make(state.dropped);
        state.events.push_back(event);
        drop(state);
        self.ready.notify_one();
    }

    pub(crate) fn close(&self) {
        self.state.lock().expect("event queue").closed = true;
        self.ready.notify_all();
    }

    fn recv(&self) -> Option<SweepEvent> {
        let mut state = self.state.lock().expect("event queue");
        loop {
            if let Some(event) = state.events.pop_front() {
                return Some(event);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).expect("event queue");
        }
    }

    fn try_recv(&self) -> Option<SweepEvent> {
        self.state.lock().expect("event queue").events.pop_front()
    }

    pub(crate) fn dropped(&self) -> u64 {
        self.state.lock().expect("event queue").dropped
    }
}

/// Live progress counters shared between the orchestrator and the handle
/// (replayed jobs included).
#[derive(Debug)]
pub(crate) struct ProgressCounters {
    pub(crate) done: AtomicU64,
    pub(crate) cached: AtomicU64,
    pub(crate) skipped: AtomicU64,
}

/// Everything the handle needs to snapshot live [`EngineStats`].
#[derive(Debug)]
pub(crate) struct SessionShared {
    pub(crate) events: EventQueue,
    pub(crate) cancel: AtomicBool,
    pub(crate) progress: ProgressCounters,
    pub(crate) caches: Arc<EngineCaches>,
    pub(crate) baseline: crate::engine::CacheBaseline,
    pub(crate) threads: usize,
    pub(crate) total_jobs: usize,
    pub(crate) replayed_jobs: usize,
    pub(crate) started: Instant,
}

impl SessionShared {
    /// Statistics as of now, without per-worker counters (workers report
    /// those on join).
    pub(crate) fn stats(&self) -> EngineStats {
        let (caches, baseline) = (&self.caches, &self.baseline);
        EngineStats {
            threads: self.threads,
            jobs: self.total_jobs,
            per_worker_jobs: Vec::new(),
            per_worker_steals: Vec::new(),
            cached_jobs: self.progress.cached.load(Ordering::Relaxed),
            skipped_jobs: self.progress.skipped.load(Ordering::Relaxed),
            replayed_jobs: self.replayed_jobs,
            transform_cache: caches.transform_counters().since(baseline.transform),
            derived_cache: caches.derived_counters().since(baseline.derived),
            result_cache: caches.result_counters().since(baseline.results),
            identity_cache: caches.identity_counters().since(baseline.identity),
            input_cache: caches.input_counters().since(baseline.inputs),
            disk_cache: caches.disk_counters().since(baseline.disk),
            events_dropped: self.events.dropped(),
            elapsed: self.started.elapsed(),
        }
    }

    /// Jobs completed so far (replayed ones included) and the total.
    fn progress(&self) -> (usize, usize) {
        let done =
            usize::try_from(self.progress.done.load(Ordering::Relaxed)).unwrap_or(usize::MAX);
        (done, self.total_jobs)
    }
}

/// A handle on one submitted sweep: event stream, live statistics,
/// cancellation, and the final result.
///
/// Dropping an unfinished handle cancels the sweep and joins the
/// orchestrator, so a `SweepHandle` never leaks a running session.
///
/// ```
/// use hetrta_engine::{Engine, GeneratorPreset, SweepSpec, SweepEvent};
///
/// # fn main() -> Result<(), hetrta_engine::EngineError> {
/// let spec = SweepSpec::fractions(GeneratorPreset::Small, vec![2], vec![0.2], 4, 7);
/// let engine = Engine::new(2);
/// let handle = engine.submit(&spec)?;
/// let mut finished = 0;
/// while let Some(event) = handle.next_event() {
///     if let SweepEvent::JobFinished { cache_hit, .. } = event {
///         finished += 1;
///         let _ = cache_hit; // drive a progress UI here
///     }
/// }
/// let out = handle.wait()?; // same output `Engine::run` would produce
/// assert_eq!(finished, out.stats.jobs);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SweepHandle {
    shared: Arc<SessionShared>,
    result: Arc<Mutex<Option<Result<EngineOutput, EngineError>>>>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl SweepHandle {
    pub(crate) fn new(
        shared: Arc<SessionShared>,
        result: Arc<Mutex<Option<Result<EngineOutput, EngineError>>>>,
        thread: std::thread::JoinHandle<()>,
    ) -> Self {
        SweepHandle {
            shared,
            result,
            thread: Some(thread),
        }
    }

    /// Blocks for the next event; `None` once the sweep has finished and
    /// every buffered event was drained.
    #[must_use]
    pub fn next_event(&self) -> Option<SweepEvent> {
        self.shared.events.recv()
    }

    /// A buffered event if one is ready (never blocks).
    #[must_use]
    pub fn try_next_event(&self) -> Option<SweepEvent> {
        self.shared.events.try_recv()
    }

    /// Events discarded because the consumer fell behind the buffer bound.
    #[must_use]
    pub fn dropped_events(&self) -> u64 {
        self.shared.events.dropped()
    }

    /// A detached, cloneable cancellation token for this sweep. A daemon
    /// thread pumping the handle's events can hand the token to the
    /// connection's reader thread, which cancels the sweep the moment the
    /// client disconnects — without sharing the handle itself.
    #[must_use]
    pub fn cancel_token(&self) -> SweepCancelToken {
        SweepCancelToken {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Requests cancellation: workers stop dequeuing, in-flight jobs
    /// finish, and [`SweepHandle::wait`] returns
    /// [`EngineError::Cancelled`] (unless every job had already run).
    pub fn cancel(&self) {
        self.shared.cancel.store(true, Ordering::Relaxed);
    }

    /// Jobs completed so far (replayed ones included) out of the sweep's
    /// total.
    #[must_use]
    pub fn progress(&self) -> (usize, usize) {
        self.shared.progress()
    }

    /// `true` once the final result is available.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.result.lock().expect("session result").is_some()
    }

    /// A live [`EngineStats`] snapshot. While the sweep runs the
    /// per-worker vectors are empty (workers report on join); every other
    /// field is current. The final, complete statistics are in the
    /// [`EngineOutput`] returned by [`SweepHandle::wait`].
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        self.shared.stats()
    }

    /// Blocks until the sweep finishes and returns its result — exactly
    /// what [`Engine::run`](crate::Engine::run) returns (`run` runs the
    /// same session on the calling thread).
    ///
    /// # Errors
    ///
    /// [`EngineError::Job`] if a job failed, [`EngineError::Cancelled`]
    /// if [`SweepHandle::cancel`] stopped the sweep early.
    ///
    /// # Panics
    ///
    /// Re-raises a panic from the sweep's worker threads with its
    /// original payload, so the failure context (which analysis, what
    /// invariant) is not lost behind a generic message.
    pub fn wait(mut self) -> Result<EngineOutput, EngineError> {
        if let Some(thread) = self.thread.take() {
            if let Err(payload) = thread.join() {
                std::panic::resume_unwind(payload);
            }
        }
        self.result
            .lock()
            .expect("session result")
            .take()
            .expect("finished session stores a result")
    }
}

impl Drop for SweepHandle {
    fn drop(&mut self) {
        if let Some(thread) = self.thread.take() {
            self.shared.cancel.store(true, Ordering::Relaxed);
            let _ = thread.join();
        }
    }
}

/// A cloneable cancel/progress view on one sweep, detached from its
/// [`SweepHandle`] (which is `!Clone` because it owns the result and the
/// orchestrator join handle). Obtained via [`SweepHandle::cancel_token`];
/// holding a token does not keep the sweep alive.
#[derive(Debug, Clone)]
pub struct SweepCancelToken {
    shared: Arc<SessionShared>,
}

impl SweepCancelToken {
    /// Requests cancellation, exactly like [`SweepHandle::cancel`].
    pub fn cancel(&self) {
        self.shared.cancel.store(true, Ordering::Relaxed);
    }

    /// `true` once cancellation was requested (by any token or the handle).
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.shared.cancel.load(Ordering::Relaxed)
    }

    /// Jobs completed so far out of the sweep's total.
    #[must_use]
    pub fn progress(&self) -> (usize, usize) {
        self.shared.progress()
    }

    /// Events this session has discarded so far.
    #[must_use]
    pub fn events_dropped(&self) -> u64 {
        self.shared.events.dropped()
    }
}
