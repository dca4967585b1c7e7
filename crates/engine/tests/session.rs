//! Session-API guarantees: the streaming path is the blocking path
//! (bitwise-identical aggregates), events are complete and well-formed,
//! partial aggregates converge on the final one, cancellation stops the
//! sweep, and live statistics track progress. `Engine::run` sweeps on
//! the calling thread, `submit` on a thread of its own.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::ThreadId;
use std::time::Duration;

use hetrta_engine::{
    Analysis, AnalysisContext, AnalysisOutcome, AnalysisRegistry, AnalysisRequest,
    AnalysisSelection, ApiError, Engine, EngineError, GeneratorPreset, SessionConfig, SweepEvent,
    SweepSpec,
};

fn spec() -> SweepSpec {
    SweepSpec::fractions(
        GeneratorPreset::Small,
        vec![2, 4],
        vec![0.1, 0.3],
        6,
        0xD1CE,
    )
}

#[test]
fn streaming_consumption_matches_blocking_run_bitwise() {
    let blocking = Engine::new(2).run(&spec()).expect("blocking run");

    let engine = Engine::new(2);
    let handle = engine
        .submit_with(&spec(), SessionConfig::with_partials(1))
        .expect("submit");
    let mut started = 0usize;
    let mut finished = 0usize;
    let mut partials = 0usize;
    let mut terminal = None;
    while let Some(event) = handle.next_event() {
        match event {
            SweepEvent::JobStarted { .. } => started += 1,
            SweepEvent::JobFinished { wall_time: _, .. } => finished += 1,
            SweepEvent::PartialAggregate {
                completed, total, ..
            } => {
                assert!(completed >= 1 && completed < total);
                partials += 1;
            }
            SweepEvent::SweepFinished {
                completed,
                cancelled,
                events_dropped,
            } => {
                assert!(terminal.is_none(), "exactly one terminal event");
                assert_eq!(events_dropped, 0, "nothing dropped on a drained stream");
                terminal = Some((completed, cancelled));
            }
        }
    }
    let streamed = handle.wait().expect("streamed run");

    assert_eq!(streamed.aggregate, blocking.aggregate);
    // Byte-identical, not approximately equal.
    assert_eq!(
        format!("{:?}", streamed.aggregate),
        format!("{:?}", blocking.aggregate)
    );
    assert_eq!(started, blocking.stats.jobs);
    assert_eq!(finished, blocking.stats.jobs);
    // partial_every = 1 → one snapshot per completed job except the last.
    assert_eq!(partials, blocking.stats.jobs - 1);
    assert_eq!(terminal, Some((blocking.stats.jobs, false)));
}

#[test]
fn event_keys_are_the_stable_content_identities() {
    // The same spec twice: JobFinished keys must repeat exactly, and the
    // second submission's jobs must all be cache hits.
    let engine = Engine::new(1);
    let keys = |handle: &hetrta_engine::SweepHandle| {
        let mut keys = Vec::new();
        let mut hits = 0usize;
        while let Some(event) = handle.next_event() {
            if let SweepEvent::JobFinished {
                index,
                key,
                cache_hit,
                ..
            } = event
            {
                keys.push((index, key));
                hits += usize::from(cache_hit);
            }
        }
        keys.sort_unstable();
        (keys, hits)
    };
    let first = engine.submit(&spec()).expect("submit");
    let (first_keys, _) = keys(&first);
    first.wait().expect("first run");
    let second = engine.submit(&spec()).expect("submit");
    let (second_keys, second_hits) = keys(&second);
    let out = second.wait().expect("second run");

    assert_eq!(first_keys, second_keys, "content identities are stable");
    assert_eq!(second_hits, out.stats.jobs, "warm run is all cache hits");
    assert!(first_keys.iter().any(|&(_, k)| k != 0));
}

#[test]
fn partial_aggregates_converge_to_the_final_aggregate() {
    // With a single worker, completion order is expansion order, so the
    // last partial (after jobs-1 results) differs from the final only in
    // the final job's cell — and a partial over *all* results would be
    // the final. Check the last reconstructed partial's fully-populated
    // cells match. Partials stream delta-encoded; `AggregateView`
    // reassembles them (the keyframe cadence of 16 exercises both
    // variants).
    let engine = Engine::new(1);
    let config = SessionConfig::with_partials(1);
    let handle = engine.submit_with(&spec(), config).expect("submit");
    let mut view = hetrta_engine::AggregateView::new();
    let mut keyframes = 0usize;
    let mut deltas = 0usize;
    let mut last_partial = None;
    while let Some(event) = handle.next_event() {
        if let SweepEvent::PartialAggregate { update, .. } = event {
            match &update {
                hetrta_engine::AggregateUpdate::Keyframe { .. } => keyframes += 1,
                hetrta_engine::AggregateUpdate::Delta { .. } => deltas += 1,
            }
            last_partial = view.apply(&update).cloned();
        }
    }
    let out = handle.wait().expect("run");
    // 23 partials at cadence 16: keyframes at 0 and 16 — deltas carry
    // the other 21, and deltas must actually dominate the stream.
    assert!(keyframes >= 1, "first partial must be a keyframe");
    assert!(deltas > keyframes, "deltas should dominate at cadence 16");
    let last = last_partial.expect("partials were emitted");
    assert_eq!(last.cells.len(), out.aggregate.cells.len());
    // All cells except the final one are complete in the last partial.
    for (partial_cell, final_cell) in last
        .cells
        .iter()
        .zip(&out.aggregate.cells)
        .take(out.aggregate.cells.len() - 1)
    {
        assert_eq!(partial_cell, final_cell);
    }
}

#[test]
fn delta_encoded_partials_carry_fewer_cells_than_keyframes() {
    // The point of the delta encoding: between two snapshots only the
    // cells of the jobs that completed in between change, so deltas must
    // be strictly smaller than the 4-cell keyframes on this sweep.
    let engine = Engine::new(1);
    let config = SessionConfig::with_partials(1);
    let handle = engine.submit_with(&spec(), config).expect("submit");
    let mut keyframe_cells = Vec::new();
    let mut delta_cells = Vec::new();
    while let Some(event) = handle.next_event() {
        if let SweepEvent::PartialAggregate { update, .. } = event {
            match &update {
                hetrta_engine::AggregateUpdate::Keyframe { .. } => {
                    keyframe_cells.push(update.cells_carried());
                }
                hetrta_engine::AggregateUpdate::Delta { .. } => {
                    delta_cells.push(update.cells_carried());
                }
            }
        }
    }
    handle.wait().expect("run");
    assert!(keyframe_cells.iter().all(|&c| c == 4), "{keyframe_cells:?}");
    // One job finishes between consecutive partials → exactly one cell
    // changes (its own), so every delta carries at most one cell.
    assert!(!delta_cells.is_empty());
    assert!(delta_cells.iter().all(|&c| c <= 1), "{delta_cells:?}");
}

/// Many moderately-sized jobs (tiny DAGs keep exact solves at
/// milliseconds, not seconds).
fn cancellable_spec() -> SweepSpec {
    let tiny = GeneratorPreset::Custom(hetrta_gen::NfjParams::small_tasks().with_node_range(4, 12));
    SweepSpec::fractions(tiny, vec![2], vec![0.2], 64, 3)
        .with_analyses(AnalysisSelection::from_keys(["sim", "exact"]))
}

/// An analysis that lets a job finish only against a permit, so a
/// cancellation test decides how many jobs complete before it cancels.
/// Without it the test races the sweep: a fast build can run all 64 jobs
/// before the cancel lands, and the sweep then rightly reports that it
/// completed.
#[derive(Debug)]
struct Gate {
    /// Permits left; `None` once the gate is open for good.
    permits: Mutex<Option<usize>>,
    changed: Condvar,
}

impl Gate {
    /// A 1-thread engine whose `gate` analysis holds `permits`, and a
    /// 64-job sweep that selects it.
    fn engine(permits: usize) -> (Arc<Gate>, Engine, SweepSpec) {
        let gate = Arc::new(Gate {
            permits: Mutex::new(Some(permits)),
            changed: Condvar::new(),
        });
        let mut registry = AnalysisRegistry::builtin();
        registry.register(Arc::clone(&gate) as Arc<dyn Analysis>);
        let spec = SweepSpec::fractions(GeneratorPreset::Small, vec![2], vec![0.2], 64, 3)
            .with_analyses(AnalysisSelection::from_keys(["gate"]));
        (gate, Engine::with_registry(1, registry), spec)
    }

    /// Lets every waiting and later job through.
    fn open(&self) {
        *self.permits.lock().expect("gate lock") = None;
        self.changed.notify_all();
    }
}

impl Analysis for Gate {
    fn key(&self) -> &str {
        "gate"
    }

    fn describe(&self) -> &str {
        "waits for a permit, then reports R_hom = 0"
    }

    fn run(
        &self,
        _request: &AnalysisRequest,
        _ctx: &dyn AnalysisContext,
    ) -> Result<AnalysisOutcome, ApiError> {
        let mut permits = self.permits.lock().expect("gate lock");
        loop {
            match permits.as_mut() {
                None => break,
                Some(0) => permits = self.changed.wait(permits).expect("gate lock"),
                Some(left) => {
                    *left -= 1;
                    break;
                }
            }
        }
        Ok(AnalysisOutcome::Hom { r_hom: 0.0 })
    }
}

#[test]
fn cancellation_returns_cancelled_and_stops_the_sweep() {
    // Plenty of jobs on one worker; cancel after the first finishes,
    // while the second waits at the gate.
    let (gate, engine, spec) = Gate::engine(1);
    let handle = engine.submit(&spec).expect("submit");
    while let Some(event) = handle.next_event() {
        if matches!(event, SweepEvent::JobFinished { .. }) {
            handle.cancel();
            break;
        }
    }
    gate.open();
    // Drain to the terminal event.
    let mut cancelled_event = false;
    while let Some(event) = handle.next_event() {
        if let SweepEvent::SweepFinished { cancelled, .. } = event {
            cancelled_event = cancelled;
        }
    }
    assert!(cancelled_event, "terminal event reports the cancellation");
    let (done, total) = handle.progress();
    assert!(
        done < total,
        "cancellation left jobs unexecuted ({done}/{total})"
    );
    assert!(matches!(handle.wait(), Err(EngineError::Cancelled)));
}

#[test]
fn live_stats_track_progress_and_finish_consistent() {
    let engine = Engine::new(2);
    let handle = engine.submit(&spec()).expect("submit");
    let total = spec().job_count();
    let mut saw_midway_stats = false;
    while let Some(event) = handle.next_event() {
        if matches!(event, SweepEvent::JobFinished { .. }) {
            let live = handle.stats();
            assert_eq!(live.jobs, total);
            assert!(live.cached_jobs <= live.jobs as u64);
            saw_midway_stats = true;
        }
    }
    assert!(saw_midway_stats);
    assert!(handle.is_finished());
    let final_live = handle.stats();
    assert_eq!(handle.progress(), (total, total));
    let out = handle.wait().expect("run");
    assert_eq!(final_live.jobs, out.stats.jobs);
    assert_eq!(
        out.stats.per_worker_jobs.iter().sum::<u64>() as usize,
        total
    );
}

#[test]
fn quiet_sessions_emit_only_the_terminal_event() {
    let engine = Engine::new(2);
    let handle = engine
        .submit_with(&spec(), SessionConfig::quiet())
        .expect("submit");
    let mut events = Vec::new();
    while let Some(event) = handle.next_event() {
        events.push(event);
    }
    assert_eq!(events.len(), 1, "{events:?}");
    assert!(matches!(events[0], SweepEvent::SweepFinished { .. }));
    assert_eq!(handle.dropped_events(), 0);
    handle.wait().expect("run");
}

#[test]
fn unconsumed_event_buffers_bound_their_memory() {
    // 96 jobs, buffer of 8: the producer must never block, the consumer
    // sees only the newest events, and the drop counter reports the rest.
    let spec = SweepSpec::fractions(GeneratorPreset::Small, vec![2], vec![0.2], 96, 3);
    let engine = Engine::new(2);
    let config = SessionConfig {
        max_buffered_events: 8,
        ..SessionConfig::default()
    };
    let handle = engine.submit_with(&spec, config).expect("submit");
    while !handle.is_finished() {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    assert!(handle.dropped_events() > 0, "overflow must be counted");
    // The terminal event is the newest, so it survived the drops.
    let mut drained = Vec::new();
    while let Some(event) = handle.try_next_event() {
        drained.push(event);
    }
    assert!(drained.len() <= 8);
    assert!(matches!(
        drained.last(),
        Some(SweepEvent::SweepFinished { .. })
    ));
    let out = handle.wait().expect("run completes without a consumer");
    assert_eq!(out.stats.jobs, 96);
}

#[test]
fn slow_consumers_see_their_drop_count_rise() {
    // A consumer that never drains until the sweep is done, against a
    // tiny buffer and a chatty event config: the per-session drop count
    // must rise, and the terminal event itself must carry it — that is
    // how a daemon tells the affected client its stream was lossy.
    let spec = spec(); // 24 jobs
    let engine = Engine::new(2);
    let config = SessionConfig {
        job_events: true,
        partial_every: Some(1),
        max_buffered_events: 4,
        journal: None,
    };
    let handle = engine.submit_with(&spec, config).expect("submit");
    while !handle.is_finished() {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let dropped = handle.dropped_events();
    assert!(dropped > 0, "a slow consumer must observe drops");
    // The terminal event is the last push and is never itself dropped;
    // its count equals the handle's view at that moment.
    let mut terminal_dropped = None;
    while let Some(event) = handle.try_next_event() {
        if let SweepEvent::SweepFinished { events_dropped, .. } = event {
            terminal_dropped = Some(events_dropped);
        }
    }
    assert_eq!(terminal_dropped, Some(dropped));
    handle.wait().expect("run");
}

#[test]
#[ignore = "large-graph tier; run with --ignored (release)"]
fn hundred_thousand_job_sweep_keeps_the_event_buffer_bounded() {
    // The 10⁵-job tier: a chatty config (job events + per-job partials at
    // keyframe cadence 16) against a fixed 512-event buffer and a consumer
    // that never drains until the sweep is done. The buffer must stay
    // bounded (the producer never blocks and never accumulates), the drop
    // accounting must be exact, and the terminal event must survive.
    let spec = SweepSpec::fractions(
        GeneratorPreset::Custom(hetrta_gen::NfjParams::small_tasks().with_node_range(4, 8)),
        vec![2],
        vec![0.2],
        100_000,
        0xBE9C_0100,
    )
    .with_analyses(AnalysisSelection::from_keys(["het"]));
    let engine = Engine::new(4);
    let config = SessionConfig {
        job_events: true,
        partial_every: Some(1),
        max_buffered_events: 512,
        journal: None,
    };
    let handle = engine.submit_with(&spec, config).expect("submit");
    while !handle.is_finished() {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let dropped = handle.dropped_events();
    assert!(dropped > 0, "an undrained 10⁵-job stream must drop");
    let mut drained = 0usize;
    let mut terminal_dropped = None;
    while let Some(event) = handle.try_next_event() {
        drained += 1;
        if let SweepEvent::SweepFinished { events_dropped, .. } = event {
            terminal_dropped = Some(events_dropped);
        }
    }
    assert!(drained <= 512, "buffer exceeded its bound: {drained}");
    assert_eq!(
        terminal_dropped,
        Some(dropped),
        "terminal carries the count"
    );
    let out = handle.wait().expect("run completes without a consumer");
    assert_eq!(out.stats.jobs, 100_000);
}

#[test]
fn cancel_tokens_cancel_and_observe_from_another_thread() {
    // No permits: the first job waits at the gate until the cancel lands.
    let (gate, engine, spec) = Gate::engine(0);
    let handle = engine.submit(&spec).expect("submit");
    assert_eq!(engine.active_sessions(), 1);
    let token = handle.cancel_token();
    assert!(!token.is_cancelled());
    let canceller = std::thread::spawn(move || {
        token.cancel();
        token.is_cancelled()
    });
    let cancelled = canceller.join().expect("canceller thread");
    gate.open();
    assert!(cancelled);
    while handle.next_event().is_some() {}
    assert!(matches!(handle.wait(), Err(EngineError::Cancelled)));
    assert_eq!(engine.active_sessions(), 0, "session count returns to zero");
}

#[test]
fn dropping_an_unwaited_handle_cancels_cleanly() {
    let spec = cancellable_spec();
    let engine = Engine::new(1);
    let handle = engine.submit(&spec).expect("submit");
    drop(handle); // must join the session thread, not leak it
                  // The engine is still usable afterwards.
    let out = engine.run(&fast()).expect("post-drop run");
    assert_eq!(out.stats.jobs, fast().job_count());

    fn fast() -> SweepSpec {
        SweepSpec::fractions(GeneratorPreset::Small, vec![2], vec![0.2], 2, 3)
    }
}

/// Panics on purpose.
#[derive(Debug)]
struct Exploding;

impl Analysis for Exploding {
    fn key(&self) -> &str {
        "explode"
    }

    fn describe(&self) -> &str {
        "panics on purpose"
    }

    fn run(
        &self,
        _request: &AnalysisRequest,
        _ctx: &dyn AnalysisContext,
    ) -> Result<AnalysisOutcome, ApiError> {
        panic!("analysis exploded on purpose")
    }
}

/// A `threads`-thread engine whose `explode` analysis panics, and a
/// 2-job sweep that selects it.
fn exploding(threads: usize) -> (Engine, SweepSpec) {
    let mut registry = AnalysisRegistry::builtin();
    registry.register(Arc::new(Exploding));
    let spec = SweepSpec::fractions(GeneratorPreset::Small, vec![2], vec![0.2], 2, 7)
        .with_analyses(AnalysisSelection::from_keys(["explode"]));
    (Engine::with_registry(threads, registry), spec)
}

#[test]
fn panicking_analysis_closes_the_stream_and_reraises_the_payload() {
    // A worker panic must (a) close the event stream so a blocked
    // consumer terminates instead of hanging on the Condvar, and
    // (b) surface the *original* panic payload through wait().
    let (engine, spec) = exploding(1);

    let handle = engine.submit(&spec).expect("submit");
    // This loop must terminate (close-on-drop), not deadlock.
    while handle.next_event().is_some() {}
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handle.wait()))
        .expect_err("the worker panic re-raises");
    let message = payload
        .downcast_ref::<&str>()
        .copied()
        .expect("original payload survives");
    assert_eq!(message, "analysis exploded on purpose");
}

#[test]
fn a_panic_under_run_reaches_the_caller_with_its_payload() {
    // The caller is worker 0 here, so the panic may start on its own
    // stack or on the helper's; either way the original payload comes
    // back and the session is gone.
    let (engine, spec) = exploding(2);
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.run(&spec)))
        .expect_err("the panic re-raises");
    assert_eq!(
        payload.downcast_ref::<&str>(),
        Some(&"analysis exploded on purpose")
    );
    assert_eq!(engine.active_sessions(), 0);
    let fine = SweepSpec::fractions(GeneratorPreset::Small, vec![2], vec![0.2], 2, 3);
    assert_eq!(
        engine.run(&fine).expect("engine still usable").stats.jobs,
        2
    );
}

/// Notes the thread every job's analysis ran on.
#[derive(Debug, Default)]
struct WhoAmI {
    threads: Mutex<HashSet<ThreadId>>,
}

impl WhoAmI {
    fn take(&self) -> HashSet<ThreadId> {
        std::mem::take(&mut *self.threads.lock().expect("whoami lock"))
    }
}

impl Analysis for WhoAmI {
    fn key(&self) -> &str {
        "whoami"
    }

    fn describe(&self) -> &str {
        "notes its thread, then reports R_hom = 0"
    }

    fn run(
        &self,
        _request: &AnalysisRequest,
        _ctx: &dyn AnalysisContext,
    ) -> Result<AnalysisOutcome, ApiError> {
        self.threads
            .lock()
            .expect("whoami lock")
            .insert(std::thread::current().id());
        Ok(AnalysisOutcome::Hom { r_hom: 0.0 })
    }
}

#[test]
fn run_sweeps_on_the_calling_thread_and_matches_submit_bitwise() {
    let whoami = Arc::new(WhoAmI::default());
    let mut registry = AnalysisRegistry::builtin();
    registry.register(Arc::clone(&whoami) as Arc<dyn Analysis>);
    let spec = spec().with_analyses(AnalysisSelection::from_keys(["het", "whoami"]));
    let caller = std::thread::current().id();

    let ran = Engine::with_registry(1, registry.clone())
        .run(&spec)
        .expect("run");
    assert_eq!(
        whoami.take(),
        HashSet::from([caller]),
        "1 thread spawns none"
    );

    let two = Engine::with_registry(2, registry.clone())
        .run(&spec)
        .expect("2-thread run");
    let threads = whoami.take();
    assert!(threads.contains(&caller), "the caller is worker 0");
    assert!(threads.len() <= 2, "one helper at most: {threads:?}");

    let submitted = Engine::with_registry(1, registry)
        .submit(&spec)
        .expect("submit")
        .wait()
        .expect("wait");
    assert!(!whoami.take().contains(&caller), "submit sweeps elsewhere");

    for other in [&two, &submitted] {
        assert_eq!(
            format!("{:?}", other.aggregate),
            format!("{:?}", ran.aggregate)
        );
    }
}

/// At 2 cores, waits (up to a deadline) until a job at 4 cores has run,
/// so a 2-core sweep cannot finish before a 4-core sweep has started.
/// Reports R_hom = 0 either way.
#[derive(Debug, Default)]
struct Rendezvous {
    four_cores_ran: Mutex<bool>,
    ready: Condvar,
    timed_out: AtomicBool,
}

impl Analysis for Rendezvous {
    fn key(&self) -> &str {
        "rendezvous"
    }

    fn describe(&self) -> &str {
        "at 2 cores, waits for a 4-core job; reports R_hom = 0"
    }

    fn run(
        &self,
        request: &AnalysisRequest,
        _ctx: &dyn AnalysisContext,
    ) -> Result<AnalysisOutcome, ApiError> {
        let mut ran = self.four_cores_ran.lock().expect("rendezvous lock");
        if request.params.m == 4 {
            *ran = true;
            self.ready.notify_all();
        } else {
            let (mut ran, wait) = self
                .ready
                .wait_timeout_while(ran, Duration::from_secs(10), |ran| !*ran)
                .expect("rendezvous lock");
            if wait.timed_out() {
                // Fail once, not once per job.
                self.timed_out.store(true, Ordering::SeqCst);
                *ran = true;
            }
        }
        Ok(AnalysisOutcome::Hom { r_hom: 0.0 })
    }
}

#[test]
fn concurrent_sessions_on_one_engine_match_their_solo_runs_bitwise() {
    // The daemon's traffic: two sweeps of different specs share one
    // engine's pool threads and caches (both draw the same tasks), and
    // every job of the first waits until the second has run a job.
    let two_cores =
        SweepSpec::fractions(GeneratorPreset::Small, vec![2], vec![0.1, 0.3], 6, 0xD1CE)
            .with_analyses(AnalysisSelection::from_keys(["het", "hom", "rendezvous"]));
    let four_cores =
        SweepSpec::fractions(GeneratorPreset::Small, vec![4], vec![0.1, 0.3], 6, 0xD1CE)
            .with_analyses(AnalysisSelection::from_keys(["het", "sim", "rendezvous"]));
    let registry = |rendezvous: &Arc<Rendezvous>| {
        let mut registry = AnalysisRegistry::builtin();
        registry.register(Arc::clone(rendezvous) as Arc<dyn Analysis>);
        registry
    };

    let rendezvous = Arc::new(Rendezvous::default());
    let engine = Engine::with_registry(2, registry(&rendezvous));
    let first = engine.submit(&two_cores).expect("submit 2 cores");
    let second = engine.submit(&four_cores).expect("submit 4 cores");
    let together = [
        first.wait().expect("2-core sweep"),
        second.wait().expect("4-core sweep"),
    ];
    assert!(
        !rendezvous.timed_out.load(Ordering::SeqCst),
        "the 4-core sweep never ran while the 2-core sweep waited"
    );

    // Solo runs, each on a fresh engine, with the rendezvous already met
    // so no job waits.
    let solo = Arc::new(Rendezvous::default());
    *solo.four_cores_ran.lock().expect("rendezvous lock") = true;
    for (spec, out) in [&two_cores, &four_cores].into_iter().zip(&together) {
        let alone = Engine::with_registry(2, registry(&solo))
            .run(spec)
            .expect("solo run");
        assert_eq!(out.stats.jobs, alone.stats.jobs);
        assert_eq!(
            format!("{:?}", out.aggregate),
            format!("{:?}", alone.aggregate)
        );
    }
}
