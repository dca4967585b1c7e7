//! The worker side of a distributed sweep: one process, one engine,
//! assignments over a socket.
//!
//! A worker connects to the coordinator, introduces itself with
//! [`DistMsg::Hello`], and then loops: receive an assignment, run the
//! indices through [`Engine::run_job_subset`] on its own thread (the
//! pool's worker 0), encode one [`DistMsg::JobDone`] per result, finish
//! with [`DistMsg::ShardDone`], and wait for the next assignment (or
//! [`DistMsg::Shutdown`]). A background thread sends
//! [`DistMsg::Heartbeat`]s on a fixed cadence, so the coordinator
//! distinguishes a worker grinding through an expensive job from one
//! that died — the job loop itself may go quiet for seconds.
//!
//! Frames leave in batches, not one write per result: `JobDone` frames
//! collect in the link's buffer, which is written once it holds 8 KB
//! (`BATCH_BYTES`), together with the `ShardDone`, and ahead of every
//! heartbeat. A finished result therefore waits at most one heartbeat
//! period, and a fast shard costs a few writes instead of hundreds. The
//! frames themselves (bytes and per-frame chaos faults) are those of a
//! one-frame-per-write link.
//!
//! Workers pointed at the same `--cache-dir` share one disk-cache
//! namespace: keys are content-addressed, so a cell warmed by any fleet
//! member (or by an earlier single-process run) is a pure read for
//! every other. A worker stages its disk writes and commits them in
//! batches, the last when [`Engine::run_job_subset`] returns, before its
//! `ShardDone`: the rest of the fleet reads a cell about a second after
//! the worker computed it, and at the latest once the worker ends its
//! assignment.

use std::io::Write as _;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use hetrta_api::wire::{FrameFaults, WireError};
use hetrta_engine::{Engine, EngineBuilder, FaultPlan};
use hetrta_obs::{span, Recorder};

use crate::protocol::{DistMsg, WireJobResult};
use crate::DistError;

/// How a worker process joins a fleet.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Coordinator address to connect to (`host:port`).
    pub addr: String,
    /// This worker's fleet slot, announced in the hello.
    pub worker: usize,
    /// Engine threads (0 = all cores).
    pub threads: usize,
    /// Shared disk-cache directory, if the fleet runs warm.
    pub cache_dir: Option<PathBuf>,
    /// Heartbeat cadence. Must be well under the coordinator's timeout.
    pub heartbeat_every: Duration,
    /// Chaos seed (the `--chaos` flag): builds a deterministic
    /// [`FaultPlan`] injecting disk faults into this worker's engine,
    /// wire faults into its frames, and delays into its heartbeats. The
    /// per-worker stream is derived from `(seed, slot)` so fleet
    /// members don't fault in lockstep.
    pub chaos: Option<u64>,
}

impl WorkerConfig {
    /// The default heartbeat cadence (the coordinator's default timeout
    /// is ten times this).
    pub const DEFAULT_HEARTBEAT: Duration = Duration::from_millis(200);
}

/// Encoded `JobDone` bytes a worker holds before it writes them.
const BATCH_BYTES: usize = 8 * 1024;

/// The write half of a worker's connection and the frames encoded for
/// it but not yet written. The job loop and the heartbeat thread share
/// it behind one mutex, so frames never interleave mid-frame.
struct Link {
    stream: TcpStream,
    pending: Vec<u8>,
}

impl Link {
    /// Encodes `msg` (with its chaos faults) behind the pending frames.
    fn push(&mut self, msg: &DistMsg, faults: Option<&dyn FrameFaults>) {
        // Writing into a `Vec` cannot fail.
        let _ = msg.write_to_with(&mut self.pending, faults);
    }

    /// Writes every pending frame in one go. The batch is dropped either
    /// way: after a failed write the coordinator is gone.
    fn flush(&mut self) -> Result<(), WireError> {
        let written = self
            .stream
            .write_all(&self.pending)
            .map_err(|e| WireError::Io(e.to_string()));
        self.pending.clear();
        written
    }
}

/// Runs one worker until the coordinator shuts it down or hangs up.
/// Returns the total number of jobs completed across assignments.
///
/// # Errors
///
/// [`DistError::Io`] / [`DistError::Wire`] on connection trouble,
/// [`DistError::Engine`] when the engine cannot be built or an
/// assignment names out-of-range indices. A clean [`DistMsg::Shutdown`]
/// and a bare hangup between assignments both end the loop normally: a
/// worker must not report failure just because the coordinator left
/// first.
pub fn run_worker(config: &WorkerConfig, recorder: &dyn Recorder) -> Result<u64, DistError> {
    let _span = span!(recorder, "dist.worker", worker = config.worker);
    let stream = TcpStream::connect(&config.addr)
        .map_err(|e| DistError::Io(format!("connect to coordinator {}: {e}", config.addr)))?;
    // A batch's tail (or a lone `ShardDone` or heartbeat) is a small
    // write. With Nagle's algorithm on, a small write waits for the ACK
    // of the previous one, and the coordinator delays its ACKs by ~40 ms.
    let _ = stream.set_nodelay(true);
    let mut reader = stream
        .try_clone()
        .map_err(|e| DistError::Io(format!("clone worker stream: {e}")))?;
    let writer = Arc::new(Mutex::new(Link {
        stream,
        pending: Vec::new(),
    }));

    // Derive this worker's fault stream from (seed, slot): same seed →
    // same per-worker fault sequence, but the fleet doesn't fault in
    // lockstep.
    let fault = config.chaos.map(|seed| {
        Arc::new(FaultPlan::new(
            seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(config.worker as u64 + 1),
        ))
    });

    let mut engine = EngineBuilder::new().threads(config.threads);
    if let Some(dir) = &config.cache_dir {
        engine = engine.with_cache_dir(dir);
    }
    if let Some(plan) = &fault {
        engine = engine.with_fault_plan(Arc::clone(plan));
    }
    let engine: Engine = engine.build()?;

    // The hello is deliberately exempt from wire faults: a respawned
    // worker replays the same derived fault stream, so a corrupt hello
    // would deterministically kill every replacement of this slot.
    DistMsg::Hello {
        worker: config.worker,
    }
    .write_to(&mut lock(&writer).stream)?;

    let jobs_done = Arc::new(AtomicU64::new(0));
    // The heartbeat thread waits on this channel between beats; dropping
    // the sender when the worker is done wakes it at once, so leaving
    // never waits out a cadence.
    let (stop, stopped) = std::sync::mpsc::channel::<()>();
    let heartbeat = {
        let writer = Arc::clone(&writer);
        let jobs_done = Arc::clone(&jobs_done);
        let every = config.heartbeat_every;
        let fault = fault.clone();
        // `true` when `pause` passed with the worker still running.
        let wait = move |pause: Duration| {
            matches!(stopped.recv_timeout(pause), Err(RecvTimeoutError::Timeout))
        };
        std::thread::spawn(move || loop {
            if !wait(every) {
                return;
            }
            // Chaos: delay this beat, pushing the worker toward (but not
            // deterministically past) the coordinator's silence timeout.
            if let Some(bits) = fault
                .as_deref()
                .and_then(|p| p.fires("dist.heartbeat_delay"))
            {
                if !wait(Duration::from_millis(1 + bits % 200)) {
                    return;
                }
            }
            let beat = DistMsg::Heartbeat {
                jobs_done: jobs_done.load(Ordering::Relaxed),
            };
            // The results finished since the last write go out ahead of
            // the beat. A failed write means the coordinator is gone; the
            // main loop will notice on its next read. Just stop beating.
            let mut link = lock(&writer);
            link.push(&beat, faults_of(&fault));
            if link.flush().is_err() {
                return;
            }
        })
    };

    let outcome = assignment_loop(&mut reader, &engine, &writer, &jobs_done, &fault, recorder);
    drop(stop);
    let _ = heartbeat.join();
    outcome.map(|()| jobs_done.load(Ordering::Relaxed))
}

fn assignment_loop(
    reader: &mut TcpStream,
    engine: &Engine,
    writer: &Arc<Mutex<Link>>,
    jobs_done: &AtomicU64,
    fault: &Option<Arc<FaultPlan>>,
    recorder: &dyn Recorder,
) -> Result<(), DistError> {
    loop {
        match DistMsg::read_from_with(reader, faults_of(fault)) {
            Ok(DistMsg::Assign { indices, spec }) => {
                let _span = span!(recorder, "dist.assignment", jobs = indices.len());
                let mut completed = 0usize;
                engine.run_job_subset(&spec, &indices, |result| {
                    let msg = DistMsg::JobDone(Box::new(WireJobResult::from(&result)));
                    let mut link = lock(writer);
                    link.push(&msg, faults_of(fault));
                    if link.pending.len() >= BATCH_BYTES {
                        // A failure here means the coordinator is gone
                        // mid-assignment; keep draining the pool (results
                        // still land in the shared caches) and let the
                        // next read surface the hangup.
                        let _ = link.flush();
                    }
                    completed += 1;
                    jobs_done.fetch_add(1, Ordering::Relaxed);
                })?;
                let mut link = lock(writer);
                link.push(&DistMsg::ShardDone { completed }, faults_of(fault));
                link.flush()?;
            }
            Ok(DistMsg::Shutdown) => return Ok(()),
            Ok(other) => {
                return Err(DistError::Io(format!(
                    "unexpected message from coordinator: {other:?}"
                )))
            }
            Err(hetrta_api::wire::WireError::Eof) => return Ok(()),
            Err(e) => return Err(DistError::Wire(e)),
        }
    }
}

fn lock(writer: &Arc<Mutex<Link>>) -> std::sync::MutexGuard<'_, Link> {
    writer
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The worker-side frame-fault seam: present only under `--chaos`.
fn faults_of(fault: &Option<Arc<FaultPlan>>) -> Option<&dyn FrameFaults> {
    fault.as_deref().map(|p| p as &dyn FrameFaults)
}
