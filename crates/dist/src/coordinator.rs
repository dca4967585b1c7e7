//! The coordinator: shards a sweep across worker processes, merges
//! their streamed results deterministically, and survives worker loss.
//!
//! ## Determinism
//!
//! The coordinator never reorders floating-point work. It feeds every
//! [`JobDone`](crate::protocol::DistMsg::JobDone) into the engine's
//! [`SweepDriver`], whose aggregator stores results in expansion-order
//! slots and replays them in expansion order at finalize — so the distributed
//! aggregate is **bitwise identical** to a single-process run of the
//! same spec, for any worker count, any arrival order, and any number
//! of mid-sweep worker deaths (the parity and fault integration tests
//! pin this).
//!
//! ## Fault model
//!
//! Workers are expendable; the coordinator is not. Each worker
//! heartbeats on a fixed cadence; a worker that disconnects, or goes
//! silent past [`DistConfig::heartbeat_timeout`] while it still owes
//! jobs, is declared dead. Its child process (if spawned) is killed,
//! and its *unfinished* indices are re-dispatched: to a respawned
//! replacement (exponential back-off, at most
//! [`DistConfig::max_respawns`] times per slot), or — when respawning
//! is impossible — to the least-loaded surviving worker. Re-dispatch is
//! idempotent: the driver drops any duplicate result that raced the
//! death, so each expansion slot is aggregated exactly once.

use std::collections::BTreeSet;
use std::io::{BufReader, Write as _};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hetrta_api::wire::{self, FrameFaults, WireError};
use hetrta_engine::{
    AggregateUpdate, AnalysisRegistry, FaultPlan, JournalConfig, SessionConfig, SweepAggregate,
    SweepDriver, SweepSpec,
};
use hetrta_obs::{span, Recorder};

use crate::protocol::{DistMsg, FRAME_OVERHEAD};
use crate::shard::shard_indices;
use crate::DistError;

/// How the coordinator obtains worker processes.
#[derive(Debug, Clone)]
pub enum Launch {
    /// Spawn `workers` local child processes with this launcher; dead
    /// workers are respawned from it too.
    Spawn(WorkerLauncher),
    /// Listen on this address and wait for `workers` externally started
    /// workers (`hetrta dist worker --connect <addr> --worker <i>`) to
    /// attach. No respawning: a dead worker's shard moves to survivors.
    Attach {
        /// Address to listen on (`host:port`).
        addr: String,
    },
}

/// Command line that starts one worker process. The coordinator appends
/// the standard flags (`--connect`, `--worker`, `--threads`,
/// `--heartbeat-ms` and, when configured, `--cache-dir`) after `args`.
#[derive(Debug, Clone)]
pub struct WorkerLauncher {
    /// Program to execute.
    pub program: PathBuf,
    /// Arguments before the standard flags (e.g. `["dist", "worker"]`
    /// when `program` is the `hetrta` binary itself).
    pub args: Vec<String>,
}

impl WorkerLauncher {
    fn spawn(&self, config: &DistConfig, addr: &str, worker: usize) -> Result<Child, DistError> {
        let mut cmd = Command::new(&self.program);
        cmd.args(&self.args)
            .arg("--connect")
            .arg(addr)
            .arg("--worker")
            .arg(worker.to_string())
            .arg("--threads")
            .arg(config.worker_threads.to_string())
            .arg("--heartbeat-ms")
            .arg(config.heartbeat_every.as_millis().to_string())
            .stdin(Stdio::null())
            // Workers inherit stderr (diagnostics) but not stdout: the
            // coordinator's own output stream must stay clean.
            .stdout(Stdio::null());
        if let Some(dir) = &config.cache_dir {
            cmd.arg("--cache-dir").arg(dir);
        }
        if let Some(plan) = &config.fault {
            cmd.arg("--chaos").arg(format!("{:#x}", plan.seed()));
        }
        cmd.spawn()
            .map_err(|e| DistError::Io(format!("spawn worker {}: {e}", self.program.display())))
    }
}

/// Configuration of one distributed sweep.
#[derive(Debug, Clone)]
pub struct DistConfig {
    /// Fleet size.
    pub workers: usize,
    /// Engine threads per worker (0 = all cores; the usual fleet choice
    /// is `cores / workers`).
    pub worker_threads: usize,
    /// Disk-cache directory shared by the whole fleet (and by
    /// single-process runs of the same spec — warm cells never
    /// recompute anywhere).
    pub cache_dir: Option<PathBuf>,
    /// How workers come to exist.
    pub launch: Launch,
    /// Heartbeat cadence passed to spawned workers.
    pub heartbeat_every: Duration,
    /// Silence (no frame of any kind) after which a worker owing jobs
    /// is declared dead.
    pub heartbeat_timeout: Duration,
    /// Respawn budget per fleet slot ([`Launch::Spawn`] only).
    pub max_respawns: usize,
    /// Base respawn back-off; attempt `n` for a slot waits
    /// `backoff × 2ⁿ`.
    pub respawn_backoff: Duration,
    /// Emit a [`DistProgress::Partial`] every this many completed jobs.
    pub partial_every: Option<usize>,
    /// Fault-injection hook: SIGKILL worker `.0`'s child after the
    /// coordinator has accepted `.1` of its jobs. Test-only; `None` in
    /// production.
    pub chaos_kill_after: Option<(usize, u64)>,
    /// Durable sweep journal: when set, every accepted job is recorded
    /// (write-ahead, before aggregation) and an interrupted run resumes
    /// from the journal instead of re-executing finished jobs.
    pub journal: Option<JournalConfig>,
    /// Seeded fault plan: drives wire-frame corruption and stalled
    /// reads on the coordinator side, a generalized kill-worker-at-job-K
    /// schedule (when [`DistConfig::chaos_kill_after`] is unset), and —
    /// via a forwarded `--chaos` flag — disk/wire/heartbeat faults
    /// inside spawned workers. Same seed, same fault sequence.
    pub fault: Option<Arc<FaultPlan>>,
}

impl DistConfig {
    /// A local fleet of `workers` processes spawned from `launcher`.
    #[must_use]
    pub fn local(workers: usize, launcher: WorkerLauncher) -> Self {
        DistConfig {
            workers,
            worker_threads: 0,
            cache_dir: None,
            launch: Launch::Spawn(launcher),
            heartbeat_every: crate::WorkerConfig::DEFAULT_HEARTBEAT,
            heartbeat_timeout: crate::WorkerConfig::DEFAULT_HEARTBEAT * 10,
            max_respawns: 2,
            respawn_backoff: Duration::from_millis(50),
            partial_every: None,
            chaos_kill_after: None,
            journal: None,
            fault: None,
        }
    }
}

/// Progress callbacks a distributed sweep emits, mirroring the shapes
/// of the engine's session events so daemon and CLI consumers reuse
/// their streaming paths.
#[derive(Debug, Clone)]
pub enum DistProgress {
    /// One job was accepted into the aggregate.
    Job {
        /// The job's expansion index.
        index: usize,
        /// The cell it contributes to.
        cell: usize,
        /// Fleet slot that ran it.
        worker: usize,
        /// Whether the worker served it from cache.
        cache_hit: bool,
        /// Wall-clock execution time on the worker.
        wall_time: Duration,
    },
    /// A partial aggregate snapshot (cadence set by
    /// [`DistConfig::partial_every`]).
    Partial {
        /// Jobs aggregated so far.
        completed: usize,
        /// Total jobs of the sweep.
        total: usize,
        /// The aggregate so far, delta-encoded like the engine's session
        /// partials (a full keyframe every 16th snapshot).
        update: AggregateUpdate,
    },
    /// A worker was declared dead and its unfinished jobs re-dispatched.
    WorkerDown {
        /// The dead worker's fleet slot.
        worker: usize,
        /// Unfinished jobs that were re-dispatched.
        redispatched: usize,
        /// Why the coordinator gave up on it.
        reason: String,
    },
}

/// What a distributed sweep produced.
#[derive(Debug, Clone)]
pub struct DistOutcome {
    /// The deterministic final aggregate (partial when `cancelled`).
    pub aggregate: SweepAggregate,
    /// Jobs aggregated.
    pub completed: usize,
    /// Total jobs of the spec's expansion.
    pub total: usize,
    /// Whether the sweep was cancelled before completion.
    pub cancelled: bool,
    /// Jobs aggregated per fleet slot (fleet-balance evidence).
    pub worker_jobs: Vec<u64>,
    /// Aggregated jobs their worker served from cache (`JobDone`'s
    /// `cache_hit`); a warm fleet over a shared cache directory serves
    /// all of them.
    pub cached_jobs: u64,
    /// Worker-death events handled.
    pub worker_deaths: u64,
    /// Unfinished jobs re-dispatched across all deaths.
    pub redispatched_jobs: u64,
    /// Worker processes respawned.
    pub respawns: u64,
    /// Duplicate results the driver dropped.
    pub duplicates: u64,
    /// Frame bytes sent to workers.
    pub bytes_tx: u64,
    /// Frame bytes received from workers.
    pub bytes_rx: u64,
}

/// What reader/accept threads report to the control loop. `conn`
/// numbers accepted connections, so events from a connection the
/// coordinator has already written off are told apart from those of
/// the slot's replacement worker.
enum Event {
    /// A worker's connection is up (hello read); the stream is the
    /// write half the coordinator keeps.
    Connected {
        worker: usize,
        conn: u64,
        writer: TcpStream,
    },
    /// One message from a connected worker.
    Msg {
        worker: usize,
        conn: u64,
        msg: DistMsg,
    },
    /// A worker's connection died (hangup, defect, or I/O error).
    Gone {
        worker: usize,
        conn: u64,
        reason: String,
    },
}

struct WorkerSlot {
    writer: Option<TcpStream>,
    /// The connection `writer` belongs to.
    conn: Option<u64>,
    child: Option<Child>,
    /// Outstanding expansion indices this slot owes.
    assigned: BTreeSet<usize>,
    last_seen: Instant,
    connected_once: bool,
    respawns: usize,
    jobs: u64,
}

/// Runs `spec` across a worker fleet and merges the results.
///
/// `cancel`, when set, stops the sweep at the next control-loop tick
/// (spawned children are killed; the outcome carries the partial
/// aggregate with `cancelled = true`). `progress` receives
/// [`DistProgress`] callbacks on the calling thread.
///
/// # Errors
///
/// - [`DistError::Engine`] when the spec is invalid (validated up front
///   with the same rules as a local run) or a job failed;
/// - [`DistError::WorkersLost`] when a shard cannot complete: its
///   worker died, the respawn budget is spent, and no live worker
///   remains to take the orphans;
/// - [`DistError::Io`] / [`DistError::Wire`] on socket trouble.
pub fn run_distributed(
    spec: &SweepSpec,
    config: &DistConfig,
    recorder: &dyn Recorder,
    cancel: Option<&AtomicBool>,
    mut progress: impl FnMut(DistProgress),
) -> Result<DistOutcome, DistError> {
    let _span = span!(recorder, "dist.sweep", workers = config.workers);
    if config.workers == 0 {
        return Err(DistError::Config("a fleet needs at least 1 worker".into()));
    }
    // Validate exactly like a local run would (spec rules + registry
    // compatibility against the workers' builtin registry) and replay the
    // journal, if any, before any process is spawned: the shards
    // dispatched below only ever contain the remainder.
    let (driver, _pending) =
        SweepDriver::open(spec, &AnalysisRegistry::builtin(), config.journal.as_ref())?;
    let mut driver = driver.with_partials(
        config.partial_every,
        SessionConfig::default().keyframe_every,
    );
    let total = driver.total();

    let listener = match &config.launch {
        Launch::Spawn(_) => TcpListener::bind("127.0.0.1:0"),
        Launch::Attach { addr } => TcpListener::bind(addr),
    }
    .map_err(|e| DistError::Io(format!("bind coordinator listener: {e}")))?;
    let addr = listener
        .local_addr()
        .map_err(|e| DistError::Io(format!("coordinator local addr: {e}")))?
        .to_string();

    let bytes_rx = Arc::new(AtomicU64::new(0));
    let accept_done = Arc::new(AtomicBool::new(false));
    let (tx, rx) = std::sync::mpsc::channel::<Event>();
    let accept_thread = {
        let tx = tx.clone();
        let bytes_rx = Arc::clone(&bytes_rx);
        let accept_done = Arc::clone(&accept_done);
        let fault = config.fault.clone();
        let listener = listener
            .try_clone()
            .map_err(|e| DistError::Io(format!("clone listener: {e}")))?;
        std::thread::spawn(move || accept_loop(&listener, &tx, &bytes_rx, &accept_done, fault))
    };
    drop(tx); // reader threads hold their own clones

    let mut fleet = Fleet {
        spec,
        config,
        addr,
        recorder,
        slots: (0..config.workers)
            .map(|w| WorkerSlot {
                writer: None,
                conn: None,
                child: None,
                assigned: shard_indices(total, w, config.workers)
                    .into_iter()
                    .filter(|&index| driver.is_pending(index))
                    .collect(),
                last_seen: Instant::now(),
                connected_once: false,
                respawns: 0,
                jobs: 0,
            })
            .collect(),
        stats: Stats::default(),
    };
    for (w, slot) in fleet.slots.iter_mut().enumerate() {
        recorder.name_lane(
            u32::try_from(w).unwrap_or(u32::MAX).saturating_add(1),
            &format!("dist worker {w}"),
        );
        // A fully-replayed sweep needs no fleet at all.
        if driver.completed() < total {
            if let Launch::Spawn(launcher) = &config.launch {
                slot.child = Some(launcher.spawn(config, &fleet.addr, w)?);
                slot.last_seen = Instant::now();
            }
        }
    }

    // The explicit kill-at-job-K hook wins; otherwise a fault plan
    // draws a deterministic (worker, K) from its own stream.
    let mut chaos = config.chaos_kill_after.or_else(|| {
        config.fault.as_deref().map(|plan| {
            let bits = plan.draw("dist.kill_worker");
            ((bits as usize) % config.workers, 1 + (bits >> 16) % 4)
        })
    });
    let mut cancelled = false;
    let tick = config.heartbeat_timeout.min(Duration::from_millis(100));

    while driver.completed() < total {
        if cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
            cancelled = true;
            break;
        }
        match rx.recv_timeout(tick) {
            Ok(Event::Connected {
                worker,
                conn,
                writer,
            }) => {
                let Some(slot) = fleet.slots.get_mut(worker) else {
                    continue; // unknown slot: drop the connection
                };
                slot.last_seen = Instant::now();
                slot.connected_once = true;
                slot.writer = Some(writer);
                slot.conn = Some(conn);
                let indices = slot.assigned.iter().copied().collect();
                if let Err(e) = fleet.assign(worker, indices) {
                    fleet.handle_death(worker, &format!("assign failed: {e}"), &mut progress)?;
                }
            }
            Ok(Event::Msg { worker, conn, msg }) => {
                let Some(slot) = fleet.slots.get_mut(worker) else {
                    continue;
                };
                // Only the live connection vouches for the slot; results
                // still in flight from a written-off one are kept (they
                // are deterministic), and the driver dedups them.
                if slot.conn == Some(conn) {
                    slot.last_seen = Instant::now();
                }
                if let DistMsg::JobDone(result) = msg {
                    let index = result.index;
                    if !driver.is_pending(index) {
                        fleet.stats.duplicates += 1;
                        recorder.record_counter("dist.duplicate", 1);
                        continue;
                    }
                    // Whichever slot owes it (a re-dispatched job may
                    // arrive from its first owner's dead connection).
                    for owner in &mut fleet.slots {
                        owner.assigned.remove(&index);
                    }
                    fleet.stats.cached += u64::from(result.cache_hit);
                    let slot = &mut fleet.slots[worker];
                    slot.jobs += 1;
                    recorder.record_counter("dist.jobs", 1);
                    progress(DistProgress::Job {
                        index,
                        cell: result.cell,
                        worker,
                        cache_hit: result.cache_hit,
                        wall_time: result.wall_time,
                    });
                    if let Some(update) = driver.accept(result.into_result(worker)) {
                        progress(DistProgress::Partial {
                            completed: driver.completed(),
                            total,
                            update,
                        });
                    }
                    if chaos.is_some_and(|(w, after)| w == worker && slot.jobs >= after)
                        && slot.child.is_some()
                    {
                        chaos = None;
                        // SIGKILL, not a polite shutdown: the fault
                        // tests assert recovery from the worst case.
                        // The death is declared here, not when the
                        // socket reports it: every job the coordinator
                        // has not yet accepted from this worker is
                        // orphaned, however far the worker had got, so
                        // the kill lands mid-shard by construction.
                        fleet.handle_death(worker, "killed by the chaos hook", &mut progress)?;
                    }
                }
                // Heartbeat/ShardDone only refresh last_seen (above);
                // completion is tracked per job, not per shard.
            }
            Ok(Event::Gone {
                worker,
                conn,
                reason,
            }) => {
                if fleet.slots.get(worker).is_none_or(|s| s.conn != Some(conn)) {
                    continue; // a connection already written off
                }
                fleet.handle_death(worker, &reason, &mut progress)?;
            }
            Err(RecvTimeoutError::Timeout) => {
                let now = Instant::now();
                let stale: Vec<usize> = fleet
                    .slots
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| {
                        !s.assigned.is_empty()
                            && now.duration_since(s.last_seen) > config.heartbeat_timeout
                            // Attach-mode workers are started by hand;
                            // wait for them indefinitely until first
                            // contact.
                            && (s.connected_once || matches!(config.launch, Launch::Spawn(_)))
                    })
                    .map(|(w, _)| w)
                    .collect();
                for worker in stale {
                    fleet.handle_death(worker, "heartbeat timeout", &mut progress)?;
                }
            }
            Err(RecvTimeoutError::Disconnected) => {
                return Err(DistError::Io("coordinator event channel closed".into()));
            }
        }
    }

    // Tear the fleet down: a polite shutdown to every worker first,
    // then reap the children, so the workers exit side by side rather
    // than each waiting for the one before it.
    for slot in &mut fleet.slots {
        let told = slot.writer.take().is_some_and(|mut writer| {
            let ok = DistMsg::Shutdown.write_to(&mut writer).is_ok();
            let _ = writer.flush();
            ok
        });
        slot.conn = None;
        if let Some(child) = &mut slot.child {
            // A child that never heard the shutdown (not yet connected,
            // or a dead socket) would block `wait()` forever.
            if cancelled || !told {
                let _ = child.kill();
            }
        }
    }
    for child in fleet.slots.iter_mut().filter_map(|s| s.child.as_mut()) {
        let _ = child.wait();
    }
    // Unblock the accept thread (it checks the flag after each accept).
    accept_done.store(true, Ordering::Relaxed);
    let _ = TcpStream::connect(&fleet.addr);
    let _ = accept_thread.join();

    let stats = &fleet.stats;
    recorder.record_counter("dist.bytes_tx", stats.bytes_tx);
    recorder.record_counter("dist.bytes_rx", bytes_rx.load(Ordering::Relaxed));
    let completed = driver.completed();
    // The driver seals the journal on every way out of this function.
    let aggregate = if cancelled {
        driver.partial()
    } else {
        driver.finish()?
    };
    Ok(DistOutcome {
        aggregate,
        completed,
        total,
        cancelled,
        worker_jobs: fleet.slots.iter().map(|s| s.jobs).collect(),
        cached_jobs: stats.cached,
        worker_deaths: stats.deaths,
        redispatched_jobs: stats.redispatched,
        respawns: stats.respawns,
        duplicates: stats.duplicates,
        bytes_tx: stats.bytes_tx,
        bytes_rx: bytes_rx.load(Ordering::Relaxed),
    })
}

#[derive(Default)]
struct Stats {
    bytes_tx: u64,
    cached: u64,
    deaths: u64,
    redispatched: u64,
    respawns: u64,
    duplicates: u64,
}

/// The fleet one sweep runs on: its fixed context, its worker slots, and
/// the counters its outcome reports.
struct Fleet<'a> {
    spec: &'a SweepSpec,
    config: &'a DistConfig,
    /// The coordinator's listen address, handed to spawned workers.
    addr: String,
    recorder: &'a dyn Recorder,
    slots: Vec<WorkerSlot>,
    stats: Stats,
}

impl Fleet<'_> {
    /// Sends `worker` its `indices` to run (with frame faults when a
    /// fault plan is configured).
    fn assign(&mut self, worker: usize, indices: Vec<usize>) -> Result<(), WireError> {
        let Some(writer) = &mut self.slots[worker].writer else {
            return Err(WireError::Io("worker has no connection".into()));
        };
        let msg = DistMsg::Assign {
            indices,
            spec: Box::new(self.spec.clone()),
        };
        let (kind, payload) = msg.encode();
        self.stats.bytes_tx += (payload.len() + FRAME_OVERHEAD) as u64;
        let faults = self.config.fault.as_deref().map(|p| p as &dyn FrameFaults);
        wire::write_frame_with(writer, kind, &payload, faults)
    }

    /// Declares `worker` dead and re-homes its unfinished indices: a
    /// respawned replacement when the launcher and budget allow, else the
    /// least-loaded surviving worker.
    fn handle_death(
        &mut self,
        worker: usize,
        reason: &str,
        progress: &mut impl FnMut(DistProgress),
    ) -> Result<(), DistError> {
        let (config, recorder) = (self.config, self.recorder);
        let slot = &mut self.slots[worker];
        slot.writer = None;
        slot.conn = None;
        if let Some(child) = &mut slot.child {
            let _ = child.kill();
            let _ = child.wait();
        }
        slot.child = None;
        let orphans = slot.assigned.len();
        if orphans == 0 {
            // Nothing outstanding (e.g. hangup after its shard finished):
            // not a fault, nothing to re-dispatch.
            return Ok(());
        }
        self.stats.deaths += 1;
        self.stats.redispatched += orphans as u64;
        recorder.record_counter("dist.worker_death", 1);
        recorder.record_counter("dist.redispatch", orphans as u64);
        progress(DistProgress::WorkerDown {
            worker,
            redispatched: orphans,
            reason: reason.to_string(),
        });

        if let Launch::Spawn(launcher) = &config.launch {
            if slot.respawns < config.max_respawns {
                let backoff = config.respawn_backoff * 2u32.saturating_pow(slot.respawns as u32);
                std::thread::sleep(backoff);
                slot.respawns += 1;
                self.stats.respawns += 1;
                recorder.record_counter("dist.respawn", 1);
                slot.child = Some(launcher.spawn(config, &self.addr, worker)?);
                slot.last_seen = Instant::now();
                slot.connected_once = false;
                // The orphans stay on this slot; the replacement receives
                // them in the Assign sent on its hello.
                return Ok(());
            }
        }

        // No replacement possible: hand the orphans to the least-loaded
        // survivor (fewest outstanding jobs).
        let orphaned: Vec<usize> = std::mem::take(&mut slot.assigned).into_iter().collect();
        let heir = self
            .slots
            .iter()
            .enumerate()
            .filter(|(w, s)| *w != worker && s.writer.is_some())
            .min_by_key(|(_, s)| s.assigned.len())
            .map(|(w, _)| w);
        let Some(heir) = heir else {
            return Err(DistError::WorkersLost(format!(
                "worker {worker} died ({reason}) with {orphans} jobs outstanding, \
                 its respawn budget is spent, and no live worker remains"
            )));
        };
        self.slots[heir].assigned.extend(orphaned.iter().copied());
        if let Err(e) = self.assign(heir, orphaned) {
            // The heir is dying too; recurse so *its* death path (which
            // now owns the orphans) tries the next candidate.
            let reason = format!("assign of re-dispatched jobs failed: {e}");
            return self.handle_death(heir, &reason, progress);
        }
        Ok(())
    }
}

fn accept_loop(
    listener: &TcpListener,
    tx: &Sender<Event>,
    bytes_rx: &Arc<AtomicU64>,
    done: &Arc<AtomicBool>,
    fault: Option<Arc<FaultPlan>>,
) {
    for conn in 0.. {
        let Ok((stream, _)) = listener.accept() else {
            return;
        };
        if done.load(Ordering::Relaxed) {
            return;
        }
        let tx = tx.clone();
        let bytes_rx = Arc::clone(bytes_rx);
        let fault = fault.clone();
        std::thread::spawn(move || reader_loop(stream, conn, &tx, &bytes_rx, fault));
    }
}

/// Per-connection reader: expects a hello, then pumps messages into the
/// control loop until the stream dies.
fn reader_loop(
    stream: TcpStream,
    conn: u64,
    tx: &Sender<Event>,
    bytes_rx: &Arc<AtomicU64>,
    fault: Option<Arc<FaultPlan>>,
) {
    let faults = fault.as_deref().map(|p| p as &dyn FrameFaults);
    // Small frames go out at once, as on the worker's end of the link.
    let _ = stream.set_nodelay(true);
    // Workers write their results in batches; buffering the read half
    // takes a batch in a few reads instead of two per frame.
    let mut reader = match stream.try_clone() {
        Ok(reader) => BufReader::new(reader),
        Err(_) => return,
    };
    let worker = match read_counted(&mut reader, bytes_rx, faults) {
        Ok(DistMsg::Hello { worker }) => worker,
        _ => return, // not a worker (e.g. the shutdown wake-up connect)
    };
    if tx
        .send(Event::Connected {
            worker,
            conn,
            writer: stream,
        })
        .is_err()
    {
        return;
    }
    loop {
        match read_counted(&mut reader, bytes_rx, faults) {
            Ok(msg) => {
                if tx.send(Event::Msg { worker, conn, msg }).is_err() {
                    return;
                }
            }
            Err(e) => {
                let reason = match e {
                    WireError::Eof => "connection closed".to_string(),
                    other => other.to_string(),
                };
                let _ = tx.send(Event::Gone {
                    worker,
                    conn,
                    reason,
                });
                return;
            }
        }
    }
}

fn read_counted(
    reader: &mut BufReader<TcpStream>,
    bytes_rx: &Arc<AtomicU64>,
    faults: Option<&dyn FrameFaults>,
) -> Result<DistMsg, WireError> {
    let (kind, payload) = wire::read_frame_with(reader, faults)?;
    bytes_rx.fetch_add((payload.len() + FRAME_OVERHEAD) as u64, Ordering::Relaxed);
    DistMsg::decode(kind, &payload)
}
