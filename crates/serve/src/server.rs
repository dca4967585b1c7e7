//! The daemon: one shared [`Engine`] behind a `TcpListener`, a
//! reader/writer thread pair per connection, and the [`Admission`]
//! queue between them.
//!
//! Lifecycle of a submit: the reader decodes the request, offers it to
//! admission (replying `Busy`/`Error` synchronously when refused), and
//! the scheduler thread later grants it a slot and spawns a pump thread.
//! The pump runs the sweep on the shared engine, streams its events to
//! the connection's writer thread, and finishes with `Done` carrying the
//! final aggregate. A client that disconnects mid-sweep has its sweep
//! cancelled through its session's
//! [`SweepCancelToken`](hetrta_engine::SweepCancelToken) (or the flag a
//! fleet's coordinator polls); `Shutdown` (and SIGTERM on
//! unix) drains every admitted sweep before the daemon exits.

use std::net::{Shutdown as SocketShutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use hetrta_api::wire::WireError;
use hetrta_engine::{
    spec_hash, Engine, EngineBuilder, EngineError, FaultPlan, JournalConfig, SessionConfig,
    SweepEvent, SweepSpec,
};

use crate::admission::{Admission, AdmissionConfig, Offer};
use crate::proto::{Reply, Request};

/// Everything needed to bring up a daemon.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:7917` (port 0 picks a free one).
    pub addr: String,
    /// Worker threads of the shared engine pool (0 = auto).
    pub threads: usize,
    /// Optional shared on-disk result cache.
    pub cache_dir: Option<PathBuf>,
    /// Admission bounds and backpressure hint.
    pub admission: AdmissionConfig,
    /// Cadence of streamed partial aggregates, in completed jobs
    /// (`None` streams no partials, only the terminal `Done`).
    pub partial_every: Option<usize>,
    /// `Some` fans every granted sweep across a multi-process worker
    /// fleet (`hetrta-dist`) instead of the in-process engine; the
    /// fleet shares this daemon's cache directory, so tenants still
    /// warm each other's cells.
    pub dist: Option<hetrta_dist::DistConfig>,
    /// `Some` journals every sweep — in-process or fleet — into
    /// `<dir>/<spec_hash:016x>` (one directory per distinct spec) and
    /// always resumes: a daemon killed mid-sweep replays the journaled
    /// jobs on resubmit and executes only the remainder. Concurrent
    /// submits of the *same* spec share a directory — appends stay
    /// checksummed and replay dedups, but durability is strongest when
    /// identical specs are serialized.
    pub journal_dir: Option<PathBuf>,
    /// Chaos seed: arms a deterministic [`FaultPlan`] on the shared
    /// engine (disk-cache read/write faults, `fault.*` counters in
    /// `stats`). Same seed, same fault sequence.
    pub chaos: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 0,
            cache_dir: None,
            admission: AdmissionConfig::default(),
            partial_every: Some(8),
            dist: None,
            journal_dir: None,
            chaos: None,
        }
    }
}

/// Daemon-level failures (binding, engine construction).
#[derive(Debug)]
pub enum ServeError {
    /// The listen socket could not be bound.
    Bind(String),
    /// The shared engine could not be built (e.g. unusable cache dir).
    Engine(EngineError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Bind(msg) => write!(f, "cannot bind listener: {msg}"),
            ServeError::Engine(err) => write!(f, "cannot build engine: {err}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Sets the shutdown flag from outside `run()` (tests, signal handlers,
/// a `Shutdown` frame). Cloneable and cheap.
#[derive(Debug, Clone)]
pub struct ShutdownHandle {
    flag: Arc<AtomicBool>,
}

impl ShutdownHandle {
    /// Requests a graceful drain-and-exit.
    pub fn shutdown(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether shutdown has been requested.
    #[must_use]
    pub fn is_shutdown(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// Messages to a connection's writer thread.
enum Out {
    /// One reply frame to serialize onto the socket.
    Frame(Reply),
    /// Flush barrier: ack once every earlier frame hit the socket.
    Flush(mpsc::Sender<()>),
}

/// State shared between a connection's reader, its writer, and the pump
/// threads running its sweeps.
struct ConnShared {
    out: mpsc::Sender<Out>,
    /// Cancels the in-flight sweep (its session token, or the flag a
    /// fleet's coordinator polls), when one is running.
    cancel: Mutex<Option<Canceller>>,
    /// Set by the reader on EOF/error; pumps skip or cancel accordingly.
    disconnected: AtomicBool,
    /// Set by a `Cancel` frame arriving before the sweep was granted.
    cancel_requested: AtomicBool,
    /// One sweep in flight per connection (admission + stream framing
    /// both assume it).
    in_flight: AtomicBool,
}

impl ConnShared {
    fn send(&self, reply: Reply) {
        // A failed send means the writer exited (socket gone) — the
        // disconnect path already cancels the sweep, so just drop it.
        let _ = self.out.send(Out::Frame(reply));
    }

    /// Queues `reply` and blocks until the writer has flushed it (used
    /// for terminal frames so drain can't close the socket under them).
    fn send_flushed(&self, reply: Reply) {
        let _ = self.out.send(Out::Frame(reply));
        let (ack_tx, ack_rx) = mpsc::channel();
        if self.out.send(Out::Flush(ack_tx)).is_ok() {
            let _ = ack_rx.recv();
        }
    }

    /// Whether the client has gone or asked to cancel.
    fn wants_cancel(&self) -> bool {
        self.disconnected.load(Ordering::SeqCst) || self.cancel_requested.load(Ordering::SeqCst)
    }

    /// Cancels the in-flight sweep, if one is running.
    fn cancel_sweep(&self) {
        if let Some(cancel) = self.cancel.lock().expect("cancel slot").as_ref() {
            cancel();
        }
    }

    /// Publishes how to cancel the sweep that is starting. The reader may
    /// have observed a disconnect before the publication, so the check
    /// runs after it: the cancel is never lost.
    fn arm_cancel(&self, cancel: Canceller) {
        let mut slot = self.cancel.lock().expect("cancel slot");
        let cancel = slot.insert(cancel);
        if self.wants_cancel() {
            cancel();
        }
    }
}

/// Stops one in-flight sweep.
type Canceller = Box<dyn Fn() + Send>;

/// One pending sweep travelling from reader to scheduler to pump.
struct PendingSweep {
    tenant: String,
    spec: SweepSpec,
    conn: Arc<ConnShared>,
}

/// The daemon. Construct with [`Server::bind`], drive with
/// [`Server::run`] (blocking until shutdown).
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    engine: Arc<Engine>,
    admission: Arc<Admission<PendingSweep>>,
    shutdown: ShutdownHandle,
    config: ServerConfig,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("local_addr", &self.local_addr)
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds the listener and builds the shared engine.
    ///
    /// # Errors
    ///
    /// [`ServeError::Bind`] or [`ServeError::Engine`].
    pub fn bind(config: ServerConfig) -> Result<Server, ServeError> {
        let listener = TcpListener::bind(&config.addr)
            .map_err(|err| ServeError::Bind(format!("{}: {err}", config.addr)))?;
        let local_addr = listener
            .local_addr()
            .map_err(|err| ServeError::Bind(err.to_string()))?;
        let mut builder = EngineBuilder::new().threads(config.threads);
        if let Some(dir) = &config.cache_dir {
            builder = builder.with_cache_dir(dir);
        }
        if let Some(seed) = config.chaos {
            builder = builder.with_fault_plan(Arc::new(FaultPlan::new(seed)));
        }
        let engine = Arc::new(builder.build().map_err(ServeError::Engine)?);
        let metrics = engine.metrics();
        let admission = Arc::new(Admission::new(
            config.admission.clone(),
            metrics.gauge("serve.queue_depth"),
            metrics.gauge("serve.active_sweeps"),
        ));
        Ok(Server {
            listener,
            local_addr,
            engine,
            admission,
            shutdown: ShutdownHandle {
                flag: Arc::new(AtomicBool::new(false)),
            },
            config,
        })
    }

    /// The bound address (resolves port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A handle that triggers graceful shutdown from another thread.
    #[must_use]
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        self.shutdown.clone()
    }

    /// The daemon's shared engine (tests inspect `active_sessions`).
    #[must_use]
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Serves until shutdown is requested (by a `Shutdown` frame, the
    /// [`ShutdownHandle`], or SIGTERM on unix), then drains every
    /// admitted sweep, closes connections, and joins every thread.
    ///
    /// # Errors
    ///
    /// [`ServeError::Bind`] when the listener cannot enter
    /// non-blocking mode.
    pub fn run(self) -> Result<(), ServeError> {
        #[cfg(unix)]
        sigterm::install();

        self.listener
            .set_nonblocking(true)
            .map_err(|err| ServeError::Bind(err.to_string()))?;

        let scheduler = {
            let admission = Arc::clone(&self.admission);
            let engine = Arc::clone(&self.engine);
            let config = self.config.clone();
            std::thread::spawn(move || {
                let mut pumps: Vec<JoinHandle<()>> = Vec::new();
                while let Some(pending) = admission.next_granted() {
                    let admission = Arc::clone(&admission);
                    let engine = Arc::clone(&engine);
                    let config = config.clone();
                    pumps.retain(|pump| !pump.is_finished());
                    pumps.push(std::thread::spawn(move || {
                        pump_sweep(&engine, pending, &config);
                        admission.complete();
                    }));
                }
                for pump in pumps {
                    let _ = pump.join();
                }
            })
        };

        let mut connections: Vec<(TcpStream, JoinHandle<()>, JoinHandle<()>)> = Vec::new();
        loop {
            if self.shutdown.is_shutdown() || sigterm_requested() {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    connections.retain(|(_, reader, writer)| {
                        !(reader.is_finished() && writer.is_finished())
                    });
                    match spawn_connection(
                        stream,
                        Arc::clone(&self.engine),
                        Arc::clone(&self.admission),
                        self.shutdown.clone(),
                    ) {
                        Ok(conn) => connections.push(conn),
                        Err(_) => continue,
                    }
                }
                Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }

        // Graceful drain: no new admissions, every admitted sweep runs to
        // completion and its terminal frame is flushed before sockets
        // close.
        self.admission.drain();
        let _ = scheduler.join();
        for (stream, reader, writer) in connections {
            let _ = stream.shutdown(SocketShutdown::Both);
            let _ = reader.join();
            let _ = writer.join();
        }
        Ok(())
    }
}

/// Whether a SIGTERM arrived (always `false` off unix).
fn sigterm_requested() -> bool {
    #[cfg(unix)]
    {
        sigterm::TERM.load(Ordering::SeqCst)
    }
    #[cfg(not(unix))]
    {
        false
    }
}

/// Minimal SIGTERM latch: `signal(2)` flips an atomic the accept loop
/// polls. The handler body is async-signal-safe (one atomic store).
#[cfg(unix)]
mod sigterm {
    #![allow(unsafe_code)]

    use std::sync::atomic::{AtomicBool, Ordering};

    pub(super) static TERM: AtomicBool = AtomicBool::new(false);

    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_term(_signum: i32) {
        TERM.store(true, Ordering::SeqCst);
    }

    pub(super) fn install() {
        unsafe {
            signal(SIGTERM, on_term as *const () as usize);
        }
    }
}

/// Spawns the reader/writer thread pair for one accepted connection.
fn spawn_connection(
    stream: TcpStream,
    engine: Arc<Engine>,
    admission: Arc<Admission<PendingSweep>>,
    shutdown: ShutdownHandle,
) -> std::io::Result<(TcpStream, JoinHandle<()>, JoinHandle<()>)> {
    stream.set_nonblocking(false)?;
    let _ = stream.set_nodelay(true);
    let reader_stream = stream.try_clone()?;
    let mut writer_stream = stream.try_clone()?;
    let (out_tx, out_rx) = mpsc::channel::<Out>();

    let writer = std::thread::spawn(move || {
        while let Ok(out) = out_rx.recv() {
            match out {
                Out::Frame(reply) => {
                    // Socket errors are terminal for this connection; keep
                    // draining the channel so pumps never block on send.
                    let _ = reply.write_to(&mut writer_stream);
                }
                Out::Flush(ack) => {
                    let _ = ack.send(());
                }
            }
        }
    });

    let conn = Arc::new(ConnShared {
        out: out_tx,
        cancel: Mutex::new(None),
        disconnected: AtomicBool::new(false),
        cancel_requested: AtomicBool::new(false),
        in_flight: AtomicBool::new(false),
    });
    let reader = std::thread::spawn(move || {
        serve_connection(&reader_stream, &engine, &admission, &conn, &shutdown);
        // Reader exit = client gone (or daemon closing the socket):
        // cancel whatever is still running for this connection.
        conn.disconnected.store(true, Ordering::SeqCst);
        conn.cancel_sweep();
    });
    Ok((stream, reader, writer))
}

/// The reader loop: decode requests, answer or enqueue, until EOF.
fn serve_connection(
    stream: &TcpStream,
    engine: &Arc<Engine>,
    admission: &Arc<Admission<PendingSweep>>,
    conn: &Arc<ConnShared>,
    shutdown: &ShutdownHandle,
) {
    let metrics = engine.metrics();
    let mut reader = std::io::BufReader::new(match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    });
    loop {
        let request = match Request::read_from(&mut reader) {
            Ok(request) => request,
            Err(WireError::Eof) => return,
            Err(WireError::Io(_)) | Err(WireError::Truncated) => {
                metrics.counter("serve.disconnects").incr();
                return;
            }
            Err(err) => {
                // Protocol defect: tell the client and drop the
                // connection (framing may be out of sync).
                conn.send_flushed(Reply::Error {
                    message: format!("protocol error: {err}"),
                });
                metrics.counter("serve.disconnects").incr();
                return;
            }
        };
        match request {
            Request::Submit { tenant, spec } => {
                handle_submit(engine, admission, conn, tenant, *spec);
            }
            Request::Cancel => {
                conn.cancel_requested.store(true, Ordering::SeqCst);
                conn.cancel_sweep();
            }
            Request::Stats => {
                let mut text = metrics.snapshot().render_table();
                text.push_str(&format!(
                    "queue: pending={} active={} draining={}\n",
                    admission.pending(),
                    admission.active(),
                    admission.is_draining(),
                ));
                conn.send(Reply::StatsReply { text });
            }
            Request::Shutdown => {
                conn.send_flushed(Reply::ShutdownAck);
                shutdown.shutdown();
            }
        }
    }
}

/// Validates and enqueues one submit, replying synchronously.
fn handle_submit(
    engine: &Arc<Engine>,
    admission: &Arc<Admission<PendingSweep>>,
    conn: &Arc<ConnShared>,
    tenant: String,
    spec: SweepSpec,
) {
    let metrics = engine.metrics();
    metrics
        .counter(&format!("serve.tenant.{tenant}.submitted"))
        .incr();
    if conn.in_flight.swap(true, Ordering::SeqCst) {
        conn.send(Reply::Error {
            message: "one sweep per connection: wait for the previous Done".into(),
        });
        return;
    }
    if let Err(err) = spec.validate() {
        conn.in_flight.store(false, Ordering::SeqCst);
        conn.send(Reply::Error {
            message: format!("rejected spec: {err}"),
        });
        return;
    }
    let jobs = spec.job_count();
    conn.cancel_requested.store(false, Ordering::SeqCst);
    let pending = PendingSweep {
        tenant: tenant.clone(),
        spec,
        conn: Arc::clone(conn),
    };
    // The reply is enqueued inside the admission critical section:
    // once `offer` returns, the scheduler may grant the sweep and a
    // fully-cached run can emit its terminal frame within a
    // millisecond, so an `Accepted` sent after the fact could arrive
    // behind the sweep's own `Done`.
    let offer = admission.offer_with(&tenant, pending, |offer| match offer {
        Offer::Enqueued => conn.send(Reply::Accepted { jobs }),
        Offer::Busy { retry_after_ms } => conn.send(Reply::Busy {
            retry_after_ms: *retry_after_ms,
        }),
        Offer::Draining => conn.send(Reply::Error {
            message: "daemon is draining, not accepting new sweeps".into(),
        }),
    });
    match offer {
        Offer::Enqueued => {}
        Offer::Busy { .. } => {
            conn.in_flight.store(false, Ordering::SeqCst);
            metrics
                .counter(&format!("serve.tenant.{tenant}.busy"))
                .incr();
        }
        Offer::Draining => conn.in_flight.store(false, Ordering::SeqCst),
    }
}

/// Runs one granted sweep — on the shared engine, or fanned across the
/// worker fleet when dist mode is configured — streams it back, and
/// finishes with its terminal frame.
fn pump_sweep(engine: &Arc<Engine>, pending: PendingSweep, config: &ServerConfig) {
    let PendingSweep { tenant, spec, conn } = pending;
    // Journal mode: resume whatever an earlier (possibly killed) daemon
    // journaled for this spec, and execute only the remainder.
    let journal = config
        .journal_dir
        .as_ref()
        .map(|dir| JournalConfig::new(dir.join(format!("{:016x}", spec_hash(&spec)))).resuming());
    let journaled = journal.is_some();
    let outcome = if conn.wants_cancel() {
        Err("sweep cancelled before it started".to_string())
    } else if let Some(dist) = &config.dist {
        let dist = hetrta_dist::DistConfig {
            partial_every: config.partial_every,
            journal,
            ..dist.clone()
        };
        run_on_fleet(engine, &spec, &conn, &dist)
    } else {
        let session = SessionConfig {
            job_events: false,
            partial_every: config.partial_every,
            journal,
            ..SessionConfig::quiet()
        };
        run_on_engine(engine, &spec, &conn, session)
    };
    let reply = match outcome {
        Ok((done, replayed, executed)) => {
            let metrics = engine.metrics();
            metrics
                .counter(&format!("serve.tenant.{tenant}.completed"))
                .incr();
            if journaled {
                metrics.counter("serve.journal.replayed").add(replayed);
                metrics.counter("serve.journal.executed").add(executed);
            }
            done
        }
        Err(message) => Reply::Error { message },
    };
    // Release the connection's sweep slot before the terminal frame goes
    // out: the moment the client sees it, a resubmit is legal.
    *conn.cancel.lock().expect("cancel slot") = None;
    conn.in_flight.store(false, Ordering::SeqCst);
    conn.send_flushed(reply);
}

/// Runs the sweep as a session on the shared engine, streaming its
/// events as `Event` frames. Returns the terminal `Done` frame with the
/// sweep's replayed and executed job counts.
fn run_on_engine(
    engine: &Engine,
    spec: &SweepSpec,
    conn: &ConnShared,
    session: SessionConfig,
) -> Result<(Reply, u64, u64), String> {
    let handle = engine
        .submit_with(spec, session)
        .map_err(|err| format!("engine rejected sweep: {err}"))?;
    let token = handle.cancel_token();
    conn.arm_cancel(Box::new(move || token.cancel()));
    let mut terminal = None;
    while let Some(event) = handle.next_event() {
        match event {
            SweepEvent::SweepFinished {
                completed,
                cancelled,
                events_dropped,
            } => {
                terminal = Some((completed, cancelled, events_dropped));
            }
            event => conn.send(Reply::Event(event)),
        }
    }
    let (completed, cancelled, events_dropped) = terminal.unwrap_or((0, true, 0));
    let output = handle
        .wait()
        .map_err(|err| format!("sweep failed: {err}"))?;
    let replayed = output.stats.replayed_jobs;
    let done = Reply::Done {
        completed,
        cancelled,
        events_dropped,
        aggregate: output.aggregate,
    };
    Ok((done, replayed as u64, (output.stats.jobs - replayed) as u64))
}

/// Fans the sweep across the worker fleet, streaming the coordinator's
/// delta-encoded partials as `Event` frames so clients reassemble
/// progress exactly as in engine mode. Returns the terminal `Done` frame
/// with the sweep's replayed and executed job counts.
fn run_on_fleet(
    engine: &Engine,
    spec: &SweepSpec,
    conn: &ConnShared,
    config: &hetrta_dist::DistConfig,
) -> Result<(Reply, u64, u64), String> {
    let cancel = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&cancel);
    conn.arm_cancel(Box::new(move || flag.store(true, Ordering::SeqCst)));
    let out =
        hetrta_dist::run_distributed(spec, config, &hetrta_obs::NOOP, Some(&cancel), |progress| {
            match progress {
                hetrta_dist::DistProgress::Partial {
                    completed,
                    total,
                    update,
                } => conn.send(Reply::Event(SweepEvent::PartialAggregate {
                    completed,
                    total,
                    update,
                })),
                hetrta_dist::DistProgress::WorkerDown { .. } => {
                    engine.metrics().counter("serve.dist.worker_deaths").incr();
                }
                hetrta_dist::DistProgress::Job { .. } => {}
            }
        })
        .map_err(|err| format!("distributed sweep failed: {err}"))?;
    let executed: u64 = out.worker_jobs.iter().sum();
    let done = Reply::Done {
        completed: out.completed,
        cancelled: out.cancelled,
        events_dropped: 0,
        aggregate: out.aggregate,
    };
    Ok((done, out.completed as u64 - executed, executed))
}
