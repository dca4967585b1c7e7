//! The engine facade: specs in, deterministic aggregates + run statistics
//! out — either blocking ([`Engine::run`]) or as an observable session
//! ([`Engine::submit`] → [`SweepHandle`]).

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hetrta_api::{AnalysisInput, AnalysisOutcome, AnalysisRegistry, DerivedData};
use hetrta_core::TransformedTask;
use hetrta_obs::{span, Histogram, MetricsRegistry, NoopRecorder, Recorder};

use crate::aggregate::SweepAggregate;
use crate::cache::{CacheCounters, MemoCache};
use crate::disk::DiskCache;
use crate::driver::{expand_checked, SweepDriver};
use crate::job::{self, Job, JobMetrics, JobResult};
use crate::journal::{JournalConfig, JournalOutcome};
use crate::pool;
use crate::session::{
    EventQueue, ProgressCounters, SessionConfig, SessionShared, SweepEvent, SweepHandle,
};
use crate::spec::SweepSpec;

/// Default per-cache entry bound of [`EngineCaches`]: roomy for any
/// realistic sweep, but a hard ceiling for resident memory.
pub const DEFAULT_CACHE_CAPACITY: usize = 1 << 20;

/// Entry cap of the input-materialization cache. Its values are whole
/// graphs/task sets (kilobytes each, not the ~16 bytes of the other
/// caches), and its purpose is reuse *across the grid cells of one sweep*
/// — the reuse distance is one per-core-count block of recipes, far below
/// this cap — so a small LRU captures the wins while bounding memory.
pub const INPUT_CACHE_CAP: usize = 4096;

/// Shared memoization state, persistent across [`Engine::run`] calls.
///
/// Five sharded LRU caches, each bounded (default
/// [`DEFAULT_CACHE_CAPACITY`] entries):
///
/// * `transform` — content hash → Algorithm 1 transformation
///   (m-independent, so one entry serves every core count of a sweep);
/// * `derived` — DAG content hash → [`DerivedData`] (critical path,
///   volume), shared across every grid cell and analysis kind that
///   touches the same graph;
/// * `results` — content hash × registry key × parameter digest →
///   analysis outcome;
/// * `identity` — job input *recipe* → content hash, so repeated-seed jobs
///   whose results are cached never regenerate the input;
/// * `inputs` — job input recipe → the materialized input itself (or the
///   generator's decline), so a repeated recipe analyzed under *new*
///   parameters (another core count of the grid) skips DAG generation
///   too. Unlike the other caches this one holds whole graphs/task sets,
///   so its entry bound is capped at [`INPUT_CACHE_CAP`] regardless of
///   the configured capacity — large sweeps evict and regenerate instead
///   of retaining gigabytes.
///
/// Optionally layered over a disk-persistent [`DiskCache`]
/// ([`EngineBuilder::with_cache_dir`]): memory misses probe the disk
/// before computing, and fresh results are written through, so a second
/// engine — in this process or another — replays instead of recomputing.
/// The writes are staged and commit at the latest when a run ends.
#[derive(Debug)]
pub struct EngineCaches {
    pub(crate) transform: MemoCache<Result<TransformedTask, String>>,
    pub(crate) derived: MemoCache<Result<Arc<DerivedData>, String>>,
    pub(crate) results: MemoCache<Result<AnalysisOutcome, String>>,
    pub(crate) identity: MemoCache<Option<u128>>,
    pub(crate) inputs: MemoCache<Result<Option<AnalysisInput>, String>>,
    pub(crate) disk: Option<DiskCache>,
}

impl EngineCaches {
    /// Caches bounded at (approximately) `capacity` entries each.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        EngineCaches::counted(capacity, &MetricsRegistry::new())
    }

    /// Caches bounded at (approximately) `capacity` entries each, counting
    /// their hits and misses as `cache.<memo>.{hits,misses}` in `metrics`.
    fn counted(capacity: usize, metrics: &MetricsRegistry) -> Self {
        let memo = |hits: &str, misses: &str| (metrics.counter(hits), metrics.counter(misses));
        let (hits, misses) = memo("cache.transform.hits", "cache.transform.misses");
        let transform = MemoCache::counted(capacity, hits, misses);
        let (hits, misses) = memo("cache.derived.hits", "cache.derived.misses");
        let derived = MemoCache::counted(capacity, hits, misses);
        let (hits, misses) = memo("cache.result.hits", "cache.result.misses");
        let results = MemoCache::counted(capacity, hits, misses);
        let (hits, misses) = memo("cache.identity.hits", "cache.identity.misses");
        let identity = MemoCache::counted(capacity, hits, misses);
        let (hits, misses) = memo("cache.input.hits", "cache.input.misses");
        let inputs = MemoCache::counted(capacity.min(INPUT_CACHE_CAP), hits, misses);
        EngineCaches {
            transform,
            derived,
            results,
            identity,
            inputs,
            disk: None,
        }
    }

    /// The disk layer, when one is attached.
    #[must_use]
    pub fn disk(&self) -> Option<&DiskCache> {
        self.disk.as_ref()
    }

    /// Disk-probe counters (zero when no cache directory is attached).
    #[must_use]
    pub fn disk_counters(&self) -> CacheCounters {
        self.disk
            .as_ref()
            .map_or_else(CacheCounters::default, DiskCache::counters)
    }

    /// Looks up a memoized result: memory first, then (on a memory miss)
    /// the disk layer, promoting disk hits into memory. Quiet on the
    /// in-memory counters, like [`MemoCache::peek`].
    pub(crate) fn peek_result(&self, key: u128) -> Option<Result<AnalysisOutcome, String>> {
        if let Some(value) = self.results.peek(key) {
            return Some(value);
        }
        let outcome = self.disk.as_ref()?.load_result(key)?;
        let value = Ok(outcome);
        self.results.insert(key, value.clone());
        Some(value)
    }

    /// Memory → disk → compute. Returns the value and whether it was
    /// served without computing (either layer). `probe_disk` is `false`
    /// for a key this job's disk probe already missed. Freshly computed
    /// `Ok` results are persisted to the disk layer; errors never are.
    pub(crate) fn result_get_or_compute(
        &self,
        key: u128,
        probe_disk: bool,
        compute: impl FnOnce() -> Result<AnalysisOutcome, String>,
    ) -> (Result<AnalysisOutcome, String>, bool) {
        let mut computed = false;
        let (value, memory_hit) = self.results.get_or_compute(key, || {
            if let Some(disk) = self.disk.as_ref().filter(|_| probe_disk) {
                if let Some(outcome) = disk.load_result(key) {
                    return Ok(outcome);
                }
            }
            computed = true;
            compute()
        });
        if computed {
            if let (Some(disk), Ok(outcome)) = (&self.disk, &value) {
                disk.store_result(key, outcome);
            }
        }
        (value, memory_hit || !computed)
    }

    /// Identity-memo lookup with disk fallback (disk hits are promoted
    /// into memory).
    pub(crate) fn identity_lookup(&self, key: u128) -> Option<Option<u128>> {
        if let Some(value) = self.identity.get(key) {
            return Some(value);
        }
        let value = self.disk.as_ref()?.load_identity(key)?;
        self.identity.insert(key, value);
        Some(value)
    }

    /// Stores one identity entry in memory and (when attached) on disk.
    /// An entry memory already holds is not stored again: a recipe seen
    /// under another core count misses its result and comes back here
    /// with the same content hash.
    pub(crate) fn identity_store(&self, key: u128, content: Option<u128>) {
        if self.identity.peek(key) == Some(content) {
            return;
        }
        self.identity.insert(key, content);
        if let Some(disk) = &self.disk {
            disk.store_identity(key, content);
        }
    }

    /// Transformation-cache counters (lifetime of the engine).
    #[must_use]
    pub fn transform_counters(&self) -> CacheCounters {
        self.transform.counters()
    }

    /// Derived-data-cache counters (lifetime of the engine).
    #[must_use]
    pub fn derived_counters(&self) -> CacheCounters {
        self.derived.counters()
    }

    /// Input-materialization-cache counters (lifetime of the engine).
    #[must_use]
    pub fn input_counters(&self) -> CacheCounters {
        self.inputs.counters()
    }

    /// Result-cache counters (lifetime of the engine).
    #[must_use]
    pub fn result_counters(&self) -> CacheCounters {
        self.results.counters()
    }

    /// Identity-memo counters (lifetime of the engine).
    #[must_use]
    pub fn identity_counters(&self) -> CacheCounters {
        self.identity.counters()
    }

    /// Total memoized entries across the five caches.
    #[must_use]
    pub fn resident_entries(&self) -> usize {
        self.transform.len()
            + self.derived.len()
            + self.results.len()
            + self.identity.len()
            + self.inputs.len()
    }

    /// Drops every memoized entry (a fresh scope for a long-lived engine;
    /// counters keep running).
    pub fn clear(&self) {
        self.transform.clear();
        self.derived.clear();
        self.results.clear();
        self.identity.clear();
        self.inputs.clear();
    }
}

impl Default for EngineCaches {
    /// Caches bounded at [`DEFAULT_CACHE_CAPACITY`] entries each.
    fn default() -> Self {
        EngineCaches::with_capacity(DEFAULT_CACHE_CAPACITY)
    }
}

/// Statistics of one [`Engine::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct EngineStats {
    /// Worker threads used.
    pub threads: usize,
    /// Jobs of the sweep (the spec's full expansion, replayed ones
    /// included).
    pub jobs: usize,
    /// Jobs executed per worker.
    pub per_worker_jobs: Vec<u64>,
    /// Jobs served entirely from the memo caches.
    pub cached_jobs: u64,
    /// Jobs whose sample the generator declined (skipped by aggregation).
    pub skipped_jobs: u64,
    /// Jobs replayed from the session's journal instead of executed
    /// (always zero without [`SessionConfig::journal`]).
    pub replayed_jobs: usize,
    /// Transformation-cache activity during this run.
    pub transform_cache: CacheCounters,
    /// Derived-data-cache activity during this run (critical path,
    /// volume shared per distinct DAG).
    pub derived_cache: CacheCounters,
    /// Result-cache activity during this run.
    pub result_cache: CacheCounters,
    /// Identity-memo activity during this run.
    pub identity_cache: CacheCounters,
    /// Input-materialization-cache activity during this run.
    pub input_cache: CacheCounters,
    /// Disk-layer probe activity during this run (all zero when the
    /// engine has no cache directory).
    pub disk_cache: CacheCounters,
    /// Session events discarded by the bounded drop-oldest event buffer
    /// (a slow consumer; the sweep itself is unaffected).
    pub events_dropped: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
}

impl EngineStats {
    /// Multi-line human-readable rendering (used by the CLI and binaries).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "engine: {} jobs on {} threads in {:.2?}",
            self.jobs, self.threads, self.elapsed
        );
        let _ = writeln!(
            out,
            "  result cache:    {} hits / {} misses ({:.1}% hit rate), {} jobs fully cached",
            self.result_cache.hits,
            self.result_cache.misses,
            self.result_cache.hit_rate() * 100.0,
            self.cached_jobs,
        );
        let _ = writeln!(
            out,
            "  transform cache: {} hits / {} misses ({:.1}% hit rate)",
            self.transform_cache.hits,
            self.transform_cache.misses,
            self.transform_cache.hit_rate() * 100.0,
        );
        let _ = writeln!(
            out,
            "  derived cache:   {} hits / {} misses",
            self.derived_cache.hits, self.derived_cache.misses,
        );
        let _ = writeln!(
            out,
            "  identity memo:   {} hits / {} misses",
            self.identity_cache.hits, self.identity_cache.misses,
        );
        let _ = writeln!(
            out,
            "  input memo:      {} hits / {} misses",
            self.input_cache.hits, self.input_cache.misses,
        );
        if self.disk_cache != CacheCounters::default() {
            let _ = writeln!(
                out,
                "  disk cache:      {} hits / {} misses",
                self.disk_cache.hits, self.disk_cache.misses,
            );
        }
        if self.skipped_jobs > 0 {
            let _ = writeln!(out, "  skipped samples: {}", self.skipped_jobs);
        }
        if self.events_dropped > 0 {
            let _ = writeln!(out, "  events dropped:  {}", self.events_dropped);
        }
        for (worker, jobs) in self.per_worker_jobs.iter().enumerate() {
            let _ = writeln!(out, "  worker {worker}: {jobs} jobs");
        }
        out
    }
}

/// Everything a run produces.
#[derive(Debug, Clone)]
pub struct EngineOutput {
    /// The deterministic per-cell aggregate.
    pub aggregate: SweepAggregate,
    /// Run statistics (nondeterministic: scheduling-dependent).
    pub stats: EngineStats,
}

/// Engine failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The spec is internally inconsistent (including unknown analysis
    /// registry keys).
    InvalidSpec(String),
    /// A job failed; the lowest failing expansion index is reported.
    Job {
        /// Expansion index of the failing job.
        index: usize,
        /// The job's error message.
        message: String,
    },
    /// Internal: a job result never arrived.
    Incomplete {
        /// Expansion index of the missing job.
        index: usize,
    },
    /// The sweep was cancelled through its [`SweepHandle`] before every
    /// job ran.
    Cancelled,
    /// The disk cache directory could not be opened.
    Cache(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::InvalidSpec(msg) => write!(f, "invalid sweep spec: {msg}"),
            EngineError::Job { index, message } => write!(f, "job {index} failed: {message}"),
            EngineError::Incomplete { index } => {
                write!(f, "internal: job {index} produced no result")
            }
            EngineError::Cancelled => write!(f, "sweep cancelled"),
            EngineError::Cache(msg) => write!(f, "disk cache: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Cache-counter snapshot taken when a run starts, so its statistics
/// report per-run deltas on the engine's long-lived caches.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CacheBaseline {
    pub(crate) transform: CacheCounters,
    pub(crate) derived: CacheCounters,
    pub(crate) results: CacheCounters,
    pub(crate) identity: CacheCounters,
    pub(crate) inputs: CacheCounters,
    pub(crate) disk: CacheCounters,
}

impl CacheBaseline {
    fn snapshot(caches: &EngineCaches) -> Self {
        CacheBaseline {
            transform: caches.transform.counters(),
            derived: caches.derived.counters(),
            results: caches.results.counters(),
            identity: caches.identity.counters(),
            inputs: caches.inputs.counters(),
            disk: caches.disk_counters(),
        }
    }
}

/// Builds an [`Engine`] — worker threads, registry, cache capacity, and
/// (the option only the builder offers) a disk-persistent cache
/// directory.
///
/// ```no_run
/// use hetrta_engine::EngineBuilder;
///
/// # fn main() -> Result<(), hetrta_engine::EngineError> {
/// // Results persist under .hetrta-cache: a second process running the
/// // same spec replays every analysis from disk instead of recomputing.
/// let engine = EngineBuilder::new()
///     .threads(8)
///     .with_cache_dir(".hetrta-cache")
///     .build()?;
/// # let _ = engine;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct EngineBuilder {
    threads: usize,
    registry: AnalysisRegistry,
    capacity: usize,
    cache_dir: Option<PathBuf>,
    recorder: Option<Arc<dyn Recorder>>,
    fault: Option<Arc<hetrta_fault::FaultPlan>>,
}

impl EngineBuilder {
    /// A builder with the defaults of [`Engine::new`]: all cores, the
    /// builtin registry, [`DEFAULT_CACHE_CAPACITY`], no disk layer.
    #[must_use]
    pub fn new() -> Self {
        EngineBuilder {
            threads: 0,
            registry: AnalysisRegistry::builtin(),
            capacity: DEFAULT_CACHE_CAPACITY,
            cache_dir: None,
            recorder: None,
            fault: None,
        }
    }

    /// Worker threads (`0` = all available cores).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The registry jobs resolve their analysis keys against.
    #[must_use]
    pub fn registry(mut self, registry: AnalysisRegistry) -> Self {
        self.registry = registry;
        self
    }

    /// Bound of each in-memory cache, in entries.
    #[must_use]
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    /// Attaches a disk-persistent cache directory: analysis results (and
    /// the job-identity memo) are written under `dir` keyed by their
    /// stable content hashes, so a later engine — including one in a
    /// fresh process — replays them instead of recomputing. See
    /// [`crate::disk`] for the layout and invalidation story.
    #[must_use]
    pub fn with_cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Attaches a [`Recorder`] that receives structured spans from every
    /// layer of the engine: per-job spans (with per-analysis child spans)
    /// on worker lanes, session spans on lane 0, disk-cache read/write/gc
    /// spans, and queue-depth samples (jobs not yet claimed).
    ///
    /// The default recorder is a no-op whose `enabled()` gate skips all
    /// clock reads and formatting, so an engine without one pays nothing.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use hetrta_engine::{EngineBuilder, obs::TraceRecorder};
    ///
    /// # fn main() -> Result<(), hetrta_engine::EngineError> {
    /// let recorder = Arc::new(TraceRecorder::new());
    /// let engine = EngineBuilder::new()
    ///     .threads(2)
    ///     .with_recorder(Arc::clone(&recorder) as _)
    ///     .build()?;
    /// // ... run sweeps, then export a Chrome trace for Perfetto:
    /// let trace_json = recorder.to_chrome_json();
    /// # let _ = (engine, trace_json);
    /// # Ok(())
    /// # }
    /// ```
    #[must_use]
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Arms a deterministic [`FaultPlan`](hetrta_fault::FaultPlan) on
    /// this engine (the `--chaos SEED` plane): the disk cache's read and
    /// write paths consult it, and its `fault.*` counters are bound to
    /// the engine's metrics registry at build time. Production engines
    /// leave this unset and pay nothing.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: Arc<hetrta_fault::FaultPlan>) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Builds the engine.
    ///
    /// # Errors
    ///
    /// [`EngineError::Cache`] when the cache directory cannot be created.
    pub fn build(self) -> Result<Engine, EngineError> {
        // The caches count on the engine's registry, so [`EngineStats`] is
        // a view over it.
        let metrics = Arc::new(MetricsRegistry::new());
        let mut caches = EngineCaches::counted(self.capacity, &metrics);
        let recorder: Arc<dyn Recorder> = self
            .recorder
            .unwrap_or_else(|| Arc::new(NoopRecorder) as Arc<dyn Recorder>);
        if let Some(dir) = self.cache_dir {
            let mut disk = DiskCache::open(dir).map_err(EngineError::Cache)?;
            disk.bind_observability(&metrics, Arc::clone(&recorder));
            if let Some(plan) = &self.fault {
                disk.set_fault_plan(Arc::clone(plan));
            }
            caches.disk = Some(disk);
        }
        if let Some(plan) = &self.fault {
            plan.bind_observability(&metrics);
        }
        Ok(Engine {
            exec: Executor {
                threads: pool::resolve_threads(self.threads),
                caches: Arc::new(caches),
                registry: Arc::new(self.registry),
                metrics,
                recorder,
            },
            active_sessions: Arc::new(AtomicUsize::new(0)),
        })
    }
}

impl Default for EngineBuilder {
    fn default() -> Self {
        EngineBuilder::new()
    }
}

/// The registry-driven batch-analysis engine.
///
/// Holds the worker-thread count, the [`AnalysisRegistry`] jobs resolve
/// their keys against, and the content-addressed caches; caches persist
/// across runs, so re-running a spec (or running an overlapping one) on
/// the same engine is served from memory — and, with
/// [`EngineBuilder::with_cache_dir`], across processes from disk.
///
/// Sweeps run either blocking ([`Engine::run`], on the calling thread)
/// or as an observable session ([`Engine::submit`] → [`SweepHandle`]
/// with a typed event stream, live statistics, and cancellation, on a
/// session thread of its own). Both run the same session code, so both
/// paths produce bitwise identical aggregates.
#[derive(Debug)]
pub struct Engine {
    exec: Executor,
    active_sessions: Arc<AtomicUsize>,
}

impl Engine {
    /// Creates an engine with `threads` workers (`0` = all available
    /// cores) over the builtin registry.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Engine::with_registry(threads, AnalysisRegistry::builtin())
    }

    /// Creates an engine over a custom registry.
    #[must_use]
    pub fn with_registry(threads: usize, registry: AnalysisRegistry) -> Self {
        EngineBuilder::new()
            .threads(threads)
            .registry(registry)
            .build()
            .expect("no cache dir, cannot fail")
    }

    /// Creates an engine whose caches are bounded at (approximately)
    /// `capacity` entries each.
    #[must_use]
    pub fn with_cache_capacity(threads: usize, capacity: usize) -> Self {
        EngineBuilder::new()
            .threads(threads)
            .cache_capacity(capacity)
            .build()
            .expect("no cache dir, cannot fail")
    }

    /// Worker threads this engine uses.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.exec.threads
    }

    /// The engine's caches (counters survive across runs).
    #[must_use]
    pub fn caches(&self) -> &EngineCaches {
        &self.exec.caches
    }

    /// The registry jobs resolve their analysis keys against.
    #[must_use]
    pub fn registry(&self) -> &AnalysisRegistry {
        &self.exec.registry
    }

    /// The engine's metrics registry: cache hit/miss counters, pool
    /// busy/idle totals, queue-depth gauge, and per-analysis latency
    /// histograms, accumulated across every run of this engine.
    #[must_use]
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.exec.metrics
    }

    /// The recorder structured spans are routed to (a no-op recorder
    /// unless one was attached via [`EngineBuilder::with_recorder`]).
    #[must_use]
    pub fn recorder(&self) -> &Arc<dyn Recorder> {
        &self.exec.recorder
    }

    /// Sessions currently running on this engine (submitted, not yet
    /// finished or cancelled-and-joined). A daemon draining on shutdown —
    /// or a test pinning that client disconnect really cancels its sweep —
    /// polls this to observe the count return to zero.
    #[must_use]
    pub fn active_sessions(&self) -> usize {
        self.active_sessions.load(Ordering::SeqCst)
    }

    /// Expands `spec`, runs every job on the worker pool, and aggregates.
    ///
    /// The session [`Engine::submit`] would start runs here on the
    /// calling thread instead, with events disabled: the caller becomes
    /// the pool's worker 0 and the aggregator, so a 1-thread engine
    /// spawns no thread at all. The blocking path and the streaming path
    /// are the same machinery, pinned bitwise-identical by tests.
    ///
    /// The aggregate is deterministic: same spec ⇒ identical result for
    /// any thread count and any cache state.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidSpec`] before any work starts (inconsistent
    /// spec or unknown registry keys, the latter listing every valid key),
    /// or [`EngineError::Job`] if a job fails.
    pub fn run(&self, spec: &SweepSpec) -> Result<EngineOutput, EngineError> {
        let (session, driver, jobs) = self.open_session(spec, SessionConfig::quiet())?;
        let result = Arc::clone(&session.result);
        session.run(driver, jobs);
        let outcome = result.lock().expect("session result").take();
        outcome.expect("finished session stores a result")
    }

    /// Submits `spec` as an observable session with default
    /// [`SessionConfig`] (per-job events, no partial snapshots).
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidSpec`] — validation happens here, before the
    /// session thread spawns, so a handle always denotes runnable work.
    pub fn submit(&self, spec: &SweepSpec) -> Result<SweepHandle, EngineError> {
        self.submit_with(spec, SessionConfig::default())
    }

    /// Submits `spec` with explicit observability knobs. With
    /// [`SessionConfig::journal`] set, the journal is opened (and replayed)
    /// here: replayed jobs count toward progress and partials but emit no
    /// job events, and only the remainder runs.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidSpec`] (see [`Engine::submit`]), plus the
    /// journal errors of [`SweepJournal::open`](crate::SweepJournal::open).
    pub fn submit_with(
        &self,
        spec: &SweepSpec,
        config: SessionConfig,
    ) -> Result<SweepHandle, EngineError> {
        let (session, driver, jobs) = self.open_session(spec, config)?;
        let (shared, result) = (Arc::clone(&session.shared), Arc::clone(&session.result));
        let thread = std::thread::Builder::new()
            .name("hetrta-sweep".into())
            .spawn(move || session.run(driver, jobs))
            .expect("spawn sweep session thread");
        Ok(SweepHandle::new(shared, result, thread))
    }

    /// Validates `spec`, opens its driver (replaying the journal, if
    /// any) and sets up the session that runs the remaining jobs.
    fn open_session(
        &self,
        spec: &SweepSpec,
        config: SessionConfig,
    ) -> Result<(SessionTask, SweepDriver, Vec<Job>), EngineError> {
        let _span = span!(self.exec.recorder.as_ref(), "sweep.submit");
        let (driver, jobs) = SweepDriver::open(spec, &self.exec.registry, config.journal.as_ref())?;
        let driver = driver
            .with_partials(config.partial_every, config.keyframe_every)
            .with_recorder(Arc::clone(&self.exec.recorder));
        let shared = Arc::new(SessionShared {
            events: EventQueue::new(config.max_buffered_events),
            cancel: AtomicBool::new(false),
            progress: ProgressCounters {
                done: AtomicU64::new(driver.completed() as u64),
                cached: AtomicU64::new(driver.cache_hits()),
                skipped: AtomicU64::new(driver.skipped()),
            },
            caches: Arc::clone(&self.exec.caches),
            baseline: CacheBaseline::snapshot(&self.exec.caches),
            threads: self.exec.threads.min(jobs.len().max(1)),
            total_jobs: driver.total(),
            replayed_jobs: driver.replayed(),
            started: Instant::now(),
        });
        let session = SessionTask {
            exec: self.exec.clone(),
            shared,
            result: Arc::new(Mutex::new(None)),
            job_events: config.job_events,
            _active: ActiveGuard::enter(Arc::clone(&self.active_sessions)),
        };
        Ok((session, driver, jobs))
    }

    /// Runs `spec` write-ahead journaled into `cfg.dir`: previously
    /// completed jobs (from an interrupted earlier run) are replayed
    /// from the journal, only the remainder executes, and the final
    /// aggregate is bitwise identical to an uninterrupted
    /// [`Engine::run`] — the expansion-order replay inside the
    /// aggregator is indifferent to where results come from.
    ///
    /// # Errors
    ///
    /// Everything [`Engine::run`] can return, plus [`EngineError::Cache`]
    /// for an unusable journal directory / spec-mismatched journal and
    /// [`EngineError::InvalidSpec`] for an unresumed non-empty journal.
    pub fn run_journaled(
        &self,
        spec: &SweepSpec,
        cfg: &JournalConfig,
    ) -> Result<JournalOutcome, EngineError> {
        self.run_journaled_with(spec, cfg, None, |_, _, _| {})
    }

    /// [`Engine::run_journaled`] with cooperative cancellation and a
    /// per-job progress hook `(completed, total, result)`, run on the
    /// calling thread. Cancellation returns [`EngineError::Cancelled`],
    /// but everything journaled so far stays durable: a later resume
    /// continues from it.
    ///
    /// # Errors
    ///
    /// See [`Engine::run_journaled`]; plus [`EngineError::Cancelled`].
    pub fn run_journaled_with(
        &self,
        spec: &SweepSpec,
        cfg: &JournalConfig,
        cancel: Option<&AtomicBool>,
        mut progress: impl FnMut(usize, usize, &JobResult),
    ) -> Result<JournalOutcome, EngineError> {
        let _span = span!(self.exec.recorder.as_ref(), "sweep");
        let (mut driver, jobs) = SweepDriver::open(spec, &self.exec.registry, Some(cfg))?;
        let (total, executed) = (driver.total(), jobs.len());
        self.exec.run(&jobs, cancel, &|_| {}, |result| {
            progress(driver.completed() + 1, total, &result);
            driver.accept(result);
        });
        if driver.completed() < total && cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
            return Err(EngineError::Cancelled);
        }
        driver.seal();
        Ok(JournalOutcome {
            replayed: driver.replayed(),
            executed,
            total,
            journal_write_failures: driver.journal_write_failures().unwrap_or(0),
            aggregate: driver.finish()?,
        })
    }

    /// Runs only the jobs whose expansion index is in `indices`, streaming
    /// each finished [`JobResult`] to `sink` — the deterministic-shard
    /// building block under `hetrta engine sweep --shard i/k` and the
    /// `hetrta-dist` worker loop.
    ///
    /// Results carry the same content-addressed identity, metrics and
    /// timings a full run produces (a [`SweepDriver`] fed subset results
    /// from *every* shard finalizes to the bitwise aggregate of a
    /// single-process run — expansion order, not arrival order, drives
    /// the reduction). `sink` runs on the calling thread; the jobs
    /// themselves run on this engine's worker pool, hit the same
    /// memo/disk caches and feed the same metrics as any other run.
    ///
    /// Returns the number of jobs run.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidSpec`] for an invalid spec, unknown analysis
    /// keys, or an index outside the spec's expansion.
    pub fn run_job_subset(
        &self,
        spec: &SweepSpec,
        indices: &[usize],
        sink: impl FnMut(JobResult),
    ) -> Result<usize, EngineError> {
        let _span = span!(self.exec.recorder.as_ref(), "sweep.subset");
        let (_cells, jobs) = expand_checked(spec, &self.exec.registry)?;
        let job_count = jobs.len();
        let mut wanted = vec![false; job_count];
        for &index in indices {
            if index >= job_count {
                return Err(EngineError::InvalidSpec(format!(
                    "job index {index} is outside this spec's {job_count}-job expansion"
                )));
            }
            wanted[index] = true;
        }
        let jobs: Vec<Job> = jobs.into_iter().filter(|job| wanted[job.index]).collect();
        let ran = jobs.len();
        self.exec.run(&jobs, None, &|_| {}, sink);
        Ok(ran)
    }
}

/// What an [`Engine`] runs jobs with: its threads, caches, registry and
/// instrumentation. A clone shares all of them (each session holds one).
#[derive(Debug, Clone)]
struct Executor {
    threads: usize,
    caches: Arc<EngineCaches>,
    registry: Arc<AnalysisRegistry>,
    metrics: Arc<MetricsRegistry>,
    recorder: Arc<dyn Recorder>,
}

impl Executor {
    /// Runs `jobs` on the worker pool, claimed in slice order, and hands
    /// each result to `consume` on the calling thread; `on_start` runs on
    /// the worker as it picks a job up. Feeds the per-analysis latency
    /// histograms, the queue-depth gauge and (once per call) the `pool.*`
    /// counters, then commits the disk cache's staged writes. Once
    /// `cancel` flips, unclaimed jobs are skipped; in-flight jobs finish
    /// and still reach `consume`.
    fn run(
        &self,
        jobs: &[Job],
        cancel: Option<&AtomicBool>,
        on_start: &(dyn Fn(usize) + Sync),
        mut consume: impl FnMut(JobResult),
    ) -> Vec<pool::WorkerStats> {
        let threads = self.threads.min(jobs.len().max(1));
        let (caches, registry, metrics) = (&self.caches, &self.registry, &self.metrics);
        let recorder: &dyn Recorder = self.recorder.as_ref();
        // Lane 1+k is worker k on the trace timeline.
        if recorder.enabled() {
            for worker in 0..threads {
                recorder.name_lane(worker as u32 + 1, &format!("worker {worker}"));
            }
        }
        let queue_gauge = metrics.gauge("pool.queue_depth");
        let observe_depth = |depth: usize| {
            queue_gauge.set(depth as u64);
            recorder.record_counter("pool.queue_depth", depth as u64);
        };
        // Per-analysis latency histograms are fed here on the
        // single-threaded consume path, through a local handle cache, so
        // workers never touch (or contend on) the registry.
        let mut latency: HashMap<Arc<str>, Histogram> = HashMap::new();
        let worker_stats = pool::run_jobs(
            jobs,
            threads,
            cancel,
            Some(&observe_depth),
            |worker, job: &Job| {
                hetrta_obs::set_thread_lane(worker as u32 + 1);
                on_start(job.index);
                let _span = span!(recorder, "job", index = job.index, cell = job.cell);
                job::execute(caches, registry, job, worker, recorder)
            },
            |_, result| {
                for (key, elapsed) in &result.timings {
                    latency
                        .entry(Arc::clone(key))
                        .or_insert_with(|| metrics.histogram(&format!("analysis.{key}.latency_ns")))
                        .record_duration(*elapsed);
                }
                consume(result);
            },
        );

        // Pool-level totals land on the registry once per call.
        let micros = |d: Duration| u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
        metrics
            .counter("pool.jobs")
            .add(worker_stats.iter().map(|w| w.jobs).sum());
        metrics
            .counter("pool.busy_us")
            .add(worker_stats.iter().map(|w| micros(w.busy)).sum());
        metrics
            .counter("pool.idle_us")
            .add(worker_stats.iter().map(|w| micros(w.idle)).sum());
        // Every front end ends its run here, so its disk writes reach
        // other handles (a daemon's next client, a fleet's other workers)
        // before the run is reported done.
        if let Some(disk) = &caches.disk {
            disk.flush();
        }
        worker_stats
    }
}

/// Everything one session owns besides its driver and jobs: it executes
/// the jobs, emits events, and deposits the result. It runs on the
/// caller of [`Engine::run`] or on the thread [`Engine::submit`] spawns.
struct SessionTask {
    exec: Executor,
    shared: Arc<SessionShared>,
    result: Arc<Mutex<Option<Result<EngineOutput, EngineError>>>>,
    job_events: bool,
    _active: ActiveGuard,
}

/// RAII increment of the engine's active-session count; decremented when
/// the session drops its task (normal finish, cancellation, or panic —
/// the guard lives in the task, so every exit path counts down).
struct ActiveGuard(Arc<AtomicUsize>);

impl ActiveGuard {
    fn enter(count: Arc<AtomicUsize>) -> Self {
        count.fetch_add(1, Ordering::SeqCst);
        ActiveGuard(count)
    }
}

impl Drop for ActiveGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

impl SessionTask {
    fn run(self, driver: SweepDriver, jobs: Vec<Job>) {
        // Close the event stream even if a worker (or the aggregation
        // callback) panics: a consumer blocked in `next_event()` must
        // wake up and fall through to `wait()`, which re-raises the
        // panic — never hang on a Condvar that nobody will notify.
        struct CloseOnDrop(Arc<SessionShared>);
        impl Drop for CloseOnDrop {
            fn drop(&mut self) {
                self.0.events.close();
            }
        }
        let _close = CloseOnDrop(Arc::clone(&self.shared));
        let _lane = pool::RestoreLane(hetrta_obs::thread_lane());
        let outcome = self.execute(driver, jobs);
        *self.result.lock().expect("session result") = Some(outcome);
    }

    fn execute(
        &self,
        mut driver: SweepDriver,
        jobs: Vec<Job>,
    ) -> Result<EngineOutput, EngineError> {
        let shared = &self.shared;
        let job_events = self.job_events;
        let total = driver.total();
        let recorder: &dyn Recorder = self.exec.recorder.as_ref();

        // Lane 0 is the session's thread (the caller's lane comes back
        // when the session ends); the root span covers the run.
        if recorder.enabled() {
            recorder.name_lane(0, "session");
        }
        hetrta_obs::set_thread_lane(0);
        let sweep_span = span!(recorder, "sweep", jobs = total);

        let on_start = |index| {
            if job_events {
                shared.events.push(SweepEvent::JobStarted { index });
            }
        };
        let worker_stats = self
            .exec
            .run(&jobs, Some(&shared.cancel), &on_start, |result| {
                let progress = &shared.progress;
                progress.done.fetch_add(1, Ordering::Relaxed);
                if result.cache_hit {
                    progress.cached.fetch_add(1, Ordering::Relaxed);
                }
                if matches!(result.metrics, Ok(JobMetrics::Skipped)) {
                    progress.skipped.fetch_add(1, Ordering::Relaxed);
                }
                if job_events {
                    shared.events.push(SweepEvent::JobFinished {
                        index: result.index,
                        cell: result.cell,
                        key: result.identity,
                        cache_hit: result.cache_hit,
                        wall_time: result.wall_time,
                    });
                }
                if let Some(update) = driver.accept(result) {
                    shared.events.push(SweepEvent::PartialAggregate {
                        completed: driver.completed(),
                        total,
                        update,
                    });
                }
            });

        // Seal the journal tail whether the sweep finished or was
        // cancelled — either way its records must survive this process.
        driver.seal();
        if let Some(failures) = driver.journal_write_failures() {
            self.exec
                .metrics
                .counter("journal.write_failures")
                .add(failures);
        }

        let completed = driver.completed();
        let cancelled = shared.cancel.load(Ordering::Relaxed) && completed < total;
        shared
            .events
            .push_with_dropped(|events_dropped| SweepEvent::SweepFinished {
                completed,
                cancelled,
                events_dropped,
            });
        if cancelled {
            return Err(EngineError::Cancelled);
        }

        let finalize_span = span!(recorder, "aggregate.finalize");
        let aggregate = driver.finish()?;
        drop(finalize_span);
        drop(sweep_span);
        let stats = EngineStats {
            per_worker_jobs: worker_stats.iter().map(|w| w.jobs).collect(),
            ..shared.stats()
        };
        Ok(EngineOutput { aggregate, stats })
    }
}

impl Default for Engine {
    /// An engine on all available cores.
    fn default() -> Self {
        Engine::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{GeneratorPreset, SweepSpec};

    #[test]
    fn invalid_specs_fail_fast() {
        let engine = Engine::new(1);
        let mut spec = SweepSpec::fractions(GeneratorPreset::Small, vec![2], vec![0.2], 2, 1);
        spec.core_counts.clear();
        assert!(matches!(
            engine.run(&spec),
            Err(EngineError::InvalidSpec(_))
        ));
    }

    #[test]
    fn unknown_analysis_keys_fail_fast_with_valid_keys() {
        let engine = Engine::new(1);
        let spec = SweepSpec::fractions(GeneratorPreset::Small, vec![2], vec![0.2], 2, 1)
            .with_analyses(crate::AnalysisSelection::from_keys(["zig"]));
        let Err(EngineError::InvalidSpec(msg)) = engine.run(&spec) else {
            panic!("unknown key must fail validation")
        };
        assert!(msg.contains("unknown analysis kind `zig`"), "{msg}");
        assert!(msg.contains("het"), "{msg}");
    }

    #[test]
    fn grid_and_analysis_input_kinds_must_agree() {
        // `acceptance` needs a task set; a fraction grid produces tasks —
        // the mismatch is knowable before any work, so run() refuses.
        let engine = Engine::new(1);
        let spec = SweepSpec::fractions(GeneratorPreset::Small, vec![2], vec![0.2], 2, 1)
            .with_analyses(crate::AnalysisSelection::from_keys(["exact", "acceptance"]));
        let Err(EngineError::InvalidSpec(msg)) = engine.run(&spec) else {
            panic!("input-kind mismatch must fail validation")
        };
        assert!(msg.contains("`acceptance` expects a task set"), "{msg}");
        assert!(msg.contains("produces a task"), "{msg}");
    }

    #[test]
    fn stats_cover_all_workers_and_jobs() {
        let engine = Engine::new(2);
        let spec = SweepSpec::fractions(GeneratorPreset::Small, vec![2], vec![0.2, 0.3], 4, 5);
        let out = engine.run(&spec).unwrap();
        assert_eq!(out.stats.jobs, 8);
        assert_eq!(out.stats.per_worker_jobs.iter().sum::<u64>(), 8);
        assert_eq!(out.stats.per_worker_jobs.len(), out.stats.threads);
        assert_eq!(out.aggregate.cells.len(), 2);
        let rendered = out.stats.render();
        assert!(rendered.contains("result cache"));
        assert!(rendered.contains("identity memo"));
        assert!(rendered.contains("worker 0"));
    }

    #[test]
    fn bounded_caches_stay_under_their_cap() {
        let engine = Engine::with_cache_capacity(2, 64);
        // 2 × 4 × 20 = 160 distinct jobs — far beyond the 64-entry cap.
        let spec = SweepSpec::fractions(
            GeneratorPreset::Small,
            vec![2, 4],
            vec![0.1, 0.2, 0.3, 0.4],
            20,
            13,
        );
        let out = engine.run(&spec).unwrap();
        assert_eq!(out.stats.jobs, 160);
        assert!(
            engine.caches().results.len() <= 64,
            "result cache grew to {}",
            engine.caches().results.len()
        );
        assert!(engine.caches().identity.len() <= 64);
        // Bounded caches still produce the exact unbounded aggregate.
        let unbounded = Engine::new(2).run(&spec).unwrap();
        assert_eq!(out.aggregate, unbounded.aggregate);
        // And clear() empties everything.
        engine.caches().clear();
        assert_eq!(engine.caches().resident_entries(), 0);
    }

    #[test]
    fn error_display_variants() {
        let e = EngineError::InvalidSpec("x".into());
        assert!(e.to_string().contains("invalid sweep spec"));
        let e = EngineError::Job {
            index: 3,
            message: "boom".into(),
        };
        assert!(e.to_string().contains("job 3"));
        let e = EngineError::Incomplete { index: 1 };
        assert!(e.to_string().contains("no result"));
        assert!(EngineError::Cancelled.to_string().contains("cancelled"));
        let e = EngineError::Cache("denied".into());
        assert!(e.to_string().contains("disk cache: denied"));
    }

    #[test]
    fn every_executed_analysis_feeds_its_latency_histogram() {
        let spec = SweepSpec::fractions(
            GeneratorPreset::Custom(hetrta_gen::NfjParams::small_tasks().with_node_range(4, 12)),
            vec![2],
            vec![0.2],
            4,
            5,
        )
        .with_analyses(crate::AnalysisSelection::all());
        let engine = Engine::new(2);
        let first = engine.run(&spec).unwrap();
        let samples = |engine: &Engine| {
            let snap = engine.metrics().snapshot();
            ["het", "hom", "sim", "exact"].map(|key| {
                snap.histogram(&format!("analysis.{key}.latency_ns"))
                    .map_or(0, |h| h.count)
            })
        };
        let measured = samples(&engine);
        for (key, count) in ["het", "hom", "sim", "exact"].iter().zip(measured) {
            assert!(count > 0, "`{key}` was executed but never measured");
        }
        let second = engine.run(&spec).unwrap();
        assert_eq!(first.aggregate, second.aggregate);
        // A fully cached second run computes, and so times, nothing.
        assert_eq!(second.stats.cached_jobs as usize, second.stats.jobs);
        assert_eq!(samples(&engine), measured);
    }
}
