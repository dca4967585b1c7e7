//! The four workloads and the untraced loops that time them.
//!
//! Every loop is closed: a client submits its next sweep only after the
//! previous one completed. Each sweep gets its own generator seed derived
//! from the run seed, so a run seed fixes every input.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use hetrta_dist::{run_distributed, DistConfig, DistProgress, WorkerLauncher};
use hetrta_engine::obs::Recorder;
use hetrta_engine::{
    AnalysisOutcome, AnalysisSelection, Engine, EngineBuilder, GeneratorPreset, JobMetrics,
    SweepAggregate, SweepSpec,
};
use hetrta_gen::NfjParams;
use hetrta_serve::{ClientError, Progress, ServeClient};

use crate::procs::{self, Daemon};
use crate::stats::{derive_seed, ms_since};

/// Set-ups per run; `setup_s` reports their median.
const SETUP_REPS: usize = 21;
/// `Busy` replies a serve client absorbs per sweep before it fails.
const BUSY_RETRY_CAP: u32 = 50;
/// No timed phase outlives this, whatever its minimum sweep count.
const PHASE_CAP: Duration = Duration::from_secs(120);

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figure 8 quick shape, fresh memory engine per sweep, `Engine::run`.
    Fig8Cold,
    /// Two 100k-node `sampled,anytime` jobs per sweep.
    N100kSampled,
    /// A `hetrta serve` daemon driven by two closed-loop connections.
    ServeMixed,
    /// `run_distributed` over two spawned single-thread workers.
    FleetPaper,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::Fig8Cold,
        Workload::N100kSampled,
        Workload::ServeMixed,
        Workload::FleetPaper,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig8Cold => "fig8-cold",
            Workload::N100kSampled => "n100k-sampled",
            Workload::ServeMixed => "serve-mixed",
            Workload::FleetPaper => "fleet-paper",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The sweep this workload submits, with generator seed `seed`.
    pub fn spec(self, seed: u64) -> SweepSpec {
        match self {
            Workload::Fig8Cold => SweepSpec::fractions(
                GeneratorPreset::Custom(NfjParams::large_tasks().with_node_range(60, 120)),
                vec![2, 8],
                vec![0.0012, 0.02, 0.10, 0.25, 0.50],
                20,
                seed,
            ),
            Workload::N100kSampled => {
                let mut spec = SweepSpec::fractions(
                    GeneratorPreset::LargeGraphs(100_000),
                    vec![8],
                    vec![0.2],
                    2,
                    seed,
                )
                .with_analyses(AnalysisSelection::from_keys(["sampled", "anytime"]));
                spec.sample_budget = 8;
                spec
            }
            Workload::ServeMixed => {
                SweepSpec::fractions(GeneratorPreset::Small, vec![2, 8], vec![0.1, 0.3], 10, seed)
            }
            Workload::FleetPaper => SweepSpec::fractions(
                GeneratorPreset::LargePaper,
                vec![2, 8],
                vec![0.02, 0.1, 0.25, 0.5],
                50,
                seed,
            ),
        }
    }

    /// The fixed percentile `sweep_tail_ms` reports, and the fewest timed
    /// sweeps a run makes so that at least ten lie beyond it.
    ///
    /// `fleet-paper` reports p60, the highest percentile inside its warm
    /// mode: fleet sweep times snap to the workers' 200 ms heartbeat tick,
    /// and the cold third of its sweeps ends one or two ticks later in
    /// shares that vary by run, so a percentile among them moved by a
    /// whole tick (405 against 606 ms) between runs of the same code.
    pub fn tail(self) -> (f64, usize) {
        match self {
            Workload::Fig8Cold => (0.90, 100),
            Workload::ServeMixed => (0.95, 200),
            Workload::N100kSampled => (0.80, 60),
            Workload::FleetPaper => (0.60, 30),
        }
    }
}

/// One timed sweep.
#[derive(Debug, Clone, Copy)]
pub struct Sweep {
    /// Submit to final aggregate, milliseconds.
    pub ms: f64,
    /// Fresh seed (`true`) or replay of a completed spec.
    pub cold: bool,
    /// Jobs the sweep completed.
    pub jobs: usize,
}

/// Everything one workload run measured.
#[derive(Debug, Default)]
pub struct Run {
    /// Set-up times, seconds.
    pub setup_s: Vec<f64>,
    /// The timed phase's sweeps.
    pub sweeps: Vec<Sweep>,
    /// Local workloads: one warm replay per timed sweep, on its engine
    /// and outside the timed phase, milliseconds.
    pub local_warm_ms: Vec<f64>,
    /// Wall time of the timed phase, output checks excluded, seconds.
    pub phase_s: f64,
    /// Peak resident set of the program's processes, MB.
    pub peak_rss_mb: f64,
    /// Sweeps attempted (timed, replayed and check sweeps).
    pub attempted: u64,
    /// Sweeps that errored or failed an output check.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// Serve: submit to `Accepted`, milliseconds.
    pub accept_ms: Vec<f64>,
    /// Serve: submit to the first streamed reply, milliseconds.
    pub first_event_ms: Vec<f64>,
    /// Serve: `Busy` replies absorbed.
    pub busy_retries: u64,
    /// Fleet: `run_distributed` call to the first `DistProgress::Job`, ms.
    pub first_job_ms: Vec<f64>,
    /// Fleet: last `DistProgress::Job` to the call's return, ms.
    pub drain_ms: Vec<f64>,
    /// Fleet: jobs re-dispatched after worker deaths.
    pub redispatched: u64,
    /// Fleet: jobs per worker slot, summed over sweeps.
    pub worker_jobs: Vec<u64>,
    /// Fleet: frame bytes exchanged, and jobs they carried.
    pub fleet_bytes: u64,
    /// Fleet: jobs completed across sweeps.
    pub fleet_jobs: u64,
}

impl Run {
    /// Counts one failed sweep.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(message);
        }
    }

    /// Checks `got` against `want` bitwise (the exact `Debug` rendering
    /// prints every float with round-trip precision).
    pub fn check_same(&mut self, what: &str, got: &SweepAggregate, want: &SweepAggregate) {
        if format!("{got:?}") != format!("{want:?}") {
            self.fail(format!("{what}: aggregate differs"));
        }
    }

    /// Adds another run's attempted sweeps and failures to this one's.
    pub fn absorb_failures(&mut self, other: &Run) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 8usize.saturating_sub(self.errors.len());
        self.errors.extend(other.errors.iter().take(room).cloned());
    }

    /// Folds another run's sweeps, samples and failures into this one.
    fn absorb(&mut self, other: Run) {
        self.absorb_failures(&other);
        self.sweeps.extend(other.sweeps);
        self.accept_ms.extend(other.accept_ms);
        self.first_event_ms.extend(other.first_event_ms);
        self.busy_retries += other.busy_retries;
    }
}

/// How long a timed phase runs: at least `budget` and `min_sweeps`.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// Minimum wall time.
    pub budget: Duration,
    /// Minimum sweep count.
    pub min_sweeps: usize,
}

impl Phase {
    fn more(&self, started: Instant, sweeps: usize) -> bool {
        let elapsed = started.elapsed();
        (elapsed < self.budget || sweeps < self.min_sweeps) && elapsed < PHASE_CAP
    }
}

/// A memory-only engine with `threads` workers.
pub fn engine(threads: usize) -> Engine {
    EngineBuilder::new()
        .threads(threads)
        .build()
        .expect("memory engine builds")
}

/// Checks every job of an `n100k-sampled` sweep against the paper's
/// bracket: `anytime.lower ≤ anytime.upper` and `anytime.lower ≤
/// sampled.min`. Runs on the engine that just ran the sweep, so results
/// come from its result cache.
fn check_sampled_bounds(engine: &Engine, spec: &SweepSpec, run: &mut Run) {
    let indices: Vec<usize> = (0..spec.job_count()).collect();
    let mut problems = Vec::new();
    let ran = engine.run_job_subset(spec, &indices, |result| match &result.metrics {
        Ok(JobMetrics::Outcomes(outcomes)) => {
            let sampled = outcomes.iter().find_map(|o| match o {
                AnalysisOutcome::Sampled(s) => Some(s.min),
                _ => None,
            });
            let anytime = outcomes.iter().find_map(|o| match o {
                AnalysisOutcome::Anytime(a) => Some((a.lower, a.upper)),
                _ => None,
            });
            match (sampled, anytime) {
                (Some(min), Some((lower, upper))) if lower <= upper && lower <= min => {}
                other => problems.push(format!("job {}: bracket {other:?}", result.index)),
            }
        }
        other => problems.push(format!("job {}: {other:?}", result.index)),
    });
    if let Err(e) = ran {
        problems.push(e.to_string());
    }
    for p in problems {
        run.fail(p);
    }
}

/// `fig8-cold` / `n100k-sampled`: one fresh 2-thread memory engine and a
/// fresh seed per sweep through `Engine::run`. Each sweep is replayed
/// once on its engine (warm, result cache hot; outside the timed phase),
/// and the first one is re-run on 1 thread, which must match bitwise.
pub fn run_local(w: Workload, seed: u64, phase: Phase) -> Run {
    let mut run = Run::default();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let e = engine(2);
        run.setup_s.push(t.elapsed().as_secs_f64());
        drop(e);
    }
    let started = Instant::now();
    let mut checking = Duration::ZERO;
    let mut first: Option<(SweepSpec, SweepAggregate)> = None;
    let mut i = 0;
    while phase.more(started, run.sweeps.len()) {
        let spec = w.spec(derive_seed(seed, 0, i));
        i += 1;
        let engine = engine(2);
        let t = Instant::now();
        let out = engine.run(&spec);
        let ms = ms_since(t);
        run.attempted += 1;
        let c = Instant::now();
        match out {
            Err(e) => run.fail(format!("sweep {i}: {e}")),
            Ok(out) => {
                run.sweeps.push(Sweep {
                    ms,
                    cold: true,
                    jobs: out.stats.jobs,
                });
                if out.stats.jobs != spec.job_count() {
                    run.fail(format!("sweep {i}: {} jobs", out.stats.jobs));
                }
                if w == Workload::N100kSampled {
                    check_sampled_bounds(&engine, &spec, &mut run);
                }
                let t = Instant::now();
                let replay = engine.run(&spec);
                run.local_warm_ms.push(ms_since(t));
                run.attempted += 1;
                match replay {
                    Ok(replay) => run.check_same("warm replay", &replay.aggregate, &out.aggregate),
                    Err(e) => run.fail(format!("warm replay {i}: {e}")),
                }
                if first.is_none() {
                    first = Some((spec, out.aggregate));
                }
            }
        }
        checking += c.elapsed();
    }
    run.phase_s = (started.elapsed() - checking).as_secs_f64();

    if let Some((spec, two_threads)) = first {
        run.attempted += 1;
        match self::engine(1).run(&spec) {
            Ok(out) => run.check_same("1-thread vs 2-thread", &out.aggregate, &two_threads),
            Err(e) => run.fail(format!("1-thread check: {e}")),
        }
    }
    run.peak_rss_mb = procs::own_peak_rss_mb();
    run
}

/// Position of sweep `k` in the cold-warm-warm cycle of the mixed
/// workloads: one fresh seed, then two replays of it. Twice as many warm
/// as cold sweeps keeps the median of all sweeps inside one mode.
fn is_cold(k: u64) -> bool {
    k.is_multiple_of(3)
}

/// Sweeps one serve connection completes before it reads the daemon's
/// peak resident set. The daemon's caches grow with every fresh sweep,
/// so a fixed amount of work, not the run's length, sets the reading.
const SERVE_RSS_AFTER: usize = 300;

/// One closed-loop daemon connection: a fresh-seed sweep, then two
/// resubmits of that spec, and again. With `rss_pid`, reads that
/// process's peak resident set after `SERVE_RSS_AFTER` sweeps (or at the
/// end, if the phase stops earlier).
fn serve_client(
    client: &mut ServeClient,
    w: Workload,
    seed: u64,
    id: u64,
    phase: Phase,
    started: Instant,
    rss_pid: Option<u32>,
) -> (Run, Option<(SweepSpec, SweepAggregate)>) {
    let mut run = Run {
        peak_rss_mb: f64::NAN,
        ..Run::default()
    };
    let read_rss = |run: &mut Run| {
        if let Some(pid) = rss_pid {
            run.peak_rss_mb = procs::peak_rss_mb(pid).unwrap_or(f64::NAN);
        }
    };
    let tenant = format!("bench-{id}");
    let mut first_cold = None;
    let mut last: Option<(SweepSpec, SweepAggregate)> = None;
    let mut k = 0u64;
    while phase.more(started, run.sweeps.len()) {
        let (spec, cold) = match &last {
            Some((spec, _)) if !is_cold(k) => (spec.clone(), false),
            _ => (w.spec(derive_seed(seed, 1 + id, k)), true),
        };
        k += 1;
        run.attempted += 1;
        let t = Instant::now();
        let mut busy = 0;
        let submitted = loop {
            match client.submit(&tenant, &spec) {
                Err(ClientError::Busy { retry_after_ms }) if busy < BUSY_RETRY_CAP => {
                    busy += 1;
                    std::thread::sleep(Duration::from_millis(retry_after_ms.max(1)));
                }
                other => break other,
            }
        };
        run.busy_retries += u64::from(busy);
        if let Err(e) = submitted {
            run.fail(format!("submit: {e}"));
            break;
        }
        run.accept_ms.push(ms_since(t));
        let mut first_event = None;
        let outcome = loop {
            match client.next_progress() {
                Ok(Progress::Event(_)) => {
                    first_event.get_or_insert_with(|| ms_since(t));
                }
                Ok(Progress::Done(outcome)) => break Ok(outcome),
                Err(e) => break Err(e),
            }
        };
        let ms = ms_since(t);
        let outcome = match outcome {
            Ok(outcome) => outcome,
            Err(e) => {
                run.fail(format!("stream: {e}"));
                break;
            }
        };
        run.first_event_ms.push(first_event.unwrap_or(ms));
        run.sweeps.push(Sweep {
            ms,
            cold,
            jobs: outcome.completed,
        });
        if run.sweeps.len() == SERVE_RSS_AFTER {
            read_rss(&mut run);
        }
        if outcome.cancelled || outcome.completed != spec.job_count() {
            run.fail(format!(
                "sweep: {} of {} jobs",
                outcome.completed,
                spec.job_count()
            ));
        }
        if cold {
            if first_cold.is_none() {
                first_cold = Some((spec.clone(), outcome.aggregate.clone()));
            }
            last = Some((spec, outcome.aggregate));
        } else if let Some((_, want)) = &last {
            run.check_same("resubmit", &outcome.aggregate, want);
        }
    }
    if run.peak_rss_mb.is_nan() {
        read_rss(&mut run);
    }
    (run, first_cold)
}

/// `serve-mixed`: a `hetrta serve` daemon (2 engine threads, a fresh
/// cache directory) driven by two closed-loop connections. One fresh
/// sweep per run is re-run locally and must match bitwise.
pub fn run_serve(w: Workload, seed: u64, phase: Phase, hetrta: &Path, dir: &Path) -> Run {
    let mut run = Run::default();
    let mut ready = None;
    for r in 0..SETUP_REPS {
        let t = Instant::now();
        let up = Daemon::spawn(hetrta, &dir.join(format!("serve-{r}")), 2).and_then(|d| {
            let clients = (0..2)
                .map(|_| ServeClient::connect(&d.addr).map_err(|e| e.to_string()))
                .collect::<Result<Vec<_>, _>>()?;
            Ok((d, clients))
        });
        run.setup_s.push(t.elapsed().as_secs_f64());
        match up {
            Err(e) => {
                run.fail(format!("daemon set-up: {e}"));
                return run;
            }
            Ok((daemon, clients)) if r + 1 < SETUP_REPS => {
                drop(clients);
                if let Err(e) = daemon.stop() {
                    run.fail(e);
                }
            }
            Ok(up) => ready = Some(up),
        }
    }
    let (daemon, mut clients) = ready.expect("last set-up kept");

    let pid = daemon.pid();
    let started = Instant::now();
    let per_client = Phase {
        min_sweeps: phase.min_sweeps.div_ceil(2),
        ..phase
    };
    let results: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(0u64..)
            .map(|(client, id)| {
                let rss_pid = (id == 0).then_some(pid);
                s.spawn(move || serve_client(client, w, seed, id, per_client, started, rss_pid))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    run.phase_s = started.elapsed().as_secs_f64();
    let mut sample = None;
    for (client_run, first_cold) in results {
        if !client_run.peak_rss_mb.is_nan() {
            run.peak_rss_mb = client_run.peak_rss_mb;
        }
        run.absorb(client_run);
        sample = sample.or(first_cold);
    }
    drop(clients);
    if let Err(e) = daemon.stop() {
        run.fail(e);
    }
    check_against_local(&mut run, sample, "serve vs local");
    run
}

fn check_against_local(run: &mut Run, sample: Option<(SweepSpec, SweepAggregate)>, what: &str) {
    let Some((spec, remote)) = sample else {
        run.fail(format!("{what}: no sweep to check"));
        return;
    };
    run.attempted += 1;
    match engine(2).run(&spec) {
        Ok(out) => run.check_same(what, &remote, &out.aggregate),
        Err(e) => run.fail(format!("{what}: {e}")),
    }
}

/// `fleet-paper`: `run_distributed` over 2 spawned `hetrta dist worker`
/// processes × 1 thread sharing a fresh cache directory; a fresh seed
/// (cold) is followed by two replays of it (warm), and again. One
/// fresh sweep per run is re-run locally and must match bitwise.
pub fn run_fleet(
    w: Workload,
    seed: u64,
    phase: Phase,
    hetrta: &Path,
    dir: &Path,
    recorder: &dyn Recorder,
) -> Run {
    let mut run = Run::default();
    let mut config = None;
    for r in 0..SETUP_REPS {
        let t = Instant::now();
        let cache: PathBuf = dir.join(format!("fleet-{r}"));
        let made = std::fs::create_dir_all(&cache);
        let mut c = DistConfig::local(
            2,
            WorkerLauncher {
                program: hetrta.to_path_buf(),
                args: vec!["dist".into(), "worker".into()],
            },
        );
        c.worker_threads = 1;
        c.cache_dir = Some(cache);
        run.setup_s.push(t.elapsed().as_secs_f64());
        if let Err(e) = made {
            run.fail(format!("cache dir: {e}"));
            return run;
        }
        config = Some(c);
    }
    let config = config.expect("set-up ran");
    run.worker_jobs = vec![0; config.workers];
    // One untimed sweep first: the first writes into a fresh cache
    // directory create its shard directories, which pushed the first cold
    // sweeps of a run one or two 200 ms worker heartbeat ticks later.
    run.attempted += 1;
    let warm_up = w.spec(derive_seed(seed, 5, u64::MAX));
    if let Err(e) = run_distributed(&warm_up, &config, recorder, None, |_| {}) {
        run.fail(format!("fleet warm-up: {e}"));
        return run;
    }

    let started = Instant::now();
    let mut sample = None;
    let mut previous: Option<(u64, SweepAggregate)> = None;
    let mut k = 0u64;
    while phase.more(started, run.sweeps.len()) {
        let (sweep_seed, cold) = match &previous {
            Some((s, _)) if !is_cold(k) => (*s, false),
            _ => (derive_seed(seed, 5, k), true),
        };
        k += 1;
        let spec = w.spec(sweep_seed);
        run.attempted += 1;
        let t = Instant::now();
        let (mut first, mut last) = (None, None);
        let result = run_distributed(&spec, &config, recorder, None, |p| {
            if let DistProgress::Job { .. } = p {
                let at = t.elapsed();
                first.get_or_insert(at);
                last = Some(at);
            }
        });
        let total = t.elapsed();
        let outcome = match result {
            Ok(outcome) => outcome,
            Err(e) => {
                run.fail(format!("fleet sweep: {e}"));
                break;
            }
        };
        run.sweeps.push(Sweep {
            ms: total.as_secs_f64() * 1e3,
            cold,
            jobs: outcome.completed,
        });
        if let (Some(first), Some(last)) = (first, last) {
            run.first_job_ms.push(first.as_secs_f64() * 1e3);
            run.drain_ms.push((total - last).as_secs_f64() * 1e3);
        }
        run.redispatched += outcome.redispatched_jobs;
        for (slot, jobs) in run.worker_jobs.iter_mut().zip(&outcome.worker_jobs) {
            *slot += jobs;
        }
        run.fleet_bytes += outcome.bytes_tx + outcome.bytes_rx;
        run.fleet_jobs += outcome.completed as u64;
        if outcome.cancelled || outcome.completed != spec.job_count() {
            run.fail(format!(
                "fleet sweep: {} of {} jobs",
                outcome.completed,
                spec.job_count()
            ));
        }
        match &previous {
            Some((s, want)) if !cold && *s == sweep_seed => {
                run.check_same("fleet replay", &outcome.aggregate, want);
            }
            _ => {
                if sample.is_none() {
                    sample = Some((spec.clone(), outcome.aggregate.clone()));
                }
                previous = Some((sweep_seed, outcome.aggregate));
            }
        }
    }
    run.phase_s = started.elapsed().as_secs_f64();
    check_against_local(&mut run, sample, "fleet vs local");
    // The coordinator is this process; workers were reaped by it.
    run.peak_rss_mb = procs::own_peak_rss_mb() + procs::reaped_children_peak_rss_mb();
    run
}
