//! The traced run: per-layer metrics, each measured from outside by
//! timing calls into one crate's public functions, or by folding the
//! spans `TraceRecorder` already emits when attached through
//! `EngineBuilder::with_recorder` and `run_distributed`'s recorder.
//!
//! Every probe runs the workload's own sweep shape, so the same metric
//! names appear for every workload; the ledger printed with them says
//! which layers that workload actually stresses.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hetrta_api::wire::encode_frame;
use hetrta_api::{AnalysisInput, AnalysisRegistry, AnalysisRequest, DirectContext};
use hetrta_core::{r_het, r_hom, transform};
use hetrta_dist::{DistMsg, WireJobResult};
use hetrta_engine::wire::{decode_spec, decode_update, encode_spec, encode_update};
use hetrta_engine::{
    AggregateUpdate, EngineBuilder, EngineOutput, JournalConfig, SweepEvent, SweepSpec,
    TraceRecorder,
};
use hetrta_exact::bounds::root_bound;
use hetrta_exact::list_schedule_cp_first;
use hetrta_gen::offload::{make_hetero_task, CoffSizing, OffloadSelection};
use hetrta_gen::series::BatchSpec;
use hetrta_gen::{generate_nfj, GenError, HeteroDagTask, NfjParams};
use hetrta_sim::policy::BreadthFirst;
use hetrta_sim::{simulate, Platform};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::Metric;
use crate::stats::{derive_seed, median, ms_since, percentile};
use crate::trace::{fold, read_chrome, Folded};
use crate::workloads::{engine, run_fleet, run_serve, Phase, Run, Workload};

/// Generator recipes timed per run (the first ones of the sweep).
const MAX_RECIPES: usize = 100;
/// Time budget of one micro-timed operation.
const OP_BUDGET: Duration = Duration::from_millis(300);

/// What a traced run produced.
#[derive(Debug, Default)]
pub struct Layers {
    /// The per-layer metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Human-readable ledger lines (self time per span and lane, the
    /// analysis cross-check, the host).
    pub ledger: Vec<String>,
    /// Probe sweeps and output checks, as in an untraced run.
    pub checks: Run,
}

impl Layers {
    fn put(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }
}

/// Calls `op` on the inputs in turn, cycling, until the budget is spent
/// (at least one call); returns per-call microseconds.
fn time_each<T, R>(inputs: &[T], budget: Duration, mut op: impl FnMut(&T) -> R) -> Vec<f64> {
    let started = Instant::now();
    let mut samples = Vec::new();
    for input in inputs.iter().cycle() {
        let t = Instant::now();
        std::hint::black_box(op(input));
        samples.push(t.elapsed().as_secs_f64() * 1e6);
        if started.elapsed() >= budget {
            break;
        }
    }
    samples
}

/// The per-task seed `BatchSpec` derives for `(index, fraction)`: FNV-1a
/// over the little-endian index and fraction bits, keyed by the base seed.
/// Checked against `BatchSpec::task` on every recipe.
fn batch_task_seed(base_seed: u64, index: usize, fraction: f64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ base_seed;
    for byte in (index as u64)
        .to_le_bytes()
        .into_iter()
        .chain(fraction.to_bits().to_le_bytes())
    {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Replays one batch task with `max_attempts(1)` on its RNG stream:
/// returns the task and how many generator attempts it took.
fn replay_task(
    params: &NfjParams,
    seed: u64,
    fraction: f64,
) -> Result<(HeteroDagTask, u64), String> {
    let once = params.clone().with_max_attempts(1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut attempts = 0u64;
    let dag = loop {
        attempts += 1;
        match generate_nfj(&once, &mut rng) {
            Ok(dag) => break dag,
            Err(GenError::AttemptsExhausted { .. }) if attempts < params.max_attempts() as u64 => {}
            Err(e) => return Err(format!("replay: {e}")),
        }
    };
    let task = make_hetero_task(
        dag,
        OffloadSelection::AnyInterior,
        CoffSizing::VolumeFraction(fraction),
        &mut rng,
    )
    .map_err(|e| format!("offload: {e}"))?;
    Ok((task, attempts))
}

fn task_signature(task: &HeteroDagTask) -> String {
    format!(
        "{} {} {:?} {:?} {:?}",
        task.dag().node_count(),
        task.dag().edge_count(),
        task.offloaded(),
        task.c_off(),
        task.volume()
    )
}

/// gen, core and api: the workload's own generator recipes, replayed and
/// timed through each crate's public functions.
fn recipe_layers(spec: &SweepSpec, out: &mut Layers) {
    let params = spec.preset.params();
    let base = spec.seeds[0];
    let batch = BatchSpec::new(params.clone(), spec.jobs_per_point, base);
    let recipes: Vec<(usize, f64)> = spec
        .grid
        .values()
        .iter()
        .flat_map(|&f| (0..spec.jobs_per_point).map(move |i| (i, f)))
        .take(MAX_RECIPES)
        .collect();

    let (mut attempts, mut tasks) = (0u64, Vec::new());
    for &(i, f) in &recipes {
        match replay_task(&params, batch_task_seed(base, i, f), f) {
            Ok((task, n)) => {
                attempts += n;
                tasks.push(task);
            }
            Err(e) => out.checks.fail(format!("recipe ({i}, {f}): {e}")),
        }
    }
    let mut gen_us = Vec::new();
    for (&(i, f), replayed) in recipes.iter().zip(&tasks) {
        let t = Instant::now();
        match batch.task(i, f) {
            Ok(task) => {
                gen_us.push(t.elapsed().as_secs_f64() * 1e6);
                if task_signature(&task) != task_signature(replayed) {
                    out.checks.fail(format!(
                        "recipe ({i}, {f}): replay differs from BatchSpec::task"
                    ));
                }
            }
            Err(e) => out.checks.fail(format!("BatchSpec::task({i}, {f}): {e}")),
        }
    }
    out.put("gen.task_us", median(&gen_us), "us", gen_us.len());
    out.put(
        "gen.attempts_per_accept",
        attempts as f64 / tasks.len().max(1) as f64,
        "count",
        tasks.len(),
    );

    let m = spec.core_counts[0];
    let timed: Vec<HeteroDagTask> = tasks.iter().take(40).cloned().collect();
    let transformed: Vec<_> = timed.iter().filter_map(|t| transform(t).ok()).collect();
    if transformed.len() != timed.len() {
        out.checks
            .fail("transform failed on a generated task".into());
    }
    let us = time_each(&timed, OP_BUDGET, |t| transform(t).is_ok());
    out.put("core.transform_us", median(&us), "us", us.len());
    let us = time_each(&transformed, OP_BUDGET, |t| r_het(t, m).map(|b| b.value()));
    out.put("core.r_het_us", median(&us), "us", us.len());
    let homs: Vec<_> = timed.iter().map(HeteroDagTask::as_homogeneous).collect();
    let us = time_each(&homs, OP_BUDGET, |t| r_hom(t, m));
    out.put("core.r_hom_us", median(&us), "us", us.len());

    let registry = AnalysisRegistry::builtin();
    let requests: Vec<AnalysisRequest> = timed
        .iter()
        .map(|t| AnalysisRequest {
            input: AnalysisInput::Task(t.clone()),
            params: spec.analysis_params(m),
        })
        .collect();
    for key in ["het", "sampled", "anytime"] {
        let mut errors = 0;
        let us = time_each(&requests, OP_BUDGET, |r| {
            errors += usize::from(registry.run(key, r, &DirectContext).is_err());
        });
        if errors > 0 {
            out.checks
                .fail(format!("Analysis::run({key}) failed {errors} times"));
        }
        out.put(
            &format!("api.analysis_us.{key}"),
            median(&us),
            "us",
            us.len(),
        );
    }
}

/// gen, sim and exact at graph scale: one seeded 100k-node task.
fn large_graph_layers(seed: u64, out: &mut Layers) {
    let params = NfjParams::large_graphs(100_000);
    let mut build_ms = Vec::new();
    let mut task = None;
    for r in 0..3 {
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, 7, r));
        let t = Instant::now();
        let dag = generate_nfj(&params, &mut rng);
        build_ms.push(ms_since(t));
        match dag.map(|dag| {
            make_hetero_task(
                dag,
                OffloadSelection::AnyInterior,
                CoffSizing::VolumeFraction(0.2),
                &mut rng,
            )
        }) {
            Ok(Ok(t)) => task = Some(t),
            other => out.checks.fail(format!("100k task: {other:?}")),
        }
    }
    out.put(
        "gen.large_graph_ms",
        median(&build_ms),
        "ms",
        build_ms.len(),
    );
    let Some(task) = task else {
        for name in [
            "sim.makespan_ms_100k",
            "exact.list_schedule_ms_100k",
            "exact.root_bound_ms_100k",
        ] {
            out.put(name, f64::NAN, "ms", 0);
        }
        return;
    };
    let (dag, off) = (task.dag(), Some(task.offloaded()));
    let one = [()];
    let sim = time_each(&one, OP_BUDGET, |()| {
        simulate(
            dag,
            off,
            Platform::with_accelerator(8),
            &mut BreadthFirst::new(),
        )
        .map(|r| r.makespan())
    });
    let list = time_each(&one, OP_BUDGET, |()| {
        list_schedule_cp_first(dag, off, 8).map(|r| r.0)
    });
    let root = time_each(&one, OP_BUDGET, |()| root_bound(dag, off, 8));
    // The root bound is a lower bound on every schedule, so it cannot
    // exceed either feasible makespan.
    let lower = root_bound(dag, off, 8);
    let simulated = simulate(
        dag,
        off,
        Platform::with_accelerator(8),
        &mut BreadthFirst::new(),
    )
    .map(|r| r.makespan());
    match (simulated, list_schedule_cp_first(dag, off, 8).map(|r| r.0)) {
        (Ok(sim), Ok(listed)) if lower <= sim.min(listed) => {}
        other => out.checks.fail(format!(
            "100k bracket: root bound {lower:?}, makespans {other:?}"
        )),
    }
    out.put("sim.makespan_ms_100k", median(&sim) / 1e3, "ms", sim.len());
    out.put(
        "exact.list_schedule_ms_100k",
        median(&list) / 1e3,
        "ms",
        list.len(),
    );
    out.put(
        "exact.root_bound_ms_100k",
        median(&root) / 1e3,
        "ms",
        root.len(),
    );
}

/// One sweep through `Engine::submit` on a fresh 2-thread engine.
struct Submitted {
    output: EngineOutput,
    ms: f64,
    /// `JobFinished.wall_time` of every job, microseconds.
    job_us: Vec<f64>,
    events_dropped: u64,
    busy_us: u64,
    idle_us: u64,
}

fn submitted_sweep(
    spec: &SweepSpec,
    recorder: Option<&Arc<TraceRecorder>>,
) -> Result<Submitted, String> {
    let mut builder = EngineBuilder::new().threads(2);
    if let Some(r) = recorder {
        builder = builder.with_recorder(Arc::clone(r) as _);
    }
    let engine = builder.build().map_err(|e| e.to_string())?;
    let t = Instant::now();
    let handle = engine.submit(spec).map_err(|e| e.to_string())?;
    let (mut job_us, mut events_dropped) = (Vec::new(), 0);
    while let Some(event) = handle.next_event() {
        match event {
            SweepEvent::JobFinished { wall_time, .. } => {
                job_us.push(wall_time.as_secs_f64() * 1e6);
            }
            SweepEvent::SweepFinished {
                events_dropped: d, ..
            } => events_dropped += d,
            _ => {}
        }
    }
    let output = handle.wait().map_err(|e| e.to_string())?;
    let ms = ms_since(t);
    let snap = engine.metrics().snapshot();
    Ok(Submitted {
        output,
        ms,
        job_us,
        events_dropped,
        busy_us: snap.counter("pool.busy_us").unwrap_or(0),
        idle_us: snap.counter("pool.idle_us").unwrap_or(0),
    })
}

/// Which crate a span's self time belongs to.
fn layer_of(span: &str) -> Option<&'static str> {
    match span {
        "materialize" => Some("gen"),
        s if s.starts_with("analysis") => Some("api"),
        "ctx.transform" => Some("core"),
        "ctx.derived" => Some("dag"),
        "job" | "aggregate.finalize" | "session.emit_partial" => Some("engine"),
        // `sweep` on the session lane is the wait for the workers.
        _ => None,
    }
}

fn ledger_lines(title: &str, folded: &BTreeMap<(String, u32), Folded>, per: f64) -> Vec<String> {
    let mut lines = vec![format!(
        "{title}\n  {:<26}{:>6}{:>8}{:>12}{:>12}",
        "span", "lane", "count", "total ms", "self ms"
    )];
    for ((name, lane), f) in folded {
        lines.push(format!(
            "  {:<26}{:>6}{:>8}{:>12.3}{:>12.3}",
            name,
            lane,
            f.count,
            f.total_us / 1e3 / per,
            f.self_us / 1e3 / per
        ));
    }
    lines
}

/// engine and obs: the workload's sweep on fresh 2-thread engines,
/// alternately untraced and traced (same seed per pair), for half the
/// run; the traced half is folded into the self-time ledger.
fn engine_layers(w: Workload, seed: u64, budget: Duration, out: &mut Layers) {
    let recorder = Arc::new(TraceRecorder::new());
    let (mut plain_ms, mut traced_ms, mut job_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut dropped, mut plain_pool, mut traced_busy) = (0u64, (0u64, 0u64), 0u64);
    let started = Instant::now();
    let mut i = 0u64;
    while (started.elapsed() < budget || i < 3) && i < 1000 {
        let spec = w.spec(derive_seed(seed, 3, i));
        let order = if i.is_multiple_of(2) {
            [false, true]
        } else {
            [true, false]
        };
        i += 1;
        for traced in order {
            out.checks.attempted += 1;
            match submitted_sweep(&spec, traced.then_some(&recorder)) {
                Ok(sweep) => {
                    if sweep.output.stats.jobs != spec.job_count() {
                        out.checks
                            .fail(format!("probe sweep: {} jobs", sweep.output.stats.jobs));
                    }
                    dropped += sweep.events_dropped;
                    if traced {
                        traced_ms.push(sweep.ms);
                        traced_busy += sweep.busy_us;
                    } else {
                        plain_ms.push(sweep.ms);
                        job_us.extend(sweep.job_us);
                        plain_pool = (plain_pool.0 + sweep.busy_us, plain_pool.1 + sweep.idle_us);
                    }
                }
                Err(e) => out.checks.fail(format!("probe sweep: {e}")),
            }
        }
    }
    let folded = match read_chrome(&recorder.to_chrome_json()) {
        Ok(spans) => fold(&spans),
        Err(e) => {
            out.checks.fail(format!("trace: {e}"));
            BTreeMap::new()
        }
    };
    let sweeps = traced_ms.len().max(1) as f64;
    let mut by_layer: BTreeMap<&str, f64> = BTreeMap::new();
    let (mut covered_us, mut aggregate_us) = (0.0, 0.0);
    for ((name, lane), f) in &folded {
        if let Some(layer) = layer_of(name) {
            *by_layer.entry(layer).or_default() += f.self_us;
        }
        if *lane > 0 && name != "job" {
            covered_us += f.self_us;
        }
        if name == "aggregate.finalize" {
            aggregate_us += f.total_us;
        }
    }
    out.put("engine.job_p50_us", median(&job_us), "us", job_us.len());
    out.put(
        "engine.job_p90_us",
        percentile(&job_us, 0.9),
        "us",
        job_us.len(),
    );
    out.put(
        "engine.pool_busy_ratio",
        plain_pool.0 as f64 / (plain_pool.0 + plain_pool.1).max(1) as f64,
        "ratio",
        plain_ms.len(),
    );
    out.put(
        "engine.aggregate_ms",
        aggregate_us / 1e3 / sweeps,
        "ms",
        traced_ms.len(),
    );
    out.put(
        "engine.events_dropped",
        dropped as f64,
        "count",
        plain_ms.len() + traced_ms.len(),
    );
    for layer in ["gen", "api", "core", "dag", "engine"] {
        let value = by_layer.get(layer).copied().unwrap_or(0.0) / 1e3 / sweeps;
        out.put(&format!("self_ms.{layer}"), value, "ms", traced_ms.len());
    }
    out.put(
        "obs.trace_overhead_ratio",
        median(&traced_ms) / median(&plain_ms),
        "ratio",
        traced_ms.len().min(plain_ms.len()),
    );
    out.put(
        "obs.coverage",
        covered_us / traced_busy.max(1) as f64,
        "ratio",
        traced_ms.len(),
    );
    out.ledger.extend(ledger_lines(
        &format!(
            "self time per traced sweep ({} sweeps, 2 threads)",
            traced_ms.len()
        ),
        &folded,
        sweeps,
    ));
}

/// engine caches, disk and wire: one sweep cold, then warm, on a 1-thread
/// engine with a disk cache, then again on a fresh engine over the same
/// directory. One thread keeps every count exact at a fixed seed.
fn cache_layers(w: Workload, seed: u64, dir: &Path, out: &mut Layers) {
    let spec = w.spec(derive_seed(seed, 4, 0));
    let cache = dir.join("probe-cache");
    let recorder = Arc::new(TraceRecorder::new());
    let build = || {
        EngineBuilder::new()
            .threads(1)
            .with_cache_dir(&cache)
            .with_recorder(Arc::clone(&recorder) as _)
            .build()
    };
    let probe = (|| {
        let first = build().map_err(|e| e.to_string())?;
        let cold = first.run(&spec).map_err(|e| e.to_string())?;
        let warm = first.run(&spec).map_err(|e| e.to_string())?;
        let second = build().map_err(|e| e.to_string())?;
        let disk = second.run(&spec).map_err(|e| e.to_string())?;
        let mut frames = Vec::new();
        let indices: Vec<usize> = (0..spec.job_count()).collect();
        first
            .run_job_subset(&spec, &indices, |r| {
                let mut wire = WireJobResult::from(&r);
                wire.wall_time = Duration::ZERO;
                wire.cache_hit = false;
                let (kind, payload) = DistMsg::JobDone(Box::new(wire)).encode();
                frames.push(encode_frame(kind, &payload).len());
            })
            .map_err(|e| e.to_string())?;
        Ok::<_, String>((first, second, cold, warm, disk, frames))
    })();
    out.checks.attempted += 3;
    let (first, second, cold, warm, disk, frames) = match probe {
        Ok(p) => p,
        Err(e) => {
            out.checks.fail(format!("cache probe: {e}"));
            return;
        }
    };
    out.checks
        .check_same("memory-warm replay", &warm.aggregate, &cold.aggregate);
    out.checks
        .check_same("disk-warm replay", &disk.aggregate, &cold.aggregate);

    let caches = first.caches();
    for (name, c) in [
        ("result", caches.result_counters()),
        ("transform", caches.transform_counters()),
        ("input", caches.input_counters()),
    ] {
        out.put(
            &format!("engine.{name}_hit_ratio"),
            c.hit_rate(),
            "ratio",
            (c.hits + c.misses) as usize,
        );
        out.put(&format!("engine.{name}_hits"), c.hits as f64, "count", 1);
        out.put(
            &format!("engine.{name}_misses"),
            c.misses as f64,
            "count",
            1,
        );
    }
    let folded = match read_chrome(&recorder.to_chrome_json()) {
        Ok(spans) => fold(&spans),
        Err(e) => {
            out.checks.fail(format!("trace: {e}"));
            BTreeMap::new()
        }
    };
    for (span, metric) in [
        ("disk.write", "disk.write_us"),
        ("disk.read", "disk.read_us"),
    ] {
        let (total, count) = folded
            .iter()
            .filter(|((name, _), _)| name == span)
            .fold((0.0, 0), |(t, n), (_, f)| (t + f.total_us, n + f.count));
        out.put(metric, total / count.max(1) as f64, "us", count as usize);
    }
    let d = second.caches().disk_counters();
    out.put(
        "disk.hit_ratio",
        d.hit_rate(),
        "ratio",
        (d.hits + d.misses) as usize,
    );
    out.put("disk.hits", d.hits as f64, "count", 1);
    out.put("disk.misses", d.misses as f64, "count", 1);

    let bytes: usize = frames.iter().sum();
    out.put(
        "wire.bytes_per_job",
        bytes as f64 / frames.len().max(1) as f64,
        "count",
        frames.len(),
    );
    let update = AggregateUpdate::Keyframe {
        seq: 0,
        aggregate: cold.aggregate.clone(),
    };
    let encoded = (encode_spec(&spec), encode_update(&update));
    let one = [()];
    let enc = time_each(&one, OP_BUDGET / 2, |()| {
        (encode_spec(&spec), encode_update(&update))
    });
    let dec = time_each(&one, OP_BUDGET / 2, |()| {
        (
            decode_spec(&encoded.0).is_ok(),
            decode_update(&encoded.1).is_ok(),
        )
    });
    match decode_update(&encoded.1) {
        Ok(back) if back == update => {}
        other => out
            .checks
            .fail(format!("aggregate codec round trip: {:?}", other.err())),
    }
    out.put("wire.encode_us", median(&enc), "us", enc.len());
    out.put("wire.decode_us", median(&dec), "us", dec.len());
    out.ledger.extend(ledger_lines(
        "disk probe spans (1 thread, cold + warm + disk-warm)",
        &folded,
        1.0,
    ));
    // The probe's cold sweep analyzed the tasks `recipe_layers` timed
    // directly (same spec), so both views of one analysis key are printed
    // side by side; the engine's span excludes its memoized transform.
    out.ledger
        .push("analysis: mean traced span vs median direct Analysis::run (us)".into());
    for ((name, _), f) in &folded {
        if let Some(key) = name
            .strip_prefix("analysis[")
            .and_then(|k| k.strip_suffix(']'))
        {
            let direct = out
                .metrics
                .iter()
                .find(|m| m.name == format!("api.analysis_us.{key}"))
                .map_or(f64::NAN, |m| m.value);
            out.ledger.push(format!(
                "  {key:<24}{:>14.1}{:>14.1}",
                f.total_us / f.count.max(1) as f64,
                direct
            ));
        }
    }
}

/// fault: the journal's own cost, as a memory-warm engine's journaled
/// replay minus its plain replay of the same spec (neither computes, so
/// the difference is the journal writes); then a resume over the finished
/// journal on a fresh engine, which must replay every job.
fn journal_layers(w: Workload, seed: u64, dir: &Path, out: &mut Layers) {
    let spec = w.spec(derive_seed(seed, 6, 0));
    let warm = engine(2);
    out.checks.attempted += 1;
    let want = match warm.run(&spec) {
        Ok(first) => first.aggregate,
        Err(e) => {
            out.checks.fail(format!("journal probe: {e}"));
            return;
        }
    };
    let (mut extra_ms, mut replayed, mut total) = (Vec::new(), 0usize, 0usize);
    for r in 0..5 {
        let cfg = JournalConfig::new(dir.join(format!("journal-{r}")));
        out.checks.attempted += 3;
        let t = Instant::now();
        let plain = warm.run(&spec);
        let plain_ms = ms_since(t);
        let t = Instant::now();
        let journaled = warm.run_journaled_with(&spec, &cfg, None, |_, _, _| {});
        let journaled_ms = ms_since(t);
        let resumed =
            engine(2).run_journaled_with(&spec, &cfg.clone().resuming(), None, |_, _, _| {});
        match (plain, journaled, resumed) {
            (Ok(plain), Ok(journaled), Ok(resumed)) => {
                extra_ms.push(journaled_ms - plain_ms);
                replayed += resumed.replayed;
                total += resumed.total;
                out.checks
                    .check_same("warm replay", &plain.aggregate, &want);
                out.checks
                    .check_same("journaled", &journaled.aggregate, &want);
                out.checks
                    .check_same("journal resume", &resumed.aggregate, &want);
            }
            other => out.checks.fail(format!("journal probe: {other:?}")),
        }
    }
    out.put(
        "fault.journal_ms_per_sweep",
        median(&extra_ms),
        "ms",
        extra_ms.len(),
    );
    out.put(
        "fault.replayed_ratio",
        replayed as f64 / total.max(1) as f64,
        "ratio",
        total,
    );
}

/// serve and dist: short closed-loop runs of the daemon and the fleet on
/// the workload's sweep; the fleet coordinator is traced.
fn front_end_layers(w: Workload, seed: u64, hetrta: &Path, dir: &Path, out: &mut Layers) {
    let phase = Phase {
        budget: Duration::from_secs(2),
        min_sweeps: 4,
    };
    let serve = run_serve(w, derive_seed(seed, 8, 0), phase, hetrta, dir);
    out.put(
        "serve.accept_ms",
        median(&serve.accept_ms),
        "ms",
        serve.accept_ms.len(),
    );
    out.put(
        "serve.first_event_ms",
        median(&serve.first_event_ms),
        "ms",
        serve.first_event_ms.len(),
    );
    out.put(
        "serve.busy_retries",
        serve.busy_retries as f64,
        "count",
        serve.sweeps.len(),
    );
    out.checks.absorb_failures(&serve);

    let recorder = TraceRecorder::new();
    let phase = Phase {
        budget: Duration::ZERO,
        min_sweeps: 4,
    };
    let fleet = run_fleet(w, derive_seed(seed, 9, 0), phase, hetrta, dir, &recorder);
    out.put(
        "dist.first_job_ms",
        median(&fleet.first_job_ms),
        "ms",
        fleet.first_job_ms.len(),
    );
    out.put(
        "dist.drain_ms",
        median(&fleet.drain_ms),
        "ms",
        fleet.drain_ms.len(),
    );
    out.put(
        "dist.redispatched",
        fleet.redispatched as f64,
        "count",
        fleet.sweeps.len(),
    );
    let (lo, hi) = (
        fleet.worker_jobs.iter().min().copied().unwrap_or(0),
        fleet.worker_jobs.iter().max().copied().unwrap_or(0),
    );
    out.put(
        "dist.worker_balance",
        lo as f64 / hi.max(1) as f64,
        "ratio",
        fleet.worker_jobs.len(),
    );
    out.put(
        "wire.fleet_bytes_per_job",
        fleet.fleet_bytes as f64 / fleet.fleet_jobs.max(1) as f64,
        "B/job",
        fleet.fleet_jobs as usize,
    );
    match read_chrome(&recorder.to_chrome_json()) {
        Ok(spans) => out.ledger.extend(ledger_lines(
            &format!(
                "fleet coordinator spans per sweep ({} sweeps)",
                fleet.sweeps.len()
            ),
            &fold(&spans),
            fleet.sweeps.len().max(1) as f64,
        )),
        Err(e) => out.checks.fail(format!("fleet trace: {e}")),
    }
    out.checks.absorb_failures(&fleet);
}

/// Runs every probe for workload `w` and returns the per-layer metrics.
pub fn run_traced(w: Workload, seed: u64, seconds: u64, hetrta: &Path, dir: &Path) -> Layers {
    let mut out = Layers::default();
    // The cache probe runs this same spec, so its traced analysis spans
    // cover the tasks timed directly here.
    recipe_layers(&w.spec(derive_seed(seed, 4, 0)), &mut out);
    large_graph_layers(seed, &mut out);
    engine_layers(w, seed, Duration::from_secs(seconds) / 2, &mut out);
    cache_layers(w, seed, dir, &mut out);
    journal_layers(w, seed, dir, &mut out);
    front_end_layers(w, seed, hetrta, dir, &mut out);
    out
}
