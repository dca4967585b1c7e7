//! Measured performance harness: per-kernel ns/op plus end-to-end engine
//! sweep wall times, with a JSON rendering for the repo's `BENCH_*.json`
//! perf trajectory.
//!
//! Everything is deterministic up to wall-clock noise: the kernel inputs
//! are a fixed seeded batch of generated tasks, so two runs of the harness
//! measure the same work. The `hetrta bench` CLI subcommand is a thin
//! wrapper over [`run`]; `--json` emits [`PerfReport::to_json`] for
//! machine comparison (the CI perf-smoke job and the committed
//! `BENCH_*.json` files).

use std::path::PathBuf;
use std::time::{Duration, Instant};

use hetrta_cond::{generate_cond, r_cond, CondExpr, CondGenParams};
use hetrta_core::{r_het, r_hom, transform, TransformedTask};
use hetrta_dag::algo::{
    topological_order, transitive::find_transitive_edge, CriticalPath, Reachability,
};
use hetrta_dag::HeteroDagTask;
use hetrta_engine::{
    AnalysisOutcome, AnalysisSelection, DiskCache, Engine, EngineOutput, GeneratorPreset,
    SimOutcome, SweepSpec,
};
use hetrta_exact::{solve, SolverConfig};
use hetrta_gen::layered::{generate_layered, LayeredParams};
use hetrta_gen::offload::{make_hetero_task, CoffSizing, OffloadSelection};
use hetrta_gen::series::BatchSpec;
use hetrta_gen::{generate_nfj, NfjParams};
use hetrta_sched::gfp_test;
use hetrta_sched::model::{AnalysisModel, DeviceModel};
use hetrta_sched::taskset::{generate_task_set, sort_deadline_monotonic, TaskSetParams};
use hetrta_sim::policy::{BreadthFirst, CriticalPathFirst};
use hetrta_sim::{simulate, Platform};
use hetrta_suspend::BaselineComparison;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::experiments::{fig8, fig9};

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct PerfConfig {
    /// Scaled-down inputs and iteration budgets (CI smoke mode).
    pub quick: bool,
}

impl PerfConfig {
    /// The full measurement configuration.
    #[must_use]
    pub fn full() -> Self {
        PerfConfig { quick: false }
    }

    /// The scaled-down smoke configuration.
    #[must_use]
    pub fn quick() -> Self {
        PerfConfig { quick: true }
    }
}

/// One measured kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelResult {
    /// Stable kernel name (`"algo/critical_path"`).
    pub name: &'static str,
    /// Mean wall time per operation, in nanoseconds.
    pub ns_per_op: f64,
    /// Operations measured.
    pub iters: u64,
}

/// One measured end-to-end sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    /// Stable sweep name (`"sweep/fig8_quick_cold"`).
    pub name: &'static str,
    /// Wall-clock time of the sweep, in milliseconds.
    pub wall_ms: f64,
    /// Jobs the sweep expanded into.
    pub jobs: usize,
}

/// Latency quantiles of one analysis kind, measured inside the engine
/// during the Figure 8 sweeps (the engine's per-analysis histograms).
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyResult {
    /// Analysis registry key (`"het"`).
    pub analysis: String,
    /// Computed analyses the histogram saw (cache hits record nothing).
    pub count: u64,
    /// Median latency, in nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile latency, in nanoseconds.
    pub p99_ns: u64,
}

/// The full harness output.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// Per-kernel measurements.
    pub kernels: Vec<KernelResult>,
    /// End-to-end sweep measurements.
    pub sweeps: Vec<SweepResult>,
    /// Per-analysis latency quantiles from the Figure 8 sweeps.
    pub latencies: Vec<LatencyResult>,
}

impl PerfReport {
    /// JSON rendering (stable key order, no external dependencies).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"kernels\": [\n");
        for (i, k) in self.kernels.iter().enumerate() {
            let comma = if i + 1 < self.kernels.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"ns_per_op\": {:.1}, \"iters\": {}}}{comma}\n",
                k.name, k.ns_per_op, k.iters
            ));
        }
        out.push_str("  ],\n  \"sweeps\": [\n");
        for (i, s) in self.sweeps.iter().enumerate() {
            let comma = if i + 1 < self.sweeps.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"wall_ms\": {:.2}, \"jobs\": {}}}{comma}\n",
                s.name, s.wall_ms, s.jobs
            ));
        }
        out.push_str("  ],\n  \"analysis_latency\": [\n");
        for (i, l) in self.latencies.iter().enumerate() {
            let comma = if i + 1 < self.latencies.len() {
                ","
            } else {
                ""
            };
            out.push_str(&format!(
                "    {{\"analysis\": \"{}\", \"count\": {}, \"p50_ns\": {}, \"p99_ns\": {}}}{comma}\n",
                l.analysis, l.count, l.p50_ns, l.p99_ns
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Human-readable table rendering.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::from("kernel                        ns/op\n");
        for k in &self.kernels {
            out.push_str(&format!("  {:<28}{:>12.1}\n", k.name, k.ns_per_op));
        }
        out.push_str("sweep                         wall ms     jobs\n");
        for s in &self.sweeps {
            out.push_str(&format!(
                "  {:<28}{:>9.1}{:>9}\n",
                s.name, s.wall_ms, s.jobs
            ));
        }
        if !self.latencies.is_empty() {
            out.push_str("analysis latency                count   p50 us   p99 us\n");
            for l in &self.latencies {
                out.push_str(&format!(
                    "  {:<28}{:>7}{:>9.1}{:>9.1}\n",
                    l.analysis,
                    l.count,
                    l.p50_ns as f64 / 1e3,
                    l.p99_ns as f64 / 1e3
                ));
            }
        }
        out
    }
}

/// Times `op` until the budget elapses (one warm-up call first).
fn time_kernel<T>(
    name: &'static str,
    budget: Duration,
    mut op: impl FnMut(u64) -> T,
) -> KernelResult {
    std::hint::black_box(op(0));
    let mut iters = 0u64;
    let started = Instant::now();
    loop {
        std::hint::black_box(op(iters));
        iters += 1;
        if started.elapsed() >= budget {
            break;
        }
    }
    let ns_per_op = started.elapsed().as_nanos() as f64 / iters as f64;
    KernelResult {
        name,
        ns_per_op,
        iters,
    }
}

/// The fixed seeded task batch the kernels run on.
fn kernel_tasks(config: &PerfConfig) -> Vec<HeteroDagTask> {
    let (count, n_min, n_max) = if config.quick {
        (6, 60, 120)
    } else {
        (12, 100, 250)
    };
    let params = NfjParams::large_tasks().with_node_range(n_min, n_max);
    let mut rng = StdRng::seed_from_u64(0xBE9C_0001);
    let mut tasks = Vec::with_capacity(count);
    while tasks.len() < count {
        let Ok(dag) = generate_nfj(&params, &mut rng) else {
            continue;
        };
        if let Ok(task) = make_hetero_task(
            dag,
            OffloadSelection::AnyInterior,
            CoffSizing::VolumeFraction(0.1),
            &mut rng,
        ) {
            tasks.push(task);
        }
    }
    tasks
}

/// A small fixed task the exact solver finishes instantly.
fn exact_task() -> HeteroDagTask {
    let params = NfjParams::small_tasks().with_node_range(8, 12);
    let mut rng = StdRng::seed_from_u64(0xBE9C_0002);
    loop {
        let Ok(dag) = generate_nfj(&params, &mut rng) else {
            continue;
        };
        if let Ok(task) = make_hetero_task(
            dag,
            OffloadSelection::AnyInterior,
            CoffSizing::VolumeFraction(0.2),
            &mut rng,
        ) {
            return task;
        }
    }
}

fn timed_sweep(name: &'static str, engine: &Engine, spec: &SweepSpec) -> SweepResult {
    let started = Instant::now();
    let out: EngineOutput = engine.run(spec).expect("perf sweep succeeds");
    SweepResult {
        name,
        wall_ms: started.elapsed().as_secs_f64() * 1e3,
        jobs: out.stats.jobs,
    }
}

/// The disk cache's cost model. One op of `disk/write_600` is 600 result
/// writes into a fresh directory and their commit (a cold paper-preset
/// sweep makes 600); one op of `disk/open_lookup_100k` opens a fresh
/// handle on a directory already holding 100k entries and looks up 300 of
/// them, so it slows down with the directory if opening ever reads the
/// entries.
fn disk_kernels(budget: Duration) -> Vec<KernelResult> {
    let root = std::env::temp_dir().join(format!("hetrta-bench-disk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let entry = |i: u64| {
        let key = u128::from(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) << 64 | u128::from(i);
        let outcome = AnalysisOutcome::Sim(SimOutcome {
            makespan: 1_000 + i,
            transformed_makespan: Some(900 + i),
        });
        (key, outcome)
    };
    let open = |dir: PathBuf| DiskCache::open(dir).expect("bench cache dir opens");
    let mut fresh = 0u64;
    let write = time_kernel("disk/write_600", budget, |_| {
        fresh += 1;
        let cache = open(root.join(format!("write-{fresh}")));
        for i in 0..600 {
            let (key, outcome) = entry(i);
            cache.store_result(key, &outcome);
        }
        // The op includes the commit, and the count covers its failures.
        cache.flush();
        cache.write_failed()
    });
    let filled = root.join("filled-100k");
    let cache = open(filled.clone());
    for i in 0..100_000 {
        let (key, outcome) = entry(i);
        cache.store_result(key, &outcome);
    }
    drop(cache);
    let lookup = time_kernel("disk/open_lookup_100k", budget, |op| {
        let cache = open(filled.clone());
        let hits = (0..300)
            .filter(|j| {
                cache
                    .load_result(entry((op * 300 + j) * 7_919 % 100_000).0)
                    .is_some()
            })
            .count();
        assert_eq!(hits, 300, "every prefilled entry reads back");
        hits
    });
    let _ = std::fs::remove_dir_all(&root);
    vec![write, lookup]
}

/// Runs the full harness: kernels on a fixed seeded task batch, then the
/// Figure 8/9 quick sweeps end-to-end on the engine (cold and warm).
///
/// # Panics
///
/// Panics if a sweep fails (deterministic specs; cannot happen).
#[must_use]
pub fn run(config: &PerfConfig) -> PerfReport {
    let budget = if config.quick {
        Duration::from_millis(30)
    } else {
        Duration::from_millis(200)
    };
    let tasks = kernel_tasks(config);
    let transformed: Vec<TransformedTask> = tasks
        .iter()
        .map(|t| transform(t).expect("generated tasks transform"))
        .collect();
    let pick = |i: u64| &tasks[(i % tasks.len() as u64) as usize];

    let mut kernels = Vec::new();
    kernels.push(time_kernel("dag/clone", budget, |i| pick(i).dag().clone()));
    kernels.push(time_kernel("algo/topological_order", budget, |i| {
        topological_order(pick(i).dag()).expect("acyclic")
    }));
    kernels.push(time_kernel("algo/reachability", budget, |i| {
        Reachability::of(pick(i).dag()).expect("acyclic")
    }));
    kernels.push(time_kernel("algo/critical_path", budget, |i| {
        CriticalPath::of(pick(i).dag()).length()
    }));
    kernels.push(time_kernel("algo/transitive_find", budget, |i| {
        find_transitive_edge(pick(i).dag()).expect("acyclic")
    }));
    kernels.push(time_kernel("core/transform_alg1", budget, |i| {
        transform(pick(i)).expect("transformable")
    }));
    kernels.push(time_kernel("core/r_hom", budget, |i| {
        r_hom(&pick(i).as_homogeneous(), 4).expect("acyclic")
    }));
    kernels.push(time_kernel("core/r_het", budget, |i| {
        let t = &transformed[(i % transformed.len() as u64) as usize];
        r_het(t, 4).expect("valid cores").value()
    }));
    kernels.push(time_kernel("sim/breadth_first", budget, |i| {
        let task = pick(i);
        simulate(
            task.dag(),
            Some(task.offloaded()),
            Platform::with_accelerator(4),
            &mut BreadthFirst::new(),
        )
        .expect("simulates")
        .makespan()
    }));
    let small = exact_task();
    kernels.push(time_kernel("exact/solve_small", budget, |_| {
        solve(
            small.dag(),
            Some(small.offloaded()),
            2,
            &SolverConfig::default(),
        )
        .expect("small instance solves")
        .makespan()
    }));

    // One row for each crate the rows above do not reach: the
    // task-set test (4 tasks at m = 8), the conditional DP bound, the
    // suspension baselines, and the critical-path-first list schedule,
    // whose O(W) ready-queue scan is the list-schedule hotspot at scale.
    let task_set = {
        let mut rng = StdRng::seed_from_u64(0xBE9C_0003);
        let params = TaskSetParams::small(4, 1.0).with_offload_fraction(0.15, 0.4);
        let mut set = generate_task_set(&params, &mut rng).expect("task set generates");
        sort_deadline_monotonic(&mut set);
        set
    };
    let het = AnalysisModel::Heterogeneous(DeviceModel::DedicatedPerTask);
    kernels.push(time_kernel("sched/gfp_het", budget, |_| {
        gfp_test(&task_set, 8, het).expect("valid task set")
    }));
    let cond_exprs: Vec<CondExpr> = {
        let mut rng = StdRng::seed_from_u64(0xBE9C_0004);
        std::iter::repeat_with(|| generate_cond(&CondGenParams::small(), &mut rng))
            .filter_map(Result::ok)
            .take(4)
            .collect()
    };
    kernels.push(time_kernel("cond/r_cond", budget, |i| {
        r_cond(&cond_exprs[(i % cond_exprs.len() as u64) as usize], 8).expect("valid cores")
    }));
    kernels.push(time_kernel("suspend/baselines", budget, |i| {
        BaselineComparison::compute(pick(i), 8).expect("transformable")
    }));
    kernels.push(time_kernel("sim/critical_path_first", budget, |i| {
        let task = pick(i);
        simulate(
            task.dag(),
            Some(task.offloaded()),
            Platform::with_accelerator(4),
            &mut CriticalPathFirst::new(),
        )
        .expect("simulates")
        .makespan()
    }));

    // Large-graph tier: n≈10k construction through the builder-first
    // pipeline (the pre-PR5 edge-by-edge path was 5.7 ms / 117 ms per
    // graph here), plus Algorithm 1 at that scale. One op is one whole
    // graph, so these get a larger budget than the microsecond kernels.
    let gen_budget = budget.max(Duration::from_millis(120));
    let nfj_10k = NfjParams::large_graphs(10_000);
    kernels.push(time_kernel("gen/nfj_build_10k", gen_budget, |i| {
        let mut rng = StdRng::seed_from_u64(0xBE9C_0010 ^ i);
        generate_nfj(&nfj_10k, &mut rng).expect("large-graph sample accepted")
    }));
    // Rejection sampling at the paper's sizes: one op generates one grid
    // point's batch, 20 tasks of the Figure 8 quick clip (60–120 nodes,
    // about 30 attempts per accepted graph) or 50 of the paper's 100–250
    // node range (about 11), each a `BatchSpec::task` as a sweep job
    // makes it.
    let fig8_point = BatchSpec::new(
        NfjParams::large_tasks().with_node_range(60, 120),
        20,
        0xBE9C_0040,
    );
    kernels.push(time_kernel("gen/nfj_fig8_point", gen_budget, |_| {
        fig8_point.tasks_at_fraction(0.1).expect("generates")
    }));
    let paper_point = BatchSpec::new(
        NfjParams::large_tasks().with_node_range(100, 250),
        50,
        0xBE9C_0041,
    );
    kernels.push(time_kernel("gen/nfj_paper_point", gen_budget, |_| {
        paper_point.tasks_at_fraction(0.1).expect("generates")
    }));
    let layered_10k = LayeredParams::large_graphs(10_000);
    kernels.push(time_kernel("gen/layered_build_10k", gen_budget, |i| {
        let mut rng = StdRng::seed_from_u64(0xBE9C_0020 ^ i);
        generate_layered(&layered_10k, &mut rng).expect("valid params")
    }));
    let large_task = {
        let mut rng = StdRng::seed_from_u64(0xBE9C_0030);
        let dag = generate_nfj(&nfj_10k, &mut rng).expect("large-graph sample accepted");
        make_hetero_task(
            dag,
            OffloadSelection::AnyInterior,
            CoffSizing::VolumeFraction(0.2),
            &mut rng,
        )
        .expect("offload assignment succeeds")
    };
    // Theorem 1's numbers alone (what sweeps compute), then the same with
    // G' and G_par built, so the graph construction path stays gated.
    kernels.push(time_kernel("core/transform_10k", gen_budget, |_| {
        transform(&large_task).expect("transformable")
    }));
    kernels.push(time_kernel("core/transform_10k_graphs", gen_budget, |_| {
        let t = transform(&large_task).expect("transformable");
        (t.transformed().edge_count(), t.g_par().edge_count())
    }));
    // The tier this PR opens: n≈10⁵ construction must stay closure-free
    // (the old bitset-closure reduction alone would be seconds and ≈1.2
    // GiB here). One op is one whole 100k-node graph.
    let layered_100k = LayeredParams::large_graphs(100_000);
    kernels.push(time_kernel("gen/layered_build_100k", gen_budget, |i| {
        let mut rng = StdRng::seed_from_u64(0xBE9C_0021 ^ i);
        generate_layered(&layered_100k, &mut rng).expect("valid params")
    }));
    if !config.quick {
        let layered_1m = LayeredParams::large_graphs(1_000_000);
        kernels.push(time_kernel("gen/layered_build_1m", gen_budget, |i| {
            let mut rng = StdRng::seed_from_u64(0xBE9C_0022 ^ i);
            generate_layered(&layered_1m, &mut rng).expect("valid params")
        }));
    }

    let mut sweeps = Vec::new();
    let fig8_spec = fig8::sweep_spec(&fig8::Config::quick());
    let engine = Engine::new(0);
    sweeps.push(timed_sweep("sweep/fig8_quick_cold", &engine, &fig8_spec));
    sweeps.push(timed_sweep("sweep/fig8_quick_warm", &engine, &fig8_spec));

    // Sampled analysis at the 100k-node tier: generation + Algorithm 1 +
    // an 8-sample seeded makespan estimate per job, cold and warm (the
    // warm run measures the result cache at large n).
    let mut n100k_spec = SweepSpec::fractions(
        GeneratorPreset::LargeGraphs(100_000),
        vec![8],
        vec![0.2],
        2,
        0xDAC_2018,
    )
    .with_analyses(AnalysisSelection::from_keys(["sampled", "anytime"]));
    n100k_spec.sample_budget = 8;
    let engine100k = Engine::new(0);
    sweeps.push(timed_sweep(
        "sweep/n100k_sampled_cold",
        &engine100k,
        &n100k_spec,
    ));
    sweeps.push(timed_sweep(
        "sweep/n100k_sampled_warm",
        &engine100k,
        &n100k_spec,
    ));

    // The engine recorded a latency histogram per analysis kind while the
    // Figure 8 sweeps ran; lift its quantiles into the report.
    let snapshot = engine.metrics().snapshot();
    let latencies: Vec<LatencyResult> = snapshot
        .histograms_with_prefix("analysis.")
        .into_iter()
        .filter_map(|(name, hist)| {
            let analysis = name
                .strip_prefix("analysis.")?
                .strip_suffix(".latency_ns")?;
            Some(LatencyResult {
                analysis: analysis.to_owned(),
                count: hist.count,
                p50_ns: hist.p50().unwrap_or(0),
                p99_ns: hist.p99().unwrap_or(0),
            })
        })
        .collect();
    if !config.quick {
        let fig9_spec = fig9::sweep_spec(&fig9::Config::quick());
        let engine9 = Engine::new(0);
        sweeps.push(timed_sweep("sweep/fig9_quick_cold", &engine9, &fig9_spec));
        // The first end-to-end large-graph sweep: ten jobs over
        // ten-thousand-node DAGs (generation + Algorithm 1 + Theorem 1),
        // impossible before builder-first construction unlocked the tier.
        let n10k_spec = SweepSpec::fractions(
            GeneratorPreset::LargeGraphs(10_000),
            vec![8],
            vec![0.1, 0.3],
            5,
            0xDAC_2018,
        );
        let engine10k = Engine::new(0);
        sweeps.push(timed_sweep("sweep/n10k_het_cold", &engine10k, &n10k_spec));
        sweeps.push(timed_sweep("sweep/n10k_het_warm", &engine10k, &n10k_spec));
        // The top of the tier: one million-node job end to end
        // (generation, transform, sampled + anytime analyses).
        let mut n1m_spec = SweepSpec::fractions(
            GeneratorPreset::LargeGraphs(1_000_000),
            vec![8],
            vec![0.2],
            1,
            0xDAC_2018,
        )
        .with_analyses(AnalysisSelection::from_keys(["sampled", "anytime"]));
        n1m_spec.sample_budget = 4;
        let engine1m = Engine::new(0);
        sweeps.push(timed_sweep("sweep/n1m_sampled_cold", &engine1m, &n1m_spec));
    }

    // Last, so the disk rows' write-back does not land in the sweep rows.
    kernels.extend(disk_kernels(gen_budget));
    PerfReport {
        kernels,
        sweeps,
        latencies,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_harness_produces_every_section() {
        let report = run(&PerfConfig::quick());
        assert!(report.kernels.len() >= 8);
        assert!(report.sweeps.len() >= 2);
        assert!(report.kernels.iter().all(|k| k.ns_per_op > 0.0));
        assert!(
            report.latencies.iter().any(|l| l.analysis == "het"),
            "fig8 sweeps feed the het latency histogram"
        );
        for l in &report.latencies {
            assert!(l.count > 0);
            assert!(l.p50_ns <= l.p99_ns, "{}: p50 above p99", l.analysis);
        }
        let json = report.to_json();
        assert!(json.contains("\"kernels\""));
        assert!(json.contains("sweep/fig8_quick_cold"));
        assert!(json.contains("gen/nfj_fig8_point"));
        assert!(json.contains("gen/nfj_paper_point"));
        for row in [
            "sched/gfp_het",
            "cond/r_cond",
            "suspend/baselines",
            "sim/critical_path_first",
            "disk/write_600",
            "disk/open_lookup_100k",
        ] {
            assert!(json.contains(row), "missing kernel row {row}");
        }
        assert!(json.contains("\"analysis_latency\""));
        assert!(json.contains("\"p99_ns\""));
        let table = report.render();
        assert!(table.contains("algo/critical_path"));
        assert!(table.contains("analysis latency"));
    }
}
