//! Engine-level guarantees: deterministic aggregation across thread
//! counts, and cache correctness (cached results equal fresh ones, hits
//! occur whenever content repeats).

use hetrta_engine::{AnalysisSelection, CellStat, Engine, GeneratorPreset, SweepSpec, TestKind};
use hetrta_sched::taskset::TaskSetParams;

fn fraction_spec(seed: u64) -> SweepSpec {
    SweepSpec::fractions(GeneratorPreset::Small, vec![2, 4], vec![0.1, 0.3], 8, seed)
}

fn acceptance_spec() -> SweepSpec {
    SweepSpec::acceptance(
        TaskSetParams::small(3, 1.0).with_offload_fraction(0.15, 0.35),
        vec![2],
        vec![0.2, 0.6, 1.0],
        3,
        6,
        42,
    )
}

#[test]
fn aggregate_is_byte_identical_across_thread_counts() {
    let spec = fraction_spec(0xD1CE);
    let single = Engine::new(1).run(&spec).expect("single-threaded run");
    for threads in [2, 4, 8] {
        let parallel = Engine::new(threads).run(&spec).expect("parallel run");
        assert_eq!(
            single.aggregate, parallel.aggregate,
            "aggregate differs on {threads} threads"
        );
        // Byte-identical, not just approximately equal: the Debug
        // rendering prints exact f64 values.
        assert_eq!(
            format!("{:?}", single.aggregate),
            format!("{:?}", parallel.aggregate)
        );
    }
}

#[test]
fn acceptance_aggregate_is_deterministic_too() {
    let spec = acceptance_spec();
    let a = Engine::new(1).run(&spec).expect("run");
    let b = Engine::new(4).run(&spec).expect("run");
    assert_eq!(a.aggregate, b.aggregate);
}

#[test]
fn cached_results_equal_freshly_computed_results() {
    let spec = fraction_spec(0xBEEF);
    let engine = Engine::new(2);
    let fresh = engine.run(&spec).expect("cold run");
    // Same engine, same spec: everything is served from the cache …
    let cached = engine.run(&spec).expect("warm run");
    assert_eq!(
        cached.stats.result_cache.misses, 0,
        "warm run must not recompute"
    );
    assert_eq!(cached.stats.cached_jobs as usize, cached.stats.jobs);
    // … and equals a from-scratch engine's answer exactly.
    assert_eq!(fresh.aggregate, cached.aggregate);
    let scratch = Engine::new(2).run(&spec).expect("independent run");
    assert_eq!(scratch.aggregate, cached.aggregate);
}

#[test]
fn repeated_seeds_hit_the_cache_within_one_run() {
    // The same base seed twice: the second replication's tasks are
    // structurally identical to the first's, so every analysis after the
    // first replication is a cache hit (single thread makes the schedule,
    // and therefore the counter values, deterministic).
    let spec = fraction_spec(7).with_seeds(vec![7, 7]);
    let out = Engine::new(1).run(&spec).expect("run");
    assert!(
        out.stats.result_cache.hits > 0,
        "repeated seeds must produce cache hits, got {:?}",
        out.stats.result_cache
    );
    // Exactly half the jobs are duplicates of the other half.
    assert_eq!(out.stats.result_cache.hits, out.stats.result_cache.misses);

    // Determinism also holds with replicated seeds.
    let again = Engine::new(4).run(&spec).expect("run");
    assert_eq!(out.aggregate, again.aggregate);
}

#[test]
fn transform_cache_is_shared_across_core_counts() {
    // Two core counts, one seed: each generated DAG is transformed once
    // and the transformation is reused for the second core count.
    let spec = fraction_spec(0xACE);
    let out = Engine::new(1).run(&spec).expect("run");
    let t = out.stats.transform_cache;
    assert_eq!(t.misses, 16, "8 tasks × 2 fractions transformed once each");
    assert_eq!(
        t.hits, 16,
        "each transformation reused for the second core count"
    );
}

#[test]
fn engine_matches_serial_acceptance_sweep() {
    // The engine's set jobs mirror hetrta_sched::acceptance::acceptance_sweep
    // (same seeding, same tests): ratios must agree exactly.
    use hetrta_sched::acceptance::{acceptance_sweep, AcceptanceConfig};

    let config = AcceptanceConfig {
        cores: 2,
        n_tasks: 3,
        sets_per_point: 6,
        normalized_utils: vec![0.2, 0.6, 1.0],
        template: TaskSetParams::small(3, 1.0).with_offload_fraction(0.15, 0.35),
        seed: 42,
    };
    let serial = acceptance_sweep(&config).expect("serial sweep");

    let out = Engine::new(4)
        .run(&acceptance_spec())
        .expect("engine sweep");
    assert_eq!(out.aggregate.cells.len(), serial.len());
    for (cell, point) in out.aggregate.cells.iter().zip(&serial) {
        assert_eq!(cell.grid_value, point.normalized_util);
        assert_eq!(cell.samples, point.sets);
        for t in TestKind::ALL {
            assert_eq!(
                cell.share(CellStat::accepted(t)).expect("set cell"),
                point.ratio(t),
                "{t:?} ratio diverges at U/m = {}",
                point.normalized_util
            );
        }
    }
}

#[test]
fn exact_budget_is_part_of_the_cache_key() {
    // A starved solver budget yields "unsolved"; re-running on the same
    // engine with a real budget must not be served the stale verdict.
    // Tiny DAGs keep the branch-and-bound solver fast here.
    let tiny = GeneratorPreset::Custom(hetrta_gen::NfjParams::small_tasks().with_node_range(4, 10));
    let mut starved = SweepSpec::fractions(tiny, vec![2], vec![0.25], 3, 3)
        .with_analyses(AnalysisSelection::from_keys(["exact"]));
    starved.exact_node_budget = Some(1);
    let mut generous = starved.clone();
    generous.exact_node_budget = None;

    let engine = Engine::new(1);
    let poor = engine.run(&starved).expect("starved run");
    let rich = engine.run(&generous).expect("generous run");
    let solved = |out: &hetrta_engine::EngineOutput| {
        out.aggregate.cells[0]
            .count(CellStat::ExactSolved)
            .expect("task cell")
    };
    assert!(
        solved(&rich) >= solved(&poor),
        "larger budget solves at least as much"
    );
    assert_eq!(solved(&rich), 3, "default budget solves small tasks");
    // And the default-budget result matches a cache-free engine.
    let fresh = Engine::new(1).run(&generous).expect("fresh run");
    assert_eq!(fresh.aggregate, rich.aggregate);
}

#[test]
fn sim_and_exact_analyses_run_through_the_engine() {
    let spec = SweepSpec::fractions(GeneratorPreset::Small, vec![2], vec![0.25], 4, 3)
        .with_analyses(AnalysisSelection::all());
    let out = Engine::new(2).run(&spec).expect("run");
    let t = &out.aggregate.cells[0];
    let sim = t
        .real(CellStat::MeanSimMakespan)
        .expect("simulation selected");
    let exact = t
        .real(CellStat::MeanExactMakespan)
        .expect("small tasks solve exactly");
    assert_eq!(t.count(CellStat::ExactSolved), Some(4));
    assert!(
        exact <= sim + 1e-9,
        "mean exact optimum {exact} above mean simulated {sim}"
    );
    assert!(
        t.real(CellStat::MeanRHet).expect("het selected") >= exact,
        "analytical bound below the exact optimum"
    );
}
