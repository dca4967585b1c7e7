//! Allocation accounting for the workspace-reuse layer.
//!
//! A counting global allocator measures heap allocations of the analysis
//! hot paths, recording the before/after of the refactor **in the test
//! itself**: the pre-refactor shape (fresh scratch state per call —
//! `simulate`, `solve`) is measured next to the workspace-reusing path
//! (`simulate_makespan`, `solve_with` on a warm workspace), and the warm
//! path must do strictly less heap work per call. Separate budgets pin the
//! steady-state allocations per *sweep cell* of a fully warmed engine, the
//! allocations per job of a cold Figure 8 sweep, and what cloning a task
//! or its Algorithm-1 transformation costs (graphs share their storage,
//! so the memo caches copy no node data on a hit).
//!
//! The harness runs these tests in parallel, so each measurement counts
//! only its own work: the single-thread measurements read a per-thread
//! counter, and the engine budgets (whose pool allocates on other
//! threads) read the process-wide counter while holding [`MEASURE`]
//! exclusively, which the other tests hold shared.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Held shared by the single-thread measurements and exclusively by the
/// process-wide one, so no test allocates while the engine is counted.
static MEASURE: RwLock<()> = RwLock::new(());

fn count_one() {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    // `try_with`: the allocator may run while thread-locals are torn down.
    let _ = THREAD_ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: delegates verbatim to `System`; the counters are the only addition.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations `op` makes on the calling thread.
fn thread_allocations_during<T>(op: impl FnOnce() -> T) -> (u64, T) {
    let before = THREAD_ALLOCATIONS.with(Cell::get);
    let value = op();
    (THREAD_ALLOCATIONS.with(Cell::get) - before, value)
}

/// Allocations the whole process makes while `op` runs.
fn process_allocations_during<T>(op: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let value = op();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, value)
}

fn shared_measure() -> RwLockReadGuard<'static, ()> {
    MEASURE
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn exclusive_measure() -> RwLockWriteGuard<'static, ()> {
    MEASURE
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

use hetrta_engine::{Engine, EngineBuilder, GeneratorPreset, SweepSpec};
use hetrta_exact::{solve, solve_with, SolverConfig, SolverWorkspace};
use hetrta_gen::offload::{make_hetero_task, CoffSizing, OffloadSelection};
use hetrta_gen::{generate_nfj, NfjParams};
use hetrta_sim::policy::BreadthFirst;
use hetrta_sim::{simulate, simulate_makespan, Platform, SimWorkspace};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn sample_task(n_min: usize, n_max: usize) -> hetrta_dag::HeteroDagTask {
    let params = NfjParams::large_tasks().with_node_range(n_min, n_max);
    let mut rng = StdRng::seed_from_u64(0x000A_110C);
    loop {
        let Ok(dag) = generate_nfj(&params, &mut rng) else {
            continue;
        };
        if let Ok(task) = make_hetero_task(
            dag,
            OffloadSelection::AnyInterior,
            CoffSizing::VolumeFraction(0.15),
            &mut rng,
        ) {
            return task;
        }
    }
}

#[test]
fn warm_sim_workspace_allocates_an_order_less_than_the_cold_path() {
    let _measure = shared_measure();
    let task = sample_task(60, 120);
    let platform = Platform::with_accelerator(4);
    let mut ws = SimWorkspace::new();
    // Warm up the workspace buffers.
    for _ in 0..3 {
        simulate_makespan(
            &mut ws,
            task.dag(),
            Some(task.offloaded()),
            platform,
            &mut BreadthFirst::new(),
        )
        .unwrap();
    }

    const RUNS: u64 = 20;
    let (cold, _) = thread_allocations_during(|| {
        for _ in 0..RUNS {
            // The pre-refactor shape: every call builds its own queues,
            // heaps and per-node arrays (and an intervals vector).
            simulate(
                task.dag(),
                Some(task.offloaded()),
                platform,
                &mut BreadthFirst::new(),
            )
            .unwrap();
        }
    });
    let (warm, _) = thread_allocations_during(|| {
        for _ in 0..RUNS {
            simulate_makespan(
                &mut ws,
                task.dag(),
                Some(task.offloaded()),
                platform,
                &mut BreadthFirst::new(),
            )
            .unwrap();
        }
    });
    // Fixed budget: a warm simulation may allocate a handful of times
    // (`sources()` collects), nothing per-node.
    assert!(
        warm <= RUNS * 4,
        "warm sim path allocates {warm} over {RUNS} runs (budget {})",
        RUNS * 4
    );
    assert!(
        warm * 5 <= cold,
        "workspace reuse saves less than 5x: warm {warm} vs cold {cold}"
    );
}

#[test]
fn warm_solver_workspace_allocates_less_than_the_cold_path() {
    let _measure = shared_measure();
    let task = sample_task(14, 20);
    let config = SolverConfig::default();
    let mut ws = SolverWorkspace::new();
    for _ in 0..2 {
        solve_with(&mut ws, task.dag(), Some(task.offloaded()), 2, &config).unwrap();
    }

    const RUNS: u64 = 10;
    let (cold, _) = thread_allocations_during(|| {
        for _ in 0..RUNS {
            solve(task.dag(), Some(task.offloaded()), 2, &config).unwrap();
        }
    });
    let (warm, _) = thread_allocations_during(|| {
        for _ in 0..RUNS {
            solve_with(&mut ws, task.dag(), Some(task.offloaded()), 2, &config).unwrap();
        }
    });
    assert!(
        warm < cold,
        "solver workspace reuse must reduce allocations: warm {warm} vs cold {cold}"
    );
}

#[test]
fn steady_state_engine_cells_fit_a_fixed_allocation_budget() {
    // 2 cores × 2 fractions × 8 tasks = 32 jobs over 4 cells. After the
    // first run everything is memoized; the steady-state re-run must stay
    // under a fixed per-cell allocation budget (cache lookups, outcome
    // clones, aggregation — no DAG generation, no analysis scratch).
    let spec = SweepSpec::fractions(
        GeneratorPreset::Custom(NfjParams::large_tasks().with_node_range(60, 120)),
        vec![2, 8],
        vec![0.02, 0.25],
        8,
        0x00A1_10C2,
    );
    let _measure = exclusive_measure();
    let engine = Engine::new(1);
    engine.run(&spec).unwrap();

    let cells = 4u64;
    let (steady, out) = process_allocations_during(|| engine.run(&spec).unwrap());
    assert_eq!(out.stats.cached_jobs as usize, out.stats.jobs);
    const PER_CELL_BUDGET: u64 = 4_000;
    assert!(
        steady / cells < PER_CELL_BUDGET,
        "steady-state sweep allocated {steady} over {cells} cells \
         ({} per cell, budget {PER_CELL_BUDGET})",
        steady / cells
    );
}

#[test]
fn cloning_a_task_allocates_nothing() {
    let _measure = shared_measure();
    let task = sample_task(60, 120);
    let (allocations, copy) = thread_allocations_during(|| task.clone());
    assert_eq!(copy.dag().node_count(), task.dag().node_count());
    assert_eq!(
        allocations,
        0,
        "cloning a {}-node task allocated {allocations} times",
        task.dag().node_count()
    );
}

#[test]
fn cloning_a_transformation_allocates_nothing() {
    let _measure = shared_measure();
    let task = sample_task(60, 120);
    let transformed = hetrta_core::transform(&task).unwrap();
    // The numbers are plain fields and the graphs (τ, and τ' with G_par
    // once built) are shared, whether or not they were built yet.
    let (unbuilt, copy) = thread_allocations_during(|| transformed.clone());
    assert_eq!(copy.sync_node(), transformed.sync_node());
    assert_eq!(copy.transformed().node_count(), task.dag().node_count() + 1);
    let (built, _) = thread_allocations_during(|| transformed.clone());
    assert_eq!(
        (unbuilt, built),
        (0, 0),
        "cloning the transformation of a {}-node task allocated (before, after \
         building its graphs)",
        task.dag().node_count()
    );
}

#[test]
fn cold_fig8_sweep_fits_a_per_job_allocation_budget() {
    // The Figure 8 quick sweep (2 cores × 5 fractions × 20 tasks = 200
    // jobs) on a fresh engine: every job generates its task, and the first
    // core count transforms it, building no graph. What the memo caches
    // hand out must not be copied node by node.
    let spec = SweepSpec::fractions(
        GeneratorPreset::Custom(NfjParams::large_tasks().with_node_range(60, 120)),
        vec![2, 8],
        vec![0.0012, 0.02, 0.10, 0.25, 0.50],
        20,
        0x8008_0002,
    );
    let _measure = exclusive_measure();
    let engine = Engine::new(1);
    let (cold, out) = process_allocations_during(|| engine.run(&spec).unwrap());
    let jobs = out.stats.jobs as u64;
    assert_eq!(jobs, 200);
    assert_eq!(
        out.stats.cached_jobs, 0,
        "a fresh engine computes every job"
    );
    const PER_JOB_BUDGET: u64 = 40;
    assert!(
        cold / jobs <= PER_JOB_BUDGET,
        "cold sweep allocated {cold} over {jobs} jobs ({} per job, budget {PER_JOB_BUDGET})",
        cold / jobs
    );
}

#[test]
fn building_an_engine_fits_an_allocation_budget() {
    let _measure = shared_measure();
    // The first builder sets up the process-wide builtin registry once.
    drop(EngineBuilder::new());
    let (allocations, engine) =
        thread_allocations_during(|| EngineBuilder::new().threads(2).build().unwrap());
    drop(engine);
    // Five memo caches (their shards come on first use), their ten
    // registry counters under literal names, and the engine's shared
    // state; the registry clone shares the builtin analyses.
    const BUDGET: u64 = 36;
    assert!(
        allocations <= BUDGET,
        "building an engine allocated {allocations} times (budget {BUDGET})"
    );
}
