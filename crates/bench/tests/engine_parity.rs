//! The engine-backed experiments produce exactly what the serial
//! reference loops produce — same generated inputs, same classification,
//! same floating-point aggregation. Every serial loop below is a verbatim
//! copy of the corresponding pre-registry implementation.

use hetrta_bench::experiments::{conditional, fig6, fig7, fig8, fig9, suspension};
use hetrta_bench::stats::summarize;
use hetrta_core::{r_het, r_hom_dag, transform, HeterogeneousAnalysis, Scenario};
use hetrta_engine::Engine;
use hetrta_exact::solve;
use hetrta_gen::offload::{make_hetero_task, CoffSizing, OffloadSelection};
use hetrta_gen::series::BatchSpec;
use hetrta_gen::{generate_nfj, NfjParams};
use hetrta_sim::metrics::percentage_change;
use hetrta_sim::policy::BreadthFirst;
use hetrta_sim::{explore_worst_case, simulate, Platform};
use hetrta_suspend::BaselineComparison;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The pre-engine fig8 inner loop, kept as the serial reference.
fn serial_fig8(config: &fig8::Config) -> Vec<fig8::Point> {
    let spec = BatchSpec::new(config.params.clone(), config.tasks_per_point, config.seed);
    let mut points = Vec::new();
    for &m in &config.core_counts {
        for &fraction in &config.fractions {
            let (mut s1, mut s21, mut s22) = (0usize, 0usize, 0usize);
            for i in 0..spec.tasks_per_point {
                let task = spec.task(i, fraction).expect("generation succeeds");
                let t = transform(&task).expect("transformation succeeds");
                match r_het(&t, m).expect("m > 0").scenario() {
                    Scenario::OffNotOnCriticalPath => s1 += 1,
                    Scenario::OffOnCriticalPathDominant => s21 += 1,
                    Scenario::OffOnCriticalPathDominated => s22 += 1,
                }
            }
            let n = spec.tasks_per_point as f64;
            points.push(fig8::Point {
                m,
                fraction,
                s1: s1 as f64 / n,
                s21: s21 as f64 / n,
                s22: s22 as f64 / n,
            });
        }
    }
    points
}

/// The pre-engine fig9 inner loop, kept as the serial reference.
fn serial_fig9(config: &fig9::Config) -> Vec<fig9::Point> {
    let spec = BatchSpec::new(config.params.clone(), config.tasks_per_point, config.seed);
    let mut points = Vec::new();
    for &m in &config.core_counts {
        for &fraction in &config.fractions {
            let changes: Vec<f64> = (0..spec.tasks_per_point)
                .map(|i| {
                    let task = spec.task(i, fraction).expect("generation succeeds");
                    let report = HeterogeneousAnalysis::run(&task, m).expect("analysis succeeds");
                    report.improvement_percent()
                })
                .collect();
            let s = summarize(&changes);
            points.push(fig9::Point {
                m,
                fraction,
                mean_change: s.mean,
                max_change: s.max,
            });
        }
    }
    points
}

/// The pre-registry fig6 inner loop, kept as the serial reference.
fn serial_fig6(config: &fig6::Config) -> Vec<fig6::Point> {
    let spec = BatchSpec::new(config.params.clone(), config.tasks_per_point, config.seed);
    let mut points = Vec::new();
    for &m in &config.core_counts {
        for &fraction in &config.fractions {
            let mut sum_orig = 0.0;
            let mut sum_trans = 0.0;
            for i in 0..spec.tasks_per_point {
                let task = spec.task(i, fraction).expect("generation succeeds");
                let t = transform(&task).expect("transformation succeeds");
                let platform = Platform::with_accelerator(m as usize);
                let orig = simulate(
                    task.dag(),
                    Some(task.offloaded()),
                    platform,
                    &mut BreadthFirst::new(),
                )
                .expect("simulation succeeds");
                let trans = simulate(
                    t.transformed(),
                    Some(task.offloaded()),
                    platform,
                    &mut BreadthFirst::new(),
                )
                .expect("simulation succeeds");
                sum_orig += orig.makespan().as_f64();
                sum_trans += trans.makespan().as_f64();
            }
            let n = spec.tasks_per_point as f64;
            let (avg_original, avg_transformed) = (sum_orig / n, sum_trans / n);
            points.push(fig6::Point {
                m,
                fraction,
                avg_original,
                avg_transformed,
                change_percent: percentage_change(avg_original, avg_transformed),
            });
        }
    }
    points
}

/// The pre-registry fig7 inner loop, kept as the serial reference.
fn serial_fig7(config: &fig7::Config) -> Vec<fig7::Point> {
    let mut points = Vec::new();
    for panel in &config.panels {
        let m = panel.m;
        let spec = BatchSpec::new(panel.params.clone(), config.tasks_per_point, config.seed);
        for &fraction in &config.fractions {
            let mut hom_incs = Vec::new();
            let mut het_incs = Vec::new();
            for i in 0..config.tasks_per_point {
                let task = spec.task(i, fraction).expect("generation succeeds");
                let sol = solve(task.dag(), Some(task.offloaded()), m, &config.solver)
                    .expect("solver runs");
                if !sol.is_optimal() {
                    continue; // paper: skip instances the oracle cannot close
                }
                let opt = sol.makespan().as_f64();
                if opt == 0.0 {
                    continue;
                }
                let hom = r_hom_dag(task.dag(), m).expect("m > 0").to_f64();
                let t = transform(&task).expect("transformation succeeds");
                let het = r_het(&t, m).expect("m > 0").value().to_f64();
                hom_incs.push(100.0 * (hom - opt) / opt);
                het_incs.push(100.0 * (het - opt) / opt);
            }
            points.push(fig7::Point {
                m,
                fraction,
                hom_increment: summarize(&hom_incs).mean,
                het_increment: summarize(&het_incs).mean,
                solved: hom_incs.len(),
            });
        }
    }
    points
}

/// The pre-registry conditional ablation loop, kept as the serial
/// reference (seed derivation, skip rules and accumulation order intact).
fn serial_conditional(config: &conditional::Config) -> Vec<conditional::Point> {
    let mut points = Vec::new();
    for &m in &config.core_counts {
        for &p_cond in &config.cond_shares {
            let mut params = hetrta_cond::CondGenParams::small();
            params.p_cond = p_cond;
            params.p_par = (0.65 - p_cond).max(0.1);
            let mut flat_sum = 0.0;
            let mut dp_sum = 0.0;
            let mut realizations = 0.0;
            let mut samples = 0usize;
            for seed in 0..config.exprs_per_point as u64 {
                let mut rng =
                    StdRng::seed_from_u64(seed ^ ((p_cond * 1000.0) as u64) << 20 ^ (m << 40));
                let Ok(e) = hetrta_cond::generate_cond(&params, &mut rng) else {
                    continue;
                };
                let Ok(exact) = hetrta_cond::r_cond_exact(&e, m, config.realization_cap) else {
                    continue;
                };
                let dp = hetrta_cond::r_cond(&e, m).expect("valid expression");
                let flat = hetrta_cond::r_parallel_flattening(&e, m).expect("valid expression");
                if exact.is_zero() {
                    continue;
                }
                flat_sum += (flat.to_f64() / dp.to_f64() - 1.0) * 100.0;
                dp_sum += (dp.to_f64() / exact.to_f64() - 1.0) * 100.0;
                realizations += e.realization_count() as f64;
                samples += 1;
            }
            let d = samples.max(1) as f64;
            points.push(conditional::Point {
                p_cond,
                m,
                flat_overhead: flat_sum / d,
                dp_overhead: dp_sum / d,
                realizations: realizations / d,
                samples,
            });
        }
    }
    points
}

/// The pre-registry suspension-baseline loop, kept as the serial
/// reference.
fn serial_suspension(config: &suspension::Config) -> Vec<suspension::Point> {
    let mut points = Vec::new();
    for &m in &config.core_counts {
        for &pct in &config.percents {
            let f = f64::from(pct) / 100.0;
            let mut oblivious = 0.0;
            let mut barrier = 0.0;
            let mut het = 0.0;
            let mut naive = 0.0;
            let mut worst = 0.0;
            let mut violations = 0usize;
            let mut count = 0usize;
            for seed in 0..config.tasks_per_point as u64 {
                let mut rng = StdRng::seed_from_u64(seed ^ (u64::from(pct) << 24) ^ (m << 48));
                let Ok(dag) = generate_nfj(&NfjParams::small_tasks(), &mut rng) else {
                    continue;
                };
                let Ok(task) = make_hetero_task(
                    dag,
                    OffloadSelection::AnyInterior,
                    CoffSizing::VolumeFraction(f),
                    &mut rng,
                ) else {
                    continue;
                };
                let c = BaselineComparison::compute(&task, m).expect("analysis succeeds");
                let w = explore_worst_case(
                    task.dag(),
                    Some(task.offloaded()),
                    Platform::with_accelerator(m as usize),
                    config.explore_seeds,
                )
                .expect("simulation succeeds")
                .makespan();
                oblivious += c.oblivious.to_f64();
                barrier += c.phase_barrier.to_f64();
                het += c.r_het_tight.to_f64();
                naive += c.naive_unsound.to_f64();
                worst += w.as_f64();
                if w.to_rational() > c.naive_unsound {
                    violations += 1;
                }
                count += 1;
            }
            let n = count.max(1) as f64;
            points.push(suspension::Point {
                m,
                pct,
                oblivious: oblivious / n,
                barrier: barrier / n,
                het: het / n,
                naive: naive / n,
                worst: worst / n,
                violations,
                samples: count,
            });
        }
    }
    points
}

fn small_fig8_config() -> fig8::Config {
    let mut c = fig8::Config::quick();
    c.tasks_per_point = 8;
    c.fractions = vec![0.02, 0.25];
    c
}

fn small_fig9_config() -> fig9::Config {
    let mut c = fig9::Config::quick();
    c.tasks_per_point = 8;
    c.fractions = vec![0.02, 0.30];
    c
}

#[test]
fn fig8_engine_equals_serial_reference() {
    let config = small_fig8_config();
    let serial = serial_fig8(&config);
    let engine = fig8::run(&config).points;
    assert_eq!(engine, serial, "engine fig8 diverges from the serial loop");
}

#[test]
fn fig9_engine_equals_serial_reference_bitwise() {
    let config = small_fig9_config();
    let serial = serial_fig9(&config);
    let engine = fig9::run(&config).points;
    assert_eq!(engine.len(), serial.len());
    for (e, s) in engine.iter().zip(&serial) {
        assert_eq!((e.m, e.fraction), (s.m, s.fraction));
        // Bitwise, not approximate: the engine mirrors the serial
        // reduction order exactly.
        assert_eq!(e.mean_change.to_bits(), s.mean_change.to_bits());
        assert_eq!(e.max_change.to_bits(), s.max_change.to_bits());
    }
}

#[test]
fn fig6_engine_equals_serial_reference_bitwise() {
    let mut config = fig6::Config::quick();
    config.tasks_per_point = 6;
    config.fractions = vec![0.05, 0.40];
    let serial = serial_fig6(&config);
    let engine = fig6::run(&config).points;
    assert_eq!(engine.len(), serial.len());
    for (e, s) in engine.iter().zip(&serial) {
        assert_eq!((e.m, e.fraction), (s.m, s.fraction));
        assert_eq!(e.avg_original.to_bits(), s.avg_original.to_bits());
        assert_eq!(e.avg_transformed.to_bits(), s.avg_transformed.to_bits());
        assert_eq!(e.change_percent.to_bits(), s.change_percent.to_bits());
    }
}

#[test]
fn fig7_engine_equals_serial_reference_bitwise() {
    let config = fig7::Config {
        panels: vec![fig7::Panel {
            m: 2,
            params: NfjParams::small_tasks().with_node_range(3, 12),
        }],
        fractions: vec![0.10, 0.40],
        tasks_per_point: 6,
        solver: hetrta_exact::SolverConfig::default(),
        seed: 0x7007_0002,
    };
    let serial = serial_fig7(&config);
    let engine = fig7::run(&config).points;
    assert_eq!(engine.len(), serial.len());
    for (e, s) in engine.iter().zip(&serial) {
        assert_eq!((e.m, e.fraction), (s.m, s.fraction));
        assert_eq!(e.solved, s.solved, "solved counts diverge at {e:?}");
        assert!(e.solved > 0, "a trivial panel must close instances");
        assert_eq!(e.hom_increment.to_bits(), s.hom_increment.to_bits());
        assert_eq!(e.het_increment.to_bits(), s.het_increment.to_bits());
    }
}

#[test]
fn conditional_engine_equals_serial_reference_bitwise() {
    let config = conditional::Config {
        cond_shares: vec![0.2, 0.4],
        core_counts: vec![2],
        exprs_per_point: 10,
        realization_cap: 512,
    };
    let serial = serial_conditional(&config);
    let engine = conditional::run(&config);
    assert_eq!(engine.len(), serial.len());
    for (e, s) in engine.iter().zip(&serial) {
        assert_eq!((e.m, e.p_cond), (s.m, s.p_cond));
        assert_eq!(e.samples, s.samples, "inclusion rules diverge at {e:?}");
        assert_eq!(e.flat_overhead.to_bits(), s.flat_overhead.to_bits());
        assert_eq!(e.dp_overhead.to_bits(), s.dp_overhead.to_bits());
        assert_eq!(e.realizations.to_bits(), s.realizations.to_bits());
    }
}

#[test]
fn suspension_engine_equals_serial_reference_bitwise() {
    let config = suspension::Config {
        percents: vec![5, 30],
        core_counts: vec![2],
        tasks_per_point: 6,
        explore_seeds: 6,
    };
    let serial = serial_suspension(&config);
    let engine = suspension::run(&config);
    assert_eq!(engine.len(), serial.len());
    for (e, s) in engine.iter().zip(&serial) {
        assert_eq!((e.m, e.pct), (s.m, s.pct));
        assert_eq!(e.samples, s.samples);
        assert_eq!(e.violations, s.violations);
        assert_eq!(e.oblivious.to_bits(), s.oblivious.to_bits());
        assert_eq!(e.barrier.to_bits(), s.barrier.to_bits());
        assert_eq!(e.het.to_bits(), s.het.to_bits());
        assert_eq!(e.naive.to_bits(), s.naive.to_bits());
        assert_eq!(e.worst.to_bits(), s.worst.to_bits());
    }
}

#[test]
fn shared_engine_reuses_transformations_across_experiments() {
    // fig8 and fig9 on the same engine and generator/seed settings: the
    // second experiment's transformations are already memoized.
    let engine = Engine::new(0);
    let mut fig8_config = small_fig8_config();
    fig8_config.seed = 777;
    let mut fig9_config = small_fig9_config();
    fig9_config.seed = 777;
    fig9_config.fractions = fig8_config.fractions.clone();
    fig9_config.core_counts = fig8_config.core_counts.clone();
    fig9_config.params = fig8_config.params.clone();

    let _ = fig8::run_on(&engine, &fig8_config);
    let before = engine.caches().transform_counters();
    let _ = fig9::run_on(&engine, &fig9_config);
    let after = engine.caches().transform_counters();
    assert_eq!(
        after.misses, before.misses,
        "identical workloads must not transform anything anew"
    );
}

#[test]
fn streaming_session_equals_the_serial_reference_bitwise() {
    // The experiments consume `Engine::run`, which is now a thin wrapper
    // over submit+wait. Drive the same fig8 spec through the *streaming*
    // session path — consuming every event — and pin the final aggregate
    // to the serial loop bitwise, so the API redesign provably changed
    // nothing about the numbers.
    use hetrta_engine::{SessionConfig, SweepEvent};

    let config = small_fig8_config();
    let serial = serial_fig8(&config);

    let engine = Engine::new(2);
    let handle = engine
        .submit_with(&fig8::sweep_spec(&config), SessionConfig::with_partials(4))
        .expect("submit");
    let mut finished_jobs = 0usize;
    let mut partials = 0usize;
    while let Some(event) = handle.next_event() {
        match event {
            SweepEvent::JobFinished { .. } => finished_jobs += 1,
            SweepEvent::PartialAggregate { .. } => partials += 1,
            _ => {}
        }
    }
    let out = handle.wait().expect("streamed sweep");
    assert_eq!(finished_jobs, out.stats.jobs);
    assert!(partials > 0, "partial aggregates streamed");

    assert_eq!(out.aggregate.cells.len(), serial.len());
    for (cell, point) in out.aggregate.cells.iter().zip(&serial) {
        use hetrta_engine::CellStat;
        let share = |stat| cell.share(stat).expect("task cell");
        let (s1, s21, s22) = (
            share(CellStat::S1),
            share(CellStat::S21),
            share(CellStat::S22),
        );
        assert_eq!((cell.m, cell.grid_value), (point.m, point.fraction));
        assert_eq!(s1.to_bits(), point.s1.to_bits());
        assert_eq!(s21.to_bits(), point.s21.to_bits());
        assert_eq!(s22.to_bits(), point.s22.to_bits());
    }
}
