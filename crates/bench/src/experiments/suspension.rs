//! Self-suspending baseline ablation (extension, related work of §6):
//! classical single-task bounds vs. the paper's Theorem 1, swept over the
//! offload fraction, with the unsound naive discount's violation rate.
//!
//! Runs on the batch-analysis engine via the `suspend` registry key: one
//! job per sampled task, with the serial ablation's per-job seed
//! derivation (and its skip-on-generation-failure convention) reproduced
//! exactly — pinned by the `engine_parity` tests.

use hetrta_engine::{CellStat, Engine, SweepSpec};

use crate::table::Table;

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Offload percentages `C_off/vol · 100` to sweep.
    pub percents: Vec<u32>,
    /// Host core counts.
    pub core_counts: Vec<u64>,
    /// Tasks sampled per sweep point.
    pub tasks_per_point: usize,
    /// Random tie-break seeds for the worst-case schedule exploration.
    pub explore_seeds: u64,
}

impl Config {
    /// The full ablation (100 tasks per point, 120 exploration seeds).
    #[must_use]
    pub fn paper() -> Self {
        Config {
            percents: vec![2, 5, 10, 20, 30, 45, 60],
            core_counts: vec![2, 8],
            tasks_per_point: 100,
            explore_seeds: 120,
        }
    }

    /// Scaled-down configuration.
    #[must_use]
    pub fn quick() -> Self {
        Config {
            tasks_per_point: 15,
            explore_seeds: 30,
            ..Config::paper()
        }
    }
}

/// One sweep point (means over the generated samples).
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// Host core count.
    pub m: u64,
    /// Offload percentage.
    pub pct: u32,
    /// Mean suspension-oblivious bound.
    pub oblivious: f64,
    /// Mean phase-barrier bound.
    pub barrier: f64,
    /// Mean `min(R_het, R_hom(τ'))`.
    pub het: f64,
    /// Mean naive (unsound) discount.
    pub naive: f64,
    /// Mean worst observed makespan over the explored schedules.
    pub worst: f64,
    /// Samples whose observed worst case exceeded the naive discount.
    pub violations: usize,
    /// Generated samples.
    pub samples: usize,
}

/// The engine sweep specification equivalent to `config`.
#[must_use]
pub fn sweep_spec(config: &Config) -> SweepSpec {
    SweepSpec::suspension(
        config.core_counts.clone(),
        config
            .percents
            .iter()
            .map(|&pct| f64::from(pct) / 100.0)
            .collect(),
        config.tasks_per_point,
        config.explore_seeds,
    )
}

/// Runs the ablation on the batch-analysis engine (all cores).
///
/// # Panics
///
/// Panics if the sweep fails (deterministic for a configuration).
#[must_use]
pub fn run(config: &Config) -> Vec<Point> {
    run_on(&Engine::new(0), config)
}

/// Runs the ablation on an existing engine (sharing its caches).
///
/// # Panics
///
/// Panics if the sweep fails (deterministic for a configuration).
#[must_use]
pub fn run_on(engine: &Engine, config: &Config) -> Vec<Point> {
    let out = engine.run(&sweep_spec(config)).expect("sweep succeeds");
    out.aggregate
        .cells
        .iter()
        .map(|cell| {
            let mean = |stat| cell.real(stat).expect("suspend selected");
            let violations = cell.count(CellStat::NaiveViolations);
            Point {
                m: cell.m,
                pct: (cell.grid_value * 100.0).round() as u32,
                oblivious: mean(CellStat::SuspendOblivious),
                barrier: mean(CellStat::SuspendBarrier),
                het: mean(CellStat::SuspendHetTight),
                naive: mean(CellStat::SuspendNaive),
                worst: cell.real(CellStat::SuspendWorst).unwrap_or(0.0),
                violations: violations.expect("suspend selected") as usize,
                samples: cell.samples,
            }
        })
        .collect()
}

/// Renders one table per core count.
#[must_use]
pub fn render(points: &[Point]) -> String {
    let mut ms: Vec<u64> = points.iter().map(|p| p.m).collect();
    ms.sort_unstable();
    ms.dedup();
    let mut out = String::new();
    for m in ms {
        out.push_str(&format!("m = {m}\n"));
        let mut table = Table::new(
            [
                "C_off/vol",
                "oblivious",
                "barrier",
                "R_het~",
                "naive(!)",
                "sim-worst",
                "naive-violated",
            ]
            .map(String::from)
            .to_vec(),
        );
        for p in points.iter().filter(|p| p.m == m) {
            table.row(vec![
                format!("{}%", p.pct),
                format!("{:.1}", p.oblivious),
                format!("{:.1}", p.barrier),
                format!("{:.1}", p.het),
                format!("{:.1}", p.naive),
                format!("{:.1}", p.worst),
                format!("{}/{}", p.violations, p.samples),
            ]);
        }
        out.push_str(&table.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Config {
        Config {
            percents: vec![5, 40],
            core_counts: vec![2],
            tasks_per_point: 8,
            explore_seeds: 6,
        }
    }

    #[test]
    fn sound_bounds_dominate_the_observed_worst_case() {
        let points = run(&tiny());
        assert_eq!(points.len(), 2);
        for p in &points {
            assert!(p.samples > 0, "no sample generated at {}%", p.pct);
            // Sound single-task bounds order: R_het~ ≤ oblivious.
            assert!(p.het <= p.oblivious + 1e-9);
            // The observed worst case never exceeds the sound bounds on
            // average (they bound every schedule).
            assert!(p.worst <= p.oblivious + 1e-9);
        }
    }

    #[test]
    fn render_has_the_violation_column() {
        let text = render(&run(&tiny()));
        assert!(text.contains("naive-violated"));
        assert!(text.contains("m = 2"));
    }
}
