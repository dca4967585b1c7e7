//! Figure 8 — occurrence percentages of the Theorem 1 scenarios.
//!
//! Classify randomly generated transformed tasks by the scenario their
//! `R_het` analysis lands in, per core count and offload fraction. The
//! paper's trends: scenario 1 dominates below ~8% offload; scenario 2.2
//! takes over as `C_off` reaches the critical path; scenario 2.1 grows
//! with `C_off` — earlier on larger hosts because `R_hom(G_par)` shrinks
//! with `m`.

use hetrta_engine::{CellStat, Engine, GeneratorPreset, SweepSpec};
use hetrta_gen::series::fraction_sweep_fine;
use hetrta_gen::NfjParams;

use crate::table::{pct, Table};

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Host core counts (paper plots m = 2 and 8; evaluates 2, 4, 8, 16).
    pub core_counts: Vec<u64>,
    /// Offload fractions to sweep (paper: 0.12% … 50%).
    pub fractions: Vec<f64>,
    /// DAGs per sweep point (paper: 100).
    pub tasks_per_point: usize,
    /// Generator parameters (paper: large tasks, n ∈ [100, 250]).
    pub params: NfjParams,
    /// Base RNG seed.
    pub seed: u64,
}

impl Config {
    /// The paper's configuration.
    #[must_use]
    pub fn paper() -> Self {
        Config {
            core_counts: vec![2, 4, 8, 16],
            fractions: fraction_sweep_fine(),
            tasks_per_point: 100,
            params: NfjParams::large_tasks().with_node_range(100, 250),
            seed: 0x8008_0001,
        }
    }

    /// Scaled-down configuration.
    #[must_use]
    pub fn quick() -> Self {
        Config {
            core_counts: vec![2, 8],
            fractions: vec![0.0012, 0.02, 0.10, 0.25, 0.50],
            tasks_per_point: 20,
            params: NfjParams::large_tasks().with_node_range(60, 120),
            seed: 0x8008_0002,
        }
    }
}

/// Scenario shares at one sweep point (fractions in `[0, 1]`, summing to 1).
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// Host core count.
    pub m: u64,
    /// Target `C_off / vol(τ)`.
    pub fraction: f64,
    /// Share of Scenario 1.
    pub s1: f64,
    /// Share of Scenario 2.1.
    pub s21: f64,
    /// Share of Scenario 2.2.
    pub s22: f64,
}

/// Full results of the Figure 8 experiment.
#[derive(Debug, Clone)]
pub struct Results {
    /// All sweep points.
    pub points: Vec<Point>,
}

/// The engine sweep specification equivalent to `config`.
#[must_use]
pub fn sweep_spec(config: &Config) -> SweepSpec {
    SweepSpec::fractions(
        GeneratorPreset::Custom(config.params.clone()),
        config.core_counts.clone(),
        config.fractions.clone(),
        config.tasks_per_point,
        config.seed,
    )
}

/// Runs the experiment on the batch-analysis engine (all cores; each task
/// is transformed once and classified per core count via the engine's
/// content-addressed cache).
///
/// # Panics
///
/// Panics if generation fails for a configuration (deterministic).
#[must_use]
pub fn run(config: &Config) -> Results {
    run_on(&Engine::new(0), config)
}

/// Runs the experiment on an existing engine (sharing its caches).
///
/// # Panics
///
/// Panics if generation fails for a configuration (deterministic).
#[must_use]
pub fn run_on(engine: &Engine, config: &Config) -> Results {
    let out = engine.run(&sweep_spec(config)).expect("sweep succeeds");
    let points = out
        .aggregate
        .cells
        .iter()
        .map(|cell| {
            let share = |stat| {
                cell.share(stat)
                    .expect("fraction sweeps produce task cells")
            };
            Point {
                m: cell.m,
                fraction: cell.grid_value,
                s1: share(CellStat::S1),
                s21: share(CellStat::S21),
                s22: share(CellStat::S22),
            }
        })
        .collect();
    Results { points }
}

impl Results {
    /// Renders one table per core count.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::from("Figure 8: occurrence percentage of Theorem 1 scenarios\n\n");
        let mut ms: Vec<u64> = self.points.iter().map(|p| p.m).collect();
        ms.sort_unstable();
        ms.dedup();
        for m in ms {
            out.push_str(&format!("panel m = {m}\n"));
            let mut table = Table::new(vec![
                "C_off/vol".into(),
                "scenario 1".into(),
                "scenario 2.1".into(),
                "scenario 2.2".into(),
            ]);
            for p in self.points.iter().filter(|p| p.m == m) {
                table.row(vec![pct(p.fraction), pct(p.s1), pct(p.s21), pct(p.s22)]);
            }
            out.push_str(&table.render());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_sum_to_one_and_follow_paper_trends() {
        let r = run(&Config::quick());
        for p in &r.points {
            assert!((p.s1 + p.s21 + p.s22 - 1.0).abs() < 1e-9);
        }
        // Scenario 1 dominates at tiny offload fractions…
        let tiny = r
            .points
            .iter()
            .find(|p| p.m == 2 && p.fraction == 0.0012)
            .unwrap();
        assert!(tiny.s1 > 0.5, "s1 = {} at 0.12%", tiny.s1);
        // …and scenario 2.1 dominates at 50%.
        let big = r
            .points
            .iter()
            .find(|p| p.m == 2 && p.fraction == 0.50)
            .unwrap();
        assert!(big.s21 > 0.5, "s21 = {} at 50%", big.s21);
    }

    #[test]
    fn larger_hosts_reach_scenario_21_earlier() {
        let r = run(&Config::quick());
        let at = |m: u64, f: f64| {
            r.points
                .iter()
                .find(|p| p.m == m && p.fraction == f)
                .unwrap()
        };
        // paper: occurrences of 2.1 start earlier for bigger m
        assert!(at(8, 0.10).s21 >= at(2, 0.10).s21);
    }

    #[test]
    fn render_contains_scenarios() {
        let text = run(&Config::quick()).render();
        assert!(text.contains("scenario 2.1"));
        assert!(text.contains("panel m = 8"));
    }
}
