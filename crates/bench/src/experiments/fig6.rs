//! Figure 6 — impact of the DAG transformation on *average* performance.
//!
//! For each host size `m ∈ {2, 4, 8, 16}` and each offload fraction
//! `C_off/vol(τ)`, simulate the original task `τ` and the transformed task
//! `τ'` under the work-conserving breadth-first (GOMP) scheduler and report
//! the percentage change of the average execution time of `τ` with respect
//! to `τ'`: positive values mean the transformation *speeds the task up*
//! on average.
//!
//! Paper findings this reproduces (§5.2): the synchronization point hurts
//! for small `C_off` (crossovers near 11%/8%/6%/4.5% of the volume for
//! m = 2/4/8/16) and helps substantially beyond (τ up to 24% slower than
//! τ' for m = 2).

use hetrta_engine::{CellStat, Engine, GeneratorPreset, SweepSpec};
use hetrta_gen::series::fraction_sweep_wide;
use hetrta_gen::NfjParams;
use hetrta_sim::metrics::percentage_change;

use crate::stats::zero_crossing;
use crate::table::{pct, signed_pct, Table};

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Host core counts (paper: 2, 4, 8, 16).
    pub core_counts: Vec<u64>,
    /// Offload fractions to sweep.
    pub fractions: Vec<f64>,
    /// DAGs per sweep point (paper: 100).
    pub tasks_per_point: usize,
    /// Generator parameters (paper: large tasks, n ∈ [100, 250]).
    pub params: NfjParams,
    /// Base RNG seed.
    pub seed: u64,
}

impl Config {
    /// The paper's full configuration.
    #[must_use]
    pub fn paper() -> Self {
        Config {
            core_counts: vec![2, 4, 8, 16],
            fractions: fraction_sweep_wide(),
            tasks_per_point: 100,
            params: NfjParams::large_tasks().with_node_range(100, 250),
            seed: 0x6006_0001,
        }
    }

    /// A scaled-down configuration for CI and Criterion benches.
    #[must_use]
    pub fn quick() -> Self {
        Config {
            core_counts: vec![2, 8],
            fractions: vec![0.02, 0.10, 0.30, 0.60],
            tasks_per_point: 12,
            params: NfjParams::large_tasks().with_node_range(60, 120),
            seed: 0x6006_0002,
        }
    }
}

/// One sweep point of the figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// Host core count.
    pub m: u64,
    /// Target `C_off / vol(τ)`.
    pub fraction: f64,
    /// Average breadth-first makespan of the original task `τ`.
    pub avg_original: f64,
    /// Average breadth-first makespan of the transformed task `τ'`.
    pub avg_transformed: f64,
    /// `100·(avg_original − avg_transformed)/avg_transformed`.
    pub change_percent: f64,
}

/// Full results of the Figure 6 experiment.
#[derive(Debug, Clone)]
pub struct Results {
    /// All sweep points, grouped by core count then fraction.
    pub points: Vec<Point>,
    /// Per-`m` crossover fraction (where the transformation starts to pay
    /// off on average), if observed within the sweep.
    pub crossovers: Vec<(u64, Option<f64>)>,
}

/// The engine sweep specification equivalent to `config`: a simulation
/// grid (`sim` registry key with `sim_transformed`) over the offload
/// fractions.
#[must_use]
pub fn sweep_spec(config: &Config) -> SweepSpec {
    SweepSpec::simulation_impact(
        GeneratorPreset::Custom(config.params.clone()),
        config.core_counts.clone(),
        config.fractions.clone(),
        config.tasks_per_point,
        config.seed,
    )
}

/// Runs the experiment on the batch-analysis engine (all cores).
///
/// # Panics
///
/// Panics if generation fails (attempt budget exhausted) — deterministic
/// for a given configuration, so this indicates a misconfiguration rather
/// than flakiness.
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
    let points: Vec<Point> = out
        .aggregate
        .cells
        .iter()
        .map(|cell| {
            let avg_original = cell
                .real(CellStat::MeanSimMakespan)
                .expect("simulation selected");
            let avg_transformed = cell
                .real(CellStat::MeanSimTransformed)
                .expect("sim_transformed selected");
            Point {
                m: cell.m,
                fraction: cell.grid_value,
                avg_original,
                avg_transformed,
                change_percent: percentage_change(avg_original, avg_transformed),
            }
        })
        .collect();

    let crossovers = config
        .core_counts
        .iter()
        .map(|&m| {
            let series: Vec<(f64, f64)> = points
                .iter()
                .filter(|p| p.m == m)
                .map(|p| (p.fraction, p.change_percent))
                .collect();
            (m, zero_crossing(&series))
        })
        .collect();

    Results { points, crossovers }
}

impl Results {
    /// Renders the figure as an ASCII table (one column per `m`).
    #[must_use]
    pub fn render(&self) -> String {
        let mut ms: Vec<u64> = self.points.iter().map(|p| p.m).collect();
        ms.sort_unstable();
        ms.dedup();
        let mut header = vec!["C_off/vol".to_owned()];
        header.extend(ms.iter().map(|m| format!("m={m}")));
        let mut table = Table::new(header);
        let mut fracs: Vec<f64> = self.points.iter().map(|p| p.fraction).collect();
        fracs.sort_by(f64::total_cmp);
        fracs.dedup();
        for f in fracs {
            let mut row = vec![pct(f)];
            for &m in &ms {
                let cell = self
                    .points
                    .iter()
                    .find(|p| p.m == m && p.fraction == f)
                    .map_or(String::new(), |p| signed_pct(p.change_percent));
                row.push(cell);
            }
            table.row(row);
        }
        let mut out = String::from(
            "Figure 6: percentage change of avg execution time of tau w.r.t. tau'\n\
             (positive = transformed task is faster on average)\n\n",
        );
        out.push_str(&table.render());
        out.push('\n');
        for (m, c) in &self.crossovers {
            match c {
                Some(f) => out.push_str(&format!(
                    "  m={m:>2}: transformation pays off above C_off/vol ~ {}\n",
                    pct(*f)
                )),
                None => out.push_str(&format!("  m={m:>2}: no crossover within the sweep\n")),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_shows_paper_shape() {
        let r = run(&Config::quick());
        assert_eq!(r.points.len(), 2 * 4);
        // Small fraction: transformation hurts or is neutral on average;
        // large fraction: it must help for m = 2.
        let small = r
            .points
            .iter()
            .find(|p| p.m == 2 && p.fraction == 0.02)
            .unwrap();
        let large = r
            .points
            .iter()
            .find(|p| p.m == 2 && p.fraction == 0.60)
            .unwrap();
        assert!(small.change_percent < large.change_percent);
        assert!(large.change_percent > 0.0, "60% offload must favour tau'");
    }

    #[test]
    fn render_contains_all_columns() {
        let r = run(&Config::quick());
        let text = r.render();
        assert!(text.contains("m=2"));
        assert!(text.contains("m=8"));
        assert!(text.contains("C_off/vol"));
    }
}
