//! Figure 7 — accuracy of `R_hom` / `R_het` against the minimum makespan.
//!
//! For small tasks, compute the exact minimum makespan of the
//! heterogeneous task `τ` (branch-and-bound, substituting the paper's
//! CPLEX ILP) and report the percentage increment of the analytical bounds
//! over it: `100·(R − makespan_min)/makespan_min`.
//!
//! The paper's panels: (a) `m = 2`, `n ∈ [3, 20]`; (b) `m = 8`,
//! `n ∈ [30, 60]`. Instances the solver cannot close within its node
//! budget are skipped, exactly as the paper skips instances CPLEX could
//! not solve within 12 hours.

use hetrta_engine::{CellStat, Engine, GeneratorPreset, SweepSpec};
use hetrta_exact::SolverConfig;
use hetrta_gen::series::fraction_sweep_fine;
use hetrta_gen::NfjParams;

use crate::table::{pct, signed_pct, Table};

/// One panel of the figure: a host size plus a node-count range.
#[derive(Debug, Clone)]
pub struct Panel {
    /// Host core count.
    pub m: u64,
    /// Generator parameters.
    pub params: NfjParams,
}

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Panels (paper: `(2, n ∈ [3,20])` and `(8, n ∈ [30,60])`).
    pub panels: Vec<Panel>,
    /// Offload fractions to sweep.
    pub fractions: Vec<f64>,
    /// DAGs per sweep point (paper: 100).
    pub tasks_per_point: usize,
    /// Exact-solver budget per instance. The engine path honors
    /// [`SolverConfig::max_nodes`] only (see [`panel_spec`]); the other
    /// solver knobs keep their defaults.
    pub solver: SolverConfig,
    /// Base RNG seed.
    pub seed: u64,
}

impl Config {
    /// The paper's configuration (small tasks; solver budget playing the
    /// role of the 12-hour CPLEX cutoff).
    #[must_use]
    pub fn paper() -> Self {
        Config {
            panels: vec![
                Panel {
                    m: 2,
                    params: NfjParams::small_tasks().with_node_range(3, 20),
                },
                Panel {
                    m: 8,
                    params: NfjParams::small_tasks().with_node_range(30, 60),
                },
            ],
            fractions: fraction_sweep_fine(),
            tasks_per_point: 100,
            solver: SolverConfig::default(),
            seed: 0x7007_0001,
        }
    }

    /// Scaled-down configuration.
    #[must_use]
    pub fn quick() -> Self {
        Config {
            panels: vec![
                Panel {
                    m: 2,
                    params: NfjParams::small_tasks().with_node_range(3, 20),
                },
                Panel {
                    m: 8,
                    params: NfjParams::small_tasks().with_node_range(20, 40),
                },
            ],
            fractions: vec![0.01, 0.10, 0.30, 0.50],
            tasks_per_point: 10,
            solver: SolverConfig {
                max_nodes: 200_000,
                ..SolverConfig::default()
            },
            seed: 0x7007_0002,
        }
    }
}

/// One sweep point of one panel.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// Host core count.
    pub m: u64,
    /// Target `C_off / vol(τ)`.
    pub fraction: f64,
    /// Mean % increment of `R_hom(τ)` over the minimum makespan.
    pub hom_increment: f64,
    /// Mean % increment of `R_het(τ')` over the minimum makespan.
    pub het_increment: f64,
    /// Instances where the solver proved optimality (of `tasks_per_point`).
    pub solved: usize,
}

/// Full results of the Figure 7 experiment.
#[derive(Debug, Clone)]
pub struct Results {
    /// All sweep points.
    pub points: Vec<Point>,
}

/// The engine sweep specification equivalent to one panel of `config`: an
/// exact-accuracy grid (`exact`, `hom`, `het` registry keys) whose cells
/// report the bounds' mean increment over solved instances.
///
/// The engine path honors the solver's node budget
/// ([`SolverConfig::max_nodes`]); the remaining solver knobs use their
/// defaults.
#[must_use]
pub fn panel_spec(config: &Config, panel: &Panel) -> SweepSpec {
    let mut spec = SweepSpec::exact_accuracy(
        GeneratorPreset::Custom(panel.params.clone()),
        vec![panel.m],
        config.fractions.clone(),
        config.tasks_per_point,
        config.seed,
    );
    spec.exact_node_budget = Some(config.solver.max_nodes);
    spec
}

/// Runs the experiment on the batch-analysis engine (all cores), one sweep
/// per panel.
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
    let mut points = Vec::new();
    for panel in &config.panels {
        let out = engine
            .run(&panel_spec(config, panel))
            .expect("sweep succeeds");
        points.extend(out.aggregate.cells.iter().map(|cell| {
            let increment = |stat| cell.real(stat).expect("exact+hom+het selected");
            Point {
                m: cell.m,
                fraction: cell.grid_value,
                hom_increment: increment(CellStat::HomIncrement),
                het_increment: increment(CellStat::HetIncrement),
                solved: cell
                    .count(CellStat::Solved)
                    .expect("exact+hom+het selected") as usize,
            }
        }));
    }
    Results { points }
}

impl Results {
    /// Renders both panels as ASCII tables.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::from(
            "Figure 7: increment of R_hom(tau) and R_het(tau') w.r.t. the minimum makespan\n\n",
        );
        let mut ms: Vec<u64> = self.points.iter().map(|p| p.m).collect();
        ms.sort_unstable();
        ms.dedup();
        for m in ms {
            out.push_str(&format!("panel m = {m}\n"));
            let mut table = Table::new(vec![
                "C_off/vol".into(),
                "R_hom inc".into(),
                "R_het inc".into(),
                "solved".into(),
            ]);
            for p in self.points.iter().filter(|p| p.m == m) {
                table.row(vec![
                    pct(p.fraction),
                    signed_pct(p.hom_increment),
                    signed_pct(p.het_increment),
                    format!("{}", p.solved),
                ]);
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
    fn quick_run_matches_paper_trends() {
        let r = run(&Config::quick());
        assert_eq!(r.points.len(), 2 * 4);
        for p in &r.points {
            assert!(
                p.solved > 0,
                "no instance solved at m={} f={}",
                p.m,
                p.fraction
            );
            // bounds are upper bounds: increments never negative
            assert!(p.hom_increment >= -1e-9);
            assert!(p.het_increment >= -1e-9);
        }
        // R_het pessimism shrinks as C_off grows (paper: <1% at large
        // fractions for m=2).
        let small = r
            .points
            .iter()
            .find(|p| p.m == 2 && p.fraction == 0.01)
            .unwrap();
        let large = r
            .points
            .iter()
            .find(|p| p.m == 2 && p.fraction == 0.50)
            .unwrap();
        assert!(large.het_increment < small.het_increment);
    }

    #[test]
    fn render_has_two_panels() {
        let r = run(&Config::quick());
        let text = r.render();
        assert!(text.contains("panel m = 2"));
        assert!(text.contains("panel m = 8"));
    }
}
