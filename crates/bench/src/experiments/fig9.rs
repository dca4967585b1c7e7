//! Figure 9 — `R_hom(τ)` vs `R_het(τ')`.
//!
//! The headline comparison of the paper: the percentage change of the
//! homogeneous bound with respect to the heterogeneous one,
//! `100·(R_hom − R_het)/R_het`, averaged per sweep point. Positive values
//! mean the heterogeneous analysis is tighter.
//!
//! Paper findings reproduced here (§5.4): `R_hom` wins only below
//! 1.6%/3.4%/4.6%/5% offload for m = 2/4/8/16; the maximum average benefit
//! (70%/55%/40%/30%) is reached where `C_off = R_hom(G_par)`; maximum
//! observed differences are 95.0%/82.5%/65.3%/47.7%.

use hetrta_engine::{CellStat, Engine, GeneratorPreset, SweepSpec};
use hetrta_gen::series::fraction_sweep_wide;
use hetrta_gen::NfjParams;

use crate::stats::zero_crossing;
use crate::table::{pct, signed_pct, Table};

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Host core counts (paper: 2, 4, 8, 16).
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
        let mut fractions = vec![0.0012, 0.005];
        fractions.extend(fraction_sweep_wide().into_iter().filter(|&f| f <= 0.5));
        Config {
            core_counts: vec![2, 4, 8, 16],
            fractions,
            tasks_per_point: 100,
            params: NfjParams::large_tasks().with_node_range(100, 250),
            seed: 0x9009_0001,
        }
    }

    /// Scaled-down configuration.
    #[must_use]
    pub fn quick() -> Self {
        Config {
            core_counts: vec![2, 16],
            fractions: vec![0.0012, 0.02, 0.10, 0.30, 0.50],
            tasks_per_point: 16,
            params: NfjParams::large_tasks().with_node_range(60, 120),
            seed: 0x9009_0002,
        }
    }
}

/// One sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// Host core count.
    pub m: u64,
    /// Target `C_off / vol(τ)`.
    pub fraction: f64,
    /// Mean `100·(R_hom − R_het)/R_het` over the batch.
    pub mean_change: f64,
    /// Maximum observed change within the batch.
    pub max_change: f64,
}

/// Full results of the Figure 9 experiment.
#[derive(Debug, Clone)]
pub struct Results {
    /// All sweep points.
    pub points: Vec<Point>,
    /// Per-`m`: fraction below which `R_hom` still wins (crossover).
    pub crossovers: Vec<(u64, Option<f64>)>,
    /// Per-`m`: the sweep point with the maximum average benefit.
    pub peak_benefit: Vec<(u64, f64, f64)>,
    /// Per-`m`: maximum change observed across the whole sweep.
    pub max_observed: Vec<(u64, f64)>,
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

/// Runs the experiment on the batch-analysis engine (all cores).
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
    let points: Vec<Point> = out
        .aggregate
        .cells
        .iter()
        .map(|cell| {
            let change = |stat| cell.real(stat).expect("fraction sweeps produce task cells");
            Point {
                m: cell.m,
                fraction: cell.grid_value,
                mean_change: change(CellStat::MeanImprovement),
                max_change: change(CellStat::MaxImprovement),
            }
        })
        .collect();

    let mut crossovers = Vec::new();
    let mut peak_benefit = Vec::new();
    let mut max_observed = Vec::new();
    for &m in &config.core_counts {
        let series: Vec<(f64, f64)> = points
            .iter()
            .filter(|p| p.m == m)
            .map(|p| (p.fraction, p.mean_change))
            .collect();
        crossovers.push((m, zero_crossing(&series)));
        if let Some(best) = points
            .iter()
            .filter(|p| p.m == m)
            .max_by(|a, b| a.mean_change.total_cmp(&b.mean_change))
        {
            peak_benefit.push((m, best.fraction, best.mean_change));
        }
        let observed = points
            .iter()
            .filter(|p| p.m == m)
            .map(|p| p.max_change)
            .fold(f64::NEG_INFINITY, f64::max);
        max_observed.push((m, observed));
    }

    Results {
        points,
        crossovers,
        peak_benefit,
        max_observed,
    }
}

impl Results {
    /// Renders the figure plus the derived headline numbers.
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
                    .map_or(String::new(), |p| signed_pct(p.mean_change));
                row.push(cell);
            }
            table.row(row);
        }
        let mut out = String::from(
            "Figure 9: percentage change of R_hom(tau) w.r.t. R_het(tau')\n\
             (positive = heterogeneous analysis is tighter)\n\n",
        );
        out.push_str(&table.render());
        out.push('\n');
        for (m, c) in &self.crossovers {
            match c {
                Some(f) => out.push_str(&format!(
                    "  m={m:>2}: R_het overtakes R_hom above C_off/vol ~ {}\n",
                    pct(*f)
                )),
                None => out.push_str(&format!("  m={m:>2}: R_het dominates the whole sweep\n")),
            }
        }
        for (m, f, v) in &self.peak_benefit {
            out.push_str(&format!(
                "  m={m:>2}: peak average benefit {} at C_off/vol = {}\n",
                signed_pct(*v),
                pct(*f)
            ));
        }
        for (m, v) in &self.max_observed {
            out.push_str(&format!(
                "  m={m:>2}: maximum observed difference {}\n",
                signed_pct(*v)
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_trends_hold_in_quick_config() {
        let r = run(&Config::quick());
        let at = |m: u64, f: f64| {
            r.points
                .iter()
                .find(|p| p.m == m && p.fraction == f)
                .unwrap()
        };
        // Tiny offload: hom analysis wins (negative change).
        assert!(at(2, 0.0012).mean_change < 0.0);
        // Large offload: het analysis wins clearly.
        assert!(at(2, 0.30).mean_change > 10.0);
        // Benefit decreases with more cores at the same fraction.
        assert!(at(2, 0.30).mean_change > at(16, 0.30).mean_change);
    }

    #[test]
    fn max_at_least_mean() {
        let r = run(&Config::quick());
        for p in &r.points {
            assert!(p.max_change >= p.mean_change - 1e-9);
        }
    }

    #[test]
    fn render_lists_headlines() {
        let text = run(&Config::quick()).render();
        assert!(text.contains("peak average benefit"));
        assert!(text.contains("maximum observed difference"));
    }
}
