//! Conditional-analysis ablation (extension, reference \[12\]): pessimism
//! of the flatten-all baseline vs. the conditional-aware DP bound vs.
//! exact per-realization enumeration, over random conditional expressions
//! with a growing conditional share.
//!
//! Runs on the batch-analysis engine via the `cond` registry key: one job
//! per generated expression, with the serial ablation's seed derivation
//! and inclusion rule (samples whose exact enumeration is refused or zero
//! are skipped) reproduced exactly — pinned by the `engine_parity` tests.

use hetrta_cond::CondGenParams;
use hetrta_engine::{CellStat, Engine, SweepSpec};

use crate::table::{pct, Table};

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Conditional shares `p_cond` to sweep.
    pub cond_shares: Vec<f64>,
    /// Host core counts.
    pub core_counts: Vec<u64>,
    /// Expressions per sweep point.
    pub exprs_per_point: usize,
    /// Enumeration cap for the exact bound.
    pub realization_cap: usize,
}

impl Config {
    /// The full ablation (300 expressions per point).
    #[must_use]
    pub fn paper() -> Self {
        Config {
            cond_shares: vec![0.1, 0.2, 0.3, 0.4],
            core_counts: vec![2, 8],
            exprs_per_point: 300,
            realization_cap: 512,
        }
    }

    /// Scaled-down configuration.
    #[must_use]
    pub fn quick() -> Self {
        Config {
            exprs_per_point: 40,
            ..Config::paper()
        }
    }
}

/// One sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// Conditional share `p_cond`.
    pub p_cond: f64,
    /// Host core count.
    pub m: u64,
    /// Mean % by which flattening exceeds the conditional-aware bound.
    pub flat_overhead: f64,
    /// Mean % by which the DP bound exceeds the exact enumeration.
    pub dp_overhead: f64,
    /// Mean realizations per included expression.
    pub realizations: f64,
    /// Included samples (exact enumeration succeeded, nonzero).
    pub samples: usize,
}

/// The engine sweep specification equivalent to `config`.
#[must_use]
pub fn sweep_spec(config: &Config) -> SweepSpec {
    SweepSpec::conditional(
        CondGenParams::small(),
        config.core_counts.clone(),
        config.cond_shares.clone(),
        config.exprs_per_point,
        config.realization_cap,
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
            let mean = |stat| {
                cell.real(stat)
                    .expect("conditional sweeps produce cond cells")
            };
            Point {
                p_cond: cell.grid_value,
                m: cell.m,
                flat_overhead: mean(CellStat::MeanFlatOverhead),
                dp_overhead: mean(CellStat::MeanDpOverhead),
                realizations: mean(CellStat::MeanRealizations),
                samples: cell.count(CellStat::Included).expect("cond cell") as usize,
            }
        })
        .collect()
}

/// Renders the ablation as an ASCII table.
#[must_use]
pub fn render(points: &[Point]) -> String {
    let mut table = Table::new(
        [
            "p_cond",
            "m",
            "avg realizations",
            "flatten vs aware",
            "aware vs exact",
            "samples",
        ]
        .map(String::from)
        .to_vec(),
    );
    let mut ordered: Vec<&Point> = points.iter().collect();
    ordered.sort_by(|a, b| a.p_cond.total_cmp(&b.p_cond).then_with(|| a.m.cmp(&b.m)));
    for p in ordered {
        table.row(vec![
            pct(p.p_cond),
            p.m.to_string(),
            format!("{:.1}", p.realizations),
            format!("+{:.2}%", p.flat_overhead),
            format!("+{:.3}%", p.dp_overhead),
            p.samples.to_string(),
        ]);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Config {
        Config {
            cond_shares: vec![0.2, 0.4],
            core_counts: vec![2],
            exprs_per_point: 12,
            realization_cap: 512,
        }
    }

    #[test]
    fn overheads_are_nonnegative_and_samples_counted() {
        let points = run(&tiny());
        assert_eq!(points.len(), 2);
        for p in &points {
            assert!(p.samples > 0, "no sample included at p_cond = {}", p.p_cond);
            assert!(p.flat_overhead >= -1e-9, "flattening can only add work");
            assert!(p.dp_overhead >= -1e-9, "the DP bound is an upper bound");
            assert!(p.realizations >= 1.0);
        }
    }

    #[test]
    fn render_lists_every_point() {
        let points = run(&tiny());
        let text = render(&points);
        assert!(text.contains("flatten vs aware"));
        assert!(text.contains("20.00%"));
    }
}
