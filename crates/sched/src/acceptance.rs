//! Acceptance-ratio experiments — the standard empirical methodology for
//! comparing schedulability tests.
//!
//! For each target *normalized utilization* `U/m`, the sweep generates
//! many random task sets ([`taskset`](crate::taskset)) and reports, per
//! test, the fraction the test accepts. A test that dominates another
//! shows a curve shifted to the right: it keeps accepting at utilizations
//! where the other already gives up. This quantifies at the task-*set*
//! level the paper's single-task claim that `R_het` outperforms `R_hom`
//! once enough work is offloaded.

use hetrta_core::federated::{federated_partition, AnalysisKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::gedf::gedf_test;
use crate::gfp::gfp_test;
use crate::model::{AnalysisModel, DeviceModel};
use crate::taskset::{generate_task_set, sort_deadline_monotonic, TaskSetParams};
use crate::SchedError;

/// The schedulability tests an acceptance sweep compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TestKind {
    /// Global FP (DM priorities), homogeneous model.
    GfpHomogeneous,
    /// Global FP (DM priorities), heterogeneous model (dedicated devices).
    GfpHeterogeneous,
    /// Global EDF, homogeneous model.
    GedfHomogeneous,
    /// Global EDF, heterogeneous model (dedicated devices).
    GedfHeterogeneous,
    /// Federated clustering sized with Eq. 1.
    FederatedHomogeneous,
    /// Federated clustering sized with Theorem 1.
    FederatedHeterogeneous,
}

impl TestKind {
    /// All tests, in presentation order.
    pub const ALL: [TestKind; 6] = [
        TestKind::GfpHomogeneous,
        TestKind::GfpHeterogeneous,
        TestKind::GedfHomogeneous,
        TestKind::GedfHeterogeneous,
        TestKind::FederatedHomogeneous,
        TestKind::FederatedHeterogeneous,
    ];

    /// Short column label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            TestKind::GfpHomogeneous => "GFP-hom",
            TestKind::GfpHeterogeneous => "GFP-het",
            TestKind::GedfHomogeneous => "GEDF-hom",
            TestKind::GedfHeterogeneous => "GEDF-het",
            TestKind::FederatedHomogeneous => "FED-hom",
            TestKind::FederatedHeterogeneous => "FED-het",
        }
    }
}

/// Configuration of an acceptance-ratio sweep.
#[derive(Debug, Clone)]
pub struct AcceptanceConfig {
    /// Host cores `m`.
    pub cores: u64,
    /// Tasks per set.
    pub n_tasks: usize,
    /// Random sets per utilization point.
    pub sets_per_point: usize,
    /// Normalized utilizations `U/m` to sweep (e.g. `0.1, 0.2, …, 1.0`).
    pub normalized_utils: Vec<f64>,
    /// Task-set template; its `total_util` field is overwritten per point.
    pub template: TaskSetParams,
    /// Base RNG seed (point `i`, set `s` uses a seed derived from it).
    pub seed: u64,
}

impl AcceptanceConfig {
    /// A compact default: `m` cores, 4 small tasks per set, 11 utilization
    /// points from 0.05 to 0.95·m.
    #[must_use]
    pub fn quick(cores: u64) -> Self {
        AcceptanceConfig {
            cores,
            n_tasks: 4,
            sets_per_point: 50,
            normalized_utils: (1..=19).step_by(2).map(|i| i as f64 / 20.0).collect(),
            template: TaskSetParams::small(4, 1.0),
            seed: 0xDAC_2018,
        }
    }
}

/// Acceptance ratios at one utilization point.
#[derive(Debug, Clone, PartialEq)]
pub struct AcceptancePoint {
    /// `U/m` at this point.
    pub normalized_util: f64,
    /// Sets generated.
    pub sets: usize,
    /// `(test, accepted count)` in [`TestKind::ALL`] order.
    pub accepted: Vec<(TestKind, usize)>,
}

impl AcceptancePoint {
    /// Acceptance ratio of `test` in `[0, 1]`.
    #[must_use]
    pub fn ratio(&self, test: TestKind) -> f64 {
        self.accepted
            .iter()
            .find(|(t, _)| *t == test)
            .map_or(0.0, |(_, n)| *n as f64 / self.sets.max(1) as f64)
    }
}

/// The RNG seed of set `set_index` at utilization point `point_index`.
///
/// The base seed goes through a SplitMix64 finalizer before the point and
/// set indices are XORed in: without the mixing step, base seeds that
/// differ only in their low bits (0, 1, 2, …) would produce overlapping
/// per-set seed ranges, silently regenerating identical "independent"
/// sets. Both the serial sweep below and the parallel engine
/// (`hetrta-engine`) derive seeds through this function, which is what
/// keeps their acceptance ratios identical.
#[must_use]
pub fn point_seed(base_seed: u64, point_index: usize, set_index: usize) -> u64 {
    splitmix64(base_seed) ^ ((point_index as u64) << 32) ^ set_index as u64
}

/// The SplitMix64 finalizer used to decorrelate nearby base seeds (shared
/// by [`point_seed`] and the engine's sampled-grid seed derivations).
#[must_use]
pub fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Runs the acceptance sweep and returns one point per normalized
/// utilization.
///
/// # Errors
///
/// - [`SchedError::InvalidParams`] for an empty sweep or zero sets;
/// - generation/analysis errors from the underlying modules.
pub fn acceptance_sweep(config: &AcceptanceConfig) -> Result<Vec<AcceptancePoint>, SchedError> {
    if config.normalized_utils.is_empty() || config.sets_per_point == 0 {
        return Err(SchedError::InvalidParams(
            "sweep needs at least one utilization point and one set".into(),
        ));
    }
    if config.cores == 0 {
        return Err(SchedError::ZeroCores);
    }
    let het = AnalysisModel::Heterogeneous(DeviceModel::DedicatedPerTask);
    let mut points = Vec::with_capacity(config.normalized_utils.len());
    for (pi, &nu) in config.normalized_utils.iter().enumerate() {
        let mut counts = [0usize; 6];
        for s in 0..config.sets_per_point {
            let mut params = config.template.clone();
            params.n_tasks = config.n_tasks;
            params.total_util = nu * config.cores as f64;
            let mut rng = StdRng::seed_from_u64(point_seed(config.seed, pi, s));
            let mut set = generate_task_set(&params, &mut rng)?;
            sort_deadline_monotonic(&mut set);

            if gfp_test(&set, config.cores, AnalysisModel::Homogeneous)?.is_schedulable() {
                counts[0] += 1;
            }
            if gfp_test(&set, config.cores, het)?.is_schedulable() {
                counts[1] += 1;
            }
            if gedf_test(&set, config.cores, AnalysisModel::Homogeneous)?.is_schedulable() {
                counts[2] += 1;
            }
            if gedf_test(&set, config.cores, het)?.is_schedulable() {
                counts[3] += 1;
            }
            if federated_partition(&set, config.cores, AnalysisKind::Homogeneous)?.is_schedulable()
            {
                counts[4] += 1;
            }
            if federated_partition(&set, config.cores, AnalysisKind::Heterogeneous)?
                .is_schedulable()
            {
                counts[5] += 1;
            }
        }
        points.push(AcceptancePoint {
            normalized_util: nu,
            sets: config.sets_per_point,
            accepted: TestKind::ALL.iter().copied().zip(counts).collect(),
        });
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> AcceptanceConfig {
        AcceptanceConfig {
            cores: 2,
            n_tasks: 3,
            sets_per_point: 8,
            normalized_utils: vec![0.2, 0.6, 1.0],
            template: TaskSetParams::small(3, 1.0).with_offload_fraction(0.15, 0.35),
            seed: 42,
        }
    }

    #[test]
    fn sweep_produces_one_point_per_utilization() {
        let points = acceptance_sweep(&tiny_config()).unwrap();
        assert_eq!(points.len(), 3);
        for p in &points {
            assert_eq!(p.sets, 8);
            assert_eq!(p.accepted.len(), 6);
            for &(t, n) in &p.accepted {
                assert!(n <= p.sets, "{t:?} accepted more sets than generated");
            }
        }
    }

    #[test]
    fn acceptance_declines_with_utilization() {
        let points = acceptance_sweep(&tiny_config()).unwrap();
        // At 20 % of 2 cores almost everything passes; at 100 % almost
        // nothing should (workload exceeds what bounds can admit).
        for t in TestKind::ALL {
            assert!(
                points[0].ratio(t) >= points[2].ratio(t),
                "{t:?}: low-util ratio below high-util ratio"
            );
        }
    }

    #[test]
    fn het_tests_dominate_hom_counterparts() {
        // With sizeable offload fractions the heterogeneous tests accept
        // at least as many sets (same generated sets per seed).
        let points = acceptance_sweep(&tiny_config()).unwrap();
        for p in &points {
            assert!(p.ratio(TestKind::GfpHeterogeneous) >= p.ratio(TestKind::GfpHomogeneous));
            assert!(p.ratio(TestKind::GedfHeterogeneous) >= p.ratio(TestKind::GedfHomogeneous));
            assert!(
                p.ratio(TestKind::FederatedHeterogeneous)
                    >= p.ratio(TestKind::FederatedHomogeneous)
            );
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut c = tiny_config();
        c.normalized_utils.clear();
        assert!(acceptance_sweep(&c).is_err());
        let mut c = tiny_config();
        c.sets_per_point = 0;
        assert!(acceptance_sweep(&c).is_err());
        let mut c = tiny_config();
        c.cores = 0;
        assert!(acceptance_sweep(&c).is_err());
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            TestKind::ALL.iter().map(|t| t.label()).collect();
        assert_eq!(labels.len(), 6);
    }
}
