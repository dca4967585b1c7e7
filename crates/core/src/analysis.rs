//! One-call analysis façade.

use hetrta_dag::algo::CriticalPath;
use hetrta_dag::{HeteroDagTask, Rational, Ticks};

use crate::rta::{r_het, r_hom_parts, HetBound, Scenario};
use crate::transform::{transform_with_critical_path, TransformedTask};
use crate::AnalysisError;

/// Entry point combining Algorithm 1 and Theorem 1.
///
/// See [`HeterogeneousAnalysis::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeterogeneousAnalysis;

/// Everything the analysis of one task on one platform produces.
///
/// Produced by [`HeterogeneousAnalysis::run`]; exposes (per the paper's
/// comparison methodology):
///
/// * `R_hom(τ)` — Eq. 1 on the *original* DAG, the homogeneous-analysis
///   baseline of §5.4;
/// * `R_hom(τ')` — Eq. 1 on the *transformed* DAG (what a homogeneous
///   analysis would say about the transformed program);
/// * `R_het(τ')` — Theorem 1, with its [`Scenario`];
/// * the full [`TransformedTask`] for further inspection or simulation;
/// * a deadline verdict.
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    transformed: TransformedTask,
    het: HetBound,
    r_hom_original: Rational,
    r_hom_transformed: Rational,
    m: u64,
}

impl HeterogeneousAnalysis {
    /// Analyzes `task` on a host with `m` cores plus one accelerator.
    ///
    /// # Errors
    ///
    /// - [`AnalysisError::ZeroCores`] if `m == 0`;
    /// - [`AnalysisError::Dag`] if the task graph is structurally invalid.
    ///
    /// # Examples
    ///
    /// ```
    /// use hetrta_core::HeterogeneousAnalysis;
    /// use hetrta_dag::{DagBuilder, HeteroDagTask, Ticks};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut b = DagBuilder::new();
    /// let pre = b.node("pre", Ticks::new(2));
    /// let gpu = b.node("gpu", Ticks::new(20));
    /// let cpu = b.node("cpu", Ticks::new(18));
    /// let post = b.node("post", Ticks::new(2));
    /// b.edges([(pre, gpu), (pre, cpu), (gpu, post), (cpu, post)])?;
    /// let task = HeteroDagTask::new(b.build()?, gpu, Ticks::new(60), Ticks::new(40))?;
    ///
    /// let report = HeterogeneousAnalysis::run(&task, 2)?;
    /// assert!(report.is_schedulable());
    /// assert!(report.r_het() <= report.r_hom_original());
    /// # Ok(())
    /// # }
    /// ```
    pub fn run(task: &HeteroDagTask, m: u64) -> Result<AnalysisReport, AnalysisError> {
        if m == 0 {
            return Err(AnalysisError::ZeroCores);
        }
        // One critical path of G feeds Algorithm 1 and Eq. 1 on τ; Eq. 1
        // on τ' reads the transformation's numbers (vol(G) = vol(G')).
        let cp = CriticalPath::try_of(task.dag())?;
        let transformed = transform_with_critical_path(task, &cp)?;
        let het = r_het(&transformed, m)?;
        let r_hom_original = r_hom_parts(cp.length(), transformed.vol_transformed(), m)?;
        let r_hom_transformed = r_hom_parts(
            transformed.len_transformed(),
            transformed.vol_transformed(),
            m,
        )?;
        Ok(AnalysisReport {
            transformed,
            het,
            r_hom_original,
            r_hom_transformed,
            m,
        })
    }
}

impl AnalysisReport {
    /// The heterogeneous bound `R_het(τ')` (Theorem 1).
    #[must_use]
    pub fn r_het(&self) -> Rational {
        self.het.value()
    }

    /// The homogeneous baseline `R_hom(τ)` (Eq. 1 on the original DAG).
    #[must_use]
    pub fn r_hom_original(&self) -> Rational {
        self.r_hom_original
    }

    /// `R_hom(τ')`: Eq. 1 applied to the transformed DAG.
    ///
    /// Always ≥ [`r_het`](AnalysisReport::r_het); the gap is exactly the
    /// benefit of accounting for heterogeneity.
    #[must_use]
    pub fn r_hom_transformed(&self) -> Rational {
        self.r_hom_transformed
    }

    /// The scenario of Theorem 1 that applied.
    #[must_use]
    pub fn scenario(&self) -> Scenario {
        self.het.scenario()
    }

    /// `R_hom(G_par)` used for the scenario decision.
    #[must_use]
    pub fn r_hom_g_par(&self) -> Rational {
        self.het.r_hom_g_par()
    }

    /// The transformation artifacts (G', v_sync, G_par).
    #[must_use]
    pub fn transformed(&self) -> &TransformedTask {
        &self.transformed
    }

    /// Host core count of the analysis.
    #[must_use]
    pub fn cores(&self) -> u64 {
        self.m
    }

    /// The best (smallest) sound bound this analysis derived:
    /// `min(R_het(τ'), R_hom(τ))`.
    ///
    /// `R_hom(τ)` is sound for the original, untransformed program;
    /// `R_het(τ')` for the transformed one. A designer free to pick either
    /// program version can take the minimum — the paper's Figure 9 shows
    /// which wins where.
    #[must_use]
    pub fn best_bound(&self) -> Rational {
        self.het.value().min(self.r_hom_original)
    }

    /// Deadline verdict for the transformed task:
    /// `R_het(τ') ≤ D`.
    #[must_use]
    pub fn is_schedulable(&self) -> bool {
        self.r_het() <= self.deadline().to_rational()
    }

    /// Deadline verdict for the original task under the homogeneous
    /// analysis: `R_hom(τ) ≤ D`.
    #[must_use]
    pub fn is_schedulable_homogeneous(&self) -> bool {
        self.r_hom_original <= self.deadline().to_rational()
    }

    /// The task's relative deadline.
    #[must_use]
    pub fn deadline(&self) -> Ticks {
        self.transformed.original().deadline()
    }

    /// Percentage change of `R_hom(τ)` with respect to `R_het(τ')`
    /// (the paper's Figure 9 metric): `100·(R_hom − R_het)/R_het`.
    ///
    /// Positive values mean the heterogeneous analysis is tighter.
    #[must_use]
    pub fn improvement_percent(&self) -> f64 {
        let het = self.r_het().to_f64();
        if het == 0.0 {
            return 0.0;
        }
        100.0 * (self.r_hom_original.to_f64() - het) / het
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetrta_dag::DagBuilder;

    fn figure1_task(deadline: u64) -> HeteroDagTask {
        let mut b = DagBuilder::new();
        let v1 = b.node("v1", Ticks::new(1));
        let v2 = b.node("v2", Ticks::new(4));
        let v3 = b.node("v3", Ticks::new(6));
        let v4 = b.node("v4", Ticks::new(2));
        let v5 = b.node("v5", Ticks::new(1));
        let voff = b.node("v_off", Ticks::new(4));
        b.edges([
            (v1, v2),
            (v1, v3),
            (v1, v4),
            (v4, voff),
            (v2, v5),
            (v3, v5),
            (voff, v5),
        ])
        .unwrap();
        HeteroDagTask::new(
            b.build().unwrap(),
            voff,
            Ticks::new(deadline),
            Ticks::new(deadline),
        )
        .unwrap()
    }

    #[test]
    fn report_exposes_all_bounds() {
        let report = HeterogeneousAnalysis::run(&figure1_task(50), 2).unwrap();
        assert_eq!(report.r_hom_original(), Rational::from_integer(13));
        assert_eq!(report.r_het(), Rational::from_integer(12));
        // R_hom(τ') = 10 + (18-10)/2 = 14
        assert_eq!(report.r_hom_transformed(), Rational::from_integer(14));
        assert_eq!(report.scenario(), Scenario::OffNotOnCriticalPath);
        assert_eq!(report.cores(), 2);
        assert_eq!(report.best_bound(), Rational::from_integer(12));
        assert!((report.improvement_percent() - 100.0 / 12.0).abs() < 1e-9);
    }

    #[test]
    fn het_always_at_most_hom_on_transformed() {
        for m in [1u64, 2, 4, 8, 16] {
            let report = HeterogeneousAnalysis::run(&figure1_task(50), m).unwrap();
            assert!(report.r_het() <= report.r_hom_transformed());
        }
    }

    #[test]
    fn schedulability_verdicts() {
        // D = 12: het says yes (R_het = 12), hom says no (R_hom = 13).
        let report = HeterogeneousAnalysis::run(&figure1_task(12), 2).unwrap();
        assert!(report.is_schedulable());
        assert!(!report.is_schedulable_homogeneous());
        assert_eq!(report.deadline(), Ticks::new(12));

        // D = 11: both say no.
        let report = HeterogeneousAnalysis::run(&figure1_task(11), 2).unwrap();
        assert!(!report.is_schedulable());
    }

    #[test]
    fn zero_cores_error() {
        assert_eq!(
            HeterogeneousAnalysis::run(&figure1_task(50), 0).unwrap_err(),
            AnalysisError::ZeroCores
        );
    }

    #[test]
    fn more_cores_tighten_both_bounds() {
        let r2 = HeterogeneousAnalysis::run(&figure1_task(50), 2).unwrap();
        let r16 = HeterogeneousAnalysis::run(&figure1_task(50), 16).unwrap();
        assert!(r16.r_het() <= r2.r_het());
        assert!(r16.r_hom_original() <= r2.r_hom_original());
    }

    #[test]
    fn improvement_can_be_negative_for_tiny_coff() {
        // Tiny C_off: the barrier hurts; R_hom(τ) < R_het(τ').
        let mut b = DagBuilder::new();
        let v1 = b.node("v1", Ticks::new(1));
        let v2 = b.node("v2", Ticks::new(40));
        let v3 = b.node("v3", Ticks::new(60));
        let v4 = b.node("v4", Ticks::new(20));
        let v5 = b.node("v5", Ticks::new(1));
        let voff = b.node("v_off", Ticks::new(1)); // ~0.8% of volume
        b.edges([
            (v1, v2),
            (v1, v3),
            (v1, v4),
            (v4, voff),
            (v2, v5),
            (v3, v5),
            (voff, v5),
        ])
        .unwrap();
        let task =
            HeteroDagTask::new(b.build().unwrap(), voff, Ticks::new(500), Ticks::new(500)).unwrap();
        let report = HeterogeneousAnalysis::run(&task, 2).unwrap();
        assert!(report.improvement_percent() < 0.0);
        assert_eq!(report.best_bound(), report.r_hom_original());
    }
}
