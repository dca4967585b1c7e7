//! # hetrta-core — heterogeneous DAG response-time analysis
//!
//! The primary contribution of *Serrano & Quiñones, "Response-Time Analysis
//! of DAG Tasks Supporting Heterogeneous Computing", DAC 2018*, implemented
//! from scratch:
//!
//! * [`transform`](crate::transform()) — **Algorithm 1**: given a heterogeneous DAG task `τ`
//!   whose node `v_off` executes on an accelerator, build the transformed
//!   task `τ'` by inserting a zero-WCET synchronization node `v_sync` that
//!   guarantees `v_off` and the parallel sub-DAG `G_par` start together;
//! * [`rta`] — **Equation 1** (the Graham-style homogeneous bound `R_hom`)
//!   and **Theorem 1** (the scenario-based heterogeneous bounds `R_het`,
//!   Equations 2–4);
//! * [`analysis`] — a one-call façade ([`HeterogeneousAnalysis`]) combining
//!   transformation, scenario classification, both bounds and a
//!   schedulability verdict;
//! * [`properties`] — executable statements of the structural invariants the
//!   proof of Theorem 1 relies on (used by the test suites and available to
//!   downstream users for auditing).
//!
//! ## The worked example of the paper (Figures 1–2)
//!
//! ```
//! use hetrta_core::HeterogeneousAnalysis;
//! use hetrta_dag::{DagBuilder, HeteroDagTask, Rational, Ticks};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = DagBuilder::new();
//! let v1 = b.node("v1", Ticks::new(1));
//! let v2 = b.node("v2", Ticks::new(4));
//! let v3 = b.node("v3", Ticks::new(6));
//! let v4 = b.node("v4", Ticks::new(2));
//! let v5 = b.node("v5", Ticks::new(1));
//! let voff = b.node("v_off", Ticks::new(4));
//! b.edges([(v1, v2), (v1, v3), (v1, v4), (v4, voff), (v2, v5), (v3, v5), (voff, v5)])?;
//! let task = HeteroDagTask::new(b.build()?, voff, Ticks::new(20), Ticks::new(20))?;
//!
//! let report = HeterogeneousAnalysis::run(&task, 2)?;
//! // R_hom(τ) = len + (vol − len)/m = 8 + (18 − 8)/2 = 13  (paper, §3.2)
//! assert_eq!(report.r_hom_original(), Rational::from_integer(13));
//! // len(G') = 10 after the transformation (paper, §3.3)
//! assert_eq!(report.transformed().len_transformed(), Ticks::new(10));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
mod error;
pub mod federated;
pub mod multi;
pub mod properties;
pub mod rta;
pub mod transform;

pub use analysis::{AnalysisReport, HeterogeneousAnalysis};
pub use error::AnalysisError;
pub use multi::r_het_multi;
pub use rta::{r_het, r_hom, r_hom_dag, r_hom_parts, HetBound, Scenario};
pub use transform::{
    transform, transform_with_critical_path, transform_with_reachability, TransformedTask,
};
