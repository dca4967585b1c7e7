//! # hetrta — Response-Time Analysis of DAG Tasks Supporting Heterogeneous Computing
//!
//! Facade crate for the `hetrta` workspace, a from-scratch Rust reproduction
//! of *Serrano & Quiñones, "Response-Time Analysis of DAG Tasks Supporting
//! Heterogeneous Computing", DAC 2018*.
//!
//! The workspace is organized as ten library crates, all re-exported here:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`dag`] | `hetrta-dag` | DAG model, graph algorithms, exact arithmetic |
//! | [`gen`] | `hetrta-gen` | random DAG task generators (paper §5.1) |
//! | [`analysis`] | `hetrta-core` | Algorithm 1 transformation + Theorem 1 RTA |
//! | [`api`] | `hetrta-api` | unified [`Analysis`] trait, typed request/outcome, key-addressed registry |
//! | [`sim`] | `hetrta-sim` | work-conserving execution simulator (paper §5.2) |
//! | [`exact`] | `hetrta-exact` | exact minimum-makespan solver (ILP substitute, §5.3) |
//! | [`sched`] | `hetrta-sched` | multi-task global schedulability (extension: future work "(i) more tasks") |
//! | [`suspend`] | `hetrta-suspend` | self-suspending baselines (the related work of §6) |
//! | [`cond`] | `hetrta-cond` | conditional DAG tasks (the model of reference \[12\]) with offloading |
//! | [`engine`] | `hetrta-engine` | registry-driven parallel batch-analysis engine with bounded content-addressed caching |
//!
//! The most common entry points are also re-exported at the crate root.
//!
//! ## The analysis registry
//!
//! Every analysis entry point is also reachable through the unified
//! [`api`] layer — one [`AnalysisRegistry`] resolving stable string keys
//! (`"het"`, `"hom"`, `"sim"`, `"exact"`, `"cond"`, `"suspend"`,
//! `"acceptance"`) to [`api::Analysis`] implementations:
//!
//! ```
//! use hetrta::api::{AnalysisOutcome, AnalysisRegistry, AnalysisRequest, DirectContext};
//! use hetrta::{DagBuilder, HeteroDagTask, Ticks};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = DagBuilder::new();
//! let pre = b.node("pre", Ticks::new(2));
//! let gpu = b.node("gpu", Ticks::new(9));
//! b.edges([(pre, gpu)])?;
//! let task = HeteroDagTask::new(b.build()?, gpu, Ticks::new(40), Ticks::new(40))?;
//!
//! let registry = AnalysisRegistry::builtin();
//! let outcome = registry.run("het", &AnalysisRequest::task(task, 2), &DirectContext)?;
//! let AnalysisOutcome::Het(h) = outcome else { unreachable!() };
//! assert!(h.r_het <= h.r_hom_original);
//! # Ok(())
//! # }
//! ```
//!
//! Custom analyses implement [`api::Analysis`] and register under their
//! own key; the [`engine`] then schedules, caches, and aggregates them
//! like the builtins (see the trait docs for a complete example).
//!
//! ## Quickstart
//!
//! Analyze a heterogeneous DAG task end to end:
//!
//! ```
//! use hetrta::{DagBuilder, HeteroDagTask, Ticks};
//! use hetrta::analysis::HeterogeneousAnalysis;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Host part: fork-join; `kernel` runs on the accelerator.
//! let mut b = DagBuilder::new();
//! let pre = b.node("pre", Ticks::new(2));
//! let left = b.node("left", Ticks::new(6));
//! let kernel = b.node("kernel", Ticks::new(9));
//! let post = b.node("post", Ticks::new(2));
//! b.edges([(pre, left), (pre, kernel), (left, post), (kernel, post)])?;
//!
//! let task = HeteroDagTask::new(b.build()?, kernel, Ticks::new(40), Ticks::new(30))?;
//! let report = HeterogeneousAnalysis::run(&task, 4)?;
//! println!("R_het = {} vs R_hom = {}", report.r_het(), report.r_hom_original());
//! assert!(report.r_het() <= report.r_hom_original());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hetrta_api as api;
pub use hetrta_cond as cond;
pub use hetrta_core as analysis;
pub use hetrta_dag as dag;
pub use hetrta_engine as engine;
pub use hetrta_exact as exact;
pub use hetrta_gen as gen;
pub use hetrta_sched as sched;
pub use hetrta_sim as sim;
pub use hetrta_suspend as suspend;

pub use hetrta_api::{Analysis, AnalysisOutcome, AnalysisRegistry, AnalysisRequest};
pub use hetrta_core::{transform::TransformedTask, HeterogeneousAnalysis, Scenario};
pub use hetrta_dag::{Dag, DagBuilder, DagError, DagTask, HeteroDagTask, NodeId, Rational, Ticks};
pub use hetrta_engine::{Engine, EngineBuilder, EngineStats, SweepEvent, SweepHandle, SweepSpec};
