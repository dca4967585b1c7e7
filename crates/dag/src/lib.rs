//! # hetrta-dag — DAG task model substrate
//!
//! This crate provides the graph substrate used by the `hetrta` workspace, a
//! reproduction of *"Response-Time Analysis of DAG Tasks Supporting
//! Heterogeneous Computing"* (Serrano & Quiñones, DAC 2018).
//!
//! It contains:
//!
//! * [`Dag`] — a frozen directed-acyclic-graph of jobs, each carrying a
//!   worst-case execution time ([`Ticks`]), with `O(1)` clones and a
//!   memoized structural [`Dag::digest`];
//! * [`DagBuilder`] — a validating builder enforcing the paper's structural
//!   model (acyclic, single source, single sink, no transitive edges);
//! * [`task::DagTask`] and [`task::HeteroDagTask`] — the sporadic DAG task
//!   `τ = <G, T, D>`, optionally with one node offloaded to an accelerator;
//! * exact [`Rational`] arithmetic used by the response-time equations that
//!   divide by the core count `m`;
//! * graph algorithms: topological orders, reachability
//!   ([`algo::Reachability`]), critical paths ([`algo::CriticalPath`]),
//!   transitive-edge detection and reduction, and path enumeration;
//! * [`dot`] — Graphviz export for debugging and documentation.
//!
//! ## Quick example
//!
//! Build the 6-node DAG of Figure 1(a) of the paper and query its
//! properties:
//!
//! ```
//! use hetrta_dag::{DagBuilder, Ticks};
//!
//! # fn main() -> Result<(), hetrta_dag::DagError> {
//! let mut b = DagBuilder::new();
//! let v1 = b.node("v1", Ticks::new(1));
//! let v2 = b.node("v2", Ticks::new(4));
//! let v3 = b.node("v3", Ticks::new(6));
//! let v4 = b.node("v4", Ticks::new(2));
//! let v5 = b.node("v5", Ticks::new(1));
//! let voff = b.node("v_off", Ticks::new(4));
//! b.edges([(v1, v2), (v1, v3), (v1, v4), (v4, voff), (v2, v5), (v3, v5), (voff, v5)])?;
//! let dag = b.build()?;
//!
//! assert_eq!(dag.volume(), Ticks::new(18));
//! assert_eq!(hetrta_dag::algo::CriticalPath::of(&dag).length(), Ticks::new(8));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod algo;
mod bitset;
mod builder;
mod digest;
pub mod dot;
mod error;
mod graph;
mod ids;
pub mod io;
mod labels;
mod rational;
pub mod task;
mod time;
mod validate;

pub use bitset::BitSet;
pub use builder::DagBuilder;
pub use digest::ContentHasher;
pub use error::DagError;
pub use graph::{Dag, EdgeIter, NodeIter};
pub use ids::NodeId;
pub use labels::Labels;
pub use rational::Rational;
pub use task::{DagTask, HeteroDagTask};
pub use time::Ticks;
pub use validate::{validate_task_model, StructureReport};
