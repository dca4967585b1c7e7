//! Graph algorithms on [`Dag`](crate::Dag)s.
//!
//! Everything the model and analysis layers need:
//!
//! * [`topological_order`] / [`is_acyclic`] — Kahn's algorithm;
//! * [`Reachability`] — all-pairs reachability closure with per-node
//!   ancestor/descendant bit sets (`Pred(v)` / `Succ(v)` in the paper);
//! * [`CriticalPath`] — `len(G)` and a witness path, plus per-node
//!   head/tail distances used by the exact solver's lower bounds;
//! * [`transitive`] — detection and removal of transitive edges (the task
//!   model forbids them);
//! * [`count_paths`] / [`enumerate_paths`] — path diagnostics.

mod critical_path;
mod paths;
mod reach;
mod topo;
pub mod transitive;
mod width;

pub use critical_path::CriticalPath;
pub use paths::{count_paths, enumerate_paths, PathEnumeration};
pub use reach::{node_reach_sets, reach_sets, Reachability};
pub use topo::{is_acyclic, topological_order};
pub use width::{max_antichain, width};
