//! Per-input derived quantities, shared across analyses and grid cells.
//!
//! Several analyses of one task need the same `m`-independent facts about
//! its graph: the critical path (`len(G)`, head/tail distances) and the
//! volume. [`DerivedData`] bundles them so an [`AnalysisContext`] backed
//! by a content-addressed cache (the batch engine) computes them **once
//! per distinct DAG** and shares them across every core count and analysis
//! kind of a sweep, while the plain `DirectContext` computes them on the
//! spot.
//!
//! The critical path also feeds Algorithm 1: the batch engine hands it to
//! [`hetrta_core::transform_with_critical_path`], which computes
//! Theorem 1's numbers from its head/tail distances in one pass.
//!
//! The bundle deliberately does *not* include the all-pairs reachability
//! closure: its `O(V²/64)` rows would dominate the cache at n = 10⁵–10⁶,
//! and Algorithm 1 derives the two per-node sets it needs directly
//! (see [`hetrta_dag::algo::reach_sets`]).
//!
//! [`AnalysisContext`]: crate::AnalysisContext

use hetrta_dag::algo::CriticalPath;
use hetrta_dag::{Dag, Ticks};

/// `m`-independent derived quantities of one task graph.
#[derive(Debug, Clone)]
pub struct DerivedData {
    /// The critical path of the graph (`len(G)`, per-node head/tail).
    pub critical_path: CriticalPath,
    /// `vol(G)`, the sum of all node WCETs.
    pub volume: Ticks,
}

impl DerivedData {
    /// Computes every derived quantity of `dag`.
    ///
    /// # Errors
    ///
    /// A human-readable message when the graph is cyclic.
    pub fn compute(dag: &Dag) -> Result<Self, String> {
        Ok(DerivedData {
            critical_path: CriticalPath::try_of(dag).map_err(|e| e.to_string())?,
            volume: dag.volume(),
        })
    }

    /// `len(G)`, the critical-path length.
    #[must_use]
    pub fn length(&self) -> Ticks {
        self.critical_path.length()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetrta_dag::{DagBuilder, Ticks};

    #[test]
    fn compute_bundles_the_quantities() {
        let mut b = DagBuilder::new();
        let a = b.node("a", Ticks::new(2));
        let z = b.node("z", Ticks::new(3));
        b.edge(a, z).unwrap();
        let dag = b.build().unwrap();
        let d = DerivedData::compute(&dag).unwrap();
        assert_eq!(d.length(), Ticks::new(5));
        assert_eq!(d.volume, Ticks::new(5));
    }

    #[test]
    fn cycles_are_reported_as_strings() {
        let mut dag = Dag::new();
        let a = dag.add_node(Ticks::ONE);
        let b = dag.add_node(Ticks::ONE);
        dag.add_edge(a, b).unwrap();
        dag.add_edge(b, a).unwrap();
        assert!(DerivedData::compute(&dag).is_err());
    }
}
