//! Layered random DAG generator (robustness workload beyond the paper).
//!
//! The paper evaluates only nested fork-join DAGs; this generator produces
//! *non*-series-parallel structures (random bipartite wiring between
//! consecutive layers, then transitive reduction and dummy-terminal
//! normalization) to exercise the analysis on a broader graph family in
//! tests and ablation benches.

use hetrta_dag::algo::transitive;
use hetrta_dag::{Dag, DagBuilder, NodeId, Ticks};
use rand::Rng;

/// One hundred nodes per layer: the width the large-graph tier keeps
/// fixed while scaling the number of layers.
const LARGE_TIER_WIDTH: usize = 100;

use crate::GenError;

/// Parameters of the layered generator.
#[derive(Debug, Clone, PartialEq)]
pub struct LayeredParams {
    /// Number of layers (≥ 1).
    pub layers: usize,
    /// Minimum nodes per layer (≥ 1).
    pub width_min: usize,
    /// Maximum nodes per layer.
    pub width_max: usize,
    /// Probability of each possible edge between consecutive layers
    /// (each node is additionally guaranteed one predecessor in the
    /// previous layer so the graph stays connected).
    pub p_edge: f64,
    /// Minimum WCET.
    pub c_min: u64,
    /// Maximum WCET.
    pub c_max: u64,
}

impl Default for LayeredParams {
    fn default() -> Self {
        LayeredParams {
            layers: 5,
            width_min: 2,
            width_max: 6,
            p_edge: 0.3,
            c_min: 1,
            c_max: 100,
        }
    }
}

impl LayeredParams {
    /// The *large-graph* tier: roughly `n_nodes` nodes in layers of
    /// ~[`80, 120`] width with sparse (5%) extra wiring — the layered
    /// counterpart of [`NfjParams::large_graphs`](crate::NfjParams::large_graphs).
    /// At `n_nodes = 10_000` this yields ≈100 layers and ≈60k edges.
    #[must_use]
    pub fn large_graphs(n_nodes: usize) -> Self {
        LayeredParams {
            layers: (n_nodes / LARGE_TIER_WIDTH).max(1),
            width_min: LARGE_TIER_WIDTH - 20,
            width_max: LARGE_TIER_WIDTH + 20,
            p_edge: 0.05,
            c_min: 1,
            c_max: 100,
        }
    }

    fn validate(&self) -> Result<(), GenError> {
        if self.layers == 0 {
            return Err(GenError::InvalidParams("layers must be ≥ 1".into()));
        }
        if self.width_min == 0 || self.width_min > self.width_max {
            return Err(GenError::InvalidParams(format!(
                "width range [{}, {}] is empty or zero",
                self.width_min, self.width_max
            )));
        }
        if !(0.0..=1.0).contains(&self.p_edge) {
            return Err(GenError::InvalidParams(format!(
                "p_edge = {} not in [0,1]",
                self.p_edge
            )));
        }
        if self.c_min == 0 || self.c_min > self.c_max {
            return Err(GenError::InvalidParams(format!(
                "WCET range [{}, {}] is empty or contains zero",
                self.c_min, self.c_max
            )));
        }
        Ok(())
    }
}

/// Generates a layered random DAG satisfying the task model (acyclic,
/// single source/sink via dummy terminals where needed, transitively
/// reduced).
///
/// # Errors
///
/// Returns [`GenError::InvalidParams`] for inconsistent parameters; other
/// variants indicate internal bugs and are propagated from the validating
/// builder.
///
/// # Examples
///
/// ```
/// use hetrta_gen::layered::{generate_layered, LayeredParams};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(9);
/// let dag = generate_layered(&LayeredParams::default(), &mut rng)?;
/// hetrta_dag::validate_task_model(&dag)?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn generate_layered<R: Rng + ?Sized>(
    params: &LayeredParams,
    rng: &mut R,
) -> Result<Dag, GenError> {
    params.validate()?;
    // Accumulate the random wiring in the builder's nested adjacency and
    // freeze once — edge-by-edge CSR insertion made this generator
    // quadratic at the large-graph tier's sizes.
    let mut accum = DagBuilder::new();
    let mut layers: Vec<Vec<NodeId>> = Vec::with_capacity(params.layers);
    for l in 0..params.layers {
        let width = rng.gen_range(params.width_min..=params.width_max);
        let layer: Vec<NodeId> = (0..width)
            .map(|i| {
                accum.node(
                    format!("l{l}_{i}"),
                    Ticks::new(rng.gen_range(params.c_min..=params.c_max)),
                )
            })
            .collect();
        layers.push(layer);
    }
    for w in layers.windows(2) {
        let (upper, lower) = (&w[0], &w[1]);
        for &b in lower {
            // guaranteed predecessor keeps every node reachable
            let anchor = upper[rng.gen_range(0..upper.len())];
            let _ = accum.edge(anchor, b);
            for &a in upper {
                if a != anchor && rng.gen_bool(params.p_edge) {
                    let _ = accum.edge(a, b);
                }
            }
        }
    }
    // Consecutive-layer wiring cannot create transitive edges *across*
    // layers, but a reduction keeps the invariant explicit and future-proof.
    let reduced = transitive::transitive_reduction(&accum.freeze())?;
    // Normalize terminals with the validating builder.
    let mut b = DagBuilder::new();
    let ids: Vec<NodeId> = reduced
        .node_ids()
        .map(|v| b.node(reduced.label(v).to_owned(), reduced.wcet(v)))
        .collect();
    for (f, t) in reduced.edges() {
        b.edge(ids[f.index()], ids[t.index()])?;
    }
    b.add_dummy_terminals();
    Ok(b.build()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetrta_dag::validate_task_model;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generated_layered_dags_are_valid() {
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..30 {
            let dag = generate_layered(&LayeredParams::default(), &mut rng).unwrap();
            validate_task_model(&dag).expect("task model holds");
        }
    }

    #[test]
    fn single_layer_graph_works() {
        let mut rng = StdRng::seed_from_u64(22);
        let params = LayeredParams {
            layers: 1,
            width_min: 3,
            width_max: 3,
            ..Default::default()
        };
        let dag = generate_layered(&params, &mut rng).unwrap();
        // 3 parallel nodes + dummy source + dummy sink
        assert_eq!(dag.node_count(), 5);
        validate_task_model(&dag).unwrap();
    }

    #[test]
    fn dense_wiring_still_reduced() {
        let mut rng = StdRng::seed_from_u64(23);
        let params = LayeredParams {
            p_edge: 1.0,
            ..Default::default()
        };
        let dag = generate_layered(&params, &mut rng).unwrap();
        assert!(transitive::is_transitively_reduced(&dag).unwrap());
    }

    #[test]
    fn invalid_params_rejected() {
        let mut rng = StdRng::seed_from_u64(24);
        let zero_layers = LayeredParams {
            layers: 0,
            ..Default::default()
        };
        assert!(matches!(
            generate_layered(&zero_layers, &mut rng),
            Err(GenError::InvalidParams(_))
        ));
        let bad_width = LayeredParams {
            width_min: 5,
            width_max: 2,
            ..Default::default()
        };
        assert!(matches!(
            generate_layered(&bad_width, &mut rng),
            Err(GenError::InvalidParams(_))
        ));
        let bad_p = LayeredParams {
            p_edge: 2.0,
            ..Default::default()
        };
        assert!(matches!(
            generate_layered(&bad_p, &mut rng),
            Err(GenError::InvalidParams(_))
        ));
    }

    #[test]
    fn determinism_per_seed() {
        let params = LayeredParams::default();
        let a = generate_layered(&params, &mut StdRng::seed_from_u64(5)).unwrap();
        let b = generate_layered(&params, &mut StdRng::seed_from_u64(5)).unwrap();
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.volume(), b.volume());
    }
}
