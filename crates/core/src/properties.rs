//! Executable invariants of the transformation and analysis.
//!
//! The proof of Theorem 1 leans on structural facts about the transformed
//! task; this module states them as checkable predicates. They run inside
//! the crate's test suites (including property-based tests over random
//! DAGs) and are available to downstream users who want to audit a
//! transformation — e.g. after deserializing a task from disk.

use hetrta_dag::algo::{is_acyclic, CriticalPath, Reachability};
use hetrta_dag::{DagError, HeteroDagTask};

use crate::transform::TransformedTask;

/// A violated invariant, with a human-readable explanation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation(pub String);

impl core::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "transformation invariant violated: {}", self.0)
    }
}

impl std::error::Error for InvariantViolation {}

macro_rules! ensure {
    ($cond:expr, $($msg:tt)+) => {
        if !$cond {
            return Err(InvariantViolation(format!($($msg)+)));
        }
    };
}

/// Checks every structural invariant of Algorithm 1's output.
///
/// Verified facts (`G` the original graph, `G'` the transformed one):
///
/// 1. `G'` is acyclic;
/// 2. `vol(G') = vol(G)` (the barrier adds no work);
/// 3. `len(G') ≥ len(G)` (the barrier can only lengthen chains);
/// 4. `v_sync` has zero WCET, is the only predecessor of `v_off`, and
///    *dominates* `v_off` and every node of `V_par` (each is a descendant
///    of `v_sync`);
/// 5. `V_par` is exactly the set of nodes parallel to `v_off` in `G`;
/// 6. `G_par`'s nodes/edges agree with `V_par` and the original edge set;
/// 7. host-side precedence is preserved: every edge of `G` has a
///    corresponding path in `G'` (rerouting strengthens, never drops,
///    ordering);
/// 8. the numbers Theorem 1 reads, which the transformation computes
///    without building a graph, agree with the graphs: `len(G')`,
///    `vol(G')`, `len(G_par)`, `vol(G_par)`, whether `v_off` is on a
///    critical path of `G'`, and whether `V_par` is empty.
///
/// # Errors
///
/// Returns the first violated invariant with an explanatory message, or a
/// [`DagError`] if reachability cannot be computed (cyclic input —
/// impossible for outputs of [`crate::transform()`]).
pub fn check_transform_invariants(
    original: &HeteroDagTask,
    t: &TransformedTask,
) -> Result<(), InvariantViolation> {
    let g = original.dag();
    let g2 = t.transformed();
    let v_off = original.offloaded();
    let sync = t.sync_node();

    ensure!(is_acyclic(g2), "transformed graph contains a cycle");
    ensure!(
        g2.volume() == g.volume(),
        "volume changed: {} -> {}",
        g.volume(),
        g2.volume()
    );
    ensure!(g2.wcet(sync).is_zero(), "v_sync must have zero WCET");
    ensure!(
        t.len_transformed() >= hetrta_dag::algo::CriticalPath::of(g).length(),
        "transformation shortened the critical path"
    );
    ensure!(
        g2.predecessors(v_off) == [sync],
        "v_off must have v_sync as its only predecessor, got {:?}",
        g2.predecessors(v_off)
    );

    let reach2 = match Reachability::of(g2) {
        Ok(r) => r,
        Err(e) => return Err(InvariantViolation(dag_err(e))),
    };
    ensure!(
        reach2.descendants(sync).contains(v_off),
        "v_off must be a descendant of v_sync"
    );
    for v in t.par_nodes().iter() {
        ensure!(
            reach2.descendants(sync).contains(v),
            "parallel node {v} does not start after the barrier"
        );
    }

    // V_par definition check against the original graph.
    let reach1 = match Reachability::of(g) {
        Ok(r) => r,
        Err(e) => return Err(InvariantViolation(dag_err(e))),
    };
    let expected = reach1.parallel(v_off);
    ensure!(
        *t.par_nodes() == expected,
        "V_par mismatch: got {:?}, expected {:?}",
        t.par_nodes(),
        expected
    );

    // G_par agrees with the induced subgraph definition.
    ensure!(
        t.g_par().node_count() == t.par_nodes().len(),
        "G_par node count {} != |V_par| {}",
        t.g_par().node_count(),
        t.par_nodes().len()
    );
    for (f, to) in t.g_par().edges() {
        let (of, ot) = (t.g_par_original_id(f), t.g_par_original_id(to));
        ensure!(
            g.has_edge(of, ot),
            "G_par edge ({of}, {ot}) not present in the original graph"
        );
    }
    let internal_edges = g
        .edges()
        .filter(|&(a, b)| t.par_nodes().contains(a) && t.par_nodes().contains(b))
        .count();
    ensure!(
        t.g_par().edge_count() == internal_edges,
        "G_par edge count {} != internal original edges {}",
        t.g_par().edge_count(),
        internal_edges
    );

    // Precedence preservation: each original edge still implies ordering.
    for (a, b) in g.edges() {
        ensure!(
            a == b || reach2.is_ordered_before(a, b),
            "original precedence ({a}, {b}) lost in the transformed graph"
        );
    }

    // The eager numbers against the graphs they describe.
    let cp2 = CriticalPath::of(g2);
    let cp_par = CriticalPath::of(t.g_par());
    ensure!(
        t.len_transformed() == cp2.length(),
        "len(G') = {} but the graph's critical path is {}",
        t.len_transformed(),
        cp2.length()
    );
    ensure!(
        t.vol_transformed() == g2.volume(),
        "vol(G') = {} but the graph's volume is {}",
        t.vol_transformed(),
        g2.volume()
    );
    ensure!(
        t.len_g_par() == cp_par.length(),
        "len(G_par) = {} but the graph's critical path is {}",
        t.len_g_par(),
        cp_par.length()
    );
    ensure!(
        t.vol_g_par() == t.g_par().volume(),
        "vol(G_par) = {} but the graph's volume is {}",
        t.vol_g_par(),
        t.g_par().volume()
    );
    ensure!(
        t.off_on_critical_path() == cp2.on_critical_path(v_off, g2),
        "v_off on a critical path of G': reported {}, the graph says {}",
        t.off_on_critical_path(),
        !t.off_on_critical_path()
    );
    ensure!(
        t.is_degenerate() == t.par_nodes().is_empty(),
        "is_degenerate() = {} but |V_par| = {}",
        t.is_degenerate(),
        t.par_nodes().len()
    );
    Ok(())
}

fn dag_err(e: DagError) -> String {
    format!("reachability failed: {e}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::transform;
    use hetrta_dag::{DagBuilder, Ticks};

    fn sample_task() -> HeteroDagTask {
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
        HeteroDagTask::new(b.build().unwrap(), voff, Ticks::new(50), Ticks::new(50)).unwrap()
    }

    #[test]
    fn valid_transform_passes_all_invariants() {
        let task = sample_task();
        let t = transform(&task).unwrap();
        check_transform_invariants(&task, &t).unwrap();
    }

    #[test]
    fn violation_display() {
        let v = InvariantViolation("boom".into());
        assert_eq!(v.to_string(), "transformation invariant violated: boom");
    }

    #[test]
    fn tampered_transform_is_caught() {
        let task = sample_task();
        let mut t = transform(&task).unwrap();
        // Sabotage: flip v_sync's WCET through the public surface by
        // rebuilding a TransformedTask is not possible (fields private), so
        // instead check a mismatched task/transform pair is rejected.
        let mut b = DagBuilder::new();
        let a = b.node("a", Ticks::new(2));
        let k = b.node("k", Ticks::new(5));
        let z = b.node("z", Ticks::new(2));
        b.edges([(a, k), (k, z)]).unwrap();
        let other =
            HeteroDagTask::new(b.build().unwrap(), k, Ticks::new(20), Ticks::new(20)).unwrap();
        assert!(check_transform_invariants(&other, &t).is_err());
        let _ = &mut t;
    }
}
