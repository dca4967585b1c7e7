//! Transitive-edge detection and reduction.
//!
//! The task model of the paper (Section 2) requires that transitive edges do
//! not exist: if `(v1, v2) ∈ E` and `(v2, v3) ∈ E` then `(v1, v3) ∉ E`.
//! More generally an edge `(u, w)` is transitive when some other path
//! `u → … → w` of length ≥ 2 exists. Algorithm 1 relies on this property
//! (the *other* successors of `v_off`'s direct predecessors are necessarily
//! parallel to `v_off`), so the builder validates it and the generators
//! guarantee it.
//!
//! # Closure-free detection
//!
//! An edge `(u, w)` is transitive iff some *other* successor `s` of `u`
//! reaches `w`. The general formulation queries the all-pairs closure
//! ([`Reachability`]), which costs `O(V·E/64)` time and — fatally for the
//! n=10⁵–10⁶ tier — `O(V²/64)` space. The entry points below never build
//! that closure. Instead they exploit longest-path *levels*: levels
//! strictly increase along every edge, so
//!
//! * if every successor of `u` sits on one level, no successor can reach
//!   another — `u` contributes no transitive edge (a pure `O(deg)` check);
//! * otherwise a mark-DFS from `u`'s successors, pruned at the maximum
//!   successor level, decides every edge of `u` in one pass over the
//!   between-levels region.
//!
//! Graphs whose edges each span exactly one level (the layered generator's
//! wiring, and graded DAGs generally) take the first branch everywhere:
//! total cost `O(V + E)`, no quadratic bitset in sight. Irregular graphs
//! degrade gracefully toward the old time bound but keep `O(V)` memory.
//! The closure-backed originals remain below as `*_via_closure` reference
//! implementations; a proptest pins the two paths edge-for-edge.

use crate::algo::{topological_order, Reachability};
use crate::{Dag, DagError, NodeId};

/// Shared scratch state of one closure-free scan: longest-path levels plus
/// an epoch-stamped visited array (cleared by bumping the epoch, not by
/// touching `O(V)` memory per node).
struct LevelScan {
    /// `level[v]` = length of the longest path from any source to `v`.
    /// Strictly increases along every edge, so a path `s → … → w` implies
    /// `level(w) > level(s)`.
    level: Vec<u32>,
    visited: Vec<u32>,
    epoch: u32,
    stack: Vec<NodeId>,
}

impl LevelScan {
    fn new(dag: &Dag) -> Result<Self, DagError> {
        let n = dag.node_count();
        let order = topological_order(dag)?;
        let mut level = vec![0u32; n];
        for &v in &order {
            let lv = level[v.index()];
            for &s in dag.successors(v) {
                level[s.index()] = level[s.index()].max(lv + 1);
            }
        }
        Ok(LevelScan {
            level,
            visited: vec![0u32; n],
            epoch: 0,
            stack: Vec::new(),
        })
    }

    /// `true` if no successor of `u` can reach another successor of `u` —
    /// decided from levels alone, without traversal. Covers nodes with
    /// fewer than two successors and the graded (layered) case where every
    /// successor shares one level.
    fn trivially_reduced(&self, succs: &[NodeId]) -> bool {
        match succs.split_first() {
            None | Some((_, [])) => true,
            Some((&first, rest)) => {
                let l0 = self.level[first.index()];
                rest.iter().all(|&s| self.level[s.index()] == l0)
            }
        }
    }

    /// Marks every node strictly reachable from a successor of `u`,
    /// pruned at the maximum successor level (deeper nodes cannot be a
    /// successor of `u`, and levels only grow along edges). Afterwards
    /// `self.is_marked(w)` answers "is the edge `(u, w)` transitive?" for
    /// each `w ∈ succ(u)`.
    fn mark_reachable_from(&mut self, dag: &Dag, succs: &[NodeId]) {
        self.epoch += 1;
        let epoch = self.epoch;
        let lmax = succs
            .iter()
            .map(|&s| self.level[s.index()])
            .max()
            .unwrap_or(0);
        // Seed with the successors' children (strict reachability: a
        // successor never marks itself), then expand; nodes *at* the level
        // cap are marked but not expanded — their children are deeper than
        // every successor.
        for &s in succs {
            self.stack.push(s);
        }
        while let Some(x) = self.stack.pop() {
            for &c in dag.successors(x) {
                let ci = c.index();
                if self.level[ci] <= lmax && self.visited[ci] != epoch {
                    self.visited[ci] = epoch;
                    if self.level[ci] < lmax {
                        self.stack.push(c);
                    }
                }
            }
        }
    }

    fn is_marked(&self, w: NodeId) -> bool {
        self.visited[w.index()] == self.epoch
    }
}

/// Finds one transitive edge, if any exists — without materializing the
/// reachability closure (see the module docs; `O(V + E)` on layered/graded
/// graphs, `O(V)` extra memory always).
///
/// An edge `(u, w)` is transitive iff removing it still leaves a directed
/// path from `u` to `w`. The witness returned is the first such edge in
/// [`Dag::edges`] order, bitwise the one
/// [`find_transitive_edge_via_closure`] reports.
///
/// # Errors
///
/// Returns [`DagError::Cycle`] if the graph is not acyclic.
///
/// # Examples
///
/// ```
/// use hetrta_dag::{DagBuilder, Ticks, algo::transitive};
///
/// let mut b = DagBuilder::new();
/// let v1 = b.unlabeled_node(Ticks::ONE);
/// let v2 = b.unlabeled_node(Ticks::ONE);
/// let v3 = b.unlabeled_node(Ticks::ONE);
/// b.edges([(v1, v2), (v2, v3), (v1, v3)])?; // (v1, v3) is transitive
/// let dag = b.freeze(); // `build()` would reject the transitive edge
/// assert_eq!(transitive::find_transitive_edge(&dag)?, Some((v1, v3)));
/// # Ok::<(), hetrta_dag::DagError>(())
/// ```
pub fn find_transitive_edge(dag: &Dag) -> Result<Option<(NodeId, NodeId)>, DagError> {
    let mut scan = LevelScan::new(dag)?;
    for u in dag.node_ids() {
        let succs = dag.successors(u);
        if scan.trivially_reduced(succs) {
            continue;
        }
        scan.mark_reachable_from(dag, succs);
        if let Some(&w) = succs.iter().find(|&&w| scan.is_marked(w)) {
            return Ok(Some((u, w)));
        }
    }
    Ok(None)
}

/// `true` if the graph contains no transitive edge.
///
/// # Errors
///
/// Returns [`DagError::Cycle`] if the graph is not acyclic.
pub fn is_transitively_reduced(dag: &Dag) -> Result<bool, DagError> {
    Ok(find_transitive_edge(dag)?.is_none())
}

/// Returns a copy of `dag` with all transitive edges removed (the unique
/// transitive reduction of a DAG) — closure-free, like
/// [`find_transitive_edge`].
///
/// Node ids, WCETs and labels are preserved; only redundant edges are
/// dropped. The surviving edges keep their exact positions within every
/// successor *and* predecessor segment (the reduction filters the CSR
/// segments in place rather than rebuilding from an edge list), so the
/// result is bitwise-identical to removing each redundant edge one by one
/// — and to [`transitive_reduction_via_closure`], which a proptest pins.
/// Useful to sanitize externally supplied graphs before building a
/// [`DagTask`](crate::task::DagTask).
///
/// # Errors
///
/// Returns [`DagError::Cycle`] if the graph is not acyclic.
pub fn transitive_reduction(dag: &Dag) -> Result<Dag, DagError> {
    let mut scan = LevelScan::new(dag)?;
    let n = dag.node_count();
    let mut removed: std::collections::HashSet<(NodeId, NodeId)> = std::collections::HashSet::new();
    let mut succ_off = Vec::with_capacity(n + 1);
    succ_off.push(0u32);
    let mut succs = Vec::with_capacity(dag.edge_count());
    let mut wcets = Vec::with_capacity(n);
    for v in dag.node_ids() {
        let segment = dag.successors(v);
        if scan.trivially_reduced(segment) {
            succs.extend_from_slice(segment);
        } else {
            scan.mark_reachable_from(dag, segment);
            succs.extend(segment.iter().copied().filter(|&w| {
                let keep = !scan.is_marked(w);
                if !keep {
                    removed.insert((v, w));
                }
                keep
            }));
        }
        succ_off.push(succs.len() as u32);
        wcets.push(dag.wcet(v));
    }
    let mut pred_off = Vec::with_capacity(n + 1);
    pred_off.push(0u32);
    let mut preds = Vec::with_capacity(succs.len());
    if removed.is_empty() {
        for v in dag.node_ids() {
            preds.extend_from_slice(dag.predecessors(v));
            pred_off.push(preds.len() as u32);
        }
    } else {
        for v in dag.node_ids() {
            preds.extend(
                dag.predecessors(v)
                    .iter()
                    .copied()
                    .filter(|&u| !removed.contains(&(u, v))),
            );
            pred_off.push(preds.len() as u32);
        }
    }
    let labels = dag.labels().clone();
    let reduced = Dag::from_csr_parts(wcets, labels, succ_off, succs, pred_off, preds);
    debug_assert!(is_transitively_reduced(&reduced).unwrap_or(false));
    Ok(reduced)
}

// ---------------------------------------------------------------------------
// Closure-backed reference implementations
// ---------------------------------------------------------------------------

/// Reference implementation of [`find_transitive_edge`] via the full
/// [`Reachability`] closure (`O(V·E/64)` time, `O(V²/64)` space).
///
/// Kept as the parity oracle for the closure-free path — tests pin the two
/// witness-for-witness. Do not call on large graphs.
///
/// # Errors
///
/// Returns [`DagError::Cycle`] if the graph is not acyclic.
pub fn find_transitive_edge_via_closure(dag: &Dag) -> Result<Option<(NodeId, NodeId)>, DagError> {
    let reach = Reachability::of(dag)?;
    for (u, w) in dag.edges() {
        // (u, w) is transitive iff some other successor of u reaches w.
        let redundant = dag
            .successors(u)
            .iter()
            .any(|&s| s != w && reach.is_ordered_before(s, w));
        if redundant {
            return Ok(Some((u, w)));
        }
    }
    Ok(None)
}

/// Reference implementation of [`transitive_reduction`] via the full
/// [`Reachability`] closure. Kept as the parity oracle for the
/// closure-free path — tests pin the two edge-for-edge. Do not call on
/// large graphs.
///
/// # Errors
///
/// Returns [`DagError::Cycle`] if the graph is not acyclic.
pub fn transitive_reduction_via_closure(dag: &Dag) -> Result<Dag, DagError> {
    let reach = Reachability::of(dag)?;
    // (u, w) is transitive iff some *other* successor of u reaches w.
    let redundant = |u: NodeId, w: NodeId| {
        dag.successors(u)
            .iter()
            .any(|&s| s != w && reach.is_ordered_before(s, w))
    };
    let n = dag.node_count();
    let mut removed: std::collections::HashSet<(NodeId, NodeId)> = std::collections::HashSet::new();
    let mut succ_off = Vec::with_capacity(n + 1);
    succ_off.push(0u32);
    let mut succs = Vec::with_capacity(dag.edge_count());
    let mut wcets = Vec::with_capacity(n);
    for v in dag.node_ids() {
        succs.extend(dag.successors(v).iter().copied().filter(|&w| {
            let keep = !redundant(v, w);
            if !keep {
                removed.insert((v, w));
            }
            keep
        }));
        succ_off.push(succs.len() as u32);
        wcets.push(dag.wcet(v));
    }
    let mut pred_off = Vec::with_capacity(n + 1);
    pred_off.push(0u32);
    let mut preds = Vec::with_capacity(succs.len());
    for v in dag.node_ids() {
        preds.extend(
            dag.predecessors(v)
                .iter()
                .copied()
                .filter(|&u| !removed.contains(&(u, v))),
        );
        pred_off.push(preds.len() as u32);
    }
    Ok(Dag::from_csr_parts(
        wcets,
        dag.labels().clone(),
        succ_off,
        succs,
        pred_off,
        preds,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Ticks;

    fn chain_with_shortcut() -> (Dag, [NodeId; 3]) {
        let mut dag = Dag::new();
        let a = dag.add_node(Ticks::ONE);
        let b = dag.add_node(Ticks::ONE);
        let c = dag.add_node(Ticks::ONE);
        dag.add_edge(a, b).unwrap();
        dag.add_edge(b, c).unwrap();
        dag.add_edge(a, c).unwrap();
        (dag, [a, b, c])
    }

    #[test]
    fn detects_direct_transitive_edge() {
        let (dag, [a, _, c]) = chain_with_shortcut();
        assert_eq!(find_transitive_edge(&dag).unwrap(), Some((a, c)));
        assert!(!is_transitively_reduced(&dag).unwrap());
    }

    #[test]
    fn detects_long_range_transitive_edge() {
        let mut dag = Dag::new();
        let v: Vec<NodeId> = (0..4).map(|_| dag.add_node(Ticks::ONE)).collect();
        dag.add_edge(v[0], v[1]).unwrap();
        dag.add_edge(v[1], v[2]).unwrap();
        dag.add_edge(v[2], v[3]).unwrap();
        dag.add_edge(v[0], v[3]).unwrap(); // spans a 3-edge path
        assert_eq!(find_transitive_edge(&dag).unwrap(), Some((v[0], v[3])));
    }

    #[test]
    fn diamond_is_reduced() {
        let mut dag = Dag::new();
        let a = dag.add_node(Ticks::ONE);
        let b = dag.add_node(Ticks::ONE);
        let c = dag.add_node(Ticks::ONE);
        let d = dag.add_node(Ticks::ONE);
        for (f, t) in [(a, b), (a, c), (b, d), (c, d)] {
            dag.add_edge(f, t).unwrap();
        }
        assert!(is_transitively_reduced(&dag).unwrap());
        assert_eq!(find_transitive_edge(&dag).unwrap(), None);
    }

    #[test]
    fn reduction_removes_only_redundant_edges() {
        let (dag, [a, b, c]) = chain_with_shortcut();
        let reduced = transitive_reduction(&dag).unwrap();
        assert_eq!(reduced.edge_count(), 2);
        assert!(reduced.has_edge(a, b));
        assert!(reduced.has_edge(b, c));
        assert!(!reduced.has_edge(a, c));
        // node data preserved
        assert_eq!(reduced.node_count(), 3);
        assert_eq!(reduced.volume(), dag.volume());
    }

    #[test]
    fn reduction_is_idempotent() {
        let (dag, _) = chain_with_shortcut();
        let once = transitive_reduction(&dag).unwrap();
        let twice = transitive_reduction(&once).unwrap();
        assert_eq!(once.edge_count(), twice.edge_count());
    }

    #[test]
    fn cycle_reported() {
        let mut dag = Dag::new();
        let a = dag.add_node(Ticks::ONE);
        let b = dag.add_node(Ticks::ONE);
        dag.add_edge(a, b).unwrap();
        dag.add_edge(b, a).unwrap();
        assert!(find_transitive_edge(&dag).is_err());
        assert!(transitive_reduction(&dag).is_err());
        assert!(find_transitive_edge_via_closure(&dag).is_err());
        assert!(transitive_reduction_via_closure(&dag).is_err());
    }

    /// A dense multi-level tangle where the closure-free pruning actually
    /// has to traverse (successors on three distinct levels, long-range
    /// shortcuts spanning several of them).
    fn tangled() -> Dag {
        let mut dag = Dag::new();
        let v: Vec<NodeId> = (0..8).map(|_| dag.add_node(Ticks::ONE)).collect();
        for (f, t) in [
            (0, 1),
            (0, 2),
            (0, 4), // shortcut over 1→3→4
            (0, 6), // shortcut over the whole middle
            (1, 3),
            (2, 3),
            (3, 4),
            (3, 6), // shortcut over 4→5→6
            (4, 5),
            (5, 6),
            (6, 7),
            (2, 7), // shortcut into the sink
        ] {
            dag.add_edge(v[f], v[t]).unwrap();
        }
        dag
    }

    #[test]
    fn structural_path_matches_closure_witness() {
        let dag = tangled();
        assert_eq!(
            find_transitive_edge(&dag).unwrap(),
            find_transitive_edge_via_closure(&dag).unwrap()
        );
    }

    #[test]
    fn structural_reduction_matches_closure_reduction_edge_for_edge() {
        let dag = tangled();
        let fast = transitive_reduction(&dag).unwrap();
        let slow = transitive_reduction_via_closure(&dag).unwrap();
        assert_eq!(fast.edge_count(), slow.edge_count());
        let fast_edges: Vec<_> = fast.edges().collect();
        let slow_edges: Vec<_> = slow.edges().collect();
        assert_eq!(fast_edges, slow_edges);
        assert!(is_transitively_reduced(&fast).unwrap());
    }
}
