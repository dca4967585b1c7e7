//! Algorithm 1 — DAG transformation `τ ⇒ τ'`.
//!
//! The transformation inserts a synchronization node `v_sync` with zero
//! WCET immediately before the offloaded node `v_off` *and* before every
//! node that may execute in parallel with it, so that the parallel sub-DAG
//! `G_par` and `v_off` are guaranteed to begin execution simultaneously.
//! This is what makes it *safe* to discount offloaded work from the
//! self-interference term of the response-time bound (Theorem 1): without
//! the barrier, the host could sit idle while `v_off` runs (Figure 1(c) of
//! the paper), defeating any interference reduction.
//!
//! Faithful to the paper's pseudo-code:
//!
//! ```text
//! 1  compute Pred(v_off), Succ(v_off)
//! 2  V' = V ∪ {v_sync}; E' = E; directPred = ∅
//! 3  for each (v_i, v_off) ∈ E':
//! 4      directPred ∪= {v_i}
//! 5      E' = E' ∪ {(v_i, v_sync)} \ {(v_i, v_off)}
//! 6      for each (v_i, v_j) ∈ E':
//! 7          if v_j ≠ v_sync:
//! 8              E' = E' ∪ {(v_sync, v_j)} \ {(v_i, v_j)}
//! 9  E' ∪= {(v_sync, v_off)}
//! 10 for each v_i ∈ Pred(v_off) \ directPred:
//! 11     for each (v_i, v_j) ∈ E':
//! 12         if v_j ∉ Pred(v_off):
//! 13             E' = E' ∪ {(v_sync, v_j)} \ {(v_i, v_j)}
//! 14 V_par = V \ Pred(v_off) \ Succ(v_off)          (v_off itself excluded)
//! 15 E_par = {(v_i, v_j) ∈ E : v_i, v_j ∈ V_par}
//! ```
//!
//! Because the model forbids transitive edges, every rerouted successor
//! `v_j` is necessarily parallel to `v_off` (see the module tests and
//! [`crate::properties`]); the rerouting therefore never loses a precedence
//! constraint that mattered, it only *adds* the barrier. A transitive edge
//! at the rewired boundary (one that would make `G'` cyclic or hang a
//! descendant of `v_off` from the barrier) is reported as
//! [`DagError::TransitiveEdge`] instead.
//!
//! # Numbers eagerly, graphs on demand
//!
//! Theorem 1 reads five facts about `τ'`: `len(G')`, `vol(G') = vol(G)`,
//! `len(G_par)`, `vol(G_par)` and whether `v_off` lies on a critical path
//! of `G'`. [`transform`] computes them in one `O(V + E)` pass over the
//! *original* graph, from its head/tail distances
//! ([`CriticalPath`]); no graph is written. The rewiring leaves heads
//! inside `Pred(v_off)` and tails outside it unchanged, so:
//!
//! * the barrier's head `H` is the largest head in `Pred(v_off)`;
//! * `len(G') = max(H + max tail(t), max tail(s))`, with `t` over `v_off`
//!   and the rerouted targets and `s` over the sources of `G` outside
//!   `Pred(v_off) ∪ {v_off}`;
//! * `v_off` is on a critical path of `G'` iff `H + tail(v_off) = len(G')`;
//! * `len(G_par)` and `vol(G_par)` are one sweep of `G`'s topological order
//!   restricted to `V_par`.
//!
//! The graphs themselves — [`TransformedTask::transformed`],
//! [`TransformedTask::par_nodes`], [`TransformedTask::g_par`],
//! [`TransformedTask::g_par_original_id`] and
//! [`TransformedTask::as_task`] — are built on the first call to any of
//! them and shared by every clone. [`transform_with_reachability`] is the
//! materialized reference: it builds the graphs up front and reads the
//! numbers off their critical paths.

use std::sync::{Arc, OnceLock};

use hetrta_dag::algo::{reach_sets, CriticalPath};
use hetrta_dag::{BitSet, Dag, DagError, HeteroDagTask, Labels, NodeId, Ticks};

use crate::AnalysisError;

/// The result of Algorithm 1: the transformed task `τ'` plus the parallel
/// sub-DAG `G_par` and everything the RTA needs about them.
///
/// Node ids of the original DAG remain valid in the transformed DAG
/// (`v_sync` is appended with a fresh id), so callers can correlate nodes
/// across `G` and `G'` directly.
///
/// The numbers Theorem 1 reads are held eagerly. The graphs (`G'`,
/// `V_par`, `G_par` and its id map) are built on the first call to
/// [`transformed`](TransformedTask::transformed),
/// [`par_nodes`](TransformedTask::par_nodes),
/// [`g_par`](TransformedTask::g_par),
/// [`g_par_original_id`](TransformedTask::g_par_original_id) or
/// [`as_task`](TransformedTask::as_task), once for the transformation and
/// all its clones. Cloning allocates nothing.
#[derive(Debug, Clone)]
pub struct TransformedTask {
    original: HeteroDagTask,
    len_transformed: Ticks,
    vol_transformed: Ticks,
    len_g_par: Ticks,
    vol_g_par: Ticks,
    off_on_critical_path: bool,
    degenerate: bool,
    graphs: Arc<OnceLock<Graphs>>,
}

/// The graphs of `τ'`, built on first use.
#[derive(Debug)]
struct Graphs {
    transformed: Dag,
    par_nodes: BitSet,
    g_par: Dag,
    g_par_old_ids: Vec<NodeId>,
}

impl TransformedTask {
    /// The untouched original task `τ`.
    #[must_use]
    pub fn original(&self) -> &HeteroDagTask {
        &self.original
    }

    /// The transformed DAG `G'` (original ids preserved, `v_sync` appended).
    ///
    /// Builds the graphs on first use.
    #[must_use]
    pub fn transformed(&self) -> &Dag {
        &self.graphs().transformed
    }

    /// The synchronization node `v_sync` (zero WCET) in `G'`.
    #[must_use]
    pub fn sync_node(&self) -> NodeId {
        NodeId::from_index(self.original.dag().node_count())
    }

    /// The offloaded node `v_off` (same id in `G` and `G'`).
    #[must_use]
    pub fn offloaded(&self) -> NodeId {
        self.original.offloaded()
    }

    /// `C_off`, the accelerator WCET.
    #[must_use]
    pub fn c_off(&self) -> Ticks {
        self.original.c_off()
    }

    /// The node set `V_par` (ids in the original/transformed id space).
    ///
    /// Builds the graphs on first use.
    #[must_use]
    pub fn par_nodes(&self) -> &BitSet {
        &self.graphs().par_nodes
    }

    /// The parallel sub-DAG `G_par` as a standalone graph.
    ///
    /// Its node ids are dense; [`TransformedTask::g_par_original_id`] maps
    /// them back. Builds the graphs on first use.
    #[must_use]
    pub fn g_par(&self) -> &Dag {
        &self.graphs().g_par
    }

    /// Maps a node of [`g_par`](TransformedTask::g_par) to its id in the
    /// original DAG. Builds the graphs on first use.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a node of `G_par`.
    #[must_use]
    pub fn g_par_original_id(&self, v: NodeId) -> NodeId {
        self.graphs().g_par_old_ids[v.index()]
    }

    /// `len(G')` — critical-path length of the transformed DAG.
    #[must_use]
    pub fn len_transformed(&self) -> Ticks {
        self.len_transformed
    }

    /// `vol(G')` — equals `vol(G)` because `v_sync` has zero WCET.
    #[must_use]
    pub fn vol_transformed(&self) -> Ticks {
        self.vol_transformed
    }

    /// `len(G_par)`.
    #[must_use]
    pub fn len_g_par(&self) -> Ticks {
        self.len_g_par
    }

    /// `vol(G_par)`.
    #[must_use]
    pub fn vol_g_par(&self) -> Ticks {
        self.vol_g_par
    }

    /// `true` if `v_off` lies on a critical path of `G'` — the discriminator
    /// between Scenario 1 and Scenarios 2.x of Theorem 1.
    #[must_use]
    pub fn off_on_critical_path(&self) -> bool {
        self.off_on_critical_path
    }

    /// `true` if the parallel sub-DAG is empty (every node is an ancestor or
    /// descendant of `v_off`); the analysis degenerates to Scenario 2.1 with
    /// `vol(G_par) = 0`.
    #[must_use]
    pub fn is_degenerate(&self) -> bool {
        self.degenerate
    }

    /// A [`HeteroDagTask`] view of the transformed task `τ'` (same period,
    /// deadline and offloaded node, transformed graph).
    ///
    /// Useful for simulating `τ'` with `hetrta-sim`. Builds the graphs on
    /// first use.
    #[must_use]
    pub fn as_task(&self) -> HeteroDagTask {
        HeteroDagTask::new(
            self.transformed().clone(),
            self.offloaded(),
            self.original.period(),
            self.original.deadline(),
        )
        .expect("transformed task keeps a valid offloaded node and deadline")
    }

    fn graphs(&self) -> &Graphs {
        self.graphs.get_or_init(|| {
            // The numbers pass already proved G acyclic and its boundary
            // free of transitive edges.
            let (pred, succ) = reach_sets(self.original.dag(), self.offloaded());
            Graphs::build(&self.original, &pred, &succ)
        })
    }
}

/// Runs Algorithm 1 on `task`, producing [`TransformedTask`].
///
/// Computes the critical path of the task's graph and hands it to
/// [`transform_with_critical_path`].
///
/// # Errors
///
/// Returns [`AnalysisError::Dag`] if the task's graph is cyclic (cannot
/// happen for graphs built via [`hetrta_dag::DagBuilder`]), or
/// [`DagError::TransitiveEdge`] for a transitive edge at the boundary the
/// rewiring touches (rejected by [`hetrta_dag::DagBuilder::build`]).
///
/// # Examples
///
/// See the [crate-level example](crate#the-worked-example-of-the-paper-figures-12)
/// and [`crate::analysis::HeterogeneousAnalysis`].
pub fn transform(task: &HeteroDagTask) -> Result<TransformedTask, AnalysisError> {
    let cp = CriticalPath::try_of(task.dag())?;
    transform_with_critical_path(task, &cp)
}

/// Runs Algorithm 1 from `cp`, the critical path of the task's *original*
/// graph (e.g. one a derived-data cache already holds): one `O(V + E)`
/// pass computes Theorem 1's numbers, and no graph is built until one is
/// asked for (see the [module docs](self)).
///
/// # Errors
///
/// [`DagError::TransitiveEdge`] for a transitive edge at the rewired
/// boundary: a direct predecessor of `v_off` with a successor inside
/// `Pred(v_off)` (reported as `(u, v_off)`), or an edge from
/// `Pred(v_off)` into `Succ(v_off)`.
///
/// # Panics
///
/// Panics if `cp` was computed for a graph with a different node count;
/// `cp` must be the critical path of `task`'s graph.
pub fn transform_with_critical_path(
    task: &HeteroDagTask,
    cp: &CriticalPath,
) -> Result<TransformedTask, AnalysisError> {
    let dag = task.dag();
    let v_off = task.offloaded();
    let n = dag.node_count();
    assert_eq!(
        cp.order().len(),
        n,
        "critical path does not match the task graph"
    );
    // Line 1; `cp` is the proof of acyclicity the traversals need.
    let (pred, succ) = reach_sets(dag, v_off);

    // Heads inside Pred(v_off) keep their in-edges, so the barrier starts
    // at the largest of them (the direct predecessors attain it).
    let barrier = pred.iter().map(|u| cp.head(u)).max().unwrap_or(Ticks::ZERO);
    // Nodes outside Pred(v_off) keep every out-edge, so the tails of the
    // barrier's targets are the original ones.
    let mut after_barrier = cp.tail(v_off);
    for_each_rerouted_target(dag, v_off, &pred, &succ, |w| {
        after_barrier = after_barrier.max(cp.tail(w));
    })?;

    // One sweep of G in topological order: vol(G), and G_par restricted to
    // V_par. A parallel node's predecessors are parallel or in Pred(v_off),
    // whose `par_head` stays zero; G's sources outside Pred(v_off) ∪
    // {v_off} are parallel and start the paths that bypass the barrier.
    let mut par_head = vec![Ticks::ZERO; n];
    let (mut vol, mut vol_g_par, mut len_g_par) = (Ticks::ZERO, Ticks::ZERO, Ticks::ZERO);
    let mut bypass = Ticks::ZERO;
    let mut degenerate = true;
    for &v in cp.order() {
        let c = dag.wcet(v);
        vol += c;
        if v == v_off || pred.contains(v) || succ.contains(v) {
            continue;
        }
        degenerate = false;
        vol_g_par += c;
        let preds = dag.predecessors(v);
        let head = preds
            .iter()
            .map(|p| par_head[p.index()])
            .max()
            .unwrap_or(Ticks::ZERO)
            + c;
        par_head[v.index()] = head;
        len_g_par = len_g_par.max(head);
        if preds.is_empty() {
            bypass = bypass.max(cp.tail(v));
        }
    }
    let len_transformed = (barrier + after_barrier).max(bypass);

    Ok(TransformedTask {
        original: task.clone(),
        len_transformed,
        vol_transformed: vol,
        len_g_par,
        vol_g_par,
        off_on_critical_path: barrier + cp.tail(v_off) == len_transformed,
        degenerate,
        graphs: Arc::new(OnceLock::new()),
    })
}

/// Runs Algorithm 1 reusing a precomputed reachability closure of the
/// task's *original* graph, so line 1 of the algorithm costs nothing.
///
/// This is the materialized reference: it builds `G'` and `G_par` up front
/// and reads the numbers off their critical paths, which parity tests pin
/// [`transform`]'s one-pass numbers against.
///
/// # Errors
///
/// The [`transform_with_critical_path`] errors.
///
/// # Panics
///
/// Panics if `reach` was computed for a graph with a different node count.
pub fn transform_with_reachability(
    task: &HeteroDagTask,
    reach: &hetrta_dag::algo::Reachability,
) -> Result<TransformedTask, AnalysisError> {
    assert_eq!(
        reach.node_count(),
        task.dag().node_count(),
        "reachability closure does not match the task graph"
    );
    let v_off = task.offloaded();
    let (pred, succ) = (reach.ancestors(v_off), reach.descendants(v_off));
    for_each_rerouted_target(task.dag(), v_off, pred, succ, |_| {})?;
    let graphs = Graphs::build(task, pred, succ);
    let cp2 = CriticalPath::try_of(&graphs.transformed)?;
    let cp_par = CriticalPath::try_of(&graphs.g_par)?;
    Ok(TransformedTask {
        original: task.clone(),
        len_transformed: cp2.length(),
        vol_transformed: graphs.transformed.volume(),
        len_g_par: cp_par.length(),
        vol_g_par: graphs.g_par.volume(),
        off_on_critical_path: cp2.on_critical_path(v_off, &graphs.transformed),
        degenerate: graphs.par_nodes.is_empty(),
        graphs: Arc::new(OnceLock::from(graphs)),
    })
}

/// Scans every out-edge of `Pred(v_off)` — the edges Algorithm 1 rewires —
/// and hands each rerouted target (a node outside `Pred(v_off) ∪ {v_off}`)
/// to `target`, once per edge.
///
/// # Errors
///
/// [`DagError::TransitiveEdge`] for the edges the model forbids and the
/// rewiring cannot honour: an edge `(u, w)` from `Pred(v_off)` into
/// `Succ(v_off)` (it would hang a descendant of `v_off` from the barrier),
/// and `(u, v_off)` for a direct predecessor `u` with a successor inside
/// `Pred(v_off)` (rerouting that successor through `v_sync` closes a
/// cycle).
fn for_each_rerouted_target(
    dag: &Dag,
    v_off: NodeId,
    pred: &BitSet,
    succ: &BitSet,
    mut target: impl FnMut(NodeId),
) -> Result<(), AnalysisError> {
    for u in pred.iter() {
        let (mut direct, mut into_pred) = (false, false);
        for &w in dag.successors(u) {
            if w == v_off {
                direct = true;
            } else if pred.contains(w) {
                into_pred = true;
            } else if succ.contains(w) {
                return Err(DagError::TransitiveEdge(u, w).into());
            } else {
                target(w);
            }
        }
        if direct && into_pred {
            return Err(DagError::TransitiveEdge(u, v_off).into());
        }
    }
    Ok(())
}

impl Graphs {
    /// Algorithm 1's rewiring given line 1's `Pred(v_off)`/`Succ(v_off)`
    /// sets of a graph whose boundary [`for_each_rerouted_target`] accepted.
    fn build(task: &HeteroDagTask, pred: &BitSet, succ: &BitSet) -> Graphs {
        let dag = task.dag();
        let v_off = task.offloaded();
        let n = dag.node_count();

        // The rewiring is computed *symbolically* against the immutable
        // original graph and assembled into the transformed CSR arrays in
        // one pass — the frozen `Dag` is never mutated (edge-by-edge
        // rewiring cost `O(|V| + |E|)` per touched edge on CSR storage).
        // The edit set of Algorithm 1 is fully characterized by
        // `Pred(v_off)`:
        //
        // * every edge out of a *direct* predecessor of `v_off` is removed
        //   (lines 3–8 reroute all of them through `v_sync`);
        // * every edge from a remaining ancestor to a non-ancestor is
        //   removed (lines 10–13; the target is parallel to `v_off`);
        // * `v_sync` gains the rerouted targets (deduplicated, in
        //   first-seen order), then `v_off`, then the line-10–13 targets —
        //   appended edges land at the end of each endpoint's segment,
        //   exactly as incremental insertion ordered them.
        let sync = NodeId::from_index(n);
        let direct_pred: Vec<NodeId> = dag.predecessors(v_off).to_vec();
        let mut is_direct = BitSet::new(n);
        for &vi in &direct_pred {
            is_direct.insert(vi);
        }

        // Successor list of v_sync, in the order the mutation path added
        // the edges; `sync_targets` doubles as the "already added" dedup
        // set.
        let mut sync_targets = BitSet::new(n);
        let mut sync_succ: Vec<NodeId> = Vec::new();
        // Lines 3–8: reroute the remaining successors of direct
        // predecessors.
        for &vi in &direct_pred {
            for &vj in dag.successors(vi) {
                if vj == v_off {
                    continue; // the (v_i, v_off) edge is removed, not rerouted
                }
                if sync_targets.insert(vj) {
                    sync_succ.push(vj);
                }
            }
        }
        // Line 9: (v_sync, v_off).
        sync_targets.insert(v_off);
        sync_succ.push(v_off);
        // Lines 10–13: reroute ancestor edges that leave Pred(v_off).
        for vi in pred.iter().filter(|v| !is_direct.contains(*v)) {
            for &vj in dag.successors(vi) {
                if !pred.contains(vj) && sync_targets.insert(vj) {
                    sync_succ.push(vj);
                }
            }
        }

        // An original edge (u, v) survives the rewiring iff u is not a
        // direct predecessor (those lose every outgoing edge) and, when u
        // is a remaining ancestor, v stays inside Pred(v_off).
        let kept = |u: NodeId, v: NodeId| {
            !is_direct.contains(u) && (!pred.contains(u) || pred.contains(v))
        };

        // Assemble G' = (V ∪ {v_sync}, E') directly in CSR form, preserving
        // the exact per-segment adjacency order of the mutation path: kept
        // original edges keep their positions, appended edges follow.
        let mut wcets = Vec::with_capacity(n + 1);
        let mut succ_off = Vec::with_capacity(n + 2);
        succ_off.push(0u32);
        let mut succs = Vec::with_capacity(dag.edge_count() + sync_succ.len() + direct_pred.len());
        let mut pred_off = Vec::with_capacity(n + 2);
        pred_off.push(0u32);
        let mut preds = Vec::with_capacity(dag.edge_count() + sync_succ.len() + direct_pred.len());
        for u in dag.node_ids() {
            wcets.push(dag.wcet(u));
            if is_direct.contains(u) {
                // Lines 3–8 leave v_sync as the node's only successor.
                succs.push(sync);
            } else {
                succs.extend(dag.successors(u).iter().copied().filter(|&vj| kept(u, vj)));
            }
            succ_off.push(succs.len() as u32);
            preds.extend(
                dag.predecessors(u)
                    .iter()
                    .copied()
                    .filter(|&vi| kept(vi, u)),
            );
            if sync_targets.contains(u) {
                preds.push(sync);
            }
            pred_off.push(preds.len() as u32);
        }
        // v_sync itself: the rerouted targets out, the direct predecessors
        // in.
        wcets.push(Ticks::ZERO);
        let mut labels = Labels::with_capacity(n + 1, dag.labels().text_len() + "v_sync".len());
        labels.extend_from(dag.labels());
        labels.push("v_sync");
        succs.extend_from_slice(&sync_succ);
        succ_off.push(succs.len() as u32);
        preds.extend_from_slice(&direct_pred);
        pred_off.push(preds.len() as u32);
        let transformed = Dag::from_csr_parts(wcets, labels, succ_off, succs, pred_off, preds);

        // Line 14: V_par = V \ Pred(v_off) \ Succ(v_off) \ {v_off}.
        let mut par_nodes = BitSet::full(n);
        par_nodes.difference_with(pred);
        par_nodes.difference_with(succ);
        par_nodes.remove(v_off);

        // Line 15–17: E_par from the *original* edge set.
        let (g_par, g_par_old_ids) = dag.induced_subgraph(&par_nodes);
        Graphs {
            transformed,
            par_nodes,
            g_par,
            g_par_old_ids,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetrta_dag::algo::{is_acyclic, Reachability};
    use hetrta_dag::DagBuilder;

    /// The paper's Figure 1(a) with WCETs reconstructed from the stated
    /// aggregates (see DESIGN.md): C1=1, C2=4, C3=6, C4=2, C5=1, C_off=4.
    fn figure1_task() -> (HeteroDagTask, [NodeId; 6]) {
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
        let task =
            HeteroDagTask::new(b.build().unwrap(), voff, Ticks::new(50), Ticks::new(50)).unwrap();
        (task, [v1, v2, v3, v4, v5, voff])
    }

    /// The paper's Figure 3(a): a larger example exercising both loops of
    /// Algorithm 1 (direct and indirect predecessors with parallel
    /// successors).
    ///
    /// Structure (all WCET 1 unless noted):
    /// v1 → v2, v1 → v3 ;  v3 → v7, v3 → v8 ; v8 → v_off, v8 → v11 ;
    /// v9 → v_off ; v1 → v9 (so v9 is a second direct predecessor) ;
    /// v2 → v10 ; v7 → v10 ; v_off → v12 ; v11 → v12 ; v10 → v12.
    fn figure3_task() -> (
        HeteroDagTask,
        std::collections::HashMap<&'static str, NodeId>,
    ) {
        let mut b = DagBuilder::new();
        let mut m = std::collections::HashMap::new();
        for name in [
            "v1", "v2", "v3", "v7", "v8", "v9", "v_off", "v10", "v11", "v12",
        ] {
            m.insert(name, b.node(name, Ticks::new(1)));
        }
        b.edges([
            (m["v1"], m["v2"]),
            (m["v1"], m["v3"]),
            (m["v1"], m["v9"]),
            (m["v3"], m["v7"]),
            (m["v3"], m["v8"]),
            (m["v8"], m["v_off"]),
            (m["v8"], m["v11"]),
            (m["v9"], m["v_off"]),
            (m["v2"], m["v10"]),
            (m["v7"], m["v10"]),
            (m["v_off"], m["v12"]),
            (m["v11"], m["v12"]),
            (m["v10"], m["v12"]),
        ])
        .unwrap();
        let task = HeteroDagTask::new(
            b.build().unwrap(),
            m["v_off"],
            Ticks::new(99),
            Ticks::new(99),
        )
        .unwrap();
        (task, m)
    }

    #[test]
    fn figure1_transformation_structure() {
        let (task, [v1, v2, v3, v4, v5, voff]) = figure1_task();
        let t = transform(&task).unwrap();
        let g2 = t.transformed();
        let sync = t.sync_node();

        // v_sync properties
        assert_eq!(g2.wcet(sync), Ticks::ZERO);
        assert_eq!(g2.node_count(), 7);

        // Edges: v1→v4 kept; v4→v_sync; v_sync→{v2, v3, v_off}; v2,v3,v_off→v5.
        assert!(g2.has_edge(v1, v4));
        assert!(g2.has_edge(v4, sync));
        assert!(g2.has_edge(sync, v2));
        assert!(g2.has_edge(sync, v3));
        assert!(g2.has_edge(sync, voff));
        assert!(g2.has_edge(v2, v5));
        assert!(g2.has_edge(v3, v5));
        assert!(g2.has_edge(voff, v5));
        // removed edges
        assert!(!g2.has_edge(v4, voff));
        assert!(!g2.has_edge(v1, v2));
        assert!(!g2.has_edge(v1, v3));

        // len(G') = 10 (paper §3.3), vol unchanged.
        assert_eq!(t.len_transformed(), Ticks::new(10));
        assert_eq!(t.vol_transformed(), Ticks::new(18));

        // G_par = {v2, v3}: len 6, vol 10.
        assert_eq!(t.par_nodes().len(), 2);
        assert!(t.par_nodes().contains(v2) && t.par_nodes().contains(v3));
        assert_eq!(t.len_g_par(), Ticks::new(6));
        assert_eq!(t.vol_g_par(), Ticks::new(10));

        // v_off is NOT on the critical path of G' (8 < 10): Scenario 1.
        assert!(!t.off_on_critical_path());
        assert!(!t.is_degenerate());
    }

    #[test]
    fn figure3_transformation_edges() {
        let (task, m) = figure3_task();
        let t = transform(&task).unwrap();
        let g2 = t.transformed();
        let sync = t.sync_node();

        // Direct predecessors v8, v9: green edges to v_sync, removed to v_off.
        assert!(g2.has_edge(m["v8"], sync));
        assert!(g2.has_edge(m["v9"], sync));
        assert!(!g2.has_edge(m["v8"], m["v_off"]));
        assert!(!g2.has_edge(m["v9"], m["v_off"]));
        // Black edge: v8's other successor v11 now hangs from v_sync.
        assert!(!g2.has_edge(m["v8"], m["v11"]));
        assert!(g2.has_edge(sync, m["v11"]));
        // Yellow edge.
        assert!(g2.has_edge(sync, m["v_off"]));
        // Pink edges: (v1,v2) and (v3,v7) rerouted through v_sync.
        assert!(!g2.has_edge(m["v1"], m["v2"]));
        assert!(!g2.has_edge(m["v3"], m["v7"]));
        assert!(g2.has_edge(sync, m["v2"]));
        assert!(g2.has_edge(sync, m["v7"]));
        // Ancestor-to-ancestor edges are untouched: v1→v3, v3→v8, v1→v9.
        assert!(g2.has_edge(m["v1"], m["v3"]));
        assert!(g2.has_edge(m["v3"], m["v8"]));
        assert!(g2.has_edge(m["v1"], m["v9"]));
        // G_par = {v2, v7, v10, v11}.
        let par: Vec<&str> = ["v2", "v7", "v10", "v11"].to_vec();
        assert_eq!(t.par_nodes().len(), 4);
        for p in par {
            assert!(t.par_nodes().contains(m[p]), "{p} should be parallel");
        }
        // E_par keeps internal edges (v2,v10), (v7,v10) but not (v11,v12).
        assert_eq!(t.g_par().edge_count(), 2);
    }

    #[test]
    fn closure_free_transform_matches_reachability_path_bitwise() {
        for (task, _) in [
            {
                let (t, v) = figure1_task();
                (t, v.to_vec())
            },
            {
                let (t, m) = figure3_task();
                (t, m.values().copied().collect())
            },
        ] {
            let reach = Reachability::of(task.dag()).unwrap();
            let a = transform(&task).unwrap();
            let b = transform_with_reachability(&task, &reach).unwrap();
            assert_eq!(a.len_transformed(), b.len_transformed());
            assert_eq!(a.len_g_par(), b.len_g_par());
            assert_eq!(a.vol_g_par(), b.vol_g_par());
            assert_eq!(a.sync_node(), b.sync_node());
            assert_eq!(a.par_nodes(), b.par_nodes());
            assert_eq!(a.off_on_critical_path(), b.off_on_critical_path());
            let (ga, gb) = (a.transformed(), b.transformed());
            assert_eq!(ga.node_count(), gb.node_count());
            for v in ga.node_ids() {
                assert_eq!(ga.label(v), gb.label(v));
                assert_eq!(ga.wcet(v), gb.wcet(v));
                assert_eq!(ga.successors(v), gb.successors(v), "succ segment of {v}");
                assert_eq!(
                    ga.predecessors(v),
                    gb.predecessors(v),
                    "pred segment of {v}"
                );
            }
        }
    }

    #[test]
    fn transformed_graph_is_acyclic_with_single_terminals() {
        let (task, _) = figure1_task();
        let t = transform(&task).unwrap();
        assert!(is_acyclic(t.transformed()));
        assert_eq!(t.transformed().sources().len(), 1);
        assert_eq!(t.transformed().sinks().len(), 1);
        let (task3, _) = figure3_task();
        let t3 = transform(&task3).unwrap();
        assert!(is_acyclic(t3.transformed()));
        assert_eq!(t3.transformed().sources().len(), 1);
        assert_eq!(t3.transformed().sinks().len(), 1);
    }

    #[test]
    fn sync_dominates_off_and_gpar() {
        let (task, _) = figure3_task();
        let t = transform(&task).unwrap();
        let g2 = t.transformed();
        let reach = Reachability::of(g2).unwrap();
        // every parallel node and v_off are descendants of v_sync
        assert!(reach.descendants(t.sync_node()).contains(t.offloaded()));
        for v in t.par_nodes().iter() {
            assert!(
                reach.descendants(t.sync_node()).contains(v),
                "{v} must start after the barrier"
            );
        }
    }

    #[test]
    fn volume_preserved() {
        let (task, _) = figure1_task();
        let t = transform(&task).unwrap();
        assert_eq!(t.transformed().volume(), task.volume());
    }

    #[test]
    fn gpar_mapping_roundtrip() {
        let (task, m) = figure3_task();
        let t = transform(&task).unwrap();
        for v in t.g_par().node_ids() {
            let orig = t.g_par_original_id(v);
            assert!(t.par_nodes().contains(orig));
            assert_eq!(t.g_par().wcet(v), task.dag().wcet(orig));
        }
        let _ = m;
    }

    #[test]
    fn chain_task_has_empty_gpar() {
        // v_off in series with everything: G_par must be empty (degenerate).
        let mut b = DagBuilder::new();
        let a = b.node("a", Ticks::new(2));
        let k = b.node("k", Ticks::new(5));
        let z = b.node("z", Ticks::new(2));
        b.edges([(a, k), (k, z)]).unwrap();
        let task =
            HeteroDagTask::new(b.build().unwrap(), k, Ticks::new(20), Ticks::new(20)).unwrap();
        let t = transform(&task).unwrap();
        assert!(t.is_degenerate());
        assert_eq!(t.vol_g_par(), Ticks::ZERO);
        assert_eq!(t.len_g_par(), Ticks::ZERO);
        // Chain plus barrier: a → v_sync → k → z, len unchanged.
        assert_eq!(t.len_transformed(), Ticks::new(9));
        assert!(t.off_on_critical_path());
    }

    #[test]
    fn as_task_preserves_timing_and_offload() {
        let (task, _) = figure1_task();
        let t = transform(&task).unwrap();
        let t2 = t.as_task();
        assert_eq!(t2.period(), task.period());
        assert_eq!(t2.deadline(), task.deadline());
        assert_eq!(t2.offloaded(), task.offloaded());
        assert_eq!(t2.c_off(), task.c_off());
        assert_eq!(t2.dag().node_count(), task.dag().node_count() + 1);
    }

    #[test]
    fn shared_parallel_successor_of_two_direct_preds() {
        // Both p1 and p2 are direct preds of v_off and both point at the
        // same parallel node w: the rerouted edge (v_sync, w) must be added
        // only once.
        let mut b = DagBuilder::new();
        let src = b.node("src", Ticks::ONE);
        let p1 = b.node("p1", Ticks::ONE);
        let p2 = b.node("p2", Ticks::ONE);
        let w = b.node("w", Ticks::ONE);
        let voff = b.node("v_off", Ticks::new(3));
        let sink = b.node("sink", Ticks::ONE);
        b.edges([
            (src, p1),
            (src, p2),
            (p1, voff),
            (p2, voff),
            (p1, w),
            (p2, w),
            (voff, sink),
            (w, sink),
        ])
        .unwrap();
        let task =
            HeteroDagTask::new(b.build().unwrap(), voff, Ticks::new(30), Ticks::new(30)).unwrap();
        let t = transform(&task).unwrap();
        let g2 = t.transformed();
        let sync = t.sync_node();
        assert!(g2.has_edge(sync, w));
        assert!(g2.has_edge(p1, sync) && g2.has_edge(p2, sync));
        assert!(is_acyclic(g2));
        // w appears exactly once among sync's successors
        assert_eq!(g2.successors(sync).iter().filter(|&&v| v == w).count(), 1);
    }

    /// `task` on `edges` over nodes `n0..n{count}` (WCET 1), frozen without
    /// the model checks `build()` runs, with `n{off}` offloaded.
    fn frozen_task(count: usize, edges: &[(usize, usize)], off: usize) -> HeteroDagTask {
        let mut b = DagBuilder::new();
        let ids: Vec<NodeId> = (0..count)
            .map(|i| b.node(format!("n{i}"), Ticks::ONE))
            .collect();
        b.edges(edges.iter().map(|&(u, w)| (ids[u], ids[w])))
            .unwrap();
        HeteroDagTask::new(b.freeze(), ids[off], Ticks::new(50), Ticks::new(50)).unwrap()
    }

    fn transitive_edge(u: usize, w: usize) -> Result<(), AnalysisError> {
        Err(AnalysisError::Dag(DagError::TransitiveEdge(
            NodeId::from_index(u),
            NodeId::from_index(w),
        )))
    }

    fn outcome(task: &HeteroDagTask) -> [Result<(), AnalysisError>; 3] {
        let reach = Reachability::of(task.dag()).unwrap();
        [
            transform(task).map(drop),
            transform_with_reachability(task, &reach).map(drop),
            crate::HeterogeneousAnalysis::run(task, 2).map(drop),
        ]
    }

    #[test]
    fn direct_predecessor_reaching_pred_is_a_transitive_edge_not_a_cycle() {
        // src → u → w → v_off with the shortcut u → v_off: rerouting w
        // through v_sync would close v_sync → w → v_sync.
        let edges = [(0, 1), (1, 2), (2, 3), (1, 3), (3, 4)];
        let task = frozen_task(5, &edges, 3);
        for result in outcome(&task) {
            assert_eq!(result, transitive_edge(1, 3));
        }
        // The validating builder names the same edge.
        let mut b = DagBuilder::new();
        let ids: Vec<NodeId> = (0..5).map(|_| b.unlabeled_node(Ticks::ONE)).collect();
        b.edges(edges.iter().map(|&(u, w)| (ids[u], ids[w])))
            .unwrap();
        assert_eq!(
            b.build().unwrap_err(),
            DagError::TransitiveEdge(ids[1], ids[3])
        );
    }

    #[test]
    fn ancestor_edge_into_succ_is_a_transitive_edge() {
        // src → p → v_off → c with the shortcut src → c.
        let task = frozen_task(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 3)], 2);
        for result in outcome(&task) {
            assert_eq!(result, transitive_edge(0, 3));
        }
    }

    #[test]
    fn direct_predecessor_edge_into_succ_is_a_transitive_edge() {
        // src → p → v_off → c with the shortcut p → c.
        let task = frozen_task(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)], 2);
        for result in outcome(&task) {
            assert_eq!(result, transitive_edge(1, 3));
        }
    }

    #[test]
    fn transitive_edges_away_from_the_boundary_are_left_alone() {
        // The shortcut src → w lies inside Pred(v_off) and is rewired by
        // nothing; both paths transform the graph and agree.
        let task = frozen_task(5, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)], 3);
        let reach = Reachability::of(task.dag()).unwrap();
        let lazy = transform(&task).unwrap();
        let reference = transform_with_reachability(&task, &reach).unwrap();
        assert_eq!(lazy.len_transformed(), reference.len_transformed());
        assert_eq!(
            lazy.transformed().digest(),
            reference.transformed().digest()
        );
    }

    #[test]
    fn graphs_are_built_once_and_shared_by_clones() {
        let (task, _) = figure3_task();
        let t = transform(&task).unwrap();
        let copy = t.clone();
        // Built through the clone, visible through the original.
        assert!(std::ptr::eq(copy.transformed(), t.transformed()));
        assert!(std::ptr::eq(copy.g_par(), t.g_par()));
        assert!(std::ptr::eq(copy.par_nodes(), t.par_nodes()));
    }

    #[test]
    fn numbers_need_no_graph() {
        let (task, _) = figure1_task();
        let t = transform(&task).unwrap();
        assert!(t.graphs.get().is_none());
        assert_eq!(t.len_transformed(), Ticks::new(10));
        assert_eq!(t.vol_transformed(), Ticks::new(18));
        assert_eq!(
            (t.len_g_par(), t.vol_g_par()),
            (Ticks::new(6), Ticks::new(10))
        );
        assert!(!t.off_on_critical_path() && !t.is_degenerate());
        assert_eq!(t.sync_node(), NodeId::from_index(6));
        assert!(
            t.graphs.get().is_none(),
            "reading the numbers built a graph"
        );
        let _ = t.g_par();
        assert!(t.graphs.get().is_some());
    }
}
