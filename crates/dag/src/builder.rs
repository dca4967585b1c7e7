//! Validating DAG builder.

use crate::algo::{topological_order, transitive};
use crate::{Dag, DagError, Labels, NodeId, Ticks};

/// A builder that constructs a [`Dag`] and validates the paper's structural
/// model on [`build`](DagBuilder::build).
///
/// The checks performed by `build` are:
///
/// 1. the graph is non-empty;
/// 2. the graph is acyclic;
/// 3. the graph contains no transitive edge (Section 2 of the paper forbids
///    them);
/// 4. optionally — on by default — the graph has exactly one source and one
///    sink. Call
///    [`DagBuilder::allow_multiple_sources_and_sinks`] to skip check 4, or
///    [`add_dummy_terminals`](DagBuilder::add_dummy_terminals) to instead
///    normalize the graph with zero-WCET dummy source/sink nodes as
///    suggested by the paper.
///
/// # Examples
///
/// ```
/// use hetrta_dag::{DagBuilder, Ticks};
///
/// let mut b = DagBuilder::new();
/// let fork = b.node("fork", Ticks::new(1));
/// let left = b.node("left", Ticks::new(5));
/// let right = b.node("right", Ticks::new(4));
/// let join = b.node("join", Ticks::new(1));
/// b.edges([(fork, left), (fork, right), (left, join), (right, join)])?;
/// let dag = b.build()?;
/// assert_eq!(dag.node_count(), 4);
/// # Ok::<(), hetrta_dag::DagError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct DagBuilder {
    wcets: Vec<Ticks>,
    labels: Labels,
    /// Per-node successor lists (amortized `O(1)` insertion, `O(deg)`
    /// duplicate checks) — the mutable accumulation representation.
    succs: Vec<Vec<NodeId>>,
    /// Every edge in insertion order: [`DagBuilder::build`] freezes this
    /// into the [`Dag`]'s CSR arrays in one `O(|V| + |E|)` pass with
    /// adjacency order identical to incremental insertion.
    edges: Vec<(NodeId, NodeId)>,
    allow_multi_terminals: bool,
    add_dummies: bool,
}

impl DagBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        DagBuilder::default()
    }

    /// Adds a labeled node and returns its id.
    pub fn node(&mut self, label: impl Into<String>, wcet: Ticks) -> NodeId {
        let id = NodeId::from_index(self.wcets.len());
        self.wcets.push(wcet);
        self.labels.push(&label.into());
        self.succs.push(Vec::new());
        id
    }

    /// Adds an unlabeled node and returns its id.
    pub fn unlabeled_node(&mut self, wcet: Ticks) -> NodeId {
        self.node(String::new(), wcet)
    }

    /// Adds one precedence edge.
    ///
    /// # Errors
    ///
    /// The per-edge structural errors: unknown node, self-loop,
    /// duplicate.
    pub fn edge(&mut self, from: NodeId, to: NodeId) -> Result<&mut Self, DagError> {
        if from.index() >= self.wcets.len() {
            return Err(DagError::UnknownNode(from));
        }
        if to.index() >= self.wcets.len() {
            return Err(DagError::UnknownNode(to));
        }
        if from == to {
            return Err(DagError::SelfLoop(from));
        }
        if self.succs[from.index()].contains(&to) {
            return Err(DagError::DuplicateEdge(from, to));
        }
        self.succs[from.index()].push(to);
        self.edges.push((from, to));
        Ok(self)
    }

    /// Adds many precedence edges at once.
    ///
    /// # Errors
    ///
    /// Stops at and reports the first failing edge.
    pub fn edges(
        &mut self,
        edges: impl IntoIterator<Item = (NodeId, NodeId)>,
    ) -> Result<&mut Self, DagError> {
        for (f, t) in edges {
            self.edge(f, t)?;
        }
        Ok(self)
    }

    /// Accept graphs with multiple sources and/or sinks.
    ///
    /// The paper assumes a unique source and sink "without loss of
    /// generality"; sub-DAGs such as `G_par` legitimately violate it.
    pub fn allow_multiple_sources_and_sinks(&mut self) -> &mut Self {
        self.allow_multi_terminals = true;
        self
    }

    /// Normalize multi-source / multi-sink graphs by adding zero-WCET dummy
    /// terminals, as described in Section 2 of the paper.
    ///
    /// A dummy source (labeled `"src"`) gains edges to all original sources
    /// and a dummy sink (labeled `"sink"`) from all original sinks; they are
    /// only added when needed.
    pub fn add_dummy_terminals(&mut self) -> &mut Self {
        self.add_dummies = true;
        self
    }

    /// Number of nodes added so far.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.wcets.len()
    }

    /// Number of edges added so far.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// `true` if the edge `(from, to)` was already added — an `O(deg)`
    /// probe into the accumulated adjacency, for construction-side dedup
    /// (e.g. the OpenMP lowering joining the same open task exit twice).
    #[must_use]
    pub fn has_edge(&self, from: NodeId, to: NodeId) -> bool {
        self.succs
            .get(from.index())
            .is_some_and(|succs| succs.contains(&to))
    }

    /// Freezes the accumulated structure into a [`Dag`] in one
    /// `O(|V| + |E|)` pass **without model validation** — no acyclicity,
    /// transitive-edge or terminal checks (the per-edge checks of
    /// [`DagBuilder::edge`] have already run).
    ///
    /// This is the fast path for generators whose output is valid by
    /// construction (the nested fork-join expansion can only produce
    /// acyclic, transitively-reduced graphs) and for intermediate graphs
    /// that intentionally violate the model before a later normalization
    /// pass (the OpenMP lowering freezes, transitively reduces, then
    /// validates). Untrusted input should go through
    /// [`DagBuilder::build`].
    ///
    /// Adjacency order is identical to inserting the same edges
    /// incrementally, so freezing is bitwise-transparent to every
    /// downstream analysis.
    #[must_use]
    pub fn freeze(&self) -> Dag {
        Dag::from_parts(self.wcets.clone(), self.labels.clone(), &self.edges)
    }

    /// Finishes construction, validating the task model.
    ///
    /// The accumulated adjacency freezes into the [`Dag`]'s flat CSR form
    /// in one `O(|V| + |E|)` pass (no per-edge shifting), so building a
    /// graph through the builder costs linear time regardless of size.
    ///
    /// # Errors
    ///
    /// - [`DagError::Empty`] for a graph without nodes;
    /// - [`DagError::Cycle`] if a directed cycle exists;
    /// - [`DagError::TransitiveEdge`] if a transitive edge exists;
    /// - [`DagError::MultipleSources`] / [`DagError::MultipleSinks`] unless
    ///   allowed or normalized away.
    pub fn build(&self) -> Result<Dag, DagError> {
        if self.wcets.is_empty() {
            return Err(DagError::Empty);
        }
        // Dummy terminals are decided from the accumulated adjacency and
        // appended to the *parts* before the single freeze — the frozen
        // graph is never mutated. Appending the dummy nodes and edges at
        // the end of the part vectors yields exactly the adjacency the
        // old freeze-then-mutate path produced (appended edges land at
        // the end of each endpoint's segment either way).
        let n = self.wcets.len();
        let dag = if self.add_dummies {
            let mut in_deg = vec![0u32; n];
            let mut out_deg = vec![0u32; n];
            for &(from, to) in &self.edges {
                out_deg[from.index()] += 1;
                in_deg[to.index()] += 1;
            }
            let sources: Vec<NodeId> = (0..n)
                .filter(|&i| in_deg[i] == 0)
                .map(NodeId::from_index)
                .collect();
            let sinks: Vec<NodeId> = (0..n)
                .filter(|&i| out_deg[i] == 0)
                .map(NodeId::from_index)
                .collect();
            if sources.len() > 1 || sinks.len() > 1 {
                let mut wcets = self.wcets.clone();
                let mut labels = self.labels.clone();
                let mut edges = self.edges.clone();
                if sources.len() > 1 {
                    let src = NodeId::from_index(wcets.len());
                    wcets.push(Ticks::ZERO);
                    labels.push("src");
                    edges.extend(sources.into_iter().map(|s| (src, s)));
                }
                if sinks.len() > 1 {
                    let sink = NodeId::from_index(wcets.len());
                    wcets.push(Ticks::ZERO);
                    labels.push("sink");
                    edges.extend(sinks.into_iter().map(|s| (s, sink)));
                }
                Dag::from_parts(wcets, labels, &edges)
            } else {
                self.freeze()
            }
        } else {
            self.freeze()
        };
        topological_order(&dag)?;
        // Dummy terminal edges can never be transitive (a dummy source is
        // the only predecessor of every original source, symmetrically
        // for sinks), so validating the final graph reports the same
        // transitive edges the pre-dummy graph would.
        if let Some((u, w)) = transitive::find_transitive_edge(&dag)? {
            return Err(DagError::TransitiveEdge(u, w));
        }
        if !self.allow_multi_terminals {
            let sources = dag.sources();
            if sources.len() != 1 {
                return Err(DagError::MultipleSources(sources));
            }
            let sinks = dag.sinks();
            if sinks.len() != 1 {
                return Err(DagError::MultipleSinks(sinks));
            }
        }
        Ok(dag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_valid_fork_join() {
        let mut b = DagBuilder::new();
        let f = b.node("f", Ticks::ONE);
        let l = b.node("l", Ticks::ONE);
        let r = b.node("r", Ticks::ONE);
        let j = b.node("j", Ticks::ONE);
        b.edges([(f, l), (f, r), (l, j), (r, j)]).unwrap();
        let dag = b.build().unwrap();
        assert_eq!(dag.source(), Some(f));
        assert_eq!(dag.sink(), Some(j));
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(DagBuilder::new().build().unwrap_err(), DagError::Empty);
    }

    #[test]
    fn rejects_cycle() {
        let mut b = DagBuilder::new();
        let a = b.node("a", Ticks::ONE);
        let c = b.node("c", Ticks::ONE);
        b.edge(a, c).unwrap();
        b.edge(c, a).unwrap();
        assert!(matches!(b.build(), Err(DagError::Cycle(_))));
    }

    #[test]
    fn rejects_transitive_edge() {
        let mut b = DagBuilder::new();
        let a = b.node("a", Ticks::ONE);
        let m = b.node("m", Ticks::ONE);
        let z = b.node("z", Ticks::ONE);
        b.edges([(a, m), (m, z), (a, z)]).unwrap();
        assert_eq!(b.build().unwrap_err(), DagError::TransitiveEdge(a, z));
    }

    #[test]
    fn rejects_multiple_sources_by_default() {
        let mut b = DagBuilder::new();
        let a = b.node("a", Ticks::ONE);
        let c = b.node("c", Ticks::ONE);
        let z = b.node("z", Ticks::ONE);
        b.edges([(a, z), (c, z)]).unwrap();
        assert!(matches!(b.build(), Err(DagError::MultipleSources(v)) if v.len() == 2));
    }

    #[test]
    fn allow_multi_terminals_accepts_forest() {
        let mut b = DagBuilder::new();
        b.node("a", Ticks::ONE);
        b.node("b", Ticks::ONE);
        b.allow_multiple_sources_and_sinks();
        let dag = b.build().unwrap();
        assert_eq!(dag.sources().len(), 2);
    }

    #[test]
    fn dummy_terminals_normalize() {
        let mut b = DagBuilder::new();
        let a = b.node("a", Ticks::new(3));
        let c = b.node("c", Ticks::new(4));
        let z = b.node("z", Ticks::new(5));
        let y = b.node("y", Ticks::new(6));
        b.edges([(a, z), (c, y)]).unwrap();
        b.add_dummy_terminals();
        let dag = b.build().unwrap();
        assert_eq!(dag.node_count(), 6);
        let src = dag.source().expect("unique source after normalization");
        let sink = dag.sink().expect("unique sink after normalization");
        assert_eq!(dag.wcet(src), Ticks::ZERO);
        assert_eq!(dag.wcet(sink), Ticks::ZERO);
        assert_eq!(dag.label(src), "src");
        assert_eq!(dag.label(sink), "sink");
        // volume unchanged by dummies
        assert_eq!(dag.volume(), Ticks::new(18));
    }

    #[test]
    fn dummy_terminals_noop_when_already_normalized() {
        let mut b = DagBuilder::new();
        let a = b.node("a", Ticks::ONE);
        let z = b.node("z", Ticks::ONE);
        b.edge(a, z).unwrap();
        b.add_dummy_terminals();
        let dag = b.build().unwrap();
        assert_eq!(dag.node_count(), 2);
    }

    #[test]
    fn builder_is_reusable_after_build() {
        let mut b = DagBuilder::new();
        let a = b.node("a", Ticks::ONE);
        let z = b.node("z", Ticks::ONE);
        b.edge(a, z).unwrap();
        let d1 = b.build().unwrap();
        let w = b.node("w", Ticks::ONE);
        b.edge(z, w).unwrap();
        let d2 = b.build().unwrap();
        assert_eq!(d1.node_count(), 2);
        assert_eq!(d2.node_count(), 3);
    }
}
