//! Node identifiers.

use core::fmt;

/// Identifier of a node inside a [`Dag`](crate::Dag).
///
/// A `NodeId` is a dense index: the `i`-th node added to a DAG has id `i`.
/// Ids are only meaningful relative to the graph that produced them; using a
/// `NodeId` from one graph on another is caught (by range checks) only when
/// the index is out of bounds.
///
/// # Examples
///
/// ```
/// use hetrta_dag::{DagBuilder, Ticks};
///
/// let mut builder = DagBuilder::new();
/// let a = builder.unlabeled_node(Ticks::new(1));
/// let b = builder.unlabeled_node(Ticks::new(2));
/// assert_eq!(a.index(), 0);
/// assert_eq!(b.index(), 1);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from a raw dense index.
    ///
    /// Mostly useful in tests and when deserializing externally produced
    /// graphs; prefer the ids returned by
    /// [`DagBuilder::node`](crate::DagBuilder::node).
    #[must_use]
    pub const fn from_index(index: usize) -> Self {
        debug_assert!(index <= u32::MAX as usize);
        NodeId(index as u32)
    }

    /// Returns the dense index of this node.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<NodeId> for usize {
    fn from(id: NodeId) -> usize {
        id.index()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_index() {
        for i in [0usize, 1, 17, 1000] {
            assert_eq!(NodeId::from_index(i).index(), i);
        }
    }

    #[test]
    fn display_and_debug_are_compact() {
        let id = NodeId::from_index(4);
        assert_eq!(format!("{id}"), "n4");
        assert_eq!(format!("{id:?}"), "n4");
    }

    #[test]
    fn ordering_follows_indices() {
        assert!(NodeId::from_index(1) < NodeId::from_index(2));
        assert_eq!(NodeId::from_index(3), NodeId::from_index(3));
    }

    #[test]
    fn usize_conversion() {
        let id = NodeId::from_index(9);
        let as_usize: usize = id.into();
        assert_eq!(as_usize, 9);
    }
}
