//! A fixed-capacity bit set over dense node indices.

use core::fmt;

use crate::NodeId;

/// A fixed-capacity set of [`NodeId`]s backed by `u64` words.
///
/// Reachability queries (`Pred(v_off)`, `Succ(v_off)`, the parallel set
/// `V_par`) are the hot path of the DAG transformation; a dense bit set
/// makes the per-node closure computation a handful of word operations.
///
/// The capacity is fixed at construction; inserting an index `≥ capacity`
/// panics.
///
/// # Examples
///
/// ```
/// use hetrta_dag::{BitSet, NodeId};
///
/// let mut s = BitSet::new(10);
/// s.insert(NodeId::from_index(3));
/// s.insert(NodeId::from_index(7));
/// assert!(s.contains(NodeId::from_index(3)));
/// assert_eq!(s.len(), 2);
/// let ids: Vec<usize> = s.iter().map(|n| n.index()).collect();
/// assert_eq!(ids, vec![3, 7]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitSet {
    words: Vec<u64>,
    capacity: usize,
}

impl Default for BitSet {
    /// The empty set with zero capacity (useful as a take/replace
    /// placeholder in in-place algorithms).
    fn default() -> Self {
        BitSet::new(0)
    }
}

impl BitSet {
    /// Creates an empty set able to hold indices `0..capacity`.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        BitSet {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// Creates a set containing all indices `0..capacity`.
    #[must_use]
    pub fn full(capacity: usize) -> Self {
        let mut s = BitSet::new(capacity);
        for i in 0..capacity {
            s.insert(NodeId::from_index(i));
        }
        s
    }

    /// The maximum number of distinct indices this set can hold.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts a node; returns `true` if it was not already present.
    ///
    /// # Panics
    ///
    /// Panics if `id.index() >= capacity`.
    pub fn insert(&mut self, id: NodeId) -> bool {
        let i = id.index();
        assert!(
            i < self.capacity,
            "bitset index {i} out of capacity {}",
            self.capacity
        );
        let (w, b) = (i / 64, i % 64);
        let was = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !was
    }

    /// Removes a node; returns `true` if it was present.
    pub fn remove(&mut self, id: NodeId) -> bool {
        let i = id.index();
        if i >= self.capacity {
            return false;
        }
        let (w, b) = (i / 64, i % 64);
        let was = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        was
    }

    /// Membership test. Out-of-range indices are simply absent.
    #[must_use]
    pub fn contains(&self, id: NodeId) -> bool {
        let i = id.index();
        i < self.capacity && self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Number of elements in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` if the set contains no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// In-place union: `self ← self ∪ other`.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn union_with(&mut self, other: &BitSet) {
        assert_eq!(self.capacity, other.capacity, "bitset capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place intersection: `self ← self ∩ other`.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn intersect_with(&mut self, other: &BitSet) {
        assert_eq!(self.capacity, other.capacity, "bitset capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place difference: `self ← self \ other`.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn difference_with(&mut self, other: &BitSet) {
        assert_eq!(self.capacity, other.capacity, "bitset capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// `true` if `self ⊆ other`.
    #[must_use]
    pub fn is_subset(&self, other: &BitSet) -> bool {
        self.capacity == other.capacity
            && self
                .words
                .iter()
                .zip(&other.words)
                .all(|(a, b)| a & !b == 0)
    }

    /// `true` if the two sets share no element.
    #[must_use]
    pub fn is_disjoint(&self, other: &BitSet) -> bool {
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    /// Iterates over the members in increasing index order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<NodeId> for BitSet {
    /// Collects node ids into a set sized to the largest index + 1.
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        let ids: Vec<NodeId> = iter.into_iter().collect();
        let cap = ids.iter().map(|n| n.index() + 1).max().unwrap_or(0);
        let mut s = BitSet::new(cap);
        for id in ids {
            s.insert(id);
        }
        s
    }
}

impl Extend<NodeId> for BitSet {
    fn extend<I: IntoIterator<Item = NodeId>>(&mut self, iter: I) {
        for id in iter {
            self.insert(id);
        }
    }
}

/// Iterator over the members of a [`BitSet`], produced by [`BitSet::iter`].
#[derive(Debug)]
pub struct Iter<'a> {
    set: &'a BitSet,
    word_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(NodeId::from_index(self.word_idx * 64 + bit));
            }
            self.word_idx += 1;
            if self.word_idx >= self.set.words.len() {
                return None;
            }
            self.current = self.set.words[self.word_idx];
        }
    }
}

impl<'a> IntoIterator for &'a BitSet {
    type Item = NodeId;
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(indices: &[usize]) -> Vec<NodeId> {
        indices.iter().map(|&i| NodeId::from_index(i)).collect()
    }

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(130);
        assert!(s.insert(NodeId::from_index(0)));
        assert!(s.insert(NodeId::from_index(64)));
        assert!(s.insert(NodeId::from_index(129)));
        assert!(!s.insert(NodeId::from_index(129)));
        assert!(s.contains(NodeId::from_index(64)));
        assert!(!s.contains(NodeId::from_index(65)));
        assert_eq!(s.len(), 3);
        assert!(s.remove(NodeId::from_index(64)));
        assert!(!s.remove(NodeId::from_index(64)));
        assert_eq!(s.len(), 2);
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn insert_out_of_capacity_panics() {
        let mut s = BitSet::new(4);
        s.insert(NodeId::from_index(4));
    }

    #[test]
    fn out_of_range_contains_is_false() {
        let s = BitSet::new(4);
        assert!(!s.contains(NodeId::from_index(100)));
    }

    #[test]
    fn set_operations() {
        let mut a = BitSet::new(100);
        let mut b = BitSet::new(100);
        a.extend(ids(&[1, 2, 3, 70]));
        b.extend(ids(&[2, 3, 4, 71]));

        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(
            u.iter().map(|n| n.index()).collect::<Vec<_>>(),
            vec![1, 2, 3, 4, 70, 71]
        );

        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.iter().map(|n| n.index()).collect::<Vec<_>>(), vec![2, 3]);

        let mut d = a.clone();
        d.difference_with(&b);
        assert_eq!(d.iter().map(|n| n.index()).collect::<Vec<_>>(), vec![1, 70]);
    }

    #[test]
    fn subset_and_disjoint() {
        let mut a = BitSet::new(10);
        let mut b = BitSet::new(10);
        a.extend(ids(&[1, 2]));
        b.extend(ids(&[1, 2, 3]));
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        let mut c = BitSet::new(10);
        c.extend(ids(&[4, 5]));
        assert!(a.is_disjoint(&c));
        assert!(!a.is_disjoint(&b));
    }

    #[test]
    fn full_and_clear() {
        let mut s = BitSet::full(65);
        assert_eq!(s.len(), 65);
        assert!(s.contains(NodeId::from_index(64)));
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn iter_crosses_word_boundaries() {
        let mut s = BitSet::new(200);
        s.extend(ids(&[0, 63, 64, 127, 128, 199]));
        let got: Vec<usize> = s.iter().map(|n| n.index()).collect();
        assert_eq!(got, vec![0, 63, 64, 127, 128, 199]);
    }

    #[test]
    fn from_iterator_sizes_to_max() {
        let s: BitSet = ids(&[3, 9]).into_iter().collect();
        assert_eq!(s.capacity(), 10);
        assert_eq!(s.len(), 2);
        let empty: BitSet = Vec::<NodeId>::new().into_iter().collect();
        assert!(empty.is_empty());
        assert_eq!(empty.capacity(), 0);
    }

    #[test]
    fn debug_lists_members() {
        let mut s = BitSet::new(8);
        s.insert(NodeId::from_index(2));
        assert_eq!(format!("{s:?}"), "{n2}");
    }
}
