//! The in-memory CSR representation (§V-B1, Fig. 5).

use crate::VertexId;

/// A CSR adjacency structure in DRAM: an *index* array of `n + 1` offsets
/// into a *value* array of neighbor vertex IDs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    index: Vec<u64>,
    values: Vec<VertexId>,
}

impl CsrGraph {
    /// Wrap raw CSR arrays.
    ///
    /// # Panics
    /// Panics when the index is empty, non-monotone, or inconsistent with
    /// the value array.
    pub fn new(index: Vec<u64>, values: Vec<VertexId>) -> Self {
        assert!(!index.is_empty(), "CSR index must have at least one entry");
        assert_eq!(
            *index.last().unwrap(),
            values.len() as u64,
            "CSR index final entry must equal value count"
        );
        debug_assert!(
            index.windows(2).all(|w| w[0] <= w[1]),
            "CSR index must be monotone"
        );
        Self { index, values }
    }

    /// Build from per-vertex adjacency lists (test/example helper).
    pub fn from_adjacency(adj: &[Vec<VertexId>]) -> Self {
        let mut index = Vec::with_capacity(adj.len() + 1);
        index.push(0u64);
        let mut values = Vec::new();
        for list in adj {
            values.extend_from_slice(list);
            index.push(values.len() as u64);
        }
        Self::new(index, values)
    }

    /// Number of vertices `n`.
    pub fn num_vertices(&self) -> u64 {
        (self.index.len() - 1) as u64
    }

    /// Number of stored neighbor entries (directed; an undirected graph
    /// stores `2M`).
    pub fn num_values(&self) -> u64 {
        self.values.len() as u64
    }

    /// Neighbors of vertex `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let (s, e) = self.neighbor_range(v);
        &self.values[s as usize..e as usize]
    }

    /// `[start, end)` of `v`'s neighbors in the value array.
    #[inline]
    pub fn neighbor_range(&self, v: VertexId) -> (u64, u64) {
        (self.index[v as usize], self.index[v as usize + 1])
    }

    /// Degree of vertex `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> u64 {
        let (s, e) = self.neighbor_range(v);
        e - s
    }

    /// The raw index array.
    pub fn index(&self) -> &[u64] {
        &self.index
    }

    /// The raw value array.
    pub fn values(&self) -> &[VertexId] {
        &self.values
    }

    /// Heap size in bytes (what Table II / Fig. 3 report).
    pub fn byte_size(&self) -> u64 {
        self.index.len() as u64 * 8 + self.values.len() as u64 * 4
    }

    /// Sort every neighbor list ascending, in place. One linear pass
    /// checks the lists first, so an already-sorted graph costs only that
    /// pass.
    pub fn sort_neighbor_lists(&mut self) {
        use rayon::prelude::*;
        let n = self.num_vertices() as VertexId;
        if (0..n).all(|v| self.neighbors(v).is_sorted()) {
            return;
        }
        let mut slices: Vec<&mut [VertexId]> = Vec::with_capacity(n as usize);
        let mut rest = self.values.as_mut_slice();
        for w in self.index.windows(2) {
            let (list, tail) = rest.split_at_mut((w[1] - w[0]) as usize);
            slices.push(list);
            rest = tail;
        }
        slices.par_iter_mut().for_each(|s| s.sort_unstable());
    }

    /// Consume into raw arrays (for offloading to external files).
    pub fn into_parts(self) -> (Vec<u64>, Vec<VertexId>) {
        (self.index, self.values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrGraph {
        CsrGraph::from_adjacency(&[vec![1, 2], vec![0, 2, 3], vec![], vec![1]])
    }

    #[test]
    fn shape() {
        let g = sample();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_values(), 6);
        assert_eq!(g.byte_size(), 5 * 8 + 6 * 4);
    }

    #[test]
    fn neighbors_and_degrees() {
        let g = sample();
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[0, 2, 3]);
        assert_eq!(g.neighbors(2), &[] as &[u32]);
        assert_eq!(g.neighbors(3), &[1]);
        assert_eq!(g.degree(1), 3);
        assert_eq!(g.degree(2), 0);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::new(vec![0], vec![]);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_values(), 0);
    }

    #[test]
    #[should_panic(expected = "final entry must equal")]
    fn inconsistent_rejected() {
        CsrGraph::new(vec![0, 5], vec![1, 2]);
    }

    #[test]
    fn sort_neighbor_lists_sorts_every_list() {
        let mut g = CsrGraph::from_adjacency(&[vec![3, 1, 2], vec![0, 5], vec![], vec![4, 4, 0]]);
        g.sort_neighbor_lists();
        assert_eq!(g.neighbors(0), &[1, 2, 3]);
        assert_eq!(g.neighbors(1), &[0, 5]);
        assert_eq!(g.neighbors(2), &[] as &[u32]);
        assert_eq!(g.neighbors(3), &[0, 4, 4]);
        let sorted = g.clone();
        g.sort_neighbor_lists();
        assert_eq!(g, sorted);
    }

    #[test]
    fn into_parts_roundtrip() {
        let g = sample();
        let (index, values) = g.clone().into_parts();
        assert_eq!(CsrGraph::new(index, values), g);
    }
}
