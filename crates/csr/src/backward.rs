//! The backward graph: source-partitioned CSR for the bottom-up phase,
//! and its partially-offloaded split form (§V-C, §VI-E).
//!
//! Because NETAL's vertex partition is by contiguous ranges, "one CSR per
//! domain" for the backward graph is simply a range view over one full
//! CSR — domain `k` scans its own vertices `[k·n/ℓ, (k+1)·n/ℓ)` with their
//! complete neighbor lists ([`BackwardGraph`]).
//!
//! [`SplitBackwardGraph`] implements the §VI-E extension the paper
//! measures but leaves unimplemented ("although unsupported in our current
//! implementation"): only the first `k_limit` neighbors of each vertex
//! stay in DRAM (the hot head — bottom-up usually terminates within a few
//! probes), while the tail is offloaded to external memory and streamed
//! only when the head is exhausted. The bottom-up kernel fetches the
//! tails of a whole work unit at once, as one batch on the [`GapCsr`].
//!
//! The tail is stored gap-encoded ([`GapCsr`], LEB128 varint gaps of
//! the sorted lists), not as the paper's raw `u32` CSR: most gaps of a
//! sorted list fit one byte, so the device moves fewer bytes per tail
//! edge, and the probe decodes each staged tail in place up to its first
//! hit. Both tail indexes (edge offsets and byte
//! offsets) are pinned in DRAM, so tail degrees cost no device request;
//! [`SplitBackwardGraph::dram_byte_size`] counts them, and
//! [`SplitBackwardGraph::nvm_byte_size`] only the encoded bytes.
//!
//! Both forms guarantee **ascending neighbor lists**, whatever order the
//! input CSR has: [`BackwardGraph::new`] and [`split_csr`] sort any list
//! that is not already sorted. The bottom-up probe stops at its first
//! frontier neighbor, and on a sorted list that neighbor is also the
//! smallest one — the canonical min parent. The split keeps the smallest
//! `k_limit` neighbors in DRAM and the larger ones in the tail.

use std::ops::Range;

use sembfs_numa::RangePartition;
use sembfs_semext::ext_csr::GapCsr;
use sembfs_semext::{ReadAt, Result};

use crate::graph::CsrGraph;
use crate::neighbors::NeighborCtx;
use crate::VertexId;

/// Backward graph fully in DRAM: a full CSR plus the domain partition.
#[derive(Debug, Clone)]
pub struct BackwardGraph {
    csr: CsrGraph,
    partition: RangePartition,
}

impl BackwardGraph {
    /// Wrap a full CSR with its domain partition, sorting every neighbor
    /// list that is not already ascending.
    ///
    /// # Panics
    /// Panics when the vertex counts disagree.
    pub fn new(mut csr: CsrGraph, partition: RangePartition) -> Self {
        assert_eq!(csr.num_vertices(), partition.num_vertices());
        csr.sort_neighbor_lists();
        Self { csr, partition }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> u64 {
        self.csr.num_vertices()
    }

    /// The domain partition.
    pub fn partition(&self) -> &RangePartition {
        &self.partition
    }

    /// The vertex range owned by domain `k` (its bottom-up scan range).
    pub fn local_vertices(&self, k: usize) -> Range<u64> {
        self.partition.range(k)
    }

    /// Full neighbor list of `v`, ascending.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        self.csr.neighbors(v)
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> u64 {
        self.csr.degree(v)
    }

    /// The underlying CSR.
    pub fn csr(&self) -> &CsrGraph {
        &self.csr
    }

    /// DRAM footprint in bytes.
    pub fn byte_size(&self) -> u64 {
        self.csr.byte_size()
    }
}

/// Split a CSR into a DRAM head (the `k_limit` smallest neighbors per
/// vertex) and an external tail (the rest), both ascending. Lists of `csr`
/// that are not sorted are sorted on the way. Returns `(head, tail_index,
/// tail_values)`; the tail arrays are written to files by the caller.
pub fn split_csr(csr: &CsrGraph, k_limit: u64) -> (CsrGraph, Vec<u64>, Vec<VertexId>) {
    let n = csr.num_vertices() as usize;
    let mut head_index = Vec::with_capacity(n + 1);
    let mut tail_index = Vec::with_capacity(n + 1);
    head_index.push(0u64);
    tail_index.push(0u64);
    let mut head_values = Vec::new();
    let mut tail_values = Vec::new();
    let mut sorted = Vec::new();
    for v in 0..n {
        let mut ns = csr.neighbors(v as VertexId);
        if !ns.is_sorted() {
            sorted.clear();
            sorted.extend_from_slice(ns);
            sorted.sort_unstable();
            ns = &sorted;
        }
        let cut = (k_limit as usize).min(ns.len());
        head_values.extend_from_slice(&ns[..cut]);
        tail_values.extend_from_slice(&ns[cut..]);
        head_index.push(head_values.len() as u64);
        tail_index.push(tail_values.len() as u64);
    }
    (
        CsrGraph::new(head_index, head_values),
        tail_index,
        tail_values,
    )
}

/// Backward graph with its cold tail offloaded: DRAM head + external,
/// gap-encoded tail.
#[derive(Debug)]
pub struct SplitBackwardGraph<R> {
    head: CsrGraph,
    tail: GapCsr<R>,
    partition: RangePartition,
    k_limit: u64,
}

impl<R: ReadAt> SplitBackwardGraph<R> {
    /// Assemble from a DRAM head and a gap-encoded external tail.
    ///
    /// # Panics
    /// Panics when shapes disagree.
    pub fn new(head: CsrGraph, tail: GapCsr<R>, partition: RangePartition, k_limit: u64) -> Self {
        assert_eq!(head.num_vertices(), partition.num_vertices());
        assert_eq!(tail.num_vertices(), head.num_vertices());
        Self {
            head,
            tail,
            partition,
            k_limit,
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> u64 {
        self.head.num_vertices()
    }

    /// The per-vertex DRAM neighbor limit.
    pub fn k_limit(&self) -> u64 {
        self.k_limit
    }

    /// The domain partition.
    pub fn partition(&self) -> &RangePartition {
        &self.partition
    }

    /// The vertex range owned by domain `k`.
    pub fn local_vertices(&self, k: usize) -> Range<u64> {
        self.partition.range(k)
    }

    /// The hot head neighbors of `v` (in DRAM).
    #[inline]
    pub fn head_neighbors(&self, v: VertexId) -> &[VertexId] {
        self.head.neighbors(v)
    }

    /// Number of tail (offloaded) neighbors of `v`, from the tail's DRAM
    /// index (no storage request).
    pub fn tail_degree(&self, v: VertexId) -> u64 {
        self.tail.degree(v as u64)
    }

    /// Read and decode the offloaded tail neighbors of `v` into `ctx.buf`
    /// and hand them to `f`. Issues storage requests on the tail's device
    /// unless the tail is empty.
    pub fn with_tail_neighbors<T>(
        &self,
        v: VertexId,
        ctx: &mut NeighborCtx,
        f: impl FnOnce(&[VertexId]) -> T,
    ) -> Result<T> {
        let NeighborCtx {
            reader,
            buf,
            scratch,
            ..
        } = ctx;
        self.tail.read_neighbors(v as u64, reader, buf, scratch)?;
        Ok(f(buf))
    }

    /// DRAM footprint: the head and the tail's two pinned indexes.
    pub fn dram_byte_size(&self) -> u64 {
        self.head.byte_size() + self.tail.dram_byte_size()
    }

    /// External footprint: the tail's encoded lists.
    pub fn nvm_byte_size(&self) -> u64 {
        self.tail.nvm_byte_size()
    }

    /// The head CSR.
    pub fn head(&self) -> &CsrGraph {
        &self.head
    }

    /// The gap-encoded external tail.
    pub fn tail(&self) -> &GapCsr<R> {
        &self.tail
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_csr, BuildOptions};
    use sembfs_graph500::edge_list::MemEdgeList;
    use sembfs_semext::ext_csr::encode_gaps;
    use sembfs_semext::{FileBackend, TempDir};

    fn star_plus_path() -> CsrGraph {
        // Vertex 0 is a hub with 6 neighbors; 7-8-9 a path.
        let el = MemEdgeList::new(
            10,
            vec![
                (0, 1),
                (0, 2),
                (0, 3),
                (0, 4),
                (0, 5),
                (0, 6),
                (7, 8),
                (8, 9),
            ],
        );
        build_csr(
            &el,
            BuildOptions {
                sort_neighbors: true,
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn backward_graph_ranges() {
        let csr = star_plus_path();
        let bg = BackwardGraph::new(csr.clone(), RangePartition::new(10, 2));
        assert_eq!(bg.local_vertices(0), 0..5);
        assert_eq!(bg.local_vertices(1), 5..10);
        assert_eq!(bg.neighbors(0), csr.neighbors(0));
        assert_eq!(bg.byte_size(), csr.byte_size());
    }

    #[test]
    fn backward_graph_sorts_unsorted_lists() {
        let csr = CsrGraph::from_adjacency(&[vec![2, 1], vec![0], vec![0]]);
        let bg = BackwardGraph::new(csr, RangePartition::new(3, 1));
        assert_eq!(bg.neighbors(0), &[1, 2]);
    }

    #[test]
    fn split_sorts_before_cutting() {
        // Unsorted [5, 3, 4, 1]: the head keeps the two smallest.
        let csr =
            CsrGraph::from_adjacency(&[vec![5, 3, 4, 1], vec![], vec![], vec![], vec![], vec![]]);
        let (head, ti, tv) = split_csr(&csr, 2);
        assert_eq!(head.neighbors(0), &[1, 3]);
        assert_eq!(&tv[ti[0] as usize..ti[1] as usize], &[4, 5]);
    }

    #[test]
    fn split_preserves_order_and_content() {
        let csr = star_plus_path();
        let (head, tail_index, tail_values) = split_csr(&csr, 2);
        for v in 0..10u32 {
            let full = csr.neighbors(v);
            let h = head.neighbors(v);
            let ts = tail_index[v as usize] as usize;
            let te = tail_index[v as usize + 1] as usize;
            let t = &tail_values[ts..te];
            assert_eq!(h.len(), full.len().min(2), "vertex {v}");
            let mut joined = h.to_vec();
            joined.extend_from_slice(t);
            assert_eq!(joined, full, "vertex {v}");
        }
    }

    #[test]
    fn split_zero_keeps_nothing_in_dram() {
        let csr = star_plus_path();
        let (head, _, tail_values) = split_csr(&csr, 0);
        assert_eq!(head.num_values(), 0);
        assert_eq!(tail_values.len() as u64, csr.num_values());
    }

    #[test]
    fn split_large_keeps_everything_in_dram() {
        let csr = star_plus_path();
        let (head, _, tail_values) = split_csr(&csr, 1000);
        assert_eq!(head.num_values(), csr.num_values());
        assert!(tail_values.is_empty());
    }

    /// The star-plus-path split at limit 2 with its tail gap-encoded in a
    /// file under `dir`; also returns the encoded tail's length.
    fn split_star(dir: &TempDir) -> (SplitBackwardGraph<FileBackend>, u64) {
        let (head, tail_index, tail_values) = split_csr(&star_plus_path(), 2);
        let (byte_index, bytes) = encode_gaps(&tail_index, &tail_values);
        let vp = dir.path().join("bg-tail.values");
        std::fs::write(&vp, &bytes).unwrap();
        let tail = GapCsr::new(tail_index, byte_index, FileBackend::open(&vp).unwrap()).unwrap();
        let sbg = SplitBackwardGraph::new(head, tail, RangePartition::new(10, 2), 2);
        (sbg, bytes.len() as u64)
    }

    #[test]
    fn split_backward_graph_reads_tail() {
        let dir = TempDir::new("split-bg").unwrap();
        let (sbg, _) = split_star(&dir);
        assert_eq!(sbg.k_limit(), 2);
        assert_eq!(sbg.head_neighbors(0), &[1, 2]);
        assert_eq!(sbg.tail_degree(0), 4);
        let mut ctx = NeighborCtx::dram();
        let t = sbg
            .with_tail_neighbors(0, &mut ctx, |ns| ns.to_vec())
            .unwrap();
        assert_eq!(t, vec![3, 4, 5, 6]);
        // Path vertices have no tail at limit 2.
        assert_eq!(sbg.tail_degree(8), 0);
        let t = sbg
            .with_tail_neighbors(8, &mut ctx, |ns| ns.to_vec())
            .unwrap();
        assert!(t.is_empty());
    }

    #[test]
    fn footprint_counts_pinned_tail_indexes_as_dram() {
        let dir = TempDir::new("split-bg-size").unwrap();
        let (sbg, encoded) = split_star(&dir);
        // Two pinned 8-byte offsets per vertex plus one, on top of the head.
        assert_eq!(
            sbg.dram_byte_size(),
            sbg.head().byte_size() + 2 * 8 * (10 + 1)
        );
        // Only the encoded lists live on the device: vertex 0's tail
        // [3, 4, 5, 6] is four one-byte varints.
        assert_eq!(encoded, 4);
        assert_eq!(sbg.nvm_byte_size(), encoded);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// split_csr partitions each sorted adjacency list at
            /// min(k, deg), for arbitrary graphs and limits.
            #[test]
            fn split_partitions_cleanly(
                adj in proptest::collection::vec(
                    proptest::collection::vec(0u32..64, 0..30), 1..30),
                k in 0u64..20,
            ) {
                let csr = CsrGraph::from_adjacency(&adj);
                let (head, ti, tv) = split_csr(&csr, k);
                prop_assert_eq!(head.num_values() + tv.len() as u64, csr.num_values());
                for (v, list) in adj.iter().enumerate() {
                    let h = head.neighbors(v as VertexId);
                    let t = &tv[ti[v] as usize..ti[v + 1] as usize];
                    let mut joined = h.to_vec();
                    joined.extend_from_slice(t);
                    let mut sorted = list.clone();
                    sorted.sort_unstable();
                    prop_assert_eq!(joined, sorted);
                    prop_assert!(h.len() as u64 <= k);
                }
            }
        }
    }
}
