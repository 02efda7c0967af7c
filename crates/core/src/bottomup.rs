//! The bottom-up probe (Fig. 2) and its neighbor sources.
//!
//! Every unvisited vertex probes its neighbor list for a frontier member
//! and stops at the first hit ("the bottom-up approach terminates the
//! vertex searches … once we find [a frontier vertex]"). The backward
//! graphs keep each list sorted ascending, so the first hit is also the
//! smallest frontier neighbor — the canonical min parent that
//! [`crate::reference_bfs`] and the top-down `fetch_min` claim pick. The
//! step kernel that drives the probes is
//! [`par_bottom_up_step`](crate::parallel::par_bottom_up_step).
//!
//! [`BottomUpSource`] abstracts where the neighbor list lives:
//!
//! * [`BackwardGraph`] — fully in DRAM (the paper's implemented layout);
//! * [`SplitBackwardGraph`] — DRAM head + NVM tail (§VI-E, the extension
//!   the paper only *estimates*; here it actually runs, counting how many
//!   probes spill to external memory for Fig. 14). The head holds the
//!   smallest neighbors, so the tail is read only when none of them is in
//!   the frontier.

use sembfs_csr::{BackwardGraph, NeighborCtx, SplitBackwardGraph};
use sembfs_numa::RangePartition;
use sembfs_semext::{ReadAt, Result};

use crate::VertexId;

/// Result of probing one vertex's neighbors for a frontier member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchOutcome {
    /// The frontier neighbor found, if any (becomes the parent).
    pub parent: Option<VertexId>,
    /// Neighbor entries examined in DRAM.
    pub dram_edges: u64,
    /// Neighbor entries examined on external memory.
    pub nvm_edges: u64,
}

/// A neighbor source for the bottom-up probe.
pub trait BottomUpSource: Send + Sync {
    /// The NUMA vertex partition.
    fn partition(&self) -> &RangePartition;

    /// Probe `w`'s neighbors in ascending order; stop at the first
    /// neighbor for which `in_frontier` is true (the smallest such one).
    fn search_parent(
        &self,
        w: VertexId,
        ctx: &mut NeighborCtx,
        in_frontier: impl Fn(VertexId) -> bool,
    ) -> Result<SearchOutcome>;

    /// Full degree of `w` (used for TEPS edge accounting).
    fn full_degree(&self, w: VertexId, ctx: &mut NeighborCtx) -> Result<u64>;
}

impl BottomUpSource for BackwardGraph {
    fn partition(&self) -> &RangePartition {
        BackwardGraph::partition(self)
    }

    fn search_parent(
        &self,
        w: VertexId,
        _ctx: &mut NeighborCtx,
        in_frontier: impl Fn(VertexId) -> bool,
    ) -> Result<SearchOutcome> {
        let mut scanned = 0u64;
        for &v in self.neighbors(w) {
            scanned += 1;
            if in_frontier(v) {
                return Ok(SearchOutcome {
                    parent: Some(v),
                    dram_edges: scanned,
                    nvm_edges: 0,
                });
            }
        }
        Ok(SearchOutcome {
            parent: None,
            dram_edges: scanned,
            nvm_edges: 0,
        })
    }

    fn full_degree(&self, w: VertexId, _ctx: &mut NeighborCtx) -> Result<u64> {
        Ok(self.degree(w))
    }
}

impl<R: ReadAt> BottomUpSource for SplitBackwardGraph<R> {
    fn partition(&self) -> &RangePartition {
        SplitBackwardGraph::partition(self)
    }

    fn search_parent(
        &self,
        w: VertexId,
        ctx: &mut NeighborCtx,
        in_frontier: impl Fn(VertexId) -> bool,
    ) -> Result<SearchOutcome> {
        // Hot head first — usually terminates here (§VI-E's premise).
        let mut dram_edges = 0u64;
        for &v in self.head_neighbors(w) {
            dram_edges += 1;
            if in_frontier(v) {
                return Ok(SearchOutcome {
                    parent: Some(v),
                    dram_edges,
                    nvm_edges: 0,
                });
            }
        }
        // Cold tail: stream from external memory.
        let mut nvm_edges = 0u64;
        let parent = self.with_tail_neighbors(w, ctx, |ns| {
            for &v in ns {
                nvm_edges += 1;
                if in_frontier(v) {
                    return Some(v);
                }
            }
            None
        })?;
        Ok(SearchOutcome {
            parent,
            dram_edges,
            nvm_edges,
        })
    }

    fn full_degree(&self, w: VertexId, _ctx: &mut NeighborCtx) -> Result<u64> {
        Ok(self.head_neighbors(w).len() as u64 + self.tail_degree(w)?)
    }
}

/// Output of one bottom-up step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BottomUpOutput {
    /// Vertices discovered (set in `next`).
    pub discovered: u64,
    /// Neighbor entries probed in DRAM.
    pub dram_edges: u64,
    /// Neighbor entries probed on external memory (split layout only).
    pub nvm_edges: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitmap::AtomicBitmap;
    use crate::parallel::par_bottom_up_step;
    use crate::tree::{new_parent_array, snapshot_parents};
    use sembfs_csr::backward::split_csr;
    use sembfs_csr::{build_csr, BuildOptions, CsrGraph};
    use sembfs_graph500::edge_list::MemEdgeList;
    use sembfs_semext::ext_csr::{write_csr_files, ExtCsr};
    use sembfs_semext::{FileBackend, TempDir};
    use std::sync::atomic::{AtomicU32, Ordering};

    fn backward(edges: Vec<(u32, u32)>, n: u64, domains: usize) -> BackwardGraph {
        let el = MemEdgeList::new(n, edges);
        let csr = build_csr(
            &el,
            BuildOptions {
                sort_neighbors: true,
                ..Default::default()
            },
        )
        .unwrap();
        BackwardGraph::new(csr, RangePartition::new(n, domains))
    }

    fn step<B: BottomUpSource>(
        b: &B,
        frontier: &AtomicBitmap,
        next: &AtomicBitmap,
        parent: &[AtomicU32],
        visited: &AtomicBitmap,
    ) -> BottomUpOutput {
        par_bottom_up_step(
            b,
            frontier,
            next,
            parent,
            visited,
            2,
            &NeighborCtx::dram,
            None,
        )
        .unwrap()
    }

    #[test]
    fn discovers_level_from_frontier() {
        // Star: 0 is the frontier, 1..=4 unvisited.
        let bg = backward(vec![(0, 1), (0, 2), (0, 3), (0, 4)], 5, 2);
        let parent = new_parent_array(5, 0);
        let visited = AtomicBitmap::new(5);
        visited.set(0);
        let frontier = AtomicBitmap::new(5);
        frontier.set(0);
        let next = AtomicBitmap::new(5);

        let out = step(&bg, &frontier, &next, &parent, &visited);
        assert_eq!(out.discovered, 4);
        assert_eq!(next.count_ones(), 4);
        assert_eq!(&snapshot_parents(&parent)[1..], &[0, 0, 0, 0]);
    }

    #[test]
    fn early_termination_counts_fewer_probes() {
        // Vertex 3 has neighbors [0, 1, 2] sorted; frontier contains 0 →
        // one probe suffices.
        let bg = backward(vec![(3, 0), (3, 1), (3, 2)], 4, 1);
        let parent = new_parent_array(4, 0);
        let visited = AtomicBitmap::new(4);
        visited.set(0);
        let frontier = AtomicBitmap::new(4);
        frontier.set(0);
        let next = AtomicBitmap::new(4);

        let out = step(&bg, &frontier, &next, &parent, &visited);
        assert_eq!(out.discovered, 1);
        // 3 probed once (hit 0 immediately); 1 and 2 probed their single
        // neighbor (3, not in frontier) once each.
        assert_eq!(out.dram_edges, 3);
        assert_eq!(parent[3].load(Ordering::Relaxed), 0);
    }

    #[test]
    fn no_frontier_discovers_nothing() {
        let bg = backward(vec![(0, 1)], 2, 1);
        let parent = new_parent_array(2, 0);
        let visited = AtomicBitmap::new(2);
        let frontier = AtomicBitmap::new(2);
        let next = AtomicBitmap::new(2);
        let out = step(&bg, &frontier, &next, &parent, &visited);
        assert_eq!(out.discovered, 0);
        assert_eq!(next.count_ones(), 0);
    }

    fn split_source(
        csr: &CsrGraph,
        k: u64,
        domains: usize,
        dir: &TempDir,
    ) -> SplitBackwardGraph<FileBackend> {
        let (head, ti, tv) = split_csr(csr, k);
        let ip = dir.path().join("tail.index");
        let vp = dir.path().join("tail.values");
        write_csr_files(&ip, &vp, &ti, &tv).unwrap();
        let tail = ExtCsr::new(
            FileBackend::open(&ip).unwrap(),
            FileBackend::open(&vp).unwrap(),
        )
        .unwrap()
        .with_dram_index()
        .unwrap();
        SplitBackwardGraph::new(
            head,
            tail,
            RangePartition::new(csr.num_vertices(), domains),
            k,
        )
    }

    #[test]
    fn split_source_spills_to_tail() {
        // Vertex 5 has neighbors [0,1,2,3,4]; keep 2 in DRAM. Frontier
        // contains only 4 → head misses (2 probes), tail finds it (3rd
        // tail probe).
        let el = MemEdgeList::new(6, vec![(5, 0), (5, 1), (5, 2), (5, 3), (5, 4)]);
        let csr = build_csr(
            &el,
            BuildOptions {
                sort_neighbors: true,
                ..Default::default()
            },
        )
        .unwrap();
        let dir = TempDir::new("bu-split").unwrap();
        let sbg = split_source(&csr, 2, 1, &dir);

        let mut ctx = NeighborCtx::dram();
        let so = sbg.search_parent(5, &mut ctx, |v| v == 4).unwrap();
        assert_eq!(so.parent, Some(4));
        assert_eq!(so.dram_edges, 2);
        assert_eq!(so.nvm_edges, 3);
        assert_eq!(sbg.full_degree(5, &mut ctx).unwrap(), 5);
    }

    #[test]
    fn first_hit_on_unsorted_input_is_the_smallest() {
        // Vertex 3's neighbors are built as [2, 0, 1]; the backward graph
        // sorts them, so against frontier {1, 2} the probe stops at 1
        // after two entries instead of returning 2 after one.
        let el = MemEdgeList::new(4, vec![(3, 2), (3, 0), (3, 1)]);
        let csr = build_csr(&el, BuildOptions::default()).unwrap();
        let bg = BackwardGraph::new(csr, RangePartition::new(4, 1));
        let mut ctx = NeighborCtx::dram();
        let so = bg.search_parent(3, &mut ctx, |v| v == 1 || v == 2).unwrap();
        assert_eq!(so.parent, Some(1));
        assert_eq!((so.dram_edges, so.nvm_edges), (2, 0));
    }

    #[test]
    fn split_first_hit_stops_in_head_or_tail() {
        // Vertex 5's neighbors, built unsorted, become [0,1,2,3,4]; head
        // limit 2 → head [0,1], tail [2,3,4]. Frontier {1,3}: the head
        // holds the min, and the tail is never read. Frontier {3,4}: the
        // head misses and the tail stops at 3.
        let el = MemEdgeList::new(6, vec![(5, 4), (5, 1), (5, 3), (5, 0), (5, 2)]);
        let csr = build_csr(&el, BuildOptions::default()).unwrap();
        let dir = TempDir::new("bu-firsthit").unwrap();
        let sbg = split_source(&csr, 2, 1, &dir);
        let mut ctx = NeighborCtx::dram();
        let so = sbg
            .search_parent(5, &mut ctx, |v| v == 1 || v == 3)
            .unwrap();
        assert_eq!(so.parent, Some(1));
        assert_eq!((so.dram_edges, so.nvm_edges), (2, 0));
        let so = sbg
            .search_parent(5, &mut ctx, |v| v == 3 || v == 4)
            .unwrap();
        assert_eq!(so.parent, Some(3));
        assert_eq!((so.dram_edges, so.nvm_edges), (2, 2));
    }

    #[test]
    fn split_source_head_hit_avoids_nvm() {
        let el = MemEdgeList::new(6, vec![(5, 0), (5, 1), (5, 2), (5, 3), (5, 4)]);
        let csr = build_csr(
            &el,
            BuildOptions {
                sort_neighbors: true,
                ..Default::default()
            },
        )
        .unwrap();
        let dir = TempDir::new("bu-split-hit").unwrap();
        let sbg = split_source(&csr, 2, 1, &dir);
        let mut ctx = NeighborCtx::dram();
        let so = sbg.search_parent(5, &mut ctx, |v| v == 0).unwrap();
        assert_eq!(so.parent, Some(0));
        assert_eq!(so.dram_edges, 1);
        assert_eq!(so.nvm_edges, 0);
    }

    #[test]
    fn split_step_equals_dram_step() {
        // A random-ish graph: both layouts must discover identical levels.
        let el = MemEdgeList::new(
            16,
            vec![
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 4),
                (2, 5),
                (3, 6),
                (4, 7),
                (5, 8),
                (0, 9),
                (9, 10),
                (10, 11),
                (0, 12),
                (12, 13),
                (13, 14),
                (14, 15),
            ],
        );
        let csr = build_csr(
            &el,
            BuildOptions {
                sort_neighbors: true,
                ..Default::default()
            },
        )
        .unwrap();
        let dir = TempDir::new("bu-eq").unwrap();
        let sbg = split_source(&csr, 1, 2, &dir);
        let bg = BackwardGraph::new(csr, RangePartition::new(16, 2));

        let run = |do_split: bool| -> (u64, Vec<u32>) {
            let parent = new_parent_array(16, 0);
            let visited = AtomicBitmap::new(16);
            visited.set(0);
            let frontier = AtomicBitmap::new(16);
            frontier.set(0);
            let next = AtomicBitmap::new(16);
            let out = if do_split {
                step(&sbg, &frontier, &next, &parent, &visited)
            } else {
                step(&bg, &frontier, &next, &parent, &visited)
            };
            (out.discovered, snapshot_parents(&parent))
        };
        let (d1, p1) = run(false);
        let (d2, p2) = run(true);
        assert_eq!(d1, d2);
        assert_eq!(p1, p2);
    }
}
