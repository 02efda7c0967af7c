//! The bottom-up probe (Fig. 2) and its neighbor sources.
//!
//! Every unvisited vertex probes its neighbor list for a frontier member
//! and stops at the first hit ("the bottom-up approach terminates the
//! vertex searches … once we find [a frontier vertex]"). The backward
//! graphs keep each list sorted ascending, so the first hit is also the
//! smallest frontier neighbor — the canonical min parent that
//! [`crate::reference_bfs`] and the top-down `fetch_min` claim pick.
//!
//! Probes run one **work unit** at a time: a vertex range inside one
//! domain, as handed out by
//! [`par_bottom_up_step`](crate::parallel::par_bottom_up_step). The
//! frontier bitmap is read-only during a step, so the probes of a unit
//! are independent and a source may order their reads as it likes.
//! [`BottomUpSource`] abstracts where the neighbor lists live:
//!
//! * [`BackwardGraph`] — fully in DRAM (the paper's implemented layout):
//!   one plain loop over the unit.
//! * [`SplitBackwardGraph`] — DRAM head + NVM tail (§VI-E, the extension
//!   the paper only *estimates*; here it actually runs, counting how many
//!   probes spill to external memory for Fig. 14). The head holds the
//!   smallest neighbors, so a tail is read only when none of them is in
//!   the frontier. The unit is probed in three passes: scan every head;
//!   stage the encoded tails of the head-missed vertices that have one as
//!   one asynchronous device batch ([`GapCsr::stage`], the `libaio`
//!   aggregation of §VI-D); decode each staged tail in place up to its
//!   first hit. Tails sit in vertex order in the tail file, so a unit's
//!   tails share pages: the batch reads their page footprint, each page
//!   once, as runs of contiguous pages up to the device's merge limit.
//!   The unit pays the device access latency once instead of once per
//!   spilled probe, moves each tail page once instead of once per tail on
//!   it, and issues no read when no head-missed vertex has a tail. The
//!   tails are stored as varint gaps (a deviation from the paper's raw
//!   CSR, see [`GapCsr`]), and decoding stops at the hit, so a tail is
//!   never materialized as a list. Every scanned-edge count is exactly
//!   that of a serial probe-by-probe scan of the raw lists.
//!
//! [`GapCsr::stage`]: sembfs_semext::GapCsr::stage
//! [`GapCsr`]: sembfs_semext::GapCsr

use std::ops::Range;

use sembfs_csr::{BackwardGraph, NeighborCtx, SplitBackwardGraph};
use sembfs_numa::RangePartition;
use sembfs_semext::{ReadAt, Result};

use crate::VertexId;

/// Scanned-edge and discovery counts of bottom-up probes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BottomUpOutput {
    /// Vertices discovered (a frontier neighbor was found).
    pub discovered: u64,
    /// Neighbor entries probed in DRAM.
    pub dram_edges: u64,
    /// Neighbor entries probed on external memory (split layout only).
    pub nvm_edges: u64,
}

impl std::ops::AddAssign for BottomUpOutput {
    fn add_assign(&mut self, rhs: Self) {
        self.discovered += rhs.discovered;
        self.dram_edges += rhs.dram_edges;
        self.nvm_edges += rhs.nvm_edges;
    }
}

/// A neighbor source for the bottom-up probe.
pub trait BottomUpSource: Send + Sync {
    /// The NUMA vertex partition.
    fn partition(&self) -> &RangePartition;

    /// Probe every vertex `w` of `unit` for which `visited(w)` is false:
    /// walk `w`'s neighbors in ascending order and stop at the first one
    /// for which `in_frontier` is true (the smallest such one), reporting
    /// it as `found(w, parent)`. `found` is called at most once per
    /// vertex, and only for vertices of `unit`.
    fn probe_unit(
        &self,
        unit: Range<u64>,
        ctx: &mut NeighborCtx,
        visited: impl Fn(VertexId) -> bool,
        in_frontier: impl Fn(VertexId) -> bool,
        found: impl FnMut(VertexId, VertexId),
    ) -> Result<BottomUpOutput>;

    /// Full degree of `w` (used for TEPS edge accounting).
    fn full_degree(&self, w: VertexId, ctx: &mut NeighborCtx) -> Result<u64>;
}

/// The first entry of `list` in the frontier, and how many entries the
/// scan read to find it (the whole list on a miss).
fn first_hit(list: &[VertexId], in_frontier: impl Fn(VertexId) -> bool) -> (Option<VertexId>, u64) {
    match list.iter().position(|&v| in_frontier(v)) {
        Some(i) => (Some(list[i]), i as u64 + 1),
        None => (None, list.len() as u64),
    }
}

impl BottomUpSource for BackwardGraph {
    fn partition(&self) -> &RangePartition {
        BackwardGraph::partition(self)
    }

    fn probe_unit(
        &self,
        unit: Range<u64>,
        _ctx: &mut NeighborCtx,
        visited: impl Fn(VertexId) -> bool,
        in_frontier: impl Fn(VertexId) -> bool,
        mut found: impl FnMut(VertexId, VertexId),
    ) -> Result<BottomUpOutput> {
        let mut out = BottomUpOutput::default();
        for w in unit.map(|w| w as VertexId) {
            if visited(w) {
                continue;
            }
            let (parent, scanned) = first_hit(self.neighbors(w), &in_frontier);
            out.dram_edges += scanned;
            if let Some(p) = parent {
                found(w, p);
                out.discovered += 1;
            }
        }
        Ok(out)
    }

    fn full_degree(&self, w: VertexId, _ctx: &mut NeighborCtx) -> Result<u64> {
        Ok(self.degree(w))
    }
}

impl<R: ReadAt> BottomUpSource for SplitBackwardGraph<R> {
    fn partition(&self) -> &RangePartition {
        SplitBackwardGraph::partition(self)
    }

    fn probe_unit(
        &self,
        unit: Range<u64>,
        ctx: &mut NeighborCtx,
        visited: impl Fn(VertexId) -> bool,
        in_frontier: impl Fn(VertexId) -> bool,
        mut found: impl FnMut(VertexId, VertexId),
    ) -> Result<BottomUpOutput> {
        let mut out = BottomUpOutput::default();
        // Pass 1: the hot DRAM heads — usually the probe ends here
        // (§VI-E's premise). A missed vertex without a tail has no parent
        // this level.
        let mut missed = Vec::new();
        for w in unit.map(|w| w as VertexId) {
            if visited(w) {
                continue;
            }
            let (parent, scanned) = first_hit(self.head_neighbors(w), &in_frontier);
            out.dram_edges += scanned;
            match parent {
                Some(p) => {
                    found(w, p);
                    out.discovered += 1;
                }
                None if self.tail_degree(w) > 0 => missed.push(w as u64),
                None => {}
            }
        }
        // Pass 2: the missed vertices' encoded tails in one device batch;
        // pass 3: decode each in place up to its first hit.
        let staged = self.tail().stage(&missed, &ctx.reader, &mut ctx.batch)?;
        for (i, &w) in missed.iter().enumerate() {
            let (parent, scanned) = staged.scan(i, &in_frontier)?;
            out.nvm_edges += scanned;
            if let Some(p) = parent {
                found(w as VertexId, p);
                out.discovered += 1;
            }
        }
        Ok(out)
    }

    fn full_degree(&self, w: VertexId, _ctx: &mut NeighborCtx) -> Result<u64> {
        Ok(self.head_neighbors(w).len() as u64 + self.tail_degree(w))
    }
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
    use sembfs_semext::ext_csr::{encode_gaps, GapCsr};
    use sembfs_semext::{
        BatchRead, DelayMode, Device, DeviceProfile, Error, FaultPlan, FileBackend, NvmStore,
        PageIntegrity, TempDir,
    };
    use std::path::Path;
    use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
    use std::sync::Arc;

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

    /// Probe the single vertex `w`: its parent and (DRAM, NVM) scanned
    /// edges.
    fn probe<B: BottomUpSource>(
        b: &B,
        w: VertexId,
        in_frontier: impl Fn(VertexId) -> bool,
    ) -> (Option<VertexId>, u64, u64) {
        let mut parent = None;
        let out = b
            .probe_unit(
                w as u64..w as u64 + 1,
                &mut NeighborCtx::dram(),
                |_| false,
                in_frontier,
                |_, p| parent = Some(p),
            )
            .unwrap();
        assert_eq!(out.discovered, parent.is_some() as u64);
        (parent, out.dram_edges, out.nvm_edges)
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
        split_source_with(csr, k, domains, dir, |p| FileBackend::open(p).unwrap())
    }

    /// A split layout whose gap-encoded tail file is opened by `open`.
    fn split_source_with<R: ReadAt>(
        csr: &CsrGraph,
        k: u64,
        domains: usize,
        dir: &TempDir,
        open: impl Fn(&Path) -> R,
    ) -> SplitBackwardGraph<R> {
        let (head, ti, tv) = split_csr(csr, k);
        let (bi, bytes) = encode_gaps(&ti, &tv);
        let vp = dir.path().join("tail.values");
        std::fs::write(&vp, bytes).unwrap();
        let tail = GapCsr::new(ti, bi, open(&vp)).unwrap();
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

        assert_eq!(probe(&sbg, 5, |v| v == 4), (Some(4), 2, 3));
        assert_eq!(sbg.full_degree(5, &mut NeighborCtx::dram()).unwrap(), 5);
    }

    #[test]
    fn first_hit_on_unsorted_input_is_the_smallest() {
        // Vertex 3's neighbors are built as [2, 0, 1]; the backward graph
        // sorts them, so against frontier {1, 2} the probe stops at 1
        // after two entries instead of returning 2 after one.
        let el = MemEdgeList::new(4, vec![(3, 2), (3, 0), (3, 1)]);
        let csr = build_csr(&el, BuildOptions::default()).unwrap();
        let bg = BackwardGraph::new(csr, RangePartition::new(4, 1));
        assert_eq!(probe(&bg, 3, |v| v == 1 || v == 2), (Some(1), 2, 0));
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
        assert_eq!(probe(&sbg, 5, |v| v == 1 || v == 3), (Some(1), 2, 0));
        assert_eq!(probe(&sbg, 5, |v| v == 3 || v == 4), (Some(3), 2, 2));
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
        assert_eq!(probe(&sbg, 5, |v| v == 0), (Some(0), 1, 0));
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

    /// `n` vertices on a path, each also adjacent to the hub `n - 1`:
    /// vertex `w`'s sorted list is `[w - 1, w + 1, n - 1]`. With the hub as
    /// the only frontier vertex and `k = 1`, every other probe misses its
    /// head and finds the hub in its tail.
    fn path_plus_hub(n: u32) -> CsrGraph {
        let mut edges: Vec<(u32, u32)> = (0..n - 2).map(|w| (w, w + 1)).collect();
        edges.extend((0..n - 1).map(|w| (w, n - 1)));
        let el = MemEdgeList::new(n as u64, edges);
        build_csr(&el, BuildOptions::default()).unwrap()
    }

    /// A store that counts how it is called.
    #[derive(Debug)]
    struct CountingStore {
        inner: FileBackend,
        read_at_calls: Arc<AtomicU64>,
        batch_calls: Arc<AtomicU64>,
    }

    impl ReadAt for CountingStore {
        fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
            self.read_at_calls.fetch_add(1, Ordering::Relaxed);
            self.inner.read_at(offset, buf)
        }

        fn len(&self) -> u64 {
            self.inner.len()
        }

        fn read_batch_at(&self, reqs: &mut [BatchRead<'_>]) -> Result<()> {
            self.batch_calls.fetch_add(1, Ordering::Relaxed);
            self.inner.read_batch_at(reqs)
        }
    }

    #[test]
    fn split_step_submits_one_tail_batch_per_work_unit() {
        // 10,000 vertices in 2 domains: 4 work units of ≤4096 vertices.
        let n = 10_000u32;
        let units = 4;
        let csr = path_plus_hub(n);
        let dir = TempDir::new("bu-batch-shape").unwrap();
        let read_at_calls = Arc::new(AtomicU64::new(0));
        let batch_calls = Arc::new(AtomicU64::new(0));
        let sbg = split_source_with(&csr, 1, 2, &dir, |p| CountingStore {
            inner: FileBackend::open(p).unwrap(),
            read_at_calls: read_at_calls.clone(),
            batch_calls: batch_calls.clone(),
        });
        for threads in [1, 2, 4] {
            read_at_calls.store(0, Ordering::Relaxed);
            batch_calls.store(0, Ordering::Relaxed);
            let parent = new_parent_array(n as u64, n - 1);
            let visited = AtomicBitmap::new(n as u64);
            visited.set(n - 1);
            let frontier = AtomicBitmap::new(n as u64);
            frontier.set(n - 1);
            let next = AtomicBitmap::new(n as u64);
            let out = par_bottom_up_step(
                &sbg,
                &frontier,
                &next,
                &parent,
                &visited,
                threads,
                &NeighborCtx::dram,
                None,
            )
            .unwrap();
            assert_eq!(out.discovered, n as u64 - 1, "{threads} threads");
            // Vertex 0's tail is [hub]; every other tail is [w + 1, hub].
            assert_eq!(out.nvm_edges, 1 + 2 * (n as u64 - 3) + 1);
            assert_eq!(read_at_calls.load(Ordering::Relaxed), 0);
            let batches = batch_calls.load(Ordering::Relaxed);
            assert!(
                (1..=units).contains(&batches),
                "{threads} threads: {batches} batch submissions for {units} units"
            );
        }
    }

    #[test]
    fn unit_whose_missed_vertices_have_no_tail_issues_no_read() {
        // With k = 2, vertex 0 ([1, hub]) and vertex n - 2 ([n - 3, hub])
        // keep their whole list in DRAM; every other path vertex has the
        // tail [hub]. An empty frontier makes every probe miss its head.
        let n = 100u32;
        let dir = TempDir::new("bu-empty-tails").unwrap();
        let read_at_calls = Arc::new(AtomicU64::new(0));
        let batch_calls = Arc::new(AtomicU64::new(0));
        let sbg = split_source_with(&path_plus_hub(n), 2, 1, &dir, |p| CountingStore {
            inner: FileBackend::open(p).unwrap(),
            read_at_calls: read_at_calls.clone(),
            batch_calls: batch_calls.clone(),
        });
        let probe_unit = |unit: Range<u64>| {
            sbg.probe_unit(
                unit,
                &mut NeighborCtx::dram(),
                |_| false,
                |_| false,
                |_, _| panic!("nothing is in the frontier"),
            )
            .unwrap()
        };
        for unit in [0..1, (n - 2) as u64..(n - 1) as u64] {
            let out = probe_unit(unit.clone());
            assert_eq!((out.dram_edges, out.nvm_edges), (2, 0), "unit {unit:?}");
            assert_eq!(batch_calls.load(Ordering::Relaxed), 0, "unit {unit:?}");
            assert_eq!(read_at_calls.load(Ordering::Relaxed), 0, "unit {unit:?}");
        }
        // A unit with a tail does read it, in one batch.
        let out = probe_unit(0..3);
        assert_eq!((out.dram_edges, out.nvm_edges), (6, 2));
        assert_eq!(batch_calls.load(Ordering::Relaxed), 1);
        assert_eq!(read_at_calls.load(Ordering::Relaxed), 0);
    }

    /// The path-plus-hub split layout on an Accounting-mode device with
    /// sealed page checksums, and one tail page torn after sealing.
    fn torn_tail(
        plan: Option<FaultPlan>,
        dir: &TempDir,
    ) -> SplitBackwardGraph<NvmStore<FileBackend>> {
        let profile = DeviceProfile::iodrive2();
        let device = match plan {
            Some(plan) => Device::with_fault_plan(profile, DelayMode::Accounting, plan),
            None => Device::new(profile, DelayMode::Accounting),
        };
        let sbg = split_source_with(&path_plus_hub(10_000), 1, 2, dir, |p| {
            let sums = PageIntegrity::seal_store(&FileBackend::open(p).unwrap()).unwrap();
            NvmStore::new(FileBackend::open(p).unwrap(), device.clone())
                .with_integrity(Arc::new(sums))
        });
        let victim = dir.path().join("tail.values");
        let mut bytes = std::fs::read(&victim).unwrap();
        bytes[3 * 4096 + 17] ^= 0x40;
        std::fs::write(&victim, &bytes).unwrap();
        sbg
    }

    #[test]
    fn torn_tail_page_fails_the_step_with_a_typed_error() {
        let plans = [
            None,
            Some(FaultPlan::parse("seed=5,eio=0.05,retries=3").unwrap()),
        ];
        for plan in plans {
            let faulted = plan.is_some();
            let dir = TempDir::new("bu-torn-tail").unwrap();
            let sbg = torn_tail(plan, &dir);
            let n = 10_000u32;
            let parent = new_parent_array(n as u64, n - 1);
            let visited = AtomicBitmap::new(n as u64);
            visited.set(n - 1);
            let frontier = AtomicBitmap::new(n as u64);
            frontier.set(n - 1);
            let next = AtomicBitmap::new(n as u64);
            let err = par_bottom_up_step(
                &sbg,
                &frontier,
                &next,
                &parent,
                &visited,
                2,
                &NeighborCtx::dram,
                None,
            )
            .expect_err("a torn tail page must fail the step");
            assert!(
                matches!(
                    err,
                    Error::ChecksumMismatch { page: 3, .. } | Error::RetriesExhausted { .. }
                ),
                "fault plan {faulted}: got {err:?}"
            );
        }
    }
}
