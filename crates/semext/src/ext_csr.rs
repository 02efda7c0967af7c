//! CSR graphs on external storage — the offloaded forward graph.
//!
//! §V-B1: the CSR index and value arrays are stored on NVM as two files
//! (the paper's *array file* and *value file*); a neighbor lookup reads
//! `index[v]` and `index[v+1]` from the index file, then reads the value
//! span in ≤4 KiB chunks. [`ExtCsr`] implements exactly that, over any
//! [`ReadAt`] store (a metered [`NvmStore`](crate::NvmStore) in the
//! scenarios, plain backends in tests).
//! [`ExtCsr::read_neighbors_batch`] reads many vertices' lists at once,
//! as one submission of merged page runs per file.
//!
//! The index can optionally be pinned in DRAM
//! ([`ExtCsr::with_dram_index`]) — an optimization knob the ablation
//! benches explore; the paper's baseline reads the index from NVM too.

use std::path::Path;

use crate::backend::ReadAt;
use crate::chunked::ChunkedReader;
use crate::error::{Error, Result};
use crate::ext_array::{decode_into, write_array_file, ExtArray};

/// A CSR adjacency structure stored externally: a `u64` index array of
/// `n + 1` entries and a `u32` value (neighbor) array of `m` entries.
#[derive(Debug)]
pub struct ExtCsr<R> {
    index: ExtArray<u64, R>,
    values: ExtArray<u32, R>,
    /// Index array pinned in DRAM, when enabled.
    dram_index: Option<Vec<u64>>,
    num_vertices: u64,
}

impl<R: ReadAt> ExtCsr<R> {
    /// Bind an index store and a value store as one CSR graph.
    ///
    /// Validates that the index has at least one entry and that its final
    /// entry equals the number of values.
    pub fn new(index_store: R, value_store: R) -> Result<Self> {
        let index = ExtArray::<u64, R>::new(index_store)?;
        let values = ExtArray::<u32, R>::new(value_store)?;
        if index.is_empty() {
            return Err(Error::Corrupt("CSR index file has no entries".into()));
        }
        let num_vertices = index.len() - 1;
        let last = index.get(num_vertices)?;
        if last != values.len() {
            return Err(Error::Corrupt(format!(
                "CSR index final entry {last} does not match value count {}",
                values.len()
            )));
        }
        Ok(Self {
            index,
            values,
            dram_index: None,
            num_vertices,
        })
    }

    /// Load the index array into DRAM; subsequent degree/offset lookups
    /// cost no storage requests.
    pub fn with_dram_index(mut self) -> Result<Self> {
        self.dram_index = Some(self.index.read_all()?);
        Ok(self)
    }

    /// True when the index array is pinned in DRAM.
    pub fn has_dram_index(&self) -> bool {
        self.dram_index.is_some()
    }

    /// Number of vertices `n`.
    pub fn num_vertices(&self) -> u64 {
        self.num_vertices
    }

    /// Number of stored neighbor entries `m`.
    pub fn num_values(&self) -> u64 {
        self.values.len()
    }

    /// Size of the structure in bytes (index + values).
    pub fn byte_size(&self) -> u64 {
        (self.index.len()) * 8 + self.values.len() * 4
    }

    /// The `[start, end)` range of vertex `v`'s neighbors in the value
    /// array. One storage request (or zero with a DRAM index).
    pub fn neighbor_range(&self, v: u64) -> Result<(u64, u64)> {
        if v >= self.num_vertices {
            return Err(Error::OutOfBounds {
                offset: v,
                len: 1,
                size: self.num_vertices,
            });
        }
        if let Some(idx) = &self.dram_index {
            Ok((idx[v as usize], idx[v as usize + 1]))
        } else {
            self.index.get_pair(v)
        }
    }

    /// Degree of vertex `v`.
    pub fn degree(&self, v: u64) -> Result<u64> {
        let (s, e) = self.neighbor_range(v)?;
        Ok(e - s)
    }

    /// Read vertex `v`'s neighbors into `out` (cleared first), fetching the
    /// value span through `reader` and decoding via `scratch`.
    pub fn read_neighbors(
        &self,
        v: u64,
        reader: &ChunkedReader,
        out: &mut Vec<u32>,
        scratch: &mut Vec<u8>,
    ) -> Result<()> {
        let (start, end) = self.neighbor_range(v)?;
        out.clear();
        let bytes = (end - start) as usize * 4;
        if bytes == 0 {
            return Ok(());
        }
        scratch.clear();
        scratch.resize(bytes, 0);
        reader.read_span(self.values.store(), start * 4, scratch)?;
        decode_into::<u32>(scratch, out);
        Ok(())
    }

    /// Read an arbitrary `[start, end)` window of the value array into
    /// `out` (cleared first). Used by the backward-graph partial-offload
    /// path, which streams only the cold tail of a vertex's neighbors.
    pub fn read_value_window(
        &self,
        start: u64,
        end: u64,
        reader: &ChunkedReader,
        out: &mut Vec<u32>,
        scratch: &mut Vec<u8>,
    ) -> Result<()> {
        out.clear();
        if end <= start {
            return Ok(());
        }
        let bytes = (end - start) as usize * 4;
        scratch.clear();
        scratch.resize(bytes, 0);
        reader.read_span(self.values.store(), start * 4, scratch)?;
        decode_into::<u32>(scratch, out);
        Ok(())
    }

    /// Read several vertices' neighbor lists with at most **two batched
    /// device submissions** — one for the index pairs (none with a DRAM
    /// index), one for the value spans — the `libaio`-style aggregation
    /// §VI-D proposes. Results land in `batch.outs[i]` for `vs[i]`; `vs`
    /// may be in any order and hold duplicates.
    ///
    /// Each submission reads the **page footprint** of its spans, not the
    /// spans themselves: every span is rounded out to whole
    /// [`app_chunk`](ChunkedReader::app_chunk) pages, and the union of
    /// those pages goes to the device as runs of contiguous pages of at
    /// most [`merge_limit`](ChunkedReader::merge_limit) bytes — the
    /// block-layer merging behind the paper's Fig. 13 request sizes. A
    /// page shared by neighbouring lists is read once per call.
    ///
    /// Returns the same lists as [`read_neighbors`](Self::read_neighbors)
    /// per vertex, but the device access latency is paid per *batch*
    /// (see [`crate::Device::read_batch`]) and small spans on one page
    /// share one request.
    pub fn read_neighbors_batch(
        &self,
        vs: &[u64],
        reader: &ChunkedReader,
        batch: &mut NeighborBatch,
    ) -> Result<()> {
        self.read_neighbors_batch_opts(vs, reader, batch, false)
    }

    /// [`read_neighbors_batch`](Self::read_neighbors_batch) with an
    /// optional **coalesced prefetch**: when `prefetch` is set and the
    /// batch's value spans are dense (the covering window is at most twice
    /// the requested bytes), the whole window is handed to the value
    /// store's [`ReadAt::prefetch`] before the span reads. A caching store
    /// then loads the window as few large sequential device requests and
    /// serves the spans from DRAM; for plain stores the hint is a no-op.
    pub fn read_neighbors_batch_opts(
        &self,
        vs: &[u64],
        reader: &ChunkedReader,
        batch: &mut NeighborBatch,
        prefetch: bool,
    ) -> Result<()> {
        batch.outs.resize_with(vs.len(), Vec::new);
        for out in batch.outs.iter_mut() {
            out.clear();
        }
        if vs.is_empty() {
            return Ok(());
        }
        if let Some(&v) = vs.iter().find(|&&v| v >= self.num_vertices) {
            return Err(Error::OutOfBounds {
                offset: v,
                len: 1,
                size: self.num_vertices,
            });
        }

        // Pass 1: neighbor ranges — the index pairs' pages in one batch
        // when the index lives on the device.
        batch.ranges.clear();
        if let Some(idx) = &self.dram_index {
            batch
                .ranges
                .extend(vs.iter().map(|&v| (idx[v as usize], idx[v as usize + 1])));
        } else {
            let pair = |v: u64| {
                let offset = self.index.byte_offset(v);
                (offset, offset + 16)
            };
            batch
                .staged
                .read(self.index.store(), vs.iter().map(|&v| pair(v)), reader)?;
            for &v in vs {
                let bytes = batch.staged.slice(pair(v).0, 16);
                let s = u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"));
                let e = u64::from_le_bytes(bytes[8..].try_into().expect("8 bytes"));
                batch.ranges.push((s, e));
            }
        }

        if let Some(&(s, e)) = batch.ranges.iter().find(|&&(s, e)| s > e) {
            return Err(Error::Corrupt(format!(
                "CSR index range [{s}, {e}) is reversed"
            )));
        }

        // Pass 2: the value spans' pages in one batch.
        let total_bytes: usize = batch
            .ranges
            .iter()
            .map(|&(s, e)| (e - s) as usize * 4)
            .sum();
        if prefetch && total_bytes > 0 {
            let lo = batch
                .ranges
                .iter()
                .map(|&(s, _)| s)
                .min()
                .expect("nonempty");
            let hi = batch
                .ranges
                .iter()
                .map(|&(_, e)| e)
                .max()
                .expect("nonempty");
            let window = (hi - lo) as usize * 4;
            if window <= total_bytes.saturating_mul(2) {
                self.values.store().prefetch(lo * 4, window as u64)?;
            }
        }
        let value_span = |&(s, e): &(u64, u64)| (s * 4, e * 4);
        batch.staged.read(
            self.values.store(),
            batch.ranges.iter().map(value_span),
            reader,
        )?;
        for (out, &(s, e)) in batch.outs.iter_mut().zip(&batch.ranges) {
            if e > s {
                decode_into::<u32>(batch.staged.slice(s * 4, (e - s) as usize * 4), out);
            }
        }
        Ok(())
    }

    /// The underlying index array.
    pub fn index(&self) -> &ExtArray<u64, R> {
        &self.index
    }

    /// The underlying value array.
    pub fn values(&self) -> &ExtArray<u32, R> {
        &self.values
    }
}

/// Reusable scratch state for [`ExtCsr::read_neighbors_batch`].
#[derive(Debug, Default)]
pub struct NeighborBatch {
    /// Decoded neighbor lists, one per requested vertex.
    pub outs: Vec<Vec<u32>>,
    /// Resolved `[start, end)` value ranges.
    ranges: Vec<(u64, u64)>,
    /// The pages read by the current pass.
    staged: PageRuns,
}

impl NeighborBatch {
    /// Fresh, empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The page footprint of a set of byte spans, read from a store as runs of
/// contiguous pages and staged back to back in one buffer.
#[derive(Debug, Default)]
struct PageRuns {
    /// Scratch: each non-empty span's `[first, last + 1)` page range.
    pages: Vec<(u64, u64)>,
    /// `(store offset, buffer position)` of each run, ascending.
    runs: Vec<(u64, usize)>,
    /// The runs' bytes, in store order.
    bytes: Vec<u8>,
}

impl PageRuns {
    /// Read every page that a non-empty span `[start, end)` of `spans`
    /// touches, each page once, in one [`ReadAt::read_batch_at`] call (none
    /// when every span is empty). Runs of contiguous pages are cut at the
    /// reader's merge limit (whole pages, at least one), and the last
    /// page is clipped at the end of the store.
    fn read<R: ReadAt>(
        &mut self,
        store: &R,
        spans: impl Iterator<Item = (u64, u64)>,
        reader: &ChunkedReader,
    ) -> Result<()> {
        use crate::backend::BatchRead;

        let page = reader.app_chunk() as u64;
        let run_pages = (reader.merge_limit() as u64 / page).max(1);
        let size = store.len();
        self.pages.clear();
        for (start, end) in spans.filter(|&(s, e)| e > s) {
            if end > size {
                return Err(Error::OutOfBounds {
                    offset: start,
                    len: end - start,
                    size,
                });
            }
            self.pages.push((start / page, end.div_ceil(page)));
        }
        self.pages.sort_unstable();

        self.runs.clear();
        let mut total = 0usize;
        let mut next = 0;
        while next < self.pages.len() {
            // One maximal group of overlapping or adjacent page ranges …
            let (first, mut end) = self.pages[next];
            next += 1;
            while next < self.pages.len() && self.pages[next].0 <= end {
                end = end.max(self.pages[next].1);
                next += 1;
            }
            // … cut into runs of at most `run_pages` pages.
            let mut p = first;
            while p < end {
                let q = p.saturating_add(run_pages).min(end);
                let offset = p * page;
                self.runs.push((offset, total));
                total += ((q * page).min(size) - offset) as usize;
                p = q;
            }
        }

        self.bytes.clear();
        self.bytes.resize(total, 0);
        if self.runs.is_empty() {
            return Ok(());
        }
        let mut reqs = Vec::with_capacity(self.runs.len());
        let mut rest = self.bytes.as_mut_slice();
        for (i, &(offset, pos)) in self.runs.iter().enumerate() {
            let len = self.runs.get(i + 1).map_or(total, |r| r.1) - pos;
            let (head, tail) = rest.split_at_mut(len);
            reqs.push(BatchRead { offset, buf: head });
            rest = tail;
        }
        store.read_batch_at(&mut reqs)
    }

    /// The staged bytes `[offset, offset + len)` of the store; the span
    /// must lie inside one of the last [`read`](Self::read)'s spans.
    fn slice(&self, offset: u64, len: usize) -> &[u8] {
        let run = self.runs.partition_point(|&(o, _)| o <= offset) - 1;
        let (run_offset, pos) = self.runs[run];
        let start = pos + (offset - run_offset) as usize;
        &self.bytes[start..start + len]
    }
}

/// Write a CSR (index, values) pair to `index_path`/`value_path` as
/// little-endian array files — the "offload the forward graph to NVM"
/// step (§V-A Step 2). Returns total bytes written.
pub fn write_csr_files(
    index_path: impl AsRef<Path>,
    value_path: impl AsRef<Path>,
    index: &[u64],
    values: &[u32],
) -> Result<u64> {
    assert!(!index.is_empty(), "CSR index must have at least one entry");
    assert_eq!(
        *index.last().unwrap(),
        values.len() as u64,
        "CSR index final entry must equal value count"
    );
    let a = write_array_file(index_path, index)?;
    let b = write_array_file(value_path, values)?;
    Ok(a + b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{DramBackend, FileBackend};
    use crate::tempdir::TempDir;

    /// A small fixed graph: 0→{1,2}, 1→{0,2,3}, 2→{}, 3→{1}.
    fn sample_csr() -> (Vec<u64>, Vec<u32>) {
        (vec![0, 2, 5, 5, 6], vec![1, 2, 0, 2, 3, 1])
    }

    fn dram_csr() -> ExtCsr<DramBackend> {
        let (index, values) = sample_csr();
        let mut ib = vec![0u8; index.len() * 8];
        for (i, v) in index.iter().enumerate() {
            ib[i * 8..(i + 1) * 8].copy_from_slice(&v.to_le_bytes());
        }
        let mut vb = vec![0u8; values.len() * 4];
        for (i, v) in values.iter().enumerate() {
            vb[i * 4..(i + 1) * 4].copy_from_slice(&v.to_le_bytes());
        }
        ExtCsr::new(DramBackend::new(ib), DramBackend::new(vb)).unwrap()
    }

    #[test]
    fn shape_is_read_back() {
        let csr = dram_csr();
        assert_eq!(csr.num_vertices(), 4);
        assert_eq!(csr.num_values(), 6);
        assert_eq!(csr.byte_size(), 5 * 8 + 6 * 4);
    }

    #[test]
    fn degrees_and_ranges() {
        let csr = dram_csr();
        assert_eq!(csr.degree(0).unwrap(), 2);
        assert_eq!(csr.degree(1).unwrap(), 3);
        assert_eq!(csr.degree(2).unwrap(), 0);
        assert_eq!(csr.degree(3).unwrap(), 1);
        assert_eq!(csr.neighbor_range(1).unwrap(), (2, 5));
    }

    #[test]
    fn neighbors_read_back() {
        let csr = dram_csr();
        let reader = ChunkedReader::unmerged();
        let (mut out, mut scratch) = (Vec::new(), Vec::new());
        csr.read_neighbors(1, &reader, &mut out, &mut scratch)
            .unwrap();
        assert_eq!(out, vec![0, 2, 3]);
        csr.read_neighbors(2, &reader, &mut out, &mut scratch)
            .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn dram_index_gives_same_answers() {
        let csr = dram_csr().with_dram_index().unwrap();
        assert!(csr.has_dram_index());
        assert_eq!(csr.neighbor_range(3).unwrap(), (5, 6));
        assert_eq!(csr.degree(1).unwrap(), 3);
    }

    #[test]
    fn value_window_reads_tail() {
        let csr = dram_csr();
        let reader = ChunkedReader::unmerged();
        let (mut out, mut scratch) = (Vec::new(), Vec::new());
        // Vertex 1's neighbors occupy [2, 5); read just the tail [3, 5).
        csr.read_value_window(3, 5, &reader, &mut out, &mut scratch)
            .unwrap();
        assert_eq!(out, vec![2, 3]);
        csr.read_value_window(5, 5, &reader, &mut out, &mut scratch)
            .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn vertex_out_of_range_rejected() {
        let csr = dram_csr();
        assert!(csr.neighbor_range(4).is_err());
    }

    #[test]
    fn mismatched_index_value_rejected() {
        let ib: Vec<u8> = [0u64, 3].iter().flat_map(|v| v.to_le_bytes()).collect();
        let vb = vec![0u8; 4]; // 1 value, index claims 3
        assert!(matches!(
            ExtCsr::new(DramBackend::new(ib), DramBackend::new(vb)),
            Err(Error::Corrupt(_))
        ));
    }

    #[test]
    fn empty_index_rejected() {
        assert!(matches!(
            ExtCsr::new(DramBackend::new(vec![]), DramBackend::new(vec![])),
            Err(Error::Corrupt(_))
        ));
    }

    #[test]
    fn file_roundtrip() {
        let dir = TempDir::new("ext-csr").unwrap();
        let (index, values) = sample_csr();
        let ip = dir.path().join("fg.index");
        let vp = dir.path().join("fg.values");
        let bytes = write_csr_files(&ip, &vp, &index, &values).unwrap();
        assert_eq!(bytes, 5 * 8 + 6 * 4);

        let csr = ExtCsr::new(
            FileBackend::open(&ip).unwrap(),
            FileBackend::open(&vp).unwrap(),
        )
        .unwrap();
        let reader = ChunkedReader::unmerged();
        let (mut out, mut scratch) = (Vec::new(), Vec::new());
        csr.read_neighbors(0, &reader, &mut out, &mut scratch)
            .unwrap();
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "final entry must equal")]
    fn write_validates_consistency() {
        let dir = TempDir::new("ext-csr-bad").unwrap();
        let _ = write_csr_files(
            dir.path().join("i"),
            dir.path().join("v"),
            &[0u64, 5],
            &[1u32, 2],
        );
    }

    #[test]
    fn batch_matches_individual_reads() {
        let csr = dram_csr();
        let reader = ChunkedReader::unmerged();
        let mut batch = NeighborBatch::new();
        csr.read_neighbors_batch(&[0, 1, 2, 3], &reader, &mut batch)
            .unwrap();
        let (mut out, mut scratch) = (Vec::new(), Vec::new());
        for v in 0..4u64 {
            csr.read_neighbors(v, &reader, &mut out, &mut scratch)
                .unwrap();
            assert_eq!(batch.outs[v as usize], out, "vertex {v}");
        }
    }

    #[test]
    fn batch_with_dram_index_matches() {
        let csr = dram_csr().with_dram_index().unwrap();
        let reader = ChunkedReader::unmerged();
        let mut batch = NeighborBatch::new();
        csr.read_neighbors_batch(&[3, 0], &reader, &mut batch)
            .unwrap();
        assert_eq!(batch.outs[0], vec![1]);
        assert_eq!(batch.outs[1], vec![1, 2]);
    }

    #[test]
    fn batch_empty_and_out_of_range() {
        let csr = dram_csr();
        let reader = ChunkedReader::unmerged();
        let mut batch = NeighborBatch::new();
        csr.read_neighbors_batch(&[], &reader, &mut batch).unwrap();
        assert!(batch.outs.is_empty());
        assert!(csr.read_neighbors_batch(&[9], &reader, &mut batch).is_err());
    }

    #[test]
    fn batch_device_requests_counted_once_per_submission() {
        use crate::device::{DelayMode, Device, DeviceProfile, NvmStore};
        let (index, values) = sample_csr();
        let dir = TempDir::new("batch-csr").unwrap();
        let ip = dir.path().join("i");
        let vp = dir.path().join("v");
        write_csr_files(&ip, &vp, &index, &values).unwrap();
        let dev = Device::new(DeviceProfile::iodrive2(), DelayMode::Accounting);
        let csr = ExtCsr::new(
            NvmStore::new(FileBackend::open(&ip).unwrap(), dev.clone()),
            NvmStore::new(FileBackend::open(&vp).unwrap(), dev.clone()),
        )
        .unwrap();
        let reader = ChunkedReader::unmerged();
        let mut batch = NeighborBatch::new();
        dev.reset_stats(); // drop the construction-time validation read
        csr.read_neighbors_batch(&[0, 1, 3], &reader, &mut batch)
            .unwrap();
        // Both files fit in one page: one index-page run + one value-page
        // run, each a physical 4 KiB transfer.
        assert_eq!(dev.snapshot().requests, 2);
        assert_eq!(dev.snapshot().bytes, 2 * 4096);
        assert_eq!(batch.outs[1], vec![0, 2, 3]);
    }

    /// An accounting ioDrive2 model.
    fn accounting_device() -> std::sync::Arc<crate::device::Device> {
        use crate::device::{DelayMode, Device, DeviceProfile};
        Device::new(DeviceProfile::iodrive2(), DelayMode::Accounting)
    }

    /// A CSR with `n` vertices of `degree` neighbors each (values
    /// `0, 1, 2, …`) whose two files sit on `dev`.
    fn regular_csr_on(
        dev: &std::sync::Arc<crate::device::Device>,
        n: u64,
        degree: u64,
    ) -> ExtCsr<crate::device::NvmStore<DramBackend>> {
        use crate::device::NvmStore;
        let index: Vec<u8> = (0..=n).flat_map(|v| (v * degree).to_le_bytes()).collect();
        let values: Vec<u8> = (0..(n * degree) as u32)
            .flat_map(|x| x.to_le_bytes())
            .collect();
        ExtCsr::new(
            NvmStore::new(DramBackend::new(index), dev.clone()),
            NvmStore::new(DramBackend::new(values), dev.clone()),
        )
        .unwrap()
    }

    #[test]
    fn batch_reads_shared_pages_once_in_runs_cut_at_the_merge_limit() {
        // 3000 lists of 3 values: 36 000 bytes, 9 pages (the last one
        // 3232 bytes long). Reading every list touches all 9 pages once;
        // 16 KiB runs cut them 4 + 4 + 1.
        let dev = accounting_device();
        let csr = regular_csr_on(&dev, 3000, 3).with_dram_index().unwrap();
        dev.reset_stats();
        let all: Vec<u64> = (0..3000).rev().collect();
        let mut batch = NeighborBatch::new();
        csr.read_neighbors_batch(&all, &ChunkedReader::new(16 * 1024), &mut batch)
            .unwrap();
        assert_eq!(dev.snapshot().requests, 3);
        assert_eq!(dev.snapshot().bytes, 16384 + 16384 + 4096);
        for (&v, out) in all.iter().zip(&batch.outs) {
            let x = 3 * v as u32;
            assert_eq!(out, &[x, x + 1, x + 2], "vertex {v}");
        }

        // Unmerged: one request per page.
        dev.reset_stats();
        csr.read_neighbors_batch(&all, &ChunkedReader::unmerged(), &mut batch)
            .unwrap();
        assert_eq!(dev.snapshot().requests, 9);
        assert_eq!(dev.snapshot().bytes, 9 * 4096);
    }

    #[test]
    fn batch_splits_runs_at_page_gaps() {
        // Vertex 0's list is on page 0, vertex 2000's (byte 24 000) on
        // page 5, vertex 1365's straddles pages 3 and 4 (bytes 16 380..).
        let dev = accounting_device();
        let csr = regular_csr_on(&dev, 3000, 3).with_dram_index().unwrap();
        dev.reset_stats();
        let mut batch = NeighborBatch::new();
        let reader = ChunkedReader::new(usize::MAX);
        csr.read_neighbors_batch(&[2000, 0, 1365], &reader, &mut batch)
            .unwrap();
        // Runs: page 0, pages 3–5.
        assert_eq!(dev.snapshot().requests, 2);
        assert_eq!(dev.snapshot().bytes, 4096 + 3 * 4096);
        assert_eq!(batch.outs[2], vec![4095, 4096, 4097]);
    }

    #[test]
    fn batch_handles_any_order_duplicates_and_empty_lists() {
        let csr = dram_csr();
        let reader = ChunkedReader::unmerged();
        let mut batch = NeighborBatch::new();
        csr.read_neighbors_batch(&[3, 2, 1, 3, 0, 2, 1], &reader, &mut batch)
            .unwrap();
        let want: [&[u32]; 7] = [&[1], &[], &[0, 2, 3], &[1], &[1, 2], &[], &[0, 2, 3]];
        assert_eq!(batch.outs, want);
        // Only empty lists: nothing to read, every output cleared.
        csr.read_neighbors_batch(&[2, 2], &reader, &mut batch)
            .unwrap();
        assert_eq!(batch.outs, vec![Vec::<u32>::new(); 2]);
    }

    #[test]
    fn batch_rejects_a_corrupt_index_range() {
        // A corrupt middle index entry points past the 2 stored values,
        // which also makes vertex 1's range reversed.
        let ib: Vec<u8> = [0u64, 10, 2].iter().flat_map(|v| v.to_le_bytes()).collect();
        let csr = ExtCsr::new(DramBackend::new(ib), DramBackend::new(vec![0u8; 8])).unwrap();
        let reader = ChunkedReader::unmerged();
        let mut batch = NeighborBatch::new();
        let err = csr
            .read_neighbors_batch(&[0], &reader, &mut batch)
            .unwrap_err();
        assert!(matches!(err, Error::OutOfBounds { .. }), "{err:?}");
        let err = csr
            .read_neighbors_batch(&[1], &reader, &mut batch)
            .unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "{err:?}");
    }

    #[test]
    fn batch_under_transient_eio_returns_identical_lists() {
        use crate::device::{DelayMode, Device, DeviceProfile};
        use crate::fault::FaultPlan;
        let clean = regular_csr_on(&accounting_device(), 3000, 3);
        let plan = FaultPlan::parse("seed=11,eio=0.3,retries=40").unwrap();
        let dev = Device::with_fault_plan(DeviceProfile::iodrive2(), DelayMode::Accounting, plan);
        let faulted = regular_csr_on(&dev, 3000, 3);
        let vs: Vec<u64> = (0..3000).step_by(7).chain([5, 5, 2999]).collect();
        for reader in [ChunkedReader::unmerged(), ChunkedReader::new(16 * 1024)] {
            let (mut want, mut got) = (NeighborBatch::new(), NeighborBatch::new());
            clean.read_neighbors_batch(&vs, &reader, &mut want).unwrap();
            faulted
                .read_neighbors_batch(&vs, &reader, &mut got)
                .unwrap();
            assert_eq!(got.outs, want.outs);
        }
        assert!(dev.faults().unwrap().snapshot().eio > 0, "no fault fired");
    }

    mod properties {
        use super::*;
        use crate::device::{DelayMode, Device, DeviceProfile, NvmStore};
        use proptest::prelude::*;
        use std::collections::BTreeSet;

        /// `(requests, physical bytes)` of reading the page footprint of
        /// `spans` from a `size`-byte store: the touched 4 KiB pages, in
        /// runs of contiguous pages of at most `limit` bytes (whole pages),
        /// the last page clipped at the end of the store.
        fn page_run_model(
            spans: &[(u64, u64)],
            size: u64,
            limit: usize,
            profile: &DeviceProfile,
        ) -> (u64, u64) {
            const PAGE: u64 = 4096;
            let pages: BTreeSet<u64> = spans
                .iter()
                .filter(|&&(s, e)| e > s)
                .flat_map(|&(s, e)| s / PAGE..e.div_ceil(PAGE))
                .collect();
            let run_pages = (limit as u64 / PAGE).max(1);
            let mut runs: Vec<(u64, u64)> = Vec::new(); // (first, pages)
            for p in pages {
                match runs.last_mut() {
                    Some((first, len)) if *first + *len == p && *len < run_pages => *len += 1,
                    _ => runs.push((p, 1)),
                }
            }
            let bytes = runs
                .iter()
                .map(|&(first, len)| {
                    profile.physical_bytes(((first + len) * PAGE).min(size) - first * PAGE)
                })
                .sum();
            (runs.len() as u64, bytes)
        }

        proptest! {
            /// Build a random CSR from per-vertex adjacency lists, write it to
            /// DRAM stores, and verify every neighbor list reads back exactly.
            #[test]
            fn random_csr_roundtrip(
                adj in proptest::collection::vec(
                    proptest::collection::vec(any::<u32>(), 0..50), 1..40)
            ) {
                let mut index = vec![0u64];
                let mut values = Vec::new();
                for list in &adj {
                    values.extend_from_slice(list);
                    index.push(values.len() as u64);
                }
                let ib: Vec<u8> = index.iter().flat_map(|v| v.to_le_bytes()).collect();
                let vb: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
                let csr = ExtCsr::new(DramBackend::new(ib), DramBackend::new(vb)).unwrap();
                prop_assert_eq!(csr.num_vertices(), adj.len() as u64);

                let reader = ChunkedReader::unmerged();
                let (mut out, mut scratch) = (Vec::new(), Vec::new());
                for (v, list) in adj.iter().enumerate() {
                    csr.read_neighbors(v as u64, &reader, &mut out, &mut scratch).unwrap();
                    prop_assert_eq!(&out, list);
                }
            }

            /// A batch of random vertices (any order, duplicates, empty
            /// lists) returns every list exactly as `read_neighbors` does,
            /// and the device sees exactly the page-run model's requests and
            /// physical bytes for both the index pass and the value pass.
            #[test]
            fn batch_reads_the_page_run_footprint(
                lens in proptest::collection::vec((0..3u8, 0..1500usize), 1..60),
                picks in proptest::collection::vec(0..1000usize, 0..80),
                dram_index in 0..2u8,
            ) {
                let mut index = vec![0u64];
                let mut values = Vec::new();
                for (v, &(kind, len)) in lens.iter().enumerate() {
                    let len = if kind == 0 { 0 } else { len };
                    values.extend((0..len as u32).map(|i| (v as u32) << 16 | i));
                    index.push(values.len() as u64);
                }
                let n = lens.len();
                let vs: Vec<u64> = picks.iter().map(|&p| (p % n) as u64).collect();
                let ib: Vec<u8> = index.iter().flat_map(|v| v.to_le_bytes()).collect();
                let vb: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
                let (index_size, value_size) = (ib.len() as u64, vb.len() as u64);
                let profile = DeviceProfile::iodrive2();
                let dev = Device::new(profile.clone(), DelayMode::Accounting);
                let mut csr = ExtCsr::new(
                    NvmStore::new(DramBackend::new(ib), dev.clone()),
                    NvmStore::new(DramBackend::new(vb), dev.clone()),
                )
                .unwrap();
                if dram_index == 1 {
                    csr = csr.with_dram_index().unwrap();
                }

                let index_spans: Vec<(u64, u64)> = if dram_index == 1 {
                    Vec::new()
                } else {
                    vs.iter().map(|&v| (8 * v, 8 * v + 16)).collect()
                };
                let value_spans: Vec<(u64, u64)> = vs
                    .iter()
                    .map(|&v| (4 * index[v as usize], 4 * index[v as usize + 1]))
                    .collect();
                for reader in [
                    ChunkedReader::unmerged(),
                    ChunkedReader::new(16 * 1024),
                    ChunkedReader::new(usize::MAX),
                ] {
                    let limit = reader.merge_limit();
                    let (ir, ibytes) = page_run_model(&index_spans, index_size, limit, &profile);
                    let (vr, vbytes) = page_run_model(&value_spans, value_size, limit, &profile);

                    dev.reset_stats();
                    let mut batch = NeighborBatch::new();
                    csr.read_neighbors_batch(&vs, &reader, &mut batch).unwrap();
                    let snap = dev.snapshot();
                    prop_assert_eq!(snap.requests, ir + vr);
                    prop_assert_eq!(snap.bytes, ibytes + vbytes);

                    prop_assert_eq!(batch.outs.len(), vs.len());
                    let (mut out, mut scratch) = (Vec::new(), Vec::new());
                    for (&v, got) in vs.iter().zip(&batch.outs) {
                        csr.read_neighbors(v, &reader, &mut out, &mut scratch).unwrap();
                        prop_assert_eq!(got, &out);
                    }
                }
            }
        }
    }
}
