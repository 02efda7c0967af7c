//! CSR graphs on external storage: the offloaded forward graph and the
//! gap-encoded backward tail.
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
//!
//! [`GapCsr`] stores **ascending** lists compactly, a deliberate deviation
//! from the paper's raw `u32` value file: each list is the LEB128 varints
//! of its first entry and of the gaps between consecutive entries
//! ([`encode_gaps`]), and both the edge-offset and the byte-offset index
//! stay in DRAM. The offloaded backward tail (§VI-E) uses it: its lists
//! are sorted, and the bottom-up probe reads them in order, so
//! [`StagedGaps::scan`] decodes a staged list in place and stops at its
//! first hit. The device meters exactly the encoded pages it reads.

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
    /// value span through `reader` and decoding via `scratch`. A reversed
    /// index range is [`Error::Corrupt`].
    pub fn read_neighbors(
        &self,
        v: u64,
        reader: &ChunkedReader,
        out: &mut Vec<u32>,
        scratch: &mut Vec<u8>,
    ) -> Result<()> {
        let (start, end) = self.neighbor_range(v)?;
        out.clear();
        if start > end {
            return Err(Error::Corrupt(format!(
                "CSR index range [{start}, {end}) is reversed"
            )));
        }
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

/// Reusable scratch state for [`ExtCsr::read_neighbors_batch`] and
/// [`GapCsr::stage`].
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

/// Encode ascending adjacency lists as gaps. List `v` is
/// `values[index[v]..index[v + 1]]`; it is stored as the LEB128 varint of
/// its first entry followed by the varint of each entry's difference to
/// the one before it (0 for a repeated entry). Returns the byte index
/// (`index.len()` offsets into the encoding, the last one its length) and
/// the encoded bytes.
///
/// # Panics
/// Panics when `index` is empty or does not end at `values.len()`, or when
/// a list is not ascending.
pub fn encode_gaps(index: &[u64], values: &[u32]) -> (Vec<u64>, Vec<u8>) {
    assert!(!index.is_empty(), "CSR index must have at least one entry");
    assert_eq!(
        *index.last().unwrap(),
        values.len() as u64,
        "CSR index final entry must equal value count"
    );
    let mut byte_index = Vec::with_capacity(index.len());
    let mut bytes = Vec::with_capacity(values.len());
    byte_index.push(0);
    for w in index.windows(2) {
        let mut prev = 0u32;
        for &v in &values[w[0] as usize..w[1] as usize] {
            assert!(v >= prev, "gap-encoded lists must be ascending");
            let mut gap = v - prev;
            while gap >= 0x80 {
                bytes.push(gap as u8 | 0x80);
                gap >>= 7;
            }
            bytes.push(gap as u8);
            prev = v;
        }
        byte_index.push(bytes.len() as u64);
    }
    (byte_index, bytes)
}

/// Decode the `len` entries of one gap-encoded list ([`encode_gaps`])
/// from `bytes` in order, stopping at the first entry for which `stop`
/// returns true. Returns that entry, if any, and how many entries were
/// decoded (`len` when none stopped the scan). A scan that reaches the end
/// of the list checks that it used up `bytes` exactly.
///
/// Malformed input is [`Error::Corrupt`], never a panic: fewer than `len`
/// entries in `bytes`, a varint longer than 5 bytes, an entry past
/// `u32::MAX`, or bytes left after the last entry.
pub fn scan_gaps(
    bytes: &[u8],
    len: u64,
    mut stop: impl FnMut(u32) -> bool,
) -> Result<(Option<u32>, u64)> {
    let mut pos = 0;
    let mut value = 0u64;
    for i in 0..len {
        // At most 5 varint bytes: the sum stays far below u64::MAX.
        value += read_varint(bytes, &mut pos)?;
        let Ok(v) = u32::try_from(value) else {
            return Err(Error::Corrupt(format!(
                "gap list entry {i} of {len} overflows u32"
            )));
        };
        if stop(v) {
            return Ok((Some(v), i + 1));
        }
    }
    if pos != bytes.len() {
        return Err(Error::Corrupt(format!(
            "{} bytes left after the last of {len} gap-list entries",
            bytes.len() - pos
        )));
    }
    Ok((None, len))
}

/// The LEB128 varint at `bytes[*pos..]` (at most 5 bytes), advancing
/// `*pos` past it.
#[inline]
fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u64> {
    let mut x = 0u64;
    for shift in [0, 7, 14, 21, 28] {
        let Some(&b) = bytes.get(*pos) else {
            return Err(Error::Corrupt("gap list truncated".into()));
        };
        *pos += 1;
        x |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return Ok(x);
        }
    }
    Err(Error::Corrupt("gap varint longer than 5 bytes".into()))
}

/// Ascending adjacency lists stored gap-encoded ([`encode_gaps`]) on
/// external storage, with both indexes pinned in DRAM: the edge offsets
/// (degrees cost no storage request) and the byte offsets of each
/// encoded list (reads fetch exactly the encoded span).
#[derive(Debug)]
pub struct GapCsr<R> {
    /// List `v` holds entries `[index[v], index[v + 1])`.
    index: Vec<u64>,
    /// List `v` is encoded in store bytes `[byte_index[v], byte_index[v + 1])`.
    byte_index: Vec<u64>,
    store: R,
}

impl<R: ReadAt> GapCsr<R> {
    /// Bind the edge-offset and byte-offset indexes of [`encode_gaps`] to
    /// the store holding its bytes.
    ///
    /// Both indexes must have the same `n + 1 ≥ 1` entries, start at 0 and
    /// never decrease; the byte index must end at the store's length, and
    /// each list must take between 1 and 5 bytes per entry. Anything else
    /// is [`Error::Corrupt`].
    pub fn new(index: Vec<u64>, byte_index: Vec<u64>, store: R) -> Result<Self> {
        if index.is_empty() || index.len() != byte_index.len() {
            return Err(Error::Corrupt(format!(
                "gap CSR indexes have {} edge and {} byte offsets",
                index.len(),
                byte_index.len()
            )));
        }
        if index[0] != 0 || byte_index[0] != 0 {
            return Err(Error::Corrupt("gap CSR indexes must start at 0".into()));
        }
        for v in 0..index.len() - 1 {
            let (Some(entries), Some(bytes)) = (
                index[v + 1].checked_sub(index[v]),
                byte_index[v + 1].checked_sub(byte_index[v]),
            ) else {
                return Err(Error::Corrupt(format!(
                    "gap CSR index decreases at vertex {v}"
                )));
            };
            if bytes < entries || bytes > entries.saturating_mul(5) {
                return Err(Error::Corrupt(format!(
                    "vertex {v}: {entries} gap entries in {bytes} bytes"
                )));
            }
        }
        let end = *byte_index.last().expect("nonempty");
        if end != store.len() {
            return Err(Error::Corrupt(format!(
                "gap CSR byte index ends at {end}, the store holds {} bytes",
                store.len()
            )));
        }
        Ok(Self {
            index,
            byte_index,
            store,
        })
    }

    /// Number of vertices `n`.
    pub fn num_vertices(&self) -> u64 {
        self.index.len() as u64 - 1
    }

    /// Degree of vertex `v`, from the DRAM index.
    ///
    /// # Panics
    /// Panics when `v` is not a vertex.
    pub fn degree(&self, v: u64) -> u64 {
        self.index[v as usize + 1] - self.index[v as usize]
    }

    /// Bytes pinned in DRAM: the two indexes.
    pub fn dram_byte_size(&self) -> u64 {
        8 * (self.index.len() + self.byte_index.len()) as u64
    }

    /// Bytes on the store: the encoded lists.
    pub fn nvm_byte_size(&self) -> u64 {
        self.store.len()
    }

    /// The encoded span of vertex `v`'s list in the store.
    fn span(&self, v: u64) -> (u64, u64) {
        (self.byte_index[v as usize], self.byte_index[v as usize + 1])
    }

    /// Read and decode vertex `v`'s whole list into `out` (cleared first),
    /// fetching its encoded span through `reader` into `scratch`.
    pub fn read_neighbors(
        &self,
        v: u64,
        reader: &ChunkedReader,
        out: &mut Vec<u32>,
        scratch: &mut Vec<u8>,
    ) -> Result<()> {
        self.check_vertex(v)?;
        out.clear();
        let (start, end) = self.span(v);
        scratch.clear();
        scratch.resize((end - start) as usize, 0);
        if end > start {
            reader.read_span(&self.store, start, scratch)?;
        }
        scan_gaps(scratch, self.degree(v), |x| {
            out.push(x);
            false
        })?;
        Ok(())
    }

    /// Stage the encoded lists of `vs` (any order, duplicates allowed)
    /// with **one** [`ReadAt::read_batch_at`] call: the page footprint of
    /// their spans as runs of contiguous pages up to the reader's merge
    /// limit, each page once — exactly as
    /// [`ExtCsr::read_neighbors_batch`] reads raw spans. Empty lists add
    /// no page, and a batch of only empty lists issues no read. The
    /// returned view scans each staged list in place.
    pub fn stage<'a>(
        &'a self,
        vs: &'a [u64],
        reader: &ChunkedReader,
        batch: &'a mut NeighborBatch,
    ) -> Result<StagedGaps<'a, R>> {
        for &v in vs {
            self.check_vertex(v)?;
        }
        batch
            .staged
            .read(&self.store, vs.iter().map(|&v| self.span(v)), reader)?;
        Ok(StagedGaps {
            csr: self,
            vs,
            runs: &batch.staged,
        })
    }

    fn check_vertex(&self, v: u64) -> Result<()> {
        if v >= self.num_vertices() {
            return Err(Error::OutOfBounds {
                offset: v,
                len: 1,
                size: self.num_vertices(),
            });
        }
        Ok(())
    }
}

/// The encoded lists staged by one [`GapCsr::stage`] call.
#[derive(Debug)]
pub struct StagedGaps<'a, R> {
    csr: &'a GapCsr<R>,
    vs: &'a [u64],
    runs: &'a PageRuns,
}

impl<R: ReadAt> StagedGaps<'_, R> {
    /// Scan the staged list of `vs[i]` in place ([`scan_gaps`]): decode it
    /// entry by entry up to the first one for which `stop` returns true.
    ///
    /// # Panics
    /// Panics when `i` is not a position in the staged `vs`.
    pub fn scan(&self, i: usize, stop: impl FnMut(u32) -> bool) -> Result<(Option<u32>, u64)> {
        let v = self.vs[i];
        let (start, end) = self.csr.span(v);
        let bytes = if end > start {
            self.runs.slice(start, (end - start) as usize)
        } else {
            &[]
        };
        scan_gaps(bytes, self.csr.degree(v), stop)
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

    #[test]
    fn read_neighbors_rejects_a_reversed_index_range() {
        // Vertex 1's range [3, 2) is reversed; the final entry matches the
        // two stored values, so construction succeeds.
        let ib: Vec<u8> = [0u64, 3, 2].iter().flat_map(|v| v.to_le_bytes()).collect();
        let csr = ExtCsr::new(DramBackend::new(ib), DramBackend::new(vec![0u8; 8])).unwrap();
        let (mut out, mut scratch) = (Vec::new(), Vec::new());
        let err = csr
            .read_neighbors(1, &ChunkedReader::unmerged(), &mut out, &mut scratch)
            .unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "{err:?}");
    }

    /// Lists exercising the codec's edges: an empty list, duplicates (gap
    /// 0), the entries 0 and `u32::MAX`, and the maximal gap.
    fn edge_case_lists() -> Vec<Vec<u32>> {
        vec![
            vec![],
            vec![0],
            vec![0, 0, 0],
            vec![u32::MAX],
            vec![0, u32::MAX],
            vec![],
            vec![5, 5, 127, 128, 16_383, 16_384, u32::MAX, u32::MAX],
            vec![1, 2, 3],
        ]
    }

    fn flatten(lists: &[Vec<u32>]) -> (Vec<u64>, Vec<u32>) {
        let mut index = vec![0u64];
        let mut values = Vec::new();
        for list in lists {
            values.extend_from_slice(list);
            index.push(values.len() as u64);
        }
        (index, values)
    }

    /// The lists gap-encoded into a store of their own.
    fn gap_csr(lists: &[Vec<u32>]) -> GapCsr<DramBackend> {
        let (index, values) = flatten(lists);
        let (byte_index, bytes) = encode_gaps(&index, &values);
        GapCsr::new(index, byte_index, DramBackend::new(bytes)).unwrap()
    }

    #[test]
    fn gap_encoding_sizes_and_round_trip() {
        let lists = edge_case_lists();
        let (index, values) = flatten(&lists);
        let (byte_index, bytes) = encode_gaps(&index, &values);
        // [0, u32::MAX]: one byte, then the maximal gap in five.
        assert_eq!(byte_index[5] - byte_index[4], 1 + 5);
        // A gap of 0 (a duplicate) takes one byte.
        assert_eq!(byte_index[3] - byte_index[2], 3);
        assert_eq!(*byte_index.last().unwrap(), bytes.len() as u64);

        let csr = gap_csr(&lists);
        assert_eq!(csr.num_vertices(), lists.len() as u64);
        assert_eq!(csr.nvm_byte_size(), bytes.len() as u64);
        assert_eq!(csr.dram_byte_size(), 2 * 8 * (lists.len() as u64 + 1));
        let (mut out, mut scratch) = (Vec::new(), Vec::new());
        for (v, list) in lists.iter().enumerate() {
            assert_eq!(csr.degree(v as u64), list.len() as u64);
            csr.read_neighbors(v as u64, &ChunkedReader::unmerged(), &mut out, &mut scratch)
                .unwrap();
            assert_eq!(&out, list, "vertex {v}");
        }
        assert!(matches!(
            csr.read_neighbors(99, &ChunkedReader::unmerged(), &mut out, &mut scratch),
            Err(Error::OutOfBounds { .. })
        ));
    }

    #[test]
    fn gap_scan_stops_at_the_first_hit() {
        let bytes = encode_gaps(&[0, 4], &[3, 9, 9, 40]).1;
        assert_eq!(scan_gaps(&bytes, 4, |v| v >= 9).unwrap(), (Some(9), 2));
        assert_eq!(scan_gaps(&bytes, 4, |v| v == 40).unwrap(), (Some(40), 4));
        assert_eq!(scan_gaps(&bytes, 4, |_| false).unwrap(), (None, 4));
        assert_eq!(scan_gaps(&[], 0, |_| true).unwrap(), (None, 0));
    }

    #[test]
    fn corrupt_gap_lists_are_typed_errors() {
        let corrupt = |bytes: &[u8], len: u64| {
            let err = scan_gaps(bytes, len, |_| false).unwrap_err();
            assert!(matches!(err, Error::Corrupt(_)), "{bytes:?}: {err:?}");
        };
        // Truncated: two entries promised, one stored; a varint cut short.
        corrupt(&[7], 2);
        corrupt(&[0x81], 1);
        corrupt(&[], 1);
        // A varint longer than 5 bytes.
        corrupt(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x01], 1);
        // Gaps that overflow u32: a 5-byte varint of 2^32, and u32::MAX
        // followed by a gap of 1.
        corrupt(&[0x80, 0x80, 0x80, 0x80, 0x10], 1);
        corrupt(&[0xff, 0xff, 0xff, 0xff, 0x0f, 0x01], 2);
        // Trailing bytes after the last entry.
        corrupt(&[1, 2], 1);
        corrupt(&[0], 0);
        // A scan that stops early does not look past its hit.
        assert_eq!(scan_gaps(&[1, 2], 1, |_| true).unwrap(), (Some(1), 1));

        // The same through a GapCsr whose store bytes are damaged: the
        // one-entry list [300] (2 bytes) with its continuation bit cleared
        // leaves a trailing byte.
        let csr = GapCsr::new(vec![0, 1], vec![0, 2], DramBackend::new(vec![0x2c, 0x02])).unwrap();
        let (mut out, mut scratch) = (Vec::new(), Vec::new());
        let err = csr
            .read_neighbors(0, &ChunkedReader::unmerged(), &mut out, &mut scratch)
            .unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "{err:?}");
    }

    #[test]
    fn inconsistent_gap_indexes_are_rejected() {
        let store = || DramBackend::new(vec![1, 2, 3]);
        let bad = [
            // Short byte index.
            (vec![0, 1, 3], vec![0, 3]),
            // Non-monotone byte index.
            (vec![0, 1, 3], vec![0, 2, 1]),
            // Non-monotone edge index.
            (vec![0, 2, 1], vec![0, 2, 3]),
            // Not starting at 0.
            (vec![1, 2, 3], vec![0, 1, 3]),
            // Byte index past the store.
            (vec![0, 1, 3], vec![0, 1, 4]),
            // Fewer bytes than entries.
            (vec![0, 3, 3], vec![0, 2, 3]),
            // More than 5 bytes per entry.
            (vec![0, 0, 0], vec![0, 1, 3]),
            // An entry count whose byte bound overflows.
            (vec![0, 1 << 62], vec![0, 1 << 63]),
            // No entries at all.
            (vec![], vec![]),
        ];
        for (index, byte_index) in bad {
            let what = format!("{index:?} / {byte_index:?}");
            let err = GapCsr::new(index, byte_index, store()).unwrap_err();
            assert!(matches!(err, Error::Corrupt(_)), "{what}: {err:?}");
        }
        assert!(GapCsr::new(vec![0, 1, 3], vec![0, 1, 3], store()).is_ok());
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn encoding_an_unsorted_list_panics() {
        let _ = encode_gaps(&[0, 2], &[5, 4]);
    }

    #[test]
    fn staged_gap_lists_scan_in_place_and_skip_empty_lists() {
        let dev = accounting_device();
        let lists = edge_case_lists();
        let (index, values) = flatten(&lists);
        let (byte_index, bytes) = encode_gaps(&index, &values);
        let csr = GapCsr::new(
            index,
            byte_index,
            crate::device::NvmStore::new(DramBackend::new(bytes), dev.clone()),
        )
        .unwrap();
        let reader = ChunkedReader::for_device(&dev);
        let mut batch = NeighborBatch::new();
        let vs = [6u64, 0, 4, 6, 7];
        let staged = csr.stage(&vs, &reader, &mut batch).unwrap();
        // The whole encoding fits one page: one request.
        assert_eq!(dev.snapshot().requests, 1);
        assert_eq!(staged.scan(0, |v| v > 127).unwrap(), (Some(128), 4));
        assert_eq!(staged.scan(1, |_| true).unwrap(), (None, 0));
        assert_eq!(
            staged.scan(2, |v| v == u32::MAX).unwrap(),
            (Some(u32::MAX), 2)
        );
        assert_eq!(staged.scan(3, |_| false).unwrap(), (None, 8));
        assert_eq!(staged.scan(4, |v| v == 2).unwrap(), (Some(2), 2));

        // Only empty lists: no read at all.
        dev.reset_stats();
        let empty = [0u64, 5, 0];
        let staged = csr.stage(&empty, &reader, &mut batch).unwrap();
        assert_eq!(staged.scan(1, |_| true).unwrap(), (None, 0));
        assert_eq!(dev.snapshot().requests, 0);
        assert!(matches!(
            csr.stage(&[8], &reader, &mut batch),
            Err(Error::OutOfBounds { .. })
        ));
    }

    #[test]
    fn staged_gap_lists_under_transient_eio_equal_fault_free_ones() {
        use crate::device::{DelayMode, Device, DeviceProfile, NvmStore};
        use crate::fault::FaultPlan;
        // 3000 lists `[v, v + 1, …, v + 9 + v % 7]`, a few pages encoded.
        let lists: Vec<Vec<u32>> = (0..3000u32)
            .map(|v| (v..v + 10 + v % 7).collect())
            .collect();
        let (index, values) = flatten(&lists);
        let (byte_index, bytes) = encode_gaps(&index, &values);
        let plan = FaultPlan::parse("seed=11,eio=0.3,retries=40").unwrap();
        let dev = Device::with_fault_plan(DeviceProfile::iodrive2(), DelayMode::Accounting, plan);
        let faulted = GapCsr::new(
            index.clone(),
            byte_index.clone(),
            NvmStore::new(DramBackend::new(bytes.clone()), dev.clone()),
        )
        .unwrap();
        let clean = GapCsr::new(index, byte_index, DramBackend::new(bytes)).unwrap();
        let vs: Vec<u64> = (0..3000).step_by(7).chain([5, 5, 2999]).collect();
        for reader in [ChunkedReader::unmerged(), ChunkedReader::new(16 * 1024)] {
            let (mut want, mut got) = (NeighborBatch::new(), NeighborBatch::new());
            let want = clean.stage(&vs, &reader, &mut want).unwrap();
            let got = faulted.stage(&vs, &reader, &mut got).unwrap();
            for (i, &v) in vs.iter().enumerate() {
                let (mut a, mut b) = (Vec::new(), Vec::new());
                want.scan(i, |x| {
                    a.push(x);
                    false
                })
                .unwrap();
                got.scan(i, |x| {
                    b.push(x);
                    false
                })
                .unwrap();
                assert_eq!(a, b, "vertex {v}");
                assert_eq!(a, lists[v as usize], "vertex {v}");
            }
            let (mut out, mut scratch) = (Vec::new(), Vec::new());
            faulted
                .read_neighbors(2999, &reader, &mut out, &mut scratch)
                .unwrap();
            assert_eq!(out, lists[2999]);
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

            /// Gap encoding round-trips any ascending lists — empty ones,
            /// duplicates, the entries 0 and `u32::MAX`, maximal gaps — and
            /// a staged batch's in-place scan stops where a scan of the raw
            /// list does, with the device reading exactly the page-run
            /// footprint of the encoded spans.
            #[test]
            fn gap_lists_round_trip_and_scan_to_the_first_hit(
                raw in proptest::collection::vec(
                    proptest::collection::vec((0..4u8, any::<u32>()), 0..40), 1..60),
                picks in proptest::collection::vec(0..1000usize, 0..80),
                threshold in any::<u32>(),
            ) {
                let lists: Vec<Vec<u32>> = raw
                    .iter()
                    .map(|list| {
                        let mut l: Vec<u32> = list
                            .iter()
                            .map(|&(kind, x)| match kind {
                                0 => 0,
                                1 => u32::MAX,
                                2 => x % 16,
                                _ => x,
                            })
                            .collect();
                        l.sort_unstable();
                        l
                    })
                    .collect();
                let (index, values) = flatten(&lists);
                let (byte_index, bytes) = encode_gaps(&index, &values);
                let size = bytes.len() as u64;
                let profile = DeviceProfile::iodrive2();
                let dev = Device::new(profile.clone(), DelayMode::Accounting);
                let csr = GapCsr::new(
                    index,
                    byte_index.clone(),
                    NvmStore::new(DramBackend::new(bytes), dev.clone()),
                )
                .unwrap();
                let n = lists.len();
                let vs: Vec<u64> = picks.iter().map(|&p| (p % n) as u64).collect();
                let spans: Vec<(u64, u64)> = vs
                    .iter()
                    .map(|&v| (byte_index[v as usize], byte_index[v as usize + 1]))
                    .collect();
                for reader in [ChunkedReader::unmerged(), ChunkedReader::new(16 * 1024)] {
                    let (mut out, mut scratch) = (Vec::new(), Vec::new());
                    for (v, list) in lists.iter().enumerate() {
                        csr.read_neighbors(v as u64, &reader, &mut out, &mut scratch).unwrap();
                        prop_assert_eq!(&out, list);
                    }
                    let (requests, bytes) =
                        page_run_model(&spans, size, reader.merge_limit(), &profile);
                    dev.reset_stats();
                    let mut batch = NeighborBatch::new();
                    let staged = csr.stage(&vs, &reader, &mut batch).unwrap();
                    prop_assert_eq!(dev.snapshot().requests, requests);
                    prop_assert_eq!(dev.snapshot().bytes, bytes);
                    for (i, &v) in vs.iter().enumerate() {
                        let list = &lists[v as usize];
                        let want = match list.iter().position(|&x| x >= threshold) {
                            Some(j) => (Some(list[j]), j as u64 + 1),
                            None => (None, list.len() as u64),
                        };
                        prop_assert_eq!(staged.scan(i, |x| x >= threshold).unwrap(), want);
                    }
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
