//! `sembfs-core` — the hybrid BFS with semi-external memory of
//! Iwabuchi et al. (IPPS 2014).
//!
//! The algorithm (§III) combines a **top-down** step (expand the frontier
//! through the forward graph) with a **bottom-up** step (let unvisited
//! vertices search the frontier through the backward graph), switching
//! directions by the frontier-size thresholds α and β (§III-C). The
//! paper's contribution (§V) is the *data layout*: the forward graph —
//! touched only while the frontier is small — is offloaded to NVM, while
//! the backward graph and BFS status data stay in DRAM, NUMA-partitioned.
//!
//! Layer map:
//!
//! * [`bitmap`], [`frontier`], [`tree`] — BFS status data (§IV-A):
//!   visited/frontier bitmaps, queues, the parent tree.
//! * [`parallel`] — the two step kernels, generic over where their graph
//!   lives (DRAM or metered NVM): chunked work-stealing top-down with a
//!   min-parent `fetch_min` claim and range-partitioned first-hit
//!   bottom-up, bit-identical to [`reference_bfs`] at any thread count
//!   (`BfsConfig::threads`).
//! * [`bottomup`] — the bottom-up probe over sorted backward adjacency
//!   (DRAM or split DRAM head + NVM tail), where the first frontier hit
//!   is the min parent.
//! * [`policy`] — direction-switching: the paper's α/β rule, fixed
//!   directions (the Fig. 8 baselines), and a Beamer-style heuristic for
//!   ablation.
//! * [`hybrid`] — the level-synchronous driver with per-level
//!   instrumentation ([`level_stats`]).
//! * [`mod@reference`] — the serial Graph500-reference-style BFS baseline.
//! * [`scenario`] — Table I's machine scenarios: *DRAM-only*,
//!   *DRAM+PCIeFlash*, *DRAM+SSD*; builds the full data layout and runs
//!   any searcher on it.

pub mod bitmap;
pub mod bottomup;
pub mod energy;
pub mod frontier;
pub mod hybrid;
pub mod level_stats;
pub mod parallel;
pub mod policy;
pub mod reference;
pub mod scenario;
pub mod tree;

pub use bitmap::AtomicBitmap;
pub use bottomup::{BottomUpOutput, BottomUpSource};
pub use energy::PowerModel;
pub use hybrid::{hybrid_bfs, hybrid_bfs_distances, BfsConfig, BfsRun, DistanceRun};
pub use level_stats::{Direction, LevelStats};
pub use parallel::{par_bottom_up_step, par_top_down_step};
pub use policy::{
    AlphaBetaPolicy, BeamerPolicy, DirectionPolicy, FixedPolicy, PolicyCtx, PolicyEvent,
};
pub use reference::reference_bfs;
pub use scenario::{AccessPath, Scenario, ScenarioData, ScenarioOptions};
pub use tree::status_data_bytes;

pub use sembfs_graph500::{VertexId, INVALID_PARENT};
