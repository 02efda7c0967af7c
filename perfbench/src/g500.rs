//! The Graph500 workload on the NVM-offloaded layout: generate → CSR
//! build → layout (offload) → repeated searches over a fixed root set →
//! validation.
//!
//! An operation is one `ScenarioData::run` call. The measured window
//! cycles over the root set until the summed search wall reaches the
//! run's seconds; a window always holds at least one whole pass, and the
//! root set is sized so that a pass takes less than the benchmarked
//! seconds. Each tree's digest must equal the `reference_bfs` digest of
//! its root, computed before the window, and the first tree of every root
//! must pass `validate_bfs_tree`, run right after its search and outside
//! the summed search wall.

use std::time::{Duration, Instant};

use sembfs_core::{reference_bfs, AlphaBetaPolicy, BfsConfig, BfsRun, Direction, Scenario};
use sembfs_graph500::validate_bfs_tree;
use sembfs_semext::IoSnapshot;

use crate::inputs;
use crate::util::{digest, median, ms, percentile, tail, Spans};
use crate::{
    layout_sizes, pinned_options, retries, set_up, trace_summary, ExactCounters, Report, RunConfig,
    Size, Workload, MIB,
};

/// Sizes of the search workload.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Graph500 SCALE (2^scale vertices, 16 edges per vertex).
    pub scale: u32,
    /// Search roots in the fixed root set.
    pub roots: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
}

/// The sizes at `size`. At SCALE 14 a search takes about 0.35 s on the
/// throttled ioDrive2 model with two threads, so a pass over 96 roots
/// takes about 34 s and fits in a 40 s window.
pub fn params(size: Size) -> Params {
    match size {
        Size::Full => Params {
            scale: 14,
            roots: 96,
            setups: 5,
        },
        Size::Smoke => Params {
            scale: 12,
            roots: 4,
            setups: 2,
        },
    }
}

/// Backward-graph edges per vertex kept in DRAM on the flash layout;
/// the tail beyond goes to the device (§VI-E).
const BACKWARD_DRAM_K: u64 = 16;

/// The paper's best α/β on flash (§VI-B): α = β = 1e6, which runs every
/// level bottom-up. With the backward tail offloaded (§VI-E), those
/// bottom-up levels read about 77 % of their scanned edges from the
/// device. (α = β = 10, which keeps the first and last levels top-down,
/// makes the search time of a root bimodal — 70 ms to 1.1 s at SCALE 15,
/// by whether the ramp-up level runs top-down — so the median of a root
/// set moved by half between seeds.)
fn policy() -> AlphaBetaPolicy {
    AlphaBetaPolicy::new(1e6, 1e6)
}

/// Every kernel knob, pinned.
pub fn bfs_config(threads: usize) -> BfsConfig {
    BfsConfig {
        batch: 64,
        reader: None,
        io_monitor: None,
        count_frontier_edges: false,
        aggregate_io: false,
        cache_monitor: None,
        cache_capacity_bytes: None,
        cache_readahead_pages: None,
        threads,
        numa_counters: None,
    }
}

/// Layer figures summed over the traced searches.
#[derive(Debug, Default)]
struct LayerSums {
    searches: u64,
    td: Duration,
    bu: Duration,
    outside: Duration,
    bu_scanned: u64,
    bu_discovered: u64,
    io: IoSnapshot,
    io_wall_ns: u64,
}

/// Run the search workload.
pub fn run(cfg: &RunConfig) -> Report {
    let mut report = Report::default();
    if let Err(e) = run_inner(cfg, &mut report) {
        report.problem(e);
    }
    report
}

fn run_inner(cfg: &RunConfig, report: &mut Report) -> Result<(), String> {
    let p = params(cfg.size);
    let name = Workload::G500FlashOffload.name();
    let run_start = Instant::now();
    let mut spans = Spans::new(cfg.trace);
    let policy = policy();
    let bfs = bfs_config(cfg.threads);

    let layout = |dir: &std::path::Path| {
        (
            Scenario::DramPcieFlash,
            pinned_options(dir, None, Some(BACKWARD_DRAM_K)),
        )
    };
    let (edges, data, edges_digest, setup) = set_up(
        p.setups,
        p.scale,
        cfg,
        &mut spans,
        report,
        layout,
        |data, _| Ok(data),
    )?;

    // Inputs and reference answers, before the window.
    let roots = inputs::roots(data.csr(), p.roots, cfg.seed);
    let roots_digest = digest(&roots);
    report.notes.push(format!(
        "inputs: {name} scale={} roots={} edges={edges_digest:016x} roots={roots_digest:016x}",
        p.scale, p.roots
    ));
    for problem in inputs::check_fingerprints(
        name,
        cfg.seed,
        cfg.size == Size::Full,
        edges_digest,
        roots_digest,
    ) {
        report.problem(problem);
    }
    let want: Vec<u64> = roots
        .iter()
        .map(|&r| digest(&reference_bfs(data.csr(), r).parent))
        .collect();

    if data.device().is_none() {
        return Err(format!("{name} has no device"));
    }

    // The measured window.
    let window = Duration::from_secs_f64(cfg.seconds);
    let mut busy = Duration::ZERO;
    let mut samples_ms = Vec::new();
    // Untraced searches: wall and count.
    let mut untraced = (Duration::ZERO, 0u64);
    // Every search: wall and traversed edges (TEPS).
    let mut all = (Duration::ZERO, 0u64);
    let mut traced_wall = Duration::ZERO;
    // Untraced comparison searches of a traced run, outside every span.
    let mut twins = Duration::ZERO;
    let mut sums = LayerSums::default();
    let mut validate_ms = Vec::new();
    let mut passes: Vec<ExactCounters> = Vec::new();
    let mut pass = 0usize;
    'window: loop {
        let mut exact = ExactCounters::default();
        for (i, &root) in roots.iter().enumerate() {
            if pass > 0 && busy >= window {
                break 'window;
            }
            // A traced run measures the first quarter of the roots twice
            // in a row, once with spans and counter snapshots and once
            // without, alternating which goes first; the difference is
            // the tracing overhead.
            let twin = pass == 0 && i < roots.len().div_ceil(4);
            let order: &[bool] = match (cfg.trace, twin, i % 2) {
                (false, _, _) => &[false],
                (true, false, _) => &[true],
                (true, true, 0) => &[true, false],
                (true, true, _) => &[false, true],
            };
            for (k, &traced) in order.iter().enumerate() {
                let io0 = traced
                    .then(|| data.device().map(|d| d.snapshot()))
                    .flatten();
                let t = Instant::now();
                let result = if traced {
                    spans.span("core", "ScenarioData::run", || {
                        data.run(root, &policy, &bfs)
                    })
                } else {
                    data.run(root, &policy, &bfs)
                };
                let wall = t.elapsed();
                let io1 = traced
                    .then(|| data.device().map(|d| d.snapshot()))
                    .flatten();
                busy += wall;
                report.attempted += 1;
                let run = match result {
                    Ok(run) => run,
                    Err(e) => {
                        report.failed += 1;
                        report.problem(format!("search from {root} failed: {e}"));
                        continue;
                    }
                };
                if digest(&run.parent) != want[i] {
                    report.failed += 1;
                    report.problem(format!("search from {root} differs from reference_bfs"));
                }
                if k == 0 {
                    add_exact(&mut exact, &run);
                }
                all.0 += wall;
                all.1 += run.teps_edges;
                if traced {
                    if twin {
                        traced_wall += wall;
                    }
                    add_layers(&mut sums, &run, wall, io0.zip(io1));
                } else {
                    if cfg.trace {
                        twins += wall;
                    }
                    untraced.0 += wall;
                    untraced.1 += 1;
                    samples_ms.push(ms(wall));
                }
                // Validate each root's first tree at once, outside the
                // window, so that no tree outlives its search.
                if pass == 0 && k == 0 {
                    let t = Instant::now();
                    let result = spans.span("graph500", "validate_bfs_tree", || {
                        validate_bfs_tree(&run.parent, root, &edges)
                    });
                    validate_ms.push(ms(t.elapsed()));
                    if let Err(e) = result {
                        report.failed += 1;
                        report.problem(format!("tree from {root} failed validation: {e:?}"));
                    }
                }
            }
        }
        passes.push(exact);
        pass += 1;
    }

    // Exact counters: every whole pass must repeat the first.
    let first = passes[0];
    if passes.iter().any(|e| *e != first) {
        report.notes.push(format!(
            "note: exact counters varied between passes: {passes:?}"
        ));
    }
    report.exact = Some(first);
    guard_activity(&first, report);

    let mteps = all.1 as f64 / all.0.as_secs_f64().max(1e-9) / 1e6;
    let validate_s = validate_ms.iter().sum::<f64>() / 1e3;
    let e2e = &mut report.end_to_end;
    e2e.insert(
        "ops_per_s",
        untraced.1 as f64 / untraced.0.as_secs_f64().max(1e-9),
    );
    e2e.insert("op_ms_p50", median(&samples_ms));
    e2e.insert("op_ms_tail", tail(&samples_ms).1);
    e2e.insert("setup_s", median(&setup.total));
    layout_sizes(report, &data);
    report.notes.push(format!(
        "window: {} searches ({} whole passes of {} roots), search ms p50 {:.3} p{:.1} {:.3} max {:.3}",
        samples_ms.len(),
        pass,
        roots.len(),
        median(&samples_ms),
        100.0 * tail(&samples_ms).0,
        tail(&samples_ms).1,
        percentile(&samples_ms, 1.0),
    ));
    if !cfg.trace {
        report.notes.push(format!(
            "graph500: {mteps:.2} MTEPS (traversed edges / search wall), validate {validate_s:.3} s"
        ));
        return Ok(());
    }

    let l = &mut report.per_layer;
    let n = sums.searches.max(1) as f64;
    l.insert("graph500.generate_s", median(&setup.generate));
    l.insert("graph500.validate_s", validate_s);
    l.insert("graph500.validate_ms_p50", median(&validate_ms));
    l.insert("graph500.mteps", mteps);
    l.insert("csr.build_s", median(&setup.build));
    l.insert("semext.offload_s", median(&setup.offload));
    let io = &sums.io;
    l.insert("semext.device_requests", io.requests as f64 / n);
    l.insert("semext.device_mib", io.bytes as f64 / MIB / n);
    l.insert("semext.device_busy_ms", io.service_ns as f64 / 1e6 / n);
    l.insert("semext.device_wait_ms", io.response_ns as f64 / 1e6 / n);
    l.insert("semext.device_wall_ms", sums.io_wall_ns as f64 / 1e6 / n);
    if io.response_ns > 0 {
        l.insert(
            "semext.overlap",
            1.0 - sums.io_wall_ns as f64 / io.response_ns as f64,
        );
    }
    if sums.io_wall_ns > 0 {
        l.insert(
            "semext.avgqu_sz",
            io.response_ns as f64 / sums.io_wall_ns as f64,
        );
    }
    if io.requests > 0 {
        l.insert(
            "semext.avgrq_kib",
            io.bytes as f64 / io.requests as f64 / 1024.0,
        );
    }
    if first.nvm_edges > 0 {
        l.insert(
            "semext.bytes_per_nvm_edge",
            first.device_bytes as f64 / first.nvm_edges as f64,
        );
    }
    l.insert("semext.retries", retries(&data));
    let r = roots.len() as f64;
    l.insert("core.scanned_edges", first.scanned_edges as f64 / r);
    l.insert("core.nvm_edges", first.nvm_edges as f64 / r);
    l.insert(
        "core.nvm_edge_frac",
        first.nvm_edges as f64 / first.scanned_edges.max(1) as f64,
    );
    l.insert("core.levels_td", first.levels_td as f64 / r);
    l.insert("core.levels_bu", first.levels_bu as f64 / r);
    l.insert("core.td_ms", ms(sums.td) / n);
    l.insert("core.bu_ms", ms(sums.bu) / n);
    l.insert("core.outside_levels_ms", ms(sums.outside) / n);
    if sums.bu_scanned > 0 {
        l.insert(
            "core.bu_yield",
            sums.bu_discovered as f64 / sums.bu_scanned as f64,
        );
    }
    let overhead = if untraced.1 > 0 && traced_wall > Duration::ZERO {
        100.0 * (traced_wall.as_secs_f64() / untraced.0.as_secs_f64() - 1.0)
    } else {
        0.0
    };
    trace_summary(report, &spans, run_start.elapsed(), twins, overhead);
    Ok(())
}

fn add_exact(exact: &mut ExactCounters, run: &BfsRun) {
    for l in &run.levels {
        exact.scanned_edges += l.scanned_edges;
        exact.nvm_edges += l.nvm_edges;
        match l.direction {
            Direction::TopDown => exact.levels_td += 1,
            Direction::BottomUp => exact.levels_bu += 1,
        }
        if let Some(io) = &l.io {
            exact.device_requests += io.requests;
            exact.device_bytes += io.bytes;
        }
    }
}

fn add_layers(
    sums: &mut LayerSums,
    run: &BfsRun,
    wall: Duration,
    io: Option<(IoSnapshot, IoSnapshot)>,
) {
    sums.searches += 1;
    let mut in_levels = Duration::ZERO;
    for l in &run.levels {
        in_levels += l.elapsed;
        match l.direction {
            Direction::TopDown => sums.td += l.elapsed,
            Direction::BottomUp => {
                sums.bu += l.elapsed;
                sums.bu_scanned += l.scanned_edges;
                sums.bu_discovered += l.discovered;
            }
        }
    }
    sums.outside += wall.saturating_sub(in_levels);
    if let Some((before, after)) = io {
        let d = after.delta(&before);
        sums.io.requests += d.requests;
        sums.io.bytes += d.bytes;
        sums.io.service_ns += d.service_ns;
        sums.io.response_ns += d.response_ns;
        sums.io_wall_ns += d.wall_ns();
    }
}

/// The workload must exercise the storage layer it was chosen for.
fn guard_activity(exact: &ExactCounters, report: &mut Report) {
    if exact.device_bytes == 0 {
        report.problem("g500-flash-offload read nothing from the device".into());
    }
    if 2 * exact.nvm_edges <= exact.scanned_edges {
        report.problem(format!(
            "g500-flash-offload: only {} of {} scanned edges came from the device",
            exact.nvm_edges, exact.scanned_edges
        ));
    }
}
