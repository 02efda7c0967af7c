//! The sembfs benchmark: Graph500 searches on the NVM-offloaded layout and
//! point queries against a starved page cache, each checked for
//! correctness and attributed to the workspace's layers.
//!
//! Layers are named after the crates whose public functions the benchmark
//! calls: `graph500` (generator, validator), `csr` (graph build), `semext`
//! (device model, offloaded files, page cache), `core` (scenario layout
//! and the hybrid BFS) and `query` (the point-query engine).

pub mod g500;
pub mod inputs;
pub mod query;
pub mod util;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use sembfs_core::{AccessPath, Scenario, ScenarioData, ScenarioOptions};
use sembfs_csr::{build_csr, BuildOptions};
use sembfs_graph500::{KroneckerParams, MemEdgeList};
use sembfs_numa::Topology;
use sembfs_semext::{DelayMode, DeviceProfile};

use util::Spans;

/// The benchmark's named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Graph500 pipeline, forward graph and backward tail on the flash model.
    G500FlashOffload,
    /// Closed-loop point queries over a page cache of a quarter of the
    /// offloaded forward graph.
    QueryFlashStarved,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 2] = [Workload::G500FlashOffload, Workload::QueryFlashStarved];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::G500FlashOffload => "g500-flash-offload",
            Workload::QueryFlashStarved => "query-flash-starved",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How large the generated inputs are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark reports.
    Full,
    /// Tiny inputs for the benchmark's own tests.
    Smoke,
}

/// Everything one run depends on; nothing is read from the environment.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Record spans and layer counters (per-layer metrics) instead of
    /// reporting end-to-end metrics.
    pub trace: bool,
    /// Input size.
    pub size: Size,
    /// Worker threads for the BFS kernels and query workers (and clients).
    pub threads: usize,
    /// Directory for the offloaded "NVM" files; removed when the run ends.
    pub data_dir: PathBuf,
}

/// End-to-end metrics: every workload reports each of them.
pub const END_TO_END: [(&str, &str); 4] = [
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("setup_s", "s"),
];

/// Per-layer metrics reported by a traced run: name, unit, better.
/// A layer a workload does not use reports 0.
pub const PER_LAYER: [(&str, &str, &str); 49] = [
    ("graph500.generate_s", "s", "lower"),
    ("graph500.validate_s", "s", "lower"),
    ("graph500.validate_ms_p50", "ms", "lower"),
    ("graph500.mteps", "MTEPS", "higher"),
    ("csr.build_s", "s", "lower"),
    ("semext.offload_s", "s", "lower"),
    ("semext.dram_mib", "MiB", "lower"),
    ("semext.nvm_mib", "MiB", "higher"),
    ("semext.device_requests", "req/op", "lower"),
    ("semext.device_mib", "MiB/op", "lower"),
    ("semext.device_busy_ms", "ms/op", "lower"),
    ("semext.device_wait_ms", "ms/op", "lower"),
    ("semext.device_wall_ms", "ms/op", "lower"),
    ("semext.overlap", "frac", "higher"),
    ("semext.avgrq_kib", "KiB", "higher"),
    ("semext.avgqu_sz", "req", "higher"),
    ("semext.bytes_per_nvm_edge", "B", "lower"),
    ("semext.retries", "count", "lower"),
    ("cache.hit_rate", "frac", "higher"),
    ("cache.misses", "1/op", "lower"),
    ("cache.evictions", "1/op", "lower"),
    ("core.scanned_edges", "edges/op", "lower"),
    ("core.nvm_edges", "edges/op", "lower"),
    ("core.nvm_edge_frac", "frac", "lower"),
    ("core.td_ms", "ms/op", "lower"),
    ("core.bu_ms", "ms/op", "lower"),
    ("core.bu_yield", "frac", "higher"),
    ("core.levels_td", "1/op", "lower"),
    ("core.levels_bu", "1/op", "higher"),
    ("core.outside_levels_ms", "ms/op", "lower"),
    ("query.path_ms_p50", "ms", "lower"),
    ("query.path_ms_p99", "ms", "lower"),
    ("query.reachable_ms_p50", "ms", "lower"),
    ("query.reachable_ms_p99", "ms", "lower"),
    ("query.neighborhood_ms_p50", "ms", "lower"),
    ("query.neighborhood_ms_p99", "ms", "lower"),
    ("query.result_cache_hits", "1/op", "higher"),
    ("query.overloaded", "count", "lower"),
    ("query.nvm_kib_per_query", "KiB", "lower"),
    ("trace.run_wall_s", "s", "lower"),
    ("trace.graph500_self_s", "s", "lower"),
    ("trace.csr_self_s", "s", "lower"),
    ("trace.semext_self_s", "s", "lower"),
    ("trace.core_self_s", "s", "lower"),
    ("trace.query_self_s", "s", "lower"),
    ("trace.residual_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("process.peak_rss_mib", "MiB", "lower"),
];

/// Work counters that must repeat exactly between runs of one seed,
/// summed over one pass of the search workload's root set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExactCounters {
    /// Edges the BFS kernels examined.
    pub scanned_edges: u64,
    /// Of those, edges read from the device.
    pub nvm_edges: u64,
    /// Top-down levels.
    pub levels_td: u64,
    /// Bottom-up levels.
    pub levels_bu: u64,
    /// Device requests.
    pub device_requests: u64,
    /// Device bytes.
    pub device_bytes: u64,
}

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (searches or queries).
    pub attempted: u64,
    /// Operations that failed, were refused or gave a wrong answer.
    pub failed: u64,
    /// Violated checks: activity guards, fingerprints, validation.
    pub problems: Vec<String>,
    /// End-to-end metrics by name.
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer metrics by name (traced runs).
    pub per_layer: BTreeMap<&'static str, f64>,
    /// Exact counters of one root-set pass (search workload).
    pub exact: Option<ExactCounters>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Whether every answer and every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }

    /// Record a violated check.
    pub fn problem(&mut self, msg: String) {
        self.problems.push(msg);
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and the
    /// metrics the mode reports, in declaration order.
    pub fn json(&self, trace: bool) -> String {
        let mut metrics = Vec::new();
        if trace {
            for (name, unit, _) in PER_LAYER {
                let v = self.per_layer.get(name).copied().unwrap_or(0.0);
                metrics.push(metric_json(name, v, unit));
            }
        } else {
            for (name, unit) in END_TO_END {
                let v = self.end_to_end.get(name).copied().unwrap_or(0.0);
                metrics.push(metric_json(name, v, unit));
            }
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Metrics that must be finite and, for end-to-end ones, positive.
    pub fn check_metrics(&mut self, trace: bool) {
        let bad: Vec<String> = if trace {
            PER_LAYER
                .iter()
                .filter(|(n, _, _)| !self.per_layer.get(n).copied().unwrap_or(0.0).is_finite())
                .map(|(n, _, _)| n.to_string())
                .collect()
        } else {
            END_TO_END
                .iter()
                .filter(|(n, _)| {
                    let v = self.end_to_end.get(n).copied().unwrap_or(f64::NAN);
                    !(v.is_finite() && v > 0.0)
                })
                .map(|(n, _)| n.to_string())
                .collect()
        };
        for name in bad {
            self.problem(format!("metric {name} is missing or not a positive number"));
        }
    }
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    // Non-finite values are reported as problems; keep the line valid JSON.
    let value = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

/// Scenario options with every knob pinned. `page_cache_bytes` and
/// `backward_offload_k` are the only ones the workloads vary.
pub fn pinned_options(
    data_dir: &Path,
    page_cache_bytes: Option<u64>,
    backward_offload_k: Option<u64>,
) -> ScenarioOptions {
    ScenarioOptions {
        topology: Topology::new(4, 1),
        delay_mode: DelayMode::Throttled,
        device_scale: DEVICE_SCALE,
        dram_index: false,
        backward_offload_k,
        device_profile_override: Some(DeviceProfile::iodrive2()),
        access_path: AccessPath::Pread,
        page_cache_bytes,
        cache_shards: Some(8),
        cache_readahead_pages: 0,
        data_dir: Some(data_dir.to_path_buf()),
        sort_neighbors: true,
        fault_plan: None,
        verify_pages: true,
    }
}

/// Factor applied to the device model's timings (1 = the calibrated
/// ioDrive2).
pub const DEVICE_SCALE: f64 = 1.0;

/// Set-up times of a run, one entry per set-up, in seconds.
#[derive(Debug, Default)]
pub struct SetupTimes {
    /// Whole set-up: generate, build, layout and `finish`.
    pub total: Vec<f64>,
    /// `KroneckerParams::generate`.
    pub generate: Vec<f64>,
    /// `build_csr`.
    pub build: Vec<f64>,
    /// `ScenarioData::from_csr` (offload and checksum sealing).
    pub offload: Vec<f64>,
}

/// Set a workload up `reps` times and keep the last: generate the
/// SCALE-`scale` Kronecker graph, build its sorted CSR, lay it out with
/// `layout(dir)`, then `finish` the layout (inside the timed set-up).
/// Returns the edge list, the finished layout, the edge digest and the
/// times. Each set-up gets its own data directory, removed when the next
/// one starts.
pub fn set_up<T>(
    reps: usize,
    scale: u32,
    cfg: &RunConfig,
    spans: &mut Spans,
    report: &mut Report,
    layout: impl Fn(&Path) -> (Scenario, ScenarioOptions),
    mut finish: impl FnMut(ScenarioData, &mut Spans) -> Result<T, String>,
) -> Result<(MemEdgeList, T, u64, SetupTimes), String> {
    let mut times = SetupTimes::default();
    let mut last: Option<(MemEdgeList, T)> = None;
    let mut edges_digest: Option<u64> = None;
    for i in 0..reps {
        if last.take().is_some() {
            let _ = std::fs::remove_dir_all(cfg.data_dir.join(format!("setup-{}", i - 1)));
        }
        let (scenario, opts) = layout(&cfg.data_dir.join(format!("setup-{i}")));
        let t0 = Instant::now();
        let edges = spans.span("graph500", "KroneckerParams::generate", || {
            KroneckerParams::graph500(scale, cfg.seed).generate()
        });
        let t1 = Instant::now();
        let csr = spans
            .span("csr", "build_csr", || {
                build_csr(
                    &edges,
                    BuildOptions {
                        drop_self_loops: false,
                        sort_neighbors: true,
                        chunk_edges: 1 << 16,
                    },
                )
            })
            .map_err(|e| format!("build_csr: {e}"))?;
        let t2 = Instant::now();
        let data = spans
            .span("semext", "ScenarioData::from_csr", || {
                ScenarioData::from_csr(csr, scenario, opts)
            })
            .map_err(|e| format!("ScenarioData::from_csr: {e}"))?;
        let t3 = Instant::now();
        let done = finish(data, spans)?;
        let t4 = Instant::now();
        times.total.push((t4 - t0).as_secs_f64());
        times.generate.push((t1 - t0).as_secs_f64());
        times.build.push((t2 - t1).as_secs_f64());
        times.offload.push((t3 - t2).as_secs_f64());
        let digest = inputs::edge_digest(&edges);
        if edges_digest.is_some_and(|prev| prev != digest) {
            report.problem("the generator gave different edges for one seed".into());
        }
        edges_digest = Some(digest);
        last = Some((edges, done));
    }
    let ((edges, done), digest) = last.zip(edges_digest).ok_or("no set-up ran")?;
    Ok((edges, done, digest, times))
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}

/// Host facts recorded with each result.
pub fn host_facts(threads: usize) -> String {
    let l3 = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let mem = std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|m| {
            m.lines()
                .find_map(|l| l.strip_prefix("MemTotal:"))
                .map(|v| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "host: nproc={} threads={threads} l3={l3} mem={mem} device=iodrive2 device_scale={DEVICE_SCALE}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    )
}

/// Environment variables the measured crates would read. A run refuses
/// to start while any is set, so no hidden process state shapes a result.
pub fn hidden_knobs() -> Vec<String> {
    std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("SEMBFS_") || k == "RAYON_NUM_THREADS")
        .collect()
}

/// DRAM and NVM footprints of the offloaded layout (Table II), from its
/// byte accessors: the backward graph's head and the BFS status data in
/// DRAM, the forward graph and the backward tail on the device.
pub fn layout_sizes(report: &mut Report, data: &ScenarioData) {
    let dram = data.backward_dram_bytes() + data.status_bytes();
    let l = &mut report.per_layer;
    l.insert("semext.dram_mib", dram as f64 / MIB);
    l.insert("semext.nvm_mib", data.nvm_bytes() as f64 / MIB);
}

/// Backoff retries of the device's read path (0 without a fault plan).
pub fn retries(data: &ScenarioData) -> f64 {
    data.device()
        .and_then(|d| d.faults().map(|f| f.snapshot().retries))
        .unwrap_or(0) as f64
}

/// Per-layer self times, the residual against the run's wall, and the
/// tracing overhead. `untraced` is time spent in the program outside
/// every span: the untraced comparison calls.
pub fn trace_summary(
    report: &mut Report,
    spans: &Spans,
    run_wall: Duration,
    untraced: Duration,
    overhead_pct: f64,
) {
    let l = &mut report.per_layer;
    l.insert("trace.run_wall_s", run_wall.as_secs_f64());
    for (layer, busy) in spans.layer_busy() {
        let key = match layer {
            "graph500" => "trace.graph500_self_s",
            "csr" => "trace.csr_self_s",
            "semext" => "trace.semext_self_s",
            "core" => "trace.core_self_s",
            "query" => "trace.query_self_s",
            _ => continue,
        };
        l.insert(key, busy.as_secs_f64());
        report.notes.push(format!(
            "span self time: {layer:<9} {:>9.3} s",
            busy.as_secs_f64()
        ));
    }
    let residual = run_wall.saturating_sub(spans.covered() + untraced);
    l.insert("trace.residual_s", residual.as_secs_f64());
    l.insert("trace.spans", spans.len() as f64);
    l.insert("trace.overhead_pct", overhead_pct);
    if !untraced.is_zero() {
        report.notes.push(format!(
            "span self time: untraced  {:>9.3} s (comparison calls)",
            untraced.as_secs_f64()
        ));
    }
    report.notes.push(format!(
        "span self time: residual  {:>9.3} s of {:.3} s run wall (outside every span: the benchmark's own reference answers and checks, warm-up, untraced queries)",
        residual.as_secs_f64(),
        run_wall.as_secs_f64()
    ));
    report.notes.push(format!(
        "tracing overhead: {overhead_pct:+.2} % on the traced operations against the untraced ones"
    ));
}

/// Bytes in a MiB.
pub const MIB: f64 = (1u64 << 20) as f64;

/// Run one workload.
pub fn run(workload: Workload, cfg: &RunConfig) -> Report {
    let mut report = match workload {
        Workload::G500FlashOffload => g500::run(cfg),
        Workload::QueryFlashStarved => query::run(cfg),
    };
    report
        .per_layer
        .entry("process.peak_rss_mib")
        .or_insert_with(peak_rss_mib);
    report.check_metrics(cfg.trace);
    report
}
