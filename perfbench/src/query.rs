//! The point-query workload: a closed loop of clients, each waiting for
//! its reply with zero think time, against a `QueryEngine` over the flash
//! layout whose page cache holds a quarter of the offloaded forward graph.
//!
//! The query stream is generated before timing and consumed in order by
//! the clients. Latency is each client's own clock from `submit` to the
//! reply. Every answer is checked after the window against levels from a
//! plain BFS over the CSR.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sembfs_core::{Scenario, ScenarioData};
use sembfs_csr::CsrGraph;
use sembfs_graph500::VertexId;
use sembfs_query::{EngineConfig, Query, QueryEngine, QueryError, QueryResult};
use sembfs_semext::{CacheSnapshot, IoSnapshot};

use crate::inputs::{self, Zipf};
use crate::util::{median, ms, percentile, tail, Span, Spans};
use crate::{
    layout_sizes, pinned_options, retries, set_up, trace_summary, Report, RunConfig, Size,
    Workload, MIB,
};

/// Sizes of the query workload.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Graph500 SCALE of the served graph.
    pub scale: u32,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Highest-degree vertices the endpoints are drawn from.
    pub support: usize,
    /// Queries served before the window to fill the caches.
    pub warmup: usize,
    /// Queries generated per second of window: well above the rate the
    /// engine sustains, so the window, not the stream, ends the run.
    pub stream_per_s: f64,
}

/// The sizes at `size`.
pub fn params(size: Size) -> Params {
    match size {
        Size::Full => Params {
            scale: 16,
            setups: 5,
            support: 4096,
            warmup: 200,
            stream_per_s: 1000.0,
        },
        Size::Smoke => Params {
            scale: 11,
            setups: 2,
            support: 256,
            warmup: 20,
            stream_per_s: 20000.0,
        },
    }
}

/// Result-cache entries of the engine.
const RESULT_CACHE: usize = 1024;

/// One answered (or failed) query.
struct Sample {
    idx: usize,
    latency: Duration,
    outcome: Result<(QueryResult, bool), QueryError>,
    traced: bool,
}

/// Run the query workload.
pub fn run(cfg: &RunConfig) -> Report {
    let mut report = Report::default();
    if let Err(e) = run_inner(cfg, &mut report) {
        report.problem(e);
    }
    report
}

fn run_inner(cfg: &RunConfig, report: &mut Report) -> Result<(), String> {
    let p = params(cfg.size);
    let name = Workload::QueryFlashStarved.name();
    let run_start = Instant::now();
    let mut spans = Spans::new(cfg.trace);
    let clients = cfg.threads;

    // One page to start with; re-budgeted once the offloaded forward
    // graph's size is known.
    let layout = |dir: &std::path::Path| {
        (
            Scenario::DramPcieFlash,
            pinned_options(dir, Some(4096), None),
        )
    };
    let start_engine = |data: ScenarioData, spans: &mut Spans| {
        if let Some(cache) = data.page_cache() {
            cache.set_capacity_bytes(data.forward_bytes() / 4);
        }
        let data = Arc::new(data);
        let engine = spans.span("query", "QueryEngine::new", || {
            QueryEngine::new(
                data.clone(),
                EngineConfig {
                    workers: cfg.threads,
                    // Each client has one query outstanding, so a queue
                    // this long never refuses one.
                    queue_capacity: 4 * clients,
                    result_cache_entries: RESULT_CACHE,
                },
            )
        });
        Ok((data, engine))
    };
    let (_, (data, engine), edges_digest, setup) = set_up(
        p.setups,
        p.scale,
        cfg,
        &mut spans,
        report,
        layout,
        start_engine,
    )?;
    let (Some(cache), Some(device)) = (data.page_cache(), data.device()) else {
        return Err("the query layout has no page cache or no device".into());
    };

    // The whole stream, warm-up first, before anything is timed.
    let zipf = Zipf::by_degree(data.csr(), p.support);
    let count = (p.warmup + (cfg.seconds * p.stream_per_s).ceil() as usize)
        .max(inputs::QUERY_FINGERPRINT_PREFIX);
    let stream = inputs::queries(&zipf, count, cfg.seed);
    let stream_digest = inputs::queries_digest(&stream[..inputs::QUERY_FINGERPRINT_PREFIX]);
    report.notes.push(format!(
        "inputs: {name} scale={} queries={count} edges={edges_digest:016x} queries={stream_digest:016x}",
        p.scale
    ));
    for problem in inputs::check_fingerprints(
        name,
        cfg.seed,
        cfg.size == Size::Full,
        edges_digest,
        stream_digest,
    ) {
        report.problem(problem);
    }

    let origin = spans.origin();
    let (warm, _, _) = drive(&engine, &stream, 0..p.warmup, None, false, clients, origin);
    let cache0 = cache.snapshot();
    let io0 = device.snapshot();
    let (samples, client_spans, wall) = drive(
        &engine,
        &stream,
        p.warmup..stream.len(),
        Some(Duration::from_secs_f64(cfg.seconds)),
        cfg.trace,
        clients,
        origin,
    );
    let cache_d: CacheSnapshot = cache.snapshot().delta(&cache0);
    let io_d: IoSnapshot = device.snapshot().delta(&io0);
    spans.extend(client_spans);
    if samples.len() + p.warmup >= stream.len() {
        report.problem("the query stream ran out before the window ended".into());
    }

    // The footprint before the checks, whose reference levels are the
    // benchmark's own memory.
    report
        .per_layer
        .insert("process.peak_rss_mib", crate::peak_rss_mib());

    // Check every answer.
    let checked = warm.iter().chain(&samples);
    let mut reference = Reference::new(data.csr(), checked.clone().map(|s| stream[s.idx]));
    for s in checked {
        report.attempted += 1;
        let verdict = match &s.outcome {
            Ok((result, _)) => reference.check(&stream[s.idx], result),
            Err(e) => Err(format!("query failed: {e}")),
        };
        if let Err(e) = verdict {
            report.failed += 1;
            if report.failed <= 5 {
                report.problem(format!("query {} {:?}: {e}", s.idx, stream[s.idx]));
            }
        }
    }
    if cache_d.misses == 0 {
        report.problem("query-flash-starved: no page-cache misses in the window".into());
    }

    let all_ms: Vec<f64> = samples.iter().map(|s| ms(s.latency)).collect();
    let done = samples.iter().filter(|s| s.outcome.is_ok()).count() as f64;
    let e2e = &mut report.end_to_end;
    e2e.insert("ops_per_s", done / wall.as_secs_f64().max(1e-9));
    e2e.insert("op_ms_p50", median(&all_ms));
    e2e.insert("op_ms_tail", tail(&all_ms).1);
    e2e.insert("setup_s", median(&setup.total));
    layout_sizes(report, &data);
    report.notes.push(format!(
        "window: {} queries from {clients} clients in {:.3} s, {:.1} QPS, ms p50 {:.3} p99 {:.3}, page-cache hit rate {:.3}",
        samples.len(),
        wall.as_secs_f64(),
        done / wall.as_secs_f64().max(1e-9),
        median(&all_ms),
        percentile(&all_ms, 0.99),
        cache_d.hit_rate()
    ));
    if !cfg.trace {
        return Ok(());
    }

    let n = done.max(1.0);
    let l = &mut report.per_layer;
    l.insert("graph500.generate_s", median(&setup.generate));
    l.insert("csr.build_s", median(&setup.build));
    l.insert("semext.offload_s", median(&setup.offload));
    l.insert("semext.device_requests", io_d.requests as f64 / n);
    l.insert("semext.device_mib", io_d.bytes as f64 / MIB / n);
    l.insert("semext.device_busy_ms", io_d.service_ns as f64 / 1e6 / n);
    l.insert("semext.device_wait_ms", io_d.response_ns as f64 / 1e6 / n);
    l.insert("semext.device_wall_ms", io_d.wall_ns() as f64 / 1e6 / n);
    if io_d.response_ns > 0 {
        l.insert(
            "semext.overlap",
            1.0 - io_d.wall_ns() as f64 / io_d.response_ns as f64,
        );
    }
    l.insert("semext.avgqu_sz", io_d.avgqu_sz());
    if io_d.requests > 0 {
        l.insert(
            "semext.avgrq_kib",
            io_d.bytes as f64 / io_d.requests as f64 / 1024.0,
        );
    }
    l.insert("semext.retries", retries(&data));
    l.insert("cache.hit_rate", cache_d.hit_rate());
    l.insert("cache.misses", cache_d.misses as f64 / n);
    l.insert("cache.evictions", cache_d.evictions as f64 / n);
    for (kind, p50, p99) in [
        ("path", "query.path_ms_p50", "query.path_ms_p99"),
        (
            "reachable",
            "query.reachable_ms_p50",
            "query.reachable_ms_p99",
        ),
        (
            "neighborhood",
            "query.neighborhood_ms_p50",
            "query.neighborhood_ms_p99",
        ),
    ] {
        let of_kind: Vec<f64> = samples
            .iter()
            .filter(|s| stream[s.idx].kind() == kind)
            .map(|s| ms(s.latency))
            .collect();
        l.insert(p50, median(&of_kind));
        l.insert(p99, percentile(&of_kind, 0.99));
    }
    let cached = samples
        .iter()
        .filter(|s| matches!(s.outcome, Ok((_, true))))
        .count();
    l.insert("query.result_cache_hits", cached as f64 / n);
    let refused = samples
        .iter()
        .filter(|s| matches!(s.outcome, Err(QueryError::Overloaded { .. })))
        .count();
    l.insert("query.overloaded", refused as f64);
    l.insert("query.nvm_kib_per_query", io_d.bytes as f64 / 1024.0 / n);

    // Traced and untraced queries interleave; compare their medians.
    let median_of = |traced: bool| {
        let v: Vec<f64> = samples
            .iter()
            .filter(|s| s.traced == traced)
            .map(|s| ms(s.latency))
            .collect();
        median(&v)
    };
    let untraced = median_of(false);
    let overhead = if untraced > 0.0 {
        100.0 * (median_of(true) / untraced - 1.0)
    } else {
        0.0
    };
    trace_summary(
        report,
        &spans,
        run_start.elapsed(),
        Duration::ZERO,
        overhead,
    );
    Ok(())
}

/// Serve `stream[range]` from `clients` closed-loop clients until the
/// range or the window (if any) is used up. Returns the samples, the
/// spans of the traced queries (every second one when `trace`) and the
/// wall time from the first submit to the last reply.
fn drive(
    engine: &QueryEngine,
    stream: &[Query],
    range: std::ops::Range<usize>,
    window: Option<Duration>,
    trace: bool,
    clients: usize,
    origin: Instant,
) -> (Vec<Sample>, Vec<Span>, Duration) {
    let next = AtomicUsize::new(range.start);
    let start = Instant::now();
    let per_client: Vec<(Vec<Sample>, Vec<Span>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let next = &next;
                let range = &range;
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    let mut spans = Vec::new();
                    loop {
                        if window.is_some_and(|w| start.elapsed() >= w) {
                            break;
                        }
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        if idx >= range.end {
                            break;
                        }
                        let traced = trace && idx.is_multiple_of(2);
                        let t0 = Instant::now();
                        let submitted = engine.submit(stream[idx]);
                        let t1 = Instant::now();
                        let outcome = submitted
                            .and_then(|ticket| ticket.wait())
                            .map(|r| (r.result, r.cached));
                        let t2 = Instant::now();
                        if traced {
                            spans.push(Span {
                                layer: "query",
                                name: "QueryEngine::submit",
                                start: t0 - origin,
                                end: t1 - origin,
                            });
                            spans.push(Span {
                                layer: "query",
                                name: "QueryTicket::wait",
                                start: t1 - origin,
                                end: t2 - origin,
                            });
                        }
                        samples.push(Sample {
                            idx,
                            latency: t2 - t0,
                            outcome,
                            traced,
                        });
                    }
                    (samples, spans)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("query client panicked"))
            .collect()
    });
    let wall = start.elapsed();
    let mut samples = Vec::new();
    let mut spans = Vec::new();
    for (s, sp) in per_client {
        samples.extend(s);
        spans.extend(sp);
    }
    samples.sort_by_key(|s| s.idx);
    (samples, spans, wall)
}

/// Reference answers from plain BFS levels over the CSR. Levels are kept
/// per source, one byte per vertex, for up to `KEEP` sources; a pair
/// query uses whichever end already has them, else the end that occurs
/// more often in the stream.
struct Reference<'a> {
    csr: &'a CsrGraph,
    occurrences: HashMap<VertexId, u32>,
    levels: HashMap<VertexId, Vec<u8>>,
}

/// Unreached vertex in a level array.
const UNREACHED: u8 = u8::MAX;

/// Level arrays kept at once (64 KiB each at SCALE 16).
const KEEP: usize = 1024;

impl<'a> Reference<'a> {
    fn new(csr: &'a CsrGraph, queries: impl Iterator<Item = Query>) -> Self {
        let mut occurrences = HashMap::new();
        for q in queries {
            let (a, b) = q.endpoints().unwrap_or((q.max_vertex(), q.max_vertex()));
            *occurrences.entry(a).or_default() += 1;
            *occurrences.entry(b).or_default() += 1;
        }
        Self {
            csr,
            occurrences,
            levels: HashMap::new(),
        }
    }

    /// BFS levels from `v` (`UNREACHED` when unreachable).
    fn levels(&mut self, v: VertexId) -> &[u8] {
        if self.levels.len() >= KEEP && !self.levels.contains_key(&v) {
            self.levels.clear();
        }
        let csr = self.csr;
        self.levels.entry(v).or_insert_with(|| {
            let mut level = vec![UNREACHED; csr.num_vertices() as usize];
            level[v as usize] = 0;
            let mut frontier = vec![v];
            let mut d = 0u8;
            while !frontier.is_empty() {
                d = d
                    .checked_add(1)
                    .filter(|&d| d < UNREACHED)
                    .expect("Kronecker graphs of these sizes have diameters far below 255");
                let mut next = Vec::new();
                for &u in &frontier {
                    for &w in csr.neighbors(u) {
                        if level[w as usize] == UNREACHED {
                            level[w as usize] = d;
                            next.push(w);
                        }
                    }
                }
                frontier = next;
            }
            level
        })
    }

    /// Hop distance between `a` and `b` (the graph is undirected).
    fn distance(&mut self, a: VertexId, b: VertexId) -> Option<u32> {
        let occurs = |v| self.occurrences.get(&v).copied().unwrap_or(0);
        let from_b = !self.levels.contains_key(&a)
            && (self.levels.contains_key(&b) || occurs(b) > occurs(a));
        let d = if from_b {
            self.levels(b)[a as usize]
        } else {
            self.levels(a)[b as usize]
        };
        (d != UNREACHED).then_some(u32::from(d))
    }

    fn check(&mut self, query: &Query, result: &QueryResult) -> Result<(), String> {
        match (*query, result) {
            (Query::ShortestPath { src, dst }, QueryResult::Path { distance, vertices }) => {
                if self.distance(src, dst) != Some(*distance) {
                    return Err(format!("path length {distance} is not the distance"));
                }
                if vertices.len() != *distance as usize + 1
                    || vertices.first() != Some(&src)
                    || vertices.last() != Some(&dst)
                {
                    return Err("path does not join the endpoints".into());
                }
                if let Some(w) = vertices
                    .windows(2)
                    .find(|w| self.csr.neighbors(w[0]).binary_search(&w[1]).is_err())
                {
                    return Err(format!("path step {} -> {} is not an edge", w[0], w[1]));
                }
                Ok(())
            }
            (Query::ShortestPath { src, dst }, QueryResult::NoPath) => {
                match self.distance(src, dst) {
                    None => Ok(()),
                    Some(d) => Err(format!("no path reported, distance is {d}")),
                }
            }
            (Query::Reachable { src, dst }, QueryResult::Reachable(r)) => {
                if self.distance(src, dst).is_some() == *r {
                    Ok(())
                } else {
                    Err(format!("reachability {r} is wrong"))
                }
            }
            (Query::Neighborhood { v, depth }, QueryResult::Neighborhood { counts }) => {
                let mut want = vec![0u64; depth as usize + 1];
                for &l in self.levels(v) {
                    if u32::from(l) <= depth {
                        want[l as usize] += 1;
                    }
                }
                while want.last() == Some(&0) {
                    want.pop();
                }
                if *counts == want {
                    Ok(())
                } else {
                    Err(format!("rings {counts:?}, expected {want:?}"))
                }
            }
            _ => Err(format!("answer of the wrong kind: {result:?}")),
        }
    }
}
