//! Unified observability for the sembfs workspace.
//!
//! The paper's evaluation (§VI) is an observability exercise — per-level
//! direction and edge counts, `iostat`-style `avgqu-sz`/`avgrq-sz`, cache
//! behaviour — and this crate gives every layer one shared vocabulary for
//! producing those figures:
//!
//! * [`tracer`] — a process-global span/event tracer. Emission is
//!   ring-buffered per thread (no locks shared between emitting threads),
//!   every timestamp is nanoseconds on one monotonic epoch that can be
//!   aligned with the simulated [`Device`]'s clock, and the disabled path
//!   costs exactly one relaxed [`AtomicBool`] load.
//! * [`histogram`] — the log-bucket latency histogram (formerly private to
//!   `sembfs-query`), shared by the query engine and the metrics registry.
//! * [`registry`] — a [`MetricsRegistry`] of named counters, gauges and
//!   histograms, plus pull-style [`MetricSource`]s that adapt the existing
//!   `IoStats`/`CacheSnapshot`/`DomainCounters`/`QueryStats` islands into
//!   one Prometheus-text exposition.
//! * [`sink`] — JSONL trace export/import and a Chrome `trace_event`
//!   converter for flame-style inspection (`chrome://tracing`, Perfetto).
//! * [`report`] — reconstructs per-run, per-level tables (direction,
//!   frontier, Medges/s, NVM MiB, cache hit rate, avgqu-sz) from a trace
//!   alone; this backs the `sembfs report` subcommand.
//!
//! `Device` here means `sembfs_semext::Device`; this crate is a leaf (std
//! only) so every other crate can depend on it.
//!
//! [`AtomicBool`]: std::sync::atomic::AtomicBool
//! [`Device`]: tracer::Tracer::set_epoch
//! [`MetricsRegistry`]: registry::MetricsRegistry
//! [`MetricSource`]: registry::MetricSource

pub mod histogram;
pub mod json;
pub mod registry;
pub mod report;
pub mod sink;
pub mod tracer;

pub use histogram::{HistogramSnapshot, LatencyHistogram, BUCKETS};
pub use json::Json;
pub use registry::{Counter, Gauge, Metric, MetricSource, MetricValue, MetricsRegistry};
pub use report::{build_reports, render_reports, LevelRow, RunReport, SwitchRow};
pub use sink::{chrome_trace, parse_jsonl, read_jsonl, sample_json, write_jsonl};
pub use tracer::{global, Dir, FaultKind, QueryKind, Sample, TraceEvent, Tracer};
