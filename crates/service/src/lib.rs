//! Analysis service: content-addressed incremental cache + parallel
//! batch/daemon query engine.
//!
//! This crate packages the whole analysis pipeline (parse → sema → CFG →
//! MPI-ICFG → governed fixpoint) behind a line-oriented JSONL request
//! protocol, with three layers of content-addressed caching in front of
//! the expensive work:
//!
//! * [`cache`] — key construction ([`cache::source_key`],
//!   [`cache::proc_cfg_key`], [`cache::result_key`]) and the bounded
//!   in-memory LRU layers + optional on-disk result store
//!   ([`cache::ServiceCaches`]).
//! * [`engine`] — the single-request evaluator: resolves a source,
//!   consults the caches (memory → disk → compute), and renders
//!   deterministic JSON responses. [`engine::Engine`] is `Sync` and is
//!   shared across worker threads.
//! * [`sched`] — the deterministic batch scheduler: a `std::thread`
//!   worker pool with a two-phase leader/follower plan so that the
//!   rendered output (including per-response `cache:` labels) is
//!   byte-identical for any pool size.
//! * [`server`] — a `std::net` TCP daemon speaking the same JSONL
//!   protocol, one thread per connection, graceful shutdown via the
//!   `shutdown` request kind, per-request admission control, and
//!   idle/write socket timeouts.
//! * [`admission`] — bounded in-flight ledger + watermark ladder: load
//!   maps onto the governor tiers (T0→T1→T2) deterministically, and
//!   past the cap requests shed with a structured `overloaded` error.
//! * [`proto`] — request parsing/validation and response rendering;
//!   every malformed input maps to a structured error, never a panic.
//! * [`json`] — a minimal hand-rolled JSON parser/renderer (the
//!   workspace is dependency-free by design).
//! * [`chaos`] — the seeded service-layer fault harness: partial I/O,
//!   disconnects, stalls, corrupted cache files, and burst load against
//!   an in-process server, asserting structured-errors-only and
//!   byte-identical successful payloads; extended with cluster
//!   scenarios (worker SIGKILL, restart storms, brownouts) against a
//!   real supervised fleet.
//! * [`supervisor`] — the worker-fleet supervisor behind `mpidfa serve
//!   --shards N`: one OS process per shard, death detection (exit,
//!   `kill -9`, hang via missed health pings) and capped-exponential-
//!   backoff restarts.
//! * [`health`] — dedicated-connection worker health probing (`ping` is
//!   admission-exempt, so a busy worker pongs and only a wedged one
//!   misses).
//! * [`router`] — the consistent-hash request router: forwards raw
//!   lines to the owning shard, retries/hedges idempotent requests
//!   around dead workers, respects shed brownout windows, and degrades
//!   to a structured `overloaded` when out of candidates.
//! * [`slo`] — per-(verb × cache outcome × shard) log-bucketed latency
//!   histograms with exact rank quantiles and an order-independent
//!   cluster merge, rendered into the `metrics` verb output.
//! * [`obs`] — cluster-wide observability: the worker → supervisor
//!   telemetry stream, the span/metrics aggregation hub, the merged
//!   Chrome trace, the JSONL access log, and offline trace
//!   reconstruction (`mpidfa trace <trace-id>`).
//!
//! The wire protocol and cache-key contract are specified in
//! `docs/SERVING.md`; the overload/failure semantics in its
//! "Overload & failure semantics" section and the cluster behavior in
//! its "Cluster topology & failure semantics" section.

#![forbid(unsafe_code)]

pub mod admission;
pub mod cache;
pub mod chaos;
pub mod engine;
pub mod health;
pub mod json;
pub mod obs;
pub mod proto;
pub mod router;
pub mod sched;
pub mod server;
pub mod slo;
pub mod supervisor;

pub use admission::{AdmissionConfig, AdmissionControl, AdmissionSnapshot, Permit};
pub use cache::{routing_key, ServiceCaches, CACHE_SCHEMA_VERSION};
pub use chaos::{run_chaos, run_cluster_chaos, ChaosConfig, ChaosReport, ClusterChaosConfig};
pub use engine::{Engine, EngineConfig};
pub use health::{HealthConfig, HealthMonitor, HealthVerdict};
pub use obs::{AccessRecord, CompletedSpan, SpanPairer, TelemetryHub, TELE_PREFIX};
pub use proto::{
    parse_request, render_err, render_ok, CacheStatus, ProtoError, Request, RequestKind,
};
pub use router::{
    serve_cluster, Cluster, ClusterConfig, HashRing, RouterConfig, RouterHandler, RouterStats,
};
pub use sched::run_batch;
pub use server::{serve, serve_with, EngineLineHandler, LineHandler, Server, ServerConfig};
pub use slo::{SloRegistry, SloSnapshot};
pub use supervisor::{BackoffConfig, ShardSnapshot, ShardTable, Supervisor, WorkerSpec};
