//! The query engine: executes one protocol request against the cached
//! pipeline.
//!
//! Layering per request (all misses fall through, all hits short-circuit):
//!
//! ```text
//! result LRU ── result disk store ── IR LRU ── per-procedure CFG LRU ── lower/solve
//! ```
//!
//! Determinism contract: for any request without a wall-clock budget, the
//! rendered `result` object is a pure function of the request fields and
//! the program text — it contains **no wall-clock measurements**, so a
//! cache hit is byte-identical to a recompute and batch output does not
//! depend on worker-pool size. Requests with `budget_ms` are answered but
//! never cached (`cache: "bypass"`).

use crate::admission::{AdmissionConfig, AdmissionControl};
use crate::cache::{proc_cfg_key, result_key, source_key, ServiceCaches, RESULTS_NAMESPACE};
use crate::json::escape;
use crate::proto::{CacheStatus, ProtoError, Request, RequestKind};
use crate::slo::SloRegistry;
use mpi_dfa_analyses::activity::{self, demand_active_at, ActivityConfig, ActivityResult, Mode};
use mpi_dfa_analyses::governor::{
    governed_activity, governed_activity_delta, AnalysisProvenance, GovernorConfig, Tier,
};
use mpi_dfa_analyses::mpi_match::build_mpi_icfg_with_budget;
use mpi_dfa_core::budget::{Budget, Exhaustion};
use mpi_dfa_core::cache::{CacheSnapshot, DiskStore, FsckReport};
use mpi_dfa_core::graph::NodeId;
use mpi_dfa_core::hash::Hasher128;
use mpi_dfa_core::solver::{SolveParams, Strategy};
use mpi_dfa_core::telemetry;
use mpi_dfa_graph::cfg::ProcCfg;
use mpi_dfa_graph::icfg::{dirty_procs, Icfg, ProgramIr};
use mpi_dfa_graph::loc::LocTable;
use mpi_dfa_suite::experiments::{by_id, ExperimentSpec};
use mpi_dfa_suite::programs;
use mpi_dfa_suite::runner;
use std::cell::OnceCell;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::Arc;
use std::sync::Mutex;

/// Engine construction parameters.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Entry bound per in-memory cache layer; 0 disables in-memory caching.
    pub cache_capacity: usize,
    /// Optional on-disk result store root (`--cache-dir`).
    pub cache_dir: Option<String>,
    /// Admission-control watermarks (see [`crate::admission`]). The engine
    /// only *holds* the control — the server consults it per request; in
    /// batch mode it stays idle (batch is closed-loop and bounded by the
    /// pool size already).
    pub admission: AdmissionConfig,
    /// Shard identity when this engine is one worker of a sharded cluster
    /// (`mpidfa serve --shards N`); surfaced in `cache-stats` so a worker's
    /// answers are attributable through the router. `None` outside a
    /// cluster.
    pub shard_id: Option<u64>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            cache_capacity: 256,
            cache_dir: None,
            admission: AdmissionConfig::default(),
            shard_id: None,
        }
    }
}

/// How many incremental seeds a worker retains (FIFO). Seeds are
/// in-memory only — an `ActivityResult` with its solver regions is cheap
/// to hold but pointless to persist, since an unknown `prev` id simply
/// falls back to a full solve with the identical answer.
const SEED_CAPACITY: usize = 64;

/// One retained seed for `analyze-delta`: the analyzed source text, the
/// analysis-configuration signature it was computed under, and the result
/// whose solutions carry the solver's seed regions.
#[derive(Debug)]
struct SeedEntry {
    source: String,
    sig: u128,
    result: Arc<ActivityResult>,
}

/// Bounded FIFO map from `analyze` request id → seed. Populated by every
/// computed precise T0 `analyze` whose solutions captured seed regions
/// (i.e. a converged region solve); consulted by `analyze-delta`
/// via its `prev` field.
/// FIFO insertion order paired with the id → seed map it bounds.
type SeedEntries = (HashMap<u64, Arc<SeedEntry>>, VecDeque<u64>);

#[derive(Debug, Default)]
struct SeedStore {
    entries: Mutex<SeedEntries>,
}

impl SeedStore {
    fn put(&self, id: u64, entry: SeedEntry) {
        let mut guard = self.entries.lock().unwrap();
        let (map, order) = &mut *guard;
        if map.insert(id, Arc::new(entry)).is_none() {
            order.push_back(id);
        }
        while map.len() > SEED_CAPACITY {
            match order.pop_front() {
                Some(old) => {
                    map.remove(&old);
                }
                None => break,
            }
        }
    }

    fn get(&self, id: u64) -> Option<Arc<SeedEntry>> {
        self.entries.lock().unwrap().0.get(&id).cloned()
    }
}

/// The shared, thread-safe query engine. One instance serves the whole
/// worker pool / all server connections.
#[derive(Debug)]
pub struct Engine {
    caches: ServiceCaches,
    admission: Arc<AdmissionControl>,
    /// The startup integrity pass over the disk store (`None` without
    /// `--cache-dir`), reported by `cache-stats`.
    fsck: Option<FsckReport>,
    /// Cluster shard identity, echoed in `cache-stats` (see
    /// [`EngineConfig::shard_id`]).
    shard_id: Option<u64>,
    /// Per-process latency histograms (verb × cache outcome × shard),
    /// recorded by the serving layer and exposed by the `metrics` verb.
    slo: SloRegistry,
    /// Incremental seeds for `analyze-delta` (see [`SeedStore`]).
    seeds: SeedStore,
}

impl Engine {
    pub fn new(config: EngineConfig) -> Result<Engine, String> {
        let disk = match &config.cache_dir {
            Some(dir) => Some(DiskStore::open(dir).map_err(|e| format!("--cache-dir {dir}: {e}"))?),
            None => None,
        };
        // Crash-only startup: validate every persisted entry before serving
        // from it, so a torn write from a previous crash can never be read.
        let fsck = disk.as_ref().map(DiskStore::fsck);
        Ok(Engine {
            caches: ServiceCaches::new(config.cache_capacity, disk),
            admission: AdmissionControl::new(config.admission),
            fsck,
            shard_id: config.shard_id,
            slo: SloRegistry::new(),
            seeds: SeedStore::default(),
        })
    }

    /// The cache layers (counters are used by tests, benches, and the
    /// telemetry exporters).
    pub fn caches(&self) -> &ServiceCaches {
        &self.caches
    }

    /// The shared admission control (the server's per-request gate).
    pub fn admission(&self) -> &Arc<AdmissionControl> {
        &self.admission
    }

    /// The startup fsck report, when a disk store is configured.
    pub fn fsck_report(&self) -> Option<FsckReport> {
        self.fsck
    }

    /// The request-latency histogram registry. The serving layer records
    /// one sample per answered request; the `metrics` verb reports it.
    pub fn slo(&self) -> &SloRegistry {
        &self.slo
    }

    /// The shard label used for this engine's SLO series (`-` unsharded).
    pub fn shard_label(&self) -> String {
        match self.shard_id {
            Some(id) => id.to_string(),
            None => "-".to_string(),
        }
    }

    /// Process one already-parsed request into a response line.
    pub fn handle(&self, req: &Request) -> String {
        self.handle_with_floor(req, Tier::T0)
    }

    /// [`Engine::handle`] with a load-shedding governor floor (see
    /// [`crate::admission`]): `T1`/`T2` skip the more precise ladder rungs.
    /// Floored requests always **bypass** the result cache — a degraded
    /// answer must never be cached under the precise request's key, and an
    /// already-cached precise answer is still fine to serve (a hit costs no
    /// compute, which is the whole point of shedding).
    pub fn handle_with_floor(&self, req: &Request, floor: Tier) -> String {
        let run = || {
            let mut span = telemetry::span("service", "request");
            span.arg("kind", req.kind.as_str());
            if floor > Tier::T0 {
                span.arg("tier_floor", floor.as_str());
            }
            if let Some(t) = &req.trace {
                if t.attempt > 0 {
                    span.arg("attempt", t.attempt);
                }
            }
            match self.handle_inner(req, floor) {
                Ok((cache, result)) => {
                    span.arg("cache", cache.as_str());
                    crate::proto::render_ok(req.id, req.kind, cache, &result)
                }
                Err(e) => {
                    span.arg("error", e.code);
                    crate::proto::render_err(req.id, &e)
                }
            }
        };
        // Seed the distributed trace context only when the request carries
        // one — wrapping with `None` would clear a context installed by an
        // outer layer (e.g. the router handling this in-process).
        match &req.trace {
            Some(t) => telemetry::with_trace(
                Some(telemetry::TraceContext {
                    trace_id: t.id,
                    parent_span: t.parent,
                }),
                run,
            ),
            None => run(),
        }
    }

    /// Parse + process one raw request line.
    pub fn handle_line(&self, line: &str) -> String {
        match crate::proto::parse_request(line) {
            Ok(req) => self.handle(&req),
            Err(e) => crate::proto::render_err(0, &e),
        }
    }

    /// The request's result-cache key, or `None` when it bypasses the
    /// cache (wall-clock budget, ping/shutdown, or an unresolvable
    /// program/row — those produce their error during [`Engine::handle`]).
    /// The batch scheduler uses this to group identical requests so hit/
    /// miss labels do not depend on scheduling order.
    pub fn request_key(&self, req: &Request) -> Option<u128> {
        let (source, _, _) = self.resolve_source(req).ok()?;
        result_key(req, source_key(&source), self.effective_max_passes(req))
    }

    fn effective_max_passes(&self, req: &Request) -> u64 {
        req.max_passes
            .unwrap_or(SolveParams::default().max_passes as u64)
    }

    fn handle_inner(
        &self,
        req: &Request,
        floor: Tier,
    ) -> Result<(CacheStatus, String), ProtoError> {
        match req.kind {
            RequestKind::Ping => return Ok((CacheStatus::Bypass, "{\"pong\":true}".into())),
            RequestKind::Shutdown => {
                return Ok((CacheStatus::Bypass, "{\"stopping\":true}".into()))
            }
            RequestKind::CacheStats => return Ok((CacheStatus::Bypass, self.render_cache_stats())),
            RequestKind::Metrics => return Ok((CacheStatus::Bypass, self.render_metrics())),
            _ => {}
        }
        // An already-expired deadline fails fast and deterministically —
        // the client has given up on the answer, so don't start the work.
        // (Deadlines that expire *mid*-analysis are caught by the budget
        // meter's periodic polls and surface via `analysis_error`.)
        if let Some(ms) = req.deadline_ms {
            if Budget::unlimited()
                .with_deadline_ms(ms)
                .meter()
                .poll()
                .is_err()
            {
                return Err(ProtoError::new(
                    "deadline-exceeded",
                    format!("deadline_ms {ms} expired before the request started"),
                ));
            }
        }
        let (source, context, spec) = self.resolve_source(req)?;
        let key = result_key(req, source_key(&source), self.effective_max_passes(req));

        if let Some(key) = key {
            let mut span = telemetry::span("service", "cache_lookup");
            if let Some(result) = self.caches.results.get(key) {
                span.arg("layer", "memory");
                return Ok((CacheStatus::Hit, result));
            }
            if let Some(disk) = &self.caches.disk {
                if let Some(bytes) = disk.get(RESULTS_NAMESPACE, key) {
                    if let Ok(result) = String::from_utf8(bytes) {
                        // Warm the memory layer so the next hit skips I/O.
                        self.caches.results.put(key, result.clone());
                        span.arg("layer", "disk");
                        return Ok((CacheStatus::Hit, result));
                    }
                }
            }
        }

        let (result, incremental) = self.compute(req, &source, &context, spec.as_ref(), floor)?;

        match key {
            // A load-shedding floor produces a possibly degraded answer:
            // never store it under the precise request's key.
            Some(_) if floor > Tier::T0 => Ok((CacheStatus::Bypass, result)),
            Some(key) => {
                self.caches.results.put(key, result.clone());
                if let Some(disk) = &self.caches.disk {
                    // Best-effort: a failed spill only costs future misses.
                    let _ = disk.put(RESULTS_NAMESPACE, key, result.as_bytes());
                }
                // An incrementally computed answer is byte-identical to a
                // cold one and is stored like a miss; only its provenance
                // label differs.
                if incremental {
                    Ok((CacheStatus::Partial, result))
                } else {
                    Ok((CacheStatus::Miss, result))
                }
            }
            None => Ok((CacheStatus::Bypass, result)),
        }
    }

    /// Deterministic-key-order JSON for the `cache-stats` verb: admission
    /// counters, per-layer cache counters, and the startup fsck report.
    /// Values are live counters, so the verb always bypasses the cache.
    fn render_cache_stats(&self) -> String {
        fn layer(s: &CacheSnapshot) -> String {
            format!(
                "{{\"hits\":{},\"misses\":{},\"insertions\":{},\"evictions\":{}}}",
                s.hits, s.misses, s.insertions, s.evictions
            )
        }
        let a = self.admission.snapshot();
        let admission = format!(
            "{{\"inflight\":{},\"tier_floor\":\"{}\",\"admitted_total\":{},\
             \"shed_total\":{},\"max_inflight\":{}}}",
            a.inflight, a.tier_floor, a.admitted_total, a.shed_total, a.max_inflight
        );
        let disk = match &self.caches.disk {
            None => "null".to_string(),
            Some(d) => {
                let s = d.counters().snapshot();
                format!(
                    "{{\"hits\":{},\"misses\":{},\"insertions\":{},\"quarantined\":{}}}",
                    s.hits, s.misses, s.insertions, s.quarantined
                )
            }
        };
        let fsck = match &self.fsck {
            None => "null".to_string(),
            Some(f) => format!(
                "{{\"scanned\":{},\"valid\":{},\"quarantined\":{},\"removed_tmp\":{}}}",
                f.scanned, f.valid, f.quarantined, f.removed_tmp
            ),
        };
        let shard = match self.shard_id {
            None => "null".to_string(),
            Some(id) => id.to_string(),
        };
        format!(
            "{{\"shard\":{shard},\"admission\":{admission},\"caches\":{{\"ir\":{},\"proccfg\":{},\
             \"result\":{},\"disk\":{disk}}},\"fsck\":{fsck}}}",
            layer(&self.caches.irs.counters().snapshot()),
            layer(&self.caches.cfgs.counters().snapshot()),
            layer(&self.caches.results.counters().snapshot()),
        )
    }

    /// Deterministic-key-order JSON for the `metrics` verb: this process's
    /// cumulative telemetry counters (empty when the sink is off) plus the
    /// SLO latency histogram snapshot in wire form. In a cluster the
    /// router intercepts the verb and answers with the merged view instead
    /// (see `crate::router`); this is the single-worker / direct answer.
    fn render_metrics(&self) -> String {
        let shard = match self.shard_id {
            None => "null".to_string(),
            Some(id) => id.to_string(),
        };
        let report = telemetry::snapshot();
        let mut metrics = String::from("{");
        for (i, (name, value)) in report.metrics.iter().enumerate() {
            if i > 0 {
                metrics.push(',');
            }
            if value.fract() == 0.0 && value.abs() < 9.0e15 {
                let _ = write!(metrics, "\"{}\":{}", escape(name), *value as i64);
            } else {
                let _ = write!(metrics, "\"{}\":{}", escape(name), value);
            }
        }
        metrics.push('}');
        let slo_snap = self.slo.snapshot();
        // The same data as ready-to-serve Prometheus text, so a scraper
        // can use `result.prometheus` identically against a worker or a
        // cluster router.
        let mut prom = telemetry::export_metrics_text(&report.metrics);
        crate::slo::render_prometheus(&slo_snap, &mut prom);
        format!(
            "{{\"shard\":{shard},\"metrics\":{metrics},\"slo\":{},\"prometheus\":\"{}\"}}",
            crate::slo::to_json(&slo_snap),
            escape(&prom)
        )
    }

    /// Resolve the request to `(source text, context routine, spec)`.
    fn resolve_source(
        &self,
        req: &Request,
    ) -> Result<(String, String, Option<ExperimentSpec>), ProtoError> {
        if req.kind == RequestKind::Table1Row {
            let row = req.row.as_deref().unwrap_or_default();
            let spec = by_id(row).ok_or_else(|| {
                ProtoError::new("unknown-row", format!("unknown Table-1 row `{row}`"))
            })?;
            let source = programs::source(spec.program)
                .expect("every registered row names a bundled program");
            return Ok((source.to_string(), spec.context.to_string(), Some(spec)));
        }
        let source = match (&req.program, &req.source) {
            (Some(name), None) => programs::source(name)
                .or_else(|| mpi_dfa_verify::corpus::source(name))
                .ok_or_else(|| {
                    ProtoError::new(
                        "unknown-program",
                        format!("unknown bundled program `{name}`"),
                    )
                })?
                .to_string(),
            (None, Some(src)) => src.clone(),
            // parse_request enforces exclusivity and presence for the kinds
            // that reach here.
            _ => return Err(ProtoError::new("bad-request", "missing program or source")),
        };
        let context = req.context.clone().unwrap_or_else(|| "main".to_string());
        Ok((source, context, None))
    }

    /// Build (or fetch) the [`ProgramIr`] for `source`, reusing cached
    /// per-procedure CFGs for subroutines whose normalized content and
    /// location table are unchanged.
    pub fn ir_for(&self, source: &str) -> Result<Arc<ProgramIr>, ProtoError> {
        let key = source_key(source);
        if let Some(ir) = self.caches.irs.get(key) {
            return Ok(ir);
        }
        let unit =
            mpi_dfa_lang::compile(source).map_err(|e| ProtoError::new("compile", e.to_string()))?;

        // Per-subroutine cache metadata, computed before `unit` moves into
        // the builder: normalized content and the statement-id base used to
        // rebase transplanted CFGs (ids are program-global; see
        // `ProcCfg::rebase_stmt_ids`).
        let subs: Vec<(String, i64)> = unit
            .program
            .subs
            .iter()
            .map(|s| {
                (
                    mpi_dfa_lang::pretty::sub_to_string(s),
                    i64::from(s.first_stmt_id().map(|id| id.0).unwrap_or(0)),
                )
            })
            .collect();
        let fp_cell: OnceCell<u128> = OnceCell::new();
        let fingerprint = |locs: &LocTable| *fp_cell.get_or_init(|| locs.fingerprint());

        let cfgs = self.caches.cfgs.clone();
        let mut reuse = |i: usize, locs: &LocTable| -> Option<ProcCfg> {
            let key = proc_cfg_key(&subs[i].0, fingerprint(locs), i);
            cfgs.get(key).map(|mut cfg| {
                cfg.rebase_stmt_ids(subs[i].1);
                cfg
            })
        };
        let cfgs2 = self.caches.cfgs.clone();
        let mut store = |i: usize, locs: &LocTable, cfg: &ProcCfg| {
            let key = proc_cfg_key(&subs[i].0, fingerprint(locs), i);
            let mut normalized = cfg.clone();
            normalized.rebase_stmt_ids(-subs[i].1);
            cfgs2.put(key, normalized);
        };

        let (ir, _reuse_stats) = ProgramIr::build_with_cfg_cache(unit, &mut reuse, &mut store);
        self.caches.irs.put(key, ir.clone());
        Ok(ir)
    }

    /// The wall-clock bound for this request: the *minimum* of `budget_ms`
    /// (degrade-oriented) and `deadline_ms` (abort-oriented), when either
    /// is set.
    fn effective_deadline_ms(req: &Request) -> Option<u64> {
        match (req.budget_ms, req.deadline_ms) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    fn governor(&self, req: &Request, floor: Tier) -> GovernorConfig {
        let mut budget = Budget::unlimited();
        if let Some(ms) = Self::effective_deadline_ms(req) {
            budget = budget.with_deadline_ms(ms);
        }
        if let Some(w) = req.max_visits {
            budget = budget.with_max_work(w);
        }
        if let Some(b) = req.max_fact_bytes {
            budget = budget.with_max_fact_bytes(b);
        }
        GovernorConfig {
            clone_level: req.clone_level,
            matching: req.matching,
            budget,
            degrade: req.degrade,
            max_passes: self.effective_max_passes(req) as usize,
            // Per-request override, else the process default (which the
            // CLI's `--solver` flag or `MPIDFA_SOLVER` establishes).
            strategy: req.solver.unwrap_or_else(Strategy::session_default),
            tier_floor: floor,
        }
    }

    /// Map an analysis-layer error message to its protocol code: budget
    /// deadline expiry under an explicit `deadline_ms` is the structured
    /// `deadline-exceeded` code, everything else stays `analysis`.
    fn analysis_error(req: &Request, message: String) -> ProtoError {
        let deadline_hit =
            req.deadline_ms.is_some() && message.contains(&Exhaustion::Deadline.to_string());
        ProtoError::new(
            if deadline_hit {
                "deadline-exceeded"
            } else {
                "analysis"
            },
            message,
        )
    }

    /// The analysis-configuration signature a seed was computed under: an
    /// `analyze-delta` can only reuse a seed whose program-independent
    /// knobs (context, clone level, ind/dep sets, matching, mode, pass
    /// bound) all match — anything else would transplant facts of a
    /// different analysis.
    fn seed_sig(&self, req: &Request, context: &str) -> u128 {
        Hasher128::new()
            .write_str("seed-sig")
            .write_str(context)
            .write_u64(req.clone_level as u64)
            .write_strs(&req.ind)
            .write_strs(&req.dep)
            .write_str(req.matching_str())
            .write_str(&req.mode)
            .write_u64(self.effective_max_passes(req))
            .finish()
    }

    /// Compute one response payload. The boolean is true when the answer
    /// was produced **incrementally** (seeded region transplant) — the
    /// caller turns it into `cache: "partial"` provenance.
    fn compute(
        &self,
        req: &Request,
        source: &str,
        context: &str,
        spec: Option<&ExperimentSpec>,
        floor: Tier,
    ) -> Result<(String, bool), ProtoError> {
        match req.kind {
            RequestKind::Analyze if req.at.is_some() => {
                self.compute_demand(req, source, context, floor)
            }
            RequestKind::Analyze => {
                let ir = self.ir_for(source)?;
                let (result, provenance) = self.run_activity(req, &ir, context, floor)?;
                let result = Arc::new(result);
                self.maybe_seed(req, context, floor, &result, provenance.as_ref(), source);
                Ok((
                    render_activity(req, &ir, context, &result, provenance.as_ref()),
                    false,
                ))
            }
            RequestKind::AnalyzeDelta => self.compute_delta(req, source, context, floor),
            RequestKind::ActivityAtLocation => {
                let ir = self.ir_for(source)?;
                let var = req.var.as_deref().expect("validated by parse_request");
                let proc = ir.proc_id(context).ok_or_else(|| {
                    ProtoError::new("analysis", format!("unknown context routine `{context}`"))
                })?;
                let loc = ir.locs.resolve(proc, var).ok_or_else(|| {
                    ProtoError::new(
                        "bad-request",
                        format!("unknown variable `{var}` in `{context}`"),
                    )
                })?;
                let (result, provenance) = self.run_activity(req, &ir, context, floor)?;
                let info = ir.locs.info(loc);
                Ok((
                    format!(
                        "{{\"var\":\"{}\",\"location\":\"{}\",\"active\":{},\"byte_size\":{},\"tier\":{}}}",
                        escape(var),
                        escape(&ir.locs.qualified_name(loc)),
                        result.active.contains(loc.index()),
                        info.byte_size(),
                        provenance
                            .as_ref()
                            .map(|p| format!("\"{}\"", p.tier))
                            .unwrap_or_else(|| "null".to_string()),
                    ),
                    false,
                ))
            }
            RequestKind::Dot => {
                let ir = self.ir_for(source)?;
                let mut budget = Budget::unlimited();
                if let Some(ms) = Self::effective_deadline_ms(req) {
                    budget = budget.with_deadline_ms(ms);
                }
                let mpi =
                    build_mpi_icfg_with_budget(ir, context, req.clone_level, req.matching, &budget)
                        .map_err(|e| Self::analysis_error(req, e.to_string()))?;
                let dot = mpi_dfa_graph::dot::mpi_icfg_to_dot(&mpi, context);
                Ok((
                    format!(
                        "{{\"context\":\"{}\",\"comm_edges\":{},\"dot\":\"{}\"}}",
                        escape(context),
                        mpi.comm_edges.len(),
                        escape(&dot)
                    ),
                    false,
                ))
            }
            RequestKind::Verify => {
                let ir = self.ir_for(source)?;
                let mut budget = Budget::unlimited();
                if let Some(ms) = Self::effective_deadline_ms(req) {
                    budget = budget.with_deadline_ms(ms);
                }
                if let Some(w) = req.max_visits {
                    budget = budget.with_max_work(w);
                }
                if let Some(b) = req.max_fact_bytes {
                    budget = budget.with_max_fact_bytes(b);
                }
                let mpi =
                    build_mpi_icfg_with_budget(ir, context, req.clone_level, req.matching, &budget)
                        .map_err(|e| Self::analysis_error(req, e.to_string()))?;
                let vcfg = mpi_dfa_verify::VerifyConfig {
                    nprocs: req.nprocs.unwrap_or(2) as usize,
                    schedules: req.schedules.unwrap_or(8) as u32,
                    entry: context.to_string(),
                    max_passes: self.effective_max_passes(req) as usize,
                    ..mpi_dfa_verify::VerifyConfig::default()
                };
                let report = mpi_dfa_verify::verify(&mpi, &vcfg, &budget)
                    .map_err(|e| Self::analysis_error(req, e.to_string()))?;
                Ok((mpi_dfa_verify::render_json(&report), false))
            }
            RequestKind::Table1Row => {
                let spec = spec.expect("resolve_source sets the spec for table1-row");
                let gov = self.governor(req, floor);
                let row = runner::run_experiment_governed(spec, &gov)
                    .map_err(|e| Self::analysis_error(req, e))?;
                Ok((render_row(&row), false))
            }
            RequestKind::Ping
            | RequestKind::Shutdown
            | RequestKind::CacheStats
            | RequestKind::Metrics => {
                unreachable!("handled before compute")
            }
        }
    }

    fn run_activity(
        &self,
        req: &Request,
        ir: &Arc<ProgramIr>,
        context: &str,
        floor: Tier,
    ) -> Result<(ActivityResult, Option<AnalysisProvenance>), ProtoError> {
        if req.ind.is_empty() || req.dep.is_empty() {
            return Err(ProtoError::new(
                "bad-request",
                "activity analysis requires non-empty `ind` and `dep`",
            ));
        }
        let config = ActivityConfig::new(req.ind.clone(), req.dep.clone());
        match req.mode.as_str() {
            "mpi" => {
                let gov = self.governor(req, floor);
                let g = governed_activity(ir, context, &config, &gov)
                    .map_err(|e| Self::analysis_error(req, e))?;
                Ok((g.result, Some(g.provenance)))
            }
            mode => {
                // The non-mpi baselines have no degradation ladder, so a
                // deadline here aborts with a structured error instead: a
                // non-converged union-analysis snapshot under-approximates
                // and must never be published as if it were a fixpoint.
                let mut budget = Budget::unlimited();
                if let Some(ms) = Self::effective_deadline_ms(req) {
                    budget = budget.with_deadline_ms(ms);
                }
                let icfg = Icfg::build_with_budget(ir.clone(), context, req.clone_level, &budget)
                    .map_err(|e| Self::analysis_error(req, e.to_string()))?;
                let m = if mode == "global" {
                    Mode::GlobalBuffer
                } else {
                    Mode::Naive
                };
                let params = SolveParams {
                    max_passes: self.effective_max_passes(req) as usize,
                    budget,
                    strategy: req.solver.unwrap_or_else(Strategy::session_default),
                };
                let r = activity::analyze_icfg_with(&icfg, m, &config, &params)
                    .map_err(|e| Self::analysis_error(req, e))?;
                if let Some(x) = r.vary.stats.exhausted.or(r.useful.stats.exhausted) {
                    if x == Exhaustion::Deadline && req.deadline_ms.is_some() {
                        return Err(ProtoError::new(
                            "deadline-exceeded",
                            format!("deadline expired mid-analysis ({x})"),
                        ));
                    }
                }
                Ok((r, None))
            }
        }
    }

    /// Retain `result` as an incremental seed when it can actually seed a
    /// re-solve: a precise, converged T0 `mpi` analysis whose solutions
    /// carry solver regions (only converged region-strategy runs capture
    /// them — see `docs/INCREMENTAL.md`).
    fn maybe_seed(
        &self,
        req: &Request,
        context: &str,
        floor: Tier,
        result: &Arc<ActivityResult>,
        provenance: Option<&AnalysisProvenance>,
        source: &str,
    ) {
        let precise = provenance.is_some_and(|p| p.is_precise() && !p.saturated);
        if floor > Tier::T0
            || req.mode != "mpi"
            || !precise
            || !result.converged()
            || result.vary.regions.is_none()
            || result.useful.regions.is_none()
        {
            return;
        }
        self.seeds.put(
            req.id,
            SeedEntry {
                source: source.to_string(),
                sig: self.seed_sig(req, context),
                result: result.clone(),
            },
        );
    }

    /// `analyze-delta`: re-analyze edited source seeded from a previous
    /// `analyze` result. The answer is byte-identical to a cold solve of
    /// the same source; the boolean reports whether the incremental engine
    /// produced it (→ `cache: "partial"`) or a fallback full solve did
    /// (→ `cache: "miss"`). A missing/mismatched seed is **not** an error:
    /// incremental serving degrades to correct-but-cold, never to wrong.
    fn compute_delta(
        &self,
        req: &Request,
        source: &str,
        context: &str,
        floor: Tier,
    ) -> Result<(String, bool), ProtoError> {
        if req.mode != "mpi" {
            return Err(ProtoError::new(
                "bad-request",
                "kind `analyze-delta` supports only mode `mpi`",
            ));
        }
        if req.ind.is_empty() || req.dep.is_empty() {
            return Err(ProtoError::new(
                "bad-request",
                "activity analysis requires non-empty `ind` and `dep`",
            ));
        }
        let ir = self.ir_for(source)?;
        let config = ActivityConfig::new(req.ind.clone(), req.dep.clone());
        let gov = self.governor(req, floor);
        let prev_id = req.prev.expect("validated by parse_request");

        // The incremental path is precise-T0 only: under a load-shedding
        // floor, or without a usable seed, answer with the normal governed
        // ladder instead.
        let seed = if floor > Tier::T0 {
            None
        } else {
            self.seeds
                .get(prev_id)
                .filter(|s| s.sig == self.seed_sig(req, context))
        };
        let Some(seed) = seed else {
            if telemetry::is_enabled() {
                telemetry::metric_add("service_delta_seed_miss_total", 1.0);
            }
            let (result, provenance) = self.run_activity(req, &ir, context, floor)?;
            return Ok((
                render_activity(req, &ir, context, &result, provenance.as_ref()),
                false,
            ));
        };

        let prev_ir = self.ir_for(&seed.source)?;
        let dirty = dirty_procs(&prev_ir, &ir);
        let delta = governed_activity_delta(&ir, context, &config, &gov, &seed.result, &dirty)
            .map_err(|e| Self::analysis_error(req, e))?;
        let incremental = delta.incremental;
        let result = Arc::new(delta.governed.result);
        let provenance = delta.governed.provenance;
        // A successful delta is itself a valid seed for the next edit.
        self.maybe_seed(req, context, floor, &result, Some(&provenance), source);
        Ok((
            render_activity(req, &ir, context, &result, Some(&provenance)),
            incremental,
        ))
    }

    /// Demand-driven `analyze` (`at` present): activity at one ICFG node,
    /// answered from the upstream region slices without a whole-program
    /// fixpoint. The result shape differs from a full analysis and is
    /// keyed separately (`cache::result_key` folds `at` in).
    fn compute_demand(
        &self,
        req: &Request,
        source: &str,
        context: &str,
        floor: Tier,
    ) -> Result<(String, bool), ProtoError> {
        if req.mode != "mpi" {
            return Err(ProtoError::new(
                "bad-request",
                "demand queries (`at`) support only mode `mpi`",
            ));
        }
        if req.ind.is_empty() || req.dep.is_empty() {
            return Err(ProtoError::new(
                "bad-request",
                "activity analysis requires non-empty `ind` and `dep`",
            ));
        }
        let ir = self.ir_for(source)?;
        let config = ActivityConfig::new(req.ind.clone(), req.dep.clone());
        let gov = self.governor(req, floor);
        let mpi = build_mpi_icfg_with_budget(
            ir.clone(),
            context,
            gov.clone_level,
            gov.matching,
            &gov.budget,
        )
        .map_err(|e| Self::analysis_error(req, e.to_string()))?;
        let at = req.at.expect("kind dispatch checked `at`");
        let num_nodes = mpi.icfg().nodes().count() as u64;
        if at >= num_nodes {
            return Err(ProtoError::new(
                "bad-request",
                format!("node `at` {at} out of range (program has {num_nodes} nodes)"),
            ));
        }
        let params = SolveParams {
            max_passes: gov.max_passes,
            budget: gov.budget.clone(),
            strategy: gov.strategy,
        };
        let d = demand_active_at(&mpi, &config, &params, &[NodeId(at as u32)])
            .map_err(|e| Self::analysis_error(req, e))?;
        let mut active = String::from("[");
        let mut first = true;
        for loc in d.active.iter() {
            if loc == LocTable::MPI_BUFFER.0 as usize {
                continue;
            }
            if !first {
                active.push(',');
            }
            first = false;
            let _ = write!(
                active,
                "\"{}\"",
                escape(&ir.locs.qualified_name(mpi_dfa_graph::loc::Loc(loc as u32)))
            );
        }
        active.push(']');
        Ok((
            format!(
                "{{\"context\":\"{}\",\"at\":{at},\"mode\":\"demand\",\"independents\":{},\
                 \"dependents\":{},\"active_at\":{active},\"regions_total\":{},\
                 \"regions_solved\":{},\"nodes_visited\":{}}}",
                escape(context),
                render_str_list(&req.ind),
                render_str_list(&req.dep),
                d.regions_total,
                d.regions_solved,
                d.nodes_visited,
            ),
            false,
        ))
    }
}

fn render_str_list(items: &[String]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| format!("\"{}\"", escape(s))).collect();
    format!("[{}]", quoted.join(","))
}

/// Deterministic provenance JSON: tier, saturation, solver work — but **no
/// elapsed wall clock** (that would break hit ≡ recompute byte equality).
fn render_provenance(p: Option<&AnalysisProvenance>) -> String {
    match p {
        None => "null".to_string(),
        Some(p) => format!(
            "{{\"tier\":\"{}\",\"saturated\":{},\"work_units\":{},\"degradation_reason\":{}}}",
            p.tier,
            p.saturated,
            p.budget_spent.work,
            match &p.degradation_reason {
                None => "null".to_string(),
                Some(r) => format!("\"{}\"", escape(r)),
            }
        ),
    }
}

fn render_activity(
    req: &Request,
    ir: &Arc<ProgramIr>,
    context: &str,
    result: &ActivityResult,
    provenance: Option<&AnalysisProvenance>,
) -> String {
    let mut active = String::from("[");
    let mut first = true;
    for loc in result.active_locs() {
        if loc == mpi_dfa_graph::loc::LocTable::MPI_BUFFER {
            continue;
        }
        if !first {
            active.push(',');
        }
        first = false;
        let _ = write!(active, "\"{}\"", escape(&ir.locs.qualified_name(loc)));
    }
    active.push(']');
    format!(
        "{{\"context\":\"{}\",\"clone_level\":{},\"mode\":\"{}\",\"independents\":{},\
         \"dependents\":{},\"converged\":{},\"iterations\":{},\"active_bytes\":{},\
         \"deriv_bytes\":{},\"active\":{},\"provenance\":{}}}",
        escape(context),
        req.clone_level,
        escape(&req.mode),
        render_str_list(&req.ind),
        render_str_list(&req.dep),
        result.converged(),
        result.iterations,
        result.active_bytes,
        result.deriv_bytes(req.ind.len() as u64),
        active,
        render_provenance(provenance),
    )
}

fn render_mode(m: &runner::MeasuredMode) -> String {
    format!(
        "{{\"iterations\":{},\"active_bytes\":{},\"deriv_bytes\":{},\"converged\":{}}}",
        m.iterations, m.active_bytes, m.deriv_bytes, m.converged
    )
}

/// One Table-1 row as deterministic JSON (the `repro json` report keeps its
/// own independent rendering — that one includes wall-clock provenance and
/// is not cached at this layer).
fn render_row(row: &runner::MeasuredRow) -> String {
    let p = row.provenance.as_ref();
    format!(
        "{{\"id\":\"{}\",\"program\":\"{}\",\"context\":\"{}\",\"clone_level\":{},\
         \"comm_edges\":{},\"converged\":{},\"icfg\":{},\"mpi_icfg\":{},\
         \"pct_decrease\":{:.4},\"provenance\":{}}}",
        escape(row.spec.id),
        escape(row.spec.program),
        escape(row.spec.context),
        row.spec.clone_level,
        row.comm_edges,
        row.converged(),
        render_mode(&row.icfg),
        render_mode(&row.mpi),
        row.pct_decrease(),
        render_provenance(p),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::parse_request;

    fn engine() -> Engine {
        Engine::new(EngineConfig::default()).unwrap()
    }

    fn parse(line: &str) -> Request {
        parse_request(line).unwrap()
    }

    #[test]
    fn ping_round_trips() {
        let e = engine();
        let resp = e.handle_line(r#"{"id":5,"kind":"ping"}"#);
        assert_eq!(
            resp,
            r#"{"id":5,"ok":true,"kind":"ping","cache":"bypass","result":{"pong":true}}"#
        );
    }

    #[test]
    fn analyze_miss_then_hit_is_byte_identical() {
        let e = engine();
        let req = parse(r#"{"id":1,"kind":"analyze","program":"figure1","ind":["x"],"dep":["f"]}"#);
        let first = e.handle(&req);
        assert!(first.contains("\"cache\":\"miss\""), "{first}");
        let second = e.handle(&req);
        assert!(second.contains("\"cache\":\"hit\""), "{second}");
        // The result payload must be identical; only the cache label moves.
        assert_eq!(
            first.replace("\"cache\":\"miss\"", "\"cache\":\"hit\""),
            second
        );
        // Response is valid JSON with the provenance attached.
        let parsed = crate::json::parse(&second).unwrap();
        let result = parsed.get("result").unwrap();
        assert_eq!(
            result
                .get("provenance")
                .unwrap()
                .get("tier")
                .unwrap()
                .as_str(),
            Some("T0")
        );
        assert!(result.get("converged").unwrap().as_bool().unwrap());
    }

    #[test]
    fn warm_cache_hits_across_solver_strategies() {
        // Satellite regression: the strategy is excluded from the result
        // cache key because all strategies produce identical facts. A
        // result computed under the region engine must be served as a *hit*
        // to a round-robin request for the same analysis — and the ids
        // aside, the payload must be the very same cached bytes.
        let e = engine();
        let miss = e.handle(&parse(
            r#"{"id":1,"kind":"analyze","program":"figure1","ind":["x"],"dep":["f"],"solver":"region"}"#,
        ));
        assert!(miss.contains("\"cache\":\"miss\""), "{miss}");
        for (id, solver) in [(2, "round-robin"), (3, "region")] {
            let hit = e.handle(&parse(&format!(
                r#"{{"id":{id},"kind":"analyze","program":"figure1","ind":["x"],"dep":["f"],"solver":"{solver}"}}"#,
            )));
            assert!(hit.contains("\"cache\":\"hit\""), "{solver}: {hit}");
            assert_eq!(
                miss.replace("\"id\":1", &format!("\"id\":{id}"))
                    .replace("\"cache\":\"miss\"", "\"cache\":\"hit\""),
                hit,
                "{solver} must be served the cached region result"
            );
        }
        // An invalid solver value is a structured error, not a panic.
        let err = e.handle_line(
            r#"{"id":5,"kind":"analyze","program":"figure1","ind":["x"],"dep":["f"],"solver":"magic"}"#,
        );
        assert!(err.contains("\"error\""), "{err}");
        assert!(err.contains("unknown solver strategy"), "{err}");
        // So are the retired spellings, and the message names the
        // surviving strategies.
        for old in ["worklist", "region-parallel", "region-parallel:2"] {
            let err = e.handle_line(&format!(
                r#"{{"id":6,"kind":"analyze","program":"figure1","ind":["x"],"dep":["f"],"solver":"{old}"}}"#,
            ));
            assert!(err.contains("\"error\""), "{old}: {err}");
            assert!(err.contains("round-robin|region"), "{old}: {err}");
        }
    }

    #[test]
    fn degrade_flip_is_a_miss_not_a_stale_hit() {
        // Satellite regression: a result computed under `degrade: auto`
        // must never be served for a `degrade: off` request (and vice
        // versa) — the keys differ, so the flipped request misses.
        let e = engine();
        let auto = parse(
            r#"{"id":1,"kind":"analyze","program":"figure1","ind":["x"],"dep":["f"],"degrade":"auto"}"#,
        );
        let off = parse(
            r#"{"id":2,"kind":"analyze","program":"figure1","ind":["x"],"dep":["f"],"degrade":"off"}"#,
        );
        assert!(e.handle(&auto).contains("\"cache\":\"miss\""));
        let r = e.handle(&off);
        assert!(
            r.contains("\"cache\":\"miss\""),
            "degrade flip must miss: {r}"
        );
        // And a repeat of each now hits its own entry.
        assert!(e.handle(&auto).contains("\"cache\":\"hit\""));
        assert!(e.handle(&off).contains("\"cache\":\"hit\""));
    }

    #[test]
    fn tier_capped_result_is_keyed_separately_from_precise() {
        // A T2/degraded result (max_visits cap) and the precise T0 result
        // live under different keys; the precise request never sees the
        // degraded payload.
        let e = engine();
        let capped = parse(
            r#"{"id":1,"kind":"analyze","program":"figure1","ind":["x"],"dep":["f"],"max_visits":1}"#,
        );
        let precise =
            parse(r#"{"id":2,"kind":"analyze","program":"figure1","ind":["x"],"dep":["f"]}"#);
        let r1 = e.handle(&capped);
        assert!(r1.contains("\"cache\":\"miss\""));
        assert!(!r1.contains("\"tier\":\"T0\""), "capped run degraded: {r1}");
        let r2 = e.handle(&precise);
        assert!(r2.contains("\"cache\":\"miss\""), "{r2}");
        assert!(r2.contains("\"tier\":\"T0\""), "{r2}");
        // Hits keep serving their own payloads.
        assert!(e.handle(&capped).contains("\"cache\":\"hit\""));
        let r1b = e.handle(&capped);
        assert_eq!(r1b, r1.replace("\"cache\":\"miss\"", "\"cache\":\"hit\""));
    }

    #[test]
    fn verify_verb_caches_and_is_byte_identical_on_hit() {
        let e = engine();
        let safe = parse(r#"{"id":1,"kind":"verify","program":"figure1","schedules":2}"#);
        let cold = e.handle(&safe);
        assert!(cold.contains("\"cache\":\"miss\""), "{cold}");
        assert!(cold.contains("\"verdict\":\"safe\""), "{cold}");
        assert!(cold.contains("\"outcome\":\"consistent-safe\""), "{cold}");
        let warm = e.handle(&safe);
        assert!(warm.contains("\"cache\":\"hit\""), "{warm}");
        assert_eq!(
            warm,
            cold.replace("\"cache\":\"miss\"", "\"cache\":\"hit\""),
            "hit must serve the recompute's exact bytes"
        );

        // The seeded corpus resolves by name and is flagged + realized.
        let bad =
            parse(r#"{"id":2,"kind":"verify","program":"deadlock-head-to-head","schedules":2}"#);
        let r = e.handle(&bad);
        assert!(r.contains("\"verdict\":\"flagged\""), "{r}");
        assert!(r.contains("\"outcome\":\"confirmed\""), "{r}");

        // nprocs/schedules are part of the key: changing either recomputes.
        let other = parse(r#"{"id":3,"kind":"verify","program":"figure1","schedules":3}"#);
        assert!(e.handle(&other).contains("\"cache\":\"miss\""));
    }

    #[test]
    fn verify_of_a_huge_declaration_answers_and_the_engine_lives_on() {
        // 10^11 declared reals (800 GB), one element touched: the request
        // costs the element, and the next request is still answered.
        let e = engine();
        let source = "program huge\\n\
                      global a: real[100000000000];\\n\
                      global x: real;\\n\
                      sub main() {\\n\
                        a[5] = 1.0;\\n\
                        if (rank() == 0) { send(x, 1, 7); } else { recv(x, 0, 7); }\\n\
                        print(a[5]);\\n\
                      }\\n";
        let r = e.handle_line(&format!(
            r#"{{"id":1,"kind":"verify","source":"{source}","schedules":8}}"#
        ));
        assert!(r.contains("\"ok\":true"), "{r}");
        assert!(r.contains("\"verdict\":\"safe\""), "{r}");
        assert!(r.contains("\"outcome\":\"consistent-safe\""), "{r}");
        let pong = e.handle_line(r#"{"id":2,"kind":"ping"}"#);
        assert!(pong.contains("\"pong\":true"), "{pong}");
    }

    #[test]
    fn verify_of_a_deep_call_chain_answers_and_the_engine_lives_on() {
        // Sema rejects recursion but not depth: a 20,000-deep chain of
        // calls fails the explorer's ranks with a structured error instead
        // of overflowing a stack, and the next request is still answered.
        let e = engine();
        let mut source = String::from("program deep\\nglobal x: real;\\n");
        for i in 0..19_999 {
            source.push_str(&format!("sub s{i}() {{ call s{}(); }}\\n", i + 1));
        }
        source.push_str("sub s19999() { x = 1.0; }\\nsub main() { call s0(); }\\n");
        let r = e.handle_line(&format!(
            r#"{{"id":1,"kind":"verify","source":"{source}","schedules":2}}"#
        ));
        assert!(r.contains("\"ok\":true"), "{r}");
        assert!(r.contains("\"outcome\":\"skipped\""), "{r}");
        let pong = e.handle_line(r#"{"id":2,"kind":"ping"}"#);
        assert!(pong.contains("\"pong\":true"), "{pong}");
    }

    #[test]
    fn wall_clock_budget_bypasses_cache() {
        let e = engine();
        let req = parse(
            r#"{"id":1,"kind":"analyze","program":"figure1","ind":["x"],"dep":["f"],"budget_ms":10000}"#,
        );
        assert!(e.handle(&req).contains("\"cache\":\"bypass\""));
        assert!(e.handle(&req).contains("\"cache\":\"bypass\""));
        assert!(e.request_key(&req).is_none());
    }

    #[test]
    fn deadline_ms_bypasses_cache_and_degrades_or_errors() {
        let e = engine();
        // Governed mpi mode + auto degradation: an already-expired deadline
        // still answers (possibly the saturated ⊤ result), as a bypass.
        let r = e.handle(&parse(
            r#"{"id":1,"kind":"analyze","program":"figure1","ind":["x"],"dep":["f"],"deadline_ms":10000}"#,
        ));
        assert!(r.contains("\"cache\":\"bypass\""), "{r}");
        // An already-expired deadline is the structured `deadline-exceeded`
        // error, not a panic or a wrong answer — for every kind.
        for line in [
            r#"{"id":2,"kind":"analyze","program":"figure1","ind":["x"],"dep":["f"],"deadline_ms":0,"degrade":"off"}"#,
            r#"{"id":3,"kind":"analyze","program":"figure1","ind":["x"],"dep":["f"],"mode":"global","deadline_ms":0}"#,
            r#"{"id":4,"kind":"table1-row","row":"Biostat","deadline_ms":0}"#,
            r#"{"id":5,"kind":"dot","program":"figure1","deadline_ms":0}"#,
        ] {
            let r = e.handle(&parse(line));
            assert!(
                r.contains("\"code\":\"deadline-exceeded\""),
                "expired deadline must be structured for {line}: {r}"
            );
        }
    }

    #[test]
    fn cache_stats_reports_admission_caches_and_fsck() {
        let e = engine();
        e.handle(&parse(
            r#"{"id":1,"kind":"analyze","program":"figure1","ind":["x"],"dep":["f"]}"#,
        ));
        let r = e.handle(&parse(r#"{"id":2,"kind":"cache-stats"}"#));
        assert!(r.contains("\"cache\":\"bypass\""), "{r}");
        let parsed = crate::json::parse(&r).unwrap();
        let result = parsed.get("result").unwrap();
        let admission = result.get("admission").unwrap();
        assert_eq!(admission.get("inflight").unwrap().as_u64(), Some(0));
        assert_eq!(admission.get("tier_floor").unwrap().as_str(), Some("T0"));
        let caches = result.get("caches").unwrap();
        assert!(caches.get("result").unwrap().get("insertions").is_some());
        // No --cache-dir: disk and fsck are null.
        assert_eq!(caches.get("disk"), Some(&crate::json::Json::Null));
        assert_eq!(result.get("fsck"), Some(&crate::json::Json::Null));
    }

    #[test]
    fn fsck_runs_at_startup_and_is_reported() {
        let dir = std::env::temp_dir().join(format!("mpidfa-fsck-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = EngineConfig {
            cache_dir: Some(dir.to_string_lossy().into_owned()),
            ..Default::default()
        };
        // Warm one entry, then corrupt it on disk.
        let e = Engine::new(cfg.clone()).unwrap();
        let req = parse(r#"{"id":1,"kind":"analyze","program":"figure1","ind":["x"],"dep":["f"]}"#);
        assert!(e.handle(&req).contains("\"cache\":\"miss\""));
        drop(e);
        let results_dir = dir.join(RESULTS_NAMESPACE);
        let entry = std::fs::read_dir(&results_dir)
            .unwrap()
            .flatten()
            .next()
            .unwrap()
            .path();
        std::fs::write(&entry, b"garbage, not a frame").unwrap();
        // A fresh engine's startup fsck quarantines it; the next request is
        // a clean recompute (miss), never wrong bytes.
        let e2 = Engine::new(cfg).unwrap();
        let fsck = e2.fsck_report().unwrap();
        assert_eq!(fsck.quarantined, 1, "{fsck:?}");
        assert!(e2.handle(&req).contains("\"cache\":\"miss\""));
        let stats = e2.handle(&parse(r#"{"id":9,"kind":"cache-stats"}"#));
        assert!(stats.contains("\"quarantined\":1"), "{stats}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tier_floor_bypasses_cache_and_degrades() {
        let e = engine();
        let req = parse(r#"{"id":1,"kind":"analyze","program":"figure1","ind":["x"],"dep":["f"]}"#);
        // Floored request computes a degraded answer and does NOT store it.
        let floored = e.handle_with_floor(&req, Tier::T2);
        assert!(floored.contains("\"cache\":\"bypass\""), "{floored}");
        assert!(floored.contains("\"tier\":\"T2\""), "{floored}");
        assert!(floored.contains("load shedding"), "{floored}");
        // The precise request still misses (no pollution) and is precise.
        let precise = e.handle(&req);
        assert!(precise.contains("\"cache\":\"miss\""), "{precise}");
        assert!(precise.contains("\"tier\":\"T0\""), "{precise}");
        // Once the precise answer is cached, a floored request serves the
        // cached precise bytes as a free hit — shedding never makes a warm
        // answer worse.
        let warm = e.handle_with_floor(&req, Tier::T2);
        assert!(warm.contains("\"cache\":\"hit\""), "{warm}");
        assert!(warm.contains("\"tier\":\"T0\""), "{warm}");
    }

    #[test]
    fn table1_row_matches_direct_runner_numbers() {
        let e = engine();
        let resp = e.handle(&parse(r#"{"id":1,"kind":"table1-row","row":"Biostat"}"#));
        assert!(resp.contains("\"cache\":\"miss\""), "{resp}");
        assert!(resp.contains("\"active_bytes\":9016"), "{resp}");
        assert!(resp.contains("\"active_bytes\":1441632"), "{resp}");
        assert!(resp.contains("\"tier\":\"T0\""), "{resp}");
        let warm = e.handle(&parse(r#"{"id":1,"kind":"table1-row","row":"Biostat"}"#));
        assert!(warm.contains("\"cache\":\"hit\""));
    }

    #[test]
    fn activity_at_location_answers_per_variable() {
        let e = engine();
        let z = e.handle(&parse(
            r#"{"id":1,"kind":"activity-at-location","program":"figure1","ind":["x"],"dep":["f"],"var":"z"}"#,
        ));
        assert!(z.contains("\"active\":true"), "{z}");
        let resp = e.handle(&parse(
            r#"{"id":2,"kind":"activity-at-location","program":"figure1","ind":["x"],"dep":["f"],"var":"nope"}"#,
        ));
        assert!(
            resp.contains("\"ok\":false") && resp.contains("unknown variable"),
            "{resp}"
        );
    }

    #[test]
    fn dot_renders_and_caches() {
        let e = engine();
        let req = parse(r#"{"id":3,"kind":"dot","program":"figure1"}"#);
        let a = e.handle(&req);
        assert!(a.contains("digraph"), "{a}");
        assert!(a.contains("\"cache\":\"miss\""));
        let b = e.handle(&req);
        assert!(b.contains("\"cache\":\"hit\""));
    }

    #[test]
    fn unknown_program_and_row_are_structured_errors() {
        let e = engine();
        let r =
            e.handle_line(r#"{"id":1,"kind":"analyze","program":"nope","ind":["x"],"dep":["f"]}"#);
        assert!(r.contains("\"code\":\"unknown-program\""), "{r}");
        let r = e.handle_line(r#"{"id":1,"kind":"table1-row","row":"nope"}"#);
        assert!(r.contains("\"code\":\"unknown-row\""), "{r}");
        let r = e.handle_line("not json at all");
        assert!(
            r.contains("\"code\":\"parse\"") && r.contains("\"id\":0"),
            "{r}"
        );
    }

    #[test]
    fn compile_errors_are_structured() {
        let e = engine();
        let r = e.handle_line(
            r#"{"id":4,"kind":"analyze","source":"program p sub main() { x = }","ind":["x"],"dep":["x"]}"#,
        );
        assert!(r.contains("\"code\":\"compile\""), "{r}");
    }

    // Embedded in JSONL request lines, so newlines are the two-character
    // escape `\n` that the protocol's JSON parser decodes.
    const DELTA_BASE: &str = "program inc\\n\
        global x: real; global y: real; global f: real; global t: real;\\n\
        sub work() {\\n\
          t = x * 2.0;\\n\
          if (rank() == 0) { send(t, 1, 4); } else { recv(y, 0, 4); }\\n\
        }\\n\
        sub main() {\\n\
          x = x + 1.0;\\n\
          call work();\\n\
          f = y + t;\\n\
        }";

    const DELTA_EDIT: &str = "program inc\\n\
        global x: real; global y: real; global f: real; global t: real;\\n\
        sub work() {\\n\
          print(1.0);\\n\
          t = x * 2.0;\\n\
          if (rank() == 0) { send(t, 1, 4); } else { recv(y, 0, 4); }\\n\
        }\\n\
        sub main() {\\n\
          x = x + 1.0;\\n\
          call work();\\n\
          f = y + t;\\n\
        }";

    fn analyze_line(id: u64, kind: &str, source: &str, extra: &str) -> String {
        format!(
            r#"{{"id":{id},"kind":"{kind}","source":"{source}","ind":["x"],"dep":["f"],"solver":"region"{extra}}}"#
        )
    }

    /// The `result` object of a response line (the envelope's `kind` and
    /// `cache` legitimately differ between a delta and a cold analyze).
    fn result_of(resp: &str) -> &str {
        resp.split_once("\"result\":").expect("ok response").1
    }

    #[test]
    fn analyze_delta_is_partial_and_byte_identical_to_cold() {
        let e = engine();
        // Seed: a precise converged region analyze.
        let seed_resp = e.handle(&parse(&analyze_line(10, "analyze", DELTA_BASE, "")));
        assert!(seed_resp.contains("\"cache\":\"miss\""), "{seed_resp}");
        // Incremental re-analyze of the edited source.
        let delta_resp = e.handle(&parse(&analyze_line(
            11,
            "analyze-delta",
            DELTA_EDIT,
            r#","prev":10"#,
        )));
        assert!(
            delta_resp.contains("\"cache\":\"partial\""),
            "seeded delta must be partial: {delta_resp}"
        );
        assert!(delta_resp.contains("\"tier\":\"T0\""), "{delta_resp}");
        // Byte-identity: a cold analyze of the edited source (different
        // result key — kind is folded in) renders the exact same result.
        let cold_resp = e.handle(&parse(&analyze_line(12, "analyze", DELTA_EDIT, "")));
        assert!(cold_resp.contains("\"cache\":\"miss\""), "{cold_resp}");
        assert_eq!(
            result_of(&delta_resp),
            result_of(&cold_resp),
            "incremental answer must be byte-identical to the cold solve"
        );
        // A repeat of the same delta now hits its own cached entry.
        let again = e.handle(&parse(&analyze_line(
            13,
            "analyze-delta",
            DELTA_EDIT,
            r#","prev":10"#,
        )));
        assert!(again.contains("\"cache\":\"hit\""), "{again}");
    }

    #[test]
    fn analyze_delta_without_seed_falls_back_to_full_miss() {
        let e = engine();
        let resp = e.handle(&parse(&analyze_line(
            20,
            "analyze-delta",
            DELTA_EDIT,
            r#","prev":999"#,
        )));
        assert!(
            resp.contains("\"cache\":\"miss\""),
            "unknown seed must fall back to a cold full solve: {resp}"
        );
        let cold = e.handle(&parse(&analyze_line(21, "analyze", DELTA_EDIT, "")));
        assert_eq!(result_of(&resp), result_of(&cold));
    }

    #[test]
    fn analyze_delta_seed_config_mismatch_falls_back() {
        let e = engine();
        assert!(e
            .handle(&parse(&analyze_line(30, "analyze", DELTA_BASE, "")))
            .contains("\"cache\":\"miss\""));
        // Same prev id, different dep set: the seed must be rejected.
        let resp = e.handle(&parse(&format!(
            r#"{{"id":31,"kind":"analyze-delta","source":"{DELTA_EDIT}","ind":["x"],"dep":["t"],"solver":"region","prev":30}}"#
        )));
        assert!(
            resp.contains("\"cache\":\"miss\""),
            "config mismatch must not transplant: {resp}"
        );
    }

    #[test]
    fn demand_query_answers_from_a_slice_and_keys_separately() {
        let e = engine();
        // Warm the full-solve cache first: the demand request must NOT be
        // served from it (different key), and vice versa.
        let full = e.handle(&parse(&analyze_line(40, "analyze", DELTA_BASE, "")));
        assert!(full.contains("\"cache\":\"miss\""), "{full}");
        let demand = e.handle(&parse(&analyze_line(
            41,
            "analyze",
            DELTA_BASE,
            r#","at":0"#,
        )));
        assert!(
            demand.contains("\"cache\":\"miss\""),
            "demand must never alias the full-solve entry: {demand}"
        );
        assert!(demand.contains("\"mode\":\"demand\""), "{demand}");
        assert!(demand.contains("\"regions_total\":"), "{demand}");
        assert!(demand.contains("\"nodes_visited\":"), "{demand}");
        // Repeat hits the demand entry; full analyze still hits its own.
        let warm = e.handle(&parse(&analyze_line(
            42,
            "analyze",
            DELTA_BASE,
            r#","at":0"#,
        )));
        assert!(warm.contains("\"cache\":\"hit\""), "{warm}");
        assert!(e
            .handle(&parse(&analyze_line(43, "analyze", DELTA_BASE, "")))
            .contains("\"cache\":\"hit\""));
        // Out-of-range nodes are a structured error.
        let err = e.handle(&parse(&analyze_line(
            44,
            "analyze",
            DELTA_BASE,
            r#","at":100000"#,
        )));
        assert!(err.contains("out of range"), "{err}");
    }

    #[test]
    fn single_sub_edit_reuses_all_other_proc_cfgs() {
        // The incremental-reuse acceptance criterion, on the real LU
        // benchmark: edit ONE subroutine (the paper's `rhs` driver context
        // keeps working), re-analyze, and every *other* procedure's CFG
        // must come from the cache even though the edit shifts every
        // following subroutine's statement ids.
        let e = engine();
        let lu = programs::source("lu").unwrap();
        let n_subs = {
            let ir = e.ir_for(lu).unwrap();
            ir.cfgs.len()
        };
        assert!(n_subs >= 3, "LU has several procedures: {n_subs}");
        let before = e.caches().cfgs.counters().snapshot();
        assert_eq!(before.insertions as usize, n_subs, "cold build stores all");

        // Edit the body of the FIRST subroutine in the file (worst case for
        // statement-id shifting: every later sub's ids move).
        let first_sub_at = lu.find("sub ").expect("lu has subs");
        let insert_at = lu[first_sub_at..].find('{').unwrap() + first_sub_at + 1;
        let edited = format!(
            "{} print(1.0); print(2.0); {}",
            &lu[..insert_at],
            &lu[insert_at..]
        );
        let ir2 = e.ir_for(&edited).unwrap();
        assert_eq!(ir2.cfgs.len(), n_subs);
        let after = e.caches().cfgs.counters().snapshot();
        assert_eq!(
            (after.hits - before.hits) as usize,
            n_subs - 1,
            "all but the edited procedure reuse their CFG"
        );
        assert_eq!(
            (after.insertions - before.insertions) as usize,
            1,
            "only the edited procedure re-lowers"
        );

        // The transplanted CFGs carry correctly rebased statement ids:
        // lowering from scratch must agree exactly.
        let fresh = ProgramIr::from_source(&edited).unwrap();
        for (a, b) in ir2.cfgs.iter().zip(fresh.cfgs.iter()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.num_nodes(), b.num_nodes());
            for (na, nb) in a.nodes.iter().zip(b.nodes.iter()) {
                assert_eq!(na.stmt, nb.stmt, "stmt ids rebased exactly in {}", a.name);
            }
        }
    }
}
