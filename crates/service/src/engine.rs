//! The query engine: executes one protocol request against the cached
//! pipeline.
//!
//! Layering per request (all misses fall through, all hits short-circuit):
//!
//! ```text
//! result LRU ── result disk store ── IR LRU ── compile/lower ── solve
//! ```
//!
//! Determinism contract: for any request without a wall-clock budget, the
//! rendered `result` object is a pure function of the request fields and
//! the program text — it contains **no wall-clock measurements**, so a
//! cache hit is byte-identical to a recompute and batch output does not
//! depend on worker-pool size. Requests with `budget_ms` are answered but
//! never cached (`cache: "bypass"`).

use crate::admission::{AdmissionConfig, AdmissionControl};
use crate::cache::{ir_weight, result_key, source_key, ServiceCaches, RESULTS_NAMESPACE};
use crate::proto::{CacheStatus, ProtoError, Request, RequestKind};
use crate::slo::SloRegistry;
use mpi_dfa_analyses::activity::{self, demand_active_at, ActivityConfig, ActivityResult, Mode};
use mpi_dfa_analyses::governor::{governed_activity, AnalysisProvenance, GovernorConfig, Tier};
use mpi_dfa_analyses::mpi_match::build_mpi_icfg_with_budget;
use mpi_dfa_core::budget::{Budget, Exhaustion};
use mpi_dfa_core::cache::{DiskStore, FsckReport, SharedLru};
use mpi_dfa_core::graph::NodeId;
use mpi_dfa_core::json::escape;
use mpi_dfa_core::solver::SolveParams;
use mpi_dfa_core::telemetry;
use mpi_dfa_graph::icfg::{Icfg, ProgramIr};
use mpi_dfa_graph::loc::LocTable;
use mpi_dfa_suite::experiments::{by_id, ExperimentSpec};
use mpi_dfa_suite::programs;
use mpi_dfa_suite::runner;
use std::fmt::Write as _;
use std::sync::Arc;

/// Default `--cache-mem`: MiB per in-memory cache layer.
pub const DEFAULT_CACHE_MIB: usize = 16;

/// Engine construction parameters.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Byte budget per in-memory cache layer (`--cache-mem` MiB); 0
    /// disables in-memory caching.
    pub cache_bytes: usize,
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
            cache_bytes: DEFAULT_CACHE_MIB << 20,
            cache_dir: None,
            admission: AdmissionConfig::default(),
            shard_id: None,
        }
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
            caches: ServiceCaches::new(config.cache_bytes, disk),
            admission: AdmissionControl::new(config.admission),
            fsck,
            shard_id: config.shard_id,
            slo: SloRegistry::new(),
        })
    }

    /// The cache layers (tests read their counters).
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
        match crate::proto::read_request(line) {
            Ok(req) => self.handle(&req),
            Err(resp) => resp,
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
                        self.caches.results.put(key, result.clone(), result.len());
                        span.arg("layer", "disk");
                        return Ok((CacheStatus::Hit, result));
                    }
                }
            }
        }

        let result = self.compute(req, &source, &context, spec.as_ref(), floor)?;

        match key {
            // A load-shedding floor produces a possibly degraded answer:
            // never store it under the precise request's key.
            Some(_) if floor > Tier::T0 => Ok((CacheStatus::Bypass, result)),
            Some(key) => {
                self.caches.results.put(key, result.clone(), result.len());
                if let Some(disk) = &self.caches.disk {
                    // Best-effort: a failed spill only costs future misses.
                    let _ = disk.put(RESULTS_NAMESPACE, key, result.as_bytes());
                }
                Ok((CacheStatus::Miss, result))
            }
            None => Ok((CacheStatus::Bypass, result)),
        }
    }

    /// Deterministic-key-order JSON for the `cache-stats` verb: admission
    /// counters, per-layer cache counters with the bytes held and the
    /// layer's budget, and the startup fsck report. Values are live
    /// counters, so the verb always bypasses the cache.
    fn render_cache_stats(&self) -> String {
        fn layer<V: Clone>(lru: &SharedLru<V>) -> String {
            let s = lru.counters().snapshot();
            format!(
                "{{\"hits\":{},\"misses\":{},\"insertions\":{},\"evictions\":{},\
                 \"bytes\":{},\"budget_bytes\":{}}}",
                s.hits,
                s.misses,
                s.insertions,
                s.evictions,
                lru.bytes(),
                lru.budget()
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
            "{{\"shard\":{shard},\"admission\":{admission},\"caches\":{{\"ir\":{},\
             \"result\":{},\"disk\":{disk}}},\"fsck\":{fsck}}}",
            layer(&self.caches.irs),
            layer(&self.caches.results),
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

    /// Fetch the [`ProgramIr`] for `source` from the IR layer, or compile
    /// and lower it whole.
    fn ir_for(&self, source: &str) -> Result<Arc<ProgramIr>, ProtoError> {
        let key = source_key(source);
        if let Some(ir) = self.caches.irs.get(key) {
            return Ok(ir);
        }
        let ir = ProgramIr::from_source(source)
            .map_err(|e| ProtoError::new("compile", e.to_string()))?;
        self.caches.irs.put(key, ir.clone(), ir_weight(&ir));
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

    /// Compute one response payload.
    fn compute(
        &self,
        req: &Request,
        source: &str,
        context: &str,
        spec: Option<&ExperimentSpec>,
        floor: Tier,
    ) -> Result<String, ProtoError> {
        match req.kind {
            RequestKind::Analyze if req.at.is_some() => {
                self.compute_demand(req, source, context, floor)
            }
            RequestKind::AnalyzeDelta if req.mode != "mpi" => Err(ProtoError::new(
                "bad-request",
                "kind `analyze-delta` supports only mode `mpi`",
            )),
            // `analyze-delta` is kept for protocol compatibility: it is a
            // cold `analyze` of its source (`prev` is read by nothing),
            // cached under its own kind.
            RequestKind::Analyze | RequestKind::AnalyzeDelta => {
                let ir = self.ir_for(source)?;
                let (result, provenance) = self.run_activity(req, &ir, context, floor)?;
                Ok(render_activity(
                    req,
                    &ir,
                    context,
                    &result,
                    provenance.as_ref(),
                ))
            }
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
                Ok(format!(
                    "{{\"var\":\"{}\",\"location\":\"{}\",\"active\":{},\"byte_size\":{},\"tier\":{}}}",
                    escape(var),
                    escape(&ir.locs.qualified_name(loc)),
                    result.active.contains(loc.index()),
                    info.byte_size(),
                    provenance
                        .as_ref()
                        .map(|p| format!("\"{}\"", p.tier))
                        .unwrap_or_else(|| "null".to_string()),
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
                Ok(format!(
                    "{{\"context\":\"{}\",\"comm_edges\":{},\"dot\":\"{}\"}}",
                    escape(context),
                    mpi.comm_edges.len(),
                    escape(&dot)
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
                Ok(mpi_dfa_verify::render_json(&report))
            }
            RequestKind::Table1Row => {
                let spec = spec.expect("resolve_source sets the spec for table1-row");
                let gov = self.governor(req, floor);
                let row = runner::run_experiment_governed(spec, &gov)
                    .map_err(|e| Self::analysis_error(req, e))?;
                Ok(render_row(&row))
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
    ) -> Result<String, ProtoError> {
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
        Ok(format!(
            "{{\"context\":\"{}\",\"at\":{at},\"mode\":\"demand\",\"independents\":{},\
             \"dependents\":{},\"active_at\":{active},\"regions_total\":{},\
             \"regions_solved\":{},\"nodes_visited\":{}}}",
            escape(context),
            render_str_list(&req.ind),
            render_str_list(&req.dep),
            d.regions_total,
            d.regions_solved,
            d.nodes_visited,
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
        let parsed = mpi_dfa_core::json::parse(&second).unwrap();
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
    fn verify_of_mod_by_minus_one_answers_and_the_engine_lives_on() {
        // `i64::MIN mod -1` is 0 in every run and every fold; it used to
        // panic the worker, answering `internal`.
        let e = engine();
        let source = "program m\\n\
                      global x: real;\\n\
                      sub main() {\\n\
                        x = mod(0 - 9223372036854775807 - 1, 0 - 1);\\n\
                        if (rank() == 0) { send(x, 1, 7); } else { recv(x, 0, 7); }\\n\
                        print(x);\\n\
                      }\\n";
        let r = e.handle_line(&format!(
            r#"{{"id":1,"kind":"verify","source":"{source}","schedules":2}}"#
        ));
        assert!(r.contains("\"ok\":true"), "{r}");
        assert!(r.contains("\"verdict\":\"safe\""), "{r}");
        assert!(r.contains("\"outcome\":\"consistent-safe\""), "{r}");
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
        let parsed = mpi_dfa_core::json::parse(&r).unwrap();
        let result = parsed.get("result").unwrap();
        let admission = result.get("admission").unwrap();
        assert_eq!(admission.get("inflight").unwrap().as_u64(), Some(0));
        assert_eq!(admission.get("tier_floor").unwrap().as_str(), Some("T0"));
        let caches = result.get("caches").unwrap();
        assert!(caches.get("result").unwrap().get("insertions").is_some());
        // No --cache-dir: disk and fsck are null.
        assert_eq!(caches.get("disk"), Some(&mpi_dfa_core::json::Json::Null));
        assert_eq!(result.get("fsck"), Some(&mpi_dfa_core::json::Json::Null));
    }

    #[test]
    fn distinct_programs_stay_within_a_one_mib_budget_and_evict() {
        const BUDGET: usize = 1 << 20;
        let e = Engine::new(EngineConfig {
            cache_bytes: BUDGET,
            ..Default::default()
        })
        .unwrap();
        let base = programs::source("figure1").unwrap();
        // figure1's IR weighs about 26 KB, so 64 distinct texts overflow
        // the IR layer about one and a half times.
        for i in 0..64 {
            let source = format!("{base}{}", "\n".repeat(i));
            let resp = e.handle(&parse(&format!(
                r#"{{"id":{i},"kind":"analyze","source":"{}","ind":["x"],"dep":["f"]}}"#,
                escape(&source)
            )));
            assert!(resp.contains("\"cache\":\"miss\""), "{resp}");
            for lru in [e.caches().irs.bytes(), e.caches().results.bytes()] {
                assert!(lru <= BUDGET, "a layer holds {lru} bytes");
            }
        }
        let irs = e.caches().irs.counters().snapshot();
        assert_eq!(irs.insertions, 64);
        assert!(irs.evictions > 0, "{irs:?}");
        assert_eq!(
            e.caches().irs.bytes(),
            (irs.insertions - irs.evictions) as usize * ir_weight(&e.ir_for(base).unwrap()),
            "every text weighs what figure1 does"
        );
        let stats = e.handle(&parse(r#"{"id":99,"kind":"cache-stats"}"#));
        let parsed = mpi_dfa_core::json::parse(&stats).unwrap();
        let ir = parsed
            .get("result")
            .unwrap()
            .get("caches")
            .unwrap()
            .get("ir")
            .unwrap();
        assert_eq!(
            ir.get("budget_bytes").unwrap().as_u64(),
            Some(BUDGET as u64)
        );
        assert!(ir.get("bytes").unwrap().as_u64().unwrap() <= BUDGET as u64);
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
            r#"{{"id":{id},"kind":"{kind}","source":"{source}","ind":["x"],"dep":["f"]{extra}}}"#
        )
    }

    /// The `result` object of a response line (the envelope's `kind` and
    /// `cache` legitimately differ between a delta and a cold analyze).
    fn result_of(resp: &str) -> &str {
        resp.split_once("\"result\":").expect("ok response").1
    }

    #[test]
    fn analyze_delta_is_a_cold_analyze_under_its_own_key() {
        let e = engine();
        let base = e.handle(&parse(&analyze_line(10, "analyze", DELTA_BASE, "")));
        assert!(base.contains("\"cache\":\"miss\""), "{base}");
        let delta = e.handle(&parse(&analyze_line(
            11,
            "analyze-delta",
            DELTA_EDIT,
            r#","prev":10"#,
        )));
        assert!(delta.contains("\"cache\":\"miss\""), "{delta}");
        assert!(delta.contains("\"tier\":\"T0\""), "{delta}");
        // A cold analyze of the edited source has its own key (the kind is
        // folded in) and renders the exact same result.
        let cold = e.handle(&parse(&analyze_line(12, "analyze", DELTA_EDIT, "")));
        assert!(cold.contains("\"cache\":\"miss\""), "{cold}");
        assert_eq!(result_of(&delta), result_of(&cold));
        // `prev` is not part of the key: any id hits the delta's entry.
        let again = e.handle(&parse(&analyze_line(
            13,
            "analyze-delta",
            DELTA_EDIT,
            r#","prev":999"#,
        )));
        assert!(again.contains("\"cache\":\"hit\""), "{again}");
        assert_eq!(result_of(&again), result_of(&cold));
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
}
