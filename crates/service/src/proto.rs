//! The JSONL request/response protocol shared by `mpidfa batch` and
//! `mpidfa serve`.
//!
//! One request per line, one response line per request, **responses carry
//! the request's `id` and appear in input order** (batch) or arrival order
//! (serve). The full field reference lives in `docs/SERVING.md`; the key
//! invariants enforced here:
//!
//! * a line longer than [`MAX_LINE_BYTES`] (the same 16 MiB cap the lexer
//!   puts on source files) is rejected with a structured `too-large` error
//!   — never buffered further;
//! * unknown request kinds and unknown fields produce structured errors,
//!   not panics or silent drops (the protocol fuzz corpus leans on this);
//! * responses are rendered with a **fixed key order** and contain no
//!   wall-clock fields, so a batch run is byte-identical across worker
//!   pool sizes and repeated runs.

use crate::json::{self, Json};
use mpi_dfa_analyses::governor::DegradeMode;
use mpi_dfa_analyses::mpi_match::Matching;
use mpi_dfa_core::solver::Strategy;
use mpi_dfa_core::telemetry;

/// Hard cap on one request line, reusing the lexer's source cap: a request
/// embedding the largest acceptable program still fits, anything bigger is
/// rejected before parsing.
pub const MAX_LINE_BYTES: usize = mpi_dfa_lang::lexer::MAX_SOURCE_BYTES;

/// A structured protocol error (the `error` object of a failure response).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// Stable machine-readable code (`parse`, `too-large`, `bad-request`,
    /// `unknown-kind`, `unknown-program`, `unknown-row`, `compile`,
    /// `analysis`, `unsupported`, `internal`, `overloaded`,
    /// `deadline-exceeded`).
    pub code: &'static str,
    pub message: String,
    /// Backoff hint in milliseconds, set on `overloaded` sheds so clients
    /// can retry politely instead of hammering a saturated server.
    pub retry_after_ms: Option<u64>,
}

impl ProtoError {
    pub fn new(code: &'static str, message: impl Into<String>) -> Self {
        ProtoError {
            code,
            message: message.into(),
            retry_after_ms: None,
        }
    }

    /// Attach a `retry_after_ms` backoff hint (rendered into the error
    /// object of the response line).
    pub fn with_retry_after(mut self, ms: u64) -> Self {
        self.retry_after_ms = Some(ms);
        self
    }

    fn bad(message: impl Into<String>) -> Self {
        Self::new("bad-request", message)
    }
}

/// What a request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// Full activity analysis of a program.
    Analyze,
    /// Incremental activity analysis: re-analyze an edited source seeded
    /// by the solver regions of a previous `analyze` response (`prev`
    /// names that response's request id). Answers are **byte-identical**
    /// to a cold `analyze` of the same source; provenance is
    /// `cache: "partial"` when regions were transplanted, `"miss"` when
    /// the engine fell back to a full solve.
    AnalyzeDelta,
    /// One Table-1 experiment row by id.
    Table1Row,
    /// Is one named variable in the active set?
    ActivityAtLocation,
    /// DOT rendering of the MPI-ICFG.
    Dot,
    /// Static correctness suite (match-set, MHP, deadlock) plus the
    /// schedule-explorer cross-check. The report is deterministic — no
    /// wall-clock fields, seeded exploration — so it caches like any
    /// analysis result.
    Verify,
    /// Liveness probe; answered without touching the pipeline.
    Ping,
    /// Ask a server to stop accepting connections (serve mode only).
    Shutdown,
    /// Introspection: cache/admission counters and the startup fsck report
    /// (serve mode only; deliberately not answerable in batch, where the
    /// counters would depend on pool size and break output determinism).
    CacheStats,
    /// Observability: Prometheus-format telemetry metrics plus SLO latency
    /// histograms. On a worker this is the process-local view; on the
    /// router it is the order-independently merged cluster view. Serve
    /// mode only, for the same determinism reason as `cache-stats`.
    Metrics,
}

impl RequestKind {
    pub fn as_str(self) -> &'static str {
        match self {
            RequestKind::Analyze => "analyze",
            RequestKind::AnalyzeDelta => "analyze-delta",
            RequestKind::Table1Row => "table1-row",
            RequestKind::ActivityAtLocation => "activity-at-location",
            RequestKind::Dot => "dot",
            RequestKind::Verify => "verify",
            RequestKind::Ping => "ping",
            RequestKind::Shutdown => "shutdown",
            RequestKind::CacheStats => "cache-stats",
            RequestKind::Metrics => "metrics",
        }
    }

    fn parse(s: &str) -> Option<RequestKind> {
        Some(match s {
            "analyze" => RequestKind::Analyze,
            "analyze-delta" => RequestKind::AnalyzeDelta,
            "table1-row" => RequestKind::Table1Row,
            "activity-at-location" => RequestKind::ActivityAtLocation,
            "dot" => RequestKind::Dot,
            "verify" => RequestKind::Verify,
            "ping" => RequestKind::Ping,
            "shutdown" => RequestKind::Shutdown,
            "cache-stats" => RequestKind::CacheStats,
            "metrics" => RequestKind::Metrics,
            _ => return None,
        })
    }
}

/// Distributed trace context carried by a request's `trace` field:
/// `{"trace":{"id":"<32 hex>","parent":N,"attempt":N}}`. Minted by the
/// router (or by a client such as `serve_client.py`); `parent` is the span
/// id of the caller's span in *its* process, `attempt` counts hedged
/// retries (0 = first try). Like `id` and `solver`, the trace context is
/// deliberately **not** part of any cache key: tracing a request must not
/// change what it computes or whether it hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    pub id: u128,
    pub parent: u64,
    pub attempt: u64,
}

impl TraceCtx {
    /// Render as the canonical `trace` field value (fixed key order).
    pub fn render(&self) -> String {
        format!(
            "{{\"id\":\"{:032x}\",\"parent\":{},\"attempt\":{}}}",
            self.id, self.parent, self.attempt
        )
    }
}

/// A validated protocol request. Every analysis-configuration field is part
/// of the result cache key (see `cache::result_key`): two requests that
/// differ in any of them can never share a cached result.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub id: u64,
    pub kind: RequestKind,
    /// Bundled benchmark name (`figure1`, `biostat`, …). Exclusive with
    /// `source`.
    pub program: Option<String>,
    /// Inline SMPL source. Exclusive with `program`.
    pub source: Option<String>,
    pub context: Option<String>,
    pub clone_level: usize,
    pub ind: Vec<String>,
    pub dep: Vec<String>,
    /// Variable name for `activity-at-location`.
    pub var: Option<String>,
    /// Row id for `table1-row`.
    pub row: Option<String>,
    /// Simulated process count for `verify` (rank guards, range checks,
    /// schedule exploration). Part of the cache key.
    pub nprocs: Option<u64>,
    /// Adversarial schedules for the `verify` cross-check (0 disables
    /// exploration). Part of the cache key.
    pub schedules: Option<u64>,
    pub matching: Matching,
    /// `mpi` | `global` | `naive` (communication model for `analyze`).
    pub mode: String,
    /// Wall-clock budget. **Nondeterministic**: its presence forces the
    /// result cache to bypass (`cache: "bypass"`).
    pub budget_ms: Option<u64>,
    /// End-to-end deadline for the request. Like `budget_ms` it is a
    /// wall-clock bound and forces a cache bypass; unlike `budget_ms`
    /// (which degrades via the governor ladder) non-governed paths answer
    /// a structured `deadline-exceeded` error when it expires. The engine
    /// uses the *minimum* of the two when both are set.
    pub deadline_ms: Option<u64>,
    pub max_visits: Option<u64>,
    pub max_fact_bytes: Option<u64>,
    pub degrade: DegradeMode,
    pub max_passes: Option<u64>,
    /// Fixpoint strategy (`round-robin` | `region`). Deliberately **not**
    /// part of the result cache key: every strategy produces identical
    /// facts (`docs/SOLVER.md`), so a result computed under one strategy is
    /// a valid hit for any other.
    pub solver: Option<Strategy>,
    /// For `analyze-delta`: the request id of a previous `analyze`
    /// response whose solver regions seed the re-solve. Deliberately
    /// **not** part of the result cache key — incremental answers are
    /// byte-identical to cold ones, so which seed produced a result must
    /// not fragment the cache.
    pub prev: Option<u64>,
    /// Demand-driven query: answer activity only *at* this ICFG node
    /// (global node index), solving just the upstream region slice.
    /// **Part of the cache key** — a demand answer is a different result
    /// shape than a whole-program one and must never alias it.
    pub at: Option<u64>,
    /// Distributed trace context. Excluded from cache keys (see
    /// [`TraceCtx`]); forwarded by the router with a bumped `attempt`.
    pub trace: Option<TraceCtx>,
}

impl Request {
    fn with_defaults(id: u64, kind: RequestKind) -> Request {
        Request {
            id,
            kind,
            program: None,
            source: None,
            context: None,
            clone_level: 0,
            ind: Vec::new(),
            dep: Vec::new(),
            var: None,
            row: None,
            nprocs: None,
            schedules: None,
            matching: Matching::ReachingConstants,
            mode: "mpi".to_string(),
            budget_ms: None,
            deadline_ms: None,
            max_visits: None,
            max_fact_bytes: None,
            degrade: DegradeMode::Auto,
            max_passes: None,
            solver: None,
            prev: None,
            at: None,
            trace: None,
        }
    }

    pub fn degrade_str(&self) -> &'static str {
        match self.degrade {
            DegradeMode::Auto => "auto",
            DegradeMode::Off => "off",
        }
    }

    pub fn matching_str(&self) -> &'static str {
        match self.matching {
            Matching::Naive => "naive",
            Matching::Syntactic => "syntactic",
            Matching::ReachingConstants => "consts",
        }
    }
}

fn str_field(v: &Json, name: &str) -> Result<String, ProtoError> {
    v.as_str()
        .map(String::from)
        .ok_or_else(|| ProtoError::bad(format!("field `{name}` must be a string")))
}

fn u64_field(v: &Json, name: &str) -> Result<u64, ProtoError> {
    v.as_u64()
        .ok_or_else(|| ProtoError::bad(format!("field `{name}` must be a non-negative integer")))
}

fn list_field(v: &Json, name: &str) -> Result<Vec<String>, ProtoError> {
    let items = v
        .as_array()
        .ok_or_else(|| ProtoError::bad(format!("field `{name}` must be an array of strings")))?;
    items
        .iter()
        .map(|x| {
            x.as_str()
                .map(String::from)
                .ok_or_else(|| ProtoError::bad(format!("field `{name}` must contain only strings")))
        })
        .collect()
}

/// Parse and validate one request line. Enforces the line cap, rejects
/// non-object payloads, unknown kinds, and unknown fields — all as
/// structured [`ProtoError`]s.
pub fn parse_request(line: &str) -> Result<Request, ProtoError> {
    if line.len() > MAX_LINE_BYTES {
        return Err(ProtoError::new(
            "too-large",
            format!(
                "request line is {} bytes; the limit is {} bytes",
                line.len(),
                MAX_LINE_BYTES
            ),
        ));
    }
    let value = json::parse(line).map_err(|e| ProtoError::new("parse", e.to_string()))?;
    let Json::Obj(fields) = &value else {
        return Err(ProtoError::bad("request must be a JSON object"));
    };

    let id = match value.get("id") {
        Some(v) => u64_field(v, "id")?,
        None => return Err(ProtoError::bad("missing required field `id`")),
    };
    let kind_str = match value.get("kind") {
        Some(v) => str_field(v, "kind")?,
        None => return Err(ProtoError::bad("missing required field `kind`")),
    };
    let Some(kind) = RequestKind::parse(&kind_str) else {
        return Err(ProtoError::new(
            "unknown-kind",
            format!(
                "unknown request kind `{kind_str}` (expected analyze | table1-row | \
                 analyze-delta | activity-at-location | dot | verify | ping | shutdown | \
                 cache-stats | metrics)"
            ),
        ));
    };

    let mut req = Request::with_defaults(id, kind);
    for (key, v) in fields {
        match key.as_str() {
            "id" | "kind" => {}
            "program" => req.program = Some(str_field(v, key)?),
            "source" => req.source = Some(str_field(v, key)?),
            "context" => req.context = Some(str_field(v, key)?),
            "clone" => req.clone_level = u64_field(v, key)? as usize,
            "ind" => req.ind = list_field(v, key)?,
            "dep" => req.dep = list_field(v, key)?,
            "var" => req.var = Some(str_field(v, key)?),
            "row" => req.row = Some(str_field(v, key)?),
            "nprocs" => req.nprocs = Some(u64_field(v, key)?),
            "schedules" => req.schedules = Some(u64_field(v, key)?),
            "matching" => {
                req.matching = match str_field(v, key)?.as_str() {
                    "naive" => Matching::Naive,
                    "syntactic" => Matching::Syntactic,
                    "consts" => Matching::ReachingConstants,
                    other => {
                        return Err(ProtoError::bad(format!(
                            "unknown matching `{other}` (naive | syntactic | consts)"
                        )))
                    }
                }
            }
            "mode" => {
                let m = str_field(v, key)?;
                if !matches!(m.as_str(), "mpi" | "global" | "naive") {
                    return Err(ProtoError::bad(format!(
                        "unknown mode `{m}` (mpi | global | naive)"
                    )));
                }
                req.mode = m;
            }
            "budget_ms" => req.budget_ms = Some(u64_field(v, key)?),
            "deadline_ms" => req.deadline_ms = Some(u64_field(v, key)?),
            "max_visits" => req.max_visits = Some(u64_field(v, key)?),
            "max_fact_bytes" => req.max_fact_bytes = Some(u64_field(v, key)?),
            "degrade" => {
                req.degrade = match str_field(v, key)?.as_str() {
                    "auto" => DegradeMode::Auto,
                    "off" => DegradeMode::Off,
                    other => {
                        return Err(ProtoError::bad(format!(
                            "unknown degrade `{other}` (auto | off)"
                        )))
                    }
                }
            }
            "max_passes" => req.max_passes = Some(u64_field(v, key)?),
            "solver" => {
                req.solver = Some(Strategy::parse(&str_field(v, key)?).map_err(ProtoError::bad)?)
            }
            "prev" => req.prev = Some(u64_field(v, key)?),
            "at" => req.at = Some(u64_field(v, key)?),
            "trace" => {
                let Json::Obj(sub) = v else {
                    return Err(ProtoError::bad("field `trace` must be an object"));
                };
                let mut ctx = TraceCtx {
                    id: 0,
                    parent: 0,
                    attempt: 0,
                };
                let mut have_id = false;
                for (k, sv) in sub {
                    match k.as_str() {
                        "id" => {
                            let s = str_field(sv, "trace.id")?;
                            ctx.id = telemetry::parse_trace_id(&s).ok_or_else(|| {
                                ProtoError::bad(
                                    "field `trace.id` must be a hex trace id (1-32 digits)",
                                )
                            })?;
                            have_id = true;
                        }
                        "parent" => ctx.parent = u64_field(sv, "trace.parent")?,
                        "attempt" => ctx.attempt = u64_field(sv, "trace.attempt")?,
                        other => {
                            return Err(ProtoError::bad(format!("unknown field `trace.{other}`")))
                        }
                    }
                }
                if !have_id {
                    return Err(ProtoError::bad("field `trace` requires `id`"));
                }
                req.trace = Some(ctx);
            }
            other => {
                return Err(ProtoError::bad(format!("unknown field `{other}`")));
            }
        }
    }

    if req.program.is_some() && req.source.is_some() {
        return Err(ProtoError::bad(
            "fields `program` and `source` are mutually exclusive",
        ));
    }
    match kind {
        RequestKind::Analyze
        | RequestKind::AnalyzeDelta
        | RequestKind::ActivityAtLocation
        | RequestKind::Dot
        | RequestKind::Verify => {
            if req.program.is_none() && req.source.is_none() {
                return Err(ProtoError::bad(format!(
                    "kind `{}` requires `program` or `source`",
                    kind.as_str()
                )));
            }
        }
        RequestKind::Table1Row => {
            if req.row.is_none() {
                return Err(ProtoError::bad("kind `table1-row` requires `row`"));
            }
        }
        RequestKind::Ping
        | RequestKind::Shutdown
        | RequestKind::CacheStats
        | RequestKind::Metrics => {}
    }
    if kind == RequestKind::ActivityAtLocation && req.var.is_none() {
        return Err(ProtoError::bad(
            "kind `activity-at-location` requires `var`",
        ));
    }
    if kind == RequestKind::AnalyzeDelta && req.prev.is_none() {
        return Err(ProtoError::bad("kind `analyze-delta` requires `prev`"));
    }
    if req.at.is_some() && !matches!(kind, RequestKind::Analyze) {
        return Err(ProtoError::bad(
            "field `at` is only valid on kind `analyze`",
        ));
    }
    // The verify cross-check spawns `nprocs` interpreter threads per
    // schedule, so unbounded values are a resource hazard on a server.
    if let Some(n) = req.nprocs {
        if n == 0 || n > 64 {
            return Err(ProtoError::bad("field `nprocs` must be in 1..=64"));
        }
    }
    if let Some(k) = req.schedules {
        if k > 256 {
            return Err(ProtoError::bad("field `schedules` must be at most 256"));
        }
    }
    Ok(req)
}

/// Render a validated request back to one canonical JSONL line that
/// [`parse_request`] accepts and parses to an equal [`Request`]. The
/// router uses this to forward a request with an injected/bumped `trace`
/// field instead of splicing text into the raw client line. Fields appear
/// in a fixed order and defaults are omitted, so the output is
/// deterministic for a given request.
pub fn render_request(req: &Request) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(96);
    let _ = write!(
        out,
        "{{\"id\":{},\"kind\":\"{}\"",
        req.id,
        req.kind.as_str()
    );
    let str_f = |out: &mut String, key: &str, v: &Option<String>| {
        if let Some(s) = v {
            let _ = write!(out, ",\"{key}\":\"{}\"", json::escape(s));
        }
    };
    str_f(&mut out, "program", &req.program);
    str_f(&mut out, "source", &req.source);
    str_f(&mut out, "context", &req.context);
    if req.clone_level != 0 {
        let _ = write!(out, ",\"clone\":{}", req.clone_level);
    }
    let list_f = |out: &mut String, key: &str, v: &[String]| {
        if v.is_empty() {
            return;
        }
        let _ = write!(out, ",\"{key}\":[");
        for (i, s) in v.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\"", json::escape(s));
        }
        out.push(']');
    };
    list_f(&mut out, "ind", &req.ind);
    list_f(&mut out, "dep", &req.dep);
    str_f(&mut out, "var", &req.var);
    str_f(&mut out, "row", &req.row);
    let u64_opt = |out: &mut String, key: &str, v: Option<u64>| {
        if let Some(n) = v {
            let _ = write!(out, ",\"{key}\":{n}");
        }
    };
    u64_opt(&mut out, "nprocs", req.nprocs);
    u64_opt(&mut out, "schedules", req.schedules);
    if req.matching != Matching::ReachingConstants {
        let _ = write!(out, ",\"matching\":\"{}\"", req.matching_str());
    }
    if req.mode != "mpi" {
        let _ = write!(out, ",\"mode\":\"{}\"", json::escape(&req.mode));
    }
    let u64_f = |out: &mut String, key: &str, v: Option<u64>| {
        if let Some(n) = v {
            let _ = write!(out, ",\"{key}\":{n}");
        }
    };
    u64_f(&mut out, "budget_ms", req.budget_ms);
    u64_f(&mut out, "deadline_ms", req.deadline_ms);
    u64_f(&mut out, "max_visits", req.max_visits);
    u64_f(&mut out, "max_fact_bytes", req.max_fact_bytes);
    if req.degrade != DegradeMode::Auto {
        let _ = write!(out, ",\"degrade\":\"{}\"", req.degrade_str());
    }
    u64_f(&mut out, "max_passes", req.max_passes);
    if let Some(s) = req.solver {
        let _ = write!(out, ",\"solver\":\"{s}\"");
    }
    u64_f(&mut out, "prev", req.prev);
    u64_f(&mut out, "at", req.at);
    if let Some(t) = &req.trace {
        let _ = write!(out, ",\"trace\":{}", t.render());
    }
    out.push('}');
    out
}

/// How the result cache participated in a response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    /// Served from the in-memory or on-disk result cache.
    Hit,
    /// Computed and stored.
    Miss,
    /// Computed and **not** cached (wall-clock budget present, or the kind
    /// has no cacheable result).
    Bypass,
    /// Computed **incrementally**: the solve was seeded from a previous
    /// result and only invalidated regions were re-solved; the answer is
    /// byte-identical to a cold `miss` and is stored like one.
    Partial,
}

impl CacheStatus {
    pub fn as_str(self) -> &'static str {
        match self {
            CacheStatus::Hit => "hit",
            CacheStatus::Miss => "miss",
            CacheStatus::Bypass => "bypass",
            CacheStatus::Partial => "partial",
        }
    }
}

/// Render a success response. `result_json` must already be valid JSON.
/// Fixed key order: `id`, `ok`, `kind`, `cache`, `result`.
pub fn render_ok(id: u64, kind: RequestKind, cache: CacheStatus, result_json: &str) -> String {
    format!(
        "{{\"id\":{id},\"ok\":true,\"kind\":\"{}\",\"cache\":\"{}\",\"result\":{result_json}}}",
        kind.as_str(),
        cache.as_str()
    )
}

/// Render a failure response. Fixed key order: `id`, `ok`, `error`
/// (`code`, `message`, then `retry_after_ms` when present). `id` 0 is used
/// when the line never parsed far enough to yield one.
pub fn render_err(id: u64, e: &ProtoError) -> String {
    let retry = match e.retry_after_ms {
        Some(ms) => format!(",\"retry_after_ms\":{ms}"),
        None => String::new(),
    };
    format!(
        "{{\"id\":{id},\"ok\":false,\"error\":{{\"code\":\"{}\",\"message\":\"{}\"{retry}}}}}",
        e.code,
        json::escape(&e.message)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_analyze_request_parses_with_defaults() {
        let r = parse_request(
            r#"{"id":1,"kind":"analyze","program":"figure1","ind":["x"],"dep":["f"]}"#,
        )
        .unwrap();
        assert_eq!(r.id, 1);
        assert_eq!(r.kind, RequestKind::Analyze);
        assert_eq!(r.program.as_deref(), Some("figure1"));
        assert_eq!(r.clone_level, 0);
        assert_eq!(r.mode, "mpi");
        assert_eq!(r.matching, Matching::ReachingConstants);
        assert_eq!(r.degrade, DegradeMode::Auto);
    }

    #[test]
    fn unknown_kind_is_structured() {
        let e = parse_request(r#"{"id":1,"kind":"explode"}"#).unwrap_err();
        assert_eq!(e.code, "unknown-kind");
        assert!(e.message.contains("explode"));
    }

    #[test]
    fn unknown_field_is_structured() {
        let e = parse_request(r#"{"id":1,"kind":"ping","wat":true}"#).unwrap_err();
        assert_eq!(e.code, "bad-request");
        assert!(e.message.contains("wat"));
    }

    #[test]
    fn oversized_line_is_rejected_before_parsing() {
        let huge = format!(
            r#"{{"id":1,"kind":"analyze","source":"{}"}}"#,
            "x".repeat(MAX_LINE_BYTES)
        );
        let e = parse_request(&huge).unwrap_err();
        assert_eq!(e.code, "too-large");
    }

    #[test]
    fn requires_are_enforced_per_kind() {
        assert_eq!(
            parse_request(r#"{"id":1,"kind":"analyze"}"#)
                .unwrap_err()
                .code,
            "bad-request"
        );
        assert_eq!(
            parse_request(r#"{"id":1,"kind":"table1-row"}"#)
                .unwrap_err()
                .code,
            "bad-request"
        );
        assert_eq!(
            parse_request(r#"{"id":1,"kind":"activity-at-location","program":"cg"}"#)
                .unwrap_err()
                .code,
            "bad-request"
        );
        assert_eq!(
            parse_request(r#"{"id":1,"kind":"dot","program":"cg","source":"program p"}"#)
                .unwrap_err()
                .code,
            "bad-request"
        );
        // ping needs nothing.
        assert!(parse_request(r#"{"id":9,"kind":"ping"}"#).is_ok());
    }

    #[test]
    fn deadline_and_cache_stats_parse() {
        let r = parse_request(
            r#"{"id":3,"kind":"analyze","program":"figure1","ind":["x"],"dep":["f"],"deadline_ms":250}"#,
        )
        .unwrap();
        assert_eq!(r.deadline_ms, Some(250));
        let r = parse_request(r#"{"id":4,"kind":"cache-stats"}"#).unwrap();
        assert_eq!(r.kind, RequestKind::CacheStats);
        assert_eq!(
            parse_request(r#"{"id":5,"kind":"analyze","program":"p","deadline_ms":"soon"}"#)
                .unwrap_err()
                .code,
            "bad-request"
        );
    }

    #[test]
    fn trace_field_parses_and_round_trips() {
        let r = parse_request(
            r#"{"id":1,"kind":"ping","trace":{"id":"00000000000000000000000000abc123","parent":7,"attempt":2}}"#,
        )
        .unwrap();
        let t = r.trace.unwrap();
        assert_eq!(t.id, 0xabc123);
        assert_eq!(t.parent, 7);
        assert_eq!(t.attempt, 2);
        // parent/attempt default to 0; a bare id is enough (what clients mint).
        let r = parse_request(r#"{"id":1,"kind":"ping","trace":{"id":"ff"}}"#).unwrap();
        assert_eq!(
            r.trace,
            Some(TraceCtx {
                id: 0xff,
                parent: 0,
                attempt: 0
            })
        );
        // Structured errors for malformed contexts.
        for bad in [
            r#"{"id":1,"kind":"ping","trace":"abc"}"#,
            r#"{"id":1,"kind":"ping","trace":{}}"#,
            r#"{"id":1,"kind":"ping","trace":{"id":"zz"}}"#,
            r#"{"id":1,"kind":"ping","trace":{"id":"ff","wat":1}}"#,
        ] {
            assert_eq!(parse_request(bad).unwrap_err().code, "bad-request", "{bad}");
        }
    }

    #[test]
    fn render_request_round_trips_through_parse() {
        let lines = [
            r#"{"id":1,"kind":"ping"}"#,
            r#"{"id":2,"kind":"analyze","program":"figure1","ind":["x"],"dep":["f"]}"#,
            r#"{"id":3,"kind":"table1-row","row":"Biostat","solver":"region"}"#,
            r#"{"id":4,"kind":"analyze","source":"program \"p\"","ind":["a","b"],"dep":["c"],"clone":2,"matching":"naive","mode":"global","budget_ms":5,"deadline_ms":9,"max_visits":10,"max_fact_bytes":11,"degrade":"off","max_passes":3}"#,
            r#"{"id":5,"kind":"metrics","trace":{"id":"1234","parent":9,"attempt":1}}"#,
            r#"{"id":6,"kind":"verify","program":"figure1","nprocs":4,"schedules":12}"#,
        ];
        for line in lines {
            let req = parse_request(line).unwrap();
            let rendered = render_request(&req);
            let back = parse_request(&rendered)
                .unwrap_or_else(|e| panic!("re-rendered line failed to parse: {rendered}: {e:?}"));
            assert_eq!(back, req, "round trip changed the request: {rendered}");
            // Idempotent: rendering the round-tripped request is stable.
            assert_eq!(render_request(&back), rendered);
        }
    }

    #[test]
    fn analyze_delta_requires_prev_and_source() {
        let r = parse_request(
            r#"{"id":1,"kind":"analyze-delta","source":"program p sub main() { }","ind":["x"],"dep":["f"],"prev":41}"#,
        )
        .unwrap();
        assert_eq!(r.kind, RequestKind::AnalyzeDelta);
        assert_eq!(r.prev, Some(41));
        let e =
            parse_request(r#"{"id":1,"kind":"analyze-delta","source":"program p sub main() { }"}"#)
                .unwrap_err();
        assert!(e.message.contains("prev"), "{}", e.message);
        let e = parse_request(r#"{"id":1,"kind":"analyze-delta","prev":41}"#).unwrap_err();
        assert!(e.message.contains("program"), "{}", e.message);
    }

    #[test]
    fn demand_at_is_analyze_only() {
        let r = parse_request(
            r#"{"id":2,"kind":"analyze","program":"figure1","ind":["x"],"dep":["f"],"at":12}"#,
        )
        .unwrap();
        assert_eq!(r.at, Some(12));
        let e =
            parse_request(r#"{"id":2,"kind":"verify","program":"figure1","at":12}"#).unwrap_err();
        assert!(e.message.contains("`at`"), "{}", e.message);
    }

    #[test]
    fn delta_and_demand_requests_round_trip() {
        for line in [
            r#"{"id":7,"kind":"analyze-delta","source":"program p sub main() { }","ind":["x"],"dep":["f"],"prev":41}"#,
            r#"{"id":8,"kind":"analyze","program":"figure1","ind":["x"],"dep":["f"],"at":3}"#,
        ] {
            let req = parse_request(line).unwrap();
            let rendered = render_request(&req);
            assert_eq!(parse_request(&rendered).unwrap(), req, "{rendered}");
        }
        assert_eq!(CacheStatus::Partial.as_str(), "partial");
        assert_eq!(RequestKind::AnalyzeDelta.as_str(), "analyze-delta");
    }

    #[test]
    fn metrics_kind_parses() {
        let r = parse_request(r#"{"id":6,"kind":"metrics"}"#).unwrap();
        assert_eq!(r.kind, RequestKind::Metrics);
        assert_eq!(RequestKind::parse("metrics"), Some(RequestKind::Metrics));
        assert_eq!(RequestKind::Metrics.as_str(), "metrics");
    }

    #[test]
    fn retry_after_is_rendered_inside_the_error_object() {
        let err = render_err(
            9,
            &ProtoError::new("overloaded", "shed").with_retry_after(125),
        );
        assert_eq!(
            err,
            r#"{"id":9,"ok":false,"error":{"code":"overloaded","message":"shed","retry_after_ms":125}}"#
        );
        let parsed = crate::json::parse(&err).unwrap();
        assert_eq!(
            parsed
                .get("error")
                .and_then(|e| e.get("retry_after_ms"))
                .and_then(|v| v.as_u64()),
            Some(125)
        );
    }

    #[test]
    fn response_rendering_is_fixed_order() {
        let ok = render_ok(
            7,
            RequestKind::Ping,
            CacheStatus::Bypass,
            r#"{"pong":true}"#,
        );
        assert_eq!(
            ok,
            r#"{"id":7,"ok":true,"kind":"ping","cache":"bypass","result":{"pong":true}}"#
        );
        let err = render_err(0, &ProtoError::new("parse", "boom \"quoted\""));
        assert_eq!(
            err,
            r#"{"id":0,"ok":false,"error":{"code":"parse","message":"boom \"quoted\""}}"#
        );
        // Both responses are themselves valid JSON.
        assert!(crate::json::parse(&ok).is_ok());
        assert!(crate::json::parse(&err).is_ok());
    }
}
