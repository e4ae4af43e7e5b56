//! Cross-process observability: the distributed-trace span store, the
//! worker → supervisor telemetry stream, the cluster metrics merge, the
//! JSONL access log, and offline trace reconstruction.
//!
//! ## Architecture
//!
//! Each worker process runs the ordinary in-process `core::telemetry`
//! sink. A flusher thread periodically [`telemetry::drain`]s it, pairs
//! span begin/end events with a [`SpanPairer`], and prints one
//! [`TELE_PREFIX`]-tagged JSONL line to **stdout** — the pipe the
//! supervisor already holds for the startup banner. The supervisor's
//! drain thread forwards those lines into the shared [`TelemetryHub`],
//! stamping each with the worker's shard and incarnation epoch. This
//! reuses an existing crash-tolerant channel: spans flushed before a
//! SIGKILL are already in the hub, and a dead worker's still-open spans
//! were streamed as `open` records, so its partial trace renders (tagged
//! with the epoch that died). The router's own spans take the same path
//! in-process (pid 0).
//!
//! Spans cost memory and pipe traffic only where something reads them.
//! A hub keeps spans in memory only when it was built to (the router of
//! `serve --shards N --trace-out F`, which renders them at shutdown); its
//! `--log-dir` spool receives every completed span either way. Workers
//! stream spans up the pipe only when told to (`--telemetry-stream
//! spans`, which the cluster spawner passes when the router spools or
//! keeps them); otherwise each update carries metrics and the SLO
//! snapshot alone, which is all the `metrics` verb reads.
//!
//! Timestamps are absolute same-host UNIX microseconds
//! (`event.ts_us + telemetry::unix_base_us()`), which is what lets spans
//! from several processes interleave correctly on one timeline. Span ids
//! are only unique per process, so the span store keys by
//! `(pid, epoch, id)` and cross-process parenting is the `remote_parent`
//! arg (the router's span id) rather than the Chrome `parent` field.
//!
//! All cluster-level merges (`absorb`) are commutative and associative —
//! counter sums, `_peak` maxima, histogram bucket adds — so the rendered
//! cluster metrics are byte-identical regardless of shard-report arrival
//! order (asserted by tests).

use crate::slo::{self, SloSnapshot};
use mpi_dfa_core::json::{self, Json};
use mpi_dfa_core::telemetry::{self, Event, EventKind};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Prefix a worker puts on telemetry-stream lines so the supervisor can
/// tell them apart from anything else the child writes to stdout.
pub const TELE_PREFIX: &str = "@tele ";

/// Upper bound on spans a retaining hub holds in memory; beyond it new
/// spans are counted as dropped instead of stored (the spool file still
/// gets them). Keeps a long-running exporting router bounded.
const MAX_SPANS: usize = 100_000;

/// Maximum in-memory access-log lines retained (the file gets them all).
const MAX_ACCESS: usize = 10_000;

/// Mint a fresh 128-bit trace id: FNV-128 of the wall clock, a
/// process-wide sequence number, and the OS pid — distinct across the
/// cluster's processes, restarts, and concurrent requests.
pub fn mint_trace_id() -> u128 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let mut h = mpi_dfa_core::Hasher128::new();
    h.write_u64(now)
        .write_u64(SEQ.fetch_add(1, Ordering::Relaxed))
        .write_u64(std::process::id() as u64);
    h.finish()
}

// ---------------------------------------------------------------------------
// Completed spans
// ---------------------------------------------------------------------------

/// One span (or instant) on the cluster-wide timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedSpan {
    /// Merged-trace process id: 0 = the router / single-box process,
    /// `shard + 1` for workers.
    pub pid: u64,
    pub tid: u64,
    /// Worker incarnation epoch (0 for the router). Distinguishes span
    /// ids across restarts of the same shard.
    pub epoch: u64,
    /// Span id in its own process (0 for instants).
    pub id: u64,
    /// Local parent span id, if any.
    pub parent: Option<u64>,
    pub trace: Option<u128>,
    pub name: String,
    pub cat: String,
    /// Absolute UNIX microseconds (same-host shared timebase).
    pub ts_us: u64,
    /// `None` while the span is still open (crash-partial spans render
    /// with this unset).
    pub dur_us: Option<u64>,
    /// Args as (key, raw-JSON-value) pairs, begin args then end args.
    pub args: Vec<(String, String)>,
}

impl CompletedSpan {
    /// The cross-process parent span id (`remote_parent` arg), if any.
    pub fn remote_parent(&self) -> Option<u64> {
        self.args
            .iter()
            .find(|(k, _)| k == "remote_parent")
            .and_then(|(_, v)| v.parse().ok())
    }

    /// Fixed-key-order JSONL record, used both on the stream and in the
    /// spool file.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(128);
        let _ = write!(
            out,
            "{{\"pid\":{},\"tid\":{},\"epoch\":{},\"id\":{},\"parent\":{},\"trace\":{},\
             \"name\":\"{}\",\"cat\":\"{}\",\"ts\":{},\"dur\":{},\"args\":{{",
            self.pid,
            self.tid,
            self.epoch,
            self.id,
            self.parent
                .map(|p| p.to_string())
                .unwrap_or_else(|| "null".into()),
            self.trace
                .map(|t| format!("\"{t:032x}\""))
                .unwrap_or_else(|| "null".into()),
            json::escape(&self.name),
            json::escape(&self.cat),
            self.ts_us,
            self.dur_us
                .map(|d| d.to_string())
                .unwrap_or_else(|| "null".into()),
        );
        for (i, (k, v)) in self.args.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{v}", json::escape(k));
        }
        out.push_str("}}");
        out
    }

    /// Parse one [`CompletedSpan::render`] record. `None` on shape
    /// violations (corrupt stream lines are dropped, never panic).
    pub fn parse(v: &Json) -> Option<CompletedSpan> {
        let trace = match v.get("trace")? {
            Json::Null => None,
            t => Some(telemetry::parse_trace_id(t.as_str()?)?),
        };
        let parent = match v.get("parent")? {
            Json::Null => None,
            p => Some(p.as_u64()?),
        };
        let dur_us = match v.get("dur")? {
            Json::Null => None,
            d => Some(d.as_u64()?),
        };
        let Json::Obj(arg_fields) = v.get("args")? else {
            return None;
        };
        let args = arg_fields
            .iter()
            .map(|(k, av)| (k.clone(), av.render()))
            .collect();
        Some(CompletedSpan {
            pid: v.get("pid")?.as_u64()?,
            tid: v.get("tid")?.as_u64()?,
            epoch: v.get("epoch")?.as_u64()?,
            id: v.get("id")?.as_u64()?,
            parent,
            trace,
            name: v.get("name")?.as_str()?.to_string(),
            cat: v.get("cat")?.as_str()?.to_string(),
            ts_us: v.get("ts")?.as_u64()?,
            dur_us,
            args,
        })
    }
}

// ---------------------------------------------------------------------------
// Span pairing (worker side)
// ---------------------------------------------------------------------------

/// Pairs `SpanBegin`/`SpanEnd` events across successive
/// [`telemetry::drain`] batches into [`CompletedSpan`]s, carrying
/// still-open spans between flushes so a span whose end arrives in a
/// later batch still pairs.
#[derive(Debug, Default)]
pub struct SpanPairer {
    open: BTreeMap<u64, CompletedSpan>,
}

impl SpanPairer {
    pub fn new() -> SpanPairer {
        SpanPairer::default()
    }

    /// Feed one drained batch. `base_us` is [`telemetry::unix_base_us`]
    /// (events carry install-relative timestamps). Returns the spans that
    /// completed in this batch; instants come back as zero-duration spans.
    pub fn feed(&mut self, events: &[Event], base_us: u64) -> Vec<CompletedSpan> {
        let mut done = Vec::new();
        for e in events {
            match e.kind {
                EventKind::SpanBegin { id, parent } => {
                    self.open.insert(
                        id,
                        CompletedSpan {
                            pid: 0,
                            tid: e.tid,
                            epoch: 0,
                            id,
                            parent,
                            trace: e.trace,
                            name: e.name.clone(),
                            cat: e.cat.to_string(),
                            ts_us: base_us + e.ts_us,
                            dur_us: None,
                            args: e
                                .args
                                .iter()
                                .map(|(k, v)| (k.to_string(), v.render()))
                                .collect(),
                        },
                    );
                }
                EventKind::SpanEnd { id } => {
                    // An end without a begin (sink installed mid-span) is
                    // dropped — there is nothing to anchor it to.
                    if let Some(mut span) = self.open.remove(&id) {
                        span.dur_us = Some((base_us + e.ts_us).saturating_sub(span.ts_us));
                        span.args
                            .extend(e.args.iter().map(|(k, v)| (k.to_string(), v.render())));
                        done.push(span);
                    }
                }
                EventKind::Instant => {
                    done.push(CompletedSpan {
                        pid: 0,
                        tid: e.tid,
                        epoch: 0,
                        id: 0,
                        parent: None,
                        trace: e.trace,
                        name: e.name.clone(),
                        cat: e.cat.to_string(),
                        ts_us: base_us + e.ts_us,
                        dur_us: Some(0),
                        args: e
                            .args
                            .iter()
                            .map(|(k, v)| (k.to_string(), v.render()))
                            .collect(),
                    });
                }
                EventKind::Counter { .. } => {}
            }
        }
        done
    }

    /// The spans currently open (crash-partial candidates): streamed each
    /// flush with `dur: null` so a worker killed mid-request still shows
    /// its in-flight span in the merged trace.
    pub fn open_spans(&self) -> Vec<CompletedSpan> {
        self.open.values().cloned().collect()
    }
}

// ---------------------------------------------------------------------------
// The worker → supervisor stream
// ---------------------------------------------------------------------------

/// Render one telemetry-stream line (without [`TELE_PREFIX`]):
/// `{"spans":[...],"open":[...],"metrics":{...},"slo":[...]}`.
/// Metrics and SLO snapshots are cumulative; spans are incremental, and
/// both span lists are empty from a worker not asked to stream spans.
pub fn render_tele_update(
    spans: &[CompletedSpan],
    open: &[CompletedSpan],
    metrics: &BTreeMap<String, f64>,
    slo_snap: &SloSnapshot,
) -> String {
    let mut out = String::with_capacity(256);
    out.push_str("{\"spans\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&s.render());
    }
    out.push_str("],\"open\":[");
    for (i, s) in open.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&s.render());
    }
    out.push_str("],\"metrics\":{");
    for (i, (k, v)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{}\":{}",
            json::escape(k),
            if v.is_finite() { *v } else { 0.0 }
        );
    }
    out.push_str("},\"slo\":");
    out.push_str(&slo::to_json(slo_snap));
    out.push('}');
    out
}

/// One parsed telemetry-stream update.
pub struct TeleUpdate {
    pub spans: Vec<CompletedSpan>,
    pub open: Vec<CompletedSpan>,
    pub metrics: BTreeMap<String, f64>,
    pub slo: SloSnapshot,
}

/// Parse the payload of a [`TELE_PREFIX`] line. `None` drops the line.
pub fn parse_tele_update(payload: &str) -> Option<TeleUpdate> {
    let v = json::parse(payload).ok()?;
    let spans = v
        .get("spans")?
        .as_array()?
        .iter()
        .map(CompletedSpan::parse)
        .collect::<Option<Vec<_>>>()?;
    let open = v
        .get("open")?
        .as_array()?
        .iter()
        .map(CompletedSpan::parse)
        .collect::<Option<Vec<_>>>()?;
    let Json::Obj(metric_fields) = v.get("metrics")? else {
        return None;
    };
    let mut metrics = BTreeMap::new();
    for (k, mv) in metric_fields {
        if let Json::Num(n) = mv {
            metrics.insert(k.clone(), *n);
        } else {
            return None;
        }
    }
    let slo = slo::from_json(v.get("slo")?)?;
    Some(TeleUpdate {
        spans,
        open,
        metrics,
        slo,
    })
}

// ---------------------------------------------------------------------------
// Access log
// ---------------------------------------------------------------------------

/// One access-log line: the per-request summary the router (or single-box
/// server) appends exactly once per client analysis request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessRecord {
    pub trace: u128,
    pub verb: String,
    /// Shard that answered; `None` when no shard did (terminal error) or
    /// the process is unsharded.
    pub shard: Option<u64>,
    /// Incarnation epoch of the answering shard (0 when unknown).
    pub epoch: u64,
    /// Forwarding attempts consumed (1 = first try answered).
    pub attempts: u64,
    /// `hit` | `miss` | `bypass` | `error`.
    pub cache: String,
    /// Governor tier from the response provenance, `-` when absent.
    pub tier: String,
    pub latency_us: u64,
}

impl AccessRecord {
    /// Fixed key order: trace, verb, shard, epoch, attempts, cache, tier,
    /// latency_us. Renders into one pre-sized buffer with hand-rolled
    /// integer formatting (no `core::fmt`) — this runs once per answered
    /// request, and the bench bounds it (with the histogram record) at
    /// ≤ 10% of a warm cache hit.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(160);
        out.push_str("{\"trace\":\"");
        push_hex32(&mut out, self.trace);
        out.push_str("\",\"verb\":\"");
        json::escape_into(&self.verb, &mut out);
        out.push_str("\",\"shard\":");
        match self.shard {
            Some(s) => push_u64(&mut out, s),
            None => out.push_str("null"),
        }
        out.push_str(",\"epoch\":");
        push_u64(&mut out, self.epoch);
        out.push_str(",\"attempts\":");
        push_u64(&mut out, self.attempts);
        out.push_str(",\"cache\":\"");
        json::escape_into(&self.cache, &mut out);
        out.push_str("\",\"tier\":\"");
        json::escape_into(&self.tier, &mut out);
        out.push_str("\",\"latency_us\":");
        push_u64(&mut out, self.latency_us);
        out.push('}');
        out
    }

    pub fn parse(v: &Json) -> Option<AccessRecord> {
        let shard = match v.get("shard")? {
            Json::Null => None,
            s => Some(s.as_u64()?),
        };
        Some(AccessRecord {
            trace: telemetry::parse_trace_id(v.get("trace")?.as_str()?)?,
            verb: v.get("verb")?.as_str()?.to_string(),
            shard,
            epoch: v.get("epoch")?.as_u64()?,
            attempts: v.get("attempts")?.as_u64()?,
            cache: v.get("cache")?.as_str()?.to_string(),
            tier: v.get("tier")?.as_str()?.to_string(),
            latency_us: v.get("latency_us")?.as_u64()?,
        })
    }
}

/// Append the zero-padded 32-digit lowercase hex of a 128-bit trace id.
fn push_hex32(out: &mut String, v: u128) {
    let mut buf = [0u8; 32];
    let mut v = v;
    for slot in buf.iter_mut().rev() {
        let d = (v & 0xf) as u8;
        *slot = if d < 10 { b'0' + d } else { b'a' + d - 10 };
        v >>= 4;
    }
    out.push_str(std::str::from_utf8(&buf).expect("hex digits are ASCII"));
}

/// Append a decimal u64 without going through `core::fmt`.
fn push_u64(out: &mut String, v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    let mut v = v;
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("digits are ASCII"));
}

// ---------------------------------------------------------------------------
// The hub
// ---------------------------------------------------------------------------

#[derive(Default)]
struct HubState {
    /// Keyed by (pid, epoch, id): an `open` record is replaced in place
    /// when its completed version arrives.
    spans: BTreeMap<(u64, u64, u64), CompletedSpan>,
    dropped_spans: u64,
    /// Latest cumulative metrics per worker incarnation.
    worker_metrics: BTreeMap<(u64, u64), BTreeMap<String, f64>>,
    /// Latest cumulative SLO snapshot per worker incarnation.
    worker_slo: BTreeMap<(u64, u64), SloSnapshot>,
    /// The most recent [`MAX_ACCESS`] access lines (the file, when
    /// configured, gets them all).
    access: VecDeque<String>,
    access_total: u64,
}

/// The cluster-wide observability aggregation point, shared by the
/// supervisor drain threads (worker updates), the router (its own spans,
/// access records, the `metrics` verb), and shutdown exporters.
pub struct TelemetryHub {
    state: Mutex<HubState>,
    spool_file: Mutex<Option<File>>,
    access_file: Mutex<Option<File>>,
    log_dir: Option<PathBuf>,
    keep_spans: bool,
}

impl TelemetryHub {
    /// `log_dir`, when given, receives `spans.jsonl` (the span spool the
    /// `mpidfa trace` subcommand reads) and `access.jsonl`. `keep_spans`
    /// holds spans in memory for [`TelemetryHub::spans`] and
    /// [`TelemetryHub::merged_chrome_trace`]; only a process that will
    /// export a merged trace needs it.
    pub fn new(log_dir: Option<&Path>, keep_spans: bool) -> Result<Arc<TelemetryHub>, String> {
        let mut spool_file = None;
        let mut access_file = None;
        if let Some(dir) = log_dir {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("--log-dir {}: {e}", dir.display()))?;
            let open = |name: &str| {
                OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(dir.join(name))
                    .map_err(|e| format!("--log-dir {}/{name}: {e}", dir.display()))
            };
            spool_file = Some(open("spans.jsonl")?);
            access_file = Some(open("access.jsonl")?);
        }
        Ok(Arc::new(TelemetryHub {
            state: Mutex::new(HubState::default()),
            spool_file: Mutex::new(spool_file),
            access_file: Mutex::new(access_file),
            log_dir: log_dir.map(Path::to_path_buf),
            keep_spans,
        }))
    }

    pub fn log_dir(&self) -> Option<&Path> {
        self.log_dir.as_deref()
    }

    /// Whether this hub does anything with spans: keeps them or spools
    /// them. When it does not, span producers need not render any.
    pub fn wants_spans(&self) -> bool {
        self.keep_spans || self.log_dir.is_some()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HubState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Take spans (completed or open). Completed spans are appended to
    /// the spool file. A retaining hub also stores them, open ones until
    /// their completed version replaces them (or shutdown renders them
    /// unfinished); any other hub drops them here.
    pub fn add_spans(&self, mut spans: Vec<CompletedSpan>) {
        // Instants all carry id 0, which would collide in the span store;
        // give each a synthetic unique id in the high range.
        for s in spans.iter_mut().filter(|s| s.id == 0) {
            s.id = (1 << 48) | (s.ts_us & 0xffff_ffff_ffff);
        }
        let mut spool = String::new();
        if self.log_dir.is_some() {
            for s in spans.iter().filter(|s| s.dur_us.is_some()) {
                spool.push_str(&s.render());
                spool.push('\n');
            }
        }
        if self.keep_spans {
            let mut st = self.lock();
            for s in spans {
                let key = (s.pid, s.epoch, s.id);
                if st.spans.len() >= MAX_SPANS && !st.spans.contains_key(&key) {
                    st.dropped_spans += 1;
                    continue;
                }
                st.spans.insert(key, s);
            }
        }
        if !spool.is_empty() {
            let mut f = self.spool_file.lock().unwrap_or_else(|p| p.into_inner());
            if let Some(f) = f.as_mut() {
                let _ = f.write_all(spool.as_bytes());
            }
        }
    }

    /// Ingest one worker stream update, stamping every span with the
    /// worker's merged-trace pid (`shard + 1`) and incarnation epoch.
    pub fn note_worker_update(&self, shard: u64, epoch: u64, update: TeleUpdate) {
        let stamp = |mut s: CompletedSpan| {
            s.pid = shard + 1;
            s.epoch = epoch;
            s
        };
        let spans = update.spans.into_iter().chain(update.open).map(stamp);
        self.add_spans(spans.collect());
        let mut st = self.lock();
        st.worker_metrics.insert((shard, epoch), update.metrics);
        st.worker_slo.insert((shard, epoch), update.slo);
    }

    /// Append one access record (memory ring + file).
    pub fn record_access(&self, rec: &AccessRecord) {
        let line = rec.render();
        {
            let mut st = self.lock();
            st.access_total += 1;
            if st.access.len() == MAX_ACCESS {
                st.access.pop_front();
            }
            st.access.push_back(line.clone());
        }
        let mut f = self.access_file.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(f) = f.as_mut() {
            let _ = f.write_all(line.as_bytes());
            let _ = f.write_all(b"\n");
        }
    }

    /// Recent access-log lines, oldest first (test/introspection surface).
    pub fn access_lines(&self) -> Vec<String> {
        self.lock().access.iter().cloned().collect()
    }

    /// Spans a retaining hub did not store because it already held
    /// `MAX_SPANS` (`obs_spans_dropped_total` in the cluster metrics).
    pub fn dropped_spans(&self) -> u64 {
        self.lock().dropped_spans
    }

    /// All stored spans, timeline-sorted; empty unless the hub keeps
    /// spans.
    pub fn spans(&self) -> Vec<CompletedSpan> {
        let st = self.lock();
        let mut spans: Vec<CompletedSpan> = st.spans.values().cloned().collect();
        spans.sort_by_key(|s| (s.ts_us, s.pid, s.tid, s.id));
        spans
    }

    /// The order-independently merged cluster Prometheus text: telemetry
    /// counters summed across every worker incarnation (`_peak` series
    /// take the max instead), then the process-local metrics of the
    /// caller, then the merged SLO histogram series. `local` is the
    /// router's own metric map (its telemetry sink plus `router_*_total`
    /// counters); `local_slo` its own latency view.
    pub fn cluster_metrics(
        &self,
        local: &BTreeMap<String, f64>,
        local_slo: &SloSnapshot,
    ) -> String {
        let st = self.lock();
        let mut merged: BTreeMap<String, f64> = BTreeMap::new();
        let mut fold = |map: &BTreeMap<String, f64>| {
            for (name, v) in map {
                let slot = merged.entry(name.clone()).or_insert(0.0);
                if name.ends_with("_peak") || name.contains("_peak{") {
                    if *v > *slot {
                        *slot = *v;
                    }
                } else {
                    *slot += *v;
                }
            }
        };
        for map in st.worker_metrics.values() {
            fold(map);
        }
        fold(local);
        merged.insert("obs_spans_dropped_total".into(), st.dropped_spans as f64);
        merged.insert("access_log_lines_total".into(), st.access_total as f64);

        // The two latency views stay separate metric families so no
        // request is double-counted inside one series: workers measure
        // their own handling, the router measures the client round-trip.
        let mut merged_slo = SloSnapshot::new();
        for snap in st.worker_slo.values() {
            slo::absorb(&mut merged_slo, snap);
        }

        let mut out = telemetry::export_metrics_text(&merged);
        slo::render_prometheus(&merged_slo, &mut out);
        slo::render_prometheus_named(slo::E2E_METRIC, local_slo, &mut out);
        out
    }

    /// Render every stored span as one merged Chrome trace. Spans are
    /// complete events (`ph: "X"`); still-open spans render with
    /// `dur: 0` and an `unfinished` arg. Timestamps are rebased to the
    /// earliest span. Each process appears under its merged-trace pid
    /// (0 = router, shard+1 = workers) so one request's spans from
    /// several processes nest on the shared timeline; `trace`, `span`,
    /// `parent_span`, `remote_parent`, and `epoch` args carry the
    /// cross-process structure.
    pub fn merged_chrome_trace(&self) -> String {
        let spans = self.spans();
        let t0 = spans.iter().map(|s| s.ts_us).min().unwrap_or(0);
        let mut out = String::with_capacity(spans.len() * 128 + 64);
        out.push_str("{\"traceEvents\":[");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{",
                json::escape(&s.name),
                json::escape(&s.cat),
                s.pid,
                s.tid,
                s.ts_us - t0,
                s.dur_us.unwrap_or(0),
            );
            let mut first = true;
            let mut arg = |out: &mut String, k: &str, v: String| {
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(out, "\"{k}\":{v}");
            };
            if let Some(t) = s.trace {
                arg(&mut out, "trace", format!("\"{t:032x}\""));
            }
            arg(&mut out, "span", s.id.to_string());
            if let Some(p) = s.parent {
                arg(&mut out, "parent_span", p.to_string());
            }
            arg(&mut out, "epoch", s.epoch.to_string());
            if s.dur_us.is_none() {
                arg(&mut out, "unfinished", "true".to_string());
            }
            for (k, v) in &s.args {
                if k == "remote_parent"
                    || !matches!(k.as_str(), "trace" | "span" | "parent_span" | "epoch")
                {
                    arg(&mut out, k, v.clone());
                }
            }
            out.push_str("}}");
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

// ---------------------------------------------------------------------------
// Offline trace reconstruction (`mpidfa trace <trace-id>`)
// ---------------------------------------------------------------------------

fn process_label(pid: u64, epoch: u64) -> String {
    if pid == 0 {
        "router".to_string()
    } else {
        format!("shard {}/e{}", pid - 1, epoch)
    }
}

/// Reconstruct a request's cross-shard timeline from the span spool and
/// access log (`spans.jsonl` / `access.jsonl` contents). Returns a text
/// report; `Err` when the trace id appears nowhere.
pub fn reconstruct_trace(spool: &str, access: &str, trace_id: u128) -> Result<String, String> {
    let mut spans: Vec<CompletedSpan> = Vec::new();
    for line in spool.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Ok(v) = json::parse(line) {
            if let Some(s) = CompletedSpan::parse(&v) {
                if s.trace == Some(trace_id) {
                    spans.push(s);
                }
            }
        }
    }
    let mut access_recs: Vec<AccessRecord> = Vec::new();
    for line in access.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Ok(v) = json::parse(line) {
            if let Some(r) = AccessRecord::parse(&v) {
                if r.trace == trace_id {
                    access_recs.push(r);
                }
            }
        }
    }
    if spans.is_empty() && access_recs.is_empty() {
        return Err(format!("trace {:032x} not found in the spool", trace_id));
    }
    spans.sort_by_key(|s| (s.ts_us, s.pid, s.tid, s.id));
    let t0 = spans.iter().map(|s| s.ts_us).min().unwrap_or(0);

    // Nesting depth: local parent chain within a process, plus one level
    // under the remote parent for the outermost span of a worker.
    let by_key: BTreeMap<(u64, u64), usize> = spans
        .iter()
        .enumerate()
        .map(|(i, s)| ((s.pid, s.id), i))
        .collect();
    fn depth_of(
        spans: &[CompletedSpan],
        by_key: &BTreeMap<(u64, u64), usize>,
        idx: usize,
        fuel: usize,
    ) -> usize {
        if fuel == 0 {
            return 0;
        }
        let s = &spans[idx];
        if let Some(p) = s.parent {
            if let Some(&pi) = by_key.get(&(s.pid, p)) {
                return depth_of(spans, by_key, pi, fuel - 1) + 1;
            }
        }
        if let Some(rp) = s.remote_parent() {
            // The remote parent lives in another process; find it.
            for (&(pid, id), &pi) in by_key {
                if id == rp && pid != s.pid {
                    return depth_of(spans, by_key, pi, fuel - 1) + 1;
                }
            }
        }
        0
    }

    let mut out = String::new();
    let _ = writeln!(out, "trace {trace_id:032x}");
    for r in &access_recs {
        let _ = writeln!(
            out,
            "access: verb={} shard={} epoch={} attempts={} cache={} tier={} latency_us={}",
            r.verb,
            r.shard.map(|s| s.to_string()).unwrap_or_else(|| "-".into()),
            r.epoch,
            r.attempts,
            r.cache,
            r.tier,
            r.latency_us
        );
    }
    for (i, s) in spans.iter().enumerate() {
        let depth = depth_of(&spans, &by_key, i, 32);
        let dur = match s.dur_us {
            Some(d) => format!("{:.3} ms", d as f64 / 1000.0),
            None => "unfinished".to_string(),
        };
        let _ = writeln!(
            out,
            "[{:>10.3} ms] {:<12} {}{} ({})",
            (s.ts_us - t0) as f64 / 1000.0,
            process_label(s.pid, s.epoch),
            "  ".repeat(depth),
            s.name,
            dur
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpi_dfa_core::telemetry::{TraceContext, TraceLevel, TEST_SINK_GATE};

    fn span_fixture(pid: u64, id: u64, ts: u64, trace: u128) -> CompletedSpan {
        CompletedSpan {
            pid,
            tid: 1,
            epoch: 1,
            id,
            parent: None,
            trace: Some(trace),
            name: format!("span-{id}"),
            cat: "service".into(),
            ts_us: ts,
            dur_us: Some(100),
            args: vec![("kind".into(), "\"analyze\"".into())],
        }
    }

    #[test]
    fn completed_span_record_round_trips() {
        let mut s = span_fixture(2, 7, 1_000_000, 0xfeed);
        s.parent = Some(3);
        s.args.push(("remote_parent".into(), "42".into()));
        let line = s.render();
        let back = CompletedSpan::parse(&json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.remote_parent(), Some(42));
        // Open span (dur null) round-trips too.
        let mut open = span_fixture(1, 9, 5, 0xfeed);
        open.dur_us = None;
        let back = CompletedSpan::parse(&json::parse(&open.render()).unwrap()).unwrap();
        assert_eq!(back.dur_us, None);
    }

    #[test]
    fn pairer_pairs_across_drain_batches_and_reports_open_spans() {
        let _g = TEST_SINK_GATE.lock().unwrap_or_else(|p| p.into_inner());
        telemetry::install(TraceLevel::Spans);
        let base = telemetry::unix_base_us();
        let ctx = TraceContext {
            trace_id: 0xabc,
            parent_span: 5,
        };
        let mut pairer = SpanPairer::new();
        let long = telemetry::with_trace(Some(ctx), || {
            let long = telemetry::span("service", "long");
            {
                let _quick = telemetry::span("service", "quick");
            }
            long
        });
        // First drain: `quick` completed, `long` still open.
        let done = pairer.feed(&telemetry::drain().events, base);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].name, "quick");
        assert_eq!(done[0].trace, Some(0xabc));
        let open = pairer.open_spans();
        assert_eq!(open.len(), 1);
        assert_eq!(open[0].name, "long");
        assert_eq!(open[0].dur_us, None);
        // `long` has no local parent, so it carries the remote parent.
        assert_eq!(open[0].remote_parent(), Some(5));
        drop(long);
        let done = pairer.feed(&telemetry::drain().events, base);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].name, "long");
        assert!(done[0].dur_us.is_some());
        assert!(pairer.open_spans().is_empty());
        let _ = telemetry::finish();
    }

    #[test]
    fn tele_update_round_trips() {
        let spans = vec![span_fixture(0, 1, 10, 0x1)];
        let mut open = vec![span_fixture(0, 2, 20, 0x1)];
        open[0].dur_us = None;
        let mut metrics = BTreeMap::new();
        metrics.insert("cache_hits_total".to_string(), 3.0);
        let reg = crate::slo::SloRegistry::new();
        reg.record("analyze", "hit", "0", 1234);
        let snap = reg.snapshot();
        let line = render_tele_update(&spans, &open, &metrics, &snap);
        let update = parse_tele_update(&line).unwrap();
        assert_eq!(update.spans, spans);
        assert_eq!(update.open, open);
        assert_eq!(update.metrics, metrics);
        assert_eq!(update.slo, snap);
        // Corrupt payloads are dropped, not panics.
        assert!(parse_tele_update("not json").is_none());
        assert!(parse_tele_update("{\"spans\":0}").is_none());
    }

    #[test]
    fn access_record_round_trips() {
        let rec = AccessRecord {
            trace: 0xdead_beef,
            verb: "analyze".into(),
            shard: Some(2),
            epoch: 3,
            attempts: 2,
            cache: "miss".into(),
            tier: "T0".into(),
            latency_us: 4200,
        };
        let line = rec.render();
        assert!(line.starts_with("{\"trace\":\"00000000000000000000000"));
        let back = AccessRecord::parse(&json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, rec);
        let none_shard = AccessRecord {
            shard: None,
            ..rec.clone()
        };
        let back = AccessRecord::parse(&json::parse(&none_shard.render()).unwrap()).unwrap();
        assert_eq!(back.shard, None);
    }

    #[test]
    fn hub_merges_cluster_metrics_order_independently() {
        // Two worker reports and a router view, ingested in both orders:
        // the rendered Prometheus text must be byte-identical.
        let make_update = |hits: f64, peak: f64, lat: u64| {
            let mut metrics = BTreeMap::new();
            metrics.insert("result_cache_hits_total".to_string(), hits);
            metrics.insert("service_inflight_peak".to_string(), peak);
            let reg = crate::slo::SloRegistry::new();
            reg.record("analyze", "hit", "0", lat);
            reg.record("analyze", "miss", "1", lat * 2);
            TeleUpdate {
                spans: vec![],
                open: vec![],
                metrics,
                slo: reg.snapshot(),
            }
        };
        let mut local = BTreeMap::new();
        local.insert("router_requests_total".to_string(), 5.0);
        let local_slo = SloSnapshot::new();
        let render = |order_rev: bool| {
            let hub = TelemetryHub::new(None, false).unwrap();
            let updates = [
                (0u64, make_update(10.0, 3.0, 100)),
                (1u64, make_update(7.0, 9.0, 900)),
            ];
            let mut ix: Vec<usize> = vec![0, 1];
            if order_rev {
                ix.reverse();
            }
            for i in ix {
                let (shard, u) = &updates[i];
                // Rebuild the update (TeleUpdate is not Clone by design).
                let u2 = TeleUpdate {
                    spans: u.spans.clone(),
                    open: u.open.clone(),
                    metrics: u.metrics.clone(),
                    slo: u.slo.clone(),
                };
                hub.note_worker_update(*shard, 1, u2);
            }
            hub.cluster_metrics(&local, &local_slo)
        };
        let a = render(false);
        let b = render(true);
        assert_eq!(a, b, "arrival order changed cluster metrics");
        assert!(a.contains("result_cache_hits_total 17"), "{a}");
        assert!(a.contains("service_inflight_peak 9"), "{a}");
        assert!(a.contains("router_requests_total 5"), "{a}");
        assert!(a.contains("mpidfa_request_latency_us{verb=\"analyze\",cache=\"hit\",shard=\"0\",quantile=\"0.5\"}"), "{a}");
        assert!(a.contains("cache=\"all\",shard=\"all\""), "{a}");
    }

    #[test]
    fn merged_trace_replaces_open_spans_and_keeps_epochs() {
        let hub = TelemetryHub::new(None, true).unwrap();
        // Worker 0 epoch 1 streams an open span, then dies; worker 0
        // epoch 2 streams a completed span with the same local id.
        let mut open = span_fixture(0, 11, 1_000, 0xfeed);
        open.dur_us = None;
        hub.note_worker_update(
            0,
            1,
            TeleUpdate {
                spans: vec![],
                open: vec![open],
                metrics: BTreeMap::new(),
                slo: SloSnapshot::new(),
            },
        );
        hub.note_worker_update(
            0,
            2,
            TeleUpdate {
                spans: vec![span_fixture(0, 11, 2_000, 0xfeed)],
                open: vec![],
                metrics: BTreeMap::new(),
                slo: SloSnapshot::new(),
            },
        );
        let spans = hub.spans();
        assert_eq!(spans.len(), 2, "epochs keep distinct span identities");
        let json = hub.merged_chrome_trace();
        assert!(json.contains("\"unfinished\":true"), "{json}");
        assert!(json.contains("\"epoch\":1"), "{json}");
        assert!(json.contains("\"epoch\":2"), "{json}");
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains(&format!("\"trace\":\"{:032x}\"", 0xfeedu128)));
    }

    #[test]
    fn a_hub_that_does_not_keep_spans_stores_none_but_spools_them() {
        let dir = std::env::temp_dir().join(format!("mpidfa-hub-spool-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let hub = TelemetryHub::new(Some(&dir), false).unwrap();
        assert!(hub.wants_spans());
        let mut open = span_fixture(0, 2, 20, 0x1);
        open.dur_us = None;
        hub.add_spans(vec![span_fixture(0, 1, 10, 0x1), open]);
        assert!(hub.spans().is_empty());
        let spool = std::fs::read_to_string(dir.join("spans.jsonl")).unwrap();
        assert_eq!(spool.lines().count(), 1, "only the completed span: {spool}");
        assert!(!TelemetryHub::new(None, false).unwrap().wants_spans());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_access_ring_keeps_the_most_recent_lines() {
        let hub = TelemetryHub::new(None, false).unwrap();
        let rec = |i: usize| AccessRecord {
            trace: i as u128,
            verb: "analyze".into(),
            shard: None,
            epoch: 0,
            attempts: 1,
            cache: "hit".into(),
            tier: "-".into(),
            latency_us: i as u64,
        };
        for i in 0..MAX_ACCESS + 3 {
            hub.record_access(&rec(i));
        }
        let lines = hub.access_lines();
        assert_eq!(lines.len(), MAX_ACCESS);
        assert_eq!(lines[0], rec(3).render(), "the ring starts at record 3");
        assert_eq!(lines[MAX_ACCESS - 1], rec(MAX_ACCESS + 2).render());
    }

    #[test]
    fn reconstruct_trace_renders_cross_process_timeline() {
        // Router route span (pid 0, id 5) parents a worker request span
        // (pid 2, remote_parent 5) which parents a local child.
        let router = CompletedSpan {
            pid: 0,
            tid: 1,
            epoch: 0,
            id: 5,
            parent: None,
            trace: Some(0xcafe),
            name: "route".into(),
            cat: "router".into(),
            ts_us: 1_000,
            dur_us: Some(5_000),
            args: vec![],
        };
        let mut worker = span_fixture(2, 9, 2_000, 0xcafe);
        worker.name = "request".into();
        worker.args.push(("remote_parent".into(), "5".into()));
        let mut child = span_fixture(2, 10, 2_500, 0xcafe);
        child.name = "fixpoint".into();
        child.parent = Some(9);
        let other_trace = span_fixture(1, 3, 1_500, 0xbeef);
        let spool: String = [&router, &worker, &child, &other_trace]
            .iter()
            .map(|s| format!("{}\n", s.render()))
            .collect();
        let access = AccessRecord {
            trace: 0xcafe,
            verb: "analyze".into(),
            shard: Some(1),
            epoch: 1,
            attempts: 2,
            cache: "miss".into(),
            tier: "T0".into(),
            latency_us: 5_100,
        }
        .render();
        let report = reconstruct_trace(&spool, &access, 0xcafe).unwrap();
        assert!(report.contains("trace 0000000000000000000000000000cafe"));
        assert!(report.contains("access: verb=analyze shard=1"), "{report}");
        assert!(report.contains("router"), "{report}");
        assert!(report.contains("shard 1/e1"), "{report}");
        // Nesting: worker request indents under route, fixpoint under it.
        assert!(report.contains("  request"), "{report}");
        assert!(report.contains("    fixpoint"), "{report}");
        assert!(!report.contains("span-3"), "other traces filtered out");
        assert!(reconstruct_trace(&spool, &access, 0x1).is_err());
    }
}
