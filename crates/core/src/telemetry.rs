//! Zero-dependency telemetry: structured spans, counters, and event
//! timelines for the whole analysis pipeline.
//!
//! The paper's evaluation reports only opaque aggregates (Table 1's "Iter"
//! column, active-byte totals). This module gives the reproduction an
//! observable substrate: every pipeline stage (lex → parse → sema → ICFG
//! build → clone expansion → MPI matching → solver fixpoints → governor
//! tier transitions) can open a [`span`], solvers publish fixpoint counters
//! as metrics, and the runtime interpreter emits a communication-event
//! timeline (send/recv/block/unblock/fault events with logical
//! timestamps).
//!
//! ## Design contract
//!
//! * **Off by default, no-op when off.** The global sink starts disabled.
//!   Every recording entry point first performs one `Relaxed` atomic load;
//!   when the sink is disabled nothing is allocated and no lock is taken.
//!   [`SpanGuard`] is a newtype over `Option<…>` that is `None` on the
//!   disabled path.
//! * **No external crates.** Events buffer in a `Mutex<Vec<Event>>`;
//!   exporters are hand-rolled writers for the Chrome trace-event JSON
//!   format, the Prometheus text exposition format, and an indented span
//!   tree for failure reports.
//! * **Deterministic shape.** Exporters emit keys in a fixed order and
//!   metrics sorted by name so exports diff cleanly run-over-run (values
//!   such as wall-clock timestamps still vary, the *shape* does not).
//!
//! ## Usage
//!
//! ```
//! use mpi_dfa_core::telemetry::{self, TraceLevel};
//!
//! telemetry::install(TraceLevel::Full);
//! {
//!     let _span = telemetry::span("pipeline", "parse");
//!     telemetry::metric_add("frontend_tokens_total", 42.0);
//! }
//! let report = telemetry::finish();
//! assert_eq!(report.events.len(), 2); // begin + end
//! let json = telemetry::export_chrome_trace(&report.events);
//! assert!(json.starts_with("{\"traceEvents\":["));
//! let text = telemetry::export_metrics_text(&report.metrics);
//! assert!(text.contains("frontend_tokens_total 42"));
//! ```

use crate::json;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

// ---------------------------------------------------------------------------
// Trace levels
// ---------------------------------------------------------------------------

/// How much the sink records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum TraceLevel {
    /// Sink disabled: every entry point is a no-op (one relaxed load).
    #[default]
    Off = 0,
    /// Hierarchical spans and counters only (pipeline stages, fixpoints,
    /// governor tiers); the high-rate per-message communication timeline is
    /// suppressed.
    Spans = 1,
    /// Everything, including per-message communication events from the
    /// interpreter's scheduler.
    Full = 2,
}

impl TraceLevel {
    /// Parse a CLI spelling. Accepts `off`, `spans`, `full`.
    pub fn parse(s: &str) -> Result<TraceLevel, String> {
        match s.to_ascii_lowercase().as_str() {
            "off" | "none" | "0" => Ok(TraceLevel::Off),
            "spans" | "span" | "1" => Ok(TraceLevel::Spans),
            "full" | "all" | "2" => Ok(TraceLevel::Full),
            other => Err(format!(
                "unknown trace level `{other}` (expected off|spans|full)"
            )),
        }
    }

    fn from_u8(v: u8) -> TraceLevel {
        match v {
            1 => TraceLevel::Spans,
            2 => TraceLevel::Full,
            _ => TraceLevel::Off,
        }
    }
}

impl std::fmt::Display for TraceLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TraceLevel::Off => "off",
            TraceLevel::Spans => "spans",
            TraceLevel::Full => "full",
        })
    }
}

// ---------------------------------------------------------------------------
// Event model
// ---------------------------------------------------------------------------

/// A typed argument value attached to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
    Str(String),
}

impl ArgValue {
    /// The value as a JSON literal; a non-finite float renders as `null`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    fn write_json(&self, out: &mut String) {
        match self {
            ArgValue::U64(v) => {
                let _ = write!(out, "{v}");
            }
            ArgValue::I64(v) => {
                let _ = write!(out, "{v}");
            }
            ArgValue::F64(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v}");
                } else {
                    out.push_str("null");
                }
            }
            ArgValue::Bool(v) => {
                let _ = write!(out, "{v}");
            }
            ArgValue::Str(s) => {
                out.push('"');
                out.push_str(&json::escape(s));
                out.push('"');
            }
        }
    }
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}
impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}
impl From<i64> for ArgValue {
    fn from(v: i64) -> Self {
        ArgValue::I64(v)
    }
}
impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}
impl From<bool> for ArgValue {
    fn from(v: bool) -> Self {
        ArgValue::Bool(v)
    }
}
impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_string())
    }
}
impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}

/// What kind of trace event this is (maps onto Chrome trace phases).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// Span open (`ph: "B"`). `id` pairs it with its end; `parent` is the
    /// span open on the same thread when this one began.
    SpanBegin { id: u64, parent: Option<u64> },
    /// Span close (`ph: "E"`).
    SpanEnd { id: u64 },
    /// Point-in-time event (`ph: "i"`), e.g. a governor tier transition or
    /// one message-passing action.
    Instant,
    /// Sampled counter value (`ph: "C"`), e.g. budget headroom over time.
    Counter { value: f64 },
}

/// One recorded telemetry event.
#[derive(Debug, Clone)]
pub struct Event {
    /// Event name (span name, instant name, or counter series name).
    pub name: String,
    /// Category: `pipeline`, `solver`, `governor`, `comm`, `fault`, …
    pub cat: &'static str,
    pub kind: EventKind,
    /// Stable small integer per OS thread (thread 1 = first recording
    /// thread). Becomes the Chrome trace `tid`.
    pub tid: u64,
    /// Microseconds since [`install`] was called.
    pub ts_us: u64,
    /// Distributed trace id this event belongs to, when the recording
    /// thread was inside a [`with_trace`] scope. `None` for untraced work.
    pub trace: Option<u128>,
    /// Arguments, in insertion order (exporters preserve it).
    pub args: Vec<(&'static str, ArgValue)>,
}

/// Everything the sink collected, returned by [`finish`]/[`snapshot`].
#[derive(Debug, Clone, Default)]
pub struct TelemetryReport {
    pub events: Vec<Event>,
    /// Monotonic named counters/gauges, keyed by Prometheus-style series
    /// name (labels baked into the name by [`metric_name`]).
    pub metrics: BTreeMap<String, f64>,
}

// ---------------------------------------------------------------------------
// The global sink
// ---------------------------------------------------------------------------

/// Current level; `Relaxed` load on every hot-path check.
static LEVEL: AtomicU8 = AtomicU8::new(0);
/// Monotonic span-id source.
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
/// Monotonic thread-id source (tid 0 is reserved for "unknown").
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

struct SinkState {
    events: Vec<Event>,
    metrics: BTreeMap<String, f64>,
    epoch: Option<Instant>,
    /// Wall-clock microseconds since the UNIX epoch captured at the same
    /// moment as `epoch`. `ts_us + unix_base_us` puts events from several
    /// processes on one (same-host) timebase so cross-process traces merge.
    unix_base_us: u64,
}

static STATE: Mutex<SinkState> = Mutex::new(SinkState {
    events: Vec::new(),
    metrics: BTreeMap::new(),
    epoch: None,
    unix_base_us: 0,
});

/// Serialises tests (across crates) that install/finish the global sink, so
/// parallel test threads in one binary do not clobber each other's buffers.
/// Not part of the public API.
#[doc(hidden)]
pub static TEST_SINK_GATE: Mutex<()> = Mutex::new(());

thread_local! {
    /// Stable per-thread id for Chrome trace `tid`.
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    /// Stack of currently-open span ids on this thread (parent tracking).
    // Each open span's id plus the trace it was recorded under: the trace
    // id lets a new span tell whether its local parent belongs to the same
    // distributed trace (if not, it is the trace's entry span in this
    // process and must record the cross-process `remote_parent` link).
    static SPAN_STACK: std::cell::RefCell<Vec<(u64, Option<u128>)>> =
        const { std::cell::RefCell::new(Vec::new()) };
    /// Distributed trace context for the current thread, set by
    /// [`with_trace`]; every event recorded inside the scope is tagged.
    static TRACE_CTX: std::cell::Cell<Option<TraceContext>> = const { std::cell::Cell::new(None) };
}

/// Distributed trace context: a 128-bit trace id plus the span id of the
/// *remote* parent (e.g. the router's `route` span when this process is a
/// worker). `parent_span == 0` means "no remote parent".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    pub trace_id: u128,
    pub parent_span: u64,
}

/// Run `f` with the given trace context installed on this thread. Every
/// event recorded inside (spans, instants, counters) carries the trace id;
/// the outermost span opened inside the scope additionally records the
/// remote parent span id as a `remote_parent` arg, which is how
/// cross-process parenting is expressed (span ids themselves are only
/// unique per process). Nesting restores the previous context on exit.
pub fn with_trace<R>(ctx: Option<TraceContext>, f: impl FnOnce() -> R) -> R {
    let prev = TRACE_CTX.with(|c| c.replace(ctx));
    struct Restore(Option<TraceContext>);
    impl Drop for Restore {
        fn drop(&mut self) {
            TRACE_CTX.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(prev);
    f()
}

/// The trace context currently installed on this thread, if any.
pub fn current_trace() -> Option<TraceContext> {
    TRACE_CTX.with(|c| c.get())
}

/// Format a 128-bit trace id as the canonical 32-hex-digit wire spelling.
pub fn format_trace_id(id: u128) -> String {
    format!("{id:032x}")
}

/// Parse the canonical 32-hex-digit trace id spelling (also accepts
/// shorter hex strings, which zero-extend).
pub fn parse_trace_id(s: &str) -> Option<u128> {
    if s.is_empty() || s.len() > 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u128::from_str_radix(s, 16).ok()
}

fn lock_state() -> MutexGuard<'static, SinkState> {
    // The sink must stay usable across a caught panic (the fuzz harness
    // re-reads it after catch_unwind), so poison is not fatal.
    STATE.lock().unwrap_or_else(|p| p.into_inner())
}

/// Is the sink recording at all? One relaxed atomic load; inlined so the
/// disabled path costs nothing measurable.
#[inline(always)]
pub fn is_enabled() -> bool {
    LEVEL.load(Ordering::Relaxed) != 0
}

/// Current trace level.
#[inline(always)]
pub fn level() -> TraceLevel {
    TraceLevel::from_u8(LEVEL.load(Ordering::Relaxed))
}

/// Enable the sink at `level`, clearing any previously buffered data and
/// restarting the timestamp epoch. `TraceLevel::Off` disables.
pub fn install(level: TraceLevel) {
    let mut st = lock_state();
    st.events.clear();
    st.metrics.clear();
    st.epoch = Some(Instant::now());
    st.unix_base_us = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0);
    // Publish the level only after the buffer is reset so concurrent
    // recorders never append to a stale buffer.
    LEVEL.store(level as u8, Ordering::SeqCst);
}

/// Disable the sink and return everything it collected.
pub fn finish() -> TelemetryReport {
    LEVEL.store(0, Ordering::SeqCst);
    let mut st = lock_state();
    TelemetryReport {
        events: std::mem::take(&mut st.events),
        metrics: std::mem::take(&mut st.metrics),
    }
}

/// Copy out the current buffer without disabling the sink.
pub fn snapshot() -> TelemetryReport {
    let st = lock_state();
    TelemetryReport {
        events: st.events.clone(),
        metrics: st.metrics.clone(),
    }
}

/// Take the buffered events (leaving the buffer empty) and copy the
/// cumulative metrics, *without* disabling the sink or restarting the
/// timestamp epoch. This is the streaming-export primitive: a flusher
/// thread calls it periodically and ships the increment, while recording
/// continues uninterrupted. Metrics are cumulative (the same series keeps
/// growing across drains); events are incremental.
pub fn drain() -> TelemetryReport {
    let mut st = lock_state();
    TelemetryReport {
        events: std::mem::take(&mut st.events),
        metrics: st.metrics.clone(),
    }
}

/// Wall-clock microseconds since the UNIX epoch at the moment the sink was
/// installed (0 if never installed). `event.ts_us + unix_base_us()` places
/// an event on the shared same-host timebase used when merging traces from
/// several processes.
pub fn unix_base_us() -> u64 {
    lock_state().unix_base_us
}

fn now_us(st: &SinkState) -> u64 {
    st.epoch
        .map(|e| e.elapsed().as_micros() as u64)
        .unwrap_or(0)
}

fn push_event(
    cat: &'static str,
    name: String,
    kind: EventKind,
    args: Vec<(&'static str, ArgValue)>,
) {
    let tid = TID.with(|t| *t);
    let trace = TRACE_CTX.with(|c| c.get()).map(|c| c.trace_id);
    let mut st = lock_state();
    let ts_us = now_us(&st);
    st.events.push(Event {
        name,
        cat,
        kind,
        tid,
        ts_us,
        trace,
        args,
    });
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// RAII guard for a hierarchical span. When the sink is disabled this is a
/// `None` wrapper: constructing and dropping it performs no allocation and
/// takes no lock.
#[must_use = "a span closes when its guard drops"]
pub struct SpanGuard(Option<OpenSpan>);

struct OpenSpan {
    id: u64,
    cat: &'static str,
    name: String,
    args: Vec<(&'static str, ArgValue)>,
}

impl SpanGuard {
    /// A guard that records nothing (disabled sink).
    pub const fn disabled() -> SpanGuard {
        SpanGuard(None)
    }

    /// Attach an argument to the span's *end* event (visible in the trace
    /// viewer when the span is selected). No-op when disabled.
    pub fn arg(&mut self, key: &'static str, value: impl Into<ArgValue>) {
        if let Some(open) = &mut self.0 {
            open.args.push((key, value.into()));
        }
    }

    /// The span id, if recording.
    pub fn id(&self) -> Option<u64> {
        self.0.as_ref().map(|o| o.id)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(open) = self.0.take() {
            SPAN_STACK.with(|s| {
                let mut s = s.borrow_mut();
                if s.last().map(|(id, _)| *id) == Some(open.id) {
                    s.pop();
                } else {
                    // Out-of-order drop (e.g. unwinding): best-effort removal.
                    s.retain(|&(id, _)| id != open.id);
                }
            });
            push_event(
                open.cat,
                open.name,
                EventKind::SpanEnd { id: open.id },
                open.args,
            );
        }
    }
}

/// Open a span at [`TraceLevel::Spans`]. Returns a disabled guard (no
/// allocation) when the sink is off.
#[inline]
pub fn span(cat: &'static str, name: &str) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard::disabled();
    }
    span_slow(cat, name.to_string())
}

#[cold]
fn span_slow(cat: &'static str, name: String) -> SpanGuard {
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let trace = TRACE_CTX.with(|c| c.get());
    let trace_id = trace.map(|ctx| ctx.trace_id);
    let parent = SPAN_STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied();
        s.push((id, trace_id));
        parent
    });
    // The trace's entry span in this process — no local parent, or a local
    // parent recorded outside this trace (e.g. a worker's `request` span
    // under the untraced `connection` span) — records where it hangs in
    // the cross-process tree. Span ids are only unique per process, so
    // this is an informational arg, not a `parent`.
    let mut begin_args = Vec::new();
    if let Some(ctx) = trace {
        let entry = parent.is_none_or(|(_, parent_trace)| parent_trace != trace_id);
        if entry && ctx.parent_span != 0 {
            begin_args.push(("remote_parent", ArgValue::U64(ctx.parent_span)));
        }
    }
    push_event(
        cat,
        name.clone(),
        EventKind::SpanBegin {
            id,
            parent: parent.map(|(pid, _)| pid),
        },
        begin_args,
    );
    SpanGuard(Some(OpenSpan {
        id,
        cat,
        name,
        args: Vec::new(),
    }))
}

/// Record a point-in-time event at [`TraceLevel::Spans`].
#[inline]
pub fn instant(cat: &'static str, name: &str, args: Vec<(&'static str, ArgValue)>) {
    if !is_enabled() {
        return;
    }
    push_event(cat, name.to_string(), EventKind::Instant, args);
}

/// Record a per-message communication event. Only recorded at
/// [`TraceLevel::Full`] — the high-rate timeline would otherwise dominate
/// span traces.
#[inline]
pub fn comm_event(name: &str, args: Vec<(&'static str, ArgValue)>) {
    if level() < TraceLevel::Full {
        return;
    }
    push_event("comm", name.to_string(), EventKind::Instant, args);
}

/// Sample a counter series (Chrome trace `ph: "C"`), e.g. budget headroom
/// over time.
#[inline]
pub fn counter(cat: &'static str, name: &str, value: f64) {
    if !is_enabled() {
        return;
    }
    push_event(
        cat,
        name.to_string(),
        EventKind::Counter { value },
        Vec::new(),
    );
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// Add `delta` to the named metric (creating it at 0). No-op when disabled.
#[inline]
pub fn metric_add(name: &str, delta: f64) {
    if !is_enabled() {
        return;
    }
    let mut st = lock_state();
    *st.metrics.entry(name.to_string()).or_insert(0.0) += delta;
}

/// Set the named metric to `max(current, value)` (high-water marks).
#[inline]
pub fn metric_max(name: &str, value: f64) {
    if !is_enabled() {
        return;
    }
    let mut st = lock_state();
    let e = st.metrics.entry(name.to_string()).or_insert(f64::MIN);
    if value > *e {
        *e = value;
    }
}

/// Overwrite the named metric (gauges).
#[inline]
pub fn metric_set(name: &str, value: f64) {
    if !is_enabled() {
        return;
    }
    let mut st = lock_state();
    st.metrics.insert(name.to_string(), value);
}

/// Bake labels into a Prometheus-style series name:
/// `metric_name("solver_node_visits_total", &[("analysis", "vary")])`
/// → `solver_node_visits_total{analysis="vary"}`. Labels are emitted in the
/// order given; callers should pass them pre-sorted for determinism.
pub fn metric_name(base: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return base.to_string();
    }
    let mut out = String::with_capacity(base.len() + 16 * labels.len());
    out.push_str(base);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{k}=\"{}\"",
            v.replace('\\', "\\\\").replace('"', "\\\"")
        );
    }
    out.push('}');
    out
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

/// Render events as Chrome trace-event JSON (the "JSON Array Format" with
/// the `traceEvents` wrapper), loadable in `chrome://tracing` and Perfetto.
///
/// Key order inside every event object is fixed
/// (`name, cat, ph, pid, tid, ts[, id][, args]`) so traces are diffable.
pub fn export_chrome_trace(events: &[Event]) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 64);
    out.push_str("{\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n{");
        let _ = write!(
            out,
            "\"name\":\"{}\",\"cat\":\"{}\",",
            json::escape(&e.name),
            json::escape(e.cat)
        );
        let ph = match e.kind {
            EventKind::SpanBegin { .. } => "B",
            EventKind::SpanEnd { .. } => "E",
            EventKind::Instant => "i",
            EventKind::Counter { .. } => "C",
        };
        let _ = write!(
            out,
            "\"ph\":\"{ph}\",\"pid\":1,\"tid\":{},\"ts\":{}",
            e.tid, e.ts_us
        );
        if let EventKind::Instant = e.kind {
            out.push_str(",\"s\":\"t\"");
        }
        match &e.kind {
            EventKind::Counter { value } => {
                let _ = write!(out, ",\"args\":{{\"value\":{value}}}");
            }
            _ => {
                let mut wrote_args = false;
                let mut sep = |out: &mut String| {
                    if wrote_args {
                        out.push(',');
                    } else {
                        out.push_str(",\"args\":{");
                        wrote_args = true;
                    }
                };
                if let Some(t) = e.trace {
                    sep(&mut out);
                    let _ = write!(out, "\"trace\":\"{t:032x}\"");
                }
                if let EventKind::SpanBegin {
                    parent: Some(p), ..
                } = e.kind
                {
                    sep(&mut out);
                    let _ = write!(out, "\"parent_span\":{p}");
                }
                for (k, v) in &e.args {
                    sep(&mut out);
                    let _ = write!(out, "\"{}\":", json::escape(k));
                    v.write_json(&mut out);
                }
                if wrote_args {
                    out.push('}');
                }
            }
        }
        out.push('}');
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// Render metrics in the Prometheus text exposition format, sorted by
/// series name (a `BTreeMap` iterates sorted, so the output is
/// deterministic up to values).
pub fn export_metrics_text(metrics: &BTreeMap<String, f64>) -> String {
    let mut out = String::with_capacity(metrics.len() * 48 + 64);
    out.push_str("# mpi-dfa telemetry metrics (Prometheus text exposition format)\n");
    for (name, value) in metrics {
        if value.fract() == 0.0 && value.abs() < 9.0e15 {
            let _ = writeln!(out, "{name} {}", *value as i64);
        } else {
            let _ = writeln!(out, "{name} {value}");
        }
    }
    out
}

/// Render the span tree contained in `events` as an indented text outline
/// with per-span elapsed time — used by the fuzz harness to describe where
/// a failing case spent its time.
pub fn render_span_tree(events: &[Event]) -> String {
    struct Node {
        name: String,
        begin_us: u64,
        end_us: Option<u64>,
        children: Vec<usize>,
    }
    let mut nodes: Vec<Node> = Vec::new();
    let mut roots: Vec<usize> = Vec::new();
    let mut by_id: BTreeMap<u64, usize> = BTreeMap::new();
    for e in events {
        match e.kind {
            EventKind::SpanBegin { id, parent } => {
                let idx = nodes.len();
                nodes.push(Node {
                    name: e.name.clone(),
                    begin_us: e.ts_us,
                    end_us: None,
                    children: Vec::new(),
                });
                by_id.insert(id, idx);
                match parent.and_then(|p| by_id.get(&p).copied()) {
                    Some(pidx) => nodes[pidx].children.push(idx),
                    None => roots.push(idx),
                }
            }
            EventKind::SpanEnd { id } => {
                if let Some(&idx) = by_id.get(&id) {
                    nodes[idx].end_us = Some(e.ts_us);
                }
            }
            _ => {}
        }
    }
    fn emit(nodes: &[Node], idx: usize, depth: usize, out: &mut String) {
        let n = &nodes[idx];
        let dur = match n.end_us {
            Some(e) => format!("{:.3} ms", (e.saturating_sub(n.begin_us)) as f64 / 1000.0),
            None => "unfinished".to_string(),
        };
        let _ = writeln!(out, "{}{} [{}]", "  ".repeat(depth), n.name, dur);
        for &c in &n.children {
            emit(nodes, c, depth + 1, out);
        }
    }
    let mut out = String::new();
    for &r in &roots {
        emit(&nodes, r, 0, &mut out);
    }
    if out.is_empty() {
        out.push_str("(no spans recorded)\n");
    }
    out
}

// ---------------------------------------------------------------------------
// CLI surface
// ---------------------------------------------------------------------------

/// The `--trace-out` / `--metrics-out` / `--trace-level` flag bundle shared
/// by `mpidfa` and `repro`. Resolving, installing, and flushing live here so
/// both binaries expose identical semantics:
///
/// * with an output requested but no explicit level the sink records
///   everything ([`TraceLevel::Full`]) — the overhead is opt-in by
///   construction;
/// * a level without outputs prints the span tree to stderr instead;
/// * files are written even when the traced command fails (a trace of a
///   failing run is exactly when you want one).
#[derive(Debug, Default, Clone)]
pub struct CliTelemetry {
    pub trace_out: Option<String>,
    pub metrics_out: Option<String>,
    pub level: Option<TraceLevel>,
}

impl CliTelemetry {
    /// Combine the three raw flag values into a config, defaulting the
    /// level to `Full` when any output was requested.
    pub fn resolve(
        trace_out: Option<String>,
        metrics_out: Option<String>,
        level: Option<&str>,
    ) -> Result<CliTelemetry, String> {
        let level = match level {
            Some(s) => Some(TraceLevel::parse(s).map_err(|e| format!("--trace-level: {e}"))?),
            None if trace_out.is_some() || metrics_out.is_some() => Some(TraceLevel::Full),
            None => None,
        };
        Ok(CliTelemetry {
            trace_out,
            metrics_out,
            level,
        })
    }

    /// True when any recording will actually happen.
    pub fn enabled(&self) -> bool {
        self.level.is_some_and(|l| l > TraceLevel::Off)
    }

    /// Install the global sink at the resolved level (no-op without one).
    pub fn install(&self) {
        if let Some(level) = self.level {
            install(level);
        }
    }

    /// Drain the sink and write the requested files; with a level but no
    /// outputs, render the span tree to stderr instead.
    pub fn write(&self) -> Result<(), String> {
        if !self.enabled() {
            return Ok(());
        }
        let report = finish();
        if let Some(path) = &self.trace_out {
            std::fs::write(path, export_chrome_trace(&report.events))
                .map_err(|e| format!("--trace-out {path}: {e}"))?;
            eprintln!("wrote {} trace events to {path}", report.events.len());
        }
        if let Some(path) = &self.metrics_out {
            std::fs::write(path, export_metrics_text(&report.metrics))
                .map_err(|e| format!("--metrics-out {path}: {e}"))?;
            eprintln!("wrote {} metrics to {path}", report.metrics.len());
        }
        if self.trace_out.is_none() && self.metrics_out.is_none() {
            eprintln!("{}", render_span_tree(&report.events));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn disabled_sink_records_nothing() {
        let _g = TEST_SINK_GATE.lock().unwrap_or_else(|p| p.into_inner());
        let _ = finish();
        assert!(!is_enabled());
        {
            let mut s = span("pipeline", "should-not-record");
            s.arg("k", 1u64);
            instant("pipeline", "nope", vec![]);
            comm_event("nope", vec![]);
            counter("solver", "nope", 1.0);
            metric_add("nope_total", 1.0);
        }
        let report = finish();
        assert!(report.events.is_empty());
        assert!(report.metrics.is_empty());
    }

    #[test]
    fn span_nesting_is_tracked_per_thread() {
        let _g = TEST_SINK_GATE.lock().unwrap_or_else(|p| p.into_inner());
        install(TraceLevel::Spans);
        {
            let _outer = span("pipeline", "outer");
            let _inner = span("pipeline", "inner");
        }
        let report = finish();
        // Other tests in this binary may run solves concurrently and emit
        // solver spans while the sink is installed; assert only on this
        // test's own spans.
        let own: Vec<_> = report
            .events
            .iter()
            .filter(|e| e.name == "outer" || e.name == "inner")
            .collect();
        assert_eq!(own.len(), 4);
        let (outer_id, inner_parent) = {
            let mut outer_id = None;
            let mut inner_parent = None;
            for e in &report.events {
                if let EventKind::SpanBegin { id, parent } = e.kind {
                    if e.name == "outer" {
                        outer_id = Some(id);
                    } else if e.name == "inner" {
                        inner_parent = parent;
                    }
                }
            }
            (outer_id, inner_parent)
        };
        assert_eq!(outer_id, inner_parent);
        let tree = render_span_tree(&report.events);
        assert!(tree.contains("outer"));
        assert!(tree.contains("  inner"), "{tree}");
    }

    #[test]
    fn spans_level_suppresses_comm_events() {
        let _g = TEST_SINK_GATE.lock().unwrap_or_else(|p| p.into_inner());
        let count_sends = |r: &TelemetryReport| {
            r.events
                .iter()
                .filter(|e| e.name == "send" && e.cat == "comm")
                .count()
        };
        install(TraceLevel::Spans);
        comm_event("send", vec![("rank", ArgValue::U64(0))]);
        assert_eq!(count_sends(&finish()), 0);
        install(TraceLevel::Full);
        comm_event("send", vec![("rank", ArgValue::U64(0))]);
        assert_eq!(count_sends(&finish()), 1);
    }

    #[test]
    fn chrome_trace_is_valid_and_key_ordered() {
        let _g = TEST_SINK_GATE.lock().unwrap_or_else(|p| p.into_inner());
        install(TraceLevel::Full);
        {
            let mut s = span("solver", "fixpoint \"vary\"\nline2");
            s.arg("passes", 3u64);
            s.arg("strategy", "region");
        }
        counter("solver", "budget_headroom", 0.5);
        let report = finish();
        let text = export_chrome_trace(&report.events);
        let doc = json::parse(&text).expect("the exporter writes valid JSON");
        assert_eq!(
            doc.get("displayTimeUnit").and_then(Json::as_str),
            Some("ms")
        );
        // Other tests' solver spans may land in the sink too, so pick this
        // test's events out by name.
        let named = |name: &str| -> Vec<&Json> {
            let events = doc.get("traceEvents").and_then(Json::as_array);
            let events = events.expect("traceEvents is an array");
            events
                .iter()
                .filter(|e| e.get("name").and_then(Json::as_str) == Some(name))
                .collect()
        };
        // The quote and newline in the span name survive the round trip.
        let span = named("fixpoint \"vary\"\nline2");
        let counter = named("budget_headroom");
        let phases: Vec<_> = span
            .iter()
            .map(|e| e.get("ph").and_then(Json::as_str))
            .collect();
        assert_eq!(phases, [Some("B"), Some("E")]);
        assert_eq!(counter.len(), 1);
        assert_eq!(counter[0].get("ph").and_then(Json::as_str), Some("C"));
        // Fixed key order.
        let Json::Obj(fields) = span[0] else {
            panic!("an event is an object: {:?}", span[0]);
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["name", "cat", "ph", "pid", "tid", "ts"]);
        let args = span[1].get("args").expect("the span end carries its args");
        assert_eq!(args.get("passes").and_then(Json::as_u64), Some(3));
        assert_eq!(args.get("strategy").and_then(Json::as_str), Some("region"));
        let value = counter[0].get("args").and_then(|a| a.get("value"));
        assert_eq!(value, Some(&Json::Num(0.5)));
    }

    #[test]
    fn metrics_accumulate_and_export_sorted() {
        let _g = TEST_SINK_GATE.lock().unwrap_or_else(|p| p.into_inner());
        install(TraceLevel::Spans);
        metric_add("z_total", 1.0);
        metric_add("a_total", 2.0);
        metric_add("a_total", 3.0);
        metric_max("peak", 7.0);
        metric_max("peak", 4.0);
        let report = finish();
        assert_eq!(report.metrics["a_total"], 5.0);
        assert_eq!(report.metrics["peak"], 7.0);
        let text = export_metrics_text(&report.metrics);
        let a = text.find("a_total 5").unwrap();
        let z = text.find("z_total 1").unwrap();
        assert!(a < z, "{text}");
    }

    #[test]
    fn metric_name_bakes_labels() {
        assert_eq!(metric_name("x_total", &[]), "x_total");
        assert_eq!(
            metric_name("x_total", &[("analysis", "vary"), ("tier", "T0")]),
            "x_total{analysis=\"vary\",tier=\"T0\"}"
        );
        assert_eq!(metric_name("x", &[("k", "a\"b")]), "x{k=\"a\\\"b\"}");
    }

    #[test]
    fn install_resets_previous_buffer() {
        let _g = TEST_SINK_GATE.lock().unwrap_or_else(|p| p.into_inner());
        install(TraceLevel::Spans);
        instant("pipeline", "first", vec![]);
        install(TraceLevel::Spans);
        instant("pipeline", "second", vec![]);
        let report = finish();
        assert!(!report.events.iter().any(|e| e.name == "first"));
        assert!(report.events.iter().any(|e| e.name == "second"));
    }

    #[test]
    fn with_trace_tags_events_and_outermost_span_records_remote_parent() {
        let _g = TEST_SINK_GATE.lock().unwrap_or_else(|p| p.into_inner());
        install(TraceLevel::Spans);
        let ctx = TraceContext {
            trace_id: 0xabcd,
            parent_span: 77,
        };
        with_trace(Some(ctx), || {
            assert_eq!(current_trace(), Some(ctx));
            let _outer = span("service", "traced-outer");
            let _inner = span("service", "traced-inner");
            instant("service", "traced-instant", vec![]);
        });
        assert_eq!(current_trace(), None);
        instant("service", "untraced", vec![]);
        let report = finish();
        let by_name = |n: &str| report.events.iter().find(|e| e.name == n).unwrap();
        assert_eq!(by_name("traced-outer").trace, Some(0xabcd));
        assert_eq!(by_name("traced-instant").trace, Some(0xabcd));
        assert_eq!(by_name("untraced").trace, None);
        // Only the span with no local parent carries the remote parent arg.
        let remote = |n: &str| {
            by_name(n)
                .args
                .iter()
                .any(|(k, v)| *k == "remote_parent" && *v == ArgValue::U64(77))
        };
        assert!(remote("traced-outer"));
        assert!(!remote("traced-inner"));
        // The chrome exporter surfaces the trace id in args.
        let json = export_chrome_trace(&report.events);
        assert!(
            json.contains("\"trace\":\"0000000000000000000000000000abcd\""),
            "{json}"
        );
    }

    #[test]
    fn drain_takes_events_but_keeps_recording_and_metrics() {
        let _g = TEST_SINK_GATE.lock().unwrap_or_else(|p| p.into_inner());
        install(TraceLevel::Spans);
        assert!(unix_base_us() > 0);
        instant("service", "before-drain", vec![]);
        metric_add("drain_test_total", 1.0);
        let first = drain();
        assert!(first.events.iter().any(|e| e.name == "before-drain"));
        assert_eq!(first.metrics["drain_test_total"], 1.0);
        assert!(is_enabled(), "drain must not disable the sink");
        instant("service", "after-drain", vec![]);
        metric_add("drain_test_total", 2.0);
        let second = drain();
        assert!(!second.events.iter().any(|e| e.name == "before-drain"));
        assert!(second.events.iter().any(|e| e.name == "after-drain"));
        assert_eq!(second.metrics["drain_test_total"], 3.0, "cumulative");
        let _ = finish();
    }

    #[test]
    fn trace_id_round_trips_through_wire_spelling() {
        let id = 0x0123_4567_89ab_cdef_0011_2233_4455_6677u128;
        assert_eq!(parse_trace_id(&format_trace_id(id)), Some(id));
        assert_eq!(format_trace_id(id).len(), 32);
        assert_eq!(parse_trace_id("ff"), Some(0xff));
        assert_eq!(parse_trace_id(""), None);
        assert_eq!(parse_trace_id("xyz"), None);
        assert_eq!(parse_trace_id(&"0".repeat(33)), None);
    }
}
