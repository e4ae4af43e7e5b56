//! Consistent-hash request router for the sharded service (`mpidfa serve
//! --shards N`).
//!
//! The router is a second [`LineHandler`] behind the same socket loop as
//! the single-box worker, so clients keep speaking the exact protocol
//! they already speak — same banner, same verbs, same structured errors.
//! Per analysis request it
//!
//! * computes the **routing key** ([`crate::cache::routing_key`] — the
//!   content-addressed request identity minus cacheability), and walks a
//!   [`HashRing`] with virtual nodes so the same logical query always
//!   lands on the same shard (cache locality) and shard counts can
//!   change without remapping the whole key space;
//! * **forwards the request canonically re-rendered** over a pooled
//!   connection, stamped with its distributed-trace context (the
//!   client's, or one minted here) and the attempt counter — the
//!   worker's response (id included) passes through untouched, and
//!   since responses carry no trace or wall-clock fields, a routed
//!   response is byte-identical to a single-box response;
//! * **retries and hedges**: responses are idempotent by construction
//!   (no wall-clock fields, hit ≡ recompute), so a transport failure is
//!   retried once against the same shard (a supervisor restart
//!   republishes within the backoff cap) and then hedged to ring
//!   siblings;
//! * respects **brownouts**: a shard that answers `overloaded` is
//!   remembered for its `retry_after_ms` window and not hedged into
//!   again until the window passes; if every candidate is shed or down,
//!   the router degrades exactly like the admission ladder's terminal
//!   rung — one structured `overloaded` error carrying the **maximum**
//!   `retry_after_ms` seen, never a hang or a transport error.
//!
//! Control verbs never cross the ring: `ping` answers locally (the
//! router is the liveness surface now), `shutdown` drains the whole
//! cluster, and `cache-stats` aggregates every worker's stats plus
//! per-shard supervisor state and the router's own counters.

use crate::cache::routing_key;
use crate::obs::{mint_trace_id, AccessRecord, TelemetryHub};
use crate::proto::{
    parse_request, read_request, render_err, render_ok, render_request, CacheStatus, ProtoError,
    Request, RequestKind, TraceCtx,
};
use crate::server::{LineHandler, Server, ServerConfig};
use crate::slo::{self, SloRegistry};
use crate::supervisor::{ShardTable, Supervisor, WorkerSpec};
use mpi_dfa_core::hash::Hasher128;
use mpi_dfa_core::json;
use mpi_dfa_core::rng::{SplitMix64, GAMMA};
use mpi_dfa_core::telemetry::{self, ArgValue};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Virtual nodes per shard: enough that 3 shards split real key mixes
/// within a few percent of evenly, cheap enough to rebuild at startup.
const VNODES_PER_SHARD: usize = 128;

/// Spread a 128-bit content hash uniformly over the ring's key space.
/// FNV (the workspace's content hash) is collision-resistant enough for
/// cache keys but has weak high-bit avalanche on short inputs, and ring
/// ownership is decided by *ordering* — i.e. by the most significant
/// bits — so both ring points and lookup keys go through the SplitMix64
/// finalizer first. One step finalizes `state + GAMMA`, so a stream
/// seeded at `x - GAMMA` yields the finalizer of `x` itself.
fn spread(key: u128) -> u128 {
    let mix = |x: u64| SplitMix64::new(x.wrapping_sub(GAMMA)).next_u64();
    let lo = key as u64;
    let hi = (key >> 64) as u64;
    let a = mix(lo ^ hi.rotate_left(32) ^ GAMMA);
    let b = mix(hi.wrapping_add(a));
    ((b as u128) << 64) | a as u128
}

/// Consistent hash ring over shard indices.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// Sorted `(point, shard)` pairs.
    points: Vec<(u128, usize)>,
    shards: usize,
}

impl HashRing {
    pub fn new(shards: usize) -> HashRing {
        assert!(shards > 0, "ring needs at least one shard");
        let mut points = Vec::with_capacity(shards * VNODES_PER_SHARD);
        for shard in 0..shards {
            for vnode in 0..VNODES_PER_SHARD {
                let mut h = Hasher128::new();
                h.write_str("ring")
                    .write_u64(shard as u64)
                    .write_u64(vnode as u64);
                points.push((spread(h.finish()), shard));
            }
        }
        points.sort_unstable();
        HashRing { points, shards }
    }

    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `key`.
    pub fn primary(&self, key: u128) -> usize {
        let key = spread(key);
        let idx = self.points.partition_point(|(p, _)| *p < key) % self.points.len();
        self.points[idx].1
    }

    /// Every shard exactly once, in ring order starting at `key`'s
    /// successor: `order(k)[0]` is the primary, the rest are the hedging
    /// siblings in preference order.
    pub fn order(&self, key: u128) -> Vec<usize> {
        let key = spread(key);
        let start = self.points.partition_point(|(p, _)| *p < key);
        let mut seen = vec![false; self.shards];
        let mut out = Vec::with_capacity(self.shards);
        for i in 0..self.points.len() {
            let (_, shard) = self.points[(start + i) % self.points.len()];
            if !seen[shard] {
                seen[shard] = true;
                out.push(shard);
                if out.len() == self.shards {
                    break;
                }
            }
        }
        out
    }
}

/// Router tuning.
#[derive(Debug, Clone, Copy)]
pub struct RouterConfig {
    /// Socket limits of the public listener (same knobs as a worker's).
    pub server: ServerConfig,
    /// Per-attempt connect budget to a worker.
    pub dial_timeout: Duration,
    /// Per-attempt response-read budget. Generous on purpose: compute can
    /// be slow, while a SIGKILLed worker fails the read immediately (RST)
    /// rather than waiting this out.
    pub forward_timeout: Duration,
    /// Upper bound on forwarding attempts per request (primary, one
    /// same-shard retry, then siblings).
    pub max_attempts: usize,
    /// `retry_after_ms` hint when the router sheds without having seen a
    /// worker-supplied hint (e.g. every candidate down mid-restart).
    pub default_retry_after_ms: u64,
    /// Idle pooled connections kept per shard.
    pub pool_per_shard: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            server: ServerConfig::default(),
            dial_timeout: Duration::from_secs(1),
            forward_timeout: Duration::from_secs(60),
            max_attempts: 4,
            default_retry_after_ms: 100,
            pool_per_shard: 4,
        }
    }
}

/// Monotonic router counters (all rendered under `cache-stats`).
#[derive(Debug, Default)]
pub struct RouterStats {
    /// Analysis requests that entered the forwarding path.
    pub routed_total: AtomicU64,
    /// Forwarding attempts actually dialed/written.
    pub attempts_total: AtomicU64,
    /// Second attempts against the same (primary) shard.
    pub retried_total: AtomicU64,
    /// Attempts against a non-primary sibling.
    pub hedged_total: AtomicU64,
    /// Candidates skipped because their brownout window was open.
    pub brownout_skips_total: AtomicU64,
    /// Requests the router itself answered `overloaded` after exhausting
    /// candidates that shed.
    pub overloaded_returned_total: AtomicU64,
    /// Requests the router answered `overloaded` with every candidate
    /// down (transport failure, no shed seen).
    pub down_returned_total: AtomicU64,
}

/// Plain-number view of [`RouterStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterStatsSnapshot {
    pub routed_total: u64,
    pub attempts_total: u64,
    pub retried_total: u64,
    pub hedged_total: u64,
    pub brownout_skips_total: u64,
    pub overloaded_returned_total: u64,
    pub down_returned_total: u64,
}

impl RouterStats {
    fn bump(counter: &AtomicU64, metric: &'static str) {
        counter.fetch_add(1, Ordering::Relaxed);
        if telemetry::is_enabled() {
            telemetry::metric_add(metric, 1.0);
        }
    }

    pub fn snapshot(&self) -> RouterStatsSnapshot {
        RouterStatsSnapshot {
            routed_total: self.routed_total.load(Ordering::Relaxed),
            attempts_total: self.attempts_total.load(Ordering::Relaxed),
            retried_total: self.retried_total.load(Ordering::Relaxed),
            hedged_total: self.hedged_total.load(Ordering::Relaxed),
            brownout_skips_total: self.brownout_skips_total.load(Ordering::Relaxed),
            overloaded_returned_total: self.overloaded_returned_total.load(Ordering::Relaxed),
            down_returned_total: self.down_returned_total.load(Ordering::Relaxed),
        }
    }
}

/// Per-shard shed memory: a shard that answered `overloaded` is not a
/// hedging candidate until its own `retry_after_ms` window has passed
/// (satellite rule: never bounce a shed request into a sibling that is
/// also past its watermark we *know* about).
#[derive(Debug)]
struct Brownout {
    slots: Vec<Mutex<Option<(Instant, u64)>>>,
}

impl Brownout {
    fn new(shards: usize) -> Brownout {
        Brownout {
            slots: (0..shards).map(|_| Mutex::new(None)).collect(),
        }
    }

    fn mark(&self, shard: usize, hint_ms: u64) {
        *self.slots[shard].lock().unwrap() =
            Some((Instant::now() + Duration::from_millis(hint_ms), hint_ms));
    }

    /// The shard's hint if its window is still open.
    fn active_hint(&self, shard: usize) -> Option<u64> {
        let mut slot = self.slots[shard].lock().unwrap();
        match *slot {
            Some((until, hint)) if Instant::now() < until => Some(hint),
            Some(_) => {
                *slot = None;
                None
            }
            None => None,
        }
    }

    fn clear(&self, shard: usize) {
        *self.slots[shard].lock().unwrap() = None;
    }
}

#[derive(Debug)]
struct PooledConn {
    epoch: u64,
    reader: BufReader<TcpStream>,
}

/// The routing [`LineHandler`]: one per cluster, shared by every
/// listener connection thread.
pub struct RouterHandler {
    table: Arc<ShardTable>,
    ring: HashRing,
    cfg: RouterConfig,
    stats: RouterStats,
    brownout: Brownout,
    pools: Vec<Mutex<Vec<PooledConn>>>,
    /// End-to-end request latency, attributed to the shard that answered.
    slo: SloRegistry,
    /// Cluster observability aggregation point (access log, span store,
    /// worker metric reports). `None` in bare in-process setups.
    hub: Option<Arc<TelemetryHub>>,
}

impl std::fmt::Debug for RouterHandler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouterHandler")
            .field("shards", &self.table.len())
            .field("hub", &self.hub.is_some())
            .finish()
    }
}

impl RouterHandler {
    pub fn new(table: Arc<ShardTable>, cfg: RouterConfig) -> Arc<RouterHandler> {
        Self::new_with_hub(table, cfg, None)
    }

    /// [`RouterHandler::new`] plus the cluster observability hub.
    pub fn new_with_hub(
        table: Arc<ShardTable>,
        cfg: RouterConfig,
        hub: Option<Arc<TelemetryHub>>,
    ) -> Arc<RouterHandler> {
        let shards = table.len();
        Arc::new(RouterHandler {
            table,
            ring: HashRing::new(shards),
            cfg,
            stats: RouterStats::default(),
            brownout: Brownout::new(shards),
            pools: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
            slo: SloRegistry::new(),
            hub,
        })
    }

    pub fn stats(&self) -> &RouterStats {
        &self.stats
    }

    /// The router's end-to-end latency registry.
    pub fn slo(&self) -> &SloRegistry {
        &self.slo
    }

    /// The observability hub, when configured.
    pub fn hub(&self) -> Option<&Arc<TelemetryHub>> {
        self.hub.as_ref()
    }

    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// The shard that owns this raw request line, `None` for control
    /// verbs and unparsable lines. Fault-injection harnesses use this to
    /// aim a kill at exactly the shard a request routes to.
    pub fn shard_for_line(&self, line: &str) -> Option<usize> {
        let req = parse_request(line).ok()?;
        match req.kind {
            RequestKind::Ping
            | RequestKind::Shutdown
            | RequestKind::CacheStats
            | RequestKind::Metrics => None,
            _ => Some(self.ring.primary(routing_key(&req))),
        }
    }

    /// One forwarding attempt; `Ok` carries the response and the worker
    /// incarnation epoch that answered. `use_pool` is only true for the
    /// very first attempt of a request: every retry dials fresh so a
    /// stale pooled connection can never burn two attempts.
    fn try_shard(&self, shard: usize, raw_line: &str, use_pool: bool) -> Result<(String, u64), ()> {
        let (addr, epoch) = self.table.endpoint(shard).ok_or(())?;
        let mut conn = None;
        if use_pool {
            let mut pool = self.pools[shard].lock().unwrap();
            while let Some(c) = pool.pop() {
                if c.epoch == epoch {
                    conn = Some(c);
                    break;
                }
                // Older incarnation: drop it and keep looking.
            }
        }
        let mut conn = match conn {
            Some(c) => c,
            None => PooledConn {
                epoch,
                reader: self.dial(addr)?,
            },
        };
        if writeln!(conn.reader.get_mut(), "{raw_line}").is_err() {
            return Err(());
        }
        let mut resp = String::new();
        match conn.reader.read_line(&mut resp) {
            Ok(n) if n > 0 => {
                let epoch = conn.epoch;
                let mut pool = self.pools[shard].lock().unwrap();
                if pool.len() < self.cfg.pool_per_shard {
                    pool.push(conn);
                }
                Ok((resp.trim_end_matches(['\n', '\r']).to_string(), epoch))
            }
            _ => Err(()),
        }
    }

    fn dial(&self, addr: SocketAddr) -> Result<BufReader<TcpStream>, ()> {
        let stream = TcpStream::connect_timeout(&addr, self.cfg.dial_timeout).map_err(|_| ())?;
        stream
            .set_read_timeout(Some(self.cfg.forward_timeout))
            .map_err(|_| ())?;
        stream
            .set_write_timeout(Some(self.cfg.dial_timeout))
            .map_err(|_| ())?;
        let _ = stream.set_nodelay(true);
        Ok(BufReader::new(stream))
    }

    /// Route one analysis request; always returns a structured line.
    /// Every forwarded request belongs to exactly one distributed trace —
    /// the client's, or one minted here — and produces exactly one
    /// access-log line (when a hub is configured), however many attempts
    /// it took.
    fn forward(&self, req: &Request) -> String {
        RouterStats::bump(&self.stats.routed_total, "router_requests_total");
        let started = Instant::now();
        let client = req.trace;
        let trace_id = client.map(|t| t.id).unwrap_or_else(mint_trace_id);
        let ctx = telemetry::TraceContext {
            trace_id,
            parent_span: client.map(|t| t.parent).unwrap_or(0),
        };
        let (resp, answered, attempts_used) = telemetry::with_trace(Some(ctx), || {
            let mut span = telemetry::span("router", "route");
            span.arg("kind", req.kind.as_str());
            // With the router sink off the route span has no id; fall
            // back to the client's own parent so the worker's spans still
            // link into the client's trace.
            let route_id = span
                .id()
                .unwrap_or_else(|| client.map(|t| t.parent).unwrap_or(0));
            let out = self.forward_attempts(
                req,
                trace_id,
                route_id,
                client.map(|t| t.attempt).unwrap_or(0),
            );
            span.arg("attempts", out.2);
            if let Some((shard, _)) = out.1 {
                span.arg("shard", shard);
            }
            out
        });
        let latency_us = started.elapsed().as_micros() as u64;
        let cache = slo::cache_outcome(&resp);
        let shard_label = answered
            .map(|(s, _)| s.to_string())
            .unwrap_or_else(|| "-".to_string());
        self.slo
            .record(req.kind.as_str(), cache, &shard_label, latency_us);
        if let Some(hub) = &self.hub {
            hub.record_access(&AccessRecord {
                trace: trace_id,
                verb: req.kind.as_str().to_string(),
                shard: answered.map(|(s, _)| s as u64),
                epoch: answered.map(|(_, e)| e).unwrap_or(0),
                attempts: attempts_used,
                cache: cache.to_string(),
                tier: slo::tier_of(&resp).to_string(),
                latency_us,
            });
        }
        resp
    }

    /// The attempt loop behind [`RouterHandler::forward`]. Returns the
    /// response line, the `(shard, epoch)` that answered it (`None` for a
    /// router-degraded answer), and the attempts actually dialed.
    fn forward_attempts(
        &self,
        req: &Request,
        trace_id: u128,
        route_id: u64,
        base_attempt: u64,
    ) -> (String, Option<(usize, u64)>, u64) {
        let order = self.ring.order(routing_key(req));
        // Attempt plan: primary, primary again (a crashed worker is
        // usually republished within the backoff cap, and a stale pooled
        // connection must not consume the only try), then each sibling.
        let mut plan = Vec::with_capacity(order.len() + 1);
        plan.push(order[0]);
        plan.push(order[0]);
        plan.extend(order[1..].iter().copied());
        plan.truncate(self.cfg.max_attempts.max(1));

        let mut treq = req.clone();
        let mut attempts_used: u64 = 0;
        let mut max_hint: Option<u64> = None;
        let mut saw_shed = false;
        for (i, &shard) in plan.iter().enumerate() {
            if let Some(hint) = self.brownout.active_hint(shard) {
                saw_shed = true;
                max_hint = max_hint.max(Some(hint));
                RouterStats::bump(
                    &self.stats.brownout_skips_total,
                    "router_brownout_skips_total",
                );
                telemetry::instant(
                    "router",
                    "brownout_wait",
                    vec![
                        ("shard", ArgValue::U64(shard as u64)),
                        ("retry_after_ms", ArgValue::U64(hint)),
                    ],
                );
                continue;
            }
            RouterStats::bump(&self.stats.attempts_total, "router_attempts_total");
            attempts_used += 1;
            let mut attempt_span = if i == 0 {
                telemetry::SpanGuard::disabled()
            } else if shard == plan[0] {
                RouterStats::bump(&self.stats.retried_total, "router_retried_total");
                telemetry::span("router", "retry")
            } else {
                RouterStats::bump(&self.stats.hedged_total, "router_hedged_total");
                telemetry::span("router", "hedge")
            };
            if i > 0 {
                attempt_span.arg("shard", shard);
            }
            // The forwarded line is the request canonically re-rendered
            // with this attempt's trace context; hedged retries keep the
            // trace id and bump the attempt counter.
            treq.trace = Some(TraceCtx {
                id: trace_id,
                parent: route_id,
                attempt: base_attempt + attempts_used,
            });
            let line = render_request(&treq);
            match self.try_shard(shard, &line, i == 0) {
                Err(()) => continue,
                Ok((resp, epoch)) => match shed_hint(&resp, self.cfg.default_retry_after_ms) {
                    Some(hint) => {
                        self.brownout.mark(shard, hint);
                        saw_shed = true;
                        max_hint = max_hint.max(Some(hint));
                        continue;
                    }
                    // Any other response — success or a deterministic
                    // structured error — is the answer; a sibling would
                    // compute the identical one.
                    None => {
                        self.brownout.clear(shard);
                        return (resp, Some((shard, epoch)), attempts_used);
                    }
                },
            }
        }
        // Out of candidates. Degrade exactly like the admission ladder's
        // terminal rung: a structured overloaded shed with the largest
        // retry hint any shard gave us.
        let (metric, msg) = if saw_shed {
            RouterStats::bump(
                &self.stats.overloaded_returned_total,
                "router_overloaded_total",
            );
            (
                "overloaded",
                "every shard at max in-flight requests; retry later",
            )
        } else {
            RouterStats::bump(&self.stats.down_returned_total, "router_down_total");
            (
                "overloaded",
                "no shard available (workers restarting); retry later",
            )
        };
        let hint = max_hint.unwrap_or(self.cfg.default_retry_after_ms);
        (
            render_err(req.id, &ProtoError::new(metric, msg).with_retry_after(hint)),
            None,
            attempts_used,
        )
    }

    /// The router's own metric map: its telemetry counters (empty when
    /// the sink is off) with the `router_*_total` series overwritten from
    /// the always-on [`RouterStats`] — the counters must appear in the
    /// scrape regardless of sink state, and overwriting avoids double
    /// counting when the sink mirrored them already.
    fn local_metrics(&self) -> std::collections::BTreeMap<String, f64> {
        let mut local = telemetry::snapshot().metrics;
        let r = self.stats.snapshot();
        for (name, v) in [
            ("router_requests_total", r.routed_total),
            ("router_attempts_total", r.attempts_total),
            ("router_retried_total", r.retried_total),
            ("router_hedged_total", r.hedged_total),
            ("router_brownout_skips_total", r.brownout_skips_total),
            ("router_overloaded_total", r.overloaded_returned_total),
            ("router_down_total", r.down_returned_total),
        ] {
            local.insert(name.to_string(), v as f64);
        }
        local
    }

    /// The cluster Prometheus text: every worker's streamed counters and
    /// latency histograms merged order-independently (sums; `_peak`
    /// maxima; histogram bucket adds) with the router's own. This is the
    /// body of the `metrics` verb and what `mpidfa serve --metrics-out`
    /// writes at shutdown.
    pub fn cluster_metrics_text(&self) -> String {
        let local = self.local_metrics();
        let slo_snap = self.slo.snapshot();
        match &self.hub {
            Some(hub) => hub.cluster_metrics(&local, &slo_snap),
            None => {
                let mut t = telemetry::export_metrics_text(&local);
                slo::render_prometheus_named(slo::E2E_METRIC, &slo_snap, &mut t);
                t
            }
        }
    }

    /// The cluster `metrics` verb: [`Self::cluster_metrics_text`] inside
    /// the structured response envelope.
    fn cluster_metrics_verb(&self, id: u64) -> String {
        let text = self.cluster_metrics_text();
        let result = format!(
            "{{\"cluster\":{{\"shards\":{}}},\"prometheus\":\"{}\"}}",
            self.table.len(),
            json::escape(&text)
        );
        render_ok(id, RequestKind::Metrics, CacheStatus::Bypass, &result)
    }

    /// Aggregate `cache-stats`: router counters + per-shard supervisor
    /// state + each live worker's own stats object.
    fn cluster_stats(&self, id: u64) -> String {
        let r = self.stats.snapshot();
        let router = format!(
            "{{\"routed_total\":{},\"attempts_total\":{},\"retried_total\":{},\
             \"hedged_total\":{},\"brownout_skips_total\":{},\
             \"overloaded_returned_total\":{},\"down_returned_total\":{}}}",
            r.routed_total,
            r.attempts_total,
            r.retried_total,
            r.hedged_total,
            r.brownout_skips_total,
            r.overloaded_returned_total,
            r.down_returned_total
        );
        let supervisor = self
            .table
            .snapshots()
            .iter()
            .map(|s| {
                format!(
                    "{{\"shard\":{},\"alive\":{},\"epoch\":{},\"restarts\":{},\
                     \"last_backoff_ms\":{},\"ping_age_ms\":{},\"health_kills\":{},\
                     \"spawn_failures\":{}}}",
                    s.shard,
                    s.alive,
                    s.epoch,
                    s.restarts,
                    s.last_backoff_ms,
                    s.ping_age_ms
                        .map(|v| v.to_string())
                        .unwrap_or_else(|| "null".into()),
                    s.health_kills,
                    s.spawn_failures
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let workers = (0..self.table.len())
            .map(
                |shard| match self.try_shard(shard, "{\"id\":0,\"kind\":\"cache-stats\"}", true) {
                    Err(()) => "null".to_string(),
                    Ok((resp, _)) => json::parse(&resp)
                        .ok()
                        .and_then(|j| j.get("result").map(|r| r.render()))
                        .unwrap_or_else(|| "null".to_string()),
                },
            )
            .collect::<Vec<_>>()
            .join(",");
        let result = format!(
            "{{\"cluster\":{{\"shards\":{},\"router\":{router},\
             \"supervisor\":[{supervisor}]}},\"workers\":[{workers}]}}",
            self.table.len()
        );
        render_ok(id, RequestKind::CacheStats, CacheStatus::Bypass, &result)
    }
}

impl LineHandler for RouterHandler {
    fn answer(&self, line: &str) -> (String, bool) {
        match read_request(line) {
            Err(resp) => (resp, false),
            Ok(req) => match req.kind {
                // Local verbs render the exact bytes a worker would, so a
                // client cannot tell a cluster from a single box.
                RequestKind::Ping => (
                    render_ok(req.id, req.kind, CacheStatus::Bypass, "{\"pong\":true}"),
                    false,
                ),
                RequestKind::Shutdown => (
                    render_ok(req.id, req.kind, CacheStatus::Bypass, "{\"stopping\":true}"),
                    true,
                ),
                RequestKind::CacheStats => (self.cluster_stats(req.id), false),
                RequestKind::Metrics => (self.cluster_metrics_verb(req.id), false),
                _ => (self.forward(&req), false),
            },
        }
    }

    fn connection_overloaded(&self, max_connections: usize) -> String {
        let e = ProtoError::new(
            "overloaded",
            format!("connection limit {max_connections} reached; retry later"),
        )
        .with_retry_after(self.cfg.default_retry_after_ms);
        render_err(0, &e)
    }
}

/// Is this response a shed we should route around? Returns the shard's
/// retry hint if so.
fn shed_hint(resp: &str, default_ms: u64) -> Option<u64> {
    if !resp.contains("\"ok\":false") || !resp.contains("\"overloaded\"") {
        return None;
    }
    let parsed = json::parse(resp).ok()?;
    let error = parsed.get("error")?;
    if error.get("code")?.as_str()? != "overloaded" {
        return None;
    }
    Some(
        error
            .get("retry_after_ms")
            .and_then(|v| v.as_u64())
            .unwrap_or(default_ms),
    )
}

/// Everything `mpidfa serve --shards N` needs to stand up a cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    pub shards: usize,
    /// How to (re)spawn one worker; the supervisor appends
    /// `--shard-id I --addr 127.0.0.1:0`.
    pub worker: WorkerSpec,
    pub router: RouterConfig,
    /// How long `Cluster::start` waits for the fleet before serving.
    /// Partial fleets serve anyway (the router hedges around holes);
    /// only a fully-absent fleet is a startup error.
    pub startup_timeout: Duration,
}

impl ClusterConfig {
    pub fn new(shards: usize, worker: WorkerSpec) -> ClusterConfig {
        ClusterConfig {
            shards,
            worker,
            router: RouterConfig::default(),
            startup_timeout: Duration::from_secs(15),
        }
    }
}

/// A running cluster: supervised worker fleet + bound (not yet serving)
/// router listener.
#[derive(Debug)]
pub struct Cluster {
    server: Server<RouterHandler>,
    supervisor: Arc<Supervisor>,
    handler: Arc<RouterHandler>,
}

impl Cluster {
    /// Spawn the fleet, wait for it (see
    /// [`ClusterConfig::startup_timeout`]), bind the router.
    pub fn start(cfg: ClusterConfig, addr: &str) -> Result<Cluster, String> {
        Self::start_with_hub(cfg, addr, None)
    }

    /// [`Cluster::start`] with a cluster observability hub: the
    /// supervisor forwards worker telemetry-stream lines into it and the
    /// router records spans, access-log lines, and the merged `metrics`
    /// verb through it.
    pub fn start_with_hub(
        cfg: ClusterConfig,
        addr: &str,
        hub: Option<Arc<TelemetryHub>>,
    ) -> Result<Cluster, String> {
        let supervisor = Supervisor::start_with_hub(cfg.shards, cfg.worker, hub.clone())?;
        if !supervisor.wait_all_healthy(cfg.startup_timeout) {
            let alive = supervisor
                .table()
                .snapshots()
                .iter()
                .filter(|s| s.alive)
                .count();
            if alive == 0 {
                supervisor.stop();
                return Err(format!(
                    "no worker came up within {:?}",
                    cfg.startup_timeout
                ));
            }
            eprintln!(
                "[cluster] serving with {alive}/{} shards up; supervisor keeps restarting the rest",
                cfg.shards
            );
        }
        let handler = RouterHandler::new_with_hub(Arc::clone(supervisor.table()), cfg.router, hub);
        let server = Server::bind_handler(Arc::clone(&handler), addr, cfg.router.server)?;
        Ok(Cluster {
            server,
            supervisor,
            handler,
        })
    }

    pub fn local_addr(&self) -> Result<SocketAddr, String> {
        self.server.local_addr()
    }

    pub fn supervisor(&self) -> Arc<Supervisor> {
        Arc::clone(&self.supervisor)
    }

    pub fn router(&self) -> Arc<RouterHandler> {
        Arc::clone(&self.handler)
    }

    /// Serve until a client sends `shutdown`, then stop the fleet
    /// (graceful drain per worker, SIGKILL stragglers).
    pub fn run(self) -> Result<(), String> {
        let supervisor = Arc::clone(&self.supervisor);
        let result = self.server.run();
        supervisor.stop();
        result
    }
}

/// Bind, announce `listening on ADDR` (the exact single-box banner), and
/// serve the cluster until shutdown.
pub fn serve_cluster(cfg: ClusterConfig, addr: &str) -> Result<(), String> {
    let cluster = Cluster::start(cfg, addr)?;
    let bound = cluster.local_addr()?;
    println!("listening on {bound}");
    let _ = std::io::stdout().flush();
    cluster.run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AdmissionConfig;
    use crate::engine::{Engine, EngineConfig};
    use std::io::{BufRead, BufReader};

    const ANALYZE: &str =
        r#"{"id":7,"kind":"analyze","program":"figure1","ind":["x"],"dep":["f"]}"#;

    fn start_worker(
        admission: AdmissionConfig,
    ) -> (
        SocketAddr,
        Arc<Engine>,
        std::thread::JoinHandle<Result<(), String>>,
    ) {
        let engine = Arc::new(
            Engine::new(EngineConfig {
                admission,
                ..Default::default()
            })
            .unwrap(),
        );
        let server = Server::bind(Arc::clone(&engine), "127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.run());
        (addr, engine, handle)
    }

    fn stop_worker(addr: SocketAddr) {
        if let Ok(mut s) = TcpStream::connect(addr) {
            let _ = writeln!(s, "{{\"id\":0,\"kind\":\"shutdown\"}}");
            let mut line = String::new();
            let _ = BufReader::new(s).read_line(&mut line);
        }
    }

    fn direct(addr: SocketAddr, line: &str) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        writeln!(s, "{line}").unwrap();
        let mut resp = String::new();
        BufReader::new(s).read_line(&mut resp).unwrap();
        resp.trim_end().to_string()
    }

    #[test]
    fn ring_orders_every_shard_exactly_once_and_spreads_keys() {
        let ring = HashRing::new(3);
        let mut hits = [0usize; 3];
        for i in 0..300u64 {
            let mut h = Hasher128::new();
            h.write_str("key").write_u64(i);
            let order = ring.order(h.finish());
            assert_eq!(order.len(), 3);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2]);
            hits[order[0]] += 1;
        }
        // Virtual nodes keep the split roughly even; the exact split is
        // deterministic, this guards against a degenerate ring.
        for (shard, &n) in hits.iter().enumerate() {
            assert!(n > 30, "shard {shard} owns only {n}/300 keys");
        }
        // Same key, same order, every time.
        assert_eq!(ring.order(42), ring.order(42));
    }

    #[test]
    fn every_front_end_echoes_a_readable_id_on_a_validation_error() {
        // (line, id the error answers under, error code)
        let cases = [
            (r#"{"id":3,"kind":"ping","x":1}"#, 3, "bad-request"),
            (r#"{"id":4,"kind":"warp"}"#, 4, "unknown-kind"),
            (r#"{"id":5}"#, 5, "bad-request"),
            (
                r#"{"id":6,"kind":"analyze","program":"figure1","at":"x"}"#,
                6,
                "bad-request",
            ),
            // No id can be read from these, so they answer under id 0.
            (r#"{"id":7,"kind":"#, 0, "parse"),
            (r#"{"id":01,"kind":"ping"}"#, 0, "parse"),
            (r#"{"id":1.,"kind":"ping"}"#, 0, "parse"),
            (r#"{"id":"8","kind":"ping"}"#, 0, "bad-request"),
            (r#"{"kind":"ping"}"#, 0, "bad-request"),
            (r#"[9]"#, 0, "bad-request"),
        ];
        let (addr, engine, handle) = start_worker(AdmissionConfig::default());
        // No request here is valid, so the router never forwards one.
        let router = RouterHandler::new(ShardTable::fixed(&[None]), RouterConfig::default());
        for (line, id, code) in cases {
            let want = format!(r#"{{"id":{id},"ok":false,"error":{{"code":"{code}","#);
            let batch = crate::sched::run_batch(&engine, line, 1).remove(0);
            let served = direct(addr, line);
            let (routed, _) = router.answer(line);
            for (front, resp) in [("batch", &batch), ("server", &served), ("router", &routed)] {
                assert!(
                    resp.starts_with(&want),
                    "{front} answered {line} with {resp}"
                );
            }
        }
        stop_worker(addr);
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn routed_response_is_byte_identical_to_direct_worker_response() {
        let (a0, _, h0) = start_worker(AdmissionConfig::default());
        let (a1, _, h1) = start_worker(AdmissionConfig::default());
        let table = ShardTable::fixed(&[Some(a0), Some(a1)]);
        let router = RouterHandler::new(table, RouterConfig::default());

        let (via_router, _) = router.answer(ANALYZE);
        // The worker that did NOT serve it computes the same answer (its
        // label is "miss" too since both started cold).
        let shard = router.shard_for_line(ANALYZE).unwrap();
        let other = if shard == 0 { a1 } else { a0 };
        let via_direct = direct(other, ANALYZE);
        assert_eq!(via_router, via_direct);
        assert_eq!(router.stats().snapshot().routed_total, 1);
        assert_eq!(router.stats().snapshot().hedged_total, 0);

        stop_worker(a0);
        stop_worker(a1);
        h0.join().unwrap().unwrap();
        h1.join().unwrap().unwrap();
    }

    #[test]
    fn down_primary_is_hedged_to_the_sibling() {
        let (a0, _, h0) = start_worker(AdmissionConfig::default());
        let (a1, _, h1) = start_worker(AdmissionConfig::default());
        let table = ShardTable::fixed(&[Some(a0), Some(a1)]);
        let router = RouterHandler::new(Arc::clone(&table), RouterConfig::default());

        let primary = router.shard_for_line(ANALYZE).unwrap();
        table.test_mark_down(primary);
        let (resp, _) = router.answer(ANALYZE);
        assert!(resp.contains("\"ok\":true"), "{resp}");
        assert!(router.stats().snapshot().hedged_total >= 1);

        stop_worker(a0);
        stop_worker(a1);
        h0.join().unwrap().unwrap();
        h1.join().unwrap().unwrap();
    }

    #[test]
    fn all_shards_down_degrades_to_structured_overloaded() {
        // Addresses nobody listens on.
        let dead = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let table = ShardTable::fixed(&[Some(dead)]);
        let router = RouterHandler::new(
            table,
            RouterConfig {
                dial_timeout: Duration::from_millis(200),
                default_retry_after_ms: 33,
                ..Default::default()
            },
        );
        let (resp, _) = router.answer(ANALYZE);
        assert!(resp.contains("\"code\":\"overloaded\""), "{resp}");
        assert!(resp.contains("\"retry_after_ms\":33"), "{resp}");
        assert!(resp.contains("\"id\":7"), "{resp}");
        assert_eq!(router.stats().snapshot().down_returned_total, 1);
    }

    #[test]
    fn shed_from_both_shards_returns_the_max_retry_hint_and_brownout_sticks() {
        // Two workers with a single admission slot each and distinct
        // retry hints; both slots held ⇒ both shed.
        let mk = |retry: u64| AdmissionConfig {
            max_inflight: 1,
            t1_watermark: 1,
            t2_watermark: 1,
            hysteresis: 1,
            retry_after_ms: retry,
        };
        let (a0, e0, h0) = start_worker(mk(40));
        let (a1, e1, h1) = start_worker(mk(90));
        let table = ShardTable::fixed(&[Some(a0), Some(a1)]);
        let router = RouterHandler::new(table, RouterConfig::default());

        let p0 = e0.admission().try_admit().unwrap();
        let p1 = e1.admission().try_admit().unwrap();
        let (resp, _) = router.answer(ANALYZE);
        assert!(resp.contains("\"code\":\"overloaded\""), "{resp}");
        // Satellite rule: the max of every hint seen, not the first.
        assert!(resp.contains("\"retry_after_ms\":90"), "{resp}");
        assert_eq!(router.stats().snapshot().overloaded_returned_total, 1);

        // Within the windows both shards are browned out: the next
        // request must not even be hedged into them.
        let attempts_before = router.stats().snapshot().attempts_total;
        let (resp2, _) = router.answer(ANALYZE);
        assert!(resp2.contains("\"code\":\"overloaded\""), "{resp2}");
        assert_eq!(router.stats().snapshot().attempts_total, attempts_before);
        assert!(router.stats().snapshot().brownout_skips_total >= 2);

        // Release the slots and outlive the longest window: served again.
        drop(p0);
        drop(p1);
        std::thread::sleep(Duration::from_millis(120));
        let (resp3, _) = router.answer(ANALYZE);
        assert!(resp3.contains("\"ok\":true"), "{resp3}");

        stop_worker(a0);
        stop_worker(a1);
        h0.join().unwrap().unwrap();
        h1.join().unwrap().unwrap();
    }

    #[test]
    fn control_verbs_answer_locally_and_stats_aggregate() {
        let (a0, _, h0) = start_worker(AdmissionConfig::default());
        let table = ShardTable::fixed(&[Some(a0)]);
        let router = RouterHandler::new(table, RouterConfig::default());

        let (pong, stop) = router.answer(r#"{"id":3,"kind":"ping"}"#);
        assert_eq!(pong, "{\"id\":3,\"ok\":true,\"kind\":\"ping\",\"cache\":\"bypass\",\"result\":{\"pong\":true}}");
        assert!(!stop);

        let (stats, _) = router.answer(r#"{"id":4,"kind":"cache-stats"}"#);
        let parsed = json::parse(&stats).unwrap();
        let cluster = parsed.get("result").unwrap().get("cluster").unwrap();
        assert_eq!(cluster.get("shards").unwrap().as_u64(), Some(1));
        assert!(cluster.get("router").unwrap().get("routed_total").is_some());
        let sup = cluster.get("supervisor").unwrap().as_array().unwrap();
        assert_eq!(sup.len(), 1);
        assert_eq!(sup[0].get("alive").unwrap().as_bool(), Some(true));
        // The worker's own stats object is embedded (its shard field is
        // null here because these test workers were not started with
        // --shard-id).
        let workers = parsed.get("result").unwrap().get("workers").unwrap();
        assert!(workers.as_array().unwrap()[0].get("admission").is_some());

        let (_, stop) = router.answer(r#"{"id":5,"kind":"shutdown"}"#);
        assert!(stop);

        stop_worker(a0);
        h0.join().unwrap().unwrap();
    }
}
