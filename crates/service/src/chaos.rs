//! Seedable service-layer chaos harness.
//!
//! PR 1 established the repo's robustness discipline for the *interpreter*
//! (a seeded fault plan injecting adversarial message schedules); this
//! module applies the same idea to the *service tier*. Each scenario —
//! shaped by a SplitMix64 stream forked per case index — drives a real
//! in-process [`Server`] over real loopback sockets through:
//!
//! * clean requests (the control group);
//! * **partial writes**: requests dribbled in 2–5 chunks with small
//!   inter-chunk stalls;
//! * **mid-request disconnects**: part of a JSON line, then a hard close;
//! * **stalled clients**: a half-written request held open while another
//!   connection proceeds (must not block it);
//! * **corrupted cache files**: on-disk result entries bit-flipped or
//!   truncated, then a server restart — entries must quarantine and
//!   recompute, never serve wrong bytes;
//! * **burst load**: more concurrent requests than the admission cap —
//!   each client must get either a byte-correct success or a structured
//!   `overloaded` shed;
//! * **oversized lines** followed by a normal request on the same
//!   connection (resync).
//!
//! Invariants asserted for *every* scenario, at any seed:
//!
//! 1. **no hangs** — every client read carries a hard timeout;
//! 2. **no panics** — any `internal` error code (the server's
//!    caught-panic answer) is counted as a failure, as is a dead server
//!    thread;
//! 3. **structured errors only** — every response line parses as
//!    protocol JSON with either `ok:true` or an error code;
//! 4. **byte-identical successes** — every successful response equals
//!    the fault-free reference answer for that request, modulo the
//!    `cache` label (hit/miss/bypass is the one legitimate difference).
//!
//! The suite is deterministic per seed: `CHAOS_SEED` reproduces a failing
//! run exactly, and the failing run's telemetry span tree is captured in
//! the report for CI artifact upload.

use crate::admission::AdmissionConfig;
use crate::engine::{Engine, EngineConfig};
use crate::proto::RequestKind;
use crate::server::{Server, ServerConfig};
use mpi_dfa_core::rng::SplitMix64;
use mpi_dfa_core::telemetry;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// How long a chaos client waits for one response line before declaring a
/// hang. Generous — CI machines are slow, and a real hang waits forever.
const CLIENT_READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Chaos run parameters.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Master seed; scenario `i` runs under `SplitMix64::fork(seed, i)`.
    pub seed: u64,
    /// Number of scenarios to run.
    pub cases: usize,
}

/// What the first failing scenario looked like.
#[derive(Debug, Clone)]
pub struct ChaosFailure {
    pub case_index: usize,
    pub seed: u64,
    pub detail: String,
    /// Rendered telemetry span tree at failure time (uploaded as a CI
    /// artifact for post-mortem); empty when telemetry is disabled.
    pub span_tree: String,
}

/// Aggregate outcome of a chaos run.
#[derive(Debug, Clone, Default)]
pub struct ChaosReport {
    pub cases: usize,
    pub requests_sent: u64,
    pub ok_responses: u64,
    pub error_responses: u64,
    pub sheds: u64,
    pub corruptions: u64,
    pub disconnects: u64,
    /// Worker processes SIGKILLed by cluster scenarios (always 0 for the
    /// single-process harness).
    pub kills: u64,
    /// In-memory cache evictions the server reported over all its epochs
    /// (single-process harness only).
    pub evictions: u64,
    pub failure: Option<ChaosFailure>,
}

/// Per-layer cache budget of the chaos server and its reference engine:
/// one to three of the pool's results (66–390 bytes; the 1,067-byte
/// `dot` result is never kept) at a time, so scenarios keep evicting, and
/// no IR (figure1's weighs about 26 KB).
const CACHE_BYTES: usize = 512;

/// The request pool scenarios draw from: cheap requests with
/// precomputable fault-free reference answers (`id` is patched per send).
const REQUEST_POOL: &[&str] = &[
    r#"{"id":0,"kind":"ping"}"#,
    r#"{"id":0,"kind":"analyze","program":"figure1","ind":["x"],"dep":["f"]}"#,
    r#"{"id":0,"kind":"analyze","program":"figure1","ind":["x"],"dep":["f"],"mode":"global"}"#,
    r#"{"id":0,"kind":"activity-at-location","program":"figure1","ind":["x"],"dep":["f"],"var":"z"}"#,
    r#"{"id":0,"kind":"table1-row","row":"Biostat"}"#,
    r#"{"id":0,"kind":"dot","program":"figure1"}"#,
    r#"{"id":0,"kind":"cache-stats"}"#,
];

/// A socket client with hard read timeouts: a hang becomes a reported
/// failure, never a stuck suite.
struct ChaosClient {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl ChaosClient {
    fn connect(addr: SocketAddr) -> Result<ChaosClient, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_read_timeout(Some(CLIENT_READ_TIMEOUT))
            .map_err(|e| format!("set_read_timeout: {e}"))?;
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(ChaosClient { stream, reader })
    }

    fn send_raw(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.stream
            .write_all(bytes)
            .map_err(|e| format!("write: {e}"))
    }

    /// Read one response line; `Err` on timeout (= hang) or early EOF.
    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("server closed the connection unexpectedly".into()),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                Err(format!("HANG: no response within {CLIENT_READ_TIMEOUT:?}"))
            }
            Err(e) => Err(format!("read: {e}")),
        }
    }
}

/// One running server epoch. Scenarios that corrupt the disk cache restart
/// the epoch so the next reads hit the (corrupted) disk path cold.
struct Epoch {
    addr: SocketAddr,
    handle: std::thread::JoinHandle<Result<(), String>>,
}

fn start_epoch(cache_dir: &str) -> Result<Epoch, String> {
    let engine = Arc::new(Engine::new(EngineConfig {
        cache_bytes: CACHE_BYTES,
        cache_dir: Some(cache_dir.to_string()),
        // Small ladder so burst scenarios actually reach the shed path.
        admission: AdmissionConfig {
            max_inflight: 4,
            t1_watermark: 2,
            t2_watermark: 3,
            hysteresis: 1,
            retry_after_ms: 5,
        },
        shard_id: None,
    })?);
    let server = Server::bind_with(
        engine,
        "127.0.0.1:0",
        ServerConfig {
            // Short enough that a leaked stalled connection resolves inside
            // the suite, long enough to never reap an honest client.
            idle_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            max_connections: 32,
        },
    )?;
    let addr = server.local_addr()?;
    let handle = std::thread::spawn(move || server.run());
    Ok(Epoch { addr, handle })
}

/// Stop a server epoch, adding the evictions its caches counted to
/// `report`.
fn stop_epoch(epoch: Epoch, report: &mut ChaosReport) -> Result<(), String> {
    let mut c = ChaosClient::connect(epoch.addr)?;
    c.send_raw(b"{\"id\":999998,\"kind\":\"cache-stats\"}\n")?;
    let stats = mpi_dfa_core::json::parse(&c.read_line()?).map_err(|e| e.to_string())?;
    for layer in ["ir", "result"] {
        report.evictions += stats
            .get("result")
            .and_then(|r| r.get("caches")?.get(layer)?.get("evictions")?.as_u64())
            .unwrap_or(0);
    }
    c.send_raw(b"{\"id\":999999,\"kind\":\"shutdown\"}\n")?;
    let _ = c.read_line();
    match epoch.handle.join() {
        Ok(r) => r,
        Err(_) => Err("server thread panicked".into()),
    }
}

/// Strip the `cache` label before comparing payloads: hit ≡ miss ≡ bypass
/// byte-wise is exactly the engine's determinism contract, so the label is
/// the one legitimate difference between a faulted and a fault-free run.
fn normalize(resp: &str) -> String {
    resp.replace("\"cache\":\"hit\"", "\"cache\":\"#\"")
        .replace("\"cache\":\"miss\"", "\"cache\":\"#\"")
        .replace("\"cache\":\"bypass\"", "\"cache\":\"#\"")
}

/// Fault-free reference answers, computed once per distinct request on a
/// fresh engine (no disk store, no load) and memoized. The determinism
/// contract makes this THE answer every chaos success must match.
struct ReferenceAnswers {
    engine: Engine,
    memo: HashMap<String, String>,
}

impl ReferenceAnswers {
    fn new() -> Result<ReferenceAnswers, String> {
        Ok(ReferenceAnswers {
            engine: Engine::new(EngineConfig {
                cache_bytes: CACHE_BYTES,
                cache_dir: None,
                admission: AdmissionConfig::default(),
                shard_id: None,
            })?,
            memo: HashMap::new(),
        })
    }

    /// The reference response for `line`, or `None` for kinds whose result
    /// is legitimately run-dependent (`cache-stats` counts live traffic).
    fn for_request(&mut self, line: &str) -> Option<String> {
        let req = crate::proto::parse_request(line).ok()?;
        if matches!(req.kind, RequestKind::CacheStats | RequestKind::Shutdown) {
            return None;
        }
        if let Some(r) = self.memo.get(line) {
            return Some(r.clone());
        }
        let resp = self.engine.handle(&req);
        self.memo.insert(line.to_string(), resp.clone());
        Some(resp)
    }
}

/// Check one response line against the protocol invariants and (when the
/// request has a deterministic answer) the fault-free reference. Returns a
/// failure detail, or `None` if the response is acceptable.
fn check_response(
    refs: &mut ReferenceAnswers,
    req_line: &str,
    resp: &str,
    report: &mut ChaosReport,
) -> Option<String> {
    let parsed = match mpi_dfa_core::json::parse(resp) {
        Ok(v) => v,
        Err(e) => return Some(format!("response is not valid JSON ({e}): {resp}")),
    };
    match parsed.get("ok").and_then(|v| v.as_bool()) {
        Some(true) => {
            report.ok_responses += 1;
            if let Some(reference) = refs.for_request(req_line) {
                if normalize(resp) != normalize(&reference) {
                    return Some(format!(
                        "successful response diverged from fault-free reference\n\
                         request:   {req_line}\n\
                         got:       {resp}\n\
                         reference: {reference}"
                    ));
                }
            }
            None
        }
        Some(false) => {
            report.error_responses += 1;
            let code = parsed
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(|c| c.as_str())
                .unwrap_or("");
            if code.is_empty() {
                return Some(format!("error response without a code: {resp}"));
            }
            if code == "internal" {
                return Some(format!("internal error (engine panic?): {resp}"));
            }
            if code == "overloaded" {
                report.sheds += 1;
                let hinted = parsed
                    .get("error")
                    .and_then(|e| e.get("retry_after_ms"))
                    .and_then(|v| v.as_u64());
                if hinted.is_none() {
                    return Some(format!("overloaded shed without retry_after_ms: {resp}"));
                }
            }
            None
        }
        None => Some(format!("response lacks `ok`: {resp}")),
    }
}

fn with_id(template: &str, id: u64) -> String {
    template.replacen("\"id\":0", &format!("\"id\":{id}"), 1)
}

fn fail(case: usize, seed: u64, detail: String) -> ChaosFailure {
    // Capture whatever telemetry the run produced; empty unless the
    // embedding test installed a sink.
    let span_tree = if telemetry::is_enabled() {
        telemetry::render_span_tree(&telemetry::snapshot().events)
    } else {
        String::new()
    };
    ChaosFailure {
        case_index: case,
        seed,
        detail,
        span_tree,
    }
}

/// Run `config.cases` seeded scenarios against a live in-process server.
/// Stops at the first invariant violation; the report carries enough to
/// reproduce it (`seed`, `case_index`) and diagnose it (span tree).
pub fn run_chaos(config: ChaosConfig) -> ChaosReport {
    let mut report = ChaosReport {
        cases: config.cases,
        ..Default::default()
    };
    let dir = std::env::temp_dir().join(format!(
        "mpidfa-chaos-{}-{:x}",
        std::process::id(),
        config.seed
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let cache_dir = dir.to_string_lossy().into_owned();

    let mut refs = match ReferenceAnswers::new() {
        Ok(r) => r,
        Err(e) => {
            report.failure = Some(fail(0, config.seed, format!("reference engine: {e}")));
            return report;
        }
    };

    let mut epoch = match start_epoch(&cache_dir) {
        Ok(e) => e,
        Err(e) => {
            report.failure = Some(fail(0, config.seed, format!("start server: {e}")));
            return report;
        }
    };

    for case in 0..config.cases {
        let mut rng = SplitMix64::fork(config.seed, case as u64);
        match run_scenario(
            &mut rng,
            case,
            epoch.addr,
            &cache_dir,
            &mut refs,
            &mut report,
        ) {
            Ok(false) => {}
            Ok(true) => {
                // The scenario corrupted the disk store; restart the server
                // so the in-memory layer is cold and reads go to disk.
                if let Err(e) = stop_epoch(epoch, &mut report) {
                    report.failure = Some(fail(case, config.seed, format!("restart: {e}")));
                    return report;
                }
                match start_epoch(&cache_dir) {
                    Ok(e) => epoch = e,
                    Err(e) => {
                        report.failure =
                            Some(fail(case, config.seed, format!("restart bind: {e}")));
                        return report;
                    }
                }
            }
            Err(detail) => {
                report.failure = Some(fail(case, config.seed, detail));
                let _ = stop_epoch(epoch, &mut report);
                let _ = std::fs::remove_dir_all(&dir);
                return report;
            }
        }
    }

    if let Err(e) = stop_epoch(epoch, &mut report) {
        report.failure = Some(fail(config.cases, config.seed, format!("shutdown: {e}")));
    }
    let _ = std::fs::remove_dir_all(&dir);
    report
}

/// One scenario. `Ok(true)` asks the driver to restart the server epoch
/// (used after disk corruption).
fn run_scenario(
    rng: &mut SplitMix64,
    case: usize,
    addr: SocketAddr,
    cache_dir: &str,
    refs: &mut ReferenceAnswers,
    report: &mut ChaosReport,
) -> Result<bool, String> {
    match rng.below(100) {
        // ~25%: clean request/response (the control group).
        0..=24 => {
            let mut c = ChaosClient::connect(addr)?;
            let line = with_id(rng.pick::<&str>(REQUEST_POOL), 1000 + case as u64);
            c.send_raw(format!("{line}\n").as_bytes())?;
            report.requests_sent += 1;
            let resp = c.read_line()?;
            if let Some(d) = check_response(refs, &line, &resp, report) {
                return Err(d);
            }
            Ok(false)
        }
        // ~20%: partial writes — the request dribbles in chunks.
        25..=44 => {
            let mut c = ChaosClient::connect(addr)?;
            let line = with_id(rng.pick::<&str>(REQUEST_POOL), 2000 + case as u64);
            let framed = format!("{line}\n");
            let bytes = framed.as_bytes();
            let chunks = rng.range(2, 6);
            let mut sent = 0;
            for i in 0..chunks {
                let end = if i + 1 == chunks {
                    bytes.len()
                } else {
                    (sent + 1).max(rng.range(sent, bytes.len()))
                };
                c.send_raw(&bytes[sent..end])?;
                sent = end;
                if sent >= bytes.len() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(rng.below(5) as u64));
            }
            report.requests_sent += 1;
            let resp = c.read_line()?;
            if let Some(d) = check_response(refs, &line, &resp, report) {
                return Err(format!("chunked request mishandled: {d}"));
            }
            Ok(false)
        }
        // ~15%: mid-request disconnect, then a fresh connection must work.
        45..=59 => {
            {
                let mut c = ChaosClient::connect(addr)?;
                let line = with_id(rng.pick::<&str>(REQUEST_POOL), 3000 + case as u64);
                let cut = rng.range(1, line.len());
                c.send_raw(&line.as_bytes()[..cut])?;
                // Hard close with an incomplete line in flight.
                let _ = c.stream.shutdown(std::net::Shutdown::Both);
                report.disconnects += 1;
            }
            let mut c = ChaosClient::connect(addr)?;
            let probe = format!("{{\"id\":{},\"kind\":\"ping\"}}\n", 3500 + case);
            c.send_raw(probe.as_bytes())?;
            report.requests_sent += 1;
            let resp = c.read_line()?;
            if !resp.contains("\"pong\":true") {
                return Err(format!("ping after disconnect failed: {resp}"));
            }
            report.ok_responses += 1;
            Ok(false)
        }
        // ~15%: stalled client — a half-written request held open must not
        // block another connection's request.
        60..=74 => {
            let mut stalled = ChaosClient::connect(addr)?;
            stalled.send_raw(b"{\"id\":1,\"kind\":\"an")?; // no newline
            let mut live = ChaosClient::connect(addr)?;
            let line = with_id(rng.pick::<&str>(REQUEST_POOL), 4000 + case as u64);
            live.send_raw(format!("{line}\n").as_bytes())?;
            report.requests_sent += 1;
            let resp = live.read_line()?;
            if let Some(d) = check_response(refs, &line, &resp, report) {
                return Err(format!("stalled neighbor broke a live client: {d}"));
            }
            // The stalled connection is still allowed to finish its line.
            stalled
                .send_raw(b"alyze\",\"program\":\"figure1\",\"ind\":[\"x\"],\"dep\":[\"f\"]}\n")?;
            report.requests_sent += 1;
            let resp = stalled.read_line()?;
            let full = r#"{"id":1,"kind":"analyze","program":"figure1","ind":["x"],"dep":["f"]}"#;
            if let Some(d) = check_response(refs, full, &resp, report) {
                return Err(format!("stalled client's late request failed: {d}"));
            }
            Ok(false)
        }
        // ~5%: corrupt the on-disk result entries (bit flips, sometimes a
        // truncating torn write), then restart the epoch.
        75..=79 => {
            let results = std::path::Path::new(cache_dir).join(crate::cache::RESULTS_NAMESPACE);
            if let Ok(entries) = std::fs::read_dir(&results) {
                for entry in entries.flatten() {
                    let path = entry.path();
                    let Ok(mut bytes) = std::fs::read(&path) else {
                        continue;
                    };
                    if bytes.is_empty() {
                        continue;
                    }
                    let idx = rng.below(bytes.len());
                    bytes[idx] ^= 1 << rng.below(8);
                    if rng.chance(0.3) {
                        bytes.truncate(rng.below(bytes.len()));
                    }
                    if std::fs::write(&path, &bytes).is_ok() {
                        report.corruptions += 1;
                    }
                }
            }
            Ok(true)
        }
        // ~10%: a known request must answer byte-identically — after a
        // corruption epoch this is the scenario that catches a checksum
        // bypass serving garbage from disk.
        80..=89 => {
            let mut c = ChaosClient::connect(addr)?;
            let line = with_id(REQUEST_POOL[1], 5000 + case as u64); // analyze figure1
            c.send_raw(format!("{line}\n").as_bytes())?;
            report.requests_sent += 1;
            let resp = c.read_line()?;
            if let Some(d) = check_response(refs, &line, &resp, report) {
                return Err(format!("recompute after corruption diverged: {d}"));
            }
            Ok(false)
        }
        // ~5%: burst load beyond the admission cap — every thread gets
        // either a valid answer or a structured overloaded shed.
        90..=94 => {
            let threads = rng.range(6, 11);
            let line = with_id(REQUEST_POOL[4], 6000 + case as u64); // table1-row
            let results: Vec<Result<String, String>> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        let line = line.clone();
                        s.spawn(move || -> Result<String, String> {
                            let mut c = ChaosClient::connect(addr)?;
                            c.send_raw(format!("{line}\n").as_bytes())?;
                            c.read_line()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|_| Err("client panicked".into())))
                    .collect()
            });
            for r in results {
                let resp = r?;
                report.requests_sent += 1;
                if resp.contains("\"code\":\"overloaded\"") {
                    report.error_responses += 1;
                    report.sheds += 1;
                    continue;
                }
                if let Some(d) = check_response(refs, &line, &resp, report) {
                    // Under load the admission floor may legitimately
                    // degrade the answer — but only with bypass provenance
                    // at a raised tier. Anything else is a real divergence.
                    if resp.contains("\"cache\":\"bypass\"") && !resp.contains("\"tier\":\"T0\"") {
                        continue;
                    }
                    return Err(format!("burst response invalid: {d}"));
                }
            }
            Ok(false)
        }
        // ~5%: oversized line, then resync on the same connection.
        _ => {
            let mut c = ChaosClient::connect(addr)?;
            let huge = vec![b'x'; crate::proto::MAX_LINE_BYTES + 1 + rng.below(64)];
            c.send_raw(&huge)?;
            c.send_raw(b"\n")?;
            report.requests_sent += 1;
            let resp = c.read_line()?;
            if !resp.contains("\"code\":\"too-large\"") {
                return Err(format!("oversized line not rejected: {resp}"));
            }
            report.error_responses += 1;
            let line = with_id(rng.pick::<&str>(REQUEST_POOL), 7000 + case as u64);
            c.send_raw(format!("{line}\n").as_bytes())?;
            report.requests_sent += 1;
            let resp = c.read_line()?;
            if let Some(d) = check_response(refs, &line, &resp, report) {
                return Err(format!("resync after oversized line failed: {d}"));
            }
            Ok(false)
        }
    }
}

// ---------------------------------------------------------------------------
// Cluster chaos: the same invariants against a real supervised fleet.
// ---------------------------------------------------------------------------

/// Cluster chaos run parameters. Unlike [`ChaosConfig`] this drives real
/// worker *processes* (via [`crate::router::Cluster`]), so it needs the
/// path to the `mpidfa` binary; integration tests pass
/// `env!("CARGO_BIN_EXE_mpidfa")`.
#[derive(Debug, Clone)]
pub struct ClusterChaosConfig {
    /// Master seed; scenario `i` runs under `SplitMix64::fork(seed, i)`.
    pub seed: u64,
    /// Number of scenarios to run.
    pub cases: usize,
    /// Fleet size. 1 exercises the degenerate ring; 3 is the CI topology.
    pub shards: usize,
    /// Worker executable (the `mpidfa` binary; the supervisor invokes it
    /// as `mpidfa serve --shard-id I --addr 127.0.0.1:0 ...`).
    pub worker_program: std::path::PathBuf,
}

/// Run `config.cases` seeded scenarios against a live cluster: a router +
/// supervised worker fleet sharing one crash-only disk cache. Scenarios
/// add process-level faults to the single-box repertoire — worker SIGKILL
/// mid-request, restart storms, one-shard brownouts under burst, warm-disk
/// survival across a kill — and assert the same four invariants: no hangs,
/// no panics, structured errors only, byte-identical successes vs the
/// fault-free reference.
pub fn run_cluster_chaos(config: ClusterChaosConfig) -> ChaosReport {
    use crate::health::HealthConfig;
    use crate::router::{Cluster, ClusterConfig};
    use crate::supervisor::{BackoffConfig, WorkerSpec};

    let mut report = ChaosReport {
        cases: config.cases,
        ..Default::default()
    };
    let dir = std::env::temp_dir().join(format!(
        "mpidfa-cluster-chaos-{}-{:x}",
        std::process::id(),
        config.seed
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let cache_dir = dir.to_string_lossy().into_owned();

    let mut refs = match ReferenceAnswers::new() {
        Ok(r) => r,
        Err(e) => {
            report.failure = Some(fail(0, config.seed, format!("reference engine: {e}")));
            return report;
        }
    };

    // Small admission cap so brownout scenarios actually shed; fast
    // backoff + health cadence so kill scenarios recover inside the suite.
    let mut worker = WorkerSpec::new(
        &config.worker_program,
        vec![
            "serve".into(),
            "--cache-dir".into(),
            cache_dir.clone(),
            "--max-inflight".into(),
            "4".into(),
        ],
    );
    worker.backoff = BackoffConfig {
        base: Duration::from_millis(20),
        cap: Duration::from_millis(500),
        reset_after: Duration::from_secs(2),
    };
    worker.health = HealthConfig {
        interval: Duration::from_millis(150),
        timeout: Duration::from_millis(1500),
        miss_budget: 3,
    };

    let cluster = match Cluster::start(ClusterConfig::new(config.shards, worker), "127.0.0.1:0") {
        Ok(c) => c,
        Err(e) => {
            report.failure = Some(fail(0, config.seed, format!("start cluster: {e}")));
            return report;
        }
    };
    let addr = match cluster.local_addr() {
        Ok(a) => a,
        Err(e) => {
            report.failure = Some(fail(0, config.seed, format!("cluster addr: {e}")));
            return report;
        }
    };
    let supervisor = cluster.supervisor();
    let router = cluster.router();
    let serve_thread = std::thread::spawn(move || cluster.run());

    for case in 0..config.cases {
        let mut rng = SplitMix64::fork(config.seed, case as u64);
        if let Err(detail) = run_cluster_scenario(
            &mut rng,
            case,
            addr,
            &supervisor,
            &router,
            &mut refs,
            &mut report,
        ) {
            report.failure = Some(fail(case, config.seed, detail));
            break;
        }
    }

    // Always tear the fleet down, even after a failure: leaked worker
    // processes would outlive the test run.
    let stopped = (|| -> Result<(), String> {
        let mut c = ChaosClient::connect(addr)?;
        c.send_raw(b"{\"id\":999999,\"kind\":\"shutdown\"}\n")?;
        let _ = c.read_line();
        Ok(())
    })();
    if stopped.is_err() {
        // Router unreachable — stop the workers directly; the serve thread
        // is then abandoned (the process is exiting anyway).
        supervisor.stop();
    } else {
        match serve_thread.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => {
                report
                    .failure
                    .get_or_insert_with(|| fail(config.cases, config.seed, format!("serve: {e}")));
            }
            Err(_) => {
                report.failure.get_or_insert_with(|| {
                    fail(config.cases, config.seed, "router thread panicked".into())
                });
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    report
}

/// A successful answer that differs from the fault-free reference only
/// because the admission floor raised the tier under load: it carries
/// bypass provenance and a floor above T0. The PR-6 ladder makes this a
/// legitimate (deterministically rendered) degradation, not a divergence.
fn is_load_degraded(resp: &str) -> bool {
    resp.contains("\"cache\":\"bypass\"") && !resp.contains("\"tier\":\"T0\"")
}

/// SIGKILL `shard`, counting the kill and returning the pre-kill epoch so
/// the caller can wait for the *replacement* incarnation (right after a
/// kill the table still shows the dead worker as alive for one monitor
/// tick). `None` when there was no process to kill (already mid-restart).
fn kill_shard_noted(
    supervisor: &crate::supervisor::Supervisor,
    shard: usize,
    report: &mut ChaosReport,
) -> Option<u64> {
    let pre_epoch = supervisor.table().snapshot(shard).epoch;
    if supervisor.kill_shard(shard) {
        report.kills += 1;
        Some(pre_epoch)
    } else {
        None
    }
}

/// Wait for every killed shard's replacement, then for the whole fleet;
/// cluster scenarios that kill workers end with this so one case's faults
/// never bleed into the next.
fn fleet_recovers(
    supervisor: &crate::supervisor::Supervisor,
    killed: &[(usize, u64)],
) -> Result<(), String> {
    for &(shard, pre_epoch) in killed {
        if !supervisor.wait_restarted(shard, pre_epoch, Duration::from_secs(15)) {
            return Err(format!(
                "shard {shard} was not restarted past epoch {pre_epoch} within 15s: {:?}",
                supervisor.table().snapshot(shard)
            ));
        }
    }
    if supervisor.wait_all_healthy(Duration::from_secs(15)) {
        Ok(())
    } else {
        Err(format!(
            "fleet did not recover within 15s: {:?}",
            supervisor.table().snapshots()
        ))
    }
}

/// One cluster scenario.
fn run_cluster_scenario(
    rng: &mut SplitMix64,
    case: usize,
    addr: SocketAddr,
    supervisor: &Arc<crate::supervisor::Supervisor>,
    router: &Arc<crate::router::RouterHandler>,
    refs: &mut ReferenceAnswers,
    report: &mut ChaosReport,
) -> Result<(), String> {
    let shards = supervisor.table().len();
    // Analysis requests only (no control verbs): these route to a shard.
    let analysis_pool = &REQUEST_POOL[1..6];
    match rng.below(100) {
        // ~25%: clean request through the router (the control group). A
        // shard may still be restarting from a previous case — then the
        // router hedges or sheds, and both are valid structured outcomes.
        0..=24 => {
            let mut c = ChaosClient::connect(addr)?;
            let line = with_id(rng.pick::<&str>(REQUEST_POOL), 1000 + case as u64);
            c.send_raw(format!("{line}\n").as_bytes())?;
            report.requests_sent += 1;
            let resp = c.read_line()?;
            if let Some(d) = check_response(refs, &line, &resp, report) {
                return Err(d);
            }
            Ok(())
        }
        // ~15%: SIGKILL the exact shard a request routes to, mid-request.
        // The client must still get a structured answer (a hedged success
        // must be byte-identical), and the supervisor must restart the
        // worker.
        25..=39 => {
            let line = with_id(rng.pick::<&str>(analysis_pool), 2000 + case as u64);
            let target = router
                .shard_for_line(&line)
                .ok_or("shard_for_line returned None for an analysis request")?;
            let delay = Duration::from_millis(rng.below(30) as u64);
            let mut killed = Vec::new();
            let resp = std::thread::scope(|s| {
                let client = s.spawn(|| -> Result<String, String> {
                    let mut c = ChaosClient::connect(addr)?;
                    c.send_raw(format!("{line}\n").as_bytes())?;
                    c.read_line()
                });
                std::thread::sleep(delay);
                if let Some(pre) = kill_shard_noted(supervisor, target, report) {
                    killed.push((target, pre));
                }
                client
                    .join()
                    .unwrap_or_else(|_| Err("client panicked".into()))
            })?;
            report.requests_sent += 1;
            if let Some(d) = check_response(refs, &line, &resp, report) {
                return Err(format!("kill of shard {target} mid-request: {d}"));
            }
            fleet_recovers(supervisor, &killed)?;
            Ok(())
        }
        // ~10%: restart storm — every shard killed back to back, with
        // concurrent probes in flight. No hangs, structured answers only,
        // and the whole fleet must come back.
        40..=49 => {
            let lines: Vec<String> = (0..4)
                .map(|i| with_id(rng.pick::<&str>(analysis_pool), 3000 + 10 * case as u64 + i))
                .collect();
            let mut killed = Vec::new();
            let results: Vec<Result<String, String>> = std::thread::scope(|s| {
                let probes: Vec<_> = lines
                    .iter()
                    .map(|line| {
                        s.spawn(move || -> Result<String, String> {
                            let mut c = ChaosClient::connect(addr)?;
                            c.send_raw(format!("{line}\n").as_bytes())?;
                            c.read_line()
                        })
                    })
                    .collect();
                for shard in 0..shards {
                    if let Some(pre) = kill_shard_noted(supervisor, shard, report) {
                        killed.push((shard, pre));
                    }
                    std::thread::sleep(Duration::from_millis(rng.below(10) as u64));
                }
                probes
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|_| Err("probe panicked".into())))
                    .collect()
            });
            for (line, r) in lines.iter().zip(results) {
                let resp = r?;
                report.requests_sent += 1;
                if let Some(d) = check_response(refs, line, &resp, report) {
                    // Concurrent probes can push a surviving worker past a
                    // watermark: a tier-degraded answer (bypass provenance,
                    // floor above T0) is the admission ladder working, not
                    // a divergence.
                    if is_load_degraded(&resp) {
                        continue;
                    }
                    return Err(format!("restart storm: {d}"));
                }
            }
            fleet_recovers(supervisor, &killed)?;
            Ok(())
        }
        // ~10%: brownout under burst — identical bypass requests all route
        // to ONE shard and exceed its admission cap. The router must
        // propagate `retry_after_ms` (never hedge a shed into a second
        // shed loop forever), and every client gets ok-or-overloaded.
        50..=59 => {
            let line = format!(
                "{{\"id\":{},\"kind\":\"analyze\",\"program\":\"figure1\",\
                 \"ind\":[\"x\"],\"dep\":[\"f\"],\"budget_ms\":60000}}",
                4000 + case as u64
            );
            let threads = 4 * shards + 2;
            let results: Vec<Result<String, String>> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        let line = line.clone();
                        s.spawn(move || -> Result<String, String> {
                            let mut c = ChaosClient::connect(addr)?;
                            c.send_raw(format!("{line}\n").as_bytes())?;
                            c.read_line()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|_| Err("client panicked".into())))
                    .collect()
            });
            for r in results {
                let resp = r?;
                report.requests_sent += 1;
                if resp.contains("\"code\":\"overloaded\"") {
                    if !resp.contains("\"retry_after_ms\"") {
                        return Err(format!("shed without retry_after_ms: {resp}"));
                    }
                    report.error_responses += 1;
                    report.sheds += 1;
                    continue;
                }
                if let Some(d) = check_response(refs, &line, &resp, report) {
                    // Same allowance as the single-box burst: under load
                    // the admission floor may degrade the tier, visible
                    // only on bypass-provenance answers.
                    if is_load_degraded(&resp) {
                        continue;
                    }
                    return Err(format!("brownout burst response invalid: {d}"));
                }
            }
            // Let the shard's brownout window (retry_after_ms = 100) lapse
            // so the next case starts with all shards routable.
            std::thread::sleep(Duration::from_millis(150));
            Ok(())
        }
        // ~10%: warm-disk survival — a computed result must outlive a
        // SIGKILL of the worker that wrote it (crash-only tmp+rename
        // framing) and come back as a disk hit after the restart.
        60..=69 => {
            fleet_recovers(supervisor, &[])?;
            let line = with_id(REQUEST_POOL[1], 5000 + case as u64); // analyze figure1
            let mut c = ChaosClient::connect(addr)?;
            c.send_raw(format!("{line}\n").as_bytes())?;
            report.requests_sent += 1;
            let first = c.read_line()?;
            if first.contains("\"ok\":false") {
                // Shed under residual load — nothing was cached; skip.
                report.error_responses += 1;
                return Ok(());
            }
            if let Some(d) = check_response(refs, &line, &first, report) {
                return Err(format!("warm-disk priming request: {d}"));
            }
            let owner = router
                .shard_for_line(&line)
                .ok_or("no owner shard for warm-disk request")?;
            let killed: Vec<(usize, u64)> = kill_shard_noted(supervisor, owner, report)
                .map(|pre| (owner, pre))
                .into_iter()
                .collect();
            fleet_recovers(supervisor, &killed)?;
            let mut c = ChaosClient::connect(addr)?;
            c.send_raw(format!("{line}\n").as_bytes())?;
            report.requests_sent += 1;
            let resp = c.read_line()?;
            if let Some(d) = check_response(refs, &line, &resp, report) {
                return Err(format!("warm-disk re-read after kill: {d}"));
            }
            if !resp.contains("\"cache\":\"hit\"") {
                return Err(format!(
                    "disk entry did not survive the kill of shard {owner}: {resp}"
                ));
            }
            Ok(())
        }
        // ~10%: router robustness — malformed lines, oversized + resync,
        // mid-line disconnects, and pings racing a kill.
        70..=79 => match rng.below(4) {
            0 => {
                let mut c = ChaosClient::connect(addr)?;
                c.send_raw(b"{\"id\":,\"kind\":\"analyze\"}\n")?;
                report.requests_sent += 1;
                let resp = c.read_line()?;
                let parsed = mpi_dfa_core::json::parse(&resp)
                    .map_err(|e| format!("malformed-line answer is not JSON ({e}): {resp}"))?;
                if parsed.get("ok").and_then(|v| v.as_bool()) != Some(false) {
                    return Err(format!("malformed line not rejected: {resp}"));
                }
                report.error_responses += 1;
                let probe = format!("{{\"id\":{},\"kind\":\"ping\"}}\n", 6000 + case);
                c.send_raw(probe.as_bytes())?;
                report.requests_sent += 1;
                let resp = c.read_line()?;
                if !resp.contains("\"pong\":true") {
                    return Err(format!("ping after malformed line failed: {resp}"));
                }
                report.ok_responses += 1;
                Ok(())
            }
            1 => {
                let mut c = ChaosClient::connect(addr)?;
                let huge = vec![b'x'; crate::proto::MAX_LINE_BYTES + 1 + rng.below(64)];
                c.send_raw(&huge)?;
                c.send_raw(b"\n")?;
                report.requests_sent += 1;
                let resp = c.read_line()?;
                if !resp.contains("\"code\":\"too-large\"") {
                    return Err(format!("oversized line not rejected by router: {resp}"));
                }
                report.error_responses += 1;
                let line = with_id(rng.pick::<&str>(analysis_pool), 6100 + case as u64);
                c.send_raw(format!("{line}\n").as_bytes())?;
                report.requests_sent += 1;
                let resp = c.read_line()?;
                if let Some(d) = check_response(refs, &line, &resp, report) {
                    return Err(format!("router resync after oversized line: {d}"));
                }
                Ok(())
            }
            2 => {
                {
                    let mut c = ChaosClient::connect(addr)?;
                    let line = with_id(rng.pick::<&str>(analysis_pool), 6200 + case as u64);
                    let cut = rng.range(1, line.len());
                    c.send_raw(&line.as_bytes()[..cut])?;
                    let _ = c.stream.shutdown(std::net::Shutdown::Both);
                    report.disconnects += 1;
                }
                let mut c = ChaosClient::connect(addr)?;
                let probe = format!("{{\"id\":{},\"kind\":\"ping\"}}\n", 6300 + case);
                c.send_raw(probe.as_bytes())?;
                report.requests_sent += 1;
                let resp = c.read_line()?;
                if !resp.contains("\"pong\":true") {
                    return Err(format!("ping after mid-line disconnect failed: {resp}"));
                }
                report.ok_responses += 1;
                Ok(())
            }
            _ => {
                // Ping answers locally at the router: it must pong even
                // while a worker is being killed.
                let victim = rng.below(shards);
                let killed: Vec<(usize, u64)> = kill_shard_noted(supervisor, victim, report)
                    .map(|pre| (victim, pre))
                    .into_iter()
                    .collect();
                let mut c = ChaosClient::connect(addr)?;
                let probe = format!("{{\"id\":{},\"kind\":\"ping\"}}\n", 6400 + case);
                c.send_raw(probe.as_bytes())?;
                report.requests_sent += 1;
                let resp = c.read_line()?;
                if !resp.contains("\"pong\":true") {
                    return Err(format!("ping during worker kill failed: {resp}"));
                }
                report.ok_responses += 1;
                fleet_recovers(supervisor, &killed)?;
                Ok(())
            }
        },
        // ~10%: cluster `cache-stats` shape — router counters, one
        // supervisor entry per shard, one worker stats object per shard.
        80..=89 => {
            fleet_recovers(supervisor, &[])?;
            let mut c = ChaosClient::connect(addr)?;
            let line = format!("{{\"id\":{},\"kind\":\"cache-stats\"}}", 7000 + case);
            c.send_raw(format!("{line}\n").as_bytes())?;
            report.requests_sent += 1;
            let resp = c.read_line()?;
            let parsed = mpi_dfa_core::json::parse(&resp)
                .map_err(|e| format!("cache-stats is not JSON ({e}): {resp}"))?;
            let result = parsed
                .get("result")
                .ok_or_else(|| format!("cache-stats without result: {resp}"))?;
            let cluster = result
                .get("cluster")
                .ok_or_else(|| format!("cluster cache-stats without `cluster`: {resp}"))?;
            if cluster.get("shards").and_then(|v| v.as_u64()) != Some(shards as u64) {
                return Err(format!("cluster.shards != {shards}: {resp}"));
            }
            let sup = cluster
                .get("supervisor")
                .and_then(|v| v.as_array().map(|a| a.len()))
                .ok_or_else(|| format!("cluster.supervisor missing: {resp}"))?;
            if sup != shards {
                return Err(format!(
                    "cluster.supervisor has {sup} entries, want {shards}"
                ));
            }
            let workers = result
                .get("workers")
                .and_then(|v| v.as_array().map(|a| a.len()))
                .ok_or_else(|| format!("cluster cache-stats without workers: {resp}"))?;
            if workers != shards {
                return Err(format!("workers has {workers} entries, want {shards}"));
            }
            if cluster
                .get("router")
                .and_then(|r| r.get("routed_total"))
                .is_none()
            {
                return Err(format!("cluster.router counters missing: {resp}"));
            }
            report.ok_responses += 1;
            Ok(())
        }
        // ~10%: kill, then fire the next request immediately — the worst
        // window for the router (endpoint still published, conn refused or
        // reset). Must hedge or shed, never hang or garble.
        _ => {
            let victim = rng.below(shards);
            let killed: Vec<(usize, u64)> = kill_shard_noted(supervisor, victim, report)
                .map(|pre| (victim, pre))
                .into_iter()
                .collect();
            let line = with_id(rng.pick::<&str>(analysis_pool), 8000 + case as u64);
            let mut c = ChaosClient::connect(addr)?;
            c.send_raw(format!("{line}\n").as_bytes())?;
            report.requests_sent += 1;
            let resp = c.read_line()?;
            if let Some(d) = check_response(refs, &line, &resp, report) {
                return Err(format!(
                    "request straight after kill of shard {victim}: {d}"
                ));
            }
            fleet_recovers(supervisor, &killed)?;
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small deterministic smoke run (the 500-case run lives in
    /// `tests/chaos_service.rs` and in the CI `chaos-smoke` job).
    #[test]
    fn chaos_smoke_is_clean_and_deterministic() {
        let cfg = ChaosConfig {
            seed: 42,
            cases: 25,
        };
        let a = run_chaos(cfg);
        assert!(
            a.failure.is_none(),
            "chaos failure at case {:?}: {}",
            a.failure.as_ref().map(|f| f.case_index),
            a.failure.as_ref().map(|f| f.detail.as_str()).unwrap_or("")
        );
        assert!(a.requests_sent > 0);
        assert!(a.ok_responses > 0);
    }
}
