//! JSONL-over-TCP daemon front end (`mpidfa serve`).
//!
//! One `std::net::TcpListener`, one thread per connection, all sharing one
//! [`Engine`] (and therefore one set of caches — the second client to ask
//! a question gets the first client's warm answer). The wire protocol is
//! exactly the batch protocol: one JSON request per line in, one JSON
//! response per line out, in order, on the same connection.
//!
//! Robustness contract (exercised by the fuzz corpus and the chaos
//! harness in `tests/`):
//!
//! * a malformed line gets a structured `parse` error, never a dropped
//!   connection;
//! * a line longer than [`MAX_LINE_BYTES`] gets a `too-large` error and
//!   the reader **resynchronizes at the next newline**, so the client can
//!   keep using the connection;
//! * every analysis request passes **admission control** first: past the
//!   in-flight cap it is shed with a structured `overloaded` error and a
//!   `retry_after_ms` hint, and under sustained load the admission ladder
//!   raises the governor tier floor (see [`crate::admission`]);
//! * sockets carry an **idle read timeout** (a connection that sends
//!   nothing for [`ServerConfig::idle_timeout`] is reaped) and a **write
//!   timeout** (a stalled reader cannot pin a worker thread past
//!   [`ServerConfig::write_timeout`] — the connection is dropped);
//! * a panic inside the engine is caught per request and answered as a
//!   structured `internal` error; the connection and server survive;
//! * a `shutdown` request is acknowledged (`{"stopping":true}`), then the
//!   whole server drains: the accept loop is woken by a loopback connect
//!   and every open connection's socket is shut down, which interrupts
//!   parked reads immediately — no polling tick, no idle CPU burn, and
//!   `Server::run` returns only after all threads join.

use crate::engine::Engine;
use crate::obs::{mint_trace_id, AccessRecord, TelemetryHub};
use crate::proto::{read_request, render_err, ProtoError, RequestKind, TraceCtx, MAX_LINE_BYTES};
use crate::slo;
use mpi_dfa_core::telemetry;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Socket-level limits for one server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// A connection that sends no bytes for this long is reaped.
    pub idle_timeout: Duration,
    /// A response write blocked on a stalled client for this long drops
    /// the connection.
    pub write_timeout: Duration,
    /// Hard cap on concurrently open connections; excess connections are
    /// answered with one `overloaded` error line and closed.
    pub max_connections: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            idle_timeout: Duration::from_secs(60),
            write_timeout: Duration::from_secs(10),
            max_connections: 256,
        }
    }
}

/// One line in, one line out: the pluggable request brain behind the
/// socket loop. [`EngineLineHandler`] is the single-box worker
/// (admission + engine); the cluster router in [`crate::router`] is a
/// second implementation that forwards lines to sharded workers. Both
/// inherit the same socket robustness contract (oversize resync, idle
/// reaping, connection cap, shutdown drain) from [`Server`] for free.
pub trait LineHandler: Send + Sync + 'static {
    /// Answer one trimmed, non-empty request line. Returns the response
    /// line (no trailing newline) and whether this line asked the server
    /// to shut down (the returned response is the acknowledgement).
    fn answer(&self, line: &str) -> (String, bool);

    /// The single structured line answered to a connection rejected at
    /// the connection cap before it is closed.
    fn connection_overloaded(&self, max_connections: usize) -> String {
        let e = ProtoError::new(
            "overloaded",
            format!("connection limit {max_connections} reached; retry later"),
        )
        .with_retry_after(crate::admission::AdmissionConfig::default().retry_after_ms);
        render_err(0, &e)
    }
}

/// The single-process worker brain: admission control in front of the
/// shared [`Engine`], panics caught per request.
pub struct EngineLineHandler {
    engine: Arc<Engine>,
    /// Present on a single-box `serve` with observability configured:
    /// each analysis request then gets one access-log line (minting a
    /// trace id when the client sent none). Cluster workers run without a
    /// hub — their latency view reaches the supervisor's hub over the
    /// telemetry stream, and the *router* writes the access log.
    hub: Option<Arc<TelemetryHub>>,
}

impl EngineLineHandler {
    pub fn new(engine: Arc<Engine>) -> Self {
        EngineLineHandler { engine, hub: None }
    }

    /// [`EngineLineHandler::new`] plus an observability hub for the
    /// access log (single-box serve).
    pub fn with_hub(engine: Arc<Engine>, hub: Arc<TelemetryHub>) -> Self {
        EngineLineHandler {
            engine,
            hub: Some(hub),
        }
    }

    /// The wrapped engine (tests and the CLI reach caches through this).
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }
}

impl std::fmt::Debug for EngineLineHandler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineLineHandler")
            .field("engine", &self.engine)
            .field("hub", &self.hub.is_some())
            .finish()
    }
}

impl LineHandler for EngineLineHandler {
    /// Analysis kinds pass admission control first: a shed answers a
    /// structured `overloaded` error with the retry hint; an admitted
    /// request runs under the current governor tier floor, holding its
    /// in-flight permit until the response is computed. Control verbs
    /// (`ping`, `shutdown`, `cache-stats`) skip admission — health checks
    /// and introspection must keep answering precisely when the server is
    /// busiest.
    fn answer(&self, line: &str) -> (String, bool) {
        let engine = &self.engine;
        let started = std::time::Instant::now();
        match read_request(line) {
            Err(resp) => (resp, false),
            Ok(mut req) => {
                let control = matches!(
                    req.kind,
                    RequestKind::Ping
                        | RequestKind::Shutdown
                        | RequestKind::CacheStats
                        | RequestKind::Metrics
                );
                // With an access log configured, every analysis request
                // gets a trace id — minted here when the client sent none,
                // so its line is always correlatable.
                if self.hub.is_some() && !control && req.trace.is_none() {
                    req.trace = Some(TraceCtx {
                        id: mint_trace_id(),
                        parent: 0,
                        attempt: 0,
                    });
                }
                let resp = if control {
                    engine.handle(&req)
                } else {
                    match engine.admission().try_admit() {
                        Err(shed) => render_err(
                            req.id,
                            &ProtoError::new(
                                "overloaded",
                                "server at max in-flight requests; retry later",
                            )
                            .with_retry_after(shed.retry_after_ms),
                        ),
                        Ok(_permit) => {
                            // The permit is held across the compute; the
                            // floor is sampled once so the whole request
                            // runs one consistent configuration.
                            let floor = engine.admission().tier_floor();
                            catch_unwind(AssertUnwindSafe(|| engine.handle_with_floor(&req, floor)))
                                .unwrap_or_else(|_| {
                                    render_err(
                                        req.id,
                                        &ProtoError::new("internal", "analysis worker panicked"),
                                    )
                                })
                        }
                    }
                };
                if !control {
                    let latency_us = started.elapsed().as_micros() as u64;
                    let cache = slo::cache_outcome(&resp);
                    engine.slo().record(
                        req.kind.as_str(),
                        cache,
                        &engine.shard_label(),
                        latency_us,
                    );
                    if let (Some(hub), Some(t)) = (&self.hub, &req.trace) {
                        hub.record_access(&AccessRecord {
                            trace: t.id,
                            verb: req.kind.as_str().to_string(),
                            shard: None,
                            epoch: 0,
                            attempts: 1,
                            cache: cache.to_string(),
                            tier: slo::tier_of(&resp).to_string(),
                            latency_us,
                        });
                    }
                }
                (resp, req.kind == RequestKind::Shutdown)
            }
        }
    }

    fn connection_overloaded(&self, max_connections: usize) -> String {
        let e = ProtoError::new(
            "overloaded",
            format!("connection limit {max_connections} reached; retry later"),
        )
        .with_retry_after(self.engine.admission().config().retry_after_ms);
        render_err(0, &e)
    }
}

/// A bound-but-not-yet-running server. Splitting bind from run lets the
/// caller learn the actual address (port 0 ⇒ ephemeral) before blocking.
#[derive(Debug)]
pub struct Server<H: LineHandler = EngineLineHandler> {
    listener: TcpListener,
    handler: Arc<H>,
    shutdown: Arc<AtomicBool>,
    config: ServerConfig,
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:7117`, or port `0` for ephemeral) with
    /// default socket limits.
    pub fn bind(engine: Arc<Engine>, addr: &str) -> Result<Server, String> {
        Self::bind_with(engine, addr, ServerConfig::default())
    }

    /// [`Server::bind`] with explicit socket limits.
    pub fn bind_with(
        engine: Arc<Engine>,
        addr: &str,
        config: ServerConfig,
    ) -> Result<Server, String> {
        Server::bind_handler(Arc::new(EngineLineHandler::new(engine)), addr, config)
    }
}

impl<H: LineHandler> Server<H> {
    /// Bind with an explicit request brain (the cluster router uses this).
    pub fn bind_handler(
        handler: Arc<H>,
        addr: &str,
        config: ServerConfig,
    ) -> Result<Server<H>, String> {
        let listener = TcpListener::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
        Ok(Server {
            listener,
            handler,
            shutdown: Arc::new(AtomicBool::new(false)),
            config,
        })
    }

    /// The bound socket address.
    pub fn local_addr(&self) -> Result<SocketAddr, String> {
        self.listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))
    }

    /// Accept and serve connections until a client sends `shutdown`.
    /// Returns once every connection thread has exited.
    pub fn run(self) -> Result<(), String> {
        let addr = self.local_addr()?;
        let mut threads = Vec::new();
        // Registry of open connections (a `try_clone` per socket) so the
        // drain path can interrupt parked reads with a socket shutdown
        // instead of waiting out a timeout tick.
        let registry: Arc<Mutex<HashMap<u64, TcpStream>>> = Arc::new(Mutex::new(HashMap::new()));
        let mut next_id: u64 = 0;
        loop {
            let (mut stream, peer) = match self.listener.accept() {
                Ok(pair) => pair,
                Err(_) if self.shutdown.load(Ordering::SeqCst) => break,
                Err(e) => return Err(format!("accept: {e}")),
            };
            if self.shutdown.load(Ordering::SeqCst) {
                // The stream that woke us (loopback or a late client) is
                // dropped unanswered; we are draining.
                break;
            }
            if registry.lock().unwrap().len() >= self.config.max_connections {
                // Over the connection cap: one structured line, then close.
                // Best-effort — the client may already be gone.
                let _ = stream.set_write_timeout(Some(self.config.write_timeout));
                let _ = writeln!(
                    stream,
                    "{}",
                    self.handler
                        .connection_overloaded(self.config.max_connections)
                );
                if telemetry::is_enabled() {
                    telemetry::metric_add("service_connections_rejected_total", 1.0);
                }
                continue;
            }
            let id = next_id;
            next_id += 1;
            if let Ok(clone) = stream.try_clone() {
                registry.lock().unwrap().insert(id, clone);
            }
            let handler = Arc::clone(&self.handler);
            let shutdown = Arc::clone(&self.shutdown);
            let registry2 = Arc::clone(&registry);
            let config = self.config;
            threads.push(std::thread::spawn(move || {
                let mut span = telemetry::span("service", "connection");
                span.arg("peer", peer.to_string());
                // I/O errors here mean the client vanished; nothing to do.
                let _ = serve_connection(handler.as_ref(), stream, &shutdown, addr, &config);
                registry2.lock().unwrap().remove(&id);
            }));
        }
        // Drain: shut every open socket down so parked reads return
        // immediately (EOF), then join. No polling loop anywhere.
        self.shutdown.store(true, Ordering::SeqCst);
        for stream in registry.lock().unwrap().values() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        for t in threads {
            let _ = t.join();
        }
        Ok(())
    }
}

/// Bind, announce `listening on ADDR` on stdout (line-buffered clients —
/// including the CI harness — wait for exactly this line), then serve
/// until shutdown.
pub fn serve(engine: Arc<Engine>, addr: &str) -> Result<(), String> {
    serve_with(engine, addr, ServerConfig::default())
}

/// [`serve`] with explicit socket limits.
pub fn serve_with(engine: Arc<Engine>, addr: &str, config: ServerConfig) -> Result<(), String> {
    let server = Server::bind_with(engine, addr, config)?;
    let bound = server.local_addr()?;
    println!("listening on {bound}");
    let _ = std::io::stdout().flush();
    server.run()
}

/// Serve one connection. Returns `Ok(true)` iff this connection requested
/// shutdown (in which case the flag is already set and the acceptor has
/// been woken).
fn serve_connection<H: LineHandler>(
    handler: &H,
    mut stream: TcpStream,
    shutdown: &Arc<AtomicBool>,
    server_addr: SocketAddr,
    config: &ServerConfig,
) -> std::io::Result<bool> {
    // The read timeout is the *idle reaper*, not a shutdown tick: shutdown
    // interrupts reads via socket shutdown, so this can be generous.
    stream.set_read_timeout(Some(config.idle_timeout))?;
    stream.set_write_timeout(Some(config.write_timeout))?;
    // One JSON line per response: without TCP_NODELAY the Nagle /
    // delayed-ACK interaction can add ~40 ms to every round trip, which
    // dwarfs a warm cache hit.
    stream.set_nodelay(true)?;
    let mut buf: Vec<u8> = Vec::new();
    // `buf[..scanned]` is known to hold no newline, so each byte is
    // searched once however many reads a long line takes.
    let mut scanned = 0;
    let mut chunk = [0u8; 16 * 1024];
    // After an oversized line is reported, discard bytes up to the next
    // newline so the stream resynchronizes on line boundaries.
    let mut skip_to_newline = false;

    loop {
        // Answer every complete line currently buffered, then drop them
        // from the buffer in one move.
        let mut start = 0;
        while let Some(pos) = buf[scanned..].iter().position(|&b| b == b'\n') {
            let end = scanned + pos + 1;
            let line = &buf[start..end];
            (start, scanned) = (end, end);
            if skip_to_newline {
                skip_to_newline = false; // this newline ends the giant line
                continue;
            }
            if answer_line(handler, &mut stream, line)? {
                shutdown.store(true, Ordering::SeqCst);
                // Wake the acceptor if it is parked in `accept`.
                let _ = TcpStream::connect(server_addr);
                return Ok(true);
            }
        }
        buf.drain(..start);
        scanned = buf.len();
        if buf.len() > MAX_LINE_BYTES {
            if !skip_to_newline {
                let e = ProtoError::new(
                    "too-large",
                    format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                );
                writeln!(stream, "{}", render_err(0, &e))?;
                skip_to_newline = true;
            }
            buf.clear();
            scanned = 0;
        }
        if shutdown.load(Ordering::SeqCst) {
            return Ok(false);
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                // EOF. Be forgiving about a final line with no trailing
                // newline — answer it, then close.
                if !buf.is_empty() && !skip_to_newline {
                    let line = std::mem::take(&mut buf);
                    if answer_line(handler, &mut stream, &line)? {
                        shutdown.store(true, Ordering::SeqCst);
                        let _ = TcpStream::connect(server_addr);
                        return Ok(true);
                    }
                }
                return Ok(false);
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // Idle past the reaper timeout (or a drain already shut the
                // socket): close. A client that went quiet this long can
                // reconnect; holding the slot open starves admission.
                if telemetry::is_enabled() && !shutdown.load(Ordering::SeqCst) {
                    telemetry::metric_add("service_idle_reaped_total", 1.0);
                }
                return Ok(false);
            }
            Err(_) if shutdown.load(Ordering::SeqCst) => return Ok(false),
            Err(e) => return Err(e),
        }
    }
}

/// Answer one raw line through the handler. Returns `Ok(true)` iff the
/// line was a valid `shutdown` request (already acknowledged on the
/// stream).
fn answer_line<H: LineHandler>(
    handler: &H,
    stream: &mut TcpStream,
    line_bytes: &[u8],
) -> std::io::Result<bool> {
    let line = String::from_utf8_lossy(line_bytes);
    let line = line.trim_end_matches(['\n', '\r']);
    if line.trim().is_empty() {
        return Ok(false);
    }
    let (resp, wants_shutdown) = handler.answer(line);
    writeln!(stream, "{resp}")?;
    Ok(wants_shutdown)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AdmissionConfig;
    use crate::engine::EngineConfig;
    use std::io::{BufRead, BufReader};

    fn start() -> (SocketAddr, std::thread::JoinHandle<Result<(), String>>) {
        let (addr, handle, _) = start_with(EngineConfig::default(), ServerConfig::default());
        (addr, handle)
    }

    fn start_with(
        engine_cfg: EngineConfig,
        server_cfg: ServerConfig,
    ) -> (
        SocketAddr,
        std::thread::JoinHandle<Result<(), String>>,
        Arc<Engine>,
    ) {
        let engine = Arc::new(Engine::new(engine_cfg).unwrap());
        let server = Server::bind_with(Arc::clone(&engine), "127.0.0.1:0", server_cfg).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.run());
        (addr, handle, engine)
    }

    struct Client {
        stream: TcpStream,
        reader: BufReader<TcpStream>,
    }

    impl Client {
        fn connect(addr: SocketAddr) -> Client {
            let stream = TcpStream::connect(addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(30)))
                .unwrap();
            let reader = BufReader::new(stream.try_clone().unwrap());
            Client { stream, reader }
        }

        fn roundtrip(&mut self, line: &str) -> String {
            writeln!(self.stream, "{line}").unwrap();
            let mut resp = String::new();
            self.reader.read_line(&mut resp).unwrap();
            resp.trim_end().to_string()
        }
    }

    #[test]
    fn serve_ping_analyze_and_clean_shutdown() {
        let (addr, handle) = start();
        let mut c = Client::connect(addr);
        let pong = c.roundtrip(r#"{"id":1,"kind":"ping"}"#);
        assert!(pong.contains("\"pong\":true"), "{pong}");

        let cold =
            c.roundtrip(r#"{"id":2,"kind":"analyze","program":"figure1","ind":["x"],"dep":["f"]}"#);
        assert!(cold.contains("\"cache\":\"miss\""), "{cold}");
        // Warmth is shared across connections: a NEW client hits.
        let mut c2 = Client::connect(addr);
        let warm = c2
            .roundtrip(r#"{"id":3,"kind":"analyze","program":"figure1","ind":["x"],"dep":["f"]}"#);
        assert!(warm.contains("\"cache\":\"hit\""), "{warm}");

        let bye = c2.roundtrip(r#"{"id":4,"kind":"shutdown"}"#);
        assert!(bye.contains("\"stopping\":true"), "{bye}");
        // run() returns: every thread drained — including c, which is
        // still parked in a read with most of its 60 s idle timeout left;
        // only the socket-shutdown drain can release it this fast.
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn malformed_lines_get_errors_and_connection_survives() {
        let (addr, handle) = start();
        let mut c = Client::connect(addr);
        let r = c.roundtrip("{\"id\":1,\"kind\":");
        assert!(
            r.contains("\"code\":\"parse\"") && r.contains("\"id\":0"),
            "{r}"
        );
        let r = c.roundtrip(r#"{"id":2,"kind":"warp"}"#);
        assert!(r.contains("\"code\":\"unknown-kind\""), "{r}");
        // Still alive after both errors.
        let r = c.roundtrip(r#"{"id":3,"kind":"ping"}"#);
        assert!(r.contains("\"pong\":true"), "{r}");
        c.roundtrip(r#"{"id":4,"kind":"shutdown"}"#);
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn oversized_line_is_rejected_and_stream_resyncs() {
        let (addr, handle) = start();
        let mut c = Client::connect(addr);
        // One line just over the cap, then a valid ping on the same
        // connection: the reader must resync at the newline.
        let huge = vec![b'a'; MAX_LINE_BYTES + 2];
        c.stream.write_all(&huge).unwrap();
        c.stream.write_all(b"\n").unwrap();
        let mut resp = String::new();
        c.reader.read_line(&mut resp).unwrap();
        assert!(resp.contains("\"code\":\"too-large\""), "{resp}");
        let r = c.roundtrip(r#"{"id":9,"kind":"ping"}"#);
        assert!(r.contains("\"pong\":true"), "resync failed: {r}");
        c.roundtrip(r#"{"id":10,"kind":"shutdown"}"#);
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn final_line_without_newline_is_answered() {
        let (addr, handle) = start();
        let mut c = Client::connect(addr);
        c.stream.write_all(br#"{"id":1,"kind":"ping"}"#).unwrap();
        c.stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut resp = String::new();
        c.reader.read_line(&mut resp).unwrap();
        assert!(resp.contains("\"pong\":true"), "{resp}");
        // Shut the server down from a second client.
        let mut c2 = Client::connect(addr);
        c2.roundtrip(r#"{"id":2,"kind":"shutdown"}"#);
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn saturated_admission_sheds_with_retry_hint_then_recovers() {
        let (addr, handle, engine) = start_with(
            EngineConfig {
                admission: AdmissionConfig {
                    max_inflight: 1,
                    t1_watermark: 1,
                    t2_watermark: 1,
                    hysteresis: 1,
                    retry_after_ms: 7,
                },
                ..Default::default()
            },
            ServerConfig::default(),
        );
        let mut c = Client::connect(addr);
        // Saturate the ledger deterministically by holding the only permit
        // directly — no racing threads involved.
        let permit = engine.admission().try_admit().unwrap();
        let r =
            c.roundtrip(r#"{"id":1,"kind":"analyze","program":"figure1","ind":["x"],"dep":["f"]}"#);
        assert!(r.contains("\"code\":\"overloaded\""), "{r}");
        assert!(r.contains("\"retry_after_ms\":7"), "{r}");
        // Ping is exempt: liveness keeps answering at full load.
        let r = c.roundtrip(r#"{"id":2,"kind":"ping"}"#);
        assert!(r.contains("\"pong\":true"), "{r}");
        assert_eq!(engine.admission().snapshot().shed_total, 1);
        // Release: the same request is admitted and answers.
        drop(permit);
        let r =
            c.roundtrip(r#"{"id":3,"kind":"analyze","program":"figure1","ind":["x"],"dep":["f"]}"#);
        assert!(r.contains("\"ok\":true"), "{r}");
        c.roundtrip(r#"{"id":4,"kind":"shutdown"}"#);
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn sustained_load_steps_the_tier_floor_up_and_back_down() {
        let (addr, handle, engine) = start_with(
            EngineConfig {
                admission: AdmissionConfig {
                    max_inflight: 8,
                    t1_watermark: 2,
                    t2_watermark: 3,
                    hysteresis: 1,
                    retry_after_ms: 10,
                },
                ..Default::default()
            },
            ServerConfig::default(),
        );
        let mut c = Client::connect(addr);
        // Three held permits put the ladder at T2 (the socket request
        // below admits as the fourth and samples the T2 floor).
        let p1 = engine.admission().try_admit().unwrap();
        let p2 = engine.admission().try_admit().unwrap();
        let p3 = engine.admission().try_admit().unwrap();
        let degraded =
            c.roundtrip(r#"{"id":1,"kind":"analyze","program":"figure1","ind":["x"],"dep":["f"]}"#);
        assert!(degraded.contains("\"tier\":\"T2\""), "{degraded}");
        assert!(
            degraded.contains("\"cache\":\"bypass\""),
            "degraded answers are never cached: {degraded}"
        );
        // Drain steps back down one rung at a time: T2 -> T1 -> T0.
        drop(p3);
        assert_eq!(
            engine.admission().tier_floor(),
            mpi_dfa_analyses::governor::Tier::T1
        );
        drop(p2);
        assert_eq!(
            engine.admission().tier_floor(),
            mpi_dfa_analyses::governor::Tier::T0
        );
        drop(p1);
        // And the precise answer is computed fresh (the degraded one was
        // not cached); one in-flight request stays below the T1 watermark.
        let precise =
            c.roundtrip(r#"{"id":2,"kind":"analyze","program":"figure1","ind":["x"],"dep":["f"]}"#);
        assert!(precise.contains("\"tier\":\"T0\""), "{precise}");
        c.roundtrip(r#"{"id":3,"kind":"shutdown"}"#);
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn connection_cap_answers_one_overloaded_line_and_closes() {
        let (addr, handle, _engine) = start_with(
            EngineConfig::default(),
            ServerConfig {
                max_connections: 1,
                ..Default::default()
            },
        );
        let mut c1 = Client::connect(addr);
        // Ensure c1 is fully registered before racing a second connect.
        assert!(c1.roundtrip(r#"{"id":1,"kind":"ping"}"#).contains("pong"));
        let mut c2 = Client::connect(addr);
        let mut line = String::new();
        c2.reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"code\":\"overloaded\""), "{line}");
        assert!(line.contains("retry_after_ms"), "{line}");
        // The rejected socket is closed (EOF on the next read)…
        let mut rest = String::new();
        assert_eq!(c2.reader.read_line(&mut rest).unwrap(), 0, "{rest:?}");
        // …while the admitted one keeps serving.
        assert!(c1.roundtrip(r#"{"id":2,"kind":"ping"}"#).contains("pong"));
        c1.roundtrip(r#"{"id":3,"kind":"shutdown"}"#);
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn idle_connections_are_reaped() {
        let (addr, handle, _engine) = start_with(
            EngineConfig::default(),
            ServerConfig {
                idle_timeout: Duration::from_millis(100),
                ..Default::default()
            },
        );
        let mut c = Client::connect(addr);
        assert!(c.roundtrip(r#"{"id":1,"kind":"ping"}"#).contains("pong"));
        // Send nothing: the server closes our socket after ~100 ms.
        let mut line = String::new();
        assert_eq!(
            c.reader.read_line(&mut line).unwrap(),
            0,
            "idle connection must be reaped: {line:?}"
        );
        // The server itself is fine.
        let mut c2 = Client::connect(addr);
        assert!(c2.roundtrip(r#"{"id":2,"kind":"ping"}"#).contains("pong"));
        c2.roundtrip(r#"{"id":3,"kind":"shutdown"}"#);
        handle.join().unwrap().unwrap();
    }
}
