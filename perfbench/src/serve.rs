//! `serve-mixed`: `mpidfa serve --shards 1` (router plus one worker
//! process) on a fresh `--cache-dir`, driven closed-loop by one client in
//! this process, which sends its next request when the last answer
//! arrived.
//!
//! The client draws a seeded request stream: 70% repeats of the primed
//! read set (`table1-row`, `analyze`, `activity-at-location` on the
//! bundled programs; must answer `hit`), 20% `analyze` of a freshly
//! generated clone-0 program (a miss and an insert), 10% `analyze-delta`
//! editing one procedure of the last write. The proportions are an
//! assumption, not a measured traffic mix (README.md). Under the default
//! round-robin solver a worker keeps no seeds, so every delta is answered
//! by the delta verb's fallback, a full solve.
//!
//! The client runs in windows of [`WINDOW_S`], each on a fresh
//! connection; between windows it pauses while this process times the
//! speed kernel (see [`speed`]). After the measured loop every response is
//! checked byte-for-byte against an in-process [`Engine`] fed the same
//! requests in the same order; that replay also yields the engine-side
//! per-layer timings.

use crate::harness::{end_to_end, metric, repeat_setup, Cfg, Report, Window, Work, WINDOW_S};
use crate::speed;
use crate::stats::{self, median};
use crate::trace::Tracer;
use mpi_dfa_core::hash::{fnv128, Hasher128};
use mpi_dfa_lang::rng::SplitMix64;
use mpi_dfa_service::json::{self, escape, Json};
use mpi_dfa_service::proto::parse_request;
use mpi_dfa_service::{Engine, EngineConfig};
use mpi_dfa_suite::experiments::all;
use mpi_dfa_suite::gen::{generate, GenConfig};
use std::io::{BufRead, BufReader, Write as _};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Size of the freshly generated programs behind write requests.
const WRITE_SCALE: usize = 2;
/// Percent of requests that are reads and writes; the rest are deltas.
const READ_PCT: usize = 70;
const WRITE_PCT: usize = 20;
/// The line the generator opens every procedure body with; deltas insert
/// one statement after it in `f0`.
const F0_HEADER: &str = "sub f0() {\n  var i: int;\n  var t: real;\n";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Read,
    Write,
    Delta,
}

fn list(items: &[&str]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| format!("\"{}\"", escape(s))).collect();
    format!("[{}]", quoted.join(","))
}

/// The read set: request bodies (everything but `id`) primed before the
/// measured loop, so every later repeat is a cache hit.
fn read_bodies() -> Vec<String> {
    let mut out = Vec::new();
    for spec in all() {
        let common = format!(
            "\"program\":\"{}\",\"context\":\"{}\",\"clone\":{},\"ind\":{},\"dep\":{}",
            spec.program,
            spec.context,
            spec.clone_level,
            list(spec.independents),
            list(spec.dependents)
        );
        out.push(format!("\"kind\":\"table1-row\",\"row\":\"{}\"", spec.id));
        out.push(format!("\"kind\":\"analyze\",{common}"));
        out.push(format!(
            "\"kind\":\"activity-at-location\",{common},\"var\":\"{}\"",
            spec.independents[0]
        ));
    }
    out
}

fn line(id: u64, body: &str) -> String {
    format!("{{\"id\":{id},{body}}}")
}

/// The client's seeded request stream.
struct Stream {
    rng: SplitMix64,
    seed: u64,
    reads: Vec<String>,
    next_id: u64,
    writes: u64,
    /// The last write: (request id, source).
    last_write: Option<(u64, String)>,
}

impl Stream {
    fn new(seed: u64) -> Stream {
        Stream {
            rng: SplitMix64::fork(seed, 1000),
            seed,
            reads: read_bodies(),
            // Above the primes' ids.
            next_id: 1 << 32,
            writes: 0,
            last_write: None,
        }
    }

    fn write_source(&mut self) -> String {
        let gen_seed = Hasher128::new()
            .write_u64(self.seed)
            .write_u64(self.writes)
            .finish() as u64;
        self.writes += 1;
        generate(gen_seed, &GenConfig::scaled(WRITE_SCALE))
    }

    fn next_request(&mut self) -> (Class, String) {
        let id = self.next_id;
        self.next_id += 1;
        let roll = self.rng.range(0, 100);
        if roll < READ_PCT {
            let body = &self.reads[self.rng.range(0, self.reads.len())];
            return (Class::Read, line(id, body));
        }
        let analysis = "\"ind\":[\"s0\"],\"dep\":[\"s1\"]";
        if let (false, Some((prev, src))) = (roll < READ_PCT + WRITE_PCT, &self.last_write) {
            // A fresh constant per delta keeps every delta a distinct request.
            let k = self.next_id;
            let edited = src.replacen(F0_HEADER, &format!("{F0_HEADER}  s0 = s0 + {k}.5;\n"), 1);
            assert_ne!(
                &edited, src,
                "generated programs open f0 with the expected header"
            );
            let body = format!(
                "\"kind\":\"analyze-delta\",\"source\":\"{}\",\"prev\":{prev},{analysis}",
                escape(&edited)
            );
            return (Class::Delta, line(id, &body));
        }
        let src = self.write_source();
        let body = format!(
            "\"kind\":\"analyze\",\"source\":\"{}\",{analysis}",
            escape(&src)
        );
        self.last_write = Some((id, src));
        (Class::Write, line(id, &body))
    }
}

/// What is kept of one response: its id, success, cache label and a hash
/// of the `result` payload.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Resp {
    id: u64,
    ok: bool,
    cache: String,
    result: u128,
}

/// Split a response line rendered as
/// `{"id":N,"ok":true,"kind":K,"cache":C,"result":R}`.
fn summarize(resp: &str) -> Resp {
    let field = |key: &str| -> Option<&str> {
        let start = resp.find(key)? + key.len();
        let len = resp[start..].find(['"', ','])?;
        Some(&resp[start..start + len])
    };
    let id = field("\"id\":").and_then(|s| s.parse().ok()).unwrap_or(0);
    let ok = resp.contains("\"ok\":true");
    let result = match resp.find("\"result\":") {
        Some(p) if ok => fnv128(&resp.as_bytes()[p + 9..resp.len().saturating_sub(1)]),
        _ => fnv128(resp.as_bytes()),
    };
    Resp {
        id,
        ok,
        cache: field("\"cache\":\"").unwrap_or("").to_string(),
        result,
    }
}

/// A JSONL connection to the daemon.
struct Conn {
    w: TcpStream,
    r: BufReader<TcpStream>,
    buf: String,
}

impl Conn {
    fn open(addr: &str) -> std::io::Result<Conn> {
        let w = TcpStream::connect(addr)?;
        w.set_nodelay(true)?;
        w.set_read_timeout(Some(Duration::from_secs(60)))?;
        let r = BufReader::new(w.try_clone()?);
        Ok(Conn {
            w,
            r,
            buf: String::new(),
        })
    }

    /// Send one request line and read its response line.
    fn call(&mut self, line: &str) -> std::io::Result<&str> {
        self.w.write_all(line.as_bytes())?;
        self.w.write_all(b"\n")?;
        self.buf.clear();
        if self.r.read_line(&mut self.buf)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        Ok(self.buf.trim_end())
    }

    fn json(&mut self, line: &str) -> Result<Json, String> {
        let resp = self.call(line).map_err(|e| e.to_string())?;
        json::parse(resp).map_err(|e| format!("{e}: {resp}"))
    }
}

/// A running `mpidfa serve --shards 1`.
struct Daemon {
    child: Child,
    addr: String,
    worker: u32,
    dir: PathBuf,
    drain: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    /// Spawn the router, wait for its banner, then until its worker
    /// answers through it.
    fn start(mpidfa: &Path, dir: &Path) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut child = Command::new(mpidfa)
            .args([
                "serve",
                "--shards",
                "1",
                "--addr",
                "127.0.0.1:0",
                "--cache-dir",
            ])
            .arg(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("{}: {e}", mpidfa.display()))?;
        let mut out = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut banner = String::new();
        let addr = match out.read_line(&mut banner) {
            Ok(n) if n > 0 => banner
                .trim()
                .strip_prefix("listening on ")
                .map(String::from),
            _ => None,
        };
        // Keep draining stdout so the router can never block on it.
        let drain = std::thread::spawn(move || {
            let _ = std::io::copy(&mut out, &mut std::io::sink());
        });
        let mut d = Daemon {
            child,
            addr: addr.unwrap_or_default(),
            worker: 0,
            dir: dir.to_path_buf(),
            drain: Some(drain),
        };
        if d.addr.is_empty() {
            d.stop();
            return Err(format!("no `listening on` banner, got {banner:?}"));
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if d.healthy() {
                break;
            }
            if Instant::now() > deadline {
                d.stop();
                return Err("the worker never became healthy".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        d.worker = stats::children(d.child.id()).first().copied().unwrap_or(0);
        Ok(d)
    }

    fn healthy(&self) -> bool {
        let Ok(mut c) = Conn::open(&self.addr) else {
            return false;
        };
        let Ok(stats) = c.json("{\"id\":0,\"kind\":\"cache-stats\"}") else {
            return false;
        };
        let worker_up = stats
            .get("result")
            .and_then(|r| r.get("workers"))
            .and_then(|w| {
                w.as_array()
                    .map(|a| a.first().is_some_and(|x| x.get("caches").is_some()))
            });
        worker_up == Some(true)
    }

    fn pids(&self) -> [u32; 2] {
        [self.child.id(), self.worker]
    }

    /// Shut the daemon down and wait until router and worker have ended.
    /// Idempotent; also runs on drop.
    fn stop(&mut self) {
        if self.drain.is_none() {
            return;
        }
        if let Ok(mut c) = Conn::open(&self.addr) {
            let _ = c.call("{\"id\":0,\"kind\":\"shutdown\"}");
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while !matches!(self.child.try_wait(), Ok(Some(_))) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        // The worker exits when the router's end of its stdin closes.
        let worker_gone = |secs: u64| {
            let deadline = Instant::now() + Duration::from_secs(secs);
            while stats::alive(self.worker) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(10));
            }
        };
        if self.worker != 0 {
            worker_gone(5);
            if stats::alive(self.worker) {
                let _ = Command::new("kill")
                    .args(["-KILL", &self.worker.to_string()])
                    .status();
                worker_gone(5);
            }
        }
        if let Some(h) = self.drain.take() {
            let _ = h.join();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }

    /// Send the read set once (ids 1..), so later repeats hit.
    fn prime(&self) -> Result<Vec<(String, Resp)>, String> {
        let mut c = Conn::open(&self.addr).map_err(|e| e.to_string())?;
        let mut out = Vec::new();
        for (k, body) in read_bodies().iter().enumerate() {
            let l = line(k as u64 + 1, body);
            let resp = summarize(c.call(&l).map_err(|e| e.to_string())?);
            if !resp.ok {
                return Err(format!("priming request {l} failed"));
            }
            out.push((l, resp));
        }
        Ok(out)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One logged request of the measured loop; `resp` is `None` if the
/// request failed (connection error or read timeout).
struct Entry {
    class: Class,
    line: String,
    rtt_ms: f64,
    traced: bool,
    resp: Option<Resp>,
}

/// The closed loop, kept across windows. With tracing, every other request
/// runs inside a span, so the tracing overhead is measured on the same
/// mix.
struct Client {
    addr: String,
    conn: Option<Conn>,
    stream: Stream,
    tracer: Tracer,
    log: Vec<Entry>,
    errors: Vec<String>,
}

impl Client {
    fn new(cfg: &Cfg, addr: &str) -> Client {
        Client {
            addr: addr.to_string(),
            conn: None,
            stream: Stream::new(cfg.seed),
            tracer: Tracer::default(),
            log: Vec::new(),
            errors: Vec::new(),
        }
    }

    /// Send one request, reconnecting first if the last one failed.
    fn call(&mut self, line: &str, traced: bool) -> std::io::Result<Resp> {
        if self.conn.is_none() {
            self.conn = Some(Conn::open(&self.addr)?);
        }
        let c = self.conn.as_mut().expect("connected above");
        if traced {
            let op = self.log.len() as u32;
            self.tracer
                .op(op, |t| {
                    t.span("service.net.roundtrip", |_| c.call(line).map(summarize))
                })
                .0
        } else {
            c.call(line).map(summarize)
        }
    }

    /// Run until `until`, or until `max` requests are logged, on a fresh
    /// connection. A failed request is logged as such and the loop goes on.
    fn run(&mut self, cfg: &Cfg, until: Instant, max: Option<u64>) {
        // The router serves each connection on a thread of its own; a new
        // one per window keeps one thread placement from lasting the run.
        self.conn = Conn::open(&self.addr).ok();
        while match max {
            Some(m) => (self.log.len() as u64) < m,
            None => Instant::now() < until,
        } && Instant::now() < until
        {
            let (class, line) = self.stream.next_request();
            let traced = cfg.trace && self.log.len() % 2 == 1;
            let t0 = Instant::now();
            let resp = self.call(&line, traced);
            let rtt_ms = t0.elapsed().as_secs_f64() * 1e3;
            let resp = resp
                .map_err(|e| {
                    self.conn = None;
                    note(&mut self.errors, format!("request failed: {e}"));
                })
                .ok();
            self.log.push(Entry {
                class,
                line,
                rtt_ms,
                traced,
                resp,
            });
        }
    }

    fn done(&self, max: Option<u64>, deadline: Instant) -> bool {
        match max {
            Some(m) => self.log.len() as u64 >= m,
            None => Instant::now() >= deadline,
        }
    }
}

/// Keep the first few failure messages.
fn note(errors: &mut Vec<String>, msg: String) {
    if errors.len() < 8 {
        errors.push(msg);
    }
}

/// p50 of a Prometheus latency series from the `metrics` verb text.
fn prom_p50(text: &str, metric: &str, verb: &str, cache: &str) -> f64 {
    let head = format!("{metric}{{verb=\"{verb}\",cache=\"{cache}\",shard=\"");
    text.lines()
        .filter(|l| l.starts_with(&head) && !l.contains("shard=\"all\""))
        .filter(|l| l.contains("quantile=\"0.5\"}"))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .next()
        .unwrap_or(0.0)
}

/// (hits, misses) of one worker cache layer in a cluster `cache-stats`.
fn layer_counts(stats: &Json, layer: &str) -> (f64, f64) {
    let l = stats
        .get("result")
        .and_then(|r| r.get("workers"))
        .and_then(|w| w.as_array()?.first())
        .and_then(|w| w.get("caches")?.get(layer));
    let get = |k: &str| l.and_then(|l| l.get(k)?.as_u64()).unwrap_or(0) as f64;
    (get("hits"), get("misses"))
}

fn shed_total(stats: &Json) -> f64 {
    stats
        .get("result")
        .and_then(|r| r.get("workers"))
        .and_then(|w| w.as_array()?.first())
        .and_then(|w| w.get("admission")?.get("shed_total")?.as_u64())
        .unwrap_or(0) as f64
}

/// Run `serve-mixed`.
pub fn run(cfg: &Cfg) -> Result<Report, String> {
    let mpidfa = cfg
        .mpidfa
        .clone()
        .ok_or("serve-mixed needs --mpidfa <binary>")?;
    // Set up (start, wait healthy, prime) several times; every daemon but
    // the last is stopped (on drop) before the next starts.
    let ((daemon, primes), setups) = repeat_setup(|rep| {
        let d = Daemon::start(&mpidfa, &cfg.scratch.join(format!("serve-cache-{rep}")))?;
        let primes = d.prime()?;
        Ok((d, primes))
    })?;
    measure(cfg, &daemon, &setups, primes)
}

fn measure(
    cfg: &Cfg,
    daemon: &Daemon,
    setups: &[f64],
    primes: Vec<(String, Resp)>,
) -> Result<Report, String> {
    let mut ctl = Conn::open(&daemon.addr).map_err(|e| e.to_string())?;
    let stats0 = ctl.json("{\"id\":0,\"kind\":\"cache-stats\"}")?;
    let cpu = |pids: [u32; 2]| -> f64 {
        pids.iter()
            .filter_map(|&p| stats::cpu_seconds(Some(p)))
            .sum()
    };
    let mut client = Client::new(cfg, &daemon.addr);
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    let mut windows = Vec::new();
    let mut before = speed::block(speed::BLOCK);
    while !client.done(cfg.max_ops, deadline) {
        let mut until = Instant::now() + Duration::from_secs_f64(WINDOW_S);
        if cfg.max_ops.is_none() {
            until = until.min(deadline);
        }
        let first = client.log.len();
        let (t0, cpu0) = (Instant::now(), cpu(daemon.pids()));
        client.run(cfg, until, cfg.max_ops);
        let (wall_s, cpu_s) = (t0.elapsed().as_secs_f64(), cpu(daemon.pids()) - cpu0);
        // The client is idle now, so the kernel does not compete with the
        // daemon.
        let after = speed::block(speed::BLOCK);
        let op_ms = client.log[first..]
            .iter()
            .filter(|e| !e.traced && e.resp.is_some())
            .map(|e| e.rtt_ms)
            .collect();
        windows.push(Window {
            op_ms,
            wall_s,
            cpu_s,
            factor: speed::factor(&[before, after.clone()].concat()),
        });
        before = after;
    }
    let peak: f64 = daemon
        .pids()
        .iter()
        .filter_map(|&p| stats::peak_rss_mb(Some(p)))
        .sum();
    let mut errors = client.errors;
    let log = client.log;

    let (stats1, prom) = if cfg.trace {
        // Worker histograms reach the router on a ~150 ms flush.
        std::thread::sleep(Duration::from_millis(600));
        let stats1 = ctl.json("{\"id\":0,\"kind\":\"cache-stats\"}")?;
        let m = ctl.json("{\"id\":0,\"kind\":\"metrics\"}")?;
        let prom = m
            .get("result")
            .and_then(|r| r.get("prometheus")?.as_str().map(String::from))
            .unwrap_or_default();
        (stats1, prom)
    } else {
        (stats0.clone(), String::new())
    };

    // Replay every request in order through an in-process engine and
    // compare results byte-for-byte (hashes of the `result` payload).
    // The replay is `Engine::handle_line` split at its two public halves,
    // `proto::parse_request` and `Engine::handle`, one span each.
    let engine = Engine::new(EngineConfig::default())?;
    let mut tracer = Tracer::default();
    let mut proto_us = Vec::new();
    let mut replay = |line: &str| -> (Resp, f64) {
        let op = tracer.spans.len() as u32;
        let (resp, _) = tracer.op(op, |t| {
            let req = t.span("service.proto", |_| parse_request(line));
            t.span("service.engine", |_| match req {
                Ok(req) => engine.handle(&req),
                Err(_) => engine.handle_line(line),
            })
        });
        let n = tracer.spans.len();
        proto_us.push(tracer.spans[n - 2].dur_ns() as f64 / 1e3);
        (summarize(&resp), tracer.spans[n - 1].dur_ns() as f64 / 1e6)
    };
    // A primed answer that differs is a set-up error: it fails the run
    // but is not one of the measured requests.
    for (l, r) in &primes {
        if replay(l).0.result != r.result {
            note(
                &mut errors,
                format!("set-up: primed answer differs in-process: {l:.120}"),
            );
        }
    }
    let mut failed = 0u64;
    let mut engine_ms: [Vec<f64>; 3] = Default::default();
    let mut partial = 0u64;
    for e in &log {
        let (mine, ms) = replay(&e.line);
        let slot = match e.class {
            Class::Read => 0,
            Class::Write => 1,
            Class::Delta => 2,
        };
        engine_ms[slot].push(ms);
        let Some(resp) = &e.resp else {
            // The client logged why.
            failed += 1;
            continue;
        };
        let label_ok = match e.class {
            Class::Read => resp.cache == "hit",
            Class::Write => resp.cache == "miss",
            Class::Delta => resp.cache == "miss" || resp.cache == "partial",
        };
        partial += u64::from(resp.cache == "partial");
        let id_ok = e.line.starts_with(&format!("{{\"id\":{},", resp.id));
        if !(resp.ok && mine.ok && label_ok && id_ok && mine.result == resp.result) {
            failed += 1;
            note(
                &mut errors,
                format!(
                    "{:?} request id {} answered ok={} cache={} (in-process ok={}, same result: {})",
                    e.class,
                    resp.id,
                    resp.ok,
                    resp.cache,
                    mine.ok,
                    mine.result == resp.result
                ),
            );
        }
    }
    let mut digest = Hasher128::new();
    for e in &log {
        let (id, result) = e.resp.as_ref().map_or((0, 0), |r| (r.id, r.result));
        digest
            .write_u64(id)
            .write_u64(result as u64)
            .write_u64((result >> 64) as u64);
    }

    let answered = |traced: bool| -> Vec<f64> {
        log.iter()
            .filter(|e| e.traced == traced && e.resp.is_some())
            .map(|e| e.rtt_ms)
            .collect()
    };
    let rtt = answered(false);
    let attempted = log.len() as u64;
    let metrics = if cfg.trace {
        let traced = answered(true);
        let client_p50 = |class: Class, kind: &str| {
            let v: Vec<f64> = log
                .iter()
                .filter(|e| !e.traced && e.resp.is_some())
                .filter(|e| e.class == class && e.line.contains(kind))
                .map(|e| e.rtt_ms * 1e3)
                .collect();
            median(&v)
        };
        let ratio = |layer: &str| {
            let (h0, m0) = layer_counts(&stats0, layer);
            let (h1, m1) = layer_counts(&stats1, layer);
            let (h, m) = (h1 - h0, m1 - m0);
            if h + m > 0.0 {
                h / (h + m)
            } else {
                0.0
            }
        };
        let deltas = log
            .iter()
            .filter(|e| e.class == Class::Delta)
            .count()
            .max(1) as f64;
        let e2e = |verb: &str, cache: &str| {
            prom_p50(&prom, mpi_dfa_service::slo::E2E_METRIC, verb, cache)
        };
        let worker =
            |verb: &str, cache: &str| prom_p50(&prom, mpi_dfa_service::slo::METRIC, verb, cache);
        let hit_client = client_p50(Class::Read, "\"kind\":\"analyze\"");
        let miss_engine: f64 = median(&engine_ms[1]) * 1e3;
        let all_engine: Vec<f64> = engine_ms.iter().flatten().copied().collect();
        vec![
            metric("service.proto.us_per_req", stats::mean(&proto_us), "us"),
            metric("service.engine.hit_us", median(&engine_ms[0]) * 1e3, "us"),
            metric("service.engine.miss_ms", median(&engine_ms[1]), "ms"),
            metric("service.engine.delta_ms", median(&engine_ms[2]), "ms"),
            metric("service.cache.result_hit_ratio", ratio("result"), "ratio"),
            metric("service.cache.ir_hit_ratio", ratio("ir"), "ratio"),
            metric("service.cache.proccfg_hit_ratio", ratio("proccfg"), "ratio"),
            metric(
                "service.admission.shed",
                shed_total(&stats1) - shed_total(&stats0),
                "count",
            ),
            metric(
                "service.delta.partial_ratio",
                partial as f64 / deltas,
                "ratio",
            ),
            metric(
                "service.router.hop_us",
                e2e("analyze", "hit") - worker("analyze", "hit"),
                "us",
            ),
            metric(
                "service.net.client_overhead_us",
                hit_client - e2e("analyze", "hit"),
                "us",
            ),
            metric(
                "service.miss.client_us",
                client_p50(Class::Write, "\"kind\":\"analyze\""),
                "us",
            ),
            metric("service.miss.router_us", e2e("analyze", "miss"), "us"),
            metric("service.miss.worker_us", worker("analyze", "miss"), "us"),
            metric("service.miss.engine_us", miss_engine, "us"),
            metric(
                "trace.overhead_pct",
                100.0 * (median(&traced) - median(&rtt)) / median(&rtt),
                "%",
            ),
            metric(
                "trace.accounted_pct",
                100.0 * median(&all_engine) / median(&rtt),
                "%",
            ),
        ]
    } else {
        end_to_end(setups, &windows, peak, attempted, failed)
    };
    Ok(Report {
        attempted,
        failed,
        errors,
        digest: digest.finish(),
        work: Work::default(),
        metrics,
        spans: tracer.spans,
    })
}
