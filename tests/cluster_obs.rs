//! Acceptance tests for cluster-wide observability: trace-context
//! propagation through the hedging router, the `@tele` worker telemetry
//! stream, the access log, and the merged cluster `metrics` scrape —
//! against REAL `mpidfa serve` worker processes, including a SIGKILL of
//! the owner shard mid-request.

use mpi_dfa_service::{
    AccessRecord, BackoffConfig, Cluster, ClusterConfig, HealthConfig, TelemetryHub, WorkerSpec,
};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn rpc(addr: SocketAddr, line: &str) -> String {
    let stream = TcpStream::connect(addr).expect("connect to router");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    writeln!(&stream, "{line}").expect("write request");
    let mut resp = String::new();
    reader.read_line(&mut resp).expect("read response (hang?)");
    resp.trim_end().to_string()
}

/// Start a cluster of real worker processes with `--telemetry-stream
/// spans` (what the CLI cluster spawner appends when the router spools
/// spans) wired into a fresh [`TelemetryHub`] spooling under `log_dir`,
/// keeping spans in memory when `keep_spans`.
fn start_obs_cluster(
    shards: usize,
    cache_dir: &std::path::Path,
    log_dir: &std::path::Path,
    keep_spans: bool,
) -> (Cluster, Arc<TelemetryHub>) {
    let mut worker = WorkerSpec::new(
        env!("CARGO_BIN_EXE_mpidfa"),
        vec![
            "serve".into(),
            "--cache-dir".into(),
            cache_dir.to_string_lossy().into_owned(),
            "--max-inflight".into(),
            "8".into(),
            "--telemetry-stream".into(),
            "spans".into(),
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
    let hub = TelemetryHub::new(Some(log_dir), keep_spans).expect("hub");
    let cluster = Cluster::start_with_hub(
        ClusterConfig::new(shards, worker),
        "127.0.0.1:0",
        Some(Arc::clone(&hub)),
    )
    .expect("cluster start");
    (cluster, hub)
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mpidfa-obs-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn parse_access(line: &str) -> AccessRecord {
    let v = mpi_dfa_core::json::parse(line).expect("access line parses");
    AccessRecord::parse(&v).expect("access record shape")
}

/// Acceptance: a client-minted trace id survives the hedging router even
/// when the owner shard is SIGKILLed mid-request — the retried/hedged
/// attempts reuse the same trace with a bumped attempt counter, and the
/// access log gets EXACTLY one line for the request, carrying that id.
#[test]
fn trace_id_survives_hedged_retry_with_one_access_line() {
    let cache = tmp_dir("hedge-cache");
    let logs = tmp_dir("hedge-logs");
    let (cluster, hub) = start_obs_cluster(3, &cache, &logs, false);
    let addr = cluster.local_addr().unwrap();
    let supervisor = cluster.supervisor();
    let router = cluster.router();
    let serve = std::thread::spawn(move || cluster.run());

    let trace_hex = "00000000000000000000cafe00001337";
    let line = format!(
        "{{\"id\":1,\"kind\":\"analyze\",\"program\":\"figure1\",\"ind\":[\"x\"],\"dep\":[\"f\"],\
         \"trace\":{{\"id\":\"{trace_hex}\",\"parent\":7,\"attempt\":0}}}}"
    );
    let owner = router.shard_for_line(&line).expect("owner shard");

    // SIGKILL the owner, then fire the traced request immediately: the
    // shard table still lists the dead incarnation as alive for one
    // monitor tick, so attempt 1 deterministically hits a dead worker and
    // the router must retry/hedge — reusing the client's trace id with a
    // bumped attempt counter. Whatever answers (a hedged sibling, the
    // restarted owner, or a structured shed), the trace id must appear in
    // exactly one access-log line.
    assert!(supervisor.kill_shard(owner), "kill_shard({owner})");
    let resp = rpc(addr, &line);
    assert!(
        resp.contains("\"ok\":true") || resp.contains("\"code\":\"overloaded\""),
        "unstructured response under kill: {resp}"
    );
    // Responses stay trace-free: determinism (hit ≡ recompute, routed ≡
    // direct) forbids request-varying fields in the payload.
    assert!(
        !resp.contains("trace"),
        "response leaked trace context: {resp}"
    );

    let access = hub.access_lines();
    let with_trace: Vec<&String> = access.iter().filter(|l| l.contains(trace_hex)).collect();
    assert_eq!(
        with_trace.len(),
        1,
        "expected exactly one access line for trace {trace_hex}, got {access:?}"
    );
    let rec = parse_access(with_trace[0]);
    assert_eq!(rec.trace, 0x0000_cafe_0000_1337u128);
    assert_eq!(rec.verb, "analyze");
    assert!(
        rec.attempts >= 2,
        "attempt 1 hit a SIGKILLed worker, so a retry/hedge must be recorded: {rec:?}"
    );
    if resp.contains("\"ok\":true") {
        assert!(rec.shard.is_some(), "ok response with no answering shard");
    }

    // The access spool on disk carries the same single line.
    let spooled = std::fs::read_to_string(logs.join("access.jsonl")).expect("access.jsonl");
    assert_eq!(
        spooled.lines().filter(|l| l.contains(trace_hex)).count(),
        1,
        "access spool diverged from memory: {spooled}"
    );

    assert!(
        supervisor.wait_all_healthy(Duration::from_secs(15)),
        "fleet did not recover"
    );
    let _ = rpc(addr, "{\"id\":9,\"kind\":\"shutdown\"}");
    serve.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&cache);
    let _ = std::fs::remove_dir_all(&logs);
}

/// Acceptance: the worker telemetry stream reaches the hub — after a few
/// requests the merged trace holds spans from at least one worker process
/// under the client's trace id, stamped with the worker's merged-trace
/// pid (shard + 1) and incarnation epoch, and the span spool supports
/// offline `mpidfa trace` reconstruction.
#[test]
fn worker_spans_reach_the_hub_under_the_client_trace_id() {
    let cache = tmp_dir("spans-cache");
    let logs = tmp_dir("spans-logs");
    let (cluster, hub) = start_obs_cluster(3, &cache, &logs, true);
    let addr = cluster.local_addr().unwrap();
    let serve = std::thread::spawn(move || cluster.run());

    let trace_hex = "0000000000000000000000000000beef";
    let line = format!(
        "{{\"id\":2,\"kind\":\"analyze\",\"program\":\"figure1\",\"ind\":[\"x\"],\"dep\":[\"f\"],\
         \"trace\":{{\"id\":\"{trace_hex}\",\"parent\":41,\"attempt\":0}}}}"
    );
    let resp = rpc(addr, &line);
    assert!(resp.contains("\"ok\":true"), "analyze failed: {resp}");

    // Worker flushers run on a 150 ms cadence; poll the hub until the
    // request's spans arrive (bounded — a silent stream is a failure).
    let deadline = Instant::now() + Duration::from_secs(10);
    let spans = loop {
        let spans: Vec<_> = hub
            .spans()
            .into_iter()
            .filter(|s| s.trace == Some(0xbeefu128))
            .collect();
        if spans.iter().any(|s| s.pid >= 1 && s.name == "request") {
            break spans;
        }
        assert!(
            Instant::now() < deadline,
            "worker spans never reached the hub; got {spans:?}"
        );
        std::thread::sleep(Duration::from_millis(100));
    };
    let worker_pid = spans.iter().find(|s| s.pid >= 1).unwrap().pid;
    let epoch = spans.iter().find(|s| s.pid == worker_pid).unwrap().epoch;
    assert!(
        (1..=3).contains(&worker_pid),
        "worker pid out of range: {worker_pid}"
    );
    assert!(epoch >= 1, "worker epoch not stamped");
    // The worker's outermost span carries the cross-process parent link
    // back to the router's route span.
    let request = spans
        .iter()
        .find(|s| s.pid == worker_pid && s.name == "request")
        .unwrap();
    assert!(
        request.remote_parent().is_some(),
        "worker request span lost its remote parent: {request:?}"
    );

    // Offline reconstruction from the spool names both processes.
    let spool = std::fs::read_to_string(logs.join("spans.jsonl")).expect("spans.jsonl");
    let access = std::fs::read_to_string(logs.join("access.jsonl")).unwrap_or_default();
    let report =
        mpi_dfa_service::obs::reconstruct_trace(&spool, &access, 0xbeefu128).expect("reconstruct");
    assert!(
        report.contains(&format!("shard {}/e{epoch}", worker_pid - 1)),
        "reconstruction lost the worker process: {report}"
    );

    let _ = rpc(addr, "{\"id\":9,\"kind\":\"shutdown\"}");
    serve.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&cache);
    let _ = std::fs::remove_dir_all(&logs);
}

/// Acceptance: one `metrics` scrape against the router returns the
/// cluster-wide merge — router counters (sink on or off), worker
/// counters, the access-line total, and per-verb SLO histogram quantiles.
#[test]
fn metrics_verb_returns_cluster_wide_merge() {
    let cache = tmp_dir("metrics-cache");
    let logs = tmp_dir("metrics-logs");
    let (cluster, hub) = start_obs_cluster(3, &cache, &logs, false);
    let addr = cluster.local_addr().unwrap();
    let serve = std::thread::spawn(move || cluster.run());

    let line = r#"{"id":3,"kind":"analyze","program":"figure1","ind":["x"],"dep":["f"]}"#;
    for _ in 0..3 {
        let resp = rpc(addr, line);
        assert!(resp.contains("\"ok\":true"), "analyze failed: {resp}");
    }
    // Let at least one worker flush its cumulative counters.
    let deadline = Instant::now() + Duration::from_secs(10);
    let scrape = loop {
        let resp = rpc(addr, "{\"id\":4,\"kind\":\"metrics\"}");
        assert!(resp.contains("\"ok\":true"), "metrics verb failed: {resp}");
        assert!(
            resp.contains("\"cluster\":{\"shards\":3}"),
            "bad envelope: {resp}"
        );
        let v = mpi_dfa_core::json::parse(&resp).expect("metrics response parses");
        let prom = v
            .get("result")
            .and_then(|r| r.get("prometheus"))
            .and_then(|p| p.as_str())
            .expect("prometheus text in result")
            .to_string();
        if prom.contains("solver_passes_total") {
            break prom;
        }
        assert!(
            Instant::now() < deadline,
            "worker counters never reached the scrape:\n{prom}"
        );
        std::thread::sleep(Duration::from_millis(100));
    };
    for needle in [
        // Router-side counters and end-to-end histograms are exact and
        // immediate (3 analyze requests; the `metrics` scrapes themselves
        // are control verbs and never counted).
        "router_requests_total 3",
        "access_log_lines_total 3",
        "mpidfa_request_e2e_latency_us{verb=\"analyze\",cache=\"all\",shard=\"all\",quantile=\"0.5\"}",
        "mpidfa_request_e2e_latency_us_count{verb=\"analyze\",cache=\"all\",shard=\"all\"} 3",
        // Worker-side histograms arrive with the telemetry stream (the
        // poll above waited for a worker flush).
        "mpidfa_request_latency_us{verb=\"analyze\",cache=\"all\",shard=\"all\",quantile=\"0.5\"}",
    ] {
        assert!(scrape.contains(needle), "scrape missing `{needle}`:\n{scrape}");
    }
    drop(hub);

    let _ = rpc(addr, "{\"id\":9,\"kind\":\"shutdown\"}");
    serve.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&cache);
    let _ = std::fs::remove_dir_all(&logs);
}

/// Without an exporter the router's hub keeps no spans: requests served
/// through a cluster that spools under `--log-dir` leave the hub empty
/// while the spool fills with the workers' spans.
#[test]
fn a_hub_without_an_exporter_keeps_no_spans_while_the_spool_fills() {
    let cache = tmp_dir("nokeep-cache");
    let logs = tmp_dir("nokeep-logs");
    let (cluster, hub) = start_obs_cluster(1, &cache, &logs, false);
    let addr = cluster.local_addr().unwrap();
    let serve = std::thread::spawn(move || cluster.run());

    for (id, row) in ["Biostat", "SOR", "CG"].iter().enumerate() {
        let resp = rpc(
            addr,
            &format!("{{\"id\":{id},\"kind\":\"table1-row\",\"row\":\"{row}\"}}"),
        );
        assert!(resp.contains("\"ok\":true"), "table1-row failed: {resp}");
    }
    let spool = logs.join("spans.jsonl");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let text = std::fs::read_to_string(&spool).unwrap_or_default();
        if text.contains("\"name\":\"request\"") {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "worker spans never reached the spool: {text}"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
    assert!(hub.spans().is_empty(), "a non-exporting hub kept spans");
    let scrape = rpc(addr, "{\"id\":4,\"kind\":\"metrics\"}");
    assert!(
        scrape.contains("obs_spans_dropped_total 0"),
        "nothing is retained, so nothing is dropped: {scrape}"
    );

    let _ = rpc(addr, "{\"id\":9,\"kind\":\"shutdown\"}");
    serve.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&cache);
    let _ = std::fs::remove_dir_all(&logs);
}

/// The counter a worker's metrics carry once a request's result was
/// cached.
const RESULT_INSERTED: &str = "cache_insertions_total{cache=\"result\"}";

/// Read `@tele` updates from a worker's stdout until one carries the
/// counters of a finished request (or one carries spans, when
/// `until_spans`); returns every update read.
fn read_updates(
    out: &mut impl BufRead,
    until_spans: bool,
) -> Vec<mpi_dfa_service::obs::TeleUpdate> {
    let mut updates = Vec::new();
    let mut line = String::new();
    // The flusher writes every 150 ms: 200 lines is 30 s.
    for _ in 0..200 {
        line.clear();
        if out.read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        let Some(payload) = line.trim_end().strip_prefix(mpi_dfa_service::TELE_PREFIX) else {
            continue;
        };
        let update = mpi_dfa_service::obs::parse_tele_update(payload).expect("@tele line parses");
        let done = if until_spans {
            !update.spans.is_empty()
        } else {
            update.metrics.contains_key(RESULT_INSERTED)
        };
        updates.push(update);
        if done {
            break;
        }
    }
    updates
}

/// A worker started as the cluster spawner starts it without `--log-dir`
/// or `--trace-out` (`--telemetry-stream` alone) streams metrics and no
/// spans; with `--telemetry-stream spans` the same request's spans come
/// up the pipe.
#[test]
fn a_worker_streams_spans_only_when_asked() {
    for with_spans in [false, true] {
        let mut args = vec!["serve", "--shard-id", "0", "--addr", "127.0.0.1:0"];
        args.push("--telemetry-stream");
        if with_spans {
            args.push("spans");
        }
        let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_mpidfa"))
            .args(&args)
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("spawn worker");
        let mut out = BufReader::new(child.stdout.take().unwrap());
        let mut banner = String::new();
        out.read_line(&mut banner).expect("banner");
        let addr: SocketAddr = banner
            .trim()
            .strip_prefix("listening on ")
            .and_then(|a| a.parse().ok())
            .unwrap_or_else(|| panic!("bad banner {banner:?}"));
        let resp = rpc(
            addr,
            r#"{"id":1,"kind":"analyze","program":"figure1","ind":["x"],"dep":["f"]}"#,
        );
        assert!(resp.contains("\"ok\":true"), "analyze failed: {resp}");
        let updates = read_updates(&mut out, with_spans);
        let last = updates.last().expect("the worker streamed updates");
        if with_spans {
            assert!(!last.spans.is_empty(), "no spans came up the pipe");
        } else {
            assert!(
                last.metrics.contains_key(RESULT_INSERTED),
                "the request's metrics never came up the pipe"
            );
            assert!(
                updates
                    .iter()
                    .all(|u| u.spans.is_empty() && u.open.is_empty()),
                "a worker not asked for spans streamed some"
            );
        }
        // Closing stdin is the worker's cue to exit.
        drop(child.stdin.take());
        let _ = child.wait();
    }
}

/// A single-box daemon with `--trace-out` and `--log-dir` exports the
/// spans of the requests it answered, under the client's trace ids, even
/// though its flusher keeps draining the sink into the span spool.
#[test]
fn a_single_box_trace_out_keeps_the_spans_its_log_dir_spools() {
    let logs = tmp_dir("single-box-logs");
    std::fs::create_dir_all(&logs).unwrap();
    let trace_path = logs.join("trace.json");
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_mpidfa"))
        .args(["serve", "--addr", "127.0.0.1:0", "--log-dir"])
        .arg(&logs)
        .arg("--trace-out")
        .arg(&trace_path)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn serve");
    let mut out = BufReader::new(child.stdout.take().unwrap());
    let mut banner = String::new();
    out.read_line(&mut banner).expect("banner");
    let addr: SocketAddr = banner
        .trim()
        .strip_prefix("listening on ")
        .and_then(|a| a.parse().ok())
        .unwrap_or_else(|| panic!("bad banner {banner:?}"));

    let traces = [
        "000000000000000000000000000a11ce",
        "00000000000000000000000000000b0b",
    ];
    for (i, trace_hex) in traces.iter().enumerate() {
        let resp = rpc(
            addr,
            &format!(
                "{{\"id\":{i},\"kind\":\"table1-row\",\"row\":\"CG\",\
                 \"trace\":{{\"id\":\"{trace_hex}\",\"parent\":5,\"attempt\":0}}}}"
            ),
        );
        assert!(resp.contains("\"ok\":true"), "table1-row failed: {resp}");
    }
    // Wait until the flusher has spooled both requests: the sink the
    // trace used to be written from has been drained by then.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let spool = std::fs::read_to_string(logs.join("spans.jsonl")).unwrap_or_default();
        if traces.iter().all(|t| spool.contains(t)) {
            break;
        }
        assert!(Instant::now() < deadline, "the spool never got both traces");
        std::thread::sleep(Duration::from_millis(100));
    }
    let _ = rpc(addr, "{\"id\":9,\"kind\":\"shutdown\"}");
    assert!(child.wait().expect("serve exits").success());

    let trace = std::fs::read_to_string(&trace_path).expect("--trace-out written");
    let doc = mpi_dfa_core::json::parse(&trace).expect("the trace is JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents");
    for trace_hex in traces {
        let names: Vec<&str> = events
            .iter()
            .filter(|e| {
                e.get("args")
                    .and_then(|a| a.get("trace"))
                    .and_then(|t| t.as_str())
                    == Some(trace_hex)
            })
            .filter_map(|e| e.get("name").and_then(|n| n.as_str()))
            .collect();
        assert!(
            names.contains(&"request"),
            "trace {trace_hex} lost its request span; spans under it: {names:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&logs);
}
