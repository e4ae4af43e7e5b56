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

/// Start a cluster of real worker processes with `--telemetry-stream`
/// (the flag the CLI cluster spawner always appends) wired into a fresh
/// [`TelemetryHub`] spooling under `log_dir`.
fn start_obs_cluster(
    shards: usize,
    cache_dir: &std::path::Path,
    log_dir: &std::path::Path,
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
    let hub = TelemetryHub::new(Some(log_dir)).expect("hub");
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
    let (cluster, hub) = start_obs_cluster(3, &cache, &logs);
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
    let (cluster, hub) = start_obs_cluster(3, &cache, &logs);
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
    let (cluster, hub) = start_obs_cluster(3, &cache, &logs);
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
