#!/usr/bin/env python3
"""Smoke test for `mpidfa serve`: the JSONL wire contract over TCP.

Starts the daemon (or, with `--shards N`, a supervised N-worker cluster
behind the consistent-hash router) on an ephemeral port and asserts over
a real socket:

  * ping round-trips;
  * a cold Table-1 query set computes (`cache: miss`), and the same set
    warm comes back from the result cache (`cache: hit`) with
    byte-identical payloads. On a single daemon warm must also be at
    least 2x faster end to end (the >=5x floor itself is asserted by
    `cargo bench --bench service_cache`);
  * a second connection shares the first connection's warm cache;
  * malformed lines get structured errors without dropping the
    connection, and a validation error echoes the request's `id`;
  * `deadline_ms`: a generous deadline answers with `cache: bypass`, an
    expired one answers `deadline-exceeded`;
  * the `verify` verb answers SAFE for a Table-1 program and FLAGGED for
    a seeded corpus program, warm hits byte-identical (docs/VERIFY.md);
  * a request carrying the retired `solver` field is a `bad-request`
    naming it; an `analyze-delta` of an edited source answers
    `cache: miss`, its result byte-identical to a cold `analyze` of it;
    and a demand query (`at`) has its own cache key (docs/SERVING.md);
  * the `metrics` verb carries the SLO latency series;
  * `cache-stats` has the single-box or the cluster shape, and every
    in-memory layer holds no more `bytes` than its `budget_bytes` (the
    16 MiB default);
  * `shutdown` is acknowledged and every process exits with code 0.

A cluster run additionally (docs/OBSERVABILITY.md) sends traced requests
and asserts exactly one access-log line per routed request, that
responses stay trace-free, that `mpidfa trace <id>` shows router and
worker spans, and that the merged Chrome trace and metrics dump written
at shutdown (`--trace-out`, `--metrics-out`) link every routed request's
worker spans to a router span. It then restarts on the same cache
directory at another shard count, and the first queries must already be
disk hits: the cache is keyed by content, not by topology.

With `--bounded-memory` it instead starts a daemon with `--cache-mem 1`
and sends 200 distinct sources made by editing figure1's text (an
`analyze` and a `dot` of each, so the second reads the first's IR). Every
answer must be byte-identical to `mpidfa batch --cache-mem 0` on the same
requests, and `cache-stats` must then show IR evictions with each layer
within its 1 MiB budget.

Usage: python3 scripts/serve_client.py [path/to/mpidfa] [--shards N | --bounded-memory]
"""

import argparse
import json
import os
import shutil
import socket
import subprocess
import tempfile
import time

ROWS = ["Biostat", "SOR", "CG", "LU-1", "MG-1"]

# Two-procedure program for the delta step; the edit inserts one
# fact-neutral statement into `work`.
DELTA_BASE = (
    "program inc\n"
    "global x: real; global y: real; global out: real;\n"
    "sub work() { x = x * 2.0; }\n"
    "sub main() {\n"
    "  call work();\n"
    "  if (rank() == 0) { send(x, 1, 7); } else { recv(y, 0, 7); }\n"
    "  out = y + 1.0;\n"
    "}\n"
)
DELTA_EDIT = DELTA_BASE.replace("x = x * 2.0;", "print(1.0); x = x * 2.0;")

# The bundled program the bounded-memory run edits, and how many
# distinct texts it makes of it: figure1's IR weighs about 26 KB, so 200
# of them overflow a 1 MiB IR layer about five times.
FIGURE1 = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                       "crates", "suite", "src", "programs", "figure1.smpl")
BOUNDED_SOURCES = 200
DEFAULT_CACHE_BYTES = 16 << 20


class Client:
    def __init__(self, host, port):
        self.sock = socket.create_connection((host, port), timeout=60)
        # One JSON line per round trip: without TCP_NODELAY the Nagle /
        # delayed-ACK interaction adds ~40 ms per request and swamps the
        # cold-vs-warm comparison.
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.f = self.sock.makefile("rw", encoding="utf-8", newline="\n")

    def raw(self, line):
        self.f.write(line + "\n")
        self.f.flush()
        resp = self.f.readline()
        assert resp, "server closed the connection unexpectedly"
        return json.loads(resp)

    def rpc(self, obj):
        resp = self.raw(json.dumps(obj))
        assert resp["id"] == obj["id"], resp
        return resp

    def result_text(self, obj):
        """`rpc`, returning the response and its `result` text as sent,
        for byte-for-byte comparisons."""
        self.f.write(json.dumps(obj) + "\n")
        self.f.flush()
        line = self.f.readline()
        assert line, "server closed the connection unexpectedly"
        resp = json.loads(line)
        assert resp["id"] == obj["id"], resp
        return resp, line.split('"result":', 1)[1]


def query_set(base_id):
    return [
        {"id": base_id + i, "kind": "table1-row", "row": row}
        for i, row in enumerate(ROWS)
    ]


def timed(client, reqs):
    t0 = time.perf_counter()
    resps = [client.rpc(q) for q in reqs]
    return time.perf_counter() - t0, resps


def spawn(argv):
    """Start a daemon, return (proc, host, port) once the banner is out."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    banner = proc.stdout.readline().strip()
    assert banner.startswith("listening on "), f"unexpected banner: {banner!r}"
    host, port = banner.split()[-1].rsplit(":", 1)
    return proc, host, int(port)


def shutdown(client, proc):
    r = client.rpc({"id": 999, "kind": "shutdown"})
    assert r["ok"] and r["result"]["stopping"] is True, r
    code = proc.wait(timeout=60)
    assert code == 0, f"server exited with {code}"


def check_budgets(caches, budget):
    """Each in-memory layer reports its budget and stays within it."""
    for layer in ("ir", "result"):
        stats = caches[layer]
        assert stats["budget_bytes"] == budget, caches
        assert 0 <= stats["bytes"] <= stats["budget_bytes"], caches


def bounded_memory_run(binary):
    """`--cache-mem 1` against 200 distinct sources: answers equal a
    fresh in-process engine's, the IR layer evicts, no layer outgrows its
    budget."""
    with open(FIGURE1, encoding="utf-8") as f:
        base = f.read()
    assert "b = 7.0;" in base, "figure1 lost the statement the edits rewrite"
    reqs = []
    for i in range(BOUNDED_SOURCES):
        src = base.replace("b = 7.0;", f"b = {7 + i}.0;")
        reqs.append({"id": 2 * i + 1, "kind": "analyze", "source": src,
                     "ind": ["x"], "dep": ["f"]})
        reqs.append({"id": 2 * i + 2, "kind": "dot", "source": src})
    batch = subprocess.run(
        [binary, "batch", "-", "--pool", "1", "--cache-mem", "0"],
        input="".join(json.dumps(r) + "\n" for r in reqs),
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    assert len(batch) == len(reqs), "batch answered a different count"

    proc, host, port = spawn([binary, "serve", "--addr", "127.0.0.1:0",
                              "--cache-mem", "1"])
    try:
        c = Client(host, port)
        for req, fresh in zip(reqs, batch):
            resp, text = c.result_text(req)
            assert resp["ok"] and resp["cache"] == "miss", resp
            assert text.rstrip("\n") == fresh.split('"result":', 1)[1], (
                f"request {req['id']} diverged from the in-process answer"
            )
        r = c.rpc({"id": 9000, "kind": "cache-stats"})
        caches = r["result"]["caches"]
        check_budgets(caches, 1 << 20)
        assert caches["ir"]["evictions"] > 0, caches
        shutdown(c, proc)
    finally:
        if proc.poll() is None:
            proc.kill()
    print(
        f"ok [--cache-mem 1]: {len(reqs)} answers over {BOUNDED_SOURCES} "
        f"distinct sources equal the in-process ones; IR layer "
        f"{caches['ir']['bytes']} of {caches['ir']['budget_bytes']} bytes "
        f"after {caches['ir']['evictions']} evictions, result layer "
        f"{caches['result']['bytes']} bytes"
    )


def verify_step(client, base_id):
    """The `verify` verb (docs/VERIFY.md): a Table-1 program comes back
    SAFE/consistent-safe and a seeded corpus program comes back
    FLAGGED/confirmed; both are cached, and the warm hit is
    byte-identical to the cold miss."""
    safe = {"id": base_id, "kind": "verify", "program": "figure1",
            "schedules": 4}
    flagged = {"id": base_id + 1, "kind": "verify",
               "program": "deadlock-head-to-head", "schedules": 4}

    cold = client.rpc(safe)
    assert cold["ok"] and cold["cache"] == "miss", cold
    assert cold["result"]["verdict"] == "safe", cold
    assert cold["result"]["crosscheck"]["outcome"] == "consistent-safe", cold
    warm = client.rpc(safe)
    assert warm["ok"] and warm["cache"] == "hit", warm
    assert warm["result"] == cold["result"], (
        "warm verify result diverged from cold"
    )

    r = client.rpc(flagged)
    assert r["ok"], r
    assert r["result"]["verdict"] == "flagged", r
    assert r["result"]["crosscheck"]["outcome"] == "confirmed", r
    assert r["result"]["crosscheck"]["first_deadlock"], r
    return cold["result"]


def delta_step(client, base_id):
    """`analyze-delta` and demand queries (docs/SERVING.md).

    Every full solve is round-robin, so a request naming a `solver` is
    refused with a structured `bad-request` that names the field. An
    `analyze-delta` (which still requires `prev`) is a cold `analyze` of
    its source under its own key: it answers `cache: miss`, and its
    result text is byte-identical to a cold `analyze` of the same source,
    on a single daemon and through the router alike.
    """
    base = {"ind": ["x"], "dep": ["out"]}
    first = {"id": base_id, "kind": "analyze", "source": DELTA_BASE, **base}
    r_old = client.rpc({**first, "solver": "region"})
    assert r_old["ok"] is False, r_old
    assert r_old["error"]["code"] == "bad-request", r_old
    assert "`solver`" in r_old["error"]["message"], r_old
    r_first = client.rpc(first)
    assert r_first["ok"] and r_first["cache"] == "miss", r_first

    delta = {"id": base_id + 2, "kind": "analyze-delta",
             "source": DELTA_EDIT, "prev": base_id, **base}
    r_delta, delta_text = client.result_text(delta)
    assert r_delta["ok"] and r_delta["cache"] == "miss", r_delta
    cold = {"id": base_id + 1, "kind": "analyze", "source": DELTA_EDIT,
            **base}
    r_cold, cold_text = client.result_text(cold)
    assert r_cold["ok"] and r_cold["cache"] == "miss", r_cold
    assert delta_text == cold_text, (
        "analyze-delta diverged from the cold analyze of its source"
    )

    # Re-sending the delta hits its own (kind-scoped) cache entry.
    r_again, again_text = client.result_text(delta)
    assert r_again["ok"] and r_again["cache"] == "hit", r_again
    assert again_text == delta_text, r_again

    # Demand query: `at` turns an analyze into a slice-backed
    # fact-at-node question under its own cache key.
    demand = {"id": base_id + 3, "kind": "analyze", "source": DELTA_BASE,
              "at": 0, **base}
    r_demand = client.rpc(demand)
    assert r_demand["ok"] and r_demand["cache"] == "miss", r_demand
    assert r_demand["result"]["mode"] == "demand", r_demand
    assert r_demand["result"]["at"] == 0, r_demand
    r_demand2 = client.rpc(demand)
    assert r_demand2["ok"] and r_demand2["cache"] == "hit", r_demand2
    assert r_demand2["result"] == r_demand["result"], r_demand2
    # The full-solve entry for the same source is untouched by the
    # demand key: the first analyze warm-hits with its original payload.
    r_full = client.rpc({**first, "id": base_id + 4})
    assert r_full["ok"] and r_full["cache"] == "hit", r_full
    assert r_full["result"] == r_first["result"], r_full


def metrics_step(client, shards):
    """Scrape the `metrics` verb and assert the Prometheus text carries
    the SLO series. Against a cluster, worker-family series ride the
    ~150 ms telemetry flush, so poll briefly for them; the router-side
    counters and end-to-end family are synchronous."""
    deadline = time.time() + 10.0
    while True:
        r = client.rpc({"id": 700, "kind": "metrics"})
        assert r["ok"], r
        prom = r["result"]["prometheus"]
        if shards is None:
            needles = ['mpidfa_request_latency_us{', 'quantile="0.99"']
        else:
            assert r["result"]["cluster"]["shards"] == shards, r
            needles = [
                "router_requests_total",
                "access_log_lines_total",
                "mpidfa_request_e2e_latency_us{",
                "mpidfa_request_latency_us{",
            ]
        if all(n in prom for n in needles):
            return
        assert time.time() < deadline, (
            f"metrics output never carried {needles}:\n{prom}"
        )
        time.sleep(0.2)


def trace_step(client, binary, log_dir):
    """Send table1-row requests under caller-chosen trace ids and assert
    the response is byte-compatible with an untraced one (no trace fields
    leak into it), exactly one access-log line lands under each id, and
    `mpidfa trace` reconstructs a timeline with both the router and a
    worker on it. Returns the trace ids."""
    ids = [f"{0xabc0 + i:032x}" for i in range(len(ROWS))]
    for i, (trace_hex, row) in enumerate(zip(ids, ROWS)):
        r = client.rpc({"id": 800 + i, "kind": "table1-row", "row": row,
                        "trace": {"id": trace_hex, "parent": 1,
                                  "attempt": 0}})
        assert r["ok"], r
        assert "trace" not in r, (
            "responses must stay identical with and without tracing", r)

    # The access line is written synchronously by the router.
    with open(os.path.join(log_dir, "access.jsonl"), encoding="utf-8") as f:
        access = [json.loads(ln) for ln in f]
    for trace_hex in ids:
        recs = [rec for rec in access if rec["trace"] == trace_hex]
        assert len(recs) == 1, f"expected one access line for {trace_hex}"
        assert recs[0]["verb"] == "table1-row", recs
        assert recs[0]["cache"] in ("hit", "miss", "bypass"), recs

    # Spans reach the hub spool on the ~150 ms telemetry flush; poll the
    # reconstruction until the router and a worker both appear on it.
    deadline = time.time() + 10.0
    while True:
        out = subprocess.run(
            [binary, "trace", ids[0], "--log-dir", log_dir],
            capture_output=True,
            text=True,
        )
        if (
            out.returncode == 0
            and "router" in out.stdout
            and "shard " in out.stdout
        ):
            return ids
        assert time.time() < deadline, (
            "trace reconstruction never showed router + worker spans:\n"
            f"{out.stdout}\n{out.stderr}"
        )
        time.sleep(0.2)


def check_merged_trace(trace_out, metrics_out, log_dir, traced, routed):
    """The merged Chrome trace and metrics dump a cluster writes at
    shutdown: every routed request's trace carries spans from the router
    (pid 0) AND a worker, with a worker span parented (via
    `remote_parent`) to a router span; the access log has exactly one
    line per routed request."""
    with open(trace_out, encoding="utf-8") as fh:
        events = json.load(fh)["traceEvents"]
    by_trace = {}
    for e in events:
        t = e.get("args", {}).get("trace")
        if t:
            by_trace.setdefault(t, []).append(e)
    multi = {t: es for t, es in by_trace.items()
             if len({e["pid"] for e in es}) >= 2}
    missing = [t for t in traced if t not in multi]
    assert not missing, f"traces missing a process: {missing}"
    for t, es in multi.items():
        router_ids = {e["args"]["span"] for e in es if e["pid"] == 0}
        workers = [e for e in es if e["pid"] != 0]
        assert workers, f"trace {t}: no worker spans"
        linked = [e for e in workers
                  if e["args"].get("remote_parent") in router_ids]
        assert linked, f"trace {t}: no worker span parented to router"

    with open(metrics_out, encoding="utf-8") as fh:
        metrics = fh.read()
    for needle in ("router_requests_total", "access_log_lines_total",
                   "mpidfa_request_e2e_latency_us",
                   "mpidfa_request_latency_us"):
        assert needle in metrics, f"metrics dump missing {needle}"

    with open(os.path.join(log_dir, "access.jsonl"), encoding="utf-8") as f:
        access = [json.loads(ln)["trace"] for ln in f]
    assert len(access) == routed, (
        f"{len(access)} access lines for {routed} routed requests")
    assert len(set(access)) == len(access), "a request was logged twice"
    return len(events), len(multi)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("binary", nargs="?", default="target/release/mpidfa")
    ap.add_argument(
        "--shards",
        type=int,
        default=None,
        help="smoke a supervised cluster of N workers instead of the "
        "single-process daemon",
    )
    ap.add_argument(
        "--bounded-memory",
        action="store_true",
        help="only check a --cache-mem 1 daemon against 200 distinct "
        "sources",
    )
    args = ap.parse_args()
    if args.bounded_memory:
        bounded_memory_run(args.binary)
        return
    cluster = args.shards is not None

    tmp = tempfile.mkdtemp(prefix="mpidfa-serve-smoke-")
    cache_dir = os.path.join(tmp, "cache")
    log_dir = os.path.join(tmp, "logs")
    trace_out = os.path.join(tmp, "trace.json")
    metrics_out = os.path.join(tmp, "metrics.txt")
    procs = []
    try:
        argv = [args.binary, "serve", "--addr", "127.0.0.1:0",
                "--cache-dir", cache_dir]
        if cluster:
            argv += ["--shards", str(args.shards), "--log-dir", log_dir,
                     "--trace-out", trace_out, "--metrics-out", metrics_out]
        proc, host, port = spawn(argv)
        procs.append(proc)
        c = Client(host, port)

        r = c.rpc({"id": 1, "kind": "ping"})
        assert r["ok"] and r["result"]["pong"] is True, r

        # Cold: every row computes (through the router the rows hash
        # across shards, so this exercises several workers).
        cold_s, cold = timed(c, query_set(100))
        for resp in cold:
            assert resp["ok"] and resp["cache"] == "miss", resp

        # Warm: same rows, same connection — all hits, identical payloads.
        # Best of three rounds to shave scheduler noise.
        warm_s = float("inf")
        for _ in range(3):
            s, warm = timed(c, query_set(100))
            warm_s = min(warm_s, s)
            for resp, cold_resp in zip(warm, cold):
                assert resp["ok"] and resp["cache"] == "hit", resp
                assert resp["result"] == cold_resp["result"], (
                    "warm result diverged from cold"
                )
        if not cluster:
            assert warm_s * 2 < cold_s, (
                f"warm queries ({warm_s*1e3:.2f} ms) not measurably faster "
                f"than cold ({cold_s*1e3:.2f} ms)"
            )

        # A second connection shares the warm caches.
        c2 = Client(host, port)
        r = c2.rpc({"id": 200, "kind": "table1-row", "row": ROWS[0]})
        assert r["ok"] and r["cache"] == "hit", r

        # Malformed lines: structured error, connection survives; an
        # error answers under the request's id once one was readable.
        err = c.raw('{"id":5,"kind":')
        assert err["ok"] is False and err["error"]["code"] == "parse", err
        err = c.rpc({"id": 6, "kind": "warp"})
        assert err["ok"] is False, err
        assert err["error"]["code"] == "unknown-kind", err
        r = c.rpc({"id": 7, "kind": "ping"})
        assert r["ok"], r

        # Deadlines: a generous one answers (bypassing the cache — the
        # result depends on wall clock), an expired one fails structurally.
        r = c.rpc({"id": 8, "kind": "table1-row", "row": ROWS[0],
                   "deadline_ms": 60000})
        assert r["ok"] and r["cache"] == "bypass", r
        r = c.rpc({"id": 9, "kind": "table1-row", "row": ROWS[0],
                   "deadline_ms": 0})
        assert r["ok"] is False, r
        assert r["error"]["code"] == "deadline-exceeded", r

        verify_result = verify_step(c, 400)
        delta_step(c, 600)
        metrics_step(c, args.shards)
        if cluster:
            traced = trace_step(c, args.binary, log_dir)

        # cache-stats: the admission ladder and cache counters on a single
        # daemon; router counters, one supervisor entry and one worker
        # stats object (tagged with its shard id) per shard on a cluster.
        r = c.rpc({"id": 10, "kind": "cache-stats"})
        assert r["ok"], r
        stats = r["result"]
        if cluster:
            fleet = stats["cluster"]
            assert fleet["shards"] == args.shards, stats
            routed = fleet["router"]["routed_total"]
            assert routed >= 2 * len(ROWS), stats
            assert len(fleet["supervisor"]) == args.shards, stats
            for shard in fleet["supervisor"]:
                assert shard["alive"] is True, stats
            workers = stats["workers"]
            assert len(workers) == args.shards, stats
            assert sorted(w["shard"] for w in workers if w) == list(
                range(args.shards)
            ), stats
            for w in workers:
                check_budgets(w["caches"], DEFAULT_CACHE_BYTES)
        else:
            assert stats["admission"]["max_inflight"] > 0, stats
            assert stats["admission"]["tier_floor"] == "T0", stats
            assert stats["caches"]["result"]["hits"] >= len(ROWS), stats
            check_budgets(stats["caches"], DEFAULT_CACHE_BYTES)

        if cluster:
            time.sleep(0.6)  # let the 150 ms telemetry flush deliver spans
        shutdown(c2, proc)
        if not cluster:
            print(
                f"ok: {len(ROWS)} rows cold {cold_s*1e3:.2f} ms, "
                f"warm {warm_s*1e3:.2f} ms "
                f"({cold_s/warm_s:.1f}x over the socket), deadlines, "
                f"verify, delta + demand, metrics, cache-stats, clean "
                f"shutdown"
            )
            return

        n_events, n_traces = check_merged_trace(
            trace_out, metrics_out, log_dir, traced, routed)

        # Cross-topology warm disk: restart on the same cache dir with a
        # DIFFERENT shard count — first queries must already be disk hits,
        # because the result cache is keyed by content, not by topology.
        reshards = 1 if args.shards > 1 else 2
        proc, host, port = spawn(
            [args.binary, "serve", "--shards", str(reshards),
             "--addr", "127.0.0.1:0", "--cache-dir", cache_dir]
        )
        procs.append(proc)
        c = Client(host, port)
        _, rewarm = timed(c, query_set(300))
        for resp, cold_resp in zip(rewarm, cold):
            assert resp["ok"] and resp["cache"] == "hit", resp
            assert resp["result"] == cold_resp["result"], (
                "disk-warmed result diverged across topologies"
            )
        # Verify results are content-addressed too.
        r = c.rpc({"id": 500, "kind": "verify", "program": "figure1",
                   "schedules": 4})
        assert r["ok"] and r["cache"] == "hit", r
        assert r["result"] == verify_result, (
            "verify result diverged across topologies"
        )
        shutdown(c, proc)
        print(
            f"ok [cluster {args.shards} shard(s)]: {len(ROWS)} rows cold "
            f"{cold_s*1e3:.2f} ms, warm {warm_s*1e3:.2f} ms, deadlines, "
            f"verify, delta, metrics, traces ({n_events} merged events, "
            f"{n_traces} traces span router + worker), cluster stats, warm "
            f"disk across a {args.shards}->{reshards} reshard, clean fleet "
            f"shutdown"
        )
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    main()
