#!/usr/bin/env python3
"""CI driver for `mpidfa serve`: JSONL-over-TCP smoke test.

Starts the daemon on an ephemeral port, waits for its `listening on ADDR`
line, then asserts over a real socket:

  * ping round-trips;
  * a cold Table-1 query set computes (`cache: miss`), the same set warm
    comes back from the content-addressed result cache (`cache: hit`) with
    byte-identical result payloads and a measurable wall-clock speedup
    (the >=5x floor itself is asserted by `cargo bench --bench
    service_cache`; over a socket the round-trip dominates, so this test
    requires warm to be at least 2x faster end-to-end);
  * a second connection shares the first connection's warm cache;
  * malformed lines get structured errors without dropping the connection;
  * `deadline_ms` is honored: a generous deadline answers normally (with
    `cache: bypass` — wall-clock budgets are never cached), an
    already-expired deadline answers a structured `deadline-exceeded`;
  * the `verify` verb answers SAFE (consistent-safe) for a Table-1
    program and FLAGGED (confirmed) for a seeded corpus program, with
    warm hits byte-identical to cold misses (docs/VERIFY.md);
  * `cache-stats` reports the admission ladder and cache counters;
  * `shutdown` is acknowledged and the process exits cleanly with code 0.

The client doubles as a reference implementation of the overload
contract: `--retries N` retries `overloaded` sheds with jittered
exponential backoff seeded from the server's `retry_after_ms` hint, and
`--deadline-ms MS` attaches a deadline to every analysis request.

With `--shards N` the same contract is asserted against a supervised
cluster (`mpidfa serve --shards N`): cold misses and warm hits through
the consistent-hash router with byte-identical payloads, the cluster
`cache-stats` shape (router counters, one supervisor entry and one
worker stats object per shard), malformed-line survival, clean shutdown
of the whole fleet, and — after a full cluster restart onto the same
`--cache-dir`, at a different shard count — warm *disk* hits proving the
cache is content-addressed, not topology-addressed.

With `--delta` the incremental surface (docs/INCREMENTAL.md) is driven:
a region-strategy `analyze` seeds the worker, an `analyze-delta` of an
edited source answers incrementally (`cache: partial` on the
single-process daemon, where the seed is always local; on a cluster the
router may land the delta on a seedless shard, which falls back to a
full solve — so only byte-equality is asserted there), the delta's
result is asserted byte-identical to a cold `analyze` of the same edited
source, and a demand query (`at`) answers under its own cache key
without disturbing the full-solve entry.

Observability add-ons (see docs/OBSERVABILITY.md):

  * `--metrics` scrapes the `metrics` verb and asserts the Prometheus
    text carries SLO quantile series (and, against a cluster, the
    merged router counters plus both latency families);
  * `--trace` (cluster only) sends a request under a caller-chosen
    trace id, asserts the response stays trace-free (determinism), that
    exactly one access-log line lands under that id, and that
    `mpidfa trace <id>` reconstructs a cross-process timeline.

Usage: python3 scripts/serve_client.py [path/to/mpidfa]
                                       [--retries N] [--deadline-ms MS]
                                       [--shards N] [--metrics] [--trace]
                                       [--delta]
"""

import argparse
import json
import os
import random
import shutil
import socket
import subprocess
import sys
import tempfile
import time

ROWS = ["Biostat", "SOR", "CG", "LU-1", "MG-1"]

# Two-procedure program for the --delta flow; the edit inserts one
# fact-neutral statement into `work`, so everything outside it
# transplants from the seed.
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


class Client:
    def __init__(self, host, port, retries=0):
        self.sock = socket.create_connection((host, port), timeout=60)
        # One JSON line per round trip: without TCP_NODELAY the Nagle /
        # delayed-ACK interaction adds ~40 ms per request and swamps the
        # cold-vs-warm comparison.
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.f = self.sock.makefile("rw", encoding="utf-8", newline="\n")
        self.retries = retries

    def raw(self, line):
        self.f.write(line + "\n")
        self.f.flush()
        resp = self.f.readline()
        assert resp, "server closed the connection unexpectedly"
        return json.loads(resp)

    def rpc(self, obj):
        """Send one request; on an `overloaded` shed, back off and retry
        up to self.retries times, honoring the server's retry_after_ms
        hint with jittered exponential backoff."""
        attempt = 0
        while True:
            resp = self.raw(json.dumps(obj))
            assert resp["id"] == obj["id"], resp
            if (
                not resp.get("ok")
                and resp.get("error", {}).get("code") == "overloaded"
                and attempt < self.retries
            ):
                hint_ms = resp["error"].get("retry_after_ms", 100)
                # Exponential backoff on the hint, with full jitter so a
                # herd of shed clients does not retry in lockstep.
                delay = (hint_ms / 1000.0) * (2**attempt) * random.random()
                time.sleep(min(delay, 5.0))
                attempt += 1
                continue
            return resp


def query_set(base_id, deadline_ms=None):
    reqs = [
        {"id": base_id + i, "kind": "table1-row", "row": row}
        for i, row in enumerate(ROWS)
    ]
    if deadline_ms is not None:
        for r in reqs:
            r["deadline_ms"] = deadline_ms
    return reqs


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


def delta_step(client, base_id, expect_partial):
    """`--delta`: the incremental surface (docs/INCREMENTAL.md).

    Seed with a `"solver": "region"` `analyze` (only region-engine solves
    capture a reusable seed), send an `analyze-delta` of the edited
    source naming the seed via `prev`, and assert its result is
    byte-identical to a cold `analyze` of the same edited source.
    `expect_partial` is True on the single-process daemon, where the
    seed is always local; through the router a delta can land on a
    seedless shard and legitimately fall back to a full solve
    (`cache: miss`) — identical bytes either way.
    """
    base = {"ind": ["x"], "dep": ["out"]}
    # Retired strategy spellings are rejected with the surviving names.
    old = {"id": base_id, "kind": "analyze", "source": DELTA_BASE,
           "solver": "region-parallel:2", **base}
    r_old = client.raw(json.dumps(old))
    assert r_old["ok"] is False, r_old
    assert "round-robin|region" in r_old["error"]["message"], r_old
    seed = {**old, "solver": "region"}
    r_seed = client.rpc(seed)
    assert r_seed["ok"] and r_seed["cache"] == "miss", r_seed

    # Cold solve of the edited source FIRST, at the same strategy as the
    # upcoming delta: facts are strategy-invariant but pass counters are
    # not, and `solver` is deliberately excluded from the result key, so
    # the byte-identity comparison needs this entry to have been computed
    # under the region strategy (different kind => different key, so the delta
    # below genuinely runs the seeded path rather than hitting this one).
    cold = {"id": base_id + 1, "kind": "analyze", "source": DELTA_EDIT,
            "solver": "region", **base}
    r_cold = client.rpc(cold)
    assert r_cold["ok"] and r_cold["cache"] == "miss", r_cold

    delta = {"id": base_id + 2, "kind": "analyze-delta",
             "source": DELTA_EDIT, "prev": base_id,
             "solver": "region", **base}
    r_delta = client.rpc(delta)
    assert r_delta["ok"], r_delta
    if expect_partial:
        assert r_delta["cache"] == "partial", r_delta
    else:
        assert r_delta["cache"] in ("partial", "miss"), r_delta

    # The incremental answer must be indistinguishable from the cold
    # solve of the edited source — facts, counters, provenance.
    assert r_delta["result"] == r_cold["result"], (
        "incremental result diverged from the cold solve"
    )

    # Re-sending the delta hits its own (kind-scoped) cache entry.
    r_again = client.rpc(delta)
    assert r_again["ok"] and r_again["cache"] == "hit", r_again
    assert r_again["result"] == r_delta["result"], r_again

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
    # demand key: the seed request warm-hits with its original payload.
    r_full = client.rpc({**seed, "id": base_id + 4})
    assert r_full["ok"] and r_full["cache"] == "hit", r_full
    assert r_full["result"] == r_seed["result"], r_full


def metrics_step(client, shards=None):
    """`--metrics`: scrape the `metrics` verb and assert the Prometheus
    text carries the SLO series. Against a cluster, worker-family series
    ride the ~150 ms telemetry flush, so poll briefly for them; the
    router-side counters and end-to-end family are synchronous."""
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
            return prom
        assert time.time() < deadline, (
            f"metrics output never carried {needles}:\n{prom}"
        )
        time.sleep(0.2)


def trace_step(client, binary, log_dir):
    """`--trace` (cluster only): send one request under a caller-chosen
    trace id, then assert the three tracing invariants: the response is
    byte-compatible with an untraced one (no trace fields leak into it),
    exactly one access-log line lands under the id, and `mpidfa trace`
    reconstructs a timeline with both the router and a worker on it."""
    trace_hex = "00000000000000000000feed0000c1a0"
    r = client.rpc(
        {"id": 800, "kind": "table1-row", "row": ROWS[1],
         "trace": {"id": trace_hex, "parent": 1, "attempt": 0}}
    )
    assert r["ok"], r
    assert "trace" not in r, (
        "responses must stay identical with and without tracing", r)

    # The access line is written synchronously by the router.
    with open(os.path.join(log_dir, "access.jsonl"), encoding="utf-8") as f:
        lines = [ln for ln in f if trace_hex in ln]
    assert len(lines) == 1, f"expected exactly one access line: {lines}"
    rec = json.loads(lines[0])
    assert rec["verb"] == "table1-row", rec
    assert rec["cache"] in ("hit", "miss", "bypass"), rec

    # Spans reach the hub spool on the ~150 ms telemetry flush; poll the
    # reconstruction until the router and a worker both appear on it.
    deadline = time.time() + 10.0
    while True:
        out = subprocess.run(
            [binary, "trace", trace_hex, "--log-dir", log_dir],
            capture_output=True,
            text=True,
        )
        if (
            out.returncode == 0
            and "router" in out.stdout
            and "shard " in out.stdout
        ):
            return
        assert time.time() < deadline, (
            "trace reconstruction never showed router + worker spans:\n"
            f"{out.stdout}\n{out.stderr}"
        )
        time.sleep(0.2)


def cluster_main(args):
    """`--shards N`: the cluster smoke — same wire contract, real fleet."""
    cache_dir = tempfile.mkdtemp(prefix="mpidfa-serve-smoke-")
    log_dir = tempfile.mkdtemp(prefix="mpidfa-serve-logs-")
    procs = []
    try:
        argv = [args.binary, "serve", "--shards", str(args.shards),
                "--addr", "127.0.0.1:0", "--cache-dir", cache_dir]
        if args.trace:
            argv += ["--log-dir", log_dir]
        proc, host, port = spawn(argv)
        procs.append(proc)
        c = Client(host, port, retries=args.retries)

        r = c.rpc({"id": 1, "kind": "ping"})
        assert r["ok"] and r["result"]["pong"] is True, r

        # Cold through the router: the rows hash across shards, so this
        # exercises multiple workers; every row computes.
        cold_s, cold = timed(c, query_set(100))
        for resp in cold:
            assert resp["ok"], resp
            assert resp["cache"] == "miss", resp

        # Warm, same connection: all hits, byte-identical results.
        warm_s, warm = timed(c, query_set(100))
        for resp, cold_resp in zip(warm, cold):
            assert resp["ok"] and resp["cache"] == "hit", resp
            assert resp["result"] == cold_resp["result"], (
                "warm result diverged from cold through the router"
            )

        # A second connection shares the fleet's warm caches.
        c2 = Client(host, port, retries=args.retries)
        r = c2.rpc({"id": 200, "kind": "table1-row", "row": ROWS[0]})
        assert r["ok"] and r["cache"] == "hit", r

        # The verify verb through the router: safe + flagged verdicts,
        # cold/warm byte-identity.
        verify_result = verify_step(c, 400)

        # Malformed lines: structured error, connection survives.
        err = c.raw('{"id":5,"kind":')
        assert err["ok"] is False and err["error"]["code"] == "parse", err
        r = c.rpc({"id": 7, "kind": "ping"})
        assert r["ok"], r

        # Cluster cache-stats: router counters, one supervisor entry and
        # one worker stats object (tagged with its shard id) per shard.
        r = c.rpc({"id": 10, "kind": "cache-stats"})
        assert r["ok"], r
        stats = r["result"]
        cluster = stats["cluster"]
        assert cluster["shards"] == args.shards, stats
        assert cluster["router"]["routed_total"] >= 2 * len(ROWS), stats
        assert len(cluster["supervisor"]) == args.shards, stats
        for shard in cluster["supervisor"]:
            assert shard["alive"] is True, stats
        workers = stats["workers"]
        assert len(workers) == args.shards, stats
        assert sorted(w["shard"] for w in workers if w) == list(
            range(args.shards)
        ), stats

        # The incremental surface through the router: byte-equality is
        # asserted; `partial` is not (the delta can land on a seedless
        # shard and fall back to a full solve).
        if args.delta:
            delta_step(c, 600, expect_partial=False)

        # Observability add-ons against the live fleet.
        if args.metrics:
            metrics_step(c, shards=args.shards)
        if args.trace:
            trace_step(c, args.binary, log_dir)

        # Fleet shutdown: the router acks, every worker exits with it.
        shutdown(c2, proc)

        # Cross-topology warm disk: restart on the same cache dir with a
        # DIFFERENT shard count — first queries must already be disk hits,
        # because the result cache is keyed by content, not by topology.
        reshards = 1 if args.shards > 1 else 2
        proc, host, port = spawn(
            [args.binary, "serve", "--shards", str(reshards),
             "--addr", "127.0.0.1:0", "--cache-dir", cache_dir]
        )
        procs.append(proc)
        c = Client(host, port, retries=args.retries)
        _, rewarm = timed(c, query_set(300))
        for resp, cold_resp in zip(rewarm, cold):
            assert resp["ok"] and resp["cache"] == "hit", resp
            assert resp["result"] == cold_resp["result"], (
                "disk-warmed result diverged across topologies"
            )
        # Verify results are content-addressed too: the reshard answers
        # the same verify request from disk, byte-identical.
        r = c.rpc({"id": 500, "kind": "verify", "program": "figure1",
                   "schedules": 4})
        assert r["ok"] and r["cache"] == "hit", r
        assert r["result"] == verify_result, (
            "verify result diverged across topologies"
        )
        shutdown(c, proc)

        extras = "".join(
            f", {name}" for name, on in
            [("delta", args.delta), ("cluster metrics", args.metrics),
             ("trace", args.trace)] if on
        )
        print(
            f"ok [cluster {args.shards} shard(s)]: {len(ROWS)} rows cold "
            f"{cold_s*1e3:.2f} ms, warm {warm_s*1e3:.2f} ms, cluster stats, "
            f"warm disk across a {args.shards}->{reshards} reshard, "
            f"clean fleet shutdown{extras}"
        )
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
        shutil.rmtree(cache_dir, ignore_errors=True)
        shutil.rmtree(log_dir, ignore_errors=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("binary", nargs="?", default="target/release/mpidfa")
    ap.add_argument(
        "--retries",
        type=int,
        default=0,
        help="retry overloaded sheds up to N times with jittered "
        "exponential backoff on the server's retry_after_ms hint",
    )
    ap.add_argument(
        "--deadline-ms",
        type=int,
        default=None,
        help="attach deadline_ms to every analysis request",
    )
    ap.add_argument(
        "--shards",
        type=int,
        default=None,
        help="smoke a supervised cluster of N workers instead of the "
        "single-process daemon",
    )
    ap.add_argument(
        "--metrics",
        action="store_true",
        help="scrape the `metrics` verb and assert SLO quantile series "
        "(merged across shards in cluster mode)",
    )
    ap.add_argument(
        "--trace",
        action="store_true",
        help="cluster only: assert trace propagation, the access log, "
        "and `mpidfa trace` timeline reconstruction",
    )
    ap.add_argument(
        "--delta",
        action="store_true",
        help="drive the incremental surface: analyze seed, analyze-delta "
        "(cache: partial on a single daemon, byte-equality everywhere), "
        "and a demand (`at`) query under its own cache key",
    )
    args = ap.parse_args()
    if args.trace and args.shards is None:
        ap.error("--trace requires --shards (cluster mode)")
    if args.shards is not None:
        return cluster_main(args)

    proc = subprocess.Popen(
        [args.binary, "serve", "--addr", "127.0.0.1:0"],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        banner = proc.stdout.readline().strip()
        assert banner.startswith("listening on "), f"unexpected banner: {banner!r}"
        host, port = banner.split()[-1].rsplit(":", 1)

        c = Client(host, int(port), retries=args.retries)

        r = c.rpc({"id": 1, "kind": "ping"})
        assert r["ok"] and r["result"]["pong"] is True, r

        # Cold: every row computes.
        cold_s, cold = timed(c, query_set(100))
        for resp in cold:
            assert resp["ok"], resp
            assert resp["cache"] == "miss", resp

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
        assert warm_s * 2 < cold_s, (
            f"warm queries ({warm_s*1e3:.2f} ms) not measurably faster than "
            f"cold ({cold_s*1e3:.2f} ms)"
        )

        # Malformed lines: structured error, connection survives.
        err = c.raw('{"id":5,"kind":')
        assert err["ok"] is False and err["error"]["code"] == "parse", err
        err = c.raw(json.dumps({"id": 6, "kind": "warp"}))
        assert err["ok"] is False and err["error"]["code"] == "unknown-kind", err
        r = c.rpc({"id": 7, "kind": "ping"})
        assert r["ok"], r

        # Deadlines: a generous one answers (bypassing the cache — the
        # result depends on wall clock), an expired one fails structurally.
        r = c.rpc({"id": 8, "kind": "table1-row", "row": ROWS[0],
                   "deadline_ms": args.deadline_ms or 60000})
        assert r["ok"] and r["cache"] == "bypass", r
        r = c.rpc({"id": 9, "kind": "table1-row", "row": ROWS[0],
                   "deadline_ms": 0})
        assert r["ok"] is False, r
        assert r["error"]["code"] == "deadline-exceeded", r

        # The verify verb: safe + flagged verdicts, cold/warm
        # byte-identity through the result cache.
        verify_step(c, 400)

        # The incremental surface: on a single-process daemon the seed is
        # always local, so the delta must answer `cache: partial`.
        if args.delta:
            delta_step(c, 600, expect_partial=True)

        # cache-stats: admission ladder + per-layer counters.
        r = c.rpc({"id": 10, "kind": "cache-stats"})
        assert r["ok"], r
        stats = r["result"]
        assert stats["admission"]["max_inflight"] > 0, stats
        assert stats["admission"]["tier_floor"] == "T0", stats
        assert stats["caches"]["result"]["hits"] >= len(ROWS), stats

        # SLO histograms are always on, even with the telemetry sink off.
        if args.metrics:
            metrics_step(c)

        # A second connection shares the warm cache.
        c2 = Client(host, int(port), retries=args.retries)
        r = c2.rpc({"id": 200, "kind": "table1-row", "row": ROWS[0]})
        assert r["ok"] and r["cache"] == "hit", r

        # Clean shutdown: acknowledged, then the process exits 0.
        r = c2.rpc({"id": 999, "kind": "shutdown"})
        assert r["ok"] and r["result"]["stopping"] is True, r
        code = proc.wait(timeout=60)
        assert code == 0, f"server exited with {code}"

        extras = ", incremental delta + demand" if args.delta else ""
        print(
            f"ok: {len(ROWS)} rows cold {cold_s*1e3:.2f} ms, "
            f"warm {warm_s*1e3:.2f} ms ({cold_s/warm_s:.1f}x over the socket), "
            f"deadlines + cache-stats + clean shutdown{extras}"
        )
    finally:
        if proc.poll() is None:
            proc.kill()


if __name__ == "__main__":
    main()
