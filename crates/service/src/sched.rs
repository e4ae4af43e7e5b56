//! Deterministic parallel batch scheduler.
//!
//! `mpidfa batch` feeds a whole JSONL request file through [`run_batch`],
//! which answers every line **in input order** using a `std::thread`
//! worker pool. The hard requirement (asserted by tests at pool sizes 1,
//! 4, and 8) is that the rendered output is *byte-identical for any pool
//! size* — including the per-response `cache:` labels.
//!
//! Two properties make that hold:
//!
//! 1. **No wall clock in responses.** The engine renders provenance
//!    without elapsed time, and wall-clock-budgeted requests are labelled
//!    `bypass` unconditionally (see `engine`).
//! 2. **Two-phase leader/follower execution.** Requests are grouped by
//!    their result-cache key ([`Engine::request_key`]). The *first*
//!    occurrence of each key (the leader) runs in phase 1; duplicates
//!    (followers) run in phase 2, after every leader has completed and
//!    populated the cache. Leaders therefore always report `miss` (or
//!    `hit` against a pre-warmed cache) and followers always report
//!    `hit`, no matter how the pool interleaves.
//!
//! Caveat, documented rather than hidden: if the result cache's byte
//! budget cannot hold the results of every distinct key in one batch,
//! phase-1 evictions can race and follower labels may vary (payloads
//! never do). The default 16 MiB per layer holds tens of thousands of
//! bundled-program results; size `--cache-mem` (MiB) to the batch if you
//! feed larger ones.
//!
//! Panic isolation: each job runs under `catch_unwind`, so a bug in one
//! analysis yields a structured `internal` error for that line while the
//! rest of the batch completes.

use crate::engine::Engine;
use crate::proto::{read_request, render_err, ProtoError, Request, RequestKind};
use std::collections::{HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// One schedulable unit: the response slot it fills and the parsed request.
struct Job {
    slot: usize,
    req: Request,
}

/// Answer every non-empty line of `input` (a JSONL request stream) and
/// return the responses in input order, one per non-empty line.
///
/// `pool` is clamped to at least 1; a pool of 1 still goes through the
/// same two-phase plan, which is what makes the output comparable across
/// pool sizes.
pub fn run_batch(engine: &Engine, input: &str, pool: usize) -> Vec<String> {
    let pool = pool.max(1);
    let mut responses: Vec<Option<String>> = Vec::new();
    let mut jobs: Vec<(Job, Option<u128>)> = Vec::new();

    for line in input.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let slot = responses.len();
        responses.push(None);
        match read_request(line) {
            Err(resp) => responses[slot] = Some(resp),
            Ok(req) if req.kind == RequestKind::Shutdown => {
                // Shutting down a batch run is meaningless; answering it
                // inline keeps the remaining lines flowing.
                responses[slot] = Some(render_err(
                    req.id,
                    &ProtoError::new("unsupported", "`shutdown` is only meaningful in serve mode"),
                ));
            }
            Ok(req) if req.kind == RequestKind::CacheStats => {
                // Live counters depend on pool size and interleaving, which
                // would break byte-identical batch output; refuse inline.
                responses[slot] = Some(render_err(
                    req.id,
                    &ProtoError::new(
                        "unsupported",
                        "`cache-stats` is only meaningful in serve mode",
                    ),
                ));
            }
            Ok(req) if req.kind == RequestKind::Metrics => {
                // Same determinism argument as cache-stats: latency
                // histograms and live counters have no batch-stable answer.
                responses[slot] = Some(render_err(
                    req.id,
                    &ProtoError::new("unsupported", "`metrics` is only meaningful in serve mode"),
                ));
            }
            Ok(req) => {
                let key = engine.request_key(&req);
                jobs.push((Job { slot, req }, key));
            }
        }
    }

    // Phase split: the first job carrying each distinct cache key leads;
    // later duplicates follow once the leaders have warmed the cache.
    // Keyless jobs (cache bypass, or requests that will fail resolution)
    // are all leaders — duplicates among them recompute by design.
    let mut seen: HashSet<u128> = HashSet::new();
    let mut leaders: Vec<Job> = Vec::new();
    let mut followers: Vec<Job> = Vec::new();
    for (job, key) in jobs {
        match key {
            Some(k) if !seen.insert(k) => followers.push(job),
            _ => leaders.push(job),
        }
    }

    run_phase(engine, pool, leaders, &mut responses);
    run_phase(engine, pool, followers, &mut responses);

    responses
        .into_iter()
        .map(|r| r.expect("every non-empty input line produces a response"))
        .collect()
}

/// Run one phase's jobs across the pool, filling their response slots.
fn run_phase(engine: &Engine, pool: usize, jobs: Vec<Job>, responses: &mut [Option<String>]) {
    if jobs.is_empty() {
        return;
    }
    let workers = pool.min(jobs.len());
    let queue: Mutex<VecDeque<Job>> = Mutex::new(jobs.into());
    let done: Mutex<Vec<(usize, String)>> = Mutex::new(Vec::new());

    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                // A poisoned queue mutex can only mean another worker
                // panicked *outside* catch_unwind (i.e. in this loop's own
                // bookkeeping); recover the guard and keep draining.
                let job = {
                    let mut q = queue
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    q.pop_front()
                };
                let Some(Job { slot, req }) = job else { break };
                let resp =
                    catch_unwind(AssertUnwindSafe(|| engine.handle(&req))).unwrap_or_else(|_| {
                        render_err(
                            req.id,
                            &ProtoError::new("internal", "analysis worker panicked"),
                        )
                    });
                done.lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .push((slot, resp));
            });
        }
    });

    for (slot, resp) in done
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
    {
        responses[slot] = Some(resp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use mpi_dfa_suite::experiments;

    fn engine() -> Engine {
        Engine::new(EngineConfig::default()).unwrap()
    }

    /// The full Table-1 request set, plus duplicates and an analyze mix,
    /// as one JSONL batch.
    fn table1_batch() -> String {
        let mut lines = String::new();
        for (i, spec) in experiments::all().iter().enumerate() {
            lines.push_str(&format!(
                "{{\"id\":{},\"kind\":\"table1-row\",\"row\":\"{}\"}}\n",
                i + 1,
                spec.id
            ));
        }
        // Duplicates of the first row: followers that must report hits.
        lines.push_str("{\"id\":900,\"kind\":\"table1-row\",\"row\":\"Biostat\"}\n");
        lines.push_str("{\"id\":901,\"kind\":\"table1-row\",\"row\":\"Biostat\"}\n");
        lines.push_str(
            "{\"id\":902,\"kind\":\"analyze\",\"program\":\"figure1\",\"ind\":[\"x\"],\"dep\":[\"f\"]}\n",
        );
        lines
    }

    #[test]
    fn batch_output_is_byte_identical_across_pool_sizes() {
        // The acceptance criterion: pools {1, 4, 8}, fresh engine each, the
        // full Table-1 set plus duplicates — output must match byte for
        // byte, including hit/miss labels.
        let input = table1_batch();
        let base = run_batch(&engine(), &input, 1);
        for pool in [4usize, 8] {
            let out = run_batch(&engine(), &input, pool);
            assert_eq!(out, base, "pool size {pool} changed the batch output");
        }
        // And equal to the sequential single-request path.
        let e = engine();
        let direct: Vec<String> = input
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(|l| e.handle_line(l))
            .collect();
        assert_eq!(base, direct, "batch must equal sequential evaluation");
        // Sanity on the labels themselves: leaders miss, duplicates hit.
        assert!(base
            .iter()
            .filter(|r| r.contains("\"id\":900"))
            .all(|r| r.contains("\"cache\":\"hit\"")));
        assert!(base
            .iter()
            .filter(|r| r.contains("\"id\":901"))
            .all(|r| r.contains("\"cache\":\"hit\"")));
    }

    #[test]
    fn responses_keep_input_order_with_errors_interleaved() {
        let input = "\
            {\"id\":1,\"kind\":\"ping\"}\n\
            this line is not json\n\
            {\"id\":2,\"kind\":\"shutdown\"}\n\
            \n\
            {\"id\":3,\"kind\":\"analyze\",\"program\":\"figure1\",\"ind\":[\"x\"],\"dep\":[\"f\"]}\n\
            {\"id\":4,\"kind\":\"analyze\",\"program\":\"nope\",\"ind\":[\"x\"],\"dep\":[\"f\"]}\n";
        let out = run_batch(&engine(), input, 4);
        assert_eq!(out.len(), 5, "blank line produces no response");
        assert!(out[0].contains("\"id\":1") && out[0].contains("pong"));
        assert!(out[1].contains("\"id\":0") && out[1].contains("\"code\":\"parse\""));
        assert!(out[2].contains("\"id\":2") && out[2].contains("\"code\":\"unsupported\""));
        let stats = run_batch(&engine(), "{\"id\":7,\"kind\":\"cache-stats\"}\n", 2);
        assert!(
            stats[0].contains("\"code\":\"unsupported\""),
            "cache-stats must not leak nondeterministic counters into batch output: {}",
            stats[0]
        );
        assert!(out[3].contains("\"id\":3") && out[3].contains("\"ok\":true"));
        assert!(out[4].contains("\"id\":4") && out[4].contains("\"code\":\"unknown-program\""));
    }

    #[test]
    fn eviction_under_pressure_recomputes_to_equal_results() {
        // With a result cache big enough for one analyze result (268
        // bytes; the dot result is heavier than the budget and never
        // kept), a batch of distinct requests evicts constantly;
        // re-running the same batch must recompute every evicted entry to
        // a byte-equal payload.
        let tiny = Engine::new(EngineConfig {
            cache_bytes: 512,
            ..Default::default()
        })
        .unwrap();
        let input = "\
            {\"id\":1,\"kind\":\"analyze\",\"program\":\"figure1\",\"ind\":[\"x\"],\"dep\":[\"f\"]}\n\
            {\"id\":2,\"kind\":\"analyze\",\"program\":\"figure1\",\"ind\":[\"x\"],\"dep\":[\"f\"],\"clone\":1}\n\
            {\"id\":3,\"kind\":\"analyze\",\"program\":\"figure1\",\"ind\":[\"x\"],\"dep\":[\"f\"],\"mode\":\"global\"}\n\
            {\"id\":4,\"kind\":\"dot\",\"program\":\"figure1\"}\n";
        // Sequential (pool 1) so eviction order is deterministic.
        let cold = run_batch(&tiny, input, 1);
        let rerun = run_batch(&tiny, input, 1);
        let evictions = tiny.caches().results.counters().snapshot().evictions;
        assert!(
            evictions > 0,
            "a 512-byte budget must evict under this batch"
        );
        // Payloads (everything but the cache label) are identical; against
        // a roomy engine they also match exactly.
        let roomy = run_batch(&engine(), input, 1);
        for ((a, b), c) in cold.iter().zip(rerun.iter()).zip(roomy.iter()) {
            let strip = |s: &str| {
                s.replace("\"cache\":\"hit\"", "\"cache\":\"x\"")
                    .replace("\"cache\":\"miss\"", "\"cache\":\"x\"")
            };
            assert_eq!(strip(a), strip(b), "evicted entry recomputed differently");
            assert_eq!(strip(a), strip(c), "tiny-cache result diverged from roomy");
        }
    }

    #[test]
    fn keyless_requests_all_run_as_leaders() {
        // Wall-clock-budgeted duplicates each compute independently and all
        // report bypass — no follower can wait on a cache fill that never
        // happens.
        let input = "\
            {\"id\":1,\"kind\":\"analyze\",\"program\":\"figure1\",\"ind\":[\"x\"],\"dep\":[\"f\"],\"budget_ms\":10000}\n\
            {\"id\":2,\"kind\":\"analyze\",\"program\":\"figure1\",\"ind\":[\"x\"],\"dep\":[\"f\"],\"budget_ms\":10000}\n";
        let out = run_batch(&engine(), input, 2);
        assert!(
            out.iter().all(|r| r.contains("\"cache\":\"bypass\"")),
            "{out:?}"
        );
    }
}
