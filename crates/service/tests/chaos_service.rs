//! The service-layer chaos suite (acceptance gate for the robustness PR).
//!
//! Runs `CHAOS_CASES` seeded scenarios (default 60 locally; CI's
//! `chaos-smoke` job sets 500) against an in-process server. Any hang,
//! panic, unstructured error, or payload divergence fails the test; the
//! failing seed and case index are printed so
//! `CHAOS_SEED=<seed> cargo test -p mpi-dfa-service --test chaos_service`
//! reproduces the exact run, and the failure detail (with the telemetry
//! span tree) is written to `target/chaos-failure.txt` for CI artifact
//! upload.

use mpi_dfa_core::telemetry;
use mpi_dfa_service::{run_chaos, ChaosConfig};

fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

#[test]
fn chaos_run_is_clean() {
    let seed = env_u64("CHAOS_SEED", 0);
    let cases = env_u64("CHAOS_CASES", 60) as usize;
    telemetry::install(telemetry::TraceLevel::Spans);

    let report = run_chaos(ChaosConfig { seed, cases });

    println!(
        "chaos: {} cases, {} requests, {} ok, {} errors, {} sheds, {} corruptions, {} disconnects, {} evictions",
        report.cases,
        report.requests_sent,
        report.ok_responses,
        report.error_responses,
        report.sheds,
        report.corruptions,
        report.disconnects,
        report.evictions
    );

    if let Some(f) = &report.failure {
        let artifact = format!(
            "chaos failure\nseed: {}\ncase: {}\ndetail:\n{}\n\nspan tree:\n{}\n",
            f.seed, f.case_index, f.detail, f.span_tree
        );
        // Best-effort artifact for CI upload; the panic message below is
        // the canonical record.
        let _ = std::fs::create_dir_all("target");
        let _ = std::fs::write("target/chaos-failure.txt", &artifact);
        panic!(
            "chaos case {} failed under CHAOS_SEED={} — reproduce with \
             `CHAOS_SEED={} CHAOS_CASES={} cargo test -p mpi-dfa-service --test chaos_service`\n{}",
            f.case_index, f.seed, f.seed, cases, f.detail
        );
    }

    assert!(report.requests_sent > 0, "chaos run sent no requests");
    assert!(report.ok_responses > 0, "chaos run saw no successes");
    assert!(report.evictions > 0, "the small cache budget never evicted");
}
