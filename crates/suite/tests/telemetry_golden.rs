//! Golden-shape acceptance tests for the telemetry exporters on real
//! reproduction runs (the ISSUE's acceptance criteria):
//!
//! * the Chrome-trace produced by a full `repro`-equivalent run on CG and
//!   LU loads as **valid JSON** (checked with the workspace's strict
//!   parser, `mpi_dfa_core::json`) and contains the stable span names;
//! * the metrics dump includes per-tier governor transition counters and
//!   per-analysis fixpoint counters;
//! * the `repro` binary itself writes both files for `row CG
//!   --trace-out/--metrics-out`.
//!
//! The shallower string-shape checks live in `mpi-dfa-core`'s unit tests;
//! these are the end-to-end versions on the paper's benchmark programs.

use mpi_dfa_analyses::governor::{DegradeMode, GovernorConfig};
use mpi_dfa_core::budget::Budget;
use mpi_dfa_core::json::{self, Json};
use mpi_dfa_core::telemetry::{self, TraceLevel, TEST_SINK_GATE};
use mpi_dfa_suite::{by_id, runner};

// ---------------------------------------------------------------------------
// Acceptance tests
// ---------------------------------------------------------------------------

/// The span every full (round-robin) fixpoint records.
const FIXPOINT_SPAN: &str = "fixpoint:round_robin";

/// Assert `trace` is a valid Chrome trace of at least `min_events`
/// well-formed events, with balanced spans and every `required` name.
fn check_chrome_trace(trace: &str, min_events: usize, required: &[&str]) {
    let doc = json::parse(trace).expect("exporter output must be valid JSON");
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        panic!("traceEvents must be an array");
    };
    assert!(
        events.len() >= min_events,
        "expected at least {min_events} trace events, got {}",
        events.len()
    );
    assert_eq!(
        doc.get("displayTimeUnit").and_then(Json::as_str),
        Some("ms")
    );

    let mut begins = 0usize;
    let mut ends = 0usize;
    let mut names: Vec<&str> = Vec::new();
    for e in events {
        for key in ["name", "cat", "ph", "pid", "tid", "ts"] {
            assert!(e.get(key).is_some(), "every event needs `{key}`: {e:?}");
        }
        let ph = e.get("ph").and_then(Json::as_str).expect("ph is a string");
        assert!(
            matches!(ph, "B" | "E" | "i" | "C"),
            "unexpected phase {ph:?}"
        );
        match ph {
            "B" => begins += 1,
            "E" => ends += 1,
            _ => {}
        }
        names.push(e.get("name").and_then(Json::as_str).expect("name"));
    }
    assert_eq!(begins, ends, "every span must open and close");
    for required in required {
        assert!(
            names.contains(required),
            "trace must contain span `{required}`; span names seen: {:?}",
            {
                let mut n = names.clone();
                n.sort_unstable();
                n.dedup();
                n
            }
        );
    }
}

#[test]
fn chrome_trace_from_cg_and_lu_repro_is_valid_and_complete() {
    let _gate = TEST_SINK_GATE.lock().unwrap_or_else(|p| p.into_inner());
    telemetry::install(TraceLevel::Full);
    for id in ["CG", "LU-1"] {
        let spec = by_id(id).expect("known row");
        let row = runner::run_experiment(&spec);
        assert!(row.converged(), "{id} must reach its fixpoint");
    }
    let report = telemetry::finish();
    // A two-row reproduction must produce a substantial trace.
    check_chrome_trace(
        &telemetry::export_chrome_trace(&report.events),
        20,
        &[
            "compile",
            "lex",
            "parse",
            "sema",
            "cfg_build",
            "icfg_build",
            "clone_expansion",
            "mpi_matching",
            FIXPOINT_SPAN,
            "activity:vary",
            "activity:useful",
        ],
    );
}

#[test]
fn repro_row_writes_a_valid_trace_and_the_solver_metrics() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let trace_path = dir.join(format!("cg-trace-{}.json", std::process::id()));
    let metrics_path = dir.join(format!("cg-metrics-{}.txt", std::process::id()));
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["row", "CG", "--trace-out"])
        .arg(&trace_path)
        .arg("--metrics-out")
        .arg(&metrics_path)
        .output()
        .expect("repro runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let trace = std::fs::read_to_string(&trace_path).expect("trace written");
    let metrics = std::fs::read_to_string(&metrics_path).expect("metrics written");
    let _ = std::fs::remove_file(&trace_path);
    let _ = std::fs::remove_file(&metrics_path);

    check_chrome_trace(&trace, 1, &["compile", "mpi_matching", FIXPOINT_SPAN]);
    for analysis in ["vary", "useful"] {
        for base in [
            "solver_node_visits_total",
            "solver_meets_total",
            "solver_comm_evals_total",
            "solver_passes_total",
        ] {
            let series = format!("{base}{{analysis=\"{analysis}\"}} ");
            assert!(
                metrics.lines().any(|l| l.starts_with(&series)),
                "metrics file must contain `{series}`:\n{metrics}"
            );
        }
    }
}

#[test]
fn metrics_dump_includes_governor_tiers_and_per_analysis_counters() {
    let _gate = TEST_SINK_GATE.lock().unwrap_or_else(|p| p.into_inner());
    telemetry::install(TraceLevel::Full);

    let spec = by_id("CG").expect("known row");
    // A comfortably-budgeted governed run publishes at T0 ...
    let row = runner::run_experiment_governed(&spec, &GovernorConfig::default())
        .expect("governed run succeeds");
    assert!(row.converged());
    // ... and a starved one walks the whole ladder, exhausting every tier.
    let starved = GovernorConfig {
        budget: Budget::unlimited().with_max_work(1),
        degrade: DegradeMode::Auto,
        ..GovernorConfig::default()
    };
    let _ = runner::run_experiment_governed(&spec, &starved).expect("saturated, not an error");

    let report = telemetry::finish();
    let text = telemetry::export_metrics_text(&report.metrics);

    // Per-tier governor transition counters.
    for series in [
        "governor_tier_attempts_total{tier=\"T0\"}",
        "governor_tier_exhausted_total{tier=\"T0\"}",
        "governor_published_tier_total{tier=\"T0\"}",
        "governor_saturated_total",
    ] {
        assert!(
            text.contains(series),
            "metrics dump must contain `{series}`:\n{text}"
        );
    }
    // Per-analysis fixpoint counters, with values.
    for analysis in ["vary", "useful"] {
        for base in [
            "solver_node_visits_total",
            "solver_meets_total",
            "solver_comm_evals_total",
            "solver_passes_total",
        ] {
            let series = format!("{base}{{analysis=\"{analysis}\"}}");
            let value = report
                .metrics
                .get(&series)
                .unwrap_or_else(|| panic!("missing metric `{series}`:\n{text}"));
            assert!(*value > 0.0, "`{series}` must be positive");
        }
    }
    // The starved run attempted (and exhausted) the lower tiers too.
    assert!(
        text.contains("governor_tier_exhausted_total{tier=\"T2\"}")
            || text.contains("governor_tier_exhausted_total{tier=\"T1\"}"),
        "the starved ladder must record lower-tier exhaustion:\n{text}"
    );
}
