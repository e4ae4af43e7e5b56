//! The benchmark's own checks: runs repeat exactly, traced runs give the
//! untraced answers, spans nest, and BENCHMARK.json names every metric.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.
//! The `serve-mixed` test needs the `mpidfa` binary in the same target
//! directory (`run.py` builds it there) and is skipped without it.

use mpi_dfa_service::json::{self, Json};
use perfbench::harness::{Cfg, Report};
use perfbench::trace;
use std::path::PathBuf;

fn cfg(max_ops: u64, trace: bool) -> Cfg {
    Cfg {
        seed: 7,
        seconds: 0.0,
        max_ops: Some(max_ops),
        trace,
        scratch: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-test"),
        mpidfa: mpidfa(),
    }
}

/// `<target>/release/mpidfa`, next to this test's `deps/` directory.
fn mpidfa() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let bin = exe.parent()?.parent()?.join("mpidfa");
    bin.exists().then_some(bin)
}

fn run(workload: &str, c: &Cfg) -> Report {
    let r = perfbench::run(workload, c).unwrap_or_else(|e| panic!("{workload}: {e}"));
    assert_eq!(r.failed, 0, "{workload}: {:?}", r.errors);
    assert!(r.errors.is_empty(), "{workload}: {:?}", r.errors);
    assert_eq!(r.attempted, c.max_ops.unwrap(), "{workload}");
    r
}

/// Two runs of `ops` ops agree exactly; so does a traced run, whose odd
/// cycles go through the per-layer entry points instead.
fn repeats_exactly(workload: &str, ops: u64) {
    let a = run(workload, &cfg(ops, false));
    let b = run(workload, &cfg(ops, false));
    assert_eq!(
        a.digest, b.digest,
        "{workload}: answers differ between runs"
    );
    assert_eq!(
        a.work, b.work,
        "{workload}: work counts differ between runs"
    );
    let t = run(workload, &cfg(ops, true));
    assert_eq!(a.digest, t.digest, "{workload}: traced answers differ");
    assert_eq!(a.work, t.work, "{workload}: traced work counts differ");
    trace::check_nesting(&t.spans).unwrap();
}

#[test]
fn table1_repeats_exactly() {
    // Two cycles over the 13 rows: one untraced, one traced.
    repeats_exactly("table1", 26);
}

#[test]
fn generated_repeats_exactly() {
    let n = perfbench::generated::pins().len() as u64;
    repeats_exactly("generated", 2 * n);
}

#[test]
fn verify_repeats_exactly() {
    repeats_exactly("verify", 24);
}

#[test]
fn serve_mixed_repeats_exactly() {
    let Some(_) = mpidfa() else {
        eprintln!("skipped: no mpidfa binary next to the test (build it into the same target)");
        return;
    };
    let a = run("serve-mixed", &cfg(400, false));
    let b = run("serve-mixed", &cfg(400, false));
    assert_eq!(
        a.digest, b.digest,
        "serve-mixed: answers differ between runs"
    );
}

#[test]
fn traced_spans_nest_and_children_fit_their_parent() {
    let r = run("table1", &cfg(26, true));
    trace::check_nesting(&r.spans).unwrap();
    let costs = trace::self_costs(&r.spans);
    let mut children_self = vec![0u64; r.spans.len()];
    for (s, c) in r.spans.iter().zip(&costs) {
        if let Some(p) = s.parent {
            children_self[p] += c.0;
        }
    }
    for (i, s) in r.spans.iter().enumerate() {
        assert!(
            children_self[i] <= s.dur_ns(),
            "children of span {i} `{}`",
            s.name
        );
    }
    let layers = trace::by_layer(&r.spans);
    for name in [
        "lang.compile",
        "graph.lower",
        "graph.icfg",
        "analyses.consts",
        "graph.mpi",
        "analyses.activity",
    ] {
        assert!(
            layers.get(name).is_some_and(|c| c.spans >= 13),
            "{name} spans missing"
        );
    }
}

fn names(v: &Json, key: &str) -> Vec<(String, String)> {
    v.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json: `{key}` is not a list"))
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_names_every_workload_and_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let v = json::parse(&text).expect("BENCHMARK.json parses");
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names(&v, "end_to_end"), own(perfbench::END_TO_END));
    assert_eq!(names(&v, "per_layer"), own(perfbench::PER_LAYER));
    let workloads: Vec<String> = names(&v, "workloads").into_iter().map(|w| w.0).collect();
    assert_eq!(workloads, perfbench::WORKLOADS);
}

#[test]
fn result_line_has_exactly_the_contract_keys() {
    let r = run("table1", &cfg(13, false));
    let line = perfbench::result_json(&r, false);
    let v = json::parse(&line).unwrap();
    let Json::Obj(fields) = &v else {
        panic!("{line}")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let Some(Json::Obj(metrics)) = v.get("metrics") else {
        panic!("{line}")
    };
    assert_eq!(metrics.len(), perfbench::END_TO_END.len());
}
