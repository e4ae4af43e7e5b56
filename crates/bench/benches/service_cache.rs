//! Service cache effectiveness: cold vs warm query latency on CG and LU.
//!
//! A warm query — the second time the service sees a request — must come
//! back from the content-addressed result cache, skipping parse, sema,
//! graph construction, matching, and both fixpoints. The bench *asserts*
//! the headline acceptance criterion: **warm ≥ 5× faster than cold** on
//! both benchmarks (in practice the ratio is orders of magnitude — a warm
//! hit is one LRU lookup plus a string clone).
//!
//! The final line is a machine-readable JSON summary; the checked-in
//! `BENCH_service.json` baseline is exactly that line.

use mpi_dfa_bench::{criterion_group, criterion_main, Criterion};
use mpi_dfa_service::{parse_request, Engine, EngineConfig, Request};
use std::hint::black_box;
use std::time::Instant;

/// Warm-speedup floor asserted per benchmark (the PR's acceptance bar).
const MIN_WARM_SPEEDUP: f64 = 5.0;

fn median_ns(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    samples[samples.len() / 2]
}

fn req(line: &str) -> Request {
    parse_request(line).expect("bench request parses")
}

/// Median cold latency: a FRESH engine per sample, so every layer misses.
fn time_cold(line: &str, samples: usize) -> f64 {
    let request = req(line);
    let mut times = Vec::with_capacity(samples);
    for _ in 0..samples {
        let engine = Engine::new(EngineConfig::default()).unwrap();
        let t = Instant::now();
        let resp = black_box(engine.handle(&request));
        times.push(t.elapsed().as_secs_f64() * 1e9);
        assert!(resp.contains("\"cache\":\"miss\""), "{resp:.200}");
    }
    median_ns(times)
}

/// Median warm latency: one engine, pre-warmed, every sample hits.
fn time_warm(line: &str, samples: usize) -> f64 {
    let request = req(line);
    let engine = Engine::new(EngineConfig::default()).unwrap();
    assert!(engine.handle(&request).contains("\"cache\":\"miss\""));
    let mut times = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t = Instant::now();
        let resp = black_box(engine.handle(&request));
        times.push(t.elapsed().as_secs_f64() * 1e9);
        assert!(resp.contains("\"cache\":\"hit\""), "{resp:.200}");
    }
    median_ns(times)
}

fn bench_service_cache(c: &mut Criterion) {
    let cases = [
        ("CG", r#"{"id":1,"kind":"table1-row","row":"CG"}"#),
        ("LU", r#"{"id":2,"kind":"table1-row","row":"LU-1"}"#),
    ];

    // Standard printout via the criterion-compatible harness.
    let mut group = c.benchmark_group("service_cache");
    group.sample_size(10);
    for (name, line) in cases {
        let request = req(line);
        group.bench_function(format!("{name}/cold"), |b| {
            b.iter(|| {
                let engine = Engine::new(EngineConfig::default()).unwrap();
                black_box(engine.handle(&request))
            });
        });
        let warm_engine = Engine::new(EngineConfig::default()).unwrap();
        warm_engine.handle(&request);
        group.bench_function(format!("{name}/warm"), |b| {
            b.iter(|| black_box(warm_engine.handle(&request)));
        });
    }
    group.finish();

    // Precise medians for the baseline JSON + the asserted speedup floor.
    let mut json_cases = Vec::new();
    for (name, line) in cases {
        let cold_ns = time_cold(line, 11);
        let warm_ns = time_warm(line, 51);
        let speedup = cold_ns / warm_ns;
        println!(
            "service_cache {name}: cold {cold_ns:.0}ns, warm {warm_ns:.0}ns \
             => {speedup:.0}x (floor {MIN_WARM_SPEEDUP}x)"
        );
        assert!(
            speedup >= MIN_WARM_SPEEDUP,
            "{name}: warm queries are only {speedup:.1}x faster than cold \
             (floor {MIN_WARM_SPEEDUP}x); the result cache is not being hit"
        );
        json_cases.push(format!(
            "{{\"bench\":\"{name}\",\"cold_ns_median\":{cold_ns:.0},\
             \"warm_ns_median\":{warm_ns:.0},\"speedup\":{speedup:.1}}}"
        ));
    }

    // Machine-readable baseline — `BENCH_service.json` is this line.
    println!(
        "{{\"bench\":\"service_cache\",\"min_warm_speedup\":{MIN_WARM_SPEEDUP},\
         \"cases\":[{}]}}",
        json_cases.join(","),
    );
}

criterion_group!(benches, bench_service_cache);
criterion_main!(benches);
