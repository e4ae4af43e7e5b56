//! Source-to-answer benchmark of the mpi-dfa pipeline.
//!
//! Four workloads (README.md says why each was chosen): `table1`,
//! `generated` and `verify` run in this process; `serve-mixed` drives a
//! `mpidfa serve --shards 1` daemon over TCP. An untraced run reports the
//! [`END_TO_END`] metrics; a traced run re-runs the same operations
//! through each crate's public entry points inside spans recorded by
//! [`trace::Tracer`] and reports the [`PER_LAYER`] ledger.

pub mod alloc;
pub mod generated;
pub mod harness;
pub mod serve;
pub mod speed;
pub mod stats;
pub mod table1;
pub mod trace;
pub mod verify;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

pub const WORKLOADS: &[&str] = &["table1", "generated", "serve-mixed", "verify"];

/// End-to-end metrics (untraced runs), with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("op_ms_p99", "ms"),
    ("ops_per_s", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MiB"),
    ("ok_ratio", "ratio"),
];

/// Per-layer metrics (traced runs), with units. A layer a workload does
/// not call reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("lang.compile.ms_per_op", "ms"),
    ("lang.compile.share", "%"),
    ("lang.compile.allocs_per_op", "count"),
    ("lang.compile.src_kb_per_ms", "KiB/ms"),
    ("graph.lower.ms_per_op", "ms"),
    ("graph.lower.share", "%"),
    ("graph.lower.allocs_per_op", "count"),
    ("graph.cfg_nodes", "count"),
    ("graph.icfg.ms_per_op", "ms"),
    ("graph.icfg.share", "%"),
    ("graph.icfg.nodes", "count"),
    ("graph.icfg.edges", "count"),
    ("analyses.consts.ms_per_op", "ms"),
    ("analyses.consts.share", "%"),
    ("analyses.consts.node_visits", "count"),
    ("graph.mpi.ms_per_op", "ms"),
    ("graph.mpi.share", "%"),
    ("graph.mpi.comm_edges", "count"),
    ("graph.mpi.kept_ratio", "ratio"),
    ("analyses.activity.ms_per_op", "ms"),
    ("analyses.activity.share", "%"),
    ("analyses.activity.allocs_per_op", "count"),
    ("analyses.baseline.ms_per_op", "ms"),
    ("analyses.governor.overhead_ms_per_op", "ms"),
    ("core.solver.node_visits", "count"),
    ("core.solver.comm_evals", "count"),
    ("core.solver.meets", "count"),
    ("core.solver.passes", "count"),
    ("core.solver.ns_per_visit", "ns"),
    ("core.solver.useful_visit_ratio", "ratio"),
    ("mem.free.ms_per_op", "ms"),
    ("mem.free.share", "%"),
    ("verify.static.ms_per_op", "ms"),
    ("verify.crosscheck.ms_per_op", "ms"),
    ("verify.crosscheck.share", "%"),
    ("verify.crosscheck.schedules", "count"),
    ("verify.crosscheck.ms_per_schedule", "ms"),
    ("service.proto.us_per_req", "us"),
    ("service.engine.hit_us", "us"),
    ("service.engine.miss_ms", "ms"),
    ("service.engine.delta_ms", "ms"),
    ("service.cache.result_hit_ratio", "ratio"),
    ("service.cache.ir_hit_ratio", "ratio"),
    ("service.cache.proccfg_hit_ratio", "ratio"),
    ("service.admission.shed", "count"),
    ("service.delta.partial_ratio", "ratio"),
    ("service.router.hop_us", "us"),
    ("service.net.client_overhead_us", "us"),
    ("service.miss.client_us", "us"),
    ("service.miss.router_us", "us"),
    ("service.miss.worker_us", "us"),
    ("service.miss.engine_us", "us"),
    ("trace.overhead_pct", "%"),
    ("trace.accounted_pct", "%"),
];

/// Run one workload.
pub fn run(workload: &str, cfg: &harness::Cfg) -> Result<harness::Report, String> {
    use harness::run_in_process;
    match workload {
        "table1" => Ok(run_in_process::<table1::Table1>(cfg)),
        "generated" => Ok(run_in_process::<generated::Generated>(cfg)),
        "verify" => Ok(run_in_process::<verify::VerifyWorkload>(cfg)),
        "serve-mixed" => serve::run(cfg),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// The result line: every metric of the run's kind, in canonical order
/// with canonical units (0 for a layer the workload does not call).
pub fn result_json(report: &harness::Report, trace: bool) -> String {
    let names = if trace { PER_LAYER } else { END_TO_END };
    let metrics: Vec<String> = names
        .iter()
        .map(|&(name, unit)| {
            let value = report
                .metrics
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0 && report.errors.is_empty(),
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}
