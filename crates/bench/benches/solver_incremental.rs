//! The demand solver mode's acceptance bench.
//!
//! One asserted floor on the LU benchmark (context `main`, clone level 1):
//! an activity-at-location query at the context entry must perform
//! **< 25% of the node visits** of the full fixpoint. The comparator is the
//! round-robin sweep — the classic whole-program iterative fixpoint the
//! demand mode exists to avoid.
//!
//! The number is not a timing: node visits are exact, deterministic
//! quantities, so the floor cannot flake with machine load.
//!
//! Around the floor, a **byte-identity sweep** runs over every Table 1
//! experiment row plus three generated programs, against the round-robin
//! solve of each: a demand for every node (the region engine over the
//! whole graph) must reproduce its facts and active set; and
//! each demand query at the context entry and at the last node must agree
//! with the full solution at the queried node while holding only slice
//! facts elsewhere (equal-or-bottom at every node).
//!
//! The final line is a machine-readable JSON summary; the checked-in
//! `BENCH_incremental.json` baseline is that line plus the date, git rev
//! and command it was recorded with.

use mpi_dfa_analyses::activity::{
    analyze_mpi_with, demand_active_at, ActivityConfig, ActivityResult, DemandActivity,
};
use mpi_dfa_analyses::mpi_match::{build_mpi_icfg, Matching};
use mpi_dfa_bench::{criterion_group, criterion_main, Criterion};
use mpi_dfa_core::graph::NodeId;
use mpi_dfa_core::solver::SolveParams;
use mpi_dfa_core::FlowGraph;
use mpi_dfa_graph::icfg::ProgramIr;
use mpi_dfa_graph::mpi::MpiIcfg;
use mpi_dfa_suite::gen::{generate, GenConfig};
use mpi_dfa_suite::{all_experiments, programs};
use std::hint::black_box;
use std::time::Instant;

/// Asserted ceiling on demand node visits as a fraction of the round-robin
/// full-fixpoint visits.
const MAX_DEMAND_VISIT_FRACTION: f64 = 0.25;

/// Timed iterations per mode in the LU timing comparison.
const SAMPLES: usize = 9;

fn median_ns(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    samples[samples.len() / 2]
}

/// One identity-sweep subject: a program, its analysis context, and the
/// activity config the sweep solves under.
struct Subject {
    label: String,
    src: String,
    context: String,
    clone_level: usize,
    config: ActivityConfig,
}

/// Every Table 1 experiment row plus three generated programs (first
/// global independent, last dependent).
fn subjects() -> Vec<Subject> {
    let mut v: Vec<Subject> = all_experiments()
        .into_iter()
        .map(|e| Subject {
            label: e.id.to_string(),
            src: programs::source(e.program)
                .expect("registered program")
                .to_string(),
            context: e.context.to_string(),
            clone_level: e.clone_level,
            config: ActivityConfig::new(
                e.independents.iter().copied(),
                e.dependents.iter().copied(),
            ),
        })
        .collect();
    for seed in 0..3u64 {
        let src = generate(seed, &GenConfig::default());
        let ir = ProgramIr::from_source(&src).expect("generated program compiles");
        let globals = &ir.unit.program.globals;
        let (first, last) = (
            globals.first().expect("generated globals").name.clone(),
            globals.last().expect("generated globals").name.clone(),
        );
        v.push(Subject {
            label: format!("gen_{seed}"),
            src,
            context: "main".to_string(),
            clone_level: 1,
            config: ActivityConfig::new([first], [last]),
        });
    }
    v
}

/// A demand for every node reproduces the full solve's facts and active
/// set. Pass counts and visit counters are iteration-scheme observability,
/// not semantics, so they are *not* compared.
fn assert_same_facts(label: &str, got: &DemandActivity, want: &ActivityResult) {
    assert_eq!(got.vary.input, want.vary.input, "{label}: vary IN facts");
    assert_eq!(got.vary.output, want.vary.output, "{label}: vary OUT facts");
    assert_eq!(
        got.useful.input, want.useful.input,
        "{label}: useful IN facts"
    );
    assert_eq!(
        got.useful.output, want.useful.output,
        "{label}: useful OUT facts"
    );
    assert_eq!(got.active, want.active, "{label}: active set");
}

/// The demand contract against a full solution: exact agreement at the
/// queried node, slice containment everywhere (each fact is either the
/// full solve's fact or bottom — demand never fabricates facts outside
/// its slice).
fn assert_demand_contained(label: &str, q: &DemandActivity, full: &ActivityResult, node: NodeId) {
    assert_eq!(
        q.vary.before(node),
        full.vary.before(node),
        "{label}: vary before queried node"
    );
    assert_eq!(
        q.vary.after(node),
        full.vary.after(node),
        "{label}: vary after queried node"
    );
    assert_eq!(
        q.useful.before(node),
        full.useful.before(node),
        "{label}: useful before queried node"
    );
    assert_eq!(
        q.useful.after(node),
        full.useful.after(node),
        "{label}: useful after queried node"
    );
    let mut want = full
        .vary
        .before(node)
        .intersection(full.useful.before(node));
    want.union_into(&full.vary.after(node).intersection(full.useful.after(node)));
    assert_eq!(q.active, want, "{label}: demand active-at answer");
    for (phase, ds, fs) in [
        ("vary", &q.vary, &full.vary),
        ("useful", &q.useful, &full.useful),
    ] {
        for (i, (d, f)) in ds.input.iter().zip(fs.input.iter()).enumerate() {
            assert!(
                d == f || d.is_empty(),
                "{label}: {phase} IN at node {i} is neither the full fact nor bottom"
            );
        }
        for (i, (d, f)) in ds.output.iter().zip(fs.output.iter()).enumerate() {
            assert!(
                d == f || d.is_empty(),
                "{label}: {phase} OUT at node {i} is neither the full fact nor bottom"
            );
        }
    }
}

fn graph_of(src: &str, context: &str, clone_level: usize) -> MpiIcfg {
    let ir = ProgramIr::from_source(src).expect("benchmark program compiles");
    build_mpi_icfg(ir, context, clone_level, Matching::ReachingConstants).expect("graph builds")
}

/// Identity sweep for one subject. Returns the demand checks performed.
fn sweep_subject(s: &Subject) -> usize {
    let mpi = graph_of(&s.src, &s.context, s.clone_level);
    let params = SolveParams::default();
    let reference = analyze_mpi_with(&mpi, &s.config, &params).expect("reference");
    assert!(reference.converged(), "{}: reference converged", s.label);

    let every: Vec<NodeId> = mpi.icfg().nodes().collect();
    let whole = demand_active_at(&mpi, &s.config, &params, &every).expect("demand everywhere");
    assert_same_facts(
        &format!("{} demand everywhere", s.label),
        &whole,
        &reference,
    );

    // Demand containment at the context entry and the last node (the two
    // slice extremes).
    let last = NodeId(mpi.num_nodes() as u32 - 1);
    let mut checks = 1;
    for node in [mpi.icfg().context_entry(), last] {
        let q = demand_active_at(&mpi, &s.config, &params, &[node]).expect("demand query");
        assert_demand_contained(
            &format!("{} demand@{node:?}", s.label),
            &q,
            &reference,
            node,
        );
        checks += 1;
    }
    checks
}

fn bench_solver_incremental(c: &mut Criterion) {
    // --- Asserted floor on LU (context `main`, clone level 1). ---
    let config = ActivityConfig::new(["u"], ["rsd"]);
    let params = SolveParams::default();
    let mpi = graph_of(programs::LU, "main", 1);
    let nodes = mpi.num_nodes();

    let full = analyze_mpi_with(&mpi, &config, &params).expect("LU round-robin fixpoint");
    let rr_visits = full.vary.stats.node_visits + full.useful.stats.node_visits;
    let entry = mpi.icfg().context_entry();
    let q = demand_active_at(&mpi, &config, &params, &[entry]).expect("LU demand query");
    let visit_fraction = q.nodes_visited as f64 / rr_visits as f64;
    println!(
        "solver_incremental LU demand@entry: {} visits vs round-robin fixpoint {} \
         ({:.1}%, ceiling {:.0}%)",
        q.nodes_visited,
        rr_visits,
        visit_fraction * 100.0,
        MAX_DEMAND_VISIT_FRACTION * 100.0,
    );
    assert!(
        visit_fraction < MAX_DEMAND_VISIT_FRACTION,
        "demand query visited {:.1}% of the full fixpoint's nodes (ceiling {:.0}%)",
        visit_fraction * 100.0,
        MAX_DEMAND_VISIT_FRACTION * 100.0
    );

    // --- Byte-identity sweep: Table 1 + generated programs. ---
    let mut programs_swept = 0usize;
    let mut demand_checks = 0usize;
    for s in subjects() {
        demand_checks += sweep_subject(&s);
        programs_swept += 1;
    }
    println!(
        "solver_incremental identity sweep: {programs_swept} programs, \
         {demand_checks} demand checks — all byte-identical"
    );

    // --- Timings: round-robin full solve vs demand on LU. ---
    let mut group = c.benchmark_group("solver_incremental/lu");
    group.sample_size(10);
    group.bench_function("cold", |b| {
        b.iter(|| black_box(analyze_mpi_with(&mpi, &config, &params).expect("cold")));
    });
    group.bench_function("demand", |b| {
        b.iter(|| black_box(demand_active_at(&mpi, &config, &params, &[entry]).expect("demand")));
    });
    group.finish();

    let time_median = |f: &dyn Fn()| {
        let mut times = Vec::with_capacity(SAMPLES);
        for _ in 0..SAMPLES {
            let t = Instant::now();
            f();
            times.push(t.elapsed().as_secs_f64() * 1e9);
        }
        median_ns(times)
    };
    let cold_ns = time_median(&|| {
        black_box(analyze_mpi_with(&mpi, &config, &params).expect("cold"));
    });
    let demand_ns = time_median(&|| {
        black_box(demand_active_at(&mpi, &config, &params, &[entry]).expect("demand"));
    });

    // Machine-readable baseline — `BENCH_incremental.json` is this line.
    println!(
        "{{\"bench\":\"solver_incremental\",\
         \"demand\":{{\"program\":\"lu\",\"context\":\"main\",\"clone_level\":1,\
         \"nodes\":{nodes},\"at\":\"context_entry\",\"nodes_visited\":{dv},\
         \"full_fixpoint\":\"round_robin\",\"full_fixpoint_visits\":{rr_visits},\
         \"visit_fraction\":{visit_fraction:.4},\
         \"max_visit_fraction\":{MAX_DEMAND_VISIT_FRACTION}}},\
         \"identity\":{{\"programs\":{programs_swept},\"demand_checks\":{demand_checks},\
         \"all_byte_identical\":true}},\
         \"timing_ns\":{{\"cold\":{cold_ns:.0},\"demand\":{demand_ns:.0}}}}}",
        dv = q.nodes_visited,
    );
}

criterion_group!(benches, bench_solver_incremental);
criterion_main!(benches);
