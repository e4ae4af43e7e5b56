//! Incremental and demand solver modes — the PR's acceptance bench.
//!
//! Two asserted floors on the LU benchmark (context `main`, clone level 1):
//!
//! * **incremental**: the canonical one-procedure edit (two `print`
//!   statements inserted into LU's first procedure) must re-solve **< 10%
//!   of the SCC regions** — everything else transplants from the seed by
//!   fingerprint;
//! * **demand**: an activity-at-location query at the context entry must
//!   perform **< 25% of the node visits** of the full fixpoint. The
//!   comparator is the round-robin sweep — the classic whole-program
//!   iterative fixpoint the demand mode exists to avoid.
//!
//! Neither number is a timing: region counts and node visits are exact,
//! deterministic quantities, so the floors cannot flake with machine load.
//!
//! Around the floors, a cross-mode **byte-identity sweep** runs over every
//! Table 1 experiment row plus three generated programs: the cold solve of
//! the edited program is asserted fact-identical under both strategies;
//! the seeded incremental re-solve is asserted identical to the cold region
//! solve **including counters** (facts, active set, ActiveBytes, pass
//! counts, node visits — transplanted regions carry their original solve's
//! stats); and each demand query must agree with the full solution at the
//! queried node while holding only slice facts elsewhere (equal-or-bottom
//! at every node).
//!
//! The final line is a machine-readable JSON summary; the checked-in
//! `BENCH_incremental.json` baseline is that line plus the date, git rev
//! and command it was recorded with.

use mpi_dfa_analyses::activity::{
    analyze_mpi_delta, analyze_mpi_with, demand_active_at, ActivityConfig, ActivityResult,
};
use mpi_dfa_analyses::mpi_match::{build_mpi_icfg, Matching};
use mpi_dfa_bench::{criterion_group, criterion_main, Criterion};
use mpi_dfa_core::graph::NodeId;
use mpi_dfa_core::solver::{SolveParams, Strategy};
use mpi_dfa_core::FlowGraph;
use mpi_dfa_graph::icfg::{dirty_procs, ProgramIr};
use mpi_dfa_graph::mpi::MpiIcfg;
use mpi_dfa_suite::gen::{generate, GenConfig};
use mpi_dfa_suite::{all_experiments, programs};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Asserted ceiling on the fraction of regions the LU one-procedure edit
/// re-solves.
const MAX_RESOLVED_FRACTION: f64 = 0.10;

/// Asserted ceiling on demand node visits as a fraction of the round-robin
/// full-fixpoint visits.
const MAX_DEMAND_VISIT_FRACTION: f64 = 0.25;

/// Timed iterations per mode in the LU timing comparison.
const SAMPLES: usize = 9;

fn median_ns(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    samples[samples.len() / 2]
}

fn params(strategy: Strategy) -> SolveParams {
    SolveParams {
        strategy,
        ..SolveParams::default()
    }
}

/// The canonical one-procedure edit (PR 4's LU delta): two fact-neutral
/// `print` statements inserted at the top of the program's first
/// procedure.
fn edit_first_proc(src: &str) -> String {
    let at = src.find("sub ").expect("benchmark program has a procedure");
    let pos = at + src[at..].find('{').expect("procedure has a body") + 1;
    format!("{} print(1.0); print(2.0);{}", &src[..pos], &src[pos..])
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

/// Fact-level byte identity — what every strategy must agree on. Pass
/// counts and visit counters are iteration-scheme observability, not
/// semantics, so they are *not* compared across strategies.
fn assert_same_facts(label: &str, got: &ActivityResult, want: &ActivityResult) {
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
    assert_eq!(got.active_bytes, want.active_bytes, "{label}: ActiveBytes");
}

/// Full byte identity: facts plus the deterministic counters. Holds
/// between a seeded incremental re-solve and a cold solve under the
/// *same* strategy — transplanted regions carry their original solve's
/// stats, so even `node_visits` matches exactly.
fn assert_identical(label: &str, got: &ActivityResult, want: &ActivityResult) {
    assert_same_facts(label, got, want);
    assert_eq!(got.iterations, want.iterations, "{label}: pass counts");
    assert_eq!(
        got.vary.stats.node_visits, want.vary.stats.node_visits,
        "{label}: vary node visits"
    );
    assert_eq!(
        got.useful.stats.node_visits, want.useful.stats.node_visits,
        "{label}: useful node visits"
    );
}

/// The demand contract against a full solution: exact agreement at the
/// queried node, slice containment everywhere (each fact is either the
/// full solve's fact or bottom — demand never fabricates facts outside
/// its slice).
fn assert_demand_contained(
    label: &str,
    q: &mpi_dfa_analyses::activity::DemandActivity,
    full: &ActivityResult,
    node: NodeId,
) {
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

fn graph_of(src: &str, context: &str, clone_level: usize) -> (Arc<ProgramIr>, MpiIcfg) {
    let ir = ProgramIr::from_source(src).expect("benchmark program compiles");
    let mpi = build_mpi_icfg(
        ir.clone(),
        context,
        clone_level,
        Matching::ReachingConstants,
    )
    .expect("graph builds");
    (ir, mpi)
}

/// Cross-mode identity sweep for one subject. Returns (incremental checks,
/// demand checks) performed.
fn sweep_subject(s: &Subject) -> (usize, usize) {
    let (base_ir, base_mpi) = graph_of(&s.src, &s.context, s.clone_level);
    let edited = edit_first_proc(&s.src);
    let (edit_ir, edit_mpi) = graph_of(&edited, &s.context, s.clone_level);
    let dirty = edit_mpi
        .icfg()
        .nodes_of_procs(&dirty_procs(&base_ir, &edit_ir));

    // Cold solves of the edited program under both strategies.
    let region = params(Strategy::Region);
    let reference =
        analyze_mpi_with(&edit_mpi, &s.config, &params(Strategy::RoundRobin)).expect("reference");
    assert!(reference.converged(), "{}: reference converged", s.label);
    let cold = analyze_mpi_with(&edit_mpi, &s.config, &region).expect("cold solve");
    assert_same_facts(&format!("{} cold region", s.label), &cold, &reference);

    // Seeded incremental re-solve: byte-identical to the cold region solve
    // (hence fact-identical to round-robin).
    let prev = analyze_mpi_with(&base_mpi, &s.config, &region).expect("base solve");
    assert!(
        prev.vary.regions.is_some(),
        "{}: region base solve captures a seed",
        s.label
    );
    let delta =
        analyze_mpi_delta(&edit_mpi, &s.config, &region, &prev, &dirty).expect("seeded re-solve");
    assert_identical(&format!("{} incremental", s.label), &delta.result, &cold);
    assert_eq!(
        delta.regions_reused + delta.regions_resolved,
        delta.regions_total,
        "{}: region accounting",
        s.label
    );
    let incremental_checks = 1;

    // Demand containment at the context entry and the last node of the
    // edited graph (the two slice extremes).
    let icfg = edit_mpi.icfg();
    let last = NodeId(edit_mpi.num_nodes() as u32 - 1);
    let mut demand_checks = 0;
    for node in [icfg.context_entry(), last] {
        let q = demand_active_at(&edit_mpi, &s.config, &SolveParams::default(), &[node])
            .expect("demand query");
        assert_demand_contained(
            &format!("{} demand@{node:?}", s.label),
            &q,
            &reference,
            node,
        );
        demand_checks += 1;
    }
    (incremental_checks, demand_checks)
}

fn bench_solver_incremental(c: &mut Criterion) {
    // --- Asserted floors on LU (context `main`, clone level 1). ---
    let base_src = programs::LU;
    let edited_src = edit_first_proc(base_src);
    let config = ActivityConfig::new(["u"], ["rsd"]);
    let region = params(Strategy::Region);
    let (base_ir, base_mpi) = graph_of(base_src, "main", 1);
    let (edit_ir, edit_mpi) = graph_of(&edited_src, "main", 1);
    let dirty_names = dirty_procs(&base_ir, &edit_ir);
    let dirty = edit_mpi.icfg().nodes_of_procs(&dirty_names);
    let nodes = base_mpi.num_nodes();

    let prev = analyze_mpi_with(&base_mpi, &config, &region).expect("LU base solve");
    let delta = analyze_mpi_delta(&edit_mpi, &config, &region, &prev, &dirty).expect("LU delta");
    let resolved_fraction = delta.regions_resolved as f64 / delta.regions_total as f64;
    println!(
        "solver_incremental LU edit: dirty procs {dirty_names:?}, resolved {}/{} regions \
         ({:.1}%, ceiling {:.0}%)",
        delta.regions_resolved,
        delta.regions_total,
        resolved_fraction * 100.0,
        MAX_RESOLVED_FRACTION * 100.0
    );
    assert!(
        resolved_fraction < MAX_RESOLVED_FRACTION,
        "one-procedure LU edit re-solved {:.1}% of regions (ceiling {:.0}%)",
        resolved_fraction * 100.0,
        MAX_RESOLVED_FRACTION * 100.0
    );

    let full_rr = analyze_mpi_with(&base_mpi, &config, &params(Strategy::RoundRobin))
        .expect("LU round-robin fixpoint");
    let rr_visits = full_rr.vary.stats.node_visits + full_rr.useful.stats.node_visits;
    let entry = base_mpi.icfg().context_entry();
    let q = demand_active_at(&base_mpi, &config, &SolveParams::default(), &[entry])
        .expect("LU demand query");
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

    // --- Cross-mode byte-identity sweep: Table 1 + generated programs. ---
    let mut programs_swept = 0usize;
    let mut incremental_checks = 0usize;
    let mut demand_checks = 0usize;
    for s in subjects() {
        let (inc, dem) = sweep_subject(&s);
        programs_swept += 1;
        incremental_checks += inc;
        demand_checks += dem;
    }
    println!(
        "solver_incremental identity sweep: {programs_swept} programs, \
         {incremental_checks} incremental checks, {demand_checks} demand checks — \
         all byte-identical"
    );

    // --- Timings: cold vs incremental vs demand on LU. ---
    let mut group = c.benchmark_group("solver_incremental/lu");
    group.sample_size(10);
    group.bench_function("cold", |b| {
        b.iter(|| black_box(analyze_mpi_with(&edit_mpi, &config, &region).expect("cold")));
    });
    group.bench_function("incremental", |b| {
        b.iter(|| {
            black_box(analyze_mpi_delta(&edit_mpi, &config, &region, &prev, &dirty).expect("delta"))
        });
    });
    group.bench_function("demand", |b| {
        b.iter(|| {
            black_box(
                demand_active_at(&base_mpi, &config, &SolveParams::default(), &[entry])
                    .expect("demand"),
            )
        });
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
        black_box(analyze_mpi_with(&edit_mpi, &config, &region).expect("cold"));
    });
    let incremental_ns = time_median(&|| {
        black_box(analyze_mpi_delta(&edit_mpi, &config, &region, &prev, &dirty).expect("delta"));
    });
    let demand_ns = time_median(&|| {
        black_box(
            demand_active_at(&base_mpi, &config, &SolveParams::default(), &[entry])
                .expect("demand"),
        );
    });

    // Machine-readable baseline — `BENCH_incremental.json` is this line.
    let dirty_json = format!(
        "[{}]",
        dirty_names
            .iter()
            .map(|p| format!("\"{p}\""))
            .collect::<Vec<_>>()
            .join(",")
    );
    println!(
        "{{\"bench\":\"solver_incremental\",\"edit\":{{\"program\":\"lu\",\"context\":\"main\",\
         \"clone_level\":1,\"nodes\":{nodes},\"dirty_procs\":{dirty_json},\
         \"regions_total\":{rt},\"regions_reused\":{ru},\"regions_resolved\":{rr},\
         \"resolved_fraction\":{rf:.4},\"max_resolved_fraction\":{MAX_RESOLVED_FRACTION}}},\
         \"demand\":{{\"program\":\"lu\",\"at\":\"context_entry\",\"nodes_visited\":{dv},\
         \"full_fixpoint\":\"round_robin\",\"full_fixpoint_visits\":{rrv},\
         \"visit_fraction\":{vf:.4},\
         \"max_visit_fraction\":{MAX_DEMAND_VISIT_FRACTION}}},\
         \"identity\":{{\"programs\":{programs_swept},\"strategies\":2,\
         \"incremental_checks\":{incremental_checks},\
         \"demand_checks\":{demand_checks},\"all_byte_identical\":true}},\
         \"timing_ns\":{{\"cold\":{cold_ns:.0},\"incremental\":{incremental_ns:.0},\
         \"demand\":{demand_ns:.0}}}}}",
        rt = delta.regions_total,
        ru = delta.regions_reused,
        rr = delta.regions_resolved,
        rf = resolved_fraction,
        dv = q.nodes_visited,
        rrv = rr_visits,
        vf = visit_fraction,
    );
}

criterion_group!(benches, bench_solver_incremental);
criterion_main!(benches);
