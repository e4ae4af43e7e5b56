//! The packed reaching-constants encoding against its unpacked reference.
//!
//! `ReachingConsts` keeps one pool cell per location and reads operands
//! recorded at lowering; `oracle/consts_ref.rs` keeps a
//! `ConstLattice<CVal>` per location and resolves names. On the 13 Table-1
//! rows, on 240 generated programs and on programs built around signed
//! zeros and NaN, over the plain ICFG (the matching bootstrap) and the
//! MPI-ICFG, the decoded facts must equal the reference facts at every node
//! and location, and print the same; both solves must count the same
//! visits, meets, passes and comm evaluations; and matching over either
//! bootstrap must draw the same communication edges.

#[path = "oracle/consts_ref.rs"]
mod consts_ref;

use consts_ref::{RefConsts, RefQuery};
use mpi_dfa_analyses::consts::ReachingConsts;
use mpi_dfa_analyses::mpi_match::{build_mpi_icfg, Matching};
use mpi_dfa_core::graph::FlowGraph;
use mpi_dfa_core::solver::Solver;
use mpi_dfa_graph::icfg::{Icfg, ProgramIr};
use mpi_dfa_graph::loc::Loc;
use mpi_dfa_graph::mpi::MpiIcfg;
use mpi_dfa_suite::gen::{generate, GenConfig};
use mpi_dfa_suite::{all_experiments, programs};
use std::sync::Arc;

/// Solve both encodings over `graph` and compare them node by node.
fn assert_same_facts<G: FlowGraph>(label: &str, icfg: &Icfg, graph: &G) {
    let packed = ReachingConsts::new(icfg);
    let got = Solver::new(&packed, graph).run();
    let reference = Solver::new(&RefConsts::new(icfg), graph).run();
    for (stat, a, b) in [
        (
            "node_visits",
            got.stats.node_visits,
            reference.stats.node_visits,
        ),
        ("meets", got.stats.meets, reference.stats.meets),
        (
            "comm_evals",
            got.stats.comm_evals,
            reference.stats.comm_evals,
        ),
        (
            "passes",
            got.stats.passes as u64,
            reference.stats.passes as u64,
        ),
    ] {
        assert_eq!(a, b, "{label}: {stat}");
    }
    assert!(got.stats.converged, "{label}");
    let pool = packed.pool();
    for n in 0..graph.num_nodes() {
        for (side, cells, values) in [
            ("in", &got.input[n], &reference.input[n]),
            ("out", &got.output[n], &reference.output[n]),
        ] {
            for (l, want) in values.0.iter().enumerate() {
                let value = pool.value(cells.get(Loc(l as u32)));
                assert_eq!(value, want, "{label}: node {n} {side}, location {l}");
                assert_eq!(
                    value.to_string(),
                    want.to_string(),
                    "{label}: node {n} {side}, location {l} prints"
                );
            }
        }
    }
}

/// Both encodings over the ICFG and the MPI-ICFG of one program, and the
/// comm edges matching draws from each bootstrap.
fn check(label: &str, ir: &Arc<ProgramIr>, context: &str, clone_level: usize) {
    let build = || Icfg::build(ir.clone(), context, clone_level).expect("icfg");
    let icfg = build();
    assert_same_facts(&format!("{label} icfg"), &icfg, &icfg);

    let mpi = build_mpi_icfg(
        ir.clone(),
        context,
        clone_level,
        Matching::ReachingConstants,
    )
    .expect("mpi-icfg");
    let problem = RefConsts::new(&icfg);
    let env_at = Solver::new(&problem, &icfg).run().input;
    let by_reference = MpiIcfg::build(build(), &RefQuery { problem, env_at });
    assert_eq!(
        mpi.comm_edges, by_reference.comm_edges,
        "{label}: comm edges"
    );
    assert_same_facts(&format!("{label} mpi-icfg"), mpi.icfg(), &mpi);
}

#[test]
fn table1_rows_decode_to_the_reference_facts() {
    let rows = all_experiments();
    assert_eq!(rows.len(), 13);
    for spec in rows {
        check(
            spec.id,
            &programs::ir(spec.program),
            spec.context,
            spec.clone_level,
        );
    }
}

#[test]
fn generated_programs_decode_to_the_reference_facts() {
    let (mut any, mut allreduce_max, mut intrinsics) = (0, 0, 0);
    for seed in 0..240u64 {
        let src = generate(seed, &GenConfig::default());
        any += usize::from(src.contains("ANY"));
        allreduce_max += usize::from(src.contains("allreduce(MAX"));
        intrinsics += usize::from(src.contains("sqrt(abs("));
        let ir = ProgramIr::from_source(&src).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        check(&format!("seed {seed}"), &ir, "main", (seed % 2) as usize);
    }
    // The corpus exercises what the encoding must get right: wildcard
    // receives, idempotent reductions and folded intrinsics.
    assert!(
        any > 20 && allreduce_max > 20 && intrinsics > 20,
        "{any} / {allreduce_max} / {intrinsics}"
    );
}

#[test]
fn signed_zeros_and_nan_decode_and_print_as_the_reference() {
    // `0.0 == -0.0` and NaN == NaN as constants, but the zeros print
    // differently: each location must keep the zero that reached it.
    let programs = [
        "x = -(0.0); y = 0.0; z = x; w = y * -1.0;",
        "if (rank() == 0) { x = 0.0; } else { x = -(0.0); } y = x;",
        "if (rank() == 0) { x = -(0.0); } else { x = 0.0; } y = x + 0.0;",
        "x = 0.0; k = 0; while (k < 3) { x = -(x); k = k + 1; } y = x;",
        "x = -(0.0); if (rank() == 0) { send(x, 1, 5); } else { recv(y, 0, 5); }",
        "x = 0.0; if (rank() == 0) { x = -(0.0); } bcast(x, 0); allreduce(MAX, x, y);",
        "x = 0.0; call flip(x); call flip(y);",
        "x = exp(1000.0) - exp(1000.0); y = -(x); z = max(x, 1.0);",
    ];
    for (i, body) in programs.iter().enumerate() {
        let src = format!(
            "program z global x: real; global y: real; global z: real; global w: real;\n\
             global k: int;\n\
             sub flip(v: real) {{ v = -(v); }}\n\
             sub main() {{ {body} }}"
        );
        let ir = ProgramIr::from_source(&src).unwrap_or_else(|e| panic!("{body}: {e}"));
        for clone in 0..2 {
            check(&format!("zeros {i} clone {clone}"), &ir, "main", clone);
        }
    }
}
