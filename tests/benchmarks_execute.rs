//! The benchmark programs are real SPMD programs: they run to completion
//! under the rank-simulating interpreter, communicate, and produce
//! deterministic results.
//!
//! LU and MG run as well: their Table-1-accurate array declarations are
//! hundreds of megabytes per rank, but the interpreter keeps arrays sparse,
//! so declared size costs nothing. `tests/interp_golden.rs` pins all seven
//! programs.

use mpi_dfa::lang::interp::{run, InterpConfig, ProcessResult};
use mpi_dfa::prelude::*;

fn execute(name: &str, nprocs: usize) -> Vec<ProcessResult> {
    let unit = compile(mpi_dfa::suite::programs::source(name).unwrap())
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    run(
        &unit.program,
        &InterpConfig {
            nprocs,
            ..Default::default()
        },
    )
    .unwrap_or_else(|e| panic!("{name}: {e}"))
}

#[test]
fn biostat_runs_and_reduces_on_root() {
    let results = execute("biostat", 4);
    assert_eq!(results.len(), 4);
    // Root prints the reduced log-likelihood; every rank prints something
    // (the final print is outside the rank branch).
    for r in &results {
        assert_eq!(r.printed.len(), 1);
    }
    assert!(results[0].printed[0].is_finite());
    // The broadcast really communicated.
    assert!(results.iter().all(|r| r.sends + r.recvs > 0));
}

#[test]
fn biostat_is_deterministic() {
    let a = execute("biostat", 3);
    let b = execute("biostat", 3);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.printed, y.printed);
    }
}

#[test]
fn sor_halo_exchange_converges() {
    let results = execute("sor", 4);
    // allreduce gives every rank the same residual.
    let resid = results[0].printed[0];
    for r in &results {
        assert_eq!(r.printed, vec![resid]);
        assert!(resid.is_finite());
    }
    // Interior ranks send in both directions across 4 sweeps.
    assert!(results[1].sends >= 8, "rank 1 sends: {}", results[1].sends);
}

#[test]
fn cg_iterates_and_agrees_on_the_norm() {
    let results = execute("cg", 4);
    let norm = results[0].printed[0];
    assert!(norm.is_finite() && norm >= 0.0);
    for r in &results {
        assert_eq!(r.printed, vec![norm], "allreduce must agree across ranks");
    }
}

#[test]
fn sweep3d_pipeline_flows_downstream() {
    let results = execute("sweep3d", 4);
    for r in &results {
        assert_eq!(r.printed.len(), 2);
        assert!(r.printed.iter().all(|v| v.is_finite()));
    }
    // The wavefront: rank 0 sends planes downstream, rank 3 receives them.
    assert!(results[0].sends >= 2);
    assert!(results[3].recvs >= 2);
}

#[test]
fn figure1_runs_with_two_processes() {
    // rank 0 contributes z = 2; rank 1 computes z = b * y = 7 * 1.
    let results = execute("figure1", 2);
    assert_eq!(results[0].printed, vec![9.0]);
}

#[test]
fn figure1_deadlocks_with_more_ranks_and_is_detected() {
    // The paper's example is a two-process program: every nonzero rank
    // executes the receive but only rank 1 is ever sent to. The
    // interpreter must detect (not hang on) the resulting deadlock.
    let unit = compile(mpi_dfa::suite::programs::FIGURE1).unwrap();
    let err = run(
        &unit.program,
        &InterpConfig {
            nprocs: 3,
            ..Default::default()
        },
    )
    .unwrap_err();
    // The error carries the full per-rank wait-for set rather than a
    // single reporting rank.
    assert!(err.is_deadlock(), "{err}");
}

#[test]
fn single_process_degenerates_gracefully() {
    // With one process the guarded sends/recvs all skip; collectives are
    // self-contained.
    for name in ["sor", "cg", "sweep3d"] {
        let results = execute(name, 1);
        assert_eq!(results.len(), 1, "{name}");
        assert!(results[0].printed.iter().all(|v| v.is_finite()), "{name}");
    }
}
