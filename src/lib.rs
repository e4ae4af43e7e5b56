//! # mpi-dfa — data-flow analysis for MPI programs
//!
//! A Rust reproduction of *Data-Flow Analysis for MPI Programs*
//! (Strout, Kreaseck, Hovland; ICPP 2006): an interprocedural data-flow
//! framework whose graphs carry **communication edges** between matching
//! MPI operations, so nonseparable analyses (reaching constants, activity
//! analysis, slicing, trust analysis) model message-passing SPMD semantics
//! correctly and precisely.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`lang`] — the SMPL front end (SPMD mini-language: parser, sema,
//!   interpreter);
//! * [`graph`] — CFG/ICFG construction, clone-level context sensitivity,
//!   and MPI-ICFG communication-edge matching;
//! * [`core`] — the generic solver: lattices, the [`core::Dataflow`] trait
//!   with its communication transfer function, and the [`core::Solver`]
//!   builder over round-robin and SCC-region strategies, plus incremental (`seed`/`dirty`) and demand-driven
//!   (`demand`) partial modes (see `docs/SOLVER.md` and
//!   `docs/INCREMENTAL.md`);
//! * [`analyses`] — reaching constants, activity (Vary/Useful/Active),
//!   liveness, reaching definitions, forward slicing, taint;
//! * [`suite`] — the benchmark programs and the Table 1 / Figure 4
//!   experiment harness;
//! * [`service`] — the analysis service: content-addressed incremental
//!   caching (per-procedure CFG reuse, whole-program IR, result store)
//!   behind a JSONL batch scheduler and TCP daemon (see
//!   `docs/SERVING.md`);
//! * [`verify`] — the static correctness suite: match-set verification,
//!   rank-sensitive may-happen-in-parallel, and predictive deadlock
//!   detection, cross-checked against the schedule explorer (see
//!   `docs/VERIFY.md`).
//!
//! ## Quickstart
//!
//! ```
//! use mpi_dfa::prelude::*;
//!
//! let ir = ProgramIr::from_source(
//!     "program demo
//!      global x: real; global y: real; global out: real;
//!      sub main() {
//!          x = x * 2.0;
//!          if (rank() == 0) { send(x, 1, 7); } else { recv(y, 0, 7); }
//!          out = y + 1.0;
//!      }",
//! )
//! .unwrap();
//!
//! // Build the MPI-ICFG with reaching-constants edge matching.
//! let mpi = build_mpi_icfg(ir, "main", 0, Matching::ReachingConstants).unwrap();
//! assert_eq!(mpi.comm_edges.len(), 1);
//!
//! // Activity analysis: what needs derivatives if we differentiate
//! // `out` with respect to `x`?
//! let result = activity::analyze_mpi(&mpi, &ActivityConfig::new(["x"], ["out"])).unwrap();
//! assert_eq!(result.active_bytes, 24); // x, y, out
//! ```

#![forbid(unsafe_code)]

pub use mpi_dfa_analyses as analyses;
pub use mpi_dfa_core as core;
pub use mpi_dfa_graph as graph;
pub use mpi_dfa_lang as lang;
pub use mpi_dfa_service as service;
pub use mpi_dfa_suite as suite;
pub use mpi_dfa_verify as verify;

/// The most common imports for building and analyzing MPI-ICFGs.
pub mod prelude {
    pub use mpi_dfa_analyses::activity::{self, ActivityConfig, ActivityResult, Mode};
    pub use mpi_dfa_analyses::governor::{
        governed_activity, AnalysisProvenance, DegradeMode, GovernedActivity, GovernorConfig, Tier,
    };
    pub use mpi_dfa_analyses::mpi_match::{build_mpi_icfg, Matching};
    pub use mpi_dfa_analyses::{consts, liveness, reaching_defs, slicing, taint};
    pub use mpi_dfa_core::budget::{Budget, BudgetSpent, CancelToken, Exhaustion};
    pub use mpi_dfa_core::solver::{
        DemandRun, SeededRun, Solution, SolveParams, Solver, SolverConfigError, Strategy,
    };
    pub use mpi_dfa_core::{Dataflow, Direction, VarSet};
    pub use mpi_dfa_graph::icfg::{Icfg, ProgramIr};
    pub use mpi_dfa_graph::mpi::{MpiIcfg, SyntacticConsts};
    pub use mpi_dfa_lang::{compile, CompiledUnit, StmtId};
}
