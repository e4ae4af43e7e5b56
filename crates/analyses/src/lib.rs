//! # mpi-dfa-analyses — client analyses over the ICFG and MPI-ICFG
//!
//! Instantiates the `mpi-dfa-core` framework for the analyses the paper
//! discusses:
//!
//! * [`consts`] — interprocedural **reaching constants** (the canonical
//!   nonseparable analysis; also the engine behind communication-edge
//!   matching via [`mpi_match`]);
//! * [`activity`] — **activity analysis** (Vary ∩ Useful) with the paper's
//!   three modes: naive CFG (incorrect on SPMD code), the conservative
//!   global-buffer ICFG baseline, and the MPI-ICFG framework;
//! * [`liveness`] / [`reaching_defs`] — separable bit-vector analyses, which
//!   by the paper's argument need *no* communication modeling;
//! * [`slicing`] — forward data slicing over communication edges (the
//!   paper's Section 1 motivating client);
//! * [`taint`] — trust analysis (Section 2's second example client);
//! * [`interproc`] — shared caller↔callee fact mapping for set analyses.

#![forbid(unsafe_code)]

pub mod activity;
pub mod bitwidth;
pub mod consts;
pub mod governor;
pub mod interproc;
pub mod liveness;
pub mod mpi_match;
pub mod reaching_defs;
pub mod slicing;
pub mod taint;
pub mod twocopy;

pub use activity::{ActivityConfig, ActivityResult, Mode};
pub use consts::{ConstEnv, ConstsQuery};
pub use governor::{
    governed_activity, AnalysisProvenance, DegradeMode, GovernedActivity, GovernorConfig, Tier,
};
pub use mpi_match::{build_mpi_icfg, build_mpi_icfg_with_budget, Matching};
