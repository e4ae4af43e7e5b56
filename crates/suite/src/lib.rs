//! # mpi-dfa-suite — benchmark programs and the experiment harness
//!
//! SMPL reimplementations of the paper's benchmark suite (Biostat, SOR,
//! NAS CG/LU/MG, ASCI Sweep3d plus the Figure 1 program) and a runner that
//! regenerates **Table 1** (solver iterations, active bytes, derivative
//! bytes, % decrease for ICFG vs MPI-ICFG activity analysis) and
//! **Figure 4** (megabytes saved per benchmark).
//!
//! See `cargo run -p mpi-dfa-suite --bin repro -- table1 | fig4`.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod fuzz;
pub mod gen;
pub mod programs;
pub mod rowcache;
pub mod runner;
pub mod schedules;

pub use experiments::{all as all_experiments, by_id, ExperimentSpec};
pub use fuzz::{FuzzConfig, FuzzReport};
pub use rowcache::RowCache;
pub use runner::{run_all, run_experiment, MeasuredRow};
