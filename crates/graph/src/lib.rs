//! # mpi-dfa-graph — program graphs for MPI data-flow analysis
//!
//! Builds, from a compiled SMPL program ([`mpi_dfa_lang::CompiledUnit`]):
//!
//! 1. a [`loc::LocTable`] of abstract locations (the analysis variable
//!    universe, with byte sizes for the paper's ActiveBytes accounting);
//! 2. per-procedure statement-level CFGs ([`mod@cfg`]);
//! 3. the call graph with the paper's clone-level policy ([`callgraph`]);
//! 4. the **ICFG** with partial context sensitivity via procedure cloning
//!    ([`icfg`]); and
//! 5. the **MPI-ICFG** — the ICFG plus communication edges matched on
//!    constant tag/communicator/root arguments ([`mpi`]).
//!
//! Both graphs implement [`mpi_dfa_core::graph::FlowGraph`], so the solver in
//! `mpi-dfa-core` runs over either unchanged.
//!
//! ```
//! use mpi_dfa_graph::prelude::*;
//!
//! let ir = ProgramIr::from_source(
//!     "program demo
//!      global x: real; global y: real;
//!      sub main() {
//!          if (rank() == 0) { send(x, 1, 99); } else { recv(y, 0, 99); }
//!      }",
//! )
//! .unwrap();
//! let icfg = Icfg::build(ir, "main", 0).unwrap();
//! let mpi = MpiIcfg::build(icfg, &SyntacticConsts);
//! assert_eq!(mpi.comm_edges.len(), 1);
//! ```

#![forbid(unsafe_code)]

pub mod callgraph;
pub mod cfg;
pub mod dot;
pub mod icfg;
pub mod loc;
pub mod mpi;
pub mod node;

/// Common imports for building graphs.
pub mod prelude {
    pub use crate::icfg::{Icfg, ProgramIr};
    pub use crate::loc::{Loc, LocTable, ProcId};
    pub use crate::mpi::{ConstQuery, MpiIcfg, NoConsts, SyntacticConsts};
    pub use crate::node::{MpiKind, NodeKind};
}

pub use icfg::{Icfg, ProgramIr};
pub use loc::{Loc, LocTable, ProcId};
pub use mpi::MpiIcfg;
