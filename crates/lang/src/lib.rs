//! # mpi-dfa-lang — the SMPL front end
//!
//! SMPL ("SPMD mini-language") is a small imperative language with Fortran-like
//! semantics (by-reference parameters, 1-based arrays) and first-class MPI
//! communication statements. It substitutes for the Open64/SL Fortran front end
//! used in the paper *Data-Flow Analysis for MPI Programs* (Strout, Kreaseck,
//! Hovland; ICPP 2006): the analyses downstream consume only the AST, symbol
//! sizes, and MPI call metadata this crate produces.
//!
//! ## Pipeline
//!
//! ```text
//! source text --lex--> tokens --parse--> ast::Program --check--> ProgramSymbols
//! ```
//!
//! The convenience entry point [`compile`] runs all three phases.
//!
//! ## Example
//!
//! ```
//! let src = "
//!     program demo
//!     global x: real;
//!     sub main() {
//!         var y: real;
//!         if (rank() == 0) { send(x, 1, 99); } else { recv(y, 0, 99); }
//!     }";
//! let unit = mpi_dfa_lang::compile(src).expect("valid program");
//! assert_eq!(unit.program.name, "demo");
//! assert_eq!(unit.symbols.globals.len(), 1);
//! ```

#![forbid(unsafe_code)]

pub mod arith;
pub mod ast;
pub mod error;
pub mod fault;
pub mod interp;
pub mod lexer;
pub mod parser;
pub mod pretty;
/// The workspace PRNG, re-exported from its home in `mpi_dfa_core`.
pub use mpi_dfa_core::rng;
pub mod sema;
pub mod span;
pub mod symbols;
pub mod token;
pub mod types;

pub use ast::{Program, StmtId};
pub use error::{Diagnostic, Errors};
pub use symbols::{ProgramSymbols, SymKind};
pub use types::{BaseType, Type};

/// A parsed and semantically checked program: the input to all graph
/// construction and analysis.
#[derive(Debug, Clone)]
pub struct CompiledUnit {
    pub program: Program,
    pub symbols: ProgramSymbols,
}

/// Lex, parse, and check `src` in one step. Each phase opens a telemetry
/// span (`lex`, `parse`, `sema`) when the global sink is enabled — see
/// `mpi_dfa_core::telemetry` and docs/OBSERVABILITY.md.
pub fn compile(src: &str) -> Result<CompiledUnit, Errors> {
    let _span = mpi_dfa_core::telemetry::span("pipeline", "compile");
    let program = parser::parse(src).map_err(Errors::single)?;
    let symbols = {
        let mut span = mpi_dfa_core::telemetry::span("pipeline", "sema");
        let symbols = sema::check(&program)?;
        span.arg("globals", symbols.globals.len());
        symbols
    };
    Ok(CompiledUnit { program, symbols })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_happy_path() {
        let unit = compile("program p global g: real[3]; sub main() { g[1] = 1.0; }").unwrap();
        assert_eq!(unit.program.name, "p");
        assert!(unit.symbols.has_sub("main"));
    }

    #[test]
    fn compile_reports_parse_errors() {
        let e = compile("program").unwrap_err();
        assert_eq!(e.0.len(), 1);
        assert_eq!(e.0[0].phase, error::Phase::Parse);
    }

    #[test]
    fn compile_reports_sema_errors() {
        let e = compile("program p sub f() { nosuch = 1; }").unwrap_err();
        assert_eq!(e.0[0].phase, error::Phase::Sema);
    }
}
