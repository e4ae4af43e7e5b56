//! Abstract locations: the variable universe the analyses run over.
//!
//! Every global, parameter, and local of the compiled program gets a dense
//! [`Loc`] id. Clones of a procedure share the original's locations — context
//! sensitivity comes from duplicating *nodes* (so facts no longer merge), not
//! from duplicating the symbol space; this also makes active-byte accounting
//! count each program symbol once, as the paper's Table 1 does.
//!
//! One synthetic location, [`LocTable::MPI_BUFFER`], models the conservative
//! "all sends write / all receives read a single global buffer" assumption
//! the paper uses for the baseline ICFG analysis (Section 2).

use mpi_dfa_lang::symbols::SymKind;
use mpi_dfa_lang::types::{BaseType, Type};
use mpi_dfa_lang::CompiledUnit;
use std::collections::HashMap;
use std::fmt;

/// Dense abstract-location id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Loc(pub u32);

impl Loc {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Loc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Procedure id: index into `Program::subs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcId(pub u32);

impl ProcId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Metadata for one abstract location.
#[derive(Debug, Clone)]
pub struct LocInfo {
    /// Source name (`__mpi_buffer` for the synthetic buffer).
    pub name: String,
    /// Owning procedure, or `None` for globals and synthetics.
    pub proc: Option<ProcId>,
    /// Declared type; the synthetic buffer is an 8-byte real.
    pub ty: Type,
}

impl LocInfo {
    /// Storage size in bytes (arrays at full size), the unit of the paper's
    /// ActiveBytes metric.
    pub fn byte_size(&self) -> u64 {
        self.ty.byte_size()
    }

    /// True for floating-point data (what activity analysis tracks).
    pub fn is_float(&self) -> bool {
        self.ty.base.is_float()
    }

    pub fn is_array(&self) -> bool {
        self.ty.is_array()
    }
}

/// The interned location table for one compiled program.
#[derive(Debug, Clone)]
pub struct LocTable {
    infos: Vec<LocInfo>,
    /// Name → Loc per scope, so a lookup borrows the `&str` it is given.
    globals: HashMap<String, Loc>,
    /// Indexed by procedure: its parameters and locals.
    procs: Vec<HashMap<String, Loc>>,
    num_globals: usize,
}

impl LocTable {
    /// The synthetic global communication buffer (always id 0).
    pub const MPI_BUFFER: Loc = Loc(0);

    /// Build the table for a compiled unit: synthetic buffer, then globals,
    /// then per-procedure params and locals in declaration order.
    pub fn build(unit: &CompiledUnit) -> Self {
        let mut t = LocTable {
            infos: Vec::new(),
            globals: HashMap::new(),
            procs: vec![HashMap::new(); unit.program.subs.len()],
            num_globals: unit.symbols.globals.len(),
        };
        t.infos.push(LocInfo {
            name: "__mpi_buffer".to_string(),
            proc: None,
            ty: Type::scalar(BaseType::Real),
        });
        for g in &unit.symbols.globals {
            t.intern(&g.name, None, g.ty.clone());
        }
        for (pi, sub) in unit.program.subs.iter().enumerate() {
            let ss = unit.symbols.sub(&sub.name);
            for p in &ss.params {
                t.intern(&p.name, Some(ProcId(pi as u32)), p.ty.clone());
            }
            for l in &ss.locals {
                t.intern(&l.name, Some(ProcId(pi as u32)), l.ty.clone());
            }
        }
        t
    }

    fn intern(&mut self, name: &str, proc: Option<ProcId>, ty: Type) -> Loc {
        let loc = Loc(self.infos.len() as u32);
        self.infos.push(LocInfo {
            name: name.to_string(),
            proc,
            ty,
        });
        let scope = match proc {
            Some(p) => &mut self.procs[p.index()],
            None => &mut self.globals,
        };
        scope.insert(name.to_string(), loc);
        loc
    }

    /// `name` among procedure `proc`'s parameters and locals.
    fn local(&self, proc: ProcId, name: &str) -> Option<Loc> {
        self.procs.get(proc.index())?.get(name).copied()
    }

    /// Total number of locations (the `VarSet` universe size).
    pub fn len(&self) -> usize {
        self.infos.len()
    }

    pub fn is_empty(&self) -> bool {
        self.infos.is_empty()
    }

    /// Metadata for `loc`.
    pub fn info(&self, loc: Loc) -> &LocInfo {
        &self.infos[loc.index()]
    }

    /// Resolve `name` as seen from procedure `proc` (index), using the same
    /// scoping as sema: procedure scope first, then globals.
    pub fn resolve(&self, proc: ProcId, name: &str) -> Option<Loc> {
        self.local(proc, name).or_else(|| self.global(name))
    }

    /// Resolve a global by name.
    pub fn global(&self, name: &str) -> Option<Loc> {
        self.globals.get(name).copied()
    }

    /// Resolve a symbol-kind from sema (used when lowering).
    pub fn from_symkind(&self, proc: ProcId, name: &str, kind: SymKind) -> Option<Loc> {
        match kind {
            SymKind::Global(_) => self.global(name),
            SymKind::Param(_) | SymKind::Local(_) => self.local(proc, name),
        }
    }

    /// Iterate all locations with their infos.
    pub fn iter(&self) -> impl Iterator<Item = (Loc, &LocInfo)> {
        self.infos
            .iter()
            .enumerate()
            .map(|(i, info)| (Loc(i as u32), info))
    }

    /// Number of program globals (excluding the synthetic buffer).
    pub fn num_globals(&self) -> usize {
        self.num_globals
    }

    /// Human-readable name including the owning procedure.
    pub fn qualified_name(&self, loc: Loc) -> String {
        let info = self.info(loc);
        match info.proc {
            Some(_) => format!("{}::{}", info.proc.map(|p| p.0).unwrap_or(0), info.name),
            None => info.name.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpi_dfa_lang::compile;

    fn table(src: &str) -> (CompiledUnit, LocTable) {
        let unit = compile(src).expect("compile");
        let t = LocTable::build(&unit);
        (unit, t)
    }

    #[test]
    fn buffer_is_loc_zero() {
        let (_, t) = table("program p sub main() { }");
        assert_eq!(LocTable::MPI_BUFFER, Loc(0));
        assert_eq!(t.info(Loc(0)).name, "__mpi_buffer");
        assert_eq!(t.info(Loc(0)).byte_size(), 8);
    }

    #[test]
    fn globals_then_proc_symbols() {
        let (_, t) = table(
            "program p global g: real[10]; sub main() { var x: real; }\n\
             sub f(a: int) { var y: real4[3]; }",
        );
        // buffer + g + x + a + y
        assert_eq!(t.len(), 5);
        let g = t.global("g").unwrap();
        assert_eq!(t.info(g).byte_size(), 80);
        assert!(t.info(g).proc.is_none());
        let x = t.resolve(ProcId(0), "x").unwrap();
        assert_eq!(t.info(x).proc, Some(ProcId(0)));
        let y = t.resolve(ProcId(1), "y").unwrap();
        assert_eq!(t.info(y).byte_size(), 12);
    }

    #[test]
    fn scoping_matches_sema() {
        let (_, t) =
            table("program p global x: real; sub f() { var x: int; } sub g() { x = 1.0; }");
        let f_x = t.resolve(ProcId(0), "x").unwrap();
        let g_x = t.resolve(ProcId(1), "x").unwrap();
        assert_ne!(f_x, g_x, "local shadows global");
        assert_eq!(g_x, t.global("x").unwrap());
    }

    #[test]
    fn same_name_in_different_procs_distinct() {
        let (_, t) = table("program p sub f() { var v: real; } sub g() { var v: real; }");
        assert_ne!(t.resolve(ProcId(0), "v"), t.resolve(ProcId(1), "v"));
    }

    #[test]
    fn unknown_names_resolve_to_none() {
        let (_, t) = table("program p sub f() { }");
        assert_eq!(t.resolve(ProcId(0), "nope"), None);
        assert_eq!(t.global("nope"), None);
    }

    #[test]
    fn float_classification_flows_from_types() {
        let (_, t) = table("program p global i: int; global r: real; sub main() { }");
        assert!(!t.info(t.global("i").unwrap()).is_float());
        assert!(t.info(t.global("r").unwrap()).is_float());
    }
}
