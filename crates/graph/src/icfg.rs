//! The interprocedural CFG (ICFG) with partial context sensitivity.
//!
//! Following Landi & Ryder-style ICFG construction (the paper's Section 4):
//! every procedure *instance* contributes a copy of its CFG nodes to one
//! global node space; each call site's call node gets a `Call` edge to the
//! callee instance's entry, and the callee's exit gets a `Return` edge back
//! to the after-call node. There is no intraprocedural edge from call to
//! after-call, so facts must flow through the callee.
//!
//! Procedures marked by the clone policy ([`crate::callgraph`]) are
//! instantiated once per call site (transitively, so a cloned wrapper's
//! internal call sites get their own clones too); all other procedures get a
//! single shared instance, which is exactly the context-insensitivity the
//! paper's clone levels trade against.

use crate::callgraph::CallGraph;
use crate::cfg::{lower_program, ProcCfg, ENTRY, EXIT};
use crate::loc::{Loc, LocTable, ProcId};
use crate::node::{CallSiteInfo, CfgNode, NodeKind};
use mpi_dfa_core::budget::{Budget, BudgetMeter, Exhaustion};
use mpi_dfa_core::graph::{Edge, EdgeKind, FlowGraph, NodeId};
use mpi_dfa_core::telemetry;
use mpi_dfa_lang::CompiledUnit;
use std::collections::HashMap;
use std::sync::Arc;

/// Everything derived once per compiled program, shared by all graphs built
/// from it.
#[derive(Debug)]
pub struct ProgramIr {
    pub unit: CompiledUnit,
    pub locs: LocTable,
    pub cfgs: Vec<ProcCfg>,
    pub callgraph: CallGraph,
}

impl ProgramIr {
    pub fn build(unit: CompiledUnit) -> Arc<Self> {
        let mut span = telemetry::span("pipeline", "cfg_build");
        let locs = LocTable::build(&unit);
        let cfgs = lower_program(&unit, &locs);
        let callgraph = CallGraph::build(&cfgs);
        span.arg("procs", cfgs.len());
        span.arg("locs", locs.len());
        Arc::new(ProgramIr {
            unit,
            locs,
            cfgs,
            callgraph,
        })
    }

    /// Compile and build in one step.
    pub fn from_source(src: &str) -> Result<Arc<Self>, mpi_dfa_lang::Errors> {
        Ok(Self::build(mpi_dfa_lang::compile(src)?))
    }

    pub fn proc_id(&self, name: &str) -> Option<ProcId> {
        self.cfgs
            .iter()
            .position(|c| c.name == name)
            .map(|i| ProcId(i as u32))
    }

    pub fn proc_name(&self, p: ProcId) -> &str {
        &self.cfgs[p.index()].name
    }
}

/// One procedure instance in the ICFG.
#[derive(Debug, Clone, Copy)]
pub struct Instance {
    pub proc: ProcId,
    /// Offset of this instance's local node 0 in the global node space.
    pub base: u32,
}

/// How an actual argument binds to its formal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActualBinding {
    /// Whole-variable lvalue: true by-reference aliasing.
    RefWhole(Loc),
    /// Array-element lvalue: conservatively aliased to the whole array
    /// (reads and writes through the formal are weak on the array).
    RefElement(Loc),
    /// Arbitrary expression: passed by value, no write-back.
    Value,
}

/// Formal/actual pairing for one argument of a call site.
#[derive(Debug, Clone)]
pub struct Binding {
    pub formal: Loc,
    pub actual: ActualBinding,
    /// Index into the call site's argument list (for value-expr use info).
    pub arg_idx: usize,
}

/// A call site in the global graph.
#[derive(Debug, Clone)]
pub struct GlobalCallSite {
    pub caller_proc: ProcId,
    /// Index into the caller `ProcCfg::call_sites`.
    pub local_site: u32,
    pub call_node: NodeId,
    pub after_node: NodeId,
    pub callee_entry: NodeId,
    pub callee_exit: NodeId,
    pub callee: ProcId,
    pub bindings: Vec<Binding>,
}

/// Error cases from ICFG construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IcfgError {
    UnknownContext(String),
    TooManyNodes(usize),
    /// A callee's formal parameter was missing from the location table —
    /// an internal inconsistency between sema and graph construction that
    /// is reported instead of panicking.
    MissingFormal {
        callee: String,
        param: String,
    },
    /// The resource budget was exhausted mid-construction (clone expansion
    /// or communication-edge matching). The degradation ladder reacts by
    /// retrying a cheaper configuration.
    Budget(Exhaustion),
    /// An expected node payload or lookup was absent — an internal
    /// inconsistency reported instead of panicking.
    Internal(String),
}

impl std::fmt::Display for IcfgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IcfgError::UnknownContext(n) => write!(f, "unknown context routine `{n}`"),
            IcfgError::TooManyNodes(n) => {
                write!(f, "cloning produced {n} nodes; lower the clone level")
            }
            IcfgError::MissingFormal { callee, param } => {
                write!(
                    f,
                    "internal error: formal parameter `{param}` of `{callee}` was never interned"
                )
            }
            IcfgError::Budget(e) => write!(f, "budget exhausted during graph construction: {e}"),
            IcfgError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for IcfgError {}

/// Hard cap on node-space size to keep pathological clone levels in check.
const MAX_NODES: usize = 4_000_000;

/// The interprocedural control-flow graph.
#[derive(Debug)]
pub struct Icfg {
    pub ir: Arc<ProgramIr>,
    pub context: ProcId,
    pub clone_level: usize,
    pub instances: Vec<Instance>,
    pub call_sites: Vec<GlobalCallSite>,
    /// Global node → owning instance index.
    node_inst: Vec<u32>,
    in_edges: Vec<Vec<Edge>>,
    out_edges: Vec<Vec<Edge>>,
    entries: Vec<NodeId>,
    exits: Vec<NodeId>,
    mpi_nodes: Vec<NodeId>,
}

impl Icfg {
    /// Build the ICFG rooted at `context` with the given clone level.
    pub fn build(ir: Arc<ProgramIr>, context: &str, clone_level: usize) -> Result<Icfg, IcfgError> {
        Self::build_with_budget(ir, context, clone_level, &Budget::unlimited())
    }

    /// Like [`Icfg::build`], but charges one work unit per instantiated
    /// clone node against `budget`; returns [`IcfgError::Budget`] if clone
    /// expansion exhausts it.
    pub fn build_with_budget(
        ir: Arc<ProgramIr>,
        context: &str,
        clone_level: usize,
        budget: &Budget,
    ) -> Result<Icfg, IcfgError> {
        let mut build_span = telemetry::span("pipeline", "icfg_build");
        build_span.arg("context", context);
        build_span.arg("clone_level", clone_level);
        let ctx = ir
            .proc_id(context)
            .ok_or_else(|| IcfgError::UnknownContext(context.into()))?;
        let clone_marks = ir.callgraph.clone_set(clone_level);

        let mut b = Builder {
            ir: &ir,
            clone_marks,
            shared: HashMap::new(),
            instances: Vec::new(),
            call_sites: Vec::new(),
            next_base: 0,
            meter: budget.meter(),
        };
        {
            let mut clone_span = telemetry::span("pipeline", "clone_expansion");
            b.instantiate(ctx)?;
            clone_span.arg("instances", b.instances.len());
            clone_span.arg("nodes", b.next_base as u64);
        }

        let num_nodes = b.next_base as usize;
        build_span.arg("nodes", num_nodes);
        let instances = b.instances;
        let call_sites = b.call_sites;

        // Node → instance map.
        let mut node_inst = vec![0u32; num_nodes];
        for (i, inst) in instances.iter().enumerate() {
            let len = ir.cfgs[inst.proc.index()].num_nodes();
            for local in 0..len {
                node_inst[inst.base as usize + local] = i as u32;
            }
        }

        // Materialize edges.
        let mut in_edges = vec![Vec::new(); num_nodes];
        let mut out_edges = vec![Vec::new(); num_nodes];
        let push = |e: Edge, ins: &mut Vec<Vec<Edge>>, outs: &mut Vec<Vec<Edge>>| {
            outs[e.from.index()].push(e);
            ins[e.to.index()].push(e);
        };
        for inst in &instances {
            let cfg = &ir.cfgs[inst.proc.index()];
            for (a, bnode) in cfg.edges() {
                push(
                    Edge {
                        from: NodeId(inst.base + a),
                        to: NodeId(inst.base + bnode),
                        kind: EdgeKind::Flow,
                    },
                    &mut in_edges,
                    &mut out_edges,
                );
            }
        }
        for (k, cs) in call_sites.iter().enumerate() {
            push(
                Edge {
                    from: cs.call_node,
                    to: cs.callee_entry,
                    kind: EdgeKind::Call { site: k as u32 },
                },
                &mut in_edges,
                &mut out_edges,
            );
            push(
                Edge {
                    from: cs.callee_exit,
                    to: cs.after_node,
                    kind: EdgeKind::Return { site: k as u32 },
                },
                &mut in_edges,
                &mut out_edges,
            );
        }

        let root = &instances[0];
        let entries = vec![NodeId(root.base + ENTRY)];
        let exits = vec![NodeId(root.base + EXIT)];

        let mut icfg = Icfg {
            ir,
            context: ctx,
            clone_level,
            instances,
            call_sites,
            node_inst,
            in_edges,
            out_edges,
            entries,
            exits,
            mpi_nodes: Vec::new(),
        };
        icfg.mpi_nodes = (0..num_nodes)
            .map(|i| NodeId(i as u32))
            .filter(|&n| matches!(icfg.payload(n).kind, NodeKind::Mpi(_)))
            .collect();
        Ok(icfg)
    }

    /// The lowered payload of a global node.
    pub fn payload(&self, n: NodeId) -> &CfgNode {
        let inst = &self.instances[self.node_inst[n.index()] as usize];
        &self.ir.cfgs[inst.proc.index()].nodes[(n.0 - inst.base) as usize]
    }

    /// The instance owning `n`.
    pub fn instance_of(&self, n: NodeId) -> u32 {
        self.node_inst[n.index()]
    }

    /// The procedure owning `n`.
    pub fn proc_of(&self, n: NodeId) -> ProcId {
        self.instances[self.node_inst[n.index()] as usize].proc
    }

    /// Resolve a variable name as seen from node `n`'s procedure.
    pub fn resolve_at(&self, n: NodeId, name: &str) -> Option<Loc> {
        self.ir.locs.resolve(self.proc_of(n), name)
    }

    /// All MPI operation nodes (every clone counted separately).
    pub fn mpi_nodes(&self) -> &[NodeId] {
        &self.mpi_nodes
    }

    /// The call-site metadata for a global site id (as found in
    /// `EdgeKind::Call { site } / Return { site }`).
    pub fn call_site(&self, site: u32) -> &GlobalCallSite {
        &self.call_sites[site as usize]
    }

    /// The caller-side lowered argument info for a global call site.
    pub fn call_args(&self, site: u32) -> &CallSiteInfo {
        let cs = &self.call_sites[site as usize];
        &self.ir.cfgs[cs.caller_proc.index()].call_sites[cs.local_site as usize]
    }

    /// Iterate all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.num_nodes() as u32).map(NodeId)
    }

    /// Entry node of the context routine.
    pub fn context_entry(&self) -> NodeId {
        self.entries[0]
    }

    /// Exit node of the context routine.
    pub fn context_exit(&self) -> NodeId {
        self.exits[0]
    }

    /// Number of control edges of every kind (used in reports and tests).
    pub fn num_edges(&self) -> usize {
        self.out_edges.iter().map(Vec::len).sum()
    }
}

impl FlowGraph for Icfg {
    fn num_nodes(&self) -> usize {
        self.node_inst.len()
    }

    fn in_edges(&self, n: NodeId) -> &[Edge] {
        &self.in_edges[n.index()]
    }

    fn out_edges(&self, n: NodeId) -> &[Edge] {
        &self.out_edges[n.index()]
    }

    fn entries(&self) -> &[NodeId] {
        &self.entries
    }

    fn exits(&self) -> &[NodeId] {
        &self.exits
    }
}

struct Builder<'a> {
    ir: &'a ProgramIr,
    clone_marks: Vec<bool>,
    /// Shared (non-cloned) instance index per procedure.
    shared: HashMap<ProcId, u32>,
    instances: Vec<Instance>,
    call_sites: Vec<GlobalCallSite>,
    next_base: u32,
    meter: BudgetMeter,
}

/// A procedure instance whose call sites [`Builder::instantiate`] is still
/// wiring: `next` is the first site not yet wired to its callee.
struct Pending {
    idx: u32,
    proc: ProcId,
    base: u32,
    sites: Vec<CallSiteInfo>,
    next: usize,
}

/// What [`Builder::open`] found for a procedure.
enum Opened {
    /// The procedure's shared instance, which already exists.
    Shared(u32),
    /// A new instance whose call sites are still to wire.
    Fresh(Pending),
}

impl<'a> Builder<'a> {
    /// Create (or reuse) an instance of `proc` and, depth first, of every
    /// procedure it calls; returns its index. The walk keeps its own stack
    /// (sema rejects recursion but not depth), so a deep call chain cannot
    /// overflow the thread's stack.
    fn instantiate(&mut self, proc: ProcId) -> Result<u32, IcfgError> {
        let mut stack = match self.open(proc)? {
            Opened::Shared(idx) => return Ok(idx),
            Opened::Fresh(fresh) => vec![fresh],
        };
        // The instance the site `next` of the top frame calls, once known.
        let mut callee_inst = None;
        while let Some(top) = stack.last_mut() {
            if let Some(inst) = callee_inst.take() {
                self.wire(top, inst)?;
                top.next += 1;
            }
            if top.next == top.sites.len() {
                let done = stack.pop().expect("non-empty");
                if stack.is_empty() {
                    return Ok(done.idx);
                }
                callee_inst = Some(done.idx);
                continue;
            }
            match self.open(top.sites[top.next].callee)? {
                Opened::Shared(idx) => callee_inst = Some(idx),
                Opened::Fresh(fresh) => stack.push(fresh),
            }
        }
        unreachable!("the root instance returns from inside the loop")
    }

    /// The shared instance of `proc` when one exists and `proc` is not
    /// cloned; otherwise a new instance.
    fn open(&mut self, proc: ProcId) -> Result<Opened, IcfgError> {
        if !self.clone_marks[proc.index()] {
            if let Some(&i) = self.shared.get(&proc) {
                return Ok(Opened::Shared(i));
            }
        }
        let (num_nodes, sites) = {
            let cfg = &self.ir.cfgs[proc.index()];
            (cfg.num_nodes(), cfg.call_sites.clone())
        };
        // One work unit per instantiated clone node keeps pathological
        // clone explosions inside the budget.
        self.meter
            .charge(num_nodes as u64)
            .map_err(IcfgError::Budget)?;
        let idx = self.instances.len() as u32;
        let base = self.next_base;
        self.next_base += num_nodes as u32;
        if self.next_base as usize > MAX_NODES {
            return Err(IcfgError::TooManyNodes(self.next_base as usize));
        }
        self.instances.push(Instance { proc, base });
        if !self.clone_marks[proc.index()] {
            self.shared.insert(proc, idx);
        }
        Ok(Opened::Fresh(Pending {
            idx,
            proc,
            base,
            sites,
            next: 0,
        }))
    }

    /// Record call site `at.next` of `at` as calling instance `callee_inst`.
    fn wire(&mut self, at: &Pending, callee_inst: u32) -> Result<(), IcfgError> {
        let cs = &at.sites[at.next];
        let callee_base = self.instances[callee_inst as usize].base;
        let bindings = self.bindings(cs)?;
        self.call_sites.push(GlobalCallSite {
            caller_proc: at.proc,
            local_site: at.next as u32,
            call_node: NodeId(at.base + cs.call_node),
            after_node: NodeId(at.base + cs.after_node),
            callee_entry: NodeId(callee_base + ENTRY),
            callee_exit: NodeId(callee_base + EXIT),
            callee: cs.callee,
            bindings,
        });
        Ok(())
    }

    fn bindings(&self, cs: &CallSiteInfo) -> Result<Vec<Binding>, IcfgError> {
        let callee_sub = &self.ir.unit.program.subs[cs.callee.index()];
        callee_sub
            .params
            .iter()
            .zip(cs.args.iter())
            .enumerate()
            .map(|(i, (param, arg))| {
                let formal = self
                    .ir
                    .locs
                    .resolve(cs.callee, &param.name)
                    .ok_or_else(|| IcfgError::MissingFormal {
                        callee: callee_sub.name.clone(),
                        param: param.name.clone(),
                    })?;
                let actual = match &arg.reference {
                    Some(r) if r.whole => ActualBinding::RefWhole(r.loc),
                    Some(r) => ActualBinding::RefElement(r.loc),
                    None => ActualBinding::Value,
                };
                Ok(Binding {
                    formal,
                    actual,
                    arg_idx: i,
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn icfg(src: &str, context: &str, clone_level: usize) -> Icfg {
        let ir = ProgramIr::from_source(src).expect("compile");
        Icfg::build(ir, context, clone_level).expect("icfg")
    }

    const LAYERED: &str = "program p\n\
        global x: real;\n\
        sub leaf() { send(x, 1, 7); }\n\
        sub wrap() { call leaf(); }\n\
        sub main() { call wrap(); call wrap(); }";

    #[test]
    fn budget_caps_clone_expansion() {
        let ir = ProgramIr::from_source(LAYERED).unwrap();
        let tiny = Budget::unlimited().with_max_work(1);
        assert!(matches!(
            Icfg::build_with_budget(ir.clone(), "main", 2, &tiny),
            Err(IcfgError::Budget(Exhaustion::WorkUnits))
        ));
        assert!(Icfg::build_with_budget(ir, "main", 2, &Budget::unlimited()).is_ok());
    }

    #[test]
    fn unknown_context_is_error() {
        let ir = ProgramIr::from_source("program p sub main() { }").unwrap();
        assert!(matches!(
            Icfg::build(ir, "nope", 0),
            Err(IcfgError::UnknownContext(_))
        ));
    }

    #[test]
    fn shared_instances_without_cloning() {
        let g = icfg(LAYERED, "main", 0);
        // main + wrap + leaf, each once.
        assert_eq!(g.instances.len(), 3);
        assert_eq!(
            g.call_sites.len(),
            3,
            "two calls to wrap + one call to leaf"
        );
        // wrap's entry has two incoming call edges (context-insensitive merge).
        let wrap_entry = g
            .call_sites
            .iter()
            .filter(|cs| g.ir.proc_name(cs.callee) == "wrap")
            .map(|cs| cs.callee_entry)
            .collect::<Vec<_>>();
        assert_eq!(wrap_entry[0], wrap_entry[1]);
        assert_eq!(g.in_edges(wrap_entry[0]).len(), 2);
    }

    #[test]
    fn clone_level_two_splits_wrapper() {
        let g = icfg(LAYERED, "main", 2);
        // main + 2×wrap + 2×leaf.
        assert_eq!(g.instances.len(), 5);
        let wrap_entries: Vec<NodeId> = g
            .call_sites
            .iter()
            .filter(|cs| g.ir.proc_name(cs.callee) == "wrap")
            .map(|cs| cs.callee_entry)
            .collect();
        assert_ne!(
            wrap_entries[0], wrap_entries[1],
            "wrap cloned per call site"
        );
        assert_eq!(g.mpi_nodes().len(), 2, "leaf's send node duplicated");
    }

    #[test]
    fn clone_level_one_splits_leaf_only() {
        let g = icfg(LAYERED, "main", 1);
        // main + wrap + 1 leaf (wrap is shared and calls leaf from ONE site).
        assert_eq!(g.instances.len(), 3);
        assert_eq!(g.mpi_nodes().len(), 1);
    }

    #[test]
    fn call_edges_route_through_callee() {
        let g = icfg("program p sub f() { } sub main() { call f(); }", "main", 0);
        let cs = &g.call_sites[0];
        // call node's only outgoing edge is the Call edge.
        let out = g.out_edges(cs.call_node);
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].kind, EdgeKind::Call { .. }));
        assert_eq!(out[0].to, cs.callee_entry);
        // after node's only incoming edge is the Return edge.
        let inn = g.in_edges(cs.after_node);
        assert_eq!(inn.len(), 1);
        assert!(matches!(inn[0].kind, EdgeKind::Return { .. }));
    }

    #[test]
    fn bindings_classify_actuals() {
        let g = icfg(
            "program p\n\
             global a: real[4]; global i: int;\n\
             sub f(x: real[4], y: real, z: real) { y = x[1] + z; }\n\
             sub main() { call f(a, a[i], 1.0 + 2.0); }",
            "main",
            0,
        );
        let b = &g.call_sites[0].bindings;
        assert_eq!(b.len(), 3);
        let a_loc = g.ir.locs.global("a").unwrap();
        assert_eq!(b[0].actual, ActualBinding::RefWhole(a_loc));
        assert_eq!(b[1].actual, ActualBinding::RefElement(a_loc));
        assert_eq!(b[2].actual, ActualBinding::Value);
        // Formals are distinct locations in the callee.
        let f = g.ir.proc_id("f").unwrap();
        assert_eq!(b[0].formal, g.ir.locs.resolve(f, "x").unwrap());
    }

    #[test]
    fn context_scoping_excludes_uncalled_procs() {
        let g = icfg(
            "program p global x: real;\n\
             sub used() { x = 1.0; }\n\
             sub unused() { x = 2.0; }\n\
             sub main() { call used(); }",
            "main",
            0,
        );
        assert_eq!(g.instances.len(), 2);
        assert!(g
            .instances
            .iter()
            .all(|i| g.ir.proc_name(i.proc) != "unused"));
    }

    #[test]
    fn context_can_be_inner_routine() {
        let g = icfg(LAYERED, "wrap", 0);
        assert_eq!(g.instances.len(), 2, "wrap + leaf only");
        assert_eq!(g.ir.proc_name(g.context), "wrap");
        let entry = g.context_entry();
        assert_eq!(g.entries(), &[entry]);
    }

    #[test]
    fn payload_lookup_across_instances() {
        let g = icfg(LAYERED, "main", 2);
        let sends: Vec<NodeId> = g.mpi_nodes().to_vec();
        for &s in &sends {
            assert!(matches!(g.payload(s).kind, NodeKind::Mpi(_)));
            assert_eq!(g.ir.proc_name(g.proc_of(s)), "leaf");
        }
        // Distinct global ids, same payload content.
        assert_ne!(sends[0], sends[1]);
    }

    #[test]
    fn resolve_at_uses_node_scope() {
        let g = icfg(
            "program p global v: real; sub f() { var v: int; v = 1; } sub main() { call f(); v = 2.0; }",
            "main",
            0,
        );
        let f = g.ir.proc_id("f").unwrap();
        let f_entry = g
            .instances
            .iter()
            .find(|i| i.proc == f)
            .map(|i| NodeId(i.base + ENTRY))
            .unwrap();
        let local_v = g.resolve_at(f_entry, "v").unwrap();
        let global_v = g.ir.locs.global("v").unwrap();
        assert_ne!(local_v, global_v);
        assert_eq!(g.resolve_at(g.context_entry(), "v"), Some(global_v));
    }
}
