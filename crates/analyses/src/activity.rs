//! Activity analysis for automatic differentiation of MPI programs.
//!
//! The paper's evaluated client (Sections 2 and 5). Given *independent*
//! inputs and *dependent* outputs of a context routine:
//!
//! * **Vary** (forward): locations whose values depend on the independents;
//! * **Useful** (backward): locations needed to compute the dependents;
//! * **Active** = Vary ∩ Useful at some program point. Only active
//!   floating-point storage needs derivatives, so
//!   `DerivBytes = #independents × ActiveBytes`.
//!
//! Three analysis modes reproduce the paper's comparisons:
//!
//! * [`Mode::Naive`] — a plain CFG framework with no model of message
//!   passing: receives look like external writes. **Incorrect** for SPMD
//!   programs (the Figure 1 example yields an empty active set).
//! * [`Mode::GlobalBuffer`] — the conservative ICFG baseline: every send
//!   writes and every receive reads one synthetic global buffer that is both
//!   independent and dependent (the paper's Section 5 baseline; equivalent
//!   to the Odyssée model plus global assumptions).
//! * [`Mode::MpiIcfg`] — the paper's contribution: boolean facts flow over
//!   the communication edges of the MPI-ICFG ("does some matching send's
//!   value vary?" forward; "is some matching receive's target useful?"
//!   backward).

use crate::interproc::{
    call_backward, call_forward, return_backward, return_forward, BindMaps, UseSelector,
};
use mpi_dfa_core::graph::{Edge, EdgeKind, FlowGraph, NodeId};
use mpi_dfa_core::lattice::BoolOr;
use mpi_dfa_core::problem::{Dataflow, Direction};
use mpi_dfa_core::solver::{Solution, SolveParams, Solver};
use mpi_dfa_core::telemetry;
use mpi_dfa_core::varset::VarSet;
use mpi_dfa_graph::icfg::Icfg;
use mpi_dfa_graph::loc::{Loc, LocTable};
use mpi_dfa_graph::mpi::MpiIcfg;
use mpi_dfa_graph::node::{MpiInfo, MpiKind, NodeKind, RefInfo};

/// How communication is modeled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Naive,
    GlobalBuffer,
    /// Worst-case-sound plain-ICFG model used as the degradation ladder's
    /// T2 tier: every receive may deliver varying data (gen, never a strong
    /// kill) and every sent value is assumed needed by some receiver. By
    /// construction its transfer functions are pointwise ≥ the MPI-ICFG
    /// ones on the same location universe, so its Vary/Useful/Active sets
    /// over-approximate [`Mode::MpiIcfg`] at *any* clone level or matching
    /// strategy — unlike [`Mode::GlobalBuffer`], whose buffer kills make it
    /// a baseline rather than a guaranteed superset.
    GlobalBufferSound,
    MpiIcfg,
}

/// Independent and dependent variable selection (names resolved in the
/// context routine's scope).
#[derive(Debug, Clone)]
pub struct ActivityConfig {
    pub independents: Vec<String>,
    pub dependents: Vec<String>,
}

impl ActivityConfig {
    pub fn new<S: Into<String>>(
        independents: impl IntoIterator<Item = S>,
        dependents: impl IntoIterator<Item = S>,
    ) -> Self {
        ActivityConfig {
            independents: independents.into_iter().map(Into::into).collect(),
            dependents: dependents.into_iter().map(Into::into).collect(),
        }
    }
}

/// The outcome of one activity analysis.
#[derive(Debug)]
pub struct ActivityResult {
    pub mode: Mode,
    pub vary: Solution<VarSet>,
    pub useful: Solution<VarSet>,
    /// Locations active at some program point.
    pub active: VarSet,
    /// Total bytes of active floating-point storage (synthetic buffer
    /// excluded), the paper's ActiveBytes metric.
    pub active_bytes: u64,
    /// Round-robin passes: vary + useful (the paper's Iter statistic).
    pub iterations: usize,
}

impl ActivityResult {
    /// True when both fixpoint phases converged within the pass budget.
    /// `false` means the numbers below are a *non-fixpoint snapshot* and
    /// must not be published as analysis results.
    pub fn converged(&self) -> bool {
        self.vary.stats.converged && self.useful.stats.converged
    }

    /// Active locations, ascending.
    pub fn active_locs(&self) -> Vec<Loc> {
        self.active.iter().map(|i| Loc(i as u32)).collect()
    }

    /// The paper's derivative-storage model.
    pub fn deriv_bytes(&self, num_independents: u64) -> u64 {
        num_independents * self.active_bytes
    }
}

/// Resolve config names in the context routine's scope.
fn resolve_names(icfg: &Icfg, names: &[String]) -> Result<Vec<Loc>, String> {
    names
        .iter()
        .map(|n| {
            icfg.ir
                .locs
                .resolve(icfg.context, n)
                .ok_or_else(|| format!("unknown variable `{n}` in context routine"))
        })
        .collect()
}

/// Run activity analysis over the MPI-ICFG (the paper's framework).
pub fn analyze_mpi(mpi: &MpiIcfg, config: &ActivityConfig) -> Result<ActivityResult, String> {
    analyze_mpi_with(mpi, config, &SolveParams::default())
}

/// [`analyze_mpi`] with explicit solver parameters. With a small
/// `max_passes` the result may be a non-fixpoint snapshot — check
/// [`ActivityResult::converged`].
pub fn analyze_mpi_with(
    mpi: &MpiIcfg,
    config: &ActivityConfig,
    params: &SolveParams,
) -> Result<ActivityResult, String> {
    analyze_over(mpi, mpi.icfg(), Mode::MpiIcfg, config, params)
}

/// Run activity analysis over the plain ICFG in the given baseline mode
/// (`Naive` or `GlobalBuffer`).
pub fn analyze_icfg(
    icfg: &Icfg,
    mode: Mode,
    config: &ActivityConfig,
) -> Result<ActivityResult, String> {
    analyze_icfg_with(icfg, mode, config, &SolveParams::default())
}

/// [`analyze_icfg`] with explicit solver parameters (see
/// [`analyze_mpi_with`]).
pub fn analyze_icfg_with(
    icfg: &Icfg,
    mode: Mode,
    config: &ActivityConfig,
    params: &SolveParams,
) -> Result<ActivityResult, String> {
    assert_ne!(mode, Mode::MpiIcfg, "use analyze_mpi for the MPI-ICFG mode");
    analyze_over(icfg, icfg, mode, config, params)
}

/// Build the Vary and Useful problem instances for `icfg` under `mode`,
/// with seeds resolved from `config` — the building blocks `analyze_*`
/// compose, exposed for extensions (e.g. the two-copy construction).
pub fn vary_useful_problems<'g>(
    icfg: &'g Icfg,
    mode: Mode,
    config: &ActivityConfig,
) -> Result<(Vary<'g>, Useful<'g>), String> {
    let universe = icfg.ir.locs.len();
    let mut vary_seed = VarSet::empty(universe);
    for l in resolve_names(icfg, &config.independents)? {
        vary_seed.insert(l.index());
    }
    let mut useful_seed = VarSet::empty(universe);
    for l in resolve_names(icfg, &config.dependents)? {
        useful_seed.insert(l.index());
    }
    if mode == Mode::GlobalBuffer {
        vary_seed.insert(LocTable::MPI_BUFFER.index());
        useful_seed.insert(LocTable::MPI_BUFFER.index());
    }
    Ok((
        Vary {
            icfg,
            maps: BindMaps::build(icfg),
            mode,
            seed: vary_seed,
        },
        Useful {
            icfg,
            maps: BindMaps::build(icfg),
            mode,
            seed: useful_seed,
        },
    ))
}

/// Demand-driven activity at one statement: which locations are active at
/// the program point(s) of the nodes in `at`? Solves only the region slices
/// that can influence those nodes — no whole-program fixpoint. The answer
/// agrees exactly with the full analysis restricted to the slice.
pub fn demand_active_at(
    mpi: &MpiIcfg,
    config: &ActivityConfig,
    params: &SolveParams,
    at: &[NodeId],
) -> Result<DemandActivity, String> {
    let icfg = mpi.icfg();
    if at.is_empty() {
        return Err("demand query names no nodes".into());
    }
    let (vary_p, useful_p) = vary_useful_problems(icfg, Mode::MpiIcfg, config)?;
    fn run_phase<P: Dataflow<Fact = VarSet>>(
        problem: &P,
        mpi: &MpiIcfg,
        params: &SolveParams,
        at: &[NodeId],
        phase: &str,
    ) -> Result<mpi_dfa_core::solver::DemandRun<VarSet>, String> {
        let mut span = telemetry::span("analysis", "activity:demand");
        span.arg("phase", phase);
        let mut roots = at.iter().copied();
        let first = roots.next().expect("checked non-empty");
        let mut solver = Solver::new(problem, mpi)
            .params(params.clone())
            .demand(first)
            .map_err(|e| format!("demand rejected: {e}"))?;
        for n in roots {
            solver = solver
                .demand(n)
                .map_err(|e| format!("demand rejected: {e}"))?;
        }
        let run = solver.run();
        span.arg("slice_regions", run.regions_solved);
        Ok(run)
    }
    let vary = run_phase(&vary_p, mpi, params, at, "vary")?;
    let useful = run_phase(&useful_p, mpi, params, at, "useful")?;
    if !(vary.solution.stats.converged && useful.solution.stats.converged) {
        return Err("demand slice did not converge".into());
    }
    // Active at the queried nodes. Facts outside each phase's slice are top
    // (empty), which under-approximates — but every queried node is inside
    // both slices by construction.
    let active = active_at(
        &vary.solution,
        &useful.solution,
        at.iter().copied(),
        icfg.ir.locs.len(),
    );
    let nodes_visited = vary.solution.stats.node_visits + useful.solution.stats.node_visits;
    Ok(DemandActivity {
        active,
        vary: vary.solution,
        useful: useful.solution,
        regions_total: vary.regions_total + useful.regions_total,
        regions_solved: vary.regions_solved + useful.regions_solved,
        nodes_visited,
    })
}

/// Outcome of a [`demand_active_at`] query.
#[derive(Debug)]
pub struct DemandActivity {
    /// Locations active at some queried node (either side).
    pub active: VarSet,
    /// The vary-phase slice solution (facts valid only inside the slice).
    pub vary: Solution<VarSet>,
    /// The useful-phase slice solution.
    pub useful: Solution<VarSet>,
    /// SCC regions in the graph (both phases summed).
    pub regions_total: usize,
    /// Regions the two slices actually solved.
    pub regions_solved: usize,
    /// Node visits across both phase slices (the "<25% of nodes" bench
    /// metric compares this against the full fixpoint's visits).
    pub nodes_visited: u64,
}

fn analyze_over<G: FlowGraph>(
    graph: &G,
    icfg: &Icfg,
    mode: Mode,
    config: &ActivityConfig,
    params: &SolveParams,
) -> Result<ActivityResult, String> {
    let (vary_p, useful_p) = vary_useful_problems(icfg, mode, config)?;
    let vary = {
        let mut span = telemetry::span("analysis", "activity:vary");
        let s = Solver::new(&vary_p, graph).params(params.clone()).run();
        span.arg("converged", s.stats.converged);
        s
    };
    let useful = {
        let mut span = telemetry::span("analysis", "activity:useful");
        let s = Solver::new(&useful_p, graph).params(params.clone()).run();
        span.arg("converged", s.stats.converged);
        s
    };
    vary.stats.publish_metrics("vary");
    useful.stats.publish_metrics("useful");
    Ok(assemble(mode, icfg, graph.num_nodes(), vary, useful))
}

/// Locations active at `nodes`: Vary ∩ Useful on either side of a node.
fn active_at(
    vary: &Solution<VarSet>,
    useful: &Solution<VarSet>,
    nodes: impl Iterator<Item = NodeId>,
    universe: usize,
) -> VarSet {
    let mut active = VarSet::empty(universe);
    for node in nodes {
        active.union_intersection_into(vary.before(node), useful.before(node));
        active.union_intersection_into(vary.after(node), useful.after(node));
    }
    active
}

/// The result of both solved phases over a `num_nodes`-node graph: Active
/// = Vary ∩ Useful at some program point, its bytes, and the summed passes.
fn assemble(
    mode: Mode,
    icfg: &Icfg,
    num_nodes: usize,
    vary: Solution<VarSet>,
    useful: Solution<VarSet>,
) -> ActivityResult {
    let nodes = (0..num_nodes as u32).map(NodeId);
    let active = active_at(&vary, &useful, nodes, icfg.ir.locs.len());
    ActivityResult {
        mode,
        active_bytes: active_bytes(&icfg.ir.locs, &active),
        iterations: vary.stats.passes + useful.stats.passes,
        vary,
        useful,
        active,
    }
}

/// Sum the sizes of active floating-point storage, excluding the synthetic
/// communication buffer.
pub fn active_bytes(locs: &LocTable, active: &VarSet) -> u64 {
    active
        .iter()
        .map(|i| Loc(i as u32))
        .filter(|&l| l != LocTable::MPI_BUFFER)
        .map(|l| locs.info(l))
        .filter(|info| info.is_float())
        .map(|info| info.byte_size())
        .sum()
}

/// Apply a definition through `r`: gen inserts; a non-gen strong def kills.
fn apply_def(set: &mut VarSet, r: &RefInfo, gen: bool) {
    if gen {
        set.insert(r.loc.index());
    } else if r.is_strong_def() {
        set.remove(r.loc.index());
    }
}

/// Does the data this operation sends vary / does it read from `set`?
/// A malformed node with no recorded operand is treated as varying — the
/// conservative (sound) answer for a may-analysis.
fn sent_reads_from(m: &MpiInfo, set: &VarSet) -> bool {
    match m.kind {
        MpiKind::Reduce | MpiKind::Allreduce => match m.value.as_ref() {
            Some(v) => UseSelector::Differentiable.reads_from(v, set),
            None => true,
        },
        _ => match m.buf.as_ref() {
            Some(buf) => set.contains(buf.loc.index()),
            None => true,
        },
    }
}

/// Apply the receive side of `m` given whether varying data may arrive.
/// Strong updates only where every process overwrites the buffer. A node
/// with no recorded buffer contributes nothing (in particular, no kill).
fn recv_def_forward(out: &mut VarSet, m: &MpiInfo, arriving: bool) {
    let Some(buf) = m.buf.as_ref() else {
        return;
    };
    match m.kind {
        MpiKind::Recv | MpiKind::Irecv | MpiKind::Allreduce => apply_def(out, buf, arriving),
        // Roots of bcast/reduce keep their local buffer: weak. Any other
        // kind is not a receiving op and contributes nothing.
        MpiKind::Bcast | MpiKind::Reduce if arriving => {
            out.insert(buf.loc.index());
        }
        _ => {}
    }
}

// ---------------------------------------------------------------------------
// Vary: forward may-analysis.
// ---------------------------------------------------------------------------

/// The forward Vary problem (public so extensions like the two-copy
/// construction can solve it over alternative graphs).
pub struct Vary<'g> {
    icfg: &'g Icfg,
    maps: BindMaps,
    mode: Mode,
    seed: VarSet,
}

impl Dataflow for Vary<'_> {
    type Fact = VarSet;
    type CommFact = BoolOr;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn top(&self) -> VarSet {
        VarSet::empty(self.seed.universe())
    }

    fn boundary(&self) -> VarSet {
        self.seed.clone()
    }

    fn meet_into(&self, dst: &mut VarSet, src: &VarSet) -> bool {
        dst.union_into(src)
    }

    fn transfer(&self, node: NodeId, input: &VarSet, comm: &BoolOr, out: &mut VarSet) {
        match &self.icfg.payload(node).kind {
            NodeKind::Assign { lhs, rhs } => {
                let varies = UseSelector::Differentiable.reads_from(rhs, input);
                apply_def(out, lhs, varies);
            }
            NodeKind::Read { target } => apply_def(out, target, false),
            // (see below: the seed re-union keeps independents varying
            // through their own initialization, e.g. Figure 1's `x = 0`)
            NodeKind::Mpi(m) => match self.mode {
                Mode::Naive => {
                    // No model of communication: a receive is an unknown
                    // external write — nothing varies because of it.
                    if m.kind.receives_data() {
                        recv_def_forward(out, m, false);
                    }
                }
                Mode::GlobalBuffer => {
                    if m.kind.sends_data() && sent_reads_from(m, input) {
                        out.insert(LocTable::MPI_BUFFER.index());
                    }
                    if m.kind.receives_data() {
                        let arriving = out.contains(LocTable::MPI_BUFFER.index());
                        recv_def_forward(out, m, arriving);
                    }
                }
                Mode::GlobalBufferSound => {
                    // Worst case: varying data may always arrive, so every
                    // receive gens its buffer and never strongly kills it.
                    if m.kind.receives_data() {
                        recv_def_forward(out, m, true);
                    }
                }
                Mode::MpiIcfg => {
                    if m.kind.receives_data() {
                        recv_def_forward(out, m, comm.0);
                    }
                }
            },
            _ => {}
        }
        // Independents are the differentiation seeds: the *variable* is the
        // input, so it varies at every point, including through its own
        // initialization (Figure 1 seeds `x` and then executes `x = 0`).
        out.union_into(&self.seed);
    }

    fn comm_transfer(&self, node: NodeId, input: &VarSet) -> BoolOr {
        match &self.icfg.payload(node).kind {
            NodeKind::Mpi(m) if m.kind.sends_data() => BoolOr(sent_reads_from(m, input)),
            _ => BoolOr(false),
        }
    }

    fn translate_into(&self, edge: &Edge, fact: &VarSet, out: &mut VarSet) {
        match edge.kind {
            EdgeKind::Call { site } => call_forward(
                self.icfg,
                &self.maps,
                site,
                fact,
                out,
                UseSelector::Differentiable,
            ),
            EdgeKind::Return { site } => return_forward(self.icfg, &self.maps, site, fact, out),
            EdgeKind::Flow => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Useful: backward may-analysis.
// ---------------------------------------------------------------------------

/// The backward Useful problem.
pub struct Useful<'g> {
    icfg: &'g Icfg,
    maps: BindMaps,
    mode: Mode,
    seed: VarSet,
}

impl Dataflow for Useful<'_> {
    type Fact = VarSet;
    type CommFact = BoolOr;

    fn direction(&self) -> Direction {
        Direction::Backward
    }

    fn top(&self) -> VarSet {
        VarSet::empty(self.seed.universe())
    }

    fn boundary(&self) -> VarSet {
        self.seed.clone()
    }

    fn meet_into(&self, dst: &mut VarSet, src: &VarSet) -> bool {
        dst.union_into(src)
    }

    /// `input` here is the OUT set (facts after the node in program order)
    /// and `inset` becomes the IN set.
    fn transfer(&self, node: NodeId, input: &VarSet, comm: &BoolOr, inset: &mut VarSet) {
        match &self.icfg.payload(node).kind {
            NodeKind::Assign { lhs, rhs } => {
                let lhs_useful = input.contains(lhs.loc.index());
                if lhs.is_strong_def() {
                    inset.remove(lhs.loc.index());
                }
                if lhs_useful {
                    UseSelector::Differentiable.insert_uses(rhs, inset);
                }
            }
            NodeKind::Read { target } if target.is_strong_def() => {
                inset.remove(target.loc.index());
            }
            NodeKind::Mpi(m) => {
                // The global-buffer model treats a data operation as the
                // statement pair `buffer = sent ; received = buffer`; running
                // backward we process the receive side first and then the
                // send side's *kill* of the buffer — the kill is what stops
                // buffer-usefulness from leaking upward past unrelated sends
                // (the paper's Sweep3d ICFG numbers depend on it).
                if m.kind.receives_data() {
                    if let Some(buf) = m.buf.as_ref() {
                        let overwritten =
                            matches!(m.kind, MpiKind::Recv | MpiKind::Irecv | MpiKind::Allreduce); // bcast/reduce roots keep their buffer
                        match self.mode {
                            Mode::GlobalBuffer => {
                                if input.contains(buf.loc.index()) {
                                    // received = buffer: the buffer becomes useful.
                                    inset.insert(LocTable::MPI_BUFFER.index());
                                    if buf.is_strong_def() && overwritten {
                                        inset.remove(buf.loc.index());
                                    }
                                }
                            }
                            // Worst-case-sound tier: a receive may deliver
                            // only part of the buffer — never kill.
                            Mode::GlobalBufferSound => {}
                            _ => {
                                if overwritten && buf.is_strong_def() {
                                    inset.remove(buf.loc.index());
                                }
                            }
                        }
                    }
                }
                // Send side: mark the transmitted data useful when some
                // receiver needs it.
                if m.kind.sends_data() {
                    let needed = match self.mode {
                        Mode::Naive => false,
                        // `inset` (not `input`): a collective's own receive
                        // side may have just made the buffer useful.
                        Mode::GlobalBuffer => inset.contains(LocTable::MPI_BUFFER.index()),
                        // Worst case: some receiver always needs the data.
                        Mode::GlobalBufferSound => true,
                        Mode::MpiIcfg => comm.0,
                    };
                    if self.mode == Mode::GlobalBuffer {
                        // buffer = sent: a strong kill of the buffer.
                        inset.remove(LocTable::MPI_BUFFER.index());
                    }
                    if needed {
                        match m.kind {
                            MpiKind::Reduce | MpiKind::Allreduce => {
                                if let Some(v) = m.value.as_ref() {
                                    UseSelector::Differentiable.insert_uses(v, inset);
                                }
                            }
                            _ => {
                                if let Some(buf) = m.buf.as_ref() {
                                    inset.insert(buf.loc.index());
                                }
                            }
                        }
                    }
                }
            }
            // Print output is not a dependent unless selected explicitly.
            _ => {}
        }
    }

    /// Backward `f_comm`: at a receive-like node, "is the received buffer
    /// useful below?" — propagated against the communication edge to the
    /// matching sends.
    fn comm_transfer(&self, node: NodeId, input: &VarSet) -> BoolOr {
        match &self.icfg.payload(node).kind {
            NodeKind::Mpi(m) if m.kind.receives_data() => BoolOr(
                // A malformed receive with no buffer is conservatively
                // assumed useful (sound for the may-analysis).
                m.buf
                    .as_ref()
                    .map(|buf| input.contains(buf.loc.index()))
                    .unwrap_or(true),
            ),
            _ => BoolOr(false),
        }
    }

    fn translate_into(&self, edge: &Edge, fact: &VarSet, out: &mut VarSet) {
        match edge.kind {
            EdgeKind::Return { site } => return_backward(self.icfg, &self.maps, site, fact, out),
            EdgeKind::Call { site } => call_backward(
                self.icfg,
                &self.maps,
                site,
                fact,
                out,
                UseSelector::Differentiable,
            ),
            EdgeKind::Flow => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpi_dfa_graph::icfg::ProgramIr;
    use mpi_dfa_graph::mpi::SyntacticConsts;

    const FIGURE1: &str = "program fig1\n\
        global x: real; global z: real; global b: real; global y: real;\n\
        global f: real;\n\
        sub main() {\n\
          x = 0.0; z = 2.0; b = 7.0;\n\
          if (rank() == 0) {\n\
            x = x + 1.0; b = x * 3.0; send(x, 1, 9);\n\
          } else {\n\
            recv(y, 0, 9); z = b * y;\n\
          }\n\
          reduce(SUM, z, f, 0);\n\
        }";

    fn run(
        src: &str,
        mode: Mode,
        ind: &[&str],
        dep: &[&str],
    ) -> (ActivityResult, std::sync::Arc<ProgramIr>) {
        let ir = ProgramIr::from_source(src).expect("compile");
        let config = ActivityConfig::new(ind.to_vec(), dep.to_vec());
        let res = match mode {
            Mode::MpiIcfg => {
                let icfg = Icfg::build(ir.clone(), "main", 0).unwrap();
                let mpi = MpiIcfg::build(icfg, &SyntacticConsts);
                analyze_mpi(&mpi, &config).unwrap()
            }
            _ => {
                let icfg = Icfg::build(ir.clone(), "main", 0).unwrap();
                analyze_icfg(&icfg, mode, &config).unwrap()
            }
        };
        (res, ir)
    }

    fn names(res: &ActivityResult, ir: &ProgramIr) -> Vec<String> {
        res.active_locs()
            .iter()
            .map(|&l| ir.locs.info(l).name.clone())
            .collect()
    }

    #[test]
    fn figure1_mpi_icfg_finds_all_active_variables() {
        let (res, ir) = run(FIGURE1, Mode::MpiIcfg, &["x"], &["f"]);
        let active = names(&res, &ir);
        // Section 2: "a correct analysis should determine that at least the
        // variables x, y, z, and f are active". b varies (b = x*3 on the
        // rank-0 branch) and is useful (z = b*y on the other branch), but
        // never both at the same program point, so it is rightly inactive.
        for v in ["x", "y", "z", "f"] {
            assert!(
                active.contains(&v.to_string()),
                "{v} should be active, got {active:?}"
            );
        }
        assert!(
            !active.contains(&"b".to_string()),
            "b never varies where it is useful"
        );
        assert_eq!(res.active_bytes, 4 * 8);
    }

    #[test]
    fn figure1_naive_mode_is_incorrect() {
        // The paper's motivating claim: a framework with no communication
        // model intersects disjoint Vary/Useful sets and reports nothing.
        let (res, _) = run(FIGURE1, Mode::Naive, &["x"], &["f"]);
        assert_eq!(
            res.active_bytes, 0,
            "naive analysis finds no active variables"
        );
        assert!(res.active.is_empty());
    }

    #[test]
    fn figure1_global_buffer_finds_the_communication_chain() {
        // The conservative baseline recovers the message-passing chain the
        // naive analysis misses: the received y and everything downstream.
        // It still misses x itself — the global-buffer model's usefulness
        // for x's send is killed by the later reduce's buffer write, a
        // corner the paper's prose ("all sent vary variables become
        // active") glosses over but whose Table 1 sweep numbers require
        // (see DESIGN.md). The MPI-ICFG framework gets x right.
        let (res, ir) = run(FIGURE1, Mode::GlobalBuffer, &["x"], &["f"]);
        let active = names(&res, &ir);
        for v in ["y", "z", "f"] {
            assert!(
                active.contains(&v.to_string()),
                "{v} missing under GlobalBuffer"
            );
        }
        let (framework, _) = run(FIGURE1, Mode::MpiIcfg, &["x"], &["f"]);
        let fw = names(&framework, &ir);
        assert!(fw.contains(&"x".to_string()), "the framework recovers x");
    }

    #[test]
    fn mpi_icfg_no_less_precise_than_global_buffer_on_received_data() {
        // On every benchmark-shaped program the MPI-ICFG active set is a
        // subset of the baseline's (Table 1 only ever *decreases*). The
        // one asymmetry is independents whose usefulness flows through a
        // send (Figure 1's x): there the baseline under-approximates, so
        // the subset relation is checked modulo the vary seed.
        let (mpi, ir) = run(FIGURE1, Mode::MpiIcfg, &["x"], &["f"]);
        let (gb, _) = run(FIGURE1, Mode::GlobalBuffer, &["x"], &["f"]);
        let mut m = mpi.active.clone();
        m.remove(LocTable::MPI_BUFFER.index());
        m.remove(ir.locs.global("x").unwrap().index());
        let mut g = gb.active.clone();
        g.remove(LocTable::MPI_BUFFER.index());
        assert!(m.is_subset(&g));
    }

    /// The precision win the paper's benchmarks hinge on: data that is
    /// communicated but does not depend on the independents.
    const BCAST_INDEPENDENT_DATA: &str = "program bio\n\
        global dmat: real4[1000];\n\
        global xmle: real[10];\n\
        global xlogl: real;\n\
        sub main() {\n\
          var i: int; var t: real;\n\
          if (rank() == 0) { read(dmat); }\n\
          bcast(dmat, 0);\n\
          t = 0.0;\n\
          for i = 1, 10 { t = t + xmle[i] * dmat[i]; }\n\
          reduce(SUM, t, xlogl, 0);\n\
        }";

    #[test]
    fn broadcast_input_data_inactive_under_mpi_icfg() {
        let (res, ir) = run(BCAST_INDEPENDENT_DATA, Mode::MpiIcfg, &["xmle"], &["xlogl"]);
        let active = names(&res, &ir);
        assert!(
            !active.contains(&"dmat".to_string()),
            "dmat does not vary: {active:?}"
        );
        assert!(active.contains(&"xmle".to_string()));
        assert!(active.contains(&"xlogl".to_string()));
        assert!(active.contains(&"t".to_string()));
    }

    #[test]
    fn broadcast_input_data_active_under_global_buffer() {
        let (res, ir) = run(
            BCAST_INDEPENDENT_DATA,
            Mode::GlobalBuffer,
            &["xmle"],
            &["xlogl"],
        );
        let active = names(&res, &ir);
        assert!(
            active.contains(&"dmat".to_string()),
            "the global-buffer assumption makes broadcast data vary: {active:?}"
        );
        // The savings: 1000 × 4 bytes of real4 storage.
        let (mpi, _) = run(BCAST_INDEPENDENT_DATA, Mode::MpiIcfg, &["xmle"], &["xlogl"]);
        assert_eq!(res.active_bytes - mpi.active_bytes, 4000);
    }

    /// Halo exchange of genuinely varying data: no savings (the SOR/CG
    /// pattern).
    const HALO_VARYING: &str = "program sor\n\
        global u: real[100];\n\
        global omega: real;\n\
        global resid: real;\n\
        sub main() {\n\
          var i: int; var t: real;\n\
          for i = 2, 99 { u[i] = u[i] + omega * (u[i - 1] + u[i + 1]); }\n\
          send(u, mod(rank() + 1, nprocs()), 4);\n\
          recv(u, ANY, 4);\n\
          t = 0.0;\n\
          for i = 1, 100 { t = t + u[i] * u[i]; }\n\
          allreduce(SUM, t, resid);\n\
        }";

    #[test]
    fn varying_halo_active_in_both_modes() {
        let (mpi, ir) = run(HALO_VARYING, Mode::MpiIcfg, &["omega"], &["resid"]);
        let (gb, _) = run(HALO_VARYING, Mode::GlobalBuffer, &["omega"], &["resid"]);
        let m = names(&mpi, &ir);
        assert!(
            m.contains(&"u".to_string()),
            "u varies through omega and is needed: {m:?}"
        );
        assert!(m.contains(&"omega".to_string()));
        assert!(m.contains(&"resid".to_string()));
        // Both modes agree on the program symbols (no savings).
        let mut a = mpi.active.clone();
        a.remove(LocTable::MPI_BUFFER.index());
        let mut b = gb.active.clone();
        b.remove(LocTable::MPI_BUFFER.index());
        assert_eq!(a, b);
        assert_eq!(mpi.active_bytes, gb.active_bytes);
    }

    #[test]
    fn recv_kills_prior_variation() {
        // x varies, but the receive overwrites it with non-varying data.
        let src = "program p\n\
            global x: real; global c: real; global out: real;\n\
            sub main() {\n\
              x = x * 2.0;\n\
              if (rank() == 0) { c = 1.0; send(c, 1, 3); } else { recv(x, 0, 3); }\n\
              out = x + 1.0;\n\
            }";
        let (res, ir) = run(src, Mode::MpiIcfg, &["x"], &["out"]);
        let active = names(&res, &ir);
        // x *is* active (it varies before the branch and is useful after on
        // the then-path where it is not overwritten).
        assert!(active.contains(&"x".to_string()));
        // c is not active: it does not vary.
        assert!(!active.contains(&"c".to_string()), "{active:?}");
    }

    #[test]
    fn varying_send_makes_receiver_active() {
        let src = "program p\n\
            global x: real; global y: real; global out: real;\n\
            sub main() {\n\
              x = x * 2.0;\n\
              if (rank() == 0) { send(x, 1, 3); } else { recv(y, 0, 3); }\n\
              out = y + 1.0;\n\
            }";
        let (res, ir) = run(src, Mode::MpiIcfg, &["x"], &["out"]);
        let active = names(&res, &ir);
        assert!(active.contains(&"y".to_string()), "{active:?}");
        assert!(
            active.contains(&"x".to_string()),
            "x is sent to a useful receive"
        );
    }

    #[test]
    fn wrapper_cloning_recovers_precision() {
        // One wrapper used for both a varying and a non-varying exchange,
        // with the message tag passed through a parameter. Without cloning
        // the shared wrapper instance merges the two tags (⊥) so the
        // matcher keeps all four edges and the non-varying receive target
        // looks active. Clone level 2 splits the wrapper per call site;
        // reaching constants then resolves each clone's tag and the two
        // exchanges separate.
        let src = "program p\n\
            global a: real; global b: real; global ra: real; global rb: real;\n\
            global out: real;\n\
            sub xchg(s: real, r: real, t: int) {\n\
              if (rank() == 0) { send(s, 1, t); } else { recv(r, 0, t); }\n\
            }\n\
            sub main() {\n\
              a = a * 2.0;\n\
              b = 5.0;\n\
              call xchg(a, ra, 1);\n\
              call xchg(b, rb, 2);\n\
              out = ra + rb;\n\
            }";
        let config = ActivityConfig::new(["a"], ["out"]);
        let ir = ProgramIr::from_source(src).unwrap();
        let merged = {
            let mpi = crate::mpi_match::build_mpi_icfg(
                ir.clone(),
                "main",
                0,
                crate::Matching::ReachingConstants,
            )
            .unwrap();
            assert_eq!(mpi.comm_edges.len(), 1, "one shared send, one shared recv");
            analyze_mpi(&mpi, &config).unwrap()
        };
        let cloned = {
            let mpi = crate::mpi_match::build_mpi_icfg(
                ir.clone(),
                "main",
                2,
                crate::Matching::ReachingConstants,
            )
            .unwrap();
            assert_eq!(mpi.comm_edges.len(), 2, "tag constants separate the clones");
            analyze_mpi(&mpi, &config).unwrap()
        };
        let rb = ir.locs.global("rb").unwrap();
        assert!(
            merged.active.contains(rb.index()),
            "shared wrapper merges and pollutes rb"
        );
        assert!(
            !cloned.active.contains(rb.index()),
            "cloning separates the two exchanges"
        );
        assert!(cloned.active_bytes < merged.active_bytes);
    }

    #[test]
    fn unknown_variable_reports_error() {
        let ir = ProgramIr::from_source(FIGURE1).unwrap();
        let icfg = Icfg::build(ir, "main", 0).unwrap();
        let e = analyze_icfg(&icfg, Mode::Naive, &ActivityConfig::new(["nope"], ["f"]));
        assert!(e.is_err());
    }

    #[test]
    fn iterations_accumulate_both_phases() {
        let (res, _) = run(FIGURE1, Mode::MpiIcfg, &["x"], &["f"]);
        assert!(res.iterations >= 2);
        assert!(res.vary.stats.converged && res.useful.stats.converged);
    }

    #[test]
    fn reduce_value_expression_uses_are_tracked() {
        // The reduce sends `z * w`; w varies, the reduction target is the
        // dependent: w and z's path must be active.
        let src = "program p\n\
            global w: real; global z: real; global f: real;\n\
            sub main() { w = w * 2.0; reduce(SUM, z * w, f, 0); }";
        let (res, ir) = run(src, Mode::MpiIcfg, &["w"], &["f"]);
        let active = names(&res, &ir);
        assert!(active.contains(&"w".to_string()), "{active:?}");
        assert!(active.contains(&"f".to_string()));
        // z is useful but does not vary: not active.
        assert!(!active.contains(&"z".to_string()));
    }

    #[test]
    fn int_locations_do_not_count_toward_bytes() {
        let src = "program p\n\
            global n: int; global x: real; global f: real;\n\
            sub main() { n = 4; x = x * 2.0; f = x; }";
        let (res, ir) = run(src, Mode::MpiIcfg, &["x"], &["f"]);
        let active = names(&res, &ir);
        assert!(active.contains(&"x".to_string()));
        assert_eq!(
            res.active_bytes, 16,
            "only x and f (8 bytes each): {active:?}"
        );
    }
}

#[cfg(test)]
mod demand_tests {
    use super::*;
    use crate::mpi_match::{build_mpi_icfg, Matching};
    use mpi_dfa_graph::icfg::ProgramIr;

    const BASE: &str = "program p\n\
        global x: real; global y: real; global out: real;\n\
        sub work() { x = x * 2.0; }\n\
        sub main() {\n\
          call work();\n\
          if (rank() == 0) { send(x, 1, 7); } else { recv(y, 0, 7); }\n\
          out = y + 1.0;\n\
        }";

    fn mpi_of(src: &str) -> MpiIcfg {
        let ir = ProgramIr::from_source(src).unwrap();
        build_mpi_icfg(ir, "main", 1, Matching::ReachingConstants).unwrap()
    }

    #[test]
    fn demand_matches_full_analysis_on_queried_nodes() {
        let cfg = ActivityConfig::new(["x"], ["out"]);
        let mpi = mpi_of(BASE);
        let full = analyze_mpi_with(&mpi, &cfg, &SolveParams::default()).unwrap();
        let icfg = mpi.icfg();
        for node in icfg.nodes() {
            let q = demand_active_at(&mpi, &cfg, &SolveParams::default(), &[node]).unwrap();
            // Demand activity at a node is the full analysis restricted to
            // that node's program points.
            let mut want = full
                .vary
                .before(node)
                .intersection(full.useful.before(node));
            want.union_into(&full.vary.after(node).intersection(full.useful.after(node)));
            assert_eq!(q.active, want, "node {node:?}");
            assert!(q.regions_solved <= q.regions_total);
        }
    }

    #[test]
    fn demand_visits_fewer_nodes_than_the_full_fixpoint_near_entry() {
        let cfg = ActivityConfig::new(["x"], ["out"]);
        let mpi = mpi_of(BASE);
        // The region engine over the whole graph: a demand for every node.
        let every: Vec<NodeId> = mpi.icfg().nodes().collect();
        let full = demand_active_at(&mpi, &cfg, &SolveParams::default(), &every).unwrap();
        let cold = analyze_mpi_with(&mpi, &cfg, &SolveParams::default()).unwrap();
        assert_eq!(
            full.active, cold.active,
            "a demand everywhere is the full answer"
        );
        let full_visits = full.nodes_visited;
        let entry = mpi.icfg().context_entry();
        let q = demand_active_at(&mpi, &cfg, &SolveParams::default(), &[entry]).unwrap();
        assert!(
            q.nodes_visited < full_visits,
            "demand {} vs full {}",
            q.nodes_visited,
            full_visits
        );
    }
}
