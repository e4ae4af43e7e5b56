//! The iterative data-flow solver behind the unified [`Solver`] builder.
//!
//! A full solve ([`Solver::run`]) is round-robin: full passes in reverse
//! postorder until a pass changes nothing. The pass count it records is the
//! "Iter" statistic the paper's Table 1 reports. A sweep position runs its
//! node's transfer only when one of the node's inputs changed since its
//! last run; the others are skipped, but still counted and charged as
//! visits.
//!
//! A partial solve ([`Solver::demand`]) answers facts at chosen nodes: one
//! search against the analysis direction finds the nodes whose facts can
//! reach them, a union of strongly connected regions (communication
//! included, see [`crate::scc`]), and the same stale sweep solves those
//! regions one at a time in topological order, each to a local fixpoint.
//! For monotone problems every fact inside the slice is **byte-identical**
//! to round-robin's (the maximal fixpoint is unique); only the counters
//! differ. See `docs/SOLVER.md`.
//!
//! Both solves handle communication edges: at a node with
//! (direction-adjusted) incoming communication edges, the solver evaluates
//! `f_comm` at each edge's source using that source's *input* fact —
//! matching the paper's `commOUT(n) = f_comm(IN(n))` for forward analyses
//! and `commIN(n) = f_comm(OUT(n))` for backward ones — and hands the meet
//! of those facts to the node's transfer function. Both memoise `f_comm`
//! per source until that source's input fact changes, so
//! `ConvergenceStats::comm_evals` counts evaluations performed, not comm
//! edges visited; and both memoise the meet itself per *receiver class*
//! (the nodes with one set of comm sources), so a visit whose sources are
//! unchanged reads no comm edge at all. See `docs/SOLVER.md`, "The cost of
//! a visit".
//!
//! All solving goes through the [`Solver`] builder — there are no free-
//! function entry points.
//!
//! ```
//! # use mpi_dfa_core::graph::{NodeId, SimpleGraph};
//! # use mpi_dfa_core::problem::{Dataflow, Direction};
//! # use mpi_dfa_core::solver::Solver;
//! # struct Reach;
//! # impl Dataflow for Reach {
//! #     type Fact = bool; type CommFact = ();
//! #     fn direction(&self) -> Direction { Direction::Forward }
//! #     fn top(&self) -> bool { false }
//! #     fn boundary(&self) -> bool { true }
//! #     fn meet_into(&self, d: &mut bool, s: &bool) -> bool { let c = !*d && *s; *d |= *s; c }
//! #     fn transfer(&self, _: NodeId, _: &bool, _: &(), _: &mut bool) {}
//! #     fn comm_transfer(&self, _: NodeId, _: &bool) {}
//! # }
//! let mut g = SimpleGraph::new(2);
//! g.flow(0, 1);
//! g.set_entry(0);
//! g.set_exit(1);
//! let sol = Solver::new(&Reach, &g).run();
//! assert!(sol.output[1]);
//! assert!(sol.stats.converged);
//! let at_exit = Solver::new(&Reach, &g).demand(NodeId(1)).unwrap().run();
//! assert_eq!(at_exit.solution.output[1], sol.output[1]);
//! ```

use crate::budget::{Budget, BudgetMeter, Exhaustion};
use crate::graph::{reverse_postorder, CommClasses, Dfs, Edge, EdgeKind, FlowGraph, NodeId};
use crate::lattice::MeetSemiLattice;
use crate::problem::{Dataflow, Direction};
use crate::scc;
use crate::telemetry;
use std::fmt;
use std::time::{Duration, Instant};

/// Solver tuning knobs.
#[derive(Debug, Clone)]
pub struct SolveParams {
    /// Upper bound on round-robin passes (or, for a demand solve, on
    /// rounds per region). Exceeding it sets
    /// `ConvergenceStats::converged = false` instead of looping forever.
    pub max_passes: usize,
    /// Resource budget (deadline, work-unit cap, cancellation). The solver
    /// charges one work unit per node transfer; exhaustion stops the
    /// fixpoint early with `converged = false` and records the reason in
    /// `ConvergenceStats::exhausted`.
    pub budget: Budget,
}

impl Default for SolveParams {
    fn default() -> Self {
        SolveParams {
            max_passes: 10_000,
            budget: Budget::unlimited(),
        }
    }
}

impl SolveParams {
    /// Default pass bound with the given budget.
    pub fn with_budget(budget: Budget) -> Self {
        SolveParams {
            budget,
            ..SolveParams::default()
        }
    }
}

/// Convergence accounting, reported uniformly by both solves so bench
/// output can chart budget headroom.
///
/// A demand solve adds each region's counts straight into these fields.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConvergenceStats {
    /// Number of full passes over the graph (round-robin) or an equivalent
    /// estimate (demand: visits / nodes, rounded up).
    pub passes: usize,
    /// Total node visits: round-robin's sweep positions, a demand solve's
    /// runs of stale nodes. Each charges one budget work unit.
    pub node_visits: u64,
    /// Visits that ran the node's transfer. Round-robin skips a sweep
    /// position whose node has run before and whose control predecessors'
    /// outputs and receiver-class sources' inputs have not changed since;
    /// a demand solve visits only the nodes it runs, so there this equals
    /// `node_visits`.
    pub evaluated_visits: u64,
    /// Total `f_comm` evaluations performed. Both solves memoise `f_comm`
    /// per comm source, so a source is evaluated once per change of its
    /// input fact (on the next read), not once per comm edge per visit.
    /// A demand solve re-evaluates a source once more in each region that
    /// reads it.
    pub comm_evals: u64,
    /// Upstream control edges of the nodes visited, one per edge per visit
    /// (a skipped round-robin position counts its edges too).
    pub meets: u64,
    /// The most nodes a demand solve had stale at once: the size of the
    /// largest region it started, since each region starts with every
    /// member stale (0 for round-robin).
    pub worklist_peak: usize,
    /// Number of nodes whose input or output changed, per pass (round-robin)
    /// or per round (demand: each region's sweeps add at their round
    /// index).
    pub pass_deltas: Vec<u64>,
    /// Per-node visit counts, indexed by `NodeId::index()`. Feeds the DOT
    /// heat overlay; element-wise summed by [`ConvergenceStats::absorb`].
    pub per_node_visits: Vec<u64>,
    /// Wall-clock time the solve consumed.
    pub elapsed: Duration,
    /// False if the pass bound or the budget was hit before a fixpoint.
    pub converged: bool,
    /// Why the budget stopped the solve, if it did.
    pub exhausted: Option<Exhaustion>,
}

impl ConvergenceStats {
    /// Merge the consumption of a sub-solve into this one (used by clients
    /// that run several solves under one budget).
    ///
    /// On the pure counters (`passes`, `node_visits`, `evaluated_visits`,
    /// `comm_evals`, `meets`, `worklist_peak`, `pass_deltas`,
    /// `per_node_visits`, `elapsed`, `converged`) this operation is
    /// commutative and associative — sums, maxima, element-wise sums, and
    /// conjunction all are — so merged metrics do not depend on merge
    /// order. `exhausted` deliberately
    /// keeps the *first* recorded reason, so it depends on absorb order (a
    /// degradation trace reads in pipeline order).
    pub fn absorb(&mut self, other: &ConvergenceStats) {
        self.passes = self.passes.max(other.passes);
        self.node_visits += other.node_visits;
        self.evaluated_visits += other.evaluated_visits;
        self.comm_evals += other.comm_evals;
        self.meets += other.meets;
        self.worklist_peak = self.worklist_peak.max(other.worklist_peak);
        if self.pass_deltas.len() < other.pass_deltas.len() {
            self.pass_deltas.resize(other.pass_deltas.len(), 0);
        }
        for (d, s) in self.pass_deltas.iter_mut().zip(other.pass_deltas.iter()) {
            *d += *s;
        }
        if self.per_node_visits.len() < other.per_node_visits.len() {
            self.per_node_visits.resize(other.per_node_visits.len(), 0);
        }
        for (d, s) in self
            .per_node_visits
            .iter_mut()
            .zip(other.per_node_visits.iter())
        {
            *d += *s;
        }
        self.elapsed += other.elapsed;
        self.converged &= other.converged;
        if self.exhausted.is_none() {
            self.exhausted = other.exhausted;
        }
    }

    /// Publish this solve's fixpoint counters to the telemetry sink under
    /// the given per-analysis label (no-op when the sink is disabled).
    /// Appears in the `--metrics-out` dump as
    /// `solver_node_visits_total{analysis="<label>"}` and friends.
    pub fn publish_metrics(&self, analysis: &str) {
        if !telemetry::is_enabled() {
            return;
        }
        let labels = [("analysis", analysis)];
        telemetry::metric_add(
            &telemetry::metric_name("solver_passes_total", &labels),
            self.passes as f64,
        );
        telemetry::metric_add(
            &telemetry::metric_name("solver_node_visits_total", &labels),
            self.node_visits as f64,
        );
        telemetry::metric_add(
            &telemetry::metric_name("solver_evaluated_visits_total", &labels),
            self.evaluated_visits as f64,
        );
        telemetry::metric_add(
            &telemetry::metric_name("solver_comm_evals_total", &labels),
            self.comm_evals as f64,
        );
        telemetry::metric_add(
            &telemetry::metric_name("solver_meets_total", &labels),
            self.meets as f64,
        );
        telemetry::metric_max(
            &telemetry::metric_name("solver_worklist_peak", &labels),
            self.worklist_peak as f64,
        );
        telemetry::metric_add(
            &telemetry::metric_name("solver_elapsed_us_total", &labels),
            self.elapsed.as_micros() as f64,
        );
        telemetry::metric_set(
            &telemetry::metric_name("solver_converged", &labels),
            if self.converged { 1.0 } else { 0.0 },
        );
    }
}

/// Why a [`Solver::demand`] root was rejected when it was named — never
/// at run time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolverConfigError {
    /// A node handed to `.demand()` is outside the graph.
    NodeOutOfRange { node: NodeId, num_nodes: usize },
}

impl fmt::Display for SolverConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverConfigError::NodeOutOfRange { node, num_nodes } => {
                write!(f, "node {node} is outside the graph ({num_nodes} nodes)")
            }
        }
    }
}

impl std::error::Error for SolverConfigError {}

/// The fixpoint: per-node facts on both sides of each transfer.
#[derive(Debug, Clone)]
pub struct Solution<F> {
    pub direction: Direction,
    /// Fact flowing *into* each node's transfer (IN for forward, OUT for
    /// backward).
    pub input: Vec<F>,
    /// Fact produced by each node's transfer.
    pub output: Vec<F>,
    pub stats: ConvergenceStats,
}

impl<F> Solution<F> {
    /// The fact holding *before* node `n` in program order.
    pub fn before(&self, n: NodeId) -> &F {
        match self.direction {
            Direction::Forward => &self.input[n.index()],
            Direction::Backward => &self.output[n.index()],
        }
    }

    /// The fact holding *after* node `n` in program order.
    pub fn after(&self, n: NodeId) -> &F {
        match self.direction {
            Direction::Forward => &self.output[n.index()],
            Direction::Backward => &self.input[n.index()],
        }
    }
}

/// Unified builder — the only solve entry point in the framework.
///
/// ```text
/// Solver::new(problem, graph)
///     .params(SolveParams::default())   // or .max_passes(..) / .budget(..)
///     .run()                            // the round-robin full fixpoint
/// ```
///
/// [`Solver::demand`] branches into a [`DemandSolver`] that answers facts
/// at the requested node(s) by solving only their upstream region slice;
/// more roots can be added by chaining [`DemandSolver::demand`]. A root
/// outside the graph is rejected with a typed [`SolverConfigError`] when
/// it is named, never at run time. The sub-builder consumes `self`, so
/// whatever was configured before the branch is what runs.
#[derive(Debug)]
pub struct Solver<'a, P, G> {
    problem: &'a P,
    graph: &'a G,
    params: SolveParams,
}

impl<'a, P: Dataflow, G: FlowGraph> Solver<'a, P, G> {
    /// Start building a solve of `problem` over `graph` with
    /// [`SolveParams::default`].
    pub fn new(problem: &'a P, graph: &'a G) -> Self {
        Solver {
            problem,
            graph,
            params: SolveParams::default(),
        }
    }

    /// Replace all tuning knobs at once.
    pub fn params(mut self, params: SolveParams) -> Self {
        self.params = params;
        self
    }

    /// Set the pass bound.
    pub fn max_passes(mut self, max_passes: usize) -> Self {
        self.params.max_passes = max_passes;
        self
    }

    /// Set the resource budget.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.params.budget = budget;
        self
    }

    /// Run the round-robin fixpoint to completion (or budget/pass-bound
    /// exhaustion).
    pub fn run(self) -> Solution<P::Fact> {
        run_round_robin(self.graph, self.problem, &self.params)
    }

    /// Branch into **demand mode**: answer facts at `at` (and any further
    /// nodes added with [`DemandSolver::demand`]) by solving only the
    /// upstream region slice. Errors with
    /// [`SolverConfigError::NodeOutOfRange`] when `at` is not a node of the
    /// graph.
    pub fn demand(self, at: NodeId) -> Result<DemandSolver<'a, P, G>, SolverConfigError> {
        DemandSolver {
            solver: self,
            roots: Vec::new(),
        }
        .demand(at)
    }
}

/// Demand-mode builder produced by [`Solver::demand`].
pub struct DemandSolver<'a, P, G> {
    solver: Solver<'a, P, G>,
    roots: Vec<NodeId>,
}

impl<P: Dataflow, G: FlowGraph> DemandSolver<'_, P, G> {
    /// Add another demand root; the slice is the union over all roots.
    /// Errors with [`SolverConfigError::NodeOutOfRange`] for a node outside
    /// the graph.
    pub fn demand(mut self, at: NodeId) -> Result<Self, SolverConfigError> {
        if at.index() >= self.solver.graph.num_nodes() {
            return Err(SolverConfigError::NodeOutOfRange {
                node: at,
                num_nodes: self.solver.graph.num_nodes(),
            });
        }
        self.roots.push(at);
        Ok(self)
    }

    /// Solve the upstream region slice of the demand roots in topological
    /// order. Facts at every node inside the slice are byte-identical to a
    /// whole-program fixpoint; nodes outside the slice keep lattice top and
    /// must not be read (consult [`DemandRun::node_in_slice`]).
    pub fn run(self) -> DemandRun<P::Fact> {
        run_demand(
            self.solver.graph,
            self.solver.problem,
            &self.solver.params,
            &self.roots,
        )
    }
}

/// Result of a demand-mode solve.
#[derive(Debug)]
pub struct DemandRun<F> {
    /// Facts are authoritative only where [`DemandRun::node_in_slice`] is
    /// true.
    pub solution: Solution<F>,
    /// Total SCC regions in the graph.
    pub regions_total: usize,
    /// Regions actually solved (the slice).
    pub regions_solved: usize,
    /// Per-node membership of the solved slice.
    pub node_in_slice: Vec<bool>,
}

/// Direction-adjusted view of the graph. `comm` is the class view whose
/// sources feed facts to its receivers under the analysis direction: the
/// graph's own classes forward, their transpose backward (built once per
/// graph, see [`CommClasses::transposed`]).
struct Oriented<'g, G: FlowGraph> {
    graph: &'g G,
    backward: bool,
    comm: &'g CommClasses,
}

impl<'g, G: FlowGraph> Oriented<'g, G> {
    fn new(graph: &'g G, direction: Direction) -> Self {
        let backward = direction == Direction::Backward;
        let comm = graph.comm_classes();
        Oriented {
            graph,
            backward,
            comm: if backward { comm.transposed() } else { comm },
        }
    }

    /// Control edges whose facts flow *into* `n` under the analysis
    /// direction.
    fn upstream(&self, n: NodeId) -> &[Edge] {
        if self.backward {
            self.graph.out_edges(n)
        } else {
            self.graph.in_edges(n)
        }
    }

    /// Control edges whose facts flow *out of* `n` under the analysis
    /// direction.
    fn downstream(&self, n: NodeId) -> &[Edge] {
        if self.backward {
            self.graph.in_edges(n)
        } else {
            self.graph.out_edges(n)
        }
    }

    /// The upstream endpoint of `e`.
    fn source(&self, e: &Edge) -> NodeId {
        if self.backward {
            e.to
        } else {
            e.from
        }
    }

    /// The downstream endpoint of `e`.
    fn target(&self, e: &Edge) -> NodeId {
        if self.backward {
            e.from
        } else {
            e.to
        }
    }

    fn boundary(&self) -> &[NodeId] {
        if self.backward {
            self.graph.exits()
        } else {
            self.graph.entries()
        }
    }

    fn order(&self) -> Vec<NodeId> {
        reverse_postorder(self.graph, self.boundary(), self.backward)
    }
}

/// One solve: the direction-adjusted graph, the problem, the fact vectors,
/// the staleness marks and clocks, the solve's [`CommCache`], the budget
/// meter and the counters, with the problem's `top()` and `boundary()` and
/// three scratch facts. A full solve sweeps it over the whole graph, a
/// demand solve over each region of its slice, both through
/// [`Fixpoint::sweep`].
struct Fixpoint<'a, P: Dataflow, G: FlowGraph> {
    graph: Oriented<'a, G>,
    problem: &'a P,
    params: &'a SolveParams,
    meter: BudgetMeter,
    input: Vec<P::Fact>,
    output: Vec<P::Fact>,
    is_boundary: Vec<bool>,
    cache: CommCache<P::CommFact>,
    /// A control predecessor's output changed since the node last ran (or
    /// it never ran).
    marked: Vec<bool>,
    /// The clock when the node last ran, and when a source of class `c`
    /// last changed its input. A collective is its own source and reads its
    /// class meet before its input moves, so its own change must stamp
    /// later than its run.
    last_run: Vec<u64>,
    class_changed: Vec<u64>,
    clock: u64,
    top: P::Fact,
    boundary: P::Fact,
    /// Scratch for the met input and the transfer output; each is installed
    /// into the fact vectors by swapping, only when it differs.
    met: P::Fact,
    out: P::Fact,
    /// Scratch for a fact translated across a call or return edge.
    translated: P::Fact,
    stats: ConvergenceStats,
}

impl<'a, P: Dataflow, G: FlowGraph> Fixpoint<'a, P, G> {
    fn new(graph: &'a G, problem: &'a P, params: &'a SolveParams) -> Self {
        let graph = Oriented::new(graph, problem.direction());
        let n = graph.graph.num_nodes();
        let mut is_boundary = vec![false; n];
        for &b in graph.boundary() {
            is_boundary[b.index()] = true;
        }
        let top = problem.top();
        Fixpoint {
            cache: CommCache::new(n, graph.comm.num_classes()),
            class_changed: vec![0; graph.comm.num_classes()],
            graph,
            problem,
            params,
            meter: params.budget.meter(),
            input: vec![top.clone(); n],
            output: vec![top.clone(); n],
            is_boundary,
            marked: vec![true; n],
            last_run: vec![0; n],
            clock: 0,
            boundary: problem.boundary(),
            met: top.clone(),
            out: top.clone(),
            translated: top.clone(),
            top,
            stats: ConvergenceStats {
                per_node_visits: vec![0; n],
                ..Default::default()
            },
        }
    }

    /// Whether `node` must run: it never ran, a control predecessor's
    /// output changed since its last run, or a source of its receiver class
    /// changed its input since.
    fn is_stale(&self, node: NodeId) -> bool {
        let i = node.index();
        self.marked[i]
            || self
                .graph
                .comm
                .class_of(node)
                .is_some_and(|c| self.class_changed[c] > self.last_run[i])
    }

    /// Stale sweeps over `members`, given in reverse postorder, until one
    /// leaves no member stale. Returns whether they got there: the budget
    /// (recorded in `exhausted`) or `max_passes` sweeps can stop them first.
    ///
    /// Only a stale node runs `update_node`. Any other would recompute
    /// exactly the facts it holds, because its transfer, its edge
    /// translations and its sources' `f_comm` are functions of their
    /// arguments (the [`Dataflow`] contract). A changed output marks the
    /// node's control successors and a changed input stamps the classes it
    /// feeds. Each sweep is a round, and its fact-changing visits add to
    /// `pass_deltas` at the round's index.
    ///
    /// `round_robin` selects the full solve's accounting, under which every
    /// counter is what a sweep that ran every node would report: each
    /// position, stale or clean, charges the budget and counts as a visit (a
    /// clean one with its upstream edges in `meets`); a round that changed a
    /// fact is followed by another, so the solve closes with a zero-change
    /// pass; and a round the budget cuts short still records its delta.
    /// Otherwise only stale nodes are charged and counted, the sweeps stop
    /// as soon as no member is stale, and a cut round records nothing.
    fn sweep(&mut self, members: &[NodeId], round_robin: bool) -> bool {
        let traced = round_robin && telemetry::is_enabled();
        let mut round = 0;
        loop {
            round += 1;
            let mut delta = 0u64;
            for &node in members {
                let stale = self.is_stale(node);
                if !stale && !round_robin {
                    continue;
                }
                if let Err(e) = self.meter.charge(1) {
                    self.stats.exhausted = Some(e);
                    if round_robin {
                        self.add_round_delta(round, delta);
                    }
                    return false;
                }
                let i = node.index();
                self.stats.node_visits += 1;
                self.stats.per_node_visits[i] += 1;
                if !stale {
                    self.stats.meets += self.graph.upstream(node).len() as u64;
                    continue;
                }
                // Clear before propagating: a self-loop re-marks the node.
                self.marked[i] = false;
                self.last_run[i] = self.clock;
                self.clock += 1;
                self.stats.evaluated_visits += 1;
                let (ic, oc) = self.update_node(node);
                if oc {
                    for e in self.graph.downstream(node) {
                        self.marked[self.graph.target(e).index()] = true;
                    }
                }
                if ic {
                    for &c in self.graph.comm.feeds(node) {
                        self.class_changed[c as usize] = self.clock;
                    }
                }
                if ic || oc {
                    delta += 1;
                }
            }
            self.add_round_delta(round, delta);
            if traced {
                sample_budget_headroom(&self.params.budget, self.meter.work());
            }
            let more = if round_robin {
                delta > 0
            } else {
                members.iter().any(|&m| self.is_stale(m))
            };
            if !more {
                return true;
            }
            if round >= self.params.max_passes {
                return false;
            }
        }
    }

    /// Add a round's fact-changing visits to `pass_deltas` at its index
    /// (rounds count from 1).
    fn add_round_delta(&mut self, round: usize, delta: u64) {
        match self.stats.pass_deltas.get_mut(round - 1) {
            Some(d) => *d += delta,
            None => self.stats.pass_deltas.push(delta),
        }
    }

    /// Recompute node `n` from its upstream facts, returning
    /// (input_changed, output_changed). A changed input drops `n`'s
    /// memoised comm fact and every class meet it feeds.
    fn update_node(&mut self, n: NodeId) -> (bool, bool) {
        let problem = self.problem;
        let i = n.index();
        let edges = self.graph.upstream(n);
        self.stats.meets += edges.len() as u64;

        // The communication meet, read before `n`'s own input moves (a
        // collective is its own comm source).
        let comm = self.cache.meet(self.graph.comm, i, problem, &self.input);

        let in_changed = match edges {
            // One upstream flow edge into a non-boundary node: ⊤ ⊓ x = x,
            // so the met input is the predecessor's output itself.
            [e] if e.kind == EdgeKind::Flow && !self.is_boundary[i] => {
                let src = &self.output[self.graph.source(e).index()];
                let changed = *src != self.input[i];
                if changed {
                    self.input[i].clone_from(src);
                }
                changed
            }
            _ => {
                // Meet over upstream control edges, translating across call
                // and return edges.
                self.met.clone_from(if self.is_boundary[i] {
                    &self.boundary
                } else {
                    &self.top
                });
                for e in edges {
                    let src = &self.output[self.graph.source(e).index()];
                    if e.kind == EdgeKind::Flow {
                        problem.meet_into(&mut self.met, src);
                    } else {
                        self.translated.clone_from(src);
                        problem.translate_into(e, src, &mut self.translated);
                        problem.meet_into(&mut self.met, &self.translated);
                    }
                }
                let changed = self.met != self.input[i];
                if changed {
                    std::mem::swap(&mut self.met, &mut self.input[i]);
                }
                changed
            }
        };
        self.out.clone_from(&self.input[i]);
        problem.transfer(n, &self.input[i], comm, &mut self.out);
        if in_changed {
            self.cache.invalidate(self.graph.comm, i);
        }
        let out_changed = self.out != self.output[i];
        if out_changed {
            std::mem::swap(&mut self.out, &mut self.output[i]);
        }
        (in_changed, out_changed)
    }

    /// Close the solve's span and hand back its facts.
    fn into_solution(
        mut self,
        span: &mut telemetry::SpanGuard,
        started: Instant,
    ) -> Solution<P::Fact> {
        self.stats.comm_evals = self.cache.evals;
        self.stats.elapsed = started.elapsed();
        close_solver_span(span, &self.stats, self.input.len());
        Solution {
            direction: self.problem.direction(),
            input: self.input,
            output: self.output,
            stats: self.stats,
        }
    }
}

/// Round-robin fixpoint: stale sweeps over the whole graph in reverse
/// postorder under the full solve's accounting (see [`Fixpoint::sweep`]).
/// The recorded `passes` value is directly comparable to the paper's
/// Table 1 "Iter" column.
fn run_round_robin<G: FlowGraph, P: Dataflow>(
    graph: &G,
    problem: &P,
    params: &SolveParams,
) -> Solution<P::Fact> {
    let mut fx = Fixpoint::new(graph, problem, params);
    let order = fx.graph.order();
    let mut span = telemetry::span("solver", "fixpoint:round_robin");
    let started = Instant::now();
    fx.stats.converged = fx.sweep(&order, true);
    // Every pass records its delta, a pass the budget cut short included.
    fx.stats.passes = fx.stats.pass_deltas.len();
    fx.into_solution(&mut span, started)
}

/// Memo of `f_comm` per source and of the communication meet per receiver
/// class (of the direction-adjusted class view), shared by both solves:
/// one epoch per round-robin solve, one per region of a demand solve.
///
/// A source's comm fact changes only when its *input* fact changes (the
/// [`Dataflow::comm_transfer`] contract), so each source is evaluated once
/// per input change instead of once per (visit × receiver); and a class
/// meet changes only when one of its sources does, so a receiver whose
/// class meet is valid reads it without touching a source. The meet folds
/// a class's sources in ascending node id.
///
/// The epoch bump at region start drops every entry, so facts that flow in
/// from upstream regions are re-read, never stale.
/// Hit/miss behavior depends only on the deterministic visit sequence, so
/// `comm_evals` (the source miss count) is a deterministic function of the
/// graph.
struct CommCache<F> {
    /// Source `i`'s fact is valid iff `epoch[i] == cur` (0 = never /
    /// invalidated).
    epoch: Vec<u64>,
    facts: Vec<F>,
    /// Class `c`'s meet is valid iff `class_epoch[c] == cur`.
    class_epoch: Vec<u64>,
    class_meet: Vec<F>,
    /// `F::top()`: the meet over no comm edge.
    top: F,
    cur: u64,
    /// `f_comm` evaluations performed.
    evals: u64,
}

impl<F: MeetSemiLattice> CommCache<F> {
    /// An empty cache over `n` nodes and `k` classes whose first epoch is
    /// already open.
    fn new(n: usize, k: usize) -> Self {
        CommCache {
            epoch: vec![0; n],
            facts: vec![F::top(); n],
            class_epoch: vec![0; k],
            class_meet: vec![F::top(); k],
            top: F::top(),
            cur: 1,
            evals: 0,
        }
    }

    /// Invalidate every entry; called once at the start of each region.
    fn begin_region(&mut self) {
        self.cur += 1;
    }

    /// The communication meet node `i`'s transfer reads: its class meet,
    /// recomputed from the memoised source facts only when invalid
    /// (evaluating `f_comm` at the sources whose memo is stale), or top
    /// for a node that receives in no class.
    fn meet<P: Dataflow<CommFact = F>>(
        &mut self,
        classes: &CommClasses,
        i: usize,
        problem: &P,
        input: &[P::Fact],
    ) -> &F {
        let Some(c) = classes.class_of(NodeId(i as u32)) else {
            return &self.top;
        };
        if self.class_epoch[c] != self.cur {
            let meet = &mut self.class_meet[c];
            meet.clone_from(&self.top);
            for s in classes.sources(c) {
                let s = s.index();
                if self.epoch[s] != self.cur {
                    self.facts[s] = problem.comm_transfer(NodeId(s as u32), &input[s]);
                    self.epoch[s] = self.cur;
                    self.evals += 1;
                }
                meet.meet_with(&self.facts[s]);
            }
            self.class_epoch[c] = self.cur;
        }
        &self.class_meet[c]
    }

    /// Drop source `i`'s memo and the meet of every class it feeds (its
    /// input fact just changed).
    fn invalidate(&mut self, classes: &CommClasses, i: usize) {
        self.epoch[i] = 0;
        for &c in classes.feeds(NodeId(i as u32)) {
            self.class_epoch[c as usize] = 0;
        }
    }
}

/// Solve only the demand roots' slice: every node whose facts can reach a
/// root under the analysis direction, found by one search against it.
/// Every node of a strongly connected region reaches every other, so the
/// slice is a union of whole regions (see [`crate::scc`]). They are solved
/// one at a time in topological order, each by stale sweeps over its
/// members in the full solve's reverse postorder, so a region reads only
/// final facts from the regions before it. Inside the slice every fact is
/// what the whole-program fixpoint computes; outside it, facts stay at
/// lattice top. The first region the budget stops ends the solve.
fn run_demand<G: FlowGraph, P: Dataflow>(
    graph: &G,
    problem: &P,
    params: &SolveParams,
    roots: &[NodeId],
) -> DemandRun<P::Fact> {
    let mut span = telemetry::span("solver", "fixpoint:demand");
    let started = Instant::now();
    let mut fx = Fixpoint::new(graph, problem, params);
    let backward = fx.graph.backward;
    let mut search = Dfs::new(graph, !backward);
    for &root in roots {
        search.run(root, |_| {});
    }
    let node_in_slice = search.visited;

    // Region ids are forward-topological, so a backward analysis walks
    // them in reverse. A stable sort keeps each region's members in RPO.
    let cond = scc::condense(graph);
    let num_regions = cond.num_regions();
    let rank = |n: &NodeId| {
        let r = cond.region_of[n.index()] as usize;
        if backward {
            num_regions - 1 - r
        } else {
            r
        }
    };
    let mut members = fx.graph.order();
    members.retain(|n| node_in_slice[n.index()]);
    members.sort_by_key(rank);
    let regions: Vec<&[NodeId]> = members.chunk_by(|a, b| rank(a) == rank(b)).collect();

    fx.stats.converged = true;
    let mut regions_solved = 0;
    for region in &regions {
        regions_solved += 1;
        fx.cache.begin_region();
        let mut region_span = telemetry::span("solver", "region");
        if let Err(e) = fx.meter.poll() {
            // Don't start: the deadline passed or cancellation was
            // requested. The region's span closes without args.
            fx.stats.converged = false;
            fx.stats.exhausted = Some(e);
            break;
        }
        let visits_before = fx.stats.node_visits;
        // Every member starts stale: the most a region has pending.
        fx.stats.worklist_peak = fx.stats.worklist_peak.max(region.len());
        let converged = fx.sweep(region, false);
        fx.stats.converged &= converged;
        if region_span.id().is_some() {
            region_span.arg("region", cond.region_of[region[0].index()] as u64);
            region_span.arg("nodes", region.len());
            region_span.arg("node_visits", fx.stats.node_visits - visits_before);
            region_span.arg("converged", converged);
        }
        if fx.stats.exhausted.is_some() {
            break;
        }
    }
    fx.stats.passes = (fx.stats.node_visits as usize).div_ceil(graph.num_nodes().max(1));
    if span.id().is_some() {
        span.arg("regions", num_regions);
        span.arg("slice_regions", regions.len());
    }
    DemandRun {
        solution: fx.into_solution(&mut span, started),
        regions_total: num_regions,
        regions_solved,
        node_in_slice,
    }
}

/// Sample remaining budget headroom into the trace as counter series (only
/// called when the sink is enabled, at pass granularity — never per node).
fn sample_budget_headroom(budget: &Budget, work_done: u64) {
    if let Some(max) = budget.max_work {
        telemetry::counter(
            "solver",
            "budget_headroom_work",
            max.saturating_sub(work_done) as f64,
        );
    }
    if let Some(deadline) = budget.deadline {
        let remaining = deadline
            .checked_duration_since(Instant::now())
            .unwrap_or(Duration::ZERO);
        telemetry::counter(
            "solver",
            "budget_headroom_ms",
            remaining.as_secs_f64() * 1000.0,
        );
    }
}

/// Attach the final fixpoint counters to the solver span (no-op when the
/// guard is disabled).
fn close_solver_span(span: &mut telemetry::SpanGuard, stats: &ConvergenceStats, nodes: usize) {
    if span.id().is_none() {
        return;
    }
    span.arg("nodes", nodes);
    span.arg("passes", stats.passes);
    span.arg("node_visits", stats.node_visits);
    span.arg("evaluated_visits", stats.evaluated_visits);
    span.arg("comm_evals", stats.comm_evals);
    span.arg("meets", stats.meets);
    span.arg("worklist_peak", stats.worklist_peak);
    span.arg("converged", stats.converged);
    if let Some(e) = stats.exhausted {
        span.arg("exhausted", format!("{e:?}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{EdgeKind, SimpleGraph};
    use crate::lattice::{ConstLattice, MeetSemiLattice};

    /// Forward "reaching value" toy problem over a graph whose node k, when
    /// it has `gen[k] = Some(c)`, generates constant c; otherwise passes its
    /// input through. Comm edges forward the source's constant.
    struct ToyConsts {
        gen: Vec<Option<i64>>,
        /// Nodes that copy their incoming comm fact into the main fact.
        recv: Vec<bool>,
    }

    impl Dataflow for ToyConsts {
        type Fact = ConstLattice<i64>;
        type CommFact = ConstLattice<i64>;

        fn direction(&self) -> Direction {
            Direction::Forward
        }

        fn top(&self) -> Self::Fact {
            ConstLattice::Top
        }

        fn boundary(&self) -> Self::Fact {
            ConstLattice::Bottom
        }

        fn meet_into(&self, dst: &mut Self::Fact, src: &Self::Fact) -> bool {
            dst.meet_with(src)
        }

        fn transfer(
            &self,
            node: NodeId,
            _input: &Self::Fact,
            comm: &Self::CommFact,
            out: &mut Self::Fact,
        ) {
            if self.recv[node.index()] {
                *out = *comm;
            } else if let Some(c) = self.gen[node.index()] {
                *out = ConstLattice::Const(c);
            }
        }

        fn comm_transfer(&self, _node: NodeId, input: &Self::Fact) -> Self::CommFact {
            *input
        }
    }

    fn toy(graph_nodes: usize) -> ToyConsts {
        ToyConsts {
            gen: vec![None; graph_nodes],
            recv: vec![false; graph_nodes],
        }
    }

    /// Backward liveness of one boolean: true wherever the exit is reachable.
    struct Live;

    impl Dataflow for Live {
        type Fact = bool;
        type CommFact = ();
        fn direction(&self) -> Direction {
            Direction::Backward
        }
        fn top(&self) -> bool {
            false
        }
        fn boundary(&self) -> bool {
            true
        }
        fn meet_into(&self, dst: &mut bool, src: &bool) -> bool {
            let c = !*dst && *src;
            *dst |= src;
            c
        }
        fn transfer(&self, _n: NodeId, _i: &bool, _c: &(), _o: &mut bool) {}
        fn comm_transfer(&self, _n: NodeId, _i: &bool) {}
    }

    fn rr<P: Dataflow, G: FlowGraph>(g: &G, p: &P) -> Solution<P::Fact> {
        Solver::new(p, g).run()
    }

    /// A demand for every node: every region of the graph, swept in turn.
    fn demand_all<P: Dataflow, G: FlowGraph>(solver: Solver<'_, P, G>) -> Solution<P::Fact> {
        let n = solver.graph.num_nodes() as u32;
        (1..n)
            .try_fold(solver.demand(NodeId(0)).unwrap(), |d, i| {
                d.demand(NodeId(i))
            })
            .unwrap()
            .run()
            .solution
    }

    fn rg<P: Dataflow, G: FlowGraph>(g: &G, p: &P) -> Solution<P::Fact> {
        demand_all(Solver::new(p, g))
    }

    /// The graph used by several equivalence tests: branches, a loop, and
    /// a comm edge between otherwise disjoint branches.
    fn loopy_comm_graph() -> (SimpleGraph, ToyConsts) {
        let mut g = SimpleGraph::new(6);
        g.flow(0, 1);
        g.flow(0, 2);
        g.flow(1, 3);
        g.flow(2, 3);
        g.flow(3, 4);
        g.flow(4, 1); // loop back
        g.flow(3, 5);
        g.comm(1, 2);
        g.set_entry(0);
        g.set_exit(5);
        let mut p = toy(6);
        p.gen[0] = Some(3);
        p.recv[2] = true;
        (g, p)
    }

    #[test]
    fn straight_line_propagation() {
        // 0 -gen 7-> 1 -> 2
        let mut g = SimpleGraph::new(3);
        g.flow(0, 1);
        g.flow(1, 2);
        g.set_entry(0);
        g.set_exit(2);
        let mut p = toy(3);
        p.gen[0] = Some(7);
        let sol = rr(&g, &p);
        assert_eq!(sol.output[2], ConstLattice::Const(7));
        assert!(sol.stats.converged);
    }

    #[test]
    fn merge_conflict_goes_bottom() {
        // 0 -> 1(gen 1) -> 3 ; 0 -> 2(gen 2) -> 3
        let mut g = SimpleGraph::new(4);
        g.flow(0, 1);
        g.flow(0, 2);
        g.flow(1, 3);
        g.flow(2, 3);
        g.set_entry(0);
        g.set_exit(3);
        let mut p = toy(4);
        p.gen[1] = Some(1);
        p.gen[2] = Some(2);
        let sol = rr(&g, &p);
        assert!(sol.input[3].is_bottom());
        assert!(sol.output[3].is_bottom());
    }

    #[test]
    fn comm_edge_carries_fact_across_disjoint_branches() {
        // The Figure-1 shape: branch node 0 with a "send side" (1 gen 42)
        // and a "recv side" (2), connected only by a comm edge 1 -> 2.
        // A plain CFG analysis cannot give node 2 the constant; the comm
        // transfer does.
        let mut g = SimpleGraph::new(4);
        g.flow(0, 1);
        g.flow(0, 2);
        g.flow(1, 3);
        g.flow(2, 3);
        g.comm(1, 2);
        g.set_entry(0);
        g.set_exit(3);
        let mut p = toy(4);
        // Node 1's *input* is what f_comm reads: make the entry generate 42.
        p.gen[0] = Some(42);
        p.recv[2] = true;
        let sol = rr(&g, &p);
        assert_eq!(sol.output[2], ConstLattice::Const(42));
        assert!(sol.stats.comm_evals > 0);
    }

    #[test]
    fn loops_reach_fixpoint() {
        // 0 -> 1 <-> 2, 1 -> 3 with gen at 2.
        let mut g = SimpleGraph::new(4);
        g.flow(0, 1);
        g.flow(1, 2);
        g.flow(2, 1);
        g.flow(1, 3);
        g.set_entry(0);
        g.set_exit(3);
        let mut p = toy(4);
        p.gen[2] = Some(9);
        let sol = rr(&g, &p);
        // 1 merges boundary-bottom (via 0) with 9 -> bottom.
        assert!(sol.output[3].is_bottom());
        assert!(sol.stats.converged);
        assert!(sol.stats.passes >= 2);
    }

    #[test]
    fn region_matches_round_robin() {
        let (g, p) = loopy_comm_graph();
        let a = rr(&g, &p);
        let b = rg(&g, &p);
        assert_eq!(a.input, b.input);
        assert_eq!(a.output, b.output);
        assert!(b.stats.converged);
        assert!(b.stats.comm_evals > 0);
        assert!(b.stats.node_visits <= a.stats.node_visits);
    }

    /// A `u16` bitset whose meet is union: the comm fact of
    /// [`CountingClique`].
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Bits(u16);

    impl MeetSemiLattice for Bits {
        fn top() -> Self {
            Bits(0)
        }
        fn meet_with(&mut self, other: &Self) -> bool {
            let before = self.0;
            self.0 |= other.0;
            self.0 != before
        }
    }

    /// Forward union problem over `u16` bitsets that counts its `f_comm`
    /// calls per source and the input changes of every node. `transfer`
    /// observes each input change: the solvers call it right after writing
    /// a node's new input.
    struct CountingClique {
        gen: Vec<u16>,
        /// Doubles its set (`x | x << 1`) so each loop trip grows the facts.
        latch: usize,
        comm_calls: std::cell::RefCell<Vec<u64>>,
        /// Per node: the last input `transfer` saw, and how often it changed.
        inputs: std::cell::RefCell<Vec<(u16, u64)>>,
    }

    impl Dataflow for CountingClique {
        type Fact = u16;
        type CommFact = Bits;
        fn direction(&self) -> Direction {
            Direction::Forward
        }
        fn top(&self) -> u16 {
            0
        }
        fn boundary(&self) -> u16 {
            0
        }
        fn meet_into(&self, dst: &mut u16, src: &u16) -> bool {
            let before = *dst;
            *dst |= *src;
            *dst != before
        }
        fn transfer(&self, n: NodeId, input: &u16, comm: &Bits, out: &mut u16) {
            let seen = &mut self.inputs.borrow_mut()[n.index()];
            if seen.0 != *input {
                *seen = (*input, seen.1 + 1);
            }
            *out |= self.gen[n.index()] | comm.0;
            if n.index() == self.latch {
                *out |= *out << 1;
            }
        }
        fn comm_transfer(&self, n: NodeId, input: &u16) -> Bits {
            self.comm_calls.borrow_mut()[n.index()] += 1;
            Bits(*input)
        }
    }

    /// Entry 0 → loop header 1 → chain 2..=9 → latch 10 → back to 1, exit
    /// 11; nodes 2..=9 form an all-pairs comm clique (56 comm edges).
    fn clique_in_loop() -> (SimpleGraph, impl Fn() -> CountingClique) {
        let mut g = SimpleGraph::new(12);
        g.flow(0, 1);
        for i in 1..10 {
            g.flow(i, i + 1);
        }
        g.flow(10, 1);
        g.flow(1, 11);
        for i in 2..=9 {
            for j in 2..=9 {
                if i != j {
                    g.comm(i, j);
                }
            }
        }
        g.set_entry(0);
        g.set_exit(11);
        let problem = || {
            let mut gen = vec![0u16; 12];
            gen[0] = 1;
            gen[5] = 1 << 3;
            CountingClique {
                gen,
                latch: 10,
                comm_calls: std::cell::RefCell::new(vec![0; 12]),
                inputs: std::cell::RefCell::new(vec![(0, 0); 12]),
            }
        };
        (g, problem)
    }

    #[test]
    fn both_engines_evaluate_f_comm_once_per_input_change() {
        let (g, problem) = clique_in_loop();
        let reference = rr(&g, &problem());
        for engine in ["round-robin", "demand"] {
            let p = problem();
            let sol = if engine == "round-robin" {
                rr(&g, &p)
            } else {
                rg(&g, &p)
            };
            assert!(sol.stats.converged, "{engine}");
            assert_eq!(sol.input, reference.input, "{engine}");
            assert_eq!(sol.output, reference.output, "{engine}");
            let calls = p.comm_calls.borrow().clone();
            let inputs = p.inputs.borrow().clone();
            for src in 2..=9 {
                let changes = inputs[src].1;
                assert!(
                    changes >= 2,
                    "{engine}: node {src} input changed {changes}×"
                );
                assert!(
                    calls[src] <= changes + 1,
                    "{engine}: node {src}: {} f_comm calls for {changes} input changes",
                    calls[src]
                );
            }
            assert_eq!(
                sol.stats.comm_evals,
                calls.iter().sum::<u64>(),
                "{engine}: comm_evals counts evaluations performed"
            );
        }
    }

    // -- round-robin skips nodes whose inputs have not changed -----------

    /// The solve converged to exactly the expected facts while skipping
    /// some sweep positions.
    fn assert_skipping_fixpoint<F: PartialEq + fmt::Debug>(
        sol: &Solution<F>,
        input: &[F],
        output: &[F],
    ) {
        assert!(sol.stats.converged);
        assert_eq!(sol.input, input, "IN facts");
        assert_eq!(sol.output, output, "OUT facts");
        assert!(
            sol.stats.evaluated_visits < sol.stats.node_visits,
            "{} evaluated of {} visits",
            sol.stats.evaluated_visits,
            sol.stats.node_visits
        );
    }

    #[test]
    fn a_receiver_reruns_when_its_only_source_changes_later_in_a_loop() {
        // 0 → 1 (receiver) → 2 (gen 3) → 3 ⇄ {4 → 5 (gen 9)}, 3 → 6, and
        // one comm pair 4 → 1. Node 1's control input settles in pass 1;
        // its only source 4 sits later in RPO, inside the loop, and
        // changes its input in pass 1 (⊤ → 3) and in pass 2 (3 → ⊥, once
        // the latch's 9 comes round). Only the class stamp reruns node 1.
        let mut g = SimpleGraph::new(7);
        for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 3), (3, 6)] {
            g.flow(a, b);
        }
        g.comm(4, 1);
        g.set_entry(0);
        g.set_exit(6);
        let mut p = toy(7);
        p.recv[1] = true;
        p.gen[2] = Some(3);
        p.gen[5] = Some(9);
        let sol = rr(&g, &p);
        use ConstLattice::{Bottom as B, Const as C};
        assert_skipping_fixpoint(&sol, &[B; 7], &[B, B, C(3), B, B, C(9), B]);
        assert_eq!(sol.stats.passes, 4);
    }

    #[test]
    fn a_collective_reruns_after_its_own_input_changes() {
        // 0 (gen 5) → 1 → 2, where 1 is a collective: the one source and
        // the one receiver of its class. Its first run reads the class
        // meet of its ⊤ input, then takes 5 as input; only a stamp later
        // than that run makes pass 2 rerun it to read f_comm(5).
        let mut g = SimpleGraph::new(3);
        g.flow(0, 1);
        g.flow(1, 2);
        g.comm(1, 1);
        g.set_entry(0);
        g.set_exit(2);
        let mut p = toy(3);
        p.gen[0] = Some(5);
        p.recv[1] = true;
        let sol = rr(&g, &p);
        use ConstLattice::{Bottom as B, Const as C};
        assert_skipping_fixpoint(&sol, &[B, C(5), C(5)], &[C(5); 3]);
    }

    #[test]
    fn a_self_loop_latch_reruns_until_its_output_settles() {
        // 0 → 1 ⟲ → 2, where 1's transfer doubles its set: each run grows
        // its output, and only the mark its own out-edge leaves reruns it.
        let mut g = SimpleGraph::new(3);
        g.flow(0, 1);
        g.flow(1, 1);
        g.flow(1, 2);
        g.set_entry(0);
        g.set_exit(2);
        let p = CountingClique {
            gen: vec![1, 0, 0],
            latch: 1,
            comm_calls: std::cell::RefCell::new(vec![0; 3]),
            inputs: std::cell::RefCell::new(vec![(0, 0); 3]),
        };
        let sol = rr(&g, &p);
        assert_skipping_fixpoint(&sol, &[0, u16::MAX, u16::MAX], &[1, u16::MAX, u16::MAX]);
    }

    #[test]
    fn region_backward_direction() {
        let mut g = SimpleGraph::new(5);
        g.flow(0, 1);
        g.flow(1, 2);
        g.flow(2, 1); // loop
        g.flow(2, 3);
        g.flow(3, 4);
        g.set_entry(0);
        g.set_exit(4);
        let reference = rr(&g, &Live);
        let sol = rg(&g, &Live);
        assert_eq!(sol.input, reference.input);
        assert_eq!(sol.output, reference.output);
        assert!(reference.output.iter().all(|&b| b));
    }

    #[test]
    fn backward_direction_swaps_roles() {
        let mut g = SimpleGraph::new(3);
        g.flow(0, 1);
        g.flow(1, 2);
        g.set_entry(0);
        g.set_exit(2);
        let sol = rr(&g, &Live);
        // Everything reaches the exit backward.
        assert!(sol.output.iter().all(|&b| b));
        assert!(*sol.before(NodeId(0)));
        assert!(*sol.after(NodeId(0)));
    }

    #[test]
    fn non_monotone_problem_hits_pass_bound() {
        /// Deliberately oscillates: transfer negates.
        struct Flip;
        impl Dataflow for Flip {
            type Fact = bool;
            type CommFact = ();
            fn direction(&self) -> Direction {
                Direction::Forward
            }
            fn top(&self) -> bool {
                false
            }
            fn boundary(&self) -> bool {
                false
            }
            fn meet_into(&self, dst: &mut bool, src: &bool) -> bool {
                let c = *dst != *src;
                *dst = *src;
                c
            }
            fn transfer(&self, _n: NodeId, input: &bool, _c: &(), out: &mut bool) {
                *out = !*input;
            }
            fn comm_transfer(&self, _n: NodeId, _i: &bool) {}
        }
        // A single node with a self-loop oscillates forever under Flip's
        // overwrite-meet + negating transfer.
        let mut g = SimpleGraph::new(1);
        g.flow(0, 0);
        g.set_entry(0);
        g.set_exit(0);
        let sol = Solver::new(&Flip, &g).max_passes(50).run();
        assert!(!sol.stats.converged);
        assert_eq!(sol.stats.passes, 50);
        // Pass-bound non-convergence is distinct from budget exhaustion.
        assert_eq!(sol.stats.exhausted, None);
        // A demand solve hits its per-region round bound too instead of
        // spinning forever.
        let par = demand_all(Solver::new(&Flip, &g).max_passes(50));
        assert!(!par.stats.converged);
        assert_eq!(par.stats.exhausted, None);
    }

    #[test]
    fn budget_exhaustion_stops_both_engines_and_is_reported() {
        let mut g = SimpleGraph::new(4);
        g.flow(0, 1);
        g.flow(1, 2);
        g.flow(2, 1); // loop keeps the solver busy for a few passes
        g.flow(2, 3);
        g.set_entry(0);
        g.set_exit(3);
        let mut p = toy(4);
        p.gen[0] = Some(1);
        let budget = || crate::budget::Budget::unlimited().with_max_work(3);
        let rr_sol = Solver::new(&p, &g).budget(budget()).run();
        let rg_sol = demand_all(Solver::new(&p, &g).budget(budget()));
        for (engine, sol) in [("round-robin", rr_sol), ("demand", rg_sol)] {
            assert!(!sol.stats.converged, "{engine}");
            assert_eq!(
                sol.stats.exhausted,
                Some(crate::budget::Exhaustion::WorkUnits),
                "{engine}"
            );
            assert!(sol.stats.node_visits <= 3, "{engine}");
        }
    }

    #[test]
    fn region_observes_cancellation() {
        let token = crate::budget::CancelToken::new();
        token.cancel(); // pre-cancelled: every region must refuse to start
        let (g, p) = loopy_comm_graph();
        let sol = demand_all(
            Solver::new(&p, &g).budget(crate::budget::Budget::unlimited().with_cancel(token)),
        );
        assert!(!sol.stats.converged);
        assert_eq!(
            sol.stats.exhausted,
            Some(crate::budget::Exhaustion::Cancelled)
        );
        assert_eq!(sol.stats.node_visits, 0, "no region started any work");
    }

    #[test]
    fn region_expired_deadline_stops_immediately() {
        let (g, p) = loopy_comm_graph();
        let sol = demand_all(
            Solver::new(&p, &g).budget(crate::budget::Budget::unlimited().with_deadline_ms(0)),
        );
        assert!(!sol.stats.converged);
        assert_eq!(
            sol.stats.exhausted,
            Some(crate::budget::Exhaustion::Deadline)
        );
    }

    #[test]
    fn both_engines_report_elapsed_and_visits_uniformly() {
        let mut g = SimpleGraph::new(3);
        g.flow(0, 1);
        g.flow(1, 2);
        g.set_entry(0);
        g.set_exit(2);
        let mut p = toy(3);
        p.gen[0] = Some(7);
        let a = rr(&g, &p);
        let b = rg(&g, &p);
        for s in [&a.stats, &b.stats] {
            assert!(s.node_visits > 0);
            assert!(s.converged);
            assert_eq!(s.exhausted, None);
            // elapsed is recorded (may be zero on coarse clocks but the
            // field must exist and absorb must accumulate it).
        }
        let mut total = ConvergenceStats {
            converged: true,
            ..Default::default()
        };
        total.absorb(&a.stats);
        total.absorb(&b.stats);
        assert_eq!(total.node_visits, a.stats.node_visits + b.stats.node_visits);
        assert!(total.converged);
    }

    #[test]
    fn before_after_accessors_forward() {
        let mut g = SimpleGraph::new(2);
        g.flow(0, 1);
        g.set_entry(0);
        g.set_exit(1);
        let mut p = toy(2);
        p.gen[0] = Some(5);
        let sol = rr(&g, &p);
        assert_eq!(*sol.before(NodeId(1)), ConstLattice::Const(5));
        assert_eq!(*sol.after(NodeId(0)), ConstLattice::Const(5));
    }

    #[test]
    fn per_node_visits_sum_to_node_visits_and_feed_absorb() {
        let mut g = SimpleGraph::new(4);
        g.flow(0, 1);
        g.flow(1, 2);
        g.flow(2, 1);
        g.flow(2, 3);
        g.set_entry(0);
        g.set_exit(3);
        let mut p = toy(4);
        p.gen[0] = Some(1);
        for sol in [rr(&g, &p), rg(&g, &p)] {
            assert_eq!(sol.stats.per_node_visits.len(), 4);
            assert_eq!(
                sol.stats.per_node_visits.iter().sum::<u64>(),
                sol.stats.node_visits
            );
            assert!(sol.stats.meets > 0);
            assert!(
                sol.stats.pass_deltas.iter().sum::<u64>() > 0,
                "some node must change before the fixpoint: {:?}",
                sol.stats.pass_deltas
            );
        }
    }

    #[test]
    fn round_robin_pass_deltas_match_pass_count_and_tighten_to_zero() {
        let mut g = SimpleGraph::new(3);
        g.flow(0, 1);
        g.flow(1, 2);
        g.set_entry(0);
        g.set_exit(2);
        let mut p = toy(3);
        p.gen[0] = Some(7);
        let sol = rr(&g, &p);
        assert_eq!(sol.stats.pass_deltas.len(), sol.stats.passes);
        // The final pass observes no change by definition of convergence.
        assert_eq!(*sol.stats.pass_deltas.last().unwrap(), 0);
    }

    #[test]
    fn region_tracks_queue_high_water() {
        let mut g = SimpleGraph::new(5);
        g.flow(0, 1);
        g.flow(0, 2);
        g.flow(1, 3);
        g.flow(2, 3);
        g.flow(3, 4);
        g.set_entry(0);
        g.set_exit(4);
        let mut p = toy(5);
        p.gen[0] = Some(2);
        // Round-robin has no queue.
        let rr_sol = rr(&g, &p);
        assert_eq!(rr_sol.stats.worklist_peak, 0);
        // A demand starts each region with every member stale, so the peak
        // is the largest region solved: on this acyclic graph every region
        // is a single node.
        let rp_sol = rg(&g, &p);
        assert_eq!(rp_sol.stats.worklist_peak, 1);
        // The loop region {1,2,3,4} of the comm graph.
        let (g, p) = loopy_comm_graph();
        assert_eq!(rr(&g, &p).stats.worklist_peak, 0);
        assert_eq!(rg(&g, &p).stats.worklist_peak, 4);
    }

    #[test]
    fn absorb_is_commutative_and_associative_on_counters() {
        #[allow(clippy::too_many_arguments)]
        fn stats(
            passes: usize,
            visits: u64,
            evaluated: u64,
            meets: u64,
            comm: u64,
            peak: usize,
            deltas: &[u64],
            pnv: &[u64],
            us: u64,
            converged: bool,
        ) -> ConvergenceStats {
            ConvergenceStats {
                passes,
                node_visits: visits,
                evaluated_visits: evaluated,
                comm_evals: comm,
                meets,
                worklist_peak: peak,
                pass_deltas: deltas.to_vec(),
                per_node_visits: pnv.to_vec(),
                elapsed: Duration::from_micros(us),
                converged,
                exhausted: None,
            }
        }
        // Zero out order-dependent state (`exhausted` is first-wins by
        // design); every *counter* must combine commutatively.
        let a = stats(3, 10, 6, 20, 2, 7, &[5, 3, 0], &[4, 6], 100, true);
        let b = stats(5, 4, 4, 9, 1, 2, &[4], &[1, 2, 1], 50, true);
        let c = stats(1, 8, 3, 3, 0, 9, &[2, 2, 2, 2], &[8], 10, false);

        let combine = |xs: &[&ConvergenceStats]| {
            let mut acc = ConvergenceStats {
                converged: true,
                ..Default::default()
            };
            for x in xs {
                acc.absorb(x);
            }
            acc
        };
        let abc = combine(&[&a, &b, &c]);
        assert_eq!(
            abc.evaluated_visits,
            6 + 4 + 3,
            "evaluated visits are summed"
        );
        let cba = combine(&[&c, &b, &a]);
        let bac = combine(&[&b, &a, &c]);
        for other in [&cba, &bac] {
            assert_eq!(abc.passes, other.passes);
            assert_eq!(abc.node_visits, other.node_visits);
            assert_eq!(abc.evaluated_visits, other.evaluated_visits);
            assert_eq!(abc.comm_evals, other.comm_evals);
            assert_eq!(abc.meets, other.meets);
            assert_eq!(abc.worklist_peak, other.worklist_peak);
            assert_eq!(abc.pass_deltas, other.pass_deltas);
            assert_eq!(abc.per_node_visits, other.per_node_visits);
            assert_eq!(abc.elapsed, other.elapsed);
            assert_eq!(abc.converged, other.converged);
        }
        // Associativity: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c).
        let mut ab = a.clone();
        ab.absorb(&b);
        let mut ab_c = ab.clone();
        ab_c.absorb(&c);
        let mut bc = b.clone();
        bc.absorb(&c);
        let mut a_bc = a.clone();
        a_bc.absorb(&bc);
        assert_eq!(ab_c, a_bc);
    }

    #[test]
    fn absorb_monotone_across_passes() {
        // Counters only grow as more sub-solves are absorbed.
        let mut g = SimpleGraph::new(3);
        g.flow(0, 1);
        g.flow(1, 2);
        g.set_entry(0);
        g.set_exit(2);
        let mut p = toy(3);
        p.gen[0] = Some(7);
        let s1 = rr(&g, &p).stats;
        let s2 = rg(&g, &p).stats;
        let mut acc = ConvergenceStats {
            converged: true,
            ..Default::default()
        };
        let mut prev_visits = 0;
        let mut prev_meets = 0;
        for s in [&s1, &s2, &s1] {
            acc.absorb(s);
            assert!(acc.node_visits >= prev_visits);
            assert!(acc.meets >= prev_meets);
            prev_visits = acc.node_visits;
            prev_meets = acc.meets;
        }
        assert_eq!(acc.node_visits, s1.node_visits * 2 + s2.node_visits);
    }

    #[test]
    fn publish_metrics_lands_in_the_sink_with_analysis_label() {
        use crate::telemetry::{self, TraceLevel, TEST_SINK_GATE};
        let _gate = TEST_SINK_GATE.lock().unwrap_or_else(|p| p.into_inner());
        let mut g = SimpleGraph::new(2);
        g.flow(0, 1);
        g.set_entry(0);
        g.set_exit(1);
        let mut p = toy(2);
        p.gen[0] = Some(5);
        let sol = rr(&g, &p);
        telemetry::install(TraceLevel::Spans);
        sol.stats.publish_metrics("toy");
        let report = telemetry::finish();
        let key = "solver_node_visits_total{analysis=\"toy\"}";
        assert_eq!(report.metrics[key], sol.stats.node_visits as f64);
        assert!(report
            .metrics
            .contains_key("solver_converged{analysis=\"toy\"}"));
    }

    #[test]
    fn demand_traces_one_span_per_solved_region() {
        use crate::telemetry::{self, TraceLevel, TEST_SINK_GATE};
        let _gate = TEST_SINK_GATE.lock().unwrap_or_else(|p| p.into_inner());
        let (g, p) = loopy_comm_graph();
        telemetry::install(TraceLevel::Full);
        let _ = rg(&g, &p);
        let report = telemetry::finish();
        assert!(report.events.iter().any(|e| e.name == "fixpoint:demand"));
        assert!(report.events.iter().any(|e| e.name == "region"));
    }

    #[test]
    fn a_region_refused_at_its_start_closes_its_span_without_args() {
        use crate::telemetry::{self, EventKind, TraceLevel, TEST_SINK_GATE};
        let _gate = TEST_SINK_GATE.lock().unwrap_or_else(|p| p.into_inner());
        let token = crate::budget::CancelToken::new();
        token.cancel();
        let (g, p) = loopy_comm_graph();
        telemetry::install(TraceLevel::Full);
        let run = Solver::new(&p, &g)
            .budget(crate::budget::Budget::unlimited().with_cancel(token))
            .demand(NodeId(5))
            .unwrap()
            .run();
        let report = telemetry::finish();
        assert_eq!(run.regions_solved, 1, "the walk ends at the first region");
        let regions: Vec<_> = report
            .events
            .iter()
            .filter(|e| e.name == "region")
            .collect();
        assert!(regions
            .iter()
            .any(|e| matches!(e.kind, EventKind::SpanEnd { .. })));
        assert!(regions.iter().all(|e| e.args.is_empty()), "{regions:?}");
    }

    #[test]
    fn translate_is_applied_on_call_edges() {
        /// Increment the constant when crossing a call edge (a stand-in for
        /// actual→formal renaming).
        struct Inc;
        impl Dataflow for Inc {
            type Fact = ConstLattice<i64>;
            type CommFact = ();
            fn direction(&self) -> Direction {
                Direction::Forward
            }
            fn top(&self) -> Self::Fact {
                ConstLattice::Top
            }
            fn boundary(&self) -> Self::Fact {
                ConstLattice::Const(10)
            }
            fn meet_into(&self, dst: &mut Self::Fact, src: &Self::Fact) -> bool {
                dst.meet_with(src)
            }
            fn transfer(&self, _n: NodeId, _i: &Self::Fact, _c: &(), _o: &mut Self::Fact) {}
            fn comm_transfer(&self, _n: NodeId, _i: &Self::Fact) {}
            fn translate_into(&self, edge: &Edge, fact: &Self::Fact, out: &mut Self::Fact) {
                if let (EdgeKind::Call { .. }, ConstLattice::Const(c)) = (edge.kind, fact) {
                    *out = ConstLattice::Const(c + 1);
                }
            }
        }
        let mut g = SimpleGraph::new(2);
        g.add_edge(0, 1, EdgeKind::Call { site: 0 });
        g.set_entry(0);
        g.set_exit(1);
        let sol = rr(&g, &Inc);
        assert_eq!(sol.input[1], ConstLattice::Const(11));
        // Translate must behave identically in both engines.
        let par = rg(&g, &Inc);
        assert_eq!(par.input, sol.input);
        assert_eq!(par.output, sol.output);
    }

    /// A chain 0 -> 1 -> ... -> n-1 with gen at node 0: every node is its
    /// own SCC region, in topological order by node id.
    fn chain(n: usize, gen0: i64) -> (SimpleGraph, ToyConsts) {
        let mut g = SimpleGraph::new(n);
        for i in 0..n - 1 {
            g.flow(i as u32, i as u32 + 1);
        }
        g.set_entry(0);
        g.set_exit(n as u32 - 1);
        let mut p = toy(n);
        p.gen[0] = Some(gen0);
        (g, p)
    }

    // -- demand (Solver::demand) -------------------------------------------

    #[test]
    fn demand_rejects_out_of_range_roots() {
        let (g, p) = loopy_comm_graph();
        assert_eq!(
            Solver::new(&p, &g).demand(NodeId(99)).err().unwrap(),
            SolverConfigError::NodeOutOfRange {
                node: NodeId(99),
                num_nodes: 6,
            }
        );
        let chained = Solver::new(&p, &g)
            .demand(NodeId(0))
            .unwrap()
            .demand(NodeId(99));
        assert!(chained.is_err());
    }

    #[test]
    fn demand_slice_facts_match_the_full_fixpoint() {
        let (g, p) = loopy_comm_graph();
        let full = rr(&g, &p);
        // Node 1 lives in the comm-loop region {1,2,3,4}; its upstream
        // closure is {0} ∪ {1,2,3,4} — node 5's region stays unsolved.
        let run = Solver::new(&p, &g).demand(NodeId(1)).unwrap().run();
        assert_eq!(run.regions_total, 3);
        assert_eq!(run.regions_solved, 2);
        assert!(!run.node_in_slice[5]);
        for n in 0..6 {
            if run.node_in_slice[n] {
                assert_eq!(run.solution.input[n], full.input[n], "node {n}");
                assert_eq!(run.solution.output[n], full.output[n], "node {n}");
            }
        }
        // Outside the slice facts stay at top and must not be trusted.
        assert_eq!(run.solution.output[5], ConstLattice::Top);
    }

    #[test]
    fn demand_union_of_roots_covers_both_slices() {
        let (g, p) = chain(10, 7);
        let full = rr(&g, &p);
        let run = Solver::new(&p, &g)
            .demand(NodeId(2))
            .unwrap()
            .demand(NodeId(4))
            .unwrap()
            .run();
        assert_eq!(run.regions_solved, 5, "prefix 0..=4 of the chain");
        for n in 0..10 {
            assert_eq!(run.node_in_slice[n], n <= 4, "node {n}");
            if n <= 4 {
                assert_eq!(run.solution.output[n], full.output[n]);
            }
        }
        // The slice visited strictly fewer nodes than the full fixpoint.
        assert!(run.solution.stats.node_visits < full.stats.node_visits);
    }

    #[test]
    fn demand_backward_slices_downstream_regions() {
        let mut g = SimpleGraph::new(4);
        g.flow(0, 1);
        g.flow(1, 2);
        g.flow(2, 3);
        g.set_entry(0);
        g.set_exit(3);
        let full = rr(&g, &Live);
        let run = Solver::new(&Live, &g).demand(NodeId(2)).unwrap().run();
        // Backward: "upstream" is the exit side — the slice is 2, 3.
        assert_eq!(run.node_in_slice, vec![false, false, true, true]);
        assert_eq!(run.solution.output[2], full.output[2]);
        assert_eq!(run.regions_solved, 2);
    }

    #[test]
    fn demand_slice_follows_direction() {
        // 0 -> 1 -> 2, 3 isolated.
        let mut g = SimpleGraph::new(4);
        g.flow(0, 1);
        g.flow(1, 2);
        g.set_entry(0);
        g.set_exit(2);
        let fwd = Solver::new(&toy(4), &g).demand(NodeId(1)).unwrap().run();
        assert_eq!(fwd.node_in_slice, vec![true, true, false, false]);
        assert_eq!((fwd.regions_solved, fwd.regions_total), (2, 4));
        let bwd = Solver::new(&Live, &g).demand(NodeId(1)).unwrap().run();
        assert_eq!(bwd.node_in_slice, vec![false, true, true, false]);
        assert_eq!((bwd.regions_solved, bwd.regions_total), (2, 4));
    }

    #[test]
    fn demand_slice_crosses_comm_classes() {
        // 0 -comm-> 2 and 1 -comm-> 2, 3: the classes carry facts across
        // otherwise unconnected nodes.
        let mut g = SimpleGraph::new(5);
        g.comm(0, 2);
        g.comm(1, 2);
        g.comm(1, 3);
        g.flow(3, 4);
        let mut p = toy(5);
        p.gen[0] = Some(1);
        p.gen[1] = Some(1);
        p.recv[2] = true;
        let fwd = Solver::new(&p, &g).demand(NodeId(2)).unwrap().run();
        assert_eq!(fwd.node_in_slice, vec![true, true, true, false, false]);
        assert_eq!(fwd.regions_solved, 3);
        assert_eq!(fwd.solution.output[2], rr(&g, &p).output[2]);
        let bwd = Solver::new(&Live, &g).demand(NodeId(1)).unwrap().run();
        assert_eq!(bwd.node_in_slice, vec![false, true, true, true, true]);
        assert_eq!(bwd.regions_solved, 4);
    }

    #[test]
    fn solver_config_errors_render_useful_messages() {
        let msg = SolverConfigError::NodeOutOfRange {
            node: NodeId(9),
            num_nodes: 4,
        }
        .to_string();
        assert!(msg.contains('9') && msg.contains('4'), "{msg:?}");
    }
}
