//! The iterative data-flow solver behind the unified [`Solver`] builder.
//!
//! Two strategies are provided (see [`Strategy`]):
//!
//! * [`Strategy::RoundRobin`] — full passes in reverse postorder until a
//!   pass changes nothing. The pass count it records is the "Iter"
//!   statistic the paper's Table 1 reports, so the experiment harness pins
//!   this strategy.
//! * [`Strategy::Region`] — Tarjan-condenses the graph (including
//!   communication edges, see [`crate::scc`]) and solves each strongly
//!   connected region to a local fixpoint in topological order, revisiting
//!   only nodes whose inputs may have changed. For monotone problems the
//!   solution is **byte-identical** to round-robin's (the maximal fixpoint
//!   is unique); only the counters differ. See `docs/SOLVER.md`.
//!
//! Both strategies handle communication edges: at a node with
//! (direction-adjusted) incoming communication edges, the solver evaluates
//! `f_comm` at each edge's source using that source's *input* fact —
//! matching the paper's `commOUT(n) = f_comm(IN(n))` for forward analyses
//! and `commIN(n) = f_comm(OUT(n))` for backward ones — and hands the
//! collected communication facts to the node's transfer function. Both
//! memoise `f_comm` per source until that source's input fact changes, so
//! `ConvergenceStats::comm_evals` counts evaluations performed, not comm
//! edges visited.
//!
//! All solving goes through the [`Solver`] builder — there are no free-
//! function entry points. Beyond the two full-fixpoint strategies the
//! builder exposes two *partial* modes: [`Solver::seed`] re-solves only the
//! SCC regions invalidated by an edit (transplanting byte-identical facts
//! into the rest), and [`Solver::demand`] answers facts at specific nodes
//! from the upstream region slice alone. See `docs/INCREMENTAL.md`.
//!
//! ```
//! # use mpi_dfa_core::graph::{NodeId, SimpleGraph};
//! # use mpi_dfa_core::problem::{Dataflow, Direction};
//! # use mpi_dfa_core::solver::{Solver, Strategy};
//! # struct Reach;
//! # impl Dataflow for Reach {
//! #     type Fact = bool; type CommFact = ();
//! #     fn direction(&self) -> Direction { Direction::Forward }
//! #     fn top(&self) -> bool { false }
//! #     fn boundary(&self) -> bool { true }
//! #     fn meet_into(&self, d: &mut bool, s: &bool) -> bool { let c = !*d && *s; *d |= *s; c }
//! #     fn transfer(&self, _: NodeId, i: &bool, _: &[()]) -> bool { *i }
//! #     fn comm_transfer(&self, _: NodeId, _: &bool) {}
//! # }
//! let mut g = SimpleGraph::new(2);
//! g.flow(0, 1);
//! g.set_entry(0);
//! g.set_exit(1);
//! let sol = Solver::new(&Reach, &g).strategy(Strategy::Region).run();
//! assert!(sol.output[1]);
//! assert!(sol.stats.converged);
//! ```

use crate::budget::{Budget, BudgetMeter, Exhaustion};
use crate::graph::{reverse_postorder, Edge, FlowGraph, NodeId};
use crate::problem::{Dataflow, Direction};
use crate::scc::{self, Condensation};
use crate::telemetry;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Environment variable consulted once per process by
/// [`Strategy::session_default`] (and thus [`SolveParams::default`]);
/// lets CI run the whole suite under a different default strategy without
/// touching call sites.
pub const STRATEGY_ENV: &str = "MPIDFA_SOLVER";

/// Fixpoint iteration strategy. A pure performance knob: for monotone,
/// converging problems every strategy computes the same maximal fixpoint,
/// which is why strategy is deliberately **excluded** from every result
/// cache key (service result cache, `repro` row cache).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Full reverse-postorder passes; `passes` matches Table 1's "Iter".
    RoundRobin,
    /// SCC condensation solved region by region in topological order;
    /// converged solves capture the seed [`Solver::seed`] needs.
    Region,
}

static SESSION_DEFAULT: OnceLock<Strategy> = OnceLock::new();

impl Strategy {
    /// Parse the CLI/service spelling: `round-robin` or `region`.
    pub fn parse(s: &str) -> Result<Strategy, String> {
        match s {
            "round-robin" => Ok(Strategy::RoundRobin),
            "region" => Ok(Strategy::Region),
            other => Err(format!(
                "unknown solver strategy {other:?} (expected round-robin|region)"
            )),
        }
    }

    /// The strategy named by [`STRATEGY_ENV`]: `Ok(None)` when the variable
    /// is unset or empty, `Err` naming the accepted spellings when it holds
    /// anything else. The CLIs call this at startup, so a stale value fails
    /// loudly there.
    pub fn from_env() -> Result<Option<Strategy>, String> {
        match std::env::var(STRATEGY_ENV) {
            Ok(v) if !v.trim().is_empty() => Strategy::parse(v.trim())
                .map(Some)
                .map_err(|e| format!("{STRATEGY_ENV}: {e}")),
            _ => Ok(None),
        }
    }

    /// Process-wide default strategy: [`STRATEGY_ENV`] read once, falling
    /// back to [`Strategy::RoundRobin`] (the paper's Table-1 iteration
    /// scheme) when it is unset or unparsable (a bad value must not turn
    /// library calls into panics; the CLIs validate loudly instead).
    /// Cached so hot paths constructing [`SolveParams::default`] never
    /// touch the environment again.
    pub fn session_default() -> Strategy {
        *SESSION_DEFAULT.get_or_init(|| {
            Strategy::from_env()
                .ok()
                .flatten()
                .unwrap_or(Strategy::RoundRobin)
        })
    }

    /// Pin the process-wide default strategy (what `--solver` on the CLIs
    /// does). Returns `false` when the default was already established —
    /// either by a previous call or because something already solved under
    /// the environment-derived default; callers that need the override to
    /// stick should invoke this before running any analysis.
    pub fn set_session_default(strategy: Strategy) -> bool {
        SESSION_DEFAULT.set(strategy).is_ok()
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Strategy::RoundRobin => write!(f, "round-robin"),
            Strategy::Region => write!(f, "region"),
        }
    }
}

/// Solver tuning knobs.
#[derive(Debug, Clone)]
pub struct SolveParams {
    /// Upper bound on round-robin passes (or, for the region engine, on
    /// rounds per region). Exceeding it sets
    /// `ConvergenceStats::converged = false` instead of looping forever.
    pub max_passes: usize,
    /// Resource budget (deadline, work-unit cap, cancellation). The solver
    /// charges one work unit per node transfer; exhaustion stops the
    /// fixpoint early with `converged = false` and records the reason in
    /// `ConvergenceStats::exhausted`.
    pub budget: Budget,
    /// Iteration strategy; defaults to [`Strategy::session_default`].
    pub strategy: Strategy,
}

impl Default for SolveParams {
    fn default() -> Self {
        SolveParams {
            max_passes: 10_000,
            budget: Budget::unlimited(),
            strategy: Strategy::session_default(),
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

    /// Default params with the given strategy.
    pub fn with_strategy(strategy: Strategy) -> Self {
        SolveParams {
            strategy,
            ..SolveParams::default()
        }
    }
}

/// Convergence accounting, reported uniformly by all solver strategies so
/// bench output can chart budget headroom.
///
/// Under [`Strategy::Region`] every field except `elapsed` is derived from
/// per-region accounting merged in region-id order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConvergenceStats {
    /// Number of full passes over the graph (round-robin) or an equivalent
    /// estimate (region engine: visits / nodes, rounded up).
    pub passes: usize,
    /// Total node transfer evaluations.
    pub node_visits: u64,
    /// Total `f_comm` evaluations performed. Both strategies memoise
    /// `f_comm` per comm source, so a source is evaluated once per change
    /// of its input fact (on the next read), not once per comm edge per
    /// visit. The region engine re-evaluates a source once more in each
    /// region that reads it.
    pub comm_evals: u64,
    /// Total meet operations applied while recomputing node inputs (one per
    /// upstream non-communication edge visited).
    pub meets: u64,
    /// High-water mark of the region engine's pending nodes: the **maximum
    /// over per-region queue high-waters** (0 for round-robin, which has no
    /// queue).
    pub worklist_peak: usize,
    /// Number of nodes whose input or output changed, per pass (round-robin)
    /// or per round (region engine: per-region round series summed
    /// element-wise in region-id order).
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
    /// On the pure counters (`passes`, `node_visits`, `comm_evals`, `meets`,
    /// `worklist_peak`, `pass_deltas`, `per_node_visits`, `elapsed`,
    /// `converged`) this operation is commutative and associative — sums,
    /// maxima, element-wise sums, and conjunction all are — so merged
    /// metrics do not depend on merge order. `exhausted` deliberately
    /// keeps the *first* recorded reason, so it depends on absorb order (a
    /// degradation trace reads in pipeline order).
    pub fn absorb(&mut self, other: &ConvergenceStats) {
        self.passes = self.passes.max(other.passes);
        self.node_visits += other.node_visits;
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

/// Region-level seed data captured by fingerprint-capable solves (the
/// region strategy and incremental re-solves, when the problem
/// implements [`Dataflow::node_fingerprint`]). Consumed by
/// [`Solver::seed`] on the *next* build of the graph: regions whose local
/// fingerprint and upstream facts are unchanged get their facts and solve
/// accounting transplanted instead of re-solved.
///
/// Everything inside refers to the graph the seed was computed over; the
/// incremental solver matches regions structurally, never by raw node id.
#[derive(Debug, Clone)]
pub struct SeedRegions {
    /// Region id → member nodes, in local (sorted-by-node-id) order.
    regions: Vec<Vec<NodeId>>,
    /// Region id → local structural fingerprint (see
    /// [`scc::region_fingerprints`]).
    local_fp: Vec<u64>,
    /// Region id → external upstream-edge descriptors.
    ext_in: Vec<Vec<scc::ExtInEdge>>,
    /// Region id → the region's solve accounting, replayed on transplant so
    /// a seeded re-solve's merged stats match a cold region-engine solve.
    stats: Vec<RegionStats>,
}

impl SeedRegions {
    /// Number of regions in the solve that produced this seed.
    pub fn num_regions(&self) -> usize {
        self.regions.len()
    }
}

/// Why a [`Solver`] partial-mode configuration was rejected at build time.
/// Every misuse the type system cannot rule out statically surfaces here —
/// never as a run-time panic or a silently-wrong answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolverConfigError {
    /// The seed solution was solved in the opposite direction.
    SeedDirectionMismatch { expected: Direction, got: Direction },
    /// The seed solution did not converge; its facts are not a fixpoint and
    /// transplanting them would under-approximate.
    SeedNotConverged,
    /// The seed solution carries no [`SeedRegions`] (it was not produced by
    /// a fingerprint-capable solve — see [`Solution::regions`]).
    SeedWithoutRegions,
    /// The problem returns `None` from [`Dataflow::node_fingerprint`], so
    /// regions cannot be matched across graph builds.
    FingerprintsUnavailable,
    /// A node handed to `.demand()` or `.dirty()` is outside the graph.
    NodeOutOfRange { node: NodeId, num_nodes: usize },
}

impl fmt::Display for SolverConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverConfigError::SeedDirectionMismatch { expected, got } => write!(
                f,
                "seed solution direction {got:?} does not match the problem's {expected:?}"
            ),
            SolverConfigError::SeedNotConverged => {
                write!(f, "seed solution did not converge; re-solve from scratch")
            }
            SolverConfigError::SeedWithoutRegions => write!(
                f,
                "seed solution has no region seed data (not produced by a \
                 fingerprint-capable solve)"
            ),
            SolverConfigError::FingerprintsUnavailable => write!(
                f,
                "problem does not implement node_fingerprint; incremental \
                 seeding is unavailable"
            ),
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
    /// Region seed data for incremental re-solving, captured when the solve
    /// ran the region engine (or an incremental re-solve), converged, and
    /// the problem implements [`Dataflow::node_fingerprint`]; `None`
    /// otherwise. Cheap to clone (shared via `Arc`).
    pub regions: Option<Arc<SeedRegions>>,
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

/// Unified builder over both iteration strategies — the only solve entry
/// point in the framework.
///
/// ```text
/// Solver::new(problem, graph)
///     .strategy(Strategy::Region)
///     .params(SolveParams::default())   // or .max_passes(..) / .budget(..)
///     .run()
/// ```
///
/// # Builder-state rules (partial modes)
///
/// Beyond the full fixpoint, the builder branches into two typestate
/// sub-builders whose misuse is unrepresentable or rejected with a typed
/// [`SolverConfigError`] at *build* time, never at run time:
///
/// * **Incremental**: [`Solver::seed`] validates the previous
///   [`Solution`] (matching direction, converged, carries
///   [`SeedRegions`], problem is fingerprintable) and returns a
///   [`SeededSolver`]. A seeded solver has **no `run()`** — the dirty set
///   must be declared first via [`SeededSolver::dirty`] (an empty set is
///   legal: every region is then validated purely by fingerprint + input
///   facts), which yields an [`IncrementalSolver`] whose
///   [`IncrementalSolver::run`] re-solves only invalidated regions and
///   transplants the rest.
/// * **Demand**: [`Solver::demand`] returns a [`DemandSolver`] that
///   answers facts at the requested node(s) by solving only the upstream
///   region slice. More roots can be added by chaining
///   [`DemandSolver::demand`].
///
/// Both partial modes run the region engine whatever the configured
/// strategy. Both sub-builders consume `self`, so a partial mode cannot be
/// combined with a later `.strategy(..)` / `.params(..)` rewrite — whatever
/// was configured before the branch is what runs.
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

    /// Select the iteration strategy (overrides the one in the params).
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.params.strategy = strategy;
        self
    }

    /// Replace all tuning knobs at once (including the strategy).
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

    /// Run the fixpoint to completion (or budget/pass-bound exhaustion).
    pub fn run(self) -> Solution<P::Fact> {
        match self.params.strategy {
            Strategy::RoundRobin => run_round_robin(self.graph, self.problem, &self.params),
            Strategy::Region => run_region(self.graph, self.problem, &self.params),
        }
    }

    /// Branch into **incremental mode**: validate `prev` as a seed and
    /// return a [`SeededSolver`] (see the builder-state rules on
    /// [`Solver`]). Errors:
    ///
    /// * [`SolverConfigError::SeedDirectionMismatch`] — `prev` was solved
    ///   in the opposite direction;
    /// * [`SolverConfigError::SeedNotConverged`] — `prev`'s facts are not a
    ///   fixpoint;
    /// * [`SolverConfigError::SeedWithoutRegions`] — `prev` carries no
    ///   [`SeedRegions`];
    /// * [`SolverConfigError::FingerprintsUnavailable`] — the problem does
    ///   not implement [`Dataflow::node_fingerprint`].
    pub fn seed(
        self,
        prev: &'a Solution<P::Fact>,
    ) -> Result<SeededSolver<'a, P, G>, SolverConfigError> {
        let expected = self.problem.direction();
        if prev.direction != expected {
            return Err(SolverConfigError::SeedDirectionMismatch {
                expected,
                got: prev.direction,
            });
        }
        if !prev.stats.converged {
            return Err(SolverConfigError::SeedNotConverged);
        }
        if prev.regions.is_none() {
            return Err(SolverConfigError::SeedWithoutRegions);
        }
        let node_fp = node_fingerprints(self.graph, self.problem)
            .ok_or(SolverConfigError::FingerprintsUnavailable)?;
        Ok(SeededSolver {
            solver: self,
            prev,
            node_fp,
        })
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

/// Incremental-mode builder produced by [`Solver::seed`]; the seed has been
/// validated. Has no `run()` — call [`SeededSolver::dirty`] first (the
/// typestate that makes "seed without dirty" unrepresentable).
pub struct SeededSolver<'a, P: Dataflow, G> {
    solver: Solver<'a, P, G>,
    prev: &'a Solution<P::Fact>,
    node_fp: Vec<u64>,
}

impl<'a, P: Dataflow, G: FlowGraph> SeededSolver<'a, P, G> {
    /// Declare the nodes whose transfer semantics may have changed (for a
    /// source edit: every node of the edited procedures). Their regions are
    /// force-re-solved; all other regions are validated by fingerprint and
    /// upstream-fact equality and transplanted when unchanged. An empty
    /// dirty set is legal — validation alone decides what re-solves.
    pub fn dirty(self, nodes: &[NodeId]) -> IncrementalSolver<'a, P, G> {
        IncrementalSolver {
            seeded: self,
            dirty: nodes.to_vec(),
        }
    }
}

/// Ready-to-run incremental re-solve ([`Solver::seed`] + dirty set).
pub struct IncrementalSolver<'a, P: Dataflow, G> {
    seeded: SeededSolver<'a, P, G>,
    dirty: Vec<NodeId>,
}

impl<P: Dataflow, G: FlowGraph> IncrementalSolver<'_, P, G> {
    /// Run the incremental re-solve: condense the (new) graph, force-dirty
    /// the declared regions, validate every other region against the seed,
    /// transplant validated regions' facts and accounting, and re-solve the
    /// rest in region topological order. For monotone converging problems
    /// the resulting facts — and, for transplanted regions, the solve
    /// accounting — are byte-identical to a cold region-engine solve of the
    /// same graph.
    pub fn run(self) -> SeededRun<P::Fact> {
        run_incremental(
            self.seeded.solver.graph,
            self.seeded.solver.problem,
            &self.seeded.solver.params,
            self.seeded.prev,
            &self.seeded.node_fp,
            &self.dirty,
        )
    }
}

/// Result of an incremental re-solve: the full solution plus the
/// reuse/re-solve split (also published to telemetry as
/// `solver_regions_reused_total` / `solver_regions_resolved_total`).
#[derive(Debug)]
pub struct SeededRun<F> {
    pub solution: Solution<F>,
    /// Total SCC regions in the (new) graph.
    pub regions_total: usize,
    /// Regions whose facts were transplanted from the seed.
    pub regions_reused: usize,
    /// Regions re-solved (dirty, unmatched, or upstream facts changed).
    pub regions_resolved: usize,
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
    /// true; `solution.regions` is always `None` (a partial solution must
    /// never seed an incremental re-solve).
    pub solution: Solution<F>,
    /// Total SCC regions in the graph.
    pub regions_total: usize,
    /// Regions actually solved (the slice).
    pub regions_solved: usize,
    /// Per-node membership of the solved slice.
    pub node_in_slice: Vec<bool>,
}

/// Direction-adjusted view of the graph.
struct Oriented<'g, G: FlowGraph> {
    graph: &'g G,
    backward: bool,
}

impl<'g, G: FlowGraph> Oriented<'g, G> {
    fn new(graph: &'g G, direction: Direction) -> Self {
        Oriented {
            graph,
            backward: direction == Direction::Backward,
        }
    }

    /// Edges whose facts flow *into* `n` under the analysis direction.
    fn upstream(&self, n: NodeId) -> &[Edge] {
        if self.backward {
            self.graph.out_edges(n)
        } else {
            self.graph.in_edges(n)
        }
    }

    /// Edges whose facts flow *out of* `n` under the analysis direction.
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

/// Everything a node visit reads and writes besides the fact slices: the
/// direction-adjusted graph, the problem, the boundary flags, the solve's
/// [`CommCache`] and comm-fact buffer, and the two counters a visit bumps.
/// Both strategies drive their visits through one of these.
struct Visitor<'a, P: Dataflow, G: FlowGraph> {
    graph: Oriented<'a, G>,
    problem: &'a P,
    is_boundary: Vec<bool>,
    comm_buf: Vec<P::CommFact>,
    cache: CommCache<P::CommFact>,
    meets: u64,
    comm_evals: u64,
}

impl<'a, P: Dataflow, G: FlowGraph> Visitor<'a, P, G> {
    fn new(graph: &'a G, problem: &'a P) -> Self {
        let graph = Oriented::new(graph, problem.direction());
        let n = graph.graph.num_nodes();
        let mut is_boundary = vec![false; n];
        for &b in graph.boundary() {
            is_boundary[b.index()] = true;
        }
        Visitor {
            graph,
            problem,
            is_boundary,
            comm_buf: Vec::new(),
            cache: CommCache::new(n),
            meets: 0,
            comm_evals: 0,
        }
    }

    /// Recompute node `n` from its upstream facts, returning
    /// (input_changed, output_changed). A changed input drops `n`'s
    /// memoised comm fact.
    fn update_node(
        &mut self,
        input: &mut [P::Fact],
        output: &mut [P::Fact],
        n: NodeId,
    ) -> (bool, bool) {
        let problem = self.problem;

        // Meet over upstream non-communication edges.
        let mut new_in = if self.is_boundary[n.index()] {
            problem.boundary()
        } else {
            problem.top()
        };
        for e in self.graph.upstream(n) {
            if e.kind.is_comm() {
                continue;
            }
            self.meets += 1;
            let src = self.graph.source(e);
            match problem.translate(e, &output[src.index()]) {
                Some(translated) => {
                    problem.meet_into(&mut new_in, &translated);
                }
                None => {
                    problem.meet_into(&mut new_in, &output[src.index()]);
                }
            }
        }

        // Communication facts from upstream comm edges: f_comm applied to the
        // *input* fact of the communication source, memoised per source until
        // that input changes (see [`CommCache`]).
        self.comm_buf.clear();
        for e in self.graph.upstream(n) {
            if e.kind.is_comm() {
                let src = self.graph.source(e);
                let si = src.index();
                if !self.cache.valid(si) {
                    self.cache.store(si, problem.comm_transfer(src, &input[si]));
                    self.comm_evals += 1;
                }
                self.comm_buf.push(self.cache.fact(si).clone());
            }
        }

        let in_changed = new_in != input[n.index()];
        if in_changed {
            input[n.index()] = new_in;
            self.cache.invalidate(n.index());
        }
        let new_out = problem.transfer(n, &input[n.index()], &self.comm_buf);
        let out_changed = new_out != output[n.index()];
        if out_changed {
            output[n.index()] = new_out;
        }
        (in_changed, out_changed)
    }
}

/// Round-robin fixpoint in reverse postorder. The recorded `passes` value is
/// directly comparable to the paper's Table 1 "Iter" column.
fn run_round_robin<G: FlowGraph, P: Dataflow>(
    graph: &G,
    problem: &P,
    params: &SolveParams,
) -> Solution<P::Fact> {
    let mut visitor = Visitor::new(graph, problem);
    let n = graph.num_nodes();
    let order = visitor.graph.order();

    let mut input = vec![problem.top(); n];
    let mut output = vec![problem.top(); n];
    let mut stats = ConvergenceStats {
        converged: true,
        per_node_visits: vec![0; n],
        ..Default::default()
    };
    let mut span = telemetry::span("solver", "fixpoint:round_robin");
    let traced = telemetry::is_enabled();
    let started = Instant::now();
    let mut meter = params.budget.meter();

    'passes: loop {
        stats.passes += 1;
        let mut changed = false;
        let mut pass_delta = 0u64;
        for &node in &order {
            if let Err(e) = meter.charge(1) {
                stats.converged = false;
                stats.exhausted = Some(e);
                stats.pass_deltas.push(pass_delta);
                break 'passes;
            }
            stats.node_visits += 1;
            stats.per_node_visits[node.index()] += 1;
            let (ic, oc) = visitor.update_node(&mut input, &mut output, node);
            if ic || oc {
                pass_delta += 1;
            }
            changed |= ic | oc;
        }
        stats.pass_deltas.push(pass_delta);
        if traced {
            sample_budget_headroom(&params.budget, meter.work());
        }
        if !changed {
            break;
        }
        if stats.passes >= params.max_passes {
            stats.converged = false;
            break;
        }
    }

    stats.meets = visitor.meets;
    stats.comm_evals = visitor.comm_evals;
    stats.elapsed = started.elapsed();
    close_solver_span(&mut span, &stats, n);
    Solution {
        direction: problem.direction(),
        input,
        output,
        stats,
        regions: None,
    }
}

// ---------------------------------------------------------------------------
// Region engine
// ---------------------------------------------------------------------------

/// Per-region accounting; merged into [`ConvergenceStats`] in region-id
/// order. `Clone` because [`SeedRegions`] stores each region's accounting
/// and the incremental solver replays it when the region's facts are
/// transplanted.
#[derive(Debug, Default, Clone)]
struct RegionStats {
    node_visits: u64,
    comm_evals: u64,
    meets: u64,
    worklist_peak: usize,
    pass_deltas: Vec<u64>,
    /// Visit counts indexed by the node's local index within the region.
    visits: Vec<u64>,
    converged: bool,
    exhausted: Option<Exhaustion>,
}

/// Memo of `f_comm` source facts, shared by both strategies: one epoch per
/// round-robin solve, one per region solve in the region engine.
///
/// The dominant cost on comm-dense graphs is re-evaluating `comm_transfer`
/// for *every* incoming communication edge on every visit — all-pairs
/// collective matching makes that quadratic in clique size per sweep. A
/// source's comm fact changes only when its *input* fact changes (the
/// [`Dataflow::comm_transfer`] contract), so each source is evaluated once
/// per input change instead of once per (visit × in-edge); unchanged
/// sources hand out a clone of the memoised fact.
///
/// The epoch bump at region start drops every entry, so facts that flow in
/// from upstream regions (solved or transplanted) are re-read, never stale.
/// Hit/miss behavior depends only on the deterministic visit sequence, so
/// `comm_evals` (the miss count) is a deterministic function of the graph.
struct CommCache<F> {
    /// Entry `i` is valid iff `epoch[i] == cur` (0 = never / invalidated).
    epoch: Vec<u64>,
    facts: Vec<Option<F>>,
    cur: u64,
}

impl<F> CommCache<F> {
    /// An empty cache whose first epoch is already open.
    fn new(n: usize) -> Self {
        CommCache {
            epoch: vec![0; n],
            facts: (0..n).map(|_| None).collect(),
            cur: 1,
        }
    }

    /// Invalidate every entry; called once at the start of each region.
    fn begin_region(&mut self) {
        self.cur += 1;
    }

    fn valid(&self, i: usize) -> bool {
        self.epoch[i] == self.cur
    }

    fn store(&mut self, i: usize, f: F) {
        self.epoch[i] = self.cur;
        self.facts[i] = Some(f);
    }

    fn fact(&self, i: usize) -> &F {
        self.facts[i].as_ref().expect("validated before read")
    }

    /// Drop one source's memo (its input fact just changed).
    fn invalidate(&mut self, i: usize) {
        self.epoch[i] = 0;
    }
}

/// What the region driver does with one region.
enum Plan {
    /// Solve the region to its local fixpoint.
    Solve,
    /// Leave the region at lattice top (outside a demand slice).
    Skip,
    /// The caller already wrote the region's facts (a seed transplant);
    /// record this accounting for it.
    Reuse(RegionStats),
}

/// One region-engine solve: the node visitor, the SCC condensation, each
/// node's RPO position, the fact vectors, and the budget meter. The full
/// solve, the incremental re-solve and the demand slice all run
/// [`RegionEngine::walk`]; they differ only in their [`Plan`]s.
struct RegionEngine<'a, P: Dataflow, G: FlowGraph> {
    visitor: Visitor<'a, P, G>,
    cond: Condensation,
    /// Node index → position in the global direction-adjusted RPO.
    rpo_pos: Vec<u32>,
    input: Vec<P::Fact>,
    output: Vec<P::Fact>,
    meter: BudgetMeter,
    max_passes: usize,
}

impl<'a, P: Dataflow, G: FlowGraph> RegionEngine<'a, P, G> {
    fn new(graph: &'a G, problem: &'a P, params: &SolveParams) -> Self {
        let visitor = Visitor::new(graph, problem);
        let n = graph.num_nodes();
        let mut rpo_pos = vec![0u32; n];
        for (i, nd) in visitor.graph.order().iter().enumerate() {
            rpo_pos[nd.index()] = i as u32;
        }
        RegionEngine {
            visitor,
            cond: scc::condense(graph),
            rpo_pos,
            input: vec![problem.top(); n],
            output: vec![problem.top(); n],
            meter: params.budget.meter(),
            max_passes: params.max_passes,
        }
    }

    /// The region driver: visit the regions in direction-adjusted
    /// topological order (ids are forward-topological, so a backward
    /// analysis walks them in reverse), let `plan` decide what happens to
    /// each, and stop after the first region that exhausts the budget. Each
    /// region reads only regions visited before it, so a solved region
    /// sees final upstream facts. Returns the per-region accounting.
    fn walk(
        &mut self,
        mut plan: impl FnMut(&Condensation, usize, &mut [P::Fact], &mut [P::Fact]) -> Plan,
    ) -> Vec<Option<RegionStats>> {
        let num_regions = self.cond.num_regions();
        let mut per_region: Vec<Option<RegionStats>> = (0..num_regions).map(|_| None).collect();
        for i in 0..num_regions {
            let rid = if self.visitor.graph.backward {
                num_regions - 1 - i
            } else {
                i
            };
            let rs = match plan(&self.cond, rid, &mut self.input, &mut self.output) {
                Plan::Skip => continue,
                Plan::Reuse(rs) => rs,
                Plan::Solve => self.solve_region(rid),
            };
            let stop = rs.exhausted.is_some();
            per_region[rid] = Some(rs);
            if stop {
                break;
            }
        }
        per_region
    }

    /// Solve one region to its local fixpoint with **round-separated dirty
    /// sweeps**: each round pops pending nodes from a priority heap in
    /// global RPO order, and a change propagates *within* the current round
    /// only to targets later in RPO (forward edges) — back-edge targets,
    /// which already ran this round, are deferred to the next round's heap.
    /// Pops are therefore monotone in RPO within a round, every node runs at
    /// most once per round, and a round visits only the dirty subset — so
    /// the region never does more work than a round-robin sweep restricted
    /// to it.
    ///
    /// (A single heap without the round barrier is pathological on the
    /// all-pairs comm-edge cliques collective matching produces: a change
    /// at a high-RPO clique member re-enqueues every lower-RPO member
    /// *ahead of* the still-pending tail, driving O(k²) visits per wave
    /// through a k-clique. The round barrier restores the O(k)-per-wave
    /// sweep bound.)
    fn solve_region(&mut self, rid: usize) -> RegionStats {
        self.visitor.cache.begin_region();
        let nodes = &self.cond.regions[rid];
        let len = nodes.len();
        let mut span = telemetry::span("solver", "region");
        let mut stats = RegionStats {
            converged: true,
            visits: vec![0; len],
            ..Default::default()
        };

        if let Err(e) = self.meter.poll() {
            // Don't even start: deadline passed or cancellation requested. The
            // region records zero work and the exhaustion reason.
            stats.converged = false;
            stats.exhausted = Some(e);
            return stats;
        }
        let (meets_before, evals_before) = (self.visitor.meets, self.visitor.comm_evals);

        let rpo_pos = &self.rpo_pos;
        let local_index = &self.cond.local_index;
        let region_of = &self.cond.region_of;
        let mut current: BinaryHeap<Reverse<(u32, u32)>> = nodes
            .iter()
            .map(|&nd| Reverse((rpo_pos[nd.index()], nd.0)))
            .collect();
        let mut next: BinaryHeap<Reverse<(u32, u32)>> = BinaryHeap::new();
        let mut in_current = vec![true; len];
        let mut in_next = vec![false; len];
        stats.worklist_peak = current.len();
        let mut rounds = 0usize;
        let mut round_delta = 0u64;

        'rounds: loop {
            rounds += 1;
            while let Some(Reverse((pos, v))) = current.pop() {
                let node = NodeId(v);
                let local = local_index[node.index()] as usize;
                in_current[local] = false;
                if let Err(e) = self.meter.charge(1) {
                    stats.converged = false;
                    stats.exhausted = Some(e);
                    break 'rounds;
                }
                stats.node_visits += 1;
                stats.visits[local] += 1;
                let (ic, oc) = self
                    .visitor
                    .update_node(&mut self.input, &mut self.output, node);
                if ic || oc {
                    round_delta += 1;
                    for e in self.visitor.graph.downstream(node) {
                        // Output changes invalidate flow successors; input
                        // changes invalidate communication successors.
                        let relevant = if e.kind.is_comm() { ic } else { oc };
                        if !relevant {
                            continue;
                        }
                        let t = self.visitor.graph.target(e);
                        // Cross-region targets need no notification: their
                        // region seeds every node when it starts, after this
                        // one is final.
                        if region_of[t.index()] as usize != rid {
                            continue;
                        }
                        let lt = local_index[t.index()] as usize;
                        if in_current[lt] || in_next[lt] {
                            continue; // already pending this round or the next
                        }
                        if rpo_pos[t.index()] > pos {
                            // Forward edge: `t` has not run yet this round
                            // (pops are RPO-monotone), so it sweeps with fresh
                            // data in this round.
                            in_current[lt] = true;
                            current.push(Reverse((rpo_pos[t.index()], t.0)));
                        } else {
                            // Back edge: `t` already ran this round — defer.
                            in_next[lt] = true;
                            next.push(Reverse((rpo_pos[t.index()], t.0)));
                        }
                    }
                    stats.worklist_peak = stats.worklist_peak.max(current.len() + next.len());
                }
            }
            stats.pass_deltas.push(round_delta);
            round_delta = 0;
            if next.is_empty() {
                break;
            }
            if rounds >= self.max_passes {
                stats.converged = false;
                break;
            }
            std::mem::swap(&mut current, &mut next);
            std::mem::swap(&mut in_current, &mut in_next);
        }
        stats.meets = self.visitor.meets - meets_before;
        stats.comm_evals = self.visitor.comm_evals - evals_before;

        if span.id().is_some() {
            span.arg("region", rid as u64);
            span.arg("nodes", len);
            span.arg("node_visits", stats.node_visits);
            span.arg("converged", stats.converged);
        }
        stats
    }

    /// Merge per-region accounting into one [`ConvergenceStats`] in
    /// region-id order, whichever plan produced each entry.
    fn merge(&self, per_region: &[Option<RegionStats>], started: Instant) -> ConvergenceStats {
        let n = self.input.len();
        let mut stats = ConvergenceStats {
            converged: true,
            per_node_visits: vec![0; n],
            ..Default::default()
        };
        for (rid, rs) in per_region.iter().enumerate() {
            let Some(rs) = rs else {
                continue;
            };
            stats.node_visits += rs.node_visits;
            stats.comm_evals += rs.comm_evals;
            stats.meets += rs.meets;
            stats.worklist_peak = stats.worklist_peak.max(rs.worklist_peak);
            if stats.pass_deltas.len() < rs.pass_deltas.len() {
                stats.pass_deltas.resize(rs.pass_deltas.len(), 0);
            }
            for (d, s) in stats.pass_deltas.iter_mut().zip(rs.pass_deltas.iter()) {
                *d += *s;
            }
            for (local, &count) in rs.visits.iter().enumerate() {
                stats.per_node_visits[self.cond.regions[rid][local].index()] += count;
            }
            stats.converged &= rs.converged;
            if stats.exhausted.is_none() {
                stats.exhausted = rs.exhausted;
            }
        }
        stats.passes = (stats.node_visits as usize).div_ceil(n.max(1));
        stats.elapsed = started.elapsed();
        stats
    }

    /// Structural fingerprints of this engine's regions (see
    /// [`scc::region_fingerprints`]).
    fn fingerprints(&self, node_fp: &[u64]) -> scc::RegionFingerprints {
        let v = &self.visitor;
        scc::region_fingerprints(
            v.graph.graph,
            &self.cond,
            node_fp,
            &v.is_boundary,
            &self.rpo_pos,
            v.graph.backward,
        )
    }

    /// The [`SeedRegions`] of a converged walk; `None` when some region has
    /// no accounting.
    fn seed(
        &self,
        fps: scc::RegionFingerprints,
        per_region: Vec<Option<RegionStats>>,
    ) -> Option<Arc<SeedRegions>> {
        Some(Arc::new(SeedRegions {
            regions: self.cond.regions.clone(),
            local_fp: fps.local_fp,
            ext_in: fps.ext_in,
            stats: per_region.into_iter().collect::<Option<Vec<_>>>()?,
        }))
    }

    /// Close the solve's span and hand back its facts.
    fn into_solution(
        self,
        span: &mut telemetry::SpanGuard,
        stats: ConvergenceStats,
        regions: Option<Arc<SeedRegions>>,
    ) -> Solution<P::Fact> {
        close_solver_span(span, &stats, self.input.len());
        Solution {
            direction: self.visitor.problem.direction(),
            input: self.input,
            output: self.output,
            stats,
            regions,
        }
    }
}

/// Region engine over the whole graph: solve every region in topological
/// order; a converged solve of a fingerprintable problem captures the seed
/// for the next incremental re-solve.
fn run_region<G: FlowGraph, P: Dataflow>(
    graph: &G,
    problem: &P,
    params: &SolveParams,
) -> Solution<P::Fact> {
    let mut span = telemetry::span("solver", "fixpoint:region");
    let started = Instant::now();
    let mut engine = RegionEngine::new(graph, problem, params);
    let per_region = engine.walk(|_, _, _, _| Plan::Solve);
    let stats = engine.merge(&per_region, started);
    let regions = if stats.converged {
        node_fingerprints(graph, problem)
            .and_then(|node_fp| engine.seed(engine.fingerprints(&node_fp), per_region))
    } else {
        None
    };
    let num_regions = engine.cond.num_regions();
    if telemetry::is_enabled() {
        telemetry::metric_add("solver_regions_total", num_regions as f64);
    }
    if span.id().is_some() {
        span.arg("regions", num_regions);
        span.arg("largest_region", engine.cond.largest_region());
    }
    engine.into_solution(&mut span, stats, regions)
}

/// Per-node content fingerprints, or `None` when the problem declines for
/// any node (incremental seeding is then unavailable).
fn node_fingerprints<G: FlowGraph, P: Dataflow>(graph: &G, problem: &P) -> Option<Vec<u64>> {
    (0..graph.num_nodes() as u32)
        .map(|i| problem.node_fingerprint(NodeId(i)))
        .collect()
}

// ---------------------------------------------------------------------------
// Incremental re-solve (Solver::seed)
// ---------------------------------------------------------------------------

/// Find an old region whose structure and upstream facts prove that region
/// `rid` of the new graph would re-solve to exactly the old facts. Returns
/// the old region id to transplant from.
///
/// The local-fingerprint match guarantees identical member content, member
/// visit order, internal edges, and external-input *shape*; what remains is
/// the **input-fact cutoff**: each external upstream edge's source fact
/// (current, already-final — regions are processed in topological order)
/// must equal the fact the old run saw. Descriptors are paired by their
/// graph-independent key; within a run of equal keys the facts are matched
/// as a multiset. Comm edges compare the source's *input* fact (that is
/// what `f_comm` reads); all other kinds compare the source's output.
#[allow(clippy::too_many_arguments)]
fn find_transplant<F: Clone + PartialEq>(
    seed: &SeedRegions,
    candidates: &std::collections::HashMap<u64, Vec<u32>>,
    fps: &scc::RegionFingerprints,
    rid: usize,
    new_members: usize,
    prev_input: &[F],
    prev_output: &[F],
    cur_input: &[F],
    cur_output: &[F],
) -> Option<u32> {
    let cands = candidates.get(&fps.local_fp[rid])?;
    let new_ext = &fps.ext_in[rid];
    'cand: for &old_rid in cands {
        let old_ext = &seed.ext_in[old_rid as usize];
        // Shape equality is implied by the fingerprint; re-checked here so
        // a (astronomically unlikely) fingerprint collision degrades to a
        // harmless re-solve instead of a wrong transplant.
        if old_ext.len() != new_ext.len() || seed.regions[old_rid as usize].len() != new_members {
            continue;
        }
        for (a, b) in new_ext.iter().zip(old_ext.iter()) {
            if a.key() != b.key() {
                continue 'cand;
            }
        }
        let new_fact = |d: &scc::ExtInEdge| -> &F {
            if d.is_comm() {
                &cur_input[d.src.index()]
            } else {
                &cur_output[d.src.index()]
            }
        };
        let old_fact = |d: &scc::ExtInEdge| -> &F {
            if d.is_comm() {
                &prev_input[d.src.index()]
            } else {
                &prev_output[d.src.index()]
            }
        };
        let mut i = 0;
        while i < new_ext.len() {
            let mut j = i + 1;
            while j < new_ext.len() && new_ext[j].key() == new_ext[i].key() {
                j += 1;
            }
            // Multiset fact match within the equal-key run (runs are tiny:
            // parallel edges of one kind from same-fingerprint sources).
            let mut used = vec![false; j - i];
            for edge in &new_ext[i..j] {
                let fa = new_fact(edge);
                let mut matched = false;
                for b in i..j {
                    if !used[b - i] && *fa == *old_fact(&old_ext[b]) {
                        used[b - i] = true;
                        matched = true;
                        break;
                    }
                }
                if !matched {
                    continue 'cand;
                }
            }
            i = j;
        }
        return Some(old_rid);
    }
    None
}

/// Incremental re-solve over the (new) graph: transplant validated regions,
/// re-solve the rest in topological order. See [`IncrementalSolver::run`]
/// for the equivalence contract.
fn run_incremental<G: FlowGraph, P: Dataflow>(
    graph: &G,
    problem: &P,
    params: &SolveParams,
    prev: &Solution<P::Fact>,
    node_fp: &[u64],
    dirty: &[NodeId],
) -> SeededRun<P::Fact> {
    let seed = prev.regions.as_deref().expect("validated by Solver::seed");
    let mut span = telemetry::span("solver", "fixpoint:incremental");
    let started = Instant::now();
    let mut engine = RegionEngine::new(graph, problem, params);
    let fps = engine.fingerprints(node_fp);
    let num_regions = engine.cond.num_regions();

    // Dirty planning: a declared-dirty node forces its whole region (nodes
    // outside the graph cannot name a region and are ignored).
    let mut force = vec![false; num_regions];
    for &nd in dirty {
        if nd.index() < graph.num_nodes() {
            force[engine.cond.region_of[nd.index()] as usize] = true;
        }
    }

    // Candidate old regions by local fingerprint. Deliberately
    // non-consuming: several structurally identical new regions may each
    // validate against the same old region — each still proves its own
    // upstream facts, so every transplant is individually justified.
    let mut candidates: std::collections::HashMap<u64, Vec<u32>> = std::collections::HashMap::new();
    for (rid, &fp) in seed.local_fp.iter().enumerate() {
        candidates.entry(fp).or_default().push(rid as u32);
    }

    let mut reused = 0usize;
    let mut resolved = 0usize;
    let per_region = engine.walk(|cond, rid, input, output| {
        let members = &cond.regions[rid];
        let transplant = if force[rid] {
            None
        } else {
            find_transplant(
                seed,
                &candidates,
                &fps,
                rid,
                members.len(),
                &prev.input,
                &prev.output,
                input,
                output,
            )
        };
        let Some(old_rid) = transplant else {
            resolved += 1;
            return Plan::Solve;
        };
        let old_members = &seed.regions[old_rid as usize];
        for (&nd, &old) in members.iter().zip(old_members) {
            input[nd.index()] = prev.input[old.index()].clone();
            output[nd.index()] = prev.output[old.index()].clone();
        }
        reused += 1;
        Plan::Reuse(seed.stats[old_rid as usize].clone())
    });

    let stats = engine.merge(&per_region, started);
    // An incremental result can itself seed the next edit.
    let regions = if stats.converged {
        engine.seed(fps, per_region)
    } else {
        None
    };

    if telemetry::is_enabled() {
        telemetry::metric_add("solver_regions_reused_total", reused as f64);
        telemetry::metric_add("solver_regions_resolved_total", resolved as f64);
    }
    if span.id().is_some() {
        span.arg("regions", num_regions);
        span.arg("reused", reused);
        span.arg("resolved", resolved);
    }
    SeededRun {
        solution: engine.into_solution(&mut span, stats, regions),
        regions_total: num_regions,
        regions_reused: reused,
        regions_resolved: resolved,
    }
}

// ---------------------------------------------------------------------------
// Demand-driven slice solve (Solver::demand)
// ---------------------------------------------------------------------------

/// Solve only the upstream region closure of the demand roots, in
/// topological order. Inside the slice every fact is what the
/// whole-program fixpoint would compute (each solved region reads only
/// already-final slice regions); outside it, facts stay at lattice top.
fn run_demand<G: FlowGraph, P: Dataflow>(
    graph: &G,
    problem: &P,
    params: &SolveParams,
    roots: &[NodeId],
) -> DemandRun<P::Fact> {
    let mut span = telemetry::span("solver", "fixpoint:demand");
    let started = Instant::now();
    let mut engine = RegionEngine::new(graph, problem, params);
    let cond = &engine.cond;
    let root_regions: Vec<u32> = roots.iter().map(|nd| cond.region_of[nd.index()]).collect();
    let in_slice = scc::upstream_closure(cond, &root_regions, engine.visitor.graph.backward);
    let mut node_in_slice = vec![false; graph.num_nodes()];
    for (members, _) in cond.regions.iter().zip(&in_slice).filter(|(_, &s)| s) {
        for nd in members {
            node_in_slice[nd.index()] = true;
        }
    }

    let per_region = engine.walk(|_, rid, _, _| {
        if in_slice[rid] {
            Plan::Solve
        } else {
            Plan::Skip
        }
    });
    let stats = engine.merge(&per_region, started);
    let num_regions = engine.cond.num_regions();
    if span.id().is_some() {
        span.arg("regions", num_regions);
        span.arg("slice_regions", in_slice.iter().filter(|&&b| b).count());
    }
    DemandRun {
        solution: engine.into_solution(&mut span, stats, None),
        regions_total: num_regions,
        regions_solved: per_region.iter().flatten().count(),
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
            input: &Self::Fact,
            comm: &[Self::CommFact],
        ) -> Self::Fact {
            if self.recv[node.index()] {
                let mut v = ConstLattice::Top;
                for c in comm {
                    v.meet_with(c);
                }
                v
            } else if let Some(c) = self.gen[node.index()] {
                ConstLattice::Const(c)
            } else {
                *input
            }
        }

        fn comm_transfer(&self, _node: NodeId, input: &Self::Fact) -> Self::CommFact {
            *input
        }

        fn node_fingerprint(&self, n: NodeId) -> Option<u64> {
            // Transfer behavior depends on exactly (gen, recv) — hash those.
            let mut h = crate::hash::Hasher128::new();
            h.write_str("toy-consts");
            h.write_opt_u64(self.gen[n.index()].map(|c| c as u64));
            h.write_bool(self.recv[n.index()]);
            let wide = h.finish();
            Some((wide as u64) ^ ((wide >> 64) as u64))
        }
    }

    fn toy(graph_nodes: usize) -> ToyConsts {
        ToyConsts {
            gen: vec![None; graph_nodes],
            recv: vec![false; graph_nodes],
        }
    }

    fn rr<P: Dataflow, G: FlowGraph>(g: &G, p: &P) -> Solution<P::Fact> {
        Solver::new(p, g).strategy(Strategy::RoundRobin).run()
    }

    fn rg<P: Dataflow, G: FlowGraph>(g: &G, p: &P) -> Solution<P::Fact> {
        Solver::new(p, g).strategy(Strategy::Region).run()
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
        g.comm(1, 2, 0);
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
        g.comm(1, 2, 0);
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
        type CommFact = u16;
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
        fn transfer(&self, n: NodeId, input: &u16, comm: &[u16]) -> u16 {
            let seen = &mut self.inputs.borrow_mut()[n.index()];
            if seen.0 != *input {
                *seen = (*input, seen.1 + 1);
            }
            let mut out = *input | self.gen[n.index()];
            for c in comm {
                out |= *c;
            }
            if n.index() == self.latch {
                out |= out << 1;
            }
            out
        }
        fn comm_transfer(&self, n: NodeId, input: &u16) -> u16 {
            self.comm_calls.borrow_mut()[n.index()] += 1;
            *input
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
                    g.comm(i, j, 0);
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
    fn both_strategies_evaluate_f_comm_once_per_input_change() {
        let (g, problem) = clique_in_loop();
        let reference = rr(&g, &problem());
        for strategy in [Strategy::RoundRobin, Strategy::Region] {
            let p = problem();
            let sol = Solver::new(&p, &g).strategy(strategy).run();
            assert!(sol.stats.converged, "{strategy}");
            assert_eq!(sol.input, reference.input, "{strategy}");
            assert_eq!(sol.output, reference.output, "{strategy}");
            let calls = p.comm_calls.borrow().clone();
            let inputs = p.inputs.borrow().clone();
            for src in 2..=9 {
                let changes = inputs[src].1;
                assert!(
                    changes >= 2,
                    "{strategy}: node {src} input changed {changes}×"
                );
                assert!(
                    calls[src] <= changes + 1,
                    "{strategy}: node {src}: {} f_comm calls for {changes} input changes",
                    calls[src]
                );
            }
            assert_eq!(
                sol.stats.comm_evals,
                calls.iter().sum::<u64>(),
                "{strategy}: comm_evals counts evaluations performed"
            );
        }
    }

    #[test]
    fn region_backward_direction() {
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
            fn transfer(&self, _n: NodeId, input: &bool, _c: &[()]) -> bool {
                *input
            }
            fn comm_transfer(&self, _n: NodeId, _i: &bool) {}
        }
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
            fn transfer(&self, _n: NodeId, input: &bool, _c: &[()]) -> bool {
                *input
            }
            fn comm_transfer(&self, _n: NodeId, _i: &bool) {}
        }
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
            fn transfer(&self, _n: NodeId, input: &bool, _c: &[()]) -> bool {
                !*input
            }
            fn comm_transfer(&self, _n: NodeId, _i: &bool) {}
        }
        // A single node with a self-loop oscillates forever under Flip's
        // overwrite-meet + negating transfer.
        let mut g = SimpleGraph::new(1);
        g.flow(0, 0);
        g.set_entry(0);
        g.set_exit(0);
        let sol = Solver::new(&Flip, &g)
            .strategy(Strategy::RoundRobin)
            .max_passes(50)
            .run();
        assert!(!sol.stats.converged);
        assert_eq!(sol.stats.passes, 50);
        // Pass-bound non-convergence is distinct from budget exhaustion.
        assert_eq!(sol.stats.exhausted, None);
        // The region strategy hits its per-region round bound too instead
        // of spinning forever.
        let par = Solver::new(&Flip, &g)
            .strategy(Strategy::Region)
            .max_passes(50)
            .run();
        assert!(!par.stats.converged);
        assert_eq!(par.stats.exhausted, None);
    }

    #[test]
    fn budget_exhaustion_stops_both_strategies_and_is_reported() {
        let mut g = SimpleGraph::new(4);
        g.flow(0, 1);
        g.flow(1, 2);
        g.flow(2, 1); // loop keeps the solver busy for a few passes
        g.flow(2, 3);
        g.set_entry(0);
        g.set_exit(3);
        let mut p = toy(4);
        p.gen[0] = Some(1);
        for strategy in [Strategy::RoundRobin, Strategy::Region] {
            let sol = Solver::new(&p, &g)
                .strategy(strategy)
                .budget(crate::budget::Budget::unlimited().with_max_work(3))
                .run();
            assert!(!sol.stats.converged, "{strategy}");
            assert_eq!(
                sol.stats.exhausted,
                Some(crate::budget::Exhaustion::WorkUnits),
                "{strategy}"
            );
            assert!(sol.stats.node_visits <= 3, "{strategy}");
            assert!(
                sol.regions.is_none(),
                "{strategy}: no seed from a cut solve"
            );
        }
    }

    #[test]
    fn region_observes_cancellation() {
        let token = crate::budget::CancelToken::new();
        token.cancel(); // pre-cancelled: every region must refuse to start
        let (g, p) = loopy_comm_graph();
        let sol = Solver::new(&p, &g)
            .strategy(Strategy::Region)
            .budget(crate::budget::Budget::unlimited().with_cancel(token))
            .run();
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
        let sol = Solver::new(&p, &g)
            .strategy(Strategy::Region)
            .budget(crate::budget::Budget::unlimited().with_deadline_ms(0))
            .run();
        assert!(!sol.stats.converged);
        assert_eq!(
            sol.stats.exhausted,
            Some(crate::budget::Exhaustion::Deadline)
        );
    }

    #[test]
    fn both_strategies_report_elapsed_and_visits_uniformly() {
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
        // Region: peak is the max per-region high-water — on this
        // acyclic graph every region is a single node, so the peak is 1.
        let rp_sol = rg(&g, &p);
        assert_eq!(rp_sol.stats.worklist_peak, 1);
    }

    #[test]
    fn absorb_is_commutative_and_associative_on_counters() {
        #[allow(clippy::too_many_arguments)]
        fn stats(
            passes: usize,
            visits: u64,
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
        let a = stats(3, 10, 20, 2, 7, &[5, 3, 0], &[4, 6], 100, true);
        let b = stats(5, 4, 9, 1, 2, &[4], &[1, 2, 1], 50, true);
        let c = stats(1, 8, 3, 0, 9, &[2, 2, 2, 2], &[8], 10, false);

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
        let cba = combine(&[&c, &b, &a]);
        let bac = combine(&[&b, &a, &c]);
        for other in [&cba, &bac] {
            assert_eq!(abc.passes, other.passes);
            assert_eq!(abc.node_visits, other.node_visits);
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
    fn region_publishes_region_metrics() {
        use crate::telemetry::{self, TraceLevel, TEST_SINK_GATE};
        let _gate = TEST_SINK_GATE.lock().unwrap_or_else(|p| p.into_inner());
        let (g, p) = loopy_comm_graph();
        telemetry::install(TraceLevel::Full);
        let _ = rg(&g, &p);
        let report = telemetry::finish();
        assert!(
            report.metrics.get("solver_regions_total").copied() > Some(0.0),
            "metrics: {:?}",
            report.metrics.keys().collect::<Vec<_>>()
        );
        // Per-region spans exist under the solver category.
        assert!(report.events.iter().any(|e| e.name == "fixpoint:region"));
        assert!(report.events.iter().any(|e| e.name == "region"));
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
            fn transfer(&self, _n: NodeId, input: &Self::Fact, _c: &[()]) -> Self::Fact {
                *input
            }
            fn comm_transfer(&self, _n: NodeId, _i: &Self::Fact) {}
            fn translate(&self, edge: &Edge, fact: &Self::Fact) -> Option<Self::Fact> {
                match (edge.kind, fact) {
                    (EdgeKind::Call { .. }, ConstLattice::Const(c)) => {
                        Some(ConstLattice::Const(c + 1))
                    }
                    _ => None,
                }
            }
        }
        let mut g = SimpleGraph::new(2);
        g.add_edge(0, 1, EdgeKind::Call { site: 0 });
        g.set_entry(0);
        g.set_exit(1);
        let sol = rr(&g, &Inc);
        assert_eq!(sol.input[1], ConstLattice::Const(11));
        // Translate must behave identically across strategies.
        let par = rg(&g, &Inc);
        assert_eq!(par.input, sol.input);
        assert_eq!(par.output, sol.output);
    }

    #[test]
    fn strategy_parse_and_display_round_trip() {
        for (text, want) in [
            ("round-robin", Strategy::RoundRobin),
            ("region", Strategy::Region),
        ] {
            let parsed = Strategy::parse(text).unwrap();
            assert_eq!(parsed, want);
            assert_eq!(parsed.to_string(), text, "display round-trips");
        }
        for old in [
            "worklist",
            "region-parallel",
            "region-parallel:4",
            "Region",
            "bogus",
        ] {
            let err = Strategy::parse(old).unwrap_err();
            assert!(
                err.contains("round-robin") && err.contains("region"),
                "{old}: {err}"
            );
        }
    }

    #[test]
    fn solver_env_when_set_names_a_strategy() {
        // Library calls fall back to round-robin on a value they cannot
        // parse; this keeps a stale spelling from silently turning a
        // `MPIDFA_SOLVER=...` test run into a second round-robin run.
        if let Err(e) = Strategy::from_env() {
            panic!("{e}");
        }
    }

    // -- incremental (Solver::seed) ----------------------------------------

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

    #[test]
    fn seed_requires_a_region_solution() {
        let (g, p) = loopy_comm_graph();
        let cold = rr(&g, &p);
        assert!(cold.regions.is_none());
        let err = Solver::new(&p, &g).seed(&cold).err().unwrap();
        assert_eq!(err, SolverConfigError::SeedWithoutRegions);
        // Converged region runs capture a seed.
        let warm = rg(&g, &p);
        assert!(warm.regions.is_some());
        assert!(Solver::new(&p, &g).seed(&warm).is_ok());
    }

    #[test]
    fn seed_rejects_direction_mismatch_and_non_convergence() {
        struct BackToy(ToyConsts);
        impl Dataflow for BackToy {
            type Fact = ConstLattice<i64>;
            type CommFact = ConstLattice<i64>;
            fn direction(&self) -> Direction {
                Direction::Backward
            }
            fn top(&self) -> Self::Fact {
                self.0.top()
            }
            fn boundary(&self) -> Self::Fact {
                self.0.boundary()
            }
            fn meet_into(&self, d: &mut Self::Fact, s: &Self::Fact) -> bool {
                self.0.meet_into(d, s)
            }
            fn transfer(&self, n: NodeId, i: &Self::Fact, c: &[Self::CommFact]) -> Self::Fact {
                self.0.transfer(n, i, c)
            }
            fn comm_transfer(&self, n: NodeId, i: &Self::Fact) -> Self::CommFact {
                self.0.comm_transfer(n, i)
            }
            fn node_fingerprint(&self, n: NodeId) -> Option<u64> {
                self.0.node_fingerprint(n)
            }
        }
        let (g, p) = loopy_comm_graph();
        let warm = rg(&g, &p);
        let back = BackToy(toy(6));
        assert_eq!(
            Solver::new(&back, &g).seed(&warm).err().unwrap(),
            SolverConfigError::SeedDirectionMismatch {
                expected: Direction::Backward,
                got: Direction::Forward,
            }
        );
        let mut stale = rg(&g, &p);
        stale.stats.converged = false;
        assert_eq!(
            Solver::new(&p, &g).seed(&stale).err().unwrap(),
            SolverConfigError::SeedNotConverged
        );
    }

    #[test]
    fn seed_rejects_unfingerprintable_problems() {
        // `Inc`-style problem without `node_fingerprint`.
        struct NoFp;
        impl Dataflow for NoFp {
            type Fact = bool;
            type CommFact = ();
            fn direction(&self) -> Direction {
                Direction::Forward
            }
            fn top(&self) -> bool {
                false
            }
            fn boundary(&self) -> bool {
                true
            }
            fn meet_into(&self, d: &mut bool, s: &bool) -> bool {
                let c = !*d && *s;
                *d |= *s;
                c
            }
            fn transfer(&self, _n: NodeId, i: &bool, _c: &[()]) -> bool {
                *i
            }
            fn comm_transfer(&self, _n: NodeId, _i: &bool) {}
        }
        let mut g = SimpleGraph::new(2);
        g.flow(0, 1);
        g.set_entry(0);
        g.set_exit(1);
        let warm = rg(&g, &NoFp);
        // The run itself cannot even capture a seed...
        assert!(warm.regions.is_none());
        // ...so seeding reports the missing regions first; a hand-made
        // "converged" solution would hit FingerprintsUnavailable, which we
        // exercise via the capture path being disabled.
        assert_eq!(
            Solver::new(&NoFp, &g).seed(&warm).err().unwrap(),
            SolverConfigError::SeedWithoutRegions
        );
    }

    #[test]
    fn incremental_identity_edit_transplants_everything_byte_identically() {
        // Seeded runs publish reuse metrics into any installed sink.
        let _gate = crate::telemetry::TEST_SINK_GATE
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        let (g, p) = loopy_comm_graph();
        let cold = rg(&g, &p);
        let run = Solver::new(&p, &g).seed(&cold).unwrap().dirty(&[]).run();
        assert_eq!(run.regions_reused, run.regions_total);
        assert_eq!(run.regions_resolved, 0);
        assert_eq!(run.solution.input, cold.input);
        assert_eq!(run.solution.output, cold.output);
        // Transplanted accounting replays the cold solve exactly.
        let mut a = run.solution.stats.clone();
        let mut b = cold.stats.clone();
        a.elapsed = Duration::ZERO;
        b.elapsed = Duration::ZERO;
        assert_eq!(a, b);
        // The incremental result can itself seed the next edit.
        assert!(run.solution.regions.is_some());
    }

    #[test]
    fn incremental_gen_change_resolves_only_downstream_regions() {
        // Seeded runs publish reuse metrics into any installed sink.
        let _gate = crate::telemetry::TEST_SINK_GATE
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        let (g, p) = chain(12, 3);
        let warm = rg(&g, &p);
        // Edit: node 6 now generates 5 instead of passing through. Its
        // fingerprint changes (forced re-solve) and every downstream
        // region's upstream fact changes (fact-cutoff re-solve); nodes
        // 0..=5 transplant.
        let mut edited = toy(12);
        edited.gen[0] = Some(3);
        edited.gen[6] = Some(5);
        let cold = rg(&g, &edited);
        let run = Solver::new(&edited, &g)
            .seed(&warm)
            .unwrap()
            .dirty(&[])
            .run();
        assert_eq!(run.solution.input, cold.input);
        assert_eq!(run.solution.output, cold.output);
        assert_eq!(run.regions_total, 12);
        assert_eq!(run.regions_reused, 6, "nodes 0..=5 transplant");
        assert_eq!(run.regions_resolved, 6, "node 6 and downstream re-solve");
    }

    #[test]
    fn incremental_fact_neutral_insertion_matches_cold_solve() {
        // Seeded runs publish reuse metrics into any installed sink.
        let _gate = crate::telemetry::TEST_SINK_GATE
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        // "Insert a pass-through statement": same chain semantics, one more
        // node spliced in the middle, with different node ids downstream —
        // the structural fingerprints must still line regions up.
        let (g_old, p_old) = chain(8, 3);
        let warm = rg(&g_old, &p_old);
        // New graph: 0 -> .. -> 4 -> 8(new) -> 5 -> 6 -> 7.
        let mut g_new = SimpleGraph::new(9);
        for i in 0..4 {
            g_new.flow(i, i + 1);
        }
        g_new.flow(4, 8);
        g_new.flow(8, 5);
        g_new.flow(5, 6);
        g_new.flow(6, 7);
        g_new.set_entry(0);
        g_new.set_exit(7);
        let mut p_new = toy(9);
        p_new.gen[0] = Some(3);
        let cold = rg(&g_new, &p_new);
        let run = Solver::new(&p_new, &g_new)
            .seed(&warm)
            .unwrap()
            .dirty(&[NodeId(8)])
            .run();
        assert_eq!(run.solution.input, cold.input);
        assert_eq!(run.solution.output, cold.output);
        assert!(run.regions_reused >= 7, "all old pass-throughs transplant");
        assert!(run.regions_resolved >= 1, "the dirty insertion re-solves");
        assert_eq!(run.regions_total, 9);
    }

    #[test]
    fn incremental_ignores_out_of_range_dirty_nodes() {
        // Seeded runs publish reuse metrics into any installed sink.
        let _gate = crate::telemetry::TEST_SINK_GATE
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        let (g, p) = loopy_comm_graph();
        let warm = rg(&g, &p);
        let run = Solver::new(&p, &g)
            .seed(&warm)
            .unwrap()
            .dirty(&[NodeId(999)])
            .run();
        assert_eq!(run.regions_reused, run.regions_total);
        assert_eq!(run.solution.output, warm.output);
    }

    #[test]
    fn incremental_respects_work_budget() {
        // Seeded runs publish reuse metrics into any installed sink.
        let _gate = crate::telemetry::TEST_SINK_GATE
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        let (g, p) = chain(12, 3);
        let warm = rg(&g, &p);
        let mut edited = toy(12);
        edited.gen[0] = Some(3);
        edited.gen[1] = Some(5); // early change: 11 regions must re-solve
        let run = Solver::new(&edited, &g)
            .budget(crate::budget::Budget::unlimited().with_max_work(3))
            .seed(&warm)
            .unwrap()
            .dirty(&[])
            .run();
        assert!(!run.solution.stats.converged);
        assert_eq!(
            run.solution.stats.exhausted,
            Some(crate::budget::Exhaustion::WorkUnits)
        );
        // A non-converged incremental result must not offer itself as seed.
        assert!(run.solution.regions.is_none());
    }

    #[test]
    fn incremental_publishes_reuse_metrics() {
        use crate::telemetry::{self, TraceLevel, TEST_SINK_GATE};
        let _gate = TEST_SINK_GATE.lock().unwrap_or_else(|p| p.into_inner());
        let (g, p) = loopy_comm_graph();
        let warm = rg(&g, &p);
        telemetry::install(TraceLevel::Full);
        let _ = Solver::new(&p, &g).seed(&warm).unwrap().dirty(&[]).run();
        let report = telemetry::finish();
        assert_eq!(
            report.metrics.get("solver_regions_reused_total").copied(),
            Some(3.0),
            "metrics: {:?}",
            report.metrics.keys().collect::<Vec<_>>()
        );
        assert_eq!(
            report.metrics.get("solver_regions_resolved_total").copied(),
            Some(0.0)
        );
        assert!(report
            .events
            .iter()
            .any(|e| e.name == "fixpoint:incremental"));
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
        // Demand solutions never masquerade as incremental seeds.
        assert!(run.solution.regions.is_none());
        let err = Solver::new(&p, &g).seed(&run.solution).err().unwrap();
        assert_eq!(err, SolverConfigError::SeedWithoutRegions);
    }

    #[test]
    fn demand_union_of_roots_covers_both_slices() {
        let (g, p) = chain(10, 7);
        let full = rr(&g, &p);
        let run = Solver::new(&p, &g)
            .strategy(Strategy::RoundRobin)
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
            fn meet_into(&self, d: &mut bool, s: &bool) -> bool {
                let c = !*d && *s;
                *d |= *s;
                c
            }
            fn transfer(&self, _n: NodeId, i: &bool, _c: &[()]) -> bool {
                *i
            }
            fn comm_transfer(&self, _n: NodeId, _i: &bool) {}
        }
        let mut g = SimpleGraph::new(4);
        g.flow(0, 1);
        g.flow(1, 2);
        g.flow(2, 3);
        g.set_entry(0);
        g.set_exit(3);
        let full = rr(&g, &Live);
        let run = Solver::new(&Live, &g)
            .strategy(Strategy::RoundRobin)
            .demand(NodeId(2))
            .unwrap()
            .run();
        // Backward: "upstream" is the exit side — the slice is 2, 3.
        assert_eq!(run.node_in_slice, vec![false, false, true, true]);
        assert_eq!(run.solution.output[2], full.output[2]);
        assert_eq!(run.regions_solved, 2);
    }

    #[test]
    fn solver_config_errors_render_useful_messages() {
        for (err, needle) in [
            (SolverConfigError::SeedNotConverged, "converge"),
            (SolverConfigError::SeedWithoutRegions, "region"),
            (SolverConfigError::FingerprintsUnavailable, "fingerprint"),
            (
                SolverConfigError::NodeOutOfRange {
                    node: NodeId(9),
                    num_nodes: 4,
                },
                "9",
            ),
            (
                SolverConfigError::SeedDirectionMismatch {
                    expected: Direction::Forward,
                    got: Direction::Backward,
                },
                "direction",
            ),
        ] {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} should contain {needle:?}");
        }
    }
}
