//! The resource governor: budget-metered analysis with a sound
//! graceful-degradation ladder.
//!
//! The paper's evaluation compares a precise MPI-ICFG analysis against a
//! conservative plain-ICFG baseline, which means every client analysis in
//! this repo has a built-in, provably sound fallback. The governor exploits
//! that structure: instead of hanging (or being killed) when a budget is
//! exceeded, it steps down tier by tier, re-running the analysis in a
//! cheaper configuration within the remaining budget:
//!
//! * **T0** — full MPI-ICFG at the configured clone level with the
//!   configured matching strategy (the paper's precise configuration);
//! * **T1** — clone level 0 (context-insensitive) with syntactic matching,
//!   skipping the budget-hungry reaching-constants bootstrap;
//! * **T2** — plain ICFG under [`Mode::GlobalBufferSound`], the worst-case
//!   communication assumption (every receive may deliver varying data,
//!   every sent value may be needed);
//! * if even T2 cannot finish, a **saturated** all-active result — the ⊤
//!   element of the activity lattice, trivially sound for a may-analysis.
//!
//! Every result carries an [`AnalysisProvenance`] so a degraded number can
//! never be mistaken for a precise one. The tiers only ever *lose*
//! precision (`active(T0) ⊆ active(T1) ⊆ active(T2) ⊆ saturated`); the
//! ladder tests in `tests/degradation_ladder.rs` assert this relation on
//! generated programs.
//!
//! Note a *non-converged snapshot* of a union analysis is an
//! **under**-approximation (facts still in flight) and is therefore never
//! published by the governor — exhaustion always moves down the ladder
//! instead.

use crate::activity::{
    active_bytes, analyze_icfg_with, analyze_mpi_with, ActivityConfig, ActivityResult, Mode,
};
use crate::mpi_match::{build_mpi_icfg_with_budget, Matching};
use mpi_dfa_core::budget::{Budget, BudgetSpent};
use mpi_dfa_core::problem::Direction;
use mpi_dfa_core::solver::{ConvergenceStats, Solution, SolveParams};
use mpi_dfa_core::telemetry::{self, ArgValue};
use mpi_dfa_core::varset::VarSet;
use mpi_dfa_graph::icfg::{Icfg, ProgramIr};
use std::sync::Arc;
use std::time::Instant;

/// The degradation ladder's rungs, most precise first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Tier {
    /// Full MPI-ICFG, configured clone level and matching.
    T0,
    /// Clone level 0 MPI-ICFG, syntactic matching.
    T1,
    /// Plain ICFG with the sound global-buffer assumption.
    T2,
}

impl Tier {
    pub fn as_str(self) -> &'static str {
        match self {
            Tier::T0 => "T0",
            Tier::T1 => "T1",
            Tier::T2 => "T2",
        }
    }
}

impl std::fmt::Display for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Where a published result came from, attached to every governed analysis
/// so Table-1/Figure-4 output, the CLI, and JSON reports can distinguish a
/// precise number from a degraded one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisProvenance {
    /// The tier that produced the published result.
    pub tier: Tier,
    /// Budget the whole governed run consumed (solver work units across
    /// all attempted tiers, wall clock from entry to publication).
    pub budget_spent: BudgetSpent,
    /// Why higher tiers were abandoned; `None` for an undegraded T0 run.
    pub degradation_reason: Option<String>,
    /// True when even T2 exhausted and the all-active ⊤ result was
    /// published instead of a solver fixpoint.
    pub saturated: bool,
}

impl AnalysisProvenance {
    /// True when the result is the precise, undegraded configuration.
    pub fn is_precise(&self) -> bool {
        self.tier == Tier::T0 && !self.saturated
    }
}

/// Whether the governor may step down the ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeMode {
    /// Step down tier by tier on exhaustion (the default).
    Auto,
    /// Fail with a structured error instead of degrading.
    Off,
}

/// Configuration of one governed activity run.
#[derive(Debug, Clone)]
pub struct GovernorConfig {
    /// Clone level for the T0 attempt.
    pub clone_level: usize,
    /// Matching strategy for the T0 attempt.
    pub matching: Matching,
    /// The budget shared by all tiers of the run.
    pub budget: Budget,
    pub degrade: DegradeMode,
    /// Solver pass bound per fixpoint (see [`SolveParams::max_passes`]).
    pub max_passes: usize,
    /// Lowest rung the ladder may *start* from. `Tier::T0` (the default)
    /// is the normal full ladder; the service's admission control raises
    /// this under sustained load so heavy traffic degrades deterministically
    /// instead of queueing unboundedly. Results produced under a raised
    /// floor are still sound (the floor only skips the more precise rungs).
    pub tier_floor: Tier,
}

impl Default for GovernorConfig {
    fn default() -> Self {
        GovernorConfig {
            clone_level: 0,
            matching: Matching::ReachingConstants,
            budget: Budget::unlimited(),
            degrade: DegradeMode::Auto,
            max_passes: SolveParams::default().max_passes,
            tier_floor: Tier::T0,
        }
    }
}

/// A governed analysis outcome: the (sound) result plus its provenance.
#[derive(Debug)]
pub struct GovernedActivity {
    pub result: ActivityResult,
    pub provenance: AnalysisProvenance,
    /// Communication-edge count of the graph the published tier analyzed;
    /// `None` when the tier had no MPI-ICFG (T2 or the saturated result).
    pub comm_edges: Option<usize>,
}

/// Projected bytes of data-flow facts for an activity run: two phases
/// (Vary/Useful) × two sides (input/output) × one bitvector word per 64
/// locations per node. Checked against `Budget::max_fact_bytes` *before*
/// allocating, so the cap degrades instead of OOM-killing.
pub fn projected_activity_fact_bytes(num_nodes: usize, universe: usize) -> u64 {
    let words_per_set = universe.div_ceil(64) as u64;
    (num_nodes as u64) * 2 * 2 * words_per_set * 8
}

/// Run activity analysis for `context` under the governor: try T0, then
/// degrade tier by tier within the remaining budget. Returns `Err` only for
/// configuration errors (unknown context/variables) or when degradation is
/// [`DegradeMode::Off`] and the budget ran out.
pub fn governed_activity(
    ir: &Arc<ProgramIr>,
    context: &str,
    config: &ActivityConfig,
    gov: &GovernorConfig,
) -> Result<GovernedActivity, String> {
    let started = Instant::now();
    let mut gov_span = telemetry::span("governor", "governed_activity");
    gov_span.arg("context", context);
    let mut spent_work: u64 = 0;
    let mut reasons: Vec<String> = Vec::new();

    let t1_redundant = gov.clone_level == 0
        && matches!(gov.matching, Matching::Syntactic | Matching::Naive)
        && gov.degrade == DegradeMode::Auto;
    let full_ladder: &[Tier] = match gov.degrade {
        // With degradation off the floor still applies: the service uses
        // the floor for load shedding, which must override precision even
        // for clients that opted out of budget-driven degradation.
        DegradeMode::Off => match gov.tier_floor {
            Tier::T0 => &[Tier::T0],
            Tier::T1 => &[Tier::T1],
            Tier::T2 => &[Tier::T2],
        },
        DegradeMode::Auto if t1_redundant => &[Tier::T0, Tier::T2],
        DegradeMode::Auto => &[Tier::T0, Tier::T1, Tier::T2],
    };
    let tiers: Vec<Tier> = full_ladder
        .iter()
        .copied()
        // A T1 floor keeps a T0 attempt that is already configured at T1's
        // cost (clone 0, cheap matching) — skipping it would only lose work.
        .filter(|&t| t >= gov.tier_floor || (t1_redundant && gov.tier_floor == Tier::T1))
        .collect();
    if gov.tier_floor > Tier::T0 {
        reasons.push(format!("tier floor {} (load shedding)", gov.tier_floor));
    }

    for &tier in &tiers {
        let spent = BudgetSpent {
            work: spent_work,
            elapsed: started.elapsed(),
        };
        let remaining = gov.budget.remaining_after(&spent);
        trace_tier_attempt(tier);
        match attempt_tier(ir, context, config, gov, tier, &remaining, &mut spent_work) {
            Ok((result, comm_edges)) => {
                let degradation_reason = if reasons.is_empty() {
                    None
                } else {
                    Some(reasons.join("; "))
                };
                trace_tier_publish(&mut gov_span, tier, false, spent_work);
                return Ok(GovernedActivity {
                    result,
                    provenance: AnalysisProvenance {
                        tier,
                        budget_spent: BudgetSpent {
                            work: spent_work,
                            elapsed: started.elapsed(),
                        },
                        degradation_reason,
                        saturated: false,
                    },
                    comm_edges,
                });
            }
            Err(TierFailure::Config(msg)) => return Err(msg),
            Err(TierFailure::Exhausted(reason)) => {
                trace_tier_degrade(tier, &reason);
                reasons.push(format!("{tier}: {reason}"));
            }
        }
    }

    if gov.degrade == DegradeMode::Off {
        return Err(format!(
            "budget exhausted and degradation disabled (--degrade=off): {}",
            reasons.join("; ")
        ));
    }

    // Even T2 could not finish: publish the saturated all-active ⊤ result,
    // which over-approximates every tier by construction.
    let result = saturated_result(ir, context)?;
    reasons.push("saturated: published the all-active ⊤ result".into());
    trace_tier_publish(&mut gov_span, Tier::T2, true, spent_work);
    Ok(GovernedActivity {
        result,
        provenance: AnalysisProvenance {
            tier: Tier::T2,
            budget_spent: BudgetSpent {
                work: spent_work,
                elapsed: started.elapsed(),
            },
            degradation_reason: Some(reasons.join("; ")),
            saturated: true,
        },
        comm_edges: None,
    })
}

/// Telemetry for one ladder step being tried: an instant event plus the
/// `governor_tier_attempts_total{tier=...}` counter.
fn trace_tier_attempt(tier: Tier) {
    if !telemetry::is_enabled() {
        return;
    }
    telemetry::instant(
        "governor",
        "tier_attempt",
        vec![("tier", ArgValue::Str(tier.as_str().into()))],
    );
    telemetry::metric_add(
        &telemetry::metric_name("governor_tier_attempts_total", &[("tier", tier.as_str())]),
        1.0,
    );
}

/// Telemetry for a tier abandoned on exhaustion — the ladder transition the
/// acceptance criteria ask the metrics dump to record per tier.
fn trace_tier_degrade(tier: Tier, reason: &str) {
    if !telemetry::is_enabled() {
        return;
    }
    telemetry::instant(
        "governor",
        "tier_degrade",
        vec![
            ("tier", ArgValue::Str(tier.as_str().into())),
            ("reason", ArgValue::Str(reason.to_string())),
        ],
    );
    telemetry::metric_add(
        &telemetry::metric_name("governor_tier_exhausted_total", &[("tier", tier.as_str())]),
        1.0,
    );
}

/// Telemetry for the tier whose result gets published (possibly the
/// saturated ⊤ fallback); also closes out the governed-run span args.
fn trace_tier_publish(span: &mut telemetry::SpanGuard, tier: Tier, saturated: bool, work: u64) {
    if !telemetry::is_enabled() {
        return;
    }
    telemetry::instant(
        "governor",
        "tier_publish",
        vec![
            ("tier", ArgValue::Str(tier.as_str().into())),
            ("saturated", ArgValue::Bool(saturated)),
        ],
    );
    telemetry::metric_add(
        &telemetry::metric_name("governor_published_tier_total", &[("tier", tier.as_str())]),
        1.0,
    );
    if saturated {
        telemetry::metric_add("governor_saturated_total", 1.0);
    }
    span.arg("published_tier", tier.as_str());
    span.arg("saturated", saturated);
    span.arg("work", work);
}

enum TierFailure {
    /// Unknown context / variables: retrying cheaper tiers cannot help.
    Config(String),
    /// Budget exhaustion or non-convergence: step down the ladder.
    Exhausted(String),
}

fn attempt_tier(
    ir: &Arc<ProgramIr>,
    context: &str,
    config: &ActivityConfig,
    gov: &GovernorConfig,
    tier: Tier,
    remaining: &Budget,
    spent_work: &mut u64,
) -> Result<(ActivityResult, Option<usize>), TierFailure> {
    let universe = ir.locs.len();
    let params = SolveParams {
        max_passes: gov.max_passes,
        budget: remaining.clone(),
    };

    let check_mem = |num_nodes: usize| -> Result<(), TierFailure> {
        let projected = projected_activity_fact_bytes(num_nodes, universe);
        remaining
            .meter()
            .check_fact_bytes(projected)
            .map_err(|e| TierFailure::Exhausted(format!("{e} ({projected} bytes projected)")))
    };

    let (result, comm_edges) = match tier {
        Tier::T0 | Tier::T1 => {
            let (clone_level, matching) = match tier {
                Tier::T0 => (gov.clone_level, gov.matching),
                _ => (0, Matching::Syntactic),
            };
            let mpi =
                build_mpi_icfg_with_budget(ir.clone(), context, clone_level, matching, remaining)
                    .map_err(|e| match e {
                    mpi_dfa_graph::icfg::IcfgError::Budget(x) => {
                        TierFailure::Exhausted(x.to_string())
                    }
                    mpi_dfa_graph::icfg::IcfgError::TooManyNodes(n) => {
                        TierFailure::Exhausted(format!("clone expansion reached {n} nodes"))
                    }
                    other => TierFailure::Config(other.to_string()),
                })?;
            check_mem(mpi.icfg().nodes().count())?;
            let edges = mpi.comm_edges.len();
            (
                analyze_mpi_with(&mpi, config, &params).map_err(TierFailure::Config)?,
                Some(edges),
            )
        }
        Tier::T2 => {
            let icfg =
                Icfg::build_with_budget(ir.clone(), context, 0, remaining).map_err(
                    |e| match e {
                        mpi_dfa_graph::icfg::IcfgError::Budget(x) => {
                            TierFailure::Exhausted(x.to_string())
                        }
                        other => TierFailure::Config(other.to_string()),
                    },
                )?;
            check_mem(icfg.nodes().count())?;
            (
                analyze_icfg_with(&icfg, Mode::GlobalBufferSound, config, &params)
                    .map_err(TierFailure::Config)?,
                None,
            )
        }
    };

    *spent_work += result.vary.stats.node_visits + result.useful.stats.node_visits;
    if result.converged() {
        Ok((result, comm_edges))
    } else {
        let reason = result
            .vary
            .stats
            .exhausted
            .or(result.useful.stats.exhausted)
            .map(|e| e.to_string())
            .unwrap_or_else(|| "pass bound hit before fixpoint".to_string());
        Err(TierFailure::Exhausted(reason))
    }
}

/// The ⊤ element of the activity analysis: every location varies and is
/// useful at every program point of the clone-0 ICFG. This *is* a sound
/// answer for a may-analysis (it over-approximates every fixpoint), unlike
/// a non-converged solver snapshot, which under-approximates.
fn saturated_result(ir: &Arc<ProgramIr>, context: &str) -> Result<ActivityResult, String> {
    // Clone level 0 keeps the graph linear in program size; if even that
    // overflows the hard node cap the program itself is out of scope.
    let icfg = Icfg::build(ir.clone(), context, 0).map_err(|e| e.to_string())?;
    let universe = ir.locs.len();
    let n = icfg.nodes().count();
    let full = VarSet::full(universe);
    // Synthetic fixpoint: marked converged because it is a final sound
    // answer, not an in-flight snapshot.
    let stats = ConvergenceStats {
        converged: true,
        ..Default::default()
    };
    let solution = |direction: Direction| Solution {
        direction,
        input: vec![full.clone(); n],
        output: vec![full.clone(); n],
        stats: stats.clone(),
    };
    let bytes = active_bytes(&ir.locs, &full);
    Ok(ActivityResult {
        mode: Mode::GlobalBufferSound,
        vary: solution(Direction::Forward),
        useful: solution(Direction::Backward),
        active: full,
        active_bytes: bytes,
        iterations: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn fig1() -> Arc<ProgramIr> {
        ProgramIr::from_source(FIGURE1).expect("compile")
    }

    fn cfg() -> ActivityConfig {
        ActivityConfig::new(["x"], ["f"])
    }

    #[test]
    fn unlimited_budget_stays_at_t0() {
        let g = governed_activity(&fig1(), "main", &cfg(), &GovernorConfig::default()).unwrap();
        assert_eq!(g.provenance.tier, Tier::T0);
        assert!(g.provenance.is_precise());
        assert!(!g.provenance.saturated);
        assert_eq!(g.provenance.degradation_reason, None);
        assert!(g.result.converged());
        assert!(g.provenance.budget_spent.work > 0);
    }

    #[test]
    fn tiny_work_budget_degrades_with_reason() {
        let gov = GovernorConfig {
            budget: Budget::unlimited().with_max_work(1),
            ..GovernorConfig::default()
        };
        let g = governed_activity(&fig1(), "main", &cfg(), &gov).unwrap();
        assert_ne!(g.provenance.tier, Tier::T0);
        let reason = g.provenance.degradation_reason.as_deref().unwrap();
        assert!(
            reason.contains("T0"),
            "reason names the failed tier: {reason}"
        );
        // Whatever rung it landed on, the result over-approximates T0.
        let precise =
            governed_activity(&fig1(), "main", &cfg(), &GovernorConfig::default()).unwrap();
        assert!(precise.result.active.is_subset(&g.result.active));
    }

    #[test]
    fn exhausting_all_tiers_saturates() {
        // One work unit makes every graph build fail immediately.
        let gov = GovernorConfig {
            budget: Budget::unlimited().with_max_work(0),
            ..GovernorConfig::default()
        };
        let g = governed_activity(&fig1(), "main", &cfg(), &gov).unwrap();
        assert!(g.provenance.saturated);
        assert_eq!(g.provenance.tier, Tier::T2);
        assert_eq!(g.result.active.len(), g.result.active.universe());
        assert!(g.result.converged(), "saturated ⊤ is a final sound answer");
    }

    #[test]
    fn degrade_off_returns_error_instead() {
        let gov = GovernorConfig {
            budget: Budget::unlimited().with_max_work(1),
            degrade: DegradeMode::Off,
            ..GovernorConfig::default()
        };
        let e = governed_activity(&fig1(), "main", &cfg(), &gov).unwrap_err();
        assert!(e.contains("degradation disabled"), "{e}");
    }

    #[test]
    fn config_errors_do_not_degrade() {
        let gov = GovernorConfig::default();
        let bad = ActivityConfig::new(["nope"], ["f"]);
        assert!(governed_activity(&fig1(), "main", &bad, &gov).is_err());
        assert!(governed_activity(&fig1(), "nope", &cfg(), &gov).is_err());
    }

    #[test]
    fn fact_memory_cap_degrades_to_saturated() {
        let gov = GovernorConfig {
            budget: Budget::unlimited().with_max_fact_bytes(8),
            ..GovernorConfig::default()
        };
        let g = governed_activity(&fig1(), "main", &cfg(), &gov).unwrap();
        assert!(
            g.provenance.saturated,
            "8 bytes cannot hold any tier's facts"
        );
        let reason = g.provenance.degradation_reason.unwrap();
        assert!(reason.contains("fact-memory"), "{reason}");
    }

    #[test]
    fn provenance_tier_ordering_matches_ladder() {
        assert!(Tier::T0 < Tier::T1 && Tier::T1 < Tier::T2);
        assert_eq!(Tier::T1.to_string(), "T1");
    }
}
