//! Schedule exploration: re-check soundness obligations under many
//! adversarial legal schedules.
//!
//! The paper's claim is that analyses over the MPI-ICFG are sound for
//! *every possible* send/receive pairing. A single interpreter run only
//! witnesses one interleaving, so this module replays each program under
//! `K` seeded [`FaultPlan`]s — a seeded choice of the next rank at every
//! send and receive, and per-message reordering across sources, all legal
//! under MPI's non-overtaking guarantee — and re-checks both dynamic
//! soundness obligations against each run (a schedule is a pure function
//! of the program, the configuration and its seed, so the seed a violation
//! reports replays it):
//!
//! 1. **Reaching constants**: a global the analysis proves constant at the
//!    context exit must hold that constant on every rank of every schedule.
//! 2. **Vary (activity)**: a global *not* in the Vary set at the context
//!    exit must not respond to a perturbation of the independent, on any
//!    rank, under any schedule (the perturbed twin run replays the *same*
//!    fault seed so only the input differs).
//!
//! Used by `tests/dynamic_soundness.rs` and by
//! `mpidfa run --faults seed=N --schedules K`.

use mpi_dfa_analyses::activity::{self, ActivityConfig};
use mpi_dfa_analyses::consts::{self, CVal};
use mpi_dfa_analyses::mpi_match::{build_mpi_icfg, Matching};
use mpi_dfa_core::lattice::ConstLattice;
use mpi_dfa_graph::icfg::ProgramIr;
use mpi_dfa_lang::compile;
use mpi_dfa_lang::fault::FaultPlan;
use mpi_dfa_lang::interp::{run, InterpConfig, ProcessResult, RuntimeError, RuntimeLimits};

/// How many schedules to explore and how each run is bounded.
#[derive(Debug, Clone)]
pub struct ScheduleConfig {
    /// Number of adversarial schedules per program (`K`).
    pub schedules: usize,
    /// Base seed; per-schedule fault seeds are derived deterministically.
    pub base_seed: u64,
    /// Template fault plan re-seeded per schedule. Defaults to
    /// [`FaultPlan::adversarial`]; pass a chaotic plan to also exercise
    /// illegal (dropping/duplicating) deliveries.
    pub plan: FaultPlan,
    /// Simulated process count.
    pub nprocs: usize,
    /// Per-run step budget. Defaults to a much smaller budget than the
    /// production [`RuntimeLimits::default`] because each schedule run is
    /// tiny.
    pub limits: RuntimeLimits,
}

impl Default for ScheduleConfig {
    fn default() -> Self {
        ScheduleConfig {
            schedules: 8,
            base_seed: 0xFA017,
            plan: FaultPlan::adversarial(0),
            nprocs: 2,
            limits: RuntimeLimits { max_steps: 500_000 },
        }
    }
}

impl ScheduleConfig {
    /// The fault plan for schedule `i`: the template re-seeded from a
    /// splitmix64 stream over (`base_seed`, `i`).
    pub fn plan_for(&self, i: usize) -> FaultPlan {
        self.plan.for_schedule(self.base_seed, i as u64)
    }
}

/// One soundness violation found under one schedule.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Fault seed of the offending schedule.
    pub seed: u64,
    /// Human-readable description (obligation, global, rank, values).
    pub message: String,
}

/// Outcome of exploring one program under `K` schedules.
#[derive(Debug, Clone, Default)]
pub struct ScheduleReport {
    /// Schedules attempted (`K`, or 0 if the baseline run already failed).
    pub attempted: usize,
    /// Schedules that ran to completion on every rank.
    pub completed: usize,
    /// Schedules on which the program deadlocked. Legal schedules cannot
    /// *introduce* deadlocks, so nonzero here means the program itself can
    /// deadlock (and the baseline usually does too).
    pub deadlocked: usize,
    /// Soundness violations across all schedules — must be empty.
    pub violations: Vec<Violation>,
}

impl ScheduleReport {
    /// True when at least one schedule completed and no obligation failed.
    pub fn is_sound(&self) -> bool {
        self.completed > 0 && self.violations.is_empty()
    }
}

fn interp_config(
    sc: &ScheduleConfig,
    plan: Option<FaultPlan>,
    init: &[(String, f64)],
) -> InterpConfig {
    InterpConfig {
        nprocs: sc.nprocs,
        limits: sc.limits.clone(),
        capture_globals: true,
        init_globals: init.to_vec(),
        fault_plan: plan,
        ..Default::default()
    }
}

fn final_value(results: &[ProcessResult], rank: usize, name: &str) -> Vec<f64> {
    results[rank]
        .final_globals
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.clone())
        .unwrap_or_default()
}

/// Is this a location we check obligations on? (User-visible globals only.)
fn checkable(info: &mpi_dfa_graph::loc::LocInfo) -> bool {
    info.proc.is_none() && info.name != "__mpi_buffer"
}

/// Constant claims at the context exit: `(global name, expected value)`.
fn constant_claims(src: &str) -> Result<Vec<(String, f64)>, String> {
    let ir = ProgramIr::from_source(src).map_err(|e| e.to_string())?;
    let mpi = build_mpi_icfg(ir.clone(), "main", 0, Matching::ReachingConstants)
        .map_err(|e| e.to_string())?;
    let sol = consts::analyze_mpi(&mpi);
    let exit_env = sol.before(mpi.context_exit());
    let mut claims = Vec::new();
    for (loc, info) in ir.locs.iter() {
        if !checkable(info) {
            continue;
        }
        if let ConstLattice::Const(c) = exit_env.get(loc) {
            let expected = match c {
                CVal::Int(v) => *v as f64,
                CVal::Real(v) => *v,
                CVal::Bool(b) => {
                    if *b {
                        1.0
                    } else {
                        0.0
                    }
                }
            };
            claims.push((info.name.clone(), expected));
        }
    }
    Ok(claims)
}

/// Globals *not* in Vary at the context exit for independent `ind`.
fn non_varying(src: &str, ind: &str) -> Result<Vec<String>, String> {
    let ir = ProgramIr::from_source(src).map_err(|e| e.to_string())?;
    let mpi = build_mpi_icfg(ir.clone(), "main", 0, Matching::ReachingConstants)
        .map_err(|e| e.to_string())?;
    let config = ActivityConfig::new([ind], [ind]);
    let res = activity::analyze_mpi(&mpi, &config).map_err(|e| e.to_string())?;
    let vary_exit = res.vary.before(mpi.context_exit());
    let mut fixed = Vec::new();
    for (loc, info) in ir.locs.iter() {
        if checkable(info) && !vary_exit.contains(loc.index()) {
            fixed.push(info.name.clone());
        }
    }
    Ok(fixed)
}

/// Obligation 1 under `K` schedules: every Const claim at the context exit
/// must hold on every rank of every completed run. Returns `Ok(None)` when
/// the baseline (fault-free) run does not complete — the program deadlocks
/// or errors on its own, so there is nothing to explore.
pub fn check_constants(src: &str, sc: &ScheduleConfig) -> Result<Option<ScheduleReport>, String> {
    let unit = compile(src).map_err(|e| e.to_string())?;
    // Baseline: if the program cannot complete without faults, skip it
    // (generated programs may legitimately deadlock; static analyses don't
    // care but the oracle needs completed runs).
    if run(&unit.program, &interp_config(sc, None, &[])).is_err() {
        return Ok(None);
    }
    let claims = constant_claims(src)?;
    let mut report = ScheduleReport {
        attempted: sc.schedules,
        ..Default::default()
    };
    for i in 0..sc.schedules {
        let plan = sc.plan_for(i);
        let seed = plan.seed;
        match run(&unit.program, &interp_config(sc, Some(plan), &[])) {
            Ok(results) => {
                report.completed += 1;
                for (name, expected) in &claims {
                    for (rank, _) in results.iter().enumerate() {
                        for v in final_value(&results, rank, name) {
                            if v != *expected {
                                report.violations.push(Violation {
                                    seed,
                                    message: format!(
                                        "reaching-constants: analysis claims {name} = {expected} \
                                         at exit, rank {rank} has {v} under schedule seed {seed}"
                                    ),
                                });
                            }
                        }
                    }
                }
            }
            Err(RuntimeError::Deadlock { .. }) => report.deadlocked += 1,
            Err(e) => {
                report.violations.push(Violation {
                    seed,
                    message: format!(
                        "run failed under schedule seed {seed} though the fault-free run \
                         completed: {e}"
                    ),
                });
            }
        }
    }
    Ok(Some(report))
}

/// Obligation 2 under `K` schedules: a global outside Vary must not respond
/// to a perturbation of `ind`. Each schedule replays the *same* fault seed
/// for the base and perturbed runs so the schedule is held fixed while the
/// input varies. Returns `Ok(None)` when the baseline run does not complete.
pub fn check_vary(
    src: &str,
    ind: &str,
    sc: &ScheduleConfig,
) -> Result<Option<ScheduleReport>, String> {
    let unit = compile(src).map_err(|e| e.to_string())?;
    let lo = vec![(ind.to_string(), 1.0)];
    let hi = vec![(ind.to_string(), 2.0)];
    if run(&unit.program, &interp_config(sc, None, &lo)).is_err() {
        return Ok(None);
    }
    let fixed = non_varying(src, ind)?;
    let mut report = ScheduleReport {
        attempted: sc.schedules,
        ..Default::default()
    };
    for i in 0..sc.schedules {
        let plan = sc.plan_for(i);
        let seed = plan.seed;
        let base = run(&unit.program, &interp_config(sc, Some(plan.clone()), &lo));
        let perturbed = run(&unit.program, &interp_config(sc, Some(plan), &hi));
        match (base, perturbed) {
            (Ok(base), Ok(perturbed)) => {
                report.completed += 1;
                for name in &fixed {
                    for rank in 0..base.len() {
                        let a = final_value(&base, rank, name);
                        let b = final_value(&perturbed, rank, name);
                        if a != b {
                            report.violations.push(Violation {
                                seed,
                                message: format!(
                                    "vary: `{name}` is not in Vary at exit but responded to \
                                     d{ind} (rank {rank}: {a:?} vs {b:?}) under schedule seed \
                                     {seed}"
                                ),
                            });
                        }
                    }
                }
            }
            (Err(RuntimeError::Deadlock { .. }), _) | (_, Err(RuntimeError::Deadlock { .. })) => {
                report.deadlocked += 1;
            }
            (a, b) => {
                let e = a
                    .err()
                    .or(b.err())
                    .map(|e| e.to_string())
                    .unwrap_or_default();
                report.violations.push(Violation {
                    seed,
                    message: format!(
                        "run failed under schedule seed {seed} though the fault-free run \
                         completed: {e}"
                    ),
                });
            }
        }
    }
    Ok(Some(report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs::FIGURE1;

    #[test]
    fn plans_derive_deterministically_and_differ() {
        let sc = ScheduleConfig::default();
        assert_eq!(sc.plan_for(3).seed, sc.plan_for(3).seed);
        assert_ne!(sc.plan_for(3).seed, sc.plan_for(4).seed);
        let other = ScheduleConfig {
            base_seed: 1,
            ..ScheduleConfig::default()
        };
        assert_ne!(sc.plan_for(3).seed, other.plan_for(3).seed);
    }

    #[test]
    fn figure1_constants_hold_under_adversarial_schedules() {
        let report = check_constants(FIGURE1, &ScheduleConfig::default())
            .expect("figure1 compiles")
            .expect("figure1 completes fault-free");
        assert_eq!(report.attempted, 8);
        assert_eq!(
            report.completed, 8,
            "legal schedules must not deadlock figure1"
        );
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.is_sound());
    }

    #[test]
    fn figure1_vary_holds_under_adversarial_schedules() {
        let report = check_vary(FIGURE1, "x", &ScheduleConfig::default())
            .expect("figure1 compiles")
            .expect("figure1 completes fault-free");
        assert_eq!(report.completed, 8);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    #[test]
    fn deadlocking_program_is_skipped_not_failed() {
        // Figure 1 with 3 ranks: ranks 2.. recv from 0 but are never sent
        // to. The baseline deadlocks, so exploration reports None.
        let sc = ScheduleConfig {
            nprocs: 3,
            ..ScheduleConfig::default()
        };
        let report = check_constants(FIGURE1, &sc).expect("compiles");
        assert!(report.is_none());
    }
}
