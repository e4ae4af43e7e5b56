//! Cross-check of static verdicts against the schedule explorer.
//!
//! The contract runs in both directions:
//!
//! * **static-safe** programs (no unmatched receives, no wait-for
//!   cycles) must survive the fault-free baseline *and* `K` adversarial
//!   schedules without deadlock — a deadlock here is a
//!   [`Outcome::Contradiction`] and a bug in the static passes;
//! * **static-flagged** programs get a realization attempt: the same
//!   `K` seeded adversarial schedules try to drive the program into the
//!   predicted deadlock, and the outcome ([`Outcome::Confirmed`] /
//!   [`Outcome::Unrealized`]) becomes part of the report. An unrealized
//!   flag is an admissible false positive — the predictive pass
//!   abstracts message counts and rank-dependent peers — but a
//!   confirmed one is ground truth.
//!
//! Only schedules that can differ are run. Without a wildcard-source
//! receive ([`interp::has_wildcard_source`]) each rank executes the same
//! statements on the same values under every legal schedule, so each of
//! the `K` schedules would end where the fault-free baseline ends. Such a
//! program is decided by its baseline alone, run on the calling thread,
//! and every schedule is counted as ending that way: a completed baseline
//! gives `completed = K`, a deadlocked one `deadlocked = K + 1` with the
//! baseline's rendering. `tests/verify_crosscheck.rs` runs the schedules
//! anyway on the bundled, corpus and generated programs and compares each
//! rank's whole result with the baseline's. A program with an `ANY`-source
//! receive runs the baseline and all `K` schedules, one per available
//! core. [`CrossCheck::runs`] records which happened.
//!
//! Everything is seeded (`base_seed` forks per schedule exactly like
//! `suite::schedules`, through [`FaultPlan::for_schedule`]), every run is
//! a pure function of its seed, and the report carries no wall-clock
//! data, so verify responses stay content-addressable and byte-identical
//! across cache hits, recomputes, and service topologies.

use mpi_dfa_core::telemetry;
use mpi_dfa_lang::ast::Program;
use mpi_dfa_lang::fault::FaultPlan;
use mpi_dfa_lang::interp::{self, InterpConfig, RuntimeError};

use crate::VerifyConfig;

/// Joint verdict of the static passes and the schedule explorer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Static-safe and no schedule deadlocked.
    ConsistentSafe,
    /// Static-safe but a schedule deadlocked — a static-pass bug.
    Contradiction,
    /// Static-flagged and a schedule realized a deadlock.
    Confirmed,
    /// Static-flagged but no schedule realized it (admissible false
    /// positive).
    Unrealized,
    /// No exploration ran (disabled, or the baseline run failed for a
    /// non-deadlock reason).
    Skipped,
}

impl Outcome {
    pub fn as_str(self) -> &'static str {
        match self {
            Outcome::ConsistentSafe => "consistent-safe",
            Outcome::Contradiction => "contradiction",
            Outcome::Confirmed => "confirmed",
            Outcome::Unrealized => "unrealized",
            Outcome::Skipped => "skipped",
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrossCheck {
    /// Did the fault-free baseline complete?
    pub baseline_ok: bool,
    /// Adversarial schedules attempted (excludes the baseline).
    pub attempted: u32,
    /// Schedules that ran to completion.
    pub completed: u32,
    /// Schedules (baseline included) that ended in deadlock.
    pub deadlocked: u32,
    /// Rendered wait-for cycle of the first observed deadlock.
    pub first_deadlock: Option<String>,
    /// Why the fault-free baseline failed, when it failed for a reason
    /// other than deadlock (the exploration is then skipped).
    pub baseline_error: Option<String>,
    /// Interpreter runs actually made: `K + 1` when the schedules were
    /// explored, 1 when the baseline decided the program, 0 when the
    /// cross-check is disabled. Not part of the report: [`crate::render_json`]
    /// leaves it out, so the report does not depend on how it was reached.
    pub runs: u32,
    pub outcome: Outcome,
}

impl CrossCheck {
    /// The result of a cross-check that ran nothing.
    pub(crate) fn skipped() -> CrossCheck {
        CrossCheck {
            baseline_ok: false,
            attempted: 0,
            completed: 0,
            deadlocked: 0,
            first_deadlock: None,
            baseline_error: None,
            runs: 0,
            outcome: Outcome::Skipped,
        }
    }
}

fn interp_config(cfg: &VerifyConfig, plan: Option<FaultPlan>) -> InterpConfig {
    InterpConfig {
        nprocs: cfg.nprocs,
        entry: cfg.entry.clone(),
        limits: cfg.limits.clone(),
        init_globals: Vec::new(),
        capture_globals: false,
        fault_plan: plan,
    }
}

/// Render a deadlock deterministically (per-rank waits plus the wait-for
/// cycle when one is recoverable from the blocked set).
fn render_deadlock(err: &RuntimeError) -> String {
    match err.waitfor_cycle() {
        Some(cycle) => cycle,
        None => err.to_string(),
    }
}

/// Check the static verdict (`flagged`) against the runs that can differ:
/// the baseline alone for a program without a wildcard-source receive,
/// the baseline and `cfg.schedules` adversarial schedules otherwise (see
/// the module documentation).
pub fn run(program: &Program, flagged: bool, cfg: &VerifyConfig) -> CrossCheck {
    let mut span = telemetry::span("verify", "crosscheck");
    let out = check(program, flagged, cfg);
    if out.runs > 0 {
        telemetry::metric_add("verify_crosscheck_runs_total", f64::from(out.runs));
    }
    span.arg("runs", u64::from(out.runs));
    span.arg("outcome", out.outcome.as_str());
    out
}

fn check(program: &Program, flagged: bool, cfg: &VerifyConfig) -> CrossCheck {
    let mut out = CrossCheck::skipped();
    if cfg.schedules == 0 {
        return out;
    }
    let explored = interp::has_wildcard_source(program);
    let results = if explored {
        explore(program, cfg)
    } else {
        vec![run_k(program, cfg, 0)]
    };
    out.runs = results.len() as u32;
    let mut results = results.into_iter();

    match results.next().expect("the baseline ran") {
        Ok(()) => out.baseline_ok = true,
        Err(e) if e.is_deadlock() => {
            out.deadlocked += 1;
            out.first_deadlock = Some(render_deadlock(&e));
        }
        Err(e) => {
            // The program does not run (missing entry, runtime failure):
            // exploration cannot say anything about deadlock freedom.
            out.baseline_error = Some(e.to_string());
            return out;
        }
    }

    if !explored {
        // Every schedule ends where the baseline ended.
        out.attempted = cfg.schedules;
        if out.baseline_ok {
            out.completed = cfg.schedules;
        } else {
            out.deadlocked = out.deadlocked.saturating_add(cfg.schedules);
        }
    }
    for result in results {
        out.attempted += 1;
        match result {
            Ok(()) => out.completed += 1,
            Err(e) if e.is_deadlock() => {
                out.deadlocked += 1;
                if out.first_deadlock.is_none() {
                    out.first_deadlock = Some(render_deadlock(&e));
                }
            }
            Err(_) => {}
        }
    }

    out.outcome = match (flagged, out.deadlocked > 0) {
        (false, false) => Outcome::ConsistentSafe,
        (false, true) => Outcome::Contradiction,
        (true, true) => Outcome::Confirmed,
        (true, false) => Outcome::Unrealized,
    };
    telemetry::metric_add("verify_crosscheck_schedules_total", out.attempted as f64);
    out
}

/// Run `k` of a cross-check: run 0 is the fault-free baseline, run `i + 1`
/// is adversarial schedule `i`.
fn run_k(program: &Program, cfg: &VerifyConfig, k: usize) -> Result<(), RuntimeError> {
    let plan = k
        .checked_sub(1)
        .map(|i| FaultPlan::adversarial(0).for_schedule(cfg.base_seed, i as u64));
    interp::run(program, &interp_config(cfg, plan)).map(drop)
}

/// The baseline and all `cfg.schedules` schedules, in run order. They are
/// independent, so they run concurrently, one per available core, under
/// the caller's trace context; the order of the results does not depend
/// on the core count.
fn explore(program: &Program, cfg: &VerifyConfig) -> Vec<Result<(), RuntimeError>> {
    let mut results = vec![Ok(()); cfg.schedules as usize + 1];
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let trace = telemetry::current_trace();
    // Runs go in waves of one per core: the calling thread takes the
    // first of each wave and a fresh scoped thread each of the others. A
    // thread per run hands its allocator caches back when it ends; a
    // long-lived helper would keep a freed whole-array payload per run
    // resident.
    for (w, wave) in results.chunks_mut(threads).enumerate() {
        let (first, rest) = wave.split_first_mut().expect("chunks are never empty");
        std::thread::scope(|scope| {
            for (k, slot) in rest.iter_mut().enumerate() {
                let k = w * threads + k + 1;
                scope
                    .spawn(move || telemetry::with_trace(trace, || *slot = run_k(program, cfg, k)));
            }
            *first = run_k(program, cfg, w * threads);
        });
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpi_dfa_lang::compile;

    fn program(src: &str) -> Program {
        compile(src).unwrap().program
    }

    #[test]
    fn safe_program_is_consistent() {
        let p = program(
            "program p global x: real; global y: real;\n\
             sub main() { if (rank() == 0) { send(x, 1, 7); } else { recv(y, 0, 7); } }",
        );
        let cfg = VerifyConfig::default();
        let r = run(&p, false, &cfg);
        assert!(r.baseline_ok);
        assert_eq!(r.outcome, Outcome::ConsistentSafe, "{r:?}");
        assert_eq!((r.attempted, r.completed, r.deadlocked), (8, 8, 0));
        assert_eq!(r.runs, 1, "no wildcard source: the baseline decides");
    }

    #[test]
    fn head_to_head_deadlock_is_confirmed() {
        let p = program(
            "program p global x: real; global y: real;\n\
             sub main() { recv(y, 1 - rank(), 5); send(x, 1 - rank(), 5); }",
        );
        let cfg = VerifyConfig {
            schedules: 2,
            ..VerifyConfig::default()
        };
        let r = run(&p, true, &cfg);
        assert_eq!(r.outcome, Outcome::Confirmed, "{r:?}");
        assert!(r.first_deadlock.is_some());
        assert_eq!((r.attempted, r.completed, r.deadlocked), (2, 0, 3));
        assert_eq!(r.runs, 1);
    }

    #[test]
    fn a_wildcard_source_explores_every_schedule() {
        let p = program(
            "program p global x: real; global y: real;\n\
             sub main() { if (rank() == 0) { recv(y, ANY, 7); } else { send(x, 0, 7); } }",
        );
        let cfg = VerifyConfig {
            schedules: 3,
            ..VerifyConfig::default()
        };
        let r = run(&p, false, &cfg);
        assert_eq!(r.outcome, Outcome::ConsistentSafe, "{r:?}");
        assert_eq!((r.attempted, r.completed, r.runs), (3, 3, 4));
    }

    #[test]
    fn no_schedules_runs_nothing() {
        let p = program("program p sub main() { }");
        let cfg = VerifyConfig {
            schedules: 0,
            ..VerifyConfig::default()
        };
        assert_eq!(run(&p, false, &cfg), CrossCheck::skipped());
    }

    #[test]
    fn verdicts_are_deterministic() {
        let p = program(
            "program p global x: real; global y: real;\n\
             sub main() { recv(y, 1 - rank(), 5); send(x, 1 - rank(), 5); }",
        );
        let cfg = VerifyConfig {
            schedules: 3,
            ..VerifyConfig::default()
        };
        let a = run(&p, true, &cfg);
        let b = run(&p, true, &cfg);
        assert_eq!(a, b);
    }
}
