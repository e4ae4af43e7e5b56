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
    pub outcome: Outcome,
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

/// Explore `schedules` adversarial interleavings and classify the result
/// against the static verdict (`flagged`).
///
/// The fault-free baseline and the schedules are independent runs, so
/// they run concurrently, one per available core, under the caller's
/// trace context; the report is assembled in schedule order and does not
/// depend on the core count.
pub fn run(program: &Program, flagged: bool, cfg: &VerifyConfig) -> CrossCheck {
    let mut span = telemetry::span("verify", "crosscheck");
    let mut out = CrossCheck {
        baseline_ok: false,
        attempted: 0,
        completed: 0,
        deadlocked: 0,
        first_deadlock: None,
        baseline_error: None,
        outcome: Outcome::Skipped,
    };
    if cfg.schedules == 0 {
        span.arg("outcome", out.outcome.as_str().to_string());
        return out;
    }

    // Run 0 is the fault-free baseline; run `i + 1` is schedule `i`.
    let runs = cfg.schedules as usize + 1;
    let explore = |k: usize| {
        let plan = k
            .checked_sub(1)
            .map(|i| FaultPlan::adversarial(0).for_schedule(cfg.base_seed, i as u64));
        interp::run(program, &interp_config(cfg, plan)).map(drop)
    };
    let mut results = vec![Ok(()); runs];
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
                let explore = &explore;
                let k = w * threads + k + 1;
                scope.spawn(move || telemetry::with_trace(trace, || *slot = explore(k)));
            }
            *first = explore(w * threads);
        });
    }
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
            span.arg("outcome", out.outcome.as_str().to_string());
            return out;
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
    span.arg("outcome", out.outcome.as_str().to_string());
    out
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
        assert_eq!(r.deadlocked, 0);
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
