//! Dynamic-vs-static cross-validation: the interpreter is ground truth.
//!
//! Two soundness obligations for analyses over the MPI-ICFG, checked against
//! actual SPMD executions:
//!
//! 1. **Reaching constants**: if the analysis claims a global holds the
//!    constant `c` at the context exit, then every rank's final value for
//!    that global must be `c` in every run.
//! 2. **Vary (activity)**: if a global is *not* in the Vary set at the
//!    context exit, then perturbing the independent's initial value must
//!    not change that global's final value on any rank.
//!
//! Both are checked on the Figure 1 program, on hand-written cases, and on
//! a batch of generated programs (skipping seeds whose programs deadlock —
//! the static analyses don't care, the interpreter does).
//!
//! Beyond the fault-free round-robin schedule, the
//! `*_under_adversarial_schedules` tests replay each program under `K = 8`
//! seeded adversarial legal schedules (a seeded choice of the next rank at
//! every send and receive, and cross-source reordering — see
//! `mpi_dfa::suite::schedules`) and re-check both obligations under every
//! explored schedule.

use mpi_dfa::analyses::consts::{self, CVal};
use mpi_dfa::core::lattice::ConstLattice;
use mpi_dfa::lang::interp::{run, InterpConfig, ProcessResult, RuntimeLimits};
use mpi_dfa::prelude::*;
use mpi_dfa::suite::gen::{generate, GenConfig};
use mpi_dfa::suite::schedules::{self, ScheduleConfig};

fn interp(src: &str, init: &[(&str, f64)]) -> Option<Vec<ProcessResult>> {
    let unit = compile(src).unwrap();
    run(
        &unit.program,
        &InterpConfig {
            nprocs: 2,
            limits: RuntimeLimits { max_steps: 500_000 },
            capture_globals: true,
            init_globals: init.iter().map(|(n, v)| (n.to_string(), *v)).collect(),
            ..Default::default()
        },
    )
    .ok()
}

fn final_value(results: &[ProcessResult], rank: usize, name: &str) -> Vec<f64> {
    results[rank]
        .final_globals
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.clone())
        .unwrap_or_default()
}

/// Obligation 1 on one program: every Const claim at exit must hold on
/// every rank of an actual run.
fn check_constants(src: &str) -> bool {
    let Some(results) = interp(src, &[]) else {
        return false;
    };
    let ir = ProgramIr::from_source(src).unwrap();
    let mpi = build_mpi_icfg(ir.clone(), "main", 0, Matching::ReachingConstants).unwrap();
    let sol = consts::analyze_mpi(&mpi);
    let exit_env = sol.before(mpi.context_exit());
    for (loc, info) in ir.locs.iter() {
        if info.proc.is_some() || info.name == "__mpi_buffer" {
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
            for rank in 0..results.len() {
                for v in final_value(&results, rank, &info.name) {
                    assert_eq!(
                        v, expected,
                        "analysis claims {} = {expected} at exit, rank {rank} has {v}\n{src}",
                        info.name
                    );
                }
            }
        }
    }
    true
}

/// Obligation 2 on one program: non-varying globals must not respond to a
/// perturbation of the independent `ind`.
fn check_vary(src: &str, ind: &str) -> bool {
    let Some(base) = interp(src, &[(ind, 1.0)]) else {
        return false;
    };
    let Some(perturbed) = interp(src, &[(ind, 2.0)]) else {
        return false;
    };
    let ir = ProgramIr::from_source(src).unwrap();
    let mpi = build_mpi_icfg(ir.clone(), "main", 0, Matching::ReachingConstants).unwrap();
    // Dependents irrelevant for the Vary phase; pick the independent.
    let config = ActivityConfig::new([ind], [ind]);
    let res = activity::analyze_mpi(&mpi, &config).unwrap();
    let vary_exit = res.vary.before(mpi.context_exit());
    for (loc, info) in ir.locs.iter() {
        if info.proc.is_some() || info.name == "__mpi_buffer" {
            continue;
        }
        if !vary_exit.contains(loc.index()) {
            for rank in 0..base.len() {
                assert_eq!(
                    final_value(&base, rank, &info.name),
                    final_value(&perturbed, rank, &info.name),
                    "`{}` is not in Vary at exit but responded to d{ind} (rank {rank})\n{src}",
                    info.name
                );
            }
        }
    }
    true
}

#[test]
fn constants_sound_on_figure1() {
    assert!(check_constants(mpi_dfa::suite::programs::FIGURE1));
}

#[test]
fn constants_sound_on_handwritten_cases() {
    let cases = [
        "program p global a: real; global b: real;\n\
         sub main() { a = 2.0; if (rank() == 0) { send(a, 1, 1); } else { recv(b, 0, 1); } }",
        "program p global c: real;\n\
         sub main() { if (rank() == 0) { c = 3.5; } bcast(c, 0); }",
        "program p global s: real; global m: real;\n\
         sub main() { s = 4.0; allreduce(MAX, s, m); }",
        "program p global x: real; global y: real;\n\
         sub helper(v: real) { v = v * 2.0; }\n\
         sub main() { x = 3.0; call helper(x); y = x + 1.0; }",
    ];
    for (i, src) in cases.iter().enumerate() {
        assert!(check_constants(src), "case {i} deadlocked unexpectedly");
    }
}

#[test]
fn vary_sound_on_figure1_independent_x() {
    // Perturbing x changes y/z/f downstream; everything the analysis calls
    // non-varying must be identical across the two runs.
    assert!(check_vary(mpi_dfa::suite::programs::FIGURE1, "x"));
}

#[test]
fn vary_sound_on_handwritten_cases() {
    let src = "program p\n\
        global a: real; global b: real; global c: real; global d: real;\n\
        sub main() {\n\
          b = a * 2.0;\n\
          c = 7.0;\n\
          if (rank() == 0) { send(b, 1, 1); send(c, 1, 2); }\n\
          else { recv(d, 0, 1); recv(c, 0, 2); }\n\
        }";
    assert!(check_vary(src, "a"));
}

#[test]
fn constants_sound_on_generated_programs() {
    let mut checked = 0;
    for seed in 0..40u64 {
        let src = generate(
            seed,
            &GenConfig {
                mpi_percent: 12,
                runnable: true,
                ..GenConfig::default()
            },
        );
        if check_constants(&src) {
            checked += 1;
        }
    }
    assert!(
        checked >= 25,
        "too few non-deadlocking seeds ({checked}) — generator drifted?"
    );
}

#[test]
fn vary_sound_on_generated_programs() {
    let mut checked = 0;
    for seed in 0..40u64 {
        let src = generate(
            seed,
            &GenConfig {
                mpi_percent: 12,
                runnable: true,
                ..GenConfig::default()
            },
        );
        if check_vary(&src, "s0") {
            checked += 1;
        }
    }
    assert!(checked >= 25, "too few non-deadlocking seeds ({checked})");
}

// ---- adversarial-schedule exploration (K = 8 seeded legal schedules) -----

/// The hand-written deadlock-free cases, shared by both schedule tests.
fn schedule_cases() -> Vec<&'static str> {
    vec![
        mpi_dfa::suite::programs::FIGURE1,
        "program p global a: real; global b: real;\n\
         sub main() { a = 2.0; if (rank() == 0) { send(a, 1, 1); } else { recv(b, 0, 1); } }",
        "program p global c: real;\n\
         sub main() { if (rank() == 0) { c = 3.5; } bcast(c, 0); }",
        "program p global s: real; global m: real;\n\
         sub main() { s = 4.0; allreduce(MAX, s, m); }",
    ]
}

#[test]
fn constants_sound_under_adversarial_schedules() {
    let sc = ScheduleConfig::default(); // K = 8
    assert!(sc.schedules >= 8);
    for (i, src) in schedule_cases().iter().enumerate() {
        let report = schedules::check_constants(src, &sc)
            .unwrap_or_else(|e| panic!("case {i}: {e}"))
            .unwrap_or_else(|| panic!("case {i} deadlocked without faults"));
        assert_eq!(
            report.completed, sc.schedules,
            "case {i}: legal schedules must complete"
        );
        assert!(
            report.violations.is_empty(),
            "case {i}: {:?}",
            report.violations
        );
    }
    // Generated runnable programs: every explored schedule must uphold the
    // analysis' constant claims.
    let mut explored = 0;
    for seed in 0..16u64 {
        let src = generate(
            seed,
            &GenConfig {
                mpi_percent: 12,
                runnable: true,
                ..GenConfig::default()
            },
        );
        if let Some(report) = schedules::check_constants(&src, &sc).unwrap() {
            assert!(
                report.violations.is_empty(),
                "seed {seed}: {:?}",
                report.violations
            );
            assert!(report.completed > 0, "seed {seed}: no schedule completed");
            explored += 1;
        }
    }
    assert!(explored >= 8, "too few non-deadlocking seeds ({explored})");
}

#[test]
fn vary_sound_under_adversarial_schedules() {
    let sc = ScheduleConfig::default(); // K = 8
    let independents = ["x", "a", "c", "s"];
    for (i, (src, ind)) in schedule_cases().iter().zip(independents).enumerate() {
        let report = schedules::check_vary(src, ind, &sc)
            .unwrap_or_else(|e| panic!("case {i}: {e}"))
            .unwrap_or_else(|| panic!("case {i} deadlocked without faults"));
        assert_eq!(
            report.completed, sc.schedules,
            "case {i}: legal schedules must complete"
        );
        assert!(
            report.violations.is_empty(),
            "case {i}: {:?}",
            report.violations
        );
    }
    let mut explored = 0;
    for seed in 0..16u64 {
        let src = generate(
            seed,
            &GenConfig {
                mpi_percent: 12,
                runnable: true,
                ..GenConfig::default()
            },
        );
        if let Some(report) = schedules::check_vary(&src, "s0", &sc).unwrap() {
            assert!(
                report.violations.is_empty(),
                "seed {seed}: {:?}",
                report.violations
            );
            assert!(report.completed > 0, "seed {seed}: no schedule completed");
            explored += 1;
        }
    }
    assert!(explored >= 8, "too few non-deadlocking seeds ({explored})");
}
