//! Cross-check invariant for the verify subsystem (`docs/VERIFY.md`):
//!
//! * **static-safe ⇒ dynamically deadlock-free**: every program the static
//!   passes call safe must survive the fault-free baseline plus `K = 8`
//!   seeded adversarial schedules without deadlock. A contradiction here
//!   is a bug in the static passes, never an admissible false negative.
//! * **seeded deadlocks are caught**: every program in the bundled
//!   deadlock corpus must be statically flagged, and at least one of them
//!   must also be *realized* by the schedule explorer (confirmed), so the
//!   corpus keeps both directions of the contract honest.
//!
//! Checked over the Table-1 benchmark programs, the seeded corpus, and a
//! batch of deterministic generated programs.

use mpi_dfa::prelude::*;
use mpi_dfa::suite::gen::{generate, GenConfig};
use mpi_dfa::suite::programs;
use mpi_dfa::verify::{self, corpus, Outcome, Verdict, VerifyConfig};

fn cfg(schedules: u32) -> VerifyConfig {
    VerifyConfig {
        schedules,
        ..VerifyConfig::default()
    }
}

fn verify_src(src: &str, vc: &VerifyConfig) -> verify::VerifyReport {
    let ir = ProgramIr::from_source(src).unwrap();
    let g = build_mpi_icfg(ir, &vc.entry, 1, Matching::ReachingConstants).unwrap();
    verify::verify(&g, vc, &Budget::unlimited())
        .map_err(|e| e.to_string())
        .unwrap()
}

#[test]
fn table1_programs_are_static_safe_and_survive_adversarial_schedules() {
    for (name, src) in programs::ALL {
        let r = verify_src(src, &cfg(8));
        assert_eq!(
            r.verdict,
            Verdict::Safe,
            "{name} must be statically safe: {:?} {:?}",
            r.matchset,
            r.deadlock
        );
        assert_eq!(
            r.crosscheck.outcome,
            Outcome::ConsistentSafe,
            "{name}: a static-safe program deadlocked under exploration — \
             static-pass bug: {:?}",
            r.crosscheck
        );
        assert_eq!(r.crosscheck.deadlocked, 0, "{name}: {:?}", r.crosscheck);
    }
}

#[test]
fn seeded_deadlock_corpus_is_flagged_and_at_least_one_cycle_realizes() {
    let mut confirmed = 0usize;
    for (name, src) in corpus::ALL {
        let r = verify_src(src, &cfg(8));
        assert_eq!(r.verdict, Verdict::Flagged, "{name} must be flagged");
        // A flagged program's exploration can only confirm, fail to
        // realize, or be unable to run — never contradict.
        assert_ne!(
            r.crosscheck.outcome,
            Outcome::Contradiction,
            "{name}: {:?}",
            r.crosscheck
        );
        if r.crosscheck.outcome == Outcome::Confirmed {
            confirmed += 1;
            assert!(
                r.crosscheck.first_deadlock.is_some(),
                "{name}: a confirmed deadlock must carry its rendering"
            );
        }
    }
    assert!(
        confirmed >= 1,
        "at least one corpus deadlock must be realized by the explorer"
    );
}

#[test]
fn generated_programs_uphold_the_crosscheck_invariant() {
    // Deterministic generated programs at two scales. The invariant under
    // test is one-directional: whenever the static passes say safe, the
    // explorer must not find a deadlock. Flagged programs may or may not
    // realize (the predictive pass admits false positives); a `Skipped`
    // outcome (program fails to run for a non-deadlock reason) proves
    // nothing and is fine either way.
    for factor in [1usize, 2] {
        for seed in 0..6u64 {
            let src = generate(seed, &GenConfig::scaled(factor));
            let r = verify_src(&src, &cfg(8));
            if r.verdict == Verdict::Safe {
                assert_ne!(
                    r.crosscheck.outcome,
                    Outcome::Contradiction,
                    "gen seed {seed} factor {factor}: static-safe program \
                     deadlocked under exploration: {:?}",
                    r.crosscheck
                );
            }
        }
    }
}

#[test]
fn verify_report_json_is_deterministic() {
    for (_, src) in corpus::ALL.iter().chain(programs::ALL.iter().take(2)) {
        let a = verify::render_json(&verify_src(src, &cfg(4)));
        let b = verify::render_json(&verify_src(src, &cfg(4)));
        assert_eq!(a, b, "verify JSON must be byte-identical across runs");
    }
}

/// A sema-valid program that declares 10^11 reals (800 GB) and touches one
/// element. The schedule explorer must pay for the element, not the
/// declaration, so the program verifies like any small safe program.
const HUGE_DECLARATION: &str = "\
program huge
global a: real[100000000000];
global x: real;
sub main() {
  a[5] = 1.0;
  if (rank() == 0) { send(x, 1, 7); } else { recv(x, 0, 7); }
  print(a[5]);
}
";

#[test]
fn huge_declaration_verifies_safe_without_allocating_it() {
    let r = verify_src(HUGE_DECLARATION, &cfg(8));
    assert_eq!(r.verdict, Verdict::Safe, "{:?}", r.deadlock);
    assert_eq!(
        r.crosscheck.outcome,
        Outcome::ConsistentSafe,
        "{:?}",
        r.crosscheck
    );
    assert!(r.crosscheck.baseline_ok);
    assert_eq!(r.crosscheck.completed, 8);
}
