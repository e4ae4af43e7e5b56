//! Seeded fuzz smoke test for the full front-end + graph pipeline.
//!
//! Runs a deterministic range of mutated inputs through
//! lexer → parser → sema → ICFG → MPI-ICFG, the verify passes and a
//! fault-free run, and asserts the robustness contract (no panic, no hang,
//! exit constants the run computes). Over the same seed range it runs the
//! structured edit mutants, whose demand answer at the context entry must
//! equal the full fixpoint's active set there. Case count and start seed
//! come from the environment so CI can run a wide sweep while local runs
//! stay fast:
//!
//! ```sh
//! FUZZ_CASES=500 cargo test -p mpi-dfa-suite --test fuzz_smoke
//! FUZZ_SEED=1234 FUZZ_CASES=1 cargo test -p mpi-dfa-suite --test fuzz_smoke
//! ```

use mpi_dfa_suite::fuzz::{run, run_edits, FuzzConfig};

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn config() -> FuzzConfig {
    FuzzConfig {
        cases: env_u64("FUZZ_CASES", 64) as usize,
        start_seed: env_u64("FUZZ_SEED", 0),
        ..FuzzConfig::default()
    }
}

#[test]
fn seeded_fuzz_run_upholds_the_no_panic_no_hang_contract() {
    let report = run(&config());
    eprintln!(
        "fuzz: {} cases, {} built, {} ran fault-free, {} exit constants checked, \
         slowest case {:?}",
        report.cases, report.built, report.ran, report.claims, report.max_case
    );
    assert!(
        report.failures.is_empty(),
        "fuzz contract violations (reproduce with FUZZ_SEED=<seed> FUZZ_CASES=1):\n{:#?}",
        report.failures
    );
    assert_eq!(
        report.built + report.rejected_frontend + report.rejected_graph,
        report.cases,
        "every case must be accounted for: {report:?}"
    );
}

#[test]
fn seeded_edit_mutants_answer_demands_as_the_full_fixpoint_does() {
    let report = run_edits(&config());
    eprintln!(
        "fuzz edits: {} cases, {} verified, {} rejected, {} skipped, \
         {} of {} regions solved, slowest case {:?}",
        report.cases,
        report.verified,
        report.rejected,
        report.skipped,
        report.regions_solved,
        report.regions_total,
        report.max_case
    );
    assert!(
        report.failures.is_empty(),
        "demand contract violations (reproduce with FUZZ_SEED=<seed> FUZZ_CASES=1):\n{:#?}",
        report.failures
    );
    assert_eq!(
        report.verified + report.rejected + report.skipped,
        report.cases,
        "every case must be accounted for: {report:?}"
    );
}
