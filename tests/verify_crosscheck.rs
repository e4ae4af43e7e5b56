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
//! * **only a wildcard-source receive makes schedules differ**: the
//!   cross-check decides a program without one by its fault-free baseline
//!   alone. The argument is asserted here, not assumed: every schedule the
//!   cross-check would draw is run anyway and each rank's whole result is
//!   compared with the baseline's, and a wildcard program is shown to be
//!   explored and to differ between schedules.
//! * **reports do not move**: `mpidfa verify --json` is pinned for every
//!   input of the benchmark and three generated wildcard programs against
//!   `tests/golden/verify.txt`, captured from runs that explored every
//!   schedule.
//!
//! Checked over the Table-1 benchmark programs, the seeded corpus, and a
//! batch of deterministic generated programs.

use mpi_dfa::lang::fault::FaultPlan;
use mpi_dfa::lang::interp::{self, has_wildcard_source, InterpConfig, ProcessResult};
use mpi_dfa::lang::Program;
use mpi_dfa::prelude::*;
use mpi_dfa::suite::gen::{generate, GenConfig};
use mpi_dfa::suite::programs;
use mpi_dfa::verify::{self, corpus, Outcome, Verdict, VerifyConfig};
use std::fmt::Write as _;
use std::process::Command;

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

/// Receives name their source but take any tag, interleaved with a
/// collective on the same communicator.
const ANY_TAG: &str = "\
program anytag
global x: real;
global y: real;
global s: real;
sub main() {
  var k: int;
  for k = 1, 3 {
    x = rank() * 10.0 + k;
    send(x, 1 - rank(), k);
    recv(y, 1 - rank(), ANY);
    print(y);
  }
  allreduce(SUM, y, s);
  print(s);
}
";

/// Ranks 1–3 each send their rank to rank 0, which receives from `ANY`.
const THREE_SENDERS: &str = "\
program three
sub main() {
  var y: real;
  var k: int;
  if (rank() > 0) { y = rank() * 1.0; send(y, 0, 5); }
  else { for k = 1, 3 { recv(y, ANY, 5); print(y); } }
}
";

/// Globals are captured only below this many declared elements: a capture
/// flattens every array, and LU's 24M and MG's 81M declared elements
/// would cost hundreds of megabytes per rank and run. Sweep3d's 3M fit.
const CAPTURE_LIMIT: u64 = 4_000_000;

/// One rank's result with every value as its bits, so NaN compares too:
/// steps, sends, recvs, printed values and final globals.
type RankBits = (u64, u64, u64, Vec<u64>, Vec<(String, Vec<u64>)>);

/// One run of `program` as the cross-check makes it: each rank's whole
/// result, or the error text.
fn interp_run(
    program: &Program,
    vc: &VerifyConfig,
    plan: Option<FaultPlan>,
) -> Result<Vec<RankBits>, String> {
    let declared: u64 = program.globals.iter().map(|g| g.ty.elem_count()).sum();
    let cfg = InterpConfig {
        nprocs: vc.nprocs,
        entry: vc.entry.clone(),
        limits: vc.limits.clone(),
        init_globals: Vec::new(),
        capture_globals: declared < CAPTURE_LIMIT,
        fault_plan: plan,
    };
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let ranks = interp::run(program, &cfg).map_err(|e| e.to_string())?;
    Ok(ranks
        .iter()
        .map(
            |ProcessResult {
                 printed,
                 steps,
                 sends,
                 recvs,
                 final_globals,
             }| {
                let globals = final_globals
                    .iter()
                    .map(|(name, v)| (name.clone(), bits(v)))
                    .collect();
                (*steps, *sends, *recvs, bits(printed), globals)
            },
        )
        .collect())
}

/// The plan of schedule `i`, exactly as the cross-check draws it.
fn schedule(vc: &VerifyConfig, i: u64) -> FaultPlan {
    FaultPlan::adversarial(0).for_schedule(vc.base_seed, i)
}

/// The first `n` seeds whose `scaled(factor)` program has no wildcard
/// source.
fn wildcard_free_generated(factor: usize, n: usize) -> Vec<(String, String)> {
    let found: Vec<(String, String)> = (0..256u64)
        .map(|seed| (seed, generate(seed, &GenConfig::scaled(factor))))
        .filter(|(_, src)| !has_wildcard_source(&compile(src).unwrap().program))
        .take(n)
        .map(|(seed, src)| (format!("gen seed {seed} factor {factor}"), src))
        .collect();
    assert_eq!(found.len(), n, "too few wildcard-free generated programs");
    found
}

#[test]
fn without_a_wildcard_source_every_schedule_ends_as_the_baseline() {
    let named = programs::ALL.iter().chain(corpus::ALL.iter());
    let mut inputs: Vec<(String, String)> = named
        .map(|&(name, src)| (name.to_string(), src.to_string()))
        .collect();
    inputs.extend(wildcard_free_generated(1, 3));
    inputs.extend(wildcard_free_generated(2, 3));
    inputs.push(("any-tag".to_string(), ANY_TAG.to_string()));

    let (mut completed, mut failed) = (0, 0);
    for (name, src) in &inputs {
        let program = compile(src).unwrap().program;
        assert!(!has_wildcard_source(&program), "{name}");
        for base_seed in [VerifyConfig::default().base_seed, 7] {
            let vc = VerifyConfig {
                base_seed,
                ..VerifyConfig::default()
            };
            let baseline = interp_run(&program, &vc, None);
            for i in 0..8 {
                assert!(
                    interp_run(&program, &vc, Some(schedule(&vc, i))) == baseline,
                    "{name}: schedule {i} of base seed {base_seed} differs from the baseline"
                );
            }
            match baseline {
                Ok(_) => completed += 1,
                Err(_) => failed += 1,
            }
        }
    }
    // Both ways a run can end are covered.
    assert!(completed > 0 && failed > 0, "{completed} {failed}");
}

#[test]
fn a_wildcard_source_is_explored_and_its_schedules_differ() {
    let program = compile(THREE_SENDERS).unwrap().program;
    assert!(has_wildcard_source(&program));
    let vc = VerifyConfig {
        nprocs: 4,
        ..VerifyConfig::default()
    };
    let r = verify_src(THREE_SENDERS, &vc);
    assert_eq!(r.crosscheck.runs, vc.schedules + 1, "{:?}", r.crosscheck);
    assert_eq!(r.crosscheck.completed, vc.schedules, "{:?}", r.crosscheck);

    let baseline = interp_run(&program, &vc, None);
    let differs = (0..u64::from(vc.schedules))
        .filter(|&i| interp_run(&program, &vc, Some(schedule(&vc, i))) != baseline)
        .count();
    assert!(differs > 0, "no schedule changed the arrival order");
}

/// `generate(2, scaled(1))` deadlocks in its fault-free run: a receive
/// in a loop outlasts a send that runs once. At clone level 0 callees are
/// shared, and loops once taken over call and return edges closed cycles
/// no run takes (out of a shared callee to another call site's return
/// point), so the one-shot send looked looped and the static passes
/// called the program safe against a deadlocking baseline.
#[test]
fn shared_callees_do_not_hide_a_starved_receive() {
    let src = generate(2, &GenConfig::scaled(1));
    let vc = cfg(8);
    for clone in [0, 1] {
        let ir = ProgramIr::from_source(&src).unwrap();
        let g = build_mpi_icfg(ir, &vc.entry, clone, Matching::ReachingConstants).unwrap();
        let r = verify::verify(&g, &vc, &Budget::unlimited()).unwrap();
        assert_eq!(
            (r.verdict, r.crosscheck.outcome),
            (Verdict::Flagged, Outcome::Confirmed),
            "clone {clone}: {:?} {:?}",
            r.matchset,
            r.crosscheck
        );
    }
}

/// Inputs of the golden reports: the `verify` benchmark's twelve programs
/// by name, and three generated programs that receive from `ANY`.
const GOLDEN_NAMED: [&str; 12] = [
    "figure1",
    "biostat",
    "sor",
    "cg",
    "lu",
    "mg",
    "sweep3d",
    "deadlock-head-to-head",
    "deadlock-tag-mismatch",
    "deadlock-barrier-mismatch",
    "deadlock-orphan-recv",
    "deadlock-loop-starved",
];
const GOLDEN_GENERATED: [u64; 3] = [0, 3, 20];

#[test]
fn verify_json_matches_the_golden_reports() {
    let dir = std::env::temp_dir().join("mpidfa-verify-golden");
    std::fs::create_dir_all(&dir).unwrap();
    let mut inputs: Vec<(String, String)> = GOLDEN_NAMED
        .iter()
        .map(|name| (name.to_string(), name.to_string()))
        .collect();
    for seed in GOLDEN_GENERATED {
        let src = generate(seed, &GenConfig::scaled(1));
        assert!(has_wildcard_source(&compile(&src).unwrap().program));
        let path = dir.join(format!("gen-{seed}.smpl"));
        std::fs::write(&path, src).unwrap();
        inputs.push((format!("gen-{seed}"), path.to_str().unwrap().to_string()));
    }

    let mut got = String::new();
    for (label, arg) in &inputs {
        for flags in [&[][..], &["--schedules", "3", "--seed", "7"]] {
            let out = Command::new(env!("CARGO_BIN_EXE_mpidfa"))
                .args(["verify", arg, "--json"])
                .args(flags)
                .output()
                .expect("binary runs");
            let head = std::iter::once(label.as_str())
                .chain(flags.iter().copied())
                .collect::<Vec<_>>()
                .join(" ");
            writeln!(got, "== {head} (exit {})", out.status.code().unwrap_or(-1)).unwrap();
            got.push_str(&String::from_utf8_lossy(&out.stdout));
        }
    }
    let want = include_str!("golden/verify.txt");
    for (g, w) in got.lines().zip(want.lines()) {
        assert_eq!(g, w, "verify report differs from tests/golden/verify.txt");
    }
    assert_eq!(
        got, want,
        "verify reports differ from tests/golden/verify.txt"
    );
}
