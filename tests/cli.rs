//! Smoke tests for the `mpidfa` command-line tool (the binary a downstream
//! user runs on their own SMPL programs).

use std::process::Command;

fn mpidfa(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_mpidfa"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn activity_on_bundled_figure1() {
    let (stdout, _, ok) = mpidfa(&["activity", "figure1", "--ind", "x", "--dep", "f"]);
    assert!(ok);
    assert!(stdout.contains("active storage: 32 bytes"), "{stdout}");
    assert!(stdout.contains("MPI-ICFG"));
}

#[test]
fn activity_modes_differ() {
    let (mpi, _, _) = mpidfa(&["activity", "figure1", "--ind", "x", "--dep", "f"]);
    let (naive, _, _) = mpidfa(&[
        "activity", "figure1", "--ind", "x", "--dep", "f", "--mode", "naive",
    ]);
    assert!(mpi.contains("32 bytes"));
    assert!(naive.contains("active storage: 0 bytes"), "{naive}");
}

#[test]
fn slice_with_and_without_comm() {
    let (with, _, _) = mpidfa(&["slice", "figure1", "--stmt", "0"]);
    let (without, _, _) = mpidfa(&["slice", "figure1", "--stmt", "0", "--no-comm"]);
    assert!(with.contains("[0, 4, 5, 6, 7, 8, 9, 10]"), "{with}");
    assert!(without.contains("[0, 4, 5, 6]"), "{without}");
}

#[test]
fn run_simulates_processes() {
    let (stdout, _, ok) = mpidfa(&["run", "figure1", "--nprocs", "2"]);
    assert!(ok);
    assert!(stdout.contains("rank 0: printed [9.0]"), "{stdout}");
}

#[test]
fn graph_emits_dot() {
    let (stdout, _, ok) = mpidfa(&["graph", "biostat", "--context", "lglik3"]);
    assert!(ok);
    assert!(stdout.starts_with("digraph"));
    assert!(stdout.contains("bcast(dmat)"));
}

#[test]
fn taint_lists_untrusted() {
    // Seeding `x` in figure1 shows sanitization: `x = 0` overwrites the
    // seed before anything flows, so nothing is untrusted.
    let (clean, _, ok) = mpidfa(&["taint", "figure1", "--source", "x"]);
    assert!(ok);
    assert!(clean.contains("untrusted: x"), "the seed itself: {clean}");
    assert!(
        !clean.contains("untrusted: y"),
        "sanitized before the send: {clean}"
    );
    assert!(!clean.contains("untrusted: f"), "{clean}");
    // With external reads as sources, biostat's broadcast input spreads.
    let (stdout, _, ok) = mpidfa(&["taint", "biostat", "--context", "lglik3", "--reads-tainted"]);
    assert!(ok);
    assert!(stdout.contains("untrusted: dmat"), "{stdout}");
    assert!(stdout.contains("untrusted: xlogl"), "{stdout}");
}

#[test]
fn file_input_and_errors() {
    let dir = std::env::temp_dir().join("mpidfa-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let good = dir.join("ok.smpl");
    std::fs::write(
        &good,
        "program t global a: int; sub main() { a = mod(7, 4); }",
    )
    .unwrap();
    let (stdout, _, ok) = mpidfa(&["bitwidth", good.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.contains("a"), "{stdout}");

    let bad = dir.join("bad.smpl");
    std::fs::write(&bad, "program t sub main() { q = ; }").unwrap();
    let (_, stderr, ok) = mpidfa(&["constants", bad.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("parse error"), "{stderr}");

    let (_, stderr, ok) = mpidfa(&["constants", "/nonexistent/x.smpl"]);
    assert!(!ok);
    assert!(!stderr.is_empty());
}

#[test]
fn unknown_command_fails_with_usage() {
    let (_, stderr, ok) = mpidfa(&["frobnicate", "figure1"]);
    assert!(!ok);
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn missing_required_flags_fail() {
    let (_, stderr, ok) = mpidfa(&["activity", "figure1"]);
    assert!(!ok);
    assert!(stderr.contains("--ind"), "{stderr}");
    let (_, stderr, ok) = mpidfa(&["slice", "figure1"]);
    assert!(!ok);
    assert!(stderr.contains("--stmt"), "{stderr}");
}

#[test]
fn verify_survives_a_huge_declaration() {
    // 10^11 declared reals (800 GB), one element touched: the cross-check
    // runs must cost the element, not abort on the declaration.
    let dir = std::env::temp_dir().join("mpidfa-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let huge = dir.join("huge.smpl");
    std::fs::write(
        &huge,
        "program huge\n\
         global a: real[100000000000];\n\
         global x: real;\n\
         sub main() {\n\
           a[5] = 1.0;\n\
           if (rank() == 0) { send(x, 1, 7); } else { recv(x, 0, 7); }\n\
           print(a[5]);\n\
         }\n",
    )
    .unwrap();
    let (stdout, stderr, ok) = mpidfa(&["verify", huge.to_str().unwrap()]);
    assert!(ok, "verify must exit 0 (safe): {stdout}{stderr}");
    assert!(stdout.contains("consistent-safe"), "{stdout}");
}
