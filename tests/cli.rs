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
fn nan_constant_answers_at_the_precise_tier() {
    // inf - inf folds to a NaN constant. The constants bootstrap must treat
    // it as equal to itself, converge, and leave the answer at T0.
    let dir = std::env::temp_dir().join("mpidfa-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let nan = dir.join("nan.smpl");
    std::fs::write(
        &nan,
        "program nan\n\
         global x: real;\n\
         global y: real;\n\
         sub main() {\n\
           x = exp(1000.0) - exp(1000.0);\n\
           y = x + 1.0;\n\
           print(y);\n\
         }\n",
    )
    .unwrap();
    let (stdout, stderr, ok) = mpidfa(&[
        "activity",
        nan.to_str().unwrap(),
        "--context",
        "main",
        "--ind",
        "x",
        "--dep",
        "y",
    ]);
    assert!(ok, "{stdout}{stderr}");
    assert!(stdout.contains("tier T0"), "{stdout}");
    assert!(!stdout.contains("degraded:"), "{stdout}");
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
fn retired_solver_spellings_are_rejected_naming_both_strategies() {
    let args = ["activity", "figure1", "--ind", "x", "--dep", "f"];
    for old in ["worklist", "region-parallel", "region-parallel:4"] {
        let (_, stderr, ok) = mpidfa(&[&args[..], &["--solver", old]].concat());
        assert!(
            !ok && stderr.contains("round-robin|region"),
            "{old}: {stderr}"
        );
        let out = Command::new(env!("CARGO_BIN_EXE_mpidfa"))
            .args(args)
            .env("MPIDFA_SOLVER", old)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            !out.status.success()
                && stderr.contains("MPIDFA_SOLVER")
                && stderr.contains("round-robin|region"),
            "{old}: {stderr}"
        );
    }
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

/// A sema-valid chain of `depth` nested calls: `main` calls `s0`, `s0`
/// calls `s1`, and so on.
fn call_chain(depth: usize) -> String {
    let mut src = String::from("program deep\nglobal x: real;\n");
    for i in 0..depth - 1 {
        src.push_str(&format!("sub s{i}() {{ call s{}(); }}\n", i + 1));
    }
    src.push_str(&format!("sub s{}() {{ x = 1.0; }}\n", depth - 1));
    src.push_str("sub main() { call s0(); }\n");
    src
}

#[test]
fn deep_call_chains_fail_the_rank_instead_of_aborting() {
    use mpi_dfa::lang::interp::MAX_CALL_DEPTH;
    let dir = std::env::temp_dir().join("mpidfa-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let write = |name: &str, depth: usize| {
        let path = dir.join(name);
        std::fs::write(&path, call_chain(depth)).unwrap();
        path.to_str().unwrap().to_string()
    };
    // A chain exactly at the bound still runs on a rank thread's stack.
    let at_bound = write("chain-at-bound.smpl", MAX_CALL_DEPTH);
    let (stdout, stderr, ok) = mpidfa(&["run", &at_bound]);
    assert!(ok, "{stdout}{stderr}");

    let deep = write("chain-20000.smpl", 20_000);
    let want = format!("call depth exceeds {MAX_CALL_DEPTH}");
    let (stdout, stderr, ok) = mpidfa(&["run", &deep]);
    assert!(!ok && stderr.contains(&want), "{stdout}{stderr}");
    // Nothing to deadlock on, so the static verdict stands; the cross-check
    // names the failed baseline run instead of aborting the process.
    let (stdout, stderr, ok) = mpidfa(&["verify", &deep]);
    assert!(ok, "{stdout}{stderr}");
    assert!(stdout.contains(&want), "{stdout}");
}

#[test]
fn chaotic_mode_keeps_explicit_zero_probabilities() {
    // `drop=0,dup=0` leaves nothing illegal in the plan, so the schedules
    // are adversarial ones.
    let (stdout, stderr, ok) = mpidfa(&[
        "run",
        "figure1",
        "--nprocs",
        "2",
        "--faults",
        "seed=1,mode=chaotic,drop=0,dup=0",
        "--schedules",
        "2",
    ]);
    assert!(ok, "{stdout}{stderr}");
    assert!(
        stdout.contains("exploring 2 adversarial schedules"),
        "{stdout}"
    );
}

#[test]
fn verify_answers_do_not_depend_on_how_long_a_sender_computes() {
    // Rank 0 computes for well over a second in a debug build before its
    // only send, while rank 1 waits in `recv`. The CLI and the service verb
    // must both see the run complete and agree byte for byte.
    let src = "program slow\n\
               global a: real[1000000];\n\
               global x: real;\n\
               sub main() {\n\
                 var i: int;\n\
                 if (rank() == 0) { for i = 1, 60 { a = a + 1.0; } x = a[1]; send(x, 1, 7); }\n\
                 else { recv(x, 0, 7); }\n\
               }\n";
    let dir = std::env::temp_dir().join("mpidfa-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let prog = dir.join("slow-sender.smpl");
    std::fs::write(&prog, src).unwrap();
    let (cli, stderr, ok) = mpidfa(&[
        "verify",
        prog.to_str().unwrap(),
        "--json",
        "--schedules",
        "1",
    ]);
    assert!(ok, "{cli}{stderr}");
    assert!(cli.contains("\"outcome\":\"consistent-safe\""), "{cli}");

    let request = format!(
        "{{\"id\":1,\"kind\":\"verify\",\"source\":\"{}\",\"schedules\":1}}\n",
        src.replace('\n', "\\n")
    );
    let requests = dir.join("slow-sender.jsonl");
    std::fs::write(&requests, request).unwrap();
    let (batch, stderr, ok) = mpidfa(&["batch", requests.to_str().unwrap()]);
    assert!(ok, "{batch}{stderr}");
    assert!(
        batch
            .trim_end()
            .ends_with(&format!(",\"result\":{}}}", cli.trim_end())),
        "the service answer differs from the CLI's:\n{batch}\n{cli}"
    );
}
