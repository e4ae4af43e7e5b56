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
fn unknown_flags_are_rejected_naming_the_flag() {
    // A typo and the retired `--solver` both fail with exit code 1 and
    // name the flag, before anything runs: no report, no served socket.
    for (args, flag) in [
        (
            &[
                "activity",
                "mg",
                "--ind",
                "u",
                "--dep",
                "r",
                "--clone-level",
                "3",
            ][..],
            "--clone-level",
        ),
        (
            &[
                "activity", "figure1", "--ind", "x", "--dep", "f", "--solver", "region",
            ][..],
            "--solver",
        ),
        (
            &["verify", "figure1", "--solver", "round-robin"][..],
            "--solver",
        ),
        (&["batch", "-", "--solver", "region"][..], "--solver"),
        (
            &["serve", "--addr", "127.0.0.1:0", "--solver", "region"][..],
            "--solver",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_mpidfa"))
            .args(args)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown flag {flag}")),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
    }
    // Every flag a command documents is still read.
    let (stdout, stderr, ok) = mpidfa(&[
        "verify",
        "figure1",
        "--context",
        "main",
        "--clone",
        "0",
        "--matching",
        "consts",
        "--nprocs",
        "2",
        "--schedules",
        "1",
        "--seed",
        "3",
        "--max-steps",
        "100000",
        "--max-visits",
        "100000",
        "--json",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("\"verdict\""), "{stdout}");
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

#[test]
fn overflowing_match_arguments_are_not_constants() {
    // Folding `i64::MIN / -1` used to abort verify, and `MAX + 1` /
    // `MAX + 2` used to wrap to distinct constants, pruning a pair the
    // interpreter (which computes in f64) delivers. Overflow is "not a
    // constant": verify answers, and the syntactic graph keeps the pair.
    let dir = std::env::temp_dir().join("mpidfa-cli-overflow");
    std::fs::create_dir_all(&dir).unwrap();
    let div_src = "program div\n\
         global x: real;\n\
         sub main() {\n\
           if (rank() == 0) {\n\
             send(x, (0 - 9223372036854775807 - 1) / (0 - 1), 7);\n\
           } else {\n\
             recv(x, 0, 7);\n\
           }\n\
           print(x);\n\
         }\n";
    let div = dir.join("div.smpl");
    std::fs::write(&div, div_src).unwrap();
    let wrap = dir.join("wrap.smpl");
    std::fs::write(
        &wrap,
        "program wrap\n\
         global x: real;\n\
         global y: real;\n\
         sub main() {\n\
           if (rank() == 0) {\n\
             send(x, 1, 9223372036854775807 + 1);\n\
           } else {\n\
             recv(y, 0, 9223372036854775807 + 2);\n\
           }\n\
         }\n",
    )
    .unwrap();
    for file in [&div, &wrap] {
        let out = Command::new(env!("CARGO_BIN_EXE_mpidfa"))
            .args(["verify", file.to_str().unwrap()])
            .output()
            .expect("binary runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let code = out.status.code();
        assert!(
            matches!(code, Some(0) | Some(1)),
            "{file:?} exited {code:?}: {stdout}"
        );
        assert!(stdout.contains("verdict: "), "{stdout}");
    }
    let (dot, _, ok) = mpidfa(&["graph", wrap.to_str().unwrap(), "--matching", "syntactic"]);
    assert!(ok);
    assert_eq!(dot.matches("style=dashed").count(), 1, "{dot}");

    let request = format!(
        "{{\"id\":1,\"kind\":\"verify\",\"source\":\"{}\",\"schedules\":1}}\n",
        mpi_dfa::core::json::escape(div_src)
    );
    let requests = dir.join("verify.jsonl");
    std::fs::write(&requests, request).unwrap();
    let (batch, stderr, ok) = mpidfa(&["batch", requests.to_str().unwrap()]);
    assert!(ok, "{batch}{stderr}");
    assert!(batch.contains("\"ok\":true"), "{batch}");
}

#[test]
fn an_inexact_integer_quotient_is_not_a_constant() {
    // The interpreter divides in f64, so the tag `7 / 2 * 2` is 7 and rank
    // 1's `recv(y, 0, 7)` takes the message. Truncating the quotient folded
    // the tag to 6: no comm edge, a flagged verify and no active bytes.
    let dir = std::env::temp_dir().join("mpidfa-cli-division");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("div.smpl");
    std::fs::write(
        &path,
        "program div\n\
         global x: real;\n\
         global y: real;\n\
         sub main() {\n\
           if (rank() == 0) { send(x, 1, 7 / 2 * 2); } else { recv(y, 0, 7); }\n\
         }\n",
    )
    .unwrap();
    let file = path.to_str().unwrap();
    let (stdout, stderr, ok) = mpidfa(&["run", file, "--nprocs", "2"]);
    assert!(ok, "the message is delivered: {stdout}{stderr}");
    assert!(stdout.contains("0 sends, 1 recvs"), "{stdout}");
    for matching in ["syntactic", "consts"] {
        let (dot, _, ok) = mpidfa(&["graph", file, "--matching", matching]);
        assert!(ok);
        assert_eq!(dot.matches("style=dashed").count(), 1, "{matching}: {dot}");
    }
    let (stdout, stderr, ok) = mpidfa(&["verify", file]);
    assert!(ok, "{stdout}{stderr}");
    assert!(stdout.contains("verdict: SAFE"), "{stdout}");
    let (stdout, _, ok) = mpidfa(&["activity", file, "--ind", "x", "--dep", "y"]);
    assert!(ok);
    assert!(stdout.contains("active storage: 16 bytes"), "{stdout}");
}

#[test]
fn help_prints_the_usage_and_succeeds() {
    for arg in ["help", "--help", "-h"] {
        let (stdout, stderr, ok) = mpidfa(&[arg]);
        assert!(ok, "{arg}: {stderr}");
        assert!(stdout.starts_with("usage: mpidfa"), "{arg}: {stdout}");
    }
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

#[test]
fn verify_exits_zero_on_bundled_programs_and_one_on_the_deadlock_corpus() {
    let safe = ["figure1", "biostat", "sor", "cg", "lu", "mg", "sweep3d"].map(|p| (p, "8", 0));
    let flagged = [
        "deadlock-head-to-head",
        "deadlock-tag-mismatch",
        "deadlock-barrier-mismatch",
        "deadlock-orphan-recv",
        "deadlock-loop-starved",
    ]
    .map(|p| (p, "4", 1));
    for (prog, schedules, code) in safe.into_iter().chain(flagged) {
        let out = Command::new(env!("CARGO_BIN_EXE_mpidfa"))
            .args(["verify", prog, "--schedules", schedules])
            .output()
            .expect("binary runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        // A usage error also exits 1, so the verdict must be printed too.
        let verdict = if code == 0 {
            "-> consistent-safe\nverdict: SAFE"
        } else {
            "verdict: FLAGGED"
        };
        assert_eq!(out.status.code(), Some(code), "{prog}:\n{stdout}");
        assert!(stdout.contains(verdict), "{prog}:\n{stdout}");
    }
}

#[test]
fn batch_output_does_not_depend_on_the_pool_size() {
    // Five Table-1 rows, two repeats (answered from the cache) and one
    // analyze.
    let rows = ["Biostat", "SOR", "CG", "LU-1", "MG-1", "Biostat", "CG"];
    let mut requests: String = rows
        .iter()
        .enumerate()
        .map(|(i, row)| {
            format!(
                "{{\"id\":{},\"kind\":\"table1-row\",\"row\":\"{row}\"}}\n",
                i + 1
            )
        })
        .collect();
    requests.push_str(
        "{\"id\":99,\"kind\":\"analyze\",\"program\":\"figure1\",\"ind\":[\"x\"],\"dep\":[\"f\"]}\n",
    );
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("batch-pool-{}.jsonl", std::process::id()));
    std::fs::write(&path, requests).unwrap();
    let file = path.to_str().unwrap();
    let outputs: Vec<String> = ["1", "4", "8"]
        .iter()
        .map(|pool| {
            let (stdout, stderr, ok) = mpidfa(&["batch", file, "--pool", pool]);
            assert!(ok, "{stderr}");
            stdout
        })
        .collect();
    let _ = std::fs::remove_file(&path);
    let lines: Vec<&str> = outputs[0].lines().collect();
    assert_eq!(lines.len(), rows.len() + 1, "{}", outputs[0]);
    assert!(
        lines.iter().all(|l| l.contains("\"ok\":true")),
        "{}",
        outputs[0]
    );
    for repeat in &lines[5..7] {
        assert!(repeat.contains("\"cache\":\"hit\""), "{repeat}");
    }
    assert_eq!(outputs[0], outputs[1], "pool 1 and pool 4 differ");
    assert_eq!(outputs[0], outputs[2], "pool 1 and pool 8 differ");
}

#[test]
fn a_batch_verify_places_findings_at_its_own_source_lines() {
    // B is A with two statements inserted above `sub f`, whose body is
    // identical in both. A verify of B answered after a verify of A must
    // report B's own line numbers, exactly as a fresh `mpidfa verify`.
    let a = "program shifted\n\
             global x: real;\n\
             global y: real;\n\
             sub main() {\n  \
               x = 1.0;\n  \
               call f();\n\
             }\n\
             sub f() {\n  \
               send(x, 1 - rank(), 1);\n  \
               recv(y, 1 - rank(), 2);\n\
             }\n";
    let b = a.replace("x = 1.0;\n", "x = 1.0;\n  x = x + 1.0;\n  x = x * 2.0;\n");
    let dir = std::env::temp_dir().join(format!("mpidfa-cli-shift-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let prog_b = dir.join("b.smpl");
    std::fs::write(&prog_b, &b).unwrap();
    let (cli, stderr, _) = mpidfa(&["verify", prog_b.to_str().unwrap(), "--json"]);
    assert!(cli.contains("\"unmatched_sends\""), "{cli}{stderr}");
    assert!(cli.contains("11:3") && cli.contains("12:3"), "{cli}");

    let requests: String = [a, b.as_str()]
        .iter()
        .enumerate()
        .map(|(i, src)| {
            format!(
                "{{\"id\":{},\"kind\":\"verify\",\"source\":\"{}\"}}\n",
                i + 1,
                mpi_dfa::core::json::escape(src)
            )
        })
        .collect();
    let path = dir.join("a-then-b.jsonl");
    std::fs::write(&path, requests).unwrap();
    let (batch, stderr, ok) = mpidfa(&["batch", path.to_str().unwrap(), "--pool", "1"]);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(ok, "{batch}{stderr}");
    let answer_b = batch.lines().nth(1).expect("two answers");
    assert_eq!(
        answer_b.split_once(",\"result\":").expect("ok answer").1,
        format!("{}}}", cli.trim_end()),
        "B's verify answer depends on what the engine saw before it"
    );
}
