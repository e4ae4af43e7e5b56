//! The interpreter's observable behaviour, pinned against
//! `tests/golden/interp.txt`.
//!
//! Every bundled Table-1 program and every deadlock-corpus program runs at
//! 1–4 processes, fault-free and under two adversarial schedules. None of
//! them receives from `ANY`, so each run is deterministic. A set of
//! parse-only programs (no semantic check, so duplicate names are legal)
//! pins the by-name scoping rules, the parameter-passing rules,
//! whole-array semantics, `read`, loop variables and the text of each
//! runtime failure.
//!
//! Per rank the golden records the bit patterns of `printed`, the `steps`,
//! `sends` and `recvs` counters, and a digest of `final_globals`. A failed
//! run records the full `RuntimeError` text instead.

use mpi_dfa::lang::fault::FaultPlan;
use mpi_dfa::lang::interp::{run, InterpConfig, ProcessResult, RuntimeLimits};
use mpi_dfa::lang::parser::parse;
use mpi_dfa::lang::Program;
use mpi_dfa::suite::programs;
use mpi_dfa::verify::corpus;
use std::fmt::Write as _;

/// Globals are captured only below this many elements in total, so the
/// paper-sized LU arrays do not dominate the test's run time.
const CAPTURE_LIMIT: u64 = 3_000_000;

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn render_values(values: &[f64]) -> String {
    if values.len() <= 8 {
        let bits: Vec<String> = values
            .iter()
            .map(|v| format!("{:016x}", v.to_bits()))
            .collect();
        format!("[{}]", bits.join(","))
    } else {
        let mut h = FNV_OFFSET;
        for v in values {
            fnv(&mut h, &v.to_bits().to_le_bytes());
        }
        format!("{}#{h:016x}", values.len())
    }
}

fn render_rank(out: &mut String, rank: usize, r: &ProcessResult, captured: bool) {
    let globals = if captured {
        let mut h = FNV_OFFSET;
        for (name, values) in &r.final_globals {
            fnv(&mut h, name.as_bytes());
            fnv(&mut h, &(values.len() as u64).to_le_bytes());
            for v in values {
                fnv(&mut h, &v.to_bits().to_le_bytes());
            }
        }
        format!("{}#{h:016x}", r.final_globals.len())
    } else {
        "off".to_string()
    };
    writeln!(
        out,
        "  rank {rank}: steps={} sends={} recvs={} printed={} globals={globals}",
        r.steps,
        r.sends,
        r.recvs,
        render_values(&r.printed)
    )
    .unwrap();
}

fn render_run(out: &mut String, label: &str, program: &Program, cfg: &InterpConfig) {
    writeln!(out, "{label}").unwrap();
    match run(program, cfg) {
        Ok(results) => {
            for (rank, r) in results.iter().enumerate() {
                render_rank(out, rank, r, cfg.capture_globals);
            }
        }
        Err(e) => writeln!(out, "  error: {}", e.to_string().replace('\n', "\n  | ")).unwrap(),
    }
}

fn render_programs() -> String {
    let mut out = String::new();
    let named = programs::ALL.iter().chain(corpus::ALL.iter());
    for (name, src) in named {
        let program = parse(src).expect("bundled programs parse");
        let total: u64 = program.globals.iter().map(|g| g.ty.elem_count()).sum();
        for nprocs in 1..=4 {
            for (plan_name, plan) in [
                ("none", None),
                ("adv7", Some(FaultPlan::adversarial(7))),
                ("adv99", Some(FaultPlan::adversarial(99))),
            ] {
                let cfg = InterpConfig {
                    nprocs,
                    limits: RuntimeLimits::default(),
                    capture_globals: total < CAPTURE_LIMIT,
                    fault_plan: plan,
                    ..InterpConfig::default()
                };
                render_run(
                    &mut out,
                    &format!("{name} nprocs={nprocs} plan={plan_name}"),
                    &program,
                    &cfg,
                );
            }
        }
    }
    out
}

/// Parse-only cases: `(name, nprocs, source)`.
const CASES: &[(&str, usize, &str)] = &[
    (
        "local-shadows-global",
        1,
        "program t global x: real;\n\
         sub show() { print(x); }\n\
         sub main() { x = 1.0; print(x); var x: real = x + 1.0; print(x);\n\
           x = 5.0; print(x); call show(); }",
    ),
    (
        "local-bound-across-iterations",
        1,
        "program t global v: real;\n\
         sub main() { var i: int; v = 7.0;\n\
           for i = 1, 3 { print(v); var v: real = v + i * 10.0; print(v); }\n\
           print(v); }",
    ),
    (
        "local-in-untaken-branch",
        2,
        "program t sub main() { if (rank() == 0) { var z: real = 3.0; } print(z); }",
    ),
    (
        "duplicate-params",
        1,
        "program t\n\
         sub f(a: real, a: real) { print(a); a = 9.0; }\n\
         sub main() { var x: real = 1.0; var y: real = 2.0; call f(x, y); print(x); print(y); }",
    ),
    (
        "duplicate-locals",
        1,
        "program t sub main() { var x: real = 1.0; print(x); var x: real[3] = 2.0;\n\
           x[2] = 5.0; print(x); var x: int; print(x); }",
    ),
    (
        "duplicate-globals",
        1,
        "program t global g: real; global h: real; global g: real[2];\n\
         sub main() { h = g[2]; g[1] = 3.0; print(g); }",
    ),
    (
        "duplicate-subs",
        1,
        "program t sub f() { print(1.0); } sub f() { print(2.0); }\n\
         sub main() { call f(); }",
    ),
    (
        "by-reference-and-by-value",
        1,
        "program t\n\
         sub inc(v: real) { v = v + 1.0; }\n\
         sub main() { var x: real = 1.0; var a: real[2] = 5.0;\n\
           call inc(x); call inc(x + 0.0); call inc(a[1]); call inc(a);\n\
           print(x); print(a); }",
    ),
    (
        "array-params",
        1,
        "program t\n\
         sub f(v: real[3]) { print(v); v[1] = 4.0; print(v); }\n\
         sub g(v: real) { print(v); }\n\
         sub main() { var a: real[5]; var s: real = 6.0; read(a);\n\
           call f(2.0); call f(a); call f(a * 2.0); print(a); call g(a + 1.0); call g(s); }",
    ),
    (
        "array-value-into-short-param",
        1,
        "program t\n\
         sub f(v: real[3]) { v = 1.0; print(v); print(v[3]); }\n\
         sub main() { var a: real[5]; call f(a + 0.5); }",
    ),
    (
        "array-value-into-scalar-param",
        1,
        "program t\n\
         sub g(v: real) { print(v); v = v * 2.0; print(v); }\n\
         sub main() { var a: real[2] = 3.0; call g(a - 1.0); }",
    ),
    (
        "whole-array-fill-copy-elementwise",
        1,
        "program t global a: real[4]; global b: real[4]; global c: real[4];\n\
         sub main() { a = 2.0; a[3] = 7.0; b = a; c = a * b + 1.0; print(c);\n\
           c = -c; print(c); c = 10.0 - c / a; print(c); a = 0.5; print(a + b); }",
    ),
    (
        "whole-array-comparisons",
        1,
        "program t sub main() { var a: real[3]; var b: real[3]; read(a); b = a;\n\
           b[2] = 0.0; print(a == b); print(a > 1.0); print(a && b); print(0.0 || b); }",
    ),
    (
        "read-whole-element-scalar",
        2,
        "program t global m: real[3, 2]; global s: real; global k: int;\n\
         sub main() { read(m); read(m[2, 2]); read(s); read(k); print(m); print(s); print(k);\n\
           read(m[1, 1]); m[3, 1] = 0.0; print(m); }",
    ),
    (
        "read-large-array-ramp",
        1,
        "program t global r: real[500];\n\
         sub main() { read(r); print(r[1]); print(r[97]); print(r[98]); print(r[500]);\n\
           r[200] = 0.0; print(r[199]); print(r[200]); print(r[201]); }",
    ),
    (
        "loop-variable-writes",
        1,
        "program t global g: real;\n\
         sub main() { var i: int; var j: int;\n\
           for i = 1, 10 { print(i); i = i + 2.0; }\n\
           for g = 3, 1, 0 - 1 { print(g); }\n\
           for j = 1, 2 { for j = 5, 6 { print(j); } }\n\
           print(i); print(g); print(j); }",
    ),
    (
        "loop-over-array-variable",
        1,
        "program t sub main() { var a: real[3] = 1.0; for a = 1, 2 { print(a); } print(a); }",
    ),
    (
        "collectives-on-arrays",
        3,
        "program t global a: real[3]; global r: real[3]; global s: real;\n\
         sub main() { a = rank() * 1.0 + 1.0; a[2] = 0.0 - rank();\n\
           reduce(PROD, a, r, 1); print(r); allreduce(MIN, a, r); print(r);\n\
           bcast(a, 2); print(a); allreduce(SUM, a[3], s); print(s); barrier(); }",
    ),
    (
        "p2p-elements-and-whole",
        2,
        "program t global a: real[4]; global b: real[4];\n\
         sub main() { read(a);\n\
           if (rank() == 0) { send(a, 1, 1); send(a[3], 1, 2); isend(a[4], 1, 3, 0); }\n\
           else { recv(b, 0, 1); recv(a[1], 0, 2); irecv(a[2], 0, 3, 0); wait(); }\n\
           print(a); print(b); }",
    ),
    (
        "intrinsics-and-division",
        1,
        "program t sub main() { var x: real = 0.0 - 2.5;\n\
           print(sqrt(x)); print(exp(100.0)); print(log(0.0)); print(sin(x)); print(cos(x));\n\
           print(abs(x)); print(max(x, 1.0)); print(min(x, 1.0)); print(mod(0 - 7, 3));\n\
           print(1.0 / 0.0); print(!x); print(!0.0); }",
    ),
    (
        "init-globals-fill",
        1,
        "program t global x: real; global arr: real[3]; global n: int;\n\
         sub main() { print(x); print(arr); arr[2] = x + 1.0; print(arr); print(n); }",
    ),
    // ---- one case per runtime failure message ----
    ("err-entry-missing", 1, "program t sub other() { }"),
    ("err-entry-params", 1, "program t sub main(x: real) { }"),
    (
        "err-undefined-variable",
        1,
        "program t sub main() { print(y); var y: real; }",
    ),
    (
        "err-budget",
        1,
        "program t sub main() { var i: int; i = 0; while (true) { i = i + 1; } }",
    ),
    (
        "err-array-condition-if",
        1,
        "program t sub main() { var a: real[2]; if (a) { print(1.0); } }",
    ),
    (
        "err-array-condition-while",
        1,
        "program t sub main() { var a: real[2]; while (a) { print(1.0); } }",
    ),
    (
        "err-array-loop-bound",
        1,
        "program t sub main() { var a: real[2]; var i: int; for i = 1, a { } }",
    ),
    (
        "err-array-step",
        1,
        "program t sub main() { var a: real[2]; var i: int; for i = 1, 3, a { } }",
    ),
    (
        "err-zero-step",
        1,
        "program t sub main() { var i: int; for i = 1, 3, 0 { } }",
    ),
    (
        "err-loop-variable-undefined",
        1,
        "program t sub main() { for k = 1, 3 { } }",
    ),
    (
        "err-unknown-sub",
        1,
        "program t sub main() { call nope(); }",
    ),
    (
        "err-arity",
        1,
        "program t sub f(a: real) { } sub main() { call f(1.0, 2.0); }",
    ),
    (
        "err-invalid-rank",
        2,
        "program t sub main() { var x: real; send(x, 5, 1); }",
    ),
    (
        "err-negative-rank",
        1,
        "program t sub main() { var x: real; send(x, 0 - 1, 1); }",
    ),
    (
        "err-expected-scalar",
        1,
        "program t sub main() { var x: real; var a: real[2]; send(x, a, 1); }",
    ),
    (
        "err-reduce-length",
        2,
        "program t global a: real[2]; global b: real[3]; global r: real[3];\n\
         sub main() { if (rank() == 0) { reduce(SUM, a, r, 0); } else { reduce(SUM, b, r, 0); } }",
    ),
    (
        "err-allreduce-length",
        2,
        "program t global a: real[2]; global b: real[3]; global r: real[3];\n\
         sub main() { if (rank() == 0) { allreduce(SUM, a, r); } else { allreduce(SUM, b, r); } }",
    ),
    (
        "err-index-scalar-load",
        1,
        "program t sub main() { var s: real; print(s[1]); }",
    ),
    (
        "err-index-scalar-store",
        1,
        "program t sub main() { var s: real; s[1] = 2.0; }",
    ),
    (
        "err-subscript-count",
        1,
        "program t sub main() { var a: real[2]; print(a[1, 1]); }",
    ),
    (
        "err-out-of-bounds-low",
        1,
        "program t sub main() { var a: real[2, 3]; a[1, 0] = 1.0; }",
    ),
    (
        "err-out-of-bounds-high",
        1,
        "program t sub main() { var a: real[2, 3]; print(a[3, 9]); }",
    ),
    (
        "err-out-of-bounds-payload",
        2,
        "program t sub main() { var a: real[2]; if (rank() == 0) { send(a[3], 1, 1); } else { recv(a[1], 0, 1); } }",
    ),
    (
        "err-count-before-bounds",
        1,
        "program t sub main() { var a: real[2]; print(a[5, 1]); }",
    ),
    (
        "err-short-param-bounds",
        1,
        "program t sub f(v: real[3]) { print(v[4]); } sub main() { var a: real[5]; call f(a + 0.5); }",
    ),
    (
        "err-scalar-param-index",
        1,
        "program t sub g(v: real) { print(v[1]); } sub main() { var a: real[2]; call g(a - 1.0); }",
    ),
    (
        "err-aliased-scalar-index",
        1,
        "program t sub f(v: real[3]) { v[1] = 4.0; } sub main() { var s: real; call f(s); }",
    ),
    (
        "err-loop-made-scalar",
        1,
        "program t sub main() { var a: real[3]; for a = 1, 2 { } a[1] = 2.0; }",
    ),
    (
        "err-array-to-scalar",
        1,
        "program t sub main() { var s: real; var a: real[2]; s = a; }",
    ),
    (
        "err-array-length",
        1,
        "program t sub main() { var a: real[2]; var b: real[3]; a = b; }",
    ),
    (
        "err-array-to-element",
        1,
        "program t sub main() { var a: real[2]; var b: real[2]; a[9] = b; }",
    ),
    (
        "err-any-value",
        1,
        "program t sub main() { var x: real; x = ANY; }",
    ),
    (
        "err-not-array",
        1,
        "program t sub main() { var a: real[2]; print(!a); }",
    ),
    (
        "err-intrinsic-array",
        1,
        "program t sub main() { var a: real[2]; print(sqrt(a)); }",
    ),
    (
        "err-mod-zero",
        1,
        "program t sub main() { print(mod(3, 0)); }",
    ),
    (
        "err-elementwise-lengths",
        1,
        "program t sub main() { var a: real[2]; var b: real[3]; print(a + b); }",
    ),
    (
        "err-index-before-count",
        1,
        "program t sub main() { var a: real[2]; print(a[5, mod(1, 0)]); }",
    ),
];

fn render_cases() -> String {
    let mut out = String::new();
    for (name, nprocs, src) in CASES {
        let program = parse(src).unwrap_or_else(|e| panic!("{name}: {e:?}"));
        let cfg = InterpConfig {
            nprocs: *nprocs,
            limits: RuntimeLimits { max_steps: 10_000 },
            init_globals: vec![("x".to_string(), 1.5), ("arr".to_string(), 2.25)],
            capture_globals: true,
            ..InterpConfig::default()
        };
        render_run(
            &mut out,
            &format!("case {name} nprocs={nprocs}"),
            &program,
            &cfg,
        );
    }
    out
}

fn render() -> String {
    let mut out = render_programs();
    out.push_str(&render_cases());
    out
}

#[test]
fn interpreter_behaviour_matches_the_golden_file() {
    let got = render();
    let want = include_str!("golden/interp.txt");
    let (mut label, mut mismatch) = ("", None);
    for (g, w) in got.lines().zip(want.lines()) {
        if !w.starts_with(' ') {
            label = w;
        }
        if g != w {
            mismatch = Some((label, g, w));
            break;
        }
    }
    if let Some((label, g, w)) = mismatch {
        panic!("{label}: got\n{g}\nwant\n{w}");
    }
    assert_eq!(got, want, "interpreter output differs from the golden file");
}
