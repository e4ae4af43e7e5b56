//! Malformed-request fuzz corpus for the JSONL protocol.
//!
//! The robustness contract (mirrors `mpi_dfa_suite::fuzz` for the
//! compiler pipeline): every line — truncated JSON, binary garbage,
//! pathological nesting, payloads beyond the 16 MiB cap, unknown kinds,
//! schema-violating values — must produce exactly one structured error
//! response (`{"id":N,"ok":false,"error":{"code":...,"message":...}}`),
//! and must never panic or hang the engine.
//!
//! Deterministic in the seed: a CI failure reproduces locally with
//! `cargo test -p mpi-dfa-service --test fuzz_protocol`.

use mpi_dfa_core::rng::SplitMix64;
use mpi_dfa_service::proto::MAX_LINE_BYTES;
use mpi_dfa_service::{Engine, EngineConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// A response line must be valid JSON with either a successful `result` or
/// a structured `error` object carrying a code and message.
fn assert_structured(line: &str, resp: &str) {
    let parsed = mpi_dfa_core::json::parse(resp)
        .unwrap_or_else(|e| panic!("response is not JSON ({e}) for input {line:.80}: {resp:.200}"));
    let ok = parsed
        .get("ok")
        .and_then(|v| v.as_bool())
        .unwrap_or_else(|| panic!("response lacks ok: {resp:.200}"));
    if !ok {
        let err = parsed.get("error").expect("failed response carries error");
        assert!(
            err.get("code").and_then(|c| c.as_str()).is_some(),
            "error without code: {resp:.200}"
        );
        assert!(
            err.get("message").and_then(|m| m.as_str()).is_some(),
            "error without message: {resp:.200}"
        );
    }
}

/// The hand-written corpus: every shape of malformed line the protocol
/// spec calls out.
fn corpus() -> Vec<String> {
    let mut c: Vec<String> = [
        // Truncations of a valid request at every interesting boundary.
        r#"{"#,
        r#"{"id""#,
        r#"{"id":"#,
        r#"{"id":1"#,
        r#"{"id":1,"kind""#,
        r#"{"id":1,"kind":"analyze""#,
        r#"{"id":1,"kind":"analyze","program":"figure1","ind":["x"],"dep":["f"]"#,
        r#"{"id":1,"kind":"analyze","program":"figure1","ind":["x"#,
        // Wrong top-level shapes.
        r#"[]"#,
        r#"42"#,
        r#""just a string""#,
        r#"null"#,
        r#"true"#,
        // Missing/invalid required fields.
        r#"{}"#,
        r#"{"id":1}"#,
        r#"{"kind":"ping"}"#,
        r#"{"id":-1,"kind":"ping"}"#,
        r#"{"id":1.5,"kind":"ping"}"#,
        r#"{"id":"one","kind":"ping"}"#,
        r#"{"id":1,"kind":7}"#,
        r#"{"id":1,"kind":null}"#,
        // Unknown kinds and fields.
        r#"{"id":1,"kind":"warp"}"#,
        r#"{"id":1,"kind":""}"#,
        r#"{"id":1,"kind":"analyze","program":"figure1","ind":["x"],"dep":["f"],"frobnicate":1}"#,
        // Per-kind schema violations.
        r#"{"id":1,"kind":"analyze"}"#,
        r#"{"id":1,"kind":"analyze","program":"figure1","source":"program p"}"#,
        r#"{"id":1,"kind":"table1-row"}"#,
        r#"{"id":1,"kind":"table1-row","row":"NoSuchRow"}"#,
        r#"{"id":1,"kind":"activity-at-location","program":"figure1"}"#,
        r#"{"id":1,"kind":"analyze","program":"no-such-program","ind":["x"],"dep":["f"]}"#,
        r#"{"id":1,"kind":"analyze","source":"sub broken(","ind":["x"],"dep":["f"]}"#,
        r#"{"id":1,"kind":"analyze","program":"figure1","ind":[],"dep":[],"mode":"mpi"}"#,
        r#"{"id":1,"kind":"analyze","program":"figure1","ind":["x"],"dep":["f"],"mode":"quantum"}"#,
        r#"{"id":1,"kind":"analyze","program":"figure1","ind":["x"],"dep":["f"],"degrade":"maybe"}"#,
        r#"{"id":1,"kind":"analyze","program":"figure1","ind":[1,2],"dep":["f"]}"#,
        r#"{"id":1,"kind":"analyze","program":"figure1","ind":["x"],"dep":["f"],"clone":-3}"#,
        r#"{"id":1,"kind":"analyze","program":"figure1","ind":["x"],"dep":["f"],"max_visits":"lots"}"#,
        // Not JSON at all.
        "not json",
        "GET / HTTP/1.1",
        "\u{0}\u{1}\u{2}binary\u{7f}",
        "}{",
        "",
        "   ",
    ]
    .into_iter()
    .map(String::from)
    .collect();
    // Pathological nesting: far beyond the parser's depth cap — must be a
    // structured error, not a stack overflow.
    c.push(format!(
        r#"{{"id":1,"kind":{}1{}}}"#,
        "[".repeat(5000),
        "]".repeat(5000)
    ));
    // A payload just over the 16 MiB line cap.
    c.push(format!(
        r#"{{"id":1,"kind":"analyze","source":"{}","ind":["x"],"dep":["f"]}}"#,
        "a".repeat(MAX_LINE_BYTES)
    ));
    c
}

#[test]
fn corpus_yields_structured_errors_never_panics() {
    let engine = Engine::new(EngineConfig::default()).unwrap();
    let deadline = Duration::from_secs(20);
    for line in corpus() {
        let start = Instant::now();
        let resp = catch_unwind(AssertUnwindSafe(|| engine.handle_line(&line)))
            .unwrap_or_else(|_| panic!("engine panicked on input {line:.120}"));
        assert!(
            start.elapsed() < deadline,
            "input took {:?} (hang?): {line:.120}",
            start.elapsed()
        );
        if line.trim().is_empty() {
            // Empty lines are the caller's concern (batch skips them); the
            // engine still answers with a parse error rather than panicking.
            assert!(resp.contains("\"ok\":false"), "{resp}");
            continue;
        }
        assert_structured(&line, &resp);
        // Every *invalid* corpus line must be rejected, not half-served.
        assert!(
            resp.contains("\"ok\":false"),
            "corpus line unexpectedly succeeded: {line:.120} -> {resp:.200}"
        );
    }
}

#[test]
fn random_mutations_of_a_valid_request_never_panic() {
    // Deterministic byte-level mutation fuzzing on top of the hand-written
    // corpus: truncate, splice, flip, and duplicate bytes of a valid
    // request. Responses may be ok (benign mutation) or a structured
    // error — never a panic, never non-JSON output.
    let engine = Engine::new(EngineConfig::default()).unwrap();
    let base = r#"{"id":7,"kind":"analyze","program":"figure1","ind":["x"],"dep":["f"],"clone":0,"mode":"mpi"}"#;
    let mut rng = SplitMix64::new(0xC0FFEE);
    for case in 0..512 {
        let mut bytes = base.as_bytes().to_vec();
        for _ in 0..rng.range(1, 8) {
            match rng.below(4) {
                0 => {
                    // Truncate.
                    let at = rng.below(bytes.len().max(1));
                    bytes.truncate(at);
                }
                1 => {
                    // Flip one byte to printable ASCII.
                    if !bytes.is_empty() {
                        let at = rng.below(bytes.len());
                        bytes[at] = 0x20 + (rng.below(95) as u8);
                    }
                }
                2 => {
                    // Duplicate a span.
                    if bytes.len() >= 2 {
                        let a = rng.below(bytes.len() - 1);
                        let b = rng.range(a + 1, bytes.len());
                        let span: Vec<u8> = bytes[a..b].to_vec();
                        bytes.extend_from_slice(&span);
                    }
                }
                _ => {
                    // Insert structural noise.
                    let at = rng.below(bytes.len() + 1);
                    let ch = *rng.pick(b"{}[]\",:");
                    bytes.insert(at, ch);
                }
            }
        }
        let line = String::from_utf8_lossy(&bytes).into_owned();
        let resp = catch_unwind(AssertUnwindSafe(|| engine.handle_line(&line)))
            .unwrap_or_else(|_| panic!("panic on mutation case {case}: {line:.120}"));
        if !line.trim().is_empty() {
            assert_structured(&line, &resp);
        }
    }
}

#[test]
fn oversized_lines_are_rejected_in_constant_time() {
    // The cap check happens before parsing: even a 2× over-limit garbage
    // line is rejected quickly with the `too-large` code.
    let engine = Engine::new(EngineConfig::default()).unwrap();
    let line = "x".repeat(MAX_LINE_BYTES * 2);
    let start = Instant::now();
    let resp = engine.handle_line(&line);
    assert!(resp.contains("\"code\":\"too-large\""), "{resp:.200}");
    assert!(
        start.elapsed() < Duration::from_secs(2),
        "cap check took {:?}",
        start.elapsed()
    );
}

#[test]
fn batch_of_garbage_terminates_with_one_response_per_line() {
    // The whole corpus through the batch scheduler: responses stay
    // line-aligned and the pool drains (no hangs) even when every line is
    // hostile.
    let engine = Engine::new(EngineConfig::default()).unwrap();
    let corpus = corpus();
    let input: String = corpus
        .iter()
        .map(|l| l.replace('\n', " "))
        .collect::<Vec<_>>()
        .join("\n");
    let non_empty = input.lines().filter(|l| !l.trim().is_empty()).count();
    let out = mpi_dfa_service::run_batch(&engine, &input, 4);
    assert_eq!(out.len(), non_empty);
    for resp in &out {
        assert!(resp.contains("\"ok\":"), "{resp:.200}");
    }
}
