//! `perfbench --workload W --seed N --seconds S --trace 0|1 --mpidfa BIN
//! --scratch DIR` — run one workload and print, as the last
//! line, `{"correct", "attempted", "failed", "metrics"}`. Exits 1 if any
//! answer was wrong. `perfbench pin-generated N` prints the pin table for
//! the first N generator seeds of the `generated` pool.
//!
//! Normally started by `run.py`, which builds this binary and `mpidfa`.

use perfbench::harness::{Cfg, TRACE_FILE_SPANS};
use perfbench::trace;
use std::path::PathBuf;

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse<T: std::str::FromStr>(
    args: &[String],
    name: &str,
    default: Option<T>,
) -> Result<T, String> {
    match flag(args, name) {
        Some(v) => v.parse().map_err(|_| format!("{name}: cannot parse `{v}`")),
        None => default.ok_or_else(|| format!("missing {name}")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("pin-generated") {
        let n = args.get(1).and_then(|v| v.parse().ok()).unwrap_or(32);
        print!("{}", perfbench::generated::pin(n));
        return;
    }
    match run(&args) {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

fn run(args: &[String]) -> Result<i32, String> {
    let workload = flag(args, "--workload").ok_or("missing --workload")?;
    let cfg = Cfg {
        seed: parse(args, "--seed", None)?,
        seconds: parse(args, "--seconds", None)?,
        max_ops: None,
        trace: parse::<u8>(args, "--trace", Some(0))? == 1,
        scratch: PathBuf::from(flag(args, "--scratch").unwrap_or(".")),
        mpidfa: flag(args, "--mpidfa").map(PathBuf::from),
    };
    std::fs::create_dir_all(&cfg.scratch).map_err(|e| format!("{}: {e}", cfg.scratch.display()))?;
    let mut report = perfbench::run(workload, &cfg)?;

    if cfg.trace {
        if let Err(e) = trace::check_nesting(&report.spans) {
            report.errors.push(format!("span tree: {e}"));
        }
        let path = cfg
            .scratch
            .join(format!("trace-{workload}-{}.jsonl", cfg.seed));
        std::fs::write(&path, trace::to_jsonl(&report.spans, TRACE_FILE_SPANS))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("# spans: {}", path.display());
    }
    for m in &report.metrics {
        println!("# {:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for e in &report.errors {
        eprintln!("perfbench: {workload}: {e}");
    }
    println!("{}", perfbench::result_json(&report, cfg.trace));
    Ok(if report.failed == 0 && report.errors.is_empty() {
        0
    } else {
        1
    })
}
