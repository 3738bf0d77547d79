//! Runs every workload of `BENCHMARK.json` at `--quick` sizes, untraced and
//! traced, and checks the result lines, the digests and the Chrome trace.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use mcs_harness::json::{parse, JsonValue};

fn benchmark() -> JsonValue {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    parse(&text).expect("BENCHMARK.json parses")
}

fn names(bench: &JsonValue, key: &str) -> Vec<String> {
    bench
        .get(key)
        .and_then(JsonValue::as_arr)
        .expect("a list")
        .iter()
        .map(|m| m.get("name").and_then(JsonValue::as_str).expect("a name").to_string())
        .collect()
}

/// Run the benchmark, traced when it writes a Chrome trace to `out`;
/// returns (digest line, parsed result line).
fn run(workload: &str, out: Option<&Path>) -> (String, JsonValue) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_mcs-bench"));
    cmd.args(["--workload", workload, "--seed", "3", "--quick"]);
    match out {
        // A short traced run keeps the trace small: the harness's JSON
        // parser re-validates the rest of the input at every string
        // character, so its time grows with the square of the file size.
        Some(out) => cmd.args(["--trace", "1", "--seconds", "0.02", "--out"]).arg(out),
        None => cmd.args(["--trace", "0", "--seconds", "0.2"]),
    };
    let output = cmd.output().expect("mcs-bench runs");
    assert!(output.status.success(), "{workload}: {}", String::from_utf8_lossy(&output.stderr));
    let stdout = String::from_utf8(output.stdout).expect("utf-8 stdout");
    let digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix("digest"))
        .expect("a digest line")
        .trim()
        .to_string();
    let last = stdout.lines().last().expect("output");
    (digest, parse(last).expect("the last line is JSON"))
}

fn check_result(workload: &str, result: &JsonValue, expected: &[String]) {
    assert_eq!(result.get("correct").and_then(JsonValue::as_bool), Some(true), "{workload}");
    assert_eq!(result.get("failed").and_then(JsonValue::as_u64), Some(0), "{workload}");
    assert!(result.get("attempted").and_then(JsonValue::as_u64).is_some_and(|n| n > 0));
    let metrics = result.get("metrics").expect("metrics");
    for name in expected {
        let value = metrics.get(name).and_then(|m| m.get("value")).and_then(JsonValue::as_f64);
        assert!(value.is_some_and(f64::is_finite), "{workload}: {name} missing or not finite");
    }
}

/// Check the Chrome trace: each span kind's self time (durations minus
/// those of their children) is at most the traced total, the sum of the
/// root spans; with no span dropped, the self times add up to it.
fn check_chrome(path: &Path) {
    let text = std::fs::read_to_string(path).expect("trace written");
    let json = parse(&text).expect("Chrome JSON parses");
    let events = json.get("traceEvents").and_then(JsonValue::as_arr).expect("traceEvents");
    assert!(!events.is_empty());
    let field = |e: &JsonValue, k: &str| e.get(k).and_then(JsonValue::as_f64).expect(k);
    let arg =
        |e: &JsonValue, k: &str| e.get("args").and_then(|a| a.get(k)).and_then(JsonValue::as_f64);
    let mut children = vec![0.0; events.len()];
    let mut total = 0.0;
    for e in events {
        match arg(e, "parent").expect("parent") {
            p if p >= 0.0 => children[p as usize] += field(e, "dur"),
            _ => total += field(e, "dur"),
        }
    }
    let mut by_kind: BTreeMap<&str, f64> = BTreeMap::new();
    for (e, child) in events.iter().zip(&children) {
        let own = field(e, "dur") - child;
        assert!(own >= -1e-3, "negative self time {own}");
        *by_kind.entry(e.get("name").and_then(JsonValue::as_str).expect("name")).or_default() +=
            own;
    }
    let slack = 1e-3 * events.len() as f64;
    for (kind, own) in &by_kind {
        assert!(*own <= total + slack, "{kind}: self time {own} µs > traced total {total} µs");
    }
    let dropped =
        json.get("otherData").and_then(|d| d.get("dropped_spans")).and_then(JsonValue::as_u64);
    if dropped == Some(0) {
        let sum: f64 = by_kind.values().sum();
        assert!(
            (sum - total).abs() <= slack,
            "self times add to {sum} µs, traced total {total} µs"
        );
    }
}

#[test]
fn every_workload_reports_every_metric() {
    let bench = benchmark();
    let end_to_end = names(&bench, "end_to_end");
    let per_layer = names(&bench, "per_layer");
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    for workload in names(&bench, "workloads") {
        let (run_digest, result) = run(&workload, None);
        check_result(&workload, &result, &end_to_end);
        let chrome = dir.join(format!("smoke-{workload}.json"));
        let (trace_digest, result) = run(&workload, Some(&chrome));
        check_result(&workload, &result, &per_layer);
        assert_eq!(run_digest, trace_digest, "{workload}: traced replay digest differs");
        check_chrome(&chrome);
    }
}

#[test]
fn bad_arguments_exit_nonzero() {
    for args in [&["--workload", "nope"][..], &["--workload", "sweep_paper", "--trace", "2"], &[]] {
        let status =
            Command::new(env!("CARGO_BIN_EXE_mcs-bench")).args(args).output().expect("runs");
        assert_eq!(status.status.code(), Some(2), "{args:?}");
    }
}
