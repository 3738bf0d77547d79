//! Integration tests for the flight recorder's CLI surface.
//!
//! * stdout byte-identity: `--trace` must not change a single byte of any
//!   published command's stdout (`sweep`, `admit`, `simulate`);
//! * thread-count invariance: the `trace` command's stdout (the span
//!   tree) and the `--trace` export are byte-identical at `--threads 1`
//!   vs `--threads 8`;
//! * export validity: the `--trace` file parses as Chrome trace-event
//!   JSON with the same hand-rolled parser the harness uses
//!   (`mcs_harness::json`), and its event records carry the
//!   `name`/`ph`/`ts`/`pid`/`tid`/`args` fields the format requires.
//!
//! All runs happen in subprocesses so each assertion sees exactly one
//! command's recorder activity.

use std::path::PathBuf;
use std::process::Command;

use mcs_harness::json;

fn tmp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("mcs-exp-trace-{}-{name}", std::process::id()));
    p
}

/// Run the real `mcs-exp` binary; returns (stdout, stderr).
fn run_mcs_exp(args: &[&str]) -> (Vec<u8>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_mcs-exp"))
        .args(args)
        .output()
        .expect("failed to spawn mcs-exp");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "mcs-exp {args:?} failed:\n{stderr}");
    (out.stdout, stderr)
}

#[test]
fn tracing_leaves_published_stdout_byte_identical() {
    let cases: &[(&str, &[&str])] = &[
        ("sweep", &["sweep", "--trials", "25"]),
        ("admit", &["admit", "--trials", "10"]),
        ("simulate", &["simulate", "--seeds", "4"]),
    ];
    for (name, args) in cases {
        let (plain, _) = run_mcs_exp(args);
        let trace = tmp_path(&format!("ident-{name}.json"));
        let trace_str = trace.to_str().unwrap().to_string();
        let mut with_trace = args.to_vec();
        with_trace.extend(["--trace", &trace_str]);
        let (recorded, _) = run_mcs_exp(&with_trace);
        assert_eq!(plain, recorded, "--trace changed the stdout bytes of `mcs-exp {name}`");
        assert!(trace.exists(), "`mcs-exp {name} --trace` wrote no file");
        let _ = std::fs::remove_file(&trace);
    }
}

#[test]
fn trace_command_and_export_are_thread_count_invariant() {
    let file1 = tmp_path("threads-1.json");
    let file8 = tmp_path("threads-8.json");
    let (f1, f8) = (file1.to_str().unwrap().to_string(), file8.to_str().unwrap().to_string());
    let (out1, _) = run_mcs_exp(&["trace", "--trials", "9", "--threads", "1", "--trace", &f1]);
    let (out8, _) = run_mcs_exp(&["trace", "--trials", "9", "--threads", "8", "--trace", &f8]);
    assert_eq!(out1, out8, "span-tree stdout must not depend on the worker schedule");
    let json1 = std::fs::read_to_string(&file1).expect("trace file unreadable");
    let json8 = std::fs::read_to_string(&file8).expect("trace file unreadable");
    assert_eq!(json1, json8, "exported stream must not depend on the worker schedule");
    let _ = std::fs::remove_file(&file1);
    let _ = std::fs::remove_file(&file8);
}

#[test]
fn trace_export_is_valid_chrome_trace_event_json() {
    let file = tmp_path("chrome.json");
    let file_str = file.to_str().unwrap().to_string();
    run_mcs_exp(&["trace", "--trials", "3", "--trace", &file_str]);
    let text = std::fs::read_to_string(&file).expect("trace file unreadable");
    let v = json::parse(&text).expect("--trace output is not valid JSON");
    let events = v.get("traceEvents").and_then(json::JsonValue::as_arr).expect("traceEvents");
    let dropped = v
        .get("otherData")
        .and_then(|o| o.get("dropped_events"))
        .and_then(json::JsonValue::as_u64)
        .expect("otherData.dropped_events");
    // The recorder may be compiled out (`telemetry-off`); then the wrapper
    // is still valid JSON, just empty.
    if mcs_obs::COMPILED {
        assert!(!events.is_empty(), "a traced replay must record events");
    }
    let mut spans_open = 0i64;
    for ev in events {
        assert!(ev.get("name").and_then(json::JsonValue::as_str).is_some());
        assert!(ev.get("ts").and_then(json::JsonValue::as_u64).is_some());
        assert!(ev.get("tid").and_then(json::JsonValue::as_u64).is_some());
        assert_eq!(ev.get("pid").and_then(json::JsonValue::as_u64), Some(1));
        assert!(ev.get("args").is_some());
        match ev.get("ph").and_then(json::JsonValue::as_str) {
            Some("B") => spans_open += 1,
            Some("E") => spans_open -= 1,
            Some("i") => {}
            other => panic!("unexpected ph {other:?}"),
        }
    }
    // A busy trial can legitimately wrap the per-thread ring (drop-oldest);
    // span balance is only guaranteed on a drop-free stream.
    if dropped == 0 {
        assert_eq!(spans_open, 0, "B/E span pairs must balance in a drop-free stream");
    }
    // The stdout JSON (`--json`) and the file export agree.
    let (stdout, _) = run_mcs_exp(&["trace", "--trials", "3", "--json"]);
    assert_eq!(String::from_utf8_lossy(&stdout), text, "--json stdout and --trace file differ");
    let _ = std::fs::remove_file(&file);
}
