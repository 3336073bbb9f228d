//! Smoke test: every workload at tiny sizes, untraced and traced. Each run must print
//! every metric `BENCHMARK.json` names with its unit, pass verification, and fail no
//! operation.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::Path;
use std::process::Command;

/// `(name, unit)` of each metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("section {section} missing"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is an array")];
    let field = |entry: &str, key: &str| {
        let at = entry.find(&format!("\"{key}\"")).expect("field present") + key.len() + 2;
        let rest = &entry[at..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("closed string");
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn run(workload: &str, trace: bool) -> String {
    let traces = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{workload}.tsv"));
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0",
            "--smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--trace-out")
        .arg(&traces)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} (trace {trace}) exited with {}:\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

fn check(workload: &str, trace: bool, section: &str) {
    let stdout = run(workload, trace);
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\": true, "), "{last}");
    assert!(last.contains("\"failed\": 0, "), "{last}");
    assert!(!last.contains("\"attempted\": 0,"), "{last}");
    assert!(stdout.contains("bit-identical: true"), "{stdout}");
    let metrics = declared(section);
    assert!(!metrics.is_empty());
    for (name, unit) in metrics {
        let prefix = format!("\"{name}\": {{\"value\": ");
        let at = last
            .find(&prefix)
            .unwrap_or_else(|| panic!("{workload}: metric {name} missing from {last}"));
        let rest = &last[at + prefix.len()..];
        let value = &rest[..rest.find(',').expect("value then unit")];
        value
            .parse::<f64>()
            .unwrap_or_else(|_| panic!("{workload}: {name} = {value} is not a number"));
        assert!(
            rest.starts_with(&format!("{value}, \"unit\": \"{unit}\"}}")),
            "{workload}: {name} lacks unit {unit}: {rest}"
        );
    }
}

#[test]
fn plain_ingest_end_to_end() {
    check("plain_ingest", false, "end_to_end");
}

#[test]
fn plain_ingest_per_layer() {
    check("plain_ingest", true, "per_layer");
}

#[test]
fn plus_rotate_end_to_end() {
    check("plus_rotate", false, "end_to_end");
}

#[test]
fn plus_rotate_per_layer() {
    check("plus_rotate", true, "per_layer");
}

#[test]
fn dashboard_end_to_end() {
    check("dashboard", false, "end_to_end");
}

#[test]
fn dashboard_per_layer() {
    check("dashboard", true, "per_layer");
}
