//! Every workload at smoke scale, through the benchmark's own command
//! line: the result line parses, the checks pass, and it carries exactly
//! the metrics `BENCHMARK.json` declares, with their units.

use std::path::{Path, PathBuf};
use std::process::Command;

use serde::{Num, Value};

const WORKLOADS: [&str; 3] = ["paper-full", "paper-quarter", "crash-resume-export"];
const SEED: &str = "2026";

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Object(fields) => fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("no field {key:?}")),
        other => panic!("expected an object holding {key:?}, got {other:?}"),
    }
}

fn str_of(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

fn num_of(v: &Value) -> f64 {
    match v {
        Value::Num(Num::Raw(s)) => s.parse().expect("a JSON number"),
        other => panic!("expected a number, got {other:?}"),
    }
}

/// `(name, unit)` of each metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = manifest_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json next to perfbench/");
    let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    match field(&doc, list) {
        Value::Array(items) => items
            .iter()
            .map(|m| {
                (
                    str_of(field(m, "name")).to_string(),
                    str_of(field(m, "unit")).to_string(),
                )
            })
            .collect(),
        other => panic!("{list} is not a list: {other:?}"),
    }
}

/// Run the benchmark at smoke scale; returns stdout and the parsed last line.
fn run(workload: &str, trace: &str, reference: Option<&Path>) -> (String, Value) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_wheels-perfbench"));
    cmd.args([
        "--workload",
        workload,
        "--seed",
        SEED,
        "--seconds",
        "0",
        "--trace",
        trace,
    ])
    .args(["--scale", "smoke"]);
    if let Some(path) = reference {
        cmd.arg("--reference").arg(path);
    }
    let out = cmd.output().expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed: {stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("some output").to_string();
    let result: Value = serde_json::from_str(&last).expect("last line is JSON");
    (stdout, result)
}

fn assert_reports(workload: &str, trace: &str, list: &str) {
    let (stdout, result) = run(workload, trace, None);
    assert_eq!(field(&result, "correct"), &Value::Bool(true), "{stdout}");
    assert!(num_of(field(&result, "attempted")) >= 1.0);
    assert_eq!(num_of(field(&result, "failed")), 0.0, "{stdout}");
    assert!(stdout.contains("fingerprint {\"nproc\""), "{stdout}");
    let metrics = match field(&result, "metrics") {
        Value::Object(fields) => fields,
        other => panic!("metrics is not an object: {other:?}"),
    };
    let printed: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            assert!(num_of(field(m, "value")).is_finite(), "{name}");
            (name.clone(), str_of(field(m, "unit")).to_string())
        })
        .collect();
    assert_eq!(printed, declared(list), "{workload} trace {trace}");
}

#[test]
fn paper_full_prints_every_end_to_end_metric() {
    assert_reports(WORKLOADS[0], "0", "end_to_end");
}

#[test]
fn paper_quarter_prints_every_end_to_end_metric() {
    assert_reports(WORKLOADS[1], "0", "end_to_end");
}

#[test]
fn crash_resume_export_prints_every_end_to_end_metric() {
    assert_reports(WORKLOADS[2], "0", "end_to_end");
}

#[test]
fn paper_full_prints_every_per_layer_metric() {
    assert_reports(WORKLOADS[0], "1", "per_layer");
}

#[test]
fn paper_quarter_prints_every_per_layer_metric() {
    assert_reports(WORKLOADS[1], "1", "per_layer");
}

#[test]
fn crash_resume_export_prints_every_per_layer_metric() {
    assert_reports(WORKLOADS[2], "1", "per_layer");
}

/// A copy of the reference file with the digest pinned for `workload` at
/// smoke scale replaced by a wrong one.
fn corrupted_reference(workload: &str) -> PathBuf {
    let text = std::fs::read_to_string(manifest_dir().join("reference.tsv")).expect("reference");
    let prefix = format!("{workload} smoke {SEED} ");
    let mut hit = false;
    let lines: Vec<String> = text
        .lines()
        .map(|line| {
            if !line.starts_with(&prefix) {
                return line.to_string();
            }
            hit = true;
            line.split_whitespace()
                .map(|w| match w.strip_prefix("digest=") {
                    Some(hex) => {
                        let d = u64::from_str_radix(hex, 16).expect("hex digest") ^ 1;
                        format!("digest={d:016x}")
                    }
                    None => w.to_string(),
                })
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect();
    assert!(hit, "reference.tsv pins {prefix}");
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("corrupt-{workload}.tsv"));
    std::fs::write(&path, lines.join("\n")).expect("write corrupted reference");
    path
}

#[test]
fn corrupted_reference_digest_fails_the_output_check() {
    for workload in ["paper-quarter", "crash-resume-export"] {
        let path = corrupted_reference(workload);
        let (stdout, result) = run(workload, "0", Some(&path));
        assert_eq!(field(&result, "correct"), &Value::Bool(false), "{stdout}");
        assert!(num_of(field(&result, "failed")) >= 1.0, "{stdout}");
        assert!(stdout.contains("differs from the reference"), "{stdout}");
    }
}

/// The counts of two traced runs of one seed repeat exactly.
#[test]
fn traced_counts_repeat_exactly() {
    let counts = |stdout: &str| -> Vec<String> {
        stdout
            .lines()
            .filter(|l| l.starts_with("count "))
            .map(str::to_string)
            .collect()
    };
    let (first, _) = run("crash-resume-export", "1", None);
    let (second, _) = run("crash-resume-export", "1", None);
    assert!(counts(&first).len() >= 8, "{first}");
    assert_eq!(counts(&first), counts(&second));
}
