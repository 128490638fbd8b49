//! Self-test of the ledger against its own declaration in `BENCHMARK.json`:
//! every name is well formed, every workload emits every declared metric
//! with its declared unit, outputs pass their checks, and the recorded
//! histories repeat exactly — run to run, and between `serve_cold` and
//! `serve_replay` for the same seed.
//!
//! Run with `cargo test --release --manifest-path bench_ledger/Cargo.toml`.

use serde_json::Value;
use std::path::PathBuf;
use std::process::Command;

fn declaration() -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn entries<'a>(decl: &'a Value, key: &str) -> &'a [Value] {
    decl.as_object()
        .and_then(|o| o.get(key))
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
}

fn field<'a>(entry: &'a Value, key: &str) -> &'a str {
    entry
        .as_object()
        .and_then(|o| o.get(key))
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("entry without a string `{key}`: {entry:?}"))
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One run of the ledger: the result line, and the `prefix_hash` it
/// reported on stderr.
struct Run {
    result: Value,
    prefix_hash: String,
}

fn run(workload: &str, seed: u64, trace: u8) -> Run {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("ledger-selftest");
    let output = Command::new(env!("CARGO_BIN_EXE_ledger"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", &trace.to_string()])
        .arg("--out")
        .arg(&out_dir)
        .output()
        .expect("ledger starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "{workload} exited badly: {stderr}");
    let last = stdout.lines().last().expect("a result line");
    let result: Value = serde_json::from_str(last).expect("the result line is JSON");
    let prefix_hash = stderr
        .split_whitespace()
        .find_map(|w| w.strip_prefix("prefix_hash="))
        .unwrap_or_else(|| panic!("{workload} reported no prefix_hash: {stderr}"))
        .to_string();
    Run {
        result,
        prefix_hash,
    }
}

fn metric(run: &Run, name: &str) -> (f64, String) {
    let m = run
        .result
        .as_object()
        .and_then(|o| o.get("metrics"))
        .and_then(|m| m.as_object())
        .and_then(|m| m.get(name))
        .and_then(Value::as_object)
        .unwrap_or_else(|| panic!("metric `{name}` missing from {:?}", run.result));
    let value = m
        .get("value")
        .and_then(Value::as_f64)
        .expect("numeric value");
    let unit = m
        .get("unit")
        .and_then(Value::as_str)
        .expect("unit")
        .to_string();
    (value, unit)
}

#[test]
fn every_declared_name_is_well_formed() {
    let decl = declaration();
    for key in ["workloads", "end_to_end", "per_layer"] {
        for entry in entries(&decl, key) {
            let name = field(entry, "name");
            assert!(
                well_formed(name),
                "`{name}` in {key} is not [A-Za-z0-9_.-]+"
            );
        }
    }
    for key in ["end_to_end", "per_layer"] {
        for entry in entries(&decl, key) {
            let unit = field(entry, "unit");
            assert!(
                !unit.is_empty()
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit `{unit}` is malformed"
            );
        }
    }
}

#[test]
fn every_workload_emits_its_metrics_and_repeats_exactly() {
    let decl = declaration();
    let workloads: Vec<&str> = entries(&decl, "workloads")
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    let seed = 5;
    let mut runs = Vec::new();
    for workload in &workloads {
        for (trace, key) in [(0u8, "end_to_end"), (1u8, "per_layer")] {
            let run = run(workload, seed, trace);
            let obj = run.result.as_object().expect("result object");
            assert!(
                matches!(obj.get("correct"), Some(Value::Bool(true))),
                "{workload} --trace {trace} failed its checks: {:?}",
                run.result
            );
            let declared = entries(&decl, key);
            let emitted = obj
                .get("metrics")
                .and_then(|m| m.as_object())
                .map_or(0, |m| m.len());
            assert_eq!(emitted, declared.len(), "{workload} --trace {trace}");
            for entry in declared {
                let (value, unit) = metric(&run, field(entry, "name"));
                assert_eq!(unit, field(entry, "unit"), "{workload}");
                assert!(value.is_finite());
                if trace == 0 {
                    assert!(value > 0.0, "{workload}: {} is 0", field(entry, "name"));
                }
            }
            runs.push((workload.to_string(), trace, run));
        }
    }
    // The untraced and traced runs of one workload record the same
    // histories; so does a second untraced run.
    for workload in &workloads {
        let again = run(workload, seed, 0);
        for (w, _, earlier) in runs.iter().filter(|(w, _, _)| w == workload) {
            assert_eq!(
                earlier.prefix_hash, again.prefix_hash,
                "{w} histories drifted"
            );
        }
        let first = runs
            .iter()
            .find(|(w, t, _)| w == workload && *t == 0)
            .map(|(_, _, r)| r)
            .expect("untraced run");
        for name in ["best_runtime_min", "stress_time_min"] {
            assert_eq!(
                metric(first, name),
                metric(&again, name),
                "{workload}: {name}"
            );
        }
    }
    let hash_of = |w: &str| {
        runs.iter()
            .find(|(name, _, _)| name == w)
            .map(|(_, _, r)| r.prefix_hash.clone())
    };
    assert_eq!(
        hash_of("serve_cold"),
        hash_of("serve_replay"),
        "serve_replay must replay serve_cold's histories byte for byte"
    );
}
