//! Runs every workload briefly, untraced and traced, and holds the
//! harness to the contract in `BENCHMARK.json`: every metric by its
//! name exactly once, nothing failed.

use std::path::Path;
use std::process::Command;

use procrustes_core::json::Json;

#[path = "../src/metrics.rs"]
mod metrics;

const HARNESS: &str = env!("CARGO_BIN_EXE_procrustes-benchmark");

fn contract() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

fn names_and_units(list: &Json) -> Vec<(String, String)> {
    list.as_arr()
        .expect("a list")
        .iter()
        .map(|m| {
            let field = |key: &str| m.get(key).and_then(Json::as_str).expect(key).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn contract_lists_what_the_harness_reports() {
    let doc = contract();
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(workloads, metrics::WORKLOADS);
    assert_eq!(
        names_and_units(doc.get("end_to_end").expect("end_to_end")),
        owned(&metrics::END_TO_END)
    );
    assert_eq!(
        names_and_units(doc.get("per_layer").expect("per_layer")),
        owned(&metrics::PER_LAYER)
    );
    assert_eq!(
        doc.get("run_seconds").and_then(Json::as_f64),
        Some(metrics::RUN_SECONDS)
    );
    for (name, _) in metrics::END_TO_END.iter().chain(&metrics::PER_LAYER) {
        assert!(
            name.len() <= 64
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{name}"
        );
    }
}

/// Runs one workload for a second and checks its result object.
fn check_run(workload: &str, trace: bool, expected: &[(&str, &str)]) {
    let output = Command::new(HARNESS)
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("the harness starts");
    let stdout = String::from_utf8(output.stdout).expect("utf-8");
    assert!(
        output.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let doc = Json::parse(last).expect("the last line is JSON");
    let Json::Obj(fields) = &doc else {
        panic!("the result is an object")
    };
    let keys: Vec<&str> = fields.iter().map(|f| f.0.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        doc.get("correct").and_then(Json::as_bool),
        Some(true),
        "{last}"
    );
    assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(0), "{last}");
    assert!(doc.get("attempted").and_then(Json::as_u64) >= Some(1));
    let Some(Json::Obj(reported)) = doc.get("metrics") else {
        panic!("metrics is an object")
    };
    // Every metric of the contract, exactly once, in its unit.
    let names_units: Vec<(&str, &str)> = reported
        .iter()
        .map(|(name, m)| {
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            (name.as_str(), unit)
        })
        .collect();
    assert_eq!(names_units, expected, "{workload} trace={trace}");
    for (name, m) in reported {
        let value = m.get("value").and_then(Json::as_f64).expect("value");
        // An end-to-end metric that reads 0 cannot show a regression.
        assert!(value > 0.0 || trace, "{workload}: {name} = {value}");
    }
}

#[test]
fn every_workload_reports_every_metric() {
    if cfg!(debug_assertions) {
        eprintln!("skipped: the harness refuses to time a debug build; run with --release");
        return;
    }
    let daemon = Path::new(HARNESS).with_file_name("procrustes-serve");
    for workload in metrics::WORKLOADS {
        if workload.starts_with("serve_") && !daemon.exists() {
            eprintln!(
                "skipped {workload}: {} is not built (benchmark/run.sh builds it)",
                daemon.display()
            );
            continue;
        }
        check_run(workload, false, &metrics::END_TO_END);
        check_run(workload, true, &metrics::PER_LAYER);
    }
}

#[test]
fn refuses_what_it_cannot_run() {
    for args in [
        &["--workload", "nope"][..],
        &["--seconds", "1"],
        &["--workload"],
    ] {
        let output = Command::new(HARNESS).args(args).output().expect("starts");
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?} printed a result");
    }
}
