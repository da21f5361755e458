//! Smoke tests for the experiment harness binary: every analytical
//! (non-training) subcommand must run, exit cleanly, and print the
//! headline its paper artifact is about. The training subcommands run
//! minutes, so none runs here: the harness they share is pinned by the
//! unit tests in `src/training.rs` (a trainer's bits do not depend on the
//! trainers beside it or on the cadence evaluations), and CI's `perf` job
//! runs `fig6` and `fig7` in release.

use std::process::Command;

fn run(args: &[&str]) -> String {
    let exe = env!("CARGO_BIN_EXE_procrustes-experiments");
    let out = Command::new(exe)
        .args(args)
        .output()
        .expect("experiment binary runs");
    assert!(
        out.status.success(),
        "{args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 output")
}

#[test]
fn fig1_prints_ideal_potential() {
    let out = run(&["fig1"]);
    assert!(out.contains("Fig 1"));
    assert!(out.contains("energy saving"));
    assert!(out.contains("speedup"));
}

#[test]
fn fig5_and_fig13_print_histograms() {
    let out5 = run(&["fig5"]);
    assert!(out5.contains("load-imbalance histogram"));
    assert!(out5.contains("unbalanced"));
    let out13 = run(&["fig13"]);
    assert!(out13.contains("half-tile balanced"));
}

#[test]
fn fig8_prints_csb_example() {
    let out = run(&["fig8"]);
    // The paper's block B1, every row of the table.
    let rows = [
        ("uncompressed block", "1 0 2 0 0 3 4 0 5"),
        ("mask (M1)", "101001101"),
        ("packed weights (B1)", "1 2 3 4 5"),
        ("Σ M1 (packed size)", "5"),
        ("rotated fetch (bw)", "5 0 4 3 0 0 2 0 1"),
    ];
    let body: Vec<&str> = out
        .lines()
        .skip_while(|l| !l.starts_with("---"))
        .skip(1)
        .take_while(|l| !l.is_empty())
        .map(str::trim)
        .collect();
    assert_eq!(body.len(), rows.len(), "table rows: {out}");
    for (line, (component, contents)) in body.iter().zip(rows) {
        let cells = line.strip_prefix(component).map(str::trim);
        assert_eq!(cells, Some(contents), "row {component:?}: {out}");
    }
}

#[test]
fn fig17_to_fig20_print_sweeps() {
    let out = run(&["fig17"]);
    assert!(out.contains("ResNet18"));
    assert!(out.contains("energy savings"));
    let out = run(&["fig19"]);
    assert!(out.contains("K,N speedups"));
    let out = run(&["fig20"]);
    assert!(out.contains("latency scaling"));
}

#[test]
fn fidelity_ablation_prints_both_models() {
    let out = run(&["fidelity"]);
    assert!(out.contains("latency fidelity"));
    assert!(out.contains("tile-timed"));
    assert!(out.contains("hidden stall"));
    // Every paper network appears in the comparison.
    assert!(out.contains("ResNet18") && out.contains("MobileNet v2"));
}

#[test]
fn tables_print() {
    let out = run(&["table1"]);
    assert!(out.contains("256 (16x16)"));
    let out = run(&["table3"]);
    assert!(out.contains("Quantile Engine"));
    assert!(out.contains("area"));
}

#[test]
fn csv_output_is_written() {
    let dir = std::env::temp_dir().join(format!("procrustes-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    run(&["fig8", "--out", dir.to_str().unwrap()]);
    let csv = std::fs::read_to_string(dir.join("fig8.csv")).expect("csv written");
    assert!(csv.starts_with("component,contents"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_experiment_fails() {
    let exe = env!("CARGO_BIN_EXE_procrustes-experiments");
    let out = Command::new(exe)
        .arg("fig99")
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
}
