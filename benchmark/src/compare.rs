//! `--compare A.jsonl B.jsonl`: two sets of runs, as `--out` recorded
//! them, judged metric by metric against the bounds in
//! `BENCHMARK.json`.
//!
//! For each workload and end-to-end metric it prints the median and
//! quartiles of each side and a verdict: `ok`, `worse` (B's median is
//! worse than A's by more than the bound), or `unresolved` (either
//! side's quartile spread exceeds the bound, and B's runs do not all
//! beat A's). Per-layer metrics have no bound and get medians only. A
//! `check.*` value that differs between the sides for the same workload
//! and seed is a hard failure: a change that claims to alter only host
//! time altered a result.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use procrustes_core::json::Json;

use crate::stats::{median, quartiles};

/// `(workload, traced)` → metric → one value per run, in file order.
type Samples = BTreeMap<(String, bool), BTreeMap<String, Vec<f64>>>;
/// `(workload, seed, check name)` → value.
type Checks = BTreeMap<(String, u64, String), String>;

struct RunSet {
    samples: Samples,
    checks: Checks,
    failed: u64,
}

fn load(path: &Path) -> Result<RunSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut set = RunSet {
        samples: Samples::new(),
        checks: Checks::new(),
        failed: 0,
    };
    for (n, line) in text.lines().enumerate().filter(|l| !l.1.trim().is_empty()) {
        let at = |what: &str| format!("{}:{}: {what}", path.display(), n + 1);
        let doc = Json::parse(line).map_err(|e| at(&e))?;
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| at("no workload"))?
            .to_string();
        let seed = doc
            .get("seed")
            .and_then(Json::as_u64)
            .ok_or_else(|| at("no seed"))?;
        let traced = doc.get("trace").and_then(Json::as_u64) == Some(1);
        set.failed += doc.get("failed").and_then(Json::as_u64).unwrap_or(0);
        if let Some(Json::Obj(checks)) = doc.get("checks") {
            for (name, value) in checks {
                let value = value.as_str().unwrap_or_default().to_string();
                set.checks
                    .insert((workload.clone(), seed, name.clone()), value);
            }
        }
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            return Err(at("no metrics"));
        };
        let by_metric = set.samples.entry((workload, traced)).or_default();
        for (name, metric) in metrics {
            let value = metric
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| at("metric without a value"))?;
            by_metric.entry(name.clone()).or_default().push(value);
        }
    }
    Ok(set)
}

/// `name` → `(bound, higher is better)` of the end-to-end metrics.
fn bounds() -> Result<BTreeMap<String, (f64, bool)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let doc = Json::parse(&text)?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let mut out = BTreeMap::new();
    for metric in list {
        let field = |key: &str| metric.get(key).and_then(Json::as_str);
        let (Some(name), Some(better), Some(bound)) = (
            field("name"),
            field("better"),
            metric.get("bound").and_then(Json::as_f64),
        ) else {
            return Err("an end_to_end entry lacks name, better or bound".into());
        };
        out.insert(name.to_string(), (bound, better == "higher"));
    }
    Ok(out)
}

fn describe(values: &[f64]) -> String {
    match quartiles(values) {
        Some((q1, q2, q3)) => format!("{q2:.4} [{q1:.4}, {q3:.4}] n={}", values.len()),
        None => format!("{:.4} n={}", median(values), values.len()),
    }
}

/// The verdict on one end-to-end metric of one workload.
fn verdict(a: &[f64], b: &[f64], bound: f64, higher_better: bool) -> &'static str {
    let (ma, mb) = (median(a), median(b));
    // How much worse B's median is, as a share of A's.
    let worse_by = if higher_better { ma - mb } else { mb - ma } / ma.abs();
    let spread = |v: &[f64]| crate::stats::spread(v).unwrap_or(0.0);
    if spread(a) > bound || spread(b) > bound {
        let all_better = b
            .iter()
            .all(|&y| a.iter().all(|&x| if higher_better { y > x } else { y < x }));
        return if all_better { "ok" } else { "unresolved" };
    }
    if worse_by > bound {
        "worse"
    } else {
        "ok"
    }
}

pub fn run(a: &Path, b: &Path) -> ExitCode {
    let loaded = load(a).and_then(|sa| Ok((sa, load(b)?, bounds()?)));
    let (sa, sb, bounds) = match loaded {
        Ok(v) => v,
        Err(e) => {
            eprintln!("benchmark --compare: {e}");
            return ExitCode::from(2);
        }
    };
    let mut bad = 0u32;

    for ((workload, traced), metrics_a) in &sa.samples {
        let Some(metrics_b) = sb.samples.get(&(workload.clone(), *traced)) else {
            println!("{workload}: only in {}", a.display());
            continue;
        };
        println!(
            "== {workload} ({})",
            if *traced {
                "traced, per layer"
            } else {
                "end to end"
            }
        );
        for (name, va) in metrics_a {
            let Some(vb) = metrics_b.get(name) else {
                continue;
            };
            let judged = match bounds.get(name).filter(|_| !traced) {
                Some(&(bound, higher)) => {
                    let v = verdict(va, vb, bound, higher);
                    bad += u32::from(v == "worse");
                    format!("{v} (bound {bound})")
                }
                None => String::new(),
            };
            println!(
                "  {name:<28} A {:<40} B {:<40} {judged}",
                describe(va),
                describe(vb)
            );
        }
    }

    for (key, value_a) in &sa.checks {
        if let Some(value_b) = sb.checks.get(key) {
            if value_a != value_b {
                let (workload, seed, name) = key;
                println!("MISMATCH {workload} seed {seed} {name}: A {value_a}  B {value_b}");
                bad += 1;
            }
        }
    }
    if sa.failed + sb.failed > 0 {
        println!("FAILED operations: A {}  B {}", sa.failed, sb.failed);
        bad += 1;
    }
    if bad == 0 {
        println!("compare: ok");
        ExitCode::SUCCESS
    } else {
        println!("compare: {bad} finding(s)");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::verdict;

    #[test]
    fn verdicts() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let same = [100.2, 100.8, 99.1, 100.4, 99.6];
        let slow = [80.0, 81.0, 79.0, 80.5, 79.5];
        let noisy = [60.0, 140.0, 100.0, 80.0, 120.0];
        assert_eq!(verdict(&a, &same, 0.1, true), "ok");
        assert_eq!(verdict(&a, &slow, 0.1, true), "worse");
        // Lower is better: the same numbers are an improvement.
        assert_eq!(verdict(&a, &slow, 0.1, false), "ok");
        assert_eq!(verdict(&a, &noisy, 0.1, true), "unresolved");
        // Noisy, but every run beats every run of A.
        let fast_noisy = [160.0, 240.0, 200.0, 180.0, 220.0];
        assert_eq!(verdict(&a, &fast_noisy, 0.1, true), "ok");
    }
}
