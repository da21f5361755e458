//! The committed figure record, diffed byte for byte: each fast
//! subcommand's `--quick` stdout must equal its file under
//! `docs/results/quick/`, so what the reproduction prints next to the
//! paper's numbers is readable without running it, and a change that
//! moves a printed cell fails here. A change that means to move a figure
//! regenerates the record in the same commit (`bash
//! docs/results/regenerate.sh` from the repository root) and says why.
//! The training figures `fig6` and `fig7` are in the record too; they
//! train for seconds, so CI's perf job diffs them instead.

use std::path::Path;
use std::process::Command;

const REGENERATE: &str = "bash docs/results/regenerate.sh";

/// Runs `name --quick` and compares its stdout with the record.
fn check(name: &str) {
    let exe = env!("CARGO_BIN_EXE_procrustes-experiments");
    let out = Command::new(exe)
        .args([name, "--quick"])
        .output()
        .expect("experiment binary runs");
    assert!(
        out.status.success(),
        "{name} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let got = String::from_utf8(out.stdout).expect("utf8 output");
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../docs/results/quick")
        .join(format!("{name}.txt"));
    let want =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("record {}: {e}", path.display()));
    assert!(
        got == want,
        "`{name} --quick` no longer prints its record {} (- record, + now):\n{}\n\
         If the change is meant, regenerate the record from the repository root \
         with `{REGENERATE}` and say why in the commit.",
        path.display(),
        diff(&want, &got)
    );
}

/// A line diff of `want` against `got` from their longest common
/// subsequence: `-` lines only in `want`, `+` lines only in `got`, each
/// change with two lines of context, `…` where unchanged lines are cut.
fn diff(want: &str, got: &str) -> String {
    let (a, b): (Vec<&str>, Vec<&str>) = (want.lines().collect(), got.lines().collect());
    // `lcs[i][j]`: the longest common subsequence of `a[i..]`, `b[j..]`.
    let mut lcs = vec![vec![0usize; b.len() + 1]; a.len() + 1];
    for i in (0..a.len()).rev() {
        for j in (0..b.len()).rev() {
            lcs[i][j] = if a[i] == b[j] {
                lcs[i + 1][j + 1] + 1
            } else {
                lcs[i + 1][j].max(lcs[i][j + 1])
            };
        }
    }
    let mut lines = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        if i < a.len() && j < b.len() && a[i] == b[j] {
            lines.push((' ', a[i]));
            (i, j) = (i + 1, j + 1);
        } else if i < a.len() && (j == b.len() || lcs[i + 1][j] >= lcs[i][j + 1]) {
            lines.push(('-', a[i]));
            i += 1;
        } else {
            lines.push(('+', b[j]));
            j += 1;
        }
    }
    let near_change = |k: usize| {
        let around = k.saturating_sub(2)..(k + 3).min(lines.len());
        lines[around].iter().any(|&(mark, _)| mark != ' ')
    };
    let mut out = String::new();
    let mut cut = false;
    for (k, &(mark, line)) in lines.iter().enumerate() {
        if near_change(k) {
            out += &format!("{mark}{line}\n");
            cut = false;
        } else if !cut {
            out += "…\n";
            cut = true;
        }
    }
    if !lines.iter().any(|&(mark, _)| mark != ' ') {
        out += "(the lines are equal; the line endings differ)\n";
    }
    out
}

#[test]
fn fig1_matches_its_record() {
    check("fig1");
}

#[test]
fn fig5_matches_its_record() {
    check("fig5");
}

#[test]
fn fig8_matches_its_record() {
    check("fig8");
}

#[test]
fn fig13_matches_its_record() {
    check("fig13");
}

#[test]
fn fig17_matches_its_record() {
    check("fig17");
}

#[test]
fn fig18_matches_its_record() {
    check("fig18");
}

#[test]
fn fig19_matches_its_record() {
    check("fig19");
}

#[test]
fn fig20_matches_its_record() {
    check("fig20");
}

#[test]
fn table1_matches_its_record() {
    check("table1");
}

#[test]
fn table3_matches_its_record() {
    check("table3");
}

#[test]
fn fidelity_matches_its_record() {
    check("fidelity");
}

#[test]
fn the_diff_marks_changed_lines_with_context() {
    let want = "a\nb\nc\nd\ne\nf\ng\nh\n";
    let got = "a\nb\nc\nd\nE\nf\ng\nh\n";
    assert_eq!(diff(want, got), "…\n c\n d\n-e\n+E\n f\n g\n…\n");
    assert_eq!(diff("x\n", "x\ny\n"), " x\n+y\n");
    assert!(diff("x\n", "x\r\n").contains("line endings differ"));
}
