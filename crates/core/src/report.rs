//! Plain-text table and CSV rendering for the experiment harness.

use std::fmt::Write as _;

use crate::engine::{balance_label, EvalResult};
use crate::Scenario;

/// A simple column-aligned table with a title, rendered as text or CSV.
///
/// # Examples
///
/// ```
/// use procrustes_core::report::Table;
/// let mut t = Table::new("demo", &["network", "energy (J)"]);
/// t.row(&["VGG-S", "0.42"]);
/// let text = t.render();
/// assert!(text.contains("VGG-S"));
/// assert!(t.to_csv().starts_with("network,energy (J)"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the column count differs from the header.
    pub fn row(&mut self, cells: &[impl AsRef<str>]) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row has {} cells, header has {}",
            cells.len(),
            self.headers.len()
        );
        self.rows
            .push(cells.iter().map(|c| c.as_ref().to_string()).collect());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as aligned text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Renders the table as RFC-4180 CSV (header + rows). Cells
    /// containing a comma, double quote, or line break are quoted, with
    /// embedded quotes doubled, so hostile layer/scenario names (sparsity
    /// labels already contain commas) survive a round trip instead of
    /// silently corrupting the column structure.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", csv_line(&self.headers));
        for row in &self.rows {
            let _ = writeln!(out, "{}", csv_line(row));
        }
        out
    }
}

/// Joins cells into one CSV record with RFC-4180 quoting.
fn csv_line(cells: &[String]) -> String {
    cells
        .iter()
        .map(|c| csv_field(c))
        .collect::<Vec<_>>()
        .join(",")
}

/// Quotes a single CSV field when its content requires it.
fn csv_field(cell: &str) -> String {
    if cell.contains(['"', ',', '\n', '\r']) {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_string()
    }
}

/// Formats joules with an engineering prefix (`1.23 mJ`).
pub fn fmt_joules(j: f64) -> String {
    let (val, unit) = if j >= 1.0 {
        (j, "J")
    } else if j >= 1e-3 {
        (j * 1e3, "mJ")
    } else if j >= 1e-6 {
        (j * 1e6, "µJ")
    } else {
        (j * 1e9, "nJ")
    };
    format!("{val:.3} {unit}")
}

/// Formats a cycle count with an engineering suffix (`4.30 Gcyc`).
pub fn fmt_cycles(c: u64) -> String {
    let c = c as f64;
    if c >= 1e9 {
        format!("{:.3} Gcyc", c / 1e9)
    } else if c >= 1e6 {
        format!("{:.3} Mcyc", c / 1e6)
    } else if c >= 1e3 {
        format!("{:.3} kcyc", c / 1e3)
    } else {
        format!("{c:.0} cyc")
    }
}

/// Formats a silicon area given in µm² at chip scale (`84.64 mm²`).
fn fmt_area(um2: f64) -> String {
    format!("{:.2} mm²", um2 / 1e6)
}

/// Formats power given in milliwatts (`6.71 W`, `77.17 mW`).
fn fmt_power(mw: f64) -> String {
    if mw >= 1e3 {
        format!("{:.2} W", mw / 1e3)
    } else {
        format!("{mw:.2} mW")
    }
}

/// Formats a count in millions (`11.7M`).
pub fn fmt_millions(n: u64) -> String {
    if n >= 1_000_000_000 {
        format!("{:.2}G", n as f64 / 1e9)
    } else if n >= 1_000_000 {
        format!("{:.2}M", n as f64 / 1e6)
    } else if n >= 1_000 {
        format!("{:.1}k", n as f64 / 1e3)
    } else {
        n.to_string()
    }
}

/// Renders engine results as one table row per scenario: identity
/// columns (network, mapping, batch, sparsity, balance, compute,
/// fidelity) followed by the totals (MACs, cycles, energy) and the
/// silicon budget of the scenario's architecture (area, power — the
/// Table III model via [`procrustes_sim::area::arch_budget`]).
///
/// # Examples
///
/// ```
/// use procrustes_core::report::results_table;
/// use procrustes_core::{Engine, Scenario};
///
/// let r = Engine::serial()
///     .run(&Scenario::builder("VGG-S").batch(2).build().unwrap())
///     .unwrap();
/// let t = results_table("demo", &[r]);
/// assert_eq!(t.len(), 1);
/// assert!(t.to_csv().contains("VGG-S"));
/// ```
pub fn results_table(title: impl Into<String>, results: &[EvalResult]) -> Table {
    let mut t = Table::new(title, &RESULTS_HEADER);
    for r in results {
        let totals = r.totals();
        t.row(&results_row(
            &r.scenario,
            totals.macs,
            totals.cycles,
            totals.energy_j(),
        ));
    }
    t
}

/// The columns of [`results_table`].
pub const RESULTS_HEADER: [&str; 12] = [
    "network", "mapping", "batch", "sparsity", "balance", "compute", "fidelity", "MACs", "cycles",
    "energy", "area", "power",
];

/// One [`results_table`] row: the scenario's columns, the given totals,
/// and its architecture's silicon budget. Anything that holds only a
/// result's scenario and totals — a served document, say — renders the
/// same row as the in-process result.
pub fn results_row(scenario: &Scenario, macs: u64, cycles: u64, energy_j: f64) -> [String; 12] {
    let budget = procrustes_sim::area::arch_budget(&scenario.arch);
    [
        scenario.network.clone(),
        scenario.mapping.label().to_string(),
        scenario.batch.to_string(),
        scenario.sparsity.label(),
        balance_label(scenario.balance).to_string(),
        scenario.compute.label(),
        scenario.fidelity.label().to_string(),
        fmt_millions(macs),
        fmt_cycles(cycles),
        fmt_joules(energy_j),
        fmt_area(budget.area_um2),
        fmt_power(budget.power_mw),
    ]
}

/// CSV emission of [`results_table`] (header plus one row per scenario).
pub fn results_csv(results: &[EvalResult]) -> String {
    results_table("results", results).to_csv()
}

/// Builds a text histogram (Fig 5/13 style): bucketed fractions of
/// working sets by overhead percentage.
pub fn overhead_histogram(overheads: &[f32], buckets: usize, max_pct: f64) -> Table {
    assert!(buckets > 0, "need at least one bucket");
    let mut counts = vec![0usize; buckets + 1]; // +1 overflow bucket
    for &o in overheads {
        let pct = f64::from(o) * 100.0;
        let idx = ((pct / max_pct) * buckets as f64).floor() as usize;
        counts[idx.min(buckets)] += 1;
    }
    let total = overheads.len().max(1);
    let mut t = Table::new(
        "load-imbalance histogram (fraction of working sets)",
        &["overhead", "fraction", "bar"],
    );
    for (i, &c) in counts.iter().enumerate() {
        let lo = i as f64 * max_pct / buckets as f64;
        let label = if i == buckets {
            format!(">{max_pct:.0}%")
        } else {
            format!("{lo:.0}%")
        };
        let frac = c as f64 / total as f64;
        let bar = "#".repeat((frac * 50.0).round() as usize);
        t.row(&[label, format!("{:.1}%", frac * 100.0), bar]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("t", &["a", "bbbb"]);
        t.row(&["1", "2"]);
        t.row(&["333", "4"]);
        let text = t.render();
        assert!(text.contains("== t =="));
        assert!(text.lines().count() >= 4);
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "row has 1 cells")]
    fn row_length_checked() {
        Table::new("t", &["a", "b"]).row(&["only one"]);
    }

    #[test]
    fn csv_roundtrip_structure() {
        let mut t = Table::new("t", &["x", "y"]);
        t.row(&["1", "2"]);
        let csv = t.to_csv();
        assert_eq!(csv.lines().count(), 2);
        assert_eq!(csv.lines().next().unwrap(), "x,y");
    }

    /// A minimal RFC-4180 reader (quoted fields, doubled quotes,
    /// embedded separators/newlines) used to prove the writer's output
    /// parses back to the original cells.
    fn parse_csv(text: &str) -> Vec<Vec<String>> {
        let mut records = vec![vec![String::new()]];
        let mut quoted = false;
        let mut chars = text.chars().peekable();
        while let Some(c) = chars.next() {
            let row = records.last_mut().unwrap();
            match c {
                '"' if quoted && chars.peek() == Some(&'"') => {
                    chars.next();
                    row.last_mut().unwrap().push('"');
                }
                '"' => quoted = !quoted,
                ',' if !quoted => row.push(String::new()),
                '\n' if !quoted => records.push(vec![String::new()]),
                '\r' if !quoted => {}
                c => row.last_mut().unwrap().push(c),
            }
        }
        records.retain(|r| !(r.len() == 1 && r[0].is_empty()));
        records
    }

    #[test]
    fn csv_quotes_hostile_cells_and_round_trips() {
        let hostile = [
            "plain",
            "comma, separated",
            "quote \"inside\"",
            "both, \"of\" them",
            "line\nbreak",
            "trailing\r",
            "sparse(paper,seed=7)", // a real sparsity label
            "\"leading quote",
        ];
        let mut t = Table::new("hostile", &["name", "value"]);
        for (i, name) in hostile.iter().enumerate() {
            t.row(&[name.to_string(), i.to_string()]);
        }
        let csv = t.to_csv();
        let parsed = parse_csv(&csv);
        assert_eq!(parsed.len(), hostile.len() + 1, "{csv}");
        assert_eq!(parsed[0], vec!["name", "value"]);
        for (i, name) in hostile.iter().enumerate() {
            assert_eq!(parsed[i + 1][0], *name, "row {i} corrupted: {csv}");
            assert_eq!(parsed[i + 1][1], i.to_string());
            assert_eq!(parsed[i + 1].len(), 2, "row {i} split: {csv}");
        }
        // Unquoted simple cells stay bare (no spurious quoting).
        assert!(csv.lines().nth(1).unwrap().starts_with("plain,0"));
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_joules(1.5), "1.500 J");
        assert_eq!(fmt_joules(0.0015), "1.500 mJ");
        assert_eq!(fmt_cycles(4_300_000_000), "4.300 Gcyc");
        assert_eq!(fmt_cycles(12), "12 cyc");
        assert_eq!(fmt_millions(11_700_000), "11.70M");
        assert_eq!(fmt_area(84_644_069.21), "84.64 mm²");
        assert_eq!(fmt_power(6707.0), "6.71 W");
        assert_eq!(fmt_power(77.17), "77.17 mW");
    }

    #[test]
    fn histogram_buckets_sum_to_one() {
        let overheads = vec![0.0f32, 0.05, 0.31, 0.62, 1.5];
        let t = overhead_histogram(&overheads, 4, 125.0);
        // 4 buckets + overflow
        assert_eq!(t.len(), 5);
        let csv = t.to_csv();
        let total: f64 = csv
            .lines()
            .skip(1)
            .map(|l| {
                l.split(',')
                    .nth(1)
                    .unwrap()
                    .trim_end_matches('%')
                    .parse::<f64>()
                    .unwrap()
            })
            .sum();
        assert!((total - 100.0).abs() < 0.5, "total {total}");
    }
}
