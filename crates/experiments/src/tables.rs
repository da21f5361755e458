//! Tables I–III of the paper.

use procrustes_core::report::{fmt_millions, Table};
use procrustes_sim::{area, ArchConfig};

use crate::ctx::ExpContext;
use crate::fig17_20_hw::network_mac_summary;
use crate::training::{Family, FAMILIES};

pub fn run_table1(ctx: &ExpContext) {
    let base = ArchConfig::procrustes_16x16();
    let mut t = Table::new(
        "Table I — hardware configuration (baseline + Procrustes deltas)",
        &["parameter", "value"],
    );
    t.row(&[
        "PEs",
        &format!("{} ({}x{})", base.pes(), base.rows, base.cols),
    ]);
    t.row(&["datatype", "32-bit floating point"]);
    t.row(&[
        "interconnect",
        "3x 1D-flow (H multicast, V multicast/collect, unicast)",
    ]);
    t.row(&["global buffer", &format!("{} KB", base.glb_bytes / 1024)]);
    t.row(&[
        "local buffer (RF)",
        &format!("{} B per PE", base.rf_words * 4),
    ]);
    t.row(&[
        "DRAM channel",
        &format!("{} bits/cycle", base.dram_bw_words * 32),
    ]);
    t.row(&["pruning type", "lowest accumulated gradients (Dropback)"]);
    t.row(&[
        "pseudo-RNG",
        "xorshift (Marsaglia 13/17/5), one WR unit per PE",
    ]);
    t.row(&[
        "quantile estimator",
        "DUMIQUE, max 4 requests/cycle (4-wide averaged)",
    ]);
    t.row(&[
        "dataflow",
        "optimal spatial-minibatch (K,N) via mapper search",
    ]);
    ctx.emit("table1", &t);
}

pub fn run_table2(ctx: &ExpContext) {
    let mut t = Table::new(
        "Table II — sparsity, footprint, MACs, and accuracy per network",
        &[
            "model",
            "dataset*",
            "dense size",
            "dense MACs",
            "sparse size",
            "sparse MACs",
            "sparsity",
            "dense acc",
            "pruned acc",
        ],
    );
    // Rows in increasing Table II sparsity factor (the registry's), each
    // family trained by Figs 15–16's recipe: its accuracies are the final
    // Fig 15/16 cells at that factor.
    let mut rows: Vec<(&Family, f64)> = FAMILIES
        .iter()
        .map(|family| {
            let factor = procrustes_core::paper_sparsity_factor(family.network)
                .expect("Table II factor exists for every paper network");
            (family, factor)
        })
        .collect();
    rows.sort_by(|a, b| a.1.total_cmp(&b.1));
    for (family, factor) in rows {
        let network = family.network;
        let (dw, dm, sw, sm) = network_mac_summary(network, factor, 7);
        let runs = family.train(ctx, &[factor]);
        let (dense_acc, sparse_acc) = (runs[0].accuracy(), runs[1].accuracy());
        t.row(&[
            network.to_string(),
            family.dataset().to_string(),
            fmt_millions(dw),
            fmt_millions(dm),
            fmt_millions(sw),
            fmt_millions(sm),
            format!("{:.1}x", dw as f64 / sw as f64),
            format!("{dense_acc:.3}"),
            format!("{sparse_acc:.3}"),
        ]);
    }
    ctx.emit("table2", &t);
    ctx.note(
        "*accuracies come from the tiny trainable variants on synthetic data \
         (the substitution documented in docs/PAPER_MAP.md); size/MAC columns use the full paper geometries",
    );
}

pub fn run_table3(ctx: &ExpContext) {
    let mut t = Table::new(
        "Table III — silicon area and power (45 nm; Procrustes units marked *)",
        &["component", "power (mW)", "area (um^2)"],
    );
    for c in area::PE_COMPONENTS
        .iter()
        .chain(area::SYSTEM_COMPONENTS.iter())
    {
        let marker = if c.procrustes_only { "*" } else { "" };
        t.row(&[
            format!("{}{marker}", c.name),
            format!("{:.2}", c.power_mw),
            format!("{:.2}", c.area_um2),
        ]);
    }
    ctx.emit("table3", &t);
    let (a, p) = area::overheads(256);
    ctx.note(&format!(
        "aggregate overhead over the dense accelerator at 256 PEs: {:.1}% area, {:.1}% power \
         (paper: 14% area, 11% power)",
        a * 100.0,
        p * 100.0
    ));
}
