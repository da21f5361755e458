//! Figs 17–20: the accelerator-model sweeps over the paper's five
//! full-size networks, each expressed as one [`Sweep`] declaration fed to
//! the shared engine, [`ExpContext::engine`].
//!
//! * Fig 17 — energy breakdown (DRAM/GLB/RF/MAC) under the `K,N`
//!   dataflow, dense vs sparse, per phase.
//! * Fig 18 — energy across the four dataflows (variation should be
//!   small: energy follows MAC counts, not mappings).
//! * Fig 19 — latency across dataflows (`K,N` fastest; `P,Q` slowest).
//! * Fig 20 — scalability from 16×16 to 32×32 PEs (energy ≈ constant;
//!   `K,N`/`C,N` latency scales near-ideally).
//!
//! Each figure keeps its historical mask seed so the emitted numbers are
//! identical to the pre-`Sweep` per-figure loops.

use procrustes_core::report::{fmt_cycles, fmt_joules, Table};
use procrustes_core::{EvalResult, MaskGenConfig, Scenario, SparsityGen, Sweep, PAPER_NETWORKS};
use procrustes_sim::{ArchConfig, Mapping, Phase};

use crate::ctx::ExpContext;

/// Picks the result matching a (network, mapping, dense/sparse) cell of a
/// figure; sweeps guarantee exactly one match per cell.
fn cell<'r>(
    results: &'r [EvalResult],
    network: &str,
    mapping: Mapping,
    dense: bool,
) -> &'r EvalResult {
    results
        .iter()
        .find(|r| {
            r.scenario.network == network
                && r.scenario.mapping == mapping
                && r.scenario.sparsity.is_dense() == dense
        })
        .expect("sweep covers every figure cell")
}

pub fn run_fig17(ctx: &ExpContext) {
    let scenarios = Sweep::new()
        .networks(PAPER_NETWORKS)
        .mappings([Mapping::KN])
        .sparsities([SparsityGen::Dense, SparsityGen::PaperSynthetic { seed: 1 }])
        .build()
        .expect("fig17 sweep is valid");
    let results = ctx.engine().run_all(&scenarios).expect("fig17 sweep runs");

    let mut t = Table::new(
        "Fig 17 — energy breakdown, K,N dataflow (per phase, dense vs sparse)",
        &[
            "network", "phase", "config", "DRAM", "GLB", "RF", "MAC", "total",
        ],
    );
    let mut savings = Vec::new();
    for network in PAPER_NETWORKS {
        let dense = cell(&results, network, Mapping::KN, true);
        let sparse = cell(&results, network, Mapping::KN, false);
        for phase in Phase::ALL {
            for (label, result) in [("dense", dense), ("sparse", sparse)] {
                let s = result.cost.phase(phase);
                t.row(&[
                    network.to_string(),
                    phase.label().to_string(),
                    label.to_string(),
                    fmt_joules(s.energy.dram_j),
                    fmt_joules(s.energy.glb_j),
                    fmt_joules(s.energy.rf_j),
                    fmt_joules(s.energy.mac_j),
                    fmt_joules(s.energy_j()),
                ]);
            }
        }
        savings.push((network, sparse.energy_saving_over(dense)));
    }
    ctx.emit("fig17", &t);
    let line = savings
        .iter()
        .map(|(n, s)| format!("{n}: {s:.2}x"))
        .collect::<Vec<_>>()
        .join(", ");
    ctx.note(&format!(
        "whole-network energy savings: {line} (paper: 2.27x-3.26x, ResNet18 highest)"
    ));
}

pub fn run_fig18(ctx: &ExpContext) {
    let scenarios = Sweep::new()
        .networks(PAPER_NETWORKS)
        .mappings(Mapping::ALL)
        .sparsities([SparsityGen::Dense, SparsityGen::PaperSynthetic { seed: 2 }])
        .build()
        .expect("fig18 sweep is valid");
    let results = ctx.engine().run_all(&scenarios).expect("fig18 sweep runs");

    let mut t = Table::new(
        "Fig 18 — energy across dataflows (total per mapping, dense vs sparse)",
        &["network", "mapping", "dense", "sparse", "sparse fw/bw/wu"],
    );
    for network in PAPER_NETWORKS {
        for mapping in Mapping::ALL {
            let dense = cell(&results, network, mapping, true);
            let sparse = cell(&results, network, mapping, false);
            let phases = Phase::ALL
                .iter()
                .map(|&p| fmt_joules(sparse.cost.phase(p).energy_j()))
                .collect::<Vec<_>>()
                .join(" / ");
            t.row(&[
                network.to_string(),
                mapping.label().to_string(),
                fmt_joules(dense.totals().energy_j()),
                fmt_joules(sparse.totals().energy_j()),
                phases,
            ]);
        }
    }
    ctx.emit("fig18", &t);
    ctx.note(
        "energy varies little across mappings (MAC/RF dominate and follow MAC counts), \
         while sparsity helps all mappings — the paper's §VI-D observation",
    );
}

pub fn run_fig19(ctx: &ExpContext) {
    let scenarios = Sweep::new()
        .networks(PAPER_NETWORKS)
        .mappings(Mapping::ALL)
        .sparsities([SparsityGen::Dense, SparsityGen::PaperSynthetic { seed: 3 }])
        .build()
        .expect("fig19 sweep is valid");
    let results = ctx.engine().run_all(&scenarios).expect("fig19 sweep runs");

    let mut t = Table::new(
        "Fig 19 — training latency across dataflows (cycles per iteration)",
        &["network", "mapping", "dense", "sparse", "sparse speedup"],
    );
    let mut kn_speedups = Vec::new();
    for network in PAPER_NETWORKS {
        for mapping in Mapping::ALL {
            let dense = cell(&results, network, mapping, true);
            let sparse = cell(&results, network, mapping, false);
            let speedup = sparse.speedup_over(dense);
            if mapping == Mapping::KN {
                // The headline comparison: sparse KN vs the dense
                // baseline's own best (KN) mapping.
                kn_speedups.push((network, speedup));
            }
            t.row(&[
                network.to_string(),
                mapping.label().to_string(),
                fmt_cycles(dense.totals().cycles),
                fmt_cycles(sparse.totals().cycles),
                format!("{speedup:.2}x"),
            ]);
        }
    }
    ctx.emit("fig19", &t);
    let line = kn_speedups
        .iter()
        .map(|(n, s)| format!("{n}: {s:.2}x"))
        .collect::<Vec<_>>()
        .join(", ");
    ctx.note(&format!(
        "K,N speedups over the dense baseline: {line} (paper: 2.28x-4x; K,N fastest overall, P,Q slowest)"
    ));
}

pub fn run_fig20(ctx: &ExpContext) {
    // Scaling to a 32-wide array needs a minibatch that can fill the
    // columns of the minibatch-spatial dataflows (§IV-C: training uses
    // batches of 32-64).
    const SCALE_BATCH: usize = 32;
    const SCALE_NETWORKS: [&str; 2] = ["ResNet18", "MobileNet v2"];
    let scenarios = Sweep::new()
        .networks(SCALE_NETWORKS)
        .arches([
            ArchConfig::procrustes_16x16(),
            ArchConfig::procrustes_32x32(),
        ])
        .mappings(Mapping::ALL)
        .batches([SCALE_BATCH])
        .sparsities([SparsityGen::PaperSynthetic { seed: 4 }])
        .build()
        .expect("fig20 sweep is valid");
    let results = ctx.engine().run_all(&scenarios).expect("fig20 sweep runs");

    let mut t = Table::new(
        "Fig 20 — scalability: 16x16 vs 32x32 PEs (sparse, per mapping)",
        &[
            "network",
            "mapping",
            "cycles 16x16",
            "cycles 32x32",
            "latency scaling",
            "energy 16x16",
            "energy 32x32",
        ],
    );
    let by_rows = |network: &str, mapping: Mapping, rows: usize| -> &EvalResult {
        results
            .iter()
            .find(|r| {
                r.scenario.network == network
                    && r.scenario.mapping == mapping
                    && r.scenario.arch.rows == rows
            })
            .expect("sweep covers both array sizes")
    };
    let mut kn_scaling = Vec::new();
    for network in SCALE_NETWORKS {
        for mapping in Mapping::ALL {
            let small = by_rows(network, mapping, 16);
            let big = by_rows(network, mapping, 32);
            let scaling = big.speedup_over(small);
            if mapping == Mapping::KN {
                kn_scaling.push((network, scaling));
            }
            t.row(&[
                network.to_string(),
                mapping.label().to_string(),
                fmt_cycles(small.totals().cycles),
                fmt_cycles(big.totals().cycles),
                format!("{scaling:.2}x"),
                fmt_joules(small.totals().energy_j()),
                fmt_joules(big.totals().energy_j()),
            ]);
        }
    }
    ctx.emit("fig20", &t);
    let line = kn_scaling
        .iter()
        .map(|(n, s)| format!("{n}: {s:.2}x"))
        .collect::<Vec<_>>()
        .join(", ");
    ctx.note(&format!(
        "K,N latency scaling on 4x the PEs: {line} (paper: ~3.9x near-ideal; energy ~unchanged)"
    ));
}

/// Shared with table2: dense/sparse footprint and MACs for `network`.
pub fn network_mac_summary(network: &str, factor: f64, seed: u64) -> (u64, u64, u64, u64) {
    let workloads = Scenario::builder(network)
        .batch(1)
        .synthetic(MaskGenConfig::paper_default(factor), seed)
        .build()
        .expect("table2 scenario is valid")
        .resolve_workloads()
        .expect("table2 workloads resolve");
    let dense_w: u64 = workloads.iter().map(|(t, _)| t.weights() as u64).sum();
    let dense_m: u64 = workloads
        .iter()
        .map(|(t, _)| t.dense_macs(Phase::Forward))
        .sum();
    let sparse_w: u64 = workloads.iter().map(|(_, sp)| sp.total_nnz()).sum();
    // Sparse forward MACs: each retained weight fires once per output
    // position (batch 1, matching Table II's per-sample MAC counts).
    let sparse_m: u64 = workloads
        .iter()
        .map(|(t, sp)| sp.total_nnz() * (t.p * t.q) as u64)
        .sum();
    (dense_w, dense_m, sparse_w, sparse_m)
}
