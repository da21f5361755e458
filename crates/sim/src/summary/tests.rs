//! Every field of a [`MaskSummary`] against the direct reductions
//! it replaces, on seeded masks over ragged conv, depthwise and `1×1`
//! fc layers.

use super::oracle;
use super::*;
use crate::{evaluate_layer_summarized, evaluate_layer_with, ArchConfig, BalanceMode, Fidelity};
use crate::{Mapping, Phase};
use procrustes_prng::{UniformRng, Xorshift64};

/// Seeded per-kernel counts in `[0, R·S]`, with every fifth output
/// channel emptied so some units and tiles are zero.
fn seeded(task: &LayerTask, seed: u64) -> SparsityInfo {
    let mut rng = Xorshift64::new(seed);
    let cap = (task.r * task.s) as u64;
    let c = task.c.max(1);
    let kernel_nnz = (0..task.kernels())
        .map(|i| {
            let draw = rng.next_below(cap + 1) as u32;
            if !task.depthwise && (i / c) % 5 == 4 {
                0
            } else {
                draw
            }
        })
        .collect();
    SparsityInfo {
        kernel_nnz,
        act_in_density: 0.6,
        grad_density: 1.0,
        compressed: true,
    }
}

/// Ragged conv layers (odd `C` and `K`, multiples of neither array
/// side), depthwise layers and `1×1` fc layers.
fn layers() -> Vec<LayerTask> {
    vec![
        LayerTask::conv("ragged", 2, 37, 53, 8, 8, 3, 1, 1),
        LayerTask::conv("one_in", 2, 1, 19, 8, 8, 3, 1, 1),
        LayerTask::conv("one_out", 2, 45, 1, 8, 8, 5, 1, 2),
        LayerTask::conv("wide", 2, 129, 7, 4, 4, 3, 1, 1),
        LayerTask::depthwise("dw", 2, 45, 8, 8, 3, 1, 1),
        LayerTask::depthwise("dw_small", 2, 3, 8, 8, 5, 1, 2),
        LayerTask::fc("fc", 4, 77, 10),
        LayerTask::fc("fc_tall", 4, 9, 301),
    ]
}

/// The two array shapes of the checks: the paper's square array and a
/// non-square one whose sides divide none of the layers.
const SHAPES: [(usize, usize); 2] = [(16, 16), (8, 32)];

fn as_pairs(units: &[Unit]) -> Vec<(u64, (u64, u64))> {
    units.iter().map(|u| (u.total, u.halves())).collect()
}

fn as_triples(grid: &TileGrid) -> Vec<(u64, u64, u64)> {
    grid.tiles
        .iter()
        .map(|t| (t.kernels, t.max, t.sum))
        .collect()
}

/// The direct tile gather reduced to `(kernels, max, sum)`.
fn oracle_triples(
    task: &LayerTask,
    sp: &SparsityInfo,
    rows: usize,
    cols: usize,
) -> Vec<(u64, u64, u64)> {
    oracle::ck_tiles(task, sp, rows, cols)
        .iter()
        .map(|works| {
            let max = works.iter().copied().max().unwrap_or(0);
            (works.len() as u64, max, works.iter().sum())
        })
        .collect()
}

#[test]
fn every_summary_field_equals_the_direct_reductions() {
    for (i, task) in layers().iter().enumerate() {
        let sp = seeded(task, 100 + i as u64);
        let summary = MaskSummary::new(task, &sp);
        assert_eq!(summary.total_nnz(), sp.total_nnz(), "{}", task.name);
        for units_are_k in [true, false] {
            assert_eq!(
                as_pairs(summary.units(units_are_k)),
                oracle::row_units(task, units_are_k, &sp),
                "{} units_are_k={units_are_k}",
                task.name
            );
        }
        for (rows, cols) in SHAPES {
            let grid = summary.tiles(&sp, rows, cols);
            assert_eq!((grid.rows, grid.cols), (rows, cols));
            assert_eq!(
                as_triples(&grid),
                oracle_triples(task, &sp, rows, cols),
                "{} on {rows}x{cols}",
                task.name
            );
        }
    }
}

#[test]
fn the_per_pe_wave_plan_is_the_strided_gather() {
    for (i, task) in layers().iter().enumerate() {
        let sp = seeded(task, 400 + i as u64);
        for (rows, cols) in SHAPES {
            let positions = 7;
            let expected: Vec<Vec<u64>> = oracle::ck_tiles(task, &sp, rows, cols)
                .into_iter()
                .map(|works| works.into_iter().map(|w| w * positions).collect())
                .collect();
            assert_eq!(
                crate::model::ck_pe_cycles(task, &sp, rows, cols, positions),
                expected,
                "{} on {rows}x{cols}",
                task.name
            );
        }
    }
}

#[test]
fn the_fused_fingerprint_is_the_descriptor_fingerprint() {
    for (i, task) in layers().iter().enumerate() {
        for sp in [
            seeded(task, 200 + i as u64),
            SparsityInfo::dense(task),
            SparsityInfo::uniform(task, 0.3, 0.5),
        ] {
            let (summary, fp) = MaskSummary::with_fingerprint(task, &sp);
            assert_eq!(fp, sp.fingerprint(), "{}", task.name);
            assert_eq!(
                as_pairs(summary.units(true)),
                as_pairs(MaskSummary::new(task, &sp).units(true))
            );
        }
    }
    // The golden descriptor of `fingerprint.rs`, reached through the
    // fused pass.
    let task = LayerTask::conv("conv3_1", 16, 128, 256, 8, 8, 3, 1, 1);
    let sp = SparsityInfo::uniform(&task, 0.5, 0.8);
    assert_eq!(
        MaskSummary::with_fingerprint(&task, &sp).1,
        0xaf7b_346d_23e9_e6b8
    );
}

#[test]
fn one_summary_keeps_each_array_shape_its_own_tile_grid() {
    let task = LayerTask::conv("ragged", 2, 37, 53, 8, 8, 3, 1, 1);
    let sp = seeded(&task, 7);
    let expected: Vec<_> = SHAPES
        .iter()
        .map(|&(rows, cols)| oracle_triples(&task, &sp, rows, cols))
        .collect();
    assert_ne!(expected[0], expected[1], "the shapes must tile differently");
    // Both orders of first request, each shape asked twice.
    for order in [[0, 1, 0, 1], [1, 0, 1, 0]] {
        let summary = MaskSummary::new(&task, &sp);
        for i in order {
            let (rows, cols) = SHAPES[i];
            let grid = summary.tiles(&sp, rows, cols);
            assert_eq!((grid.rows, grid.cols), (rows, cols));
            assert_eq!(as_triples(&grid), expected[i], "{rows}x{cols}");
        }
        assert_eq!(summary.tiles.lock().unwrap().len(), 2, "one grid per shape");
    }
}

#[test]
fn the_summarized_entry_point_costs_what_the_plain_one_does() {
    let arches = [ArchConfig::procrustes_16x16(), ArchConfig::ideal_16x16()];
    for (i, task) in layers().iter().enumerate() {
        let sp = seeded(task, 300 + i as u64);
        let summary = MaskSummary::new(task, &sp);
        for arch in &arches {
            for phase in Phase::ALL {
                for mapping in Mapping::ALL {
                    for mode in [BalanceMode::None, BalanceMode::HalfTile, BalanceMode::Ideal] {
                        for fidelity in Fidelity::ALL {
                            assert_eq!(
                                evaluate_layer_summarized(
                                    arch, task, phase, mapping, &sp, &summary, mode, fidelity
                                ),
                                evaluate_layer_with(
                                    arch, task, phase, mapping, &sp, mode, fidelity
                                ),
                                "{} {phase:?} {mapping:?} {mode:?} {fidelity:?}",
                                task.name
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
#[should_panic(expected = "kernel nnz exceeds 9 for ragged")]
fn a_summary_refuses_a_kernel_over_its_capacity() {
    let task = LayerTask::conv("ragged", 2, 37, 53, 8, 8, 3, 1, 1);
    let mut sp = seeded(&task, 1);
    sp.kernel_nnz[task.kernels() - 1] = 10;
    MaskSummary::new(&task, &sp);
}

#[test]
#[should_panic(expected = "length mismatch")]
fn a_summary_refuses_a_set_of_the_wrong_length() {
    let task = LayerTask::fc("fc", 4, 77, 10);
    let mut sp = seeded(&task, 1);
    sp.kernel_nnz.pop();
    MaskSummary::new(&task, &sp);
}

#[test]
#[should_panic(expected = "mask summary does not describe")]
fn the_summarized_entry_point_refuses_another_layers_summary() {
    let task = LayerTask::conv("ragged", 2, 37, 53, 8, 8, 3, 1, 1);
    let other = LayerTask::conv("other", 2, 53, 37, 8, 8, 3, 1, 1);
    let sp = seeded(&task, 1);
    let summary = MaskSummary::new(&other, &seeded(&other, 1));
    evaluate_layer_summarized(
        &ArchConfig::procrustes_16x16(),
        &task,
        Phase::Forward,
        Mapping::KN,
        &sp,
        &summary,
        BalanceMode::None,
        Fidelity::Analytic,
    );
}
