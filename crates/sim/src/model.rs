//! The analytical cost model: MACs, latency with load imbalance, memory
//! traffic with CSB overheads, bandwidth bounds, and energy.

use crate::energy::pj_to_j;
use crate::timing::{simulate_waves, Fidelity, Wave};
use crate::{
    balance, ArchConfig, EnergyBreakdown, LayerCost, LayerTask, Mapping, MaskSummary, Phase,
    SparsityInfo,
};

/// Load-balancing configuration for an evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BalanceMode {
    /// Tiles assigned in dense order; the slowest PE limits each wave
    /// (Fig 4b).
    None,
    /// Procrustes half-tile balancing along the sparse array dimension
    /// (§IV-C). For the `C,K` mapping this implies the complex
    /// interconnect of Fig 10 and balances across the whole array.
    HalfTile,
    /// Perfect balancing at zero cost — the idealized Fig 1 configuration.
    Ideal,
}

/// Evaluates one layer × one phase under a mapping with the analytic
/// latency model; the historical entry point of the simulator.
///
/// Equivalent to [`evaluate_layer_with`] at [`Fidelity::Analytic`].
///
/// # Panics
///
/// Panics if `sp` is inconsistent with `task` (see
/// [`SparsityInfo::validate`]) or the architecture is degenerate.
pub fn evaluate_layer(
    arch: &ArchConfig,
    task: &LayerTask,
    phase: Phase,
    mapping: Mapping,
    sp: &SparsityInfo,
    balance_mode: BalanceMode,
) -> LayerCost {
    evaluate_layer_with(
        arch,
        task,
        phase,
        mapping,
        sp,
        balance_mode,
        Fidelity::Analytic,
    )
}

/// Evaluates one layer × one phase under a mapping and an explicit
/// latency [`Fidelity`]; the main entry point of the simulator.
///
/// [`Fidelity::Analytic`] reproduces the closed-form model exactly;
/// [`Fidelity::TileTimed`] replays the actual per-PE tile schedule wave
/// by wave (see [`crate::timing`]). MAC counts, traffic, and energy are
/// fidelity-independent — only `cycles` and `utilization` change, and
/// tile-timed cycles are never below the analytic bound.
///
/// # Panics
///
/// Panics if `sp` is inconsistent with `task` (see
/// [`SparsityInfo::validate`]) or the architecture is degenerate.
pub fn evaluate_layer_with(
    arch: &ArchConfig,
    task: &LayerTask,
    phase: Phase,
    mapping: Mapping,
    sp: &SparsityInfo,
    balance_mode: BalanceMode,
    fidelity: Fidelity,
) -> LayerCost {
    arch.validate();
    let summary = MaskSummary::new(task, sp);
    evaluate_layer_summarized(
        arch,
        task,
        phase,
        mapping,
        sp,
        &summary,
        balance_mode,
        fidelity,
    )
}

/// [`evaluate_layer_with`] over a [`MaskSummary`] of `sp` built
/// beforehand: the entry point for a caller that costs one mask set many
/// times (every phase, mapping, balance mode and array of a sweep) and
/// so reduces it once. The result is the same, bit for bit.
///
/// The summary stands in for `sp` everywhere but the tile-timed,
/// unbalanced `C,K` wave plan, which lays out each PE's kernel, and the
/// first `C,K` request for each array shape, which builds the
/// summary's tile grid.
///
/// # Panics
///
/// Panics if `summary` was built for another geometry or kernel count
/// than `task` and `sp`. The caller has checked `arch` with
/// [`ArchConfig::validate`]; a degenerate one panics here on a division
/// by zero instead.
#[allow(clippy::too_many_arguments)] // evaluate_layer_with's arguments plus the summary
pub fn evaluate_layer_summarized(
    arch: &ArchConfig,
    task: &LayerTask,
    phase: Phase,
    mapping: Mapping,
    sp: &SparsityInfo,
    summary: &MaskSummary,
    balance_mode: BalanceMode,
    fidelity: Fidelity,
) -> LayerCost {
    summary.check(task, sp);
    let balance_mode = if arch.ideal {
        BalanceMode::Ideal
    } else {
        balance_mode
    };

    let macs = effective_macs(task, phase, sp, summary);
    let collect_waves = fidelity == Fidelity::TileTimed;
    let (compute_cycles, wave_overheads, rebuilt_tiles, waves) = latency(
        arch,
        task,
        phase,
        mapping,
        sp,
        summary,
        balance_mode,
        collect_waves,
    );
    let traffic = traffic(arch, task, phase, mapping, sp, summary, macs);
    let glb_cycles = traffic.glb_words.div_ceil(arch.glb_bw_words as u64);
    let dram_cycles = traffic.dram_words.div_ceil(arch.dram_bw_words as u64);
    let cycles = match fidelity {
        Fidelity::Analytic => compute_cycles.max(glb_cycles).max(dram_cycles).max(1),
        Fidelity::TileTimed => {
            simulate_waves(
                arch,
                &waves,
                traffic.glb_words,
                dram_cycles,
                traffic.weight_stream_words,
            )
            .cycles
        }
    };

    let e = &arch.energy;
    // RF activity: ~3 operand accesses per MAC (weight read, input read,
    // psum read-modify-write counted once) plus one write per word filled
    // from the GLB.
    let rf_accesses = 3 * macs + traffic.glb_words;
    let mut overhead_pj = 0.0;
    if !arch.ideal && sp.compressed {
        // Mask decode: every weight word consumed carries its mask read.
        overhead_pj += e.mask_pj * traffic.mask_words as f64;
        if phase == Phase::WeightUpdate {
            // The QE unit sees every produced gradient, 4-wide.
            overhead_pj += e.qe_pj * (task.weights() as f64 / 4.0);
        }
        if balance_mode == BalanceMode::HalfTile {
            overhead_pj += e.lb_pj * rebuilt_tiles as f64;
        }
    }
    let energy = EnergyBreakdown {
        mac_j: pj_to_j(e.mac_pj * macs as f64),
        rf_j: pj_to_j(e.rf_pj * rf_accesses as f64),
        glb_j: pj_to_j(e.glb_pj * traffic.glb_words as f64),
        dram_j: pj_to_j(e.dram_pj * traffic.dram_words as f64),
        overhead_j: pj_to_j(overhead_pj),
    };
    // Utilization against the *bounding* cycle count: a bandwidth-bound
    // layer's PEs are idle while the streams drain, so dividing by the
    // shorter compute-only window would report >100% effective
    // utilization relative to real elapsed time.
    let utilization = macs as f64 / (cycles.max(1) as f64 * arch.pes() as f64);

    LayerCost {
        name: task.name.as_str().into(),
        phase,
        mapping,
        fidelity,
        macs,
        cycles,
        compute_cycles,
        glb_cycles,
        dram_cycles,
        energy,
        utilization: utilization.min(1.0),
        wave_overheads: wave_overheads.into(),
        glb_words: traffic.glb_words,
        dram_words: traffic.dram_words,
    }
}

/// Sparse-aware MAC count (§II-B: weight sparsity gates fw/bw, input
/// activation sparsity gates wu; the back-propagated gradient is dense).
fn effective_macs(task: &LayerTask, phase: Phase, sp: &SparsityInfo, summary: &MaskSummary) -> u64 {
    let positions = task.batch as u64 * task.p as u64 * task.q as u64;
    match phase {
        Phase::Forward | Phase::Backward => summary.total_nnz() * positions,
        Phase::WeightUpdate => {
            let dense = task.dense_macs(phase) as f64;
            (dense * sp.act_in_density * sp.grad_density).round() as u64
        }
    }
}

// ---------------------------------------------------------------------------
// Latency
// ---------------------------------------------------------------------------

/// Whether the row units of a row-sparse case are output channels
/// (`K`) rather than input channels (`C`).
fn units_are_k(mapping: Mapping, phase: Phase) -> bool {
    match (mapping, phase) {
        (Mapping::KN, Phase::Forward) | (Mapping::CN, Phase::Backward) => true,
        (Mapping::KN, Phase::Backward) | (Mapping::CN, Phase::Forward) => false,
        _ => unreachable!("row units asked of a non-row-sparse case"),
    }
}

/// Compute-bound latency: waves of full-PE-array work, each bounded by its
/// slowest PE. Returns `(cycles, per-working-set overheads, rebuilt tile
/// count for balancer energy, wave plan)`.
///
/// The wave plan holds the *actual* per-PE tile assignments each wave
/// executes (unbalanced, half-tile-rebuilt, or ideal) and is only built
/// when `collect_waves` is set (the tile-timed fidelity); the analytic
/// cycle count always equals the sum of the plan's per-wave critical
/// paths, which is what lets the plan serve as the analytic model's
/// equivalence oracle.
#[allow(clippy::too_many_arguments)] // internal; mirrors evaluate_layer_summarized
fn latency(
    arch: &ArchConfig,
    task: &LayerTask,
    phase: Phase,
    mapping: Mapping,
    sp: &SparsityInfo,
    summary: &MaskSummary,
    mode: BalanceMode,
    collect_waves: bool,
) -> (u64, Vec<f32>, u64, Vec<Wave>) {
    let (rows, cols) = (arch.rows, arch.cols);
    let (d_row, d_col) = mapping.spatial_extents(task, phase);
    let row_tiles = d_row.div_ceil(rows);
    let col_tiles = d_col.div_ceil(cols);
    let mut waves: Vec<Wave> = Vec::new();

    if mapping.row_work_is_weight_sparse(phase) && mapping != Mapping::CK {
        // KN/CN forward & backward: work varies along the rows only.
        let units = summary.units(units_are_k(mapping, phase));
        // MACs per unit nonzero, per column PE, per wave: one sample's
        // output positions.
        let positions = (task.p * task.q) as u64;
        let mut cycles = 0u64;
        let mut overheads = Vec::with_capacity(row_tiles);
        let mut rebuilt = 0u64;
        for chunk in units.chunks(rows) {
            // When a chunk cannot fill the rows (few output channels, e.g.
            // DenseNet's growth-24 layers), the mapper folds output
            // positions across the idle rows — the "optimal tiling" step
            // of the minibatch-spatial dataflows.
            let fold = (rows / chunk.len()).max(1) as u64;
            let pos = positions.div_ceil(fold);
            let (wave_max, wave_mean) = match mode {
                BalanceMode::None => {
                    let max = chunk.iter().map(|u| u.total).max().unwrap_or(0);
                    let mean =
                        chunk.iter().map(|u| u.total).sum::<u64>() as f64 / chunk.len() as f64;
                    if collect_waves {
                        waves.push(Wave {
                            pe_cycles: chunk.iter().map(|u| u.total * pos).collect(),
                            weight_units: chunk.iter().map(|u| u.total).sum(),
                            repeat: col_tiles as u64,
                        });
                    }
                    (max, mean)
                }
                BalanceMode::HalfTile => {
                    rebuilt += chunk.len() as u64;
                    let halves: Vec<(u64, u64)> = chunk.iter().map(|u| u.halves()).collect();
                    let loads = balance::half_tile_pairs(&halves);
                    let max = loads.iter().copied().max().unwrap_or(0);
                    let mean = if loads.is_empty() {
                        0.0
                    } else {
                        loads.iter().sum::<u64>() as f64 / loads.len() as f64
                    };
                    if collect_waves {
                        waves.push(Wave {
                            weight_units: loads.iter().sum(),
                            pe_cycles: loads.into_iter().map(|l| l * pos).collect(),
                            repeat: col_tiles as u64,
                        });
                    }
                    (max, mean)
                }
                BalanceMode::Ideal => {
                    let sum = chunk.iter().map(|u| u.total).sum::<u64>();
                    let mean = sum as f64 / chunk.len() as f64;
                    let max = mean.ceil() as u64;
                    if collect_waves {
                        waves.push(Wave {
                            pe_cycles: vec![max * pos; chunk.len()],
                            weight_units: sum,
                            repeat: col_tiles as u64,
                        });
                    }
                    (max, mean)
                }
            };
            if wave_mean > 0.0 {
                overheads.push((wave_max as f64 / wave_mean - 1.0) as f32);
            } else {
                overheads.push(0.0);
            }
            cycles += wave_max * pos;
        }
        // Each row-chunk repeats for every minibatch column tile.
        (
            (cycles * col_tiles as u64).max(1),
            overheads,
            rebuilt * col_tiles as u64,
            waves,
        )
    } else if mapping == Mapping::CK && matches!(phase, Phase::Forward | Phase::Backward) {
        // Kernel-grid weight-stationary: per-PE work is one kernel's nnz;
        // imbalance across both array dimensions (Fig 4b).
        let positions = (task.batch * task.p * task.q) as u64;
        let grid = summary.tiles(sp, rows, cols);
        let mut plans = if collect_waves && mode == BalanceMode::None {
            ck_pe_cycles(task, sp, rows, cols, positions)
        } else {
            Vec::new()
        };
        let mut cycles = 0u64;
        let mut overheads = Vec::with_capacity(grid.tiles.len());
        let mut rebuilt = 0u64;
        for (t, tile) in grid.tiles.iter().enumerate() {
            let mean = tile.sum as f64 / tile.kernels.max(1) as f64;
            let wave_max = match mode {
                BalanceMode::None => tile.max,
                // Balancing C,K requires the complex all-to-all
                // interconnect; grant it near-perfect balance.
                BalanceMode::HalfTile | BalanceMode::Ideal => {
                    rebuilt += tile.kernels;
                    mean.ceil() as u64
                }
            };
            overheads.push(if mean > 0.0 {
                (tile.max as f64 / mean - 1.0) as f32
            } else {
                0.0
            });
            if collect_waves {
                let pe_cycles = if mode == BalanceMode::None {
                    std::mem::take(&mut plans[t])
                } else {
                    vec![wave_max * positions; tile.kernels as usize]
                };
                waves.push(Wave {
                    pe_cycles,
                    weight_units: tile.sum,
                    repeat: 1,
                });
            }
            cycles += wave_max * positions;
        }
        (cycles.max(1), overheads, rebuilt, waves)
    } else {
        // Uniform-work cases: all wu phases under KN/CN/CK, and every PQ
        // phase. Work per spatial position is equal; latency is bounded by
        // utilization only.
        let macs = effective_macs(task, phase, sp, summary);
        let per_position = macs as f64 / (d_row as f64 * d_col as f64);
        let wave_count = (row_tiles * col_tiles) as u64;
        let per_wave = (per_position.ceil() as u64).max(1);
        if collect_waves {
            let used = d_row.min(rows) * d_col.min(cols);
            waves.push(Wave {
                pe_cycles: vec![per_wave; used.max(1)],
                weight_units: 0,
                repeat: wave_count,
            });
        }
        let cycles = per_wave * wave_count;
        (cycles, vec![0.0; row_tiles * col_tiles], 0, waves)
    }
}

/// Each `C,K` tile's per-PE busy cycles (its kernel's nonzeros ×
/// `positions`), in wave order, each laid out as the wave plan has it:
/// input channels outer, output channels inner. One pass over
/// `kernel_nnz` in index order, a block of `cols` output channels at a
/// time.
pub(crate) fn ck_pe_cycles(
    task: &LayerTask,
    sp: &SparsityInfo,
    rows: usize,
    cols: usize,
    positions: u64,
) -> Vec<Vec<u64>> {
    let (c, k_rows) = (task.c, if task.depthwise { 1 } else { task.k });
    let per_row = k_rows.div_ceil(cols);
    let mut plans = vec![Vec::new(); c.div_ceil(rows) * per_row];
    for ck in 0..per_row {
        let block = ck * cols..((ck + 1) * cols).min(k_rows);
        let width = block.len();
        for (cr, plan) in plans.iter_mut().skip(ck).step_by(per_row).enumerate() {
            *plan = vec![0; rows.min(c - cr * rows) * width];
        }
        for (kj, ki) in block.enumerate() {
            let row = &sp.kernel_nnz[ki * c..(ki + 1) * c];
            for (cr, chunk) in row.chunks(rows).enumerate() {
                let plan = &mut plans[cr * per_row + ck];
                for (j, &v) in chunk.iter().enumerate() {
                    plan[j * width + kj] = u64::from(v) * positions;
                }
            }
        }
    }
    plans
}

// ---------------------------------------------------------------------------
// Traffic
// ---------------------------------------------------------------------------

struct Traffic {
    glb_words: u64,
    dram_words: u64,
    mask_words: u64,
    /// GLB words of the weight stream including refetch passes — the
    /// component of `glb_words` that varies wave-to-wave with sparsity
    /// (the tile-timed simulator apportions it by wave payload).
    weight_stream_words: u64,
}

/// Weight storage cost in 32-bit words, as `(total, mask)`: raw dense
/// words for the baseline accelerator, or CSB (packed values + 1-bit
/// masks packed across kernels + one pointer per kernel and a sentinel)
/// when compressed; the ideal configuration pays no format overhead.
/// The terms are `CsbTensor`'s `data_bytes`, `mask_bytes` and
/// `ptr_bytes` over four, an fc layer stored as its `[out, in, 1, 1]`
/// conv; `tests/end_to_end.rs` pins them on trained masks.
pub fn csb_words(
    task: &LayerTask,
    sp: &SparsityInfo,
    summary: &MaskSummary,
    ideal: bool,
) -> (u64, u64) {
    if !sp.compressed {
        return (task.weights() as u64, 0);
    }
    let nnz = summary.total_nnz();
    if ideal {
        return (nnz, 0);
    }
    let mask_bits = (task.kernels() * task.r * task.s) as u64;
    let mask_words = mask_bits.div_ceil(32);
    let ptr_words = task.kernels() as u64 + 1;
    (nnz + mask_words + ptr_words, mask_words)
}

fn traffic(
    arch: &ArchConfig,
    task: &LayerTask,
    phase: Phase,
    mapping: Mapping,
    sp: &SparsityInfo,
    summary: &MaskSummary,
    macs: u64,
) -> Traffic {
    let (d_row, d_col) = mapping.spatial_extents(task, phase);
    let row_tiles = d_row.div_ceil(arch.rows) as u64;
    let col_tiles = d_col.div_ceil(arch.cols) as u64;
    let waves = row_tiles * col_tiles;
    // Note: multicast (Figs 3/11 roles) is already embedded in the
    // footprint-based counting below — broadcast data is identical across
    // the group, so one GLB read per refetch pass serves the whole row or
    // column; unicast data differs per PE, so its footprint covers every
    // PE's share exactly once per pass.

    let dense_w = task.weights() as u64;
    let (sparse_w_words, mask_words) = csb_words(task, sp, summary, arch.ideal);
    let x_words = task.input_elems();
    let y_words = task.output_elems();

    // Per-phase operand sizes in words (GLB side).
    let (w_stream, in_stream, out_stream) = match phase {
        // fw: sparse weights stream in, dense iacts in, dense oacts out.
        Phase::Forward => (sparse_w_words, x_words, y_words),
        // bw: sparse (rotated) weights, dense ∂L/∂y in, dense ∂L/∂x out.
        Phase::Backward => (sparse_w_words, y_words, x_words),
        // wu: ALL weight gradients are produced and flow through the GLB
        // (the QE unit filters them GLB→DRAM); iacts are read compressed
        // (CSB-like, so density-scaled + masks), ∂L/∂y dense.
        Phase::WeightUpdate => {
            let x_sparse = if arch.ideal {
                (x_words as f64 * sp.act_in_density) as u64
            } else {
                (x_words as f64 * sp.act_in_density) as u64 + x_words.div_ceil(32)
            };
            (dense_w, x_sparse, y_words)
        }
    };

    // GLB→array refetch factors: a tensor is re-streamed once per tile of
    // the spatial loop dimension it does not depend on. Spatial multicast
    // means one GLB read serves the whole broadcast group. Depthwise
    // layers couple the channel dimensions one-to-one, so activations are
    // never re-streamed across channel tiles.
    let act_refetch_rows = if task.depthwise { 1 } else { row_tiles };
    let act_refetch_cols = if task.depthwise { 1 } else { col_tiles };
    let (w_refetch, in_refetch) = match (mapping, phase) {
        // K,N / C,N: weights re-stream per minibatch column tile; inputs
        // re-stream per row (channel) tile.
        (Mapping::KN | Mapping::CN, _) => (col_tiles, act_refetch_rows),
        // C,K weight-stationary: each kernel lives in exactly one PE
        // (read once); iacts re-stream per output-channel tile.
        (Mapping::CK, _) => (1, act_refetch_cols),
        // P,Q input-stationary: inputs read once; weights re-stream every
        // wave.
        (Mapping::PQ, _) => (waves, 1),
    };

    // Register-file capacity forces either psum spills (weights resident)
    // or weight re-streams (psums resident); the mapper picks the cheaper
    // (the "optimal dataflow via Timeloop" step; see `mapper`).
    let plan = crate::mapper::plan_rf(arch, task, w_stream, w_refetch, out_stream, d_row);
    let rf_spill = plan.spill_words;

    // Cross-PE partial-sum reduction when a mapping spatializes reduction
    // dimensions of the phase (P,Q during weight update): partials merge
    // through the GLB, once per column group.
    let reduction_spill = if mapping == Mapping::PQ && phase == Phase::WeightUpdate {
        let used_cols = d_col.min(arch.cols) as u64;
        2 * dense_w * used_cols
    } else {
        0
    };

    let glb_words =
        w_stream * w_refetch + in_stream * in_refetch + out_stream + rf_spill + reduction_spill;

    // DRAM traffic. Two regimes, take the max:
    //
    // * compulsory: each operand crosses DRAM at least once (for wu, only
    //   the surviving gradients reach DRAM — the QE unit discards the
    //   rest between GLB and DRAM);
    // * capacity-bound: with all on-chip storage (GLB + aggregate RF)
    //   treated as one fast memory of M words, any schedule of `macs`
    //   multiply-accumulates moves at least ~2·macs/√M operand words
    //   (the classic red-blue pebbling bound the Timeloop mapper
    //   approaches). Because it scales with the *effective* MACs, sparse
    //   workloads automatically move proportionally less.
    //
    // Activations cross DRAM in the zero-free compressed format of §IV-A
    // (density-scaled + 1 mask bit per element) — but gradients never do
    // (batch norm keeps ∂L/∂y dense, §II-B), and the dense baseline has
    // no compression support (`act_in_density == 1` leaves traffic
    // unchanged).
    let compress = |words: u64| -> u64 {
        if sp.act_in_density >= 1.0 {
            words
        } else {
            (words as f64 * sp.act_in_density) as u64 + words.div_ceil(32)
        }
    };
    let (w_dram, in_dram, out_dram) = match phase {
        // fw: iacts and oacts are activations (compressible).
        Phase::Forward => (w_stream, compress(x_words), compress(y_words)),
        // bw: both streamed tensors are gradients (dense).
        Phase::Backward => (w_stream, in_stream, out_stream),
        // wu: iacts compressed (already density-scaled at the GLB level);
        // ∂L/∂y was fetched by the fused backward pass of the same layer
        // and is reused from on-chip storage (no second DRAM trip); only
        // surviving gradients reach DRAM (QE filter).
        Phase::WeightUpdate => (sparse_w_words, compress(x_words), 0),
    };
    let compulsory = w_dram + in_dram + out_dram;
    let onchip_words = (arch.glb_bytes as u64 / 4) + (arch.rf_words * arch.pes()) as u64;
    let capacity_bound = (2.0 * macs as f64 / (onchip_words as f64).sqrt()) as u64;
    let dram_words = compulsory.max(capacity_bound);

    Traffic {
        glb_words,
        dram_words,
        mask_words: mask_words * w_refetch,
        weight_stream_words: w_stream * w_refetch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use procrustes_prng::{UniformRng, Xorshift64};

    fn task() -> LayerTask {
        LayerTask::conv("t", 16, 64, 128, 16, 16, 3, 1, 1)
    }

    fn skewed_sparsity(task: &LayerTask, keep: f64, seed: u64) -> SparsityInfo {
        // Lognormal-ish per-kernel nnz with mean keep·r·s.
        let mut rng = Xorshift64::new(seed);
        let cap = (task.r * task.s) as u32;
        let kernel_nnz = (0..task.kernels())
            .map(|_| {
                let g = (rng.next_f32() + rng.next_f32() + rng.next_f32() - 1.5) * 2.0;
                let v = (keep as f32 * cap as f32 * (1.0 + 0.8 * g)).round();
                (v.max(0.0) as u32).min(cap)
            })
            .collect();
        SparsityInfo {
            kernel_nnz,
            act_in_density: 0.5,
            grad_density: 1.0,
            compressed: true,
        }
    }

    #[test]
    fn dense_macs_match_formula() {
        let t = task();
        let arch = ArchConfig::procrustes_16x16();
        let sp = SparsityInfo::dense(&t);
        for phase in Phase::ALL {
            let c = evaluate_layer(&arch, &t, phase, Mapping::KN, &sp, BalanceMode::None);
            assert_eq!(c.macs, t.dense_macs(phase));
        }
    }

    #[test]
    fn sparsity_reduces_macs_cycles_energy() {
        let t = task();
        let arch = ArchConfig::procrustes_16x16();
        let dense = SparsityInfo::dense(&t);
        let sparse = SparsityInfo::uniform(&t, 0.2, 0.5);
        for phase in Phase::ALL {
            let cd = evaluate_layer(&arch, &t, phase, Mapping::KN, &dense, BalanceMode::None);
            let cs = evaluate_layer(
                &arch,
                &t,
                phase,
                Mapping::KN,
                &sparse,
                BalanceMode::HalfTile,
            );
            assert!(cs.macs < cd.macs, "{phase:?}");
            assert!(
                cs.cycles < cd.cycles,
                "{phase:?}: {} vs {}",
                cs.cycles,
                cd.cycles
            );
            assert!(cs.energy.total() < cd.energy.total(), "{phase:?}");
        }
    }

    #[test]
    fn dense_workload_has_no_imbalance() {
        let t = task();
        let arch = ArchConfig::procrustes_16x16();
        let sp = SparsityInfo::dense(&t);
        let c = evaluate_layer(
            &arch,
            &t,
            Phase::Forward,
            Mapping::KN,
            &sp,
            BalanceMode::None,
        );
        assert!(c.wave_overheads.iter().all(|&v| v == 0.0));
        assert!(c.utilization > 0.9, "util {}", c.utilization);
    }

    #[test]
    fn skewed_sparsity_causes_imbalance_and_balancing_fixes_it() {
        let t = task();
        let arch = ArchConfig::procrustes_16x16();
        let sp = skewed_sparsity(&t, 0.2, 3);
        let none = evaluate_layer(
            &arch,
            &t,
            Phase::Forward,
            Mapping::KN,
            &sp,
            BalanceMode::None,
        );
        let bal = evaluate_layer(
            &arch,
            &t,
            Phase::Forward,
            Mapping::KN,
            &sp,
            BalanceMode::HalfTile,
        );
        let worst_none = none.wave_overheads.iter().cloned().fold(0.0f32, f32::max);
        let worst_bal = bal.wave_overheads.iter().cloned().fold(0.0f32, f32::max);
        assert!(worst_none > 0.15, "unbalanced worst {worst_none}");
        assert!(worst_bal < worst_none, "{worst_bal} !< {worst_none}");
        assert!(bal.compute_cycles < none.compute_cycles);
    }

    #[test]
    fn ideal_mode_is_a_lower_bound() {
        let t = task();
        let ideal = ArchConfig::ideal_16x16();
        let real = ArchConfig::procrustes_16x16();
        let sp = skewed_sparsity(&t, 0.2, 5);
        for phase in Phase::ALL {
            for mapping in [Mapping::KN, Mapping::CN] {
                let ci = evaluate_layer(&ideal, &t, phase, mapping, &sp, BalanceMode::None);
                let cr = evaluate_layer(&real, &t, phase, mapping, &sp, BalanceMode::HalfTile);
                assert!(
                    ci.cycles <= cr.cycles,
                    "{phase:?}/{mapping:?}: ideal {} > real {}",
                    ci.cycles,
                    cr.cycles
                );
                assert!(ci.energy.total() <= cr.energy.total() * 1.0001);
            }
        }
    }

    #[test]
    fn pq_mapping_suffers_on_small_activations() {
        // A late layer with a 4x4 output map: PQ can use only 16 of 256
        // PEs; KN fills the array with K=512.
        let t = LayerTask::conv("late", 16, 256, 512, 4, 4, 3, 1, 1);
        let arch = ArchConfig::procrustes_16x16();
        let sp = SparsityInfo::dense(&t);
        let pq = evaluate_layer(
            &arch,
            &t,
            Phase::Forward,
            Mapping::PQ,
            &sp,
            BalanceMode::None,
        );
        let kn = evaluate_layer(
            &arch,
            &t,
            Phase::Forward,
            Mapping::KN,
            &sp,
            BalanceMode::None,
        );
        assert!(
            pq.compute_cycles > 5 * kn.compute_cycles,
            "pq {} vs kn {}",
            pq.compute_cycles,
            kn.compute_cycles
        );
        assert!(pq.utilization < 0.1);
    }

    #[test]
    fn ck_mapping_suffers_on_few_input_channels() {
        // First conv layer: C=3 uses 3 of 16 rows under C,K.
        let t = LayerTask::conv("first", 16, 3, 64, 32, 32, 3, 1, 1);
        let arch = ArchConfig::procrustes_16x16();
        let sp = SparsityInfo::dense(&t);
        let ck = evaluate_layer(
            &arch,
            &t,
            Phase::Forward,
            Mapping::CK,
            &sp,
            BalanceMode::None,
        );
        let kn = evaluate_layer(
            &arch,
            &t,
            Phase::Forward,
            Mapping::KN,
            &sp,
            BalanceMode::None,
        );
        assert!(ck.utilization < 0.25, "CK util {}", ck.utilization);
        assert!(ck.compute_cycles > 2 * kn.compute_cycles);
    }

    #[test]
    fn energy_is_mac_dominated_for_dense_fp32() {
        let t = task();
        let arch = ArchConfig::procrustes_16x16();
        let sp = SparsityInfo::dense(&t);
        let c = evaluate_layer(
            &arch,
            &t,
            Phase::Forward,
            Mapping::KN,
            &sp,
            BalanceMode::None,
        );
        assert!(c.energy.mac_j > c.energy.rf_j);
        assert!(c.energy.mac_j > c.energy.glb_j);
        assert!(c.energy.mac_j > c.energy.dram_j);
    }

    #[test]
    fn csb_overhead_is_charged_only_in_real_mode() {
        let t = task();
        let sp = SparsityInfo::uniform(&t, 0.2, 0.5);
        let real = evaluate_layer(
            &ArchConfig::procrustes_16x16(),
            &t,
            Phase::Forward,
            Mapping::KN,
            &sp,
            BalanceMode::HalfTile,
        );
        let ideal = evaluate_layer(
            &ArchConfig::ideal_16x16(),
            &t,
            Phase::Forward,
            Mapping::KN,
            &sp,
            BalanceMode::HalfTile,
        );
        assert!(real.glb_words > ideal.glb_words);
        assert!(real.energy.overhead_j > 0.0);
        assert_eq!(ideal.energy.overhead_j, 0.0);
    }

    #[test]
    fn wu_dram_traffic_is_filtered_by_qe() {
        let t = task();
        let arch = ArchConfig::procrustes_16x16();
        let dense = SparsityInfo::dense(&t);
        let sparse = SparsityInfo::uniform(&t, 0.1, 0.5);
        let cd = evaluate_layer(
            &arch,
            &t,
            Phase::WeightUpdate,
            Mapping::KN,
            &dense,
            BalanceMode::None,
        );
        let cs = evaluate_layer(
            &arch,
            &t,
            Phase::WeightUpdate,
            Mapping::KN,
            &sparse,
            BalanceMode::None,
        );
        assert!(cs.dram_words < cd.dram_words);
    }

    /// A Fig-5-style working set: a few dense filter rows among many
    /// decayed ones, interleaved so heavy and starved waves alternate
    /// (shared with the core integration tests).
    fn fig5_skewed_task() -> (LayerTask, SparsityInfo) {
        crate::timing::fig5_skewed_workload()
    }

    #[test]
    fn tile_timed_equals_analytic_on_dense_uniform_workloads() {
        // Uniform work makes every wave identical, so replaying the
        // schedule degenerates to the closed-form bound: the fidelities
        // must agree bit-for-bit across every phase and mapping.
        let t = task();
        let arch = ArchConfig::procrustes_16x16();
        let sp = SparsityInfo::dense(&t);
        for phase in Phase::ALL {
            for mapping in Mapping::ALL {
                let a = evaluate_layer(&arch, &t, phase, mapping, &sp, BalanceMode::None);
                let tt = evaluate_layer_with(
                    &arch,
                    &t,
                    phase,
                    mapping,
                    &sp,
                    BalanceMode::None,
                    Fidelity::TileTimed,
                );
                assert_eq!(
                    a.cycles, tt.cycles,
                    "{phase:?}/{mapping:?}: analytic {} vs tile-timed {}",
                    a.cycles, tt.cycles
                );
                // Everything but the latency model's output is shared.
                assert_eq!(a.macs, tt.macs);
                assert_eq!(a.compute_cycles, tt.compute_cycles);
                assert_eq!(a.glb_words, tt.glb_words);
                assert_eq!(a.energy, tt.energy);
                assert_eq!(tt.fidelity, Fidelity::TileTimed);
            }
        }
    }

    #[test]
    fn tile_timed_diverges_on_fig5_skewed_sparsity() {
        // Decayed waves finish before the GLB port can stage the next
        // working set: the replay sees pipeline bubbles the closed-form
        // max(compute, bandwidth) provably cannot.
        let (t, sp) = fig5_skewed_task();
        let arch = ArchConfig::procrustes_16x16();
        let a = evaluate_layer(
            &arch,
            &t,
            Phase::Forward,
            Mapping::KN,
            &sp,
            BalanceMode::None,
        );
        let tt = evaluate_layer_with(
            &arch,
            &t,
            Phase::Forward,
            Mapping::KN,
            &sp,
            BalanceMode::None,
            Fidelity::TileTimed,
        );
        assert_eq!(a.compute_cycles, tt.compute_cycles);
        assert!(
            tt.cycles > a.cycles,
            "tile-timed {} must exceed analytic {} on the skewed set",
            tt.cycles,
            a.cycles
        );
        // Same workload, dense weights: no divergence (control).
        let dense = SparsityInfo::dense(&t);
        let ad = evaluate_layer(
            &arch,
            &t,
            Phase::Forward,
            Mapping::KN,
            &dense,
            BalanceMode::None,
        );
        let td = evaluate_layer_with(
            &arch,
            &t,
            Phase::Forward,
            Mapping::KN,
            &dense,
            BalanceMode::None,
            Fidelity::TileTimed,
        );
        assert_eq!(ad.cycles, td.cycles);
    }

    #[test]
    fn tile_timed_never_beats_analytic() {
        // The analytic model is a true lower bound: replaying the
        // schedule can only add stalls, for every mode/phase/mapping.
        let t = task();
        let arch = ArchConfig::procrustes_16x16();
        let (ts, skew) = fig5_skewed_task();
        let uniform = SparsityInfo::uniform(&t, 0.2, 0.5);
        let cases: [(&LayerTask, &SparsityInfo); 3] =
            [(&t, &SparsityInfo::dense(&t)), (&t, &uniform), (&ts, &skew)];
        for (task, sp) in cases {
            for phase in Phase::ALL {
                for mapping in Mapping::ALL {
                    for mode in [BalanceMode::None, BalanceMode::HalfTile, BalanceMode::Ideal] {
                        let a = evaluate_layer(&arch, task, phase, mapping, sp, mode);
                        let tt = evaluate_layer_with(
                            &arch,
                            task,
                            phase,
                            mapping,
                            sp,
                            mode,
                            Fidelity::TileTimed,
                        );
                        assert!(
                            tt.cycles >= a.cycles,
                            "{phase:?}/{mapping:?}/{mode:?}: timed {} < analytic {}",
                            tt.cycles,
                            a.cycles
                        );
                        assert_eq!(a.compute_cycles, tt.compute_cycles);
                        assert!(tt.utilization <= a.utilization + 1e-12);
                    }
                }
            }
        }
    }

    #[test]
    fn half_tile_balancing_still_helps_under_tile_timing() {
        let (t, sp) = fig5_skewed_task();
        let arch = ArchConfig::procrustes_16x16();
        let none = evaluate_layer_with(
            &arch,
            &t,
            Phase::Forward,
            Mapping::KN,
            &sp,
            BalanceMode::None,
            Fidelity::TileTimed,
        );
        let bal = evaluate_layer_with(
            &arch,
            &t,
            Phase::Forward,
            Mapping::KN,
            &sp,
            BalanceMode::HalfTile,
            Fidelity::TileTimed,
        );
        assert!(
            bal.cycles <= none.cycles,
            "balanced {} vs unbalanced {}",
            bal.cycles,
            none.cycles
        );
    }

    #[test]
    fn bandwidth_bound_utilization_uses_elapsed_cycles() {
        // Starve DRAM so the layer is memory-bound: utilization must be
        // measured against the (longer) bounding cycle count, keeping
        // macs <= utilization * cycles * PEs an identity.
        let t = task();
        let mut arch = ArchConfig::procrustes_16x16();
        arch.dram_bw_words = 1;
        let sp = SparsityInfo::dense(&t);
        let c = evaluate_layer(
            &arch,
            &t,
            Phase::Forward,
            Mapping::KN,
            &sp,
            BalanceMode::None,
        );
        assert!(
            c.dram_cycles > c.compute_cycles,
            "test arch must be memory-bound ({} vs {})",
            c.dram_cycles,
            c.compute_cycles
        );
        assert_eq!(c.cycles, c.dram_cycles);
        let expected = c.macs as f64 / (c.cycles as f64 * arch.pes() as f64);
        assert!((c.utilization - expected).abs() < 1e-12);
        // The old compute-cycle denominator would claim higher effective
        // utilization than the array achieves over its real elapsed time.
        let old = c.macs as f64 / (c.compute_cycles as f64 * arch.pes() as f64);
        assert!(c.utilization < old, "{} vs {}", c.utilization, old);
    }

    #[test]
    fn scaling_to_1024_pes_speeds_up_kn() {
        let t = LayerTask::conv("big", 32, 128, 256, 28, 28, 3, 1, 1);
        let sp = SparsityInfo::uniform(&t, 0.2, 0.5);
        let small = evaluate_layer(
            &ArchConfig::procrustes_16x16(),
            &t,
            Phase::Forward,
            Mapping::KN,
            &sp,
            BalanceMode::HalfTile,
        );
        let big = evaluate_layer(
            &ArchConfig::procrustes_32x32(),
            &t,
            Phase::Forward,
            Mapping::KN,
            &sp,
            BalanceMode::HalfTile,
        );
        let speedup = small.cycles as f64 / big.cycles as f64;
        assert!(speedup > 2.5, "speedup {speedup}");
        // Energy is nearly unchanged (same MAC count).
        let ratio = big.energy.total() / small.energy.total();
        assert!((0.8..1.25).contains(&ratio), "energy ratio {ratio}");
    }
}
