//! Seeded property tests for the half-tile balancer and the cost model
//! around it: fixed seeds, `Xorshift64` draws, the failing round or
//! seed in every assert message. The balancer invariants then serve as
//! the equivalence oracle for the tile-timed wave scheduler: the
//! schedule it replays must be built from exactly the rebuilt tile loads
//! the balancer produces, so its per-wave critical-path sum must equal
//! the analytic compute bound for every balancing mode. The last three
//! tests pin the model's ordering laws (sparse ≤ dense, ideal ≤ real,
//! balanced ≤ unbalanced) over random conv layers.

use procrustes_prng::{UniformRng, Xorshift64};
use procrustes_sim::{
    balanced_assignment, evaluate_layer, evaluate_layer_with, half_tile_pairs, imbalance_overhead,
    ArchConfig, BalanceMode, Fidelity, LayerTask, Mapping, Phase, SparsityInfo,
};

fn random_halves(rng: &mut Xorshift64, tiles: usize, cap: u64) -> Vec<(u64, u64)> {
    (0..tiles)
        .map(|_| (rng.next_below(cap), rng.next_below(cap)))
        .collect()
}

/// Work conservation: the rebuilt tiles hold exactly the input work, for
/// every set size (odd and even) and any half split, including tiles
/// whose odd nonzero count splits unevenly.
#[test]
fn pairing_conserves_work_across_random_sets() {
    let mut rng = Xorshift64::new(0xBA1A);
    for round in 0..500 {
        let tiles = 1 + (round % 33);
        let halves = random_halves(&mut rng, tiles, 1000);
        let rebuilt = half_tile_pairs(&halves);
        assert_eq!(rebuilt.len(), halves.len());
        let before: u64 = halves.iter().map(|&(a, b)| a + b).sum();
        assert_eq!(rebuilt.iter().sum::<u64>(), before, "round {round}");
    }
}

/// The rebuilt maximum never exceeds the unbalanced maximum and never
/// undercuts the theoretical mean.
#[test]
fn pairing_never_worsens_max_nor_beats_the_mean() {
    let mut rng = Xorshift64::new(0x5EED);
    for round in 0..500 {
        let tiles = 1 + (round % 29);
        let halves = random_halves(&mut rng, tiles, 750);
        let naive_max = halves.iter().map(|&(a, b)| a + b).max().unwrap();
        let total: u64 = halves.iter().map(|&(a, b)| a + b).sum();
        let (max, mean) = balanced_assignment(&halves);
        assert!(max <= naive_max, "round {round}: {naive_max} -> {max}");
        assert!(max as f64 >= (total as f64 / tiles as f64).floor());
        assert!((mean - total as f64 / tiles as f64).abs() < 1e-9);
    }
}

/// Odd nonzero counts split as `(v/2, v - v/2)` — the two halves always
/// reassemble the tile, and pairing a set of such splits stays conserved.
#[test]
fn odd_nonzero_splits_reassemble() {
    let mut rng = Xorshift64::new(0x0DD);
    for _ in 0..200 {
        let halves: Vec<(u64, u64)> = (0..16)
            .map(|_| {
                let v = rng.next_below(999); // odd and even mixed
                (v / 2, v - v / 2)
            })
            .collect();
        for &(a, b) in &halves {
            assert!(b == a || b == a + 1, "canonical split halves: {a}/{b}");
        }
        let rebuilt = half_tile_pairs(&halves);
        let total: u64 = halves.iter().map(|&(a, b)| a + b).sum();
        assert_eq!(rebuilt.iter().sum::<u64>(), total);
    }
}

/// Imbalance overhead is non-negative, and exactly zero on uniform work.
#[test]
fn overhead_is_nonnegative_and_zero_on_uniform_work() {
    let mut rng = Xorshift64::new(0x0FE4);
    for round in 0..500 {
        // Every 31st set has one tile: uniform by construction.
        let work: Vec<u64> = (0..1 + round % 31).map(|_| rng.next_below(100)).collect();
        let overhead = imbalance_overhead(&work);
        assert!(overhead >= 0.0, "round {round}: {overhead}");
        if work.windows(2).all(|w| w[0] == w[1]) {
            assert_eq!(overhead, 0.0, "round {round}: {work:?}");
        }
    }
}

/// Per-kernel nonzero counts drawn uniformly from `0..=nnz_cap`.
fn random_sparsity(rng: &mut Xorshift64, task: &LayerTask, nnz_cap: u64) -> SparsityInfo {
    SparsityInfo {
        kernel_nnz: (0..task.kernels())
            .map(|_| rng.next_below(nnz_cap + 1) as u32)
            .collect(),
        act_in_density: 0.25 + 0.5 * rng.next_f64(),
        grad_density: 1.0,
        compressed: true,
    }
}

/// The oracle: the tile-timed scheduler replays the balancer's rebuilt
/// loads, so its compute-cycle sum equals the analytic bound exactly,
/// its cycles never fall below analytic, and everything latency-
/// independent (MACs, traffic, energy, imbalance histogram) is shared.
#[test]
fn tile_timed_schedule_matches_the_balancer_oracle() {
    let arch = ArchConfig::procrustes_16x16();
    let mut rng = Xorshift64::new(0x0C1E);
    for round in 0..12 {
        let task = LayerTask::conv(
            "oracle",
            8,
            8 * (1 + (round % 4)),
            8 * (1 + (round % 5)),
            8,
            8,
            3,
            1,
            1,
        );
        let sp = random_sparsity(&mut rng, &task, (task.r * task.s) as u64);
        for mode in [BalanceMode::None, BalanceMode::HalfTile, BalanceMode::Ideal] {
            for phase in Phase::ALL {
                for mapping in Mapping::ALL {
                    let a = evaluate_layer(&arch, &task, phase, mapping, &sp, mode);
                    let t = evaluate_layer_with(
                        &arch,
                        &task,
                        phase,
                        mapping,
                        &sp,
                        mode,
                        Fidelity::TileTimed,
                    );
                    let ctx = format!("round {round} {mode:?}/{phase:?}/{mapping:?}");
                    assert_eq!(a.compute_cycles, t.compute_cycles, "{ctx}");
                    assert!(t.cycles >= a.cycles, "{ctx}: {} < {}", t.cycles, a.cycles);
                    assert_eq!(a.macs, t.macs, "{ctx}");
                    assert_eq!(a.glb_words, t.glb_words, "{ctx}");
                    assert_eq!(a.dram_words, t.dram_words, "{ctx}");
                    assert_eq!(a.energy, t.energy, "{ctx}");
                    assert_eq!(a.wave_overheads, t.wave_overheads, "{ctx}");
                    assert!((0.0..=1.0).contains(&t.utilization), "{ctx}");
                }
            }
        }
    }
}

/// A random conv layer in the range the paper's networks span: batch
/// 4–16, 8–32 channels on either side, 8–20 pixels square, a 1×1 or a
/// "same" 3×3 filter.
fn random_task(rng: &mut Xorshift64) -> LayerTask {
    let mut pick = |n: u64| 1 + rng.next_below(n) as usize;
    let (b, c, k, hw) = (pick(4), pick(4), pick(4), 1 + pick(4));
    let r = [1, 3][pick(2) - 1];
    LayerTask::conv("prop", b * 4, c * 8, k * 8, hw * 4, hw * 4, r, 1, r / 2)
}

/// Sparse execution never costs more MACs or energy than dense, and the
/// ideal array never takes more cycles than the real one. Kernels keep
/// at most 3/4 of their weights: at ~100 % density a "sparse" layer
/// genuinely costs more than the dense baseline (format overhead), so
/// the law only holds away from that corner.
#[test]
fn sparse_is_bounded_by_dense_and_ideal_by_real() {
    let arch = ArchConfig::procrustes_16x16();
    let ideal = ArchConfig::ideal_16x16();
    for seed in 1..=24 {
        let mut rng = Xorshift64::new(seed);
        let task = random_task(&mut rng);
        let dense = SparsityInfo::dense(&task);
        let nnz_cap = ((task.r * task.s) as u64 * 3 / 4).max(1);
        let sparse = random_sparsity(&mut rng, &task, nnz_cap);
        for mapping in Mapping::ALL {
            for phase in Phase::ALL {
                let ctx = format!("seed {seed} {mapping:?}/{phase:?}");
                let cost = |arch: &ArchConfig, sparsity: &SparsityInfo, mode| {
                    evaluate_layer(arch, &task, phase, mapping, sparsity, mode)
                };
                let cd = cost(&arch, &dense, BalanceMode::None);
                let cs = cost(&arch, &sparse, BalanceMode::HalfTile);
                let ci = cost(&ideal, &sparse, BalanceMode::HalfTile);
                assert!(cs.macs <= cd.macs, "{ctx}");
                assert!(
                    cs.energy.total() <= cd.energy.total() * 1.001,
                    "{ctx}: sparse {} > dense {}",
                    cs.energy.total(),
                    cd.energy.total()
                );
                assert!(ci.cycles <= cs.cycles, "{ctx}");
            }
        }
    }
}

/// Utilization is a true fraction, the cycle count dominates each of its
/// three bounds, and energy and wave overheads are finite and
/// non-negative.
#[test]
fn layer_costs_stay_within_their_bounds() {
    let arch = ArchConfig::procrustes_16x16();
    for seed in 101..=124 {
        let mut rng = Xorshift64::new(seed);
        let task = random_task(&mut rng);
        let sparse = random_sparsity(&mut rng, &task, (task.r * task.s) as u64);
        for mapping in Mapping::ALL {
            for phase in Phase::ALL {
                let ctx = format!("seed {seed} {mapping:?}/{phase:?}");
                let c = evaluate_layer(&arch, &task, phase, mapping, &sparse, BalanceMode::None);
                assert!((0.0..=1.0).contains(&c.utilization), "{ctx}");
                let bound = c.compute_cycles.max(c.glb_cycles).max(c.dram_cycles);
                assert!(c.cycles >= bound, "{ctx}: {} < {bound}", c.cycles);
                let energy = c.energy.total();
                assert!(energy.is_finite() && energy >= 0.0, "{ctx}: {energy}");
                assert!(c.wave_overheads.iter().all(|&v| v >= 0.0), "{ctx}");
            }
        }
    }
}

/// Balancing never slows a layer's compute and moves work between PEs
/// without creating or destroying any: MACs and GLB traffic are
/// unchanged.
#[test]
fn balancing_conserves_macs_and_traffic() {
    let arch = ArchConfig::procrustes_16x16();
    for seed in 201..=224 {
        let mut rng = Xorshift64::new(seed);
        let task = random_task(&mut rng);
        let sparse = random_sparsity(&mut rng, &task, (task.r * task.s) as u64);
        for phase in [Phase::Forward, Phase::Backward] {
            let ctx = format!("seed {seed} {phase:?}");
            let cost = |mode| evaluate_layer(&arch, &task, phase, Mapping::KN, &sparse, mode);
            let (none, bal) = (cost(BalanceMode::None), cost(BalanceMode::HalfTile));
            assert_eq!(none.macs, bal.macs, "{ctx}");
            assert!(bal.compute_cycles <= none.compute_cycles, "{ctx}");
            assert_eq!(none.glb_words, bal.glb_words, "{ctx}");
        }
    }
}
