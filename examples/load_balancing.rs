//! The half-tile load balancer on a skewed conv mask (Fig 9/12 mechanics,
//! Fig 5/13 effect).
//!
//! Run with: `cargo run --release --example load_balancing`

use procrustes::core::report::overhead_histogram;
use procrustes::prng::{UniformRng, Xorshift64};
use procrustes::sim::{
    half_tile_pairs, working_set_overheads, LayerTask, MaskSummary, SparsityInfo,
};

fn main() {
    // A 128-filter conv layer (64 channels, 3×3) whose filters have very
    // uneven density — the situation Dropback training produces (Fig 5).
    let (k, c) = (128, 64);
    let mut rng = Xorshift64::new(3);
    let mut row_keep = vec![0.0f64; k];
    for keep in row_keep.iter_mut() {
        // Row-correlated density: e^(0.8 g) around a 20% mean.
        let g = (rng.next_f32() + rng.next_f32() + rng.next_f32() - 1.5) * 2.0;
        *keep = (0.2 * f64::from((0.8 * g).exp())).clamp(0.01, 1.0);
    }
    let task = LayerTask::conv("skewed", 1, c, k, 8, 8, 3, 1, 1);
    let mut sp = SparsityInfo::dense(&task);
    for (kernel, nnz) in sp.kernel_nnz.iter_mut().enumerate() {
        *nnz = (0..9)
            .filter(|_| rng.next_f64() < row_keep[kernel / c])
            .count() as u32;
    }
    let summary = MaskSummary::new(&task, &sp);
    println!(
        "weight mask: {} nonzeros of {} ({:.1}x sparsity)\n",
        summary.total_nnz(),
        task.weights(),
        task.weights() as f64 / summary.total_nnz() as f64
    );

    // Working-set overheads (each wave = 16 filter rows) before and after
    // half-tile pairing.
    let sets = working_set_overheads(&summary, 16);
    let before: Vec<f32> = sets.iter().map(|s| s.0 as f32).collect();
    let after: Vec<f32> = sets.iter().map(|s| s.1 as f32).collect();
    println!("{}", overhead_histogram(&before, 5, 125.0).render());
    println!("{}", overhead_histogram(&after, 5, 125.0).render());

    let (unbal, bal) = sets
        .iter()
        .fold((0.0f64, 0.0f64), |(u, b), s| (u.max(s.0), b.max(s.1)));
    println!(
        "worst working set: {:.0}% overhead unbalanced -> {:.0}% after half-tile pairing",
        unbal * 100.0,
        bal * 100.0
    );

    // Each filter's two halves cut along the input channels, paired
    // sparsest-with-densest within each working set.
    let halves: Vec<(u64, u64)> = sp
        .kernel_nnz
        .chunks(c)
        .map(|row| {
            let sum = |part: &[u32]| part.iter().map(|&n| u64::from(n)).sum::<u64>();
            (sum(&row[..c / 2]), sum(&row[c / 2..]))
        })
        .collect();
    let paired: u64 = halves.chunks(16).flat_map(half_tile_pairs).sum();
    println!(
        "(work conserved: rebuilt tiles total = {paired} = mask nnz {})",
        summary.total_nnz()
    );
}
