//! Sparsity-mask synthesis and extraction.
//!
//! The paper extracts weight masks from PyTorch models trained with the
//! Procrustes algorithm and feeds them to the (extended) Timeloop model.
//! Here the performance model consumes the same information — per-kernel
//! nonzero counts — from either:
//!
//! * [`generate`]: a synthetic generator calibrated to Dropback-trained
//!   models: per-layer keep fractions follow a *learning-pressure* rule
//!   (parameter-heavy layers prune harder, which reproduces Table II's
//!   weights-shrink-more-than-MACs gap), and per-kernel density gets a
//!   heavy-tailed spread (which reproduces the Fig 5 load-imbalance
//!   phenomenology); or
//! * [`from_model`]: real masks read out of a `procrustes-nn` model
//!   trained with `procrustes-dropback` (exact zeros).

use procrustes_nn::{Layer, ParamKind, Sequential};
use procrustes_prng::{UniformRng, Xorshift64};
use procrustes_sim::{LayerTask, SparsityInfo};

use crate::arch::NetworkArch;

/// Configuration of the synthetic mask generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaskGenConfig {
    /// Overall weight-count reduction (Table II's “sparsity” column).
    pub sparsity_factor: f64,
    /// Learning-pressure exponent: per-layer keep fraction ∝ weightsᵅ⁻.
    /// 0 = uniform sparsity; larger values protect small layers more.
    pub alpha: f64,
    /// Per-kernel density spread (lognormal-ish σ within a filter row).
    pub spread: f64,
    /// Per-output-channel density spread: Dropback training concentrates
    /// surviving weights in important filters, so whole rows of the
    /// weight tensor end up dense or sparse together. This is the term
    /// that produces the strong working-set imbalance of the paper's
    /// Fig 5 (it does not average out with channel count the way
    /// independent per-kernel noise would).
    pub row_spread: f64,
    /// Input-activation density (ReLU zeros; exploited in weight update).
    pub act_density: f64,
    /// Lower clamp on any layer's keep fraction.
    pub min_keep: f64,
}

impl MaskGenConfig {
    /// The defaults used for the paper-figure reproductions, with the
    /// per-network sparsity factor of Table II.
    ///
    /// # Panics
    ///
    /// Panics unless `sparsity_factor > 1`.
    pub fn paper_default(sparsity_factor: f64) -> Self {
        assert!(sparsity_factor > 1.0, "sparsity factor must exceed 1");
        Self {
            sparsity_factor,
            alpha: 0.35,
            spread: 0.30,
            row_spread: 0.30,
            act_density: 0.45,
            min_keep: 0.04,
        }
    }
}

/// Computes per-layer keep fractions under the learning-pressure rule,
/// normalized so the total kept weights hit the target factor.
///
/// Iterative clamping: keep fractions are proportional to `wᵅ⁻` but
/// clamped to `[min_keep, 1]`; the normalization redistributes the slack.
fn layer_keep_fractions(weights: &[usize], cfg: &MaskGenConfig) -> Vec<f64> {
    assert!(!weights.is_empty(), "no layers");
    let total: f64 = weights.iter().map(|&w| w as f64).sum();
    let target = total / cfg.sparsity_factor;
    // Raw preference: keep_l ∝ w_l^(-alpha).
    let pref: Vec<f64> = weights
        .iter()
        .map(|&w| (w as f64).powf(-cfg.alpha))
        .collect();
    // Find the scale s.t. Σ clamp(s·pref_l)·w_l = target by bisection.
    let kept = |scale: f64| -> f64 {
        weights
            .iter()
            .zip(&pref)
            .map(|(&w, &p)| (scale * p).clamp(cfg.min_keep, 1.0) * w as f64)
            .sum()
    };
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    // Grow hi until we overshoot (or everything is kept).
    while kept(hi) < target && hi < 1e12 {
        hi *= 2.0;
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if kept(mid) < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let scale = 0.5 * (lo + hi);
    weights
        .iter()
        .zip(&pref)
        .map(|(_, &p)| (scale * p).clamp(cfg.min_keep, 1.0))
        .collect()
}

/// `net`'s layers re-batched to minibatch `batch`.
fn tasks(net: &NetworkArch, batch: usize) -> impl Iterator<Item = LayerTask> + '_ {
    net.layers
        .iter()
        .map(move |t| LayerTask { batch, ..t.clone() })
}

/// Builds `(task, sparsity)` pairs for every layer of `net` at minibatch
/// `batch`, with synthetic Dropback-like masks.
///
/// Deterministic in `seed`.
pub fn generate(
    net: &NetworkArch,
    cfg: &MaskGenConfig,
    batch: usize,
    seed: u64,
) -> Vec<(LayerTask, SparsityInfo)> {
    let weights: Vec<usize> = net.layers.iter().map(LayerTask::weights).collect();
    let keeps = layer_keep_fractions(&weights, cfg);
    let mut rng = Xorshift64::new(seed);
    tasks(net, batch)
        .zip(&keeps)
        .map(|(task, &keep)| {
            let cap = (task.r * task.s) as u32;
            // Lognormal mean correction keeps E[density] = keep despite
            // the multiplicative spreads (row-level + kernel-level).
            let var = cfg.spread * cfg.spread + cfg.row_spread * cfg.row_spread;
            let correction = (-var / 2.0).exp();
            // One shared draw per output channel (filter row) plus an
            // independent draw per kernel.
            let cols = if task.depthwise { 1 } else { task.c };
            let gaussian = |rng: &mut Xorshift64| {
                f64::from((rng.next_f32() + rng.next_f32() + rng.next_f32() - 1.5) * 2.0)
            };
            let mut row_g = 0.0f64;
            let kernel_nnz = (0..task.kernels())
                .map(|idx| {
                    if idx % cols == 0 {
                        row_g = gaussian(&mut rng);
                    }
                    let g = gaussian(&mut rng);
                    let density =
                        (keep * correction * (cfg.row_spread * row_g + cfg.spread * g).exp())
                            .clamp(0.0, 1.0);
                    stochastic_round(density * f64::from(cap), &mut rng).min(cap)
                })
                .collect();
            let sp = SparsityInfo {
                kernel_nnz,
                act_in_density: cfg.act_density,
                grad_density: 1.0,
                compressed: true,
            };
            (task, sp)
        })
        .collect()
}

/// Rounds `x` up with probability equal to its fractional part, so small
/// per-kernel keep counts do not collapse to zero everywhere.
fn stochastic_round(x: f64, rng: &mut Xorshift64) -> u32 {
    let floor = x.floor();
    let frac = x - floor;
    floor as u32 + u32::from(rng.next_f64() < frac)
}

/// Fully dense `(task, sparsity)` pairs for `net` (the baseline).
pub fn dense(net: &NetworkArch, batch: usize) -> Vec<(LayerTask, SparsityInfo)> {
    tasks(net, batch)
        .map(|task| {
            let sp = SparsityInfo::dense(&task);
            (task, sp)
        })
        .collect()
}

/// Extracts *real* masks from a trained model: one `(task, sparsity)` pair
/// per prunable tensor, with kernel nonzero counts taken from the exact
/// zeros of the materialized weights.
///
/// Activation density must be supplied (the model does not retain
/// activations).
pub fn from_model(
    model: &mut Sequential,
    batch: usize,
    act_density: f64,
) -> Vec<(LayerTask, SparsityInfo)> {
    let mut out = Vec::new();
    let mut index = 0usize;
    model.visit_params(&mut |p| {
        if p.kind != ParamKind::Prunable {
            return;
        }
        let s = p.values.shape();
        let (task, kernel_nnz) = match s.rank() {
            4 => {
                let (k, c, r, sdim) = (s.dim(0), s.dim(1), s.dim(2), s.dim(3));
                // Spatial extents are unknown from weights alone; use the
                // filter-sized minimum so MAC ratios stay meaningful.
                let task = LayerTask::conv(
                    format!("layer{index}"),
                    batch,
                    c,
                    k,
                    r.max(4),
                    sdim.max(4),
                    r,
                    1,
                    r / 2,
                );
                // Row-major `[k, c, r, s]`: kernel `k·C + c` is one
                // contiguous run of `r·s` values.
                let nnz = p
                    .values
                    .data()
                    .chunks_exact(r * sdim)
                    .map(|kernel| kernel.iter().filter(|&&v| v != 0.0).count() as u32)
                    .collect();
                (task, nnz)
            }
            2 => {
                let (o, i) = (s.dim(0), s.dim(1));
                let task = LayerTask::fc(format!("layer{index}"), batch, i, o);
                let mut nnz = vec![0u32; o * i];
                for (j, &v) in p.values.data().iter().enumerate() {
                    nnz[j] = u32::from(v != 0.0);
                }
                (task, nnz)
            }
            r => panic!("unexpected prunable tensor rank {r}"),
        };
        out.push((
            task,
            SparsityInfo {
                kernel_nnz,
                act_in_density: act_density,
                grad_density: 1.0,
                compressed: true,
            },
        ));
        index += 1;
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch;

    #[test]
    fn keep_fractions_hit_the_target() {
        let net = arch::vgg_s();
        let weights: Vec<usize> = net.layers.iter().map(|l| l.weights()).collect();
        let cfg = MaskGenConfig::paper_default(5.2);
        let keeps = layer_keep_fractions(&weights, &cfg);
        let kept: f64 = weights
            .iter()
            .zip(&keeps)
            .map(|(&w, &k)| w as f64 * k)
            .sum();
        let total: f64 = weights.iter().map(|&w| w as f64).sum();
        let achieved = total / kept;
        assert!(
            (achieved - 5.2).abs() < 0.15,
            "achieved factor {achieved:.2}"
        );
        // Learning pressure: the small first layer keeps more than the
        // big middle layers.
        assert!(keeps[0] > keeps[8], "{keeps:?}");
    }

    #[test]
    fn generated_masks_match_factor_and_are_uneven() {
        let net = arch::vgg_s();
        let cfg = MaskGenConfig::paper_default(5.2);
        let workloads = generate(&net, &cfg, 16, 7);
        assert_eq!(workloads.len(), net.layers.len());
        let total_w: u64 = workloads.iter().map(|(t, _)| t.weights() as u64).sum();
        let total_nnz: u64 = workloads.iter().map(|(_, sp)| sp.total_nnz()).sum();
        let factor = total_w as f64 / total_nnz as f64;
        assert!((factor - 5.2).abs() < 0.7, "factor {factor:.2}");
        // Per-kernel nnz must vary (the Fig 5 imbalance source).
        let (_, sp) = &workloads[8];
        let min = sp.kernel_nnz.iter().min().unwrap();
        let max = sp.kernel_nnz.iter().max().unwrap();
        assert!(max > min, "kernel nnz should be uneven");
        for (t, sp) in &workloads {
            sp.validate(t);
        }
    }

    #[test]
    fn mac_reduction_is_smaller_than_weight_reduction() {
        // Table II: VGG-S weights shrink 5.2x but MACs only ~2.4x, because
        // sparsity concentrates in parameter-heavy layers.
        let net = arch::vgg_s();
        let cfg = MaskGenConfig::paper_default(5.2);
        let workloads = generate(&net, &cfg, 1, 3);
        let dense_macs: u64 = workloads
            .iter()
            .map(|(t, _)| t.dense_macs(procrustes_sim::Phase::Forward))
            .sum();
        let sparse_macs: u64 = workloads
            .iter()
            .map(|(t, sp)| sp.total_nnz() * (t.p * t.q) as u64)
            .sum();
        let mac_factor = dense_macs as f64 / sparse_macs as f64;
        assert!(
            mac_factor < 4.5 && mac_factor > 1.5,
            "MAC reduction {mac_factor:.2} should lag the 5.2x weight reduction"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let net = arch::densenet();
        let cfg = MaskGenConfig::paper_default(3.9);
        let a = generate(&net, &cfg, 16, 5);
        let b = generate(&net, &cfg, 16, 5);
        assert_eq!(a.len(), b.len());
        for ((_, sa), (_, sb)) in a.iter().zip(&b) {
            assert_eq!(sa.kernel_nnz, sb.kernel_nnz);
        }
    }

    #[test]
    fn dense_generator_is_fully_dense() {
        let net = arch::densenet();
        for (t, sp) in dense(&net, 8) {
            assert_eq!(sp.weight_density(&t), 1.0);
        }
    }

    #[test]
    fn depthwise_layers_get_per_channel_kernels() {
        let net = arch::mobilenet_v2();
        let workloads = generate(&net, &MaskGenConfig::paper_default(10.0), 16, 1);
        let dw = workloads
            .iter()
            .find(|(t, _)| t.depthwise)
            .expect("mobilenet has depthwise layers");
        assert_eq!(dw.1.kernel_nnz.len(), dw.0.c);
    }

    #[test]
    fn from_model_extracts_exact_zero_masks() {
        use procrustes_nn::{Conv2d, Sequential};
        use procrustes_prng::Xorshift64;
        let mut rng = Xorshift64::new(2);
        let mut model = Sequential::new();
        model.push(Conv2d::new(2, 3, 3, 1, 1, false, &mut rng));
        // Zero out one full kernel.
        model.visit_params(&mut |mut p| {
            if p.kind == ParamKind::Prunable {
                for r in 0..3 {
                    for s in 0..3 {
                        p.values.set(&[1, 0, r, s], 0.0);
                    }
                }
            }
        });
        let wl = from_model(&mut model, 4, 0.5);
        assert_eq!(wl.len(), 1);
        let (task, sp) = &wl[0];
        assert_eq!(task.kernels(), 6);
        assert_eq!(sp.kernel_nnz[2], 0); // kernel (k=1, c=0)
        assert_eq!(sp.kernel_nnz[0], 9);
    }

    #[test]
    fn from_model_counts_every_kernel_of_a_ragged_conv() {
        use procrustes_nn::{Conv2d, Sequential};
        use procrustes_prng::Xorshift64;
        let (c, k, r) = (3, 5, 3);
        let mut model = Sequential::new();
        model.push(Conv2d::new(c, k, r, 1, 1, false, &mut Xorshift64::new(4)));
        // Kernel (ki, ci) loses its first `(ki·C + ci) mod 10` taps, so
        // every count is distinct from its neighbours' in both axes.
        let zeroed = |ki: usize, ci: usize| (ki * c + ci) % 10;
        model.visit_params(&mut |mut p| {
            if p.kind == ParamKind::Prunable {
                for ki in 0..k {
                    for ci in 0..c {
                        for tap in 0..r * r {
                            let v = if tap < zeroed(ki, ci) { 0.0 } else { 1.0 };
                            p.values.set(&[ki, ci, tap / r, tap % r], v);
                        }
                    }
                }
            }
        });
        let wl = from_model(&mut model, 4, 0.5);
        let (task, sp) = &wl[0];
        assert_eq!((task.k, task.c), (k, c));
        sp.validate(task);
        for ki in 0..k {
            for ci in 0..c {
                let expected = (r * r - zeroed(ki, ci)) as u32;
                assert_eq!(sp.kernel_nnz[ki * c + ci], expected, "kernel ({ki}, {ci})");
            }
        }
    }
}
