//! The two training workloads and the replays that split a step into
//! the layers it runs through.
//!
//! `train_dense` is the denominator of the paper's claim and the
//! workload every sparse-path change must leave alone: all its time is
//! in `tensor` and `nn`. `train_sparse` is the paper's regime — CSB
//! kernels, the quantile estimator, tracked-set bookkeeping and the
//! weight-store resync — and is timed only after it has proved it is on
//! that path.

use std::time::Instant;

use procrustes_bench::{FIG06_BATCH as BATCH, FIG06_CONV_LAYERS as CONV_LAYERS};
use procrustes_dropback::{
    ComputeBackend, DenseSgdTrainer, ProcrustesConfig, ProcrustesTrainer, StepStats, Trainer,
};
use procrustes_nn::data::SyntheticImages;
use procrustes_nn::{arch, Layer, ParamKind, Scratch, Sequential, SoftmaxCrossEntropy};
use procrustes_prng::Xorshift64;
use procrustes_quantile::{quantile_for_sparsity, Dumique};
use procrustes_sim::Fnv1a;
use procrustes_sparse::{
    csb_conv2d, csb_conv2d_backward_input, csb_conv2d_backward_weights_masked, CsbTensor,
};
use procrustes_tensor::{
    conv2d_backward_input_gemm, conv2d_backward_weights_from_cols, conv2d_from_cols, im2col_into,
    kernel, Tensor,
};

use crate::stats::{mean, median, percentile, windowed_rate};
use crate::trace::Tracer;
use crate::{Outcome, RunConfig, SETUP_REPEATS};

const CLASSES: usize = 10;
/// Distinct minibatches a run cycles through.
const POOL: usize = 64;
const LR: f32 = 0.05;
const SPARSITY_FACTOR: f64 = 10.0;
const DENSE_WARMUP: usize = 10;
/// Past step 263, where the λ = 0.9 decay of the initial weights
/// flushes to exactly zero and pruned weights stop costing MACs.
const SPARSE_WARMUP: usize = 270;
/// Steps timed whatever `--seconds` says, so the loss check always
/// covers the same steps.
const MIN_STEPS: usize = 16;
/// The GEMM shapes `perf_trajectory` pins.
const GEMM_SHAPES: [(usize, usize, usize); 3] = [(64, 288, 2048), (256, 256, 256), (64, 576, 512)];

/// Seeds the data set, the model, the trainer and the warm-up batches.
/// Which weights survive pruning, and so how much work a sparse step
/// is, depends on everything the trainer saw before: runs start from
/// one warmed state and `--seed` draws the batches of the timed steps,
/// or step time would vary by a fifth from seed to seed.
const STATE_SEED: u64 = 0x30DE1;

type Batch = (Tensor, Vec<usize>);

/// Minibatches drawn from the one synthetic data set with `seed`.
fn batch_pool(seed: u64) -> Vec<Batch> {
    let data = SyntheticImages::new(CLASSES, 32, 32, 0.2, STATE_SEED);
    let mut rng = Xorshift64::new(seed);
    (0..POOL).map(|_| data.batch(BATCH, &mut rng)).collect()
}

fn model() -> Sequential {
    arch::tiny_vgg(CLASSES, &mut Xorshift64::new(STATE_SEED))
}

fn sparse_trainer(compute: ComputeBackend) -> ProcrustesTrainer {
    let config = ProcrustesConfig {
        sparsity_factor: SPARSITY_FACTOR,
        lr: LR,
        aux_lr: LR,
        compute,
        ..ProcrustesConfig::default()
    };
    ProcrustesTrainer::new(model(), config, STATE_SEED as u32)
}

fn warm_up(trainer: &mut impl Trainer, pool: &[Batch], steps: usize) -> StepStats {
    let mut last = StepStats::default();
    for i in 0..steps {
        let (x, labels) = &pool[i % POOL];
        last = trainer.train_step(x, labels);
    }
    last
}

/// What the timed steps of a run measured.
struct Timed {
    latencies_ms: Vec<f64>,
    stats: Vec<StepStats>,
    /// Peak resident set after [`MIN_STEPS`] steps: the same amount of
    /// work in every run, however many steps the time allows after it.
    peak_rss_mb: f64,
}

/// Runs closed-loop steps over `pool` for `seconds`.
fn timed_steps(
    trainer: &mut impl Trainer,
    pool: &[Batch],
    seconds: f64,
    tracer: &mut Tracer,
) -> Timed {
    let mut timed = Timed {
        latencies_ms: Vec::new(),
        stats: Vec::new(),
        peak_rss_mb: 0.0,
    };
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds || timed.stats.len() < MIN_STEPS {
        let step = timed.stats.len();
        let (x, labels) = &pool[step % POOL];
        let (stats, dt) = tracer.time("dropback.train_step", step as u64, || {
            trainer.train_step(x, labels)
        });
        timed.latencies_ms.push(dt * 1e3);
        timed.stats.push(stats);
        if step + 1 == MIN_STEPS {
            timed.peak_rss_mb = crate::host::peak_rss_mb(std::process::id()).unwrap_or(0.0);
        }
    }
    timed
}

/// Fills in what both training workloads report the same way.
fn outcome(setups_s: Vec<f64>, timed: &Timed, on_path: bool) -> Outcome {
    let steps = timed.stats.len() as u64;
    let bad = timed.stats.iter().filter(|s| !s.loss.is_finite()).count() as u64;
    let mut loss_bits = Fnv1a::new();
    for s in &timed.stats[..MIN_STEPS] {
        loss_bits.write(&s.loss.to_bits().to_le_bytes());
    }
    Outcome {
        attempted: steps,
        // A run that is not on the path it claims to time has measured
        // nothing.
        failed: if on_path { bad } else { steps },
        setups_s,
        throughput_per_s: windowed_rate(
            &timed
                .latencies_ms
                .iter()
                .map(|ms| (ms / 1e3, 1))
                .collect::<Vec<_>>(),
        ),
        latencies_ms: timed.latencies_ms.clone(),
        peak_rss_mb: timed.peak_rss_mb,
        checks: vec![(
            "check.loss_bits".into(),
            format!("{:016x}", loss_bits.finish()),
        )],
        ..Outcome::default()
    }
}

pub fn train_dense(cfg: &RunConfig, tracer: &mut Tracer) -> Outcome {
    let warm_pool = batch_pool(STATE_SEED);
    let mut setups_s = Vec::new();
    let mut trainer = None;
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        let mut t = DenseSgdTrainer::new(model(), LR, 0.9);
        warm_up(&mut t, &warm_pool, DENSE_WARMUP);
        setups_s.push(started.elapsed().as_secs_f64());
        trainer = Some(t);
    }
    let mut trainer = trainer.expect("at least one set-up");
    let pool = batch_pool(cfg.seed);
    let timed = timed_steps(&mut trainer, &pool, cfg.seconds, tracer);
    let mut out = outcome(setups_s, &timed, true);
    if cfg.trace {
        step_layers(&mut out, &timed.stats);
        replay_nn(&mut out, &mut trainer, &pool, tracer);
        replay_tensor(&mut out, tracer);
    }
    out
}

/// Three steps from the same state on the dense and on the CSB kernels
/// must give bit-equal losses; otherwise a sparse step time compares
/// against nothing.
fn backends_agree(pool: &[Batch]) -> bool {
    let losses = |compute| {
        let mut t = sparse_trainer(compute);
        (0..3)
            .map(|i| t.train_step(&pool[i].0, &pool[i].1).loss.to_bits())
            .collect::<Vec<_>>()
    };
    losses(ComputeBackend::Dense) == losses(ComputeBackend::Csb)
}

pub fn train_sparse(cfg: &RunConfig, tracer: &mut Tracer) -> Outcome {
    let pool = batch_pool(cfg.seed);
    let twin_ok = backends_agree(&pool);
    // One set-up: its 270 steps are already an average, and repeating
    // them would triple the longest run of the benchmark.
    let warm_pool = batch_pool(STATE_SEED);
    let started = Instant::now();
    let mut trainer = sparse_trainer(ComputeBackend::auto());
    let warmed = warm_up(&mut trainer, &warm_pool, SPARSE_WARMUP);
    let setups_s = vec![started.elapsed().as_secs_f64()];
    let csb_stores = trainer.model_mut().csb_store_count();
    let on_path = twin_ok && csb_stores > 0 && warmed.weight_sparsity >= 0.89;

    let timed = timed_steps(&mut trainer, &pool, cfg.seconds, tracer);
    let mut out = outcome(setups_s, &timed, on_path);
    out.notes.push(format!(
        "sparse path: dense/csb twin bit-equal = {twin_ok}, csb stores = {csb_stores}, \
         weight sparsity after warm-up = {:.4}",
        warmed.weight_sparsity
    ));
    if cfg.trace {
        step_layers(&mut out, &timed.stats);
        let deltas = replay_nn(&mut out, &mut trainer, &pool, tracer);
        replay_tensor(&mut out, tracer);
        replay_sparse(&mut out, &mut trainer, tracer);
        replay_quantile(&mut out, &deltas, tracer);
    }
    out
}

/// What the trainer itself reports about the timed steps.
fn step_layers(out: &mut Outcome, stats: &[StepStats]) {
    let per_step =
        |f: fn(&StepStats) -> usize| mean(&stats.iter().map(|s| f(s) as f64).collect::<Vec<_>>());
    out.layers.extend([
        ("dropback.step_ms", median(&out.latencies_ms)),
        ("dropback.step_ms_p95", percentile(&out.latencies_ms, 95.0)),
        (
            "dropback.weight_sparsity",
            stats.last().map_or(0.0, |s| s.weight_sparsity),
        ),
        ("dropback.admitted_per_step", per_step(|s| s.admitted)),
        ("dropback.evicted_per_step", per_step(|s| s.evicted)),
    ]);
}

const REPLAYS: usize = 12;

/// Replays forward, loss and backward on the trainer's own model, so
/// the step splits into `nn` time and what the trainer adds around it.
/// Runs after the timed steps and zeroes the gradients it produced.
/// Returns one step's weight deltas for the quantile replay.
fn replay_nn(
    out: &mut Outcome,
    trainer: &mut impl Trainer,
    pool: &[Batch],
    tracer: &mut Tracer,
) -> Vec<f32> {
    let model = trainer.model_mut();
    let mut scratch = Scratch::new();
    let (mut fwd, mut loss, mut bwd) = (Vec::new(), Vec::new(), Vec::new());
    let mut deltas = Vec::new();
    for rep in 0..REPLAYS {
        let (x, labels) = &pool[rep % POOL];
        let op = rep as u64;
        let step = tracer.begin("bench.replay_step", op);
        let (logits, dt) = tracer.time("nn.forward", op, || {
            model.forward_with(x, true, &mut scratch)
        });
        fwd.push(dt * 1e3);
        let ((_, dlogits), dt) = tracer.time("nn.loss", op, || {
            SoftmaxCrossEntropy.loss_and_grad_with(&logits, labels, &mut scratch)
        });
        loss.push(dt * 1e3);
        let (dx, dt) = tracer.time("nn.backward", op, || {
            model.backward_with(&dlogits, &mut scratch)
        });
        bwd.push(dt * 1e3);
        tracer.end(step);
        for t in [logits, dlogits, dx] {
            scratch.recycle(t);
        }
        if rep == 0 {
            model.visit_params(&mut |p| {
                if p.kind == ParamKind::Prunable {
                    deltas.extend(p.grads.data().iter().map(|g| -LR * g));
                }
            });
        }
        model.zero_grads();
    }
    let inside = median(&fwd) + median(&loss) + median(&bwd);
    out.layers.extend([
        ("nn.forward_ms", median(&fwd)),
        ("nn.loss_ms", median(&loss)),
        ("nn.backward_ms", median(&bwd)),
        ("nn.csb_stores", model.csb_store_count() as f64),
        (
            "dropback.track_ms",
            (median(&out.latencies_ms) - inside).max(0.0),
        ),
    ]);
    deltas
}

/// The dense conv kernels over tiny-VGG's geometries, and the GEMM
/// routine under them on the pinned shapes.
fn replay_tensor(out: &mut Outcome, tracer: &mut Tracer) {
    let mut scratch = Scratch::new();
    let mut rng = Xorshift64::new(7);
    let mut layers: Vec<(Tensor, Tensor, Tensor, Vec<f32>)> = CONV_LAYERS
        .iter()
        .map(|&(c, k, hw)| {
            let x = Tensor::randn(&[BATCH, c, hw, hw], 1.0, &mut rng);
            let w = Tensor::randn(&[k, c, 3, 3], 0.1, &mut rng);
            let dy = Tensor::randn(&[BATCH, k, hw, hw], 1.0, &mut rng);
            let cols = vec![0.0f32; c * 9 * BATCH * hw * hw];
            (x, w, dy, cols)
        })
        .collect();
    let (mut im2col, mut fwd, mut bwd_in, mut bwd_w) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for rep in 0..REPLAYS as u64 {
        let ((), dt) = tracer.time("tensor.im2col_into", rep, || {
            for (x, _, _, cols) in &mut layers {
                im2col_into(x, 3, 3, 1, 1, cols);
            }
        });
        im2col.push(dt * 1e3);
        let ((), dt) = tracer.time("tensor.conv2d_from_cols", rep, || {
            for (&(_, _, hw), (_, w, _, cols)) in CONV_LAYERS.iter().zip(&layers) {
                let y = conv2d_from_cols(w, cols, BATCH, hw, hw, &mut scratch);
                scratch.recycle(y);
            }
        });
        fwd.push(dt * 1e3);
        let ((), dt) = tracer.time("tensor.conv2d_backward_input_gemm", rep, || {
            for (&(_, _, hw), (_, w, dy, _)) in CONV_LAYERS.iter().zip(&layers) {
                let dx = conv2d_backward_input_gemm(dy, w, hw, hw, 1, 1, &mut scratch);
                scratch.recycle(dx);
            }
        });
        bwd_in.push(dt * 1e3);
        let ((), dt) = tracer.time("tensor.conv2d_backward_weights_from_cols", rep, || {
            for (&(c, _, _), (_, _, dy, cols)) in CONV_LAYERS.iter().zip(&layers) {
                let dw = conv2d_backward_weights_from_cols(dy, cols, c, 3, 3, &mut scratch);
                scratch.recycle(dw);
            }
        });
        bwd_w.push(dt * 1e3);
    }

    // Geometric mean over the shapes, at a budget of one thread and at
    // the budget hot-path callers grant by default.
    let budget = kernel::default_threads();
    let (mut serial, mut threaded, mut workers) = (1.0f64, 1.0f64, 1usize);
    for (si, &(m, k, n)) in GEMM_SHAPES.iter().enumerate() {
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let b = Tensor::randn(&[k, n], 1.0, &mut rng);
        let mut dst = vec![0.0f32; m * n];
        let flops = 2.0 * (m * k * n) as f64;
        let serial_bp = kernel::Blueprint::nn(m, k, n);
        let wide_bp = serial_bp.with_threads(budget);
        workers = workers.max(kernel::explain(&wide_bp).0.workers);
        for (name, bp, acc) in [
            ("tensor.gemm_serial", &serial_bp, &mut serial),
            ("tensor.gemm_threaded", &wide_bp, &mut threaded),
        ] {
            let times: Vec<f64> = (0..REPLAYS)
                .map(|_| {
                    tracer
                        .time(name, si as u64, || {
                            kernel::gemm(bp, &mut dst, a.data(), b.data(), &mut scratch)
                        })
                        .1
                })
                .collect();
            *acc *= flops / median(&times) / 1e9;
        }
    }
    let shapes = GEMM_SHAPES.len() as f64;
    out.layers.extend([
        ("tensor.im2col_ms", median(&im2col)),
        ("tensor.conv_fwd_ms", median(&fwd)),
        ("tensor.conv_bwd_input_ms", median(&bwd_in)),
        ("tensor.conv_bwd_weights_ms", median(&bwd_w)),
        ("tensor.gemm_gflops", serial.powf(1.0 / shapes)),
        ("tensor.gemm_gflops_threaded", threaded.powf(1.0 / shapes)),
        ("tensor.kernel_threads", workers as f64),
    ]);
}

/// The CSB kernels on the weights the warmed trainer really holds.
fn replay_sparse(out: &mut Outcome, trainer: &mut impl Trainer, tracer: &mut Tracer) {
    let mut convs = Vec::new();
    let (mut zeros, mut total) = (0usize, 0usize);
    trainer.model_mut().visit_params(&mut |p| {
        if p.kind == ParamKind::Prunable {
            zeros += p.values.count_zeros();
            total += p.values.len();
            if p.values.shape().rank() == 4 {
                convs.push(p.values.clone());
            }
        }
    });
    assert_eq!(
        convs.len(),
        CONV_LAYERS.len(),
        "tiny-VGG has five convolutions"
    );
    let mut rng = Xorshift64::new(0x5BA5);
    let inputs: Vec<(Tensor, Tensor)> = CONV_LAYERS
        .iter()
        .map(|&(c, k, hw)| {
            (
                Tensor::randn(&[BATCH, c, hw, hw], 1.0, &mut rng),
                Tensor::randn(&[BATCH, k, hw, hw], 1.0, &mut rng),
            )
        })
        .collect();
    let (mut encode, mut fwd, mut bwd_in, mut bwd_w) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for rep in 0..REPLAYS as u64 {
        let (csb, dt) = tracer.time("sparse.from_dense_conv", rep, || {
            convs
                .iter()
                .map(CsbTensor::from_dense_conv)
                .collect::<Vec<_>>()
        });
        encode.push(dt * 1e3);
        let ((), dt) = tracer.time("sparse.csb_conv2d", rep, || {
            for (w, (x, _)) in csb.iter().zip(&inputs) {
                std::hint::black_box(csb_conv2d(x, w, 1, 1));
            }
        });
        fwd.push(dt * 1e3);
        let ((), dt) = tracer.time("sparse.csb_conv2d_backward_input", rep, || {
            for ((w, (_, dy)), &(_, _, hw)) in csb.iter().zip(&inputs).zip(CONV_LAYERS) {
                std::hint::black_box(csb_conv2d_backward_input(dy, w, hw, hw, 1, 1));
            }
        });
        bwd_in.push(dt * 1e3);
        let ((), dt) = tracer.time("sparse.csb_conv2d_backward_weights_masked", rep, || {
            for (w, (x, dy)) in csb.iter().zip(&inputs) {
                std::hint::black_box(csb_conv2d_backward_weights_masked(x, dy, w, 1, 1));
            }
        });
        bwd_w.push(dt * 1e3);
    }
    out.layers.extend([
        ("sparse.encode_ms", median(&encode)),
        ("sparse.conv_fwd_ms", median(&fwd)),
        ("sparse.conv_bwd_input_ms", median(&bwd_in)),
        ("sparse.conv_bwd_weights_ms", median(&bwd_w)),
        ("sparse.density", 1.0 - zeros as f64 / total as f64),
    ]);
}

/// The quantile estimator over one step's weight deltas, four at a time
/// as the trainer feeds it.
fn replay_quantile(out: &mut Outcome, deltas: &[f32], tracer: &mut Tracer) {
    let calls = deltas.len() / 4;
    let mut per_call_ns = Vec::new();
    for rep in 0..REPLAYS as u64 {
        let mut qe = Dumique::with_params(
            quantile_for_sparsity(SPARSITY_FACTOR),
            Dumique::DEFAULT_INIT,
            Dumique::DEFAULT_RHO,
        );
        let (_, dt) = tracer.time("quantile.update4", rep, || {
            for d in deltas.chunks_exact(4) {
                qe.update4([d[0].abs(), d[1].abs(), d[2].abs(), d[3].abs()]);
            }
            qe.estimate()
        });
        per_call_ns.push(dt * 1e9 / calls.max(1) as f64);
    }
    out.layers.extend([
        ("quantile.update_ns", median(&per_call_ns)),
        ("quantile.updates_per_step", calls as f64),
    ]);
}
