//! The one training harness behind every accuracy experiment, run as
//! real training of tiny networks on the synthetic datasets (see
//! docs/PAPER_MAP.md "Substitutions"):
//!
//! * Fig 6 — *initial weight decay* (§III-A): Dropback with exact
//!   sorting, λ = 0.9 vs λ = 1 (no decay). Expected: indistinguishable
//!   accuracy curves, while only the decayed run reaches computation
//!   sparsity.
//! * Fig 7 — *quantile estimation* (§III-B): Procrustes (DUMIQUE
//!   threshold) vs Dropback with exact sorting, both with decay.
//!   Expected: indistinguishable accuracy.
//! * Figs 15 and 16 — Procrustes vs the unpruned SGD baseline across the
//!   five network families ([`FAMILIES`]): VGG / DenseNet / WRN on the
//!   CIFAR-like dataset, ResNet / MobileNet on the ImageNet-like one at
//!   several sparsity factors. Expected: sparse matches dense.
//!
//! Table II's accuracy columns and the eviction and families ablations
//! run through the same [`train`].

use procrustes_core::report::Table;
use procrustes_dropback::{
    DenseSgdTrainer, DropbackConfig, DropbackExact, ProcrustesConfig, ProcrustesTrainer, StepStats,
    Trainer,
};
use procrustes_nn::data::SyntheticImages;
use procrustes_nn::{arch, Sequential};
use procrustes_prng::Xorshift64;

use crate::ctx::ExpContext;

/// Minibatch of every training experiment.
const BATCH: usize = 16;

/// Where an experiment's batches and validation set come from.
#[derive(Clone, Copy)]
pub struct Seeds {
    /// Seeds the one rng every batch is drawn from.
    pub batches: u64,
    /// Seeds the fixed validation set.
    pub validation: u64,
}

/// A trainer and the label its column prints under.
pub type Labelled = (String, Box<dyn Trainer>);

/// One trainer's run through [`train`].
#[derive(Clone)]
pub struct Run {
    pub label: String,
    /// `(step, validation accuracy)` at every evaluation.
    pub points: Vec<(u64, f64)>,
    /// Statistics of the last step.
    pub last: StepStats,
}

impl Run {
    /// Validation accuracy after the last step.
    pub fn accuracy(&self) -> f64 {
        self.points.last().expect("a run ends on an evaluation").1
    }
}

/// Trains every trainer for `steps` steps in lockstep: each step draws
/// one batch and every trainer takes it. All of them are evaluated on one
/// fixed validation set every `ctx.eval_every()` steps and after the
/// last. The trainers share no state and a batch depends only on the
/// rng, so each run holds the bits the trainer would produce alone.
pub fn train(
    ctx: &ExpContext,
    data: &SyntheticImages,
    seeds: Seeds,
    steps: usize,
    trainers: Vec<Labelled>,
) -> Vec<Run> {
    lockstep(
        data,
        seeds,
        steps,
        ctx.eval_every(),
        ctx.val_size(),
        trainers,
    )
}

fn lockstep(
    data: &SyntheticImages,
    seeds: Seeds,
    steps: usize,
    eval_every: usize,
    val_size: usize,
    trainers: Vec<Labelled>,
) -> Vec<Run> {
    let (vx, vl) = data.fixed_set(val_size, seeds.validation);
    let mut rng = Xorshift64::new(seeds.batches);
    let mut runs: Vec<(Box<dyn Trainer>, Run)> = trainers
        .into_iter()
        .map(|(label, trainer)| {
            let run = Run {
                label,
                points: Vec::new(),
                last: StepStats::default(),
            };
            (trainer, run)
        })
        .collect();
    for step in 1..=steps {
        let (x, labels) = data.batch(BATCH, &mut rng);
        let evaluate = step % eval_every == 0 || step == steps;
        for (trainer, run) in &mut runs {
            run.last = trainer.train_step(&x, &labels);
            if evaluate {
                let (_, acc) = trainer.evaluate(&vx, &vl);
                run.points.push((step as u64, acc));
            }
        }
    }
    runs.into_iter().map(|(_, run)| run).collect()
}

/// Prints the validation curves of `runs`, one column per run.
fn emit_curves(ctx: &ExpContext, name: &str, title: &str, runs: &[Run]) {
    let mut headers = vec!["step"];
    headers.extend(runs.iter().map(|r| r.label.as_str()));
    let mut t = Table::new(title, &headers);
    for (i, &(step, _)) in runs[0].points.iter().enumerate() {
        let mut row = vec![step.to_string()];
        row.extend(runs.iter().map(|r| format!("{:.3}", r.points[i].1)));
        t.row(&row);
    }
    ctx.emit(name, &t);
}

fn tiny_vgg(seed: u64) -> Sequential {
    arch::tiny_vgg(10, &mut Xorshift64::new(seed))
}

/// The batches and validation set of Figs 6 and 7.
const ADAPTATION_SEEDS: Seeds = Seeds {
    batches: 0xFEED,
    validation: 0xE7A1,
};

fn dropback_exact(
    model_seed: u64,
    sparsity_factor: f64,
    lambda: f32,
    seed: u32,
) -> Box<dyn Trainer> {
    let config = DropbackConfig {
        sparsity_factor,
        lambda,
        ..DropbackConfig::default()
    };
    Box::new(DropbackExact::new(tiny_vgg(model_seed), config, seed))
}

pub fn run_fig6(ctx: &ExpContext) {
    let data = SyntheticImages::cifar_like(10, 11);
    let trainers = vec![
        ("init-decay".into(), dropback_exact(1, 5.0, ctx.lambda(), 7)),
        ("no-decay".into(), dropback_exact(1, 5.0, 1.0, 7)),
    ];
    let runs = train(ctx, &data, ADAPTATION_SEEDS, ctx.train_steps(400), trainers);
    emit_curves(
        ctx,
        "fig6",
        "Fig 6 — validation accuracy: initial weight decay vs none (Dropback, exact sort)",
        &runs,
    );
    ctx.note(&format!(
        "final weight sparsity with decay: {:.1}% of weights exactly zero; without decay: {:.1}% \
         (decay is what converts pruning into computation sparsity; accuracy curves should overlap, paper Fig 6)",
        runs[0].last.weight_sparsity * 100.0,
        runs[1].last.weight_sparsity * 100.0,
    ));
}

pub fn run_fig7(ctx: &ExpContext) {
    let data = SyntheticImages::cifar_like(10, 11);
    let factor = 7.5; // the paper's Fig 7 target
    let config = ProcrustesConfig {
        sparsity_factor: factor,
        lambda: ctx.lambda(),
        ..ProcrustesConfig::default()
    };
    let quantile: Box<dyn Trainer> = Box::new(ProcrustesTrainer::new(tiny_vgg(2), config, 9));
    let trainers = vec![
        ("quantile-est".into(), quantile),
        (
            "exact-sort".into(),
            dropback_exact(2, factor, ctx.lambda(), 9),
        ),
    ];
    let runs = train(ctx, &data, ADAPTATION_SEEDS, ctx.train_steps(400), trainers);
    emit_curves(
        ctx,
        "fig7",
        "Fig 7 — validation accuracy: quantile estimation vs exact sorting (both with decay)",
        &runs,
    );
    ctx.note(&format!(
        "weight sparsity at end: quantile {:.1}% vs exact {:.1}% — the tracked set has a fixed \
         capacity and evicts once full, so the estimator cannot track extra weights and both arms \
         end at the same sparsity (the paper's over-tracking, 7.5x target -> 5.2x achieved, \
         cannot appear here)",
        runs[0].last.weight_sparsity * 100.0,
        runs[1].last.weight_sparsity * 100.0
    ));
}

/// The synthetic dataset a family trains on, at Figs 15–16's data seeds.
#[derive(Clone, Copy, PartialEq)]
enum Dataset {
    CifarLike,
    ImagenetLike,
}

impl Dataset {
    fn label(self) -> &'static str {
        match self {
            Dataset::CifarLike => "CIFAR-like",
            Dataset::ImagenetLike => "ImageNet-like",
        }
    }

    fn build(self) -> SyntheticImages {
        match self {
            Dataset::CifarLike => SyntheticImages::cifar_like(10, 21),
            Dataset::ImagenetLike => SyntheticImages::imagenet_like(10, 33),
        }
    }
}

/// A tiny trainable family standing in for one paper network.
pub struct Family {
    /// The paper network, as the registry and Table II name it.
    pub network: &'static str,
    /// The name of its Fig 15/16 table.
    name: &'static str,
    /// The family as the figure titles it.
    family: &'static str,
    model: fn(usize, &mut Xorshift64) -> Sequential,
    data: Dataset,
    /// Training steps under `--full`.
    full_steps: usize,
    /// The Procrustes sparsity factors its figure plots.
    factors: &'static [f64],
}

/// The five families, in figure order: Fig 15 plots the CIFAR-like
/// ones, Fig 16 the ImageNet-like ones.
pub const FAMILIES: [Family; 5] = [
    Family {
        network: "VGG-S",
        name: "fig15_vgg",
        family: "VGG",
        model: arch::tiny_vgg,
        data: Dataset::CifarLike,
        full_steps: 400,
        factors: &[5.2],
    },
    Family {
        network: "DenseNet",
        name: "fig15_densenet",
        family: "DenseNet",
        model: arch::tiny_densenet,
        data: Dataset::CifarLike,
        full_steps: 400,
        factors: &[3.9],
    },
    Family {
        network: "WRN-28-10",
        name: "fig15_wrn",
        family: "WRN",
        model: arch::tiny_wrn,
        data: Dataset::CifarLike,
        full_steps: 400,
        factors: &[4.3],
    },
    Family {
        network: "ResNet18",
        name: "fig16_resnet",
        family: "ResNet",
        model: arch::tiny_resnet,
        data: Dataset::ImagenetLike,
        full_steps: 300,
        factors: &[2.9, 5.8, 11.7],
    },
    Family {
        network: "MobileNet v2",
        name: "fig16_mobilenet",
        family: "MobileNet",
        model: arch::tiny_mobilenet,
        data: Dataset::ImagenetLike,
        full_steps: 300,
        factors: &[7.0, 10.0],
    },
];

impl Family {
    /// The synthetic dataset it trains on, as Table II prints it.
    pub fn dataset(&self) -> &'static str {
        self.data.label()
    }

    /// Figs 15–16's recipe, which Table II shares: the SGD baseline
    /// beside Procrustes at each of `factors`, every model from seed 1.
    ///
    /// Only the runs `ctx` has not kept yet are trained (in lockstep, so
    /// each holds the bits it would alone); the rest are the ones an
    /// earlier call trained.
    pub fn train(&self, ctx: &ExpContext, factors: &[f64]) -> Vec<Run> {
        let model = || (self.model)(10, &mut Xorshift64::new(1));
        let mut trainers: Vec<Labelled> = vec![(
            "baseline-SGD".into(),
            Box::new(DenseSgdTrainer::new(model(), 0.05, 0.9)),
        )];
        for &f in factors {
            let config = ProcrustesConfig {
                sparsity_factor: f,
                lambda: ctx.lambda(),
                ..ProcrustesConfig::default()
            };
            trainers.push((
                format!("procrustes-{f}x"),
                Box::new(ProcrustesTrainer::new(model(), config, 13)),
            ));
        }
        let labels: Vec<String> = trainers.iter().map(|(label, _)| label.clone()).collect();
        trainers.retain(|(label, _)| ctx.trained_run(self.network, label).is_none());
        if !trainers.is_empty() {
            let seeds = Seeds {
                batches: 0xC0FFEE,
                validation: 0xBEEF,
            };
            let steps = ctx.train_steps(self.full_steps);
            for run in train(ctx, &self.data.build(), seeds, steps, trainers) {
                ctx.keep_run(self.network, run);
            }
        }
        labels
            .iter()
            .map(|label| ctx.trained_run(self.network, label).expect("trained above"))
            .collect()
    }
}

fn run_figure(ctx: &ExpContext, data: Dataset) {
    for family in FAMILIES.iter().filter(|f| f.data == data) {
        let runs = family.train(ctx, family.factors);
        let title = format!(
            "{} — {} family ({}): validation accuracy over training",
            family.name,
            family.family,
            data.label()
        );
        emit_curves(ctx, family.name, &title, &runs);
        let finals: Vec<f64> = runs.iter().map(Run::accuracy).collect();
        let gap = finals[0] - finals[1..].iter().cloned().fold(0.0, f64::max);
        ctx.note(&format!(
            "final accuracies {:?}; best sparse run is within {:.3} of the dense baseline \
             (paper: sparse matches dense)",
            finals
                .iter()
                .map(|a| (a * 1000.0).round() / 1000.0)
                .collect::<Vec<_>>(),
            gap
        ));
    }
}

pub fn run_fig15(ctx: &ExpContext) {
    run_figure(ctx, Dataset::CifarLike);
}

pub fn run_fig16(ctx: &ExpContext) {
    run_figure(ctx, Dataset::ImagenetLike);
}

#[cfg(test)]
mod tests {
    use super::*;
    use procrustes_nn::{BatchNorm2d, Conv2d, Flatten, Linear, MaxPool2d, ReLU};

    const STEPS: usize = 8;
    const SEEDS: Seeds = Seeds {
        batches: 5,
        validation: 6,
    };

    fn micro_model() -> Sequential {
        let mut rng = Xorshift64::new(3);
        let mut m = Sequential::new();
        m.push(Conv2d::new(3, 4, 3, 1, 1, false, &mut rng));
        m.push(BatchNorm2d::new(4));
        m.push(ReLU::new());
        m.push(MaxPool2d::new(2, 2));
        m.push(Flatten::new());
        m.push(Linear::new(4 * 4 * 4, 4, true, &mut rng));
        m
    }

    fn trainers() -> Vec<Labelled> {
        let procrustes = ProcrustesConfig {
            sparsity_factor: 4.0,
            lambda: 0.8,
            ..ProcrustesConfig::default()
        };
        let exact = DropbackConfig {
            sparsity_factor: 4.0,
            lambda: 0.8,
            ..DropbackConfig::default()
        };
        vec![
            (
                "sgd".into(),
                Box::new(DenseSgdTrainer::new(micro_model(), 0.05, 0.9)),
            ),
            (
                "procrustes".into(),
                Box::new(ProcrustesTrainer::new(micro_model(), procrustes, 11)),
            ),
            (
                "exact".into(),
                Box::new(DropbackExact::new(micro_model(), exact, 11)),
            ),
        ]
    }

    fn run(trainers: Vec<Labelled>, eval_every: usize) -> Vec<Run> {
        let data = SyntheticImages::new(4, 8, 8, 0.2, 2);
        lockstep(&data, SEEDS, STEPS, eval_every, 32, trainers)
    }

    fn point_bits(points: &[(u64, f64)]) -> Vec<(u64, u64)> {
        points.iter().map(|&(s, a)| (s, a.to_bits())).collect()
    }

    fn stats_bits(s: &StepStats) -> [u64; 6] {
        [
            s.loss.to_bits() as u64,
            s.tracked as u64,
            s.admitted as u64,
            s.evicted as u64,
            s.threshold.to_bits() as u64,
            s.weight_sparsity.to_bits(),
        ]
    }

    #[test]
    fn lockstep_run_equals_each_trainer_run_alone() {
        let together = run(trainers(), 2);
        assert_eq!(together.len(), 3);
        for (i, solo) in trainers().into_iter().enumerate() {
            let alone = run(vec![solo], 2).remove(0);
            let beside = &together[i];
            assert_eq!(alone.label, beside.label);
            assert_eq!(alone.points.len(), STEPS / 2, "{}", alone.label);
            assert_eq!(
                point_bits(&alone.points),
                point_bits(&beside.points),
                "{}",
                alone.label
            );
            assert_eq!(
                stats_bits(&alone.last),
                stats_bits(&beside.last),
                "{}",
                alone.label
            );
        }
    }

    #[test]
    fn cadence_evaluations_leave_the_final_bits() {
        let cadence = run(trainers(), 2);
        let last_only = run(trainers(), STEPS);
        for (c, f) in cadence.iter().zip(&last_only) {
            assert_eq!(f.points.len(), 1, "{}", f.label);
            assert_eq!(
                point_bits(&c.points[c.points.len() - 1..]),
                point_bits(&f.points),
                "{}",
                c.label
            );
            assert_eq!(stats_bits(&c.last), stats_bits(&f.last), "{}", c.label);
        }
    }

    #[test]
    fn table2_factors_are_figure_cells() {
        for family in &FAMILIES {
            let factor = procrustes_core::paper_sparsity_factor(family.network)
                .expect("every family stands in for a paper network");
            assert!(
                family.factors.contains(&factor),
                "{}: Table II factor {factor} is not among {:?}",
                family.network,
                family.factors
            );
        }
    }
}
