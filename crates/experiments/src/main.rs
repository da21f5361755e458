//! The Procrustes experiment harness: regenerates every table and figure
//! of the paper's evaluation (see docs/PAPER_MAP.md for the artifact index).
//!
//! ```text
//! procrustes-experiments <experiment> [--quick] [--full] [--out DIR]
//!
//! experiments:
//!   fig1    ideal-sparsity energy & cycle potential (VGG-S @ 5x)
//!   fig5    load-imbalance histogram, no balancing
//!   fig6    validation accuracy: initial weight decay vs none
//!   fig7    validation accuracy: quantile estimation vs exact sort
//!   fig8    CSB format worked example
//!   fig13   load-imbalance histogram after half-tile balancing
//!   fig15   accuracy curves: VGG/DenseNet/WRN families (CIFAR-like)
//!   fig16   accuracy curves: ResNet/MobileNet families (ImageNet-like)
//!   fig17   energy breakdown, K,N dataflow, all five networks
//!   fig18   energy across dataflows (PQ/CK/CN/KN)
//!   fig19   training latency across dataflows
//!   fig20   scalability 16x16 -> 32x32
//!   table1  hardware configuration
//!   table2  per-network sparsity / MACs / accuracy
//!   table3  area & power overheads
//!   fidelity   analytic vs tile-timed latency across the Fig 17-20
//!              sweeps (the model-fidelity ablation)
//!   ablations  design-choice ablations (eviction, QE width, balancer,
//!              sparse-training families, fidelity) — beyond the
//!              paper's figures
//!   all     every experiment in order
//! ```
//!
//! `--quick` shrinks the training experiments (fewer steps); `--full`
//! runs them at the defaults; `--out DIR` additionally writes each table
//! as CSV into DIR.

mod ablations;
mod ctx;
mod fig01_ideal;
mod fig05_13_imbalance;
mod fig08_csb;
mod fig17_20_hw;
mod tables;
mod training;

use ctx::ExpContext;

fn usage() -> ! {
    eprintln!(
        "usage: procrustes-experiments <fig1|fig5|fig6|fig7|fig8|fig13|fig15|fig16|fig17|fig18|fig19|fig20|table1|table2|table3|fidelity|ablations|all> [--quick] [--full] [--out DIR]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let mut which: Option<String> = None;
    let mut quick = true; // default: quick, so `all` finishes in minutes
    let mut out: Option<std::path::PathBuf> = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--full" => quick = false,
            "--out" => {
                out = Some(it.next().unwrap_or_else(|| usage()).into());
            }
            name if !name.starts_with('-') && which.is_none() => which = Some(name.to_string()),
            _ => usage(),
        }
    }
    let which = which.unwrap_or_else(|| usage());
    let ctx = ExpContext::new(quick, out);

    let run = |ctx: &ExpContext, name: &str| match name {
        "fig1" => fig01_ideal::run(ctx),
        "fig5" => fig05_13_imbalance::run_fig5(ctx),
        "fig6" => training::run_fig6(ctx),
        "fig7" => training::run_fig7(ctx),
        "fig8" => fig08_csb::run(ctx),
        "fig13" => fig05_13_imbalance::run_fig13(ctx),
        "fig15" => training::run_fig15(ctx),
        "fig16" => training::run_fig16(ctx),
        "fig17" => fig17_20_hw::run_fig17(ctx),
        "fig18" => fig17_20_hw::run_fig18(ctx),
        "fig19" => fig17_20_hw::run_fig19(ctx),
        "fig20" => fig17_20_hw::run_fig20(ctx),
        "table1" => tables::run_table1(ctx),
        "table2" => tables::run_table2(ctx),
        "table3" => tables::run_table3(ctx),
        "fidelity" => ablations::run_fidelity(ctx),
        "ablations" => ablations::run_all(ctx),
        other => {
            eprintln!("unknown experiment: {other}");
            usage();
        }
    };

    if which == "all" {
        for name in [
            "table1", "table3", "fig8", "fig1", "fig5", "fig13", "fig17", "fig18", "fig19",
            "fig20", "table2", "fig6", "fig7", "fig15", "fig16",
        ] {
            println!("\n######## {name} ########");
            run(&ctx, name);
        }
    } else {
        run(&ctx, &which);
    }
}
