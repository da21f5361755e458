//! Shape checks for the headline reproduction claims: the ratios the
//! paper reports must hold in band when the experiments run (docs/PAPER_MAP.md "Claim bands"). These pin the *qualitative* results so a regression in any crate
//! surfaces as a failed claim, not just a changed number.

use procrustes::core::arch;
use procrustes::core::{
    masks, Engine, EvalResult, Fidelity, MaskGenConfig, Scenario, ScenarioBuilder,
};
use procrustes::sim::{area, ArchConfig, BalanceMode, Mapping, Phase};

/// Evaluates one scenario on a fresh serial engine.
fn run(scenario: ScenarioBuilder) -> EvalResult {
    Engine::serial().run(&scenario.build().unwrap()).unwrap()
}

/// Fig 17/19 headline: sparse training on VGG-S saves 2–4× energy and
/// 1.5–4.5× latency over the dense baseline under K,N.
#[test]
fn vgg_energy_and_speedup_bands() {
    let dense = run(Scenario::builder("VGG-S"));
    let sparse = run(Scenario::builder("VGG-S").synthetic(MaskGenConfig::paper_default(5.2), 42));
    let e = sparse.energy_saving_over(&dense);
    let s = sparse.speedup_over(&dense);
    assert!((2.0..4.0).contains(&e), "energy saving {e:.2} out of band");
    assert!((1.5..4.5).contains(&s), "speedup {s:.2} out of band");
}

/// §VI-D: K,N is the fastest mapping; P,Q the slowest (checked on two
/// networks with very different shapes).
#[test]
fn kn_fastest_pq_slowest() {
    for (net, factor) in [("VGG-S", 5.2), ("DenseNet", 3.9)] {
        let cfg = MaskGenConfig::paper_default(factor);
        let cycles: Vec<(Mapping, u64)> = Mapping::ALL
            .iter()
            .map(|&m| {
                let sparse = run(Scenario::builder(net).mapping(m).synthetic(cfg, 7));
                (m, sparse.totals().cycles)
            })
            .collect();
        let kn = cycles.iter().find(|(m, _)| *m == Mapping::KN).unwrap().1;
        let pq = cycles.iter().find(|(m, _)| *m == Mapping::PQ).unwrap().1;
        for &(m, c) in &cycles {
            assert!(kn <= c, "{net}: KN {kn} slower than {m:?} {c}");
        }
        assert!(pq >= kn, "{net}: PQ should not beat KN");
    }
}

/// Fig 18's observation: energy varies far less across mappings than
/// latency does (dataflow choice is "overrated" for energy).
#[test]
fn energy_varies_less_than_latency_across_mappings() {
    let cfg = MaskGenConfig::paper_default(5.2);
    let runs: Vec<_> = Mapping::ALL
        .iter()
        .map(|&m| run(Scenario::builder("VGG-S").mapping(m).synthetic(cfg, 3)))
        .collect();
    let e: Vec<f64> = runs.iter().map(|r| r.totals().energy_j()).collect();
    let c: Vec<f64> = runs.iter().map(|r| r.totals().cycles as f64).collect();
    let spread = |v: &[f64]| {
        v.iter().cloned().fold(f64::MIN, f64::max) / v.iter().cloned().fold(f64::MAX, f64::min)
    };
    assert!(
        spread(&e) < spread(&c),
        "energy spread {:.2} should be below latency spread {:.2}",
        spread(&e),
        spread(&c)
    );
    assert!(
        spread(&e) < 1.6,
        "energy spread {:.2} too large",
        spread(&e)
    );
}

/// Figs 5 vs 13: half-tile balancing cuts both the mean and the worst
/// working-set overhead by a large factor.
#[test]
fn balancing_improves_imbalance_distribution() {
    let net = arch::vgg_s();
    let hw = ArchConfig::procrustes_16x16();
    let wl = masks::generate(&net, &MaskGenConfig::paper_default(5.2), 16, 42);
    let collect = |balance: BalanceMode| -> Vec<f32> {
        Engine::serial()
            .run_workloads(net.name, &hw, Mapping::KN, &wl, balance, Fidelity::Analytic)
            .layers
            .iter()
            .filter(|c| matches!(c.phase, Phase::Forward | Phase::Backward))
            .flat_map(|c| c.wave_overheads.iter().copied())
            .collect()
    };
    let unbal = collect(BalanceMode::None);
    let bal = collect(BalanceMode::HalfTile);
    let mean = |v: &[f32]| v.iter().map(|&x| f64::from(x)).sum::<f64>() / v.len() as f64;
    let worst = |v: &[f32]| v.iter().cloned().fold(0.0f32, f32::max) as f64;
    assert!(worst(&unbal) > 0.5, "unbalanced worst {:.2}", worst(&unbal));
    assert!(
        mean(&bal) < mean(&unbal) / 3.0,
        "mean {:.3} -> {:.3}",
        mean(&unbal),
        mean(&bal)
    );
    assert!(
        worst(&bal) < worst(&unbal) / 2.0,
        "worst {:.3} -> {:.3}",
        worst(&unbal),
        worst(&bal)
    );
}

/// Fig 20: quadrupling the PEs scales K,N latency ≥2.5× (batch 32) while
/// energy stays within ±25%.
#[test]
fn scalability_band() {
    let at = |hw: ArchConfig| {
        let cfg = MaskGenConfig::paper_default(11.7);
        run(Scenario::builder("ResNet18")
            .arch(hw)
            .batch(32)
            .synthetic(cfg, 4))
    };
    let small = at(ArchConfig::procrustes_16x16());
    let big = at(ArchConfig::procrustes_32x32());
    let scaling = big.speedup_over(&small);
    assert!((2.5..4.2).contains(&scaling), "scaling {scaling:.2}");
    let e_ratio = big.totals().energy_j() / small.totals().energy_j();
    assert!((0.75..1.25).contains(&e_ratio), "energy ratio {e_ratio:.2}");
}

/// Table II geometry: dense sizes match the paper and generated masks hit
/// each target factor within 10%.
#[test]
fn table2_sparsity_factors() {
    for (net, factor) in [
        (arch::densenet(), 3.9),
        (arch::wrn_28_10(), 4.3),
        (arch::vgg_s(), 5.2),
        (arch::mobilenet_v2(), 10.0),
        (arch::resnet18(), 11.7),
    ] {
        let wl = masks::generate(&net, &MaskGenConfig::paper_default(factor), 1, 9);
        let dense: u64 = wl.iter().map(|(t, _)| t.weights() as u64).sum();
        let nnz: u64 = wl.iter().map(|(_, sp)| sp.total_nnz()).sum();
        let achieved = dense as f64 / nnz as f64;
        assert!(
            (achieved / factor - 1.0).abs() < 0.10,
            "{}: achieved {achieved:.2} vs target {factor}",
            net.name
        );
    }
}

/// Table III: area and power overheads land in the paper's neighbourhood
/// (14% / 11%).
#[test]
fn table3_overheads() {
    let (a, p) = area::overheads(256);
    assert!((0.10..0.20).contains(&a), "area overhead {a:.3}");
    assert!((0.08..0.16).contains(&p), "power overhead {p:.3}");
}

/// Fig 1: the idealized configuration bounds the realistic one from
/// below on both metrics.
#[test]
fn ideal_bounds_realistic() {
    let at = |hw: ArchConfig| {
        let cfg = MaskGenConfig::paper_default(5.2);
        run(Scenario::builder("VGG-S").arch(hw).synthetic(cfg, 5))
    };
    let real = at(ArchConfig::procrustes_16x16());
    let ideal = at(ArchConfig::ideal_16x16());
    assert!(ideal.totals().cycles <= real.totals().cycles);
    assert!(ideal.totals().energy_j() <= real.totals().energy_j() * 1.0001);
}
