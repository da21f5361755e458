//! Cross-crate integration tests for the unified `Scenario`/`Sweep`/
//! `Engine` evaluation API, including the acceptance sweep: the full
//! Fig 17–20-style evaluation (5 networks × 4 mappings × dense+sparse)
//! expressed as one `Sweep` must reproduce the exact `NetworkCost`
//! of the per-figure loops over explicit workloads.

use procrustes::core::arch;
use procrustes::core::{
    masks, Engine, Fidelity, MaskGenConfig, Scenario, SparsityGen, Sweep, PAPER_NETWORKS,
};
use procrustes::sim::{ArchConfig, BalanceMode, Mapping};

/// `Scenario` documents survive a JSON round trip through the facade.
#[test]
fn scenario_json_roundtrip() {
    let scenario = Scenario::builder("ResNet18")
        .arch(ArchConfig::procrustes_32x32())
        .mapping(Mapping::CN)
        .batch(32)
        .sparsity(SparsityGen::Synthetic {
            cfg: MaskGenConfig::paper_default(11.7),
            seed: 0xFEED_FACE_DEAD_BEEF,
        })
        .balance(BalanceMode::HalfTile)
        .build()
        .unwrap();
    let text = scenario.to_json();
    assert_eq!(Scenario::from_json(&text).unwrap(), scenario);
    // Extracted workloads (real masks) round-trip too.
    let net = arch::vgg_s();
    let workloads = masks::generate(&net, &MaskGenConfig::paper_default(5.2), 4, 9);
    let extracted = Scenario::builder("VGG-S")
        .batch(4)
        .sparsity(SparsityGen::Extracted(workloads))
        .build()
        .unwrap();
    assert_eq!(
        Scenario::from_json(&extracted.to_json()).unwrap(),
        extracted
    );
}

/// `Sweep` cardinality is the product of its axis lengths, with unset
/// axes defaulting to one value.
#[test]
fn sweep_cardinality() {
    let sweep = Sweep::new()
        .networks(PAPER_NETWORKS)
        .mappings(Mapping::ALL)
        .sparsities([SparsityGen::Dense, SparsityGen::PaperSynthetic { seed: 1 }]);
    assert_eq!(sweep.cardinality(), 5 * 4 * 2);
    assert_eq!(sweep.build().unwrap().len(), 40);
    assert_eq!(Sweep::new().networks(["VGG-S"]).cardinality(), 1);
}

/// Same seeds ⇒ identical results regardless of thread count: the engine
/// only parallelizes scheduling, never the math.
#[test]
fn run_all_is_deterministic_across_thread_counts() {
    let scenarios = Sweep::new()
        .networks(["VGG-S", "DenseNet"])
        .mappings([Mapping::KN, Mapping::CK])
        .sparsities([SparsityGen::Dense, SparsityGen::PaperSynthetic { seed: 7 }])
        .build()
        .unwrap();
    let serial = Engine::with_threads(1).run_all(&scenarios).unwrap();
    for threads in [2, 4, 8] {
        let parallel = Engine::with_threads(threads).run_all(&scenarios).unwrap();
        assert_eq!(serial, parallel, "thread count {threads} changed results");
    }
}

/// Acceptance: the full Fig 17–20 sweep as ONE `Sweep` declaration
/// reproduces the totals of the legacy per-figure loops (same mask seed).
#[test]
fn full_figure_sweep_matches_legacy_loops() {
    const SEED: u64 = 2; // the historical fig18 seed
    let scenarios = Sweep::new()
        .networks(PAPER_NETWORKS)
        .mappings(Mapping::ALL)
        .sparsities([
            SparsityGen::Dense,
            SparsityGen::PaperSynthetic { seed: SEED },
        ])
        .build()
        .unwrap();
    assert_eq!(scenarios.len(), 40);
    let results = Engine::default().run_all(&scenarios).unwrap();

    // The seed's per-figure loop: masks built by hand per network ×
    // mapping, costed on a fresh serial engine.
    for result in &results {
        let net = procrustes::core::resolve_network(&result.scenario.network).unwrap();
        let hw = ArchConfig::procrustes_16x16();
        let (workloads, balance) = if result.scenario.sparsity.is_dense() {
            (
                masks::dense(&net, Scenario::DEFAULT_BATCH),
                BalanceMode::None,
            )
        } else {
            let factor = procrustes::core::paper_sparsity_factor(&result.scenario.network).unwrap();
            let cfg = MaskGenConfig::paper_default(factor);
            let sparse = masks::generate(&net, &cfg, Scenario::DEFAULT_BATCH, SEED);
            (sparse, BalanceMode::HalfTile)
        };
        let legacy = Engine::serial().run_workloads(
            net.name,
            &hw,
            result.scenario.mapping,
            &workloads,
            balance,
            Fidelity::Analytic,
        );
        assert_eq!(
            result.cost,
            legacy,
            "{} / {:?} / {}",
            result.scenario.network,
            result.scenario.mapping,
            result.scenario.sparsity.label()
        );
    }
}

/// Memoization pays off across a sweep: the dense KN evaluation shares
/// layer costs across batches of the same network, and identical layers
/// within a network are costed once.
#[test]
fn memoization_shares_layer_costs_across_scenarios() {
    let scenarios = Sweep::new()
        .networks(["ResNet18"])
        .mappings([Mapping::KN])
        .sparsities([SparsityGen::Dense])
        .batches([16])
        .build()
        .unwrap();
    let engine = Engine::serial();
    let first = engine.run_all(&scenarios).unwrap();
    let cached = engine.cached_layer_costs();
    // ResNet18 repeats identical block shapes, so the distinct-cost count
    // is below layers × phases.
    assert!(cached > 0 && cached < first[0].cost.layers.len());
    // Re-running the same sweep adds no cache entries and changes nothing.
    let second = engine.run_all(&scenarios).unwrap();
    assert_eq!(engine.cached_layer_costs(), cached);
    assert_eq!(first, second);
}
