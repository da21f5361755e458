//! The engine's generator-keyed lookup, checked by counts rather than
//! clocks: [`Engine::memo_stats`] says how many mask sets were
//! synthesised and how many layers reached the cost model, and every
//! answer is compared with an engine that shares nothing
//! (`memoize: false`, or a fresh engine per scenario).

use procrustes_core::masks::{self, MaskGenConfig};
use procrustes_core::{
    resolve_network, ComputeBackend, Engine, EngineOpts, EvalResult, Fidelity, MemoStats, Scenario,
    ScenarioBuilder, SparsityGen, Sweep, PAPER_NETWORKS,
};
use procrustes_sim::{LayerTask, Mapping, SparsityInfo};
use std::sync::Arc;

/// The Fig 17–20 grid at both fidelities over `networks`: per network
/// two generators (dense, synthetic masks) × 2 fidelities × 4 mappings.
fn grid(networks: &[&str], seed: u64) -> Vec<Scenario> {
    Sweep::new()
        .networks(networks.iter().copied())
        .mappings(Mapping::ALL)
        .sparsities([SparsityGen::Dense, SparsityGen::PaperSynthetic { seed }])
        .fidelities(Fidelity::ALL)
        .build()
        .unwrap()
}

fn docs(results: &[EvalResult]) -> Vec<String> {
    results.iter().map(EvalResult::to_json).collect()
}

/// One scenario on an engine that has seen nothing.
fn fresh(scenario: &Scenario) -> EvalResult {
    Engine::serial().run(scenario).unwrap()
}

fn since(engine: &Engine, before: MemoStats) -> MemoStats {
    let now = engine.memo_stats();
    MemoStats {
        sets_resolved: now.sets_resolved - before.sets_resolved,
        scenarios_assembled: now.scenarios_assembled - before.scenarios_assembled,
        layer_hits: now.layer_hits - before.layer_hits,
        layer_misses: now.layer_misses - before.layer_misses,
        ..now
    }
}

#[test]
fn every_path_returns_the_uncached_answer() {
    // The two cheapest networks keep this affordable under the test
    // profile; the full list runs in the count test below.
    let scenarios = grid(&["DenseNet", "ResNet18"], 17);
    let oracle = Engine::new(EngineOpts {
        threads: 1,
        memoize: false,
    });
    let expected = oracle.run_all(&scenarios).unwrap();
    assert_eq!(oracle.cached_layer_costs(), 0);
    assert_eq!(
        oracle.memo_stats().sets_resolved,
        scenarios.len() as u64,
        "the oracle shares nothing, not even a mask set"
    );
    let one_by_one: Vec<EvalResult> = scenarios.iter().map(fresh).collect();
    assert_eq!(one_by_one, expected);
    for threads in [1, 2, 8] {
        let engine = Engine::with_threads(threads);
        let cold = engine.run_all(&scenarios).unwrap();
        let warm = engine.run_all(&scenarios).unwrap();
        assert_eq!(cold, expected, "cold, {threads} threads");
        assert_eq!(warm, expected, "warm, {threads} threads");
        assert_eq!(docs(&cold), docs(&expected));
        assert_eq!(docs(&warm), docs(&expected));
    }
}

#[test]
fn the_figure_grid_synthesises_each_mask_set_once_and_none_when_warm() {
    let scenarios = grid(&PAPER_NETWORKS, 1);
    assert_eq!(scenarios.len(), 80);
    for threads in [1, 2, 8] {
        let engine = Engine::with_threads(threads);
        let cold = engine.run_all(&scenarios).unwrap();
        let after_cold = engine.memo_stats();
        assert_eq!(after_cold.sets_resolved, 10, "{threads} threads");
        assert_eq!(after_cold.generator_keys, 10);
        assert_eq!(after_cold.scenarios_assembled, 0);
        assert_eq!(after_cold.live_sets, 0, "a mask set outlived run_all");
        assert!(
            (1..=threads as u64).contains(&after_cold.peak_live_sets),
            "{} sets alive at once on {threads} threads",
            after_cold.peak_live_sets
        );
        let entries = engine.cached_layer_costs();

        let warm = engine.run_all(&scenarios).unwrap();
        let pass = since(&engine, after_cold);
        assert_eq!(pass.sets_resolved, 0, "{threads} threads");
        assert_eq!(pass.layer_misses, 0);
        assert_eq!(pass.scenarios_assembled, 80);
        let layers: usize = cold.iter().map(|r| r.cost.layers.len()).sum();
        assert_eq!(pass.layer_hits, layers as u64);
        assert_eq!(pass.live_sets, 0);
        assert_eq!(engine.cached_layer_costs(), entries);
        assert_eq!(warm, cold);
    }
}

#[test]
fn warm_hits_share_each_cached_layer_instead_of_copying_it() {
    // Tile-timed only, so every layer carries its wave overheads.
    let scenarios = Sweep::new()
        .networks(["DenseNet", "ResNet18"])
        .mappings(Mapping::ALL)
        .sparsities([SparsityGen::Dense, SparsityGen::PaperSynthetic { seed: 5 }])
        .fidelities([Fidelity::TileTimed])
        .build()
        .unwrap();
    let expected = Engine::new(EngineOpts {
        threads: 1,
        memoize: false,
    })
    .run_all(&scenarios)
    .unwrap();
    let engine = Engine::with_threads(2);
    assert_eq!(engine.run_all(&scenarios).unwrap(), expected, "cold");
    let after_cold = engine.memo_stats();
    let first = engine.run_all(&scenarios).unwrap();
    let second = engine.run_all(&scenarios).unwrap();
    let passes = since(&engine, after_cold);
    assert_eq!(passes.layer_misses, 0, "both passes are warm");
    assert_eq!(passes.scenarios_assembled, 2 * scenarios.len() as u64);
    assert_eq!(first, expected);
    assert_eq!(second, expected);
    let mut overheads = 0;
    for (a, b) in first.iter().zip(&second) {
        for (x, y) in a.cost.layers.iter().zip(&b.cost.layers) {
            let ctx = format!("{} {} {:?}", a.scenario.network, x.name, x.phase);
            assert!(Arc::ptr_eq(&x.name, &y.name), "name copied: {ctx}");
            assert!(
                Arc::ptr_eq(&x.wave_overheads, &y.wave_overheads),
                "wave overheads copied: {ctx}"
            );
            overheads += x.wave_overheads.len();
        }
    }
    assert!(overheads > 0, "the grid collected no wave overheads");
}

#[test]
fn the_costliest_groups_open_first_and_results_keep_input_order() {
    // The grid listed smallest network first, so that the engine's
    // costliest-first order is the reverse of the input's.
    let kernels = |id: &str| -> usize {
        let net = resolve_network(id).unwrap();
        net.layers.iter().map(|g| g.weights() / (g.r * g.s)).sum()
    };
    let mut networks = PAPER_NETWORKS;
    networks.sort_by_key(|id| kernels(id));
    assert_ne!(networks, PAPER_NETWORKS);
    let scenarios = grid(&networks, 1);
    let expected = Engine::new(EngineOpts {
        threads: 1,
        memoize: false,
    })
    .run_all(&scenarios)
    .unwrap();
    for threads in [1, 2, 3] {
        let engine = Engine::with_threads(threads);
        let results = engine.run_all(&scenarios).unwrap();
        for (scenario, result) in scenarios.iter().zip(&results) {
            assert_eq!(&result.scenario, scenario, "{threads} threads");
        }
        assert_eq!(results, expected, "{threads} threads");
        let stats = engine.memo_stats();
        assert_eq!(stats.sets_resolved, 10, "{threads} threads");
        assert_eq!(engine.cached_layer_costs(), 5_976, "{threads} threads");
        assert_eq!(stats.layer_misses + stats.layer_hits, 7_296);
        if threads == 1 {
            assert_eq!((stats.layer_misses, stats.layer_hits), (5_976, 1_320));
        } else {
            // Two layers appear in two networks' sets each (8 points × 3
            // phases of lookups): two workers that reach one of them at
            // the same moment both miss it, so only the entries are exact.
            assert!(
                (5_976..=5_976 + 48).contains(&stats.layer_misses),
                "{} misses on {threads} threads",
                stats.layer_misses
            );
        }
        assert_eq!(stats.live_sets, 0);
        assert!(
            (1..=threads as u64).contains(&stats.peak_live_sets),
            "{} sets alive at once on {threads} threads",
            stats.peak_live_sets
        );
    }
}

#[test]
fn interleaved_generators_still_resolve_once_each_and_keep_input_order() {
    let per_key = grid(&["DenseNet"], 23);
    let (dense, sparse) = per_key.split_at(per_key.len() / 2);
    assert!(dense.iter().all(|s| s.sparsity.is_dense()));
    let interleaved: Vec<Scenario> = dense
        .iter()
        .zip(sparse)
        .flat_map(|(a, b)| [a.clone(), b.clone()])
        .collect();
    for threads in [1, 2] {
        let engine = Engine::with_threads(threads);
        let results = engine.run_all(&interleaved).unwrap();
        assert_eq!(engine.memo_stats().sets_resolved, 2, "{threads} threads");
        for (scenario, result) in interleaved.iter().zip(&results) {
            assert_eq!(&result.scenario, scenario);
            assert_eq!(result, &fresh(scenario));
        }
    }
}

#[test]
fn workers_without_a_group_of_their_own_share_the_open_one() {
    // One generator, four workers: three of them can only help, and must
    // wait for the first one's masks rather than synthesise their own.
    let scenarios: Vec<Scenario> = grid(&["DenseNet"], 29)
        .into_iter()
        .filter(|s| !s.sparsity.is_dense())
        .collect();
    assert_eq!(scenarios.len(), 8);
    let engine = Engine::with_threads(4);
    let results = engine.run_all(&scenarios).unwrap();
    let stats = engine.memo_stats();
    assert_eq!((stats.sets_resolved, stats.peak_live_sets), (1, 1));
    assert_eq!(stats.live_sets, 0);
    for (scenario, result) in scenarios.iter().zip(&results) {
        assert_eq!(result, &fresh(scenario));
    }
}

#[test]
fn generators_differing_in_one_field_do_not_alias() {
    let cfg = MaskGenConfig::paper_default(3.9);
    let base = || Scenario::builder("DenseNet").batch(2).synthetic(cfg, 5);
    let variants: Vec<ScenarioBuilder> = vec![
        base(),
        base().synthetic(cfg, 6),
        base().batch(4),
        base().compute(ComputeBackend::Dense),
        base().compute(ComputeBackend::Csb),
        base().compute(ComputeBackend::Auto { max_density: 0.05 }),
        base().synthetic(
            MaskGenConfig {
                row_spread: 0.31,
                ..cfg
            },
            5,
        ),
        base().sparsity(SparsityGen::PaperSynthetic { seed: 5 }),
    ];
    let scenarios: Vec<Scenario> = variants.into_iter().map(|b| b.build().unwrap()).collect();
    let expected: Vec<EvalResult> = scenarios.iter().map(fresh).collect();
    // Every ordered pair on its own engine: the second must not be
    // served what the first left behind.
    for (i, first) in scenarios.iter().enumerate() {
        for (j, second) in scenarios.iter().enumerate() {
            if i == j {
                continue;
            }
            let engine = Engine::serial();
            assert_eq!(engine.run(first).unwrap(), expected[i]);
            assert_eq!(engine.run(second).unwrap(), expected[j], "{i} then {j}");
            assert_eq!(engine.memo_stats().sets_resolved, 2, "{i} then {j}");
        }
    }
}

#[test]
fn spellings_of_one_network_share_a_generator() {
    let build = |id: &str| {
        Scenario::builder(id)
            .sparsity(SparsityGen::PaperSynthetic { seed: 9 })
            .build()
            .unwrap()
    };
    let engine = Engine::serial();
    let canonical = engine.run(&build("VGG-S")).unwrap();
    let alias = engine.run(&build("vgg_s")).unwrap();
    let stats = engine.memo_stats();
    assert_eq!(
        (stats.sets_resolved, stats.scenarios_assembled),
        (1, 1),
        "the alias was assembled from the first spelling's layers"
    );
    assert_eq!(stats.generator_keys, 1);
    assert_eq!(alias.cost, canonical.cost);
    assert_eq!(alias, fresh(&build("vgg_s")));
}

#[test]
fn extracted_scenarios_bypass_the_generator_keys() {
    let net = resolve_network("DenseNet").unwrap();
    let workloads = masks::generate(&net, &MaskGenConfig::paper_default(3.9), 4, 31);
    let extracted = Scenario::builder("DenseNet")
        .batch(4)
        .sparsity(SparsityGen::Extracted(workloads.clone()))
        .build()
        .unwrap();
    let engine = Engine::serial();
    let first = engine.run(&extracted).unwrap();
    let after_first = engine.memo_stats();
    let second = engine.run(&extracted).unwrap();
    let pass = since(&engine, after_first);
    // Never keyed, never assembled — but the layer-cost cache still hits.
    assert_eq!(pass.generator_keys, 0);
    assert_eq!(pass.scenarios_assembled, 0);
    assert_eq!(pass.sets_resolved, 1);
    assert_eq!(pass.layer_misses, 0);
    assert_eq!(pass.live_sets, 0);
    assert_eq!(first, second);
    assert_eq!(first, fresh(&extracted));
    let direct = Engine::serial().run_workloads(
        net.name,
        &extracted.arch,
        extracted.mapping,
        &workloads,
        extracted.balance,
        extracted.fidelity,
    );
    assert_eq!(first.cost, direct);
}

#[test]
fn the_generator_key_map_stops_at_its_cap() {
    let scenario = |seed: u64| {
        Scenario::builder("DenseNet")
            .batch(1)
            .sparsity(SparsityGen::PaperSynthetic { seed })
            .build()
            .unwrap()
    };
    let cap = Engine::GENERATOR_KEY_CAP as u64;
    let engine = Engine::serial();
    for seed in 0..cap + 50 {
        engine.run(&scenario(seed)).unwrap();
        assert!(engine.memo_stats().generator_keys <= cap, "seed {seed}");
    }
    let full = engine.memo_stats();
    assert_eq!(full.generator_keys, cap);
    assert_eq!(full.sets_resolved, cap + 50);

    // The newest key is still known: no resolve.
    let newest = engine.run(&scenario(cap + 49)).unwrap();
    let pass = since(&engine, full);
    assert_eq!((pass.sets_resolved, pass.scenarios_assembled), (0, 1));
    assert_eq!(newest, fresh(&scenario(cap + 49)));

    // The oldest was forgotten: one resolve, every layer still cached,
    // and the same answer.
    let before = engine.memo_stats();
    let oldest = engine.run(&scenario(0)).unwrap();
    let pass = since(&engine, before);
    assert_eq!((pass.sets_resolved, pass.scenarios_assembled), (1, 0));
    assert_eq!(pass.layer_misses, 0);
    assert_eq!(pass.generator_keys, cap);
    assert_eq!(oldest, fresh(&scenario(0)));
}

#[test]
fn a_flood_of_generators_and_extracted_layers_keeps_the_cost_cache_bounded() {
    // 2 × GENERATOR_KEY_CAP mask generators, each followed now and then
    // by an Extracted scenario of tiny layers nobody else has.
    let seeds = 2 * Engine::GENERATOR_KEY_CAP as u64;
    let mut scenarios = Vec::new();
    for seed in 0..seeds {
        scenarios.push(
            Scenario::builder("DenseNet")
                .batch(1)
                .sparsity(SparsityGen::PaperSynthetic { seed })
                .build()
                .unwrap(),
        );
        if seed % 16 == 15 {
            let first = seed as usize * 100;
            let layers = (first..first + 400)
                .map(|i| {
                    let task = LayerTask::fc(format!("x{i}"), 1, 1 + i % 64, 1 + i / 64);
                    let sp = SparsityInfo::uniform(&task, 1.0, 0.5);
                    (task, sp)
                })
                .collect();
            scenarios.push(
                Scenario::builder("DenseNet")
                    .batch(1)
                    .sparsity(SparsityGen::Extracted(layers))
                    .build()
                    .unwrap(),
            );
        }
    }
    let per_generator = 3 * resolve_network("DenseNet").unwrap().layers.len();
    let bound = Engine::GENERATOR_KEY_CAP * per_generator + Engine::KEYLESS_COST_CAP;

    let oracle = Engine::new(EngineOpts {
        threads: 1,
        memoize: false,
    });
    let expected = oracle.run_all(&scenarios).unwrap();
    let engine = Engine::with_threads(2);
    for (batch, want) in scenarios.chunks(16).zip(expected.chunks(16)) {
        assert_eq!(engine.run_all(batch).unwrap(), want);
        assert!(
            engine.cached_layer_costs() <= bound,
            "{} cached costs, bound {bound}",
            engine.cached_layer_costs()
        );
    }
    // Unbounded, the cache would hold every cost it ever computed.
    let stats = engine.memo_stats();
    assert!(
        stats.layer_misses > bound as u64,
        "the flood must pass the bound"
    );
    assert_eq!(stats.generator_keys, Engine::GENERATOR_KEY_CAP as u64);
    // The newest generators are still assembled from the cache, and the
    // whole flood replays to the same answers.
    let before = engine.memo_stats();
    let last = scenarios.len() - 2;
    assert_eq!(engine.run(&scenarios[last]).unwrap(), expected[last]);
    assert_eq!(since(&engine, before).scenarios_assembled, 1);
    assert_eq!(engine.run_all(&scenarios).unwrap(), expected);
    assert!(engine.cached_layer_costs() <= bound);
}
