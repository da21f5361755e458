//! The two engine workloads: the Fig 17–20 grid at both fidelities,
//! evaluated on a fresh engine (`sweep_cold`) and again on the engine
//! that has just evaluated it (`sweep_warm`).
//!
//! Cold is part mask synthesis (`core`), part cost model (`sim`); warm
//! removes `sim` and leaves mask synthesis, fingerprinting and the memo
//! lock. The pair tells a cost-model speed-up from a memo one. No
//! tensor code runs in either.

use procrustes_core::{Engine, EvalResult, Scenario, SparsityGen, Sweep, PAPER_NETWORKS};
use procrustes_search::oracle::oracle_spec;
use procrustes_search::{exhaustive_front, run_search_on_engine, EngineBackend};
use procrustes_sim::{evaluate_layer_with, Fidelity, Fnv1a, Mapping, Phase};
use std::time::Instant;

use crate::stats::{mean, median, windowed_rate};
use crate::trace::Tracer;
use crate::{Outcome, RunConfig, SETUP_REPEATS};

/// Passes timed whatever `--seconds` says.
const MIN_PASSES: usize = 2;

/// The Fig 17–20 grid: 5 networks × 4 mappings × {dense, synthetic
/// masks from `seed`}, at the given fidelities.
pub fn grid_sweep(seed: u64, fidelities: &[Fidelity]) -> Sweep {
    Sweep::new()
        .networks(PAPER_NETWORKS)
        .mappings(Mapping::ALL)
        .sparsities([SparsityGen::Dense, SparsityGen::PaperSynthetic { seed }])
        .fidelities(fidelities.iter().copied())
}

pub fn digest<'a>(docs: impl IntoIterator<Item = &'a String>) -> String {
    let mut h = Fnv1a::new();
    for doc in docs {
        h.write(doc.as_bytes());
    }
    format!("{:016x}", h.finish())
}

fn docs_of(results: &[EvalResult]) -> Vec<String> {
    results.iter().map(EvalResult::to_json).collect()
}

struct Warmed {
    scenarios: Vec<Scenario>,
    engine: Engine,
    results: Vec<EvalResult>,
    docs: Vec<String>,
}

/// Set-up of both workloads: build the grid and evaluate it once, which
/// also faults in the allocator and the engine's threads. `sweep_warm`
/// keeps the engine; `sweep_cold` keeps only the documents to compare
/// against.
fn set_up(cfg: &RunConfig) -> (Warmed, Vec<f64>) {
    let mut setups_s = Vec::new();
    let mut warmed = None;
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        let scenarios = grid_sweep(cfg.seed, &[Fidelity::Analytic, Fidelity::TileTimed])
            .build()
            .expect("the figure grid is valid");
        let engine = Engine::default();
        let results = engine.run_all(&scenarios).expect("the grid evaluates");
        setups_s.push(started.elapsed().as_secs_f64());
        let docs = docs_of(&results);
        warmed = Some(Warmed {
            scenarios,
            engine,
            results,
            docs,
        });
    }
    (warmed.expect("at least one set-up"), setups_s)
}

fn run(cfg: &RunConfig, tracer: &mut Tracer, cold: bool) -> Outcome {
    let (warmed, setups_s) = set_up(cfg);
    let mut latencies_ms = Vec::new();
    let mut failed = 0u64;
    let mut peak_rss_mb = 0.0;
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < cfg.seconds || latencies_ms.len() < MIN_PASSES {
        let pass = latencies_ms.len() as u64;
        let fresh;
        let (results, dt) = if cold {
            // A caller's cold sweep pays for its engine too.
            let open = tracer.begin("core.run_all", pass);
            fresh = Engine::default();
            let results = fresh.run_all(&warmed.scenarios);
            (results, tracer.end(open))
        } else {
            tracer.time("core.run_all", pass, || {
                warmed.engine.run_all(&warmed.scenarios)
            })
        };
        latencies_ms.push(dt * 1e3);
        // Every pass must return the documents of the set-up pass.
        let docs = docs_of(&results.expect("the grid evaluates"));
        failed += docs
            .iter()
            .zip(&warmed.docs)
            .filter(|(a, b)| a != b)
            .count() as u64;
        // Read after the same number of passes in every run.
        if latencies_ms.len() == MIN_PASSES {
            peak_rss_mb = crate::host::peak_rss_mb(std::process::id()).unwrap_or(0.0);
        }
    }
    let passes = latencies_ms.len() as u64;
    let per_pass = warmed.scenarios.len() as u64;
    let mut out = Outcome {
        attempted: passes * per_pass,
        failed,
        setups_s,
        // Rendering and comparing the documents between passes is the
        // checker's work, not busy time.
        throughput_per_s: windowed_rate(
            &latencies_ms
                .iter()
                .map(|ms| (ms / 1e3, per_pass))
                .collect::<Vec<_>>(),
        ),
        latencies_ms,
        peak_rss_mb,
        checks: vec![("check.sweep_digest".into(), digest(&warmed.docs))],
        ..Outcome::default()
    };
    if cfg.trace {
        out.layers
            .push(("core.run_all_ms", median(&out.latencies_ms)));
        replay_core_and_sim(&mut out, &warmed, tracer);
        if cold {
            replay_search(&mut out, tracer);
        }
    }
    out
}

pub fn sweep_cold(cfg: &RunConfig, tracer: &mut Tracer) -> Outcome {
    run(cfg, tracer, true)
}

pub fn sweep_warm(cfg: &RunConfig, tracer: &mut Tracer) -> Outcome {
    run(cfg, tracer, false)
}

/// Walks the grid one scenario at a time on a single-threaded engine,
/// with a span around each public call `run_all` makes for it, then
/// replays the cost model alone over the `K,N` scenarios' layers.
fn replay_core_and_sim(out: &mut Outcome, warmed: &Warmed, tracer: &mut Tracer) {
    let engine = Engine::serial();
    let (mut masks, mut cold, mut warm) = (Vec::new(), Vec::new(), Vec::new());
    let (mut analytic, mut timed) = (Vec::new(), Vec::new());
    for (i, scenario) in warmed.scenarios.iter().enumerate() {
        let op = i as u64;
        let net = scenario.resolve_network().expect("validated");
        let open = tracer.begin("bench.replay_scenario", op);
        let (workloads, dt) = tracer.time("core.resolve_workloads", op, || {
            scenario.resolve_workloads().expect("validated")
        });
        masks.push(dt * 1e3);
        let run_workloads = || {
            engine.run_workloads(
                net.name,
                &scenario.arch,
                scenario.mapping,
                &workloads,
                scenario.balance,
                scenario.fidelity,
            )
        };
        let (_, dt) = tracer.time("core.run_workloads_cold", op, run_workloads);
        cold.push(dt * 1e3);
        let (_, dt) = tracer.time("core.run_workloads_warm", op, run_workloads);
        warm.push(dt * 1e3);
        tracer.end(open);

        if scenario.mapping == Mapping::KN && scenario.fidelity == Fidelity::Analytic {
            for (task, sp) in &workloads {
                for phase in Phase::ALL {
                    for (name, fidelity, sink) in [
                        ("sim.evaluate_layer", Fidelity::Analytic, &mut analytic),
                        ("sim.evaluate_layer_timed", Fidelity::TileTimed, &mut timed),
                    ] {
                        let (_, dt) = tracer.time(name, op, || {
                            evaluate_layer_with(
                                &scenario.arch,
                                task,
                                phase,
                                scenario.mapping,
                                sp,
                                scenario.balance,
                                fidelity,
                            )
                        });
                        sink.push(dt * 1e6);
                    }
                }
            }
        }
    }

    // Simulated quantities: they must repeat exactly for equal seeds.
    let (mut speedup, mut saving) = (0.0f64, 0.0f64);
    for sparse in warmed
        .results
        .iter()
        .filter(|r| !r.scenario.sparsity.is_dense())
    {
        let dense = warmed
            .results
            .iter()
            .find(|r| {
                r.scenario.sparsity.is_dense()
                    && r.scenario.network == sparse.scenario.network
                    && r.scenario.mapping == sparse.scenario.mapping
                    && r.scenario.fidelity == sparse.scenario.fidelity
            })
            .expect("the grid pairs every sparse scenario with a dense one");
        speedup = speedup.max(sparse.speedup_over(dense));
        saving = saving.max(sparse.energy_saving_over(dense));
    }
    out.notes.push(format!(
        "simulated maxima over the grid: speedup {speedup:.3}x (paper: up to 4.0x), \
         energy saving {saving:.3}x (paper: up to 3.26x)"
    ));
    out.layers.extend([
        ("core.masks_ms", mean(&masks)),
        ("core.run_workloads_cold_ms", mean(&cold)),
        ("core.run_workloads_warm_ms", mean(&warm)),
        (
            "core.memo_entries",
            warmed.engine.cached_layer_costs() as f64,
        ),
        ("sim.evaluate_layer_us", mean(&analytic)),
        ("sim.evaluate_layer_timed_us", mean(&timed)),
        ("sim.layer_evals", analytic.len() as f64),
        ("sim.max_speedup", speedup),
        ("sim.max_energy_saving", saving),
    ]);
    replay_codec(out, &warmed.results, tracer);
}

/// The codec calls every request and every memo lookup makes, per
/// scenario: fingerprint, result document out, scenario document in.
pub fn replay_codec(out: &mut Outcome, results: &[EvalResult], tracer: &mut Tracer) {
    let (mut fingerprint, mut to_json, mut from_json) = (Vec::new(), Vec::new(), Vec::new());
    for (i, result) in results.iter().enumerate() {
        let op = i as u64;
        let (_, dt) = tracer.time("core.fingerprint", op, || result.scenario.fingerprint());
        fingerprint.push(dt * 1e6);
        let (_, dt) = tracer.time("core.result_to_json", op, || result.to_json());
        to_json.push(dt * 1e6);
        let text = result.scenario.to_json();
        let (_, dt) = tracer.time("core.scenario_from_json", op, || Scenario::from_json(&text));
        from_json.push(dt * 1e6);
    }
    out.layers.extend([
        ("core.fingerprint_us", median(&fingerprint)),
        ("core.to_json_us", median(&to_json)),
        ("core.from_json_us", median(&from_json)),
    ]);
}

/// The pinned search against the exhaustive front of its grid.
fn replay_search(out: &mut Outcome, tracer: &mut Tracer) {
    let spec = oracle_spec();
    let engine = Engine::default();
    let (found, dt) = tracer.time("search.run_search", 0, || {
        run_search_on_engine(&spec, &engine, |_| {}).expect("the oracle spec searches")
    });
    let exact = exhaustive_front(&spec, &mut EngineBackend::new(&Engine::default()))
        .expect("the oracle grid evaluates");
    out.layers.extend([
        ("search.run_ms", dt * 1e3),
        ("search.evaluated", found.evaluated as f64),
        (
            "search.front_exact",
            f64::from(u8::from(found.front.to_json() == exact.to_json())),
        ),
    ]);
}
