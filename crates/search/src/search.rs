//! The seeded, deterministic successive-halving search loop.

use std::collections::HashSet;

use procrustes_core::json::Json;
use procrustes_core::{Engine, Scenario, Sweep};
use procrustes_prng::{shuffle, SplitMix64, UniformRng};

use crate::objectives::{measure, Objective};
use crate::pareto::{Insert, ParetoFront, ParetoPoint};
use crate::space::{Genome, SearchSpace, AXES};

/// A complete, serializable description of one search: the space (a
/// [`Sweep`] declaration — the grid is *never* materialized), the
/// minimized objective vector, the seed, and the budget knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchSpec {
    /// The design space, as a sweep declaration (axes with defaults).
    pub space: Sweep,
    /// Minimized objectives, in order (default `[cycles, energy]`).
    pub objectives: Vec<Objective>,
    /// PRNG seed; equal seeds reproduce the search exactly (default 0).
    pub seed: u64,
    /// Round-0 population size (default 16).
    pub population: usize,
    /// Maximum number of scenario evaluations (default 4 ×
    /// `population`); the run also stops early when the whole grid has
    /// been evaluated.
    pub budget: usize,
    /// Successive-halving rungs: the per-round batch halves this many
    /// times before settling at its floor (default 3).
    pub rungs: usize,
}

impl SearchSpec {
    /// A spec over `space` with every knob at its documented default.
    pub fn new(space: Sweep) -> SearchSpec {
        let population = 16;
        SearchSpec {
            space,
            objectives: vec![Objective::Cycles, Objective::Energy],
            seed: 0,
            population,
            budget: 4 * population,
            rungs: 3,
        }
    }

    /// Checks the knobs (the space itself is checked when the search
    /// builds its [`SearchSpace`]).
    ///
    /// # Errors
    ///
    /// Returns a message for an empty or duplicated objective vector,
    /// `population < 2`, `budget < population`, or `rungs == 0`.
    pub fn validate(&self) -> Result<(), String> {
        if self.objectives.is_empty() {
            return Err("search spec names no objectives".into());
        }
        for (i, o) in self.objectives.iter().enumerate() {
            if self.objectives[..i].contains(o) {
                return Err(format!("duplicate objective '{}'", o.label()));
            }
        }
        if self.population < 2 {
            return Err("search population must be at least 2".into());
        }
        if self.budget < self.population {
            return Err(format!(
                "search budget {} is below the population {}",
                self.budget, self.population
            ));
        }
        if self.rungs == 0 {
            return Err("search rungs must be at least 1".into());
        }
        Ok(())
    }

    /// Serializes the spec to a canonical JSON document (deterministic
    /// field order; every knob emitted explicitly).
    pub fn to_json(&self) -> String {
        let objectives: Vec<String> = self
            .objectives
            .iter()
            .map(|o| format!("\"{}\"", o.label()))
            .collect();
        format!(
            r#"{{"space":{},"objectives":[{}],"seed":{},"population":{},"budget":{},"rungs":{}}}"#,
            self.space.to_json(),
            objectives.join(","),
            self.seed,
            self.population,
            self.budget,
            self.rungs
        )
    }

    /// Deserializes a spec document. Safe for **untrusted input**:
    /// structured errors, no panics, unknown fields rejected (a typo'd
    /// knob must not silently search the wrong space). Every field
    /// except `space` is optional and defaults as documented on the
    /// struct.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on any malformed or unknown
    /// member.
    pub fn from_json(text: &str) -> Result<SearchSpec, String> {
        let v = Json::parse(text).map_err(|e| format!("malformed search spec: {e}"))?;
        Self::from_json_value(&v)
    }

    /// [`SearchSpec::from_json`] over an already-parsed [`Json`] value.
    ///
    /// # Errors
    ///
    /// See [`SearchSpec::from_json`].
    pub fn from_json_value(v: &Json) -> Result<SearchSpec, String> {
        let Json::Obj(pairs) = v else {
            return Err("search spec is not a JSON object".into());
        };
        const ALLOWED: [&str; 6] = [
            "space",
            "objectives",
            "seed",
            "population",
            "budget",
            "rungs",
        ];
        for (k, _) in pairs {
            if !ALLOWED.contains(&k.as_str()) {
                return Err(format!(
                    "unknown search spec field '{k}' (allowed: {})",
                    ALLOWED.join(", ")
                ));
            }
        }
        let space = Sweep::from_json_value(v.get("space").ok_or("search spec has no 'space'")?)
            .map_err(|e| e.to_string())?;
        let mut spec = SearchSpec::new(space);
        if let Some(objs) = v.get("objectives") {
            let arr = objs
                .as_arr()
                .ok_or("search spec 'objectives' is not an array")?;
            spec.objectives = arr
                .iter()
                .map(|o| {
                    o.as_str()
                        .ok_or_else(|| "objective entry is not a string".to_string())
                        .and_then(Objective::from_label)
                })
                .collect::<Result<_, _>>()?;
        }
        let knob = |key: &str, default: usize| -> Result<usize, String> {
            match v.get(key) {
                None => Ok(default),
                Some(j) => j
                    .as_usize()
                    .ok_or_else(|| format!("search spec '{key}' is not an integer")),
            }
        };
        spec.seed = match v.get("seed") {
            None => 0,
            Some(j) => j.as_u64().ok_or("search spec 'seed' is not an integer")?,
        };
        spec.population = knob("population", spec.population)?;
        // The budget default tracks an explicitly-set population.
        spec.budget = knob("budget", 4 * spec.population)?;
        spec.rungs = knob("rungs", spec.rungs)?;
        spec.validate()?;
        Ok(spec)
    }
}

/// The search's evaluator: answers each batch of scenarios on an
/// [`Engine`] (inheriting its thread pool and per-layer memo cache).
///
/// The search loop itself is single-threaded and seeded; all
/// parallelism (and all caching) lives in the engine, which is what
/// makes the population evolution independent of thread count: the
/// result documents are canonical, so *where* they were computed
/// cannot leak into the search state.
pub struct EngineBackend<'a> {
    engine: &'a Engine,
}

impl<'a> EngineBackend<'a> {
    /// Wraps an engine.
    pub fn new(engine: &'a Engine) -> Self {
        Self { engine }
    }

    /// One canonical `EvalResult` document per scenario, in input
    /// order.
    fn eval_all(&self, scenarios: &[Scenario]) -> Result<Vec<String>, String> {
        let results = self.engine.run_all(scenarios).map_err(|e| e.to_string())?;
        Ok(results.iter().map(|r| r.to_json()).collect())
    }
}

/// One round's progress, reported after its batch has been folded into
/// the front. Every field is deterministic for a given spec (no
/// timings, no cache sources), so the updates are byte-stable across
/// thread counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundUpdate {
    /// 1-based round number.
    pub round: usize,
    /// Total scenarios evaluated so far.
    pub evaluated: usize,
    /// Points that joined the front this round.
    pub added: usize,
    /// Previous members evicted (newly dominated) this round.
    pub removed: usize,
    /// Front size after this round.
    pub front_size: usize,
}

/// The result of a completed search.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    /// The final Pareto front.
    pub front: ParetoFront,
    /// Scenarios evaluated (distinct; never exceeds the budget or the
    /// grid).
    pub evaluated: usize,
    /// Cardinality of the exhaustive grid the space describes.
    pub grid: usize,
    /// Rounds executed.
    pub rounds: usize,
}

/// Mutation weight per axis (genome order: network, sparsity, compute,
/// fidelity, mapping, batch, arch, balance).
///
/// The bias is memoization-aware: the engine's per-layer cost cache is
/// keyed on `(task fp, phase, mapping, balance, fidelity, arch fp,
/// sparsity fp)`, where the per-layer *task set* (and the synthesized
/// sparsity masks feeding it) is determined by network × sparsity ×
/// batch × compute. Mutating mapping/balance/fidelity/arch keeps that
/// whole workload-synthesis family intact — the neighbor shares every
/// task and mask with its parent and re-runs only the cost model — so
/// those axes get weight 3. Batch and compute perturb the task set but
/// stay within the same network/masks (weight 2); network and sparsity
/// restart workload synthesis from scratch (weight 1).
const AXIS_WEIGHTS: [u64; AXES] = [1, 1, 2, 3, 3, 2, 3, 3];

/// Runs the search over `backend`, invoking `on_round` after each
/// round's batch lands.
///
/// Determinism contract: for a fixed spec, the sequence of evaluated
/// genomes, every [`RoundUpdate`], and the final front (members *and*
/// order) are identical regardless of the engine's thread count or
/// cache state. The loop stops when the budget (or the whole grid) has
/// been evaluated, or when the neighborhood generator cannot produce a
/// fresh candidate.
///
/// # Errors
///
/// Propagates spec/space validation errors, engine failures, and
/// malformed result documents.
pub fn run_search(
    spec: &SearchSpec,
    backend: &mut EngineBackend<'_>,
    mut on_round: impl FnMut(&RoundUpdate),
) -> Result<SearchOutcome, String> {
    spec.validate()?;
    let space = SearchSpace::from_sweep(&spec.space).map_err(|e| e.to_string())?;
    let grid = space.cardinality();
    let budget = spec.budget.min(grid);
    let mut rng = SplitMix64::new(spec.seed);
    let mut seen: HashSet<Genome> = HashSet::new();
    let mut front = ParetoFront::new();
    // Evaluation history in evaluation order — the survivor selector
    // draws its second tier from here.
    let mut history: Vec<HistoryPoint> = Vec::new();
    let mut rounds = 0;

    let mut population =
        initial_population(&space, spec.population.min(budget), &mut rng, &mut seen);
    while !population.is_empty() {
        let scenarios: Vec<Scenario> = population
            .iter()
            .map(|g| space.scenario(g).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        let docs = backend.eval_all(&scenarios)?;
        if docs.len() != scenarios.len() {
            return Err(format!(
                "backend returned {} documents for {} scenarios",
                docs.len(),
                scenarios.len()
            ));
        }
        let (mut added, mut removed) = (0, 0);
        for ((genome, scenario), doc) in population.iter().zip(&scenarios).zip(docs) {
            let objectives = measure(&spec.objectives, &doc)?;
            let fingerprint = scenario.fingerprint();
            history.push(HistoryPoint {
                genome: *genome,
                fingerprint,
                objectives: objectives.clone(),
            });
            if let Insert::Added { removed: r } = front.insert(ParetoPoint {
                fingerprint,
                objectives,
                doc,
            }) {
                added += 1;
                removed += r;
            }
        }
        rounds += 1;
        on_round(&RoundUpdate {
            round: rounds,
            evaluated: history.len(),
            added,
            removed,
            front_size: front.len(),
        });
        let remaining = budget - history.len();
        if remaining == 0 {
            break;
        }
        // Successive halving: the batch (and the survivor pool it is
        // bred from) halves each round down to a floor of 2, then the
        // remaining budget is spent at that width around the front.
        let rung = spec.population >> rounds.min(spec.rungs);
        let batch = rung.max(2).min(remaining);
        let survivors = select_survivors(&history, &front, rung.max(2));
        population = next_generation(&space, &survivors, batch, &mut rng, &mut seen);
    }
    Ok(SearchOutcome {
        front,
        evaluated: history.len(),
        grid,
        rounds,
    })
}

/// Runs the search on an in-process engine (the common local case).
///
/// # Errors
///
/// See [`run_search`].
pub fn run_search_on_engine(
    spec: &SearchSpec,
    engine: &Engine,
    on_round: impl FnMut(&RoundUpdate),
) -> Result<SearchOutcome, String> {
    run_search(spec, &mut EngineBackend::new(engine), on_round)
}

/// The brute-force reference: evaluates the spec's *entire* grid
/// through `backend` and folds every result into a front — the ground
/// truth the seeded search is measured against (and what it replaces at
/// scale).
///
/// # Errors
///
/// See [`run_search`]; additionally fails when the grid itself fails to
/// build.
pub fn exhaustive_front(
    spec: &SearchSpec,
    backend: &mut EngineBackend<'_>,
) -> Result<ParetoFront, String> {
    spec.validate()?;
    let scenarios = spec.space.build().map_err(|e| e.to_string())?;
    let docs = backend.eval_all(&scenarios)?;
    let mut front = ParetoFront::new();
    for (scenario, doc) in scenarios.iter().zip(docs) {
        let objectives = measure(&spec.objectives, &doc)?;
        front.insert(ParetoPoint {
            fingerprint: scenario.fingerprint(),
            objectives,
            doc,
        });
    }
    Ok(front)
}

/// Round 0: a stratified sample. Each axis gets an independently
/// shuffled cycle of its indices, and candidate `i` takes entry
/// `i % len` of each cycle — every axis value is visited as evenly as
/// the population allows (Latin-hypercube-style), which is what lets a
/// small round-0 population see the whole grid's spread. Collisions
/// (possible once a cycle wraps) fall back to uniform random fresh
/// genomes.
fn initial_population(
    space: &SearchSpace,
    size: usize,
    rng: &mut SplitMix64,
    seen: &mut HashSet<Genome>,
) -> Vec<Genome> {
    let lens = space.axis_lens();
    let cycles: Vec<Vec<u32>> = lens
        .iter()
        .map(|&len| {
            let mut idx: Vec<u32> = (0..len as u32).collect();
            shuffle(&mut idx, rng);
            idx
        })
        .collect();
    let mut population = Vec::with_capacity(size);
    for i in 0..size {
        let mut genome = [0u32; AXES];
        for (axis, cycle) in cycles.iter().enumerate() {
            genome[axis] = cycle[i % cycle.len()];
        }
        if seen.insert(genome) {
            population.push(genome);
        }
    }
    let mut attempts = 0;
    while population.len() < size && attempts < 64 * size {
        attempts += 1;
        let genome = random_genome(&lens, rng);
        if seen.insert(genome) {
            population.push(genome);
        }
    }
    population
}

/// One evaluated grid point, as the survivor selector sees it.
struct HistoryPoint {
    genome: Genome,
    fingerprint: u64,
    objectives: Vec<f64>,
}

/// The deterministic elitist pool the next generation is bred from:
/// every current front member first (in the front's canonical order —
/// the front *is* the non-dominated rank-0 set of the history, kept
/// incrementally), then dominated history points ordered by (objective
/// vector lexicographically via `total_cmp`, evaluation order) until
/// `count` genomes are collected.
fn select_survivors(history: &[HistoryPoint], front: &ParetoFront, count: usize) -> Vec<Genome> {
    let mut out: Vec<Genome> = front
        .points()
        .iter()
        .filter_map(|p| {
            history
                .iter()
                .find(|h| h.fingerprint == p.fingerprint)
                .map(|h| h.genome)
        })
        .take(count)
        .collect();
    if out.len() < count {
        let mut rest: Vec<usize> = (0..history.len())
            .filter(|&i| !front.contains(history[i].fingerprint))
            .collect();
        rest.sort_by(|&a, &b| {
            let (pa, pb) = (&history[a], &history[b]);
            pa.objectives
                .iter()
                .zip(&pb.objectives)
                .map(|(x, y)| x.total_cmp(y))
                .find(|o| o.is_ne())
                .unwrap_or_else(|| a.cmp(&b))
        });
        out.extend(
            rest.into_iter()
                .take(count - out.len())
                .map(|i| history[i].genome),
        );
    }
    out
}

/// Breeds the next batch around the survivor pool, de-duplicated
/// against every genome ever scheduled so the budget is only spent on
/// fresh grid points.
///
/// The neighborhood is walked *systematically* rather than sampled:
/// for each survivor (front members first), every 1-step mutation is
/// enumerated with axes ordered by descending [`AXIS_WEIGHTS`] — the
/// memoization-aware bias, made deterministic. Only when the combined
/// neighborhoods run dry does the generator fall back to seeded
/// crossover between survivors and uniform restarts. Returns fewer
/// than `batch` (possibly none, ending the search) when even those are
/// exhausted.
fn next_generation(
    space: &SearchSpace,
    survivors: &[Genome],
    batch: usize,
    rng: &mut SplitMix64,
    seen: &mut HashSet<Genome>,
) -> Vec<Genome> {
    let lens = space.axis_lens();
    let mut out = Vec::with_capacity(batch);
    let mut axes: Vec<usize> = (0..AXES).filter(|&a| lens[a] > 1).collect();
    axes.sort_by_key(|&a| (std::cmp::Reverse(AXIS_WEIGHTS[a]), a));
    // Per-survivor ordered neighbor lists, merged round-robin so every
    // survivor's neighborhood opens up in parallel instead of the first
    // survivor's being exhausted before the second's is touched.
    // `seen` already holds everything scheduled in earlier rounds, so
    // re-enumerating from scratch each round resumes exactly where the
    // previous round's walk stopped.
    let neighborhoods: Vec<Vec<Genome>> = survivors
        .iter()
        .map(|parent| {
            let mut n = Vec::new();
            for &axis in &axes {
                for step in 1..lens[axis] as u64 {
                    let mut child = *parent;
                    child[axis] = ((u64::from(parent[axis]) + step) % lens[axis] as u64) as u32;
                    n.push(child);
                }
            }
            n
        })
        .collect();
    let deepest = neighborhoods.iter().map(Vec::len).max().unwrap_or(0);
    'neighbors: for depth in 0..deepest {
        for n in &neighborhoods {
            if let Some(&child) = n.get(depth) {
                if seen.insert(child) {
                    out.push(child);
                    if out.len() == batch {
                        break 'neighbors;
                    }
                }
            }
        }
    }
    let mut attempts = 0;
    let max_attempts = 256 * batch;
    while out.len() < batch && attempts < max_attempts {
        attempts += 1;
        let genome = if survivors.len() >= 2 && attempts % 3 != 0 {
            let a = survivors[rng.next_below(survivors.len() as u64) as usize];
            let b = survivors[rng.next_below(survivors.len() as u64) as usize];
            mutate(crossover(&a, &b, rng), &lens, rng)
        } else {
            random_genome(&lens, rng)
        };
        if seen.insert(genome) {
            out.push(genome);
        }
    }
    out
}

/// A uniform random grid point.
fn random_genome(lens: &[usize; AXES], rng: &mut SplitMix64) -> Genome {
    let mut genome = [0u32; AXES];
    for (axis, &len) in lens.iter().enumerate() {
        genome[axis] = rng.next_below(len as u64) as u32;
    }
    genome
}

/// Reassigns one axis of `genome` to a different value, with the axis
/// chosen by [`AXIS_WEIGHTS`] among axes that have more than one value.
/// Identity when every axis is single-valued.
fn mutate(mut genome: Genome, lens: &[usize; AXES], rng: &mut SplitMix64) -> Genome {
    let total: u64 = (0..AXES)
        .map(|a| if lens[a] > 1 { AXIS_WEIGHTS[a] } else { 0 })
        .sum();
    if total == 0 {
        return genome;
    }
    let mut pick = rng.next_below(total);
    for axis in 0..AXES {
        let w = if lens[axis] > 1 {
            AXIS_WEIGHTS[axis]
        } else {
            0
        };
        if pick < w {
            let len = lens[axis] as u64;
            let step = 1 + rng.next_below(len - 1);
            genome[axis] = ((u64::from(genome[axis]) + step) % len) as u32;
            return genome;
        }
        pick -= w;
    }
    unreachable!("weighted choice covers the total")
}

/// Uniform crossover: each axis from one parent or the other.
fn crossover(a: &Genome, b: &Genome, rng: &mut SplitMix64) -> Genome {
    let mut child = *a;
    for axis in 0..AXES {
        if rng.next_below(2) == 1 {
            child[axis] = b[axis];
        }
    }
    child
}

#[cfg(test)]
mod tests {
    use super::*;
    use procrustes_core::SparsityGen;
    use procrustes_sim::Mapping;

    fn spec() -> SearchSpec {
        let mut s = SearchSpec::new(
            Sweep::new()
                .networks(["VGG-S"])
                .mappings(Mapping::ALL)
                .sparsities([SparsityGen::Dense, SparsityGen::PaperSynthetic { seed: 1 }])
                .batches([2, 4]),
        );
        s.population = 4;
        s.budget = 8;
        s
    }

    #[test]
    fn spec_json_round_trips() {
        let s = spec();
        let back = SearchSpec::from_json(&s.to_json()).unwrap();
        assert_eq!(back, s);
        // Defaults apply when knobs are absent.
        let minimal = SearchSpec::from_json(r#"{"space":{"networks":["VGG-S"]}}"#).unwrap();
        assert_eq!(minimal.population, 16);
        assert_eq!(minimal.budget, 64);
        assert_eq!(
            minimal.objectives,
            vec![Objective::Cycles, Objective::Energy]
        );
        // A set population moves the default budget with it.
        let scaled =
            SearchSpec::from_json(r#"{"space":{"networks":["VGG-S"]},"population":8}"#).unwrap();
        assert_eq!(scaled.budget, 32);
    }

    #[test]
    fn spec_json_rejects_hostile_documents() {
        for bad in [
            "nonsense",
            "[]",
            r#"{}"#,
            r#"{"space":{"networks":["VGG-S"]},"temperature":1}"#,
            r#"{"space":{"networks":["VGG-S"]},"objectives":["edp"]}"#,
            r#"{"space":{"networks":["VGG-S"]},"objectives":[]}"#,
            r#"{"space":{"networks":["VGG-S"]},"objectives":["cycles","cycles"]}"#,
            r#"{"space":{"networks":["VGG-S"]},"population":1}"#,
            r#"{"space":{"networks":["VGG-S"]},"population":8,"budget":4}"#,
            r#"{"space":{"networks":["VGG-S"]},"rungs":0}"#,
            r#"{"space":{"networks":["VGG-S"],"mapings":["KN"]}}"#,
        ] {
            assert!(SearchSpec::from_json(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn search_respects_the_budget_and_reports_rounds() {
        let engine = Engine::serial();
        let mut updates = Vec::new();
        let outcome = run_search_on_engine(&spec(), &engine, |u| updates.push(*u)).unwrap();
        assert!(outcome.evaluated <= 8);
        assert_eq!(outcome.grid, 16);
        assert_eq!(outcome.rounds, updates.len());
        assert!(!outcome.front.is_empty());
        let last = updates.last().unwrap();
        assert_eq!(last.evaluated, outcome.evaluated);
        assert_eq!(last.front_size, outcome.front.len());
    }

    #[test]
    fn tiny_grids_terminate_without_exhausting_attempts() {
        // A 2-point grid with an 8-eval budget: the loop must stop once
        // both points are seen, not spin.
        let mut s = SearchSpec::new(Sweep::new().networks(["VGG-S"]).batches([2, 4]));
        s.population = 2;
        s.budget = 8;
        let engine = Engine::serial();
        let outcome = run_search_on_engine(&s, &engine, |_| {}).unwrap();
        assert_eq!(outcome.evaluated, 2);
        assert_eq!(outcome.grid, 2);
    }

    #[test]
    fn mutation_changes_exactly_one_multi_valued_axis() {
        let mut rng = SplitMix64::new(1);
        let lens = [1usize, 2, 1, 1, 4, 2, 3, 1];
        for _ in 0..200 {
            let genome = random_genome(&lens, &mut rng);
            let mutated = mutate(genome, &lens, &mut rng);
            let diff: Vec<usize> = (0..AXES).filter(|&a| genome[a] != mutated[a]).collect();
            assert_eq!(diff.len(), 1);
            assert!(lens[diff[0]] > 1);
        }
    }
}
