//! Deterministic fault injection for chaos testing the daemon.
//!
//! A daemon started with `--fault-plan <file|spec>` arms a set of named
//! **failpoints** — places in the serving path where a real failure mode
//! (a truncated cache entry, an overloaded queue) is synthesized on
//! purpose. Whether a given arrival at a failpoint fires
//! is a *pure function* of the plan: each failpoint keeps its own
//! invocation counter, and the decision for invocation `k` is derived
//! from `SplitMix64(seed ^ fnv(label) ^ mix(k))` — no wall clock, no
//! global RNG state shared between failpoints. The same plan against the
//! same request stream therefore injects the same faults in the same
//! places, which is what makes a chaos run replayable byte-for-byte.
//!
//! Every injected fault lands on a path the daemon already treats as a
//! real-world failure (the fault *is* the real error value: a truncated
//! document, a shed reply), so chaos runs
//! exercise the production recovery code, not parallel test-only
//! branches. The headline invariant the chaos suite pins: **no fault
//! ever changes a served byte** — recovery may recompute or retry work,
//! never corrupt it.
//!
//! When no plan is configured the handle is a no-op `None` and every
//! check is a single branch on an `Option` — zero allocation, zero
//! locking, zero RNG work on the production path.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use procrustes_prng::{SplitMix64, UniformRng};
use procrustes_sim::Fnv1a;

/// The named failpoints a plan may arm, in wire/spec order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failpoint {
    /// A disk-cache read observes a truncated (corrupt) entry.
    CacheCorrupt,
    /// A request is refused with a synthetic `shed` reply even though
    /// the queues had room.
    ForcedShed,
}

impl Failpoint {
    /// Every failpoint, in spec order (which is also discriminant order:
    /// a failpoint's discriminant indexes its invocation counter).
    pub const ALL: [Failpoint; 2] = [Failpoint::CacheCorrupt, Failpoint::ForcedShed];

    /// The spec-grammar label (also the per-failpoint PRNG stream salt).
    pub fn label(self) -> &'static str {
        match self {
            Failpoint::CacheCorrupt => "cache_corrupt",
            Failpoint::ForcedShed => "forced_shed",
        }
    }

    fn from_label(label: &str) -> Option<Failpoint> {
        Failpoint::ALL.into_iter().find(|p| p.label() == label)
    }
}

/// When an armed failpoint fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// Fire each invocation independently with this probability
    /// (deterministically: the coin is a pure function of plan seed,
    /// failpoint label, and invocation index).
    Prob(f64),
    /// Fire exactly the invocations in `[start, end)` (0-based), e.g.
    /// `2..5` fires the third, fourth, and fifth arrival.
    Range(u64, u64),
}

/// A parsed `--fault-plan`: the schedule seed and the armed failpoints.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seeds every failpoint's decision stream (default 0).
    pub seed: u64,
    /// The armed failpoints and their firing rules.
    pub rules: Vec<(Failpoint, Rule)>,
}

impl FaultPlan {
    /// Parses a plan spec.
    ///
    /// Grammar (whitespace around tokens is ignored; `#` starts a
    /// comment running to end of line; newlines and `;` both separate
    /// items):
    ///
    /// ```text
    /// spec  = item (separator item)*
    /// item  = "seed" "=" u64
    ///       | failpoint "=" probability      # 0.0..=1.0
    ///       | failpoint "=" u64 ".." u64     # fire invocations [a, b)
    /// ```
    ///
    /// Example: `seed=42; forced_shed=0.3; cache_corrupt=0..2`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on an unknown failpoint, an
    /// out-of-range probability, or a malformed item.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for raw in spec
            .lines()
            .flat_map(|line| line.split('#').next().unwrap_or("").split(';'))
        {
            let item = raw.trim();
            if item.is_empty() {
                continue;
            }
            let (key, value) = item
                .split_once('=')
                .ok_or_else(|| format!("fault-plan item '{item}' is not KEY=VALUE"))?;
            let (key, value) = (key.trim(), value.trim());
            match key {
                "seed" => {
                    plan.seed = value
                        .parse()
                        .map_err(|e| format!("fault-plan seed '{value}': {e}"))?;
                }
                _ => {
                    let point = Failpoint::from_label(key).ok_or_else(|| {
                        format!(
                            "unknown failpoint '{key}' (known: {})",
                            Failpoint::ALL.map(Failpoint::label).join(", ")
                        )
                    })?;
                    let rule = if let Some((start, end)) = value.split_once("..") {
                        let parse = |s: &str, what: &str| {
                            s.trim()
                                .parse::<u64>()
                                .map_err(|e| format!("fault-plan {key} range {what} '{s}': {e}"))
                        };
                        let (start, end) = (parse(start, "start")?, parse(end, "end")?);
                        if start >= end {
                            return Err(format!("fault-plan {key} range {start}..{end} is empty"));
                        }
                        Rule::Range(start, end)
                    } else {
                        let p: f64 = value
                            .parse()
                            .map_err(|e| format!("fault-plan {key} probability '{value}': {e}"))?;
                        if !(0.0..=1.0).contains(&p) {
                            return Err(format!(
                                "fault-plan {key} probability {p} outside 0.0..=1.0"
                            ));
                        }
                        Rule::Prob(p)
                    };
                    plan.rules.retain(|(p, _)| *p != point);
                    plan.rules.push((point, rule));
                }
            }
        }
        Ok(plan)
    }

    /// Loads a plan from `--fault-plan`'s argument: the contents of
    /// `arg` as a file when a file of that name exists, else `arg`
    /// itself as an inline spec.
    ///
    /// # Errors
    ///
    /// Propagates read failures and [`FaultPlan::parse`] errors.
    pub fn load(arg: &str) -> Result<FaultPlan, String> {
        let path = std::path::Path::new(arg);
        if path.is_file() {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("reading fault plan {arg}: {e}"))?;
            FaultPlan::parse(&text)
        } else {
            FaultPlan::parse(arg)
        }
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed={}", self.seed)?;
        for (point, rule) in &self.rules {
            match rule {
                Rule::Prob(p) => write!(f, "; {}={p}", point.label())?,
                Rule::Range(a, b) => write!(f, "; {}={a}..{b}", point.label())?,
            }
        }
        Ok(())
    }
}

/// The armed state behind a non-empty plan: the plan itself, one
/// invocation counter per failpoint, and the fired-fault counter
/// surfaced as the `faults_injected` metric.
#[derive(Debug)]
struct FaultState {
    plan: FaultPlan,
    invocations: [AtomicU64; Failpoint::ALL.len()],
    injected: AtomicU64,
}

/// The failpoint handle threaded through the serving path. `Default`
/// (and [`Faults::none`]) is the disarmed handle: every check is one
/// `Option` branch, nothing else. Cloning shares the armed state, so
/// every copy of the handle draws from the same per-failpoint
/// invocation streams and feeds the same `faults_injected` counter.
#[derive(Debug, Clone, Default)]
pub struct Faults(Option<Arc<FaultState>>);

impl Faults {
    /// The disarmed handle (the production default).
    pub fn none() -> Faults {
        Faults(None)
    }

    /// Arms a plan. A plan with no rules still counts invocations but
    /// never fires.
    pub fn armed(plan: FaultPlan) -> Faults {
        Faults(Some(Arc::new(FaultState {
            plan,
            invocations: std::array::from_fn(|_| AtomicU64::new(0)),
            injected: AtomicU64::new(0),
        })))
    }

    /// Decides whether this arrival at `point` fires, advancing the
    /// failpoint's invocation counter. Deterministic: invocation `k` of
    /// a failpoint fires iff the pure function of
    /// `(plan.seed, point.label(), k)` says so, independent of thread
    /// interleaving *given* a fixed per-failpoint arrival order.
    pub fn fires(&self, point: Failpoint) -> bool {
        let Some(state) = &self.0 else {
            return false;
        };
        let Some((_, rule)) = state.plan.rules.iter().find(|(p, _)| *p == point) else {
            return false;
        };
        let k = state.invocations[point as usize].fetch_add(1, Ordering::Relaxed);
        let fired = match *rule {
            Rule::Range(start, end) => (start..end).contains(&k),
            Rule::Prob(p) => {
                let mut salt = Fnv1a::new();
                salt.write(point.label().as_bytes());
                // Golden-ratio stride decorrelates consecutive k's
                // before SplitMix64 finishes the mixing.
                let mut rng = SplitMix64::new(
                    state.plan.seed ^ salt.finish() ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                rng.next_f64() < p
            }
        };
        if fired {
            state.injected.fetch_add(1, Ordering::Relaxed);
        }
        fired
    }

    /// Faults injected since the daemon started (the `faults_injected`
    /// metric; 0 when disarmed).
    pub fn injected(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |s| s.injected.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips_every_item_kind() {
        let plan =
            FaultPlan::parse("seed=42; forced_shed=0.25; cache_corrupt=0..2 # trailing comment")
                .unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(
            plan.rules,
            vec![
                (Failpoint::ForcedShed, Rule::Prob(0.25)),
                (Failpoint::CacheCorrupt, Rule::Range(0, 2)),
            ]
        );
        // Display emits a spec that parses back to the same plan.
        assert_eq!(FaultPlan::parse(&plan.to_string()).unwrap(), plan);
    }

    #[test]
    fn parse_accepts_newline_separated_file_form() {
        let plan =
            FaultPlan::parse("# chaos drill\nseed = 7\nforced_shed = 0.5\ncache_corrupt = 1.0\n")
                .unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.rules.len(), 2);
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "nonsense",
            "seed=abc",
            "warp_core_breach=0.5",
            "forced_shed=1.5",
            "forced_shed=-0.1",
            "cache_corrupt=5..2",
            "cache_corrupt=3..3",
            "peer_dial_refused=0.5",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn last_rule_for_a_failpoint_wins() {
        let plan = FaultPlan::parse("forced_shed=0.1; forced_shed=0..1").unwrap();
        assert_eq!(plan.rules, vec![(Failpoint::ForcedShed, Rule::Range(0, 1))]);
    }

    #[test]
    fn disarmed_handle_never_fires() {
        let faults = Faults::none();
        for point in Failpoint::ALL {
            assert!(!faults.fires(point));
        }
        assert_eq!(faults.injected(), 0);
    }

    #[test]
    fn range_rule_fires_exactly_its_window() {
        let faults = Faults::armed(FaultPlan::parse("cache_corrupt=2..4").unwrap());
        let fired: Vec<bool> = (0..6)
            .map(|_| faults.fires(Failpoint::CacheCorrupt))
            .collect();
        assert_eq!(fired, [false, false, true, true, false, false]);
        assert_eq!(faults.injected(), 2);
        // Other failpoints stay silent and do not advance this stream.
        assert!(!faults.fires(Failpoint::ForcedShed));
    }

    #[test]
    fn prob_schedule_is_deterministic_and_seed_sensitive() {
        let schedule = |seed: u64| -> Vec<bool> {
            let faults =
                Faults::armed(FaultPlan::parse(&format!("seed={seed}; forced_shed=0.5")).unwrap());
            (0..64)
                .map(|_| faults.fires(Failpoint::ForcedShed))
                .collect()
        };
        assert_eq!(schedule(1), schedule(1), "same seed, same schedule");
        assert_ne!(
            schedule(1),
            schedule(2),
            "different seed, different schedule"
        );
        let fired = schedule(1).iter().filter(|&&f| f).count();
        assert!((16..=48).contains(&fired), "p=0.5 fired {fired}/64");
    }

    #[test]
    fn prob_streams_are_independent_per_failpoint() {
        let spec = "seed=9; cache_corrupt=0.5; forced_shed=0.5";
        let faults = Faults::armed(FaultPlan::parse(spec).unwrap());
        let a: Vec<bool> = (0..64)
            .map(|_| faults.fires(Failpoint::CacheCorrupt))
            .collect();
        let b: Vec<bool> = (0..64)
            .map(|_| faults.fires(Failpoint::ForcedShed))
            .collect();
        assert_ne!(a, b, "label salt must decorrelate the streams");
    }

    #[test]
    fn clones_share_one_schedule() {
        let faults = Faults::armed(FaultPlan::parse("cache_corrupt=0..1").unwrap());
        let clone = faults.clone();
        assert!(clone.fires(Failpoint::CacheCorrupt), "first arrival fires");
        assert!(
            !faults.fires(Failpoint::CacheCorrupt),
            "clone advanced the shared stream"
        );
        assert_eq!(faults.injected(), 1);
        assert_eq!(clone.injected(), 1);
    }

    #[test]
    fn load_prefers_an_existing_file() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("procrustes-fault-plan-{}.txt", std::process::id()));
        std::fs::write(&path, "seed=3; forced_shed=0..1\n").unwrap();
        let plan = FaultPlan::load(path.to_str().unwrap()).unwrap();
        assert_eq!(plan.seed, 3);
        let _ = std::fs::remove_file(&path);
        // A non-file argument parses inline.
        let inline = FaultPlan::load("seed=4").unwrap();
        assert_eq!(inline.seed, 4);
    }
}
