//! The tracked-set store: accumulated gradients for the surviving weights.
//!
//! Procrustes keeps a fixed budget of `k` tracked weights (§II-E: “only a
//! fixed percentage of the parameters are ever allowed to change”). When a
//! new gradient beats the threshold ϑ, it “evicts and replaces the lowest
//! entry” (§III-B). Finding the global minimum of a million-entry set per
//! admission is not hardware-realistic, so this store also offers a
//! sampled-minimum policy: examine `s` pseudo-random candidates and evict
//! the smallest — the ablation benches quantify the accuracy cost.
//!
//! The accelerator stores only the `k` tracked values, compressed (§V).
//! This store keeps an accumulation and a member slot for *every* weight
//! instead — a CPU convenience: membership, accumulation and eviction
//! are O(1) by global index, and the Procrustes step reads both arrays
//! as slices in one in-order walk. The price is that the walk streams
//! all `n` entries of both every step.

use procrustes_prng::{UniformRng, Xorshift64};

/// Eviction policy used when the tracked set is full and a new weight is
/// admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EvictionPolicy {
    /// Scan all tracked entries for the global minimum magnitude (exact,
    /// O(k) per admission — the literal reading of Alg 2/3).
    ExactMin,
    /// Sample this many candidates and evict the smallest (hardware-
    /// realistic; the default with `s = 8`).
    SampledMin(usize),
}

impl Default for EvictionPolicy {
    fn default() -> Self {
        EvictionPolicy::SampledMin(8)
    }
}

/// The accumulated-gradient store for tracked weights.
///
/// Indices are *global weight indices* (the same indices the WR unit is
/// keyed by). Capacity is the weight budget `k = ⌈n / sparsity factor⌉`.
///
/// # Examples
///
/// ```
/// use procrustes_dropback::{EvictionPolicy, TrackedSet};
/// let mut set = TrackedSet::new(100, 2, EvictionPolicy::ExactMin, 1);
/// assert!(set.admit(7, 0.5).is_none()); // below capacity: no eviction
/// assert!(set.admit(9, 1.0).is_none());
/// // Full: admitting evicts the smallest-magnitude entry (index 7).
/// assert_eq!(set.admit(3, 0.8), Some(7));
/// assert!(set.contains(3) && set.contains(9) && !set.contains(7));
/// assert_eq!(set.accumulated(9), 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct TrackedSet {
    /// Accumulated gradient per global weight index (0 when untracked).
    acc: Vec<f32>,
    /// Position+1 of each index in `members` (0 = untracked).
    slot: Vec<u32>,
    /// Tracked indices, unordered.
    members: Vec<u32>,
    capacity: usize,
    policy: EvictionPolicy,
    rng: Xorshift64,
}

impl TrackedSet {
    /// Creates an empty store over `n` weights with the given `capacity`
    /// (budget `k`).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`, `capacity > n`, or a sampled policy has
    /// zero samples.
    pub fn new(n: usize, capacity: usize, policy: EvictionPolicy, seed: u64) -> Self {
        assert!(capacity > 0, "TrackedSet: zero capacity");
        assert!(
            capacity <= n,
            "TrackedSet: capacity {capacity} exceeds {n} weights"
        );
        if let EvictionPolicy::SampledMin(s) = policy {
            assert!(s > 0, "TrackedSet: sampled policy needs at least 1 sample");
        }
        Self {
            acc: vec![0.0; n],
            slot: vec![0; n],
            members: Vec::with_capacity(capacity),
            capacity,
            policy,
            rng: Xorshift64::new(seed),
        }
    }

    /// Number of tracked weights.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True if nothing is tracked.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The weight budget `k`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// True once the budget is exhausted (steady state).
    pub fn is_full(&self) -> bool {
        self.members.len() == self.capacity
    }

    /// True if global index `i` is tracked.
    pub fn contains(&self, i: usize) -> bool {
        self.slot[i] != 0
    }

    /// The accumulated gradient of index `i` (0 when untracked).
    pub fn accumulated(&self, i: usize) -> f32 {
        self.acc[i]
    }

    /// Adds `delta` to the accumulated gradient of a tracked index.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not tracked.
    pub fn accumulate(&mut self, i: usize, delta: f32) {
        assert!(self.contains(i), "accumulate: index {i} not tracked");
        self.acc[i] += delta;
    }

    /// Admits index `i` with initial accumulated value `value`. If the set
    /// is full, evicts one entry per the policy and returns its index.
    ///
    /// # Panics
    ///
    /// Panics if `i` is already tracked.
    pub fn admit(&mut self, i: usize, value: f32) -> Option<usize> {
        assert!(!self.contains(i), "admit: index {i} already tracked");
        let evicted = if self.is_full() {
            let victim = self.find_victim();
            self.remove(victim);
            Some(victim)
        } else {
            None
        };
        self.members.push(i as u32);
        self.slot[i] = self.members.len() as u32;
        self.acc[i] = value;
        evicted
    }

    /// Removes index `i` from the set, zeroing its accumulation.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not tracked.
    pub fn remove(&mut self, i: usize) {
        assert!(self.contains(i), "remove: index {i} not tracked");
        let pos = (self.slot[i] - 1) as usize;
        let last = *self.members.last().expect("non-empty by contains");
        self.members.swap_remove(pos);
        if pos < self.members.len() {
            self.slot[last as usize] = (pos + 1) as u32;
        }
        self.slot[i] = 0;
        self.acc[i] = 0.0;
    }

    /// The accumulations and slots of every index, for a walk that reads
    /// them in index order: `slots[i] != 0` iff `i` is tracked, and an
    /// untracked `acc[i]` is `0.0`. A walk writes `acc` of tracked
    /// indices only; admission and eviction go through
    /// [`admit`](Self::admit).
    pub(crate) fn acc_and_slots(&mut self) -> (&mut [f32], &[u32]) {
        (&mut self.acc, &self.slot)
    }

    /// The accumulated gradient of every index (`0.0` when untracked).
    pub(crate) fn acc(&self) -> &[f32] {
        &self.acc
    }

    /// Iterates over tracked indices (unspecified order).
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.members.iter().map(|&i| i as usize)
    }

    fn find_victim(&mut self) -> usize {
        match self.policy {
            EvictionPolicy::ExactMin => {
                let mut best = self.members[0] as usize;
                for &m in &self.members {
                    if self.acc[m as usize].abs() < self.acc[best].abs() {
                        best = m as usize;
                    }
                }
                best
            }
            EvictionPolicy::SampledMin(s) => {
                let mut best = None::<usize>;
                for _ in 0..s {
                    let pick =
                        self.members[self.rng.next_below(self.members.len() as u64) as usize];
                    let pick = pick as usize;
                    if best.is_none_or(|b| self.acc[pick].abs() < self.acc[b].abs()) {
                        best = Some(pick);
                    }
                }
                best.expect("at least one sample")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admits_until_capacity_without_eviction() {
        let mut set = TrackedSet::new(10, 3, EvictionPolicy::ExactMin, 1);
        assert!(set.admit(0, 0.1).is_none());
        assert!(set.admit(1, 0.2).is_none());
        assert!(set.admit(2, 0.3).is_none());
        assert!(set.is_full());
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn exact_min_evicts_smallest_magnitude() {
        let mut set = TrackedSet::new(10, 3, EvictionPolicy::ExactMin, 1);
        set.admit(0, -0.05); // smallest |.|
        set.admit(1, 0.2);
        set.admit(2, -0.3);
        assert_eq!(set.admit(5, 0.1), Some(0));
        assert!(!set.contains(0));
        assert_eq!(set.accumulated(0), 0.0);
    }

    #[test]
    fn sampled_min_evicts_some_small_entry() {
        // With enough samples, the victim should usually be near the
        // bottom of the magnitude distribution.
        let mut set = TrackedSet::new(1000, 100, EvictionPolicy::SampledMin(16), 2);
        for i in 0..100 {
            set.admit(i, (i + 1) as f32);
        }
        let evicted = set.admit(500, 1000.0).unwrap();
        assert!(
            evicted < 40,
            "sampled eviction picked a large entry: {evicted}"
        );
    }

    #[test]
    fn accumulate_adds_in_place() {
        let mut set = TrackedSet::new(4, 2, EvictionPolicy::ExactMin, 1);
        set.admit(1, 0.5);
        set.accumulate(1, 0.25);
        assert_eq!(set.accumulated(1), 0.75);
    }

    #[test]
    fn remove_keeps_slot_map_consistent() {
        let mut set = TrackedSet::new(10, 5, EvictionPolicy::ExactMin, 1);
        for i in 0..5 {
            set.admit(i, i as f32 + 1.0);
        }
        set.remove(2);
        set.remove(0);
        let mut left: Vec<usize> = set.iter().collect();
        left.sort_unstable();
        assert_eq!(left, vec![1, 3, 4]);
        for i in left {
            assert!(set.contains(i));
        }
        assert!(!set.contains(2) && !set.contains(0));
        // Re-admission works after removal.
        set.admit(2, 9.0);
        assert!(set.contains(2));
    }

    #[test]
    #[should_panic(expected = "already tracked")]
    fn double_admit_panics() {
        let mut set = TrackedSet::new(4, 2, EvictionPolicy::ExactMin, 1);
        set.admit(1, 0.5);
        set.admit(1, 0.6);
    }

    #[test]
    #[should_panic(expected = "not tracked")]
    fn accumulate_untracked_panics() {
        let mut set = TrackedSet::new(4, 2, EvictionPolicy::ExactMin, 1);
        set.accumulate(1, 0.5);
    }

    #[test]
    fn eviction_keeps_size_at_capacity() {
        let mut set = TrackedSet::new(100, 10, EvictionPolicy::SampledMin(4), 3);
        for i in 0..50 {
            let _ = set.admit(i, (i as f32).sin().abs() + 0.01);
            assert!(set.len() <= 10);
        }
        assert!(set.is_full());
    }
}
