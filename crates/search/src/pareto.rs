//! The Pareto-front accumulator.

use std::cmp::Ordering;
use std::fmt::Write as _;

use procrustes_core::json::Json;

/// One non-dominated design point: the scenario fingerprint (its
/// cross-process identity), the measured objective vector (one entry
/// per spec objective, all minimized), and the canonical `EvalResult`
/// JSON document it was measured from.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoPoint {
    /// [`Scenario::fingerprint`](procrustes_core::Scenario::fingerprint)
    /// of the evaluated scenario.
    pub fingerprint: u64,
    /// The objective vector, in the spec's objective order (minimized).
    pub objectives: Vec<f64>,
    /// The canonical result document (byte-identical to
    /// `EvalResult::to_json`).
    pub doc: String,
}

/// What [`ParetoFront::insert`] did with a candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Insert {
    /// The point joined the front, evicting `removed` newly-dominated
    /// members.
    Added {
        /// Number of previous members the new point dominated.
        removed: usize,
    },
    /// An existing member dominates (or equals, with the same
    /// fingerprint) the candidate; the front is unchanged.
    Dominated,
    /// The exact same scenario (by fingerprint) is already a member.
    Duplicate,
}

/// `true` when `a` Pareto-dominates `b` under minimization: no worse on
/// every objective and strictly better on at least one. Equal vectors
/// dominate in neither direction (ties coexist on the front).
pub fn dominates(a: &[f64], b: &[f64]) -> bool {
    debug_assert_eq!(a.len(), b.len(), "objective vectors must align");
    let mut strictly = false;
    for (&x, &y) in a.iter().zip(b) {
        match x.total_cmp(&y) {
            Ordering::Greater => return false,
            Ordering::Less => strictly = true,
            Ordering::Equal => {}
        }
    }
    strictly
}

/// A set of mutually non-dominated points, kept in a canonical order.
///
/// # Invariants
///
/// * No member dominates another (checked on every insert).
/// * Fingerprints are unique.
/// * Members are ordered by (objective vector lexicographically via
///   `total_cmp`, then fingerprint) — a deterministic rendering order
///   that does not depend on insertion order, so two searches that
///   discover the same set of points serialize the same front byte for
///   byte.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParetoFront {
    points: Vec<ParetoPoint>,
}

impl ParetoFront {
    /// An empty front.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current members, in canonical order.
    pub fn points(&self) -> &[ParetoPoint] {
        &self.points
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when the front has no members.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// `true` when the scenario is already a member.
    pub fn contains(&self, fingerprint: u64) -> bool {
        self.points.iter().any(|p| p.fingerprint == fingerprint)
    }

    /// Offers a candidate to the front.
    pub fn insert(&mut self, point: ParetoPoint) -> Insert {
        if self.contains(point.fingerprint) {
            return Insert::Duplicate;
        }
        if self
            .points
            .iter()
            .any(|p| dominates(&p.objectives, &point.objectives))
        {
            return Insert::Dominated;
        }
        let before = self.points.len();
        self.points
            .retain(|p| !dominates(&point.objectives, &p.objectives));
        let removed = before - self.points.len();
        let at = self
            .points
            .partition_point(|p| canonical_order(p, &point) == Ordering::Less);
        self.points.insert(at, point);
        Insert::Added { removed }
    }

    /// Serializes the front as a canonical JSON array of
    /// `{"objectives": [...], "result": <doc>}` members, in canonical
    /// member order. Two fronts holding the same set of points render
    /// byte-identically regardless of how they were discovered; this is
    /// the representation the tests pin.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, p) in self.points.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let objectives = Json::Arr(p.objectives.iter().map(|&v| Json::f64(v)).collect());
            let _ = write!(out, "{{\"objectives\":{objectives},\"result\":{}}}", p.doc);
        }
        out.push(']');
        out
    }
}

/// The canonical member order (see the [`ParetoFront`] invariants).
fn canonical_order(a: &ParetoPoint, b: &ParetoPoint) -> Ordering {
    for (&x, &y) in a.objectives.iter().zip(&b.objectives) {
        match x.total_cmp(&y) {
            Ordering::Equal => {}
            other => return other,
        }
    }
    a.fingerprint.cmp(&b.fingerprint)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(fp: u64, objectives: &[f64]) -> ParetoPoint {
        ParetoPoint {
            fingerprint: fp,
            objectives: objectives.to_vec(),
            doc: format!("{{\"fp\":{fp}}}"),
        }
    }

    #[test]
    fn dominance_law() {
        assert!(dominates(&[1.0, 2.0], &[2.0, 2.0]));
        assert!(!dominates(&[2.0, 2.0], &[1.0, 2.0]));
        assert!(!dominates(&[1.0, 2.0], &[1.0, 2.0])); // equal: neither
        assert!(!dominates(&[1.0, 3.0], &[2.0, 2.0])); // incomparable
    }

    #[test]
    fn insert_rejects_dominated_and_evicts() {
        let mut f = ParetoFront::new();
        assert_eq!(f.insert(pt(1, &[5.0, 5.0])), Insert::Added { removed: 0 });
        assert_eq!(f.insert(pt(2, &[6.0, 6.0])), Insert::Dominated);
        assert_eq!(f.insert(pt(3, &[4.0, 6.0])), Insert::Added { removed: 0 });
        // Dominates both members.
        assert_eq!(f.insert(pt(4, &[4.0, 5.0])), Insert::Added { removed: 2 });
        assert_eq!(f.len(), 1);
        assert_eq!(f.insert(pt(4, &[4.0, 5.0])), Insert::Duplicate);
    }

    #[test]
    fn equal_vectors_coexist() {
        let mut f = ParetoFront::new();
        assert_eq!(f.insert(pt(7, &[1.0, 2.0])), Insert::Added { removed: 0 });
        assert_eq!(f.insert(pt(8, &[1.0, 2.0])), Insert::Added { removed: 0 });
        assert_eq!(f.len(), 2);
        // Ordered by fingerprint when objectives tie.
        assert_eq!(f.points()[0].fingerprint, 7);
    }

    #[test]
    fn front_serializes_canonically() {
        let mut f = ParetoFront::new();
        f.insert(pt(8, &[1.0, 2.0]));
        f.insert(pt(7, &[1.0, 2.0]));
        assert_eq!(
            f.to_json(),
            concat!(
                "[{\"objectives\":[1.0,2.0],\"result\":{\"fp\":7}},",
                "{\"objectives\":[1.0,2.0],\"result\":{\"fp\":8}}]"
            )
        );
    }
}
