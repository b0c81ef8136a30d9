//! Makespan × robustness Pareto fronts.
//!
//! The paper's §4 point is that makespan and the Eq. 7 robustness metric
//! *disagree*: the most robust mapping is rarely the fastest. An optimizer
//! job therefore does not return one mapping but the tradeoff **front**:
//! every candidate that no other candidate beats on both axes (lower
//! makespan *and* higher metric).
//!
//! [`ParetoFront`] maintains that set incrementally as candidates arrive.
//! Determinism discipline, like everywhere else in the workspace:
//!
//! * every candidate is a pure function of `(seed, index)` — the driver
//!   evaluates candidates in parallel but **offers them in index order**,
//!   so the front after `k` offers is a pure function of the candidate
//!   stream prefix, independent of thread count;
//! * ties are broken canonically: a candidate whose `(makespan, metric)`
//!   bits equal an incumbent's is rejected, so the surviving point is
//!   always the one with the lowest index;
//! * comparisons are plain IEEE `f64` comparisons on values that are
//!   themselves bitwise-reproducible, so the front is too.
//!
//! [`pareto_filter`] is the brute-force reference — a quadratic dominance
//! filter over the full candidate list — used by the workspace property
//! suite to hold the incremental maintenance to the same answer, bitwise,
//! on any input.

use crate::mapping::Mapping;
use crate::DeltaEval;
use fepia_etc::EtcMatrix;
use fepia_obs::hash::Fnv1a;

/// One point on (or offered to) the front: a concrete mapping with its
/// two objective values and its provenance.
#[derive(Clone, Debug, PartialEq)]
pub struct FrontPoint {
    /// Candidate index in the population stream (pure in `(seed, index)`).
    pub index: u64,
    /// The mapping's makespan `max_j F_j` (minimize).
    pub makespan: f64,
    /// The Eq. 7 robustness metric `min_j r_j` (maximize).
    pub metric: f64,
    /// Name of the heuristic that produced the mapping.
    pub heuristic: String,
    /// The assignment vector (`assignment[i]` = machine of app `i`).
    pub assignment: Vec<usize>,
}

impl FrontPoint {
    /// Evaluates a mapping into a front point via [`DeltaEval`] — the
    /// same arithmetic every other consumer of the Eq. 6/7 values uses,
    /// so the coordinates are bitwise identical to a full
    /// [`crate::makespan_robustness`] recompute.
    pub fn evaluate(
        etc: &EtcMatrix,
        mapping: &Mapping,
        tau: f64,
        heuristic: &str,
        index: u64,
    ) -> FrontPoint {
        let de = DeltaEval::new(etc, mapping, tau);
        FrontPoint {
            index,
            makespan: de.makespan(),
            metric: de.metric(),
            heuristic: heuristic.to_string(),
            assignment: mapping.assignment().to_vec(),
        }
    }

    /// The mapping this point carries.
    pub fn mapping(&self, machines: usize) -> Mapping {
        Mapping::new(self.assignment.clone(), machines)
    }
}

/// `a` strictly dominates `b`: at least as good on both axes, strictly
/// better on one. Lower makespan is better; higher metric is better.
pub fn dominates(a: &FrontPoint, b: &FrontPoint) -> bool {
    a.makespan <= b.makespan
        && a.metric >= b.metric
        && (a.makespan < b.makespan || a.metric > b.metric)
}

/// Bitwise coordinate identity (the canonical tie: first index wins).
fn same_coords(a: &FrontPoint, b: &FrontPoint) -> bool {
    a.makespan.to_bits() == b.makespan.to_bits() && a.metric.to_bits() == b.metric.to_bits()
}

/// An incrementally maintained Pareto front, sorted by ascending makespan.
/// The sort invariant implies strictly ascending metric as well: a point
/// with a higher makespan only survives if it buys strictly more
/// robustness.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ParetoFront {
    points: Vec<FrontPoint>,
}

impl ParetoFront {
    /// An empty front.
    pub fn new() -> ParetoFront {
        ParetoFront { points: Vec::new() }
    }

    /// The current non-dominated set, makespan-ascending.
    pub fn points(&self) -> &[FrontPoint] {
        &self.points
    }

    /// Number of points currently on the front.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the front is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Consumes the front, yielding its points makespan-ascending.
    pub fn into_points(self) -> Vec<FrontPoint> {
        self.points
    }

    /// Rebuilds a front from points already known to be mutually
    /// non-dominated (e.g. decoded off the wire). Points are offered in
    /// the given order, so a hostile list degrades to a valid front
    /// rather than breaking the invariant.
    pub fn from_points(points: Vec<FrontPoint>) -> ParetoFront {
        let mut front = ParetoFront::new();
        for p in points {
            front.offer(p);
        }
        front
    }

    /// Offers a candidate: inserts it and evicts every point it dominates,
    /// unless an incumbent dominates it or holds the same coordinate bits
    /// (first index wins). Returns whether the front changed.
    pub fn offer(&mut self, p: FrontPoint) -> bool {
        if self
            .points
            .iter()
            .any(|q| dominates(q, &p) || same_coords(q, &p))
        {
            return false;
        }
        self.points.retain(|q| !dominates(&p, q));
        let at = self.points.partition_point(|q| q.makespan < p.makespan);
        self.points.insert(at, p);
        true
    }

    /// Order-independent-looking but order-*defined* digest: FNV-1a over
    /// every point's coordinate bits, index and assignment, in front
    /// order. Two bitwise-identical fronts — the reproducibility claim
    /// the job tests assert — hash equal.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.u64(self.points.len() as u64);
        for p in &self.points {
            h.u64(p.index);
            h.u64(p.makespan.to_bits());
            h.u64(p.metric.to_bits());
            h.u64(p.assignment.len() as u64);
            for &j in &p.assignment {
                h.u64(j as u64);
            }
        }
        h.finish()
    }
}

/// Brute-force reference: the non-dominated subset of `candidates` under
/// the same tie rule the incremental front applies (equal-coordinate
/// candidates keep only the earliest in list order), sorted by ascending
/// makespan. Quadratic; exists to hold [`ParetoFront::offer`] to the same
/// answer in the property suite.
pub fn pareto_filter(candidates: &[FrontPoint]) -> Vec<FrontPoint> {
    let mut kept: Vec<FrontPoint> = Vec::new();
    for (i, c) in candidates.iter().enumerate() {
        let beaten = candidates
            .iter()
            .enumerate()
            .any(|(j, d)| dominates(d, c) || (j < i && same_coords(d, c)));
        if !beaten {
            kept.push(c.clone());
        }
    }
    kept.sort_by(|a, b| {
        a.makespan
            .partial_cmp(&b.makespan)
            .expect("front coordinates are never NaN")
    });
    kept
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(index: u64, makespan: f64, metric: f64) -> FrontPoint {
        FrontPoint {
            index,
            makespan,
            metric,
            heuristic: "test".to_string(),
            assignment: vec![index as usize % 3],
        }
    }

    #[test]
    fn dominated_points_are_evicted_and_rejected() {
        let mut f = ParetoFront::new();
        assert!(f.offer(pt(0, 10.0, 1.0)));
        // Strictly worse on both axes: rejected.
        assert!(!f.offer(pt(1, 11.0, 0.5)));
        // Strictly better on both axes: evicts the incumbent.
        assert!(f.offer(pt(2, 9.0, 2.0)));
        assert_eq!(f.len(), 1);
        assert_eq!(f.points()[0].index, 2);
        // Tradeoff point: coexists.
        assert!(f.offer(pt(3, 12.0, 3.0)));
        assert_eq!(f.len(), 2);
        assert!(f.points()[0].makespan < f.points()[1].makespan);
        assert!(f.points()[0].metric < f.points()[1].metric);
    }

    #[test]
    fn equal_coordinates_keep_the_first_index() {
        let mut f = ParetoFront::new();
        assert!(f.offer(pt(5, 10.0, 1.0)));
        assert!(!f.offer(pt(9, 10.0, 1.0)));
        assert_eq!(f.points()[0].index, 5);
    }

    #[test]
    fn equal_makespan_keeps_only_the_higher_metric() {
        let mut f = ParetoFront::new();
        f.offer(pt(0, 10.0, 1.0));
        assert!(f.offer(pt(1, 10.0, 2.0)));
        assert_eq!(f.len(), 1);
        assert_eq!(f.points()[0].index, 1);
    }

    #[test]
    fn incremental_front_matches_brute_force_on_a_fixed_stream() {
        use rand::Rng;
        let mut rng = fepia_stats::rng_for(7, 0);
        let candidates: Vec<FrontPoint> = (0..200)
            .map(|i| {
                // Coarse grid forces plenty of exact ties.
                let mk = (rng.gen_range(0..20) as f64) * 0.5 + 5.0;
                let m = (rng.gen_range(0..20) as f64) * 0.25;
                pt(i, mk, m)
            })
            .collect();
        let mut inc = ParetoFront::new();
        for c in &candidates {
            inc.offer(c.clone());
        }
        let brute = pareto_filter(&candidates);
        assert_eq!(inc.points(), &brute[..]);
    }

    #[test]
    fn digest_tracks_content() {
        let mut a = ParetoFront::new();
        let mut b = ParetoFront::new();
        for f in [&mut a, &mut b] {
            f.offer(pt(0, 10.0, 1.0));
            f.offer(pt(1, 12.0, 2.0));
        }
        assert_eq!(a.digest(), b.digest());
        b.offer(pt(2, 9.0, 0.5));
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn evaluate_matches_closed_form_bitwise() {
        let etc = crate::heuristics::test_support::instance(3);
        let mut rng = fepia_stats::rng_for(3, 1);
        let mapping = Mapping::random(&mut rng, etc.apps(), etc.machines());
        let p = FrontPoint::evaluate(&etc, &mapping, 1.3, "random", 0);
        let oracle = crate::makespan_robustness(&mapping, &etc, 1.3).unwrap();
        assert_eq!(p.metric.to_bits(), oracle.metric.to_bits());
        assert_eq!(p.makespan.to_bits(), mapping.makespan(&etc).to_bits());
    }
}
