//! Robustness degradation curves ρ(τ) over one compiled plan.
//!
//! The paper's metric answers "what is the robustness radius at one
//! tolerance?"; Chen–Zhou–Aravena argue the valuable object is the whole
//! *degradation function* — the radius at every tolerance level. One
//! compiled [`AnalysisPlan`] amortizes across levels: the affine block's
//! Eq. 6 closed form re-evaluates per level for the cost of one residual
//! and one division (the dot product, dual norms and feature layout are
//! level-invariant), and numeric features reuse the same solver
//! workspace level to level.
//!
//! **Bitwise oracle invariant:** a curve point at level τ is *bitwise
//! identical* to an independent single-τ [`AnalysisPlan::verdict`] call
//! on a plan whose feature tolerances were built at τ. [`CurvePlan`] only
//! swaps the tolerance each feature is judged against (the `tolerances`
//! argument of [`AnalysisPlan::verdict`]); every
//! other float operation — the dot product, the residual, the division
//! by the pre-computed dual norm — is the same code in the same order.
//! `tests/curve_equivalence.rs` pins this end to end (cold, cached, over
//! TCP, and under fault injection).
//!
//! Two grid modes:
//! * **Explicit** — evaluate exactly the levels given, in order.
//! * **Adaptive** — dyadic bisection between two endpoint levels: refine
//!   an interval only while its certified ρ-change exceeds a resolution.
//!   Every adaptive level is *by construction* a member of the dense
//!   depth-`max_depth` dyadic grid (levels are derived from integer grid
//!   indices through one shared formula), so refinement can never invent
//!   a level the dense sweep would not have produced, and an interval it
//!   declines to refine is certified flat to within the resolution.

use crate::feature::Tolerance;
use crate::plan::{AnalysisPlan, EvalBudget, PlanWorkspace};
use crate::verdict::{PlanVerdict, ResiliencePolicy};
use fepia_optim::VecN;
use std::sync::Arc;

/// One evaluated point of a degradation curve.
#[derive(Clone, Debug)]
pub struct CurvePoint {
    /// The sweep level (the tolerance multiplier τ in the serving layer).
    pub level: f64,
    /// The full per-feature verdict at this level — exact, certified
    /// interval (brownout) or typed failure, exactly as the single-level
    /// path would have classified it.
    pub verdict: PlanVerdict,
}

/// A typed degradation curve: per-point verdicts plus monotonicity
/// metadata computed over the point order.
#[derive(Clone, Debug)]
pub struct CurveVerdict {
    /// Points in evaluation order (ascending level for both grid modes).
    pub points: Vec<CurvePoint>,
    /// Whether no adjacent pair *certifies* a decrease of ρ as the level
    /// grows: for upper-bound tolerances, loosening the tolerance can
    /// only move the constraint boundary away from the origin, so ρ(τ)
    /// is non-decreasing in τ. A pair violates this only if the later
    /// point's certified upper bound falls strictly below the earlier
    /// point's certified lower bound — interval (brownout) points that
    /// merely overlap stay consistent with monotonicity.
    pub monotone: bool,
}

impl CurveVerdict {
    /// Builds the verdict and computes the monotonicity flag.
    pub fn from_points(points: Vec<CurvePoint>) -> CurveVerdict {
        let monotone = points
            .windows(2)
            .all(|w| !certified_decrease(&w[0].verdict, &w[1].verdict));
        CurveVerdict { points, monotone }
    }

    /// The per-point verdicts, in point order (what the wire carries).
    pub fn verdicts(&self) -> Vec<PlanVerdict> {
        self.points.iter().map(|p| p.verdict.clone()).collect()
    }

    /// The levels, in point order.
    pub fn levels(&self) -> Vec<f64> {
        self.points.iter().map(|p| p.level).collect()
    }
}

/// True iff the pair proves ρ dropped from `a` to `b`: `b`'s certified
/// upper bound is strictly below `a`'s certified lower bound. Failed
/// points carry the vacuous `[0, ∞)` and can never certify anything.
fn certified_decrease(a: &PlanVerdict, b: &PlanVerdict) -> bool {
    b.metric_hi < a.metric_lo
}

/// Adaptive-refinement controls for [`CurvePlan::refine_with`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CurveRefineOptions {
    /// Dyadic depth bound: the dense reference grid has `2^max_depth + 1`
    /// levels and refinement never subdivides past it.
    pub max_depth: u32,
    /// Stop refining an interval once its certified ρ-change is at most
    /// this (absolute) resolution.
    pub rho_resolution: f64,
}

impl Default for CurveRefineOptions {
    fn default() -> Self {
        CurveRefineOptions {
            max_depth: 6,
            rho_resolution: 1e-3,
        }
    }
}

/// The dense dyadic grid level for index `j` of `n = 2^max_depth` steps
/// between `lo` and `hi`. Adaptive refinement evaluates *only* levels
/// produced by this formula (midpoints are midpoints of integer indices),
/// which is what makes "adaptive ⊆ dense" a bitwise identity rather than
/// an approximation.
pub fn dyadic_level(lo: f64, hi: f64, j: u64, n: u64) -> f64 {
    if j == 0 {
        return lo;
    }
    if j == n {
        return hi;
    }
    lo + (hi - lo) * (j as f64 / n as f64)
}

/// The dense reference grid for an adaptive sweep: all `2^max_depth + 1`
/// dyadic levels, ascending.
pub fn dense_grid(lo: f64, hi: f64, max_depth: u32) -> Vec<f64> {
    let n = 1u64 << max_depth;
    (0..=n).map(|j| dyadic_level(lo, hi, j, n)).collect()
}

/// A degradation-curve engine over one compiled plan.
///
/// Construction is free: the plan is already compiled and shared. All
/// sweep state (solver workspace) is caller-provided so service workers
/// reuse their per-thread scratch across curve requests.
#[derive(Clone, Debug)]
pub struct CurvePlan {
    plan: Arc<AnalysisPlan>,
}

impl CurvePlan {
    /// Wraps a compiled plan for level sweeps.
    pub fn new(plan: Arc<AnalysisPlan>) -> CurvePlan {
        CurvePlan { plan }
    }

    /// The underlying compiled plan.
    pub fn plan(&self) -> &Arc<AnalysisPlan> {
        &self.plan
    }

    /// Evaluates the curve over an explicit level grid, in the order
    /// given. `tolerances_at` maps a level to the per-feature tolerance
    /// vector (insertion order) — in the serving layer this is
    /// `τ ↦ Tolerance::upper(τ · makespan)` per machine feature, computed
    /// with the same arithmetic scenario compilation uses, which is what
    /// makes each point bitwise-equal to an independently compiled
    /// single-τ evaluation.
    pub fn sweep_with(
        &self,
        origin: &VecN,
        levels: &[f64],
        tolerances_at: &dyn Fn(f64) -> Vec<Tolerance>,
        ws: &mut PlanWorkspace,
        policy: &ResiliencePolicy,
        budget: EvalBudget,
    ) -> CurveVerdict {
        let _span = fepia_obs::span!("core.curve.sweep");
        let points = levels
            .iter()
            .map(|&level| self.point(origin, level, tolerances_at, ws, policy, budget))
            .collect();
        let out = CurveVerdict::from_points(points);
        if fepia_obs::enabled() {
            fepia_obs::global()
                .counter("curve.points")
                .add(out.points.len() as u64);
        }
        out
    }

    /// Adaptive dyadic refinement between levels `lo` and `hi`: evaluate
    /// the endpoints, then recursively bisect (on integer grid indices of
    /// the depth-`opts.max_depth` dense grid) every interval whose
    /// certified ρ-change still exceeds `opts.rho_resolution`. Points come
    /// back in ascending level order.
    ///
    /// Skipped intervals are certifiably flat: if `(a, b)` was not
    /// subdivided, then either the dense grid has no interior level
    /// between them, or `|ρ(b) − ρ(a)|` is certified ≤ the resolution —
    /// and by monotonicity of ρ every interior dense level's value is
    /// bracketed by the endpoint values, so no dense level could have
    /// revealed more than the resolution.
    #[allow(clippy::too_many_arguments)] // mirrors sweep_with plus the interval bounds
    pub fn refine_with(
        &self,
        origin: &VecN,
        lo: f64,
        hi: f64,
        opts: CurveRefineOptions,
        tolerances_at: &dyn Fn(f64) -> Vec<Tolerance>,
        ws: &mut PlanWorkspace,
        policy: &ResiliencePolicy,
        budget: EvalBudget,
    ) -> CurveVerdict {
        let _span = fepia_obs::span!("core.curve.refine");
        let n = 1u64 << opts.max_depth.min(62);
        let eval = |j: u64, ws: &mut PlanWorkspace| {
            let level = dyadic_level(lo, hi, j, n);
            self.point(origin, level, tolerances_at, ws, policy, budget)
        };
        // In-order recursion via an explicit stack of (j0, p0, j1, p1)
        // intervals: emit p0, then descend left-first so output stays
        // sorted by index (and therefore by level).
        let mut points = Vec::new();
        let p_first = eval(0, ws);
        let p_last = eval(n, ws);
        refine_interval((0, &p_first), (n, &p_last), &opts, &eval, ws, &mut points);
        points.push(p_last);
        let out = CurveVerdict::from_points(points);
        if fepia_obs::enabled() {
            fepia_obs::global()
                .counter("curve.points")
                .add(out.points.len() as u64);
        }
        out
    }

    /// One curve point: a single budgeted verdict with the tolerance
    /// vector for `level` substituted in.
    fn point(
        &self,
        origin: &VecN,
        level: f64,
        tolerances_at: &dyn Fn(f64) -> Vec<Tolerance>,
        ws: &mut PlanWorkspace,
        policy: &ResiliencePolicy,
        budget: EvalBudget,
    ) -> CurvePoint {
        let tols = tolerances_at(level);
        let verdict = self.plan.verdict(origin, ws, policy, budget, Some(&tols));
        CurvePoint { level, verdict }
    }
}

/// Emits `p0` and every refined interior point of `(j0, j1)` (but not
/// `p1`, which the caller owns) into `out`, ascending by index.
fn refine_interval(
    (j0, p0): (u64, &CurvePoint),
    (j1, p1): (u64, &CurvePoint),
    opts: &CurveRefineOptions,
    eval: &dyn Fn(u64, &mut PlanWorkspace) -> CurvePoint,
    ws: &mut PlanWorkspace,
    out: &mut Vec<CurvePoint>,
) {
    if j1 - j0 <= 1 || !needs_refinement(&p0.verdict, &p1.verdict, opts.rho_resolution) {
        out.push(p0.clone());
        return;
    }
    let jm = j0 + (j1 - j0) / 2;
    let pm = eval(jm, ws);
    refine_interval((j0, p0), (jm, &pm), opts, eval, ws, out);
    refine_interval((jm, &pm), (j1, p1), opts, eval, ws, out);
}

/// Whether the certified ρ-change across an interval still exceeds the
/// resolution. Intervals whose endpoints are both certified unbounded
/// (ρ = ∞ on both sides) are flat by monotonicity; any other non-finite
/// or NaN gap means the change is not yet certified small, so refine.
fn needs_refinement(a: &PlanVerdict, b: &PlanVerdict, resolution: f64) -> bool {
    if a.metric_lo == f64::INFINITY && b.metric_hi == f64::INFINITY {
        return false;
    }
    let gap = (b.metric_hi - a.metric_lo).abs();
    // NaN gaps must refine, so an incomparable pair counts as "needs it".
    !matches!(
        gap.partial_cmp(&resolution),
        Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::FepiaAnalysis;
    use crate::feature::FeatureSpec;
    use crate::impact::LinearImpact;
    use crate::perturbation::Perturbation;
    use crate::radius::RadiusOptions;
    use crate::verdict::VerdictKind;

    /// A two-feature affine analysis whose tolerances scale with the
    /// level exactly like the serving layer's τ·makespan bound.
    fn curve_fixture() -> (Arc<AnalysisPlan>, VecN, impl Fn(f64) -> Vec<Tolerance>) {
        let origin = VecN::from([3.0, 4.0]);
        let pert = Perturbation::continuous("p", origin.clone());
        let mut a = FepiaAnalysis::new(pert);
        a.add_feature(
            FeatureSpec::new("m0", Tolerance::upper(10.0)),
            LinearImpact::new(VecN::from([1.0, 0.0]), 0.0),
        );
        a.add_feature(
            FeatureSpec::new("m1", Tolerance::upper(10.0)),
            LinearImpact::new(VecN::from([0.0, 1.0]), 0.0),
        );
        let plan = a.compile(&RadiusOptions::default()).unwrap();
        let tols = |level: f64| vec![Tolerance::upper(level * 5.0), Tolerance::upper(level * 5.0)];
        (plan, origin, tols)
    }

    #[test]
    fn sweep_points_match_independent_single_level_calls() {
        let (plan, origin, tols) = curve_fixture();
        let curve = CurvePlan::new(Arc::clone(&plan));
        let policy = ResiliencePolicy::default();
        let levels = [1.0, 1.25, 1.5, 2.0];
        let cv = curve.sweep_with(
            &origin,
            &levels,
            &tols,
            &mut plan.workspace(),
            &policy,
            EvalBudget::UNLIMITED,
        );
        assert_eq!(cv.points.len(), levels.len());
        assert!(cv.monotone);
        for p in &cv.points {
            let solo = plan.verdict(
                &origin,
                &mut plan.workspace(),
                &policy,
                EvalBudget::UNLIMITED,
                Some(&tols(p.level)),
            );
            assert_eq!(p.verdict.kind, VerdictKind::Exact);
            assert_eq!(p.verdict.metric_lo.to_bits(), solo.metric_lo.to_bits());
            assert_eq!(p.verdict.metric_hi.to_bits(), solo.metric_hi.to_bits());
        }
    }

    #[test]
    fn adaptive_points_are_a_subset_of_the_dense_grid() {
        let (plan, origin, tols) = curve_fixture();
        let curve = CurvePlan::new(Arc::clone(&plan));
        let policy = ResiliencePolicy::default();
        let opts = CurveRefineOptions {
            max_depth: 4,
            rho_resolution: 0.5,
        };
        let cv = curve.refine_with(
            &origin,
            1.0,
            3.0,
            opts,
            &tols,
            &mut plan.workspace(),
            &policy,
            EvalBudget::UNLIMITED,
        );
        let dense = dense_grid(1.0, 3.0, opts.max_depth);
        let dense_bits: Vec<u64> = dense.iter().map(|l| l.to_bits()).collect();
        // Ascending, deduplicated, and every level on the dense lattice.
        for w in cv.points.windows(2) {
            assert!(w[0].level < w[1].level);
        }
        for p in &cv.points {
            assert!(
                dense_bits.contains(&p.level.to_bits()),
                "adaptive level {} not on the dense grid",
                p.level
            );
        }
        assert!(cv.points.len() >= 2);
        assert!(cv.monotone);
    }

    #[test]
    fn flat_curve_stops_at_the_endpoints() {
        // A constant feature: ρ = ∞ at every level, so no refinement.
        let origin = VecN::from([1.0]);
        let pert = Perturbation::continuous("p", origin.clone());
        let mut a = FepiaAnalysis::new(pert);
        a.add_feature(
            FeatureSpec::new("const", Tolerance::upper(10.0)),
            LinearImpact::new(VecN::from([0.0]), 1.0),
        );
        let plan = a.compile(&RadiusOptions::default()).unwrap();
        let curve = CurvePlan::new(Arc::clone(&plan));
        let cv = curve.refine_with(
            &origin,
            1.0,
            2.0,
            CurveRefineOptions::default(),
            &|_| vec![Tolerance::upper(10.0)],
            &mut plan.workspace(),
            &ResiliencePolicy::default(),
            EvalBudget::UNLIMITED,
        );
        assert_eq!(cv.points.len(), 2, "unbounded-flat curve must not refine");
        assert!(cv.monotone);
    }
}
