//! QoS constraints and the load-robustness metric (Eqs. 9–11).
//!
//! For a mapped system, the feature set `Φ` of Eq. 9 contains the
//! computation time of every application, the communication time of every
//! transfer, and the latency of every path; the boundary relationships are
//! `T_i^c(λ) = 1/R(a_i)`, `T_ip^n(λ) = 1/R(a_i)` and `L_k(λ) = L_k^max`.
//! This module builds that feature set as a [`ConstraintSet`] and runs the
//! generic FePIA analysis of `fepia-core` over the (discrete) load vector
//! `λ`, producing the metric of Eq. 11 — "the largest increase in load in
//! any direction from the assumed value that does not cause a latency or
//! throughput violation for any application or path" — floored because
//! loads are integral.

use crate::loadfn::LoadFn;
use crate::mapping::HiperdMapping;
use crate::model::{HiperdSystem, Node};
use crate::path::{app_rates, enumerate_paths, Path};
use fepia_core::{
    AnalysisPlan, CoreError, FeatureSpec, FepiaAnalysis, Impact, Perturbation, RadiusOptions,
    RobustnessReport, Tolerance,
};
use fepia_optim::VecN;
use std::sync::Arc;

/// One QoS constraint: `value(λ) = Σ terms ≤ bound`.
#[derive(Clone, Debug)]
pub struct Constraint {
    /// Human-readable identity, e.g. `"throughput a_3"` or `"latency P_7"`.
    pub name: String,
    /// The QoS bound (`1/R` or `L_k^max`).
    pub bound: f64,
    /// Additive terms (a single effective computation function for
    /// throughput constraints; all path terms for latency constraints).
    pub terms: Vec<LoadFn>,
}

impl Constraint {
    /// Evaluates the constrained quantity at `lambda`.
    pub fn value(&self, lambda: &VecN) -> f64 {
        self.terms.iter().map(|t| t.eval(lambda)).sum()
    }

    /// The fractional value of §4.3: `value / bound`.
    pub fn fraction(&self, lambda: &VecN) -> f64 {
        self.value(lambda) / self.bound
    }
}

/// The full constraint set of a mapped system (the concrete Φ of Eq. 9).
#[derive(Clone, Debug)]
pub struct ConstraintSet {
    /// All constraints, throughput first, then communication, then latency.
    pub constraints: Vec<Constraint>,
}

/// Builds the constraint set for `mapping`, reusing pre-enumerated `paths`
/// (enumeration is mapping-independent, so sweeps hoist it).
///
/// Identically-zero communication functions (the §4.3 setting) produce
/// constraints that can never bind (value ≡ 0, infinite radius) and are
/// omitted.
pub fn build_constraints(
    sys: &HiperdSystem,
    mapping: &HiperdMapping,
    paths: &[Path],
) -> ConstraintSet {
    let rates = app_rates(sys, paths);
    let eff = mapping.effective_comps(sys);
    let mut constraints = Vec::new();

    // Throughput: computation of every on-path application.
    for (i, rate) in rates.iter().enumerate() {
        if let Some(r) = rate {
            constraints.push(Constraint {
                name: format!("throughput a_{i}"),
                bound: 1.0 / r,
                terms: vec![eff[i].clone()],
            });
        }
    }

    // Throughput: communication of every application-to-application
    // transfer with a non-zero communication function.
    for e in &sys.edges {
        if let (Node::App(i), Node::App(p)) = (e.from, e.to) {
            if !e.comm.is_zero() {
                if let Some(r) = rates[i] {
                    constraints.push(Constraint {
                        name: format!("comm a_{i}→a_{p}"),
                        bound: 1.0 / r,
                        terms: vec![e.comm.clone()],
                    });
                }
            }
        }
    }

    // Latency per path (Eq. 8): computation of every path application plus
    // every traversed transfer (sensor and actuator communications
    // included).
    for (k, path) in paths.iter().enumerate() {
        let mut terms: Vec<LoadFn> = path.apps.iter().map(|&i| eff[i].clone()).collect();
        for &e in &path.edges {
            if !sys.edges[e].comm.is_zero() {
                terms.push(sys.edges[e].comm.clone());
            }
        }
        constraints.push(Constraint {
            name: format!("latency P_{k}"),
            bound: sys.latency_limits[k],
            terms,
        });
    }

    ConstraintSet { constraints }
}

/// [`Impact`] adapter for a sum of load functions.
struct ConstraintImpact {
    terms: Vec<LoadFn>,
    dim: usize,
}

impl Impact for ConstraintImpact {
    fn eval(&self, lambda: &VecN) -> f64 {
        self.terms.iter().map(|t| t.eval(lambda)).sum()
    }

    fn gradient(&self, lambda: &VecN) -> Option<VecN> {
        let mut g = VecN::zeros(self.dim);
        for t in &self.terms {
            g += &t.gradient(lambda);
        }
        Some(g)
    }

    fn as_affine(&self) -> Option<(VecN, f64)> {
        let mut a = VecN::zeros(self.dim);
        let mut c = 0.0;
        for t in &self.terms {
            let (ta, tc) = t.as_affine()?;
            a += &ta;
            c += tc;
        }
        Some((a, c))
    }

    fn expected_dim(&self) -> Option<usize> {
        Some(self.dim)
    }
}

/// The outcome of the §3.2 robustness analysis for one mapping.
#[derive(Clone, Debug)]
pub struct HiperdRobustness {
    /// The raw metric `ρ_μ(Φ, λ)` of Eq. 11 (Euclidean objects/data-set).
    pub metric: f64,
    /// The floored metric (loads are integral; §3.2).
    pub floored: f64,
    /// Name of the binding constraint.
    pub binding: String,
    /// The boundary load vector `λ*` at which the binding constraint is
    /// reached (the paper's Table 2 reports these), when available.
    pub lambda_star: Option<VecN>,
    /// The full per-feature report from `fepia-core`.
    pub report: RobustnessReport,
}

impl HiperdRobustness {
    /// The unit direction of load increase that reaches a QoS boundary
    /// soonest — `(λ* − λ_orig)/ρ`. Operators watching live sensor loads
    /// can project drift onto this direction to see how fast the guarantee
    /// is being consumed. `None` when the metric is zero, infinite, or no
    /// boundary witness is available.
    pub fn most_dangerous_direction(&self, lambda_orig: &[f64]) -> Option<VecN> {
        let star = self.lambda_star.as_ref()?;
        if !(self.metric.is_finite() && self.metric > 0.0) {
            return None;
        }
        let delta = star.add_scaled(-1.0, &VecN::new(lambda_orig.to_vec()));
        delta.normalized()
    }
}

/// Runs the full Eq. 10/11 analysis: enumerate paths, build Φ, compute every
/// robustness radius, take the minimum, floor it.
pub fn load_robustness(
    sys: &HiperdSystem,
    mapping: &HiperdMapping,
    opts: &RadiusOptions,
) -> Result<HiperdRobustness, CoreError> {
    let paths = enumerate_paths(sys);
    load_robustness_with_paths(sys, mapping, &paths, opts)
}

/// As [`load_robustness`], with pre-enumerated paths (for sweeps). A thin
/// wrapper over [`compile_load_analysis`] + [`CompiledLoadAnalysis::evaluate`]
/// — one-shot callers pay one compile, sweep callers should compile once and
/// evaluate many times.
pub fn load_robustness_with_paths(
    sys: &HiperdSystem,
    mapping: &HiperdMapping,
    paths: &[Path],
    opts: &RadiusOptions,
) -> Result<HiperdRobustness, CoreError> {
    compile_load_analysis(sys, mapping, paths, opts)?.evaluate()
}

/// The §3.2 analysis compiled once for a mapped system: the constraint set
/// is resolved into a `fepia-core` [`AnalysisPlan`] (affine constraints
/// packed into one block, nonlinear ones solver-backed), ready to evaluate
/// at `λ_orig` or any other load vector without rebuilding Φ.
#[derive(Clone)]
pub struct CompiledLoadAnalysis {
    plan: Arc<AnalysisPlan>,
    lambda_orig: VecN,
}

/// Builds and compiles the Eq. 9 constraint set for `mapping` under `opts`.
pub fn compile_load_analysis(
    sys: &HiperdSystem,
    mapping: &HiperdMapping,
    paths: &[Path],
    opts: &RadiusOptions,
) -> Result<CompiledLoadAnalysis, CoreError> {
    let set = build_constraints(sys, mapping, paths);
    let dim = sys.n_sensors();
    let lambda_orig = VecN::new(sys.lambda_orig.clone());

    let mut analysis =
        FepiaAnalysis::new(Perturbation::discrete("sensor load λ", lambda_orig.clone()));
    for c in set.constraints {
        analysis.add_feature_boxed(
            FeatureSpec::new(c.name, Tolerance::upper(c.bound)),
            Box::new(ConstraintImpact {
                terms: c.terms,
                dim,
            }),
        );
    }
    let plan = analysis.compile(opts)?;
    Ok(CompiledLoadAnalysis { plan, lambda_orig })
}

impl CompiledLoadAnalysis {
    /// The underlying compiled plan (shareable across threads).
    pub fn plan(&self) -> &Arc<AnalysisPlan> {
        &self.plan
    }

    /// The assumed load vector `λ_orig` the plan was compiled against.
    pub fn lambda_orig(&self) -> &VecN {
        &self.lambda_orig
    }

    /// Full Eq. 10/11 analysis at `λ_orig` — identical numbers to the legacy
    /// [`load_robustness_with_paths`].
    pub fn evaluate(&self) -> Result<HiperdRobustness, CoreError> {
        self.evaluate_at(&self.lambda_orig)
    }

    /// Full analysis at an arbitrary load vector (what-if probes).
    pub fn evaluate_at(&self, lambda: &VecN) -> Result<HiperdRobustness, CoreError> {
        let report = self.plan.evaluate_report(lambda)?;
        let binding = report.binding_feature();
        Ok(HiperdRobustness {
            metric: report.metric,
            floored: report.effective_metric(),
            binding: binding.name.clone(),
            lambda_star: binding.result.boundary_point.clone(),
            report,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::test_support::tiny_system;
    use fepia_core::{EvalBudget, ResiliencePolicy};

    /// a0,a1 → m0 (factor 2.6), a2 → m1 (alone). With λ = (100, 50):
    /// T_0 = 2.6·2λ₀ = 520, T_1 = 2.6·(λ₀+λ₁) = 390, T_2 = 2λ₁ = 100.
    fn mapped_tiny() -> (crate::model::HiperdSystem, HiperdMapping) {
        (tiny_system(), HiperdMapping::new(vec![0, 0, 1], 2))
    }

    #[test]
    fn constraint_set_contents() {
        let (sys, m) = mapped_tiny();
        let paths = enumerate_paths(&sys);
        let set = build_constraints(&sys, &m, &paths);
        // 3 throughput (all apps on paths) + 0 comm (all zero) + 2 latency.
        assert_eq!(set.constraints.len(), 5);
        let names: Vec<&str> = set.constraints.iter().map(|c| c.name.as_str()).collect();
        assert!(names.contains(&"throughput a_0"));
        assert!(names.contains(&"latency P_0"));
        assert!(!names.iter().any(|n| n.starts_with("comm")));
    }

    #[test]
    fn constraint_values_hand_checked() {
        let (sys, m) = mapped_tiny();
        let paths = enumerate_paths(&sys);
        let set = build_constraints(&sys, &m, &paths);
        let lambda = VecN::from([100.0, 50.0]);
        let by_name = |n: &str| {
            set.constraints
                .iter()
                .find(|c| c.name == n)
                .unwrap_or_else(|| panic!("missing constraint {n}"))
        };
        assert!((by_name("throughput a_0").value(&lambda) - 520.0).abs() < 1e-9);
        assert!((by_name("throughput a_1").value(&lambda) - 390.0).abs() < 1e-9);
        assert!((by_name("throughput a_2").value(&lambda) - 100.0).abs() < 1e-9);
        // Trigger path P_0 = {a0, a1}: latency 520 + 390 = 910.
        assert!((by_name("latency P_0").value(&lambda) - 910.0).abs() < 1e-9);
        // Update path P_1 = {a2}: latency 100.
        assert!((by_name("latency P_1").value(&lambda) - 100.0).abs() < 1e-9);
        // Bounds: 1/R(a_0) = 1000, L_0^max = 2000.
        assert_eq!(by_name("throughput a_0").bound, 1_000.0);
        assert_eq!(by_name("latency P_0").bound, 2_000.0);
        assert!((by_name("throughput a_0").fraction(&lambda) - 0.52).abs() < 1e-12);
    }

    #[test]
    fn robustness_binding_is_hand_computable() {
        // Radii (hyperplane distances, λ_orig = (100, 50)):
        //   a_0: (1000−520)/‖(5.2,0)‖ = 480/5.2 ≈ 92.31
        //   a_1: (1000−390)/‖(2.6,2.6)‖ = 610/3.677 ≈ 165.9
        //   a_2: (2000−100)/‖(0,2)‖ = 950
        //   P_0: (2000−910)/‖(7.8,2.6)‖ = 1090/8.222 ≈ 132.6
        //   P_1: (2500−100)/‖(0,2)‖ = 1200
        // Binding: throughput a_0 at ≈ 92.31.
        let (sys, m) = mapped_tiny();
        let rob = load_robustness(&sys, &m, &RadiusOptions::default()).unwrap();
        assert!(
            (rob.metric - 480.0 / 5.2).abs() < 1e-9,
            "metric {}",
            rob.metric
        );
        assert_eq!(rob.binding, "throughput a_0");
        assert_eq!(rob.floored, (480.0f64 / 5.2).floor());
        // λ* moves only along sensor 0 (a_0 reads only sensor 0).
        let star = rob.lambda_star.unwrap();
        assert!((star[0] - (100.0 + 480.0 / 5.2)).abs() < 1e-9);
        assert!((star[1] - 50.0).abs() < 1e-9);
    }

    #[test]
    fn balanced_mapping_is_more_robust_here() {
        // Spreading apps over machines (lower multitask factors) must give
        // a strictly larger metric in this system.
        let sys = tiny_system();
        let packed = HiperdMapping::new(vec![0, 0, 0], 2);
        let spread = HiperdMapping::new(vec![0, 1, 0], 2);
        let opts = RadiusOptions::default();
        let r_packed = load_robustness(&sys, &packed, &opts).unwrap().metric;
        let r_spread = load_robustness(&sys, &spread, &opts).unwrap().metric;
        assert!(
            r_spread > r_packed,
            "spread {r_spread} should beat packed {r_packed}"
        );
    }

    #[test]
    fn nonlinear_functions_use_numeric_path() {
        use crate::loadfn::{LoadFn, Shape};
        let mut sys = tiny_system();
        // Make a_2's function quadratic on machine 1: T = (2λ₁)²·0.02.
        sys.comp[2][1] = LoadFn::new(vec![0.0, 2.0], Shape::Power(2.0), 0.02);
        let m = HiperdMapping::new(vec![0, 0, 1], 2);
        let rob = load_robustness(&sys, &m, &RadiusOptions::default()).unwrap();
        // T_2(λ) = 0.02·(2λ₁)² = 200 at λ₁=50; bound 1/R(a_2) = 2000:
        // boundary at λ₁ = √(2000/0.08) = √25000 ≈ 158.1 ⇒ radius ≈ 108.1.
        // Other constraints (above) are all ≥ 92.3; a_0 still binds.
        assert_eq!(rob.binding, "throughput a_0");
        let t2 = rob
            .report
            .radii
            .iter()
            .find(|r| r.name == "throughput a_2")
            .unwrap();
        let expected = (2_000.0f64 / 0.08).sqrt() - 50.0;
        assert!(
            (t2.result.radius - expected).abs() < 1e-3,
            "numeric radius {} vs analytic {expected}",
            t2.result.radius
        );
    }

    #[test]
    fn most_dangerous_direction_points_at_the_boundary() {
        let (sys, m) = mapped_tiny();
        let rob = load_robustness(&sys, &m, &RadiusOptions::default()).unwrap();
        let dir = rob.most_dangerous_direction(&sys.lambda_orig).unwrap();
        assert!((dir.norm_l2() - 1.0).abs() < 1e-12);
        // Binding constraint reads only sensor 0 (see the hand-computed
        // test above): the direction is the +λ₀ axis.
        assert!((dir[0] - 1.0).abs() < 1e-9);
        assert!(dir[1].abs() < 1e-9);
        // Walking ρ along it lands exactly on λ*.
        let walked = VecN::new(sys.lambda_orig.clone()).add_scaled(rob.metric, &dir);
        assert!(walked.distance_l2(rob.lambda_star.as_ref().unwrap()) < 1e-9);
    }

    #[test]
    fn nonzero_comm_creates_comm_constraints_and_extends_latency() {
        use crate::loadfn::LoadFn;
        // Give the a0→a1 transfer a real communication function.
        let mut sys = tiny_system();
        sys.edges[1].comm = LoadFn::linear(vec![0.5, 0.0], 1.0); // 0.5λ₀
        let m = HiperdMapping::new(vec![0, 0, 1], 2);
        let paths = enumerate_paths(&sys);
        let set = build_constraints(&sys, &m, &paths);
        let lambda = VecN::from([100.0, 50.0]);

        // A comm throughput constraint now exists, bounded by the
        // producer's rate (a_0 is driven by s0, 1/R = 1000).
        let comm = set
            .constraints
            .iter()
            .find(|c| c.name == "comm a_0→a_1")
            .expect("comm constraint present");
        assert_eq!(comm.bound, 1_000.0);
        assert!((comm.value(&lambda) - 50.0).abs() < 1e-12);

        // The trigger path's latency includes the transfer time:
        // previously 910 (computation only), now 910 + 50.
        let p0 = set
            .constraints
            .iter()
            .find(|c| c.name == "latency P_0")
            .expect("latency constraint present");
        assert!((p0.value(&lambda) - 960.0).abs() < 1e-9);

        // Comm constraints participate in the metric: shrink the comm
        // bound far enough (huge comm coefficient) and it must bind.
        sys.edges[1].comm = LoadFn::linear(vec![9.0, 0.0], 1.0); // 900 at λ₀=100
        let rob = load_robustness(&sys, &m, &RadiusOptions::default()).unwrap();
        assert_eq!(rob.binding, "comm a_0→a_1");
        // Radius: (1000 − 900)/‖(9, 0)‖ = 100/9.
        assert!((rob.metric - 100.0 / 9.0).abs() < 1e-9);
    }

    #[test]
    fn compiled_analysis_matches_one_shot_bitwise() {
        let (sys, m) = mapped_tiny();
        let paths = enumerate_paths(&sys);
        let opts = RadiusOptions::default();
        let compiled = compile_load_analysis(&sys, &m, &paths, &opts).unwrap();
        let one_shot = load_robustness_with_paths(&sys, &m, &paths, &opts).unwrap();
        // Same plan evaluated at λ_orig and at other load vectors.
        let at_orig = compiled.evaluate().unwrap();
        assert_eq!(at_orig.metric.to_bits(), one_shot.metric.to_bits());
        assert_eq!(at_orig.floored.to_bits(), one_shot.floored.to_bits());
        assert_eq!(at_orig.binding, one_shot.binding);
        let mut ws = compiled.plan().workspace();
        let lambda = VecN::from([120.0, 60.0]);
        let probe = compiled.plan().evaluate(&lambda, &mut ws).unwrap();
        let full = compiled.evaluate_at(&lambda).unwrap();
        assert_eq!(probe.metric.to_bits(), full.metric.to_bits());
        // Repeated metric evaluations reuse the workspace without drift.
        let again = compiled.plan().evaluate(&lambda, &mut ws).unwrap();
        assert_eq!(probe.metric.to_bits(), again.metric.to_bits());
    }

    #[test]
    fn verdict_path_matches_exact_analysis() {
        let (sys, m) = mapped_tiny();
        let paths = enumerate_paths(&sys);
        let opts = RadiusOptions::default();
        let compiled = compile_load_analysis(&sys, &m, &paths, &opts).unwrap();
        let exact = compiled.evaluate().unwrap();
        let verdict = compiled.plan().verdict(
            compiled.lambda_orig(),
            &mut compiled.plan().workspace(),
            &ResiliencePolicy::default(),
            EvalBudget::UNLIMITED,
            None,
        );
        assert!(verdict.is_exact());
        assert_eq!(verdict.metric_lo.to_bits(), exact.metric.to_bits());
        assert_eq!(verdict.metric_hi.to_bits(), exact.metric.to_bits());
        assert_eq!(verdict.radii.len(), exact.report.radii.len());
    }

    #[test]
    fn verdict_classifies_poisoned_load_vector() {
        use fepia_core::{FailReason, RadiusVerdict, VerdictKind};
        let (sys, m) = mapped_tiny();
        let paths = enumerate_paths(&sys);
        let compiled = compile_load_analysis(&sys, &m, &paths, &RadiusOptions::default()).unwrap();
        let mut ws = compiled.plan().workspace();
        let bad = VecN::from([100.0, f64::NAN]);
        let verdict = compiled.plan().verdict(
            &bad,
            &mut ws,
            &ResiliencePolicy::default(),
            EvalBudget::UNLIMITED,
            None,
        );
        assert_eq!(verdict.kind, VerdictKind::Failed);
        assert!(matches!(
            verdict.radii[0],
            RadiusVerdict::Failed(FailReason::NonFiniteInput { index: 1 })
        ));
        // The workspace survives for the next (clean) evaluation.
        let clean = compiled.plan().verdict(
            compiled.lambda_orig(),
            &mut ws,
            &ResiliencePolicy::default(),
            EvalBudget::UNLIMITED,
            None,
        );
        assert!(clean.is_exact());
    }

    #[test]
    fn metric_is_min_over_radii() {
        let (sys, m) = mapped_tiny();
        let rob = load_robustness(&sys, &m, &RadiusOptions::default()).unwrap();
        let min = rob
            .report
            .radii
            .iter()
            .map(|r| r.result.radius)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(min, rob.metric);
    }
}
