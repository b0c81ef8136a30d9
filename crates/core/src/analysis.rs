//! The robustness metric `ρ_μ(Φ, πⱼ)` (Eq. 2) and analysis driver.
//!
//! "The metric definition can be extended easily for all `φᵢ ∈ Φ`. It is
//! simply the minimum of all robustness radii." An analysis owns the
//! perturbation parameter, the feature/impact pairs (steps 1–3 of FePIA)
//! and runs step 4 to produce a [`RobustnessReport`].

use crate::error::CoreError;
use crate::feature::FeatureSpec;
use crate::impact::Impact;
use crate::perturbation::Perturbation;
use crate::plan::{AnalysisPlan, EvalBudget};
use crate::radius::{RadiusOptions, RadiusResult};
use crate::verdict::{FailReason, PlanVerdict, ResiliencePolicy, VerdictKind};
use std::sync::{Arc, Mutex};

/// One feature's radius within a full analysis.
#[derive(Clone, Debug)]
pub struct FeatureRadius {
    /// The feature's name (from its [`FeatureSpec`]).
    pub name: String,
    /// The radius computation result.
    pub result: RadiusResult,
}

/// The outcome of a FePIA analysis: all radii and their minimum.
#[derive(Clone, Debug)]
pub struct RobustnessReport {
    /// Per-feature robustness radii `r_μ(φᵢ, πⱼ)`, in insertion order.
    pub radii: Vec<FeatureRadius>,
    /// The robustness metric `ρ_μ(Φ, πⱼ) = min_i r_μ(φᵢ, πⱼ)`.
    pub metric: f64,
    /// Index (into `radii`) of the binding feature attaining the minimum.
    pub binding: usize,
    /// For a [`Domain::Discrete`](crate::perturbation::Domain::Discrete)
    /// perturbation the paper floors the metric
    /// ("ρ should not have fractional values"); `None` for continuous
    /// parameters.
    pub floored_metric: Option<f64>,
    /// Classification of the evaluation. The legacy exact path always emits
    /// [`VerdictKind::Exact`] (it aborts on failure instead of degrading);
    /// fault-tolerant consumers read it to distinguish certified-degraded
    /// reports (see [`crate::verdict`]).
    pub kind: VerdictKind,
}

impl RobustnessReport {
    /// The binding feature's entry.
    pub fn binding_feature(&self) -> &FeatureRadius {
        &self.radii[self.binding]
    }

    /// The metric to quote: floored for discrete parameters, raw otherwise.
    pub fn effective_metric(&self) -> f64 {
        self.floored_metric.unwrap_or(self.metric)
    }

    /// True if any feature already violates its tolerance at `π_orig`.
    pub fn any_violated(&self) -> bool {
        self.radii.iter().any(|r| r.result.violated)
    }

    /// Total impact-function evaluations spent across all radii.
    pub fn total_f_evals(&self) -> u64 {
        self.radii.iter().map(|r| r.result.f_evals).sum()
    }

    /// Total numeric-solver refinement iterations across all radii.
    pub fn total_iterations(&self) -> usize {
        self.radii.iter().map(|r| r.result.iterations).sum()
    }
}

/// A FePIA analysis under construction: one perturbation parameter plus the
/// feature set `Φ` with impact functions.
///
/// Since the introduction of the compiled-plan layer ([`crate::plan`]) the
/// impacts are held behind `Arc<dyn Impact>` so a compiled
/// [`AnalysisPlan`] can share them without cloning, and the most recent
/// compilation is cached per option set (invalidated whenever a feature is
/// added).
pub struct FepiaAnalysis {
    perturbation: Perturbation,
    features: Vec<(FeatureSpec, Arc<dyn Impact>)>,
    plan_cache: Mutex<Option<(RadiusOptions, Arc<AnalysisPlan>)>>,
}

impl FepiaAnalysis {
    /// Starts an analysis against `perturbation` (FePIA step 2).
    pub fn new(perturbation: Perturbation) -> Self {
        FepiaAnalysis {
            perturbation,
            features: Vec::new(),
            plan_cache: Mutex::new(None),
        }
    }

    /// Adds a feature `φᵢ` with its impact function `f_ij` (steps 1 and 3).
    pub fn add_feature(&mut self, spec: FeatureSpec, impact: impl Impact + 'static) -> &mut Self {
        self.features.push((spec, Arc::new(impact)));
        self.invalidate_cache();
        self
    }

    /// Adds a boxed impact (for heterogeneous collections built elsewhere).
    pub fn add_feature_boxed(&mut self, spec: FeatureSpec, impact: Box<dyn Impact>) -> &mut Self {
        self.features.push((spec, Arc::from(impact)));
        self.invalidate_cache();
        self
    }

    fn invalidate_cache(&mut self) {
        *self.plan_cache.get_mut().expect("plan cache poisoned") = None;
    }

    /// Number of features added so far.
    pub fn feature_count(&self) -> usize {
        self.features.len()
    }

    /// The perturbation parameter under analysis.
    pub fn perturbation(&self) -> &Perturbation {
        &self.perturbation
    }

    /// Compiles the feature set into an [`AnalysisPlan`] (see
    /// [`crate::plan`]): affine features are packed into one contiguous
    /// block with pre-computed dual norms, numeric features get a reusable
    /// solver workspace. The result is cached — repeated `compile` (and
    /// [`run`](Self::run)) calls with equal options return the same
    /// `Arc<AnalysisPlan>` without recompiling, counted under
    /// `plan.cache.hits` / `plan.cache.misses` when `fepia-obs` is enabled.
    pub fn compile(&self, opts: &RadiusOptions) -> Result<Arc<AnalysisPlan>, CoreError> {
        {
            let cache = self.plan_cache.lock().expect("plan cache poisoned");
            if let Some((cached_opts, plan)) = cache.as_ref() {
                if cached_opts == opts {
                    if fepia_obs::enabled() {
                        fepia_obs::global().counter("plan.cache.hits").inc();
                    }
                    return Ok(Arc::clone(plan));
                }
            }
        }
        if fepia_obs::enabled() {
            fepia_obs::global().counter("plan.cache.misses").inc();
        }
        let plan = Arc::new(AnalysisPlan::compile(
            &self.perturbation,
            &self.features,
            opts,
        )?);
        *self.plan_cache.lock().expect("plan cache poisoned") =
            Some((opts.clone(), Arc::clone(&plan)));
        Ok(plan)
    }

    /// Runs step 4: computes every radius and the metric (Eq. 2).
    ///
    /// Since the compiled-plan refactor this is a thin wrapper over
    /// [`compile`](Self::compile) + [`AnalysisPlan::evaluate_report`]: the
    /// numbers are bitwise identical to the historical per-feature loop
    /// (the plan shares its code and float ordering), and repeated runs
    /// reuse the cached plan.
    ///
    /// When `fepia-obs` is enabled, each run increments `core.analysis.runs`
    /// and emits one `analysis.run` event naming the binding feature.
    pub fn run(&self, opts: &RadiusOptions) -> Result<RobustnessReport, CoreError> {
        let _span = fepia_obs::span!("core.analysis.run");
        let plan = self.compile(opts)?;
        let report = plan.evaluate_report(&self.perturbation.origin)?;
        if fepia_obs::enabled() {
            fepia_obs::global().counter("core.analysis.runs").inc();
            fepia_obs::Event::new("analysis.run")
                .field("features", report.radii.len())
                .field("metric", report.metric)
                .field("binding", report.binding_feature().name.as_str())
                .field("violated", report.any_violated())
                .field("f_evals", report.total_f_evals())
                .emit();
        }
        Ok(report)
    }

    /// Fault-tolerant analogue of [`run`](Self::run): never fails, never
    /// panics through — every outcome (including a compile error) becomes a
    /// typed [`PlanVerdict`]. The workhorse of degraded sweeps; see
    /// [`AnalysisPlan::verdict`] for the per-origin semantics.
    pub fn run_verdict(&self, opts: &RadiusOptions, policy: &ResiliencePolicy) -> PlanVerdict {
        let _span = fepia_obs::span!("core.analysis.run_verdict");
        match self.compile(opts) {
            Ok(plan) => plan.verdict(
                &self.perturbation.origin,
                &mut plan.workspace(),
                policy,
                EvalBudget::UNLIMITED,
                None,
            ),
            Err(e) => PlanVerdict::all_failed(
                self.features.len().max(1),
                FailReason::Solver(e.to_string()),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::Tolerance;
    use crate::impact::{LinearImpact, SumSelected};
    use fepia_optim::VecN;

    /// The paper's §3.1 system in miniature: 3 apps on 2 machines,
    /// C_orig = (10, 20, 30), machine 0 ← {0, 1}, machine 1 ← {2}.
    /// M_orig = max(30, 30) = 30; τ = 1.2 ⇒ bound 36.
    /// r(F_0) = (36 − 30)/√2, r(F_1) = (36 − 30)/√1 ⇒ ρ = 6/√2.
    fn miniature_analysis() -> FepiaAnalysis {
        let pert = Perturbation::continuous("C", VecN::from([10.0, 20.0, 30.0]));
        let mut a = FepiaAnalysis::new(pert);
        a.add_feature(
            FeatureSpec::new("F_0", Tolerance::upper(36.0)),
            SumSelected::new(vec![0, 1], 3),
        );
        a.add_feature(
            FeatureSpec::new("F_1", Tolerance::upper(36.0)),
            SumSelected::new(vec![2], 3),
        );
        a
    }

    #[test]
    fn metric_is_min_of_radii() {
        let report = miniature_analysis().run(&RadiusOptions::default()).unwrap();
        assert_eq!(report.radii.len(), 2);
        let r0 = 6.0 / 2f64.sqrt();
        let r1 = 6.0;
        assert!((report.radii[0].result.radius - r0).abs() < 1e-12);
        assert!((report.radii[1].result.radius - r1).abs() < 1e-12);
        assert!((report.metric - r0).abs() < 1e-12);
        assert_eq!(report.binding, 0);
        assert_eq!(report.binding_feature().name, "F_0");
        assert_eq!(report.floored_metric, None);
        assert!(!report.any_violated());
    }

    #[test]
    fn empty_feature_set_rejected() {
        let a = FepiaAnalysis::new(Perturbation::continuous("p", VecN::zeros(1)));
        assert_eq!(
            a.run(&RadiusOptions::default()).unwrap_err(),
            CoreError::EmptyFeatureSet
        );
    }

    #[test]
    fn discrete_domain_floors_metric() {
        let pert = Perturbation::discrete("λ", VecN::from([0.0]));
        let mut a = FepiaAnalysis::new(pert);
        a.add_feature(
            FeatureSpec::new("T", Tolerance::upper(7.5)),
            LinearImpact::homogeneous(VecN::from([2.0])),
        );
        let report = a.run(&RadiusOptions::default()).unwrap();
        assert!((report.metric - 3.75).abs() < 1e-12);
        assert_eq!(report.floored_metric, Some(3.0));
        assert_eq!(report.effective_metric(), 3.0);
    }

    #[test]
    fn discrete_infinite_metric_not_floored_to_nan() {
        let pert = Perturbation::discrete("λ", VecN::from([0.0]));
        let mut a = FepiaAnalysis::new(pert);
        // Feature unaffected by λ: infinite radius.
        a.add_feature(
            FeatureSpec::new("T", Tolerance::upper(7.5)),
            LinearImpact::new(VecN::zeros(1), 1.0),
        );
        let report = a.run(&RadiusOptions::default()).unwrap();
        assert_eq!(report.effective_metric(), f64::INFINITY);
    }

    #[test]
    fn violated_feature_drives_metric_to_zero() {
        let pert = Perturbation::continuous("C", VecN::from([100.0]));
        let mut a = FepiaAnalysis::new(pert);
        a.add_feature(
            FeatureSpec::new("ok", Tolerance::upper(1_000.0)),
            LinearImpact::homogeneous(VecN::from([1.0])),
        );
        a.add_feature(
            FeatureSpec::new("violated", Tolerance::upper(50.0)),
            LinearImpact::homogeneous(VecN::from([1.0])),
        );
        let report = a.run(&RadiusOptions::default()).unwrap();
        assert_eq!(report.metric, 0.0);
        assert!(report.any_violated());
        assert_eq!(report.binding_feature().name, "violated");
    }

    #[test]
    fn builder_accessors() {
        let a = miniature_analysis();
        assert_eq!(a.feature_count(), 2);
        assert_eq!(a.perturbation().name, "C");
    }
}
