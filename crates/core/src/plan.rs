//! Compile-once analysis plans.
//!
//! [`FepiaAnalysis::run`](crate::analysis::FepiaAnalysis::run) resolves every
//! feature through trait objects on each call: `as_affine()` clones
//! coefficient vectors, the numeric solver rebuilds its probe directions,
//! and the report allocates per feature. The paper's experiments (§4)
//! evaluate the metric over 1000 random mappings per system and the search
//! heuristics call it once per candidate move, so that per-call work
//! dominates. [`AnalysisPlan`] moves it to compile time:
//!
//! * **Affine features** are packed into one contiguous structure-of-arrays
//!   block (`CompiledAffine`): coefficients row-major, constants and
//!   pre-computed dual norms alongside. Evaluating a block row is a dot
//!   product, a residual and a division — no allocation, no virtual call.
//! * **Numeric features** (`CompiledNumeric`) keep their impact behind an
//!   `Arc<dyn Impact>` and run through the same
//!   [`radius_inner`](crate::radius) code path as the legacy API, with a
//!   reusable [`fepia_optim::SolverWorkspace`] so repeated solves skip the
//!   probe-direction setup.
//!
//! **Invariant:** for any origin, plan evaluation is *bitwise identical* to
//! the legacy per-feature [`crate::robustness_radius`] loop — the affine
//! block performs the same float operations in the same order, and the
//! numeric entries literally share the legacy code. Property tests in the
//! workspace root pin this.
//!
//! **Entry points**, one per result shape:
//!
//! * [`AnalysisPlan::evaluate`] — the metric and radii at one origin;
//! * [`AnalysisPlan::evaluate_batch`] — the same over many origins;
//! * [`AnalysisPlan::evaluate_report`] — the full report with boundary
//!   points, behind [`crate::FepiaAnalysis::run`];
//! * [`AnalysisPlan::verdict`] — the fault-tolerant classified verdict,
//!   under a work budget and optional per-feature tolerance overrides;
//! * [`AnalysisPlan::verdict_batch`] — the same over many origins, with
//!   worker panics contained per origin.
//!
//! The plan is immutable, `Send + Sync`, and shared via `Arc`, so parallel
//! sweeps compile once and evaluate everywhere; per-worker mutable scratch
//! lives in [`PlanWorkspace`].

use crate::analysis::{FeatureRadius, RobustnessReport};
use crate::error::CoreError;
use crate::feature::{FeatureSpec, Tolerance};
use crate::impact::Impact;
use crate::perturbation::{Domain, Perturbation};
use crate::radius::{
    affine_bound_radius, dual_norm, radius_inner, record_radius, Bound, RadiusMethod,
    RadiusOptions, RadiusResult,
};
use crate::verdict::{
    DegradeReason, FailReason, PlanVerdict, RadiusVerdict, ResiliencePolicy, VerdictKind,
};
use fepia_optim::{
    certified_level_interval, min_norm_to_level_set_resilient, LevelSetProblem, Norm, OptimError,
    SolverOptions, SolverWorkspace, VecN,
};
use fepia_par::{
    panic_message, par_map_dynamic_catch_with, par_map_dynamic_with, CatchConfig, ParConfig,
    TaskError,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Where a feature landed after compilation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Slot {
    /// Row index into the [`CompiledAffine`] block.
    Affine(usize),
    /// Index into the [`CompiledNumeric`] entries.
    Numeric(usize),
}

/// One compiled feature: its spec plus the slot holding its evaluator.
struct PlanFeature {
    spec: FeatureSpec,
    slot: Slot,
}

/// All affine features of a plan, packed as a structure-of-arrays: row `r`
/// is `f(π) = coeffs[r·dim .. (r+1)·dim] · π + constants[r]`, with the dual
/// norm `‖a_r‖_*` (under the plan's norm) pre-computed in `duals[r]` by a
/// single pass at compile time.
struct CompiledAffine {
    dim: usize,
    coeffs: Vec<f64>,
    constants: Vec<f64>,
    duals: Vec<f64>,
}

impl CompiledAffine {
    fn rows(&self) -> usize {
        self.constants.len()
    }

    fn row(&self, r: usize) -> &[f64] {
        &self.coeffs[r * self.dim..(r + 1) * self.dim]
    }

    /// `a_r · π + c_r`, with the multiply/add order of [`VecN::dot`] so the
    /// result is bitwise identical to the legacy `LinearImpact::eval`.
    fn eval(&self, r: usize, origin: &VecN) -> f64 {
        let dot: f64 = self
            .row(r)
            .iter()
            .zip(origin.as_slice().iter())
            .map(|(a, b)| a * b)
            .sum();
        dot + self.constants[r]
    }
}

/// One non-affine feature: the impact function and its pre-built problem
/// context (level-set problems are constructed per evaluation because they
/// borrow the origin, but the solver workspace is reused).
struct CompiledNumeric {
    impact: Arc<dyn Impact>,
}

/// A deterministic work budget for brownout evaluation.
///
/// The budget is expressed in *evaluation units* — full numeric solves
/// allowed — rather than wall time, so a budgeted verdict is a pure
/// function of `(plan, origin, budget)` and bitwise-reproducible
/// regardless of machine load. Affine features cost nothing: the Eq. 6
/// closed form always runs exactly. Each numeric feature consumes one
/// unit for its full §3.2 solve; once the budget is spent, remaining
/// numeric features are truncated to the certified axis-probe interval
/// ([`fepia_optim::certified_level_interval`]) and come back as
/// [`RadiusVerdict::Bounded`] with [`DegradeReason::BudgetExhausted`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EvalBudget {
    /// Full numeric solves allowed before truncation.
    pub numeric_solves: u32,
}

impl EvalBudget {
    /// No truncation: every feature gets its full solve (the default path).
    pub const UNLIMITED: EvalBudget = EvalBudget {
        numeric_solves: u32::MAX,
    };
    /// Brownout: affine features only; every numeric feature truncates to
    /// its certified interval.
    pub const BROWNOUT: EvalBudget = EvalBudget { numeric_solves: 0 };

    /// Whether this budget can never truncate.
    pub fn is_unlimited(self) -> bool {
        self.numeric_solves == u32::MAX
    }
}

/// Mutable per-evaluation-context scratch for plan evaluation. One per
/// thread; create with [`AnalysisPlan::workspace`] (or `Default`).
#[derive(Default)]
pub struct PlanWorkspace {
    solver: SolverWorkspace,
}

impl PlanWorkspace {
    /// An empty workspace; buffers grow lazily on first use.
    pub fn new() -> Self {
        PlanWorkspace::default()
    }
}

/// The metric-level result of one plan evaluation (no per-feature allocation
/// beyond the radii vector).
#[derive(Clone, Debug)]
pub struct PlanEvaluation {
    /// Per-feature robustness radii, in feature insertion order.
    pub radii: Vec<f64>,
    /// `ρ_μ(Φ, πⱼ) = min_i r_μ(φᵢ, πⱼ)`.
    pub metric: f64,
    /// Index of the binding (first minimal) feature.
    pub binding: usize,
    /// Floored metric for discrete perturbation domains, `None` otherwise.
    pub floored_metric: Option<f64>,
    /// True if any feature violates its tolerance at the evaluated origin.
    pub any_violated: bool,
}

impl PlanEvaluation {
    /// The metric to quote: floored for discrete parameters, raw otherwise.
    pub fn effective_metric(&self) -> f64 {
        self.floored_metric.unwrap_or(self.metric)
    }
}

/// A compiled, immutable, shareable FePIA analysis: compile once with
/// [`crate::FepiaAnalysis::compile`], evaluate at any number of origins.
pub struct AnalysisPlan {
    perturbation: Perturbation,
    features: Vec<PlanFeature>,
    affine: CompiledAffine,
    numeric: Vec<CompiledNumeric>,
    opts: RadiusOptions,
}

impl std::fmt::Debug for AnalysisPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnalysisPlan")
            .field("perturbation", &self.perturbation.name)
            .field("features", &self.features.len())
            .field("affine", &self.affine.rows())
            .field("numeric", &self.numeric.len())
            .finish()
    }
}

impl AnalysisPlan {
    /// Compiles `features` against `perturbation` under `opts`.
    ///
    /// Fails fast on conditions the legacy path would only hit at run time:
    /// an empty feature set, impact/perturbation dimension mismatches, and
    /// non-affine impacts under a non-ℓ₂ norm (which the numeric solver
    /// cannot handle).
    pub(crate) fn compile(
        perturbation: &Perturbation,
        features: &[(FeatureSpec, Arc<dyn Impact>)],
        opts: &RadiusOptions,
    ) -> Result<AnalysisPlan, CoreError> {
        let _span = fepia_obs::span!("core.plan.compile");
        if features.is_empty() {
            return Err(CoreError::EmptyFeatureSet);
        }
        let dim = perturbation.origin.dim();
        let mut plan_features = Vec::with_capacity(features.len());
        let mut affine = CompiledAffine {
            dim,
            coeffs: Vec::new(),
            constants: Vec::new(),
            duals: Vec::new(),
        };
        let mut affine_rows: Vec<VecN> = Vec::new();
        let mut numeric = Vec::new();
        for (spec, impact) in features {
            if let Some(expected) = impact.expected_dim() {
                if expected != dim {
                    return Err(CoreError::DimensionMismatch {
                        perturbation: dim,
                        expected,
                    });
                }
            }
            let slot = match impact.as_affine() {
                Some((a, c)) => {
                    if a.dim() != dim {
                        return Err(CoreError::DimensionMismatch {
                            perturbation: dim,
                            expected: a.dim(),
                        });
                    }
                    let row = affine.rows();
                    affine.coeffs.extend_from_slice(a.as_slice());
                    affine.constants.push(c);
                    affine_rows.push(a);
                    Slot::Affine(row)
                }
                None => {
                    if !matches!(opts.norm, Norm::L2) {
                        return Err(CoreError::UnsupportedNorm {
                            norm: opts.norm.name(),
                        });
                    }
                    numeric.push(CompiledNumeric {
                        impact: Arc::clone(impact),
                    });
                    Slot::Numeric(numeric.len() - 1)
                }
            };
            plan_features.push(PlanFeature {
                spec: spec.clone(),
                slot,
            });
        }
        // Single dual-norm pass over the whole block.
        affine.duals = affine_rows
            .iter()
            .map(|a| dual_norm(&opts.norm, a))
            .collect();

        if fepia_obs::enabled() {
            let reg = fepia_obs::global();
            reg.counter("plan.compiles").inc();
            reg.counter("plan.compiled.affine")
                .add(affine.rows() as u64);
            reg.counter("plan.compiled.numeric")
                .add(numeric.len() as u64);
        }
        Ok(AnalysisPlan {
            perturbation: perturbation.clone(),
            features: plan_features,
            affine,
            numeric,
            opts: opts.clone(),
        })
    }

    /// The perturbation the plan was compiled against (its origin is the
    /// default evaluation point).
    pub fn perturbation(&self) -> &Perturbation {
        &self.perturbation
    }

    /// The options the plan was compiled under.
    pub fn options(&self) -> &RadiusOptions {
        &self.opts
    }

    /// Number of features in the plan.
    pub fn feature_count(&self) -> usize {
        self.features.len()
    }

    /// How many features compiled into the affine block.
    pub fn affine_count(&self) -> usize {
        self.affine.rows()
    }

    /// How many features require the numeric solver.
    pub fn numeric_count(&self) -> usize {
        self.numeric.len()
    }

    /// Feature names, in insertion order.
    pub fn feature_names(&self) -> impl Iterator<Item = &str> {
        self.features.iter().map(|f| f.spec.name.as_str())
    }

    /// A fresh evaluation workspace for this plan.
    pub fn workspace(&self) -> PlanWorkspace {
        PlanWorkspace::new()
    }

    /// One feature's full radius result at `origin`.
    ///
    /// This mirrors `radius_inner` branch for branch; the affine arm redoes
    /// its float operations against the packed block (bitwise identical),
    /// the numeric arm *is* `radius_inner`. `want_point` gates the only
    /// allocating step of the affine arm (the ℓ₂ boundary projection).
    fn eval_feature(
        &self,
        idx: usize,
        origin: &VecN,
        ws: &mut PlanWorkspace,
        want_point: bool,
    ) -> Result<RadiusResult, CoreError> {
        let feature = &self.features[idx];
        let tol = feature.spec.tolerance;
        match feature.slot {
            Slot::Numeric(k) => radius_inner(
                &feature.spec,
                self.numeric[k].impact.as_ref(),
                origin,
                &self.opts,
                &mut ws.solver,
            ),
            Slot::Affine(r) => self.eval_affine_tol(r, tol, origin, want_point),
        }
    }

    fn constants_at(&self, r: usize) -> f64 {
        self.affine.constants[r]
    }

    /// Evaluates the metric at `origin` with caller-provided scratch (one
    /// workspace per thread, reused across calls). The core fast path: one
    /// allocation (the radii vector) per call.
    pub fn evaluate(
        &self,
        origin: &VecN,
        ws: &mut PlanWorkspace,
    ) -> Result<PlanEvaluation, CoreError> {
        self.check_dim(origin)?;
        let mut radii = Vec::with_capacity(self.features.len());
        let mut any_violated = false;
        for idx in 0..self.features.len() {
            let r = self.eval_feature(idx, origin, ws, false)?;
            any_violated |= r.violated;
            radii.push(r.radius);
        }
        let binding = first_min_index(&radii);
        let metric = radii[binding];
        let floored_metric = floored(self.perturbation.domain, metric);
        if fepia_obs::enabled() {
            fepia_obs::global().counter("plan.eval.full").inc();
        }
        Ok(PlanEvaluation {
            radii,
            metric,
            binding,
            floored_metric,
            any_violated,
        })
    }

    /// Evaluates the plan at every origin over the `fepia-par` dynamic
    /// driver: one [`PlanWorkspace`] per worker, results in input order,
    /// bitwise identical to one [`Self::evaluate`] per origin for any
    /// thread count. `ParConfig::with_threads(1)` is the sequential batch:
    /// one workspace shared across every origin.
    pub fn evaluate_batch(
        &self,
        origins: &[VecN],
        cfg: &ParConfig,
    ) -> Result<Vec<PlanEvaluation>, CoreError> {
        let _span = fepia_obs::span!("core.plan.batch");
        let out: Result<Vec<_>, _> =
            par_map_dynamic_with(origins, cfg, PlanWorkspace::new, |ws, _i, origin: &VecN| {
                self.evaluate(origin, ws)
            })
            .into_iter()
            .collect();
        if fepia_obs::enabled() {
            fepia_obs::global()
                .counter("plan.eval.batch.items")
                .add(origins.len() as u64);
        }
        out
    }

    /// Full-report evaluation (boundary points included) — the engine behind
    /// the legacy [`crate::FepiaAnalysis::run`]. Emits the same per-feature
    /// `radius.computed` events / dispatch counters as the one-shot
    /// `robustness_radius` path (the batch/metric-only entry points stay
    /// event-free).
    pub fn evaluate_report(&self, origin: &VecN) -> Result<RobustnessReport, CoreError> {
        self.check_dim(origin)?;
        let mut ws = self.workspace();
        let mut radii = Vec::with_capacity(self.features.len());
        for (idx, feature) in self.features.iter().enumerate() {
            let result = self.eval_feature(idx, origin, &mut ws, true)?;
            if fepia_obs::enabled() {
                record_radius(&feature.spec, &result);
            }
            radii.push(FeatureRadius {
                name: feature.spec.name.clone(),
                result,
            });
        }
        let binding = first_min_index_by(&radii, |fr| fr.result.radius);
        let metric = radii[binding].result.radius;
        let floored_metric = floored(self.perturbation.domain, metric);
        Ok(RobustnessReport {
            radii,
            metric,
            binding,
            floored_metric,
            kind: VerdictKind::Exact,
        })
    }

    /// The affine arm of [`Self::eval_feature`] with the tolerance supplied
    /// by the caller instead of read from the feature spec. The float
    /// operations and branch order are *identical* to the spec-tolerance
    /// path, so evaluating with an overridden tolerance `t` is bitwise
    /// equal to evaluating a plan whose feature was compiled with `t` —
    /// the invariant the degradation-curve engine
    /// ([`crate::curve::CurvePlan`]) rests on.
    fn eval_affine_tol(
        &self,
        r: usize,
        tol: Tolerance,
        origin: &VecN,
        want_point: bool,
    ) -> Result<RadiusResult, CoreError> {
        let f_orig = self.affine.eval(r, origin);
        if !f_orig.is_finite() {
            return Err(CoreError::Optim(OptimError::NonFinite));
        }
        if !tol.contains(f_orig) {
            return Ok(RadiusResult {
                radius: 0.0,
                boundary_point: want_point.then(|| origin.clone()),
                bound: Some(if f_orig > tol.max {
                    Bound::Max
                } else {
                    Bound::Min
                }),
                violated: true,
                method: RadiusMethod::Analytic,
                iterations: 0,
                f_evals: 1,
            });
        }
        if tol.min == tol.max {
            // Degenerate tolerance: origin on the only boundary.
            return Ok(RadiusResult {
                radius: 0.0,
                boundary_point: want_point.then(|| origin.clone()),
                bound: Some(Bound::Max),
                violated: false,
                method: RadiusMethod::Analytic,
                iterations: 0,
                f_evals: 1,
            });
        }
        let dual = self.affine.duals[r];
        let mut best: Option<(f64, Bound)> = None;
        let mut consider = |radius: f64, bound: Bound| {
            if best.as_ref().is_none_or(|(b, _)| radius < *b) {
                best = Some((radius, bound));
            }
        };
        // Same residual arithmetic as `affine_bound_radius`: the legacy
        // path computes `(a·π + c) − β` left to right, and `f_orig` above
        // is `(a·π) + c` with the identical dot, so `f_orig − β` is
        // bitwise equal to the legacy residual.
        let bound_radius = |beta: f64| -> f64 {
            if dual <= f64::EPSILON {
                return f64::INFINITY;
            }
            let residual = f_orig - beta;
            residual.abs() / dual
        };
        if tol.has_upper() {
            let radius = bound_radius(tol.max);
            consider(radius, Bound::Max);
        }
        if tol.has_lower() {
            let radius = bound_radius(tol.min);
            consider(radius, Bound::Min);
        }
        Ok(match best {
            Some((radius, bound)) if radius.is_finite() => {
                let boundary_point = if want_point {
                    let beta = match bound {
                        Bound::Max => tol.max,
                        Bound::Min => tol.min,
                    };
                    let a = VecN::from(self.affine.row(r));
                    affine_bound_radius(&a, self.constants_at(r), beta, origin, &self.opts.norm).1
                } else {
                    None
                };
                RadiusResult {
                    radius,
                    boundary_point,
                    bound: Some(bound),
                    violated: false,
                    method: RadiusMethod::Analytic,
                    iterations: 0,
                    f_evals: 1,
                }
            }
            _ => RadiusResult {
                radius: f64::INFINITY,
                boundary_point: None,
                bound: None,
                violated: false,
                method: RadiusMethod::Unbounded,
                iterations: 0,
                f_evals: 1,
            },
        })
    }

    /// One feature's classified verdict at `origin` under a caller-chosen
    /// tolerance — the fault-tolerant counterpart of
    /// [`Self::eval_feature`]. Never returns an error and (with
    /// `policy.catch_panics`) never unwinds: every outcome maps onto a
    /// [`RadiusVerdict`]. The affine arm runs [`Self::eval_affine_tol`];
    /// a numeric feature is solved, or with `truncate` (its budget is
    /// spent) bounded by the certified axis-probe interval instead.
    fn feature_verdict(
        &self,
        idx: usize,
        tol: Tolerance,
        origin: &VecN,
        ws: &mut PlanWorkspace,
        policy: &ResiliencePolicy,
        truncate: bool,
    ) -> RadiusVerdict {
        let impact = match self.features[idx].slot {
            // The affine arm is exact and infallible past the finiteness
            // check, so the legacy evaluator already covers it.
            Slot::Affine(r) => {
                return match self.eval_affine_tol(r, tol, origin, false) {
                    Ok(r) if r.violated => RadiusVerdict::Infeasible,
                    Ok(r) => RadiusVerdict::Exact(r),
                    Err(CoreError::Optim(OptimError::NonFinite)) => {
                        RadiusVerdict::Failed(FailReason::NonFiniteImpact)
                    }
                    Err(e) => RadiusVerdict::Failed(FailReason::Solver(e.to_string())),
                }
            }
            Slot::Numeric(k) => self.numeric[k].impact.as_ref(),
        };
        if !policy.catch_panics {
            return self.numeric_verdict(tol, impact, origin, &mut ws.solver, policy, truncate);
        }
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            self.numeric_verdict(tol, impact, origin, &mut ws.solver, policy, truncate)
        }));
        attempt.unwrap_or_else(|payload| {
            // The workspace may hold partially-written buffers from the
            // unwound solve: reinitialize (self-heal) before the next
            // feature uses it.
            ws.solver = SolverWorkspace::new();
            if fepia_obs::enabled() {
                fepia_obs::global().counter("core.verdict.panics").inc();
            }
            RadiusVerdict::Failed(FailReason::Panic(panic_message(payload)))
        })
    }

    /// The numeric arm of [`Self::feature_verdict`]: mirrors
    /// `radius_inner`'s pre-checks, then bounds each active tolerance
    /// boundary — with the resilient solver, or with `truncate` the
    /// solve-free certified interval — and combines the two outcomes.
    fn numeric_verdict(
        &self,
        tol: Tolerance,
        impact: &dyn Impact,
        origin: &VecN,
        ws: &mut SolverWorkspace,
        policy: &ResiliencePolicy,
        truncate: bool,
    ) -> RadiusVerdict {
        let f_orig = impact.eval(origin);
        if !f_orig.is_finite() {
            return RadiusVerdict::Failed(FailReason::NonFiniteImpact);
        }
        if !tol.contains(f_orig) {
            return RadiusVerdict::Infeasible;
        }
        if tol.min == tol.max {
            // Degenerate tolerance: origin on the only boundary (see
            // `radius_inner` for the rationale).
            return RadiusVerdict::Exact(RadiusResult {
                radius: 0.0,
                boundary_point: Some(origin.clone()),
                bound: Some(Bound::Max),
                violated: false,
                method: RadiusMethod::Analytic,
                iterations: 0,
                f_evals: 1,
            });
        }
        let solver = &self.opts.solver;
        let mut outcomes = Vec::with_capacity(2);
        for (active, beta, direction, bound) in [
            (tol.has_upper(), tol.max, 1.0, Bound::Max),
            (tol.has_lower(), tol.min, -1.0, Bound::Min),
        ] {
            if active {
                let outcome = if truncate {
                    truncated_bound_certificate(impact, beta, origin, direction, solver, policy)
                } else {
                    numeric_bound_verdict(impact, beta, origin, direction, solver, policy, ws)
                };
                outcomes.push((outcome, bound));
            }
        }
        combine_bound_outcomes(outcomes)
    }

    /// Fault-tolerant evaluation at `origin`: classifies every feature
    /// instead of aborting, so sweeps always get an answer per origin.
    ///
    /// **Budget.** The affine SoA block always runs exactly (it is the
    /// cheap Eq. 6 closed form). The first `budget.numeric_solves` numeric
    /// features get their full solve; the rest are truncated to the
    /// certified axis-probe interval and classified
    /// [`RadiusVerdict::Bounded`] with [`DegradeReason::BudgetExhausted`]
    /// — the brownout mode. Truncated verdicts are still *sound*: the
    /// interval certifiably contains the exact radius, and the result is a
    /// pure function of `(plan, origin, budget)` — no wall clock — so it
    /// is bitwise-reproducible across runs.
    ///
    /// **Tolerances.** `Some(tols)` judges feature `i` against `tols[i]`
    /// (insertion order) instead of its compiled spec tolerance: the
    /// level-sweep primitive behind [`crate::curve::CurvePlan`], which
    /// answers ρ at many tolerance levels without recompiling. For `tols`
    /// equal to the compiled spec tolerances the result is *bitwise
    /// identical* to `None` — the override threads through the same
    /// branches, float operations and (under fault injection) the same
    /// chaos draw sequence.
    ///
    /// Under fault injection (`fepia-chaos` enabled) origin components may
    /// be poisoned before the finiteness scan, exercising the same rejection
    /// path as genuinely bad inputs.
    ///
    /// # Panics
    /// If `tolerances` is `Some` with a length other than
    /// [`Self::feature_count`].
    pub fn verdict(
        &self,
        origin: &VecN,
        ws: &mut PlanWorkspace,
        policy: &ResiliencePolicy,
        budget: EvalBudget,
        tolerances: Option<&[Tolerance]>,
    ) -> PlanVerdict {
        if let Some(tols) = tolerances {
            assert_eq!(
                tols.len(),
                self.features.len(),
                "one tolerance override per feature"
            );
        }
        if origin.dim() != self.affine.dim {
            return self.record_verdict(PlanVerdict::all_failed(
                self.features.len(),
                FailReason::DimensionMismatch {
                    got: origin.dim(),
                    expected: self.affine.dim,
                },
            ));
        }
        let poisoned;
        let origin = if fepia_chaos::enabled() {
            let mut v = origin.clone();
            for i in 0..v.dim() {
                v[i] = fepia_chaos::poison_f64("core.origin", v[i]);
            }
            poisoned = v;
            &poisoned
        } else {
            origin
        };
        if let Some(index) = origin.as_slice().iter().position(|x| !x.is_finite()) {
            return self.record_verdict(PlanVerdict::all_failed(
                self.features.len(),
                FailReason::NonFiniteInput { index },
            ));
        }
        let mut solves_left = budget.numeric_solves;
        let mut truncated = 0u64;
        let mut radii = Vec::with_capacity(self.features.len());
        for (idx, feature) in self.features.iter().enumerate() {
            let tol = tolerances.map_or(feature.spec.tolerance, |tols| tols[idx]);
            let truncate = match feature.slot {
                Slot::Affine(_) => false,
                Slot::Numeric(_) if solves_left > 0 => {
                    solves_left -= 1;
                    false
                }
                Slot::Numeric(_) => {
                    truncated += 1;
                    true
                }
            };
            radii.push(self.feature_verdict(idx, tol, origin, ws, policy, truncate));
        }
        if truncated > 0 && fepia_obs::enabled() {
            fepia_obs::global()
                .counter("brownout.truncated_features")
                .add(truncated);
        }
        self.record_verdict(PlanVerdict::from_radii(radii))
    }

    /// Fault-tolerant batch over the catching `fepia-par` driver: one
    /// unbudgeted [`Self::verdict`] per origin, no early abort. Worker
    /// panics are isolated per origin, quarantined tasks get one bounded
    /// re-dispatch, and an origin whose task panics on every attempt still
    /// yields a verdict ([`FailReason::Panic`]) rather than killing the
    /// sweep. `ParConfig::with_threads(1)` runs the same driver on the
    /// calling thread with one shared workspace.
    pub fn verdict_batch(
        &self,
        origins: &[VecN],
        cfg: &ParConfig,
        policy: &ResiliencePolicy,
    ) -> Vec<PlanVerdict> {
        let _span = fepia_obs::span!("core.plan.batch_verdicts");
        let catch = CatchConfig::default();
        par_map_dynamic_catch_with(origins, cfg, &catch, PlanWorkspace::new, {
            |ws: &mut PlanWorkspace, _i, origin: &VecN| {
                self.verdict(origin, ws, policy, EvalBudget::UNLIMITED, None)
            }
        })
        .into_iter()
        .map(|r| match r {
            Ok(v) => v,
            Err(TaskError::Panicked { message, .. }) => {
                PlanVerdict::all_failed(self.features.len(), FailReason::Panic(message))
            }
        })
        .collect()
    }

    fn record_verdict(&self, v: PlanVerdict) -> PlanVerdict {
        if fepia_obs::enabled() {
            let reg = fepia_obs::global();
            for r in &v.radii {
                reg.counter(&format!("core.verdict.{}", r.label())).inc();
            }
            if !v.is_exact() {
                reg.counter("degraded.evaluations").inc();
            }
        }
        v
    }

    fn check_dim(&self, origin: &VecN) -> Result<(), CoreError> {
        if origin.dim() != self.affine.dim {
            return Err(CoreError::DimensionMismatch {
                perturbation: origin.dim(),
                expected: self.affine.dim,
            });
        }
        Ok(())
    }
}

/// Outcome of one numeric bound solve in the verdict path: exact, certified
/// interval, or nothing.
enum BoundOutcome {
    Exact {
        radius: f64,
        point: Option<VecN>,
        iterations: usize,
        f_evals: u64,
    },
    Interval {
        lo: f64,
        hi: f64,
        reason: DegradeReason,
        restarts: usize,
    },
    Fail(FailReason),
}

/// The budget-truncated counterpart of [`numeric_bound_verdict`]: no solve
/// at all, just the certified axis-probe interval toward one tolerance
/// boundary. Deterministic — bisection only, no retries, no randomness —
/// so brownout answers are bitwise-reproducible.
fn truncated_bound_certificate(
    impact: &dyn Impact,
    beta: f64,
    origin: &VecN,
    direction: f64,
    solver: &SolverOptions,
    policy: &ResiliencePolicy,
) -> BoundOutcome {
    let f = |pi: &VecN| direction * impact.eval(pi);
    let problem = LevelSetProblem {
        f: &f,
        grad: None,
        origin,
        level: direction * beta,
    };
    match certified_level_interval(&problem, solver, policy.certify_bisections) {
        Ok(iv) => BoundOutcome::Interval {
            lo: iv.lo,
            hi: iv.hi,
            reason: DegradeReason::BudgetExhausted,
            restarts: 0,
        },
        Err(e) => BoundOutcome::Fail(FailReason::Solver(format!("budget-truncated: {e}"))),
    }
}

/// Resilient counterpart of `numeric_bound_radius`: solve toward one
/// tolerance boundary under the retry policy, degrading to the axis-probe
/// certificate instead of erroring.
fn numeric_bound_verdict(
    impact: &dyn Impact,
    beta: f64,
    origin: &VecN,
    direction: f64,
    solver: &SolverOptions,
    policy: &ResiliencePolicy,
    ws: &mut SolverWorkspace,
) -> BoundOutcome {
    let f = |pi: &VecN| direction * impact.eval(pi);
    let has_grad = impact.gradient(origin).is_some();
    let g = |pi: &VecN| {
        impact
            .gradient(pi)
            .map(|v| v.scaled(direction))
            .expect("gradient availability checked before solving")
    };
    let problem = LevelSetProblem {
        f: &f,
        grad: if has_grad { Some(&g) } else { None },
        origin,
        level: direction * beta,
    };
    match min_norm_to_level_set_resilient(&problem, solver, &policy.retry, ws) {
        Ok(res) if !res.degraded => BoundOutcome::Exact {
            radius: res.solution.radius,
            point: Some(res.solution.point),
            iterations: res.solution.iterations,
            f_evals: res.solution.f_evals,
        },
        Ok(res) => {
            // Non-converged, but every solver iterate sits on the boundary:
            // the best radius found is a certified upper bound. The axis
            // probes supply the lower certificate.
            let hi = res.solution.radius;
            let lo = match certified_level_interval(&problem, solver, policy.certify_bisections) {
                Ok(iv) => iv.lo.min(hi),
                Err(_) => 0.0,
            };
            BoundOutcome::Interval {
                lo,
                hi,
                reason: DegradeReason::IterationCap,
                restarts: res.restarts,
            }
        }
        Err(OptimError::Unreachable) => BoundOutcome::Exact {
            radius: f64::INFINITY,
            point: None,
            iterations: 0,
            f_evals: 0,
        },
        Err(e) => {
            let restarts = match &e {
                OptimError::Exhausted { restarts, .. } => *restarts,
                _ => 0,
            };
            match certified_level_interval(&problem, solver, policy.certify_bisections) {
                Ok(iv) => BoundOutcome::Interval {
                    lo: iv.lo,
                    hi: iv.hi,
                    reason: DegradeReason::BudgetExhausted,
                    restarts,
                },
                Err(ce) => BoundOutcome::Fail(FailReason::Solver(format!("{e}; fallback: {ce}"))),
            }
        }
    }
}

/// Combines the (up to two) per-bound outcomes into one feature verdict.
/// The all-exact path reproduces the legacy `consider` loop (min radius,
/// upper bound first on ties); anything else aggregates min-of-intervals,
/// a failed bound contributing the vacuous `[0, ∞)`.
fn combine_bound_outcomes(outcomes: Vec<(BoundOutcome, Bound)>) -> RadiusVerdict {
    if outcomes.is_empty() {
        // Both tolerances infinite: no boundary constrains the feature.
        return RadiusVerdict::Exact(RadiusResult {
            radius: f64::INFINITY,
            boundary_point: None,
            bound: None,
            violated: false,
            method: RadiusMethod::Unbounded,
            iterations: 0,
            f_evals: 1,
        });
    }
    if outcomes
        .iter()
        .all(|(o, _)| matches!(o, BoundOutcome::Exact { .. }))
    {
        let mut best: Option<(f64, Option<VecN>, Bound)> = None;
        let mut iterations = 0usize;
        let mut f_evals = 1u64; // the feasibility check at the origin
        for (o, bound) in outcomes {
            if let BoundOutcome::Exact {
                radius,
                point,
                iterations: it,
                f_evals: fe,
            } = o
            {
                iterations += it;
                f_evals += fe;
                if best.as_ref().is_none_or(|(r, _, _)| radius < *r) {
                    best = Some((radius, point, bound));
                }
            }
        }
        return RadiusVerdict::Exact(match best {
            Some((radius, point, bound)) if radius.is_finite() => RadiusResult {
                radius,
                boundary_point: point,
                bound: Some(bound),
                violated: false,
                method: RadiusMethod::Numeric,
                iterations,
                f_evals,
            },
            _ => RadiusResult {
                radius: f64::INFINITY,
                boundary_point: None,
                bound: None,
                violated: false,
                method: RadiusMethod::Unbounded,
                iterations,
                f_evals,
            },
        });
    }
    let mut lo = f64::INFINITY;
    let mut hi = f64::INFINITY;
    let mut reason = None;
    let mut restarts_max = 0usize;
    let mut fail: Option<FailReason> = None;
    for (o, _) in outcomes {
        match o {
            BoundOutcome::Exact { radius, .. } => {
                lo = lo.min(radius);
                hi = hi.min(radius);
            }
            BoundOutcome::Interval {
                lo: l,
                hi: h,
                reason: r,
                restarts,
            } => {
                lo = lo.min(l);
                hi = hi.min(h);
                reason.get_or_insert(r);
                restarts_max = restarts_max.max(restarts);
            }
            BoundOutcome::Fail(fr) => {
                // The failed bound's radius could be anything in [0, ∞).
                lo = 0.0;
                fail.get_or_insert(fr);
            }
        }
    }
    if let Some(fr) = fail {
        if lo == 0.0 && hi.is_infinite() {
            // Nothing certified on either side.
            return RadiusVerdict::Failed(fr);
        }
    }
    RadiusVerdict::Bounded {
        lo: lo.min(hi),
        hi,
        reason: reason.unwrap_or(DegradeReason::BudgetExhausted),
        restarts: restarts_max,
    }
}

/// Index of the first minimum (the tie-break `Iterator::min_by` uses, which
/// the legacy binding-feature selection relies on).
fn first_min_index(radii: &[f64]) -> usize {
    first_min_index_by(radii, |r| *r)
}

/// `total_cmp` is selection-identical to the historical
/// `partial_cmp().expect(..)` here — radii are never `-0.0` (they come from
/// `abs()` / norms) — but it stays total under fault injection: a NaN radius
/// (positive bit pattern) sorts *after* `+∞` and is never picked as the
/// minimum instead of poisoning the whole comparison.
fn first_min_index_by<T>(items: &[T], key: impl Fn(&T) -> f64) -> usize {
    items
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| key(a).total_cmp(&key(b)))
        .map(|(i, _)| i)
        .expect("non-empty feature set")
}

fn floored(domain: Domain, metric: f64) -> Option<f64> {
    match domain {
        Domain::Discrete if metric.is_finite() => Some(metric.floor()),
        Domain::Discrete => Some(metric),
        Domain::Continuous => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::FepiaAnalysis;
    use crate::feature::Tolerance;
    use crate::impact::{FnImpact, LinearImpact, SumSelected};
    use crate::robustness_radius;

    fn mixed_analysis() -> FepiaAnalysis {
        mixed_analysis_with(60.0)
    }

    /// Two affine features and one numeric feature (`quad`, tolerance
    /// `[−∞, quad_max]`).
    fn mixed_analysis_with(quad_max: f64) -> FepiaAnalysis {
        let pert = Perturbation::continuous("p", VecN::from([1.0, 2.0, 3.0]));
        let mut a = FepiaAnalysis::new(pert);
        a.add_feature(
            FeatureSpec::new("lin", Tolerance::upper(30.0)),
            LinearImpact::new(VecN::from([2.0, 1.0, 0.5]), 1.0),
        );
        a.add_feature(
            FeatureSpec::new("sum", Tolerance::new(1.0, 40.0).unwrap()),
            SumSelected::new(vec![0, 2], 3),
        );
        a.add_feature(
            FeatureSpec::new("quad", Tolerance::upper(quad_max)),
            FnImpact::new(|v: &VecN| v.dot(v)).with_dim(3),
        );
        a
    }

    /// Bitwise equality of two verdicts: kind, binding, metric interval and
    /// every feature's radius interval.
    fn assert_bitwise_eq(a: &PlanVerdict, b: &PlanVerdict) {
        assert_eq!(a.kind, b.kind);
        assert_eq!(a.binding, b.binding);
        assert_eq!(a.metric_lo.to_bits(), b.metric_lo.to_bits());
        assert_eq!(a.metric_hi.to_bits(), b.metric_hi.to_bits());
        assert_eq!(a.radii.len(), b.radii.len());
        for (x, y) in a.radii.iter().zip(&b.radii) {
            let (xlo, xhi) = x.radius_bounds().expect("clean features have bounds");
            let (ylo, yhi) = y.radius_bounds().expect("clean features have bounds");
            assert_eq!(xlo.to_bits(), ylo.to_bits());
            assert_eq!(xhi.to_bits(), yhi.to_bits());
        }
    }

    /// The tolerance override reaches the numeric arm, solved and
    /// truncated alike: on a mixed plan, overriding with the compiled
    /// tolerances is bitwise the spec path, and tightening the numeric
    /// feature's bound is bitwise a plan compiled with that bound.
    #[test]
    fn tolerance_override_is_bitwise_a_recompiled_plan_on_mixed_features() {
        let analysis = mixed_analysis();
        let plan = analysis.compile(&RadiusOptions::default()).unwrap();
        let origin = analysis.perturbation().origin.clone();
        let policy = ResiliencePolicy::default();
        let compiled: Vec<Tolerance> = plan.features.iter().map(|f| f.spec.tolerance).collect();
        let tighter = mixed_analysis_with(50.0);
        let tighter_plan = tighter.compile(&RadiusOptions::default()).unwrap();
        let mut tols = compiled.clone();
        tols[2] = Tolerance::upper(50.0);
        let mut ws = plan.workspace();
        for budget in [EvalBudget::UNLIMITED, EvalBudget::BROWNOUT] {
            let spec = plan.verdict(&origin, &mut ws, &policy, budget, None);
            let same = plan.verdict(&origin, &mut ws, &policy, budget, Some(&compiled));
            assert_bitwise_eq(&spec, &same);

            let overridden = plan.verdict(&origin, &mut ws, &policy, budget, Some(&tols));
            let recompiled = tighter_plan.verdict(&origin, &mut ws, &policy, budget, None);
            assert_bitwise_eq(&overridden, &recompiled);
            assert_ne!(
                overridden.radii[2].radius_bounds(),
                spec.radii[2].radius_bounds(),
                "the numeric feature must be judged against the override"
            );
        }
    }

    #[test]
    fn plan_matches_legacy_bitwise() {
        let analysis = mixed_analysis();
        let opts = RadiusOptions::default();
        let plan = analysis.compile(&opts).unwrap();
        assert_eq!(plan.feature_count(), 3);
        assert_eq!(plan.affine_count(), 2);
        assert_eq!(plan.numeric_count(), 1);

        let origin = analysis.perturbation().origin.clone();
        let eval = plan.evaluate(&origin, &mut PlanWorkspace::new()).unwrap();
        let report = analysis.run(&opts).unwrap();
        assert_eq!(eval.radii.len(), report.radii.len());
        for (fast, legacy) in eval.radii.iter().zip(report.radii.iter()) {
            assert_eq!(fast.to_bits(), legacy.result.radius.to_bits());
        }
        assert_eq!(eval.metric.to_bits(), report.metric.to_bits());
        assert_eq!(eval.binding, report.binding);
    }

    #[test]
    fn batch_matches_single_evaluations() {
        let analysis = mixed_analysis();
        let plan = analysis.compile(&RadiusOptions::default()).unwrap();
        let origins: Vec<VecN> = (0..8)
            .map(|i| VecN::from([1.0 + i as f64 * 0.1, 2.0, 3.0 - i as f64 * 0.05]))
            .collect();
        let batch = plan
            .evaluate_batch(&origins, &ParConfig::with_threads(1))
            .unwrap();
        for (origin, b) in origins.iter().zip(batch.iter()) {
            let single = plan.evaluate(origin, &mut PlanWorkspace::new()).unwrap();
            assert_eq!(b.metric.to_bits(), single.metric.to_bits());
        }
        let par = plan
            .evaluate_batch(&origins, &ParConfig::with_threads(2))
            .unwrap();
        for (a, b) in batch.iter().zip(par.iter()) {
            assert_eq!(a.metric.to_bits(), b.metric.to_bits());
            assert_eq!(a.binding, b.binding);
        }
    }

    #[test]
    fn report_matches_per_feature_path() {
        let analysis = mixed_analysis();
        let opts = RadiusOptions::default();
        let plan = analysis.compile(&opts).unwrap();
        let pert = analysis.perturbation().clone();
        let report = plan.evaluate_report(&pert.origin).unwrap();
        // Against the true legacy path: robustness_radius per feature.
        let legacy_lin = robustness_radius(
            &FeatureSpec::new("lin", Tolerance::upper(30.0)),
            &LinearImpact::new(VecN::from([2.0, 1.0, 0.5]), 1.0),
            &pert,
            &opts,
        )
        .unwrap();
        assert_eq!(
            report.radii[0].result.radius.to_bits(),
            legacy_lin.radius.to_bits()
        );
        assert_eq!(
            report.radii[0].result.boundary_point,
            legacy_lin.boundary_point
        );
        let legacy_quad = robustness_radius(
            &FeatureSpec::new("quad", Tolerance::upper(60.0)),
            &FnImpact::new(|v: &VecN| v.dot(v)).with_dim(3),
            &pert,
            &opts,
        )
        .unwrap();
        assert_eq!(
            report.radii[2].result.radius.to_bits(),
            legacy_quad.radius.to_bits()
        );
    }

    #[test]
    fn budgeted_brownout_is_sound_and_bitwise_reproducible() {
        let analysis = mixed_analysis();
        let plan = analysis.compile(&RadiusOptions::default()).unwrap();
        let origin = analysis.perturbation().origin.clone();
        let policy = ResiliencePolicy::default();

        let exact = plan.verdict(
            &origin,
            &mut PlanWorkspace::new(),
            &policy,
            EvalBudget::UNLIMITED,
            None,
        );
        assert_eq!(exact.kind, VerdictKind::Exact);

        // Zero budget: affine features exact, the numeric feature truncated
        // to a certified interval.
        let b1 = plan.verdict(
            &origin,
            &mut PlanWorkspace::new(),
            &policy,
            EvalBudget::BROWNOUT,
            None,
        );
        let b2 = plan.verdict(
            &origin,
            &mut PlanWorkspace::new(),
            &policy,
            EvalBudget::BROWNOUT,
            None,
        );
        assert_eq!(b1.kind, VerdictKind::Bounded);
        for (full, brown) in exact.radii.iter().zip(&b1.radii).take(2) {
            assert_eq!(
                full.exact_radius().unwrap().to_bits(),
                brown.exact_radius().unwrap().to_bits(),
                "affine features must stay exact under brownout"
            );
        }
        let exact_r = exact.radii[2].exact_radius().unwrap();
        match (&b1.radii[2], &b2.radii[2]) {
            (
                RadiusVerdict::Bounded { lo, hi, reason, .. },
                RadiusVerdict::Bounded {
                    lo: lo2, hi: hi2, ..
                },
            ) => {
                assert_eq!(*reason, DegradeReason::BudgetExhausted);
                assert!(
                    *lo <= exact_r && exact_r <= *hi,
                    "certified interval [{lo}, {hi}] must contain the exact radius {exact_r}"
                );
                assert_eq!(
                    lo.to_bits(),
                    lo2.to_bits(),
                    "brownout must be bitwise stable"
                );
                assert_eq!(
                    hi.to_bits(),
                    hi2.to_bits(),
                    "brownout must be bitwise stable"
                );
            }
            other => panic!("expected Bounded truncations, got {other:?}"),
        }
        // The metric interval is sound: it contains the exact metric.
        assert!(b1.metric_lo <= exact.metric_hi && exact.metric_hi <= b1.metric_hi);

        // A budget covering every numeric feature reproduces the full path
        // bitwise.
        let full = plan.verdict(
            &origin,
            &mut PlanWorkspace::new(),
            &policy,
            EvalBudget { numeric_solves: 1 },
            None,
        );
        assert_eq!(full.kind, VerdictKind::Exact);
        assert_eq!(full.metric_hi.to_bits(), exact.metric_hi.to_bits());
    }

    #[test]
    fn compile_rejects_bad_inputs() {
        let pert = Perturbation::continuous("p", VecN::zeros(2));
        let empty = FepiaAnalysis::new(pert.clone());
        assert_eq!(
            empty.compile(&RadiusOptions::default()).unwrap_err(),
            CoreError::EmptyFeatureSet
        );

        let mut wrong_dim = FepiaAnalysis::new(pert.clone());
        wrong_dim.add_feature(
            FeatureSpec::new("f", Tolerance::upper(1.0)),
            LinearImpact::homogeneous(VecN::from([1.0, 1.0, 1.0])),
        );
        assert!(matches!(
            wrong_dim.compile(&RadiusOptions::default()).unwrap_err(),
            CoreError::DimensionMismatch { .. }
        ));

        let mut nonlinear = FepiaAnalysis::new(pert);
        nonlinear.add_feature(
            FeatureSpec::new("f", Tolerance::upper(1.0)),
            FnImpact::new(|v: &VecN| v.dot(v)).with_dim(2),
        );
        let opts = RadiusOptions {
            norm: Norm::L1,
            solver: Default::default(),
        };
        assert_eq!(
            nonlinear.compile(&opts).unwrap_err(),
            CoreError::UnsupportedNorm { norm: "l1" }
        );
    }

    #[test]
    fn evaluate_checks_origin_dimension() {
        let analysis = mixed_analysis();
        let plan = analysis.compile(&RadiusOptions::default()).unwrap();
        assert!(matches!(
            plan.evaluate(&VecN::zeros(2), &mut PlanWorkspace::new())
                .unwrap_err(),
            CoreError::DimensionMismatch { .. }
        ));
    }

    #[test]
    fn degenerate_and_violated_features_in_plan() {
        let pert = Perturbation::continuous("p", VecN::from([2.0, 3.0]));
        let mut a = FepiaAnalysis::new(pert);
        a.add_feature(
            FeatureSpec::new("on-boundary", Tolerance::new(5.0, 5.0).unwrap()),
            LinearImpact::new(VecN::from([1.0, 1.0]), 0.0),
        );
        a.add_feature(
            FeatureSpec::new("violated", Tolerance::upper(1.0)),
            LinearImpact::new(VecN::from([1.0, 1.0]), 0.0),
        );
        let plan = a.compile(&RadiusOptions::default()).unwrap();
        let eval = plan
            .evaluate(&VecN::from([2.0, 3.0]), &mut PlanWorkspace::new())
            .unwrap();
        assert_eq!(eval.radii, vec![0.0, 0.0]);
        assert!(eval.any_violated);
        assert_eq!(eval.metric, 0.0);
        assert_eq!(eval.binding, 0);
    }

    #[test]
    fn infinite_radius_feature_unbounded() {
        let pert = Perturbation::continuous("p", VecN::zeros(2));
        let mut a = FepiaAnalysis::new(pert);
        a.add_feature(
            FeatureSpec::new("const", Tolerance::upper(5.0)),
            LinearImpact::new(VecN::zeros(2), 1.0),
        );
        let plan = a.compile(&RadiusOptions::default()).unwrap();
        let eval = plan
            .evaluate(&VecN::zeros(2), &mut PlanWorkspace::new())
            .unwrap();
        assert_eq!(eval.metric, f64::INFINITY);
    }

    #[test]
    fn verdict_matches_exact_path_on_clean_problems() {
        let analysis = mixed_analysis();
        let plan = analysis.compile(&RadiusOptions::default()).unwrap();
        let origin = analysis.perturbation().origin.clone();
        let eval = plan.evaluate(&origin, &mut PlanWorkspace::new()).unwrap();
        let verdict = plan.verdict(
            &origin,
            &mut PlanWorkspace::new(),
            &ResiliencePolicy::default(),
            EvalBudget::UNLIMITED,
            None,
        );
        assert_eq!(verdict.kind, VerdictKind::Exact);
        assert!(verdict.is_exact());
        assert_eq!(verdict.metric_lo.to_bits(), eval.metric.to_bits());
        assert_eq!(verdict.metric_hi.to_bits(), eval.metric.to_bits());
        assert_eq!(verdict.binding, Some(eval.binding));
        for (v, r) in verdict.radii.iter().zip(eval.radii.iter()) {
            assert_eq!(v.exact_radius().unwrap().to_bits(), r.to_bits());
        }
    }

    #[test]
    fn verdict_classifies_poisoned_origin() {
        let analysis = mixed_analysis();
        let plan = analysis.compile(&RadiusOptions::default()).unwrap();
        let bad = VecN::from([1.0, f64::NAN, 3.0]);
        let verdict = plan.verdict(
            &bad,
            &mut PlanWorkspace::new(),
            &ResiliencePolicy::default(),
            EvalBudget::UNLIMITED,
            None,
        );
        assert_eq!(verdict.kind, VerdictKind::Failed);
        assert_eq!(verdict.radii.len(), 3);
        for v in &verdict.radii {
            assert!(matches!(
                v,
                RadiusVerdict::Failed(FailReason::NonFiniteInput { index: 1 })
            ));
        }
        assert_eq!(verdict.metric_lo, 0.0);
        assert_eq!(verdict.metric_hi, f64::INFINITY);
    }

    #[test]
    fn verdict_classifies_dimension_mismatch() {
        let analysis = mixed_analysis();
        let plan = analysis.compile(&RadiusOptions::default()).unwrap();
        let verdict = plan.verdict(
            &VecN::zeros(2),
            &mut PlanWorkspace::new(),
            &ResiliencePolicy::default(),
            EvalBudget::UNLIMITED,
            None,
        );
        assert_eq!(verdict.kind, VerdictKind::Failed);
        assert!(matches!(
            verdict.radii[0],
            RadiusVerdict::Failed(FailReason::DimensionMismatch {
                got: 2,
                expected: 3
            })
        ));
    }

    #[test]
    fn verdict_isolates_panicking_impact() {
        let pert = Perturbation::continuous("p", VecN::from([1.0, 1.0]));
        let mut a = FepiaAnalysis::new(pert);
        a.add_feature(
            FeatureSpec::new("good", Tolerance::upper(10.0)),
            LinearImpact::new(VecN::from([1.0, 1.0]), 0.0),
        );
        a.add_feature(
            FeatureSpec::new("bomb", Tolerance::upper(10.0)),
            FnImpact::new(|v: &VecN| {
                if v.dot(v) > 2.5 {
                    panic!("impact exploded");
                }
                v.dot(v)
            })
            .with_dim(2),
        );
        let plan = a.compile(&RadiusOptions::default()).unwrap();
        let verdict = plan.verdict(
            &VecN::from([1.0, 1.0]),
            &mut PlanWorkspace::new(),
            &ResiliencePolicy::default(),
            EvalBudget::UNLIMITED,
            None,
        );
        assert_eq!(verdict.kind, VerdictKind::Failed);
        assert!(matches!(
            &verdict.radii[1],
            RadiusVerdict::Failed(FailReason::Panic(msg)) if msg.contains("impact exploded")
        ));
        // The clean feature still certifies the metric's upper bound.
        let (lo, hi) = verdict.radii[0].radius_bounds().unwrap();
        assert_eq!(lo, hi);
        assert!(hi.is_finite());
        assert_eq!(verdict.metric_hi.to_bits(), hi.to_bits());
        assert_eq!(verdict.metric_lo, 0.0);
    }

    #[test]
    fn verdict_degrades_to_certified_interval_when_starved() {
        // One outer iteration and no restarts: the curved feature cannot
        // converge, so the verdict must degrade to an interval that still
        // brackets the true radius (5.0 for ‖π‖² = 25 from the origin).
        let pert = Perturbation::continuous("p", VecN::zeros(2));
        let mut a = FepiaAnalysis::new(pert);
        a.add_feature(
            FeatureSpec::new("quad", Tolerance::upper(25.0)),
            FnImpact::new(|v: &VecN| v.dot(v)).with_dim(2),
        );
        let opts = RadiusOptions {
            norm: Norm::L2,
            solver: fepia_optim::SolverOptions {
                max_outer: 1,
                ..Default::default()
            },
        };
        let plan = a.compile(&opts).unwrap();
        let policy = ResiliencePolicy {
            retry: fepia_optim::RetryPolicy {
                max_restarts: 0,
                ..Default::default()
            },
            ..Default::default()
        };
        let verdict = plan.verdict(
            &VecN::zeros(2),
            &mut PlanWorkspace::new(),
            &policy,
            EvalBudget::UNLIMITED,
            None,
        );
        let (lo, hi) = verdict.radii[0]
            .radius_bounds()
            .expect("degraded verdict still has bounds");
        assert!(lo <= 5.0 + 1e-6, "lo {lo} must not exceed true radius");
        assert!(hi >= 5.0 - 1e-6, "hi {hi} must not undercut true radius");
        assert!(
            matches!(verdict.kind, VerdictKind::Bounded | VerdictKind::Exact),
            "got {:?}",
            verdict.kind
        );
    }

    #[test]
    fn batch_verdicts_cover_every_origin() {
        let analysis = mixed_analysis();
        let plan = analysis.compile(&RadiusOptions::default()).unwrap();
        let mut origins: Vec<VecN> = (0..12)
            .map(|i| VecN::from([1.0 + i as f64 * 0.1, 2.0, 3.0]))
            .collect();
        origins[5] = VecN::from([f64::INFINITY, 0.0, 0.0]); // poisoned
        origins[9] = VecN::zeros(2); // wrong dimension
        let policy = ResiliencePolicy::default();
        let seq = plan.verdict_batch(&origins, &ParConfig::with_threads(1), &policy);
        assert_eq!(seq.len(), origins.len());
        assert_eq!(seq[5].kind, VerdictKind::Failed);
        assert_eq!(seq[9].kind, VerdictKind::Failed);
        assert_eq!(seq[0].kind, VerdictKind::Exact);
        let par = plan.verdict_batch(&origins, &ParConfig::with_threads(3), &policy);
        assert_eq!(par.len(), origins.len());
        for (s, p) in seq.iter().zip(par.iter()) {
            assert_eq!(s.kind, p.kind);
            assert_eq!(s.metric_lo.to_bits(), p.metric_lo.to_bits());
            assert_eq!(s.metric_hi.to_bits(), p.metric_hi.to_bits());
        }
    }

    #[test]
    fn discrete_domain_floors_plan_metric() {
        let pert = Perturbation::discrete("λ", VecN::from([0.0]));
        let mut a = FepiaAnalysis::new(pert);
        a.add_feature(
            FeatureSpec::new("T", Tolerance::upper(7.5)),
            LinearImpact::homogeneous(VecN::from([2.0])),
        );
        let plan = a.compile(&RadiusOptions::default()).unwrap();
        let eval = plan
            .evaluate(&VecN::from([0.0]), &mut PlanWorkspace::new())
            .unwrap();
        assert_eq!(eval.floored_metric, Some(3.0));
        assert_eq!(eval.effective_metric(), 3.0);
    }
}
