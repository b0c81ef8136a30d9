//! Scenario identity and compilation.
//!
//! A [`Scenario`] is the unit the service caches on: one `(ETC, mapping,
//! τ, RadiusOptions)` quadruple. Compiling it builds exactly the analysis
//! that [`fepia_mapping::makespan_robustness_generic`] builds — same
//! perturbation, same per-machine [`SumSelected`] features, same tolerance
//! bound — so every number a [`CompiledScenario`] produces is bitwise
//! identical to the legacy one-shot path. The differential oracle test at
//! the workspace root holds the service to that.
//!
//! Identity is two-tier: [`Scenario::fingerprint`] is a 64-bit word hash
//! ([`fepia_obs::hash::WordHasher`]) over every bit that can change a
//! result (ETC values, assignment, τ, the full option set) used for shard
//! routing and cache slotting, and [`Scenario::same_as`] is the exact
//! bitwise comparison that guards against fingerprint collisions — a
//! colliding-but-different scenario is recompiled, never served from the
//! wrong plan.

use fepia_core::{
    AnalysisPlan, CoreError, CurvePlan, CurveRefineOptions, EvalBudget, FeatureSpec, FepiaAnalysis,
    Perturbation, PlanVerdict, PlanWorkspace, RadiusOptions, ResiliencePolicy, SumSelected,
    Tolerance,
};
use fepia_etc::EtcMatrix;
use fepia_mapping::{DeltaEval, Mapping};
use fepia_obs::hash::WordHasher;
use fepia_optim::{Norm, VecN};
use std::sync::{Arc, OnceLock};

/// Why a scenario was rejected at construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScenarioError {
    /// ETC and mapping disagree on the number of applications or machines.
    ShapeMismatch {
        /// `(apps, machines)` of the ETC matrix.
        etc: (usize, usize),
        /// `(apps, machines)` of the mapping.
        mapping: (usize, usize),
    },
    /// The tolerance factor is not a finite number ≥ 1.
    BadTau(u64),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::ShapeMismatch { etc, mapping } => write!(
                f,
                "ETC is {}×{} but mapping is {}×{}",
                etc.0, etc.1, mapping.0, mapping.1
            ),
            ScenarioError::BadTau(bits) => {
                write!(
                    f,
                    "tolerance factor τ must be finite and ≥ 1, got {}",
                    f64::from_bits(*bits)
                )
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

/// One cacheable evaluation scenario: the §3.1 system `(C, μ, τ)` plus the
/// radius options. Immutable once constructed; shared via `Arc` between
/// clients, queues and the plan cache.
#[derive(Clone, Debug)]
pub struct Scenario {
    etc: Arc<EtcMatrix>,
    mapping: Mapping,
    tau: f64,
    opts: RadiusOptions,
    /// [`Scenario::fingerprint`], hashed on first use. Sound because the
    /// scenario is immutable.
    fingerprint: OnceLock<u64>,
}

impl Scenario {
    /// Validates shapes and τ and builds the scenario.
    pub fn new(
        etc: Arc<EtcMatrix>,
        mapping: Mapping,
        tau: f64,
        opts: RadiusOptions,
    ) -> Result<Scenario, ScenarioError> {
        if etc.apps() != mapping.apps() || etc.machines() != mapping.machines() {
            return Err(ScenarioError::ShapeMismatch {
                etc: (etc.apps(), etc.machines()),
                mapping: (mapping.apps(), mapping.machines()),
            });
        }
        if !(tau.is_finite() && tau >= 1.0) {
            return Err(ScenarioError::BadTau(tau.to_bits()));
        }
        Ok(Scenario {
            etc,
            mapping,
            tau,
            opts,
            fingerprint: OnceLock::new(),
        })
    }

    /// The ETC matrix.
    pub fn etc(&self) -> &Arc<EtcMatrix> {
        &self.etc
    }

    /// The base mapping the plan is compiled for.
    pub fn mapping(&self) -> &Mapping {
        &self.mapping
    }

    /// The makespan tolerance factor τ.
    pub fn tau(&self) -> f64 {
        self.tau
    }

    /// The radius options the plan is compiled with.
    pub fn opts(&self) -> &RadiusOptions {
        &self.opts
    }

    /// 64-bit fingerprint over every input bit that can change a result:
    /// matrix shape and values, assignment, τ, and the complete
    /// [`RadiusOptions`] (norm variant + weights, all solver fields), fed
    /// to a [`WordHasher`] one `u64` word each (588 words for a 64×8
    /// scenario). Used for shard routing and cache slotting; exact
    /// identity is re-checked with [`same_as`](Self::same_as) on every
    /// cache hit. Hashed at most once per scenario: routing and the cache
    /// lookup of one request share the memo.
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| self.hash())
    }

    fn hash(&self) -> u64 {
        let mut h = WordHasher::new();
        h.u64(self.etc.apps() as u64);
        h.u64(self.etc.machines() as u64);
        for &v in self.etc.values() {
            h.u64(v.to_bits());
        }
        for &j in self.mapping.assignment() {
            h.u64(j as u64);
        }
        h.u64(self.tau.to_bits());
        match &self.opts.norm {
            Norm::L1 => h.u64(1),
            Norm::L2 => h.u64(2),
            Norm::LInf => h.u64(3),
            Norm::WeightedL2(w) => {
                h.u64(4);
                h.u64(w.len() as u64);
                for &x in w {
                    h.u64(x.to_bits());
                }
            }
        }
        let s = &self.opts.solver;
        h.u64(s.tol.to_bits());
        h.u64(s.max_outer as u64);
        h.u64(s.t_max_factor.to_bits());
        h.u64(s.fd_step.to_bits());
        h.u64(s.seed_jitter.to_bits());
        h.u64(s.root.x_tol.to_bits());
        h.u64(s.root.f_tol.to_bits());
        h.u64(s.root.max_iter as u64);
        h.finish()
    }

    /// Exact identity: same τ bits, same options, same assignment, same ETC
    /// values bitwise. Collision-proof where the fingerprint is merely
    /// collision-resistant.
    pub fn same_as(&self, other: &Scenario) -> bool {
        self.tau.to_bits() == other.tau.to_bits()
            && self.opts == other.opts
            && self.mapping.machines() == other.mapping.machines()
            && self.mapping.assignment() == other.mapping.assignment()
            && (Arc::ptr_eq(&self.etc, &other.etc)
                || (self.etc.apps() == other.etc.apps()
                    && self.etc.machines() == other.etc.machines()
                    && self
                        .etc
                        .values()
                        .iter()
                        .zip(other.etc.values())
                        .all(|(a, b)| a.to_bits() == b.to_bits())))
    }

    /// Compiles the scenario into a reusable plan. The analysis is
    /// constructed exactly as [`fepia_mapping::makespan_robustness_generic`]
    /// constructs it, so plan evaluations are bitwise identical to the
    /// legacy path.
    pub fn compile(self: &Arc<Scenario>) -> Result<CompiledScenario, CoreError> {
        let makespan = self.mapping.makespan(&self.etc);
        let bound = self.tau * makespan;
        let origin = VecN::new(self.mapping.assigned_times(&self.etc));
        let apps = self.mapping.apps();

        let mut analysis =
            FepiaAnalysis::new(Perturbation::continuous("ETC vector C", origin.clone()));
        for j in 0..self.mapping.machines() {
            let on_j = self.mapping.apps_on(j);
            if on_j.is_empty() {
                continue; // F_j ≡ 0: unaffected by C, infinite radius.
            }
            analysis.add_feature(
                FeatureSpec::new(format!("finish-time m_{j}"), Tolerance::upper(bound)),
                SumSelected::new(on_j, apps),
            );
        }
        let plan = analysis.compile(&self.opts)?;
        Ok(CompiledScenario {
            scenario: Arc::clone(self),
            plan,
            origin,
        })
    }
}

/// Upper bound on explicit curve grids and on the dense grid an adaptive
/// request may expand to — curve units feed admission control, so the
/// worst case must be known at validation time.
pub const MAX_CURVE_POINTS: usize = 1024;
/// Deepest adaptive dyadic refinement the service accepts
/// (`2^MAX_CURVE_DEPTH + 1 ≤ MAX_CURVE_POINTS + 1`).
pub const MAX_CURVE_DEPTH: u32 = 10;

/// The tolerance grid of a degradation-curve request.
#[derive(Clone, Debug, PartialEq)]
pub enum CurveGrid {
    /// Evaluate exactly these τ levels, strictly ascending.
    Explicit(Vec<f64>),
    /// Adaptive dyadic refinement of `[tau_lo, tau_hi]` to depth
    /// `max_depth`, subdividing while the certified ρ-change across an
    /// interval exceeds `rho_resolution`.
    Adaptive {
        /// Lower endpoint (≥ 1, like any scenario τ).
        tau_lo: f64,
        /// Upper endpoint (> `tau_lo`).
        tau_hi: f64,
        /// Dyadic depth bound (≤ [`MAX_CURVE_DEPTH`]).
        max_depth: u32,
        /// Refinement stop: certified ρ-change per interval.
        rho_resolution: f64,
    },
}

/// A degradation-curve request spec: what to sweep on top of a scenario.
/// Participates in cache keying via [`CurveSpec::fingerprint`] — two
/// requests on the same scenario with different grids are different
/// requests, while the compiled plan they share is cached once per
/// scenario (that sharing *is* the curve amortization).
#[derive(Clone, Debug, PartialEq)]
pub struct CurveSpec {
    /// The tolerance grid.
    pub grid: CurveGrid,
}

impl CurveSpec {
    /// Why a spec was rejected: a human-readable validation error, `None`
    /// when the spec is servable.
    pub fn validate(&self) -> Option<String> {
        match &self.grid {
            CurveGrid::Explicit(levels) => {
                if levels.is_empty() {
                    return Some("curve grid must contain at least one level".into());
                }
                if levels.len() > MAX_CURVE_POINTS {
                    return Some(format!(
                        "curve grid of {} levels exceeds the {MAX_CURVE_POINTS}-point cap",
                        levels.len()
                    ));
                }
                for &t in levels {
                    if !(t.is_finite() && t >= 1.0) {
                        return Some(format!("curve level τ must be finite and ≥ 1, got {t}"));
                    }
                }
                if levels.windows(2).any(|w| w[0] >= w[1]) {
                    return Some("curve levels must be strictly ascending".into());
                }
                None
            }
            CurveGrid::Adaptive {
                tau_lo,
                tau_hi,
                max_depth,
                rho_resolution,
            } => {
                if !(tau_lo.is_finite() && *tau_lo >= 1.0) {
                    return Some(format!("curve τ_lo must be finite and ≥ 1, got {tau_lo}"));
                }
                if !(tau_hi.is_finite() && tau_hi > tau_lo) {
                    return Some(format!(
                        "curve τ_hi must be finite and > τ_lo, got {tau_hi}"
                    ));
                }
                if *max_depth > MAX_CURVE_DEPTH {
                    return Some(format!(
                        "curve depth {max_depth} exceeds the cap of {MAX_CURVE_DEPTH}"
                    ));
                }
                if !(rho_resolution.is_finite() && *rho_resolution >= 0.0) {
                    return Some(format!(
                        "curve ρ-resolution must be finite and ≥ 0, got {rho_resolution}"
                    ));
                }
                None
            }
        }
    }

    /// Worst-case number of curve points this spec can produce — the unit
    /// count admission control and deadline budgets charge the request.
    pub fn max_points(&self) -> usize {
        match &self.grid {
            CurveGrid::Explicit(levels) => levels.len(),
            CurveGrid::Adaptive { max_depth, .. } => (1usize << max_depth) + 1,
        }
    }

    /// 64-bit [`WordHasher`] fingerprint of the grid (tag + every
    /// level/field's IEEE bits). Combined with [`Scenario::fingerprint`]
    /// this keys a curve request: specs differing in any grid bit get
    /// different keys.
    pub fn fingerprint(&self) -> u64 {
        let mut h = WordHasher::new();
        match &self.grid {
            CurveGrid::Explicit(levels) => {
                h.u64(1);
                h.u64(levels.len() as u64);
                for &t in levels {
                    h.u64(t.to_bits());
                }
            }
            CurveGrid::Adaptive {
                tau_lo,
                tau_hi,
                max_depth,
                rho_resolution,
            } => {
                h.u64(2);
                h.u64(tau_lo.to_bits());
                h.u64(tau_hi.to_bits());
                h.u64(*max_depth as u64);
                h.u64(rho_resolution.to_bits());
            }
        }
        h.finish()
    }

    /// The request-level cache key: scenario identity and grid identity
    /// folded together.
    pub fn request_key(&self, scenario_fingerprint: u64) -> u64 {
        let mut h = WordHasher::new();
        h.u64(scenario_fingerprint);
        h.u64(self.fingerprint());
        h.finish()
    }
}

/// Curve metadata carried alongside the per-point verdicts in a response:
/// which τ was evaluated at each point (explicit echoes the request grid;
/// adaptive reports the refined grid) plus the monotonicity flag.
#[derive(Clone, Debug, PartialEq)]
pub struct CurveMeta {
    /// The τ level of each verdict, ascending, one per response verdict.
    pub taus: Vec<f64>,
    /// No adjacent pair certifies a ρ decrease as τ grows (see
    /// [`fepia_core::CurveVerdict`]).
    pub monotone: bool,
}

/// A compiled scenario: the shared [`AnalysisPlan`] plus the assumed
/// operating point `C_orig`. What the per-shard cache stores.
pub struct CompiledScenario {
    scenario: Arc<Scenario>,
    plan: Arc<AnalysisPlan>,
    origin: VecN,
}

impl CompiledScenario {
    /// The scenario this plan was compiled from.
    pub fn scenario(&self) -> &Arc<Scenario> {
        &self.scenario
    }

    /// The compiled plan.
    pub fn plan(&self) -> &Arc<AnalysisPlan> {
        &self.plan
    }

    /// The assumed operating point `C_orig` (assigned times of the base
    /// mapping).
    pub fn origin(&self) -> &VecN {
        &self.origin
    }

    /// Fault-tolerant evaluation at `C_orig` under a deterministic work
    /// budget ([`EvalBudget::UNLIMITED`] for the full-precision path; the
    /// brownout path truncates numeric features past the budget to
    /// certified `Bounded` intervals while affine features stay exact).
    pub fn verdict_at_origin_budgeted(
        &self,
        ws: &mut PlanWorkspace,
        policy: &ResiliencePolicy,
        budget: EvalBudget,
    ) -> PlanVerdict {
        self.plan.verdict(&self.origin, ws, policy, budget, None)
    }

    /// Fault-tolerant evaluation at caller-supplied origins (perturbed
    /// operating points), one verdict per origin, under a deterministic
    /// work budget applied per origin.
    pub fn verdicts_at_budgeted(
        &self,
        origins: &[VecN],
        ws: &mut PlanWorkspace,
        policy: &ResiliencePolicy,
        budget: EvalBudget,
    ) -> Vec<PlanVerdict> {
        origins
            .iter()
            .map(|o| self.plan.verdict(o, ws, policy, budget, None))
            .collect()
    }

    /// The full degradation curve ρ(τ) over this scenario's compiled plan:
    /// one budgeted verdict per grid level, sharing the plan's affine
    /// block, dual norms and solver workspace across all levels.
    ///
    /// Each level's tolerance bound is `τ_k · makespan` computed with the
    /// *same arithmetic* [`Scenario::compile`] uses for its single τ, so
    /// every curve point is bitwise identical to compiling an independent
    /// scenario at `τ_k` and evaluating its verdict — the differential
    /// oracle `tests/curve_equivalence.rs` holds the service to this.
    pub fn curve_verdicts(
        &self,
        spec: &CurveSpec,
        ws: &mut PlanWorkspace,
        policy: &ResiliencePolicy,
        budget: EvalBudget,
    ) -> (Vec<PlanVerdict>, CurveMeta) {
        let makespan = self.scenario.mapping.makespan(&self.scenario.etc);
        let features = self.plan.feature_count();
        let tols = move |tau: f64| -> Vec<Tolerance> {
            let bound = tau * makespan;
            (0..features).map(|_| Tolerance::upper(bound)).collect()
        };
        let curve = CurvePlan::new(Arc::clone(&self.plan));
        let cv = match &spec.grid {
            CurveGrid::Explicit(levels) => {
                curve.sweep_with(&self.origin, levels, &tols, ws, policy, budget)
            }
            CurveGrid::Adaptive {
                tau_lo,
                tau_hi,
                max_depth,
                rho_resolution,
            } => curve.refine_with(
                &self.origin,
                *tau_lo,
                *tau_hi,
                CurveRefineOptions {
                    max_depth: *max_depth,
                    rho_resolution: *rho_resolution,
                },
                &tols,
                ws,
                policy,
                budget,
            ),
        };
        let meta = CurveMeta {
            taus: cv.levels(),
            monotone: cv.monotone,
        };
        (cv.verdicts(), meta)
    }

    /// One verdict per single-application move `(app, dst)`, each evaluated
    /// against the base mapping with that one move applied — the hot
    /// scheduler-probe path. Runs on [`DeltaEval`] (O(2 machines) per
    /// move); the reported metric is bitwise identical to a full
    /// [`fepia_mapping::makespan_robustness`] recompute on the moved
    /// mapping.
    pub fn move_verdicts(&self, moves: &[(usize, usize)]) -> Vec<PlanVerdict> {
        let mut de = DeltaEval::new(
            &self.scenario.etc,
            &self.scenario.mapping,
            self.scenario.tau,
        );
        moves
            .iter()
            .map(|&(app, dst)| {
                let src = de.machine_of(app).expect("base mapping is complete");
                de.apply(app, dst);
                let v = de.verdict();
                de.apply(app, src); // revert: re-summed loads are bitwise-exact
                PlanVerdict::from_radii(vec![v])
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fepia_etc::{generate_cvb, EtcParams};
    use fepia_mapping::makespan_robustness;
    use fepia_stats::rng_for;

    fn scenario(seed: u64, tau: f64) -> Arc<Scenario> {
        let etc = Arc::new(generate_cvb(
            &mut rng_for(seed, 0),
            &EtcParams::paper_section_4_2(),
        ));
        let mapping = Mapping::random(&mut rng_for(seed, 1), 20, 5);
        Arc::new(Scenario::new(etc, mapping, tau, RadiusOptions::default()).unwrap())
    }

    #[test]
    fn construction_validates_inputs() {
        let etc = Arc::new(EtcMatrix::uniform(3, 2, 10.0));
        let m3 = Mapping::new(vec![0, 1, 0], 2);
        assert!(Scenario::new(Arc::clone(&etc), m3.clone(), 1.2, RadiusOptions::default()).is_ok());
        let m2 = Mapping::new(vec![0, 1], 2);
        assert!(matches!(
            Scenario::new(Arc::clone(&etc), m2, 1.2, RadiusOptions::default()),
            Err(ScenarioError::ShapeMismatch { .. })
        ));
        for bad_tau in [0.5, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                Scenario::new(
                    Arc::clone(&etc),
                    m3.clone(),
                    bad_tau,
                    RadiusOptions::default()
                ),
                Err(ScenarioError::BadTau(_))
            ));
        }
    }

    #[test]
    fn fingerprint_is_deterministic_and_input_sensitive() {
        let a = scenario(1, 1.2);
        assert_eq!(a.fingerprint(), scenario(1, 1.2).fingerprint());
        assert!(a.same_as(&scenario(1, 1.2)));
        // The memo (kept across clones) is the hash itself.
        assert_eq!(a.fingerprint(), a.hash());
        assert_eq!(Scenario::clone(&a).fingerprint(), a.hash());

        // τ, mapping, ETC and options all feed the fingerprint.
        assert_ne!(a.fingerprint(), scenario(1, 1.25).fingerprint());
        assert_ne!(a.fingerprint(), scenario(2, 1.2).fingerprint());
        let tighter = Arc::new(
            Scenario::new(
                Arc::clone(a.etc()),
                a.mapping().clone(),
                a.tau(),
                RadiusOptions {
                    norm: Norm::LInf,
                    solver: Default::default(),
                },
            )
            .unwrap(),
        );
        assert_ne!(a.fingerprint(), tighter.fingerprint());
        assert!(!a.same_as(&tighter));
    }

    #[test]
    fn compiled_origin_verdict_matches_legacy_closed_form() {
        for seed in 0..5u64 {
            let s = scenario(seed, 1.2);
            let compiled = s.compile().unwrap();
            let mut ws = PlanWorkspace::new();
            let v = compiled.verdict_at_origin_budgeted(
                &mut ws,
                &ResiliencePolicy::default(),
                EvalBudget::UNLIMITED,
            );
            assert!(v.is_exact());
            let report =
                fepia_mapping::makespan_robustness_generic(s.mapping(), s.etc(), s.tau(), s.opts())
                    .unwrap();
            assert_eq!(v.metric_hi.to_bits(), report.metric.to_bits());
        }
    }

    #[test]
    fn move_verdicts_match_full_recompute_bitwise() {
        let s = scenario(3, 1.2);
        let mut rng = rng_for(3, 42);
        use rand::Rng;
        let moves: Vec<(usize, usize)> = (0..50)
            .map(|_| (rng.gen_range(0..20), rng.gen_range(0..5)))
            .collect();
        let compiled = s.compile().unwrap();
        let verdicts = compiled.move_verdicts(&moves);
        for (&(app, dst), v) in moves.iter().zip(&verdicts) {
            let mut moved = s.mapping().clone();
            moved.reassign(app, dst);
            let expected = makespan_robustness(&moved, s.etc(), s.tau()).unwrap();
            assert!(v.is_exact());
            assert_eq!(v.metric_hi.to_bits(), expected.metric.to_bits());
        }
    }
}
