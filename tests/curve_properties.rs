//! Property suite for the degradation-curve engine (curve satellites).
//!
//! Three families, all on randomized CVB scenarios:
//!
//! * **Monotonicity** — with upper-bound tolerances `τ·makespan`, no
//!   machine is violated at the origin (the makespan *is* the max finish
//!   time), so every per-feature radius grows with τ and ρ(τ) is
//!   non-decreasing on any ascending grid — equivalently, monotone
//!   non-increasing toward tighter tolerance. Checked pointwise on the
//!   exact affine values, not just via the engine's certified flag.
//! * **Warm-start equivalence** — a full sweep sharing one plan and one
//!   workspace across levels must equal, bit for bit, cold per-level
//!   solves that each recompile the scenario at that τ with a fresh
//!   workspace (the affine path is exact, so "within 1e-12" collapses
//!   to bitwise).
//! * **Degenerate grid** — a curve of length 1 at the scenario's own τ
//!   is the existing `Verdict` path wearing a different request kind:
//!   the served point must be bitwise identical to the `Verdict`
//!   response, and the metadata must collapse to `[τ]`, monotone.

use fepia::core::{EvalBudget, PlanVerdict, ResiliencePolicy, VerdictKind};
use fepia::serve::workload::{scenario_pool, verdicts_bitwise_equal, WorkloadSpec};
use fepia::serve::{CurveGrid, CurveSpec, EvalKind, EvalRequest, Scenario, Service, ServiceConfig};
use proptest::prelude::*;
use std::sync::Arc;

fn random_scenario(seed: u64, apps: usize, machines: usize) -> Arc<Scenario> {
    scenario_pool(&WorkloadSpec {
        seed,
        scenarios: 1,
        apps,
        machines,
        ..WorkloadSpec::default()
    })
    .remove(0)
}

/// Strictly ascending τ grid from raw random draws: sort, dedup by bit
/// pattern, and make sure at least one level survives.
fn ascending_grid(mut raw: Vec<f64>) -> Vec<f64> {
    raw.sort_by(|a, b| a.partial_cmp(b).unwrap());
    raw.dedup_by(|a, b| a.to_bits() == b.to_bits());
    raw
}

/// Cold oracle: recompile the scenario at each τ, fresh workspace per
/// level, one verdict each.
fn cold_per_level(scenario: &Arc<Scenario>, levels: &[f64]) -> Vec<PlanVerdict> {
    let policy = ResiliencePolicy::default();
    levels
        .iter()
        .map(|&tau| {
            let solo = Arc::new(
                Scenario::new(
                    Arc::clone(scenario.etc()),
                    scenario.mapping().clone(),
                    tau,
                    scenario.opts().clone(),
                )
                .expect("grid levels are valid taus"),
            );
            let compiled = solo.compile().expect("cold oracle compiles");
            let mut ws = compiled.plan().workspace();
            compiled.verdict_at_origin_budgeted(&mut ws, &policy, EvalBudget::UNLIMITED)
        })
        .collect()
}

proptest! {
    /// ρ(τ) is monotone non-increasing toward tighter tolerance on random
    /// ETC/mapping scenarios: ascending grids yield non-decreasing exact
    /// values and the engine certifies monotonicity.
    #[test]
    fn rho_is_monotone_on_random_scenarios(
        seed in 0u64..500,
        apps in 2usize..12,
        machines in 2usize..5,
        raw in prop::collection::vec(1.0..4.0f64, 2..10),
    ) {
        let levels = ascending_grid(raw);
        let scenario = random_scenario(seed, apps, machines);
        let compiled = scenario.compile().unwrap();
        let mut ws = compiled.plan().workspace();
        let (points, meta) = compiled.curve_verdicts(
            &CurveSpec { grid: CurveGrid::Explicit(levels.clone()) },
            &mut ws,
            &ResiliencePolicy::default(),
            EvalBudget::UNLIMITED,
        );
        prop_assert_eq!(points.len(), levels.len());
        prop_assert!(meta.monotone);
        for (k, w) in points.windows(2).enumerate() {
            prop_assert_eq!(w[0].kind, VerdictKind::Exact);
            prop_assert_eq!(w[1].kind, VerdictKind::Exact);
            prop_assert!(
                w[1].metric_lo >= w[0].metric_lo,
                "seed {}: ρ({}) = {} < ρ({}) = {}",
                seed, levels[k + 1], w[1].metric_lo, levels[k], w[0].metric_lo
            );
        }
    }

    /// Warm-started sweeps (one plan, one workspace, level-to-level) are
    /// bitwise equal to cold per-level solves that recompile everything —
    /// sharing scratch can never change a number.
    #[test]
    fn warm_sweep_bitwise_equals_cold_per_level_solves(
        seed in 0u64..200,
        apps in 2usize..10,
        machines in 2usize..4,
        raw in prop::collection::vec(1.0..3.5f64, 1..8),
    ) {
        let levels = ascending_grid(raw);
        let scenario = random_scenario(seed, apps, machines);
        let compiled = scenario.compile().unwrap();
        let mut warm_ws = compiled.plan().workspace();
        let (warm, meta) = compiled.curve_verdicts(
            &CurveSpec { grid: CurveGrid::Explicit(levels.clone()) },
            &mut warm_ws,
            &ResiliencePolicy::default(),
            EvalBudget::UNLIMITED,
        );
        let cold = cold_per_level(&scenario, &levels);
        prop_assert!(
            verdicts_bitwise_equal(&warm, &cold),
            "seed {}: warm sweep drifted from cold per-level solves", seed
        );
        for (served, requested) in meta.taus.iter().zip(&levels) {
            prop_assert_eq!(served.to_bits(), requested.to_bits());
        }
    }
}

/// A one-point curve at the scenario's own τ is the `Verdict` path: the
/// service must return the identical verdict bits under either kind.
#[test]
fn singleton_curve_bitwise_identical_to_verdict_path() {
    let spec = WorkloadSpec {
        seed: 7_001,
        ..WorkloadSpec::default()
    };
    let pool = scenario_pool(&spec);
    let service = Service::start(ServiceConfig {
        shards: 2,
        workers_per_shard: 1,
        ..ServiceConfig::default()
    });

    for (s, scenario) in pool.iter().enumerate() {
        let tau = scenario.tau();
        let verdict = service
            .call(EvalRequest {
                id: s as u64,
                scenario: Arc::clone(scenario),
                kind: EvalKind::Verdict,
            })
            .expect("verdict accepted");
        let curve = service
            .call(EvalRequest {
                id: s as u64,
                scenario: Arc::clone(scenario),
                kind: EvalKind::Curve(CurveSpec {
                    grid: CurveGrid::Explicit(vec![tau]),
                }),
            })
            .expect("singleton curve accepted");

        assert_eq!(curve.verdicts.len(), 1, "scenario {s}");
        assert!(
            verdicts_bitwise_equal(&curve.verdicts, &verdict.verdicts),
            "scenario {s}: singleton curve differs bitwise from Verdict path"
        );
        let meta = curve.curve.as_ref().expect("curve meta present");
        assert_eq!(meta.taus.len(), 1);
        assert_eq!(meta.taus[0].to_bits(), tau.to_bits(), "scenario {s}");
        assert!(meta.monotone, "a single point is vacuously monotone");
        assert!(
            verdict.curve.is_none(),
            "Verdict responses must not carry curve metadata"
        );
    }
    service.shutdown();
}
