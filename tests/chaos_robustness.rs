//! Workspace chaos/fault-injection suite (PR 3 acceptance).
//!
//! Chaos configuration is process-global, so the chaos-seeded runs live in
//! this dedicated integration binary rather than in crate unit-test modules:
//! a local mutex serializes every test (enabled *and* disabled-path tests,
//! so a bitwise check never observes another test's injected faults), and a
//! panic hook silences the intentional `chaos: injected panic` messages that
//! the containment layers catch.
//!
//! Covered:
//!
//! * batch + parallel verdict evaluation of ≥1k origins at fault rates up
//!   to 20% — a classified verdict for every origin, zero escaped panics;
//! * `DeltaEval` under cached-state poisoning — self-heals and keeps
//!   answering over ≥1k moves;
//! * NaN/Inf/degenerate inputs through the verdict path (proptest) — typed
//!   verdicts, never a panic;
//! * chaos disabled — the verdict path stays **bitwise** identical to the
//!   exact PR 2 evaluation path.

use fepia::core::{
    EvalBudget, FeatureSpec, FepiaAnalysis, FnImpact, LinearImpact, Perturbation, PlanWorkspace,
    RadiusOptions, ResiliencePolicy, Tolerance, VerdictKind,
};
use fepia::etc::{generate_cvb, EtcParams};
use fepia::mapping::{DeltaEval, Mapping};
use fepia::optim::VecN;
use fepia::par::ParConfig;
use fepia::stats::rng_for;
use proptest::prelude::*;
use rand::Rng;
use std::sync::{Mutex, Once};

/// Serializes all tests in this binary: chaos state is process-wide.
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

/// Holds the lock (tolerating poisoning from a failed test) with the panic
/// hook installed and chaos initially disabled.
fn chaos_guard() -> std::sync::MutexGuard<'static, ()> {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let text = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| info.payload().downcast_ref::<String>().cloned())
                .unwrap_or_default();
            if !text.contains("chaos: injected panic") {
                previous(info);
            }
        }));
    });
    let guard = CHAOS_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    fepia::chaos::clear();
    guard
}

/// A small mixed affine + numeric analysis over `dim`-dimensional origins.
fn mixed_analysis(seed: u64, dim: usize) -> FepiaAnalysis {
    let mut rng = rng_for(seed, 40);
    let origin = VecN::from(
        (0..dim)
            .map(|_| rng.gen_range(0.5..2.0f64))
            .collect::<Vec<f64>>(),
    );
    let mut analysis = FepiaAnalysis::new(Perturbation::continuous("pi", origin));
    for k in 0..2 {
        let coeffs: Vec<f64> = (0..dim).map(|_| rng.gen_range(-2.0..2.0f64)).collect();
        analysis.add_feature(
            FeatureSpec::new(
                format!("affine_{k}"),
                Tolerance::upper(rng.gen_range(2.0..9.0)),
            ),
            LinearImpact::new(VecN::from(coeffs), 0.0),
        );
    }
    let scale = rng.gen_range(0.5..1.5f64);
    analysis.add_feature(
        FeatureSpec::new("numeric", Tolerance::upper(rng.gen_range(8.0..25.0))),
        FnImpact::new(move |v: &VecN| scale * v.dot(v)).with_dim(dim),
    );
    analysis
}

fn random_origins(seed: u64, n: usize, dim: usize) -> Vec<VecN> {
    let mut rng = rng_for(seed, 41);
    (0..n)
        .map(|_| {
            VecN::from(
                (0..dim)
                    .map(|_| rng.gen_range(-2.0..2.0f64))
                    .collect::<Vec<f64>>(),
            )
        })
        .collect()
}

/// ≥1k-origin batch sweeps at fault rates up to 20%: sequential and
/// parallel evaluation both return a classified verdict for every origin.
#[test]
fn chaos_batch_sweeps_return_a_verdict_for_every_origin() {
    let _guard = chaos_guard();
    let dim = 3;
    let analysis = mixed_analysis(7, dim);
    let plan = analysis
        .compile(&RadiusOptions::default())
        .expect("compiles");
    let origins = random_origins(7, 1_024, dim);
    let policy = ResiliencePolicy::default();

    for &rate in &[0.05, 0.2] {
        fepia::chaos::set_for_test(2003, rate);
        let seq = plan.verdict_batch(&origins, &ParConfig::with_threads(1), &policy);
        fepia::chaos::set_for_test(2003, rate);
        let par = plan.verdict_batch(&origins, &ParConfig::with_threads(4), &policy);
        fepia::chaos::clear();

        assert_eq!(seq.len(), origins.len());
        assert_eq!(par.len(), origins.len());
        for batch in [&seq, &par] {
            for (i, v) in batch.iter().enumerate() {
                assert_eq!(v.radii.len(), 3, "origin {i}: verdict covers all features");
                // Classified means every verdict carries usable bounds.
                assert!(
                    v.metric_lo >= 0.0 && !v.metric_lo.is_nan() && !v.metric_hi.is_nan(),
                    "origin {i} (rate {rate}): unclassified verdict {:?}",
                    v.kind
                );
            }
        }
        // The injection actually fired: at a 5%+ per-site rate over 1k
        // 3-component origins, some poisoned evaluations are certain.
        let non_exact = seq.iter().filter(|v| !v.is_exact()).count();
        assert!(non_exact > 0, "rate {rate}: chaos never fired");
    }
}

/// ≥1k delta moves with cached-state poisoning: `DeltaEval` self-heals and
/// reports a usable verdict after every move, then matches a clean rebuild
/// bitwise once chaos is off.
#[test]
fn chaos_delta_eval_self_heals_across_1k_moves() {
    let _guard = chaos_guard();
    let apps = 40;
    let machines = 6;
    let tau = 1.2;
    let etc = generate_cvb(
        &mut rng_for(11, 0),
        &EtcParams {
            apps,
            machines,
            ..EtcParams::paper_section_4_2()
        },
    );
    let start = Mapping::random(&mut rng_for(11, 1), apps, machines);
    let mut delta = DeltaEval::new(&etc, &start, tau);
    let mut mapping = start;

    fepia::chaos::set_for_test(77, 0.2);
    let mut rng = rng_for(11, 2);
    for step in 0..1_024 {
        let app = rng.gen_range(0..apps);
        let dst = rng.gen_range(0..machines);
        delta.apply(app, dst);
        mapping.reassign(app, dst);
        let v = delta.verdict();
        assert!(
            v.radius_bounds().is_some() || !delta.metric().is_nan(),
            "step {step}: delta state left unclassified after chaos"
        );
        assert!(
            !delta.metric().is_nan(),
            "step {step}: metric NaN survived heal"
        );
    }
    fepia::chaos::clear();

    // With chaos off the healed evaluator agrees bitwise with a rebuild.
    let clean = DeltaEval::new(&etc, &mapping, tau);
    assert_eq!(delta.metric().to_bits(), clean.metric().to_bits());
    assert_eq!(delta.makespan().to_bits(), clean.makespan().to_bits());
}

/// Chaos-seeded end-to-end `run_verdict` on the facade analysis: the
/// verdict is always classified, and repeating the same seed is
/// deterministic.
#[test]
fn chaos_run_verdict_is_classified_and_seed_deterministic() {
    let _guard = chaos_guard();
    let analysis = mixed_analysis(23, 4);
    let opts = RadiusOptions::default();
    let policy = ResiliencePolicy::default();

    fepia::chaos::set_for_test(5, 0.2);
    let first = analysis.run_verdict(&opts, &policy);
    fepia::chaos::set_for_test(5, 0.2);
    let second = analysis.run_verdict(&opts, &policy);
    fepia::chaos::clear();

    assert_eq!(first.kind, second.kind);
    assert_eq!(first.metric_lo.to_bits(), second.metric_lo.to_bits());
    assert_eq!(first.metric_hi.to_bits(), second.metric_hi.to_bits());
    assert!(!first.metric_lo.is_nan() && !first.metric_hi.is_nan());
}

proptest! {
    /// NaN/Inf/huge/degenerate origins fed straight into the verdict path:
    /// always a typed verdict, never a panic, and non-finite inputs are
    /// named as `Failed`.
    #[test]
    fn bad_origins_yield_typed_verdicts(seed in 0u64..60, bad_kind in 0usize..3) {
        let _guard = chaos_guard();
        let dim = 3;
        let analysis = mixed_analysis(seed, dim);
        let plan = analysis.compile(&RadiusOptions::default()).expect("compiles");
        let policy = ResiliencePolicy::default();

        let mut rng = rng_for(seed, 42);
        let bad_value = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][bad_kind];
        let mut origin: Vec<f64> = (0..dim).map(|_| rng.gen_range(-2.0..2.0f64)).collect();
        let idx = rng.gen_range(0..dim);
        origin[idx] = bad_value;

        let mut ws = PlanWorkspace::new();
        let v = plan.verdict(&VecN::from(origin), &mut ws, &policy, EvalBudget::UNLIMITED, None);
        prop_assert_eq!(v.kind, VerdictKind::Failed);
        prop_assert_eq!(v.metric_lo, 0.0);

        // Degenerate (zero-width) tolerance stays a classified exact zero.
        let mut degenerate = FepiaAnalysis::new(
            Perturbation::continuous("pi", VecN::from([1.0, 1.0, 1.0])),
        );
        degenerate.add_feature(
            FeatureSpec::new("pinned", Tolerance::new(3.0, 3.0).unwrap()),
            FnImpact::new(|v: &VecN| v.iter().sum()).with_dim(3),
        );
        let dv = degenerate.run_verdict(&RadiusOptions::default(), &policy);
        prop_assert!(dv.is_exact());
        prop_assert_eq!(dv.metric_estimate(), 0.0);
    }

    /// With `FEPIA_CHAOS` unset the verdict path is **bitwise** identical
    /// to the exact PR 2 evaluation path on clean random systems.
    #[test]
    fn disabled_chaos_is_bitwise_identical_to_exact_path(seed in 0u64..40) {
        let _guard = chaos_guard();
        prop_assert!(!fepia::chaos::enabled());
        let dim = 3;
        let analysis = mixed_analysis(seed, dim);
        let plan = analysis.compile(&RadiusOptions::default()).expect("compiles");
        let policy = ResiliencePolicy::default();

        for origin in random_origins(seed, 8, dim) {
            let mut ws = PlanWorkspace::new();
            let exact = plan.evaluate(&origin, &mut ws).expect("clean system evaluates");
            let verdict = plan.verdict(&origin, &mut ws, &policy, EvalBudget::UNLIMITED, None);
            // Clean inputs never degrade: the kind is Exact (or Infeasible
            // when a tolerance is violated at this origin, radius exactly 0).
            prop_assert!(verdict.is_exact());
            prop_assert_eq!(
                verdict.metric_hi.to_bits(),
                exact.metric.to_bits(),
                "seed {}: metric bits diverged", seed
            );
            for (k, rv) in verdict.radii.iter().enumerate() {
                let (lo, hi) = rv.radius_bounds().expect("clean verdicts certify");
                prop_assert_eq!(lo.to_bits(), hi.to_bits());
                prop_assert_eq!(
                    hi.to_bits(),
                    exact.radii[k].to_bits(),
                    "seed {}: radius {} bits diverged", seed, k
                );
            }
        }
    }
}
