//! Property tests for the compiled-plan layer (PR 2 acceptance):
//!
//! * [`fepia::core::AnalysisPlan`] radii match the legacy per-feature
//!   `robustness_radius` path within 1e-12 on random mixed
//!   affine + numeric systems (the affine slots are in fact bitwise);
//! * [`fepia::mapping::DeltaEval`] stays **bitwise** identical to a full
//!   `makespan_robustness` recomputation after an arbitrary move sequence.

use fepia::core::{
    robustness_radius, FeatureSpec, FepiaAnalysis, FnImpact, LinearImpact, Perturbation,
    PlanWorkspace, RadiusOptions, Tolerance,
};
use fepia::etc::{generate_cvb, EtcParams};
use fepia::mapping::{makespan_robustness, DeltaEval, Mapping};
use fepia::optim::VecN;
use fepia::stats::rng_for;
use proptest::prelude::*;
use rand::Rng;

/// A random mixed system: `n_affine` random affine features plus one
/// quadratic numeric feature, all over a random origin of dimension `dim`.
struct RandomSystem {
    origin: VecN,
    affine: Vec<(FeatureSpec, LinearImpact)>,
    numeric_spec: FeatureSpec,
    numeric_scale: f64,
}

fn random_system(seed: u64) -> RandomSystem {
    let mut rng = rng_for(seed, 0);
    let dim = rng.gen_range(2..6usize);
    let n_affine = rng.gen_range(1..6usize);
    let origin = VecN::from(
        (0..dim)
            .map(|_| rng.gen_range(-2.0..2.0f64))
            .collect::<Vec<f64>>(),
    );
    let affine = (0..n_affine)
        .map(|k| {
            let coeffs: Vec<f64> = (0..dim).map(|_| rng.gen_range(-3.0..3.0f64)).collect();
            let constant = rng.gen_range(-1.0..1.0f64);
            // Mix of comfortable, tight and already-violated tolerances.
            let beta = rng.gen_range(-2.0..8.0f64);
            (
                FeatureSpec::new(format!("affine_{k}"), Tolerance::upper(beta)),
                LinearImpact::new(VecN::from(coeffs), constant),
            )
        })
        .collect();
    let numeric_scale = rng.gen_range(0.5..2.0f64);
    let numeric_spec = FeatureSpec::new("numeric", Tolerance::upper(rng.gen_range(5.0..30.0f64)));
    RandomSystem {
        origin,
        affine,
        numeric_spec,
        numeric_scale,
    }
}

fn numeric_impact(sys: &RandomSystem) -> FnImpact {
    let scale = sys.numeric_scale;
    FnImpact::new(move |v: &VecN| scale * v.dot(v)).with_dim(sys.origin.dim())
}

proptest! {
    /// Plan radii == legacy per-feature `robustness_radius` radii, within
    /// 1e-12 (affine slots bitwise, numeric slots shared-code identical).
    #[test]
    fn plan_matches_legacy_per_feature_path(seed in 0u64..200) {
        let sys = random_system(seed);
        let opts = RadiusOptions::default();
        let pert = Perturbation::continuous("pi", sys.origin.clone());

        let mut analysis = FepiaAnalysis::new(pert.clone());
        for (spec, impact) in &sys.affine {
            analysis.add_feature(spec.clone(), impact.clone());
        }
        analysis.add_feature(sys.numeric_spec.clone(), numeric_impact(&sys));
        let plan = analysis.compile(&opts).expect("compiles");
        let evaluation = plan.evaluate(&sys.origin, &mut PlanWorkspace::new()).expect("evaluates");

        let mut legacy = Vec::new();
        for (spec, impact) in &sys.affine {
            legacy.push(robustness_radius(spec, impact, &pert, &opts).expect("radius").radius);
        }
        legacy.push(
            robustness_radius(&sys.numeric_spec, &numeric_impact(&sys), &pert, &opts)
                .expect("radius")
                .radius,
        );

        prop_assert_eq!(evaluation.radii.len(), legacy.len());
        for (k, (&plan_r, &legacy_r)) in evaluation.radii.iter().zip(legacy.iter()).enumerate() {
            if plan_r.is_finite() || legacy_r.is_finite() {
                prop_assert!(
                    (plan_r - legacy_r).abs() <= 1e-12,
                    "seed {}: feature {} plan {} vs legacy {}", seed, k, plan_r, legacy_r
                );
            } else {
                prop_assert_eq!(plan_r, legacy_r);
            }
        }
        let legacy_metric = legacy.iter().cloned().fold(f64::INFINITY, f64::min);
        if evaluation.metric.is_finite() || legacy_metric.is_finite() {
            prop_assert!((evaluation.metric - legacy_metric).abs() <= 1e-12);
        }
    }

    /// After any random move sequence, `DeltaEval` agrees **bitwise** with
    /// a from-scratch `makespan_robustness` at every step: makespan,
    /// every per-machine radius, the metric, and the binding machine.
    #[test]
    fn delta_eval_matches_full_recompute_bitwise(seed in 0u64..150) {
        let mut rng = rng_for(seed, 1);
        let apps = rng.gen_range(5..20usize);
        let machines = rng.gen_range(2..6usize);
        let tau = 1.0 + rng.gen_range(0.0..1.0f64);
        let etc = generate_cvb(
            &mut rng_for(seed, 2),
            &EtcParams { apps, machines, ..EtcParams::paper_section_4_2() },
        );
        let start = Mapping::random(&mut rng_for(seed, 3), apps, machines);

        let mut delta = DeltaEval::new(&etc, &start, tau);
        let mut mapping = start;
        for step in 0..30 {
            let app = rng.gen_range(0..apps);
            let dst = rng.gen_range(0..machines);
            delta.apply(app, dst);
            mapping.reassign(app, dst);

            let full = makespan_robustness(&mapping, &etc, tau).expect("valid instance");
            prop_assert_eq!(
                delta.makespan().to_bits(), full.makespan.to_bits(),
                "seed {} step {}: makespan bits diverged", seed, step
            );
            prop_assert_eq!(
                delta.metric().to_bits(), full.metric.to_bits(),
                "seed {} step {}: metric bits diverged", seed, step
            );
            prop_assert_eq!(delta.binding_machine(), full.binding_machine);
            for (j, (&dr, &fr)) in delta.radii().iter().zip(full.radii.iter()).enumerate() {
                prop_assert_eq!(
                    dr.to_bits(), fr.to_bits(),
                    "seed {} step {} machine {}: radius bits diverged", seed, step, j
                );
            }
        }
    }
}
