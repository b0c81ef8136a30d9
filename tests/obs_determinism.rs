//! Observability must never perturb results: with metrics, spans and a
//! JSONL event sink all active, the parallel sweeps have to produce
//! bitwise-identical numbers for any thread count — and identical to the
//! fully-disabled sequential run. Also pins the JSON-lines event schema.

use fepia_core::{
    robustness_radius, AnalysisPlan, FeatureSpec, FepiaAnalysis, FnImpact, LinearImpact,
    Perturbation, RadiusOptions, Tolerance,
};
use fepia_etc::{generate_cvb, EtcParams};
use fepia_mapping::{DeltaEval, Mapping};
use fepia_optim::VecN;
use fepia_par::{par_map, par_map_dynamic, ParConfig};
use fepia_stats::rng_for;
use rand::Rng;
use std::sync::{Arc, Mutex, OnceLock};

/// The obs layer is process-global; serialize the tests that toggle it.
fn obs_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default)
        .lock()
        .expect("obs test lock")
}

/// One numerically-solved robustness radius per item, seeded from the item
/// index — the same shape as the paper sweeps.
fn radius_for_item(i: usize) -> f64 {
    let mut rng = rng_for(0xFE91A, i as u64);
    let origin = VecN::from([rng.gen_range(-0.5..0.5f64), rng.gen_range(-0.5..0.5f64)]);
    let scale = rng.gen_range(1.0..3.0f64);
    let impact = FnImpact::new(move |v: &VecN| scale * v.dot(v)).with_dim(2);
    let pert = Perturbation::continuous("p", origin);
    let feature = FeatureSpec::new("f", Tolerance::upper(10.0));
    robustness_radius(&feature, &impact, &pert, &RadiusOptions::default())
        .expect("radius solve")
        .radius
}

#[test]
fn sweep_is_bitwise_identical_across_thread_counts_with_obs_on() {
    let _guard = obs_lock();
    let items: Vec<usize> = (0..48).collect();

    // Reference: obs fully disabled, sequential.
    fepia_obs::set_enabled(false);
    fepia_obs::set_events_enabled(false);
    let reference: Vec<u64> = items
        .iter()
        .map(|&i| radius_for_item(i).to_bits())
        .collect();

    // Everything on: metrics + spans + a real JSONL file sink.
    let dir = std::env::temp_dir().join("fepia-obs-determinism");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("events.jsonl");
    let prev = fepia_obs::install_sink(Arc::new(
        fepia_obs::JsonlSink::create(&path).expect("jsonl sink"),
    ));
    fepia_obs::set_enabled(true);
    fepia_obs::set_events_enabled(true);

    for threads in [1, 2, 8] {
        let cfg = ParConfig::with_threads(threads);
        let stat: Vec<u64> = par_map(&items, &cfg, |_, &i| radius_for_item(i).to_bits());
        let dyn_: Vec<u64> = par_map_dynamic(&items, &cfg, |_, &i| radius_for_item(i).to_bits());
        assert_eq!(stat, reference, "par_map diverged at {threads} threads");
        assert_eq!(
            dyn_, reference,
            "par_map_dynamic diverged at {threads} threads"
        );
    }

    fepia_obs::set_enabled(false);
    fepia_obs::set_events_enabled(false);
    fepia_obs::flush_sink();
    match prev {
        Some(prev) => {
            fepia_obs::install_sink(prev);
        }
        None => {
            fepia_obs::clear_sink();
        }
    }

    // The sink actually captured the run, one JSON object per line.
    let text = std::fs::read_to_string(&path).expect("events file");
    let lines: Vec<&str> = text.lines().collect();
    assert!(
        lines.len() >= items.len(),
        "expected at least one event per item, got {}",
        lines.len()
    );
    for line in &lines {
        assert!(
            line.starts_with(r#"{"schema":"fepia.event/v1","event":""#),
            "bad event line: {line}"
        );
        assert!(line.ends_with('}'), "unterminated event line: {line}");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn event_stream_matches_golden_schema() {
    let _guard = obs_lock();
    let sink = Arc::new(fepia_obs::VecSink::new());
    let prev = fepia_obs::install_sink(sink.clone());
    fepia_obs::set_enabled(true);
    fepia_obs::set_events_enabled(true);

    let impact = FnImpact::new(|v: &VecN| v.dot(v)).with_dim(2);
    let pert = Perturbation::continuous("p", VecN::zeros(2));
    let feature = FeatureSpec::new("mach1", Tolerance::upper(25.0));
    let r = robustness_radius(&feature, &impact, &pert, &RadiusOptions::default())
        .expect("radius solve");
    assert!((r.radius - 5.0).abs() < 1e-5);

    fepia_obs::set_enabled(false);
    fepia_obs::set_events_enabled(false);
    match prev {
        Some(prev) => {
            fepia_obs::install_sink(prev);
        }
        None => {
            fepia_obs::clear_sink();
        }
    }

    let lines = sink.lines();
    // One solver event and one radius event, in causal order.
    let solver = lines
        .iter()
        .find(|l| l.contains(r#""event":"solver.solve""#))
        .expect("solver.solve event emitted");
    for key in [
        "\"outcome\":",
        "\"radius\":",
        "\"iterations\":",
        "\"f_evals\":",
        "\"grad_evals\":",
    ] {
        assert!(solver.contains(key), "solver.solve missing {key}: {solver}");
    }
    let radius = lines
        .iter()
        .find(|l| l.contains(r#""event":"radius.computed""#))
        .expect("radius.computed event emitted");
    assert!(
        radius.contains(r#""feature":"mach1""#),
        "binding-feature identity missing: {radius}"
    );
    for key in [
        "\"method\":\"numeric\"",
        "\"bound\":\"max\"",
        "\"violated\":false",
    ] {
        assert!(
            radius.contains(key),
            "radius.computed missing {key}: {radius}"
        );
    }
}

/// One compiled plan (affine + numeric feature) over a seeded batch of
/// origins — the compiled analogue of `radius_for_item`.
fn batch_plan_and_origins() -> (Arc<AnalysisPlan>, Vec<VecN>) {
    let mut analysis = FepiaAnalysis::new(Perturbation::continuous("p", VecN::zeros(2)));
    analysis.add_feature(
        FeatureSpec::new("aff", Tolerance::upper(4.0)),
        LinearImpact::new(VecN::from([1.0, 2.0]), 0.5),
    );
    analysis.add_feature(
        FeatureSpec::new("num", Tolerance::upper(10.0)),
        FnImpact::new(|v: &VecN| v.dot(v)).with_dim(2),
    );
    let plan = analysis
        .compile(&RadiusOptions::default())
        .expect("compiles");
    let origins = (0..48)
        .map(|i| {
            let mut rng = rng_for(0xBA7C4, i);
            VecN::from([rng.gen_range(-0.5..0.5f64), rng.gen_range(-0.5..0.5f64)])
        })
        .collect();
    (plan, origins)
}

/// A seeded 60-move DeltaEval walk; returns the metric bits after each
/// move. The evaluator is dropped before returning, so its `plan.delta.*`
/// counters flush while the caller's obs state is still in effect.
fn delta_walk_metric_bits() -> Vec<u64> {
    let params = EtcParams::paper_section_4_2();
    let etc = generate_cvb(&mut rng_for(0xDE17A, 0), &params);
    let start = Mapping::random(&mut rng_for(0xDE17A, 1), params.apps, params.machines);
    let mut rng = rng_for(0xDE17A, 2);
    let mut delta = DeltaEval::new(&etc, &start, 1.2);
    (0..60)
        .map(|_| {
            let app = rng.gen_range(0..params.apps);
            let dst = rng.gen_range(0..params.machines);
            delta.apply(app, dst);
            delta.metric().to_bits()
        })
        .collect()
}

#[test]
fn compiled_batch_and_delta_are_deterministic_under_obs() {
    let _guard = obs_lock();

    // Reference: obs fully disabled, sequential batch + delta walk.
    fepia_obs::set_enabled(false);
    fepia_obs::set_events_enabled(false);
    let (plan, origins) = batch_plan_and_origins();
    let reference: Vec<u64> = plan
        .evaluate_batch(&origins, &ParConfig::with_threads(1))
        .expect("batch evaluates")
        .iter()
        .map(|e| e.metric.to_bits())
        .collect();
    let delta_reference = delta_walk_metric_bits();

    // Everything on: metrics + spans + a real JSONL file sink.
    let dir = std::env::temp_dir().join("fepia-obs-plan-determinism");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("events.jsonl");
    let prev = fepia_obs::install_sink(Arc::new(
        fepia_obs::JsonlSink::create(&path).expect("jsonl sink"),
    ));
    fepia_obs::set_enabled(true);
    fepia_obs::set_events_enabled(true);

    // Recompiling through the analysis cache counts a hit while obs is on.
    let (plan_obs, _) = batch_plan_and_origins();
    for threads in [1, 2, 8] {
        let cfg = ParConfig::with_threads(threads);
        let par_bits: Vec<u64> = plan_obs
            .evaluate_batch(&origins, &cfg)
            .expect("parallel batch evaluates")
            .iter()
            .map(|e| e.metric.to_bits())
            .collect();
        assert_eq!(
            par_bits, reference,
            "evaluate_batch_par diverged at {threads} threads"
        );
    }
    let delta_obs = delta_walk_metric_bits();
    assert_eq!(delta_obs, delta_reference, "DeltaEval diverged under obs");

    fepia_obs::set_enabled(false);
    fepia_obs::set_events_enabled(false);
    fepia_obs::flush_sink();
    match prev {
        Some(prev) => {
            fepia_obs::install_sink(prev);
        }
        None => {
            fepia_obs::clear_sink();
        }
    }

    // The plan.* counters recorded the compiled-path work.
    let snap = fepia_obs::global().snapshot();
    assert!(snap.counter("plan.compiles").unwrap_or(0) >= 1);
    assert!(
        snap.counter("plan.eval.batch.items").unwrap_or(0) >= 3 * origins.len() as u64,
        "batch item counter missing the three sweeps"
    );
    // 60 random moves, minus the ~1/5 that are no-ops (app already on the
    // drawn machine) and skip the counter.
    assert!(
        snap.counter("plan.delta.moves").unwrap_or(0) >= 30,
        "DeltaEval drop did not flush its move counter"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn metrics_snapshot_reports_solver_and_par_counters() {
    let _guard = obs_lock();
    fepia_obs::set_enabled(true);
    let items: Vec<usize> = (0..40).collect();
    let _ = par_map_dynamic(&items, &ParConfig::with_threads(4), |_, &i| {
        radius_for_item(i)
    });
    fepia_obs::set_enabled(false);

    let snap = fepia_obs::global().snapshot();
    assert!(snap.counter("optim.solver.calls").unwrap_or(0) > 0);
    assert!(snap.counter("core.radius.dispatch.numeric").unwrap_or(0) > 0);
    assert!(snap.counter("par.dynamic.items").unwrap_or(0) >= items.len() as u64);
    let json = snap.to_json();
    assert!(json.starts_with(r#"{"schema":"fepia.metrics/v1""#));
}
