//! Compiled-plan speedup: delta-vs-full move evaluation and batched
//! evaluation vs per-item compile.
//!
//! Two scenarios back the Performance section of the README:
//!
//! 1. **Move evaluation** (§3.1 local search): a sequence of single-app
//!    reassignments is costed with [`fepia_mapping::DeltaEval::apply`]
//!    (O(2 machines) incremental update) vs the legacy path of calling
//!    [`fepia_mapping::makespan_robustness`] from scratch after every move.
//!    Final metrics are asserted bitwise identical before timing counts.
//!    Acceptance bar: ≥ 5× speedup.
//!
//! 2. **Batched sweeps**: a fixed affine feature set is evaluated at many
//!    perturbed origins via a single [`fepia_core::AnalysisPlan`] +
//!    `evaluate_batch`, vs rebuilding a `FepiaAnalysis` (and therefore
//!    recompiling the plan) for every origin. Metrics asserted bitwise
//!    identical. Acceptance bar: ≥ 1.5× speedup.
//!
//! Results are written to `results/BENCH_plan.json` (`$FEPIA_RESULTS`
//! honored). Custom harness (`harness = false`): full run via
//! `cargo bench --bench plan_speedup`; under `cargo test` (`--test` flag)
//! a quick pass checks the bitwise equivalences and skips the speedup
//! assertions (timings are too short to be stable).

use fepia_bench::outdir::results_dir;
use fepia_core::{
    FeatureSpec, FepiaAnalysis, LinearImpact, Perturbation, RadiusOptions, Tolerance,
};
use fepia_etc::{generate_cvb, EtcParams};
use fepia_mapping::{makespan_robustness, DeltaEval, Mapping};
use fepia_optim::VecN;
use fepia_par::ParConfig;
use fepia_stats::rng_for;
use rand::Rng;
use std::hint::black_box;
use std::time::Instant;

/// Median of per-iteration nanoseconds over `samples` runs of `f`, where
/// `f` reports how many work items one run covered.
fn time_ns_per_item<F: FnMut() -> usize>(mut f: F, samples: usize) -> f64 {
    let mut xs = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t0 = Instant::now();
        let items = f();
        xs.push(t0.elapsed().as_nanos() as f64 / items as f64);
    }
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    xs[xs.len() / 2]
}

/// Scenario 1: DeltaEval incremental move costing vs full re-analysis.
fn move_eval(quick: bool) -> (f64, f64) {
    let apps = 128;
    let machines = 16;
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
    let n_moves = if quick { 200 } else { 5_000 };
    let moves: Vec<(usize, usize)> = {
        let mut rng = rng_for(11, 2);
        (0..n_moves)
            .map(|_| (rng.gen_range(0..apps), rng.gen_range(0..machines)))
            .collect()
    };

    // Correctness first: the incremental metric must track the full
    // recomputation bitwise over the whole move sequence.
    let mut delta = DeltaEval::new(&etc, &start, tau);
    let mut legacy = start.clone();
    for &(app, dst) in &moves {
        delta.apply(app, dst);
        legacy.reassign(app, dst);
    }
    let full = makespan_robustness(&legacy, &etc, tau).expect("valid instance");
    assert_eq!(
        delta.metric().to_bits(),
        full.metric.to_bits(),
        "incremental metric drifted from the full analysis"
    );

    let samples = if quick { 3 } else { 15 };
    let legacy_ns = time_ns_per_item(
        || {
            let mut m = start.clone();
            let mut acc = 0.0;
            for &(app, dst) in &moves {
                m.reassign(app, dst);
                acc += makespan_robustness(&m, &etc, tau)
                    .expect("valid instance")
                    .metric;
            }
            black_box(acc);
            moves.len()
        },
        samples,
    );
    let delta_ns = time_ns_per_item(
        || {
            let mut d = DeltaEval::new(&etc, &start, tau);
            let mut acc = 0.0;
            for &(app, dst) in &moves {
                d.apply(app, dst);
                acc += d.metric();
            }
            black_box(acc);
            moves.len()
        },
        samples,
    );
    (legacy_ns, delta_ns)
}

fn affine_features(dim: usize, n: usize) -> Vec<(FeatureSpec, LinearImpact)> {
    let mut rng = rng_for(23, 0);
    (0..n)
        .map(|k| {
            let coeffs: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1.0..1.0f64)).collect();
            let c = rng.gen_range(0.0..0.5f64);
            (
                FeatureSpec::new(format!("phi_{k}"), Tolerance::upper(50.0 + k as f64)),
                LinearImpact::new(VecN::from(coeffs), c),
            )
        })
        .collect()
}

/// Scenario 2: one compiled plan over a batch of origins vs a fresh
/// analysis (compile included) per origin.
fn batch_eval(quick: bool) -> (f64, f64) {
    let dim = 16;
    let n_features = 32;
    let n_origins = if quick { 32 } else { 512 };
    let features = affine_features(dim, n_features);
    let origins: Vec<VecN> = {
        let mut rng = rng_for(23, 1);
        (0..n_origins)
            .map(|_| {
                VecN::from(
                    (0..dim)
                        .map(|_| rng.gen_range(-2.0..2.0f64))
                        .collect::<Vec<f64>>(),
                )
            })
            .collect()
    };
    let opts = RadiusOptions::default();

    let fresh_analysis = |origin: &VecN| {
        let mut analysis = FepiaAnalysis::new(Perturbation::continuous("pi", origin.clone()));
        for (spec, impact) in &features {
            analysis.add_feature(spec.clone(), impact.clone());
        }
        analysis
    };

    // Correctness first: batched plan metrics == per-item compile metrics,
    // bitwise.
    let plan = fresh_analysis(&origins[0])
        .compile(&opts)
        .expect("compiles");
    let batched = plan
        .evaluate_batch(&origins, &ParConfig::with_threads(1))
        .expect("evaluates");
    for (origin, evaluation) in origins.iter().zip(&batched) {
        let report = fresh_analysis(origin).run(&opts).expect("runs");
        assert_eq!(
            evaluation.metric.to_bits(),
            report.metric.to_bits(),
            "batched metric differs from the per-item path"
        );
    }

    let samples = if quick { 3 } else { 15 };
    let per_item_ns = time_ns_per_item(
        || {
            let mut acc = 0.0;
            for origin in &origins {
                acc += fresh_analysis(origin).run(&opts).expect("runs").metric;
            }
            black_box(acc);
            origins.len()
        },
        samples,
    );
    let batch_ns = time_ns_per_item(
        || {
            let plan = fresh_analysis(&origins[0])
                .compile(&opts)
                .expect("compiles");
            let evaluations = plan
                .evaluate_batch(&origins, &ParConfig::with_threads(1))
                .expect("evaluates");
            black_box(&evaluations);
            origins.len()
        },
        samples,
    );
    (per_item_ns, batch_ns)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--test");

    let (legacy_ns, delta_ns) = move_eval(quick);
    let move_speedup = legacy_ns / delta_ns;
    println!("move evaluation (128 apps x 16 machines):");
    println!("  full makespan_robustness per move: {legacy_ns:>10.0} ns/move");
    println!("  DeltaEval::apply per move:         {delta_ns:>10.0} ns/move");
    println!("  speedup: {move_speedup:.1}x (bar: 5x)");

    let (per_item_ns, batch_ns) = batch_eval(quick);
    let batch_speedup = per_item_ns / batch_ns;
    println!("batched sweep (32 affine features, dim 16):");
    println!("  fresh analysis + compile per origin: {per_item_ns:>8.0} ns/origin");
    println!("  compile once + evaluate_batch:       {batch_ns:>8.0} ns/origin");
    println!("  speedup: {batch_speedup:.2}x (bar: 1.5x)");

    if !quick {
        let json = format!(
            "{{\n  \"bench\": \"plan_speedup\",\n  \"move_eval\": {{\n    \"apps\": 128,\n    \"machines\": 16,\n    \"legacy_ns_per_move\": {legacy_ns:.1},\n    \"delta_ns_per_move\": {delta_ns:.1},\n    \"speedup\": {move_speedup:.2},\n    \"threshold\": 5.0\n  }},\n  \"batch_eval\": {{\n    \"features\": 32,\n    \"dim\": 16,\n    \"per_item_ns_per_origin\": {per_item_ns:.1},\n    \"batch_ns_per_origin\": {batch_ns:.1},\n    \"speedup\": {batch_speedup:.2},\n    \"threshold\": 1.5\n  }}\n}}\n"
        );
        let path = results_dir().join("BENCH_plan.json");
        std::fs::write(&path, json).expect("write BENCH_plan.json");
        println!("wrote {}", path.display());
        assert!(
            move_speedup >= 5.0,
            "DeltaEval move-eval speedup {move_speedup:.2}x below the 5x bar"
        );
        assert!(
            batch_speedup >= 1.5,
            "batched sweep speedup {batch_speedup:.2}x below the 1.5x bar"
        );
        println!("OK: both speedup bars met");
    } else {
        println!("quick mode: bitwise equivalences checked, speedup bars skipped");
    }
}
