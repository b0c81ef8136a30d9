//! Proof that the fepia-chaos disabled path is free (PR 3 acceptance).
//!
//! The acceptance bar is "< 2% overhead on the verdict evaluation path with
//! `FEPIA_CHAOS` unset". Like `obs_overhead`, the bench bounds the overhead
//! from above: it measures (a) one full numeric `AnalysisPlan::verdict` solve
//! with chaos disabled and (b) the disabled-path cost of the chaos
//! primitives themselves (`enabled()` plus an inert `poison_f64`), then
//! charges a generous 32 primitive operations per evaluation (far more
//! sites than any single verdict actually crosses). The bound must come out
//! below 2%. The exact (PR 2) path is timed alongside as an informational
//! end-to-end comparison and recorded in `BENCH_chaos.json`.
//!
//! Custom harness (`harness = false`): run with
//! `cargo bench --bench chaos_overhead`; under `cargo test` (`--test` flag)
//! it does one quick pass with the same assertion.

use fepia_bench::outdir::results_dir;
use fepia_core::{
    AnalysisPlan, EvalBudget, FeatureSpec, FepiaAnalysis, FnImpact, Perturbation, PlanWorkspace,
    RadiusOptions, ResiliencePolicy, Tolerance,
};
use fepia_optim::VecN;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

fn plan() -> Arc<AnalysisPlan> {
    let mut analysis =
        FepiaAnalysis::new(Perturbation::continuous("p", VecN::from([0.1, -0.2, 0.3])));
    analysis.add_feature(
        FeatureSpec::new("f", Tolerance::upper(9.0)),
        FnImpact::new(|v: &VecN| v.dot(v) + (v[0] * v[1]).tanh()).with_dim(3),
    );
    analysis
        .compile(&RadiusOptions::default())
        .expect("compiles")
}

/// Median of per-call nanoseconds over `samples` batches of `batch` calls.
fn time_ns<F: FnMut()>(mut f: F, batch: u64, samples: usize) -> f64 {
    let mut xs = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        xs.push(t0.elapsed().as_nanos() as f64 / batch as f64);
    }
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
}

fn main() {
    let quick = std::env::args().any(|a| a == "--test");
    assert!(
        !fepia_chaos::enabled(),
        "chaos must be disabled for the overhead bound (unset FEPIA_CHAOS)"
    );

    let (solve_batch, solve_samples, prim_batch) = if quick {
        (1, 5, 10_000)
    } else {
        (4, 25, 1_000_000)
    };

    let plan = plan();
    let origin = VecN::from([0.1, -0.2, 0.3]);
    let policy = ResiliencePolicy::default();

    // Warm-up.
    black_box(plan.verdict(
        &origin,
        &mut PlanWorkspace::new(),
        &policy,
        EvalBudget::UNLIMITED,
        None,
    ));

    let verdict_ns = time_ns(
        || {
            black_box(plan.verdict(
                &origin,
                &mut PlanWorkspace::new(),
                &policy,
                EvalBudget::UNLIMITED,
                None,
            ));
        },
        solve_batch,
        solve_samples,
    );
    let exact_ns = time_ns(
        || {
            black_box(
                plan.evaluate(&origin, &mut PlanWorkspace::new())
                    .expect("evaluates"),
            );
        },
        solve_batch,
        solve_samples,
    );

    // The complete disabled-path footprint of one chaos site: an `enabled()`
    // load plus an inert value-poisoning hook.
    let prim_ns = time_ns(
        || {
            black_box(fepia_chaos::enabled());
            black_box(fepia_chaos::poison_f64("bench.noop", 1.0));
        },
        prim_batch,
        15,
    );

    const PRIMITIVES_PER_EVAL: f64 = 32.0; // real count per verdict is far lower
    let overhead_pct = 100.0 * PRIMITIVES_PER_EVAL * prim_ns / verdict_ns;
    println!("verdict (chaos disabled):           {verdict_ns:.0} ns/origin");
    println!("evaluate (exact PR 2 path):         {exact_ns:.0} ns/origin");
    println!("disabled chaos primitive:           {prim_ns:.2} ns");
    println!(
        "bounded overhead: {PRIMITIVES_PER_EVAL} x {prim_ns:.2} ns = {overhead_pct:.4}% of an evaluation"
    );

    if !quick {
        let json = format!(
            "{{\n  \"bench\": \"chaos_overhead\",\n  \"verdict_ns_per_origin\": {verdict_ns:.1},\n  \"exact_ns_per_origin\": {exact_ns:.1},\n  \"disabled_primitive_ns\": {prim_ns:.3},\n  \"primitives_charged_per_eval\": {PRIMITIVES_PER_EVAL},\n  \"bounded_overhead_pct\": {overhead_pct:.4},\n  \"threshold_pct\": 2.0\n}}\n"
        );
        let path = results_dir().join("BENCH_chaos.json");
        std::fs::write(&path, json).expect("write BENCH_chaos.json");
        println!("wrote {}", path.display());
    }
    assert!(
        overhead_pct < 2.0,
        "disabled-path chaos overhead bound {overhead_pct:.3}% exceeds the 2% budget"
    );
    println!("OK: disabled-path chaos overhead bound is below 2%");
}
