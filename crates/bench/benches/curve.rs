//! Degradation-curve throughput: the amortization gate.
//!
//! A `Curve` request answers N tolerance levels off *one* compiled plan —
//! one compilation, one warm workspace, N tolerance swaps — where the
//! naive client would issue N single-τ `Verdict` requests, each paying a
//! full scenario compile. Two figures are recorded and gated:
//!
//! * **curve points/sec** — τ levels answered per second by repeated
//!   warm-cache `Curve` requests (33-level dense grid) against a running
//!   service;
//! * **warm-vs-cold amortization ratio** — curve points/sec divided by
//!   the points/sec of the equivalent per-level single-τ `Verdict`
//!   stream, where every level is a fresh scenario fingerprint and
//!   therefore a fresh compile (the pre-curve serving cost). The bar is
//!   2x; the curve path shares the compile and the affine bracketing, so
//!   anything lower means the sweep engine lost its reason to exist.
//!
//! Results go to `results/BENCH_curve.json` (`$FEPIA_RESULTS` honored)
//! and are gated by `scripts/check_bench.sh` against the checked-in
//! thresholds. Under `cargo test` (`--test` flag) a quick pass checks the
//! plumbing and skips the bars.

use fepia_bench::outdir::results_dir;
use fepia_core::dense_grid;
use fepia_serve::workload::{scenario_pool, WorkloadSpec};
use fepia_serve::{
    CacheOutcome, CurveGrid, CurveSpec, EvalKind, EvalRequest, Scenario, Service, ServiceConfig,
};
use std::sync::Arc;
use std::time::Instant;

const CURVE_POINTS_BAR: f64 = 50_000.0;
const AMORTIZATION_BAR: f64 = 2.0;

fn bench_spec() -> WorkloadSpec {
    WorkloadSpec {
        seed: 9_009,
        scenarios: 4,
        apps: 64,
        machines: 8,
        ..WorkloadSpec::default()
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--test");
    let spec = bench_spec();
    let pool = scenario_pool(&spec);
    // Depth-5 dense dyadic grid: 33 τ levels per curve request.
    let levels = dense_grid(1.0, 3.0, 5);
    let (warm_sweeps, cold_sweeps): (u64, u64) = if quick { (4, 2) } else { (400, 40) };

    let service = Service::start(ServiceConfig {
        shards: 1,
        workers_per_shard: 1,
        cache_capacity: 64,
        ..ServiceConfig::default()
    });
    let curve_req = |id: u64, s: usize| EvalRequest {
        id,
        scenario: Arc::clone(&pool[s]),
        kind: EvalKind::Curve(CurveSpec {
            grid: CurveGrid::Explicit(levels.clone()),
        }),
    };

    // Populate the plan cache so the curve phase measures the warm path.
    for s in 0..pool.len() {
        let resp = service
            .call(curve_req(s as u64, s))
            .expect("warmup accepted");
        assert_eq!(resp.verdicts.len(), levels.len());
    }

    // Warm: repeated curve requests, every one a plan-cache hit.
    let t0 = Instant::now();
    for i in 0..warm_sweeps {
        let resp = service
            .call(curve_req(1_000 + i, (i as usize) % pool.len()))
            .expect("warm curve accepted");
        assert_eq!(resp.cache, Some(CacheOutcome::Hit), "warm phase must hit");
        assert_eq!(resp.verdicts.len(), levels.len());
    }
    let warm_elapsed = t0.elapsed().as_secs_f64();
    let warm_points = warm_sweeps * levels.len() as u64;
    let curve_points_per_sec = warm_points as f64 / warm_elapsed;

    // Cold: the same τ levels as independent single-τ Verdict requests.
    // Each level is a distinct scenario fingerprint (τ jittered per sweep
    // so no sweep revisits a cached plan) — every point pays the compile
    // a curve request pays once.
    let base = &pool[0];
    let t0 = Instant::now();
    for i in 0..cold_sweeps {
        for (k, &tau) in levels.iter().enumerate() {
            let solo = Arc::new(
                Scenario::new(
                    Arc::clone(base.etc()),
                    base.mapping().clone(),
                    tau + 1e-7 * (i as f64 + 1.0),
                    base.opts().clone(),
                )
                .expect("jittered tau stays valid"),
            );
            let resp = service
                .call(EvalRequest {
                    id: 100_000 + i * levels.len() as u64 + k as u64,
                    scenario: solo,
                    kind: EvalKind::Verdict,
                })
                .expect("cold verdict accepted");
            assert_eq!(
                resp.cache,
                Some(CacheOutcome::Compiled),
                "cold phase must compile every point"
            );
        }
    }
    let cold_elapsed = t0.elapsed().as_secs_f64();
    let cold_points = cold_sweeps * levels.len() as u64;
    let cold_points_per_sec = cold_points as f64 / cold_elapsed;
    let amortization = curve_points_per_sec / cold_points_per_sec;

    service.shutdown();

    println!(
        "curve ({} levels, {} apps x {} machines):",
        levels.len(),
        spec.apps,
        spec.machines
    );
    println!(
        "  warm: {warm_points} points in {warm_elapsed:.3} s -> {curve_points_per_sec:.0} \
         points/sec (bar: >= {CURVE_POINTS_BAR})"
    );
    println!(
        "  cold: {cold_points} points in {cold_elapsed:.3} s -> {cold_points_per_sec:.0} \
         points/sec (one compile per point)"
    );
    println!("  amortization ratio: {amortization:.2}x (bar: >= {AMORTIZATION_BAR})");

    if quick {
        assert!(amortization.is_finite() && amortization > 0.0);
        println!("quick mode: plumbing checked, throughput bars skipped");
        return;
    }

    let json = format!(
        "{{\n  \"bench\": \"curve\",\n  \"levels\": {},\n  \"apps\": {},\n  \"machines\": {},\n  \"warm_sweeps\": {warm_sweeps},\n  \"cold_sweeps\": {cold_sweeps},\n  \"curve_points_per_sec\": {curve_points_per_sec:.0},\n  \"cold_points_per_sec\": {cold_points_per_sec:.0},\n  \"warm_cold_ratio\": {amortization:.2},\n  \"curve_points_threshold\": {CURVE_POINTS_BAR:.1},\n  \"amortization_threshold\": {AMORTIZATION_BAR:.1}\n}}\n",
        levels.len(),
        spec.apps,
        spec.machines,
    );
    let path = results_dir().join("BENCH_curve.json");
    std::fs::write(&path, json).expect("write BENCH_curve.json");
    println!("wrote {}", path.display());

    assert!(
        curve_points_per_sec >= CURVE_POINTS_BAR,
        "curve throughput regressed: {curve_points_per_sec:.0} < {CURVE_POINTS_BAR} points/sec"
    );
    assert!(
        amortization >= AMORTIZATION_BAR,
        "curve amortization regressed: {amortization:.2}x < {AMORTIZATION_BAR}x"
    );
}
