//! Differential oracle for degradation curves ρ(τ) (the curve tentpole).
//!
//! Every point of a served curve must be *bitwise identical* to an
//! independent single-τ evaluation: compile a fresh [`Scenario`] at that
//! exact τ, evaluate its verdict at the origin, compare every float by
//! bit pattern. The curve engine only swaps the tolerance vector per
//! level — it shares the dot products, dual norms and residuals of one
//! compiled plan — so there is no legitimate source of drift. The oracle
//! is enforced in every serving configuration:
//!
//! * **cold** — first request compiles the plan;
//! * **cached** — the repeat is a cache hit and must not change a bit;
//! * **over TCP** — the wire round-trip (v3 `Curve` frames) is compared
//!   on canonical `encode_response` bytes against an identically
//!   configured in-process service;
//! * **under chaos** (the fixed CI seed `2003:0.2`) — the chaos draw
//!   schedule is a pure function of the seed and per-site counters, and
//!   [`fepia::chaos::set_for_test`] resets those counters, so replaying
//!   the seed before the curve sweep and again before the per-level
//!   single-τ calls makes both consume the *same* poison sequence: the
//!   two runs must agree bitwise even on poisoned points.
//!
//! Plus the tentpole proptests: ρ(τ) never certifies a decrease as τ
//! loosens, and adaptive refinement only emits dense-grid levels and
//! only skips intervals it certified flat.
//!
//! Chaos state is process-global, so every test holds one lock.

use fepia::core::{dense_grid, EvalBudget, PlanVerdict, ResiliencePolicy};
use fepia::net::wire::encode_response;
use fepia::net::{ClientConfig, NetClient, NetServer, ServerConfig};
use fepia::serve::workload::{scenario_pool, verdicts_bitwise_equal, WorkloadSpec};
use fepia::serve::{
    CacheOutcome, CurveGrid, CurveSpec, Disposition, EvalKind, EvalRequest, Scenario, Service,
    ServiceConfig,
};
use proptest::prelude::*;
use std::sync::{Arc, Mutex, Once};

static CURVE_LOCK: Mutex<()> = Mutex::new(());

/// Serializes the tests (chaos is process-wide) with the panic hook
/// silencing intentional injected worker panics, chaos initially off.
fn guard() -> std::sync::MutexGuard<'static, ()> {
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
    let guard = CURVE_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    fepia::chaos::clear();
    guard
}

const LEVELS: [f64; 8] = [1.0, 1.05, 1.1, 1.2, 1.35, 1.5, 2.0, 3.0];

fn explicit_curve(scenario: &Arc<Scenario>, id: u64, levels: &[f64]) -> EvalRequest {
    EvalRequest {
        id,
        scenario: Arc::clone(scenario),
        kind: EvalKind::Curve(CurveSpec {
            grid: CurveGrid::Explicit(levels.to_vec()),
        }),
    }
}

/// Recompiles `scenario` at each level τ and evaluates one verdict per
/// level — the independent single-τ oracle the curve must match bitwise.
fn single_tau_truth(scenario: &Arc<Scenario>, levels: &[f64]) -> Vec<PlanVerdict> {
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
                .expect("curve levels are valid scenario taus"),
            );
            let compiled = solo.compile().expect("oracle scenario compiles");
            let mut ws = compiled.plan().workspace();
            compiled.verdict_at_origin_budgeted(&mut ws, &policy, EvalBudget::UNLIMITED)
        })
        .collect()
}

fn equivalence_config() -> ServiceConfig {
    ServiceConfig {
        shards: 2,
        workers_per_shard: 1,
        queue_capacity: 64,
        cache_capacity: 8,
        ..ServiceConfig::default()
    }
}

fn assert_taus_bitwise(meta: &fepia::serve::CurveMeta, levels: &[f64], context: &str) {
    assert_eq!(meta.taus.len(), levels.len(), "{context}: tau count");
    for (k, (served, requested)) in meta.taus.iter().zip(levels).enumerate() {
        assert_eq!(
            served.to_bits(),
            requested.to_bits(),
            "{context}: tau {k} drifted"
        );
    }
}

#[test]
fn curve_points_bitwise_equal_single_tau_oracle_cold_and_cached() {
    let _guard = guard();
    let spec = WorkloadSpec {
        seed: 6_001,
        ..WorkloadSpec::default()
    };
    let pool = scenario_pool(&spec);
    let service = Service::start(equivalence_config());

    for (s, scenario) in pool.iter().enumerate().take(4) {
        let truth = single_tau_truth(scenario, &LEVELS);
        let req = explicit_curve(scenario, s as u64, &LEVELS);

        let cold = service.call(req.clone()).expect("cold accepted");
        assert_eq!(
            cold.cache,
            Some(CacheOutcome::Compiled),
            "scenario {s}: first curve request must compile"
        );
        assert!(
            verdicts_bitwise_equal(&cold.verdicts, &truth),
            "scenario {s}: cold curve differs bitwise from single-τ oracle"
        );
        let meta = cold.curve.as_ref().expect("curve meta present");
        assert_taus_bitwise(meta, &LEVELS, "cold");
        assert!(
            meta.monotone,
            "scenario {s}: loosening an upper tolerance cannot certify a ρ decrease"
        );

        let cached = service.call(req).expect("cached accepted");
        assert_eq!(
            cached.cache,
            Some(CacheOutcome::Hit),
            "scenario {s}: repeat must hit the plan cache"
        );
        assert!(
            verdicts_bitwise_equal(&cached.verdicts, &cold.verdicts),
            "scenario {s}: cache hit changed a curve point"
        );
        assert_eq!(cached.curve, cold.curve, "scenario {s}: meta drifted");
    }
    service.shutdown();
}

#[test]
fn curves_over_tcp_bitwise_equal_in_process_and_oracle() {
    let _guard = guard();
    let spec = WorkloadSpec {
        seed: 6_002,
        ..WorkloadSpec::default()
    };
    let pool = scenario_pool(&spec);

    let reference = Service::start(equivalence_config());
    let served = Arc::new(Service::start(equivalence_config()));
    let server =
        NetServer::start(Arc::clone(&served), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = NetClient::connect(server.local_addr(), ClientConfig::default()).unwrap();

    for (s, scenario) in pool.iter().enumerate() {
        let req = explicit_curve(scenario, s as u64, &LEVELS);
        let expected = reference.call(req.clone()).expect("reference");
        let over_tcp = client.call(&req).expect("tcp curve succeeds chaos-off");
        assert_eq!(
            encode_response(&over_tcp),
            encode_response(&expected),
            "scenario {s}: TCP curve differs from in-process (bitwise)"
        );
        let truth = single_tau_truth(scenario, &LEVELS);
        assert!(
            verdicts_bitwise_equal(&over_tcp.verdicts, &truth),
            "scenario {s}: TCP curve differs bitwise from single-τ oracle"
        );
    }

    // Adaptive grids ride the same frames: wire the spec through and
    // compare the refined response byte-for-byte with in-process.
    let adaptive = EvalRequest {
        id: 99,
        scenario: Arc::clone(&pool[0]),
        kind: EvalKind::Curve(CurveSpec {
            grid: CurveGrid::Adaptive {
                tau_lo: 1.0,
                tau_hi: 2.5,
                max_depth: 5,
                rho_resolution: 1e-3,
            },
        }),
    };
    let expected = reference.call(adaptive.clone()).unwrap();
    let over_tcp = client.call(&adaptive).unwrap();
    assert_eq!(
        encode_response(&over_tcp),
        encode_response(&expected),
        "adaptive curve differs over TCP"
    );

    assert_eq!(client.reconnects(), 0, "chaos-off must not reconnect");
    let stats = server.shutdown();
    assert_eq!(stats.decode_errors + stats.overloaded + stats.invalid, 0);
    reference.shutdown();
    Arc::try_unwrap(served)
        .ok()
        .expect("server released its service handle")
        .shutdown();
}

/// The fixed CI chaos seed, replayed: `set_for_test` resets every
/// per-site draw counter, and both the curve sweep and the per-level
/// single-τ calls consume exactly `apps` `core.origin` draws per point in
/// level order — so two replays see the *same* poison schedule, and the
/// curve must stay bitwise equal to the independent single-τ calls even
/// on the points chaos corrupted.
#[test]
fn curve_points_bitwise_equal_single_tau_oracle_under_chaos() {
    let _guard = guard();
    let spec = WorkloadSpec {
        seed: 6_003,
        ..WorkloadSpec::default()
    };
    let pool = scenario_pool(&spec);
    let scenario = &pool[0];
    let policy = ResiliencePolicy::default();
    let curve_spec = CurveSpec {
        grid: CurveGrid::Explicit(LEVELS.to_vec()),
    };

    // Everything compiles chaos-off; only evaluation runs under chaos.
    let compiled = scenario.compile().expect("compiles chaos-off");
    let singles: Vec<_> = LEVELS
        .iter()
        .map(|&tau| {
            Arc::new(
                Scenario::new(
                    Arc::clone(scenario.etc()),
                    scenario.mapping().clone(),
                    tau,
                    scenario.opts().clone(),
                )
                .unwrap(),
            )
            .compile()
            .unwrap()
        })
        .collect();
    let clean_truth = single_tau_truth(scenario, &LEVELS);

    fepia::chaos::set_for_test(2_003, 0.2);
    let mut ws = compiled.plan().workspace();
    let (chaos_curve, meta) =
        compiled.curve_verdicts(&curve_spec, &mut ws, &policy, EvalBudget::UNLIMITED);

    // Replay the identical draw schedule for the independent calls.
    fepia::chaos::set_for_test(2_003, 0.2);
    let mut ws = compiled.plan().workspace();
    let chaos_singles: Vec<_> = singles
        .iter()
        .map(|c| c.verdict_at_origin_budgeted(&mut ws, &policy, EvalBudget::UNLIMITED))
        .collect();
    fepia::chaos::clear();

    assert_taus_bitwise(&meta, &LEVELS, "chaos");
    assert!(
        verdicts_bitwise_equal(&chaos_curve, &chaos_singles),
        "curve under chaos differs bitwise from replayed single-τ calls"
    );
    // Prove the injection actually fired: at 20% over levels × apps
    // draws, the odds every point survived clean are ≈ 0.8^160.
    assert!(
        !verdicts_bitwise_equal(&chaos_curve, &clean_truth),
        "chaos seed 2003:0.2 never poisoned a draw across {} points × {} apps",
        LEVELS.len(),
        scenario.etc().apps()
    );
}

const CHAOS_CURVES: u64 = 60;

/// Over TCP under the fixed chaos seed, bitwise ground truth is out of
/// reach by design: `net.write` tears force client-side re-evaluation
/// (extra `core.origin` draws desync any replayed schedule) and one
/// poison value (1e308) is *finite*, silently perturbing Exact points.
/// What must survive: every request is answered, the served grid is the
/// requested grid, and the monotone flag agrees with the served points
/// under the engine's own certified-decrease rule.
#[test]
fn curve_requests_survive_transport_chaos_with_consistent_metadata() {
    let _guard = guard();
    let spec = WorkloadSpec {
        seed: 6_004,
        scenarios: 6,
        ..WorkloadSpec::default()
    };
    let pool = scenario_pool(&spec);

    fepia::chaos::set_for_test(2_003, 0.2);
    let served = Arc::new(Service::start(ServiceConfig {
        worker_attempts: 16,
        ..equivalence_config()
    }));
    let server =
        NetServer::start(Arc::clone(&served), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = NetClient::connect(
        server.local_addr(),
        ClientConfig {
            max_attempts: 16,
            ..ClientConfig::default()
        },
    )
    .unwrap();

    for index in 0..CHAOS_CURVES {
        let scenario = &pool[(index as usize) % pool.len()];
        let req = explicit_curve(scenario, index, &LEVELS);
        let resp = client
            .call(&req)
            .unwrap_or_else(|e| panic!("curve {index} exhausted retries under chaos: {e}"));
        assert_eq!(resp.id, index);
        assert_eq!(
            resp.verdicts.len(),
            LEVELS.len(),
            "request {index}: point count under chaos"
        );
        let meta = resp.curve.as_ref().expect("curve meta survives chaos");
        assert_taus_bitwise(meta, &LEVELS, "chaos tcp");
        // Recompute the flag from the very points served (the engine's
        // rule: no later point's certified hi strictly below an earlier
        // point's certified lo) — transport retries must not detach the
        // metadata from the data.
        let consistent = resp
            .verdicts
            .windows(2)
            .all(|w| w[1].metric_hi.partial_cmp(&w[0].metric_lo) != Some(std::cmp::Ordering::Less));
        assert_eq!(
            meta.monotone, consistent,
            "request {index}: monotone flag inconsistent with served points"
        );
    }
    let stats = server.shutdown();
    fepia::chaos::clear();
    assert!(
        stats.chaos_drops > 0,
        "20% injection over {CHAOS_CURVES} curve requests must actually fire"
    );
    assert!(
        client.reconnects() > 0,
        "dropped connections/torn frames must force reconnects"
    );
    Arc::try_unwrap(served)
        .ok()
        .expect("server released its service handle")
        .shutdown();
}

/// Brownout composes with curves: the §3.1 scenarios are all-affine, so
/// the budgeted evaluation stays Exact and the browned-out curve is still
/// bitwise the full-precision oracle — degraded *budget*, not answers.
#[test]
fn brownout_curves_stay_bitwise_certified_per_point() {
    let _guard = guard();
    let spec = WorkloadSpec {
        seed: 6_005,
        ..WorkloadSpec::default()
    };
    let pool = scenario_pool(&spec);
    let service = Service::start(ServiceConfig {
        force_brownout: true,
        ..equivalence_config()
    });

    let scenario = &pool[0];
    let truth = single_tau_truth(scenario, &LEVELS);
    let resp = service
        .call(explicit_curve(scenario, 0, &LEVELS))
        .expect("brownout curve accepted");
    assert_eq!(resp.disposition, Disposition::Brownout);
    assert!(
        verdicts_bitwise_equal(&resp.verdicts, &truth),
        "brownout changed an affine curve point"
    );
    let meta = resp.curve.as_ref().expect("curve meta under brownout");
    assert_taus_bitwise(meta, &LEVELS, "brownout");
    assert!(meta.monotone);
    service.shutdown();
}

fn small_scenario(seed: u64) -> Arc<Scenario> {
    scenario_pool(&WorkloadSpec {
        seed,
        scenarios: 1,
        apps: 8,
        machines: 3,
        ..WorkloadSpec::default()
    })
    .remove(0)
}

proptest! {
    /// ρ(τ) with upper tolerances is non-decreasing as τ loosens: the
    /// engine's monotone flag holds on every random scenario, and the
    /// exact affine points (where lo == hi == ρ) really are ordered.
    #[test]
    fn rho_never_certifiably_decreases_as_tau_loosens(seed in 0u64..200) {
        let _guard = guard();
        let scenario = small_scenario(seed);
        let compiled = scenario.compile().unwrap();
        let levels: Vec<f64> = (0..=10).map(|k| 1.0 + 0.2 * k as f64).collect();
        let mut ws = compiled.plan().workspace();
        let (points, meta) = compiled.curve_verdicts(
            &CurveSpec { grid: CurveGrid::Explicit(levels.clone()) },
            &mut ws,
            &ResiliencePolicy::default(),
            EvalBudget::UNLIMITED,
        );
        prop_assert_eq!(points.len(), levels.len());
        prop_assert!(meta.monotone, "seed {}: certified decrease", seed);
        for (k, w) in points.windows(2).enumerate() {
            prop_assert!(
                w[1].metric_hi.partial_cmp(&w[0].metric_lo) != Some(std::cmp::Ordering::Less),
                "seed {}: ρ dropped between levels {} and {}",
                seed, k, k + 1
            );
        }
    }

    /// Adaptive refinement only ever emits levels of the dense dyadic
    /// grid (bitwise — same formula, same floats, same verdicts), keeps
    /// both endpoints, and any dense level it skips lies inside an
    /// interval it certified flat to within the resolution.
    #[test]
    fn adaptive_refinement_never_skips_an_uncertified_dense_level(
        seed in 0u64..100,
        depth in 2u32..6,
        res_exp in 0i32..6,
    ) {
        let _guard = guard();
        let scenario = small_scenario(seed);
        let compiled = scenario.compile().unwrap();
        let policy = ResiliencePolicy::default();
        let (lo, hi) = (1.0, 2.5);
        let resolution = 10f64.powi(-res_exp);

        let mut ws = compiled.plan().workspace();
        let (adaptive, ameta) = compiled.curve_verdicts(
            &CurveSpec {
                grid: CurveGrid::Adaptive {
                    tau_lo: lo,
                    tau_hi: hi,
                    max_depth: depth,
                    rho_resolution: resolution,
                },
            },
            &mut ws,
            &policy,
            EvalBudget::UNLIMITED,
        );
        let dense_levels = dense_grid(lo, hi, depth);
        let (dense, _) = compiled.curve_verdicts(
            &CurveSpec { grid: CurveGrid::Explicit(dense_levels.clone()) },
            &mut ws,
            &policy,
            EvalBudget::UNLIMITED,
        );

        // Every adaptive point sits on the dense lattice, bitwise equal
        // to the dense sweep's verdict at the same level.
        let mut indices = Vec::with_capacity(ameta.taus.len());
        for (k, tau) in ameta.taus.iter().enumerate() {
            let j = dense_levels
                .iter()
                .position(|d| d.to_bits() == tau.to_bits());
            prop_assert!(
                j.is_some(),
                "adaptive level {} (point {}) is not on the dense grid", tau, k
            );
            let j = j.unwrap();
            prop_assert!(
                verdicts_bitwise_equal(&adaptive[k..k + 1], &dense[j..j + 1]),
                "adaptive point {} differs bitwise from dense point {}", k, j
            );
            indices.push(j);
        }
        prop_assert_eq!(indices[0], 0, "lower endpoint missing");
        prop_assert_eq!(
            *indices.last().unwrap(),
            dense_levels.len() - 1,
            "upper endpoint missing"
        );

        // A skipped dense interval (index gap > 1) must have been
        // certified flat by the engine's own rule: both endpoints
        // unbounded, or a certified ρ-change within the resolution.
        for (k, w) in indices.windows(2).enumerate() {
            prop_assert!(w[0] < w[1], "indices not strictly ascending");
            if w[1] - w[0] > 1 {
                let (a, b) = (&adaptive[k], &adaptive[k + 1]);
                let both_unbounded =
                    a.metric_lo == f64::INFINITY && b.metric_hi == f64::INFINITY;
                let gap = (b.metric_hi - a.metric_lo).abs();
                prop_assert!(
                    both_unbounded || gap <= resolution,
                    "skipped interval [{}, {}] was not certified flat (gap {})",
                    dense_levels[w[0]], dense_levels[w[1]], gap
                );
            }
        }
    }
}
