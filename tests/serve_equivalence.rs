//! Differential oracle: the service must be a *transparent* cache.
//!
//! Every response `fepia-serve` produces — cold-compiled or served from a
//! warm plan cache — must be bitwise identical to what the legacy one-shot
//! paths produce for the same question:
//!
//! * `Verdict`  ⇔ [`makespan_robustness_generic`] (the §3.1 system built
//!   through the generic FePIA machinery, Eq. 1–2 + Eq. 6).
//! * `Origins`  ⇔ a hand-built [`FepiaAnalysis`] evaluated at the shifted
//!   operating point, with the tolerance still anchored to the *scenario*
//!   origin makespan (the plan is compiled once; origins move, bounds
//!   don't).
//! * `Moves`    ⇔ [`makespan_robustness`] (closed form, Eq. 6–7) on the
//!   mapping with that one move applied.
//!
//! The replay runs the recorded workload through the service twice on the
//! same shards: pass 1 is cold (every scenario compiles), pass 2 is warm
//! (the stats delta proves zero compilations) — and both passes must match
//! the oracle bit for bit, so a cache hit can never change a number.

use fepia::core::{
    FeatureSpec, FepiaAnalysis, Perturbation, RadiusVerdict, SumSelected, Tolerance, VerdictKind,
};
use fepia::mapping::{makespan_robustness, makespan_robustness_generic};
use fepia::serve::workload::{request, scenario_pool, WorkloadSpec};
use fepia::serve::{EvalKind, EvalResponse, Scenario, Service, ServiceConfig};

const REQUESTS: u64 = 300;

fn oracle_metric_bits(scenario: &Scenario, kind: &EvalKind) -> Vec<u64> {
    match kind {
        EvalKind::Verdict => {
            let report = makespan_robustness_generic(
                scenario.mapping(),
                scenario.etc(),
                scenario.tau(),
                scenario.opts(),
            )
            .expect("legacy generic oracle");
            vec![report.metric.to_bits()]
        }
        EvalKind::Origins(origins) => {
            // The same analysis `Scenario::compile` builds, evaluated at
            // each shifted origin: tolerance bound anchored to the
            // scenario origin's makespan, features over the base mapping.
            let bound = scenario.tau() * scenario.mapping().makespan(scenario.etc());
            let apps = scenario.mapping().apps();
            origins
                .iter()
                .map(|origin| {
                    let mut analysis = FepiaAnalysis::new(Perturbation::continuous(
                        "ETC vector C",
                        origin.clone(),
                    ));
                    for j in 0..scenario.mapping().machines() {
                        let on_j = scenario.mapping().apps_on(j);
                        if on_j.is_empty() {
                            continue;
                        }
                        analysis.add_feature(
                            FeatureSpec::new(format!("finish-time m_{j}"), Tolerance::upper(bound)),
                            SumSelected::new(on_j, apps),
                        );
                    }
                    analysis
                        .run(scenario.opts())
                        .expect("legacy origin oracle")
                        .metric
                        .to_bits()
                })
                .collect()
        }
        EvalKind::Moves(moves) => moves
            .iter()
            .map(|&(app, dst)| {
                let mut moved = scenario.mapping().clone();
                moved.reassign(app, dst);
                makespan_robustness(&moved, scenario.etc(), scenario.tau())
                    .expect("legacy closed-form oracle")
                    .metric
                    .to_bits()
            })
            .collect(),
        // Curve requests have their own differential oracle
        // (tests/curve_equivalence.rs); the recorded workload never
        // emits them.
        EvalKind::Curve(_) => unreachable!("workload generator emits no curve requests"),
    }
}

fn assert_matches_oracle(resp: &EvalResponse, expected: &[u64], pass: &str) {
    assert_eq!(
        resp.verdicts.len(),
        expected.len(),
        "{pass} request {}: verdict count",
        resp.id
    );
    for (k, (v, &bits)) in resp.verdicts.iter().zip(expected).enumerate() {
        assert_eq!(
            v.kind,
            VerdictKind::Exact,
            "{pass} request {} unit {k}: non-exact {:?}",
            resp.id,
            v.kind
        );
        assert_eq!(
            v.metric_lo.to_bits(),
            bits,
            "{pass} request {} unit {k}: metric_lo {} != oracle {}",
            resp.id,
            v.metric_lo,
            f64::from_bits(bits)
        );
        assert_eq!(v.metric_hi.to_bits(), bits, "exact verdicts are points");
        // Every per-feature radius must be an exact result too.
        assert!(
            v.radii.iter().all(|r| matches!(r, RadiusVerdict::Exact(_))),
            "{pass} request {} unit {k}: degraded radius",
            resp.id
        );
    }
}

#[test]
fn service_responses_match_legacy_paths_cold_and_cached() {
    let spec = WorkloadSpec {
        seed: 4177,
        ..WorkloadSpec::default()
    };
    let pool = scenario_pool(&spec);
    let service = Service::start(ServiceConfig {
        shards: 2,
        workers_per_shard: 1,
        cache_capacity: pool.len(), // all scenarios stay resident
        ..ServiceConfig::default()
    });

    // Record the workload once; the oracle is computed per request from
    // the same deterministic (seed, index) stream the service will see.
    let mut cold_digests = Vec::new();
    for index in 0..REQUESTS {
        let req = request(&spec, &pool, index);
        let expected = oracle_metric_bits(&req.scenario, &req.kind);
        let resp = service.call(req).expect("cold pass accepted");
        assert_matches_oracle(&resp, &expected, "cold");
        cold_digests.push(fepia::serve::workload::response_digest(&resp));
    }
    let after_cold = service.stats().totals();
    assert!(
        after_cold.cache_misses >= 1,
        "cold pass never compiled a plan"
    );

    // Warm pass: same requests, same oracle — and zero new compilations.
    for index in 0..REQUESTS {
        let req = request(&spec, &pool, index);
        let expected = oracle_metric_bits(&req.scenario, &req.kind);
        let resp = service.call(req).expect("warm pass accepted");
        assert_matches_oracle(&resp, &expected, "warm");
        assert_eq!(
            fepia::serve::workload::response_digest(&resp),
            cold_digests[index as usize],
            "warm response {index} differs from its cold twin"
        );
    }
    let after_warm = service.stats().totals();
    assert_eq!(
        after_warm.cache_misses, after_cold.cache_misses,
        "warm pass recompiled a cached plan"
    );
    assert_eq!(
        after_warm.cache_hits + after_warm.cache_coalesced
            - (after_cold.cache_hits + after_cold.cache_coalesced),
        REQUESTS,
        "warm pass bypassed the cache"
    );
    service.shutdown();
}
