//! Property tests for plan-cache keying (PR 4 satellite).
//!
//! The cache key must separate everything that changes a number and unify
//! everything that doesn't:
//!
//! * Two scenarios differing **only in `RadiusOptions`** (norm or any
//!   solver knob) must never share a slot — a cached plan embeds its
//!   options, so serving it for different options would silently change
//!   results.
//! * Two scenarios differing in **a single ETC entry** must never share a
//!   slot — one `f64` changes every downstream radius.
//! * Two **bitwise-identical** scenarios from independent allocations must
//!   always collapse to one slot (second lookup is a `Hit` on the same
//!   `Arc`), and a cache-hit response must be bitwise identical to the
//!   cold-compile response for the same request.

use fepia::optim::Norm;
use fepia::serve::cache::PlanCache;
use fepia::serve::workload::verdicts_bitwise_equal;
use fepia::serve::workload::{
    moves_request, request, response_digest, scenario_pool, WorkloadSpec,
};
use fepia::serve::{
    CacheOutcome, CurveGrid, CurveSpec, EvalKind, EvalRequest, Scenario, Service, ServiceConfig,
};
use fepia_etc::EtcMatrix;
use proptest::prelude::*;
use std::sync::Arc;

fn spec_for(seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        seed,
        scenarios: 2,
        apps: 8,
        machines: 3,
        ..WorkloadSpec::default()
    }
}

/// Rebuilds `base` with its options mutated in one of eight ways; every
/// mutation changes at least one result-affecting bit of `RadiusOptions`.
fn with_mutated_opts(base: &Scenario, which: usize) -> Arc<Scenario> {
    let mut opts = base.opts().clone();
    match which % 8 {
        0 => opts.norm = Norm::L1,
        1 => opts.norm = Norm::LInf,
        2 => opts.norm = Norm::WeightedL2(vec![1.0; base.etc().apps()]),
        3 => opts.solver.tol *= 2.0,
        4 => opts.solver.max_outer += 1,
        5 => opts.solver.fd_step *= 0.5,
        6 => opts.solver.t_max_factor *= 2.0,
        _ => opts.solver.root.max_iter += 1,
    }
    Arc::new(
        Scenario::new(
            Arc::clone(base.etc()),
            base.mapping().clone(),
            base.tau(),
            opts,
        )
        .expect("mutated options stay valid"),
    )
}

/// Rebuilds `base` with exactly one ETC entry nudged by one ULP-scale
/// relative step — the smallest change that is still a different `f64`.
fn with_mutated_etc_entry(base: &Scenario, app: usize, machine: usize) -> Arc<Scenario> {
    let etc = base.etc();
    let rows: Vec<Vec<f64>> = (0..etc.apps())
        .map(|i| {
            let mut row = etc.row(i).to_vec();
            if i == app {
                row[machine] = row[machine] * (1.0 + 1e-9) + 1e-12;
            }
            row
        })
        .collect();
    Arc::new(
        Scenario::new(
            Arc::new(EtcMatrix::from_rows(rows)),
            base.mapping().clone(),
            base.tau(),
            base.opts().clone(),
        )
        .expect("perturbed ETC stays valid"),
    )
}

fn base_curve_spec() -> CurveSpec {
    CurveSpec {
        grid: CurveGrid::Explicit(vec![1.0, 1.2, 1.5, 2.0]),
    }
}

/// Rebuilds the base curve spec with its grid mutated in one of seven
/// ways; every mutation changes at least one result-affecting bit.
fn with_mutated_grid(which: usize) -> CurveSpec {
    let levels = vec![1.0, 1.2, 1.5, 2.0];
    let grid = match which % 7 {
        0 => {
            // One level nudged by ~1 ULP — still a different f64.
            let mut l = levels;
            l[2] = l[2] * (1.0 + 1e-9) + 1e-12;
            CurveGrid::Explicit(l)
        }
        1 => {
            let mut l = levels;
            l.push(3.0);
            CurveGrid::Explicit(l)
        }
        2 => {
            let mut l = levels;
            l.pop();
            CurveGrid::Explicit(l)
        }
        3 => CurveGrid::Adaptive {
            tau_lo: 1.0,
            tau_hi: 2.0,
            max_depth: 4,
            rho_resolution: 1e-3,
        },
        4 => CurveGrid::Adaptive {
            tau_lo: 1.0,
            tau_hi: 2.0,
            max_depth: 5,
            rho_resolution: 1e-3,
        },
        5 => CurveGrid::Adaptive {
            tau_lo: 1.0,
            tau_hi: 2.0,
            max_depth: 4,
            rho_resolution: 2e-3,
        },
        _ => CurveGrid::Adaptive {
            tau_lo: 1.0,
            tau_hi: 2.0 * (1.0 + 1e-9),
            max_depth: 4,
            rho_resolution: 1e-3,
        },
    };
    CurveSpec { grid }
}

proptest! {
    /// Scenarios that differ only in their `RadiusOptions` never collide:
    /// distinct fingerprints, `same_as` false, and the cache compiles a
    /// fresh plan instead of serving the other scenario's.
    #[test]
    fn options_only_differences_never_collide(seed in 0u64..60, which in 0usize..8) {
        let pool = scenario_pool(&spec_for(seed));
        let base = &pool[0];
        let mutated = with_mutated_opts(base, which);

        prop_assert!(base.fingerprint() != mutated.fingerprint(),
            "options mutation {which} left the fingerprint unchanged");
        prop_assert!(!base.same_as(&mutated));

        let cache = PlanCache::new(8);
        let (a, _) = cache.get_or_compile(base);
        let (b, outcome) = cache.get_or_compile(&mutated);
        let (a, b) = (a.expect("base compiles"), b.expect("mutated compiles"));
        prop_assert_eq!(outcome, CacheOutcome::Compiled);
        prop_assert!(!Arc::ptr_eq(&a, &b), "distinct options shared one compiled plan");
    }

    /// Changing one ETC entry — even by ~1 ULP — changes the key.
    #[test]
    fn single_etc_entry_differences_never_collide(
        seed in 0u64..60,
        app in 0usize..8,
        machine in 0usize..3,
    ) {
        let pool = scenario_pool(&spec_for(seed));
        let base = &pool[0];
        let mutated = with_mutated_etc_entry(base, app, machine);

        prop_assert!(base.fingerprint() != mutated.fingerprint(),
            "ETC entry ({app},{machine}) mutation left the fingerprint unchanged");
        prop_assert!(!base.same_as(&mutated));
    }

    /// Bitwise-identical scenarios from independent allocations always
    /// collapse: equal fingerprints, `same_as`, and a cache `Hit` on the
    /// very same compiled `Arc`.
    #[test]
    fn identical_scenarios_always_hit(seed in 0u64..60) {
        let spec = spec_for(seed);
        let pool_a = scenario_pool(&spec);
        let pool_b = scenario_pool(&spec); // independent allocation
        let (twin_a, twin_b) = (&pool_a[0], &pool_b[0]);

        prop_assert!(!Arc::ptr_eq(twin_a, twin_b));
        prop_assert_eq!(twin_a.fingerprint(), twin_b.fingerprint());
        prop_assert!(twin_a.same_as(twin_b));

        let cache = PlanCache::new(8);
        let (first, cold) = cache.get_or_compile(twin_a);
        let (second, warm) = cache.get_or_compile(twin_b);
        prop_assert_eq!(cold, CacheOutcome::Compiled);
        prop_assert_eq!(warm, CacheOutcome::Hit);
        prop_assert!(Arc::ptr_eq(&first.expect("compiles"), &second.expect("hits")));
    }

    /// A cache-hit response is bitwise identical to the cold-compile
    /// response for the same request — hits may only change latency.
    #[test]
    fn cached_responses_are_bitwise_identical_to_cold(seed in 0u64..40, index in 0u64..50) {
        let spec = spec_for(seed);
        let pool = scenario_pool(&spec);
        let service = Service::start(ServiceConfig {
            shards: 1,
            workers_per_shard: 1,
            ..ServiceConfig::default()
        });

        let mixed = request(&spec, &pool, index);
        let moves = moves_request(&spec, &pool, index.wrapping_add(1_000));
        for req in [mixed, moves] {
            let twice = [
                service.call(req.clone()).expect("cold accepted"),
                service.call(req).expect("warm accepted"),
            ];
            prop_assert_eq!(twice[1].cache, Some(CacheOutcome::Hit));
            prop_assert_eq!(
                response_digest(&twice[0]),
                response_digest(&twice[1]),
                "cache hit changed response bits for request {}", twice[0].id
            );
        }
        service.shutdown();
    }

    /// Two curve requests differing only in their grid spec never share a
    /// response key: the spec fingerprint separates every level bit, the
    /// grid mode and each adaptive knob, so a served curve can never be
    /// replayed for a different grid over the same scenario.
    #[test]
    fn curve_specs_differing_in_grid_never_collide(seed in 0u64..60, which in 0usize..7) {
        let pool = scenario_pool(&spec_for(seed));
        let scenario_fp = pool[0].fingerprint();
        let base = base_curve_spec();
        let mutated = with_mutated_grid(which);

        prop_assert!(base.fingerprint() != mutated.fingerprint(),
            "grid mutation {which} left the curve-spec fingerprint unchanged");
        prop_assert!(base.request_key(scenario_fp) != mutated.request_key(scenario_fp),
            "grid mutation {which} left the request key unchanged");
        // The scenario still separates: the same spec over different
        // scenarios must not collide either.
        prop_assert!(
            base.request_key(scenario_fp) != base.request_key(pool[1].fingerprint()),
            "request key ignored the scenario fingerprint"
        );
    }

    /// Identical (scenario, spec) pairs always hit: the repeat reuses the
    /// compiled plan and returns a bitwise-identical curve — points and
    /// metadata both.
    #[test]
    fn identical_curve_requests_always_hit_bitwise(seed in 0u64..40, which in 0usize..7) {
        let spec = spec_for(seed);
        let pool = scenario_pool(&spec);
        let service = Service::start(ServiceConfig {
            shards: 1,
            workers_per_shard: 1,
            ..ServiceConfig::default()
        });

        let req = EvalRequest {
            id: 7,
            scenario: Arc::clone(&pool[0]),
            kind: EvalKind::Curve(with_mutated_grid(which)),
        };
        let cold = service.call(req.clone()).expect("cold accepted");
        let warm = service.call(req).expect("warm accepted");
        prop_assert_eq!(cold.cache, Some(CacheOutcome::Compiled));
        prop_assert_eq!(warm.cache, Some(CacheOutcome::Hit));
        prop_assert!(
            verdicts_bitwise_equal(&warm.verdicts, &cold.verdicts),
            "cache hit changed a curve point"
        );
        prop_assert_eq!(&warm.curve, &cold.curve, "cache hit changed curve metadata");
        service.shutdown();
    }
}
