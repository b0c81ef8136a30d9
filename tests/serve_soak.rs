//! Workspace soak suite for `fepia-serve` (PR 4 acceptance).
//!
//! Two soaks, both multi-threaded and seeded:
//!
//! * **Deterministic soak** — ≥100k requests from 8 client threads through
//!   a sharded service, twice with the same seed; the order-independent
//!   aggregate digest must be bitwise identical across runs (and every
//!   response individually deterministic by construction). A run manifest
//!   with the digest and counters is written to the results directory so
//!   CI can archive it.
//! * **Chaos soak** — a moves-only workload under `FEPIA_CHAOS`-style
//!   injection (fixed seed, 20% rate) with enqueue/worker delays, worker
//!   panics and `DeltaEval` cached-state poisoning all firing. Every
//!   response must still be `Exact`-certified and bitwise equal to a
//!   ground-truth replay computed with chaos off — faults may cost
//!   retries, never wrong numbers.
//!
//! Chaos configuration is process-global, so both tests share one lock
//! (the deterministic soak must never observe another test's injections).

use fepia::core::VerdictKind;
use fepia::mapping::makespan_robustness;
use fepia::serve::workload::{
    combine_digests, moves_request, request, response_digest, scenario_pool, WorkloadSpec,
};
use fepia::serve::{EvalKind, EvalResponse, Service, ServiceConfig, Submit};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, Once};
use std::thread;

/// Serializes the soaks: chaos state is process-wide.
static SOAK_LOCK: Mutex<()> = Mutex::new(());

/// Holds the lock (tolerating poisoning from a failed test) with the panic
/// hook installed (silencing intentional injected panics) and chaos
/// initially disabled.
fn soak_guard() -> std::sync::MutexGuard<'static, ()> {
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
    let guard = SOAK_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    fepia::chaos::clear();
    guard
}

fn results_dir() -> PathBuf {
    let dir = std::env::var_os("FEPIA_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"));
    std::fs::create_dir_all(&dir).expect("create results directory");
    dir
}

const CLIENTS: u64 = 8;
const SOAK_REQUESTS: u64 = 100_000;
/// In-flight window per client: deep enough to exercise queue depth and
/// coalescing, shallow enough that 8 clients stay under the queue caps.
const WINDOW: usize = 32;

/// Drives `total` requests of `spec` through `service` from [`CLIENTS`]
/// client threads (thread `t` owns indices `t, t+CLIENTS, ...`), asserting
/// per-response sanity via `check`, and returns the order-independent
/// aggregate digest.
fn drive(
    service: &Service,
    spec: &WorkloadSpec,
    total: u64,
    moves_only: bool,
    check: impl Fn(&EvalResponse) + Sync,
) -> u64 {
    let pool = scenario_pool(spec);
    let digests: Vec<u64> = thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|t| {
                let pool = &pool;
                let check = &check;
                scope.spawn(move || {
                    let mut digest = 0u64;
                    let mut window = Vec::with_capacity(WINDOW);
                    let drain = |window: &mut Vec<fepia::serve::Ticket>, digest: &mut u64| {
                        for ticket in window.drain(..) {
                            let resp = ticket.wait().expect("worker answers every ticket");
                            check(&resp);
                            *digest = combine_digests([*digest, response_digest(&resp)]);
                        }
                    };
                    let mut index = t;
                    while index < total {
                        let req = if moves_only {
                            moves_request(spec, pool, index)
                        } else {
                            request(spec, pool, index)
                        };
                        let ticket = service
                            .submit(
                                req,
                                Submit {
                                    wait: true,
                                    ..Submit::default()
                                },
                            )
                            .expect("backpressure admission never sheds");
                        window.push(ticket);
                        if window.len() == WINDOW {
                            drain(&mut window, &mut digest);
                        }
                        index += CLIENTS;
                    }
                    drain(&mut window, &mut digest);
                    digest
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    combine_digests(digests)
}

fn soak_service() -> Service {
    Service::start(ServiceConfig {
        shards: 4,
        workers_per_shard: 2,
        queue_capacity: 512,
        cache_capacity: 16,
        ..ServiceConfig::default()
    })
}

#[test]
fn deterministic_soak_100k_is_bitwise_reproducible() {
    let _guard = soak_guard();
    let spec = WorkloadSpec {
        seed: 2003,
        ..WorkloadSpec::default()
    };

    let mut digests = Vec::new();
    let mut totals = Vec::new();
    for run in 0..2 {
        let service = soak_service();
        let digest = drive(&service, &spec, SOAK_REQUESTS, false, |resp| {
            // The clean soak must never degrade: affine features + healthy
            // inputs give exact (or infeasible-at-origin) verdicts only.
            for v in &resp.verdicts {
                assert!(v.is_exact(), "request {} degraded to {:?}", resp.id, v.kind);
            }
            assert_eq!(resp.attempts, 1, "request {} needed retries", resp.id);
        });
        let stats = service.shutdown();
        let t = stats.totals();
        assert_eq!(t.completed, SOAK_REQUESTS, "run {run} dropped responses");
        assert_eq!(t.shed_full + t.shed_shutdown, 0, "run {run} shed work");
        assert_eq!(t.worker_panics, 0, "run {run} panicked");
        // 8 scenarios over 100k requests: the plan cache must be doing
        // nearly all the work (each shard compiles each scenario once).
        assert!(
            t.cache_hit_rate() > 0.99,
            "run {run} hit rate {:.4}",
            t.cache_hit_rate()
        );
        digests.push(digest);
        totals.push(t);
    }

    let manifest_path = results_dir().join("serve_soak_manifest.json");
    fepia_obs::RunManifest::new("serve_soak")
        .param("seed", spec.seed)
        .param("requests", SOAK_REQUESTS)
        .param("clients", CLIENTS)
        .param("digest_run1", format!("{:016x}", digests[0]))
        .param("digest_run2", format!("{:016x}", digests[1]))
        .param("cache_hits", totals[0].cache_hits)
        .param("cache_misses", totals[0].cache_misses)
        .param("coalesced", totals[0].cache_coalesced)
        .output(
            results_dir()
                .join("serve_soak_manifest.json")
                .display()
                .to_string(),
        )
        .write_to(&manifest_path)
        .expect("write soak manifest");

    assert_eq!(
        digests[0], digests[1],
        "same-seed soak aggregates differ: {:016x} vs {:016x}",
        digests[0], digests[1]
    );
}

const CHAOS_REQUESTS: u64 = 20_000;

#[test]
fn chaos_soak_certifies_every_response_and_none_silently_wrong() {
    let _guard = soak_guard();
    let spec = WorkloadSpec {
        seed: 777,
        scenarios: 6,
        ..WorkloadSpec::default()
    };
    let pool = scenario_pool(&spec);

    // Ground truth first, with chaos off: the exact metric bits every moved
    // mapping must report, via the legacy closed form (Eq. 6–7).
    let expected: Vec<Vec<u64>> = (0..CHAOS_REQUESTS)
        .map(|index| {
            let req = moves_request(&spec, &pool, index);
            let EvalKind::Moves(moves) = &req.kind else {
                panic!("moves-only workload produced {:?}", req.kind);
            };
            moves
                .iter()
                .map(|&(app, dst)| {
                    let mut moved = req.scenario.mapping().clone();
                    moved.reassign(app, dst);
                    makespan_robustness(&moved, req.scenario.etc(), req.scenario.tau())
                        .expect("legacy oracle")
                        .metric
                        .to_bits()
                })
                .collect()
        })
        .collect();
    let expected = Arc::new(expected);

    // Now the same workload under injection: delays at serve.enqueue /
    // serve.worker, panics at serve.worker (contained + retried), cached-
    // state poisoning at mapping.delta.load (self-healed from the ETC).
    fepia::chaos::set_for_test(20_003, 0.2);
    let service = Service::start(ServiceConfig {
        shards: 4,
        workers_per_shard: 2,
        queue_capacity: 512,
        cache_capacity: 16,
        // At 20% panic rate per attempt, 16 attempts make an all-panic
        // request a ~1e-11 event over the whole soak: every response is
        // expected to certify.
        worker_attempts: 16,
        ..ServiceConfig::default()
    });
    let expected_check = Arc::clone(&expected);
    drive(&service, &spec, CHAOS_REQUESTS, true, move |resp| {
        let want = &expected_check[resp.id as usize];
        assert_eq!(
            resp.verdicts.len(),
            want.len(),
            "request {} verdict count",
            resp.id
        );
        for (k, (v, &bits)) in resp.verdicts.iter().zip(want.iter()).enumerate() {
            assert_eq!(
                v.kind,
                VerdictKind::Exact,
                "request {} move {k}: degraded to {:?} under chaos",
                resp.id,
                v.kind
            );
            assert_eq!(
                v.metric_hi.to_bits(),
                bits,
                "request {} move {k}: SILENTLY WRONG metric {} vs ground truth {}",
                resp.id,
                v.metric_hi,
                f64::from_bits(bits)
            );
            assert_eq!(v.metric_lo.to_bits(), bits, "exact verdicts are points");
        }
    });
    let totals = service.shutdown().totals();
    fepia::chaos::clear();

    assert_eq!(totals.completed, CHAOS_REQUESTS);
    // The injection must actually have been live, or this test proves
    // nothing: at a 20% per-attempt panic rate over 20k requests the
    // expected panic count is in the thousands.
    assert!(
        totals.worker_panics > 100,
        "chaos panics never fired (got {})",
        totals.worker_panics
    );

    let manifest_path = results_dir().join("serve_chaos_soak_manifest.json");
    fepia_obs::RunManifest::new("serve_chaos_soak")
        .param("seed", spec.seed)
        .param("chaos_seed", 20_003u64)
        .param("chaos_rate", 0.2)
        .param("requests", CHAOS_REQUESTS)
        .param("worker_panics", totals.worker_panics)
        .param("completed", totals.completed)
        .write_to(&manifest_path)
        .expect("write chaos soak manifest");
}
