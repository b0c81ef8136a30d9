//! Service throughput: cached move evaluations through `fepia-serve`.
//!
//! Backs the README "Serving" section. A sharded service is warmed so
//! every scenario's plan is cache-resident, then a moves-heavy workload
//! (64 single-app reassignment probes per request) is driven from 4
//! client threads. Each probe runs on [`fepia_mapping::DeltaEval`]
//! (O(2 machines) incremental update) against the cached plan — the hot
//! scheduler-probe path the service exists for.
//!
//! Reported: sustained cached move-evals/sec, client-observed p50/p99
//! request latency, and the plan-cache hit rate. Acceptance bars:
//! ≥ 50_000 evals/sec and hit rate ≥ 0.90.
//!
//! Correctness first: before timing, one request per scenario is checked
//! bitwise against the closed-form [`fepia_mapping::makespan_robustness`]
//! on the moved mapping. Results are written to
//! `results/BENCH_serve.json` (`$FEPIA_RESULTS` honored). Custom harness
//! (`harness = false`): full run via `cargo bench --bench serve_bench`;
//! under `cargo test` (`--test` flag) a quick pass checks the bitwise
//! oracle and skips the throughput bars.

use fepia_bench::outdir::results_dir;
use fepia_mapping::makespan_robustness;
use fepia_serve::workload::{moves_request, scenario_pool, WorkloadSpec};
use fepia_serve::{EvalKind, Service, ServiceConfig};
use std::time::Instant;

const CLIENTS: usize = 4;

fn bench_spec(quick: bool) -> (WorkloadSpec, u64) {
    let spec = WorkloadSpec {
        seed: 9001,
        scenarios: 8,
        apps: 64,
        machines: 8,
        moves_per_request: 64,
        ..WorkloadSpec::default()
    };
    let requests: u64 = if quick { 64 } else { 4_096 };
    (spec, requests)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--test");
    let (spec, requests) = bench_spec(quick);
    let pool = scenario_pool(&spec);
    let service = Service::start(ServiceConfig {
        shards: 4,
        workers_per_shard: 2,
        queue_capacity: 256,
        cache_capacity: pool.len(),
        ..ServiceConfig::default()
    });

    // Warm + verify: one request per scenario, checked bitwise against the
    // legacy closed form. After this loop every plan is cache-resident.
    for (s, scenario) in pool.iter().enumerate() {
        let req = moves_request(&spec, &pool[s..=s], s as u64);
        let EvalKind::Moves(moves) = req.kind.clone() else {
            unreachable!("moves_request always yields Moves");
        };
        let resp = service.call(req).expect("warmup accepted");
        for (v, &(app, dst)) in resp.verdicts.iter().zip(&moves) {
            let mut moved = scenario.mapping().clone();
            moved.reassign(app, dst);
            let oracle = makespan_robustness(&moved, scenario.etc(), scenario.tau())
                .expect("valid instance");
            assert_eq!(
                v.metric_hi.to_bits(),
                oracle.metric.to_bits(),
                "served move verdict drifted from the closed form"
            );
        }
    }
    let warm = service.stats().totals();

    // Timed section: CLIENTS threads, closed-loop (one request in flight
    // per thread — latencies are honest), moves-only workload.
    let t0 = Instant::now();
    let mut latencies_us: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|t| {
                let (spec, pool, service) = (&spec, &pool, &service);
                scope.spawn(move || {
                    let mut lats = Vec::with_capacity((requests as usize) / CLIENTS + 1);
                    let mut index = t as u64;
                    while index < requests {
                        let req = moves_request(spec, pool, 1_000 + index);
                        let t1 = Instant::now();
                        let resp = service.call(req).expect("bench accepted");
                        lats.push(t1.elapsed().as_nanos() as f64 / 1_000.0);
                        assert_eq!(resp.verdicts.len(), spec.moves_per_request);
                        index += CLIENTS as u64;
                    }
                    lats
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    let elapsed = t0.elapsed().as_secs_f64();

    let totals = service.stats().totals();
    service.shutdown();

    let evals = requests as f64 * spec.moves_per_request as f64;
    let evals_per_sec = evals / elapsed;
    let hit_rate = {
        // Hit rate over the timed section only (the warmup necessarily
        // compiles once per scenario and shard).
        let hits =
            (totals.cache_hits + totals.cache_coalesced) - (warm.cache_hits + warm.cache_coalesced);
        let misses = totals.cache_misses - warm.cache_misses;
        hits as f64 / (hits + misses).max(1) as f64
    };
    latencies_us.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let pct = |p: f64| latencies_us[((latencies_us.len() - 1) as f64 * p) as usize];
    let (p50_us, p99_us) = (pct(0.50), pct(0.99));

    println!(
        "serve throughput ({} apps x {} machines, {} moves/request, {} clients):",
        spec.apps, spec.machines, spec.moves_per_request, CLIENTS
    );
    println!("  requests: {requests} in {elapsed:.3} s");
    println!("  cached move-evals/sec: {evals_per_sec:>12.0} (bar: 50000)");
    println!("  request latency: p50 {p50_us:.1} us, p99 {p99_us:.1} us");
    println!("  plan-cache hit rate (timed section): {hit_rate:.4} (bar: 0.90)");

    if !quick {
        let json = format!(
            "{{\n  \"bench\": \"serve\",\n  \"apps\": {},\n  \"machines\": {},\n  \"moves_per_request\": {},\n  \"clients\": {},\n  \"requests\": {},\n  \"elapsed_s\": {:.3},\n  \"evals_per_sec\": {:.0},\n  \"p50_us\": {:.1},\n  \"p99_us\": {:.1},\n  \"cache_hit_rate\": {:.4},\n  \"evals_per_sec_threshold\": 50000.0,\n  \"hit_rate_threshold\": 0.9\n}}\n",
            spec.apps,
            spec.machines,
            spec.moves_per_request,
            CLIENTS,
            requests,
            elapsed,
            evals_per_sec,
            p50_us,
            p99_us,
            hit_rate
        );
        let path = results_dir().join("BENCH_serve.json");
        std::fs::write(&path, json).expect("write BENCH_serve.json");
        println!("wrote {}", path.display());
        assert!(
            evals_per_sec >= 50_000.0,
            "cached move-eval throughput {evals_per_sec:.0}/s below the 50k bar"
        );
        assert!(
            hit_rate >= 0.90,
            "plan-cache hit rate {hit_rate:.4} below the 0.90 bar"
        );
        println!("OK: throughput and hit-rate bars met");
    } else {
        println!("quick mode: bitwise oracle checked, throughput bars skipped");
    }
}
