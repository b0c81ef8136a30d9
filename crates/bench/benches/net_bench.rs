//! TCP throughput: cached move evaluations through `fepia-net`.
//!
//! Backs the README "Networking" section. The same warmed, sharded
//! service as `serve_bench`, but every request now crosses the wire:
//! encode → localhost TCP → decode → submit → evaluate → encode → TCP →
//! decode. Four blocking clients (one connection each, closed-loop) drive
//! a moves-heavy workload; the gap between this number and
//! `BENCH_serve.json`'s in-process figure *is* the protocol cost.
//!
//! Reported: sustained cached move-evals/sec over TCP and client-observed
//! p50/p99 request latency. Acceptance bar: ≥ 25_000 evals/sec (the wire
//! may cost parallelism and syscalls, but not the service).
//!
//! Correctness first: before timing, one request per scenario is served
//! both over TCP and in-process and the encoded responses must be
//! byte-identical (the bitwise equivalence guarantee, spot-checked at
//! bench scale). Results go to `results/BENCH_net.json` (`$FEPIA_RESULTS`
//! honored). Custom harness: full run via `cargo bench --bench
//! net_bench`; under `cargo test` (`--test` flag) a quick pass checks the
//! equivalence oracle and skips the throughput bars.

use fepia_bench::outdir::results_dir;
use fepia_net::wire::encode_response;
use fepia_net::{ClientConfig, NetClient, NetServer, ServerConfig};
use fepia_serve::workload::{moves_request, scenario_pool, WorkloadSpec};
use fepia_serve::{Service, ServiceConfig};
use std::sync::Arc;
use std::time::Instant;

const CLIENTS: usize = 4;
const EVALS_PER_SEC_BAR: f64 = 25_000.0;

fn bench_spec(quick: bool) -> (WorkloadSpec, u64) {
    let spec = WorkloadSpec {
        seed: 9_005,
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
    let service = Arc::new(Service::start(ServiceConfig {
        shards: 4,
        workers_per_shard: 2,
        queue_capacity: 256,
        cache_capacity: pool.len(),
        ..ServiceConfig::default()
    }));
    let server = NetServer::start(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default())
        .expect("bind ephemeral port");
    let addr = server.local_addr();

    // Warm + verify: one request per scenario over the wire must be
    // byte-identical to the in-process answer from a twin service fed the
    // same sequential stream.
    let reference = Service::start(ServiceConfig {
        shards: 4,
        workers_per_shard: 2,
        queue_capacity: 256,
        cache_capacity: pool.len(),
        ..ServiceConfig::default()
    });
    let mut warm_client = NetClient::connect(addr, ClientConfig::default()).expect("connect");
    for s in 0..pool.len() {
        let req = moves_request(&spec, &pool[s..=s], s as u64);
        let expected = reference.call(req.clone()).expect("reference");
        let over_tcp = warm_client.call(&req).expect("warmup over TCP");
        assert_eq!(
            encode_response(&over_tcp),
            encode_response(&expected),
            "scenario {s}: TCP response differs from in-process (bitwise)"
        );
    }
    reference.shutdown();
    drop(warm_client);

    // Timed section: CLIENTS connections, closed-loop, moves-only.
    let t0 = Instant::now();
    let mut latencies_us: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|t| {
                let (spec, pool) = (&spec, &pool);
                scope.spawn(move || {
                    let mut client =
                        NetClient::connect(addr, ClientConfig::default()).expect("connect");
                    let mut lats = Vec::with_capacity((requests as usize) / CLIENTS + 1);
                    let mut index = t as u64;
                    while index < requests {
                        let req = moves_request(spec, pool, 1_000 + index);
                        let t1 = Instant::now();
                        let resp = client.call(&req).expect("bench call");
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

    let net_stats = server.shutdown();
    Arc::try_unwrap(service)
        .ok()
        .expect("server released the service")
        .shutdown();

    let evals = requests as f64 * spec.moves_per_request as f64;
    let evals_per_sec = evals / elapsed;
    latencies_us.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let pct = |p: f64| latencies_us[((latencies_us.len() - 1) as f64 * p) as usize];
    let (p50_us, p99_us) = (pct(0.50), pct(0.99));

    println!(
        "net throughput ({} apps x {} machines, {} moves/request, {} TCP clients):",
        spec.apps, spec.machines, spec.moves_per_request, CLIENTS
    );
    println!("  requests: {requests} in {elapsed:.3} s");
    println!(
        "  cached move-evals/sec over TCP: {evals_per_sec:>12.0} (bar: {EVALS_PER_SEC_BAR:.0})"
    );
    println!("  request latency: p50 {p50_us:.1} us, p99 {p99_us:.1} us");
    println!(
        "  server frames: {} read, {} written, {} errors",
        net_stats.frames_read,
        net_stats.frames_written,
        net_stats.decode_errors + net_stats.overloaded + net_stats.invalid
    );

    if !quick {
        let json = format!(
            "{{\n  \"bench\": \"net\",\n  \"apps\": {},\n  \"machines\": {},\n  \"moves_per_request\": {},\n  \"clients\": {},\n  \"requests\": {},\n  \"elapsed_s\": {:.3},\n  \"evals_per_sec\": {:.0},\n  \"p50_us\": {:.1},\n  \"p99_us\": {:.1},\n  \"evals_per_sec_threshold\": {:.1}\n}}\n",
            spec.apps,
            spec.machines,
            spec.moves_per_request,
            CLIENTS,
            requests,
            elapsed,
            evals_per_sec,
            p50_us,
            p99_us,
            EVALS_PER_SEC_BAR
        );
        let path = results_dir().join("BENCH_net.json");
        std::fs::write(&path, json).expect("write BENCH_net.json");
        println!("wrote {}", path.display());
        assert!(
            evals_per_sec >= EVALS_PER_SEC_BAR,
            "TCP move-eval throughput {evals_per_sec:.0}/s below the {EVALS_PER_SEC_BAR:.0} bar"
        );
        println!("OK: TCP throughput bar met");
    } else {
        println!("quick mode: bitwise equivalence checked, throughput bar skipped");
    }
}
