//! Connection scaling on the event-loop I/O plane.
//!
//! Backs the README "I/O plane" section and ROADMAP item 3. The old
//! thread-per-connection server paid two OS threads per socket, so 1024
//! connections meant 2048 threads of stack and scheduler pressure. The
//! readiness loop multiplexes every connection on one thread, so
//! throughput must hold as the connection count grows.
//!
//! Measured: sustained cached move-evals/sec through pipelined clients
//! at **1, 64 and 1024 connections**, same total request volume at each
//! scale (connection setup is part of the cost — that is the point).
//! Every client sends its share in pipelined chunks of 64 (the server's
//! per-connection in-flight window), so the server sees deep pipelines,
//! batched writes and a full poll set at once.
//!
//! Acceptance bars (full mode): ≥ 25_000 evals/sec at 64 connections,
//! and the 1024-connection figure within 2× of the 64-connection one
//! (`scale_ratio_1024_vs_64 >= 0.5`). Results go to
//! `results/BENCH_netscale.json` (`$FEPIA_RESULTS` honored) and are
//! gated by `scripts/check_bench.sh`. Under `cargo test` (`--test`
//! flag) a quick pass verifies the pipelined path bitwise against an
//! in-process reference at small scale and skips the bars.

use fepia_bench::outdir::results_dir;
use fepia_net::wire::encode_response;
use fepia_net::{ClientConfig, NetClient, NetServer, ServerConfig};
use fepia_serve::workload::{moves_request, scenario_pool, WorkloadSpec};
use fepia_serve::{Service, ServiceConfig};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

/// Pipelined chunk per `call_pipelined` — matches the server's default
/// per-connection in-flight window, so each chunk can be fully in
/// flight without tripping backpressure.
const PIPELINE: usize = 64;
const EVALS_PER_SEC_BAR: f64 = 25_000.0;
const SCALE_RATIO_BAR: f64 = 0.5;

fn bench_spec() -> WorkloadSpec {
    WorkloadSpec {
        seed: 9_007,
        scenarios: 8,
        apps: 64,
        machines: 8,
        moves_per_request: 64,
        ..WorkloadSpec::default()
    }
}

/// Drives `requests` moves-requests through `conns` pipelined
/// connections (each connection sends its share in chunks of
/// [`PIPELINE`]) and returns the elapsed wall time, connect included.
fn run_scale(
    addr: SocketAddr,
    spec: &WorkloadSpec,
    pool: &[Arc<fepia_serve::Scenario>],
    conns: usize,
    requests: usize,
) -> f64 {
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|t| {
                std::thread::Builder::new()
                    .name(format!("netscale-{t}"))
                    // 1024 driver threads on one box: keep stacks small.
                    .stack_size(256 * 1024)
                    .spawn_scoped(scope, move || {
                        let mut client =
                            NetClient::connect(addr, ClientConfig::default()).expect("connect");
                        let mine: Vec<usize> = (t..requests).step_by(conns).collect();
                        for chunk in mine.chunks(PIPELINE) {
                            let reqs: Vec<_> = chunk
                                .iter()
                                .map(|&i| moves_request(spec, pool, 100_000 + i as u64))
                                .collect();
                            let resps = client.call_pipelined(&reqs).expect("pipelined batch");
                            for resp in &resps {
                                assert_eq!(resp.verdicts.len(), spec.moves_per_request);
                            }
                        }
                    })
                    .expect("spawn driver thread")
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });
    t0.elapsed().as_secs_f64()
}

fn main() {
    let quick = std::env::args().any(|a| a == "--test");
    let spec = bench_spec();
    let pool = scenario_pool(&spec);
    let requests: usize = if quick { 64 } else { 2_048 };
    let scales: &[usize] = if quick { &[1, 4, 8] } else { &[1, 64, 1024] };

    let service = Arc::new(Service::start(ServiceConfig {
        shards: 4,
        workers_per_shard: 2,
        // Deep enough for every connection's full pipeline window at the
        // largest scale — this bench measures transport scaling, not
        // admission control (sheds fail the batch and the run).
        queue_capacity: 8_192,
        cache_capacity: pool.len(),
        ..ServiceConfig::default()
    }));
    let server = NetServer::start(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default())
        .expect("bind ephemeral port");
    let addr = server.local_addr();

    // Warm + verify: the whole scenario pool as ONE pipelined batch must
    // come back bitwise identical to a twin in-process service answering
    // the same stream sequentially.
    let reference = Service::start(ServiceConfig {
        shards: 4,
        workers_per_shard: 2,
        queue_capacity: 8_192,
        cache_capacity: pool.len(),
        ..ServiceConfig::default()
    });
    let warm_reqs: Vec<_> = (0..pool.len())
        .map(|s| moves_request(&spec, &pool[s..=s], s as u64))
        .collect();
    let mut warm_client = NetClient::connect(addr, ClientConfig::default()).expect("connect");
    let over_tcp = warm_client
        .call_pipelined(&warm_reqs)
        .expect("pipelined warmup");
    for (s, (req, got)) in warm_reqs.iter().zip(&over_tcp).enumerate() {
        let expected = reference.call(req.clone()).expect("reference");
        assert_eq!(
            encode_response(got),
            encode_response(&expected),
            "scenario {s}: pipelined response differs from in-process (bitwise)"
        );
    }
    reference.shutdown();
    drop(warm_client);

    let evals = requests as f64 * spec.moves_per_request as f64;
    let mut per_scale: Vec<(usize, f64)> = Vec::new();
    for &conns in scales {
        let elapsed = run_scale(addr, &spec, &pool, conns, requests);
        let eps = evals / elapsed;
        per_scale.push((conns, eps));
        println!(
            "  {conns:>5} connections: {requests} requests ({evals:.0} evals) in \
             {elapsed:.3} s -> {eps:>12.0} evals/sec"
        );
    }

    let net_stats = server.shutdown();
    Arc::try_unwrap(service)
        .ok()
        .expect("server released the service")
        .shutdown();

    println!(
        "netscale ({} apps x {} machines, {} moves/request, pipeline window {}):",
        spec.apps, spec.machines, spec.moves_per_request, PIPELINE
    );
    println!(
        "  server: {} connections, {} frames read, {} written, max pipeline depth {}, {} errors",
        net_stats.connections,
        net_stats.frames_read,
        net_stats.frames_written,
        net_stats.max_pipeline_depth,
        net_stats.decode_errors + net_stats.overloaded + net_stats.invalid
    );
    assert_eq!(
        net_stats.decode_errors + net_stats.overloaded + net_stats.invalid,
        0,
        "scaling run must be shed- and error-free"
    );
    assert!(
        net_stats.max_pipeline_depth >= 8,
        "pipelined drivers must keep the server's in-flight window busy"
    );

    if quick {
        println!("quick mode: pipelined bitwise equivalence checked, scaling bars skipped");
        return;
    }

    let eps_at = |c: usize| {
        per_scale
            .iter()
            .find(|(conns, _)| *conns == c)
            .map(|&(_, eps)| eps)
            .expect("scale measured")
    };
    let (eps_1, eps_64, eps_1024) = (eps_at(1), eps_at(64), eps_at(1024));
    let scale_ratio = eps_1024 / eps_64;
    println!(
        "  1024-vs-64 connection throughput ratio: {scale_ratio:.3} (bar: >= {SCALE_RATIO_BAR})"
    );

    let json = format!(
        "{{\n  \"bench\": \"netscale\",\n  \"apps\": {},\n  \"machines\": {},\n  \"moves_per_request\": {},\n  \"requests_per_scale\": {},\n  \"pipeline_window\": {},\n  \"evals_per_sec_1\": {:.0},\n  \"evals_per_sec_64\": {:.0},\n  \"evals_per_sec_1024\": {:.0},\n  \"scale_ratio_1024_vs_64\": {:.3},\n  \"max_pipeline_depth\": {},\n  \"evals_per_sec_threshold\": {:.1},\n  \"scale_ratio_threshold\": {:.2}\n}}\n",
        spec.apps,
        spec.machines,
        spec.moves_per_request,
        requests,
        PIPELINE,
        eps_1,
        eps_64,
        eps_1024,
        scale_ratio,
        net_stats.max_pipeline_depth,
        EVALS_PER_SEC_BAR,
        SCALE_RATIO_BAR
    );
    let path = results_dir().join("BENCH_netscale.json");
    std::fs::write(&path, json).expect("write BENCH_netscale.json");
    println!("wrote {}", path.display());

    assert!(
        eps_64 >= EVALS_PER_SEC_BAR,
        "64-connection pipelined throughput {eps_64:.0}/s below the {EVALS_PER_SEC_BAR:.0} bar"
    );
    assert!(
        scale_ratio >= SCALE_RATIO_BAR,
        "1024-connection throughput fell to {scale_ratio:.3} of the 64-connection figure \
         (bar: {SCALE_RATIO_BAR})"
    );
    println!("OK: connection-scaling bars met");
}
