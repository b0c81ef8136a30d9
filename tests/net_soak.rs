//! Fixed-seed TCP soak for `fepia-net` (PR 5 acceptance).
//!
//! 10k mixed requests from 8 concurrent TCP connections over localhost,
//! run twice with the same seed: the order-independent aggregate digest
//! must be bitwise identical across the two runs *and* equal to the
//! digest of the same workload driven in-process — the wire adds nothing
//! and loses nothing. A run manifest with both digests and the server
//! counters is written to the results directory for CI to archive.
//!
//! Chaos stays off here (the chaos path is covered by
//! `net_equivalence`); the lock + clear guard below just isolates this
//! binary's tests from each other if more are added.

use fepia::net::{ClientConfig, NetClient, NetServer, ServerConfig};
use fepia::serve::workload::{
    combine_digests, request, response_digest, scenario_pool, WorkloadSpec,
};
use fepia::serve::{Service, ServiceConfig};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

static SOAK_LOCK: Mutex<()> = Mutex::new(());

fn results_dir() -> PathBuf {
    let dir = std::env::var_os("FEPIA_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"));
    std::fs::create_dir_all(&dir).expect("create results directory");
    dir
}

const CLIENTS: u64 = 8;
const SOAK_REQUESTS: u64 = 10_000;

fn soak_config() -> ServiceConfig {
    ServiceConfig {
        shards: 4,
        workers_per_shard: 2,
        queue_capacity: 512,
        cache_capacity: 16,
        ..ServiceConfig::default()
    }
}

/// Drives the soak workload through one freshly started server over TCP
/// and returns `(aggregate digest, server frame counters)`.
fn drive_tcp(spec: &WorkloadSpec) -> (u64, fepia::net::NetStatsSnapshot) {
    let pool = scenario_pool(spec);
    let served = Arc::new(Service::start(soak_config()));
    let server =
        NetServer::start(Arc::clone(&served), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    let digests: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|t| {
                let pool = &pool;
                scope.spawn(move || {
                    let mut client = NetClient::connect(addr, ClientConfig::default())
                        .expect("soak client connects");
                    let mut digest = 0u64;
                    let mut index = t;
                    while index < SOAK_REQUESTS {
                        let req = request(spec, pool, index);
                        let resp = client.call(&req).expect("chaos-off soak call succeeds");
                        assert_eq!(resp.id, index);
                        digest = combine_digests([digest, response_digest(&resp)]);
                        index += CLIENTS;
                    }
                    assert_eq!(client.reconnects(), 0, "chaos-off soak reconnected");
                    digest
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let stats = server.shutdown();
    let service_totals = Arc::try_unwrap(served)
        .ok()
        .expect("server released its service handle")
        .shutdown()
        .totals();
    assert_eq!(service_totals.completed, SOAK_REQUESTS, "dropped responses");
    assert_eq!(
        service_totals.shed_full + service_totals.shed_shutdown,
        0,
        "bounded per-connection windows must keep the queues under capacity"
    );
    (combine_digests(digests), stats)
}

/// The same workload, in-process, from the same number of client threads.
fn drive_in_process(spec: &WorkloadSpec) -> u64 {
    let pool = scenario_pool(spec);
    let service = Service::start(soak_config());
    let digests: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|t| {
                let (pool, service) = (&pool, &service);
                scope.spawn(move || {
                    let mut digest = 0u64;
                    let mut index = t;
                    while index < SOAK_REQUESTS {
                        let resp = service
                            .call(request(spec, pool, index))
                            .expect("in-process soak accepts");
                        digest = combine_digests([digest, response_digest(&resp)]);
                        index += CLIENTS;
                    }
                    digest
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    service.shutdown();
    combine_digests(digests)
}

#[test]
fn tcp_soak_10k_digest_reproducible_and_equal_in_process() {
    let _guard = SOAK_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    fepia::chaos::clear();
    let spec = WorkloadSpec {
        seed: 2_005,
        ..WorkloadSpec::default()
    };

    let (digest_a, stats_a) = drive_tcp(&spec);
    let (digest_b, stats_b) = drive_tcp(&spec);
    let in_process = drive_in_process(&spec);

    for (run, stats) in [("1", &stats_a), ("2", &stats_b)] {
        assert_eq!(stats.connections, CLIENTS, "run {run} connections");
        assert_eq!(stats.frames_read, SOAK_REQUESTS, "run {run} frames read");
        assert_eq!(
            stats.frames_written, SOAK_REQUESTS,
            "run {run} frames written"
        );
        assert_eq!(
            stats.decode_errors + stats.overloaded + stats.invalid + stats.chaos_drops,
            0,
            "run {run} saw error frames in a clean soak"
        );
    }

    let manifest_path = results_dir().join("net_soak_manifest.json");
    fepia_obs::RunManifest::new("net_soak")
        .param("seed", spec.seed)
        .param("requests", SOAK_REQUESTS)
        .param("clients", CLIENTS)
        .param("digest_tcp_run1", format!("{digest_a:016x}"))
        .param("digest_tcp_run2", format!("{digest_b:016x}"))
        .param("digest_in_process", format!("{in_process:016x}"))
        .param("frames_read", stats_a.frames_read)
        .param("frames_written", stats_a.frames_written)
        .output(manifest_path.display().to_string())
        .write_to(&manifest_path)
        .expect("write net soak manifest");

    assert_eq!(
        digest_a, digest_b,
        "same-seed TCP soak digests differ: {digest_a:016x} vs {digest_b:016x}"
    );
    assert_eq!(
        digest_a, in_process,
        "TCP digest {digest_a:016x} differs from in-process {in_process:016x}"
    );
}
