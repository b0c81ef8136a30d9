//! Request pipelining over one connection (PR 7 acceptance).
//!
//! Three contracts:
//!
//! 1. **Depth.** A 64-request batch written in one burst actually keeps
//!    ≥ 8 requests in flight inside the server (the event loop decodes
//!    and submits frames faster than a single worker drains them); the
//!    high-water mark is exported as `max_pipeline_depth` in the stats
//!    snapshot.
//! 2. **Correctness under pipelining.** Every batched response is
//!    bitwise identical to what an identically configured in-process
//!    service returns for the same sequential stream — pipelining is a
//!    transport optimization, never a semantic change.
//! 3. **Out-of-order matching.** Responses are correlated by the id
//!    echo, not arrival order: a scripted server answering a batch in
//!    *reverse* order still yields responses in request order, and a
//!    batch that reuses an id is rejected before anything is sent.

use fepia::net::frame::{read_frame, write_frame, FrameType};
use fepia::net::wire::{decode_request, encode_response};
use fepia::net::{ClientConfig, NetClient, NetError, NetServer, ServerConfig};
use fepia::serve::workload::{request, scenario_pool, WorkloadSpec};
use fepia::serve::{Service, ServiceConfig};
use std::net::TcpListener;
use std::sync::{Arc, Mutex};

static NET_LOCK: Mutex<()> = Mutex::new(());

fn net_guard() -> std::sync::MutexGuard<'static, ()> {
    let guard = NET_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    fepia::chaos::clear();
    guard
}

const BATCH: u64 = 64;

/// One shard, one worker, a queue deep enough for the whole batch: the
/// event loop ingests the 64-frame burst while the lone worker grinds,
/// so the in-flight window demonstrably fills, and the single FIFO
/// queue keeps the cache-event sequence identical to a sequential
/// in-process reference — full bitwise equality, not just verdicts.
fn pipeline_config() -> ServiceConfig {
    ServiceConfig {
        shards: 1,
        workers_per_shard: 1,
        queue_capacity: 128,
        cache_capacity: 8,
        ..ServiceConfig::default()
    }
}

#[test]
fn batch_of_64_reaches_pipeline_depth_8_and_stays_bitwise_equal() {
    let _guard = net_guard();
    let spec = WorkloadSpec {
        seed: 7_001,
        ..WorkloadSpec::default()
    };
    let pool = scenario_pool(&spec);
    let reqs: Vec<_> = (0..BATCH).map(|i| request(&spec, &pool, i)).collect();

    let reference = Service::start(pipeline_config());
    let served = Arc::new(Service::start(pipeline_config()));
    let server =
        NetServer::start(Arc::clone(&served), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = NetClient::connect(server.local_addr(), ClientConfig::default()).unwrap();

    let responses = client.call_pipelined(&reqs).expect("pipelined batch");
    assert_eq!(responses.len() as u64, BATCH);
    for (index, (req, resp)) in reqs.iter().zip(&responses).enumerate() {
        assert_eq!(resp.id, req.id, "slot {index} holds the wrong response");
        let expected = reference.call(req.clone()).expect("reference");
        assert_eq!(
            encode_response(resp),
            encode_response(&expected),
            "request {index}: pipelined response differs from in-process (bitwise)"
        );
    }

    let stats = server.shutdown();
    assert!(
        stats.max_pipeline_depth >= 8,
        "pipelining must keep >= 8 requests in flight on one connection \
         (observed high-water {})",
        stats.max_pipeline_depth
    );
    assert_eq!(stats.frames_read, BATCH);
    assert_eq!(stats.frames_written, BATCH);
    assert_eq!(stats.decode_errors + stats.overloaded + stats.invalid, 0);
    reference.shutdown();
    Arc::try_unwrap(served)
        .ok()
        .expect("server released its service handle")
        .shutdown();
}

/// A scripted server reads the whole batch, then answers in **reverse**
/// order. The client must still return responses in request order,
/// each matched to its request by the id echo.
#[test]
fn reverse_order_responses_are_matched_by_id() {
    let _guard = net_guard();
    let spec = WorkloadSpec {
        seed: 7_002,
        ..WorkloadSpec::default()
    };
    let pool = scenario_pool(&spec);
    const N: u64 = 16;
    let reqs: Vec<_> = (0..N).map(|i| request(&spec, &pool, i)).collect();

    // Real payloads to replay, from an in-process service.
    let reference = Service::start(pipeline_config());
    let payloads: Vec<Vec<u8>> = reqs
        .iter()
        .map(|r| encode_response(&reference.call(r.clone()).unwrap()))
        .collect();
    reference.shutdown();

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let script = {
        let payloads = payloads.clone();
        std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut ids = Vec::new();
            for _ in 0..N {
                let frame = read_frame(&mut conn).unwrap();
                assert_eq!(frame.frame_type, FrameType::Request);
                ids.push(decode_request(&frame.payload).unwrap().id);
            }
            assert_eq!(ids, (0..N).collect::<Vec<_>>(), "burst arrives in order");
            for id in ids.into_iter().rev() {
                write_frame(&mut conn, FrameType::Response, 0, &payloads[id as usize]).unwrap();
            }
        })
    };

    let mut client = NetClient::connect(addr, ClientConfig::default()).unwrap();
    let responses = client.call_pipelined(&reqs).expect("reverse-order batch");
    for (index, resp) in responses.iter().enumerate() {
        assert_eq!(
            resp.id, index as u64,
            "responses come back in request order"
        );
        assert_eq!(
            encode_response(resp),
            payloads[index],
            "request {index}: wrong payload matched to this id"
        );
    }
    script.join().unwrap();
}

/// Ids are the correlation keys, so a batch that reuses one is rejected
/// client-side before any bytes hit the wire.
#[test]
fn duplicate_ids_in_a_batch_are_rejected_before_sending() {
    let _guard = net_guard();
    let spec = WorkloadSpec::default();
    let pool = scenario_pool(&spec);
    let mut reqs = vec![request(&spec, &pool, 3), request(&spec, &pool, 4)];
    reqs[1].id = reqs[0].id;

    // A listener that never answers: if the client wrongly sends the
    // batch it would hang, so rejection must happen first.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut client =
        NetClient::connect(listener.local_addr().unwrap(), ClientConfig::default()).unwrap();
    match client.call_pipelined(&reqs) {
        Err(NetError::Protocol(msg)) => {
            assert!(msg.contains("reuses id"), "unexpected message: {msg}")
        }
        other => panic!("expected Protocol error for duplicate ids, got {other:?}"),
    }
}
