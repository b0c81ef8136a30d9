//! TCP ↔ in-process equivalence for `fepia-net` (PR 5 acceptance).
//!
//! The wire layer is a *pure transport*: a response served over TCP must
//! be bitwise identical — every radius, metric bound, cache outcome and
//! attempt count — to what an identically configured in-process
//! [`Service`] returns for the same request stream. Equality is asserted
//! on the canonical encoding (`encode_response` bytes), which compares
//! `f64`s by bit pattern, so NaNs and signed zeros cannot hide drift.
//!
//! Under chaos (`net.read` dropped connections, `net.write` torn frames,
//! `serve.worker` panics, `mapping.delta.load` poisoning — the fixed CI
//! seed), the client's reconnect/retry loop must still deliver *verdicts*
//! bitwise equal to the chaos-off ground truth: faults may cost retries
//! and change transport metadata (attempts, cache outcome), never
//! numbers. Deterministic fake-server tests pin down the client's typed
//! retry classification (Overloaded → backoff, Invalid → permanent, torn
//! frame → reconnect), and a drain test shows shutdown answers accepted
//! work.
//!
//! Chaos state is process-global, so every test holds one lock.

use fepia::net::frame::{read_frame, write_frame, Frame, FrameType};
use fepia::net::wire::{encode_error, encode_response, WireError};
use fepia::net::{ClientConfig, NetClient, NetError, NetServer, ServerConfig};
use fepia::serve::workload::{
    moves_request, request, scenario_pool, verdicts_bitwise_equal, WorkloadSpec,
};
use fepia::serve::{Service, ServiceConfig, ShedReason};
use std::net::TcpListener;
use std::sync::{Arc, Mutex, Once};

static NET_LOCK: Mutex<()> = Mutex::new(());

/// Serializes the tests (chaos is process-wide) with the panic hook
/// silencing intentional injected worker panics, chaos initially off.
fn net_guard() -> std::sync::MutexGuard<'static, ()> {
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
    let guard = NET_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    fepia::chaos::clear();
    guard
}

fn equivalence_config() -> ServiceConfig {
    // One worker per shard and a sequential client keep the cache-event
    // sequence (Compiled/Hit) deterministic, so even the cache outcome
    // field must match bitwise.
    ServiceConfig {
        shards: 2,
        workers_per_shard: 1,
        queue_capacity: 64,
        cache_capacity: 8,
        ..ServiceConfig::default()
    }
}

const REQUESTS: u64 = 200;

#[test]
fn tcp_responses_bitwise_equal_in_process_chaos_off() {
    let _guard = net_guard();
    let spec = WorkloadSpec {
        seed: 5_001,
        ..WorkloadSpec::default()
    };
    let pool = scenario_pool(&spec);

    // Two identically configured services, fed the same sequential stream:
    // one in-process (the reference), one behind the TCP server.
    let reference = Service::start(equivalence_config());
    let served = Arc::new(Service::start(equivalence_config()));
    let server =
        NetServer::start(Arc::clone(&served), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = NetClient::connect(server.local_addr(), ClientConfig::default()).unwrap();

    for index in 0..REQUESTS {
        let req = request(&spec, &pool, index);
        let expected = reference.call(req.clone()).expect("reference accepts");
        let over_tcp = client.call(&req).expect("tcp call succeeds chaos-off");
        assert_eq!(
            encode_response(&over_tcp),
            encode_response(&expected),
            "request {index}: TCP response differs from in-process (bitwise)"
        );
    }
    assert_eq!(client.reconnects(), 0, "chaos-off must not reconnect");
    assert_eq!(client.retries(), 0, "chaos-off must not retry");

    let stats = server.shutdown();
    assert_eq!(stats.frames_read, REQUESTS);
    assert_eq!(stats.frames_written, REQUESTS);
    assert_eq!(stats.decode_errors + stats.overloaded + stats.invalid, 0);
    reference.shutdown();
    Arc::try_unwrap(served)
        .ok()
        .expect("server released its service handle")
        .shutdown();
}

const CHAOS_REQUESTS: u64 = 300;

#[test]
fn tcp_verdicts_bitwise_equal_ground_truth_under_chaos() {
    let _guard = net_guard();
    let spec = WorkloadSpec {
        seed: 5_002,
        scenarios: 6,
        ..WorkloadSpec::default()
    };
    let pool = scenario_pool(&spec);

    // Ground truth with chaos off: the moves-only workload stays Exact.
    let truth: Vec<_> = {
        let service = Service::start(equivalence_config());
        let out = (0..CHAOS_REQUESTS)
            .map(|i| {
                service
                    .call(moves_request(&spec, &pool, i))
                    .expect("clean run accepts")
            })
            .collect();
        service.shutdown();
        out
    };

    // Same workload under the fixed CI chaos seed: worker panics are
    // retried server-side (16 attempts), dropped connections and torn
    // frames are retried client-side (16 attempts, deterministic backoff).
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

    for (index, expected) in truth.iter().enumerate() {
        let req = moves_request(&spec, &pool, index as u64);
        let over_tcp = client
            .call(&req)
            .unwrap_or_else(|e| panic!("request {index} exhausted retries under chaos: {e}"));
        assert_eq!(over_tcp.id, expected.id);
        assert!(
            verdicts_bitwise_equal(&over_tcp.verdicts, &expected.verdicts),
            "request {index}: verdicts under chaos differ bitwise from ground truth"
        );
    }
    let stats = server.shutdown();
    fepia::chaos::clear();
    assert!(
        stats.chaos_drops > 0,
        "20% injection over {CHAOS_REQUESTS} requests must actually fire"
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

/// Deterministic client-side retry classification against a scripted
/// server: an `Overloaded` error frame is retried on the same connection;
/// an `Invalid` error frame is returned immediately, permanently.
#[test]
fn client_backs_off_on_overloaded_and_fails_fast_on_invalid() {
    let _guard = net_guard();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let script = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        // First frame → Overloaded (retryable, same connection).
        let f = read_frame(&mut conn).unwrap();
        assert_eq!(f.frame_type, FrameType::Request);
        let overloaded = encode_error(
            7,
            &WireError::Overloaded {
                shard: 1,
                reason: ShedReason::QueueFull,
            },
        );
        write_frame(&mut conn, FrameType::Error, 0, &overloaded).unwrap();
        // The retry arrives on the SAME connection → Invalid (permanent).
        let f = read_frame(&mut conn).unwrap();
        assert_eq!(f.frame_type, FrameType::Request);
        let invalid = encode_error(7, &WireError::Invalid("scripted rejection".into()));
        write_frame(&mut conn, FrameType::Error, 0, &invalid).unwrap();
    });

    let spec = WorkloadSpec::default();
    let pool = scenario_pool(&spec);
    let mut req = request(&spec, &pool, 0);
    req.id = 7;
    let mut client = NetClient::connect(addr, ClientConfig::default()).unwrap();
    match client.call(&req) {
        Err(NetError::Invalid(msg)) => assert_eq!(msg, "scripted rejection"),
        other => panic!("expected Invalid, got {other:?}"),
    }
    assert_eq!(client.retries(), 1, "exactly one backoff retry");
    assert_eq!(client.reconnects(), 0, "Overloaded keeps the connection");
    script.join().unwrap();
}

/// Deterministic transport recovery: a torn response frame forces a
/// reconnect, and the resent request succeeds on the new connection.
#[test]
fn client_reconnects_through_torn_frame() {
    let _guard = net_guard();
    let spec = WorkloadSpec::default();
    let pool = scenario_pool(&spec);
    let req = request(&spec, &pool, 11);

    // A real response to replay from the scripted server.
    let service = Service::start(equivalence_config());
    let expected = service.call(req.clone()).unwrap();
    service.shutdown();
    let response_payload = encode_response(&expected);

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let script = {
        let response_payload = response_payload.clone();
        std::thread::spawn(move || {
            // Connection 1: read the request, answer with half a frame.
            let (mut conn, _) = listener.accept().unwrap();
            let _ = read_frame(&mut conn).unwrap();
            let full = Frame::new(FrameType::Response, response_payload.clone()).encode();
            use std::io::Write;
            conn.write_all(&full[..full.len() / 2]).unwrap();
            drop(conn);
            // Connection 2 (the reconnect): answer properly.
            let (mut conn, _) = listener.accept().unwrap();
            let _ = read_frame(&mut conn).unwrap();
            write_frame(&mut conn, FrameType::Response, 0, &response_payload).unwrap();
        })
    };

    let mut client = NetClient::connect(addr, ClientConfig::default()).unwrap();
    let got = client.call(&req).expect("recovers through the torn frame");
    assert_eq!(
        encode_response(&got),
        response_payload,
        "bitwise after recovery"
    );
    assert_eq!(client.reconnects(), 1);
    assert_eq!(client.retries(), 1);
    script.join().unwrap();
}

/// Regression for the empty-body ambiguity: a `Moves`/`Origins` request
/// carrying an empty list would be answered with zero verdicts — a
/// response a client cannot tell apart from a dropped evaluation. The
/// wire layer must reject both as typed `Invalid` (permanent, no retry),
/// and an empty explicit curve grid gets the same treatment.
#[test]
fn empty_kind_bodies_yield_typed_invalid_over_the_wire() {
    let _guard = net_guard();
    let spec = WorkloadSpec::default();
    let pool = scenario_pool(&spec);
    let served = Arc::new(Service::start(equivalence_config()));
    let server =
        NetServer::start(Arc::clone(&served), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = NetClient::connect(server.local_addr(), ClientConfig::default()).unwrap();

    use fepia::serve::{CurveGrid, CurveSpec, EvalKind, EvalRequest};
    let cases: [(EvalKind, &str); 3] = [
        (
            EvalKind::Moves(Vec::new()),
            "moves request carries no moves",
        ),
        (
            EvalKind::Origins(Vec::new()),
            "origins request carries no origins",
        ),
        (
            EvalKind::Curve(CurveSpec {
                grid: CurveGrid::Explicit(Vec::new()),
            }),
            "curve grid must contain at least one level",
        ),
    ];
    for (id, (kind, expected)) in cases.into_iter().enumerate() {
        let req = EvalRequest {
            id: id as u64,
            scenario: Arc::clone(&pool[0]),
            kind,
        };
        match client.call(&req) {
            Err(NetError::Invalid(msg)) => assert_eq!(msg, expected, "request {id}"),
            Ok(resp) => panic!(
                "request {id}: empty body served {} verdicts instead of a typed rejection",
                resp.verdicts.len()
            ),
            other => panic!("request {id}: expected Invalid, got {other:?}"),
        }
    }
    assert_eq!(client.retries(), 0, "Invalid must never be retried");
    assert_eq!(client.reconnects(), 0, "Invalid must keep the connection");

    let stats = server.shutdown();
    assert_eq!(stats.invalid, 3, "every empty body counted as invalid");
    assert_eq!(stats.frames_written, 3, "each rejection was answered");
    Arc::try_unwrap(served)
        .ok()
        .expect("server released its service handle")
        .shutdown();
}

/// Graceful drain: every request the server accepted before shutdown is
/// answered before the connection closes.
#[test]
fn shutdown_drains_accepted_requests() {
    let _guard = net_guard();
    let spec = WorkloadSpec {
        seed: 5_003,
        ..WorkloadSpec::default()
    };
    let pool = scenario_pool(&spec);

    let reference = Service::start(equivalence_config());
    let served = Arc::new(Service::start(equivalence_config()));
    let server =
        NetServer::start(Arc::clone(&served), "127.0.0.1:0", ServerConfig::default()).unwrap();

    const PIPELINED: u64 = 10;
    let mut conn = std::net::TcpStream::connect(server.local_addr()).unwrap();
    for index in 0..PIPELINED {
        let req = request(&spec, &pool, index);
        write_frame(
            &mut conn,
            FrameType::Request,
            0,
            &fepia::net::wire::encode_request(&req),
        )
        .unwrap();
    }
    // Let the reader accept all ten, then drain.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while server.stats().frames_read < PIPELINED {
        assert!(
            std::time::Instant::now() < deadline,
            "server never read the pipelined frames"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let stats = server.shutdown();
    assert_eq!(stats.frames_written, PIPELINED, "drain answered everything");

    // All ten responses are readable — possibly out of request order
    // (shard workers race; the event loop writes completions as they
    // land) — and each is bitwise equal to the in-process reference fed
    // the same sequential stream, matched by the id echo.
    let mut by_id = std::collections::HashMap::new();
    for _ in 0..PIPELINED {
        let frame = read_frame(&mut conn).expect("drained response present");
        assert_eq!(frame.frame_type, FrameType::Response);
        let resp = fepia::net::wire::decode_response(&frame.payload).unwrap();
        assert!(
            by_id.insert(resp.id, frame.payload).is_none(),
            "duplicate response id {}",
            resp.id
        );
    }
    for index in 0..PIPELINED {
        let req = request(&spec, &pool, index);
        let expected = reference.call(req).unwrap();
        let payload = by_id
            .get(&index)
            .unwrap_or_else(|| panic!("no response for request {index}"));
        assert_eq!(payload, &encode_response(&expected), "request {index}");
    }
    reference.shutdown();
    Arc::try_unwrap(served)
        .ok()
        .expect("handle released")
        .shutdown();
}
