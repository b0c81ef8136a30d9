//! Overload brownout storm soak (PR 8 acceptance).
//!
//! The contract under overload is *degrade answer precision, not
//! availability*: every admitted request is answered with a typed
//! disposition (`Full` / `Brownout` / `DeadlineExceeded`) or refused with
//! a typed `Overloaded` frame; no worker ever burns time evaluating a
//! request whose deadline already expired in the queue; brownout answers
//! stay sound (their metric interval contains the chaos-off full-precision
//! metric) and bitwise-reproducible across same-seed runs.
//!
//! Also here: the wire-version negotiation regression (a stale frame gets
//! a typed error frame, never a panic or hang) and the stalled-server client
//! timeout regression (accept-then-silent listeners used to hang
//! `NetClient::call` forever).

use fepia::net::frame::{
    fnv1a, read_frame, write_frame, DecodeError, Frame, FrameType, HEADER_LEN, MAGIC, VERSION,
};
use fepia::net::wire::{
    decode_error, decode_response, encode_request, encode_request_with_deadline, WireError,
};
use fepia::net::{ClientConfig, NetClient, NetError, NetServer, ServerConfig};
use fepia::serve::workload::{request, scenario_pool, WorkloadSpec};
use fepia::serve::{Disposition, EvalKind, EvalRequest, Service, ServiceConfig};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

static NET_LOCK: Mutex<()> = Mutex::new(());

fn net_guard() -> std::sync::MutexGuard<'static, ()> {
    let guard = NET_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    fepia::chaos::clear();
    guard
}

/// A request heavy enough to pin a worker for tens of milliseconds: a
/// large `Moves` batch against the pooled scenario (each move is an
/// incremental `DeltaEval`, so the total is predictable and panic-free).
fn pin_request(pool: &[Arc<fepia::serve::Scenario>], id: u64) -> EvalRequest {
    let scenario = Arc::clone(&pool[0]);
    let apps = scenario.mapping().apps();
    let machines = scenario.mapping().machines();
    let moves: Vec<(usize, usize)> = (0..400_000)
        .map(|k| (k % apps, (k / 7) % machines))
        .collect();
    EvalRequest {
        id,
        scenario,
        kind: EvalKind::Moves(moves),
    }
}

/// One raw protocol conversation: write request frames by hand, read
/// response frames by hand. Lets the test control exactly what deadline
/// travels on the wire without the client's own deadline enforcement.
fn raw_conn(addr: std::net::SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).expect("connect");
    s.set_nodelay(true).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    s
}

/// The storm: a pinned worker, then an 8× burst of deadline-carrying
/// requests that must all expire in the queue and come back as typed
/// `DeadlineExceeded` dispositions with **zero evaluation work** — no
/// verdicts, no attempts, and the shard's `deadline_expired` counter
/// matching exactly.
#[test]
fn storm_expired_requests_are_dropped_at_dequeue_never_evaluated() {
    let _guard = net_guard();
    let spec = WorkloadSpec {
        seed: 8_001,
        ..WorkloadSpec::default()
    };
    let pool = scenario_pool(&spec);
    let service = Arc::new(Service::start(ServiceConfig {
        shards: 1,
        workers_per_shard: 1,
        queue_capacity: 64,
        ..ServiceConfig::default()
    }));
    let server = NetServer::start(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default())
        .expect("start server");
    let addr = server.local_addr();

    // Pin the single worker on its own connection.
    let mut pin = raw_conn(addr);
    let pin_req = pin_request(&pool, 900_000);
    write_frame(&mut pin, FrameType::Request, 0, &encode_request(&pin_req)).unwrap();
    // Wait until the service has admitted the pin, so the burst queues
    // strictly behind it.
    {
        let mut stats = NetClient::connect(addr, ClientConfig::default()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let totals = stats.stats(1).expect("stats poll").service_totals();
            if totals.submitted >= 1 {
                break;
            }
            assert!(Instant::now() < deadline, "pin request never admitted");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    // The burst: 8 requests (8× the single-worker capacity), each with a
    // 1 ms relative deadline. All queue behind the pin, so by dequeue the
    // deadline has long expired.
    const BURST: u64 = 8;
    let mut storm = raw_conn(addr);
    for i in 0..BURST {
        let req = request(&spec, &pool, i);
        write_frame(
            &mut storm,
            FrameType::Request,
            0,
            &encode_request_with_deadline(&req, 1_000),
        )
        .unwrap();
    }

    // Every burst response must be typed DeadlineExceeded with zero
    // evaluation evidence (order may vary; responses are id-matched).
    let mut seen = std::collections::HashSet::new();
    for _ in 0..BURST {
        let frame = read_frame(&mut storm).expect("typed response, not a hang");
        assert_eq!(frame.frame_type, FrameType::Response);
        let resp = decode_response(&frame.payload).unwrap();
        assert!(seen.insert(resp.id), "duplicate response id {}", resp.id);
        assert_eq!(
            resp.disposition,
            Disposition::DeadlineExceeded,
            "request {} should have expired in the queue",
            resp.id
        );
        assert!(
            resp.verdicts.is_empty(),
            "expired request {} was evaluated anyway",
            resp.id
        );
        assert_eq!(
            resp.attempts, 0,
            "expired request {} burned a worker attempt",
            resp.id
        );
    }

    // The pin itself completes at full precision.
    let frame = read_frame(&mut pin).expect("pin response");
    let pin_resp = decode_response(&frame.payload).unwrap();
    assert_eq!(pin_resp.id, 900_000);
    assert_eq!(pin_resp.disposition, Disposition::Full);
    assert_eq!(pin_resp.verdicts.len(), 400_000);

    drop(pin);
    drop(storm);
    server.shutdown();
    let totals = Arc::try_unwrap(service)
        .ok()
        .expect("sole owner after shutdown")
        .shutdown()
        .totals();
    assert_eq!(totals.deadline_expired, BURST);
    // Recovery: nothing left in flight, every submission accounted for.
    assert_eq!(totals.completed, totals.submitted);
}

/// Admission-control brownout: with the brownout threshold at zero every
/// admitted request is answered at budgeted precision, marked
/// `Brownout`, its metric interval containing the full-precision answer
/// — and two same-seed runs produce bitwise-identical responses.
#[test]
fn admission_brownout_is_sound_marked_and_reproducible() {
    let _guard = net_guard();
    let spec = WorkloadSpec {
        seed: 8_002,
        ..WorkloadSpec::default()
    };
    let pool = scenario_pool(&spec);
    const N: u64 = 24;

    // Full-precision reference, computed in-process with no brownout.
    let reference = Service::start(ServiceConfig::default());
    let full: Vec<_> = (0..N)
        .map(|i| reference.call(request(&spec, &pool, i)).unwrap())
        .collect();
    reference.shutdown();

    let run = || -> (Vec<Vec<u8>>, u64) {
        let service = Arc::new(Service::start(ServiceConfig {
            shards: 1,
            workers_per_shard: 1,
            ..ServiceConfig::default()
        }));
        let server = NetServer::start(
            Arc::clone(&service),
            "127.0.0.1:0",
            ServerConfig {
                brownout_in_flight: 0, // every admission browns out
                ..ServerConfig::default()
            },
        )
        .expect("start server");
        let mut client = NetClient::connect(server.local_addr(), ClientConfig::default()).unwrap();
        let mut encoded = Vec::new();
        for i in 0..N {
            let resp = client
                .call(&request(&spec, &pool, i))
                .expect("brownout answers");
            assert_eq!(resp.id, i);
            assert_eq!(resp.disposition, Disposition::Brownout);
            // Soundness: the (possibly widened) brownout interval must
            // contain the full-precision metric interval.
            let f = &full[i as usize];
            assert_eq!(resp.verdicts.len(), f.verdicts.len());
            for (b, f) in resp.verdicts.iter().zip(&f.verdicts) {
                assert!(
                    b.metric_lo <= f.metric_lo && f.metric_hi <= b.metric_hi,
                    "brownout interval [{}, {}] excludes full-precision [{}, {}]",
                    b.metric_lo,
                    b.metric_hi,
                    f.metric_lo,
                    f.metric_hi
                );
            }
            encoded.push(fepia::net::encode_response(&resp));
        }
        let net = server.shutdown();
        assert_eq!(net.admission_brownout, N);
        assert_eq!(net.admission_shed, 0);
        let totals = Arc::try_unwrap(service)
            .ok()
            .expect("sole owner")
            .shutdown()
            .totals();
        (encoded, totals.brownout_evals)
    };

    let (a, brownouts_a) = run();
    let (b, brownouts_b) = run();
    assert_eq!(brownouts_a, N);
    assert_eq!(brownouts_b, N);
    // Bitwise reproducibility: the canonical encoding is byte-equal
    // across runs, so every f64 bit pattern and tag matches.
    assert_eq!(a, b, "same-seed brownout runs must be bitwise identical");
}

/// Admission-control shed: with a pinned worker and the shed threshold at
/// 4, a burst of 8 yields exactly 4 admissions and 4 typed `Overloaded`
/// refusals — availability degrades last, and typed.
#[test]
fn admission_shed_is_typed_and_counts() {
    let _guard = net_guard();
    let spec = WorkloadSpec {
        seed: 8_003,
        ..WorkloadSpec::default()
    };
    let pool = scenario_pool(&spec);
    let service = Arc::new(Service::start(ServiceConfig {
        shards: 1,
        workers_per_shard: 1,
        queue_capacity: 64,
        ..ServiceConfig::default()
    }));
    let server = NetServer::start(
        Arc::clone(&service),
        "127.0.0.1:0",
        ServerConfig {
            brownout_in_flight: 2,
            shed_in_flight: 4,
            ..ServerConfig::default()
        },
    )
    .expect("start server");
    let addr = server.local_addr();

    // Pin the worker, then wait for its admission.
    let mut pin = raw_conn(addr);
    write_frame(
        &mut pin,
        FrameType::Request,
        0,
        &encode_request(&pin_request(&pool, 900_001)),
    )
    .unwrap();
    {
        let mut stats = NetClient::connect(addr, ClientConfig::default()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(30);
        while stats.stats(1).expect("stats").service_totals().submitted < 1 {
            assert!(Instant::now() < deadline, "pin never admitted");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    // Burst of 8 on one connection: in-flight climbs 1→4 (pin + 3
    // admitted, the 4th admission hits the threshold), the rest shed.
    let mut storm = raw_conn(addr);
    for i in 0..8u64 {
        let req = request(&spec, &pool, i);
        write_frame(&mut storm, FrameType::Request, 0, &encode_request(&req)).unwrap();
    }
    let mut full = 0u64;
    let mut brownout = 0u64;
    let mut shed = 0u64;
    for _ in 0..8 {
        let frame = read_frame(&mut storm).expect("typed outcome for every request");
        match frame.frame_type {
            FrameType::Response => match decode_response(&frame.payload).unwrap().disposition {
                Disposition::Full => full += 1,
                Disposition::Brownout => brownout += 1,
                Disposition::DeadlineExceeded => panic!("no deadline was set"),
            },
            FrameType::Error => {
                let (_, err) = decode_error(&frame.payload).unwrap();
                assert!(matches!(err, WireError::Overloaded { .. }), "{err:?}");
                shed += 1;
            }
            other => panic!("unexpected frame type {other:?}"),
        }
    }
    // The pin occupies one in-flight slot. The first burst request is
    // admitted at in-flight 1 (< brownout threshold 2) at full precision;
    // the next two are admitted brownout-hinted at in-flight 2 and 3; the
    // count then sits at the shed threshold of 4, refusing the rest.
    assert_eq!(
        (full, brownout, shed),
        (1, 2, 5),
        "precision degrades first, availability last"
    );
    let frame = read_frame(&mut pin).expect("pin response");
    assert_eq!(
        decode_response(&frame.payload).unwrap().disposition,
        Disposition::Full,
        "the pin was admitted before any brownout pressure"
    );
    drop(pin);
    drop(storm);
    let net = server.shutdown();
    assert_eq!(net.admission_shed, 5);
    assert_eq!(net.admission_brownout, 2);
    drop(service);
}

/// Wire-version negotiation (satellite): a frame from the previous wire
/// version is answered with a typed error frame naming that version —
/// never a decode panic, a mis-parse, a checksum error, or a hang.
#[test]
fn v2_frame_yields_typed_version_error_not_a_hang() {
    let _guard = net_guard();
    let spec = WorkloadSpec {
        seed: 8_004,
        ..WorkloadSpec::default()
    };
    let pool = scenario_pool(&spec);
    let service = Arc::new(Service::start(Default::default()));
    let server = NetServer::start(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default())
        .expect("start server");

    let payload = encode_request(&request(&spec, &pool, 0));
    // A well-formed current frame rewritten to claim the previous version:
    // the version byte is outside the checksum.
    let mut stale = Frame::new(FrameType::Request, payload.clone()).encode();
    assert_eq!(stale[4], VERSION);
    stale[4] = VERSION - 1;
    // A complete frame built the v3 way: FNV-1a checksum, version byte 3.
    // The version is judged before the checksum, so the error is typed as
    // a version error, not a checksum mismatch.
    let mut v3 = MAGIC.to_vec();
    v3.extend_from_slice(&[3, 1, 0, 0]); // version, request type, reserved
    v3.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    v3.extend_from_slice(&fnv1a(&payload).to_le_bytes());
    v3.extend_from_slice(&0u64.to_le_bytes());
    v3.extend_from_slice(&payload);
    assert_eq!(Frame::decode(&v3), Err(DecodeError::UnsupportedVersion(3)));

    for (bytes, version) in [(stale, VERSION - 1), (v3, 3)] {
        let mut conn = raw_conn(server.local_addr());
        use std::io::Write as _;
        conn.write_all(&bytes).unwrap();
        conn.flush().unwrap();

        let frame = read_frame(&mut conn).expect("typed error frame, not a hang");
        assert_eq!(frame.frame_type, FrameType::Error);
        let (id, err) = decode_error(&frame.payload).unwrap();
        assert_eq!(id, 0, "version errors cannot echo an id they never decoded");
        match err {
            WireError::Invalid(msg) => assert!(
                msg.contains(&format!("unsupported protocol version {version}")),
                "error must name the offending version: {msg}"
            ),
            other => panic!("expected Invalid, got {other:?}"),
        }
        // The server closed the stream after the protocol error; the next
        // read is EOF, not a hang.
        assert!(read_frame(&mut conn).is_err());
    }
    server.shutdown();
    drop(service);
}

/// Client io-timeout regression (satellite): a server that accepts and
/// then goes silent must surface as a timed-out typed error on the
/// reconnect path, not block `call` forever.
#[test]
fn stalled_server_times_out_instead_of_hanging() {
    let _guard = net_guard();
    let spec = WorkloadSpec {
        seed: 8_005,
        ..WorkloadSpec::default()
    };
    let pool = scenario_pool(&spec);

    // Accept-then-silent listener: holds every socket open, never writes.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let hold: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
    let hold_in = Arc::clone(&hold);
    let accepter = std::thread::spawn(move || {
        while let Ok((sock, _)) = listener.accept() {
            let mut held = hold_in.lock().unwrap();
            held.push(sock);
            if held.len() >= 8 {
                return;
            }
        }
    });

    let mut client = NetClient::connect(
        addr,
        ClientConfig {
            max_attempts: 2,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(2),
            io_timeout: Duration::from_millis(100),
        },
    )
    .expect("connect succeeds; only reads stall");

    let started = Instant::now();
    let err = client
        .call(&request(&spec, &pool, 0))
        .expect_err("a silent server cannot answer");
    let elapsed = started.elapsed();
    match err {
        NetError::RetriesExhausted { attempts, last } => {
            assert_eq!(attempts, 2);
            assert!(
                matches!(*last, NetError::Io(ref e) if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut),
                "terminal cause should be a read timeout, got {last}"
            );
        }
        other => panic!("expected RetriesExhausted, got {other}"),
    }
    assert!(
        elapsed < Duration::from_secs(10),
        "two 100 ms timeouts must not take {elapsed:?}"
    );

    // The deadline path fails even tighter, with the typed deadline error.
    let started = Instant::now();
    let err = client
        .call_with_deadline(&request(&spec, &pool, 1), Duration::from_millis(150))
        .expect_err("deadline expires against a silent server");
    assert!(
        matches!(err, NetError::DeadlineExceeded { .. }),
        "expected DeadlineExceeded, got {err}"
    );
    assert!(started.elapsed() < Duration::from_secs(10));

    drop(client);
    // Unblock the accepter with dummy connections so the thread exits.
    while !accepter.is_finished() {
        let _ = TcpStream::connect(addr);
    }
    accepter.join().unwrap();
}

/// End-to-end deadline happy path over TCP: a healthy server inside the
/// budget answers `Full`, bitwise-equal to the in-process evaluation.
#[test]
fn deadline_call_on_healthy_server_is_full_precision() {
    let _guard = net_guard();
    let spec = WorkloadSpec {
        seed: 8_006,
        ..WorkloadSpec::default()
    };
    let pool = scenario_pool(&spec);
    let service = Arc::new(Service::start(Default::default()));
    let server = NetServer::start(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default())
        .expect("start server");
    let mut client = NetClient::connect(server.local_addr(), ClientConfig::default()).unwrap();

    let req = request(&spec, &pool, 7);
    let over_tcp = client
        .call_with_deadline(&req, Duration::from_secs(30))
        .expect("well within budget");
    assert_eq!(over_tcp.disposition, Disposition::Full);

    let in_process = service.call(request(&spec, &pool, 7)).unwrap();
    assert!(
        fepia::serve::workload::verdicts_bitwise_equal(&over_tcp.verdicts, &in_process.verdicts),
        "deadline transport must not perturb the answer"
    );
    server.shutdown();
    drop(service);
}

/// The header size is part of the wire contract: v3 changed the payloads
/// and v4 the payload checksum, never the 28-byte frame header.
#[test]
fn v3_keeps_the_28_byte_header() {
    assert_eq!(HEADER_LEN, 28);
    assert_eq!(fepia::net::VERSION, 4);
}
