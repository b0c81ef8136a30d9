//! Fuzz coverage for the `fepia-net` codec (PR 5 acceptance).
//!
//! The wire protocol's contract is *total decoding*: whatever bytes arrive
//! — truncated, bit-flipped, or pure noise — the decoder returns a typed
//! [`DecodeError`] or a well-formed value. It must never panic, and it
//! must never silently misparse: the checksum makes any payload mutation
//! detectable, so a mutated frame either fails typed or (when only the
//! frame-type byte was rewritten to another valid type) still carries the
//! original payload bytes verbatim.
//!
//! Three layers are fuzzed: raw frames ([`Frame::decode`]), the streaming
//! reader ([`read_frame`] over a cursor), and the request/response/error
//! payload codecs (structural decode + semantic validation, which may
//! reject but may not panic).

use fepia::net::frame::{read_frame, Frame, FrameReadError, FrameType};
use fepia::net::wire::{
    decode_error, decode_request, decode_response, encode_request, encode_response,
};
use fepia::serve::workload::{request, scenario_pool, WorkloadSpec};
use fepia::serve::{CurveGrid, CurveSpec, EvalKind, EvalRequest, Service};
use proptest::prelude::*;
use std::io::Cursor;
use std::sync::Arc;

/// A deterministic pool of valid encoded request payloads to mutate
/// (built once; proptest calls the accessor per case).
fn valid_request_payloads() -> &'static Vec<Vec<u8>> {
    static PAYLOADS: std::sync::OnceLock<Vec<Vec<u8>>> = std::sync::OnceLock::new();
    PAYLOADS.get_or_init(|| {
        let spec = WorkloadSpec::default();
        let pool = scenario_pool(&spec);
        (0..8)
            .map(|i| encode_request(&request(&spec, &pool, i)))
            .collect()
    })
}

/// A valid encoded response payload (real service output, so the verdict
/// variants that actually occur in production are covered).
fn valid_response_payload() -> &'static Vec<u8> {
    static PAYLOAD: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    PAYLOAD.get_or_init(|| {
        let spec = WorkloadSpec::default();
        let pool = scenario_pool(&spec);
        let service = Service::start(Default::default());
        let resp = service
            .call(request(&spec, &pool, 3))
            .expect("clean service answers");
        service.shutdown();
        encode_response(&resp)
    })
}

/// Valid encoded `Curve` request payloads, one per grid mode, to mutate.
fn valid_curve_request_payloads() -> &'static Vec<Vec<u8>> {
    static PAYLOADS: std::sync::OnceLock<Vec<Vec<u8>>> = std::sync::OnceLock::new();
    PAYLOADS.get_or_init(|| {
        let pool = scenario_pool(&WorkloadSpec::default());
        curve_requests(&pool).iter().map(encode_request).collect()
    })
}

/// One explicit-grid and one adaptive-grid curve request over the pool.
fn curve_requests(pool: &[Arc<fepia::serve::Scenario>]) -> Vec<EvalRequest> {
    vec![
        EvalRequest {
            id: 41,
            scenario: Arc::clone(&pool[0]),
            kind: EvalKind::Curve(CurveSpec {
                grid: CurveGrid::Explicit(vec![1.0, 1.1, 1.25, 1.5, 2.0]),
            }),
        },
        EvalRequest {
            id: 42,
            scenario: Arc::clone(&pool[1]),
            kind: EvalKind::Curve(CurveSpec {
                grid: CurveGrid::Adaptive {
                    tau_lo: 1.0,
                    tau_hi: 2.5,
                    max_depth: 4,
                    rho_resolution: 1e-3,
                },
            }),
        },
    ]
}

/// A valid encoded `Curve` response (real service output, so the trailing
/// curve-meta section is populated).
fn valid_curve_response_payload() -> &'static Vec<u8> {
    static PAYLOAD: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    PAYLOAD.get_or_init(|| {
        let pool = scenario_pool(&WorkloadSpec::default());
        let service = Service::start(Default::default());
        let resp = service
            .call(curve_requests(&pool).remove(0))
            .expect("clean service answers curves");
        service.shutdown();
        assert!(resp.curve.is_some(), "curve responses carry meta");
        encode_response(&resp)
    })
}

proptest! {
    /// Any byte vector fed to `Frame::decode` yields Ok or a typed error —
    /// never a panic. (Payload validity is the wire layer's business.)
    #[test]
    fn frame_decode_is_total_on_noise(bytes in prop::collection::vec(0u8..=255, 0..256usize)) {
        let _ = Frame::decode(&bytes); // must simply not panic
    }

    /// Same property through the streaming reader: a cursor over noise
    /// produces a typed `FrameReadError`, never a panic, and mid-frame
    /// truncation is reported as a decode error rather than `Closed`.
    #[test]
    fn read_frame_is_total_on_noise(bytes in prop::collection::vec(0u8..=255, 0..256usize)) {
        match read_frame(&mut Cursor::new(&bytes)) {
            Ok(_) | Err(FrameReadError::Decode(_)) | Err(FrameReadError::Io(_)) => {}
            Err(FrameReadError::Closed) => prop_assert!(bytes.is_empty(),
                "Closed is reserved for clean EOF before the first byte"),
        }
    }

    /// Single-byte mutation of a valid frame: decode either fails typed or
    /// returns a frame whose payload is byte-identical to the original
    /// (only a frame-type rewrite can survive the checksum).
    #[test]
    fn mutated_frames_never_misparse(
        (which, pos_seed, xor) in (0usize..8, 0usize..4096, 1u8..=255)
    ) {
        let payloads = valid_request_payloads();
        let payload = &payloads[which % payloads.len()];
        let mut bytes = Frame::new(FrameType::Request, payload.clone()).encode();
        let pos = pos_seed % bytes.len();
        bytes[pos] ^= xor;
        // A typed rejection is the desired outcome; the survivable
        // mutations are a frame-type rewrite at offset 5 and the
        // unchecksummed trace-id bytes at 20..28 — both must leave the
        // payload byte-identical (they change routing/attribution, never
        // data).
        if let Ok(frame) = Frame::decode(&bytes) {
            prop_assert_eq!(&frame.payload, payload,
                "mutation at byte {} misparsed the payload", pos);
            prop_assert!(pos == 5 || (20..28).contains(&pos),
                "mutation at byte {} unexpectedly survived", pos);
        }
    }

    /// Truncating a valid frame at any interior cut yields a typed error
    /// from both the slice decoder and the streaming reader.
    #[test]
    fn truncated_frames_fail_typed(
        (which, cut_seed) in (0usize..8, 0usize..4096)
    ) {
        let payloads = valid_request_payloads();
        let payload = &payloads[which % payloads.len()];
        let bytes = Frame::new(FrameType::Request, payload.clone()).encode();
        let cut = 1 + cut_seed % (bytes.len() - 1); // 1..len: strictly partial
        prop_assert!(Frame::decode(&bytes[..cut]).is_err());
        match read_frame(&mut Cursor::new(&bytes[..cut])) {
            Err(FrameReadError::Decode(_)) | Err(FrameReadError::Io(_)) => {}
            other => prop_assert!(false, "cut at {} gave {:?}", cut, other),
        }
    }

    /// The request payload codec is total under mutation: structural decode
    /// returns Ok or a typed error, and when it returns Ok the semantic
    /// validation (`into_request`) returns Ok or Err — neither panics,
    /// whatever floats/indices the mutation produced.
    #[test]
    fn mutated_request_payloads_never_panic(
        (which, pos_seed, xor) in (0usize..8, 0usize..4096, 1u8..=255)
    ) {
        let payloads = valid_request_payloads();
        let mut payload = payloads[which % payloads.len()].clone();
        let pos = pos_seed % payload.len();
        payload[pos] ^= xor;
        if let Ok(decoded) = decode_request(&payload) {
            let _ = decoded.into_request(); // Ok or Err(String), never panic
        }
    }

    /// Response and error payload codecs are likewise total on mutation
    /// and on raw noise.
    #[test]
    fn mutated_response_and_error_payloads_never_panic(
        (pos_seed, xor, noise) in
            (0usize..4096, 1u8..=255, prop::collection::vec(0u8..=255, 0..128usize))
    ) {
        let mut payload = valid_response_payload().clone();
        let pos = pos_seed % payload.len();
        payload[pos] ^= xor;
        let _ = decode_response(&payload);
        let _ = decode_response(&noise);
        let _ = decode_error(&noise);
    }

    /// `Curve` frames obey the same misparse contract as every other
    /// kind: a single-byte mutation is either rejected typed or survives
    /// only at the unchecksummed offsets with the payload intact.
    #[test]
    fn mutated_curve_frames_never_misparse(
        (which, pos_seed, xor) in (0usize..2, 0usize..4096, 1u8..=255)
    ) {
        let payloads = valid_curve_request_payloads();
        let payload = &payloads[which % payloads.len()];
        let mut bytes = Frame::new(FrameType::Request, payload.clone()).encode();
        let pos = pos_seed % bytes.len();
        bytes[pos] ^= xor;
        if let Ok(frame) = Frame::decode(&bytes) {
            prop_assert_eq!(&frame.payload, payload,
                "mutation at byte {} misparsed the curve payload", pos);
            prop_assert!(pos == 5 || (20..28).contains(&pos),
                "mutation at byte {} unexpectedly survived", pos);
        }
    }

    /// Curve request decoding is total under byte mutation: grid tags,
    /// level counts and IEEE bits can all be corrupted; the decoder and
    /// the semantic validation return typed results, never panic, and
    /// never over-allocate on a hostile level count.
    #[test]
    fn mutated_curve_request_payloads_never_panic(
        (which, pos_seed, xor) in (0usize..2, 0usize..4096, 1u8..=255)
    ) {
        let payloads = valid_curve_request_payloads();
        let mut payload = payloads[which % payloads.len()].clone();
        let pos = pos_seed % payload.len();
        payload[pos] ^= xor;
        if let Ok(decoded) = decode_request(&payload) {
            let _ = decoded.into_request(); // Ok or Err(String), never panic
        }
    }

    /// Curve response decoding (the trailing per-point τ array and
    /// monotone flag) is likewise total on mutation and raw noise, and
    /// every truncation of the real payload fails typed.
    #[test]
    fn mutated_curve_response_payloads_never_panic(
        (pos_seed, xor, cut_seed) in (0usize..4096, 1u8..=255, 0usize..4096)
    ) {
        let mut payload = valid_curve_response_payload().clone();
        let cut = cut_seed % payload.len();
        prop_assert!(decode_response(&payload[..cut]).is_err(),
            "truncation at {} must fail typed", cut);
        let pos = pos_seed % payload.len();
        payload[pos] ^= xor;
        let _ = decode_response(&payload); // Ok or typed error, never panic
    }
}

/// A hostile length claim on the per-point τ array — the count field
/// rewritten to promise ~10^18 levels — must be rejected by the
/// pre-allocation guard before any allocation, not trusted.
#[test]
fn hostile_curve_point_count_fails_typed() {
    let payload = valid_curve_response_payload();
    // Trailing section layout: ... count:u64, τ×8 each, monotone:u8.
    let taus = 5; // curve_requests()[0] explicit grid length
    let count_pos = payload.len() - 1 - taus * 8 - 8;
    let mut hostile = payload.clone();
    hostile[count_pos..count_pos + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(
        decode_response(&hostile).is_err(),
        "a 2^64 point-count claim must fail typed, not allocate"
    );
}
