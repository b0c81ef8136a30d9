//! The frame layer: length-prefixed, versioned, checksummed.
//!
//! Every message on a fepia-net connection is one frame:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  = b"FEPN"
//! 4       1     version = 4
//! 5       1     frame type (1 request, 2 response, 3 error,
//!               4 stats request, 5 stats response, 6 submit job,
//!               7 job status, 8 job result, 9 cancel job)
//! 6       2     reserved, must be 0 (LE)
//! 8       4     payload length in bytes (LE)
//! 12      8     payload checksum (LE), fepia_obs::hash::checksum
//! 20      8     trace id (LE; 0 = untraced)
//! 28      n     payload
//! ```
//!
//! Version 2 appended the 8-byte trace id to the version-1 header: the id
//! a client minted for the request (see [`fepia_obs::trace`]), echoed
//! verbatim on the response so one JSONL stream stitches client- and
//! server-side spans together. It is metadata, not payload: deliberately
//! *outside* the checksum, so trace plumbing can never turn a valid
//! payload into a checksum failure (a corrupted trace id corrupts
//! attribution, never data).
//!
//! Version 3 keeps the header layout and changes the payloads: requests
//! carry a relative deadline (microseconds, 0 = none), responses carry a
//! disposition byte (full / brownout / deadline-exceeded), and the stats
//! reply grows deadline/brownout counters.
//!
//! Version 4 keeps the header layout and the payloads and changes the
//! checksum: byte-serial FNV-1a 64 gave way to the word-at-a-time
//! [`fepia_obs::hash::checksum`] (four 64-bit lanes over 32-byte blocks),
//! so each payload is hashed a word at a time, once to write and once to
//! verify. Any change confined to one 8-byte word — every single-byte or
//! single-bit corruption — still changes the checksum.
//!
//! A frame from an older version yields a typed
//! [`DecodeError::UnsupportedVersion`] — never a mis-parse, panic, or
//! hang. The version byte is judged before the checksum is read, so a v3
//! peer sees the version error, not a [`DecodeError::ChecksumMismatch`].
//!
//! Decoding is total: every malformed input maps to a typed
//! [`DecodeError`] — bad magic, unknown version or type, a length that
//! exceeds [`MAX_PAYLOAD`] or the bytes actually present, a checksum
//! mismatch. No input, however corrupt, may panic or mis-parse; the codec
//! fuzz suite at the workspace root holds the layer to that (arbitrary
//! byte mutations of valid frames must surface as typed errors, except in
//! the unchecksummed trace-id bytes, which only ever change attribution).
//!
//! The checksum is not a security boundary — it catches torn writes and
//! corrupted reads (e.g. the `net.write` chaos site truncating a frame
//! mid-payload), turning them into [`DecodeError::ChecksumMismatch`] or
//! [`DecodeError::Truncated`] instead of a mis-parsed payload.

use fepia_obs::hash::checksum;
use std::io::{Read, Write};

/// First four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"FEPN";
/// The one wire-protocol version this build speaks.
pub const VERSION: u8 = 4;
/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 28;
/// Hard cap on payload size; larger claims are rejected before allocation.
pub const MAX_PAYLOAD: u32 = 64 << 20;

/// What a frame carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameType {
    /// Client → server: one [`crate::wire::RequestPayload`].
    Request,
    /// Server → client: one successfully evaluated response.
    Response,
    /// Server → client: a typed refusal (overload or invalid request).
    Error,
    /// Client → server: poll the live service/net counters
    /// ([`crate::wire::encode_stats_request`]).
    StatsRequest,
    /// Server → client: one [`crate::wire::StatsReply`].
    StatsResponse,
    /// Client → server: submit an optimizer job
    /// ([`crate::wire::encode_submit_job`]).
    SubmitJob,
    /// Client → server: poll a job's best-so-far snapshot
    /// ([`crate::wire::encode_job_poll`]).
    JobStatus,
    /// Server → client: one [`crate::wire::JobReply`] (the answer to
    /// submit, status, and cancel alike).
    JobResult,
    /// Client → server: cancel a job ([`crate::wire::encode_job_cancel`]).
    CancelJob,
}

impl FrameType {
    fn to_byte(self) -> u8 {
        match self {
            FrameType::Request => 1,
            FrameType::Response => 2,
            FrameType::Error => 3,
            FrameType::StatsRequest => 4,
            FrameType::StatsResponse => 5,
            FrameType::SubmitJob => 6,
            FrameType::JobStatus => 7,
            FrameType::JobResult => 8,
            FrameType::CancelJob => 9,
        }
    }

    fn from_byte(b: u8) -> Result<FrameType, DecodeError> {
        match b {
            1 => Ok(FrameType::Request),
            2 => Ok(FrameType::Response),
            3 => Ok(FrameType::Error),
            4 => Ok(FrameType::StatsRequest),
            5 => Ok(FrameType::StatsResponse),
            6 => Ok(FrameType::SubmitJob),
            7 => Ok(FrameType::JobStatus),
            8 => Ok(FrameType::JobResult),
            9 => Ok(FrameType::CancelJob),
            other => Err(DecodeError::UnknownFrameType(other)),
        }
    }
}

/// One decoded frame: type + trace id + verified payload bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// What the payload encodes.
    pub frame_type: FrameType,
    /// Trace id riding the header (0 = untraced). Not covered by the
    /// payload checksum.
    pub trace: u64,
    /// Checksum-verified payload bytes.
    pub payload: Vec<u8>,
}

/// Every way bytes can fail to be a frame (or a payload can fail to be a
/// message). Total and typed: malformed input never panics the decoder.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The first four bytes are not [`MAGIC`].
    BadMagic([u8; 4]),
    /// The version byte is not [`VERSION`].
    UnsupportedVersion(u8),
    /// The frame-type byte names no known type.
    UnknownFrameType(u8),
    /// The reserved header field is non-zero (a future extension this
    /// version does not understand).
    NonZeroReserved(u16),
    /// The claimed payload length exceeds [`MAX_PAYLOAD`].
    OversizedPayload {
        /// Claimed length.
        len: u32,
        /// The cap.
        max: u32,
    },
    /// The payload checksum does not match the header's.
    ChecksumMismatch {
        /// Checksum the header claims.
        expected: u64,
        /// Checksum of the bytes actually present.
        actual: u64,
    },
    /// Fewer bytes are present than the encoding requires.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes available.
        got: usize,
    },
    /// A tag byte names no known variant of `what`.
    BadTag {
        /// Which enum was being decoded.
        what: &'static str,
        /// The offending tag.
        tag: u64,
    },
    /// A length field is implausible for the bytes that remain (rejected
    /// before any allocation).
    BadLength {
        /// Which collection was being decoded.
        what: &'static str,
        /// The claimed element count.
        len: u64,
        /// The maximum count the remaining bytes could hold.
        limit: u64,
    },
    /// A string field is not valid UTF-8.
    BadUtf8 {
        /// Which string field.
        what: &'static str,
    },
    /// The payload decoded cleanly but bytes were left over.
    TrailingBytes {
        /// How many bytes remained.
        remaining: usize,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadMagic(m) => write!(f, "bad magic {m:02x?} (want {MAGIC:02x?})"),
            DecodeError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported protocol version {v} (this build speaks {VERSION})"
                )
            }
            DecodeError::UnknownFrameType(t) => write!(f, "unknown frame type {t}"),
            DecodeError::NonZeroReserved(r) => write!(f, "non-zero reserved field {r:#06x}"),
            DecodeError::OversizedPayload { len, max } => {
                write!(f, "payload length {len} exceeds the {max}-byte cap")
            }
            DecodeError::ChecksumMismatch { expected, actual } => write!(
                f,
                "payload checksum {actual:#018x} does not match header {expected:#018x}"
            ),
            DecodeError::Truncated { needed, got } => {
                write!(f, "truncated input: needed {needed} bytes, got {got}")
            }
            DecodeError::BadTag { what, tag } => write!(f, "bad tag {tag} decoding {what}"),
            DecodeError::BadLength { what, len, limit } => {
                write!(
                    f,
                    "implausible length {len} for {what} (at most {limit} fit)"
                )
            }
            DecodeError::BadUtf8 { what } => write!(f, "invalid UTF-8 in {what}"),
            DecodeError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after a complete payload")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Byte-serial FNV-1a 64 over raw bytes, re-exported for callers that
/// digest encoded payloads. The frame checksum is
/// [`fepia_obs::hash::checksum`].
pub use fepia_obs::hash::fnv1a;

fn assert_payload_fits(len: usize) {
    assert!(
        len <= MAX_PAYLOAD as usize,
        "encoder produced a {len}-byte payload over the {MAX_PAYLOAD}-byte cap"
    );
}

/// Appends one complete frame (header + payload) to `out` — the single
/// place the header layout is written. Every encoder goes through it, so
/// no path copies a payload into a temporary [`Frame`] first. Panics only
/// if the payload exceeds [`MAX_PAYLOAD`] (an encoder-side bug, not
/// reachable from network input).
pub fn encode_frame_into(out: &mut Vec<u8>, frame_type: FrameType, trace: u64, payload: &[u8]) {
    assert_payload_fits(payload.len());
    out.reserve(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(frame_type.to_byte());
    out.extend_from_slice(&0u16.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&checksum(payload).to_le_bytes());
    out.extend_from_slice(&trace.to_le_bytes());
    out.extend_from_slice(payload);
}

impl Frame {
    /// Builds a frame; panics only if the payload exceeds [`MAX_PAYLOAD`]
    /// (an encoder-side bug, not reachable from network input).
    pub fn new(frame_type: FrameType, payload: Vec<u8>) -> Frame {
        assert_payload_fits(payload.len());
        Frame {
            frame_type,
            trace: 0,
            payload,
        }
    }

    /// [`Frame::new`] carrying a trace id in the header.
    pub fn with_trace(frame_type: FrameType, trace: u64, payload: Vec<u8>) -> Frame {
        let mut f = Frame::new(frame_type, payload);
        f.trace = trace;
        f
    }

    /// Serializes header + payload into one buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        encode_frame_into(&mut out, self.frame_type, self.trace, &self.payload);
        out
    }

    /// Decodes one frame from a complete byte buffer, rejecting trailing
    /// bytes. Total: every malformed input yields a typed [`DecodeError`].
    pub fn decode(bytes: &[u8]) -> Result<Frame, DecodeError> {
        let (header, rest) = decode_header(bytes)?;
        let len = header.payload_len as usize;
        if rest.len() < len {
            return Err(DecodeError::Truncated {
                needed: HEADER_LEN + len,
                got: bytes.len(),
            });
        }
        if rest.len() > len {
            return Err(DecodeError::TrailingBytes {
                remaining: rest.len() - len,
            });
        }
        let payload = &rest[..len];
        header.verify(payload)?;
        Ok(Frame {
            frame_type: header.frame_type,
            trace: header.trace,
            payload: payload.to_vec(),
        })
    }
}

/// Validated header fields.
#[derive(Clone, Copy, Debug)]
pub struct FrameHeader {
    /// What the payload encodes.
    pub frame_type: FrameType,
    /// Payload length, already checked against [`MAX_PAYLOAD`].
    pub payload_len: u32,
    /// Claimed payload checksum.
    pub checksum: u64,
    /// Trace id (0 = untraced).
    pub trace: u64,
}

impl FrameHeader {
    /// Checks `payload` against the claimed checksum — the one place a
    /// received payload is verified.
    fn verify(&self, payload: &[u8]) -> Result<(), DecodeError> {
        let actual = checksum(payload);
        if actual != self.checksum {
            return Err(DecodeError::ChecksumMismatch {
                expected: self.checksum,
                actual,
            });
        }
        Ok(())
    }
}

fn decode_header(bytes: &[u8]) -> Result<(FrameHeader, &[u8]), DecodeError> {
    if bytes.len() < HEADER_LEN {
        return Err(DecodeError::Truncated {
            needed: HEADER_LEN,
            got: bytes.len(),
        });
    }
    let magic: [u8; 4] = bytes[0..4].try_into().expect("4 bytes");
    if magic != MAGIC {
        return Err(DecodeError::BadMagic(magic));
    }
    if bytes[4] != VERSION {
        return Err(DecodeError::UnsupportedVersion(bytes[4]));
    }
    let frame_type = FrameType::from_byte(bytes[5])?;
    let reserved = u16::from_le_bytes(bytes[6..8].try_into().expect("2 bytes"));
    if reserved != 0 {
        return Err(DecodeError::NonZeroReserved(reserved));
    }
    let payload_len = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if payload_len > MAX_PAYLOAD {
        return Err(DecodeError::OversizedPayload {
            len: payload_len,
            max: MAX_PAYLOAD,
        });
    }
    let checksum = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
    let trace = u64::from_le_bytes(bytes[20..28].try_into().expect("8 bytes"));
    Ok((
        FrameHeader {
            frame_type,
            payload_len,
            checksum,
            trace,
        },
        &bytes[HEADER_LEN..],
    ))
}

/// A frame read failing either at the socket or at the codec.
#[derive(Debug)]
pub enum FrameReadError {
    /// The underlying stream failed (includes clean EOF between frames as
    /// `UnexpectedEof` only when mid-frame; see [`read_frame`]).
    Io(std::io::Error),
    /// The bytes arrived but are not a valid frame.
    Decode(DecodeError),
    /// The stream ended cleanly on a frame boundary (peer closed).
    Closed,
}

impl std::fmt::Display for FrameReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameReadError::Io(e) => write!(f, "io error reading frame: {e}"),
            FrameReadError::Decode(e) => write!(f, "frame decode error: {e}"),
            FrameReadError::Closed => write!(f, "connection closed between frames"),
        }
    }
}

impl std::error::Error for FrameReadError {}

/// Reads exactly one frame from `r`. A clean EOF before the first header
/// byte is [`FrameReadError::Closed`]; an EOF mid-frame is a truncation
/// ([`DecodeError::Truncated`] wrapped in `Decode`). The payload is
/// checksum-verified before being returned.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, FrameReadError> {
    let mut header = [0u8; HEADER_LEN];
    let mut filled = 0;
    while filled < HEADER_LEN {
        match r.read(&mut header[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Err(FrameReadError::Closed);
                }
                return Err(FrameReadError::Decode(DecodeError::Truncated {
                    needed: HEADER_LEN,
                    got: filled,
                }));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameReadError::Io(e)),
        }
    }
    // Validate the header before trusting its length to size a buffer.
    let (parsed, _) = decode_header(&header).map_err(FrameReadError::Decode)?;
    let len = parsed.payload_len as usize;
    let mut payload = vec![0u8; len];
    let mut filled = 0;
    while filled < len {
        match r.read(&mut payload[filled..]) {
            Ok(0) => {
                return Err(FrameReadError::Decode(DecodeError::Truncated {
                    needed: HEADER_LEN + len,
                    got: HEADER_LEN + filled,
                }))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameReadError::Io(e)),
        }
    }
    parsed.verify(&payload).map_err(FrameReadError::Decode)?;
    Ok(Frame {
        frame_type: parsed.frame_type,
        trace: parsed.trace,
        payload,
    })
}

/// Writes one frame (header + payload) and flushes. `trace` rides the
/// header (0 = untraced).
///
/// This is the *blocking, one-frame-at-a-time* path used by the simple
/// client and by tests that speak the protocol by hand. The event-loop
/// server never uses it: it coalesces queued responses in a
/// [`FrameWriter`] and flushes once per writable burst instead of once
/// per frame.
pub fn write_frame(
    w: &mut impl Write,
    frame_type: FrameType,
    trace: u64,
    payload: &[u8],
) -> std::io::Result<()> {
    // One contiguous buffer, one `write_all`: header and payload leave in
    // the same segment.
    let mut bytes = Vec::new();
    encode_frame_into(&mut bytes, frame_type, trace, payload);
    w.write_all(&bytes)?;
    w.flush()
}

/// Incremental frame decoder for nonblocking sockets.
///
/// Feed whatever bytes `read(2)` produced via [`FrameDecoder::extend`],
/// then pull complete frames with [`FrameDecoder::next_frame`] until it
/// returns `Ok(None)` (more bytes needed). The header is validated before
/// its length field is trusted to size anything, so a hostile length
/// claim is rejected as [`DecodeError::OversizedPayload`] without
/// allocation — exactly like the blocking [`read_frame`].
///
/// A decode error is terminal for the stream: framing is lost, the
/// connection must be dropped.
pub struct FrameDecoder {
    buf: Vec<u8>,
    start: usize,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> FrameDecoder {
        FrameDecoder {
            buf: Vec::new(),
            start: 0,
        }
    }

    /// Appends freshly read bytes to the internal buffer.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Compact before growing so a long-lived connection does not
        // accumulate consumed prefixes.
        if self.start > 0 && (self.start >= 4096 || self.start == self.buf.len()) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a complete frame. Non-zero
    /// at EOF means the peer died mid-frame.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Tries to decode the next complete frame. `Ok(None)` means the
    /// buffer holds only a partial frame — read more and call again.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, DecodeError> {
        let avail = &self.buf[self.start..];
        if avail.len() < HEADER_LEN {
            return Ok(None);
        }
        // Header validation errors (bad magic, version, type, reserved,
        // oversized length) are real errors even on a partial buffer: the
        // first HEADER_LEN bytes are all it takes to judge them.
        let (header, _) = decode_header(avail)?;
        let len = header.payload_len as usize;
        if avail.len() < HEADER_LEN + len {
            return Ok(None);
        }
        let payload = &avail[HEADER_LEN..HEADER_LEN + len];
        header.verify(payload)?;
        let frame = Frame {
            frame_type: header.frame_type,
            trace: header.trace,
            payload: payload.to_vec(),
        };
        self.start += HEADER_LEN + len;
        Ok(Some(frame))
    }
}

impl Default for FrameDecoder {
    fn default() -> Self {
        FrameDecoder::new()
    }
}

/// Identity of one frame queued in a [`FrameWriter`], reported back when
/// its last byte reaches the socket — the hook for `net.write` spans and
/// per-frame accounting without per-frame flushes.
#[derive(Clone, Copy, Debug)]
pub struct QueuedFrame {
    /// What the frame carried.
    pub frame_type: FrameType,
    /// Trace id from its header (0 = untraced).
    pub trace: u64,
    /// Caller-chosen correlation id (the request id for responses).
    pub id: u64,
}

/// Coalescing write buffer for nonblocking sockets.
///
/// Responses completing in one loop iteration are [`FrameWriter::enqueue`]d
/// into a single contiguous buffer, then [`FrameWriter::flush_burst`]
/// pushes as much as the socket accepts in one burst — one syscall
/// sequence per writable event instead of a `write + flush` pair per
/// frame. Frames whose final byte made it out are returned so the caller
/// can emit their `net.write` spans and count frames-per-flush.
pub struct FrameWriter {
    buf: Vec<u8>,
    start: usize,
    /// Absolute count of bytes ever written to the socket.
    written: u64,
    /// Absolute count of bytes ever enqueued.
    enqueued: u64,
    /// Per-frame end offsets (absolute), FIFO.
    markers: std::collections::VecDeque<(u64, QueuedFrame)>,
}

impl FrameWriter {
    /// An empty writer.
    pub fn new() -> FrameWriter {
        FrameWriter {
            buf: Vec::new(),
            start: 0,
            written: 0,
            enqueued: 0,
            markers: std::collections::VecDeque::new(),
        }
    }

    /// Encodes one frame onto the pending buffer. `id` is echoed back in
    /// the frame's [`QueuedFrame`] when it finishes flushing.
    pub fn enqueue(&mut self, frame_type: FrameType, trace: u64, payload: &[u8], id: u64) {
        if self.start > 0 && (self.start >= 4096 || self.start == self.buf.len()) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        let before = self.buf.len();
        encode_frame_into(&mut self.buf, frame_type, trace, payload);
        self.enqueued += (self.buf.len() - before) as u64;
        self.markers.push_back((
            self.enqueued,
            QueuedFrame {
                frame_type,
                trace,
                id,
            },
        ));
    }

    /// Bytes not yet accepted by the socket.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Frames not yet fully written.
    pub fn queued_frames(&self) -> usize {
        self.markers.len()
    }

    /// Writes until the socket stops accepting bytes (`WouldBlock`) or the
    /// buffer empties. Returns the frames completed by this burst; an io
    /// error (including a zero-length write) is terminal for the stream.
    pub fn flush_burst(&mut self, w: &mut impl Write) -> std::io::Result<Vec<QueuedFrame>> {
        let mut done = Vec::new();
        while self.start < self.buf.len() {
            match w.write(&self.buf[self.start..]) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => {
                    self.start += n;
                    self.written += n as u64;
                    while let Some(&(end, meta)) = self.markers.front() {
                        if end > self.written {
                            break;
                        }
                        self.markers.pop_front();
                        done.push(meta);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        }
        Ok(done)
    }
}

impl Default for FrameWriter {
    fn default() -> Self {
        FrameWriter::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let frame = Frame::new(FrameType::Request, vec![1, 2, 3, 250]);
        let bytes = frame.encode();
        assert_eq!(Frame::decode(&bytes).unwrap(), frame);
        let mut cursor = std::io::Cursor::new(bytes);
        let read = read_frame(&mut cursor).unwrap();
        assert_eq!(read, frame);
    }

    #[test]
    fn trace_id_rides_the_header() {
        let frame = Frame::with_trace(FrameType::Response, 0xdead_beef_cafe_f00d, vec![7; 5]);
        let bytes = frame.encode();
        assert_eq!(
            u64::from_le_bytes(bytes[20..28].try_into().unwrap()),
            0xdead_beef_cafe_f00d
        );
        let decoded = Frame::decode(&bytes).unwrap();
        assert_eq!(decoded.trace, 0xdead_beef_cafe_f00d);
        assert_eq!(decoded, frame);
        // The trace id is metadata, not payload: flipping its bytes still
        // decodes (with a different id), never a checksum failure.
        let mut m = bytes.clone();
        m[20] ^= 0xff;
        let reattributed = Frame::decode(&m).unwrap();
        assert_eq!(reattributed.payload, frame.payload);
        assert_ne!(reattributed.trace, frame.trace);
    }

    #[test]
    fn empty_payload_roundtrips() {
        let frame = Frame::new(FrameType::Error, Vec::new());
        assert_eq!(Frame::decode(&frame.encode()).unwrap(), frame);
    }

    #[test]
    fn header_field_corruption_is_typed() {
        let bytes = Frame::new(FrameType::Response, vec![9; 16]).encode();

        let mut m = bytes.clone();
        m[0] = b'X';
        assert!(matches!(Frame::decode(&m), Err(DecodeError::BadMagic(_))));

        let mut m = bytes.clone();
        m[4] = 9;
        assert!(matches!(
            Frame::decode(&m),
            Err(DecodeError::UnsupportedVersion(9))
        ));

        let mut m = bytes.clone();
        m[5] = 77;
        assert!(matches!(
            Frame::decode(&m),
            Err(DecodeError::UnknownFrameType(77))
        ));

        let mut m = bytes.clone();
        m[6] = 1;
        assert!(matches!(
            Frame::decode(&m),
            Err(DecodeError::NonZeroReserved(1))
        ));

        let mut m = bytes.clone();
        m[HEADER_LEN] ^= 0xff; // first payload byte
        assert!(matches!(
            Frame::decode(&m),
            Err(DecodeError::ChecksumMismatch { .. })
        ));

        let mut m = bytes.clone();
        m[12] ^= 0xff; // checksum byte
        assert!(matches!(
            Frame::decode(&m),
            Err(DecodeError::ChecksumMismatch { .. })
        ));
    }

    /// The header carries the word-wise checksum of the payload, and each
    /// of the 46,096 single-bit flips of a 64-move probe request's payload
    /// (a 5790-byte frame) changes it.
    #[test]
    fn every_bit_flip_of_a_request_payload_changes_the_checksum() {
        use fepia_serve::workload::{moves_request, scenario_pool, WorkloadSpec};
        let spec = WorkloadSpec {
            seed: 9001,
            apps: 64,
            machines: 8,
            moves_per_request: 64,
            ..WorkloadSpec::default()
        };
        let pool = scenario_pool(&spec);
        let payload = crate::wire::encode_request(&moves_request(&spec, &pool, 0));
        assert_eq!(payload.len() + HEADER_LEN, 5790);
        let sum = checksum(&payload);
        let bytes = Frame::new(FrameType::Request, payload.clone()).encode();
        assert_eq!(bytes[12..20], sum.to_le_bytes());
        let mut m = payload;
        for bit in 0..m.len() * 8 {
            m[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(checksum(&m), sum, "bit {bit}");
            m[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn truncation_and_trailing_are_typed() {
        let bytes = Frame::new(FrameType::Request, vec![5; 8]).encode();
        for cut in 0..bytes.len() {
            let err = Frame::decode(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, DecodeError::Truncated { .. }),
                "cut at {cut}: {err:?}"
            );
        }
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(matches!(
            Frame::decode(&extended),
            Err(DecodeError::TrailingBytes { remaining: 1 })
        ));
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        let mut bytes = Frame::new(FrameType::Request, vec![0; 4]).encode();
        bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Frame::decode(&bytes),
            Err(DecodeError::OversizedPayload { .. })
        ));
        // The streaming reader must also reject it from the header alone.
        let mut cursor = std::io::Cursor::new(bytes);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(FrameReadError::Decode(DecodeError::OversizedPayload { .. }))
        ));
    }

    #[test]
    fn clean_eof_between_frames_is_closed() {
        let mut cursor = std::io::Cursor::new(Vec::<u8>::new());
        assert!(matches!(
            read_frame(&mut cursor),
            Err(FrameReadError::Closed)
        ));
    }

    #[test]
    fn incremental_decoder_handles_byte_at_a_time_delivery() {
        let frames = vec![
            Frame::with_trace(FrameType::Request, 7, vec![1, 2, 3]),
            Frame::new(FrameType::Response, Vec::new()),
            Frame::with_trace(FrameType::Error, u64::MAX, vec![9; 100]),
        ];
        let mut wire = Vec::new();
        for f in &frames {
            wire.extend_from_slice(&f.encode());
        }
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        for &b in &wire {
            dec.extend(&[b]);
            while let Some(f) = dec.next_frame().unwrap() {
                out.push(f);
            }
        }
        assert_eq!(out, frames);
        assert_eq!(dec.buffered(), 0, "no partial frame should remain");
    }

    #[test]
    fn incremental_decoder_reports_partial_and_rejects_corruption() {
        let bytes = Frame::new(FrameType::Request, vec![5; 32]).encode();
        let mut dec = FrameDecoder::new();
        dec.extend(&bytes[..HEADER_LEN + 10]);
        assert!(dec.next_frame().unwrap().is_none(), "mid-frame: need bytes");
        assert_eq!(dec.buffered(), HEADER_LEN + 10);

        // Corrupt magic is judged from the header alone, before the
        // payload arrives.
        let mut dec = FrameDecoder::new();
        let mut bad = bytes.clone();
        bad[0] = b'X';
        dec.extend(&bad[..HEADER_LEN]);
        assert!(matches!(dec.next_frame(), Err(DecodeError::BadMagic(_))));

        // Corrupt payload is a checksum mismatch once complete.
        let mut dec = FrameDecoder::new();
        let mut bad = bytes.clone();
        bad[HEADER_LEN] ^= 0xff;
        dec.extend(&bad);
        assert!(matches!(
            dec.next_frame(),
            Err(DecodeError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn incremental_decoder_rejects_oversized_claim_without_payload() {
        let mut bytes = Frame::new(FrameType::Request, vec![0; 4]).encode();
        bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut dec = FrameDecoder::new();
        dec.extend(&bytes[..HEADER_LEN]);
        assert!(matches!(
            dec.next_frame(),
            Err(DecodeError::OversizedPayload { .. })
        ));
    }

    /// A writer that accepts a fixed number of bytes per call, then
    /// `WouldBlock`s — models a socket under backpressure.
    struct Throttled {
        out: Vec<u8>,
        budget: usize,
        per_call: usize,
    }

    impl Write for Throttled {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.budget == 0 {
                return Err(std::io::Error::new(std::io::ErrorKind::WouldBlock, "full"));
            }
            let n = buf.len().min(self.per_call).min(self.budget);
            self.out.extend_from_slice(&buf[..n]);
            self.budget -= n;
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn frame_writer_coalesces_and_reports_completed_frames() {
        let mut fw = FrameWriter::new();
        fw.enqueue(FrameType::Response, 11, &[1; 10], 100);
        fw.enqueue(FrameType::Response, 0, &[2; 20], 101);
        fw.enqueue(FrameType::Error, 13, &[3; 30], 102);
        assert_eq!(fw.queued_frames(), 3);
        let total = fw.pending();
        assert_eq!(total, 3 * HEADER_LEN + 60);

        // First burst: enough for frame 1 plus part of frame 2.
        let mut sock = Throttled {
            out: Vec::new(),
            budget: HEADER_LEN + 10 + 5,
            per_call: 7,
        };
        let done = fw.flush_burst(&mut sock).unwrap();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, 100);
        assert_eq!(done[0].trace, 11);
        assert_eq!(fw.queued_frames(), 2);

        // Second burst: everything else, in one writable window.
        sock.budget = usize::MAX;
        let done = fw.flush_burst(&mut sock).unwrap();
        assert_eq!(
            done.iter().map(|m| m.id).collect::<Vec<_>>(),
            vec![101, 102]
        );
        assert_eq!(fw.pending(), 0);
        assert_eq!(fw.queued_frames(), 0);

        // The bytes on the wire are the three frames, verbatim and in
        // order.
        let mut dec = FrameDecoder::new();
        dec.extend(&sock.out);
        let f1 = dec.next_frame().unwrap().unwrap();
        let f2 = dec.next_frame().unwrap().unwrap();
        let f3 = dec.next_frame().unwrap().unwrap();
        assert_eq!((f1.trace, f1.payload.len()), (11, 10));
        assert_eq!((f2.trace, f2.payload.len()), (0, 20));
        assert_eq!((f3.trace, f3.payload.len()), (13, 30));
        assert_eq!(dec.buffered(), 0);

        // Byte for byte, the writer and the blocking `write_frame` emit
        // exactly what `Frame::encode` does for the same frames.
        let frames = [
            Frame::with_trace(FrameType::Response, 11, vec![1; 10]),
            Frame::with_trace(FrameType::Response, 0, vec![2; 20]),
            Frame::with_trace(FrameType::Error, 13, vec![3; 30]),
        ];
        let expected: Vec<u8> = frames.iter().flat_map(Frame::encode).collect();
        assert_eq!(sock.out, expected);
        let mut blocking = Vec::new();
        for f in &frames {
            write_frame(&mut blocking, f.frame_type, f.trace, &f.payload).unwrap();
        }
        assert_eq!(blocking, expected);
    }

    #[test]
    fn frame_writer_zero_write_is_an_error() {
        struct Zero;
        impl Write for Zero {
            fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut fw = FrameWriter::new();
        fw.enqueue(FrameType::Response, 0, &[1], 1);
        assert_eq!(
            fw.flush_burst(&mut Zero).unwrap_err().kind(),
            std::io::ErrorKind::WriteZero
        );
    }
}
