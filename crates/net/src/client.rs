//! Blocking TCP client with reconnect and deterministic backoff.
//!
//! [`NetClient::call`] is the whole API: encode the request, write the
//! frame, read one frame back, decode. Failures are classified:
//!
//! * transport / framing trouble (io errors, torn frames, protocol
//!   violations) → drop the socket, **reconnect**, resend. Safe because
//!   responses are pure functions of requests — a retried request yields
//!   the same (bitwise) answer.
//! * typed [`WireError::Overloaded`] → keep the connection, **back off**
//!   (deterministic exponential: `base · 2^n`, capped), resend.
//! * typed [`WireError::Invalid`] → permanent; returned immediately,
//!   never retried.
//!
//! After [`ClientConfig::max_attempts`] failures the last error is
//! returned wrapped in [`NetError::RetriesExhausted`] so callers see both
//! the budget and the terminal cause.
//!
//! Every socket carries [`ClientConfig::io_timeout`] read/write timeouts
//! from the moment it connects, so a stalled server (accepts, then goes
//! silent) surfaces as a timed-out [`NetError::Io`] on the regular
//! reconnect path instead of blocking the caller forever.
//! [`NetClient::call_with_deadline`] adds end-to-end deadline enforcement:
//! the *remaining* budget travels in the request (shrinking across
//! attempts), bounds each read, and expires as a typed
//! [`NetError::DeadlineExceeded`].

use crate::frame::{
    encode_frame_into, read_frame, write_frame, DecodeError, FrameReadError, FrameType,
};
use crate::wire::{
    decode_error, decode_job_reply, decode_response, decode_stats_reply, encode_job_cancel,
    encode_job_poll, encode_request, encode_request_with_deadline, encode_stats_request,
    encode_submit_job, StatsReply, WireError,
};
use fepia_obs::trace::{self, stage};
use fepia_obs::TraceId;
use fepia_serve::{EvalRequest, EvalResponse, JobSnapshot, JobSpec, ShedReason};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Retry budget and backoff shape.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Total attempts per [`NetClient::call`] (first try included).
    pub max_attempts: u32,
    /// Backoff before retry `n` (0-based) is `base · 2^n`, capped at
    /// [`ClientConfig::backoff_cap`]. Deterministic — no jitter — so
    /// fixed-seed tests reproduce identical schedules.
    pub backoff_base: Duration,
    /// Upper bound on a single backoff sleep.
    pub backoff_cap: Duration,
    /// Socket read/write timeout applied to every connection, whether or
    /// not the call carries a deadline — the floor that keeps a stalled
    /// server from hanging a client forever. A timed-out operation surfaces
    /// as [`NetError::Io`] and takes the normal reconnect path.
    /// `Duration::ZERO` disables (blocking reads, the pre-deadline
    /// behavior).
    pub io_timeout: Duration,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            max_attempts: 8,
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(200),
            io_timeout: Duration::from_secs(30),
        }
    }
}

/// Any way a call can fail.
#[derive(Debug)]
pub enum NetError {
    /// Transport failure (connect, read, or write).
    Io(std::io::Error),
    /// The server sent bytes that do not decode as a frame/payload.
    Decode(DecodeError),
    /// Typed server refusal: the target shard shed the request.
    Overloaded {
        /// Shard that refused.
        shard: u64,
        /// Why it refused.
        reason: ShedReason,
    },
    /// Typed server refusal: the request can never be served as sent.
    Invalid(String),
    /// The server violated the protocol (wrong frame type or id echo).
    Protocol(String),
    /// The retry budget ran out; `last` is the final attempt's error.
    RetriesExhausted {
        /// Attempts consumed (== configured `max_attempts`).
        attempts: u32,
        /// The terminal cause.
        last: Box<NetError>,
    },
    /// The end-to-end deadline passed client-side before an answer
    /// arrived ([`NetClient::call_with_deadline`]).
    DeadlineExceeded {
        /// The deadline the call was given.
        deadline: Duration,
        /// Attempts started before the budget ran out.
        attempts: u32,
        /// The most recent attempt's error, if any attempt completed.
        last: Option<Box<NetError>>,
    },
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "io: {e}"),
            NetError::Decode(e) => write!(f, "decode: {e}"),
            NetError::Overloaded { shard, reason } => write!(
                f,
                "overloaded: shard {shard} ({})",
                match reason {
                    ShedReason::QueueFull => "queue full",
                    ShedReason::ShuttingDown => "shutting down",
                }
            ),
            NetError::Invalid(msg) => write!(f, "invalid request: {msg}"),
            NetError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            NetError::RetriesExhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts; last error: {last}")
            }
            NetError::DeadlineExceeded {
                deadline,
                attempts,
                last,
            } => {
                write!(
                    f,
                    "deadline of {deadline:?} exceeded after {attempts} attempts"
                )?;
                if let Some(last) = last {
                    write!(f, "; last error: {last}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for NetError {}

/// The error text of a connection the server closed before replying.
const CLOSED: &str = "server closed the connection";

/// The configured socket timeout as a socket option (ZERO = fully
/// blocking).
fn io_floor(timeout: Duration) -> Option<Duration> {
    (!timeout.is_zero()).then_some(timeout)
}

/// Connects with `TCP_NODELAY` and the configured read/write timeouts.
fn open_stream(addr: SocketAddr, io_timeout: Duration) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(io_floor(io_timeout))?;
    stream.set_write_timeout(io_floor(io_timeout))?;
    Ok(stream)
}

/// A blocking client for one server address. Not thread-safe (`&mut self`
/// calls); use one client per thread, as the soak tests do.
pub struct NetClient {
    addr: SocketAddr,
    config: ClientConfig,
    stream: Option<TcpStream>,
    /// The read timeout `stream` currently carries, so an attempt only
    /// calls `set_read_timeout` when its budget changes the value.
    read_timeout: Option<Duration>,
    reconnects: u64,
    retries: u64,
}

impl NetClient {
    /// Connects eagerly so configuration errors surface immediately.
    pub fn connect(addr: SocketAddr, config: ClientConfig) -> Result<NetClient, NetError> {
        let stream = open_stream(addr, config.io_timeout).map_err(NetError::Io)?;
        Ok(NetClient {
            addr,
            read_timeout: io_floor(config.io_timeout),
            config,
            stream: Some(stream),
            reconnects: 0,
            retries: 0,
        })
    }

    /// Times this client reconnected (transport-level recoveries).
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Retries performed across all calls (any cause).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    fn stream(&mut self) -> Result<&mut TcpStream, NetError> {
        if self.stream.is_none() {
            let s = open_stream(self.addr, self.config.io_timeout).map_err(NetError::Io)?;
            self.stream = Some(s);
            self.read_timeout = io_floor(self.config.io_timeout);
            self.reconnects += 1;
            if fepia_obs::enabled() {
                fepia_obs::global().counter("net.client.reconnects").inc();
            }
        }
        Ok(self.stream.as_mut().expect("just connected"))
    }

    /// The connected stream carrying read timeout `timeout`; the
    /// `setsockopt` is skipped when the stream already has that value.
    fn stream_with_read_timeout(
        &mut self,
        timeout: Option<Duration>,
    ) -> Result<&mut TcpStream, NetError> {
        self.stream()?;
        let stream = self.stream.as_mut().expect("just connected");
        if self.read_timeout != timeout {
            stream.set_read_timeout(timeout).map_err(NetError::Io)?;
            self.read_timeout = timeout;
        }
        Ok(stream)
    }

    /// One attempt: write the request frame, read one frame, classify it.
    /// `read_budget` tightens this attempt's read timeout below the
    /// configured `io_timeout` (deadline calls pass their remaining
    /// budget); `None` restores the configured floor.
    fn attempt(
        &mut self,
        bytes: &[u8],
        id: u64,
        trace: u64,
        read_budget: Option<Duration>,
    ) -> Result<EvalResponse, NetError> {
        let traced = trace != 0 && trace::trace_enabled();
        let io_timeout = self.config.io_timeout;
        let read_timeout = match read_budget {
            Some(budget) if !io_timeout.is_zero() => Some(budget.min(io_timeout)),
            Some(budget) => Some(budget),
            None => io_floor(io_timeout),
        };
        // `set_read_timeout(Some(ZERO))` is an invalid argument; callers
        // guard a non-zero remaining budget before attempting.
        let stream = self.stream_with_read_timeout(read_timeout.filter(|t| !t.is_zero()))?;
        let send_started = Instant::now();
        write_frame(stream, FrameType::Request, trace, bytes).map_err(NetError::Io)?;
        if traced {
            trace::with_wall(
                trace::span_event(TraceId(trace), stage::CLIENT_SEND, id),
                send_started,
            )
            .emit();
        }
        let payload = self.read_reply(FrameType::Response, Some(id), "an eval request", CLOSED)?;
        let resp = decode_response(&payload).map_err(NetError::Decode)?;
        if resp.id != id {
            return Err(NetError::Protocol(format!(
                "response id {} for request id {id}",
                resp.id
            )));
        }
        Ok(resp)
    }

    /// Evaluates one request, retrying per the config. See the module docs
    /// for the retry / reconnect / give-up classification.
    ///
    /// Tracing: when [`fepia_obs::trace_enabled`], the client mints the
    /// request's [`TraceId`] here (deterministically, from the request id),
    /// sends it in the frame header, and emits `client.send` /
    /// `client.retry` / `client.recv` spans.
    pub fn call(&mut self, req: &EvalRequest) -> Result<EvalResponse, NetError> {
        let bytes = encode_request(req);
        let traced = trace::trace_enabled();
        let trace_id = if traced { TraceId::mint(req.id).0 } else { 0 };
        let call_started = Instant::now();
        let mut last: Option<NetError> = None;
        for n in 0..self.config.max_attempts {
            if n > 0 {
                self.retries += 1;
                if fepia_obs::enabled() {
                    fepia_obs::global().counter("net.client.retries").inc();
                }
                if traced {
                    trace::with_wall(
                        trace::span_event(TraceId(trace_id), stage::CLIENT_RETRY, req.id),
                        call_started,
                    )
                    .field("attempt", u64::from(n))
                    .field(
                        "cause",
                        match last.as_ref().expect("retry implies a prior error") {
                            NetError::Io(_) => "io",
                            NetError::Decode(_) => "decode",
                            NetError::Overloaded { .. } => "overloaded",
                            NetError::Protocol(_) => "protocol",
                            NetError::Invalid(_)
                            | NetError::RetriesExhausted { .. }
                            | NetError::DeadlineExceeded { .. } => "terminal",
                        },
                    )
                    .emit();
                }
                let exp = self
                    .config
                    .backoff_base
                    .saturating_mul(1u32 << (n - 1).min(16));
                std::thread::sleep(exp.min(self.config.backoff_cap));
            }
            match self.attempt(&bytes, req.id, trace_id, None) {
                Ok(resp) => {
                    if traced {
                        trace::with_wall(
                            trace::span_event(TraceId(trace_id), stage::CLIENT_RECV, req.id),
                            call_started,
                        )
                        .emit();
                    }
                    return Ok(resp);
                }
                Err(NetError::Invalid(msg)) => return Err(NetError::Invalid(msg)),
                Err(e @ NetError::Overloaded { .. }) => {
                    // The connection is fine; the service shed the request.
                    last = Some(e);
                }
                Err(e) => {
                    // Transport or framing trouble: the stream state is
                    // unknown, so reconnect before the next attempt.
                    self.stream = None;
                    last = Some(e);
                }
            }
        }
        Err(NetError::RetriesExhausted {
            attempts: self.config.max_attempts,
            last: Box::new(last.expect("max_attempts >= 1 guarantees an error")),
        })
    }

    /// Evaluates one request under an **end-to-end deadline**. The
    /// remaining budget — deadline minus time already burned — is:
    ///
    /// * sent to the server in the request (wire v3 `deadline_us`), so the
    ///   service can drop the request at dequeue or brown out the
    ///   evaluation instead of computing an answer nobody is waiting for;
    /// * applied as this attempt's socket read timeout (never looser than
    ///   [`ClientConfig::io_timeout`]);
    /// * shrunk across retries: each attempt re-encodes the request with
    ///   whatever budget is left, so a retry after a 40 ms stall asks for
    ///   strictly less server time than the original.
    ///
    /// Retries follow the same classification as [`NetClient::call`], with
    /// two additions: a retry is only hedged when the kind is idempotent
    /// ([`fepia_serve::EvalKind::is_idempotent`] — every current kind is a
    /// pure function of the request), and when the budget runs out the
    /// typed [`NetError::DeadlineExceeded`] carries the attempt count and
    /// last transport error. A response whose disposition is
    /// `DeadlineExceeded` (the server dropped it at dequeue) is returned
    /// as-is — typed data, not an error.
    pub fn call_with_deadline(
        &mut self,
        req: &EvalRequest,
        deadline: Duration,
    ) -> Result<EvalResponse, NetError> {
        let traced = trace::trace_enabled();
        let trace_id = if traced { TraceId::mint(req.id).0 } else { 0 };
        let call_started = Instant::now();
        let mut last: Option<NetError> = None;
        let mut attempts = 0u32;
        for n in 0..self.config.max_attempts {
            let Some(remaining) = deadline
                .checked_sub(call_started.elapsed())
                .filter(|r| !r.is_zero())
            else {
                break;
            };
            if n > 0 {
                if !req.kind.is_idempotent() {
                    // A non-idempotent kind must not be hedged: the first
                    // attempt may have been applied server-side.
                    return Err(last.take().expect("retry implies a prior error"));
                }
                self.retries += 1;
                if fepia_obs::enabled() {
                    fepia_obs::global().counter("net.client.retries").inc();
                }
                if traced {
                    trace::with_wall(
                        trace::span_event(TraceId(trace_id), stage::CLIENT_RETRY, req.id),
                        call_started,
                    )
                    .field("attempt", u64::from(n))
                    .field("cause", "deadline-retry")
                    .emit();
                }
                let exp = self
                    .config
                    .backoff_base
                    .saturating_mul(1u32 << (n - 1).min(16));
                std::thread::sleep(exp.min(self.config.backoff_cap).min(remaining));
            }
            // Re-check after the backoff sleep also consumed budget.
            let Some(remaining) = deadline
                .checked_sub(call_started.elapsed())
                .filter(|r| !r.is_zero())
            else {
                break;
            };
            attempts += 1;
            let deadline_us = remaining.as_micros().min(u64::MAX as u128) as u64;
            let bytes = encode_request_with_deadline(req, deadline_us.max(1));
            match self.attempt(&bytes, req.id, trace_id, Some(remaining)) {
                Ok(resp) => {
                    if traced {
                        trace::with_wall(
                            trace::span_event(TraceId(trace_id), stage::CLIENT_RECV, req.id),
                            call_started,
                        )
                        .emit();
                    }
                    return Ok(resp);
                }
                Err(NetError::Invalid(msg)) => return Err(NetError::Invalid(msg)),
                Err(e @ NetError::Overloaded { .. }) => {
                    last = Some(e);
                }
                Err(e) => {
                    self.stream = None;
                    last = Some(e);
                }
            }
        }
        if fepia_obs::enabled() {
            fepia_obs::global().counter("deadline.client_expired").inc();
        }
        Err(NetError::DeadlineExceeded {
            deadline,
            attempts,
            last: last.map(Box::new),
        })
    }

    /// Evaluates a batch of requests **pipelined on one connection**: all
    /// frames are encoded into a single buffer and written in one burst,
    /// then responses are collected as the server produces them — in any
    /// order, matched back to their request by the id echo. Returns the
    /// responses in request order.
    ///
    /// Requirements on the batch: ids must be unique (they are the
    /// correlation keys). One attempt, no retry: on any failure the
    /// connection is dropped and the typed error returned — the caller
    /// decides whether re-running the whole batch is worth it (safe,
    /// since responses are pure functions of requests). A typed per-
    /// request refusal (`Overloaded` / `Invalid` error frame) fails the
    /// batch with that error.
    pub fn call_pipelined(&mut self, reqs: &[EvalRequest]) -> Result<Vec<EvalResponse>, NetError> {
        if reqs.is_empty() {
            return Ok(Vec::new());
        }
        let traced = trace::trace_enabled();
        let send_started = Instant::now();
        let mut batch = Vec::new();
        let mut index_of = std::collections::HashMap::with_capacity(reqs.len());
        for (i, req) in reqs.iter().enumerate() {
            if index_of.insert(req.id, i).is_some() {
                return Err(NetError::Protocol(format!(
                    "pipelined batch reuses id {} (ids are correlation keys)",
                    req.id
                )));
            }
            let trace_id = if traced { TraceId::mint(req.id).0 } else { 0 };
            encode_frame_into(
                &mut batch,
                FrameType::Request,
                trace_id,
                &encode_request(req),
            );
        }
        let stream = self.stream()?;
        if let Err(e) = stream.write_all(&batch).and_then(|()| stream.flush()) {
            self.stream = None;
            return Err(NetError::Io(e));
        }
        if traced {
            for req in reqs {
                trace::with_wall(
                    trace::span_event(TraceId(TraceId::mint(req.id).0), stage::CLIENT_SEND, req.id),
                    send_started,
                )
                .emit();
            }
        }
        let mut slots: Vec<Option<EvalResponse>> = (0..reqs.len()).map(|_| None).collect();
        let mut filled = 0usize;
        while filled < reqs.len() {
            let outcome = self
                .read_reply(
                    FrameType::Response,
                    None,
                    "a pipelined eval batch",
                    "server closed the connection mid-batch",
                )
                .and_then(|payload| decode_response(&payload).map_err(NetError::Decode));
            let resp = match outcome {
                Ok(resp) => resp,
                Err(e) => {
                    self.stream = None;
                    return Err(e);
                }
            };
            let Some(&i) = index_of.get(&resp.id) else {
                self.stream = None;
                return Err(NetError::Protocol(format!(
                    "response id {} matches no request in the batch",
                    resp.id
                )));
            };
            if slots[i].is_some() {
                self.stream = None;
                return Err(NetError::Protocol(format!(
                    "duplicate response for id {}",
                    resp.id
                )));
            }
            if traced {
                trace::with_wall(
                    trace::span_event(
                        TraceId(TraceId::mint(resp.id).0),
                        stage::CLIENT_RECV,
                        resp.id,
                    ),
                    send_started,
                )
                .emit();
            }
            slots[i] = Some(resp);
            filled += 1;
        }
        Ok(slots
            .into_iter()
            .map(|s| s.expect("all slots filled"))
            .collect())
    }

    /// One job-frame round trip: write the frame, read one frame back,
    /// classify. Every job operation is answered with a `JobResult` frame
    /// (or a typed error frame), whatever the operation was.
    fn job_roundtrip(
        &mut self,
        frame_type: FrameType,
        bytes: &[u8],
        id: u64,
        trace: u64,
    ) -> Result<JobSnapshot, NetError> {
        let stream = self.stream()?;
        write_frame(stream, frame_type, trace, bytes).map_err(NetError::Io)?;
        let payload = self.read_reply(FrameType::JobResult, Some(id), "a job operation", CLOSED)?;
        let reply = decode_job_reply(&payload).map_err(NetError::Decode)?;
        if reply.id != id {
            return Err(NetError::Protocol(format!(
                "job reply id {} for request id {id}",
                reply.id
            )));
        }
        Ok(reply.snapshot)
    }

    /// An idempotent job operation (status poll, cancel) with the same
    /// retry / reconnect / backoff classification as [`NetClient::call`].
    fn job_call_retried(
        &mut self,
        frame_type: FrameType,
        bytes: &[u8],
        id: u64,
        trace: u64,
    ) -> Result<JobSnapshot, NetError> {
        let mut last: Option<NetError> = None;
        for n in 0..self.config.max_attempts {
            if n > 0 {
                self.retries += 1;
                if fepia_obs::enabled() {
                    fepia_obs::global().counter("net.client.retries").inc();
                }
                let exp = self
                    .config
                    .backoff_base
                    .saturating_mul(1u32 << (n - 1).min(16));
                std::thread::sleep(exp.min(self.config.backoff_cap));
            }
            match self.job_roundtrip(frame_type, bytes, id, trace) {
                Ok(snapshot) => return Ok(snapshot),
                Err(NetError::Invalid(msg)) => return Err(NetError::Invalid(msg)),
                Err(e @ NetError::Overloaded { .. }) => last = Some(e),
                Err(e) => {
                    self.stream = None;
                    last = Some(e);
                }
            }
        }
        Err(NetError::RetriesExhausted {
            attempts: self.config.max_attempts,
            last: Box::new(last.expect("max_attempts >= 1 guarantees an error")),
        })
    }

    /// Submits an optimizer job and returns its first snapshot (carrying
    /// the server-assigned job id in [`JobSnapshot::job`]).
    ///
    /// **One attempt, no retry**: a submit is not idempotent — a retry
    /// after a transport failure could admit the job twice. On a transport
    /// error the caller does not know whether the job was admitted; since
    /// fronts are pure functions of the spec, resubmitting costs capacity
    /// but never correctness. Typed `Overloaded` (the job table is at its
    /// admission bound) and `Invalid` (the spec can never run) come back
    /// unretried as well — the caller owns the admission policy.
    pub fn submit_job(&mut self, id: u64, spec: &JobSpec) -> Result<JobSnapshot, NetError> {
        let bytes = encode_submit_job(id, spec);
        let trace = if trace::trace_enabled() {
            TraceId::mint(id).0
        } else {
            0
        };
        let result = self.job_roundtrip(FrameType::SubmitJob, &bytes, id, trace);
        if matches!(
            result,
            Err(NetError::Io(_) | NetError::Decode(_) | NetError::Protocol(_))
        ) {
            self.stream = None;
        }
        result
    }

    /// Polls a job's best-so-far snapshot. Idempotent: retried with
    /// reconnect and backoff like [`NetClient::call`].
    pub fn job_status(&mut self, id: u64, job: u64) -> Result<JobSnapshot, NetError> {
        let bytes = encode_job_poll(id, job);
        let trace = if trace::trace_enabled() {
            TraceId::mint(id).0
        } else {
            0
        };
        self.job_call_retried(FrameType::JobStatus, &bytes, id, trace)
    }

    /// Requests cancellation and returns the resulting snapshot (already
    /// typed `Cancelled` unless the job had finished first). Idempotent:
    /// retried with reconnect and backoff.
    pub fn cancel_job(&mut self, id: u64, job: u64) -> Result<JobSnapshot, NetError> {
        let bytes = encode_job_cancel(id, job);
        let trace = if trace::trace_enabled() {
            TraceId::mint(id).0
        } else {
            0
        };
        self.job_call_retried(FrameType::CancelJob, &bytes, id, trace)
    }

    /// Polls every `interval` until the job reaches a terminal state,
    /// returning the final snapshot. Poll `n` uses request id
    /// `base_id + n` so every frame keeps a unique correlation id.
    pub fn wait_job(
        &mut self,
        base_id: u64,
        job: u64,
        interval: Duration,
    ) -> Result<JobSnapshot, NetError> {
        let mut n = 0u64;
        loop {
            let snapshot = self.job_status(base_id.wrapping_add(n), job)?;
            if snapshot.state.is_terminal() {
                return Ok(snapshot);
            }
            n += 1;
            std::thread::sleep(interval);
        }
    }

    /// Polls the server's live counters ([`StatsReply`]): per-shard service
    /// stats plus the net layer's frame counters. One attempt, no retry —
    /// a stats poll is cheap to reissue and the caller usually wants
    /// *current* numbers, not a delayed echo.
    pub fn stats(&mut self, id: u64) -> Result<StatsReply, NetError> {
        let bytes = encode_stats_request(id);
        // Under pipelining every outbound frame needs a unique correlation
        // id: stats polls mint theirs from the same SplitMix64 sequence as
        // eval requests (0 only when tracing is off).
        let trace = if trace::trace_enabled() {
            TraceId::mint(id).0
        } else {
            0
        };
        let stream = self.stream()?;
        if let Err(e) = write_frame(stream, FrameType::StatsRequest, trace, &bytes) {
            self.stream = None;
            return Err(NetError::Io(e));
        }
        let payload = self.read_reply(FrameType::StatsResponse, None, "a stats poll", CLOSED)?;
        let reply = decode_stats_reply(&payload).map_err(NetError::Decode)?;
        if reply.id != id {
            return Err(NetError::Protocol(format!(
                "stats reply id {} for poll id {id}",
                reply.id
            )));
        }
        Ok(reply)
    }

    /// Reads one reply frame and classifies it: the payload of an
    /// `expected` frame, or the typed error an `Error` frame carries
    /// (`Overloaded` / `Invalid`). With `request`, an error frame must echo
    /// that id (or 0); any other frame type is a protocol violation against
    /// `what`. A frame that cannot be read at all leaves the stream position
    /// unknown, so the connection is dropped; `closed` is the error text of
    /// a clean EOF.
    fn read_reply(
        &mut self,
        expected: FrameType,
        request: Option<u64>,
        what: &str,
        closed: &str,
    ) -> Result<Vec<u8>, NetError> {
        let stream = self.stream.as_mut().expect("stream present while reading");
        let frame = read_frame(stream).map_err(|err| {
            self.stream = None;
            match err {
                FrameReadError::Io(e) => NetError::Io(e),
                FrameReadError::Closed => NetError::Io(std::io::Error::new(
                    std::io::ErrorKind::ConnectionAborted,
                    closed,
                )),
                FrameReadError::Decode(e) => NetError::Decode(e),
            }
        })?;
        if frame.frame_type == expected {
            return Ok(frame.payload);
        }
        if frame.frame_type != FrameType::Error {
            return Err(NetError::Protocol(format!(
                "server sent a {:?} frame to {what}",
                frame.frame_type
            )));
        }
        let (echo, err) = decode_error(&frame.payload).map_err(NetError::Decode)?;
        if let Some(id) = request.filter(|&id| echo != id && echo != 0) {
            return Err(NetError::Protocol(format!(
                "error frame id {echo} for request id {id}"
            )));
        }
        Err(match err {
            WireError::Overloaded { shard, reason } => NetError::Overloaded { shard, reason },
            WireError::Invalid(msg) => NetError::Invalid(msg),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The memoized read timeout always matches the socket: after a
    /// change, after a skipped unchanged call, and after a reconnect, where
    /// the new socket starts back at the configured floor.
    #[test]
    fn read_timeout_memo_tracks_the_socket() {
        // The kernel completes the handshake from the listen backlog, so
        // the client connects without the test ever accepting.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let floor = Duration::from_secs(30);
        let config = ClientConfig {
            io_timeout: floor,
            ..ClientConfig::default()
        };
        let mut client = NetClient::connect(listener.local_addr().unwrap(), config).unwrap();
        let on_socket = |c: &NetClient| c.stream.as_ref().unwrap().read_timeout().unwrap();
        assert_eq!(on_socket(&client), Some(floor));
        assert_eq!(client.read_timeout, Some(floor));

        let budget = Some(Duration::from_millis(20));
        client.stream_with_read_timeout(budget).unwrap();
        assert_eq!(on_socket(&client), budget);
        client.stream_with_read_timeout(budget).unwrap();
        assert_eq!(on_socket(&client), budget);
        client.stream_with_read_timeout(Some(floor)).unwrap();
        assert_eq!(on_socket(&client), Some(floor));

        client.stream_with_read_timeout(budget).unwrap();
        client.stream = None;
        client.stream_with_read_timeout(budget).unwrap();
        assert_eq!(client.reconnects(), 1);
        assert_eq!(on_socket(&client), budget);
    }
}
