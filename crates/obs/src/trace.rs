//! End-to-end request tracing: deterministic trace ids and per-stage
//! span events.
//!
//! A trace follows one request across every layer it touches: the client
//! mints a [`TraceId`], the wire protocol carries it in the frame header,
//! the service threads it through shard queues into the workers, and each
//! stage emits one `trace.span` JSON-lines event into the regular
//! [`crate::EventSink`]. One JSONL stream therefore reconstructs the full
//! latency breakdown of any request — including retries, sheds, and
//! chaos-induced degradations.
//!
//! # Stages
//!
//! The canonical pipeline is five stages, each with a fixed sequence
//! number so a trace sorts into pipeline order without timestamps:
//!
//! | seq | stage         | emitted by        | measures                      |
//! |-----|---------------|-------------------|-------------------------------|
//! | 0   | `client.send` | `NetClient::call` | request encode + frame write  |
//! | 1   | `net.read`    | server reader     | request decode + validation   |
//! | 2   | `queue.wait`  | shard worker      | enqueue → worker pop          |
//! | 3   | `worker.exec` | shard worker      | plan lookup + evaluation      |
//! | 4   | `net.write`   | server writer     | response encode + frame write |
//! | 5   | `client.recv` | `NetClient::call` | full client-side round trip   |
//!
//! Exceptional paths reuse the scheme: `serve.shed` (seq 2) replaces
//! `queue.wait` when admission sheds the request, `client.retry`
//! (seq 0) records each extra attempt with its cause, and at the
//! `worker.exec` position (seq 3) `serve.brownout` marks a budgeted
//! (degraded-precision) evaluation while `serve.deadline` marks a request
//! dropped at dequeue because its deadline had already expired.
//!
//! # Determinism
//!
//! Tracing has two modes, controlled by the `FEPIA_TRACE` environment
//! variable (or programmatically via [`set_trace_enabled`] /
//! [`set_trace_wall`]):
//!
//! | value           | effect                                             |
//! |-----------------|----------------------------------------------------|
//! | unset, ``, `0`  | tracing off — disabled path is one relaxed load    |
//! | `1`, `true`     | full mode: spans carry `t_us`/`us` wall-clock      |
//! |                 | fields and scheduling-dependent fields (`cache`)   |
//! | `det`           | deterministic mode: wall-clock and scheduling-     |
//! |                 | dependent fields are omitted, so a fixed-seed run  |
//! |                 | produces a bitwise-identical span stream (after    |
//! |                 | sorting — thread *interleaving* is never pinned)   |
//!
//! Span events ride the regular event machinery: they reach a sink only
//! when [`crate::events_enabled`] is also on (`FEPIA_TRACE=1` with
//! `FEPIA_OBS=<path>` is the usual production pairing). When tracing is
//! off, no `trace.*` event is ever emitted and the event stream is
//! byte-identical to the un-traced one.

use crate::sink::Event;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Stage names and sequence numbers for the canonical request pipeline.
pub mod stage {
    /// Client encodes and writes the request frame.
    pub const CLIENT_SEND: (&str, u32) = ("client.send", 0);
    /// Server reads and decodes the request frame.
    pub const NET_READ: (&str, u32) = ("net.read", 1);
    /// Request waits in its shard queue.
    pub const QUEUE_WAIT: (&str, u32) = ("queue.wait", 2);
    /// Worker evaluates the request against its compiled plan.
    pub const WORKER_EXEC: (&str, u32) = ("worker.exec", 3);
    /// Server encodes and writes the response frame.
    pub const NET_WRITE: (&str, u32) = ("net.write", 4);
    /// Client receives and decodes the response (whole round trip).
    pub const CLIENT_RECV: (&str, u32) = ("client.recv", 5);
    /// Admission shed the request instead of queueing it (replaces
    /// `queue.wait` in the trace).
    pub const SERVE_SHED: (&str, u32) = ("serve.shed", 2);
    /// One client retry attempt (extra `client.send`-position event).
    pub const CLIENT_RETRY: (&str, u32) = ("client.retry", 0);
    /// Worker evaluated the request in budgeted (brownout) mode — replaces
    /// `worker.exec` in the trace; carries the same `units`/`degraded`
    /// fields so the resilience analyzer counts it as degraded service.
    pub const SERVE_BROWNOUT: (&str, u32) = ("serve.brownout", 3);
    /// The request's deadline expired before a worker picked it up; it was
    /// dropped at dequeue without evaluation (replaces `worker.exec`).
    pub const SERVE_DEADLINE: (&str, u32) = ("serve.deadline", 3);
    /// An optimizer job was admitted to the job table.
    pub const JOB_SUBMIT: (&str, u32) = ("job.submit", 6);
    /// One population batch of an optimizer job finished and folded its
    /// candidates into the Pareto front.
    pub const JOB_BATCH: (&str, u32) = ("job.batch", 7);
    /// An optimizer job reached a terminal state (done / cancelled /
    /// failed).
    pub const JOB_DONE: (&str, u32) = ("job.done", 8);
}

static TRACE: AtomicBool = AtomicBool::new(false);
static WALL: AtomicBool = AtomicBool::new(false);
static TRACE_INIT: std::sync::Once = std::sync::Once::new();

fn init_from_env() {
    match std::env::var("FEPIA_TRACE").unwrap_or_default().as_str() {
        "" | "0" => {}
        "det" | "deterministic" => TRACE.store(true, Ordering::Relaxed),
        // Any other value (canonically "1"/"true") is full mode.
        _ => {
            TRACE.store(true, Ordering::Relaxed);
            WALL.store(true, Ordering::Relaxed);
        }
    }
}

/// Whether request tracing is on. The first call reads `FEPIA_TRACE`;
/// afterwards this is one relaxed atomic load — the entire disabled-path
/// cost of every trace site.
#[inline]
pub fn trace_enabled() -> bool {
    TRACE_INIT.call_once(init_from_env);
    TRACE.load(Ordering::Relaxed)
}

/// Whether spans carry wall-clock (`t_us`, `us`) and scheduling-dependent
/// fields. Off in deterministic mode.
#[inline]
pub fn trace_wall_enabled() -> bool {
    TRACE_INIT.call_once(init_from_env);
    WALL.load(Ordering::Relaxed)
}

/// Programmatically turns tracing on or off, overriding the environment.
pub fn set_trace_enabled(on: bool) {
    TRACE_INIT.call_once(init_from_env);
    TRACE.store(on, Ordering::Relaxed);
}

/// Programmatically selects full (`true`) or deterministic (`false`) span
/// content. Only meaningful while tracing is enabled.
pub fn set_trace_wall(on: bool) {
    TRACE_INIT.call_once(init_from_env);
    WALL.store(on, Ordering::Relaxed);
}

/// Microseconds since the process trace epoch (the first call wins). All
/// `t_us` fields share this epoch, so events from different threads and
/// layers order on one axis.
pub fn epoch_us() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// A 64-bit trace id. Minted deterministically from the request id, so a
/// fixed-seed workload produces the same ids run after run, and every
/// layer that knows the request id can recompute the trace id offline.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

impl TraceId {
    /// Mints the trace id for a request id: one SplitMix64 finalizer pass,
    /// so adjacent request ids spread over the full 64-bit space while
    /// staying a pure function of the input.
    pub fn mint(request_id: u64) -> TraceId {
        TraceId(crate::hash::splitmix64(request_id))
    }

    /// The canonical textual form: 16 lowercase hex digits.
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Starts a `trace.span` event for one pipeline stage. The deterministic
/// fields (`trace`, `stage`, `seq`, `id`) are filled in; the caller chains
/// any extra fields and calls [`Event::emit`]. Like every event, it
/// reaches a sink only when event output is enabled.
///
/// Callers must gate on [`trace_enabled`] *before* doing any work to
/// compute extra fields — the disabled path of a trace site is exactly one
/// relaxed atomic load.
pub fn span_event(trace: TraceId, (name, seq): (&'static str, u32), request_id: u64) -> Event {
    Event::new("trace.span")
        .field("trace", trace.to_hex())
        .field("stage", name)
        .field("seq", u64::from(seq))
        .field("id", request_id)
}

/// Adds the wall-clock fields (`t_us` since the trace epoch, `us` elapsed
/// since `started`) in full mode; a no-op in deterministic mode.
pub fn with_wall(event: Event, started: Instant) -> Event {
    if !trace_wall_enabled() {
        return event;
    }
    event
        .field("t_us", epoch_us())
        .field("us", started.elapsed().as_nanos() as f64 / 1_000.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{clear_sink, install_sink, VecSink};
    use std::sync::Arc;

    #[test]
    fn mint_is_deterministic_and_spreads() {
        assert_eq!(TraceId::mint(7), TraceId::mint(7));
        assert_ne!(TraceId::mint(0), TraceId::mint(1));
        // SplitMix64 golden value: mint(0) is the finalizer of 0.
        assert_eq!(TraceId::mint(0).0, 0xe220a8397b1dcdaf);
        assert_eq!(TraceId::mint(0).to_hex(), "e220a8397b1dcdaf");
    }

    #[test]
    fn toggles_are_sticky() {
        set_trace_enabled(true);
        assert!(trace_enabled());
        set_trace_wall(true);
        assert!(trace_wall_enabled());
        set_trace_wall(false);
        assert!(!trace_wall_enabled());
        set_trace_enabled(false);
        assert!(!trace_enabled());
    }

    #[test]
    fn span_event_schema_is_stable() {
        let sink = Arc::new(VecSink::new());
        let prev = install_sink(sink.clone());
        crate::set_events_enabled(true);
        set_trace_enabled(true);
        set_trace_wall(false);
        span_event(TraceId::mint(3), stage::WORKER_EXEC, 3)
            .field("shard", 1u64)
            .emit();
        crate::set_events_enabled(false);
        set_trace_enabled(false);
        if let Some(prev) = prev {
            install_sink(prev);
        } else {
            clear_sink();
        }
        let lines = sink.lines();
        assert_eq!(lines.len(), 1);
        let expected = format!(
            r#"{{"schema":"fepia.event/v1","event":"trace.span","trace":"{}","stage":"worker.exec","seq":3,"id":3,"shard":1}}"#,
            TraceId::mint(3).to_hex()
        );
        assert_eq!(lines[0], expected);
    }

    #[test]
    fn deterministic_mode_omits_wall_fields() {
        set_trace_enabled(true);
        set_trace_wall(false);
        let sink = Arc::new(VecSink::new());
        let prev = install_sink(sink.clone());
        crate::set_events_enabled(true);
        let started = Instant::now();
        with_wall(span_event(TraceId::mint(1), stage::CLIENT_SEND, 1), started).emit();
        set_trace_wall(true);
        with_wall(span_event(TraceId::mint(1), stage::CLIENT_SEND, 1), started).emit();
        crate::set_events_enabled(false);
        set_trace_enabled(false);
        set_trace_wall(false);
        if let Some(prev) = prev {
            install_sink(prev);
        } else {
            clear_sink();
        }
        let lines = sink.lines();
        assert!(!lines[0].contains("t_us"), "det line: {}", lines[0]);
        assert!(lines[1].contains("t_us") && lines[1].contains("\"us\":"));
    }
}
