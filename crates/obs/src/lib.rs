//! `fepia-obs`: zero-dependency observability for the fepia workspace.
//!
//! Three pieces, all std-only:
//!
//! 1. **Metrics** — a [`MetricsRegistry`] of atomic [`Counter`]s, [`Gauge`]s
//!    and fixed-bucket [`Histogram`]s with p50/p90/p99 readout. A global
//!    registry is available via [`global`]; scoped registries can be built
//!    for tests.
//! 2. **Spans** — [`span!`] creates a [`SpanGuard`] that times its scope and
//!    aggregates per-thread, rolling up into the registry as
//!    `span.<name>.ns` histograms.
//! 3. **Events** — [`Event`] records render as JSON lines into an
//!    [`EventSink`] ([`JsonlSink`] to a file, [`NullSink`] to nowhere).
//!    [`RunManifest`] describes a whole run next to its outputs.
//!
//! Alongside them, [`hash`] holds the workspace's word-at-a-time hash: the
//! wire frame checksum and the word hasher behind scenario fingerprints.
//!
//! # Enabling
//!
//! Everything is off by default and the disabled paths are a single relaxed
//! atomic load — instrumented code must not measurably slow down when the
//! layer is off. The `FEPIA_OBS` environment variable controls startup
//! state:
//!
//! | value          | effect                                          |
//! |----------------|-------------------------------------------------|
//! | unset, ``, `0` | disabled                                        |
//! | `1`, `true`    | metrics + spans on, events discarded            |
//! | anything else  | treated as a path: metrics + spans + events on, |
//! |                | events appended to that path as JSON lines      |
//!
//! Programs can also toggle programmatically with [`set_enabled`] /
//! [`set_events_enabled`] and [`install_sink`], which take precedence over
//! the environment.
//!
//! # Metric-name families
//!
//! Instrumented crates prefix their metric names by layer, so a snapshot
//! groups naturally: `core.*` (plan compilation/evaluation), `par.*`
//! (parallel sweeps), `chaos.injected.*` (fired injections), `serve.*`
//! (queue depth, cache hits/misses, shed requests, per-request latency)
//! and `net.*` (connections, frames read/written, decode errors,
//! overload/invalid replies, client reconnects/retries, `net.request.us`
//! end-to-end latency).
//!
//! # Determinism
//!
//! The obs layer only *observes*: enabling it never changes scheduling,
//! iteration order, or numeric results of instrumented code. Event line
//! *interleaving* across threads is not deterministic; the values computed
//! by the instrumented code are.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Once};

pub mod analyzer;
pub mod hash;
pub mod json;
pub mod manifest;
pub mod registry;
pub mod sink;
pub mod span;
pub mod trace;

pub use analyzer::{
    analyze, AnalyzerConfig, ResilienceReport, ResilienceThresholds, StageStats, Telemetry,
    WindowPoint,
};
pub use json::Value;
pub use manifest::RunManifest;
pub use registry::{
    global, Counter, Gauge, Histogram, Metric, MetricsRegistry, MetricsSnapshot, SnapshotEntry,
    SnapshotValue,
};
pub use sink::{
    clear_sink, flush_sink, install_sink, Event, EventSink, JsonlSink, NullSink, VecSink,
};
pub use span::{flush_thread_spans, SpanGuard};
pub use trace::{set_trace_enabled, set_trace_wall, trace_enabled, trace_wall_enabled, TraceId};

static ENABLED: AtomicBool = AtomicBool::new(false);
static EVENTS: AtomicBool = AtomicBool::new(false);
static INIT: Once = Once::new();

fn init_from_env() {
    let var = std::env::var("FEPIA_OBS").unwrap_or_default();
    match var.as_str() {
        "" | "0" => {}
        "1" | "true" => ENABLED.store(true, Ordering::Relaxed),
        path => {
            ENABLED.store(true, Ordering::Relaxed);
            match JsonlSink::create(path) {
                Ok(sink) => {
                    install_sink(Arc::new(sink));
                    EVENTS.store(true, Ordering::Relaxed);
                }
                Err(err) => {
                    eprintln!("fepia-obs: cannot open FEPIA_OBS={path}: {err}; events disabled");
                }
            }
        }
    }
}

/// Whether metrics and span collection are on. The first call reads
/// `FEPIA_OBS`; afterwards this is one relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    INIT.call_once(init_from_env);
    ENABLED.load(Ordering::Relaxed)
}

/// Whether structured events are emitted to the installed sink.
#[inline]
pub fn events_enabled() -> bool {
    INIT.call_once(init_from_env);
    EVENTS.load(Ordering::Relaxed)
}

/// Programmatically turns metric/span collection on or off, overriding the
/// environment (the env is still read once, first).
pub fn set_enabled(on: bool) {
    INIT.call_once(init_from_env);
    ENABLED.store(on, Ordering::Relaxed);
}

/// Programmatically turns event emission on or off. Pair with
/// [`install_sink`] — events without a sink are dropped.
pub fn set_events_enabled(on: bool) {
    INIT.call_once(init_from_env);
    EVENTS.store(on, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toggles_are_sticky() {
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
        set_events_enabled(true);
        assert!(events_enabled());
        set_events_enabled(false);
        assert!(!events_enabled());
    }

    #[test]
    fn event_roundtrip_through_vec_sink() {
        let sink = Arc::new(VecSink::new());
        let prev = install_sink(sink.clone());
        set_events_enabled(true);
        Event::new("unit.test")
            .field("k", 7u64)
            .field("ok", true)
            .emit();
        set_events_enabled(false);
        if let Some(prev) = prev {
            install_sink(prev);
        } else {
            clear_sink();
        }
        let lines = sink.lines();
        assert_eq!(
            lines,
            vec![r#"{"schema":"fepia.event/v1","event":"unit.test","k":7,"ok":true}"#.to_string()]
        );
    }
}
