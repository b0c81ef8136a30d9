//! `fepia-serve` — a long-running, sharded robustness evaluation service.
//!
//! The ROADMAP's north star is a production system where the FePIA metric
//! (Eq. 1–2) is not a one-shot computation but an always-on query: a
//! scheduler continuously asks "how robust is this mapping?" and "how
//! robust would it be after this move?". This crate turns the compiled
//! plans of `fepia-core` and the incremental `DeltaEval` of
//! `fepia-mapping` into exactly that service, std-only like the rest of
//! the workspace:
//!
//! * [`Scenario`] / [`CompiledScenario`] — the cacheable unit `(ETC, μ,
//!   τ, options)`, fingerprinted for routing and compiled bitwise-
//!   identically to the legacy [`fepia_mapping::makespan_robustness_generic`]
//!   path.
//! * [`Service`] — N shards, each with a bounded request queue (one
//!   [`Service::submit`] path, shed-on-full admission control or blocking
//!   backpressure as its [`Submit`] says), an LRU
//!   plan cache with single-flight compilation coalescing, and worker
//!   threads that answer every accepted request — panics, compile
//!   failures and injected faults all degrade to typed
//!   [`fepia_core::PlanVerdict`]s, never dropped tickets.
//! * [`workload`] — deterministic seeded request streams and
//!   order-independent response digests, shared by the soak tests, the
//!   differential oracle and `serve_bench`.
//! * [`job`] — long-running optimizer jobs: a bounded [`JobTable`] runs
//!   seeded heuristic populations batch-parallel over `DeltaEval` and
//!   accumulates a deterministic makespan × robustness Pareto front,
//!   pollable mid-flight and cancellable at batch boundaries.
//!
//! Observability: `serve.*` counters and histograms (queue depth, cache
//! hits/misses/coalesced, worker panics, per-request latency, shard busy
//! time) through `fepia-obs`, plus always-on [`ServiceStats`] atomics.
//! Fault injection: `serve.enqueue` and `serve.worker` chaos sites
//! compose with the `core.origin` / `mapping.delta.load` sites downstream.

pub mod cache;
pub mod job;
mod queue;
pub mod scenario;
pub mod service;
pub mod workload;

pub use cache::{CacheOutcome, PlanCache};
pub use job::{
    default_portfolio, JobError, JobHeuristic, JobSnapshot, JobSpec, JobState, JobStatsSnapshot,
    JobTable, JobTableConfig,
};
pub use scenario::{
    CompiledScenario, CurveGrid, CurveMeta, CurveSpec, Scenario, ScenarioError, MAX_CURVE_DEPTH,
    MAX_CURVE_POINTS,
};
pub use service::{
    Disposition, EvalKind, EvalRequest, EvalResponse, Overloaded, RequestBudget, ServeError,
    Service, ServiceConfig, ServiceStats, ShardStatsSnapshot, ShedReason, Submit, Ticket,
};
