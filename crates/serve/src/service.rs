//! The long-running evaluation service.
//!
//! A [`Service`] owns `shards` independent worker groups. Each shard has a
//! bounded request queue (admission control + backpressure), a plan cache
//! ([`crate::cache`]) and one or more `std::thread` workers. Requests are
//! routed by consistent hashing on the scenario fingerprint, so all
//! traffic for one scenario lands on one shard — its plan is compiled
//! once, cached once, and never duplicated across shards.
//!
//! **Admission.** One [`Submit`] value says how a request enters:
//! [`Service::submit`] hands back a [`Ticket`], [`Service::submit_with`]
//! runs a completion callback on the worker thread instead (the event-loop
//! net server's hand-off), and [`Service::call`] submits and waits. By
//! default a full queue sheds the request with a typed [`Overloaded`]
//! carrying the shard and [`ShedReason`]; [`Submit::wait`] waits for space
//! instead (backpressure for batch clients, and what [`Service::call`]
//! does). After [`Service::shutdown`] begins, every path rejects with
//! [`ShedReason::ShuttingDown`] while workers drain every request already
//! accepted — accepted work is never dropped.
//!
//! **Fault tolerance.** Each evaluation attempt runs under
//! `catch_unwind`; a panicking attempt (e.g. injected at the
//! `serve.worker` chaos site) is retried up to
//! [`ServiceConfig::worker_attempts`] times with a fresh workspace, and
//! only then does the client see a [`FailReason::Panic`] verdict — the
//! ticket is always answered. Chaos sites: `serve.enqueue` (delay before
//! routing) and `serve.worker` (delay + panic injection around the
//! evaluation).
//!
//! **Determinism.** Responses are pure functions of the request: plans are
//! compiled deterministically and evaluations are bitwise identical
//! whether the plan came cold, from cache, or from a coalesced compile,
//! and regardless of which worker or shard ran them. The workspace soak
//! test replays 100k requests twice and asserts the aggregate digest is
//! bit-for-bit equal.

use crate::cache::{CacheOutcome, PlanCache};
use crate::queue::{BoundedQueue, PushError};
use crate::scenario::{CurveMeta, CurveSpec, Scenario};
use fepia_core::{EvalBudget, FailReason, PlanVerdict, PlanWorkspace, ResiliencePolicy};
use fepia_optim::VecN;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What to evaluate against a scenario's compiled plan.
#[derive(Clone, Debug)]
pub enum EvalKind {
    /// One verdict at the assumed operating point `C_orig`.
    Verdict,
    /// One verdict per caller-supplied origin (perturbed operating points).
    Origins(Vec<VecN>),
    /// One verdict per single-application move `(app, dst)` applied to the
    /// base mapping — the hot scheduler-probe path, served by `DeltaEval`.
    Moves(Vec<(usize, usize)>),
    /// The full degradation curve ρ(τ) over a tolerance grid: one verdict
    /// per curve point, all levels sharing the scenario's compiled plan.
    /// The response additionally carries [`CurveMeta`] (the evaluated τ
    /// levels plus monotonicity).
    Curve(CurveSpec),
}

impl EvalKind {
    /// Number of verdicts a response to this kind carries — for adaptive
    /// curves the worst case, which is what admission control and deadline
    /// budgets must charge.
    pub fn units(&self) -> usize {
        match self {
            EvalKind::Verdict => 1,
            EvalKind::Origins(os) => os.len(),
            EvalKind::Moves(ms) => ms.len(),
            EvalKind::Curve(spec) => spec.max_points(),
        }
    }

    /// Whether re-evaluating this kind is always safe (bitwise-identical
    /// answer, no side effects). Every current kind is a pure function of
    /// the request — the client's deadline path consults this before a
    /// hedged retry, so a future mutating kind is excluded by construction
    /// rather than by convention.
    pub fn is_idempotent(&self) -> bool {
        match self {
            EvalKind::Verdict | EvalKind::Origins(_) | EvalKind::Moves(_) | EvalKind::Curve(_) => {
                true
            }
        }
    }
}

/// One request: a client-chosen id, the scenario, and what to evaluate.
#[derive(Clone, Debug)]
pub struct EvalRequest {
    /// Echoed verbatim in the response; the service never interprets it.
    pub id: u64,
    /// The scenario to (look up or) compile and evaluate.
    pub scenario: Arc<Scenario>,
    /// What to evaluate.
    pub kind: EvalKind,
}

/// How a response was produced relative to its deadline budget — echoed on
/// the wire so clients can distinguish a full-precision answer from a
/// deliberately degraded one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Disposition {
    /// Full-precision evaluation (the normal path).
    #[default]
    Full,
    /// Budgeted (brownout) evaluation: affine features exact, numeric
    /// features truncated to certified `Bounded` intervals — a sound but
    /// degraded-precision answer, returned instead of shedding.
    Brownout,
    /// The deadline expired before a worker picked the request up; it was
    /// dropped at dequeue without evaluation and `verdicts` is empty.
    DeadlineExceeded,
}

impl Disposition {
    /// Stable label, also the obs counter / trace field value.
    pub fn label(self) -> &'static str {
        match self {
            Disposition::Full => "full",
            Disposition::Brownout => "brownout",
            Disposition::DeadlineExceeded => "deadline_exceeded",
        }
    }
}

/// Per-request deadline/brownout metadata threaded from admission to the
/// worker. Separate from [`EvalRequest`] so the request stays a pure
/// description of *what* to evaluate while this carries *how urgently*.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RequestBudget {
    /// Relative deadline, measured from admission. A request still queued
    /// past its deadline is dropped at dequeue with
    /// [`Disposition::DeadlineExceeded`]; one whose queue wait consumed
    /// most of the budget (see [`ServiceConfig::brownout_after`]) is
    /// evaluated in budgeted mode. `None` = no deadline.
    pub deadline: Option<Duration>,
    /// Force budgeted evaluation regardless of queue wait — set by
    /// upstream admission control (the net server's in-flight accounting)
    /// when the system is under pressure.
    pub brownout: bool,
}

impl RequestBudget {
    /// A budget with just a relative deadline.
    pub fn with_deadline(deadline: Duration) -> RequestBudget {
        RequestBudget {
            deadline: Some(deadline),
            brownout: false,
        }
    }
}

/// How one request is submitted: the three things submission paths differ
/// in. `Submit::default()` mints the trace id from the request id, carries
/// no deadline, and sheds on a full queue.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Submit {
    /// Trace id carried through the queue (see [`fepia_obs::trace`]).
    /// `None` mints it from the request id when tracing is on; `Some(0)`
    /// is untraced. The net server forwards the id in the frame header.
    pub trace: Option<u64>,
    /// Deadline/brownout metadata.
    pub budget: RequestBudget,
    /// Wait for queue space instead of shedding with
    /// [`ShedReason::QueueFull`]. A draining service rejects either way.
    pub wait: bool,
}

/// The service's answer to one [`EvalRequest`].
#[derive(Clone, Debug)]
pub struct EvalResponse {
    /// The request's id, echoed.
    pub id: u64,
    /// Which shard served the request.
    pub shard: usize,
    /// How the plan was obtained; `None` when every evaluation attempt
    /// panicked and the response is the all-failed fallback, or when the
    /// request was dropped with an expired deadline.
    pub cache: Option<CacheOutcome>,
    /// One verdict per requested unit (see [`EvalKind::units`]); empty for
    /// [`Disposition::DeadlineExceeded`].
    pub verdicts: Vec<PlanVerdict>,
    /// Evaluation attempts consumed (1 = clean first try; 0 = dropped
    /// without evaluation).
    pub attempts: u32,
    /// How the answer relates to its deadline budget.
    pub disposition: Disposition,
    /// Curve metadata, present exactly when the request was
    /// [`EvalKind::Curve`] and an evaluation ran: the τ level of each
    /// verdict plus the monotonicity flag.
    pub curve: Option<CurveMeta>,
}

/// Why the service refused a request at admission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShedReason {
    /// The target shard's queue is at capacity.
    QueueFull,
    /// The service is draining; no new work is accepted.
    ShuttingDown,
}

/// Typed admission rejection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Overloaded {
    /// The shard that refused.
    pub shard: usize,
    /// Why.
    pub reason: ShedReason,
}

/// Any way a request can fail to produce a response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// Shed at admission; retry later or against another scenario.
    Overloaded(Overloaded),
    /// The request is malformed w.r.t. its scenario (index/dimension out of
    /// range); resubmitting it unchanged can never succeed.
    Invalid(String),
    /// The worker side went away without answering (only possible after a
    /// worker thread died outside the catch path — a bug, not load).
    Disconnected,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded(o) => write!(
                f,
                "shard {} shed the request: {}",
                o.shard,
                match o.reason {
                    ShedReason::QueueFull => "queue full",
                    ShedReason::ShuttingDown => "shutting down",
                }
            ),
            ServeError::Invalid(msg) => write!(f, "invalid request: {msg}"),
            ServeError::Disconnected => write!(f, "worker disconnected before responding"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Service sizing and resilience knobs.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Number of shards (independent queues + caches).
    pub shards: usize,
    /// Worker threads per shard. More than one lets a shard overlap a slow
    /// compile with cached traffic (compilation is single-flighted either
    /// way).
    pub workers_per_shard: usize,
    /// Per-shard queue capacity; a submission that does not wait sheds
    /// beyond it.
    pub queue_capacity: usize,
    /// Per-shard plan-cache capacity (compiled scenarios).
    pub cache_capacity: usize,
    /// Evaluation attempts per request before answering with an all-failed
    /// panic verdict.
    pub worker_attempts: u32,
    /// Resilience policy forwarded to verdict evaluations.
    pub policy: ResiliencePolicy,
    /// Fraction of a request's deadline that queue wait may consume before
    /// the worker switches to budgeted (brownout) evaluation. Only
    /// meaningful for requests that carry a deadline.
    pub brownout_after: f64,
    /// Evaluate *every* request in budgeted mode — a deterministic test and
    /// bench hook: forced-brownout runs are pure functions of the request
    /// stream, so same-seed runs digest bitwise-identically.
    pub force_brownout: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            shards: 4,
            workers_per_shard: 1,
            queue_capacity: 1024,
            cache_capacity: 64,
            worker_attempts: 4,
            policy: ResiliencePolicy::default(),
            brownout_after: 0.5,
            force_brownout: false,
        }
    }
}

/// Always-on (obs-independent) per-shard counters, `Relaxed` atomics.
#[derive(Default)]
struct ShardStats {
    submitted: AtomicU64,
    completed: AtomicU64,
    shed_full: AtomicU64,
    shed_shutdown: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_coalesced: AtomicU64,
    worker_panics: AtomicU64,
    busy_ns: AtomicU64,
    deadline_expired: AtomicU64,
    brownout_evals: AtomicU64,
}

/// Snapshot of one shard's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStatsSnapshot {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Responses sent.
    pub completed: u64,
    /// Requests shed with [`ShedReason::QueueFull`].
    pub shed_full: u64,
    /// Requests shed with [`ShedReason::ShuttingDown`].
    pub shed_shutdown: u64,
    /// Plan-cache hits.
    pub cache_hits: u64,
    /// Plan compilations (cold misses + collision replacements).
    pub cache_misses: u64,
    /// Lookups satisfied by another worker's in-flight compile.
    pub cache_coalesced: u64,
    /// Evaluation attempts that panicked (and were retried or failed over).
    pub worker_panics: u64,
    /// Total wall time workers spent processing requests, in nanoseconds.
    pub busy_ns: u64,
    /// Requests dropped at dequeue because their deadline had expired.
    pub deadline_expired: u64,
    /// Requests answered in budgeted (brownout) evaluation mode.
    pub brownout_evals: u64,
}

impl ShardStatsSnapshot {
    /// Cache hit rate over lookups that had a chance to hit
    /// (hits + coalesced) / (hits + coalesced + misses); 0 when idle.
    pub fn cache_hit_rate(&self) -> f64 {
        let warm = self.cache_hits + self.cache_coalesced;
        let total = warm + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            warm as f64 / total as f64
        }
    }

    fn add(&mut self, other: &ShardStatsSnapshot) {
        self.submitted += other.submitted;
        self.completed += other.completed;
        self.shed_full += other.shed_full;
        self.shed_shutdown += other.shed_shutdown;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_coalesced += other.cache_coalesced;
        self.worker_panics += other.worker_panics;
        self.busy_ns += other.busy_ns;
        self.deadline_expired += other.deadline_expired;
        self.brownout_evals += other.brownout_evals;
    }
}

impl ShardStats {
    fn snapshot(&self) -> ShardStatsSnapshot {
        ShardStatsSnapshot {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            shed_full: self.shed_full.load(Ordering::Relaxed),
            shed_shutdown: self.shed_shutdown.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            cache_coalesced: self.cache_coalesced.load(Ordering::Relaxed),
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
            deadline_expired: self.deadline_expired.load(Ordering::Relaxed),
            brownout_evals: self.brownout_evals.load(Ordering::Relaxed),
        }
    }
}

/// Per-service and per-shard counter snapshots.
#[derive(Clone, Debug)]
pub struct ServiceStats {
    /// One snapshot per shard, in shard order.
    pub shards: Vec<ShardStatsSnapshot>,
}

impl ServiceStats {
    /// Sum over all shards.
    pub fn totals(&self) -> ShardStatsSnapshot {
        let mut t = ShardStatsSnapshot::default();
        for s in &self.shards {
            t.add(s);
        }
        t
    }
}

/// How a finished response leaves the worker thread: through the channel a
/// [`Ticket`] waits on (a dropped receiver silently discards the response),
/// or through a callback run inline on the worker thread, which must be
/// cheap and must not block. Workers never block on delivery either way.
enum Completion {
    Channel(mpsc::Sender<EvalResponse>),
    Callback(Box<dyn FnOnce(EvalResponse) + Send + 'static>),
}

impl Completion {
    fn complete(self, response: EvalResponse) {
        match self {
            Completion::Channel(tx) => {
                // A dropped ticket is the client's way of abandoning the
                // response.
                let _ = tx.send(response);
            }
            Completion::Callback(f) => f(response),
        }
    }
}

struct Job {
    req: EvalRequest,
    done: Completion,
    enqueued: Instant,
    /// Trace id carried through the queue (see [`fepia_obs::trace`]); 0
    /// when untraced.
    trace: u64,
    /// Deadline/brownout metadata from admission.
    budget: RequestBudget,
}

struct Shard {
    index: usize,
    queue: BoundedQueue<Job>,
    cache: PlanCache,
    stats: ShardStats,
}

/// A pending response. Dropping the ticket abandons the response (the
/// worker's send is silently discarded).
pub struct Ticket {
    rx: mpsc::Receiver<EvalResponse>,
    shard: usize,
}

impl Ticket {
    /// Blocks until the response arrives.
    pub fn wait(self) -> Result<EvalResponse, ServeError> {
        self.rx.recv().map_err(|_| ServeError::Disconnected)
    }

    /// The shard the request was routed to.
    pub fn shard(&self) -> usize {
        self.shard
    }
}

/// The per-worker slice of [`ServiceConfig`] the loop needs.
#[derive(Clone, Copy)]
struct WorkerConfig {
    policy: ResiliencePolicy,
    max_attempts: u32,
    brownout_after: f64,
    force_brownout: bool,
}

/// The long-running evaluation service. See the module docs.
pub struct Service {
    shards: Vec<Arc<Shard>>,
    workers: Vec<JoinHandle<()>>,
    worker_attempts: u32,
    policy: ResiliencePolicy,
}

impl Service {
    /// Starts the shards and their worker threads.
    pub fn start(config: ServiceConfig) -> Service {
        assert!(config.shards >= 1, "need at least one shard");
        assert!(config.workers_per_shard >= 1, "need at least one worker");
        assert!(config.worker_attempts >= 1, "need at least one attempt");
        assert!(
            config.brownout_after >= 0.0 && config.brownout_after <= 1.0,
            "brownout_after is a fraction of the deadline"
        );
        let shards: Vec<Arc<Shard>> = (0..config.shards)
            .map(|index| {
                Arc::new(Shard {
                    index,
                    queue: BoundedQueue::new(config.queue_capacity),
                    cache: PlanCache::new(config.cache_capacity),
                    stats: ShardStats::default(),
                })
            })
            .collect();
        let worker_config = WorkerConfig {
            policy: config.policy,
            max_attempts: config.worker_attempts,
            brownout_after: config.brownout_after,
            force_brownout: config.force_brownout,
        };
        let mut workers = Vec::with_capacity(config.shards * config.workers_per_shard);
        for shard in &shards {
            for w in 0..config.workers_per_shard {
                let shard = Arc::clone(shard);
                workers.push(
                    std::thread::Builder::new()
                        .name(format!("fepia-serve-{}-{}", shard.index, w))
                        .spawn(move || worker_loop(&shard, &worker_config))
                        .expect("spawn worker thread"),
                );
            }
        }
        Service {
            shards,
            workers,
            worker_attempts: config.worker_attempts,
            policy: config.policy,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a fingerprint routes to (SplitMix-mixed so adjacent
    /// fingerprints spread).
    pub fn shard_for(&self, fingerprint: u64) -> usize {
        (fepia_stats::subseed(fingerprint, 0) % self.shards.len() as u64) as usize
    }

    fn validate(req: &EvalRequest) -> Result<(), ServeError> {
        let apps = req.scenario.mapping().apps();
        let machines = req.scenario.mapping().machines();
        match &req.kind {
            EvalKind::Verdict => Ok(()),
            EvalKind::Origins(os) => {
                // An empty origin list would produce an empty response a
                // client cannot tell apart from a dropped evaluation —
                // reject it as malformed instead.
                if os.is_empty() {
                    return Err(ServeError::Invalid(
                        "origins request carries no origins".into(),
                    ));
                }
                for (k, o) in os.iter().enumerate() {
                    if o.dim() != apps {
                        return Err(ServeError::Invalid(format!(
                            "origin {k} has dimension {}, scenario has {apps} applications",
                            o.dim()
                        )));
                    }
                }
                Ok(())
            }
            EvalKind::Moves(ms) => {
                if ms.is_empty() {
                    return Err(ServeError::Invalid("moves request carries no moves".into()));
                }
                for (k, &(app, dst)) in ms.iter().enumerate() {
                    if app >= apps || dst >= machines {
                        return Err(ServeError::Invalid(format!(
                            "move {k} = ({app}, {dst}) out of range for {apps}×{machines}"
                        )));
                    }
                }
                Ok(())
            }
            EvalKind::Curve(spec) => match spec.validate() {
                Some(msg) => Err(ServeError::Invalid(msg)),
                None => Ok(()),
            },
        }
    }

    /// The one admission path: validate, route, then push onto the shard's
    /// queue — waiting for space or shedding, as `how` says.
    fn enqueue(
        &self,
        req: EvalRequest,
        how: Submit,
        done: Completion,
    ) -> Result<usize, ServeError> {
        Self::validate(&req)?;
        fepia_chaos::maybe_delay("serve.enqueue");
        let shard = self.shard_for(req.scenario.fingerprint());
        let trace = how.trace.unwrap_or_else(|| Self::default_trace(&req));
        let job = Job {
            req,
            done,
            enqueued: Instant::now(),
            trace,
            budget: how.budget,
        };
        let queue = &self.shards[shard].queue;
        let pushed = if how.wait {
            queue
                .push_blocking(job)
                .map_err(|job| (job, ShedReason::ShuttingDown))
        } else {
            queue.try_push(job).map_err(|e| match e {
                PushError::Full(job) => (job, ShedReason::QueueFull),
                PushError::Closed(job) => (job, ShedReason::ShuttingDown),
            })
        };
        match pushed {
            Ok(()) => {
                self.accepted(shard);
                Ok(shard)
            }
            Err((job, reason)) => {
                self.shed_span(&job, reason);
                Err(self.shed(shard, reason))
            }
        }
    }

    fn shed(&self, shard: usize, reason: ShedReason) -> ServeError {
        let stats = &self.shards[shard].stats;
        match reason {
            ShedReason::QueueFull => stats.shed_full.fetch_add(1, Ordering::Relaxed),
            ShedReason::ShuttingDown => stats.shed_shutdown.fetch_add(1, Ordering::Relaxed),
        };
        if fepia_obs::enabled() {
            fepia_obs::global().counter("serve.shed").inc();
        }
        ServeError::Overloaded(Overloaded { shard, reason })
    }

    fn accepted(&self, shard: usize) {
        let s = &self.shards[shard];
        s.stats.submitted.fetch_add(1, Ordering::Relaxed);
        if fepia_obs::enabled() {
            let reg = fepia_obs::global();
            reg.counter("serve.requests").inc();
            reg.histogram("serve.queue.depth")
                .record(s.queue.len() as f64);
        }
    }

    /// The trace id a submission without one attaches: minted from the
    /// request id when tracing is on, 0 (no trace) otherwise.
    fn default_trace(req: &EvalRequest) -> u64 {
        if fepia_obs::trace_enabled() {
            fepia_obs::TraceId::mint(req.id).0
        } else {
            0
        }
    }

    /// Emits the `serve.shed` span for a request refused at admission.
    fn shed_span(&self, job: &Job, reason: ShedReason) {
        if job.trace != 0 && fepia_obs::trace_enabled() {
            fepia_obs::trace::with_wall(
                fepia_obs::trace::span_event(
                    fepia_obs::TraceId(job.trace),
                    fepia_obs::trace::stage::SERVE_SHED,
                    job.req.id,
                ),
                job.enqueued,
            )
            .field(
                "reason",
                match reason {
                    ShedReason::QueueFull => "queue_full",
                    ShedReason::ShuttingDown => "shutting_down",
                },
            )
            .emit();
        }
    }

    /// Submits a request; the response arrives on the returned [`Ticket`].
    /// Refused at admission with a typed error: [`ServeError::Invalid`] for
    /// a malformed request, [`Overloaded`] when the queue is full (unless
    /// `how.wait`) or the service is draining.
    pub fn submit(&self, req: EvalRequest, how: Submit) -> Result<Ticket, ServeError> {
        let (tx, rx) = mpsc::channel();
        let shard = self.enqueue(req, how, Completion::Channel(tx))?;
        Ok(Ticket { rx, shard })
    }

    /// [`Service::submit`] with a completion callback instead of a
    /// [`Ticket`]: on acceptance, `done` later runs *on the worker thread*
    /// with the response, and the routed shard index is returned now. On
    /// refusal the callback is dropped unrun and the typed error returned
    /// — the caller answers the client itself. This is the event-loop net
    /// server's hand-off: its callback enqueues the response and wakes the
    /// loop's poll, so no thread ever blocks waiting on a ticket.
    pub fn submit_with<F>(
        &self,
        req: EvalRequest,
        how: Submit,
        done: F,
    ) -> Result<usize, ServeError>
    where
        F: FnOnce(EvalResponse) + Send + 'static,
    {
        self.enqueue(req, how, Completion::Callback(Box::new(done)))
    }

    /// Submit-and-wait: waits for queue space (backpressure) instead of
    /// shedding, then for the response.
    pub fn call(&self, req: EvalRequest) -> Result<EvalResponse, ServeError> {
        let how = Submit {
            wait: true,
            ..Submit::default()
        };
        self.submit(req, how)?.wait()
    }

    /// Current counter snapshots.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            shards: self.shards.iter().map(|s| s.stats.snapshot()).collect(),
        }
    }

    /// The configured per-request attempt budget.
    pub fn worker_attempts(&self) -> u32 {
        self.worker_attempts
    }

    /// The resilience policy evaluations run under.
    pub fn policy(&self) -> &ResiliencePolicy {
        &self.policy
    }

    fn stop(&mut self) {
        for shard in &self.shards {
            shard.queue.close();
        }
        for handle in self.workers.drain(..) {
            // A worker that somehow died takes its panic to join(); surface
            // it rather than hiding a broken service.
            handle.join().expect("worker thread panicked");
        }
    }

    /// Graceful drain: stop admitting, finish every accepted request, join
    /// all workers, and return the final stats.
    pub fn shutdown(mut self) -> ServiceStats {
        self.stop();
        self.stats()
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.stop();
    }
}

fn worker_loop(shard: &Shard, config: &WorkerConfig) {
    let policy = &config.policy;
    let max_attempts = config.max_attempts;
    let mut ws = PlanWorkspace::new();
    while let Some(job) = shard.queue.pop() {
        let started = Instant::now();
        let waited = started.duration_since(job.enqueued);
        if job.trace != 0 && fepia_obs::trace_enabled() {
            fepia_obs::trace::with_wall(
                fepia_obs::trace::span_event(
                    fepia_obs::TraceId(job.trace),
                    fepia_obs::trace::stage::QUEUE_WAIT,
                    job.req.id,
                ),
                job.enqueued,
            )
            .field("shard", shard.index as u64)
            .emit();
        }
        // Deadline gate: a request that expired while queued is dropped
        // here, before any evaluation work — the worker's time goes to
        // requests that can still meet their budget.
        if let Some(deadline) = job.budget.deadline {
            if waited >= deadline {
                shard.stats.deadline_expired.fetch_add(1, Ordering::Relaxed);
                shard.stats.completed.fetch_add(1, Ordering::Relaxed);
                if fepia_obs::enabled() {
                    fepia_obs::global().counter("deadline.expired").inc();
                }
                let units = job.req.kind.units() as u64;
                if job.trace != 0 && fepia_obs::trace_enabled() {
                    fepia_obs::trace::with_wall(
                        fepia_obs::trace::span_event(
                            fepia_obs::TraceId(job.trace),
                            fepia_obs::trace::stage::SERVE_DEADLINE,
                            job.req.id,
                        ),
                        started,
                    )
                    .field("shard", shard.index as u64)
                    .field("units", units)
                    .field("degraded", units)
                    .emit();
                }
                job.done.complete(EvalResponse {
                    id: job.req.id,
                    shard: shard.index,
                    cache: None,
                    verdicts: Vec::new(),
                    attempts: 0,
                    disposition: Disposition::DeadlineExceeded,
                    curve: None,
                });
                continue;
            }
        }
        // Brownout gate: forced by upstream admission control, or the queue
        // wait consumed more than `brownout_after` of the deadline — answer
        // with the cheap budgeted evaluation instead of risking a
        // full-precision answer that lands after the deadline.
        let brownout = config.force_brownout
            || job.budget.brownout
            || job.budget.deadline.is_some_and(|deadline| {
                waited.as_secs_f64() >= config.brownout_after * deadline.as_secs_f64()
            });
        let budget = if brownout {
            EvalBudget::BROWNOUT
        } else {
            EvalBudget::UNLIMITED
        };
        if brownout {
            shard.stats.brownout_evals.fetch_add(1, Ordering::Relaxed);
            if fepia_obs::enabled() {
                fepia_obs::global().counter("brownout.evaluations").inc();
            }
        }
        fepia_chaos::maybe_delay("serve.worker");
        let mut attempts = 0u32;
        let outcome = loop {
            attempts += 1;
            match catch_unwind(AssertUnwindSafe(|| {
                process(shard, &job.req, &mut ws, policy, budget)
            })) {
                Ok(result) => break Some(result),
                Err(_) => {
                    shard.stats.worker_panics.fetch_add(1, Ordering::Relaxed);
                    if fepia_obs::enabled() {
                        fepia_obs::global().counter("serve.worker.panics").inc();
                    }
                    // The workspace may hold state from the aborted attempt.
                    ws = PlanWorkspace::new();
                    if attempts >= max_attempts {
                        break None;
                    }
                }
            }
        };
        let (verdicts, cache, curve) = outcome.map_or_else(
            || {
                let reason = FailReason::Panic(format!(
                    "evaluation panicked on all {max_attempts} attempts"
                ));
                let failed = (0..job.req.kind.units().max(1))
                    .map(|_| PlanVerdict::all_failed(1, reason.clone()))
                    .collect();
                (failed, None, None)
            },
            |(v, c, meta)| (v, Some(c), meta),
        );
        if let Some(c) = cache {
            let counter = match c {
                CacheOutcome::Hit => &shard.stats.cache_hits,
                CacheOutcome::Compiled => &shard.stats.cache_misses,
                CacheOutcome::Coalesced => &shard.stats.cache_coalesced,
            };
            counter.fetch_add(1, Ordering::Relaxed);
            if fepia_obs::enabled() {
                let name = match c {
                    CacheOutcome::Hit => "serve.cache.hits",
                    CacheOutcome::Compiled => "serve.cache.misses",
                    CacheOutcome::Coalesced => "serve.cache.coalesced",
                };
                fepia_obs::global().counter(name).inc();
            }
        }
        let busy = started.elapsed().as_nanos() as u64;
        shard.stats.busy_ns.fetch_add(busy, Ordering::Relaxed);
        shard.stats.completed.fetch_add(1, Ordering::Relaxed);
        if fepia_obs::enabled() {
            let reg = fepia_obs::global();
            reg.counter("serve.responses").inc();
            reg.histogram("serve.shard.busy_ns").record(busy as f64);
            reg.histogram("serve.request.ns")
                .record(job.enqueued.elapsed().as_nanos() as f64);
        }
        let response = EvalResponse {
            id: job.req.id,
            shard: shard.index,
            cache,
            verdicts,
            attempts,
            disposition: if brownout {
                Disposition::Brownout
            } else {
                Disposition::Full
            },
            curve,
        };
        if job.trace != 0 && fepia_obs::trace_enabled() {
            // `units`, `degraded` and `attempts` are pure functions of the
            // request under a fixed seed; the cache outcome depends on
            // worker scheduling, so it only appears in full (wall) mode.
            // Brownout evaluations emit `serve.brownout` *instead of*
            // `worker.exec` (same seq) with every unit counted degraded —
            // the service deliberately served reduced precision, whatever
            // the individual verdicts say.
            let degraded = if brownout {
                response.verdicts.len()
            } else {
                response.verdicts.iter().filter(|v| !v.is_exact()).count()
            };
            let stage = if brownout {
                fepia_obs::trace::stage::SERVE_BROWNOUT
            } else {
                fepia_obs::trace::stage::WORKER_EXEC
            };
            let mut event = fepia_obs::trace::with_wall(
                fepia_obs::trace::span_event(fepia_obs::TraceId(job.trace), stage, response.id),
                started,
            )
            .field("shard", shard.index as u64)
            .field("units", response.verdicts.len() as u64)
            .field("degraded", degraded as u64)
            .field("attempts", u64::from(response.attempts));
            if fepia_obs::trace_wall_enabled() {
                event = event.field(
                    "cache",
                    match response.cache {
                        Some(CacheOutcome::Hit) => "hit",
                        Some(CacheOutcome::Compiled) => "compiled",
                        Some(CacheOutcome::Coalesced) => "coalesced",
                        None => "failed",
                    },
                );
            }
            event.emit();
        }
        job.done.complete(response);
    }
}

fn process(
    shard: &Shard,
    req: &EvalRequest,
    ws: &mut PlanWorkspace,
    policy: &ResiliencePolicy,
    budget: EvalBudget,
) -> (Vec<PlanVerdict>, CacheOutcome, Option<CurveMeta>) {
    fepia_chaos::maybe_panic("serve.worker");
    let (compiled, outcome) = shard.cache.get_or_compile(&req.scenario);
    let (verdicts, curve) = match compiled {
        Ok(compiled) => match &req.kind {
            EvalKind::Verdict => (
                vec![compiled.verdict_at_origin_budgeted(ws, policy, budget)],
                None,
            ),
            EvalKind::Origins(os) => (compiled.verdicts_at_budgeted(os, ws, policy, budget), None),
            // Moves ride DeltaEval's affine closed form — already the cheap
            // path, identical under any budget.
            EvalKind::Moves(ms) => (compiled.move_verdicts(ms), None),
            EvalKind::Curve(spec) => {
                let (verdicts, meta) = compiled.curve_verdicts(spec, ws, policy, budget);
                (verdicts, Some(meta))
            }
        },
        Err(e) => {
            // Compilation failed: a typed all-failed verdict per unit, never
            // a dropped ticket.
            let reason = FailReason::Solver(e.to_string());
            (
                (0..req.kind.units().max(1))
                    .map(|_| PlanVerdict::all_failed(1, reason.clone()))
                    .collect(),
                None,
            )
        }
    };
    (verdicts, outcome, curve)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::CurveGrid;
    use fepia_core::RadiusOptions;
    use fepia_etc::{generate_cvb, EtcParams};
    use fepia_mapping::{makespan_robustness, Mapping};
    use fepia_stats::rng_for;

    fn scenario(seed: u64) -> Arc<Scenario> {
        let etc = Arc::new(generate_cvb(
            &mut rng_for(seed, 0),
            &EtcParams::paper_section_4_2(),
        ));
        let mapping = Mapping::random(&mut rng_for(seed, 1), 20, 5);
        Arc::new(Scenario::new(etc, mapping, 1.2, RadiusOptions::default()).unwrap())
    }

    fn small_service() -> Service {
        Service::start(ServiceConfig {
            shards: 2,
            workers_per_shard: 1,
            queue_capacity: 16,
            cache_capacity: 4,
            ..ServiceConfig::default()
        })
    }

    #[test]
    fn verdict_request_round_trips() {
        let service = small_service();
        let s = scenario(1);
        let resp = service
            .call(EvalRequest {
                id: 42,
                scenario: Arc::clone(&s),
                kind: EvalKind::Verdict,
            })
            .unwrap();
        assert_eq!(resp.id, 42);
        assert_eq!(resp.verdicts.len(), 1);
        assert_eq!(resp.cache, Some(CacheOutcome::Compiled));
        assert_eq!(resp.attempts, 1);
        let expected = makespan_robustness(s.mapping(), s.etc(), s.tau()).unwrap();
        assert_eq!(
            resp.verdicts[0].metric_hi.to_bits(),
            expected.metric.to_bits()
        );

        // Same scenario again: served from cache, bitwise-identical.
        let resp2 = service
            .call(EvalRequest {
                id: 43,
                scenario: s,
                kind: EvalKind::Verdict,
            })
            .unwrap();
        assert_eq!(resp2.cache, Some(CacheOutcome::Hit));
        assert_eq!(
            resp2.verdicts[0].metric_hi.to_bits(),
            resp.verdicts[0].metric_hi.to_bits()
        );
        let totals = service.shutdown().totals();
        assert_eq!(totals.completed, 2);
        assert_eq!(totals.cache_hits, 1);
        assert_eq!(totals.cache_misses, 1);
    }

    #[test]
    fn moves_and_origins_units_match() {
        let service = small_service();
        let s = scenario(2);
        let moves = vec![(0, 1), (3, 4), (7, 0)];
        let resp = service
            .call(EvalRequest {
                id: 1,
                scenario: Arc::clone(&s),
                kind: EvalKind::Moves(moves.clone()),
            })
            .unwrap();
        assert_eq!(resp.verdicts.len(), 3);
        for (&(app, dst), v) in moves.iter().zip(&resp.verdicts) {
            let mut moved = s.mapping().clone();
            moved.reassign(app, dst);
            let expected = makespan_robustness(&moved, s.etc(), s.tau()).unwrap();
            assert_eq!(v.metric_hi.to_bits(), expected.metric.to_bits());
        }

        let origins = vec![
            fepia_optim::VecN::new(s.mapping().assigned_times(s.etc())),
            fepia_optim::VecN::new(s.mapping().assigned_times(s.etc())),
        ];
        let resp = service
            .call(EvalRequest {
                id: 2,
                scenario: s,
                kind: EvalKind::Origins(origins),
            })
            .unwrap();
        assert_eq!(resp.verdicts.len(), 2);
    }

    #[test]
    fn invalid_requests_rejected_with_typed_error() {
        let service = small_service();
        let s = scenario(3);
        let bad_move = service.call(EvalRequest {
            id: 0,
            scenario: Arc::clone(&s),
            kind: EvalKind::Moves(vec![(99, 0)]),
        });
        assert!(matches!(bad_move, Err(ServeError::Invalid(_))));
        let bad_origin = service.call(EvalRequest {
            id: 0,
            scenario: Arc::clone(&s),
            kind: EvalKind::Origins(vec![fepia_optim::VecN::zeros(3)]),
        });
        assert!(matches!(bad_origin, Err(ServeError::Invalid(_))));
        // The empty-list gap: an empty moves/origins request would produce
        // an empty response indistinguishable from a drop — both are typed
        // Invalid now.
        let empty_moves = service.call(EvalRequest {
            id: 0,
            scenario: Arc::clone(&s),
            kind: EvalKind::Moves(Vec::new()),
        });
        assert!(matches!(empty_moves, Err(ServeError::Invalid(_))));
        let empty_origins = service.call(EvalRequest {
            id: 0,
            scenario: Arc::clone(&s),
            kind: EvalKind::Origins(Vec::new()),
        });
        assert!(matches!(empty_origins, Err(ServeError::Invalid(_))));
        // Malformed curve grids are refused the same way.
        for bad in [
            CurveSpec {
                grid: CurveGrid::Explicit(Vec::new()),
            },
            CurveSpec {
                grid: CurveGrid::Explicit(vec![1.2, 1.1]),
            },
            CurveSpec {
                grid: CurveGrid::Explicit(vec![0.5]),
            },
            CurveSpec {
                grid: CurveGrid::Adaptive {
                    tau_lo: 1.5,
                    tau_hi: 1.2,
                    max_depth: 3,
                    rho_resolution: 0.1,
                },
            },
            CurveSpec {
                grid: CurveGrid::Adaptive {
                    tau_lo: 1.0,
                    tau_hi: 2.0,
                    max_depth: crate::scenario::MAX_CURVE_DEPTH + 1,
                    rho_resolution: 0.1,
                },
            },
        ] {
            let resp = service.call(EvalRequest {
                id: 0,
                scenario: Arc::clone(&s),
                kind: EvalKind::Curve(bad),
            });
            assert!(matches!(resp, Err(ServeError::Invalid(_))));
        }
    }

    #[test]
    fn curve_request_serves_per_level_verdicts_with_meta() {
        let service = small_service();
        let s = scenario(11);
        let levels = vec![1.05, 1.2, 1.4, 2.0];
        let resp = service
            .call(EvalRequest {
                id: 5,
                scenario: Arc::clone(&s),
                kind: EvalKind::Curve(CurveSpec {
                    grid: CurveGrid::Explicit(levels.clone()),
                }),
            })
            .unwrap();
        let meta = resp.curve.as_ref().expect("curve responses carry meta");
        assert_eq!(meta.taus, levels);
        assert!(meta.monotone);
        assert_eq!(resp.verdicts.len(), levels.len());
        // Every point bitwise-equal to an independently compiled single-τ
        // scenario at that level.
        for (&tau, v) in levels.iter().zip(&resp.verdicts) {
            let solo = Arc::new(
                Scenario::new(
                    Arc::clone(s.etc()),
                    s.mapping().clone(),
                    tau,
                    s.opts().clone(),
                )
                .unwrap(),
            );
            let expected = solo.compile().unwrap().verdict_at_origin_budgeted(
                &mut PlanWorkspace::new(),
                service.policy(),
                EvalBudget::UNLIMITED,
            );
            assert_eq!(v.metric_hi.to_bits(), expected.metric_hi.to_bits());
            assert_eq!(v.metric_lo.to_bits(), expected.metric_lo.to_bits());
        }
        // Non-curve responses never carry curve meta.
        let plain = service
            .call(EvalRequest {
                id: 6,
                scenario: s,
                kind: EvalKind::Verdict,
            })
            .unwrap();
        assert!(plain.curve.is_none());
    }

    #[test]
    fn full_queue_sheds_with_typed_overload() {
        // 1 shard, 1 worker, tiny queue; the worker is blocked by the time
        // we flood, so some submission must shed QueueFull.
        let service = Service::start(ServiceConfig {
            shards: 1,
            workers_per_shard: 1,
            queue_capacity: 1,
            ..ServiceConfig::default()
        });
        let s = scenario(4);
        let mut tickets = Vec::new();
        // Pin the worker on a heavy request, then flood: with the worker
        // busy and a 1-deep queue, the second light request must shed.
        let heavy: Vec<(usize, usize)> = (0..20_000).map(|k| (k % 20, k % 5)).collect();
        tickets.push(
            service
                .submit(
                    EvalRequest {
                        id: 0,
                        scenario: Arc::clone(&s),
                        kind: EvalKind::Moves(heavy),
                    },
                    Submit::default(),
                )
                .unwrap(),
        );
        let mut shed = None;
        for id in 1..10_000 {
            match service.submit(
                EvalRequest {
                    id,
                    scenario: Arc::clone(&s),
                    kind: EvalKind::Verdict,
                },
                Submit::default(),
            ) {
                Ok(t) => tickets.push(t),
                Err(e) => {
                    shed = Some(e);
                    break;
                }
            }
        }
        let shed = shed.expect("a 1-deep queue must shed while the worker is pinned");
        assert_eq!(
            shed,
            ServeError::Overloaded(Overloaded {
                shard: 0,
                reason: ShedReason::QueueFull
            })
        );
        for t in tickets {
            t.wait().unwrap();
        }
        let totals = service.shutdown().totals();
        assert!(totals.shed_full >= 1);
    }

    #[test]
    fn shutdown_drains_accepted_work_and_rejects_new() {
        let service = small_service();
        let s = scenario(5);
        let tickets: Vec<Ticket> = (0..8)
            .map(|id| {
                service
                    .submit(
                        EvalRequest {
                            id,
                            scenario: Arc::clone(&s),
                            kind: EvalKind::Verdict,
                        },
                        Submit {
                            wait: true,
                            ..Submit::default()
                        },
                    )
                    .unwrap()
            })
            .collect();
        let stats = service.shutdown();
        assert_eq!(stats.totals().completed, 8);
        // Every accepted ticket got its answer despite the shutdown.
        for t in tickets {
            assert!(t.wait().is_ok());
        }
    }

    #[test]
    fn callback_submission_delivers_on_worker_and_matches_ticket_path() {
        let service = small_service();
        let s = scenario(7);
        let (tx, rx) = mpsc::channel();
        let shard = service
            .submit_with(
                EvalRequest {
                    id: 90,
                    scenario: Arc::clone(&s),
                    kind: EvalKind::Verdict,
                },
                Submit {
                    trace: Some(0),
                    ..Submit::default()
                },
                move |resp| {
                    tx.send(resp).unwrap();
                },
            )
            .unwrap();
        let via_callback = rx.recv().unwrap();
        assert_eq!(via_callback.id, 90);
        assert_eq!(via_callback.shard, shard);

        // Bitwise-identical to the ticket path for the same scenario.
        let via_ticket = service
            .call(EvalRequest {
                id: 91,
                scenario: s,
                kind: EvalKind::Verdict,
            })
            .unwrap();
        assert_eq!(
            via_callback.verdicts[0].metric_hi.to_bits(),
            via_ticket.verdicts[0].metric_hi.to_bits()
        );

        // Invalid requests are refused before the callback is ever stored.
        let err = service.submit_with(
            EvalRequest {
                id: 92,
                scenario: scenario(7),
                kind: EvalKind::Moves(vec![(99, 0)]),
            },
            Submit {
                trace: Some(0),
                ..Submit::default()
            },
            |_| panic!("callback must not run for a refused request"),
        );
        assert!(matches!(err, Err(ServeError::Invalid(_))));
    }

    #[test]
    fn expired_deadline_is_dropped_at_dequeue() {
        // One worker pinned on a heavy request; zero-deadline requests
        // queued behind it must come back DeadlineExceeded without being
        // evaluated.
        let service = Service::start(ServiceConfig {
            shards: 1,
            workers_per_shard: 1,
            queue_capacity: 8,
            ..ServiceConfig::default()
        });
        let s = scenario(8);
        let heavy: Vec<(usize, usize)> = (0..50_000).map(|k| (k % 20, k % 5)).collect();
        let pin = service
            .submit(
                EvalRequest {
                    id: 0,
                    scenario: Arc::clone(&s),
                    kind: EvalKind::Moves(heavy),
                },
                Submit::default(),
            )
            .unwrap();
        // A submission that waits for queue space can carry a deadline too.
        let waited = service
            .submit(
                EvalRequest {
                    id: 2,
                    scenario: Arc::clone(&s),
                    kind: EvalKind::Verdict,
                },
                Submit {
                    budget: RequestBudget::with_deadline(Duration::ZERO),
                    wait: true,
                    ..Submit::default()
                },
            )
            .unwrap();
        let expired = service
            .submit(
                EvalRequest {
                    id: 1,
                    scenario: Arc::clone(&s),
                    kind: EvalKind::Verdict,
                },
                Submit {
                    budget: RequestBudget::with_deadline(Duration::ZERO),
                    ..Submit::default()
                },
            )
            .and_then(Ticket::wait)
            .unwrap();
        assert_eq!(expired.disposition, Disposition::DeadlineExceeded);
        assert!(expired.verdicts.is_empty());
        assert_eq!(expired.attempts, 0);
        assert_eq!(expired.cache, None);
        let waited = waited.wait().unwrap();
        assert_eq!(waited.disposition, Disposition::DeadlineExceeded);
        assert!(waited.verdicts.is_empty());
        pin.wait().unwrap();
        let totals = service.shutdown().totals();
        assert_eq!(totals.deadline_expired, 2);
    }

    #[test]
    fn forced_brownout_is_deterministic_and_marked() {
        let run = || {
            let service = Service::start(ServiceConfig {
                shards: 1,
                workers_per_shard: 1,
                queue_capacity: 16,
                force_brownout: true,
                ..ServiceConfig::default()
            });
            let s = scenario(9);
            let resp = service
                .call(EvalRequest {
                    id: 7,
                    scenario: s,
                    kind: EvalKind::Verdict,
                })
                .unwrap();
            let totals = service.shutdown().totals();
            (resp, totals)
        };
        let (a, ta) = run();
        let (b, tb) = run();
        assert_eq!(a.disposition, Disposition::Brownout);
        assert_eq!(ta.brownout_evals, 1);
        assert_eq!(tb.brownout_evals, 1);
        // §3.1 scenarios are all-affine, so brownout answers stay exact —
        // and bitwise equal across runs.
        assert_eq!(
            a.verdicts[0].metric_hi.to_bits(),
            b.verdicts[0].metric_hi.to_bits()
        );
        let s = scenario(9);
        let expected = makespan_robustness(s.mapping(), s.etc(), s.tau()).unwrap();
        assert_eq!(a.verdicts[0].metric_hi.to_bits(), expected.metric.to_bits());
    }

    #[test]
    fn generous_deadline_still_answers_full_precision() {
        let service = small_service();
        let s = scenario(10);
        let resp = service
            .submit(
                EvalRequest {
                    id: 3,
                    scenario: s,
                    kind: EvalKind::Verdict,
                },
                Submit {
                    budget: RequestBudget::with_deadline(Duration::from_secs(60)),
                    ..Submit::default()
                },
            )
            .and_then(Ticket::wait)
            .unwrap();
        assert_eq!(resp.disposition, Disposition::Full);
        assert_eq!(resp.verdicts.len(), 1);
        let totals = service.shutdown().totals();
        assert_eq!(totals.deadline_expired, 0);
        assert_eq!(totals.brownout_evals, 0);
    }

    #[test]
    fn sharding_is_consistent_per_fingerprint() {
        let service = small_service();
        let s = scenario(6);
        let shard = service.shard_for(s.fingerprint());
        for _ in 0..5 {
            assert_eq!(service.shard_for(s.fingerprint()), shard);
        }
        drop(service);
    }
}
