//! Event-loop TCP server fronting a [`fepia_serve::Service`].
//!
//! One thread, every connection. The I/O plane is a single nonblocking
//! readiness loop over `poll(2)` (see [`crate::poll`]) instead of the
//! original reader/writer thread pair per connection:
//!
//! * **Readiness, never sleeps.** The loop blocks in `poll(2)` on the
//!   listener, every connection socket, and a self-pipe waker. There is
//!   no sleep-based polling anywhere in the hot path: new connections,
//!   new bytes, writable sockets and completed evaluations all arrive as
//!   readiness events. While evaluations are running the loop polls
//!   without blocking for up to `BUSY_POLL` before it parks, so the
//!   completion it is waiting for is usually caught without a wake-up.
//! * **Pipelining.** Each connection may have up to
//!   [`ServerConfig::max_in_flight`] requests submitted and unanswered at
//!   once. Responses complete in whatever order the shard workers finish
//!   and are written immediately, correlated by the id echoed in the
//!   response payload (and the trace id echoed in the frame header) —
//!   clients match by id, not by order. When the window fills, the loop
//!   simply stops reading that socket; TCP flow control pushes back on
//!   the client exactly as the old blocking hand-off did.
//! * **Completion queue + waker.** Requests are submitted to the service
//!   with a completion callback
//!   ([`fepia_serve::Service::submit_with`]); the worker's callback
//!   pushes the response onto a mutex-guarded queue and wakes the loop's
//!   poll through the self-pipe. No thread ever blocks on a ticket.
//! * **Coalesced writes.** Responses completing together are encoded into
//!   each connection's [`crate::frame::FrameWriter`] and flushed once per
//!   writable burst — one syscall sequence for many frames, instead of
//!   the old `write + flush` per frame. The `net.loop.frames_per_flush`
//!   histogram records the coalescing the loop actually achieves.
//!
//! Shutdown is a graceful drain, same contract as before: stop accepting
//! and stop reading, answer every request the service already accepted,
//! flush, then close. Accepted work is never dropped.
//!
//! Fault injection is byte-for-byte the old model: chaos site `net.read`
//! drops the connection at a frame boundary; `net.write` tears a response
//! frame (half the bytes, then close). Clients recover by reconnect +
//! retry, safe because responses are pure functions of requests.
//! Observability: the `net.*` counters and `net.request.us` histogram are
//! unchanged; the loop adds `net.loop.iterations`, `net.loop.wakeups`,
//! `net.loop.completions` and `net.loop.frames_per_flush`, plus an
//! always-on high-water mark of per-connection pipeline depth in
//! [`NetStatsSnapshot::max_pipeline_depth`].

use crate::frame::{encode_frame_into, FrameDecoder, FrameType, FrameWriter};
use crate::poll::{wake_pair, Interest, PollSet, WakeReader, Waker};
use crate::wire::{
    decode_job_cancel, decode_job_poll, decode_request, decode_stats_request, decode_submit_job,
    encode_error, encode_job_reply, encode_response, encode_stats_reply, JobReply, StatsReply,
    WireError,
};
use fepia_serve::{
    EvalResponse, JobError, JobSnapshot, JobTable, JobTableConfig, RequestBudget, ServeError,
    Service, ShedReason, Submit,
};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How the server listens, how much it lets each connection pipeline, and
/// where overload admission control kicks in.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port (tests, examples).
    pub addr: String,
    /// Bounded in-flight window per connection: submitted-but-unanswered
    /// requests a single connection may pipeline before the loop stops
    /// reading it (and TCP backpressure reaches the client).
    pub max_in_flight: usize,
    /// Global brownout threshold: when the requests in flight across *all*
    /// connections reach this count, newly admitted requests carry a
    /// brownout hint — workers answer them at budgeted precision (certified
    /// `Bounded` intervals for numeric features) instead of queueing full
    /// evaluations the server cannot keep up with. `usize::MAX` disables.
    pub brownout_in_flight: usize,
    /// Global shed threshold (must be ≥ `brownout_in_flight`): at this many
    /// requests in flight the server answers with a typed `Overloaded`
    /// error frame without touching the service. Brownout degrades answer
    /// precision first; shedding availability is the last resort.
    /// `usize::MAX` disables.
    pub shed_in_flight: usize,
    /// Aggregate in-flight-time brownout threshold: when the summed age of
    /// every in-flight request (maintained incrementally, O(1) per event)
    /// exceeds this, new admissions brown out even below the count
    /// threshold — a few very old requests signal overload as surely as
    /// many young ones. `Duration::ZERO` disables.
    pub brownout_in_flight_time: Duration,
    /// Sizing for the optimizer-job table behind the `SubmitJob` /
    /// `JobStatus` / `CancelJob` frames (bounded concurrent jobs, finished-
    /// job retention, default worker threads).
    pub jobs: JobTableConfig,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_in_flight: 64,
            // Admission control is opt-in: defaults keep the server
            // byte-identical to the pre-brownout protocol under any load
            // the per-connection windows admit.
            brownout_in_flight: usize::MAX,
            shed_in_flight: usize::MAX,
            brownout_in_flight_time: Duration::ZERO,
            jobs: JobTableConfig::default(),
        }
    }
}

/// Pending outbound bytes above which the loop stops reading a connection
/// (a slow consumer must drain before it may submit more work).
const WRITE_HIGH_WATER: usize = 1 << 20;

/// Most bytes one `read` on a connection takes; a read that returns fewer
/// means the socket is drained for now.
const READ_CHUNK: usize = 64 * 1024;

/// Always-on server counters (mirrored to `fepia-obs` when enabled).
#[derive(Default)]
struct NetStats {
    connections: AtomicU64,
    frames_read: AtomicU64,
    frames_written: AtomicU64,
    decode_errors: AtomicU64,
    overloaded: AtomicU64,
    invalid: AtomicU64,
    chaos_drops: AtomicU64,
    max_pipeline_depth: AtomicU64,
    admission_brownout: AtomicU64,
    admission_shed: AtomicU64,
}

/// Point-in-time copy of the server's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStatsSnapshot {
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Request frames successfully read and decoded.
    pub frames_read: u64,
    /// Response frames fully written.
    pub frames_written: u64,
    /// Malformed frames received (each closes its connection).
    pub decode_errors: u64,
    /// Requests answered with a typed `Overloaded` error frame.
    pub overloaded: u64,
    /// Requests answered with a typed `Invalid` error frame.
    pub invalid: u64,
    /// Connections dropped / frames torn by the `net.read` / `net.write`
    /// chaos sites.
    pub chaos_drops: u64,
    /// High-water mark of requests simultaneously in flight on one
    /// connection — direct evidence of pipelining depth.
    pub max_pipeline_depth: u64,
    /// Requests admitted with a brownout hint because the global
    /// in-flight count or in-flight-time crossed the brownout threshold.
    pub admission_brownout: u64,
    /// Requests refused with a typed `Overloaded` frame at the global shed
    /// threshold, without reaching the service.
    pub admission_shed: u64,
}

impl NetStats {
    fn snapshot(&self) -> NetStatsSnapshot {
        NetStatsSnapshot {
            connections: self.connections.load(Ordering::Relaxed),
            frames_read: self.frames_read.load(Ordering::Relaxed),
            frames_written: self.frames_written.load(Ordering::Relaxed),
            decode_errors: self.decode_errors.load(Ordering::Relaxed),
            overloaded: self.overloaded.load(Ordering::Relaxed),
            invalid: self.invalid.load(Ordering::Relaxed),
            chaos_drops: self.chaos_drops.load(Ordering::Relaxed),
            max_pipeline_depth: self.max_pipeline_depth.load(Ordering::Relaxed),
            admission_brownout: self.admission_brownout.load(Ordering::Relaxed),
            admission_shed: self.admission_shed.load(Ordering::Relaxed),
        }
    }

    fn count(&self, field: &AtomicU64, obs_name: &'static str) {
        field.fetch_add(1, Ordering::Relaxed);
        if fepia_obs::enabled() {
            fepia_obs::global().counter(obs_name).inc();
        }
    }

    fn observe_depth(&self, depth: usize) {
        self.max_pipeline_depth
            .fetch_max(depth as u64, Ordering::Relaxed);
    }
}

/// A completed evaluation traveling from a shard worker back to the loop.
struct Done {
    /// Connection slot the request arrived on.
    slot: usize,
    /// Slot generation at submit time; a stale generation means the
    /// connection closed (and possibly the slot was reused) — the
    /// response is dropped, matching the old abandoned-ticket semantics.
    gen: u64,
    trace: u64,
    received: Instant,
    resp: EvalResponse,
}

/// A running TCP front for a [`Service`]. Dropping it without calling
/// [`NetServer::shutdown`] performs the same graceful drain.
pub struct NetServer {
    local_addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    waker: Arc<Waker>,
    loop_thread: Option<JoinHandle<()>>,
    stats: Arc<NetStats>,
    jobs: Arc<JobTable>,
}

impl NetServer {
    /// Binds the listener and starts the event loop. The service is
    /// shared: in-process callers and TCP clients can use it concurrently
    /// (and get identical answers).
    pub fn start<A: ToSocketAddrs>(
        service: Arc<Service>,
        addr: A,
        config: ServerConfig,
    ) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(NetStats::default());
        let jobs = Arc::new(JobTable::new(config.jobs.clone()));
        let (waker, wake_rx) = wake_pair()?;
        let waker = Arc::new(waker);
        assert!(
            config.brownout_in_flight <= config.shed_in_flight,
            "brownout threshold {} must not exceed shed threshold {}: precision degrades before availability",
            config.brownout_in_flight,
            config.shed_in_flight
        );
        let loop_thread = {
            let stop = Arc::clone(&stop);
            let stats = Arc::clone(&stats);
            let jobs = Arc::clone(&jobs);
            let waker = Arc::clone(&waker);
            let config = config.clone();
            std::thread::Builder::new()
                .name("fepia-net-loop".to_string())
                .spawn(move || {
                    EventLoop::new(listener, service, config, stop, stats, jobs, waker, wake_rx)
                        .run()
                })?
        };
        Ok(NetServer {
            local_addr,
            stop,
            waker,
            loop_thread: Some(loop_thread),
            stats,
            jobs,
        })
    }

    /// As [`NetServer::start`] with the address taken from the config.
    pub fn start_default(
        service: Arc<Service>,
        config: ServerConfig,
    ) -> std::io::Result<NetServer> {
        let addr = config.addr.clone();
        NetServer::start(service, addr.as_str(), config)
    }

    /// The bound address (resolves the ephemeral port).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// Current counter values.
    pub fn stats(&self) -> NetStatsSnapshot {
        self.stats.snapshot()
    }

    /// The optimizer-job table behind the `SubmitJob` / `JobStatus` /
    /// `CancelJob` frames. Shared: in-process callers and TCP clients see
    /// the same jobs.
    pub fn jobs(&self) -> &Arc<JobTable> {
        &self.jobs
    }

    fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
        if let Some(h) = self.loop_thread.take() {
            let _ = h.join();
        }
    }

    /// Graceful drain: stop accepting and reading, answer every request
    /// the service already accepted, flush, close, join the loop.
    pub fn shutdown(mut self) -> NetStatsSnapshot {
        self.stop();
        self.stats.snapshot()
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// How long the loop keeps polling without blocking while evaluations are
/// running, before it parks in `poll(2)`. It is well above the median
/// time a 64×8 scenario's evaluation takes through the shard queue
/// (50–80 µs), and a completion caught while the loop still runs skips the
/// wake-up of a parked thread: on a 2-vCPU virtual machine that step alone
/// takes ~20 µs at the median and ~100 µs at p90, and varies with the
/// host's load. An idle server (nothing in flight) never spins.
const BUSY_POLL: Duration = Duration::from_micros(200);

/// Readies an accepted socket for the event loop: nonblocking, and
/// `TCP_NODELAY`. Without it Nagle holds each response until the client
/// ACKs the previous one, and the client's delayed ACK rides its *next*
/// request — so every response would wait for the next request to arrive.
fn prepare_accepted(stream: &TcpStream) -> std::io::Result<()> {
    stream.set_nonblocking(true)?;
    stream.set_nodelay(true)
}

/// Per-connection state in the loop's slab.
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    writer: FrameWriter,
    /// Requests submitted to the service and not yet answered.
    in_flight: usize,
    /// No more bytes will be read (EOF, fatal input, or draining).
    read_closed: bool,
    /// Tear down now, discarding anything still pending.
    dead: bool,
    /// Guards completions against slot reuse.
    gen: u64,
}

impl Conn {
    /// Finished: nothing in flight, nothing to write, nothing to read.
    fn drained(&self) -> bool {
        self.dead || (self.read_closed && self.in_flight == 0 && self.writer.pending() == 0)
    }
}

/// What each registered poll slot maps back to.
enum PollTarget {
    WakePipe,
    Listener,
    Conn(usize),
}

struct EventLoop {
    listener: TcpListener,
    service: Arc<Service>,
    jobs: Arc<JobTable>,
    window: usize,
    brownout_at: usize,
    shed_at: usize,
    brownout_busy_ns: u128,
    stop: Arc<AtomicBool>,
    stats: Arc<NetStats>,
    /// Shared by the loop and every completion callback: cloning the `Arc`
    /// cannot fail, where duplicating the pipe's fd per request could
    /// (fd exhaustion) and leave an admitted request unanswered.
    waker: Arc<Waker>,
    wake_rx: WakeReader,
    completions: Arc<Mutex<VecDeque<Done>>>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_gen: u64,
    /// The one buffer every connection read lands in: allocated and zeroed
    /// once, so a readable event touches only the bytes it reads.
    read_buf: Box<[u8]>,
    /// Admission epoch for the incremental in-flight-time account.
    epoch: Instant,
    /// Requests submitted to the service and not yet completed, across all
    /// connections.
    in_flight_global: usize,
    /// Sum of admission timestamps (ns since `epoch`) of every in-flight
    /// request. Total in-flight time at instant `t` is
    /// `in_flight_global * t − admitted_sum_ns` — O(1) to maintain and to
    /// query, no per-request scan.
    admitted_sum_ns: u128,
}

impl EventLoop {
    #[allow(clippy::too_many_arguments)]
    fn new(
        listener: TcpListener,
        service: Arc<Service>,
        config: ServerConfig,
        stop: Arc<AtomicBool>,
        stats: Arc<NetStats>,
        jobs: Arc<JobTable>,
        waker: Arc<Waker>,
        wake_rx: WakeReader,
    ) -> EventLoop {
        EventLoop {
            listener,
            service,
            jobs,
            window: config.max_in_flight.max(1),
            brownout_at: config.brownout_in_flight,
            shed_at: config.shed_in_flight,
            brownout_busy_ns: config.brownout_in_flight_time.as_nanos(),
            stop,
            stats,
            waker,
            wake_rx,
            completions: Arc::new(Mutex::new(VecDeque::new())),
            conns: Vec::new(),
            free: Vec::new(),
            next_gen: 0,
            read_buf: vec![0u8; READ_CHUNK].into_boxed_slice(),
            epoch: Instant::now(),
            in_flight_global: 0,
            admitted_sum_ns: 0,
        }
    }

    fn run(mut self) {
        let mut poll = PollSet::new();
        let mut targets: Vec<PollTarget> = Vec::new();
        loop {
            if fepia_obs::enabled() {
                fepia_obs::global().counter("net.loop.iterations").inc();
            }
            // 1. Deliver finished evaluations into their connections'
            //    write buffers (drops stale-generation responses).
            self.drain_completions();

            // 2. Push bytes: one coalesced flush burst per connection with
            //    pending output.
            for slot in 0..self.conns.len() {
                self.flush_conn(slot);
            }

            // 3. On shutdown, enter drain mode *before* reaping: stop
            //    reading everywhere so idle connections count as drained.
            let stopping = self.stop.load(Ordering::SeqCst);
            if stopping {
                for conn in self.conns.iter_mut().flatten() {
                    if !conn.read_closed {
                        conn.read_closed = true;
                        let _ = conn.stream.shutdown(Shutdown::Read);
                    }
                }
            }

            // 4. Reap connections that finished draining or died.
            for slot in 0..self.conns.len() {
                let done = matches!(&self.conns[slot], Some(c) if c.drained());
                if done {
                    self.close_conn(slot);
                }
            }
            if stopping && self.conns.iter().all(Option::is_none) {
                return;
            }

            // 5. Build this iteration's poll set from current interest.
            poll.clear();
            targets.clear();
            poll.register(self.wake_rx.as_raw_fd(), Interest::READ);
            targets.push(PollTarget::WakePipe);
            if !stopping {
                poll.register(self.listener.as_raw_fd(), Interest::READ);
                targets.push(PollTarget::Listener);
            }
            for (slot, conn) in self.conns.iter().enumerate() {
                let Some(conn) = conn else { continue };
                let wants_read = !conn.read_closed
                    && conn.in_flight < self.window
                    && conn.writer.pending() < WRITE_HIGH_WATER;
                let wants_write = conn.writer.pending() > 0;
                if wants_read || wants_write {
                    poll.register(
                        conn.stream.as_raw_fd(),
                        Interest {
                            readable: wants_read,
                            writable: wants_write,
                        },
                    );
                    targets.push(PollTarget::Conn(slot));
                } else if conn.in_flight > 0 {
                    // Window full (or output backlogged): woken by the
                    // completion pipe, not this socket.
                    continue;
                }
            }

            // 6. Park in the kernel until something is ready. No timeout
            //    and no sleep: every state change arrives as readiness
            //    (the waker covers completions and shutdown). With
            //    evaluations running, busy-poll for `BUSY_POLL` first.
            let waited = if self.in_flight_global > 0 {
                poll.wait_spinning(BUSY_POLL)
            } else {
                poll.wait(None)
            };
            if waited.is_err() {
                return; // EBADF etc. — unrecoverable programming error
            }

            // 7. Dispatch readiness.
            for (idx, target) in targets.iter().enumerate() {
                let ready = poll.readiness(idx);
                if !ready.any() {
                    continue;
                }
                match target {
                    PollTarget::WakePipe => {
                        self.wake_rx.drain();
                        if fepia_obs::enabled() {
                            fepia_obs::global().counter("net.loop.wakeups").inc();
                        }
                    }
                    PollTarget::Listener => self.accept_burst(),
                    PollTarget::Conn(slot) => {
                        let slot = *slot;
                        if ready.readable {
                            self.read_conn(slot);
                        }
                        // Writable progress is made in step 2 next
                        // iteration; an error readiness with nothing
                        // readable means the peer is gone.
                        if ready.error && !ready.readable {
                            if let Some(conn) = &mut self.conns[slot] {
                                conn.dead = true;
                            }
                        }
                    }
                }
            }

            // 8. The window may have freed up (completions) while bytes
            //    already sit decoded in a connection's backlog: process
            //    them without waiting for more socket readability.
            if !stopping {
                for slot in 0..self.conns.len() {
                    if self.conns[slot].is_some() {
                        self.process_frames(slot);
                    }
                }
            }
        }
    }

    /// Nanoseconds between the loop epoch and an admission instant — the
    /// unit of the incremental in-flight-time account. Submit and
    /// completion both derive it from the same `Instant`, so the sum
    /// returns to exactly zero when the server drains.
    fn admitted_ns(&self, received: Instant) -> u128 {
        received.saturating_duration_since(self.epoch).as_nanos()
    }

    /// Accepts until the listener would block.
    fn accept_burst(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if prepare_accepted(&stream).is_err() {
                        continue;
                    }
                    self.stats.count(&self.stats.connections, "net.connections");
                    self.next_gen += 1;
                    let conn = Conn {
                        stream,
                        decoder: FrameDecoder::new(),
                        writer: FrameWriter::new(),
                        in_flight: 0,
                        read_closed: false,
                        dead: false,
                        gen: self.next_gen,
                    };
                    if let Some(slot) = self.free.pop() {
                        self.conns[slot] = Some(conn);
                    } else {
                        self.conns.push(Some(conn));
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    /// Pulls every completed response off the queue into its connection's
    /// write buffer.
    fn drain_completions(&mut self) {
        loop {
            // Take one batch under the lock, release before encoding.
            let batch: Vec<Done> = {
                let mut q = self.completions.lock().unwrap_or_else(|p| p.into_inner());
                if q.is_empty() {
                    return;
                }
                q.drain(..).collect()
            };
            for done in batch {
                if fepia_obs::enabled() {
                    fepia_obs::global().counter("net.loop.completions").inc();
                }
                // Global admission accounting: every submitted request
                // completes exactly once, whether or not its connection
                // still exists.
                self.in_flight_global = self.in_flight_global.saturating_sub(1);
                self.admitted_sum_ns = self
                    .admitted_sum_ns
                    .saturating_sub(self.admitted_ns(done.received));
                let alive = matches!(&self.conns[done.slot], Some(c) if c.gen == done.gen);
                if !alive {
                    continue; // connection closed while the eval ran
                }
                if fepia_obs::enabled() {
                    fepia_obs::global()
                        .histogram("net.request.us")
                        .record(done.received.elapsed().as_nanos() as f64 / 1_000.0);
                }
                let payload = encode_response(&done.resp);
                self.enqueue_frame(
                    done.slot,
                    FrameType::Response,
                    done.trace,
                    &payload,
                    done.resp.id,
                );
                if let Some(conn) = &mut self.conns[done.slot] {
                    conn.in_flight -= 1;
                }
            }
        }
    }

    /// Queues one outbound frame on a connection, firing the `net.write`
    /// chaos site: an injected tear writes half of this frame's bytes
    /// (after whatever was already queued) and severs the connection.
    fn enqueue_frame(
        &mut self,
        slot: usize,
        frame_type: FrameType,
        trace: u64,
        payload: &[u8],
        id: u64,
    ) {
        let Some(conn) = &mut self.conns[slot] else {
            return;
        };
        if conn.dead {
            return;
        }
        if fepia_chaos::enabled() && fepia_chaos::should_fire("net.write") {
            self.stats.count(&self.stats.chaos_drops, "net.chaos.drops");
            let mut full = Vec::new();
            encode_frame_into(&mut full, frame_type, trace, payload);
            let torn = &full[..full.len() / 2];
            // Best effort: push earlier queued frames, then the strict
            // prefix, then sever. The client decodes Truncated and its
            // retry loop reconnects.
            let _ = conn.writer.flush_burst(&mut conn.stream);
            let mut off = 0;
            while off < torn.len() {
                match conn.stream.write(&torn[off..]) {
                    Ok(0) => break,
                    Ok(n) => off += n,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => break, // WouldBlock included: the tear stands
                }
            }
            let _ = conn.stream.shutdown(Shutdown::Both);
            conn.dead = true;
            return;
        }
        conn.writer.enqueue(frame_type, trace, payload, id);
    }

    /// One coalesced write burst on a connection; emits `net.write` spans
    /// and per-frame counters for everything the burst completed.
    fn flush_conn(&mut self, slot: usize) {
        let Some(conn) = &mut self.conns[slot] else {
            return;
        };
        if conn.dead || conn.writer.pending() == 0 {
            return;
        }
        let burst_started = Instant::now();
        match conn.writer.flush_burst(&mut conn.stream) {
            Ok(done) => {
                if done.is_empty() {
                    return;
                }
                if fepia_obs::enabled() {
                    fepia_obs::global()
                        .histogram("net.loop.frames_per_flush")
                        .record(done.len() as f64);
                }
                for frame in done {
                    self.stats
                        .count(&self.stats.frames_written, "net.frames.written");
                    if frame.trace != 0
                        && frame.frame_type == FrameType::Response
                        && fepia_obs::trace_enabled()
                    {
                        fepia_obs::trace::with_wall(
                            fepia_obs::trace::span_event(
                                fepia_obs::TraceId(frame.trace),
                                fepia_obs::trace::stage::NET_WRITE,
                                frame.id,
                            ),
                            burst_started,
                        )
                        .emit();
                    }
                }
            }
            Err(_) => {
                // The socket is broken; anything unanswered is lost the
                // same way the old writer thread lost it.
                if let Some(conn) = &mut self.conns[slot] {
                    conn.dead = true;
                }
            }
        }
    }

    /// Reads until a short read (or EOF / error), decoding and processing
    /// as many complete frames as the window allows after each read. A
    /// read that returns less than the buffer means the socket is drained
    /// for now; `poll` is level-triggered, so bytes (or an EOF) arriving
    /// after it re-arm the socket on the next iteration — no extra `read`
    /// just to collect `EAGAIN`.
    fn read_conn(&mut self, slot: usize) {
        loop {
            let Some(conn) = &mut self.conns[slot] else {
                return;
            };
            if conn.read_closed || conn.dead {
                return;
            }
            match conn.stream.read(&mut self.read_buf) {
                Ok(0) => {
                    conn.read_closed = true;
                    if conn.decoder.buffered() > 0 {
                        // Peer died mid-frame: same typed outcome the old
                        // blocking reader produced for a truncated frame.
                        self.stats
                            .count(&self.stats.decode_errors, "net.decode_errors");
                    }
                    break;
                }
                Ok(n) => {
                    conn.decoder.extend(&self.read_buf[..n]);
                    // Decode eagerly so a full window stops the read loop
                    // (backpressure) instead of buffering unboundedly.
                    self.process_frames(slot);
                    let Some(conn) = &self.conns[slot] else {
                        return;
                    };
                    if n < READ_CHUNK
                        || conn.read_closed
                        || conn.dead
                        || conn.in_flight >= self.window
                        || conn.writer.pending() >= WRITE_HIGH_WATER
                    {
                        return;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    return;
                }
            }
        }
        self.process_frames(slot);
    }

    /// Decodes and handles buffered frames while the pipeline window has
    /// room. Fires the `net.read` chaos site once per decoded frame.
    fn process_frames(&mut self, slot: usize) {
        loop {
            let Some(conn) = &mut self.conns[slot] else {
                return;
            };
            if conn.dead || conn.in_flight >= self.window {
                return;
            }
            let frame = match conn.decoder.next_frame() {
                Ok(Some(f)) => f,
                Ok(None) => return,
                Err(e) => {
                    // Malformed bytes: answer with a typed error, then
                    // close — the stream position is unrecoverable. Drop
                    // the poisoned buffer so a later decode pass (window
                    // freeing up, main-loop catch-up) cannot re-decode the
                    // same bytes and emit the error frame twice.
                    conn.decoder = FrameDecoder::new();
                    self.reject_frame(slot, 0, format!("bad frame: {e}"), true);
                    return;
                }
            };
            if fepia_chaos::enabled() && fepia_chaos::should_fire("net.read") {
                // Injected connection drop: the client sees EOF / reset
                // and recovers by reconnecting.
                self.stats.count(&self.stats.chaos_drops, "net.chaos.drops");
                let _ = conn.stream.shutdown(Shutdown::Both);
                conn.dead = true;
                return;
            }
            self.handle_frame(slot, frame);
        }
    }

    /// Routes one decoded frame: eval request, stats poll, job operation,
    /// or protocol violation.
    fn handle_frame(&mut self, slot: usize, frame: crate::frame::Frame) {
        let decode_started = Instant::now();
        let trace = frame.trace;
        match frame.frame_type {
            FrameType::StatsRequest => match decode_stats_request(&frame.payload) {
                Ok(id) => {
                    self.stats.count(&self.stats.frames_read, "net.frames.read");
                    let reply = StatsReply {
                        id,
                        shards: self.service.stats().shards,
                        net: self.stats.snapshot(),
                    };
                    let payload = encode_stats_reply(&reply);
                    self.enqueue_frame(slot, FrameType::StatsResponse, trace, &payload, id);
                }
                // A bad poll is answered but leaves the stream readable.
                Err(e) => self.reject_frame(slot, trace, format!("bad stats poll: {e}"), false),
            },
            FrameType::Request => {
                let payload = match decode_request(&frame.payload) {
                    Ok(p) => p,
                    Err(e) => {
                        return self.reject_frame(slot, trace, format!("bad request: {e}"), true)
                    }
                };
                self.stats.count(&self.stats.frames_read, "net.frames.read");
                let id = payload.id;
                let deadline_us = payload.deadline_us;
                let received = Instant::now();

                // Admission control, *before* the (allocating) semantic
                // validation: shed at the hard threshold, hint brownout at
                // the soft one. Precision degrades before availability.
                if self.in_flight_global >= self.shed_at {
                    self.stats
                        .count(&self.stats.admission_shed, "net.admission.shed");
                    if trace != 0 && fepia_obs::trace_enabled() {
                        fepia_obs::trace::with_wall(
                            fepia_obs::trace::span_event(
                                fepia_obs::TraceId(trace),
                                fepia_obs::trace::stage::SERVE_SHED,
                                id,
                            ),
                            received,
                        )
                        .field("cause", "admission")
                        .emit();
                    }
                    let shed = WireError::Overloaded {
                        shard: 0,
                        reason: ShedReason::QueueFull,
                    };
                    return self.refuse(slot, trace, id, shed);
                }
                let busy_ns = (self.in_flight_global as u128 * self.admitted_ns(received))
                    .saturating_sub(self.admitted_sum_ns);
                let brownout_hint = self.in_flight_global >= self.brownout_at
                    || (self.brownout_busy_ns > 0 && busy_ns >= self.brownout_busy_ns);
                if brownout_hint {
                    self.stats
                        .count(&self.stats.admission_brownout, "net.admission.brownout");
                }
                let budget = RequestBudget {
                    deadline: (deadline_us > 0).then(|| Duration::from_micros(deadline_us)),
                    brownout: brownout_hint,
                };

                let req = match payload.into_request() {
                    Ok(r) => r,
                    Err(msg) => return self.refuse(slot, trace, id, WireError::Invalid(msg)),
                };
                if trace != 0 && fepia_obs::trace_enabled() {
                    fepia_obs::trace::with_wall(
                        fepia_obs::trace::span_event(
                            fepia_obs::TraceId(trace),
                            fepia_obs::trace::stage::NET_READ,
                            id,
                        ),
                        decode_started,
                    )
                    .emit();
                }
                let gen = match &self.conns[slot] {
                    Some(c) => c.gen,
                    None => return,
                };
                let completions = Arc::clone(&self.completions);
                let waker = Arc::clone(&self.waker);
                let how = Submit {
                    trace: Some(trace),
                    budget,
                    wait: false,
                };
                let submit = self.service.submit_with(req, how, move |resp| {
                    let mut q = completions.lock().unwrap_or_else(|p| p.into_inner());
                    q.push_back(Done {
                        slot,
                        gen,
                        trace,
                        received,
                        resp,
                    });
                    drop(q);
                    waker.wake();
                });
                let refusal = match submit {
                    Ok(_shard) => {
                        self.in_flight_global += 1;
                        self.admitted_sum_ns += self.admitted_ns(received);
                        if let Some(conn) = &mut self.conns[slot] {
                            conn.in_flight += 1;
                            self.stats.observe_depth(conn.in_flight);
                        }
                        return;
                    }
                    Err(ServeError::Overloaded(o)) => WireError::Overloaded {
                        shard: o.shard as u64,
                        reason: o.reason,
                    },
                    Err(ServeError::Invalid(msg)) => WireError::Invalid(msg),
                    Err(ServeError::Disconnected) => WireError::Overloaded {
                        shard: 0,
                        reason: ShedReason::ShuttingDown,
                    },
                };
                self.refuse(slot, trace, id, refusal);
            }
            // Job-table operations are handled inline: submit spawns a
            // runner thread, status clones a snapshot, cancel flips a flag —
            // none blocks the loop on evaluation work.
            FrameType::SubmitJob => {
                let payload = match decode_submit_job(&frame.payload) {
                    Ok(p) => p,
                    Err(e) => {
                        return self.reject_frame(slot, trace, format!("bad job submit: {e}"), true)
                    }
                };
                self.stats.count(&self.stats.frames_read, "net.frames.read");
                let id = payload.id;
                let spec = match payload.into_spec() {
                    Ok(s) => s,
                    Err(msg) => return self.refuse(slot, trace, id, WireError::Invalid(msg)),
                };
                // The submit answer is the job's first snapshot — the same
                // shape every later poll returns. (With a zero retention
                // bound an instant job can already be evicted; that
                // surfaces as the same typed refusal a late poll would get.)
                let result = self
                    .jobs
                    .submit_traced(spec, trace)
                    .and_then(|job| self.jobs.status(job));
                self.job_reply(slot, trace, id, result);
            }
            FrameType::JobStatus | FrameType::CancelJob => {
                let cancel = frame.frame_type == FrameType::CancelJob;
                let decoded = if cancel {
                    decode_job_cancel(&frame.payload)
                } else {
                    decode_job_poll(&frame.payload)
                };
                let (id, job) = match decoded {
                    Ok(pair) => pair,
                    Err(e) => {
                        return self.reject_frame(slot, trace, format!("bad job ref: {e}"), true)
                    }
                };
                self.stats.count(&self.stats.frames_read, "net.frames.read");
                let result = if cancel {
                    self.jobs.cancel(job)
                } else {
                    self.jobs.status(job)
                };
                self.job_reply(slot, trace, id, result);
            }
            other => self.reject_frame(
                slot,
                trace,
                format!("unexpected {other:?} frame from client"),
                true,
            ),
        }
    }

    /// Answers a job operation with its snapshot, or with the typed refusal
    /// mapped onto the wire's error vocabulary: admission refusals are
    /// `Overloaded` (retryable), everything else is `Invalid` (permanent).
    fn job_reply(
        &mut self,
        slot: usize,
        trace: u64,
        id: u64,
        result: Result<JobSnapshot, JobError>,
    ) {
        match result {
            Ok(snapshot) => {
                let payload = encode_job_reply(&JobReply { id, snapshot });
                self.enqueue_frame(slot, FrameType::JobResult, trace, &payload, id);
            }
            Err(err) => {
                let refusal = match err.shed_reason() {
                    Some(reason) => WireError::Overloaded { shard: 0, reason },
                    None => WireError::Invalid(err.to_string()),
                };
                self.refuse(slot, trace, id, refusal);
            }
        }
    }

    /// Refuses one decoded request with a typed error frame echoing its id,
    /// counted once: `net.overloaded` for a retryable refusal, `net.invalid`
    /// for a permanent one.
    fn refuse(&mut self, slot: usize, trace: u64, id: u64, err: WireError) {
        match err {
            WireError::Overloaded { .. } => {
                self.stats.count(&self.stats.overloaded, "net.overloaded")
            }
            WireError::Invalid(_) => self.stats.count(&self.stats.invalid, "net.invalid"),
        }
        let payload = encode_error(id, &err);
        self.enqueue_frame(slot, FrameType::Error, trace, &payload, id);
    }

    /// Answers bytes that do not decode as a client frame with a typed
    /// `Invalid` error frame (id 0: there is no id to echo), counted under
    /// `net.decode_errors`. With `close` the read side shuts as well, since
    /// the stream position can no longer be trusted.
    fn reject_frame(&mut self, slot: usize, trace: u64, msg: String, close: bool) {
        self.stats
            .count(&self.stats.decode_errors, "net.decode_errors");
        if close {
            if let Some(conn) = &mut self.conns[slot] {
                conn.read_closed = true;
            }
        }
        let payload = encode_error(0, &WireError::Invalid(msg));
        self.enqueue_frame(slot, FrameType::Error, trace, &payload, 0);
    }

    /// Frees a slot; its generation check drops any still-running
    /// completions for this connection.
    fn close_conn(&mut self, slot: usize) {
        if let Some(conn) = self.conns[slot].take() {
            let _ = conn.stream.shutdown(Shutdown::Both);
            self.free.push(slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Accepted sockets leave Nagle off: a response goes out when it is
    /// written, not when the client's next segment ACKs the previous one.
    #[test]
    fn accepted_sockets_set_nodelay() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        assert!(!accepted.nodelay().unwrap());
        prepare_accepted(&accepted).unwrap();
        assert!(accepted.nodelay().unwrap());
    }

    /// The only blocking primitive in the event loop is `poll(2)` itself.
    /// The old accept loop napped 5 ms per idle iteration; this source
    /// scan keeps sleep-based polling from creeping back into the hot
    /// path. (Split match string so the scan does not match itself.)
    #[test]
    fn no_sleep_based_polling_in_the_event_loop() {
        let src = include_str!("server.rs");
        let call = format!("::{}(", "sleep");
        assert!(
            !src.contains(&call),
            "sleep-based polling crept back into the event-loop server"
        );
    }
}
