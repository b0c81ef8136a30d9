//! The served workloads — `probe`, `churn` and `curve` — each driven over
//! loopback TCP in two phases: a closed-loop saturation phase (`sat`) and
//! an open-loop phase at a fixed arrival rate (`open`).

use crate::oracle::{check_kept, Kept, Plans};
use crate::report::{Latency, Report};
use crate::stack::{report_counters, set_up, Stack};
use crate::waterfall;
use fepia_benchmark::measure::median;
use fepia_core::dense_grid;
use fepia_net::frame::{read_frame, Frame, FrameType};
use fepia_net::wire::{decode_response, encode_request};
use fepia_net::NetClient;
use fepia_serve::workload::{
    combine_digests, moves_request, request, response_digest, scenario_pool, WorkloadSpec,
};
use fepia_serve::{
    CurveGrid, CurveSpec, Disposition, EvalKind, EvalRequest, EvalResponse, Scenario,
};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Request-index bases: each stream draws disjoint indices, and every
/// request is a pure function of `(seed, index)`.
pub const SAT_BASE: u64 = 0;
const OPEN_BASE: u64 = 1 << 32;
const WARM_BASE: u64 = 1 << 33;
const STATS_ID: u64 = 1 << 40;

/// Responses per phase checked bitwise against the in-process call.
const CHECKED: u64 = 2048;
/// Equal-count rounds of the closed-loop phase; `throughput` is the median
/// round's rate, so one round disturbed by another process moves it little.
const SAT_ROUNDS: u64 = 16;
/// Equal stretches of the open-loop schedule; `p50_ms` is the median of
/// their median latencies, for the same reason.
const OPEN_SEGMENTS: u64 = 16;

/// What a served workload sends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mix {
    /// `moves_request`: 64 single-application moves per request.
    Moves,
    /// `request`: 60% Moves, 30% Verdict, 10% Origins.
    Mixed,
    /// One 129-level explicit ρ(τ) grid per request.
    Curve,
}

/// A served workload and its phase sizes.
pub struct Served {
    mix: Mix,
    spec: WorkloadSpec,
    grid: Vec<f64>,
    /// Requests in the closed-loop phase.
    sat: u64,
    /// Requests in the open-loop phase.
    open: u64,
    /// Open-loop arrival rate, requests per second.
    open_rate: f64,
    /// Warm-up requests per set-up.
    warm: u64,
    /// Requests traced per layer in a traced run.
    traced_requests: u64,
    /// Side-probe requests per missing kind in a traced run.
    side_requests: u64,
    /// What one throughput unit is.
    unit: &'static str,
}

impl Served {
    /// `seconds` sizes the two phases at the rates measured on a 2-core
    /// host at the benchmark's first commit: a quarter for the closed loop,
    /// whose rate is only a diagnostic because it moves with the host's CPU
    /// speed, and three quarters for the open loop, whose latencies are the
    /// end-to-end metrics. The counts are fixed per run, so every run sends
    /// the same requests.
    pub fn new(name: &'static str, seed: u64, seconds: u64, quick: bool) -> Served {
        let (mix, scenarios, sat_rate, open_rate, warm, unit) = match name {
            "probe" => (Mix::Moves, 8, 10_500.0, 4_000.0, 512, "move-evals"),
            "churn" => (Mix::Mixed, 1024, 11_500.0, 4_000.0, 1024, "requests"),
            "curve" => (Mix::Curve, 8, 4_000.0, 2_000.0, 64, "curve points"),
            other => unreachable!("not a served workload: {other}"),
        };
        let seconds = seconds as f64;
        let (sat, open, open_rate, warm, traced, side) = if quick {
            (200, 100, 2_000.0, 8, 64, 16)
        } else {
            (
                (sat_rate * seconds * 0.25) as u64,
                (open_rate * seconds * 0.75) as u64,
                open_rate,
                warm,
                4096,
                1024,
            )
        };
        Served {
            mix,
            spec: WorkloadSpec {
                seed,
                scenarios,
                apps: 64,
                machines: 8,
                moves_per_request: 64,
                origins_per_request: 2,
            },
            grid: dense_grid(1.0, 3.0, 7),
            sat,
            open,
            open_rate,
            warm,
            traced_requests: traced,
            side_requests: side,
            unit,
        }
    }

    /// The `index`-th request of this workload's stream.
    fn request(&self, pool: &[Arc<Scenario>], index: u64) -> EvalRequest {
        match self.mix {
            Mix::Moves => moves_request(&self.spec, pool, index),
            Mix::Mixed => request(&self.spec, pool, index),
            Mix::Curve => curve_request(&self.spec, pool, &self.grid, index),
        }
    }

    fn units(&self, resp: &EvalResponse) -> u64 {
        match self.mix {
            Mix::Mixed => 1,
            Mix::Moves | Mix::Curve => resp.verdicts.len() as u64,
        }
    }
}

/// A curve request over the pool: scenario drawn from `(seed, index)`,
/// the explicit grid shared by every request.
pub fn curve_request(
    spec: &WorkloadSpec,
    pool: &[Arc<Scenario>],
    grid: &[f64],
    index: u64,
) -> EvalRequest {
    let s = (fepia_stats::subseed(spec.seed, index) % pool.len() as u64) as usize;
    EvalRequest {
        id: index,
        scenario: Arc::clone(&pool[s]),
        kind: EvalKind::Curve(CurveSpec {
            grid: CurveGrid::Explicit(grid.to_vec()),
        }),
    }
}

/// Responses of one phase, reduced to what the metrics and oracles need.
#[derive(Default)]
struct Tally {
    units: u64,
    digest: u64,
    kept: Vec<Kept>,
    failed: u64,
}

impl Tally {
    fn take(&mut self, w: &Served, resp: EvalResponse, index: u64) {
        self.units += w.units(&resp);
        self.digest = combine_digests([self.digest, response_digest(&resp)]);
        if resp.disposition != Disposition::Full {
            self.failed += 1;
        }
        if index < CHECKED {
            self.kept.push(Kept::of(resp));
        }
    }

    fn merge(&mut self, other: Tally) {
        self.units += other.units;
        self.digest = combine_digests([self.digest, other.digest]);
        self.kept.extend(other.kept);
        self.failed += other.failed;
    }
}

fn setup(w: &Served) -> Result<(Vec<Arc<Scenario>>, Stack), String> {
    let pool = scenario_pool(&w.spec);
    let mut stack = Stack::start(2)?;
    for i in 0..w.warm {
        let client = &mut stack.clients[(i % 2) as usize];
        client
            .call(&w.request(&pool, WARM_BASE + i))
            .map_err(|e| format!("warm-up request {i}: {e}"))?;
    }
    Ok((pool, stack))
}

/// Closed loop over every client connection, one thread each, blocking
/// `NetClient::call`. The fixed request count runs as `SAT_ROUNDS` rounds
/// of equal size, each split round-robin across the connections; returns
/// the tally, each round's rate in units per second, and the phase time.
fn sat(
    w: &Served,
    pool: &[Arc<Scenario>],
    clients: &mut [NetClient],
) -> (Tally, Vec<f64>, Duration) {
    let stride = clients.len();
    // Every client thread waits here at the start of each round and once
    // more at the end; the main thread times the rounds between them.
    let barrier = Barrier::new(stride + 1);
    let t0 = Instant::now();
    let (parts, rates): (Vec<(Tally, Vec<u64>)>, Vec<f64>) = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut part = Tally::default();
                    let mut round_units = Vec::with_capacity(SAT_ROUNDS as usize);
                    for round in 0..SAT_ROUNDS {
                        let lo = w.sat * round / SAT_ROUNDS + c as u64;
                        let hi = w.sat * (round + 1) / SAT_ROUNDS;
                        barrier.wait();
                        let before = part.units;
                        for index in (lo..hi).step_by(stride) {
                            match client.call(&w.request(pool, SAT_BASE + index)) {
                                Ok(resp) => part.take(w, resp, index),
                                Err(_) => part.failed += 1,
                            }
                        }
                        round_units.push(part.units - before);
                    }
                    barrier.wait();
                    (part, round_units)
                })
            })
            .collect();
        let mut starts = Vec::with_capacity(SAT_ROUNDS as usize + 1);
        for _ in 0..=SAT_ROUNDS {
            barrier.wait();
            starts.push(Instant::now());
        }
        let parts: Vec<(Tally, Vec<u64>)> = handles
            .into_iter()
            .map(|h| h.join().expect("sat client thread"))
            .collect();
        let rates = (0..SAT_ROUNDS as usize)
            .map(|r| {
                let units: u64 = parts.iter().map(|(_, u)| u[r]).sum();
                units as f64 / (starts[r + 1] - starts[r]).as_secs_f64()
            })
            .collect();
        (parts, rates)
    });
    let elapsed = t0.elapsed();
    let mut tally = Tally::default();
    for (part, _) in parts {
        tally.merge(part);
    }
    (tally, rates, elapsed)
}

struct Open {
    tally: Tally,
    /// Latencies of each stretch of the schedule, by due time.
    segments_ms: Vec<Vec<f64>>,
    late_ms: Vec<f64>,
    inflight_max: u64,
}

/// Open loop on one connection: a sender thread writes raw request frames
/// on a fixed absolute schedule, a receiver thread reads responses, and
/// each latency runs from the request's due time.
fn open(w: &Served, pool: &[Arc<Scenario>], addr: SocketAddr) -> Result<Open, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("open-loop connect: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("open-loop socket: {e}"))?;
    let reader = stream
        .try_clone()
        .map_err(|e| format!("open-loop socket: {e}"))?;
    reader
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| format!("open-loop socket: {e}"))?;
    let n = w.open;
    let start = Instant::now() + Duration::from_millis(5);
    let due = |i: u64| start + Duration::from_secs_f64(i as f64 / w.open_rate);
    let received = AtomicU64::new(0);
    let (late_ms, inflight_max, (tally, segments_ms)) = std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut out = stream;
            let mut late_ms = Vec::with_capacity(n as usize);
            let mut inflight_max = 0u64;
            for i in 0..n {
                let frame = Frame::new(
                    FrameType::Request,
                    encode_request(&w.request(pool, OPEN_BASE + i)),
                )
                .encode();
                let at = due(i);
                let now = Instant::now();
                if now < at {
                    std::thread::sleep(at - now);
                }
                late_ms.push(Instant::now().duration_since(at).as_secs_f64() * 1e3);
                inflight_max = inflight_max.max(i + 1 - received.load(Ordering::Relaxed));
                if out.write_all(&frame).is_err() {
                    // The receiver times out on the missing responses and
                    // counts them failed.
                    break;
                }
            }
            (late_ms, inflight_max)
        });
        let receiver = scope.spawn(|| {
            let mut input = reader;
            let mut tally = Tally::default();
            let mut segments_ms = vec![Vec::new(); OPEN_SEGMENTS as usize];
            for got in 0..n {
                let Ok(frame) = read_frame(&mut input) else {
                    tally.failed += n - got;
                    break;
                };
                let arrived = Instant::now();
                received.fetch_add(1, Ordering::Relaxed);
                let resp = match frame.frame_type {
                    FrameType::Response => decode_response(&frame.payload).ok(),
                    _ => None,
                };
                match resp {
                    Some(resp) if resp.id.wrapping_sub(OPEN_BASE) < n => {
                        let i = resp.id - OPEN_BASE;
                        segments_ms[(i * OPEN_SEGMENTS / n) as usize]
                            .push(arrived.duration_since(due(i)).as_secs_f64() * 1e3);
                        tally.take(w, resp, i);
                    }
                    _ => tally.failed += 1,
                }
            }
            (tally, segments_ms)
        });
        let (late_ms, inflight_max) = sender.join().expect("open-loop sender");
        (
            late_ms,
            inflight_max,
            receiver.join().expect("open-loop receiver"),
        )
    });
    Ok(Open {
        tally,
        segments_ms,
        late_ms,
        inflight_max,
    })
}

pub fn run(
    w: &Served,
    traced: bool,
    spans: Option<std::path::PathBuf>,
    report: &mut Report,
) -> Result<(), String> {
    let (pool, mut stack) = set_up(report, || setup(w))?;
    report.note(format!(
        "setup: {} scenarios, {} warm-up requests",
        pool.len(),
        w.warm
    ));

    let before = stack.stats(STATS_ID)?;
    let phases = Instant::now();
    let (sat, rates, sat_elapsed) = sat(w, &pool, &mut stack.clients);
    // The open phase's connection replaces the second client: the load
    // generator never holds more than two connections.
    stack.clients.truncate(1);
    let open = open(w, &pool, stack.server.local_addr())?;
    let wall = phases.elapsed();
    let after = stack.stats(STATS_ID + 1)?;

    report.attempted += w.sat + w.open;
    report.failed += sat.failed + open.tally.failed;
    let throughput = median(&rates);
    let lat = Latency::of(&open.segments_ms.concat());
    let segment_p50s: Vec<f64> = open
        .segments_ms
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| median(s))
        .collect();
    let p50 = median(&segment_p50s);
    report.layer("bench.throughput", throughput, "units/s");
    report.e2e("p50_ms", p50, "ms");
    report.note(format!(
        "sat: {} requests over 2 connections in {:.3} s; median of {SAT_ROUNDS} rounds {throughput:.0} {}/s (rounds {:.0?})",
        w.sat,
        sat_elapsed.as_secs_f64(),
        w.unit,
        rates
    ));
    report.note(lat.describe(&format!(
        "open: {} requests at {}/s on 1 connection",
        w.open, w.open_rate
    )));
    report.note(format!(
        "open: median of {OPEN_SEGMENTS} stretch medians {p50:.4} ms (stretches {segment_p50s:.4?})"
    ));
    report.note(format!("digest sat {:016x}", sat.digest));
    report.note(format!("digest open {:016x}", open.tally.digest));

    let mut plans = Plans::new(*stack.service.policy());
    for (phase, tally, n) in [("sat", &sat, w.sat), ("open", &open.tally, w.open)] {
        if let Err(e) = check_kept(&mut plans, &tally.kept, |id| w.request(&pool, id)) {
            report.errors.push(format!("{phase}: {e}"));
        }
        if tally.kept.len() as u64 != n.min(CHECKED) {
            report.errors.push(format!(
                "{phase}: {} of the first {} responses arrived",
                tally.kept.len(),
                n.min(CHECKED)
            ));
        }
    }

    report_counters(report, &before, &after, wall);
    report.generator(&lat, open.late_ms, open.inflight_max);

    if traced {
        let stream = |i: u64| w.request(&pool, SAT_BASE + i);
        waterfall::run(
            waterfall::Input {
                stream: &stream,
                len: w.traced_requests.min(w.sat),
                spec: &w.spec,
                pool: &pool,
                grid: &w.grid,
                side: w.side_requests,
                spans,
            },
            &mut stack,
            &mut plans,
            report,
        )?;
    }
    Ok(())
}
