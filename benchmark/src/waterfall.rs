//! The traced run's outside-in layer waterfall.
//!
//! Each layer is timed from outside, by calling its crate's public entry
//! point on one thread, for the first requests of the workload's stream:
//!
//! | span | call                                                        |
//! |------|-------------------------------------------------------------|
//! | L0   | `DeltaEval` apply / verdict / revert loop (Moves only)      |
//! | L1   | the `CompiledScenario` call for the request's kind          |
//! | L2   | `Service::call`                                             |
//! | L3   | `NetClient::call` over loopback                             |
//! | L4   | `NetClient::call_pipelined`, eight requests per window      |
//!
//! plus the scenario fingerprint and the four codec calls. A layer's self
//! time is the median, over requests, of its span minus the spans of the
//! layers it contains. Spans are kept in memory and written as JSON lines
//! when the run ends.

use crate::oracle::{reference, response_hash, Plans};
use crate::report::Report;
use crate::served::curve_request;
use crate::stack::Stack;
use fepia_benchmark::measure::median;
use fepia_mapping::DeltaEval;
use fepia_net::frame::{fnv1a, HEADER_LEN};
use fepia_net::wire::{decode_request, decode_response, encode_request, encode_response};
use fepia_obs::{analyze, AnalyzerConfig, Telemetry, VecSink};
use fepia_serve::workload::{moves_request, request, WorkloadSpec};
use fepia_serve::{CacheOutcome, EvalKind, EvalRequest, EvalResponse, Scenario};
use std::collections::HashMap;
use std::hint::black_box;
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Side-probe request ids: disjoint from every served stream.
const SIDE_BASE: u64 = 1 << 34;
/// Requests per `call_pipelined` window.
const WINDOW: usize = 8;
/// Requests sent pipelined. Fewer than the other layers: with the server's
/// Nagle hold a window can stall for milliseconds, and 512 requests keep
/// the traced run inside its time budget.
const PIPELINED: u64 = 512;

pub struct Input<'a> {
    /// The workload's request stream, by index.
    pub stream: &'a dyn Fn(u64) -> EvalRequest,
    /// Requests traced per layer.
    pub len: u64,
    pub spec: &'a WorkloadSpec,
    pub pool: &'a [Arc<Scenario>],
    pub grid: &'a [f64],
    /// Side-probe requests per kind the stream does not send.
    pub side: u64,
    /// Where to write the spans; `None` keeps them in memory only.
    pub spans: Option<PathBuf>,
}

struct Span {
    name: &'static str,
    id: u64,
    parent: &'static str,
    start: Duration,
    end: Duration,
}

/// In-memory span recorder.
struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span and returns its result and duration in µs.
    fn span<R>(
        &mut self,
        name: &'static str,
        parent: &'static str,
        id: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        self.spans.push(Span {
            name,
            id,
            parent,
            start: start - self.epoch,
            end: end - self.epoch,
        });
        (r, (end - start).as_secs_f64() * 1e6)
    }

    fn write(&self, path: &PathBuf) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                s.id,
                s.parent,
                s.start.as_nanos(),
                s.end.as_nanos()
            )?;
        }
        out.flush()
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Moves,
    Verdict,
    Origins,
    Curve,
}

fn kind_of(req: &EvalRequest) -> Kind {
    match req.kind {
        EvalKind::Moves(_) => Kind::Moves,
        EvalKind::Verdict => Kind::Verdict,
        EvalKind::Origins(_) => Kind::Origins,
        EvalKind::Curve(_) => Kind::Curve,
    }
}

/// In-process timings of one request.
struct Local {
    kind: Kind,
    units: usize,
    l0: f64,
    l1: f64,
}

/// Everything the stream requests measure below the service.
struct Traced {
    local: Local,
    fingerprint: f64,
    compile: f64,
    codec: f64,
    hash: u64,
}

/// L0: the per-move `DeltaEval` loop `move_verdicts` runs, without the
/// verdict list it builds.
fn delta_loop(s: &Scenario, moves: &[(usize, usize)]) {
    let mut de = DeltaEval::new(s.etc(), s.mapping(), s.tau());
    for &(app, dst) in moves {
        let src = de.machine_of(app).expect("base mapping is complete");
        de.apply(app, dst);
        black_box(de.verdict());
        de.apply(app, src);
    }
}

/// L0 and L1 of one request; returns the L1 answer as the reference
/// response served answers are compared with.
fn local(rec: &mut Recorder, plans: &mut Plans, req: &EvalRequest) -> (Local, EvalResponse) {
    let l0 = match &req.kind {
        EvalKind::Moves(ms) => {
            rec.span("L0", "L1", req.id, || delta_loop(&req.scenario, ms))
                .1
        }
        _ => 0.0,
    };
    let ((verdicts, curve), l1) = rec.span("L1", "L2", req.id, || plans.evaluate(req));
    let local = Local {
        kind: kind_of(req),
        units: verdicts.len(),
        l0,
        l1,
    };
    (local, reference(req.id, verdicts, curve))
}

/// The side stream for a kind the workload's stream does not send, on the
/// same pool: `moves_request`, the mixed stream filtered to the kind, or
/// the curve grid.
fn side_stream(input: &Input, kind: Kind) -> Vec<EvalRequest> {
    let n = input.side as usize;
    match kind {
        Kind::Moves => (0..input.side)
            .map(|i| moves_request(input.spec, input.pool, SIDE_BASE + i))
            .collect(),
        Kind::Curve => (0..input.side)
            .map(|i| curve_request(input.spec, input.pool, input.grid, SIDE_BASE + i))
            .collect(),
        Kind::Verdict | Kind::Origins => (SIDE_BASE..)
            .map(|i| request(input.spec, input.pool, i))
            .filter(|r| kind_of(r) == kind)
            .take(n)
            .collect(),
    }
}

/// Runs the waterfall and reports every per-layer metric it derives.
pub fn run(
    input: Input,
    stack: &mut Stack,
    plans: &mut Plans,
    report: &mut Report,
) -> Result<(), String> {
    let n = input.len;
    let reqs = |i: u64| (input.stream)(i);
    let mut rec = Recorder::new();
    let mut traced_wall = Duration::ZERO;

    // L0, L1, fingerprint, compile and codec, in process.
    let t = Instant::now();
    let mut compile_us: HashMap<usize, f64> = HashMap::new();
    let mut stream: Vec<Traced> = Vec::with_capacity(n as usize);
    let (mut enc_req, mut dec_req, mut enc_resp, mut dec_resp) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut req_bytes, mut resp_bytes) = (Vec::new(), Vec::new());
    for i in 0..n {
        let req = reqs(i);
        let (_, fingerprint) = rec.span("fingerprint", "L2", req.id, || {
            black_box(req.scenario.fingerprint())
        });
        let compile = *compile_us
            .entry(Arc::as_ptr(&req.scenario) as usize)
            .or_insert_with(|| {
                rec.span("compile", "L2", req.id, || {
                    black_box(req.scenario.compile())
                })
                .1
            });
        let (local, resp) = local(&mut rec, plans, &req);
        let (bytes, e1) = rec.span("encode_request", "L3", req.id, || encode_request(&req));
        let (decoded, d1) = rec.span("decode_request", "L3", req.id, || {
            decode_request(&bytes).map(|p| p.into_request())
        });
        if !matches!(decoded, Ok(Ok(_))) {
            return Err(format!("request {} does not decode", req.id));
        }
        let (rbytes, e2) = rec.span("encode_response", "L3", req.id, || encode_response(&resp));
        let (back, d2) = rec.span("decode_response", "L3", req.id, || decode_response(&rbytes));
        if back.is_err() {
            return Err(format!("response {} does not decode", req.id));
        }
        enc_req.push(e1);
        dec_req.push(d1);
        enc_resp.push(e2);
        dec_resp.push(d2);
        req_bytes.push((HEADER_LEN + bytes.len()) as f64);
        resp_bytes.push((HEADER_LEN + rbytes.len()) as f64);
        stream.push(Traced {
            local,
            fingerprint,
            compile,
            codec: e1 + d1 + e2 + d2,
            // `rbytes` encodes the reference response, so this is its
            // `response_hash`.
            hash: fnv1a(&rbytes),
        });
    }
    traced_wall += t.elapsed();

    // A traced run prints every per-layer metric BENCHMARK.json declares,
    // each a real measurement, so kinds the stream does not send are timed
    // in process on a side stream of the same pool.
    let t = Instant::now();
    let mut side: Vec<Local> = Vec::new();
    for kind in [Kind::Moves, Kind::Verdict, Kind::Origins, Kind::Curve] {
        if stream.iter().any(|r| r.local.kind == kind) {
            continue;
        }
        for req in side_stream(&input, kind) {
            side.push(local(&mut rec, plans, &req).0);
        }
    }
    traced_wall += t.elapsed();

    // L2: the in-process service, one request at a time.
    let t = Instant::now();
    let mut l2 = Vec::with_capacity(n as usize);
    let mut queue_self = Vec::with_capacity(n as usize);
    for (i, r) in stream.iter().enumerate() {
        let req = reqs(i as u64);
        let id = req.id;
        let (resp, us) = rec.span("L2", "L3", id, || stack.service.call(req));
        let resp = resp.map_err(|e| format!("L2 request {id}: {e}"))?;
        report.attempted += 1;
        let compiled = resp.cache == Some(CacheOutcome::Compiled);
        if response_hash(resp) != r.hash {
            return Err(format!("L2 response {id} differs bitwise from the L1 call"));
        }
        l2.push(us);
        let compile = if compiled { r.compile } else { 0.0 };
        queue_self.push(us - r.local.l1 - r.fingerprint - compile);
    }
    traced_wall += t.elapsed();

    // L3: one blocking TCP round trip at a time.
    let t = Instant::now();
    let client = &mut stack.clients[0];
    let mut l3 = Vec::with_capacity(n as usize);
    let mut net_self = Vec::with_capacity(n as usize);
    for (i, r) in stream.iter().enumerate() {
        let req = reqs(i as u64);
        let (resp, us) = rec.span("L3", "-", req.id, || client.call(&req));
        let resp = resp.map_err(|e| format!("L3 request {}: {e}", req.id))?;
        report.attempted += 1;
        if response_hash(resp) != r.hash {
            return Err(format!(
                "L3 response {} differs bitwise from the L1 call",
                req.id
            ));
        }
        l3.push(us);
        net_self.push(us - l2[i] - r.codec);
    }
    traced_wall += t.elapsed();

    // L4: pipelined windows on the same connection.
    let t = Instant::now();
    let mut l4_total = 0.0;
    let pipelined = n.min(PIPELINED);
    for lo in (0..pipelined).step_by(WINDOW) {
        let batch: Vec<EvalRequest> = (lo..(lo + WINDOW as u64).min(pipelined))
            .map(reqs)
            .collect();
        let (resps, us) = rec.span("L4", "-", lo, || client.call_pipelined(&batch));
        let resps = resps.map_err(|e| format!("L4 window at {lo}: {e}"))?;
        report.attempted += batch.len() as u64;
        l4_total += us;
        // `call_pipelined` returns responses in request order.
        for (resp, r) in resps.into_iter().zip(&stream[lo as usize..]) {
            let id = resp.id;
            if response_hash(resp) != r.hash {
                return Err(format!("L4 response {id} differs bitwise from the L1 call"));
            }
        }
    }
    traced_wall += t.elapsed();

    // The same L3 requests again with the program's own stage spans on,
    // to set the outside-in split beside the trace analyzer's.
    let sink = Arc::new(VecSink::new());
    let previous = fepia_obs::install_sink(sink.clone());
    fepia_obs::set_events_enabled(true);
    fepia_obs::set_trace_wall(true);
    fepia_obs::set_trace_enabled(true);
    let staged: Result<(), String> = (0..n).try_for_each(|i| {
        client
            .call(&reqs(i))
            .map(drop)
            .map_err(|e| format!("stage-traced request {i}: {e}"))
    });
    fepia_obs::set_trace_enabled(false);
    fepia_obs::set_events_enabled(false);
    match previous {
        Some(p) => {
            fepia_obs::install_sink(p);
        }
        None => {
            fepia_obs::clear_sink();
        }
    }
    staged?;
    report.attempted += n;
    let stages = analyze(
        &Telemetry::from_lines(sink.lines()),
        &AnalyzerConfig::default(),
    );
    let stage_p50 = |name: &str| {
        stages
            .stages
            .iter()
            .find(|s| s.stage == name)
            .map_or(f64::NAN, |s| s.p50_us)
    };

    // Recorder cost: time empty spans, charge that per recorded span.
    let mut cal = Recorder::new();
    let t = Instant::now();
    for i in 0..20_000u64 {
        cal.span("calibrate", "-", i, || ());
    }
    let per_span = t.elapsed().as_secs_f64() / 20_000.0;
    let overhead = per_span * rec.spans.len() as f64 / traced_wall.as_secs_f64();

    // Derived metrics.
    let locals: Vec<&Local> = stream.iter().map(|r| &r.local).chain(&side).collect();
    let of_kind = |k: Kind, f: &dyn Fn(&Local) -> f64| -> f64 {
        median(
            &locals
                .iter()
                .filter(|l| l.kind == k)
                .map(|l| f(l))
                .collect::<Vec<_>>(),
        )
    };
    let col = |f: &dyn Fn(&Traced) -> f64| -> Vec<f64> { stream.iter().map(f).collect() };
    let l0 = of_kind(Kind::Moves, &|l| l.l0);
    let l1_moves = of_kind(Kind::Moves, &|l| l.l1);
    let (l1, l2m, l3m) = (median(&col(&|r| r.local.l1)), median(&l2), median(&l3));
    report.layer("layer.l0_us", l0, "us");
    report.layer("layer.l1_us", l1, "us");
    report.layer("layer.l2_us", l2m, "us");
    report.layer("layer.l3_us", l3m, "us");
    report.layer(
        "mapping.delta_ns_per_move",
        of_kind(Kind::Moves, &|l| 1e3 * l.l0 / l.units as f64),
        "ns",
    );
    report.layer(
        "serve.l1_self_us",
        of_kind(Kind::Moves, &|l| l.l1 - l.l0),
        "us",
    );
    report.layer(
        "serve.fingerprint_us",
        median(&col(&|r| r.fingerprint)),
        "us",
    );
    report.layer("serve.queue_self_us", median(&queue_self), "us");
    report.layer(
        "serve.compile_us",
        median(&compile_us.values().copied().collect::<Vec<_>>()),
        "us",
    );
    report.layer("core.verdict_us", of_kind(Kind::Verdict, &|l| l.l1), "us");
    report.layer("core.origin_us", of_kind(Kind::Origins, &|l| l.l1), "us");
    report.layer(
        "core.curve_ns_per_point",
        of_kind(Kind::Curve, &|l| 1e3 * l.l1 / l.units as f64),
        "ns",
    );
    report.layer("net.enc_req_us", median(&enc_req), "us");
    report.layer("net.dec_req_us", median(&dec_req), "us");
    report.layer("net.enc_resp_us", median(&enc_resp), "us");
    report.layer("net.dec_resp_us", median(&dec_resp), "us");
    report.layer("net.req_bytes", median(&req_bytes), "bytes");
    report.layer("net.resp_bytes", median(&resp_bytes), "bytes");
    report.layer("net.self_us", median(&net_self), "us");
    report.layer("net.l4_us_per_req", l4_total / pipelined as f64, "us");
    for (stage, name) in [
        ("queue.wait", "stage.queue_wait_p50_us"),
        ("worker.exec", "stage.worker_exec_p50_us"),
        ("net.read", "stage.net_read_p50_us"),
        ("net.write", "stage.net_write_p50_us"),
    ] {
        report.layer(name, stage_p50(stage), "us");
    }
    report.layer("bench.trace_overhead_frac", overhead, "fraction");
    report.note(format!(
        "waterfall over {n} requests (Moves medians): L0 {l0:.2} us <= L1 {l1_moves:.2} us; stream medians L1 {l1:.2} us, L2 {l2m:.2} us, L3 {l3m:.2} us; L4 {:.2} us/request over {pipelined}",
        l4_total / pipelined as f64
    ));

    if let Some(path) = input.spans {
        if let Err(e) = rec.write(&path) {
            eprintln!("benchmark: cannot write spans to {}: {e}", path.display());
        }
    }
    Ok(())
}
