//! Payload encodings for the three frame types.
//!
//! All integers are little-endian; `f64`s travel as their IEEE-754 bit
//! patterns (`to_bits`/`from_bits`), so a decoded response is **bitwise**
//! identical to the one the server computed — including NaN payloads and
//! signed zeros. Collections are a `u64` count followed by the elements;
//! every count is validated against the bytes actually remaining *before*
//! any allocation, so a hostile length field cannot balloon memory.
//!
//! * **Request** ([`encode_request`] / [`decode_request`]) — the request id,
//!   a relative deadline in microseconds (`0` = none; protocol v3), the
//!   full scenario (ETC matrix, assignment, τ, [`RadiusOptions`]), and
//!   the [`EvalKind`]. `Curve` requests carry their [`CurveSpec`] — an
//!   explicit τ grid or adaptive-refinement bounds — as IEEE bit patterns
//!   like every other `f64`. The scenario travels by value: the server
//!   reconstructs it and relies on the service's fingerprint cache to avoid
//!   recompiling plans for scenarios it has already seen.
//! * **Response** ([`encode_response`] / [`decode_response`]) — the full
//!   [`EvalResponse`] including every per-feature [`RadiusVerdict`], the
//!   [`Disposition`] (full / brownout / deadline-exceeded), and — for
//!   curve requests — the trailing [`CurveMeta`] (evaluated τ levels plus
//!   the monotonicity flag), so the client sees exactly what an in-process
//!   caller would.
//! * **Error** ([`encode_error`] / [`decode_error`]) — a typed refusal:
//!   [`WireError::Overloaded`] maps the service's queue-full/draining
//!   shedding onto the wire; [`WireError::Invalid`] is a permanent
//!   rejection (malformed or semantically impossible request).
//!
//! Decoding is total: malformed payloads yield typed
//! [`DecodeError`]s, never panics (fuzzed at the workspace root).

use crate::frame::DecodeError;
use crate::server::NetStatsSnapshot;
use fepia_core::{
    Bound, DegradeReason, FailReason, PlanVerdict, RadiusMethod, RadiusOptions, RadiusResult,
    RadiusVerdict,
};
use fepia_etc::EtcMatrix;
use fepia_mapping::Mapping;
use fepia_optim::{Norm, SolverOptions, VecN};
use fepia_serve::{
    CacheOutcome, CurveGrid, CurveMeta, CurveSpec, Disposition, EvalKind, EvalRequest,
    EvalResponse, JobHeuristic, JobSnapshot, JobSpec, JobState, Scenario, ShardStatsSnapshot,
    ShedReason,
};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Byte-level writer/reader
// ---------------------------------------------------------------------------

/// Append-only little-endian byte writer.
pub struct PayloadWriter {
    buf: Vec<u8>,
}

impl PayloadWriter {
    /// An empty writer.
    pub fn new() -> PayloadWriter {
        PayloadWriter { buf: Vec::new() }
    }

    /// The encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }
}

impl Default for PayloadWriter {
    fn default() -> Self {
        PayloadWriter::new()
    }
}

/// Bounds-checked little-endian reader over a payload slice.
pub struct PayloadReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    /// A reader over the whole payload.
    pub fn new(buf: &'a [u8]) -> PayloadReader<'a> {
        PayloadReader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated {
                needed: self.pos + n,
                got: self.buf.len(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a collection count and rejects it — before any allocation —
    /// unless `count * min_elem_bytes` could still fit in the bytes left.
    fn count(&mut self, what: &'static str, min_elem_bytes: usize) -> Result<usize, DecodeError> {
        let len = self.u64()?;
        let limit = (self.remaining() / min_elem_bytes.max(1)) as u64;
        if len > limit {
            return Err(DecodeError::BadLength { what, len, limit });
        }
        Ok(len as usize)
    }

    fn str(&mut self, what: &'static str) -> Result<String, DecodeError> {
        let len = self.count(what, 1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::BadUtf8 { what })
    }

    fn f64_vec(&mut self, what: &'static str) -> Result<Vec<f64>, DecodeError> {
        let len = self.count(what, 8)?;
        (0..len).map(|_| self.f64()).collect()
    }

    /// Fails with [`DecodeError::TrailingBytes`] unless fully consumed.
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.remaining() != 0 {
            return Err(DecodeError::TrailingBytes {
                remaining: self.remaining(),
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

const KIND_VERDICT: u8 = 1;
const KIND_ORIGINS: u8 = 2;
const KIND_MOVES: u8 = 3;
const KIND_CURVE: u8 = 4;

/// Encodes a full request with no deadline: id, scenario by value,
/// evaluation kind. Equivalent to [`encode_request_with_deadline`] with
/// `deadline_us = 0`.
pub fn encode_request(req: &EvalRequest) -> Vec<u8> {
    encode_request_with_deadline(req, 0)
}

/// Encodes a full request: id, relative deadline in microseconds (`0` =
/// none), scenario by value, evaluation kind.
pub fn encode_request_with_deadline(req: &EvalRequest, deadline_us: u64) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    w.u64(req.id);
    w.u64(deadline_us);
    let s = &req.scenario;
    w.usize(s.etc().apps());
    w.usize(s.etc().machines());
    for &v in s.etc().values() {
        w.f64(v);
    }
    w.usize(s.mapping().machines());
    w.usize(s.mapping().assignment().len());
    for &j in s.mapping().assignment() {
        w.usize(j);
    }
    w.f64(s.tau());
    encode_options(&mut w, s.opts());
    match &req.kind {
        EvalKind::Verdict => w.u8(KIND_VERDICT),
        EvalKind::Origins(os) => {
            w.u8(KIND_ORIGINS);
            w.usize(os.len());
            for o in os {
                w.usize(o.dim());
                for &x in o.as_slice() {
                    w.f64(x);
                }
            }
        }
        EvalKind::Moves(ms) => {
            w.u8(KIND_MOVES);
            w.usize(ms.len());
            for &(app, dst) in ms {
                w.usize(app);
                w.usize(dst);
            }
        }
        EvalKind::Curve(spec) => {
            w.u8(KIND_CURVE);
            match &spec.grid {
                CurveGrid::Explicit(levels) => {
                    w.u8(1);
                    w.usize(levels.len());
                    for &t in levels {
                        w.f64(t);
                    }
                }
                CurveGrid::Adaptive {
                    tau_lo,
                    tau_hi,
                    max_depth,
                    rho_resolution,
                } => {
                    w.u8(2);
                    w.f64(*tau_lo);
                    w.f64(*tau_hi);
                    w.u32(*max_depth);
                    w.f64(*rho_resolution);
                }
            }
        }
    }
    w.finish()
}

fn encode_options(w: &mut PayloadWriter, opts: &RadiusOptions) {
    match &opts.norm {
        Norm::L1 => w.u8(1),
        Norm::L2 => w.u8(2),
        Norm::LInf => w.u8(3),
        Norm::WeightedL2(weights) => {
            w.u8(4);
            w.usize(weights.len());
            for &x in weights {
                w.f64(x);
            }
        }
    }
    let s = &opts.solver;
    w.f64(s.tol);
    w.usize(s.max_outer);
    w.f64(s.t_max_factor);
    w.f64(s.fd_step);
    w.f64(s.seed_jitter);
    w.f64(s.root.x_tol);
    w.f64(s.root.f_tol);
    w.usize(s.root.max_iter);
}

fn decode_options(r: &mut PayloadReader<'_>) -> Result<RadiusOptions, DecodeError> {
    let norm = match r.u8()? {
        1 => Norm::L1,
        2 => Norm::L2,
        3 => Norm::LInf,
        4 => Norm::WeightedL2(r.f64_vec("norm weights")?),
        tag => {
            return Err(DecodeError::BadTag {
                what: "Norm",
                tag: tag as u64,
            })
        }
    };
    // Field order mirrors `encode_options`; each read is sequential, so
    // bind locals first rather than build the struct literal in place.
    let tol = r.f64()?;
    let max_outer = r.u64()? as usize;
    let t_max_factor = r.f64()?;
    let fd_step = r.f64()?;
    let seed_jitter = r.f64()?;
    let x_tol = r.f64()?;
    let f_tol = r.f64()?;
    let max_iter = r.u64()? as usize;
    let mut solver = SolverOptions {
        tol,
        max_outer,
        t_max_factor,
        fd_step,
        seed_jitter,
        ..SolverOptions::default()
    };
    solver.root.x_tol = x_tol;
    solver.root.f_tol = f_tol;
    solver.root.max_iter = max_iter;
    Ok(RadiusOptions { norm, solver })
}

/// A structurally valid request payload, not yet semantically validated.
/// [`RequestPayload::into_request`] performs the semantic checks (positive
/// finite ETC entries, in-range assignment, τ ≥ 1) that separate a
/// *well-formed* frame from a *servable* request.
#[derive(Clone, Debug)]
pub struct RequestPayload {
    /// Client-chosen request id, echoed in every reply.
    pub id: u64,
    /// Relative deadline in microseconds from server admission; `0` means
    /// none. Read by the server *before* [`RequestPayload::into_request`]
    /// so expired requests can be dropped without evaluation.
    pub deadline_us: u64,
    apps: usize,
    machines: usize,
    etc_values: Vec<f64>,
    mapping_machines: usize,
    assignment: Vec<usize>,
    tau: f64,
    opts: RadiusOptions,
    kind: EvalKind,
}

impl RequestPayload {
    /// Semantic validation: builds the [`EvalRequest`] or explains why the
    /// payload can never be served (the server answers with a permanent
    /// [`WireError::Invalid`]). Never panics, whatever the field values.
    pub fn into_request(self) -> Result<EvalRequest, String> {
        if self.apps == 0 || self.machines == 0 {
            return Err(format!(
                "empty ETC matrix ({}x{})",
                self.apps, self.machines
            ));
        }
        // Empty kind bodies are well-formed frames but can never be served:
        // answering them with zero verdicts would be indistinguishable from
        // a served-but-empty response, so they are rejected typed here (and
        // again at service validation for in-process callers).
        match &self.kind {
            EvalKind::Origins(os) if os.is_empty() => {
                return Err("origins request carries no origins".into());
            }
            EvalKind::Moves(ms) if ms.is_empty() => {
                return Err("moves request carries no moves".into());
            }
            EvalKind::Curve(spec) => {
                if let Some(msg) = spec.validate() {
                    return Err(msg);
                }
            }
            _ => {}
        }
        let etc = EtcMatrix::try_from_flat(self.apps, self.machines, self.etc_values)
            .map_err(|e| e.to_string())?;
        if self.mapping_machines == 0 {
            return Err("mapping declares zero machines".into());
        }
        if self.assignment.is_empty() {
            return Err("empty assignment".into());
        }
        if let Some(&bad) = self
            .assignment
            .iter()
            .find(|&&j| j >= self.mapping_machines)
        {
            return Err(format!(
                "assignment entry {bad} out of range for {} machines",
                self.mapping_machines
            ));
        }
        let mapping = Mapping::new(self.assignment, self.mapping_machines);
        let scenario = Scenario::new(Arc::new(etc), mapping, self.tau, self.opts)
            .map_err(|e| e.to_string())?;
        Ok(EvalRequest {
            id: self.id,
            scenario: Arc::new(scenario),
            kind: self.kind,
        })
    }
}

/// Decodes a request payload. Structural errors (truncation, bad tags,
/// implausible lengths) are [`DecodeError`]s; semantic errors are deferred
/// to [`RequestPayload::into_request`].
pub fn decode_request(payload: &[u8]) -> Result<RequestPayload, DecodeError> {
    let mut r = PayloadReader::new(payload);
    let id = r.u64()?;
    let deadline_us = r.u64()?;
    let apps = r.u64()? as usize;
    let machines = r.u64()? as usize;
    let cells = apps.checked_mul(machines).unwrap_or(u64::MAX as usize);
    let limit = (r.remaining() / 8) as u64;
    if cells as u64 > limit {
        return Err(DecodeError::BadLength {
            what: "ETC matrix",
            len: cells as u64,
            limit,
        });
    }
    let etc_values: Vec<f64> = (0..cells).map(|_| r.f64()).collect::<Result<_, _>>()?;
    let mapping_machines = r.u64()? as usize;
    let n_assign = r.count("assignment", 8)?;
    let assignment: Vec<usize> = (0..n_assign)
        .map(|_| r.u64().map(|v| v as usize))
        .collect::<Result<_, _>>()?;
    let tau = r.f64()?;
    let opts = decode_options(&mut r)?;
    let kind = match r.u8()? {
        KIND_VERDICT => EvalKind::Verdict,
        KIND_ORIGINS => {
            let n = r.count("origins", 8)?;
            let mut origins = Vec::with_capacity(n);
            for _ in 0..n {
                origins.push(VecN::new(r.f64_vec("origin components")?));
            }
            EvalKind::Origins(origins)
        }
        KIND_MOVES => {
            let n = r.count("moves", 16)?;
            let mut moves = Vec::with_capacity(n);
            for _ in 0..n {
                let app = r.u64()? as usize;
                let dst = r.u64()? as usize;
                moves.push((app, dst));
            }
            EvalKind::Moves(moves)
        }
        KIND_CURVE => {
            let grid = match r.u8()? {
                1 => CurveGrid::Explicit(r.f64_vec("curve levels")?),
                2 => {
                    let tau_lo = r.f64()?;
                    let tau_hi = r.f64()?;
                    let max_depth = r.u32()?;
                    let rho_resolution = r.f64()?;
                    CurveGrid::Adaptive {
                        tau_lo,
                        tau_hi,
                        max_depth,
                        rho_resolution,
                    }
                }
                tag => {
                    return Err(DecodeError::BadTag {
                        what: "CurveGrid",
                        tag: tag as u64,
                    })
                }
            };
            EvalKind::Curve(CurveSpec { grid })
        }
        tag => {
            return Err(DecodeError::BadTag {
                what: "EvalKind",
                tag: tag as u64,
            })
        }
    };
    r.finish()?;
    Ok(RequestPayload {
        id,
        deadline_us,
        apps,
        machines,
        etc_values,
        mapping_machines,
        assignment,
        tau,
        opts,
        kind,
    })
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// Encodes a full response, bit-for-bit: every `f64` travels as its IEEE
/// bit pattern.
pub fn encode_response(resp: &EvalResponse) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    w.u64(resp.id);
    w.usize(resp.shard);
    w.u32(resp.attempts);
    match resp.cache {
        None => w.u8(0),
        Some(CacheOutcome::Hit) => w.u8(1),
        Some(CacheOutcome::Compiled) => w.u8(2),
        Some(CacheOutcome::Coalesced) => w.u8(3),
    }
    w.u8(match resp.disposition {
        Disposition::Full => 0,
        Disposition::Brownout => 1,
        Disposition::DeadlineExceeded => 2,
    });
    w.usize(resp.verdicts.len());
    for v in &resp.verdicts {
        encode_verdict(&mut w, v);
    }
    match &resp.curve {
        None => w.u8(0),
        Some(meta) => {
            w.u8(1);
            w.usize(meta.taus.len());
            for &t in &meta.taus {
                w.f64(t);
            }
            w.u8(meta.monotone as u8);
        }
    }
    w.finish()
}

fn encode_verdict(w: &mut PayloadWriter, v: &PlanVerdict) {
    w.f64(v.metric_lo);
    w.f64(v.metric_hi);
    match v.binding {
        None => w.u8(0),
        Some(b) => {
            w.u8(1);
            w.usize(b);
        }
    }
    w.u8(match v.kind {
        fepia_core::VerdictKind::Exact => 1,
        fepia_core::VerdictKind::Bounded => 2,
        fepia_core::VerdictKind::Infeasible => 3,
        fepia_core::VerdictKind::Failed => 4,
    });
    w.usize(v.radii.len());
    for r in &v.radii {
        encode_radius_verdict(w, r);
    }
}

fn encode_radius_verdict(w: &mut PayloadWriter, r: &RadiusVerdict) {
    match r {
        RadiusVerdict::Exact(res) => {
            w.u8(1);
            w.f64(res.radius);
            match &res.boundary_point {
                None => w.u8(0),
                Some(p) => {
                    w.u8(1);
                    w.usize(p.dim());
                    for &x in p.as_slice() {
                        w.f64(x);
                    }
                }
            }
            w.u8(match res.bound {
                None => 0,
                Some(Bound::Min) => 1,
                Some(Bound::Max) => 2,
            });
            w.u8(res.violated as u8);
            w.u8(match res.method {
                RadiusMethod::Analytic => 1,
                RadiusMethod::Numeric => 2,
                RadiusMethod::Unbounded => 3,
            });
            w.usize(res.iterations);
            w.u64(res.f_evals);
        }
        RadiusVerdict::Bounded {
            lo,
            hi,
            reason,
            restarts,
        } => {
            w.u8(2);
            w.f64(*lo);
            w.f64(*hi);
            w.u8(match reason {
                DegradeReason::IterationCap => 1,
                DegradeReason::BudgetExhausted => 2,
            });
            w.usize(*restarts);
        }
        RadiusVerdict::Infeasible => w.u8(3),
        RadiusVerdict::Failed(reason) => {
            w.u8(4);
            encode_fail_reason(w, reason);
        }
    }
}

fn encode_fail_reason(w: &mut PayloadWriter, reason: &FailReason) {
    match reason {
        FailReason::NonFiniteInput { index } => {
            w.u8(1);
            w.usize(*index);
        }
        FailReason::NonFiniteImpact => w.u8(2),
        FailReason::DimensionMismatch { got, expected } => {
            w.u8(3);
            w.usize(*got);
            w.usize(*expected);
        }
        FailReason::Solver(msg) => {
            w.u8(4);
            w.str(msg);
        }
        FailReason::Panic(msg) => {
            w.u8(5);
            w.str(msg);
        }
    }
}

/// Decodes a response payload into the same [`EvalResponse`] an in-process
/// caller would have received (bit-for-bit `f64` fields).
pub fn decode_response(payload: &[u8]) -> Result<EvalResponse, DecodeError> {
    let mut r = PayloadReader::new(payload);
    let id = r.u64()?;
    let shard = r.u64()? as usize;
    let attempts = r.u32()?;
    let cache = match r.u8()? {
        0 => None,
        1 => Some(CacheOutcome::Hit),
        2 => Some(CacheOutcome::Compiled),
        3 => Some(CacheOutcome::Coalesced),
        tag => {
            return Err(DecodeError::BadTag {
                what: "CacheOutcome",
                tag: tag as u64,
            })
        }
    };
    let disposition = match r.u8()? {
        0 => Disposition::Full,
        1 => Disposition::Brownout,
        2 => Disposition::DeadlineExceeded,
        tag => {
            return Err(DecodeError::BadTag {
                what: "Disposition",
                tag: tag as u64,
            })
        }
    };
    let n = r.count("verdicts", 18)?;
    let mut verdicts = Vec::with_capacity(n);
    for _ in 0..n {
        verdicts.push(decode_verdict(&mut r)?);
    }
    let curve = match r.u8()? {
        0 => None,
        1 => {
            let taus = r.f64_vec("curve taus")?;
            let monotone = match r.u8()? {
                0 => false,
                1 => true,
                tag => {
                    return Err(DecodeError::BadTag {
                        what: "monotone flag",
                        tag: tag as u64,
                    })
                }
            };
            Some(CurveMeta { taus, monotone })
        }
        tag => {
            return Err(DecodeError::BadTag {
                what: "curve option",
                tag: tag as u64,
            })
        }
    };
    r.finish()?;
    Ok(EvalResponse {
        id,
        shard,
        cache,
        verdicts,
        attempts,
        disposition,
        curve,
    })
}

fn decode_verdict(r: &mut PayloadReader<'_>) -> Result<PlanVerdict, DecodeError> {
    let metric_lo = r.f64()?;
    let metric_hi = r.f64()?;
    let binding = match r.u8()? {
        0 => None,
        1 => Some(r.u64()? as usize),
        tag => {
            return Err(DecodeError::BadTag {
                what: "binding option",
                tag: tag as u64,
            })
        }
    };
    let kind = match r.u8()? {
        1 => fepia_core::VerdictKind::Exact,
        2 => fepia_core::VerdictKind::Bounded,
        3 => fepia_core::VerdictKind::Infeasible,
        4 => fepia_core::VerdictKind::Failed,
        tag => {
            return Err(DecodeError::BadTag {
                what: "VerdictKind",
                tag: tag as u64,
            })
        }
    };
    let n = r.count("radii", 1)?;
    let mut radii = Vec::with_capacity(n);
    for _ in 0..n {
        radii.push(decode_radius_verdict(r)?);
    }
    Ok(PlanVerdict {
        radii,
        metric_lo,
        metric_hi,
        binding,
        kind,
    })
}

fn decode_radius_verdict(r: &mut PayloadReader<'_>) -> Result<RadiusVerdict, DecodeError> {
    match r.u8()? {
        1 => {
            let radius = r.f64()?;
            let boundary_point = match r.u8()? {
                0 => None,
                1 => Some(VecN::new(r.f64_vec("boundary point")?)),
                tag => {
                    return Err(DecodeError::BadTag {
                        what: "boundary option",
                        tag: tag as u64,
                    })
                }
            };
            let bound = match r.u8()? {
                0 => None,
                1 => Some(Bound::Min),
                2 => Some(Bound::Max),
                tag => {
                    return Err(DecodeError::BadTag {
                        what: "Bound",
                        tag: tag as u64,
                    })
                }
            };
            let violated = match r.u8()? {
                0 => false,
                1 => true,
                tag => {
                    return Err(DecodeError::BadTag {
                        what: "violated flag",
                        tag: tag as u64,
                    })
                }
            };
            let method = match r.u8()? {
                1 => RadiusMethod::Analytic,
                2 => RadiusMethod::Numeric,
                3 => RadiusMethod::Unbounded,
                tag => {
                    return Err(DecodeError::BadTag {
                        what: "RadiusMethod",
                        tag: tag as u64,
                    })
                }
            };
            let iterations = r.u64()? as usize;
            let f_evals = r.u64()?;
            Ok(RadiusVerdict::Exact(RadiusResult {
                radius,
                boundary_point,
                bound,
                violated,
                method,
                iterations,
                f_evals,
            }))
        }
        2 => {
            let lo = r.f64()?;
            let hi = r.f64()?;
            let reason = match r.u8()? {
                1 => DegradeReason::IterationCap,
                2 => DegradeReason::BudgetExhausted,
                tag => {
                    return Err(DecodeError::BadTag {
                        what: "DegradeReason",
                        tag: tag as u64,
                    })
                }
            };
            let restarts = r.u64()? as usize;
            Ok(RadiusVerdict::Bounded {
                lo,
                hi,
                reason,
                restarts,
            })
        }
        3 => Ok(RadiusVerdict::Infeasible),
        4 => Ok(RadiusVerdict::Failed(decode_fail_reason(r)?)),
        tag => Err(DecodeError::BadTag {
            what: "RadiusVerdict",
            tag: tag as u64,
        }),
    }
}

fn decode_fail_reason(r: &mut PayloadReader<'_>) -> Result<FailReason, DecodeError> {
    match r.u8()? {
        1 => Ok(FailReason::NonFiniteInput {
            index: r.u64()? as usize,
        }),
        2 => Ok(FailReason::NonFiniteImpact),
        3 => Ok(FailReason::DimensionMismatch {
            got: r.u64()? as usize,
            expected: r.u64()? as usize,
        }),
        4 => Ok(FailReason::Solver(r.str("solver message")?)),
        5 => Ok(FailReason::Panic(r.str("panic message")?)),
        tag => Err(DecodeError::BadTag {
            what: "FailReason",
            tag: tag as u64,
        }),
    }
}

// ---------------------------------------------------------------------------
// Stats polling
// ---------------------------------------------------------------------------

/// A live counter snapshot served over TCP: per-shard service counters
/// plus the server's own frame counters, correlated to the poll by id.
/// Lets operators watch a running server without reading JSONL post-mortem.
#[derive(Clone, Debug, PartialEq)]
pub struct StatsReply {
    /// The poll id, echoed.
    pub id: u64,
    /// One snapshot per shard, in shard order
    /// (see [`fepia_serve::ServiceStats`]).
    pub shards: Vec<ShardStatsSnapshot>,
    /// The TCP server's frame counters.
    pub net: NetStatsSnapshot,
}

impl StatsReply {
    /// Sum of the per-shard counters.
    pub fn service_totals(&self) -> ShardStatsSnapshot {
        fepia_serve::ServiceStats {
            shards: self.shards.clone(),
        }
        .totals()
    }
}

/// Encodes a stats poll: just the echo id.
pub fn encode_stats_request(id: u64) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    w.u64(id);
    w.finish()
}

/// Decodes a stats poll back to its id.
pub fn decode_stats_request(payload: &[u8]) -> Result<u64, DecodeError> {
    let mut r = PayloadReader::new(payload);
    let id = r.u64()?;
    r.finish()?;
    Ok(id)
}

/// Field count per encoded [`ShardStatsSnapshot`] (all `u64`).
const SHARD_STAT_FIELDS: usize = 11;

/// Encodes a [`StatsReply`]: id, shard count, 11 `u64` counters per shard,
/// then the 10 `u64` net counters.
pub fn encode_stats_reply(reply: &StatsReply) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    w.u64(reply.id);
    w.usize(reply.shards.len());
    for s in &reply.shards {
        w.u64(s.submitted);
        w.u64(s.completed);
        w.u64(s.shed_full);
        w.u64(s.shed_shutdown);
        w.u64(s.cache_hits);
        w.u64(s.cache_misses);
        w.u64(s.cache_coalesced);
        w.u64(s.worker_panics);
        w.u64(s.busy_ns);
        w.u64(s.deadline_expired);
        w.u64(s.brownout_evals);
    }
    let n = &reply.net;
    w.u64(n.connections);
    w.u64(n.frames_read);
    w.u64(n.frames_written);
    w.u64(n.decode_errors);
    w.u64(n.overloaded);
    w.u64(n.invalid);
    w.u64(n.chaos_drops);
    w.u64(n.max_pipeline_depth);
    w.u64(n.admission_brownout);
    w.u64(n.admission_shed);
    w.finish()
}

/// Decodes a [`StatsReply`]. Total: hostile counts fail typed before any
/// allocation, like every other collection on the wire.
pub fn decode_stats_reply(payload: &[u8]) -> Result<StatsReply, DecodeError> {
    let mut r = PayloadReader::new(payload);
    let id = r.u64()?;
    let n = r.count("shard stats", SHARD_STAT_FIELDS * 8)?;
    let mut shards = Vec::with_capacity(n);
    for _ in 0..n {
        shards.push(ShardStatsSnapshot {
            submitted: r.u64()?,
            completed: r.u64()?,
            shed_full: r.u64()?,
            shed_shutdown: r.u64()?,
            cache_hits: r.u64()?,
            cache_misses: r.u64()?,
            cache_coalesced: r.u64()?,
            worker_panics: r.u64()?,
            busy_ns: r.u64()?,
            deadline_expired: r.u64()?,
            brownout_evals: r.u64()?,
        });
    }
    let net = NetStatsSnapshot {
        connections: r.u64()?,
        frames_read: r.u64()?,
        frames_written: r.u64()?,
        decode_errors: r.u64()?,
        overloaded: r.u64()?,
        invalid: r.u64()?,
        chaos_drops: r.u64()?,
        max_pipeline_depth: r.u64()?,
        admission_brownout: r.u64()?,
        admission_shed: r.u64()?,
    };
    r.finish()?;
    Ok(StatsReply { id, shards, net })
}

// ---------------------------------------------------------------------------
// Optimizer jobs
// ---------------------------------------------------------------------------

const JOB_H_ANNEALING: u8 = 1;
const JOB_H_TABU: u8 = 2;
const JOB_H_GENETIC: u8 = 3;
const JOB_H_ROBUST_GREEDY: u8 = 4;

/// Encodes a job submission: request id, the ETC by value, τ, the seed,
/// population/batch/thread knobs, and the tagged heuristic portfolio.
pub fn encode_submit_job(id: u64, spec: &JobSpec) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    w.u64(id);
    w.usize(spec.etc.apps());
    w.usize(spec.etc.machines());
    for &v in spec.etc.values() {
        w.f64(v);
    }
    w.f64(spec.tau);
    w.u64(spec.seed);
    w.u32(spec.population);
    w.u32(spec.batches);
    w.u32(spec.threads);
    w.usize(spec.heuristics.len());
    for h in &spec.heuristics {
        match h {
            JobHeuristic::Annealing {
                iterations,
                initial_temperature,
                cooling,
            } => {
                w.u8(JOB_H_ANNEALING);
                w.u32(*iterations);
                w.f64(*initial_temperature);
                w.f64(*cooling);
            }
            JobHeuristic::Tabu {
                iterations,
                tabu_len,
            } => {
                w.u8(JOB_H_TABU);
                w.u32(*iterations);
                w.u32(*tabu_len);
            }
            JobHeuristic::Genetic {
                population,
                generations,
                mutation_rate,
            } => {
                w.u8(JOB_H_GENETIC);
                w.u32(*population);
                w.u32(*generations);
                w.f64(*mutation_rate);
            }
            JobHeuristic::RobustGreedy => w.u8(JOB_H_ROBUST_GREEDY),
        }
    }
    w.finish()
}

/// A structurally valid job submission, not yet semantically validated —
/// the job-layer analogue of [`RequestPayload`].
/// [`SubmitJobPayload::into_spec`] performs the semantic checks
/// (`JobSpec::validate`) that separate a well-formed frame from an
/// admissible job.
#[derive(Clone, Debug)]
pub struct SubmitJobPayload {
    /// Client-chosen request id, echoed in the [`JobReply`].
    pub id: u64,
    apps: usize,
    machines: usize,
    etc_values: Vec<f64>,
    tau: f64,
    seed: u64,
    population: u32,
    batches: u32,
    threads: u32,
    heuristics: Vec<JobHeuristic>,
}

impl SubmitJobPayload {
    /// Semantic validation: builds the [`JobSpec`] or explains why the
    /// payload can never be admitted (the server answers with a permanent
    /// [`WireError::Invalid`]). Never panics, whatever the field values.
    pub fn into_spec(self) -> Result<JobSpec, String> {
        if self.apps == 0 || self.machines == 0 {
            return Err(format!(
                "empty ETC matrix ({}x{})",
                self.apps, self.machines
            ));
        }
        let etc = EtcMatrix::try_from_flat(self.apps, self.machines, self.etc_values)
            .map_err(|e| e.to_string())?;
        let spec = JobSpec {
            etc: Arc::new(etc),
            tau: self.tau,
            seed: self.seed,
            population: self.population,
            batches: self.batches,
            heuristics: self.heuristics,
            threads: self.threads,
        };
        match spec.validate() {
            Some(msg) => Err(msg),
            None => Ok(spec),
        }
    }
}

/// Decodes a job submission. Structural errors are [`DecodeError`]s;
/// semantic errors are deferred to [`SubmitJobPayload::into_spec`].
pub fn decode_submit_job(payload: &[u8]) -> Result<SubmitJobPayload, DecodeError> {
    let mut r = PayloadReader::new(payload);
    let id = r.u64()?;
    let apps = r.u64()? as usize;
    let machines = r.u64()? as usize;
    let cells = apps.checked_mul(machines).unwrap_or(u64::MAX as usize);
    let limit = (r.remaining() / 8) as u64;
    if cells as u64 > limit {
        return Err(DecodeError::BadLength {
            what: "job ETC matrix",
            len: cells as u64,
            limit,
        });
    }
    let etc_values: Vec<f64> = (0..cells).map(|_| r.f64()).collect::<Result<_, _>>()?;
    let tau = r.f64()?;
    let seed = r.u64()?;
    let population = r.u32()?;
    let batches = r.u32()?;
    let threads = r.u32()?;
    let n = r.count("job heuristics", 1)?;
    let mut heuristics = Vec::with_capacity(n);
    for _ in 0..n {
        heuristics.push(match r.u8()? {
            JOB_H_ANNEALING => JobHeuristic::Annealing {
                iterations: r.u32()?,
                initial_temperature: r.f64()?,
                cooling: r.f64()?,
            },
            JOB_H_TABU => JobHeuristic::Tabu {
                iterations: r.u32()?,
                tabu_len: r.u32()?,
            },
            JOB_H_GENETIC => JobHeuristic::Genetic {
                population: r.u32()?,
                generations: r.u32()?,
                mutation_rate: r.f64()?,
            },
            JOB_H_ROBUST_GREEDY => JobHeuristic::RobustGreedy,
            tag => {
                return Err(DecodeError::BadTag {
                    what: "JobHeuristic",
                    tag: tag as u64,
                })
            }
        });
    }
    r.finish()?;
    Ok(SubmitJobPayload {
        id,
        apps,
        machines,
        etc_values,
        tau,
        seed,
        population,
        batches,
        threads,
        heuristics,
    })
}

fn encode_job_ref(id: u64, job: u64) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    w.u64(id);
    w.u64(job);
    w.finish()
}

fn decode_job_ref(payload: &[u8]) -> Result<(u64, u64), DecodeError> {
    let mut r = PayloadReader::new(payload);
    let id = r.u64()?;
    let job = r.u64()?;
    r.finish()?;
    Ok((id, job))
}

/// Encodes a job status poll: `(request id, job id)`.
pub fn encode_job_poll(id: u64, job: u64) -> Vec<u8> {
    encode_job_ref(id, job)
}

/// Decodes a job status poll back to `(request id, job id)`.
pub fn decode_job_poll(payload: &[u8]) -> Result<(u64, u64), DecodeError> {
    decode_job_ref(payload)
}

/// Encodes a job cancellation: `(request id, job id)`.
pub fn encode_job_cancel(id: u64, job: u64) -> Vec<u8> {
    encode_job_ref(id, job)
}

/// Decodes a job cancellation back to `(request id, job id)`.
pub fn decode_job_cancel(payload: &[u8]) -> Result<(u64, u64), DecodeError> {
    decode_job_ref(payload)
}

/// The server's one answer shape for every job operation (submit, poll,
/// cancel): the request id plus the job's current [`JobSnapshot`]. Every
/// `f64` in the front travels as its IEEE bit pattern, so a polled front
/// is **bitwise** identical to the one the job table holds.
#[derive(Clone, Debug)]
pub struct JobReply {
    /// The request id, echoed.
    pub id: u64,
    /// The job's snapshot at reply time.
    pub snapshot: JobSnapshot,
}

/// Encodes a [`JobReply`].
pub fn encode_job_reply(reply: &JobReply) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    let s = &reply.snapshot;
    w.u64(reply.id);
    w.u64(s.job);
    w.u8(match s.state {
        JobState::Running => 1,
        JobState::Done => 2,
        JobState::Cancelled => 3,
        JobState::Failed => 4,
    });
    match &s.error {
        None => w.u8(0),
        Some(msg) => {
            w.u8(1);
            w.str(msg);
        }
    }
    w.u32(s.batches_done);
    w.u32(s.batches_total);
    w.u64(s.candidates_done);
    w.u64(s.candidates_total);
    w.u64(s.evals_done);
    w.u64(s.evals_total);
    w.usize(s.front.len());
    for p in &s.front {
        w.u64(p.index);
        w.f64(p.makespan);
        w.f64(p.metric);
        w.str(&p.heuristic);
        w.usize(p.assignment.len());
        for &j in &p.assignment {
            w.usize(j);
        }
    }
    w.finish()
}

/// Decodes a [`JobReply`]. Total: hostile counts fail typed before any
/// allocation, like every other collection on the wire.
pub fn decode_job_reply(payload: &[u8]) -> Result<JobReply, DecodeError> {
    let mut r = PayloadReader::new(payload);
    let id = r.u64()?;
    let job = r.u64()?;
    let state = match r.u8()? {
        1 => JobState::Running,
        2 => JobState::Done,
        3 => JobState::Cancelled,
        4 => JobState::Failed,
        tag => {
            return Err(DecodeError::BadTag {
                what: "JobState",
                tag: tag as u64,
            })
        }
    };
    let error = match r.u8()? {
        0 => None,
        1 => Some(r.str("job error message")?),
        tag => {
            return Err(DecodeError::BadTag {
                what: "job error option",
                tag: tag as u64,
            })
        }
    };
    let batches_done = r.u32()?;
    let batches_total = r.u32()?;
    let candidates_done = r.u64()?;
    let candidates_total = r.u64()?;
    let evals_done = r.u64()?;
    let evals_total = r.u64()?;
    // Minimum encoded point: index + makespan + metric (8 each), empty
    // heuristic string (8), empty assignment (8).
    let n = r.count("front points", 40)?;
    let mut front = Vec::with_capacity(n);
    for _ in 0..n {
        let index = r.u64()?;
        let makespan = r.f64()?;
        let metric = r.f64()?;
        let heuristic = r.str("front heuristic name")?;
        let n_assign = r.count("front assignment", 8)?;
        let assignment: Vec<usize> = (0..n_assign)
            .map(|_| r.u64().map(|v| v as usize))
            .collect::<Result<_, _>>()?;
        front.push(fepia_mapping::FrontPoint {
            index,
            makespan,
            metric,
            heuristic,
            assignment,
        });
    }
    r.finish()?;
    Ok(JobReply {
        id,
        snapshot: JobSnapshot {
            job,
            state,
            error,
            batches_done,
            batches_total,
            candidates_done,
            candidates_total,
            evals_done,
            evals_total,
            front,
        },
    })
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// A typed server-side refusal, correlated to the request by id.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The target shard shed the request; retry later (the client's
    /// backoff loop does). Mirrors [`fepia_serve::Overloaded`].
    Overloaded {
        /// Shard that refused.
        shard: u64,
        /// Why it refused.
        reason: ShedReason,
    },
    /// The request can never be served as sent (malformed payload fields
    /// or out-of-range indices); resubmitting it unchanged cannot succeed.
    Invalid(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Overloaded { shard, reason } => write!(
                f,
                "shard {shard} shed the request: {}",
                match reason {
                    ShedReason::QueueFull => "queue full",
                    ShedReason::ShuttingDown => "shutting down",
                }
            ),
            WireError::Invalid(msg) => write!(f, "invalid request: {msg}"),
        }
    }
}

/// Encodes an error payload: the echoed request id plus the typed refusal.
pub fn encode_error(id: u64, err: &WireError) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    w.u64(id);
    match err {
        WireError::Overloaded { shard, reason } => {
            w.u8(1);
            w.u64(*shard);
            w.u8(match reason {
                ShedReason::QueueFull => 1,
                ShedReason::ShuttingDown => 2,
            });
        }
        WireError::Invalid(msg) => {
            w.u8(2);
            w.str(msg);
        }
    }
    w.finish()
}

/// Decodes an error payload into `(request id, refusal)`.
pub fn decode_error(payload: &[u8]) -> Result<(u64, WireError), DecodeError> {
    let mut r = PayloadReader::new(payload);
    let id = r.u64()?;
    let err = match r.u8()? {
        1 => {
            let shard = r.u64()?;
            let reason = match r.u8()? {
                1 => ShedReason::QueueFull,
                2 => ShedReason::ShuttingDown,
                tag => {
                    return Err(DecodeError::BadTag {
                        what: "ShedReason",
                        tag: tag as u64,
                    })
                }
            };
            WireError::Overloaded { shard, reason }
        }
        2 => WireError::Invalid(r.str("invalid-request message")?),
        tag => {
            return Err(DecodeError::BadTag {
                what: "WireError",
                tag: tag as u64,
            })
        }
    };
    r.finish()?;
    Ok((id, err))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fepia_core::{RadiusOptions, VerdictKind};
    use fepia_serve::workload::{request, scenario_pool, WorkloadSpec};

    fn sample_requests() -> Vec<EvalRequest> {
        let spec = WorkloadSpec::default();
        let pool = scenario_pool(&spec);
        (0..20).map(|i| request(&spec, &pool, i)).collect()
    }

    #[test]
    fn request_roundtrip_reconstructs_scenario_bitwise() {
        for req in sample_requests() {
            let bytes = encode_request(&req);
            let decoded = decode_request(&bytes).unwrap().into_request().unwrap();
            assert_eq!(decoded.id, req.id);
            assert!(decoded.scenario.same_as(&req.scenario));
            assert_eq!(
                decoded.scenario.fingerprint(),
                req.scenario.fingerprint(),
                "fingerprints must survive the wire"
            );
            match (&decoded.kind, &req.kind) {
                (EvalKind::Verdict, EvalKind::Verdict) => {}
                (EvalKind::Moves(a), EvalKind::Moves(b)) => assert_eq!(a, b),
                (EvalKind::Origins(a), EvalKind::Origins(b)) => {
                    assert_eq!(a.len(), b.len());
                    for (x, y) in a.iter().zip(b) {
                        assert_eq!(x.dim(), y.dim());
                        for i in 0..x.dim() {
                            assert_eq!(x[i].to_bits(), y[i].to_bits());
                        }
                    }
                }
                other => panic!("kind drifted over the wire: {other:?}"),
            }
        }
    }

    #[test]
    fn weighted_norm_and_options_roundtrip() {
        let spec = WorkloadSpec::default();
        let pool = scenario_pool(&spec);
        let base = &pool[0];
        let opts = RadiusOptions {
            norm: Norm::WeightedL2(vec![0.5, 2.0, 1.25]),
            solver: SolverOptions {
                tol: 3e-7,
                max_outer: 17,
                ..SolverOptions::default()
            },
        };
        let scenario = Scenario::new(
            Arc::clone(base.etc()),
            base.mapping().clone(),
            1.31,
            opts.clone(),
        )
        .unwrap();
        let req = EvalRequest {
            id: 7,
            scenario: Arc::new(scenario),
            kind: EvalKind::Verdict,
        };
        let decoded = decode_request(&encode_request(&req))
            .unwrap()
            .into_request()
            .unwrap();
        assert_eq!(decoded.scenario.opts(), &opts);
        assert_eq!(decoded.scenario.tau().to_bits(), 1.31f64.to_bits());
    }

    #[test]
    fn semantic_garbage_is_invalid_not_panic() {
        // Well-formed frames whose *contents* are unservable must surface
        // as Err from into_request, not as panics.
        let spec = WorkloadSpec::default();
        let pool = scenario_pool(&spec);
        let good = EvalRequest {
            id: 1,
            scenario: Arc::clone(&pool[0]),
            kind: EvalKind::Verdict,
        };
        let bytes = encode_request(&good);
        let mut payload = decode_request(&bytes).unwrap();
        payload.tau = f64::NAN;
        assert!(payload.clone().into_request().is_err());
        payload.tau = 1.2;
        payload.assignment[0] = usize::MAX;
        assert!(payload.clone().into_request().is_err());
        payload.assignment[0] = 0;
        // A bad entry names its (app, machine) in row-major order: the
        // `Invalid` text on the wire.
        let machines = good.scenario.etc().machines();
        payload.etc_values[2 * machines + 3] = -3.0;
        assert_eq!(
            payload.into_request().unwrap_err(),
            "ETC(2,3) = -3 must be positive and finite"
        );
    }

    #[test]
    fn response_roundtrip_is_bitwise() {
        let resp = EvalResponse {
            id: 99,
            shard: 3,
            cache: Some(CacheOutcome::Coalesced),
            attempts: 2,
            disposition: Disposition::Brownout,
            verdicts: vec![
                PlanVerdict {
                    radii: vec![
                        RadiusVerdict::Exact(RadiusResult {
                            radius: 1.5,
                            boundary_point: Some(VecN::new(vec![1.0, -0.0, f64::NAN])),
                            bound: Some(Bound::Max),
                            violated: false,
                            method: RadiusMethod::Analytic,
                            iterations: 0,
                            f_evals: 1,
                        }),
                        RadiusVerdict::Bounded {
                            lo: 0.25,
                            hi: f64::INFINITY,
                            reason: DegradeReason::BudgetExhausted,
                            restarts: 4,
                        },
                        RadiusVerdict::Infeasible,
                        RadiusVerdict::Failed(FailReason::Panic("chaos: injected".into())),
                    ],
                    metric_lo: 0.0,
                    metric_hi: 1.5,
                    binding: Some(0),
                    kind: VerdictKind::Failed,
                },
                PlanVerdict {
                    radii: vec![],
                    metric_lo: f64::INFINITY,
                    metric_hi: f64::INFINITY,
                    binding: None,
                    kind: VerdictKind::Exact,
                },
            ],
            curve: None,
        };
        let bytes = encode_response(&resp);
        let decoded = decode_response(&bytes).unwrap();
        // Re-encoding the decoded response must reproduce the bytes exactly:
        // the encoding is canonical, so byte equality IS bitwise equality.
        assert_eq!(encode_response(&decoded), bytes);
        assert_eq!(decoded.id, resp.id);
        assert_eq!(decoded.disposition, Disposition::Brownout);
        assert_eq!(decoded.verdicts.len(), 2);
        assert!(decoded.verdicts[0].radii.len() == 4);
    }

    #[test]
    fn curve_request_roundtrips_both_grid_kinds() {
        let spec = WorkloadSpec::default();
        let pool = scenario_pool(&spec);
        let grids = [
            CurveGrid::Explicit(vec![1.05, 1.2, 1.4, 2.0]),
            CurveGrid::Adaptive {
                tau_lo: 1.01,
                tau_hi: 1.75,
                max_depth: 5,
                rho_resolution: 1e-4,
            },
        ];
        for grid in grids {
            let req = EvalRequest {
                id: 12,
                scenario: Arc::clone(&pool[0]),
                kind: EvalKind::Curve(CurveSpec { grid: grid.clone() }),
            };
            let bytes = encode_request(&req);
            let decoded = decode_request(&bytes).unwrap().into_request().unwrap();
            match &decoded.kind {
                EvalKind::Curve(s) => assert_eq!(s.grid, grid),
                other => panic!("curve kind drifted over the wire: {other:?}"),
            }
            // Canonical: re-encoding the decoded request reproduces the bytes.
            assert_eq!(encode_request(&decoded), bytes);
        }
    }

    #[test]
    fn curve_response_meta_roundtrips_bitwise() {
        let resp = EvalResponse {
            id: 13,
            shard: 1,
            cache: Some(CacheOutcome::Hit),
            attempts: 1,
            disposition: Disposition::Full,
            verdicts: vec![PlanVerdict {
                radii: vec![],
                metric_lo: 2.5,
                metric_hi: 2.5,
                binding: Some(1),
                kind: VerdictKind::Exact,
            }],
            curve: Some(CurveMeta {
                taus: vec![1.05, 1.2, f64::INFINITY],
                monotone: true,
            }),
        };
        let bytes = encode_response(&resp);
        let decoded = decode_response(&bytes).unwrap();
        assert_eq!(encode_response(&decoded), bytes);
        assert_eq!(decoded.curve, resp.curve);

        // A hostile tau count fails typed before allocation: the count sits
        // right after the curve presence byte (second-to-last 9 bytes are
        // count, last is the monotone flag).
        let mut m = bytes.clone();
        let count_pos = m.len() - 1 - 3 * 8 - 8;
        m[count_pos..count_pos + 8].copy_from_slice(&(1u64 << 60).to_le_bytes());
        assert!(matches!(
            decode_response(&m),
            Err(DecodeError::BadLength { .. })
        ));
    }

    #[test]
    fn empty_kind_bodies_are_invalid_not_empty_responses() {
        // A well-formed frame carrying zero origins / zero moves / a bad
        // curve spec must surface as Err from into_request, never as a
        // servable request that would produce an empty verdict list.
        let spec = WorkloadSpec::default();
        let pool = scenario_pool(&spec);
        for kind in [
            EvalKind::Origins(vec![]),
            EvalKind::Moves(vec![]),
            EvalKind::Curve(CurveSpec {
                grid: CurveGrid::Explicit(vec![]),
            }),
            EvalKind::Curve(CurveSpec {
                grid: CurveGrid::Explicit(vec![1.4, 1.2]),
            }),
        ] {
            let req = EvalRequest {
                id: 3,
                scenario: Arc::clone(&pool[0]),
                kind,
            };
            let payload = decode_request(&encode_request(&req)).unwrap();
            assert!(payload.into_request().is_err());
        }
    }

    #[test]
    fn request_deadline_roundtrips() {
        let spec = WorkloadSpec::default();
        let pool = scenario_pool(&spec);
        let req = EvalRequest {
            id: 5,
            scenario: Arc::clone(&pool[0]),
            kind: EvalKind::Verdict,
        };
        let bytes = encode_request_with_deadline(&req, 2_500);
        let payload = decode_request(&bytes).unwrap();
        assert_eq!(payload.deadline_us, 2_500);
        // The no-deadline encoder is exactly deadline 0.
        assert_eq!(encode_request(&req), encode_request_with_deadline(&req, 0));
        assert_eq!(
            decode_request(&encode_request(&req)).unwrap().deadline_us,
            0
        );
    }

    #[test]
    fn error_roundtrip() {
        for err in [
            WireError::Overloaded {
                shard: 2,
                reason: ShedReason::QueueFull,
            },
            WireError::Overloaded {
                shard: 0,
                reason: ShedReason::ShuttingDown,
            },
            WireError::Invalid("move 3 out of range".into()),
        ] {
            let bytes = encode_error(41, &err);
            assert_eq!(decode_error(&bytes).unwrap(), (41, err));
        }
    }

    #[test]
    fn stats_roundtrip_and_hostile_count() {
        let reply = StatsReply {
            id: 31,
            shards: vec![
                ShardStatsSnapshot {
                    submitted: 10,
                    completed: 9,
                    shed_full: 1,
                    shed_shutdown: 0,
                    cache_hits: 7,
                    cache_misses: 2,
                    cache_coalesced: 1,
                    worker_panics: 3,
                    busy_ns: 123_456_789,
                    deadline_expired: 6,
                    brownout_evals: 4,
                },
                ShardStatsSnapshot::default(),
            ],
            net: NetStatsSnapshot {
                connections: 4,
                frames_read: 100,
                frames_written: 99,
                decode_errors: 1,
                overloaded: 2,
                invalid: 0,
                chaos_drops: 5,
                max_pipeline_depth: 17,
                admission_brownout: 8,
                admission_shed: 3,
            },
        };
        let bytes = encode_stats_reply(&reply);
        assert_eq!(decode_stats_reply(&bytes).unwrap(), reply);
        assert_eq!(decode_stats_request(&encode_stats_request(31)).unwrap(), 31);

        // A hostile shard count fails typed before any allocation.
        let mut m = bytes.clone();
        m[8..16].copy_from_slice(&(1u64 << 60).to_le_bytes());
        assert!(matches!(
            decode_stats_reply(&m),
            Err(DecodeError::BadLength { .. })
        ));
        // Truncation anywhere is typed, never a panic.
        for cut in 0..bytes.len() {
            assert!(decode_stats_reply(&bytes[..cut]).is_err());
        }
    }

    fn sample_job_spec() -> JobSpec {
        let spec = WorkloadSpec::default();
        let pool = scenario_pool(&spec);
        JobSpec {
            etc: Arc::clone(pool[0].etc()),
            tau: 1.2,
            seed: 42,
            population: 16,
            batches: 4,
            heuristics: vec![
                JobHeuristic::RobustGreedy,
                JobHeuristic::Annealing {
                    iterations: 200,
                    initial_temperature: 0.1,
                    cooling: 0.995,
                },
                JobHeuristic::Tabu {
                    iterations: 5,
                    tabu_len: 16,
                },
                JobHeuristic::Genetic {
                    population: 8,
                    generations: 3,
                    mutation_rate: 0.05,
                },
            ],
            threads: 2,
        }
    }

    #[test]
    fn submit_job_roundtrips_bitwise() {
        let spec = sample_job_spec();
        let bytes = encode_submit_job(9, &spec);
        let payload = decode_submit_job(&bytes).unwrap();
        assert_eq!(payload.id, 9);
        let decoded = payload.into_spec().unwrap();
        assert_eq!(decoded.heuristics, spec.heuristics);
        assert_eq!(decoded.seed, spec.seed);
        assert_eq!(decoded.population, spec.population);
        assert_eq!(decoded.batches, spec.batches);
        assert_eq!(decoded.threads, spec.threads);
        assert_eq!(decoded.tau.to_bits(), spec.tau.to_bits());
        // Canonical: re-encoding the decoded spec reproduces the bytes, so
        // the ETC survived bit-for-bit.
        assert_eq!(encode_submit_job(9, &decoded), bytes);
    }

    #[test]
    fn submit_job_semantic_garbage_is_err_not_panic() {
        let spec = sample_job_spec();
        let bytes = encode_submit_job(1, &spec);
        // τ below 1 is a well-formed frame but an inadmissible job.
        let mut bad = spec.clone();
        bad.tau = 0.5;
        let payload = decode_submit_job(&encode_submit_job(1, &bad)).unwrap();
        assert!(payload.into_spec().is_err());
        // batches > population likewise.
        let mut bad = spec.clone();
        bad.batches = bad.population + 1;
        let payload = decode_submit_job(&encode_submit_job(1, &bad)).unwrap();
        assert!(payload.into_spec().is_err());
        // A non-finite ETC entry is named like a request's.
        let mut payload = decode_submit_job(&bytes).unwrap();
        payload.etc_values[spec.etc.machines() + 1] = f64::NAN;
        assert_eq!(
            payload.into_spec().unwrap_err(),
            "ETC(1,1) = NaN must be positive and finite"
        );
        // Truncation anywhere is typed.
        for cut in 0..bytes.len() {
            assert!(decode_submit_job(&bytes[..cut]).is_err());
        }
        // An unknown heuristic tag is typed.
        let mut spec_one = spec.clone();
        spec_one.heuristics = vec![JobHeuristic::RobustGreedy];
        let mut m = encode_submit_job(1, &spec_one);
        let last = m.len() - 1;
        m[last] = 99;
        assert!(matches!(
            decode_submit_job(&m),
            Err(DecodeError::BadTag { .. })
        ));
    }

    #[test]
    fn job_poll_and_cancel_roundtrip() {
        assert_eq!(decode_job_poll(&encode_job_poll(3, 17)).unwrap(), (3, 17));
        assert_eq!(
            decode_job_cancel(&encode_job_cancel(4, 18)).unwrap(),
            (4, 18)
        );
        assert!(decode_job_poll(&encode_job_poll(3, 17)[..9]).is_err());
    }

    #[test]
    fn job_reply_roundtrips_bitwise_and_rejects_hostile_counts() {
        let reply = JobReply {
            id: 77,
            snapshot: JobSnapshot {
                job: 5,
                state: JobState::Running,
                error: None,
                batches_done: 2,
                batches_total: 4,
                candidates_done: 8,
                candidates_total: 16,
                evals_done: 1234,
                evals_total: 5000,
                front: vec![
                    fepia_mapping::FrontPoint {
                        index: 3,
                        makespan: 10.5,
                        metric: f64::NAN,
                        heuristic: "annealing".into(),
                        assignment: vec![0, 1, 2, 1],
                    },
                    fepia_mapping::FrontPoint {
                        index: 7,
                        makespan: 12.0,
                        metric: 2.5,
                        heuristic: "robust_greedy".into(),
                        assignment: vec![2, 2, 0, 1],
                    },
                ],
            },
        };
        let bytes = encode_job_reply(&reply);
        let decoded = decode_job_reply(&bytes).unwrap();
        // Canonical encoding: byte equality IS bitwise equality (covers
        // the NaN metric above).
        assert_eq!(encode_job_reply(&decoded), bytes);
        assert_eq!(decoded.id, 77);
        assert_eq!(decoded.snapshot.state, JobState::Running);
        assert_eq!(decoded.snapshot.front.len(), 2);

        // A Failed reply carries its error string.
        let failed = JobReply {
            id: 1,
            snapshot: JobSnapshot {
                state: JobState::Failed,
                error: Some("candidate 3 panicked".into()),
                front: Vec::new(),
                ..reply.snapshot.clone()
            },
        };
        let decoded = decode_job_reply(&encode_job_reply(&failed)).unwrap();
        assert_eq!(
            decoded.snapshot.error.as_deref(),
            Some("candidate 3 panicked")
        );

        // Hostile front count fails typed before allocation: the count is
        // the 8 bytes right before the first point.
        let mut m = bytes.clone();
        let first_point = m.len()
            - 2 * (8 + 8 + 8)
            - (8 + "annealing".len())
            - (8 + "robust_greedy".len())
            - 2 * (8 + 4 * 8);
        m[first_point - 8..first_point].copy_from_slice(&(1u64 << 60).to_le_bytes());
        assert!(matches!(
            decode_job_reply(&m),
            Err(DecodeError::BadLength { .. })
        ));
        // Truncation anywhere is typed, never a panic.
        for cut in 0..bytes.len() {
            assert!(decode_job_reply(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn hostile_lengths_rejected_before_allocation() {
        // A request payload claiming 2^60 origins must fail fast with a
        // typed error, not attempt the allocation.
        let spec = WorkloadSpec::default();
        let pool = scenario_pool(&spec);
        let req = EvalRequest {
            id: 1,
            scenario: Arc::clone(&pool[0]),
            kind: EvalKind::Origins(vec![VecN::zeros(20)]),
        };
        let mut bytes = encode_request(&req);
        // The origins count sits right after the kind tag; find the tag.
        let tag_pos = bytes.len() - (8 + 8 + 20 * 8) - 1;
        assert_eq!(bytes[tag_pos], KIND_ORIGINS);
        bytes[tag_pos + 1..tag_pos + 9].copy_from_slice(&(1u64 << 60).to_le_bytes());
        assert!(matches!(
            decode_request(&bytes),
            Err(DecodeError::BadLength { .. })
        ));
    }
}
