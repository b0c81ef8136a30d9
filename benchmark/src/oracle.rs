//! In-process reference evaluation: the `CompiledScenario` call a shard
//! worker makes for each request kind, and bitwise comparison of served
//! responses against it.

use fepia_core::{EvalBudget, PlanVerdict, PlanWorkspace, ResiliencePolicy};
use fepia_net::frame::fnv1a;
use fepia_net::wire::encode_response;
use fepia_serve::{CompiledScenario, CurveMeta, Disposition, EvalKind, EvalRequest, EvalResponse};
use std::collections::HashMap;
use std::sync::Arc;

/// Compiled plans for the scenarios of one pool, keyed by the pool's `Arc`
/// (every generated request shares its scenario with the pool), plus the
/// worker-side workspace the calls need.
pub struct Plans {
    compiled: HashMap<usize, CompiledScenario>,
    ws: PlanWorkspace,
    policy: ResiliencePolicy,
}

impl Plans {
    pub fn new(policy: ResiliencePolicy) -> Plans {
        Plans {
            compiled: HashMap::new(),
            ws: PlanWorkspace::new(),
            policy,
        }
    }

    /// The call a shard worker makes for `req` at full precision.
    pub fn evaluate(&mut self, req: &EvalRequest) -> (Vec<PlanVerdict>, Option<CurveMeta>) {
        let c = self
            .compiled
            .entry(Arc::as_ptr(&req.scenario) as usize)
            .or_insert_with(|| req.scenario.compile().expect("generated scenarios compile"));
        let (ws, policy) = (&mut self.ws, &self.policy);
        let full = EvalBudget::UNLIMITED;
        match &req.kind {
            EvalKind::Verdict => (vec![c.verdict_at_origin_budgeted(ws, policy, full)], None),
            EvalKind::Origins(os) => (c.verdicts_at_budgeted(os, ws, policy, full), None),
            EvalKind::Moves(ms) => (c.move_verdicts(ms), None),
            EvalKind::Curve(spec) => {
                let (v, meta) = c.curve_verdicts(spec, ws, policy, full);
                (v, Some(meta))
            }
        }
    }
}

/// The in-process answer to request `id` as a response, with the routing
/// metadata a served answer may differ in (shard, cache outcome, attempts)
/// at fixed values.
pub fn reference(id: u64, verdicts: Vec<PlanVerdict>, curve: Option<CurveMeta>) -> EvalResponse {
    EvalResponse {
        id,
        shard: 0,
        cache: None,
        verdicts,
        attempts: 1,
        disposition: Disposition::Full,
        curve,
    }
}

/// Bitwise fingerprint of a response: FNV-1a over its wire encoding, which
/// carries every verdict field as IEEE bits, after setting the routing
/// metadata as [`reference`] does.
pub fn response_hash(mut resp: EvalResponse) -> u64 {
    resp.shard = 0;
    resp.cache = None;
    resp.attempts = 1;
    fnv1a(&encode_response(&resp))
}

/// A served response reduced to what the oracle needs, small enough to
/// keep for thousands of responses.
#[derive(Clone, Copy, Debug)]
pub struct Kept {
    id: u64,
    hash: u64,
}

impl Kept {
    pub fn of(resp: EvalResponse) -> Kept {
        Kept {
            id: resp.id,
            hash: response_hash(resp),
        }
    }
}

/// Holds every kept response to the in-process answer for its request,
/// bitwise. `request` rebuilds the request from its id.
pub fn check_kept(
    plans: &mut Plans,
    kept: &[Kept],
    request: impl Fn(u64) -> EvalRequest,
) -> Result<(), String> {
    for k in kept {
        let (verdicts, curve) = plans.evaluate(&request(k.id));
        if response_hash(reference(k.id, verdicts, curve)) != k.hash {
            return Err(format!(
                "response {} is not the Full, bitwise-equal answer of the in-process CompiledScenario call",
                k.id
            ));
        }
    }
    Ok(())
}
