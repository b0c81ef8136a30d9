//! Deterministic request workloads and response digests.
//!
//! The soak, equivalence and bench harnesses all need the same thing: a
//! seeded stream of requests over a fixed scenario pool, reproducible
//! bit-for-bit regardless of thread count or submission order. Every
//! request is derived purely from `(seed, index)` via
//! [`fepia_stats::rng_for`], so request `i` is the same object no matter
//! which client thread generates it — the foundation of the
//! bitwise-reproducible soak aggregate.
//!
//! [`response_digest`] folds a response into a 64-bit FNV-1a digest over
//! the bits that must be deterministic (id, verdict kinds, metric interval
//! bits, binding feature). Per-request digests are combined across threads
//! with [`combine_digests`] (wrapping addition — order-independent, so the
//! aggregate doesn't depend on scheduling).

use crate::scenario::Scenario;
use crate::service::{EvalKind, EvalRequest, EvalResponse};
use fepia_core::{PlanVerdict, RadiusOptions, RadiusVerdict, VerdictKind};
use fepia_etc::{generate_cvb, EtcParams};
use fepia_mapping::Mapping;
use fepia_obs::hash::Fnv1a;
use fepia_optim::VecN;
use fepia_stats::rng_for;
use rand::Rng;
use std::sync::Arc;

/// Shape of a generated workload.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// Master seed; every request derives from `(seed, index)`.
    pub seed: u64,
    /// Number of distinct scenarios in the pool.
    pub scenarios: usize,
    /// Applications per scenario.
    pub apps: usize,
    /// Machines per scenario.
    pub machines: usize,
    /// Moves per `Moves` request.
    pub moves_per_request: usize,
    /// Origins per `Origins` request.
    pub origins_per_request: usize,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            seed: 2003,
            scenarios: 8,
            apps: 20,
            machines: 5,
            moves_per_request: 4,
            origins_per_request: 2,
        }
    }
}

impl WorkloadSpec {
    fn etc_params(&self) -> EtcParams {
        // The paper's §4.2 heterogeneity (mean 10, 0.7/0.7) at the
        // spec's dimensions.
        EtcParams {
            apps: self.apps,
            machines: self.machines,
            mean: 10.0,
            task_heterogeneity: 0.7,
            machine_heterogeneity: 0.7,
        }
    }
}

/// Builds the deterministic scenario pool for `spec`. Scenario `s` is a
/// pure function of `(spec.seed, s)`: CVB-generated ETC, random mapping,
/// τ cycling over four values, default radius options.
pub fn scenario_pool(spec: &WorkloadSpec) -> Vec<Arc<Scenario>> {
    (0..spec.scenarios)
        .map(|s| {
            let etc = Arc::new(generate_cvb(
                &mut rng_for(spec.seed, 1_000_000 + s as u64),
                &spec.etc_params(),
            ));
            let mapping = Mapping::random(
                &mut rng_for(spec.seed, 2_000_000 + s as u64),
                spec.apps,
                spec.machines,
            );
            let tau = 1.1 + 0.05 * (s % 4) as f64;
            Arc::new(
                Scenario::new(etc, mapping, tau, RadiusOptions::default())
                    .expect("generated scenarios are always valid"),
            )
        })
        .collect()
}

/// The `index`-th request of the mixed workload: 60% `Moves`, 30%
/// `Verdict`, 10% `Origins`, scenario drawn uniformly from the pool.
/// Deterministic in `(spec.seed, index)`.
pub fn request(spec: &WorkloadSpec, pool: &[Arc<Scenario>], index: u64) -> EvalRequest {
    let mut rng = rng_for(spec.seed, index);
    let scenario = Arc::clone(&pool[rng.gen_range(0..pool.len())]);
    let roll: u32 = rng.gen_range(0..10);
    let kind = if roll < 6 {
        moves_kind(spec, &scenario, &mut rng)
    } else if roll < 9 {
        EvalKind::Verdict
    } else {
        origins_kind(spec, &scenario, &mut rng)
    };
    EvalRequest {
        id: index,
        scenario,
        kind,
    }
}

/// The `index`-th request of the moves-only workload (the chaos soak uses
/// this: every response stays `Exact` because the `DeltaEval` path
/// self-heals poisoned state from the ETC ground truth).
pub fn moves_request(spec: &WorkloadSpec, pool: &[Arc<Scenario>], index: u64) -> EvalRequest {
    let mut rng = rng_for(spec.seed, index);
    let scenario = Arc::clone(&pool[rng.gen_range(0..pool.len())]);
    let kind = moves_kind(spec, &scenario, &mut rng);
    EvalRequest {
        id: index,
        scenario,
        kind,
    }
}

fn moves_kind(spec: &WorkloadSpec, scenario: &Arc<Scenario>, rng: &mut impl Rng) -> EvalKind {
    let apps = scenario.mapping().apps();
    let machines = scenario.mapping().machines();
    EvalKind::Moves(
        (0..spec.moves_per_request)
            .map(|_| (rng.gen_range(0..apps), rng.gen_range(0..machines)))
            .collect(),
    )
}

fn origins_kind(spec: &WorkloadSpec, scenario: &Arc<Scenario>, rng: &mut impl Rng) -> EvalKind {
    // Multiplicative jitter around C_orig: stays positive and finite, so
    // affine features keep their exact analytic path.
    let base = scenario.mapping().assigned_times(scenario.etc());
    EvalKind::Origins(
        (0..spec.origins_per_request)
            .map(|_| {
                VecN::new(
                    base.iter()
                        .map(|&c| c * (0.9 + 0.2 * rng.gen::<f64>()))
                        .collect(),
                )
            })
            .collect(),
    )
}

/// 64-bit FNV-1a digest of the deterministic content of a response: id,
/// verdict count, then per verdict its kind, metric interval bits and
/// binding index.
pub fn response_digest(resp: &EvalResponse) -> u64 {
    let mut h = Fnv1a::new();
    h.u64(resp.id);
    h.u64(resp.verdicts.len() as u64);
    for v in &resp.verdicts {
        h.u64(match v.kind {
            VerdictKind::Exact => 1,
            VerdictKind::Bounded => 2,
            VerdictKind::Infeasible => 3,
            VerdictKind::Failed => 4,
        });
        h.u64(v.metric_lo.to_bits());
        h.u64(v.metric_hi.to_bits());
        h.u64(v.binding.map_or(u64::MAX, |b| b as u64));
    }
    h.finish()
}

/// Order-independent combination of per-request digests (wrapping sum), so
/// the aggregate is identical however requests interleave across client
/// threads.
pub fn combine_digests(digests: impl IntoIterator<Item = u64>) -> u64 {
    digests.into_iter().fold(0u64, |acc, d| acc.wrapping_add(d))
}

/// Deep *bitwise* equality over verdict lists: every `f64` compared via
/// `to_bits` (so NaNs must match and `-0.0 != 0.0`), every enum variant and
/// diagnostic field compared exactly, radii included. This is the standard
/// the net-equivalence tests hold TCP-served responses to — stricter than
/// any derived `PartialEq` (which would treat NaN as unequal to itself and
/// signed zeros as equal).
pub fn verdicts_bitwise_equal(a: &[PlanVerdict], b: &[PlanVerdict]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| verdict_bitwise_equal(x, y))
}

fn verdict_bitwise_equal(a: &PlanVerdict, b: &PlanVerdict) -> bool {
    a.kind == b.kind
        && a.metric_lo.to_bits() == b.metric_lo.to_bits()
        && a.metric_hi.to_bits() == b.metric_hi.to_bits()
        && a.binding == b.binding
        && a.radii.len() == b.radii.len()
        && a.radii
            .iter()
            .zip(&b.radii)
            .all(|(x, y)| radius_bitwise_equal(x, y))
}

fn radius_bitwise_equal(a: &RadiusVerdict, b: &RadiusVerdict) -> bool {
    match (a, b) {
        (RadiusVerdict::Exact(x), RadiusVerdict::Exact(y)) => {
            x.radius.to_bits() == y.radius.to_bits()
                && x.bound == y.bound
                && x.violated == y.violated
                && x.method == y.method
                && x.iterations == y.iterations
                && x.f_evals == y.f_evals
                && match (&x.boundary_point, &y.boundary_point) {
                    (None, None) => true,
                    (Some(p), Some(q)) => {
                        p.dim() == q.dim()
                            && p.as_slice()
                                .iter()
                                .zip(q.as_slice())
                                .all(|(u, v)| u.to_bits() == v.to_bits())
                    }
                    _ => false,
                }
        }
        (
            RadiusVerdict::Bounded {
                lo: alo,
                hi: ahi,
                reason: ar,
                restarts: an,
            },
            RadiusVerdict::Bounded {
                lo: blo,
                hi: bhi,
                reason: br,
                restarts: bn,
            },
        ) => {
            alo.to_bits() == blo.to_bits() && ahi.to_bits() == bhi.to_bits() && ar == br && an == bn
        }
        (RadiusVerdict::Infeasible, RadiusVerdict::Infeasible) => true,
        (RadiusVerdict::Failed(x), RadiusVerdict::Failed(y)) => x == y,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_are_deterministic_in_seed_and_index() {
        let spec = WorkloadSpec::default();
        let pool = scenario_pool(&spec);
        for index in [0u64, 1, 17, 999] {
            let a = request(&spec, &pool, index);
            let b = request(&spec, &pool, index);
            assert_eq!(a.id, b.id);
            assert!(a.scenario.same_as(&b.scenario));
            match (&a.kind, &b.kind) {
                (EvalKind::Verdict, EvalKind::Verdict) => {}
                (EvalKind::Moves(x), EvalKind::Moves(y)) => assert_eq!(x, y),
                (EvalKind::Origins(x), EvalKind::Origins(y)) => {
                    assert_eq!(x.len(), y.len());
                    for (ox, oy) in x.iter().zip(y) {
                        for i in 0..ox.dim() {
                            assert_eq!(ox[i].to_bits(), oy[i].to_bits());
                        }
                    }
                }
                other => panic!("kind mismatch: {other:?}"),
            }
        }
    }

    #[test]
    fn workload_mixes_kinds() {
        let spec = WorkloadSpec::default();
        let pool = scenario_pool(&spec);
        let (mut moves, mut verdicts, mut origins) = (0, 0, 0);
        for index in 0..200 {
            match request(&spec, &pool, index).kind {
                EvalKind::Moves(_) => moves += 1,
                EvalKind::Verdict => verdicts += 1,
                EvalKind::Origins(_) => origins += 1,
                EvalKind::Curve(_) => unreachable!("workload generator emits no curve requests"),
            }
        }
        assert!(moves > 0 && verdicts > 0 && origins > 0);
        for index in 0..50 {
            assert!(matches!(
                moves_request(&spec, &pool, index).kind,
                EvalKind::Moves(_)
            ));
        }
    }

    #[test]
    fn combine_is_order_independent() {
        let digests = [3u64, 99, u64::MAX, 7];
        let forward = combine_digests(digests);
        let backward = combine_digests(digests.into_iter().rev());
        assert_eq!(forward, backward);
    }
}
