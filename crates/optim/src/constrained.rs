//! Min-norm-to-level-set solver.
//!
//! The paper's Eq. 1 asks for the point on the boundary relationship
//! `f_ij(π) = β` that is closest (Euclidean) to the operating point
//! `π_orig`. For linear `f_ij` the answer is the point-to-hyperplane
//! distance ([`crate::hyperplane::Hyperplane`]); this module solves the
//! general case the paper allows in §3.2 — any convex impact function
//! (`x^p`, `e^{px}`, `x log x`, sums and positive multiples thereof).
//!
//! Algorithm (sequential linearization, valid for convex `f` with the
//! operating point strictly inside the robust region `f(π_orig) < β`):
//!
//! 1. **Seed**: march along the gradient direction at `π_orig` (falling back
//!    to the all-ones and basis directions when the gradient vanishes or the
//!    boundary is unreachable that way) and locate the boundary crossing with
//!    Brent's method.
//! 2. **Refine**: at the current boundary point `x_k`, linearize the boundary
//!    as its tangent hyperplane, project `π_orig` onto it, and pull the
//!    projection back onto the true level set along the local gradient.
//!    Iterate until the distance stabilizes.
//!
//! For linear `f` step 2 is exact after one iteration, so the numeric path
//! degrades gracefully to the analytic one (this is tested).

use crate::error::OptimError;
use crate::gradient::gradient_central;
use crate::root1d::{bracket_upward, brent, RootOptions};
use crate::vector::VecN;
use fepia_obs::hash::splitmix64;
use std::cell::Cell;

/// The problem `min ‖x − origin‖₂  s.t.  f(x) = level`, with
/// `f(origin) < level` expected (the operating point is inside the robust
/// region).
pub struct LevelSetProblem<'a> {
    /// The impact function `f_ij`.
    pub f: &'a dyn Fn(&VecN) -> f64,
    /// Analytic gradient of `f`, if available (otherwise central differences).
    pub grad: Option<&'a dyn Fn(&VecN) -> VecN>,
    /// The assumed operating point `π_orig`.
    pub origin: &'a VecN,
    /// The boundary value `β`.
    pub level: f64,
}

/// Tunables for the solver.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SolverOptions {
    /// Relative convergence tolerance on the radius between refinements.
    pub tol: f64,
    /// Maximum refinement iterations.
    pub max_outer: usize,
    /// Boundary is declared unreachable beyond
    /// `t_max_factor · max(1, ‖origin‖)` along every probe direction.
    pub t_max_factor: f64,
    /// Relative finite-difference step for numeric gradients.
    pub fd_step: f64,
    /// Relative magnitude of the deterministic perturbation applied to the
    /// seed probe directions. `0.0` (the default) probes the canonical
    /// directions exactly — results are bitwise identical to builds before
    /// this knob existed. Resilient restarts raise it so a retry explores a
    /// rotated seed fan instead of replaying the failed one.
    pub seed_jitter: f64,
    /// Options for the 1-D boundary-crossing root solves.
    pub root: RootOptions,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            tol: 1e-9,
            max_outer: 100,
            t_max_factor: 1e12,
            fd_step: 1e-6,
            seed_jitter: 0.0,
            root: RootOptions {
                x_tol: 1e-11,
                f_tol: 1e-10,
                max_iter: 200,
            },
        }
    }
}

/// Solution of a [`LevelSetProblem`].
#[derive(Clone, Debug)]
pub struct LevelSetSolution {
    /// The closest boundary point found — the `π_j*(φ_i)` of the paper's
    /// Fig. 1.
    pub point: VecN,
    /// `‖point − origin‖₂` — the robustness radius contribution of this
    /// boundary.
    pub radius: f64,
    /// Refinement iterations used.
    pub iterations: usize,
    /// Whether the refinement loop reached its tolerance (`false` means the
    /// iteration cap was hit; the best iterate found is still returned).
    pub converged: bool,
    /// True when `f(origin) ≥ level`: the requirement is already violated at
    /// the operating point, so the radius is 0.
    pub already_violating: bool,
    /// Impact-function evaluations consumed, including the probes behind
    /// finite-difference gradients and the 1-D root solves.
    pub f_evals: u64,
    /// Gradient evaluations (analytic calls, or finite-difference
    /// assemblies — each of which additionally costs `2n` `f_evals`).
    pub grad_evals: u64,
}

/// Per-solve tallies, shared by the counting closures below.
#[derive(Default)]
struct SolveCounters {
    f: Cell<u64>,
    grad: Cell<u64>,
    seed_fallbacks: Cell<u64>,
    bracket_failures: Cell<u64>,
}

/// Reusable scratch state for repeated [`min_norm_to_level_set_with`] calls.
///
/// The seed stage probes `2n + 1` fixed directions (the diagonal and ± every
/// axis) that depend only on the problem dimension; the workspace caches
/// them, plus the seed buffer, so a compiled analysis plan can solve the
/// same numeric feature for thousands of origins without rebuilding them.
/// Reusing a workspace never changes results: the probe directions and their
/// order are identical to the ones a fresh solve would construct.
#[derive(Default)]
pub struct SolverWorkspace {
    dim: usize,
    probes: Vec<VecN>,
    seeds: Vec<VecN>,
}

impl SolverWorkspace {
    /// Creates an empty workspace; buffers are grown lazily on first use.
    pub fn new() -> Self {
        SolverWorkspace::default()
    }

    /// (Re)builds the fixed probe directions for dimension `n`.
    fn ensure_dim(&mut self, n: usize) {
        if self.dim == n && !self.probes.is_empty() {
            return;
        }
        self.probes.clear();
        self.probes.reserve(2 * n + 1);
        self.probes.push(VecN::filled(n, 1.0 / (n as f64).sqrt()));
        for i in 0..n {
            self.probes.push(VecN::basis(n, i));
            self.probes.push(-&VecN::basis(n, i));
        }
        self.dim = n;
    }
}

/// Rotates `dir` by a deterministic pseudo-random perturbation of relative
/// magnitude `amount`. The perturbation is a pure function of
/// `(amount bits, probe index, component index)`, so a retry with the same
/// jitter replays the same rotated fan.
fn jitter_dir(dir: &VecN, amount: f64, probe: usize) -> VecN {
    let salt = amount.to_bits() ^ (probe as u64).wrapping_mul(0x2545f4914f6cdd1d);
    let mut v = dir.clone();
    for j in 0..v.dim() {
        let h = splitmix64(salt ^ (j as u64).wrapping_mul(0x9e3779b97f4a7c15));
        let u = (h >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        v[j] += amount * (u - 0.5);
    }
    v.normalized().unwrap_or_else(|| dir.clone())
}

fn eval_grad(p: &LevelSetProblem<'_>, x: &VecN, fd_step: f64) -> VecN {
    match p.grad {
        Some(g) => g(x),
        None => gradient_central(&p.f, x, fd_step),
    }
}

/// Finds `s` such that `f(base + s·dir) = level`, searching away from `base`
/// in the `+dir` sense when inside (`f(base) < level`) and in the `−dir`
/// sense when outside. `dir` need not be normalized.
fn cross_along(
    p: &LevelSetProblem<'_>,
    base: &VecN,
    dir: &VecN,
    scale: f64,
    opts: &SolverOptions,
) -> Result<VecN, OptimError> {
    let h0 = (p.f)(base) - p.level;
    if !h0.is_finite() {
        return Err(OptimError::NonFinite);
    }
    if h0.abs() <= opts.root.f_tol {
        return Ok(base.clone());
    }
    // Walk toward the boundary: along +dir when inside (f < level), along
    // −dir when outside. The sign flip on g keeps g(0) < 0 in both cases,
    // which is what the one-sided bracket expects.
    let sense = if h0 < 0.0 { 1.0 } else { -1.0 };
    let d = dir.scaled(sense);
    let g = |t: f64| sense * ((p.f)(&base.add_scaled(t, &d)) - p.level);
    let (lo, hi) = bracket_upward(g, 1e-3 * scale.max(1.0), opts.t_max_factor * scale, 2.0)?;
    if lo == hi {
        return Ok(base.clone());
    }
    let root = brent(g, lo, hi, opts.root)?;
    Ok(base.add_scaled(root.x, &d))
}

/// Solves `min ‖x − origin‖₂ s.t. f(x) = level`.
///
/// Returns [`OptimError::Unreachable`] when the boundary cannot be reached
/// along any probe direction (the robustness radius is unbounded — callers
/// map this to `+∞`), and [`OptimError::Degenerate`] for a zero-dimensional
/// perturbation.
///
/// When `fepia-obs` is enabled, each solve records evaluation counts,
/// refinement iterations, seed fallbacks, bracket failures and the
/// convergence outcome under `optim.solver.*`, and emits one
/// `solver.solve` event.
pub fn min_norm_to_level_set(
    p: &LevelSetProblem<'_>,
    opts: &SolverOptions,
) -> Result<LevelSetSolution, OptimError> {
    let mut ws = SolverWorkspace::new();
    min_norm_to_level_set_with(p, opts, &mut ws)
}

/// [`min_norm_to_level_set`] with a caller-provided [`SolverWorkspace`].
///
/// Results are bitwise identical to the workspace-free entry point; the
/// workspace only amortizes the per-solve probe-direction and seed-buffer
/// allocations across repeated calls (compiled analysis plans hold one per
/// evaluation context).
pub fn min_norm_to_level_set_with(
    p: &LevelSetProblem<'_>,
    opts: &SolverOptions,
    ws: &mut SolverWorkspace,
) -> Result<LevelSetSolution, OptimError> {
    let _span = fepia_obs::span!("optim.min_norm");
    let counters = SolveCounters::default();
    let result = solve_counted(p, opts, &counters, ws);
    if fepia_obs::enabled() {
        record_solve(&counters, &result);
    }
    result
}

fn record_solve(counters: &SolveCounters, result: &Result<LevelSetSolution, OptimError>) {
    let reg = fepia_obs::global();
    reg.counter("optim.solver.calls").inc();
    reg.counter("optim.solver.f_evals").add(counters.f.get());
    reg.counter("optim.solver.grad_evals")
        .add(counters.grad.get());
    reg.counter("optim.solver.seed_fallbacks")
        .add(counters.seed_fallbacks.get());
    reg.counter("optim.solver.bracket_failures")
        .add(counters.bracket_failures.get());
    let outcome = match result {
        Ok(sol) if sol.already_violating => "already_violating",
        Ok(sol) if sol.converged => "converged",
        Ok(_) => "iteration_cap",
        Err(OptimError::Unreachable) => "unreachable",
        Err(_) => "error",
    };
    reg.counter(&format!("optim.solver.outcome.{outcome}"))
        .inc();
    if let Ok(sol) = result {
        reg.histogram_with("optim.solver.iterations", || {
            fepia_obs::Histogram::exponential(1.0, 2.0, 12)
        })
        .record(sol.iterations as f64);
        fepia_obs::Event::new("solver.solve")
            .field("outcome", outcome)
            .field("radius", sol.radius)
            .field("iterations", sol.iterations)
            .field("f_evals", sol.f_evals)
            .field("grad_evals", sol.grad_evals)
            .emit();
    } else {
        fepia_obs::Event::new("solver.solve")
            .field("outcome", outcome)
            .field("f_evals", counters.f.get())
            .field("grad_evals", counters.grad.get())
            .emit();
    }
}

fn solve_counted(
    outer: &LevelSetProblem<'_>,
    opts: &SolverOptions,
    counters: &SolveCounters,
    ws: &mut SolverWorkspace,
) -> Result<LevelSetSolution, OptimError> {
    // Route every impact-function call through a counting wrapper so the
    // reported `f_evals` covers seeds, root solves and FD gradient probes.
    let f_counting = |x: &VecN| {
        counters.f.set(counters.f.get() + 1);
        (outer.f)(x)
    };
    let inner = LevelSetProblem {
        f: &f_counting,
        grad: outer.grad,
        origin: outer.origin,
        level: outer.level,
    };
    let p = &inner;

    let n = p.origin.dim();
    if n == 0 {
        return Err(OptimError::Degenerate(
            "zero-dimensional perturbation".into(),
        ));
    }
    // Fault injection: pretend the refinement budget ran out before starting.
    // The resilient wrapper re-draws on retry, exercising the recovery path.
    if fepia_chaos::should_fire("optim.nonconvergence") {
        return Err(OptimError::MaxIterations {
            iterations: opts.max_outer,
        });
    }
    let f0 = (p.f)(p.origin);
    if !f0.is_finite() || !p.level.is_finite() {
        return Err(OptimError::NonFinite);
    }
    if f0 >= p.level {
        return Ok(LevelSetSolution {
            point: p.origin.clone(),
            radius: 0.0,
            iterations: 0,
            converged: true,
            already_violating: true,
            f_evals: counters.f.get(),
            grad_evals: counters.grad.get(),
        });
    }

    let scale = p.origin.norm_l2().max(1.0);

    // --- Seed: march to the boundary along candidate directions. ---
    // The descent below is local, so seeds must cover enough of the sphere
    // to reach the global minimum of a convex level set: the gradient
    // direction, the diagonal, and ± every axis. The dimension-only probes
    // (diagonal + axes) come from the workspace; only the gradient direction
    // is problem-specific.
    ws.ensure_dim(n);
    let SolverWorkspace { probes, seeds, .. } = ws;
    counters.grad.set(counters.grad.get() + 1);
    let g0 = eval_grad(p, p.origin, opts.fd_step);
    let grad_dir = g0.normalized();

    seeds.clear();
    for (i, dir) in grad_dir.iter().chain(probes.iter()).enumerate() {
        let jittered;
        let dir = if opts.seed_jitter != 0.0 {
            jittered = jitter_dir(dir, opts.seed_jitter, i);
            &jittered
        } else {
            dir
        };
        match cross_along(p, p.origin, dir, scale, opts) {
            Ok(x) => seeds.push(x),
            Err(OptimError::Unreachable) => {
                counters
                    .seed_fallbacks
                    .set(counters.seed_fallbacks.get() + 1);
                continue;
            }
            Err(e) => return Err(e),
        }
    }
    if seeds.is_empty() {
        return Err(OptimError::Unreachable);
    }
    seeds.sort_by(|a, b| {
        a.distance_l2(p.origin)
            .partial_cmp(&b.distance_l2(p.origin))
            .expect("distance is never NaN")
    });
    // The gradient seed (first candidate) is the best-informed start; keep
    // it plus the closest few crossings as multi-start points.
    seeds.truncate(4);

    // --- Refine: ray descent over directions, from each seed. ---
    // Parametrize boundary points as `origin + t(u)·u` with `u` on the unit
    // sphere; `t(u)` is the (unique, for convex f) boundary crossing along
    // `u`. At a minimum, `u` is aligned with ∇f — so we descend on the
    // sphere: rotate `u` toward the tangential component of ∇f (which
    // strictly decreases `t`), with a backtracking step. Every iterate is
    // feasible by construction and `t` decreases monotonically. The descent
    // is local, hence the multi-start over seeds.

    // Crossing distance along a direction, or None if the boundary is not
    // reachable that way.
    let crossing = |dir: &VecN, hint: f64| -> Result<Option<f64>, OptimError> {
        let g = |s: f64| (p.f)(&p.origin.add_scaled(s, dir)) - p.level;
        match bracket_upward(
            g,
            (0.5 * hint).max(1e-6 * scale),
            opts.t_max_factor * scale,
            2.0,
        ) {
            Ok((lo, hi)) if lo == hi => Ok(Some(0.0)),
            Ok((lo, hi)) => Ok(Some(brent(g, lo, hi, opts.root)?.x)),
            Err(OptimError::Unreachable) => {
                counters
                    .bracket_failures
                    .set(counters.bracket_failures.get() + 1);
                Ok(None)
            }
            Err(e) => Err(e),
        }
    };

    let mut best: Option<(VecN, f64, bool)> = None; // (u, t, converged)
    let mut iterations = 0;
    for x_seed in seeds.iter() {
        let mut t = x_seed.distance_l2(p.origin);
        let Some(mut u) = (x_seed - p.origin).normalized() else {
            // Seed coincides with the origin: zero radius, cannot improve.
            return Ok(LevelSetSolution {
                point: x_seed.clone(),
                radius: 0.0,
                iterations,
                converged: true,
                already_violating: false,
                f_evals: counters.f.get(),
                grad_evals: counters.grad.get(),
            });
        };

        let mut converged = false;
        for _ in 0..opts.max_outer {
            iterations += 1;
            let x = p.origin.add_scaled(t, &u);
            counters.grad.set(counters.grad.get() + 1);
            let g = eval_grad(p, &x, opts.fd_step);
            let gnorm = g.norm_l2();
            if !gnorm.is_finite() {
                return Err(OptimError::NonFinite);
            }
            if gnorm <= 1e-14 {
                converged = true; // flat spot: nothing to align with
                break;
            }
            // Tangential component of the (outward) normal at x.
            let radial = g.dot(&u);
            let w = g.add_scaled(-radial, &u);
            let wnorm = w.norm_l2();
            if wnorm <= 1e-10 * gnorm {
                converged = true; // u aligned with ∇f: first-order optimal
                break;
            }
            // Backtracking rotation toward w (the sense that shrinks t).
            let mut eta = 1.0 / gnorm;
            let mut accepted = false;
            for _ in 0..40 {
                let cand = u.add_scaled(eta, &w);
                let Some(cand) = cand.normalized() else {
                    eta *= 0.5;
                    continue;
                };
                match crossing(&cand, t)? {
                    Some(tc) if tc < t * (1.0 - 1e-15) => {
                        t = tc;
                        u = cand;
                        accepted = true;
                        break;
                    }
                    _ => eta *= 0.5,
                }
            }
            if !accepted {
                // No rotation improves t: numerically optimal.
                converged = true;
                break;
            }
            if t <= opts.tol * scale {
                converged = true; // boundary touches the origin
                break;
            }
        }
        if best.as_ref().is_none_or(|(_, bt, _)| t < *bt) {
            best = Some((u, t, converged));
        }
    }

    let (u, t, converged) = best.expect("at least one seed");
    Ok(LevelSetSolution {
        point: p.origin.add_scaled(t, &u),
        radius: t,
        iterations,
        converged,
        already_violating: false,
        f_evals: counters.f.get(),
        grad_evals: counters.grad.get(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hyperplane::Hyperplane;

    fn solve_simple(
        f: impl Fn(&VecN) -> f64,
        origin: &[f64],
        level: f64,
    ) -> Result<LevelSetSolution, OptimError> {
        let origin = VecN::from(origin);
        let p = LevelSetProblem {
            f: &f,
            grad: None,
            origin: &origin,
            level,
        };
        min_norm_to_level_set(&p, &SolverOptions::default())
    }

    #[test]
    fn linear_matches_hyperplane_distance() {
        // f(x) = 2x + 3y, boundary at 12, origin (1, 1): plane distance.
        let normal = VecN::from([2.0, 3.0]);
        let h = Hyperplane::new(normal.clone(), 12.0).unwrap();
        let origin = VecN::from([1.0, 1.0]);
        let sol = solve_simple(|v: &VecN| 2.0 * v[0] + 3.0 * v[1], &[1.0, 1.0], 12.0).unwrap();
        assert!(
            (sol.radius - h.distance(&origin)).abs() < 1e-7,
            "numeric {} vs analytic {}",
            sol.radius,
            h.distance(&origin)
        );
        assert!(sol.point.distance_l2(&h.project(&origin)) < 1e-5);
    }

    #[test]
    fn sphere_from_center_uses_fallback_direction() {
        // f = x² + y², origin at 0 where ∇f = 0: closest boundary point on the
        // circle of radius √β, distance √β in every direction.
        let sol = solve_simple(|v: &VecN| v.dot(v), &[0.0, 0.0], 4.0).unwrap();
        assert!((sol.radius - 2.0).abs() < 1e-6, "radius {}", sol.radius);
    }

    #[test]
    fn ellipse_finds_nearest_axis_point() {
        // f = x²/4 + y² = 1 from the origin: nearest points (0, ±1), radius 1.
        let sol =
            solve_simple(|v: &VecN| v[0] * v[0] / 4.0 + v[1] * v[1], &[0.1, 0.2], 1.0).unwrap();
        // True distance computed by dense parametric search over the ellipse.
        assert!(
            (sol.radius - 0.7984364).abs() < 1e-3,
            "radius {} (expected distance from (0.1,0.2) to ellipse ≈ 0.7984)",
            sol.radius
        );
    }

    #[test]
    fn exponential_boundary() {
        // f = e^{x+y} = e² ⇒ x + y = 2; from origin distance √2 at (1,1).
        let sol = solve_simple(
            |v: &VecN| (v[0] + v[1]).exp(),
            &[0.0, 0.0],
            std::f64::consts::E * std::f64::consts::E,
        )
        .unwrap();
        assert!(
            (sol.radius - 2f64.sqrt()).abs() < 1e-5,
            "radius {}",
            sol.radius
        );
        assert!((sol.point[0] - 1.0).abs() < 1e-4);
        assert!((sol.point[1] - 1.0).abs() < 1e-4);
    }

    #[test]
    fn xlogx_convex_boundary() {
        // f(x, y) = x log x + y log y on positive orthant, origin (2, 2),
        // boundary level symmetric ⇒ closest point on the diagonal.
        let f = |v: &VecN| {
            let g = |t: f64| if t > 0.0 { t * t.ln() } else { 0.0 };
            g(v[0]) + g(v[1])
        };
        let level = 2.0 * 5.0 * 5f64.ln(); // attained at (5,5)
        let sol = solve_simple(f, &[2.0, 2.0], level).unwrap();
        assert!((sol.point[0] - 5.0).abs() < 1e-3, "{:?}", sol.point);
        assert!((sol.point[1] - 5.0).abs() < 1e-3, "{:?}", sol.point);
        assert!((sol.radius - (2f64.sqrt() * 3.0)).abs() < 1e-3);
    }

    #[test]
    fn unreachable_boundary_is_detected() {
        // f < 1 everywhere, boundary at 2: infinite robustness.
        let sol = solve_simple(|v: &VecN| 1.0 - (-v.dot(v)).exp(), &[0.0, 0.0], 2.0);
        assert_eq!(sol.unwrap_err(), OptimError::Unreachable);
    }

    #[test]
    fn already_violating_returns_zero_radius() {
        let sol = solve_simple(|v: &VecN| v[0], &[5.0], 3.0).unwrap();
        assert!(sol.already_violating);
        assert_eq!(sol.radius, 0.0);
    }

    #[test]
    fn zero_dimension_is_degenerate() {
        let sol = solve_simple(|_: &VecN| 0.0, &[], 1.0);
        assert!(matches!(sol, Err(OptimError::Degenerate(_))));
    }

    #[test]
    fn analytic_gradient_is_used() {
        // Provide an exact gradient; result must match the FD path.
        let f = |v: &VecN| v[0] * v[0] + 2.0 * v[1] * v[1];
        let g = |v: &VecN| VecN::from([2.0 * v[0], 4.0 * v[1]]);
        let origin = VecN::from([0.5, 0.5]);
        let p = LevelSetProblem {
            f: &f,
            grad: Some(&g),
            origin: &origin,
            level: 9.0,
        };
        let with_grad = min_norm_to_level_set(&p, &SolverOptions::default()).unwrap();
        let p2 = LevelSetProblem {
            f: &f,
            grad: None,
            origin: &origin,
            level: 9.0,
        };
        let without = min_norm_to_level_set(&p2, &SolverOptions::default()).unwrap();
        assert!((with_grad.radius - without.radius).abs() < 1e-5);
    }

    #[test]
    fn workspace_reuse_is_bitwise_identical() {
        // A shared workspace across solves of different dimensions must give
        // exactly the results of fresh per-call solves.
        let mut ws = SolverWorkspace::new();
        for dim in [2usize, 3, 2] {
            let origin = VecN::filled(dim, 0.25);
            let f = |v: &VecN| v.dot(v);
            let p = LevelSetProblem {
                f: &f,
                grad: None,
                origin: &origin,
                level: 9.0,
            };
            let fresh = min_norm_to_level_set(&p, &SolverOptions::default()).unwrap();
            let reused =
                min_norm_to_level_set_with(&p, &SolverOptions::default(), &mut ws).unwrap();
            assert_eq!(fresh.radius.to_bits(), reused.radius.to_bits());
            assert_eq!(fresh.point, reused.point);
            assert_eq!(fresh.iterations, reused.iterations);
            assert_eq!(fresh.f_evals, reused.f_evals);
            assert_eq!(fresh.grad_evals, reused.grad_evals);
        }
    }

    mod properties {
        use super::super::*;
        use proptest::prelude::*;

        /// Random positive-definite diagonal quadratic `f(x) = Σ aᵢxᵢ²`
        /// with origin inside the level set.
        fn quad_problem() -> impl Strategy<Value = (Vec<f64>, Vec<f64>, f64)> {
            (
                prop::collection::vec(0.2..5.0f64, 3),
                prop::collection::vec(-2.0..2.0f64, 3),
                5.0..50.0f64,
            )
        }

        proptest! {
            /// Solver output is feasible (on the boundary), consistent
            /// (radius = distance to origin), and optimal up to tolerance
            /// (no sampled boundary direction is closer).
            #[test]
            fn quadratic_level_sets((coeffs, origin, margin) in quad_problem()) {
                let a = coeffs.clone();
                let f = move |v: &VecN| {
                    v.as_slice().iter().zip(a.iter()).map(|(x, c)| c * x * x).sum::<f64>()
                };
                let origin = VecN::new(origin);
                let level = f(&origin) + margin;
                let p = LevelSetProblem { f: &f, grad: None, origin: &origin, level };
                let sol = min_norm_to_level_set(&p, &SolverOptions::default()).unwrap();

                // Feasible…
                prop_assert!((f(&sol.point) - level).abs() < 1e-6 * (1.0 + level.abs()),
                    "boundary residual {}", f(&sol.point) - level);
                // …consistent…
                prop_assert!((sol.point.distance_l2(&origin) - sol.radius).abs() < 1e-9);
                // …and optimal: probe 200 deterministic directions; every
                // boundary crossing must be at distance ≥ radius (within a
                // small relative slack for the crossing root tolerance).
                for k in 0..200u32 {
                    // Low-discrepancy-ish direction from k.
                    let d = VecN::from([
                        (k as f64 * 0.618).sin(),
                        (k as f64 * 0.414).cos(),
                        ((k as f64) * 0.271).sin() - 0.5,
                    ]);
                    let Some(dir) = d.normalized() else { continue };
                    let g = |t: f64| f(&origin.add_scaled(t, &dir)) - level;
                    if let Ok((lo, hi)) = crate::root1d::bracket_upward(g, 0.1, 1e6, 2.0) {
                        if lo == hi { continue; }
                        let root = crate::root1d::brent(g, lo, hi, crate::root1d::RootOptions::default()).unwrap();
                        prop_assert!(root.x >= sol.radius * (1.0 - 1e-4) - 1e-9,
                            "direction {k} crosses at {} < solver radius {}", root.x, sol.radius);
                    }
                }
            }

            /// Monotonicity: raising the level (loosening the requirement)
            /// never shrinks the radius.
            #[test]
            fn radius_monotone_in_level((coeffs, origin, margin) in quad_problem(), extra in 1.0..20.0f64) {
                let a = coeffs.clone();
                let f = move |v: &VecN| {
                    v.as_slice().iter().zip(a.iter()).map(|(x, c)| c * x * x).sum::<f64>()
                };
                let origin = VecN::new(origin);
                let base = f(&origin) + margin;
                let solve = |level: f64| {
                    let p = LevelSetProblem { f: &f, grad: None, origin: &origin, level };
                    min_norm_to_level_set(&p, &SolverOptions::default()).unwrap().radius
                };
                let r1 = solve(base);
                let r2 = solve(base + extra);
                prop_assert!(r2 >= r1 - 1e-6 * (1.0 + r1), "radius shrank: {r1} -> {r2}");
            }
        }
    }

    #[test]
    fn high_dimension_linear() {
        // 20-dimensional linear boundary — the size of the paper's C vector.
        let n = 20;
        let coeffs: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        let c2 = coeffs.clone();
        let f = move |v: &VecN| {
            v.as_slice()
                .iter()
                .zip(coeffs.iter())
                .map(|(x, c)| c * x)
                .sum::<f64>()
        };
        let origin = VecN::filled(n, 1.0);
        let level = 2.0 * f(&origin);
        let p = LevelSetProblem {
            f: &f,
            grad: None,
            origin: &origin,
            level,
        };
        let sol = min_norm_to_level_set(&p, &SolverOptions::default()).unwrap();
        let h = Hyperplane::new(VecN::new(c2), level).unwrap();
        assert!((sol.radius - h.distance(&origin)).abs() < 1e-6);
    }
}
