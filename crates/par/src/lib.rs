//! `fepia-par` — deterministic parallelism substrate.
//!
//! The paper's experiments evaluate 1000 random mappings per system; each
//! evaluation is independent, so the sweeps are embarrassingly parallel.
//! This crate provides the small amount of machinery the harness needs,
//! built directly on `std::thread::scope` (no global thread pool, no
//! work-stealing runtime — the work units are coarse):
//!
//! * [`par_map`] — static chunking; lowest overhead when work items are
//!   uniform (e.g. makespan evaluation).
//! * [`par_map_dynamic`] — an atomic work queue; better when item cost is
//!   skewed (e.g. the numeric robustness solver converges in a varying
//!   number of iterations).
//!
//! Both are **deterministic**: results are returned in input order and each
//! closure receives its item index, so callers that derive per-item RNGs
//! (see `fepia_stats::rng_for`) get bitwise-identical results for any thread
//! count, including 1.
//!
//! # Observability
//!
//! When `fepia-obs` is enabled, the drivers record per-worker items
//! processed, busy vs. idle nanoseconds, and collect-lock contention into
//! the global metrics registry (`par.*`). Instrumentation only observes —
//! results are bitwise identical whether or not it is on.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Configuration for the parallel drivers.
#[derive(Clone, Copy, Debug)]
pub struct ParConfig {
    /// Worker threads; `None` uses [`std::thread::available_parallelism`].
    pub threads: Option<usize>,
    /// Below this many items, run sequentially (thread spawn not worth it).
    pub sequential_below: usize,
}

impl Default for ParConfig {
    fn default() -> Self {
        ParConfig {
            threads: None,
            sequential_below: 32,
        }
    }
}

impl ParConfig {
    /// A config pinned to exactly `n` threads.
    pub fn with_threads(n: usize) -> Self {
        assert!(n > 0, "thread count must be positive");
        ParConfig {
            threads: Some(n),
            sequential_below: 0,
        }
    }

    fn effective_threads(&self, items: usize) -> usize {
        let hw = self
            .threads
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        hw.max(1).min(items.max(1))
    }
}

/// Per-worker accounting, recorded into the global registry when obs is on.
struct WorkerStats {
    observe: bool,
    items: u64,
    busy_ns: f64,
    started: Option<Instant>,
}

impl WorkerStats {
    fn begin(observe: bool) -> Self {
        WorkerStats {
            observe,
            items: 0,
            busy_ns: 0.0,
            started: observe.then(Instant::now),
        }
    }

    /// Times one work item; `run` is always executed, timing is optional.
    fn item<U>(&mut self, run: impl FnOnce() -> U) -> U {
        self.items += 1;
        if self.observe {
            let t0 = Instant::now();
            let out = run();
            self.busy_ns += t0.elapsed().as_nanos() as f64;
            out
        } else {
            run()
        }
    }

    /// Flushes this worker's tallies (`driver` is `"static"`/`"dynamic"`).
    fn finish(self, driver: &str) {
        if let Some(started) = self.started {
            let wall_ns = started.elapsed().as_nanos() as f64;
            let reg = fepia_obs::global();
            reg.counter(&format!("par.{driver}.items")).add(self.items);
            reg.histogram(&format!("par.{driver}.items_per_worker"))
                .record(self.items as f64);
            reg.histogram(&format!("par.{driver}.worker.busy_ns"))
                .record(self.busy_ns);
            reg.histogram(&format!("par.{driver}.worker.idle_ns"))
                .record((wall_ns - self.busy_ns).max(0.0));
        }
    }
}

/// Applies `f(index, &item)` to every item, in parallel, returning results in
/// input order. Static contiguous chunking.
///
/// Panics in `f` propagate to the caller (via `std::thread::scope`).
pub fn par_map<T, U, F>(items: &[T], cfg: &ParConfig, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = cfg.effective_threads(n);
    if threads == 1 || n < cfg.sequential_below {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let observe = fepia_obs::enabled();
    let mut out: Vec<Option<U>> = (0..n).map(|_| None).collect();
    let chunk = n.div_ceil(threads);
    std::thread::scope(|s| {
        // Hand each worker a disjoint &mut of the output: safe, lock-free.
        for (w, out_chunk) in out.chunks_mut(chunk).enumerate() {
            let f = &f;
            let base = w * chunk;
            let items = &items[base..base + out_chunk.len()];
            s.spawn(move || {
                let mut stats = WorkerStats::begin(observe);
                for (off, (slot, item)) in out_chunk.iter_mut().zip(items.iter()).enumerate() {
                    *slot = Some(stats.item(|| f(base + off, item)));
                }
                stats.finish("static");
            });
        }
    });
    out.into_iter()
        .map(|v| v.expect("chunk worker skipped a slot"))
        .collect()
}

/// Like [`par_map`], but items are claimed one at a time from an atomic
/// counter, so skewed per-item costs balance across workers. Results are
/// still returned in input order.
pub fn par_map_dynamic<T, U, F>(items: &[T], cfg: &ParConfig, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    par_map_dynamic_with(items, cfg, || (), |(), i, t| f(i, t))
}

/// [`par_map_dynamic`] with per-worker scratch state: `init()` runs once on
/// each worker thread and the resulting state is threaded through every
/// item that worker processes (`f(&mut state, index, &item)`).
///
/// This is the batch driver used by compiled analysis plans: each worker
/// builds one reusable evaluation workspace instead of allocating per item.
/// Determinism is unchanged — results depend only on `(index, item)`, never
/// on which worker ran them, so any state must be pure scratch.
pub fn par_map_dynamic_with<T, U, S, I, F>(items: &[T], cfg: &ParConfig, init: I, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> U + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = cfg.effective_threads(n);
    if threads == 1 || n < cfg.sequential_below {
        let mut state = init();
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| f(&mut state, i, t))
            .collect();
    }

    let observe = fepia_obs::enabled();
    let next = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, U)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|s| {
        for _ in 0..threads {
            let next = &next;
            let collected = &collected;
            let f = &f;
            let init = &init;
            s.spawn(move || {
                let mut stats = WorkerStats::begin(observe);
                let mut state = init();
                let mut local: Vec<(usize, U)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    local.push((i, stats.item(|| f(&mut state, i, &items[i]))));
                }
                // The collect lock is the only shared mutable state; when obs
                // is on, record whether this worker had to wait for it.
                if observe {
                    let t0 = Instant::now();
                    let mut guard = match collected.try_lock() {
                        Ok(g) => g,
                        Err(_) => {
                            fepia_obs::global()
                                .counter("par.dynamic.collect_contended")
                                .inc();
                            collected.lock().expect("collect lock poisoned")
                        }
                    };
                    guard.extend(local);
                    drop(guard);
                    fepia_obs::global()
                        .histogram("par.dynamic.collect_wait_ns")
                        .record(t0.elapsed().as_nanos() as f64);
                } else {
                    collected
                        .lock()
                        .expect("collect lock poisoned")
                        .extend(local);
                }
                stats.finish("dynamic");
            });
        }
    });

    let mut pairs = collected.into_inner().expect("collect lock poisoned");
    pairs.sort_by_key(|(i, _)| *i);
    debug_assert_eq!(pairs.len(), n);
    pairs.into_iter().map(|(_, u)| u).collect()
}

/// Why a task in the catching driver failed after all attempts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TaskError {
    /// The task closure (or an injected fault) panicked on every attempt.
    Panicked {
        /// Attempts consumed (initial run + re-dispatches).
        attempts: usize,
        /// The last panic's message.
        message: String,
    },
}

impl std::fmt::Display for TaskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaskError::Panicked { attempts, message } => {
                write!(f, "task panicked after {attempts} attempts: {message}")
            }
        }
    }
}

impl std::error::Error for TaskError {}

/// Panic-containment policy for [`par_map_dynamic_catch_with`].
#[derive(Clone, Copy, Debug)]
pub struct CatchConfig {
    /// Total attempts per task: the initial run plus bounded re-dispatches
    /// of quarantined (panicked) tasks. `1` disables re-dispatch.
    pub max_attempts: usize,
}

impl Default for CatchConfig {
    fn default() -> Self {
        CatchConfig { max_attempts: 2 }
    }
}

/// The message of a caught panic payload (`&str` or `String`; anything else
/// gets a fixed placeholder).
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Fault-isolating variant of [`par_map_dynamic_with`]: each task runs under
/// `catch_unwind`, so one panicking item (a poisoned input, a buggy impact
/// function, an injected fault) cannot abort the whole sweep.
///
/// A panicked task is **quarantined** instead of retried in place: its
/// worker re-initializes its scratch state (the panic may have left it
/// inconsistent) and moves on, and the quarantined indices are re-dispatched
/// together in up to `catch.max_attempts − 1` follow-up rounds. Tasks that
/// panic on every attempt resolve to [`TaskError::Panicked`] carrying the
/// last panic message; everything else resolves to `Ok`, in input order —
/// the call itself never panics and never hangs.
///
/// Fault-injection hooks: when `fepia-chaos` is enabled, each task may
/// receive an artificial latency spike (`par.task` delay site) or an
/// injected panic (`par.task` panic site) before the real work runs.
/// Disabled, both hooks are one relaxed atomic load.
///
/// When `fepia-obs` is enabled, `par.catch.panics` / `par.catch.redispatched`
/// / `par.catch.failed` count containment activity.
pub fn par_map_dynamic_catch_with<T, U, S, I, F>(
    items: &[T],
    cfg: &ParConfig,
    catch: &CatchConfig,
    init: I,
    f: F,
) -> Vec<Result<U, TaskError>>
where
    T: Sync,
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> U + Sync,
{
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let max_attempts = catch.max_attempts.max(1);
    let observe = fepia_obs::enabled();

    // One guarded execution of task `i` against the given worker state;
    // rebuilds the state after a panic (it may be mid-mutation).
    let run_one = |state: &mut S, i: usize| -> Result<U, String> {
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            fepia_chaos::maybe_delay("par.task");
            fepia_chaos::maybe_panic("par.task");
            f(state, i, &items[i])
        }));
        match attempt {
            Ok(u) => Ok(u),
            Err(payload) => {
                *state = init(); // self-heal: discard possibly-corrupt scratch
                if observe {
                    fepia_obs::global().counter("par.catch.panics").inc();
                }
                Err(panic_message(payload))
            }
        }
    };

    let mut out: Vec<Option<Result<U, TaskError>>> = (0..n).map(|_| None).collect();
    let mut pending: Vec<usize> = (0..n).collect();

    for attempt in 1..=max_attempts {
        if pending.is_empty() {
            break;
        }
        let threads = cfg.effective_threads(pending.len());
        let round: Vec<(usize, Result<U, String>)> =
            if threads == 1 || pending.len() < cfg.sequential_below {
                let mut state = init();
                pending
                    .iter()
                    .map(|&i| (i, run_one(&mut state, i)))
                    .collect()
            } else {
                let next = AtomicUsize::new(0);
                let collected: Mutex<Vec<(usize, Result<U, String>)>> =
                    Mutex::new(Vec::with_capacity(pending.len()));
                let pending_ref = &pending;
                std::thread::scope(|s| {
                    for _ in 0..threads {
                        let next = &next;
                        let collected = &collected;
                        let run_one = &run_one;
                        let init = &init;
                        s.spawn(move || {
                            let mut state = init();
                            let mut local: Vec<(usize, Result<U, String>)> = Vec::new();
                            loop {
                                let k = next.fetch_add(1, Ordering::Relaxed);
                                if k >= pending_ref.len() {
                                    break;
                                }
                                let i = pending_ref[k];
                                local.push((i, run_one(&mut state, i)));
                            }
                            collected
                                .lock()
                                .expect("collect lock poisoned")
                                .extend(local);
                        });
                    }
                });
                collected.into_inner().expect("collect lock poisoned")
            };

        let mut failed: Vec<usize> = Vec::new();
        for (i, res) in round {
            match res {
                Ok(u) => out[i] = Some(Ok(u)),
                Err(message) => {
                    if attempt == max_attempts {
                        out[i] = Some(Err(TaskError::Panicked {
                            attempts: attempt,
                            message,
                        }));
                    } else {
                        failed.push(i);
                    }
                }
            }
        }
        if observe && !failed.is_empty() {
            fepia_obs::global()
                .counter("par.catch.redispatched")
                .add(failed.len() as u64);
        }
        failed.sort_unstable();
        pending = failed;
    }

    if observe {
        let failures = out.iter().filter(|r| matches!(r, Some(Err(_)))).count();
        if failures > 0 {
            fepia_obs::global()
                .counter("par.catch.failed")
                .add(failures as u64);
        }
    }
    out.into_iter()
        .map(|r| r.expect("every task resolved"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input() {
        let out: Vec<i32> = par_map(&[] as &[i32], &ParConfig::default(), |_, x| *x);
        assert!(out.is_empty());
        let out: Vec<i32> = par_map_dynamic(&[] as &[i32], &ParConfig::default(), |_, x| *x);
        assert!(out.is_empty());
    }

    #[test]
    fn matches_sequential_map() {
        let items: Vec<u64> = (0..1_000).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 8] {
            let cfg = ParConfig::with_threads(threads);
            assert_eq!(par_map(&items, &cfg, |_, x| x * x), expect);
            assert_eq!(par_map_dynamic(&items, &cfg, |_, x| x * x), expect);
        }
    }

    #[test]
    fn indices_match_positions() {
        let items = vec![10u64, 20, 30, 40, 50];
        let cfg = ParConfig::with_threads(2);
        let out = par_map(&items, &cfg, |i, x| (i, *x));
        for (pos, (i, x)) in out.iter().enumerate() {
            assert_eq!(pos, *i);
            assert_eq!(items[pos], *x);
        }
    }

    #[test]
    fn deterministic_across_thread_counts() {
        // Per-index "RNG": the result depends only on the index, so any
        // thread count must produce identical output.
        let items: Vec<usize> = (0..777).collect();
        let f = |i: usize, _: &usize| {
            let mut z = i as u64 ^ 0xDEAD_BEEF;
            z = z.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z ^ (z >> 31)
        };
        let seq = par_map(&items, &ParConfig::with_threads(1), f);
        for threads in [2, 4, 7] {
            assert_eq!(par_map(&items, &ParConfig::with_threads(threads), f), seq);
            assert_eq!(
                par_map_dynamic(&items, &ParConfig::with_threads(threads), f),
                seq
            );
        }
    }

    #[test]
    fn dynamic_handles_skewed_costs() {
        // Items near the front are much more expensive; the dynamic queue
        // must still return correct, ordered results.
        let items: Vec<usize> = (0..64).collect();
        let out = par_map_dynamic(&items, &ParConfig::with_threads(4), |i, _| {
            let spins = if i < 4 { 200_000 } else { 10 };
            let mut acc = 0u64;
            for k in 0..spins {
                acc = acc.wrapping_add(k);
            }
            let _ = acc;
            i as u64
        });
        assert_eq!(out, (0..64).map(|i| i as u64).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_fallback_below_threshold() {
        let cfg = ParConfig {
            threads: Some(8),
            sequential_below: 100,
        };
        let items: Vec<i32> = (0..50).collect();
        assert_eq!(
            par_map(&items, &cfg, |_, x| x + 1),
            (1..51).collect::<Vec<_>>()
        );
    }

    #[test]
    fn stateful_drivers_match_sequential_map() {
        // Per-worker scratch state must not leak into results: a reused
        // buffer produces the same output as the stateless drivers for any
        // thread count.
        let items: Vec<u64> = (0..500).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        let init = || Vec::<u64>::new();
        let f = |buf: &mut Vec<u64>, _i: usize, x: &u64| {
            buf.clear();
            buf.push(*x * 3);
            buf[0] + 1
        };
        for threads in [1, 2, 3, 8] {
            let cfg = ParConfig::with_threads(threads);
            assert_eq!(par_map_dynamic_with(&items, &cfg, init, f), expect);
        }
    }

    #[test]
    fn stateful_init_runs_at_most_once_per_worker() {
        use std::sync::atomic::AtomicUsize;
        let items: Vec<usize> = (0..256).collect();
        let inits = AtomicUsize::new(0);
        let out = par_map_dynamic_with(
            &items,
            &ParConfig::with_threads(4),
            || inits.fetch_add(1, Ordering::Relaxed),
            |_, i, _| i,
        );
        assert_eq!(out, items);
        assert!(inits.load(Ordering::Relaxed) <= 4, "state not reused");
    }

    #[test]
    fn instrumented_run_records_worker_metrics() {
        fepia_obs::set_enabled(true);
        let items: Vec<u64> = (0..256).collect();
        let out = par_map_dynamic(&items, &ParConfig::with_threads(4), |_, x| x + 1);
        fepia_obs::set_enabled(false);
        assert_eq!(out, (1..257).collect::<Vec<_>>());
        let snap = fepia_obs::global().snapshot();
        assert!(snap.counter("par.dynamic.items").unwrap_or(0) >= 256);
    }

    #[test]
    fn catch_driver_contains_persistent_panics() {
        let items: Vec<i32> = (0..100).collect();
        for threads in [1, 4] {
            let out = par_map_dynamic_catch_with(
                &items,
                &ParConfig::with_threads(threads),
                &CatchConfig::default(),
                || (),
                |(), i, x| {
                    if i == 57 {
                        panic!("poisoned item {i}");
                    }
                    *x * 2
                },
            );
            assert_eq!(out.len(), 100);
            for (i, r) in out.iter().enumerate() {
                if i == 57 {
                    let Err(TaskError::Panicked { attempts, message }) = r else {
                        panic!("item 57 must fail, got {r:?}");
                    };
                    assert_eq!(*attempts, 2);
                    assert!(message.contains("poisoned item 57"));
                } else {
                    assert_eq!(*r, Ok(items[i] * 2));
                }
            }
        }
    }

    #[test]
    fn catch_driver_redispatch_recovers_transient_panics() {
        // A task that panics only on its first attempt must succeed on
        // re-dispatch.
        use std::sync::atomic::AtomicUsize;
        let items: Vec<usize> = (0..64).collect();
        let tries = AtomicUsize::new(0);
        let out = par_map_dynamic_catch_with(
            &items,
            &ParConfig::with_threads(4),
            &CatchConfig { max_attempts: 3 },
            || (),
            |(), i, x| {
                if i == 13 && tries.fetch_add(1, Ordering::Relaxed) == 0 {
                    panic!("transient");
                }
                *x + 1
            },
        );
        assert_eq!(out[13], Ok(14));
        assert!(out.iter().all(|r| r.is_ok()));
    }

    #[test]
    fn catch_driver_heals_worker_state_after_panic() {
        // The worker scratch must be re-initialized after a panic: a state
        // corrupted mid-task must never leak into later items.
        let items: Vec<usize> = (0..200).collect();
        let out = par_map_dynamic_catch_with(
            &items,
            &ParConfig::with_threads(2),
            &CatchConfig { max_attempts: 1 },
            || 0u64, // healthy state is 0
            |state, i, x| {
                assert_eq!(*state, 0, "corrupt state leaked into item {i}");
                if i == 99 {
                    *state = 777; // corrupt, then die
                    panic!("corrupting panic");
                }
                *x as u64
            },
        );
        assert!(matches!(out[99], Err(TaskError::Panicked { .. })));
        assert_eq!(out.iter().filter(|r| r.is_ok()).count(), 199);
    }

    #[test]
    fn catch_driver_matches_plain_driver_when_nothing_panics() {
        let items: Vec<u64> = (0..300).collect();
        let plain = par_map_dynamic(&items, &ParConfig::with_threads(3), |_, x| x * 7);
        let caught = par_map_dynamic_catch_with(
            &items,
            &ParConfig::with_threads(3),
            &CatchConfig::default(),
            || (),
            |(), _, x| x * 7,
        );
        assert_eq!(
            caught.into_iter().collect::<Result<Vec<_>, _>>().unwrap(),
            plain
        );
    }

    #[test]
    #[should_panic]
    fn worker_panic_propagates() {
        let items: Vec<i32> = (0..100).collect();
        let _ = par_map(&items, &ParConfig::with_threads(4), |i, _| {
            if i == 57 {
                panic!("injected failure");
            }
            i
        });
    }

    #[test]
    #[should_panic(expected = "thread count must be positive")]
    fn zero_threads_rejected() {
        ParConfig::with_threads(0);
    }
}
