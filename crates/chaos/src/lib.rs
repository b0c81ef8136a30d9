//! `fepia-chaos`: deterministic, seedable fault injection.
//!
//! The robustness evaluator quantifies how much perturbation a *system*
//! survives; this crate injects perturbation into the *evaluator itself* so
//! its failure handling can be exercised and measured (RESMETRIC's "resilience
//! must be measured under injected disruption" applied inward). Instrumented
//! sites in `optim`, `core`, `par` and `mapping` ask this crate whether to
//! misbehave:
//!
//! * [`poison_f64`] — replace a value with `NaN`, `±∞` or a huge finite
//!   number (cycles deterministically through the four poisons),
//! * [`should_fire`] with site `optim.nonconvergence` — force the solver to
//!   report iteration-cap exhaustion,
//! * [`maybe_panic`] — panic inside a parallel worker task,
//! * [`maybe_delay`] — add a small bounded latency spike,
//! * [`should_fire`] with sites `net.read` / `net.write` — sever a TCP
//!   connection before a request frame is read, or tear a response frame
//!   mid-write (`fepia-net` drives both; clients must recover by
//!   reconnect + retry).
//!
//! # Enabling
//!
//! Everything is off by default. The disabled path of every hook is a single
//! relaxed atomic load — instrumented code must not measurably slow down when
//! injection is off (`benches/chaos_overhead.rs` enforces < 2%). The
//! `FEPIA_CHAOS` environment variable controls startup state:
//!
//! | value            | effect                                      |
//! |------------------|---------------------------------------------|
//! | unset, ``, `0`   | disabled                                    |
//! | `<seed>:<rate>`  | enabled: e.g. `42:0.2` = seed 42, 20% rate  |
//! | `<seed>`         | enabled with the default rate 0.1           |
//!
//! Malformed values disable injection with a warning on stderr rather than
//! aborting the host program.
//!
//! Tests override the environment programmatically with [`set_for_test`] /
//! [`clear`], which also reset the per-site draw counters so a fixed seed
//! replays the same injection schedule.
//!
//! # Determinism
//!
//! Each hook call is a *draw*: the decision is a pure function of
//! `(seed, site, draw index)` via SplitMix64, so a single-threaded run with a
//! fixed seed fires the exact same faults every time. Draw indices are
//! per-site atomic counters; under parallel drivers the *assignment* of draws
//! to tasks depends on scheduling, but the sequence of decisions per site —
//! and therefore the overall fault rate — does not.
//!
//! When `fepia-obs` is enabled, every fired injection bumps a
//! `chaos.injected.<kind>` counter.

use fepia_obs::hash::{fnv1a, splitmix64};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Once;

static ENABLED: AtomicBool = AtomicBool::new(false);
static SEED: AtomicU64 = AtomicU64::new(0);
/// Firing threshold: a draw fires when `splitmix64(..) < THRESHOLD`.
/// `rate` is mapped onto `[0, u64::MAX]` once at configuration time.
static THRESHOLD: AtomicU64 = AtomicU64::new(0);
static INIT: Once = Once::new();

/// Per-site draw counters. Sites are hashed into a fixed slot array; distinct
/// sites sharing a slot simply share a draw sequence, which is still
/// deterministic.
const SITE_SLOTS: usize = 64;
static DRAWS: [AtomicU64; SITE_SLOTS] = [const { AtomicU64::new(0) }; SITE_SLOTS];

/// Default injection rate when `FEPIA_CHAOS=<seed>` gives no `:<rate>` part.
pub const DEFAULT_RATE: f64 = 0.1;

fn rate_to_threshold(rate: f64) -> u64 {
    if rate.is_nan() || rate <= 0.0 {
        return 0;
    }
    if rate >= 1.0 {
        return u64::MAX;
    }
    (rate * (u64::MAX as f64)) as u64
}

fn init_from_env() {
    let var = std::env::var("FEPIA_CHAOS").unwrap_or_default();
    match var.as_str() {
        "" | "0" => {}
        spec => match parse_spec(spec) {
            Ok((seed, rate)) => configure(Some((seed, rate))),
            Err(why) => {
                eprintln!("fepia-chaos: ignoring FEPIA_CHAOS={spec}: {why}; injection disabled");
            }
        },
    }
}

/// Parses `<seed>[:<rate>]`.
fn parse_spec(spec: &str) -> Result<(u64, f64), String> {
    let (seed_part, rate_part) = match spec.split_once(':') {
        Some((s, r)) => (s, Some(r)),
        None => (spec, None),
    };
    let seed: u64 = seed_part
        .trim()
        .parse()
        .map_err(|_| format!("bad seed {seed_part:?} (want u64)"))?;
    let rate = match rate_part {
        None => DEFAULT_RATE,
        Some(r) => {
            let rate: f64 = r
                .trim()
                .parse()
                .map_err(|_| format!("bad rate {r:?} (want float in [0,1])"))?;
            if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
                return Err(format!("rate {rate} outside [0,1]"));
            }
            rate
        }
    };
    Ok((seed, rate))
}

fn configure(cfg: Option<(u64, f64)>) {
    match cfg {
        Some((seed, rate)) => {
            SEED.store(seed, Ordering::Relaxed);
            THRESHOLD.store(rate_to_threshold(rate), Ordering::Relaxed);
            for slot in DRAWS.iter() {
                slot.store(0, Ordering::Relaxed);
            }
            ENABLED.store(true, Ordering::Relaxed);
        }
        None => {
            ENABLED.store(false, Ordering::Relaxed);
            SEED.store(0, Ordering::Relaxed);
            THRESHOLD.store(0, Ordering::Relaxed);
        }
    }
}

/// Whether fault injection is active. The first call reads `FEPIA_CHAOS`;
/// afterwards this is one relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    INIT.call_once(init_from_env);
    ENABLED.load(Ordering::Relaxed)
}

/// The active `(seed, rate)` configuration, or `None` when disabled.
pub fn config() -> Option<(u64, f64)> {
    if !enabled() {
        return None;
    }
    let seed = SEED.load(Ordering::Relaxed);
    let rate = THRESHOLD.load(Ordering::Relaxed) as f64 / u64::MAX as f64;
    Some((seed, rate))
}

/// Programmatically enables injection with the given seed and rate,
/// overriding the environment, and resets all draw counters so the schedule
/// replays from the start. Rate is clamped to `[0, 1]`.
pub fn set_for_test(seed: u64, rate: f64) {
    INIT.call_once(init_from_env);
    configure(Some((seed, rate.clamp(0.0, 1.0))));
}

/// Disables injection (overriding the environment).
pub fn clear() {
    INIT.call_once(init_from_env);
    configure(None);
}

/// One decision draw for `site`: a pure function of `(seed, site, draw
/// index)`. Returns the mixed u64 alongside the fire decision so value
/// hooks ([`poison_f64`], [`maybe_delay`]) can reuse the entropy.
fn draw(site: &str) -> (bool, u64) {
    // FNV-1a over the site name: stable, cheap, good enough to spread
    // sites across slots and decorrelate their decision streams.
    let h = fnv1a(site.as_bytes());
    let idx = DRAWS[(h as usize) % SITE_SLOTS].fetch_add(1, Ordering::Relaxed);
    let mixed = splitmix64(SEED.load(Ordering::Relaxed) ^ h ^ idx.wrapping_mul(0x2545f4914f6cdd1d));
    (mixed < THRESHOLD.load(Ordering::Relaxed), mixed)
}

fn record(kind: &str) {
    if fepia_obs::enabled() {
        fepia_obs::global()
            .counter(&format!("chaos.injected.{kind}"))
            .inc();
    }
}

/// Whether the fault at `site` should fire on this draw. Always `false`
/// (after one relaxed load) when injection is disabled.
#[inline]
pub fn should_fire(site: &str) -> bool {
    if !enabled() {
        return false;
    }
    let (fire, _) = draw(site);
    if fire {
        record(site);
    }
    fire
}

/// Passes `v` through, or — when the draw at `site` fires — replaces it with
/// one of the four poisons (`NaN`, `+∞`, `−∞`, `1e308`), chosen
/// deterministically from the draw's entropy.
#[inline]
pub fn poison_f64(site: &str, v: f64) -> f64 {
    if !enabled() {
        return v;
    }
    let (fire, mixed) = draw(site);
    if !fire {
        return v;
    }
    record("poison");
    match (mixed >> 32) % 4 {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        _ => 1e308,
    }
}

/// Panics with a recognizable message when the draw at `site` fires. Hosts
/// are expected to contain it with `catch_unwind` (see `fepia-par`).
#[inline]
pub fn maybe_panic(site: &str) {
    if !enabled() {
        return;
    }
    let (fire, _) = draw(site);
    if fire {
        record("panic");
        panic!("chaos: injected panic at {site}");
    }
}

/// Sleeps for a small bounded time (≤ ~500µs) when the draw at `site` fires,
/// modelling a latency spike on one worker.
#[inline]
pub fn maybe_delay(site: &str) {
    if !enabled() {
        return;
    }
    let (fire, mixed) = draw(site);
    if fire {
        record("delay");
        let us = 50 + (mixed >> 24) % 450;
        std::thread::sleep(std::time::Duration::from_micros(us));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// `set_for_test`/`clear` mutate process-global state: serialize the
    /// tests that touch it.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_hooks_are_inert() {
        let _g = LOCK.lock().unwrap();
        clear();
        assert!(!enabled());
        assert!(!should_fire("x"));
        assert_eq!(poison_f64("x", 1.5).to_bits(), 1.5f64.to_bits());
        maybe_panic("x");
        maybe_delay("x");
        assert_eq!(config(), None);
    }

    #[test]
    fn rate_one_always_fires_and_rate_zero_never() {
        let _g = LOCK.lock().unwrap();
        set_for_test(7, 1.0);
        for _ in 0..100 {
            assert!(should_fire("always"));
        }
        set_for_test(7, 0.0);
        for _ in 0..100 {
            assert!(!should_fire("never"));
        }
        clear();
    }

    #[test]
    fn schedule_replays_under_same_seed() {
        let _g = LOCK.lock().unwrap();
        set_for_test(42, 0.3);
        let a: Vec<bool> = (0..200).map(|_| should_fire("replay.site")).collect();
        set_for_test(42, 0.3);
        let b: Vec<bool> = (0..200).map(|_| should_fire("replay.site")).collect();
        assert_eq!(a, b);
        assert!(a.iter().any(|&x| x), "rate 0.3 fired nothing in 200 draws");
        assert!(!a.iter().all(|&x| x), "rate 0.3 fired everything");
        clear();
    }

    #[test]
    fn seeds_decorrelate() {
        let _g = LOCK.lock().unwrap();
        set_for_test(1, 0.5);
        let a: Vec<bool> = (0..200).map(|_| should_fire("seed.site")).collect();
        set_for_test(2, 0.5);
        let b: Vec<bool> = (0..200).map(|_| should_fire("seed.site")).collect();
        assert_ne!(a, b);
        clear();
    }

    #[test]
    fn poison_produces_non_finite_or_huge() {
        let _g = LOCK.lock().unwrap();
        set_for_test(11, 1.0);
        let mut kinds = std::collections::BTreeSet::new();
        for _ in 0..64 {
            let v = poison_f64("poison.site", 0.25);
            assert!(v.is_nan() || v.is_infinite() || v.abs() >= 1e308);
            kinds.insert(if v.is_nan() {
                "nan"
            } else if v == f64::INFINITY {
                "+inf"
            } else if v == f64::NEG_INFINITY {
                "-inf"
            } else {
                "huge"
            });
        }
        assert!(kinds.len() >= 3, "poisons not diverse: {kinds:?}");
        clear();
    }

    #[test]
    fn injected_panic_carries_site() {
        let _g = LOCK.lock().unwrap();
        set_for_test(3, 1.0);
        let err = std::panic::catch_unwind(|| maybe_panic("par.task")).unwrap_err();
        clear();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("par.task"), "panic message {msg:?}");
    }

    #[test]
    fn spec_parsing() {
        assert_eq!(parse_spec("42:0.2"), Ok((42, 0.2)));
        assert_eq!(parse_spec("7"), Ok((7, DEFAULT_RATE)));
        assert!(parse_spec("x:0.2").is_err());
        assert!(parse_spec("42:1.5").is_err());
        assert!(parse_spec("42:nan").is_err());
    }
}
