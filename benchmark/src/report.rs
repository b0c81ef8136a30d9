//! What one workload run measured, and how it is printed.

use fepia_benchmark::measure::{nearest_rank, tail_percentile};

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one workload process measured and checked.
#[derive(Debug)]
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    /// End-to-end metrics (phases run with tracing off).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (filled by a traced run).
    pub per_layer: Vec<Metric>,
    /// Human-readable diagnostics, printed before the result line.
    pub notes: Vec<String>,
    /// Requests and jobs the run issued.
    pub attempted: u64,
    /// Requests and jobs that errored, were refused, or came back degraded.
    pub failed: u64,
    /// Oracle mismatches; any entry makes the run incorrect.
    pub errors: Vec<String>,
}

impl Report {
    pub fn new(workload: &'static str, seed: u64, traced: bool) -> Report {
        Report {
            workload,
            seed,
            traced,
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
            notes: Vec::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.per_layer.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Per-layer diagnostics of the measurement itself: how late the load
    /// generator sent (p99), the most requests it had in flight, the
    /// latency tail with its sample count, the failure share, and the
    /// process's peak resident memory.
    pub fn generator(&mut self, lat: &Latency, mut late_ms: Vec<f64>, inflight_max: u64) {
        late_ms.sort_by(f64::total_cmp);
        self.layer("bench.gen_late_p99_ms", nearest_rank(&late_ms, 9_900), "ms");
        self.layer("bench.inflight_max", inflight_max as f64, "count");
        self.layer("bench.p90_ms", lat.p90, "ms");
        self.layer("bench.p99_ms", lat.p99, "ms");
        self.layer("bench.p999_ms", lat.p999, "ms");
        self.layer("bench.samples", lat.samples as f64, "count");
        let fail_frac = self.failed as f64 / self.attempted.max(1) as f64;
        self.layer("bench.fail_frac", fail_frac, "fraction");
        self.layer("bench.peak_rss_mb", peak_rss_mb(), "MB");
    }

    /// The metrics this run reports: per-layer when traced, else end-to-end.
    pub fn reported(&self) -> &[Metric] {
        if self.traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// Oracles passed and every reported value is a finite number.
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.reported().iter().all(|m| m.value.is_finite())
    }

    fn metrics_json(&self) -> String {
        let body: Vec<String> = self
            .reported()
            .iter()
            .map(|m| {
                // Non-finite values are not JSON; they also make the run
                // incorrect (see `correct`).
                let v = if m.value.is_finite() {
                    format!("{}", m.value)
                } else {
                    "null".to_string()
                };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    /// The single-line result object: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            self.metrics_json()
        )
    }

    /// The result file: the result line's content plus the run's identity
    /// and diagnostics, read back by `--compare`.
    pub fn file_json(&self) -> String {
        let quote = |s: &str| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""));
        let notes: Vec<String> = self.notes.iter().map(|n| quote(n)).collect();
        let errors: Vec<String> = self.errors.iter().map(|n| quote(n)).collect();
        format!(
            "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"traced\": {},\n  \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"metrics\": {},\n  \"notes\": [{}],\n  \"errors\": [{}]\n}}\n",
            self.workload,
            self.seed,
            self.traced,
            self.correct(),
            self.attempted.max(1),
            self.failed,
            self.metrics_json(),
            notes.join(", "),
            errors.join(", ")
        )
    }
}

/// Latency summary of one sample set, in milliseconds: median, p90, the
/// diagnostic tail and the sample count.
pub struct Latency {
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    pub p999: f64,
    pub samples: usize,
    /// The highest percentile with at least ten samples beyond it.
    pub tail: Option<(f64, f64)>,
}

impl Latency {
    pub fn of(samples_ms: &[f64]) -> Latency {
        let mut s = samples_ms.to_vec();
        s.sort_by(f64::total_cmp);
        Latency {
            p50: nearest_rank(&s, 5_000),
            p90: nearest_rank(&s, 9_000),
            p99: nearest_rank(&s, 9_900),
            p999: nearest_rank(&s, 9_990),
            samples: s.len(),
            tail: tail_percentile(&s),
        }
    }

    pub fn describe(&self, what: &str) -> String {
        let tail = match self.tail {
            Some((p, v)) => format!("p{p} {v:.4} ms"),
            None => "no percentile has 10 samples beyond it".to_string(),
        };
        format!(
            "{what}: p50 {:.4} ms, p90 {:.4} ms, p99 {:.4} ms, p99.9 {:.4} ms over {} samples (tail: {tail})",
            self.p50, self.p90, self.p99, self.p999, self.samples
        )
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
