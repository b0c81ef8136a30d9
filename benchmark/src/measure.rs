//! Order statistics and the parent-versus-change comparison.
//!
//! Std-only. Quartiles follow Python's `statistics.quantiles(values, n=4)`
//! (the default "exclusive" method) exactly, so the spreads printed here
//! are the ones anyone recomputes from the raw run values.

use crate::json::Json;
use std::collections::BTreeMap;
use std::path::Path;

/// Median of `xs` (mean of the middle pair for an even count); NaN when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile, computed as Python's
/// `statistics.quantiles(xs, n=4)` computes them; NaN when empty.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let s = sorted(xs);
    let ld = s.len();
    match ld {
        0 => [f64::NAN; 3],
        1 => [s[0]; 3],
        _ => {
            let (n, m) = (4usize, ld + 1);
            let mut out = [0.0; 3];
            for (slot, i) in out.iter_mut().zip(1..n) {
                let j = (i * m / n).clamp(1, ld - 1);
                // delta = i·m − j·n, exact integer math (may be negative
                // where j was clamped up).
                let delta = (i * m) as f64 - (j * n) as f64;
                *slot = (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64;
            }
            out
        }
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest value with
/// at least `per_10k / 10000` of the samples at or below it.
pub fn nearest_rank(sorted: &[f64], per_10k: usize) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (sorted.len() * per_10k).div_ceil(10_000);
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of p50, p90, p99, p99.9 and p99.99 that has at least ten
/// samples beyond it, as `(percentile, value)`; `None` below 20 samples.
pub fn tail_percentile(sorted: &[f64]) -> Option<(f64, f64)> {
    [5_000usize, 9_000, 9_900, 9_990, 9_999]
        .into_iter()
        .rev()
        .find(|&k| sorted.len() - (sorted.len() * k).div_ceil(10_000) >= 10)
        .map(|k| (k as f64 / 100.0, nearest_rank(sorted, k)))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Outcome of comparing one metric on one workload between two commits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The change's median is no worse than the parent's by more than the
    /// bound, and both sides' spreads are within it.
    Ok,
    /// The change's median is worse than the parent's by more than the
    /// bound.
    Regressed,
    /// A side's quartile spread is wider than the bound, so a difference
    /// of that size cannot be told from noise.
    Unresolved,
    /// A run failed its oracles, or a run lacks a finite value of the
    /// metric, or the change has no runs of the workload.
    Broken,
}

impl Verdict {
    /// Lowercase label used in the comparison table.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Broken => "broken",
        }
    }

    /// Whether this verdict fails the comparison.
    pub fn fails(self) -> bool {
        matches!(self, Verdict::Regressed | Verdict::Broken)
    }
}

/// Interquartile distance as a share of the median.
pub fn spread(xs: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(xs);
    (q3 - q1) / q2.abs()
}

/// Judges `change` against `parent` for a metric whose allowed worsening is
/// `bound` (a share of the parent's median). When either side's spread
/// exceeds the bound the metric is unresolved, unless every run of the
/// change reads better than every run of the parent.
pub fn verdict(parent: &[f64], change: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let better = |a: f64, b: f64| if higher_is_better { a > b } else { a < b };
    if spread(parent) > bound || spread(change) > bound {
        let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
        return if all_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    let (pm, cm) = (median(parent), median(change));
    let worse_by = if higher_is_better {
        (pm - cm) / pm.abs()
    } else {
        (cm - pm) / pm.abs()
    };
    if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// One declared end-to-end metric, as read from `BENCHMARK.json`.
#[derive(Clone, Debug)]
pub struct Declared {
    /// Metric name.
    pub name: String,
    /// Unit label.
    pub unit: String,
    /// Whether a larger value is better.
    pub higher_is_better: bool,
    /// Allowed worsening, as a share of the parent's median.
    pub bound: f64,
}

/// The end-to-end metrics declared in a `BENCHMARK.json` document.
pub fn declared_end_to_end(doc: &Json) -> Result<Vec<Declared>, String> {
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);
            Ok(Declared {
                name: field("name").ok_or("end_to_end metric without a name")?,
                unit: field("unit").unwrap_or_default(),
                higher_is_better: field("better").as_deref() == Some("higher"),
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("end_to_end metric without a bound")?,
            })
        })
        .collect()
}

/// The untraced runs of one workload found in a result directory.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Runs {
    /// Result files read.
    pub files: usize,
    /// Result files whose oracles failed (`correct` is not `true`).
    pub incorrect: usize,
    /// Each metric's finite values, one per run that reported one. A run
    /// whose value is missing or non-finite (`null`) adds nothing, so the
    /// list is shorter than `files`.
    pub values: BTreeMap<String, Vec<f64>>,
}

impl Runs {
    /// Why this side cannot be judged on `metric`, if it cannot.
    fn broken(&self, side: &str, metric: &str) -> Option<String> {
        let finite = self.values.get(metric).map_or(0, Vec::len);
        if self.incorrect > 0 {
            Some(format!(
                "{} of {} {side} runs failed their oracles",
                self.incorrect, self.files
            ))
        } else if finite < self.files {
            Some(format!(
                "{} of {} {side} runs have no finite value",
                self.files - finite,
                self.files
            ))
        } else {
            None
        }
    }
}

/// Untraced result files of one directory, by workload.
pub fn load_runs(dir: &Path) -> Result<BTreeMap<String, Runs>, String> {
    let mut out: BTreeMap<String, Runs> = BTreeMap::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if doc.get("traced").and_then(Json::as_bool) != Some(false) {
            continue;
        }
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{}: no workload", path.display()))?;
        let runs = out.entry(workload.to_string()).or_default();
        runs.files += 1;
        if doc.get("correct").and_then(Json::as_bool) != Some(true) {
            runs.incorrect += 1;
        }
        if let Some(Json::Object(metrics)) = doc.get("metrics") {
            for (name, m) in metrics {
                if let Some(v) = m.get("value").and_then(Json::as_f64) {
                    runs.values.entry(name.clone()).or_default().push(v);
                }
            }
        }
    }
    Ok(out)
}

/// The comparison table: one row per workload of the parent and declared
/// end-to-end metric, with each side's median and quartiles and a verdict.
/// A metric the change lacks in any run, or a workload it has no runs of,
/// is a `broken` row. Returns the text and whether any row failed
/// (regressed or broken).
pub fn compare(
    parent: &BTreeMap<String, Runs>,
    change: &BTreeMap<String, Runs>,
    declared: &[Declared],
) -> (String, bool) {
    let mut text = format!(
        "{:<9} {:<20} {:>34} {:>34} {:>8}  verdict (bound)\n",
        "workload",
        "metric (unit)",
        "parent median [q1, q3] (n)",
        "change median [q1, q3] (n)",
        "delta"
    );
    let mut failed = false;
    let side = |xs: &[f64]| {
        if xs.is_empty() {
            return "-".to_string();
        }
        let [q1, q2, q3] = quartiles(xs);
        format!("{} [{}, {}] ({})", sig(q2), sig(q1), sig(q3), xs.len())
    };
    for (workload, p) in parent {
        let c = change.get(workload);
        for d in declared {
            let pv = p.values.get(&d.name).map_or(&[][..], Vec::as_slice);
            let cv = c
                .and_then(|c| c.values.get(&d.name))
                .map_or(&[][..], Vec::as_slice);
            let why = match c {
                None => Some("the change has no runs".to_string()),
                Some(c) => p
                    .broken("parent", &d.name)
                    .or_else(|| c.broken("change", &d.name)),
            };
            let (v, delta) = match why {
                Some(_) => (Verdict::Broken, String::from("-")),
                None => (
                    verdict(pv, cv, d.higher_is_better, d.bound),
                    format!(
                        "{:+.2}%",
                        100.0 * (median(cv) - median(pv)) / median(pv).abs()
                    ),
                ),
            };
            failed |= v.fails();
            text.push_str(&format!(
                "{workload:<9} {:<20} {:>34} {:>34} {delta:>8}  {} ({:.0}%){}\n",
                format!("{} ({})", d.name, d.unit),
                side(pv),
                side(cv),
                v.label(),
                100.0 * d.bound,
                why.map_or(String::new(), |w| format!(": {w}"))
            ));
        }
    }
    (text, failed)
}

/// `x` with five significant digits.
fn sig(x: f64) -> String {
    let magnitude = if x == 0.0 {
        0
    } else {
        x.abs().log10().floor() as i32
    };
    format!("{x:.*}", (4 - magnitude).max(0) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), [1.25, 2.5, 3.75]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let upto = |n: u32| -> Vec<f64> { (1..=n).map(f64::from).collect() };
        assert_eq!(tail_percentile(&upto(1000)), Some((99.0, 990.0)));
        assert_eq!(tail_percentile(&upto(100)), Some((90.0, 90.0)));
        assert_eq!(tail_percentile(&upto(50)), Some((50.0, 25.0)));
        assert_eq!(tail_percentile(&upto(10_000)), Some((99.9, 9990.0)));
        assert_eq!(tail_percentile(&upto(15)), None);
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let parent = [100.0, 101.0, 99.0, 100.5, 99.5];
        // 5% slower with a 10% bound: ok.
        assert_eq!(
            verdict(&parent, &[105.0, 105.5, 104.5, 105.2, 104.8], false, 0.10),
            Verdict::Ok
        );
        // 20% slower: regressed.
        assert_eq!(
            verdict(&parent, &[120.0, 121.0, 119.0, 120.5, 119.5], false, 0.10),
            Verdict::Regressed
        );
        // Throughput 20% lower with higher-is-better: regressed.
        assert_eq!(
            verdict(&parent, &[80.0, 81.0, 79.0, 80.5, 79.5], true, 0.10),
            Verdict::Regressed
        );
        // A change whose spread exceeds the bound is unresolved...
        let noisy = [60.0, 140.0, 100.0, 70.0, 130.0];
        assert_eq!(verdict(&parent, &noisy, false, 0.10), Verdict::Unresolved);
        // ...unless every change run beats every parent run.
        let wide_but_better = [10.0, 30.0, 20.0, 12.0, 28.0];
        assert_eq!(verdict(&parent, &wide_but_better, false, 0.10), Verdict::Ok);
    }

    fn declared() -> Vec<Declared> {
        vec![Declared {
            name: "p50_ms".into(),
            unit: "ms".into(),
            higher_is_better: false,
            bound: 0.10,
        }]
    }

    /// Three correct runs of `probe` and of `churn` with these p50 values.
    fn runs(v: &[f64]) -> BTreeMap<String, Runs> {
        let one = Runs {
            files: v.len(),
            incorrect: 0,
            values: BTreeMap::from([("p50_ms".to_string(), v.to_vec())]),
        };
        BTreeMap::from([
            ("probe".to_string(), one.clone()),
            ("churn".to_string(), one),
        ])
    }

    fn row<'a>(text: &'a str, workload: &str) -> &'a str {
        text.lines()
            .find(|l| l.starts_with(workload))
            .unwrap_or_else(|| panic!("no {workload} row in\n{text}"))
    }

    #[test]
    fn compare_reports_one_row_per_workload_and_metric() {
        let parent = runs(&[1.0, 1.01, 0.99]);
        let (text, failed) = compare(&parent, &runs(&[1.2, 1.21, 1.19]), &declared());
        assert!(failed);
        assert_eq!(text.lines().count(), 3);
        assert!(row(&text, "probe").contains("regressed"));
        let (text, failed) = compare(&parent, &runs(&[1.05, 1.04, 1.06]), &declared());
        assert!(!failed, "{text}");
        assert!(row(&text, "churn").contains("ok"));
    }

    #[test]
    fn compare_fails_a_change_missing_a_workload_or_a_value() {
        let parent = runs(&[1.0, 1.01, 0.99]);

        let mut change = runs(&[1.0, 1.01, 0.99]);
        change.remove("churn");
        let (text, failed) = compare(&parent, &change, &declared());
        assert!(failed);
        assert!(row(&text, "churn").contains("broken (10%): the change has no runs"));
        assert!(row(&text, "probe").contains("ok"));

        // One change run printed p50_ms as null: three files, two values.
        let mut change = runs(&[1.0, 1.01, 0.99]);
        change
            .get_mut("probe")
            .unwrap()
            .values
            .insert("p50_ms".into(), vec![1.0, 1.01]);
        let (text, failed) = compare(&parent, &change, &declared());
        assert!(failed);
        assert!(
            row(&text, "probe").contains("broken (10%): 1 of 3 change runs have no finite value")
        );

        // A change run failed its oracles, with plausible numbers.
        let mut change = runs(&[1.0, 1.01, 0.99]);
        change.get_mut("probe").unwrap().incorrect = 1;
        let (text, failed) = compare(&parent, &change, &declared());
        assert!(failed);
        assert!(
            row(&text, "probe").contains("broken (10%): 1 of 3 change runs failed their oracles")
        );
    }

    #[test]
    fn load_runs_counts_incorrect_runs_and_null_values() {
        let dir = std::env::temp_dir().join(format!("fepia-measure-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = |name: &str, correct: bool, traced: bool, value: &str| {
            let text = format!(
                "{{\"workload\": \"probe\", \"seed\": 1, \"traced\": {traced}, \"correct\": {correct}, \"attempted\": 1, \"failed\": 0, \"metrics\": {{\"p50_ms\": {{\"value\": {value}, \"unit\": \"ms\"}}}}}}"
            );
            std::fs::write(dir.join(name), text).unwrap();
        };
        file("a.json", true, false, "0.25");
        file("b.json", false, false, "0.5");
        file("c.json", true, false, "null");
        file("d.json", true, true, "7");
        let runs = load_runs(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(
            runs["probe"],
            Runs {
                files: 3,
                incorrect: 1,
                values: BTreeMap::from([("p50_ms".to_string(), vec![0.25, 0.5])]),
            }
        );
    }
}
