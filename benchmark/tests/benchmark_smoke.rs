//! Smoke test: every workload at tiny scale (`--quick`), untraced and
//! traced. Checks that the oracles pass, that every metric `BENCHMARK.json`
//! declares is printed for every workload with a finite value (and, for the
//! workloads it lists, nothing else), and that each phase's response digest
//! repeats across the two runs.

use fepia_benchmark::json::Json;
use std::collections::BTreeMap;
use std::process::Command;

const WORKLOADS: [&str; 4] = ["probe", "churn", "curve", "optimize"];

fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Json::as_array)
        .expect("a list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

struct Run {
    /// workload → metric → value
    metrics: BTreeMap<String, BTreeMap<String, f64>>,
    /// `# workload: digest ...` lines, in order.
    digests: Vec<String>,
}

fn run(extra: &[&str]) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .arg("--quick")
        .args(extra)
        .env("FEPIA_RESULTS", env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "benchmark {extra:?} failed ({}):\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let mut metrics: BTreeMap<String, BTreeMap<String, f64>> = BTreeMap::new();
    let mut digests = Vec::new();
    for line in stdout.lines() {
        if line.starts_with('#') {
            if line.contains(": digest ") {
                digests.push(line.to_string());
            }
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if let [workload, metric, value, _unit] = fields[..] {
            let v: f64 = value.parse().expect("numeric metric value");
            metrics
                .entry(workload.to_string())
                .or_default()
                .insert(metric.to_string(), v);
        }
    }
    Run { metrics, digests }
}

/// Every workload prints every name in `names` with a finite value; the
/// workloads `BENCHMARK.json` lists print no other metric.
fn assert_complete(run: &Run, names: &[String]) {
    let gated = declared("workloads");
    for w in WORKLOADS {
        let got = run
            .metrics
            .get(w)
            .unwrap_or_else(|| panic!("no metrics for {w}"));
        for name in names {
            let v = got
                .get(name)
                .unwrap_or_else(|| panic!("{w} did not print {name}"));
            assert!(v.is_finite(), "{w} {name} = {v}");
        }
        if gated.iter().any(|g| g == w) {
            assert_eq!(got.len(), names.len(), "{w} printed undeclared metrics");
        }
    }
}

#[test]
fn quick_runs_print_every_declared_metric_and_repeat_their_digests() {
    let untraced = run(&["--trace", "0"]);
    assert_complete(&untraced, &declared("end_to_end"));
    let traced = run(&["--trace", "1"]);
    assert_complete(&traced, &declared("per_layer"));
    assert_eq!(
        untraced.digests.len(),
        3 * 2 + 1,
        "one digest line per served phase and one for the optimizer fronts"
    );
    assert_eq!(
        untraced.digests, traced.digests,
        "same seed, different response digests"
    );
}
