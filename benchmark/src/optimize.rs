//! The `optimize` workload: sequential optimizer jobs over TCP
//! (`submit_job`, then polls on a fixed schedule until the job is done).

use crate::oracle::Plans;
use crate::report::{Latency, Report};
use crate::served::SAT_BASE;
use crate::stack::{report_counters, set_up, Stack};
use crate::waterfall;
use fepia_benchmark::measure::median;
use fepia_core::dense_grid;
use fepia_mapping::ParetoFront;
use fepia_serve::workload::{moves_request, scenario_pool, WorkloadSpec};
use fepia_serve::{default_portfolio, JobSpec, JobState, JobTable, JobTableConfig, Scenario};
use std::sync::Arc;
use std::time::{Duration, Instant};

const JOB_ID_BASE: u64 = 1 << 36;
const STATS_ID: u64 = 1 << 40;
/// Poll schedule while a job runs.
const POLL: Duration = Duration::from_millis(5);
/// Wall time of one job on a 2-core host at the benchmark's first commit.
const NOMINAL_JOB_S: f64 = 0.6;

pub struct Optimize {
    seed: u64,
    /// Sequential jobs in the timed phase.
    jobs: u64,
    population: u32,
    iterations: u32,
    /// The scenario shape the jobs draw their ETC matrices from; also the
    /// probe-shaped stream the traced waterfall runs.
    spec: WorkloadSpec,
    traced_requests: u64,
    side_requests: u64,
}

impl Optimize {
    pub fn new(seed: u64, seconds: u64, quick: bool) -> Optimize {
        let (jobs, population, iterations, traced, side) = if quick {
            (2, 8, 2_000, 64, 16)
        } else {
            let jobs = (seconds as f64 / NOMINAL_JOB_S).round().max(2.0) as u64;
            (jobs, 32, 100_000, 4096, 1024)
        };
        Optimize {
            seed,
            jobs,
            population,
            iterations,
            spec: WorkloadSpec {
                seed,
                scenarios: (jobs as usize).max(8),
                apps: 64,
                machines: 8,
                moves_per_request: 64,
                origins_per_request: 2,
            },
            traced_requests: traced,
            side_requests: side,
        }
    }

    /// Job `j`: scenario `j`'s ETC and τ, its own seed, eight batches of
    /// the default heuristic portfolio on two threads.
    fn job(&self, pool: &[Arc<Scenario>], j: u64) -> JobSpec {
        let s = &pool[j as usize];
        JobSpec {
            etc: Arc::clone(s.etc()),
            tau: s.tau(),
            seed: fepia_stats::subseed(self.seed, j),
            population: self.population,
            batches: 8,
            heuristics: default_portfolio(self.iterations),
            threads: 2,
        }
    }
}

fn setup(w: &Optimize) -> Result<(Vec<Arc<Scenario>>, Stack), String> {
    let pool = scenario_pool(&w.spec);
    let mut stack = Stack::start(1)?;
    // Warm-up: one small job through the whole path. Its end is awaited on
    // the server's table rather than by polling, so set-up time is not
    // rounded up to a poll interval.
    let warm = JobSpec {
        population: 8,
        heuristics: default_portfolio(2_000),
        ..w.job(&pool, 0)
    };
    let client = &mut stack.clients[0];
    let first = client
        .submit_job(JOB_ID_BASE - 2, &warm)
        .map_err(|e| format!("warm-up job: {e}"))?;
    stack
        .server
        .jobs()
        .wait(first.job)
        .map_err(|e| format!("warm-up job: {e}"))?;
    stack.clients[0]
        .job_status(JOB_ID_BASE - 1, first.job)
        .map_err(|e| format!("warm-up job: {e}"))?;
    Ok((pool, stack))
}

struct Ran {
    latency_ms: f64,
    late_ms: Vec<f64>,
    evals: u64,
    digest: u64,
}

/// Submits job `j` and polls it on the fixed schedule until it is done.
fn run_job(w: &Optimize, pool: &[Arc<Scenario>], stack: &mut Stack, j: u64) -> Result<Ran, String> {
    let spec = w.job(pool, j);
    let client = &mut stack.clients[0];
    let id = JOB_ID_BASE + (j << 20);
    let submitted = Instant::now();
    let first = client
        .submit_job(id, &spec)
        .map_err(|e| format!("job {j} submit: {e}"))?;
    let mut late_ms = Vec::new();
    let mut polls = 0u64;
    let last = loop {
        polls += 1;
        let due = submitted + POLL * polls as u32;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        late_ms.push(Instant::now().duration_since(due).as_secs_f64() * 1e3);
        let snap = client
            .job_status(id + polls, first.job)
            .map_err(|e| format!("job {j} poll: {e}"))?;
        if snap.state.is_terminal() {
            break snap;
        }
    };
    let latency_ms = submitted.elapsed().as_secs_f64() * 1e3;
    if last.state != JobState::Done || last.evals_done != last.evals_total {
        return Err(format!(
            "job {j} ended {:?} after {} of {} evals",
            last.state, last.evals_done, last.evals_total
        ));
    }
    Ok(Ran {
        latency_ms,
        late_ms,
        evals: last.evals_done,
        digest: ParetoFront::from_points(last.front).digest(),
    })
}

pub fn run(
    w: &Optimize,
    traced: bool,
    spans: Option<std::path::PathBuf>,
    report: &mut Report,
) -> Result<(), String> {
    let (pool, mut stack) = set_up(report, || setup(w))?;
    report.note(format!(
        "setup: {} ETC matrices, one warm-up job",
        pool.len()
    ));

    let before = stack.stats(STATS_ID)?;
    let phase = Instant::now();
    let mut ran = Vec::with_capacity(w.jobs as usize);
    for j in 0..w.jobs {
        report.attempted += 1;
        match run_job(w, &pool, &mut stack, j) {
            Ok(r) => ran.push(r),
            Err(e) => {
                report.failed += 1;
                report.errors.push(e);
            }
        }
    }
    let wall = phase.elapsed();
    let after = stack.stats(STATS_ID + 1)?;

    // Median job's rate, so one job disturbed by another process moves it
    // little.
    let throughput = median(
        &ran.iter()
            .map(|r| r.evals as f64 / (r.latency_ms / 1e3))
            .collect::<Vec<_>>(),
    );
    let lat = Latency::of(&ran.iter().map(|r| r.latency_ms).collect::<Vec<_>>());
    report.layer("bench.throughput", throughput, "units/s");
    report.e2e("p50_ms", lat.p50, "ms");
    report.note(format!(
        "jobs: {} x population {} in {:.3} s; median job {throughput:.0} delta-evals/s",
        w.jobs,
        w.population,
        wall.as_secs_f64()
    ));
    report.note(lat.describe("job latency, submit to final poll"));
    let digests: Vec<String> = ran.iter().map(|r| format!("{:016x}", r.digest)).collect();
    report.note(format!("digest fronts {}", digests.join(" ")));

    report_counters(report, &before, &after, wall);
    let late = ran.iter().flat_map(|r| r.late_ms.iter().copied()).collect();
    report.generator(&lat, late, 1);

    if traced {
        let first = ran.first().ok_or("no job finished")?;
        let probe_pool = &pool[..8];
        let stream = |i: u64| moves_request(&w.spec, probe_pool, SAT_BASE + i);
        let mut plans = Plans::new(*stack.service.policy());
        waterfall::run(
            waterfall::Input {
                stream: &stream,
                len: w.traced_requests,
                spec: &w.spec,
                pool: probe_pool,
                grid: &dense_grid(1.0, 3.0, 7),
                side: w.side_requests,
                spans,
            },
            &mut stack,
            &mut plans,
            report,
        )?;
        job_probe(&w.job(&pool, 0), first.digest, report)?;
    }
    Ok(())
}

/// Runs the first job again in process, at two threads and at one: both
/// fronts must equal the one served over TCP (`tcp_digest`). Reports the
/// fan-out's two-thread speed-up and the in-process job time.
fn job_probe(job: &JobSpec, tcp_digest: u64, report: &mut Report) -> Result<(), String> {
    let table = JobTable::new(JobTableConfig::default());
    let timed = |threads: u32| -> Result<(u64, f64), String> {
        let t = Instant::now();
        let snap = table
            .run(JobSpec {
                threads,
                ..job.clone()
            })
            .map_err(|e| format!("in-process job at {threads} threads: {e}"))?;
        Ok((
            ParetoFront::from_points(snap.front).digest(),
            t.elapsed().as_secs_f64(),
        ))
    };
    let (two, two_s) = timed(2)?;
    let (one, one_s) = timed(1)?;
    if two != tcp_digest || one != tcp_digest {
        return Err(format!(
            "job front digests differ: tcp {tcp_digest:016x}, in-process {two:016x} (2 threads), {one:016x} (1 thread)"
        ));
    }
    report.layer("par.speedup_2v1", one_s / two_s, "ratio");
    report.layer("serve.job_inproc_s", two_s, "s");
    report.note(format!(
        "job probe: front digest {tcp_digest:016x} over TCP and in process at 2 and 1 threads; {} cpus available",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    Ok(())
}
