//! The served system under test: a sharded `Service` behind a `NetServer`
//! on loopback, plus the benchmark's client connections.

use crate::report::Report;
use fepia_benchmark::measure::median;
use fepia_net::wire::StatsReply;
use fepia_net::{ClientConfig, NetClient, NetServer, ServerConfig};
use fepia_serve::{Service, ServiceConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Two shards with one worker each: with two cores, more workers only
/// contend with the event loop and the load generator.
const SHARDS: usize = 2;
const WORKERS_PER_SHARD: usize = 1;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;

/// A running service, its TCP front, and connected clients. Fields drop
/// in declaration order: clients disconnect, the server drains, then the
/// service joins its workers.
pub struct Stack {
    pub clients: Vec<NetClient>,
    pub server: NetServer,
    pub service: Arc<Service>,
}

impl Stack {
    pub fn start(connections: usize) -> Result<Stack, String> {
        let service = Arc::new(Service::start(ServiceConfig {
            shards: SHARDS,
            workers_per_shard: WORKERS_PER_SHARD,
            cache_capacity: 64,
            ..ServiceConfig::default()
        }));
        let server = NetServer::start(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default())
            .map_err(|e| format!("bind loopback server: {e}"))?;
        let addr = server.local_addr();
        let clients = (0..connections)
            .map(|_| {
                NetClient::connect(addr, ClientConfig::default())
                    .map_err(|e| format!("connect to {addr}: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Stack {
            clients,
            server,
            service,
        })
    }

    /// A Stats frame from the server, over the first connection.
    pub fn stats(&mut self, id: u64) -> Result<StatsReply, String> {
        self.clients[0]
            .stats(id)
            .map_err(|e| format!("stats poll: {e}"))
    }
}

/// Builds the system under test `SETUPS` times, dropping every build but
/// the last, which it returns; reports the median build time as `setup_s`.
pub fn set_up<T>(
    report: &mut Report,
    mut build: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let t = Instant::now();
        built = Some(build()?);
        times.push(t.elapsed().as_secs_f64());
    }
    report.e2e("setup_s", median(&times), "s");
    report.note(format!("{SETUPS} set-ups took {times:.4?} s"));
    Ok(built.expect("SETUPS >= 1"))
}

/// Per-layer counters from two Stats frames taken `wall` apart: service
/// work, waste and refusals, and the server's frame counts.
pub fn report_counters(
    report: &mut Report,
    before: &StatsReply,
    after: &StatsReply,
    wall: Duration,
) {
    let (b, a) = (before.service_totals(), after.service_totals());
    let hits = (a.cache_hits + a.cache_coalesced) - (b.cache_hits + b.cache_coalesced);
    let misses = a.cache_misses - b.cache_misses;
    let lookups = hits + misses;
    report.layer(
        "serve.cache_hit_rate",
        if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        },
        "fraction",
    );
    report.layer("serve.compiles", misses as f64, "count");
    report.layer(
        "serve.coalesced",
        (a.cache_coalesced - b.cache_coalesced) as f64,
        "count",
    );
    let workers = (SHARDS * WORKERS_PER_SHARD) as f64;
    report.layer(
        "serve.worker_busy_frac",
        (a.busy_ns - b.busy_ns) as f64 / (wall.as_nanos() as f64 * workers),
        "fraction",
    );
    report.layer(
        "serve.shed",
        ((a.shed_full + a.shed_shutdown) - (b.shed_full + b.shed_shutdown)) as f64,
        "count",
    );
    report.layer(
        "serve.worker_panics",
        (a.worker_panics - b.worker_panics) as f64,
        "count",
    );
    report.layer(
        "serve.deadline_expired",
        (a.deadline_expired - b.deadline_expired) as f64,
        "count",
    );
    report.layer(
        "serve.brownout_evals",
        (a.brownout_evals - b.brownout_evals) as f64,
        "count",
    );
    let (nb, na) = (&before.net, &after.net);
    report.layer(
        "net.frames_read",
        (na.frames_read - nb.frames_read) as f64,
        "count",
    );
    report.layer(
        "net.frames_written",
        (na.frames_written - nb.frames_written) as f64,
        "count",
    );
    let errors = |n: &fepia_net::NetStatsSnapshot| n.decode_errors + n.overloaded + n.invalid;
    report.layer("net.errors", (errors(na) - errors(nb)) as f64, "count");
    report.layer(
        "net.max_pipeline_depth",
        na.max_pipeline_depth as f64,
        "count",
    );
}
