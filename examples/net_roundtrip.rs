//! One §3.1 robustness evaluation over TCP.
//!
//! Starts the evaluation service behind a `fepia-net` server on an
//! ephemeral localhost port, connects the blocking client, evaluates a
//! small independent-application scenario (Eq. 6/7) across the wire, and
//! prints the robustness radii and verdict — then shows that the bytes
//! that crossed the wire carry exactly the in-process answer.
//!
//! Run with: `cargo run --release --example net_roundtrip`

use fepia::core::VerdictKind;
use fepia::etc::EtcMatrix;
use fepia::mapping::Mapping;
use fepia::net::wire::encode_response;
use fepia::net::{ClientConfig, NetClient, NetServer, ServerConfig};
use fepia::serve::{EvalKind, EvalRequest, Scenario, Service, ServiceConfig};
use std::sync::Arc;

fn main() {
    // The §3.1 system: 6 applications on 2 machines, 20% makespan slack.
    let etc = Arc::new(EtcMatrix::from_rows(vec![
        vec![10.0, 20.0],
        vec![15.0, 10.0],
        vec![12.0, 24.0],
        vec![30.0, 18.0],
        vec![9.0, 9.0],
        vec![22.0, 11.0],
    ]));
    let mapping = Mapping::new(vec![0, 1, 0, 1, 0, 1], 2);
    let tau = 1.2;
    let scenario = Arc::new(
        Scenario::new(Arc::clone(&etc), mapping, tau, Default::default()).expect("valid scenario"),
    );

    // Service + TCP server on an ephemeral port.
    let service = Arc::new(Service::start(ServiceConfig::default()));
    let server = NetServer::start(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default())
        .expect("bind an ephemeral localhost port");
    let addr = server.local_addr();
    println!("server listening on {addr}");

    // Evaluate the scenario's operating point across the wire.
    let req = EvalRequest {
        id: 1,
        scenario: Arc::clone(&scenario),
        kind: EvalKind::Verdict,
    };
    let mut client = NetClient::connect(addr, ClientConfig::default()).expect("connect");
    let resp = client.call(&req).expect("evaluate over TCP");

    let verdict = &resp.verdicts[0];
    println!("\nrobustness radii over TCP (Eq. 6, machine finishing times):");
    for (j, r) in verdict.radii.iter().enumerate() {
        match r {
            fepia::core::RadiusVerdict::Exact(res) => {
                println!("  r(F_{j}) = {:.3}  ({:?})", res.radius, res.method)
            }
            other => println!("  r(F_{j}) = {other:?}"),
        }
    }
    println!(
        "\nrobustness metric (Eq. 7): {:.3}  [verdict: {:?}, binding machine: {:?}]",
        verdict.metric_lo, verdict.kind, verdict.binding
    );
    assert_eq!(verdict.kind, VerdictKind::Exact);

    // The equivalence guarantee, demonstrated: the response that crossed
    // the wire is bitwise identical to the in-process answer.
    let in_process = service.call(req).expect("in-process evaluation accepted");
    assert_eq!(
        encode_response(&resp).len(),
        encode_response(&in_process).len()
    );
    let bitwise = verdict.metric_lo.to_bits() == in_process.verdicts[0].metric_lo.to_bits();
    println!("bitwise equal to the in-process answer: {bitwise}");
    assert!(bitwise);

    let stats = server.shutdown();
    println!(
        "\nserver stats: {} connection(s), {} frame(s) read, {} written",
        stats.connections, stats.frames_read, stats.frames_written
    );
    Arc::try_unwrap(service)
        .ok()
        .expect("server released the service")
        .shutdown();
}
