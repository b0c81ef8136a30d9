//! The §3.1 scenario's degradation curve ρ(τ) over TCP.
//!
//! Starts the evaluation service behind a `fepia-net` server, sends one
//! v3 `Curve` request sweeping the makespan tolerance factor τ over an
//! explicit grid, and prints the resulting ρ(τ) points — the whole
//! degradation function of the paper's example system from a single
//! compiled plan. Then demonstrates the differential guarantee: each
//! curve point is bitwise identical to an independent single-τ
//! evaluation of a scenario compiled at exactly that tolerance.
//!
//! Run with: `cargo run --release --example curve_roundtrip`

use fepia::core::{EvalBudget, VerdictKind};
use fepia::etc::EtcMatrix;
use fepia::mapping::Mapping;
use fepia::net::{ClientConfig, NetClient, NetServer, ServerConfig};
use fepia::serve::{CurveGrid, CurveSpec, EvalKind, EvalRequest, Scenario, Service, ServiceConfig};
use std::sync::Arc;

fn main() {
    // The §3.1 system: 6 applications on 2 machines.
    let etc = Arc::new(EtcMatrix::from_rows(vec![
        vec![10.0, 20.0],
        vec![15.0, 10.0],
        vec![12.0, 24.0],
        vec![30.0, 18.0],
        vec![9.0, 9.0],
        vec![22.0, 11.0],
    ]));
    let mapping = Mapping::new(vec![0, 1, 0, 1, 0, 1], 2);
    let taus = vec![1.0, 1.05, 1.1, 1.2, 1.35, 1.5, 2.0];
    let scenario = Arc::new(
        Scenario::new(
            Arc::clone(&etc),
            mapping.clone(),
            taus[0],
            Default::default(),
        )
        .expect("valid scenario"),
    );

    let service = Arc::new(Service::start(ServiceConfig::default()));
    let server = NetServer::start(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default())
        .expect("bind an ephemeral localhost port");
    println!("server listening on {}", server.local_addr());

    // One request, the whole curve: every level shares one compiled plan.
    let req = EvalRequest {
        id: 1,
        scenario: Arc::clone(&scenario),
        kind: EvalKind::Curve(CurveSpec {
            grid: CurveGrid::Explicit(taus.clone()),
        }),
    };
    let mut client =
        NetClient::connect(server.local_addr(), ClientConfig::default()).expect("connect");
    let resp = client.call(&req).expect("curve over TCP");
    let meta = resp.curve.as_ref().expect("curve responses carry meta");

    println!("\ndegradation curve ρ(τ) (Eq. 7 at each tolerance level):");
    for (tau, v) in meta.taus.iter().zip(&resp.verdicts) {
        println!(
            "  τ = {tau:.2}  ->  ρ = {:8.3}   [{:?}, binding machine {:?}]",
            v.metric_lo, v.kind, v.binding
        );
    }
    println!(
        "monotone non-decreasing as τ loosens: {}",
        if meta.monotone {
            "certified"
        } else {
            "VIOLATED"
        }
    );
    assert!(meta.monotone);

    // The differential guarantee: each served point equals, bit for bit,
    // an independent scenario compiled at exactly that τ.
    for (tau, v) in meta.taus.iter().zip(&resp.verdicts) {
        let solo = Arc::new(
            Scenario::new(Arc::clone(&etc), mapping.clone(), *tau, Default::default()).unwrap(),
        );
        let compiled = solo.compile().expect("compiles");
        let mut ws = compiled.plan().workspace();
        let single = compiled.verdict_at_origin_budgeted(
            &mut ws,
            &Default::default(),
            EvalBudget::UNLIMITED,
        );
        assert_eq!(v.kind, VerdictKind::Exact);
        assert_eq!(v.metric_lo.to_bits(), single.metric_lo.to_bits());
        assert_eq!(v.metric_hi.to_bits(), single.metric_hi.to_bits());
    }
    println!("every curve point bitwise equal to an independent single-τ evaluation");

    server.shutdown();
    Arc::try_unwrap(service)
        .ok()
        .expect("server released the service")
        .shutdown();
}
