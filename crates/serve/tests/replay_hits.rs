//! Cache hits replay the rung's record, and faults are never replayed
//! away.
//!
//! A prepared rung carries the PCG replay record of its first fault-free
//! solve. A later fault-free hit binds it to the rung's values and
//! replays: it compiles no program, and without a program no kernel can
//! tick. A hit that carries a fault plan must still run the engine, so
//! its faults fire, and both must journal exactly what a hit on a rung
//! with no record journals.
//!
//! The compile count comes from the process-wide span collector, so
//! this file holds one test.

use azul_core::AzulConfig;
use azul_serve::{serve_batch, RequestOutcome, ServeConfig, ServeService, SolveRequest};
use azul_sim::faults::{FaultEvent, FaultKind, FaultPlan};
use azul_sparse::generate;
use azul_telemetry::span::Collector;

fn job(id: &str, faults: Option<FaultPlan>) -> SolveRequest {
    let a = generate::grid_laplacian_2d(8, 8);
    let b = (0..a.rows()).map(|i| (i % 5) as f64 / 5.0 + 0.3).collect();
    let mut req = SolveRequest::new(id, a, b);
    req.faults = faults;
    req
}

/// A slow link for the whole solve: every kernel's cycles change.
fn slow_link() -> Option<FaultPlan> {
    Some(FaultPlan::new(vec![FaultEvent {
        at_cycle: 0,
        kind: FaultKind::LinkDegrade {
            tile: 0,
            extra_latency: 6,
            for_cycles: u64::MAX / 4,
        },
    }]))
}

fn config() -> ServeConfig {
    let mut cfg = ServeConfig::new(AzulConfig::small_test());
    cfg.workers = 1;
    cfg
}

/// Serves `req` on `svc` alone; returns the compile spans it opened.
fn compiles(svc: &ServeService, collector: &Collector, req: SolveRequest) -> usize {
    collector.drain();
    svc.submit(req).expect("admitted");
    svc.wait_all();
    collector
        .drain()
        .iter()
        .filter(|r| r.name.starts_with("compile/"))
        .count()
}

fn total_cycles(out: &RequestOutcome) -> u64 {
    out.result.as_ref().expect("solved").total_cycles
}

#[test]
fn faulted_hits_tick_and_clean_hits_replay() {
    let collector = Collector::install();

    // The leader's fault-free solve compiles and fills the record; a
    // faulted hit compiles and ticks; the next clean hit replays.
    let svc = ServeService::start(config());
    svc.open();
    assert!(compiles(&svc, &collector, job("lead", None)) > 0);
    assert!(compiles(&svc, &collector, job("faulted", slow_link())) > 0);
    assert_eq!(
        compiles(&svc, &collector, job("clean", None)),
        0,
        "a fault-free hit on a recorded rung compiles nothing"
    );
    let got = svc.shutdown();
    azul_telemetry::span::uninstall();
    assert!(got.iter().skip(1).all(|o| o.prepare == "shared"));
    assert_ne!(
        total_cycles(&got[1]),
        total_cycles(&got[0]),
        "the fault fired"
    );

    // The same hits on a rung with no record, because its leader's
    // solve was faulted: both tick on compiled programs.
    let want = serve_batch(
        config(),
        vec![
            job("lead", slow_link()),
            job("faulted", slow_link()),
            job("clean", None),
        ],
    )
    .outcomes;
    for (g, w) in got.iter().zip(&want).skip(1) {
        assert_eq!(g.journal, w.journal, "journal of {}", g.id);
        let (g, w) = (g.result.as_ref().unwrap(), w.result.as_ref().unwrap());
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&g.x), bits(&w.x));
        assert_eq!(g.total_cycles, w.total_cycles);
    }
    assert_eq!(total_cycles(&got[2]), total_cycles(&got[0]));
}
