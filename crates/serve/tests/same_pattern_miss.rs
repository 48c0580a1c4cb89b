//! A same-pattern miss builds on its donor's structure layer.
//!
//! A rescaled operator (the same sparsity pattern, new values) misses
//! the operator key but shares the structure key of a published entry.
//! Its leader then shares that entry's permutation, placement and
//! replay record, and only permutes, factors and checksums its own
//! values: it opens no coloring, mapping or compile span. Coloring and
//! every mapper read only the pattern, so it journals and solves what a
//! cold prepare of the same request does.
//!
//! The spans come from the process-wide span collector, so this file
//! holds one test.

use azul_core::{AzulConfig, SolveSupervisor};
use azul_serve::{serve_batch, ServeConfig, ServeService, SolveRequest};
use azul_sparse::{generate, Csr};
use azul_telemetry::span::{Collector, SpanRecord};

fn config() -> ServeConfig {
    let mut cfg = ServeConfig::new(AzulConfig::small_test());
    cfg.workers = 1;
    cfg
}

fn request(id: &str, a: &Csr) -> SolveRequest {
    let b = (0..a.rows()).map(|i| (i % 5) as f64 / 5.0 + 0.3).collect();
    SolveRequest::new(id, a.clone(), b)
}

/// `a` with a heavier diagonal: the same pattern, new values, still SPD.
fn rescaled(a: &Csr) -> Csr {
    let diag: Vec<bool> = a.iter().map(|(r, c, _)| r == c).collect();
    let mut out = a.clone();
    for (v, d) in out.values_mut().iter_mut().zip(diag) {
        *v *= if d { 2.0 } else { 1.25 };
    }
    out
}

/// Serves `req` on `svc` alone; returns the spans it opened.
fn spans(svc: &ServeService, collector: &Collector, req: SolveRequest) -> Vec<SpanRecord> {
    collector.drain();
    svc.submit(req).expect("admitted");
    svc.wait_all();
    collector.drain()
}

/// Whether any span shows a coloring, a mapping or a compile.
fn cold(spans: &[SpanRecord]) -> bool {
    spans.iter().any(|r| {
        r.name == "prepare/coloring"
            || r.name == "prepare/mapping"
            || r.name.starts_with("compile/")
    })
}

#[test]
fn a_same_pattern_miss_colors_maps_and_compiles_nothing() {
    let a = generate::grid_laplacian_2d(8, 8);
    let a2 = rescaled(&a);
    let collector = Collector::install();

    let svc = ServeService::start(config());
    svc.open();
    assert!(cold(&spans(&svc, &collector, request("lead", &a))));
    let miss = spans(&svc, &collector, request("rescaled", &a2));
    azul_telemetry::span::uninstall();
    let got = svc.shutdown();
    assert!(
        !cold(&miss),
        "a miss on a recorded pattern opened {:?}",
        miss.iter().map(|r| r.name.as_str()).collect::<Vec<_>>()
    );
    assert_eq!(got[1].prepare, "leader", "a miss still leads its flight");

    // A fresh service prepares the same request cold, at the same queue
    // position, after an operator of another pattern.
    let want = serve_batch(
        config(),
        vec![
            request("other", &generate::grid_laplacian_2d(6, 6)),
            request("rescaled", &a2),
        ],
    )
    .outcomes;
    assert_eq!(got[1].journal, want[1].journal);
    let (g, w) = (
        got[1].result.as_ref().unwrap(),
        want[1].result.as_ref().unwrap(),
    );
    let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&g.x), bits(&w.x));
    assert_eq!(g.total_cycles, w.total_cycles);

    // The shared structure is the one a cold prepare computes.
    let cfg = config();
    let sup = SolveSupervisor::with_policy(cfg.base, cfg.policy);
    let warm = sup
        .prepare_first_rung(&a)
        .unwrap()
        .with_values(&a2)
        .unwrap();
    let fresh = sup.prepare_first_rung(&a2).unwrap();
    assert_eq!(warm.permutation(), fresh.permutation());
    assert_eq!(warm.placement(), fresh.placement());
}
