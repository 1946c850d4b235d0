//! Cross-crate integration tests pinning the paper's *quantitative claims*
//! (at small, debug-friendly scale). These are the "shape" checks: who
//! wins, roughly by how much, and where the collateral damage lands.

use dibs::{presets, RunResults, Scenario, SimConfig};
use dibs_harness::Executor;

fn run(sc: &Scenario, cfg: SimConfig) -> RunResults {
    sc.build_with(cfg).expect("scenario builds").run()
}

/// Run the same workload under several configs through the sweep executor
/// (one job per config when cores allow), returning results in input order.
fn run_all(wl: Scenario, cfgs: Vec<SimConfig>) -> Vec<RunResults> {
    Executor::from_env().map(cfgs, |cfg| run(&wl, cfg))
}

/// The K=8 mixed workload at `qps` over a short 120 ms window.
fn small_mixed(qps: f64) -> Scenario {
    Scenario {
        duration_ms: 120,
        drain_ms: 400,
        ..presets::mixed(120, qps, 40, 20_000)
    }
}

/// §1/abstract: DIBS reduces the 99th percentile of query completion time
/// substantially (the paper reports up to 85% under heavy congestion).
#[test]
#[ignore = "tier-2 (>10 s): run via scripts/check.sh --full or --include-ignored"]
fn dibs_reduces_tail_qct() {
    let wl = small_mixed(1000.0);
    let mut runs = run_all(
        wl,
        vec![SimConfig::dctcp_baseline(), SimConfig::dctcp_dibs()],
    );
    let mut dibs = runs.pop().unwrap();
    let mut base = runs.pop().unwrap();
    let qb = base.qct_p99_ms().unwrap();
    let qd = dibs.qct_p99_ms().unwrap();
    assert!(
        qd < 0.7 * qb,
        "DIBS p99 QCT {qd:.1} ms should be well under DCTCP's {qb:.1} ms"
    );
    assert_eq!(dibs.counters.total_drops(), 0, "DIBS is near-lossless here");
    assert!(base.counters.total_drops() > 0);
}

/// §5.4.1: on average DIBS detours under 20 % of packets, over 90 % of
/// detoured packets belong to query traffic, and ~1 % of background
/// packets get detoured.
#[test]
#[ignore = "tier-2 (>10 s): run via scripts/check.sh --full or --include-ignored"]
fn collateral_damage_is_limited() {
    let wl = small_mixed(1000.0);
    let dibs = run(&wl, SimConfig::dctcp_dibs());
    let frac = dibs.counters.detoured_fraction();
    assert!(
        frac < 0.20,
        "detoured fraction {frac:.3} should stay below 20%"
    );
    let query_share = dibs.counters.detoured_query_share();
    assert!(
        query_share > 0.90,
        "query share of detours {query_share:.3} should exceed 90%"
    );
    let bg_frac = dibs.counters.bg_detoured_fraction();
    assert!(
        bg_frac < 0.05,
        "background detour rate {bg_frac:.4} should be tiny"
    );
}

/// §5.4.1: background-flow tail FCT rises by no more than a few
/// milliseconds under DIBS.
#[test]
#[ignore = "tier-2 (>10 s): run via scripts/check.sh --full or --include-ignored"]
fn background_fct_damage_is_bounded() {
    let wl = small_mixed(300.0);
    let mut runs = run_all(
        wl,
        vec![SimConfig::dctcp_baseline(), SimConfig::dctcp_dibs()],
    );
    let mut dibs = runs.pop().unwrap();
    let mut base = runs.pop().unwrap();
    let fb = base.bg_fct_p99_ms().unwrap();
    let fd = dibs.bg_fct_p99_ms().unwrap();
    assert!(
        fd - fb < 4.0,
        "BG FCT p99 rose from {fb:.2} to {fd:.2} ms — more than the paper's ~2 ms"
    );
}

/// §5.4.4 (burstiness): for the same total response volume, a high incast
/// degree is harder than large responses — and hurts DCTCP more than DIBS.
#[test]
#[ignore = "tier-2 (>10 s): run via scripts/check.sh --full or --include-ignored"]
fn high_degree_is_burstier_than_large_responses() {
    // 2 MB per query either way: 100 x 20 KB vs 40 x 50 KB. The first-RTT
    // burst is 1 MB vs 400 KB, so the many-senders variant hits the
    // destination port far harder. 600 qps over a 150 ms window gives
    // enough queries for a stable 90th percentile at test scale (the full
    // Fig 10/11 sweeps in dibs-bench report the 99th).
    let mk = |degree: usize, resp: u64| Scenario {
        duration_ms: 150,
        drain_ms: 400,
        ..presets::mixed(120, 600.0, degree, resp)
    };
    // Three independent runs: fan them out through the executor.
    let arms = vec![
        (SimConfig::dctcp_baseline(), mk(100, 20_000)),
        (SimConfig::dctcp_baseline(), mk(40, 50_000)),
        (SimConfig::dctcp_dibs(), mk(100, 20_000)),
    ];
    let mut runs = Executor::from_env().map(arms, |(cfg, wl)| run(&wl, cfg));
    let dibs_many = runs.pop().unwrap();
    let mut base_big = runs.pop().unwrap();
    let mut base_many = runs.pop().unwrap();
    let bm = base_many.qct_ms.percentile(0.90).unwrap();
    let bb = base_big.qct_ms.percentile(0.90).unwrap();
    assert!(
        bm > bb,
        "DCTCP: degree-100 ({bm:.1} ms) should be worse than 50 KB responses ({bb:.1} ms)"
    );
    // And DIBS absorbs almost all of even the burstier variant: at this
    // intensity (600 qps of 1 MB first-RTT bursts) overlapping bursts can
    // momentarily exhaust every eligible buffer, so require a >100x drop
    // reduction rather than strictly zero.
    assert!(
        dibs_many.counters.total_drops() * 100 < base_many.counters.total_drops(),
        "DIBS drops {} vs DCTCP drops {}",
        dibs_many.counters.total_drops(),
        base_many.counters.total_drops()
    );
}

/// §5.4.2 at high query rates: without DIBS, background flows lose packets
/// to query bursts; with DIBS they do not.
#[test]
#[ignore = "tier-2 (>10 s): run via scripts/check.sh --full or --include-ignored"]
fn dibs_protects_background_at_high_qps() {
    let wl = small_mixed(2000.0);
    let mut runs = run_all(
        wl,
        vec![SimConfig::dctcp_baseline(), SimConfig::dctcp_dibs()],
    );
    let mut dibs = runs.pop().unwrap();
    let mut base = runs.pop().unwrap();
    assert!(base.counters.total_drops() > 0);
    assert_eq!(dibs.counters.total_drops(), 0);
    let fb = base.bg_fct_p99_ms().unwrap();
    let fd = dibs.bg_fct_p99_ms().unwrap();
    assert!(
        fd <= fb + 1.0,
        "at 2000 qps DIBS should not be worse for background: {fd:.2} vs {fb:.2} ms"
    );
}

/// Every query eventually completes in both configurations at moderate
/// load, and DIBS never leaves a flow hanging.
#[test]
#[ignore = "tier-2 (>10 s): run via scripts/check.sh --full or --include-ignored"]
fn all_queries_complete_at_moderate_load() {
    let wl = small_mixed(500.0);
    for r in run_all(
        wl,
        vec![SimConfig::dctcp_baseline(), SimConfig::dctcp_dibs()],
    ) {
        assert!(
            r.query_completion_rate() > 0.99,
            "completion rate {}",
            r.query_completion_rate()
        );
    }
}
