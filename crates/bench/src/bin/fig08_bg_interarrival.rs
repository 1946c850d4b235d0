//! Figure 8: variable background traffic intensity.
//!
//! Sweeps the mean background inter-arrival time from 10 ms (heavy) to
//! 120 ms (light) with query traffic fixed at Table 2 defaults (300 qps,
//! degree 40, 20 KB responses), comparing DCTCP against DCTCP+DIBS on 99th
//! percentile QCT and short-background-flow FCT.
//!
//! Paper shape: DIBS cuts 99th QCT by ~20 ms at every intensity; background
//! FCT rises by under ~2 ms (little collateral damage, independent of
//! background intensity).

use dibs::{presets, Scenario, SimConfig};
use dibs_bench::{baseline_vs_dibs_point, run, Harness};
use dibs_stats::ExperimentRecord;

fn main() {
    let h = Harness::from_env();
    let mut rec = ExperimentRecord::new(
        "fig08_bg_interarrival",
        "Variable background traffic (Fig 8)",
        "bg_interarrival_ms",
    );
    rec.param("qps", 300)
        .param("incast_degree", 40)
        .param("response_kb", 20)
        .param("duration_ms", h.scale.duration_ms());

    let sweep = [10u64, 20, 40, 80, 120];
    let scale = h.scale;
    let points = h.executor().map(sweep.to_vec(), |ia| {
        // Heavy background needs the shorter window to stay tractable.
        let duration_ms = if ia <= 20 {
            scale.heavy_duration_ms()
        } else {
            scale.duration_ms()
        };
        let sc = Scenario {
            duration_ms,
            drain_ms: scale.drain_ms(),
            ..presets::mixed(ia, 300.0, 40, 20_000)
        };
        let mut base = run(&sc, SimConfig::dctcp_baseline());
        let mut dibs = run(&sc, SimConfig::dctcp_dibs());
        baseline_vs_dibs_point(ia as f64, &mut base, &mut dibs)
    });
    for p in points {
        rec.push(p);
    }
    h.finish(&rec);
}
