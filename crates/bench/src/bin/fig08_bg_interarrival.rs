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

use dibs::presets::{mixed_workload_sim, MixedWorkload};
use dibs::SimConfig;
use dibs_bench::{baseline_vs_dibs_point, Harness};
use dibs_engine::time::SimDuration;
use dibs_net::builders::FatTreeParams;
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
        .param("duration_ms", h.scale.duration().as_millis_f64());

    let sweep = [10u64, 20, 40, 80, 120];
    let scale = h.scale;
    let points = h.executor().map(sweep.to_vec(), |ia| {
        // Heavy background needs the shorter window to stay tractable.
        let duration = if ia <= 20 {
            scale.heavy_duration()
        } else {
            scale.duration()
        };
        let wl = MixedWorkload {
            bg_interarrival: SimDuration::from_millis(ia),
            duration,
            drain: scale.drain(),
            ..MixedWorkload::paper_default()
        };
        let tree = FatTreeParams::paper_default();
        let mut base = mixed_workload_sim(tree, SimConfig::dctcp_baseline(), wl).run();
        let mut dibs = mixed_workload_sim(tree, SimConfig::dctcp_dibs(), wl).run();
        baseline_vs_dibs_point(ia as f64, &mut base, &mut dibs)
    });
    for p in points {
        rec.push(p);
    }
    h.finish(&rec);
}
