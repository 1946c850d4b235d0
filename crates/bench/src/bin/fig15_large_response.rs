//! Figure 15: large query responses at high query rate — DIBS does *not*
//! break.
//!
//! Sweeps response sizes 60–160 KB at 2000 qps. Unlike the extreme-qps
//! sweep (Fig 14), large responses take several RTTs to transmit, which
//! gives DCTCP's ECN loop time to throttle the senders, so DIBS never
//! reaches a tipping point here.

use dibs::presets::{mixed_workload_sim, MixedWorkload};
use dibs::SimConfig;
use dibs_bench::{baseline_vs_dibs_point, Harness};
use dibs_net::builders::FatTreeParams;
use dibs_stats::ExperimentRecord;

fn main() {
    let h = Harness::from_env();
    let mut rec = ExperimentRecord::new(
        "fig15_large_response",
        "Large query response sizes at 2000 qps (Fig 15)",
        "response_kb",
    );
    rec.param("bg_interarrival_ms", 120)
        .param("incast_degree", 40)
        .param("qps", 2000)
        .param("duration_ms", h.scale.heavy_duration().as_millis_f64());

    let sweep = [60u64, 80, 100, 120, 160];
    let scale = h.scale;
    let points = h.executor().map(sweep.to_vec(), |kb| {
        let wl = MixedWorkload {
            qps: 2000.0,
            response_bytes: kb * 1000,
            duration: scale.heavy_duration(),
            drain: scale.drain() * 2,
            ..MixedWorkload::paper_default()
        };
        let tree = FatTreeParams::paper_default();
        let mut base = mixed_workload_sim(tree, SimConfig::dctcp_baseline(), wl).run();
        let mut dibs = mixed_workload_sim(tree, SimConfig::dctcp_dibs(), wl).run();
        baseline_vs_dibs_point(kb as f64, &mut base, &mut dibs)
            .with("qct_done_frac_dibs", dibs.query_completion_rate())
    });
    for p in points {
        rec.push(p);
    }
    h.finish(&rec);
}
