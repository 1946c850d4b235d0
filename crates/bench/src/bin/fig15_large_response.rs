//! Figure 15: large query responses at high query rate — DIBS does *not*
//! break.
//!
//! Sweeps response sizes 60–160 KB at 2000 qps. Unlike the extreme-qps
//! sweep (Fig 14), large responses take several RTTs to transmit, which
//! gives DCTCP's ECN loop time to throttle the senders, so DIBS never
//! reaches a tipping point here.

use dibs::{presets, Scenario, SimConfig};
use dibs_bench::{baseline_vs_dibs_point, run, Harness};
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
        .param("duration_ms", h.scale.heavy_duration_ms());

    let sweep = [60u64, 80, 100, 120, 160];
    let scale = h.scale;
    let points = h.executor().map(sweep.to_vec(), |kb| {
        let sc = Scenario {
            duration_ms: scale.heavy_duration_ms(),
            drain_ms: scale.drain_ms() * 2,
            ..presets::mixed(120, 2000.0, 40, kb * 1000)
        };
        let mut base = run(&sc, SimConfig::dctcp_baseline());
        let mut dibs = run(&sc, SimConfig::dctcp_dibs());
        baseline_vs_dibs_point(kb as f64, &mut base, &mut dibs)
            .with("qct_done_frac_dibs", dibs.query_completion_rate())
    });
    for p in points {
        rec.push(p);
    }
    h.finish(&rec);
}
