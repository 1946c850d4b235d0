//! §5.5.4: oversubscribed fabrics.
//!
//! Repeats the default mixed-workload comparison with inter-switch link
//! capacity divided by 1, 2, 3, 4 (the paper labels these 1:1, 1:4, 1:9,
//! 1:16 end-to-end oversubscription).
//!
//! Paper shape: DIBS's ~20 ms QCT win persists at every oversubscription
//! level without hurting background FCT — the last hop stays the query
//! bottleneck, and that is where DIBS avoids the losses.

use dibs::presets::mixed_workload_sim;
use dibs::SimConfig;
use dibs_bench::{baseline_vs_dibs_point, Harness};
use dibs_net::builders::FatTreeParams;
use dibs_stats::ExperimentRecord;

fn main() {
    let h = Harness::from_env();
    let mut rec = ExperimentRecord::new(
        "tab_oversubscription",
        "Oversubscribed fabrics (§5.5.4)",
        "fabric_rate_divisor",
    );
    rec.param("qps", 300)
        .param("incast_degree", 40)
        .param("response_kb", 20)
        .param("bg_interarrival_ms", 120)
        .param("duration_ms", h.scale.duration().as_millis_f64());

    let wl = h.workload();
    let points = h.executor().map(vec![1u64, 2, 3, 4], |div| {
        let tree = FatTreeParams::oversubscribed(div);
        let mut base = mixed_workload_sim(tree, SimConfig::dctcp_baseline(), wl).run();
        let mut dibs = mixed_workload_sim(tree, SimConfig::dctcp_dibs(), wl).run();
        baseline_vs_dibs_point(div as f64, &mut base, &mut dibs)
    });
    for p in points {
        rec.push(p);
    }
    h.finish(&rec);
}
