//! §5.5.4: oversubscribed fabrics.
//!
//! Repeats the default mixed-workload comparison with inter-switch link
//! capacity divided by 1, 2, 3, 4 (the paper labels these 1:1, 1:4, 1:9,
//! 1:16 end-to-end oversubscription).
//!
//! Paper shape: DIBS's ~20 ms QCT win persists at every oversubscription
//! level without hurting background FCT — the last hop stays the query
//! bottleneck, and that is where DIBS avoids the losses.

use dibs::scenario::TopologySpec;
use dibs::{presets, Scenario, SimConfig};
use dibs_bench::{baseline_vs_dibs_point, run, Harness};
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
        .param("duration_ms", h.scale.duration_ms());

    let scale = h.scale;
    let points = h.executor().map(vec![1u64, 2, 3, 4], |div| {
        let sc = Scenario {
            topology: TopologySpec::FatTree {
                k: 8,
                oversubscription: div,
            },
            duration_ms: scale.duration_ms(),
            drain_ms: scale.drain_ms(),
            ..presets::paper_mixed()
        };
        let mut base = run(&sc, SimConfig::dctcp_baseline());
        let mut dibs = run(&sc, SimConfig::dctcp_dibs());
        baseline_vs_dibs_point(div as f64, &mut base, &mut dibs)
    });
    for p in points {
        rec.push(p);
    }
    h.finish(&rec);
}
