//! Figure 10: variable query response size.
//!
//! Sweeps the per-responder response size 20–50 KB (degree 40, 300 qps,
//! light background).
//!
//! Paper shape: DIBS's QCT advantage shrinks as responses grow (21 ms at
//! 20 KB down to ~6 ms at 50 KB) because bigger bursts mean more detours
//! and occasional spurious timeouts; background FCT damage grows mildly
//! (1.2 ms at 20 KB to 4.4 ms at 50 KB); DIBS still never drops.

use dibs::{presets, Scenario, SimConfig};
use dibs_bench::{baseline_vs_dibs_point, run, Harness};
use dibs_stats::ExperimentRecord;

fn main() {
    let h = Harness::from_env();
    let mut rec = ExperimentRecord::new(
        "fig10_response_size",
        "Variable query response size (Fig 10)",
        "response_kb",
    );
    rec.param("bg_interarrival_ms", 120)
        .param("incast_degree", 40)
        .param("qps", 300)
        .param("duration_ms", h.scale.duration_ms());

    let sweep = [20u64, 30, 40, 50];
    let scale = h.scale;
    let points = h.executor().map(sweep.to_vec(), |kb| {
        let sc = Scenario {
            duration_ms: scale.duration_ms(),
            drain_ms: scale.drain_ms(),
            ..presets::mixed(120, 300.0, 40, kb * 1000)
        };
        let mut base = run(&sc, SimConfig::dctcp_baseline());
        let mut dibs = run(&sc, SimConfig::dctcp_dibs());
        baseline_vs_dibs_point(kb as f64, &mut base, &mut dibs)
    });
    for p in points {
        rec.push(p);
    }
    h.finish(&rec);
}
