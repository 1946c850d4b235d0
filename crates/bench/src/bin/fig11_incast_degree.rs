//! Figure 11: variable incast degree.
//!
//! Sweeps the number of responders per query 40–100 (20 KB responses,
//! 300 qps, light background).
//!
//! Paper shape: DIBS's advantage *grows* with degree (22 ms at degree 40 to
//! 33 ms at 100) because higher-degree bursts are burstier — the first-RTT
//! burst is `degree x init_cwnd` packets. At degree 100 around 1 % of
//! packets take 40+ detours.

use dibs::{presets, RunDescriptor, Scenario, SimConfig};
use dibs_bench::{baseline_vs_dibs_point, run, Harness};
use dibs_stats::ExperimentRecord;

fn main() {
    let h = Harness::from_env();
    let mut rec = ExperimentRecord::new(
        "fig11_incast_degree",
        "Variable incast degree (Fig 11)",
        "incast_degree",
    );
    rec.param("bg_interarrival_ms", 120)
        .param("qps", 300)
        .param("response_kb", 20)
        .param("duration_ms", h.scale.duration_ms());

    let sweep = [40usize, 60, 80, 100];
    let scale = h.scale;
    let master = h.master_seed;
    let points = h.executor().map(sweep.to_vec(), |deg| {
        let sc = Scenario {
            seed: RunDescriptor::new("fig11_incast_degree", "paired", deg as u64, 0)
                .paired_seed(master),
            duration_ms: scale.duration_ms(),
            drain_ms: scale.drain_ms(),
            ..presets::mixed(120, 300.0, deg, 20_000)
        };
        let mut base = run(&sc, SimConfig::dctcp_baseline());
        let mut dibs = run(&sc, SimConfig::dctcp_dibs());

        baseline_vs_dibs_point(deg as f64, &mut base, &mut dibs)
            .with("dibs_frac_40plus_detours", dibs.detoured_at_least(40))
    });
    for p in points {
        rec.push(p);
    }
    h.finish(&rec);
}
