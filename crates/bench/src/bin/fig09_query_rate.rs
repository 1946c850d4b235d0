//! Figure 9: variable query arrival rate.
//!
//! Sweeps the query rate 300–2000 qps with light background (120 ms
//! inter-arrival), degree 40, 20 KB responses.
//!
//! Paper shape: DIBS improves 99th QCT by ~20 ms across the sweep; at the
//! highest rates DIBS also *improves* background FCT, because without it
//! background flows start losing packets to query bursts.

use dibs::{presets, RunDescriptor, Scenario, SimConfig};
use dibs_bench::{baseline_vs_dibs_point, run, Harness};
use dibs_stats::ExperimentRecord;

fn main() {
    let h = Harness::from_env();
    let mut rec = ExperimentRecord::new(
        "fig09_query_rate",
        "Variable query arrival rate (Fig 9)",
        "qps",
    );
    rec.param("bg_interarrival_ms", 120)
        .param("incast_degree", 40)
        .param("response_kb", 20)
        .param("duration_ms", h.scale.duration_ms());

    let sweep = [300.0f64, 500.0, 1000.0, 1500.0, 2000.0];
    let scale = h.scale;
    let master = h.master_seed;
    let points = h.executor().map(sweep.to_vec(), |qps| {
        // Sweep points are whole qps values well under 2^53.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let point = qps as u64;
        let sc = Scenario {
            seed: RunDescriptor::new("fig09_query_rate", "paired", point, 0).paired_seed(master),
            duration_ms: scale.duration_ms(),
            drain_ms: scale.drain_ms(),
            ..presets::mixed(120, qps, 40, 20_000)
        };
        let mut base = run(&sc, SimConfig::dctcp_baseline());
        let mut dibs = run(&sc, SimConfig::dctcp_dibs());
        baseline_vs_dibs_point(qps, &mut base, &mut dibs)
    });
    for p in points {
        rec.push(p);
    }
    h.finish(&rec);
}
