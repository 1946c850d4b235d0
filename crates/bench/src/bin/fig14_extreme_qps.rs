//! Figure 14: when does DIBS break? Extreme query rates.
//!
//! Sweeps 6000–15000 qps (degree 40, 20 KB responses, light background).
//!
//! Paper shape: both schemes degrade, but past ~10 k qps DIBS's completion
//! times explode — detoured packets no longer drain before new bursts
//! arrive, queues build everywhere, and detouring becomes *worse* than
//! dropping. Below the tipping point DIBS still wins.

use dibs::{presets, RunDescriptor, Scenario, SimConfig};
use dibs_bench::{baseline_vs_dibs_point, run, Harness};
use dibs_stats::ExperimentRecord;

fn main() {
    let h = Harness::from_env();
    let mut rec = ExperimentRecord::new(
        "fig14_extreme_qps",
        "Extreme query intensity — the DIBS breaking point (Fig 14)",
        "qps",
    );
    rec.param("bg_interarrival_ms", 120)
        .param("incast_degree", 40)
        .param("response_kb", 20)
        .param("duration_ms", h.scale.heavy_duration_ms());

    let sweep = [6000.0f64, 8000.0, 10000.0, 12000.0, 14000.0];
    let scale = h.scale;
    let master = h.master_seed;
    let points = h.executor().map(sweep.to_vec(), |qps| {
        // Sweep points are whole qps values well under 2^53.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let point = qps as u64;
        let sc = Scenario {
            seed: RunDescriptor::new("fig14_extreme_qps", "paired", point, 0).paired_seed(master),
            duration_ms: scale.heavy_duration_ms(),
            // Generous drain: under collapse, completions trickle in late.
            drain_ms: scale.drain_ms() * 2,
            ..presets::mixed(120, qps, 40, 20_000)
        };
        let mut base = run(&sc, SimConfig::dctcp_baseline());
        let mut dibs = run(&sc, SimConfig::dctcp_dibs());
        baseline_vs_dibs_point(qps, &mut base, &mut dibs)
            .with("qct_done_frac_dctcp", base.query_completion_rate())
            .with("qct_done_frac_dibs", dibs.query_completion_rate())
    });
    for p in points {
        rec.push(p);
    }
    h.finish(&rec);
}
