//! Figure 12: variable per-port buffer size (1–200 packets) under heavy
//! background traffic (10 ms inter-arrival).
//!
//! Paper shape: (a) background FCT — no collateral damage from DIBS at any
//! buffer size; (b) query QCT — DIBS wins dramatically at small buffers
//! (where DCTCP drops constantly) and the two converge at large buffers.

use dibs::{presets, RunDescriptor, Scenario, SimConfig};
use dibs_bench::{baseline_vs_dibs_point, run, Harness};
use dibs_stats::ExperimentRecord;
use dibs_switch::BufferConfig;

fn main() {
    let h = Harness::from_env();
    let mut rec = ExperimentRecord::new(
        "fig12_buffer_size",
        "Variable buffer size under heavy background (Fig 12)",
        "buffer_pkts",
    );
    rec.param("bg_interarrival_ms", 10)
        .param("qps", 300)
        .param("incast_degree", 40)
        .param("response_kb", 20)
        .param("duration_ms", h.scale.heavy_duration_ms());

    // The ECN threshold must fit inside the buffer at small sizes.
    let sweep = [1usize, 5, 10, 25, 40, 100, 200];
    let scale = h.scale;
    let master = h.master_seed;
    let points = h.executor().map(sweep.to_vec(), |pkts| {
        let sc = Scenario {
            seed: RunDescriptor::new("fig12_buffer_size", "paired", pkts as u64, 0)
                .paired_seed(master),
            duration_ms: scale.heavy_duration_ms(),
            drain_ms: scale.drain_ms(),
            ..presets::mixed(10, 300.0, 40, 20_000)
        };
        let configure = |mut cfg: SimConfig| {
            cfg.switch.buffer = BufferConfig::StaticPerPort { packets: pkts };
            // Keep the DCTCP marking threshold below the buffer limit.
            cfg.switch.ecn_threshold = Some(20.min(pkts.saturating_sub(1).max(1)));
            cfg
        };
        let mut base = run(&sc, configure(SimConfig::dctcp_baseline()));
        let mut dibs = run(&sc, configure(SimConfig::dctcp_dibs()));
        baseline_vs_dibs_point(pkts as f64, &mut base, &mut dibs)
            .with("qct_done_frac_dctcp", base.query_completion_rate())
            .with("qct_done_frac_dibs", dibs.query_completion_rate())
    });
    for p in points {
        rec.push(p);
    }
    h.finish(&rec);
}
