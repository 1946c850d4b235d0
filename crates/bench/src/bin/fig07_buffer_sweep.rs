//! Figure 7: 99th-percentile QCT versus switch buffer size, three systems:
//! DCTCP, DCTCP with infinite buffers, and DCTCP+DIBS.
//!
//! Paper shape: DIBS tracks the infinite-buffer line at every size and its
//! advantage over plain DCTCP grows as buffers shrink.

use dibs::{presets, RunDescriptor, Scenario, SimConfig};
use dibs_bench::{run, Harness};
use dibs_stats::{ExperimentRecord, SeriesPoint};
use dibs_switch::BufferConfig;

fn main() {
    let h = Harness::from_env();
    let mut rec = ExperimentRecord::new(
        "fig07_buffer_sweep",
        "QCT vs buffer size: DCTCP / DCTCP+infinite / DCTCP+DIBS (Fig 7)",
        "buffer_pkts",
    );
    rec.param("qps", 300)
        .param("incast_degree", 40)
        .param("response_kb", 20)
        .param("bg_interarrival_ms", 120)
        .param("duration_ms", h.scale.duration_ms());

    let sweep = [25usize, 100, 300, 500, 700];
    let scale = h.scale;
    let master = h.master_seed;
    let points = h.executor().map(sweep.to_vec(), |pkts| {
        // All three arms at a point share a paired seed: identical traffic.
        let sc = Scenario {
            seed: RunDescriptor::new("fig07_buffer_sweep", "paired", pkts as u64, 0)
                .paired_seed(master),
            duration_ms: scale.duration_ms(),
            drain_ms: scale.drain_ms(),
            ..presets::paper_mixed()
        };
        let sized = |mut cfg: SimConfig| {
            cfg.switch.buffer = BufferConfig::StaticPerPort { packets: pkts };
            cfg.switch.ecn_threshold = Some(20.min(pkts.saturating_sub(1).max(1)));
            cfg
        };
        let mut dctcp = run(&sc, sized(SimConfig::dctcp_baseline()));
        let mut dibs = run(&sc, sized(SimConfig::dctcp_dibs()));
        // Infinite buffers are size-independent, but rerun per point so the
        // series aligns (it also keeps the ECN threshold identical).
        let mut inf_cfg = sized(SimConfig::dctcp_baseline());
        inf_cfg.switch.buffer = BufferConfig::Infinite;
        let mut inf = run(&sc, inf_cfg);
        SeriesPoint::at(pkts as f64)
            .with("qct_p99_ms_dctcp", dctcp.qct_p99_ms().unwrap_or(f64::NAN))
            .with("qct_p99_ms_dctcp_inf", inf.qct_p99_ms().unwrap_or(f64::NAN))
            .with("qct_p99_ms_dibs", dibs.qct_p99_ms().unwrap_or(f64::NAN))
            .with("drops_dctcp", dctcp.counters.total_drops() as f64)
            .with("drops_dibs", dibs.counters.total_drops() as f64)
    });
    for p in points {
        rec.push(p);
    }
    h.finish(&rec);
}
