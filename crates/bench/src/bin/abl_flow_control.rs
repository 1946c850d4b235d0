//! Ablation: DIBS versus hop-by-hop Ethernet flow control (§6).
//!
//! Both mechanisms make the fabric (nearly) lossless. The paper's argument
//! is qualitative — PAUSE thresholds need tuning, pausing blocks innocent
//! traffic on the paused link (head-of-line blocking), and backpressure
//! spreads congestion upstream, while DIBS redirects only the overflow.
//! This bench quantifies that: mixed workload, three query intensities,
//! droptail vs PFC vs DIBS.

use dibs::{presets, PfcConfig, RunDescriptor, Scenario, SimConfig};
use dibs_bench::{run, Harness};
use dibs_stats::{ExperimentRecord, SeriesPoint};

fn main() {
    let h = Harness::from_env();
    let mut rec = ExperimentRecord::new(
        "abl_flow_control",
        "Ablation: DIBS vs Ethernet flow control (§6)",
        "qps",
    );
    rec.param("incast_degree", 40)
        .param("response_kb", 20)
        .param("bg_interarrival_ms", 120)
        .param("pfc_xoff", 12)
        .param("pfc_xon", 6)
        .param("duration_ms", h.scale.duration_ms());

    let scale = h.scale;
    let master = h.master_seed;
    let points = h.executor().map(vec![300.0f64, 1000.0, 2000.0], |qps| {
        // Sweep points are whole qps values well under 2^53.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let point = qps as u64;
        let sc = Scenario {
            seed: RunDescriptor::new("abl_flow_control", "paired", point, 0).paired_seed(master),
            duration_ms: scale.duration_ms(),
            drain_ms: scale.drain_ms(),
            ..presets::mixed(120, qps, 40, 20_000)
        };

        let mut droptail = run(&sc, SimConfig::dctcp_baseline());
        let mut pfc_cfg = SimConfig::dctcp_baseline();
        pfc_cfg.pfc = Some(PfcConfig::default_for_paper_buffers());
        let mut pfc = run(&sc, pfc_cfg);
        let mut dibs = run(&sc, SimConfig::dctcp_dibs());

        SeriesPoint::at(qps)
            .with(
                "qct_p99_ms_droptail",
                droptail.qct_p99_ms().unwrap_or(f64::NAN),
            )
            .with("qct_p99_ms_pfc", pfc.qct_p99_ms().unwrap_or(f64::NAN))
            .with("qct_p99_ms_dibs", dibs.qct_p99_ms().unwrap_or(f64::NAN))
            .with(
                "bg_fct_p99_ms_droptail",
                droptail.bg_fct_p99_ms().unwrap_or(f64::NAN),
            )
            .with("bg_fct_p99_ms_pfc", pfc.bg_fct_p99_ms().unwrap_or(f64::NAN))
            .with(
                "bg_fct_p99_ms_dibs",
                dibs.bg_fct_p99_ms().unwrap_or(f64::NAN),
            )
            .with("drops_droptail", droptail.counters.total_drops() as f64)
            .with("drops_pfc", pfc.counters.total_drops() as f64)
            .with("drops_dibs", dibs.counters.total_drops() as f64)
            .with("pause_events_pfc", pfc.pfc_pause_events as f64)
    });
    for p in points {
        rec.push(p);
    }
    h.finish(&rec);
}
