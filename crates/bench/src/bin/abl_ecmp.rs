//! Ablation: can better multipath routing substitute for DIBS? (§6)
//!
//! The paper argues no: "when multiple flows converge on a single receiver
//! and the edge switch becomes a bottleneck, even packet-level, load-aware
//! routing will not help, while DIBS can." This bench runs the incast-heavy
//! mixed workload under flow-level ECMP, packet-level ECMP (spraying), and
//! flow-level ECMP + DIBS.

use dibs::{presets, EcmpMode, RunDescriptor, Scenario, SimConfig};
use dibs_bench::{run, Harness};
use dibs_stats::{ExperimentRecord, SeriesPoint};
use dibs_transport::FastRetransmit;

fn main() {
    let h = Harness::from_env();
    let mut rec = ExperimentRecord::new(
        "abl_ecmp",
        "Ablation: flow-level vs packet-level ECMP vs DIBS (§6)",
        "qps",
    );
    rec.param("incast_degree", 40)
        .param("response_kb", 20)
        .param("bg_interarrival_ms", 120)
        .param("duration_ms", h.scale.duration_ms());

    let scale = h.scale;
    let master = h.master_seed;
    let points = h.executor().map(vec![300.0f64, 1000.0, 2000.0], |qps| {
        // Sweep points are whole qps values well under 2^53.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let point = qps as u64;
        let sc = Scenario {
            seed: RunDescriptor::new("abl_ecmp", "paired", point, 0).paired_seed(master),
            duration_ms: scale.duration_ms(),
            drain_ms: scale.drain_ms(),
            ..presets::mixed(120, qps, 40, 20_000)
        };

        let mut flow_ecmp = run(&sc, SimConfig::dctcp_baseline());
        // Packet spraying reorders, so give it the same dupack forbearance
        // DIBS gets.
        let mut spray_cfg = SimConfig::dctcp_baseline();
        spray_cfg.ecmp = EcmpMode::PacketLevel;
        spray_cfg.tcp.fast_retransmit = FastRetransmit::Disabled;
        let mut spray = run(&sc, spray_cfg);
        let mut dibs = run(&sc, SimConfig::dctcp_dibs());

        SeriesPoint::at(qps)
            .with(
                "qct_p99_ms_flow_ecmp",
                flow_ecmp.qct_p99_ms().unwrap_or(f64::NAN),
            )
            .with(
                "qct_p99_ms_pkt_ecmp",
                spray.qct_p99_ms().unwrap_or(f64::NAN),
            )
            .with("qct_p99_ms_dibs", dibs.qct_p99_ms().unwrap_or(f64::NAN))
            .with("drops_flow_ecmp", flow_ecmp.counters.total_drops() as f64)
            .with("drops_pkt_ecmp", spray.counters.total_drops() as f64)
            .with("drops_dibs", dibs.counters.total_drops() as f64)
    });
    for p in points {
        rec.push(p);
    }
    h.finish(&rec);
}
