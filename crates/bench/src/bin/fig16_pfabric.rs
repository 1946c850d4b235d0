//! Figure 16: DIBS (DCTCP+DIBS) versus pFabric, mixed traffic, variable
//! query rate.
//!
//! Paper shape: (a) pFabric hurts large background flows at high query
//! rate (short flows get strict priority and starve them), while DIBS does
//! not prioritize and leaves background FCT flat; (b) at high qps DIBS even
//! edges out pFabric on QCT because pFabric's 24-packet buffers shed so
//! many packets that its hosts retransmit excessively.

use dibs::presets::{mixed_workload_sim, MixedWorkload};
use dibs::SimConfig;
use dibs_bench::Harness;
use dibs_net::builders::FatTreeParams;
use dibs_stats::{ExperimentRecord, SeriesPoint};

fn main() {
    let h = Harness::from_env();
    let mut rec = ExperimentRecord::new(
        "fig16_pfabric",
        "DIBS vs pFabric, variable query rate (Fig 16)",
        "qps",
    );
    rec.param("bg_interarrival_ms", 120)
        .param("incast_degree", 40)
        .param("response_kb", 20)
        .param("pfabric_buffer_pkts", 24)
        .param("pfabric_rto_us", 350)
        .param("duration_ms", h.scale.duration().as_millis_f64());

    let sweep = [300.0f64, 500.0, 1000.0, 1500.0, 2000.0];
    let base_wl = h.workload();
    let points = h.executor().map(sweep.to_vec(), |qps| {
        let wl = MixedWorkload { qps, ..base_wl };
        let tree = FatTreeParams::paper_default();
        let mut dibs = mixed_workload_sim(tree, SimConfig::dctcp_dibs(), wl).run();
        let mut pf = mixed_workload_sim(tree, SimConfig::pfabric(), wl).run();
        SeriesPoint::at(qps)
            .with("qct_p99_ms_dibs", dibs.qct_p99_ms().unwrap_or(f64::NAN))
            .with("qct_p99_ms_pfabric", pf.qct_p99_ms().unwrap_or(f64::NAN))
            // Fig 16(a) looks at all background flows: pFabric's starvation
            // shows up in the large-flow tail.
            .with(
                "bg_all_fct_p99_ms_dibs",
                dibs.bg_all_fct_ms.percentile(0.99).unwrap_or(f64::NAN),
            )
            .with(
                "bg_all_fct_p99_ms_pfabric",
                pf.bg_all_fct_ms.percentile(0.99).unwrap_or(f64::NAN),
            )
            .with("drops_dibs", dibs.counters.total_drops() as f64)
            .with("drops_pfabric", pf.counters.total_drops() as f64)
            .with("timeouts_pfabric", pf.counters.rto_timeouts as f64)
            .with("timeouts_dibs", dibs.counters.rto_timeouts as f64)
    });
    for p in points {
        rec.push(p);
    }
    h.finish(&rec);
}
