//! Figure 16: DIBS (DCTCP+DIBS) versus pFabric, mixed traffic, variable
//! query rate.
//!
//! Paper shape: (a) pFabric hurts large background flows at high query
//! rate (short flows get strict priority and starve them), while DIBS does
//! not prioritize and leaves background FCT flat; (b) at high qps DIBS even
//! edges out pFabric on QCT because pFabric's 24-packet buffers shed so
//! many packets that its hosts retransmit excessively.

use dibs::{presets, Scenario, SimConfig};
use dibs_bench::{run, Harness};
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
        .param("duration_ms", h.scale.duration_ms());

    let sweep = [300.0f64, 500.0, 1000.0, 1500.0, 2000.0];
    let scale = h.scale;
    let points = h.executor().map(sweep.to_vec(), |qps| {
        let sc = Scenario {
            duration_ms: scale.duration_ms(),
            drain_ms: scale.drain_ms(),
            ..presets::mixed(120, qps, 40, 20_000)
        };
        let mut dibs = run(&sc, SimConfig::dctcp_dibs());
        let mut pf = run(&sc, SimConfig::pfabric());
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
