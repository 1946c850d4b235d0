//! Figure 6: the Click/Emulab incast experiment, reproduced in simulation.
//!
//! 5 servers each send 10 simultaneous 32 KB flows to a sixth server on the
//! 2-aggregation / 3-edge testbed; 50 repetitions (different seeds) under
//! three configurations: infinite buffers, droptail with 100-packet
//! buffers, and DIBS with 100-packet buffers.
//!
//! Paper shape: infinite buffers complete all queries in ~25 ms; DIBS in
//! ~27 ms; droptail spans 26–51 ms because ~9 % of individual flows take a
//! retransmission timeout (Fig 6b) and every query is held back by at
//! least one such flow.

use dibs::{presets, Scenario, SimConfig};
use dibs_bench::{run, Harness};
use dibs_stats::{ExperimentRecord, Samples, SeriesPoint};
use dibs_switch::BufferConfig;

fn main() {
    let h = Harness::from_env();
    let reps: u64 = match h.scale {
        dibs_bench::Scale::Quick => 10,
        _ => 50,
    };

    let mut variants: Vec<(&str, SimConfig)> = Vec::new();
    let mut inf = SimConfig::dctcp_baseline();
    inf.switch.buffer = BufferConfig::Infinite;
    variants.push(("infinite_buf", inf));
    variants.push(("droptail_100", SimConfig::dctcp_baseline()));
    variants.push(("dibs", SimConfig::dctcp_dibs()));

    let mut rec = ExperimentRecord::new(
        "fig06_testbed_incast",
        "Testbed incast: QCT and per-flow durations over 50 runs (Fig 6)",
        "percentile",
    );
    // Round-robin responders: 50 flows are 10 from each of hosts 0-4.
    let incast = presets::testbed_incast(50, 32_000);
    rec.param("senders", 5)
        .param("flows_per_sender", 10)
        .param("target", 5)
        .param("flow_kb", 32)
        .param("repetitions", reps);

    // Collect QCT and per-flow duration distributions per variant.
    let mut qct: Vec<(String, Samples)> = Vec::new();
    let mut flow_dur: Vec<(String, Samples)> = Vec::new();
    for (name, cfg) in &variants {
        let runs = h.executor().map((0..reps).collect::<Vec<u64>>(), |seed| {
            let sc = Scenario {
                seed: seed + 1,
                ..incast.clone()
            };
            let results = run(&sc, *cfg);
            let q = results.queries[0]
                .qct
                .map(|d| d.as_millis_f64())
                .unwrap_or(f64::NAN);
            let durations: Vec<f64> = results
                .flows
                .iter()
                .filter_map(|f| f.fct.map(|d| d.as_millis_f64()))
                .collect();
            let drops = results.counters.total_drops();
            (q, durations, drops)
        });
        let mut qs = Samples::new();
        let mut ds = Samples::new();
        let mut total_drops = 0u64;
        for (q, durations, drops) in runs {
            qs.push(q);
            for d in durations {
                ds.push(d);
            }
            total_drops += drops;
        }
        rec.param(&format!("total_drops_{name}"), total_drops);
        qct.push((name.to_string(), qs));
        flow_dur.push(((*name).to_string(), ds));
    }

    // Emit the CDFs at fixed percentiles, one row per percentile.
    for pct in [0.0, 0.10, 0.25, 0.50, 0.75, 0.90, 0.99, 1.0] {
        let mut point = SeriesPoint::at(pct);
        for (name, qs) in qct.iter_mut() {
            point = point.with(&format!("qct_ms_{name}"), qs.percentile(pct).unwrap());
        }
        for (name, ds) in flow_dur.iter_mut() {
            point = point.with(&format!("flow_ms_{name}"), ds.percentile(pct).unwrap());
        }
        rec.push(point);
    }
    h.finish(&rec);
}
