//! Figure 1: the path of one heavily detoured packet on the K=8 fat-tree.
//!
//! Runs a single large incast under a `dibs-trace` capture, picks the
//! most-detoured delivered packet, rebuilds its hop sequence with
//! [`delivered_path`], and prints the arc-weight summary the paper draws
//! (how often each directed arc was traversed, with detour arcs flagged).
//! Pass `--trace SPEC` to change the capture and also dump the
//! Chrome-viewable JSON.

use dibs::{presets, Scenario, SimConfig};
use dibs_bench::Harness;
use dibs_net::ids::NodeId;
use dibs_stats::{ExperimentRecord, SeriesPoint};
use dibs_trace::{delivered_path, TraceKind};
use std::collections::BTreeMap;

/// The incast target; responders go round-robin over hosts 1-100.
const TARGET: u32 = 0;

fn main() {
    let h = Harness::from_env();
    let sc = Scenario {
        seed: 12,
        ..presets::single_incast(8, TARGET, 100, 20_000)
    };
    let mut sim = sc
        .build_with(SimConfig::dctcp_dibs())
        .expect("the incast scenario builds");
    // The path query needs each packet's source, queue admissions and
    // delivery; a user --trace spec widens (or narrows) the capture.
    sim.set_tracer(h.tracer_or("send,retransmit,ack,enqueue,detour,deliver"));
    let results = sim.run();
    let Some(trace) = &results.trace else {
        eprintln!("fig01: tracer captured nothing (was --trace off?); no figure");
        return;
    };
    let events = &trace.events;
    let topo = sc.topology.build(sc.seed);

    let detoured = || {
        events
            .iter()
            .filter(|e| e.kind == TraceKind::Deliver && e.detours > 0)
    };
    // The last delivery among those with the most detours.
    let Some(most) = detoured().max_by_key(|e| e.detours) else {
        println!("no detoured packets captured — increase the incast degree");
        return;
    };
    let path = delivered_path(events, most.packet);
    let name = |node: u32| topo.node(NodeId(node)).name.as_str();

    println!(
        "# fig01_detour_path — most-detoured packet: {} detours, {} hops",
        most.detours,
        path.len()
    );
    println!("# hop sequence (d = arrived via detour):");
    let names: Vec<String> = path
        .iter()
        .map(|&(n, d)| format!("{}{}", name(n), if d { "(d)" } else { "" }))
        .collect();
    println!("#   {}", names.join(" -> "));

    // Arc weights, as in the figure.
    let mut arcs: BTreeMap<(&str, &str, bool), u32> = BTreeMap::new();
    for w in path.windows(2) {
        let arc = (name(w[0].0), name(w[1].0), w[1].1);
        *arcs.entry(arc).or_insert(0) += 1;
    }
    println!("{:>24} {:>24} {:>8} {:>7}", "from", "to", "detour", "count");
    for ((from, to, det), count) in &arcs {
        println!("{from:>24} {to:>24} {det:>8} {count:>7}");
    }

    // Also persist summary statistics.
    let mut rec = ExperimentRecord::new(
        "fig01_detour_path",
        "Most-detoured packet path (Fig 1)",
        "metric",
    );
    rec.param("incast_degree", 100)
        .param("response_kb", 20)
        .param("target", TARGET);
    rec.push(
        SeriesPoint::at(0.0)
            .with("max_detours", f64::from(most.detours))
            .with("hops", path.len() as f64)
            .with("traced_paths", detoured().count() as f64)
            .with("total_detour_events", results.counters.detours as f64)
            .with("drops", results.counters.total_drops() as f64),
    );
    h.export_trace("fig01_detour_path", &results);
    h.finish(&rec);
}
