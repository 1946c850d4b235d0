//! Trace a single detoured packet through the fabric (Figure 1).
//!
//! Runs one 100-way incast on the K=8 fat-tree under a `dibs-trace`
//! capture, then rebuilds and prints the full hop-by-hop journey of the
//! most-detoured packet — the reproduction of the paper's Figure 1
//! walkthrough.
//!
//! ```text
//! cargo run --release --example detour_trace
//! ```

use dibs::{presets, Scenario, SimConfig, TraceSpec, Tracer};
use dibs_net::ids::NodeId;
use dibs_trace::{delivered_path, TraceKind};

fn main() {
    // Hosts 1-100 answer host 0.
    let sc = Scenario {
        seed: 12,
        ..presets::single_incast(8, 0, 100, 20_000)
    };
    let mut sim = sc
        .build_with(SimConfig::dctcp_dibs())
        .expect("preset builds");
    let spec: TraceSpec = "send,retransmit,ack,enqueue,detour,deliver"
        .parse()
        .expect("valid trace spec");
    sim.set_tracer(Tracer::from_spec(&spec));
    let results = sim.run();
    let events = &results.trace.as_ref().expect("tracer installed").events;
    let topo = sc.topology.build(sc.seed);

    println!(
        "incast degree 100, 20 KB responses: {} packets detoured at least once, {} detour events, {} drops\n",
        results.counters.delivered_detoured,
        results.counters.detours,
        results.counters.total_drops()
    );

    // The last delivery among those with the most detours.
    let Some(most) = events
        .iter()
        .filter(|e| e.kind == TraceKind::Deliver && e.detours > 0)
        .max_by_key(|e| e.detours)
    else {
        println!("no detoured packet captured");
        return;
    };
    let path = delivered_path(events, most.packet);
    println!(
        "most-detoured packet: {} detours over {} hops",
        most.detours,
        path.len() - 1
    );
    for (i, &(node, det)) in path.iter().enumerate() {
        println!(
            "  {:>3}  {}{}",
            i,
            topo.node(NodeId(node)).name,
            if det {
                "   <- detoured onto this hop"
            } else {
                ""
            }
        );
    }

    // Detour depth distribution, as discussed in §5.4.4.
    println!("\ndetour-count distribution over all delivered packets:");
    let total: u64 = results.detour_histogram.iter().sum();
    for (k, &count) in results.detour_histogram.iter().enumerate() {
        if count > 0 && k > 0 {
            println!(
                "  {:>3} detours: {:>9} packets ({:.3}%)",
                k,
                count,
                100.0 * count as f64 / total as f64
            );
        }
    }
}
