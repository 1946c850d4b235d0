//! End-to-end checks on the trace itself: a traced incast exports valid
//! Chrome-trace JSON, the post-hoc query helpers can reconstruct a
//! detoured packet's full hop sequence from the event stream — including
//! the Fig 1 path of the most-detoured delivery — and the stream agrees
//! with the run's counters.

use dibs::{
    presets, RunDescriptor, RunResults, Scenario, SimConfig, Simulation, TraceSpec, Tracer,
};
use dibs_net::builders::{fat_tree, FatTreeParams};
use dibs_net::ids::NodeId;
use dibs_switch::BufferConfig;
use dibs_trace::{
    delivered_path, detour_loop_packets, flow_packets, is_chrome_trace, packet_hops,
    packet_lifecycle, per_flow_hops, TraceKind, TraceReport,
};

fn k4() -> FatTreeParams {
    FatTreeParams {
        k: 4,
        ..FatTreeParams::paper_default()
    }
}

/// The golden buffer-sweep point: 25-packet buffers force heavy
/// detouring, so the trace is guaranteed to contain detoured packets.
fn incast_sim() -> Simulation {
    let d = RunDescriptor::new("golden_buffer_sweep", "dibs", 25, 0);
    let mut cfg = SimConfig::dctcp_dibs();
    cfg.switch.buffer = BufferConfig::StaticPerPort { packets: 25 };
    cfg.switch.ecn_threshold = Some(20);
    let sc = Scenario {
        seed: d.seed(0xD1B5_2014),
        ..presets::single_incast(4, 0, 8, 20_000)
    };
    sc.build_with(cfg).expect("incast builds")
}

/// Runs `sim` with a full (unbounded, every kind) trace capture.
fn run_traced(mut sim: Simulation) -> RunResults {
    let spec: TraceSpec = "all".parse().expect("valid spec");
    sim.set_tracer(Tracer::from_spec(&spec));
    sim.run()
}

fn traced_incast() -> TraceReport {
    run_traced(incast_sim())
        .trace
        .expect("tracer was installed")
}

/// Counts the trace stream's switch facts and checks them against the
/// counters, which the simulator keeps on a separate path: detours per
/// switch, ECN marks, and every drop (TTL expiry included).
fn assert_trace_matches_counters(sim: Simulation) -> RunResults {
    let switch_nodes: Vec<u32> = sim.topology().switch_nodes().iter().map(|n| n.0).collect();
    let results = run_traced(sim);
    let report = results.trace.as_ref().expect("tracer was installed");
    assert_eq!(report.dropped, 0, "a full capture loses no event");
    let count = |kind: TraceKind, node: Option<u32>| {
        report
            .events
            .iter()
            .filter(|e| e.kind == kind && node.is_none_or(|n| e.node == n))
            .count() as u64
    };
    assert_eq!(results.detours_per_switch.len(), switch_nodes.len());
    for (si, &node) in switch_nodes.iter().enumerate() {
        assert_eq!(
            count(TraceKind::Detour, Some(node)),
            results.detours_per_switch[si],
            "detours at switch {si} (node {node})"
        );
    }
    assert_eq!(count(TraceKind::Detour, None), results.counters.detours);
    assert_eq!(count(TraceKind::EcnMark, None), results.counters.ecn_marks);
    assert_eq!(
        count(TraceKind::Drop, None) + count(TraceKind::TtlExpire, None),
        results.counters.total_drops()
    );
    results
}

#[test]
fn trace_stream_agrees_with_counters_dibs_incast() {
    let r = assert_trace_matches_counters(incast_sim());
    assert!(r.counters.detours > 0, "25-packet buffers must detour");
    assert!(r.counters.ecn_marks > 0);
}

#[test]
fn trace_stream_agrees_with_counters_pfabric_incast() {
    let sim = presets::single_incast(4, 0, 8, 20_000)
        .build_with(SimConfig::pfabric())
        .expect("incast builds");
    let r = assert_trace_matches_counters(sim);
    assert!(
        r.counters.drops_displaced > 0,
        "24-packet pFabric queues must displace"
    );
}

#[test]
fn traced_incast_exports_valid_chrome_json() {
    let report = traced_incast();
    assert!(
        !report.events.is_empty(),
        "full trace of an incast is never empty"
    );

    let json = report.chrome_trace();
    assert!(
        is_chrome_trace(&json),
        "exporter emitted a non-Chrome shape"
    );

    // Round-trip: the rendered text must re-parse as JSON and keep shape.
    let rendered = json.render_pretty();
    let reparsed = dibs_json::Json::parse(&rendered).expect("rendered Chrome JSON re-parses");
    assert!(is_chrome_trace(&reparsed));

    // The text dump and its fingerprint are deterministic over the report.
    assert_eq!(report.fingerprint(), report.fingerprint());
    assert!(report.text_dump().starts_with("trace mode"));
}

#[test]
fn packet_lifecycle_reconstructs_a_detoured_packet() {
    let report = traced_incast();
    let events = &report.events;

    // Find a detoured data packet that was eventually delivered.
    let detoured: Vec<u64> = events
        .iter()
        .filter(|e| e.kind == TraceKind::Detour)
        .map(|e| e.packet)
        .collect();
    assert!(!detoured.is_empty(), "25-packet buffers must detour");
    let delivered = detoured
        .iter()
        .copied()
        .find(|&p| {
            let life = packet_lifecycle(events, p);
            life.first().is_some_and(|e| e.kind == TraceKind::Send)
                && life.last().is_some_and(|e| e.kind == TraceKind::Deliver)
        })
        .expect("some detoured packet was sent and delivered");

    let life = packet_lifecycle(events, delivered);
    assert!(life.iter().any(|e| e.kind == TraceKind::Detour));
    assert!(
        life.windows(2).all(|w| w[0].t_ns <= w[1].t_ns),
        "lifecycle must be time-ordered"
    );

    // The hop list covers every switch the packet visited, in order, and
    // marks which hops were detours.
    let hops = packet_hops(events, delivered);
    assert!(hops.len() >= 2, "a detoured packet crosses several queues");
    assert!(hops.iter().any(|h| h.detour), "detour hop must be marked");
    assert!(hops.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));

    // Flow-level views agree with the packet-level ones.
    let flow = life[0].flow;
    let pkts = flow_packets(events, flow);
    assert!(pkts.contains(&delivered));
    let by_pkt = per_flow_hops(events, flow);
    assert_eq!(by_pkt.get(&delivered), Some(&hops));

    // Loop detection only ever reports packets that actually detoured.
    let loopers = detour_loop_packets(events);
    assert!(loopers.iter().all(|p| detoured.contains(p)));

    // Fig 1: the most-detoured delivery's path runs source host ->
    // switches -> destination host over real links, and flags exactly one
    // hop per detour: the hop after each detouring switch.
    let most = events
        .iter()
        .filter(|e| e.kind == TraceKind::Deliver)
        .max_by_key(|e| e.detours)
        .expect("something was delivered");
    assert!(most.detours >= 1, "some delivered packet detoured");
    let path = delivered_path(events, most.packet);
    let topo = fat_tree(k4());
    for w in path.windows(2) {
        let (from, to) = (NodeId(w[0].0), NodeId(w[1].0));
        let connected = topo.node(from).ports.iter().any(|p| p.peer == to);
        assert!(connected, "path hop {from} -> {to} not a link");
    }
    let flagged = path.iter().filter(|&&(_, d)| d).count();
    assert_eq!(flagged, usize::from(most.detours));
    let shifted: Vec<bool> = std::iter::once(false)
        .chain(packet_hops(events, most.packet).iter().map(|h| h.detour))
        .collect();
    let flags: Vec<bool> = path[1..].iter().map(|&(_, d)| d).collect();
    assert_eq!(
        flags, shifted,
        "path flags are the hop flags shifted by one"
    );
}
