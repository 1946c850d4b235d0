//! Recovery behavior under injected faults on the §5.2 mini testbed:
//! routing reconverges around link flaps, TCP rides out a full edge
//! outage, and DIBS's detouring delivers more of an incast than plain
//! drop-tail while an uplink is dark. A K=4 fat-tree incast cut by its
//! horizon mid-burst checks the accounting of packets still in flight.

use dibs::{
    presets, FaultSpec, RunDescriptor, RunDigest, RunResults, Scenario, SimConfig, Simulation,
};
use dibs_engine::time::SimTime;
use dibs_net::builders::{fat_tree, mini_testbed, FatTreeParams};
use dibs_net::ids::HostId;
use dibs_net::topology::LinkSpec;
use dibs_workload::{FlowClass, FlowSpec, QuerySpec};

const MASTER_SEED: u64 = 0xD1B5_2014;

fn flow(src: usize, dst: usize, size: u64) -> FlowSpec {
    FlowSpec {
        start: SimTime::ZERO,
        src: HostId::from_index(src),
        dst: HostId::from_index(dst),
        size,
        class: FlowClass::Background,
    }
}

fn testbed_sim(config: SimConfig, fault: &str) -> Simulation {
    let mut config = config;
    config.horizon = SimTime::from_millis(200);
    let mut sim = Simulation::new(mini_testbed(LinkSpec::gbit(1)), config);
    let spec: FaultSpec = fault.parse().expect("valid fault spec");
    sim.set_faults(&spec)
        .expect("spec resolves on mini testbed");
    sim
}

#[test]
fn fib_reconverges_around_a_single_uplink_flap() {
    // edge0 keeps its aggr1 uplink while edge0-aggr0 is down, so
    // cross-edge traffic must keep flowing in both directions — if the
    // FIB were not recomputed, packets would keep chasing the dead link.
    let mut sim = testbed_sim(
        SimConfig::dctcp_dibs().with_seed(1),
        "link-down:t=500us:edge0-aggr0:dur=2ms",
    );
    // Hosts 0..1 sit on edge0, 2..3 on edge1, 4..5 on edge2.
    sim.add_flows([flow(0, 4, 64_000), flow(5, 1, 64_000), flow(1, 2, 64_000)]);
    let results = sim.run();
    for f in &results.flows {
        assert!(
            f.fct.is_some(),
            "flow {:?}->{:?} never completed across the flap",
            f.src,
            f.dst
        );
    }
}

#[test]
fn flows_ride_out_a_full_edge_isolation() {
    // Both of edge0's uplinks go dark for 3 ms: hosts 0-1 are unreachable
    // from the rest of the testbed. TCP must retransmit through the
    // outage and still finish once the links return.
    let outage_end = SimTime::from_millis(4);
    let mut sim = testbed_sim(
        SimConfig::dctcp_dibs().with_seed(2),
        "link-down:t=1ms:edge0-aggr0:dur=3ms;link-down:t=1ms:edge0-aggr1:dur=3ms",
    );
    sim.add_flows([flow(0, 2, 256_000)]);
    let results = sim.run();
    let f = &results.flows[0];
    let fct = f.fct.expect("flow must finish after the links recover");
    assert!(
        f.start + fct > outage_end,
        "a 256 KB flow cannot have finished before the outage ended"
    );
    assert_eq!(f.bytes_delivered, 256_000, "bytes lost across recovery");
}

#[test]
fn dibs_delivers_more_than_drop_tail_during_an_uplink_outage() {
    // The §5.2 incast with one aggregation uplink dark through the burst.
    // Drop-tail queues toward the dead port overflow and shed packets;
    // DIBS detours those packets to the surviving aggregation switch
    // instead. Paired seeds, summed over replicates so one lucky draw
    // cannot decide the comparison. 40 flows: 5 senders x 8.
    let fault: FaultSpec = "link-down:t=0ns:edge2-aggr0:dur=10ms"
        .parse()
        .expect("valid");
    let mut dibs_delivered = 0u64;
    let mut baseline_delivered = 0u64;
    let mut dibs_drops = 0u64;
    let mut baseline_drops = 0u64;
    for replicate in 0..4u64 {
        let sc = Scenario {
            seed: RunDescriptor::new("fault_recovery_incast", "paired", 0, replicate)
                .paired_seed(MASTER_SEED),
            faults: fault.clone(),
            ..presets::testbed_incast(40, 32_000)
        };
        for dibs_on in [true, false] {
            let cfg = if dibs_on {
                SimConfig::dctcp_dibs()
            } else {
                SimConfig::dctcp_baseline()
            };
            let results = sc.build_with(cfg).expect("resolves").run();
            if dibs_on {
                dibs_delivered += results.counters.packets_delivered;
                dibs_drops += results.counters.total_drops();
            } else {
                baseline_delivered += results.counters.packets_delivered;
                baseline_drops += results.counters.total_drops();
            }
        }
    }
    assert!(
        dibs_delivered >= baseline_delivered,
        "DIBS delivered {dibs_delivered} < drop-tail {baseline_delivered} during the outage"
    );
    assert!(
        dibs_drops < baseline_drops,
        "DIBS dropped {dibs_drops}, not fewer than drop-tail's {baseline_drops}"
    );
}

/// A K=4 fat-tree incast (15 responders x 64 KB into host 0) with one of
/// the target edge's uplinks flapping, cut by a 300 µs horizon while the
/// burst is still queued at NICs, serializing, on the wire and buffered.
fn cut_incast_run() -> RunResults {
    let mut cfg = SimConfig::dctcp_dibs().with_seed(7);
    cfg.horizon = SimTime::from_micros(300);
    let tree = FatTreeParams {
        k: 4,
        ..FatTreeParams::paper_default()
    };
    let mut sim = Simulation::new(fat_tree(tree), cfg);
    sim.add_queries(&[QuerySpec {
        start: SimTime::ZERO,
        target: HostId::from_index(0),
        responders: (1..16).map(HostId::from_index).collect(),
        response_bytes: 64_000,
    }]);
    let spec: FaultSpec = "link-down:t=100us:edge[0][0]-aggr[0][0]:dur=100us"
        .parse()
        .expect("valid fault spec");
    sim.set_faults(&spec)
        .expect("spec resolves on the K=4 fat-tree");
    sim.run()
}

#[test]
fn run_cut_mid_burst_accounts_for_packets_in_flight() {
    let results = cut_incast_run();
    let c = &results.counters;
    assert!(
        results.packets_in_flight > 0,
        "the horizon must cut the burst with packets still in flight"
    );
    assert!(c.drops_fault > 0, "the flap must cut frames mid-burst");
    assert_eq!(
        c.packets_sent,
        c.packets_delivered + c.total_drops() + results.packets_in_flight,
        "sent != delivered + drops + in_flight ({c:?}, in_flight {})",
        results.packets_in_flight
    );
    assert_eq!(
        RunDigest::of(&results),
        RunDigest::of(&cut_incast_run()),
        "a cut run must replay to the same digest"
    );
}
