//! The paper's evaluation setups as [`Scenario`] values.
//!
//! Every figure binary, example and test that runs one of these setups
//! builds it with [`Scenario::build_with`], the same wiring `dibs-sim`
//! uses, so a §5.3 run from a figure binary and the same scenario file
//! run by `dibs-sim` draw the same traffic. A sweep varies one knob by
//! writing the field:
//!
//! ```
//! use dibs::{presets, Scenario, SimConfig};
//!
//! let sc = Scenario { seed: 3, ..presets::testbed_incast(50, 32_000) };
//! let results = sc.build_with(SimConfig::dctcp_dibs()).unwrap().run();
//! assert_eq!(results.flows.len(), 50);
//! ```

use crate::scenario::{Overrides, Scenario, Scheme, TopologySpec, WorkloadSpec};
use dibs_fault::FaultSpec;

/// Horizon of the one-shot incasts: far past any burst's completion.
const INCAST_HORIZON_MS: u64 = 5_000;

/// A K-ary fat-tree with full-rate fabric links (K=8 is the paper's
/// 128-host fabric).
pub fn fat_tree(k: usize) -> TopologySpec {
    TopologySpec::FatTree {
        k,
        oversubscription: 1,
    }
}

/// `workloads` on `topology` under DCTCP+DIBS at seed 1, with no faults.
fn scenario(
    topology: TopologySpec,
    duration_ms: u64,
    drain_ms: u64,
    workloads: Vec<WorkloadSpec>,
) -> Scenario {
    Scenario {
        seed: 1,
        topology,
        scheme: Scheme::DctcpDibs,
        overrides: Overrides::default(),
        duration_ms,
        drain_ms,
        workloads,
        sample_interval_ms: 0,
        faults: FaultSpec::off(),
    }
}

/// The §5.3 mixed workload on the K=8 fat-tree: DCTCP-paper background
/// traffic with a mean per-host inter-arrival of `bg_interarrival_ms`,
/// plus partition-aggregate queries at `qps`, each fanning in `degree`
/// responses of `response_bytes`. Traffic starts within a 1 s window,
/// followed by 500 ms of drain.
pub fn mixed(bg_interarrival_ms: u64, qps: f64, degree: usize, response_bytes: u64) -> Scenario {
    scenario(
        fat_tree(8),
        1_000,
        500,
        vec![
            WorkloadSpec::Background {
                interarrival_ms: bg_interarrival_ms,
            },
            WorkloadSpec::Query {
                qps,
                degree,
                response_bytes,
            },
        ],
    )
}

/// [`mixed`] at the Table 2 defaults: 120 ms background inter-arrival,
/// 300 qps, degree 40, 20 KB responses.
pub fn paper_mixed() -> Scenario {
    mixed(120, 300.0, 40, 20_000)
}

/// The §5.2 Click/Emulab incast on the 2-aggregation / 3-edge testbed:
/// `degree` simultaneous responses of `response_bytes` into the last of
/// its six hosts. Responders go round-robin over the other five, so
/// degree 50 is the paper's 5 senders x 10 flows.
pub fn testbed_incast(degree: usize, response_bytes: u64) -> Scenario {
    scenario(
        TopologySpec::MiniTestbed,
        0,
        INCAST_HORIZON_MS,
        vec![WorkloadSpec::Incast {
            target: 5,
            degree,
            response_bytes,
            at_ms: 0,
        }],
    )
}

/// One incast on the K-ary fat-tree, the Figure 1/2 setup: `degree`
/// responders, round-robin over the hosts other than `target`, each send
/// `response_bytes` at time zero.
pub fn single_incast(k: usize, target: u32, degree: usize, response_bytes: u64) -> Scenario {
    scenario(
        fat_tree(k),
        0,
        INCAST_HORIZON_MS,
        vec![WorkloadSpec::Incast {
            target,
            degree,
            response_bytes,
            at_ms: 0,
        }],
    )
}

/// The §5.6 fairness run on the K-ary fat-tree: node-disjoint host pairs
/// with `flows_per_pair` long-lived flows per direction, measured over
/// `horizon_ms`.
pub fn fairness(k: usize, flows_per_pair: usize, horizon_ms: u64) -> Scenario {
    scenario(
        fat_tree(k),
        horizon_ms,
        0,
        vec![WorkloadSpec::LongLived { flows_per_pair }],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dibs_engine::time::SimTime;

    #[test]
    fn paper_mixed_matches_table2_defaults() {
        let sc = paper_mixed();
        assert!(matches!(
            sc.topology,
            TopologySpec::FatTree {
                k: 8,
                oversubscription: 1
            }
        ));
        let [WorkloadSpec::Background { interarrival_ms }, WorkloadSpec::Query {
            qps,
            degree,
            response_bytes,
        }] = sc.workloads[..]
        else {
            panic!("mixed is background + query: {:?}", sc.workloads);
        };
        assert_eq!(interarrival_ms, 120);
        assert_eq!(qps, 300.0);
        assert_eq!(degree, 40);
        assert_eq!(response_bytes, 20_000);
        assert_eq!(sc.horizon(), SimTime::from_millis(1_500));
    }

    #[test]
    fn testbed_incast_sends_k_flows_from_each_of_five_senders() {
        let sc = testbed_incast(50, 32_000);
        let results = sc.build().unwrap().run();
        assert_eq!(results.flows.len(), 50);
        for sender in 0..5 {
            let flows = results.flows.iter().filter(|f| f.src.index() == sender);
            assert_eq!(flows.count(), 10, "sender {sender}");
        }
        assert!(results.flows.iter().all(|f| f.dst.index() == 5));
    }
}
