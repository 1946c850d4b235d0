//! The benchmark's workloads: each one is a scenario (in the `dibs-sim`
//! JSON format) plus an optional fault spec, derived from a seed.

use dibs::{FaultSpec, Simulation};
use dibs_cli::Scenario;
use dibs_engine::rng::SimRng;
use std::time::Instant;

/// The §5.3 default mixed workload, a copy of `scenarios/mixed_k8.json`
/// without its seed (a test keeps the two in step).
pub const MIXED_K8_BODY: &str = r#""topology": { "type": "fat_tree", "k": 8 },
  "duration_ms": 200,
  "drain_ms": 500,
  "workloads": [
    { "type": "background", "interarrival_ms": 120 },
    { "type": "query", "qps": 1000, "degree": 40, "response_bytes": 20000 }
  ]"#;

/// Fault spec of `faulted_k8`: 128 attempted fabric link flaps plus a low
/// uniform drop rate.
pub const FAULTED_SPEC: &str = "random:128;drop:p=1e-4";

/// Incasts in one `testbed_incast` instance.
const TRAIN_INCASTS: u64 = 150;
/// Spacing of the incasts in a train: one 50 x 32 KB incast needs about
/// 13 ms of the receiver's 1 Gbit/s link, so the next one follows as the
/// previous one drains.
const TRAIN_GAP_MS: u64 = 15;

/// How big the generated inputs are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The figure-shaped inputs the benchmark measures.
    Full,
    /// A few milliseconds of traffic on small fabrics, for tests.
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A train of §5.2 testbed incasts on `mini_testbed`.
    TestbedIncast,
    /// The §5.3 mixed workload on the K=8 fat-tree (DCTCP + DIBS).
    MixedK8,
    /// The same traffic under pFabric.
    PfabricK8,
    /// `MixedK8` plus link flaps and random drops.
    FaultedK8,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::TestbedIncast,
        Workload::MixedK8,
        Workload::PfabricK8,
        Workload::FaultedK8,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TestbedIncast => "testbed_incast",
            Workload::MixedK8 => "mixed_k8",
            Workload::PfabricK8 => "pfabric_k8",
            Workload::FaultedK8 => "faulted_k8",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The fault spec installed after set-up (`off` for none).
    pub fn fault_spec(self) -> &'static str {
        match self {
            Workload::FaultedK8 => FAULTED_SPEC,
            _ => "off",
        }
    }

    /// The scenario of one instance, as `dibs-sim` JSON text.
    pub fn scenario_text(self, seed: u64, size: Size) -> String {
        match self {
            Workload::TestbedIncast => incast_train(seed, size),
            Workload::MixedK8 | Workload::FaultedK8 => mixed(seed, "dctcp_dibs", size),
            Workload::PfabricK8 => mixed(seed, "pfabric", size),
        }
    }
}

/// Seed of instance `index` of a run started with `--seed seed`.
///
/// Kept below 2^53 so the seed survives a round trip through JSON, where
/// scenarios and provenance carry it.
pub fn instance_seed(seed: u64, index: u64) -> u64 {
    SimRng::new(seed)
        .fork_idx("perfbench/instance", index)
        .seed()
        & ((1 << 53) - 1)
}

fn mixed(seed: u64, scheme: &str, size: Size) -> String {
    match size {
        Size::Full => {
            format!("{{\n  \"seed\": {seed},\n  \"scheme\": \"{scheme}\",\n  {MIXED_K8_BODY}\n}}\n")
        }
        Size::Tiny => format!(
            "{{ \"seed\": {seed}, \"scheme\": \"{scheme}\", \
             \"topology\": {{ \"type\": \"fat_tree\", \"k\": 4 }}, \
             \"duration_ms\": 4, \"drain_ms\": 60, \"workloads\": [ \
             {{ \"type\": \"background\", \"interarrival_ms\": 2 }}, \
             {{ \"type\": \"query\", \"qps\": 1000, \"degree\": 8, \
             \"response_bytes\": 20000 }} ] }}\n"
        ),
    }
}

/// A back-to-back train of 50 x 32 KB incasts on the 6-host testbed; the
/// seed picks each incast's receiver.
fn incast_train(seed: u64, size: Size) -> String {
    const HOSTS: usize = 6;
    let incasts = match size {
        Size::Full => TRAIN_INCASTS,
        Size::Tiny => 2,
    };
    let mut rng = SimRng::new(seed).fork("perfbench/incast-targets");
    let entries: Vec<String> = (0..incasts)
        .map(|i| {
            let target = rng.below(HOSTS);
            let at = i * TRAIN_GAP_MS;
            format!(
                "{{\"type\":\"incast\",\"target\":{target},\"degree\":50,\
                 \"response_bytes\":32000,\"at_ms\":{at}}}"
            )
        })
        .collect();
    format!(
        "{{ \"seed\": {seed}, \"topology\": {{ \"type\": \"mini_testbed\" }}, \
         \"duration_ms\": {}, \"drain_ms\": 500, \"workloads\": [{}] }}\n",
        incasts * TRAIN_GAP_MS,
        entries.join(",")
    )
}

/// A parsed instance, ready to be built as often as needed.
pub struct Instance {
    /// The instance seed.
    pub seed: u64,
    /// The scenario text (provenance).
    pub text: String,
    /// The parsed scenario.
    pub scenario: Scenario,
    /// The parsed fault spec.
    pub faults: FaultSpec,
}

impl Instance {
    /// Generates and parses one instance of `workload`.
    pub fn new(workload: Workload, seed: u64, size: Size) -> Result<Instance, String> {
        let text = workload.scenario_text(seed, size);
        let scenario = Scenario::from_json(&text).map_err(|e| e.to_string())?;
        let faults = FaultSpec::parse(workload.fault_spec()).map_err(|e| e.to_string())?;
        Ok(Instance {
            seed,
            text,
            scenario,
            faults,
        })
    }

    /// Builds a ready-to-run simulation and returns it with the seconds
    /// it took: topology, `Simulation::new`, workload generation, flow
    /// and query installation, and fault resolution.
    pub fn build(&self) -> Result<(f64, Simulation), String> {
        let start = Instant::now();
        let mut sim = self.scenario.build().map_err(|e| e.to_string())?;
        sim.set_faults(&self.faults).map_err(|e| e.to_string())?;
        Ok((start.elapsed().as_secs_f64(), sim))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_body_matches_the_repository_scenario() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../scenarios/mixed_k8.json");
        let repo = std::fs::read_to_string(path).expect("scenarios/mixed_k8.json");
        let repo = dibs_json::Json::parse(&repo).expect("valid JSON");
        let ours = dibs_json::Json::parse(&format!("{{\"seed\": 1, {MIXED_K8_BODY}}}"))
            .expect("valid JSON");
        assert_eq!(ours, repo);
    }

    #[test]
    fn instances_parse_at_both_sizes() {
        for w in Workload::ALL {
            for size in [Size::Tiny, Size::Full] {
                let inst = Instance::new(w, instance_seed(3, 0), size).expect("parses");
                assert_eq!(inst.scenario.seed, inst.seed);
            }
        }
    }

    #[test]
    fn same_seed_same_inputs() {
        for w in Workload::ALL {
            assert_eq!(
                w.scenario_text(9, Size::Full),
                w.scenario_text(9, Size::Full)
            );
            assert_ne!(
                w.scenario_text(9, Size::Full),
                w.scenario_text(10, Size::Full)
            );
        }
        assert_ne!(instance_seed(1, 0), instance_seed(1, 1));
        assert_ne!(instance_seed(1, 0), instance_seed(2, 0));
    }
}
