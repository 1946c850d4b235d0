//! Ablation: detouring across topology families (§7 discussion).
//!
//! The paper argues that topologies with richer neighborhoods (HyperX,
//! Jellyfish) suit DIBS even better than the fat-tree, and that DIBS still
//! functions on a linear chain (footnote 10). This bench runs an identical
//! incast-over-background workload on comparable instances of each family
//! and reports the DCTCP-vs-DIBS gap.

use dibs::scenario::TopologySpec;
use dibs::{presets, RunDescriptor, Scenario, SimConfig};
use dibs_bench::{run, Harness};
use dibs_stats::{ExperimentRecord, SeriesPoint};

/// The compared fabrics, ~128 hosts each with comparable switch counts.
fn topologies() -> [(&'static str, TopologySpec); 4] {
    [
        ("fat_tree_k8", presets::fat_tree(8)),
        (
            "jellyfish",
            TopologySpec::Jellyfish {
                switches: 43,
                degree: 8,
                hosts_per_switch: 3,
            },
        ),
        (
            "hyperx_4x4",
            TopologySpec::Hyperx {
                shape: vec![4, 4],
                hosts_per_switch: 8,
            },
        ),
        (
            "linear_x8",
            TopologySpec::Linear {
                switches: 8,
                hosts_per_switch: 16,
            },
        ),
    ]
}

fn main() {
    let h = Harness::from_env();
    let mut rec = ExperimentRecord::new(
        "abl_topologies",
        "Ablation: DIBS across topology families (§7)",
        "topology_index",
    );
    rec.param("qps", 1000)
        .param("incast_degree", 40)
        .param("response_kb", 20)
        .param("duration_ms", h.scale.duration_ms());

    let scale = h.scale;
    let master = h.master_seed;
    let topologies = topologies();
    let points = h.executor().map(
        topologies.iter().enumerate().collect(),
        |(i, (_, topology))| {
            // The Jellyfish wiring is drawn from the seed too, so both arms
            // of a point share one graph.
            let sc = Scenario {
                seed: RunDescriptor::new("abl_topologies", "paired", i as u64, 0)
                    .paired_seed(master),
                topology: topology.clone(),
                duration_ms: scale.duration_ms(),
                drain_ms: scale.drain_ms(),
                ..presets::mixed(120, 1000.0, 40, 20_000)
            };
            let mut base = run(&sc, SimConfig::dctcp_baseline());
            let mut dibs = run(&sc, SimConfig::dctcp_dibs());
            SeriesPoint::at(i as f64)
                .with("qct_p99_ms_dctcp", base.qct_p99_ms().unwrap_or(f64::NAN))
                .with("qct_p99_ms_dibs", dibs.qct_p99_ms().unwrap_or(f64::NAN))
                .with("drops_dctcp", base.counters.total_drops() as f64)
                .with("drops_dibs", dibs.counters.total_drops() as f64)
                .with("detours_dibs", dibs.counters.detours as f64)
                .with("qct_done_frac_dibs", dibs.query_completion_rate())
        },
    );
    for (i, (name, _)) in topologies.iter().enumerate() {
        rec.param(&format!("topology_{i}"), *name);
    }
    for p in points {
        rec.push(p);
    }
    h.finish(&rec);
}
