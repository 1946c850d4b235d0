//! Ablation: the §7 detour-policy design space.
//!
//! Runs the mixed workload at three query intensities under each detour
//! policy (random default, load-aware, flow-based, probabilistic) plus the
//! droptail baseline, reporting the paper's two headline metrics, drop
//! counts, and detour volume. This quantifies the paper's position that
//! parameterless random detouring captures nearly all of the benefit.

use dibs::{presets, RunDescriptor, Scenario, SimConfig};
use dibs_bench::{run, Harness};
use dibs_stats::{ExperimentRecord, SeriesPoint};
use dibs_switch::DibsPolicy;

fn main() {
    let h = Harness::from_env();
    let mut rec = ExperimentRecord::new(
        "abl_detour_policies",
        "Ablation: detour policies at three query intensities (§7)",
        "qps",
    );
    rec.param("incast_degree", 40)
        .param("response_kb", 20)
        .param("bg_interarrival_ms", 120)
        .param("duration_ms", h.scale.duration_ms());

    let policies: [(&str, DibsPolicy); 5] = [
        ("droptail", DibsPolicy::Disabled),
        ("random", DibsPolicy::Random),
        ("loadaware", DibsPolicy::LoadAware),
        ("flowbased", DibsPolicy::FlowBased),
        ("prob85", DibsPolicy::Probabilistic { onset: 0.85 }),
    ];
    let scale = h.scale;
    let master = h.master_seed;
    let points = h.executor().map(vec![300.0f64, 1000.0, 2000.0], |qps| {
        // Every policy arm at a point sees identical traffic.
        // Sweep points are whole qps values well under 2^53.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let point = qps as u64;
        let sc = Scenario {
            seed: RunDescriptor::new("abl_detour_policies", "paired", point, 0).paired_seed(master),
            duration_ms: scale.duration_ms(),
            drain_ms: scale.drain_ms(),
            ..presets::mixed(120, qps, 40, 20_000)
        };
        let mut point = SeriesPoint::at(qps);
        for (name, policy) in policies {
            let mut r = run(&sc, SimConfig::dctcp_dibs().with_policy(policy));
            point = point
                .with(
                    &format!("qct_p99_ms_{name}"),
                    r.qct_p99_ms().unwrap_or(f64::NAN),
                )
                .with(
                    &format!("bg_fct_p99_ms_{name}"),
                    r.bg_fct_p99_ms().unwrap_or(f64::NAN),
                )
                .with(&format!("drops_{name}"), r.counters.total_drops() as f64)
                .with(&format!("detours_{name}"), r.counters.detours as f64);
        }
        point
    });
    for p in points {
        rec.push(p);
    }
    h.finish(&rec);
}
