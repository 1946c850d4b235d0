//! Comparing detour policies (§7 "Other detouring policies").
//!
//! The paper's default policy is parameterless random detouring; §7
//! sketches load-aware, flow-based, and probabilistic variants. This
//! example runs the same incast-heavy workload under each policy.
//!
//! ```text
//! cargo run --release --example policy_comparison
//! ```

use dibs::{presets, Scenario, SimConfig};
use dibs_switch::DibsPolicy;

fn main() {
    let workload = Scenario {
        duration_ms: 300,
        drain_ms: 500,
        ..presets::mixed(120, 1500.0, 40, 20_000)
    };

    let policies: [(&str, DibsPolicy); 5] = [
        ("none (droptail)", DibsPolicy::Disabled),
        ("random", DibsPolicy::Random),
        ("load-aware", DibsPolicy::LoadAware),
        ("flow-based", DibsPolicy::FlowBased),
        ("probabilistic", DibsPolicy::Probabilistic { onset: 0.85 }),
    ];

    println!(
        "{:<18} {:>14} {:>16} {:>8} {:>10}",
        "policy", "QCT p99 (ms)", "BG FCT p99 (ms)", "drops", "detours"
    );
    for (name, policy) in policies {
        let cfg = SimConfig::dctcp_dibs().with_policy(policy);
        let mut r = workload.build_with(cfg).expect("preset builds").run();
        println!(
            "{:<18} {:>14.2} {:>16.2} {:>8} {:>10}",
            name,
            r.qct_p99_ms().unwrap_or(f64::NAN),
            r.bg_fct_p99_ms().unwrap_or(f64::NAN),
            r.counters.total_drops(),
            r.counters.detours,
        );
    }
    println!(
        "\nAll detouring variants eliminate drops; random needs no tuning, which is\n\
         why the paper adopts it. Load-aware detouring spreads overflow toward the\n\
         emptiest neighbor; probabilistic detouring starts before queues fill."
    );
}
