//! Figure 13: limiting detours via the packet TTL.
//!
//! Sweeps the initial TTL over {12, 24, 36, 48, 255} under heavy background
//! (10 ms inter-arrival). Each backward detour costs 2 TTL, so TTL 12
//! allows ~3 backward detours on the 6-hop fat-tree.
//!
//! Paper shape: DIBS QCT improves as TTL grows (low TTL forces drops of
//! much-detoured packets); TTL has no effect on plain DCTCP; background FCT
//! is essentially TTL-insensitive. The paper also notes the TTL-12 /
//! TTL-24 anomaly: 24 can be *worse* than 12, because packets linger longer
//! only to die anyway.

use dibs::{presets, RunDescriptor, Scenario, SimConfig};
use dibs_bench::{baseline_vs_dibs_point, run, Harness};
use dibs_stats::ExperimentRecord;

fn main() {
    let h = Harness::from_env();
    let mut rec = ExperimentRecord::new("fig13_ttl", "Variable max TTL (Fig 13)", "ttl");
    rec.param("bg_interarrival_ms", 10)
        .param("qps", 300)
        .param("incast_degree", 40)
        .param("response_kb", 20)
        .param("duration_ms", h.scale.heavy_duration_ms());

    let sweep = [12u8, 24, 36, 48, 255];
    let scale = h.scale;
    let master = h.master_seed;
    let points = h.executor().map(sweep.to_vec(), |ttl| {
        let sc = Scenario {
            seed: RunDescriptor::new("fig13_ttl", "paired", u64::from(ttl), 0).paired_seed(master),
            duration_ms: scale.heavy_duration_ms(),
            drain_ms: scale.drain_ms(),
            ..presets::mixed(10, 300.0, 40, 20_000)
        };
        let configure = |mut cfg: SimConfig| {
            cfg.tcp.initial_ttl = ttl;
            cfg
        };
        let mut base = run(&sc, configure(SimConfig::dctcp_baseline()));
        let mut dibs = run(&sc, configure(SimConfig::dctcp_dibs()));
        let ttl_drops = dibs.counters.drops_ttl as f64;
        baseline_vs_dibs_point(f64::from(ttl), &mut base, &mut dibs)
            .with("ttl_drops_dibs", ttl_drops)
    });
    for p in points {
        rec.push(p);
    }
    h.finish(&rec);
}
