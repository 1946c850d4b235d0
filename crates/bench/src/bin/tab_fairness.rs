//! §5.6: fairness of long-lived flows under DIBS.
//!
//! 64 node-disjoint host pairs on the K=8 fat-tree, N long-lived flows in
//! each direction per pair, N in {1, 2, 4, 8, 16}; Jain's index over
//! per-flow goodput measured after a warmup.
//!
//! Paper shape: Jain's index stays high for all N and — the actual claim
//! under test — DIBS does not *reduce* it relative to the DCTCP baseline.
//! (Flow-level ECMP collisions put a structural ceiling below 1.0 at small
//! N in any simulator; see EXPERIMENTS.md.)

use dibs::{presets, Scenario, SimConfig};
use dibs_bench::{run, Harness};
use dibs_engine::time::SimTime;
use dibs_stats::{ExperimentRecord, SeriesPoint};

fn main() {
    let h = Harness::from_env();
    let mut rec = ExperimentRecord::new(
        "tab_fairness",
        "Jain's fairness index for long-lived flows (§5.6)",
        "flows_per_pair",
    );
    let horizon_ms: u64 = match h.scale {
        dibs_bench::Scale::Quick => 120,
        dibs_bench::Scale::Default => 250,
        dibs_bench::Scale::Full => 500,
    };
    rec.param("pairs", 64).param("horizon_ms", horizon_ms);

    let sweep = [1usize, 2, 4, 8, 16];
    let points = h.executor().map(sweep.to_vec(), |n| {
        let sc = Scenario {
            seed: 5,
            ..presets::fairness(8, n, horizon_ms)
        };
        let measure = |mut cfg: SimConfig| {
            cfg.throughput_warmup = Some(SimTime::from_millis(horizon_ms / 4));
            let results = run(&sc, cfg);
            (
                results.jain().unwrap_or(0.0),
                results.long_lived_throughput_bps.iter().sum::<f64>() / 1e9,
            )
        };
        let (jain_dibs, tput_dibs) = measure(SimConfig::dctcp_dibs());
        let (jain_base, tput_base) = measure(SimConfig::dctcp_baseline());
        SeriesPoint::at(n as f64)
            .with("jain_dibs", jain_dibs)
            .with("jain_dctcp", jain_base)
            .with("total_goodput_gbps_dibs", tput_dibs)
            .with("total_goodput_gbps_dctcp", tput_base)
    });
    for p in points {
        rec.push(p);
    }
    h.finish(&rec);
}
