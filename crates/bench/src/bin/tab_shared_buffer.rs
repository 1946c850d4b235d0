//! §5.5.2: dynamic buffer allocation (shared-memory switches).
//!
//! Models an Arista-7050QX-like switch: 1.7 MB of shared packet memory with
//! Choudhury–Hahne dynamic thresholds. Sweeps the incast degree; beyond
//! ~150 concurrent responders (achieved by running multiple connections per
//! server, as in the paper) the whole shared pool overflows.
//!
//! Paper shape: with DBA alone, DCTCP is lossless up to ~150 and then
//! starts dropping with elevated 99th QCT; enabling DIBS stays lossless
//! even when the burst overflows the pool, cutting the 99th-percentile QCT
//! (the paper reports 75.4 %).

use dibs::{SimConfig, Simulation};
use dibs_bench::Harness;
use dibs_engine::rng::SimRng;
use dibs_engine::time::SimTime;
use dibs_net::builders::{fat_tree, FatTreeParams};
use dibs_net::ids::HostId;
use dibs_stats::{ExperimentRecord, SeriesPoint};
use dibs_switch::BufferConfig;
use dibs_workload::QuerySpec;

/// Builds an incast of `degree` responses allowing repeated responders
/// (multiple connections per server) once `degree` exceeds the host count.
fn big_incast(mut config: SimConfig, degree: usize, response_bytes: u64) -> Simulation {
    let topo = fat_tree(FatTreeParams::paper_default());
    let hosts = topo.num_hosts();
    config.horizon = SimTime::from_secs(5);
    let mut sim = Simulation::new(topo, config);
    let mut rng = SimRng::new(config.seed).fork("big-incast");
    let target = rng.below(hosts);
    let responders: Vec<HostId> = (0..degree)
        .map(|i| {
            let mut hx = i % (hosts - 1);
            if hx >= target {
                hx += 1;
            }
            HostId::from_index(hx)
        })
        .collect();
    sim.add_queries(&[QuerySpec {
        start: SimTime::ZERO,
        target: HostId::from_index(target),
        responders,
        response_bytes,
    }]);
    sim
}

fn main() {
    let h = Harness::from_env();
    let mut rec = ExperimentRecord::new(
        "tab_shared_buffer",
        "Shared-memory (DBA) switches vs incast degree (§5.5.2)",
        "incast_degree",
    );
    rec.param("shared_bytes", 1_700_000)
        .param("alpha", 1.0)
        .param("response_kb", 20);

    let sweep = [40usize, 100, 150, 200, 300, 400];
    let points = h.executor().map(sweep.to_vec(), |deg| {
        let dba = BufferConfig::arista_like();
        let mut base_cfg = SimConfig::dctcp_baseline();
        base_cfg.switch.buffer = dba;
        let mut dibs_cfg = SimConfig::dctcp_dibs();
        dibs_cfg.switch.buffer = dba;

        let mut base = big_incast(base_cfg, deg, 20_000).run();
        let mut dibs = big_incast(dibs_cfg, deg, 20_000).run();
        SeriesPoint::at(deg as f64)
            .with(
                "qct_p99_ms_dctcp_dba",
                base.qct_ms.percentile(0.99).unwrap_or(f64::NAN),
            )
            .with(
                "qct_p99_ms_dibs_dba",
                dibs.qct_ms.percentile(0.99).unwrap_or(f64::NAN),
            )
            .with("drops_dctcp_dba", base.counters.total_drops() as f64)
            .with("drops_dibs_dba", dibs.counters.total_drops() as f64)
            .with("detours_dibs", dibs.counters.detours as f64)
    });
    for p in points {
        rec.push(p);
    }
    h.finish(&rec);
}
