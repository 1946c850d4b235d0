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

use dibs::{presets, SimConfig};
use dibs_bench::{run, Harness};
use dibs_stats::{ExperimentRecord, SeriesPoint};
use dibs_switch::BufferConfig;

/// The incast target. Past 127 responders the round-robin wraps, so
/// servers answer over several connections, as in the paper.
const TARGET: u32 = 0;

fn main() {
    let h = Harness::from_env();
    let mut rec = ExperimentRecord::new(
        "tab_shared_buffer",
        "Shared-memory (DBA) switches vs incast degree (§5.5.2)",
        "incast_degree",
    );
    rec.param("shared_bytes", 1_700_000)
        .param("alpha", 1.0)
        .param("response_kb", 20)
        .param("target", TARGET);

    let sweep = [40usize, 100, 150, 200, 300, 400];
    let points = h.executor().map(sweep.to_vec(), |deg| {
        let dba = BufferConfig::arista_like();
        let mut base_cfg = SimConfig::dctcp_baseline();
        base_cfg.switch.buffer = dba;
        let mut dibs_cfg = SimConfig::dctcp_dibs();
        dibs_cfg.switch.buffer = dba;

        let sc = presets::single_incast(8, TARGET, deg, 20_000);
        let mut base = run(&sc, base_cfg);
        let mut dibs = run(&sc, dibs_cfg);
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
