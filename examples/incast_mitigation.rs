//! Incast mitigation on the paper's K=8 fat-tree (128 hosts).
//!
//! Drives the §5.3 mixed workload — partition-aggregate queries over a
//! light background — and compares DCTCP with and without DIBS on the
//! metrics the paper reports: 99th-percentile query completion time and
//! 99th-percentile short-background-flow completion time.
//!
//! ```text
//! cargo run --release --example incast_mitigation
//! ```

use dibs::{presets, Scenario, SimConfig};

fn main() {
    let (qps, degree, response_bytes) = (1000.0, 40, 20_000);
    let workload = Scenario {
        duration_ms: 300,
        drain_ms: 500,
        ..presets::mixed(120, qps, degree, response_bytes)
    };
    println!(
        "K=8 fat-tree, {qps} qps, incast degree {degree}, {} KB responses\n",
        response_bytes / 1000
    );

    println!(
        "{:<16} {:>14} {:>16} {:>8} {:>10} {:>12}",
        "scheme", "QCT p99 (ms)", "BG FCT p99 (ms)", "drops", "detours", "pkts detoured"
    );
    for (name, cfg) in [
        ("DCTCP", SimConfig::dctcp_baseline()),
        ("DCTCP + DIBS", SimConfig::dctcp_dibs()),
    ] {
        let mut r = workload.build_with(cfg).expect("preset builds").run();
        println!(
            "{:<16} {:>14.2} {:>16.2} {:>8} {:>10} {:>11.1}%",
            name,
            r.qct_p99_ms().unwrap_or(f64::NAN),
            r.bg_fct_p99_ms().unwrap_or(f64::NAN),
            r.counters.total_drops(),
            r.counters.detours,
            100.0 * r.counters.detoured_fraction(),
        );
    }
    println!(
        "\nThe queries (incasts) overflow the destination's edge-switch port under\n\
         plain DCTCP; DIBS detours the overflow to neighboring switches instead,\n\
         eliminating the losses that put queries into 10 ms retransmission timeouts."
    );
}
