//! Quickstart: reproduce the paper's core claim in ~30 lines.
//!
//! Runs the §5.2 incast (five servers each send ten simultaneous 32 KB
//! flows to a sixth server) under three switch configurations and prints
//! query completion time and loss counts.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use dibs::{presets, SimConfig};
use dibs_switch::BufferConfig;

fn main() {
    let mut infinite = SimConfig::dctcp_baseline();
    infinite.switch.buffer = BufferConfig::Infinite;

    let configs = [
        ("infinite buffers ", infinite),
        ("droptail (100pkt) ", SimConfig::dctcp_baseline()),
        ("DIBS     (100pkt) ", SimConfig::dctcp_dibs()),
    ];

    println!("incast: 5 senders x 10 flows x 32 KB -> one receiver\n");
    println!(
        "{:<20} {:>10} {:>8} {:>9} {:>9}",
        "configuration", "QCT (ms)", "drops", "detours", "timeouts"
    );
    let incast = presets::testbed_incast(50, 32_000);
    for (name, cfg) in configs {
        let mut results = incast.build_with(cfg).expect("preset builds").run();
        println!(
            "{:<20} {:>10.2} {:>8} {:>9} {:>9}",
            name,
            results.qct_ms.percentile(1.0).unwrap(),
            results.counters.total_drops(),
            results.counters.detours,
            results.counters.rto_timeouts,
        );
    }
    println!(
        "\nDIBS absorbs the burst by borrowing neighbors' buffers: \
         no losses, no timeouts,\nand a completion time that matches \
         infinitely deep buffers."
    );
}
