//! Golden-digest regression tests for the figure pipeline.
//!
//! One small-scale point per figure family, with the expected digest
//! fingerprint pinned in the test. A silent behavior change anywhere in
//! the switch/transport/engine stack — an extra event, a different detour
//! choice, a shifted timestamp — moves the fingerprint and fails loudly.
//!
//! Each run is scenario JSON text, built the way `dibs-sim` builds a file,
//! so `dibs-sim --digest` on the same text prints the pinned fingerprint.
//!
//! If a change is *intentional* (you changed simulation semantics on
//! purpose), rerun with `--nocapture`, copy the printed fingerprint into
//! the constant, and say so in the commit message. These pins are the
//! reason a refactor can claim "no behavior change" with a straight face.

use dibs::{RunDescriptor, RunDigest, RunResults, Scenario};

/// Master seed shared by all golden runs; mirrors the bench default.
const MASTER_SEED: u64 = 0xD1B5_2014;

/// Parses golden run `text`, checks that its seed is the run descriptor's
/// seed masked below 2^53 (the largest integer JSON carries exactly), and
/// runs it.
fn run(family: &str, point: u64, text: &str) -> RunResults {
    let sc = Scenario::from_json(text).unwrap_or_else(|e| panic!("{family}: {e}"));
    let seed = RunDescriptor::new(family, "dibs", point, 0).seed(MASTER_SEED) & ((1 << 53) - 1);
    assert_eq!(sc.seed, seed, "{family}: seed is not the descriptor's");
    sc.build().unwrap_or_else(|e| panic!("{family}: {e}")).run()
}

fn check(family: &str, digest: &RunDigest, expected: u64) {
    let got = digest.fingerprint();
    assert_eq!(
        got,
        expected,
        "{family}: digest fingerprint changed — got {got:#018x}, pinned {expected:#018x}.\n\
         If this behavior change is intentional, update the pin.\n\
         Digest:\n{}",
        digest.as_str()
    );
}

/// Fig 6 family: the §5.2 testbed incast under DIBS (5 senders x 4 flows).
#[test]
fn golden_testbed_incast() {
    let results = run(
        "golden_testbed_incast",
        5,
        r#"{
  "seed": 4023895496260910,
  "topology": { "type": "mini_testbed" },
  "duration_ms": 0,
  "drain_ms": 5000,
  "workloads": [
    { "type": "incast", "target": 5, "degree": 20, "response_bytes": 32000 }
  ]
}"#,
    );
    assert_eq!(results.counters.total_drops(), 0, "DIBS incast is lossless");
    check(
        "testbed_incast",
        &RunDigest::of(&results),
        GOLDEN_TESTBED_INCAST,
    );
}

/// Fig 7/12 family: one small-buffer sweep point (25-packet buffers).
#[test]
fn golden_buffer_sweep_point() {
    let results = run(
        "golden_buffer_sweep",
        25,
        r#"{
  "seed": 8319986535192731,
  "topology": { "type": "fat_tree", "k": 4 },
  "overrides": { "buffer_packets": 25, "ecn_threshold": 20 },
  "duration_ms": 0,
  "drain_ms": 5000,
  "workloads": [
    { "type": "incast", "target": 0, "degree": 8, "response_bytes": 20000 }
  ]
}"#,
    );
    check(
        "buffer_sweep",
        &RunDigest::of(&results),
        GOLDEN_BUFFER_SWEEP,
    );
}

/// Fig 13 family: one TTL sweep point (TTL 12 — ~3 backward detours).
#[test]
fn golden_ttl_sweep_point() {
    let results = run(
        "golden_ttl_sweep",
        12,
        r#"{
  "seed": 3007224448069344,
  "topology": { "type": "fat_tree", "k": 4 },
  "overrides": { "ttl": 12 },
  "duration_ms": 0,
  "drain_ms": 5000,
  "workloads": [
    { "type": "incast", "target": 0, "degree": 8, "response_bytes": 20000 }
  ]
}"#,
    );
    check("ttl_sweep", &RunDigest::of(&results), GOLDEN_TTL_SWEEP);
}

/// Fault family: the testbed incast riding out a mid-burst uplink flap.
#[test]
fn golden_incast_link_flap() {
    let results = run(
        "golden_incast_link_flap",
        5,
        r#"{
  "seed": 4525953466884860,
  "topology": { "type": "mini_testbed" },
  "duration_ms": 0,
  "drain_ms": 5000,
  "workloads": [
    { "type": "incast", "target": 5, "degree": 20, "response_bytes": 32000 }
  ],
  "faults": "link-down:t=1ms:edge2-aggr0:dur=2ms"
}"#,
    );
    check(
        "incast_link_flap",
        &RunDigest::of(&results),
        GOLDEN_INCAST_LINK_FLAP,
    );
}

/// Fault family: small buffers under pressure, then an aggregation switch
/// crashes mid-run (buffered packets freed, routes recomputed).
#[test]
fn golden_buffer_pressure_switch_crash() {
    let results = run(
        "golden_buffer_crash",
        25,
        r#"{
  "seed": 493815349172174,
  "topology": { "type": "fat_tree", "k": 4 },
  "overrides": { "buffer_packets": 25, "ecn_threshold": 20 },
  "duration_ms": 0,
  "drain_ms": 5000,
  "workloads": [
    { "type": "incast", "target": 0, "degree": 8, "response_bytes": 20000 }
  ],
  "faults": "switch-crash:t=2ms:aggr[0][0]"
}"#,
    );
    check(
        "buffer_pressure_switch_crash",
        &RunDigest::of(&results),
        GOLDEN_BUFFER_CRASH,
    );
}

/// Fault family: the probabilistic soak profile — random flaps plus a
/// light detour-targeted drop rate.
#[test]
fn golden_random_drop_soak() {
    let results = run(
        "golden_random_drop_soak",
        8,
        r#"{
  "seed": 3080528655039275,
  "topology": { "type": "fat_tree", "k": 4 },
  "duration_ms": 0,
  "drain_ms": 5000,
  "workloads": [
    { "type": "incast", "target": 0, "degree": 8, "response_bytes": 20000 }
  ],
  "faults": "drop:p=1e-3;random:4"
}"#,
    );
    check(
        "random_drop_soak",
        &RunDigest::of(&results),
        GOLDEN_RANDOM_SOAK,
    );
}

// The pinned fingerprints. These change ONLY when simulation semantics
// change; the parallel executor, jobs count, and merge order must never
// move them.
//
// Re-pinned when the runs became scenario text: the incasts now take
// round-robin responders toward an explicit target, and seeds are masked
// below 2^53. `dibs-sim --digest` on each text prints the same pin.
const GOLDEN_TESTBED_INCAST: u64 = 0xa273_4de2_db20_9d6c;
const GOLDEN_BUFFER_SWEEP: u64 = 0x2a83_5b26_ba29_f658;
const GOLDEN_TTL_SWEEP: u64 = 0x1c3d_7051_ad29_51c0;

// Fault-scenario pins: a deliberate fault-injection change moves these
// three without touching the fault-free pins above.
const GOLDEN_INCAST_LINK_FLAP: u64 = 0x3665_5cbe_acf9_4606;
const GOLDEN_BUFFER_CRASH: u64 = 0xbae7_33f2_02c8_b287;
const GOLDEN_RANDOM_SOAK: u64 = 0xfb51_c207_f222_de24;
