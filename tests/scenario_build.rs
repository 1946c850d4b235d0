//! `Scenario::build` is `build_with(sim_config())`: both paths give the
//! same digest for every scenario file and every preset, and the files in
//! `scenarios/` still print the fingerprints `dibs-sim --digest` has
//! always printed for them.

use dibs::{presets, RunDigest, Scenario};

fn fingerprint(sim: dibs::Simulation) -> u64 {
    RunDigest::of(&sim.run()).fingerprint()
}

/// Runs `sc` through both build paths and returns the common fingerprint.
fn both_paths(label: &str, sc: &Scenario) -> u64 {
    let built = fingerprint(sc.build().unwrap_or_else(|e| panic!("{label}: {e}")));
    let cfg = sc.sim_config().unwrap_or_else(|e| panic!("{label}: {e}"));
    let with = fingerprint(
        sc.build_with(cfg)
            .unwrap_or_else(|e| panic!("{label}: {e}")),
    );
    assert_eq!(built, with, "{label}: build() and build_with() differ");
    built
}

fn scenario_file(name: &str) -> Scenario {
    let path = format!("{}/scenarios/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    Scenario::from_json(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn every_scenario_file_is_pinned_here() {
    let dir = format!("{}/scenarios", env!("CARGO_MANIFEST_DIR"));
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{dir}: {e}"))
        .map(|entry| entry.expect("directory entry").file_name())
        .map(|name| name.to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".json"))
        .collect();
    files.sort();
    assert_eq!(files, ["incast.json", "incast_flap.json", "mixed_k8.json"]);
}

#[test]
fn testbed_scenario_files_keep_their_digests() {
    for (name, pin) in [
        ("incast.json", 0x8b49_127c_e045_8072),
        ("incast_flap.json", 0x663f_e479_f57d_cdf0),
    ] {
        assert_eq!(both_paths(name, &scenario_file(name)), pin, "{name}");
    }
}

#[test]
#[ignore = "tier-2 (K=8, 5.5M events): run via scripts/check.sh --full or --include-ignored"]
fn mixed_k8_scenario_file_keeps_its_digest() {
    let sc = scenario_file("mixed_k8.json");
    assert_eq!(both_paths("mixed_k8.json", &sc), 0x0a32_87ce_c8b7_e6e5);
}

#[test]
fn every_preset_builds_the_same_either_way() {
    // The K=8 mixed presets, shortened to a few queries so a debug build
    // stays fast; the wiring under test does not depend on the window.
    let short = |sc: Scenario| Scenario {
        duration_ms: 20,
        drain_ms: 100,
        ..sc
    };
    for (label, sc) in [
        ("mixed", short(presets::mixed(40, 500.0, 20, 10_000))),
        ("paper_mixed", short(presets::paper_mixed())),
        ("testbed_incast", presets::testbed_incast(50, 32_000)),
        ("single_incast", presets::single_incast(4, 3, 8, 20_000)),
        ("fairness", presets::fairness(4, 1, 50)),
    ] {
        both_paths(label, &sc);
    }
}
