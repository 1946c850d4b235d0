//! The contract test for the parallel sweep executor: one sweep, run at
//! `--jobs` 1, 2, and 8, must merge to **byte-identical** output.
//!
//! Each run's RNG stream is derived from its [`dibs::RunDescriptor`]
//! hashed against the sweep master seed — never from thread identity or
//! completion order — and results are merged in descriptor order, so the
//! worker count is unobservable in the output.

use dibs::{presets, RunDescriptor, RunDigest, Scenario, SimConfig};
use dibs_harness::Executor;

const MASTER_SEED: u64 = 0xD1B5_2014;

/// The sweep: (incast degree × scheme × replicate), 8 independent runs.
fn sweep() -> Vec<RunDescriptor> {
    let mut runs = Vec::new();
    for degree in [3u64, 5] {
        for variant in ["dctcp", "dibs"] {
            for replicate in [0u64, 1] {
                runs.push(RunDescriptor::new(
                    "parallel_contract_incast",
                    variant,
                    degree,
                    replicate,
                ));
            }
        }
    }
    runs
}

fn run_one(desc: &RunDescriptor) -> String {
    let cfg = match desc.variant.as_str() {
        "dctcp" => SimConfig::dctcp_baseline(),
        "dibs" => SimConfig::dctcp_dibs(),
        other => panic!("unknown variant {other}"),
    };
    // K=4 fat-tree keeps each run well under 100 ms; the incast target
    // moves with the replicate and the run's seed drives ECMP and
    // detouring, so every run is distinct.
    #[allow(clippy::cast_possible_truncation)]
    let (degree, target) = (desc.point as usize, desc.replicate as u32);
    let sc = Scenario {
        seed: desc.seed(MASTER_SEED),
        ..presets::single_incast(4, target, degree, 20_000)
    };
    let results = sc.build_with(cfg).expect("incast builds").run();
    format!("## {}\n{}", desc.label(), RunDigest::of(&results).as_str())
}

/// The whole sweep merged into one transcript, in descriptor order.
fn merged_at(jobs: usize) -> String {
    Executor::new(jobs)
        .map(sweep(), |desc| run_one(&desc))
        .concat()
}

#[test]
fn jobs_1_2_8_merge_to_identical_bytes() {
    let at1 = merged_at(1);
    let at2 = merged_at(2);
    let at8 = merged_at(8);
    assert!(!at1.is_empty() && at1.contains("packets_delivered"));
    assert_eq!(at1, at2, "--jobs 2 diverged from the sequential sweep");
    assert_eq!(at1, at8, "--jobs 8 diverged from the sequential sweep");
}

#[test]
fn runs_in_a_sweep_are_actually_distinct() {
    // Guard against every run accidentally sharing one RNG stream: each
    // descriptor must produce its own digest.
    let digests = Executor::new(4).map(sweep(), |desc| run_one(&desc));
    for i in 0..digests.len() {
        for j in (i + 1)..digests.len() {
            assert_ne!(digests[i], digests[j], "runs {i} and {j} collided");
        }
    }
}
