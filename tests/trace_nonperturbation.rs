//! Tracing must be provably non-perturbing: a traced run and an untraced
//! run of the same scenario produce byte-identical digests, at any
//! executor width. This is the contract that lets `--trace` be used on
//! real experiments without invalidating their numbers.
//!
//! Each golden scenario from `golden_digests.rs` is run four ways —
//! {untraced, fully traced} x {--jobs 1, --jobs 8} — and every digest
//! string must match the untraced single-threaded reference exactly.

use dibs::{presets, RunDescriptor, RunDigest, Scenario, SimConfig, Simulation, TraceSpec, Tracer};
use dibs_harness::Executor;
use dibs_switch::BufferConfig;

/// Master seed shared by all golden runs; mirrors the bench default.
const MASTER_SEED: u64 = 0xD1B5_2014;

const SCENARIOS: usize = 3;

/// Builds golden scenario `idx` (fresh simulation each call).
fn build(idx: usize) -> Simulation {
    let golden = |family: &str, point: u64, incast: Scenario| Scenario {
        seed: RunDescriptor::new(family, "dibs", point, 0).seed(MASTER_SEED),
        ..incast
    };
    let k4_incast = presets::single_incast(4, 0, 8, 20_000);
    let mut cfg = SimConfig::dctcp_dibs();
    let sc = match idx {
        0 => golden(
            "golden_testbed_incast",
            5,
            presets::testbed_incast(20, 32_000),
        ),
        1 => {
            cfg.switch.buffer = BufferConfig::StaticPerPort { packets: 25 };
            cfg.switch.ecn_threshold = Some(20);
            golden("golden_buffer_sweep", 25, k4_incast)
        }
        2 => {
            cfg.tcp.initial_ttl = 12;
            golden("golden_ttl_sweep", 12, k4_incast)
        }
        other => unreachable!("no golden scenario {other}"),
    };
    sc.build_with(cfg).expect("golden scenario builds")
}

#[test]
fn traced_runs_digest_identically_at_any_jobs_width() {
    // (scenario, traced?) pairs; "all" exercises every emission site plus
    // the flight recorder's sibling code paths through the Full tracer.
    let spec: TraceSpec = "all".parse().expect("valid spec");
    let mut pairs: Vec<(usize, bool)> = Vec::new();
    for idx in 0..SCENARIOS {
        pairs.push((idx, false));
        pairs.push((idx, true));
    }

    let mut reference: Vec<Option<String>> = vec![None; SCENARIOS];
    for jobs in [1, 8] {
        let outcomes = Executor::new(jobs).map(pairs.clone(), move |(idx, traced)| {
            let mut sim = build(idx);
            if traced {
                sim.set_tracer(Tracer::from_spec(&spec));
            }
            let results = sim.run();
            let digest = RunDigest::of(&results).as_str().to_string();
            (idx, traced, digest, results.trace.is_some())
        });
        for (idx, traced, digest, has_trace) in outcomes {
            assert_eq!(
                traced, has_trace,
                "scenario {idx}: trace report presence must track the tracer"
            );
            match &reference[idx] {
                None => reference[idx] = Some(digest),
                Some(expected) => assert_eq!(
                    expected, &digest,
                    "scenario {idx} (traced={traced}, jobs={jobs}): digest \
                     diverged from the untraced --jobs 1 reference — tracing \
                     perturbed the simulation"
                ),
            }
        }
    }
}

/// The default build runs with tracing fully disabled: without
/// `set_tracer`, the simulation records nothing and attaches no report.
#[test]
fn default_build_attaches_no_trace_report() {
    for cfg in [SimConfig::dctcp_dibs(), SimConfig::dctcp_baseline()] {
        let results = presets::testbed_incast(20, 32_000)
            .build_with(cfg)
            .expect("incast builds")
            .run();
        assert!(
            results.trace.is_none(),
            "default build must run with tracing fully disabled"
        );
    }
}

/// The flight recorder (bounded ring, a different record path than the
/// unbounded Full buffer) must be equally invisible.
#[test]
fn flight_recorder_is_non_perturbing() {
    let reference = RunDigest::of(&build(1).run()).fingerprint();
    let spec: TraceSpec = "flight:64:enqueue,detour,drop".parse().expect("valid spec");
    let mut sim = build(1);
    sim.set_tracer(Tracer::from_spec(&spec));
    let results = sim.run();
    assert_eq!(
        RunDigest::of(&results).fingerprint(),
        reference,
        "flight recorder perturbed the run"
    );
    let report = results.trace.expect("flight recorder attached");
    assert!(
        report.events.len() <= 64,
        "ring kept {} events, cap is 64",
        report.events.len()
    );
    assert!(
        report.dropped > 0,
        "a 64-slot ring on a full incast must overwrite"
    );
}
