//! Fault injection must not cost any determinism: the same seed and fault
//! spec give byte-identical [`RunDigest`]s at every `--jobs` value, with
//! tracing on or off, and a zero-probability drop profile is completely
//! unobservable in the digest.

use dibs::{presets, RunDescriptor, RunDigest, Scenario, SimConfig, TraceSpec, Tracer};
use dibs_harness::Executor;

const MASTER_SEED: u64 = 0xD1B5_2014;

/// A schedule touching every fault mechanism: a recovering link flap, a
/// late switch crash, both probabilistic profiles, and a random budget.
const SPEC: &str = "link-down:t=2ms:edge0-aggr1:dur=500us;\
                    switch-crash:t=4ms:aggr0;\
                    drop:p=1e-3:kind=detoured;corrupt:p=5e-4;\
                    random:2";

fn sweep() -> Vec<RunDescriptor> {
    (0..6)
        .map(|r| RunDescriptor::new("fault_contract_incast", "dibs", 5, r))
        .collect()
}

fn run_one(desc: &RunDescriptor, spec: &str, traced: bool) -> String {
    let sc = Scenario {
        seed: desc.seed(MASTER_SEED),
        faults: spec.parse().expect("valid spec"),
        ..presets::testbed_incast(20, 32_000)
    };
    let mut sim = sc
        .build_with(SimConfig::dctcp_dibs())
        .expect("spec resolves on mini testbed");
    if traced {
        sim.set_tracer(Tracer::from_spec(&TraceSpec::parse("all").expect("valid")));
    }
    let results = sim.run();
    format!("## {}\n{}", desc.label(), RunDigest::of(&results).as_str())
}

fn merged_at(jobs: usize, traced: bool) -> String {
    Executor::new(jobs)
        .map(sweep(), |desc| run_one(&desc, SPEC, traced))
        .concat()
}

#[test]
fn faulted_sweep_is_identical_at_jobs_1_2_8() {
    let at1 = merged_at(1, false);
    let at2 = merged_at(2, false);
    let at8 = merged_at(8, false);
    assert!(at1.contains("drops_fault"), "faults never fired:\n{at1}");
    assert_eq!(at1, at2, "--jobs 2 diverged under fault injection");
    assert_eq!(at1, at8, "--jobs 8 diverged under fault injection");
}

#[test]
fn tracing_does_not_perturb_faulted_digests() {
    assert_eq!(
        merged_at(4, false),
        merged_at(4, true),
        "installing a tracer changed a faulted run's digest"
    );
}

#[test]
fn faults_actually_change_behavior() {
    let desc = &sweep()[0];
    assert_ne!(
        run_one(desc, SPEC, false),
        run_one(desc, "off", false),
        "the fault schedule was a no-op"
    );
}

#[test]
fn zero_probability_profiles_are_digest_neutral() {
    // `chance(0)` consumes no randomness, so a p=0 profile must be
    // byte-for-byte invisible — the cheap proof that the fault RNG lives
    // on an isolated stream.
    let desc = &sweep()[1];
    assert_eq!(
        run_one(desc, "drop:p=0;corrupt:p=0:kind=data", false),
        run_one(desc, "off", false),
        "a zero-probability profile perturbed the digest"
    );
}

#[test]
fn reexecution_reproduces_the_digest() {
    let first = merged_at(8, false);
    let again = merged_at(8, false);
    assert_eq!(first, again, "same process, same sweep, different bytes");
}
