//! A soak case is its scenario text: parsing and building that text again,
//! as `dibs-sim` does with a `results/simtest_fail_<seed>.json` file,
//! reproduces the soak's digest exactly.

use dibs::scenario::Scenario;
use dibs::RunDigest;
use dibs_harness::simtest::{run_soak, SoakConfig, MASTER_SEED};

#[test]
fn soak_cases_replay_from_their_scenario_text() {
    let report = run_soak(&SoakConfig {
        seeds: 8,
        jobs: 2,
        master_seed: MASTER_SEED,
    });
    assert!(report.ok(), "{:?}", report.failures);
    for outcome in report.cases.iter().step_by(2) {
        let case = &outcome.case;
        // Through a JSON round trip, the way a written file is read back.
        let text = dibs_json::Json::parse(&case.scenario)
            .expect("case text is JSON")
            .render_pretty();
        let sim = Scenario::from_json(&text)
            .and_then(|s| s.build())
            .unwrap_or_else(|e| panic!("{}: {e}", case.label));
        let replayed = RunDigest::of(&sim.run()).fingerprint();
        assert_eq!(Some(replayed), outcome.fingerprint, "{}", case.label);
    }
}
