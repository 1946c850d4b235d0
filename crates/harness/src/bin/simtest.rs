//! `simtest`: randomized fault-injection soak harness.
//!
//! ```text
//! Usage: simtest [--smoke] [--seeds N] [--jobs N]
//!
//! Options:
//!   --smoke     run the 64-seed smoke tier (the check.sh --full gate)
//!   --seeds N   run exactly N seeded cases (overrides --smoke)
//!   --jobs N    worker threads (default: DIBS_JOBS or all cores)
//! ```
//!
//! Each seeded case draws a random topology, workload, and fault schedule,
//! runs it three times (traced parallel, untraced sequential, untraced
//! parallel re-execution), and checks four invariants: packet conservation,
//! no post-TTL detour loops, clock monotonicity, and byte-identical digests
//! across all three executions; a panic inside a run fails its case too.
//! Exit status is nonzero if any case fails.
//!
//! Every case is a `dibs-sim` scenario file. A failing case is written to
//! `results/simtest_fail_<seed>.json`, and
//! `dibs-sim --digest results/simtest_fail_<seed>.json` replays it to the
//! fingerprint printed next to the failure.

use dibs_harness::simtest::{run_soak, SoakConfig};
use dibs_stats::NetCounters;
use std::process::ExitCode;

const USAGE: &str = "Usage: simtest [--smoke] [--seeds N] [--jobs N]";

fn main() -> ExitCode {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    let jobs = dibs_harness::take_jobs_flag(&mut raw)
        .or_else(dibs_harness::env_jobs)
        .unwrap_or_else(dibs_harness::default_jobs);

    let mut cfg = SoakConfig::full(jobs);
    let mut args = raw.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => cfg = SoakConfig::smoke(jobs),
            "--seeds" => match args.next().map(|s| s.parse::<u64>()) {
                Some(Ok(n)) if n >= 1 => cfg.seeds = n,
                _ => {
                    eprintln!("--seeds needs a positive number\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown option `{other}`\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }

    eprintln!(
        "simtest: {} seeded cases x 3 executions, {} jobs",
        cfg.seeds, cfg.jobs
    );
    let started = std::time::Instant::now();
    let report = run_soak(&cfg);
    let wall = started.elapsed();

    let cases = report.cases.len();
    let counters = || report.cases.iter().map(|c| c.counters);
    let total = |f: fn(NetCounters) -> u64| counters().map(f).sum::<u64>();
    let share = |f: fn(NetCounters) -> u64| counters().filter(|&c| f(c) > 0).count();
    println!(
        "simtest: {cases} cases, {} packets sent, {} delivered, {} fault drops ({wall:.2?})",
        total(|c| c.packets_sent),
        total(|c| c.packets_delivered),
        total(|c| c.drops_fault)
    );
    println!(
        "simtest: {}/{cases} cases detoured, {}/{cases} had a fault drop",
        share(|c| c.detours),
        share(|c| c.drops_fault)
    );
    if report.ok() {
        println!("simtest: all invariants held");
        return ExitCode::SUCCESS;
    }
    for f in &report.failures {
        eprintln!("FAIL {f}");
    }
    // Each failing case once, as the scenario file `dibs-sim` replays.
    let failing: std::collections::BTreeSet<u64> =
        report.failures.iter().map(|f| f.index).collect();
    for outcome in report
        .cases
        .iter()
        .filter(|c| failing.contains(&c.case.index))
    {
        let path = format!("results/simtest_fail_{}.json", outcome.case.seed);
        if let Err(e) = std::fs::create_dir_all("results")
            .and_then(|()| std::fs::write(&path, &outcome.case.scenario))
        {
            eprintln!("simtest: cannot write {path}: {e}");
            continue;
        }
        match outcome.fingerprint {
            Some(fp) => eprintln!("replay: dibs-sim --digest {path}  (soak digest {fp:#018x})"),
            None => eprintln!("replay: dibs-sim --digest {path}  (the soak run panicked)"),
        }
    }
    eprintln!("simtest: {} invariant failure(s)", report.failures.len());
    ExitCode::FAILURE
}
