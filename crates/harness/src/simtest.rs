//! Randomized simulation-test soak harness (`simtest`).
//!
//! Each soak *case* is a seeded random draw of a small topology, a small
//! workload, and a fault schedule (timed link flaps, switch crashes, and
//! probabilistic drop/corrupt profiles — see `dibs_fault`), written out as
//! a [`Scenario`] JSON file. The case is that text: every execution parses
//! and builds it the way `dibs-sim` does, so a failing case replays from
//! its file alone. Every case is executed three times:
//!
//! 1. traced, across the parallel [`Executor`](crate::Executor);
//! 2. untraced, sequentially;
//! 3. untraced again, across the parallel executor (re-execution).
//!
//! and five invariants are asserted per case:
//!
//! * **Packet conservation** — `packets_sent == packets_delivered +
//!   total_drops() + packets_in_flight`, even with switches crashing
//!   mid-run and frames cut on downed links.
//! * **TTL bound / no runaway detour loops** — via `dibs-trace` queries:
//!   no packet visits more switches than its initial TTL allows, and
//!   every packet the detour-loop query flags really detoured.
//! * **Clock monotonicity** — trace timestamps never go backwards and the
//!   run never finishes past its horizon.
//! * **Determinism** — the [`RunDigest`] fingerprint is byte-identical
//!   across all three executions (tracing, thread count, and re-execution
//!   are invisible to results).
//! * **No panic** — a panic inside a run (in debug builds, the runtime
//!   auditor's) is caught and reported against its case.
//!
//! The binary front-end lives in `src/bin/simtest.rs`; it writes each
//! failing case to `results/simtest_fail_<seed>.json`, which
//! `dibs-sim --digest` replays. `scripts/check.sh --full` runs the smoke
//! tier (64 seeds) in the dev profile, so the debug auditor is on.

use crate::Executor;
use dibs::scenario::{Scenario, TopologySpec};
use dibs::{RunDigest, RunResults, TraceSpec, Tracer};
use dibs_engine::rng::SimRng;
use dibs_engine::time::SimTime;
use dibs_json::{FromJson, Json};
use dibs_stats::NetCounters;
use dibs_trace::{query, TraceKind};

/// Seeded cases in a full soak.
pub const DEFAULT_SEEDS: u64 = 256;
/// Seeded cases in the `--smoke` tier run by `scripts/check.sh --full`.
pub const SMOKE_SEEDS: u64 = 64;
/// Master seed the soak derives every case seed from (the same master the
/// workspace determinism tests use).
pub const MASTER_SEED: u64 = 0xD1B5_2014;

/// Soak parameters.
#[derive(Debug, Clone, Copy)]
pub struct SoakConfig {
    /// Number of seeded cases to run.
    pub seeds: u64,
    /// Worker threads for the parallel passes.
    pub jobs: usize,
    /// Master seed; each case's seed is a pure function of this and the
    /// case index.
    pub master_seed: u64,
}

impl SoakConfig {
    /// The full soak at `jobs` workers.
    pub fn full(jobs: usize) -> Self {
        SoakConfig {
            seeds: DEFAULT_SEEDS,
            jobs,
            master_seed: MASTER_SEED,
        }
    }

    /// The smoke tier at `jobs` workers.
    pub fn smoke(jobs: usize) -> Self {
        SoakConfig {
            seeds: SMOKE_SEEDS,
            ..Self::full(jobs)
        }
    }
}

/// The topology families the soak draws from, as scenario `topology`
/// objects.
const TOPOLOGIES: [(&str, &str); 5] = [
    (
        "single_switch",
        r#"{ "type": "single_switch", "hosts": 6 }"#,
    ),
    (
        "linear",
        r#"{ "type": "linear", "switches": 3, "hosts_per_switch": 2 }"#,
    ),
    ("dumbbell", r#"{ "type": "dumbbell", "hosts_per_side": 4 }"#),
    ("mini_testbed", r#"{ "type": "mini_testbed" }"#),
    ("fat_tree_k4", r#"{ "type": "fat_tree", "k": 4 }"#),
];

/// One soak case: a scenario file and the identity it was drawn from.
#[derive(Debug, Clone)]
pub struct SoakCase {
    /// Position of the case in its soak.
    pub index: u64,
    /// The scenario's `"seed"`. Kept below 2^53 so it survives JSON, whose
    /// numbers are `f64`.
    pub seed: u64,
    /// `simtest/<index> <topology family>`.
    pub label: String,
    /// The scenario JSON text; it alone describes the run.
    pub scenario: String,
}

impl SoakCase {
    /// Draws case `index` of the soak rooted at `master_seed`: a pure
    /// function of the two.
    pub fn generate(master_seed: u64, index: u64) -> SoakCase {
        let seed = dibs::RunDescriptor::new("simtest", "fault-soak", index, 0).seed(master_seed)
            & ((1 << 53) - 1);
        let mut rng = SimRng::new(seed).fork("simtest/gen");
        #[allow(clippy::cast_possible_truncation)] // modulo a tiny constant
        let (family, topology) = TOPOLOGIES[(index % TOPOLOGIES.len() as u64) as usize];
        let topo = Json::parse(topology)
            .and_then(|v| TopologySpec::from_json(&v))
            .unwrap_or_else(|e| panic!("soak topology `{topology}` must parse: {e}"))
            .build(seed);
        let hosts = topo.num_hosts();

        // One incast per case (buffer pressure). Responders go round-robin
        // over the other hosts, so a degree past `hosts - 1` repeats them.
        let target = rng.below(hosts);
        let mut workloads = vec![format!(
            r#"{{ "type": "incast", "target": {target}, "degree": {}, "response_bytes": {}, "at_ms": {} }}"#,
            2 + rng.below(2 * hosts - 3),
            4_000 + 8_000 * rng.range_u64(0, 4),
            rng.range_u64(0, 2),
        )];
        // A few explicit flows so acks, retransmissions, and cross traffic
        // interleave with the incast.
        for _ in 0..(1 + rng.below(3)) {
            let src = rng.below(hosts);
            let dst = (src + 1 + rng.below(hosts - 1)) % hosts;
            workloads.push(format!(
                r#"{{ "type": "flow", "src": {src}, "dst": {dst}, "bytes": {}, "at_ms": {} }}"#,
                2_000 + rng.range_u64(0, 30_000),
                rng.range_u64(0, 3),
            ));
        }
        // Sometimes generated traffic on top: Poisson queries and
        // DCTCP-paper background flows over the 5 ms generation window.
        if rng.chance(0.3) {
            workloads.push(format!(
                r#"{{ "type": "query", "qps": {}, "degree": {}, "response_bytes": {} }}"#,
                *rng.pick(&[400, 1_000, 2_000]),
                2 + rng.below((hosts - 2).min(6)),
                2_000 + 2_000 * rng.range_u64(0, 8),
            ));
        }
        if rng.chance(0.2) {
            workloads.push(format!(
                r#"{{ "type": "background", "interarrival_ms": {} }}"#,
                rng.range_u64(2, 11)
            ));
        }
        // Half the cases shrink the per-port buffers so incasts overflow
        // them and DIBS detours.
        let overrides = if rng.chance(0.5) {
            format!(
                "\n  \"overrides\": {{ \"buffer_packets\": {} }},",
                *rng.pick(&[6, 12, 24])
            )
        } else {
            String::new()
        };

        // Fault schedule: seeded random link flaps, plus (sometimes)
        // probabilistic drop/corrupt profiles and a timed switch crash
        // addressed by its topology name.
        let mut clauses: Vec<String> = vec![format!("random:{}", 1 + rng.below(3))];
        if rng.chance(0.6) {
            let kind = *rng.pick(&["any", "detoured", "data", "ack"]);
            clauses.push(format!("drop:p=1e-3:kind={kind}"));
        }
        if rng.chance(0.3) {
            clauses.push("corrupt:p=5e-4".to_string());
        }
        if rng.chance(0.25) {
            let sw = topo.switch_nodes()[rng.below(topo.num_switches())];
            let t_us = rng.range_u64(2_000, 20_000);
            clauses.push(format!("switch-crash:t={t_us}us:{}", topo.node(sw).name));
        }

        let scenario = format!(
            "{{\n  \"seed\": {seed},\n  \"topology\": {topology},\n  \
             \"duration_ms\": 5,\n  \"drain_ms\": 25,{overrides}\n  \
             \"workloads\": [\n    {}\n  ],\n  \"faults\": \"{}\"\n}}\n",
            workloads.join(",\n    "),
            clauses.join(";"),
        );
        SoakCase {
            index,
            seed,
            label: format!("simtest/{index} {family}"),
            scenario,
        }
    }
}

/// One violated invariant.
#[derive(Debug, Clone)]
pub struct SoakFailure {
    /// Index of the failing case in [`SoakReport::cases`].
    pub index: u64,
    /// Label of the case that failed (`simtest/<index> <topology>`).
    pub case: String,
    /// Which invariant was violated.
    pub invariant: &'static str,
    /// Human-readable evidence.
    pub detail: String,
}

impl std::fmt::Display for SoakFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {} — {}", self.case, self.invariant, self.detail)
    }
}

/// What one case's traced execution did.
#[derive(Debug)]
pub struct CaseOutcome {
    /// The case as run.
    pub case: SoakCase,
    /// `RunDigest` fingerprint of the untraced sequential run — what
    /// `dibs-sim --digest` prints for the case's file — or `None` if it
    /// panicked.
    pub fingerprint: Option<u64>,
    /// The traced run's counters (zero if it panicked).
    pub counters: NetCounters,
}

/// Outcome of a whole soak.
#[derive(Debug)]
pub struct SoakReport {
    /// One outcome per case, in case order (each case runs three times).
    pub cases: Vec<CaseOutcome>,
    /// Every invariant violation observed.
    pub failures: Vec<SoakFailure>,
}

impl SoakReport {
    /// Whether every invariant held in every case.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// One executed case: the run plus the bounds its invariants check.
struct CaseRun {
    initial_ttl: u8,
    horizon: SimTime,
    results: RunResults,
}

/// Parses, builds, and runs a case once, as `dibs-sim` would. `traced`
/// installs a full-capture tracer so the trace-based invariants can run;
/// results must be byte-identical either way. A panic comes back as its
/// message.
fn run_case(case: &SoakCase, traced: bool) -> Result<CaseRun, String> {
    let mut sim = Scenario::from_json(&case.scenario)
        .and_then(|s| s.build())
        .unwrap_or_else(|e| panic!("{}: generated scenario must build: {e}", case.label));
    if traced {
        sim.set_tracer(Tracer::from_spec(
            &TraceSpec::parse("all").expect("`all` is a valid trace spec"),
        ));
    }
    let initial_ttl = sim.config().tcp.initial_ttl;
    let horizon = sim.config().horizon;
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run()))
        .map(|results| CaseRun {
            initial_ttl,
            horizon,
            results,
        })
        .map_err(|payload| {
            payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string())
        })
}

/// The digest of one untraced execution, or its panic message.
fn fingerprint(case: &SoakCase) -> Result<u64, String> {
    run_case(case, false).map(|run| RunDigest::of(&run.results).fingerprint())
}

/// Invariants 1–3 on one traced run.
fn check_invariants(case: &SoakCase, run: &CaseRun) -> Vec<SoakFailure> {
    let CaseRun {
        initial_ttl,
        horizon,
        ref results,
    } = *run;
    let mut failures = Vec::new();
    let fail = |invariant, detail: String| SoakFailure {
        index: case.index,
        case: case.label.clone(),
        invariant,
        detail,
    };

    // 1. Packet conservation.
    let c = &results.counters;
    let accounted = c.packets_delivered + c.total_drops() + results.packets_in_flight;
    if c.packets_sent != accounted {
        failures.push(fail(
            "packet-conservation",
            format!(
                "sent {} != delivered {} + drops {} + in_flight {}",
                c.packets_sent,
                c.packets_delivered,
                c.total_drops(),
                results.packets_in_flight
            ),
        ));
    }

    // 3. Finish bound (checked even without a trace).
    if results.finished_at > horizon {
        failures.push(fail(
            "clock-monotonicity",
            format!(
                "finished at {} ns, past the {} ns horizon",
                results.finished_at.as_nanos(),
                horizon.as_nanos()
            ),
        ));
    }

    let Some(trace) = &results.trace else {
        failures.push(fail(
            "clock-monotonicity",
            "traced run produced no trace report".to_string(),
        ));
        return failures;
    };

    // 3. Trace timestamps never go backwards (full capture preserves
    // dispatch order).
    let mut prev = 0u64;
    for e in &trace.events {
        if e.t_ns < prev {
            failures.push(fail(
                "clock-monotonicity",
                format!("trace time went backwards: {} ns after {} ns", e.t_ns, prev),
            ));
            break;
        }
        prev = e.t_ns;
    }

    // 2. TTL bound: a packet visits a switch queue (Enqueue or Detour) at
    // most once per TTL decrement, so no packet may exceed its initial
    // TTL — detour loops exist but the TTL bound cuts them.
    let mut visits: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    for e in &trace.events {
        if matches!(e.kind, TraceKind::Enqueue | TraceKind::Detour) {
            *visits.entry(e.packet).or_insert(0) += 1;
        }
    }
    for (&pkt, &n) in &visits {
        if n > u64::from(initial_ttl) {
            failures.push(fail(
                "ttl-bound",
                format!("packet {pkt} was queued {n} times but initial TTL is {initial_ttl}"),
            ));
        }
    }

    // 2b. Detour-loop query sanity: every flagged packet really detoured.
    for pkt in query::detour_loop_packets(&trace.events) {
        let lifecycle = query::packet_lifecycle(&trace.events, pkt);
        if !lifecycle.iter().any(|e| e.kind == TraceKind::Detour) {
            failures.push(fail(
                "ttl-bound",
                format!("loop query flagged packet {pkt} which never detoured"),
            ));
        }
    }

    failures
}

/// Runs the full soak: `cfg.seeds` cases × three executions each, and
/// returns every invariant violation found.
pub fn run_soak(cfg: &SoakConfig) -> SoakReport {
    let cases: Vec<SoakCase> = (0..cfg.seeds)
        .map(|i| SoakCase::generate(cfg.master_seed, i))
        .collect();

    // Pass 1: traced, parallel. Invariants 1–3 run on these results.
    let traced = Executor::new(cfg.jobs).map(cases.clone(), |case| {
        let run = run_case(&case, true);
        let failures = match &run {
            Ok(run) => check_invariants(&case, run),
            Err(panic) => vec![SoakFailure {
                index: case.index,
                case: case.label.clone(),
                invariant: "no-panic",
                detail: panic.clone(),
            }],
        };
        let fp = run.map(|run| {
            (
                RunDigest::of(&run.results).fingerprint(),
                run.results.counters,
            )
        });
        (case, fp, failures)
    });

    // Pass 2: untraced, sequential — the digest baseline.
    let sequential = Executor::sequential().map(cases.clone(), |case| fingerprint(&case));

    // Pass 3: untraced, parallel re-execution.
    let reexecuted = Executor::new(cfg.jobs).map(cases, |case| fingerprint(&case));

    let mut report = SoakReport {
        cases: Vec::new(),
        failures: Vec::new(),
    };
    for (((case, traced, failures), fp_seq), fp_re) in
        traced.into_iter().zip(sequential).zip(reexecuted)
    {
        report.failures.extend(failures);
        let counters = traced.as_ref().map(|&(_, c)| c).unwrap_or_default();
        // 4. Determinism across tracing, thread count, and re-execution.
        // A panicking traced run is already reported above.
        if let Ok((fp, _)) = traced {
            if fp_seq != Ok(fp) || fp_re != Ok(fp) {
                report.failures.push(SoakFailure {
                    index: case.index,
                    case: case.label.clone(),
                    invariant: "determinism",
                    detail: format!(
                        "digest diverged: traced/parallel {fp:#018x}, \
                         untraced/sequential {fp_seq:x?}, re-executed {fp_re:x?}"
                    ),
                });
            }
        }
        report.cases.push(CaseOutcome {
            case,
            fingerprint: fp_seq.ok(),
            counters,
        });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_soak_holds_all_invariants() {
        let report = run_soak(&SoakConfig {
            seeds: 10,
            jobs: 2,
            master_seed: MASTER_SEED,
        });
        assert!(
            report.ok(),
            "soak failures:\n{}",
            report
                .failures
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert_eq!(report.cases.len(), 10);
        assert!(report
            .cases
            .iter()
            .all(|c| c.counters.packets_delivered > 0));
    }

    #[test]
    fn cases_cover_every_topology_family_and_inject_faults() {
        // Over a handful of consecutive indices the generator must hit
        // every topology family, detour somewhere (shrunken buffers), and
        // produce at least one fault drop somewhere (probabilistic
        // profiles plus random flaps make a fault-free 10-case soak
        // astronomically unlikely).
        let report = run_soak(&SoakConfig {
            seeds: 10,
            jobs: 1,
            master_seed: MASTER_SEED,
        });
        for (family, _) in TOPOLOGIES {
            assert!(report.cases.iter().any(|c| c.case.label.ends_with(family)));
        }
        let any = |f: fn(&NetCounters) -> u64| report.cases.iter().any(|c| f(&c.counters) > 0);
        assert!(any(|c| c.detours), "no case ever detoured");
        assert!(any(|c| c.drops_fault), "no injected fault ever dropped");
    }

    #[test]
    fn cases_are_pure_scenarios_with_json_safe_seeds() {
        for i in 0..20 {
            let case = SoakCase::generate(MASTER_SEED, i);
            assert_eq!(case.scenario, SoakCase::generate(MASTER_SEED, i).scenario);
            assert!(case.seed < 1 << 53);
            let scenario = Scenario::from_json(&case.scenario).expect("case parses");
            assert_eq!(scenario.seed, case.seed);
            assert!(!scenario.faults.is_off());
        }
    }
}
