//! The two measurements: end-to-end (tracing off) and per-layer (one
//! traced run plus replays of its inputs through each layer).

use crate::gate::Gate;
use crate::replay::{self, LayerTimes, Rebuilt, Setting};
use crate::workload::{instance_seed, Instance, Size, Workload};
use dibs::{RunResults, SimConfig, TraceSpec, Tracer};
use dibs_cli::{Scenario, WorkloadSpec};
use dibs_engine::rng::SimRng;
use dibs_engine::time::SimDuration;
use dibs_json::{Json, ObjBuilder};
use dibs_net::routing::Fib;
use dibs_trace::TraceKind;
use dibs_workload::{BackgroundTraffic, QueryTraffic};
use std::hint::black_box;
use std::time::Instant;

/// End-to-end metrics: `(name, unit)`, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("pkts_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("engine.events", "count"),
    ("engine.events_per_s", "1/s"),
    ("engine.pending_hwm", "count"),
    ("engine.ns_per_event", "ns"),
    ("engine.share", "ratio"),
    ("topology.build_s", "s"),
    ("routing.fib_compute_s", "s"),
    ("routing.lookups", "count"),
    ("routing.ns_per_lookup", "ns"),
    ("routing.memo_hit_ratio", "ratio"),
    ("routing.share", "ratio"),
    ("switch.enqueues", "count"),
    ("switch.dequeues", "count"),
    ("switch.detours", "count"),
    ("switch.ecn_marks", "count"),
    ("switch.drops", "count"),
    ("switch.detour_ratio", "ratio"),
    ("switch.ns_per_enqueue", "ns"),
    ("switch.ns_per_dequeue", "ns"),
    ("switch.share", "ratio"),
    ("transport.sends", "count"),
    ("transport.retransmits", "count"),
    ("transport.acks", "count"),
    ("transport.timeouts", "count"),
    ("transport.useful_ratio", "ratio"),
    ("transport.ns_per_ack", "ns"),
    ("transport.ns_per_data", "ns"),
    ("transport.share", "ratio"),
    ("workload.gen_s", "s"),
    ("workload.flows", "count"),
    ("workload.queries", "count"),
    ("fault.resolve_s", "s"),
    ("fault.reroutes", "count"),
    ("fault.ns_per_reroute", "ns"),
    ("fault.drops", "count"),
    ("fault.share", "ratio"),
    ("trace.events", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("core.run_s", "s"),
    ("core.share_sum", "ratio"),
    ("core.residual_share", "ratio"),
    ("sim.qct_p99_ms", "ms"),
    ("sim.detoured_fraction", "ratio"),
    ("sim.drops", "count"),
    ("sim.digest", "hash"),
];

/// Simulations built per instance to time set-up; the last one runs.
const SETUP_REPS: usize = 5;
/// Untraced runs of the traced instance (the shares' denominator), each
/// followed by one timing of every layer replay.
const UNTRACED_RUNS: usize = 3;
/// Repetitions of each set-up layer timing.
const REPLAY_REPS: usize = 3;

/// A finished measurement.
pub struct Measured {
    /// Metric values by name.
    pub values: Vec<(&'static str, f64)>,
    /// The correctness gate over every run made.
    pub gate: Gate,
    /// What was run, so any number can be replayed.
    pub provenance: Json,
    /// Attribution problems of a traced run that are timing noise rather
    /// than wrong results, such as layer shares summing past 1.
    pub replay_errors: Vec<String>,
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let r = f();
    (start.elapsed().as_secs_f64(), r)
}

/// Median seconds of `reps` calls of `f`.
fn median_time<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let times: Vec<f64> = (0..reps).map(|_| timed(|| black_box(f())).0).collect();
    median(&times)
}

/// Peak resident set size of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn instance_json(inst: &Instance, results: &RunResults, fingerprint: u64, run_s: f64) -> Json {
    ObjBuilder::new()
        .field("seed", inst.seed)
        .field("digest", format!("{fingerprint:016x}"))
        .field("events", results.events_dispatched)
        .field("packets", results.counters.packets_sent)
        .field("run_s", run_s)
        .build()
}

fn provenance(
    workload: Workload,
    seed: u64,
    size: Size,
    first: &Instance,
    config: &SimConfig,
    instances: Vec<Json>,
) -> Json {
    ObjBuilder::new()
        .field("workload", workload.name())
        .field("seed", seed)
        .field("size", format!("{size:?}"))
        .field("scenario", first.text.as_str())
        .field("fault_spec", first.faults.to_string())
        .field("sim_config", format!("{config:?}"))
        .field("instances", Json::Arr(instances))
        .build()
}

fn sim_config(inst: &Instance) -> Result<SimConfig, String> {
    inst.scenario.sim_config().map_err(|e| e.to_string())
}

/// End-to-end measurement with tracing off: instance 0 once as warm-up,
/// then instances 0, 1, 2, ... until `seconds` of measuring have passed
/// (at least one), each built [`SETUP_REPS`] times and run once.
pub fn end_to_end(
    workload: Workload,
    seed: u64,
    seconds: u64,
    size: Size,
) -> Result<Measured, String> {
    let mut gate = Gate::default();
    let first = Instance::new(workload, instance_seed(seed, 0), size)?;
    let config = sim_config(&first)?;
    let (_, sim) = first.build()?;
    let warm = gate.check("instance 0 warm-up", &sim.run(), None);

    let mut setups = Vec::new();
    let mut runs = Vec::new();
    let mut rates = Vec::new();
    let mut records = Vec::new();
    let start = Instant::now();
    let mut i = 0;
    while i == 0 || start.elapsed().as_secs_f64() < seconds as f64 {
        let inst = Instance::new(workload, instance_seed(seed, i), size)?;
        let mut sim = None;
        for _ in 0..SETUP_REPS {
            let (s, built) = inst.build()?;
            setups.push(s);
            sim = Some(built);
        }
        let sim = sim.expect("SETUP_REPS is positive");
        let (run_s, results) = timed(|| sim.run());
        let fp = gate.check(
            &format!("instance {i} (seed {})", inst.seed),
            &results,
            (i == 0).then_some(warm),
        );
        runs.push(run_s);
        rates.push(results.counters.packets_sent as f64 / run_s);
        records.push(instance_json(&inst, &results, fp, run_s));
        i += 1;
    }
    let values = vec![
        ("setup_s", median(&setups)),
        ("run_s", median(&runs)),
        ("pkts_per_s", median(&rates)),
        ("peak_rss_mb", peak_rss_mb()),
    ];
    Ok(Measured {
        values,
        gate,
        provenance: provenance(workload, seed, size, &first, &config, records),
        replay_errors: Vec::new(),
    })
}

/// Generates the scenario's traffic the way `Scenario::build` does;
/// returns `(flows, queries)`.
fn generate_traffic(sc: &Scenario, hosts: usize) -> (u64, u64) {
    let duration = SimDuration::from_millis(sc.duration_ms);
    let root = SimRng::new(sc.seed);
    let (mut flows, mut queries) = (0u64, 0u64);
    for (i, wl) in (0u64..).zip(&sc.workloads) {
        match *wl {
            WorkloadSpec::Background { interarrival_ms } => {
                let mut rng = root.fork_idx("cli/background", i);
                let bg = BackgroundTraffic::paper(SimDuration::from_millis(interarrival_ms))
                    .generate(hosts, duration, &mut rng);
                flows += bg.len() as u64;
            }
            WorkloadSpec::Query {
                qps,
                degree,
                response_bytes,
            } => {
                let mut rng = root.fork_idx("cli/query", i);
                let qs = QueryTraffic {
                    qps,
                    degree,
                    response_bytes,
                }
                .generate(hosts, duration, &mut rng);
                queries += qs.len() as u64;
                flows += qs.iter().map(|q| q.responders.len() as u64).sum::<u64>();
            }
            WorkloadSpec::Incast { degree, .. } => {
                queries += 1;
                flows += degree as u64;
            }
            WorkloadSpec::LongLived { .. } | WorkloadSpec::Flow { .. } => {}
        }
    }
    (flows, queries)
}

/// Per-layer measurement of instance 0: set-up layers timed from outside,
/// one fully traced run, the rebuild of every layer's inputs from its
/// trace, then [`UNTRACED_RUNS`] untraced runs each followed by timed
/// layer replays.
pub fn per_layer(workload: Workload, seed: u64, size: Size) -> Result<Measured, String> {
    let mut gate = Gate::default();
    let inst = Instance::new(workload, instance_seed(seed, 0), size)?;
    let config = sim_config(&inst)?;
    let sc = &inst.scenario;

    // Set-up layers, each driven through its public entry point.
    let topology_s = median_time(REPLAY_REPS, || sc.topology.build(sc.seed));
    let topo = sc.topology.build(sc.seed);
    let salt = SimRng::new(config.seed).fork("ecmp").seed();
    let fib_s = median_time(REPLAY_REPS, || Fib::compute_salted(&topo, salt));
    let gen_s = median_time(REPLAY_REPS, || generate_traffic(sc, topo.num_hosts()));
    let (gen_flows, gen_queries) = generate_traffic(sc, topo.num_hosts());
    let resolve = || {
        let mut rng = SimRng::new(config.seed).fork("fault/plan");
        inst.faults.resolve(&topo, config.horizon, &mut rng)
    };
    let resolve_s = if inst.faults.is_off() {
        0.0
    } else {
        median_time(REPLAY_REPS, resolve)
    };
    let plan = if inst.faults.is_off() {
        None
    } else {
        Some(resolve().map_err(|e| e.to_string())?)
    };

    // One fully traced run, and the rebuild of every layer's inputs.
    let (_, mut sim) = inst.build()?;
    let spec = TraceSpec::parse("all")?;
    sim.set_tracer(Tracer::from_spec(&spec));
    let (traced_s, mut results) = timed(|| sim.run());
    let fp = gate.check("traced run", &results, None);
    let trace = results.trace.take().ok_or("traced run produced no trace")?;
    let set = Setting {
        topo: &topo,
        config: &config,
        plan: plan.as_ref(),
        flows: &results.flows,
    };
    let events = results.events_dispatched;
    let pending = trace.queue_high_watermark;
    let trace_events = trace.events.len() as u64;
    let rebuilt = match replay::rebuild(&set, &trace.events) {
        Ok(r) => {
            gate.pass();
            Some(r)
        }
        Err(why) => {
            gate.fail("replay rebuild", why);
            None
        }
    };
    drop(trace);

    // Untraced runs (the shares' denominator, each with the traced run's
    // digest) alternate with the layer replays, so both sample the same
    // stretch of machine speed.
    let mut runs = Vec::new();
    let mut reps = Vec::new();
    let mut records = Vec::new();
    for k in 0..UNTRACED_RUNS {
        let (_, sim) = inst.build()?;
        let (run_s, untraced) = timed(|| sim.run());
        let fp_k = gate.check(&format!("untraced run {k}"), &untraced, Some(fp));
        runs.push(run_s);
        if k == 0 {
            records.push(instance_json(&inst, &untraced, fp_k, run_s));
        }
        drop(untraced);
        if let Some(r) = &rebuilt {
            reps.push(replay::time_layers(&set, r, events, pending));
        }
    }
    let run_s = median(&runs);
    let times = if reps.is_empty() {
        LayerTimes::default()
    } else {
        median_times(&reps)
    };
    if let Some(r) = &rebuilt {
        let generated = (gen_flows, gen_queries);
        for problem in fidelity(r, &results, plan.as_ref(), &config, generated) {
            gate.fail("replay fidelity", problem);
        }
        if times.switch_detours != r.count(TraceKind::Detour) {
            gate.fail(
                "replay fidelity",
                format!(
                    "timed switch replay detoured {} packets, the run {}",
                    times.switch_detours,
                    r.count(TraceKind::Detour)
                ),
            );
        }
    }

    let qct_p99_ms = results.qct_p99_ms().unwrap_or(0.0);
    let c = &results.counters;
    let r = rebuilt.as_ref();
    let count = |k: TraceKind| r.map_or(0, |r| r.count(k)) as f64;
    let lookups = r.map_or(0, Rebuilt::lookups) as f64;
    let reroutes = r.map_or(0, Rebuilt::reroutes) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let per_op_ns = |s: f64, n: f64| ratio(s * 1e9, n);
    let share = |s: f64| s / run_s;
    let shares = [
        times.engine_s,
        times.routing_s,
        times.switch_s,
        times.transport_s(),
        times.fault_s,
    ]
    .map(share);
    let share_sum: f64 = shares.iter().sum();
    let residual = 1.0 - share_sum;
    let mut replay_errors = Vec::new();
    if residual < 0.0 {
        replay_errors.push(format!(
            "layer shares sum to {share_sum:.4} > 1: negative residual {residual:.4}"
        ));
    }
    let sends = count(TraceKind::Send);
    let retransmits = count(TraceKind::Retransmit);
    let digest_bits = fp & ((1u64 << 52) - 1);
    let values = vec![
        ("engine.events", events as f64),
        ("engine.events_per_s", events as f64 / run_s),
        ("engine.pending_hwm", pending as f64),
        (
            "engine.ns_per_event",
            per_op_ns(times.engine_s, events as f64),
        ),
        ("engine.share", shares[0]),
        ("topology.build_s", topology_s),
        ("routing.fib_compute_s", fib_s),
        ("routing.lookups", lookups),
        ("routing.ns_per_lookup", per_op_ns(times.routing_s, lookups)),
        (
            "routing.memo_hit_ratio",
            ratio(times.memo_hits as f64, lookups),
        ),
        ("routing.share", shares[1]),
        ("switch.enqueues", count(TraceKind::Enqueue)),
        ("switch.dequeues", count(TraceKind::Dequeue)),
        ("switch.detours", count(TraceKind::Detour)),
        ("switch.ecn_marks", count(TraceKind::EcnMark)),
        ("switch.drops", r.map_or(0, |r| r.switch_drops) as f64),
        (
            "switch.detour_ratio",
            ratio(count(TraceKind::Detour), lookups),
        ),
        (
            "switch.ns_per_enqueue",
            per_op_ns(times.enqueue_s, r.map_or(0, Rebuilt::enqueue_calls) as f64),
        ),
        (
            "switch.ns_per_dequeue",
            per_op_ns(times.dequeue_s, r.map_or(0, Rebuilt::dequeue_calls) as f64),
        ),
        ("switch.share", shares[2]),
        ("transport.sends", sends),
        ("transport.retransmits", retransmits),
        ("transport.acks", count(TraceKind::Ack)),
        ("transport.timeouts", count(TraceKind::Timeout)),
        ("transport.useful_ratio", ratio(sends, sends + retransmits)),
        (
            "transport.ns_per_ack",
            per_op_ns(times.ack_s, r.map_or(0, Rebuilt::ack_calls) as f64),
        ),
        (
            "transport.ns_per_data",
            per_op_ns(times.data_s, r.map_or(0, Rebuilt::data_calls) as f64),
        ),
        ("transport.share", shares[3]),
        ("workload.gen_s", gen_s),
        ("workload.flows", results.flows.len() as f64),
        ("workload.queries", results.queries.len() as f64),
        ("fault.resolve_s", resolve_s),
        ("fault.reroutes", reroutes),
        ("fault.ns_per_reroute", per_op_ns(times.fault_s, reroutes)),
        ("fault.drops", c.drops_fault as f64),
        ("fault.share", shares[4]),
        ("trace.events", trace_events as f64),
        ("trace.overhead_ratio", ratio(traced_s, run_s)),
        ("core.run_s", run_s),
        ("core.share_sum", share_sum),
        ("core.residual_share", residual),
        ("sim.qct_p99_ms", qct_p99_ms),
        (
            "sim.detoured_fraction",
            ratio(c.delivered_detoured as f64, c.packets_delivered as f64),
        ),
        ("sim.drops", c.total_drops() as f64),
        ("sim.digest", digest_bits as f64),
    ];
    Ok(Measured {
        values,
        gate,
        provenance: provenance(workload, seed, size, &inst, &config, records),
        replay_errors,
    })
}

fn median_times(reps: &[LayerTimes]) -> LayerTimes {
    let m = |f: fn(&LayerTimes) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    LayerTimes {
        engine_s: m(|t| t.engine_s),
        routing_s: m(|t| t.routing_s),
        fault_s: m(|t| t.fault_s),
        enqueue_s: m(|t| t.enqueue_s),
        dequeue_s: m(|t| t.dequeue_s),
        ack_s: m(|t| t.ack_s),
        sender_other_s: m(|t| t.sender_other_s),
        data_s: m(|t| t.data_s),
        memo_hits: reps.first().map_or(0, |t| t.memo_hits),
        switch_s: m(|t| t.switch_s),
        switch_split_ok: reps.iter().all(|t| t.switch_split_ok),
        switch_detours: reps.first().map_or(0, |t| t.switch_detours),
    }
}

/// Cross-checks of the rebuilt inputs against the run's own counters:
/// every replay must make exactly as many calls as the run did.
fn fidelity(
    r: &Rebuilt,
    results: &RunResults,
    plan: Option<&dibs::FaultPlan>,
    config: &SimConfig,
    generated: (u64, u64),
) -> Vec<String> {
    let c = &results.counters;
    let mut out = Vec::new();
    let mut expect = |what: &str, replayed: u64, traced: u64| {
        if replayed != traced {
            out.push(format!(
                "{what}: replay made {replayed} calls, the run made {traced}"
            ));
        }
    };
    expect(
        "routing lookups vs switch admissions",
        r.lookups(),
        r.count(TraceKind::Enqueue) + r.count(TraceKind::Detour) + c.drops_buffer,
    );
    expect("switch enqueues vs lookups", r.enqueue_calls(), r.lookups());
    expect(
        "switch dequeues",
        r.dequeue_calls(),
        r.count(TraceKind::Dequeue),
    );
    expect("switch detours", r.count(TraceKind::Detour), c.detours);
    expect("switch ECN marks", r.count(TraceKind::EcnMark), c.ecn_marks);
    expect(
        "switch drops",
        r.switch_drops,
        c.drops_buffer + c.drops_displaced,
    );
    expect(
        "host emissions",
        r.count(TraceKind::Send) + r.count(TraceKind::Retransmit) + r.count(TraceKind::Ack),
        c.packets_sent,
    );
    expect(
        "transport deliveries",
        r.ack_calls() + r.data_calls(),
        c.packets_delivered,
    );
    expect(
        "transport timeouts",
        r.count(TraceKind::Timeout),
        c.rto_timeouts,
    );
    let due = plan.map_or(0, |p| {
        p.timed.iter().filter(|tf| tf.at <= config.horizon).count() as u64
    });
    expect("fault reroutes", r.reroutes(), due);
    expect("generated flows", generated.0, results.flows.len() as u64);
    expect(
        "generated queries",
        generated.1,
        results.queries.len() as u64,
    );
    out
}
