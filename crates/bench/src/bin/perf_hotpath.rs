//! Hot-path microbenchmarks: event-queue ops and FIB lookups, emitted as
//! `BENCH_hotpath.json`. End-to-end simulation rates are measured by
//! `perfbench` instead.
//!
//! This binary seeds the repository's perf trajectory: it pins the pre-PR
//! baseline numbers (measured on the heap-based event queue and the
//! nested-`Vec` FIB at commit `eb3fc25`) next to the current tree's
//! numbers so every future change can be judged against both.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p dibs-bench --bin perf_hotpath            # full suite
//! cargo run --release -p dibs-bench --bin perf_hotpath -- --smoke # CI smoke
//! ```
//!
//! The full suite writes `BENCH_hotpath.json` in the working directory
//! (committed at the repo root); `--smoke` runs a trimmed workload and
//! writes `results/BENCH_hotpath_smoke.json` instead so CI runs never
//! clobber the committed record.

use dibs_bench::timing::{CaseMeasurement, Group};
use dibs_engine::queue::EventQueue;
use dibs_engine::rng::SimRng;
use dibs_engine::time::{SimDuration, SimTime};
use dibs_json::{Json, ObjBuilder};
use dibs_net::builders::{fat_tree, FatTreeParams};
use dibs_net::ids::{FlowId, HostId, NodeId};
use dibs_net::routing::Fib;
use std::hint::black_box;

/// Pre-PR hot-path baseline, measured at commit `eb3fc25` (binary heap
/// event queue, nested-`Vec` FIB) with the same workloads this binary
/// runs. Pinned so the committed `BENCH_hotpath.json` always records
/// both sides of the comparison.
///
/// The shared build machine's absolute throughput drifts by tens of
/// percent across time windows, so absolute rates are only comparable
/// *within* a window. Both baselines below were therefore measured with
/// a paired protocol: a pristine `eb3fc25` worktree ran probes
/// replicating each case's exact workload and measurement statistic
/// (calibrated ~30 ms batches, best of 5) immediately before the suite
/// run that produced the committed `BENCH_hotpath.json`.
mod baseline {
    /// `event_queue/push_pop_hot` nanoseconds per op.
    pub const QUEUE_PUSH_POP_NS_PER_OP: f64 = 36.40;
    /// `fib/select_port` nanoseconds per lookup.
    pub const FIB_SELECT_NS_PER_LOOKUP: f64 = 12.25;
    /// Commit the numbers were measured at.
    pub const COMMIT: &str = "eb3fc25";
}

struct Suite {
    smoke: bool,
    cases: Vec<CaseMeasurement>,
}

impl Suite {
    fn find(&self, group: &str, case: &str) -> Option<&CaseMeasurement> {
        self.cases
            .iter()
            .find(|m| m.group == group && m.case == case)
    }
}

fn bench_event_queue(s: &mut Suite) {
    let g = Group::new("event_queue");

    // Steady-state churn at a realistic pending-set size (~1k events, the
    // regime an incast run keeps the queue in): one pop + one reschedule
    // per iteration = 2 queue ops.
    {
        let mut q = EventQueue::new();
        for i in 0..1000u64 {
            q.push(SimTime::from_nanos(i * 100), i);
        }
        let mut t = 0u64;
        let m = g.case_rate("push_pop_hot", "ops", || {
            t += 97;
            let (head, _) = q.pop().expect("queue stays nonempty");
            q.push(head + SimDuration::from_nanos(t % 100_000), t);
            black_box(head);
            2
        });
        s.cases.push(m);
    }

    // Bulk fill + drain with scattered timestamps (the schedule-heavy
    // start-of-run regime).
    let n: u64 = if s.smoke { 8_192 } else { 65_536 };
    let cap = usize::try_from(n).expect("fill size fits usize");
    let m = g.case_rate("fill_drain_64k", "ops", move || {
        let mut q = EventQueue::with_capacity(cap);
        for i in 0..n {
            q.push(SimTime::from_nanos((i * 2_654_435_761) % 1_000_000), i);
        }
        while let Some(e) = q.pop() {
            black_box(e);
        }
        2 * n
    });
    s.cases.push(m);
}

fn bench_fib(s: &mut Suite) {
    let g = Group::new("fib");
    let topo = fat_tree(FatTreeParams::paper_default());

    if !s.smoke {
        let m = g.case("compute_k8", || black_box(Fib::compute(&topo)));
        s.cases.push(m);
    }

    let fib = Fib::compute(&topo);
    // Deterministic lookup batch: switch nodes x random (dst, flow).
    let mut rng = SimRng::new(0xF1B);
    let switches = topo.switch_nodes().to_vec();
    let batch: Vec<(NodeId, HostId, FlowId)> = (0..1024)
        .map(|_| {
            let node = switches[rng.below(switches.len())];
            let dst = HostId::from_index(rng.below(topo.num_hosts()));
            let flow = FlowId(u32::try_from(rng.below(4096)).expect("flow id fits u32"));
            (node, dst, flow)
        })
        .collect();
    let lookups = u64::try_from(batch.len()).expect("batch size fits u64");
    let m = g.case_rate("select_port", "lookups", || {
        let mut acc = 0usize;
        for &(node, dst, flow) in &batch {
            acc = acc.wrapping_add(fib.select_port(node, dst, flow).unwrap_or(0));
        }
        black_box(acc);
        lookups
    });
    s.cases.push(m);
}

fn report(s: &Suite) -> Json {
    let queue = s.find("event_queue", "push_pop_hot").expect("queue case");
    let fib = s.find("fib", "select_port").expect("fib case");

    let baseline_obj = ObjBuilder::new()
        .field("commit", baseline::COMMIT)
        .field(
            "event_queue_push_pop_ns_per_op",
            baseline::QUEUE_PUSH_POP_NS_PER_OP,
        )
        .field(
            "fib_select_port_ns_per_lookup",
            baseline::FIB_SELECT_NS_PER_LOOKUP,
        )
        .build();

    let current_obj = ObjBuilder::new()
        .field(
            "event_queue_push_pop_ns_per_op",
            queue.ns_per_iter / queue.items_per_iter,
        )
        .field(
            "fib_select_port_ns_per_lookup",
            fib.ns_per_iter / fib.items_per_iter,
        )
        .build();

    let cases = Json::Arr(s.cases.iter().map(CaseMeasurement::to_json).collect());
    ObjBuilder::new()
        .field("bench", "hotpath")
        .field("mode", if s.smoke { "smoke" } else { "full" })
        .field("baseline", baseline_obj)
        .field("current", current_obj)
        .field("cases", cases)
        .build()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut suite = Suite {
        smoke,
        cases: Vec::new(),
    };

    bench_event_queue(&mut suite);
    bench_fib(&mut suite);

    let json = report(&suite);
    let path = if smoke {
        let _ = std::fs::create_dir_all("results");
        "results/BENCH_hotpath_smoke.json".to_string()
    } else {
        "BENCH_hotpath.json".to_string()
    };
    match std::fs::write(&path, json.render_pretty()) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("warning: cannot write {path}: {e}"),
    }
}
