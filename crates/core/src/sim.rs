//! The event-driven network simulator.
//!
//! All mutable state lives in arenas indexed by the id types of
//! `dibs-net`; the event loop dispatches a flat [`Event`] enum of at most
//! 16 bytes. Hosts own a single unbounded NIC queue (congestion happens at
//! switches, as in the paper's NS-3 setup); switches run the full
//! `dibs-switch` data path.
//!
//! A packet between two nodes — queued at a host NIC, serializing or
//! propagating — lives in the simulation's [`PacketArena`]; NIC queues
//! and events carry its 4-byte handle. It is written there once when it leaves a node and taken once
//! when it reaches the next switch or its destination host.

use crate::arena::{PacketArena, PacketHandle};
use crate::audit::{AuditLedger, LedgerSnapshot};
use crate::config::{SimConfig, HOST_NIC_CAP};
use crate::results::{FlowOutcome, QueryOutcome, RunResults};
use dibs_engine::rng::SimRng;
use dibs_engine::time::{SimDuration, SimTime};
use dibs_engine::Engine;
use dibs_fault::{FaultAction, FaultError, FaultPlan, FaultSpec};
use dibs_net::ids::{FlowId, HostId, LinkId, NodeId};
use dibs_net::packet::Packet;
use dibs_net::routing::{EcmpMemo, Fib};
use dibs_net::topology::Topology;
use dibs_stats::{NetCounters, Samples};
use dibs_switch::{EnqueueOutcome, SwitchCore};
use dibs_trace::{TraceEvent, TraceKind, TraceSink, Tracer};
use dibs_transport::{trace_packet_out, IdGen, TcpReceiver, TcpSender};
use dibs_workload::{FlowClass, FlowSpec, QuerySpec};
use std::collections::VecDeque;

/// Maximum distinct detour counts tracked in the delivery histogram.
const DETOUR_HIST_BUCKETS: usize = 65;

/// Simulator events. Packets ride as [`PacketHandle`]s into the
/// simulation's [`PacketArena`], never by value.
#[derive(Debug)]
enum Event {
    /// A flow's start time arrived.
    FlowStart(u32),
    /// A packet finished propagating to `node`.
    Arrive { node: NodeId, pkt: PacketHandle },
    /// `node` finished serializing `pkt` out of `port`.
    TxComplete {
        node: NodeId,
        port: u32,
        pkt: PacketHandle,
    },
    /// A sender retransmission timer fired.
    RtoFire { flow: u32, gen: u64 },
    /// Periodic statistics tick.
    Sample,
    /// Snapshot per-flow delivered bytes for warmup-relative throughput.
    WarmupSnapshot,
    /// A PAUSE (true) or RESUME (false) frame took effect at `node`'s
    /// `port` (Ethernet flow control, §6).
    PauseSet {
        node: NodeId,
        port: u32,
        paused: bool,
    },
    /// The `i`-th timed fault in the resolved [`FaultPlan`] takes effect.
    Fault(u32),
}

// Every timing-wheel node carries one `Event`; a variant holding a
// `Packet` by value would silently regrow each node from 32 B to ~112 B.
const _: () = assert!(std::mem::size_of::<Event>() <= 16);

struct HostNic {
    queue: VecDeque<PacketHandle>,
    busy: bool,
}

struct FlowState {
    spec: FlowSpec,
    sender: TcpSender,
    receiver: TcpReceiver,
    /// Last RTO generation for which an event was scheduled.
    timer_scheduled: u64,
    /// Query this flow belongs to, if any.
    query: Option<usize>,
    done_recorded: bool,
}

struct QueryState {
    start: SimTime,
    total: usize,
    completed: usize,
    qct: Option<SimDuration>,
}

/// Runtime state of an installed fault schedule.
///
/// Absent (`Simulation::faults == None`) the data path takes one dead
/// branch per hook and draws no randomness, so fault-free runs are
/// bit-identical to builds without this feature.
struct FaultState {
    plan: FaultPlan,
    /// `link_down[node][port]` — the port's link is administratively down
    /// (mirrored onto both endpoints of the link).
    link_down: Vec<Vec<bool>>,
    /// `crashed[switch]` — the switch blackholes everything (permanent).
    crashed: Vec<bool>,
    /// Dedicated stream for drop/corrupt Bernoulli trials, forked from
    /// the run seed so detour/ECMP streams are untouched.
    rng: SimRng,
}

/// A fully wired simulation: topology + switches + hosts + traffic.
///
/// # Examples
///
/// ```
/// use dibs::{SimConfig, Simulation};
/// use dibs_engine::time::{SimTime, SimDuration};
/// use dibs_net::builders::single_switch;
/// use dibs_net::topology::LinkSpec;
/// use dibs_net::ids::HostId;
/// use dibs_workload::{FlowClass, FlowSpec};
///
/// let topo = single_switch(3, LinkSpec::gbit(1));
/// let mut cfg = SimConfig::dctcp_dibs();
/// cfg.horizon = SimTime::from_secs(1);
/// let mut sim = Simulation::new(topo, cfg);
/// sim.add_flows([FlowSpec {
///     start: SimTime::ZERO,
///     src: HostId(0),
///     dst: HostId(1),
///     size: 100_000,
///     class: FlowClass::Background,
/// }]);
/// let results = sim.run();
/// assert_eq!(results.flows[0].bytes_delivered, 100_000);
/// assert!(results.flows[0].fct.is_some());
/// ```
pub struct Simulation {
    topo: Topology,
    fib: Fib,
    /// Per-`(flow, node, dst)` cache of flow-level ECMP decisions; a pure
    /// accelerator over [`Fib::select_port`].
    ecmp_memo: EcmpMemo,
    config: SimConfig,
    engine: Engine<Event>,
    rng_detour: SimRng,
    ids: IdGen,

    switches: Vec<SwitchCore>,
    host_nic: Vec<HostNic>,
    /// Packets between two nodes (see the module docs).
    packets: PacketArena,
    /// `tx_busy[node][port]` (hosts use port 0).
    tx_busy: Vec<Vec<bool>>,

    flows: Vec<FlowState>,
    queries: Vec<QueryState>,

    /// Run counters kept by the simulator. The switch-owned counts
    /// (`ecn_marks`, `detours`, `drops_displaced`) stay zero here until
    /// `finalize`; read them mid-run through [`Self::folded_counters`].
    counters: NetCounters,
    detour_hist: Vec<u64>,
    qct_ms: Samples,
    bg_short_fct_ms: Samples,
    bg_all_fct_ms: Samples,

    /// Flat per-directed-edge byte accumulator since the last sample tick.
    port_tx_bytes: Vec<u64>,
    /// `port_offsets[node]` — base index of the node's ports in the flat
    /// arrays.
    port_offsets: Vec<usize>,
    hot_samples: Vec<f64>,
    neighbor_free_1hop: Vec<f64>,
    neighbor_free_2hop: Vec<f64>,
    /// 1-hop switch neighborhood of each switch (switch indices).
    neighbors1: Vec<Vec<usize>>,
    /// 2-hop switch neighborhood (excluding self and 1-hop).
    neighbors2: Vec<Vec<usize>>,
    last_sample: SimTime,
    /// `(time, per-flow rcv_nxt)` captured at the warmup instant.
    warmup_snapshot: Option<(SimTime, Vec<u64>)>,
    /// `paused[node][port]` — the peer has PAUSEd this port (PFC).
    paused: Vec<Vec<bool>>,
    /// `ingress_count[switch][port]` — buffered packets that arrived via
    /// that ingress port (PFC accounting).
    ingress_count: Vec<Vec<u32>>,
    /// `pause_asserted[switch][port]` — this switch has paused the link
    /// partner on `port`.
    pause_asserted: Vec<Vec<bool>>,
    /// Total PAUSE assertions (diagnostics).
    pause_events: u64,
    /// Debug-build packet-conservation auditor.
    audit: AuditLedger,
    /// Installed fault schedule, if any (see [`Simulation::set_faults`]).
    faults: Option<FaultState>,
    /// Event-trace sink (`Tracer::Off` by default: one dead branch per
    /// potential event, nothing recorded, no RNG or scheduling impact).
    tracer: Tracer,
}

impl Simulation {
    /// Builds a simulation over `topo` with the given configuration.
    pub fn new(topo: Topology, config: SimConfig) -> Self {
        debug_assert!(topo.validate().is_ok());
        let root = SimRng::new(config.seed);
        let fib = Fib::compute_salted(&topo, root.fork("ecmp").seed());
        let rng_detour = root.fork("detour");

        let switches: Vec<SwitchCore> = topo
            .switch_nodes()
            .iter()
            .map(|&n| {
                let host_facing: Vec<bool> =
                    topo.node(n).ports.iter().map(|p| p.peer_is_host).collect();
                SwitchCore::new(n, config.switch, host_facing)
            })
            .collect();
        let host_nic = (0..topo.num_hosts())
            .map(|_| HostNic {
                queue: VecDeque::new(),
                busy: false,
            })
            .collect();
        let tx_busy = (0..topo.num_nodes())
            .map(|n| vec![false; topo.num_ports(NodeId::from_index(n))])
            .collect();

        let mut port_offsets = Vec::with_capacity(topo.num_nodes());
        let mut total_ports = 0;
        for n in 0..topo.num_nodes() {
            port_offsets.push(total_ports);
            total_ports += topo.num_ports(NodeId::from_index(n));
        }

        // Switch neighborhoods for the Fig 5 statistic.
        let n_sw = topo.num_switches();
        let mut neighbors1 = vec![Vec::new(); n_sw];
        let mut neighbors2 = vec![Vec::new(); n_sw];
        for (si, &sn) in topo.switch_nodes().iter().enumerate() {
            let mut one: Vec<usize> = topo
                .node(sn)
                .ports
                .iter()
                .filter_map(|p| topo.as_switch(p.peer).map(|s| s.index()))
                .collect();
            one.sort_unstable();
            one.dedup();
            let mut two: Vec<usize> = one
                .iter()
                .flat_map(|&m| {
                    topo.node(topo.switch_node(dibs_net::SwitchId::from_index(m)))
                        .ports
                        .iter()
                        .filter_map(|p| topo.as_switch(p.peer).map(|s| s.index()))
                })
                .collect();
            two.sort_unstable();
            two.dedup();
            two.retain(|&m| m != si && !one.contains(&m));
            neighbors1[si] = one;
            neighbors2[si] = two;
        }

        let mut engine = Engine::new();
        engine.set_horizon(config.horizon);

        Simulation {
            fib,
            ecmp_memo: EcmpMemo::with_slots(1 << 14),
            engine,
            rng_detour,
            ids: IdGen::new(),
            switches,
            host_nic,
            packets: PacketArena::default(),
            tx_busy,
            flows: Vec::new(),
            queries: Vec::new(),
            counters: NetCounters::default(),
            detour_hist: vec![0; DETOUR_HIST_BUCKETS],
            qct_ms: Samples::new(),
            bg_short_fct_ms: Samples::new(),
            bg_all_fct_ms: Samples::new(),
            port_tx_bytes: vec![0; total_ports],
            port_offsets,
            hot_samples: Vec::new(),
            neighbor_free_1hop: Vec::new(),
            neighbor_free_2hop: Vec::new(),
            neighbors1,
            neighbors2,
            last_sample: SimTime::ZERO,
            warmup_snapshot: None,
            paused: (0..topo.num_nodes())
                .map(|n| vec![false; topo.num_ports(NodeId::from_index(n))])
                .collect(),
            ingress_count: topo
                .switch_nodes()
                .iter()
                .map(|&n| vec![0; topo.num_ports(n)])
                .collect(),
            pause_asserted: topo
                .switch_nodes()
                .iter()
                .map(|&n| vec![false; topo.num_ports(n)])
                .collect(),
            pause_events: 0,
            audit: AuditLedger::new(),
            faults: None,
            tracer: Tracer::off(),
            topo,
            config,
        }
    }

    /// Installs an event tracer for this run (default: [`Tracer::off`]).
    ///
    /// Tracing is observational only: it draws no randomness and
    /// schedules nothing, so results — and in particular `RunDigest`
    /// fingerprints — are identical with any tracer installed.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Installs a fault schedule for this run (default: none).
    ///
    /// The spec is resolved against the topology immediately: symbolic
    /// names bind to link/switch ids, `random:<budget>` clauses expand
    /// through a dedicated [`SimRng`] stream derived from the run seed,
    /// and the timed events are sorted. Drop/corrupt trials likewise
    /// draw from their own stream, so installing a schedule never
    /// perturbs ECMP or detour randomness — and a spec whose every
    /// probability is zero is digest-identical to no spec at all
    /// ([`SimRng::chance`] consumes nothing for `p <= 0`).
    ///
    /// # Errors
    ///
    /// Returns [`FaultError`] when a clause names an unknown node or
    /// link, or targets a host with `switch-crash`.
    pub fn set_faults(&mut self, spec: &FaultSpec) -> Result<(), FaultError> {
        if spec.is_off() {
            self.faults = None;
            return Ok(());
        }
        let root = SimRng::new(self.config.seed);
        let mut plan_rng = root.fork("fault/plan");
        let plan = spec.resolve(&self.topo, self.config.horizon, &mut plan_rng)?;
        self.faults = Some(FaultState {
            plan,
            link_down: (0..self.topo.num_nodes())
                .map(|n| vec![false; self.topo.num_ports(NodeId::from_index(n))])
                .collect(),
            crashed: vec![false; self.topo.num_switches()],
            rng: root.fork("fault/drop"),
        });
        Ok(())
    }

    /// The topology being simulated.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The active configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Adds standalone flows (background, long-lived, or custom).
    ///
    /// # Panics
    ///
    /// Panics on self-flows or out-of-range hosts.
    pub fn add_flows(&mut self, specs: impl IntoIterator<Item = FlowSpec>) {
        for spec in specs {
            self.add_flow_internal(spec, None);
        }
    }

    /// Adds partition-aggregate queries; each expands into its response
    /// flows and is tracked for QCT.
    pub fn add_queries(&mut self, specs: &[QuerySpec]) {
        for spec in specs {
            let qi = self.queries.len();
            self.queries.push(QueryState {
                start: spec.start,
                total: spec.responders.len(),
                completed: 0,
                qct: None,
            });
            for flow in spec.response_flows(qi) {
                self.add_flow_internal(flow, Some(qi));
            }
        }
    }

    fn add_flow_internal(&mut self, spec: FlowSpec, query: Option<usize>) {
        assert!(spec.src != spec.dst, "self-flow {:?}", spec);
        assert!(spec.src.index() < self.topo.num_hosts());
        assert!(spec.dst.index() < self.topo.num_hosts());
        let fi = u32::try_from(self.flows.len()).expect("flow count fits u32");
        let flow_id = FlowId(fi);
        let sender = TcpSender::new(self.config.tcp, flow_id, spec.src, spec.dst, spec.size);
        let receiver = TcpReceiver::with_delayed_acks(
            flow_id,
            spec.dst,
            spec.src,
            spec.size,
            self.config.tcp.initial_ttl,
            self.config.tcp.ack_every,
        );
        self.flows.push(FlowState {
            spec,
            sender,
            receiver,
            timer_scheduled: 0,
            query,
            done_recorded: false,
        });
        self.engine.schedule_at(spec.start, Event::FlowStart(fi));
    }

    /// Rough event count the scheduled traffic will generate, used to
    /// pre-size the event queue before the run starts.
    ///
    /// Each data packet costs a handful of events per hop (arrive,
    /// tx-complete) in each direction counting acks; flows add start/RTO
    /// bookkeeping. Only an allocation hint, so precision is irrelevant —
    /// the aim is the right order of magnitude.
    fn estimated_event_count(&self) -> usize {
        let mss = u64::from(self.config.tcp.mss).max(1);
        let packets: u64 = self.flows.iter().map(|f| f.spec.size.div_ceil(mss)).sum();
        let per_packet_events = 8;
        let per_flow_events = 16;
        usize::try_from(packets * per_packet_events)
            .unwrap_or(usize::MAX)
            .saturating_add(self.flows.len().saturating_mul(per_flow_events))
    }

    /// Runs to completion (event exhaustion or the configured horizon) and
    /// returns the measurements.
    pub fn run(mut self) -> RunResults {
        let expected_events = self.estimated_event_count();
        self.engine.queue_mut().reserve(expected_events);
        if let Some(interval) = self.config.sample_interval {
            self.engine.schedule_in(interval, Event::Sample);
        }
        if let Some(warmup) = self.config.throughput_warmup {
            self.engine.schedule_at(warmup, Event::WarmupSnapshot);
        }
        let timed_faults: Vec<(SimTime, u32)> = self.faults.as_ref().map_or_else(Vec::new, |f| {
            f.plan
                .timed
                .iter()
                .enumerate()
                .filter(|(_, tf)| tf.at <= self.config.horizon)
                .map(|(i, tf)| (tf.at, u32::try_from(i).expect("fault count fits u32")))
                .collect()
        });
        for (at, i) in timed_faults {
            self.engine.schedule_at(at, Event::Fault(i));
        }
        while let Some(ev) = self.engine.next_event() {
            self.dispatch(ev);
            if self.audit.tick() {
                self.conservation_check();
            }
        }
        self.finalize()
    }

    /// Debug-build audit: every injected packet is delivered, dropped,
    /// queued somewhere, or riding inside a scheduled event — and the
    /// packet arena holds exactly the NIC-queued and event-borne ones.
    fn conservation_check(&self) {
        AuditLedger::check(&LedgerSnapshot {
            sent: self.counters.packets_sent,
            delivered: self.counters.packets_delivered,
            dropped: self.folded_counters().total_drops(),
            in_nic: self.host_nic.iter().map(|n| n.queue.len() as u64).sum(),
            in_buffer: self
                .switches
                .iter()
                .map(|s| s.total_buffered() as u64)
                .sum(),
            in_events: self.audit.in_events(),
            in_arena: self.packets.live() as u64,
        });
    }

    /// `self.counters` with the switch-owned counts summed in from every
    /// `SwitchCore`: the one place those counts are folded.
    fn folded_counters(&self) -> NetCounters {
        let mut c = self.counters;
        for sw in &self.switches {
            let s = sw.counters();
            c.ecn_marks += s.marked;
            c.detours += s.detoured;
            c.drops_displaced += s.displaced;
        }
        c
    }

    fn dispatch(&mut self, ev: Event) {
        if matches!(ev, Event::Arrive { .. } | Event::TxComplete { .. }) {
            self.audit.packet_event_dispatched();
        }
        match ev {
            Event::FlowStart(fi) => self.on_flow_start(fi as usize),
            Event::Arrive { node, pkt } => {
                let pkt = self.packets.take(pkt);
                self.on_arrive(node, pkt);
            }
            Event::TxComplete { node, port, pkt } => self.on_tx_complete(node, port as usize, pkt),
            Event::RtoFire { flow, gen } => self.on_rto(flow as usize, gen),
            Event::Sample => self.on_sample(),
            Event::WarmupSnapshot => {
                let bytes = self.flows.iter().map(|f| f.receiver.rcv_nxt()).collect();
                self.warmup_snapshot = Some((self.engine.now(), bytes));
            }
            Event::PauseSet { node, port, paused } => {
                self.paused[node.index()][port as usize] = paused;
                if !paused {
                    // Resume transmission on the released port.
                    match self.topo.as_host(node) {
                        Some(host) => {
                            if !self.host_nic[host.index()].busy {
                                self.start_host_tx(host);
                            }
                        }
                        None => {
                            let si = self.topo.as_switch(node).expect("switch").index();
                            self.kick_switch_port(node, si, port as usize);
                        }
                    }
                }
            }
            Event::Fault(idx) => self.on_fault(idx as usize),
        }
    }

    // ------------------------------------------------------------------
    // Fault injection.
    // ------------------------------------------------------------------

    /// Whether `node`'s `port` sits on an administratively-downed link.
    fn fault_link_down(&self, node: NodeId, port: usize) -> bool {
        self.faults
            .as_ref()
            .is_some_and(|f| f.link_down[node.index()][port])
    }

    /// Whether switch `si` has crashed.
    fn fault_crashed_switch(&self, si: usize) -> bool {
        self.faults.as_ref().is_some_and(|f| f.crashed[si])
    }

    /// One seeded Bernoulli trial per matching drop profile, evaluated in
    /// spec order with short-circuit on the first hit. `p = 0` profiles
    /// consume no randomness, so `drop:p=0` is digest-neutral.
    fn fault_should_drop(&mut self, pkt: &Packet) -> bool {
        let Some(FaultState { plan, rng, .. }) = self.faults.as_mut() else {
            return false;
        };
        plan.drops
            .iter()
            .any(|prof| prof.kind.applies(pkt.detours > 0, pkt.is_data()) && rng.chance(prof.p))
    }

    /// Same trial for corrupt profiles (applied at dequeue: the frame is
    /// damaged on the wire and discarded by the receiver's CRC check).
    fn fault_should_corrupt(&mut self, pkt: &Packet) -> bool {
        let Some(FaultState { plan, rng, .. }) = self.faults.as_mut() else {
            return false;
        };
        plan.corrupts
            .iter()
            .any(|prof| prof.kind.applies(pkt.detours > 0, pkt.is_data()) && rng.chance(prof.p))
    }

    fn on_fault(&mut self, idx: usize) {
        let Some(f) = self.faults.as_ref() else {
            return;
        };
        let action = f.plan.timed[idx].action;
        match action {
            FaultAction::LinkDown(link) => self.set_link_state(link, true),
            FaultAction::LinkUp(link) => self.set_link_state(link, false),
            FaultAction::SwitchCrash(node) => self.crash_switch(node),
        }
    }

    /// Takes a link down or brings it back up: marks both endpoints,
    /// recomputes routes, and on recovery restarts any transmitter that
    /// parked while the link was dark.
    fn set_link_state(&mut self, link: LinkId, down: bool) {
        let l = self.topo.links()[link.index()];
        let ends = [(l.a.node, l.a.port), (l.b.node, l.b.port)];
        {
            let f = self.faults.as_mut().expect("fault state present");
            for &(node, port) in &ends {
                f.link_down[node.index()][port] = down;
            }
        }
        self.refresh_routes();
        if !down {
            for &(node, port) in &ends {
                self.resume_endpoint(node, port);
            }
        }
    }

    /// Restarts transmission on an endpoint whose link just recovered.
    fn resume_endpoint(&mut self, node: NodeId, port: usize) {
        match self.topo.as_host(node) {
            Some(host) => {
                if !self.host_nic[host.index()].busy {
                    self.start_host_tx(host);
                }
            }
            None => {
                let si = self.topo.as_switch(node).expect("switch").index();
                if !self.fault_crashed_switch(si) {
                    self.kick_switch_port(node, si, port);
                }
            }
        }
    }

    /// Recomputes the FIB with every faulted link masked out and flushes
    /// the flow-level ECMP memo (per-switch detour memos cache only flow
    /// hashes, not routes, so they stay valid).
    fn refresh_routes(&mut self) {
        let Some(f) = self.faults.as_ref() else {
            return;
        };
        let mut disabled = vec![false; self.topo.links().len()];
        for (i, l) in self.topo.links().iter().enumerate() {
            let down = f.link_down[l.a.node.index()][l.a.port];
            let a_crashed = self
                .topo
                .as_switch(l.a.node)
                .is_some_and(|s| f.crashed[s.index()]);
            let b_crashed = self
                .topo
                .as_switch(l.b.node)
                .is_some_and(|s| f.crashed[s.index()]);
            disabled[i] = down || a_crashed || b_crashed;
        }
        self.fib = Fib::compute_masked(&self.topo, self.fib.salt(), &disabled);
        self.ecmp_memo.clear();
    }

    /// Crashes a switch permanently: every buffered packet is destroyed
    /// (with its PFC ingress accounting unwound so paused neighbors
    /// resume), and routes recompute to steer around the dead node.
    fn crash_switch(&mut self, node: NodeId) {
        let si = self
            .topo
            .as_switch(node)
            .expect("crash target is a switch")
            .index();
        {
            let f = self.faults.as_mut().expect("fault state present");
            if f.crashed[si] {
                return;
            }
            f.crashed[si] = true;
        }
        let drained = self.switches[si].drain_all();
        for pkt in drained {
            self.counters.drops_fault += 1;
            self.trace_pkt(TraceKind::Drop, node.0, &pkt);
            self.pfc_on_dequeued(si, usize::from(pkt.last_ingress));
        }
        self.refresh_routes();
    }

    // ------------------------------------------------------------------
    // Host side.
    // ------------------------------------------------------------------

    fn on_flow_start(&mut self, fi: usize) {
        let now = self.engine.now();
        let pkts = self.flows[fi].sender.start(now, &mut self.ids);
        let src = self.flows[fi].spec.src;
        for p in pkts {
            self.host_send(src, p);
        }
        self.sync_timer(fi);
    }

    fn on_rto(&mut self, fi: usize, gen: u64) {
        let now = self.engine.now();
        let src = self.flows[fi].spec.src;
        let node = self.topo.host_node(src).0;
        let pkts =
            self.flows[fi]
                .sender
                .on_rto_traced(gen, now, &mut self.ids, node, &mut self.tracer);
        for p in pkts {
            self.host_send(src, p);
        }
        self.sync_timer(fi);
    }

    fn sync_timer(&mut self, fi: usize) {
        let flow = &mut self.flows[fi];
        if let Some((deadline, gen)) = flow.sender.timer() {
            if gen != flow.timer_scheduled {
                flow.timer_scheduled = gen;
                self.engine.schedule_at(
                    deadline,
                    Event::RtoFire {
                        flow: u32::try_from(fi).expect("flow index fits u32"),
                        gen,
                    },
                );
            }
        }
    }

    fn host_send(&mut self, host: HostId, pkt: Packet) {
        self.counters.packets_sent += 1;
        if self.tracer.is_enabled() {
            trace_packet_out(
                &pkt,
                self.engine.now().as_nanos(),
                self.topo.host_node(host).0,
                &mut self.tracer,
            );
        }
        let nic = &mut self.host_nic[host.index()];
        if nic.queue.len() >= HOST_NIC_CAP {
            // Qdisc-style local drop; the transport retransmits later.
            self.counters.drops_host_nic += 1;
            let node = self.topo.host_node(host).0;
            self.trace_pkt(TraceKind::Drop, node, &pkt);
            return;
        }
        nic.queue.push_back(self.packets.insert(pkt));
        if !nic.busy {
            self.start_host_tx(host);
        }
    }

    fn start_host_tx(&mut self, host: HostId) {
        let node = self.topo.host_node(host);
        if self.paused[node.index()][0] || self.fault_link_down(node, 0) {
            // PFC pause from the edge switch, or the uplink is faulted
            // down; the NIC parks and is re-kicked on release/recovery.
            self.host_nic[host.index()].busy = false;
            return;
        }
        let Some(handle) = self.host_nic[host.index()].queue.pop_front() else {
            self.host_nic[host.index()].busy = false;
            return;
        };
        self.host_nic[host.index()].busy = true;
        let up = self.topo.host_uplink(host);
        let wire_bytes = self.packets.get(handle).wire_bytes;
        let ser = SimDuration::serialization(u64::from(wire_bytes), up.rate_bps);
        self.audit.packet_event_scheduled();
        self.engine.schedule_in(
            ser,
            Event::TxComplete {
                node,
                port: 0,
                pkt: handle,
            },
        );
    }

    /// Records a host-side or delivery-side trace event. Costs one dead
    /// branch when tracing is off; never perturbs simulation state.
    fn trace_pkt(&mut self, kind: TraceKind, node: u32, pkt: &Packet) {
        if self.tracer.wants(kind) {
            self.tracer.record(TraceEvent {
                t_ns: self.engine.now().as_nanos(),
                packet: pkt.id.0,
                flow: pkt.flow.0,
                node,
                port: 0,
                qlen: 0,
                detours: pkt.detours,
                kind,
            });
        }
    }

    fn deliver(&mut self, host: HostId, pkt: Packet) {
        debug_assert_eq!(pkt.dst, host, "misrouted packet");
        if self.tracer.is_enabled() {
            let dst_node = self.topo.host_node(host).0;
            self.trace_pkt(TraceKind::Deliver, dst_node, &pkt);
        }
        self.counters.packets_delivered += 1;
        self.counters.delivered_hops += u64::from(pkt.hops);
        if pkt.detours > 0 {
            self.counters.delivered_detoured += 1;
        }
        let bucket = usize::from(pkt.detours).min(DETOUR_HIST_BUCKETS - 1);
        self.detour_hist[bucket] += 1;
        if pkt.is_data() {
            match self.flows[pkt.flow.index()].spec.class {
                FlowClass::QueryResponse { .. } => {
                    self.counters.query_pkts_delivered += 1;
                    if pkt.detours > 0 {
                        self.counters.query_pkts_detoured += 1;
                    }
                }
                FlowClass::Background => {
                    self.counters.bg_pkts_delivered += 1;
                    if pkt.detours > 0 {
                        self.counters.bg_pkts_detoured += 1;
                    }
                }
                FlowClass::LongLived => {}
            }
        }

        let now = self.engine.now();
        let fi = pkt.flow.index();
        if pkt.is_data() {
            debug_assert_eq!(self.flows[fi].spec.dst, host);
            let ack = self.flows[fi].receiver.on_data(&pkt, now, &mut self.ids);
            let newly_complete =
                self.flows[fi].receiver.is_complete() && !self.flows[fi].done_recorded;
            if newly_complete {
                self.on_flow_complete(fi);
            }
            if let Some(ack) = ack {
                self.host_send(host, ack);
            }
        } else {
            debug_assert_eq!(self.flows[fi].spec.src, host);
            let pkts =
                self.flows[fi]
                    .sender
                    .on_ack_ts(pkt.seq, pkt.ece, pkt.ts_echo, now, &mut self.ids);
            for p in pkts {
                self.host_send(host, p);
            }
            self.sync_timer(fi);
        }
    }

    fn on_flow_complete(&mut self, fi: usize) {
        let now = self.engine.now();
        let flow = &mut self.flows[fi];
        flow.done_recorded = true;
        let fct = now.saturating_since(flow.spec.start);
        match flow.spec.class {
            FlowClass::Background => {
                self.bg_all_fct_ms.push(fct.as_millis_f64());
                if (1_000..=10_000).contains(&flow.spec.size) {
                    self.bg_short_fct_ms.push(fct.as_millis_f64());
                }
            }
            FlowClass::QueryResponse { .. } => {}
            FlowClass::LongLived => {}
        }
        if let Some(qi) = flow.query {
            let q = &mut self.queries[qi];
            q.completed += 1;
            if q.completed == q.total && q.qct.is_none() {
                let qct = now.saturating_since(q.start);
                q.qct = Some(qct);
                self.qct_ms.push(qct.as_millis_f64());
            }
        }
    }

    // ------------------------------------------------------------------
    // Wire and switch side.
    // ------------------------------------------------------------------

    fn on_arrive(&mut self, node: NodeId, pkt: Packet) {
        if let Some(host) = self.topo.as_host(node) {
            self.deliver(host, pkt);
        } else {
            self.on_switch_arrive(node, pkt);
        }
    }

    fn on_switch_arrive(&mut self, node: NodeId, mut pkt: Packet) {
        let si = self.topo.as_switch(node).expect("switch node").index();
        if self.fault_crashed_switch(si) {
            // A crashed switch blackholes everything that reaches it.
            self.counters.drops_fault += 1;
            self.trace_pkt(TraceKind::Drop, node.0, &pkt);
            return;
        }
        if !pkt.decrement_ttl() {
            self.counters.drops_ttl += 1;
            self.trace_pkt(TraceKind::TtlExpire, node.0, &pkt);
            return;
        }
        pkt.hops += 1;
        // DIBS TTL bounds: the TTL only ever decreases from its initial
        // value, and a packet cannot have detoured more times than it
        // has traversed switches.
        debug_assert!(
            pkt.ttl < self.config.tcp.initial_ttl,
            "TTL {} not below initial {}",
            pkt.ttl,
            self.config.tcp.initial_ttl
        );
        debug_assert!(
            u64::from(pkt.detours) <= u64::from(pkt.hops),
            "packet detoured {} times in {} hops",
            pkt.detours,
            pkt.hops
        );

        if self.fault_should_drop(&pkt) {
            self.counters.drops_fault += 1;
            self.trace_pkt(TraceKind::Drop, node.0, &pkt);
            return;
        }
        let desired = match self.config.ecmp {
            // Flow-level selection is pure per (flow, node, dst), so it is
            // served through the memo: one hash per flow per node instead
            // of one per packet.
            crate::config::EcmpMode::FlowLevel => {
                self.fib
                    .select_port_memo(&mut self.ecmp_memo, node, pkt.dst, pkt.flow)
            }
            // Packet-level spraying keys on per-packet entropy and cannot
            // be memoized.
            crate::config::EcmpMode::PacketLevel => {
                self.fib.select_port_per_packet(node, pkt.dst, pkt.id.0)
            }
        };
        let Some(desired) = desired else {
            if self.faults.is_some() {
                // Injected faults partitioned the fabric; the packet
                // blackholes at the switch that has no route left.
                self.counters.drops_fault += 1;
                self.trace_pkt(TraceKind::Drop, node.0, &pkt);
                return;
            }
            // Unreachable destination: only possible on malformed topologies.
            debug_assert!(false, "no route from {node} to {}", pkt.dst);
            self.counters.drops_buffer += 1;
            return;
        };

        let ingress = usize::from(pkt.last_ingress);
        let now_ns = self.engine.now().as_nanos();
        let result = self.switches[si].enqueue_traced(
            pkt,
            desired,
            &mut self.rng_detour,
            now_ns,
            &mut self.tracer,
        );
        if let Some(displaced) = result.displaced {
            self.pfc_on_dequeued(si, usize::from(displaced.last_ingress));
        }
        match result.outcome {
            EnqueueOutcome::Enqueued { port } | EnqueueOutcome::Detoured { port } => {
                self.pfc_on_buffered(node, si, ingress);
                self.kick_switch_port(node, si, port);
            }
            EnqueueOutcome::Dropped(_) => {
                self.counters.drops_buffer += 1;
            }
        }
    }

    fn kick_switch_port(&mut self, node: NodeId, si: usize, port: usize) {
        if self.tx_busy[node.index()][port]
            || self.paused[node.index()][port]
            || self.fault_link_down(node, port)
        {
            return;
        }
        let now_ns = self.engine.now().as_nanos();
        loop {
            let Some(pkt) = self.switches[si].dequeue_traced(port, now_ns, &mut self.tracer) else {
                return;
            };
            if self.fault_should_corrupt(&pkt) {
                // The frame is corrupted on the wire; free its PFC slot
                // and try the next packet in the queue.
                self.pfc_on_dequeued(si, usize::from(pkt.last_ingress));
                self.counters.drops_fault += 1;
                self.trace_pkt(TraceKind::Drop, node.0, &pkt);
                continue;
            }
            self.tx_busy[node.index()][port] = true;
            self.pfc_on_dequeued(si, usize::from(pkt.last_ingress));
            let rate = self.topo.port(node, port).rate_bps;
            let ser = SimDuration::serialization(u64::from(pkt.wire_bytes), rate);
            self.audit.packet_event_scheduled();
            let handle = self.packets.insert(pkt);
            self.engine.schedule_in(
                ser,
                Event::TxComplete {
                    node,
                    port: u32::try_from(port).expect("port index fits u32"),
                    pkt: handle,
                },
            );
            return;
        }
    }

    /// PFC bookkeeping: a packet that arrived via `ingress` was buffered.
    /// Pauses the link partner on that ingress once its count hits XOFF.
    fn pfc_on_buffered(&mut self, node: NodeId, si: usize, ingress: usize) {
        let Some(pfc) = self.config.pfc else { return };
        self.ingress_count[si][ingress] += 1;
        if self.pause_asserted[si][ingress] || (self.ingress_count[si][ingress] as usize) < pfc.xoff
        {
            return;
        }
        self.pause_asserted[si][ingress] = true;
        self.pause_events += 1;
        self.send_pause_frame(node, ingress, pfc.control_delay, true);
    }

    /// PFC bookkeeping on dequeue: releases the ingress partner at XON.
    fn pfc_on_dequeued(&mut self, si: usize, ingress: usize) {
        let Some(pfc) = self.config.pfc else { return };
        self.ingress_count[si][ingress] = self.ingress_count[si][ingress].saturating_sub(1);
        if !self.pause_asserted[si][ingress] || (self.ingress_count[si][ingress] as usize) > pfc.xon
        {
            return;
        }
        self.pause_asserted[si][ingress] = false;
        let node = self.switches[si].node();
        self.send_pause_frame(node, ingress, pfc.control_delay, false);
    }

    fn send_pause_frame(&mut self, node: NodeId, port: usize, delay: SimDuration, paused: bool) {
        let p = self.topo.port(node, port);
        self.engine.schedule_in(
            delay,
            Event::PauseSet {
                node: p.peer,
                port: u32::try_from(p.peer_port).expect("port index fits u32"),
                paused,
            },
        );
    }

    fn on_tx_complete(&mut self, node: NodeId, port: usize, handle: PacketHandle) {
        if self.fault_link_down(node, port)
            || self
                .topo
                .as_switch(node)
                .is_some_and(|s| self.fault_crashed_switch(s.index()))
        {
            // The link went down (or the switch crashed) while the frame
            // was serializing: the frame is cut on the wire. Release the
            // port without restarting — recovery re-kicks it.
            let pkt = self.packets.take(handle);
            self.counters.drops_fault += 1;
            self.trace_pkt(TraceKind::Drop, node.0, &pkt);
            match self.topo.as_host(node) {
                // start_host_tx parks again while the uplink stays down.
                Some(host) => self.start_host_tx(host),
                None => self.tx_busy[node.index()][port] = false,
            }
            return;
        }
        let p = self.topo.port(node, port);
        let peer = p.peer;
        let delay = p.delay;
        // Stamp the ingress port the packet will arrive on (PFC accounting).
        let pkt = self.packets.get_mut(handle);
        pkt.last_ingress = u16::try_from(p.peer_port).expect("port index fits u16");
        self.port_tx_bytes[self.port_offsets[node.index()] + port] += u64::from(pkt.wire_bytes);
        self.audit.packet_event_scheduled();
        self.engine.schedule_in(
            delay,
            Event::Arrive {
                node: peer,
                pkt: handle,
            },
        );

        // Start the next transmission on this port.
        match self.topo.as_host(node) {
            Some(host) => {
                self.start_host_tx(host);
            }
            None => {
                self.tx_busy[node.index()][port] = false;
                let si = self.topo.as_switch(node).expect("switch").index();
                self.kick_switch_port(node, si, port);
            }
        }
    }

    // ------------------------------------------------------------------
    // Sampling (Figs 4, 5).
    // ------------------------------------------------------------------

    /// Utilization at which a directed link counts as hot (Fig 4's 90 %).
    const HOT_LINK_UTILIZATION: f64 = 0.9;

    fn on_sample(&mut self) {
        let now = self.engine.now();
        let interval = now.saturating_since(self.last_sample);
        self.last_sample = now;
        let secs = interval.as_secs_f64();
        if secs <= 0.0 {
            return;
        }

        // Per-directed-edge utilization.
        let mut hot_links = 0usize;
        let mut total_links = 0usize;
        let mut hot_switch = vec![false; self.topo.num_switches()];
        for (idx, (pr, port)) in self.topo.directed_edges().enumerate() {
            let util = (self.port_tx_bytes[idx] * 8) as f64 / (port.rate_bps as f64 * secs);
            total_links += 1;
            if util >= Self::HOT_LINK_UTILIZATION {
                hot_links += 1;
                if let Some(s) = self.topo.as_switch(pr.node) {
                    hot_switch[s.index()] = true;
                }
                // The receiving end of a hot link is congestion-adjacent too.
                if let Some(s) = self.topo.as_switch(port.peer) {
                    hot_switch[s.index()] = true;
                }
            }
        }
        for b in &mut self.port_tx_bytes {
            *b = 0;
        }
        self.hot_samples.push(hot_links as f64 / total_links as f64);

        // Neighbor free-buffer statistic (Fig 5), only when something is hot.
        let mut sum1 = 0.0;
        let mut n1 = 0usize;
        let mut sum2 = 0.0;
        let mut n2 = 0usize;
        for (si, &hot) in hot_switch.iter().enumerate() {
            if !hot {
                continue;
            }
            for &m in &self.neighbors1[si] {
                sum1 += self.switches[m].free_fraction();
                n1 += 1;
            }
            for &m in &self.neighbors2[si] {
                sum2 += self.switches[m].free_fraction();
                n2 += 1;
            }
        }
        if n1 > 0 {
            self.neighbor_free_1hop.push(sum1 / n1 as f64);
        }
        if n2 > 0 {
            self.neighbor_free_2hop.push(sum2 / n2 as f64);
        }

        if let Some(interval) = self.config.sample_interval {
            if now + interval <= self.config.horizon {
                self.engine.schedule_in(interval, Event::Sample);
            }
        }
    }

    // ------------------------------------------------------------------
    // Finalization.
    // ------------------------------------------------------------------

    fn finalize(mut self) -> RunResults {
        // Final conservation audit: at the horizon every injected packet
        // is delivered, dropped, or still parked in a queue/event.
        self.conservation_check();
        let finished_at = self.engine.now();
        let queue_hwm = u64::try_from(self.engine.high_watermark()).unwrap_or(u64::MAX);
        // The same transient buckets the audit snapshots: everything sent
        // but neither delivered nor dropped is parked in exactly one of
        // them when the horizon cuts the run.
        let packets_in_flight = self
            .host_nic
            .iter()
            .map(|n| n.queue.len() as u64)
            .sum::<u64>()
            + self
                .switches
                .iter()
                .map(|s| s.total_buffered() as u64)
                .sum::<u64>()
            + self.audit.in_events();

        // Fold in switch and sender counters.
        self.counters = self.folded_counters();
        let detours_per_switch: Vec<u64> = self
            .switches
            .iter()
            .map(|sw| sw.counters().detoured)
            .collect();
        for f in &self.flows {
            self.counters.rto_timeouts += f.sender.counters().timeouts;
            self.counters.fast_retransmits += f.sender.counters().fast_retransmits;
            self.counters.spurious_timeouts += f.sender.counters().spurious_timeouts;
        }

        let (measure_from, baseline_bytes) = match &self.warmup_snapshot {
            Some((t, bytes)) => (*t, Some(bytes)),
            None => (SimTime::ZERO, None),
        };
        let elapsed = finished_at
            .saturating_since(measure_from)
            .as_secs_f64()
            .max(1e-9);
        let mut long_lived = Vec::new();
        let mut flow_outcomes = Vec::with_capacity(self.flows.len());
        for (fi, f) in self.flows.iter().enumerate() {
            let fct = f
                .receiver
                .completed_at()
                .map(|t| t.saturating_since(f.spec.start));
            if f.spec.class == FlowClass::LongLived {
                let base = baseline_bytes.map_or(0, |b| b[fi]);
                long_lived.push((f.receiver.rcv_nxt() - base) as f64 * 8.0 / elapsed);
            }
            flow_outcomes.push(FlowOutcome {
                class: f.spec.class,
                src: f.spec.src,
                dst: f.spec.dst,
                size: f.spec.size,
                start: f.spec.start,
                fct,
                bytes_delivered: f.receiver.rcv_nxt(),
                timeouts: f.sender.counters().timeouts,
            });
        }
        let query_outcomes: Vec<QueryOutcome> = self
            .queries
            .iter()
            .map(|q| QueryOutcome {
                start: q.start,
                completed_responses: q.completed,
                total_responses: q.total,
                qct: q.qct,
            })
            .collect();

        RunResults {
            qct_ms: self.qct_ms,
            bg_short_fct_ms: self.bg_short_fct_ms,
            bg_all_fct_ms: self.bg_all_fct_ms,
            flows: flow_outcomes,
            queries: query_outcomes,
            counters: self.counters,
            detours_per_switch,
            detour_histogram: self.detour_hist,
            hot_fraction_samples: self.hot_samples,
            neighbor_free_1hop: self.neighbor_free_1hop,
            neighbor_free_2hop: self.neighbor_free_2hop,
            long_lived_throughput_bps: long_lived,
            pfc_pause_events: self.pause_events,
            packets_in_flight,
            events_dispatched: self.engine.dispatched(),
            finished_at,
            trace: self.tracer.into_report(queue_hwm),
        }
    }
}
