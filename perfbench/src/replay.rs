//! Per-layer attribution by replay.
//!
//! A full `dibs-trace` stream of one run is walked once to rebuild every
//! layer's inputs: the transport calls (flow starts, ACKs, data
//! deliveries, timeouts), the FIB lookups with the reroutes between them,
//! and each switch's enqueue/dequeue sequence. The rebuild drives the
//! real `TcpSender`/`TcpReceiver`/`Fib`/`SwitchCore` objects and checks,
//! event by event, that they re-emit exactly the traced events, so the
//! recorded inputs are the ones the run produced.
//!
//! Each layer is then timed from outside by driving its public functions
//! over the recorded inputs with fresh state. The simulator itself never
//! reads a clock.

use dibs::{FaultPlan, FlowOutcome, SimConfig};
use dibs_engine::queue::EventQueue;
use dibs_engine::rng::SimRng;
use dibs_engine::time::{SimDuration, SimTime};
use dibs_fault::FaultAction;
use dibs_net::ids::{FlowId, HostId, NodeId};
use dibs_net::packet::Packet;
use dibs_net::routing::{EcmpMemo, Fib};
use dibs_net::topology::Topology;
use dibs_switch::{EnqueueOutcome, SwitchCore};
use dibs_trace::{TraceEvent, TraceKind, TraceSink};
use dibs_transport::{IdGen, TcpReceiver, TcpSender};
use std::hint::black_box;
use std::time::Instant;

/// Slots of the simulator core's flow-level ECMP memo.
const ECMP_MEMO_SLOTS: usize = 1 << 14;
/// Size of the simulator's `Event` enum; engine replay payloads match it.
const EVENT_WORDS: usize = 12;
/// Delay samples kept for the engine replay.
const GAP_POOL: usize = 1 << 16;
/// Every n-th switch operation is timed alone to split switch time
/// between enqueue and dequeue.
const SWITCH_SAMPLE_EVERY: usize = 16;

/// Everything the rebuild needs besides the trace.
pub struct Setting<'a> {
    /// The run's topology (rebuilt from the scenario).
    pub topo: &'a Topology,
    /// The run's resolved configuration.
    pub config: &'a SimConfig,
    /// The run's resolved fault plan, if faults were installed.
    pub plan: Option<&'a FaultPlan>,
    /// The run's flows, indexed by flow id.
    pub flows: &'a [FlowOutcome],
}

/// A flow-level FIB lookup.
#[derive(Debug, Clone, Copy)]
struct Lookup {
    node: NodeId,
    dst: HostId,
    flow: FlowId,
}

/// A FIB recomputation after a link or switch state change.
#[derive(Debug, Clone)]
struct Reroute {
    /// Lookups that happened before it.
    after_lookups: usize,
    /// Links masked out of the new FIB.
    disabled: Vec<bool>,
}

/// One call into a switch.
#[derive(Debug, Clone, Copy)]
enum SwitchOp {
    Enqueue { sw: u32, packet: u64, desired: u16 },
    Dequeue { sw: u32, port: u16 },
    Drain { sw: u32 },
}

/// One call into a TCP sender.
#[derive(Debug, Clone, Copy)]
enum SenderOp {
    Start {
        flow: u32,
        t: SimTime,
    },
    Ack {
        flow: u32,
        seq: u64,
        ece: bool,
        ts_echo: Option<SimTime>,
        t: SimTime,
    },
    Rto {
        flow: u32,
        gen: u64,
        t: SimTime,
    },
}

/// Per-layer inputs rebuilt from one trace, plus the traced counts.
pub struct Rebuilt {
    emitted: Vec<Packet>,
    lookups: Vec<Lookup>,
    reroutes: Vec<Reroute>,
    switch_ops: Vec<SwitchOp>,
    sender_ops: Vec<SenderOp>,
    data_ops: Vec<(Packet, SimTime)>,
    gaps: Vec<u64>,
    /// Traced counts by kind, indexed by `TraceKind as usize`.
    kinds: [u64; 11],
    /// Switch-level drops (full buffer or pFabric displacement).
    pub switch_drops: u64,
}

impl Rebuilt {
    /// FIB lookups the run made (one per switch admission).
    pub fn lookups(&self) -> u64 {
        self.lookups.len() as u64
    }

    /// FIB recomputations the run made.
    pub fn reroutes(&self) -> u64 {
        self.reroutes.len() as u64
    }

    /// Enqueue calls into switches.
    pub fn enqueue_calls(&self) -> u64 {
        self.switch_ops
            .iter()
            .filter(|op| matches!(op, SwitchOp::Enqueue { .. }))
            .count() as u64
    }

    /// Packets the switches handed to the wire.
    pub fn dequeue_calls(&self) -> u64 {
        self.switch_ops
            .iter()
            .filter(|op| matches!(op, SwitchOp::Dequeue { .. }))
            .count() as u64
    }

    /// ACKs the senders processed.
    pub fn ack_calls(&self) -> u64 {
        self.sender_ops
            .iter()
            .filter(|op| matches!(op, SenderOp::Ack { .. }))
            .count() as u64
    }

    /// Data segments the receivers processed.
    pub fn data_calls(&self) -> u64 {
        self.data_ops.len() as u64
    }

    /// Traced events of one kind.
    pub fn count(&self, kind: TraceKind) -> u64 {
        self.kinds[kind as usize]
    }
}

/// Collects the events one switch call emits.
#[derive(Default)]
struct Collect(Vec<TraceEvent>);

impl TraceSink for Collect {
    fn wants(&self, _kind: TraceKind) -> bool {
        true
    }

    fn record(&mut self, ev: TraceEvent) {
        self.0.push(ev);
    }
}

fn routing_salt(config: &SimConfig) -> u64 {
    SimRng::new(config.seed).fork("ecmp").seed()
}

fn detour_rng(config: &SimConfig) -> SimRng {
    SimRng::new(config.seed).fork("detour")
}

fn new_switches(topo: &Topology, config: &SimConfig) -> Vec<SwitchCore> {
    topo.switch_nodes()
        .iter()
        .map(|&n| {
            let host_facing = topo.node(n).ports.iter().map(|p| p.peer_is_host).collect();
            SwitchCore::new(n, config.switch, host_facing)
        })
        .collect()
}

fn new_senders(config: &SimConfig, flows: &[FlowOutcome]) -> Vec<TcpSender> {
    flows
        .iter()
        .enumerate()
        .map(|(i, f)| TcpSender::new(config.tcp, flow_id(i), f.src, f.dst, f.size))
        .collect()
}

fn new_receivers(config: &SimConfig, flows: &[FlowOutcome]) -> Vec<TcpReceiver> {
    flows
        .iter()
        .enumerate()
        .map(|(i, f)| {
            TcpReceiver::with_delayed_acks(
                flow_id(i),
                f.dst,
                f.src,
                f.size,
                config.tcp.initial_ttl,
                config.tcp.ack_every,
            )
        })
        .collect()
}

fn flow_id(i: usize) -> FlowId {
    FlowId(u32::try_from(i).expect("flow count fits u32"))
}

fn index(id: u64) -> usize {
    usize::try_from(id).expect("packet id fits usize")
}

fn narrow_u32(v: usize) -> u32 {
    u32::try_from(v).expect("index fits u32")
}

fn narrow_u16(v: usize) -> u16 {
    u16::try_from(v).expect("port fits u16")
}

/// The rebuild's state: the real layer objects, stepped along the trace.
struct Walker<'a> {
    set: &'a Setting<'a>,
    fib: Fib,
    memo: EcmpMemo,
    rng: SimRng,
    switches: Vec<SwitchCore>,
    senders: Vec<TcpSender>,
    receivers: Vec<TcpReceiver>,
    started: Vec<bool>,
    ids: IdGen,
    /// Current state of each packet not inside a switch, by id.
    packets: Vec<Option<Packet>>,
    /// `switch index + 1` where each packet is queued, 0 elsewhere.
    queued_at: Vec<u32>,
    /// Last traced instant of each packet (engine delay pool).
    last_seen: Vec<u64>,
    next_fault: usize,
    link_down: Vec<bool>,
    crashed: Vec<bool>,
    out: Rebuilt,
}

impl<'a> Walker<'a> {
    fn new(set: &'a Setting<'a>) -> Walker<'a> {
        let topo = set.topo;
        Walker {
            set,
            fib: Fib::compute_salted(topo, routing_salt(set.config)),
            memo: EcmpMemo::with_slots(ECMP_MEMO_SLOTS),
            rng: detour_rng(set.config),
            switches: new_switches(topo, set.config),
            senders: new_senders(set.config, set.flows),
            receivers: new_receivers(set.config, set.flows),
            started: vec![false; set.flows.len()],
            ids: IdGen::new(),
            packets: Vec::new(),
            queued_at: Vec::new(),
            last_seen: Vec::new(),
            next_fault: 0,
            link_down: vec![false; topo.links().len()],
            crashed: vec![false; topo.num_switches()],
            out: Rebuilt {
                emitted: Vec::new(),
                lookups: Vec::new(),
                reroutes: Vec::new(),
                switch_ops: Vec::new(),
                sender_ops: Vec::new(),
                data_ops: Vec::new(),
                gaps: Vec::new(),
                kinds: [0; 11],
                switch_drops: 0,
            },
        }
    }

    /// Records packets a transport call produced; ids are allocated in
    /// emission order, so each must be the next one.
    fn emit(&mut self, pkts: Vec<Packet>) -> Result<(), String> {
        for p in pkts {
            if index(p.id.0) != self.packets.len() {
                return Err(format!("replayed packet id {} out of order", p.id.0));
            }
            self.packets.push(Some(p.clone()));
            self.queued_at.push(0);
            self.last_seen.push(0);
            self.out.emitted.push(p);
        }
        Ok(())
    }

    fn take_packet(&mut self, id: u64) -> Result<Packet, String> {
        self.packets
            .get_mut(index(id))
            .and_then(Option::take)
            .ok_or_else(|| format!("packet {id} is not where the trace says"))
    }

    /// Applies every timed fault due at or before `t_ns`: faults are
    /// scheduled before the run starts, so they precede packet events of
    /// the same instant.
    fn apply_faults(&mut self, t_ns: u64) {
        let Some(plan) = self.set.plan else { return };
        let horizon = self.set.config.horizon;
        while let Some(tf) = plan.timed.get(self.next_fault) {
            if tf.at.as_nanos() > t_ns || tf.at > horizon {
                break;
            }
            self.next_fault += 1;
            match tf.action {
                FaultAction::LinkDown(l) => self.link_down[l.index()] = true,
                FaultAction::LinkUp(l) => self.link_down[l.index()] = false,
                FaultAction::SwitchCrash(node) => {
                    let Some(s) = self.set.topo.as_switch(node) else {
                        continue;
                    };
                    if self.crashed[s.index()] {
                        continue;
                    }
                    self.crashed[s.index()] = true;
                    for pkt in self.switches[s.index()].drain_all() {
                        self.queued_at[index(pkt.id.0)] = 0;
                    }
                    self.out.switch_ops.push(SwitchOp::Drain {
                        sw: narrow_u32(s.index()),
                    });
                }
            }
            self.reroute();
        }
    }

    /// Recomputes the FIB around the failed links and switches, as the
    /// simulator does after every fault action.
    fn reroute(&mut self) {
        let topo = self.set.topo;
        let crashed = |n: NodeId| topo.as_switch(n).is_some_and(|s| self.crashed[s.index()]);
        let disabled: Vec<bool> = topo
            .links()
            .iter()
            .enumerate()
            .map(|(i, l)| self.link_down[i] || crashed(l.a.node) || crashed(l.b.node))
            .collect();
        self.fib = Fib::compute_masked(topo, self.fib.salt(), &disabled);
        self.memo.clear();
        self.out.reroutes.push(Reroute {
            after_lookups: self.out.lookups.len(),
            disabled,
        });
    }

    /// Steps over the trace event at `i`; returns how many events the
    /// replayed call accounted for.
    fn step(&mut self, events: &[TraceEvent], i: usize) -> Result<usize, String> {
        let e = events[i];
        self.apply_faults(e.t_ns);
        // Timeouts are flow events; their `packet` field names no packet.
        if e.kind != TraceKind::Timeout {
            if let Some(last) = self.last_seen.get_mut(index(e.packet)) {
                if *last != 0 && e.t_ns > *last && self.out.gaps.len() < GAP_POOL {
                    self.out.gaps.push(e.t_ns - *last);
                }
                *last = e.t_ns;
            }
        }
        let node = NodeId(e.node);
        match self.set.topo.as_switch(node) {
            None => self.host_event(e).map(|()| 1),
            Some(s) => self.switch_event(events, i, s.index()),
        }
    }

    fn host_event(&mut self, e: TraceEvent) -> Result<(), String> {
        let t = SimTime::from_nanos(e.t_ns);
        let fi = e.flow as usize;
        match e.kind {
            TraceKind::Send | TraceKind::Retransmit | TraceKind::Ack => {
                if index(e.packet) >= self.packets.len() {
                    // The first packet of a flow: the flow started now.
                    if e.kind != TraceKind::Send || self.started.get(fi) != Some(&false) {
                        return Err(format!("packet {} emitted before its cause", e.packet));
                    }
                    self.started[fi] = true;
                    let pkts = self.senders[fi].start(t, &mut self.ids);
                    self.out
                        .sender_ops
                        .push(SenderOp::Start { flow: e.flow, t });
                    self.emit(pkts)?;
                }
                let emitted = self.packets.get(index(e.packet)).and_then(Option::as_ref);
                let ok = emitted.is_some_and(|p| {
                    p.flow.0 == e.flow
                        && p.is_data() == (e.kind != TraceKind::Ack)
                        && p.retransmit == (e.kind == TraceKind::Retransmit)
                });
                if !ok {
                    return Err(format!(
                        "replayed packet {} differs from the trace",
                        e.packet
                    ));
                }
            }
            TraceKind::Deliver => {
                let pkt = self.take_packet(e.packet)?;
                if pkt.is_data() {
                    let ack = self.receivers[fi].on_data(&pkt, t, &mut self.ids);
                    self.out.data_ops.push((pkt, t));
                    self.emit(ack.into_iter().collect())?;
                } else {
                    let pkts =
                        self.senders[fi].on_ack_ts(pkt.seq, pkt.ece, pkt.ts_echo, t, &mut self.ids);
                    self.out.sender_ops.push(SenderOp::Ack {
                        flow: e.flow,
                        seq: pkt.seq,
                        ece: pkt.ece,
                        ts_echo: pkt.ts_echo,
                        t,
                    });
                    self.emit(pkts)?;
                }
            }
            TraceKind::Timeout => {
                let sender = &mut self.senders[fi];
                let gen = sender
                    .timer()
                    .map(|(_, g)| g)
                    .ok_or("timeout without a timer")?;
                let before = sender.counters().timeouts;
                let pkts = sender.on_rto(gen, t, &mut self.ids);
                if sender.counters().timeouts != before + 1 {
                    return Err(format!("flow {fi}: replayed timeout did not fire"));
                }
                self.out.sender_ops.push(SenderOp::Rto {
                    flow: e.flow,
                    gen,
                    t,
                });
                self.emit(pkts)?;
            }
            TraceKind::Drop | TraceKind::TtlExpire => {
                self.take_packet(e.packet)?;
            }
            other => return Err(format!("{other} event at host node {}", e.node)),
        }
        Ok(())
    }

    fn switch_event(
        &mut self,
        events: &[TraceEvent],
        i: usize,
        si: usize,
    ) -> Result<usize, String> {
        let e = events[i];
        match e.kind {
            TraceKind::Dequeue => {
                let mut sink = Collect::default();
                let pkt = self.switches[si]
                    .dequeue_traced(usize::from(e.port), e.t_ns, &mut sink)
                    .ok_or_else(|| format!("replayed dequeue at node {} found nothing", e.node))?;
                if sink.0 != [e] {
                    return Err(format!("replayed dequeue differs at trace event {i}"));
                }
                let id = index(pkt.id.0);
                self.queued_at[id] = 0;
                self.packets[id] = Some(pkt);
                self.out.switch_ops.push(SwitchOp::Dequeue {
                    sw: narrow_u32(si),
                    port: e.port,
                });
                Ok(1)
            }
            TraceKind::TtlExpire => {
                self.take_packet(e.packet)?;
                Ok(1)
            }
            TraceKind::Drop => {
                let queued_here = self.queued_at.get(index(e.packet)) == Some(&narrow_u32(si + 1));
                if queued_here {
                    // pFabric displacement: the arrival that evicted this
                    // packet is traced right after it.
                    let arrival = events.get(i + 1).ok_or("displacement at end of trace")?;
                    self.admit(events, i, si, arrival.packet)
                } else if e.port == 0 && e.qlen == 0 {
                    // Dropped by the simulator core (fault, crash, frame
                    // cut, no route) rather than by the switch.
                    self.take_packet(e.packet)?;
                    Ok(1)
                } else {
                    self.admit(events, i, si, e.packet)
                }
            }
            TraceKind::Enqueue | TraceKind::Detour | TraceKind::EcnMark => {
                self.admit(events, i, si, e.packet)
            }
            other => Err(format!("{other} event at switch node {}", e.node)),
        }
    }

    /// Routes `packet` at switch `si` and offers it to the switch; the
    /// events the switch emits must equal the trace from `i` on.
    fn admit(
        &mut self,
        events: &[TraceEvent],
        i: usize,
        si: usize,
        packet: u64,
    ) -> Result<usize, String> {
        let e = events[i];
        let node = NodeId(e.node);
        let pkt = self.take_packet(packet)?;
        let (dst, flow) = (pkt.dst, pkt.flow);
        let desired = self
            .fib
            .select_port_memo(&mut self.memo, node, dst, flow)
            .ok_or_else(|| format!("no route at node {} for packet {packet}", e.node))?;
        self.out.lookups.push(Lookup { node, dst, flow });
        let mut sink = Collect::default();
        let result =
            self.switches[si].enqueue_traced(pkt, desired, &mut self.rng, e.t_ns, &mut sink);
        let n = sink.0.len();
        if n == 0 || events.get(i..i + n) != Some(sink.0.as_slice()) {
            return Err(format!("replayed enqueue differs at trace event {i}"));
        }
        match result.outcome {
            EnqueueOutcome::Enqueued { .. } | EnqueueOutcome::Detoured { .. } => {
                self.queued_at[index(packet)] = narrow_u32(si + 1);
            }
            EnqueueOutcome::Dropped(_) => self.out.switch_drops += 1,
        }
        if let Some(d) = result.displaced {
            self.queued_at[index(d.id.0)] = 0;
            self.out.switch_drops += 1;
        }
        self.out.switch_ops.push(SwitchOp::Enqueue {
            sw: narrow_u32(si),
            packet,
            desired: narrow_u16(desired),
        });
        Ok(n)
    }
}

/// Rebuilds every layer's inputs from a full trace of one run, checking
/// that the replayed layers re-emit the trace exactly.
pub fn rebuild(set: &Setting<'_>, events: &[TraceEvent]) -> Result<Rebuilt, String> {
    let mut w = Walker::new(set);
    for e in events {
        w.out.kinds[e.kind as usize] += 1;
    }
    let mut i = 0;
    while i < events.len() {
        i += w.step(events, i)?;
    }
    // Faults that fire after the last packet event still reroute.
    w.apply_faults(set.config.horizon.as_nanos());
    Ok(w.out)
}

/// Wall-clock seconds each layer took on the rebuilt inputs.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTimes {
    /// Event-queue push + pop, one pair per dispatched event.
    pub engine_s: f64,
    /// `Fib::select_port_memo` over every lookup.
    pub routing_s: f64,
    /// `Fib::compute_masked` plus memo flush per reroute.
    pub fault_s: f64,
    /// Share of `switch_s` spent in `SwitchCore::enqueue`.
    pub enqueue_s: f64,
    /// Share of `switch_s` spent in `SwitchCore::dequeue`.
    pub dequeue_s: f64,
    /// `TcpSender::on_ack_ts` over every delivered ACK.
    pub ack_s: f64,
    /// `TcpSender::start` and `on_rto` calls.
    pub sender_other_s: f64,
    /// `TcpReceiver::on_data` over every delivered segment.
    pub data_s: f64,
    /// Memo hits in the routing replay.
    pub memo_hits: u64,
    /// Whole switch replay (`enqueue_s + dequeue_s` when the split held).
    pub switch_s: f64,
    /// Whether sampling resolved both enqueue and dequeue above timer
    /// noise; without it the split is unknown and both are zero.
    pub switch_split_ok: bool,
    /// Detours the timed switch replay made (must equal the trace's).
    pub switch_detours: u64,
}

impl LayerTimes {
    /// Transport time.
    pub fn transport_s(&self) -> f64 {
        self.ack_s + self.sender_other_s + self.data_s
    }
}

/// Times every layer once over the rebuilt inputs. `events` and
/// `pending` size the engine replay.
pub fn time_layers(set: &Setting<'_>, r: &Rebuilt, events: u64, pending: u64) -> LayerTimes {
    let mut t = LayerTimes {
        engine_s: time_engine(set, r, events, pending),
        ..LayerTimes::default()
    };
    time_routing(set, r, &mut t);
    time_switches(set, r, &mut t);
    time_transport(set, r, &mut t);
    t
}

/// One pop and one push per dispatched event at the run's peak pending
/// size. Of the peak, one entry per flow and timed fault is parked beyond
/// the horizon, as not-yet-started flows sit far ahead in the real queue;
/// the rest churn with the delays the trace shows between a packet's
/// consecutive events.
fn time_engine(set: &Setting<'_>, r: &Rebuilt, events: u64, pending: u64) -> f64 {
    let gaps: &[u64] = if r.gaps.is_empty() { &[1_000] } else { &r.gaps };
    let pending = usize::try_from(pending.max(1)).expect("pending fits usize");
    let faults = set.plan.map_or(0, |p| p.timed.len());
    let parked = (set.flows.len() + faults).min(pending - 1);
    let far = set.config.horizon.as_nanos().max(1_000_000);
    let mut q: EventQueue<[u64; EVENT_WORDS]> = EventQueue::with_capacity(pending);
    for i in 0..parked as u64 {
        q.push(
            SimTime::from_nanos(far + far * i / parked as u64),
            [i; EVENT_WORDS],
        );
    }
    for i in parked..pending {
        q.push(
            SimTime::from_nanos(gaps[i % gaps.len()]),
            [i as u64; EVENT_WORDS],
        );
    }
    let mut k = 0usize;
    let start = Instant::now();
    for _ in 0..events {
        let (at, ev) = q.pop().expect("replay queue never drains");
        k += 1;
        if k == gaps.len() {
            k = 0;
        }
        // A parked entry that comes due goes back beyond the horizon.
        let delay = if at.as_nanos() >= far { far } else { gaps[k] };
        q.push(at + SimDuration::from_nanos(delay), black_box(ev));
    }
    let elapsed = start.elapsed().as_secs_f64();
    black_box(q.len());
    elapsed
}

fn time_routing(set: &Setting<'_>, r: &Rebuilt, t: &mut LayerTimes) {
    let salt = routing_salt(set.config);
    let mut fib = Fib::compute_salted(set.topo, salt);
    let mut memo = EcmpMemo::with_slots(ECMP_MEMO_SLOTS);
    let mut acc = 0usize;
    let mut from = 0;
    let mut lookup_s = 0.0;
    let mut fault_s = 0.0;
    let bounds = r
        .reroutes
        .iter()
        .map(|rr| (rr.after_lookups, Some(rr)))
        .chain(std::iter::once((r.lookups.len(), None)));
    for (to, reroute) in bounds {
        let start = Instant::now();
        for l in &r.lookups[from..to] {
            let port = fib.select_port_memo(&mut memo, l.node, l.dst, l.flow);
            acc = acc.wrapping_add(port.unwrap_or(0));
        }
        lookup_s += start.elapsed().as_secs_f64();
        from = to;
        if let Some(rr) = reroute {
            let start = Instant::now();
            fib = Fib::compute_masked(set.topo, salt, &rr.disabled);
            memo.clear();
            fault_s += start.elapsed().as_secs_f64();
        }
    }
    black_box(acc);
    t.routing_s = lookup_s;
    t.fault_s = fault_s;
    t.memo_hits = memo.hits();
}

fn time_switches(set: &Setting<'_>, r: &Rebuilt, t: &mut LayerTimes) {
    // One untouched pass gives the total. A second pass times every n-th
    // call alone, each followed by an empty timed region that measures
    // the timer itself; the net means split the total between enqueue
    // and dequeue.
    let (total, detours) = run_switches(set, r, None);
    let mut sampled = [(0.0f64, 0u64); 3];
    run_switches(set, r, Some(&mut sampled));
    let mean = |(s, n): (f64, u64)| s / n.max(1) as f64;
    let timer = mean(sampled[2]);
    let enq_total = (mean(sampled[0]) - timer) * r.enqueue_calls() as f64;
    let deq_total = (mean(sampled[1]) - timer) * r.dequeue_calls() as f64;
    t.switch_split_ok = enq_total > 0.0 && deq_total > 0.0;
    if t.switch_split_ok {
        let split = enq_total / (enq_total + deq_total);
        t.enqueue_s = total * split;
        t.dequeue_s = total * (1.0 - split);
    }
    t.switch_s = total;
    t.switch_detours = detours;
}

/// Replays every switch call and returns `(seconds, detours)`. With
/// `sample`, also times every n-th call alone into `[enqueue, dequeue,
/// empty]` `(seconds, count)` buckets.
fn run_switches(
    set: &Setting<'_>,
    r: &Rebuilt,
    mut sample: Option<&mut [(f64, u64); 3]>,
) -> (f64, u64) {
    let mut switches = new_switches(set.topo, set.config);
    let mut rng = detour_rng(set.config);
    let mut packets = r.emitted.clone();
    let mut detours = 0u64;
    let start = Instant::now();
    for (n, op) in r.switch_ops.iter().enumerate() {
        let timed = sample.is_some() && n % SWITCH_SAMPLE_EVERY == 0;
        let op_start = timed.then(Instant::now);
        let bucket = match *op {
            SwitchOp::Enqueue {
                sw,
                packet,
                desired,
            } => {
                let pkt = packets[index(packet)].clone();
                let res = switches[sw as usize].enqueue(pkt, usize::from(desired), &mut rng);
                detours += u64::from(matches!(res.outcome, EnqueueOutcome::Detoured { .. }));
                black_box(res);
                0
            }
            SwitchOp::Dequeue { sw, port } => {
                if let Some(pkt) = switches[sw as usize].dequeue(usize::from(port)) {
                    let id = index(pkt.id.0);
                    packets[id] = pkt;
                }
                1
            }
            SwitchOp::Drain { sw } => {
                black_box(switches[sw as usize].drain_all());
                continue;
            }
        };
        if let (Some(s), Some(t0)) = (sample.as_deref_mut(), op_start) {
            s[bucket].0 += t0.elapsed().as_secs_f64();
            s[bucket].1 += 1;
            let t1 = Instant::now();
            s[2].0 += black_box(t1).elapsed().as_secs_f64();
            s[2].1 += 1;
        }
    }
    (start.elapsed().as_secs_f64(), detours)
}

fn time_transport(set: &Setting<'_>, r: &Rebuilt, t: &mut LayerTimes) {
    let mut senders = new_senders(set.config, set.flows);
    let mut ids = IdGen::new();
    let mut other_s = 0.0;
    let start = Instant::now();
    for op in &r.sender_ops {
        match *op {
            SenderOp::Ack {
                flow,
                seq,
                ece,
                ts_echo,
                t,
            } => {
                black_box(senders[flow as usize].on_ack_ts(seq, ece, ts_echo, t, &mut ids));
            }
            SenderOp::Start { flow, t } => {
                let t0 = Instant::now();
                black_box(senders[flow as usize].start(t, &mut ids));
                other_s += t0.elapsed().as_secs_f64();
            }
            SenderOp::Rto { flow, gen, t } => {
                let t0 = Instant::now();
                black_box(senders[flow as usize].on_rto(gen, t, &mut ids));
                other_s += t0.elapsed().as_secs_f64();
            }
        }
    }
    let sender_s = start.elapsed().as_secs_f64();
    t.sender_other_s = other_s;
    t.ack_s = (sender_s - other_s).max(0.0);

    let mut receivers = new_receivers(set.config, set.flows);
    let start = Instant::now();
    for (pkt, now) in &r.data_ops {
        black_box(receivers[pkt.flow.index()].on_data(pkt, *now, &mut ids));
    }
    t.data_s = start.elapsed().as_secs_f64();
}
