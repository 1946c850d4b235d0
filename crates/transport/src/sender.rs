//! The TCP sender state machine.
//!
//! A byte-sequence sliding-window sender with pluggable congestion control
//! (DCTCP / fixed-window), RTO management with Karn's rule and
//! exponential backoff, optional dupack-threshold fast retransmit, and
//! pFabric remaining-size priority stamping.
//!
//! The sender is substrate-free: methods return the packets to transmit and
//! expose the current retransmission-timer demand via [`TcpSender::timer`];
//! the simulator core owns actual event scheduling and calls back into
//! [`TcpSender::on_ack`] / [`TcpSender::on_rto`].

use crate::config::{CcAlgorithm, FastRetransmit, TcpConfig};
use crate::IdGen;
use dibs_engine::time::{SimDuration, SimTime};
use dibs_net::ids::{FlowId, HostId};
use dibs_net::packet::Packet;
use dibs_trace::{TraceEvent, TraceKind, TraceSink};

/// DCTCP's EWMA gain for `alpha` (the DCTCP paper's 1/16).
const DCTCP_G: f64 = 1.0 / 16.0;

/// Upper bound on the (backed-off) retransmission timeout.
const MAX_RTO: SimDuration = SimDuration::from_secs(2);

/// Reports one host-emitted packet to `sink`, classified as `Send`,
/// `Retransmit`, or `Ack` from the packet's own flags. `node` is the
/// topology node id of the emitting host (the transport layer does not
/// know the topology, so the caller supplies it).
pub fn trace_packet_out<S: TraceSink>(pkt: &Packet, t_ns: u64, node: u32, sink: &mut S) {
    let kind = if !pkt.is_data() {
        TraceKind::Ack
    } else if pkt.retransmit {
        TraceKind::Retransmit
    } else {
        TraceKind::Send
    };
    if sink.wants(kind) {
        sink.record(TraceEvent {
            t_ns,
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

/// Sender-side counters (per flow).
#[derive(Debug, Clone, Copy, Default)]
pub struct SenderCounters {
    /// Data packets emitted (including retransmissions).
    pub packets_sent: u64,
    /// Payload bytes emitted (including retransmissions).
    pub bytes_sent: u64,
    /// Retransmission timeouts taken.
    pub timeouts: u64,
    /// Fast retransmissions taken.
    pub fast_retransmits: u64,
    /// Timeouts later proven spurious via the timestamp echo (Eifel).
    pub spurious_timeouts: u64,
    /// Cumulative duplicate acks observed.
    pub dupacks: u64,
}

/// A single unidirectional TCP data transfer.
#[derive(Debug)]
pub struct TcpSender {
    cfg: TcpConfig,
    flow: FlowId,
    src: HostId,
    dst: HostId,
    size: u64,

    snd_una: u64,
    snd_nxt: u64,
    cwnd: f64,
    ssthresh: f64,
    dupacks: u32,
    /// Fast-recovery high-water mark: no second fast retransmit until
    /// `snd_una` passes it.
    recover: u64,

    // RTT estimation (RFC 6298) and timer state.
    srtt: Option<SimDuration>,
    rttvar: SimDuration,
    rto: SimDuration,
    backoff: u32,
    timer_gen: u64,
    timer_deadline: Option<SimTime>,
    /// Send-time history of in-flight segments, `(segment end, send time)`,
    /// oldest first. Each advancing ack yields an RTT sample from the
    /// newest segment it covers — matching NS-3's per-segment RTT history,
    /// which keeps the RTO tracking queue buildup *within* a burst.
    /// Invalidated by any retransmission (Karn's rule). Unused once the
    /// peer echoes timestamps (see [`TcpSender::on_ack_ts`]).
    rtt_history: std::collections::VecDeque<(u64, SimTime)>,
    /// Whether a timestamp echo has been seen (disables history sampling).
    timestamps_seen: bool,
    /// Eifel spurious-timeout detection state: `(timeout instant,
    /// pre-collapse cwnd, pre-collapse ssthresh)`, armed by each RTO.
    spurious_check: Option<(SimTime, f64, f64)>,

    // DCTCP state.
    alpha: f64,
    bytes_acked_window: u64,
    bytes_marked_window: u64,
    window_end: u64,
    /// One multiplicative decrease per window.
    cwr: bool,

    started: Option<SimTime>,
    completed: Option<SimTime>,
    counters: SenderCounters,
}

impl TcpSender {
    /// Creates a sender for `size` bytes from `src` to `dst`.
    pub fn new(cfg: TcpConfig, flow: FlowId, src: HostId, dst: HostId, size: u64) -> Self {
        let cwnd = f64::from(cfg.init_cwnd) * f64::from(cfg.mss);
        TcpSender {
            cfg,
            flow,
            src,
            dst,
            size,
            snd_una: 0,
            snd_nxt: 0,
            cwnd,
            ssthresh: f64::MAX,
            dupacks: 0,
            recover: 0,
            srtt: None,
            rttvar: SimDuration::ZERO,
            rto: cfg.fixed_rto.unwrap_or(cfg.min_rto),
            backoff: 0,
            timer_gen: 0,
            timer_deadline: None,
            rtt_history: std::collections::VecDeque::new(),
            timestamps_seen: false,
            spurious_check: None,
            alpha: 1.0,
            bytes_acked_window: 0,
            bytes_marked_window: 0,
            window_end: 0,
            cwr: false,
            started: None,
            completed: None,
            counters: SenderCounters::default(),
        }
    }

    /// The flow id.
    pub fn flow(&self) -> FlowId {
        self.flow
    }

    /// Source host.
    pub fn src(&self) -> HostId {
        self.src
    }

    /// Destination host.
    pub fn dst(&self) -> HostId {
        self.dst
    }

    /// Total bytes this flow will transfer.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Whether every byte has been cumulatively acknowledged.
    pub fn is_complete(&self) -> bool {
        self.completed.is_some()
    }

    /// Completion time, if complete.
    pub fn completed_at(&self) -> Option<SimTime> {
        self.completed
    }

    /// Start time (first `start` call).
    pub fn started_at(&self) -> Option<SimTime> {
        self.started
    }

    /// Current congestion window in bytes.
    pub fn cwnd(&self) -> f64 {
        self.cwnd
    }

    /// Current DCTCP alpha estimate.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Current retransmission timeout value.
    pub fn rto(&self) -> SimDuration {
        self.rto
    }

    /// Smoothed RTT, once at least one sample exists.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.srtt
    }

    /// Counter snapshot.
    pub fn counters(&self) -> SenderCounters {
        self.counters
    }

    /// Unacknowledged bytes in flight.
    pub fn inflight(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    /// The timer the sender currently needs: `(deadline, generation)`.
    ///
    /// The core schedules one event per *new* generation and calls
    /// [`TcpSender::on_rto`] with it; stale generations are ignored there.
    pub fn timer(&self) -> Option<(SimTime, u64)> {
        self.timer_deadline.map(|d| (d, self.timer_gen))
    }

    /// Opens the flow: emits the initial window.
    ///
    /// Zero-byte flows complete immediately and emit nothing.
    pub fn start(&mut self, now: SimTime, ids: &mut IdGen) -> Vec<Packet> {
        self.started = Some(now);
        self.window_end = 0;
        if self.size == 0 {
            self.completed = Some(now);
            return Vec::new();
        }
        let pkts = self.pump(now, ids);
        self.arm_timer(now);
        pkts
    }

    /// Handles a cumulative acknowledgment carrying the receiver's ECN echo
    /// and (when available) the RFC 7323 timestamp echo.
    pub fn on_ack_ts(
        &mut self,
        ack: u64,
        ece: bool,
        ts_echo: Option<SimTime>,
        now: SimTime,
        ids: &mut IdGen,
    ) -> Vec<Packet> {
        // Timestamp-based RTT sample: valid regardless of retransmissions
        // (the echo identifies the actual transmission being acked), so it
        // keeps the RTO tracking queue buildup even after a spurious
        // timeout, where Karn's rule would go blind.
        if let Some(echo) = ts_echo {
            self.timestamps_seen = true;
            self.update_rtt(now.saturating_since(echo));
            // Eifel detection (RFC 3522 spirit): an advancing ack whose
            // echo predates the last timeout acknowledges the *original*
            // transmission — the timeout was spurious. Undo the congestion
            // response instead of crawling back through slow start.
            if let Some((rto_at, prior_cwnd, prior_ssthresh)) = self.spurious_check {
                if ack > self.snd_una {
                    if echo < rto_at && self.cfg.cc != CcAlgorithm::Fixed {
                        self.cwnd = prior_cwnd;
                        self.ssthresh = prior_ssthresh;
                        self.backoff = 0;
                        self.counters.spurious_timeouts += 1;
                    }
                    self.spurious_check = None;
                }
            }
        }
        self.on_ack(ack, ece, now, ids)
    }

    /// Handles a cumulative acknowledgment carrying the receiver's ECN echo.
    pub fn on_ack(&mut self, ack: u64, ece: bool, now: SimTime, ids: &mut IdGen) -> Vec<Packet> {
        if self.completed.is_some() || self.started.is_none() {
            return Vec::new();
        }
        if ack > self.snd_nxt {
            // After a go-back-N timeout, data sent before the timeout is
            // still in flight and may be acked beyond the rewound snd_nxt;
            // accept it as the new high-water mark.
            self.snd_nxt = ack;
        }
        if ack <= self.snd_una {
            return self.on_dupack(ack, now, ids);
        }

        let newly = ack - self.snd_una;
        self.snd_una = ack;
        self.dupacks = 0;
        self.backoff = 0;

        // RTT sample: the newest fully-acked segment in the send-time
        // history (Karn: the history is cleared on any retransmission).
        let mut newest_covered: Option<SimTime> = None;
        while let Some(&(seg_end, sent_at)) = self.rtt_history.front() {
            if ack >= seg_end {
                newest_covered = Some(sent_at);
                self.rtt_history.pop_front();
            } else {
                break;
            }
        }
        if let Some(sent_at) = newest_covered {
            if !self.timestamps_seen {
                self.update_rtt(now.saturating_since(sent_at));
            }
        }

        // DCTCP per-window marking accounting. The window "ends" when the
        // ack passes the snd_nxt recorded at the previous window end; the
        // new window extends to the post-pump snd_nxt (set below).
        self.bytes_acked_window += newly;
        if ece {
            self.bytes_marked_window += newly;
        }
        let window_ended = ack >= self.window_end;
        if window_ended {
            self.end_marking_window();
        }

        // ECE reaction: at most one reduction per window.
        if ece && !self.cwr {
            self.cwr = true;
            let factor = match self.cfg.cc {
                CcAlgorithm::Dctcp => 1.0 - self.alpha / 2.0,
                CcAlgorithm::Fixed => 1.0,
            };
            self.cwnd = (self.cwnd * factor).max(self.cfg.min_cwnd());
            self.ssthresh = self.cwnd;
        } else if self.cfg.cc != CcAlgorithm::Fixed {
            // Additive growth.
            if self.cwnd < self.ssthresh {
                // Slow start: cwnd grows by the bytes acked.
                self.cwnd = (self.cwnd + newly as f64).min(self.ssthresh.min(1e18));
            } else {
                // Congestion avoidance: +MSS per cwnd of acked data.
                let mss = f64::from(self.cfg.mss);
                self.cwnd += mss * (newly as f64 / self.cwnd);
            }
        }

        if self.snd_una >= self.size {
            self.completed = Some(now);
            self.disarm_timer();
            return Vec::new();
        }

        let pkts = self.pump(now, ids);
        if window_ended {
            self.window_end = self.snd_nxt;
        }
        self.arm_timer(now);
        pkts
    }

    /// [`TcpSender::on_rto`] with trace emission: a genuine (non-stale)
    /// firing is reported as one flow-level `Timeout` event before the
    /// retransmitted segments are returned. `node` is the sending host's
    /// topology node id; `qlen` carries the retransmission count.
    pub fn on_rto_traced<S: TraceSink>(
        &mut self,
        gen: u64,
        now: SimTime,
        ids: &mut IdGen,
        node: u32,
        sink: &mut S,
    ) -> Vec<Packet> {
        let timeouts_before = self.counters.timeouts;
        let pkts = self.on_rto(gen, now, ids);
        if self.counters.timeouts > timeouts_before && sink.wants(TraceKind::Timeout) {
            sink.record(TraceEvent {
                t_ns: now.as_nanos(),
                packet: 0,
                flow: self.flow.0,
                node,
                port: 0,
                qlen: u16::try_from(pkts.len()).unwrap_or(u16::MAX),
                detours: 0,
                kind: TraceKind::Timeout,
            });
        }
        pkts
    }

    /// Handles a retransmission-timer firing. `gen` must match the
    /// generation returned by [`TcpSender::timer`] when the event was
    /// scheduled; stale firings are ignored.
    pub fn on_rto(&mut self, gen: u64, now: SimTime, ids: &mut IdGen) -> Vec<Packet> {
        if gen != self.timer_gen || self.timer_deadline.is_none() || self.completed.is_some() {
            return Vec::new();
        }
        self.counters.timeouts += 1;

        // Multiplicative backoff (skipped under a fixed RTO, per pFabric).
        if self.cfg.fixed_rto.is_none() {
            self.backoff = (self.backoff + 1).min(10);
        }

        // Collapse the window and go back to snd_una, remembering the
        // pre-collapse state for Eifel undo.
        if self.cfg.cc != CcAlgorithm::Fixed {
            let inflight = self.inflight() as f64;
            self.spurious_check = Some((now, self.cwnd, self.ssthresh));
            self.ssthresh = (inflight / 2.0).max(2.0 * f64::from(self.cfg.mss));
            self.cwnd = self.cfg.min_cwnd();
        }
        self.snd_nxt = self.snd_una;
        self.dupacks = 0;
        self.recover = self.snd_una;
        self.rtt_history.clear(); // Karn's rule.
        self.cwr = false;
        self.window_end = self.snd_una;
        self.bytes_acked_window = 0;
        self.bytes_marked_window = 0;

        let pkts = if self.cfg.cc == CcAlgorithm::Fixed {
            // pFabric probe mode: a timed-out flow retransmits a single
            // segment per RTO rather than re-injecting its whole window,
            // bounding the retransmission storm its small fixed RTO would
            // otherwise create.
            let pkt = self.make_segment(self.snd_una, now, ids, true);
            self.snd_nxt = self.snd_una + u64::from(pkt.payload_bytes);
            vec![pkt]
        } else {
            self.pump_retransmit(now, ids)
        };
        self.arm_timer(now);
        pkts
    }

    fn on_dupack(&mut self, _ack: u64, now: SimTime, ids: &mut IdGen) -> Vec<Packet> {
        self.dupacks += 1;
        self.counters.dupacks += 1;
        let FastRetransmit::DupAckThreshold(k) = self.cfg.fast_retransmit else {
            return Vec::new();
        };
        if self.dupacks != k || self.snd_una < self.recover {
            return Vec::new();
        }
        // Fast retransmit + simplified fast recovery.
        self.counters.fast_retransmits += 1;
        self.recover = self.snd_nxt;
        if self.cfg.cc != CcAlgorithm::Fixed {
            let inflight = self.inflight() as f64;
            self.ssthresh = (inflight / 2.0).max(2.0 * f64::from(self.cfg.mss));
            self.cwnd = self.ssthresh;
        }
        self.rtt_history.clear(); // Karn's rule.
        let pkt = self.make_segment(self.snd_una, now, ids, true);
        self.arm_timer(now);
        vec![pkt]
    }

    /// Emits as many new segments as the window allows.
    fn pump(&mut self, now: SimTime, ids: &mut IdGen) -> Vec<Packet> {
        let mut out = Vec::new();
        while self.snd_nxt < self.size && (self.inflight() as f64) < self.cwnd {
            let pkt = self.make_segment(self.snd_nxt, now, ids, false);
            self.snd_nxt += u64::from(pkt.payload_bytes);
            self.rtt_history.push_back((self.snd_nxt, now));
            out.push(pkt);
        }
        out
    }

    /// After a timeout: retransmit one window starting at `snd_una`.
    fn pump_retransmit(&mut self, now: SimTime, ids: &mut IdGen) -> Vec<Packet> {
        let mut out = Vec::new();
        while self.snd_nxt < self.size && (self.inflight() as f64) < self.cwnd {
            let pkt = self.make_segment(self.snd_nxt, now, ids, true);
            self.snd_nxt += u64::from(pkt.payload_bytes);
            out.push(pkt);
        }
        out
    }

    fn make_segment(&mut self, seq: u64, now: SimTime, ids: &mut IdGen, rtx: bool) -> Packet {
        let remaining = self.size - seq;
        // min() against the u32 MSS bounds the value below u32::MAX.
        #[allow(clippy::cast_possible_truncation)]
        let len = remaining.min(u64::from(self.cfg.mss)) as u32;
        let mut pkt = Packet::data(
            ids.next(),
            self.flow,
            self.src,
            self.dst,
            seq,
            len,
            self.cfg.initial_ttl,
            now,
        );
        pkt.retransmit = rtx;
        if self.cfg.priority_stamping {
            // pFabric: priority is the flow's remaining size.
            pkt.priority = self.size - self.snd_una;
        }
        self.counters.packets_sent += 1;
        self.counters.bytes_sent += u64::from(len);
        pkt
    }

    fn end_marking_window(&mut self) {
        if self.cfg.cc == CcAlgorithm::Dctcp && self.bytes_acked_window > 0 {
            let f = self.bytes_marked_window as f64 / self.bytes_acked_window as f64;
            self.alpha = (1.0 - DCTCP_G) * self.alpha + DCTCP_G * f;
        }
        self.bytes_acked_window = 0;
        self.bytes_marked_window = 0;
        // Note: the caller sets the next `window_end` after pumping, so the
        // new window spans everything in flight afterwards.
        self.cwr = false;
    }

    fn update_rtt(&mut self, sample: SimDuration) {
        if self.cfg.fixed_rto.is_some() {
            return;
        }
        match self.srtt {
            None => {
                self.srtt = Some(sample);
                self.rttvar = sample / 2;
            }
            Some(srtt) => {
                // RFC 6298 with alpha=1/8, beta=1/4, in integer nanoseconds.
                let diff = if srtt > sample {
                    srtt - sample
                } else {
                    sample - srtt
                };
                self.rttvar =
                    SimDuration::from_nanos((3 * self.rttvar.as_nanos() + diff.as_nanos()) / 4);
                self.srtt = Some(SimDuration::from_nanos(
                    (7 * srtt.as_nanos() + sample.as_nanos()) / 8,
                ));
            }
        }
        let srtt = self.srtt.expect("just set");
        let candidate = srtt + self.rttvar.saturating_mul(4);
        self.rto = candidate.max(self.cfg.min_rto).min(MAX_RTO);
    }

    fn current_rto(&self) -> SimDuration {
        if let Some(fixed) = self.cfg.fixed_rto {
            return fixed;
        }
        self.rto
            .saturating_mul(1u64 << self.backoff.min(10))
            .min(MAX_RTO)
            .max(self.cfg.min_rto)
    }

    fn arm_timer(&mut self, now: SimTime) {
        if self.inflight() == 0 && self.snd_nxt >= self.size {
            self.disarm_timer();
            return;
        }
        self.timer_gen += 1;
        self.timer_deadline = Some(now + self.current_rto());
    }

    fn disarm_timer(&mut self) {
        self.timer_gen += 1;
        self.timer_deadline = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sender(size: u64) -> (TcpSender, IdGen) {
        (
            TcpSender::new(
                TcpConfig::dctcp_baseline(),
                FlowId(1),
                HostId(0),
                HostId(1),
                size,
            ),
            IdGen::new(),
        )
    }

    #[test]
    fn initial_window_is_ten_segments() {
        let (mut s, mut ids) = sender(1_000_000);
        let pkts = s.start(SimTime::ZERO, &mut ids);
        assert_eq!(pkts.len(), 10);
        assert_eq!(s.inflight(), 14_600);
        assert!(s.timer().is_some());
        // Sequential segments, full MSS each.
        for (i, p) in pkts.iter().enumerate() {
            assert_eq!(p.seq, i as u64 * 1460);
            assert_eq!(p.payload_bytes, 1460);
        }
    }

    #[test]
    fn small_flow_sends_all_at_once() {
        let (mut s, mut ids) = sender(3000);
        let pkts = s.start(SimTime::ZERO, &mut ids);
        assert_eq!(pkts.len(), 3);
        assert_eq!(pkts[2].payload_bytes, 3000 - 2 * 1460);
    }

    #[test]
    fn zero_flow_completes_immediately() {
        let (mut s, mut ids) = sender(0);
        let pkts = s.start(SimTime::ZERO, &mut ids);
        assert!(pkts.is_empty());
        assert!(s.is_complete());
        assert!(s.timer().is_none());
    }

    #[test]
    fn acks_advance_and_complete() {
        let (mut s, mut ids) = sender(2920);
        let t0 = SimTime::ZERO;
        s.start(t0, &mut ids);
        let t1 = SimTime::from_micros(100);
        let more = s.on_ack(1460, false, t1, &mut ids);
        assert!(more.is_empty(), "window already covers the flow");
        assert!(!s.is_complete());
        s.on_ack(2920, false, SimTime::from_micros(200), &mut ids);
        assert!(s.is_complete());
        assert_eq!(s.completed_at(), Some(SimTime::from_micros(200)));
        assert!(s.timer().is_none(), "timer disarmed at completion");
    }

    #[test]
    fn slow_start_doubles_window() {
        let (mut s, mut ids) = sender(10_000_000);
        s.start(SimTime::ZERO, &mut ids);
        let cwnd0 = s.cwnd();
        // Ack the whole initial window without marks.
        let mut sent = 14_600;
        let pkts = s.on_ack(sent, false, SimTime::from_micros(100), &mut ids);
        assert!(s.cwnd() >= cwnd0 * 1.9, "slow start should ~double");
        // And the pump refills the (now larger) window.
        sent += pkts.iter().map(|p| u64::from(p.payload_bytes)).sum::<u64>();
        assert_eq!(s.inflight(), sent - 14_600);
    }

    #[test]
    fn dctcp_alpha_tracks_marking() {
        let (mut s, mut ids) = sender(1_000_000_000);
        s.start(SimTime::ZERO, &mut ids);
        // Pin the window into congestion avoidance so 200 window-sized acks
        // do not exhaust the flow via slow-start doubling.
        s.ssthresh = 4.0 * 1460.0;
        s.cwnd = 4.0 * 1460.0;
        assert_eq!(s.alpha(), 1.0);
        // Repeatedly ack whole windows with no marks: alpha decays toward 0.
        let mut now = SimTime::ZERO;
        for _ in 0..100 {
            now += SimDuration::from_micros(100);
            let ack_to = s.snd_nxt_test();
            s.on_ack(ack_to, false, now, &mut ids);
        }
        assert!(!s.is_complete());
        assert!(s.alpha() < 0.01, "alpha should decay: {}", s.alpha());
        // Now mark everything: alpha climbs back up.
        for _ in 0..100 {
            now += SimDuration::from_micros(100);
            let ack_to = s.snd_nxt_test();
            s.on_ack(ack_to, true, now, &mut ids);
        }
        assert!(!s.is_complete());
        assert!(s.alpha() > 0.9, "alpha should rise: {}", s.alpha());
    }

    #[test]
    fn ece_cuts_at_most_once_per_window() {
        let (mut s, mut ids) = sender(100_000_000);
        s.start(SimTime::ZERO, &mut ids);
        // Drive alpha to a known value by ending one fully-marked window.
        let w = s.snd_nxt_test();
        s.on_ack(w, true, SimTime::from_micros(50), &mut ids);
        let after_first = s.cwnd();
        // A second ECE ack in the same window must not cut again.
        s.on_ack(w + 1460, true, SimTime::from_micros(60), &mut ids);
        assert!(s.cwnd() >= after_first, "second cut within window");
    }

    #[test]
    fn rto_collapses_window_and_retransmits() {
        let (mut s, mut ids) = sender(1_000_000);
        s.start(SimTime::ZERO, &mut ids);
        let (deadline, gen) = s.timer().unwrap();
        assert_eq!(deadline, SimTime::ZERO + SimDuration::from_millis(10));
        let pkts = s.on_rto(gen, deadline, &mut ids);
        assert_eq!(s.counters().timeouts, 1);
        assert_eq!(s.cwnd(), 1460.0);
        assert_eq!(pkts.len(), 1, "one segment at cwnd = 1 MSS");
        assert_eq!(pkts[0].seq, 0);
        assert!(pkts[0].retransmit);
        // Backoff doubles the next deadline.
        let (d2, _) = s.timer().unwrap();
        assert_eq!(d2, deadline + SimDuration::from_millis(20));
    }

    #[test]
    fn stale_rto_generation_is_ignored() {
        let (mut s, mut ids) = sender(1_000_000);
        s.start(SimTime::ZERO, &mut ids);
        let (_, gen) = s.timer().unwrap();
        // An ack re-arms the timer, bumping the generation.
        s.on_ack(1460, false, SimTime::from_micros(100), &mut ids);
        let pkts = s.on_rto(gen, SimTime::from_millis(10), &mut ids);
        assert!(pkts.is_empty());
        assert_eq!(s.counters().timeouts, 0);
    }

    #[test]
    fn fast_retransmit_fires_at_threshold() {
        let (mut s, mut ids) = sender(1_000_000);
        s.start(SimTime::ZERO, &mut ids);
        let t = SimTime::from_micros(100);
        // First ack advances, then three dups trigger a fast retransmit.
        s.on_ack(1460, false, t, &mut ids);
        assert!(s.on_ack(1460, false, t, &mut ids).is_empty());
        assert!(s.on_ack(1460, false, t, &mut ids).is_empty());
        let rtx = s.on_ack(1460, false, t, &mut ids);
        assert_eq!(rtx.len(), 1);
        assert_eq!(rtx[0].seq, 1460);
        assert!(rtx[0].retransmit);
        assert_eq!(s.counters().fast_retransmits, 1);
        // Further dups in the same recovery epoch do not retransmit again.
        assert!(s.on_ack(1460, false, t, &mut ids).is_empty());
    }

    #[test]
    fn fast_retransmit_disabled_for_dibs() {
        let mut s = TcpSender::new(
            TcpConfig::dctcp_dibs(),
            FlowId(1),
            HostId(0),
            HostId(1),
            1_000_000,
        );
        let mut ids = IdGen::new();
        s.start(SimTime::ZERO, &mut ids);
        let t = SimTime::from_micros(100);
        s.on_ack(1460, false, t, &mut ids);
        for _ in 0..50 {
            assert!(s.on_ack(1460, false, t, &mut ids).is_empty());
        }
        assert_eq!(s.counters().fast_retransmits, 0);
    }

    #[test]
    fn pfabric_stamps_remaining_size() {
        let mut s = TcpSender::new(
            TcpConfig::pfabric(),
            FlowId(1),
            HostId(0),
            HostId(1),
            14_600,
        );
        let mut ids = IdGen::new();
        let pkts = s.start(SimTime::ZERO, &mut ids);
        assert!(pkts.iter().all(|p| p.priority == 14_600));
        // After half is acked, fresh packets carry the smaller remainder.
        let more = s.on_ack(7300, false, SimTime::from_micros(50), &mut ids);
        assert!(more.iter().all(|p| p.priority == 7300));
        // Fixed window: cwnd unchanged throughout.
        assert_eq!(s.cwnd(), 14_600.0);
    }

    #[test]
    fn pfabric_rto_is_fixed() {
        let mut s = TcpSender::new(
            TcpConfig::pfabric(),
            FlowId(1),
            HostId(0),
            HostId(1),
            1_000_000,
        );
        let mut ids = IdGen::new();
        s.start(SimTime::ZERO, &mut ids);
        let (d1, g1) = s.timer().unwrap();
        assert_eq!(d1, SimTime::ZERO + SimDuration::from_micros(350));
        s.on_rto(g1, d1, &mut ids);
        let (d2, _) = s.timer().unwrap();
        // No backoff: still exactly 350 us later.
        assert_eq!(d2, d1 + SimDuration::from_micros(350));
        // Fixed CC: window not collapsed.
        assert_eq!(s.cwnd(), 14_600.0);
    }

    #[test]
    fn rtt_estimation_updates_rto() {
        let (mut s, mut ids) = sender(10_000_000);
        s.start(SimTime::ZERO, &mut ids);
        // Whole window acked 2 ms later: sample = 2 ms, but min_rto = 10 ms
        // dominates.
        s.on_ack(14_600, false, SimTime::from_millis(2), &mut ids);
        assert_eq!(s.srtt(), Some(SimDuration::from_millis(2)));
        assert_eq!(s.rto(), SimDuration::from_millis(10));
    }

    #[test]
    fn timestamp_echo_samples_rtt_across_retransmissions() {
        let (mut s, mut ids) = sender(1_000_000);
        s.start(SimTime::ZERO, &mut ids);
        let (deadline, gen) = s.timer().unwrap();
        // Spurious timeout at 10 ms; no samples yet.
        s.on_rto(gen, deadline, &mut ids);
        // The original ack arrives late, echoing the original send time
        // (t=0): the sample must be taken despite the retransmission
        // (Karn's rule would have discarded it).
        let late = SimTime::from_millis(15);
        s.on_ack_ts(1460, false, Some(SimTime::ZERO), late, &mut ids);
        assert_eq!(s.srtt(), Some(SimDuration::from_millis(15)));
        assert!(s.rto() >= SimDuration::from_millis(15));
    }

    #[test]
    fn eifel_undo_restores_window_after_spurious_timeout() {
        let (mut s, mut ids) = sender(10_000_000);
        s.start(SimTime::ZERO, &mut ids);
        let cwnd_before = s.cwnd();
        let (deadline, gen) = s.timer().unwrap();
        s.on_rto(gen, deadline, &mut ids);
        assert_eq!(s.cwnd(), 1460.0, "window collapsed by the timeout");
        // Ack echoing a pre-timeout send time proves the timeout spurious.
        s.on_ack_ts(
            14_600,
            false,
            Some(SimTime::ZERO),
            SimTime::from_millis(15),
            &mut ids,
        );
        assert!(
            s.cwnd() >= cwnd_before,
            "Eifel must restore the window: {} < {cwnd_before}",
            s.cwnd()
        );
        assert_eq!(s.counters().spurious_timeouts, 1);
    }

    #[test]
    fn genuine_timeout_is_not_undone() {
        let (mut s, mut ids) = sender(10_000_000);
        s.start(SimTime::ZERO, &mut ids);
        let (deadline, gen) = s.timer().unwrap();
        s.on_rto(gen, deadline, &mut ids);
        // Ack echoing the *retransmission's* send time (>= timeout instant):
        // the loss was real, so the collapse stands.
        s.on_ack_ts(
            1460,
            false,
            Some(deadline),
            deadline + SimDuration::from_micros(100),
            &mut ids,
        );
        assert_eq!(s.counters().spurious_timeouts, 0);
        assert!(s.cwnd() < 14_600.0);
    }

    #[test]
    fn pfabric_probe_mode_retransmits_one_segment() {
        let mut s = TcpSender::new(
            TcpConfig::pfabric(),
            FlowId(1),
            HostId(0),
            HostId(1),
            1_000_000,
        );
        let mut ids = IdGen::new();
        s.start(SimTime::ZERO, &mut ids);
        let (d, g) = s.timer().unwrap();
        let pkts = s.on_rto(g, d, &mut ids);
        assert_eq!(pkts.len(), 1, "probe mode sends exactly one segment");
        assert_eq!(pkts[0].seq, 0);
        // Repeated timeouts keep probing without window inflation.
        let (d2, g2) = s.timer().unwrap();
        let pkts2 = s.on_rto(g2, d2, &mut ids);
        assert_eq!(pkts2.len(), 1);
    }

    impl TcpSender {
        /// Test helper: expose snd_nxt.
        fn snd_nxt_test(&self) -> u64 {
            self.snd_nxt
        }
    }

    #[test]
    fn trace_packet_out_classifies_kinds() {
        use dibs_net::ids::PacketId;
        use dibs_trace::{KindMask, TraceBuffer};
        let mut buf = TraceBuffer::new(KindMask::ALL);
        let mut data = Packet::data(
            PacketId(1),
            FlowId(2),
            HostId(0),
            HostId(1),
            0,
            1460,
            64,
            SimTime::ZERO,
        );
        trace_packet_out(&data, 10, 100, &mut buf);
        data.retransmit = true;
        trace_packet_out(&data, 20, 100, &mut buf);
        let ack = Packet::ack(
            PacketId(3),
            FlowId(2),
            HostId(1),
            HostId(0),
            1460,
            false,
            64,
            SimTime::ZERO,
        );
        trace_packet_out(&ack, 30, 101, &mut buf);
        let kinds: Vec<TraceKind> = buf.events().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![TraceKind::Send, TraceKind::Retransmit, TraceKind::Ack]
        );
        assert_eq!(buf.events()[0].node, 100);
    }

    #[test]
    fn on_rto_traced_emits_only_for_genuine_firings() {
        use dibs_trace::{KindMask, TraceBuffer};
        let (mut s, mut ids) = sender(1_000_000);
        s.start(SimTime::ZERO, &mut ids);
        let (deadline, gen) = s.timer().unwrap();
        let mut buf = TraceBuffer::new(KindMask::ALL);
        // A stale generation is ignored and must not be traced.
        let stale = s.on_rto_traced(gen + 99, deadline, &mut ids, 5, &mut buf);
        assert!(stale.is_empty());
        assert!(buf.events().is_empty());
        // The genuine firing produces exactly one flow-level event.
        let pkts = s.on_rto_traced(gen, deadline, &mut ids, 5, &mut buf);
        assert!(!pkts.is_empty());
        assert_eq!(buf.events().len(), 1);
        let ev = buf.events()[0];
        assert_eq!(ev.kind, TraceKind::Timeout);
        assert_eq!(ev.flow, 1);
        assert_eq!(ev.node, 5);
        assert_eq!(usize::from(ev.qlen), pkts.len());
    }
}
