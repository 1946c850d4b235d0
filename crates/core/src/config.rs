//! Simulation configuration: Tables 1 and 2 of the paper as data.

use dibs_engine::time::SimDuration;
use dibs_switch::{DibsPolicy, SwitchConfig};
use dibs_transport::TcpConfig;

/// Hop-by-hop Ethernet flow control (§6 related work).
///
/// Per-ingress-port PAUSE accounting, as in IEEE 802.3x/802.1Qbb: each
/// switch tracks how many of its buffered packets arrived through each
/// ingress port; when a port's count reaches `xoff` the switch pauses that
/// link partner (after `control_delay`), releasing it at `xon`. This is the
/// mechanism the paper contrasts DIBS against (§6) — lossless, but with
/// head-of-line blocking, congestion spreading, and thresholds that need
/// tuning (unlike parameterless random detouring).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PfcConfig {
    /// Buffered packets from one ingress port at which that port's link
    /// partner is paused.
    pub xoff: usize,
    /// Per-ingress occupancy at which the partner is released.
    pub xon: usize,
    /// Pause-frame propagation + processing delay.
    pub control_delay: SimDuration,
}

impl PfcConfig {
    /// Defaults sized for the paper's 100-packet-per-port buffers: with up
    /// to ~7 switch-facing ingresses able to feed one output queue, the
    /// per-ingress XOFF must satisfy `ingresses x xoff + headroom < 100`
    /// (the standard PFC headroom calculation the paper calls "difficult
    /// to tune", §6).
    pub fn default_for_paper_buffers() -> Self {
        PfcConfig {
            xoff: 12,
            xon: 6,
            control_delay: SimDuration::from_micros(1),
        }
    }
}

/// How switches pick among equal-cost next hops (§3, §6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EcmpMode {
    /// Flow-level ECMP (the paper's default): all packets of a flow take
    /// the same shortest path.
    FlowLevel,
    /// Packet-level spraying (§6 related work): per-packet random choice.
    /// Improves fabric balance but reorders packets — and, per the paper,
    /// cannot help when the bottleneck is the destination's own link.
    PacketLevel,
}

/// Host NIC transmit queue limit, in packets (a qdisc-like bound;
/// overflowing packets drop and are recovered by retransmission). Hosts
/// never congest in the paper's workloads — this exists to bound memory
/// under pathological retransmission storms.
pub const HOST_NIC_CAP: usize = 10_000;

/// Everything the simulator needs besides the topology and the traffic.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Switch configuration (buffers, ECN, DIBS policy, discipline).
    pub switch: SwitchConfig,
    /// Host transport configuration.
    pub tcp: TcpConfig,
    /// Root random seed; identical seeds give identical runs.
    pub seed: u64,
    /// Hard stop: no event past this instant is processed. Traffic
    /// generators are given their own (earlier) windows so in-flight work
    /// can drain before the horizon.
    pub horizon: dibs_engine::time::SimTime,
    /// Interval for periodic link-utilization / buffer sampling
    /// (Figs 4, 5). `None` disables sampling.
    pub sample_interval: Option<SimDuration>,
    /// Long-lived-flow throughput is measured from this instant to the
    /// horizon, excluding the synchronized-start transient (§5.6).
    /// `None` measures from time zero.
    pub throughput_warmup: Option<dibs_engine::time::SimTime>,
    /// Equal-cost multipath mode.
    pub ecmp: EcmpMode,
    /// Hop-by-hop Ethernet flow control (`None` = off, the default; the
    /// paper's §6 baseline comparison).
    pub pfc: Option<PfcConfig>,
}

impl SimConfig {
    /// Paper defaults (Table 1/2) with DIBS **off**: the DCTCP baseline.
    pub fn dctcp_baseline() -> Self {
        SimConfig {
            switch: SwitchConfig::dctcp_baseline(),
            tcp: TcpConfig::dctcp_baseline(),
            seed: 1,
            horizon: dibs_engine::time::SimTime::from_secs(10),
            sample_interval: None,
            throughput_warmup: None,
            ecmp: EcmpMode::FlowLevel,
            pfc: None,
        }
    }

    /// Paper defaults with DIBS **on** (random detouring, fast retransmit
    /// disabled at the hosts per §4).
    pub fn dctcp_dibs() -> Self {
        SimConfig {
            switch: SwitchConfig::dctcp_dibs(),
            tcp: TcpConfig::dctcp_dibs(),
            ..Self::dctcp_baseline()
        }
    }

    /// The §5.8 pFabric configuration: 24-packet priority queues, fixed
    /// 350 µs RTO, remaining-size priorities.
    pub fn pfabric() -> Self {
        SimConfig {
            switch: SwitchConfig::pfabric(),
            tcp: TcpConfig::pfabric(),
            ..Self::dctcp_baseline()
        }
    }

    /// Returns the config with a different DIBS policy (ablations).
    pub fn with_policy(mut self, policy: DibsPolicy) -> Self {
        self.switch.dibs = policy;
        self
    }

    /// Returns the config with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dibs_engine::time::SimDuration;
    use dibs_switch::BufferConfig;
    use dibs_transport::FastRetransmit;

    /// Table 1: the default data-center settings.
    #[test]
    fn table1_defaults() {
        let c = SimConfig::dctcp_dibs();
        // Switch buffer: 100 packets per port.
        assert_eq!(
            c.switch.buffer,
            BufferConfig::StaticPerPort { packets: 100 }
        );
        // Marking threshold 20 packets.
        assert_eq!(c.switch.ecn_threshold, Some(20));
        // minRTO 10 ms.
        assert_eq!(c.tcp.min_rto, SimDuration::from_millis(10));
        // Initial congestion window 10.
        assert_eq!(c.tcp.init_cwnd, 10);
        // Fast retransmit disabled under DIBS.
        assert_eq!(c.tcp.fast_retransmit, FastRetransmit::Disabled);
        // MTU 1500 = MSS 1460 + 40 header bytes.
        assert_eq!(c.tcp.mss + dibs_net::packet::HEADER_BYTES, 1500);
    }

    #[test]
    fn baseline_differs_only_in_dibs_and_fast_rtx() {
        let base = SimConfig::dctcp_baseline();
        let dibs = SimConfig::dctcp_dibs();
        assert_eq!(base.switch.buffer, dibs.switch.buffer);
        assert_eq!(base.switch.ecn_threshold, dibs.switch.ecn_threshold);
        assert!(!base.switch.dibs.is_enabled());
        assert!(dibs.switch.dibs.is_enabled());
        assert_ne!(base.tcp.fast_retransmit, dibs.tcp.fast_retransmit);
    }

    #[test]
    fn builders_compose() {
        let c = SimConfig::dctcp_dibs()
            .with_policy(DibsPolicy::LoadAware)
            .with_seed(99);
        assert_eq!(c.switch.dibs, DibsPolicy::LoadAware);
        assert_eq!(c.seed, 99);
    }
}
