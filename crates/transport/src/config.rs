//! Transport configuration.

use dibs_engine::time::SimDuration;

/// Fast-retransmit behavior (§4: DIBS reorders packets, so the paper
/// disables fast retransmit, or raises the dupack threshold above ~10).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FastRetransmit {
    /// Never fast-retransmit; rely on the RTO (the paper's DIBS setting).
    Disabled,
    /// Retransmit after this many duplicate acks (3 is classic TCP).
    DupAckThreshold(u32),
}

/// Congestion-control algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CcAlgorithm {
    /// DCTCP: maintain the EWMA fraction `alpha` of marked bytes (gain
    /// 1/16, as in the DCTCP paper) and cut `cwnd` by `alpha/2` once per
    /// window.
    Dctcp,
    /// Fixed window: no reaction to marks or losses. Used by the pFabric
    /// host stack, which starts at line rate and relies on priority
    /// scheduling plus a small fixed RTO.
    Fixed,
}

/// Full per-connection transport configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TcpConfig {
    /// Maximum segment size in bytes (payload per packet).
    pub mss: u32,
    /// Initial congestion window, in segments (Table 1: 10).
    pub init_cwnd: u32,
    /// Lower bound on the retransmission timeout (Table 1: 10 ms).
    pub min_rto: SimDuration,
    /// Fixed RTO override: when set, RTT estimation is disabled and the RTO
    /// is always exactly this value (pFabric: 350 µs on 1 Gbps links).
    pub fixed_rto: Option<SimDuration>,
    /// Fast-retransmit policy.
    pub fast_retransmit: FastRetransmit,
    /// Congestion control algorithm.
    pub cc: CcAlgorithm,
    /// Stamp each data packet's priority with the flow's remaining bytes
    /// (pFabric scheduling).
    pub priority_stamping: bool,
    /// Initial TTL for emitted packets (Fig 13 sweeps this).
    pub initial_ttl: u8,
    /// Receiver ack coalescing: 1 acks every packet (exact DCTCP marking
    /// feedback, the default); m > 1 runs the DCTCP delayed-ack state
    /// machine with one ack per m in-order packets.
    pub ack_every: u32,
}

impl TcpConfig {
    /// The paper's DCTCP host settings (Table 1), fast retransmit enabled at
    /// the classic threshold (the no-DIBS baseline).
    pub fn dctcp_baseline() -> Self {
        TcpConfig {
            mss: 1460,
            init_cwnd: 10,
            min_rto: SimDuration::from_millis(10),
            fixed_rto: None,
            fast_retransmit: FastRetransmit::DupAckThreshold(3),
            cc: CcAlgorithm::Dctcp,
            priority_stamping: false,
            initial_ttl: 255,
            ack_every: 1,
        }
    }

    /// DCTCP host settings for DIBS runs: identical, but fast retransmit is
    /// disabled because detours reorder packets (§4).
    pub fn dctcp_dibs() -> Self {
        TcpConfig {
            fast_retransmit: FastRetransmit::Disabled,
            ..Self::dctcp_baseline()
        }
    }

    /// The pFabric host stack of §5.8: fixed window, 350 µs fixed RTO,
    /// remaining-size priority stamping.
    pub fn pfabric() -> Self {
        TcpConfig {
            mss: 1460,
            init_cwnd: 10,
            min_rto: SimDuration::from_micros(350),
            fixed_rto: Some(SimDuration::from_micros(350)),
            fast_retransmit: FastRetransmit::Disabled,
            cc: CcAlgorithm::Fixed,
            priority_stamping: true,
            initial_ttl: 255,
            ack_every: 1,
        }
    }

    /// Congestion window floor, in bytes.
    pub fn min_cwnd(&self) -> f64 {
        f64::from(self.mss)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper() {
        let d = TcpConfig::dctcp_baseline();
        assert_eq!(d.mss, 1460);
        assert_eq!(d.init_cwnd, 10);
        assert_eq!(d.min_rto, SimDuration::from_millis(10));
        assert_eq!(d.cc, CcAlgorithm::Dctcp);

        let dibs = TcpConfig::dctcp_dibs();
        assert_eq!(dibs.fast_retransmit, FastRetransmit::Disabled);

        let pf = TcpConfig::pfabric();
        assert_eq!(pf.fixed_rto, Some(SimDuration::from_micros(350)));
        assert!(pf.priority_stamping);
        assert_eq!(pf.cc, CcAlgorithm::Fixed);
    }
}
