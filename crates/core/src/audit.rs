//! Runtime invariant auditor for the packet data path.
//!
//! The simulator's results are only as trustworthy as its bookkeeping:
//! every packet that a host injects must end up in exactly one of the
//! terminal or transient states the counters describe. This module
//! keeps an O(1) ledger of the transient states and, in debug builds
//! (which includes every `cargo test` run), asserts the conservation
//! law
//!
//! ```text
//! sent == delivered + dropped + in_nic + in_buffer + in_events
//! ```
//!
//! where `in_events` counts the packets currently riding inside
//! scheduled `TxComplete`/`Arrive` events (serialization and propagation
//! delays), and the other transient buckets are read directly from the
//! NIC and switch buffer state.
//!
//! The packets in NIC queues and in events are stored in the
//! simulation's packet arena, so the check also asserts the arena
//! identity
//!
//! ```text
//! arena_live == in_nic + in_events
//! ```
//!
//! `in_events` stays an independent count rather than being read off the
//! arena: a handle leaked without a scheduled event keeps its slot live,
//! so only the two counts together expose it.
//!
//! The check runs every [`CHECK_INTERVAL`] dispatches and once at
//! finalization, so a violation is caught within a bounded window of
//! the event that caused it without making debug runs quadratic. In
//! release builds the ledger degenerates to one `u64` increment per
//! packet event and no checks.

/// How many event dispatches pass between conservation checks.
pub const CHECK_INTERVAL: u64 = 4096;

/// O(1) bookkeeping for the conservation audit.
#[derive(Debug, Default, Clone)]
pub struct AuditLedger {
    /// Packets currently inside scheduled packet-carrying events.
    in_events: u64,
    /// Dispatches since the last conservation check.
    since_check: u64,
}

/// A snapshot of every bucket the conservation law mentions.
///
/// Built by the simulation immediately before a check; all fields are
/// packet counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LedgerSnapshot {
    /// Packets injected by hosts (`packets_sent`).
    pub sent: u64,
    /// Packets handed to a destination host (`packets_delivered`).
    pub delivered: u64,
    /// All drops: TTL, buffer, displacement, host NIC.
    pub dropped: u64,
    /// Packets waiting in host NIC queues.
    pub in_nic: u64,
    /// Packets resident in switch egress buffers.
    pub in_buffer: u64,
    /// Packets riding inside scheduled events (wire + serialization).
    pub in_events: u64,
    /// Occupied slots in the simulation's packet arena.
    pub in_arena: u64,
}

impl AuditLedger {
    /// A fresh ledger with nothing in flight.
    pub fn new() -> Self {
        Self::default()
    }

    /// A packet-carrying event was scheduled.
    #[inline]
    pub fn packet_event_scheduled(&mut self) {
        self.in_events += 1;
    }

    /// A packet-carrying event was dispatched; its packet moved on to a
    /// queue, a buffer, delivery, or a drop.
    #[inline]
    pub fn packet_event_dispatched(&mut self) {
        debug_assert!(
            self.in_events > 0,
            "packet event dispatched but none pending"
        );
        self.in_events = self.in_events.saturating_sub(1);
    }

    /// Packets currently inside scheduled events.
    #[inline]
    pub fn in_events(&self) -> u64 {
        self.in_events
    }

    /// Called once per dispatched event; returns `true` when the (debug
    /// build) conservation check is due. Always `false` in release
    /// builds so callers skip the snapshot work entirely.
    #[inline]
    pub fn tick(&mut self) -> bool {
        if !cfg!(debug_assertions) {
            return false;
        }
        self.since_check += 1;
        if self.since_check >= CHECK_INTERVAL {
            self.since_check = 0;
            true
        } else {
            false
        }
    }

    /// Assert the conservation law over `snap` (debug builds only).
    ///
    /// # Panics
    ///
    /// Panics in debug builds when packets have leaked or been double
    /// counted.
    pub fn check(snap: &LedgerSnapshot) {
        let accounted =
            snap.delivered + snap.dropped + snap.in_nic + snap.in_buffer + snap.in_events;
        debug_assert!(
            snap.sent == accounted,
            "packet conservation violated: sent={} but accounted={} ({snap:?})",
            snap.sent,
            accounted,
        );
        debug_assert!(
            snap.in_arena == snap.in_nic + snap.in_events,
            "packet arena out of step: {} live slots but in_nic + in_events = {} ({snap:?})",
            snap.in_arena,
            snap.in_nic + snap.in_events,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_tracks_events() {
        let mut l = AuditLedger::new();
        l.packet_event_scheduled();
        l.packet_event_scheduled();
        assert_eq!(l.in_events(), 2);
        l.packet_event_dispatched();
        assert_eq!(l.in_events(), 1);
    }

    #[test]
    fn balanced_snapshot_passes() {
        AuditLedger::check(&LedgerSnapshot {
            sent: 10,
            delivered: 4,
            dropped: 2,
            in_nic: 1,
            in_buffer: 2,
            in_events: 1,
            in_arena: 2,
        });
    }

    #[test]
    #[should_panic(expected = "packet conservation violated")]
    fn leaked_packet_panics() {
        AuditLedger::check(&LedgerSnapshot {
            sent: 10,
            delivered: 4,
            dropped: 2,
            in_nic: 1,
            in_buffer: 2,
            in_events: 0,
            in_arena: 1,
        });
    }

    #[test]
    #[should_panic(expected = "packet arena out of step")]
    fn leaked_arena_slot_panics() {
        // Conservation holds, but one arena slot is live with no NIC
        // entry or event pointing at it.
        AuditLedger::check(&LedgerSnapshot {
            sent: 10,
            delivered: 4,
            dropped: 2,
            in_nic: 1,
            in_buffer: 2,
            in_events: 1,
            in_arena: 3,
        });
    }

    #[test]
    fn tick_fires_on_interval() {
        let mut l = AuditLedger::new();
        let mut fired = 0;
        for _ in 0..(2 * CHECK_INTERVAL) {
            if l.tick() {
                fired += 1;
            }
        }
        assert_eq!(fired, 2);
    }
}
