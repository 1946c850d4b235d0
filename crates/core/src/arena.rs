//! Slab of packets that are between two nodes.
//!
//! A packet leaves a transmitter's control when the port starts
//! serializing it and re-enters a node's control when it reaches the
//! next switch or its destination host. For that stretch — the host NIC
//! queue, serialization and propagation — it lives here, and the timing wheel and NIC queues carry a 4-byte
//! [`PacketHandle`] instead of the packet itself. Freed slots are reused
//! LIFO, so a take-then-insert cycle touches cache-hot memory.

use dibs_net::packet::Packet;

/// Index of a live slot in a [`PacketArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PacketHandle(u32);

/// Packet slots plus a free list of vacated slot indices.
#[derive(Default)]
pub(crate) struct PacketArena {
    /// `None` only while the slot's index sits on `free`.
    slots: Vec<Option<Packet>>,
    free: Vec<u32>,
}

impl PacketArena {
    /// Stores `pkt` and returns the handle that retrieves it.
    #[inline]
    pub(crate) fn insert(&mut self, pkt: Packet) -> PacketHandle {
        if let Some(idx) = self.free.pop() {
            self.slots[idx as usize] = Some(pkt);
            PacketHandle(idx)
        } else {
            let idx = u32::try_from(self.slots.len()).expect("in-flight packets fit u32");
            self.slots.push(Some(pkt));
            PacketHandle(idx)
        }
    }

    /// The live packet behind `h`.
    #[inline]
    pub(crate) fn get(&self, h: PacketHandle) -> &Packet {
        self.slots[h.0 as usize]
            .as_ref()
            .expect("packet handle is live")
    }

    /// Mutable access to the live packet behind `h`.
    #[inline]
    pub(crate) fn get_mut(&mut self, h: PacketHandle) -> &mut Packet {
        self.slots[h.0 as usize]
            .as_mut()
            .expect("packet handle is live")
    }

    /// Removes the packet behind `h` and frees its slot; `h` is dead
    /// afterwards.
    #[inline]
    pub(crate) fn take(&mut self, h: PacketHandle) -> Packet {
        let pkt = self.slots[h.0 as usize]
            .take()
            .expect("packet handle is live");
        self.free.push(h.0);
        pkt
    }

    /// Number of occupied slots.
    pub(crate) fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dibs_engine::time::SimTime;
    use dibs_net::ids::{FlowId, HostId, PacketId};

    fn pkt(id: u64) -> Packet {
        Packet::data(
            PacketId(id),
            FlowId(0),
            HostId(0),
            HostId(1),
            0,
            1460,
            64,
            SimTime::ZERO,
        )
    }

    #[test]
    fn insert_take_round_trips_and_reuses_slots() {
        let mut a = PacketArena::default();
        let h1 = a.insert(pkt(1));
        let h2 = a.insert(pkt(2));
        assert_eq!(a.live(), 2);
        a.get_mut(h1).hops = 3;
        assert_eq!(a.get(h1).hops, 3);
        assert_eq!(a.take(h1).id, PacketId(1));
        assert_eq!(a.live(), 1);
        // The freed slot is handed out again before the slab grows.
        let h3 = a.insert(pkt(3));
        assert_eq!(h3, h1);
        assert_eq!(a.take(h2).id, PacketId(2));
        assert_eq!(a.take(h3).id, PacketId(3));
        assert_eq!(a.live(), 0);
    }

    #[test]
    #[should_panic(expected = "packet handle is live")]
    fn taking_a_dead_handle_panics() {
        let mut a = PacketArena::default();
        let h = a.insert(pkt(1));
        a.take(h);
        a.take(h);
    }
}
