//! Global counters and (optional) bounded in-memory tracing, in the spirit
//! of smoltcp's pcap-style packet dumps but structured rather than binary.

use crate::packet::{FlowKey, Packet};
use crate::time::SimTime;
use crate::topology::NodeId;

/// Global drop/delivery accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Packets delivered to a node (including routers, i.e. per hop).
    pub delivered: u64,
    /// Deliveries to nodes with no logic installed.
    pub sunk: u64,
    /// Drops: DropTail queue overflow.
    pub dropped_queue: u64,
    /// Drops: decided by a MitM tap.
    pub dropped_tap: u64,
    /// Drops: fault injection or failed link.
    pub dropped_fault: u64,
    /// Drops: TTL expired at a router.
    pub dropped_ttl: u64,
    /// Drops: decided by a data-plane program.
    pub dropped_program: u64,
    /// Drops: no route / unannounced destination.
    pub dropped_no_route: u64,
}

impl Counters {
    /// Sum of all drop categories.
    pub fn total_drops(&self) -> u64 {
        self.dropped_queue
            + self.dropped_tap
            + self.dropped_fault
            + self.dropped_ttl
            + self.dropped_program
            + self.dropped_no_route
    }
}

/// What a trace record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// Packet delivered to a node.
    Deliver,
    /// Packet started serializing onto a link.
    TxStart,
    /// Dropped: queue overflow.
    QueueDrop,
    /// Dropped: tap decision.
    TapDrop,
    /// Dropped: fault injection / link down.
    FaultDrop,
    /// Dropped: no route.
    NoRoute,
}

/// One trace record.
#[derive(Debug, Clone, Copy)]
pub struct TraceEvent {
    /// When.
    pub time: SimTime,
    /// What.
    pub kind: TraceKind,
    /// Node involved (for deliveries).
    pub node: Option<NodeId>,
    /// Packet id.
    pub pkt_id: u64,
    /// Flow key.
    pub key: FlowKey,
}

/// Bounded in-memory trace (disabled by default; enabling costs one branch
/// per record).
#[derive(Debug)]
pub struct Trace {
    events: Vec<TraceEvent>,
    capacity: usize,
    enabled: bool,
    /// Records discarded after the buffer filled.
    pub truncated: u64,
}

impl Trace {
    /// A trace that records nothing.
    pub fn disabled() -> Self {
        Trace {
            events: Vec::new(),
            capacity: 0,
            enabled: false,
            truncated: 0,
        }
    }

    /// A trace that records up to `capacity` events, then counts overflow.
    pub fn enabled(capacity: usize) -> Self {
        Trace {
            events: Vec::with_capacity(capacity.min(4096)),
            capacity,
            enabled: true,
            truncated: 0,
        }
    }

    /// Record one event (no-op when disabled).
    #[inline]
    pub fn record(&mut self, time: SimTime, kind: TraceKind, node: Option<NodeId>, pkt: &Packet) {
        if !self.enabled {
            return;
        }
        if self.events.len() >= self.capacity {
            self.truncated += 1;
            return;
        }
        self.events.push(TraceEvent {
            time,
            kind,
            node,
            pkt_id: pkt.id,
            key: pkt.key,
        });
    }

    /// Recorded events.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Addr, FlowKey, Packet};

    fn pkt() -> Packet {
        Packet::udp(
            FlowKey::udp(Addr::new(1, 0, 0, 1), 1, Addr::new(1, 0, 0, 2), 2),
            10,
        )
    }

    #[test]
    fn disabled_records_nothing() {
        let mut t = Trace::disabled();
        t.record(SimTime::ZERO, TraceKind::Deliver, None, &pkt());
        assert!(t.events().is_empty());
        assert_eq!(t.truncated, 0);
    }

    #[test]
    fn enabled_caps_at_capacity() {
        let mut t = Trace::enabled(2);
        for _ in 0..5 {
            t.record(SimTime::ZERO, TraceKind::Deliver, None, &pkt());
        }
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.truncated, 3);
    }

    #[test]
    fn counters_sum() {
        let c = Counters {
            dropped_queue: 1,
            dropped_tap: 2,
            dropped_fault: 3,
            dropped_ttl: 4,
            dropped_program: 5,
            dropped_no_route: 6,
            ..Default::default()
        };
        assert_eq!(c.total_drops(), 21);
    }
}
