//! The packet record seen by schedulers.

use simcore::Time;

/// A packet queued at one hop.
///
/// `arrival` is the arrival time *at this hop* — WTP priorities and waiting
/// times are always local. `tag` is an opaque caller-owned value (the
/// multi-hop simulator stores a flow/packet correlation id in it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// Packet id assigned by the producer, for correlation (probe spans,
    /// departure records). Single-link harnesses number packets in
    /// admission order; `netsim::mesh` numbers them at *emission*, so on a
    /// downstream link `seq` does not follow arrival order and no
    /// scheduler may rank on it.
    pub seq: u64,
    /// Service class, 0-based; higher index = higher class.
    pub class: u8,
    /// Length in bytes.
    pub size: u32,
    /// Arrival time at this hop.
    pub arrival: Time,
    /// Opaque caller tag (flow id, experiment id, …).
    pub tag: u64,
}

impl Packet {
    /// Convenience constructor with a zero tag.
    pub fn new(seq: u64, class: u8, size: u32, arrival: Time) -> Self {
        Packet {
            seq,
            class,
            size,
            arrival,
            tag: 0,
        }
    }

    /// Waiting time if service starts at `now`.
    pub fn waiting(&self, now: Time) -> simcore::Dur {
        now.saturating_since(self.arrival)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::Dur;

    #[test]
    fn waiting_time_is_now_minus_arrival() {
        let p = Packet::new(1, 0, 100, Time::from_ticks(10));
        assert_eq!(p.waiting(Time::from_ticks(25)), Dur::from_ticks(15));
        assert_eq!(p.waiting(Time::from_ticks(10)), Dur::ZERO);
        // Saturates rather than panicking if clocks are skewed.
        assert_eq!(p.waiting(Time::from_ticks(5)), Dur::ZERO);
    }
}
