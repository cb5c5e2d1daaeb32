//! FIFO serializing link model.
//!
//! Models the property the paper leans on throughout §V–§VI: the master
//! transmits to slaves **in serial order** over one NIC, so a slave may
//! wait for every transfer scheduled ahead of it. One [`Link`] instance
//! represents one NIC; each message occupies the link for
//! `overhead + bytes × per-byte cost` and is delivered `latency` after it
//! leaves the link.

/// Static link parameters.
///
/// The defaults model the paper's effective stack — gigabit Ethernet
/// *through mpiJava's serialization layer on 930 MHz CPUs*, which is
/// serialization-bound, not wire-bound. See DESIGN.md §6 and
/// EXPERIMENTS.md for the calibration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Fixed per-message occupancy (connection handshake, MPI envelope),
    /// microseconds.
    pub overhead_us: u64,
    /// Per-byte occupancy, microseconds (serialization + copy + wire).
    pub us_per_byte: f64,
    /// Propagation latency after the message leaves the link.
    pub latency_us: u64,
}

impl LinkSpec {
    /// Calibrated distribution-path default (master → slave batches).
    pub const fn distribution_default() -> Self {
        // ~ 4 MB/s effective (Java object-stream serialization bound,
        // not the gigabit wire) + an 18 ms per-message envelope
        // (connection + MPI synchronisation). Fits the paper's Fig. 12
        // min/avg/max bands and Fig. 14 epoch sweep; see EXPERIMENTS.md.
        LinkSpec { overhead_us: 18_000, us_per_byte: 0.25, latency_us: 150 }
    }

    /// Calibrated result-path default (slave → collector). Result tuples
    /// are forwarded as raw bytes (no object serialization), so this path
    /// is much faster and is not part of the paper's "communication
    /// overhead" metric.
    pub const fn collector_default() -> Self {
        // ~ 50 MB/s effective + small envelope.
        LinkSpec { overhead_us: 200, us_per_byte: 0.02, latency_us: 150 }
    }
}

/// The result of submitting one message to a [`Link`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// When the message started occupying the link.
    pub departs_us: u64,
    /// When the link became free again (departure + occupancy).
    pub freed_us: u64,
    /// When the receiver observes the message (freed + latency).
    pub delivered_us: u64,
}

/// A FIFO link with exactly one in-flight message.
#[derive(Debug, Clone)]
pub struct Link {
    spec: LinkSpec,
    busy_until: u64,
}

impl Link {
    /// A free link with the given parameters.
    pub fn new(spec: LinkSpec) -> Self {
        Link { spec, busy_until: 0 }
    }

    /// The link parameters.
    pub fn spec(&self) -> LinkSpec {
        self.spec
    }

    /// When the link next becomes free.
    pub fn busy_until(&self) -> u64 {
        self.busy_until
    }

    /// Occupancy of a `bytes`-sized message, excluding queueing/latency.
    pub fn occupancy_us(&self, bytes: u64) -> u64 {
        self.spec.overhead_us + (bytes as f64 * self.spec.us_per_byte).ceil() as u64
    }

    /// Enqueues a message of `bytes` at time `now`; returns its timing.
    pub fn send(&mut self, now_us: u64, bytes: u64) -> Transfer {
        let departs = now_us.max(self.busy_until);
        let freed = departs + self.occupancy_us(bytes);
        self.busy_until = freed;
        Transfer {
            departs_us: departs,
            freed_us: freed,
            delivered_us: freed + self.spec.latency_us,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> LinkSpec {
        LinkSpec { overhead_us: 100, us_per_byte: 0.5, latency_us: 10 }
    }

    #[test]
    fn single_message_timing() {
        let mut l = Link::new(spec());
        let t = l.send(1000, 200);
        assert_eq!(t.departs_us, 1000);
        assert_eq!(t.freed_us, 1000 + 100 + 100);
        assert_eq!(t.delivered_us, 1200 + 10);
    }

    #[test]
    fn messages_serialize_fifo() {
        let mut l = Link::new(spec());
        let a = l.send(0, 0); // occupies [0, 100)
        let b = l.send(0, 0); // must wait: [100, 200)
        let c = l.send(50, 0); // still queued: [200, 300)
        assert_eq!(a.freed_us, 100);
        assert_eq!(b.departs_us, 100);
        assert_eq!(b.freed_us, 200);
        assert_eq!(c.departs_us, 200);
        assert_eq!(c.delivered_us, 310);
    }

    #[test]
    fn idle_gap_resets_queueing() {
        let mut l = Link::new(spec());
        l.send(0, 0);
        let t = l.send(5000, 0);
        assert_eq!(t.departs_us, 5000, "link was idle, no queueing");
    }

    #[test]
    fn zero_byte_message_costs_overhead_only() {
        let mut l = Link::new(spec());
        let t = l.send(0, 0);
        assert_eq!(t.freed_us, 100);
    }

    #[test]
    fn byte_cost_rounds_up() {
        let mut l = Link::new(LinkSpec { overhead_us: 0, us_per_byte: 0.3, latency_us: 0 });
        let t = l.send(0, 1);
        assert_eq!(t.freed_us, 1, "0.3 us rounds up to 1");
    }
}
