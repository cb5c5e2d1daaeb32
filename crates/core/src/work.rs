//! Work accounting: the join module counts what it does; the simulator's
//! cost model prices it. Fields mirror `windjoin_sim::CpuWork` — the
//! cluster driver converts between them so that `core` stays independent
//! of the simulation substrate.

/// Counted work for one processing step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkStats {
    /// BNLJ inner-loop tuple comparisons (dominant cost; §IV-D).
    pub comparisons: u64,
    /// Output tuples constructed.
    pub emitted: u64,
    /// Tuples inserted into window partitions.
    pub inserts: u64,
    /// Hash computations and directory lookups.
    pub hash_ops: u64,
    /// Blocks fetched, appended, scanned-as-a-unit or expired.
    pub blocks_touched: u64,
    /// Tuples packed/unpacked for partition-group state movement, and
    /// tuples relocated by mini-group splits/merges.
    pub tuples_moved: u64,
    /// Partition-group state instances abandoned on dead slaves (one per
    /// re-homed partition of a failed node).
    pub groups_lost: u64,
    /// Upper bound on tuples whose window/buffered state died with a
    /// slave. Window-bounded: the master only counts tuples it routed to
    /// the dead slave whose timestamps were still inside the retention
    /// horizon (max window + expiry lag) at failure time — everything
    /// older had already expired and was never going to join again.
    pub tuples_lost: u64,
    /// Equality matches the residual predicate rejected. Always zero on
    /// plain equi-join runs (`Residual::ALWAYS` skips the filter pass),
    /// so legacy `WorkStats` comparisons stay bit-identical.
    pub residual_dropped: u64,
    /// Buffered tuples a slave dropped at drain time because it does not
    /// own their partition: a batch the leader should never have sent.
    /// Zero on every fault-free run.
    pub unowned_dropped: u64,
    /// Bytes this rank put on the wire (frame headers included on
    /// socket transports; zero in the simulator, which models links
    /// instead of counting them).
    pub bytes_sent: u64,
    /// Bytes this rank took off the wire (same conventions).
    pub bytes_recvd: u64,
}

impl WorkStats {
    /// Component-wise accumulate.
    pub fn add(&mut self, other: &WorkStats) {
        self.comparisons += other.comparisons;
        self.emitted += other.emitted;
        self.inserts += other.inserts;
        self.hash_ops += other.hash_ops;
        self.blocks_touched += other.blocks_touched;
        self.tuples_moved += other.tuples_moved;
        self.groups_lost += other.groups_lost;
        self.tuples_lost += other.tuples_lost;
        self.residual_dropped += other.residual_dropped;
        self.unowned_dropped += other.unowned_dropped;
        self.bytes_sent += other.bytes_sent;
        self.bytes_recvd += other.bytes_recvd;
    }

    /// True when nothing was counted.
    pub fn is_zero(&self) -> bool {
        *self == WorkStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_accumulates() {
        let mut a = WorkStats { comparisons: 1, ..Default::default() };
        a.add(&WorkStats { comparisons: 2, emitted: 3, ..Default::default() });
        assert_eq!(a.comparisons, 3);
        assert_eq!(a.emitted, 3);
        assert!(!a.is_zero());
        assert!(WorkStats::default().is_zero());
    }
}
