//! Partitioned stream buffers with per-partition *mini-buffers*
//! (§IV-B, Fig. 3).
//!
//! Both the master and the slaves buffer pending tuples this way: one
//! mini-buffer per partition, so the tuples of any partition subset can
//! be drained without scanning the rest. Occupancy (`buffered bytes /
//! allotted bytes`) is the load metric `f_i` of the repartitioning
//! protocol (§IV-C); under overload it exceeds 1 — the buffer grows, the
//! metric reports the overflow.

use crate::Tuple;

/// A per-partition tuple buffer with byte accounting.
#[derive(Debug, Clone)]
pub struct PartitionedBuffer {
    parts: Vec<Vec<Tuple>>,
    tuple_bytes: usize,
    capacity_bytes: usize,
    total_tuples: usize,
}

impl PartitionedBuffer {
    /// A buffer over `npart` partitions; `capacity_bytes` is the memory
    /// allotted for the occupancy metric (not a hard limit).
    pub fn new(npart: u32, tuple_bytes: usize, capacity_bytes: usize) -> Self {
        assert!(npart > 0 && tuple_bytes > 0 && capacity_bytes > 0);
        PartitionedBuffer {
            parts: (0..npart).map(|_| Vec::new()).collect(),
            tuple_bytes,
            capacity_bytes,
            total_tuples: 0,
        }
    }

    /// Number of partitions.
    pub fn npart(&self) -> u32 {
        self.parts.len() as u32
    }

    /// Appends a tuple to partition `pid`'s mini-buffer.
    #[inline]
    pub fn push(&mut self, pid: u32, t: Tuple) {
        self.parts[pid as usize].push(t);
        self.total_tuples += 1;
    }

    /// Tuples currently buffered for `pid`.
    pub fn partition_len(&self, pid: u32) -> usize {
        self.parts[pid as usize].len()
    }

    /// Total buffered tuples.
    pub fn total_tuples(&self) -> usize {
        self.total_tuples
    }

    /// Total buffered bytes (wire-sized tuples).
    pub fn bytes(&self) -> u64 {
        (self.total_tuples * self.tuple_bytes) as u64
    }

    /// The occupancy metric: buffered bytes over allotted bytes. May
    /// exceed 1 under overload.
    pub fn occupancy(&self) -> f64 {
        self.bytes() as f64 / self.capacity_bytes as f64
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.total_tuples == 0
    }

    /// Partition `pid`'s buffered tuples (arrival order), left in
    /// place — the checkpointing path snapshots without disturbing the
    /// buffer.
    pub fn partition_tuples(&self, pid: u32) -> &[Tuple] {
        &self.parts[pid as usize]
    }

    /// Drains and returns partition `pid`'s tuples (arrival order).
    pub fn drain_partition(&mut self, pid: u32) -> Vec<Tuple> {
        let mut v = Vec::new();
        self.drain_partition_into(pid, &mut v);
        v
    }

    /// Drains partition `pid`'s tuples (arrival order) onto the end of
    /// `into`. The mini-buffer keeps its allocation, so a drain every
    /// few milliseconds into a reused vector allocates nothing.
    pub fn drain_partition_into(&mut self, pid: u32, into: &mut Vec<Tuple>) {
        let part = &mut self.parts[pid as usize];
        self.total_tuples -= part.len();
        into.append(part);
    }

    /// Empties partition `pid`'s mini-buffer in place, keeping its
    /// allocation — the end of a drain that read
    /// [`partition_tuples`](Self::partition_tuples).
    pub fn clear_partition(&mut self, pid: u32) {
        let part = &mut self.parts[pid as usize];
        self.total_tuples -= part.len();
        part.clear();
    }

    /// Drains several partitions into one batch, preserving arrival
    /// order *within* each partition and concatenating in `pids` order —
    /// exactly how the master merges mini-buffers into one message
    /// (§IV-B).
    pub fn drain_partitions(&mut self, pids: impl IntoIterator<Item = u32>) -> Vec<Tuple> {
        let mut out = Vec::new();
        for pid in pids {
            self.drain_partition_into(pid, &mut out);
        }
        out
    }

    /// Partition ids that currently hold tuples, ascending.
    pub fn non_empty_partitions(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.npart()).filter(|&p| !self.parts[p as usize].is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Side;

    fn t(seq: u64) -> Tuple {
        Tuple::new(Side::Left, seq, 0, seq)
    }

    #[test]
    fn push_drain_roundtrip() {
        let mut b = PartitionedBuffer::new(4, 64, 1024);
        b.push(0, t(1));
        b.push(2, t(2));
        b.push(0, t(3));
        assert_eq!(b.total_tuples(), 3);
        assert_eq!(b.partition_len(0), 2);
        assert_eq!(b.non_empty_partitions().collect::<Vec<_>>(), vec![0, 2]);
        let d = b.drain_partition(0);
        assert_eq!(d.iter().map(|x| x.seq).collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(b.total_tuples(), 1);
        assert!(!b.is_empty());
        b.drain_partition(2);
        assert!(b.is_empty());
    }

    #[test]
    fn occupancy_tracks_bytes_and_can_exceed_one() {
        let mut b = PartitionedBuffer::new(2, 64, 128);
        assert_eq!(b.occupancy(), 0.0);
        b.push(0, t(0));
        assert_eq!(b.bytes(), 64);
        assert_eq!(b.occupancy(), 0.5);
        b.push(0, t(1));
        b.push(1, t(2));
        assert_eq!(b.occupancy(), 1.5, "overload pushes occupancy past 1");
    }

    #[test]
    fn drain_many_preserves_partition_order() {
        let mut b = PartitionedBuffer::new(3, 64, 1024);
        b.push(2, t(1));
        b.push(0, t(2));
        b.push(2, t(3));
        let batch = b.drain_partitions([0, 2]);
        assert_eq!(batch.iter().map(|x| x.seq).collect::<Vec<_>>(), vec![2, 1, 3]);
        assert!(b.is_empty());
    }

    #[test]
    fn drains_keep_each_mini_buffer_allocation() {
        let mut b = PartitionedBuffer::new(2, 64, 1024);
        let mut into = Vec::new();
        for round in 0..3 {
            for i in 0..40 {
                b.push(1, t(100 * round + i));
            }
            let (held, cap) = (b.parts[1].as_ptr(), b.parts[1].capacity());
            into.clear();
            b.drain_partition_into(1, &mut into);
            assert_eq!(into.len(), 40);
            assert_eq!(into[0].seq, 100 * round);
            assert_eq!((b.parts[1].as_ptr(), b.parts[1].capacity()), (held, cap));
            assert!(b.is_empty() && b.non_empty_partitions().next().is_none());
        }
    }

    #[test]
    fn drain_empty_partition_is_fine() {
        let mut b = PartitionedBuffer::new(2, 64, 1024);
        assert!(b.drain_partition(1).is_empty());
    }
}
