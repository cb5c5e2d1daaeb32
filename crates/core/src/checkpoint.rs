//! Partition checkpointing: periodic snapshots of a partition-group's
//! window state (plus payload store and per-side delivery watermarks)
//! shipped to a *buddy* slave, so a re-homed partition resumes from its
//! checkpoint plus a replayed tail instead of being charged as
//! `tuples_lost`.
//!
//! A dead slave's partitions come back one way, a
//! [`Rehome`](crate::Rehome) answered by a `Restore` at the new owner;
//! a checkpoint only decides what that owner installs. With one
//! registered, the re-home goes to its holder, which installs the
//! snapshot and gets the tail past its watermarks replayed; without,
//! the owner installs an empty group and the abandoned window is
//! charged as lost — a restore from an empty checkpoint.
//!
//! Three pieces, all sans-io:
//!
//! * [`PartitionCheckpoint`] — one snapshot, reusing the `State`
//!   transfer encoding's building blocks (`GroupState`, pending tuples,
//!   payload entries) plus the `(seen_left, seen_right)` delivery
//!   watermarks the restore path needs to bound the replay.
//! * [`CheckpointStore`] — the buddy-side shelf: the latest checkpoint
//!   per partition, installed on a master `Restore` that says the
//!   master registered it.
//! * [`CheckpointRegistry`] — the master-side index of *who holds what*
//!   (and up to which watermarks), consulted by
//!   [`MasterCore::on_slave_down`](crate::MasterCore::on_slave_down) to
//!   re-home a covered partition at its holder.

use crate::{GroupState, PayloadEntry, Tuple};
use std::collections::BTreeMap;

/// One partition snapshot as shipped to (and stored by) a buddy slave.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionCheckpoint {
    /// Exclusive left-side delivery watermark: every left tuple with
    /// `seq < seen_left` is reflected in this snapshot.
    pub seen_left: u64,
    /// Exclusive right-side delivery watermark.
    pub seen_right: u64,
    /// The window state (same encoding as a §IV-C state move).
    pub state: GroupState,
    /// Buffered-but-unprocessed tuples at snapshot time.
    pub pending: Vec<Tuple>,
    /// The partition's payload store at snapshot time.
    pub payloads: Vec<PayloadEntry>,
}

/// The buddy-side shelf of stored checkpoints, latest per partition.
#[derive(Debug, Default)]
pub struct CheckpointStore {
    by_pid: BTreeMap<u32, PartitionCheckpoint>,
}

impl CheckpointStore {
    /// An empty shelf.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores (or replaces) the checkpoint for `pid`.
    pub fn store(&mut self, pid: u32, ckpt: PartitionCheckpoint) {
        self.by_pid.insert(pid, ckpt);
    }

    /// Removes and returns the stored checkpoint for `pid` (the restore
    /// path consumes it: after installation the holder owns the live
    /// partition and will re-checkpoint to *its* buddy).
    pub fn take(&mut self, pid: u32) -> Option<PartitionCheckpoint> {
        self.by_pid.remove(&pid)
    }

    /// Drops the stored checkpoint for `pid`, if any.
    pub fn forget(&mut self, pid: u32) {
        self.by_pid.remove(&pid);
    }

    /// Partitions currently shelved, ascending.
    pub fn held_partitions(&self) -> Vec<u32> {
        self.by_pid.keys().copied().collect()
    }
}

/// One registry row: who holds `pid`'s latest checkpoint, and through
/// which delivery watermarks it is complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointMeta {
    /// The buddy slave holding the checkpoint.
    pub holder: usize,
    /// Exclusive left-side watermark of the held snapshot.
    pub seen_left: u64,
    /// Exclusive right-side watermark.
    pub seen_right: u64,
}

/// The master-side index of stored checkpoints, fed by `CkptNote`
/// frames from the buddies that shelved them.
#[derive(Debug, Default)]
pub struct CheckpointRegistry {
    by_pid: BTreeMap<u32, CheckpointMeta>,
}

impl CheckpointRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records (or refreshes) `holder`'s checkpoint of `pid`. Notes
    /// from the same holder arrive in order, so the newest overwrite
    /// always carries the highest watermarks.
    pub fn note(&mut self, pid: u32, holder: usize, seen_left: u64, seen_right: u64) {
        self.by_pid.insert(pid, CheckpointMeta { holder, seen_left, seen_right });
    }

    /// The registered checkpoint of `pid`, if any.
    pub fn get(&self, pid: u32) -> Option<CheckpointMeta> {
        self.by_pid.get(&pid).copied()
    }

    /// Forgets `pid`'s registration — called when ownership changes
    /// (the held snapshot belongs to the previous ownership era; a
    /// restore from it after tuples flowed to the *new* owner would
    /// replay work whose outputs were already emitted).
    pub fn forget(&mut self, pid: u32) {
        self.by_pid.remove(&pid);
    }

    /// Forgets everything `slave` holds — its shelf died with it.
    pub fn drop_holder(&mut self, slave: usize) {
        self.by_pid.retain(|_, m| m.holder != slave);
    }

    /// Registered partitions, ascending.
    pub fn covered_partitions(&self) -> Vec<u32> {
        self.by_pid.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_notes_refresh_and_forget() {
        let mut r = CheckpointRegistry::new();
        assert_eq!(r.get(3), None);
        r.note(3, 1, 10, 20);
        r.note(4, 2, 5, 5);
        assert_eq!(r.get(3), Some(CheckpointMeta { holder: 1, seen_left: 10, seen_right: 20 }));
        // A fresher note from the same holder overwrites.
        r.note(3, 1, 50, 60);
        assert_eq!(r.get(3).unwrap().seen_left, 50);
        assert_eq!(r.covered_partitions(), vec![3, 4]);
        r.forget(3);
        assert_eq!(r.get(3), None);
        assert_eq!(r.covered_partitions(), vec![4]);
    }

    #[test]
    fn registry_drops_a_dead_holder_wholesale() {
        let mut r = CheckpointRegistry::new();
        r.note(0, 1, 1, 1);
        r.note(1, 2, 1, 1);
        r.note(2, 1, 1, 1);
        r.drop_holder(1);
        assert_eq!(r.covered_partitions(), vec![1], "only holder 2's survives");
    }

    #[test]
    fn store_shelves_latest_and_take_consumes() {
        let ckpt = |wm: u64| PartitionCheckpoint {
            seen_left: wm,
            seen_right: wm,
            state: GroupState { buckets: Vec::new() },
            pending: Vec::new(),
            payloads: Vec::new(),
        };
        let mut s = CheckpointStore::new();
        s.store(7, ckpt(1));
        s.store(7, ckpt(2));
        s.store(9, ckpt(3));
        assert_eq!(s.held_partitions(), vec![7, 9]);
        assert_eq!(s.take(7).unwrap().seen_left, 2, "latest replaces earlier");
        assert_eq!(s.take(7), None, "take consumes");
        s.forget(9);
        assert!(s.held_partitions().is_empty());
    }
}
