//! Out-of-band tuple payload storage.
//!
//! In-memory [`Tuple`]s stay 32-byte `Copy` values (window state holds
//! millions); a tuple's payload handle is its identity `(side, seq)`,
//! and a [`PayloadStore`] resolves handles to bytes wherever payloads
//! are needed — at the master between ingest and distribution, and at
//! each slave for residual-predicate evaluation at probe time.
//!
//! Stores are pruned by timestamp: a payload is retained exactly as
//! long as its tuple could still participate in a join (the same
//! retention horizon the window blocks use), so payload memory is
//! window-bounded. Runs without payloads never touch a store.
//!
//! Pruning is O(expired), not O(stored): beside the map each side keeps
//! its identities in a timestamp-ordered queue, and a prune pops the
//! expired prefix. Identities removed by other means ([`remove`],
//! [`extract_for`]) leave a stale queue entry behind; an insert that
//! finds more stale entries than live ones rebuilds the queues from the
//! map, so they stay within twice the map's size.
//!
//! [`remove`]: PayloadStore::remove
//! [`extract_for`]: PayloadStore::extract_for

use crate::{Side, Tuple};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};

/// `(arrival timestamp, payload bytes)` — what the store keeps per
/// tuple identity.
type StoredPayload = (u64, Box<[u8]>);

/// One payload in flight with its tuple identity — the unit shipped
/// inside partition-group state transfers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PayloadEntry {
    /// Stream side of the owning tuple.
    pub side: Side,
    /// Per-stream sequence number of the owning tuple.
    pub seq: u64,
    /// Arrival timestamp of the owning tuple (drives retention).
    pub t: u64,
    /// The payload bytes.
    pub bytes: Vec<u8>,
}

/// A `(side, seq) → payload` map with timestamp-bounded retention.
#[derive(Debug, Clone, Default)]
pub struct PayloadStore {
    map: HashMap<(Side, u64), StoredPayload>,
    /// Per side, `(t, seq)` of every insert, ascending by `t`. A queue
    /// entry whose identity is gone from the map, or stored there under
    /// another timestamp (a re-insert), is stale and skipped.
    order: [VecDeque<(u64, u64)>; 2],
    /// Sum of the stored payloads' lengths, kept as they come and go so
    /// the memory gauge never walks the map.
    payload_bytes: usize,
}

/// Stale queue entries tolerated beyond the live count before an
/// insert rebuilds the queues.
const STALE_SLACK: usize = 64;

impl PayloadStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores `bytes` for the tuple identified by `(side, seq)`,
    /// arriving at `t`. A duplicate insert replaces (identities are
    /// unique per run, so this only happens on recovery re-installs).
    pub fn insert(&mut self, side: Side, seq: u64, t: u64, bytes: impl Into<Box<[u8]>>) {
        let bytes = bytes.into();
        self.payload_bytes += bytes.len();
        let replaced = self.map.insert((side, seq), (t, bytes));
        self.payload_bytes -= replaced.as_ref().map_or(0, |(_, old)| old.len());
        if replaced.is_some_and(|(at, _)| at == t) {
            return; // same identity, same timestamp: already queued
        }
        if self.order[0].len() + self.order[1].len() > 2 * self.map.len() + STALE_SLACK {
            self.rebuild_order();
            return;
        }
        let q = &mut self.order[side as usize];
        match q.back() {
            // Out of arrival order (a recovery re-install under newer
            // payloads): keep the queue sorted, so pruning stays exact.
            Some(&(back, _)) if back > t => {
                let at = q.partition_point(|&(qt, _)| qt <= t);
                q.insert(at, (t, seq));
            }
            _ => q.push_back((t, seq)),
        }
    }

    /// Rebuilds both queues from the map, dropping every stale entry.
    fn rebuild_order(&mut self) {
        self.order.iter_mut().for_each(VecDeque::clear);
        for (&(side, seq), &(t, _)) in &self.map {
            self.order[side as usize].push_back((t, seq));
        }
        for q in &mut self.order {
            q.make_contiguous().sort_unstable();
        }
    }

    /// Stores a transferred entry.
    pub fn insert_entry(&mut self, e: PayloadEntry) {
        self.insert(e.side, e.seq, e.t, e.bytes);
    }

    /// The payload of `(side, seq)`, or the empty slice when none is
    /// (or is no longer) stored.
    pub fn get(&self, side: Side, seq: u64) -> &[u8] {
        self.map.get(&(side, seq)).map(|(_, b)| &b[..]).unwrap_or(&[])
    }

    /// Removes and returns the payload of one tuple (used by the master
    /// when a tuple leaves for its slave — each tuple is distributed
    /// exactly once).
    pub fn remove(&mut self, side: Side, seq: u64) -> Option<(u64, Box<[u8]>)> {
        let removed = self.map.remove(&(side, seq))?;
        self.payload_bytes -= removed.1.len();
        Some(removed)
    }

    /// Extracts the payloads of `tuples` as transferable entries
    /// (removing them from this store) — the state-mover path: payloads
    /// travel with their partition-group.
    pub fn extract_for<'a>(
        &mut self,
        tuples: impl IntoIterator<Item = &'a Tuple>,
    ) -> Vec<PayloadEntry> {
        let mut out = Vec::new();
        for t in tuples {
            if let Some((at, bytes)) = self.remove(t.side, t.seq) {
                out.push(PayloadEntry { side: t.side, seq: t.seq, t: at, bytes: bytes.into() });
            }
        }
        out
    }

    /// Drops every payload whose tuple timestamp is strictly below
    /// `cutoff_us` — call with the same retention horizon the window
    /// uses (`watermark − max window − expiry lag`).
    pub fn prune_before(&mut self, cutoff_us: u64) {
        if cutoff_us == 0 || self.map.is_empty() {
            return;
        }
        for (side, q) in [Side::Left, Side::Right].into_iter().zip(&mut self.order) {
            while let Some(&(t, seq)) = q.front() {
                if t >= cutoff_us {
                    break;
                }
                q.pop_front();
                // A re-insert may have stored the identity under a newer
                // timestamp; that copy has its own, later queue entry.
                if let Entry::Occupied(stored) = self.map.entry((side, seq)) {
                    if stored.get().0 < cutoff_us {
                        self.payload_bytes -= stored.remove().1.len();
                    }
                }
            }
        }
    }

    /// Number of stored payloads.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is stored (the no-payload fast path).
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Total stored payload bytes (for occupancy diagnostics).
    pub fn bytes(&self) -> usize {
        self.payload_bytes
    }

    /// Heap bytes held: the payloads themselves plus the map's and the
    /// queues' tables, by capacity.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.payload_bytes
            + self.map.capacity() * (size_of::<((Side, u64), StoredPayload)>() + 1)
            + self.order.iter().map(VecDeque::capacity).sum::<usize>() * size_of::<(u64, u64)>()
    }

    /// Drains the whole store into transferable entries, sorted by
    /// `(side, seq)` so encoded state transfers are deterministic.
    pub fn into_entries(self) -> Vec<PayloadEntry> {
        let mut out: Vec<PayloadEntry> = self
            .map
            .into_iter()
            .map(|((side, seq), (t, bytes))| PayloadEntry { side, seq, t, bytes: bytes.into() })
            .collect();
        out.sort_unstable_by_key(|e| (e.side, e.seq));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut s = PayloadStore::new();
        assert!(s.is_empty());
        s.insert(Side::Left, 3, 100, vec![1, 2, 3]);
        s.insert(Side::Right, 3, 200, vec![9]);
        assert_eq!(s.get(Side::Left, 3), &[1, 2, 3]);
        assert_eq!(s.get(Side::Right, 3), &[9]);
        assert_eq!(s.get(Side::Left, 4), &[] as &[u8]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.bytes(), 4);
        let (t, b) = s.remove(Side::Left, 3).expect("stored");
        assert_eq!((t, &b[..]), (100, &[1u8, 2, 3][..]));
        assert!(s.remove(Side::Left, 3).is_none());
    }

    #[test]
    fn prune_drops_only_expired() {
        let mut s = PayloadStore::new();
        s.insert(Side::Left, 0, 100, vec![1]);
        s.insert(Side::Left, 1, 200, vec![2]);
        s.prune_before(200);
        assert_eq!(s.get(Side::Left, 0), &[] as &[u8]);
        assert_eq!(s.get(Side::Left, 1), &[2]);
        // cutoff 0 is the "nothing can be expired yet" fast path.
        s.prune_before(0);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn prune_is_exact_after_out_of_order_installs() {
        // A recovery re-install lands entries older than what the store
        // already holds, and re-stamps one identity: pruning must still
        // drop exactly the payloads below the cutoff.
        let mut s = PayloadStore::new();
        s.insert(Side::Left, 10, 500, vec![5]);
        s.insert(Side::Left, 11, 600, vec![6]);
        for (seq, t) in [(2u64, 200u64), (1, 100), (3, 300)] {
            s.insert_entry(PayloadEntry { side: Side::Left, seq, t, bytes: vec![seq as u8] });
        }
        s.insert_entry(PayloadEntry { side: Side::Right, seq: 1, t: 150, bytes: vec![9] });
        s.insert(Side::Left, 1, 550, vec![11]); // identity 1 re-stamped past the cutoff
        s.prune_before(301);
        let mut kept: Vec<(Side, u64)> =
            s.clone().into_entries().iter().map(|e| (e.side, e.seq)).collect();
        kept.sort_unstable();
        assert_eq!(kept, vec![(Side::Left, 1), (Side::Left, 10), (Side::Left, 11)]);
        assert_eq!(s.get(Side::Left, 1), &[11]);
        s.prune_before(551);
        assert_eq!(s.len(), 1, "the re-stamped copy expires on its own timestamp");
        assert_eq!(s.get(Side::Left, 11), &[6]);
    }

    #[test]
    fn removed_identities_do_not_pile_up_in_the_queues() {
        // The master's pattern: every payload leaves through `remove`,
        // nothing is ever pruned.
        let mut s = PayloadStore::new();
        for seq in 0..10_000u64 {
            s.insert(Side::Right, seq, seq, vec![0u8; 4]);
            let queued = s.order[0].len() + s.order[1].len();
            assert!(queued <= 2 * s.len() + STALE_SLACK + 1, "{queued} queued at seq {seq}");
            if seq >= 8 {
                assert!(s.remove(Side::Right, seq - 8).is_some());
            }
        }
        // What is left still prunes by timestamp.
        s.prune_before(9_996);
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn extract_for_moves_payloads_out() {
        let mut s = PayloadStore::new();
        let a = Tuple::new(Side::Left, 10, 7, 0);
        let b = Tuple::new(Side::Right, 20, 7, 0);
        let c = Tuple::new(Side::Left, 30, 8, 1); // no payload stored
        s.insert(a.side, a.seq, a.t, vec![1]);
        s.insert(b.side, b.seq, b.t, vec![2]);
        let entries = s.extract_for([&a, &b, &c]);
        assert_eq!(entries.len(), 2);
        assert!(s.is_empty());
        let mut d = PayloadStore::new();
        for e in entries {
            d.insert_entry(e);
        }
        assert_eq!(d.get(Side::Left, 0), &[1]);
        assert_eq!(d.get(Side::Right, 0), &[2]);
    }
}
