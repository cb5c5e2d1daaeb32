//! Out-of-band tuple payload storage.
//!
//! In-memory [`Tuple`]s stay 32-byte `Copy` values (window state holds
//! millions); a tuple's payload handle is its identity `(side, seq)`,
//! and a [`PayloadStore`] resolves handles to bytes wherever payloads
//! are needed — at the master between ingest and distribution (one
//! store per partition), and at each slave, per owned partition, for
//! residual-predicate evaluation at probe time. Runs without payloads
//! never touch a store.
//!
//! ## What a store is
//!
//! Per stream side, an append-only **arena**: payload bytes are copied
//! once into the newest of a deque of fixed-capacity byte chunks
//! ([`CHUNK_BYTES`]; a longer payload gets a chunk of exactly its own
//! size), and a 32-byte slot record — `seq`, `t`, chunk, offset, length
//! — is pushed on a ring kept in `seq` order. Nothing is allocated,
//! hashed or freed per payload:
//!
//! * [`insert`] is one `memcpy` and one record push;
//! * [`get`] and the takes ([`remove`], [`discard`], [`extract_for`])
//!   are a binary search on `seq` — or a look at the front record,
//!   which is where a FIFO take finds its payload;
//! * [`prune_before`] pops the expired prefix of the ring. A payload is
//!   retained exactly as long as its tuple could still participate in a
//!   join (the same horizon the window blocks use), so payload memory
//!   is window-bounded.
//!
//! ## Chunk release
//!
//! A chunk counts the live payloads it holds and is freed whole the
//! moment that count reaches zero, wherever it sits in the deque — so a
//! payload taken or pruned costs a counter decrement, and memory comes
//! back 64 KiB at a time. Taken payloads leave a dead record behind
//! unless they sit at the ring's front; dead records are popped as the
//! front reaches them and compacted away once they outnumber the live
//! ones, so the ring stays within twice the live count. Ring capacity
//! grows by a quarter when full and is cut back once less than half is
//! in use; a store that empties holds no heap memory at all.
//!
//! ## The arrival-order assumption
//!
//! Within one `(partition, side)` tuples arrive in `seq` order with
//! non-decreasing timestamps, so ring order, `seq` order and expiry
//! order coincide and every operation above touches the ring's ends.
//! Recovery can break that: a checkpoint re-install may land entries
//! older than what the store already holds, or re-stamp an identity.
//! An out-of-order insert is placed at its `seq` position (a sorted
//! record insert, or an in-place replace for a duplicate identity); if
//! it also leaves the timestamps out of order the arena notes it, and
//! pruning scans every record instead of stopping at the first
//! unexpired one until a scan finds the order restored. Pruning is
//! exact either way.
//!
//! [`insert`]: PayloadStore::insert
//! [`get`]: PayloadStore::get
//! [`remove`]: PayloadStore::remove
//! [`discard`]: PayloadStore::discard
//! [`extract_for`]: PayloadStore::extract_for
//! [`prune_before`]: PayloadStore::prune_before

use crate::{Side, Tuple};
use std::collections::VecDeque;
use std::mem::size_of;

/// Capacity of one arena byte chunk: the granularity memory is taken
/// and given back at.
pub const CHUNK_BYTES: usize = 64 * 1024;

/// Slots a record ring grows by at the least, and the headroom a
/// shrink leaves.
const RING_SLACK: usize = 64;

/// Dead records tolerated beyond the live count before a take compacts
/// the ring.
const DEAD_SLACK: usize = 64;

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

/// The record of one stored payload: whose it is and where its bytes
/// sit. A dead slot's payload was taken; it waits for the ring's front
/// to reach it.
#[derive(Debug, Clone, Copy)]
struct Slot {
    seq: u64,
    t: u64,
    /// Number of the holding chunk, counted (wrapping) from the arena's
    /// first allocation.
    chunk: u32,
    off: u32,
    len: u32,
    live: bool,
}

/// A fixed-capacity run of payload bytes, freed as a whole.
#[derive(Debug, Clone)]
struct Chunk {
    bytes: Vec<u8>,
    /// Live slots pointing into `bytes`.
    live: u32,
}

/// One side's slot ring and byte chunks.
#[derive(Debug, Clone, Default)]
struct Arena {
    /// Ascending by `seq`, one slot per identity.
    slots: VecDeque<Slot>,
    /// Oldest allocation first; only the back one is appended to.
    chunks: VecDeque<Chunk>,
    /// Number of the front chunk.
    first_chunk: u32,
    /// Live slots.
    live: usize,
    /// Set when an insert left some slot's timestamp below its
    /// predecessor's: the expired slots are then no longer a prefix.
    t_disordered: bool,
}

impl Arena {
    fn bytes_of(&self, slot: &Slot) -> &[u8] {
        let chunk = &self.chunks[slot.chunk.wrapping_sub(self.first_chunk) as usize];
        &chunk.bytes[slot.off as usize..][..slot.len as usize]
    }

    /// Ring position of the live slot of `seq`.
    fn find(&self, seq: u64) -> Option<usize> {
        // Where `seq` sits if no sequence number between the front's and
        // it is missing: true of the front itself — where a FIFO take
        // finds its payload — and of every slot of a store that saw the
        // whole stream. Elsewhere the guess mostly falls off the ring.
        let guess = seq.wrapping_sub(self.slots.front()?.seq) as usize;
        let at = match self.slots.get(guess) {
            Some(slot) if slot.seq == seq => guess,
            _ => self.slots.binary_search_by_key(&seq, |s| s.seq).ok()?,
        };
        self.slots[at].live.then_some(at)
    }

    /// Copies `bytes` into the back chunk, opening a new one when they
    /// do not fit. Returns the chunk's number and the offset.
    fn append(&mut self, bytes: &[u8]) -> (u32, u32) {
        let fits =
            self.chunks.back().is_some_and(|c| c.bytes.capacity() - c.bytes.len() >= bytes.len());
        if !fits {
            // An empty payload must not cost a chunk of capacity.
            let capacity = if bytes.is_empty() { 0 } else { bytes.len().max(CHUNK_BYTES) };
            self.chunks.push_back(Chunk { bytes: Vec::with_capacity(capacity), live: 0 });
        }
        let number = self.first_chunk.wrapping_add(self.chunks.len() as u32 - 1);
        let chunk = self.chunks.back_mut().expect("a chunk with room");
        let off = chunk.bytes.len() as u32;
        chunk.bytes.extend_from_slice(bytes);
        chunk.live += 1;
        (number, off)
    }

    /// Stores a payload; returns the length of the one it replaced.
    fn insert(&mut self, seq: u64, t: u64, bytes: &[u8]) -> Option<usize> {
        let len = u32::try_from(bytes.len()).expect("a payload is shorter than 4 GiB");
        let (chunk, off) = self.append(bytes);
        let slot = Slot { seq, t, chunk, off, len, live: true };
        // The slot of `seq`, live or dead, or where it goes: at the back,
        // when tuples arrive in order.
        let found = match self.slots.back() {
            Some(back) if back.seq >= seq => self.slots.binary_search_by_key(&seq, |s| s.seq),
            _ => Err(self.slots.len()),
        };
        let (at, replaced) = match found {
            Ok(at) => {
                let replaced = self.slots[at].live.then(|| self.kill(at));
                self.slots[at] = slot;
                (at, replaced)
            }
            Err(at) => {
                if self.slots.len() == self.slots.capacity() {
                    self.slots.reserve_exact((self.slots.len() / 4).max(RING_SLACK));
                }
                self.slots.insert(at, slot);
                (at, None)
            }
        };
        self.live += 1;
        let after_newer = at.checked_sub(1).is_some_and(|prev| self.slots[prev].t > t);
        let before_older = self.slots.get(at + 1).is_some_and(|next| next.t < t);
        self.t_disordered |= after_newer || before_older;
        replaced
    }

    /// Marks the live slot at `at` dead and gives its bytes back — the
    /// chunk is freed when this was the last live payload in it. Returns
    /// the payload's length. Callers [`settle`](Self::settle) the ring
    /// once they are done killing.
    fn kill(&mut self, at: usize) -> usize {
        let slot = &mut self.slots[at];
        debug_assert!(slot.live);
        slot.live = false;
        self.live -= 1;
        let len = slot.len as usize;
        let chunk = &mut self.chunks[slot.chunk.wrapping_sub(self.first_chunk) as usize];
        chunk.live -= 1;
        if chunk.live == 0 {
            chunk.bytes = Vec::new();
            while self.chunks.front().is_some_and(|c| c.live == 0) {
                self.chunks.pop_front();
                self.first_chunk = self.first_chunk.wrapping_add(1);
            }
        }
        len
    }

    /// Drops every payload stamped below `cutoff`; returns the bytes
    /// dropped.
    fn prune_before(&mut self, cutoff: u64) -> usize {
        // In timestamp order the expired slots are a prefix of the ring.
        let scan = match self.t_disordered {
            false => self.slots.partition_point(|s| s.t < cutoff),
            true => self.slots.len(),
        };
        let mut dropped = 0;
        for at in 0..scan {
            if self.slots[at].live && self.slots[at].t < cutoff {
                dropped += self.kill(at);
            }
        }
        self.settle();
        if self.t_disordered {
            self.t_disordered = !self.slots.iter().map(|s| s.t).is_sorted();
        }
        dropped
    }

    /// Restores the ring's bounds after slots died: no dead slot at the
    /// front, dead slots within `live + DEAD_SLACK`, capacity within
    /// twice the content, nothing at all held when empty.
    fn settle(&mut self) {
        while self.slots.front().is_some_and(|s| !s.live) {
            self.slots.pop_front();
        }
        if self.slots.is_empty() {
            *self = Arena::default();
            return;
        }
        if self.slots.len() - self.live > self.live + DEAD_SLACK {
            self.slots.retain(|s| s.live);
        }
        if self.slots.capacity() > 2 * (self.slots.len() + RING_SLACK) {
            self.slots.shrink_to(self.slots.len() + self.slots.len() / 4);
        }
    }

    fn heap_bytes(&self) -> usize {
        self.slots.capacity() * size_of::<Slot>()
            + self.chunks.capacity() * size_of::<Chunk>()
            + self.chunks.iter().map(|c| c.bytes.capacity()).sum::<usize>()
    }

    /// The live payloads as entries of `side`, ascending by `seq`.
    fn entries(&self, side: Side) -> impl Iterator<Item = PayloadEntry> + '_ {
        self.slots.iter().filter(|s| s.live).map(move |s| PayloadEntry {
            side,
            seq: s.seq,
            t: s.t,
            bytes: self.bytes_of(s).to_vec(),
        })
    }
}

/// A `(side, seq) → payload` store with timestamp-bounded retention:
/// one append-only arena per side (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct PayloadStore {
    sides: [Arena; 2],
    /// Sum of the stored payloads' lengths, kept as they come and go.
    payload_bytes: usize,
}

impl PayloadStore {
    /// An empty store; holds no heap memory until the first insert.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores a copy of `bytes` for the tuple identified by `(side,
    /// seq)`, arriving at `t`. A duplicate insert replaces (identities
    /// are unique per run, so this only happens on recovery
    /// re-installs).
    pub fn insert(&mut self, side: Side, seq: u64, t: u64, bytes: impl AsRef<[u8]>) {
        let bytes = bytes.as_ref();
        let replaced = self.sides[side as usize].insert(seq, t, bytes);
        self.payload_bytes += bytes.len();
        self.payload_bytes -= replaced.unwrap_or(0);
    }

    /// Stores a transferred entry.
    pub fn insert_entry(&mut self, e: PayloadEntry) {
        self.insert(e.side, e.seq, e.t, e.bytes);
    }

    /// The payload of `(side, seq)`, or the empty slice when none is
    /// (or is no longer) stored.
    pub fn get(&self, side: Side, seq: u64) -> &[u8] {
        let arena = &self.sides[side as usize];
        arena.find(seq).map_or(&[][..], |at| arena.bytes_of(&arena.slots[at]))
    }

    /// Takes one payload out: hands its timestamp and bytes to `read`,
    /// then releases them.
    fn take_with<R>(
        &mut self,
        side: Side,
        seq: u64,
        read: impl FnOnce(u64, &[u8]) -> R,
    ) -> Option<R> {
        let arena = &mut self.sides[side as usize];
        let at = arena.find(seq)?;
        let slot = arena.slots[at];
        let taken = read(slot.t, arena.bytes_of(&slot));
        self.payload_bytes -= arena.kill(at);
        arena.settle();
        Some(taken)
    }

    /// Removes and returns the payload of one tuple with its timestamp,
    /// as an owned copy. Callers that only need to read the bytes on
    /// their way out — the master, when a tuple leaves for its slave —
    /// [`get`](Self::get) them and then [`discard`](Self::discard).
    pub fn remove(&mut self, side: Side, seq: u64) -> Option<(u64, Box<[u8]>)> {
        self.take_with(side, seq, |t, bytes| (t, Box::from(bytes)))
    }

    /// Drops the payload of one tuple; `false` when none was stored.
    pub fn discard(&mut self, side: Side, seq: u64) -> bool {
        self.take_with(side, seq, |_, _| ()).is_some()
    }

    /// Extracts the payloads of `tuples` as transferable entries
    /// (removing them from this store) — the state-mover path: payloads
    /// travel with their partition-group.
    pub fn extract_for<'a>(
        &mut self,
        tuples: impl IntoIterator<Item = &'a Tuple>,
    ) -> Vec<PayloadEntry> {
        tuples
            .into_iter()
            .filter_map(|tup| {
                self.take_with(tup.side, tup.seq, |t, bytes| PayloadEntry {
                    side: tup.side,
                    seq: tup.seq,
                    t,
                    bytes: bytes.to_vec(),
                })
            })
            .collect()
    }

    /// Drops every payload whose tuple timestamp is strictly below
    /// `cutoff_us` — call with the same retention horizon the window
    /// uses (`watermark − max window − expiry lag`).
    pub fn prune_before(&mut self, cutoff_us: u64) {
        if cutoff_us == 0 {
            return;
        }
        for arena in &mut self.sides {
            self.payload_bytes -= arena.prune_before(cutoff_us);
        }
    }

    /// Number of stored payloads.
    pub fn len(&self) -> usize {
        self.sides.iter().map(|a| a.live).sum()
    }

    /// True when nothing is stored (the no-payload fast path).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total stored payload bytes (for occupancy diagnostics).
    pub fn bytes(&self) -> usize {
        self.payload_bytes
    }

    /// Heap bytes held: the byte chunks and the slot and chunk rings,
    /// by capacity.
    pub fn heap_bytes(&self) -> usize {
        self.sides.iter().map(Arena::heap_bytes).sum()
    }

    /// The stored payloads as transferable entries, sorted by `(side,
    /// seq)` so encoded state transfers are deterministic. Walks the
    /// arenas by reference: the store itself is not copied.
    pub fn entries(&self) -> Vec<PayloadEntry> {
        let mut out = Vec::with_capacity(self.len());
        for (side, arena) in Side::BOTH.into_iter().zip(&self.sides) {
            out.extend(arena.entries(side));
        }
        out
    }

    /// Drains the whole store into [`entries`](Self::entries).
    pub fn into_entries(self) -> Vec<PayloadEntry> {
        self.entries()
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
        // Every payload leaves through `remove`, nothing is ever pruned:
        // dead slots stay within the live ones plus a constant.
        let mut s = PayloadStore::new();
        for seq in 0..10_000u64 {
            s.insert(Side::Right, seq, seq, vec![0u8; 4]);
            let slots: usize = s.sides.iter().map(|a| a.slots.len()).sum();
            assert!(slots <= 2 * s.len() + DEAD_SLACK + 1, "{slots} slots at seq {seq}");
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
