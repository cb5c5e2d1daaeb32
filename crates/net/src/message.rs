//! Protocol messages between master, slaves and the collector, with a
//! binary codec so the threaded runtime exchanges machine-independent
//! bytes end to end (§IV-B), not Rust objects.

use crate::wire::{
    decode_batch, decode_batch_into, decode_batch_payload_into, decode_batch_payload_view,
    encode_batch_into, encode_batch_payload_from, put_records, put_u64_at, take, take_records,
    u64_at, PayloadColumn, Tagging, WireError,
};
use bytes::{Buf, BufMut, Bytes};
use windjoin_core::group::BucketState;
use windjoin_core::{Decision, GroupState, MovePlan, OutPair, PayloadEntry, Rehome, Side, Tuple};

/// Everything that travels between nodes.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Master → slave: the epoch's merged tuple batch (§IV-B).
    Batch(Vec<Tuple>),
    /// Master → slave: a payload-carrying batch — `payloads[i]` belongs
    /// to `tuples[i]`, every payload exactly `width` bytes on the wire.
    PayloadBatch {
        /// The merged batch.
        tuples: Vec<Tuple>,
        /// Aligned payload column.
        payloads: Vec<Vec<u8>>,
        /// Fixed per-tuple payload width, bytes.
        width: u32,
    },
    /// Slave → master: average buffer occupancy over the closing
    /// reorganization epoch (§IV-C).
    Occupancy(f64),
    /// Master → supplier slave: move partition `pid` to slave `to`.
    MoveDirective {
        /// Partition-group to extract.
        pid: u32,
        /// Destination slave rank.
        to: u32,
    },
    /// Supplier → consumer: the extracted partition-group state plus the
    /// supplier-side pending tuples (§IV-C state mover).
    State {
        /// Partition-group id.
        pid: u32,
        /// Window state with splitting information.
        state: GroupState,
        /// Pending buffered tuples travelling with the state.
        pending: Vec<Tuple>,
        /// Payload entries of the moved tuples (empty on payload-free
        /// runs — the frame then encodes byte-identically to the
        /// pre-payload format).
        payloads: Vec<PayloadEntry>,
    },
    /// Consumer → master: the move of `pid` finished; release its tuples.
    MoveComplete {
        /// Partition-group id.
        pid: u32,
    },
    /// Slave → collector: join results (with the emitting slave's rank).
    Outputs(Vec<OutPair>),
    /// Master → everyone: the run is over.
    Shutdown,
    /// Slave → master: periodic liveness beacon. A master that misses
    /// `max_missed` consecutive beacons declares the slave dead and
    /// re-homes its partition-groups (elastic membership).
    Heartbeat {
        /// Monotonic per-sender beacon counter (diagnostics).
        seq: u64,
    },
    /// Master → slave: leave the cluster — flush, announce `Goodbye`
    /// and exit. The planned-departure counterpart of a crash.
    Leave,
    /// Any rank → master/collector: clean departure announcement, so
    /// peers distinguish an intentional leave from a failure.
    Goodbye,
    /// Master → collector: `slave` was declared dead (transport teardown
    /// or missed heartbeats); stop waiting for its flush marker. Covers
    /// the wedged-but-connected case no transport event ever reports.
    Dead {
        /// The dead slave's index (rank `slave + 1`).
        slave: u32,
    },
    /// A term-stamped envelope around any other frame. Multi-master
    /// runs seal every leader → slave/collector frame so receivers can
    /// discard stale-leader traffic after a failover; single-master runs
    /// send raw frames (byte-compatible with the legacy protocol).
    Sealed {
        /// The sender's leader term.
        term: u64,
        /// The wrapped frame (never itself a `Sealed`).
        inner: Box<Message>,
    },
    /// Leader → standby masters: replicate one control-log entry.
    AppendEntry {
        /// The appending leader's term.
        term: u64,
        /// Zero-based log index of the entry.
        index: u64,
        /// The replicated decision.
        decision: Decision,
    },
    /// Standby master → leader: the entry at `index` is mirrored.
    AppendAck {
        /// The acking master's current term.
        term: u64,
        /// The acked log index.
        index: u64,
    },
    /// Candidate master → other masters: request a vote.
    VoteRequest {
        /// The candidate's (new) term.
        term: u64,
        /// The candidate's log length — voters refuse shorter logs.
        last_index: u64,
    },
    /// Master → candidate: vote reply.
    Vote {
        /// The voter's term after considering the request.
        term: u64,
        /// Whether the vote was granted.
        granted: bool,
    },
    /// Leader → everyone: leader liveness beacon. Standbys reset their
    /// election timers; slaves and the collector learn the leader rank
    /// from the transport envelope and the term from the frame.
    MasterHeartbeat {
        /// The leader's term.
        term: u64,
        /// The leader's commit index (diagnostics / future catch-up).
        commit: u64,
    },
    /// Owner slave → buddy slave: a periodic partition checkpoint (the
    /// `State` transfer encoding plus delivery watermarks).
    Checkpoint {
        /// Partition-group id.
        pid: u32,
        /// Exclusive left-side delivery watermark of the snapshot.
        seen_left: u64,
        /// Exclusive right-side delivery watermark.
        seen_right: u64,
        /// Window state.
        state: GroupState,
        /// Buffered-but-unprocessed tuples at snapshot time.
        pending: Vec<Tuple>,
        /// Payload entries at snapshot time.
        payloads: Vec<PayloadEntry>,
    },
    /// Buddy slave → every master: a checkpoint of `pid` is shelved
    /// here, complete through the given watermarks. Sent by the *buddy*
    /// after storing, so the registry can never lead the shelf.
    CkptNote {
        /// Partition-group id.
        pid: u32,
        /// Exclusive left-side watermark of the shelved snapshot.
        seen_left: u64,
        /// Exclusive right-side watermark.
        seen_right: u64,
    },
    /// Master → new owner: take ownership of `pid`, re-homed after a
    /// slave death, and ack with `MoveComplete`. The one recovery
    /// install: the shelved checkpoint when `checkpoint` says the master
    /// registered one, an empty group otherwise — and a partition the
    /// receiver already owns is only re-acked, never wiped.
    Restore {
        /// Partition-group id.
        pid: u32,
        /// Install the shelved checkpoint of `pid`.
        checkpoint: bool,
    },
    /// Supplier slave → consumer slave, alongside a `State` install:
    /// the delivery guards of the moved partition, so dedupe suppression
    /// survives ownership changes.
    Seen {
        /// Partition-group id.
        pid: u32,
        /// Next-expected left-side sequence.
        left: u64,
        /// Next-expected right-side sequence.
        right: u64,
    },
}

const K_BATCH: u8 = 1;
const K_OCC: u8 = 2;
const K_MOVE: u8 = 3;
const K_STATE: u8 = 4;
const K_DONE: u8 = 5;
const K_OUT: u8 = 6;
const K_SHUT: u8 = 7;
const K_HEARTBEAT: u8 = 8;
const K_LEAVE: u8 = 9;
const K_GOODBYE: u8 = 10;
const K_DEAD: u8 = 11;
const K_PBATCH: u8 = 12;
/// A `State` frame with a trailing payload-entry section.
const K_STATE_P: u8 = 13;
const K_SEALED: u8 = 14;
const K_APPEND: u8 = 15;
const K_APPEND_ACK: u8 = 16;
const K_VOTE_REQ: u8 = 17;
const K_VOTE: u8 = 18;
const K_MHEART: u8 = 19;
const K_CKPT: u8 = 20;
const K_CKPT_NOTE: u8 = 21;
const K_RESTORE: u8 = 22;
const K_SEEN: u8 = 23;

/// `Decision` subtags inside a `K_APPEND` frame.
const D_SLAVE_DOWN: u8 = 0;
const D_READMIT: u8 = 1;
const D_REORG: u8 = 2;

/// Writes one `[len: u32 LE][body]` tuple block: reserves the length
/// slot, has `body` encode in place, patches the length — no
/// intermediate batch buffer.
fn put_tuple_block(buf: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    let slot = buf.len();
    buf.put_u32_le(0);
    let body_start = buf.len();
    body(buf);
    let body_len = (buf.len() - body_start) as u32;
    buf[slot..slot + 4].copy_from_slice(&body_len.to_le_bytes());
}

fn put_tuples(buf: &mut Vec<u8>, tuples: &[Tuple]) {
    put_tuple_block(buf, |buf| encode_batch_into(tuples, Tagging::StreamTag, buf));
}

/// A whole [`Message::PayloadBatch`] frame, one borrowed payload per
/// tuple.
fn put_payload_batch<'p>(
    buf: &mut Vec<u8>,
    tuples: &[Tuple],
    payloads: impl ExactSizeIterator<Item = &'p [u8]>,
    width: usize,
) {
    buf.put_u8(K_PBATCH);
    put_tuple_block(buf, |buf| encode_batch_payload_from(tuples, payloads, width, buf));
}

/// Splits off one `[len: u32 LE][body]` tuple block, validating the
/// length prefix against the bytes actually present.
fn take_tuple_block(buf: &mut Bytes) -> Result<Bytes, WireError> {
    if buf.remaining() < 4 {
        return Err(WireError::Truncated);
    }
    let len = buf.get_u32_le() as usize;
    if buf.remaining() < len {
        return Err(WireError::Truncated);
    }
    Ok(buf.split_to(len))
}

/// Consumes the frame's kind byte if it is `kind` (the fast-path
/// decoders' "is this frame mine?" test).
fn eat_kind(buf: &mut Bytes, kind: u8) -> Result<bool, WireError> {
    let is_kind = *buf.first().ok_or(WireError::Truncated)? == kind;
    if is_kind {
        buf.advance(1);
    }
    Ok(is_kind)
}

fn get_tuples(buf: &mut Bytes) -> Result<Vec<Tuple>, WireError> {
    decode_batch(take_tuple_block(buf)?)
}

/// Wire size of one result pair: key, then `(t, seq)` of each side.
const PAIR_WIRE_BYTES: usize = 40;

/// A whole [`Message::Outputs`] frame.
fn put_outputs(buf: &mut Vec<u8>, pairs: &[OutPair]) {
    buf.put_u8(K_OUT);
    buf.put_u32_le(pairs.len() as u32);
    put_records(buf, PAIR_WIRE_BYTES, pairs.iter(), |rec, p| {
        put_u64_at(rec, 0, p.key);
        put_u64_at(rec, 8, p.left.0);
        put_u64_at(rec, 16, p.left.1);
        put_u64_at(rec, 24, p.right.0);
        put_u64_at(rec, 32, p.right.1);
    });
}

/// The body of a [`Message::Outputs`] frame (after its kind byte),
/// appended to `out`.
fn get_outputs(buf: &mut Bytes, out: &mut Vec<OutPair>) -> Result<(), WireError> {
    if buf.remaining() < 4 {
        return Err(WireError::Truncated);
    }
    let n = buf.get_u32_le() as usize;
    let mut rest: &[u8] = buf;
    let records = take_records(&mut rest, n, PAIR_WIRE_BYTES)?;
    out.extend(records.map(|rec| OutPair {
        key: u64_at(rec, 0),
        left: (u64_at(rec, 8), u64_at(rec, 16)),
        right: (u64_at(rec, 24), u64_at(rec, 32)),
    }));
    Ok(())
}

fn put_payload_entries(buf: &mut Vec<u8>, entries: &[PayloadEntry]) {
    buf.put_u32_le(entries.len() as u32);
    for e in entries {
        buf.put_u8(e.side.index() as u8);
        buf.put_u64_le(e.seq);
        buf.put_u64_le(e.t);
        buf.put_u32_le(e.bytes.len() as u32);
        buf.put_slice(&e.bytes);
    }
}

fn get_payload_entries(buf: &mut Bytes) -> Result<Vec<PayloadEntry>, WireError> {
    if buf.remaining() < 4 {
        return Err(WireError::Truncated);
    }
    let n = buf.get_u32_le() as usize;
    // Untrusted count: each entry needs >= 21 bytes.
    let mut entries = Vec::with_capacity(n.min(buf.remaining() / 21));
    for _ in 0..n {
        if buf.remaining() < 21 {
            return Err(WireError::Truncated);
        }
        let side = match buf.get_u8() {
            0 => Side::Left,
            1 => Side::Right,
            other => return Err(WireError::BadSide(other)),
        };
        let seq = buf.get_u64_le();
        let t = buf.get_u64_le();
        let len = buf.get_u32_le() as usize;
        if buf.remaining() < len {
            return Err(WireError::Truncated);
        }
        let mut bytes = vec![0u8; len];
        buf.copy_to_slice(&mut bytes);
        entries.push(PayloadEntry { side, seq, t, bytes });
    }
    Ok(entries)
}

/// Window state + pending tuples, the shared body of `State` and
/// `Checkpoint` frames.
fn put_group(buf: &mut Vec<u8>, state: &GroupState, pending: &[Tuple]) {
    buf.put_u32_le(state.buckets.len() as u32);
    for b in &state.buckets {
        buf.put_u64_le(b.pattern);
        buf.put_u8(b.depth);
        // Left/right tuples as tagged batches; the sides are known but
        // tagging keeps one decoder path.
        put_tuples(buf, &b.left);
        put_tuples(buf, &b.right);
    }
    put_tuples(buf, pending);
}

fn get_group(buf: &mut Bytes) -> Result<(GroupState, Vec<Tuple>), WireError> {
    if buf.remaining() < 4 {
        return Err(WireError::Truncated);
    }
    let nbuckets = buf.get_u32_le() as usize;
    // Untrusted count: cap the pre-allocation by the bytes actually
    // present (each bucket needs ≥ 9 bytes).
    let mut buckets = Vec::with_capacity(nbuckets.min(buf.remaining() / 9));
    for _ in 0..nbuckets {
        if buf.remaining() < 9 {
            return Err(WireError::Truncated);
        }
        let pattern = buf.get_u64_le();
        let depth = buf.get_u8();
        let left = get_tuples(buf)?;
        let right = get_tuples(buf)?;
        debug_assert!(left.iter().all(|t| t.side == Side::Left));
        debug_assert!(right.iter().all(|t| t.side == Side::Right));
        buckets.push(BucketState { pattern, depth, left, right });
    }
    let pending = get_tuples(buf)?;
    Ok((GroupState { buckets }, pending))
}

fn put_move_plans(buf: &mut Vec<u8>, moves: &[MovePlan]) {
    buf.put_u32_le(moves.len() as u32);
    for m in moves {
        buf.put_u32_le(m.pid);
        buf.put_u32_le(m.from as u32);
        buf.put_u32_le(m.to as u32);
    }
}

fn get_move_plans(buf: &mut Bytes) -> Result<Vec<MovePlan>, WireError> {
    if buf.remaining() < 4 {
        return Err(WireError::Truncated);
    }
    let n = buf.get_u32_le() as usize;
    // Untrusted count: each plan occupies 12 bytes.
    let mut moves = Vec::with_capacity(n.min(buf.remaining() / 12));
    for _ in 0..n {
        if buf.remaining() < 12 {
            return Err(WireError::Truncated);
        }
        moves.push(MovePlan {
            pid: buf.get_u32_le(),
            from: buf.get_u32_le() as usize,
            to: buf.get_u32_le() as usize,
        });
    }
    Ok(moves)
}

fn put_opt_rank(buf: &mut Vec<u8>, r: Option<usize>) {
    match r {
        Some(r) => {
            buf.put_u8(1);
            buf.put_u32_le(r as u32);
        }
        None => buf.put_u8(0),
    }
}

fn get_opt_rank(buf: &mut Bytes) -> Result<Option<usize>, WireError> {
    if buf.remaining() < 1 {
        return Err(WireError::Truncated);
    }
    match buf.get_u8() {
        0 => Ok(None),
        _ => {
            if buf.remaining() < 4 {
                return Err(WireError::Truncated);
            }
            Ok(Some(buf.get_u32_le() as usize))
        }
    }
}

fn put_rehomes(buf: &mut Vec<u8>, rehomes: &[Rehome]) {
    buf.put_u32_le(rehomes.len() as u32);
    for r in rehomes {
        buf.put_u32_le(r.pid);
        buf.put_u32_le(r.to as u32);
        match r.checkpoint {
            Some((seen_left, seen_right)) => {
                buf.put_u8(1);
                buf.put_u64_le(seen_left);
                buf.put_u64_le(seen_right);
            }
            None => buf.put_u8(0),
        }
    }
}

fn get_rehomes(buf: &mut Bytes) -> Result<Vec<Rehome>, WireError> {
    if buf.remaining() < 4 {
        return Err(WireError::Truncated);
    }
    let n = buf.get_u32_le() as usize;
    // Untrusted count: each re-home occupies at least 9 bytes.
    let mut rehomes = Vec::with_capacity(n.min(buf.remaining() / 9));
    for _ in 0..n {
        if buf.remaining() < 9 {
            return Err(WireError::Truncated);
        }
        let (pid, to) = (buf.get_u32_le(), buf.get_u32_le() as usize);
        let checkpoint = match buf.get_u8() {
            0 => None,
            _ if buf.remaining() < 16 => return Err(WireError::Truncated),
            _ => Some((buf.get_u64_le(), buf.get_u64_le())),
        };
        rehomes.push(Rehome { pid, to, checkpoint });
    }
    Ok(rehomes)
}

fn put_decision(buf: &mut Vec<u8>, d: &Decision) {
    match d {
        Decision::SlaveDown { slave, rehomes, groups_lost, tuples_lost } => {
            buf.put_u8(D_SLAVE_DOWN);
            buf.put_u32_le(*slave as u32);
            put_rehomes(buf, rehomes);
            buf.put_u64_le(*groups_lost);
            buf.put_u64_le(*tuples_lost);
        }
        Decision::Readmit { slave } => {
            buf.put_u8(D_READMIT);
            buf.put_u32_le(*slave as u32);
        }
        Decision::Reorg { moves, rehomes, activated, deactivated } => {
            buf.put_u8(D_REORG);
            put_move_plans(buf, moves);
            put_rehomes(buf, rehomes);
            put_opt_rank(buf, *activated);
            put_opt_rank(buf, *deactivated);
        }
    }
}

fn get_decision(buf: &mut Bytes) -> Result<Decision, WireError> {
    if buf.remaining() < 1 {
        return Err(WireError::Truncated);
    }
    match buf.get_u8() {
        D_SLAVE_DOWN => {
            if buf.remaining() < 4 {
                return Err(WireError::Truncated);
            }
            let slave = buf.get_u32_le() as usize;
            let rehomes = get_rehomes(buf)?;
            if buf.remaining() < 16 {
                return Err(WireError::Truncated);
            }
            Ok(Decision::SlaveDown {
                slave,
                rehomes,
                groups_lost: buf.get_u64_le(),
                tuples_lost: buf.get_u64_le(),
            })
        }
        D_READMIT => {
            if buf.remaining() < 4 {
                return Err(WireError::Truncated);
            }
            Ok(Decision::Readmit { slave: buf.get_u32_le() as usize })
        }
        D_REORG => {
            let moves = get_move_plans(buf)?;
            let rehomes = get_rehomes(buf)?;
            let activated = get_opt_rank(buf)?;
            let deactivated = get_opt_rank(buf)?;
            Ok(Decision::Reorg { moves, rehomes, activated, deactivated })
        }
        other => Err(WireError::BadTagScheme(other)),
    }
}

impl Message {
    /// Encodes to a self-describing byte frame.
    pub fn encode(&self) -> Bytes {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        Bytes::from(buf)
    }

    /// Encodes into a caller-owned scratch vector (cleared first), so
    /// hot loops reuse one encode buffer across messages. Combine with
    /// `TransportEndpoint::send_slice` for an allocation-free send path.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.clear();
        self.encode_append(buf);
    }

    /// The appending encoder behind [`encode_into`](Self::encode_into)
    /// — also how a [`Message::Sealed`] writes its inner frame in place.
    fn encode_append(&self, buf: &mut Vec<u8>) {
        match self {
            Message::Batch(tuples) => {
                buf.put_u8(K_BATCH);
                put_tuples(buf, tuples);
            }
            Message::PayloadBatch { tuples, payloads, width } => {
                put_payload_batch(buf, tuples, payloads.iter().map(Vec::as_slice), *width as usize)
            }
            Message::Occupancy(f) => {
                buf.put_u8(K_OCC);
                buf.put_f64_le(*f);
            }
            Message::MoveDirective { pid, to } => {
                buf.put_u8(K_MOVE);
                buf.put_u32_le(*pid);
                buf.put_u32_le(*to);
            }
            Message::State { pid, state, pending, payloads } => {
                // Payload-free transfers keep the pre-payload frame
                // byte-for-byte; payload-carrying ones append an entry
                // section under a distinct kind byte.
                buf.put_u8(if payloads.is_empty() { K_STATE } else { K_STATE_P });
                buf.put_u32_le(*pid);
                put_group(buf, state, pending);
                if !payloads.is_empty() {
                    put_payload_entries(buf, payloads);
                }
            }
            Message::MoveComplete { pid } => {
                buf.put_u8(K_DONE);
                buf.put_u32_le(*pid);
            }
            Message::Outputs(pairs) => put_outputs(buf, pairs),
            Message::Shutdown => {
                buf.put_u8(K_SHUT);
            }
            Message::Heartbeat { seq } => {
                buf.put_u8(K_HEARTBEAT);
                buf.put_u64_le(*seq);
            }
            Message::Leave => {
                buf.put_u8(K_LEAVE);
            }
            Message::Goodbye => {
                buf.put_u8(K_GOODBYE);
            }
            Message::Dead { slave } => {
                buf.put_u8(K_DEAD);
                buf.put_u32_le(*slave);
            }
            Message::Sealed { term, inner } => {
                assert!(!matches!(**inner, Message::Sealed { .. }), "a Sealed frame must not nest");
                buf.put_u8(K_SEALED);
                buf.put_u64_le(*term);
                inner.encode_append(buf);
            }
            Message::AppendEntry { term, index, decision } => {
                buf.put_u8(K_APPEND);
                buf.put_u64_le(*term);
                buf.put_u64_le(*index);
                put_decision(buf, decision);
            }
            Message::AppendAck { term, index } => {
                buf.put_u8(K_APPEND_ACK);
                buf.put_u64_le(*term);
                buf.put_u64_le(*index);
            }
            Message::VoteRequest { term, last_index } => {
                buf.put_u8(K_VOTE_REQ);
                buf.put_u64_le(*term);
                buf.put_u64_le(*last_index);
            }
            Message::Vote { term, granted } => {
                buf.put_u8(K_VOTE);
                buf.put_u64_le(*term);
                buf.put_u8(*granted as u8);
            }
            Message::MasterHeartbeat { term, commit } => {
                buf.put_u8(K_MHEART);
                buf.put_u64_le(*term);
                buf.put_u64_le(*commit);
            }
            Message::Checkpoint { pid, seen_left, seen_right, state, pending, payloads } => {
                buf.put_u8(K_CKPT);
                buf.put_u32_le(*pid);
                buf.put_u64_le(*seen_left);
                buf.put_u64_le(*seen_right);
                put_group(buf, state, pending);
                put_payload_entries(buf, payloads);
            }
            Message::CkptNote { pid, seen_left, seen_right } => {
                buf.put_u8(K_CKPT_NOTE);
                buf.put_u32_le(*pid);
                buf.put_u64_le(*seen_left);
                buf.put_u64_le(*seen_right);
            }
            Message::Restore { pid, checkpoint } => {
                buf.put_u8(K_RESTORE);
                buf.put_u32_le(*pid);
                buf.put_u8(*checkpoint as u8);
            }
            Message::Seen { pid, left, right } => {
                buf.put_u8(K_SEEN);
                buf.put_u32_le(*pid);
                buf.put_u64_le(*left);
                buf.put_u64_le(*right);
            }
        }
    }

    /// Encodes a [`Message::Batch`] frame straight from a tuple slice
    /// (no `Message` construction, no buffer allocation).
    pub fn encode_batch_into(tuples: &[Tuple], buf: &mut Vec<u8>) {
        buf.clear();
        buf.put_u8(K_BATCH);
        put_tuples(buf, tuples);
    }

    /// Encodes a [`Message::PayloadBatch`] frame straight from a tuple
    /// slice and one borrowed payload per tuple (no `Message`
    /// construction, no buffer allocation, no owned payload column) —
    /// the payload-carrying counterpart of
    /// [`Message::encode_batch_into`]. Each payload is truncated or
    /// zero-padded to `width`.
    ///
    /// # Panics
    ///
    /// Panics if `payloads` does not yield exactly one slice per tuple.
    pub fn encode_payload_batch_from<'p>(
        tuples: &[Tuple],
        payloads: impl ExactSizeIterator<Item = &'p [u8]>,
        width: usize,
        buf: &mut Vec<u8>,
    ) {
        buf.clear();
        put_payload_batch(buf, tuples, payloads, width);
    }

    /// [`encode_payload_batch_from`](Self::encode_payload_batch_from)
    /// for an owned payload column: `payloads[i]` belongs to
    /// `tuples[i]`.
    pub fn encode_payload_batch_into(
        tuples: &[Tuple],
        payloads: &[Vec<u8>],
        width: usize,
        buf: &mut Vec<u8>,
    ) {
        Self::encode_payload_batch_from(tuples, payloads.iter().map(Vec::as_slice), width, buf);
    }

    /// Fast-path decode of a [`Message::PayloadBatch`] frame: the tuples
    /// go into the reused vector (cleared first), the payloads stay in
    /// `frame` and come back as a view of it. `Ok(None)` — leaving
    /// `out` untouched — when the frame is some other kind, a plain
    /// [`Message::Batch`] included.
    pub fn decode_payload_batch_view<'a>(
        frame: &'a [u8],
        out: &mut Vec<Tuple>,
    ) -> Result<Option<PayloadColumn<'a>>, WireError> {
        let (&kind, mut rest) = frame.split_first().ok_or(WireError::Truncated)?;
        if kind != K_PBATCH {
            return Ok(None);
        }
        let len = u32::from_le_bytes(take(&mut rest, 4)?.try_into().expect("4 bytes"));
        let body = take(&mut rest, len as usize)?;
        out.clear();
        decode_batch_payload_view(body, out).map(Some)
    }

    /// [`decode_payload_batch_view`](Self::decode_payload_batch_view)
    /// with every payload copied out into a reused vector (cleared
    /// first). `Ok(false)` when the frame is neither batch kind; a
    /// plain [`Message::Batch`] decodes with empty payloads, so a mixed
    /// stream still drains through one call site.
    pub fn decode_payload_batch_into(
        buf: Bytes,
        out: &mut Vec<Tuple>,
        payloads: &mut Vec<Vec<u8>>,
    ) -> Result<bool, WireError> {
        if let Some(column) = Self::decode_payload_batch_view(&buf, out)? {
            payloads.clear();
            payloads.extend(column.iter().map(<[u8]>::to_vec));
            return Ok(true);
        }
        let is_batch = Self::decode_batch_into(buf, out)?;
        if is_batch {
            payloads.clear();
            payloads.resize(out.len(), Vec::new());
        }
        Ok(is_batch)
    }

    /// Encodes a [`Message::Outputs`] frame straight from a pair slice
    /// (no `Message` construction, no buffer allocation).
    pub fn encode_outputs_into(pairs: &[OutPair], buf: &mut Vec<u8>) {
        buf.clear();
        put_outputs(buf, pairs);
    }

    /// Fast-path decode of a [`Message::Outputs`] frame into a reused
    /// pair vector (cleared first). Returns `Ok(false)` — leaving `out`
    /// untouched — when the frame is some other message kind; the caller
    /// then falls back to [`Message::decode`].
    pub fn decode_outputs_into(mut buf: Bytes, out: &mut Vec<OutPair>) -> Result<bool, WireError> {
        if !eat_kind(&mut buf, K_OUT)? {
            return Ok(false);
        }
        out.clear();
        get_outputs(&mut buf, out)?;
        Ok(true)
    }

    /// Fast-path decode of a [`Message::Batch`] frame into a reused
    /// tuple vector (cleared first). Returns `Ok(false)` — leaving `out`
    /// untouched — when the frame is some other message kind; the caller
    /// then falls back to [`Message::decode`].
    pub fn decode_batch_into(mut buf: Bytes, out: &mut Vec<Tuple>) -> Result<bool, WireError> {
        if !eat_kind(&mut buf, K_BATCH)? {
            return Ok(false);
        }
        let body = take_tuple_block(&mut buf)?;
        out.clear();
        decode_batch_into(body, out)?;
        Ok(true)
    }

    /// Decodes a frame produced by [`Message::encode`].
    pub fn decode(mut buf: Bytes) -> Result<Message, WireError> {
        if buf.remaining() < 1 {
            return Err(WireError::Truncated);
        }
        match buf.get_u8() {
            K_BATCH => Ok(Message::Batch(get_tuples(&mut buf)?)),
            K_PBATCH => {
                let body = take_tuple_block(&mut buf)?;
                let (mut tuples, mut payloads) = (Vec::new(), Vec::new());
                let width = decode_batch_payload_into(body, &mut tuples, &mut payloads)?;
                Ok(Message::PayloadBatch { tuples, payloads, width: width as u32 })
            }
            K_OCC => {
                if buf.remaining() < 8 {
                    return Err(WireError::Truncated);
                }
                Ok(Message::Occupancy(buf.get_f64_le()))
            }
            K_MOVE => {
                if buf.remaining() < 8 {
                    return Err(WireError::Truncated);
                }
                Ok(Message::MoveDirective { pid: buf.get_u32_le(), to: buf.get_u32_le() })
            }
            kind @ (K_STATE | K_STATE_P) => {
                if buf.remaining() < 4 {
                    return Err(WireError::Truncated);
                }
                let pid = buf.get_u32_le();
                let (state, pending) = get_group(&mut buf)?;
                let payloads =
                    if kind == K_STATE_P { get_payload_entries(&mut buf)? } else { Vec::new() };
                Ok(Message::State { pid, state, pending, payloads })
            }
            K_DONE => {
                if buf.remaining() < 4 {
                    return Err(WireError::Truncated);
                }
                Ok(Message::MoveComplete { pid: buf.get_u32_le() })
            }
            K_OUT => {
                let mut pairs = Vec::new();
                get_outputs(&mut buf, &mut pairs)?;
                Ok(Message::Outputs(pairs))
            }
            K_SHUT => Ok(Message::Shutdown),
            K_HEARTBEAT => {
                if buf.remaining() < 8 {
                    return Err(WireError::Truncated);
                }
                Ok(Message::Heartbeat { seq: buf.get_u64_le() })
            }
            K_LEAVE => Ok(Message::Leave),
            K_GOODBYE => Ok(Message::Goodbye),
            K_DEAD => {
                if buf.remaining() < 4 {
                    return Err(WireError::Truncated);
                }
                Ok(Message::Dead { slave: buf.get_u32_le() })
            }
            K_SEALED => {
                if buf.remaining() < 8 {
                    return Err(WireError::Truncated);
                }
                let term = buf.get_u64_le();
                let inner = Message::decode(buf)?;
                if matches!(inner, Message::Sealed { .. }) {
                    // A nested envelope is a protocol violation.
                    return Err(WireError::BadTagScheme(K_SEALED));
                }
                Ok(Message::Sealed { term, inner: Box::new(inner) })
            }
            K_APPEND => {
                if buf.remaining() < 16 {
                    return Err(WireError::Truncated);
                }
                let term = buf.get_u64_le();
                let index = buf.get_u64_le();
                Ok(Message::AppendEntry { term, index, decision: get_decision(&mut buf)? })
            }
            K_APPEND_ACK => {
                if buf.remaining() < 16 {
                    return Err(WireError::Truncated);
                }
                Ok(Message::AppendAck { term: buf.get_u64_le(), index: buf.get_u64_le() })
            }
            K_VOTE_REQ => {
                if buf.remaining() < 16 {
                    return Err(WireError::Truncated);
                }
                Ok(Message::VoteRequest { term: buf.get_u64_le(), last_index: buf.get_u64_le() })
            }
            K_VOTE => {
                if buf.remaining() < 9 {
                    return Err(WireError::Truncated);
                }
                Ok(Message::Vote { term: buf.get_u64_le(), granted: buf.get_u8() != 0 })
            }
            K_MHEART => {
                if buf.remaining() < 16 {
                    return Err(WireError::Truncated);
                }
                Ok(Message::MasterHeartbeat { term: buf.get_u64_le(), commit: buf.get_u64_le() })
            }
            K_CKPT => {
                if buf.remaining() < 20 {
                    return Err(WireError::Truncated);
                }
                let pid = buf.get_u32_le();
                let seen_left = buf.get_u64_le();
                let seen_right = buf.get_u64_le();
                let (state, pending) = get_group(&mut buf)?;
                let payloads = get_payload_entries(&mut buf)?;
                Ok(Message::Checkpoint { pid, seen_left, seen_right, state, pending, payloads })
            }
            K_CKPT_NOTE => {
                if buf.remaining() < 20 {
                    return Err(WireError::Truncated);
                }
                Ok(Message::CkptNote {
                    pid: buf.get_u32_le(),
                    seen_left: buf.get_u64_le(),
                    seen_right: buf.get_u64_le(),
                })
            }
            K_RESTORE => {
                if buf.remaining() < 5 {
                    return Err(WireError::Truncated);
                }
                Ok(Message::Restore { pid: buf.get_u32_le(), checkpoint: buf.get_u8() != 0 })
            }
            K_SEEN => {
                if buf.remaining() < 20 {
                    return Err(WireError::Truncated);
                }
                Ok(Message::Seen {
                    pid: buf.get_u32_le(),
                    left: buf.get_u64_le(),
                    right: buf.get_u64_le(),
                })
            }
            other => Err(WireError::BadTagScheme(other)),
        }
    }

    /// Wraps an already-encoded frame in a term-stamped [`Sealed`]
    /// envelope, allocation-free: `inner` is the output of any
    /// `encode*_into` call, `buf` the (cleared) destination.
    ///
    /// [`Sealed`]: Message::Sealed
    pub fn seal_into(term: u64, inner: &[u8], buf: &mut Vec<u8>) {
        debug_assert!(inner.first() != Some(&K_SEALED), "a Sealed frame must not nest");
        buf.clear();
        buf.reserve(9 + inner.len());
        buf.put_u8(K_SEALED);
        buf.put_u64_le(term);
        buf.put_slice(inner);
    }

    /// The zero-copy counterpart of decoding a [`Sealed`] frame: when
    /// `buf` is one, returns its term and the inner frame's bytes (a
    /// slice of the same allocation) without decoding the inner frame —
    /// the batch fast path unseals, checks the term, then runs
    /// [`decode_batch_into`](Self::decode_batch_into) on the rest.
    /// `None` when the frame is not sealed (a legacy single-master
    /// frame); the caller decodes `buf` directly.
    ///
    /// [`Sealed`]: Message::Sealed
    pub fn unseal(buf: &Bytes) -> Option<(u64, Bytes)> {
        if buf.len() < 9 || buf[0] != K_SEALED {
            return None;
        }
        let term = u64::from_le_bytes(buf[1..9].try_into().expect("9 bytes checked"));
        Some((term, buf.slice(9..)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::reference;
    use proptest::prelude::*;

    /// The per-field pair codec the record codec replaced: the
    /// reference the property tests compare `Outputs` frames against.
    fn put_pair(buf: &mut Vec<u8>, p: &OutPair) {
        buf.put_u64_le(p.key);
        buf.put_u64_le(p.left.0);
        buf.put_u64_le(p.left.1);
        buf.put_u64_le(p.right.0);
        buf.put_u64_le(p.right.1);
    }

    fn get_pair(buf: &mut Bytes) -> Result<OutPair, WireError> {
        if buf.remaining() < 40 {
            return Err(WireError::Truncated);
        }
        Ok(OutPair {
            key: buf.get_u64_le(),
            left: (buf.get_u64_le(), buf.get_u64_le()),
            right: (buf.get_u64_le(), buf.get_u64_le()),
        })
    }

    fn reference_outputs_frame(pairs: &[OutPair]) -> Vec<u8> {
        let mut buf = vec![K_OUT];
        buf.put_u32_le(pairs.len() as u32);
        for p in pairs {
            put_pair(&mut buf, p);
        }
        buf
    }

    fn reference_decode_outputs(mut buf: Bytes) -> Result<Vec<OutPair>, WireError> {
        if buf.remaining() < 5 {
            return Err(WireError::Truncated);
        }
        assert_eq!(buf.get_u8(), K_OUT);
        let n = buf.get_u32_le() as usize;
        (0..n).map(|_| get_pair(&mut buf)).collect()
    }

    /// `[kind][len u32][body]`: how a batch body sits in its frame.
    fn block_frame(kind: u8, body: &[u8]) -> Vec<u8> {
        let mut buf = vec![kind];
        buf.put_u32_le(body.len() as u32);
        buf.put_slice(body);
        buf
    }

    fn arb_pairs() -> impl Strategy<Value = Vec<OutPair>> {
        let pair = (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>())
            .prop_map(|(key, lt, ls, rt, rs)| OutPair { key, left: (lt, ls), right: (rt, rs) });
        proptest::collection::vec(pair, 0..60)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn outputs_frames_are_the_reference_bytes_and_every_cut_is_an_error(pairs in arb_pairs()) {
            let want = reference_outputs_frame(&pairs);
            let mut fast = vec![0xEE; 3]; // stale scratch contents are cleared
            Message::encode_outputs_into(&pairs, &mut fast);
            prop_assert_eq!(&fast, &want);
            let frame = Message::Outputs(pairs.clone()).encode();
            prop_assert_eq!(&frame[..], &want[..]);

            let mut out = vec![OutPair { key: 0, left: (0, 0), right: (0, 0) }];
            prop_assert_eq!(Message::decode_outputs_into(frame.clone(), &mut out), Ok(true));
            prop_assert_eq!(&out, &pairs);
            prop_assert_eq!(Message::decode(frame.clone()), Ok(Message::Outputs(pairs.clone())));
            prop_assert_eq!(reference_decode_outputs(frame.clone()), Ok(pairs.clone()));
            for cut in 0..frame.len() {
                prop_assert!(Message::decode(frame.slice(0..cut)).is_err(), "cut at {}", cut);
                prop_assert!(
                    Message::decode_outputs_into(frame.slice(0..cut), &mut out).is_err(),
                    "cut at {}", cut
                );
            }
            // Bytes past the announced pairs are ignored, as before.
            let padded = Bytes::from([&want[..], &[9u8; 7]].concat());
            prop_assert_eq!(Message::decode(padded), Ok(Message::Outputs(pairs)));
        }

        #[test]
        fn batch_frames_are_the_reference_bytes_and_every_cut_is_an_error(
            batch in reference::arb_batch(),
        ) {
            let want = block_frame(K_BATCH, &reference::encode_batch(&batch, Tagging::StreamTag));
            let mut fast = Vec::new();
            Message::encode_batch_into(&batch, &mut fast);
            prop_assert_eq!(&fast, &want);
            let frame = Message::Batch(batch.clone()).encode();
            prop_assert_eq!(&frame[..], &want[..]);

            let mut out = Vec::new();
            prop_assert_eq!(Message::decode_batch_into(frame.clone(), &mut out), Ok(true));
            prop_assert_eq!(&out, &batch);
            prop_assert_eq!(Message::decode(frame.clone()), Ok(Message::Batch(batch)));
            for cut in 0..frame.len() {
                prop_assert!(Message::decode(frame.slice(0..cut)).is_err(), "cut at {}", cut);
                prop_assert!(
                    Message::decode_batch_into(frame.slice(0..cut), &mut out).is_err(),
                    "cut at {}", cut
                );
            }
        }

        #[test]
        fn payload_batch_frames_are_the_reference_bytes_and_every_cut_is_an_error(
            batch in reference::arb_batch(),
            fill in any::<u8>(),
        ) {
            // Payloads shorter than, equal to and longer than the width.
            let payloads: Vec<Vec<u8>> =
                (0..batch.len()).map(|i| vec![fill.wrapping_add(i as u8); i * 13 % 80]).collect();
            for width in [0usize, 1, 39, 512] {
                let body = reference::encode_batch_payload(&batch, &payloads, width);
                let want = block_frame(K_PBATCH, &body);
                let mut fast = Vec::new();
                Message::encode_payload_batch_into(&batch, &payloads, width, &mut fast);
                prop_assert_eq!(&fast, &want);
                let mut borrowed = vec![0xEE; 3]; // stale scratch contents are cleared
                let slices = payloads.iter().map(|p| &p[..]);
                Message::encode_payload_batch_from(&batch, slices, width, &mut borrowed);
                prop_assert_eq!(&borrowed, &want);
                let msg = Message::PayloadBatch {
                    tuples: batch.clone(),
                    payloads: payloads.clone(),
                    width: width as u32,
                };
                let frame = msg.encode();
                prop_assert_eq!(&frame[..], &want[..]);

                let (_, on_wire, _) = reference::decode_batch_payload(Bytes::from(body)).unwrap();
                let (mut t, mut p) = (Vec::new(), Vec::new());
                let got = Message::decode_payload_batch_into(frame.clone(), &mut t, &mut p);
                prop_assert_eq!(got, Ok(true));
                prop_assert_eq!((&t, &p), (&batch, &on_wire));
                // The borrowed decode: same tuples, and a view of the
                // frame holding the same payloads.
                let mut viewed = vec![Tuple::new(Side::Left, 9, 9, 9)]; // cleared first
                let column = Message::decode_payload_batch_view(&frame, &mut viewed);
                let column = column.expect("well-formed").expect("a payload batch");
                prop_assert_eq!(&viewed, &batch);
                prop_assert_eq!(column.width(), width);
                prop_assert_eq!(column.iter().len(), batch.len());
                prop_assert!(column.iter().eq(on_wire.iter().map(|p| &p[..])));
                let decoded = Message::PayloadBatch {
                    tuples: batch.clone(),
                    payloads: on_wire,
                    width: width as u32,
                };
                prop_assert_eq!(Message::decode(frame.clone()), Ok(decoded));
                for cut in 0..frame.len() {
                    prop_assert!(Message::decode(frame.slice(0..cut)).is_err(), "cut at {}", cut);
                    let got = Message::decode_payload_batch_into(frame.slice(0..cut), &mut t, &mut p);
                    prop_assert!(got.is_err(), "width {} cut at {}", width, cut);
                    let view = Message::decode_payload_batch_view(&frame[..cut], &mut viewed);
                    prop_assert_eq!(view.err(), got.err(), "width {} cut at {}", width, cut);
                }
            }
        }
    }

    #[test]
    fn outputs_count_beyond_the_bytes_present_is_truncated_before_allocating() {
        // u32::MAX pairs announced, one present.
        let mut frame = vec![K_OUT, 0xFF, 0xFF, 0xFF, 0xFF];
        put_pair(&mut frame, &OutPair { key: 1, left: (2, 3), right: (4, 5) });
        let frame = Bytes::from(frame);
        let mut out = Vec::new();
        assert_eq!(
            Message::decode_outputs_into(frame.clone(), &mut out),
            Err(WireError::Truncated)
        );
        assert_eq!(out.capacity(), 0);
        assert_eq!(Message::decode(frame), Err(WireError::Truncated));
        // Other kinds fall through untouched.
        out.push(OutPair { key: 9, left: (9, 9), right: (9, 9) });
        assert_eq!(Message::decode_outputs_into(Message::Shutdown.encode(), &mut out), Ok(false));
        assert_eq!(out.len(), 1);
    }

    fn roundtrip(m: Message) {
        let enc = m.encode();
        let dec = Message::decode(enc).unwrap();
        assert_eq!(m, dec);
    }

    #[test]
    fn all_variants_roundtrip() {
        roundtrip(Message::Batch(vec![
            Tuple::new(Side::Left, 1, 2, 3),
            Tuple::new(Side::Right, 4, 5, 6),
        ]));
        roundtrip(Message::Batch(Vec::new()));
        roundtrip(Message::Occupancy(0.375));
        roundtrip(Message::MoveDirective { pid: 17, to: 3 });
        roundtrip(Message::State {
            pid: 9,
            state: GroupState {
                buckets: vec![
                    BucketState {
                        pattern: 0b01,
                        depth: 2,
                        left: vec![Tuple::new(Side::Left, 1, 2, 3)],
                        right: vec![],
                    },
                    BucketState {
                        pattern: 0b11,
                        depth: 2,
                        left: vec![],
                        right: vec![Tuple::new(Side::Right, 7, 8, 9)],
                    },
                ],
            },
            pending: vec![Tuple::new(Side::Left, 10, 11, 12)],
            payloads: Vec::new(),
        });
        roundtrip(Message::State {
            pid: 10,
            state: GroupState { buckets: Vec::new() },
            pending: vec![Tuple::new(Side::Right, 1, 2, 3)],
            payloads: vec![
                PayloadEntry { side: Side::Left, seq: 3, t: 1, bytes: b"pay".to_vec() },
                PayloadEntry { side: Side::Right, seq: 9, t: 7, bytes: Vec::new() },
            ],
        });
        roundtrip(Message::PayloadBatch {
            tuples: vec![Tuple::new(Side::Left, 1, 2, 3), Tuple::new(Side::Right, 4, 5, 6)],
            payloads: vec![vec![1, 2, 3, 4], vec![0, 0, 0, 9]],
            width: 4,
        });
        roundtrip(Message::MoveComplete { pid: 4 });
        roundtrip(Message::Outputs(vec![OutPair { key: 1, left: (2, 3), right: (4, 5) }]));
        roundtrip(Message::Shutdown);
        roundtrip(Message::Heartbeat { seq: 0 });
        roundtrip(Message::Heartbeat { seq: u64::MAX });
        roundtrip(Message::Leave);
        roundtrip(Message::Goodbye);
        roundtrip(Message::Dead { slave: 3 });
    }

    #[test]
    fn payload_free_state_frame_is_byte_identical_to_legacy() {
        // The pre-payload decoder knew nothing of K_STATE_P; an empty
        // payload set must therefore encode under the old kind byte.
        let m = Message::State {
            pid: 1,
            state: GroupState { buckets: Vec::new() },
            pending: Vec::new(),
            payloads: Vec::new(),
        };
        assert_eq!(m.encode()[0], K_STATE);
        let with = Message::State {
            pid: 1,
            state: GroupState { buckets: Vec::new() },
            pending: Vec::new(),
            payloads: vec![PayloadEntry { side: Side::Left, seq: 0, t: 0, bytes: vec![1] }],
        };
        assert_eq!(with.encode()[0], K_STATE_P);
    }

    #[test]
    fn payload_batch_fast_path_accepts_both_batch_kinds() {
        let tuples = vec![Tuple::new(Side::Left, 1, 2, 3)];
        let (mut t, mut p, mut buf) = (Vec::new(), Vec::new(), Vec::new());

        Message::encode_payload_batch_into(&tuples, &[b"abcd".to_vec()], 4, &mut buf);
        assert!(
            Message::decode_payload_batch_into(Bytes::from(buf.clone()), &mut t, &mut p).unwrap()
        );
        assert_eq!(t, tuples);
        assert_eq!(p, vec![b"abcd".to_vec()]);

        Message::encode_batch_into(&tuples, &mut buf);
        assert!(Message::decode_payload_batch_into(Bytes::from(buf), &mut t, &mut p).unwrap());
        assert_eq!(t, tuples);
        assert_eq!(p, vec![Vec::<u8>::new()], "legacy batches decode with empty payloads");

        // Non-batch frames fall through.
        assert!(!Message::decode_payload_batch_into(Message::Shutdown.encode(), &mut t, &mut p)
            .unwrap());

        // The view is of payload batches only; anything else, a plain
        // batch included, leaves the tuple vector alone.
        for other in [Message::Batch(tuples.clone()).encode(), Message::Shutdown.encode()] {
            assert!(Message::decode_payload_batch_view(&other, &mut t).unwrap().is_none());
            assert_eq!(t, tuples);
        }
        assert_eq!(
            Message::decode_payload_batch_view(&[], &mut t).err(),
            Some(WireError::Truncated)
        );
    }

    #[test]
    fn truncated_heartbeat_errors() {
        let enc = Message::Heartbeat { seq: 7 }.encode();
        assert!(Message::decode(enc.slice(0..5)).is_err());
    }

    #[test]
    fn truncated_frames_error() {
        let enc = Message::Occupancy(1.0).encode();
        assert!(Message::decode(enc.slice(0..4)).is_err());
        assert!(Message::decode(Bytes::new()).is_err());
    }

    /// One decision per re-home shape: a fresh install, a checkpoint
    /// restore (both in a death), an orphan rescued inside a reorg.
    fn rehome_decisions() -> [Decision; 3] {
        let fresh = Rehome { pid: 4, to: 0, checkpoint: None };
        let restore = Rehome { pid: 7, to: 3, checkpoint: Some((100, 90)) };
        let orphan = Rehome { pid: 5, to: 1, checkpoint: None };
        [
            Decision::SlaveDown { slave: 2, rehomes: vec![fresh], groups_lost: 1, tuples_lost: 42 },
            Decision::SlaveDown {
                slave: 2,
                rehomes: vec![restore, fresh],
                groups_lost: 1,
                tuples_lost: 42,
            },
            Decision::Reorg {
                moves: vec![MovePlan { pid: 0, from: 1, to: 2 }],
                rehomes: vec![orphan],
                activated: Some(1),
                deactivated: None,
            },
        ]
    }

    #[test]
    fn control_plane_variants_roundtrip() {
        for (index, decision) in rehome_decisions().into_iter().enumerate() {
            roundtrip(Message::AppendEntry { term: 3, index: index as u64, decision });
        }
        roundtrip(Message::AppendEntry {
            term: 3,
            index: 17,
            decision: Decision::SlaveDown {
                slave: 2,
                rehomes: Vec::new(),
                groups_lost: 0,
                tuples_lost: 0,
            },
        });
        roundtrip(Message::AppendEntry {
            term: 1,
            index: 0,
            decision: Decision::Readmit { slave: 5 },
        });
        roundtrip(Message::AppendEntry {
            term: 9,
            index: 2,
            decision: Decision::Reorg {
                moves: vec![
                    MovePlan { pid: 0, from: 1, to: 2 },
                    MovePlan { pid: 3, from: 2, to: 1 },
                ],
                rehomes: Vec::new(),
                activated: Some(4),
                deactivated: None,
            },
        });
        roundtrip(Message::AppendEntry {
            term: 2,
            index: 5,
            decision: Decision::Reorg {
                moves: Vec::new(),
                rehomes: Vec::new(),
                activated: None,
                deactivated: Some(0),
            },
        });
        roundtrip(Message::AppendAck { term: 3, index: 17 });
        roundtrip(Message::VoteRequest { term: 4, last_index: 12 });
        roundtrip(Message::Vote { term: 4, granted: true });
        roundtrip(Message::Vote { term: 5, granted: false });
        roundtrip(Message::MasterHeartbeat { term: 2, commit: 8 });
        roundtrip(Message::Checkpoint {
            pid: 6,
            seen_left: 1000,
            seen_right: 900,
            state: GroupState {
                buckets: vec![BucketState {
                    pattern: 0b1,
                    depth: 1,
                    left: vec![Tuple::new(Side::Left, 1, 2, 3)],
                    right: vec![Tuple::new(Side::Right, 4, 5, 6)],
                }],
            },
            pending: vec![Tuple::new(Side::Left, 7, 8, 9)],
            payloads: vec![PayloadEntry { side: Side::Left, seq: 3, t: 1, bytes: b"pp".to_vec() }],
        });
        roundtrip(Message::CkptNote { pid: 6, seen_left: 1000, seen_right: 900 });
        roundtrip(Message::Restore { pid: 6, checkpoint: true });
        roundtrip(Message::Restore { pid: 6, checkpoint: false });
        roundtrip(Message::Seen { pid: 6, left: 1000, right: 900 });
    }

    #[test]
    fn sealed_frames_roundtrip_and_refuse_nesting() {
        roundtrip(Message::Sealed { term: 7, inner: Box::new(Message::Shutdown) });
        roundtrip(Message::Sealed {
            term: 2,
            inner: Box::new(Message::Batch(vec![Tuple::new(Side::Left, 1, 2, 3)])),
        });
        roundtrip(Message::Sealed {
            term: 1,
            inner: Box::new(Message::MasterHeartbeat { term: 1, commit: 0 }),
        });
        // A hand-crafted nested envelope is rejected at decode.
        let mut nested = vec![14u8]; // K_SEALED
        nested.extend_from_slice(&7u64.to_le_bytes());
        nested.extend_from_slice(
            &Message::Sealed { term: 7, inner: Box::new(Message::Shutdown) }.encode(),
        );
        assert!(Message::decode(Bytes::from(nested)).is_err());
    }

    #[test]
    fn seal_unseal_fast_path_matches_full_codec() {
        // seal_into over an encoded batch == encoding Sealed{Batch}.
        let tuples = vec![Tuple::new(Side::Left, 1, 2, 3), Tuple::new(Side::Right, 4, 5, 6)];
        let (mut inner, mut sealed) = (Vec::new(), Vec::new());
        Message::encode_batch_into(&tuples, &mut inner);
        Message::seal_into(42, &inner, &mut sealed);
        let full =
            Message::Sealed { term: 42, inner: Box::new(Message::Batch(tuples.clone())) }.encode();
        assert_eq!(&sealed[..], &full[..], "fast seal is byte-identical");

        // unseal returns the term and the raw inner bytes.
        let (term, body) = Message::unseal(&Bytes::from(sealed)).expect("sealed");
        assert_eq!(term, 42);
        let mut out = Vec::new();
        assert!(Message::decode_batch_into(body, &mut out).unwrap());
        assert_eq!(out, tuples);

        // A raw (legacy) frame does not unseal.
        assert!(Message::unseal(&Message::Shutdown.encode()).is_none());
        assert!(Message::unseal(&Bytes::new()).is_none());
    }

    #[test]
    fn truncated_control_frames_error() {
        let entries =
            rehome_decisions().map(|decision| Message::AppendEntry { term: 1, index: 1, decision });
        for m in entries.into_iter().chain([
            Message::AppendAck { term: 1, index: 1 },
            Message::VoteRequest { term: 1, last_index: 1 },
            Message::Vote { term: 1, granted: true },
            Message::MasterHeartbeat { term: 1, commit: 1 },
            Message::CkptNote { pid: 1, seen_left: 1, seen_right: 1 },
            Message::Restore { pid: 1, checkpoint: true },
            Message::Seen { pid: 1, left: 1, right: 1 },
            Message::Sealed { term: 1, inner: Box::new(Message::Heartbeat { seq: 1 }) },
        ]) {
            let enc = m.encode();
            for cut in 1..enc.len() {
                assert!(
                    Message::decode(enc.slice(0..cut)).is_err(),
                    "truncation at {cut} of {m:?} must error"
                );
            }
        }
    }

    #[test]
    fn rehome_count_beyond_the_bytes_present_is_truncated_before_allocating() {
        // u32::MAX re-homes announced where each decision's list count
        // sits (after the 18-byte entry header, the slave or the move
        // list). Reserving the announced count would abort.
        for (decision, at) in rehome_decisions().into_iter().zip([22, 22, 34]) {
            let n = decision.rehomes().len() as u32;
            let mut frame = Message::AppendEntry { term: 1, index: 0, decision }.encode().to_vec();
            assert_eq!(frame[at..at + 4], n.to_le_bytes());
            frame[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            assert_eq!(Message::decode(Bytes::from(frame)), Err(WireError::Truncated));
        }
        let mut body = Bytes::from([&u32::MAX.to_le_bytes()[..], &[0u8; 9]].concat());
        assert_eq!(get_rehomes(&mut body), Err(WireError::Truncated));
    }
}
