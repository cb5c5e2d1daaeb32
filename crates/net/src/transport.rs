//! The rank-addressed blocking transport: one contract
//! ([`TransportEndpoint`]), one endpoint core ([`Endpoint`]), one
//! holder of a network's endpoints ([`Mesh`]).
//!
//! Models the communication regime the paper assumes (§III): reliable,
//! connection-oriented, **blocking** — a receive blocks until the sender
//! is scheduled to send, and a send blocks when the peer's inbox is full
//! (bounded capacity models the no-unbounded-async-buffering constraint).
//!
//! Everything the three backends have in common is written here once:
//! rank and rank count, the bounded inbox with its three receive
//! variants, the self-send short-circuit, the [`WireStats`] counters and
//! the single `impl TransportEndpoint`. A backend supplies only how
//! bytes reach a *peer*, what must happen after a receive, and its
//! teardown:
//!
//! * [`ChannelIo`] (this module) — in-process bounded channels; one
//!   node per thread. Used by the threaded runtime and tests.
//! * [`ThreadedIo`](crate::tcp::ThreadedIo) — real sockets, blocking
//!   writes and one reader thread per peer; one node per OS process.
//!   The first true shared-nothing deployment (the paper runs
//!   mpiJava/LAM-MPI here).
//! * [`PollerIo`](crate::evented::PollerIo) — the same sockets and wire
//!   bytes behind one readiness-driven poller thread per rank.
//!
//! The master/slave/collector node loops in `windjoin-cluster` are
//! generic over [`TransportEndpoint`], so the same protocol code drives
//! every backend unchanged, monomorphised per endpoint type.

use crate::tcp::assert_frame_size;
use backend::WireCounters;
use bytes::Bytes;
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TrySendError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One delivered frame: the sender's rank and the payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Sender rank.
    pub from: usize,
    /// Encoded message payload.
    pub payload: Bytes,
}

/// One delivered transport event: a frame, or the typed notice that a
/// peer's connection tore down (process death, socket reset, endpoint
/// drop). `PeerDown` is what turns node loss from a silent hang into a
/// protocol event the master's recovery path can act on.
///
/// Per-peer ordering: every frame a peer sent before dying is delivered
/// before its `PeerDown` (the notice is produced by the same in-order
/// channel that carries the peer's frames).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetEvent {
    /// A payload from a live peer.
    Frame(Frame),
    /// The connection to this rank is gone; no further frames from it
    /// will ever arrive.
    PeerDown(usize),
}

/// Send-side failure: the peer is gone (channel closed / socket reset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Disconnected;

impl std::fmt::Display for Disconnected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "peer disconnected")
    }
}

impl std::error::Error for Disconnected {}

/// Cumulative transfer volume through one endpoint, as counted at the
/// transport layer itself — the ground truth the saturation benchmarks
/// and `RunReport` byte accounting read, instead of estimating volume
/// from tuple counts.
///
/// Socket backends count real wire bytes (frame headers included); the
/// in-process channel backend counts the payload bytes of every frame
/// delivered between two ranks. A self-send never leaves its rank and
/// is counted on no backend.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Bytes this endpoint pushed toward its peers.
    pub bytes_sent: u64,
    /// Bytes this endpoint accepted from its peers.
    pub bytes_recvd: u64,
}

/// One rank's handle onto a cluster transport: send a frame to any
/// rank, receive from this rank's own inbox.
///
/// Contract (what the protocol state machines rely on):
///
/// * **FIFO per sender pair** — frames from rank *a* to rank *b* are
///   delivered in send order.
/// * **Blocking receive** — [`recv`](TransportEndpoint::recv) parks
///   until a frame arrives (§III's blocking communication).
/// * **Bounded send** — [`send`](TransportEndpoint::send) may block
///   while the peer's inbox is full; it never buffers unboundedly.
/// * **Self-send** — a rank may send to itself; the frame is delivered
///   through its own inbox like any other (and is not wire volume).
/// * **Failure surfacing** — a torn peer connection is delivered as a
///   typed [`NetEvent::PeerDown`] through the event receive methods,
///   after every frame that peer sent before dying.
///
/// # Backpressure and slow consumers
///
/// Every backend gives a rank one **bounded inbox** (capacity in
/// frames, fixed at construction). A rank that stops receiving — a
/// stalled collector, a wedged slave — fills that inbox, and the
/// pressure then propagates *sender-side*: the channel backend parks
/// senders on the full channel; the thread-per-peer TCP backend stops
/// its reader threads, letting TCP flow control fill the sender's
/// kernel buffers until its `send` blocks; the evented backend parks
/// decoded frames, masks read interest for the stalled peers, and lets
/// the same TCP flow control do the rest. In every case the sender's
/// `send` eventually **blocks** — it never drops frames, errors, or
/// buffers without bound.
///
/// What a stalled consumer must **not** do is wedge the rest of the
/// mesh. The guarantees every backend upholds while some rank's inbox
/// is full:
///
/// * Traffic between *other* pairs of ranks keeps flowing — per-peer
///   buffering (sockets, write queues) is independent, so pressure on
///   one destination never rides over into another.
/// * The stalled rank's **outbound** path stays live: a full inbox
///   blocks deliveries *to* the rank, never sends *from* it. (In the
///   evented backend this holds because the poller never blocks on the
///   inbox — it parks frames and keeps draining write queues.)
/// * The first `recv` after the stall drains the backlog in order;
///   nothing is reordered or dropped on the way through the pressure.
///
/// The one deadlock the transport cannot absolve is protocol-level: two
/// ranks that both fill each other's inboxes while *neither* receives
/// have deadlocked themselves — §III's blocking regime makes that the
/// protocol designer's contract, exactly as in the paper's MPI setting.
/// The node loops honor it by always draining between sends.
pub trait TransportEndpoint: Send {
    /// This endpoint's rank.
    fn rank(&self) -> usize;

    /// Number of ranks in the network.
    fn network_len(&self) -> usize;

    /// Blocking send of `payload` to rank `to`.
    fn send(&self, to: usize, payload: Bytes) -> Result<(), Disconnected>;

    /// Blocking send of a borrowed payload — the allocation-free hot
    /// path for callers that encode into a reused scratch buffer: the
    /// socket backends write the bytes straight to the wire (or their
    /// recycled queue buffers).
    fn send_slice(&self, to: usize, payload: &[u8]) -> Result<(), Disconnected>;

    /// Blocking receive of the next event (frame or peer teardown)
    /// addressed to this rank.
    fn recv_event(&self) -> Result<NetEvent, Disconnected>;

    /// Event receive with a timeout; `Ok(None)` on timeout.
    fn recv_event_timeout(&self, d: Duration) -> Result<Option<NetEvent>, Disconnected>;

    /// Non-blocking event receive; `None` when the inbox is empty.
    fn try_recv_event(&self) -> Option<NetEvent>;

    /// Cumulative bytes moved between this endpoint and its peers.
    fn wire_stats(&self) -> WireStats;

    /// Blocking receive of the next *frame*; [`NetEvent::PeerDown`]
    /// notices are silently discarded. Failure-aware loops should use
    /// [`recv_event`](Self::recv_event) instead.
    fn recv(&self) -> Result<Frame, Disconnected> {
        loop {
            if let NetEvent::Frame(f) = self.recv_event()? {
                return Ok(f);
            }
        }
    }

    /// Frame receive with a timeout; `Ok(None)` on timeout. Peer-down
    /// notices are discarded without extending the deadline.
    fn recv_timeout(&self, d: Duration) -> Result<Option<Frame>, Disconnected> {
        let deadline = Instant::now() + d;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.recv_event_timeout(left)? {
                Some(NetEvent::Frame(f)) => return Ok(Some(f)),
                Some(NetEvent::PeerDown(_)) if Instant::now() < deadline => continue,
                _ => return Ok(None),
            }
        }
    }

    /// Non-blocking frame receive; `None` when no frame is buffered.
    /// Peer-down notices are discarded.
    fn try_recv(&self) -> Option<Frame> {
        loop {
            match self.try_recv_event()? {
                NetEvent::Frame(f) => return Some(f),
                NetEvent::PeerDown(_) => continue,
            }
        }
    }
}

/// What a backend supplies under the [`Endpoint`] core: the send half
/// toward its peers, and what (if anything) must happen after the core
/// took an event off the inbox. Teardown is the backend's `Drop`.
///
/// The module is crate-private, so nothing in it can be named — let
/// alone implemented or called — outside `windjoin-net`: backends are a
/// parameter of the core, not an extension point.
pub(crate) mod backend {
    use super::{Bytes, Disconnected, NetEvent, WireStats};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// See the [module docs](self).
    pub trait Io: Send {
        /// Blocking send of a borrowed payload to peer `to` (never this
        /// rank: the core delivers self-sends itself).
        fn send_slice(&self, to: usize, payload: &[u8]) -> Result<(), Disconnected>;

        /// Blocking send of an owned payload; a backend that can move
        /// the bytes instead of copying them overrides this.
        fn send(&self, to: usize, payload: Bytes) -> Result<(), Disconnected> {
            self.send_slice(to, &payload)
        }

        /// Called with every event the core takes off the inbox.
        fn after_recv(&self, _ev: &NetEvent) {}
    }

    /// Shared atomic counters behind [`WireStats`] — one pair per endpoint,
    /// updated lock-free from whichever thread moves the bytes (sender
    /// threads, reader threads, the poller).
    #[derive(Debug, Default)]
    pub struct WireCounters {
        sent: AtomicU64,
        recvd: AtomicU64,
    }

    impl WireCounters {
        pub(crate) fn add_sent(&self, n: usize) {
            self.sent.fetch_add(n as u64, Ordering::Relaxed);
        }

        pub(crate) fn add_recvd(&self, n: usize) {
            self.recvd.fetch_add(n as u64, Ordering::Relaxed);
        }

        pub(crate) fn snapshot(&self) -> WireStats {
            WireStats {
                bytes_sent: self.sent.load(Ordering::Relaxed),
                bytes_recvd: self.recvd.load(Ordering::Relaxed),
            }
        }
    }
}

/// One rank's handle onto a cluster transport, whatever carries the
/// bytes: rank, rank count, the bounded inbox and the wire counters
/// live here, once; the backend `B` ([`ChannelIo`],
/// [`ThreadedIo`](crate::tcp::ThreadedIo),
/// [`PollerIo`](crate::evented::PollerIo)) is the send half and
/// whatever feeds the inbox. All use goes through
/// [`TransportEndpoint`]. Dropping the endpoint drops the backend,
/// which announces the death to every peer ([`NetEvent::PeerDown`]
/// after the frames already sent).
#[derive(Debug)]
pub struct Endpoint<B> {
    rank: usize,
    ranks: usize,
    /// Feeding half of our own inbox: self-sends go through it.
    inbox_tx: Sender<NetEvent>,
    inbox_rx: Receiver<NetEvent>,
    stats: Arc<WireCounters>,
    io: B,
}

impl<B> Endpoint<B> {
    /// Assembles rank `rank` of `ranks` around its inbox. `stats` are
    /// the counters the backend's moving parts were handed a clone of.
    pub(crate) fn new(
        rank: usize,
        ranks: usize,
        (inbox_tx, inbox_rx): (Sender<NetEvent>, Receiver<NetEvent>),
        stats: Arc<WireCounters>,
        io: B,
    ) -> Self {
        Endpoint { rank, ranks, inbox_tx, inbox_rx, stats, io }
    }
}

impl<B: backend::Io> TransportEndpoint for Endpoint<B> {
    fn rank(&self) -> usize {
        self.rank
    }

    fn network_len(&self) -> usize {
        self.ranks
    }

    fn send(&self, to: usize, payload: Bytes) -> Result<(), Disconnected> {
        if to != self.rank {
            return self.io.send(to, payload);
        }
        // A self-send short-circuits through the inbox like any other
        // frame (blocking while it is full, per the bounded-send
        // contract) and never touches the wire or its counters.
        assert_frame_size(payload.len());
        self.inbox_tx
            .send(NetEvent::Frame(Frame { from: self.rank, payload }))
            .map_err(|_| Disconnected)
    }

    fn send_slice(&self, to: usize, payload: &[u8]) -> Result<(), Disconnected> {
        if to == self.rank {
            return self.send(to, Bytes::from(payload));
        }
        self.io.send_slice(to, payload)
    }

    fn recv_event(&self) -> Result<NetEvent, Disconnected> {
        let ev = self.inbox_rx.recv().map_err(|_| Disconnected)?;
        self.io.after_recv(&ev);
        Ok(ev)
    }

    fn recv_event_timeout(&self, d: Duration) -> Result<Option<NetEvent>, Disconnected> {
        match self.inbox_rx.recv_timeout(d) {
            Ok(ev) => {
                self.io.after_recv(&ev);
                Ok(Some(ev))
            }
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(Disconnected),
        }
    }

    fn try_recv_event(&self) -> Option<NetEvent> {
        let ev = self.inbox_rx.try_recv().ok()?;
        self.io.after_recv(&ev);
        Some(ev)
    }

    fn wire_stats(&self) -> WireStats {
        self.stats.snapshot()
    }
}

/// A materialized network of `n` ranks whose endpoints are handed out
/// once each (typically one per thread). A shared-nothing mesh has no
/// central object: this is only the holder the in-process constructors
/// ([`ChannelNetwork::new`], `loopback`) return their endpoints in.
#[derive(Debug)]
pub struct Mesh<E> {
    endpoints: Vec<Option<E>>,
}

impl<E> Mesh<E> {
    pub(crate) fn of(endpoints: impl IntoIterator<Item = E>) -> Self {
        Mesh { endpoints: endpoints.into_iter().map(Some).collect() }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.endpoints.len()
    }

    /// True when the network has no ranks (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.endpoints.is_empty()
    }

    /// Takes rank `r`'s endpoint (each rank is taken once, typically by
    /// its thread). Panics if taken twice.
    pub fn take(&mut self, rank: usize) -> E {
        self.endpoints[rank].take().expect("endpoint already taken")
    }
}

/// A fully-connected in-process network of `n` ranks over bounded
/// blocking channels.
pub type ChannelNetwork = Mesh<ChannelEndpoint>;

/// One rank's handle on a [`ChannelNetwork`].
pub type ChannelEndpoint = Endpoint<ChannelIo>;

/// The in-process backend: a frame is sent by moving it into the
/// peer's inbox channel. Dropping it fires [`NetEvent::PeerDown`] at
/// every peer — the channel equivalent of a TCP EOF, so in-process
/// "process death" (a node loop returning and dropping its endpoint) is
/// observable exactly like a socket reset.
#[derive(Debug)]
pub struct ChannelIo {
    rank: usize,
    /// Every rank's inbox, our own included (never sent to from here).
    peers: Vec<Sender<NetEvent>>,
    stats: Arc<WireCounters>,
}

impl backend::Io for ChannelIo {
    fn send_slice(&self, to: usize, payload: &[u8]) -> Result<(), Disconnected> {
        self.send(to, Bytes::from(payload))
    }

    /// Blocks while the peer's inbox is full.
    fn send(&self, to: usize, payload: Bytes) -> Result<(), Disconnected> {
        let len = payload.len();
        self.peers[to]
            .send(NetEvent::Frame(Frame { from: self.rank, payload }))
            .map_err(|_| Disconnected)?;
        self.stats.add_sent(len);
        Ok(())
    }

    /// Counts a delivered peer frame's payload toward this rank's
    /// receive volume (there is no reader thread to count at).
    fn after_recv(&self, ev: &NetEvent) {
        match ev {
            NetEvent::Frame(f) if f.from != self.rank => self.stats.add_recvd(f.payload.len()),
            _ => {}
        }
    }
}

impl Drop for ChannelIo {
    fn drop(&mut self) {
        for (peer, s) in self.peers.iter().enumerate() {
            if peer == self.rank {
                continue; // our own inbox is being dropped with us
            }
            // Never block in Drop: if the peer's inbox is momentarily
            // full, hand the (blocking) send to a detached thread — the
            // peer is draining or gone, and either resolves the send.
            if let Err(TrySendError::Full(ev)) = s.try_send(NetEvent::PeerDown(self.rank)) {
                let s = s.clone();
                std::thread::spawn(move || {
                    let _ = s.send(ev);
                });
            }
        }
    }
}

impl ChannelNetwork {
    /// Builds a network of `n` ranks with per-inbox `capacity` frames.
    pub fn new(n: usize, capacity: usize) -> Self {
        assert!(n > 0 && capacity > 0);
        let inboxes: Vec<_> = (0..n).map(|_| bounded(capacity)).collect();
        let peers: Vec<Sender<NetEvent>> = inboxes.iter().map(|(tx, _)| tx.clone()).collect();
        Mesh::of(inboxes.into_iter().enumerate().map(|(rank, inbox)| {
            let stats = Arc::new(WireCounters::default());
            let io = ChannelIo { rank, peers: peers.clone(), stats: stats.clone() };
            Endpoint::new(rank, n, inbox, stats, io)
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_send_blocks_until_drained() {
        let mut net = ChannelNetwork::new(2, 1);
        let a = net.take(0);
        let b = net.take(1);
        a.send(1, Bytes::from_static(b"1")).unwrap();
        // The second send must block until rank 1 drains its inbox.
        let t = std::thread::spawn(move || {
            a.send(1, Bytes::from_static(b"2")).unwrap();
        });
        std::thread::sleep(Duration::from_millis(20));
        assert!(!t.is_finished(), "send must block on the full inbox");
        assert_eq!(&b.recv().unwrap().payload[..], b"1");
        t.join().unwrap();
        assert_eq!(&b.recv().unwrap().payload[..], b"2");
    }

    #[test]
    fn disconnect_is_reported() {
        let mut net = ChannelNetwork::new(2, 4);
        let a = net.take(0);
        let b = net.take(1);
        drop(net); // drops nothing live
        drop(b); // rank 1 inbox receiver gone
        assert_eq!(a.send(1, Bytes::new()), Err(Disconnected));
    }

    #[test]
    #[should_panic(expected = "endpoint already taken")]
    fn endpoints_are_taken_once() {
        let mut net = ChannelNetwork::new(1, 1);
        let _a = net.take(0);
        let _b = net.take(0);
    }

    #[test]
    fn peer_down_on_full_inbox_is_not_lost() {
        let mut net = ChannelNetwork::new(2, 1);
        let a = net.take(0);
        let b = net.take(1);
        a.send(1, Bytes::from_static(b"fill")).unwrap(); // inbox now full
        drop(a); // death notice must survive the full inbox
        assert_eq!(&b.recv().unwrap().payload[..], b"fill");
        let ev = b
            .recv_event_timeout(Duration::from_secs(5))
            .unwrap()
            .expect("deferred death notice arrives");
        assert_eq!(ev, NetEvent::PeerDown(0));
    }

    #[test]
    fn frame_level_receives_skip_peer_down() {
        let mut net = ChannelNetwork::new(3, 16);
        let a = net.take(0);
        let b = net.take(1);
        let c = net.take(2);
        drop(c);
        a.send(1, Bytes::from_static(b"after")).unwrap();
        // recv() must deliver the frame, silently discarding rank 2's
        // death notice queued ahead of it.
        assert_eq!(&b.recv().unwrap().payload[..], b"after");
    }
}
