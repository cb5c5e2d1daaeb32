//! The rank-addressed blocking transport: one contract
//! ([`TransportEndpoint`]), one holder of a network's endpoints
//! ([`Mesh`]), and the in-process backend ([`ChannelEndpoint`]).
//!
//! Models the communication regime the paper assumes (§III): reliable,
//! connection-oriented, **blocking** — a receive blocks until the sender
//! is scheduled to send, and a send blocks when the peer's inbox is full
//! (bounded capacity models the no-unbounded-async-buffering constraint).
//!
//! Two endpoints implement the contract:
//!
//! * [`ChannelEndpoint`] (this module) — in-process bounded channels;
//!   one node per thread. Used by the threaded runtime and tests.
//! * [`TcpEndpoint`](crate::tcp::TcpEndpoint) — real sockets, read and
//!   written by the rank's own thread; one node per OS process. The
//!   true shared-nothing deployment (the paper runs mpiJava/LAM-MPI
//!   here).
//!
//! The master/slave/collector node loops in `windjoin-cluster` are
//! generic over [`TransportEndpoint`], so the same protocol code drives
//! both unchanged, monomorphised per endpoint type.

use crate::tcp::assert_frame_size;
use bytes::Bytes;
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TrySendError};
use std::sync::atomic::{AtomicU64, Ordering};
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
/// The socket endpoint counts real wire bytes (frame headers
/// included); the in-process channel backend counts the payload bytes
/// of every frame delivered between two ranks. A self-send never
/// leaves its rank and is counted on no backend.
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
/// Every endpoint gives a rank one **bounded inbox** (capacity in
/// frames, fixed at construction). A rank that stops receiving — a
/// stalled collector, a wedged slave — fills that inbox, and the
/// pressure then propagates *sender-side*: the channel backend parks
/// senders on the full channel; the socket endpoint stops reading its
/// sockets once its frame queue is full, letting TCP flow control fill
/// the sender's kernel buffers until its `send` blocks. In every case
/// the sender's `send` eventually **blocks** — it never drops frames,
/// errors, or buffers without bound.
///
/// What a stalled consumer must **not** do is wedge the rest of the
/// mesh. The guarantees every backend upholds while some rank's inbox
/// is full:
///
/// * Traffic between *other* pairs of ranks keeps flowing — per-peer
///   buffering (channels, sockets) is independent, so pressure on one
///   destination never rides over into another.
/// * The stalled rank's **outbound** path stays live: a full inbox
///   blocks deliveries *to* the rank, never sends *from* it.
/// * A rank blocked in a send keeps taking its peers' frames into its
///   own inbox while it has room (the socket endpoint reads every peer
///   while it waits for the full socket), so two ranks that send each
///   other large frames at once do not deadlock.
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
    /// socket endpoint writes the bytes straight to the wire.
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

    /// Cumulative time this endpoint spent blocked waiting on the
    /// network: readiness waits on sockets, an empty or full inbox on
    /// channels. What a rank waits here it is idle, not communicating.
    fn waited(&self) -> Duration;

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

/// One rank's handle on a [`ChannelNetwork`]: a frame is sent by moving
/// it into the peer's inbox channel. Dropping it fires
/// [`NetEvent::PeerDown`] at every peer — the channel equivalent of a
/// TCP EOF, so in-process "process death" (a node loop returning and
/// dropping its endpoint) is observable exactly like a socket reset.
/// Unlike the socket endpoint it may be shared between threads.
#[derive(Debug)]
pub struct ChannelEndpoint {
    rank: usize,
    /// Every rank's inbox, our own included: self-sends go through it.
    peers: Vec<Sender<NetEvent>>,
    inbox: Receiver<NetEvent>,
    sent: AtomicU64,
    recvd: AtomicU64,
    /// Nanoseconds blocked on an empty inbox or a full peer inbox.
    waited_ns: AtomicU64,
}

impl ChannelEndpoint {
    /// Runs a blocking channel operation, booking its time as waiting.
    fn blocked<T>(&self, op: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = op();
        self.waited_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }

    /// Counts a delivered peer frame toward this rank's receive volume.
    fn took(&self, ev: NetEvent) -> NetEvent {
        match &ev {
            NetEvent::Frame(f) if f.from != self.rank => {
                self.recvd.fetch_add(f.payload.len() as u64, Ordering::Relaxed);
            }
            _ => {}
        }
        ev
    }
}

impl TransportEndpoint for ChannelEndpoint {
    fn rank(&self) -> usize {
        self.rank
    }

    fn network_len(&self) -> usize {
        self.peers.len()
    }

    /// Blocks while the peer's inbox is full. A self-send short-circuits
    /// through the own inbox like any other frame and is not counted.
    fn send(&self, to: usize, payload: Bytes) -> Result<(), Disconnected> {
        assert_frame_size(payload.len());
        let len = payload.len() as u64;
        let ev = NetEvent::Frame(Frame { from: self.rank, payload });
        match self.peers[to].try_send(ev) {
            Ok(()) => {}
            Err(TrySendError::Full(ev)) => {
                self.blocked(|| self.peers[to].send(ev)).map_err(|_| Disconnected)?
            }
            Err(TrySendError::Disconnected(_)) => return Err(Disconnected),
        }
        if to != self.rank {
            self.sent.fetch_add(len, Ordering::Relaxed);
        }
        Ok(())
    }

    fn send_slice(&self, to: usize, payload: &[u8]) -> Result<(), Disconnected> {
        self.send(to, Bytes::from(payload))
    }

    fn recv_event(&self) -> Result<NetEvent, Disconnected> {
        if let Ok(ev) = self.inbox.try_recv() {
            return Ok(self.took(ev));
        }
        let ev = self.blocked(|| self.inbox.recv()).map_err(|_| Disconnected)?;
        Ok(self.took(ev))
    }

    fn recv_event_timeout(&self, d: Duration) -> Result<Option<NetEvent>, Disconnected> {
        if let Ok(ev) = self.inbox.try_recv() {
            return Ok(Some(self.took(ev)));
        }
        match self.blocked(|| self.inbox.recv_timeout(d)) {
            Ok(ev) => Ok(Some(self.took(ev))),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(Disconnected),
        }
    }

    fn try_recv_event(&self) -> Option<NetEvent> {
        self.inbox.try_recv().ok().map(|ev| self.took(ev))
    }

    fn wire_stats(&self) -> WireStats {
        WireStats {
            bytes_sent: self.sent.load(Ordering::Relaxed),
            bytes_recvd: self.recvd.load(Ordering::Relaxed),
        }
    }

    fn waited(&self) -> Duration {
        Duration::from_nanos(self.waited_ns.load(Ordering::Relaxed))
    }
}

impl Drop for ChannelEndpoint {
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
        Mesh::of(inboxes.into_iter().enumerate().map(|(rank, (_, inbox))| ChannelEndpoint {
            rank,
            peers: peers.clone(),
            inbox,
            sent: AtomicU64::new(0),
            recvd: AtomicU64::new(0),
            waited_ns: AtomicU64::new(0),
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
