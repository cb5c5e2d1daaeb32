//! The readiness-driven socket backend: one poller thread per rank
//! multiplexing every peer connection over the vendored epoll shim
//! ([`crate::poll`]), instead of the thread-per-peer readers of
//! [`crate::tcp`].
//!
//! Motivation (ROADMAP item 2): at 4 ranks a thread per peer is cheap;
//! at a serving fleet's 16–32 ranks it is `n²` parked threads across
//! the cluster and a context switch per frame. Here each rank runs
//! exactly **one** I/O thread regardless of fan-in:
//!
//! * **Reads** — nonblocking sockets feed a per-peer [`FrameDecoder`]
//!   (the same torn-read-safe incremental codec the property tests
//!   pin down); completed frames go to the rank's bounded inbox. When
//!   the inbox is full the poller *parks* the already-decoded frames
//!   per peer — preserving per-sender FIFO — and masks read interest
//!   for those peers, so TCP flow control pushes the pressure back to
//!   the senders while the poller keeps serving everyone else.
//! * **Writes** — senders enqueue framed payloads onto a byte-capped
//!   per-peer [`FrameWriteQueue`] (blocking when it is full: bounded
//!   send, as the trait contract requires) and the poller drains the
//!   queues with **vectored writes**, resuming partially written
//!   frames at arbitrary byte boundaries. Frame buffers recycle
//!   through a freelist, so the steady-state send path allocates
//!   nothing — the evented continuation of PR 2's per-peer scratch.
//! * **Bootstrap and death** — the mesh handshake (HELLO dial/accept,
//!   rank-0 READY/GO barrier) and the `establish` / `loopback`
//!   constructors are the one generic implementation in [`crate::tcp`],
//!   and a torn connection surfaces as [`NetEvent::PeerDown`] after the
//!   peer's completed frames, so the master/slave/collector loops run
//!   unchanged on either backend.
//!
//! Everything an endpoint does besides moving bytes to and from peers
//! (inbox receives, self-sends, counters) is the shared [`Endpoint`]
//! core; [`PollerIo`] is only the write queues and the poller thread.

use crate::poll::{PollEvent, Poller, Waker, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use crate::tcp::{
    assert_frame_size, encode_frame_into, FrameDecoder, SocketBackend, FRAME_HEADER_BYTES,
};
use crate::transport::backend::{self, WireCounters};
use crate::transport::{Disconnected, Endpoint, Frame, Mesh, NetEvent};
use crossbeam::channel::{Sender, TrySendError};
use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Per-peer cap on queued-but-unwritten bytes. A sender whose peer
/// stops draining blocks once this much is outstanding — the evented
/// equivalent of blocking on a full kernel send buffer. A single frame
/// larger than the cap (a partition-state transfer) is still admitted
/// when the queue is empty, so the cap never deadlocks a legal send.
pub const SEND_QUEUE_CAP_BYTES: usize = 8 * 1024 * 1024;

/// The poller's reusable read buffer (one per rank, not per peer).
const READ_CHUNK_BYTES: usize = 256 * 1024;

/// Freelist policy: recycle at most this many frame buffers, and only
/// ones that have not grown past a batch-sized capacity — a huge
/// state-transfer frame must not pin megabytes in the freelist.
const FREELIST_MAX_BUFFERS: usize = 32;
const FREELIST_KEEP_BYTES: usize = 256 * 1024;

/// How many queued frames one vectored write gathers at most.
const WRITE_BATCH_FRAMES: usize = 16;

/// Poll timeout while frames are parked on a full inbox: the consumer
/// wakes the poller explicitly on drain, this is only the fallback.
const STALLED_POLL: Duration = Duration::from_millis(10);

/// Poll timeout when idle; shutdown is signalled through the waker, so
/// this is pure paranoia against a lost wakeup.
const IDLE_POLL: Duration = Duration::from_millis(500);

/// A byte-capped FIFO of encoded frames awaiting a nonblocking
/// socket's write readiness, with partial-write resumption: a short
/// write leaves the front frame's cursor mid-buffer and the next
/// [`drain`](Self::drain) resumes exactly there, at any byte boundary
/// (mid-header included). Buffers recycle through an internal
/// freelist, so steady-state pushes allocate nothing.
///
/// This is the unit the partial-write property tests drive directly;
/// the poller wraps one per peer in a `Mutex`/`Condvar` pair for the
/// blocking-sender handoff.
#[derive(Debug, Default)]
pub struct FrameWriteQueue {
    frames: VecDeque<Vec<u8>>,
    /// Bytes of `frames[0]` already written to the socket.
    front_written: usize,
    /// Unwritten bytes across all queued frames.
    queued_bytes: usize,
    freelist: Vec<Vec<u8>>,
}

impl FrameWriteQueue {
    /// An empty queue.
    pub fn new() -> Self {
        FrameWriteQueue::default()
    }

    /// Unwritten bytes currently queued.
    pub fn queued_bytes(&self) -> usize {
        self.queued_bytes
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Frames `payload` (`[len: u32 LE][bytes]`) and appends it.
    pub fn push(&mut self, payload: &[u8]) {
        let mut buf = self.freelist.pop().unwrap_or_default();
        encode_frame_into(payload, &mut buf);
        self.queued_bytes += buf.len();
        self.frames.push_back(buf);
    }

    /// Writes as much queued data as `w` accepts, gathering up to
    /// `WRITE_BATCH_FRAMES` frames per vectored write. Returns the
    /// bytes written this call; `WouldBlock` ends the drain (with the
    /// partial progress recorded), any other error is returned after
    /// zero or more complete writes.
    pub fn drain<W: Write>(&mut self, w: &mut W) -> io::Result<usize> {
        let mut total = 0;
        while !self.frames.is_empty() {
            let wrote = {
                let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(WRITE_BATCH_FRAMES);
                slices.push(IoSlice::new(&self.frames[0][self.front_written..]));
                for f in self.frames.iter().skip(1).take(WRITE_BATCH_FRAMES - 1) {
                    slices.push(IoSlice::new(f));
                }
                match w.write_vectored(&slices) {
                    Ok(0) => {
                        return Err(io::Error::new(
                            io::ErrorKind::WriteZero,
                            "socket accepted zero bytes",
                        ))
                    }
                    Ok(k) => k,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            };
            total += wrote;
            self.advance(wrote);
        }
        Ok(total)
    }

    /// Consumes `n` written bytes from the front of the queue.
    fn advance(&mut self, mut n: usize) {
        self.queued_bytes -= n;
        while n > 0 {
            let remaining = self.frames[0].len() - self.front_written;
            if n >= remaining {
                n -= remaining;
                self.front_written = 0;
                let done = self.frames.pop_front().expect("frame underflow");
                self.recycle(done);
            } else {
                self.front_written += n;
                n = 0;
            }
        }
    }

    /// Drops everything queued (peer died; nobody will read it).
    pub fn clear(&mut self) {
        self.front_written = 0;
        self.queued_bytes = 0;
        while let Some(buf) = self.frames.pop_front() {
            self.recycle(buf);
        }
    }

    fn recycle(&mut self, buf: Vec<u8>) {
        if self.freelist.len() < FREELIST_MAX_BUFFERS && buf.capacity() <= FREELIST_KEEP_BYTES {
            self.freelist.push(buf);
        }
    }
}

/// One peer's send side: the queue senders push onto and the poller
/// drains, plus the condvar blocked senders park on.
#[derive(Debug)]
struct PeerSend {
    queue: Mutex<SendState>,
    space: Condvar,
}

#[derive(Debug, Default)]
struct SendState {
    q: FrameWriteQueue,
    /// Set by the poller when the connection tears down; blocked and
    /// future senders observe it as [`Disconnected`].
    dead: bool,
}

impl PeerSend {
    fn new() -> Self {
        PeerSend { queue: Mutex::new(SendState::default()), space: Condvar::new() }
    }
}

/// State shared between the endpoint (any number of node threads) and
/// the poller thread.
#[derive(Debug)]
struct Shared {
    /// `None` at this rank's own slot.
    peers: Vec<Option<PeerSend>>,
    inbox_tx: Sender<NetEvent>,
    waker: Waker,
    shutdown: AtomicBool,
    /// True while the poller holds parked frames it could not deliver;
    /// tells receivers to wake the poller after draining the inbox.
    stalled: AtomicBool,
    stats: Arc<WireCounters>,
}

/// A readiness-driven socket mesh; same bootstrap, same wire bytes as
/// [`TcpNetwork`](crate::tcp::TcpNetwork).
pub type EventedNetwork = Mesh<EventedEndpoint>;

/// One rank's handle on an [`EventedNetwork`].
pub type EventedEndpoint = Endpoint<PollerIo>;

/// The readiness-driven backend: sends enqueue framed payloads for the
/// poller (blocking while the peer's byte-capped queue is full); the
/// poller feeds the inbox. Dropping it flushes queued frames (bounded
/// linger), closes every socket — peers observe an orderly
/// [`NetEvent::PeerDown`] — and joins the poller thread.
#[derive(Debug)]
pub struct PollerIo {
    shared: Arc<Shared>,
    poller: Option<std::thread::JoinHandle<()>>,
}

impl SocketBackend for PollerIo {
    fn start(
        rank: usize,
        streams: Vec<Option<TcpStream>>,
        inbox_tx: Sender<NetEvent>,
        stats: Arc<WireCounters>,
    ) -> io::Result<Self> {
        let shared = Arc::new(Shared {
            peers: streams.iter().map(|s| s.as_ref().map(|_| PeerSend::new())).collect(),
            inbox_tx,
            waker: Waker::new()?,
            shutdown: AtomicBool::new(false),
            stalled: AtomicBool::new(false),
            stats,
        });
        let loop_shared = shared.clone();
        let poller =
            std::thread::Builder::new().name(format!("wj-net-poll-r{rank}")).spawn(move || {
                if let Err(e) = poller_loop(loop_shared.clone(), streams) {
                    // An epoll-level failure (not a per-peer socket
                    // error) is unrecoverable for this rank: tear the
                    // send side down so nothing blocks forever.
                    for peer in loop_shared.peers.iter().flatten() {
                        let mut st = peer.queue.lock().unwrap();
                        st.dead = true;
                        st.q.clear();
                        peer.space.notify_all();
                    }
                    eprintln!("windjoin-net: rank {rank} poller failed: {e}");
                }
            })?;
        Ok(PollerIo { shared, poller: Some(poller) })
    }
}

impl backend::Io for PollerIo {
    /// Frames the payload into the peer's recycled queue buffers (no
    /// steady-state allocation) and lets the poller write it out;
    /// blocks while the peer's queue is at its byte cap.
    fn send_slice(&self, to: usize, payload: &[u8]) -> Result<(), Disconnected> {
        assert_frame_size(payload.len()); // before the lock: a panic must not poison it
        let peer = self.shared.peers[to].as_ref().expect("send to unconnected rank");
        let mut st = peer.queue.lock().unwrap();
        loop {
            if st.dead {
                return Err(Disconnected);
            }
            // An over-cap frame is admitted into an empty queue: the
            // cap bounds buffering, it must not reject a legal frame.
            if st.q.is_empty()
                || st.q.queued_bytes() + FRAME_HEADER_BYTES + payload.len() <= SEND_QUEUE_CAP_BYTES
            {
                break;
            }
            st = peer.space.wait(st).unwrap();
        }
        let was_empty = st.q.is_empty();
        st.q.push(payload);
        drop(st);
        if was_empty {
            // Empty → non-empty is the one transition the poller can't
            // see on its own (EPOLLOUT is disarmed for drained queues).
            self.shared.waker.wake();
        }
        Ok(())
    }

    /// If the poller parked frames on the previously-full inbox, wake
    /// it so it can deliver them into the slot this receive freed.
    fn after_recv(&self, _ev: &NetEvent) {
        if self.shared.stalled.load(Ordering::Relaxed) {
            self.shared.waker.wake();
        }
    }
}

impl Drop for PollerIo {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.waker.wake();
        if let Some(h) = self.poller.take() {
            let _ = h.join();
        }
    }
}

/// One peer's receive-side state inside the poller.
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Decoded events the full inbox would not take, in delivery order
    /// (a trailing `PeerDown` rides here too). Bounded: read interest
    /// is masked while non-empty, so it holds at most what one read
    /// chunk decoded to.
    parked: VecDeque<NetEvent>,
    /// Current epoll interest bits.
    interest: u32,
    /// The socket is gone; once `parked` drains this slot is retired.
    gone: bool,
}

/// The poller thread: owns every socket, the epoll instance, and all
/// receive-side state. Never blocks on anything but `epoll_wait` — in
/// particular never on the inbox (it parks) and never on a socket (all
/// nonblocking) — which is what keeps one slow consumer from wedging
/// the mesh.
fn poller_loop(shared: Arc<Shared>, streams: Vec<Option<TcpStream>>) -> io::Result<()> {
    let n = streams.len();
    let poller = Poller::new()?;
    let waker_token = n as u64;
    poller.register(shared.waker.as_raw_fd(), waker_token, EPOLLIN)?;

    let mut conns: Vec<Option<Conn>> = Vec::with_capacity(n);
    for (peer, stream) in streams.into_iter().enumerate() {
        let Some(stream) = stream else {
            conns.push(None);
            continue;
        };
        stream.set_nonblocking(true)?;
        let interest = EPOLLIN | EPOLLRDHUP;
        poller.register(stream.as_raw_fd(), peer as u64, interest)?;
        conns.push(Some(Conn {
            stream,
            decoder: FrameDecoder::new(),
            parked: VecDeque::new(),
            interest,
            gone: false,
        }));
    }

    let mut read_buf = vec![0u8; READ_CHUNK_BYTES];
    let mut events: Vec<PollEvent> = Vec::new();
    loop {
        let any_parked = conns.iter().flatten().any(|c| !c.parked.is_empty());
        let timeout = if any_parked { STALLED_POLL } else { IDLE_POLL };
        poller.wait(&mut events, Some(timeout))?;
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let mut scan_queues = false;
        for ev in events.iter().copied() {
            if ev.token == waker_token {
                shared.waker.drain();
                scan_queues = true;
                continue;
            }
            let peer = ev.token as usize;
            if ev.writable() {
                flush_peer(&shared, &poller, &mut conns, peer);
            }
            if ev.readable() {
                read_peer(&shared, &poller, &mut conns, peer, &mut read_buf);
            }
        }
        if scan_queues {
            // A sender made some queue non-empty: flush it now and arm
            // EPOLLOUT for whatever the socket would not take.
            let wants_write: Vec<usize> = (0..n)
                .filter(|&peer| match (&conns[peer], &shared.peers[peer]) {
                    (Some(c), Some(p)) if !c.gone => !p.queue.lock().unwrap().q.is_empty(),
                    _ => false,
                })
                .collect();
            for peer in wants_write {
                flush_peer(&shared, &poller, &mut conns, peer);
            }
        }
        deliver_parked(&shared, &poller, &mut conns);
    }

    // Orderly shutdown: flush what senders already queued (bounded
    // linger so a dead peer cannot hang us), then close everything.
    // Peers observe EOF after our last complete frame — exactly the
    // PeerDown-after-frames contract.
    for (peer, slot) in conns.iter_mut().enumerate() {
        let Some(conn) = slot.as_mut() else { continue };
        if conn.gone {
            continue;
        }
        if let Some(peer_send) = shared.peers[peer].as_ref() {
            let mut st = peer_send.queue.lock().unwrap();
            if !st.dead && !st.q.is_empty() {
                let _ = conn.stream.set_nonblocking(false);
                let _ = conn.stream.set_write_timeout(Some(Duration::from_secs(5)));
                if let Ok(wrote) = st.q.drain(&mut conn.stream) {
                    shared.stats.add_sent(wrote);
                }
            }
            st.dead = true;
            st.q.clear();
            peer_send.space.notify_all();
        }
        let _ = conn.stream.shutdown(Shutdown::Both);
    }
    Ok(())
}

/// Drains `peer`'s write queue into its socket; arms or disarms
/// `EPOLLOUT` to match what is left; tears the peer down on a write
/// error.
fn flush_peer(shared: &Arc<Shared>, poller: &Poller, conns: &mut [Option<Conn>], peer: usize) {
    let outcome = {
        let Some(conn) = conns[peer].as_mut() else { return };
        if conn.gone {
            return;
        }
        let Some(peer_send) = shared.peers[peer].as_ref() else { return };
        let outcome = {
            let mut st = peer_send.queue.lock().unwrap();
            if st.dead {
                return;
            }
            let r = st.q.drain(&mut conn.stream);
            if let Ok(written) = r {
                if written > 0 {
                    shared.stats.add_sent(written);
                    peer_send.space.notify_all();
                }
            }
            r.map(|_| st.q.is_empty())
        };
        if let Ok(drained) = outcome {
            let want = if drained { conn.interest & !EPOLLOUT } else { conn.interest | EPOLLOUT };
            set_interest(poller, conn, peer, want);
        }
        outcome
    };
    if outcome.is_err() {
        teardown_peer(shared, poller, conns, peer);
    }
}

/// What one borrow-scoped step of the read loop decided.
enum ReadStep {
    /// Socket has more to give (or was interrupted): read again.
    Again,
    /// `WouldBlock`, or interest was masked: stop reading this peer.
    Stop,
    /// EOF, error, or a corrupt stream: tear the peer down.
    Teardown,
}

/// Reads `peer`'s socket until `WouldBlock`, feeding the frame decoder
/// and delivering (or parking) completed frames; tears the peer down on
/// EOF, error, or a corrupt stream.
fn read_peer(
    shared: &Arc<Shared>,
    poller: &Poller,
    conns: &mut [Option<Conn>],
    peer: usize,
    read_buf: &mut [u8],
) {
    loop {
        let step = {
            let Some(conn) = conns[peer].as_mut() else { return };
            if conn.gone || conn.interest & EPOLLIN == 0 {
                // Masked while the inbox backlog stands; readiness is
                // rediscovered when interest is re-armed.
                return;
            }
            match conn.stream.read(read_buf) {
                Ok(0) => ReadStep::Teardown,
                Ok(k) => {
                    shared.stats.add_recvd(k);
                    conn.decoder.feed(&read_buf[..k]);
                    let mut corrupt = false;
                    loop {
                        match conn.decoder.next_frame() {
                            Ok(Some(payload)) => {
                                let ev = NetEvent::Frame(Frame { from: peer, payload });
                                park_or_deliver(shared, conn, ev);
                            }
                            Ok(None) => break,
                            Err(_) => {
                                // Corrupt length prefix: the stream can
                                // never resync — drop the connection.
                                corrupt = true;
                                break;
                            }
                        }
                    }
                    if corrupt {
                        ReadStep::Teardown
                    } else if !conn.parked.is_empty() {
                        // Inbox full: stop reading this peer (TCP flow
                        // control takes over) until the backlog drains.
                        let want = conn.interest & !EPOLLIN;
                        set_interest(poller, conn, peer, want);
                        ReadStep::Stop
                    } else {
                        ReadStep::Again
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => ReadStep::Stop,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => ReadStep::Again,
                Err(_) => ReadStep::Teardown,
            }
        };
        match step {
            ReadStep::Again => {}
            ReadStep::Stop => return,
            ReadStep::Teardown => {
                teardown_peer(shared, poller, conns, peer);
                return;
            }
        }
    }
}

/// Delivers `ev` to the inbox, or parks it behind the peer's existing
/// backlog (order is preserved: once anything is parked, everything
/// later parks too).
fn park_or_deliver(shared: &Arc<Shared>, conn: &mut Conn, ev: NetEvent) {
    if conn.parked.is_empty() {
        match shared.inbox_tx.try_send(ev) {
            Ok(()) => {}
            Err(TrySendError::Full(ev)) => {
                conn.parked.push_back(ev);
                shared.stalled.store(true, Ordering::Relaxed);
            }
            Err(TrySendError::Disconnected(_)) => {} // endpoint is gone
        }
    } else {
        conn.parked.push_back(ev);
    }
}

/// Retries parked deliveries (the consumer drained some inbox space or
/// the fallback timeout fired); re-arms read interest for peers whose
/// backlog cleared and retires connections that finished dying.
fn deliver_parked(shared: &Arc<Shared>, poller: &Poller, conns: &mut [Option<Conn>]) {
    let mut any_left = false;
    for (peer, slot) in conns.iter_mut().enumerate() {
        let Some(conn) = slot.as_mut() else { continue };
        while let Some(ev) = conn.parked.pop_front() {
            if let Err(TrySendError::Full(ev)) = shared.inbox_tx.try_send(ev) {
                conn.parked.push_front(ev);
                break;
            }
        }
        if conn.parked.is_empty() {
            if conn.gone {
                *slot = None; // dropping the stream closes the fd
            } else if conn.interest & EPOLLIN == 0 {
                let want = conn.interest | EPOLLIN;
                set_interest(poller, conn, peer, want);
            }
        } else {
            any_left = true;
        }
    }
    shared.stalled.store(any_left, Ordering::Relaxed);
}

/// The connection to `peer` is finished (EOF, reset, corrupt stream,
/// write failure): close it, fail its senders, and queue the typed
/// death notice behind the peer's completed frames.
fn teardown_peer(shared: &Arc<Shared>, poller: &Poller, conns: &mut [Option<Conn>], peer: usize) {
    let Some(conn) = conns[peer].as_mut() else { return };
    if conn.gone {
        return;
    }
    conn.gone = true;
    let _ = poller.deregister(conn.stream.as_raw_fd());
    let _ = conn.stream.shutdown(Shutdown::Both);
    if let Some(peer_send) = shared.peers[peer].as_ref() {
        let mut st = peer_send.queue.lock().unwrap();
        st.dead = true;
        st.q.clear();
        peer_send.space.notify_all();
    }
    // PeerDown rides the same per-peer order as the frames before it.
    park_or_deliver(shared, conn, NetEvent::PeerDown(peer));
    if conn.parked.is_empty() {
        conns[peer] = None;
    }
}

/// Applies an interest change, swallowing errors on dying fds (the
/// teardown path owns those).
fn set_interest(poller: &Poller, conn: &mut Conn, peer: usize, want: u32) {
    if want == conn.interest {
        return;
    }
    if poller.modify(conn.stream.as_raw_fd(), peer as u64, want).is_ok() {
        conn.interest = want;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::TransportEndpoint;
    use bytes::Bytes;

    #[test]
    fn oversized_queue_admits_single_large_frame() {
        let mut net = EventedNetwork::loopback(2, 4).unwrap();
        let a = net.take(0);
        let b = net.take(1);
        // Larger than SEND_QUEUE_CAP_BYTES: must be admitted (empty
        // queue), transferred whole, and received intact.
        let big: Vec<u8> = (0..SEND_QUEUE_CAP_BYTES + 1024)
            .map(|i| (i as u32).wrapping_mul(2_654_435_761) as u8)
            .collect();
        let expect = big.clone();
        let t = std::thread::spawn(move || {
            a.send(1, Bytes::from(big)).unwrap();
            a // keep the endpoint alive until the frame is consumed
        });
        let f = b.recv().unwrap();
        assert_eq!(f.payload.len(), expect.len());
        assert_eq!(&f.payload[..], &expect[..], "large frame corrupted");
        t.join().unwrap();
    }
}
