//! Sockets under the transport core: the one frame codec, the mesh
//! bootstrap every socket backend starts from, and the thread-per-peer
//! backend itself.
//!
//! The paper runs its master/slave/collector nodes over mpiJava on a
//! real shared-nothing cluster; this module supplies the equivalent
//! substrate for the Rust reproduction:
//!
//! * **Framing** — every byte stream in the workspace (both socket
//!   backends, the bootstrap, `windjoin-serve`'s client protocol)
//!   carries payloads as `[len: u32 LE][bytes]`, and this is the
//!   codec's one home. A stream a thread may park on uses
//!   [`write_frame`] (one vectored write, no staging copy) and
//!   [`read_frame`] (exactly-sized payload buffer, no zero-fill). A
//!   nonblocking or timed-out reader must not lose a half-read frame:
//!   [`FrameDecoder`] reassembles arbitrarily torn reads (a length
//!   prefix split across TCP segments, frames spanning reads, several
//!   frames per read), and [`encode_frame_into`] frames a payload into
//!   a queue buffer for a later write.
//! * **Bootstrap** — a rank-handshake mesh: every rank listens on its
//!   address from the shared peer list; for each pair the higher rank
//!   dials the lower and announces itself with a `HELLO` (magic,
//!   protocol version, rank). Once a rank holds all `n-1` connections
//!   it runs a barrier through rank 0 (`READY`/`GO`), so the full mesh
//!   exists before any protocol traffic flows. It is written once, for
//!   any [`SocketBackend`]: [`Mesh::establish`] is the multi-process
//!   entry point (used by the `windjoin-node` binary), [`Mesh::loopback`]
//!   builds an in-process mesh over `127.0.0.1` for tests and demos.
//! * **Thread-per-peer I/O** — [`ThreadedIo`] preserves the paper's
//!   §III blocking regime: sends write straight onto the peer's socket,
//!   one reader thread per peer feeds the endpoint's bounded inbox;
//!   when the inbox is full the readers stop pulling off their
//!   sockets, so TCP flow control propagates backpressure to the
//!   sender exactly like the bounded channel backend does.

use crate::poll::{Poller, EPOLLIN};
use crate::transport::backend::{self, WireCounters};
use crate::transport::{Disconnected, Endpoint, Frame, Mesh, NetEvent};
use bytes::Bytes;
use crossbeam::channel::{bounded, Sender};
use std::io::{BufReader, IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Bytes of the `[len: u32 LE]` prefix in front of every frame.
pub const FRAME_HEADER_BYTES: usize = 4;

/// Upper bound on a single frame's payload. Frames are epoch batches
/// (thousands of 64-byte tuples) or partition states; 256 MiB is far
/// above anything legitimate and stops a corrupt or hostile length
/// prefix from driving an unbounded allocation.
pub const MAX_FRAME_BYTES: usize = 256 * 1024 * 1024;

const HELLO_MAGIC: u32 = 0x574A_4E31; // "WJN1"
const PROTO_VERSION: u8 = 1;
const CTRL_READY: u8 = 0xA1;
const CTRL_GO: u8 = 0xA2;

/// Frame-codec failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The length prefix announces a frame above [`MAX_FRAME_BYTES`].
    TooLarge(u32),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::TooLarge(n) => {
                write!(f, "frame of {n} bytes exceeds the {MAX_FRAME_BYTES} byte cap")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Replaces `out`'s content with `payload` as a length-prefixed wire
/// frame, reusing its capacity.
pub fn encode_frame_into(payload: &[u8], out: &mut Vec<u8>) {
    assert_frame_size(payload.len());
    out.clear();
    out.reserve(FRAME_HEADER_BYTES + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Encodes one payload as a length-prefixed wire frame.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_frame_into(payload, &mut out);
    out
}

/// Incremental decoder for length-prefixed frames.
///
/// Feed it whatever the socket yields — bytes arrive in arbitrary
/// chunks — and pop complete frames as they materialize:
///
/// ```
/// use windjoin_net::tcp::{encode_frame, FrameDecoder};
///
/// let wire = [encode_frame(b"one"), encode_frame(b"two")].concat();
/// let mut dec = FrameDecoder::new();
/// // Torn delivery: split mid-prefix and mid-payload.
/// dec.feed(&wire[..3]);
/// assert!(dec.next_frame().unwrap().is_none());
/// dec.feed(&wire[3..9]);
/// assert_eq!(&dec.next_frame().unwrap().unwrap()[..], b"one");
/// dec.feed(&wire[9..]);
/// assert_eq!(&dec.next_frame().unwrap().unwrap()[..], b"two");
/// assert!(dec.next_frame().unwrap().is_none());
/// ```
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Read position within `buf`; consumed bytes are compacted lazily.
    pos: usize,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Appends freshly received bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Compact before growing: keeps the buffer bounded by one
        // maximal frame plus one read.
        if self.pos > 0 && (self.pos >= self.buf.len() || self.pos > 64 * 1024) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet returned as frames.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Pops the next complete frame, if one is buffered.
    pub fn next_frame(&mut self) -> Result<Option<Bytes>, FrameError> {
        let avail = &self.buf[self.pos..];
        if avail.len() < FRAME_HEADER_BYTES {
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[..FRAME_HEADER_BYTES].try_into().unwrap());
        if len as usize > MAX_FRAME_BYTES {
            return Err(FrameError::TooLarge(len));
        }
        let total = FRAME_HEADER_BYTES + len as usize;
        if avail.len() < total {
            return Ok(None);
        }
        let payload = Bytes::from(avail[FRAME_HEADER_BYTES..total].to_vec());
        self.pos += total;
        Ok(Some(payload))
    }
}

/// Panics on a payload above [`MAX_FRAME_BYTES`]: the receiver would
/// drop the connection on the oversized length prefix, so failing
/// loudly at the source beats silently killing the link.
pub(crate) fn assert_frame_size(len: usize) {
    assert!(len <= MAX_FRAME_BYTES, "frame of {len} bytes exceeds the {MAX_FRAME_BYTES} byte cap");
}

/// Backoff before dial retry `attempt` from `rank` to `peer`: capped
/// exponential (5 ms · 2^attempt, capped at 320 ms) plus deterministic
/// jitter of up to half the step, mixed from the rank pair and attempt
/// number — reproducible across runs, yet de-synchronized across the
/// ranks that mass-redial a restarted or newly promoted peer.
fn dial_backoff(rank: usize, peer: usize, attempt: u32) -> Duration {
    let step_ms = 5u64 << attempt.min(6); // 5, 10, .., 320 ms
    let mut x = (rank as u64) << 40 | (peer as u64) << 20 | attempt as u64 | 1;
    // xorshift64* mix; no external RNG dependency needed.
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    let jitter_ms = x.wrapping_mul(0x2545_F491_4F6C_DD1D) % (step_ms / 2 + 1);
    Duration::from_millis(step_ms + jitter_ms)
}

/// Time left until `deadline`, floored at 1 ms (`set_read_timeout`
/// rejects a zero duration).
fn remaining(deadline: Instant) -> Duration {
    deadline.saturating_duration_since(Instant::now()).max(Duration::from_millis(1))
}

/// Writes `[len: u32 LE][payload]` as one vectored write per round —
/// one syscall per frame on the steady-state path, with no staging copy
/// to prepend the four header bytes. Short writes resume wherever the
/// writer stopped, mid-header included. Panics on a payload above
/// [`MAX_FRAME_BYTES`].
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> std::io::Result<()> {
    assert_frame_size(payload.len());
    let header = (payload.len() as u32).to_le_bytes();
    let mut written = 0;
    while written < FRAME_HEADER_BYTES + payload.len() {
        let round = if written < FRAME_HEADER_BYTES {
            w.write_vectored(&[IoSlice::new(&header[written..]), IoSlice::new(payload)])
        } else {
            w.write(&payload[written - FRAME_HEADER_BYTES..])
        };
        match round {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => written += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// Reads one frame. The length prefix is the peer's claim: it reserves
/// address space but the payload is filled only as bytes arrive (no
/// zero-fill pass, no committed memory for bytes never sent), and a
/// stream that ends short of it is `UnexpectedEof`.
pub fn read_frame<R: Read>(r: &mut R) -> std::io::Result<Vec<u8>> {
    let mut hdr = [0u8; FRAME_HEADER_BYTES];
    r.read_exact(&mut hdr)?;
    let len = u32::from_le_bytes(hdr) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            FrameError::TooLarge(len as u32),
        ));
    }
    let mut payload = Vec::with_capacity(len);
    if r.take(len as u64).read_to_end(&mut payload)? < len {
        return Err(std::io::ErrorKind::UnexpectedEof.into());
    }
    Ok(payload)
}

/// A backend that runs over the bootstrap's per-peer streams. Sealed:
/// its supertrait lives in a crate-private module.
pub trait SocketBackend: backend::Io + Sized {
    /// Takes over rank `rank`'s established streams (`None` at its own
    /// slot): completed frames and [`NetEvent::PeerDown`] notices go to
    /// `inbox`, wire bytes are tallied in `stats`.
    #[doc(hidden)]
    fn start(
        rank: usize,
        streams: Vec<Option<TcpStream>>,
        inbox: Sender<NetEvent>,
        stats: Arc<WireCounters>,
    ) -> std::io::Result<Self>;
}

impl<B: SocketBackend> Endpoint<B> {
    /// Wraps established streams in an endpoint with a `capacity`-frame
    /// inbox.
    pub(crate) fn over_streams(
        rank: usize,
        streams: Vec<Option<TcpStream>>,
        capacity: usize,
    ) -> std::io::Result<Self> {
        assert!(capacity > 0, "capacity must be positive");
        let ranks = streams.len();
        let inbox = bounded(capacity);
        let stats = Arc::new(WireCounters::default());
        let io = B::start(rank, streams, inbox.0.clone(), stats.clone())?;
        Ok(Endpoint::new(rank, ranks, inbox, stats, io))
    }
}

/// The bootstrap paths of a socket mesh, for either backend
/// ([`TcpNetwork`] and [`EventedNetwork`](crate::evented::EventedNetwork)
/// are this type). The network itself lives in the resulting endpoints
/// (one per process or thread), not in a central object — it is a
/// shared-nothing mesh.
impl<B: SocketBackend> Mesh<Endpoint<B>> {
    /// Establishes this rank's corner of the full mesh, blocking until
    /// every pairwise connection exists and the rank-0 barrier has
    /// released the run.
    ///
    /// `peers[r]` is the address rank `r` listens on; `peers.len()` is
    /// the cluster size. Dial retries cover slow-starting peers up to
    /// `timeout`.
    pub fn establish(
        rank: usize,
        peers: &[SocketAddr],
        capacity: usize,
        timeout: Duration,
    ) -> std::io::Result<Endpoint<B>> {
        let listener = TcpListener::bind(peers[rank])?;
        Self::establish_with_listener(rank, peers, listener, capacity, timeout)
    }

    /// [`establish`](Self::establish) with a pre-bound listener —
    /// lets a caller bind port 0 first and share the resolved
    /// addresses (the loopback path).
    pub fn establish_with_listener(
        rank: usize,
        peers: &[SocketAddr],
        listener: TcpListener,
        capacity: usize,
        timeout: Duration,
    ) -> std::io::Result<Endpoint<B>> {
        let streams = establish_mesh(rank, peers, listener, timeout)?;
        Endpoint::over_streams(rank, streams, capacity)
    }

    /// Builds a full `n`-rank mesh over `127.0.0.1` inside one process
    /// (ephemeral ports, no address coordination), for tests, demos
    /// and the saturation benchmark.
    pub fn loopback(n: usize, capacity: usize) -> std::io::Result<Self> {
        let endpoints = loopback_meshes(n)?
            .into_iter()
            .enumerate()
            .map(|(rank, streams)| Endpoint::over_streams(rank, streams, capacity))
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(Mesh::of(endpoints))
    }
}

/// Establishes this rank's corner of the full mesh — the HELLO dial /
/// accept exchange plus the rank-0 READY/GO barrier — and returns the
/// raw per-peer streams (`None` at this rank's own slot). Both socket
/// backends start from exactly these streams, so the handshake protocol
/// is shared code, not a re-implementation.
fn establish_mesh(
    rank: usize,
    peers: &[SocketAddr],
    listener: TcpListener,
    timeout: Duration,
) -> std::io::Result<Vec<Option<TcpStream>>> {
    let n = peers.len();
    assert!(rank < n, "rank out of range");
    let deadline = Instant::now() + timeout;

    // Accept side: ranks above ours dial us and announce themselves.
    // The deadline applies here too — a rank that never starts must
    // fail the whole bootstrap, not hang the ranks waiting on it.
    // Within the window the acceptor is forgiving: a dialer that
    // connects but fails the hello (crashed mid-handshake, garbage
    // announce) is dropped, and a *repeat* hello from a rank we
    // already hold replaces the stale connection — a dialer that
    // crashed after a successful hello can restart and redial while
    // the window is open. (Once every expected hello is in, the
    // window closes; a crash after that fails the barrier loudly
    // and the whole launch is retried by the caller.)
    let expected_inbound = n - 1 - rank;
    let acceptor = std::thread::spawn(move || -> std::io::Result<Vec<Option<TcpStream>>> {
        // Nonblocking accepts behind a readiness wait: the deadline
        // stays enforceable and a dialer is picked up when it arrives.
        listener.set_nonblocking(true)?;
        let poller = Poller::new()?;
        poller.register(listener.as_raw_fd(), 0, EPOLLIN)?;
        let mut ready = Vec::new();
        let mut inbound: Vec<Option<TcpStream>> = (0..n).map(|_| None).collect();
        let mut filled = 0;
        while filled < expected_inbound {
            let (mut stream, _) = match listener.accept() {
                Ok(accepted) => accepted,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::TimedOut,
                            format!(
                                "waited for {} inbound rank(s) that never dialed",
                                expected_inbound - filled
                            ),
                        ));
                    }
                    poller.wait(&mut ready, Some(remaining(deadline)))?;
                    continue;
                }
                Err(e) => return Err(e),
            };
            let handshake = (|| -> std::io::Result<usize> {
                stream.set_nonblocking(false)?;
                stream.set_nodelay(true)?;
                // Bound the hello read: a dialer that connects
                // but never announces must not stall the mesh.
                stream.set_read_timeout(Some(remaining(deadline)))?;
                let hello = read_frame(&mut stream)?;
                stream.set_read_timeout(None)?;
                parse_hello(&hello)
            })();
            match handshake {
                Ok(peer) if peer > rank && peer < n => {
                    if inbound[peer].is_none() {
                        filled += 1;
                    }
                    // Newest connection wins: it is the one a
                    // restarted peer will actually use.
                    inbound[peer] = Some(stream);
                }
                // Bad or torn hello: drop the connection and
                // keep the accept window open for a redial.
                _ => drop(stream),
            }
        }
        Ok(inbound)
    });

    // Dial side: we dial every rank below ours, retrying the whole
    // connect-and-hello exchange while the peer's listener comes up
    // (or comes *back* up after a crash-restart within the window).
    // Retries back off exponentially with deterministic per-rank
    // jitter: after a failover every surviving rank redials the new
    // leader at once, and a fixed sleep would thundering-herd its
    // listener in lockstep.
    let mut streams: Vec<Option<TcpStream>> = (0..n).map(|_| None).collect();
    for (lower, addr) in peers.iter().enumerate().take(rank) {
        let mut attempt_no: u32 = 0;
        let stream = loop {
            let attempt = (|| -> std::io::Result<TcpStream> {
                let mut s = TcpStream::connect(addr)?;
                s.set_nodelay(true)?;
                let mut hello = Vec::with_capacity(9);
                hello.extend_from_slice(&HELLO_MAGIC.to_le_bytes());
                hello.push(PROTO_VERSION);
                hello.extend_from_slice(&(rank as u32).to_le_bytes());
                write_frame(&mut s, &hello)?;
                Ok(s)
            })();
            match attempt {
                Ok(s) => break s,
                Err(e) => {
                    if Instant::now() >= deadline {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::TimedOut,
                            format!("dialing rank {lower} at {addr}: {e}"),
                        ));
                    }
                    std::thread::sleep(dial_backoff(rank, lower, attempt_no));
                    attempt_no = attempt_no.saturating_add(1);
                }
            }
        };
        streams[lower] = Some(stream);
    }

    for (peer, stream) in
        acceptor.join().expect("acceptor thread panicked")?.into_iter().enumerate()
    {
        if let Some(stream) = stream {
            debug_assert!(peer > rank && peer < n && streams[peer].is_none());
            streams[peer] = Some(stream);
        }
    }

    // Barrier through rank 0: nobody proceeds until everyone holds
    // the full mesh ("full mesh established before the run starts").
    // Barrier reads share the bootstrap deadline; the timeouts are
    // cleared before the streams go live.
    if n > 1 {
        if rank == 0 {
            for s in streams.iter_mut().flatten() {
                s.set_read_timeout(Some(remaining(deadline)))?;
                let ctrl = read_frame(s)?;
                check_ctrl(&ctrl, CTRL_READY)?;
                s.set_read_timeout(None)?;
            }
            for s in streams.iter_mut().flatten() {
                write_frame(s, &[CTRL_GO])?;
            }
        } else {
            let zero = streams[0].as_mut().expect("stream to rank 0");
            write_frame(zero, &[CTRL_READY])?;
            zero.set_read_timeout(Some(remaining(deadline)))?;
            let ctrl = read_frame(zero)?;
            check_ctrl(&ctrl, CTRL_GO)?;
            zero.set_read_timeout(None)?;
        }
    }

    Ok(streams)
}

/// Runs [`establish_mesh`] for all `n` ranks of an ephemeral-port
/// `127.0.0.1` cluster concurrently (the handshake needs every rank in
/// flight at once) and returns each rank's streams.
fn loopback_meshes(n: usize) -> std::io::Result<Vec<Vec<Option<TcpStream>>>> {
    assert!(n > 0);
    let mut listeners = Vec::with_capacity(n);
    let mut peers = Vec::with_capacity(n);
    for _ in 0..n {
        let l = TcpListener::bind((std::net::Ipv4Addr::LOCALHOST, 0))?;
        peers.push(l.local_addr()?);
        listeners.push(l);
    }
    let handles: Vec<_> = listeners
        .into_iter()
        .enumerate()
        .map(|(rank, listener)| {
            let peers = peers.clone();
            std::thread::spawn(move || {
                establish_mesh(rank, &peers, listener, Duration::from_secs(10))
            })
        })
        .collect();
    let mut meshes = Vec::with_capacity(n);
    for h in handles {
        meshes.push(h.join().expect("bootstrap thread panicked")?);
    }
    Ok(meshes)
}

fn parse_hello(frame: &[u8]) -> std::io::Result<usize> {
    let bad = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
    if frame.len() != 9 {
        return Err(bad(format!("hello frame of {} bytes", frame.len())));
    }
    let magic = u32::from_le_bytes(frame[..4].try_into().unwrap());
    if magic != HELLO_MAGIC {
        return Err(bad(format!("bad hello magic {magic:#X}")));
    }
    if frame[4] != PROTO_VERSION {
        return Err(bad(format!("protocol version {} != {PROTO_VERSION}", frame[4])));
    }
    Ok(u32::from_le_bytes(frame[5..9].try_into().unwrap()) as usize)
}

fn check_ctrl(frame: &[u8], expected: u8) -> std::io::Result<()> {
    if frame != [expected] {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("expected control byte {expected:#X}, got {frame:?}"),
        ));
    }
    Ok(())
}

/// A thread-per-peer socket mesh.
pub type TcpNetwork = Mesh<TcpEndpoint>;

/// One rank's handle on a [`TcpNetwork`].
pub type TcpEndpoint = Endpoint<ThreadedIo>;

/// The thread-per-peer backend: sends write length-prefixed frames
/// straight onto the peer's socket (kernel buffers provide the blocking
/// backpressure); one reader thread per peer feeds the inbox — when it
/// is full the readers stop reading, so the peer's sends eventually
/// block.
#[derive(Debug)]
pub struct ThreadedIo {
    /// Write halves, `None` at our own rank. `Mutex` keeps concurrent
    /// sends to the same peer from interleaving partial frames.
    writers: Vec<Option<Mutex<TcpStream>>>,
    stats: Arc<WireCounters>,
}

impl SocketBackend for ThreadedIo {
    fn start(
        rank: usize,
        streams: Vec<Option<TcpStream>>,
        inbox: Sender<NetEvent>,
        stats: Arc<WireCounters>,
    ) -> std::io::Result<Self> {
        let mut writers = Vec::with_capacity(streams.len());
        for (peer, stream) in streams.into_iter().enumerate() {
            let Some(stream) = stream else {
                writers.push(None);
                continue;
            };
            let reader = stream.try_clone()?;
            writers.push(Some(Mutex::new(stream)));
            let (tx, counters) = (inbox.clone(), stats.clone());
            std::thread::Builder::new()
                .name(format!("wj-net-r{rank}-p{peer}"))
                .spawn(move || reader_loop(peer, reader, tx, counters))?;
        }
        Ok(ThreadedIo { writers, stats })
    }
}

impl backend::Io for ThreadedIo {
    /// Header and payload go out in one vectored write — no allocation,
    /// no copy of the payload.
    fn send_slice(&self, to: usize, payload: &[u8]) -> Result<(), Disconnected> {
        assert_frame_size(payload.len()); // before the lock: a panic must not poison it
        let writer = self.writers[to].as_ref().expect("send to unconnected rank");
        let mut writer = writer.lock().unwrap();
        write_frame(&mut *writer, payload).map_err(|_| Disconnected)?;
        self.stats.add_sent(FRAME_HEADER_BYTES + payload.len());
        Ok(())
    }
}

impl Drop for ThreadedIo {
    fn drop(&mut self) {
        // Unblock our reader threads (and tell peers we are gone):
        // `try_clone`d fds keep the connection alive, so an explicit
        // shutdown is required, not just dropping the write halves.
        for writer in self.writers.iter().flatten() {
            if let Ok(writer) = writer.lock() {
                let _ = writer.shutdown(Shutdown::Both);
            }
        }
    }
}

fn reader_loop(peer: usize, stream: TcpStream, tx: Sender<NetEvent>, stats: Arc<WireCounters>) {
    // Frames are read straight out of one reused buffered reader into
    // the vector that becomes the frame (its one and only allocation).
    // No intermediate reassembly buffer, no extra copy.
    let mut rd = BufReader::with_capacity(256 * 1024, stream);
    // Ends on EOF (the peer closed, or we shut down), a corrupt length
    // prefix, or a frame torn mid-payload, whose partial bytes are
    // discarded.
    while let Ok(payload) = read_frame(&mut rd) {
        stats.add_recvd(FRAME_HEADER_BYTES + payload.len());
        // A full inbox blocks here, which stops this read loop, which
        // fills the kernel buffers, which blocks the sender: end-to-end
        // backpressure.
        if tx.send(NetEvent::Frame(Frame { from: peer, payload: Bytes::from(payload) })).is_err() {
            return; // our own endpoint is gone; nobody to notify
        }
    }
    // The connection tore down — EOF, reset, corrupt length prefix or a
    // frame cut off mid-payload. Surface a typed death notice *after*
    // every frame the peer completed, instead of going silent.
    let _ = tx.send(NetEvent::PeerDown(peer));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::TransportEndpoint;

    #[test]
    fn frame_codec_roundtrips_through_torn_reads() {
        let frames: Vec<Vec<u8>> = vec![b"".to_vec(), b"a".to_vec(), vec![7u8; 100_000]];
        let wire: Vec<u8> = frames.iter().flat_map(|f| encode_frame(f)).collect();
        // Feed in pathological 1..7-byte slivers.
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        let mut i = 0;
        let mut step = 1;
        while i < wire.len() {
            let end = (i + step).min(wire.len());
            dec.feed(&wire[i..end]);
            while let Some(f) = dec.next_frame().unwrap() {
                got.push(f.to_vec());
            }
            i = end;
            step = step % 7 + 1;
        }
        assert_eq!(got, frames);
        assert_eq!(dec.pending_bytes(), 0);
    }

    #[test]
    fn oversized_length_prefix_is_rejected_not_allocated() {
        let mut dec = FrameDecoder::new();
        dec.feed(&u32::MAX.to_le_bytes());
        assert_eq!(dec.next_frame(), Err(FrameError::TooLarge(u32::MAX)));
    }

    /// Accepts 1–7 bytes per call (the short-write shape
    /// `proptest_frame_writer.rs` drives the evented queue with), with a
    /// signal landing before every third call.
    #[derive(Default)]
    struct SliverWriter {
        out: Vec<u8>,
        calls: usize,
    }

    impl Write for SliverWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.calls += 1;
            if self.calls.is_multiple_of(3) {
                return Err(std::io::ErrorKind::Interrupted.into());
            }
            let mut left = self.calls % 7 + 1;
            let mut total = 0;
            for b in bufs {
                let k = left.min(b.len());
                self.out.extend_from_slice(&b[..k]);
                left -= k;
                total += k;
            }
            Ok(total)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_frame_resumes_short_writes_at_any_byte() {
        let big: Vec<u8> = (0..3 * 1024 * 1024).map(|i| (i % 251) as u8).collect();
        let mut w = SliverWriter::default();
        for payload in [&b""[..], &b"x"[..], &big[..]] {
            write_frame(&mut w, payload).unwrap();
        }
        let wire = [encode_frame(b""), encode_frame(b"x"), encode_frame(&big)].concat();
        assert!(w.out == wire, "slivered writes must reassemble to the framed bytes");
        // ...and the read half takes the same bytes back apart.
        let mut rd = &w.out[..];
        for payload in [&b""[..], &b"x"[..], &big[..]] {
            assert!(read_frame(&mut rd).unwrap() == payload);
        }
        assert!(rd.is_empty());
    }

    #[test]
    fn write_frame_reports_a_writer_that_accepts_nothing() {
        struct Full;
        impl Write for Full {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let err = write_frame(&mut Full, b"payload").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::WriteZero);
    }

    #[test]
    fn a_frame_cut_short_of_its_announced_length_is_an_error_not_a_prefix() {
        // 100 MiB announced, 10 bytes sent: nothing near the announced
        // size is ever touched, and the reader sees a torn frame.
        let mut wire = (100u32 << 20).to_le_bytes().to_vec();
        wire.extend_from_slice(&[7u8; 10]);
        let err = read_frame(&mut &wire[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        let oversized = u32::MAX.to_le_bytes();
        let err = read_frame(&mut &oversized[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn torn_connection_mid_frame_yields_peer_down_not_hang() {
        // A raw peer announces a 100-byte frame, delivers 10 bytes and
        // vanishes. The reader must discard the partial frame and
        // surface a typed PeerDown — no panic, no silent hang.
        let listener = TcpListener::bind((std::net::Ipv4Addr::LOCALHOST, 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&100u32.to_le_bytes()).unwrap();
            s.write_all(&[7u8; 10]).unwrap();
        });
        let (accepted, _) = listener.accept().unwrap();
        let ep = TcpEndpoint::over_streams(0, vec![None, Some(accepted)], 8).unwrap();
        raw.join().unwrap();
        match ep.recv_event_timeout(Duration::from_secs(5)).unwrap() {
            Some(NetEvent::PeerDown(1)) => {}
            other => panic!("expected PeerDown(1), got {other:?}"),
        }
    }

    #[test]
    fn corrupt_length_prefix_yields_peer_down() {
        // An oversized length prefix is a corrupt stream: the reader
        // drops the connection and reports the peer down.
        let listener = TcpListener::bind((std::net::Ipv4Addr::LOCALHOST, 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&u32::MAX.to_le_bytes()).unwrap();
        });
        let (accepted, _) = listener.accept().unwrap();
        let ep = TcpEndpoint::over_streams(0, vec![None, Some(accepted)], 8).unwrap();
        raw.join().unwrap();
        match ep.recv_event_timeout(Duration::from_secs(5)).unwrap() {
            Some(NetEvent::PeerDown(1)) => {}
            other => panic!("expected PeerDown(1), got {other:?}"),
        }
    }

    #[test]
    fn crashed_dialer_can_redial_while_the_window_is_open() {
        // Rank 1 "crashes" right after a successful hello, then
        // restarts and redials. The acceptor must replace the stale
        // connection with the redial instead of keeping the dead
        // socket, so the mesh completes over live links.
        let listeners: Vec<TcpListener> = (0..3)
            .map(|_| TcpListener::bind((std::net::Ipv4Addr::LOCALHOST, 0)).unwrap())
            .collect();
        let peers: Vec<SocketAddr> = listeners.iter().map(|l| l.local_addr().unwrap()).collect();
        let mut listeners = listeners.into_iter();
        let l0 = listeners.next().unwrap();
        let l1 = listeners.next().unwrap();
        let l2 = listeners.next().unwrap();

        let window = Duration::from_secs(10);
        let h0 = {
            let peers = peers.clone();
            std::thread::spawn(move || {
                TcpNetwork::establish_with_listener(0, &peers, l0, 8, window)
            })
        };
        // First incarnation of rank 1: hello succeeds, then it dies.
        {
            let mut s = TcpStream::connect(peers[0]).unwrap();
            let mut hello = Vec::with_capacity(9);
            hello.extend_from_slice(&HELLO_MAGIC.to_le_bytes());
            hello.push(PROTO_VERSION);
            hello.extend_from_slice(&1u32.to_le_bytes());
            write_frame(&mut s, &hello).unwrap();
        } // dropped: crash after the hello
        std::thread::sleep(Duration::from_millis(100));
        // Restarted rank 1 redials; rank 2 starts last so rank 0's
        // accept window is still open when the redial arrives.
        let h1 = {
            let peers = peers.clone();
            std::thread::spawn(move || {
                TcpNetwork::establish_with_listener(1, &peers, l1, 8, window)
            })
        };
        std::thread::sleep(Duration::from_millis(200));
        let e2 = TcpNetwork::establish_with_listener(2, &peers, l2, 8, window).unwrap();
        let e0 = h0.join().unwrap().unwrap();
        let e1 = h1.join().unwrap().unwrap();

        e1.send(0, Bytes::from_static(b"alive")).unwrap();
        let f = e0.recv().unwrap();
        assert_eq!((f.from, &f.payload[..]), (1, &b"alive"[..]));
        drop(e2);
    }

    #[test]
    fn dial_timeout_reported() {
        // Nobody listens on the rank-1 address; rank 1 establishing
        // with an unreachable rank 0 must time out, not hang.
        let peers = vec!["127.0.0.1:1".parse().unwrap(), "127.0.0.1:2".parse().unwrap()];
        let err = TcpNetwork::establish(1, &peers, 8, Duration::from_millis(200));
        assert!(err.is_err());
    }

    #[test]
    fn dial_backoff_grows_caps_and_desynchronizes() {
        // Exponential growth up to the cap: each step's floor doubles.
        for a in 0..6u32 {
            let lo = Duration::from_millis(5 << a);
            let hi = Duration::from_millis((5 << a) + (5 << a) / 2);
            let d = dial_backoff(3, 0, a);
            assert!(d >= lo && d <= hi, "attempt {a}: {d:?} outside [{lo:?}, {hi:?}]");
        }
        // Capped: attempt 20 sleeps no longer than 320 ms + half jitter.
        assert!(dial_backoff(3, 0, 20) <= Duration::from_millis(480));
        // Deterministic per (rank, peer, attempt)...
        assert_eq!(dial_backoff(5, 1, 2), dial_backoff(5, 1, 2));
        // ...and distinct ranks mass-redialing the same peer at the
        // same attempt spread out instead of herding in lockstep.
        let delays: std::collections::HashSet<Duration> =
            (1..32).map(|r| dial_backoff(r, 0, 4)).collect();
        assert!(delays.len() > 16, "jitter must spread 31 ranks, got {}", delays.len());
    }
}
