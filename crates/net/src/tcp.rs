//! Sockets under the transport contract: the one frame codec, the mesh
//! bootstrap, and the socket endpoint itself.
//!
//! The paper runs its master/slave/collector nodes over mpiJava on a
//! real shared-nothing cluster; this module supplies the equivalent
//! substrate for the Rust reproduction:
//!
//! * **Framing** — every byte stream in the workspace (the mesh, the
//!   bootstrap, `windjoin-serve`'s client protocol) carries payloads as
//!   `[len: u32 LE][bytes]`, and this is the codec's one home. A
//!   blocking stream uses [`write_frame`] (vectored writes, no staging
//!   copy) and [`read_frame`] (exactly-sized payload buffer, no
//!   zero-fill). A nonblocking socket may stop anywhere:
//!   [`write_frame_from`] resumes a frame at any byte, and
//!   [`FrameDecoder`] reads straight off a socket and reassembles
//!   arbitrarily torn reads (a length prefix split across TCP segments,
//!   frames spanning reads, several frames per read).
//! * **Bootstrap** — a rank-handshake mesh: every rank listens on its
//!   address from the shared peer list; for each pair the higher rank
//!   dials the lower and announces itself with a `HELLO` (magic,
//!   protocol version, rank). Once a rank holds all `n-1` connections
//!   it runs a barrier through rank 0 (`READY`/`GO`), so the full mesh
//!   exists before any protocol traffic flows. [`TcpNetwork::establish`]
//!   is the multi-process entry point (used by the `windjoin-node`
//!   binary), [`TcpNetwork::loopback`] builds an in-process mesh over
//!   `127.0.0.1` for tests, demos and benchmarks.
//! * **The endpoint** — [`TcpEndpoint`] is driven by the rank's own
//!   thread, with no I/O thread behind it: nonblocking sockets in one
//!   epoll set ([`crate::poll`]), a [`FrameDecoder`] per peer and a
//!   bounded FIFO of decoded frames. A receive waits on the epoll set
//!   to its deadline and decodes what became readable, so a frame
//!   costs its receiver one wake-up. A send writes header and payload
//!   straight from the caller's buffer; when the socket is full it
//!   waits for room while still reading every peer into the FIFO. A
//!   full FIFO stops the reading, and TCP flow control carries the
//!   pressure back to the senders (§III's blocking regime).

use crate::poll::{PollEvent, Poller, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use crate::transport::{Disconnected, Frame, Mesh, NetEvent, TransportEndpoint, WireStats};
use bytes::Bytes;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::{IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
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
///
/// A socket reader calls [`read_from`](Self::read_from) instead of
/// `feed`: the bytes land in the decoder's own buffer, and the payload
/// of a frame above 64 KiB lands straight in the vector that becomes
/// the frame.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    /// Initialised storage; `buf[pos..end]` are the undecoded bytes. It
    /// holds small frames and the start of large ones, so it stays near
    /// one read chunk; its length only grows, so a read zero-fills only
    /// what it grows.
    buf: Vec<u8>,
    pos: usize,
    end: usize,
    /// The payload so far of a frame above one read chunk, in a vector
    /// of its announced length's capacity, and that length.
    large: Option<(Vec<u8>, usize)>,
}

/// Bytes one socket read offers; a frame with a larger payload is read
/// into a vector of its own.
const READ_CHUNK_BYTES: usize = 64 * 1024;

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Makes room for `n` more bytes after `end`, compacting consumed
    /// bytes away first.
    fn reserve(&mut self, n: usize) {
        if self.pos == self.end {
            (self.pos, self.end) = (0, 0);
        } else if self.pos > 0 && self.end + n > self.buf.len() {
            self.buf.copy_within(self.pos..self.end, 0);
            (self.pos, self.end) = (0, self.end - self.pos);
        }
        if self.end + n > self.buf.len() {
            self.buf.resize(self.end + n, 0);
        }
    }

    /// Appends freshly received bytes.
    pub fn feed(&mut self, mut bytes: &[u8]) {
        if let Some((payload, len)) = &mut self.large {
            let k = (*len - payload.len()).min(bytes.len());
            payload.extend_from_slice(&bytes[..k]);
            bytes = &bytes[k..];
        }
        self.reserve(bytes.len());
        self.buf[self.end..self.end + bytes.len()].copy_from_slice(bytes);
        self.end += bytes.len();
    }

    /// One read from `r` straight into the decoder: 64 KiB are offered,
    /// or, while a frame above that size is under way, the rest of its
    /// payload, read into the vector that becomes it. Returns the bytes
    /// read (0 is end of stream) and the bytes offered, so a caller can
    /// tell a drained socket from a full read. A completed large frame
    /// must be taken ([`next_frame`](Self::next_frame)) before the next
    /// read, which until then reports `WouldBlock`.
    pub fn read_from<R: Read>(&mut self, r: &mut R) -> std::io::Result<(usize, usize)> {
        if self.large.is_none() {
            self.start_large();
        }
        if let Some((payload, len)) = &mut self.large {
            let want = *len - payload.len();
            if want == 0 {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            // `read_to_end` fills the reserved capacity without zeroing
            // it first, and keeps what it read when the socket runs dry.
            let before = payload.len();
            let read = r.take(want as u64).read_to_end(payload);
            let n = payload.len() - before;
            return match read {
                Err(e) if n == 0 || e.kind() != std::io::ErrorKind::WouldBlock => Err(e),
                _ => Ok((n, want)),
            };
        }
        self.reserve(READ_CHUNK_BYTES);
        let n = r.read(&mut self.buf[self.end..self.end + READ_CHUNK_BYTES])?;
        self.end += n;
        Ok((n, READ_CHUNK_BYTES))
    }

    /// Moves an incomplete frame above one read chunk out of `buf` into
    /// a vector of its announced length (reserved, not filled: a hostile
    /// length commits no memory).
    fn start_large(&mut self) {
        let Some(total) = self.frame_len() else { return };
        let len = total - FRAME_HEADER_BYTES;
        if len <= READ_CHUNK_BYTES || len > MAX_FRAME_BYTES || self.pending_bytes() >= total {
            return;
        }
        let mut payload = Vec::with_capacity(len);
        payload.extend_from_slice(&self.buf[self.pos + FRAME_HEADER_BYTES..self.end]);
        self.pos = self.end;
        self.large = Some((payload, len));
    }

    /// Bytes buffered but not yet returned as frames.
    pub fn pending_bytes(&self) -> usize {
        let large =
            self.large.as_ref().map_or(0, |(payload, _)| FRAME_HEADER_BYTES + payload.len());
        self.end - self.pos + large
    }

    /// The whole wire length of the next frame in `buf`, once its prefix
    /// is in.
    fn frame_len(&self) -> Option<usize> {
        if self.end - self.pos < FRAME_HEADER_BYTES {
            return None;
        }
        let prefix = &self.buf[self.pos..self.pos + FRAME_HEADER_BYTES];
        Some(FRAME_HEADER_BYTES + u32::from_le_bytes(prefix.try_into().unwrap()) as usize)
    }

    /// Pops the next complete frame, if one is buffered.
    pub fn next_frame(&mut self) -> Result<Option<Bytes>, FrameError> {
        if let Some((payload, len)) = &self.large {
            if payload.len() < *len {
                return Ok(None);
            }
            let (payload, _) = self.large.take().expect("a large frame");
            return Ok(Some(Bytes::from(payload)));
        }
        let Some(total) = self.frame_len() else { return Ok(None) };
        if total - FRAME_HEADER_BYTES > MAX_FRAME_BYTES {
            return Err(FrameError::TooLarge((total - FRAME_HEADER_BYTES) as u32));
        }
        if self.end - self.pos < total {
            return Ok(None);
        }
        let payload =
            Bytes::from(self.buf[self.pos + FRAME_HEADER_BYTES..self.pos + total].to_vec());
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

/// Writes `[len: u32 LE][payload]` to a blocking stream with vectored
/// writes — one syscall per frame on the steady-state path, with no
/// staging copy to prepend the four header bytes. Short writes resume
/// wherever the writer stopped, mid-header included. Panics on a
/// payload above [`MAX_FRAME_BYTES`].
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> std::io::Result<()> {
    write_frame_from(w, payload, &mut 0)?;
    w.flush()
}

/// Writes the frame `[len: u32 LE][payload]` from byte `*written` on,
/// advancing `*written` past every byte the writer takes, until the
/// frame is whole. A nonblocking writer's `WouldBlock` is returned with
/// the progress kept, so the next call resumes at that exact byte
/// (mid-header included); `Interrupted` is retried. Panics on a payload
/// above [`MAX_FRAME_BYTES`].
pub fn write_frame_from<W: Write>(
    w: &mut W,
    payload: &[u8],
    written: &mut usize,
) -> std::io::Result<()> {
    assert_frame_size(payload.len());
    let header = (payload.len() as u32).to_le_bytes();
    while *written < FRAME_HEADER_BYTES + payload.len() {
        let round = if *written < FRAME_HEADER_BYTES {
            w.write_vectored(&[IoSlice::new(&header[*written..]), IoSlice::new(payload)])
        } else {
            w.write(&payload[*written - FRAME_HEADER_BYTES..])
        };
        match round {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => *written += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
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

/// The bootstrap paths of a socket mesh. The network itself lives in
/// the resulting endpoints (one per process or thread), not in a
/// central object — it is a shared-nothing mesh.
impl TcpNetwork {
    /// Establishes this rank's corner of the full mesh, blocking until
    /// every pairwise connection exists and the rank-0 barrier has
    /// released the run. The endpoint queues up to `capacity` decoded
    /// frames.
    ///
    /// `peers[r]` is the address rank `r` listens on; `peers.len()` is
    /// the cluster size. Dial retries cover slow-starting peers up to
    /// `timeout`.
    pub fn establish(
        rank: usize,
        peers: &[SocketAddr],
        capacity: usize,
        timeout: Duration,
    ) -> std::io::Result<TcpEndpoint> {
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
    ) -> std::io::Result<TcpEndpoint> {
        let streams = establish_mesh(rank, peers, listener, timeout)?;
        TcpEndpoint::over_streams(rank, streams, capacity)
    }

    /// Builds a full `n`-rank mesh over `127.0.0.1` inside one process
    /// (ephemeral ports, no address coordination), for tests, demos
    /// and benchmarks. The handshake runs on one thread per rank, all
    /// joined before this returns: the endpoints run no thread.
    pub fn loopback(n: usize, capacity: usize) -> std::io::Result<Self> {
        let endpoints = loopback_meshes(n)?
            .into_iter()
            .enumerate()
            .map(|(rank, streams)| TcpEndpoint::over_streams(rank, streams, capacity))
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(Mesh::of(endpoints))
    }
}

/// Establishes this rank's corner of the full mesh — the HELLO dial /
/// accept exchange plus the rank-0 READY/GO barrier — and returns the
/// raw per-peer streams (`None` at this rank's own slot), blocking and
/// without timeouts.
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

/// A socket mesh: one [`TcpEndpoint`] per rank.
pub type TcpNetwork = Mesh<TcpEndpoint>;

/// Another name for [`TcpNetwork`], kept only because the end-to-end
/// benchmark's adapter (`benchmark/src/sut.rs`) names it; it goes with
/// the next change to the benchmark.
pub type EventedNetwork = TcpNetwork;

/// Interest every live peer socket is registered with.
const READABLE: u32 = EPOLLIN | EPOLLRDHUP;

/// Most bytes a dropping endpoint reads off a socket before closing it:
/// a socket closed with unread bytes resets instead of ending cleanly,
/// and a reset may discard what this rank sent last.
const LINGER_READ_BYTES: usize = 4 * 1024 * 1024;

/// One rank's socket endpoint, driven by the rank's own thread — no
/// reader or poller thread behind it. Its nonblocking peer sockets sit
/// in one epoll set; a receive waits on that set to its deadline and
/// decodes whatever became readable into a bounded FIFO, so a frame
/// costs its receiver one wake-up. A send writes header and payload
/// straight from the caller's buffer; a full socket makes it wait for
/// room while it keeps reading every peer into the FIFO, so two ranks
/// sending each other multi-megabyte frames do not deadlock. A full
/// FIFO stops the reading, and TCP flow control carries the pressure
/// back to the senders. The endpoint is `Send` but not `Sync`: one
/// thread at a time reads and writes its sockets.
///
/// Dropping it closes every socket; the peers observe an orderly
/// [`NetEvent::PeerDown`] after the frames already sent.
#[derive(Debug)]
pub struct TcpEndpoint {
    rank: usize,
    ranks: usize,
    io: RefCell<Sockets>,
}

/// Everything the endpoint's thread mutates.
#[derive(Debug)]
struct Sockets {
    poller: Poller,
    /// Per rank: the live connection; `None` at this rank's own slot
    /// and once the connection tore down.
    peers: Vec<Option<Peer>>,
    /// Decoded events in delivery order; per peer, its frames and then
    /// its `PeerDown`.
    fifo: VecDeque<NetEvent>,
    capacity: usize,
    /// Set when the full FIFO turned away complete frames a decoder
    /// still holds.
    backlog: bool,
    events: Vec<PollEvent>,
    stats: WireStats,
    waited: Duration,
}

#[derive(Debug)]
struct Peer {
    stream: TcpStream,
    decoder: FrameDecoder,
}

impl TcpEndpoint {
    /// Takes over rank `rank`'s established streams (`None` at its own
    /// slot), queueing up to `capacity` decoded frames.
    pub(crate) fn over_streams(
        rank: usize,
        streams: Vec<Option<TcpStream>>,
        capacity: usize,
    ) -> std::io::Result<Self> {
        assert!(capacity > 0, "capacity must be positive");
        let poller = Poller::new()?;
        let ranks = streams.len();
        let mut peers = Vec::with_capacity(ranks);
        for (peer, stream) in streams.into_iter().enumerate() {
            peers.push(match stream {
                Some(stream) => {
                    stream.set_nonblocking(true)?;
                    poller.register(stream.as_raw_fd(), peer as u64, READABLE)?;
                    Some(Peer { stream, decoder: FrameDecoder::new() })
                }
                None => None,
            });
        }
        let io = Sockets {
            poller,
            peers,
            fifo: VecDeque::new(),
            capacity,
            backlog: false,
            events: Vec::new(),
            stats: WireStats::default(),
            waited: Duration::ZERO,
        };
        Ok(TcpEndpoint { rank, ranks, io: RefCell::new(io) })
    }
}

impl Sockets {
    /// Takes the next event; complete frames the full FIFO turned away
    /// move in behind it.
    fn pop(&mut self) -> Option<NetEvent> {
        let ev = self.fifo.pop_front()?;
        if self.backlog {
            self.backlog = false;
            for peer in 0..self.peers.len() {
                self.decode(peer);
            }
        }
        Some(ev)
    }

    /// Moves `peer`'s complete frames from its decoder to the FIFO
    /// while the FIFO has room; a corrupt stream can never resync and
    /// tears the peer down.
    fn decode(&mut self, peer: usize) {
        let Some(p) = self.peers[peer].as_mut() else { return };
        while self.fifo.len() < self.capacity {
            match p.decoder.next_frame() {
                Ok(Some(payload)) => {
                    self.fifo.push_back(NetEvent::Frame(Frame { from: peer, payload }))
                }
                Ok(None) => return,
                Err(_) => return self.teardown(peer),
            }
        }
        self.backlog |= p.decoder.pending_bytes() > 0;
    }

    /// Reads `peer`'s socket until it is drained or the FIFO is full;
    /// EOF and errors tear the peer down.
    fn read(&mut self, peer: usize) {
        while self.fifo.len() < self.capacity {
            let Some(p) = self.peers[peer].as_mut() else { return };
            match p.decoder.read_from(&mut p.stream) {
                Ok((0, _)) => return self.teardown(peer),
                Ok((n, offered)) => {
                    self.stats.bytes_recvd += n as u64;
                    self.decode(peer);
                    if n < offered {
                        return; // drained; the level-triggered set reports more
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return self.teardown(peer),
            }
        }
    }

    /// The connection to `peer` is finished (EOF, reset, corrupt
    /// stream): its complete frames join the FIFO — past its capacity
    /// if need be — followed by the typed death notice, and the socket
    /// closes.
    fn teardown(&mut self, peer: usize) {
        let Some(mut p) = self.peers[peer].take() else { return };
        let _ = self.poller.deregister(p.stream.as_raw_fd());
        while let Ok(Some(payload)) = p.decoder.next_frame() {
            self.fifo.push_back(NetEvent::Frame(Frame { from: peer, payload }));
        }
        self.fifo.push_back(NetEvent::PeerDown(peer));
        let _ = p.stream.shutdown(Shutdown::Both);
    }

    /// Waits up to `timeout` for readiness (`None`: forever, zero: a
    /// poll) and reads every readable peer. Whether `write`'s socket
    /// reported room.
    fn poll(&mut self, timeout: Option<Duration>, write: Option<usize>) -> std::io::Result<bool> {
        let mut events = std::mem::take(&mut self.events);
        let waiting = timeout != Some(Duration::ZERO);
        let t0 = waiting.then(Instant::now);
        let polled = self.poller.wait(&mut events, timeout);
        self.waited += t0.map_or(Duration::ZERO, |t0| t0.elapsed());
        let mut writable = false;
        for ev in &events {
            let peer = ev.token as usize;
            writable |= write == Some(peer) && ev.writable();
            if ev.readable() {
                self.read(peer);
            }
        }
        self.events = events;
        polled.map(|()| writable)
    }

    /// Waits until `to`'s socket takes bytes again, reading every peer
    /// into the FIFO meanwhile — until the FIFO is full, when it waits
    /// on that one socket alone. Returns early if `to` tears down.
    fn wait_writable(&mut self, to: usize) -> std::io::Result<()> {
        let Some(fd) = self.peers[to].as_ref().map(|p| p.stream.as_raw_fd()) else { return Ok(()) };
        self.poller.modify(fd, to as u64, READABLE | EPOLLOUT)?;
        loop {
            if self.peers[to].is_none() {
                return Ok(()); // torn down (and deregistered) meanwhile
            }
            if self.fifo.len() >= self.capacity {
                let t0 = Instant::now();
                crate::poll::wait_writable(fd)?;
                self.waited += t0.elapsed();
                break;
            }
            if self.poll(None, Some(to))? {
                break;
            }
        }
        match self.peers[to] {
            Some(_) => self.poller.modify(fd, to as u64, READABLE),
            None => Ok(()), // the room was the peer's hangup
        }
    }
}

impl Drop for Sockets {
    fn drop(&mut self) {
        let mut sink = vec![0u8; 64 * 1024];
        for p in self.peers.iter_mut().flatten() {
            let _ = p.stream.shutdown(Shutdown::Write);
            let mut unread = 0;
            while unread < LINGER_READ_BYTES {
                match p.stream.read(&mut sink) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => unread += n,
                }
            }
        }
    }
}

impl TransportEndpoint for TcpEndpoint {
    fn rank(&self) -> usize {
        self.rank
    }

    fn network_len(&self) -> usize {
        self.ranks
    }

    fn send(&self, to: usize, payload: Bytes) -> Result<(), Disconnected> {
        if to != self.rank {
            return self.send_slice(to, &payload);
        }
        assert_frame_size(payload.len());
        self.io.borrow_mut().fifo.push_back(NetEvent::Frame(Frame { from: to, payload }));
        Ok(())
    }

    /// A self-send joins the FIFO (past its capacity if need be: only
    /// this thread could drain it). A peer's frame goes out header and
    /// payload in one vectored write, straight from `payload`.
    fn send_slice(&self, to: usize, payload: &[u8]) -> Result<(), Disconnected> {
        if to == self.rank {
            return self.send(to, Bytes::from(payload));
        }
        let mut io = self.io.borrow_mut();
        let mut written = 0;
        loop {
            let Some(p) = io.peers[to].as_mut() else { return Err(Disconnected) };
            match write_frame_from(&mut p.stream, payload, &mut written) {
                Ok(()) => {
                    io.stats.bytes_sent += (FRAME_HEADER_BYTES + payload.len()) as u64;
                    return Ok(());
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    io.wait_writable(to).map_err(|_| Disconnected)?
                }
                // The read side reports the teardown, after the peer's
                // last frames.
                Err(_) => return Err(Disconnected),
            }
        }
    }

    /// Errs once no frame can ever arrive: the FIFO is empty and every
    /// peer is gone.
    fn recv_event(&self) -> Result<NetEvent, Disconnected> {
        let mut io = self.io.borrow_mut();
        loop {
            if let Some(ev) = io.pop() {
                return Ok(ev);
            }
            if io.peers.iter().all(Option::is_none) {
                return Err(Disconnected);
            }
            io.poll(None, None).map_err(|_| Disconnected)?;
        }
    }

    fn recv_event_timeout(&self, d: Duration) -> Result<Option<NetEvent>, Disconnected> {
        let mut io = self.io.borrow_mut();
        let deadline = Instant::now().checked_add(d);
        loop {
            if let Some(ev) = io.pop() {
                return Ok(Some(ev));
            }
            let left = deadline.map(|t| t.saturating_duration_since(Instant::now()));
            io.poll(left, None).map_err(|_| Disconnected)?;
            if io.fifo.is_empty() && deadline.is_some_and(|t| Instant::now() >= t) {
                return Ok(None);
            }
        }
    }

    fn try_recv_event(&self) -> Option<NetEvent> {
        let mut io = self.io.borrow_mut();
        if io.fifo.is_empty() {
            io.poll(Some(Duration::ZERO), None).ok()?;
        }
        io.pop()
    }

    fn wire_stats(&self) -> WireStats {
        self.io.borrow().stats
    }

    fn waited(&self) -> Duration {
        self.io.borrow().waited
    }
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

    /// Gives its bytes in slivers of varying size, up to 100 KB, and
    /// runs dry (`WouldBlock`) before every fourth read.
    struct SliverReader {
        data: Vec<u8>,
        at: usize,
        calls: usize,
    }

    impl Read for SliverReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.calls += 1;
            if self.calls.is_multiple_of(4) {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            let k =
                (self.calls * 7_919 % 100_003 + 1).min(buf.len()).min(self.data.len() - self.at);
            buf[..k].copy_from_slice(&self.data[self.at..self.at + k]);
            self.at += k;
            Ok(k)
        }
    }

    #[test]
    fn socket_reads_reassemble_small_and_large_frames() {
        let frames: Vec<Vec<u8>> = [0usize, 5, 70_000, 3, 1 << 20, 65_536, 65_537, 12]
            .iter()
            .map(|&n| (0..n).map(|i| (i * 31 % 251) as u8).collect())
            .collect();
        let data = frames.iter().flat_map(|f| encode_frame(f)).collect();
        let mut r = SliverReader { data, at: 0, calls: 0 };
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        loop {
            match dec.read_from(&mut r) {
                Ok((0, _)) => break,
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(e) => panic!("{e}"),
            }
            while let Some(f) = dec.next_frame().unwrap() {
                got.push(f.to_vec());
            }
        }
        assert!(got == frames, "frames lost, torn or reordered");
        assert_eq!(dec.pending_bytes(), 0);
        // Large payloads went to vectors of their own: the decoder's
        // buffer stayed near one read chunk.
        assert!(dec.buf.len() <= 2 * READ_CHUNK_BYTES, "buffer grew to {}", dec.buf.len());
    }

    #[test]
    fn oversized_length_prefix_is_rejected_not_allocated() {
        let mut dec = FrameDecoder::new();
        dec.feed(&u32::MAX.to_le_bytes());
        assert_eq!(dec.next_frame(), Err(FrameError::TooLarge(u32::MAX)));
    }

    /// Accepts 1–7 bytes per call (the short-write shape
    /// `proptest_frame_writer.rs` drives the nonblocking writer with), with a
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
    fn a_frame_larger_than_the_socket_buffers_arrives_whole() {
        // Far beyond what loopback buffers hold without a reader: the
        // send waits for room while the receiving thread reads.
        let mut net = TcpNetwork::loopback(2, 4).unwrap();
        let a = net.take(0);
        let b = net.take(1);
        let big: Vec<u8> =
            (0..24 << 20).map(|i: u32| i.wrapping_mul(2_654_435_761) as u8).collect();
        let expect = big.clone();
        let t = std::thread::spawn(move || {
            a.send(1, Bytes::from(big)).unwrap();
            a // keep the endpoint alive until the frame is consumed
        });
        let f = b.recv().unwrap();
        assert_eq!(f.payload.len(), expect.len());
        assert!(f.payload[..] == expect[..], "large frame corrupted");
        t.join().unwrap();
    }

    #[test]
    fn ranks_sending_each_other_large_frames_at_once_do_not_deadlock() {
        // Two slaves that are each other's checkpoint buddy ship their
        // snapshots at the same moment: each send must keep reading the
        // other's frame while its own socket is full.
        let mut net = TcpNetwork::loopback(2, 4).unwrap();
        let frame = |tag: u8| Bytes::from(vec![tag; 16 << 20]);
        let exchange = |ep: TcpEndpoint, tag: u8| {
            std::thread::spawn(move || {
                ep.send(1 - ep.rank(), frame(tag)).unwrap();
                let f = ep.recv().unwrap();
                assert!(f.payload.len() == 16 << 20 && f.payload.iter().all(|&b| b == 1 - tag));
                ep
            })
        };
        let (a, b) = (exchange(net.take(0), 0), exchange(net.take(1), 1));
        let (_a, _b) = (a.join().unwrap(), b.join().unwrap());
    }

    #[test]
    fn a_full_fifo_stops_reading_and_every_frame_arrives_in_order() {
        // A 2-frame FIFO and a burst of small frames: the receiver
        // decodes no further than its FIFO holds, the rest waits in its
        // decoder and socket, and nothing is lost or reordered.
        let mut net = TcpNetwork::loopback(3, 2).unwrap();
        let (a, b, c) = (net.take(0), net.take(1), net.take(2));
        for i in 0..500u32 {
            b.send_slice(0, &i.to_le_bytes()).unwrap();
            c.send_slice(0, &(1000 + i).to_le_bytes()).unwrap();
        }
        // A self-send never blocks on the full FIFO.
        a.send_slice(0, b"me").unwrap();
        let (mut next_b, mut next_c, mut me) = (0u32, 1000u32, false);
        while next_b < 500 || next_c < 1500 || !me {
            assert!(a.io.borrow().fifo.len() <= 3, "the FIFO outgrew its capacity");
            let f = a.recv_timeout(Duration::from_secs(5)).unwrap().expect("a frame");
            match f.from {
                0 => me = true,
                1 => {
                    assert_eq!(u32::from_le_bytes(f.payload[..].try_into().unwrap()), next_b);
                    next_b += 1;
                }
                _ => {
                    assert_eq!(u32::from_le_bytes(f.payload[..].try_into().unwrap()), next_c);
                    next_c += 1;
                }
            }
        }
        assert_eq!(a.try_recv(), None);
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
