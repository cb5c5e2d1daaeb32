//! Wire format and in-process message passing for `windjoin`.
//!
//! The paper runs over mpiJava/LAM-MPI with blocking, connection-oriented
//! send/receive and a *machine-independent* tuple format (§IV-B). This
//! crate supplies the equivalents:
//!
//! * [`wire`] — explicit little-endian framing for 64-byte tuples.
//!   Both of §IV-B's options for mapping merged tuples back to their
//!   source streams are implemented: per-tuple **stream tags** and
//!   per-run **punctuation marks**.
//! * [`message`] — the protocol messages exchanged between master,
//!   slaves and collector (tuple batches, occupancy reports, move
//!   directives, partition state, acks, results), with a binary codec.
//! * [`transport`] — the one [`TransportEndpoint`] contract and the one
//!   endpoint core behind it ([`Endpoint`]: rank-addressed bounded
//!   inbox, self-sends, wire counters), plus the in-process backend:
//!   blocking channels with bounded capacity. Receiving blocks until
//!   the sender's message arrives, mirroring the blocking communication
//!   the paper's §III is designed around. A network's endpoints are
//!   handed out of a [`Mesh`].
//! * [`tcp`] — sockets under that core: the one `[len][bytes]` frame
//!   codec (also `windjoin-serve`'s), the rank-handshake mesh bootstrap
//!   shared by both socket backends, and the thread-per-peer backend:
//!   per-peer reader threads feeding the bounded inbox (backpressure
//!   through TCP flow control). One rank per OS process — the
//!   shared-nothing deployment the paper actually ran.
//! * [`evented`] — the readiness-driven socket backend: the same mesh
//!   bootstrap and framing, but one poller thread per rank multiplexing
//!   every peer over nonblocking sockets ([`poll`], a vendored epoll
//!   shim), with per-peer write queues drained by vectored writes.
//!   Constant thread count per node regardless of cluster size.

#![warn(missing_docs)]

pub mod evented;
pub mod message;
pub mod poll;
pub mod tcp;
pub mod transport;
pub mod wire;

pub use evented::{EventedEndpoint, EventedNetwork, FrameWriteQueue, PollerIo};
pub use message::Message;
pub use tcp::{FrameDecoder, SocketBackend, TcpEndpoint, TcpNetwork, ThreadedIo};
pub use transport::{
    ChannelEndpoint, ChannelIo, ChannelNetwork, Disconnected, Endpoint, Frame, Mesh, NetEvent,
    TransportEndpoint, WireStats,
};
pub use wire::{
    decode_batch, decode_batch_into, encode_batch, encode_batch_into, Tagging, TUPLE_WIRE_BYTES,
};
