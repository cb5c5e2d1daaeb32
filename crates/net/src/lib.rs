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
//! * [`transport`] — the one [`TransportEndpoint`] contract, the
//!   [`Mesh`] that hands a network's endpoints out, and the in-process
//!   backend: blocking channels with bounded capacity. Receiving blocks
//!   until the sender's message arrives, mirroring the blocking
//!   communication the paper's §III is designed around.
//! * [`tcp`] — sockets: the one `[len][bytes]` frame codec (also
//!   `windjoin-serve`'s), the rank-handshake mesh bootstrap, and the
//!   socket endpoint, which the rank's own thread drives over
//!   nonblocking sockets in one epoll set ([`poll`], a vendored shim):
//!   no reader or poller thread, one wake-up per received frame, and
//!   backpressure through TCP flow control. One rank per OS process —
//!   the shared-nothing deployment the paper actually ran.

#![warn(missing_docs)]

pub mod message;
pub mod poll;
pub mod tcp;
pub mod transport;
pub mod wire;

pub use message::Message;
pub use tcp::{EventedNetwork, FrameDecoder, TcpEndpoint, TcpNetwork};
pub use transport::{
    ChannelEndpoint, ChannelNetwork, Disconnected, Frame, Mesh, NetEvent, TransportEndpoint,
    WireStats,
};
pub use wire::{
    decode_batch, decode_batch_into, encode_batch, encode_batch_into, Tagging, TUPLE_WIRE_BYTES,
};
