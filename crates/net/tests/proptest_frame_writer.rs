//! Property tests for the socket endpoint's nonblocking frame writer.
//!
//! [`write_frame_from`] writes into a socket that can stop anywhere:
//! the kernel may accept one byte of a length header, split the
//! vectored header-and-payload write, return `WouldBlock`, or get
//! interrupted by a signal. The writer must resume exactly where it
//! left off every time. These tests drive it against a scripted writer
//! that misbehaves at arbitrary byte boundaries and assert the bytes
//! that come out the far end reassemble — via the same [`FrameDecoder`]
//! the read path uses — into exactly the frames that were sent.

use proptest::prelude::*;
use std::io::{self, IoSlice, Write};
use windjoin_net::tcp::write_frame_from;
use windjoin_net::FrameDecoder;

/// What the scripted writer does on one `write`/`write_vectored` call.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Accept at most this many bytes (a short write).
    Accept(usize),
    /// Pretend the kernel buffer is full.
    WouldBlock,
    /// Pretend a signal landed.
    Interrupted,
}

/// A writer that follows a script of partial writes and transient
/// errors, then accepts everything once the script runs out.
struct ChaosWriter {
    script: Vec<Step>,
    pos: usize,
    out: Vec<u8>,
}

impl ChaosWriter {
    fn new(script: Vec<Step>) -> ChaosWriter {
        ChaosWriter { script, pos: 0, out: Vec::new() }
    }

    fn next_step(&mut self) -> Step {
        let step = self.script.get(self.pos).copied().unwrap_or(Step::Accept(usize::MAX));
        self.pos += 1;
        step
    }
}

impl Write for ChaosWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self.next_step() {
            Step::WouldBlock => Err(io::ErrorKind::WouldBlock.into()),
            Step::Interrupted => Err(io::ErrorKind::Interrupted.into()),
            Step::Accept(n) => {
                let k = n.min(buf.len());
                self.out.extend_from_slice(&buf[..k]);
                Ok(k)
            }
        }
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        match self.next_step() {
            Step::WouldBlock => Err(io::ErrorKind::WouldBlock.into()),
            Step::Interrupted => Err(io::ErrorKind::Interrupted.into()),
            Step::Accept(n) => {
                let mut left = n;
                let mut total = 0;
                for b in bufs {
                    if left == 0 {
                        break;
                    }
                    let k = left.min(b.len());
                    self.out.extend_from_slice(&b[..k]);
                    left -= k;
                    total += k;
                }
                Ok(total)
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        // Mostly short writes, with 1-byte accepts well represented so
        // header/payload boundaries get split.
        4 => (1usize..4097).prop_map(Step::Accept),
        2 => Just(Step::Accept(1)),
        1 => Just(Step::WouldBlock),
        1 => Just(Step::Interrupted),
    ]
}

/// Writes `payload` whole through `w`, calling again after every
/// `WouldBlock` the way the endpoint does once the socket has room.
fn send_whole(payload: &[u8], w: &mut ChaosWriter) {
    let mut written = 0;
    loop {
        match write_frame_from(w, payload, &mut written) {
            Ok(()) => return,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
            Err(e) => panic!("scripted writer only fails transiently: {e}"),
        }
    }
}

/// Feeds `bytes` to a fresh decoder and returns every completed frame.
fn reassemble(bytes: &[u8]) -> Vec<Vec<u8>> {
    let mut dec = FrameDecoder::new();
    dec.feed(bytes);
    let mut frames = Vec::new();
    while let Some(payload) = dec.next_frame().expect("writer emitted a corrupt stream") {
        frames.push(payload.to_vec());
    }
    assert_eq!(dec.pending_bytes(), 0, "trailing partial frame left on the wire");
    frames
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any sequence of frames sent through arbitrarily torn writes
    /// reassembles byte-identically, in order.
    #[test]
    fn torn_writes_reassemble_exactly(
        frames in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..2000), 1..20),
        script in proptest::collection::vec(step_strategy(), 0..100),
    ) {
        let mut w = ChaosWriter::new(script);
        for f in &frames {
            send_whole(f, &mut w);
        }
        prop_assert_eq!(reassemble(&w.out), frames);
    }

    /// The write cursor counts exactly the wire bytes the writer took,
    /// after every call, `WouldBlock` or not.
    #[test]
    fn written_count_matches_delivered_wire_bytes(
        payload in proptest::collection::vec(any::<u8>(), 0..3000),
        script in proptest::collection::vec(step_strategy(), 1..60),
    ) {
        let mut w = ChaosWriter::new(script);
        let mut written = 0;
        while w.pos < w.script.len() {
            let r = write_frame_from(&mut w, &payload, &mut written);
            prop_assert_eq!(written, w.out.len());
            if r.is_ok() {
                break;
            }
            prop_assert_eq!(r.unwrap_err().kind(), io::ErrorKind::WouldBlock);
        }
        while write_frame_from(&mut w, &payload, &mut written).is_err() {}
        prop_assert_eq!(written, 4 + payload.len());
        prop_assert_eq!(reassemble(&w.out), vec![payload]);
    }
}
