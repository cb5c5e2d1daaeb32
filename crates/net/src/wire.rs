//! Machine-independent tuple framing (§IV-B).
//!
//! Every tuple occupies exactly [`TUPLE_WIRE_BYTES`] = 64 bytes on the
//! wire (Table I), little-endian:
//!
//! ```text
//! offset  size  field
//! 0       8     arrival timestamp (µs)
//! 8       8     join-attribute value
//! 16      8     per-stream sequence number
//! 24      1     stream side (0 = S1, 1 = S2; 0 under punctuated tagging)
//! 25      39    payload (zero-filled unless supplied)
//! ```
//!
//! A batch is framed as `[tag scheme u8][tuple count u32]` followed by
//! the body. §IV-B describes two ways to recover the source stream of
//! merged tuples; both are implemented and interchangeable:
//!
//! * [`Tagging::StreamTag`] — every tuple carries its stream id
//!   ("augmenting an extra attribute with each stream tuple");
//! * [`Tagging::Punctuated`] — the batch is a sequence of runs, each
//!   prefixed by a punctuation mark `[side u8][run length u32]`
//!   ("putting special punctuation marks at the sequence of tuples from
//!   each stream").

use bytes::{Buf, BufMut, Bytes};
use std::slice::ChunksExact;
use windjoin_core::{Side, Tuple};

/// Wire size of one tuple (Table I).
pub const TUPLE_WIRE_BYTES: usize = 64;

/// Bytes of a wire tuple that are *not* payload: timestamp, key,
/// sequence number and side (the fixed prefix of the layout above).
pub const TUPLE_HEADER_BYTES: usize = 25;

const HEADER_BYTES: usize = 1 + 4;
const PUNCT_BYTES: usize = 1 + 4;
/// Scheme byte of payload-carrying batches (stream-tagged; the payload
/// width travels in the batch header).
const PAYLOAD_SCHEME: u8 = 2;

/// Stream-identification scheme for merged batches (§IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tagging {
    /// Per-tuple stream id.
    StreamTag,
    /// Per-run punctuation marks.
    Punctuated,
}

impl Tagging {
    fn as_byte(self) -> u8 {
        match self {
            Tagging::StreamTag => 0,
            Tagging::Punctuated => 1,
        }
    }

    fn from_byte(b: u8) -> Result<Self, WireError> {
        match b {
            0 => Ok(Tagging::StreamTag),
            1 => Ok(Tagging::Punctuated),
            other => Err(WireError::BadTagScheme(other)),
        }
    }
}

/// Decode failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Unknown tagging scheme byte.
    BadTagScheme(u8),
    /// Unknown side byte inside a tuple or punctuation mark.
    BadSide(u8),
    /// The buffer ended before the announced content.
    Truncated,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadTagScheme(b) => write!(f, "unknown tagging scheme {b}"),
            WireError::BadSide(b) => write!(f, "unknown stream side {b}"),
            WireError::Truncated => write!(f, "buffer shorter than announced content"),
        }
    }
}

impl std::error::Error for WireError {}

// The fixed-stride record codec every bulk frame body goes through:
// 64-byte tuples, `25 + width`-byte payload tuples and (in `message`)
// 40-byte result pairs. The buffer is sized once per run of records and
// each record is filled in place, so a record costs straight-line
// stores, not one capacity check per field. (Payload records are the
// one exception on the encode side: they are mostly payload, so
// `encode_batch_payload_from` appends them instead of zero-filling
// what a `memcpy` is about to overwrite.)

/// Appends one zeroed `stride`-byte record per item to `buf` and has
/// `write` fill each in place.
#[inline]
pub(crate) fn put_records<T>(
    buf: &mut Vec<u8>,
    stride: usize,
    items: impl ExactSizeIterator<Item = T>,
    write: impl Fn(&mut [u8], T),
) {
    let start = buf.len();
    buf.resize(start + items.len() * stride, 0);
    for (rec, item) in buf[start..].chunks_exact_mut(stride).zip(items) {
        write(rec, item);
    }
}

/// Splits `n` bytes off the front of `rest`.
#[inline]
pub(crate) fn take<'a>(rest: &mut &'a [u8], n: usize) -> Result<&'a [u8], WireError> {
    let (head, tail) = rest.split_at_checked(n).ok_or(WireError::Truncated)?;
    *rest = tail;
    Ok(head)
}

/// Splits the region of `count` records of `stride` bytes off the front
/// of `rest`. `count` is untrusted (it may arrive off a socket): it is
/// checked against the bytes present before the caller allocates for
/// it, and a short buffer is `Truncated` rather than a decoded prefix.
#[inline]
fn take_record_region<'a>(
    rest: &mut &'a [u8],
    count: usize,
    stride: usize,
) -> Result<&'a [u8], WireError> {
    let len = count.checked_mul(stride).ok_or(WireError::Truncated)?;
    take(rest, len)
}

/// [`take_record_region`], cut into its records.
#[inline]
pub(crate) fn take_records<'a>(
    rest: &mut &'a [u8],
    count: usize,
    stride: usize,
) -> Result<ChunksExact<'a, u8>, WireError> {
    Ok(take_record_region(rest, count, stride)?.chunks_exact(stride))
}

/// Stores `v` little-endian at byte `at` of a record.
#[inline]
pub(crate) fn put_u64_at(rec: &mut [u8], at: usize, v: u64) {
    rec[at..at + 8].copy_from_slice(&v.to_le_bytes());
}

/// The little-endian `u64` at byte `at` of a record.
#[inline]
pub(crate) fn u64_at(rec: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(rec[at..at + 8].try_into().expect("an 8-byte range"))
}

/// Fills the fixed prefix of a tuple record; whatever follows it
/// (padding or payload) is the caller's.
#[inline]
fn write_tuple(rec: &mut [u8], t: &Tuple, side_byte: u8) {
    let rec = &mut rec[..TUPLE_HEADER_BYTES];
    put_u64_at(rec, 0, t.t);
    put_u64_at(rec, 8, t.key);
    put_u64_at(rec, 16, t.seq);
    rec[24] = side_byte;
}

fn side_of(byte: u8) -> Result<Side, WireError> {
    match byte {
        0 => Ok(Side::Left),
        1 => Ok(Side::Right),
        other => Err(WireError::BadSide(other)),
    }
}

/// Reads the fixed prefix of a tuple record; under punctuated tagging
/// the run's side overrides the (zero) side byte.
#[inline]
fn read_tuple(rec: &[u8], forced_side: Option<Side>) -> Result<Tuple, WireError> {
    let rec = &rec[..TUPLE_HEADER_BYTES];
    let side = match forced_side {
        Some(s) => s,
        None => side_of(rec[24])?,
    };
    Ok(Tuple { t: u64_at(rec, 0), key: u64_at(rec, 8), seq: u64_at(rec, 16), side })
}

/// Encodes a merged batch with the chosen tagging scheme. Tuple order is
/// preserved under [`Tagging::StreamTag`]; under [`Tagging::Punctuated`]
/// tuples are grouped into maximal same-side runs (which preserves
/// per-stream order — all the join needs).
pub fn encode_batch(tuples: &[Tuple], tagging: Tagging) -> Bytes {
    let mut buf = Vec::with_capacity(HEADER_BYTES + tuples.len() * (TUPLE_WIRE_BYTES + 1));
    encode_batch_into(tuples, tagging, &mut buf);
    Bytes::from(buf)
}

/// [`encode_batch`] appended to a caller-owned buffer — the hot
/// distribution path reuses one scratch vector instead of allocating a
/// fresh one per batch.
pub fn encode_batch_into(tuples: &[Tuple], tagging: Tagging, buf: &mut Vec<u8>) {
    buf.put_u8(tagging.as_byte());
    buf.put_u32_le(tuples.len() as u32);
    match tagging {
        Tagging::StreamTag => put_records(buf, TUPLE_WIRE_BYTES, tuples.iter(), |rec, t| {
            write_tuple(rec, t, t.side.index() as u8)
        }),
        Tagging::Punctuated => {
            for run in tuples.chunk_by(|a, b| a.side == b.side) {
                buf.put_u8(run[0].side.index() as u8);
                buf.put_u32_le(run.len() as u32);
                put_records(buf, TUPLE_WIRE_BYTES, run.iter(), |rec, t| write_tuple(rec, t, 0));
            }
        }
    }
}

/// Decodes a batch produced by [`encode_batch`].
pub fn decode_batch(buf: Bytes) -> Result<Vec<Tuple>, WireError> {
    let mut out = Vec::new();
    decode_batch_into(buf, &mut out)?;
    Ok(out)
}

/// [`decode_batch`] appending into a caller-owned vector, so the hot
/// receive path reuses one tuple buffer across batches. `out` keeps any
/// existing contents; on error it may hold a partially decoded prefix.
pub fn decode_batch_into(mut buf: Bytes, out: &mut Vec<Tuple>) -> Result<(), WireError> {
    if buf.remaining() < HEADER_BYTES {
        return Err(WireError::Truncated);
    }
    let tagging = Tagging::from_byte(buf.get_u8())?;
    let count = buf.get_u32_le() as usize;
    let mut rest: &[u8] = &buf;
    let mut tuples = |rest: &mut &[u8], n: usize, forced_side| {
        let records = take_records(rest, n, TUPLE_WIRE_BYTES)?;
        out.reserve(n);
        for rec in records {
            out.push(read_tuple(rec, forced_side)?);
        }
        Ok(())
    };
    match tagging {
        Tagging::StreamTag => tuples(&mut rest, count, None),
        Tagging::Punctuated => {
            let mut left = count;
            while left > 0 {
                let punct = take(&mut rest, PUNCT_BYTES)?;
                let side = side_of(punct[0])?;
                let run = u32::from_le_bytes(punct[1..].try_into().expect("4 bytes")) as usize;
                left = left.checked_sub(run).ok_or(WireError::Truncated)?;
                tuples(&mut rest, run, Some(side))?;
            }
            Ok(())
        }
    }
}

/// Encodes a payload-carrying batch: `[scheme=2][count u32][width u32]`
/// followed by one `25 + width`-byte record per tuple (the 25-byte
/// fixed prefix of the 64-byte layout, then exactly `width` payload
/// bytes — truncated or zero-padded from the tuple's payload). Unlike
/// the zero-filled legacy layout, the payload region carries **real
/// bytes**, and its width is the job's payload width rather than a
/// fixed 39.
///
/// Payloads are read where they lie — `payloads` yields one borrowed
/// slice per tuple — and every frame byte is written once: a record is
/// appended as prefix, payload and (only for a payload shorter than
/// `width`) zero pad, never zero-filled first.
///
/// # Panics
///
/// Panics if `payloads` does not yield exactly one slice per tuple.
pub fn encode_batch_payload_from<'p>(
    tuples: &[Tuple],
    payloads: impl ExactSizeIterator<Item = &'p [u8]>,
    width: usize,
    buf: &mut Vec<u8>,
) {
    assert_eq!(tuples.len(), payloads.len(), "payload column misaligned with batch");
    buf.put_u8(PAYLOAD_SCHEME);
    buf.put_u32_le(tuples.len() as u32);
    buf.put_u32_le(width as u32);
    buf.reserve(tuples.len() * (TUPLE_HEADER_BYTES + width));
    for (t, p) in tuples.iter().zip(payloads) {
        let mut prefix = [0u8; TUPLE_HEADER_BYTES];
        write_tuple(&mut prefix, t, t.side.index() as u8);
        buf.extend_from_slice(&prefix);
        let n = p.len().min(width);
        buf.extend_from_slice(&p[..n]);
        buf.resize(buf.len() + (width - n), 0);
    }
}

/// [`encode_batch_payload_from`] for an owned payload column:
/// `payloads[i]` belongs to `tuples[i]`.
///
/// # Panics
///
/// Panics if `payloads` is not aligned with `tuples`.
pub fn encode_batch_payload_into(
    tuples: &[Tuple],
    payloads: &[Vec<u8>],
    width: usize,
    buf: &mut Vec<u8>,
) {
    encode_batch_payload_from(tuples, payloads.iter().map(Vec::as_slice), width, buf);
}

/// The payload column of a decoded payload batch, borrowed from the
/// frame it arrived in: the batch's fixed-stride record region, of
/// which payload `i` is `records[i * stride + 25..(i + 1) * stride]`.
#[derive(Debug, Clone, Copy)]
pub struct PayloadColumn<'a> {
    records: &'a [u8],
    stride: usize,
}

impl<'a> PayloadColumn<'a> {
    /// Bytes of every payload in the column.
    pub fn width(&self) -> usize {
        self.stride - TUPLE_HEADER_BYTES
    }

    /// The payloads (each exactly [`width`](Self::width) bytes), in
    /// tuple order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &'a [u8]> + 'a {
        self.records.chunks_exact(self.stride).map(|rec| &rec[TUPLE_HEADER_BYTES..])
    }
}

/// Decodes a batch produced by [`encode_batch_payload_from`]: appends
/// the tuples to the caller's reused vector and returns their payloads
/// as a view of `buf` — nothing is copied out of the frame.
pub fn decode_batch_payload_view<'a>(
    buf: &'a [u8],
    out: &mut Vec<Tuple>,
) -> Result<PayloadColumn<'a>, WireError> {
    let mut rest = buf;
    let header = take(&mut rest, HEADER_BYTES + 4)?;
    if header[0] != PAYLOAD_SCHEME {
        return Err(WireError::BadTagScheme(header[0]));
    }
    let u32_at = |at: usize| u32::from_le_bytes(header[at..at + 4].try_into().expect("4 bytes"));
    let (count, width) = (u32_at(1) as usize, u32_at(5) as usize);
    let stride = TUPLE_HEADER_BYTES + width;
    let records = take_record_region(&mut rest, count, stride)?;
    out.reserve(count);
    for rec in records.chunks_exact(stride) {
        out.push(read_tuple(rec, None)?);
    }
    Ok(PayloadColumn { records, stride })
}

/// [`decode_batch_payload_view`] with every payload copied out into
/// the caller's reused vector. Returns the payload width.
pub fn decode_batch_payload_into(
    buf: Bytes,
    out: &mut Vec<Tuple>,
    payloads: &mut Vec<Vec<u8>>,
) -> Result<usize, WireError> {
    let column = decode_batch_payload_view(&buf, out)?;
    payloads.extend(column.iter().map(<[u8]>::to_vec));
    Ok(column.width())
}

/// Exact encoded size of a payload-carrying batch.
pub fn encoded_payload_batch_bytes(ntuples: usize, width: usize) -> usize {
    HEADER_BYTES + 4 + ntuples * (TUPLE_HEADER_BYTES + width)
}

/// Exact encoded size of a batch under a tagging scheme (for link-cost
/// accounting in the drivers).
pub fn encoded_batch_bytes(tuples: &[Tuple], tagging: Tagging) -> usize {
    match tagging {
        Tagging::StreamTag => HEADER_BYTES + tuples.len() * TUPLE_WIRE_BYTES,
        Tagging::Punctuated => {
            let runs = tuples.chunk_by(|a, b| a.side == b.side).count();
            HEADER_BYTES + runs * PUNCT_BYTES + tuples.len() * TUPLE_WIRE_BYTES
        }
    }
}

/// The per-field codec the record codec replaced, kept as the reference
/// the property tests compare frames and verdicts against.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use proptest::prelude::*;

    pub(crate) fn put_tuple(buf: &mut Vec<u8>, t: &Tuple, side_byte: u8) {
        buf.put_u64_le(t.t);
        buf.put_u64_le(t.key);
        buf.put_u64_le(t.seq);
        buf.put_u8(side_byte);
        buf.put_bytes(0, TUPLE_WIRE_BYTES - 25);
    }

    fn get_tuple(buf: &mut Bytes, forced_side: Option<Side>) -> Result<Tuple, WireError> {
        if buf.remaining() < TUPLE_WIRE_BYTES {
            return Err(WireError::Truncated);
        }
        let t = buf.get_u64_le();
        let key = buf.get_u64_le();
        let seq = buf.get_u64_le();
        let side_byte = buf.get_u8();
        buf.advance(TUPLE_WIRE_BYTES - 25);
        let side = match forced_side {
            Some(s) => s,
            None => side_of(side_byte)?,
        };
        Ok(Tuple { t, key, seq, side })
    }

    pub(crate) fn encode_batch(tuples: &[Tuple], tagging: Tagging) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.put_u8(tagging.as_byte());
        buf.put_u32_le(tuples.len() as u32);
        match tagging {
            Tagging::StreamTag => {
                for t in tuples {
                    put_tuple(&mut buf, t, t.side.index() as u8);
                }
            }
            Tagging::Punctuated => {
                let mut i = 0;
                while i < tuples.len() {
                    let side = tuples[i].side;
                    let run_end = tuples[i..]
                        .iter()
                        .position(|t| t.side != side)
                        .map(|p| i + p)
                        .unwrap_or(tuples.len());
                    buf.put_u8(side.index() as u8);
                    buf.put_u32_le((run_end - i) as u32);
                    for t in &tuples[i..run_end] {
                        put_tuple(&mut buf, t, 0);
                    }
                    i = run_end;
                }
            }
        }
        buf
    }

    pub(crate) fn decode_batch(mut buf: Bytes) -> Result<Vec<Tuple>, WireError> {
        if buf.remaining() < HEADER_BYTES {
            return Err(WireError::Truncated);
        }
        let tagging = Tagging::from_byte(buf.get_u8())?;
        let count = buf.get_u32_le() as usize;
        let mut out = Vec::new();
        match tagging {
            Tagging::StreamTag => {
                for _ in 0..count {
                    out.push(get_tuple(&mut buf, None)?);
                }
            }
            Tagging::Punctuated => {
                while out.len() < count {
                    if buf.remaining() < PUNCT_BYTES {
                        return Err(WireError::Truncated);
                    }
                    let side = side_of(buf.get_u8())?;
                    let run = buf.get_u32_le() as usize;
                    if out.len() + run > count {
                        return Err(WireError::Truncated);
                    }
                    for _ in 0..run {
                        out.push(get_tuple(&mut buf, Some(side))?);
                    }
                }
            }
        }
        Ok(out)
    }

    pub(crate) fn encode_batch_payload(
        tuples: &[Tuple],
        payloads: &[Vec<u8>],
        width: usize,
    ) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.put_u8(PAYLOAD_SCHEME);
        buf.put_u32_le(tuples.len() as u32);
        buf.put_u32_le(width as u32);
        for (t, p) in tuples.iter().zip(payloads) {
            buf.put_u64_le(t.t);
            buf.put_u64_le(t.key);
            buf.put_u64_le(t.seq);
            buf.put_u8(t.side.index() as u8);
            let n = p.len().min(width);
            buf.put_slice(&p[..n]);
            buf.put_bytes(0, width - n);
        }
        buf
    }

    pub(crate) type PayloadBatch = (Vec<Tuple>, Vec<Vec<u8>>, usize);

    pub(crate) fn decode_batch_payload(mut buf: Bytes) -> Result<PayloadBatch, WireError> {
        if buf.remaining() < HEADER_BYTES + 4 {
            return Err(WireError::Truncated);
        }
        let scheme = buf.get_u8();
        if scheme != PAYLOAD_SCHEME {
            return Err(WireError::BadTagScheme(scheme));
        }
        let count = buf.get_u32_le() as usize;
        let width = buf.get_u32_le() as usize;
        let (mut out, mut payloads) = (Vec::new(), Vec::new());
        for _ in 0..count {
            if buf.remaining() < TUPLE_HEADER_BYTES + width {
                return Err(WireError::Truncated);
            }
            let t = buf.get_u64_le();
            let key = buf.get_u64_le();
            let seq = buf.get_u64_le();
            let side = side_of(buf.get_u8())?;
            let mut p = vec![0u8; width];
            buf.copy_to_slice(&mut p);
            out.push(Tuple { t, key, seq, side });
            payloads.push(p);
        }
        Ok((out, payloads, width))
    }

    /// Arbitrary merged batches for the codec property tests.
    pub(crate) fn arb_batch() -> impl Strategy<Value = Vec<Tuple>> {
        let tuple = (any::<u64>(), any::<u64>(), any::<u64>(), any::<bool>()).prop_map(
            |(t, key, seq, left)| {
                Tuple::new(if left { Side::Left } else { Side::Right }, t, key, seq)
            },
        );
        proptest::collection::vec(tuple, 0..40)
    }
}

#[cfg(test)]
mod tests {
    use super::reference::arb_batch;
    use super::*;
    use proptest::prelude::*;

    fn sample() -> Vec<Tuple> {
        vec![
            Tuple::new(Side::Left, 1, 100, 0),
            Tuple::new(Side::Left, 2, 200, 1),
            Tuple::new(Side::Right, 3, 300, 0),
            Tuple::new(Side::Left, 9, 400, 2),
        ]
    }

    #[test]
    fn stream_tag_roundtrip_preserves_order() {
        let b = encode_batch(&sample(), Tagging::StreamTag);
        assert_eq!(b.len(), encoded_batch_bytes(&sample(), Tagging::StreamTag));
        let decoded = decode_batch(b).unwrap();
        assert_eq!(decoded, sample());
    }

    #[test]
    fn punctuated_roundtrip_preserves_per_stream_order() {
        let b = encode_batch(&sample(), Tagging::Punctuated);
        assert_eq!(b.len(), encoded_batch_bytes(&sample(), Tagging::Punctuated));
        let decoded = decode_batch(b).unwrap();
        // Same multiset, same per-stream order.
        let lefts: Vec<u64> =
            decoded.iter().filter(|t| t.side == Side::Left).map(|t| t.seq).collect();
        let rights: Vec<u64> =
            decoded.iter().filter(|t| t.side == Side::Right).map(|t| t.seq).collect();
        assert_eq!(lefts, vec![0, 1, 2]);
        assert_eq!(rights, vec![0]);
        assert_eq!(decoded.len(), sample().len());
    }

    #[test]
    fn empty_batch_roundtrips() {
        for tagging in [Tagging::StreamTag, Tagging::Punctuated] {
            let b = encode_batch(&[], tagging);
            assert_eq!(decode_batch(b).unwrap(), Vec::new());
        }
    }

    #[test]
    fn tuple_occupies_exactly_64_bytes() {
        let one = [Tuple::new(Side::Right, u64::MAX, u64::MAX, u64::MAX)];
        let b = encode_batch(&one, Tagging::StreamTag);
        assert_eq!(b.len(), HEADER_BYTES + 64);
        assert_eq!(decode_batch(b).unwrap(), one);
    }

    #[test]
    fn truncation_is_detected() {
        let b = encode_batch(&sample(), Tagging::StreamTag);
        let cut = b.slice(0..b.len() - 1);
        assert_eq!(decode_batch(cut), Err(WireError::Truncated));
        assert_eq!(decode_batch(Bytes::new()), Err(WireError::Truncated));
    }

    #[test]
    fn payload_batches_roundtrip_real_bytes() {
        let tuples = sample();
        let payloads: Vec<Vec<u8>> = vec![
            b"abcd".to_vec(),              // exact width
            b"longer-than-width".to_vec(), // truncated
            b"x".to_vec(),                 // zero-padded
            Vec::new(),                    // all zeros
        ];
        let mut buf = Vec::new();
        encode_batch_payload_into(&tuples, &payloads, 4, &mut buf);
        assert_eq!(buf.len(), encoded_payload_batch_bytes(tuples.len(), 4));
        let (mut t2, mut p2) = (Vec::new(), Vec::new());
        let width = decode_batch_payload_into(Bytes::from(buf), &mut t2, &mut p2).unwrap();
        assert_eq!(width, 4);
        assert_eq!(t2, tuples);
        assert_eq!(p2[0], b"abcd");
        assert_eq!(p2[1], b"long");
        assert_eq!(p2[2], b"x\0\0\0");
        assert_eq!(p2[3], b"\0\0\0\0");
    }

    #[test]
    fn payload_batch_truncation_and_bad_bytes_are_detected() {
        let mut buf = Vec::new();
        encode_batch_payload_into(&sample(), &vec![Vec::new(); 4], 8, &mut buf);
        let b = Bytes::from(buf);
        let cut = b.slice(0..b.len() - 1);
        let (mut t, mut p) = (Vec::new(), Vec::new());
        assert_eq!(decode_batch_payload_into(cut, &mut t, &mut p), Err(WireError::Truncated));
        // A legacy batch is not a payload batch.
        let legacy = encode_batch(&sample(), Tagging::StreamTag);
        let (mut t, mut p) = (Vec::new(), Vec::new());
        assert_eq!(
            decode_batch_payload_into(legacy, &mut t, &mut p),
            Err(WireError::BadTagScheme(0))
        );
    }

    #[test]
    fn zero_width_payload_batch_roundtrips() {
        let mut buf = Vec::new();
        encode_batch_payload_into(&sample(), &vec![Vec::new(); 4], 0, &mut buf);
        let (mut t, mut p) = (Vec::new(), Vec::new());
        decode_batch_payload_into(Bytes::from(buf), &mut t, &mut p).unwrap();
        assert_eq!(t, sample());
        assert!(p.iter().all(Vec::is_empty));
    }

    #[test]
    fn bad_bytes_are_rejected() {
        let raw = vec![9, 0, 0, 0, 0]; // unknown scheme, no tuples
        assert_eq!(decode_batch(Bytes::from(raw)), Err(WireError::BadTagScheme(9)));

        let mut raw = vec![0, 1, 0, 0, 0]; // stream-tag scheme, one tuple
        reference::put_tuple(&mut raw, &Tuple::new(Side::Left, 1, 2, 3), 7); // invalid side byte
        assert_eq!(decode_batch(Bytes::from(raw)), Err(WireError::BadSide(7)));
    }

    #[test]
    fn an_announced_count_beyond_the_bytes_present_allocates_nothing() {
        // u32::MAX tuples announced, one present.
        let mut raw = vec![0, 0xFF, 0xFF, 0xFF, 0xFF];
        reference::put_tuple(&mut raw, &Tuple::new(Side::Left, 1, 2, 3), 0);
        let mut out = Vec::new();
        assert_eq!(decode_batch_into(Bytes::from(raw), &mut out), Err(WireError::Truncated));
        assert_eq!(out.capacity(), 0);

        // u32::MAX records of u32::MAX + 25 bytes each.
        let raw = [&[PAYLOAD_SCHEME][..], &[0xFF; 8], &[0; 64]].concat();
        let (mut t, mut p) = (Vec::new(), Vec::new());
        assert_eq!(
            decode_batch_payload_into(Bytes::from(raw), &mut t, &mut p),
            Err(WireError::Truncated)
        );
        assert_eq!((t.capacity(), p.capacity()), (0, 0));
    }

    /// A payload column for `n` tuples: lengths below, at and above any
    /// width under test, so truncation and zero padding both occur.
    fn payload_column(n: usize, seed: u64) -> Vec<Vec<u8>> {
        (0..n as u64)
            .map(|i| {
                let x = seed.wrapping_add(i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                (0..x % 600).map(|j| (x >> (j % 57)) as u8).collect()
            })
            .collect()
    }

    /// The borrowed decode of a payload batch, with the payloads copied
    /// out of the view for comparison.
    fn viewed(frame: &[u8]) -> Result<reference::PayloadBatch, WireError> {
        let mut tuples = Vec::new();
        let column = decode_batch_payload_view(frame, &mut tuples)?;
        Ok((tuples, column.iter().map(<[u8]>::to_vec).collect(), column.width()))
    }

    /// One random byte flipped to a random value.
    fn corrupt(frame: &[u8], at: proptest::sample::Index, to: u8) -> Bytes {
        let mut frame = frame.to_vec();
        if !frame.is_empty() {
            let at = at.index(frame.len());
            frame[at] = to;
        }
        Bytes::from(frame)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn batch_frames_are_the_reference_bytes_and_every_cut_is_an_error(batch in arb_batch()) {
            for tagging in [Tagging::StreamTag, Tagging::Punctuated] {
                let frame = encode_batch(&batch, tagging);
                prop_assert_eq!(&frame[..], &reference::encode_batch(&batch, tagging)[..]);
                prop_assert_eq!(frame.len(), encoded_batch_bytes(&batch, tagging));
                prop_assert_eq!(decode_batch(frame.clone()), reference::decode_batch(frame.clone()));
                for cut in 0..frame.len() {
                    prop_assert!(decode_batch(frame.slice(0..cut)).is_err(), "cut at {}", cut);
                }
            }
        }

        #[test]
        fn payload_frames_are_the_reference_bytes_and_every_cut_is_an_error(
            batch in arb_batch(),
            seed in any::<u64>(),
        ) {
            let payloads = payload_column(batch.len(), seed);
            // The same payloads as an arena would hand them over: slices
            // of one flat buffer.
            let flat = payloads.concat();
            let mut end = 0;
            let spans: Vec<std::ops::Range<usize>> = payloads
                .iter()
                .map(|p| {
                    end += p.len();
                    end - p.len()..end
                })
                .collect();
            let slices = || spans.iter().map(|span| &flat[span.clone()]);
            for width in [0usize, 1, 39, 512] {
                let mut frame = Vec::new();
                encode_batch_payload_into(&batch, &payloads, width, &mut frame);
                prop_assert_eq!(&frame, &reference::encode_batch_payload(&batch, &payloads, width));
                prop_assert_eq!(frame.len(), encoded_payload_batch_bytes(batch.len(), width));
                let mut borrowed = vec![0xEE; 3]; // appended to, like the owned encode
                encode_batch_payload_from(&batch, slices(), width, &mut borrowed);
                prop_assert_eq!(&borrowed[3..], &frame[..]);
                let frame = Bytes::from(frame);
                let (mut t, mut p) = (Vec::new(), Vec::new());
                let got = decode_batch_payload_into(frame.clone(), &mut t, &mut p);
                prop_assert_eq!(
                    got.map(|w| (t, p, w)),
                    reference::decode_batch_payload(frame.clone())
                );
                prop_assert_eq!(viewed(&frame), reference::decode_batch_payload(frame.clone()));
                for cut in 0..frame.len() {
                    let (mut t, mut p) = (Vec::new(), Vec::new());
                    let got = decode_batch_payload_into(frame.slice(0..cut), &mut t, &mut p);
                    prop_assert!(got.is_err(), "width {} cut at {}", width, cut);
                    prop_assert_eq!(viewed(&frame[..cut]).err(), got.err(), "cut at {}", cut);
                }
            }
        }

        #[test]
        fn corrupt_frames_get_the_reference_verdict(
            batch in arb_batch(),
            seed in any::<u64>(),
            at in any::<proptest::sample::Index>(),
            to in any::<u8>(),
        ) {
            for tagging in [Tagging::StreamTag, Tagging::Punctuated] {
                let frame = corrupt(&encode_batch(&batch, tagging), at, to);
                prop_assert_eq!(
                    decode_batch(frame.clone()).ok(),
                    reference::decode_batch(frame).ok()
                );
            }
            let mut frame = Vec::new();
            encode_batch_payload_into(&batch, &payload_column(batch.len(), seed), 39, &mut frame);
            let frame = corrupt(&frame, at, to);
            let (mut t, mut p) = (Vec::new(), Vec::new());
            let got = decode_batch_payload_into(frame.clone(), &mut t, &mut p);
            prop_assert_eq!(viewed(&frame), got.clone().map(|w| (t.clone(), p.clone(), w)));
            prop_assert_eq!(got.ok().map(|w| (t, p, w)), reference::decode_batch_payload(frame).ok());
        }
    }
}
