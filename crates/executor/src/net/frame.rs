//! Length-prefixed, keyed frame codec for the interconnect's `Msg`
//! protocol.
//!
//! Wire layout: `[len: u32 LE][type: u8][payload: len-1 bytes]` — `len`
//! counts the type byte plus the payload, so a reader can skip unknown
//! frames. Every interconnect payload starts with the 20-byte
//! [`EndpointKey`] of its edge, so the edges of any number of queries
//! share one connection per peer pair. Batch payloads reuse the spill
//! chunk codec ([`crate::codec`]) verbatim: dictionary-encoded string
//! columns cross the wire as a dictionary page + u32 codes, never
//! decoded. Frame types 1 and 2 (the per-connection handshake and ack)
//! are retired.
//!
//! [`FrameReader`] is resumable: a read that ends mid-frame (socket
//! timeout, torn TCP segment) parks its partial state and picks up
//! where it left off on the next poll, so short read timeouts can be
//! used for abort checking without corrupting the stream.

use crate::codec;
use crate::parallel::interconnect::Msg;
use orca_common::{ColId, OrcaError, Result};
use std::io::{ErrorKind, Read};

/// Stream prologue: layout + the sender slot's simulated clock.
pub const FRAME_OPEN: u8 = 3;
/// One [`crate::columnar::ColumnBatch`] in the shared chunk codec.
pub const FRAME_BATCH: u8 = 4;
/// End of stream.
pub const FRAME_EOS: u8 = 5;
/// Control frame: typed error propagation (abort, deadline, failure)
/// for every edge of the key's query.
pub const FRAME_ABORT: u8 = 6;

/// Upper bound on a single frame body. A frame carries at most one
/// interconnect batch; anything bigger is a corrupt length prefix, and
/// trusting it would let a bad peer OOM the receiver.
pub const MAX_FRAME: usize = 256 << 20;

/// The edge a frame belongs to: one (query, motion, sender instance,
/// receiver instance). An abort frame uses only `query`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct EndpointKey {
    pub query: u64,
    pub motion: u32,
    pub sender: u32,
    pub receiver: u32,
}

/// One decoded interconnect frame.
#[derive(Debug)]
pub enum Frame {
    /// A data-plane message for the key's edge.
    Msg(Msg),
    /// A typed failure of the key's whole query.
    Abort(OrcaError),
}

/// Start a frame of type `ty` for `key`; [`seal`] patches its length.
fn start(ty: u8, key: &EndpointKey, capacity: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(25 + capacity);
    codec::put_u32(&mut out, 0);
    out.push(ty);
    codec::put_u64(&mut out, key.query);
    codec::put_u32(&mut out, key.motion);
    codec::put_u32(&mut out, key.sender);
    codec::put_u32(&mut out, key.receiver);
    out
}

fn seal(mut out: Vec<u8>) -> Vec<u8> {
    let len = (out.len() - 4) as u32;
    out[..4].copy_from_slice(&len.to_le_bytes());
    out
}

/// Abort frame failing every edge of `key.query` on the receiving peer.
/// Typed errors travel as `(kind, message)`; the receiving side rebuilds
/// the same variant so an abort or deadline keeps its meaning across the
/// process boundary.
pub fn encode_abort(key: &EndpointKey, err: &OrcaError) -> Vec<u8> {
    let mut out = start(FRAME_ABORT, key, 16 + err.message().len());
    codec::put_str(&mut out, err.kind());
    codec::put_str(&mut out, err.message());
    seal(out)
}

/// Rebuild a typed error from a `(kind, message)` payload.
pub fn decode_abort(payload: &[u8]) -> Result<OrcaError> {
    let mut c = codec::Cursor::new(payload);
    let kind = c.str()?;
    Ok(OrcaError::from_kind(&kind, c.str()?))
}

/// Encode one protocol message of edge `key` as a frame. `Open` carries
/// the sender slot's simulated clock as IEEE-754 bits, so the receiver's
/// replayed motion clock is bit-equal to the in-process interconnect's.
pub fn encode_msg(key: &EndpointKey, msg: &Msg) -> Vec<u8> {
    seal(match msg {
        Msg::Open {
            layout,
            avail,
            bytes,
            replicated,
        } => {
            let mut out = start(FRAME_OPEN, key, 21 + layout.len() * 4);
            out.push(*replicated as u8);
            codec::put_u64(&mut out, avail.to_bits());
            codec::put_u64(&mut out, bytes.to_bits());
            codec::put_u32(&mut out, layout.len() as u32);
            for c in layout {
                codec::put_u32(&mut out, c.0);
            }
            out
        }
        Msg::Batch(b) => {
            let mut out = start(FRAME_BATCH, key, 64 + b.len * b.cols.len() * 8);
            codec::encode_batch_into(&mut out, b);
            out
        }
        Msg::Eos => start(FRAME_EOS, key, 0),
    })
}

/// Decode one frame body back into its edge key and content. Never
/// panics: a truncated key or payload, trailing bytes, or an unknown
/// frame type is an error.
pub fn decode_frame(ty: u8, payload: &[u8]) -> Result<(EndpointKey, Frame)> {
    let mut c = codec::Cursor::new(payload);
    let key = EndpointKey {
        query: c.u64()?,
        motion: c.u32()?,
        sender: c.u32()?,
        receiver: c.u32()?,
    };
    let frame = match ty {
        FRAME_OPEN => {
            let replicated = c.u8()? != 0;
            let avail = f64::from_bits(c.u64()?);
            let bytes = f64::from_bits(c.u64()?);
            let ncols = c.u32()? as usize;
            let layout = (0..ncols)
                .map(|_| c.u32().map(ColId))
                .collect::<Result<_>>()?;
            Frame::Msg(Msg::Open {
                layout,
                avail,
                bytes,
                replicated,
            })
        }
        FRAME_BATCH => Frame::Msg(Msg::Batch(codec::decode_batch_from(&mut c)?)),
        FRAME_EOS => Frame::Msg(Msg::Eos),
        FRAME_ABORT => return Ok((key, Frame::Abort(decode_abort(&payload[c.pos..])?))),
        t => return Err(OrcaError::Net(format!("unexpected frame type {t}"))),
    };
    if c.pos != payload.len() {
        return Err(OrcaError::Net(format!("frame {ty}: trailing bytes")));
    }
    Ok((key, frame))
}

/// Resumable frame reader over any byte stream.
///
/// `poll_frame` returns `Ok(Some(_))` when a whole frame is buffered,
/// `Ok(None)` when the underlying read would block or timed out (state
/// is preserved — call again), and `Err` on EOF, I/O failure, or a
/// malformed length prefix.
pub struct FrameReader<R> {
    inner: R,
    /// `[len: u32][type: u8]`.
    head: [u8; 5],
    head_have: usize,
    body: Vec<u8>,
    body_have: usize,
}

impl<R: Read> FrameReader<R> {
    pub fn new(inner: R) -> FrameReader<R> {
        FrameReader {
            inner,
            head: [0; 5],
            head_have: 0,
            body: Vec::new(),
            body_have: 0,
        }
    }

    /// The underlying stream.
    pub fn get_ref(&self) -> &R {
        &self.inner
    }

    fn read_some(&mut self, head: bool) -> Result<Option<usize>> {
        // Borrow-splitting shim: read into head or body without holding
        // two &mut self borrows.
        let (inner, buf) = if head {
            (&mut self.inner, &mut self.head[self.head_have..])
        } else {
            (&mut self.inner, &mut self.body[self.body_have..])
        };
        loop {
            match inner.read(buf) {
                Ok(0) => return Err(OrcaError::Net("peer closed connection".into())),
                Ok(n) => return Ok(Some(n)),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    return Ok(None)
                }
                Err(e) => return Err(OrcaError::Net(format!("read failed: {e}"))),
            }
        }
    }

    /// Attempt to complete one frame; `(type, payload)` without the
    /// length prefix or type byte.
    pub fn poll_frame(&mut self) -> Result<Option<(u8, Vec<u8>)>> {
        while self.head_have < 5 {
            let Some(n) = self.read_some(true)? else {
                return Ok(None);
            };
            self.head_have += n;
            if self.head_have == 5 {
                let [a, b, c, d, _] = self.head;
                let len = u32::from_le_bytes([a, b, c, d]) as usize;
                if len == 0 || len > MAX_FRAME {
                    return Err(OrcaError::Net(format!("bad frame length {len}")));
                }
                self.body = vec![0u8; len - 1];
                self.body_have = 0;
            }
        }
        while self.body_have < self.body.len() {
            let Some(n) = self.read_some(false)? else {
                return Ok(None);
            };
            self.body_have += n;
        }
        self.head_have = 0;
        Ok(Some((self.head[4], std::mem::take(&mut self.body))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columnar::{BitVec, Buf, Column, ColumnBatch};
    use orca_common::Datum;
    use std::sync::Arc;

    /// A reader that hands out at most `chunk` bytes per call and
    /// returns `WouldBlock` between chunks — the torn-read torture
    /// harness for [`FrameReader`].
    struct ChunkedReader {
        data: Vec<u8>,
        pos: usize,
        chunk: usize,
        starve: bool,
    }

    impl Read for ChunkedReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.starve {
                self.starve = false;
                return Err(std::io::Error::from(ErrorKind::WouldBlock));
            }
            self.starve = true;
            if self.pos >= self.data.len() {
                return Ok(0);
            }
            let n = self.chunk.min(buf.len()).min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    fn key(motion: u32) -> EndpointKey {
        EndpointKey {
            query: 41,
            motion,
            sender: 3,
            receiver: 1,
        }
    }

    fn drain(reader: &mut FrameReader<ChunkedReader>) -> Vec<(u8, Vec<u8>)> {
        let mut frames = Vec::new();
        loop {
            match reader.poll_frame() {
                Ok(Some(f)) => frames.push(f),
                Ok(None) => continue, // starved mid-frame; resume
                Err(e) => {
                    assert_eq!(e.kind(), "net"); // EOF at stream end
                    return frames;
                }
            }
        }
    }

    /// Deterministic per-case "random" batches: dict-encoded strings,
    /// null bitmaps, empty batches, mixed columns.
    fn sample_batches() -> Vec<ColumnBatch> {
        let mut nulls = BitVec::new();
        for i in 0..5 {
            nulls.push(i % 3 == 0);
        }
        vec![
            ColumnBatch::new(3), // empty, 3 columns
            ColumnBatch::from_rows(
                &[
                    vec![Datum::Int(-1), Datum::Str("α".into()), Datum::Double(0.125)],
                    vec![Datum::Null, Datum::Str("".into()), Datum::Null],
                ],
                3,
            ),
            ColumnBatch {
                cols: vec![
                    Column::Dict {
                        codes: Buf::new(vec![0, 1, 0, 2, 1]),
                        dict: Arc::new(vec!["aa".into(), "b".into(), "".into()]),
                        nulls: Some(nulls),
                    },
                    Column::Mixed(Buf::new(vec![
                        Datum::Int(7),
                        Datum::Str("mix".into()),
                        Datum::Null,
                        Datum::Bool(true),
                        Datum::Date(-3),
                    ])),
                ],
                len: 5,
            },
        ]
    }

    /// Round-trip proptest-style sweep: every sample message sequence ×
    /// every chunk size from 1 byte up, through a starving reader.
    #[test]
    fn frames_round_trip_through_torn_reads() {
        let batches = sample_batches();
        let mut wire = Vec::new();
        let mut sent: Vec<Msg> = Vec::new();
        sent.push(Msg::Open {
            layout: vec![ColId(3), ColId(9)],
            avail: 1.25,
            bytes: 4096.0,
            replicated: true,
        });
        for b in &batches {
            sent.push(Msg::Batch(b.clone()));
        }
        sent.push(Msg::Eos);
        for (i, m) in sent.iter().enumerate() {
            wire.extend_from_slice(&encode_msg(&key(i as u32), m));
        }
        wire.extend_from_slice(&encode_abort(
            &key(99),
            &OrcaError::Timeout("deadline".into()),
        ));

        for chunk in [1, 2, 3, 5, 7, 16, 64, 4096] {
            let mut reader = FrameReader::new(ChunkedReader {
                data: wire.clone(),
                pos: 0,
                chunk,
                starve: true,
            });
            let frames = drain(&mut reader);
            assert_eq!(frames.len(), sent.len() + 1, "chunk={chunk}");
            for (i, (ty, payload)) in frames[..sent.len()].iter().enumerate() {
                let (k, Frame::Msg(msg)) = decode_frame(*ty, payload).unwrap() else {
                    panic!("frame {i} is not a message");
                };
                assert_eq!(k, key(i as u32));
                match (&msg, &sent[i]) {
                    (
                        Msg::Open {
                            layout: a,
                            avail: aa,
                            bytes: ab,
                            replicated: ar,
                        },
                        Msg::Open {
                            layout: b,
                            avail: ba,
                            bytes: bb,
                            replicated: br,
                        },
                    ) => {
                        assert_eq!(a, b);
                        assert_eq!(aa.to_bits(), ba.to_bits());
                        assert_eq!(ab.to_bits(), bb.to_bits());
                        assert_eq!(ar, br);
                    }
                    (Msg::Batch(a), Msg::Batch(b)) => {
                        assert_eq!(a.len, b.len);
                        for r in 0..a.len {
                            assert_eq!(a.row(r), b.row(r));
                        }
                        // Dictionary columns stay encoded across the wire.
                        for (ca, cb) in a.cols.iter().zip(&b.cols) {
                            assert_eq!(
                                matches!(ca, Column::Dict { .. }),
                                matches!(cb, Column::Dict { .. })
                            );
                        }
                    }
                    (Msg::Eos, Msg::Eos) => {}
                    (got, want) => panic!("frame {i}: got {got:?}, want {want:?}"),
                }
            }
            let (ty, payload) = &frames[sent.len()];
            let (k, Frame::Abort(err)) = decode_frame(*ty, payload).unwrap() else {
                panic!("last frame is not an abort");
            };
            assert_eq!(k, key(99));
            assert_eq!(err, OrcaError::Timeout("deadline".into()));
        }
    }

    /// Every key field survives a one-byte-at-a-time read.
    #[test]
    fn endpoint_key_round_trips() {
        let k = EndpointKey {
            query: u64::MAX - 3,
            motion: 7,
            sender: 2,
            receiver: 0,
        };
        let mut r = FrameReader::new(ChunkedReader {
            data: encode_msg(&k, &Msg::Eos),
            pos: 0,
            chunk: 1,
            starve: true,
        });
        let (ty, payload) = loop {
            if let Some(f) = r.poll_frame().unwrap() {
                break f;
            }
        };
        assert_eq!(ty, FRAME_EOS);
        assert!(
            matches!(decode_frame(ty, &payload).unwrap(), (got, Frame::Msg(Msg::Eos)) if got == k)
        );
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut buf = Vec::new();
        crate::codec::put_u32(&mut buf, (MAX_FRAME + 1) as u32);
        buf.push(FRAME_EOS);
        let mut r = FrameReader::new(ChunkedReader {
            data: buf,
            pos: 0,
            chunk: 64,
            starve: false,
        });
        let err = loop {
            match r.poll_frame() {
                Ok(Some(_)) => panic!("accepted oversized frame"),
                Ok(None) => continue,
                Err(e) => break e,
            }
        };
        assert_eq!(err.kind(), "net");
    }

    /// Read every frame out of `wire` (torn into `chunk`-byte reads) and
    /// decode each; stops at the first reader error.
    fn read_and_decode(wire: Vec<u8>, chunk: usize) -> Vec<Result<(EndpointKey, Frame)>> {
        let mut r = FrameReader::new(ChunkedReader {
            data: wire,
            pos: 0,
            chunk,
            starve: true,
        });
        let mut out = Vec::new();
        loop {
            match r.poll_frame() {
                Ok(Some((ty, payload))) => out.push(decode_frame(ty, &payload)),
                Ok(None) => {}
                Err(_) => return out,
            }
        }
    }

    /// One valid frame of every type, for the mutation cases.
    fn valid_frames() -> Vec<Vec<u8>> {
        let mut frames: Vec<Vec<u8>> = sample_batches()
            .into_iter()
            .map(|b| encode_msg(&key(1), &Msg::Batch(b)))
            .collect();
        frames.push(encode_msg(
            &key(2),
            &Msg::Open {
                layout: vec![ColId(1), ColId(2)],
                avail: 0.5,
                bytes: 64.0,
                replicated: false,
            },
        ));
        frames.push(encode_msg(&key(3), &Msg::Eos));
        frames.push(encode_abort(&key(4), &OrcaError::Net("gone".into())));
        frames
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(2000))]

        /// Arbitrary bytes never panic the reader or the decoder.
        #[test]
        fn arbitrary_bytes_never_panic(
            bytes in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..96),
            chunk in 1usize..9,
        ) {
            // A plausible length prefix half the time, so bodies reach
            // the decoder instead of dying on the length check.
            let mut wire = bytes;
            if wire.len() > 5 && wire[0] % 2 == 0 {
                let len = (wire.len() - 4) as u32;
                wire[..4].copy_from_slice(&len.to_le_bytes());
            }
            read_and_decode(wire, chunk);
        }

        /// Mutated valid frames decode to an error (or, for a byte flip
        /// that happens to stay well-formed, a frame) — never a panic.
        /// A truncated key, an oversized length, an unknown type and a
        /// key of a query nobody registered are each checked by name.
        #[test]
        fn mutated_frames_never_panic(
            which in 0usize..6,
            pos in 0usize..4096,
            byte in proptest::arbitrary::any::<u8>(),
            cut in 0usize..4096,
            chunk in 1usize..9,
        ) {
            let frame = valid_frames().swap_remove(which);
            // A byte flip anywhere: any outcome but a panic.
            let mut flipped = frame.clone();
            let at = pos % flipped.len();
            flipped[at] ^= byte | 1;
            read_and_decode(flipped, chunk);
            // A body cut short, prefix patched to match: the key or the
            // payload is truncated, so the decode must fail.
            let keep = 5 + cut % (frame.len() - 5);
            let mut short = frame[..keep].to_vec();
            short[..4].copy_from_slice(&((keep - 4) as u32).to_le_bytes());
            let decoded = read_and_decode(short, chunk);
            proptest::prop_assert!(decoded.len() == 1 && decoded[0].is_err());
            // A length prefix past the cap is refused before any body
            // is buffered.
            let mut big = frame.clone();
            big[..4].copy_from_slice(&((MAX_FRAME + 1 + cut) as u32).to_le_bytes());
            proptest::prop_assert!(read_and_decode(big, chunk).is_empty());
            // An unknown type is an error, whatever its payload.
            let mut unknown = frame.clone();
            unknown[4] = [0, 1, 2, 7, 0x10, 0xff][which];
            let decoded = read_and_decode(unknown, chunk);
            proptest::prop_assert!(decoded.len() == 1 && decoded[0].is_err());
            // A key of a query nobody registered decodes like any other:
            // routing, not decoding, is what drops it.
            let mut stray = frame;
            stray[5..13].copy_from_slice(&(pos as u64 + 1_000_000).to_le_bytes());
            let decoded = read_and_decode(stray, chunk);
            proptest::prop_assert!(matches!(&decoded[..], [Ok((k, _))] if k.query == pos as u64 + 1_000_000));
        }
    }
}
