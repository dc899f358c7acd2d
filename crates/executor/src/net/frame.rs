//! Length-prefixed frame codec for the interconnect's `Msg` protocol.
//!
//! Wire layout: `[len: u32 LE][type: u8][payload: len-1 bytes]` — `len`
//! counts the type byte plus the payload, so a reader can skip unknown
//! frames. Batch payloads reuse the spill chunk codec
//! ([`crate::codec`]) verbatim: dictionary-encoded string columns cross
//! the wire as a dictionary page + u32 codes, never decoded.
//!
//! [`FrameReader`] is resumable: a read that ends mid-frame (socket
//! timeout, torn TCP segment) parks its partial state and picks up
//! where it left off on the next poll, so short read timeouts can be
//! used for abort checking without corrupting the stream.

use crate::codec;
use crate::columnar::ColumnBatch;
use crate::parallel::interconnect::Msg;
use orca_common::{ColId, OrcaError, Result};
use std::io::{ErrorKind, Read, Write};

/// Sender → receiver: `{query_id, motion, sender, receiver}` endpoint
/// identification, first frame on every connection.
pub const FRAME_HANDSHAKE: u8 = 1;
/// Receiver → sender: handshake accepted; the open round trip is
/// complete and data may flow.
pub const FRAME_ACK: u8 = 2;
/// Stream prologue: layout + the sender slot's simulated clock.
pub const FRAME_OPEN: u8 = 3;
/// One [`ColumnBatch`] in the shared chunk codec.
pub const FRAME_BATCH: u8 = 4;
/// End of stream.
pub const FRAME_EOS: u8 = 5;
/// Control frame: typed error propagation (abort, deadline, failure).
pub const FRAME_ABORT: u8 = 6;

/// Upper bound on a single frame body. A frame carries at most one
/// interconnect batch; anything bigger is a corrupt length prefix, and
/// trusting it would let a bad peer OOM the receiver.
pub const MAX_FRAME: usize = 256 << 20;

/// Endpoint identity carried by the handshake: one TCP connection per
/// (query, motion, sender instance, receiver instance) edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EndpointKey {
    pub query: u64,
    pub motion: u32,
    pub sender: u32,
    pub receiver: u32,
}

fn frame(ty: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(5 + payload.len());
    codec::put_u32(&mut out, (payload.len() + 1) as u32);
    out.push(ty);
    out.extend_from_slice(payload);
    out
}

pub fn encode_handshake(key: &EndpointKey) -> Vec<u8> {
    let mut p = Vec::with_capacity(20);
    codec::put_u64(&mut p, key.query);
    codec::put_u32(&mut p, key.motion);
    codec::put_u32(&mut p, key.sender);
    codec::put_u32(&mut p, key.receiver);
    frame(FRAME_HANDSHAKE, &p)
}

pub fn decode_handshake(payload: &[u8]) -> Result<EndpointKey> {
    let mut c = codec::Cursor::new(payload);
    Ok(EndpointKey {
        query: c.u64()?,
        motion: c.u32()?,
        sender: c.u32()?,
        receiver: c.u32()?,
    })
}

pub fn encode_ack() -> Vec<u8> {
    frame(FRAME_ACK, &[])
}

/// Typed errors travel as `(kind, message)`; the receiving side rebuilds
/// the same variant so an abort or deadline keeps its meaning across the
/// process boundary.
pub fn encode_abort(err: &OrcaError) -> Vec<u8> {
    let mut p = Vec::new();
    codec::put_str(&mut p, err.kind());
    codec::put_str(&mut p, err.message());
    frame(FRAME_ABORT, &p)
}

pub fn decode_abort(payload: &[u8]) -> Result<OrcaError> {
    let mut c = codec::Cursor::new(payload);
    let kind = c.str()?;
    let msg = c.str()?;
    Ok(match kind.as_str() {
        "parse" => OrcaError::Parse(msg),
        "bind" => OrcaError::Bind(msg),
        "metadata" => OrcaError::Metadata(msg),
        "dxl" => OrcaError::Dxl(msg),
        "internal" => OrcaError::Internal(msg),
        "noplan" => OrcaError::NoPlan(msg),
        "aborted" => OrcaError::Aborted(msg),
        "timeout" => OrcaError::Timeout(msg),
        "oom" => OrcaError::OutOfMemory(msg),
        "net" => OrcaError::Net(msg),
        "unsupported" => OrcaError::Unsupported(msg),
        "injected" => OrcaError::InjectedFault(msg),
        _ => OrcaError::Execution(msg),
    })
}

/// Encode one protocol message as a frame. `Open` carries the sender
/// slot's simulated clock as IEEE-754 bits, so the receiver's replayed
/// motion clock is bit-equal to the in-process interconnect's.
pub fn encode_msg(msg: &Msg) -> Vec<u8> {
    match msg {
        Msg::Open {
            layout,
            avail,
            bytes,
            replicated,
        } => {
            let mut p = Vec::with_capacity(21 + layout.len() * 4);
            p.push(*replicated as u8);
            codec::put_u64(&mut p, avail.to_bits());
            codec::put_u64(&mut p, bytes.to_bits());
            codec::put_u32(&mut p, layout.len() as u32);
            for c in layout {
                codec::put_u32(&mut p, c.0);
            }
            frame(FRAME_OPEN, &p)
        }
        Msg::Batch(b) => {
            let mut out = Vec::with_capacity(64 + b.len * b.cols.len() * 8);
            codec::put_u32(&mut out, 0); // patched below
            out.push(FRAME_BATCH);
            codec::encode_batch_into(&mut out, b);
            let len = (out.len() - 4) as u32;
            out[..4].copy_from_slice(&len.to_le_bytes());
            out
        }
        Msg::Eos => frame(FRAME_EOS, &[]),
    }
}

/// Decode a data-plane frame back into a protocol message. Handshake,
/// ack and abort frames are transport-level and rejected here.
pub fn decode_msg(ty: u8, payload: &[u8]) -> Result<Msg> {
    match ty {
        FRAME_OPEN => {
            let mut c = codec::Cursor::new(payload);
            let replicated = c.u8()? != 0;
            let avail = f64::from_bits(c.u64()?);
            let bytes = f64::from_bits(c.u64()?);
            let ncols = c.u32()? as usize;
            let mut layout = Vec::with_capacity(ncols);
            for _ in 0..ncols {
                layout.push(ColId(c.u32()?));
            }
            Ok(Msg::Open {
                layout,
                avail,
                bytes,
                replicated,
            })
        }
        FRAME_BATCH => Ok(Msg::Batch(decode_batch_payload(payload)?)),
        FRAME_EOS => Ok(Msg::Eos),
        t => Err(OrcaError::Net(format!("unexpected frame type {t}"))),
    }
}

pub fn decode_batch_payload(payload: &[u8]) -> Result<ColumnBatch> {
    codec::decode_batch(payload)
}

/// Resumable frame reader over any byte stream.
///
/// `poll_frame` returns `Ok(Some(_))` when a whole frame is buffered,
/// `Ok(None)` when the underlying read would block or timed out (state
/// is preserved — call again), and `Err` on EOF, I/O failure, or a
/// malformed length prefix.
pub struct FrameReader<R> {
    inner: R,
    head: [u8; 4],
    head_have: usize,
    body: Vec<u8>,
    body_have: usize,
}

impl<R: Read> FrameReader<R> {
    pub fn new(inner: R) -> FrameReader<R> {
        FrameReader {
            inner,
            head: [0; 4],
            head_have: 0,
            body: Vec::new(),
            body_have: 0,
        }
    }

    fn read_some(&mut self, scratch: bool) -> Result<Option<usize>> {
        // Borrow-splitting shim: read into head or body without holding
        // two &mut self borrows.
        let (inner, buf) = if scratch {
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
        loop {
            if self.head_have < 4 {
                match self.read_some(true)? {
                    Some(n) => {
                        self.head_have += n;
                        if self.head_have == 4 {
                            let len = u32::from_le_bytes(self.head) as usize;
                            if len == 0 || len > MAX_FRAME {
                                return Err(OrcaError::Net(format!("bad frame length {len}")));
                            }
                            self.body = vec![0u8; len];
                            self.body_have = 0;
                        }
                    }
                    None => return Ok(None),
                }
            } else {
                match self.read_some(false)? {
                    Some(n) => {
                        self.body_have += n;
                        if self.body_have == self.body.len() {
                            let body = std::mem::take(&mut self.body);
                            self.head_have = 0;
                            self.body_have = 0;
                            let ty = body[0];
                            return Ok(Some((ty, body[1..].to_vec())));
                        }
                    }
                    None => return Ok(None),
                }
            }
        }
    }
}

/// Write a whole buffer through a stream with a short write timeout,
/// re-checking the abort signal between partial writes so a stalled
/// peer cannot wedge the sender.
pub fn write_all_abort(
    w: &mut impl Write,
    buf: &[u8],
    abort: &orca_gpos::AbortSignal,
) -> Result<()> {
    let mut off = 0;
    while off < buf.len() {
        abort.check()?;
        match w.write(&buf[off..]) {
            Ok(0) => return Err(OrcaError::Net("peer closed connection".into())),
            Ok(n) => off += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(e) => return Err(OrcaError::Net(format!("write failed: {e}"))),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columnar::{BitVec, Buf, Column};
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
        for m in &sent {
            wire.extend_from_slice(&encode_msg(m));
        }
        wire.extend_from_slice(&encode_abort(&OrcaError::Timeout("deadline".into())));

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
                let msg = decode_msg(*ty, payload).unwrap();
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
            let err = decode_abort(&frames[sent.len()].1).unwrap();
            assert_eq!(err, OrcaError::Timeout("deadline".into()));
        }
    }

    #[test]
    fn handshake_round_trips() {
        let key = EndpointKey {
            query: u64::MAX - 3,
            motion: 7,
            sender: 2,
            receiver: 0,
        };
        let buf = encode_handshake(&key);
        let mut r = FrameReader::new(ChunkedReader {
            data: buf,
            pos: 0,
            chunk: 1,
            starve: true,
        });
        let (ty, payload) = loop {
            if let Some(f) = r.poll_frame().unwrap() {
                break f;
            }
        };
        assert_eq!(ty, FRAME_HANDSHAKE);
        assert_eq!(decode_handshake(&payload).unwrap(), key);
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
}
