//! Self-delimiting columnar batch codec shared by the spill files and
//! the network wire format (little-endian, self-describing per column).
//!
//! One encoder/decoder serves both consumers: a [`ColumnBatch`] is
//! serialized as `nrows`, `ncols`, then each column tagged with its
//! representation. Dictionary columns stay encoded (dictionary page +
//! u32 codes), so encoded string columns cross the wire — or land on
//! disk — without being decoded first. The layout is self-delimiting:
//! a decoder consuming a well-formed buffer stops exactly at its end,
//! which is what lets spill chunks sit back-to-back in one file and
//! wire frames carry a batch as an opaque payload.

use crate::columnar::{BitVec, Buf, Column, ColumnBatch};
use orca_common::{Datum, OrcaError, Result};

/// Append a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Append a null bitmap: presence byte, then packed 64-bit words.
pub fn put_nulls(out: &mut Vec<u8>, nulls: &Option<BitVec>, len: usize) {
    match nulls {
        None => out.push(0),
        Some(b) => {
            out.push(1);
            let mut word = 0u64;
            for i in 0..len {
                if b.get(i) {
                    word |= 1 << (i % 64);
                }
                if i % 64 == 63 {
                    put_u64(out, word);
                    word = 0;
                }
            }
            if !len.is_multiple_of(64) {
                put_u64(out, word);
            }
        }
    }
}

/// Bounds-checked reader over an in-memory buffer. Every read reports
/// truncation as a typed error instead of panicking, so a torn frame or
/// a short spill chunk surfaces as [`OrcaError::Execution`].
pub struct Cursor<'a> {
    pub buf: &'a [u8],
    pub pos: usize,
}

impl<'a> Cursor<'a> {
    pub fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(OrcaError::Execution("batch decode: truncated chunk".into()));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn str(&mut self) -> Result<String> {
        let n = self.u32()? as usize;
        let raw = self.take(n)?;
        String::from_utf8(raw.to_vec())
            .map_err(|_| OrcaError::Execution("batch decode: invalid utf8".into()))
    }

    pub fn nulls(&mut self, len: usize) -> Result<Option<BitVec>> {
        if self.u8()? == 0 {
            return Ok(None);
        }
        let mut bits = BitVec::new();
        let mut w = 0u64;
        for i in 0..len {
            if i % 64 == 0 {
                w = self.u64()?;
            }
            bits.push((w >> (i % 64)) & 1 == 1);
        }
        Ok(Some(bits))
    }
}

const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_DOUBLE: u8 = 2;
const TAG_BOOL: u8 = 3;
const TAG_STR: u8 = 4;
const TAG_DATE: u8 = 5;
const TAG_DICT: u8 = 6;
const TAG_MIXED: u8 = 7;

/// Append one tagged datum (used by `Column::Mixed`).
pub fn encode_datum(out: &mut Vec<u8>, d: &Datum) {
    match d {
        Datum::Null => out.push(TAG_NULL),
        Datum::Int(v) => {
            out.push(TAG_INT);
            put_u64(out, *v as u64);
        }
        Datum::Double(v) => {
            out.push(TAG_DOUBLE);
            put_u64(out, v.to_bits());
        }
        Datum::Bool(v) => {
            out.push(TAG_BOOL);
            out.push(*v as u8);
        }
        Datum::Str(s) => {
            out.push(TAG_STR);
            put_str(out, s);
        }
        Datum::Date(v) => {
            out.push(TAG_DATE);
            put_u32(out, *v as u32);
        }
    }
}

/// Decode one tagged datum.
pub fn decode_datum(c: &mut Cursor<'_>) -> Result<Datum> {
    Ok(match c.u8()? {
        TAG_NULL => Datum::Null,
        TAG_INT => Datum::Int(c.u64()? as i64),
        TAG_DOUBLE => Datum::Double(f64::from_bits(c.u64()?)),
        TAG_BOOL => Datum::Bool(c.u8()? != 0),
        TAG_STR => Datum::Str(c.str()?),
        TAG_DATE => Datum::Date(c.u32()? as i32),
        t => {
            return Err(OrcaError::Execution(format!(
                "batch decode: bad datum tag {t}"
            )))
        }
    })
}

/// Serialize one batch: `nrows`, `ncols`, then each column tagged with
/// its representation. Dictionary columns stay encoded (dictionary +
/// codes), so a dictionary-bearing chunk costs its encoded size, not
/// its decoded one.
pub fn encode_batch(b: &ColumnBatch) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + b.len * b.cols.len() * 8);
    encode_batch_into(&mut out, b);
    out
}

/// Serialize one batch, appending to an existing buffer (the wire path
/// writes the frame header first and the batch body after it).
pub fn encode_batch_into(out: &mut Vec<u8>, b: &ColumnBatch) {
    put_u32(out, b.len as u32);
    put_u32(out, b.cols.len() as u32);
    for col in &b.cols {
        match col {
            Column::Null(_) => out.push(TAG_NULL),
            Column::Int { vals, nulls } => {
                out.push(TAG_INT);
                put_nulls(out, nulls, vals.len());
                for v in vals.iter() {
                    put_u64(out, *v as u64);
                }
            }
            Column::Double { vals, nulls } => {
                out.push(TAG_DOUBLE);
                put_nulls(out, nulls, vals.len());
                for v in vals.iter() {
                    put_u64(out, v.to_bits());
                }
            }
            Column::Bool { vals, nulls } => {
                out.push(TAG_BOOL);
                put_nulls(out, nulls, vals.len());
                out.extend(vals.iter().map(|&v| v as u8));
            }
            Column::Str { vals, nulls } => {
                out.push(TAG_STR);
                put_nulls(out, nulls, vals.len());
                for s in vals.iter() {
                    put_str(out, s);
                }
            }
            Column::Date { vals, nulls } => {
                out.push(TAG_DATE);
                put_nulls(out, nulls, vals.len());
                for v in vals.iter() {
                    put_u32(out, *v as u32);
                }
            }
            Column::Dict { codes, dict, nulls } => {
                out.push(TAG_DICT);
                put_u32(out, dict.len() as u32);
                for s in dict.iter() {
                    put_str(out, s);
                }
                put_nulls(out, nulls, codes.len());
                for c in codes.iter() {
                    put_u32(out, *c);
                }
            }
            Column::Mixed(vals) => {
                out.push(TAG_MIXED);
                for d in vals.iter() {
                    encode_datum(out, d);
                }
            }
        }
    }
}

/// Decode one batch from a buffer produced by [`encode_batch`].
pub fn decode_batch(buf: &[u8]) -> Result<ColumnBatch> {
    let mut c = Cursor::new(buf);
    decode_batch_from(&mut c)
}

/// Decode one batch starting at the cursor's position, leaving the
/// cursor just past it (frames may carry trailing payload).
pub fn decode_batch_from(c: &mut Cursor<'_>) -> Result<ColumnBatch> {
    let nrows = c.u32()? as usize;
    let ncols = c.u32()? as usize;
    let mut cols = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let col = match c.u8()? {
            TAG_NULL => Column::Null(nrows),
            TAG_INT => {
                let nulls = c.nulls(nrows)?;
                let vals: Vec<i64> = (0..nrows)
                    .map(|_| c.u64().map(|v| v as i64))
                    .collect::<Result<_>>()?;
                Column::Int {
                    vals: Buf::new(vals),
                    nulls,
                }
            }
            TAG_DOUBLE => {
                let nulls = c.nulls(nrows)?;
                let vals: Vec<f64> = (0..nrows)
                    .map(|_| c.u64().map(f64::from_bits))
                    .collect::<Result<_>>()?;
                Column::Double {
                    vals: Buf::new(vals),
                    nulls,
                }
            }
            TAG_BOOL => {
                let nulls = c.nulls(nrows)?;
                let vals: Vec<bool> = (0..nrows)
                    .map(|_| c.u8().map(|v| v != 0))
                    .collect::<Result<_>>()?;
                Column::Bool {
                    vals: Buf::new(vals),
                    nulls,
                }
            }
            TAG_STR => {
                let nulls = c.nulls(nrows)?;
                let vals: Vec<String> = (0..nrows).map(|_| c.str()).collect::<Result<_>>()?;
                Column::Str {
                    vals: Buf::new(vals),
                    nulls,
                }
            }
            TAG_DATE => {
                let nulls = c.nulls(nrows)?;
                let vals: Vec<i32> = (0..nrows)
                    .map(|_| c.u32().map(|v| v as i32))
                    .collect::<Result<_>>()?;
                Column::Date {
                    vals: Buf::new(vals),
                    nulls,
                }
            }
            TAG_DICT => {
                let dict_len = c.u32()? as usize;
                let dict: Vec<String> = (0..dict_len).map(|_| c.str()).collect::<Result<_>>()?;
                let nulls = c.nulls(nrows)?;
                let codes: Vec<u32> = (0..nrows).map(|_| c.u32()).collect::<Result<_>>()?;
                // Readers index the dictionary by code, so a code past its
                // end must be rejected here, not panic there. NULL slots
                // carry a placeholder code that is never read.
                let bad = codes.iter().enumerate().find(|&(i, &code)| {
                    code as usize >= dict_len && !nulls.as_ref().is_some_and(|nb| nb.get(i))
                });
                if let Some((i, code)) = bad {
                    return Err(OrcaError::Execution(format!(
                        "batch decode: dictionary code {code} at row {i} \
                         exceeds the {dict_len}-entry dictionary"
                    )));
                }
                Column::Dict {
                    codes: Buf::new(codes),
                    dict: std::sync::Arc::new(dict),
                    nulls,
                }
            }
            TAG_MIXED => {
                let vals: Vec<Datum> =
                    (0..nrows).map(|_| decode_datum(c)).collect::<Result<_>>()?;
                Column::Mixed(Buf::new(vals))
            }
            t => {
                return Err(OrcaError::Execution(format!(
                    "batch decode: bad column tag {t}"
                )))
            }
        };
        cols.push(col);
    }
    Ok(ColumnBatch { cols, len: nrows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::Row;
    use std::sync::Arc;

    #[test]
    fn codec_round_trips_typed_columns() {
        let rows: Vec<Row> = vec![
            vec![
                Datum::Int(1),
                Datum::Str("ab".into()),
                Datum::Double(1.5),
                Datum::Bool(true),
                Datum::Date(19000),
            ],
            vec![
                Datum::Null,
                Datum::Null,
                Datum::Double(-0.0),
                Datum::Null,
                Datum::Date(-5),
            ],
            vec![
                Datum::Int(-7),
                Datum::Str("".into()),
                Datum::Null,
                Datum::Bool(false),
                Datum::Null,
            ],
        ];
        let b = ColumnBatch::from_rows(&rows, 5);
        let back = decode_batch(&encode_batch(&b)).unwrap();
        assert_eq!(back.len, b.len);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(&back.row(i), row, "row {i}");
        }
    }

    #[test]
    fn codec_keeps_dictionary_encoding() {
        let mut nulls = BitVec::new();
        for i in 0..4 {
            nulls.push(i == 2);
        }
        let dict = Column::Dict {
            codes: Buf::new(vec![1, 0, 0, 1]),
            dict: Arc::new(vec!["x".into(), "yy".into()]),
            nulls: Some(nulls),
        };
        let b = ColumnBatch {
            cols: vec![dict],
            len: 4,
        };
        let bytes = encode_batch(&b);
        let back = decode_batch(&bytes).unwrap();
        // Still dictionary-encoded after the round trip, same values.
        assert!(matches!(back.cols[0], Column::Dict { .. }));
        for i in 0..4 {
            assert_eq!(back.cols[0].get(i), b.cols[0].get(i));
        }
        // The wire shape carries codes + dictionary, not decoded strings:
        // 4 codes beat 4 decoded copies of "yy"/"x" for longer columns.
        assert!(bytes.len() < 80);
    }

    #[test]
    fn decoder_rejects_dictionary_codes_past_the_dictionary() {
        let encode = |codes: Vec<u32>, dict: Vec<String>, nulls: Option<BitVec>| {
            let len = codes.len();
            let col = Column::Dict {
                codes: Buf::new(codes),
                dict: Arc::new(dict),
                nulls,
            };
            encode_batch(&ColumnBatch {
                cols: vec![col],
                len,
            })
        };
        // One row, a one-entry dictionary, code 7: a reader would index
        // past the dictionary.
        let bytes = encode(vec![7], vec!["x".into()], None);
        let err = decode_batch(&bytes).unwrap_err();
        assert_eq!(err.kind(), "execution");
        assert!(err.to_string().contains("dictionary code 7"), "{err}");
        // The last valid code decodes.
        let ok = decode_batch(&encode(vec![0, 1], vec!["x".into(), "y".into()], None)).unwrap();
        assert_eq!(ok.cols[0].get(1), Datum::Str("y".into()));
        // A NULL slot's placeholder code is never read, so an all-NULL
        // column with an empty dictionary (what `dict_encoded` builds)
        // stays valid.
        let mut nulls = BitVec::new();
        nulls.push(true);
        let all_null = decode_batch(&encode(vec![0], Vec::new(), Some(nulls))).unwrap();
        assert_eq!(all_null.cols[0].get(0), Datum::Null);
    }

    #[test]
    fn decoder_reports_truncation_not_panic() {
        let b = ColumnBatch::from_rows(&[vec![Datum::Int(5), Datum::Str("hello".into())]], 2);
        let bytes = encode_batch(&b);
        for cut in 0..bytes.len() {
            let err = decode_batch(&bytes[..cut]).unwrap_err();
            assert_eq!(err.kind(), "execution", "cut at {cut}");
        }
    }

    #[test]
    fn decoder_stops_exactly_at_batch_end() {
        let b = ColumnBatch::from_rows(&[vec![Datum::Int(1)], vec![Datum::Int(2)]], 1);
        let mut bytes = encode_batch(&b);
        let end = bytes.len();
        bytes.extend_from_slice(&[0xde, 0xad]);
        let mut c = Cursor::new(&bytes);
        let back = decode_batch_from(&mut c).unwrap();
        assert_eq!(back.len, 2);
        assert_eq!(c.pos, end);
    }
}
