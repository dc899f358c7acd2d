//! The interconnect: routed columnar batches between slice gangs.
//!
//! Each receiving instance of a motion owns a [`Mailbox`] with one slot
//! per sender instance. A slot carries a short protocol: `Open(layout)`,
//! zero or more `Batch` messages of up to `batch_rows` rows, then `Eos`.
//! A sender task routes its finished stream straight into the receivers'
//! mailboxes, or as keyed frames over the one pooled TCP connection to
//! the receiving peer ([`crate::net`]), whose reader thread fills the
//! same mailbox type there. Slots are
//! unbounded, so a send never waits on a receiver; and the driver runs a
//! receiving task only once every slot of its mailboxes holds its `Eos`,
//! so a receive never waits either. A mailbox reports its completion —
//! or a remote edge's failure — through the hook it was built with.
//!
//! Batches travel **columnar** ([`ColumnBatch`]): a Gather forwards the
//! kernel's output columns without touching individual rows, and a
//! Redistribute routes row-by-row into per-destination column builders.
//! Consumed batch shells cycle through a shared [`BatchPool`] free list,
//! so steady-state traffic allocates no new buffers (`batches_reused`
//! in the parallel stats counts the recycled ones).
//!
//! Determinism: receivers read mailbox slots **in sender-segment order**
//! (GatherMerge instead merges all slots, breaking ties toward the
//! lowest sender), which reproduces the serial engine's stream order
//! byte for byte. A sender whose stream is replicated ships only its
//! segment-0 copy — the parallel analogue of the serial `one_copy()`.

use crate::columnar::exec::merge_sorted;
use crate::columnar::{ColStream, ColumnBatch};
use crate::net::NetSender;
use orca_common::hash::FnvHasher;
use orca_common::{ColId, OrcaError, Result, SegmentConfig};
use orca_expr::physical::MotionKind;
use orca_gpos::AbortSignal;
use std::hash::Hasher;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Max batch shells kept on the free list. Enough to cover every
/// in-flight batch of a busy gang; beyond that, dropping is cheaper
/// than hoarding.
const POOL_CAP: usize = 64;

/// One message on an interconnect edge.
#[derive(Debug)]
pub enum Msg {
    /// Stream prologue, sent by every sender instance: the row layout
    /// (identical across a motion — layouts travel in-band so empty
    /// streams still carry their schema) plus the sender's simulated
    /// clock and byte accounting, from which the receiver replays the
    /// serial engine's motion-cost formulas. The `f64`s cross process
    /// boundaries bit-exact, so `sim_seconds` is identical whether an
    /// edge is in-process or a socket.
    Open {
        layout: Vec<ColId>,
        /// The sender instance's stream clock (`ColStream::avail[0]`).
        avail: f64,
        /// Bytes of the sender's distinct copy (`ColStream::bytes()`).
        bytes: f64,
        /// Whether the sender's stream was replicated (every sender of a
        /// motion reports the same value).
        replicated: bool,
    },
    Batch(ColumnBatch),
    /// End of stream: the sender instance is done with this receiver.
    Eos,
}

/// Called once when every slot of a mailbox holds its `Eos`, or with the
/// error of a remote edge that failed first.
type OnDone = Box<dyn Fn(Result<()>) + Send + Sync>;

/// One receiving instance's inbox for one motion: a slot per sender
/// instance, filled in any order and read in sender order once complete.
pub struct Mailbox {
    slots: Vec<Mutex<Vec<Msg>>>,
    /// Slots still waiting for their `Eos`.
    open: AtomicUsize,
    on_done: OnDone,
}

impl Mailbox {
    pub fn new(senders: usize, on_done: impl Fn(Result<()>) + Send + Sync + 'static) -> Mailbox {
        Mailbox {
            slots: (0..senders).map(|_| Mutex::new(Vec::new())).collect(),
            open: AtomicUsize::new(senders),
            on_done: Box::new(on_done),
        }
    }

    /// Deliver one message from sender instance `sender`. The `Eos` that
    /// closes the last open slot reports the mailbox complete.
    pub fn push(&self, sender: usize, msg: Msg) {
        let eos = matches!(msg, Msg::Eos);
        self.slots[sender]
            .lock()
            .expect("mailbox slot lock poisoned")
            .push(msg);
        if eos && self.open.fetch_sub(1, Ordering::AcqRel) == 1 {
            (self.on_done)(Ok(()));
        }
    }

    /// A remote edge into this mailbox failed before its `Eos`.
    pub fn fail(&self, err: OrcaError) {
        (self.on_done)(Err(err));
    }

    /// Move every slot's messages out, in sender order.
    pub(crate) fn take(&self) -> Vec<Vec<Msg>> {
        self.slots
            .iter()
            .map(|s| std::mem::take(&mut *s.lock().expect("mailbox slot lock poisoned")))
            .collect()
    }
}

/// The sending half of one directed motion edge: the receiving
/// instance's mailbox slot when it lives in this process, or the edge's
/// key on the pooled connection to its peer when it lives in another.
pub enum MsgSender {
    Mailbox(Arc<Mailbox>, usize),
    Net(NetSender),
}

impl MsgSender {
    pub fn send(&self, msg: Msg, abort: &AbortSignal) -> Result<()> {
        match self {
            MsgSender::Mailbox(inbox, sender) => {
                inbox.push(*sender, msg);
                Ok(())
            }
            MsgSender::Net(tx) => tx.send(msg, abort),
        }
    }
}

/// A free list of [`ColumnBatch`] shells shared by every task of one
/// parallel run. Receivers return consumed shells; senders and
/// receivers take them back instead of allocating.
#[derive(Debug, Default)]
pub struct BatchPool {
    free: Mutex<Vec<ColumnBatch>>,
    reused: AtomicU64,
}

impl BatchPool {
    pub fn new() -> BatchPool {
        BatchPool::default()
    }

    /// An empty batch of `width` columns — recycled when available.
    pub fn take(&self, width: usize) -> ColumnBatch {
        if let Some(mut b) = self.free.lock().unwrap().pop() {
            b.reset(width);
            self.reused.fetch_add(1, Ordering::Relaxed);
            return b;
        }
        ColumnBatch::new(width)
    }

    /// Return a consumed shell to the free list (dropped when full).
    pub fn put(&self, batch: ColumnBatch) {
        let mut free = self.free.lock().unwrap();
        if free.len() < POOL_CAP {
            free.push(batch);
        }
    }

    /// How many takes were served from the free list.
    pub fn reused(&self) -> u64 {
        self.reused.load(Ordering::Relaxed)
    }
}

/// Wire counters for one motion, shared by all its edges.
#[derive(Debug, Default)]
pub struct MotionCounters {
    pub rows: AtomicU64,
    pub bytes: AtomicU64,
    /// Most batches any one sender instance delivered to one receiver
    /// instance: the largest mailbox slot of this motion.
    pub peak_queue: AtomicUsize,
}

/// Count and ship one non-empty batch; `sent` counts the edge's batches.
fn send_batch(
    tx: &MsgSender,
    batch: ColumnBatch,
    abort: &AbortSignal,
    counters: &MotionCounters,
    sent: &mut usize,
) -> Result<()> {
    counters.rows.fetch_add(batch.len as u64, Ordering::Relaxed);
    counters.bytes.fetch_add(batch.bytes(), Ordering::Relaxed);
    *sent += 1;
    tx.send(Msg::Batch(batch), abort)
}

/// Ship a batch list to one receiver, re-chunking anything larger than
/// `batch_rows` (the kernel's batch size and the wire's need not agree).
fn send_batches(
    tx: &MsgSender,
    batches: Vec<ColumnBatch>,
    batch_rows: usize,
    abort: &AbortSignal,
    counters: &MotionCounters,
    sent: &mut usize,
) -> Result<()> {
    let batch_rows = batch_rows.max(1);
    for mut b in batches {
        while b.len > batch_rows {
            let tail = b.split_off(batch_rows);
            let head = std::mem::replace(&mut b, tail);
            send_batch(tx, head, abort, counters, sent)?;
        }
        if !b.is_empty() {
            send_batch(tx, b, abort, counters, sent)?;
        }
    }
    Ok(())
}

/// Send one slice instance's output stream into its motion.
///
/// `stream` is the single-slot output of the kernel on physical segment
/// `segment`; `txs[r]` is the edge to receiver instance `r`.
#[allow(clippy::too_many_arguments)]
pub fn send_stream(
    kind: &MotionKind,
    stream: ColStream,
    segment: usize,
    txs: &[MsgSender],
    batch_rows: usize,
    abort: &AbortSignal,
    counters: &MotionCounters,
    pool: &BatchPool,
    key_pos: Option<&[usize]>,
) -> Result<()> {
    // The Open carries this instance's simulated clock and its copy's
    // byte count; receivers fold these into the serial motion-cost
    // replay. Replicated streams report their copy's bytes from *every*
    // sender (the receiver divides the sum back down by `n`, mirroring
    // `distinct_bytes`), even though only segment 0 ships rows.
    let avail = stream.avail[0];
    let bytes = stream.bytes();
    for tx in txs {
        tx.send(
            Msg::Open {
                layout: stream.layout.clone(),
                avail,
                bytes,
                replicated: stream.replicated,
            },
            abort,
        )?;
    }
    // One distinct copy: replicated streams ship only their master copy,
    // mirroring the serial engine's `one_copy()` / `gathered()` reads.
    let layout = stream.layout;
    let batches: Vec<ColumnBatch> = if stream.replicated && segment != 0 {
        Vec::new()
    } else {
        stream.per_seg.into_iter().next().unwrap_or_default()
    };
    let mut sent = vec![0usize; txs.len()];
    match kind {
        MotionKind::Gather | MotionKind::GatherMerge(_) => {
            // All rows land on the receiving gang's master instance —
            // whole kernel batches move onto the wire, no per-row work.
            send_batches(&txs[0], batches, batch_rows, abort, counters, &mut sent[0])?;
        }
        MotionKind::Redistribute(cols) => {
            // Key positions come precomputed from the slicer when the
            // sender layout was statically known; resolve here otherwise.
            let pos: Vec<usize> = match key_pos {
                Some(p) => p.to_vec(),
                None => cols
                    .iter()
                    .map(|k| {
                        layout.iter().position(|c| c == k).ok_or_else(|| {
                            OrcaError::Execution(format!("key column {k} not in layout"))
                        })
                    })
                    .collect::<Result<_>>()?,
            };
            let batch_rows = batch_rows.max(1);
            let n = txs.len();
            let width = layout.len();
            // One open builder per destination; full builders ship
            // immediately and are replaced from the pool.
            let mut parts: Vec<ColumnBatch> = (0..n).map(|_| pool.take(width)).collect();
            let mut states: Vec<FnvHasher> = Vec::new();
            let mut sels: Vec<Vec<u32>> = vec![Vec::new(); n];
            for b in batches {
                // Batch-at-a-time fan-out: fold each key column into
                // per-row hasher states column-major (same per-row byte
                // stream as the row loop), then scatter rows into the
                // open builders through selection vectors, slicing each
                // by the room left before a builder ships.
                states.clear();
                states.resize_with(b.len, FnvHasher::default);
                for &p in &pos {
                    b.cols[p].hash_rows_into(&mut states);
                }
                for sel in sels.iter_mut() {
                    sel.clear();
                }
                for (i, h) in states.iter().enumerate() {
                    sels[(h.finish() % n as u64) as usize].push(i as u32);
                }
                for (dest, sel) in sels.iter().enumerate() {
                    let mut rest = &sel[..];
                    while !rest.is_empty() {
                        let room = batch_rows - parts[dest].len;
                        let take = room.min(rest.len());
                        parts[dest].extend_select(&b, &rest[..take]);
                        rest = &rest[take..];
                        if parts[dest].len >= batch_rows {
                            let full = std::mem::replace(&mut parts[dest], pool.take(width));
                            send_batch(&txs[dest], full, abort, counters, &mut sent[dest])?;
                        }
                    }
                }
                // The input batch is fully routed; recycle its shell.
                pool.put(b);
            }
            for (dest, part) in parts.into_iter().enumerate() {
                if part.is_empty() {
                    pool.put(part);
                } else {
                    send_batch(&txs[dest], part, abort, counters, &mut sent[dest])?;
                }
            }
        }
        MotionKind::Broadcast => {
            for (tx, sent) in txs.iter().zip(&mut sent) {
                send_batches(tx, batches.clone(), batch_rows, abort, counters, sent)?;
            }
        }
    }
    for tx in txs {
        tx.send(Msg::Eos, abort)?;
    }
    let most = sent.into_iter().max().unwrap_or(0);
    counters.peak_queue.fetch_max(most, Ordering::Relaxed);
    Ok(())
}

/// One sender's complete stream: its `Open` header and its batches.
pub(crate) struct Delivered {
    pub layout: Vec<ColId>,
    pub avail: f64,
    pub bytes: f64,
    pub replicated: bool,
    pub batches: Vec<ColumnBatch>,
}

/// Check one complete slot's protocol (`Open`, `Batch`*, `Eos`) and
/// unpack it.
pub(crate) fn read_slot(slot: Vec<Msg>) -> Result<Delivered> {
    let mut msgs = slot.into_iter();
    let Some(Msg::Open {
        layout,
        avail,
        bytes,
        replicated,
    }) = msgs.next()
    else {
        return Err(OrcaError::Execution(
            "interconnect protocol error: stream did not start with Open".into(),
        ));
    };
    let mut batches = Vec::new();
    for msg in msgs {
        match msg {
            Msg::Batch(b) => batches.push(b),
            Msg::Eos => {
                return Ok(Delivered {
                    layout,
                    avail,
                    bytes,
                    replicated,
                    batches,
                })
            }
            Msg::Open { .. } => break,
        }
    }
    Err(OrcaError::Execution(
        "interconnect protocol error: duplicate Open or missing Eos".into(),
    ))
}

/// Receive one motion's stream for receiver instance `segment` from its
/// complete mailbox.
///
/// Returns the delivered single-slot [`ColStream`] the kernel's
/// `ExchangeRecv` leaf will resolve to, coalesced into batches of up to
/// `batch_rows` rows. Incoming batch shells are returned to `pool` after
/// their columns are copied out — that copy is what keeps the free list
/// warm.
///
/// Besides the rows, this replays the serial engine's simulated motion
/// clock (`exec_motion`) from the senders' `Open` headers: `base` is the
/// max sender clock (the serial `input.elapsed()` fold), `bytes` is the
/// sum of per-sender copies divided back down by `n` for replicated
/// inputs (the serial `distinct_bytes`). The formulas and fold order
/// match the serial engine exactly, and f64 sums of integer byte widths
/// are exact, so the delivered `avail` — and therefore `sim_seconds` —
/// is bit-equal to the serial engine's, whether the edge was in-process
/// or a socket.
pub fn receive_stream(
    kind: &MotionKind,
    inbox: &Mailbox,
    segment: usize,
    cluster: &SegmentConfig,
    pool: &BatchPool,
    batch_rows: usize,
) -> Result<ColStream> {
    let batch_rows = batch_rows.max(1);
    // Every sender opens with the (shared) layout, even when it will
    // contribute no rows.
    let mut layout: Vec<ColId> = Vec::new();
    let mut base = 0.0_f64;
    let mut total_bytes = 0.0_f64;
    let mut replicated_in = false;
    let mut senders: Vec<Vec<ColumnBatch>> = Vec::new();
    for slot in inbox.take() {
        let d = read_slot(slot)?;
        layout = d.layout;
        base = base.max(d.avail);
        total_bytes += d.bytes;
        replicated_in = d.replicated;
        senders.push(d.batches);
    }
    let n = cluster.num_segments;
    let bytes = if replicated_in {
        total_bytes / n as f64
    } else {
        total_bytes
    };
    let net_time = |b: f64| b / cluster.net_bytes_per_sec;
    let tup_time = |rows: usize| rows as f64 / cluster.tuples_per_sec;
    let width = layout.len();
    let mut out = ColStream::empty(layout, 1);
    let mut merged_len = 0usize;
    match kind {
        MotionKind::GatherMerge(order) => {
            // k-way merge across sender slots; ties break toward the
            // lowest sender, matching the serial stable-sort-of-
            // concatenation order.
            let sources: Vec<ColumnBatch> = senders
                .into_iter()
                .map(|batches| {
                    let source = ColumnBatch::concat(&batches, width);
                    batches.into_iter().for_each(|b| pool.put(b));
                    source
                })
                .collect();
            out.per_seg[0] = merge_sorted(&sources, order, &out.layout, batch_rows);
            merged_len = out.per_seg[0].iter().map(|b| b.len).sum();
        }
        _ => {
            // Concatenate sender streams in sender-segment order,
            // coalescing small wire batches back up to `batch_rows`.
            let mut batches: Vec<ColumnBatch> = Vec::new();
            let mut cur = pool.take(width);
            for b in senders.into_iter().flatten() {
                cur.extend_from_batch(&b);
                pool.put(b);
                while cur.len >= batch_rows {
                    let tail = cur.split_off(batch_rows.min(cur.len));
                    batches.push(std::mem::replace(&mut cur, tail));
                }
            }
            if cur.is_empty() {
                pool.put(cur);
            } else {
                batches.push(cur);
            }
            out.per_seg[0] = batches;
        }
    }
    // Serial clock replay — same expressions, same evaluation order as
    // `exec_motion`. Gather variants only stamp the master instance;
    // every other instance keeps the serial engine's unset 0.0 slot.
    match kind {
        MotionKind::Gather => {
            if segment == 0 {
                out.avail[0] = base + net_time(bytes);
            }
        }
        MotionKind::GatherMerge(_) => {
            if segment == 0 {
                out.avail[0] = base + net_time(bytes) * 1.15 + tup_time(merged_len) * 0.2;
            }
        }
        MotionKind::Redistribute(_) => {
            out.avail[0] = base + net_time(bytes) / n as f64;
        }
        MotionKind::Broadcast => {
            out.avail[0] = base + net_time(bytes);
        }
    }
    out.replicated = matches!(kind, MotionKind::Broadcast);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::StreamSet;
    use crate::storage::Row;
    use orca_common::hash::segment_for_key;
    use orca_common::Datum;
    use orca_expr::props::OrderSpec;

    fn stream(rows: Vec<Row>, replicated: bool) -> ColStream {
        let mut s = StreamSet::empty(vec![ColId(0), ColId(1)], 1);
        s.per_seg[0] = rows;
        s.replicated = replicated;
        ColStream::from_streamset(&s, 3)
    }

    fn rows2(vals: &[(i64, i64)]) -> Vec<Row> {
        vals.iter()
            .map(|&(a, b)| vec![Datum::Int(a), Datum::Int(b)])
            .collect()
    }

    /// Run `n` senders into one receiving gang's mailboxes, then each
    /// receiver; returns each receiver instance's delivered rows.
    fn round_trip(
        kind: MotionKind,
        per_sender: Vec<ColStream>,
        batch_rows: usize,
    ) -> Vec<Vec<Row>> {
        round_trip_pooled(kind, per_sender, batch_rows).0
    }

    fn round_trip_pooled(
        kind: MotionKind,
        per_sender: Vec<ColStream>,
        batch_rows: usize,
    ) -> (Vec<Vec<Row>>, u64) {
        let n = per_sender.len();
        let inboxes: Vec<Arc<Mailbox>> =
            (0..n).map(|_| Arc::new(Mailbox::new(n, |_| {}))).collect();
        let abort = AbortSignal::new();
        let counters = MotionCounters::default();
        let pool = BatchPool::new();
        let cluster = SegmentConfig {
            num_segments: n,
            ..SegmentConfig::default()
        };
        for (s, stream) in per_sender.into_iter().enumerate() {
            let txs: Vec<MsgSender> = inboxes
                .iter()
                .map(|inbox| MsgSender::Mailbox(Arc::clone(inbox), s))
                .collect();
            send_stream(
                &kind, stream, s, &txs, batch_rows, &abort, &counters, &pool, None,
            )
            .unwrap();
        }
        let got = inboxes
            .iter()
            .enumerate()
            .map(|(r, inbox)| {
                let cs = receive_stream(&kind, inbox, r, &cluster, &pool, batch_rows).unwrap();
                let mut rows = Vec::new();
                for b in &cs.per_seg[0] {
                    b.to_rows(&mut rows);
                }
                rows
            })
            .collect();
        (got, pool.reused())
    }

    #[test]
    fn gather_concatenates_in_sender_order() {
        let got = round_trip(
            MotionKind::Gather,
            vec![
                stream(rows2(&[(3, 0), (1, 1)]), false),
                stream(rows2(&[(2, 2)]), false),
                stream(rows2(&[]), false),
            ],
            2,
        );
        assert_eq!(got[0], rows2(&[(3, 0), (1, 1), (2, 2)]));
        assert!(got[1].is_empty() && got[2].is_empty());
    }

    #[test]
    fn gather_merge_streams_sorted() {
        let order = OrderSpec::by(&[ColId(0)]);
        let got = round_trip(
            MotionKind::GatherMerge(order),
            vec![
                stream(rows2(&[(1, 10), (4, 11)]), false),
                stream(rows2(&[(1, 20), (2, 21)]), false),
            ],
            1,
        );
        // Ties (key 1) break toward sender 0.
        assert_eq!(got[0], rows2(&[(1, 10), (1, 20), (2, 21), (4, 11)]));
    }

    #[test]
    fn redistribute_partitions_by_hash() {
        let input = rows2(&[(0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (5, 5)]);
        let got = round_trip(
            MotionKind::Redistribute(vec![ColId(0)]),
            vec![stream(input.clone(), false), stream(rows2(&[]), false)],
            2,
        );
        // Every row lands exactly once, on its hash segment.
        let mut all: Vec<Row> = got.iter().flatten().cloned().collect();
        assert_eq!(all.len(), input.len());
        for (r, seg_rows) in got.iter().enumerate() {
            for row in seg_rows {
                assert_eq!(segment_for_key(&row[..1], 2), r);
            }
        }
        all.sort_by(|a, b| a[0].total_cmp(&b[0]));
        assert_eq!(all, input);
    }

    /// A redistribute cycles consumed input shells back through the pool
    /// into the per-destination builders.
    #[test]
    fn redistribute_reuses_pooled_batches() {
        let input = rows2(&(0..200).map(|i| (i, i)).collect::<Vec<_>>());
        let (got, reused) = round_trip_pooled(
            MotionKind::Redistribute(vec![ColId(0)]),
            vec![stream(input.clone(), false), stream(rows2(&[]), false)],
            2,
        );
        assert_eq!(got.iter().map(Vec::len).sum::<usize>(), input.len());
        assert!(reused > 0, "free list never served a take");
    }

    #[test]
    fn broadcast_replicates_and_skips_duplicate_copies() {
        // A replicated sender stream: only segment 0's copy ships.
        let copy = rows2(&[(7, 7), (8, 8)]);
        let got = round_trip(
            MotionKind::Broadcast,
            vec![stream(copy.clone(), true), stream(copy.clone(), true)],
            1,
        );
        assert_eq!(got[0], copy);
        assert_eq!(got[1], copy);
    }
}
