//! The interconnect: batched, bounded channels between slice gangs.
//!
//! For each motion edge the driver builds an n×n matrix of bounded
//! channels — one per (sender instance, receiver instance) pair. A
//! channel carries a short protocol: `Open(layout)`, zero or more
//! `Batch` messages of up to `batch_rows` rows, then `Eos`. Bounded
//! capacity is the backpressure mechanism: a fast sender blocks once
//! `capacity` batches are in flight. Blocked sends and receives wait
//! untimed; the run registers [`MsgReceiver::waker`] for every edge with
//! its [`AbortSignal`], so an abort closes each channel and every
//! blocked peer returns the recorded error at once.
//!
//! Batches travel **columnar** ([`ColumnBatch`]): a Gather forwards the
//! kernel's output columns without touching individual rows, and a
//! Redistribute routes row-by-row into per-destination column builders.
//! Consumed batch shells cycle through a shared [`BatchPool`] free list,
//! so steady-state traffic allocates no new buffers (`batches_reused`
//! in the parallel stats counts the recycled ones).
//!
//! Determinism: receivers drain sender channels **in sender-segment
//! order** (GatherMerge instead merges all senders, breaking ties toward
//! the lowest sender), which reproduces the serial engine's stream order
//! byte for byte. A sender whose stream is replicated ships only its
//! segment-0 copy — the parallel analogue of the serial `one_copy()`.

use crate::columnar::{ColStream, ColumnBatch};
use crate::merge::{kway_merge, RowSource};
use crate::net::{NetReceiver, NetSender};
use crate::storage::Row;
use crossbeam::channel::{bounded, Receiver, Sender};
use orca_common::hash::FnvHasher;
use orca_common::{ColId, OrcaError, Result, SegmentConfig};
use orca_expr::physical::MotionKind;
use orca_gpos::AbortSignal;
use std::hash::Hasher;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Max batch shells kept on the free list. Enough to cover every
/// in-flight batch of a busy gang; beyond that, dropping is cheaper
/// than hoarding.
const POOL_CAP: usize = 64;

/// One message on an interconnect channel.
#[derive(Debug)]
pub enum Msg {
    /// Stream prologue, sent by every sender instance: the row layout
    /// (identical across a motion — layouts travel in-band so empty
    /// streams still carry their schema) plus the sender's simulated
    /// clock and byte accounting, from which the receiver replays the
    /// serial engine's motion-cost formulas. The `f64`s cross process
    /// boundaries bit-exact, so `sim_seconds` is identical whether an
    /// edge is a channel or a socket.
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

/// The sending half of one directed motion edge: an in-process bounded
/// channel, or a TCP connection when the receiving instance lives in
/// another process. Both bound the number of in-flight batches at the
/// matrix capacity.
pub enum MsgSender {
    Local(Sender<Msg>),
    Net(NetSender),
}

impl MsgSender {
    pub fn send(&self, msg: Msg, abort: &AbortSignal) -> Result<()> {
        match self {
            MsgSender::Local(tx) => {
                abort.check()?;
                tx.send(msg)
                    .map_err(|_| abort_error(abort, "interconnect receiver disconnected"))
            }
            MsgSender::Net(tx) => tx.send(msg, abort),
        }
    }

    /// Batches currently in flight toward the receiver (channel depth or
    /// consumed credit-window slots).
    pub fn queued(&self) -> usize {
        match self {
            MsgSender::Local(tx) => tx.len(),
            MsgSender::Net(tx) => tx.queued(),
        }
    }
}

/// The receiving half of one directed motion edge.
pub enum MsgReceiver {
    Local(Receiver<Msg>),
    Net(NetReceiver),
}

impl MsgReceiver {
    pub fn recv(&self, abort: &AbortSignal) -> Result<Msg> {
        match self {
            MsgReceiver::Local(rx) => {
                abort.check()?;
                rx.recv()
                    .map_err(|_| abort_error(abort, "interconnect sender disconnected"))
            }
            MsgReceiver::Net(rx) => rx.recv(abort),
        }
    }

    /// The abort waker for this edge: it closes a local channel, which
    /// fails the `send` or `recv` blocked on either end, or wakes a
    /// socket edge's receive.
    pub fn waker(&self) -> Box<dyn FnOnce() + Send> {
        match self {
            MsgReceiver::Local(rx) => {
                let closer = rx.closer();
                Box::new(move || closer.close())
            }
            MsgReceiver::Net(rx) => Box::new(rx.waker()),
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

/// Wire counters for one motion, shared by all its channels.
#[derive(Debug, Default)]
pub struct MotionCounters {
    pub rows: AtomicU64,
    pub bytes: AtomicU64,
    /// Highest observed in-flight batch count on any single channel —
    /// `capacity` here means the backpressure bound was hit.
    pub peak_queue: AtomicUsize,
}

/// The channel matrix for one motion: `n` sender instances × `n`
/// receiver instances.
pub struct MotionChannels {
    /// `tx[sender][receiver]`, handed out to sender tasks. `None` rows
    /// belong to instances hosted by another peer process.
    pub tx: Vec<Option<Vec<MsgSender>>>,
    /// `rx[receiver][sender]`, handed out to receiver tasks.
    pub rx: Vec<Option<Vec<MsgReceiver>>>,
}

impl MotionChannels {
    /// An all-local matrix: every edge is an in-process bounded channel.
    pub fn new(n: usize, capacity: usize) -> MotionChannels {
        let mut tx: Vec<Vec<MsgSender>> = (0..n).map(|_| Vec::with_capacity(n)).collect();
        let mut rx: Vec<Vec<MsgReceiver>> = (0..n).map(|_| Vec::with_capacity(n)).collect();
        for tx_row in tx.iter_mut() {
            for rx_row in rx.iter_mut() {
                let (s, r) = bounded(capacity);
                tx_row.push(MsgSender::Local(s));
                rx_row.push(MsgReceiver::Local(r));
            }
        }
        MotionChannels {
            tx: tx.into_iter().map(Some).collect(),
            rx: rx.into_iter().map(Some).collect(),
        }
    }
}

/// A disconnect is a symptom: the abort closed the channel, or the peer
/// failed and recorded its error before dropping its end. Report that
/// root cause; a peer that hung up without recording one (a panic) is
/// reported as an abort, never as a cause of its own.
fn abort_error(abort: &AbortSignal, what: &str) -> OrcaError {
    if abort.is_aborted() {
        abort.error()
    } else {
        OrcaError::Aborted(what.into())
    }
}

/// Count and ship one non-empty batch.
fn send_batch(
    tx: &MsgSender,
    batch: ColumnBatch,
    abort: &AbortSignal,
    counters: &MotionCounters,
) -> Result<()> {
    counters.rows.fetch_add(batch.len as u64, Ordering::Relaxed);
    counters.bytes.fetch_add(batch.bytes(), Ordering::Relaxed);
    tx.send(Msg::Batch(batch), abort)?;
    counters
        .peak_queue
        .fetch_max(tx.queued(), Ordering::Relaxed);
    Ok(())
}

/// Ship a batch list to one receiver, re-chunking anything larger than
/// `batch_rows` (the kernel's batch size and the wire's need not agree).
fn send_batches(
    tx: &MsgSender,
    batches: Vec<ColumnBatch>,
    batch_rows: usize,
    abort: &AbortSignal,
    counters: &MotionCounters,
) -> Result<()> {
    let batch_rows = batch_rows.max(1);
    for mut b in batches {
        while b.len > batch_rows {
            let tail = b.split_off(batch_rows);
            let head = std::mem::replace(&mut b, tail);
            send_batch(tx, head, abort, counters)?;
        }
        if !b.is_empty() {
            send_batch(tx, b, abort, counters)?;
        }
    }
    Ok(())
}

/// Send one slice instance's output stream into its motion.
///
/// `stream` is the single-slot output of the kernel on physical segment
/// `segment`; `txs[r]` is the channel to receiver instance `r`.
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
    match kind {
        MotionKind::Gather | MotionKind::GatherMerge(_) => {
            // All rows land on the receiving gang's master instance —
            // whole kernel batches move onto the wire, no per-row work.
            send_batches(&txs[0], batches, batch_rows, abort, counters)?;
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
                            send_batch(&txs[dest], full, abort, counters)?;
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
                    send_batch(&txs[dest], part, abort, counters)?;
                }
            }
        }
        MotionKind::Broadcast => {
            for tx in txs {
                send_batches(tx, batches.clone(), batch_rows, abort, counters)?;
            }
        }
    }
    for tx in txs {
        tx.send(Msg::Eos, abort)?;
    }
    Ok(())
}

/// A streaming [`RowSource`] over one sender's channel (post-`Open`),
/// used by the GatherMerge receiver to merge without materializing.
struct ChannelSource<'a> {
    rx: &'a MsgReceiver,
    buf: std::vec::IntoIter<Row>,
    done: bool,
    abort: &'a AbortSignal,
    pool: &'a BatchPool,
}

impl RowSource for ChannelSource<'_> {
    fn next_row(&mut self) -> Result<Option<Row>> {
        loop {
            if let Some(row) = self.buf.next() {
                return Ok(Some(row));
            }
            if self.done {
                return Ok(None);
            }
            match self.rx.recv(self.abort)? {
                Msg::Batch(b) => {
                    let mut rows = Vec::new();
                    b.to_rows(&mut rows);
                    self.pool.put(b);
                    self.buf = rows.into_iter();
                }
                Msg::Eos => self.done = true,
                Msg::Open { .. } => {
                    return Err(OrcaError::Execution(
                        "interconnect protocol error: Open after stream start".into(),
                    ))
                }
            }
        }
    }
}

/// Receive one motion's stream for receiver instance `segment`.
///
/// `rxs[s]` is the channel from sender instance `s`. Returns the
/// delivered single-slot [`ColStream`] the kernel's `ExchangeRecv` leaf
/// will resolve to, coalesced into batches of up to `batch_rows` rows.
/// Incoming batch shells are returned to `pool` after their columns are
/// copied out — that copy is what keeps the free list warm.
///
/// Besides the rows, this replays the serial engine's simulated motion
/// clock (`exec_motion`) from the senders' `Open` headers: `base` is the
/// max sender clock (the serial `input.elapsed()` fold), `bytes` is the
/// sum of per-sender copies divided back down by `n` for replicated
/// inputs (the serial `distinct_bytes`). The formulas and fold order
/// match the serial engine exactly, and f64 sums of integer byte widths
/// are exact, so the delivered `avail` — and therefore `sim_seconds` —
/// is bit-equal to the serial engine's, whether the edge was a channel
/// or a socket.
pub fn receive_stream(
    kind: &MotionKind,
    rxs: &[MsgReceiver],
    segment: usize,
    cluster: &SegmentConfig,
    abort: &AbortSignal,
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
    for rx in rxs {
        match rx.recv(abort)? {
            Msg::Open {
                layout: l,
                avail,
                bytes,
                replicated,
            } => {
                layout = l;
                base = base.max(avail);
                total_bytes += bytes;
                replicated_in = replicated;
            }
            _ => {
                return Err(OrcaError::Execution(
                    "interconnect protocol error: stream did not start with Open".into(),
                ))
            }
        }
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
            // True streaming k-way merge across sender channels; ties
            // break toward the lowest sender, matching the serial
            // stable-sort-of-concatenation order.
            let sources: Vec<ChannelSource<'_>> = rxs
                .iter()
                .map(|rx| ChannelSource {
                    rx,
                    buf: Vec::new().into_iter(),
                    done: false,
                    abort,
                    pool,
                })
                .collect();
            let merged = kway_merge(sources, order, &out.layout)?;
            merged_len = merged.len();
            out.per_seg[0] = merged
                .chunks(batch_rows)
                .map(|c| ColumnBatch::from_rows(c, width))
                .collect();
        }
        _ => {
            // Concatenate sender streams in sender-segment order,
            // coalescing small wire batches back up to `batch_rows`.
            let mut batches: Vec<ColumnBatch> = Vec::new();
            let mut cur = pool.take(width);
            for rx in rxs {
                loop {
                    match rx.recv(abort)? {
                        Msg::Batch(b) => {
                            cur.extend_from_batch(&b);
                            pool.put(b);
                            while cur.len >= batch_rows {
                                let tail = cur.split_off(batch_rows.min(cur.len));
                                batches.push(std::mem::replace(&mut cur, tail));
                            }
                        }
                        Msg::Eos => break,
                        Msg::Open { .. } => {
                            return Err(OrcaError::Execution(
                                "interconnect protocol error: duplicate Open".into(),
                            ))
                        }
                    }
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
    use orca_common::hash::segment_for_key;
    use orca_common::Datum;
    use orca_expr::props::OrderSpec;
    use std::sync::Arc;
    use std::time::Duration;

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

    /// Run `n` senders and one receiving gang over real threads; returns
    /// each receiver instance's delivered rows.
    fn round_trip(
        kind: MotionKind,
        per_sender: Vec<ColStream>,
        batch_rows: usize,
        capacity: usize,
    ) -> Vec<Vec<Row>> {
        round_trip_pooled(kind, per_sender, batch_rows, capacity).0
    }

    fn round_trip_pooled(
        kind: MotionKind,
        per_sender: Vec<ColStream>,
        batch_rows: usize,
        capacity: usize,
    ) -> (Vec<Vec<Row>>, u64) {
        let n = per_sender.len();
        let mut ch = MotionChannels::new(n, capacity);
        let abort = Arc::new(AbortSignal::new());
        let counters = MotionCounters::default();
        let pool = BatchPool::new();
        let cluster = SegmentConfig {
            num_segments: n,
            ..SegmentConfig::default()
        };
        let got = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (s, stream) in per_sender.into_iter().enumerate() {
                let txs = ch.tx[s].take().unwrap();
                let kind = &kind;
                let abort = &abort;
                let counters = &counters;
                let pool = &pool;
                scope.spawn(move || {
                    send_stream(
                        kind, stream, s, &txs, batch_rows, abort, counters, pool, None,
                    )
                    .unwrap();
                });
            }
            for r in 0..n {
                let rxs = ch.rx[r].take().unwrap();
                let kind = &kind;
                let abort = &abort;
                let pool = &pool;
                let cluster = &cluster;
                handles.push(scope.spawn(move || {
                    let cs =
                        receive_stream(kind, &rxs, r, cluster, abort, pool, batch_rows).unwrap();
                    let mut rows = Vec::new();
                    for b in &cs.per_seg[0] {
                        b.to_rows(&mut rows);
                    }
                    rows
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<_>>()
        });
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
            1,
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
            1,
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
            1,
        );
        assert_eq!(got[0], copy);
        assert_eq!(got[1], copy);
    }

    #[test]
    fn tiny_capacity_backpressures_without_deadlock() {
        let big: Vec<Row> = (0..500)
            .map(|i| vec![Datum::Int(i), Datum::Int(i)])
            .collect();
        let got = round_trip(
            MotionKind::Gather,
            vec![stream(big.clone(), false)],
            1, // one-row batches
            1, // one batch in flight
        );
        assert_eq!(got[0], big);
    }

    /// A sender parked on a full channel returns within a millisecond of
    /// the abort: the abort closes the channel rather than waiting for a
    /// re-check.
    #[test]
    fn abort_unblocks_a_stuck_sender() {
        let median = crate::test_util::median_abort_latency(|abort| {
            std::thread::spawn(move || {
                let mut ch = MotionChannels::new(1, 1);
                let txs = ch.tx[0].take().unwrap();
                let rxs = ch.rx[0].take().unwrap(); // held, never drained
                let _wake = abort.on_abort(rxs[0].waker());
                let rows: Vec<Row> = (0..100).map(|i| vec![Datum::Int(i)]).collect();
                let mut s = StreamSet::empty(vec![ColId(0)], 1);
                s.per_seg[0] = rows;
                let s = ColStream::from_streamset(&s, 4);
                let (counters, pool) = (MotionCounters::default(), BatchPool::new());
                send_stream(
                    &MotionKind::Gather,
                    s,
                    0,
                    &txs,
                    1,
                    &abort,
                    &counters,
                    &pool,
                    None,
                )
            })
        });
        assert!(median < Duration::from_millis(1), "median {median:?}");
    }

    /// A receiver parked on an empty channel wakes the same way.
    #[test]
    fn abort_unblocks_a_waiting_receiver() {
        let median = crate::test_util::median_abort_latency(|abort| {
            std::thread::spawn(move || {
                let mut ch = MotionChannels::new(1, 1);
                let _txs = ch.tx[0].take().unwrap(); // held, never sends
                let rxs = ch.rx[0].take().unwrap();
                let _wake = abort.on_abort(rxs[0].waker());
                rxs[0].recv(&abort)
            })
        });
        assert!(median < Duration::from_millis(1), "median {median:?}");
    }
}
