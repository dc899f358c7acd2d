//! TCP front-end for the optimizer service: the paper's §3 deployment
//! shape, where Orca runs as a standalone process and clients exchange
//! DXL documents with it over a socket.
//!
//! The wire protocol reuses the executor interconnect's length-prefixed
//! frame layout (`[len: u32 LE][type: u8][payload]`, decoded by the same
//! resumable [`FrameReader`]) with its own frame-type namespace:
//!
//! * client → server: [`FRAME_REQ`] `{deadline_ms: u64, dxl: str}`
//!   (`deadline_ms == 0` means "use the service default"), and
//!   [`FRAME_CANCEL`] to close the in-flight response stream early;
//! * server → client: [`FRAME_PLAN`] (the [`PlanHeader`] — cost bits,
//!   degraded flag, plan source, fingerprint, plan DXL), zero or more
//!   [`FRAME_ROWS`] row batches, then exactly one terminator: a
//!   [`FRAME_DONE`] receipt or a typed [`FRAME_ERR`] `(kind, message)`
//!   pair that the client rebuilds into the same [`OrcaError`] variant.
//!
//! One connection is one session: the server opens a [`SessionId`] on
//! accept and closes it on disconnect. Requests on a connection run
//! sequentially through [`Service::submit_streaming`], so row batches
//! hit the socket as the serial cursor projects them — a client can
//! consume the head of a large result while the tail is still being
//! projected, or cancel and leave the rest undelivered. Errors
//! are answers, not disconnects: a failed request emits `FRAME_ERR` and
//! the connection stays usable for the next request.
//!
//! Shutdown is a graceful drain: the listener stops accepting (a
//! self-connect wakes the blocking acceptor), idle connections notice the
//! flag at their next socket timeout, and a connection mid-response
//! finishes writing it before exiting.

use crate::{PlanHeader, PlanSource, Service, SessionId, StreamSink};
use orca_common::{OrcaError, Result};
use orca_executor::codec;
use orca_executor::net::frame::{decode_abort, FrameReader};
use orca_executor::net::transport::wake_accept;
use orca_executor::Row;
use std::io::{ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Client request: `{deadline_ms: u64, dxl: str}`.
pub const FRAME_REQ: u8 = 0x10;
/// Client cancel: close the current response stream early (no payload).
pub const FRAME_CANCEL: u8 = 0x11;
/// Response header: `{cost_bits: u64, degraded: u8, source: u8,
/// fingerprint: u64, plan_dxl: str}`.
pub const FRAME_PLAN: u8 = 0x20;
/// One result-row batch: `{nrows: u32, rows: [ncols: u32, datums...]}`.
pub const FRAME_ROWS: u8 = 0x21;
/// Success receipt: `{rows: u64, streamed: u8, early: u8,
/// latency_us: u64}`.
pub const FRAME_DONE: u8 = 0x22;
/// Typed failure: `{kind: str, message: str}` (same layout as the
/// interconnect's abort frame, so [`decode_abort`] rebuilds the variant).
pub const FRAME_ERR: u8 = 0x23;

/// Socket timeout: how often a parked connection re-checks shutdown,
/// and how often a stalled write retries.
const POLL: Duration = Duration::from_millis(10);

/// Extra slack a client allows past its request deadline before calling
/// the server unresponsive: covers execution of the planned query, which
/// the optimization deadline does not bound.
const CLIENT_GRACE: Duration = Duration::from_secs(30);

fn net_err(what: &str, e: std::io::Error) -> OrcaError {
    OrcaError::Net(format!("{what}: {e}"))
}

/// Build one service frame in one buffer: reserve the length prefix,
/// write the type byte and let `payload` append the rest, then patch the
/// prefix (which counts the type byte).
fn frame(ty: u8, payload: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = vec![0; 4];
    out.push(ty);
    payload(&mut out);
    let len = (out.len() - 4) as u32;
    out[..4].copy_from_slice(&len.to_le_bytes());
    out
}

/// Write a whole frame through a socket with a short send timeout,
/// retrying short writes at poll granularity. `deadline` bounds how
/// long a stalled client may wedge the response (the per-connection
/// deadline).
fn write_all_poll(sock: &mut TcpStream, buf: &[u8], deadline: Option<Instant>) -> Result<()> {
    let mut off = 0;
    while off < buf.len() {
        if let Some(d) = deadline {
            if Instant::now() > d {
                return Err(OrcaError::Timeout(
                    "response write exceeded the request deadline".into(),
                ));
            }
        }
        match sock.write(&buf[off..]) {
            Ok(0) => return Err(OrcaError::Net("peer closed connection".into())),
            Ok(n) => off += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                // Blocked sends already waited out the socket's send
                // timeout in the kernel; just re-check the deadline.
            }
            Err(e) => return Err(net_err("write failed", e)),
        }
    }
    Ok(())
}

fn source_code(s: PlanSource) -> u8 {
    match s {
        PlanSource::Cache => 0,
        PlanSource::Fresh => 1,
        PlanSource::Fallback => 3,
    }
}

fn source_from_code(b: u8) -> Result<PlanSource> {
    Ok(match b {
        0 => PlanSource::Cache,
        1 => PlanSource::Fresh,
        3 => PlanSource::Fallback,
        _ => return Err(OrcaError::Net(format!("bad plan source code {b}"))),
    })
}

fn encode_rows(p: &mut Vec<u8>, rows: &[Row]) {
    codec::put_u32(p, rows.len() as u32);
    for row in rows {
        codec::put_u32(p, row.len() as u32);
        for d in row {
            codec::encode_datum(p, d);
        }
    }
}

fn decode_rows(payload: &[u8]) -> Result<Vec<Row>> {
    let mut c = codec::Cursor::new(payload);
    let nrows = c.u32()? as usize;
    let mut rows = Vec::with_capacity(nrows);
    for _ in 0..nrows {
        let ncols = c.u32()? as usize;
        let mut row = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            row.push(codec::decode_datum(&mut c)?);
        }
        rows.push(row);
    }
    Ok(rows)
}

/// The connection-side [`StreamSink`]: forwards the plan header and each
/// row batch to the socket as frames, polling the connection's reader
/// between batches so a client [`FRAME_CANCEL`] closes the stream early.
struct ConnSink<'a> {
    sock: &'a mut TcpStream,
    reader: &'a mut FrameReader<TcpStream>,
    service: &'a Service,
    deadline: Option<Instant>,
    rows_sent: u64,
    early: bool,
}

/// Write one built frame to a client and count it.
fn send_frame(
    sock: &mut TcpStream,
    service: &Service,
    buf: &[u8],
    deadline: Option<Instant>,
) -> Result<()> {
    write_all_poll(sock, buf, deadline)?;
    let m = &service.metrics;
    m.net_frames_tx.fetch_add(1, Ordering::Relaxed);
    m.net_bytes_tx
        .fetch_add(buf.len() as u64, Ordering::Relaxed);
    Ok(())
}

impl StreamSink for ConnSink<'_> {
    fn on_plan(&mut self, h: &PlanHeader<'_>) -> Result<()> {
        let buf = frame(FRAME_PLAN, |p| {
            p.reserve(8 + 1 + 1 + 8 + 4 + h.plan_dxl.len());
            codec::put_u64(p, h.cost.to_bits());
            p.push(h.degraded as u8);
            p.push(source_code(h.source));
            codec::put_u64(p, h.fingerprint);
            codec::put_str(p, h.plan_dxl);
        });
        send_frame(self.sock, self.service, &buf, self.deadline)
    }

    fn on_rows(&mut self, rows: &[Row]) -> Result<bool> {
        // Drain anything the client sent since the last batch; a cancel
        // ends the stream before this batch is encoded or written. The
        // socket flips to nonblocking for the poll so an idle client
        // costs nothing, then back so the request loop's reads keep
        // waiting in the kernel (`O_NONBLOCK` lives on the shared file
        // description, so the reader's dup sees the flip too). A read
        // error (client gone) propagates and ends the request.
        self.sock
            .set_nonblocking(true)
            .map_err(|e| net_err("set_nonblocking failed", e))?;
        let polled = self.poll_client_frames();
        let restore = self.sock.set_nonblocking(false);
        match polled? {
            Cancelled::Yes => {
                self.early = true;
                return Ok(false);
            }
            Cancelled::No => {}
        }
        restore.map_err(|e| net_err("set_nonblocking failed", e))?;
        let buf = frame(FRAME_ROWS, |p| encode_rows(p, rows));
        send_frame(self.sock, self.service, &buf, self.deadline)?;
        self.rows_sent += rows.len() as u64;
        Ok(true)
    }
}

enum Cancelled {
    Yes,
    No,
}

impl ConnSink<'_> {
    fn poll_client_frames(&mut self) -> Result<Cancelled> {
        while let Some((ty, payload)) = self.reader.poll_frame()? {
            let m = &self.service.metrics;
            m.net_frames_rx.fetch_add(1, Ordering::Relaxed);
            m.net_bytes_rx
                .fetch_add(payload.len() as u64 + 5, Ordering::Relaxed);
            if ty == FRAME_CANCEL {
                return Ok(Cancelled::Yes);
            }
        }
        Ok(Cancelled::No)
    }
}

/// One accepted connection: a session, a frame reader, and a request
/// loop that runs until the peer disconnects or the server drains.
struct Conn {
    service: Arc<Service>,
    sock: TcpStream,
    reader: FrameReader<TcpStream>,
    shutdown: Arc<AtomicBool>,
    active: Arc<AtomicU64>,
}

impl Conn {
    fn run(mut self) {
        let session = self.service.open_session();
        loop {
            match self.reader.poll_frame() {
                Ok(Some((ty, payload))) => {
                    let m = &self.service.metrics;
                    m.net_frames_rx.fetch_add(1, Ordering::Relaxed);
                    m.net_bytes_rx
                        .fetch_add(payload.len() as u64 + 5, Ordering::Relaxed);
                    if ty == FRAME_REQ && self.handle(session, &payload).is_err() {
                        // Response frames stopped reaching the peer;
                        // nothing more can be said on this socket.
                        break;
                    }
                    // Anything else here is a stale cancel from a
                    // response that already finished: ignore it.
                }
                // The read already waited out the socket's receive
                // timeout in the kernel; no extra sleep needed.
                Ok(None) => {
                    if self.shutdown.load(Ordering::Relaxed) {
                        break;
                    }
                }
                Err(_) => break, // peer closed or sent garbage
            }
        }
        let _ = self.service.close_session(session);
        self.active.fetch_sub(1, Ordering::Relaxed);
    }

    /// Serve one request end to end. `Err` means the *socket* failed —
    /// request-level failures are answered in-band with `FRAME_ERR`.
    fn handle(&mut self, session: SessionId, payload: &[u8]) -> Result<()> {
        self.service
            .metrics
            .net_requests
            .fetch_add(1, Ordering::Relaxed);
        let parsed = (|| -> Result<(u64, String)> {
            let mut c = codec::Cursor::new(payload);
            Ok((c.u64()?, c.str()?))
        })();
        let (deadline_ms, dxl) = match parsed {
            Ok(req) => req,
            Err(e) => return self.answer_err(&e, None),
        };
        let budget = if deadline_ms == 0 {
            self.service.config().default_deadline
        } else {
            Some(Duration::from_millis(deadline_ms))
        };
        let deadline = budget.map(|b| Instant::now() + b + CLIENT_GRACE);

        let mut sink = ConnSink {
            sock: &mut self.sock,
            reader: &mut self.reader,
            service: &self.service,
            deadline,
            rows_sent: 0,
            early: false,
        };
        let started = Instant::now();
        let result = self
            .service
            .submit_streaming(session, &dxl, budget, &mut sink);
        let (rows_sent, early) = (sink.rows_sent, sink.early);

        match result {
            Ok(ticket) => {
                let streamed = ticket
                    .response
                    .execution
                    .as_ref()
                    .is_some_and(|e| e.streamed);
                let m = &self.service.metrics;
                if streamed {
                    m.net_streamed.fetch_add(1, Ordering::Relaxed);
                }
                if early {
                    m.net_early_closed.fetch_add(1, Ordering::Relaxed);
                }
                let buf = frame(FRAME_DONE, |p| {
                    codec::put_u64(p, rows_sent);
                    p.push(streamed as u8);
                    p.push(early as u8);
                    codec::put_u64(p, started.elapsed().as_micros() as u64);
                });
                send_frame(&mut self.sock, &self.service, &buf, deadline)
            }
            Err(e) => self.answer_err(&e, deadline),
        }
    }

    fn answer_err(&mut self, e: &OrcaError, deadline: Option<Instant>) -> Result<()> {
        let buf = frame(FRAME_ERR, |p| {
            codec::put_str(p, e.kind());
            codec::put_str(p, e.message());
        });
        send_frame(&mut self.sock, &self.service, &buf, deadline)
    }
}

/// The threaded TCP server fronting a [`Service`]: one acceptor thread,
/// one handler thread per connection, graceful drain on [`shutdown`].
///
/// [`shutdown`]: ServiceServer::shutdown
pub struct ServiceServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    active: Arc<AtomicU64>,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ServiceServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// start accepting connections against `service`.
    pub fn start(service: Arc<Service>, addr: &str) -> Result<ServiceServer> {
        let listener = TcpListener::bind(addr).map_err(|e| net_err("bind failed", e))?;
        let addr = listener
            .local_addr()
            .map_err(|e| net_err("local_addr failed", e))?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let active = Arc::new(AtomicU64::new(0));
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let accept = {
            let shutdown = Arc::clone(&shutdown);
            let active = Arc::clone(&active);
            let conns = Arc::clone(&conns);
            thread::spawn(move || {
                // A blocking accept; `shutdown` wakes it with a
                // self-connect. Accept errors are retried.
                for sock in listener.incoming() {
                    if shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    let Ok(sock) = sock else { continue };
                    let Ok(reader_sock) = sock.try_clone() else {
                        continue; // drop the connection
                    };
                    let _ = sock.set_nodelay(true);
                    // Blocking socket with short kernel timeouts: idle
                    // request reads park in the kernel and wake the
                    // instant bytes arrive, yet still surface every POLL
                    // tick to check shutdown.
                    if sock.set_read_timeout(Some(POLL)).is_err()
                        || sock.set_write_timeout(Some(POLL)).is_err()
                    {
                        continue;
                    }
                    service
                        .metrics
                        .net_connections
                        .fetch_add(1, Ordering::Relaxed);
                    active.fetch_add(1, Ordering::Relaxed);
                    let conn = Conn {
                        service: Arc::clone(&service),
                        sock,
                        reader: FrameReader::new(reader_sock),
                        shutdown: Arc::clone(&shutdown),
                        active: Arc::clone(&active),
                    };
                    let mut guard = conns.lock().unwrap();
                    guard.retain(|h| !h.is_finished());
                    guard.push(thread::spawn(move || conn.run()));
                }
            })
        };

        Ok(ServiceServer {
            addr,
            shutdown,
            active,
            accept: Some(accept),
            conns,
        })
    }

    /// The bound address (with the ephemeral port resolved).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections currently open.
    pub fn active_connections(&self) -> u64 {
        self.active.load(Ordering::Relaxed)
    }

    /// Graceful drain: stop accepting, let every connection finish the
    /// response it is writing (idle ones exit at the next poll tick),
    /// and join all threads. Idempotent.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            wake_accept(self.addr);
            let _ = h.join();
        }
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.conns.lock().unwrap());
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for ServiceServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The plan header of a streamed response, as received by the client.
#[derive(Debug, Clone)]
pub struct ClientPlan {
    pub plan_dxl: String,
    pub cost: f64,
    pub degraded: bool,
    pub source: PlanSource,
    pub fingerprint: u64,
}

/// The success receipt terminating a streamed response.
#[derive(Debug, Clone, Copy)]
pub struct ClientDone {
    /// Rows the server sent (equals the rows received unless the stream
    /// was cancelled mid-batch).
    pub rows: u64,
    /// More row batches remained when the first was written — the
    /// response genuinely streamed.
    pub streamed: bool,
    /// The stream was closed early by a client cancel.
    pub early: bool,
    /// Server-side end-to-end latency for the request.
    pub latency: Duration,
}

/// One fully-received streamed response.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    pub plan: ClientPlan,
    pub rows: Vec<Row>,
    pub done: ClientDone,
}

/// Blocking client for [`ServiceServer`]: submits DXL, receives the
/// plan header, row batches, and the receipt. Reusable across requests
/// on one connection (= one server session).
pub struct ServiceClient {
    sock: TcpStream,
    reader: FrameReader<TcpStream>,
}

impl ServiceClient {
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<ServiceClient> {
        let sock = TcpStream::connect(addr).map_err(|e| net_err("connect failed", e))?;
        let _ = sock.set_nodelay(true);
        // Reads wake at poll granularity so a wall deadline can fire
        // even when the server goes silent.
        sock.set_read_timeout(Some(POLL))
            .map_err(|e| net_err("set_read_timeout failed", e))?;
        let reader_sock = sock.try_clone().map_err(|e| net_err("clone failed", e))?;
        Ok(ServiceClient {
            sock,
            reader: FrameReader::new(reader_sock),
        })
    }

    /// Submit a DXL query and collect the whole streamed response.
    /// `deadline` is the server-side optimization budget (`None` = the
    /// service default) and also bounds — plus `CLIENT_GRACE` — how
    /// long this client waits before declaring the server unresponsive.
    pub fn submit(&mut self, dxl: &str, deadline: Option<Duration>) -> Result<ClientResponse> {
        self.submit_limit(dxl, deadline, None)
    }

    /// [`submit`](ServiceClient::submit), cancelling the stream once
    /// `limit` rows have arrived (`Some(0)` cancels before reading the
    /// first frame — rows may still arrive that were already in flight).
    pub fn submit_limit(
        &mut self,
        dxl: &str,
        deadline: Option<Duration>,
        limit: Option<u64>,
    ) -> Result<ClientResponse> {
        self.write_frame(&frame(FRAME_REQ, |p| {
            p.reserve(8 + 4 + dxl.len());
            codec::put_u64(p, deadline.map_or(0, |d| (d.as_millis() as u64).max(1)));
            codec::put_str(p, dxl);
        }))?;
        let wall = deadline.map(|d| Instant::now() + d + CLIENT_GRACE);

        let mut cancelled = false;
        if limit == Some(0) {
            self.write_frame(&frame(FRAME_CANCEL, |_| {}))?;
            cancelled = true;
        }

        let mut plan: Option<ClientPlan> = None;
        let mut rows: Vec<Row> = Vec::new();
        loop {
            let (ty, payload) = self.next_frame(wall)?;
            match ty {
                FRAME_PLAN => {
                    let mut c = codec::Cursor::new(&payload);
                    plan = Some(ClientPlan {
                        cost: f64::from_bits(c.u64()?),
                        degraded: c.u8()? != 0,
                        source: source_from_code(c.u8()?)?,
                        fingerprint: c.u64()?,
                        plan_dxl: c.str()?,
                    });
                }
                FRAME_ROWS => {
                    rows.extend(decode_rows(&payload)?);
                    if let Some(limit) = limit {
                        if !cancelled && rows.len() as u64 >= limit {
                            self.write_frame(&frame(FRAME_CANCEL, |_| {}))?;
                            cancelled = true;
                        }
                    }
                }
                FRAME_DONE => {
                    let mut c = codec::Cursor::new(&payload);
                    let done = ClientDone {
                        rows: c.u64()?,
                        streamed: c.u8()? != 0,
                        early: c.u8()? != 0,
                        latency: Duration::from_micros(c.u64()?),
                    };
                    let plan = plan.ok_or_else(|| {
                        OrcaError::Net("response finished without a plan header".into())
                    })?;
                    return Ok(ClientResponse { plan, rows, done });
                }
                FRAME_ERR => return Err(decode_abort(&payload)?),
                other => {
                    return Err(OrcaError::Net(format!("unexpected frame type {other}")));
                }
            }
        }
    }

    fn write_frame(&mut self, buf: &[u8]) -> Result<()> {
        self.sock
            .write_all(buf)
            .map_err(|e| net_err("write failed", e))
    }

    fn next_frame(&mut self, wall: Option<Instant>) -> Result<(u8, Vec<u8>)> {
        loop {
            if let Some(f) = self.reader.poll_frame()? {
                return Ok(f);
            }
            if let Some(w) = wall {
                if Instant::now() > w {
                    return Err(OrcaError::Net(
                        "no response within the request deadline".into(),
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExecuteConfig, ServiceConfig};
    use orca_catalog::provider::{MdProvider, MemoryProvider};
    use orca_catalog::{ColumnMeta, Distribution};
    use orca_common::{DataType, Datum, SegmentConfig};
    use orca_dxl::{query_to_dxl, DxlQuery};
    use orca_executor::Database;
    use orca_expr::logical::{JoinKind, LogicalExpr, LogicalOp, TableRef};
    use orca_expr::props::{DistSpec, OrderSpec};
    use orca_expr::scalar::{CmpOp, ScalarExpr};
    use orca_expr::ColumnRegistry;

    /// Two hashed tables of `rows` rows each, loaded into a database.
    fn provider_and_db(rows: i64) -> (Arc<MemoryProvider>, Arc<Database>) {
        let p = Arc::new(MemoryProvider::new());
        let mut db = Database::new(SegmentConfig::default());
        for name in ["t0", "t1"] {
            p.register(
                name,
                vec![
                    ColumnMeta::new("a", DataType::Int),
                    ColumnMeta::new("b", DataType::Int),
                ],
                Distribution::Hashed(vec![0]),
            );
            let desc = p.table(p.table_by_name(name).unwrap()).unwrap();
            let data = (0..rows)
                .map(|i| vec![Datum::Int(i), Datum::Int(i * 2)])
                .collect();
            db.load_table(desc, data).unwrap();
        }
        (p, Arc::new(db))
    }

    fn join_query(p: &MemoryProvider) -> DxlQuery {
        let registry = ColumnRegistry::new();
        let mut tables = Vec::new();
        let mut first_col = Vec::new();
        for name in ["t0", "t1"] {
            let desc = p.table(p.table_by_name(name).unwrap()).unwrap();
            let cols: Vec<_> = desc
                .columns
                .iter()
                .map(|c| registry.fresh(&format!("{name}.{}", c.name), c.dtype))
                .collect();
            first_col.push(cols[0]);
            tables.push(LogicalExpr::leaf(LogicalOp::Get {
                table: TableRef(desc),
                cols,
                parts: None,
            }));
        }
        let join = LogicalExpr::new(
            LogicalOp::Join {
                kind: JoinKind::Inner,
                pred: ScalarExpr::cmp(
                    CmpOp::Eq,
                    ScalarExpr::col(first_col[0]),
                    ScalarExpr::col(first_col[1]),
                ),
            },
            tables,
        );
        DxlQuery {
            output_cols: vec![first_col[0]],
            order: OrderSpec::any(),
            dist: DistSpec::Singleton,
            columns: registry.snapshot(),
            expr: join,
        }
    }

    fn serial_streaming_service(rows: i64) -> (Arc<Service>, String) {
        let (p, db) = provider_and_db(rows);
        let q = join_query(&p);
        let cfg = ServiceConfig {
            execute: Some(ExecuteConfig {
                parallel: false,
                batch_rows: 8,
                ..ExecuteConfig::default()
            }),
            ..ServiceConfig::default()
        };
        let svc = Arc::new(Service::new(p, cfg));
        svc.attach_database(db);
        (svc, query_to_dxl(&q))
    }

    #[test]
    fn frames_keep_their_wire_layout() {
        // `[len: u32 LE][type: u8][payload]`, the length counting the
        // type byte: what the frame reader decodes.
        let done = frame(FRAME_DONE, |p| p.extend_from_slice(&[7, 8, 9]));
        assert_eq!(done, [4, 0, 0, 0, FRAME_DONE, 7, 8, 9]);
        assert_eq!(frame(FRAME_CANCEL, |_| {}), [1, 0, 0, 0, FRAME_CANCEL]);
        let rows = vec![vec![Datum::Int(3)], vec![Datum::Null]];
        let buf = frame(FRAME_ROWS, |p| encode_rows(p, &rows));
        assert_eq!(buf[..4], ((buf.len() - 4) as u32).to_le_bytes());
        assert_eq!(decode_rows(&buf[5..]).unwrap(), rows);
    }

    #[test]
    fn tcp_round_trip_matches_in_process() {
        let (svc, dxl) = serial_streaming_service(64);

        // In-process reference result (also warms the plan cache).
        let session = svc.open_session();
        let inproc = svc
            .submit_with_deadline(session, &dxl, None)
            .unwrap()
            .response;
        let expected = inproc.execution.as_ref().unwrap().rows.clone();
        assert_eq!(expected.len(), 64);

        let mut server = ServiceServer::start(Arc::clone(&svc), "127.0.0.1:0").unwrap();
        let mut client = ServiceClient::connect(server.addr()).unwrap();
        let resp = client.submit(&dxl, None).unwrap();

        assert_eq!(resp.plan.source, PlanSource::Cache);
        assert_eq!(resp.plan.plan_dxl, *inproc.plan_dxl);
        assert_eq!(resp.plan.fingerprint, inproc.fingerprint);
        assert_eq!(resp.rows, expected);
        assert_eq!(resp.done.rows, 64);
        assert!(!resp.done.early);

        // A second request reuses the same connection and session; the
        // first TCP hit aliased the text, so this one skips the parse.
        let again = client.submit(&dxl, None).unwrap();
        assert_eq!(again.rows, expected);
        assert_eq!(again.plan.plan_dxl, *inproc.plan_dxl);

        let st = svc.stats();
        assert_eq!(st.cache_text_hits, 1);
        assert_eq!(st.net_connections, 1);
        assert_eq!(st.net_requests, 2);
        assert!(st.net_frames_tx >= 6); // 2 × (plan + ≥1 rows + done)
        assert!(st.net_bytes_tx > 0);
        assert!(st.net_frames_rx >= 2);
        server.shutdown();
    }

    #[test]
    fn tcp_parallel_engine_replays_chunks() {
        let (p, db) = provider_and_db(40);
        let q = join_query(&p);
        let cfg = ServiceConfig {
            execute: Some(ExecuteConfig {
                workers: 2,
                batch_rows: 8,
                ..ExecuteConfig::default()
            }),
            ..ServiceConfig::default()
        };
        let svc = Arc::new(Service::new(p, cfg));
        svc.attach_database(db);

        let server = ServiceServer::start(Arc::clone(&svc), "127.0.0.1:0").unwrap();
        let mut client = ServiceClient::connect(server.addr()).unwrap();
        let resp = client.submit(&query_to_dxl(&q), None).unwrap();
        assert_eq!(resp.plan.source, PlanSource::Fresh);
        assert_eq!(resp.rows.len(), 40);
        assert_eq!(resp.done.rows, 40);
        // The parallel engine materializes before replaying: never
        // reported as genuinely streamed.
        assert!(!resp.done.streamed);
    }

    #[test]
    fn tcp_errors_are_typed_and_the_connection_survives() {
        let (svc, dxl) = serial_streaming_service(8);
        let server = ServiceServer::start(Arc::clone(&svc), "127.0.0.1:0").unwrap();
        let mut client = ServiceClient::connect(server.addr()).unwrap();

        let err = client.submit("this is not DXL", None).unwrap_err();
        assert_eq!(err.kind(), "dxl", "got: {err:?}");

        // The failed request answered in-band; the connection still works.
        let ok = client.submit(&dxl, None).unwrap();
        assert_eq!(ok.rows.len(), 8);
        assert_eq!(svc.stats().net_requests, 2);
        drop(server);
    }

    #[test]
    fn tcp_cancel_closes_the_stream_early() {
        let (svc, dxl) = serial_streaming_service(512);
        let server = ServiceServer::start(Arc::clone(&svc), "127.0.0.1:0").unwrap();
        let mut client = ServiceClient::connect(server.addr()).unwrap();

        // Cancel before reading anything: the sink sees it at the first
        // would-send moment, so no row frame is ever written.
        let resp = client.submit_limit(&dxl, None, Some(0)).unwrap();
        assert!(resp.done.early);
        assert_eq!(resp.done.rows, 0);
        assert!(resp.rows.is_empty());

        // The request still succeeded and the connection still works.
        let full = client.submit(&dxl, None).unwrap();
        assert_eq!(full.rows.len(), 512);
        assert!(!full.done.early);

        let st = svc.stats();
        assert_eq!(st.net_early_closed, 1);
        assert_eq!(st.executed, 2);
        drop(server);
    }

    #[test]
    fn shutdown_drains_connections_and_stops_accepting() {
        let (svc, dxl) = serial_streaming_service(8);
        let mut server = ServiceServer::start(Arc::clone(&svc), "127.0.0.1:0").unwrap();
        let addr = server.addr();
        let mut client = ServiceClient::connect(addr).unwrap();
        client.submit(&dxl, None).unwrap();
        assert_eq!(server.active_connections(), 1);
        assert_eq!(svc.live_sessions(), 1);

        server.shutdown();
        assert_eq!(server.active_connections(), 0);
        assert_eq!(svc.live_sessions(), 0, "drain must close the session");

        // The listener is gone: new connections are refused outright or
        // die on first use.
        let refused = match ServiceClient::connect(addr) {
            Err(_) => true,
            Ok(mut c) => c.submit(&dxl, None).is_err(),
        };
        assert!(refused, "a drained server must not serve new requests");
        server.shutdown(); // idempotent
    }
}
