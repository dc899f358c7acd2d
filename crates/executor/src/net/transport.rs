//! TCP transport for the interconnect: one persistent, multiplexed
//! connection per peer pair.
//!
//! A [`NetServer`] dials each remote peer once: the first edge that
//! needs the peer opens the connection, and every edge of every later
//! query reuses it. Each frame carries its edge's [`EndpointKey`] and is
//! written whole, in one write, under the connection's lock, so the
//! edges of any number of queries interleave on one socket. Every
//! connection, dialed or accepted, has one reader thread for its whole
//! life, which routes each frame into the registered [`Mailbox`] slot of
//! its key, so a sender's writes never wait on the receiving task. A
//! frame whose edge is not registered yet is parked, and
//! [`NetServer::expect`] hands it over; one still unclaimed after
//! `handshake_timeout` is dropped and answered with an `Abort` of its
//! query. Aborts, deadlines and typed failures cross as `Abort` frames
//! that fail every edge of one query. A lost connection fails every edge
//! still expecting data from its peer with a typed [`OrcaError::Net`] —
//! never a hang — and the next query redials.

use super::frame::{decode_frame, encode_abort, encode_msg, EndpointKey, Frame, FrameReader};
use super::{NetConfig, NetMotionCounters, NetShared};
use crate::parallel::interconnect::{Mailbox, Msg};
use orca_common::{OrcaError, Result};
use orca_gpos::AbortSignal;
use std::collections::HashMap;
use std::io::{BufReader, ErrorKind, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Socket read/write timeout: a parked socket call wakes on data at
/// once, else after this long to re-check shutdown, parked frames and
/// its abort signal.
const POLL: Duration = Duration::from_millis(10);

fn net_err(what: &str, e: std::io::Error) -> OrcaError {
    OrcaError::Net(format!("{what}: {e}"))
}

fn shut_down() -> OrcaError {
    OrcaError::Net("server shut down".into())
}

/// Bump a frame counter and its byte counter.
fn count(frames: &AtomicU64, bytes: &AtomicU64, n: u64) {
    frames.fetch_add(1, Ordering::Relaxed);
    bytes.fetch_add(n, Ordering::Relaxed);
}

/// Where one inbound edge delivers: sender instance `sender`'s slot of a
/// local receiving instance's mailbox.
struct Endpoint {
    mailbox: Arc<Mailbox>,
    sender: usize,
    /// Address of the peer hosting the sending instance.
    from: String,
    counters: Arc<NetMotionCounters>,
    shared: Arc<NetShared>,
}

impl Endpoint {
    /// Deliver one frame of `bytes` wire bytes; true if it ended the edge.
    fn deliver(&self, msg: Msg, bytes: u64) -> bool {
        count(&self.counters.frames_rx, &self.counters.bytes_rx, bytes);
        count(&self.shared.frames_rx, &self.shared.bytes_rx, bytes);
        let eos = matches!(msg, Msg::Eos);
        self.mailbox.push(self.sender, msg);
        eos
    }
}

/// Frames of an edge that is not registered yet.
struct Parked {
    since: Instant,
    /// The connection they came on, which an expiry answers.
    conn: Arc<Conn>,
    frames: Vec<(Msg, u64)>,
}

/// Inbound routing state, under one lock so that a frame and the
/// registration of its edge cannot miss each other.
#[derive(Default)]
struct Registry {
    /// Registered edges still expecting frames.
    live: HashMap<EndpointKey, Endpoint>,
    parked: HashMap<EndpointKey, Parked>,
    /// Queries failed by a peer's abort or a lost connection, so their
    /// edges registered later fail at once; kept for `handshake_timeout`.
    failed: HashMap<u64, (Instant, OrcaError)>,
}

/// One TCP connection to a peer, dialed or accepted. Writers share it
/// frame by frame; its reader thread owns a second handle.
struct Conn {
    sock: Mutex<TcpStream>,
    dead: AtomicBool,
    /// How long a half-written frame may make no progress (the server's
    /// `handshake_timeout`) before the connection is given up.
    stall: Duration,
    /// The peer's address: known when dialed, learned by an accepted
    /// connection once one of its frames reaches a registered edge.
    peer: OnceLock<String>,
}

impl Conn {
    /// Write one whole frame. The abort is checked before the frame,
    /// never mid-frame: half a frame would corrupt the stream for every
    /// other edge on it. A frame that stalls for `stall`, or a failed
    /// write, kills the connection.
    fn write(&self, buf: &[u8], abort: &AbortSignal) -> Result<()> {
        abort.check()?;
        let mut sock = self.sock.lock().unwrap_or_else(PoisonError::into_inner);
        let (mut off, mut moved) = (0, Instant::now());
        let err = loop {
            if off == buf.len() {
                return Ok(());
            }
            if self.dead.load(Ordering::SeqCst) {
                break OrcaError::Net("peer connection lost".into());
            }
            match sock.write(&buf[off..]) {
                Ok(0) => break OrcaError::Net("peer closed connection".into()),
                Ok(n) => (off, moved) = (off + n, Instant::now()),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    if moved.elapsed() >= self.stall {
                        break net_err("write stalled", e);
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => break net_err("write failed", e),
            }
        };
        self.dead.store(true, Ordering::SeqCst);
        let _ = sock.shutdown(Shutdown::Both);
        Err(err)
    }
}

struct ServerInner {
    registry: Mutex<Registry>,
    /// Outbound connections by peer address. A dead one stays until the
    /// next dial replaces it, which counts as a reconnect.
    pool: Mutex<HashMap<String, Arc<Conn>>>,
    shutdown: AtomicBool,
    cfg: NetConfig,
}

impl ServerInner {
    fn registry(&self) -> MutexGuard<'_, Registry> {
        self.registry.lock().expect("net registry poisoned")
    }

    /// Deliver one inbound frame: an abort fails every live edge of its
    /// query; a message goes to its edge, or is parked until the edge is
    /// registered. The first delivery names the connection's peer.
    fn route(&self, key: EndpointKey, frame: Frame, bytes: u64, conn: &Arc<Conn>) {
        let mut reg = self.registry();
        match frame {
            Frame::Abort(err) => {
                reg.failed.insert(key.query, (Instant::now(), err.clone()));
                fail_live(reg, |k, _| k.query == key.query, &err);
            }
            Frame::Msg(msg) => match reg.live.get(&key) {
                Some(e) => {
                    conn.peer.get_or_init(|| e.from.clone());
                    if e.deliver(msg, bytes) {
                        reg.live.remove(&key);
                    }
                }
                None => {
                    let conn = Arc::clone(conn);
                    let parked = reg.parked.entry(key).or_insert_with(|| Parked {
                        since: Instant::now(),
                        conn,
                        frames: Vec::new(),
                    });
                    parked.frames.push((msg, bytes));
                }
            },
        }
    }

    /// Drop parked frames and failure notes older than
    /// `handshake_timeout`, answering each dropped edge's sender with an
    /// abort of its query.
    fn sweep(&self) {
        let ttl = self.cfg.handshake_timeout;
        let mut expired = Vec::new();
        {
            let mut reg = self.registry();
            expired.extend(
                reg.parked
                    .extract_if(|_, p| p.since.elapsed() >= ttl)
                    .map(|(k, p)| (k, p.conn)),
            );
            reg.failed.retain(|_, (since, _)| since.elapsed() < ttl);
        }
        for (key, conn) in expired {
            let err = OrcaError::Net(format!("no local endpoint registered for {key:?}"));
            let _ = conn.write(&encode_abort(&key, &err), &AbortSignal::new());
        }
    }

    /// A connection is gone: fail every live edge fed by its peer, and
    /// turn frames parked from it into failure notes of their queries.
    fn lost(&self, conn: &Arc<Conn>, err: OrcaError) {
        let mut reg = self.registry();
        let r = &mut *reg;
        for (k, _) in r.parked.extract_if(|_, p| Arc::ptr_eq(&p.conn, conn)) {
            r.failed.insert(k.query, (Instant::now(), err.clone()));
        }
        fail_live(reg, |_, e| conn.peer.get() == Some(&e.from), &err);
    }
}

/// Remove every live edge `doomed` picks, and fail each with `err` once
/// the registry lock is released.
fn fail_live(
    mut reg: MutexGuard<'_, Registry>,
    doomed: impl Fn(&EndpointKey, &Endpoint) -> bool,
    err: &OrcaError,
) {
    let failed: Vec<Endpoint> = reg
        .live
        .extract_if(|k, e| doomed(k, e))
        .map(|(_, e)| e)
        .collect();
    drop(reg);
    for e in failed {
        e.mailbox.fail(err.clone());
    }
}

/// Give a connection its reader thread. `peer` is the address of a
/// dialed peer; an accepted connection learns it from its first
/// delivered frame.
fn spawn_reader(
    inner: &Arc<ServerInner>,
    sock: TcpStream,
    peer: Option<String>,
) -> Result<Arc<Conn>> {
    sock.set_nodelay(true)
        .and(sock.set_read_timeout(Some(POLL)))
        .and(sock.set_write_timeout(Some(POLL)))
        .map_err(|e| net_err("socket options", e))?;
    let read_half = sock.try_clone().map_err(|e| net_err("clone", e))?;
    let conn = Arc::new(Conn {
        sock: Mutex::new(sock),
        dead: AtomicBool::new(false),
        stall: inner.cfg.handshake_timeout,
        peer: peer.map_or_else(OnceLock::new, OnceLock::from),
    });
    let (inner, reader_conn) = (Arc::clone(inner), Arc::clone(&conn));
    std::thread::Builder::new()
        .name("orca-net-read".into())
        .spawn(move || read_loop(&inner, &reader_conn, read_half))
        .map_err(|e| net_err("spawn", e))?;
    Ok(conn)
}

/// A connection's reader for its whole life: route every frame, sweep
/// parked frames once per poll interval, and on EOF, a corrupt frame or
/// shutdown close the socket and fail what still expects data from the
/// peer.
fn read_loop(inner: &ServerInner, conn: &Arc<Conn>, sock: TcpStream) {
    let mut reader = FrameReader::new(BufReader::with_capacity(64 << 10, sock));
    let mut swept = Instant::now();
    let err = loop {
        if inner.shutdown.load(Ordering::SeqCst) {
            break shut_down();
        }
        match reader.poll_frame() {
            Ok(Some((ty, payload))) => match decode_frame(ty, &payload) {
                Ok((key, frame)) => inner.route(key, frame, payload.len() as u64 + 5, conn),
                Err(e) => break e,
            },
            Ok(None) => {}
            Err(e) => break e,
        }
        if swept.elapsed() >= POLL {
            inner.sweep();
            swept = Instant::now();
        }
    };
    conn.dead.store(true, Ordering::SeqCst);
    let _ = reader.get_ref().get_ref().shutdown(Shutdown::Both);
    inner.lost(conn, err);
}

/// This process's end of the interconnect: the listener whose accepted
/// connections feed registered mailboxes, and the pool of connections
/// it dialed. One server per process; the edges of any number of
/// concurrent queries share it.
pub struct NetServer {
    local_addr: SocketAddr,
    inner: Arc<ServerInner>,
}

impl NetServer {
    /// Bind and start accepting. `addr` is typically `"127.0.0.1:0"` —
    /// the chosen port is available via [`NetServer::local_addr`].
    pub fn bind(addr: &str, cfg: NetConfig) -> Result<NetServer> {
        let listener = TcpListener::bind(addr).map_err(|e| net_err("bind", e))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| net_err("local addr", e))?;
        let inner = Arc::new(ServerInner {
            registry: Mutex::default(),
            pool: Mutex::default(),
            shutdown: AtomicBool::new(false),
            cfg,
        });
        let accept_inner = Arc::clone(&inner);
        std::thread::Builder::new()
            .name("orca-net-accept".into())
            .spawn(move || accept_loop(listener, accept_inner))
            .map_err(|e| net_err("spawn", e))?;
        Ok(NetServer { local_addr, inner })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Register an expected inbound edge: its messages, from the peer at
    /// `from`, land in slot `sender` of `mailbox`; frames that came early
    /// are handed over at once. The edge fails at once after
    /// [`NetServer::shutdown`], or if a peer already failed its query.
    pub fn expect(
        &self,
        key: EndpointKey,
        mailbox: Arc<Mailbox>,
        sender: usize,
        from: &str,
        counters: Arc<NetMotionCounters>,
        shared: Arc<NetShared>,
    ) {
        let endpoint = Endpoint {
            mailbox,
            sender,
            from: from.to_string(),
            counters,
            shared,
        };
        let mut reg = self.inner.registry();
        // Checked under the registry lock, which `shutdown` drains after
        // setting the flag: an edge is either drained or failed here.
        let failed = match self.inner.shutdown.load(Ordering::SeqCst) {
            true => Some(shut_down()),
            false => reg.failed.get(&key.query).map(|(_, e)| e.clone()),
        };
        if let Some(err) = failed {
            drop(reg);
            return endpoint.mailbox.fail(err);
        }
        let mut done = false;
        if let Some(p) = reg.parked.remove(&key) {
            p.conn.peer.get_or_init(|| endpoint.from.clone());
            for (msg, bytes) in p.frames {
                done = done || endpoint.deliver(msg, bytes);
            }
        }
        if !done {
            reg.live.insert(key, endpoint);
        }
    }

    /// Open edge `key` to the peer at `addr` over the pooled connection,
    /// dialing the peer first if there is none or the last one failed.
    pub fn sender(
        &self,
        addr: &str,
        key: EndpointKey,
        abort: &AbortSignal,
        counters: Arc<NetMotionCounters>,
        shared: Arc<NetShared>,
    ) -> Result<NetSender> {
        let conn = self.peer(addr, abort, &shared)?;
        shared.remote_edges.fetch_add(1, Ordering::Relaxed);
        Ok(NetSender {
            conn,
            key,
            counters,
            shared,
        })
    }

    /// The pooled connection to `addr`. A new one records its dial time
    /// as the open round trip; replacing a failed one counts a reconnect.
    fn peer(&self, addr: &str, abort: &AbortSignal, shared: &NetShared) -> Result<Arc<Conn>> {
        let mut pool = self.inner.pool.lock().expect("net pool poisoned");
        let redial = match pool.get(addr) {
            Some(c) if !c.dead.load(Ordering::SeqCst) => return Ok(Arc::clone(c)),
            old => old.is_some(),
        };
        if self.inner.shutdown.load(Ordering::SeqCst) {
            return Err(shut_down());
        }
        let t0 = Instant::now();
        let conn = spawn_reader(
            &self.inner,
            dial(addr, &self.inner.cfg, abort, shared)?,
            Some(addr.to_string()),
        )?;
        let rtt = t0.elapsed().as_nanos() as u64;
        shared.open_rtt_ns_max.fetch_max(rtt, Ordering::Relaxed);
        shared
            .reconnects
            .fetch_add(redial as u64, Ordering::Relaxed);
        pool.insert(addr.to_string(), Arc::clone(&conn));
        Ok(conn)
    }

    /// Send a typed abort of `query` to every pooled peer (best effort —
    /// dead connections are skipped).
    pub fn abort_query(&self, query: u64, err: &OrcaError) {
        let key = EndpointKey {
            query,
            ..Default::default()
        };
        let frame = encode_abort(&key, err);
        let pool = self.inner.pool.lock().expect("net pool poisoned");
        for conn in pool.values().filter(|c| !c.dead.load(Ordering::SeqCst)) {
            let _ = conn.write(&frame, &AbortSignal::new());
        }
    }

    /// Forget one query: its leftover registrations and failure note.
    pub fn end_query(&self, query: u64) {
        let mut reg = self.inner.registry();
        reg.live.retain(|k, _| k.query != query);
        reg.failed.remove(&query);
    }

    /// Stop accepting and fail every registered edge with a typed
    /// [`OrcaError::Net`] at once; each reader thread closes its
    /// connection within one poll interval.
    pub fn shutdown(&self) {
        if self.inner.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        fail_live(self.inner.registry(), |_, _| true, &shut_down());
        wake_accept(self.local_addr);
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Wake a thread blocked in `accept` on `addr` by connecting to it once.
/// The accept loop sees its shutdown flag and drops the connection.
pub fn wake_accept(mut addr: SocketAddr) {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
}

fn accept_loop(listener: TcpListener, inner: Arc<ServerInner>) {
    // An accept error (a client that reset before accept, descriptors
    // running out) is retried; only shutdown ends the loop.
    for sock in listener.incoming() {
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if let Ok(sock) = sock {
            let _ = spawn_reader(&inner, sock, None);
        }
    }
}

/// Connect to `addr` with capped exponential backoff, within
/// `connect_timeout`.
fn dial(addr: &str, cfg: &NetConfig, abort: &AbortSignal, shared: &NetShared) -> Result<TcpStream> {
    let sock_addr: SocketAddr = addr
        .parse()
        .map_err(|e| OrcaError::Net(format!("bad peer address {addr}: {e}")))?;
    let deadline = Instant::now() + cfg.connect_timeout;
    let mut delay = Duration::from_millis(10);
    loop {
        abort.check()?;
        match TcpStream::connect_timeout(&sock_addr, Duration::from_millis(250)) {
            Ok(s) => return Ok(s),
            Err(e) if Instant::now() + delay > deadline => {
                return Err(OrcaError::Net(format!(
                    "connect to {addr} failed after retries: {e}"
                )))
            }
            Err(_) => {
                shared.backoff_waits.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(delay);
                delay = (delay * 2).min(Duration::from_millis(500));
            }
        }
    }
}

/// The sending end of one remote motion edge. Writes happen directly on
/// the task's thread over the peer's pooled connection; the peer's
/// reader thread drains every frame into a mailbox, so a write never
/// waits on the receiving task.
pub struct NetSender {
    conn: Arc<Conn>,
    key: EndpointKey,
    counters: Arc<NetMotionCounters>,
    shared: Arc<NetShared>,
}

impl NetSender {
    /// Ship one protocol message as one keyed frame.
    pub fn send(&self, msg: Msg, abort: &AbortSignal) -> Result<()> {
        let buf = encode_msg(&self.key, &msg);
        self.conn.write(&buf, abort)?;
        count(
            &self.counters.frames_tx,
            &self.counters.bytes_tx,
            buf.len() as u64,
        );
        count(
            &self.shared.frames_tx,
            &self.shared.bytes_tx,
            buf.len() as u64,
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columnar::ColumnBatch;
    use crate::net::{ClusterTopology, NetNode, RESULT_MOTION};
    use crate::parallel::{ParallelConfig, ParallelEngine};
    use crate::storage::Database;
    use orca_catalog::{ColumnMeta, Distribution, TableDesc};
    use orca_common::{ColId, DataType, Datum, MdId, SysId};
    use orca_expr::logical::TableRef;
    use orca_expr::physical::{MotionKind, PhysicalOp, PhysicalPlan};

    impl Registry {
        fn is_empty(&self) -> bool {
            self.live.is_empty()
        }
    }

    /// A 4-segment table and a motionless plan over it: a coordinator
    /// owning segment 0 runs that segment's root instance and waits for
    /// the other three over the result motion.
    fn scan() -> (Arc<Database>, Arc<PhysicalPlan>) {
        let mut db = Database::new(orca_common::SegmentConfig::default().with_segments(4));
        let t = Arc::new(TableDesc::new(
            MdId::new(SysId::Gpdb, 1, 1),
            "t",
            vec![ColumnMeta::new("a", DataType::Int)],
            Distribution::Hashed(vec![0]),
        ));
        let rows = (0..40).map(|i| vec![Datum::Int(i)]).collect();
        db.load_table(t.clone(), rows).unwrap();
        let plan = PhysicalPlan::leaf(PhysicalOp::TableScan {
            table: TableRef(t),
            cols: vec![ColId(0)],
            parts: None,
        });
        (Arc::new(db), Arc::new(plan))
    }

    /// The coordinator at peer 0 and an idle peer 1 hosting segments 1–3
    /// that never runs the query.
    fn two_peers() -> (Arc<NetNode>, NetNode, Arc<ClusterTopology>) {
        let coord = Arc::new(NetNode::bind("127.0.0.1:0", 0, NetConfig::default()).unwrap());
        let idle = NetNode::bind("127.0.0.1:0", 1, NetConfig::default()).unwrap();
        let topo = Arc::new(ClusterTopology {
            peers: vec![coord.addr().to_string(), idle.addr().to_string()],
            segment_peer: vec![0, 1, 1, 1],
        });
        (coord, idle, topo)
    }

    /// A distributed run whose remote edges never complete (the peer
    /// hosting three of the four segments never runs the query) idles at
    /// the run's one wait point and returns within a millisecond of the
    /// abort.
    #[test]
    fn abort_wakes_an_idle_net_receiver() {
        let (db, plan) = scan();
        let (coord, _idle, topo) = two_peers();
        let mut query = 0;
        let median = crate::test_util::median_abort_latency(|abort| {
            query += 1;
            let (db, plan, coord, topo) = (
                Arc::clone(&db),
                Arc::clone(&plan),
                Arc::clone(&coord),
                Arc::clone(&topo),
            );
            std::thread::spawn(move || {
                ParallelEngine::new(&db).run_distributed_with_abort(
                    &plan,
                    &[ColId(0)],
                    &coord,
                    &topo,
                    query,
                    &abort,
                )
            })
        });
        assert!(median < Duration::from_millis(1), "median {median:?}");
    }

    /// Shutting the coordinator's server down while its remote edges are
    /// registered but no sender has connected fails the run with a typed
    /// net error, long before its deadline; a run started after the
    /// shutdown fails at once.
    #[test]
    fn shutdown_fails_edges_not_yet_connected() {
        let (db, plan) = scan();
        let (coord, _idle, topo) = two_peers();
        let cfg = ParallelConfig {
            deadline: Some(Duration::from_secs(30)),
            ..ParallelConfig::default()
        };
        let run = |query| {
            let (db, plan, coord, topo) = (
                Arc::clone(&db),
                Arc::clone(&plan),
                Arc::clone(&coord),
                Arc::clone(&topo),
            );
            let cfg = cfg.clone();
            std::thread::spawn(move || {
                let engine = ParallelEngine::with_config(&db, cfg);
                let t0 = Instant::now();
                let r = engine.run_distributed(&plan, &[ColId(0)], &coord, &topo, query);
                (r, t0.elapsed())
            })
        };
        let first = run(7);
        // Wait until the run has registered its inbound edges.
        let t0 = Instant::now();
        while coord.server.inner.registry.lock().unwrap().is_empty() {
            assert!(t0.elapsed() < Duration::from_secs(10), "no edge registered");
            std::thread::sleep(Duration::from_millis(1));
        }
        coord.server.shutdown();
        for r in [first, run(8)] {
            let (r, took) = r.join().unwrap();
            let err = r.expect_err("a run with an unconnected edge succeeded");
            assert_eq!(err.kind(), "net", "{err}");
            assert!(took < Duration::from_secs(10), "run took {took:?}");
        }
        assert!(coord.server.inner.registry.lock().unwrap().is_empty());
    }

    /// Shutting the coordinator's server down while a remote edge is
    /// mid-stream (its `Open` and one batch arrived, its `Eos` never will)
    /// fails the run with a typed net error, long before its deadline.
    #[test]
    fn shutdown_mid_stream_fails_the_edge() {
        let (db, plan) = scan();
        let (coord, idle, topo) = two_peers();
        let cfg = ParallelConfig {
            deadline: Some(Duration::from_secs(30)),
            ..ParallelConfig::default()
        };
        let run = {
            let coord = Arc::clone(&coord);
            std::thread::spawn(move || {
                let engine = ParallelEngine::with_config(&db, cfg);
                let t0 = Instant::now();
                let r = engine.run_distributed(&plan, &[ColId(0)], &coord, &topo, 7);
                (r, t0.elapsed())
            })
        };
        // Play segment 1's root instance on the idle peer: open the
        // result edge and ship part of a stream.
        let key = EndpointKey {
            query: 7,
            motion: RESULT_MOTION,
            sender: 1,
            receiver: 0,
        };
        let abort = AbortSignal::new();
        let tx = idle
            .server
            .sender(
                &coord.addr().to_string(),
                key,
                &abort,
                Arc::default(),
                Arc::default(),
            )
            .unwrap();
        let open = Msg::Open {
            layout: vec![ColId(0)],
            avail: 0.0,
            bytes: 8.0,
            replicated: false,
        };
        tx.send(open, &abort).unwrap();
        let batch = ColumnBatch::from_rows(&[vec![Datum::Int(1)]], 1);
        tx.send(Msg::Batch(batch), &abort).unwrap();
        coord.server.shutdown();
        let (r, took) = run.join().unwrap();
        let err = r.expect_err("a run with a dead edge succeeded");
        assert_eq!(err.kind(), "net", "{err}");
        assert!(took < Duration::from_secs(10), "run took {took:?}");
    }

    fn open_msg() -> Msg {
        Msg::Open {
            layout: vec![ColId(0)],
            avail: 0.0,
            bytes: 8.0,
            replicated: false,
        }
    }

    /// Poll `cond` every millisecond for up to ten seconds.
    fn wait_for(what: &str, cond: impl Fn() -> bool) {
        let t0 = Instant::now();
        while !cond() {
            assert!(t0.elapsed() < Duration::from_secs(10), "{what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Losing the worker peer mid-stream fails the coordinator's run with
    /// a typed net error long before its deadline. The next query, with a
    /// fresh worker at the same address, redials the pooled connection
    /// once and succeeds.
    #[test]
    fn peer_loss_fails_the_run_and_the_next_query_redials() {
        let (db, scan) = scan();
        // A gather, so the coordinator sends to the worker too.
        let plan = Arc::new(PhysicalPlan::new(
            PhysicalOp::Motion {
                kind: MotionKind::Gather,
            },
            vec![(*scan).clone()],
        ));
        let (coord, worker, topo) = two_peers();
        let cfg = ParallelConfig {
            deadline: Some(Duration::from_secs(30)),
            ..ParallelConfig::default()
        };
        let run = |node: Arc<NetNode>, query| {
            let (db, plan, topo, cfg) = (
                Arc::clone(&db),
                Arc::clone(&plan),
                Arc::clone(&topo),
                cfg.clone(),
            );
            std::thread::spawn(move || {
                let engine = ParallelEngine::with_config(&db, cfg);
                let t0 = Instant::now();
                let r = engine.run_distributed(&plan, &[ColId(0)], &node, &topo, query);
                (r, t0.elapsed())
            })
        };
        let first = run(Arc::clone(&coord), 1);
        wait_for("no edge registered", || {
            !coord.server.inner.registry.lock().unwrap().is_empty()
        });
        // Play segment 1's gather sender on the worker: ship part of a
        // stream, then lose the peer.
        let key = EndpointKey {
            query: 1,
            motion: 0,
            sender: 1,
            receiver: 0,
        };
        let abort = AbortSignal::new();
        let coord_addr = coord.addr().to_string();
        let tx = worker
            .server
            .sender(&coord_addr, key, &abort, Arc::default(), Arc::default())
            .unwrap();
        tx.send(open_msg(), &abort).unwrap();
        let batch = ColumnBatch::from_rows(&[vec![Datum::Int(1)]], 1);
        tx.send(Msg::Batch(batch), &abort).unwrap();
        let worker_addr = worker.addr();
        drop(tx);
        drop(worker);
        let (r, took) = first.join().unwrap();
        let err = r.expect_err("a run whose peer died succeeded");
        assert_eq!(err.kind(), "net", "{err}");
        assert!(took < Duration::from_secs(10), "run took {took:?}");
        // The coordinator's reader notices its dialed connection died too.
        wait_for("pooled connection still live", || {
            let pool = coord.server.inner.pool.lock().unwrap();
            pool.values().all(|c| c.dead.load(Ordering::SeqCst))
        });

        // A fresh worker at the same slot and address.
        let t0 = Instant::now();
        let fresh = loop {
            match NetNode::bind(&worker_addr.to_string(), 1, NetConfig::default()) {
                Ok(node) => break Arc::new(node),
                Err(e) => assert!(t0.elapsed() < Duration::from_secs(10), "rebind: {e}"),
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        let (second, helper) = (run(Arc::clone(&coord), 2), run(fresh, 2));
        helper.join().unwrap().0.expect("fresh worker failed");
        let r = second.join().unwrap().0.expect("next query failed");
        assert_eq!(r.rows.len(), 40);
        assert_eq!(r.parallel.net.reconnects, 1);
        assert!(r.parallel.net.open_rtt_max_seconds > 0.0);
    }

    /// Frames for a query that never registers, or that already ended,
    /// are dropped after `handshake_timeout`, and their sender's query is
    /// aborted; nothing stays parked.
    #[test]
    fn unclaimed_frames_expire_and_abort_their_sender() {
        let cfg = NetConfig {
            handshake_timeout: Duration::from_millis(100),
            ..NetConfig::default()
        };
        let a = NetNode::bind("127.0.0.1:0", 0, cfg.clone()).unwrap();
        let b = NetNode::bind("127.0.0.1:0", 1, cfg).unwrap();
        let (a_addr, b_addr) = (a.addr().to_string(), b.addr().to_string());
        let key = |query| EndpointKey {
            query,
            motion: 0,
            sender: 1,
            receiver: 0,
        };
        // Query 6 registers at `a` and ends before its frames arrive.
        let idle = || Arc::new(Mailbox::new(1, |_| {}));
        a.server
            .expect(key(6), idle(), 0, &b_addr, Arc::default(), Arc::default());
        a.server.end_query(6);
        // `b` runs its side of query 5 and waits on an edge from `a`, so
        // the answer to its stray frames is observable.
        let (failed_tx, failed_rx) = std::sync::mpsc::channel();
        let failed_tx = Mutex::new(failed_tx);
        let watched = Arc::new(Mailbox::new(1, move |r: Result<()>| {
            let _ = failed_tx.lock().unwrap().send(r);
        }));
        b.server
            .expect(key(5), watched, 0, &a_addr, Arc::default(), Arc::default());
        let abort = AbortSignal::new();
        for query in [5, 6] {
            let tx = b
                .server
                .sender(&a_addr, key(query), &abort, Arc::default(), Arc::default())
                .unwrap();
            tx.send(open_msg(), &abort).unwrap();
            tx.send(Msg::Eos, &abort).unwrap();
        }
        let parked_len = || a.server.inner.registry.lock().unwrap().parked.len();
        wait_for("frames never parked", || parked_len() == 2);
        let parked_at = Instant::now();
        let answer = failed_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the sender's query was never aborted");
        let err = answer.expect_err("the watched edge completed");
        assert_eq!(err.kind(), "net", "{err}");
        assert!(err.message().contains("no local endpoint"), "{err}");
        assert!(parked_at.elapsed() >= Duration::from_millis(90));
        wait_for("frames still parked", || parked_len() == 0);
        assert!(a.server.inner.registry.lock().unwrap().is_empty());
    }
}
