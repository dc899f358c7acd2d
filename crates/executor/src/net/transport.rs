//! TCP transport for the interconnect: rendezvous server, connecting
//! sender endpoints, and mailbox-filling reader threads.
//!
//! One TCP connection carries one directed motion edge. The sender
//! connects to the receiver's [`NetServer`], identifies the edge with a
//! handshake frame, and waits for an `Ack` before shipping `Open /
//! Batch* / Eos`. The connection's reader thread on the receiving peer
//! moves each frame into the registered [`Mailbox`] slot as it arrives,
//! so a sender's writes never wait on the receiving task. Aborts,
//! deadlines, and typed failures cross in either direction as `Abort`
//! control frames; a dead peer surfaces as EOF on the next read and
//! fails the mailbox with a typed [`OrcaError::Net`] — never a hang.

use super::frame::{
    decode_abort, decode_handshake, decode_msg, encode_abort, encode_ack, encode_handshake,
    encode_msg, write_all_abort, EndpointKey, FrameReader, FRAME_ABORT, FRAME_ACK,
};
use super::{NetConfig, NetMotionCounters, NetShared};
use crate::parallel::interconnect::{Mailbox, Msg};
use orca_common::{OrcaError, Result};
use orca_gpos::{wait_until, AbortSignal};
use std::collections::HashMap;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Socket read/write timeout: a parked socket call wakes on data at
/// once, else after this long to re-check shutdown and its abort signal.
const POLL: Duration = Duration::from_millis(10);

fn net_err(what: &str, e: std::io::Error) -> OrcaError {
    OrcaError::Net(format!("{what}: {e}"))
}

fn configure(sock: &TcpStream) -> Result<()> {
    sock.set_nodelay(true).map_err(|e| net_err("nodelay", e))?;
    sock.set_read_timeout(Some(POLL))
        .map_err(|e| net_err("read timeout", e))?;
    sock.set_write_timeout(Some(POLL))
        .map_err(|e| net_err("write timeout", e))?;
    Ok(())
}

/// Where one inbound edge delivers: sender instance `sender`'s slot of a
/// local receiving instance's mailbox.
struct Endpoint {
    mailbox: Arc<Mailbox>,
    sender: usize,
    counters: Arc<NetMotionCounters>,
    shared: Arc<NetShared>,
}

// ---------------------------------------------------------------------
// Rendezvous server.
// ---------------------------------------------------------------------

struct ServerInner {
    registry: Mutex<HashMap<EndpointKey, Endpoint>>,
    registered: Condvar,
    /// Open sockets per query, for abort broadcast and cleanup.
    conns: Mutex<HashMap<u64, Vec<TcpStream>>>,
    shutdown: AtomicBool,
    cfg: NetConfig,
}

impl ServerInner {
    fn track(&self, query: u64, sock: &TcpStream) {
        if let Ok(clone) = sock.try_clone() {
            self.conns
                .lock()
                .unwrap()
                .entry(query)
                .or_default()
                .push(clone);
        }
    }
}

/// Accepts inbound motion-edge connections and routes each to the
/// registered mailbox slot. One server per process; endpoints from
/// any number of concurrent queries rendezvous through it.
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
            registry: Mutex::new(HashMap::new()),
            registered: Condvar::new(),
            conns: Mutex::new(HashMap::new()),
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

    /// Register an expected inbound edge: once the sending peer
    /// connects, its messages land in slot `sender` of `mailbox`.
    pub fn expect(
        &self,
        key: EndpointKey,
        mailbox: Arc<Mailbox>,
        sender: usize,
        counters: Arc<NetMotionCounters>,
        shared: Arc<NetShared>,
    ) {
        let endpoint = Endpoint {
            mailbox,
            sender,
            counters,
            shared,
        };
        self.inner.registry.lock().unwrap().insert(key, endpoint);
        self.inner.registered.notify_all();
    }

    /// Track an outbound connection of `query` so abort broadcast and
    /// cleanup reach it too.
    pub(super) fn track_conn(&self, query: u64, sock: &TcpStream) {
        self.inner.track(query, sock);
    }

    /// Broadcast a typed error to every live connection of one query
    /// (best effort — dead sockets are skipped).
    pub fn abort_query(&self, query: u64, err: &OrcaError) {
        let frame = encode_abort(err);
        let conns = self.inner.conns.lock().unwrap();
        if let Some(socks) = conns.get(&query) {
            let signal = AbortSignal::new();
            for sock in socks {
                if let Ok(mut s) = sock.try_clone() {
                    let _ = write_all_abort(&mut s, &frame, &signal);
                }
            }
        }
    }

    /// Drop every connection and leftover registration of one query.
    pub fn end_query(&self, query: u64) {
        self.inner.conns.lock().unwrap().remove(&query);
        self.inner
            .registry
            .lock()
            .unwrap()
            .retain(|k, _| k.query != query);
    }

    /// Stop accepting and wind down reader threads: each stops within one
    /// poll interval, failing its edge with a typed [`OrcaError::Net`]
    /// unless the edge already holds its `Eos`.
    pub fn shutdown(&self) {
        if self.inner.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake connections parked in the rendezvous, then the acceptor.
        drop(self.inner.registry.lock());
        self.inner.registered.notify_all();
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
            let conn_inner = Arc::clone(&inner);
            let _ = std::thread::Builder::new()
                .name("orca-net-conn".into())
                .spawn(move || {
                    let _ = serve_conn(sock, conn_inner);
                });
        }
    }
}

/// Handle one inbound connection: handshake → rendezvous → ack → pump
/// data frames into the mailbox slot until EOS + close (or failure).
fn serve_conn(mut sock: TcpStream, inner: Arc<ServerInner>) -> Result<()> {
    configure(&sock)?;
    let reader_sock = sock.try_clone().map_err(|e| net_err("clone", e))?;
    let mut reader = FrameReader::new(reader_sock);
    let deadline = Instant::now() + inner.cfg.handshake_timeout;

    // Handshake.
    let (ty, payload) = loop {
        if inner.shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
        match reader.poll_frame()? {
            Some(f) => break f,
            None if Instant::now() > deadline => {
                return Err(OrcaError::Net("handshake timed out".into()))
            }
            None => {}
        }
    };
    if ty != super::frame::FRAME_HANDSHAKE {
        return Err(OrcaError::Net(format!(
            "expected handshake, got frame {ty}"
        )));
    }
    let key = decode_handshake(&payload)?;

    // Rendezvous: wait for the local run to register the edge, at most
    // until the handshake deadline; `expect` and `shutdown` notify.
    let endpoint: Endpoint = {
        let mut registry = inner.registry.lock().unwrap();
        loop {
            if let Some(e) = registry.remove(&key) {
                break e;
            }
            if inner.shutdown.load(Ordering::SeqCst) {
                return Err(OrcaError::Net("server shut down".into()));
            }
            registry = wait_until(&inner.registered, registry, Some(deadline))
                .map_err(|_| OrcaError::Net(format!("no local endpoint registered for {key:?}")))?;
        }
    };

    inner.track(key.query, &sock);
    // Complete the open round trip.
    let ack = encode_ack();
    let signal = AbortSignal::new();
    if let Err(e) = write_all_abort(&mut sock, &ack, &signal) {
        endpoint.mailbox.fail(e.clone());
        return Err(e);
    }
    endpoint.counters.frames_tx.fetch_add(1, Ordering::Relaxed);
    endpoint
        .counters
        .bytes_tx
        .fetch_add(ack.len() as u64, Ordering::Relaxed);
    endpoint.shared.frames_tx.fetch_add(1, Ordering::Relaxed);
    endpoint
        .shared
        .bytes_tx
        .fetch_add(ack.len() as u64, Ordering::Relaxed);

    // Data pump. Once the slot holds its `Eos` the edge is complete: a
    // later abort frame, EOF or shutdown cannot take its data back.
    let mut saw_eos = false;
    loop {
        if inner.shutdown.load(Ordering::SeqCst) {
            if !saw_eos {
                let e = OrcaError::Net("server shut down mid-stream".into());
                endpoint.mailbox.fail(e);
            }
            return Ok(());
        }
        match reader.poll_frame() {
            Ok(Some((ty, payload))) => {
                let frame_bytes = (payload.len() + 5) as u64;
                endpoint.counters.frames_rx.fetch_add(1, Ordering::Relaxed);
                endpoint
                    .counters
                    .bytes_rx
                    .fetch_add(frame_bytes, Ordering::Relaxed);
                endpoint.shared.frames_rx.fetch_add(1, Ordering::Relaxed);
                endpoint
                    .shared
                    .bytes_rx
                    .fetch_add(frame_bytes, Ordering::Relaxed);
                if ty == FRAME_ABORT {
                    if !saw_eos {
                        endpoint
                            .mailbox
                            .fail(decode_abort(&payload).unwrap_or_else(|e| e));
                    }
                    return Ok(());
                }
                if saw_eos {
                    return Err(OrcaError::Net(format!("frame {ty} after Eos")));
                }
                let msg = match decode_msg(ty, &payload) {
                    Ok(msg) => msg,
                    Err(e) => {
                        endpoint.mailbox.fail(e.clone());
                        return Err(e);
                    }
                };
                saw_eos = matches!(msg, Msg::Eos);
                endpoint.mailbox.push(endpoint.sender, msg);
            }
            Ok(None) => {}
            Err(e) => {
                // EOF after a clean EOS is the normal teardown; EOF (or
                // any read failure) mid-stream is a dead peer.
                if !saw_eos {
                    endpoint.mailbox.fail(e);
                }
                return Ok(());
            }
        }
    }
}

// ---------------------------------------------------------------------
// Sender side.
// ---------------------------------------------------------------------

struct SenderInner {
    sock: TcpStream,
    reader: FrameReader<TcpStream>,
    /// Ack received — the open round trip is complete.
    ready: bool,
    opened_at: Instant,
}

/// The sending end of one remote motion edge. Writes happen directly on
/// the task's thread (no writer thread); the receiving peer's reader
/// thread drains every frame into a mailbox, so a write never waits on
/// the receiving task.
pub struct NetSender {
    inner: Mutex<SenderInner>,
    cfg: NetConfig,
    counters: Arc<NetMotionCounters>,
    shared: Arc<NetShared>,
}

impl NetSender {
    /// Connect to the peer that owns the receiving instance, with capped
    /// exponential backoff, and write the endpoint handshake. The `Ack`
    /// is awaited lazily on first send so a gang's connects don't
    /// serialize on each other's registrations.
    pub fn connect(
        addr: &str,
        key: EndpointKey,
        cfg: &NetConfig,
        abort: &AbortSignal,
        counters: Arc<NetMotionCounters>,
        shared: Arc<NetShared>,
    ) -> Result<NetSender> {
        let sock_addr: SocketAddr = addr
            .parse()
            .map_err(|e| OrcaError::Net(format!("bad peer address {addr}: {e}")))?;
        let deadline = Instant::now() + cfg.connect_timeout;
        let mut delay = Duration::from_millis(10);
        let mut sock = loop {
            abort.check()?;
            match TcpStream::connect_timeout(&sock_addr, Duration::from_millis(250)) {
                Ok(s) => break s,
                Err(e) => {
                    if Instant::now() + delay > deadline {
                        return Err(OrcaError::Net(format!(
                            "connect to {addr} failed after retries: {e}"
                        )));
                    }
                    shared.reconnects.fetch_add(1, Ordering::Relaxed);
                    shared.backoff_waits.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(delay);
                    delay = (delay * 2).min(Duration::from_millis(500));
                }
            }
        };
        configure(&sock)?;
        let reader_sock = sock.try_clone().map_err(|e| net_err("clone", e))?;
        let hs = encode_handshake(&key);
        write_all_abort(&mut sock, &hs, abort)?;
        counters.frames_tx.fetch_add(1, Ordering::Relaxed);
        counters
            .bytes_tx
            .fetch_add(hs.len() as u64, Ordering::Relaxed);
        shared.frames_tx.fetch_add(1, Ordering::Relaxed);
        shared
            .bytes_tx
            .fetch_add(hs.len() as u64, Ordering::Relaxed);
        shared.remote_edges.fetch_add(1, Ordering::Relaxed);
        Ok(NetSender {
            inner: Mutex::new(SenderInner {
                sock,
                reader: FrameReader::new(reader_sock),
                ready: false,
                opened_at: Instant::now(),
            }),
            cfg: cfg.clone(),
            counters,
            shared,
        })
    }

    /// Ship one protocol message, first awaiting the handshake `Ack`.
    pub fn send(&self, msg: Msg, abort: &AbortSignal) -> Result<()> {
        let mut g = self.inner.lock().unwrap();
        let ack_deadline = g.opened_at + self.cfg.handshake_timeout;
        while !g.ready {
            abort.check()?;
            if Instant::now() > ack_deadline {
                return Err(OrcaError::Net("peer never acknowledged handshake".into()));
            }
            self.await_ack(&mut g)?;
        }
        let buf = encode_msg(&msg);
        write_all_abort(&mut g.sock, &buf, abort)?;
        self.counters.frames_tx.fetch_add(1, Ordering::Relaxed);
        self.counters
            .bytes_tx
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        self.shared.frames_tx.fetch_add(1, Ordering::Relaxed);
        self.shared
            .bytes_tx
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Read the peer's answer to the handshake: an ack or a typed abort.
    /// Returns after at most one poll interval.
    fn await_ack(&self, g: &mut SenderInner) -> Result<()> {
        match g.reader.poll_frame()? {
            Some((FRAME_ACK, _)) => {
                g.ready = true;
                let rtt = g.opened_at.elapsed().as_nanos() as u64;
                self.shared
                    .open_rtt_ns_max
                    .fetch_max(rtt, Ordering::Relaxed);
                self.shared.frames_rx.fetch_add(1, Ordering::Relaxed);
                self.shared.bytes_rx.fetch_add(6, Ordering::Relaxed);
            }
            Some((FRAME_ABORT, payload)) => return Err(decode_abort(&payload)?),
            Some((ty, _)) => {
                return Err(OrcaError::Net(format!(
                    "unexpected frame {ty} on sender control channel"
                )))
            }
            None => {}
        }
        Ok(())
    }

    /// Register this outbound connection with the local server so
    /// query-wide abort broadcasts reach the peer on the other end.
    pub fn register(&self, server: &NetServer, query: u64) {
        if let Ok(g) = self.inner.lock() {
            server.track_conn(query, &g.sock);
        }
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
    use orca_expr::physical::{PhysicalOp, PhysicalPlan};

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

    /// Shutting the coordinator's server down while a remote edge is
    /// mid-stream (its `Open` and one batch arrived, its `Eos` never will)
    /// fails the run with a typed net error, long before its deadline.
    #[test]
    fn shutdown_mid_stream_fails_the_edge() {
        let (db, plan) = scan();
        let (coord, _idle, topo) = two_peers();
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
        let tx = NetSender::connect(
            &coord.addr().to_string(),
            key,
            &NetConfig::default(),
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
}
