//! TCP transport for the interconnect: rendezvous server, connecting
//! sender endpoints, and queue-backed receiver endpoints.
//!
//! One TCP connection carries one directed motion edge. The sender
//! connects to the receiver's [`NetServer`], identifies the edge with a
//! handshake frame, and waits for an `Ack` before shipping `Open /
//! Batch* / Eos`. Flow control is credit-based: the receiver grants
//! `capacity` batch credits up front and returns one per batch its
//! consumer actually takes, so at most `capacity` batches are in flight
//! per edge — the same backpressure window as the in-process bounded
//! channels. Aborts, deadlines, and typed failures cross in either
//! direction as `Abort` control frames; a dead peer surfaces as EOF on
//! the next read and becomes a typed [`OrcaError::Net`] — never a hang.
//! A receive blocks until a frame, a peer failure or its run's abort
//! wakes it, and at most until the query deadline.

use super::frame::{
    decode_abort, decode_credit, decode_handshake, decode_msg, encode_abort, encode_ack,
    encode_credit, encode_handshake, encode_msg, write_all_abort, EndpointKey, FrameReader,
    FRAME_ABORT, FRAME_ACK, FRAME_CREDIT,
};
use super::{NetConfig, NetMotionCounters, NetShared};
use crate::parallel::interconnect::Msg;
use orca_common::{OrcaError, Result};
use orca_gpos::{wait_until, AbortSignal};
use std::collections::{HashMap, VecDeque};
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

// ---------------------------------------------------------------------
// Receiver side.
// ---------------------------------------------------------------------

struct RecvState {
    items: VecDeque<Msg>,
    err: Option<OrcaError>,
}

/// Shared state of one inbound edge: the delivered-message queue fed by
/// the connection's reader thread, plus the socket used to return
/// credits to the sender.
struct RecvShared {
    state: Mutex<RecvState>,
    ready: Condvar,
    credit_sock: Mutex<Option<TcpStream>>,
    counters: Arc<NetMotionCounters>,
    shared: Arc<NetShared>,
}

impl RecvShared {
    fn fail(&self, err: OrcaError) {
        let mut st = self.state.lock().unwrap();
        if st.err.is_none() {
            st.err = Some(err);
        }
        drop(st);
        self.ready.notify_all();
    }

    fn push(&self, msg: Msg) {
        self.state.lock().unwrap().items.push_back(msg);
        self.ready.notify_all();
    }
}

/// The receiving end of one remote motion edge; drop-in peer of a
/// crossbeam `Receiver<Msg>` behind the interconnect's receiver surface.
pub struct NetReceiver {
    shared: Arc<RecvShared>,
}

impl NetReceiver {
    /// Pop the next delivered message, returning one flow-control credit
    /// to the sender per consumed batch. Blocks until a message, a peer
    /// failure (the typed error the reader thread recorded) or the abort
    /// [`NetReceiver::waker`] wakes it, and at most until the deadline.
    pub fn recv(&self, abort: &AbortSignal) -> Result<Msg> {
        loop {
            abort.check()?;
            let mut st = self.shared.state.lock().unwrap();
            while !abort.is_tripped() {
                if let Some(msg) = st.items.pop_front() {
                    drop(st);
                    if matches!(msg, Msg::Batch(_)) {
                        self.grant_credit(abort)?;
                    }
                    return Ok(msg);
                }
                if let Some(e) = st.err.clone() {
                    return Err(e);
                }
                match wait_until(&self.shared.ready, st, abort.deadline()) {
                    Ok(guard) => st = guard,
                    // Past the deadline: `check` above trips the signal.
                    Err(_) => break,
                }
            }
        }
    }

    /// Wakes a `recv` blocked on this edge; register it with the run's
    /// abort signal.
    pub fn waker(&self) -> impl FnOnce() + Send + 'static {
        let shared = Arc::clone(&self.shared);
        move || {
            drop(shared.state.lock());
            shared.ready.notify_all();
        }
    }

    fn grant_credit(&self, abort: &AbortSignal) -> Result<()> {
        let mut guard = self.shared.credit_sock.lock().unwrap();
        if let Some(sock) = guard.as_mut() {
            let buf = encode_credit(1);
            if write_all_abort(sock, &buf, abort).is_err() {
                // The sender already hung up. Credits exist only to
                // unblock *it*, so a dead peer makes them moot: the
                // batches being drained here were queued before the
                // close, and any genuine mid-stream failure is surfaced
                // by the reader side, not this advisory write.
                *guard = None;
                return Ok(());
            }
            self.shared
                .counters
                .frames_tx
                .fetch_add(1, Ordering::Relaxed);
            self.shared
                .counters
                .bytes_tx
                .fetch_add(buf.len() as u64, Ordering::Relaxed);
            self.shared.shared.frames_tx.fetch_add(1, Ordering::Relaxed);
            self.shared
                .shared
                .bytes_tx
                .fetch_add(buf.len() as u64, Ordering::Relaxed);
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Rendezvous server.
// ---------------------------------------------------------------------

struct ServerInner {
    registry: Mutex<HashMap<EndpointKey, Arc<RecvShared>>>,
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
/// registered endpoint queue. One server per process; endpoints from
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

    /// Register an expected inbound edge; the returned receiver delivers
    /// its messages once the sending peer connects.
    pub fn expect(
        &self,
        key: EndpointKey,
        counters: Arc<NetMotionCounters>,
        shared: Arc<NetShared>,
    ) -> NetReceiver {
        let recv = Arc::new(RecvShared {
            state: Mutex::new(RecvState {
                items: VecDeque::new(),
                err: None,
            }),
            ready: Condvar::new(),
            credit_sock: Mutex::new(None),
            counters,
            shared,
        });
        self.inner
            .registry
            .lock()
            .unwrap()
            .insert(key, Arc::clone(&recv));
        self.inner.registered.notify_all();
        NetReceiver { shared: recv }
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

    /// Stop accepting and wind down reader threads (graceful drain:
    /// in-flight queries keep their established connections).
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
/// data frames into the endpoint queue until EOS + close (or failure).
fn serve_conn(sock: TcpStream, inner: Arc<ServerInner>) -> Result<()> {
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
    let endpoint: Arc<RecvShared> = {
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
    // Attach the write half for credits, then complete the open round
    // trip.
    let mut write_sock = sock.try_clone().map_err(|e| net_err("clone", e))?;
    *endpoint.credit_sock.lock().unwrap() = Some(sock);
    let ack = encode_ack();
    let signal = AbortSignal::new();
    if let Err(e) = write_all_abort(&mut write_sock, &ack, &signal) {
        endpoint.fail(e.clone());
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

    // Data pump.
    let mut saw_eos = false;
    loop {
        if inner.shutdown.load(Ordering::SeqCst) {
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
                    endpoint.fail(decode_abort(&payload)?);
                    return Ok(());
                }
                let msg = decode_msg(ty, &payload)?;
                saw_eos = matches!(msg, Msg::Eos);
                endpoint.push(msg);
            }
            Ok(None) => {}
            Err(e) => {
                // EOF after a clean EOS is the normal teardown; EOF (or
                // any read failure) mid-stream is a dead peer.
                if !saw_eos {
                    endpoint.fail(e);
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
    /// Batch credits remaining before the send window is exhausted.
    window: usize,
    /// Ack received — the open round trip is complete.
    ready: bool,
    opened_at: Instant,
}

/// The sending end of one remote motion edge. Writes happen directly on
/// the task thread (no writer thread): the credit window plus blocking
/// writes give the same backpressure as a bounded channel.
pub struct NetSender {
    inner: Mutex<SenderInner>,
    capacity: usize,
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
        capacity: usize,
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
                window: capacity.max(1),
                ready: false,
                opened_at: Instant::now(),
            }),
            capacity: capacity.max(1),
            cfg: cfg.clone(),
            counters,
            shared,
        })
    }

    /// Ship one protocol message. Batch messages consume a credit and
    /// block (abort-aware) while the window is exhausted.
    pub fn send(&self, msg: Msg, abort: &AbortSignal) -> Result<()> {
        let mut g = self.inner.lock().unwrap();
        let ack_deadline = g.opened_at + self.cfg.handshake_timeout;
        while !g.ready {
            abort.check()?;
            if Instant::now() > ack_deadline {
                return Err(OrcaError::Net("peer never acknowledged handshake".into()));
            }
            self.pump(&mut g)?;
        }
        if matches!(msg, Msg::Batch(_)) {
            while g.window == 0 {
                abort.check()?;
                self.pump(&mut g)?;
            }
            g.window -= 1;
            self.counters
                .peak_queue
                .fetch_max((self.capacity - g.window) as u64, Ordering::Relaxed);
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

    /// Batches currently in flight (capacity minus remaining credits).
    pub fn queued(&self) -> usize {
        self.capacity - self.inner.lock().unwrap().window
    }

    /// Drain whatever control frames the peer sent: ack, credits, or a
    /// typed abort. Returns after at most one poll interval.
    fn pump(&self, g: &mut SenderInner) -> Result<()> {
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
            Some((FRAME_CREDIT, payload)) => {
                let n = decode_credit(&payload)? as usize;
                g.window = (g.window + n).min(self.capacity);
                self.shared.frames_rx.fetch_add(1, Ordering::Relaxed);
                self.shared
                    .bytes_rx
                    .fetch_add((payload.len() + 5) as u64, Ordering::Relaxed);
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

    /// A receiver registered with `expect` that never sees traffic
    /// returns within a millisecond of the abort.
    #[test]
    fn abort_wakes_an_idle_net_receiver() {
        let server = NetServer::bind("127.0.0.1:0", NetConfig::default()).unwrap();
        let mut query = 0;
        let median = crate::test_util::median_abort_latency(|abort| {
            query += 1;
            let key = EndpointKey {
                query,
                motion: 0,
                sender: 0,
                receiver: 0,
            };
            let rx = server.expect(key, Arc::default(), Arc::default());
            std::thread::spawn(move || {
                let _wake = abort.on_abort(rx.waker());
                rx.recv(&abort)
            })
        });
        assert!(median < Duration::from_millis(1), "median {median:?}");
    }
}
