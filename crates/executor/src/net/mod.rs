//! Socket interconnect: gangs across processes, queries over TCP (§3).
//!
//! The paper runs Orca as a standalone process that exchanges queries
//! and plans with remote database hosts over DXL; execution itself is
//! distributed across segment hosts linked by an interconnect. This
//! module supplies that network layer for the simulated cluster:
//!
//! * [`frame`] — a length-prefixed frame codec for the interconnect's
//!   `Msg { Open, Batch, Eos }` protocol plus a query-wide `Abort`. Every
//!   frame carries its edge's [`EndpointKey`]; batches travel in the
//!   shared [`crate::codec`] columnar layout, and the simulated-clock
//!   fields ride as bit-exact `f64`s.
//! * [`transport`] — one persistent TCP connection per peer pair, dialed
//!   on first use and shared by every edge of every query, with one
//!   reader thread per connection that routes each frame to its
//!   registered mailbox slot (or parks it until the edge registers).
//! * [`ClusterTopology`] — the static map from segment to owning peer
//!   process. Edges whose two instances land on the same peer deliver
//!   straight into the receiver's mailbox; a single-peer topology
//!   therefore creates no sockets at all.

pub mod frame;
pub mod transport;

pub use frame::EndpointKey;
pub use transport::{NetSender, NetServer};

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Reserved motion id for shipping a remote root-slice instance's
/// finished stream back to the coordinator. Planner motion ids are
/// small dense indices, so the top of the space is free.
pub const RESULT_MOTION: u32 = u32::MAX;

/// Tunables for the TCP transport.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Budget for dialing a peer (capped exponential backoff).
    pub connect_timeout: Duration,
    /// How long a frame may wait to reach its edge: parked until the edge
    /// is registered (then it is dropped and its sender's query aborted),
    /// or half-written on a stalled socket (then the connection is lost).
    pub handshake_timeout: Duration,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            connect_timeout: Duration::from_secs(5),
            handshake_timeout: Duration::from_secs(10),
        }
    }
}

/// Static cluster map: which peer process owns each segment.
///
/// Whole segments are assigned to peers, so everything keyed by segment
/// (spool partitions, storage shards, spooled CTEs) stays
/// process-local; only motion edges whose sender and receiver segments
/// live on different peers cross a socket. Peer `0` is the
/// coordinator — it parses the query, runs the optimizer, and owns the
/// result cursor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterTopology {
    /// Peer addresses (`host:port` of each peer's [`NetServer`]),
    /// indexed by peer id. `peers[0]` is the coordinator.
    pub peers: Vec<String>,
    /// `segment_peer[s]` = index into `peers` owning segment `s`.
    pub segment_peer: Vec<usize>,
}

impl ClusterTopology {
    /// Everything on one (local) peer: the degenerate topology used by
    /// single-process runs. No addresses are needed because no edge is
    /// remote.
    pub fn single(num_segments: usize) -> ClusterTopology {
        ClusterTopology {
            peers: vec![String::new()],
            segment_peer: vec![0; num_segments],
        }
    }

    /// Spread `num_segments` segments across `peers` round-robin.
    pub fn round_robin(peers: Vec<String>, num_segments: usize) -> ClusterTopology {
        assert!(!peers.is_empty(), "topology needs at least one peer");
        let n = peers.len();
        ClusterTopology {
            peers,
            segment_peer: (0..num_segments).map(|s| s % n).collect(),
        }
    }

    /// The peer owning segment `seg`.
    pub fn owner(&self, seg: usize) -> usize {
        self.segment_peer[seg]
    }

    /// Whether any pair of segments lives on different peers.
    pub fn is_distributed(&self) -> bool {
        self.segment_peer.windows(2).any(|w| w[0] != w[1])
    }

    /// Segments owned by peer `me`.
    pub fn local_segments(&self, me: usize) -> Vec<usize> {
        (0..self.segment_peer.len())
            .filter(|&s| self.segment_peer[s] == me)
            .collect()
    }
}

/// Run-wide transport counters, shared by every edge of one distributed
/// run. Snapshot into [`NetStats`] after the run completes.
#[derive(Debug, Default)]
pub struct NetShared {
    pub frames_tx: AtomicU64,
    pub frames_rx: AtomicU64,
    pub bytes_tx: AtomicU64,
    pub bytes_rx: AtomicU64,
    pub reconnects: AtomicU64,
    pub backoff_waits: AtomicU64,
    pub open_rtt_ns_max: AtomicU64,
    pub remote_edges: AtomicU64,
}

impl NetShared {
    pub fn snapshot(&self) -> NetStats {
        NetStats {
            frames_tx: self.frames_tx.load(Ordering::Relaxed),
            frames_rx: self.frames_rx.load(Ordering::Relaxed),
            bytes_tx: self.bytes_tx.load(Ordering::Relaxed),
            bytes_rx: self.bytes_rx.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
            backoff_waits: self.backoff_waits.load(Ordering::Relaxed),
            open_rtt_max_seconds: self.open_rtt_ns_max.load(Ordering::Relaxed) as f64 / 1e9,
            remote_edges: self.remote_edges.load(Ordering::Relaxed),
        }
    }
}

/// Transport observability for one run (all zeros when every edge was
/// in-process).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetStats {
    /// Data frames written to sockets.
    pub frames_tx: u64,
    /// Frames read off sockets.
    pub frames_rx: u64,
    /// Bytes written to sockets, including frame headers.
    pub bytes_tx: u64,
    /// Bytes read off sockets.
    pub bytes_rx: u64,
    /// Redials of a pooled peer connection that had failed.
    pub reconnects: u64,
    /// Backoff sleeps taken while dialing.
    pub backoff_waits: u64,
    /// Longest dial of a newly opened peer connection, in wall seconds
    /// (0 when every edge reused a pooled one).
    pub open_rtt_max_seconds: f64,
    /// Motion-edge instances that crossed process boundaries.
    pub remote_edges: u64,
}

/// Per-motion transport counters, merged into the motion's
/// [`crate::parallel::MotionMetrics`] alongside the logical row/byte
/// counts.
#[derive(Debug, Default)]
pub struct NetMotionCounters {
    pub frames_tx: AtomicU64,
    pub bytes_tx: AtomicU64,
    pub frames_rx: AtomicU64,
    pub bytes_rx: AtomicU64,
}

/// One process's handle on the cluster: its server (listener, peer
/// connections and edge registry) plus its own peer id. Peer `0` is the
/// coordinator.
pub struct NetNode {
    pub server: NetServer,
    pub me: usize,
}

impl NetNode {
    /// Bind a server on `addr` and assume peer id `me`.
    pub fn bind(addr: &str, me: usize, cfg: NetConfig) -> orca_common::Result<NetNode> {
        Ok(NetNode {
            server: NetServer::bind(addr, cfg)?,
            me,
        })
    }

    /// This node's advertised address (what other peers dial).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.server.local_addr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_topology_is_not_distributed() {
        let t = ClusterTopology::single(4);
        assert!(!t.is_distributed());
        assert_eq!(t.local_segments(0), vec![0, 1, 2, 3]);
    }

    #[test]
    fn round_robin_spreads_segments() {
        let t = ClusterTopology::round_robin(vec!["a".into(), "b".into()], 4);
        assert!(t.is_distributed());
        assert_eq!(t.owner(0), 0);
        assert_eq!(t.owner(1), 1);
        assert_eq!(t.local_segments(1), vec![1, 3]);
    }
}
