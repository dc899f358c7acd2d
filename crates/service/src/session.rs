//! Session management.
//!
//! The paper's optimizer-as-a-service picture (§3) has many host processes
//! holding long-lived connections to one optimizer process. A [`Session`]
//! is our in-process stand-in for one such connection: it owns a
//! per-session `MdAccessor` (its metadata pins outlive individual requests,
//! so repeat submissions hit the shared `MdCache`) and per-session request
//! accounting.

use orca_catalog::MdAccessor;
use orca_common::hash::FnvHashMap;
use orca_common::{OrcaError, Result};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Opaque session handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionId(pub u64);

/// One client connection's state.
pub struct Session {
    pub id: SessionId,
    /// Session-scoped metadata access: pins accumulate across requests and
    /// release when the session closes (accessor drop).
    pub accessor: MdAccessor,
    pub submitted: AtomicU64,
}

/// Directory of live sessions.
#[derive(Default)]
pub struct SessionManager {
    sessions: Mutex<FnvHashMap<u64, Arc<Session>>>,
    next_id: AtomicU64,
}

impl SessionManager {
    pub fn new() -> SessionManager {
        SessionManager::default()
    }

    pub fn open(&self, accessor: MdAccessor) -> SessionId {
        let id = SessionId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let session = Arc::new(Session {
            id,
            accessor,
            submitted: AtomicU64::new(0),
        });
        self.sessions.lock().insert(id.0, session);
        id
    }

    pub fn get(&self, id: SessionId) -> Result<Arc<Session>> {
        self.sessions
            .lock()
            .get(&id.0)
            .cloned()
            .ok_or_else(|| OrcaError::Internal(format!("unknown or closed session {}", id.0)))
    }

    /// Close a session, releasing its metadata pins once in-flight requests
    /// holding the `Arc` finish.
    pub fn close(&self, id: SessionId) -> Result<()> {
        self.sessions
            .lock()
            .remove(&id.0)
            .map(|_| ())
            .ok_or_else(|| OrcaError::Internal(format!("unknown or closed session {}", id.0)))
    }

    pub fn live_count(&self) -> usize {
        self.sessions.lock().len()
    }
}
