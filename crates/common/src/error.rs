//! Error handling. Mirrors GPOS's `CException` taxonomy at a coarse grain:
//! every subsystem funnels into [`OrcaError`], and the optimizer engine
//! converts unexpected errors into AMPERe dumps (see `orca::amper`).

use std::fmt;

/// Unified error type for the whole workspace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OrcaError {
    /// SQL text could not be tokenized / parsed.
    Parse(String),
    /// Name resolution / type checking failed.
    Bind(String),
    /// A metadata object could not be found or was stale.
    Metadata(String),
    /// DXL (de)serialization failure.
    Dxl(String),
    /// Internal invariant violation inside the optimizer.
    Internal(String),
    /// The optimizer could not produce any plan satisfying the request.
    NoPlan(String),
    /// Optimization aborted by external cancellation.
    Aborted(String),
    /// A deadline expired before the search produced a usable plan. Unlike
    /// [`OrcaError::Aborted`], a timeout is an *expected* outcome under
    /// admission control: callers may degrade to a fallback plan instead of
    /// failing the request.
    Timeout(String),
    /// Execution-time failure (e.g. a malformed slice or missing stream).
    Execution(String),
    /// A memory grant provably cannot fit and the engine cannot spill.
    /// Raised *before* execution starts whenever the bound is provable
    /// (preflight), and as a runtime backstop otherwise, so the service's
    /// degradation ladder can react instead of aborting mid-query.
    OutOfMemory(String),
    /// A network transport failure on the socket interconnect or the
    /// service front-end: connect retries exhausted, a peer died
    /// mid-stream, or a malformed frame arrived. Distinguished from
    /// [`OrcaError::Execution`] so distributed callers can tell "the plan
    /// is wrong" from "the cluster is unhealthy" and retry elsewhere.
    Net(String),
    /// A feature the query needs is unsupported by the engine being driven
    /// (used by the Figure 15 support matrix).
    Unsupported(String),
    /// Injected fault for AMPERe testing (§6.1).
    InjectedFault(String),
}

impl OrcaError {
    /// Short machine-readable category, used in AMPERe dumps.
    pub fn kind(&self) -> &'static str {
        match self {
            OrcaError::Parse(_) => "parse",
            OrcaError::Bind(_) => "bind",
            OrcaError::Metadata(_) => "metadata",
            OrcaError::Dxl(_) => "dxl",
            OrcaError::Internal(_) => "internal",
            OrcaError::NoPlan(_) => "noplan",
            OrcaError::Aborted(_) => "aborted",
            OrcaError::Timeout(_) => "timeout",
            OrcaError::Execution(_) => "execution",
            OrcaError::OutOfMemory(_) => "oom",
            OrcaError::Net(_) => "net",
            OrcaError::Unsupported(_) => "unsupported",
            OrcaError::InjectedFault(_) => "injected",
        }
    }

    /// The inverse of [`OrcaError::kind`]: rebuild a variant from its
    /// category and message (an unknown category becomes `Execution`).
    pub fn from_kind(kind: &str, msg: String) -> OrcaError {
        match kind {
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
        }
    }

    pub fn message(&self) -> &str {
        match self {
            OrcaError::Parse(m)
            | OrcaError::Bind(m)
            | OrcaError::Metadata(m)
            | OrcaError::Dxl(m)
            | OrcaError::Internal(m)
            | OrcaError::NoPlan(m)
            | OrcaError::Aborted(m)
            | OrcaError::Timeout(m)
            | OrcaError::Execution(m)
            | OrcaError::OutOfMemory(m)
            | OrcaError::Net(m)
            | OrcaError::Unsupported(m)
            | OrcaError::InjectedFault(m) => m,
        }
    }
}

impl fmt::Display for OrcaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind(), self.message())
    }
}

impl std::error::Error for OrcaError {}

pub type Result<T> = std::result::Result<T, OrcaError>;

/// Convenience constructor macro: `err!(Internal, "bad group {}", id)`.
#[macro_export]
macro_rules! err {
    ($kind:ident, $($arg:tt)*) => {
        $crate::error::OrcaError::$kind(format!($($arg)*))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_kind_inverts_kind() {
        for e in [
            OrcaError::Parse("p".into()),
            OrcaError::Timeout("t".into()),
            OrcaError::OutOfMemory("o".into()),
            OrcaError::Net("n".into()),
            OrcaError::InjectedFault("i".into()),
        ] {
            assert_eq!(OrcaError::from_kind(e.kind(), e.message().into()), e);
        }
        let unknown = OrcaError::from_kind("bogus", "m".into());
        assert_eq!(unknown, OrcaError::Execution("m".into()));
    }

    #[test]
    fn display_and_kind() {
        let e = OrcaError::NoPlan("no valid plan for req #1".into());
        assert_eq!(e.kind(), "noplan");
        assert_eq!(e.to_string(), "noplan: no valid plan for req #1");
    }

    #[test]
    fn macro_builds_variants() {
        let e = err!(Internal, "group {} missing", 7);
        assert_eq!(e, OrcaError::Internal("group 7 missing".into()));
    }
}
