//! ORB-level error type.

use crate::capability::CapError;
use crate::ids::{ObjectId, ProtocolId};
use ohpc_resilience::{classify, ErrorClass};
use ohpc_transport::TransportError;
use ohpc_xdr::XdrError;

/// Everything that can go wrong on the remote-invocation path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OrbError {
    /// No entry in the OR's protocol table matched the local pool and was
    /// applicable for the current locations.
    NoApplicableProtocol {
        /// Protocols the OR offered.
        offered: Vec<ProtocolId>,
    },
    /// Transport failure underneath the selected protocol, observed *before*
    /// the request frame was handed to the fabric: the server provably never
    /// saw the request, so retrying is always safe.
    Transport(TransportError),
    /// Transport failure *after* the request frame was sent but before a
    /// reply arrived: the server may or may not have executed the request.
    /// The retry policy only re-sends such requests when they are flagged
    /// idempotent.
    AmbiguousTransport(TransportError),
    /// The per-request deadline elapsed before an attempt succeeded. Carries
    /// how many attempts ran and the error that exhausted the budget.
    DeadlineExceeded {
        /// Attempts made before the deadline cut retries short.
        attempts: u32,
        /// The last attempt's failure.
        last: Box<OrbError>,
    },
    /// Marshaling failure.
    Xdr(XdrError),
    /// A capability refused or failed to transform the request.
    Capability(CapError),
    /// The server object raised an application exception.
    RemoteException(String),
    /// Target object does not exist at the server.
    NoSuchObject(ObjectId),
    /// Target object has no such method.
    NoSuchMethod(u32),
    /// The object kept moving: rebind retries exhausted.
    TooManyForwards(u32),
    /// Malformed frame or protocol violation.
    Protocol(String),
    /// Server-side glue chain referenced by the request is unknown.
    UnknownGlue(u64),
    /// The server shed the request at admission: its in-flight bound was
    /// hit. The request was never executed, so a retry is always safe; the
    /// backoff gives the server room to drain.
    Overloaded(String),
    /// The server shed the request because its deadline stamp had already
    /// expired on arrival. Permanent: by the time this reply lands, the
    /// budget is even further gone, and the client's own deadline
    /// accounting is the authority on what to do next.
    DeadlineExpired(String),
}

impl std::fmt::Display for OrbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OrbError::NoApplicableProtocol { offered } => {
                write!(f, "no applicable protocol among {offered:?}")
            }
            OrbError::Transport(e) => write!(f, "transport: {e}"),
            OrbError::AmbiguousTransport(e) => {
                write!(f, "transport (request possibly delivered): {e}")
            }
            OrbError::DeadlineExceeded { attempts, last } => {
                write!(f, "deadline exceeded after {attempts} attempt(s); last error: {last}")
            }
            OrbError::Xdr(e) => write!(f, "marshal: {e}"),
            OrbError::Capability(e) => write!(f, "capability: {e}"),
            OrbError::RemoteException(m) => write!(f, "remote exception: {m}"),
            OrbError::NoSuchObject(id) => write!(f, "no such object {id}"),
            OrbError::NoSuchMethod(m) => write!(f, "no such method {m}"),
            OrbError::TooManyForwards(n) => write!(f, "object moved {n} times; giving up"),
            OrbError::Protocol(m) => write!(f, "protocol violation: {m}"),
            OrbError::UnknownGlue(id) => write!(f, "unknown glue chain {id}"),
            OrbError::Overloaded(m) => write!(f, "server overloaded (shed at admission): {m}"),
            OrbError::DeadlineExpired(m) => {
                write!(f, "server shed expired request: {m}")
            }
        }
    }
}

impl std::error::Error for OrbError {}

impl OrbError {
    /// How this error relates to the retry budget (see
    /// [`ohpc_resilience::ErrorClass`]).
    ///
    /// Transport failures classify by kind; ambiguous transport failures are
    /// at best [`ErrorClass::Ambiguous`] (idempotent-only retry). An
    /// admission-control shed is retryable — the server answered, proving
    /// the wire, and explicitly promised the request never ran. Everything
    /// else — application exceptions, capability denials, marshaling
    /// failures, selection failures, server-side deadline sheds — is
    /// permanent: retrying the same request cannot change the outcome.
    pub fn retry_class(&self) -> ErrorClass {
        match self {
            OrbError::Transport(e) => classify(e),
            OrbError::AmbiguousTransport(e) => match classify(e) {
                ErrorClass::Permanent => ErrorClass::Permanent,
                _ => ErrorClass::Ambiguous,
            },
            OrbError::Overloaded(_) => ErrorClass::Retryable,
            _ => ErrorClass::Permanent,
        }
    }

    /// Whether this error fed back into endpoint health (transport errors
    /// and timeouts do; application-level outcomes do not).
    pub fn is_transport(&self) -> bool {
        matches!(self, OrbError::Transport(_) | OrbError::AmbiguousTransport(_))
    }
}

impl From<TransportError> for OrbError {
    fn from(e: TransportError) -> Self {
        OrbError::Transport(e)
    }
}

impl From<XdrError> for OrbError {
    fn from(e: XdrError) -> Self {
        OrbError::Xdr(e)
    }
}

impl From<CapError> for OrbError {
    fn from(e: CapError) -> Self {
        OrbError::Capability(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_variants() {
        let e = OrbError::NoApplicableProtocol { offered: vec![ProtocolId::TCP] };
        assert!(e.to_string().contains("no applicable protocol"));
        assert!(OrbError::NoSuchMethod(4).to_string().contains("4"));
        assert!(OrbError::UnknownGlue(9).to_string().contains("9"));
    }

    #[test]
    fn retry_classes() {
        use ohpc_resilience::ErrorClass;
        assert_eq!(
            OrbError::Transport(TransportError::Closed).retry_class(),
            ErrorClass::Retryable
        );
        assert_eq!(
            OrbError::AmbiguousTransport(TransportError::Closed).retry_class(),
            ErrorClass::Ambiguous
        );
        assert_eq!(
            OrbError::AmbiguousTransport(TransportError::FrameTooLarge(1)).retry_class(),
            ErrorClass::Permanent
        );
        assert_eq!(OrbError::RemoteException("x".into()).retry_class(), ErrorClass::Permanent);
        assert_eq!(OrbError::NoSuchMethod(1).retry_class(), ErrorClass::Permanent);
        assert_eq!(
            OrbError::Overloaded("512 in flight".into()).retry_class(),
            ErrorClass::Retryable,
            "an admission shed never executed the request; retry-with-backoff is safe"
        );
        assert_eq!(
            OrbError::DeadlineExpired("50 ms gone".into()).retry_class(),
            ErrorClass::Permanent,
            "a deadline shed only gets staler on retry"
        );
        assert!(!OrbError::Overloaded(String::new()).is_transport());
        assert!(OrbError::AmbiguousTransport(TransportError::Closed).is_transport());
        assert!(!OrbError::NoSuchObject(ObjectId(1)).is_transport());
    }

    #[test]
    fn deadline_display_names_the_last_error() {
        let e = OrbError::DeadlineExceeded {
            attempts: 3,
            last: Box::new(OrbError::Transport(TransportError::Closed)),
        };
        let s = e.to_string();
        assert!(s.contains("deadline exceeded after 3"), "{s}");
        assert!(s.contains("closed"), "{s}");
    }

    #[test]
    fn conversions() {
        let e: OrbError = TransportError::Closed.into();
        assert_eq!(e, OrbError::Transport(TransportError::Closed));
        let e: OrbError = XdrError::InvalidUtf8.into();
        assert_eq!(e, OrbError::Xdr(XdrError::InvalidUtf8));
    }
}
