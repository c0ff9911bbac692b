//! The Open HPC++ open ORB.
//!
//! This crate is the paper's primary contribution: a CORBA-like object
//! request broker built on the *Open Implementation* principle — applications
//! can see and steer the protocol decisions the ORB makes, without touching
//! the mechanics of any particular protocol.
//!
//! # The model
//!
//! * A server [`Context`](context::Context) (the HPC++ "virtual address
//!   space") hosts objects implementing [`RemoteObject`](skeleton::RemoteObject).
//! * Registering an object yields an [`ObjectReference`](objref::ObjectReference)
//!   (OR): the object's identity plus a **preference-ordered protocol table**.
//!   Each [`ProtoEntry`](objref::ProtoEntry) names a protocol and carries its
//!   proto-data (an endpoint, or — for the **glue protocol** — a capability
//!   chain wrapped around an inner entry).
//! * A client holds a [`GlobalPointer`](gp::GlobalPointer) (GP) wrapping an
//!   OR, and a process-local [`ProtoPool`](proto::ProtoPool) of
//!   [`ProtoObject`](proto::ProtoObject)s. Each remote invocation walks the
//!   OR's table in preference order and uses the **first entry whose protocol
//!   is in the pool and is applicable** for the current (client, server)
//!   location pair — the paper's automatic run-time protocol selection.
//! * [`Capability`](capability::Capability) objects (encryption,
//!   authentication, request budgets, compression, …) ride in glue entries.
//!   On the way out each capability `process`es the request body in chain
//!   order; the server-side glue class `unprocess`es in reverse; replies flow
//!   back through the same chain mirrored. Capabilities are *data* in the OR,
//!   so they can be handed between processes and swapped at run time.
//! * When an object migrates, the old context keeps a tombstone answering
//!   `ObjectMoved(new OR)`; GPs rebind and re-run selection, which is how a
//!   client transparently drops authentication or picks up shared memory as
//!   locations change (the paper's Figures 3 and 4).
//!
//! # Quick taste
//!
//! See `examples/quickstart.rs` in the repository root for a complete
//! client/server round trip, and the [`remote_interface!`] macro for typed
//! stubs and skeletons.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Test code may block and spawn: clippy.toml's rules are for serving code.
#![cfg_attr(test, allow(clippy::disallowed_methods))]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing
    )
)]

pub mod capability;
pub mod context;
pub mod error;
pub mod glue;
pub mod gp;
pub mod group;
pub mod ids;
pub mod introspect;
pub mod message;
pub mod objref;
pub mod proto;
pub mod selection;
pub mod skeleton;
pub mod transport_proto;

pub use capability::{
    CapChain, CapError, CapMeta, Capability, CapabilityRegistry, CapabilitySpec, Direction,
};
pub use context::{Context, ProtoAdvert};
pub use error::OrbError;
pub use glue::GlueProto;
pub use gp::GlobalPointer;
pub use group::GpGroup;
pub use ids::{ContextId, ObjectId, ProtocolId, RequestId};
pub use introspect::{
    introspection_object_id, ContextIntrospection, IntrospectionApi, IntrospectionClient,
    IntrospectionSkeleton, INTROSPECTION_LOCAL_ID,
};
pub use message::{ReplyMessage, ReplyStatus, RequestMessage};
pub use objref::{ObjectReference, ProtoData, ProtoEntry};
pub use proto::{ApplicabilityRule, ProtoObject, ProtoPool};
pub use skeleton::{MethodError, RemoteObject};
pub use transport_proto::{NexusProto, TransportProto};

// Re-export the location vocabulary: every applicability decision speaks it.
pub use ohpc_netsim::{LanId, LinkClass, Location, MachineId, SiteId};

/// Dispatch executors, re-exported so servers can tune dispatch without a
/// direct `ohpc-runtime` dependency.
pub use ohpc_runtime::{AdmissionController, Executor, WorkerPool};

// Hidden re-export for tests that check the inline-dispatch rescuer parks
// when idle; servers have no use for it.
#[doc(hidden)]
pub use ohpc_runtime::rescuer_scans;

// Hidden re-export so `remote_interface!` expansions resolve XDR items
// without requiring consumers to depend on ohpc-xdr directly.
#[doc(hidden)]
pub use ohpc_xdr as __xdr;
