//! The introspection object: telemetry served over the ORB itself.
//!
//! Every [`Context`](crate::context::Context) registers one of these at a
//! well-known id — local counter [`INTROSPECTION_LOCAL_ID`] (0), i.e.
//! `ObjectId::compose(ctx, 0)` — so any client holding nothing but a
//! context id and a reachable OR can fetch that context's metrics *through
//! the ORB*, including through a glue entry with a full capability chain.
//! The telemetry layer thereby becomes its own end-to-end test surface: an
//! encrypted introspection fetch exercises selection, the capability chain,
//! and a transport, all of which record into the very snapshot returned.
//!
//! The snapshot served is [`ohpc_telemetry::Registry::global`], the registry
//! all workspace instrumentation records into. Since every context in a
//! process shares that registry, the view is **per-process**, not
//! per-context — `context_info` reports which context answered.

use ohpc_telemetry::Registry;

use crate::ids::{ContextId, ObjectId};

/// The context-local id every introspection object is registered under.
///
/// Object ids mint locals starting at 1, so 0 is reserved: the introspection
/// object of context `c` is always `ObjectId::compose(c, 0)`.
pub const INTROSPECTION_LOCAL_ID: u32 = 0;

/// The id of the introspection object hosted by context `ctx`.
pub fn introspection_object_id(ctx: ContextId) -> ObjectId {
    ObjectId::compose(ctx, INTROSPECTION_LOCAL_ID)
}

crate::remote_interface! {
    type_name = "OhpcIntrospection";
    trait IntrospectionApi;
    skeleton IntrospectionSkeleton;
    client IntrospectionClient;
    fn metrics_text() -> String = 1;
    fn counter_total(name: String) -> u64 = 2;
    fn context_info() -> String = 3;
    fn dump_traces() -> String = 4;
}

/// The first-party [`IntrospectionApi`] implementation every context hosts.
pub struct ContextIntrospection {
    ctx: ContextId,
}

impl ContextIntrospection {
    /// Introspection for the context identified by `ctx`.
    pub fn new(ctx: ContextId) -> Self {
        Self { ctx }
    }
}

impl IntrospectionApi for ContextIntrospection {
    fn metrics_text(&self) -> Result<String, String> {
        Ok(Registry::global().snapshot().to_text())
    }

    fn counter_total(&self, name: String) -> Result<u64, String> {
        Ok(Registry::global().snapshot().counter_total(&name))
    }

    fn context_info(&self) -> Result<String, String> {
        Ok(format!("context={} scope=process", self.ctx))
    }

    fn dump_traces(&self) -> Result<String, String> {
        Ok(ohpc_telemetry::TraceBuffer::global().snapshot_text())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skeleton::RemoteObject;
    use ohpc_xdr::{XdrReader, XdrWriter};

    #[test]
    fn well_known_id_is_local_zero() {
        let id = introspection_object_id(ContextId(9));
        assert_eq!(id.context(), ContextId(9));
        assert_eq!(id.local(), INTROSPECTION_LOCAL_ID);
    }

    #[test]
    fn serves_global_snapshot() {
        ohpc_telemetry::counter!("introspect_unit_test_total").add(5);
        let obj = ContextIntrospection::new(ContextId(3));
        let text = obj.metrics_text().expect("snapshot");
        assert!(text.contains("introspect_unit_test_total"), "{text}");
        assert!(obj.counter_total("introspect_unit_test_total".into()).expect("total") >= 5);
        assert_eq!(obj.context_info().expect("info"), "context=ContextId#3 scope=process");
    }

    #[test]
    fn skeleton_dispatches_metrics_text() {
        ohpc_telemetry::counter!("introspect_dispatch_test_total").inc();
        let skel = IntrospectionSkeleton(ContextIntrospection::new(ContextId(1)));
        assert_eq!(skel.type_name(), "OhpcIntrospection");
        let mut out = XdrWriter::new();
        skel.dispatch(1, &mut XdrReader::new(&[]), &mut out).expect("dispatch");
        let text: String = ohpc_xdr::decode_from_slice(&out.finish()).expect("decode");
        assert!(text.contains("introspect_dispatch_test_total"), "{text}");
    }

    #[test]
    fn skeleton_dispatches_dump_traces() {
        {
            let _t = ohpc_telemetry::install(ohpc_telemetry::TraceContext::new_root());
            ohpc_telemetry::trace_event("introspect_dump_probe", &[]);
        }
        let skel = IntrospectionSkeleton(ContextIntrospection::new(ContextId(1)));
        let mut out = XdrWriter::new();
        skel.dispatch(4, &mut XdrReader::new(&[]), &mut out).expect("dispatch");
        let text: String = ohpc_xdr::decode_from_slice(&out.finish()).expect("decode");
        assert!(text.contains("introspect_dump_probe"), "{text}");
    }
}
