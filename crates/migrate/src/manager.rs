//! Migration mechanics.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::RwLock;

use ohpc_orb::context::OrRow;
use ohpc_orb::skeleton::RemoteObject;
use ohpc_orb::{Context, ObjectId, ObjectReference, OrbError};

/// A remote object that can be checkpointed and re-created elsewhere.
pub trait Migratable: RemoteObject {
    /// Serializes the object's full state.
    fn serialize_state(&self) -> Bytes;
}

/// Builds a fresh instance of a type from serialized state.
pub type ObjectFactory =
    Box<dyn Fn(&[u8]) -> Result<Arc<dyn Migratable>, String> + Send + Sync>;

/// Migration failures.
#[derive(Debug)]
pub enum MigrateError {
    /// The object is not registered with this manager.
    NotManaged(ObjectId),
    /// No factory for the object's type name.
    NoFactory(String),
    /// The factory rejected the serialized state.
    Restore(String),
    /// Minting the new OR failed (destination lacks the requested adverts).
    Or(OrbError),
}

impl std::fmt::Display for MigrateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MigrateError::NotManaged(id) => write!(f, "object {id} is not managed"),
            MigrateError::NoFactory(t) => write!(f, "no factory registered for type '{t}'"),
            MigrateError::Restore(m) => write!(f, "state restore failed: {m}"),
            MigrateError::Or(e) => write!(f, "cannot mint OR at destination: {e}"),
        }
    }
}

impl std::error::Error for MigrateError {}

/// Coordinates migrations across a set of contexts.
///
/// The manager tracks which context currently hosts each managed object and
/// owns the per-type factories used to rebuild state at the destination.
#[derive(Default)]
pub struct MigrationManager {
    objects: RwLock<HashMap<ObjectId, ManagedObject>>,
    factories: RwLock<HashMap<String, ObjectFactory>>,
}

struct ManagedObject {
    instance: Arc<dyn Migratable>,
    home: Context,
}

impl MigrationManager {
    /// Empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a factory for `type_name`.
    pub fn register_factory(
        &self,
        type_name: &str,
        factory: impl Fn(&[u8]) -> Result<Arc<dyn Migratable>, String> + Send + Sync + 'static,
    ) {
        self.factories.write().insert(type_name.to_string(), Box::new(factory));
    }

    /// Hosts `object` in `ctx` under management, returning its id.
    pub fn register(&self, ctx: &Context, object: Arc<dyn Migratable>) -> ObjectId {
        let id = ctx.register(object.clone());
        self.objects
            .write()
            .insert(id, ManagedObject { instance: object, home: ctx.clone() });
        id
    }

    /// The context currently hosting `id`.
    pub fn home_of(&self, id: ObjectId) -> Option<Context> {
        self.objects.read().get(&id).map(|m| m.home.clone())
    }

    /// Number of managed objects.
    pub fn len(&self) -> usize {
        self.objects.read().len()
    }

    /// True when nothing is managed.
    pub fn is_empty(&self) -> bool {
        self.objects.read().is_empty()
    }

    /// Migrates `id` from its current home to `dst`, advertising the new OR
    /// with `rows`. Returns the new OR (already installed as a tombstone at
    /// the old home, so existing GPs will follow).
    pub fn migrate(
        &self,
        id: ObjectId,
        dst: &Context,
        rows: &[OrRow],
    ) -> Result<ObjectReference, MigrateError> {
        let (instance, src) = {
            let objects = self.objects.read();
            let m = objects.get(&id).ok_or(MigrateError::NotManaged(id))?;
            (m.instance.clone(), m.home.clone())
        };

        if src.id() == dst.id() {
            // Degenerate move: nothing to do but remint the OR.
            return src.make_or(id, rows).map_err(MigrateError::Or);
        }

        // 1. Snapshot and rebuild at the destination.
        let type_name = instance.type_name().to_string();
        let state = instance.serialize_state();
        let fresh = {
            let factories = self.factories.read();
            let factory =
                factories.get(&type_name).ok_or(MigrateError::NoFactory(type_name.clone()))?;
            factory(&state).map_err(MigrateError::Restore)?
        };

        // 2. Adopt at destination under the same identity, mint the new OR.
        dst.adopt(id, fresh.clone());
        let new_or = dst.make_or(id, rows).map_err(|e| {
            // roll back the adoption so the object is not served from two homes
            dst.take_object(id);
            MigrateError::Or(e)
        })?;

        // 3. Forward the old home, then retire the old instance.
        src.install_tombstone(id, new_or.clone());
        src.take_object(id);

        self.objects
            .write()
            .insert(id, ManagedObject { instance: fresh, home: dst.clone() });
        ohpc_telemetry::counter!("migrate_migrations_total").inc();
        Ok(new_or)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ohpc_orb::skeleton::MethodError;
    use ohpc_orb::{CapabilityRegistry, ContextId, Location, ProtocolId};
    use ohpc_xdr::{XdrDecode, XdrEncode, XdrReader, XdrWriter};
    use std::sync::atomic::{AtomicI64, Ordering};

    /// A counter whose value is its entire state.
    struct Counter(AtomicI64);

    impl RemoteObject for Counter {
        fn type_name(&self) -> &str {
            "Counter"
        }
        fn dispatch(
            &self,
            method: u32,
            args: &mut XdrReader<'_>,
            out: &mut XdrWriter,
        ) -> Result<(), MethodError> {
            match method {
                1 => {
                    let n = i64::decode(args).map_err(|e| MethodError::BadArgs(e.to_string()))?;
                    let v = self.0.fetch_add(n, Ordering::Relaxed) + n;
                    v.encode(out);
                    Ok(())
                }
                m => Err(MethodError::NoSuchMethod(m)),
            }
        }
    }

    impl Migratable for Counter {
        fn serialize_state(&self) -> Bytes {
            Bytes::copy_from_slice(&self.0.load(Ordering::Relaxed).to_be_bytes())
        }
    }

    fn counter_factory(state: &[u8]) -> Result<Arc<dyn Migratable>, String> {
        let v = i64::from_be_bytes(state.try_into().map_err(|_| "bad state".to_string())?);
        Ok(Arc::new(Counter(AtomicI64::new(v))))
    }

    fn ctx(id: u64, machine: u32) -> Context {
        let c = Context::new(
            ContextId(id),
            Location::new(machine, 0),
            Arc::new(CapabilityRegistry::new()),
        );
        c.advertise(ProtocolId::TCP, format!("tcp://h{machine}:1"));
        c
    }

    fn add(ctx: &Context, id: ObjectId, n: i64) -> Result<i64, ohpc_orb::ReplyStatus> {
        use ohpc_orb::{ReplyStatus, RequestId, RequestMessage};
        let mut w = XdrWriter::new();
        n.encode(&mut w);
        let reply = ctx.handle_request(RequestMessage {
            request_id: RequestId(1),
            object: id,
            method: 1,
            oneway: false,
            glue: None,
            body: bytes::Bytes::copy_from_slice(w.peek()),
            trace: None,
        });
        match reply.status {
            ReplyStatus::Ok => Ok(ohpc_xdr::decode_from_slice(&reply.body).unwrap()),
            s => Err(s),
        }
    }

    #[test]
    fn state_travels_with_the_object() {
        let mgr = MigrationManager::new();
        mgr.register_factory("Counter", counter_factory);
        let a = ctx(1, 0);
        let b = ctx(2, 1);

        let id = mgr.register(&a, Arc::new(Counter(AtomicI64::new(0))));
        assert_eq!(add(&a, id, 5).unwrap(), 5);
        assert_eq!(mgr.home_of(id).unwrap().id(), a.id());

        let new_or = mgr.migrate(id, &b, &[OrRow::Plain(ProtocolId::TCP)]).unwrap();
        assert_eq!(new_or.location, Location::new(1, 0));
        assert_eq!(mgr.home_of(id).unwrap().id(), b.id());

        // state continued at 5
        assert_eq!(add(&b, id, 2).unwrap(), 7);
        // old home forwards
        assert!(matches!(add(&a, id, 1).unwrap_err(), ohpc_orb::ReplyStatus::Moved(or) if *or == new_or));
    }

    #[test]
    fn migrate_unmanaged_fails() {
        let mgr = MigrationManager::new();
        let b = ctx(2, 1);
        assert!(matches!(
            mgr.migrate(ObjectId(99), &b, &[]),
            Err(MigrateError::NotManaged(_))
        ));
    }

    #[test]
    fn migrate_without_factory_fails_and_leaves_source_serving() {
        let mgr = MigrationManager::new();
        let a = ctx(1, 0);
        let b = ctx(2, 1);
        let id = mgr.register(&a, Arc::new(Counter(AtomicI64::new(3))));
        assert!(matches!(
            mgr.migrate(id, &b, &[OrRow::Plain(ProtocolId::TCP)]),
            Err(MigrateError::NoFactory(_))
        ));
        // source still serves
        assert_eq!(add(&a, id, 1).unwrap(), 4);
    }

    #[test]
    fn failed_or_minting_rolls_back_adoption() {
        let mgr = MigrationManager::new();
        mgr.register_factory("Counter", counter_factory);
        let a = ctx(1, 0);
        // destination with no adverts: make_or must fail
        let b = Context::new(
            ContextId(2),
            Location::new(1, 0),
            Arc::new(CapabilityRegistry::new()),
        );
        let id = mgr.register(&a, Arc::new(Counter(AtomicI64::new(1))));
        assert!(matches!(
            mgr.migrate(id, &b, &[OrRow::Plain(ProtocolId::TCP)]),
            Err(MigrateError::Or(_))
        ));
        assert!(!b.hosts(id), "rolled back");
        assert_eq!(add(&a, id, 1).unwrap(), 2, "source still authoritative");
    }

    #[test]
    fn chain_of_migrations() {
        let mgr = MigrationManager::new();
        mgr.register_factory("Counter", counter_factory);
        let contexts: Vec<Context> = (0..4).map(|i| ctx(i as u64 + 1, i)).collect();
        let id = mgr.register(&contexts[0], Arc::new(Counter(AtomicI64::new(0))));

        for (hop, c) in contexts.iter().enumerate().skip(1) {
            mgr.migrate(id, c, &[OrRow::Plain(ProtocolId::TCP)]).unwrap();
            assert_eq!(add(c, id, 1).unwrap(), hop as i64);
        }
        // every earlier context forwards (directly or transitively)
        for c in &contexts[..3] {
            assert!(matches!(add(c, id, 1).unwrap_err(), ohpc_orb::ReplyStatus::Moved(_)));
        }
    }

    #[test]
    fn same_context_migration_is_a_remint() {
        let mgr = MigrationManager::new();
        mgr.register_factory("Counter", counter_factory);
        let a = ctx(1, 0);
        let id = mgr.register(&a, Arc::new(Counter(AtomicI64::new(9))));
        let or = mgr.migrate(id, &a, &[OrRow::Plain(ProtocolId::TCP)]).unwrap();
        assert_eq!(or.object, id);
        assert_eq!(add(&a, id, 1).unwrap(), 10, "no state reset");
    }
}
