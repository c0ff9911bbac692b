//! The `security` capability: ChaCha20 encryption of request/reply bodies.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use rand::RngCore;

use ohpc_crypto::{chacha20_xor, KeyStore};
use ohpc_orb::capability::{CallInfo, CapMeta};
use ohpc_orb::{CapError, Capability, CapabilitySpec, Direction};
use ohpc_xdr::{XdrDecode, XdrEncode, XdrReader, XdrWriter};

use crate::{bad_config, CapScope};

/// Wire name of this capability.
pub const NAME: &str = "security";

/// Encrypts bodies with ChaCha20 under a named pre-shared key.
///
/// The 12-byte nonce is unique per message: 4 random instance bytes plus an
/// 8-byte counter, carried in capability metadata. The key itself never
/// appears on the wire — only its name travels in the spec, and each side
/// resolves it against its own [`KeyStore`].
pub struct EncryptionCap {
    key: Arc<[u8; 32]>,
    nonce_prefix: [u8; 4],
    counter: AtomicU64,
    scope: CapScope,
}

impl EncryptionCap {
    /// Builds a spec naming the pre-shared key, encrypting everywhere.
    pub fn spec(key_name: &str) -> CapabilitySpec {
        Self::spec_scoped(key_name, CapScope::Always)
    }

    /// Builds a spec with an explicit applicability scope — e.g.
    /// [`CapScope::CrossSite`] for "encrypt only toward the Internet".
    pub fn spec_scoped(key_name: &str, scope: CapScope) -> CapabilitySpec {
        let mut w = XdrWriter::new();
        key_name.encode(&mut w);
        scope.encode(&mut w);
        CapabilitySpec::with_config(NAME, w.finish())
    }

    /// Builds the capability from its spec and the local key store.
    pub fn from_spec(spec: &CapabilitySpec, keys: &KeyStore) -> Result<Self, CapError> {
        let mut r = XdrReader::new(&spec.config);
        let key_name = String::decode(&mut r).map_err(|e| bad_config(NAME, e))?;
        let scope = CapScope::decode(&mut r).map_err(|e| bad_config(NAME, e))?;
        let key = keys
            .get_by_name(&key_name)
            .ok_or_else(|| CapError::Failed(format!("no key named '{key_name}' in local store")))?;
        let mut nonce_prefix = [0u8; 4];
        rand::thread_rng().fill_bytes(&mut nonce_prefix);
        Ok(Self { key, nonce_prefix, counter: AtomicU64::new(1), scope })
    }

    fn next_nonce(&self) -> [u8; 12] {
        let mut nonce = [0u8; 12];
        nonce[..4].copy_from_slice(&self.nonce_prefix);
        let n = self.counter.fetch_add(1, Ordering::Relaxed);
        nonce[4..].copy_from_slice(&n.to_be_bytes());
        nonce
    }

    /// XORs the keystream over `body`. A body this handle is the only owner
    /// of — a received frame, a freshly marshalled reply — is transformed in
    /// place and handed back as the same buffer. A shared one is not ours to
    /// overwrite: the other handle (the GP's retry loop, a group's other
    /// members) must keep reading the original bytes, so the cipher runs
    /// over one fresh copy.
    fn cipher(&self, nonce: &[u8; 12], mut body: Bytes) -> Bytes {
        if let Some(data) = body.unique_mut() {
            chacha20_xor(&self.key, nonce, 0, data);
            return body;
        }
        let mut data = body.to_vec();
        chacha20_xor(&self.key, nonce, 0, &mut data);
        Bytes::from(data)
    }
}

impl Capability for EncryptionCap {
    fn name(&self) -> &str {
        NAME
    }

    fn applicable(&self, client: &ohpc_orb::Location, server: &ohpc_orb::Location) -> bool {
        self.scope.applies(client, server)
    }

    fn process(
        &self,
        _dir: Direction,
        _call: &CallInfo,
        meta: &mut CapMeta,
        body: Bytes,
    ) -> Result<Bytes, CapError> {
        let nonce = self.next_nonce();
        meta.set("nonce", nonce);
        Ok(self.cipher(&nonce, body))
    }

    fn unprocess(
        &self,
        _dir: Direction,
        _call: &CallInfo,
        meta: &CapMeta,
        body: Bytes,
    ) -> Result<Bytes, CapError> {
        let nonce_bytes = meta.require("nonce")?;
        let nonce: [u8; 12] = nonce_bytes
            .as_ref()
            .try_into()
            .map_err(|_| CapError::Failed("nonce must be 12 bytes".into()))?;
        Ok(self.cipher(&nonce, body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ohpc_orb::{ObjectId, RequestId};

    fn call() -> CallInfo {
        CallInfo { object: ObjectId(1), method: 2, request_id: RequestId(3) }
    }

    fn keys() -> KeyStore {
        let mut ks = KeyStore::new();
        ks.add_key("lab", b"hunter2");
        ks
    }

    fn cap() -> EncryptionCap {
        EncryptionCap::from_spec(&EncryptionCap::spec("lab"), &keys()).unwrap()
    }

    #[test]
    fn roundtrip_restores_plaintext() {
        let cap = cap();
        let body = Bytes::from_static(b"very secret array of integers");
        let mut meta = CapMeta::new();
        let cipher = cap.process(Direction::Request, &call(), &mut meta, body.clone()).unwrap();
        assert_ne!(cipher, body);
        let plain = cap.unprocess(Direction::Request, &call(), &meta, cipher).unwrap();
        assert_eq!(plain, body);
    }

    #[test]
    fn a_shared_body_is_copied_and_a_sole_owner_is_transformed_in_place() {
        let cap = cap();
        let plain = vec![0x5Au8; 3000];

        // Shared: the second handle keeps its bytes, the result is elsewhere.
        let body = Bytes::from(plain.clone());
        let kept = body.clone();
        let mut meta = CapMeta::new();
        let cipher = cap.process(Direction::Request, &call(), &mut meta, body).unwrap();
        assert_eq!(kept, plain, "process wrote through a shared handle");
        assert_ne!(cipher.as_ptr(), kept.as_ptr());
        let kept_cipher = cipher.clone();
        let back = cap.unprocess(Direction::Request, &call(), &meta, cipher).unwrap();
        assert_eq!(back, plain);
        assert_ne!(kept_cipher, plain, "unprocess wrote through a shared handle");
        assert_ne!(back.as_ptr(), kept_cipher.as_ptr());

        // Sole owner: same storage out as in, both ways.
        let body = Bytes::from(plain.clone());
        let at = body.as_ptr();
        let mut meta = CapMeta::new();
        let cipher = cap.process(Direction::Reply, &call(), &mut meta, body).unwrap();
        assert_eq!(cipher.as_ptr(), at);
        assert_ne!(cipher, plain);
        let back = cap.unprocess(Direction::Reply, &call(), &meta, cipher).unwrap();
        assert_eq!(back.as_ptr(), at);
        assert_eq!(back, plain);

        // A body inside its frame: copied while the frame handle lives,
        // transformed in place once the view is all that is left of it.
        let frame = Bytes::from([&[1u8; 8][..], &plain[..], &[2u8; 8][..]].concat());
        let body = 8..8 + plain.len();
        let mut meta = CapMeta::new();
        let copied =
            cap.process(Direction::Request, &call(), &mut meta, frame.slice(body.clone())).unwrap();
        assert_ne!(copied.as_ptr(), frame[8..].as_ptr());
        assert_eq!(&frame[body.clone()], &plain[..]);
        let view = frame.slice(body);
        drop(frame);
        let at = view.as_ptr();
        let cipher = cap.process(Direction::Request, &call(), &mut meta, view).unwrap();
        assert_eq!(cipher.as_ptr(), at);
        assert_eq!(cap.unprocess(Direction::Request, &call(), &meta, cipher).unwrap(), plain);
    }

    #[test]
    fn nonces_never_repeat_across_messages() {
        let cap = cap();
        let mut m1 = CapMeta::new();
        let mut m2 = CapMeta::new();
        cap.process(Direction::Request, &call(), &mut m1, Bytes::from_static(b"a")).unwrap();
        cap.process(Direction::Request, &call(), &mut m2, Bytes::from_static(b"a")).unwrap();
        assert_ne!(m1.get("nonce"), m2.get("nonce"));
    }

    #[test]
    fn same_plaintext_different_ciphertext() {
        let cap = cap();
        let body = Bytes::from_static(b"repeat me");
        let mut m1 = CapMeta::new();
        let mut m2 = CapMeta::new();
        let c1 = cap.process(Direction::Request, &call(), &mut m1, body.clone()).unwrap();
        let c2 = cap.process(Direction::Request, &call(), &mut m2, body).unwrap();
        assert_ne!(c1, c2);
    }

    #[test]
    fn peers_with_same_key_interoperate() {
        // Client and server build separate instances from the same spec +
        // key store (different nonce prefixes) and still round-trip.
        let client = cap();
        let server = EncryptionCap::from_spec(&EncryptionCap::spec("lab"), &keys()).unwrap();
        let body = Bytes::from_static(b"cross-instance");
        let mut meta = CapMeta::new();
        let cipher = client.process(Direction::Request, &call(), &mut meta, body.clone()).unwrap();
        let plain = server.unprocess(Direction::Request, &call(), &meta, cipher).unwrap();
        assert_eq!(plain, body);
    }

    #[test]
    fn wrong_key_garbles_but_never_panics() {
        let client = cap();
        let mut other_keys = KeyStore::new();
        other_keys.add_key("lab", b"different-passphrase");
        let server = EncryptionCap::from_spec(&EncryptionCap::spec("lab"), &other_keys).unwrap();
        let body = Bytes::from_static(b"plaintext");
        let mut meta = CapMeta::new();
        let cipher = client.process(Direction::Request, &call(), &mut meta, body.clone()).unwrap();
        let wrong = server.unprocess(Direction::Request, &call(), &meta, cipher).unwrap();
        assert_ne!(wrong, body, "wrong key must not decrypt");
    }

    #[test]
    fn missing_key_in_store_fails_at_build() {
        let Err(err) = EncryptionCap::from_spec(&EncryptionCap::spec("nope"), &keys()) else {
            panic!("build must fail for an unknown key");
        };
        assert!(matches!(err, CapError::Failed(_)));
    }

    #[test]
    fn bad_nonce_meta_rejected() {
        let cap = cap();
        let mut meta = CapMeta::new();
        meta.set("nonce", vec![1, 2, 3]); // wrong length
        assert!(cap
            .unprocess(Direction::Request, &call(), &meta, Bytes::from_static(b"x"))
            .is_err());
        let empty = CapMeta::new();
        assert!(cap
            .unprocess(Direction::Request, &call(), &empty, Bytes::from_static(b"x"))
            .is_err());
    }
}
