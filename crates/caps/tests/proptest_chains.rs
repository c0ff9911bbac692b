//! Property tests over the shipped capabilities: for every chain built from
//! the standard registry, `unprocess ∘ process == id` on both directions,
//! regardless of body content and chain composition.

use std::sync::Arc;

use bytes::Bytes;
use ohpc_caps::register_standard;
use ohpc_compress::CodecKind;
use ohpc_crypto::KeyStore;
use ohpc_caps::CapScope;
use ohpc_orb::capability::{process_chain, unprocess_chain, CallInfo};
use ohpc_orb::message::{CapWireMeta, GlueWire, INLINE_HOPS};
use ohpc_orb::{CapabilityRegistry, CapabilitySpec, Direction, ObjectId, RequestId};
use proptest::prelude::*;

fn registry() -> Arc<CapabilityRegistry> {
    let reg = CapabilityRegistry::new();
    let mut keys = KeyStore::new();
    keys.add_key("lab", b"test-passphrase");
    register_standard(&reg, keys);
    Arc::new(reg)
}

/// Specs for chain-composable capabilities (those that always allow, so the
/// identity property is unconditional).
fn arb_spec() -> impl Strategy<Value = CapabilitySpec> {
    prop_oneof![
        Just(ohpc_caps::EncryptionCap::spec("lab")),
        Just(ohpc_caps::AuthCap::spec("lab", "prop-client", ohpc_caps::CapScope::Always)),
        Just(ohpc_caps::CompressionCap::spec(CodecKind::Lzss, 32)),
        Just(ohpc_caps::CompressionCap::spec(CodecKind::Rle, 32)),
        Just(ohpc_caps::LoggingCap::spec("prop")),
        // generous budgets so property runs never exhaust them
        Just(ohpc_caps::TimeoutCap::spec(1_000_000)),
        Just(ohpc_caps::LeaseCap::spec(u64::MAX / 2)),
    ]
}

fn arb_body() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..2048),
        proptest::collection::vec(0u8..3, 0..4096), // compressible
    ]
}

/// Chains of up to four and sections of up to five hops: longer than the
/// `INLINE_HOPS` a list holds in place, so both take its spill path.
const _: () = assert!(INLINE_HOPS < 4);

/// Arbitrary glue metadata: any capability names (including duplicates and
/// the empty string) with any opaque payloads.
fn arb_glue_wire() -> impl Strategy<Value = GlueWire> {
    let entry = ("[a-z.]{0,24}", proptest::collection::vec(any::<u8>(), 0..128))
        .prop_map(|(name, meta)| CapWireMeta { name: name.into(), meta: Bytes::from(meta) });
    (any::<u64>(), proptest::collection::vec(entry, 0..6))
        .prop_map(|(glue_id, caps)| GlueWire { glue_id, caps: caps.into() })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn chain_identity_request_direction(
        specs in proptest::collection::vec(arb_spec(), 0..5),
        body in arb_body(),
        method in 0u32..16,
    ) {
        let reg = registry();
        let chain = reg.build_chain(&specs).unwrap();
        let call = CallInfo { object: ObjectId(7), method, request_id: RequestId(1) };
        let body = Bytes::from(body);
        let (wire, metas) =
            process_chain(&chain, Direction::Request, &call, body.clone()).unwrap();
        prop_assert_eq!(metas.spilled(), specs.len() > INLINE_HOPS);
        // Receiving side builds its own instances from the same specs.
        let server_chain = reg.build_chain(&specs).unwrap();
        let back =
            unprocess_chain(&server_chain, Direction::Request, &call, &metas, wire).unwrap();
        prop_assert_eq!(back, body);
    }

    #[test]
    fn chain_identity_reply_direction(
        specs in proptest::collection::vec(arb_spec(), 0..5),
        body in arb_body(),
    ) {
        let reg = registry();
        let chain = reg.build_chain(&specs).unwrap();
        let call = CallInfo { object: ObjectId(7), method: 1, request_id: RequestId(2) };
        let body = Bytes::from(body);
        let (wire, metas) = process_chain(&chain, Direction::Reply, &call, body.clone()).unwrap();
        let back = unprocess_chain(&chain, Direction::Reply, &call, &metas, wire).unwrap();
        prop_assert_eq!(back, body);
    }

    /// The degenerate chains deserve their own guaranteed coverage: the
    /// empty chain is the identity transform, and a single-element chain
    /// must invert itself without neighbors.
    #[test]
    fn empty_and_single_chains_are_identity(spec in arb_spec(), body in arb_body()) {
        let reg = registry();
        let call = CallInfo { object: ObjectId(3), method: 2, request_id: RequestId(9) };
        let body = Bytes::from(body);
        for specs in [vec![], vec![spec]] {
            let chain = reg.build_chain(&specs).unwrap();
            let (wire, metas) =
                process_chain(&chain, Direction::Request, &call, body.clone()).unwrap();
            if specs.is_empty() {
                prop_assert_eq!(&wire, &body);
                prop_assert!(metas.is_empty(), "empty chain must emit no metadata");
            }
            let back =
                unprocess_chain(&chain, Direction::Request, &call, &metas, wire).unwrap();
            prop_assert_eq!(back, body.clone());
        }
    }

    /// The glue section round-trips through XDR for arbitrary metadata,
    /// including empty names, empty payloads, and duplicate entries.
    #[test]
    fn glue_wire_metadata_roundtrip(gw in arb_glue_wire()) {
        let buf = ohpc_xdr::encode_to_vec(&gw);
        prop_assert_eq!(buf.len() % 4, 0); // glue section must stay word-aligned
        let back = ohpc_xdr::decode_from_slice::<GlueWire>(&buf).unwrap();
        prop_assert_eq!(back.caps.spilled(), back.caps.len() > INLINE_HOPS);
        prop_assert_eq!(back, gw);
    }

    /// Every `CapScope` survives its wire encoding.
    #[test]
    fn cap_scope_roundtrip(tag in 0u32..3) {
        let scope: CapScope = ohpc_xdr::decode_from_slice(&tag.to_be_bytes()).unwrap();
        let buf = ohpc_xdr::encode_to_vec(&scope);
        prop_assert_eq!(&buf[..], &tag.to_be_bytes()[..]);
        prop_assert_eq!(ohpc_xdr::decode_from_slice::<CapScope>(&buf).unwrap(), scope);
    }

    /// Tampering with the wire body after an auth-containing chain always
    /// produces an error (never a silent wrong answer).
    #[test]
    fn tampering_is_always_detected_with_auth(
        body in proptest::collection::vec(any::<u8>(), 1..512),
        flip in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let reg = registry();
        let specs = vec![
            ohpc_caps::CompressionCap::spec(CodecKind::Lzss, 32),
            ohpc_caps::AuthCap::spec("lab", "prop-client", ohpc_caps::CapScope::Always),
        ];
        let chain = reg.build_chain(&specs).unwrap();
        let call = CallInfo { object: ObjectId(1), method: 0, request_id: RequestId(0) };
        let (wire, metas) =
            process_chain(&chain, Direction::Request, &call, Bytes::from(body)).unwrap();
        if wire.is_empty() {
            return Ok(());
        }
        let mut bad = wire.to_vec();
        let i = flip.index(bad.len());
        bad[i] ^= 1 << bit;
        let result =
            unprocess_chain(&chain, Direction::Request, &call, &metas, Bytes::from(bad));
        prop_assert!(result.is_err(), "tampered body must be rejected");
    }

    /// Encryption hides structure: ciphertext differs from plaintext for any
    /// non-empty body.
    #[test]
    fn encryption_changes_every_nonempty_body(body in proptest::collection::vec(any::<u8>(), 1..512)) {
        let reg = registry();
        let chain = reg.build_chain(&[ohpc_caps::EncryptionCap::spec("lab")]).unwrap();
        let call = CallInfo { object: ObjectId(1), method: 0, request_id: RequestId(0) };
        let body = Bytes::from(body);
        let (wire, _) = process_chain(&chain, Direction::Request, &call, body.clone()).unwrap();
        prop_assert_ne!(wire, body);
    }
}

/// The three scopes' golden encodings, as at `f2fe80a` (the rest of the wire
/// vocabulary is pinned in `crates/orb/tests/wire_golden.rs`; this type lives
/// above that crate). Scopes travel inside capability configs, so their tags
/// are wire protocol like any other.
#[test]
fn cap_scope_wire_tags_are_pinned() {
    use ohpc_xdr::XdrEncode;
    let golden = [(CapScope::Always, 0u32), (CapScope::CrossLan, 1), (CapScope::CrossSite, 2)];
    for (scope, tag) in golden {
        assert_eq!(ohpc_xdr::encode_to_vec(&scope), tag.to_be_bytes());
        assert_eq!(ohpc_xdr::decode_from_slice::<CapScope>(&tag.to_be_bytes()).unwrap(), scope);
        assert_eq!(scope.encoded_len(), 4);
    }
    assert_eq!(
        ohpc_xdr::decode_from_slice::<CapScope>(&3u32.to_be_bytes()).unwrap_err(),
        ohpc_xdr::XdrError::InvalidDiscriminant(3)
    );
}
