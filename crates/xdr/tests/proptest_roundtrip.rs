//! Property tests: every encodable value round-trips, the stream stays
//! 4-byte aligned, and mangled input never panics the decoder.

use bytes::Bytes;
use ohpc_xdr::{decode_from_slice, encode_to_vec, XdrEncode, XdrReader};
use proptest::prelude::*;

proptest! {
    #[test]
    fn u32_roundtrip(v: u32) {
        prop_assert_eq!(decode_from_slice::<u32>(&encode_to_vec(&v)).unwrap(), v);
    }

    #[test]
    fn u16_roundtrip(v: u16) {
        let buf = encode_to_vec(&v);
        prop_assert_eq!(buf.len() % 4, 0); // XDR pads shorts to a full word
        prop_assert_eq!(decode_from_slice::<u16>(&buf).unwrap(), v);
    }

    #[test]
    fn i64_roundtrip(v: i64) {
        prop_assert_eq!(decode_from_slice::<i64>(&encode_to_vec(&v)).unwrap(), v);
    }

    #[test]
    fn f64_roundtrip(v: f64) {
        let back = decode_from_slice::<f64>(&encode_to_vec(&v)).unwrap();
        if v.is_nan() { prop_assert!(back.is_nan()); } else { prop_assert_eq!(back, v); }
    }

    #[test]
    fn string_roundtrip(s in ".*") {
        let buf = encode_to_vec(&s);
        prop_assert_eq!(buf.len() % 4, 0);
        prop_assert_eq!(decode_from_slice::<String>(&buf).unwrap(), s);
    }

    #[test]
    fn bytes_roundtrip(v in proptest::collection::vec(any::<u8>(), 0..512)) {
        let buf = encode_to_vec(&v);
        prop_assert_eq!(buf.len() % 4, 0);
        prop_assert_eq!(decode_from_slice::<Vec<u8>>(&buf).unwrap(), v);
    }

    #[test]
    fn int_array_roundtrip(v in proptest::collection::vec(any::<i32>(), 0..256)) {
        let buf = encode_to_vec(&v);
        prop_assert_eq!(buf.len(), 4 + 4 * v.len());
        prop_assert_eq!(decode_from_slice::<Vec<i32>>(&buf).unwrap(), v);
    }

    #[test]
    fn tuple_roundtrip(a: u32, b in ".*", c in proptest::collection::vec(any::<i32>(), 0..64)) {
        let v = (a, b, c);
        prop_assert_eq!(decode_from_slice::<(u32, String, Vec<i32>)>(&encode_to_vec(&v)).unwrap(), v);
    }

    #[test]
    fn option_roundtrip(v: Option<u64>) {
        prop_assert_eq!(decode_from_slice::<Option<u64>>(&encode_to_vec(&v)).unwrap(), v);
    }

    /// Arbitrary bytes never panic the decoder — they either decode or error.
    #[test]
    fn fuzz_decode_never_panics(data in proptest::collection::vec(any::<u8>(), 0..128)) {
        let _ = decode_from_slice::<String>(&data);
        let _ = decode_from_slice::<Vec<i32>>(&data);
        let _ = decode_from_slice::<(u32, String)>(&data);
        let mut r = XdrReader::new(&data);
        while r.get_u32().is_ok() {}
    }

    /// Truncating a valid encoding always yields Truncated (or a later error),
    /// never success with a different value.
    #[test]
    fn truncation_detected(v in proptest::collection::vec(any::<i32>(), 1..64), cut in 1usize..8) {
        let buf = encode_to_vec(&v);
        let cut = cut.min(buf.len());
        let sliced = &buf[..buf.len() - cut];
        prop_assert!(decode_from_slice::<Vec<i32>>(sliced).is_err());
    }

    /// `encoded_len` of the primitive vocabulary is what `encode` writes.
    #[test]
    fn primitive_lengths_are_exact(
        a: u8, b: u16, c: i32, d: u64, e: f64, f: bool, s in ".*",
        blob in proptest::collection::vec(any::<u8>(), 0..64),
        words in proptest::collection::vec(any::<i64>(), 0..16),
        names in proptest::collection::vec(".{0,5}", 0..4),
        maybe: Option<u32>,
    ) {
        fn exact<T: XdrEncode + ?Sized>(v: &T) -> Result<(), TestCaseError> {
            prop_assert_eq!(v.encoded_len(), encode_to_vec(v).len());
            Ok(())
        }
        exact(&(a, b, c, d, e, f))?;
        exact(s.as_str())?;
        exact(&s)?;
        exact(&blob[..])?;
        exact(&Bytes::from(blob.clone()))?;
        exact(&blob)?;
        exact(&words)?;
        exact(&names)?;
        exact(&(maybe, Box::new(maybe), &maybe, ()))?;
    }
}
