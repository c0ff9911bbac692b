use bytes::Bytes;

use crate::{pad4, XdrError, XdrReader, XdrWriter};

/// A value that can be encoded into an XDR stream.
pub trait XdrEncode {
    /// Appends the XDR encoding of `self` to `w`.
    fn encode(&self, w: &mut XdrWriter);

    /// Exactly the number of bytes [`encode`](Self::encode) appends, so a
    /// frame's buffer can be allocated once at its final size.
    fn encoded_len(&self) -> usize;
}

/// A value that can be decoded from an XDR stream.
pub trait XdrDecode: Sized {
    /// Whether a decoder knows where the value ends. False only for a record
    /// that ends in a trailing extension, which reads to the end of its
    /// input: such a record is a whole frame, never a field or an element.
    const SELF_DELIMITING: bool = true;

    /// Reads one value from `r`.
    fn decode(r: &mut XdrReader<'_>) -> Result<Self, XdrError>;

    /// Steps over one value, consuming exactly the bytes
    /// [`decode`](Self::decode) would, without building it. The default
    /// decodes and drops; a described record steps over its fields as their
    /// forms do, which for views and arrays of records allocates nothing.
    fn skip(r: &mut XdrReader<'_>) -> Result<(), XdrError> {
        Self::decode(r).map(drop)
    }
}

/// Encoded size of a length-prefixed opaque or string of `len` bytes.
pub(crate) const fn opaque_len(len: usize) -> usize {
    4 + len + pad4(len)
}

macro_rules! impl_prim {
    ($t:ty, $put:ident, $get:ident, $len:literal) => {
        impl XdrEncode for $t {
            #[inline]
            fn encode(&self, w: &mut XdrWriter) {
                w.$put(*self);
            }
            fn encoded_len(&self) -> usize {
                $len
            }
        }
        impl XdrDecode for $t {
            #[inline]
            fn decode(r: &mut XdrReader<'_>) -> Result<Self, XdrError> {
                r.$get()
            }
        }
    };
}

impl_prim!(u32, put_u32, get_u32, 4);
impl_prim!(i32, put_i32, get_i32, 4);
impl_prim!(u64, put_u64, get_u64, 8);
impl_prim!(i64, put_i64, get_i64, 8);
impl_prim!(f32, put_f32, get_f32, 4);
impl_prim!(f64, put_f64, get_f64, 8);
impl_prim!(bool, put_bool, get_bool, 4);

// Smaller integers travel as full words, per XDR convention.
macro_rules! impl_small_uint {
    ($($t:ty),+) => {$(
        impl XdrEncode for $t {
            #[inline]
            fn encode(&self, w: &mut XdrWriter) {
                w.put_u32(*self as u32);
            }
            fn encoded_len(&self) -> usize {
                4
            }
        }
        impl XdrDecode for $t {
            fn decode(r: &mut XdrReader<'_>) -> Result<Self, XdrError> {
                let v = r.get_u32()?;
                <$t>::try_from(v)
                    .map_err(|_| XdrError::custom(format!("{} out of range: {v}", stringify!($t))))
            }
        }
    )+};
}

impl_small_uint!(u8, u16);

/// Strings and byte blobs travel as opaque data: a length word, the bytes,
/// zero padding. `Vec<u8>` / `Bytes` are blobs, *not* arrays of word-encoded
/// u8 — this is what keeps big payloads compact (the paper's arrays-of-int
/// workload encodes ints as words, but raw buffers travel 1:1).
macro_rules! impl_opaque_encode {
    ($($t:ty),+) => {$(
        impl XdrEncode for $t {
            fn encode(&self, w: &mut XdrWriter) {
                w.put_opaque(self.as_ref());
            }
            fn encoded_len(&self) -> usize {
                opaque_len(self.len())
            }
        }
    )+};
}

impl_opaque_encode!(str, String, Vec<u8>, Bytes, [u8]);

impl XdrDecode for String {
    fn decode(r: &mut XdrReader<'_>) -> Result<Self, XdrError> {
        r.get_string()
    }
}

impl XdrDecode for Vec<u8> {
    fn decode(r: &mut XdrReader<'_>) -> Result<Self, XdrError> {
        Ok(r.get_opaque()?.to_vec())
    }
}

/// A copy, never a view of the input (contrast [`FrameView`](crate::FrameView)).
impl XdrDecode for Bytes {
    fn decode(r: &mut XdrReader<'_>) -> Result<Self, XdrError> {
        Ok(Bytes::copy_from_slice(r.get_opaque()?))
    }
}

/// Arrays of fixed-width numbers: length word + big-endian elements, moved in
/// bulk (one reservation and one byte-swapping pass per array, not a bounds
/// check and a possible regrowth per element).
macro_rules! impl_vec_of_words {
    ($($t:ty),+) => {$(
        impl XdrEncode for Vec<$t> {
            fn encode(&self, w: &mut XdrWriter) {
                w.put_array_of(self, <$t>::to_be_bytes);
            }
            fn encoded_len(&self) -> usize {
                4 + std::mem::size_of::<$t>() * self.len()
            }
        }
        impl XdrDecode for Vec<$t> {
            fn decode(r: &mut XdrReader<'_>) -> Result<Self, XdrError> {
                r.get_array_of(<$t>::from_be_bytes)
            }
        }
    )+};
}

impl_vec_of_words!(i32, u32, u64, i64, f32, f64);

/// Generic arrays: length word + elements.
impl XdrEncode for Vec<String> {
    fn encode(&self, w: &mut XdrWriter) {
        w.put_array_len(self.len());
        for v in self {
            v.encode(w);
        }
    }
    fn encoded_len(&self) -> usize {
        4 + self.iter().map(String::encoded_len).sum::<usize>()
    }
}

impl XdrDecode for Vec<String> {
    fn decode(r: &mut XdrReader<'_>) -> Result<Self, XdrError> {
        let n = r.get_array_len()?;
        // A length prefix can claim at most remaining/4 elements; clamp the
        // pre-reservation so a lying prefix cannot force a huge allocation.
        let mut out = Vec::with_capacity(n.min(r.remaining() / 4));
        for _ in 0..n {
            out.push(String::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: XdrEncode> XdrEncode for Option<T> {
    fn encode(&self, w: &mut XdrWriter) {
        match self {
            None => w.put_bool(false),
            Some(v) => {
                w.put_bool(true);
                v.encode(w);
            }
        }
    }
    fn encoded_len(&self) -> usize {
        4 + self.as_ref().map_or(0, T::encoded_len)
    }
}

impl<T: XdrDecode> XdrDecode for Option<T> {
    const SELF_DELIMITING: bool = T::SELF_DELIMITING;
    fn decode(r: &mut XdrReader<'_>) -> Result<Self, XdrError> {
        if r.get_bool()? {
            Ok(Some(T::decode(r)?))
        } else {
            Ok(None)
        }
    }
}

/// A box is its content on the wire (recursive records need one in memory).
impl<T: XdrEncode> XdrEncode for Box<T> {
    fn encode(&self, w: &mut XdrWriter) {
        (**self).encode(w);
    }
    fn encoded_len(&self) -> usize {
        (**self).encoded_len()
    }
}

impl<T: XdrDecode> XdrDecode for Box<T> {
    const SELF_DELIMITING: bool = T::SELF_DELIMITING;
    fn decode(r: &mut XdrReader<'_>) -> Result<Self, XdrError> {
        T::decode(r).map(Box::new)
    }
}

impl XdrEncode for () {
    fn encode(&self, _w: &mut XdrWriter) {}
    fn encoded_len(&self) -> usize {
        0
    }
}

impl XdrDecode for () {
    fn decode(_r: &mut XdrReader<'_>) -> Result<Self, XdrError> {
        Ok(())
    }
}

macro_rules! impl_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: XdrEncode),+> XdrEncode for ($($name,)+) {
            fn encode(&self, w: &mut XdrWriter) {
                $(self.$idx.encode(w);)+
            }
            fn encoded_len(&self) -> usize {
                0 $(+ self.$idx.encoded_len())+
            }
        }
        impl<$($name: XdrDecode),+> XdrDecode for ($($name,)+) {
            fn decode(r: &mut XdrReader<'_>) -> Result<Self, XdrError> {
                Ok(($($name::decode(r)?,)+))
            }
        }
    };
}

impl_tuple!(A: 0);
impl_tuple!(A: 0, B: 1);
impl_tuple!(A: 0, B: 1, C: 2);
impl_tuple!(A: 0, B: 1, C: 2, D: 3);
impl_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);
impl_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);

impl<T: XdrEncode + ?Sized> XdrEncode for &T {
    fn encode(&self, w: &mut XdrWriter) {
        (*self).encode(w);
    }
    fn encoded_len(&self) -> usize {
        (*self).encoded_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{decode_from_slice, encode_to_vec};

    fn roundtrip<T: XdrEncode + XdrDecode + PartialEq + std::fmt::Debug>(v: T) {
        let buf = encode_to_vec(&v);
        assert_eq!(buf.len() % 4, 0, "stream must stay aligned");
        assert_eq!(v.encoded_len(), buf.len());
        let back: T = decode_from_slice(&buf).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn primitive_roundtrips() {
        roundtrip(0u32);
        roundtrip(u32::MAX);
        roundtrip(i32::MIN);
        roundtrip(u64::MAX);
        roundtrip(i64::MIN);
        roundtrip(true);
        roundtrip(false);
        roundtrip(1.5f32);
        roundtrip(-2.25f64);
        roundtrip(255u8);
        roundtrip(65535u16);
    }

    #[test]
    fn container_roundtrips() {
        roundtrip(String::from("open hpc++"));
        roundtrip(String::new());
        roundtrip(vec![1i32, -2, 3]);
        roundtrip(Vec::<i32>::new());
        roundtrip(vec![0u8, 1, 2, 3, 4]);
        roundtrip(Some(7u32));
        roundtrip(Option::<u32>::None);
        roundtrip(vec!["a".to_string(), String::new(), "ccc".to_string()]);
        roundtrip((1u32, String::from("x"), vec![9i32]));
    }

    #[test]
    fn u8_decode_rejects_out_of_range_word() {
        let buf = encode_to_vec(&300u32);
        assert!(decode_from_slice::<u8>(&buf).is_err());
    }

    #[test]
    fn bytes_roundtrip_as_opaque() {
        let b = Bytes::from_static(b"hello world");
        let buf = encode_to_vec(&b);
        // 4-byte length + 11 bytes + 1 pad
        assert_eq!(buf.len(), 16);
        let back: Bytes = decode_from_slice(&buf).unwrap();
        assert_eq!(back, b);
    }

    #[test]
    fn lying_length_prefix_fails_without_huge_alloc() {
        // claims 2^20 i32s but supplies none
        let buf = encode_to_vec(&(1u32 << 20));
        let err = decode_from_slice::<Vec<i32>>(&buf).unwrap_err();
        assert!(matches!(err, XdrError::Truncated { .. }));
    }

    #[test]
    fn numeric_arrays_encode_exactly_as_their_elements_would() {
        fn check<T: XdrEncode + Copy>(v: Vec<T>)
        where
            Vec<T>: XdrEncode + XdrDecode + PartialEq + std::fmt::Debug,
        {
            let mut w = XdrWriter::new();
            w.put_array_len(v.len());
            for x in &v {
                x.encode(&mut w);
            }
            assert_eq!(encode_to_vec(&v), w.finish().to_vec());
            roundtrip(v);
        }
        check(vec![i32::MIN, -1, 0, 1, i32::MAX]);
        check(vec![0u32, 0x0102_0304, u32::MAX]);
        check(vec![i64::MIN, -2, 0x0102_0304_0506_0708, i64::MAX]);
        check(vec![0u64, u64::MAX]);
        check(vec![0.0f32, -1.5, f32::MAX, f32::MIN_POSITIVE]);
        check(vec![0.0f64, -2.25, f64::MAX, f64::EPSILON]);
        check((0..10_000).collect::<Vec<i32>>());
        check(Vec::<f64>::new());
    }

    #[test]
    fn array_count_beyond_the_remaining_bytes_is_truncated_before_allocating() {
        // Two hypers claimed, one supplied: the count passes the
        // one-word-per-element check and must still fail as a whole.
        let mut w = XdrWriter::new();
        w.put_array_len(2);
        w.put_u64(7);
        let err = decode_from_slice::<Vec<u64>>(&w.finish()).unwrap_err();
        assert_eq!(err, XdrError::Truncated { needed: 16, available: 8 });
        // A count near the length limit with nothing behind it.
        let buf = encode_to_vec(&((64u32 << 20) - 1));
        assert!(matches!(
            decode_from_slice::<Vec<f64>>(&buf).unwrap_err(),
            XdrError::Truncated { .. }
        ));
    }

    #[test]
    fn int_array_wire_size_matches_xdr() {
        // n ints encode to 4 + 4n bytes
        let v = vec![7i32; 25];
        assert_eq!(encode_to_vec(&v).len(), 4 + 100);
    }
}
