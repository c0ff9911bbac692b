//! XDR-style external data representation for Open HPC++.
//!
//! The paper's TCP protocol object "uses XDR for data encoding"; this crate
//! implements the subset of RFC 4506 the ORB needs:
//!
//! * all primitive items occupy a multiple of 4 bytes, big-endian;
//! * opaque data and strings are length-prefixed and padded to 4 bytes;
//! * arrays are a length word followed by the encoded elements;
//! * optionals are a boolean discriminant followed by the value.
//!
//! The API is split into a streaming [`XdrWriter`]/[`XdrReader`] pair and the
//! derive-style traits [`XdrEncode`]/[`XdrDecode`] implemented for the common
//! primitive, container, and tuple types.
//!
//! # Example
//!
//! ```
//! use ohpc_xdr::{XdrWriter, XdrReader, XdrEncode, XdrDecode};
//!
//! let mut w = XdrWriter::new();
//! (42u32, String::from("weather"), vec![1i32, -2, 3]).encode(&mut w);
//! let buf = w.finish();
//!
//! let mut r = XdrReader::new(&buf);
//! let v = <(u32, String, Vec<i32>)>::decode(&mut r).unwrap();
//! assert_eq!(v, (42, "weather".to_string(), vec![1, -2, 3]));
//! assert!(r.is_empty());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
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

mod error;
mod field;
mod inline;
mod macros;
mod reader;
mod traits;
mod writer;

pub use error::XdrError;
pub use field::{
    ends_delimited, Array, Detached, Elements, Extension, FieldCodec, FrameView, Mirror,
    TextView, ARRAY_RESERVE,
};
pub use inline::InlineList;
pub use reader::XdrReader;
pub use traits::{XdrDecode, XdrEncode};
pub use writer::{XdrWriter, GATHER_MIN, SPARE_MAX};

/// Round-trips a value through the codec; convenience for tests and for
/// one-shot encodes such as capability metadata blocks.
pub fn encode_to_vec<T: XdrEncode + ?Sized>(value: &T) -> Vec<u8> {
    let mut w = XdrWriter::new();
    value.encode(&mut w);
    w.finish().to_vec()
}

/// Decodes a single value from `buf`, requiring that every byte is consumed.
pub fn decode_from_slice<T: XdrDecode>(buf: &[u8]) -> Result<T, XdrError> {
    let mut r = XdrReader::new(buf);
    let v = T::decode(&mut r)?;
    if !r.is_empty() {
        return Err(XdrError::TrailingBytes(r.remaining()));
    }
    Ok(v)
}

/// Number of padding bytes needed to round `len` up to a 4-byte boundary.
#[inline]
pub const fn pad4(len: usize) -> usize {
    (4 - (len & 3)) & 3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pad4_boundaries() {
        assert_eq!(pad4(0), 0);
        assert_eq!(pad4(1), 3);
        assert_eq!(pad4(2), 2);
        assert_eq!(pad4(3), 1);
        assert_eq!(pad4(4), 0);
        assert_eq!(pad4(5), 3);
    }

    #[test]
    fn trailing_extension_roundtrip_and_absence() {
        // A frame with the extension appended after its last field.
        let mut w = XdrWriter::new();
        7u32.encode(&mut w);
        w.put_trailing_extension(1, 3, |w| w.put_fixed_opaque(b"ctx"));
        let buf = w.finish();
        let mut r = XdrReader::new(&buf);
        assert_eq!(r.get_u32().unwrap(), 7);
        let ext = r.get_trailing_extension().unwrap();
        assert_eq!(ext, Some((1, &b"ctx"[..])));
        assert!(r.is_empty(), "extension consumes to end of input");

        // A legacy frame without it: same prefix, no extension bytes.
        let legacy = encode_to_vec(&7u32);
        let mut r = XdrReader::new(&legacy);
        assert_eq!(r.get_u32().unwrap(), 7);
        assert_eq!(r.get_trailing_extension().unwrap(), None);
    }

    #[test]
    fn trailing_extension_truncation_is_an_error_not_none() {
        // Version word present but payload cut off: a corrupt frame must
        // surface as Truncated, not be mistaken for a legacy frame.
        let mut w = XdrWriter::new();
        w.put_trailing_extension(1, 7, |w| w.put_fixed_opaque(b"payload"));
        let buf = w.finish();
        let mut r = XdrReader::new(&buf[..buf.len() - 4]);
        assert!(r.get_trailing_extension().is_err());
    }

    #[test]
    fn decode_rejects_trailing() {
        let mut w = XdrWriter::new();
        7u32.encode(&mut w);
        8u32.encode(&mut w);
        let buf = w.finish();
        let err = decode_from_slice::<u32>(&buf).unwrap_err();
        assert!(matches!(err, XdrError::TrailingBytes(4)));
    }
}
