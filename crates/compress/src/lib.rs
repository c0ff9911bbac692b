//! Compression codecs for the Open HPC++ compression capability.
//!
//! The paper motivates "data compression (and encryption)" as remote-access
//! attributes; this crate supplies two self-contained codecs the capability
//! can choose between:
//!
//! * [`Rle`] — byte-level run-length encoding: trivial, fast, effective on
//!   the highly repetitive arrays used in the bandwidth experiments;
//! * [`Lzss`] — an LZSS dictionary coder (4 KiB window) that also compresses
//!   non-run redundancy, standing in for the LZ-family codecs of the era.
//!
//! Both formats are self-describing (1-byte codec tag + original length) and
//! expose the common [`Codec`] interface. Round-trip identity for arbitrary
//! input is enforced with property tests.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod lzss;
mod rle;

pub use lzss::Lzss;
pub use rle::Rle;

use std::fmt;

/// Identifies a codec on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum CodecKind {
    /// Run-length encoding.
    Rle = 1,
    /// LZSS with a 4 KiB sliding window.
    Lzss = 2,
}

impl CodecKind {
    /// Parses the codec tag byte.
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            1 => Some(CodecKind::Rle),
            2 => Some(CodecKind::Lzss),
            _ => None,
        }
    }
}

/// Errors produced while decompressing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompressError {
    /// Input ended in the middle of a token.
    Truncated,
    /// The header's codec tag was unknown.
    UnknownCodec(u8),
    /// Decompressed size did not match the header's declared size.
    LengthMismatch {
        /// Size the header promised.
        declared: usize,
        /// Size actually produced.
        actual: usize,
    },
    /// A back-reference pointed before the start of the output.
    BadReference {
        /// Back-reference distance.
        offset: usize,
        /// Output bytes produced so far.
        produced: usize,
    },
    /// The declared output size exceeds the safety limit.
    DeclaredTooLarge(usize),
}

impl fmt::Display for CompressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompressError::Truncated => write!(f, "compressed stream truncated"),
            CompressError::UnknownCodec(t) => write!(f, "unknown codec tag {t}"),
            CompressError::LengthMismatch { declared, actual } => {
                write!(f, "decompressed {actual} bytes, header declared {declared}")
            }
            CompressError::BadReference { offset, produced } => {
                write!(f, "back-reference offset {offset} with only {produced} bytes produced")
            }
            CompressError::DeclaredTooLarge(n) => {
                write!(f, "declared output size {n} exceeds limit")
            }
        }
    }
}

impl std::error::Error for CompressError {}

/// Upper bound on declared decompressed size: matches the XDR length limit so
/// a corrupt header cannot force a giant allocation.
pub const MAX_DECLARED: usize = 64 << 20;

/// Common interface both codecs implement.
pub trait Codec {
    /// The codec's wire tag.
    fn kind(&self) -> CodecKind;
    /// Compresses `input` into a self-describing buffer.
    fn compress(&self, input: &[u8]) -> Vec<u8>;
    /// Decompresses a buffer produced by [`Codec::compress`].
    fn decompress(&self, input: &[u8]) -> Result<Vec<u8>, CompressError>;
}

/// Writes the common 5-byte header: codec tag + u32 little-endian length.
pub(crate) fn write_header(out: &mut Vec<u8>, kind: CodecKind, original_len: usize) {
    out.push(kind as u8);
    out.extend_from_slice(&(original_len as u32).to_le_bytes());
}

/// Parses the common header, returning (kind, declared_len, payload).
pub(crate) fn read_header(input: &[u8]) -> Result<(CodecKind, usize, &[u8]), CompressError> {
    if input.len() < 5 {
        return Err(CompressError::Truncated);
    }
    let kind = CodecKind::from_tag(input[0]).ok_or(CompressError::UnknownCodec(input[0]))?;
    let declared = u32::from_le_bytes([input[1], input[2], input[3], input[4]]) as usize;
    if declared > MAX_DECLARED {
        return Err(CompressError::DeclaredTooLarge(declared));
    }
    Ok((kind, declared, &input[5..]))
}

/// Decompresses a buffer from either codec by consulting its header tag.
pub fn decompress_any(input: &[u8]) -> Result<Vec<u8>, CompressError> {
    let (kind, _, _) = read_header(input)?;
    match kind {
        CodecKind::Rle => Rle.decompress(input),
        CodecKind::Lzss => Lzss.decompress(input),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_tags_roundtrip() {
        assert_eq!(CodecKind::from_tag(1), Some(CodecKind::Rle));
        assert_eq!(CodecKind::from_tag(2), Some(CodecKind::Lzss));
        assert_eq!(CodecKind::from_tag(0), None);
        assert_eq!(CodecKind::from_tag(255), None);
    }

    #[test]
    fn header_too_short() {
        assert_eq!(read_header(&[1, 0, 0]).unwrap_err(), CompressError::Truncated);
    }

    #[test]
    fn header_rejects_giant_declared_size() {
        let mut buf = vec![1u8];
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(matches!(read_header(&buf).unwrap_err(), CompressError::DeclaredTooLarge(_)));
    }

    #[test]
    fn decompress_any_dispatches() {
        let data = b"aaaabbbbcccc".repeat(10);
        for c in [&Rle as &dyn Codec, &Lzss as &dyn Codec] {
            let packed = c.compress(&data);
            assert_eq!(decompress_any(&packed).unwrap(), data);
        }
    }
}
