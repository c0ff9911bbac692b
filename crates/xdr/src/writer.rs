use bytes::{BufMut, Bytes, BytesMut};

use crate::pad4;

/// Append-only XDR encoder.
///
/// All `put_*` methods keep the stream 4-byte aligned. `finish` hands back the
/// accumulated buffer as cheaply-cloneable [`Bytes`], which is what the
/// transport layer frames onto the wire.
#[derive(Debug, Default)]
pub struct XdrWriter {
    buf: BytesMut,
}

impl XdrWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self { buf: BytesMut::new() }
    }

    /// Creates a writer with `cap` bytes pre-reserved — use when the encoded
    /// size is predictable (e.g. fixed-size array payloads) to avoid regrowth.
    pub fn with_capacity(cap: usize) -> Self {
        Self { buf: BytesMut::with_capacity(cap) }
    }

    /// Number of bytes encoded so far. Always a multiple of 4.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been encoded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Borrows the bytes encoded so far without consuming the writer. Used
    /// when an already-encoded body must be embedded into an outer frame.
    pub fn peek(&self) -> &[u8] {
        &self.buf
    }

    /// Empties the writer, keeping its buffer's capacity for reuse.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Consumes the writer, returning the encoded bytes: the same buffer,
    /// adopted by the `Bytes`, not a copy of it.
    pub fn finish(self) -> Bytes {
        debug_assert_eq!(self.buf.len() % 4, 0, "XDR stream must stay 4-byte aligned");
        self.buf.freeze()
    }

    /// Encodes an unsigned 32-bit integer.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.buf.put_u32(v);
    }

    /// Encodes a signed 32-bit integer (two's complement).
    #[inline]
    pub fn put_i32(&mut self, v: i32) {
        self.buf.put_i32(v);
    }

    /// Encodes an unsigned 64-bit hyper integer.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.put_u64(v);
    }

    /// Encodes a signed 64-bit hyper integer.
    #[inline]
    pub fn put_i64(&mut self, v: i64) {
        self.buf.put_i64(v);
    }

    /// Encodes an IEEE-754 single-precision float.
    #[inline]
    pub fn put_f32(&mut self, v: f32) {
        self.buf.put_f32(v);
    }

    /// Encodes an IEEE-754 double-precision float.
    #[inline]
    pub fn put_f64(&mut self, v: f64) {
        self.buf.put_f64(v);
    }

    /// Encodes a boolean as a full word (0 or 1), per RFC 4506 §4.4.
    #[inline]
    pub fn put_bool(&mut self, v: bool) {
        self.put_u32(v as u32);
    }

    /// Encodes variable-length opaque data: length word, bytes, zero padding
    /// to the next 4-byte boundary.
    pub fn put_opaque(&mut self, data: &[u8]) {
        self.put_u32(data.len() as u32);
        self.put_fixed_opaque(data);
    }

    /// Encodes fixed-length opaque data (no length prefix), padded to 4 bytes.
    /// The decoder must know the length out of band.
    pub fn put_fixed_opaque(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
        for _ in 0..pad4(data.len()) {
            self.buf.put_u8(0);
        }
    }

    /// Encodes a UTF-8 string as length-prefixed opaque bytes.
    pub fn put_string(&mut self, s: &str) {
        self.put_opaque(s.as_bytes());
    }

    /// Encodes an array length prefix. Callers then encode `n` elements.
    #[inline]
    pub fn put_array_len(&mut self, n: usize) {
        self.put_u32(n as u32);
    }

    /// Encodes a counted array of fixed-width items — length word, then each
    /// item's big-endian bytes — growing the buffer once, before the length
    /// word, for the whole array: a fresh writer allocates exactly once.
    /// `flat_map` over arrays keeps the iterator's exact length, so the copy
    /// compiles to a vectorised byte swap.
    pub(crate) fn put_array_of<T: Copy, const N: usize>(
        &mut self,
        items: &[T],
        to_be_bytes: impl Fn(T) -> [u8; N],
    ) {
        self.buf.reserve(4 + N * items.len());
        self.put_array_len(items.len());
        self.buf.extend(items.iter().flat_map(|&v| to_be_bytes(v)));
    }

    /// Encodes a trailing extension: a version word plus an opaque payload of
    /// `len` bytes, which `write_payload` appends in place (no temporary
    /// buffer; it must write exactly `len` bytes and their padding, as
    /// [`put_fixed_opaque`](Self::put_fixed_opaque) or a sequence of aligned
    /// `put_*` calls does). Pairs with
    /// [`XdrReader::get_trailing_extension`](crate::XdrReader::get_trailing_extension);
    /// must be the last field of the message.
    pub fn put_trailing_extension(
        &mut self,
        version: u32,
        len: usize,
        write_payload: impl FnOnce(&mut Self),
    ) {
        self.put_u32(version);
        self.put_u32(len as u32);
        let start = self.len();
        write_payload(self);
        debug_assert_eq!(self.len() - start, len + pad4(len), "extension payload length");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_are_big_endian_words() {
        let mut w = XdrWriter::new();
        w.put_u32(0x0102_0304);
        w.put_i32(-1);
        w.put_bool(true);
        let b = w.finish();
        assert_eq!(&b[..], &[1, 2, 3, 4, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 1]);
    }

    #[test]
    fn opaque_is_padded_with_zeros() {
        let mut w = XdrWriter::new();
        w.put_opaque(b"abcde");
        let b = w.finish();
        assert_eq!(&b[..], &[0, 0, 0, 5, b'a', b'b', b'c', b'd', b'e', 0, 0, 0]);
    }

    #[test]
    fn fixed_opaque_multiple_of_four_gets_no_padding() {
        let mut w = XdrWriter::new();
        w.put_fixed_opaque(&[9, 8, 7, 6]);
        assert_eq!(w.len(), 4);
    }

    #[test]
    fn hyper_encoding() {
        let mut w = XdrWriter::new();
        w.put_u64(0x0102_0304_0506_0708);
        w.put_i64(-2);
        let b = w.finish();
        assert_eq!(&b[..8], &[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(&b[8..], &[0xff; 8][..7].iter().chain(&[0xfeu8]).copied().collect::<Vec<_>>()[..]);
    }

    #[test]
    fn with_capacity_does_not_change_contents() {
        let mut w = XdrWriter::with_capacity(64);
        w.put_string("hi");
        let b = w.finish();
        assert_eq!(&b[..], &[0, 0, 0, 2, b'h', b'i', 0, 0]);
    }
}
