use bytes::Bytes;

use crate::{pad4, XdrError};

/// Default cap on any single length prefix (strings, opaques, arrays).
///
/// 64 MiB is far above anything the paper's workloads move in one request
/// (1M ints = 4 MiB) while still bounding what a corrupt or hostile peer can
/// make us allocate.
pub const DEFAULT_LENGTH_LIMIT: u32 = 64 << 20;

/// Borrowing XDR decoder over a byte slice.
///
/// Every read checks bounds and returns [`XdrError::Truncated`] rather than
/// panicking, because input typically arrives from the network.
#[derive(Debug, Clone)]
pub struct XdrReader<'a> {
    buf: &'a [u8],
    pos: usize,
    length_limit: u32,
    /// The buffer `buf` borrows from, when the caller holds it as `Bytes`.
    frame: Option<&'a Bytes>,
}

impl<'a> XdrReader<'a> {
    /// Wraps `buf` with the default length limit.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0, length_limit: DEFAULT_LENGTH_LIMIT, frame: None }
    }

    /// Wraps `buf` with a custom cap on length prefixes.
    pub fn with_length_limit(buf: &'a [u8], limit: u32) -> Self {
        Self { buf, pos: 0, length_limit: limit, frame: None }
    }

    /// Wraps a received frame the caller owns as [`Bytes`], with the default
    /// length limit. Decoding is identical to [`new`](Self::new) over the
    /// same bytes, except that [`get_opaque_bytes`](Self::get_opaque_bytes)
    /// hands out views of `frame` instead of copies.
    pub fn over_frame(frame: &'a Bytes) -> Self {
        Self { frame: Some(frame), ..Self::new(frame) }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when all input has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Current offset into the underlying slice.
    pub fn position(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], XdrError> {
        let buf = self.buf;
        let Some(s) = self.pos.checked_add(n).and_then(|end| buf.get(self.pos..end)) else {
            return Err(XdrError::Truncated { needed: n, available: self.remaining() });
        };
        self.pos += n;
        Ok(s)
    }

    /// Decodes an unsigned 32-bit integer.
    #[inline]
    pub fn get_u32(&mut self) -> Result<u32, XdrError> {
        let b = self.take(4)?;
        let mut a = [0u8; 4];
        a.copy_from_slice(b);
        Ok(u32::from_be_bytes(a))
    }

    /// Decodes a signed 32-bit integer.
    #[inline]
    pub fn get_i32(&mut self) -> Result<i32, XdrError> {
        Ok(self.get_u32()? as i32)
    }

    /// Decodes an unsigned 64-bit hyper integer.
    #[inline]
    pub fn get_u64(&mut self) -> Result<u64, XdrError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_be_bytes(a))
    }

    /// Decodes a signed 64-bit hyper integer.
    #[inline]
    pub fn get_i64(&mut self) -> Result<i64, XdrError> {
        Ok(self.get_u64()? as i64)
    }

    /// Decodes an IEEE-754 single-precision float.
    #[inline]
    pub fn get_f32(&mut self) -> Result<f32, XdrError> {
        Ok(f32::from_bits(self.get_u32()?))
    }

    /// Decodes an IEEE-754 double-precision float.
    #[inline]
    pub fn get_f64(&mut self) -> Result<f64, XdrError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Decodes a boolean word, rejecting anything other than 0 or 1.
    pub fn get_bool(&mut self) -> Result<bool, XdrError> {
        match self.get_u32()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(XdrError::InvalidBool(v)),
        }
    }

    fn check_len(&self, len: u32) -> Result<usize, XdrError> {
        if len > self.length_limit {
            return Err(XdrError::LengthOverflow {
                declared: len as u64,
                limit: self.length_limit as u64,
            });
        }
        // A declared length the rest of the buffer cannot possibly satisfy
        // is a corrupt prefix; reject it here, before any caller sizes an
        // allocation from it.
        if len as usize > self.remaining() {
            return Err(XdrError::Truncated { needed: len as usize, available: self.remaining() });
        }
        Ok(len as usize)
    }

    /// Decodes variable-length opaque data, validating zero padding.
    pub fn get_opaque(&mut self) -> Result<&'a [u8], XdrError> {
        let len = self.get_u32()?;
        let len = self.check_len(len)?;
        self.get_fixed_opaque(len)
    }

    /// Decodes variable-length opaque data (same checks as
    /// [`get_opaque`](Self::get_opaque)) into an owned handle: a view sharing
    /// the frame's storage when the reader was built with
    /// [`over_frame`](Self::over_frame), a copy otherwise. A view keeps the
    /// whole frame alive for as long as it lives — right for a message body,
    /// wrong for a small field that may be retained.
    pub fn get_opaque_bytes(&mut self) -> Result<Bytes, XdrError> {
        let data = self.get_opaque()?;
        Ok(self.handle(data))
    }

    /// [`get_str`](Self::get_str) into an owned handle, a view or a copy as
    /// [`get_opaque_bytes`](Self::get_opaque_bytes) decides.
    pub fn get_str_bytes(&mut self) -> Result<Bytes, XdrError> {
        let text = self.get_str()?;
        Ok(self.handle(text.as_bytes()))
    }

    /// `data`, borrowed from this reader's input, as an owned handle.
    fn handle(&self, data: &'a [u8]) -> Bytes {
        match self.frame {
            Some(frame) => frame.slice_ref(data),
            None => Bytes::copy_from_slice(data),
        }
    }

    /// Copies the next `len` bytes out of the input, as one buffer.
    pub(crate) fn copy_out(&mut self, len: usize) -> Result<Bytes, XdrError> {
        self.take(len).map(Bytes::copy_from_slice)
    }

    /// A reader over `copy` with this reader's length limit, whose
    /// [`get_opaque_bytes`](Self::get_opaque_bytes) hands out views of `copy`.
    pub(crate) fn over_copy<'b>(&self, copy: &'b Bytes) -> XdrReader<'b> {
        XdrReader { buf: copy, pos: 0, length_limit: self.length_limit, frame: Some(copy) }
    }

    /// Decodes `len` bytes of fixed-length opaque data plus padding.
    pub fn get_fixed_opaque(&mut self, len: usize) -> Result<&'a [u8], XdrError> {
        let data = self.take(len)?;
        let pad = self.take(pad4(len))?;
        if pad.iter().any(|&b| b != 0) {
            return Err(XdrError::NonZeroPadding);
        }
        Ok(data)
    }

    /// Decodes a UTF-8 string.
    pub fn get_string(&mut self) -> Result<String, XdrError> {
        self.get_str().map(str::to_owned)
    }

    /// Decodes a UTF-8 string as a borrow of the input.
    pub fn get_str(&mut self) -> Result<&'a str, XdrError> {
        std::str::from_utf8(self.get_opaque()?).map_err(|_| XdrError::InvalidUtf8)
    }

    /// Decodes an array length prefix, applying the length limit and
    /// bounding the count against the bytes actually left.
    ///
    /// Every XDR array element occupies at least one 4-byte word, so a
    /// count beyond `remaining() / 4` cannot be satisfied by any suffix of
    /// the frame — a corrupt prefix must not become a giant
    /// `Vec::with_capacity`.
    pub fn get_array_len(&mut self) -> Result<usize, XdrError> {
        let len = self.get_u32()?;
        let n = self.check_len(len)?;
        if n > self.remaining() / 4 {
            return Err(XdrError::Truncated { needed: n * 4, available: self.remaining() });
        }
        Ok(n)
    }

    /// Decodes a counted array of fixed-width big-endian items. The count is
    /// checked by [`get_array_len`](Self::get_array_len) and all `n * N`
    /// bytes are claimed at once — a count the remaining input cannot
    /// satisfy is `Truncated` before anything is allocated — then converted
    /// in one exactly-sized, vectorisable pass.
    pub(crate) fn get_array_of<T, const N: usize>(
        &mut self,
        from_be_bytes: impl Fn([u8; N]) -> T,
    ) -> Result<Vec<T>, XdrError> {
        let n = self.get_array_len()?;
        let bytes = self.take(n.saturating_mul(N))?;
        Ok(bytes
            .chunks_exact(N)
            .map(|chunk| {
                let mut word = [0u8; N];
                word.copy_from_slice(chunk);
                from_be_bytes(word)
            })
            .collect())
    }

    /// Decodes a *trailing extension*: the backward-compatible way to append
    /// optional data to the end of a message.
    ///
    /// Returns `None` when the reader is already at end of input — a legacy
    /// frame encoded before the extension existed. Otherwise reads a `u32`
    /// version word followed by an opaque payload; callers decode payloads of
    /// versions they know and ignore the rest, so old decoders skip new
    /// extensions and new decoders accept old frames. Must be the last field
    /// read (anything after it would be indistinguishable from the
    /// extension's absence).
    pub fn get_trailing_extension(&mut self) -> Result<Option<(u32, &'a [u8])>, XdrError> {
        if self.is_empty() {
            return Ok(None);
        }
        let version = self.get_u32()?;
        let payload = self.get_opaque()?;
        Ok(Some((version, payload)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncated_read_reports_needs() {
        let mut r = XdrReader::new(&[0, 0]);
        let err = r.get_u32().unwrap_err();
        assert_eq!(err, XdrError::Truncated { needed: 4, available: 2 });
        // Past the end of the address space: refused, not overflowed.
        r.pos = 1;
        let err = r.take(usize::MAX).unwrap_err();
        assert_eq!(err, XdrError::Truncated { needed: usize::MAX, available: 1 });
    }

    #[test]
    fn bool_rejects_other_words() {
        let mut r = XdrReader::new(&[0, 0, 0, 2]);
        assert_eq!(r.get_bool().unwrap_err(), XdrError::InvalidBool(2));
    }

    #[test]
    fn opaque_rejects_nonzero_padding() {
        // length 1, byte 0xAA, padding 0x01 0x00 0x00 — invalid.
        let mut r = XdrReader::new(&[0, 0, 0, 1, 0xAA, 1, 0, 0]);
        assert_eq!(r.get_opaque().unwrap_err(), XdrError::NonZeroPadding);
    }

    #[test]
    fn length_limit_is_enforced() {
        let mut r = XdrReader::with_length_limit(&[0xff, 0xff, 0xff, 0xff], 16);
        let err = r.get_opaque().unwrap_err();
        assert!(matches!(err, XdrError::LengthOverflow { declared: 0xffff_ffff, limit: 16 }));
    }

    #[test]
    fn string_rejects_invalid_utf8() {
        let mut r = XdrReader::new(&[0, 0, 0, 2, 0xC3, 0x28, 0, 0]);
        assert_eq!(r.get_string().unwrap_err(), XdrError::InvalidUtf8);
    }

    #[test]
    fn position_tracks_consumption() {
        let mut r = XdrReader::new(&[0, 0, 0, 1, 0, 0, 0, 2]);
        assert_eq!(r.position(), 0);
        r.get_u32().unwrap();
        assert_eq!(r.position(), 4);
        assert_eq!(r.remaining(), 4);
    }

    #[test]
    fn floats_round_trip_via_bits() {
        let expected = 2.5f32;
        let bytes = expected.to_bits().to_be_bytes();
        let mut r = XdrReader::new(&bytes);
        assert_eq!(r.get_f32().unwrap(), expected);
    }

    #[test]
    fn adversarial_opaque_length_is_rejected_up_front() {
        // Declared length 0xFFFF is under the default limit but the frame
        // only carries 4 more bytes; the prefix itself must be the error.
        let mut r = XdrReader::new(&[0, 0, 0xff, 0xff, 1, 2, 3, 4]);
        let err = r.get_opaque().unwrap_err();
        assert_eq!(err, XdrError::Truncated { needed: 0xffff, available: 4 });
        // Nothing past the prefix was consumed.
        assert_eq!(r.position(), 4);
    }

    #[test]
    fn adversarial_array_count_is_rejected_up_front() {
        // 8 declared elements fit the byte-count check (8 bytes remain) but
        // cannot fit 8 words; the reader must not hand callers a count they
        // would turn into a large reservation.
        let mut r = XdrReader::new(&[0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0, 0]);
        let err = r.get_array_len().unwrap_err();
        assert_eq!(err, XdrError::Truncated { needed: 32, available: 8 });
    }

    #[test]
    fn opaque_bytes_are_views_over_a_frame_and_copies_over_a_slice() {
        let mut w = crate::XdrWriter::new();
        w.put_u32(7);
        w.put_opaque(b"abcde");
        w.put_opaque(b"");
        let frame = w.finish();

        let mut r = XdrReader::over_frame(&frame);
        assert_eq!(r.get_u32().unwrap(), 7);
        let view = r.get_opaque_bytes().unwrap();
        assert_eq!(&view[..], b"abcde");
        assert_eq!(view.as_ptr(), frame[8..].as_ptr(), "a view shares the frame's storage");
        assert!(r.get_opaque_bytes().unwrap().is_empty());
        assert!(r.is_empty());

        let mut r = XdrReader::new(&frame);
        r.get_u32().unwrap();
        let copy = r.get_opaque_bytes().unwrap();
        assert_eq!(&copy[..], b"abcde");
        assert_ne!(copy.as_ptr(), frame[8..].as_ptr());
    }

    #[test]
    fn opaque_bytes_apply_the_same_checks_as_opaque() {
        let lying = Bytes::from(vec![0, 0, 0xff, 0xff, 1, 2, 3, 4]);
        assert_eq!(
            XdrReader::over_frame(&lying).get_opaque_bytes().unwrap_err(),
            XdrError::Truncated { needed: 0xffff, available: 4 }
        );
        let padded = Bytes::from(vec![0, 0, 0, 1, 0xAA, 1, 0, 0]);
        assert_eq!(
            XdrReader::over_frame(&padded).get_opaque_bytes().unwrap_err(),
            XdrError::NonZeroPadding
        );
    }

    #[test]
    fn limit_check_precedes_remaining_check() {
        // A wildly overlong prefix still reports LengthOverflow, not
        // Truncated, so operators can tell policy rejections from framing.
        let mut r = XdrReader::with_length_limit(&[0xff, 0xff, 0xff, 0xff], 16);
        assert!(matches!(r.get_opaque().unwrap_err(), XdrError::LengthOverflow { .. }));
    }
}
