use std::cell::Cell;

use bytes::{BufMut, Bytes, BytesMut};

use crate::pad4;

/// Opaque data of at least this many bytes is gathered, not copied, by a
/// [gathering](XdrWriter::gathering) writer: below it, one more part to write
/// out costs more than the copy it saves.
pub const GATHER_MIN: usize = 4 * 1024;

/// The largest buffer a thread keeps as its spare (see
/// [`reused`](XdrWriter::reused)): the paper's largest array, 2^20 ints,
/// encoded, with a page to spare for the words around it. A larger buffer
/// is dropped when it comes back.
pub const SPARE_MAX: usize = (4 << 20) + 4096;

thread_local! {
    /// The buffer of a body this thread finished with: empty, and never
    /// larger than [`SPARE_MAX`].
    static SPARE: Cell<BytesMut> = Cell::new(BytesMut::new());
}

/// Keeps `buf`, emptied, as the calling thread's spare, unless the spare it
/// has is at least as large or `buf` is larger than [`SPARE_MAX`].
fn keep(mut buf: BytesMut) {
    if buf.capacity() > SPARE_MAX {
        return;
    }
    buf.clear();
    let _ = SPARE.try_with(|spare| {
        let had = spare.take();
        spare.set(if had.capacity() >= buf.capacity() { had } else { buf });
    });
}

/// Append-only XDR encoder.
///
/// All `put_*` methods keep the stream 4-byte aligned. `finish` hands back the
/// accumulated buffer as cheaply-cloneable [`Bytes`], which is what the
/// transport layer frames onto the wire.
#[derive(Debug, Default)]
pub struct XdrWriter {
    buf: BytesMut,
    /// Whether [`put_opaque_bytes`](Self::put_opaque_bytes) may leave an
    /// opaque's bytes where they are.
    gathers: bool,
    /// The one opaque left where it is: the offset in `buf` its bytes belong
    /// at (right after its length word, before its padding), and a handle to
    /// them.
    gathered: Option<(usize, Bytes)>,
}

impl XdrWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a writer with `cap` bytes pre-reserved — use when the encoded
    /// size is predictable (e.g. fixed-size array payloads) to avoid regrowth.
    pub fn with_capacity(cap: usize) -> Self {
        Self { buf: BytesMut::with_capacity(cap), ..Self::default() }
    }

    /// Creates an empty writer over the calling thread's spare buffer, which
    /// it takes: a writer whose body leaves the thread, and whose buffer
    /// comes back through [`recycle`](Self::recycle) or
    /// [`discard`](Self::discard), so the thread's next such writer starts
    /// with room for it. Starts with no room when the thread has no spare —
    /// in particular while an earlier writer of its, further up the stack,
    /// holds it.
    pub fn reused() -> Self {
        Self { buf: SPARE.try_with(Cell::take).unwrap_or_default(), ..Self::default() }
    }

    /// Keeps the buffer of `body` — a finished writer's bytes, sent — as the
    /// calling thread's spare for [`reused`](Self::reused), with the shared
    /// handle the next writer's [`finish`](Self::finish) freezes it in, if
    /// `body` is its sole owner, it is no larger than [`SPARE_MAX`] and the
    /// thread's spare is smaller. Otherwise only drops this handle: a buffer
    /// another handle still reads is never written again.
    pub fn recycle(body: Bytes) {
        if let Ok(buf) = body.try_into_mut() {
            keep(buf);
        }
    }

    /// Drops what was encoded, unsent, keeping the buffer as
    /// [`recycle`](Self::recycle) keeps a body's.
    pub fn discard(self) {
        keep(self.buf);
    }

    /// Creates an empty writer that gathers: the first opaque of
    /// [`GATHER_MIN`] bytes or more given to
    /// [`put_opaque_bytes`](Self::put_opaque_bytes) is not copied in, only a
    /// handle to it kept. Read such a writer through [`parts`](Self::parts)
    /// or [`finish`](Self::finish).
    pub fn gathering() -> Self {
        Self { gathers: true, ..Self::default() }
    }

    /// Number of bytes encoded so far, gathered ones included. Always a
    /// multiple of 4.
    pub fn len(&self) -> usize {
        self.buf.len() + self.gathered.as_ref().map_or(0, |(_, data)| data.len())
    }

    /// True when nothing has been encoded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes the writer's own buffer holds room for: what keeping it costs.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Borrows the bytes encoded so far without consuming the writer. Used
    /// when an already-encoded body must be embedded into an outer frame.
    /// A writer that gathered an opaque holds its bytes in more than one
    /// place: read that one through [`parts`](Self::parts).
    pub fn peek(&self) -> &[u8] {
        debug_assert!(self.gathered.is_none(), "peek at a writer that gathered");
        &self.buf
    }

    /// The bytes encoded so far as the three parts they are held in: the
    /// buffer up to a gathered opaque, the opaque's own bytes, and the rest
    /// of the buffer — the last two empty when nothing was gathered. Their
    /// concatenation is what [`finish`](Self::finish) returns.
    pub fn parts(&self) -> [&[u8]; 3] {
        match &self.gathered {
            None => [&self.buf, &[], &[]],
            Some((at, data)) => {
                let head = self.buf.get(..*at).unwrap_or_default();
                [head, data, self.buf.get(*at..).unwrap_or_default()]
            }
        }
    }

    /// Empties the writer, keeping its buffer's capacity for reuse and
    /// dropping its handle to a gathered opaque.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.gathered = None;
    }

    /// Consumes the writer, returning the encoded bytes: the same buffer,
    /// adopted by the `Bytes`, not a copy of it — in the handle it came back
    /// in, for a [`reused`](Self::reused) buffer, so allocating nothing. A gathered opaque is copied
    /// into its place in that buffer here.
    pub fn finish(mut self) -> Bytes {
        debug_assert_eq!(self.len() % 4, 0, "XDR stream must stay 4-byte aligned");
        if let Some((at, data)) = self.gathered.take() {
            // Appended, then rotated ahead of what was encoded after it.
            let after = self.buf.len() - at;
            self.buf.extend_from_slice(&data);
            if let Some(moved) = self.buf.get_mut(at..) {
                moved.rotate_left(after);
            }
        }
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

    /// [`put_opaque`](Self::put_opaque) for data held as [`Bytes`]. A
    /// [gathering](Self::gathering) writer leaves the first such opaque of
    /// [`GATHER_MIN`] bytes or more where it is, keeping a handle to it;
    /// any other is copied in.
    pub fn put_opaque_bytes(&mut self, data: &Bytes) {
        if !self.gathers || data.len() < GATHER_MIN || self.gathered.is_some() {
            return self.put_opaque(data);
        }
        self.put_u32(data.len() as u32);
        self.gathered = Some((self.buf.len(), data.clone()));
        self.pad(data.len());
    }

    /// Encodes fixed-length opaque data (no length prefix), padded to 4 bytes.
    /// The decoder must know the length out of band.
    pub fn put_fixed_opaque(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
        self.pad(data.len());
    }

    /// The zero padding that follows `len` bytes of opaque data.
    fn pad(&mut self, len: usize) {
        for _ in 0..pad4(len) {
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

    /// A gathering writer keeps one large opaque as a handle, copies the
    /// rest, and joins to the bytes a plain writer encodes.
    #[test]
    fn a_gathered_opaque_is_a_part_of_its_own_and_finish_joins_it() {
        let large = Bytes::from(vec![7u8; GATHER_MIN + 1]);
        let second = Bytes::from(vec![9u8; GATHER_MIN]);
        let encode = |w: &mut XdrWriter| {
            w.put_u32(1);
            w.put_opaque_bytes(&Bytes::from_static(b"small"));
            w.put_opaque_bytes(&large);
            w.put_opaque_bytes(&second);
            w.put_u32(2);
        };
        let mut plain = XdrWriter::new();
        encode(&mut plain);
        let mut gathering = XdrWriter::gathering();
        encode(&mut gathering);
        assert_eq!(gathering.len(), plain.len());

        let [head, data, tail] = gathering.parts();
        assert_eq!(data.as_ptr(), large.as_ptr(), "the first large opaque is not copied");
        assert_eq!(head.len(), 4 + 12 + 4);
        assert_eq!(tail.len(), 3 + 4 + GATHER_MIN + 4, "its padding, then the copied rest");
        assert_eq!([head, data, tail].concat(), plain.peek());
        assert_eq!(gathering.finish(), plain.finish());

        let mut cleared = XdrWriter::gathering();
        encode(&mut cleared);
        cleared.clear();
        assert!(cleared.is_empty());
        assert_eq!(cleared.parts(), [&[][..], &[], &[]], "clearing drops the handle");
    }

    /// A thread keeps one spare, the larger of the buffers it got back, and
    /// none larger than `SPARE_MAX` or still shared.
    #[test]
    fn a_thread_keeps_the_larger_sole_owned_buffer_up_to_the_limit() {
        let finished = |cap: usize| {
            let mut w = XdrWriter::with_capacity(cap);
            w.put_u32(7);
            w.finish()
        };
        assert_eq!(XdrWriter::reused().capacity(), 0, "no spare yet");

        XdrWriter::recycle(finished(256));
        XdrWriter::recycle(finished(64));
        let w = XdrWriter::reused();
        assert_eq!((w.capacity(), w.len()), (256, 0), "the larger one, emptied");
        assert_eq!(XdrWriter::reused().capacity(), 0, "taken, not shared");
        w.discard();
        assert_eq!(XdrWriter::reused().capacity(), 256, "a discarded writer's buffer is kept");

        let shared = finished(128);
        let other = shared.clone();
        XdrWriter::recycle(shared);
        assert_eq!(&other[..], &[0, 0, 0, 7]);
        XdrWriter::recycle(finished(SPARE_MAX + 1));
        assert_eq!(XdrWriter::reused().capacity(), 0, "neither a shared nor an oversized one");
    }

    #[test]
    fn with_capacity_does_not_change_contents() {
        let mut w = XdrWriter::with_capacity(64);
        w.put_string("hi");
        let b = w.finish();
        assert_eq!(&b[..], &[0, 0, 0, 2, b'h', b'i', 0, 0]);
    }
}
