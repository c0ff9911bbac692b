//! Field forms: how one field of a described record travels.
//!
//! A field declared `name: T` in [`xdr_struct!`](crate::xdr_struct) or
//! [`xdr_union!`](crate::xdr_union) uses `T`'s own codec; `name: T as Form`
//! names one of the forms below. Like the primitives in `traits.rs`, these
//! are the vocabulary descriptions are written in — the only place where the
//! two directions of a layout are spelled out by hand.

use std::marker::PhantomData;
use std::ops::Deref;

use bytes::Bytes;

use crate::traits::opaque_len;
use crate::{InlineList, XdrDecode, XdrEncode, XdrError, XdrReader, XdrWriter};

/// The codec of one record field whose in-memory type is `T`.
pub trait FieldCodec<T> {
    /// Whether a decoder knows where the field ends. False only for
    /// [`Extension`], which must therefore be its record's last field.
    const SELF_DELIMITING: bool = true;

    /// Whether what the field carries is self-delimiting (see
    /// [`XdrDecode::SELF_DELIMITING`]): a record that ends in an extension
    /// is a whole frame, never a field or an element of another. Checked
    /// where the field is declared, apart from `SELF_DELIMITING` so that a
    /// record which contains itself (through a `Box` or an [`Array`]) does
    /// not define the one constant in terms of itself.
    const CONTENT_DELIMITED: bool = true;

    /// Appends the field's encoding to `w`.
    fn encode(value: &T, w: &mut XdrWriter);

    /// Exactly the number of bytes [`encode`](Self::encode) appends.
    fn encoded_len(value: &T) -> usize;

    /// Reads the field from `r`.
    fn decode(r: &mut XdrReader<'_>) -> Result<T, XdrError>;

    /// Steps over the field as [`XdrDecode::skip`] steps over a value.
    fn skip(r: &mut XdrReader<'_>) -> Result<(), XdrError> {
        Self::decode(r).map(drop)
    }
}

/// The default form: the field travels as its own type does.
impl<T: XdrEncode + XdrDecode> FieldCodec<T> for T {
    const CONTENT_DELIMITED: bool = T::SELF_DELIMITING;

    fn encode(value: &T, w: &mut XdrWriter) {
        value.encode(w);
    }

    fn encoded_len(value: &T) -> usize {
        value.encoded_len()
    }

    fn decode(r: &mut XdrReader<'_>) -> Result<T, XdrError> {
        T::decode(r)
    }

    fn skip(r: &mut XdrReader<'_>) -> Result<(), XdrError> {
        T::skip(r)
    }
}

/// Opaque data decoded as a view sharing the received frame's storage (see
/// [`XdrReader::get_opaque_bytes`]) where a plain `Bytes` field is copied
/// out. A view keeps the whole frame alive for as long as it lives: right
/// for a message body, which is most of the frame and is transformed in
/// place, wrong for a few bytes of metadata that may be retained. On the way
/// out it is the mirror image: a [gathering](XdrWriter::gathering) writer
/// keeps a large body as a part of its own instead of copying it in.
pub struct FrameView;

impl FieldCodec<Bytes> for FrameView {
    #[inline]
    fn encode(value: &Bytes, w: &mut XdrWriter) {
        w.put_opaque_bytes(value);
    }

    #[inline]
    fn encoded_len(value: &Bytes) -> usize {
        value.encoded_len()
    }

    #[inline]
    fn decode(r: &mut XdrReader<'_>) -> Result<Bytes, XdrError> {
        r.get_opaque_bytes()
    }

    fn skip(r: &mut XdrReader<'_>) -> Result<(), XdrError> {
        r.get_opaque().map(drop)
    }
}

/// A string held as [`Bytes`] and decoded as [`FrameView`] decodes opaque
/// data — a view where the reader has a frame, a copy otherwise — once it
/// has checked that the bytes are UTF-8. For a name that is compared, not
/// read as text, and should cost no allocation to hand on.
pub struct TextView;

impl FieldCodec<Bytes> for TextView {
    fn encode(value: &Bytes, w: &mut XdrWriter) {
        w.put_opaque(value);
    }

    fn encoded_len(value: &Bytes) -> usize {
        value.encoded_len()
    }

    fn decode(r: &mut XdrReader<'_>) -> Result<Bytes, XdrError> {
        r.get_str_bytes()
    }

    fn skip(r: &mut XdrReader<'_>) -> Result<(), XdrError> {
        r.get_str().map(drop)
    }
}

/// A field in form `F` whose decoded views share one copy of the field's own
/// bytes, never the frame: the decoder steps over the field first
/// ([`FieldCodec::skip`], which allocates nothing for views and arrays of
/// records of them), copies what it spanned out of the
/// input as one buffer, then decodes `F` over that copy. A few bytes of
/// metadata retained by whoever reads them then keep that copy alive, not a
/// payload-sized frame; and the frame's other views — a body — remain the
/// frame's only owners. On the wire the form is `F` itself.
pub struct Detached<F>(PhantomData<F>);

impl<T, F: FieldCodec<T>> FieldCodec<T> for Detached<F> {
    const SELF_DELIMITING: bool = F::SELF_DELIMITING;
    const CONTENT_DELIMITED: bool = F::CONTENT_DELIMITED;

    fn encode(value: &T, w: &mut XdrWriter) {
        F::encode(value, w);
    }

    fn encoded_len(value: &T) -> usize {
        F::encoded_len(value)
    }

    fn decode(r: &mut XdrReader<'_>) -> Result<T, XdrError> {
        let mut ahead = r.clone();
        F::skip(&mut ahead)?;
        let copy = r.copy_out(ahead.position() - r.position())?;
        let mut inner = r.over_copy(&copy);
        let value = F::decode(&mut inner)?;
        match inner.remaining() {
            0 => Ok(value),
            n => Err(XdrError::TrailingBytes(n)),
        }
    }
}

/// A counted array of records: a length word, then the elements — held in
/// a `Vec`, or in an [`InlineList`] when the array is short in practice.
///
/// The one array policy: a count above `MAX` is refused before any element
/// is decoded or any memory reserved (the reader has already refused a count
/// the rest of the input cannot hold); an accepted count reserves at most
/// [`ARRAY_RESERVE`] elements up front, so what a decoder allocates ahead of
/// the bytes it has actually read is a constant. Without `<MAX>` only the
/// input's own size bounds the count.
pub struct Array<const MAX: usize = { usize::MAX }>;

/// Most elements an [`Array`] reserves before it has decoded them.
pub const ARRAY_RESERVE: usize = 64;

/// What an [`Array`] holds its elements in: a `Vec`, or an [`InlineList`].
pub trait Elements: Deref<Target = [Self::Item]> {
    /// The element type.
    type Item;
    /// An empty list with room for `cap` elements.
    fn with_capacity(cap: usize) -> Self;
    /// Appends `item`.
    fn push(&mut self, item: Self::Item);
}

impl<T> Elements for Vec<T> {
    type Item = T;
    fn with_capacity(cap: usize) -> Self {
        Vec::with_capacity(cap)
    }
    fn push(&mut self, item: T) {
        Vec::push(self, item);
    }
}

impl<T: Default, const N: usize> Elements for InlineList<T, N> {
    type Item = T;
    fn with_capacity(cap: usize) -> Self {
        InlineList::with_capacity(cap)
    }
    fn push(&mut self, item: T) {
        InlineList::push(self, item);
    }
}

impl<const MAX: usize> Array<MAX> {
    /// The count word, refused above `MAX`.
    fn count(r: &mut XdrReader<'_>) -> Result<usize, XdrError> {
        let n = r.get_array_len()?;
        if n > MAX {
            return Err(XdrError::LengthOverflow { declared: n as u64, limit: MAX as u64 });
        }
        Ok(n)
    }
}

impl<L, const MAX: usize> FieldCodec<L> for Array<MAX>
where
    L: Elements,
    L::Item: XdrEncode + XdrDecode,
{
    const CONTENT_DELIMITED: bool = <L::Item as XdrDecode>::SELF_DELIMITING;

    fn encode(value: &L, w: &mut XdrWriter) {
        w.put_array_len(value.len());
        for element in value.iter() {
            element.encode(w);
        }
    }

    fn encoded_len(value: &L) -> usize {
        4 + value.iter().map(XdrEncode::encoded_len).sum::<usize>()
    }

    fn decode(r: &mut XdrReader<'_>) -> Result<L, XdrError> {
        let n = Self::count(r)?;
        let mut out = L::with_capacity(n.min(ARRAY_RESERVE));
        for _ in 0..n {
            out.push(<L::Item as XdrDecode>::decode(r)?);
        }
        Ok(out)
    }

    fn skip(r: &mut XdrReader<'_>) -> Result<(), XdrError> {
        let n = Self::count(r)?;
        (0..n).try_for_each(|_| <L::Item as XdrDecode>::skip(r))
    }
}

/// A foreign type (one this crate's traits cannot be implemented for where
/// the field is declared) carried as a local record `M` that mirrors it:
/// `M: From<&T>` on the way out, `T: From<M>` on the way in. The mirror is
/// built per use, so mirrored types should be cheap to copy.
pub struct Mirror<M>(PhantomData<M>);

impl<T, M> FieldCodec<T> for Mirror<M>
where
    M: XdrEncode + XdrDecode + for<'a> From<&'a T> + Into<T>,
{
    const CONTENT_DELIMITED: bool = M::SELF_DELIMITING;

    fn encode(value: &T, w: &mut XdrWriter) {
        M::from(value).encode(w);
    }

    fn encoded_len(value: &T) -> usize {
        M::from(value).encoded_len()
    }

    fn decode(r: &mut XdrReader<'_>) -> Result<T, XdrError> {
        M::decode(r).map(Into::into)
    }
}

/// An optional field appended after a message's last original field as a
/// *trailing extension* — a version word and an opaque payload in form `F`
/// (see [`XdrWriter::put_trailing_extension`]). `None` writes nothing, so
/// the frame is byte-identical to one from before the field existed; end of
/// input reads as `None`, as does a version other than `VERSION`, whose
/// payload is skipped whole; a payload of this version that does not decode
/// is an error, not a silent `None`.
///
/// Reading "until the input ends" is why the form is not self-delimiting:
/// nothing can follow it, in its record or — a record that ends in one
/// being a whole frame — in any other.
pub struct Extension<const VERSION: u32, F>(PhantomData<F>);

impl<T, F: FieldCodec<T>, const VERSION: u32> FieldCodec<Option<T>> for Extension<VERSION, F> {
    const SELF_DELIMITING: bool = false;

    fn encode(value: &Option<T>, w: &mut XdrWriter) {
        if let Some(v) = value {
            w.put_trailing_extension(VERSION, F::encoded_len(v), |w| F::encode(v, w));
        }
    }

    fn encoded_len(value: &Option<T>) -> usize {
        value.as_ref().map_or(0, |v| 4 + opaque_len(F::encoded_len(v)))
    }

    fn decode(r: &mut XdrReader<'_>) -> Result<Option<T>, XdrError> {
        match r.get_trailing_extension()? {
            Some((version, payload)) if version == VERSION => {
                F::decode(&mut XdrReader::new(payload)).map(Some)
            }
            _ => Ok(None),
        }
    }
}

/// Whether a record whose fields' forms have these `SELF_DELIMITING` flags is
/// itself self-delimiting — and the compile-time check that only its last
/// field may fail to be.
#[doc(hidden)]
pub const fn ends_delimited(mut fields: &[bool]) -> bool {
    while let [first, rest @ ..] = fields {
        if rest.is_empty() {
            return *first;
        }
        assert!(*first, "a trailing extension must be the last field of its record");
        fields = rest;
    }
    true
}

#[cfg(test)]
mod tests {
    use bytes::Bytes;

    use super::{Array, Detached, FrameView, TextView};
    use crate::{xdr_struct, XdrDecode, XdrEncode, XdrError, XdrReader, XdrWriter};

    xdr_struct! {
        #[derive(Debug, Clone, PartialEq)]
        struct Tag {
            name: Bytes as TextView,
            value: Bytes as FrameView,
        }
    }

    xdr_struct! {
        #[derive(Debug, Clone, PartialEq)]
        struct Message {
            id: u32,
            tags: Vec<Tag> as Detached<Array<4>>,
            body: Bytes as FrameView,
        }
    }

    fn message() -> Message {
        let tag = |name: &'static str, value: &'static [u8]| Tag {
            name: name.into(),
            value: Bytes::from_static(value),
        };
        Message {
            id: 7,
            tags: vec![tag("nonce", &[1, 2, 3]), tag("", &[]), tag("mac", &[9; 8])],
            body: Bytes::from(vec![5u8; 64]),
        }
    }

    fn encode(m: &Message) -> Bytes {
        let mut w = XdrWriter::new();
        m.encode(&mut w);
        w.finish()
    }

    fn within(view: &Bytes, of: &Bytes) -> bool {
        let (lo, at) = (of.as_ptr() as usize, view.as_ptr() as usize);
        lo <= at && at + view.len() <= lo + of.len()
    }

    /// The detached field's views share one copy of its bytes: the frame's
    /// other views are left its only owners.
    #[test]
    fn a_detached_field_is_views_of_one_copy_of_its_own_bytes() {
        let sent = message();
        let frame = encode(&sent);
        assert_eq!(frame.len(), sent.encoded_len());
        let mut back = Message::decode(&mut XdrReader::over_frame(&frame)).unwrap();
        assert_eq!(back, sent);
        assert!(within(&back.body, &frame));
        let (first, last) = (&back.tags[0], &back.tags[2]);
        assert!(!within(&first.name, &frame) && !within(&last.value, &frame));
        // "nonce" and the value of "mac" lie where the encoding put them,
        // in one buffer.
        let span = last.value.as_ptr() as usize - first.name.as_ptr() as usize;
        assert_eq!(span, (8 + 8) + (4 + 4) + (4 + 4 + 4));
        drop(frame);
        assert!(back.body.unique_mut().is_some(), "the tags pin the frame");
        // Over a plain slice the same bytes decode the same way.
        let plain = Message::decode(&mut XdrReader::new(&encode(&sent))).unwrap();
        assert_eq!(plain, sent);
    }

    #[test]
    fn a_detached_field_is_refused_before_it_is_copied() {
        let mut five = message();
        five.tags.extend(five.tags.clone());
        let frame = encode(&five);
        assert_eq!(
            Message::decode(&mut XdrReader::over_frame(&frame)).unwrap_err(),
            XdrError::LengthOverflow { declared: 6, limit: 4 }
        );
        // A name that is not UTF-8: the step over it refuses it too.
        let mut bad = encode(&message()).to_vec();
        let at = 4 + 4 + 4; // id, tag count, the first name's length
        bad[at] = 0xFF;
        assert_eq!(
            Message::decode(&mut XdrReader::new(&bad)).unwrap_err(),
            XdrError::InvalidUtf8
        );
        assert_eq!(Tag::skip(&mut XdrReader::new(&bad[8..])).unwrap_err(), XdrError::InvalidUtf8);
        // Cut inside the tags: truncated, whatever the form.
        let cut = encode(&message()).slice(..20);
        assert!(matches!(
            Message::decode(&mut XdrReader::over_frame(&cut)).unwrap_err(),
            XdrError::Truncated { .. }
        ));
    }

    /// `skip` consumes exactly what `decode` does, through a record's
    /// fields in every form.
    #[test]
    fn skip_steps_over_exactly_what_decode_reads() {
        let frame = encode(&message());
        let mut skipped = XdrReader::new(&frame);
        Message::skip(&mut skipped).unwrap();
        assert!(skipped.is_empty());
    }
}
