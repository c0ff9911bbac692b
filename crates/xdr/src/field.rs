//! Field forms: how one field of a described record travels.
//!
//! A field declared `name: T` in [`xdr_struct!`](crate::xdr_struct) or
//! [`xdr_union!`](crate::xdr_union) uses `T`'s own codec; `name: T as Form`
//! names one of the forms below. Like the primitives in `traits.rs`, these
//! are the vocabulary descriptions are written in — the only place where the
//! two directions of a layout are spelled out by hand.

use std::marker::PhantomData;

use bytes::Bytes;

use crate::traits::opaque_len;
use crate::{XdrDecode, XdrEncode, XdrError, XdrReader, XdrWriter};

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
}

/// Opaque data decoded as a view sharing the received frame's storage (see
/// [`XdrReader::get_opaque_bytes`]) where a plain `Bytes` field is copied
/// out. A view keeps the whole frame alive for as long as it lives: right
/// for a message body, which is most of the frame and is transformed in
/// place, wrong for a few bytes of metadata that may be retained.
pub struct FrameView;

impl FieldCodec<Bytes> for FrameView {
    #[inline]
    fn encode(value: &Bytes, w: &mut XdrWriter) {
        w.put_opaque(value);
    }

    #[inline]
    fn encoded_len(value: &Bytes) -> usize {
        value.encoded_len()
    }

    #[inline]
    fn decode(r: &mut XdrReader<'_>) -> Result<Bytes, XdrError> {
        r.get_opaque_bytes()
    }
}

/// A counted array of records: a length word, then the elements.
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

impl<T: XdrEncode + XdrDecode, const MAX: usize> FieldCodec<Vec<T>> for Array<MAX> {
    const CONTENT_DELIMITED: bool = T::SELF_DELIMITING;

    fn encode(value: &Vec<T>, w: &mut XdrWriter) {
        w.put_array_len(value.len());
        for element in value {
            element.encode(w);
        }
    }

    fn encoded_len(value: &Vec<T>) -> usize {
        4 + value.iter().map(T::encoded_len).sum::<usize>()
    }

    fn decode(r: &mut XdrReader<'_>) -> Result<Vec<T>, XdrError> {
        let n = r.get_array_len()?;
        if n > MAX {
            return Err(XdrError::LengthOverflow { declared: n as u64, limit: MAX as u64 });
        }
        let mut out = Vec::with_capacity(n.min(ARRAY_RESERVE));
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
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
