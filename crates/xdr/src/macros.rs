//! Declarative XDR codecs: one description of a message generates its
//! `encode`, its `decode` and its exact `encoded_len`, so the three cannot
//! disagree. Field forms are in [`crate::field`](crate::FieldCodec).

/// Declares a record and implements [`XdrEncode`](crate::XdrEncode) and
/// [`XdrDecode`](crate::XdrDecode) for it, field by field in declaration
/// order — the XDR convention for records.
///
/// ```
/// use ohpc_xdr::{xdr_struct, encode_to_vec, decode_from_slice, XdrEncode};
///
/// xdr_struct! {
///     /// A gridded observation.
///     #[derive(Debug, Clone, PartialEq)]
///     pub struct Observation {
///         pub region: String,
///         pub samples: Vec<f64>,
///         pub quality: u32,
///     }
/// }
///
/// let obs = Observation { region: "midwest".into(), samples: vec![1.0], quality: 3 };
/// let bytes = encode_to_vec(&obs);
/// assert_eq!(bytes.len(), obs.encoded_len());
/// assert_eq!(decode_from_slice::<Observation>(&bytes).unwrap(), obs);
/// ```
///
/// A field travels as its type does unless it names a form with `as`
/// ([`FrameView`](crate::FrameView), [`TextView`](crate::TextView),
/// [`Array`](crate::Array), [`Detached`](crate::Detached),
/// [`Mirror`](crate::Mirror), [`Extension`](crate::Extension)); a newtype is
/// declared `struct Id(pub u64);` and travels as its content.
///
/// ```
/// use ohpc_xdr::{xdr_struct, decode_from_slice, encode_to_vec, Array, Extension};
///
/// xdr_struct! {
///     #[derive(Debug, PartialEq)]
///     struct Hop(pub u32);
/// }
/// xdr_struct! {
///     #[derive(Debug, PartialEq)]
///     struct Route {
///         hops: Vec<Hop> as Array<8>,
///         // Added in a later release: absent from old frames, ignored by old decoders.
///         note: Option<String> as Extension<1, String>,
///     }
/// }
///
/// let old = Route { hops: vec![Hop(7)], note: None };
/// assert_eq!(encode_to_vec(&old), [0, 0, 0, 1, 0, 0, 0, 7]);
/// let new = Route { hops: vec![], note: Some("via lab".into()) };
/// assert_eq!(decode_from_slice::<Route>(&encode_to_vec(&new)).unwrap(), new);
/// // Nine hops are one too many, whatever follows.
/// assert!(decode_from_slice::<Route>(&encode_to_vec(&vec![0u32; 9])).is_err());
/// ```
///
/// A trailing extension reads to the end of the input, so a field declared
/// after it could never be told from it. That does not compile:
///
/// ```compile_fail,E0080
/// use ohpc_xdr::{xdr_struct, Extension};
///
/// xdr_struct! {
///     struct Route {
///         note: Option<String> as Extension<1, String>,
///         checksum: u64,
///     }
/// }
/// ```
///
/// Nor does a record that ends in one make an array element (or any field
/// but the last):
///
/// ```compile_fail,E0080
/// use ohpc_xdr::{xdr_struct, Array, Extension};
///
/// xdr_struct! {
///     struct Leg {
///         distance: u32,
///         note: Option<String> as Extension<1, String>,
///     }
/// }
/// xdr_struct! {
///     struct Route {
///         legs: Vec<Leg> as Array<8>,
///     }
/// }
/// ```
#[macro_export]
macro_rules! xdr_struct {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* $fvis:vis $field:ident : $ty:ty $(as $form:ty)? ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$fmeta])* $fvis $field: $ty, )+
        }
        $crate::__xdr_record! { $name { $( $field $field: $ty $(as $form)?, )+ } }
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident ( $fvis:vis $ty:ty );
    ) => {
        $(#[$meta])*
        $vis struct $name($fvis $ty);
        $crate::__xdr_record! { $name { 0 content: $ty, } }
    };
}

/// The codec of a record, each field given as `accessor binding: type [as
/// form]` (a tuple field's accessor is its index).
#[doc(hidden)]
#[macro_export]
macro_rules! __xdr_record {
    ($name:ident { $( $acc:tt $bind:ident : $ty:ty $(as $form:ty)?, )+ }) => {
        impl $crate::XdrEncode for $name {
            fn encode(&self, w: &mut $crate::XdrWriter) {
                let Self { $( $acc: $bind ),+ } = self;
                $( $crate::__xdr_field!([$ty $(as $form)?] encode($bind, w)); )+
            }
            fn encoded_len(&self) -> usize {
                let Self { $( $acc: $bind ),+ } = self;
                0 $( + $crate::__xdr_field!([$ty $(as $form)?] encoded_len($bind)) )+
            }
        }
        impl $crate::XdrDecode for $name {
            const SELF_DELIMITING: bool =
                $crate::ends_delimited(&[ $( $crate::__xdr_field!([$ty $(as $form)?] SELF_DELIMITING) ),+ ]);
            fn decode(r: &mut $crate::XdrReader<'_>) -> Result<Self, $crate::XdrError> {
                Ok(Self { $( $acc: $crate::__xdr_field!([$ty $(as $form)?] decode(r))? ),+ })
            }
            fn skip(r: &mut $crate::XdrReader<'_>) -> Result<(), $crate::XdrError> {
                $( $crate::__xdr_field!([$ty $(as $form)?] skip(r))?; )+
                Ok(())
            }
        }
        $crate::__xdr_placement! { $name $( [$ty $(as $form)?] )+ }
    };
}

/// The checks on where an extension may sit, evaluated where the record is
/// declared (an associated constant alone is only evaluated when used).
#[doc(hidden)]
#[macro_export]
macro_rules! __xdr_placement {
    ($name:ident $( [$($field:tt)+] )*) => {
        const _: bool = <$name as $crate::XdrDecode>::SELF_DELIMITING;
        const _: () = assert!(
            true $( && $crate::__xdr_field!([$($field)+] CONTENT_DELIMITED) )*,
            "a record that ends in a trailing extension is a whole frame, not a field or an element"
        );
    };
}

/// `<form as FieldCodec<type>>::item`, the form defaulting to the type.
#[doc(hidden)]
#[macro_export]
macro_rules! __xdr_field {
    ([$ty:ty] $($item:tt)+) => { <$ty as $crate::FieldCodec<$ty>>::$($item)+ };
    ([$ty:ty as $form:ty] $($item:tt)+) => { <$form as $crate::FieldCodec<$ty>>::$($item)+ };
}

/// Implements the codec traits for a C-like enum with explicit `u32`
/// discriminants (RFC 4506 enums): on the wire, an [`xdr_union!`] whose
/// variants carry nothing.
///
/// ```
/// use ohpc_xdr::{xdr_enum, encode_to_vec, decode_from_slice};
///
/// xdr_enum! {
///     #[derive(Debug, Clone, Copy, PartialEq)]
///     pub enum Quality {
///         Raw = 0,
///         Calibrated = 1,
///         Validated = 2,
///     }
/// }
///
/// let bytes = encode_to_vec(&Quality::Calibrated);
/// assert_eq!(decode_from_slice::<Quality>(&bytes).unwrap(), Quality::Calibrated);
/// assert!(decode_from_slice::<Quality>(&encode_to_vec(&9u32)).is_err());
/// ```
#[macro_export]
macro_rules! xdr_enum {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $( $(#[$vmeta:meta])* $variant:ident = $value:literal ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $( $(#[$vmeta])* $variant = $value, )+
        }
        $crate::__xdr_union! { $name $( $value $variant {} )+ }
    };
}

/// Declares a tagged union (RFC 4506 discriminated union) and implements the
/// codec traits for it: a `u32` tag, then the variant's fields. Every variant
/// states its tag; a variant is a unit, one unnamed field, or named fields
/// with the same forms as [`xdr_struct!`]. A tag no variant declares decodes
/// to [`XdrError::InvalidDiscriminant`](crate::XdrError::InvalidDiscriminant)
/// — that arm is always generated — and `wire_tag()` reads a value's tag.
///
/// ```
/// use ohpc_xdr::{xdr_union, encode_to_vec, decode_from_slice, Array, XdrError};
///
/// xdr_union! {
///     #[derive(Debug, Clone, PartialEq)]
///     pub enum Outcome {
///         /// Nothing to report.
///         0 => Done,
///         1 => Failed(String),
///         // Tags are wire protocol: 2 was retired and is never reused.
///         3 => Partial { done: u32, missing: Vec<String> as Array<16> },
///     }
/// }
///
/// let partial = Outcome::Partial { done: 2, missing: vec!["c".into()] };
/// assert_eq!(partial.wire_tag(), 3);
/// assert_eq!(decode_from_slice::<Outcome>(&encode_to_vec(&partial)).unwrap(), partial);
/// assert_eq!(encode_to_vec(&Outcome::Done), [0, 0, 0, 0]);
/// assert_eq!(
///     decode_from_slice::<Outcome>(&encode_to_vec(&2u32)).unwrap_err(),
///     XdrError::InvalidDiscriminant(2)
/// );
/// ```
///
/// Two variants with one tag would make the second undecodable. That does
/// not compile:
///
/// ```compile_fail,E0081
/// ohpc_xdr::xdr_union! {
///     pub enum Outcome {
///         0 => Done,
///         1 => Failed(String),
///         1 => Refused(String),
///     }
/// }
/// ```
#[macro_export]
macro_rules! xdr_union {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $(
                $(#[$vmeta:meta])*
                $tag:literal => $variant:ident
                $( ( $content:ty ) )?
                $( { $( $(#[$fmeta:meta])* $field:ident : $ty:ty $(as $form:ty)? ),+ $(,)? } )?
            ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $( $(#[$vmeta])* $variant $( ($content) )? $( { $( $(#[$fmeta])* $field: $ty, )+ } )?, )+
        }
        $crate::__xdr_union! {
            $name $( $tag $variant {
                $( 0 content: $content, )?
                $( $( $field $field: $ty $(as $form)?, )+ )?
            } )+
        }
    };
}

/// The codec of a union, variants given as `tag Variant { fields }` with the
/// fields as in [`__xdr_record!`] (a unit variant matches `Variant {}`).
#[doc(hidden)]
#[macro_export]
macro_rules! __xdr_union {
    ($name:ident $( $tag:literal $variant:ident {
        $( $acc:tt $bind:ident : $ty:ty $(as $form:ty)?, )*
    } )+) => {
        // Two variants with one tag are two variants with one discriminant,
        // which the compiler refuses (E0081).
        const _: () = {
            #[allow(dead_code)]
            enum Tags { $( $variant = $tag ),+ }
        };
        impl $name {
            /// The wire discriminant this value encodes as. Tags are wire
            /// protocol: they never change meaning, and new variants take
            /// fresh values.
            pub fn wire_tag(&self) -> u32 {
                match self { $( $name::$variant { .. } => $tag, )+ }
            }
        }
        impl $crate::XdrEncode for $name {
            fn encode(&self, w: &mut $crate::XdrWriter) {
                w.put_u32(self.wire_tag());
                match self { $(
                    $name::$variant { $( $acc: $bind ),* } => {
                        $( $crate::__xdr_field!([$ty $(as $form)?] encode($bind, w)); )*
                    }
                )+ }
            }
            fn encoded_len(&self) -> usize {
                4 + match self { $(
                    $name::$variant { $( $acc: $bind ),* } => {
                        0 $( + $crate::__xdr_field!([$ty $(as $form)?] encoded_len($bind)) )*
                    }
                )+ }
            }
        }
        impl $crate::XdrDecode for $name {
            const SELF_DELIMITING: bool = true $( && $crate::ends_delimited(
                &[ $( $crate::__xdr_field!([$ty $(as $form)?] SELF_DELIMITING) ),* ]
            ) )+;
            fn decode(r: &mut $crate::XdrReader<'_>) -> Result<Self, $crate::XdrError> {
                match r.get_u32()? {
                    $( $tag => Ok($name::$variant {
                        $( $acc: $crate::__xdr_field!([$ty $(as $form)?] decode(r))? ),*
                    }), )+
                    other => Err($crate::XdrError::InvalidDiscriminant(other)),
                }
            }
        }
        $crate::__xdr_placement! { $name $( $( [$ty $(as $form)?] )* )+ }
    };
}

#[cfg(test)]
mod tests {
    use crate::{decode_from_slice, encode_to_vec};

    xdr_struct! {
        #[derive(Debug, Clone, PartialEq)]
        pub struct Reading {
            pub station: String,
            pub values: Vec<f64>,
            pub flags: u32,
        }
    }

    xdr_struct! {
        #[derive(Debug, Clone, PartialEq)]
        struct Nested {
            inner: Reading,
            count: u64,
            tag: Option<String>,
        }
    }

    xdr_enum! {
        #[derive(Debug, Clone, Copy, PartialEq)]
        pub enum Units {
            Kelvin = 0,
            Celsius = 1,
            Fahrenheit = 5,
        }
    }

    #[test]
    fn struct_roundtrip() {
        let r = Reading { station: "KIND".into(), values: vec![1.5, -2.5], flags: 7 };
        let bytes = encode_to_vec(&r);
        assert_eq!(decode_from_slice::<Reading>(&bytes).unwrap(), r);
    }

    #[test]
    fn nested_struct_roundtrip() {
        let n = Nested {
            inner: Reading { station: "S".into(), values: vec![], flags: 0 },
            count: 1 << 40,
            tag: Some("x".into()),
        };
        let bytes = encode_to_vec(&n);
        assert_eq!(decode_from_slice::<Nested>(&bytes).unwrap(), n);
    }

    #[test]
    fn enum_roundtrip_and_bad_discriminant() {
        for u in [Units::Kelvin, Units::Celsius, Units::Fahrenheit] {
            assert_eq!(decode_from_slice::<Units>(&encode_to_vec(&u)).unwrap(), u);
        }
        // 2 is not a declared discriminant (values are 0, 1, 5)
        assert!(decode_from_slice::<Units>(&encode_to_vec(&2u32)).is_err());
    }

    #[test]
    fn truncated_struct_fails_cleanly() {
        let r = Reading { station: "KIND".into(), values: vec![1.0], flags: 1 };
        let bytes = encode_to_vec(&r);
        assert!(decode_from_slice::<Reading>(&bytes[..bytes.len() - 4]).is_err());
    }
}
