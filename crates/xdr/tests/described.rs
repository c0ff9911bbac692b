//! The description macros and their field forms: what `xdr_struct!` /
//! `xdr_union!` generate is exactly the primitive sequence one would write
//! by hand, in both directions, with the length to match — checked against
//! hand-built byte vectors and, for arbitrary values, against each other.

use std::fs;
use std::path::Path;

use bytes::Bytes;
use ohpc_xdr::{
    decode_from_slice, encode_to_vec, xdr_struct, xdr_union, Array, Extension, FrameView, Mirror,
    XdrDecode, XdrEncode, XdrError, XdrReader, XdrWriter,
};
use proptest::prelude::*;

xdr_struct! {
    #[derive(Debug, Clone, PartialEq)]
    struct Hop(pub u16);
}

/// Stands in for a type from a crate that knows nothing of XDR.
#[derive(Debug, Clone, PartialEq)]
struct Place {
    x: u32,
    y: u32,
}

xdr_struct! {
    struct PlaceWire {
        x: u32,
        y: u32,
    }
}

impl From<&Place> for PlaceWire {
    fn from(p: &Place) -> Self {
        Self { x: p.x, y: p.y }
    }
}

impl From<PlaceWire> for Place {
    fn from(w: PlaceWire) -> Self {
        Self { x: w.x, y: w.y }
    }
}

xdr_union! {
    #[derive(Debug, Clone, PartialEq)]
    enum Cargo {
        0 => Empty,
        1 => Note(String),
        4 => Crate {
            hops: Vec<Hop> as Array<3>,
            at: Place as Mirror<PlaceWire>,
            inside: Option<Box<Cargo>>,
        },
    }
}

xdr_struct! {
    #[derive(Debug, Clone, PartialEq)]
    struct Parcel {
        id: u64,
        cargo: Cargo,
        seal: Bytes,
        body: Bytes as FrameView,
        route: Option<Vec<i32>> as Extension<3, Vec<i32>>,
    }
}

fn parcel() -> Parcel {
    Parcel {
        id: 7,
        cargo: Cargo::Crate {
            hops: vec![Hop(1), Hop(2)],
            at: Place { x: 3, y: 4 },
            inside: Some(Box::new(Cargo::Note("hi".into()))),
        },
        seal: Bytes::from_static(b"s"),
        body: Bytes::from_static(b"body!"),
        route: Some(vec![-1]),
    }
}

/// `parcel()` written out primitive by primitive.
fn parcel_by_hand() -> Vec<u8> {
    let mut w = XdrWriter::new();
    w.put_u64(7);
    w.put_u32(4); // Cargo::Crate
    w.put_array_len(2);
    w.put_u32(1);
    w.put_u32(2);
    w.put_u32(3); // at.x
    w.put_u32(4); // at.y
    w.put_bool(true); // inside: Some
    w.put_u32(1); // Cargo::Note
    w.put_string("hi");
    w.put_opaque(b"s");
    w.put_opaque(b"body!");
    w.put_u32(3); // extension version
    w.put_u32(8); // payload length
    w.put_array_len(1);
    w.put_i32(-1);
    w.finish().to_vec()
}

#[test]
fn a_description_generates_the_sequence_one_would_write_by_hand() {
    let bytes = parcel_by_hand();
    assert_eq!(encode_to_vec(&parcel()), bytes);
    assert_eq!(parcel().encoded_len(), bytes.len());
    assert_eq!(decode_from_slice::<Parcel>(&bytes).unwrap(), parcel());
    assert_eq!(parcel().cargo.wire_tag(), 4);
    assert_eq!(encode_to_vec(&Cargo::Empty), [0, 0, 0, 0]);
}

#[test]
fn frame_view_fields_share_the_frame_and_plain_bytes_fields_do_not() {
    let frame = Bytes::from(parcel_by_hand());
    let end = frame[frame.len()..].as_ptr();
    let inside = |b: &Bytes| frame.as_ptr() <= b.as_ptr() && b.as_ptr() < end;
    let decoded = Parcel::decode(&mut XdrReader::over_frame(&frame)).unwrap();
    assert!(inside(&decoded.body) && !inside(&decoded.seal));
    // Over a plain slice there is no frame to share: both are copies.
    let decoded = Parcel::decode(&mut XdrReader::new(&frame)).unwrap();
    assert!(!inside(&decoded.body) && decoded.body == parcel().body);
}

#[test]
fn an_array_over_its_bound_is_refused_on_the_count() {
    let mut w = XdrWriter::new();
    w.put_u32(4); // Cargo::Crate
    w.put_array_len(4); // one hop too many, all of them present
    for hop in 0..4 {
        w.put_u32(hop);
    }
    w.put_u64(0); // at
    w.put_bool(false); // inside
    assert_eq!(
        decode_from_slice::<Cargo>(&w.finish()).unwrap_err(),
        XdrError::LengthOverflow { declared: 4, limit: 3 }
    );
}

#[test]
fn unknown_tags_and_extension_versions() {
    assert_eq!(
        decode_from_slice::<Cargo>(&encode_to_vec(&2u32)).unwrap_err(),
        XdrError::InvalidDiscriminant(2)
    );
    // The frame from before the extension existed, then with an extension
    // from the future (skipped whole), then with a corrupt one of this
    // version (an error, not a silent `None`).
    let legacy = Parcel { route: None, ..parcel() };
    let base = encode_to_vec(&legacy);
    assert_eq!(decode_from_slice::<Parcel>(&base).unwrap(), legacy);
    let with = |version: u32, payload: &[u8]| {
        let mut w = XdrWriter::new();
        w.put_u32(version);
        w.put_opaque(payload);
        [&base[..], &w.finish()[..]].concat()
    };
    assert_eq!(decode_from_slice::<Parcel>(&with(4, b"not an array")).unwrap(), legacy);
    assert!(decode_from_slice::<Parcel>(&with(3, &[0, 0, 0, 9])).is_err());
}

fn arb_cargo() -> impl Strategy<Value = Cargo> {
    let leaf = prop_oneof![Just(Cargo::Empty), ".{0,12}".prop_map(Cargo::Note)];
    leaf.prop_recursive(3, 6, 1, |inner| {
        let hops = proptest::collection::vec(any::<u16>(), 0..4);
        (hops, (any::<u32>(), any::<u32>()), proptest::option::of(inner)).prop_map(
            |(hops, (x, y), inside)| Cargo::Crate {
                hops: hops.into_iter().map(Hop).collect(),
                at: Place { x, y },
                inside: inside.map(Box::new),
            },
        )
    })
}

proptest! {
    /// Round trip, exact length, alignment; and every strict prefix is an
    /// error except the one that ends where the extension begins.
    #[test]
    fn described_records_roundtrip_at_their_stated_length(
        id: u64,
        cargo in arb_cargo(),
        seal in proptest::collection::vec(any::<u8>(), 0..9),
        body in proptest::collection::vec(any::<u8>(), 0..40),
        route in proptest::option::of(proptest::collection::vec(any::<i32>(), 0..5)),
    ) {
        let parcel = Parcel { id, cargo, seal: Bytes::from(seal), body: Bytes::from(body), route };
        let bytes = encode_to_vec(&parcel);
        prop_assert_eq!(bytes.len(), parcel.encoded_len());
        prop_assert_eq!(bytes.len() % 4, 0);
        prop_assert_eq!(&decode_from_slice::<Parcel>(&bytes).unwrap(), &parcel);
        let legacy = Parcel { route: None, ..parcel };
        for cut in 0..bytes.len() {
            match decode_from_slice::<Parcel>(&bytes[..cut]) {
                Ok(decoded) => prop_assert!(cut == legacy.encoded_len() && decoded == legacy),
                Err(_) => prop_assert!(cut != legacy.encoded_len()),
            }
        }
    }
}

// ------------------------------------------------------------ wire-described

/// The codec traits. Only `crates/xdr/src/` implements them by hand: its
/// primitives and field forms are what descriptions are written in.
const CODEC_TRAITS: [&str; 3] = ["XdrEncode", "XdrDecode", "FieldCodec"];

/// Whether `line`, of the file at `path` from the workspace root, implements
/// a codec trait by hand: an `impl` outside a string literal whose trait
/// path, after any generic parameters, ends in a codec trait.
fn hand_written_codec(path: &str, line: &str) -> bool {
    if path.starts_with("crates/xdr/src/") {
        return false;
    }
    line.match_indices("impl").any(|(at, _)| {
        let (before, after) = (&line[..at], &line[at + "impl".len()..]);
        if before.ends_with(|c: char| c.is_alphanumeric() || c == '_')
            || before.matches('"').count() % 2 == 1
        {
            return false;
        }
        // Past the generic parameters, if any, to the trait's path.
        let header = if after.starts_with('<') {
            let mut depth = 0;
            let close = after.char_indices().find(|&(_, c)| {
                depth += i32::from(c == '<') - i32::from(c == '>');
                depth == 0
            });
            match close {
                Some((end, _)) => &after[end + 1..],
                None => return false,
            }
        } else if after.starts_with(char::is_whitespace) {
            after
        } else {
            return false;
        };
        let path = header.trim_start().split([' ', '<', '{']).next().unwrap_or("");
        CODEC_TRAITS.contains(&path.rsplit("::").next().unwrap_or(path))
    })
}

/// Every `.rs` file under `dir`, with its path from `root`.
fn rust_files(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(root, &path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            let rel = path.strip_prefix(root).unwrap().to_string_lossy().replace('\\', "/");
            out.push((rel, fs::read_to_string(&path).unwrap()));
        }
    }
}

/// A message declared once gets both directions and its length from that
/// declaration, which holds while nobody writes a codec by hand: anywhere
/// in the workspace but `crates/xdr/src/`, tests, examples and macro bodies
/// included, an `impl` of a codec trait is denied.
#[test]
fn no_codec_is_written_by_hand_outside_the_xdr_crate() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut findings = Vec::new();
    for top in ["apps", "crates", "examples", "tests"] {
        let mut files = Vec::new();
        rust_files(&root, &root.join(top), &mut files);
        assert!(!files.is_empty(), "no Rust files under {top}/");
        for (path, text) in &files {
            for (n, line) in text.lines().enumerate() {
                if hand_written_codec(path, line) {
                    findings.push(format!("{path}:{}: {}", n + 1, line.trim()));
                }
            }
        }
    }
    assert!(
        findings.is_empty(),
        "hand-written codecs; declare each message with xdr_struct!, xdr_enum! or xdr_union!:\n{}",
        findings.join("\n")
    );
}

#[test]
fn the_codec_matcher_flags_hand_written_impls_and_only_those() {
    let elsewhere = "crates/orb/src/message.rs";
    for line in [
        // A swapped field order, a tag claimed twice, a field after the
        // trailing extension: shapes the macros cannot express.
        "impl XdrEncode for SwappedMeta {",
        "impl XdrDecode for ProtoFrame {",
        "impl ohpc_xdr::XdrEncode for Extended {",
        "impl<T: Clone> FieldCodec<Vec<T>> for Mine<T> {}",
        "    ($n:ident) => { impl XdrDecode for $n {} };",
    ] {
        assert!(hand_written_codec(elsewhere, line), "{line}");
        assert!(hand_written_codec("tests/full_stack.rs", line), "{line}");
    }
    // A codec trait in a bound is not implemented; a word that starts with
    // `impl` is not the keyword.
    for line in ["impl<T: XdrEncode> std::fmt::Debug for Sized<T> {", "fn implode() {}"] {
        assert!(!hand_written_codec(elsewhere, line), "{line}");
    }
    let vocabulary = "macro_rules! m { ($n:ident) => { impl XdrEncode for $n {} }; }";
    assert!(!hand_written_codec("crates/xdr/src/describe.rs", vocabulary));
    assert!(hand_written_codec(elsewhere, vocabulary));
}
