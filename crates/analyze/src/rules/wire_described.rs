//! Rule `wire-described`: no hand-written codec outside `crates/xdr/src/`.
//!
//! A message declared once (`xdr_struct!`, `xdr_enum!`, `xdr_union!`) gets
//! its `encode`, `decode` and `encoded_len` from that declaration: fields
//! cannot be read in another order than written, a tag cannot be claimed
//! twice or dispatched without an unknown-tag arm, nothing can follow a
//! trailing extension. That holds while nobody writes a codec by hand, so
//! that — whatever its body does — is what is denied: an `impl` of a codec
//! trait anywhere but in `ohpc-xdr`, whose primitives and field forms are
//! the vocabulary descriptions are written in.

use crate::rules::Diagnostic;
use crate::source::{parse_impl_header, SourceFile};

/// Rule id.
pub const RULE: &str = "wire-described";

/// Where hand-written codecs live, and the traits they implement.
const VOCABULARY: &str = "crates/xdr/src/";
const CODEC_TRAITS: &[&str] = &["XdrEncode", "XdrDecode", "FieldCodec"];

/// Entry point.
pub fn run(files: &[SourceFile], diags: &mut Vec<Diagnostic>) {
    for f in files.iter().filter(|f| !f.path.starts_with(VOCABULARY)) {
        for (i, t) in f.tokens.iter().enumerate() {
            if !t.is_ident("impl") || f.in_macro_def(i) {
                continue;
            }
            let Some((_, _, Some(implemented))) = parse_impl_header(f, i) else { continue };
            if !CODEC_TRAITS.contains(&implemented.as_str()) || f.allowed(RULE, t.line) {
                continue;
            }
            diags.push(Diagnostic {
                file: f.path.clone(),
                line: t.line,
                rule: RULE,
                message: format!(
                    "hand-written `impl {implemented}`: declare the message with xdr_struct!, \
                     xdr_enum! or xdr_union!, so that both directions and the length come from \
                     one description"
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze(path: &str, src: &str) -> Vec<Diagnostic> {
        let f = SourceFile::from_source(path, "ohpc-orb", false, src);
        let mut diags = Vec::new();
        run(&[f], &mut diags);
        diags
    }

    /// (The plain cases are the fixture corpus's `wire_*.rs`.)
    #[test]
    fn any_codec_impl_outside_the_vocabulary_crate_is_denied() {
        let src = "impl ohpc_xdr::XdrDecode for A { }\n\
                   impl<T: Clone> FieldCodec<Vec<T>> for Mine<T> { }\n\
                   // ohpc-analyze: allow(wire-described) — decoder of a foreign format\n\
                   impl XdrDecode for Legacy { }\n\
                   macro_rules! m { ($n:ident) => { impl XdrEncode for $n {} }; }";
        let diags = analyze("crates/orb/src/message.rs", src);
        assert_eq!(diags.iter().map(|d| d.line).collect::<Vec<_>>(), [1, 2]);
        assert!(diags.iter().all(|d| d.rule == RULE));
        assert!(diags[0].message.contains("impl XdrDecode"), "{}", diags[0].message);
        // Tests are no exception: what they decode is a message too.
        assert_eq!(analyze("crates/orb/tests/proptest_wire.rs", src).len(), 2);
        assert!(analyze("crates/xdr/src/traits.rs", src).is_empty());
    }
}
