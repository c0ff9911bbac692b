//! `ohpc-analyze`: the workspace's own static-analysis pass, as a library
//! that `tests/workspace.rs` runs over the workspace in tier-1, and whose
//! fixture corpus (`tests/fixtures.rs`) and lexer property tests drive the
//! engine directly.
//!
//! Layer map:
//!
//! * [`lexer`] — hand-rolled token scan (no `syn`: the workspace builds
//!   offline, and a token stream is enough for the invariants we check).
//! * [`source`] — per-file model: test/macro regions, brace matching,
//!   `impl` headers and fn bodies, `// ohpc-analyze: allow(...)`
//!   annotations.
//! * [`rules`] — the rules and the driver.
//!
//! Lock order and guards held across blocking calls are checked where the
//! tests run, by the lock shim's debug build (`third_party/parking_lot`).

#![forbid(unsafe_code)]

pub mod lexer;
pub mod rules;
pub mod source;
