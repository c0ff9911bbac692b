//! `ohpc-analyze` as a library.
//!
//! The binary (`src/main.rs`) is a thin CLI over these modules; exposing
//! them as a lib lets the fixture-corpus self-test (`tests/fixtures.rs`)
//! and the lexer property tests drive the engine directly, so the rules
//! themselves have regression coverage.
//!
//! Layer map:
//!
//! * [`lexer`] — hand-rolled token scan (no `syn`: the workspace builds
//!   offline, and a token stream is enough for the invariants we check).
//! * [`source`] — per-file model: test/macro regions, brace matching,
//!   `// ohpc-analyze: allow(...)` annotations.
//! * [`graph`] — workspace symbol table and the conservative may-call
//!   graph (impl blocks, `use` resolution, receiver typing).
//! * [`dataflow`] — statement-level lock-guard liveness and the
//!   transitively-blocking-call fixpoint.
//! * [`rules`] — the rules and the driver.

#![forbid(unsafe_code)]

pub mod dataflow;
pub mod graph;
pub mod lexer;
pub mod rules;
pub mod source;
