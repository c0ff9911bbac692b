//! Cryptographic primitives backing the Open HPC++ security and
//! authentication capabilities.
//!
//! The paper leaves the mechanisms unspecified ("encrypts the data
//! transferred", "authenticate themselves for each remote request"); we
//! implement period-appropriate, well-specified primitives from scratch so the
//! capability chain pays a *real* cryptographic cost on the wire path:
//!
//! * [`sha256`] — FIPS 180-4 SHA-256
//! * [`hmac_sha256`] — RFC 2104 HMAC-SHA-256, used for per-request authentication
//! * [`ChaCha20`] — RFC 8439 ChaCha20 stream cipher, used by the encryption
//!   capability
//! * [`ct_eq`] — constant-time comparison for MAC verification
//! * [`KeyStore`] — a named pre-shared-key store standing in for the site
//!   key-distribution infrastructure the paper assumes
//!
//! None of this is intended to compete with audited crypto crates; it exists
//! because the reproduction must be dependency-light and the evaluation only
//! needs representative per-byte cost plus correct round-trips.

#![warn(missing_docs)]
// The cipher's kernel dispatch (`chacha20::xor_groups_on`, the two calls it
// guards by a feature check) and the AVX-512 kernel's one load/store pair
// (`chacha20::avx512::xor_block`) are the only places allowed to lift this.
#![deny(unsafe_code)]

mod chacha20;
mod hmac;
mod keys;
mod sha256;

pub use chacha20::{chacha20_xor, ChaCha20};
pub use hmac::{hmac_sha256, HmacSha256};
pub use keys::{KeyId, KeyStore};
pub use sha256::{sha256, Sha256, DIGEST_LEN};

/// Compares two byte strings in constant time (with respect to content; the
/// length check is allowed to early-exit because lengths are public).
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ct_eq_basic() {
        assert!(ct_eq(b"abc", b"abc"));
        assert!(!ct_eq(b"abc", b"abd"));
        assert!(!ct_eq(b"abc", b"ab"));
        assert!(ct_eq(b"", b""));
    }
}
