//! Concrete remote-access capabilities for Open HPC++.
//!
//! Each module implements one capability from the paper's motivating
//! examples (§1 and §4):
//!
//! | capability | wire name | paper motivation |
//! |---|---|---|
//! | [`EncryptionCap`] | `security` | "would also like to encrypt the data exchanged with such clients" |
//! | [`AuthCap`] | `auth` | "use authentication for clients connecting over the Internet" |
//! | [`TimeoutCap`] | `timeout` | "lets the client make only a certain maximum number of requests" |
//! | [`LeaseCap`] | `lease` | "given access to the weather data only for the time they have paid for" |
//! | [`DeadlineCap`] | `deadline` | per-request time budgets: servers shed requests that arrive past their caller's deadline |
//! | [`CompressionCap`] | `compress` | "data compression (and encryption) … encapsulated under … capabilities" |
//! | [`LoggingCap`] | `log` | auditing/accounting side of "access restrictions" |
//! | [`AclCap`] | `acl` | "some clients may need access only to a subset of the interface" |
//!
//! [`register_standard`] wires all of them into a [`CapabilityRegistry`]
//! against a [`KeyStore`] (the local trust environment). Specs are built
//! with each type's `spec(...)` constructor so both ends agree on the
//! configuration encoding.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::match_wildcard_for_single_variants
    )
)]

mod acl;
mod auth;
mod scope;
mod compresscap;
mod deadline;
mod encrypt;
mod lease;
mod logging;
mod timeout;

pub use acl::AclCap;
pub use auth::AuthCap;
pub use compresscap::CompressionCap;
pub use deadline::DeadlineCap;
pub use encrypt::EncryptionCap;
pub use lease::LeaseCap;
pub use logging::{LogStats, LoggingCap};
pub use scope::CapScope;
pub use timeout::TimeoutCap;

use std::sync::Arc;

use ohpc_crypto::KeyStore;
use ohpc_orb::{CapError, CapabilityRegistry};

/// Registers every standard capability factory against `keys`.
///
/// A shared [`LogStats`] is returned so applications (and the benchmark
/// harness) can observe traffic recorded by `log` capabilities.
pub fn register_standard(registry: &CapabilityRegistry, keys: KeyStore) -> Arc<LogStats> {
    let stats = Arc::new(LogStats::default());

    {
        let keys = keys.clone();
        registry.register(encrypt::NAME, move |spec| {
            EncryptionCap::from_spec(spec, &keys).map(|c| Arc::new(c) as _)
        });
    }
    {
        let keys = keys.clone();
        registry.register(auth::NAME, move |spec| {
            AuthCap::from_spec(spec, &keys).map(|c| Arc::new(c) as _)
        });
    }
    registry.register(timeout::NAME, |spec| {
        TimeoutCap::from_spec(spec).map(|c| Arc::new(c) as _)
    });
    registry.register(lease::NAME, |spec| LeaseCap::from_spec(spec).map(|c| Arc::new(c) as _));
    registry.register(deadline::NAME, |spec| {
        DeadlineCap::from_spec(spec).map(|c| Arc::new(c) as _)
    });
    registry.register(compresscap::NAME, |spec| {
        CompressionCap::from_spec(spec).map(|c| Arc::new(c) as _)
    });
    {
        let stats = stats.clone();
        registry.register(logging::NAME, move |spec| {
            LoggingCap::from_spec(spec, stats.clone()).map(|c| Arc::new(c) as _)
        });
    }
    registry.register(acl::NAME, |spec| AclCap::from_spec(spec).map(|c| Arc::new(c) as _));

    stats
}

pub(crate) fn bad_config(name: &str, e: impl std::fmt::Display) -> CapError {
    CapError::Failed(format!("bad {name} config: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ohpc_orb::CapabilitySpec;

    #[test]
    fn register_standard_knows_all_names() {
        let reg = CapabilityRegistry::new();
        let mut keys = KeyStore::new();
        keys.add_key("k", b"secret");
        register_standard(&reg, keys);
        // Every capability module's `NAME`; a new module adds its own here.
        for name in [
            encrypt::NAME,
            auth::NAME,
            timeout::NAME,
            lease::NAME,
            deadline::NAME,
            compresscap::NAME,
            logging::NAME,
            acl::NAME,
        ] {
            assert!(reg.knows(name), "{name} not registered");
        }
    }

    #[test]
    fn building_with_empty_config_fails_cleanly_where_config_is_required() {
        let reg = CapabilityRegistry::new();
        register_standard(&reg, KeyStore::new());
        // security requires a key name in config
        assert!(reg.build(&CapabilitySpec::new("security")).is_err());
        // auth requires a key name in config
        assert!(reg.build(&CapabilitySpec::new("auth")).is_err());
    }
}
