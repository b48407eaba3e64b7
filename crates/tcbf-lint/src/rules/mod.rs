//! The one rule, TCBF-U001 ([`public_api`]): every `pub` item has an
//! outside caller.
//!
//! The rules rustc, clippy or a behaviour test can hold live there
//! (docs/LINTS.md, *Retired rules*).

pub mod public_api;
