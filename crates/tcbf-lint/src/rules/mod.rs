//! Rule modules, grouped by contract.
//!
//! | ID        | Module          | Contract                               |
//! |-----------|-----------------|----------------------------------------|
//! | TCBF-D002 | [`determinism`] | bit-identical reports                  |
//! | TCBF-U001 | [`public_api`]  | every `pub` item has an outside caller |
//!
//! The rules rustc and clippy can express live there (docs/LINTS.md,
//! *Retired rules*).

pub mod determinism;
pub mod public_api;

/// Every rule ID, for the summary table (kept sorted).
pub const ALL_RULES: &[&str] = &[determinism::D002, public_api::U001];
