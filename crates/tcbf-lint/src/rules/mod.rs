//! Rule modules, grouped by contract.
//!
//! | IDs                   | Module          | Contract                               |
//! |-----------------------|-----------------|----------------------------------------|
//! | TCBF-P001..P003       | [`panic_rules`] | serve-path panic freedom               |
//! | TCBF-D002, TCBF-D004  | [`determinism`] | bit-identical reports                  |
//! | TCBF-E001..E002       | [`error_codes`] | append-only wire error codes           |
//! | TCBF-U001             | [`public_api`]  | every `pub` item has an outside caller |

pub mod determinism;
pub mod error_codes;
pub mod panic_rules;
pub mod public_api;

use crate::config::LintConfig;
use crate::diagnostics::Finding;
use crate::source::SourceFile;

/// Every rule ID, for the summary table (kept sorted).
pub const ALL_RULES: &[&str] = &[
    panic_rules::P001,
    panic_rules::P002,
    panic_rules::P003,
    determinism::D002,
    determinism::D004,
    error_codes::E001,
    error_codes::E002,
    public_api::U001,
];

/// Runs every per-file rule over `file`, collecting findings into `out`.
pub(crate) fn check_file(file: &SourceFile, cfg: &LintConfig, out: &mut Vec<Finding>) {
    panic_rules::check(file, cfg, out);
    determinism::check(file, cfg, out);
}
