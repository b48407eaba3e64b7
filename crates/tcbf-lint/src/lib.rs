//! tcbf-lint: the workspace-native invariant checker.
//!
//! Statically analyzes the workspace's own source with a hand-rolled
//! token-level lexer (zero dependencies) and enforces the two contracts
//! no compiler lint expresses:
//!
//! - **float reductions keep their order** (TCBF-D002),
//! - **public means called** (TCBF-U001).
//!
//! Lock order is checked at run time by the held-lock tracker in the
//! vendored `parking_lot` (armed with `TCBF_LOCK_ORDER=1` at test time).
//! Serve-path panic freedom, the clock, the `unsafe` inventory and the
//! wire error codes are held by rustc, clippy and a `ccglib` test
//! (docs/LINTS.md, *Retired rules*), not here.
//!
//! Suppressions live in a single annotated `lint-allow.toml` at the
//! workspace root; every entry must carry a `reason`.  The rule
//! catalogue is docs/LINTS.md.

#![forbid(unsafe_code)]

pub mod allowlist;
pub mod config;
pub mod diagnostics;
pub mod lexer;
pub mod rules;
pub mod source;

use std::path::{Path, PathBuf};

use allowlist::Allowlist;
use config::LintConfig;
use diagnostics::Finding;
use source::SourceFile;

/// Result of linting a whole workspace tree.
pub struct Report {
    /// All findings, deterministically ordered, suppressions marked.
    pub findings: Vec<Finding>,
    /// Allowlist entries that matched no finding (stale suppressions).
    pub stale_allows: Vec<allowlist::AllowEntry>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Findings not covered by the allowlist.
    pub fn unsuppressed(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.suppressed_by.is_none())
    }
}

/// Fatal configuration problems (unreadable tree, malformed allowlist).
#[derive(Debug)]
pub enum LintError {
    /// The workspace root could not be walked.
    Io(String),
    /// lint-allow.toml is malformed; every problem listed.
    Allowlist(Vec<allowlist::AllowlistError>),
}

impl std::fmt::Display for LintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LintError::Io(msg) => write!(f, "{msg}"),
            LintError::Allowlist(errs) => {
                for e in errs {
                    writeln!(f, "{e}")?;
                }
                Ok(())
            }
        }
    }
}

/// Lints a single in-memory file with the given config: the per-file
/// rule, D002.  This is the fixture-test entry point; [`lint_workspace`] is
/// the production one.
pub fn lint_source(path_label: &str, text: &str, cfg: &LintConfig) -> Vec<Finding> {
    let file = SourceFile::new(path_label.to_string(), text.to_string());
    let mut findings = Vec::new();
    rules::determinism::check(&file, cfg, &mut findings);
    diagnostics::sort_findings(&mut findings);
    findings
}

/// Walks the workspace at `root`, runs every rule, applies the
/// allowlist at `root/lint-allow.toml` (if present).
pub fn lint_workspace(root: &Path, cfg: &LintConfig) -> Result<Report, LintError> {
    let files = workspace_files(root)?;
    let mut findings = Vec::new();
    let mut sources = Vec::new();
    for rel in &files {
        let abs = root.join(rel);
        let text = std::fs::read_to_string(&abs)
            .map_err(|e| LintError::Io(format!("cannot read {}: {e}", abs.display())))?;
        sources.push(SourceFile::new(rel.clone(), text));
    }
    for file in sources.iter().filter(|f| is_shipped(&f.path)) {
        rules::determinism::check(file, cfg, &mut findings);
    }
    rules::public_api::check(&sources, &mut findings);

    diagnostics::sort_findings(&mut findings);

    let allow_path = root.join("lint-allow.toml");
    let mut stale_allows = Vec::new();
    if let Ok(text) = std::fs::read_to_string(&allow_path) {
        let allow = Allowlist::parse(&text).map_err(LintError::Allowlist)?;
        stale_allows = allow.apply(&mut findings).into_iter().cloned().collect();
    }

    Ok(Report {
        findings,
        stale_allows,
        files_scanned: sources.len(),
    })
}

/// Directory names never descended into: vendored stand-ins, build
/// output and the linter's own fixtures.
const SKIP_DIRS: &[&str] = &["vendor", "target", "fixtures", ".git", ".github"];

/// Collects the workspace-relative paths of every `.rs` file under
/// `crates/`, the umbrella `src/`, the root `tests/` and `examples/`,
/// sorted for determinism.
fn workspace_files(root: &Path) -> Result<Vec<String>, LintError> {
    let mut files = Vec::new();
    for top in ["crates", "src", "tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, root, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

/// Shipped source, which the per-file rule targets; test, bench and
/// example code is only read as TCBF-U001's callers.
fn is_shipped(path: &str) -> bool {
    !path
        .split('/')
        .any(|dir| matches!(dir, "tests" | "benches" | "examples"))
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<String>) -> Result<(), LintError> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| LintError::Io(format!("cannot read {}: {e}", dir.display())))?;
    for entry in entries {
        let entry = entry.map_err(|e| LintError::Io(format!("walk error: {e}")))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) {
                continue;
            }
            walk(&path, root, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    Ok(())
}

/// Stable path->PathBuf helper for the CLI.
pub fn default_root() -> PathBuf {
    // Compiled into the binary: the crate lives at crates/tcbf-lint,
    // so the workspace root is two levels up.
    let manifest = env!("CARGO_MANIFEST_DIR");
    Path::new(manifest)
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}
