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
//! Suppressions are the typed [`config::Waiver`]s of
//! [`LintConfig::default`](config::LintConfig), each with its reason.  The
//! rule catalogue is docs/LINTS.md.

#![forbid(unsafe_code)]

pub mod config;
pub mod diagnostics;
pub mod lexer;
pub mod rules;
pub mod source;

use std::path::{Path, PathBuf};

use config::{LintConfig, Waiver};
use diagnostics::Finding;
use source::SourceFile;

/// Result of linting a whole workspace tree.
pub struct Report {
    /// All findings, deterministically ordered, waived ones marked.
    pub findings: Vec<Finding>,
    /// Waivers that matched no finding.
    pub stale_waivers: Vec<Waiver>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Findings no waiver covers.
    pub fn unsuppressed(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.suppressed_by.is_none())
    }
}

/// The workspace tree could not be read: which directory or file, and why.
#[derive(Debug)]
pub struct LintError(pub String);

impl std::fmt::Display for LintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
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

/// Walks the workspace at `root`, runs every rule, applies `cfg`'s
/// waivers.
pub fn lint_workspace(root: &Path, cfg: &LintConfig) -> Result<Report, LintError> {
    let files = workspace_files(root)?;
    let mut findings = Vec::new();
    let mut sources = Vec::new();
    for rel in &files {
        let abs = root.join(rel);
        let text = std::fs::read_to_string(&abs)
            .map_err(|e| LintError(format!("cannot read {}: {e}", abs.display())))?;
        sources.push(SourceFile::new(rel.clone(), text));
    }
    for file in sources.iter().filter(|f| is_shipped(&f.path)) {
        rules::determinism::check(file, cfg, &mut findings);
    }
    rules::public_api::check(&sources, &mut findings);

    diagnostics::sort_findings(&mut findings);
    let stale_waivers = cfg.waive(&mut findings);

    Ok(Report {
        findings,
        stale_waivers,
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
        .map_err(|e| LintError(format!("cannot read {}: {e}", dir.display())))?;
    for entry in entries {
        let entry = entry.map_err(|e| LintError(format!("walk error: {e}")))?;
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
