//! tcbf-lint: the workspace-native invariant checker.
//!
//! Statically analyzes the workspace's own source with a hand-rolled
//! token-level lexer (zero dependencies) and enforces the one contract
//! no compiler lint expresses: **public means called** (TCBF-U001).
//!
//! Lock order needs no rule: no code path holds two locks at once.
//! Serve-path panic freedom, the clock, the `unsafe` inventory and the
//! wire error codes are held by rustc, clippy and a `ccglib` test, and
//! float-reduction order by the committed result digests and goldens
//! (docs/LINTS.md, *Retired rules*), not here.  The rule has no
//! suppression: a finding is fixed, not excused.

#![forbid(unsafe_code)]

pub mod diagnostics;
mod lexer;
mod rules;
mod source;

use std::path::{Path, PathBuf};

use diagnostics::Finding;
use source::SourceFile;

/// Result of linting a whole workspace tree.
pub struct Report {
    /// All findings, deterministically ordered.
    pub findings: Vec<Finding>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

/// The workspace tree could not be read: which directory or file, and why.
#[derive(Debug)]
pub struct LintError(pub String);

impl std::fmt::Display for LintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Walks the workspace at `root` and runs TCBF-U001 over it.
pub fn lint_workspace(root: &Path) -> Result<Report, LintError> {
    let files = workspace_files(root)?;
    let mut sources = Vec::new();
    for rel in &files {
        let abs = root.join(rel);
        let text = std::fs::read_to_string(&abs)
            .map_err(|e| LintError(format!("cannot read {}: {e}", abs.display())))?;
        sources.push(SourceFile::new(rel.clone(), text));
    }
    let mut findings = Vec::new();
    rules::public_api::check(&sources, &mut findings);
    diagnostics::sort_findings(&mut findings);
    Ok(Report {
        findings,
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
