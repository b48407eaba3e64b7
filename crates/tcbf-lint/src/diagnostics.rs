//! Finding model and rustc-style rendering.

use std::fmt;

/// One rule violation at a specific source location.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Rule identifier, e.g. `TCBF-D002`.
    pub rule: &'static str,
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable description of the violation.
    pub message: String,
    /// The full source line, for context and allowlist `pattern` matching.
    pub line_text: String,
    /// Set by the allowlist pass when a `lint-allow.toml` entry covers
    /// this finding; carries the entry's justification.
    pub suppressed_by: Option<String>,
}

impl Finding {
    /// Builds an unsuppressed finding.
    pub fn new(
        rule: &'static str,
        path: &str,
        line: u32,
        col: u32,
        message: String,
        line_text: &str,
    ) -> Self {
        Finding {
            rule,
            path: path.to_string(),
            line,
            col,
            message,
            line_text: line_text.to_string(),
            suppressed_by: None,
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "error[{}]: {}", self.rule, self.message)?;
        writeln!(f, "  --> {}:{}:{}", self.path, self.line, self.col)?;
        let trimmed = self.line_text.trim_end();
        if !trimmed.is_empty() {
            writeln!(f, "   | {trimmed}")?;
        }
        if let Some(reason) = &self.suppressed_by {
            writeln!(f, "   = allowed: {reason}")?;
        }
        Ok(())
    }
}

/// Deterministic ordering for reports: path, then line, then rule.
pub(crate) fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.rule).cmp(&(b.path.as_str(), b.line, b.col, b.rule))
    });
}
