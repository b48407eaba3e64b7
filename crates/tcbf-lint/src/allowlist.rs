//! `lint-allow.toml` — the single, annotated suppression file.
//!
//! Format (a deliberately small TOML subset, parsed by hand so the
//! linter stays dependency-free):
//!
//! ```toml
//! # Comments explain the policy; each entry carries its own reason.
//! [[allow]]
//! rule = "TCBF-D002"
//! path = "crates/beamform/src/engine.rs"
//! pattern = ".sum::<f32>()"          # optional: substring of the line
//! reason = "sequential fold in fixed plan order — deterministic"
//! ```
//!
//! - `rule` and `path` are exact matches; `path` may end in `/` to
//!   cover a directory prefix.
//! - `pattern`, when present, must be a substring of the flagged line.
//! - `reason` is **mandatory and non-empty**: a suppression without a
//!   justification is a configuration error (exit code 2), which is what
//!   keeps the allowlist reviewable instead of a mute button.
//! - Entries that match nothing are reported as stale so the file
//!   cannot silently rot.

use crate::diagnostics::Finding;

/// One `[[allow]]` entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AllowEntry {
    /// Rule ID the entry suppresses.
    pub rule: String,
    /// Exact path, or a `/`-terminated directory prefix.
    pub path: String,
    /// Optional substring that must appear on the flagged line.
    pub pattern: Option<String>,
    /// Mandatory human justification.
    pub reason: String,
    /// 1-based line in lint-allow.toml, for error reporting.
    pub defined_at: u32,
}

/// Parsed allowlist plus match bookkeeping.
#[derive(Debug, Default)]
pub struct Allowlist {
    /// Entries in file order.
    pub entries: Vec<AllowEntry>,
}

/// A fatal problem in the allowlist file itself.
#[derive(Debug, PartialEq, Eq)]
pub struct AllowlistError {
    /// 1-based line where the problem was detected.
    pub line: u32,
    /// What is wrong.
    pub message: String,
}

impl std::fmt::Display for AllowlistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lint-allow.toml:{}: {}", self.line, self.message)
    }
}

impl Allowlist {
    /// Parses the TOML-subset allowlist. Returns every structural error
    /// at once rather than bailing on the first.
    pub fn parse(text: &str) -> Result<Allowlist, Vec<AllowlistError>> {
        let mut entries: Vec<AllowEntry> = Vec::new();
        let mut errors: Vec<AllowlistError> = Vec::new();
        let mut current: Option<AllowEntry> = None;

        let mut finish = |entry: Option<AllowEntry>, errors: &mut Vec<AllowlistError>| {
            if let Some(e) = entry {
                if e.rule.is_empty() {
                    errors.push(AllowlistError {
                        line: e.defined_at,
                        message: "entry is missing `rule`".into(),
                    });
                } else if e.path.is_empty() {
                    errors.push(AllowlistError {
                        line: e.defined_at,
                        message: "entry is missing `path`".into(),
                    });
                } else if e.reason.trim().is_empty() {
                    errors.push(AllowlistError {
                        line: e.defined_at,
                        message: format!(
                            "entry for {} on {} has no `reason` — every suppression must be justified",
                            e.rule, e.path
                        ),
                    });
                } else {
                    entries.push(e);
                }
            }
        };

        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx as u32 + 1;
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if line == "[[allow]]" {
                finish(current.take(), &mut errors);
                current = Some(AllowEntry {
                    rule: String::new(),
                    path: String::new(),
                    pattern: None,
                    reason: String::new(),
                    defined_at: lineno,
                });
                continue;
            }
            if line.starts_with('[') {
                errors.push(AllowlistError {
                    line: lineno,
                    message: format!(
                        "unsupported table `{line}` (only [[allow]] entries are allowed)"
                    ),
                });
                current = None;
                continue;
            }
            let Some((key, value)) = parse_kv(line) else {
                errors.push(AllowlistError {
                    line: lineno,
                    message: format!("cannot parse line `{line}` (expected `key = \"value\"`)"),
                });
                continue;
            };
            let Some(entry) = current.as_mut() else {
                errors.push(AllowlistError {
                    line: lineno,
                    message: format!("`{key}` outside any [[allow]] entry"),
                });
                continue;
            };
            match key {
                "rule" => entry.rule = value,
                "path" => entry.path = value,
                "pattern" => entry.pattern = Some(value),
                "reason" => entry.reason = value,
                other => errors.push(AllowlistError {
                    line: lineno,
                    message: format!("unknown key `{other}` (expected rule/path/pattern/reason)"),
                }),
            }
        }
        finish(current.take(), &mut errors);

        if errors.is_empty() {
            Ok(Allowlist { entries })
        } else {
            Err(errors)
        }
    }

    /// Marks every finding covered by an entry as suppressed and returns
    /// the (1-based) indices of entries that matched nothing.
    pub fn apply(&self, findings: &mut [Finding]) -> Vec<&AllowEntry> {
        let mut used = vec![false; self.entries.len()];
        for finding in findings.iter_mut() {
            for (i, entry) in self.entries.iter().enumerate() {
                if entry.matches(finding) {
                    finding.suppressed_by = Some(entry.reason.clone());
                    used[i] = true;
                    break;
                }
            }
        }
        self.entries
            .iter()
            .zip(used)
            .filter(|(_, u)| !u)
            .map(|(e, _)| e)
            .collect()
    }
}

impl AllowEntry {
    /// True when this entry covers the finding.
    pub fn matches(&self, finding: &Finding) -> bool {
        if self.rule != finding.rule {
            return false;
        }
        let path_ok = if self.path.ends_with('/') {
            finding.path.starts_with(&self.path)
        } else {
            finding.path == self.path
        };
        if !path_ok {
            return false;
        }
        match &self.pattern {
            Some(p) => finding.line_text.contains(p.as_str()),
            None => true,
        }
    }
}

/// Strips a `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parses `key = "value"`; returns None on anything else.
fn parse_kv(line: &str) -> Option<(&str, String)> {
    let (key, rest) = line.split_once('=')?;
    let key = key.trim();
    let rest = rest.trim();
    if !rest.starts_with('"') || !rest.ends_with('"') || rest.len() < 2 {
        return None;
    }
    let body = &rest[1..rest.len() - 1];
    // Minimal escape handling: \" and \\.
    let mut value = String::with_capacity(body.len());
    let mut chars = body.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('"') => value.push('"'),
                Some('\\') => value.push('\\'),
                Some(other) => {
                    value.push('\\');
                    value.push(other);
                }
                None => value.push('\\'),
            }
        } else {
            value.push(c);
        }
    }
    Some((key, value))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, path: &str, line_text: &str) -> Finding {
        Finding::new(rule, path, 1, 1, "msg".into(), line_text)
    }

    #[test]
    fn parses_entries_and_matches() {
        let toml = r#"
# policy header comment
[[allow]]
rule = "TCBF-D002"
path = "crates/beamform/src/engine.rs"
pattern = ".sum::<f32>()"  # trailing comment
reason = "fixed plan order"
"#;
        let allow = Allowlist::parse(toml).unwrap();
        assert_eq!(allow.entries.len(), 1);
        let mut fs = vec![finding(
            "TCBF-D002",
            "crates/beamform/src/engine.rs",
            "let x: f32 = v.iter().sum::<f32>();",
        )];
        let stale = allow.apply(&mut fs);
        assert!(stale.is_empty());
        assert_eq!(fs[0].suppressed_by.as_deref(), Some("fixed plan order"));
    }

    #[test]
    fn missing_reason_is_an_error() {
        let toml = "[[allow]]\nrule = \"TCBF-D002\"\npath = \"a.rs\"\n";
        let errs = Allowlist::parse(toml).unwrap_err();
        assert_eq!(errs.len(), 1);
        assert!(errs[0].message.contains("reason"));
    }

    #[test]
    fn directory_prefix_paths() {
        let toml = "[[allow]]\nrule = \"R\"\npath = \"crates/x/\"\nreason = \"y\"\n";
        let allow = Allowlist::parse(toml).unwrap();
        assert!(allow.entries[0].matches(&finding("R", "crates/x/src/a.rs", "")));
        assert!(!allow.entries[0].matches(&finding("R", "crates/y/src/a.rs", "")));
    }

    #[test]
    fn stale_entries_are_reported() {
        let toml = "[[allow]]\nrule = \"R\"\npath = \"never.rs\"\nreason = \"y\"\n";
        let allow = Allowlist::parse(toml).unwrap();
        let mut fs: Vec<Finding> = Vec::new();
        let stale = allow.apply(&mut fs);
        assert_eq!(stale.len(), 1);
    }

    #[test]
    fn pattern_must_match_the_line() {
        let toml =
            "[[allow]]\nrule = \"R\"\npath = \"a.rs\"\npattern = \"needle\"\nreason = \"y\"\n";
        let allow = Allowlist::parse(toml).unwrap();
        assert!(allow.entries[0].matches(&finding("R", "a.rs", "has needle here")));
        assert!(!allow.entries[0].matches(&finding("R", "a.rs", "nothing")));
    }

    #[test]
    fn bad_syntax_collects_errors() {
        let toml = "rule = \"orphan\"\n[garbage]\n[[allow]]\nnot a kv line\n";
        let errs = Allowlist::parse(toml).unwrap_err();
        assert!(errs.len() >= 3);
    }
}
