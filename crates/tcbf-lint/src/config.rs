//! Lint scope configuration.
//!
//! The default configuration IS the project policy (the scopes named in
//! docs/LINTS.md).  Fixture tests build custom configs so each rule can
//! be exercised against a synthetic file without dragging the real
//! workspace layout along.
//!
//! Path lists use one convention throughout: an entry ending in `/` is a
//! directory prefix, anything else is an exact workspace-relative path.

use crate::diagnostics::Finding;
use crate::rules::determinism::D002;

/// Scope configuration of the per-file rule (TCBF-D002), and the waivers
/// of every rule.
#[derive(Clone, Debug)]
pub struct LintConfig {
    /// Files where float reductions are checked (TCBF-D002)…
    pub float_scope: Vec<String>,
    /// …minus the approved micro-kernel modules, whose summation order
    /// is the pinned reference semantics itself.
    pub float_approved: Vec<String>,
    /// The findings the project accepts, each with its reason.  A waiver
    /// that matches no finding is stale, and `--deny-all` rejects it.
    pub waivers: Vec<Waiver>,
}

/// One accepted finding: `rule` on `path` (prefix or exact), on a line
/// that contains `pattern` (`""` matches every line), for `reason`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Waiver {
    /// Rule ID the waiver covers.
    pub rule: &'static str,
    /// Exact path, or a `/`-terminated directory prefix.
    pub path: String,
    /// Substring the flagged line must contain.
    pub pattern: String,
    /// Why the finding is accepted; shown with it.
    pub reason: String,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig {
            float_scope: vec![
                "crates/ccglib/src/".into(),
                "crates/beamform/src/".into(),
                "crates/tcbf-serve/src/".into(),
            ],
            float_approved: vec![
                "crates/ccglib/src/gemm.rs".into(),
                "crates/ccglib/src/reference.rs".into(),
            ],
            // The sum runs sequentially in sample order, a deterministic
            // function of the input; rewriting it through the approved
            // tree reduction would change the values tests compare
            // against, which is what D002 exists to stop happening silently.
            waivers: vec![Waiver {
                rule: D002,
                path: "crates/beamform/src/beamformer.rs".into(),
                pattern: ".sum::<f64>()".into(),
                reason: "Beamformer::beam_power: mean power of one beam, summed sequentially over its samples in index order; deterministic for a given output matrix, and a diagnostic read-out the beam-localisation tests rank beams by, not part of the beamformed data".into(),
            }],
        }
    }
}

impl LintConfig {
    /// True when `path` matches an entry of `list` (prefix or exact).
    pub(crate) fn path_in(path: &str, list: &[String]) -> bool {
        list.iter().any(|entry| {
            if entry.ends_with('/') {
                path.starts_with(entry.as_str())
            } else {
                path == entry
            }
        })
    }

    /// Is the file in scope for float-reduction checks?
    pub(crate) fn in_float_scope(&self, path: &str) -> bool {
        Self::path_in(path, &self.float_scope) && !Self::path_in(path, &self.float_approved)
    }

    /// Marks every finding a waiver covers with the waiver's reason and
    /// returns the waivers that covered none.
    pub fn waive(&self, findings: &mut [Finding]) -> Vec<Waiver> {
        let mut used = vec![false; self.waivers.len()];
        for finding in findings {
            let covers = |w: &Waiver| {
                w.rule == finding.rule
                    && Self::path_in(&finding.path, std::slice::from_ref(&w.path))
                    && finding.line_text.contains(&w.pattern)
            };
            if let Some(i) = self.waivers.iter().position(covers) {
                finding.suppressed_by = Some(self.waivers[i].reason.clone());
                used[i] = true;
            }
        }
        let stale = self.waivers.iter().zip(used).filter(|(_, used)| !used);
        stale.map(|(w, _)| w.clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_and_exact_matching() {
        let cfg = LintConfig::default();
        assert!(cfg.in_float_scope("crates/beamform/src/session.rs"));
        assert!(!cfg.in_float_scope("crates/ccglib/src/gemm.rs"));
    }

    #[test]
    fn a_waiver_covers_its_rule_path_and_pattern_and_is_stale_otherwise() {
        let waiver = |path: &str, pattern: &str| Waiver {
            rule: D002,
            path: path.into(),
            pattern: pattern.into(),
            reason: "why".into(),
        };
        let cfg = LintConfig {
            waivers: vec![
                waiver("crates/x/", "needle"),
                waiver("crates/x/src/b.rs", "haystack"),
                waiver("crates/y/src/a.rs", ""),
            ],
            ..LintConfig::default()
        };
        let finding = |rule, path, line| Finding::new(rule, path, 1, 1, "msg".into(), line);
        let mut findings = [
            finding(D002, "crates/x/src/a.rs", "has needle here"),
            finding(D002, "crates/x/src/b.rs", "nothing"),
            finding("TCBF-U001", "crates/y/src/a.rs", "any line"),
        ];
        let stale = cfg.waive(&mut findings);
        let reasons: Vec<_> = findings
            .iter()
            .map(|f| f.suppressed_by.as_deref())
            .collect();
        assert_eq!(reasons, [Some("why"), None, None]);
        assert_eq!(stale, cfg.waivers[1..]);
    }

    #[test]
    fn every_default_path_names_something_in_the_workspace() {
        // A deleted module must not leave a dead waiver behind.
        let root = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
        let cfg = LintConfig::default();
        let waived = cfg.waivers.iter().map(|w| w.path.clone()).collect();
        let lists = [cfg.float_scope, cfg.float_approved, waived];
        for entry in lists.iter().flatten() {
            let path = root.join(entry);
            let found = if entry.ends_with('/') {
                path.is_dir()
            } else {
                path.is_file()
            };
            assert!(found, "{entry} is in LintConfig::default() and not on disk");
        }
        for waiver in &LintConfig::default().waivers {
            assert!(
                !waiver.reason.trim().is_empty(),
                "{waiver:?} gives no reason"
            );
        }
    }
}
