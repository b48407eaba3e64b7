//! Lint scope configuration.
//!
//! The default configuration IS the project policy (the scopes named in
//! docs/LINTS.md).  Fixture tests build custom configs so each rule can
//! be exercised against a synthetic file without dragging the real
//! workspace layout along.
//!
//! Path lists use one convention throughout: an entry ending in `/` is a
//! directory prefix, anything else is an exact workspace-relative path.

/// Scope configuration for all rules.
#[derive(Clone, Debug)]
pub struct LintConfig {
    /// Files under the serve-path panic-freedom contract
    /// (TCBF-P001/P002/P003): no panics outside test code.
    pub serve_path: Vec<String>,
    /// Files where float reductions are checked (TCBF-D002)…
    pub float_scope: Vec<String>,
    /// …minus the approved micro-kernel modules, whose summation order
    /// is the pinned reference semantics itself.
    pub float_approved: Vec<String>,
    /// Timing modules allowed to call `Instant::now` (TCBF-D004).
    pub instant_allowed: Vec<String>,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig {
            serve_path: vec![
                "crates/tcbf-serve/src/".into(),
                "crates/beamform/src/engine.rs".into(),
                "crates/beamform/src/shard.rs".into(),
            ],
            float_scope: vec![
                "crates/ccglib/src/".into(),
                "crates/beamform/src/".into(),
                "crates/tcbf-serve/src/".into(),
            ],
            float_approved: vec![
                "crates/ccglib/src/gemm.rs".into(),
                "crates/ccglib/src/reference.rs".into(),
            ],
            instant_allowed: vec!["crates/tcbf-serve/src/".into(), "crates/bench/src/".into()],
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

    /// Is the file under the serve-path panic-freedom contract?
    pub(crate) fn in_serve_path(&self, path: &str) -> bool {
        Self::path_in(path, &self.serve_path)
    }

    /// Is the file in scope for float-reduction checks?
    pub(crate) fn in_float_scope(&self, path: &str) -> bool {
        Self::path_in(path, &self.float_scope) && !Self::path_in(path, &self.float_approved)
    }

    /// May the file call `Instant::now`?
    pub fn instant_allowed(&self, path: &str) -> bool {
        Self::path_in(path, &self.instant_allowed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_and_exact_matching() {
        let cfg = LintConfig::default();
        assert!(cfg.in_serve_path("crates/tcbf-serve/src/pool.rs"));
        assert!(cfg.in_serve_path("crates/tcbf-serve/src/bin/tcbf_serve.rs"));
        assert!(cfg.in_serve_path("crates/beamform/src/engine.rs"));
        assert!(!cfg.in_serve_path("crates/beamform/src/session.rs"));
        assert!(cfg.in_float_scope("crates/beamform/src/session.rs"));
        assert!(!cfg.in_float_scope("crates/ccglib/src/gemm.rs"));
        assert!(cfg.instant_allowed("crates/bench/src/lib.rs"));
        assert!(!cfg.instant_allowed("crates/tuner/src/lib.rs"));
    }

    #[test]
    fn every_default_path_names_something_in_the_workspace() {
        // A deleted module must not leave a dead waiver behind.
        let root = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
        let cfg = LintConfig::default();
        let lists = [
            &cfg.serve_path,
            &cfg.float_scope,
            &cfg.float_approved,
            &cfg.instant_allowed,
        ];
        for entry in lists.into_iter().flatten() {
            let path = root.join(entry);
            let found = if entry.ends_with('/') {
                path.is_dir()
            } else {
                path.is_file()
            };
            assert!(found, "{entry} is in LintConfig::default() and not on disk");
        }
    }
}
