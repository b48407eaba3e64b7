//! TCBF-U001 fixture: the library of crate `demo`.  Each `pub` item
//! names the caller that keeps it public; two have none.

/// Named nowhere outside `demo`: a finding.
pub fn uncalled() {}

/// Called only from another crate's integration tests.
pub fn tested_elsewhere() {}

/// Called from another crate; its signature reaches `Settings`.
pub fn configure() -> Settings {
    Settings {
        level: Level::Low,
        hidden: Hidden,
    }
}

/// Named only in the signature of `configure`.
pub struct Settings {
    /// A `pub` field: reaches `Level`.
    pub level: Level,
    hidden: Hidden,
}

/// Named only in a `pub` field of `Settings`.
pub enum Level {
    Low,
    High,
}

/// Named only in a private field: a finding.
pub struct Hidden;

/// Called only from this crate's own binary target.
pub fn fmt_opt(value: Option<f64>) -> String {
    value.map_or_else(|| "-".into(), |v| format!("{v:.1}"))
}

mod detail {
    /// Reached only through the re-export below.
    pub fn helper() {}
}

/// Callers reach `helper` only through this re-export.
pub use detail::helper;

/// Already narrowed: never a finding.
pub(crate) fn internal() {}

#[cfg(test)]
mod tests {
    /// Test code is not API.
    pub fn fixture_only() {}
}
