//! Error-code stability: TCBF-E001, TCBF-E002.
//!
//! `TcbfError::code()` values are wire protocol (clients match on them,
//! docs/PROTOCOL.md pins them), so the error enum is append-only: every
//! variant must have an explicit arm in `code()` (no `_ =>` catch-all
//! that would silently absorb a new variant) and a mention in the
//! protocol document.

use crate::diagnostics::Finding;
use crate::lexer::TokenKind;
use crate::source::SourceFile;

/// A `TcbfError` variant lacks an explicit arm in `fn code()`, or the
/// match hides behind a wildcard.
pub(crate) const E001: &str = "TCBF-E001";
/// A `TcbfError` variant is not documented in `docs/PROTOCOL.md`.
pub(crate) const E002: &str = "TCBF-E002";

/// One enum variant with its location.
#[derive(Debug)]
pub(crate) struct Variant {
    /// Variant name.
    pub name: String,
    /// 1-based line of the variant in the error file.
    pub line: u32,
    /// Column of the variant name.
    pub col: u32,
    /// Full source line, for diagnostics/allowlist patterns.
    pub line_text: String,
}

/// Checks `error_file` (crates/ccglib/src/error.rs) against
/// `protocol_text` (docs/PROTOCOL.md contents, `None` when missing).
pub fn check(error_file: &SourceFile, protocol_text: Option<&str>, out: &mut Vec<Finding>) {
    let variants = enum_variants(error_file, "TcbfError");
    if variants.is_empty() {
        out.push(Finding::new(
            E001,
            &error_file.path,
            1,
            1,
            "could not locate `enum TcbfError` — the error-code stability rules have nothing to check".into(),
            "",
        ));
        return;
    }

    match fn_body_range(error_file, "code") {
        None => out.push(Finding::new(
            E001,
            &error_file.path,
            1,
            1,
            "could not locate `fn code` — every TcbfError variant must have a pinned wire code"
                .into(),
            "",
        )),
        Some((body_start, body_end)) => {
            for v in &variants {
                let mentioned = (body_start..body_end).any(|j| {
                    error_file.sig_kind(j) == Some(TokenKind::Ident)
                        && error_file.sig_text(j) == v.name
                });
                if !mentioned {
                    out.push(Finding::new(
                        E001,
                        &error_file.path,
                        v.line,
                        v.col,
                        format!(
                            "variant `{}` has no explicit arm in `fn code()` — wire codes are append-only",
                            v.name
                        ),
                        &v.line_text,
                    ));
                }
            }
            // A wildcard arm would let a future variant silently reuse a
            // code; require full enumeration.
            for j in body_start..body_end {
                if error_file.sig_kind(j) == Some(TokenKind::Ident)
                    && error_file.sig_text(j) == "_"
                    && error_file.sig_kind(j + 1) == Some(TokenKind::Punct('='))
                    && error_file.sig_kind(j + 2) == Some(TokenKind::Punct('>'))
                {
                    let (line, col) = error_file.sig_pos(j);
                    out.push(Finding::new(
                        E001,
                        &error_file.path,
                        line,
                        col,
                        "`fn code()` contains a wildcard arm — each variant must be matched explicitly".into(),
                        error_file.line_text(error_file.sig_token(j).map(|t| t.start).unwrap_or(0)),
                    ));
                }
            }
        }
    }

    match protocol_text {
        None => out.push(Finding::new(
            E002,
            &error_file.path,
            1,
            1,
            "docs/PROTOCOL.md is missing — error codes must be documented".into(),
            "",
        )),
        Some(doc) => {
            for v in &variants {
                if !contains_word(doc, &v.name) {
                    out.push(Finding::new(
                        E002,
                        &error_file.path,
                        v.line,
                        v.col,
                        format!("variant `{}` is not mentioned in docs/PROTOCOL.md", v.name),
                        &v.line_text,
                    ));
                }
            }
        }
    }
}

/// Extracts the variant names of `enum <name> { ... }`.
pub(crate) fn enum_variants(file: &SourceFile, name: &str) -> Vec<Variant> {
    let mut variants = Vec::new();
    // Find `enum <name> {`.
    let mut open = None;
    for i in 0..file.sig_len() {
        if file.sig_text(i) == "enum" && file.sig_text(i + 1) == name {
            let mut j = i + 2;
            // Skip generics if any, then find the `{`.
            while j < file.sig_len() {
                if file.sig_kind(j) == Some(TokenKind::Open('{')) {
                    open = Some(j);
                    break;
                }
                if file.sig_kind(j) == Some(TokenKind::Punct(';')) {
                    break;
                }
                j += 1;
            }
            break;
        }
    }
    let Some(open) = open else {
        return variants;
    };

    // Walk the enum body at relative depth 0, collecting variant names
    // and skipping attributes and payloads.
    let mut j = open + 1;
    let mut depth = 0isize; // nesting relative to the enum body
    let mut at_variant_start = true;
    while j < file.sig_len() {
        match file.sig_kind(j) {
            Some(TokenKind::Open(_)) => depth += 1,
            Some(TokenKind::Close('}')) if depth == 0 => break,
            Some(TokenKind::Close(_)) => depth -= 1,
            // Skip a `#[...]` attribute group before a variant.
            Some(TokenKind::Punct('#'))
                if depth == 0
                    && at_variant_start
                    && file.sig_kind(j + 1) == Some(TokenKind::Open('[')) =>
            {
                let mut d = 0isize;
                j += 1;
                while j < file.sig_len() {
                    match file.sig_kind(j) {
                        Some(TokenKind::Open('[')) => d += 1,
                        Some(TokenKind::Close(']')) => {
                            d -= 1;
                            if d == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
            }
            Some(TokenKind::Ident) if depth == 0 && at_variant_start => {
                let (line, col) = file.sig_pos(j);
                let start = file.sig_token(j).map(|t| t.start).unwrap_or(0);
                variants.push(Variant {
                    name: file.sig_text(j).to_string(),
                    line,
                    col,
                    line_text: file.line_text(start).to_string(),
                });
                at_variant_start = false;
            }
            Some(TokenKind::Punct(',')) if depth == 0 => at_variant_start = true,
            _ => {}
        }
        j += 1;
    }
    variants
}

/// Sig-index range (exclusive end) of the body of `fn <name>`.
fn fn_body_range(file: &SourceFile, name: &str) -> Option<(usize, usize)> {
    for i in 0..file.sig_len() {
        if file.sig_text(i) == "fn" && file.sig_text(i + 1) == name {
            // Find the body `{` (skipping the signature).
            let mut j = i + 2;
            while j < file.sig_len() && file.sig_kind(j) != Some(TokenKind::Open('{')) {
                if file.sig_kind(j) == Some(TokenKind::Punct(';')) {
                    return None; // trait method without body
                }
                j += 1;
            }
            let open = j;
            let mut depth = 0isize;
            while j < file.sig_len() {
                match file.sig_kind(j) {
                    Some(TokenKind::Open('{')) => depth += 1,
                    Some(TokenKind::Close('}')) => {
                        depth -= 1;
                        if depth == 0 {
                            return Some((open + 1, j));
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            return Some((open + 1, file.sig_len()));
        }
    }
    None
}

/// Word-boundary substring search, so variant `Internal` is not
/// satisfied by the word "internally".
fn contains_word(haystack: &str, needle: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = haystack[from..].find(needle) {
        let at = from + pos;
        let before_ok = haystack[..at]
            .chars()
            .next_back()
            .is_none_or(|c| !c.is_alphanumeric());
        let after_ok = haystack[at + needle.len()..]
            .chars()
            .next()
            .is_none_or(|c| !c.is_alphanumeric());
        if before_ok && after_ok {
            return true;
        }
        from = at + needle.len();
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_boundaries() {
        assert!(contains_word("code 14: Internal error", "Internal"));
        assert!(!contains_word("handled internally", "Internal"));
        assert!(!contains_word("InternalFrobnicator", "Internal"));
    }

    #[test]
    fn variant_extraction_with_payloads_and_attributes() {
        let src = r#"
pub enum E {
    /// Doc comment.
    Unit,
    Tuple(u32, String),
    #[allow(dead_code)]
    Struct { field: Vec<u8>, nested: Option<(u8, u8)> },
    Last,
}
"#;
        let f = SourceFile::new("e.rs".into(), src.into());
        let names: Vec<String> = enum_variants(&f, "E").into_iter().map(|v| v.name).collect();
        assert_eq!(names, vec!["Unit", "Tuple", "Struct", "Last"]);
    }
}
