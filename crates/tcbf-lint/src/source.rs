//! Per-file source model the rule reads.
//!
//! Wraps the raw token stream from [`crate::lexer`] with the derived
//! views the rule needs: the significant (non-trivia) token sequence,
//! and a map of which byte ranges belong to test code (`#[cfg(test)]
//! mod ...` bodies and `#[test]` functions), so U001 does not count a
//! `pub` item declared in test code as API.

use crate::lexer::{self, Token, TokenKind};

/// A lexed source file plus derived lookup structures.
pub(crate) struct SourceFile {
    /// Workspace-relative path, used verbatim in diagnostics.
    pub path: String,
    /// The full file contents.
    pub text: String,
    /// Every token, including whitespace and comments (lossless).
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of the significant (non-trivia) tokens.
    pub sig: Vec<usize>,
    /// Byte ranges covered by test-only code.
    test_regions: Vec<(usize, usize)>,
}

impl SourceFile {
    /// Lexes `text` and computes the derived views.
    pub fn new(path: String, text: String) -> Self {
        let tokens = lexer::lex(&text);
        let sig: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.is_trivia())
            .map(|(i, _)| i)
            .collect();
        let mut file = SourceFile {
            path,
            text,
            tokens,
            sig,
            test_regions: Vec::new(),
        };
        file.test_regions = file.find_test_regions();
        file
    }

    /// The text of the significant token at sig-index `i`.
    pub(crate) fn sig_text(&self, i: usize) -> &str {
        self.sig
            .get(i)
            .and_then(|&ti| self.tokens.get(ti))
            .map(|t| t.text(&self.text))
            .unwrap_or("")
    }

    /// The kind of the significant token at sig-index `i`.
    pub(crate) fn sig_kind(&self, i: usize) -> Option<TokenKind> {
        self.sig
            .get(i)
            .and_then(|&ti| self.tokens.get(ti))
            .map(|t| t.kind)
    }

    /// The token behind sig-index `i`.
    pub(crate) fn sig_token(&self, i: usize) -> Option<&Token> {
        self.sig.get(i).and_then(|&ti| self.tokens.get(ti))
    }

    /// Number of significant tokens.
    pub(crate) fn sig_len(&self) -> usize {
        self.sig.len()
    }

    /// True when the byte offset falls inside test-only code.
    pub(crate) fn in_test_code(&self, byte: usize) -> bool {
        self.test_regions
            .iter()
            .any(|&(start, end)| byte >= start && byte < end)
    }

    /// The 1-based (line, col) of the significant token at sig-index `i`.
    pub(crate) fn sig_pos(&self, i: usize) -> (u32, u32) {
        self.sig_token(i).map(|t| (t.line, t.col)).unwrap_or((0, 0))
    }

    /// Finds `#[cfg(test)] mod`/`#[test] fn` regions by walking the
    /// significant tokens and brace-matching the bodies that follow.
    fn find_test_regions(&self) -> Vec<(usize, usize)> {
        let mut regions = Vec::new();
        let mut i = 0;
        while i < self.sig.len() {
            if let Some(attr_end) = self.match_test_attribute(i) {
                // Scan forward from the attribute for the item's opening
                // brace, then brace-match to its close.
                if let Some((open, close)) = self.body_after(attr_end) {
                    let start = self.sig_token(i).map(|t| t.start).unwrap_or(open);
                    regions.push((start, close));
                    i = attr_end;
                    continue;
                }
            }
            i += 1;
        }
        regions
    }

    /// If sig-index `i` starts `#[cfg(test)]` or `#[test]`, returns the
    /// sig-index one past the closing `]`.
    fn match_test_attribute(&self, i: usize) -> Option<usize> {
        if self.sig_kind(i) != Some(TokenKind::Punct('#'))
            || self.sig_kind(i + 1) != Some(TokenKind::Open('['))
        {
            return None;
        }
        let is_test = match self.sig_text(i + 2) {
            "test" => self.sig_kind(i + 3) == Some(TokenKind::Close(']')),
            "cfg" => {
                self.sig_kind(i + 3) == Some(TokenKind::Open('('))
                    && self.sig_text(i + 4) == "test"
                    && self.sig_kind(i + 5) == Some(TokenKind::Close(')'))
                    && self.sig_kind(i + 6) == Some(TokenKind::Close(']'))
            }
            _ => false,
        };
        if !is_test {
            return None;
        }
        // Walk to the closing `]` (depth-matched; the checks above already
        // pinned the shape, this just finds the index).
        let mut depth = 0usize;
        let mut j = i + 1;
        while j < self.sig.len() {
            match self.sig_kind(j) {
                Some(TokenKind::Open('[')) => depth += 1,
                Some(TokenKind::Close(']')) => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return Some(j + 1);
                    }
                }
                _ => {}
            }
            j += 1;
        }
        None
    }

    /// From sig-index `from`, finds the next `{` at statement level
    /// (skipping further attributes, visibility, the item header) and
    /// returns the byte range (open_brace_start, close_brace_end).
    fn body_after(&self, from: usize) -> Option<(usize, usize)> {
        let mut j = from;
        // Skip any further attributes between the test attribute and the item.
        while self.sig_kind(j) == Some(TokenKind::Punct('#'))
            && self.sig_kind(j + 1) == Some(TokenKind::Open('['))
        {
            let mut depth = 0usize;
            let mut k = j + 1;
            loop {
                match self.sig_kind(k) {
                    Some(TokenKind::Open('[')) => depth += 1,
                    Some(TokenKind::Close(']')) => {
                        depth = depth.saturating_sub(1);
                        if depth == 0 {
                            break;
                        }
                    }
                    None => return None,
                    _ => {}
                }
                k += 1;
            }
            j = k + 1;
        }
        // Find the opening brace of the item body; stop at `;` (e.g. a
        // `#[cfg(test)] use ...;` has no body worth marking).
        while j < self.sig.len() {
            match self.sig_kind(j) {
                Some(TokenKind::Open('{')) => {
                    let open = self.sig_token(j)?.start;
                    let close = self.matching_close(j)?;
                    return Some((open, close));
                }
                Some(TokenKind::Punct(';')) => return None,
                _ => j += 1,
            }
        }
        None
    }

    /// Given the sig-index of an `{`, returns the byte offset one past its
    /// matching `}` (or EOF when unbalanced).
    fn matching_close(&self, open: usize) -> Option<usize> {
        let mut depth = 0usize;
        let mut j = open;
        while j < self.sig.len() {
            match self.sig_kind(j) {
                Some(TokenKind::Open('{')) => depth += 1,
                Some(TokenKind::Close('}')) => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return self.sig_token(j).map(|t| t.end);
                    }
                }
                _ => {}
            }
            j += 1;
        }
        Some(self.text.len())
    }

    /// The full text of the line containing byte offset `at` (for
    /// diagnostic snippets).
    pub(crate) fn line_text(&self, at: usize) -> &str {
        let start = self.text[..at.min(self.text.len())]
            .rfind('\n')
            .map(|p| p + 1)
            .unwrap_or(0);
        let end = self.text[start..]
            .find('\n')
            .map(|p| start + p)
            .unwrap_or(self.text.len());
        self.text.get(start..end).unwrap_or("")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_mod_is_a_test_region() {
        let src =
            "fn live() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); }\n}\n";
        let f = SourceFile::new("a.rs".into(), src.into());
        let live = src.find("x.unwrap").unwrap();
        let test = src.find("y.unwrap").unwrap();
        assert!(!f.in_test_code(live));
        assert!(f.in_test_code(test));
    }

    #[test]
    fn test_fn_is_a_test_region() {
        let src = "#[test]\nfn check() { z.unwrap(); }\nfn live() { w.unwrap(); }\n";
        let f = SourceFile::new("a.rs".into(), src.into());
        assert!(f.in_test_code(src.find("z.unwrap").unwrap()));
        assert!(!f.in_test_code(src.find("w.unwrap").unwrap()));
    }

    #[test]
    fn attribute_stacking_is_handled() {
        let src = "#[test]\n#[should_panic]\nfn boom() { panic!(\"x\"); }\nfn live() {}\n";
        let f = SourceFile::new("a.rs".into(), src.into());
        assert!(f.in_test_code(src.find("panic!").unwrap()));
        assert!(!f.in_test_code(src.find("fn live").unwrap()));
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let src = "#[cfg(feature = \"x\")]\nmod m { fn f() { a.unwrap(); } }\n";
        let f = SourceFile::new("a.rs".into(), src.into());
        assert!(!f.in_test_code(src.find("a.unwrap").unwrap()));
    }

    #[test]
    fn line_text_extraction() {
        let src = "first\nsecond line\nthird";
        let f = SourceFile::new("a.rs".into(), src.into());
        assert_eq!(f.line_text(src.find("second").unwrap() + 3), "second line");
    }
}
