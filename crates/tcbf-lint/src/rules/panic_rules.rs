//! Serve-path panic freedom: TCBF-P001, TCBF-P002, TCBF-P003.
//!
//! The serving stack's contract (ROADMAP: failover without process
//! death) is that a malformed request, a quarantined engine or a
//! protocol hiccup becomes a typed `TcbfError`, never a panic.  These
//! rules enforce that contract textually over the serve-path scope
//! ([`LintConfig::serve_path`]), skipping `#[cfg(test)]`/`#[test]`
//! regions where assertions are the point.

use crate::config::LintConfig;
use crate::diagnostics::Finding;
use crate::lexer::TokenKind;
use crate::source::SourceFile;

/// `.unwrap()` / `.expect(...)` in serve-path non-test code.
pub(crate) const P001: &str = "TCBF-P001";
/// Panicking macro (`panic!`, `unreachable!`, `todo!`, `unimplemented!`,
/// `assert!`-family) in serve-path non-test code.
pub(crate) const P002: &str = "TCBF-P002";
/// Slice/array indexing (`x[i]`) in serve-path non-test code — use
/// `.get()`/`.get_mut()` and surface a typed error instead.
pub(crate) const P003: &str = "TCBF-P003";

const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// Runs the three panic-freedom rules over one file.
pub fn check(file: &SourceFile, cfg: &LintConfig, out: &mut Vec<Finding>) {
    if !cfg.in_serve_path(&file.path) {
        return;
    }
    for i in 0..file.sig_len() {
        let Some(tok) = file.sig_token(i) else {
            continue;
        };
        if file.in_test_code(tok.start) {
            continue;
        }
        let text = file.sig_text(i);
        let (line, col) = (tok.line, tok.col);
        let snippet = file.line_text(tok.start);

        // TCBF-P001: `.unwrap()` / `.expect(` method calls, and the
        // path form passed as a function value (`.map(Option::unwrap)`).
        if text == "unwrap" || text == "expect" {
            let method_call = i > 0
                && file.sig_kind(i - 1) == Some(TokenKind::Punct('.'))
                && file.sig_kind(i + 1) == Some(TokenKind::Open('('));
            let path_form = i > 1
                && file.sig_kind(i - 1) == Some(TokenKind::Punct(':'))
                && file.sig_kind(i - 2) == Some(TokenKind::Punct(':'));
            if method_call || path_form {
                out.push(Finding::new(
                    P001,
                    &file.path,
                    line,
                    col,
                    format!("{text} on the serve path — return a typed error instead of panicking"),
                    snippet,
                ));
                continue;
            }
        }

        // TCBF-P002: panicking macros.
        if PANIC_MACROS.contains(&text) && file.sig_kind(i + 1) == Some(TokenKind::Punct('!')) {
            out.push(Finding::new(
                P002,
                &file.path,
                line,
                col,
                format!("{text}! on the serve path — panics must not cross the request boundary"),
                snippet,
            ));
            continue;
        }

        // TCBF-P003: indexing.  An `[` counts as an index expression when
        // it follows an identifier or a closing `)`/`]` (a value), which
        // keeps `vec![`, attributes `#[...]`, slice types `[f32; 4]` and
        // slice patterns out of scope.  A keyword before the bracket
        // (`&mut [u8]`, `for x in [..]`, `return [..]`) is not a value.
        const NON_VALUE_KEYWORDS: &[&str] = &[
            "mut", "dyn", "in", "as", "return", "break", "else", "match", "if", "while", "loop",
            "move", "ref", "const", "static", "impl",
        ];
        if tok.kind == TokenKind::Open('[')
            && i > 0
            && matches!(
                file.sig_kind(i - 1),
                Some(TokenKind::Ident) | Some(TokenKind::Close(')')) | Some(TokenKind::Close(']'))
            )
            && !(file.sig_kind(i - 1) == Some(TokenKind::Ident)
                && NON_VALUE_KEYWORDS.contains(&file.sig_text(i - 1)))
        {
            out.push(Finding::new(
                P003,
                &file.path,
                line,
                col,
                "indexing on the serve path can panic — use .get()/.get_mut() and surface a typed error".into(),
                snippet,
            ));
        }
    }
}
