//! Determinism lint: TCBF-D002.
//!
//! The conformance suite pins bit-identical reports across runs and
//! across the serve path (ROADMAP: determinism is a tier-1 contract).
//! This rule flags one way that contract erodes: reassociating float
//! reductions.  Reading the clock on the result path is clippy's
//! `disallowed_methods` (the root `clippy.toml`).

use crate::config::LintConfig;
use crate::diagnostics::Finding;
use crate::lexer::TokenKind;
use crate::source::SourceFile;

/// Float reduction (`.sum::<f32>()`, float `.fold(...)`) outside the
/// approved micro-kernel modules — addition order is semantics here.
pub(crate) const D002: &str = "TCBF-D002";

/// Runs the float-reduction rule over one file.
pub fn check(file: &SourceFile, cfg: &LintConfig, out: &mut Vec<Finding>) {
    if !cfg.in_float_scope(&file.path) {
        return;
    }
    for i in 0..file.sig_len() {
        let Some(tok) = file.sig_token(i) else {
            continue;
        };
        if file.in_test_code(tok.start) {
            continue;
        }
        if file.sig_kind(i) != Some(TokenKind::Punct('.')) {
            continue;
        }
        let method = file.sig_text(i + 1);
        // `.sum::<f32>()` / `.product::<f64>()`.
        if (method == "sum" || method == "product")
            && file.sig_kind(i + 2) == Some(TokenKind::Punct(':'))
            && file.sig_kind(i + 3) == Some(TokenKind::Punct(':'))
            && file.sig_kind(i + 4) == Some(TokenKind::Punct('<'))
            && matches!(file.sig_text(i + 5), "f32" | "f64")
        {
            let (line, col) = file.sig_pos(i + 1);
            out.push(Finding::new(
                D002,
                &file.path,
                line,
                col,
                format!(
                    ".{method}::<{}>() outside the approved micro-kernel modules — float reduction order is semantics",
                    file.sig_text(i + 5)
                ),
                file.line_text(tok.start),
            ));
            continue;
        }
        // `.fold(init, ...)` with a float-ish init.
        if method == "fold" && file.sig_kind(i + 2) == Some(TokenKind::Open('(')) {
            if let Some(close) = matching_paren(file, i + 2) {
                let first_arg_end = first_comma(file, i + 2, close).unwrap_or(close);
                let init_is_float = (i + 3..first_arg_end).any(|j| {
                    let t = file.sig_text(j);
                    t == "f32"
                        || t == "f64"
                        || (file.sig_kind(j) == Some(TokenKind::NumLit) && t.contains('.'))
                });
                // `fold(f32::NEG_INFINITY, f32::max)` is order-insensitive:
                // skip folds whose combiner is a min/max.
                let is_min_max = (first_arg_end..close)
                    .any(|j| matches!(file.sig_text(j), "max" | "min" | "maximum" | "minimum"));
                if init_is_float && !is_min_max {
                    let (line, col) = file.sig_pos(i + 1);
                    out.push(Finding::new(
                        D002,
                        &file.path,
                        line,
                        col,
                        "float .fold(...) outside the approved micro-kernel modules — reduction order is semantics"
                            .into(),
                        file.line_text(tok.start),
                    ));
                }
            }
        }
    }
}

/// Given the sig-index of a `(`, returns the sig-index of its match.
fn matching_paren(file: &SourceFile, open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for j in open..file.sig_len() {
        match file.sig_kind(j) {
            Some(TokenKind::Open('(')) => depth += 1,
            Some(TokenKind::Close(')')) => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
    }
    None
}

/// First `,` at paren depth 1 between `open` and `close` (sig indices).
fn first_comma(file: &SourceFile, open: usize, close: usize) -> Option<usize> {
    let mut depth = 0usize;
    for j in open..close {
        match file.sig_kind(j) {
            Some(TokenKind::Open('(') | TokenKind::Open('[') | TokenKind::Open('{')) => depth += 1,
            Some(TokenKind::Close(')') | TokenKind::Close(']') | TokenKind::Close('}')) => {
                depth = depth.saturating_sub(1)
            }
            Some(TokenKind::Punct(',')) if depth == 1 => return Some(j),
            _ => {}
        }
    }
    None
}
