//! Public means called: TCBF-U001.
//!
//! A `pub` item is API the workspace promises to a caller outside its
//! crate.  This rule flags every `pub` fn / struct / enum / trait /
//! const / type / static / union declared in a crate's library source
//! (`crates/<name>/src`, minus its `main.rs` and `src/bin/*` targets)
//! whose name occurs in no token stream outside that library: not in
//! another crate, not in any `tests/`, `benches/` or `examples/` file,
//! not in the crate's own binary targets.
//!
//! A type named in the interface (signature, `pub` field, variant
//! payload, trait body) of a reached `pub` item of the same crate counts
//! as reached too: narrowing it would trip rustc's `private_interfaces`
//! lint.  A plain `pub use` re-exports an item under its own name, so a
//! caller of the re-export names the item.
//!
//! A caller names an item through a path segment (`demo::f`, `Type::f`,
//! a `use` tree), a method call or field (`.f`), or a bare identifier.  A
//! bare identifier that its own file binds as a local — in a `let`
//! pattern, a closure's or a fn's parameters — names the local, not the
//! item, so it does not count.
//!
//! The check is by name, so it can miss (a method called `new` is
//! always "called"), but a hit is real: nothing outside the crate can
//! name the item.

use std::collections::{BTreeMap, BTreeSet};

use crate::diagnostics::Finding;
use crate::lexer::TokenKind;
use crate::source::SourceFile;

/// A `pub` item whose name no token stream outside its crate contains.
pub(crate) const U001: &str = "TCBF-U001";

const ITEM_KEYWORDS: &[&str] = &["fn", "struct", "enum", "trait", "type", "static", "union"];

/// The crate whose library `path` belongs to: `crates/<name>/src/**`
/// except the crate's binary targets, which call the library like any
/// other outside code.
fn library_crate(path: &str) -> Option<&str> {
    let (name, inner) = path.strip_prefix("crates/")?.split_once('/')?;
    let src = inner.strip_prefix("src/")?;
    (src != "main.rs" && !src.starts_with("bin/")).then_some(name)
}

/// One `pub` declaration in a library.
struct Node<'a> {
    file: &'a SourceFile,
    /// Sig-index of the declared name.
    at: usize,
    /// What the item is (`fn`, `struct`, …).
    kind: &'static str,
    /// Same-crate names this node reaches once it is reached itself.
    interface: BTreeSet<&'a str>,
}

impl Node<'_> {
    fn name(&self) -> &str {
        self.file.sig_text(self.at)
    }
}

/// Runs TCBF-U001 over every workspace file: library sources of all
/// crates plus every caller (tests, benches, examples, binaries).
pub(crate) fn check(files: &[SourceFile], out: &mut Vec<Finding>) {
    // Name -> the libraries whose source mentions it ("" for every file
    // that is not library source).
    let mut mentioned_in: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    let mut nodes: BTreeMap<&str, Vec<Node>> = BTreeMap::new();
    for file in files {
        let owner = library_crate(&file.path);
        let locals = locals(file);
        let punct = |k: usize, c: char| file.sig_kind(k) == Some(TokenKind::Punct(c));
        let mut in_use = false;
        for i in 0..file.sig_len() {
            in_use = (in_use || file.sig_text(i) == "use") && !punct(i, ';');
            let qualified = in_use
                || (i > 0 && punct(i - 1, '.'))
                || (i > 1 && punct(i - 1, ':') && punct(i - 2, ':'))
                || (punct(i + 1, ':') && punct(i + 2, ':'));
            if file.sig_kind(i) == Some(TokenKind::Ident)
                && (qualified || !locals.contains(file.sig_text(i)))
            {
                mentioned_in
                    .entry(file.sig_text(i))
                    .or_default()
                    .insert(owner.unwrap_or(""));
            }
        }
        if let Some(owner) = owner {
            declarations(file, nodes.entry(owner).or_default());
        }
    }

    for (krate, nodes) in &nodes {
        let named_outside = |name: &str| {
            mentioned_in
                .get(name)
                .is_some_and(|owners| owners.iter().any(|owner| owner != krate))
        };
        let mut reached: Vec<bool> = nodes.iter().map(|n| named_outside(n.name())).collect();
        let mut frontier: Vec<usize> = (0..nodes.len()).filter(|&n| reached[n]).collect();
        while let Some(n) = frontier.pop() {
            for (m, node) in nodes.iter().enumerate() {
                if !reached[m] && nodes[n].interface.contains(node.name()) {
                    reached[m] = true;
                    frontier.push(m);
                }
            }
        }
        for (node, reached) in nodes.iter().zip(reached) {
            if reached {
                continue;
            }
            let (line, col) = node.file.sig_pos(node.at);
            let start = node.file.sig_token(node.at).map_or(0, |t| t.start);
            out.push(Finding::new(
                U001,
                &node.file.path,
                line,
                col,
                format!(
                    "`pub {} {}` is named nowhere outside crate `{krate}` — narrow it to `pub(crate)` or delete it",
                    node.kind,
                    node.name()
                ),
                node.file.line_text(start),
            ));
        }
    }
}

/// The names `file` binds as locals: the bindings of its `let` patterns
/// and of its closures' and fns' parameter lists, not their types.  Only
/// lower-case names bind; `Some(x)` binds `x`.
fn locals(file: &SourceFile) -> BTreeSet<&str> {
    use TokenKind::{Close, Ident, NumLit, Open, Punct};
    let kind = |k: usize| file.sig_kind(k);
    let colon = |k: usize| kind(k) == Some(Punct(':'));
    // A lower-case name that is no keyword, call, struct pattern or path.
    let binds = |k: usize| {
        let name = file.sig_text(k);
        name.starts_with(|c: char| c.is_ascii_lowercase())
            && !matches!(name, "mut" | "ref")
            && !matches!(kind(k + 1), Some(Open(_)))
            && !colon(k - 1)
            && !colon(k + 1) | !colon(k + 2)
    };
    let mut names = BTreeSet::new();
    for i in 0..file.sig_len() {
        // A `|` that follows no operand opens a closure's parameters.
        let prev = i.checked_sub(1).and_then(kind);
        let closure = kind(i) == Some(Punct('|'))
            && (!matches!(prev, Some(Ident | Close(_) | NumLit | Punct('?' | '|')))
                || matches!(file.sig_text(i - 1), "move" | "return"));
        let start = if closure || file.sig_text(i) == "let" {
            i + 1
        } else if file.sig_text(i) == "fn" && kind(i + 1) == Some(Ident) {
            // The parameter list: the first `(` outside the generics.
            let mut angle = 0i32;
            let Some(open) = (i + 2..file.sig_len()).find(|&k| {
                match kind(k) {
                    Some(Punct('<')) => angle += 1,
                    Some(Punct('>')) if kind(k - 1) != Some(Punct('-')) => angle -= 1,
                    _ => {}
                }
                angle == 0 && kind(k) == Some(Open('('))
            }) else {
                continue;
            };
            open + 1
        } else {
            continue;
        };
        // Walk the list to its end; after a top-level `:` comes a type,
        // up to the next top-level `,`.
        let (mut depth, mut in_type) = (0usize, false);
        for k in start..file.sig_len() {
            match kind(k) {
                Some(Open(_)) => depth += 1,
                Some(Close(_)) if depth == 0 => break,
                Some(Close(_)) => depth -= 1,
                Some(Punct('|' | '=' | ';')) if depth == 0 => break,
                Some(Punct(',')) if depth == 0 => in_type = false,
                Some(Punct(':')) if depth == 0 && !colon(k + 1) && !colon(k - 1) => in_type = true,
                Some(Ident) if !in_type && binds(k) => {
                    names.insert(file.sig_text(k));
                }
                _ => {}
            }
        }
    }
    names
}

/// Collects the `pub` declarations of one library file, skipping test
/// code.
fn declarations<'a>(file: &'a SourceFile, out: &mut Vec<Node<'a>>) {
    for i in 0..file.sig_len() {
        if file.sig_text(i) != "pub"
            || file.sig_kind(i + 1) == Some(TokenKind::Open('('))
            || file
                .sig_token(i)
                .is_some_and(|t| file.in_test_code(t.start))
        {
            continue;
        }
        // Qualifiers (`const fn`, `unsafe extern "C" fn`, …) up to the
        // item keyword; a `const` right before the name is the keyword.
        let mut j = i + 1;
        while matches!(file.sig_text(j), "const" | "unsafe" | "async" | "extern")
            || file.sig_kind(j) == Some(TokenKind::StrLit)
        {
            j += 1;
        }
        let (kind, mut at) = match ITEM_KEYWORDS.iter().find(|&&k| k == file.sig_text(j)) {
            Some(&kind) => (kind, j + 1),
            None if file.sig_text(j - 1) == "const" => ("const", j),
            None => continue,
        };
        if kind == "static" && file.sig_text(at) == "mut" {
            at += 1;
        }
        if file.sig_kind(at) != Some(TokenKind::Ident) {
            continue;
        }
        out.push(Node {
            file,
            at,
            kind,
            interface: interface(file, kind, at),
        });
    }
}

/// The names a caller of the item declared at sig-index `name` sees: a
/// fn's signature, a const's or static's type, a struct's or union's
/// header and `pub` fields, an enum's, trait's or alias's whole body.
fn interface<'a>(file: &'a SourceFile, kind: &str, name: usize) -> BTreeSet<&'a str> {
    let end = item_end(file, name);
    let upto = |stop: TokenKind| {
        (name..end)
            .find(|&k| file.sig_kind(k) == Some(stop))
            .unwrap_or(end)
    };
    // A binding's own name (`x` in `x: T`, a field's name) is not a type.
    let colon = |k: usize| file.sig_kind(k) == Some(TokenKind::Punct(':'));
    let binding = |k: usize| colon(k + 1) && !colon(k + 2);
    let range = match kind {
        "fn" => name..upto(TokenKind::Open('{')),
        "const" | "static" => name..upto(TokenKind::Punct('=')),
        _ => name..end,
    };
    let (mut depth, mut public) = (0usize, true);
    range
        .filter(|&k| {
            // In a struct's or union's braces, a field is public when
            // `pub` comes right before its name.
            match file.sig_kind(k) {
                Some(TokenKind::Open(_)) => depth += 1,
                Some(TokenKind::Close(_)) => depth = depth.saturating_sub(1),
                _ if depth == 1 && binding(k) && matches!(kind, "struct" | "union") => {
                    public = file.sig_text(k - 1) == "pub"
                }
                _ => {}
            }
            public && file.sig_kind(k) == Some(TokenKind::Ident) && !binding(k)
        })
        .map(|k| file.sig_text(k))
        .collect()
}

/// Sig-index one past the item that starts at `from`: its `;` at
/// delimiter depth 0, or the close of its first top-level `{ … }`.
fn item_end(file: &SourceFile, from: usize) -> usize {
    let mut depth = 0usize;
    for k in from..file.sig_len() {
        match file.sig_kind(k) {
            Some(TokenKind::Open(_)) => depth += 1,
            Some(TokenKind::Close(close)) => {
                depth = depth.saturating_sub(1);
                if depth == 0 && close == '}' {
                    return k + 1;
                }
            }
            Some(TokenKind::Punct(';')) if depth == 0 => return k + 1,
            _ => {}
        }
    }
    file.sig_len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_source_excludes_the_crates_binaries() {
        assert_eq!(library_crate("crates/ccglib/src/gemm.rs"), Some("ccglib"));
        assert_eq!(library_crate("crates/bench/src/bin/table1.rs"), None);
        assert_eq!(library_crate("crates/tcbf-lint/src/main.rs"), None);
        assert_eq!(library_crate("crates/ccglib/tests/t.rs"), None);
        assert_eq!(library_crate("src/lib.rs"), None);
    }

    // Fixture tests: U001 fires on the `pub` items no outside code
    // names, and each kind of caller, alone, keeps its items public.

    /// The TCBF-U001 fixture: crate `demo`'s library, then one caller per
    /// kind, each placed where the workspace walk would find it.
    const PUBLIC_API: &[(&str, &str)] = &[
        (
            "crates/demo/src/lib.rs",
            include_str!("../../tests/fixtures/public_api_lib.rs"),
        ),
        (
            "crates/other/tests/demo.rs",
            include_str!("../../tests/fixtures/public_api_other_tests.rs"),
        ),
        (
            "crates/other/src/lib.rs",
            include_str!("../../tests/fixtures/public_api_other_lib.rs"),
        ),
        (
            "crates/demo/src/bin/tool.rs",
            include_str!("../../tests/fixtures/public_api_bin.rs"),
        ),
        (
            "examples/reexport.rs",
            include_str!("../../tests/fixtures/public_api_example.rs"),
        ),
    ];

    /// U001 over the fixture without the caller at `skip` (if any); the
    /// names it flags, in file order.
    fn public_api_findings(skip: Option<&str>) -> (Vec<Finding>, Vec<String>) {
        let files: Vec<SourceFile> = PUBLIC_API
            .iter()
            .filter(|(path, _)| Some(*path) != skip)
            .map(|(path, text)| SourceFile::new(path.to_string(), text.to_string()))
            .collect();
        let mut findings = Vec::new();
        check(&files, &mut findings);
        let names = findings
            .iter()
            .map(|f| f.message.split('`').nth(1).unwrap_or("").to_string())
            .collect();
        (findings, names)
    }

    #[test]
    fn u001_fires_on_uncalled_pub_items_only() {
        let (findings, names) = public_api_findings(None);
        assert_eq!(names, ["pub fn uncalled", "pub struct Hidden"]);
        assert!(findings.iter().all(|f| f.path == "crates/demo/src/lib.rs"));
        assert_eq!(findings.iter().map(|f| f.line).collect::<Vec<_>>(), [5, 32]);
    }

    #[test]
    fn u001_is_silent_on_each_kind_of_caller_and_fires_without_it() {
        // Each caller alone keeps its items public: another crate's tests, a
        // type named in a called signature (and, through its `pub` field, the
        // type of that field), the crate's own binary, a called `pub use`.
        for (caller, kept) in [
            (
                "crates/other/tests/demo.rs",
                &["pub fn tested_elsewhere"][..],
            ),
            (
                "crates/other/src/lib.rs",
                &["pub fn configure", "pub struct Settings", "pub enum Level"],
            ),
            ("crates/demo/src/bin/tool.rs", &["pub fn fmt_opt"]),
            ("examples/reexport.rs", &["pub fn helper"]),
        ] {
            let (_, names) = public_api_findings(Some(caller));
            for item in kept {
                assert!(
                    names.iter().any(|n| n == item),
                    "without {caller}, `{item}` should fire: {names:?}"
                );
            }
            assert_eq!(names.len(), 2 + kept.len(), "{caller}: {names:?}");
        }
    }

    #[test]
    fn u001_does_not_count_a_local_of_the_same_name_as_a_caller() {
        // A closure, a fn parameter and a `let` binding named like a `pub` fn
        // do not call it; a method call and a path through the type do, even
        // where the caller also binds a local of that name.
        let files = [
            (
                "crates/demo/src/lib.rs",
                include_str!("../../tests/fixtures/public_api_local_lib.rs"),
            ),
            (
                "crates/other/tests/shapes.rs",
                include_str!("../../tests/fixtures/public_api_local_tests.rs"),
            ),
        ]
        .map(|(path, text)| SourceFile::new(path.to_string(), text.to_string()));
        let mut findings = Vec::new();
        check(&files, &mut findings);
        let names: Vec<&str> = findings
            .iter()
            .map(|f| f.message.split('`').nth(1).unwrap_or(""))
            .collect();
        assert_eq!(names, ["pub fn supported", "pub fn limit", "pub fn area"]);
    }
}
