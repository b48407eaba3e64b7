//! Fixture tests for TCBF-U001: it fires on the `pub` items no outside
//! code names, and each kind of caller, alone, keeps its items public.

use tcbf_lint::diagnostics::Finding;
use tcbf_lint::rules::public_api;
use tcbf_lint::source::SourceFile;

/// The TCBF-U001 fixture: crate `demo`'s library, then one caller per
/// kind, each placed where the workspace walk would find it.
const PUBLIC_API: &[(&str, &str)] = &[
    (
        "crates/demo/src/lib.rs",
        include_str!("fixtures/public_api_lib.rs"),
    ),
    (
        "crates/other/tests/demo.rs",
        include_str!("fixtures/public_api_other_tests.rs"),
    ),
    (
        "crates/other/src/lib.rs",
        include_str!("fixtures/public_api_other_lib.rs"),
    ),
    (
        "crates/demo/src/bin/tool.rs",
        include_str!("fixtures/public_api_bin.rs"),
    ),
    (
        "examples/reexport.rs",
        include_str!("fixtures/public_api_example.rs"),
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
    public_api::check(&files, &mut findings);
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
            include_str!("fixtures/public_api_local_lib.rs"),
        ),
        (
            "crates/other/tests/shapes.rs",
            include_str!("fixtures/public_api_local_tests.rs"),
        ),
    ]
    .map(|(path, text)| SourceFile::new(path.to_string(), text.to_string()));
    let mut findings = Vec::new();
    public_api::check(&files, &mut findings);
    let names: Vec<&str> = findings
        .iter()
        .map(|f| f.message.split('`').nth(1).unwrap_or(""))
        .collect();
    assert_eq!(names, ["pub fn supported", "pub fn limit", "pub fn area"]);
}
