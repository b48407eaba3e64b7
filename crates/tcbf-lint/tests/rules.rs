//! Fixture tests: for every rule, one case where it FIRES on a
//! purpose-built fixture and one where the same findings are fully
//! SUPPRESSED by waivers — proving both halves of the contract
//! (detection and reviewable waiver) end to end.

use tcbf_lint::config::{LintConfig, Waiver};
use tcbf_lint::diagnostics::Finding;
use tcbf_lint::rules::public_api;
use tcbf_lint::source::SourceFile;

/// Scope config that puts the fixtures under every rule.
fn fixture_config() -> LintConfig {
    LintConfig {
        float_scope: vec!["fixtures/".into()],
        float_approved: vec![],
        waivers: vec![],
    }
}

fn lint_fixture(name: &str, text: &str) -> Vec<Finding> {
    tcbf_lint::lint_source(&format!("fixtures/{name}"), text, &fixture_config())
}

fn lines(findings: &[Finding], rule: &str) -> Vec<u32> {
    findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.line)
        .collect()
}

/// Suppresses every finding with a blanket waiver per rule and file, and
/// asserts nothing is left unsuppressed and nothing is stale.
fn assert_fully_suppressible(findings: &mut [Finding]) {
    let mut waivers: Vec<Waiver> = findings
        .iter()
        .map(|f| Waiver {
            rule: f.rule,
            path: f.path.clone(),
            pattern: String::new(),
            reason: "fixture: suppression half of the contract".into(),
        })
        .collect();
    waivers.sort_by(|a, b| (a.rule, &a.path).cmp(&(b.rule, &b.path)));
    waivers.dedup();
    let cfg = LintConfig {
        waivers,
        ..fixture_config()
    };
    let stale = cfg.waive(findings);
    assert!(stale.is_empty(), "no blanket waiver may be stale");
    let open: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.suppressed_by.is_none())
        .collect();
    assert!(open.is_empty(), "still unsuppressed: {open:?}");
}

const NONDETERMINISM: &str = include_str!("fixtures/nondeterminism.rs");

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
fn d002_fires_on_float_reductions_but_not_min_max() {
    let findings = lint_fixture("nondeterminism.rs", NONDETERMINISM);
    assert_eq!(lines(&findings, "TCBF-D002"), vec![5, 6]);
}

#[test]
fn determinism_findings_are_suppressible() {
    let mut findings = lint_fixture("nondeterminism.rs", NONDETERMINISM);
    assert!(!findings.is_empty());
    assert_fully_suppressible(&mut findings);
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

#[test]
fn u001_findings_are_suppressible() {
    let (mut findings, _) = public_api_findings(None);
    assert!(!findings.is_empty());
    assert_fully_suppressible(&mut findings);
}
