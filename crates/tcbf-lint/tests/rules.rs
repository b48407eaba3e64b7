//! Fixture tests: for every rule, one case where it FIRES on a
//! purpose-built fixture and one where the same findings are fully
//! SUPPRESSED by an allowlist — proving both halves of the contract
//! (detection and reviewable waiver) end to end.

use tcbf_lint::allowlist::Allowlist;
use tcbf_lint::config::LintConfig;
use tcbf_lint::diagnostics::Finding;
use tcbf_lint::rules::{error_codes, public_api};
use tcbf_lint::source::SourceFile;

/// Scope config that puts the fixtures under every rule.
fn fixture_config() -> LintConfig {
    LintConfig {
        serve_path: vec!["fixtures/".into()],
        float_scope: vec!["fixtures/".into()],
        float_approved: vec![],
        instant_allowed: vec![],
    }
}

fn lint_fixture(name: &str, text: &str) -> Vec<Finding> {
    tcbf_lint::lint_source(&format!("fixtures/{name}"), text, &fixture_config())
}

fn count(findings: &[Finding], rule: &str) -> usize {
    findings.iter().filter(|f| f.rule == rule).count()
}

fn lines(findings: &[Finding], rule: &str) -> Vec<u32> {
    findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.line)
        .collect()
}

/// Suppresses every finding with a blanket per-rule allowlist and
/// asserts nothing is left unsuppressed and nothing is stale.
fn assert_fully_suppressible(findings: &mut [Finding]) {
    let mut scopes: Vec<(&str, String)> =
        findings.iter().map(|f| (f.rule, f.path.clone())).collect();
    scopes.sort_unstable();
    scopes.dedup();
    let toml: String = scopes
        .iter()
        .map(|(rule, path)| {
            format!(
                "[[allow]]\nrule = \"{rule}\"\npath = \"{path}\"\nreason = \"fixture: suppression half of the contract\"\n\n"
            )
        })
        .collect();
    let allow = Allowlist::parse(&toml).expect("generated allowlist parses");
    let stale = allow.apply(findings);
    assert!(stale.is_empty(), "no generated entry may be stale");
    let open: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.suppressed_by.is_none())
        .collect();
    assert!(open.is_empty(), "still unsuppressed: {open:?}");
}

const SERVE_PANICS: &str = include_str!("fixtures/serve_panics.rs");
const NONDETERMINISM: &str = include_str!("fixtures/nondeterminism.rs");
const ERRORS_ENUM: &str = include_str!("fixtures/errors_enum.rs");

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
fn p001_fires_on_unwrap_expect_and_path_form() {
    let findings = lint_fixture("serve_panics.rs", SERVE_PANICS);
    assert_eq!(lines(&findings, "TCBF-P001"), vec![6, 7, 8]);
}

#[test]
fn p002_fires_on_panicking_macros() {
    let findings = lint_fixture("serve_panics.rs", SERVE_PANICS);
    // panic!, assert!, unreachable! — one each.
    assert_eq!(count(&findings, "TCBF-P002"), 3);
}

#[test]
fn p003_fires_on_indexing_only() {
    let findings = lint_fixture("serve_panics.rs", SERVE_PANICS);
    assert_eq!(lines(&findings, "TCBF-P003"), vec![21, 22]);
}

#[test]
fn panic_rules_skip_test_code_and_safe_constructs() {
    let findings = lint_fixture("serve_panics.rs", SERVE_PANICS);
    // Everything in `quiet_sites` and `mod tests` stays silent: the
    // fixture's only findings are the 8 deliberate ones above.
    assert_eq!(findings.len(), 8, "unexpected findings: {findings:?}");
    assert!(
        findings.iter().all(|f| f.line < 36),
        "fired inside mod tests"
    );
}

#[test]
fn panic_rules_are_scoped_to_the_serve_path() {
    let cfg = LintConfig::default(); // real policy: fixtures are out of scope
    let findings = tcbf_lint::lint_source("fixtures/serve_panics.rs", SERVE_PANICS, &cfg);
    assert_eq!(count(&findings, "TCBF-P001"), 0);
    assert_eq!(count(&findings, "TCBF-P002"), 0);
    assert_eq!(count(&findings, "TCBF-P003"), 0);
}

#[test]
fn panic_findings_are_suppressible() {
    let mut findings = lint_fixture("serve_panics.rs", SERVE_PANICS);
    assert!(!findings.is_empty());
    assert_fully_suppressible(&mut findings);
}

#[test]
fn d002_fires_on_float_reductions_but_not_min_max() {
    let findings = lint_fixture("nondeterminism.rs", NONDETERMINISM);
    assert_eq!(lines(&findings, "TCBF-D002"), vec![5, 6]);
}

#[test]
fn d004_fires_outside_test_code() {
    let findings = lint_fixture("nondeterminism.rs", NONDETERMINISM);
    assert_eq!(lines(&findings, "TCBF-D004"), vec![13]);
    assert!(
        findings.iter().all(|f| f.line < 16),
        "fired inside mod tests"
    );
}

#[test]
fn d004_respects_the_timing_allowlist() {
    let mut cfg = fixture_config();
    cfg.instant_allowed = vec!["fixtures/".into()];
    let findings = tcbf_lint::lint_source("fixtures/nondeterminism.rs", NONDETERMINISM, &cfg);
    assert_eq!(count(&findings, "TCBF-D004"), 0);
}

#[test]
fn determinism_findings_are_suppressible() {
    let mut findings = lint_fixture("nondeterminism.rs", NONDETERMINISM);
    assert!(!findings.is_empty());
    assert_fully_suppressible(&mut findings);
}

#[test]
fn e001_fires_on_missing_arm_and_wildcard() {
    let file = SourceFile::new("fixtures/errors_enum.rs".into(), ERRORS_ENUM.into());
    let mut findings = Vec::new();
    error_codes::check(
        &file,
        Some("MissingWeights Degraded Forgotten Undocumented"),
        &mut findings,
    );
    let e001: Vec<&Finding> = findings.iter().filter(|f| f.rule == "TCBF-E001").collect();
    assert_eq!(e001.len(), 2);
    assert!(e001.iter().any(|f| f.message.contains("`Forgotten`")));
    assert!(e001.iter().any(|f| f.message.contains("wildcard")));
    assert_eq!(count(&findings, "TCBF-E002"), 0);
}

#[test]
fn e002_fires_on_undocumented_variants() {
    let file = SourceFile::new("fixtures/errors_enum.rs".into(), ERRORS_ENUM.into());
    let mut findings = Vec::new();
    error_codes::check(
        &file,
        Some("MissingWeights Degraded Forgotten"),
        &mut findings,
    );
    let e002: Vec<&Finding> = findings.iter().filter(|f| f.rule == "TCBF-E002").collect();
    assert_eq!(e002.len(), 1);
    assert!(e002[0].message.contains("`Undocumented`"));
    // A missing protocol document is itself a finding.
    let mut none = Vec::new();
    error_codes::check(&file, None, &mut none);
    assert!(none
        .iter()
        .any(|f| f.rule == "TCBF-E002" && f.message.contains("missing")));
}

#[test]
fn e_findings_are_suppressible() {
    let file = SourceFile::new("fixtures/errors_enum.rs".into(), ERRORS_ENUM.into());
    let mut findings = Vec::new();
    error_codes::check(&file, Some("MissingWeights Degraded"), &mut findings);
    assert!(!findings.is_empty());
    assert_fully_suppressible(&mut findings);
}

#[test]
fn e001_fires_when_the_error_file_is_missing() {
    // A workspace without crates/tcbf/src/error.rs (renamed, or split into
    // error/mod.rs) must not turn both E-rules off in silence.
    let root = std::env::temp_dir().join(format!("tcbf-lint-no-error-file-{}", std::process::id()));
    let src = root.join("crates/x/src");
    std::fs::create_dir_all(&src).unwrap();
    std::fs::write(src.join("lib.rs"), "fn f() {}\n").unwrap();
    let report = tcbf_lint::lint_workspace(&root, &LintConfig::default());
    std::fs::remove_dir_all(&root).unwrap();
    let findings = report.unwrap().findings;
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, "TCBF-E001");
    assert_eq!(findings[0].path, "crates/tcbf/src/error.rs");
    assert!(findings[0].message.contains("not found"));
}

#[test]
fn allowlist_reason_is_mandatory_end_to_end() {
    let toml =
        "[[allow]]\nrule = \"TCBF-P001\"\npath = \"fixtures/serve_panics.rs\"\nreason = \"\"\n";
    let errs = Allowlist::parse(toml).unwrap_err();
    assert!(errs[0].message.contains("must be justified"));
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
fn u001_findings_are_suppressible() {
    let (mut findings, _) = public_api_findings(None);
    assert!(!findings.is_empty());
    assert_fully_suppressible(&mut findings);
}
