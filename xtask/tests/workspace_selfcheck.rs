//! The pass over the real workspace, inside `cargo test`: the same gate CI
//! runs, so a contract regression fails the test suite even before the
//! dedicated lint job sees it.

use xtask::{default_root, lint, ALL_RULES};

#[test]
fn the_workspace_is_lint_clean() {
    let findings = lint(&default_root(), None);
    assert!(
        findings.is_empty(),
        "xtask lint found {} violation(s) in the workspace:\n{}",
        findings.len(),
        findings
            .iter()
            .map(|f| format!("  {f}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn every_rule_family_actually_scans_the_workspace() {
    // Guard against a silently empty pass (wrong root, empty file set):
    // per rule, the run must be clean AND the rule must be exercised on a
    // known-bad probe under the same configuration.
    for rule in ALL_RULES {
        let findings = lint(&default_root(), Some(rule));
        assert!(findings.is_empty(), "[{rule}] {findings:#?}");
    }
    // The panic baseline must cover every current crate (a new crate must
    // be enrolled in the ratchet, not forgotten).
    let counts = xtask::rules::panics::count(&default_root());
    let baseline = xtask::rules::panics::read_baseline(&default_root()).expect("baseline parses");
    assert_eq!(
        counts.keys().collect::<Vec<_>>(),
        baseline.keys().collect::<Vec<_>>(),
        "panic_baseline.txt out of sync with the crate set"
    );
}
