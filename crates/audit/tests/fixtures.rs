//! Negative tests: each seeded fixture violation trips exactly its lint
//! rule — and the binary exits nonzero on a tree containing them. Positive
//! tests: the clean fixture and the real workspace audit clean.

use hipa_audit::rules::{
    RULE_BARE_THREAD, RULE_DISJOINTNESS, RULE_ORDERING, RULE_PLAN_SYMBOL, RULE_RAW_PTR,
    RULE_STATIC_MUT, RULE_UNCHECKED_INDEX, RULE_UNSAFE_SAFETY,
};
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> String {
    let p = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(name);
    std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()))
}

fn rules_fired(name: &str) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> =
        hipa_audit::audit_source(name, &fixture(name)).iter().map(|f| f.rule).collect();
    rules.dedup();
    rules
}

#[test]
fn missing_safety_fixture_trips_rule_1_only() {
    assert_eq!(rules_fired("missing_safety.rs"), vec![RULE_UNSAFE_SAFETY]);
}

#[test]
fn stray_raw_ptr_fixture_trips_rule_2_only() {
    let fired = rules_fired("stray_raw_ptr.rs");
    assert!(fired.iter().all(|r| *r == RULE_RAW_PTR), "unexpected rules: {fired:?}");
    // All the triggers fire: two UnsafeCell mentions (the import and the
    // field), the cast, and the transmute.
    let findings = hipa_audit::audit_source("stray_raw_ptr.rs", &fixture("stray_raw_ptr.rs"));
    assert_eq!(findings.len(), 4, "{findings:?}");
}

#[test]
fn missing_contract_fixture_trips_rule_3_only() {
    assert_eq!(rules_fired("missing_contract.rs"), vec![RULE_DISJOINTNESS]);
}

#[test]
fn bad_ordering_fixture_trips_rule_4_only() {
    let findings = hipa_audit::audit_source("bad_ordering.rs", &fixture("bad_ordering.rs"));
    assert!(findings.iter().all(|f| f.rule == RULE_ORDERING), "{findings:?}");
    // Relaxed-unannotated + unregistered Acquire + SeqCst.
    assert_eq!(findings.len(), 3, "{findings:?}");
}

#[test]
fn static_mut_fixture_trips_rule_5_only() {
    let findings = hipa_audit::audit_source("static_mut.rs", &fixture("static_mut.rs"));
    assert!(findings.iter().all(|f| f.rule == RULE_STATIC_MUT), "{findings:?}");
    // The mutable global and the unmangled export each fire once.
    assert_eq!(findings.len(), 2, "{findings:?}");
}

#[test]
fn bare_thread_fixture_trips_rule_6_only() {
    let findings = hipa_audit::audit_source("bare_thread.rs", &fixture("bare_thread.rs"));
    assert!(findings.iter().all(|f| f.rule == RULE_BARE_THREAD), "{findings:?}");
    // spawn, scope, and Builder each fire once.
    assert_eq!(findings.len(), 3, "{findings:?}");
}

#[test]
fn stale_plan_fixture_trips_rule_7_only() {
    let findings = hipa_audit::audit_source("stale_plan.rs", &fixture("stale_plan.rs"));
    assert!(findings.iter().all(|f| f.rule == RULE_PLAN_SYMBOL), "{findings:?}");
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(findings[0].msg.contains("no_such_plan_symbol"), "{findings:?}");
}

#[test]
fn unchecked_index_fixture_trips_rule_8_only() {
    let findings = hipa_audit::audit_source("unchecked_index.rs", &fixture("unchecked_index.rs"));
    assert!(findings.iter().all(|f| f.rule == RULE_UNCHECKED_INDEX), "{findings:?}");
    // get_unchecked, get_unchecked_mut, write_unchecked and update_unchecked
    // each fire once.
    assert_eq!(findings.len(), 4, "{findings:?}");
}

#[test]
fn clean_fixture_is_clean() {
    assert!(rules_fired("clean.rs").is_empty());
}

fn workspace_root() -> PathBuf {
    hipa_audit::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above crates/audit")
}

#[test]
fn the_workspace_tree_audits_clean() {
    let report = hipa_audit::audit_tree(&workspace_root()).expect("scan workspace");
    assert!(report.files_scanned > 50, "walker found too few files: {}", report.files_scanned);
    assert!(report.clean(), "workspace has audit findings:\n{}", report.render_findings());
    // Every unsafe site is covered: the audit would have flagged any gap, so
    // counts being nonzero here just documents that the rules saw real code.
    let core = report.stats.get("core").expect("core crate scanned");
    assert!(core.unsafe_tokens > 0 && core.safety_comments > 0);
}

#[test]
fn audit_binary_exits_nonzero_on_seeded_violations() {
    // Run the audit over the fixtures directory itself (the walker skips
    // `fixtures/` only *inside* a scanned tree root's subdirectories — so
    // copy them into a temp tree).
    let tmp = std::env::temp_dir().join(format!("hipa-audit-fixture-{}", std::process::id()));
    let src_dir = tmp.join("src");
    std::fs::create_dir_all(&src_dir).unwrap();
    for name in [
        "missing_safety.rs",
        "stray_raw_ptr.rs",
        "missing_contract.rs",
        "bad_ordering.rs",
        "static_mut.rs",
        "bare_thread.rs",
        "stale_plan.rs",
        "unchecked_index.rs",
    ] {
        std::fs::write(src_dir.join(name), fixture(name)).unwrap();
    }
    let report = hipa_audit::audit_tree(&tmp).expect("scan temp tree");
    assert!(!report.clean());
    // One exercise of the exit path per rule: the binary maps findings to
    // ExitCode::FAILURE; here we assert the report drives that branch.
    let rules: std::collections::BTreeSet<_> = report.findings.iter().map(|f| f.rule).collect();
    assert_eq!(
        rules,
        [
            RULE_UNSAFE_SAFETY,
            RULE_RAW_PTR,
            RULE_DISJOINTNESS,
            RULE_ORDERING,
            RULE_STATIC_MUT,
            RULE_BARE_THREAD,
            RULE_PLAN_SYMBOL,
            RULE_UNCHECKED_INDEX,
        ]
        .into_iter()
        .collect()
    );
    // And the real binary: nonzero on the seeded tree, zero on the
    // workspace.
    let bin = env!("CARGO_BIN_EXE_hipa-audit");
    let bad = std::process::Command::new(bin)
        .args(["--root", tmp.to_str().unwrap()])
        .output()
        .expect("run hipa-audit on seeded tree");
    assert_eq!(bad.status.code(), Some(1), "expected exit 1 on seeded violations");
    let good = std::process::Command::new(bin)
        .args(["--root", workspace_root().to_str().unwrap(), "--summary-only"])
        .output()
        .expect("run hipa-audit on workspace");
    assert_eq!(
        good.status.code(),
        Some(0),
        "expected exit 0 on the tree; stdout:\n{}",
        String::from_utf8_lossy(&good.stdout)
    );
    std::fs::remove_dir_all(&tmp).ok();
}
