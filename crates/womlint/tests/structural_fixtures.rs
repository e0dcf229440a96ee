//! End-to-end tests over the structural fixture trees: the seeded tree
//! in `tests/fixtures_structural/` (one violation per interprocedural
//! rule family, each on a pinned line), the clean tree in
//! `tests/fixtures_structural_clean/`, and mutation tests that delete a
//! single covering line from the clean tree and assert the exact
//! diagnostic that appears — the field-coverage proofs are only worth
//! having if removing one field write fails the lint. The two-file
//! `tests/fixtures_shadowing{,_clean}/` trees pin cross-file method
//! resolution.

use std::path::{Path, PathBuf};
use std::process::Command;
use womlint::config::{parse_baseline, Config};
use womlint::{
    run, Diagnostic, Report, RULE_CONFIG_STALE, RULE_HOTPATH_DYNAMIC, RULE_HOTPATH_TRANSITIVE,
    RULE_MERGE_COVERAGE, RULE_SNAPSHOT_COVERAGE, RULE_SUPPRESSION_UNUSED,
};

fn fixture_root(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join(name)
}

fn lint(root: &Path) -> Report {
    let cfg = Config::load(root).unwrap();
    let src = std::fs::read_to_string(root.join(&cfg.baseline_file)).unwrap();
    let baseline = parse_baseline(&src).unwrap();
    run(root, &cfg, Some(&baseline)).unwrap()
}

fn diags(list: &[Diagnostic]) -> Vec<(String, String, u32)> {
    list.iter()
        .map(|d| (d.rule.clone(), d.file.clone(), d.line))
        .collect()
}

#[test]
fn structural_seeds_carry_exact_rule_ids_and_lines() {
    let report = lint(&fixture_root("fixtures_structural"));
    let lib = "demo/src/lib.rs".to_string();
    let expected = vec![
        (RULE_HOTPATH_DYNAMIC.to_string(), lib.clone(), 23),
        (RULE_HOTPATH_TRANSITIVE.to_string(), lib.clone(), 36),
        (RULE_SNAPSHOT_COVERAGE.to_string(), lib.clone(), 51),
        (RULE_MERGE_COVERAGE.to_string(), lib.clone(), 71),
        (RULE_SUPPRESSION_UNUSED.to_string(), lib.clone(), 83),
        (RULE_SNAPSHOT_COVERAGE.to_string(), lib.clone(), 96),
        (RULE_HOTPATH_TRANSITIVE.to_string(), lib, 118),
        (RULE_CONFIG_STALE.to_string(), "womlint.toml".to_string(), 1),
    ];
    assert_eq!(diags(&report.violations), expected);
    // Trait impls (`impl Snap for TraitState`) are codecs too.
    let trait_gap = report.violations.iter().find(|d| d.line == 96).unwrap();
    assert!(trait_gap
        .message
        .starts_with("field `TraitState.forgotten` is not referenced by `save_state`"));
    // `drain` never calls `Widen::grow` by name: it passes it to `map`,
    // and that path is the edge.
    let by_path = report.violations.iter().find(|d| d.line == 118).unwrap();
    assert!(
        by_path.message.contains("(drain -> grow)"),
        "{}",
        by_path.message
    );
}

#[test]
fn stale_region_names_the_missing_function() {
    let report = lint(&fixture_root("fixtures_structural"));
    let stale: Vec<&str> = report
        .violations
        .iter()
        .filter(|d| d.rule == RULE_CONFIG_STALE)
        .map(|d| d.message.as_str())
        .collect();
    assert_eq!(stale.len(), 1);
    assert!(stale[0].contains("`gone_fn`"), "{}", stale[0]);
}

#[test]
fn stop_keeps_the_cold_path_out_of_the_closure() {
    let report = lint(&fixture_root("fixtures_structural"));
    // cold_report's vec! (line 30) must appear nowhere — not as a
    // violation and not as a suppression: the stop cuts the edge into
    // the function, so its body is never linted transitively.
    assert!(!report
        .violations
        .iter()
        .chain(report.suppressed.iter())
        .any(|d| d.line == 30));
}

#[test]
fn allow_paths_suppress_with_reasons() {
    let report = lint(&fixture_root("fixtures_structural"));
    let mut got = diags(&report.suppressed);
    got.sort();
    let lib = "demo/src/lib.rs".to_string();
    let mut expected = vec![
        // Inline allow on the reachable helper's allocation.
        (RULE_HOTPATH_TRANSITIVE.to_string(), lib.clone(), 43),
        // [[snapshot.allow]] for `derived`, inline allow for `noted`.
        (RULE_SNAPSHOT_COVERAGE.to_string(), lib.clone(), 52),
        (RULE_SNAPSHOT_COVERAGE.to_string(), lib.clone(), 54),
        // [[merge.allow]] for `scratch`.
        (RULE_MERGE_COVERAGE.to_string(), lib, 72),
    ];
    expected.sort();
    assert_eq!(got, expected);
    // Config-level exemptions carry their reason into the diagnostic.
    assert!(report
        .suppressed
        .iter()
        .any(|d| d.message.contains("recomputed from `kept`")));
}

/// A method call reaches every workspace method of its name: `tick`'s
/// `self.cache.flush()` reaches `Cache::flush` in cache.rs although
/// lib.rs, the caller's file, defines a `flush` of its own.
#[test]
fn a_same_file_namesake_does_not_hide_the_cross_file_callee() {
    let cache = "demo/src/cache.rs".to_string();
    let seeded = lint(&fixture_root("fixtures_shadowing"));
    assert_eq!(
        diags(&seeded.violations),
        vec![(RULE_HOTPATH_TRANSITIVE.to_string(), cache.clone(), 11)]
    );
    assert!(
        seeded.violations[0].message.contains("(tick -> flush)"),
        "{}",
        seeded.violations[0].message
    );
    // The clean tree's inline allow is used, so nothing is reported.
    let clean = lint(&fixture_root("fixtures_shadowing_clean"));
    assert!(clean.is_clean(), "unexpected: {:?}", clean.violations);
    assert_eq!(
        diags(&clean.suppressed),
        vec![(RULE_HOTPATH_TRANSITIVE.to_string(), cache, 12)]
    );
}

#[test]
fn clean_structural_tree_lints_to_zero() {
    let report = lint(&fixture_root("fixtures_structural_clean"));
    assert!(report.is_clean(), "unexpected: {:?}", report.violations);
    let mut got = diags(&report.suppressed);
    got.sort();
    let lib = "demo/src/lib.rs".to_string();
    let mut expected = vec![
        (RULE_HOTPATH_DYNAMIC.to_string(), lib.clone(), 23),
        (RULE_SNAPSHOT_COVERAGE.to_string(), lib.clone(), 43),
        (RULE_MERGE_COVERAGE.to_string(), lib, 70),
    ];
    expected.sort();
    assert_eq!(got, expected);
}

/// Copies the clean structural tree into a scratch dir, dropping every
/// line of the demo crate source that contains `needle`.
fn mutated_tree(tag: &str, needle: &str) -> PathBuf {
    let src = fixture_root("fixtures_structural_clean");
    let dst = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("structural_{tag}"));
    std::fs::create_dir_all(dst.join("demo/src")).unwrap();
    for rel in ["womlint.toml", "womlint-baseline.toml"] {
        std::fs::copy(src.join(rel), dst.join(rel)).unwrap();
    }
    let lib = std::fs::read_to_string(src.join("demo/src/lib.rs")).unwrap();
    let kept: Vec<&str> = lib.lines().filter(|l| !l.contains(needle)).collect();
    assert_ne!(
        kept.len(),
        lib.lines().count(),
        "needle `{needle}` not found in the fixture"
    );
    std::fs::write(dst.join("demo/src/lib.rs"), kept.join("\n")).unwrap();
    dst
}

#[test]
fn deleting_a_snap_field_write_fails_with_the_pinned_rule_and_line() {
    let root = mutated_tree("snap", "put_u64(w, self.kept)");
    let report = lint(&root);
    assert_eq!(
        diags(&report.violations),
        vec![(
            RULE_SNAPSHOT_COVERAGE.to_string(),
            "demo/src/lib.rs".to_string(),
            42
        )]
    );
    assert!(report.violations[0].message.contains("`SnapState.kept`"));
}

#[test]
fn deleting_a_merge_field_update_fails_with_the_pinned_rule_and_line() {
    let root = mutated_tree("merge", "self.sum += other.sum");
    let report = lint(&root);
    assert_eq!(
        diags(&report.violations),
        vec![(
            RULE_MERGE_COVERAGE.to_string(),
            "demo/src/lib.rs".to_string(),
            69
        )]
    );
    assert!(report.violations[0].message.contains("`Totals.sum`"));
}

#[test]
fn binary_exits_nonzero_on_the_structural_seeds() {
    let out = Command::new(env!("CARGO_BIN_EXE_womlint"))
        .args(["--root"])
        .arg(fixture_root("fixtures_structural"))
        .env_remove("GITHUB_ACTIONS")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for rule in [
        RULE_HOTPATH_TRANSITIVE,
        RULE_HOTPATH_DYNAMIC,
        RULE_SNAPSHOT_COVERAGE,
        RULE_MERGE_COVERAGE,
        RULE_CONFIG_STALE,
        RULE_SUPPRESSION_UNUSED,
    ] {
        assert!(stdout.contains(rule), "missing {rule} in:\n{stdout}");
    }
    // Annotations are opt-in via the Actions environment.
    assert!(!stdout.contains("::error"));
}

#[test]
fn binary_exits_zero_on_the_clean_structural_tree() {
    let out = Command::new(env!("CARGO_BIN_EXE_womlint"))
        .args(["--root"])
        .arg(fixture_root("fixtures_structural_clean"))
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn binary_emits_github_annotations_under_actions_env() {
    let out = Command::new(env!("CARGO_BIN_EXE_womlint"))
        .args(["--root"])
        .arg(fixture_root("fixtures_structural"))
        .env("GITHUB_ACTIONS", "true")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "::error file=demo/src/lib.rs,line=36,title=hotpath/transitive::",
        "::error file=womlint.toml,line=1,title=config/stale-region::",
    ] {
        assert!(stdout.contains(needle), "missing `{needle}` in:\n{stdout}");
    }
}
