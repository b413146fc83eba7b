//! Integration tests for the bear-lint engine (`xtask::lint`):
//! fixture-driven true-positive/true-negative checks per rule,
//! allow-directive semantics, the gate (any finding fails, a clean tree
//! passes), and a clean-at-HEAD scan of the real workspace.

use std::path::{Path, PathBuf};
use xtask::lint::report::Finding;
use xtask::lint::{self, Format, LintConfig, LintOptions, RuleScope, EXIT_FINDINGS};

/// The committed fixture tree (`crates/xtask/tests/fixtures`).
fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests").join("fixtures")
}

/// A lint config mapping each rule onto its fixture directory.
fn fixture_config() -> LintConfig {
    LintConfig {
        root: fixture_root(),
        l1: RuleScope { include: vec!["hot".into()], exclude: Vec::new() },
        l2: RuleScope { include: vec!["kernels".into()], exclude: Vec::new() },
        l3: RuleScope { include: vec!["trust".into()], exclude: Vec::new() },
        l4: RuleScope { include: vec!["sync".into()], exclude: vec!["sync/sync.rs".into()] },
        l6: RuleScope { include: vec!["generate".into()], exclude: Vec::new() },
        l5_enum: Some(("errors/error.rs".into(), "Error".into())),
        l5_targets: vec![
            ("errors/map.rs".into(), "full_map".into()),
            ("errors/map.rs".into(), "partial_map".into()),
        ],
    }
}

/// Findings from the fixture tree, filtered to one file.
fn fixture_findings(file: &str) -> Vec<Finding> {
    lint::scan(&fixture_config())
        .expect("fixture scan")
        .into_iter()
        .filter(|f| f.file == file)
        .collect()
}

#[test]
fn l1_catches_hot_path_panics_and_spares_safe_forms() {
    let found = fixture_findings("hot/serving.rs");
    let count = |cat: &str| found.iter().filter(|f| f.category == cat).count();
    assert_eq!(count("unwrap"), 1, "{found:?}");
    assert_eq!(count("expect"), 1, "{found:?}");
    assert_eq!(count("panic-macro"), 1, "{found:?}");
    assert_eq!(count("slice-index"), 1, "{found:?}");
    // Nothing else: `get`, `debug_assert!`, slice types in signatures,
    // string/comment contents, and test-module code are all spared.
    assert_eq!(found.len(), 4, "{found:?}");
    assert!(found.iter().all(|f| f.rule == "L1"), "{found:?}");
}

#[test]
fn allow_with_reason_suppresses_but_reasonless_does_not() {
    let found = fixture_findings("hot/allow.rs");
    // The two documented directives suppress their unwraps; the
    // reason-less one leaves its finding AND reports the bad directive.
    assert_eq!(found.iter().filter(|f| f.category == "unwrap").count(), 1, "{found:?}");
    assert_eq!(found.iter().filter(|f| f.category == "malformed-allow").count(), 1, "{found:?}");
    assert_eq!(found.len(), 2, "{found:?}");
}

#[test]
fn l2_catches_kernel_allocations_and_spares_helpers() {
    let found = fixture_findings("kernels/kernels.rs");
    // Vec::new + .collect() + vec![] in bad_axpy_into, .to_vec() in
    // bad_norm_acc; the clean kernel and the non-kernel helper are spared.
    assert_eq!(found.len(), 4, "{found:?}");
    assert!(found.iter().all(|f| f.rule == "L2" && f.category == "alloc"), "{found:?}");
    assert!(
        found
            .iter()
            .all(|f| f.message.contains("bad_axpy_into") || f.message.contains("bad_norm_acc")),
        "{found:?}"
    );
}

#[test]
fn l3_catches_raw_constructor_calls_only() {
    let found = fixture_findings("trust/consume.rs");
    // One call in tp_raw; the audited path, the local definition, and
    // the test-module call are spared.
    assert_eq!(found.len(), 1, "{found:?}");
    assert_eq!(found[0].rule, "L3");
    assert!(found[0].message.contains("from_parts"), "{found:?}");
}

#[test]
fn l4_catches_std_sync_locks_and_respects_the_shim_exclude() {
    let found = fixture_findings("sync/locks.rs");
    // Condvar + Mutex in the brace import, RwLock twice in tp_inline;
    // atomics, Arc, and the crate::sync path are spared.
    assert_eq!(found.len(), 4, "{found:?}");
    assert!(found.iter().all(|f| f.rule == "L4" && f.category == "std-sync"), "{found:?}");
    // The shim file itself is carved out by the exclude list.
    assert!(fixture_findings("sync/sync.rs").is_empty());
}

#[test]
fn l5_flags_the_variant_hidden_under_a_catch_all() {
    let found = fixture_findings("errors/map.rs");
    assert_eq!(found.len(), 1, "{found:?}");
    assert_eq!(found[0].rule, "L5");
    assert_eq!(found[0].fingerprint, "partial_map:missing-arm:Invalid");
    // full_map names every variant and produces nothing.
    assert!(found[0].message.contains("partial_map"), "{found:?}");
}

#[test]
fn l6_catches_std_hash_collections_in_generators() {
    let found = fixture_findings("generate/gen.rs");
    // The `HashSet` import, the qualified `HashMap` and the imported
    // `HashSet::new` in tp_targets; ordered collections, comment and
    // string contents, the allowed set and test code are spared.
    assert_eq!(found.len(), 3, "{found:?}");
    assert!(found.iter().all(|f| f.rule == "L6" && f.category == "std-hash"), "{found:?}");
}

/// A scratch directory under the system temp dir, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("bear-lint-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("hot")).expect("create temp fixture tree");
        TempDir(dir)
    }

    fn write_hot(&self, body: &str) {
        std::fs::write(self.0.join("hot").join("main.rs"), body).expect("write fixture");
    }

    fn config(&self) -> LintConfig {
        LintConfig {
            root: self.0.clone(),
            l1: RuleScope { include: vec!["hot".into()], exclude: Vec::new() },
            l2: RuleScope::default(),
            l3: RuleScope::default(),
            l4: RuleScope::default(),
            l6: RuleScope::default(),
            l5_enum: None,
            l5_targets: Vec::new(),
        }
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn text_opts() -> LintOptions {
    LintOptions { format: Format::Text, output: None }
}

const ONE_UNWRAP: &str = "pub fn f(a: Option<u8>) -> u8 {\n    a.unwrap()\n}\n";
const ALLOWED_UNWRAP: &str =
    "pub fn f(a: Option<u8>) -> u8 {\n    // lint:allow(L1, the caller checked)\n    a.unwrap()\n}\n";
const CLEAN: &str = "pub fn f(a: Option<u8>) -> u8 {\n    a.unwrap_or(0)\n}\n";

#[test]
fn any_finding_fails_the_gate_and_a_clean_tree_passes() {
    let dir = TempDir::new("gate");
    let config = dir.config();
    // No baseline can tolerate a finding: one is enough to fail.
    dir.write_hot(ONE_UNWRAP);
    assert_eq!(lint::check(&config, &text_opts()).unwrap(), EXIT_FINDINGS);
    // A reasoned allow, or the fix itself, passes.
    dir.write_hot(ALLOWED_UNWRAP);
    assert_eq!(lint::check(&config, &text_opts()).unwrap(), 0);
    dir.write_hot(CLEAN);
    assert_eq!(lint::check(&config, &text_opts()).unwrap(), 0);
    // The retired ratchet flag is a usage error, not a silent no-op.
    assert!(LintOptions::parse(&["--update-baseline".to_string()]).is_err());
}

#[test]
fn json_report_carries_findings_and_summary() {
    let dir = TempDir::new("json");
    dir.write_hot(ONE_UNWRAP);
    let config = dir.config();
    let out_path = dir.0.join("report.json");
    let opts = LintOptions { format: Format::Json, output: Some(out_path.clone()) };
    assert_eq!(lint::check(&config, &opts).unwrap(), EXIT_FINDINGS);
    let report = std::fs::read_to_string(&out_path).unwrap();
    assert!(report.contains("\"rule\": \"L1\""), "{report}");
    assert!(report.contains("\"summary\": {\"total\": 1}"), "{report}");
}

#[test]
fn workspace_scan_is_clean_at_head() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let findings = lint::scan(&LintConfig::workspace(root)).expect("workspace scan");
    assert!(findings.is_empty(), "findings at HEAD: {findings:#?}");
}
