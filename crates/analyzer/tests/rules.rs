//! Fixture-driven coverage of every analyzer rule: for each rule a
//! fixture where it fires, one where it is suppressed (or exempt), and
//! a clean one. The fixtures live under `tests/fixtures/` and are lexed
//! by the analyzer, never compiled.

use analyzer::budget::{budget_findings, compute_footprints, stack_findings};
use analyzer::rules::{Finding, Severity};
use analyzer::{analyze_source, analyze_sources, Options};
use sift::config::SiftConfig;

const EMBEDDED_VIOLATIONS: &str = include_str!("fixtures/embedded_violations.rs");
const EMBEDDED_SUPPRESSED: &str = include_str!("fixtures/embedded_suppressed.rs");
const EMBEDDED_CLEAN: &str = include_str!("fixtures/embedded_clean.rs");
const EMBEDDED_COLLECT: &str = include_str!("fixtures/embedded_collect.rs");
const DET_VIOLATIONS: &str = include_str!("fixtures/determinism_violations.rs");
const DET_CLEAN: &str = include_str!("fixtures/determinism_clean.rs");
const META_VIOLATIONS: &str = include_str!("fixtures/meta_violations.rs");
const DETECTOR_VIOLATIONS: &str = include_str!("fixtures/detector_violations.rs");
const TEST_REGION: &str = include_str!("fixtures/test_region.rs");
const CG_UNREACHED: &str = include_str!("fixtures/cg_unreached.rs");
const CG_UNREACHED_ROOT_TEST: &str = include_str!("fixtures/cg_unreached_root_test.rs");
const CG_UNREACHED_TYPE: &str = include_str!("fixtures/cg_unreached_type.rs");
const CG_LOCAL_SHADOW: &str = include_str!("fixtures/cg_local_shadow.rs");

/// The `cg-unreached` fixture module as `crates/wiot/src/fx.rs`, with a
/// bin root calling `from_bin` and `waived_but_reached`, a library
/// `static` fn table naming `in_static_table` and, optionally, the root
/// integration test.
fn cg_workspace(with_root_test: bool) -> (Vec<Finding>, usize) {
    let bin = "fn main() {\n    let _ = wiot::fx::from_bin() + wiot::fx::waived_but_reached();\n}\n";
    let table = "use crate::fx::in_static_table;\n\npub static TABLE: [fn(u32) -> u32; 1] = [in_static_table];\n";
    let mut sources = vec![
        ("crates/wiot/src/bin/tool.rs".to_string(), bin.to_string()),
        ("crates/wiot/src/fx.rs".to_string(), CG_UNREACHED.to_string()),
        ("crates/wiot/src/table.rs".to_string(), table.to_string()),
    ];
    if with_root_test {
        sources.push(("tests/it.rs".to_string(), CG_UNREACHED_ROOT_TEST.to_string()));
    }
    let opts = Options {
        deny_warnings: true,
        run_budget: false,
    };
    let analysis = analyze_sources(&sources, &opts);
    (analysis.findings, analysis.suppressions_honored)
}

/// (line, rule) pairs of the findings, in analyzer order.
fn fired(rel_path: &str, src: &str) -> Vec<(u32, &'static str)> {
    analyze_source(rel_path, src)
        .0
        .into_iter()
        .map(|f| (f.line, f.rule))
        .collect()
}

#[test]
fn embedded_fixture_trips_every_embedded_rule() {
    let got = fired("crates/dsp/src/fixed.rs", EMBEDDED_VIOLATIONS);
    assert_eq!(
        got,
        vec![
            (5, "embedded-no-f64"),
            (6, "embedded-no-float-literal"),
            (7, "embedded-no-heap-alloc"),
            (9, "embedded-no-panic"),
            (10, "embedded-no-slice-index"),
        ]
    );
}

#[test]
fn app_code_is_exempt_from_float_rules_only() {
    // Same fixture under an amulet-sim app path: heap/panic/indexing
    // still apply, the float profile does not (host-side metering).
    let got = fired("crates/amulet-sim/src/apps/x.rs", EMBEDDED_VIOLATIONS);
    let rules: Vec<_> = got.iter().map(|(_, r)| *r).collect();
    assert_eq!(
        rules,
        vec![
            "embedded-no-heap-alloc",
            "embedded-no-panic",
            "embedded-no-slice-index",
        ]
    );
}

#[test]
fn non_embedded_path_sees_no_embedded_rules() {
    // physio-sim is host-side: only determinism rules apply, and this
    // fixture breaks none of them.
    let got = fired("crates/physio-sim/src/x.rs", EMBEDDED_VIOLATIONS);
    assert!(got.is_empty(), "{got:?}");
}

#[test]
fn suppressions_silence_each_embedded_rule_and_are_counted() {
    let (findings, honored) =
        analyze_source("crates/dsp/src/fixed.rs", EMBEDDED_SUPPRESSED);
    assert!(findings.is_empty(), "{findings:?}");
    assert_eq!(honored, 5);
}

#[test]
fn collect_allocates_in_embedded_scope_and_push_does_not() {
    let got = fired("crates/dsp/src/fixed.rs", EMBEDDED_COLLECT);
    assert_eq!(
        got,
        vec![
            (7, "embedded-no-heap-alloc"),
            (11, "embedded-no-heap-alloc")
        ]
    );
    // Host-side code may collect.
    assert!(fired("crates/physio-sim/src/x.rs", EMBEDDED_COLLECT).is_empty());
}

#[test]
fn clean_embedded_fixture_is_clean() {
    assert!(fired("crates/dsp/src/fixed.rs", EMBEDDED_CLEAN).is_empty());
    assert!(fired("crates/ml/src/embedded.rs", EMBEDDED_CLEAN).is_empty());
}

#[test]
fn determinism_fixture_trips_every_determinism_rule() {
    let got = fired("crates/wiot/src/x.rs", DET_VIOLATIONS);
    assert_eq!(
        got,
        vec![
            (4, "det-no-hash-collections"),
            (5, "det-no-wall-clock"),
            (7, "det-no-hash-collections"),
            (8, "det-no-wall-clock"),
            (10, "det-no-thread-api"),
            (12, "lib-no-panic"),
        ]
    );
}

#[test]
fn slab_may_thread_but_nothing_else_changes() {
    let rules: Vec<_> = fired("crates/wiot/src/slab.rs", DET_VIOLATIONS)
        .into_iter()
        .map(|(_, r)| r)
        .collect();
    assert!(!rules.contains(&"det-no-thread-api"), "{rules:?}");
    assert!(rules.contains(&"det-no-hash-collections"));
    assert!(rules.contains(&"det-no-wall-clock"));
}

#[test]
fn bench_crate_is_exempt_from_the_determinism_pass() {
    let got = fired("crates/bench/src/x.rs", DET_VIOLATIONS);
    assert!(got.is_empty(), "{got:?}");
}

#[test]
fn determinism_clean_fixture_is_clean() {
    assert!(fired("crates/wiot/src/x.rs", DET_CLEAN).is_empty());
}

#[test]
fn detector_fixture_routes_to_the_dedicated_rule_at_error_severity() {
    let (findings, _) = analyze_source("crates/ml/src/tsetlin.rs", DETECTOR_VIOLATIONS);
    assert!(!findings.is_empty(), "fixture must trip the profile");
    for f in &findings {
        assert_eq!(
            f.rule, "detector-embedded-profile",
            "finding at line {} kept rule {}",
            f.line, f.rule
        );
        assert_eq!(f.severity, Severity::Error);
    }
    // The same source next door in the SVM translation keeps the
    // generic embedded rule ids, and the clean fixture stays clean on
    // the pinned path.
    let svm = fired("crates/ml/src/embedded.rs", DETECTOR_VIOLATIONS);
    assert!(svm.iter().all(|(_, r)| *r != "detector-embedded-profile"), "{svm:?}");
    assert!(fired("crates/ml/src/tsetlin.rs", EMBEDDED_CLEAN).is_empty());
}

#[test]
fn meta_rules_fire_on_malformed_and_stale_suppressions() {
    let got = fired("crates/wiot/src/x.rs", META_VIOLATIONS);
    assert_eq!(
        got,
        vec![
            (3, "suppress-missing-reason"),
            (6, "suppress-unknown-rule"),
            (9, "suppress-unused"),
        ]
    );
}

#[test]
fn test_regions_are_invisible_to_every_rule() {
    let (findings, honored) = analyze_source("crates/wiot/src/x.rs", TEST_REGION);
    assert!(findings.is_empty(), "{findings:?}");
    assert_eq!(honored, 0);
}

#[test]
fn cg_unreached_fires_only_where_no_root_reaches() {
    let (findings, honored) = cg_workspace(true);
    let got: Vec<_> = findings.iter().map(|f| (f.file.as_str(), f.line, f.rule)).collect();
    // Reached from the bin, from the root test through a `use … as`
    // rename, inside `assert!`, as a path value, through a ubiquitous
    // method name, as bare values in an array and in a `static` table;
    // `fmt` is a trait impl; `oracle` is waived. The waiver on a
    // reached fn is stale.
    assert_eq!(
        got,
        vec![
            ("crates/wiot/src/fx.rs", 4, "cg-unreached"),
            ("crates/wiot/src/fx.rs", 47, "suppress-unused"),
        ]
    );
    assert_eq!(honored, 1);
}

#[test]
fn cg_unreached_reports_a_dead_module_once() {
    // Without the root test the bin and the static table still reach
    // three fns: no module finding, one per unreached pub fn instead,
    // and one for `Gauge`, which only its own impls name. Inside the
    // dead module below its type finding is folded into the module's.
    let (findings, _) = cg_workspace(false);
    let lines: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == "cg-unreached")
        .map(|f| f.line)
        .collect();
    assert_eq!(lines, vec![4, 12, 16, 20, 24, 27, 31, 52, 56]);

    // With no roots at all, every fn is unreached: one finding, at the
    // top of the module, and the two waivers inside it go stale.
    let sources = vec![("crates/wiot/src/fx.rs".to_string(), CG_UNREACHED.to_string())];
    let opts = Options {
        deny_warnings: true,
        run_budget: false,
    };
    let got: Vec<_> = analyze_sources(&sources, &opts)
        .findings
        .iter()
        .map(|f| (f.line, f.rule))
        .collect();
    assert_eq!(
        got,
        vec![(1, "cg-unreached"), (42, "suppress-unused"), (47, "suppress-unused")]
    );
}

#[test]
fn cg_unreached_flags_a_type_only_its_own_impls_name() {
    // `fit` is reached through `LinearTrainer`, and the derived `Default`
    // is no use: until a root names `KernelTrainer` (a crate's own tests
    // would not be read), it is dead.
    let call =
        |t: &str| format!("fn main() {{\n    let _ = ml::fx::{t}::default().fit(&[]);\n}}\n");
    let mut sources = vec![
        ("crates/ml/src/fx.rs".to_string(), CG_UNREACHED_TYPE.to_string()),
        ("crates/ml/src/bin/train.rs".to_string(), call("LinearTrainer")),
    ];
    let opts = Options {
        deny_warnings: true,
        run_budget: false,
    };
    let found = |sources: &[(String, String)]| -> Vec<(u32, &str)> {
        let findings = analyze_sources(sources, &opts).findings;
        findings.iter().map(|f| (f.line, f.rule)).collect()
    };
    assert_eq!(found(&sources), vec![(9, "cg-unreached")]);
    sources.push(("tests/fit.rs".to_string(), call("KernelTrainer")));
    assert!(found(&sources).is_empty());
}

#[test]
fn local_bindings_shadow_workspace_fns() {
    // The entry point's closure `scan` and `apply`'s parameter `scan`
    // call themselves, not the panicking workspace `scan`; renamed
    // away, the same calls reach it.
    let host = "pub fn scan(lanes: &[u16]) -> u16 {\n    lanes.first().copied().unwrap()\n}\n";
    let opts = Options {
        deny_warnings: true,
        run_budget: false,
    };
    let analyze = |entry: &str| {
        let sources = vec![
            ("crates/wiot/src/survival.rs".to_string(), entry.to_string()),
            ("crates/analyzer/src/scan.rs".to_string(), host.to_string()),
        ];
        let analysis = analyze_sources(&sources, &opts);
        let entry = analysis.stack.entries.first();
        let chain = entry.map(|e| e.chain.clone()).unwrap_or_default();
        let findings = analysis.findings.iter();
        let panics = findings.filter(|f| f.rule == "cg-panic-reachable").count();
        (chain, panics)
    };
    let (chain, panics) = analyze(CG_LOCAL_SHADOW);
    assert_eq!(chain, ["SurvivalPolicy::step", "apply"]);
    assert_eq!(panics, 0);
    let (chain, panics) = analyze(&CG_LOCAL_SHADOW.replace("let mut scan", "let mut fold"));
    assert_eq!(chain, ["SurvivalPolicy::step", "scan"]);
    assert_eq!(panics, 1);
    let (chain, panics) = analyze(&CG_LOCAL_SHADOW.replace("apply(scan:", "apply(f:"));
    assert_eq!(chain, ["SurvivalPolicy::step", "apply", "scan"]);
    assert_eq!(panics, 1);
}

#[test]
fn every_entry_row_must_match_exactly_one_fn() {
    // The survival entry's file defines `SurvivalPolicy::step` once or
    // twice; no other entry's file is in the set. The rows are judged
    // only when the set holds the file of the entry-point table.
    let step = "pub struct SurvivalPolicy;\nimpl SurvivalPolicy {\n    pub fn step(&mut self) {}\n}\n";
    let twice = format!("{step}impl SurvivalPolicy {{\n    pub fn step(&self) {{}}\n}}\n");
    let opts = Options {
        deny_warnings: true,
        run_budget: false,
    };
    let unresolved = |survival: &str, with_table: bool| -> (Vec<String>, usize) {
        let mut sources = vec![("crates/wiot/src/survival.rs".to_string(), survival.to_string())];
        if with_table {
            sources.push(("crates/analyzer/src/callgraph.rs".to_string(), String::new()));
        }
        let analysis = analyze_sources(&sources, &opts);
        let messages = stack_findings(&[], &analysis.stack)
            .into_iter()
            .filter(|f| f.rule == "budget-entry-unresolved" && f.severity == Severity::Error)
            .map(|f| f.message)
            .collect();
        (messages, analysis.stack.entries.len())
    };
    let (found, certified) = unresolved(&twice, true);
    assert_eq!((found.len(), certified), (6, 0));
    let ambiguous: Vec<_> = found.iter().filter(|m| m.contains("SurvivalPolicy::step")).collect();
    assert_eq!(ambiguous.len(), 1);
    assert!(ambiguous[0].contains("matches 2 definitions"), "{}", ambiguous[0]);
    assert_eq!(found.iter().filter(|m| m.contains("matches 0 definitions")).count(), 5);
    // Defined once, the row resolves and is certified.
    let (found, certified) = unresolved(step, true);
    assert_eq!((found.len(), certified), (5, 1));
    assert!(found.iter().all(|m| !m.contains("SurvivalPolicy::step")));
    // A fixture set without the table is not judged.
    assert_eq!(unresolved(&twice, false), (vec![], 0));
    assert_eq!(unresolved(step, false), (vec![], 1));
}

#[test]
fn severities_match_the_registry() {
    let (findings, _) = analyze_source("crates/dsp/src/fixed.rs", EMBEDDED_VIOLATIONS);
    let sev = |rule: &str| {
        findings
            .iter()
            .find(|f| f.rule == rule)
            .map(|f| f.severity)
    };
    assert_eq!(sev("embedded-no-f64"), Some(Severity::Error));
    assert_eq!(sev("embedded-no-float-literal"), Some(Severity::Warn));
    assert_eq!(sev("embedded-no-slice-index"), Some(Severity::Warn));
    let (findings, _) = cg_workspace(true);
    let unreached = findings.iter().find(|f| f.rule == "cg-unreached");
    assert_eq!(unreached.map(|f| f.severity), Some(Severity::Error));
}

#[test]
fn budget_rules_fire_on_doctored_footprints() {
    let mut fps = compute_footprints(&SiftConfig::default());
    assert!(budget_findings(&fps).is_empty());
    // Blow each budget on a different flavor.
    fps[0].app_fram_bytes += 256 * 1024; // > FRAM_BYTES total
    fps[1].app_sram_bytes += 4 * 1024; // > SRAM_BYTES total
    fps[2].window_samples = 5000; // > MAX_ARRAY_ELEMS
    let rules: Vec<_> = budget_findings(&fps).iter().map(|f| f.rule).collect();
    assert!(rules.contains(&"budget-fram-exceeded"), "{rules:?}");
    assert!(rules.contains(&"budget-sram-exceeded"), "{rules:?}");
    assert!(rules.contains(&"budget-array-limit"), "{rules:?}");
    // The doctored FRAM numbers also drift from the paper's table.
    assert!(rules.contains(&"budget-paper-drift"), "{rules:?}");
}
