//! `analyzer`: the workspace's own static-analysis pass.
//!
//! The paper's contribution is making SIFT *fit* an MSP430-class
//! wearable — fixed-point arithmetic, a hard RAM/ROM budget, no dynamic
//! allocation — and the fleet engine's headline guarantee is a
//! byte-identical report digest. Both are conventions a single stray
//! line can silently break. This crate turns them into machine-checked
//! invariants, with three passes:
//!
//! 1. **embedded** — lexical rules over the designated embedded modules
//!    (`dsp::fixed`, `dsp::embedded_math`, `ml::embedded`, the
//!    `amulet-sim` apps): no `f64`, no float literals, no heap
//!    allocation, no panicking operations, no unchecked indexing.
//! 2. **determinism** — workspace-wide bans protecting the
//!    `FleetReport` digest: no `HashMap`/`HashSet`, no
//!    `Instant`/`SystemTime` outside `bench`, no thread APIs outside
//!    `wiot::slab`.
//! 3. **budget** — a semantic check that recomputes each detector
//!    flavor's static footprint from the `amulet-sim` profiler and the
//!    `ml` model format and compares it against the Amulet memory map
//!    and the paper's Table III, regenerating
//!    `results/ANALYZER_footprint.json`.
//!
//! Violations are suppressed inline with
//! `// lint:allow(rule-name, reason)` — see [`suppress`] for the scope
//! grammar. The analyzer analyzes itself: this crate is part of the
//! workspace walk and carries the same `lib-no-panic` hygiene rule as
//! `wiot` and `sift`.

#![forbid(unsafe_code)]

pub mod budget;
pub mod callgraph;
pub mod lexer;
pub mod lexical;
pub mod report;
pub mod rules;
pub mod source;
pub mod suppress;

use rules::{lookup, Finding, Pass, Severity};
use source::{classify, FileClass, SourceFile};
use std::path::{Path, PathBuf};
use suppress::Suppression;

/// Analyzer configuration.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Treat warnings as failures.
    pub deny_warnings: bool,
    /// Run the semantic budget pass (needs no source, only cost tables).
    pub run_budget: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            deny_warnings: false,
            run_budget: true,
        }
    }
}

/// Everything one analyzer run produced.
#[derive(Debug)]
pub struct Analysis {
    /// Findings that survived suppression, in file/line order.
    pub findings: Vec<Finding>,
    /// Footprints from the budget pass (empty if it didn't run).
    pub footprints: Vec<budget::FlavorFootprint>,
    /// Worst-case stack certificates from the call-graph pass.
    pub stack: callgraph::StackReport,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Number of findings removed by honored suppressions.
    pub suppressions_honored: usize,
}

impl Analysis {
    /// Number of findings that fail the run under `deny_warnings`.
    pub fn failure_count(&self, deny_warnings: bool) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error || deny_warnings)
            .count()
    }
}

/// Locate the workspace root by walking up from `start` to the first
/// `Cargo.toml` that declares `[workspace]`.
///
/// # Errors
///
/// Returns a description when no ancestor of `start` is a workspace.
pub fn find_workspace_root_from(start: &Path) -> Result<PathBuf, String> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Ok(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    Err(format!(
        "no workspace Cargo.toml above {}",
        start.display()
    ))
}

/// [`find_workspace_root_from`] starting at the current directory.
///
/// # Errors
///
/// Propagates I/O failure or a missing workspace manifest.
pub fn find_workspace_root() -> Result<PathBuf, String> {
    let cwd = std::env::current_dir().map_err(|e| format!("cannot read cwd: {e}"))?;
    find_workspace_root_from(&cwd)
}

/// Collect every `crates/*/src/**/*.rs` under `root`, plus the root
/// files read for their call sites only (`tests/*.rs`, `examples/*.rs`;
/// see [`source::FileClass::call_sites_only`]), as sorted
/// (workspace-relative path, contents) pairs. Sorting makes the
/// analyzer's own output deterministic.
///
/// # Errors
///
/// Returns a description on any unreadable directory or file.
pub fn collect_sources(root: &Path) -> Result<Vec<(String, String)>, String> {
    let crates_dir = root.join("crates");
    let mut out = Vec::new();
    let entries = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?;
    let mut dirs = vec![root.join("tests"), root.join("examples")];
    for entry in entries {
        let entry = entry.map_err(|e| format!("readdir: {e}"))?;
        dirs.push(entry.path().join("src"));
    }
    for dir in dirs.iter().filter(|d| d.is_dir()) {
        walk_rs(dir, &mut out)?;
    }
    let rootstr = root.to_path_buf();
    let mut pairs = Vec::with_capacity(out.len());
    for path in out {
        let rel = path
            .strip_prefix(&rootstr)
            .map_err(|_| format!("path {} escapes root", path.display()))?
            .to_string_lossy()
            .replace('\\', "/");
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        pairs.push((rel, text));
    }
    pairs.sort();
    Ok(pairs)
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("readdir: {e}"))?;
        let path = entry.path();
        if path.is_dir() {
            walk_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// One workspace file, parsed exactly once and shared by every pass:
/// the lexical rules, the suppression grammar, and the interprocedural
/// call-graph pass all read the same token stream.
#[derive(Debug)]
pub struct ParsedFile {
    /// Lexed source with its test-region map.
    pub file: SourceFile,
    /// Which rule groups apply here.
    pub class: FileClass,
    /// Honored `lint:allow` suppressions.
    pub sups: Vec<Suppression>,
    /// Meta findings from malformed suppressions.
    pub meta: Vec<Finding>,
}

/// Lex and classify each (workspace-relative path, contents) pair once.
/// Call-sites-only root files get no suppressions: no rule reports
/// in them.
fn parse_sources(sources: &[(String, String)]) -> Vec<ParsedFile> {
    sources
        .iter()
        .map(|(rel, text)| {
            let file = SourceFile::parse(rel, text);
            let class = classify(rel);
            let (sups, meta) = if class.call_sites_only {
                (Vec::new(), Vec::new())
            } else {
                suppress::collect(&file)
            };
            ParsedFile {
                class,
                file,
                sups,
                meta,
            }
        })
        .collect()
}

/// Run the lexical passes plus suppression handling on one file's
/// source. This is the unit the fixture tests drive: `rel_path` decides
/// which rules apply (see [`source::classify`]). The interprocedural
/// pass needs the whole workspace and is not part of this unit.
// lint:allow(cg-unreached, fixture: the single-file harness the lexical-rule fixture tests in tests/rules.rs drive)
pub fn analyze_source(rel_path: &str, text: &str) -> (Vec<Finding>, usize) {
    let file = SourceFile::parse(rel_path, text);
    let class = classify(rel_path);
    let raw = lexical::scan(&file, &class);
    let (sups, mut meta) = suppress::collect(&file);
    let (mut kept, honored) = suppress::apply(&file, raw, &sups);
    meta.append(&mut kept);
    meta.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    (meta, honored)
}

/// Analyze the whole workspace under `root`: each file is tokenized
/// once, the lexical and call-graph passes run over the shared parse,
/// suppressions apply to both, and the budget pass (when enabled) gates
/// static footprints *and* the certified worst-case stack.
///
/// # Errors
///
/// Returns a description when sources cannot be read; rule violations
/// are *findings*, not errors.
pub fn analyze(root: &Path, opts: &Options) -> Result<Analysis, String> {
    Ok(analyze_sources(&collect_sources(root)?, opts))
}

/// [`analyze`] over in-memory (workspace-relative path, contents)
/// pairs, as [`collect_sources`] returns them.
pub fn analyze_sources(sources: &[(String, String)], opts: &Options) -> Analysis {
    let files = parse_sources(sources);
    let files_scanned = files.len();
    let cg = callgraph::analyze(&files);

    // Group raw findings per file so one suppression pass covers both
    // the lexical and the interprocedural rules.
    let mut raw: Vec<Vec<Finding>> = files
        .iter()
        .map(|pf| {
            if pf.class.call_sites_only {
                Vec::new()
            } else {
                lexical::scan(&pf.file, &pf.class)
            }
        })
        .collect();
    let index: std::collections::BTreeMap<&str, usize> = files
        .iter()
        .enumerate()
        .map(|(i, pf)| (pf.file.rel_path.as_str(), i))
        .collect();
    let mut findings = Vec::new();
    for f in cg.findings {
        match index.get(f.file.as_str()) {
            Some(&i) => raw[i].push(f),
            None => findings.push(f),
        }
    }
    let mut honored = 0usize;
    for (pf, fs) in files.iter().zip(raw) {
        let (mut kept, h) = suppress::apply(&pf.file, fs, &pf.sups);
        honored += h;
        findings.extend(pf.meta.iter().cloned());
        findings.append(&mut kept);
    }
    findings.sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));

    let mut footprints = Vec::new();
    if opts.run_budget {
        let config = sift::config::SiftConfig::default();
        footprints = budget::compute_footprints(&config);
        findings.append(&mut budget::budget_findings(&footprints));
        findings.append(&mut budget::stack_findings(&footprints, &cg.stack));
        findings.append(&mut budget::slab_findings());
    }
    Analysis {
        findings,
        footprints,
        stack: cg.stack,
        files_scanned,
        suppressions_honored: honored,
    }
}

/// The findings `BLESS=1` golden-trace regeneration refuses to bless
/// over: the determinism pass *and* the interprocedural call-graph
/// pass. A build that cannot prove its digest paths deterministic — or
/// whose embedded entry points reach panics, recursion, or dynamic
/// dispatch — must not overwrite a golden fixture.
///
/// # Errors
///
/// Returns a description when sources cannot be read.
pub fn gate_findings(root: &Path) -> Result<Vec<Finding>, String> {
    let opts = Options {
        deny_warnings: false,
        run_budget: false,
    };
    let analysis = analyze(root, &opts)?;
    Ok(analysis
        .findings
        .into_iter()
        .filter(|f| {
            lookup(f.rule)
                .is_some_and(|r| matches!(r.pass, Pass::Determinism | Pass::CallGraph))
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suppressed_finding_is_dropped_and_counted() {
        let src = "fn f() {\n  x.unwrap(); // lint:allow(lib-no-panic, poll after ready check)\n}\n";
        let (fs, honored) = analyze_source("crates/wiot/src/x.rs", src);
        assert!(fs.is_empty(), "{fs:?}");
        assert_eq!(honored, 1);
    }

    #[test]
    fn workspace_root_discovery() {
        let root = find_workspace_root_from(Path::new(env!("CARGO_MANIFEST_DIR")));
        let root = root.expect("workspace root");
        assert!(root.join("crates/analyzer").is_dir());
    }

    #[test]
    fn whole_workspace_is_clean() {
        let root = find_workspace_root_from(Path::new(env!("CARGO_MANIFEST_DIR")))
            .expect("workspace root");
        let analysis = analyze(&root, &Options::default()).expect("analysis");
        let failures: Vec<_> = analysis.findings.iter().map(ToString::to_string).collect();
        assert!(
            analysis.failure_count(true) == 0,
            "workspace has findings:\n{}",
            failures.join("\n")
        );
        assert!(analysis.files_scanned > 50);
        assert_eq!(analysis.footprints.len(), 3);
        // Every embedded entry point must have a certified worst-case
        // stack (the ISSUE floor is 4; the registry pins 6).
        assert_eq!(
            analysis.stack.entries.len(),
            callgraph::ENTRY_POINTS.len(),
            "missing stack certificates: {:?}",
            analysis.stack.entries.iter().map(|e| &e.label).collect::<Vec<_>>()
        );
        for e in &analysis.stack.entries {
            assert!(e.stack_bytes > 0, "{} has no stack bound", e.label);
            assert!(!e.chain.is_empty(), "{} has no chain", e.label);
        }
    }
}
