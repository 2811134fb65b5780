//! Parsed source files: token stream, `#[cfg(test)]` region map, and
//! the per-file rule classification (which passes apply where).

use crate::lexer::{lex, Token, TokenKind};
use crate::rules::PINNED_PROFILES;

/// The three embedded modules under the strict no-float profile, plus
/// everything matched by [`classify`]'s app-code prefix. Paths are
/// workspace-relative with forward slashes.
const FLOAT_STRICT: &[&str] = &[
    "crates/dsp/src/fixed.rs",
    "crates/dsp/src/embedded_math.rs",
    "crates/ml/src/embedded.rs",
];

/// Amulet application code: heap/panic/indexing rules apply, float
/// rules do not (its `f64` cycle metering is host-side by design).
const APP_CODE_PREFIX: &str = "crates/amulet-sim/src/apps/";

/// Crates the determinism pass skips entirely: the bench harness times
/// things on purpose, and the vendored stand-ins (`rand`, `proptest`)
/// are test infrastructure, not report paths.
const DET_EXEMPT_CRATES: &[&str] = &["bench", "rand", "proptest"];

/// The files allowed to touch thread APIs: the slab fleet engine. Its one
/// `std::thread::scope`, in the ordered fold that also runs campaign
/// enrollment, folds results in index order through a bounded window
/// whose protocol a unit test checks over every schedule, so the
/// threads cannot change a result.
const THREAD_OK: &[&str] = &["crates/wiot/src/slab.rs"];

/// Crates under the warn-level library panic-hygiene rule.
const LIB_NO_PANIC_CRATES: &[&str] = &["wiot", "sift", "analyzer", "telemetry"];

/// Which rule groups apply to a file, derived from its path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileClass {
    /// Embedded float rules (`embedded-no-f64`, `embedded-no-float-literal`).
    pub float_strict: bool,
    /// Embedded heap / panic / slice-index rules.
    pub embedded: bool,
    /// Skip the determinism pass for this file.
    pub det_exempt: bool,
    /// Thread APIs are allowed in this file.
    pub thread_ok: bool,
    /// `lib-no-panic` hygiene applies (non-embedded library code).
    pub lib_no_panic: bool,
    /// The dedicated error-severity rule all embedded-profile findings
    /// route to when this file is covered by a row of
    /// [`PINNED_PROFILES`] (e.g. `ckpt-embedded-profile`).
    pub pinned_rule: Option<&'static str>,
    /// A root file outside `crates/*/src` (`tests/*.rs`, `examples/*.rs`):
    /// read only for the call sites that make library code reachable; no
    /// rule runs on it.
    pub call_sites_only: bool,
}

/// Classify a workspace-relative path (`crates/<name>/src/...`).
pub fn classify(rel_path: &str) -> FileClass {
    let mut segments = rel_path.strip_prefix("crates/").unwrap_or("").split('/');
    let crate_name = segments.next().unwrap_or("");
    let pinned_rule = PINNED_PROFILES
        .iter()
        .find(|p| p.modules.contains(&rel_path))
        .map(|p| p.rule);
    let float_strict = FLOAT_STRICT.contains(&rel_path) || pinned_rule.is_some();
    let embedded = float_strict || rel_path.starts_with(APP_CODE_PREFIX);
    FileClass {
        float_strict,
        embedded,
        det_exempt: DET_EXEMPT_CRATES.contains(&crate_name),
        thread_ok: THREAD_OK.contains(&rel_path),
        lib_no_panic: LIB_NO_PANIC_CRATES.contains(&crate_name) && !embedded,
        pinned_rule,
        call_sites_only: segments.next() != Some("src"),
    }
}

/// A lexed file with its test-region map.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path, forward slashes.
    pub rel_path: String,
    /// Full token stream, comments included.
    pub tokens: Vec<Token>,
    /// Inclusive line ranges covered by `#[cfg(test)]` / `#[test]`
    /// items; rules do not fire inside them.
    pub test_spans: Vec<(u32, u32)>,
}

impl SourceFile {
    /// Lex `text` and locate its test regions.
    pub fn parse(rel_path: &str, text: &str) -> SourceFile {
        let tokens = lex(text);
        let test_spans = find_test_spans(&tokens);
        SourceFile {
            rel_path: rel_path.to_string(),
            tokens,
            test_spans,
        }
    }

    /// True if `line` falls inside a test region.
    pub fn in_test(&self, line: u32) -> bool {
        self.test_spans.iter().any(|&(a, b)| a <= line && line <= b)
    }
}

fn is_punct(kind: &TokenKind, c: char) -> bool {
    matches!(kind, TokenKind::Punct(p) if *p == c)
}

fn is_ident(kind: &TokenKind, name: &str) -> bool {
    matches!(kind, TokenKind::Ident(s) if s == name)
}

/// Find the inclusive line spans of items annotated with a test
/// attribute (`#[cfg(test)]`, `#[cfg(all(test, …))]`, `#[test]`).
/// `#[cfg(not(test))]` is deliberately *not* a test region.
///
/// The item span runs from the attribute to the matching `}` of the
/// item's body (or its terminating `;`), found by brace counting over
/// the token stream — code *after* a test module is scanned normally.
fn find_test_spans(tokens: &[Token]) -> Vec<(u32, u32)> {
    let sig: Vec<&Token> = tokens.iter().filter(|t| !t.is_trivia()).collect();
    let kind = |k: usize| &sig[k].kind;
    let mut spans = Vec::new();
    let mut k = 0usize;
    while k + 1 < sig.len() {
        if !(is_punct(kind(k), '#') && is_punct(kind(k + 1), '[')) {
            k += 1;
            continue;
        }
        let attr_line = sig[k].line;
        // Collect the attribute's tokens up to the matching `]`.
        let (attr_end, is_test) = scan_attribute(&sig, k + 1);
        if !is_test {
            k = attr_end + 1;
            continue;
        }
        // Skip any further stacked attributes.
        let mut n = attr_end + 1;
        while n + 1 < sig.len() && is_punct(kind(n), '#') && is_punct(kind(n + 1), '[') {
            n = scan_attribute(&sig, n + 1).0 + 1;
        }
        // The annotated item ends at its body's matching `}` or, for
        // body-less items, the first `;`.
        let mut end_line = attr_line;
        let mut q = n;
        while q < sig.len() {
            if is_punct(kind(q), '{') {
                let mut depth = 0usize;
                while q < sig.len() {
                    if is_punct(kind(q), '{') {
                        depth += 1;
                    } else if is_punct(kind(q), '}') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    q += 1;
                }
                end_line = sig[q.min(sig.len() - 1)].line;
                break;
            }
            if is_punct(kind(q), ';') {
                end_line = sig[q].line;
                break;
            }
            q += 1;
        }
        spans.push((attr_line, end_line));
        k = q + 1;
    }
    spans
}

/// From the `[` at `open`, return (index of matching `]`, whether the
/// attribute marks a test item).
fn scan_attribute(sig: &[&Token], open: usize) -> (usize, bool) {
    let mut depth = 0usize;
    let mut saw_test = false;
    let mut saw_not = false;
    let mut m = open;
    while m < sig.len() {
        match &sig[m].kind {
            TokenKind::Punct('[') => depth += 1,
            TokenKind::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            k if is_ident(k, "test") => saw_test = true,
            k if is_ident(k, "not") => saw_not = true,
            _ => {}
        }
        m += 1;
    }
    (m.min(sig.len() - 1), saw_test && !saw_not)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_mod_span_does_not_swallow_trailing_code() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n  fn t() { x.unwrap(); }\n}\nfn after() { y.unwrap(); }\n";
        let f = SourceFile::parse("crates/wiot/src/x.rs", src);
        assert_eq!(f.test_spans, vec![(2, 5)]);
        assert!(f.in_test(4));
        assert!(!f.in_test(6));
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let src = "#[cfg(not(test))]\nfn gated() {}\n";
        let f = SourceFile::parse("crates/wiot/src/x.rs", src);
        assert!(f.test_spans.is_empty());
    }

    #[test]
    fn stacked_attributes_and_semicolon_items() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nuse std::collections::HashMap;\nfn real() {}\n";
        let f = SourceFile::parse("crates/wiot/src/x.rs", src);
        assert_eq!(f.test_spans, vec![(1, 3)]);
        assert!(!f.in_test(4));
    }

    #[test]
    fn classification_table() {
        let fixed = classify("crates/dsp/src/fixed.rs");
        assert!(fixed.float_strict && fixed.embedded);
        let app = classify("crates/amulet-sim/src/apps/sift_app.rs");
        assert!(app.embedded && !app.float_strict);
        let fleet = classify("crates/wiot/src/fleet.rs");
        assert!(!fleet.thread_ok && fleet.lib_no_panic);
        // The slab engine is the one audited parallel boundary;
        // everything else about it stays under library rules.
        let slab = classify("crates/wiot/src/slab.rs");
        assert!(slab.thread_ok && slab.lib_no_panic && !slab.det_exempt);
        let bench = classify("crates/bench/src/bin/fleet.rs");
        assert!(bench.det_exempt);
        let plain = classify("crates/physio-sim/src/record.rs");
        assert!(!plain.embedded && !plain.det_exempt && !plain.lib_no_panic);
        for path in ["crates/amulet-sim/src/nvram.rs", "crates/sift/src/checkpoint.rs"] {
            let ckpt = classify(path);
            assert_eq!(ckpt.pinned_rule, Some("ckpt-embedded-profile"), "{path}");
            assert!(ckpt.float_strict && ckpt.embedded, "{path}");
            assert!(!ckpt.lib_no_panic, "{path}: ckpt rule supersedes lib hygiene");
        }
        let zoo = classify("crates/ml/src/tsetlin.rs");
        assert_eq!(zoo.pinned_rule, Some("detector-embedded-profile"));
        assert!(zoo.float_strict && zoo.embedded && !zoo.lib_no_panic);
        // The neighboring SVM translation keeps its original class.
        let svm = classify("crates/ml/src/embedded.rs");
        assert!(svm.float_strict && svm.embedded && svm.pinned_rule.is_none());
        assert!(fixed.pinned_rule.is_none() && plain.pinned_rule.is_none());
        assert!(!fixed.call_sites_only && !bench.call_sites_only);
        for path in ["tests/golden_traces.rs", "examples/quickstart.rs"] {
            assert!(classify(path).call_sites_only, "{path}");
        }
        let tele_hot = classify("crates/telemetry/src/record.rs");
        assert_eq!(tele_hot.pinned_rule, Some("tele-embedded-profile"));
        assert!(tele_hot.float_strict && tele_hot.embedded);
        assert!(!tele_hot.lib_no_panic, "hot path supersedes lib hygiene");
        let tele_lib = classify("crates/telemetry/src/lib.rs");
        assert!(tele_lib.pinned_rule.is_none() && !tele_lib.embedded && tele_lib.lib_no_panic);
        let surv = classify("crates/wiot/src/survival.rs");
        assert_eq!(surv.pinned_rule, Some("survival-embedded-profile"));
        assert!(surv.float_strict && surv.embedded);
        assert!(!surv.lib_no_panic, "survival rule supersedes lib hygiene");
        let wiot_lib = classify("crates/wiot/src/adaptive.rs");
        assert!(wiot_lib.pinned_rule.is_none() && !wiot_lib.embedded && wiot_lib.lib_no_panic);
        // The campaign engine is ordinary deterministic library code:
        // full determinism scanning (no RNG escape hatches), no thread
        // spawning of its own (it drives the fleet engine's pool), and
        // library panic hygiene.
        let campaign = classify("crates/wiot/src/campaign.rs");
        assert!(
            !campaign.det_exempt && !campaign.thread_ok && campaign.lib_no_panic,
            "campaign.rs must stay under the determinism pass"
        );
        // Every pinned-profile module resolves through the table, in
        // registry order.
        for p in PINNED_PROFILES {
            for m in p.modules {
                assert_eq!(classify(m).pinned_rule, Some(p.rule), "{m}");
            }
        }
    }
}
