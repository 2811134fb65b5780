//! The token-level rule passes: embedded-profile and determinism.
//!
//! Each check is a small adjacency pattern over the significant (non-
//! comment) token stream; test regions are excluded afterwards by the
//! caller via [`SourceFile::in_test`].

use crate::lexer::TokenKind;
use crate::rules::Finding;
use crate::source::{FileClass, SourceFile};

/// Keywords that can legally precede `[` without it being an index
/// expression (`let [a, b] = …`, `return [x]`, `in [..]`, …).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "let", "mut", "ref", "in", "return", "if", "else", "match", "break", "box", "move", "while",
    "as", "dyn", "where",
];

/// Macros that abort on the device (embedded scope), shared with the
/// call-graph pass. `debug_assert!` is deliberately absent: it compiles
/// out of release firmware.
pub(crate) const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// Heap-allocating method names (after a `.`). `push` and `extend` are
/// absent: on a fixed-capacity buffer (the telemetry event ring) they
/// allocate nothing.
const HEAP_METHODS: &[&str] = &[
    "to_vec",
    "to_string",
    "to_owned",
    "into_boxed_slice",
    "collect",
];

/// Run every lexical rule that `class` enables on `file`. Findings in
/// test regions are already filtered out here.
pub fn scan(file: &SourceFile, class: &FileClass) -> Vec<Finding> {
    let sig: Vec<&crate::lexer::Token> =
        file.tokens.iter().filter(|t| !t.is_trivia()).collect();
    let kind = |k: usize| sig.get(k).map(|t| &t.kind);
    let is_punct = |k: usize, c: char| matches!(kind(k), Some(TokenKind::Punct(p)) if *p == c);
    let mut out = Vec::new();
    let mut push = |rule: &'static str, line: u32, msg: String| {
        if !file.in_test(line) {
            out.push(Finding::new(rule, &file.rel_path, line, msg));
        }
    };

    // Pinned-profile modules (checkpoint codec, telemetry hot path,
    // survival policy, detector backends — the `rules::PINNED_PROFILES`
    // table) report every embedded-profile violation under their one
    // dedicated error-severity rule: there, a panic or allocation is a
    // corrupted checkpoint / perturbed hot loop / broken integer
    // contract, not just a style problem.
    let (f64_rule, float_lit_rule, heap_rule, panic_rule, index_rule) =
        if let Some(pinned) = class.pinned_rule {
            (pinned, pinned, pinned, pinned, pinned)
        } else {
            (
                "embedded-no-f64",
                "embedded-no-float-literal",
                "embedded-no-heap-alloc",
                "embedded-no-panic",
                "embedded-no-slice-index",
            )
        };

    for (p, tok) in sig.iter().enumerate() {
        let line = tok.line;
        match &tok.kind {
            TokenKind::Ident(name) => {
                let name = name.as_str();
                let prev_dot = p > 0 && is_punct(p - 1, '.');
                let next_bang = is_punct(p + 1, '!');
                let next_path = is_punct(p + 1, ':') && is_punct(p + 2, ':');
                let prev_path = p >= 2 && is_punct(p - 1, ':') && is_punct(p - 2, ':');

                if class.float_strict && name == "f64" {
                    push(
                        f64_rule,
                        line,
                        "f64 used in a float-strict embedded module".to_string(),
                    );
                }
                if class.embedded {
                    if matches!(name, "Vec" | "Box" | "String") && next_path {
                        push(
                            heap_rule,
                            line,
                            format!("{name}:: allocation in an embedded module"),
                        );
                    }
                    if matches!(name, "vec" | "format") && next_bang {
                        push(
                            heap_rule,
                            line,
                            format!("{name}! allocates in an embedded module"),
                        );
                    }
                    if HEAP_METHODS.contains(&name) && prev_dot {
                        push(
                            heap_rule,
                            line,
                            format!(".{name}() allocates in an embedded module"),
                        );
                    }
                    if matches!(name, "unwrap" | "expect") && prev_dot {
                        push(
                            panic_rule,
                            line,
                            format!(".{name}() can panic in an embedded module"),
                        );
                    }
                    if PANIC_MACROS.contains(&name) && next_bang {
                        push(
                            panic_rule,
                            line,
                            format!("{name}! aborts on the device"),
                        );
                    }
                } else if class.lib_no_panic {
                    if matches!(name, "unwrap" | "expect") && prev_dot {
                        push(
                            "lib-no-panic",
                            line,
                            format!(".{name}() on a library runtime path; propagate a Result"),
                        );
                    }
                    if matches!(name, "panic" | "unreachable" | "todo" | "unimplemented")
                        && next_bang
                    {
                        push(
                            "lib-no-panic",
                            line,
                            format!("{name}! on a library runtime path; return an error"),
                        );
                    }
                }
                if !class.det_exempt {
                    if matches!(name, "HashMap" | "HashSet") {
                        push(
                            "det-no-hash-collections",
                            line,
                            format!("{name} iteration order is nondeterministic; use BTreeMap/BTreeSet or a Vec"),
                        );
                    }
                    if matches!(name, "Instant" | "SystemTime") {
                        push(
                            "det-no-wall-clock",
                            line,
                            format!("{name} reads the wall clock; simulated time only outside bench"),
                        );
                    }
                    if !class.thread_ok
                        && (name == "mpsc" || (name == "thread" && (next_path || prev_path)))
                    {
                        push(
                            "det-no-thread-api",
                            line,
                            format!("`{name}` outside wiot::slab; parallelism lives behind the slab fleet engine only"),
                        );
                    }
                }
            }
            TokenKind::Float { f64_suffix } if class.float_strict => {
                if *f64_suffix {
                    push(
                        f64_rule,
                        line,
                        "f64-suffixed literal in a float-strict embedded module".to_string(),
                    );
                } else {
                    push(
                        float_lit_rule,
                        line,
                        "float literal in a float-strict embedded module".to_string(),
                    );
                }
            }
            TokenKind::Punct('[') if class.embedded && p > 0 => {
                let indexing = match kind(p - 1) {
                    Some(TokenKind::Ident(prev)) => {
                        !NON_INDEX_KEYWORDS.contains(&prev.as_str())
                            // `name![…]` macro-with-brackets: prev sig
                            // token of `[` is `!`, not an ident, so no
                            // extra case needed here.
                    }
                    Some(TokenKind::Punct(')' | ']')) => true,
                    _ => false,
                };
                if indexing {
                    push(
                        index_rule,
                        line,
                        "bracket indexing can panic; prefer get()/chunks in embedded code"
                            .to_string(),
                    );
                }
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::classify;

    fn findings(rel: &str, src: &str) -> Vec<&'static str> {
        let file = SourceFile::parse(rel, src);
        scan(&file, &classify(rel))
            .into_iter()
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn float_rules_fire_only_in_strict_modules() {
        let src = "fn f(x: f64) -> f64 { x * 2.0 + 1.0f64 }\n";
        let hits = findings("crates/dsp/src/fixed.rs", src);
        assert_eq!(
            hits,
            vec![
                "embedded-no-f64",
                "embedded-no-f64",
                "embedded-no-float-literal",
                "embedded-no-f64"
            ]
        );
        assert!(findings("crates/wiot/src/scenario.rs", src).is_empty());
    }

    #[test]
    fn heap_and_panic_rules_in_app_code() {
        let src = "fn f() { let v = vec![1]; let s = format!(\"x\"); q.unwrap(); r[0]; }\n";
        let hits = findings("crates/amulet-sim/src/apps/demo.rs", src);
        assert!(hits.contains(&"embedded-no-heap-alloc"));
        assert!(hits.contains(&"embedded-no-panic"));
        assert!(hits.contains(&"embedded-no-slice-index"));
        // No float rules in app code: cycle metering is host-side f64.
        assert!(!hits.contains(&"embedded-no-f64"));
    }

    #[test]
    fn slice_patterns_and_types_are_not_indexing() {
        let src = "fn f(a: &[u8]) { let [x, y] = [1, 2]; let _ = (x, y, a); }\n";
        assert!(findings("crates/amulet-sim/src/apps/demo.rs", src).is_empty());
    }

    #[test]
    fn determinism_rules_are_workspace_wide() {
        let src = "use std::collections::HashMap;\nuse std::time::Instant;\nfn f() { std::thread::spawn(|| {}); }\n";
        let hits = findings("crates/physio-sim/src/record.rs", src);
        assert_eq!(
            hits,
            vec!["det-no-hash-collections", "det-no-wall-clock", "det-no-thread-api"]
        );
        assert!(findings("crates/bench/src/lib.rs", src).is_empty());
    }

    #[test]
    fn slab_may_thread_but_not_hash() {
        let src = "fn f() { std::thread::scope(|_| {}); let m: HashMap<u8, u8> = HashMap::new(); }\n";
        let hits = findings("crates/wiot/src/slab.rs", src);
        assert!(!hits.contains(&"det-no-thread-api"));
        assert!(hits.contains(&"det-no-hash-collections"));
    }

    #[test]
    fn lib_no_panic_is_warn_scope() {
        let src = "fn f() { x.unwrap(); y.expect(\"m\"); panic!(\"no\"); }\n";
        let hits = findings("crates/sift/src/trainer.rs", src);
        assert_eq!(hits, vec!["lib-no-panic", "lib-no-panic", "lib-no-panic"]);
        // Not enforced outside wiot/sift/analyzer:
        assert!(findings("crates/physio-sim/src/record.rs", src).is_empty());
    }

    #[test]
    fn checkpoint_modules_get_the_dedicated_rule() {
        // One violation of each kind the embedded profile covers: heap
        // alloc, panic, bracket index, f64, and a plain float literal.
        let src = "fn f(d: f64) { let v = q.to_vec(); v.unwrap(); r[0]; let x = 2.5; }\n";
        for rel in ["crates/amulet-sim/src/nvram.rs", "crates/sift/src/checkpoint.rs"] {
            let hits = findings(rel, src);
            assert!(!hits.is_empty(), "{rel}: fixture should trip the profile");
            assert!(
                hits.iter().all(|&r| r == "ckpt-embedded-profile"),
                "{rel}: every finding routes to the dedicated rule, got {hits:?}"
            );
        }
        // The same source in an ordinary embedded module keeps the
        // per-rule ids (and no float rules outside float-strict files).
        let app = findings("crates/amulet-sim/src/apps/demo.rs", src);
        assert!(!app.contains(&"ckpt-embedded-profile"));
        assert!(app.contains(&"embedded-no-heap-alloc"));
    }

    #[test]
    fn telemetry_hot_path_gets_the_dedicated_rule() {
        let src = "fn f(d: f64) { let v = q.to_vec(); v.unwrap(); r[0]; let x = 2.5; }\n";
        let hits = findings("crates/telemetry/src/record.rs", src);
        assert!(!hits.is_empty(), "fixture should trip the profile");
        assert!(
            hits.iter().all(|&r| r == "tele-embedded-profile"),
            "every finding routes to the dedicated rule, got {hits:?}"
        );
        // The rest of the telemetry crate is ordinary library code:
        // warn-level panic hygiene, no float/heap/index rules.
        let lib = findings("crates/telemetry/src/lib.rs", src);
        assert_eq!(lib, vec!["lib-no-panic"]);
    }

    #[test]
    fn survival_policy_gets_the_dedicated_rule() {
        let src = "fn f(d: f64) { let v = q.to_vec(); v.unwrap(); r[0]; let x = 2.5; }\n";
        let hits = findings("crates/wiot/src/survival.rs", src);
        assert!(!hits.is_empty(), "fixture should trip the profile");
        assert!(
            hits.iter().all(|&r| r == "survival-embedded-profile"),
            "every finding routes to the dedicated rule, got {hits:?}"
        );
        // Neighboring wiot modules stay ordinary library code.
        let lib = findings("crates/wiot/src/adaptive.rs", src);
        assert!(!lib.contains(&"survival-embedded-profile"));
    }

    #[test]
    fn detector_backend_module_gets_the_dedicated_rule() {
        let src = "fn f(d: f64) { let v = q.to_vec(); v.unwrap(); r[0]; let x = 2.5; }\n";
        let hits = findings("crates/ml/src/tsetlin.rs", src);
        assert!(!hits.is_empty(), "fixture should trip the profile");
        assert!(
            hits.iter().all(|&r| r == "detector-embedded-profile"),
            "every finding routes to the dedicated rule, got {hits:?}"
        );
        // The SVM translation next door keeps its original rule ids.
        let svm = findings("crates/ml/src/embedded.rs", src);
        assert!(!svm.is_empty());
        assert!(!svm.contains(&"detector-embedded-profile"));
    }

    #[test]
    fn test_regions_are_exempt() {
        let src = "fn ok() {}\n#[cfg(test)]\nmod tests {\n  fn t() { x.unwrap(); let m: HashMap<u8,u8>; }\n}\n";
        assert!(findings("crates/sift/src/trainer.rs", src).is_empty());
    }
}
