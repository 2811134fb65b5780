//! The rule registry: every lint the analyzer can emit, with its
//! severity and the pass it belongs to, plus the `Finding` type shared
//! by all passes.

use std::fmt;

/// Finding severity. `--deny warnings` promotes `Warn` to a failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Reported, but exits 0 unless warnings are denied.
    Warn,
    /// Always a failure.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warn => "warn",
            Severity::Error => "error",
        })
    }
}

/// Which analysis pass owns a rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// MSP430 deployment profile of the designated embedded modules.
    Embedded,
    /// Workspace-wide `FleetReport`-digest determinism protection.
    Determinism,
    /// Semantic RAM/ROM footprint check against the paper's memory map.
    Budget,
    /// Interprocedural call-graph analyses (recursion, dynamic
    /// dispatch, transitive panic reach, worst-case stack, unreached
    /// public API).
    CallGraph,
    /// Hygiene of the suppression grammar itself.
    Meta,
}

impl fmt::Display for Pass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Pass::Embedded => "embedded",
            Pass::Determinism => "determinism",
            Pass::Budget => "budget",
            Pass::CallGraph => "callgraph",
            Pass::Meta => "meta",
        })
    }
}

/// One pinned-module profile: a set of workspace-relative module paths
/// held to the full embedded profile (no heap, no panic, no float, no
/// bracket indexing), with every violation routed to one dedicated
/// error-severity rule. Adding the next detector backend (or any other
/// device-resident module) is one table row here, not a new rule
/// implementation plus fixtures.
#[derive(Debug)]
pub struct PinnedProfile {
    /// The dedicated rule id violations report under (must be
    /// registered in [`RULES`] at error severity).
    pub rule: &'static str,
    /// Workspace-relative module paths the profile covers.
    pub modules: &'static [&'static str],
}

/// Every pinned-module profile, in registry order. `source::classify`
/// routes a file through the *first* row that lists it.
pub const PINNED_PROFILES: &[PinnedProfile] = &[
    PinnedProfile {
        rule: "ckpt-embedded-profile",
        modules: &[
            "crates/amulet-sim/src/nvram.rs",
            "crates/sift/src/checkpoint.rs",
        ],
    },
    PinnedProfile {
        rule: "tele-embedded-profile",
        modules: &["crates/telemetry/src/record.rs"],
    },
    PinnedProfile {
        rule: "survival-embedded-profile",
        modules: &["crates/wiot/src/survival.rs"],
    },
    PinnedProfile {
        rule: "detector-embedded-profile",
        modules: &["crates/ml/src/tsetlin.rs"],
    },
];

/// Rules whose suppression certifies a panic site as unreachable or
/// acceptable. The interprocedural panic-reachability walk trusts an
/// honored `lint:allow` of one of these: the written reason is the
/// soundness argument, so the site is not re-flagged at every embedded
/// entry point that can reach it.
pub fn certifies_panic_site(rule: &str) -> bool {
    rule == "embedded-no-panic"
        || rule == "lib-no-panic"
        || PINNED_PROFILES.iter().any(|p| p.rule == rule)
}

/// Static definition of one rule.
#[derive(Debug)]
pub struct RuleDef {
    /// Stable kebab-case id, used in reports and `lint:allow(...)`.
    pub id: &'static str,
    /// Default severity.
    pub severity: Severity,
    /// Owning pass.
    pub pass: Pass,
    /// One-line description for `--rules` output and the docs.
    pub summary: &'static str,
}

/// Every rule the analyzer knows, in report order.
pub const RULES: &[RuleDef] = &[
    RuleDef {
        id: "embedded-no-f64",
        severity: Severity::Error,
        pass: Pass::Embedded,
        summary: "no f64 type or f64-suffixed literal in float-strict embedded modules \
                  (the MSP430 target has no FPU; doubles are software-emulated)",
    },
    RuleDef {
        id: "embedded-no-float-literal",
        severity: Severity::Warn,
        pass: Pass::Embedded,
        summary: "no float literal in float-strict embedded modules \
                  (the reduced detector is Q16.16 fixed-point end to end)",
    },
    RuleDef {
        id: "embedded-no-heap-alloc",
        severity: Severity::Error,
        pass: Pass::Embedded,
        summary: "no heap allocation (Vec::/Box::/String::/vec!/format!/.to_vec/.to_string/\
                  .to_owned/.collect) in embedded modules (AmuletOS apps get static buffers \
                  only)",
    },
    RuleDef {
        id: "embedded-no-panic",
        severity: Severity::Error,
        pass: Pass::Embedded,
        summary: "no panicking operation (unwrap/expect/panic!/assert!/unreachable!/todo!) \
                  in embedded modules (a panic is a watchdog reset on the device)",
    },
    RuleDef {
        id: "embedded-no-slice-index",
        severity: Severity::Warn,
        pass: Pass::Embedded,
        summary: "no bracket indexing in embedded modules; prefer get()/chunks so bounds \
                  failures are recoverable",
    },
    RuleDef {
        id: "ckpt-embedded-profile",
        severity: Severity::Error,
        pass: Pass::Embedded,
        summary: "checkpoint serialization/recovery modules must stay in the embedded \
                  profile: no heap, no panic, no float, no bracket indexing (they run \
                  inside the power-fail window)",
    },
    RuleDef {
        id: "tele-embedded-profile",
        severity: Severity::Error,
        pass: Pass::Embedded,
        summary: "the telemetry record hot path must stay in the embedded profile: no \
                  heap, no panic, no float, no bracket indexing (it sits inside every \
                  instrumented hot loop, whether the sink is enabled or not)",
    },
    RuleDef {
        id: "survival-embedded-profile",
        severity: Severity::Error,
        pass: Pass::Embedded,
        summary: "the survival policy decision procedure must stay in the embedded \
                  profile: no heap, no panic, no float, no bracket indexing (it runs \
                  every device tick, down to the last permille of battery)",
    },
    RuleDef {
        id: "detector-embedded-profile",
        severity: Severity::Error,
        pass: Pass::Embedded,
        summary: "alternate detector backends deploy to the device like the SVM does, so \
                  their scoring and codec paths must stay in the embedded profile: no \
                  heap, no panic, no float arithmetic, no bracket indexing",
    },
    RuleDef {
        id: "lib-no-panic",
        severity: Severity::Warn,
        pass: Pass::Embedded,
        summary: "library hygiene for wiot/sift/analyzer: unwrap/expect/panic! on runtime \
                  paths should be Result propagation",
    },
    RuleDef {
        id: "det-no-hash-collections",
        severity: Severity::Error,
        pass: Pass::Determinism,
        summary: "no HashMap/HashSet outside bench and vendored harness crates: iteration \
                  order would leak into digests and reports",
    },
    RuleDef {
        id: "det-no-wall-clock",
        severity: Severity::Error,
        pass: Pass::Determinism,
        summary: "no Instant/SystemTime outside bench: simulated time only, so reruns are \
                  byte-identical",
    },
    RuleDef {
        id: "det-no-thread-api",
        severity: Severity::Error,
        pass: Pass::Determinism,
        summary: "no thread APIs outside wiot::slab, whose bounded reorder window is the one \
                  audited parallel boundary",
    },
    RuleDef {
        id: "budget-fram-exceeded",
        severity: Severity::Error,
        pass: Pass::Budget,
        summary: "a detector flavor's static FRAM footprint (system + app) exceeds the \
                  Amulet's 128 KB",
    },
    RuleDef {
        id: "budget-sram-exceeded",
        severity: Severity::Error,
        pass: Pass::Budget,
        summary: "a detector flavor's peak SRAM (system + app) exceeds the Amulet's 2 KB",
    },
    RuleDef {
        id: "budget-array-limit",
        severity: Severity::Error,
        pass: Pass::Budget,
        summary: "a window buffer exceeds the AmuletOS per-array cap (MAX_ARRAY_ELEMS)",
    },
    RuleDef {
        id: "budget-paper-drift",
        severity: Severity::Warn,
        pass: Pass::Budget,
        summary: "a computed footprint drifted from the paper's Table III row beyond \
                  tolerance (2% FRAM, exact SRAM)",
    },
    RuleDef {
        id: "budget-stack-exceeded",
        severity: Severity::Error,
        pass: Pass::Budget,
        summary: "a certified worst-case call chain from an embedded entry point pushes \
                  statics + stack past the Amulet's 2 KB SRAM",
    },
    RuleDef {
        id: "budget-entry-unresolved",
        severity: Severity::Error,
        pass: Pass::Budget,
        summary: "a row of the certified entry-point table matches no function or several, \
                  so its worst-case stack would drop out of the certificate",
    },
    RuleDef {
        id: "cg-recursion",
        severity: Severity::Error,
        pass: Pass::CallGraph,
        summary: "a call-graph cycle reaches a function defined in an embedded-profile \
                  module; recursion makes the worst-case stack bound unsound",
    },
    RuleDef {
        id: "cg-dynamic-dispatch",
        severity: Severity::Error,
        pass: Pass::CallGraph,
        summary: "a trait-object (dyn) or fn-pointer type in an embedded-profile module; \
                  indirect calls cannot be resolved by the call-graph pass, so the stack \
                  certificate would silently exclude them",
    },
    RuleDef {
        id: "cg-panic-reachable",
        severity: Severity::Error,
        pass: Pass::CallGraph,
        summary: "an embedded entry point transitively reaches an unjustified panic site \
                  in host-side code; the finding carries the full call chain",
    },
    RuleDef {
        id: "cg-unreached",
        severity: Severity::Error,
        pass: Pass::CallGraph,
        summary: "a library pub fn that no binary, example, root integration test or \
                  embedded entry point reaches (over-approximated by name); a module none \
                  of whose fns is reached is reported once, as the module; a library pub \
                  struct or enum that no reached code names outside its own impls",
    },
    RuleDef {
        id: "suppress-missing-reason",
        severity: Severity::Error,
        pass: Pass::Meta,
        summary: "lint:allow without a reason; the grammar is \
                  lint:allow(rule-name, reason) and the reason is mandatory",
    },
    RuleDef {
        id: "suppress-unknown-rule",
        severity: Severity::Error,
        pass: Pass::Meta,
        summary: "lint:allow names a rule the analyzer does not define",
    },
    RuleDef {
        id: "suppress-unused",
        severity: Severity::Warn,
        pass: Pass::Meta,
        summary: "lint:allow whose scope contains no finding of the named rule; remove it",
    },
];

/// Look up a rule by id.
pub fn lookup(id: &str) -> Option<&'static RuleDef> {
    RULES.iter().find(|r| r.id == id)
}

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (always one of [`RULES`]).
    pub rule: &'static str,
    /// Severity at report time.
    pub severity: Severity,
    /// Workspace-relative file, or `<budget>` for semantic findings.
    pub file: String,
    /// 1-based line; 0 for file-less findings.
    pub line: u32,
    /// Human-readable detail.
    pub message: String,
}

impl Finding {
    /// Construct a finding for `rule_id`, which must be registered.
    pub fn new(rule_id: &'static str, file: &str, line: u32, message: String) -> Finding {
        let severity = lookup(rule_id).map_or(Severity::Error, |r| r.severity);
        Finding {
            rule: rule_id,
            severity,
            file: file.to_string(),
            line,
            message,
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: {}:{}: {}",
            self.severity, self.rule, self.file, self.line, self.message
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_are_unique_and_resolvable() {
        for (i, r) in RULES.iter().enumerate() {
            assert!(lookup(r.id).is_some());
            assert!(
                RULES.iter().skip(i + 1).all(|o| o.id != r.id),
                "duplicate rule id {}",
                r.id
            );
        }
        assert!(lookup("no-such-rule").is_none());
    }
}
