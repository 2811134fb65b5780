//! The interprocedural pass: extract function definitions and call
//! sites from the token streams, resolve them into a workspace call
//! graph, and run three whole-program analyses over it:
//!
//! 1. **worst-case stack depth** — a per-function frame estimate from
//!    the MSP430 calling convention (see `frame_bytes`), propagated
//!    along the longest call chain from each embedded entry point in
//!    [`ENTRY_POINTS`]; the budget pass gates `statics + max stack`
//!    against the 2 KB SRAM map;
//! 2. **recursion / dynamic dispatch** in embedded-profile modules —
//!    cycles make the stack bound unsound, and `dyn` / `fn`-pointer
//!    calls cannot be resolved by this pass at all, so both are
//!    error-severity rules (`cg-recursion`, `cg-dynamic-dispatch`);
//! 3. **panic reachability** — an embedded entry point transitively
//!    reaching an unjustified panic site in host-side code is flagged
//!    with the full call chain (`cg-panic-reachable`);
//! 4. **unreached public API** — a library `pub fn` that no root
//!    reaches is dead code (`cg-unreached`). The roots are every fn in
//!    a binary (`crates/*/src/bin/**`, `crates/*/src/main.rs`), in a
//!    root integration test or example (files read for their call
//!    sites only), and the [`ENTRY_POINTS`]. `#[cfg(test)]` code and
//!    `crates/*/tests/` are not callers. This reach over-approximates:
//!    method names fan out to every method of that name,
//!    `UBIQUITOUS_METHODS` included, and an unknown `Type::`
//!    qualifier to every trait method of that name; every identifier
//!    that is not called, a field after `.` aside, counts as naming the
//!    fns of that name as values (`.map(Record::synthesize)`, `[a, b]`,
//!    a `static` fn table); trait-impl methods are never reported,
//!    since `Display`, `Default` and operators call them implicitly.
//!    So the rule also judges types, which that fan-out can keep alive:
//!    a library plain-`pub` struct or enum is dead when only its own
//!    impls (derived `Default` included) name it, not a root, item-level
//!    code or any reached fn's signature or body.
//!
//! ## Soundness assumptions (documented, deliberate)
//!
//! Resolution is name-based over tokens, not type-based: a method call
//! through a receiver other than bare `self` resolves to *every* bodied
//! workspace method of that name (conservative for stack, excluding the
//! caller itself to avoid false self-loops), qualified `Type::method`
//! and `Trait::method` calls resolve through an (owner, name) index
//! with trait-impl fan-out, a free call to a name the caller binds (a
//! parameter, or a `let` from its `;` to its block's end) resolves to
//! nothing — it calls a closure, counted in the frame that defines it —
//! and calls the pass cannot resolve — std
//! methods, macros' interiors, names on the `UBIQUITOUS_METHODS`
//! list — contribute **zero** stack. That unsoundness is exactly why
//! recursion and dynamic dispatch are hard errors in embedded modules:
//! within the profile the remaining approximations are benign
//! (closures and iterator adapters stay in their enclosing frame).

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::TokenKind;
use crate::lexical::PANIC_MACROS;
use crate::rules::{certifies_panic_site, Finding};
use crate::ParsedFile;

/// MSP430 word size: 16-bit registers, 2-byte stack slots.
pub const WORD_BYTES: usize = 2;
/// Per-call overhead: 2-byte return address + 2-byte saved frame
/// pointer (msp430-gcc keeps R4 as FP in debug-faithful builds).
pub const FRAME_OVERHEAD_BYTES: usize = 4;
/// msp430-gcc passes the first four word-sized arguments in R12–R15;
/// only the remainder spill to the caller's frame.
pub const REGISTER_ARGS: usize = 4;

/// One certified embedded entry point: the function the device calls
/// into, identified by (file, impl owner, name).
#[derive(Debug, Clone, Copy)]
pub struct EntryPoint {
    /// Workspace-relative defining file.
    pub file: &'static str,
    /// Owning impl/trait type.
    pub owner: &'static str,
    /// Function name.
    pub name: &'static str,
    /// Human-readable label for reports.
    pub label: &'static str,
}

/// The file that holds [`ENTRY_POINTS`]: a file set that contains it is
/// the workspace, where every row must match exactly one definition.
const ENTRY_TABLE_FILE: &str = "crates/analyzer/src/callgraph.rs";

/// The embedded entry points whose worst-case stack the analyzer
/// certifies. Order is report order.
pub const ENTRY_POINTS: &[EntryPoint] = &[
    EntryPoint {
        file: "crates/amulet-sim/src/apps/sift_app.rs",
        owner: "SiftApp",
        name: "handle",
        label: "SiftApp::handle",
    },
    EntryPoint {
        file: "crates/ml/src/backend.rs",
        owner: "DetectorModel",
        name: "score_f32",
        label: "DetectorModel::score_f32",
    },
    EntryPoint {
        file: "crates/ml/src/tsetlin.rs",
        owner: "TsetlinModel",
        name: "score_f32",
        label: "TsetlinModel::score_f32",
    },
    EntryPoint {
        file: "crates/sift/src/checkpoint.rs",
        owner: "DetectorCheckpoint",
        name: "encode_into",
        label: "DetectorCheckpoint::encode_into",
    },
    EntryPoint {
        file: "crates/sift/src/checkpoint.rs",
        owner: "DetectorCheckpoint",
        name: "decode",
        label: "DetectorCheckpoint::decode",
    },
    EntryPoint {
        file: "crates/wiot/src/survival.rs",
        owner: "SurvivalPolicy",
        name: "step",
        label: "SurvivalPolicy::step",
    },
];

/// Method names so common across std and the workspace that by-name
/// resolution of a non-`self` receiver would be meaningless fan-out
/// (and a false-cycle machine). Calls to them resolve to nothing and
/// contribute zero stack — a documented soundness assumption. The
/// reach pass alone fans them out, so it never under-approximates.
const UBIQUITOUS_METHODS: &[&str] = &[
    "as_mut", "as_ref", "clone", "cmp", "default", "drop", "eq", "fmt", "from", "get", "hash",
    "index", "insert", "into", "is_empty", "iter", "len", "ne", "next", "partial_cmp", "push",
    "read", "to_string", "write",
];

/// Keywords (and universal constructors) that can precede `(` without
/// being a workspace call.
const NOT_A_CALL: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "break", "continue", "as", "in", "move",
    "ref", "mut", "let", "else", "unsafe", "dyn", "impl", "where", "use", "pub", "struct",
    "enum", "trait", "type", "const", "static", "crate", "super", "fn", "Some", "Ok", "Err",
    "None", "self", "Self",
];

/// Vendored stand-ins for external crates: their public API mirrors
/// the real crates', so `cg-unreached` does not judge it.
const UNREACHED_EXEMPT_CRATES: &[&str] = &["rand", "proptest"];

/// One extracted function definition.
#[derive(Debug)]
struct FnDef {
    name: String,
    /// Impl/trait block owner (`None` for free functions).
    owner: Option<String>,
    /// For `impl Trait for Type` members: the trait's name.
    trait_impl: Option<String>,
    file: usize,
    line: u32,
    /// Parameter count, `self` included.
    params: usize,
    /// `let` bindings in the body (closures included: they share the
    /// enclosing frame on this target).
    lets: usize,
    has_body: bool,
    in_test: bool,
    /// Declared plain `pub` (not `pub(crate)` and friends).
    public: bool,
}

impl FnDef {
    fn display(&self) -> String {
        match (&self.owner, &self.trait_impl) {
            (Some(o), Some(t)) => format!("<{o} as {t}>::{}", self.name),
            (Some(o), None) => format!("{o}::{}", self.name),
            (None, _) => self.name.clone(),
        }
    }
}

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
enum CallKind {
    /// `name(...)` with no receiver or path.
    Free,
    /// `self.name(...)` on the bare receiver.
    SelfMethod,
    /// `expr.name(...)` on any other receiver.
    Method,
    /// `Qualifier::name(...)`.
    Qualified(String),
    /// A path whose qualifier is no identifier (`<T as Trait>::name`).
    Opaque,
}

#[derive(Debug)]
struct CallSite {
    name: String,
    kind: CallKind,
    /// False when the fn is only named (as a value, through a turbofish,
    /// or through a `use … as` rename): the reach pass follows such
    /// sites, the stack pass does not.
    called: bool,
}

/// A potentially-panicking expression (`.unwrap()`, `panic!`, …).
#[derive(Debug)]
struct PanicSite {
    file: usize,
    line: u32,
    what: String,
    in_fn: usize,
}

/// A `dyn` trait object or `fn`-pointer type in an embedded module.
#[derive(Debug)]
struct DynSite {
    file: usize,
    line: u32,
    what: &'static str,
}

/// Worst-case stack certificate for one entry point.
#[derive(Debug, Clone)]
pub struct EntryStack {
    /// Entry label from [`ENTRY_POINTS`].
    pub label: String,
    /// Defining file of the entry function.
    pub file: String,
    /// Definition line.
    pub line: u32,
    /// Bytes of stack consumed along the worst call chain, entry frame
    /// included.
    pub stack_bytes: usize,
    /// Frames on that chain.
    pub frames: usize,
    /// The chain itself, caller first.
    pub chain: Vec<String>,
}

/// The `stack` section of the analyzer's footprint document.
#[derive(Debug, Clone, Default)]
pub struct StackReport {
    /// One certificate per resolved entry point, in table order.
    pub entries: Vec<EntryStack>,
    /// The [`ENTRY_POINTS`] rows that match no definition or several,
    /// with their match counts, when the file set holds the table. The
    /// budget pass fails the run on each.
    pub(crate) unresolved: Vec<(EntryPoint, usize)>,
}

/// Everything the interprocedural pass produces.
#[derive(Debug)]
pub struct CallGraphResult {
    /// `cg-*` findings, before suppression.
    pub findings: Vec<Finding>,
    /// Worst-case stack certificates.
    pub stack: StackReport,
}

/// Extracted view of the whole workspace.
struct Graph {
    /// Workspace-relative path of each file index.
    paths: Vec<String>,
    /// Per file index: read for its call sites only (no defs resolve
    /// into it, and the stack pass ignores it).
    sites_only: Vec<bool>,
    fns: Vec<FnDef>,
    calls: Vec<Vec<CallSite>>,
    panics: Vec<PanicSite>,
    dyns: Vec<DynSite>,
    /// Plain-`pub` item-level structs and enums: (file, line, name).
    types: Vec<(usize, u32, String)>,
}

/// Run the interprocedural pass over the parsed workspace.
pub fn analyze(files: &[ParsedFile]) -> CallGraphResult {
    let graph = extract(files);
    let edges = resolve_edges(&graph, false);
    let sccs = tarjan(graph.fns.len(), &edges);
    let mut findings = Vec::new();
    findings.extend(dynamic_dispatch_findings(files, &graph));
    findings.extend(recursion_findings(files, &graph, &edges, &sccs));
    let (stack, entry_of) = stack_report(files, &graph, &edges, &sccs);
    findings.extend(panic_findings(files, &graph, &edges, &entry_of));
    findings.extend(unreached_findings(&graph));
    CallGraphResult { findings, stack }
}

/// Frame size estimate for one function under the msp430-gcc calling
/// convention: call overhead, spilled arguments past the four register
/// args, and one word per `let` binding.
fn frame_bytes(def: &FnDef) -> usize {
    FRAME_OVERHEAD_BYTES
        + WORD_BYTES * def.params.saturating_sub(REGISTER_ARGS)
        + WORD_BYTES * def.lets
}

// ---------------------------------------------------------------------
// Extraction: token stream -> defs, call sites, panic sites, dyn sites.
// ---------------------------------------------------------------------

struct OwnerCtx {
    name: String,
    trait_impl: Option<String>,
    open_depth: i32,
}

fn ident_of(kind: &TokenKind) -> Option<&str> {
    match kind {
        TokenKind::Ident(s) => Some(s.as_str()),
        _ => None,
    }
}

fn extract(files: &[ParsedFile]) -> Graph {
    let mut graph = Graph {
        paths: files.iter().map(|pf| pf.file.rel_path.clone()).collect(),
        sites_only: files.iter().map(|pf| pf.class.call_sites_only).collect(),
        fns: Vec::new(),
        calls: Vec::new(),
        panics: Vec::new(),
        dyns: Vec::new(),
        types: Vec::new(),
    };
    for (file_idx, pf) in files.iter().enumerate() {
        extract_file(file_idx, pf, &mut graph);
    }
    graph
}

#[allow(clippy::too_many_lines)]
fn extract_file(file_idx: usize, pf: &ParsedFile, graph: &mut Graph) {
    let sig: Vec<&crate::lexer::Token> =
        pf.file.tokens.iter().filter(|t| !t.is_trivia()).collect();
    let kind = |k: usize| sig.get(k).map(|t| &t.kind);
    let is_punct = |k: usize, c: char| matches!(kind(k), Some(TokenKind::Punct(p)) if *p == c);
    let embedded = pf.class.embedded;
    // In a root file every fn is a caller, `#[test]` fns included.
    let in_test = |line: u32| !pf.class.call_sites_only && pf.file.in_test(line);
    let renames = use_renames(&sig);
    // Call sites of item-level code (const and static initializers).
    let mut item_sites: Vec<CallSite> = Vec::new();

    let mut depth: i32 = 0;
    let mut owners: Vec<OwnerCtx> = Vec::new();
    // (fn index, depth of its body's opening brace)
    let mut open_fns: Vec<(usize, i32)> = Vec::new();
    // Local bindings, parameters and `let` patterns: (fn index, depth of
    // the block that scopes them, first token they shadow from, name).
    // A free call to a bound name calls the binding (a closure or fn
    // value), never a workspace fn of that name.
    let mut locals: Vec<(usize, i32, usize, String)> = Vec::new();
    // One past the last token of the current `let` pattern.
    let mut pattern_end = 0usize;
    let mut p = 0usize;
    while p < sig.len() {
        let line = sig[p].line;
        match &sig[p].kind {
            TokenKind::Punct('{') => {
                depth += 1;
                p += 1;
            }
            TokenKind::Punct('}') => {
                depth -= 1;
                owners.retain(|o| o.open_depth <= depth);
                open_fns.retain(|&(_, d)| d <= depth);
                locals.retain(|l| l.1 <= depth);
                p += 1;
            }
            TokenKind::Ident(w) if w == "impl" && item_position(&sig, p) => {
                if let Some((owner, trait_impl, brace)) = parse_impl_header(&sig, p) {
                    depth += 1;
                    owners.push(OwnerCtx {
                        name: owner,
                        trait_impl,
                        open_depth: depth,
                    });
                    p = brace + 1;
                } else {
                    p += 1;
                }
            }
            TokenKind::Ident(w) if w == "trait" => {
                // `trait Name … {` — supertrait bounds carry no braces.
                let name = kind(p + 1).and_then(ident_of).map(str::to_string);
                let mut q = p + 2;
                while q < sig.len() && !is_punct(q, '{') && !is_punct(q, ';') {
                    q += 1;
                }
                if let (Some(name), true) = (name, is_punct(q, '{')) {
                    depth += 1;
                    owners.push(OwnerCtx {
                        name,
                        trait_impl: None,
                        open_depth: depth,
                    });
                    p = q + 1;
                } else {
                    p = q;
                }
            }
            TokenKind::Ident(w) if w == "fn" => {
                if is_punct(p + 1, '(') {
                    // Bare `fn(…)` is a function-pointer *type*.
                    if embedded && !in_test(line) {
                        graph.dyns.push(DynSite {
                            file: file_idx,
                            line,
                            what: "fn-pointer type",
                        });
                    }
                    p += 1;
                    continue;
                }
                let Some(header) = parse_fn_header(&sig, p) else {
                    p += 1;
                    continue;
                };
                // The walk jumps over the header, so scan it here for
                // `dyn` trait objects and `fn`-pointer types in the
                // parameter list or return type.
                if embedded {
                    let hdr_end = header.body_open.unwrap_or(header.end);
                    for (k, tok) in sig.iter().enumerate().take(hdr_end.min(sig.len())).skip(p + 1) {
                        let TokenKind::Ident(w) = &tok.kind else {
                            continue;
                        };
                        if in_test(tok.line) {
                            continue;
                        }
                        if w == "dyn" {
                            graph.dyns.push(DynSite {
                                file: file_idx,
                                line: tok.line,
                                what: "dyn trait object",
                            });
                        } else if w == "fn" && is_punct(k + 1, '(') {
                            graph.dyns.push(DynSite {
                                file: file_idx,
                                line: tok.line,
                                what: "fn-pointer type",
                            });
                        }
                    }
                }
                let owner = owners.last();
                graph.fns.push(FnDef {
                    name: header.name,
                    owner: owner.map(|o| o.name.clone()),
                    trait_impl: owner.and_then(|o| o.trait_impl.clone()),
                    file: file_idx,
                    line,
                    params: header.params,
                    lets: 0,
                    has_body: header.body_open.is_some(),
                    in_test: in_test(line),
                    public: declared_pub(&sig, p),
                });
                // Types in the signature: named, for the reach pass only.
                let hdr_end = header.body_open.unwrap_or(header.end);
                let sig_types = sig.get(p + 2..hdr_end).unwrap_or(&[]).iter();
                graph.calls.push(
                    sig_types
                        .filter_map(|t| ident_of(&t.kind))
                        .filter(|w| w.starts_with(char::is_uppercase))
                        .map(|w| CallSite {
                            name: w.to_string(),
                            kind: CallKind::Free,
                            called: false,
                        })
                        .collect(),
                );
                if let Some(open) = header.body_open {
                    depth += 1;
                    let f = graph.fns.len() - 1;
                    open_fns.push((f, depth));
                    locals.extend(header.bindings.into_iter().map(|b| (f, depth, open, b)));
                    p = open + 1;
                } else {
                    p = header.end + 1;
                }
            }
            TokenKind::Ident(w) if w == "dyn" => {
                if embedded && !in_test(line) {
                    graph.dyns.push(DynSite {
                        file: file_idx,
                        line,
                        what: "dyn trait object",
                    });
                }
                p += 1;
            }
            TokenKind::Ident(w) if w == "let" => {
                if let Some(&(f, _)) = open_fns.last() {
                    if let Some(def) = graph.fns.get_mut(f) {
                        def.lets += 1;
                    }
                    // An `if let`/`while let` (or let-chain) binding
                    // scopes only its block: it shadows nothing here.
                    let scoped = matches!(
                        kind(p.wrapping_sub(1)).and_then(ident_of),
                        Some("if" | "while")
                    ) || is_punct(p.wrapping_sub(1), '&');
                    if let (false, Some((names, end, stmt_end))) = (scoped, let_bindings(&sig, p)) {
                        pattern_end = end;
                        locals.extend(names.into_iter().map(|n| (f, depth, stmt_end, n)));
                    }
                }
                p += 1;
            }
            TokenKind::Ident(w) if matches!(w.as_str(), "struct" | "enum") => {
                // A definition, not a use: the name is no call site.
                if let Some(name) = kind(p + 1).and_then(ident_of) {
                    let public = matches!(kind(p.wrapping_sub(1)).and_then(ident_of), Some("pub"));
                    if public && open_fns.is_empty() && !in_test(line) {
                        graph.types.push((file_idx, line, name.to_string()));
                    }
                    p += 1;
                }
                p += 1;
            }
            TokenKind::Ident(w) if w == "use" => {
                // An import names without reaching (renames are resolved
                // by `use_renames`).
                while p < sig.len() && !is_punct(p, ';') {
                    p += 1;
                }
            }
            TokenKind::Ident(name) => {
                let cur_fn = open_fns.last().map(|&(f, _)| f);
                let in_test = in_test(line);
                let prev_dot = p > 0 && is_punct(p - 1, '.');
                if let (Some(f), false) = (cur_fn, in_test) {
                    if matches!(name.as_str(), "unwrap" | "expect")
                        && prev_dot
                        && is_punct(p + 1, '(')
                    {
                        graph.panics.push(PanicSite {
                            file: file_idx,
                            line,
                            what: format!(".{name}()"),
                            in_fn: f,
                        });
                    }
                    if PANIC_MACROS.contains(&name.as_str()) && is_punct(p + 1, '!') {
                        graph.panics.push(PanicSite {
                            file: file_idx,
                            line,
                            what: format!("{name}!"),
                            in_fn: f,
                        });
                    }
                }
                // A `let` pattern's own names bind; they name nothing.
                let binding = p < pattern_end && is_binding_name(name);
                if !in_test && !binding && !NOT_A_CALL.contains(&name.as_str()) {
                    let qualified = p >= 2 && is_punct(p - 1, ':') && is_punct(p - 2, ':');
                    let call_kind = if qualified {
                        // `<T as Trait>::m(…)` and friends have no
                        // identifier qualifier.
                        kind(p.wrapping_sub(3))
                            .and_then(ident_of)
                            .map_or(CallKind::Opaque, |q| CallKind::Qualified(q.to_string()))
                    } else if prev_dot {
                        let bare_self = p >= 2
                            && matches!(kind(p - 2).and_then(ident_of), Some("self"))
                            && !(p >= 3 && is_punct(p - 3, '.'));
                        if bare_self {
                            CallKind::SelfMethod
                        } else {
                            CallKind::Method
                        }
                    } else {
                        CallKind::Free
                    };
                    let called = is_punct(p + 1, '(');
                    // Any identifier not called may name a fn as a value
                    // (`.map(slope_of)`, `helper::<T>`, `[a, b]`,
                    // `static F: fn() = helper;`, `Foo { f: helper }`).
                    // Only a field access after `.` cannot. Extra matches
                    // only err toward reached.
                    let named = !called && !prev_dot;
                    let shadowed = call_kind == CallKind::Free
                        && cur_fn.is_some_and(|f| {
                            locals.iter().any(|l| l.0 == f && l.2 < p && l.3 == *name)
                        });
                    let calls = match cur_fn {
                        Some(f) => graph.calls.get_mut(f),
                        None => Some(&mut item_sites),
                    };
                    if let (Some(calls), true) = (calls, (called || named) && !shadowed) {
                        if let Some(original) = renames.get(name.as_str()) {
                            calls.push(CallSite {
                                name: (*original).to_string(),
                                kind: call_kind.clone(),
                                called: false,
                            });
                        }
                        calls.push(CallSite {
                            name: name.clone(),
                            kind: call_kind,
                            called,
                        });
                    }
                }
                p += 1;
            }
            _ => p += 1,
        }
    }
    // Item-level sites belong to a body-less pseudo-fn, which the reach
    // pass treats as a root and the stack pass ignores.
    if !item_sites.is_empty() {
        graph.fns.push(FnDef {
            name: String::new(),
            owner: None,
            trait_impl: None,
            file: file_idx,
            line: 0,
            params: 0,
            lets: 0,
            has_body: false,
            in_test: false,
            public: false,
        });
        graph.calls.push(item_sites);
    }
}

/// Every `use … original as alias` rename in a file, by alias.
fn use_renames<'a>(sig: &[&'a crate::lexer::Token]) -> BTreeMap<&'a str, &'a str> {
    let mut renames = BTreeMap::new();
    let mut in_use = false;
    for (k, tok) in sig.iter().enumerate() {
        match &tok.kind {
            TokenKind::Ident(w) if w == "use" => in_use = true,
            TokenKind::Punct(';') => in_use = false,
            TokenKind::Ident(w) if in_use && w == "as" => {
                let original = k.checked_sub(1).and_then(|j| ident_of(&sig[j].kind));
                if let (Some(original), Some(alias)) =
                    (original, sig.get(k + 1).and_then(|t| ident_of(&t.kind)))
                {
                    renames.insert(alias, original);
                }
            }
            _ => {}
        }
    }
    renames
}

/// Whether the `fn` at `p` is declared plain `pub`, past any `const`,
/// `async`, `unsafe` or `extern "abi"` qualifiers. `pub(crate)` and
/// friends end in `)` and are not: rustc's `dead_code` covers them.
fn declared_pub(sig: &[&crate::lexer::Token], p: usize) -> bool {
    let mut k = p;
    while k > 0 {
        k -= 1;
        match &sig[k].kind {
            TokenKind::Ident(w) if w == "pub" => return true,
            TokenKind::Ident(w) if matches!(w.as_str(), "const" | "async" | "unsafe" | "extern") => {}
            TokenKind::Str => {}
            _ => return false,
        }
    }
    false
}

/// Is the `impl` at `p` an item (block) rather than an `impl Trait`
/// type position? Item `impl` follows a block/item boundary.
fn item_position(sig: &[&crate::lexer::Token], p: usize) -> bool {
    if p == 0 {
        return true;
    }
    match &sig[p - 1].kind {
        TokenKind::Punct('}' | ';' | '{' | ']') => true,
        TokenKind::Ident(w) => w == "unsafe",
        _ => false,
    }
}

/// Parse an item `impl` header from `p` (the `impl` token) to its body
/// brace: returns (owner type, implemented trait, index of `{`).
fn parse_impl_header(
    sig: &[&crate::lexer::Token],
    p: usize,
) -> Option<(String, Option<String>, usize)> {
    let mut q = p + 1;
    q = skip_generics(sig, q);
    // Collect the first path; if a `for` follows, that path was the
    // trait and the owner comes after.
    let first = path_tail_ident(sig, &mut q)?;
    let mut trait_impl = None;
    let mut owner = first;
    loop {
        match &sig.get(q)?.kind {
            TokenKind::Ident(w) if w == "for" => {
                q += 1;
                // Skip `&`, lifetimes, `mut` on the implementing type.
                while matches!(
                    sig.get(q)?.kind,
                    TokenKind::Punct('&') | TokenKind::Lifetime
                ) || matches!(&sig.get(q)?.kind, TokenKind::Ident(w) if w == "mut")
                {
                    q += 1;
                }
                trait_impl = Some(owner);
                owner = path_tail_ident(sig, &mut q)?;
            }
            TokenKind::Punct('{') => return Some((owner, trait_impl, q)),
            TokenKind::Punct(';') => return None,
            _ => q += 1,
        }
    }
}

/// Read a (possibly `::`-separated, possibly generic) type path at `q`,
/// returning its final segment identifier and leaving `q` after it.
fn path_tail_ident(sig: &[&crate::lexer::Token], q: &mut usize) -> Option<String> {
    let mut last = None;
    loop {
        match sig.get(*q).map(|t| &t.kind) {
            Some(TokenKind::Ident(w))
                if !matches!(w.as_str(), "for" | "where") =>
            {
                last = Some(w.clone());
                *q += 1;
                *q = skip_generics(sig, *q);
                // Continue through `::` path separators.
                if matches!(sig.get(*q).map(|t| &t.kind), Some(TokenKind::Punct(':')))
                    && matches!(sig.get(*q + 1).map(|t| &t.kind), Some(TokenKind::Punct(':')))
                {
                    *q += 2;
                    continue;
                }
                return last;
            }
            _ => return last,
        }
    }
}

/// If `q` sits on `<`, skip the matched angle-bracket group (arrow
/// `->` inside bounds is treated as one unit, not a closing angle).
fn skip_generics(sig: &[&crate::lexer::Token], q: usize) -> usize {
    if !matches!(sig.get(q).map(|t| &t.kind), Some(TokenKind::Punct('<'))) {
        return q;
    }
    let mut depth = 0i32;
    let mut m = q;
    while m < sig.len() {
        match &sig[m].kind {
            TokenKind::Punct('<') => depth += 1,
            TokenKind::Punct('-')
                if matches!(sig.get(m + 1).map(|t| &t.kind), Some(TokenKind::Punct('>'))) =>
            {
                m += 1; // skip the arrow's `>`
            }
            TokenKind::Punct('>') => {
                depth -= 1;
                if depth == 0 {
                    return m + 1;
                }
            }
            _ => {}
        }
        m += 1;
    }
    m
}

struct FnHeader {
    name: String,
    params: usize,
    /// Names the parameter patterns bind (`self` aside).
    bindings: Vec<String>,
    /// Index of the body's `{`, when the fn has one.
    body_open: Option<usize>,
    /// Index of the terminating token (`{` or `;`).
    end: usize,
}

/// Parse `fn name … ( params ) -> ret {` starting at the `fn` token.
fn parse_fn_header(sig: &[&crate::lexer::Token], p: usize) -> Option<FnHeader> {
    let name = ident_of(&sig.get(p + 1)?.kind)?.to_string();
    let mut q = skip_generics(sig, p + 2);
    if !matches!(sig.get(q).map(|t| &t.kind), Some(TokenKind::Punct('('))) {
        return None;
    }
    // Walk the parameter list, counting top-level commas.
    let mut paren = 0i32;
    let mut bracket = 0i32;
    let mut angle = 0i32;
    let mut commas = 0usize;
    let mut any_param = false;
    // Inside a parameter's type, after its top-level `:`.
    let mut in_type = false;
    let mut bindings = Vec::new();
    let start = q;
    while q < sig.len() {
        match &sig[q].kind {
            TokenKind::Ident(w) if paren >= 1 && !in_type => {
                any_param = true;
                if is_binding_name(w) {
                    bindings.push(w.clone());
                }
            }
            TokenKind::Punct(':') if paren == 1 && bracket == 0 && angle == 0 => {
                any_param = true;
                in_type = true;
            }
            TokenKind::Punct('(') => paren += 1,
            TokenKind::Punct(')') => {
                paren -= 1;
                if paren == 0 {
                    break;
                }
            }
            TokenKind::Punct('[' | '{') => bracket += 1,
            TokenKind::Punct(']' | '}') => bracket -= 1,
            TokenKind::Punct('<') => angle += 1,
            TokenKind::Punct('-')
                if matches!(sig.get(q + 1).map(|t| &t.kind), Some(TokenKind::Punct('>'))) =>
            {
                q += 1;
            }
            TokenKind::Punct('>') => angle = (angle - 1).max(0),
            TokenKind::Punct(',')
                if paren == 1 && bracket == 0 && angle == 0 =>
            {
                // A trailing comma right before `)` is not a parameter.
                if !matches!(sig.get(q + 1).map(|t| &t.kind), Some(TokenKind::Punct(')'))) {
                    commas += 1;
                }
                in_type = false;
            }
            _ => {
                if paren >= 1 && q > start {
                    any_param = true;
                }
            }
        }
        q += 1;
    }
    let params = if any_param { commas + 1 } else { 0 };
    // Scan past the return type / where clause to `{` or `;`.
    let mut paren = 0i32;
    let mut bracket = 0i32;
    q += 1;
    while q < sig.len() {
        match &sig[q].kind {
            TokenKind::Punct('(') => paren += 1,
            TokenKind::Punct(')') => paren -= 1,
            TokenKind::Punct('[') => bracket += 1,
            TokenKind::Punct(']') => bracket -= 1,
            TokenKind::Punct('{') if paren == 0 && bracket == 0 => {
                return Some(FnHeader {
                    name,
                    params,
                    bindings,
                    body_open: Some(q),
                    end: q,
                });
            }
            TokenKind::Punct(';') if paren == 0 && bracket == 0 => {
                return Some(FnHeader {
                    name,
                    params,
                    bindings,
                    body_open: None,
                    end: q,
                });
            }
            _ => {}
        }
        q += 1;
    }
    None
}

/// Whether identifier `w` in a pattern binds a local (`mut`, `ref` and
/// `self` do not; capitalized names are types and variants).
fn is_binding_name(w: &str) -> bool {
    w.starts_with(|c: char| c.is_lowercase() || c == '_')
        && !matches!(w, "mut" | "ref" | "self" | "_")
}

/// The names the `let` at `p` binds, one past its pattern, and its
/// terminating `;` (where the bindings take scope); `None` when no `;`
/// closes it at its own nesting level.
fn let_bindings(sig: &[&crate::lexer::Token], p: usize) -> Option<(Vec<String>, usize, usize)> {
    let colon = |k: usize| matches!(sig.get(k).map(|t| &t.kind), Some(TokenKind::Punct(':')));
    let mut names = Vec::new();
    let mut pattern_end = None;
    let mut nest = 0i32;
    for (q, tok) in sig.iter().enumerate().skip(p + 1) {
        match &tok.kind {
            TokenKind::Punct('(' | '[' | '{') => nest += 1,
            TokenKind::Punct(')' | ']' | '}') => {
                nest -= 1;
                if nest < 0 {
                    return None;
                }
            }
            TokenKind::Punct(';') if nest == 0 => {
                return Some((names, pattern_end.unwrap_or(q), q))
            }
            // The pattern ends at its `=` or its type's `:` (not `::`).
            TokenKind::Punct('=') if nest == 0 => pattern_end = pattern_end.or(Some(q)),
            TokenKind::Punct(':') if nest == 0 && !colon(q - 1) && !colon(q + 1) => {
                pattern_end = pattern_end.or(Some(q));
            }
            TokenKind::Ident(w) if pattern_end.is_none() && is_binding_name(w) => {
                names.push(w.clone())
            }
            _ => {}
        }
    }
    None
}

// ---------------------------------------------------------------------
// Resolution: call sites -> edges.
// ---------------------------------------------------------------------

/// Crate name of a `crates/<name>/…` workspace-relative path.
fn crate_of(path: &str) -> &str {
    path.strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or(path)
}

/// Whether `path` plausibly defines module `q`: the file stem matches
/// (`…/q.rs`), a directory on the path matches (`…/q/mod.rs`, or the
/// crate directory itself), or it is the lib root of crate `q`.
fn file_in_module(path: &str, q: &str) -> bool {
    let stem = path
        .rsplit('/')
        .next()
        .and_then(|f| f.strip_suffix(".rs"))
        .unwrap_or("");
    stem == q || path.contains(&format!("/{q}/")) || (crate_of(path) == q && path.ends_with("/lib.rs"))
}

/// Resolve call sites into edges. `reach` selects the `cg-unreached`
/// over-approximation (see the module docs); otherwise the edges are
/// the stack certificate's, over library and binary bodies only.
fn resolve_edges(graph: &Graph, reach: bool) -> Vec<Vec<usize>> {
    let n = graph.fns.len();
    // Indexes over *non-test* defs only: test fns are invisible, and
    // call-sites-only root files define nothing callable.
    let mut by_owner: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    let mut by_trait_impl: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut free_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut trait_names: BTreeSet<&str> = BTreeSet::new();
    for (i, def) in graph.fns.iter().enumerate() {
        if def.in_test || graph.sites_only[def.file] {
            continue;
        }
        by_name.entry(&def.name).or_default().push(i);
        match &def.owner {
            Some(o) => {
                by_owner.entry((o, &def.name)).or_default().push(i);
            }
            None => {
                if def.has_body {
                    free_by_name.entry(&def.name).or_default().push(i);
                }
            }
        }
        if let Some(t) = &def.trait_impl {
            trait_names.insert(t);
            if def.has_body {
                by_trait_impl.entry((t, &def.name)).or_default().push(i);
            }
        }
        // A body-less method can only be a trait signature, so its
        // owner is a trait.
        if !def.has_body && def.owner.is_some() {
            if let Some(o) = &def.owner {
                trait_names.insert(o);
            }
        }
    }

    let bodied = |ids: Option<&Vec<usize>>| -> Vec<usize> {
        ids.map(|v| {
            v.iter()
                .copied()
                .filter(|&i| graph.fns[i].has_body)
                .collect()
        })
        .unwrap_or_default()
    };
    // All bodied impls of trait `t` named `name`, plus the trait's own
    // default body — the full static-dispatch candidate set.
    let trait_dispatch = |t: &str, name: &str| -> Vec<usize> {
        let mut c = bodied(by_owner.get(&(t, name)));
        c.extend(bodied(by_trait_impl.get(&(t, name))));
        c
    };

    // Every bodied method of that name: a receiver's type is unknown.
    let methods_named = |name: &str, caller: usize| -> Vec<usize> {
        bodied(by_name.get(name))
            .into_iter()
            .filter(|&t| graph.fns[t].owner.is_some() && t != caller)
            .collect()
    };
    // Every bodied trait method of that name (impls and defaults): all a
    // foreign type or a generic parameter can dispatch to.
    let trait_methods_named = |name: &str| -> Vec<usize> {
        methods_named(name, usize::MAX)
            .into_iter()
            .filter(|&t| {
                let d = &graph.fns[t];
                d.trait_impl.is_some() || d.owner.as_deref().is_some_and(|o| trait_names.contains(o))
            })
            .collect()
    };

    let mut edges: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    for (caller, sites) in graph.calls.iter().enumerate() {
        let me = &graph.fns[caller];
        if me.in_test || (!reach && (graph.sites_only[me.file] || !me.has_body)) {
            continue;
        }
        for site in sites.iter().filter(|s| reach || s.called) {
            let name = site.name.as_str();
            let targets: Vec<usize> = match &site.kind {
                CallKind::Qualified(q) => {
                    let q = if q == "Self" {
                        match &me.owner {
                            Some(o) => o.as_str(),
                            None => continue,
                        }
                    } else {
                        q.as_str()
                    };
                    let direct = bodied(by_owner.get(&(q, name)));
                    if !direct.is_empty() {
                        direct
                    } else if trait_names.contains(q) {
                        // A trait-qualified call dispatches to any
                        // impl; the caller's own def is excluded to
                        // avoid false self-loops through the enum
                        // dispatcher pattern.
                        trait_dispatch(q, name)
                            .into_iter()
                            .filter(|&t| t != caller)
                            .collect()
                    } else if q.starts_with(char::is_lowercase) {
                        // `module::free_fn(…)` — prefer free fns whose
                        // defining file *is* that module; a same-name
                        // free fn elsewhere in the workspace is not a
                        // candidate (it would fabricate recursion, e.g.
                        // `checkpoint::encoded_len` calling
                        // `ml::embedded::encoded_len`).
                        let all = free_by_name.get(name).cloned().unwrap_or_default();
                        let modular: Vec<usize> = all
                            .iter()
                            .copied()
                            .filter(|&i| {
                                if matches!(q, "crate" | "super" | "self") {
                                    crate_of(&graph.paths[graph.fns[i].file])
                                        == crate_of(&graph.paths[me.file])
                                } else {
                                    file_in_module(&graph.paths[graph.fns[i].file], q)
                                }
                            })
                            .collect();
                        if modular.is_empty() {
                            all
                        } else {
                            modular
                        }
                    } else if reach {
                        // Unknown capitalized qualifier: a foreign type
                        // or a generic parameter.
                        trait_methods_named(name)
                    } else {
                        // A type defined outside the workspace walk (std,
                        // vendored): no stack.
                        Vec::new()
                    }
                }
                CallKind::Opaque if reach => trait_methods_named(name),
                CallKind::Opaque => Vec::new(),
                CallKind::SelfMethod => {
                    let Some(o) = &me.owner else { continue };
                    if trait_names.contains(o.as_str()) {
                        // Inside a trait default body: dispatch to any
                        // impl (or another default), not ourselves.
                        trait_dispatch(o, name)
                            .into_iter()
                            .filter(|&t| t != caller)
                            .collect()
                    } else {
                        let direct = bodied(by_owner.get(&(o.as_str(), name)));
                        if !direct.is_empty() {
                            direct
                        } else if let Some(t) = &me.trait_impl {
                            // Calling an inherited default method.
                            trait_dispatch(t, name)
                                .into_iter()
                                .filter(|&t| t != caller)
                                .collect()
                        } else {
                            Vec::new()
                        }
                    }
                }
                CallKind::Method => {
                    if UBIQUITOUS_METHODS.contains(&name) && !reach {
                        Vec::new()
                    } else {
                        methods_named(name, caller)
                    }
                }
                CallKind::Free => {
                    let same_file: Vec<usize> = free_by_name
                        .get(name)
                        .map(|v| {
                            v.iter()
                                .copied()
                                .filter(|&i| graph.fns[i].file == me.file)
                                .collect()
                        })
                        .unwrap_or_default();
                    if same_file.is_empty() {
                        free_by_name.get(name).cloned().unwrap_or_default()
                    } else {
                        same_file
                    }
                }
            };
            edges[caller].extend(targets);
        }
    }
    edges.into_iter().map(|s| s.into_iter().collect()).collect()
}

// ---------------------------------------------------------------------
// Tarjan SCC (iterative) and the analyses over the condensation.
// ---------------------------------------------------------------------

/// Strongly connected components in reverse topological order (every
/// component is emitted after all components it can reach).
fn tarjan(n: usize, edges: &[Vec<usize>]) -> Vec<Vec<usize>> {
    const UNSET: usize = usize::MAX;
    let mut index = vec![UNSET; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut comps: Vec<Vec<usize>> = Vec::new();
    let mut next = 0usize;
    // Explicit DFS: (node, edge cursor).
    let mut work: Vec<(usize, usize)> = Vec::new();
    for start in 0..n {
        if index[start] != UNSET {
            continue;
        }
        work.push((start, 0));
        index[start] = next;
        low[start] = next;
        next += 1;
        stack.push(start);
        on_stack[start] = true;
        while let Some(&mut (v, ref mut cursor)) = work.last_mut() {
            if let Some(&w) = edges[v].get(*cursor) {
                *cursor += 1;
                if index[w] == UNSET {
                    index[w] = next;
                    low[w] = next;
                    next += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    work.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                work.pop();
                if let Some(&(parent, _)) = work.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    comps.push(comp);
                }
            }
        }
    }
    comps
}

fn dynamic_dispatch_findings(files: &[ParsedFile], graph: &Graph) -> Vec<Finding> {
    graph
        .dyns
        .iter()
        .map(|d| {
            Finding::new(
                "cg-dynamic-dispatch",
                &files[d.file].file.rel_path,
                d.line,
                format!(
                    "{} in an embedded-profile module: indirect calls are invisible to \
                     the call-graph pass, so the stack certificate would be unsound",
                    d.what
                ),
            )
        })
        .collect()
}

fn recursion_findings(
    files: &[ParsedFile],
    graph: &Graph,
    edges: &[Vec<usize>],
    sccs: &[Vec<usize>],
) -> Vec<Finding> {
    let mut out = Vec::new();
    for comp in sccs {
        let cyclic = comp.len() > 1
            || comp
                .first()
                .is_some_and(|&v| edges[v].contains(&v));
        if !cyclic {
            continue;
        }
        let mut members: Vec<&usize> = comp.iter().collect();
        members.sort_by_key(|&&v| (graph.fns[v].file, graph.fns[v].line));
        let Some(&&anchor) = members
            .iter()
            .find(|&&&v| files[graph.fns[v].file].class.embedded)
        else {
            continue;
        };
        let chain: Vec<String> = members
            .iter()
            .map(|&&v| graph.fns[v].display())
            .collect();
        let def = &graph.fns[anchor];
        out.push(Finding::new(
            "cg-recursion",
            &files[def.file].file.rel_path,
            def.line,
            format!(
                "call-graph cycle through an embedded-profile function makes the \
                 worst-case stack bound unsound: {} \u{2192} {}",
                chain.join(" \u{2192} "),
                chain.first().map_or("?", |s| s.as_str()),
            ),
        ));
    }
    out
}

/// Every definition matching entry point `ep`: exactly one in a sound
/// workspace, none in a fixture file set that lacks the entry's file.
fn entry_defs(graph: &Graph, ep: &EntryPoint) -> Vec<usize> {
    (0..graph.fns.len())
        .filter(|&f| {
            let d = &graph.fns[f];
            !d.in_test
                && d.has_body
                && d.name == ep.name
                && d.owner.as_deref() == Some(ep.owner)
                && graph.paths[d.file] == ep.file
        })
        .collect()
}

/// Longest-path stack certificates over the SCC condensation, plus the
/// per-function entry ownership map used by the panic walk: for every
/// function reachable from an entry point, the index (into
/// [`ENTRY_POINTS`] order), BFS parent, and distance.
///
/// Equal-depth successors and an SCC's equal-frame members tie-break on
/// the first-defined fn by (path, line), never on Tarjan numbering:
/// that shifts whenever an unrelated file is added or deleted, and the
/// certified chain must not.
#[allow(clippy::type_complexity)]
fn stack_report(
    files: &[ParsedFile],
    graph: &Graph,
    edges: &[Vec<usize>],
    sccs: &[Vec<usize>],
) -> (StackReport, Vec<Option<(usize, Option<usize>)>>) {
    let n = graph.fns.len();
    let mut comp_of = vec![0usize; n];
    for (c, comp) in sccs.iter().enumerate() {
        for &v in comp {
            comp_of[v] = c;
        }
    }
    // Condensation successors; `sccs` is already reverse-topological,
    // so a single in-order sweep computes longest paths bottom-up.
    let mut succs: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); sccs.len()];
    for (v, outs) in edges.iter().enumerate() {
        for &w in outs {
            if comp_of[v] != comp_of[w] {
                succs[comp_of[v]].insert(comp_of[w]);
            }
        }
    }
    let comp_frame = |c: usize| -> usize {
        sccs[c]
            .iter()
            .map(|&v| frame_bytes(&graph.fns[v]))
            .max()
            .unwrap_or(0)
    };
    let origin = |v: usize| (graph.paths[graph.fns[v].file].as_str(), graph.fns[v].line);
    let first_def: Vec<_> = sccs
        .iter()
        .map(|comp| comp.iter().map(|&v| origin(v)).min())
        .collect();
    let mut depth = vec![0usize; sccs.len()];
    let mut best_succ: Vec<Option<usize>> = vec![None; sccs.len()];
    for c in 0..sccs.len() {
        best_succ[c] = succs[c]
            .iter()
            .copied()
            .max_by_key(|&s| (depth[s], Reverse(first_def[s])));
        depth[c] = comp_frame(c) + best_succ[c].map_or(0, |s| depth[s]);
    }

    let mut entries = Vec::new();
    let mut entry_fns: Vec<(usize, usize)> = Vec::new(); // (entry idx, fn idx)
    // Every row must resolve in the tree that holds this table; a
    // fixture file set without it lacks the entry files too.
    let holds_table = graph.paths.iter().any(|p| p == ENTRY_TABLE_FILE);
    let mut unresolved = Vec::new();
    for (e_idx, ep) in ENTRY_POINTS.iter().enumerate() {
        let found = entry_defs(graph, ep);
        let [f] = found[..] else {
            if holds_table {
                unresolved.push((*ep, found.len()));
            }
            continue;
        };
        entry_fns.push((e_idx, f));
        let mut chain = Vec::new();
        let mut c = Some(comp_of[f]);
        while let Some(cc) = c {
            let rep = sccs[cc]
                .iter()
                .copied()
                .min_by_key(|&v| (Reverse(frame_bytes(&graph.fns[v])), origin(v)));
            if let Some(rep) = rep {
                let mut name = graph.fns[rep].display();
                if sccs[cc].len() > 1 {
                    name.push_str(" (cycle)");
                }
                chain.push(name);
            }
            c = best_succ[cc];
        }
        let def = &graph.fns[f];
        entries.push(EntryStack {
            label: ep.label.to_string(),
            file: files[def.file].file.rel_path.clone(),
            line: def.line,
            stack_bytes: depth[comp_of[f]],
            frames: chain.len(),
            chain,
        });
    }

    // Multi-source BFS from the entry functions, entries-first order,
    // recording each reachable function's owning entry and BFS parent
    // so panic findings can print a shortest call chain.
    let mut reach: Vec<Option<(usize, Option<usize>)>> = vec![None; n];
    let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
    for &(e_idx, f) in &entry_fns {
        if reach[f].is_none() {
            reach[f] = Some((e_idx, None));
            queue.push_back(f);
        }
    }
    while let Some(v) = queue.pop_front() {
        let Some((e_idx, _)) = reach[v] else { continue };
        for &w in &edges[v] {
            if reach[w].is_none() {
                reach[w] = Some((e_idx, Some(v)));
                queue.push_back(w);
            }
        }
    }
    (StackReport { entries, unresolved }, reach)
}

fn panic_findings(
    files: &[ParsedFile],
    graph: &Graph,
    _edges: &[Vec<usize>],
    reach: &[Option<(usize, Option<usize>)>],
) -> Vec<Finding> {
    let mut out = Vec::new();
    for site in &graph.panics {
        let pf = &files[site.file];
        // Embedded files' own panic sites are the lexical pass's
        // jurisdiction (embedded-no-panic and the pinned profiles).
        if pf.class.embedded {
            continue;
        }
        let Some((e_idx, _)) = reach[site.in_fn] else {
            continue;
        };
        // An honored suppression of a panic-certifying lexical rule is
        // the soundness argument for this site; trust it.
        let trusted = pf.sups.iter().any(|s| {
            certifies_panic_site(&s.rule) && s.first_line <= site.line && site.line <= s.last_line
        });
        if trusted {
            continue;
        }
        let mut chain = Vec::new();
        let mut v = Some(site.in_fn);
        while let Some(f) = v {
            chain.push(graph.fns[f].display());
            v = reach[f].and_then(|(_, parent)| parent);
        }
        chain.reverse();
        let label = ENTRY_POINTS
            .get(e_idx)
            .map_or("<entry>", |e| e.label);
        out.push(Finding::new(
            "cg-panic-reachable",
            &pf.file.rel_path,
            site.line,
            format!(
                "`{}` is reachable from embedded entry {}: {} \u{2192} {}; return a \
                 Result or justify with lint:allow(cg-panic-reachable, …)",
                site.what,
                label,
                chain.join(" \u{2192} "),
                site.what,
            ),
        ));
    }
    out.sort_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)));
    out
}

/// `cg-unreached`: every library `pub fn` no root reaches, or the whole
/// module at line 1 when none of its fns is reached; and every library
/// `pub` type that only its own impls name.
fn unreached_findings(graph: &Graph) -> Vec<Finding> {
    let is_root_file = |file: usize| {
        let path = graph.paths[file].as_str();
        graph.sites_only[file] || path.contains("/src/bin/") || path.ends_with("/src/main.rs")
    };
    let edges = resolve_edges(graph, true);
    let mut reached = vec![false; graph.fns.len()];
    let mut work: Vec<usize> = (0..graph.fns.len())
        .filter(|&f| {
            let d = &graph.fns[f];
            !d.in_test && (d.name.is_empty() || is_root_file(d.file))
        })
        .chain(ENTRY_POINTS.iter().flat_map(|ep| entry_defs(graph, ep)))
        .collect();
    while let Some(v) = work.pop() {
        if !reached[v] {
            reached[v] = true;
            work.extend(&edges[v]);
        }
    }

    let judged_file = |file: usize| {
        !is_root_file(file) && !UNREACHED_EXEMPT_CRATES.contains(&crate_of(&graph.paths[file]))
    };
    // The fns each library file is judged on, trait-impl methods aside.
    let mut judged: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (f, d) in graph.fns.iter().enumerate() {
        if !d.in_test && d.has_body && d.trait_impl.is_none() && judged_file(d.file) {
            judged.entry(d.file).or_default().push(f);
        }
    }
    let mut out = Vec::new();
    let mut dead_modules = BTreeSet::new();
    for (file, fns) in judged {
        let path = &graph.paths[file];
        let dead: Vec<usize> = fns
            .iter()
            .copied()
            .filter(|&f| graph.fns[f].public && !reached[f])
            .collect();
        if dead.is_empty() {
            continue;
        }
        if fns.iter().all(|&f| !reached[f]) {
            dead_modules.insert(file);
            out.push(Finding::new(
                "cg-unreached",
                path,
                1,
                format!(
                    "no root reaches any fn of this module ({} of them pub); delete the module",
                    dead.len()
                ),
            ));
            continue;
        }
        for f in dead {
            let d = &graph.fns[f];
            out.push(Finding::new(
                "cg-unreached",
                path,
                d.line,
                format!(
                    "pub fn `{}` is reached from no binary, example, root test or \
                     embedded entry point; delete it or justify with \
                     lint:allow(cg-unreached, …)",
                    d.display()
                ),
            ));
        }
    }

    // Names reached code mentions outside its own impl; the device holds
    // each entry point's owner.
    let mut named: BTreeSet<&str> = ENTRY_POINTS.iter().map(|ep| ep.owner).collect();
    for (f, d) in graph.fns.iter().enumerate().filter(|&(f, _)| reached[f]) {
        let own = d.owner.as_deref();
        named.extend(graph.calls[f].iter().map(|s| s.name.as_str()).filter(|&n| own != Some(n)));
    }
    for (file, line, name) in &graph.types {
        if judged_file(*file) && !dead_modules.contains(file) && !named.contains(name.as_str()) {
            out.push(Finding::new(
                "cg-unreached",
                &graph.paths[*file],
                *line,
                format!(
                    "pub type `{name}` is named by no root or reached code outside its own \
                     impls; delete it or justify with lint:allow(cg-unreached, …)"
                ),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::classify;
    use crate::source::SourceFile;

    fn parsed(rel: &str, src: &str) -> ParsedFile {
        let file = SourceFile::parse(rel, src);
        let (sups, meta) = crate::suppress::collect(&file);
        ParsedFile {
            class: classify(rel),
            file,
            sups,
            meta,
        }
    }

    #[test]
    fn extracts_defs_params_and_lets() {
        let pf = parsed(
            "crates/wiot/src/x.rs",
            "impl Foo {\n  pub fn go(&mut self, a: u32, b: &[u8], c: Option<(u8, u8)>) -> u32 {\n    let x = 1;\n    let y = helper(a);\n    x + y\n  }\n}\nfn helper(a: u32) -> u32 { let z = a; z }\n",
        );
        let g = extract(&[pf]);
        assert_eq!(g.fns.len(), 2);
        assert_eq!(g.fns[0].name, "go");
        assert_eq!(g.fns[0].owner.as_deref(), Some("Foo"));
        assert_eq!(g.fns[0].params, 4, "self counts as a parameter");
        assert_eq!(g.fns[0].lets, 2);
        assert_eq!(g.fns[1].name, "helper");
        assert_eq!(g.fns[1].params, 1);
        assert_eq!(g.fns[1].lets, 1);
        // go -> helper resolves as a free call.
        let edges = resolve_edges(&g, false);
        assert_eq!(edges[0], vec![1]);
        assert!(edges[1].is_empty());
    }

    #[test]
    fn a_let_binding_shadows_from_its_statement_to_its_block_end() {
        let pf = parsed(
            "crates/wiot/src/x.rs",
            "fn scan(x: u32) -> u32 { x }\nfn go(x: u32) -> u32 {\n  {\n    let scan = |y: u32| y;\n    scan(x);\n  }\n  let n = scan(x);\n  let scan = scan(n);\n  scan\n}\n",
        );
        let g = extract(&[pf]);
        let go = g.fns.iter().position(|d| d.name == "go").unwrap();
        // The closure's call, the bindings and the final value are
        // local; the two calls outside the binding's scope are the fn's.
        let called: Vec<bool> = g.calls[go]
            .iter()
            .filter(|s| s.name == "scan")
            .map(|s| s.called)
            .collect();
        assert_eq!(called, vec![true, true]);
        let edges = resolve_edges(&g, false);
        assert_eq!(edges[go], vec![0]);
    }

    #[test]
    fn impl_for_headers_bind_owner_and_trait() {
        let pf = parsed(
            "crates/wiot/src/x.rs",
            "impl fmt::Display for Gauge {\n  fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result { Ok(()) }\n}\nimpl<T: Clone> Holder<T> {\n  fn hold(&self) {}\n}\n",
        );
        let g = extract(&[pf]);
        assert_eq!(g.fns[0].owner.as_deref(), Some("Gauge"));
        assert_eq!(g.fns[0].trait_impl.as_deref(), Some("Display"));
        assert_eq!(g.fns[1].owner.as_deref(), Some("Holder"));
        assert_eq!(g.fns[1].trait_impl, None);
    }

    #[test]
    fn trait_default_body_dispatches_to_impls_not_itself() {
        let src = "trait Scorer {\n  fn one(&self) -> u32;\n  fn many(&self) -> u32 { self.one() }\n}\nstruct A;\nimpl Scorer for A {\n  fn one(&self) -> u32 { 1 }\n}\n";
        let pf = parsed("crates/wiot/src/x.rs", src);
        let g = extract(&[pf]);
        let many = g.fns.iter().position(|d| d.name == "many").unwrap();
        let a_one = g
            .fns
            .iter()
            .position(|d| d.name == "one" && d.has_body)
            .unwrap();
        let edges = resolve_edges(&g, false);
        assert_eq!(edges[many], vec![a_one]);
        // No cycles anywhere.
        let sccs = tarjan(g.fns.len(), &edges);
        assert!(sccs.iter().all(|c| c.len() == 1));
    }

    #[test]
    fn enum_dispatcher_pattern_is_not_a_false_cycle() {
        // The DetectorModel pattern: an enum's trait impl fans out via
        // Trait::method(inner) — the trait-qualified call must not
        // resolve back to the caller.
        let src = "trait B {\n  fn enc(&self, out: &mut [u8]) -> usize;\n}\nstruct Inner;\nimpl B for Inner {\n  fn enc(&self, out: &mut [u8]) -> usize { 0 }\n}\nenum Model { I(Inner) }\nimpl B for Model {\n  fn enc(&self, out: &mut [u8]) -> usize {\n    match self { Model::I(m) => B::enc(m, out) }\n  }\n}\n";
        let pf = parsed("crates/wiot/src/x.rs", src);
        let g = extract(&[pf]);
        let edges = resolve_edges(&g, false);
        let sccs = tarjan(g.fns.len(), &edges);
        assert!(
            sccs.iter().all(|c| c.len() == 1),
            "no cycle expected: {sccs:?}"
        );
        let model_enc = g
            .fns
            .iter()
            .position(|d| d.owner.as_deref() == Some("Model"))
            .unwrap();
        let inner_enc = g
            .fns
            .iter()
            .position(|d| d.owner.as_deref() == Some("Inner"))
            .unwrap();
        assert_eq!(edges[model_enc], vec![inner_enc]);
    }

    #[test]
    fn direct_and_mutual_recursion_in_embedded_files_is_flagged() {
        let direct = parsed(
            "crates/dsp/src/fixed.rs",
            "fn spin(n: u32) -> u32 { if n == 0 { 0 } else { spin(n - 1) } }\n",
        );
        let files = [direct];
        let g = extract(&files);
        let edges = resolve_edges(&g, false);
        let sccs = tarjan(g.fns.len(), &edges);
        let fs = recursion_findings(&files, &g, &edges, &sccs);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].rule, "cg-recursion");
        assert!(fs[0].message.contains("spin"), "{}", fs[0].message);

        // The same cycle in host-side code is not a finding.
        let host = parsed(
            "crates/physio-sim/src/x.rs",
            "fn spin(n: u32) -> u32 { if n == 0 { 0 } else { spin(n - 1) } }\n",
        );
        let files = [host];
        let g = extract(&files);
        let edges = resolve_edges(&g, false);
        let sccs = tarjan(g.fns.len(), &edges);
        assert!(recursion_findings(&files, &g, &edges, &sccs).is_empty());
    }

    #[test]
    fn dyn_and_fn_pointer_types_fire_only_in_embedded_files() {
        let src = "fn take(cb: fn(u32) -> u32, d: &dyn std::fmt::Debug) {}\n";
        let emb = parsed("crates/ml/src/embedded.rs", src);
        let g = extract(std::slice::from_ref(&emb));
        let fs = dynamic_dispatch_findings(std::slice::from_ref(&emb), &g);
        assert_eq!(fs.len(), 2, "{fs:?}");
        assert!(fs.iter().all(|f| f.rule == "cg-dynamic-dispatch"));

        let host = parsed("crates/physio-sim/src/x.rs", src);
        let g = extract(std::slice::from_ref(&host));
        assert!(dynamic_dispatch_findings(std::slice::from_ref(&host), &g).is_empty());
    }

    #[test]
    fn stack_chain_sums_frames_along_the_deepest_path() {
        // survival.rs is an entry-point file: SurvivalPolicy::step is in
        // the ENTRY_POINTS table. step -> deep -> deeper, with a shallow
        // sibling that must not win.
        let src = "impl SurvivalPolicy {\n  pub fn step(&mut self, inputs: u32) -> u32 {\n    let a = self.shallow();\n    let b = deep(a);\n    a + b\n  }\n  fn shallow(&self) -> u32 { 1 }\n}\nfn deep(x: u32) -> u32 {\n  let a = x;\n  let b = x;\n  deeper(a + b)\n}\nfn deeper(x: u32) -> u32 {\n  let a = x;\n  a\n}\n";
        let pf = parsed("crates/wiot/src/survival.rs", src);
        let files = [pf];
        let g = extract(&files);
        let edges = resolve_edges(&g, false);
        let sccs = tarjan(g.fns.len(), &edges);
        let (report, _) = stack_report(&files, &g, &edges, &sccs);
        assert_eq!(report.entries.len(), 1);
        let e = &report.entries[0];
        assert_eq!(e.label, "SurvivalPolicy::step");
        // step: 4 + 2·2 lets = 8; deep: 4 + 2·2 = 8; deeper: 4 + 2 = 6.
        assert_eq!(e.stack_bytes, 22, "{e:?}");
        assert_eq!(e.frames, 3);
        assert_eq!(e.chain, vec!["SurvivalPolicy::step", "deep", "deeper"]);
    }

    #[test]
    fn stack_chain_ties_do_not_depend_on_unrelated_files() {
        // step calls two callees with equal frames. An earlier file that
        // reaches `second` through method-name fan-out makes Tarjan
        // number `second`'s SCC first; the chain must still pick the
        // first-defined callee.
        let src = "impl SurvivalPolicy {\n  pub fn step(&mut self, x: u32) -> u32 {\n    self.first(x) + self.second(x)\n  }\n  fn first(&self, x: u32) -> u32 { x }\n  fn second(&self, x: u32) -> u32 { x }\n}\n";
        let unrelated = "pub fn other(p: &Probe, x: u32) -> u32 {\n  p.second(x)\n}\n";
        let chain = |with_unrelated: bool| {
            let mut files = Vec::new();
            if with_unrelated {
                files.push(parsed("crates/amulet-sim/src/probe.rs", unrelated));
            }
            files.push(parsed("crates/wiot/src/survival.rs", src));
            let g = extract(&files);
            let edges = resolve_edges(&g, false);
            let sccs = tarjan(g.fns.len(), &edges);
            let (report, _) = stack_report(&files, &g, &edges, &sccs);
            report.entries[0].chain.clone()
        };
        let expected = vec!["SurvivalPolicy::step", "SurvivalPolicy::first"];
        assert_eq!(chain(false), expected);
        assert_eq!(chain(true), expected);
    }

    #[test]
    fn panic_reachability_walks_across_files_and_honors_suppressions() {
        let entry = parsed(
            "crates/wiot/src/survival.rs",
            "impl SurvivalPolicy {\n  pub fn step(&mut self, inputs: u32) -> u32 { helper(inputs) }\n}\n",
        );
        let host = parsed(
            "crates/wiot/src/host.rs",
            "pub fn helper(x: u32) -> u32 { deeper(x) }\nfn deeper(x: u32) -> u32 { Some(x).unwrap() }\nfn unreached(x: u32) -> u32 { Some(x).unwrap() }\n",
        );
        let files = [entry, host];
        let g = extract(&files);
        let edges = resolve_edges(&g, false);
        let sccs = tarjan(g.fns.len(), &edges);
        let (_, reach) = stack_report(&files, &g, &edges, &sccs);
        let fs = panic_findings(&files, &g, &edges, &reach);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].rule, "cg-panic-reachable");
        assert_eq!(fs[0].file, "crates/wiot/src/host.rs");
        assert_eq!(fs[0].line, 2);
        assert!(
            fs[0].message.contains("SurvivalPolicy::step \u{2192} helper \u{2192} deeper"),
            "{}",
            fs[0].message
        );

        // A lib-no-panic suppression at the site certifies it.
        let host_ok = parsed(
            "crates/wiot/src/host.rs",
            "pub fn helper(x: u32) -> u32 { deeper(x) }\nfn deeper(x: u32) -> u32 { Some(x).unwrap() } // lint:allow(lib-no-panic, Some is always Some)\n",
        );
        let files = [
            parsed(
                "crates/wiot/src/survival.rs",
                "impl SurvivalPolicy {\n  pub fn step(&mut self, inputs: u32) -> u32 { helper(inputs) }\n}\n",
            ),
            host_ok,
        ];
        let g = extract(&files);
        let edges = resolve_edges(&g, false);
        let sccs = tarjan(g.fns.len(), &edges);
        let (_, reach) = stack_report(&files, &g, &edges, &sccs);
        assert!(panic_findings(&files, &g, &edges, &reach).is_empty());
    }

    #[test]
    fn test_regions_are_invisible_to_the_graph() {
        let pf = parsed(
            "crates/wiot/src/survival.rs",
            "impl SurvivalPolicy {\n  pub fn step(&mut self, inputs: u32) -> u32 { 0 }\n}\n#[cfg(test)]\nmod tests {\n  fn spin(n: u32) -> u32 { spin(n - 1) }\n  fn t() { x.unwrap(); }\n}\n",
        );
        let files = [pf];
        let g = extract(&files);
        let edges = resolve_edges(&g, false);
        let sccs = tarjan(g.fns.len(), &edges);
        assert!(recursion_findings(&files, &g, &edges, &sccs).is_empty());
        let (_, reach) = stack_report(&files, &g, &edges, &sccs);
        assert!(panic_findings(&files, &g, &edges, &reach).is_empty());
    }
}
