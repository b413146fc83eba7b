//! The six repo-specific rules (L1–L6).
//!
//! Each rule is a pure function from a parsed [`SourceFile`] (plus rule
//! scope from [`LintConfig`](super::LintConfig)) to findings. Rules see
//! blanked code only — string contents and comments can never trip them —
//! and every finding carries a content fingerprint so the ratchet
//! baseline survives line drift.

use super::report::Finding;
use super::source::{enum_variants, FnSpan, SourceFile, Token};

/// Keywords that may directly precede `[` without forming an index
/// expression (`&mut [f64]`, `impl AsRef<[u8]>`, `return [a, b]`, ...).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "as", "box", "break", "const", "continue", "dyn", "else", "fn", "for", "if", "impl", "in",
    "let", "loop", "match", "move", "mut", "pub", "ref", "return", "static", "type", "unsafe",
    "where", "while", "yield",
];

/// Panicking macros L1 rejects in hot paths. `debug_assert*` is allowed:
/// it compiles out of release serving builds.
const PANIC_MACROS: &[&str] =
    &["panic", "unreachable", "todo", "unimplemented", "assert", "assert_eq", "assert_ne"];

/// Allocation constructors L2 rejects inside `*_into`/`*_acc` kernels
/// when invoked as `Type::method(...)`.
const ALLOC_PATHS: &[(&str, &str)] = &[
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("Vec", "from"),
    ("Box", "new"),
    ("String", "new"),
    ("String", "from"),
    ("String", "with_capacity"),
    ("HashMap", "new"),
    ("BTreeMap", "new"),
    ("VecDeque", "new"),
];

/// Allocating methods L2 rejects when invoked as `.method(...)`.
const ALLOC_METHODS: &[&str] = &["clone", "collect", "to_vec", "to_owned", "to_string"];

/// Allocating macros L2 rejects.
const ALLOC_MACROS: &[&str] = &["vec", "format"];

/// Raw constructors L3 rejects outside `bear-sparse`: they skip (part of)
/// the invariant audit that `try_from_parts` performs.
const RAW_CONSTRUCTORS: &[&str] = &["from_raw", "from_raw_unchecked", "from_parts"];

/// Hash collections L6 rejects where generation must be deterministic:
/// their iteration order depends on a per-process random hash seed.
const HASH_COLLECTIONS: &[&str] = &["HashMap", "HashSet"];

/// `std::sync` primitives L4 requires to be imported through the
/// `crate::sync` shim, so loom model-checks every lock.
const SHIMMED_SYNC_TYPES: &[&str] = &["Mutex", "Condvar", "RwLock"];

/// L1 — panic-freedom in designated hot paths: no `.unwrap()`,
/// `.expect(...)`, panicking macros, or slice-index expressions.
pub fn l1_panic_freedom(file: &SourceFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    let tokens = &file.tokens;
    for (i, tok) in tokens.iter().enumerate() {
        if file.line_in_test(tok.line) {
            continue;
        }
        let prev = previous_token(tokens, i);
        let next = tokens.get(i + 1);
        if tok.is_word {
            let method_call =
                prev.is_some_and(|p| p.text == ".") && next.is_some_and(|n| n.text == "(");
            if method_call && (tok.text == "unwrap" || tok.text == "expect") {
                findings.push(Finding::new(
                    "L1",
                    &tok.text,
                    file,
                    tok.line,
                    format!("`.{}()` in a hot path: return a typed `Error` instead", tok.text),
                ));
            } else if PANIC_MACROS.contains(&tok.text.as_str())
                && next.is_some_and(|n| n.text == "!")
            {
                findings.push(Finding::new(
                    "L1",
                    "panic-macro",
                    file,
                    tok.line,
                    format!(
                        "`{}!` in a hot path: panics must not cross the serving boundary",
                        tok.text
                    ),
                ));
            }
        } else if tok.text == "[" {
            // An index expression: `[` directly after an identifier (that
            // is not a keyword), a closing paren, or a closing bracket.
            let indexes = prev.is_some_and(|p| {
                (p.is_word && !NON_INDEX_KEYWORDS.contains(&p.text.as_str()))
                    || p.text == ")"
                    || p.text == "]"
            });
            if indexes {
                findings.push(Finding::new(
                    "L1",
                    "slice-index",
                    file,
                    tok.line,
                    "slice-index expression in a hot path can panic; prefer `get`/checked split"
                        .to_string(),
                ));
            }
        }
    }
    findings
}

/// L2 — allocation-freedom inside `*_into`/`*_acc` kernel bodies: the
/// steady-state serving path must not heap-allocate.
pub fn l2_alloc_freedom(file: &SourceFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    for f in &file.fns {
        if f.in_test || !(f.name.ends_with("_into") || f.name.ends_with("_acc")) {
            continue;
        }
        let (start, end) = f.body_tokens;
        let tokens = &file.tokens;
        for i in start..end.min(tokens.len()) {
            let tok = &tokens[i];
            if !tok.is_word {
                continue;
            }
            let prev = previous_token(tokens, i);
            let next = tokens.get(i + 1);
            let word = tok.text.as_str();
            let mut hit: Option<String> = None;
            if ALLOC_MACROS.contains(&word) && next.is_some_and(|n| n.text == "!") {
                hit = Some(format!("`{word}!`"));
            } else if ALLOC_METHODS.contains(&word)
                && prev.is_some_and(|p| p.text == "." || p.text == ":")
                && next.is_some_and(|n| n.text == "(")
            {
                hit = Some(format!("`.{word}()`"));
            } else if prev.is_some_and(|p| p.text == ":") {
                // `Type::ctor(...)` — look two tokens of path back.
                let ty = path_head(tokens, i);
                if ALLOC_PATHS.iter().any(|(t, m)| *m == word && Some(*t) == ty.as_deref()) {
                    hit = Some(format!("`{}::{word}`", ty.unwrap_or_default()));
                }
            }
            if let Some(what) = hit {
                findings.push(Finding::new(
                    "L2",
                    "alloc",
                    file,
                    tok.line,
                    format!(
                        "{what} allocates inside kernel fn `{}`; use caller-owned buffers",
                        f.name
                    ),
                ));
            }
        }
    }
    findings
}

/// L3 — trust boundaries: raw sparse-matrix constructors must not be
/// called outside `bear-sparse`; external code goes through
/// `try_from_parts`, which runs the full invariant audit.
pub fn l3_trust_boundary(file: &SourceFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    let tokens = &file.tokens;
    for (i, tok) in tokens.iter().enumerate() {
        if !tok.is_word
            || !RAW_CONSTRUCTORS.contains(&tok.text.as_str())
            || file.line_in_test(tok.line)
        {
            continue;
        }
        let prev = previous_token(tokens, i);
        let next = tokens.get(i + 1);
        // A call (`x.from_raw(...)` / `T::from_raw(...)`), not a definition.
        let is_call = next.is_some_and(|n| n.text == "(")
            && prev.is_some_and(|p| p.text == "." || p.text == ":");
        if is_call {
            findings.push(Finding::new(
                "L3",
                "raw-constructor",
                file,
                tok.line,
                format!(
                    "`{}` bypasses the invariant audit outside bear-sparse; use `try_from_parts`",
                    tok.text
                ),
            ));
        }
    }
    findings
}

/// L4 — sync-shim discipline: `std::sync::{Mutex, Condvar, RwLock}` may
/// only be named inside the `sync.rs` shim, so loom model-checks every
/// lock the engine takes. Applies to test code too (the shim is free
/// outside loom builds).
pub fn l4_sync_shim(file: &SourceFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    let tokens = &file.tokens;
    let mut i = 0;
    while i < tokens.len() {
        // Match the path prefix `std :: sync ::`.
        if tokens[i].text == "std"
            && matches_punct(tokens, i + 1, "::")
            && tokens.get(i + 3).is_some_and(|t| t.text == "sync")
            && matches_punct(tokens, i + 4, "::")
        {
            let after = i + 6;
            if let Some(t) = tokens.get(after) {
                if t.text == "{" {
                    // `use std::sync::{...}` — inspect the whole group.
                    let mut j = after + 1;
                    let mut depth = 1;
                    while j < tokens.len() && depth > 0 {
                        match tokens[j].text.as_str() {
                            "{" => depth += 1,
                            "}" => depth -= 1,
                            w if SHIMMED_SYNC_TYPES.contains(&w) => {
                                findings.push(std_sync_finding(file, &tokens[j]));
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    i = j;
                    continue;
                } else if SHIMMED_SYNC_TYPES.contains(&t.text.as_str()) {
                    findings.push(std_sync_finding(file, t));
                }
            }
        }
        i += 1;
    }
    findings
}

/// Builds the L4 finding for one offending `Mutex`/`Condvar`/`RwLock`.
fn std_sync_finding(file: &SourceFile, tok: &Token) -> Finding {
    Finding::new(
        "L4",
        "std-sync",
        file,
        tok.line,
        format!("`std::sync::{}` outside the sync shim; import it via `crate::sync` so loom can model-check the lock", tok.text),
    )
}

/// L5 — error-taxonomy completeness: every variant of the shared `Error`
/// enum must be named in each designated mapping function (the HTTP
/// status map and the CLI exit-code map), so a newly added fault class
/// cannot silently fall through a `_` arm.
pub fn l5_taxonomy(
    enum_file: &SourceFile,
    enum_name: &str,
    target: &SourceFile,
    fn_name: &str,
) -> Vec<Finding> {
    let Some(variants) = enum_variants(enum_file, enum_name) else {
        return vec![Finding::with_fingerprint(
            "L5",
            "enum-not-found",
            &enum_file.rel_path,
            1,
            format!("enum `{enum_name}` not found in {}", enum_file.rel_path),
            format!("enum-not-found:{enum_name}"),
        )];
    };
    let Some(span) = target.fns.iter().find(|f| f.name == fn_name) else {
        return vec![Finding::with_fingerprint(
            "L5",
            "mapping-fn-not-found",
            &target.rel_path,
            1,
            format!("mapping fn `{fn_name}` not found in {}", target.rel_path),
            format!("mapping-fn-not-found:{fn_name}"),
        )];
    };
    let (start, end) = span.body_tokens;
    let mut findings = Vec::new();
    for variant in &variants {
        let named = target.tokens[start..end.min(target.tokens.len())]
            .iter()
            .any(|t| t.is_word && t.text == *variant);
        if !named {
            findings.push(Finding::with_fingerprint(
                "L5",
                "missing-arm",
                &target.rel_path,
                span.start_line,
                format!(
                    "`{fn_name}` has no explicit arm for `{enum_name}::{variant}`; map every fault class deliberately"
                ),
                format!("{fn_name}:missing-arm:{variant}"),
            ));
        }
    }
    findings
}

/// L6 — deterministic generation: no std `HashMap`/`HashSet` in the
/// graph generators, the dataset registry or preprocessing. Iterating
/// one visits entries in an order seeded per process, so anything that
/// order reaches (an edge list, an RNG draw, a factor's layout) would
/// differ between two runs of the same seeded build. A `BTreeMap`/
/// `BTreeSet`, a `Vec` in insertion order or a dense mark array keeps
/// the order fixed. Test code is spared: it builds nothing.
pub fn l6_deterministic_generation(file: &SourceFile) -> Vec<Finding> {
    file.tokens
        .iter()
        .filter(|tok| {
            tok.is_word
                && HASH_COLLECTIONS.contains(&tok.text.as_str())
                && !file.line_in_test(tok.line)
        })
        .map(|tok| {
            Finding::new(
                "L6",
                "std-hash",
                file,
                tok.line,
                format!(
                    "`{}` iterates in a per-process order where generation must be deterministic; use a `BTree` collection or a `Vec`",
                    tok.text
                ),
            )
        })
        .collect()
}

/// The nearest preceding token, if any.
fn previous_token(tokens: &[Token], i: usize) -> Option<&Token> {
    i.checked_sub(1).and_then(|j| tokens.get(j))
}

/// For a word at `i` preceded by `::`, the head of the two-segment path
/// (`Vec` in `Vec::new`), if the shape matches.
fn path_head(tokens: &[Token], i: usize) -> Option<String> {
    // tokens[i-2..i] should be `:` `:` and tokens[i-3] the head word.
    if i >= 3 && tokens[i - 1].text == ":" && tokens[i - 2].text == ":" && tokens[i - 3].is_word {
        Some(tokens[i - 3].text.clone())
    } else {
        None
    }
}

/// Whether `tokens[i]` and `tokens[i+1]` spell the two-char punct `::`.
fn matches_punct(tokens: &[Token], i: usize, two: &str) -> bool {
    let mut chars = two.chars();
    let (a, b) = (chars.next(), chars.next());
    tokens.get(i).map(|t| t.text.chars().next()) == Some(a)
        && tokens.get(i + 1).map(|t| t.text.chars().next()) == Some(b)
}

/// Hot-path helper shared by L1/L2 message text: the kernel-fn span a
/// token belongs to, if any (used by tests to assert scoping).
pub fn enclosing_fn(file: &SourceFile, token_index: usize) -> Option<&FnSpan> {
    file.fns
        .iter()
        .filter(|f| f.body_tokens.0 <= token_index && token_index < f.body_tokens.1)
        .min_by_key(|f| f.body_tokens.1 - f.body_tokens.0)
}
