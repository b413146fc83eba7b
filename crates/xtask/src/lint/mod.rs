//! `bear-lint`: repo-specific static analysis; any finding fails.
//!
//! `cargo xtask analyze lint` runs six rules that generic tooling
//! cannot express (see DESIGN.md §15):
//!
//! * **L1 panic-freedom** — no `.unwrap()`/`.expect()`/panicking macros/
//!   slice-index expressions in the designated serving hot paths;
//! * **L2 allocation-freedom** — no allocation constructs inside
//!   `*_into`/`*_acc` kernel bodies;
//! * **L3 trust boundaries** — no raw sparse constructors outside
//!   `bear-sparse` (use `try_from_parts`);
//! * **L4 sync-shim discipline** — `std::sync::{Mutex, Condvar, RwLock}`
//!   only inside the `crate::sync` shim, keeping every lock
//!   loom-checkable;
//! * **L5 error-taxonomy completeness** — every `Error` variant has an
//!   explicit HTTP-status arm and CLI exit-code arm;
//! * **L6 deterministic generation** — no std `HashMap`/`HashSet` in the
//!   graph generators, the dataset registry or preprocessing, whose
//!   per-process iteration order would make a seeded build differ from
//!   run to run.
//!
//! There is no baseline of tolerated findings: every finding fails the
//! gate. Intentional exceptions are written in the source as
//! `// lint:allow(L1, reason)` with a mandatory reason, next to the code
//! they excuse.

pub mod report;
pub mod rules;
pub mod source;

use report::Finding;
use source::SourceFile;
use std::io;
use std::path::{Path, PathBuf};

/// Process exit code when there are findings.
pub const EXIT_FINDINGS: u8 = 5;
/// Process exit code for a usage error.
pub const EXIT_USAGE: u8 = 2;

/// Which files a rule applies to, as root-relative path prefixes.
#[derive(Debug, Default, Clone)]
pub struct RuleScope {
    /// Files or directories (prefix match) the rule covers.
    pub include: Vec<String>,
    /// Files or directories carved back out of `include`.
    pub exclude: Vec<String>,
}

impl RuleScope {
    /// Whether the rule covers `rel` (a `/`-separated relative path).
    pub fn matches(&self, rel: &str) -> bool {
        let hit = |prefix: &String| rel == prefix || rel.starts_with(&format!("{prefix}/"));
        self.include.iter().any(hit) && !self.exclude.iter().any(hit)
    }
}

/// Everything one lint run needs: the root, per-rule scopes, and the L5
/// enum/mapping coordinates.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Directory all relative paths resolve against.
    pub root: PathBuf,
    /// L1 panic-freedom scope (hot-path files).
    pub l1: RuleScope,
    /// L2 allocation-freedom scope (kernel crates).
    pub l2: RuleScope,
    /// L3 trust-boundary scope (everything outside `bear-sparse`).
    pub l3: RuleScope,
    /// L4 sync-shim scope (locking crates, `sync.rs` carved out).
    pub l4: RuleScope,
    /// L6 deterministic-generation scope (generators, datasets,
    /// preprocessing).
    pub l6: RuleScope,
    /// L5 error enum location: `(relative file, enum name)`.
    pub l5_enum: Option<(String, String)>,
    /// L5 mapping functions: `(relative file, fn name)` each of which
    /// must name every enum variant.
    pub l5_targets: Vec<(String, String)>,
}

impl LintConfig {
    /// The scopes for this repository — the single place the hot-path
    /// and kernel designations live (mirrored in DESIGN.md §15).
    pub fn workspace(root: &Path) -> LintConfig {
        LintConfig {
            root: root.to_path_buf(),
            l1: RuleScope {
                include: vec![
                    "crates/core/src/engine/serving.rs".into(),
                    "crates/core/src/engine/queue.rs".into(),
                    "crates/core/src/query.rs".into(),
                    "crates/core/src/topk_pruned.rs".into(),
                    "crates/core/src/paging.rs".into(),
                    "crates/serve/src".into(),
                ],
                exclude: Vec::new(),
            },
            l2: RuleScope {
                include: vec!["crates/sparse/src".into(), "crates/core/src".into()],
                exclude: Vec::new(),
            },
            l3: RuleScope {
                include: vec![
                    "crates/core/src".into(),
                    "crates/serve/src".into(),
                    "crates/cli/src".into(),
                    "crates/graph/src".into(),
                    "crates/datasets/src".into(),
                    "crates/bench/src".into(),
                    "crates/baselines/src".into(),
                    "src".into(),
                ],
                exclude: Vec::new(),
            },
            l4: RuleScope {
                include: vec![
                    "crates/core/src".into(),
                    "crates/serve/src".into(),
                    "crates/cli/src".into(),
                ],
                exclude: vec!["crates/core/src/sync.rs".into(), "crates/serve/src/sync.rs".into()],
            },
            l6: RuleScope {
                include: vec![
                    "crates/graph/src/generators".into(),
                    "crates/datasets/src".into(),
                    "crates/core/src/precompute.rs".into(),
                ],
                exclude: Vec::new(),
            },
            l5_enum: Some(("crates/sparse/src/error.rs".into(), "Error".into())),
            l5_targets: vec![
                ("crates/serve/src/server.rs".into(), "error_response".into()),
                ("crates/cli/src/lib.rs".into(), "exit_code".into()),
            ],
        }
    }
}

/// A parsed `// lint:allow(RULE, reason)` directive.
#[derive(Debug)]
struct Allow {
    /// Rule id the directive targets (`L1`..).
    rule: String,
    /// Whether a non-empty reason was supplied (required).
    has_reason: bool,
    /// Whether the directive parsed at all.
    well_formed: bool,
}

/// Parses every `lint:allow` directive in a comment string.
fn parse_allows(comment: &str) -> Vec<Allow> {
    let mut allows = Vec::new();
    let mut rest = comment;
    while let Some(at) = rest.find("lint:allow") {
        rest = &rest[at + "lint:allow".len()..];
        let Some(stripped) = rest.strip_prefix('(') else {
            allows.push(Allow { rule: String::new(), has_reason: false, well_formed: false });
            continue;
        };
        let Some(end) = stripped.find(')') else {
            allows.push(Allow { rule: String::new(), has_reason: false, well_formed: false });
            break;
        };
        let inner = &stripped[..end];
        rest = &stripped[end + 1..];
        let (rule, reason) = match inner.split_once(',') {
            Some((r, why)) => (r.trim().to_string(), why.trim()),
            None => (inner.trim().to_string(), ""),
        };
        allows.push(Allow { rule, has_reason: !reason.is_empty(), well_formed: true });
    }
    allows
}

/// Applies `lint:allow` directives to `findings` for one file: a finding
/// is suppressed by a well-formed directive for its rule, with a
/// non-empty reason, on the finding's line or on a directly preceding
/// comment-only line. Malformed or reason-less directives suppress
/// nothing and are themselves reported.
fn apply_allows(file: &SourceFile, findings: Vec<Finding>) -> Vec<Finding> {
    let mut out = Vec::new();
    let line_allows: Vec<Vec<Allow>> =
        file.lines.iter().map(|l| parse_allows(&l.comment)).collect();
    let effective = |line: usize, rule: &str| -> bool {
        let check = |idx: usize| {
            line_allows.get(idx).is_some_and(|a| {
                a.iter().any(|al| al.well_formed && al.has_reason && al.rule == rule)
            })
        };
        // Same line, or a comment-only line directly above.
        check(line.wrapping_sub(1))
            || (line >= 2
                && file.lines.get(line - 2).is_some_and(|l| l.code.trim().is_empty())
                && check(line - 2))
    };
    for f in findings {
        if !effective(f.line, &f.rule) {
            out.push(f);
        }
    }
    // Report malformed / reason-less directives so a bare `lint:allow(L1)`
    // can never silently pass review.
    for (idx, allows) in line_allows.iter().enumerate() {
        for al in allows {
            if !al.well_formed || !al.has_reason {
                let rule = if al.rule.is_empty() { "L?".to_string() } else { al.rule.clone() };
                out.push(Finding::with_fingerprint(
                    &rule,
                    "malformed-allow",
                    &file.rel_path,
                    idx + 1,
                    "`lint:allow` requires a rule and a reason: `// lint:allow(L1, why this is safe)`"
                        .to_string(),
                    format!("malformed-allow:{}", file.fingerprint(idx + 1)),
                ));
            }
        }
    }
    out
}

/// Recursively collects `.rs` files under `rel` (file or directory),
/// returning root-relative `/`-separated paths, sorted.
fn collect_rs(root: &Path, rel: &str, out: &mut Vec<String>) -> io::Result<()> {
    let abs = root.join(rel);
    if abs.is_file() {
        if rel.ends_with(".rs") {
            out.push(rel.to_string());
        }
        return Ok(());
    }
    if !abs.is_dir() {
        return Ok(()); // tolerated: scope names a crate this tree lacks
    }
    let mut children: Vec<_> = std::fs::read_dir(&abs)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    children.sort();
    for name in children {
        collect_rs(root, &format!("{rel}/{name}"), out)?;
    }
    Ok(())
}

/// Runs every rule over the configured scopes and returns the surviving
/// findings (after `lint:allow` application), sorted by file and line.
pub fn scan(config: &LintConfig) -> io::Result<Vec<Finding>> {
    // Union of all files any rule needs.
    let mut rel_paths: Vec<String> = Vec::new();
    for scope in [&config.l1, &config.l2, &config.l3, &config.l4, &config.l6] {
        for inc in &scope.include {
            collect_rs(&config.root, inc, &mut rel_paths)?;
        }
    }
    if let Some((f, _)) = &config.l5_enum {
        rel_paths.push(f.clone());
    }
    for (f, _) in &config.l5_targets {
        rel_paths.push(f.clone());
    }
    rel_paths.sort();
    rel_paths.dedup();

    let mut files: Vec<SourceFile> = Vec::new();
    for rel in &rel_paths {
        let text = std::fs::read_to_string(config.root.join(rel))?;
        files.push(SourceFile::parse(rel, &text));
    }

    let mut findings = Vec::new();
    for file in &files {
        let mut file_findings = Vec::new();
        if config.l1.matches(&file.rel_path) {
            file_findings.extend(rules::l1_panic_freedom(file));
        }
        if config.l2.matches(&file.rel_path) {
            file_findings.extend(rules::l2_alloc_freedom(file));
        }
        if config.l3.matches(&file.rel_path) {
            file_findings.extend(rules::l3_trust_boundary(file));
        }
        if config.l4.matches(&file.rel_path) {
            file_findings.extend(rules::l4_sync_shim(file));
        }
        if config.l6.matches(&file.rel_path) {
            file_findings.extend(rules::l6_deterministic_generation(file));
        }
        findings.extend(apply_allows(file, file_findings));
    }
    if let Some((enum_rel, enum_name)) = &config.l5_enum {
        if let Some(enum_file) = files.iter().find(|f| f.rel_path == *enum_rel) {
            for (target_rel, fn_name) in &config.l5_targets {
                if let Some(target) = files.iter().find(|f| f.rel_path == *target_rel) {
                    let l5 = rules::l5_taxonomy(enum_file, enum_name, target, fn_name);
                    findings.extend(apply_allows(target, l5));
                }
            }
        }
    }
    findings.sort();
    Ok(findings)
}

/// Output format of the CLI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// `file:line: [rule/category] message` rows.
    Text,
    /// A machine-readable report (CI artifact).
    Json,
}

/// Parsed `analyze lint` flags.
#[derive(Debug)]
pub struct LintOptions {
    /// Report format.
    pub format: Format,
    /// Write the report here instead of stdout.
    pub output: Option<PathBuf>,
}

impl LintOptions {
    /// Parses CLI flags; returns a usage message on failure.
    pub fn parse(args: &[String]) -> Result<LintOptions, String> {
        let mut opts = LintOptions { format: Format::Text, output: None };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--format" => match it.next().map(String::as_str) {
                    Some("text") => opts.format = Format::Text,
                    Some("json") => opts.format = Format::Json,
                    other => {
                        return Err(format!(
                            "--format expects `text` or `json`, got `{}`",
                            other.unwrap_or("<none>")
                        ))
                    }
                },
                "--output" => match it.next() {
                    Some(path) => opts.output = Some(PathBuf::from(path)),
                    None => return Err("--output expects a path".to_string()),
                },
                other => return Err(format!("unknown lint flag `{other}`")),
            }
        }
        Ok(opts)
    }
}

/// Scans, emits the report, and returns the process exit code: 0 when
/// clean, [`EXIT_FINDINGS`] when anything was found.
pub fn check(config: &LintConfig, opts: &LintOptions) -> io::Result<u8> {
    let findings = scan(config)?;
    let body = match opts.format {
        Format::Text => report::render_text(&findings),
        Format::Json => report::render_json(&findings),
    };
    match &opts.output {
        Some(path) => std::fs::write(path, body)?,
        None => print!("{body}"),
    }
    if findings.is_empty() {
        eprintln!("lint: clean");
        Ok(0)
    } else {
        eprintln!(
            "lint: {} finding(s) (exit {EXIT_FINDINGS}); fix them or add `// lint:allow(RULE, reason)`",
            findings.len()
        );
        Ok(EXIT_FINDINGS)
    }
}
