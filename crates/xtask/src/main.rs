//! Workspace automation driver (the `cargo xtask` pattern).
//!
//! `cargo xtask analyze` runs the full static-analysis and
//! model-checking gate with one command — the same gate CI enforces:
//!
//! * `fmt` — `cargo fmt --all --check`;
//! * `clippy` — `cargo clippy --workspace --all-targets` with
//!   `-D warnings` on top of the shared `[workspace.lints]` table;
//! * `doc` — rustdoc over the workspace with `-D warnings`;
//! * `features` — build check of the feature matrix (default,
//!   `strict-invariants`, no-default-features);
//! * `loom` — the model-checking suite under `RUSTFLAGS="--cfg loom"`;
//! * `faults` — the deterministic fault-injection suite under
//!   `--features failpoints` (typed errors / degraded answers for every
//!   injected fault class);
//! * `miri` — the sparse kernel unit tests under Miri (nightly),
//!   skipped with a notice when `cargo +nightly miri` is unavailable
//!   (e.g. offline dev containers);
//! * `lint` — the repo-specific static analysis (`bear-lint`, DESIGN.md
//!   §15): hot-path panic/alloc freedom, trust boundaries, sync-shim
//!   discipline, error-taxonomy completeness. Any finding fails.
//!
//! `cargo xtask analyze <step>...` runs a subset. Any failing step makes
//! the driver exit nonzero; a summary table is printed either way.
//!
//! `cargo xtask analyze lint` on its own accepts lint-specific flags
//! (`--format json`, `--output PATH`) and exits 5 when there are
//! findings.

use std::env;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use xtask::lint;

/// Outcome of one analysis step.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Outcome {
    Passed,
    Failed,
    /// Tool unavailable in this environment; not a failure.
    Skipped,
}

/// One named step of the gate.
struct Step {
    name: &'static str,
    description: &'static str,
    run: fn(&Path) -> Outcome,
}

const STEPS: &[Step] = &[
    Step { name: "fmt", description: "cargo fmt --all --check", run: run_fmt },
    Step {
        name: "clippy",
        description: "clippy --workspace --all-targets -D warnings",
        run: run_clippy,
    },
    Step { name: "doc", description: "rustdoc -D warnings (workspace, no deps)", run: run_doc },
    Step {
        name: "features",
        description: "feature-matrix build check (strict-invariants on/off)",
        run: run_features,
    },
    Step { name: "loom", description: "loom model checking (--cfg loom)", run: run_loom },
    Step {
        name: "faults",
        description: "fault-injection suite (--features failpoints)",
        run: run_faults,
    },
    Step { name: "miri", description: "Miri on bear-sparse kernel unit tests", run: run_miri },
    Step {
        name: "lint",
        description: "bear-lint: repo rules L1-L6, any finding fails",
        run: run_lint,
    },
];

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let (command, selected) = match args.split_first() {
        Some((cmd, rest)) => (cmd.as_str(), rest),
        None => {
            print_usage();
            return ExitCode::FAILURE;
        }
    };
    if command != "analyze" {
        eprintln!("xtask: unknown command `{command}`\n");
        print_usage();
        return ExitCode::FAILURE;
    }
    // Lint-specific flags (and a bare `analyze lint`) take the dedicated
    // path with its own exit code (5 = findings) instead of the
    // summary-table loop.
    let (names, flags): (Vec<&String>, Vec<&String>) =
        selected.iter().partition(|a| !a.starts_with("--"));
    let lint_alone = names.len() == 1 && names[0] == "lint";
    if lint_alone {
        let flag_args: Vec<String> = flags.into_iter().cloned().collect();
        return run_lint_cli(&workspace_root(), &flag_args);
    }
    if !flags.is_empty() {
        eprintln!("xtask: flags are only accepted by `analyze lint`\n");
        print_usage();
        return ExitCode::from(lint::EXIT_USAGE);
    }

    for name in selected {
        if !STEPS.iter().any(|s| s.name == name) {
            eprintln!("xtask: unknown analyze step `{name}`\n");
            print_usage();
            return ExitCode::FAILURE;
        }
    }

    let root = workspace_root();
    let mut results: Vec<(&'static str, Outcome)> = Vec::new();
    for step in STEPS {
        if !selected.is_empty() && !selected.iter().any(|n| n == step.name) {
            continue;
        }
        eprintln!("\n=== xtask analyze: {} — {} ===", step.name, step.description);
        results.push((step.name, (step.run)(&root)));
    }

    eprintln!("\n=== xtask analyze: summary ===");
    for (name, outcome) in &results {
        let tag = match outcome {
            Outcome::Passed => "PASS",
            Outcome::Failed => "FAIL",
            Outcome::Skipped => "SKIP",
        };
        eprintln!("  {tag}  {name}");
    }
    if results.iter().any(|(_, o)| *o == Outcome::Failed) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn print_usage() {
    eprintln!("usage: cargo xtask analyze [step...]\n\nsteps:");
    for step in STEPS {
        eprintln!("  {:<10} {}", step.name, step.description);
    }
    eprintln!(
        "\nlint flags (only with `analyze lint`):\n  \
         --format text|json  report format (default text)\n  \
         --output PATH       write the report to PATH instead of stdout\n\
         lint exit code: 5 = findings"
    );
}

/// Dedicated `analyze lint` entry point with lint-specific flags and
/// exit codes.
fn run_lint_cli(root: &Path, flag_args: &[String]) -> ExitCode {
    let opts = match lint::LintOptions::parse(flag_args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("xtask: {msg}\n");
            print_usage();
            return ExitCode::from(lint::EXIT_USAGE);
        }
    };
    let config = lint::LintConfig::workspace(root);
    match lint::check(&config, &opts) {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("xtask: lint failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The umbrella-mode lint step: text mode, any finding fails.
fn run_lint(root: &Path) -> Outcome {
    let opts = lint::LintOptions { format: lint::Format::Text, output: None };
    let config = lint::LintConfig::workspace(root);
    match lint::check(&config, &opts) {
        Ok(0) => Outcome::Passed,
        Ok(_) => Outcome::Failed,
        Err(e) => {
            eprintln!("xtask: lint failed: {e}");
            Outcome::Failed
        }
    }
}

/// The workspace root, located from this crate's manifest dir
/// (`crates/xtask` → two levels up).
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().and_then(Path::parent).expect("crates/xtask has a workspace root").to_owned()
}

/// Runs `cargo` with the given args (and extra env) at the workspace
/// root, mapping process success to an [`Outcome`].
fn cargo(root: &Path, args: &[&str], envs: &[(&str, &str)]) -> Outcome {
    let mut cmd = Command::new(env::var_os("CARGO").unwrap_or_else(|| "cargo".into()));
    cmd.current_dir(root).args(args);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    eprintln!("$ cargo {}", args.join(" "));
    match cmd.status() {
        Ok(status) if status.success() => Outcome::Passed,
        Ok(_) => Outcome::Failed,
        Err(e) => {
            eprintln!("xtask: failed to spawn cargo: {e}");
            Outcome::Failed
        }
    }
}

fn run_fmt(root: &Path) -> Outcome {
    cargo(root, &["fmt", "--all", "--check"], &[])
}

fn run_clippy(root: &Path) -> Outcome {
    // `-D warnings` promotes every `warn` in `[workspace.lints]`
    // (missing_docs, dbg_macro, ...) to a hard error at the gate.
    cargo(root, &["clippy", "--workspace", "--all-targets", "--", "-D", "warnings"], &[])
}

fn run_doc(root: &Path) -> Outcome {
    cargo(root, &["doc", "--workspace", "--no-deps", "--quiet"], &[("RUSTDOCFLAGS", "-D warnings")])
}

fn run_features(root: &Path) -> Outcome {
    // Every cell of the feature matrix must at least build: the
    // `strict-invariants` audit hooks (bear-sparse, forwarded by
    // bear-core) on and off, plus no-default-features.
    let cells: &[&[&str]] = &[
        &["check", "--workspace", "--all-targets"],
        &["check", "-p", "bear-sparse", "--all-targets", "--features", "strict-invariants"],
        &["check", "-p", "bear-core", "--all-targets", "--features", "strict-invariants"],
        &["check", "-p", "bear-sparse", "--no-default-features"],
    ];
    for cell in cells {
        if cargo(root, cell, &[]) == Outcome::Failed {
            return Outcome::Failed;
        }
    }
    Outcome::Passed
}

fn run_loom(root: &Path) -> Outcome {
    // Bounded exploration keeps CI time predictable; override with
    // LOOM_MAX_PREEMPTIONS / LOOM_MAX_ITERATIONS in the environment.
    let preemptions = env::var("LOOM_MAX_PREEMPTIONS").unwrap_or_else(|_| "3".to_string());
    cargo(
        root,
        &["test", "-p", "bear-core", "--test", "loom_engine", "--release"],
        &[("RUSTFLAGS", "--cfg loom"), ("LOOM_MAX_PREEMPTIONS", &preemptions)],
    )
}

fn run_faults(root: &Path) -> Outcome {
    // Deterministic fault injection: every named failpoint class (corrupt
    // load, overload, worker panic, slow worker, expired deadline) must
    // map to a typed error or a degraded answer — never a hang or abort.
    // The `failpoints` feature also alters the compiled serving path, so
    // the regular engine suites are re-run under it to prove the sites
    // are behavior-neutral when disarmed.
    let cells: &[&[&str]] = &[
        &["test", "-p", "bear-core", "--test", "fault_injection", "--features", "failpoints"],
        &["test", "-p", "bear-core", "--lib", "--features", "failpoints", "engine::"],
    ];
    for cell in cells {
        if cargo(root, cell, &[]) == Outcome::Failed {
            return Outcome::Failed;
        }
    }
    Outcome::Passed
}

fn run_miri(root: &Path) -> Outcome {
    // Miri needs a nightly component that offline dev containers may not
    // have; probe first and skip (not fail) when absent. CI installs it.
    let probe =
        Command::new("cargo").current_dir(root).args(["+nightly", "miri", "--version"]).output();
    let available = matches!(probe, Ok(ref out) if out.status.success());
    if !available {
        eprintln!("xtask: `cargo +nightly miri` unavailable; skipping (CI runs this step)");
        return Outcome::Skipped;
    }
    // Scoped to the sparse kernel unit tests: index arithmetic and
    // in-place permutation code where UB would hide. MIRIFLAGS comes
    // from the environment (CI sets seed/isolation policy). Invoked via
    // the `cargo` on PATH (the rustup shim) — `$CARGO` resolves to the
    // stable binary, which cannot dispatch `+nightly`.
    let args = [
        "+nightly",
        "miri",
        "test",
        "-p",
        "bear-sparse",
        "--lib",
        "--",
        "csr::",
        "csc::",
        "perm::",
        "validate::",
    ];
    eprintln!("$ cargo {}", args.join(" "));
    match Command::new("cargo").current_dir(root).args(args).status() {
        Ok(status) if status.success() => Outcome::Passed,
        Ok(_) => Outcome::Failed,
        Err(e) => {
            eprintln!("xtask: failed to spawn cargo: {e}");
            Outcome::Failed
        }
    }
}
