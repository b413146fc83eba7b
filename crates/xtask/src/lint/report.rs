//! Finding representation and rendering (text and `--format json`).

use super::source::SourceFile;

/// One lint finding, anchored to a `file:line` span and carrying a
/// content fingerprint that identifies it across line drift.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Path relative to the lint root (`/` separators).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule id (`L1`..`L6`).
    pub rule: String,
    /// Short category slug within the rule (e.g. `unwrap`, `slice-index`).
    pub category: String,
    /// Human-readable description of the violation.
    pub message: String,
    /// Stable identity content: the trimmed source line (or a synthetic
    /// key for structural findings).
    pub fingerprint: String,
}

impl Finding {
    /// A finding fingerprinted by the trimmed text of its source line.
    pub fn new(
        rule: &str,
        category: &str,
        file: &SourceFile,
        line: usize,
        message: String,
    ) -> Finding {
        Finding {
            file: file.rel_path.clone(),
            line,
            rule: rule.to_string(),
            category: category.to_string(),
            message,
            fingerprint: file.fingerprint(line),
        }
    }

    /// A finding with an explicit (synthetic) fingerprint, for findings
    /// not tied to one line's text (e.g. a missing match arm).
    pub fn with_fingerprint(
        rule: &str,
        category: &str,
        rel_path: &str,
        line: usize,
        message: String,
        fingerprint: String,
    ) -> Finding {
        Finding {
            file: rel_path.to_string(),
            line,
            rule: rule.to_string(),
            category: category.to_string(),
            message,
            fingerprint,
        }
    }
}

/// Renders findings as one `file:line: [rule/category] message` row each.
pub fn render_text(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&format!(
            "{}:{}: [{}/{}] {}\n",
            f.file, f.line, f.rule, f.category, f.message
        ));
    }
    out
}

/// Renders the report as JSON (no external dependencies): every finding
/// and a summary count.
pub fn render_json(findings: &[Finding]) -> String {
    let mut out = String::from("{\n  \"findings\": [\n");
    for (i, f) in findings.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"rule\": {}, \"category\": {}, \"file\": {}, \"line\": {}, \"message\": {}, \"fingerprint\": {}}}{}\n",
            json_str(&f.rule),
            json_str(&f.category),
            json_str(&f.file),
            f.line,
            json_str(&f.message),
            json_str(&f.fingerprint),
            if i + 1 < findings.len() { "," } else { "" },
        ));
    }
    out.push_str(&format!("  ],\n  \"summary\": {{\"total\": {}}}\n}}\n", findings.len()));
    out
}

/// Escapes a string as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
