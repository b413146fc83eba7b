//! Tiny flag parser for the figure binaries (no external CLI crate).
//!
//! Supported conventions: `--flag value` and `--flag` (boolean).

use std::collections::HashMap;

/// Parsed command-line arguments.
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: HashMap<String, String>,
    switches: Vec<String>,
}

impl Args {
    /// Parses `std::env::args()` (skipping the binary name).
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// Parses an explicit iterator of tokens.
    pub fn parse(tokens: impl Iterator<Item = String>) -> Self {
        let mut args = Args::default();
        let mut tokens = tokens.peekable();
        while let Some(tok) = tokens.next() {
            if let Some(name) = tok.strip_prefix("--") {
                match tokens.peek() {
                    Some(next) if !next.starts_with("--") => {
                        let value = tokens.next().unwrap();
                        args.values.insert(name.to_string(), value);
                    }
                    _ => args.switches.push(name.to_string()),
                }
            }
        }
        args
    }

    /// String value of `--name`. Accepts the name with or without the
    /// leading dashes — `durability_matrix` looks flags up as
    /// `"--dataset"` while the parser stores them stripped, and a lookup
    /// that missed would silently ignore the flag.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name.trim_start_matches('-')).map(|s| s.as_str())
    }

    /// Parsed value of `--name`, falling back to `default`.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.get(name).and_then(|s| s.parse().ok()).unwrap_or(default)
    }

    /// Whether the boolean switch `--name` was passed.
    pub fn has(&self, name: &str) -> bool {
        let name = name.trim_start_matches('-');
        self.switches.iter().any(|s| s == name) || self.values.contains_key(name)
    }
}

/// Shared experiment options parsed from the common flags:
/// `--datasets a,b,c`, `--seeds N`, `--budget-mb N`, `--json PATH`,
/// `--full` (use the full-size datasets instead of the small suite).
#[derive(Debug, Clone)]
pub struct CommonOpts {
    /// Dataset names to run (already resolved against the registry).
    pub datasets: Vec<String>,
    /// Number of query seeds to average over.
    pub num_seeds: usize,
    /// Memory budget in bytes.
    pub budget_bytes: usize,
    /// Optional JSON output path.
    pub json: Option<String>,
}

impl CommonOpts {
    /// Parses the common flags, with `default_datasets` when `--datasets`
    /// is absent.
    pub fn from_args(args: &Args, default_datasets: &[&str]) -> Self {
        let datasets = match args.get("datasets") {
            Some(list) => list.split(',').map(|s| s.trim().to_string()).collect(),
            None => default_datasets.iter().map(|s| s.to_string()).collect(),
        };
        CommonOpts {
            datasets,
            num_seeds: args.get_or("seeds", 20),
            budget_bytes: args
                .get_or("budget-mb", crate::params::DEFAULT_BUDGET_BYTES / (1024 * 1024))
                * 1024
                * 1024,
            json: args.get("json").map(|s| s.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_values_and_switches() {
        let a = parse(&["--seeds", "5", "--json", "out.json", "--full"]);
        assert_eq!(a.get("seeds"), Some("5"));
        assert_eq!(a.get_or("seeds", 0usize), 5);
        assert!(a.has("full"));
        assert!(!a.has("missing"));
    }

    /// Regression: the figure binaries look flags up with the dashes
    /// still attached (`get_or("--reps", ...)`); both spellings must
    /// resolve, or those flags are silently ignored.
    #[test]
    fn dashed_lookup_spelling_resolves() {
        let a = parse(&["--reps", "7", "--full"]);
        assert_eq!(a.get_or("--reps", 0usize), 7);
        assert_eq!(a.get_or("reps", 0usize), 7);
        assert!(a.has("--full"));
    }

    #[test]
    fn common_opts_defaults() {
        let a = parse(&[]);
        let o = CommonOpts::from_args(&a, &["x", "y"]);
        assert_eq!(o.datasets, vec!["x", "y"]);
        assert_eq!(o.num_seeds, 20);
        assert!(o.json.is_none());
    }

    #[test]
    fn common_opts_overrides() {
        let a = parse(&["--datasets", "a, b", "--seeds", "3", "--budget-mb", "1"]);
        let o = CommonOpts::from_args(&a, &["x"]);
        assert_eq!(o.datasets, vec!["a", "b"]);
        assert_eq!(o.num_seeds, 3);
        assert_eq!(o.budget_bytes, 1024 * 1024);
    }
}
