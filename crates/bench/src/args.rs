//! A tiny CLI argument parser for the experiment binaries (no external
//! dependency; `--key value` pairs and bare `--flags`).

use std::collections::{HashMap, HashSet};

/// Parsed command-line arguments.
pub struct Args {
    values: HashMap<String, String>,
    flags: HashSet<String>,
}

impl Args {
    /// Parse `std::env::args()`.
    pub fn parse() -> Self {
        Self::from_args(std::env::args().skip(1))
    }

    /// Parse an explicit iterator (testable).
    pub fn from_args(it: impl IntoIterator<Item = String>) -> Self {
        let mut values = HashMap::new();
        let mut flags = HashSet::new();
        let args: Vec<String> = it.into_iter().collect();
        let mut i = 0;
        while i < args.len() {
            let a = &args[i];
            if let Some(key) = a.strip_prefix("--") {
                if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                    values.insert(key.to_string(), args[i + 1].clone());
                    i += 2;
                } else {
                    flags.insert(key.to_string());
                    i += 1;
                }
            } else {
                i += 1; // ignore stray positionals
            }
        }
        Args { values, flags }
    }

    /// `--key value` lookup.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(|s| s.as_str())
    }

    /// `--key value` with a default.
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    /// Bare `--flag` lookup.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.contains(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::from_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn key_value_pairs() {
        let a = parse("--dataset hosp --tuples 500");
        assert_eq!(a.get("dataset"), Some("hosp"));
        assert_eq!(a.get("tuples"), Some("500"));
        assert_eq!(a.get_or("missing", "9"), "9");
    }

    #[test]
    fn flags_without_values() {
        let a = parse("--full --dataset dblp");
        assert!(a.flag("full"));
        assert!(!a.flag("absent"));
        assert_eq!(a.get("dataset"), Some("dblp"));
    }

    #[test]
    fn trailing_flag() {
        let a = parse("--dataset tpch --full");
        assert!(a.flag("full"));
        assert_eq!(a.get_or("dataset", "hosp"), "tpch");
    }
}
