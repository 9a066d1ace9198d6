//! Tiny flag parser: `--key value` pairs and bare `--switch`es.

use std::collections::HashMap;

/// Parsed arguments: `--key value` options and boolean `--switch`es.
pub struct Args {
    opts: HashMap<String, String>,
    switches: Vec<String>,
}

/// Known boolean switches (take no value).
const SWITCHES: &[&str] = &[
    "--no-bundling",
    "--verbose",
    "--verify",
    "--summary",
    "--shutdown",
];

impl Args {
    /// Parses an argv slice.
    ///
    /// Returns `Err` with a message on malformed input (missing value).
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut opts = HashMap::new();
        let mut switches = Vec::new();
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            if !a.starts_with('-') {
                return Err(format!("unexpected positional argument: {a}"));
            }
            if SWITCHES.contains(&a.as_str()) {
                switches.push(a.clone());
                continue;
            }
            let key = a.trim_start_matches('-').to_string();
            let value = it
                .next()
                .ok_or_else(|| format!("missing value for {a}"))?
                .clone();
            opts.insert(key, value);
        }
        Ok(Args { opts, switches })
    }

    /// String option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.opts.get(key).map(String::as_str)
    }

    /// String option with a default.
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    /// Required string option.
    pub fn required(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .ok_or_else(|| format!("missing required --{key}"))
    }

    /// Numeric option with a default.
    pub fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(s) => s.parse().map_err(|_| format!("bad value for --{key}: {s}")),
        }
    }

    /// Boolean switch presence.
    pub fn has_switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_options_and_switches() {
        let a = Args::parse(&argv("--parts 16 --no-bundling --method block")).unwrap();
        assert_eq!(a.get("parts"), Some("16"));
        assert_eq!(a.get_or("method", "x"), "block");
        assert!(a.has_switch("--no-bundling"));
        assert_eq!(a.num::<u32>("parts", 1).unwrap(), 16);
        assert_eq!(a.num::<u32>("absent", 7).unwrap(), 7);
    }

    #[test]
    fn rejects_missing_value_and_positional() {
        assert!(Args::parse(&argv("--parts")).is_err());
        assert!(Args::parse(&argv("stray")).is_err());
    }

    #[test]
    fn required_reports_missing() {
        let a = Args::parse(&argv("--x 1")).unwrap();
        assert!(a.required("input").is_err());
        assert_eq!(a.required("x").unwrap(), "1");
    }
}
