//! Tiny flag parser: `--key value` pairs and bare `--switch`es, each
//! checked against the options the command accepts.

use std::collections::HashMap;

/// Parsed arguments: `--key value` options and boolean `--switch`es.
pub struct Args {
    opts: HashMap<String, String>,
    switches: Vec<String>,
}

/// Known boolean switches (take no value).
const SWITCHES: &[&str] = &["--no-bundling", "--verify", "--summary", "--shutdown"];

impl Args {
    /// Parses the argv slice of `cmg <cmd>`. `accepted` lists the option
    /// and switch names (without dashes) the command reads.
    ///
    /// Returns `Err` with a message on malformed input (missing value)
    /// and on any option the command does not accept.
    pub fn parse(cmd: &str, argv: &[String], accepted: &[&[&str]]) -> Result<Args, String> {
        let mut opts = HashMap::new();
        let mut switches = Vec::new();
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            if !a.starts_with('-') {
                return Err(format!("unexpected positional argument: {a}"));
            }
            let key = a.trim_start_matches('-');
            if !accepted.iter().any(|names| names.contains(&key)) {
                return Err(format!("unknown option {a} for cmg {cmd}"));
            }
            if SWITCHES.contains(&a.as_str()) {
                switches.push(a.clone());
                continue;
            }
            let value = it
                .next()
                .ok_or_else(|| format!("missing value for {a}"))?
                .clone();
            opts.insert(key.to_string(), value);
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

    const ANY: &[&[&str]] = &[&["parts", "method", "no-bundling", "x"]];

    #[test]
    fn parses_options_and_switches() {
        let a = Args::parse("t", &argv("--parts 16 --no-bundling --method block"), ANY).unwrap();
        assert_eq!(a.get("parts"), Some("16"));
        assert_eq!(a.get_or("method", "x"), "block");
        assert!(a.has_switch("--no-bundling"));
        assert_eq!(a.num::<u32>("parts", 1).unwrap(), 16);
        assert_eq!(a.num::<u32>("absent", 7).unwrap(), 7);
    }

    #[test]
    fn rejects_missing_value_and_positional() {
        assert!(Args::parse("t", &argv("--parts"), ANY).is_err());
        assert!(Args::parse("t", &argv("stray"), ANY).is_err());
    }

    #[test]
    fn rejects_options_the_command_does_not_accept() {
        let refused = |s: &str| Args::parse("match", &argv(s), ANY).err();
        let msg = Some("unknown option --engin for cmg match".to_string());
        assert_eq!(refused("--parts 2 --engin threaded"), msg);
        // Refused before a value is looked for, and switches alike.
        assert_eq!(refused("--engin"), msg);
        assert_eq!(
            refused("--verify"),
            Some("unknown option --verify for cmg match".to_string())
        );
    }

    #[test]
    fn required_reports_missing() {
        let a = Args::parse("t", &argv("--x 1"), ANY).unwrap();
        assert!(a.required("input").is_err());
        assert_eq!(a.required("x").unwrap(), "1");
    }
}
