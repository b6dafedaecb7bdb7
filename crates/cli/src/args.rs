//! Minimal `--key value` argument parsing.

use std::collections::HashMap;

/// Parsed `--key value` arguments.
#[derive(Debug, Default)]
pub struct Args {
    values: HashMap<String, String>,
    /// The flags the subcommand reads; every other flag is refused.
    known: Vec<&'static str>,
}

impl Args {
    /// Parse a flat list of `--key value` pairs, refusing any flag not in
    /// `known` — a misspelled or retired flag is an error, never a silent
    /// default.
    pub fn parse(raw: &[String], known: Vec<&'static str>) -> Result<Self, String> {
        let mut values = HashMap::new();
        let mut iter = raw.iter();
        while let Some(key) = iter.next() {
            let Some(name) = key.strip_prefix("--") else {
                return Err(format!("expected --flag, got '{key}'"));
            };
            if !known.contains(&name) {
                return Err(format!("unknown flag --{name}"));
            }
            let Some(value) = iter.next() else {
                return Err(format!("flag --{name} needs a value"));
            };
            if values.insert(name.to_owned(), value.clone()).is_some() {
                return Err(format!("flag --{name} given twice"));
            }
        }
        Ok(Self { values, known })
    }

    /// The raw value of `name`, which the subcommand must have declared.
    fn get(&self, name: &str) -> Option<&String> {
        debug_assert!(
            self.known.contains(&name),
            "--{name} is read but missing from the subcommand's USAGE entry"
        );
        self.values.get(name)
    }

    /// A required string argument.
    pub fn required(&self, name: &str) -> Result<&str, String> {
        self.get(name)
            .map(String::as_str)
            .ok_or_else(|| format!("missing required flag --{name}"))
    }

    /// An optional string argument.
    pub fn optional(&self, name: &str) -> Option<&str> {
        self.get(name).map(String::as_str)
    }

    /// A parsed argument with a default.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("flag --{name}: cannot parse '{raw}'")),
        }
    }

    /// A required parsed argument.
    pub fn get_required<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        let raw = self.required(name)?;
        raw.parse()
            .map_err(|_| format!("flag --{name}: cannot parse '{raw}'"))
    }

    /// An optional parsed argument: `None` when absent, an error when
    /// present but unparsable.
    pub fn get_optional<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.get(name) {
            None => Ok(None),
            Some(raw) => raw
                .parse()
                .map(Some)
                .map_err(|_| format!("flag --{name}: cannot parse '{raw}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KNOWN: &[&str] = &["users", "out", "topics", "absent", "a", "n"];

    fn parse(raw: &[&str]) -> Result<Args, String> {
        let raw: Vec<String> = raw.iter().map(|s| (*s).to_owned()).collect();
        Args::parse(&raw, KNOWN.to_vec())
    }

    #[test]
    fn parses_key_value_pairs() {
        let args = parse(&["--users", "300", "--out", "w.json"]).unwrap();
        assert_eq!(args.required("out").unwrap(), "w.json");
        assert_eq!(args.get_or("users", 0u32).unwrap(), 300);
        assert_eq!(args.get_or("topics", 7usize).unwrap(), 7);
        assert!(args.optional("absent").is_none());
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse(&["users", "300"]).is_err());
        assert!(parse(&["--users"]).is_err());
        assert!(parse(&["--a", "1", "--a", "2"]).is_err());
    }

    #[test]
    fn rejects_unknown_flags() {
        let err = parse(&["--users", "3", "--topcis", "8"]).unwrap_err();
        assert_eq!(err, "unknown flag --topcis");
        // Refused before its missing value is noticed.
        assert_eq!(parse(&["--usres"]).unwrap_err(), "unknown flag --usres");
    }

    #[test]
    fn reports_missing_and_unparsable() {
        let args = parse(&["--n", "abc"]).unwrap();
        assert!(args.required("out").is_err());
        assert!(args.get_or("n", 1u32).is_err());
        assert!(args.get_required::<u32>("n").is_err());
        assert!(args.get_optional::<u32>("n").is_err());
        assert_eq!(args.get_optional::<u32>("absent").unwrap(), None);
    }
}
