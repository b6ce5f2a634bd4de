//! Minimal `--key value` argument parsing.

use std::collections::BTreeMap;
use std::fmt;

/// A CLI failure with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    msg: String,
}

impl CliError {
    /// Wrap a message.
    pub fn new(msg: impl Into<String>) -> Self {
        Self { msg: msg.into() }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl std::error::Error for CliError {}

/// One flag of a subcommand, declared once as `(name, placeholder)`:
/// [`Args::parse_known`] admits the name and `usage()` renders the synopsis
/// token. The placeholder is empty for a bare switch (`[--json]`), `<X>`
/// for a flag the subcommand fails without (`--function <NAME>`), and
/// otherwise the optional value (`[--epsilon E]`).
pub type Flag = (&'static str, &'static str);

/// Parsed `--key value` arguments; repeated keys accumulate. A flag
/// followed by another `--flag` (or by nothing) is boolean and stores
/// `"true"`.
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: BTreeMap<String, Vec<String>>,
}

impl Args {
    /// Parse an argument list of the form `--key value --key value …`.
    /// `--key` with no following value is a boolean flag set to `true`;
    /// negative numbers (`-0.5`) still parse as values.
    pub fn parse(argv: &[String]) -> Result<Self, CliError> {
        let mut values: BTreeMap<String, Vec<String>> = BTreeMap::new();
        let mut it = argv.iter().peekable();
        while let Some(token) = it.next() {
            let key = token
                .strip_prefix("--")
                .ok_or_else(|| CliError::new(format!("expected `--flag`, got `{token}`")))?;
            let value = match it.peek() {
                Some(next) if !next.starts_with("--") => {
                    it.next().expect("peeked").clone()
                }
                _ => "true".to_string(),
            };
            values.entry(key.to_string()).or_default().push(value);
        }
        Ok(Self { values })
    }

    /// [`Self::parse`], then reject the first flag in none of the `allowed`
    /// groups (the subcommand's own declarations plus any shared group),
    /// so a typo or a retired flag fails loudly instead of silently
    /// running something else.
    pub fn parse_known(argv: &[String], allowed: &[&[Flag]]) -> Result<Self, CliError> {
        let args = Self::parse(argv)?;
        let known = |key: &String| allowed.iter().copied().flatten().any(|flag| flag.0 == key);
        match args.values.keys().find(|key| !known(key)) {
            None => Ok(args),
            Some(key) => Err(CliError::new(format!(
                "unknown flag `--{key}` (see `automon help`)"
            ))),
        }
    }

    /// Boolean flag: present (or explicitly anything but `false`/`0`).
    pub fn flag(&self, key: &str) -> bool {
        self.get(key).is_some_and(|v| v != "false" && v != "0")
    }

    /// Last occurrence of a flag, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values
            .get(key)
            .and_then(|v| v.last())
            .map(String::as_str)
    }

    /// All occurrences of a repeatable flag.
    pub fn get_all(&self, key: &str) -> &[String] {
        self.values.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Required string flag.
    pub fn require(&self, key: &str) -> Result<&str, CliError> {
        self.get(key)
            .ok_or_else(|| CliError::new(format!("missing required flag `--{key}`")))
    }

    /// Optional numeric flag with a default.
    pub fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError> {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| CliError::new(format!("flag `--{key}`: invalid value `{raw}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_pairs_and_repeats() {
        let a = Args::parse(&sv(&["--x", "1", "--y", "two", "--x", "3"])).unwrap();
        assert_eq!(a.get("x"), Some("3"));
        assert_eq!(a.get_all("x"), &["1".to_string(), "3".to_string()]);
        assert_eq!(a.get("y"), Some("two"));
        assert_eq!(a.get("z"), None);
    }

    #[test]
    fn numeric_parsing_with_defaults() {
        let a = Args::parse(&sv(&["--eps", "0.25"])).unwrap();
        assert_eq!(a.num("eps", 1.0).unwrap(), 0.25);
        assert_eq!(a.num("missing", 7usize).unwrap(), 7);
        assert!(a.num::<usize>("eps", 0).is_err());
    }

    #[test]
    fn malformed_input_errors() {
        assert!(Args::parse(&sv(&["naked"])).is_err());
        let a = Args::parse(&[]).unwrap();
        assert!(a.require("anything").is_err());
    }

    #[test]
    fn unknown_and_retired_flags_are_named() {
        let allowed: &[&[Flag]] = &[&[("x", "X")], &[("json", "")]];
        assert!(Args::parse_known(&sv(&["--x", "1", "--json"]), allowed).is_ok());
        let err = Args::parse_known(&sv(&["--x", "1", "--bogus-flag", "7"]), allowed).unwrap_err();
        assert!(err.to_string().contains("unknown flag `--bogus-flag`"), "{err}");
        for retired in [
            "--decomp-cache",
            "--decomp-cache-capacity",
            "--decomp-cache-warm",
            "--parallelism",
            "--spectral-backend",
        ] {
            let err = Args::parse_known(&sv(&[retired, "2"]), allowed).unwrap_err();
            assert!(err.to_string().contains(&format!("unknown flag `{retired}`")), "{err}");
        }
    }

    #[test]
    fn boolean_flags() {
        let a = Args::parse(&sv(&["--json", "--eps", "0.5", "--quiet"])).unwrap();
        assert!(a.flag("json"));
        assert!(a.flag("quiet"));
        assert!(!a.flag("missing"));
        assert_eq!(a.num("eps", 0.0).unwrap(), 0.5);
        let b = Args::parse(&sv(&["--json", "false", "--neg", "-0.5"])).unwrap();
        assert!(!b.flag("json"));
        assert_eq!(b.num("neg", 0.0).unwrap(), -0.5);
    }
}
