//! Shared `--flag value` parsing for the `lintime` subcommands that take
//! flags (`simulate`, `stream`, `serve`, `trace`, `fault-sweep`, `all`).
//!
//! They all take the same flavor of flags — `--ops 50000 --shards 8
//! --rate 1.5` — and before this module each parsed them ad hoc, with
//! failure modes ranging from a generic string error to a panic deep inside
//! `parse()`. [`FlagSet`] centralizes the grammar and returns structured
//! [`FlagError`]s that say which flag failed, what value it got, and what
//! was expected; a typo'd flag name is caught by [`FlagSet::finish`]
//! (anything never read by the command is rejected with a list), instead of
//! being silently ignored.

use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// Why flag parsing failed. Every variant names the offending input —
/// commands surface these verbatim, so the message must stand on its own.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FlagError {
    /// A positional argument where only `--flag [value]` is accepted.
    UnexpectedArg(String),
    /// A flag's value failed to parse or validate.
    BadValue {
        /// Flag name, without the leading `--`.
        flag: String,
        /// The raw value supplied.
        value: String,
        /// What the flag expects, e.g. `"an integer"`.
        expected: &'static str,
    },
    /// Flags that no accessor consumed — almost always typos.
    UnknownFlags(Vec<String>),
    /// A flag given more than once (name without the leading `--`).
    RepeatedFlag(String),
}

impl fmt::Display for FlagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlagError::UnexpectedArg(a) => {
                write!(f, "unexpected argument {a:?} (flags are --name [value])")
            }
            FlagError::BadValue { flag, value, expected } => {
                write!(f, "--{flag} expects {expected}, got {value:?}")
            }
            FlagError::UnknownFlags(names) => {
                let list: Vec<String> = names.iter().map(|n| format!("--{n}")).collect();
                write!(f, "unknown flag(s): {}", list.join(", "))
            }
            FlagError::RepeatedFlag(name) => write!(f, "--{name} given more than once"),
        }
    }
}

impl From<FlagError> for String {
    fn from(e: FlagError) -> String {
        e.to_string()
    }
}

/// Parsed `--flag value` pairs with typed, validated accessors.
///
/// Accessors take `&mut self` so the set can track which flags were
/// consumed; call [`FlagSet::finish`] after the last accessor to reject
/// leftovers. A flag without a following value (or followed by another
/// `--flag`) is given but empty: true for [`FlagSet::bool_flag`], an error
/// for every accessor that needs a value.
#[derive(Debug)]
pub struct FlagSet {
    flags: HashMap<String, String>,
    consumed: BTreeSet<String>,
}

impl FlagSet {
    /// Parse raw arguments (everything after the subcommand name).
    pub fn parse(args: &[String]) -> Result<FlagSet, FlagError> {
        let mut flags = HashMap::new();
        let mut it = args.iter().peekable();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                return Err(FlagError::UnexpectedArg(a.clone()));
            };
            let value = if it.peek().is_some_and(|v| !v.starts_with("--")) {
                it.next().unwrap().clone()
            } else {
                String::new() // boolean flag
            };
            if flags.insert(key.to_string(), value).is_some() {
                return Err(FlagError::RepeatedFlag(key.to_string()));
            }
        }
        Ok(FlagSet { flags, consumed: BTreeSet::new() })
    }

    /// The flag's raw value, or `default` when absent.
    pub fn str_flag(&mut self, key: &str, default: &str) -> Result<String, FlagError> {
        let value = |s: &str| (!s.is_empty()).then(|| s.to_string());
        self.typed(key, default.to_string(), "a value", value)
    }

    /// True iff the flag was given, bare: a value after a boolean flag is
    /// rejected, not dropped.
    pub fn bool_flag(&mut self, key: &str) -> Result<bool, FlagError> {
        self.typed(key, false, "no value", |s| s.is_empty().then_some(true))
    }

    /// A signed integer flag.
    pub fn i64_flag(&mut self, key: &str, default: i64) -> Result<i64, FlagError> {
        self.typed(key, default, "an integer", |s| s.parse().ok())
    }

    /// A non-negative size flag.
    pub fn usize_flag(&mut self, key: &str, default: usize) -> Result<usize, FlagError> {
        self.typed(key, default, "a non-negative integer", |s| s.parse().ok())
    }

    /// A positive size flag: zero is rejected, not read as a default.
    pub fn positive_flag(&mut self, key: &str, default: usize) -> Result<usize, FlagError> {
        self.typed(key, default, "a positive integer", |s| s.parse().ok().filter(|&n| n > 0))
    }

    /// A finite floating-point flag.
    pub fn f64_flag(&mut self, key: &str, default: f64) -> Result<f64, FlagError> {
        self.typed(key, default, "a number", |s| s.parse().ok().filter(|x: &f64| x.is_finite()))
    }

    /// Reject every flag no accessor consumed. Call this last.
    pub fn finish(self) -> Result<(), FlagError> {
        let unknown: Vec<String> =
            self.flags.keys().filter(|k| !self.consumed.contains(*k)).cloned().collect();
        if unknown.is_empty() {
            Ok(())
        } else {
            let mut sorted = unknown;
            sorted.sort();
            Err(FlagError::UnknownFlags(sorted))
        }
    }

    fn typed<T>(
        &mut self,
        key: &str,
        default: T,
        expected: &'static str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Result<T, FlagError> {
        self.consumed.insert(key.to_string());
        match self.flags.get(key) {
            None => Ok(default),
            Some(raw) => parse(raw).ok_or_else(|| FlagError::BadValue {
                flag: key.to_string(),
                value: raw.clone(),
                expected,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn typed_accessors_parse_and_default() {
        let mut f = FlagSet::parse(&args(&["--ops", "500", "--rate", "1.5", "--adt", "queue"]))
            .expect("parse");
        assert_eq!(f.usize_flag("ops", 10).unwrap(), 500);
        assert_eq!(f.usize_flag("shards", 8).unwrap(), 8, "absent flag takes the default");
        assert_eq!(f.f64_flag("rate", 1.0).unwrap(), 1.5);
        assert_eq!(f.str_flag("adt", "register").unwrap(), "queue");
        assert!(f.finish().is_ok());
    }

    #[test]
    fn boolean_flags_read_bare_or_before_another_flag() {
        let mut f = FlagSet::parse(&args(&["--timeline", "--ops", "3"])).expect("parse");
        assert!(f.bool_flag("timeline").unwrap());
        assert!(!f.bool_flag("stream-check").unwrap());
        assert_eq!(f.usize_flag("ops", 0).unwrap(), 3);
        assert!(f.finish().is_ok());
    }

    #[test]
    fn bad_values_are_structured_not_panics() {
        let mut f = FlagSet::parse(&args(&["--ops", "many"])).expect("parse");
        let err = f.usize_flag("ops", 10).unwrap_err();
        assert_eq!(
            err,
            FlagError::BadValue {
                flag: "ops".into(),
                value: "many".into(),
                expected: "a non-negative integer"
            }
        );
        assert!(err.to_string().contains("--ops"), "{err}");

        let mut f = FlagSet::parse(&args(&["--rate", "NaN"])).expect("parse");
        assert!(f.f64_flag("rate", 1.0).is_err(), "NaN must not count as a number");
    }

    #[test]
    fn positive_flags_reject_zero() {
        let mut f = FlagSet::parse(&args(&["--seeds", "0"])).expect("parse");
        let err = f.positive_flag("seeds", 8).unwrap_err();
        assert_eq!(err.to_string(), "--seeds expects a positive integer, got \"0\"");
        let mut f = FlagSet::parse(&args(&["--seeds", "3"])).expect("parse");
        assert_eq!(f.positive_flag("seeds", 8).unwrap(), 3);
        assert_eq!(f.positive_flag("rounds", 8).unwrap(), 8, "absent flag takes the default");
    }

    #[test]
    fn value_flags_given_bare_are_rejected() {
        let mut f = FlagSet::parse(&args(&["--metrics-out", "--ops"])).expect("parse");
        let err = f.str_flag("metrics-out", "").unwrap_err();
        assert_eq!(err.to_string(), "--metrics-out expects a value, got \"\"");
        assert!(f.usize_flag("ops", 10).is_err(), "a bare number flag is not its default");
    }

    #[test]
    fn boolean_flags_given_a_value_are_rejected() {
        let mut f = FlagSet::parse(&args(&["--matrix-only", "5"])).expect("parse");
        let err = f.bool_flag("matrix-only").unwrap_err();
        assert_eq!(err.to_string(), "--matrix-only expects no value, got \"5\"");
    }

    #[test]
    fn positional_arguments_are_rejected() {
        let err = FlagSet::parse(&args(&["oops"])).unwrap_err();
        assert!(matches!(err, FlagError::UnexpectedArg(a) if a == "oops"));
    }

    #[test]
    fn unconsumed_flags_fail_finish() {
        let mut f = FlagSet::parse(&args(&["--ops", "5", "--opps", "6"])).expect("parse");
        let _ = f.usize_flag("ops", 0);
        let err = f.finish().unwrap_err();
        assert_eq!(err, FlagError::UnknownFlags(vec!["opps".into()]));
        assert!(err.to_string().contains("--opps"), "{err}");
    }

    #[test]
    fn repeated_flags_are_rejected_not_overwritten() {
        let err = FlagSet::parse(&args(&["--ops", "5", "--ops", "6"])).unwrap_err();
        assert_eq!(err, FlagError::RepeatedFlag("ops".into()));
        assert!(err.to_string().contains("--ops"), "{err}");
        // Bare boolean flags count too.
        let err = FlagSet::parse(&args(&["--timeline", "--timeline"])).unwrap_err();
        assert_eq!(err, FlagError::RepeatedFlag("timeline".into()));
    }
}
