//! A small dependency-free argument parser for the CLI.

use std::collections::BTreeMap;
use std::fmt;

/// Parsed command line: a subcommand plus `--key value` / `--flag`
/// options.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Parsed {
    /// The subcommand (first positional argument).
    pub command: String,
    /// `--key value` options.
    pub options: BTreeMap<String, String>,
    /// Bare `--flag` switches.
    pub flags: Vec<String>,
    /// Positional arguments after the subcommand (e.g. `trace summary
    /// FILE`), for commands whose [`Spec`] allows them.
    pub positionals: Vec<String>,
}

/// The arguments one subcommand accepts.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Bare `--flag` switches.
    pub flags: &'static [&'static str],
    /// `--key value` options.
    pub values: &'static [&'static str],
    /// Whether positional arguments are allowed (the command checks
    /// them itself).
    pub positionals: bool,
}

/// Argument errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArgError {
    /// No subcommand given.
    MissingCommand,
    /// Unexpected positional argument.
    UnexpectedPositional(String),
    /// An option the command does not accept.
    UnknownOption(String),
    /// A `--key value` option given without its value.
    MissingValue(String),
    /// A required option is absent.
    MissingOption(&'static str),
    /// An option has an unrecognized value.
    BadValue {
        /// The option name.
        option: &'static str,
        /// The offending value.
        value: String,
        /// Accepted values.
        expected: &'static str,
    },
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::MissingCommand => f.write_str("no subcommand given (try 'help')"),
            ArgError::UnexpectedPositional(v) => write!(f, "unexpected argument '{v}'"),
            ArgError::UnknownOption(k) => write!(f, "unknown option --{k} (see 'help')"),
            ArgError::MissingValue(k) => write!(f, "option --{k} needs a value"),
            ArgError::MissingOption(k) => write!(f, "required option --{k} missing"),
            ArgError::BadValue { option, value, expected } => {
                write!(f, "--{option} got '{value}', expected one of: {expected}")
            }
        }
    }
}

impl std::error::Error for ArgError {}

/// Parses `args` (without the program name) against the [`Spec`] of the
/// subcommand, its first element: every `--key` must be one of the
/// spec's flags or value options, a value option must be followed by a
/// value, and positionals are collected in order when the spec allows
/// them.
///
/// # Errors
///
/// [`ArgError`] on malformed input.
pub fn parse<I, S>(args: I, spec: Spec) -> Result<Parsed, ArgError>
where
    I: IntoIterator<Item = S>,
    S: Into<String>,
{
    let mut iter = args.into_iter().map(Into::into);
    let command = iter.next().ok_or(ArgError::MissingCommand)?;
    let mut parsed = Parsed { command, ..Default::default() };
    while let Some(arg) = iter.next() {
        let Some(key) = arg.strip_prefix("--") else {
            if !spec.positionals {
                return Err(ArgError::UnexpectedPositional(arg));
            }
            parsed.positionals.push(arg);
            continue;
        };
        if spec.flags.contains(&key) {
            parsed.flags.push(key.to_owned());
        } else if spec.values.contains(&key) {
            match iter.next() {
                Some(value) if !value.starts_with("--") => {
                    parsed.options.insert(key.to_owned(), value);
                }
                _ => return Err(ArgError::MissingValue(key.to_owned())),
            }
        } else {
            return Err(ArgError::UnknownOption(key.to_owned()));
        }
    }
    Ok(parsed)
}

impl Parsed {
    /// A required `--key value` option.
    ///
    /// # Errors
    ///
    /// [`ArgError::MissingOption`] when absent.
    pub fn require(&self, key: &'static str) -> Result<&str, ArgError> {
        self.options
            .get(key)
            .map(String::as_str)
            .ok_or(ArgError::MissingOption(key))
    }

    /// An optional `--key value` option with a default.
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.options.get(key).map(String::as_str).unwrap_or(default)
    }

    /// Whether a bare `--flag` was given.
    pub fn has_flag(&self, flag: &str) -> bool {
        self.flags.iter().any(|f| f == flag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: Spec =
        Spec { flags: &["json"], values: &["use-case", "version"], positionals: false };

    #[test]
    fn parses_command_options_and_flags() {
        let p = parse(["inject", "--use-case", "XSA-182-test", "--version", "4.13", "--json"], SPEC)
            .unwrap();
        assert_eq!(p.command, "inject");
        assert_eq!(p.require("use-case").unwrap(), "XSA-182-test");
        assert_eq!(p.get_or("version", "4.6"), "4.13");
        assert!(p.has_flag("json"));
        assert!(!p.has_flag("quiet"));
    }

    #[test]
    fn missing_command() {
        assert_eq!(parse(Vec::<String>::new(), SPEC).unwrap_err(), ArgError::MissingCommand);
    }

    #[test]
    fn positionals_collected_and_rejectable() {
        let trace = Spec { flags: &[], values: &["top"], positionals: true };
        let p = parse(["trace", "summary", "t.jsonl", "--top", "5"], trace).unwrap();
        assert_eq!(p.positionals, vec!["summary".to_owned(), "t.jsonl".to_owned()]);
        assert_eq!(p.get_or("top", "10"), "5");
        assert_eq!(
            parse(["run", "extra"], SPEC).unwrap_err(),
            ArgError::UnexpectedPositional("extra".into())
        );
    }

    #[test]
    fn trailing_option_is_flag() {
        let p = parse(["run", "--json"], SPEC).unwrap();
        assert!(p.has_flag("json"));
    }

    #[test]
    fn unknown_options_and_missing_values_are_errors() {
        assert_eq!(
            parse(["run", "--verison", "4.8"], SPEC).unwrap_err(),
            ArgError::UnknownOption("verison".into())
        );
        // A value option never degrades into a flag.
        assert_eq!(
            parse(["run", "--version"], SPEC).unwrap_err(),
            ArgError::MissingValue("version".into())
        );
        assert_eq!(
            parse(["run", "--version", "--json"], SPEC).unwrap_err(),
            ArgError::MissingValue("version".into())
        );
        assert!(ArgError::UnknownOption("x".into()).to_string().contains("--x"));
    }

    #[test]
    fn required_option_errors() {
        let p = parse(["inject"], SPEC).unwrap();
        assert_eq!(p.require("use-case").unwrap_err(), ArgError::MissingOption("use-case"));
    }

    #[test]
    fn error_display() {
        let e = ArgError::BadValue {
            option: "version",
            value: "9.9".into(),
            expected: "4.6, 4.8, 4.13",
        };
        assert!(e.to_string().contains("9.9"));
    }
}
