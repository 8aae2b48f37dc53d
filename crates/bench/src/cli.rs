//! The one argv parser of the experiment and serve binaries.
//!
//! A binary declares one table, a `&[Flag]`, listing exactly the flags it
//! reads. [`parse`] is a pure function from the argument list to [`Args`]
//! or a typed [`UsageError`]; so is [`Args::get`]. [`parse_env`] and
//! [`Args::check`] / [`Args::reject`] exit through one function, the one
//! place exit codes for bad input are decided: `--help` prints the usage
//! generated from the table and exits 0 before any work runs; an unknown
//! flag, a missing or unparsable value, a stray or missing operand, or a
//! value check of the binary's own prints the error and the usage to
//! stderr and exits 2. A value flag given twice keeps its last value; a
//! repeatable flag such as `--fault-rate` keeps every occurrence.
//!
//! # Examples
//!
//! ```
//! use cim_bench::cli::{self, Flag, UsageError};
//!
//! const FLAGS: &[Flag] = &[Flag::value("--x", "n", "extra PEs"), cli::JSON];
//! let argv = |s: &[&str]| s.iter().map(|a| a.to_string()).collect::<Vec<_>>();
//! let args = cli::parse(FLAGS, &argv(&["--x", "4", "--x", "5"])).unwrap();
//! assert_eq!(args.get::<usize>("--x"), Ok(Some(5)));
//! assert_eq!(
//!     cli::parse(FLAGS, &argv(&["--bogus"])).err(),
//!     Some(UsageError::UnknownFlag("--bogus".into()))
//! );
//! ```

use std::fmt::{self, Write as _};
use std::str::FromStr;

use crate::CommonArgs;

/// One entry of a binary's table: a flag, or — named in angle brackets,
/// like `<model>` — the positional operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flag {
    /// The flag as typed, e.g. `--jobs`, or the operand's name.
    pub name: &'static str,
    /// Placeholder of the flag's value in the usage; `None` for a switch
    /// or the operand.
    pub value: Option<&'static str>,
    /// One line of help.
    pub help: &'static str,
}

impl Flag {
    /// A flag that takes no value (or, named `<...>`, the operand).
    pub const fn switch(name: &'static str, help: &'static str) -> Self {
        Flag {
            name,
            value: None,
            help,
        }
    }

    /// A flag that takes the next argument as its value.
    pub const fn value(name: &'static str, placeholder: &'static str, help: &'static str) -> Self {
        Flag {
            name,
            value: Some(placeholder),
            help,
        }
    }

    fn is_operand(&self) -> bool {
        self.name.starts_with('<')
    }
}

/// `--jobs <N>`: worker lanes of the evaluation engine.
pub const JOBS: Flag = Flag::value("--jobs", "N", "worker lanes (default: one per CPU)");
/// `--json <path>`: export path of the binary's records.
pub const JSON: Flag = Flag::value("--json", "path", "also export the records as JSON");
/// `--cache-dir <path>`: persistent result store directory.
pub const CACHE_DIR: Flag = Flag::value("--cache-dir", "path", "persistent result store");
/// `--seed <S>`: seed of a stochastic binary.
pub const SEED: Flag = Flag::value("--seed", "S", "u64 seed (default 0)");
/// `--shard <i/n|merge>`: sweep sharding over a shared `--cache-dir`.
pub const SHARD: Flag = Flag::value("--shard", "i/n|merge", "run one slice, or merge the store");
/// `--resume`: continue a killed sweep.
pub const RESUME: Flag = Flag::switch("--resume", "continue a killed run from --cache-dir");
/// `--fault-seed <S>`: seed of the deterministic chaos plan.
pub const FAULT_SEED: Flag = Flag::value("--fault-seed", "S", "seed of the fault plan");
/// `--fault-rate <site=per_mille>`: one injection site (repeatable).
pub const FAULT_RATE: Flag = Flag::value("--fault-rate", "site=per_mille", "repeatable");
/// `--fault-delay-ms <MS>`: duration of an injected delay.
pub const FAULT_DELAY_MS: Flag = Flag::value("--fault-delay-ms", "MS", "injected job delay");
/// `<model>`: a zoo registry entry, matched ignoring case ([`zoo_model`]).
pub const MODEL: Flag = Flag::switch("<model>", "a zoo model, e.g. TinyYOLOv4 or VGG16");

const HELP: Flag = Flag::switch("--help", "print this help and exit");

/// Why an argument list was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UsageError {
    /// `--help` was given: print the usage and exit 0.
    Help,
    /// A flag that is not in the binary's table.
    UnknownFlag(String),
    /// A value flag was the last argument.
    MissingValue(&'static str),
    /// `(flag, value, reason)`: a value that does not parse, or that the
    /// binary does not accept.
    InvalidValue(&'static str, String, String),
    /// A positional argument the binary does not take.
    UnexpectedArgument(String),
    /// The operand is missing.
    MissingOperand(&'static str),
}

impl UsageError {
    /// A rejected `value` of `flag`.
    pub(crate) fn invalid(flag: &'static str, value: &str, reason: impl Into<String>) -> Self {
        UsageError::InvalidValue(flag, value.to_string(), reason.into())
    }
}

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UsageError::Help => write!(f, "--help requested"),
            UsageError::UnknownFlag(flag) => write!(f, "unknown flag `{flag}`"),
            UsageError::MissingValue(flag) => write!(f, "{flag} takes a value"),
            UsageError::InvalidValue(flag, value, reason) => {
                write!(f, "invalid {flag} `{value}`: {reason}")
            }
            UsageError::UnexpectedArgument(arg) => write!(f, "unexpected argument `{arg}`"),
            UsageError::MissingOperand(name) => write!(f, "missing {name}"),
        }
    }
}

impl std::error::Error for UsageError {}

/// A parsed argument list: the flags given, in order, and the operand.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Args {
    flags: &'static [Flag],
    given: Vec<(&'static str, Option<String>)>,
    operand: Option<String>,
}

impl Args {
    /// Whether `flag` was given.
    pub fn switch(&self, flag: &str) -> bool {
        self.given.iter().any(|(name, _)| *name == flag)
    }

    /// The last value given for `flag`.
    pub fn value(&self, flag: &'static str) -> Option<&str> {
        self.values(flag).last()
    }

    /// Every value given for `flag`, in order.
    pub(crate) fn values(&self, flag: &'static str) -> impl Iterator<Item = &str> {
        let given = self.given.iter().filter(move |(name, _)| *name == flag);
        given.filter_map(|(_, value)| value.as_deref())
    }

    /// The last value of `flag`, parsed as `T`.
    ///
    /// # Errors
    ///
    /// [`UsageError::InvalidValue`] when the value does not parse.
    pub fn get<T: FromStr>(&self, flag: &'static str) -> Result<Option<T>, UsageError>
    where
        T::Err: fmt::Display,
    {
        self.value(flag)
            .map(|v| {
                v.parse()
                    .map_err(|e: T::Err| UsageError::invalid(flag, v, e.to_string()))
            })
            .transpose()
    }

    /// The positional operand, if given.
    pub fn operand(&self) -> Option<&str> {
        self.operand.as_deref()
    }

    /// The shared flags ([`CommonArgs::from_args`]), or exit 2.
    pub fn common(&self) -> CommonArgs {
        self.check(CommonArgs::from_args(self))
    }

    /// The value of a check, or exit 2 with its error and the usage.
    pub fn check<T>(&self, result: Result<T, UsageError>) -> T {
        result.unwrap_or_else(|e| self.fail(e))
    }

    /// Prints `error` and the usage to stderr and exits 2.
    fn fail(&self, error: UsageError) -> ! {
        exit_with(self.flags, error)
    }

    /// Exits 2 with [`UsageError::InvalidValue`]: `value` of `flag` is
    /// rejected for `reason`.
    pub fn reject(&self, flag: &'static str, value: &str, reason: impl Into<String>) -> ! {
        self.fail(UsageError::invalid(flag, value, reason))
    }
}

/// Parses `argv` (without the program name) against `flags`.
///
/// # Errors
///
/// [`UsageError::Help`] when `--help` appears anywhere; otherwise the
/// first unknown flag, missing value, or stray operand.
pub fn parse(flags: &'static [Flag], argv: &[String]) -> Result<Args, UsageError> {
    if argv.iter().any(|a| a == HELP.name) {
        return Err(UsageError::Help);
    }
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with('-') {
            if args.operand.is_some() || !flags.iter().any(Flag::is_operand) {
                return Err(UsageError::UnexpectedArgument(arg.clone()));
            }
            args.operand = Some(arg.clone());
            continue;
        }
        let flag = flags
            .iter()
            .find(|f| f.name == arg)
            .ok_or_else(|| UsageError::UnknownFlag(arg.clone()))?;
        let value = match flag.value {
            Some(_) => Some(it.next().ok_or(UsageError::MissingValue(flag.name))?),
            None => None,
        };
        args.given.push((flag.name, value.cloned()));
    }
    Ok(Args { flags, ..args })
}

/// The usage text of the running binary, generated from its table.
fn usage(flags: &[Flag]) -> String {
    let argv0 = std::env::args().next().unwrap_or_default();
    let mut out = format!("usage: {}", argv0.rsplit('/').next().unwrap_or_default());
    for operand in flags.iter().filter(|f| f.is_operand()) {
        let _ = write!(out, " {}", operand.name);
    }
    out.push_str(" [flags]\n\n");
    let label = |f: &Flag| match f.value {
        Some(placeholder) => format!("{} <{placeholder}>", f.name),
        None => f.name.to_string(),
    };
    let rows: Vec<Flag> = flags.iter().copied().chain([HELP]).collect();
    let width = rows.iter().map(|f| label(f).len()).max().unwrap_or(0);
    for flag in &rows {
        let _ = writeln!(out, "  {:<width$}  {}", label(flag), flag.help);
    }
    out
}

/// Parses the process arguments against `flags`, or exits: 0 with the
/// usage on stdout for `--help`, 2 with the error and the usage on stderr
/// otherwise.
pub fn parse_env(flags: &'static [Flag]) -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    parse(flags, &argv).unwrap_or_else(|e| exit_with(flags, e))
}

fn exit_with(flags: &[Flag], error: UsageError) -> ! {
    if error == UsageError::Help {
        print!("{}", usage(flags));
        std::process::exit(0);
    }
    eprint!("error: {error}\n\n{}", usage(flags));
    std::process::exit(2);
}

/// Resolves the [`MODEL`] operand against the zoo registry.
///
/// # Errors
///
/// [`UsageError::MissingOperand`] without an operand;
/// [`UsageError::InvalidValue`] naming the known models when none matches.
pub fn zoo_model(args: &Args) -> Result<cim_models::ModelInfo, UsageError> {
    let missing = UsageError::MissingOperand(MODEL.name);
    let name = args.operand().ok_or(missing)?;
    let zoo = cim_models::all_models();
    if let Some(info) = zoo.iter().find(|m| m.name.eq_ignore_ascii_case(name)) {
        return Ok(info.clone());
    }
    let known: Vec<&str> = zoo.iter().map(|m| m.name).collect();
    let reason = format!("expected one of {}", known.join(", "));
    Err(UsageError::invalid(MODEL.name, name, reason))
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAGS: &[Flag] = &[
        JOBS,
        JSON,
        FAULT_RATE,
        Flag::switch("--wdup", "enable duplication"),
    ];
    const WITH_MODEL: &[Flag] = &[MODEL, JSON];

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn unknown_flag_is_rejected() {
        assert_eq!(
            parse(FLAGS, &argv(&["--json", "x", "--cache_dir", "/tmp/x"])),
            Err(UsageError::UnknownFlag("--cache_dir".into()))
        );
        assert_eq!(
            parse(FLAGS, &argv(&["-h"])),
            Err(UsageError::UnknownFlag("-h".into()))
        );
    }

    #[test]
    fn missing_value_is_rejected() {
        assert_eq!(
            parse(FLAGS, &argv(&["--wdup", "--json"])),
            Err(UsageError::MissingValue("--json"))
        );
    }

    #[test]
    fn non_integer_value_is_rejected() {
        let args = parse(FLAGS, &argv(&["--jobs", "abc"])).unwrap();
        assert!(matches!(
            args.get::<usize>("--jobs"),
            Err(UsageError::InvalidValue("--jobs", ref value, _)) if value == "abc"
        ));
        assert!(CommonArgs::from_args(&args).is_err());
    }

    #[test]
    fn last_value_wins() {
        let args = parse(FLAGS, &argv(&["--json", "a.json", "--json", "b.json"])).unwrap();
        assert_eq!(args.value("--json"), Some("b.json"));
        assert_eq!(args.value("--jobs"), None);
    }

    #[test]
    fn repeated_fault_rate_keeps_every_value() {
        let rates = [
            "--fault-rate",
            "job-panic=300",
            "--fault-rate",
            "store-write=200",
        ];
        let args = parse(FLAGS, &argv(&rates)).unwrap();
        let given: Vec<&str> = args.values("--fault-rate").collect();
        assert_eq!(given, ["job-panic=300", "store-write=200"]);
    }

    #[test]
    fn stray_or_missing_operand_is_rejected() {
        assert_eq!(
            parse(FLAGS, &argv(&["c"])),
            Err(UsageError::UnexpectedArgument("c".into()))
        );
        assert_eq!(
            parse(WITH_MODEL, &argv(&["VGG16", "VGG19"])),
            Err(UsageError::UnexpectedArgument("VGG19".into()))
        );
        let args = parse(WITH_MODEL, &argv(&["--json", "x"])).unwrap();
        assert_eq!(zoo_model(&args), Err(UsageError::MissingOperand("<model>")));
        let args = parse(WITH_MODEL, &argv(&["--json", "x", "vgg16"])).unwrap();
        assert_eq!(args.operand(), Some("vgg16"));
        assert_eq!(zoo_model(&args).map(|m| m.name), Ok("VGG16"));
        let args = parse(WITH_MODEL, &argv(&["AlexNet"])).unwrap();
        assert!(matches!(
            zoo_model(&args),
            Err(UsageError::InvalidValue("<model>", ..))
        ));
    }

    #[test]
    fn help_wins_and_the_usage_lists_every_flag() {
        assert_eq!(
            parse(FLAGS, &argv(&["--bogus", "--help"])),
            Err(UsageError::Help)
        );
        let text = usage(FLAGS);
        for flag in FLAGS.iter().chain([&HELP]) {
            assert!(
                text.contains(flag.name),
                "{} missing from:\n{text}",
                flag.name
            );
        }
        assert!(text.contains("--jobs <N>"));
        assert!(usage(WITH_MODEL).contains(" <model> [flags]\n"));
    }

    #[test]
    fn switches_are_flags_without_values() {
        let args = parse(FLAGS, &argv(&["--wdup"])).unwrap();
        assert!(args.switch("--wdup"));
        assert!(!args.switch("--json"));
    }
}
