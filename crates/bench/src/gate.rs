//! The protocol the report binaries (`perf_report`, `quality_report`)
//! share: a strict `--flag value` reader ([`Args`]), one [`GateReport`],
//! the header every snapshot file opens with, and one driver
//! ([`Protocol::run`]) for a default run (writes `<prefix>_<label>.json`),
//! `--check BASELINE [--out FILE]` and `--diff A.json B.json`. A
//! command-line error prints a usage line and exits with status 2 before
//! anything runs or is written.

use nde_quality::Severity;
use nde_trace::json::{self, JsonValue};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::str::FromStr;

/// Flags every report binary accepts, with the number of values each takes.
const SHARED_FLAGS: &[(&str, usize)] =
    &[("--label", 1), ("--out", 1), ("--check", 1), ("--diff", 2)];

/// Parsed command-line flags. Every token must be a known flag followed by
/// exactly its number of values, and no value may start with `--`.
#[derive(Debug)]
pub struct Args(BTreeMap<&'static str, Vec<String>>);

impl Args {
    /// Reads `argv` (without the program name) against `spec`, a list of
    /// `(flag, value count)` pairs.
    pub(crate) fn parse(
        argv: impl IntoIterator<Item = String>,
        spec: &[(&'static str, usize)],
    ) -> Result<Args, String> {
        let mut flags = BTreeMap::new();
        let mut argv = argv.into_iter();
        while let Some(token) = argv.next() {
            let &(flag, arity) = spec
                .iter()
                .find(|(flag, _)| *flag == token)
                .ok_or_else(|| format!("unknown argument {token:?}"))?;
            let values: Vec<String> = argv.by_ref().take(arity).collect();
            if values.len() < arity || values.iter().any(|v| v.starts_with("--")) {
                return Err(format!("{flag} takes {arity} value(s)"));
            }
            if flags.insert(flag, values).is_some() {
                return Err(format!("{flag} given twice"));
            }
        }
        Ok(Args(flags))
    }

    /// Whether `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.0.contains_key(flag)
    }

    /// The values given after `flag`, if it was given.
    pub(crate) fn values(&self, flag: &str) -> Option<&[String]> {
        self.0.get(flag).map(Vec::as_slice)
    }

    /// The first value given after `flag`, if it was given.
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.values(flag)?.first().map(String::as_str)
    }

    /// The value after `flag` parsed as `T`; an error if it does not parse.
    pub fn parse_value<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.get(flag)
            .map(|v| v.parse().map_err(|_| format!("{flag}: cannot parse {v:?}")))
            .transpose()
    }
}

/// The outcome of comparing a snapshot against a baseline: display lines
/// plus findings tagged with a [`Severity`]. The gate passes when no
/// finding is [`Severity::Fail`]; [`Severity::Warn`] findings are printed
/// but do not gate.
#[derive(Debug, Clone, Default)]
pub struct GateReport {
    /// Human-readable comparison lines (everything compared, gating or not).
    pub lines: Vec<String>,
    /// Findings in the order they were raised.
    pub findings: Vec<(Severity, String)>,
}

impl GateReport {
    /// Records a non-gating finding.
    pub fn warn(&mut self, message: String) {
        self.findings.push((Severity::Warn, message));
    }

    /// Records a finding that fails the gate.
    pub fn fail(&mut self, message: String) {
        self.findings.push((Severity::Fail, message));
    }

    /// The messages of the findings at `severity`, in order.
    pub fn of(&self, severity: Severity) -> Vec<&str> {
        self.findings
            .iter()
            .filter(|(s, _)| *s == severity)
            .map(|(_, m)| m.as_str())
            .collect()
    }

    /// `true` when no finding is [`Severity::Fail`].
    pub fn passed(&self) -> bool {
        self.of(Severity::Fail).is_empty()
    }

    /// Renders the lines, the warnings, then `PASS` or the failures.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for line in &self.lines {
            let _ = writeln!(out, "  {line}");
        }
        for warning in self.of(Severity::Warn) {
            let _ = writeln!(out, "WARN: {warning}");
        }
        if self.passed() {
            out.push_str("PASS: no finding at the FAIL tier\n");
        }
        for failure in self.of(Severity::Fail) {
            let _ = writeln!(out, "FAIL: {failure}");
        }
        out
    }
}

/// One report binary's side of the protocol: its name, flags and snapshot
/// format. [`Protocol::run`] takes the suite and the diff function.
pub struct Protocol<S> {
    /// Binary name, prefixed to messages.
    pub name: &'static str,
    /// A default run writes `<prefix>_<label>.json`.
    pub prefix: &'static str,
    /// Usage text printed on a command-line error.
    pub usage: &'static str,
    /// The binary's flags beyond the shared `--label`, `--out`, `--check`
    /// and `--diff`, with their value counts.
    pub flags: &'static [(&'static str, usize)],
    /// Serializes a snapshot.
    pub to_json: fn(&S) -> String,
    /// Parses a snapshot written by `to_json`.
    pub from_json: fn(&str) -> Result<S, String>,
}

impl<S> Protocol<S> {
    /// Reads the process arguments against the shared flags and `flags`;
    /// on error returns the exit code of [`Protocol::usage_error`].
    pub fn parse_args(&self) -> Result<Args, ExitCode> {
        Args::parse(
            std::env::args().skip(1),
            &[SHARED_FLAGS, self.flags].concat(),
        )
        .map_err(|e| self.usage_error(&e))
    }

    /// Prints `message` and the usage text to stderr; returns exit status 2.
    pub fn usage_error(&self, message: &str) -> ExitCode {
        eprintln!("{}: {message}\nusage: {}", self.name, self.usage);
        ExitCode::from(2)
    }

    /// Runs the mode `args` selects — `--diff`, else `--check`, else a
    /// default run of `suite(label)` — and returns its exit code: failure
    /// on an I/O or parse error or when the `diff` report does not pass.
    pub fn run(
        &self,
        args: &Args,
        suite: impl FnOnce(&str) -> S,
        diff: impl FnOnce(&S, &S) -> GateReport,
    ) -> ExitCode {
        match self.dispatch(args, suite, diff) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("{}: {e}", self.name);
                ExitCode::FAILURE
            }
        }
    }

    fn dispatch(
        &self,
        args: &Args,
        suite: impl FnOnce(&str) -> S,
        diff: impl FnOnce(&S, &S) -> GateReport,
    ) -> Result<bool, String> {
        let (base, new) = if let Some([a, b]) = args.values("--diff") {
            (self.load(a)?, self.load(b)?)
        } else if let Some(baseline) = args.get("--check") {
            let base = self.load(baseline)?;
            let new = suite("check");
            if let Some(out) = args.get("--out") {
                self.write(out, &new)?;
                eprintln!("{}: snapshot written to {out}", self.name);
            }
            println!("Checking against {baseline}");
            (base, new)
        } else {
            let label = args.get("--label").unwrap_or("baseline");
            let snapshot = suite(label);
            let out = args
                .get("--out")
                .map_or_else(|| format!("{}_{label}.json", self.prefix), str::to_owned);
            self.write(&out, &snapshot)?;
            println!("Snapshot written to {out}.");
            return Ok(true);
        };
        let report = diff(&base, &new);
        print!("{}", report.render());
        Ok(report.passed())
    }

    fn load(&self, path: &str) -> Result<S, String> {
        let contents =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        (self.from_json)(&contents).map_err(|e| format!("{path}: {e}"))
    }

    fn write(&self, path: &str, snapshot: &S) -> Result<(), String> {
        std::fs::write(path, (self.to_json)(snapshot))
            .map_err(|e| format!("cannot write {path}: {e}"))
    }
}

/// Opens a snapshot document with the `schema_version` and `label` fields
/// every snapshot starts with.
pub(crate) fn write_header(out: &mut String, schema_version: u64, label: &str) {
    let _ = writeln!(out, "{{\n  \"schema_version\": {schema_version},");
    out.push_str("  \"label\": \"");
    json::escape_into(out, label);
    out.push_str("\",\n");
}

/// Parses a snapshot document and checks its `schema_version` against
/// `supported`, so a stale baseline fails loudly instead of mis-diffing.
/// Returns the document and its label.
pub(crate) fn parse_header(input: &str, supported: u64) -> Result<(JsonValue, String), String> {
    let value = json::parse(input).map_err(|e| e.to_string())?;
    let version = value
        .get("schema_version")
        .and_then(JsonValue::as_u64)
        .ok_or("missing schema_version")?;
    if version != supported {
        return Err(format!(
            "snapshot schema v{version} unsupported (this build reads v{supported}); \
             regenerate the baseline"
        ));
    }
    let label = value
        .get("label")
        .and_then(JsonValue::as_str)
        .ok_or("missing label")?
        .to_owned();
    Ok((value, label))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &[(&str, usize)] = &[
        ("--label", 1),
        ("--out", 1),
        ("--diff", 2),
        ("--time-tol", 1),
        ("--experiment", 0),
    ];

    fn parse(argv: &[&str]) -> Result<Args, String> {
        Args::parse(argv.iter().map(|s| s.to_string()), SPEC)
    }

    #[test]
    fn well_formed_flags_parse() {
        let args = parse(&["--label", "x", "--diff", "a", "b", "--experiment"]).unwrap();
        assert_eq!(args.get("--label"), Some("x"));
        assert_eq!(args.values("--diff").unwrap(), ["a", "b"]);
        assert!(args.has("--experiment") && !args.has("--out"));
        let args = parse(&["--time-tol", "2.5"]).unwrap();
        assert_eq!(args.parse_value::<f64>("--time-tol"), Ok(Some(2.5)));
        assert_eq!(args.parse_value::<f64>("--out"), Ok(None));
    }

    #[test]
    fn malformed_command_lines_are_errors() {
        for argv in [
            // A trailing `--out` used to be ignored, so the run wrote the
            // default `<prefix>_baseline.json` over the committed baseline.
            &["--out"][..],
            &["--diff", "a.json"],
            // `--label --out f.json` used to label the run "--out".
            &["--label", "--out", "f.json"],
            &["--diff", "a.json", "--time-tol", "x"],
            &["--outt", "f.json"],
            &["stray"],
            &["--out", "a", "--out", "b"],
        ] {
            assert!(parse(argv).is_err(), "{argv:?}");
        }
    }

    #[test]
    fn unparsable_value_is_an_error_not_a_panic() {
        // `--time-tol x` used to panic with a backtrace.
        let args = parse(&["--time-tol", "x"]).unwrap();
        assert!(args.parse_value::<f64>("--time-tol").is_err());
    }

    #[test]
    fn report_passes_unless_a_finding_fails() {
        let mut report = GateReport::default();
        report.lines.push("w: 1.0ms -> 1.1ms".into());
        report.warn("thread counts differ".into());
        assert!(report.passed());
        assert!(report.render().contains("WARN: thread counts differ\nPASS"));

        report.fail("counter drifted".into());
        assert!(!report.passed());
        assert_eq!(report.of(Severity::Fail), ["counter drifted"]);
        let rendered = report.render();
        assert!(rendered.contains("FAIL: counter drifted"), "{rendered}");
        assert!(!rendered.contains("PASS"), "{rendered}");
    }
}
