//! `gdrprof` — critical-path profiler for recorder traces. `COMMANDS`
//! below is the usage, which `gdrprof --help` prints.
//!
//! `report` analyzes one trace. `diff` accepts either raw Chrome traces
//! or `gdrprof-report-v2` (and legacy v1) JSON files; traces are
//! analyzed on the fly.
//! `crossover` reconstructs per-configuration latency curves and the
//! observed protocol-switch points; `--suggest` writes the estimated
//! true crossovers as a `thresholds-v1` artifact. `whatif` replays the
//! recorded protocol decisions under an alternate `thresholds-v1`
//! table and prints the predicted aggregate latency delta. `timeline`
//! turns a windowed trace (`GDR_SHMEM_OBS_WINDOW_US`) into a
//! per-window latency/contention/fault series with change-point flags;
//! `--window <us>` derives the windows from raw spans instead.
//!
//! Exit codes (CI gates on these): 0 success, 1 usage error, 2 malformed
//! trace / IO error, 3 trace contained no analyzable operations; 4–8 are
//! the `diff` regression gates, one per `obs_analyze::EXITS` entry
//! (`gdrprof --help` prints the whole table).

use obs::json::Value;
use obs_analyze::{analyze, crossover, diff, timeline, whatif, Report, Trace, EXITS};
use std::collections::BTreeMap;
use std::process::ExitCode;

const COMMANDS: &str = "usage:
  gdrprof report <trace.json> [--json <report.json>]        (alias: analyze)
  gdrprof diff <baseline.json> <candidate.json> [--threshold <pct>] [--json <diff.json>]
  gdrprof crossover <trace.json> [--suggest <thresholds.json>] [--json <out.json>]
  gdrprof whatif <trace.json> --thresholds <thresholds.json> [--json <out.json>]
  gdrprof timeline <trace.json> [--window <us>] [--json <out.json>]

exit codes:
  0  success
  1  usage error
  2  malformed trace / IO error
  3  trace contained no analyzable operations";

fn usage() -> String {
    let mut s = COMMANDS.to_string();
    for e in &EXITS {
        s += &format!("\n  {}  {}", e.code, e.usage);
    }
    s
}

/// Why a run failed: its exit code and stderr message.
type Fail = (u8, String);

fn usage_error() -> Fail {
    (1, usage())
}

/// A `--flag <value>` a subcommand takes: its name, what the value must
/// be (for the "needs" message) and the check the value must pass.
type Flag = (&'static str, &'static str, fn(&str) -> bool);

const JSON: Flag = ("--json", "a path", |_| true);
const SUGGEST: Flag = ("--suggest", "a path", |_| true);
const THRESHOLDS: Flag = ("--thresholds", "a path", |_| true);
const THRESHOLD: Flag = ("--threshold", "a percentage", |s| percentage(s).is_some());
const WINDOW: Flag = ("--window", "a positive microsecond count", |s| {
    s.parse::<u32>().is_ok_and(|w| w > 0)
});

/// A regression threshold: a finite, non-negative percentage.
fn percentage(s: &str) -> Option<f64> {
    s.parse().ok().filter(|t: &f64| t.is_finite() && *t >= 0.0)
}

/// A subcommand's arguments: positionals plus the last value given for
/// each of its flags.
struct Args {
    pos: Vec<String>,
    flags: BTreeMap<&'static str, String>,
}

impl Args {
    /// Split `argv` into at most `max_pos` positionals and the values of
    /// `flags`; anything that is not one of `flags` is a positional. The
    /// first bad argument, in argv order, is the error.
    fn parse(argv: &[String], flags: &[Flag], max_pos: usize) -> Result<Args, Fail> {
        let (mut pos, mut values) = (Vec::new(), BTreeMap::new());
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            if let Some(&(name, needs, valid)) = flags.iter().find(|f| f.0 == a) {
                match it.next().filter(|v| valid(v)) {
                    Some(v) => values.insert(name, v.clone()),
                    None => return Err((1, format!("{name} needs {needs}"))),
                };
            } else if pos.len() < max_pos {
                pos.push(a.clone());
            } else {
                return Err(usage_error());
            }
        }
        Ok(Args { pos, flags: values })
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.flags.get(flag).map(String::as_str)
    }

    /// The one positional of a single-input subcommand.
    fn input(&self) -> Result<&str, Fail> {
        match self.pos.as_slice() {
            [p] => Ok(p),
            _ => Err(usage_error()),
        }
    }
}

fn read(path: &str) -> Result<String, Fail> {
    std::fs::read_to_string(path).map_err(|e| (2, format!("cannot read {path}: {e}")))
}

/// Write `doc()` to `path` when the flag was given.
fn write_out(path: Option<&str>, doc: impl FnOnce() -> String) -> Result<(), Fail> {
    match path {
        Some(out) => {
            std::fs::write(out, doc()).map_err(|e| (2, format!("cannot write {out}: {e}")))
        }
        None => Ok(()),
    }
}

/// Exit 3 when the trace held none of `what` to analyze.
fn nonempty(found: bool, what: &str) -> Result<(), Fail> {
    if found {
        Ok(())
    } else {
        Err((3, format!("trace contained no {what}")))
    }
}

/// Parse the document at `path`.
fn parse(path: &str) -> Result<Value, Fail> {
    obs::json::parse(&read(path)?).map_err(|e| (2, format!("{path}: {e}")))
}

/// Run `f` on the trace at `path`.
fn with_trace<T>(path: &str, f: impl FnOnce(&Trace) -> T) -> Result<T, Fail> {
    let doc = parse(path)?;
    let tr = Trace::decode(&doc).map_err(|e| (2, format!("{path}: {e}")))?;
    Ok(f(&tr))
}

/// Load a report file (v2 or legacy v1) or analyze a raw trace.
fn load_report(path: &str) -> Result<Report, Fail> {
    let doc = parse(path)?;
    // a report file carries its schema marker; anything else must be a trace
    if doc
        .get("schema")
        .and_then(Value::as_str)
        .is_some_and(|s| s.starts_with("gdrprof-report-"))
    {
        return Report::from_json(&doc).map_err(|e| (2, format!("{path}: {e}")));
    }
    with_trace(path, analyze)
}

fn cmd_analyze(argv: &[String]) -> Result<(), Fail> {
    let args = Args::parse(argv, &[JSON], 1)?;
    let rep = with_trace(args.input()?, analyze)?;
    print!("{}", rep.text());
    write_out(args.get("--json"), || rep.to_json())?;
    nonempty(rep.ops_analyzed > 0, "analyzable operations")
}

fn cmd_diff(argv: &[String]) -> Result<(), Fail> {
    let args = Args::parse(argv, &[THRESHOLD, JSON], usize::MAX)?;
    let [a, b] = args.pos.as_slice() else {
        return Err(usage_error());
    };
    let threshold = args.get("--threshold").and_then(percentage).unwrap_or(10.0);
    let d = diff(&load_report(a)?, &load_report(b)?, threshold);
    print!("{}", d.text());
    write_out(args.get("--json"), || d.to_json())?;
    match d.exit() {
        Some(e) => Err((e.code, e.message.to_string())),
        None => Ok(()),
    }
}

fn cmd_timeline(argv: &[String]) -> Result<(), Fail> {
    let args = Args::parse(argv, &[WINDOW, JSON], 1)?;
    let window = args.get("--window").and_then(|w| w.parse().ok());
    let tl = with_trace(args.input()?, |tr| timeline(tr, window))?.map_err(|e| (3, e))?;
    print!("{}", tl.text());
    write_out(args.get("--json"), || tl.to_json())?;
    nonempty(!tl.rows.is_empty(), "windowed activity")
}

fn cmd_crossover(argv: &[String]) -> Result<(), Fail> {
    let args = Args::parse(argv, &[SUGGEST, JSON], 1)?;
    let x = with_trace(args.input()?, crossover)?;
    print!("{}", x.text());
    write_out(args.get("--json"), || x.to_json())?;
    write_out(args.get("--suggest"), || x.suggestions().to_json())?;
    nonempty(!x.curves.is_empty(), "enriched decision records")
}

fn cmd_whatif(argv: &[String]) -> Result<(), Fail> {
    let args = Args::parse(argv, &[THRESHOLDS, JSON], 1)?;
    let ([trace], Some(table_path)) = (args.pos.as_slice(), args.get("--thresholds")) else {
        return Err(usage_error());
    };
    let table = obs::ThresholdTable::from_json_str(&read(table_path)?)
        .map_err(|e| (2, format!("{table_path}: {e}")))?;
    let w = with_trace(trace, |tr| whatif(tr, &table))?;
    print!("{}", w.text());
    write_out(args.get("--json"), || w.to_json())?;
    nonempty(w.replayed > 0, "replayable decision records")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map_or("", String::as_str);
    let rest = args.get(1..).unwrap_or_default();
    let run: fn(&[String]) -> Result<(), Fail> = match cmd {
        "--help" | "-h" | "help" => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        "analyze" | "report" => cmd_analyze,
        "diff" => cmd_diff,
        "crossover" => cmd_crossover,
        "whatif" => cmd_whatif,
        "timeline" => cmd_timeline,
        _ => |_| Err(usage_error()),
    };
    match run(rest) {
        Ok(()) => ExitCode::SUCCESS,
        Err((code, msg)) => {
            eprintln!("gdrprof: {msg}");
            ExitCode::from(code)
        }
    }
}
