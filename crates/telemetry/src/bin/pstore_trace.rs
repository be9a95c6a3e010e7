//! `pstore-trace`: run-analysis toolchain over JSONL telemetry traces.
//!
//! ```text
//! pstore-trace report   <trace.jsonl>                 # run report (default)
//! pstore-trace profile  <trace.jsonl> [--wall] [--folded]
//! pstore-trace timeline <trace.jsonl> [--width N]
//! pstore-trace slo      <trace.jsonl> [--width N] [--summary <out.json>]
//! pstore-trace provisioning <trace.jsonl> [--width N] [--summary <out.json>]
//! pstore-trace diff     <baseline> <candidate> [--tolerances <file>]
//!                       [--bless] [--verbose]
//! pstore-trace <trace.jsonl>                          # legacy = report
//! ```
//!
//! `slo` prints the latency-attribution table (queue/exec/migration-stall
//! txn-seconds per simulator run), every SLA-violation window with the
//! reconfiguration span or chunk moves it overlaps, and the timeline with
//! a `!` violation overlay. `--summary` additionally writes a
//! `pstore-run-summary/v1` document holding only the `slo.*` metrics —
//! the shape committed as `results/golden/fig9_slo_quick.summary.json`
//! and gated by `pstore-trace diff` in CI.
//!
//! `provisioning` reads the `prov_*` event family (emission-gated; see
//! docs/observability.md) and prints the capacity ledger
//! (machine-seconds provisioned vs ideal — the Fig 9 over/under areas),
//! the planner decision audit with reasons and leads, forecast error by
//! horizon, under-forecast windows, and the timeline with the decision
//! overlay (`P>` predictive lead arrows, `R` reactive marks).
//! `--summary` writes a document holding only the `prov.*` metrics —
//! committed as `results/golden/fig9_prov_quick.summary.json`. A trace
//! with no `prov_*` events exits 1: the subcommand exists to audit
//! provisioning, so a silently-gated-off run is a failure, not a pass.
//!
//! `diff` arguments may be `.jsonl` traces (summarised on the fly) or
//! `.json` summary documents (e.g. the goldens under `results/golden/`).
//! `--bless` rewrites the baseline file with the candidate's summary —
//! the golden-refresh workflow after an intentional metrics change.
//!
//! Exit codes: 0 = clean; 1 = regression or structural problems
//! (unmatched/misnested spans, unparseable lines, ordering violations);
//! 2 = usage or I/O error. CI's telemetry smoke and trace-diff steps
//! rely on these.

use pstore_telemetry::summary::{diff, RunSummary, ToleranceTable};
use pstore_telemetry::trace::{order_errors, read_jsonl, LineError, RunReport};
use pstore_telemetry::{prov, slo, timeline, Event, Profile, ProfileClock};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: pstore-trace <subcommand> ...
  report   <trace.jsonl>
  profile  <trace.jsonl> [--wall] [--folded]
  timeline <trace.jsonl> [--width N]
  slo      <trace.jsonl> [--width N] [--summary <out.json>]
  provisioning <trace.jsonl> [--width N] [--summary <out.json>]
  diff     <baseline.jsonl|.json> <candidate.jsonl|.json> [--tolerances <file>] [--bless] [--verbose]
  <trace.jsonl>   (legacy: same as report)";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(first) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    match first.as_str() {
        "report" => cmd_report(&args[1..]),
        "profile" => cmd_profile(&args[1..]),
        "timeline" => cmd_timeline(&args[1..]),
        "slo" => cmd_slo(&args[1..]),
        "provisioning" => cmd_provisioning(&args[1..]),
        "diff" => cmd_diff(&args[1..]),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        _ if first.starts_with('-') => {
            eprintln!("pstore-trace: unknown option \"{first}\"\n{USAGE}");
            ExitCode::from(2)
        }
        // Legacy single-argument form: treat the argument as a trace path.
        _ => cmd_report(&args[..]),
    }
}

/// Reads a trace, printing line errors to stderr. `Err` carries the exit
/// code (2 on I/O failure).
fn load_trace(path: &Path) -> Result<(Vec<Event>, Vec<LineError>), ExitCode> {
    let (events, line_errors) = match read_jsonl(path) {
        Ok(read) => read,
        Err(e) => {
            eprintln!("pstore-trace: cannot read {}: {e}", path.display());
            return Err(ExitCode::from(2));
        }
    };
    if !line_errors.is_empty() {
        eprintln!(
            "pstore-trace: {} unparseable line(s) in {}:",
            line_errors.len(),
            path.display()
        );
        for e in line_errors.iter().take(10) {
            eprintln!("  line {}: {}", e.line, e.msg);
        }
    }
    Ok((events, line_errors))
}

/// A parsed flag: name plus optional value.
type Flag<'a> = (&'a str, Option<&'a str>);

/// Parses `<path> [flags...]`, validating flags against `allowed`.
fn parse_path_and_flags<'a>(
    args: &'a [String],
    allowed: &[&str],
) -> Result<(PathBuf, Vec<Flag<'a>>), String> {
    let mut path = None;
    let mut flags = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg.starts_with('-') {
            if !allowed.contains(&arg.as_str()) {
                return Err(format!("unknown flag \"{arg}\""));
            }
            // Flags taking a value: --width, --tolerances, --summary.
            let takes_value = matches!(arg.as_str(), "--width" | "--tolerances" | "--summary");
            let value = if takes_value {
                Some(
                    it.next()
                        .ok_or_else(|| format!("flag \"{arg}\" needs a value"))?
                        .as_str(),
                )
            } else {
                None
            };
            flags.push((arg.as_str(), value));
        } else if path.is_none() {
            path = Some(PathBuf::from(arg));
        } else {
            return Err(format!("unexpected argument \"{arg}\""));
        }
    }
    let path = path.ok_or("missing trace path")?;
    Ok((path, flags))
}

/// A subcommand's parsed arguments and the trace they name.
struct Opened<'a> {
    /// The subcommand's name, for messages.
    cmd: &'static str,
    path: PathBuf,
    flags: Vec<Flag<'a>>,
    /// The `--width` value, or the timeline default.
    width: usize,
    events: Vec<Event>,
    line_errors: Vec<LineError>,
}

impl Opened<'_> {
    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| *f == flag)
    }

    /// Exit code of an analysis subcommand: 1 when the trace had
    /// unparseable lines.
    fn exit_code(&self) -> ExitCode {
        if self.line_errors.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        }
    }

    /// Writes `metrics` as a run-summary document to the `--summary`
    /// path, if one was given. `Err` carries exit code 2 on a write
    /// failure.
    fn write_summary(&self, metrics: Vec<(String, f64)>) -> Result<(), ExitCode> {
        let cmd = self.cmd;
        let Some((_, Some(out))) = self.flags.iter().find(|(f, _)| *f == "--summary") else {
            return Ok(());
        };
        let summary = RunSummary {
            metrics: metrics.into_iter().collect(),
        };
        if let Err(e) = std::fs::write(out, summary.to_json()) {
            eprintln!("pstore-trace {cmd}: cannot write {out}: {e}");
            return Err(ExitCode::from(2));
        }
        println!("{cmd} summary written to {out}");
        Ok(())
    }
}

/// Parses `<path> [flags...]` for subcommand `cmd`, validating the flags
/// against `allowed` and the `--width` value, then reads the trace.
/// `Err` carries the exit code (2 on usage or I/O errors).
fn open<'a>(
    cmd: &'static str,
    args: &'a [String],
    allowed: &[&str],
) -> Result<Opened<'a>, ExitCode> {
    let (path, flags) = parse_path_and_flags(args, allowed).map_err(|e| {
        eprintln!("pstore-trace {cmd}: {e}\n{USAGE}");
        ExitCode::from(2)
    })?;
    let width = match flags.iter().find(|(f, _)| *f == "--width") {
        Some((_, Some(value))) => value.parse::<usize>().map_err(|_| {
            eprintln!("pstore-trace {cmd}: --width wants an integer, got \"{value}\"");
            ExitCode::from(2)
        })?,
        _ => timeline::DEFAULT_WIDTH,
    };
    let (events, line_errors) = load_trace(&path)?;
    Ok(Opened {
        cmd,
        path,
        flags,
        width,
        events,
        line_errors,
    })
}

fn cmd_report(args: &[String]) -> ExitCode {
    let trace = match open("report", args, &[]) {
        Ok(trace) => trace,
        Err(code) => return code,
    };
    let report = RunReport::from_events(&trace.events);
    print!("{}", report.render());

    let ordering = order_errors(&trace.events);
    let mut failed = !trace.line_errors.is_empty();
    if !report.span_errors.is_empty() {
        failed = true;
        eprintln!(
            "pstore-trace: {} span error(s) (see report)",
            report.span_errors.len()
        );
    }
    if !ordering.is_empty() {
        failed = true;
        eprintln!("pstore-trace: {} ordering violation(s):", ordering.len());
        for e in ordering.iter().take(10) {
            eprintln!("  {e}");
        }
    }
    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_profile(args: &[String]) -> ExitCode {
    let trace = match open("profile", args, &["--wall", "--folded"]) {
        Ok(trace) => trace,
        Err(code) => return code,
    };
    let clock = if trace.has("--wall") {
        ProfileClock::Wall
    } else {
        ProfileClock::Sim
    };
    let prof = Profile::from_events(&trace.events, clock);
    if trace.has("--folded") {
        print!("{}", prof.folded());
    } else {
        print!("{}", prof.render(clock));
    }
    trace.exit_code()
}

fn cmd_timeline(args: &[String]) -> ExitCode {
    let trace = match open("timeline", args, &["--width"]) {
        Ok(trace) => trace,
        Err(code) => return code,
    };
    // Traces carrying prov_* events get the decision overlay for free;
    // for everything else decision_times is empty and no plan row is drawn.
    let decisions = prov::decision_times(&prov::analyze(&trace.events));
    print!(
        "{}",
        timeline::render(&trace.events, trace.width, &[], &decisions)
    );
    trace.exit_code()
}

fn cmd_slo(args: &[String]) -> ExitCode {
    let trace = match open("slo", args, &["--width", "--summary"]) {
        Ok(trace) => trace,
        Err(code) => return code,
    };
    let runs = slo::analyze(&trace.events);
    print!("{}", slo::render(&runs));
    println!();
    let violations = slo::violation_times(&runs);
    print!(
        "{}",
        timeline::render(&trace.events, trace.width, &violations, &[])
    );
    if let Err(code) = trace.write_summary(slo::metrics(&runs)) {
        return code;
    }
    trace.exit_code()
}

fn cmd_provisioning(args: &[String]) -> ExitCode {
    let trace = match open("provisioning", args, &["--width", "--summary"]) {
        Ok(trace) => trace,
        Err(code) => return code,
    };
    let runs = prov::analyze(&trace.events);
    if runs.is_empty() {
        eprintln!(
            "pstore-trace provisioning: no prov_* events in {} \
             (provisioning telemetry is emission-gated; run with prov \
             events enabled)",
            trace.path.display()
        );
        return ExitCode::from(1);
    }
    print!("{}", prov::render(&runs));
    println!();
    let violations = slo::violation_times(&slo::analyze(&trace.events));
    let decisions = prov::decision_times(&runs);
    print!(
        "{}",
        timeline::render(&trace.events, trace.width, &violations, &decisions)
    );
    if let Err(code) = trace.write_summary(prov::metrics(&runs)) {
        return code;
    }
    trace.exit_code()
}

fn cmd_diff(args: &[String]) -> ExitCode {
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut tolerances: Option<PathBuf> = None;
    let mut bless = false;
    let mut verbose = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--tolerances" => {
                let Some(value) = it.next() else {
                    eprintln!("pstore-trace diff: --tolerances needs a path");
                    return ExitCode::from(2);
                };
                tolerances = Some(PathBuf::from(value));
            }
            "--bless" => bless = true,
            "--verbose" => verbose = true,
            _ if arg.starts_with('-') => {
                eprintln!("pstore-trace diff: unknown flag \"{arg}\"\n{USAGE}");
                return ExitCode::from(2);
            }
            _ => paths.push(PathBuf::from(arg)),
        }
    }
    if paths.len() != 2 {
        eprintln!("pstore-trace diff: need exactly <baseline> and <candidate>\n{USAGE}");
        return ExitCode::from(2);
    }
    let (baseline_path, candidate_path) = (&paths[0], &paths[1]);

    let table = match tolerances {
        None => ToleranceTable::builtin(),
        Some(path) => {
            let text = match std::fs::read_to_string(&path) {
                Ok(text) => text,
                Err(e) => {
                    eprintln!("pstore-trace diff: cannot read {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            };
            match ToleranceTable::from_json_str(&text) {
                Ok(table) => table,
                Err(e) => {
                    eprintln!(
                        "pstore-trace diff: bad tolerance file {}: {e}",
                        path.display()
                    );
                    return ExitCode::from(2);
                }
            }
        }
    };

    let candidate = match RunSummary::load(candidate_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("pstore-trace diff: {e}");
            return ExitCode::from(2);
        }
    };
    if bless {
        if let Err(e) = std::fs::write(baseline_path, candidate.to_json()) {
            eprintln!(
                "pstore-trace diff: cannot bless {}: {e}",
                baseline_path.display()
            );
            return ExitCode::from(2);
        }
        println!(
            "blessed: {} now holds the summary of {}",
            baseline_path.display(),
            candidate_path.display()
        );
        return ExitCode::SUCCESS;
    }
    let baseline = match RunSummary::load(baseline_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("pstore-trace diff: {e}");
            return ExitCode::from(2);
        }
    };

    let report = diff(&baseline, &candidate, &table);
    print!("{}", report.render(verbose));
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
