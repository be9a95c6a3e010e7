//! `pstore-lint` — the workspace's project-specific static analyzer.
//!
//! ```text
//! pstore-lint [--root DIR] [--json] [--quiet] [--list-rules]
//! ```
//!
//! Exit codes mirror `pstore-trace diff`: **0** clean, **1** findings,
//! **2** usage error. `--json` prints the stable `pstore-lint/v1`
//! document (findings, waived findings with reasons, and the workspace
//! unsafe inventory); see `docs/static_analysis.md`.

use std::path::PathBuf;
use std::process::ExitCode;

/// Parsed command line.
struct Args {
    root: PathBuf,
    json: bool,
    quiet: bool,
    list_rules: bool,
}

const USAGE: &str = "usage: pstore-lint [--root DIR] [--json] [--quiet] [--list-rules]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        json: false,
        quiet: false,
        list_rules: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => {
                let Some(dir) = it.next() else {
                    return Err("--root needs a directory argument".to_string());
                };
                args.root = PathBuf::from(dir);
            }
            "--json" => args.json = true,
            "--quiet" => args.quiet = true,
            "--list-rules" => args.list_rules = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// One-line summaries for `--list-rules`.
const RULES: [(&str, &str); 7] = [
    (
        "SA-00",
        "waiver hygiene: every waiver names a known rule and carries a reason",
    ),
    (
        "SA-01",
        "invariant-registry coherence across core, verify, docs and tests",
    ),
    (
        "SA-02",
        "telemetry kinds/span names registered; begin/end pairing per fn body",
    ),
    (
        "SA-03",
        "determinism: no wall-clock reads or hash-ordered serialized output",
    ),
    (
        "SA-04",
        "concurrency hygiene: sync primitives only via cfg(loom) shims/vendor",
    ),
    (
        "SA-05",
        "unsafe sites carry SAFETY comments; unsafe inventory emitted",
    ),
    (
        "SA-06",
        "#[allow] of workspace-denied lints carries a justification",
    ),
];

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if msg.is_empty() {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("pstore-lint: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    if args.list_rules {
        for (id, summary) in RULES {
            println!("{id}  {summary}");
        }
        return ExitCode::SUCCESS;
    }

    let ws = match pstore_lint::Workspace::load(&args.root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!(
                "pstore-lint: cannot load workspace at {}: {e}",
                args.root.display()
            );
            return ExitCode::from(2);
        }
    };
    if ws.files.is_empty() {
        eprintln!(
            "pstore-lint: no Rust sources under {} (expected crates/, src/, vendor/)",
            args.root.display()
        );
        return ExitCode::from(2);
    }

    let report = pstore_lint::run(&ws);

    if args.json {
        println!("{}", pstore_lint::to_json(&report, &ws));
    } else {
        for f in &report.findings {
            println!("{f}");
        }
        if !args.quiet {
            let with_safety = report
                .unsafe_inventory
                .iter()
                .filter(|s| s.has_safety_comment)
                .count();
            println!(
                "pstore-lint: {} file(s) scanned, {} finding(s), {} waived, \
                 unsafe inventory: {} site(s) ({} with SAFETY comments)",
                ws.files.len(),
                report.findings.len(),
                report.waived.len(),
                report.unsafe_inventory.len(),
                with_safety,
            );
            for w in &report.waived {
                println!(
                    "  waived {} {}:{} — {}",
                    w.finding.rule, w.finding.file, w.finding.line, w.reason
                );
            }
        }
    }

    ExitCode::from(u8::try_from(report.exit_code()).unwrap_or(1))
}
