//! Fixture-corpus integration tests: every rule SA-00..07 has a firing
//! `bad` tree and a clean `good` twin under `tests/fixtures/`, and the
//! assertions pin the exact rule ids and line numbers so diagnostics
//! cannot silently drift. A final test lints the real workspace and
//! requires it clean — the same gate CI's static-analysis job enforces.

// Test-only code: panicking on a broken fixture is the correct failure
// mode, and `allow-unwrap-in-tests` does not reach helper fns.
#![allow(clippy::unwrap_used)]

use std::path::{Path, PathBuf};

use pstore_lint::{run, LintReport, Workspace};

fn fixture_root(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn lint(name: &str) -> LintReport {
    let root = fixture_root(name);
    let ws = Workspace::load(&root).unwrap();
    assert!(!ws.files.is_empty(), "fixture {name} loaded no files");
    run(&ws)
}

/// `(rule, file, line)` triples in report order (sorted file/line/rule).
fn triples(report: &LintReport) -> Vec<(String, String, u32)> {
    report
        .findings
        .iter()
        .map(|f| (f.rule.to_string(), f.file.clone(), f.line))
        .collect()
}

fn assert_clean(name: &str) -> LintReport {
    let report = lint(name);
    assert!(
        report.findings.is_empty(),
        "{name} expected clean, got: {:#?}",
        report.findings
    );
    report
}

#[test]
fn sa00_malformed_waivers_fire() {
    let report = lint("sa00_bad");
    assert_eq!(
        triples(&report),
        vec![
            ("SA-00".into(), "crates/x/src/lib.rs".into(), 1),
            ("SA-00".into(), "crates/x/src/lib.rs".into(), 3),
        ]
    );
    assert!(report.findings[0].message.contains("unknown rule"));
    assert!(report.findings[1].message.contains("no reason"));
}

#[test]
fn sa00_well_formed_waiver_suppresses_and_is_reported() {
    let report = assert_clean("sa00_good");
    assert_eq!(report.waived.len(), 1);
    assert_eq!(report.waived[0].finding.rule, "SA-03");
    assert_eq!(report.waived[0].finding.line, 6);
    assert!(report.waived[0].reason.contains("smoke harness"));
}

#[test]
fn sa01_incoherent_registry_fires() {
    let report = lint("sa01_bad");
    let reg = "crates/core/src/invariant.rs";
    assert_eq!(
        triples(&report),
        vec![
            ("SA-01".into(), reg.into(), 12),
            ("SA-01".into(), reg.into(), 13),
            ("SA-01".into(), reg.into(), 13),
            ("SA-01".into(), reg.into(), 13),
            ("SA-01".into(), "docs/invariants.md".into(), 5),
            ("SA-01".into(), "docs/invariants.md".into(), 9),
        ]
    );
    // The first registry finding is SCH-01, which is also listed as
    // retired; the next three are the missing checker, doc section and
    // test mention for MOV-01; the doc findings are the dead SCH-02 and
    // ISO-02 sections (the fully wired ISO-01 stays silent).
    assert!(report.findings[0].message.contains("reuses a retired code"));
    assert!(report.findings[1].message.contains("no checker reference"));
    assert!(report.findings[2].message.contains("no section"));
    assert!(report.findings[3]
        .message
        .contains("never mentioned in a test"));
    assert!(report.findings[4].message.contains("SCH-02"));
    assert!(report.findings[5].message.contains("ISO-02"));
}

#[test]
fn sa01_ranges_and_variant_names_satisfy_coherence() {
    assert_clean("sa01_good");
}

#[test]
fn sa02_unregistered_names_and_unpaired_spans_fire() {
    let report = lint("sa02_bad");
    let f = "crates/dbms/src/lib.rs";
    assert_eq!(
        triples(&report),
        vec![
            ("SA-02".into(), f.into(), 4),
            ("SA-02".into(), f.into(), 5),
            ("SA-02".into(), f.into(), 6),
            ("SA-02".into(), f.into(), 7),
            ("SA-02".into(), f.into(), 8),
        ]
    );
    assert!(report.findings[0].message.contains("kinds::MISSING"));
    assert!(report.findings[1].message.contains("untracked"));
    assert!(report.findings[4]
        .message
        .contains("1 begin_span but 0 end_span"));
}

#[test]
fn sa02_registered_and_paired_spans_pass() {
    assert_clean("sa02_good");
}

#[test]
fn sa03_wall_clock_and_hash_iteration_fire() {
    let report = lint("sa03_bad");
    let f = "crates/sim/src/lib.rs";
    assert_eq!(
        triples(&report),
        vec![
            ("SA-03".into(), f.into(), 5),
            ("SA-03".into(), f.into(), 5),
            ("SA-03".into(), f.into(), 10),
        ]
    );
    assert!(report.findings[2].message.contains("HashMap"));
}

#[test]
fn sa03_ordered_iteration_passes() {
    assert_clean("sa03_good");
}

#[test]
fn sa04_raw_primitives_and_spawn_fire() {
    let report = lint("sa04_bad");
    let f = "crates/sim/src/lib.rs";
    assert_eq!(
        triples(&report),
        vec![("SA-04".into(), f.into(), 1), ("SA-04".into(), f.into(), 8),]
    );
    assert!(report.findings[0].message.contains("Mutex"));
    assert!(report.findings[1].message.contains("thread::spawn"));
}

#[test]
fn sa04_sync_shim_passes() {
    assert_clean("sa04_good");
}

#[test]
fn sa05_missing_safety_comment_fires_and_inventories() {
    let report = lint("sa05_bad");
    assert_eq!(
        triples(&report),
        vec![("SA-05".into(), "crates/x/src/lib.rs".into(), 2)]
    );
    assert_eq!(report.unsafe_inventory.len(), 1);
    assert!(!report.unsafe_inventory[0].has_safety_comment);
}

#[test]
fn sa05_safety_comment_passes_and_inventories() {
    let report = assert_clean("sa05_good");
    assert_eq!(report.unsafe_inventory.len(), 1);
    assert!(report.unsafe_inventory[0].has_safety_comment);
    assert_eq!(report.unsafe_inventory[0].kind, "block");
}

#[test]
fn sa06_undocumented_allow_fires() {
    let report = lint("sa06_bad");
    assert_eq!(
        triples(&report),
        vec![("SA-06".into(), "crates/x/src/lib.rs".into(), 1)]
    );
    assert!(report.findings[0].message.contains("unwrap_used"));
}

#[test]
fn sa06_justified_allow_passes() {
    assert_clean("sa06_good");
}

#[test]
fn json_document_carries_all_sections() {
    let ws = Workspace::load(&fixture_root("sa05_bad")).unwrap();
    let report = run(&ws);
    let json = pstore_lint::to_json(&report, &ws);
    assert!(json.starts_with("{\"format\":\"pstore-lint/v1\""));
    assert!(json.contains("\"root\":"));
    assert!(json.contains("\"files_scanned\":1"));
    assert!(json.contains("\"findings\":["));
    assert!(json.contains("\"waived\":["));
    assert!(json.contains("\"unsafe_inventory\":["));
    assert!(json.contains("\"has_safety_comment\":false"));
}

#[test]
fn exit_codes_follow_the_trace_diff_contract() {
    assert_eq!(lint("sa05_bad").exit_code(), 1);
    assert_eq!(lint("sa05_good").exit_code(), 0);
}

/// The real workspace must stay lint-clean: every finding is either
/// fixed or carries an inline waiver with a reason. This is the same
/// gate `scripts/static_analysis.sh` and CI enforce via the binary.
#[test]
fn real_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root");
    let ws = Workspace::load(root).unwrap();
    assert!(ws.files.len() > 100, "workspace scan looks truncated");
    let report = run(&ws);
    assert!(
        report.findings.is_empty(),
        "workspace has un-waived findings:\n{}",
        report
            .findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Every waiver in the tree must carry a reason (guaranteed by
    // construction, double-checked here for the report consumers).
    assert!(report.waived.iter().all(|w| !w.reason.is_empty()));
}
