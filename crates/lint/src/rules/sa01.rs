//! SA-01 — invariant-registry coherence.
//!
//! `crates/core/src/invariant.rs` is the single source of truth for
//! invariant ids. For every code registered there (`SCH-01`, `TEL-04`,
//! …) this rule requires, **in both directions**:
//!
//! * a checker reference in `crates/verify/src/` — the code, its range
//!   shorthand (`SCH-01..06`), or the `InvariantId` variant name;
//! * a section in `docs/invariants.md`;
//! * at least one test mention (a `tests/` file or `#[cfg(test)]` code)
//!   anywhere in the workspace;
//! * and, reversed, every code `docs/invariants.md` mentions for a
//!   *registered family* must exist in the registry — dead doc sections
//!   fail too. (Unknown families are ignored so the doc can discuss
//!   other systems' rule ids.)
//!
//! Codes listed in the registry's `RETIRED_CODES` constant may stay in
//! the doc (as retired entries) but must never be registered again.

use std::collections::BTreeMap;

use crate::lexer::TokKind;
use crate::rules::{codes_in_text, is_code};
use crate::{Finding, Workspace};

/// Relative path of the registry file.
pub const REGISTRY: &str = "crates/core/src/invariant.rs";
/// Relative path prefix of the verifier sources.
const VERIFY_PREFIX: &str = "crates/verify/src/";
/// Relative path of the invariant catalogue document.
const DOC: &str = "docs/invariants.md";

/// Extracts `code -> variant name` from the registry's `code()` match
/// arms (`InvariantId::ScheduleRoundCount => "SCH-01"`).
fn registry_codes(ws: &Workspace) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    let Some(file) = ws.file(REGISTRY) else {
        return out;
    };
    let t = &file.lexed.toks;
    for i in 0..t.len() {
        if t[i].is_ident("InvariantId")
            && t.get(i + 1).is_some_and(|x| x.is_punct(':'))
            && t.get(i + 2).is_some_and(|x| x.is_punct(':'))
            && t.get(i + 3).is_some_and(|x| x.kind == TokKind::Ident)
            && t.get(i + 4).is_some_and(|x| x.is_punct('='))
            && t.get(i + 5).is_some_and(|x| x.is_punct('>'))
            && t.get(i + 6).is_some_and(|x| x.kind == TokKind::Str)
        {
            let code = t[i + 6].text.clone();
            if is_code(&code) {
                // `code()` comes before `paper_ref()`; keep the first
                // string seen for a variant, which is the code.
                out.entry(code).or_insert_with(|| t[i + 3].text.clone());
            }
        }
    }
    out
}

/// The string literals of the registry's `RETIRED_CODES` constant.
fn retired_codes(ws: &Workspace) -> Vec<String> {
    let Some(file) = ws.file(REGISTRY) else {
        return Vec::new();
    };
    let t = &file.lexed.toks;
    // The initializer runs from the `=` after the name to the next `;`
    // (the type's `[&str; N]` carries a `;` of its own).
    let Some(name) = t.iter().position(|x| x.is_ident("RETIRED_CODES")) else {
        return Vec::new();
    };
    let Some(eq) = t[name..].iter().position(|x| x.is_punct('=')) else {
        return Vec::new();
    };
    t[name + eq..]
        .iter()
        .take_while(|x| !x.is_punct(';'))
        .filter(|x| x.kind == TokKind::Str && is_code(&x.text))
        .map(|x| x.text.clone())
        .collect()
}

/// Runs the rule.
pub fn check(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    let registry = registry_codes(ws);
    if registry.is_empty() {
        // No registry file in this tree (e.g. a fixture for another
        // rule): nothing to check.
        return findings;
    }
    let registry_line = |code: &str| -> u32 {
        ws.file(REGISTRY)
            .and_then(|f| {
                f.lexed
                    .toks
                    .iter()
                    .find(|t| t.kind == TokKind::Str && t.text == *code)
                    .map(|t| t.line)
            })
            .unwrap_or(0)
    };

    // Gather the three cross-reference corpora.
    let mut verify_text = String::new();
    let mut test_text = String::new();
    for f in &ws.files {
        if f.rel_path.starts_with(VERIFY_PREFIX) {
            verify_text.push_str(&f.text);
            verify_text.push('\n');
        }
        if f.is_test_file {
            test_text.push_str(&f.text);
            test_text.push('\n');
        } else if let Some(line) = f.test_start_line {
            // Only the `#[cfg(test)]` tail of a src file is test text.
            for (idx, l) in f.text.lines().enumerate() {
                #[allow(clippy::cast_possible_truncation)] // file line counts fit u32
                let ln = (idx + 1) as u32;
                if ln >= line {
                    test_text.push_str(l);
                    test_text.push('\n');
                }
            }
        }
    }
    let doc_text = ws.docs.get(DOC).cloned().unwrap_or_default();
    let retired = retired_codes(ws);

    let verify_codes = codes_in_text(&verify_text);
    let doc_codes = codes_in_text(&doc_text);
    let test_codes = codes_in_text(&test_text);

    for (code, variant) in &registry {
        let line = registry_line(code);
        if retired.contains(code) {
            findings.push(Finding {
                rule: "SA-01",
                file: REGISTRY.to_string(),
                line,
                message: format!(
                    "invariant {code} ({variant}) reuses a retired code — retired ids are \
                     never reassigned; pick the family's next free number"
                ),
            });
        }
        if !verify_codes.contains(code) && !verify_text.contains(variant.as_str()) {
            findings.push(Finding {
                rule: "SA-01",
                file: REGISTRY.to_string(),
                line,
                message: format!(
                    "invariant {code} ({variant}) has no checker reference in {VERIFY_PREFIX} \
                     — mention the code or the variant where it is verified"
                ),
            });
        }
        if !doc_codes.contains(code) {
            findings.push(Finding {
                rule: "SA-01",
                file: REGISTRY.to_string(),
                line,
                message: format!(
                    "invariant {code} ({variant}) has no section in {DOC} — document it in the \
                     family's catalogue table"
                ),
            });
        }
        if !test_codes.contains(code) && !test_text.contains(variant.as_str()) {
            findings.push(Finding {
                rule: "SA-01",
                file: REGISTRY.to_string(),
                line,
                message: format!(
                    "invariant {code} ({variant}) is never mentioned in a test \
                     (tests/ files or #[cfg(test)] code) — reference it from the test \
                     that exercises it"
                ),
            });
        }
    }

    // Reverse direction: dead codes in the doc for registered families.
    let families: std::collections::BTreeSet<&str> = registry
        .keys()
        .filter_map(|c| c.split('-').next())
        .collect();
    for code in &doc_codes {
        let fam = code.split('-').next().unwrap_or("");
        if families.contains(fam) && !registry.contains_key(code) && !retired.contains(code) {
            let line = doc_text
                .lines()
                .position(|l| l.contains(code.as_str()))
                .map_or(0, |i| u32::try_from(i + 1).unwrap_or(0));
            findings.push(Finding {
                rule: "SA-01",
                file: DOC.to_string(),
                line,
                message: format!(
                    "{DOC} mentions {code} but the registry ({REGISTRY}) does not define it — \
                     remove the dead section or register the invariant"
                ),
            });
        }
    }
    findings
}
