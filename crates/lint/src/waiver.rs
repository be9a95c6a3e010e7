//! Inline waiver parsing and resolution.
//!
//! A finding can be suppressed with a comment of the form
//!
//! ```text
//! // pstore-lint: allow(SA-03): reason the exception is sound
//! ```
//!
//! either trailing on the offending line or as a full-line comment
//! directly above it (stacked waiver comments all apply to the next code
//! line). The reason clause is **mandatory**: a waiver without one, or
//! naming an unknown rule, is itself reported under `SA-00`.

use crate::lexer::Lexed;
use crate::{is_known_rule, Finding, Workspace};

/// The marker every waiver comment starts with.
const MARKER: &str = "pstore-lint: allow(";

/// One parsed waiver comment.
#[derive(Debug, Clone)]
pub struct Waiver {
    /// 1-based line of the waiver comment.
    pub line: u32,
    /// The waived rule id, as written (possibly unknown).
    pub rule: String,
    /// Justification text after the second colon, trimmed.
    pub reason: String,
    /// The code line this waiver covers (same line for trailing
    /// comments, the next code line for full-line comments).
    pub covers_line: u32,
}

impl Waiver {
    /// Returns a description of what is wrong with the waiver, if
    /// anything — a missing reason or an unknown rule id.
    pub fn problem(&self) -> Option<String> {
        if !is_known_rule(&self.rule) {
            return Some(format!(
                "waiver names unknown rule `{}` (known: SA-00..SA-06)",
                self.rule
            ));
        }
        if self.reason.is_empty() {
            return Some(format!(
                "waiver for {} has no reason; write `// pstore-lint: allow({}): <why>`",
                self.rule, self.rule
            ));
        }
        None
    }
}

/// Extracts every waiver comment from a lexed file.
pub fn parse_waivers(lexed: &Lexed) -> Vec<Waiver> {
    let mut out = Vec::new();
    for c in &lexed.comments {
        let Some(at) = c.text.find(MARKER) else {
            continue;
        };
        let rest = &c.text[at + MARKER.len()..];
        let (rule, after) = match rest.split_once(')') {
            Some((r, a)) => (r.trim().to_string(), a),
            None => (rest.trim().to_string(), ""),
        };
        let reason = after
            .trim_start()
            .strip_prefix(':')
            .unwrap_or("")
            .trim()
            .to_string();
        let covers_line = if lexed.has_code_on_line(c.line) {
            c.line
        } else {
            // Full-line comment: covers the next line that has code.
            lexed.next_code_line(c.end_line).unwrap_or(c.end_line)
        };
        out.push(Waiver {
            line: c.line,
            rule,
            reason,
            covers_line,
        });
    }
    out
}

/// Finds a well-formed waiver covering `finding`, returning its reason.
///
/// Stacked full-line waiver comments all resolve to the same next code
/// line, so several rules can be waived above one statement.
pub fn find_covering(ws: &Workspace, finding: &Finding) -> Option<String> {
    let file = ws.file(&finding.file)?;
    file.waivers
        .iter()
        .find(|w| w.problem().is_none() && w.rule == finding.rule && w.covers_line == finding.line)
        .map(|w| w.reason.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn trailing_and_full_line_waivers_resolve() {
        let src = "\
// pstore-lint: allow(SA-03): stacked reason
let a = now(); // pstore-lint: allow(SA-04): trailing reason
let b = 2;
";
        let lexed = lex(src);
        let ws = parse_waivers(&lexed);
        assert_eq!(ws.len(), 2);
        assert_eq!(ws[0].rule, "SA-03");
        assert_eq!(ws[0].covers_line, 2);
        assert_eq!(ws[1].rule, "SA-04");
        assert_eq!(ws[1].covers_line, 2);
        assert!(ws.iter().all(|w| w.problem().is_none()));
    }

    #[test]
    fn missing_reason_and_unknown_rule_are_problems() {
        let lexed =
            lex("// pstore-lint: allow(SA-03)\n// pstore-lint: allow(SA-99): x\nfn f() {}\n");
        let ws = parse_waivers(&lexed);
        assert_eq!(ws.len(), 2);
        assert!(ws[0].problem().is_some_and(|p| p.contains("no reason")));
        assert!(ws[1].problem().is_some_and(|p| p.contains("unknown rule")));
    }
}
