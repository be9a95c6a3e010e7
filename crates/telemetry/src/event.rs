//! Structured events: the unit every sink records.
//!
//! An [`Event`] is a stable `kind` string (see [`kinds`]) plus a small
//! flat list of typed fields. Events carry a global sequence number (so
//! traces have a total order even when the sim clock stalls) and the
//! simulated-time timestamp that was current when they were emitted.

use crate::json::{self, Json};

/// A typed field value attached to an [`Event`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer (counts, ids, slots, bytes).
    U64(u64),
    /// Signed integer (deltas).
    I64(i64),
    /// Floating point (latencies, rates, costs).
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Short string (names, reasons).
    Str(String),
}

impl Value {
    /// The value as `u64` if it is an unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `f64` (integers widen losslessly up to 2^53).
    pub fn as_f64(&self) -> Option<f64> {
        #[allow(clippy::cast_precision_loss)] // telemetry readout, 2^53 is ample
        match self {
            Value::U64(v) => Some(*v as f64),
            Value::I64(v) => Some(*v as f64),
            Value::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(u64::from(v))
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        // usize -> u64 is lossless on every supported target.
        Value::U64(u64::try_from(v).unwrap_or(u64::MAX))
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// One structured telemetry record.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Global monotonic sequence number (total order across a run).
    pub seq: u64,
    /// Simulated time in seconds, if a clock was set when emitting.
    pub t: Option<f64>,
    /// Wall-clock microseconds since the process's telemetry epoch,
    /// stamped at emission. Unlike `t` (which tracks *simulated* time and
    /// is deterministic for a fixed seed), `wall_us` measures real
    /// elapsed time and differs run to run — it is what the span-tree
    /// profiler (`pstore-trace profile --wall`) aggregates.
    pub wall_us: Option<u64>,
    /// Stable event kind; one of the [`kinds`] constants.
    pub kind: String,
    /// Flat key/value payload, in insertion order.
    pub fields: Vec<(String, Value)>,
}

impl Event {
    /// Creates an event of `kind` with no fields (seq/t/wall filled at
    /// emit).
    pub fn new(kind: &str) -> Self {
        Event {
            seq: 0,
            t: None,
            wall_us: None,
            kind: kind.to_string(),
            fields: Vec::new(),
        }
    }

    /// Builder-style field append.
    #[must_use]
    pub fn with(mut self, key: &str, value: impl Into<Value>) -> Self {
        self.fields.push((key.to_string(), value.into()));
        self
    }

    /// Looks up a field by key.
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Field as `u64`, if present and unsigned.
    pub fn field_u64(&self, key: &str) -> Option<u64> {
        self.field(key).and_then(Value::as_u64)
    }

    /// Field as `f64`, if present and numeric.
    pub fn field_f64(&self, key: &str) -> Option<f64> {
        self.field(key).and_then(Value::as_f64)
    }

    /// Field as `&str`, if present and a string.
    pub fn field_str(&self, key: &str) -> Option<&str> {
        self.field(key).and_then(Value::as_str)
    }

    /// Serialises the event as a single-line JSON object.
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(64 + 24 * self.fields.len());
        out.push_str("{\"seq\":");
        let _ = std::fmt::Write::write_fmt(&mut out, format_args!("{}", self.seq));
        if let Some(t) = self.t {
            out.push_str(",\"t\":");
            json::write_f64(&mut out, t);
        }
        if let Some(w) = self.wall_us {
            out.push_str(",\"wall_us\":");
            let _ = std::fmt::Write::write_fmt(&mut out, format_args!("{w}"));
        }
        out.push_str(",\"kind\":");
        json::write_str(&mut out, &self.kind);
        for (k, v) in &self.fields {
            out.push(',');
            json::write_str(&mut out, k);
            out.push(':');
            match v {
                Value::U64(n) => {
                    let _ = std::fmt::Write::write_fmt(&mut out, format_args!("{n}"));
                }
                Value::I64(n) => {
                    let _ = std::fmt::Write::write_fmt(&mut out, format_args!("{n}"));
                }
                Value::F64(n) => json::write_f64(&mut out, *n),
                Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                Value::Str(s) => json::write_str(&mut out, s),
            }
        }
        out.push('}');
        out
    }

    /// Parses an event back from a JSON object produced by
    /// [`Event::to_json_line`].
    ///
    /// Numbers that are non-negative integers parse as [`Value::U64`];
    /// negative integers as [`Value::I64`]; everything else as
    /// [`Value::F64`]. Unknown shapes (nested arrays/objects) are
    /// rejected — trace lines are flat by construction.
    ///
    /// # Errors
    /// Returns a description of the structural problem when the object
    /// is missing `seq`/`kind` or holds a non-scalar field.
    pub fn from_json(value: &Json) -> Result<Event, String> {
        let obj = value.as_obj().ok_or("trace line is not a JSON object")?;
        let seq = obj
            .get("seq")
            .and_then(Json::as_num)
            .ok_or("missing numeric \"seq\"")?;
        if seq < 0.0 || seq.fract() != 0.0 {
            return Err("\"seq\" is not a non-negative integer".to_string());
        }
        let kind = obj
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("missing string \"kind\"")?
            .to_string();
        let t = match obj.get("t") {
            Some(Json::Num(n)) => Some(*n),
            Some(Json::Null) | None => None,
            Some(_) => return Err("\"t\" is not a number".to_string()),
        };
        let wall_us = match obj.get("wall_us") {
            Some(Json::Num(n)) if *n >= 0.0 && n.fract() == 0.0 => {
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                // checked non-negative integral above
                Some(*n as u64)
            }
            Some(Json::Null) | None => None,
            Some(_) => return Err("\"wall_us\" is not a non-negative integer".to_string()),
        };
        let mut fields = Vec::new();
        for (k, v) in obj {
            if k == "seq" || k == "t" || k == "wall_us" || k == "kind" {
                continue;
            }
            let value = match v {
                Json::Num(n) => num_to_value(*n),
                Json::Bool(b) => Value::Bool(*b),
                Json::Str(s) => Value::Str(s.clone()),
                Json::Null => Value::F64(f64::NAN),
                Json::Arr(_) | Json::Obj(_) => {
                    return Err(format!("field \"{k}\" is not a scalar"));
                }
            };
            fields.push((k.clone(), value));
        }
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        // checked non-negative integral above
        let seq = seq as u64;
        Ok(Event {
            seq,
            t,
            wall_us,
            kind,
            fields,
        })
    }
}

/// Encodes a key-level version history for a `txn_rwset` field (`rset` /
/// `wset`): each `(table, key, version)` entry renders as
/// `table:key@version` and entries are joined with `;`. Key text is
/// escaped (`\` → `\\`, `;` → `\;`, `@` → `\@`) so arbitrary key
/// displays round-trip; the table id and version are plain decimal.
/// Event fields are flat scalars by contract ([`Event::from_json`]
/// rejects arrays), so set-valued payloads ride in strings.
pub fn encode_key_versions(entries: impl IntoIterator<Item = (u64, String, u64)>) -> String {
    let mut out = String::new();
    for (table, key, version) in entries {
        if !out.is_empty() {
            out.push(';');
        }
        let _ = std::fmt::Write::write_fmt(&mut out, format_args!("{table}:"));
        for c in key.chars() {
            if matches!(c, '\\' | ';' | '@') {
                out.push('\\');
            }
            out.push(c);
        }
        let _ = std::fmt::Write::write_fmt(&mut out, format_args!("@{version}"));
    }
    out
}

/// Decodes a string produced by [`encode_key_versions`] back into
/// `(table, key, version)` entries. The empty string decodes to an empty
/// list (an empty access set encodes to `""`).
///
/// # Errors
/// Returns a description of the malformed entry when the text does not
/// follow the `table:key@version` grammar.
pub fn parse_key_versions(text: &str) -> Result<Vec<(u64, String, u64)>, String> {
    let mut entries = Vec::new();
    if text.is_empty() {
        return Ok(entries);
    }
    let mut chars = text.chars().peekable();
    loop {
        // table id: decimal digits up to ':'
        let mut table_digits = String::new();
        for c in chars.by_ref() {
            if c == ':' {
                break;
            }
            table_digits.push(c);
        }
        let table: u64 = table_digits
            .parse()
            .map_err(|_| format!("bad table id {table_digits:?} in key-version entry"))?;
        // key: escaped text up to an unescaped '@'
        let mut key = String::new();
        let mut terminated = false;
        while let Some(c) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some(esc) => key.push(esc),
                    None => return Err("dangling escape in key-version entry".to_string()),
                },
                '@' => {
                    terminated = true;
                    break;
                }
                other => key.push(other),
            }
        }
        if !terminated {
            return Err(format!("key-version entry for key {key:?} has no version"));
        }
        // version: decimal digits up to an (unescapable) ';' or the end
        let mut version_digits = String::new();
        let mut more = false;
        for c in chars.by_ref() {
            if c == ';' {
                more = true;
                break;
            }
            version_digits.push(c);
        }
        let version: u64 = version_digits
            .parse()
            .map_err(|_| format!("bad version {version_digits:?} in key-version entry"))?;
        entries.push((table, key, version));
        if !more {
            return Ok(entries);
        }
    }
}

fn num_to_value(n: f64) -> Value {
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    // guarded: integral, in-range, non-negative
    if n.fract() == 0.0 && (0.0..=9_007_199_254_740_992.0).contains(&n) {
        Value::U64(n as u64)
    } else if n.fract() == 0.0 && (-9_007_199_254_740_992.0..0.0).contains(&n) {
        #[allow(clippy::cast_possible_truncation)] // integral, in i64 range
        Value::I64(n as i64)
    } else {
        Value::F64(n)
    }
}

/// Stable event-kind names.
///
/// These strings are the contract between the instrumented crates, the
/// JSONL traces on disk, `pstore-trace`, and the `TEL-*` invariants in
/// `pstore-verify`. Add new kinds freely; never rename existing ones.
pub mod kinds {
    /// A span opened: fields `id`, `name`, plus span-specific extras.
    pub const SPAN_BEGIN: &str = "span_begin";
    /// A span closed: fields `id`, `name`, plus span-specific extras.
    pub const SPAN_END: &str = "span_end";
    /// Span name used for a reconfiguration (begin fields: `from`, `to`).
    pub const SPAN_RECONFIG: &str = "reconfig";
    /// One chunk migrated: `from`, `to`, `slot`, `bytes`, `rows`,
    /// `slot_completed`.
    pub const CHUNK_MOVE: &str = "chunk_move";
    /// DP planner invocation: `horizon`, `n0`, `feasible`, `cost`,
    /// `end_machines`.
    pub const PLANNER: &str = "planner";
    /// Forecaster retrain attempt: `history`, `ok`.
    pub const FORECAST_RETRAIN: &str = "forecast_retrain";
    /// Forecast emitted: `horizon`, `peak`.
    pub const FORECAST_PREDICT: &str = "forecast_predict";
    /// Controller decision to reconfigure: `interval`, `machines`,
    /// `target`, `rate`, `reason`.
    pub const SCALE_DECISION: &str = "scale_decision";
    /// Per-second latency snapshot: `second`, `throughput`, `p50`, `p95`,
    /// `p99`, `mean`, `machines`, `reconfiguring`.
    pub const SECOND: &str = "second";
    /// A second whose p99 exceeded the SLA: `second`, `p99`.
    pub const SLA_VIOLATION: &str = "sla_violation";
    /// Periodic skew observation: `metric`, `value`.
    pub const SKEW_SAMPLE: &str = "skew_sample";
    /// Migration schedule planned: `from`, `to`, `rounds`.
    pub const SCHEDULE_PLANNED: &str = "schedule_planned";
    /// End-of-run metrics registry dump: one field per counter/gauge.
    pub const METRICS_SNAPSHOT: &str = "metrics_snapshot";
    /// A transaction entered the system: `id`, `slot` (sampled).
    pub const TXN_ARRIVE: &str = "txn_arrive";
    /// A transaction waited in a partition queue before executing:
    /// `id`, `wait` (seconds, total), `stall` (seconds of the wait
    /// attributed to migration interference).
    pub const TXN_QUEUE: &str = "txn_queue";
    /// A transaction's wait overlapped chunk-migration service bursts:
    /// `id`, `stall` (seconds). Emitted alongside [`TXN_QUEUE`] when the
    /// stall component is non-zero.
    pub const TXN_STALL: &str = "txn_stall";
    /// A transaction began executing: `id`, `service` (seconds).
    pub const TXN_EXECUTE: &str = "txn_execute";
    /// Terminal: the transaction committed. `id`, `total`, `queue`,
    /// `exec`, `stall` (seconds; `queue + exec + stall == total`, the
    /// TEL-06 attribution identity), `end` (completion sim time).
    pub const TXN_COMMIT: &str = "txn_commit";
    /// Terminal: the transaction aborted or was dropped. Same attribution
    /// fields as [`TXN_COMMIT`] plus `reason`.
    pub const TXN_ABORT: &str = "txn_abort";
    /// The transaction touched migrating data and was restarted against
    /// the destination partition (Squall §4.2 semantics): `id`, `slot`.
    pub const TXN_RESTART: &str = "txn_restart";
    /// Per-transaction read/write-set record captured at the `TxnCtx`
    /// access points: `id`, `slot`, `reads`, `writes`, `dest_reads`,
    /// `dest_writes`, `migrating`, `restarted`, `committed`, `proc`.
    /// When key-level capture is on (version tracking enabled in the
    /// engine *and* the transaction is sampled), two extra string
    /// fields carry the key-level version history: `rset` (each
    /// `(key, version-read)` pair) and `wset` (each
    /// `(key, version-installed)` pair), encoded by
    /// [`encode_key_versions`](crate::encode_key_versions) and decoded by
    /// [`parse_key_versions`](crate::parse_key_versions). The ISO-01..03
    /// serializability checkers in `pstore-verify` consume these fields;
    /// records without them (capture off) are skipped by those checkers.
    pub const TXN_RWSET: &str = "txn_rwset";
    /// Provisioning-observatory run header (emitted once per sim run when
    /// prov events are enabled): `q` (per-machine capacity), `d_s`
    /// (migration lead time D, seconds), `interval_s` (monitoring
    /// interval), `initial` (starting machine count), `policy`.
    pub const PROV_RUN: &str = "prov_run";
    /// One scored monitoring interval: `interval`, `observed` (measured
    /// demand over the interval), `machines` (active during it),
    /// `reconfiguring`. The ledger integrates these (PRV-01).
    pub const PROV_INTERVAL: &str = "prov_interval";
    /// A forecast joined with its later observation: `interval` (the
    /// target interval that was predicted), `horizon` (intervals ahead
    /// the prediction was made), `model`, `predicted` (raw, uninflated),
    /// `observed`. Emitted at scoring time, once per (model, horizon,
    /// interval) triple (PRV-03).
    pub const PROV_FORECAST: &str = "prov_forecast";
    /// Controller decision provenance: `id` (unique per controller
    /// instance, > 0), `interval`, `machines` (current), `target`,
    /// `reason`, `trigger` (load that tripped the decision), `peak`
    /// (predicted peak driving the size), `cost` (DP plan cost, NaN-free
    /// 0.0 when no plan), `lead` (monitoring intervals between the
    /// decision and the demand change driving it; 0 for
    /// reactive/emergency), `rate`.
    pub const PROV_DECISION: &str = "prov_decision";
    /// A reconfiguration completed, attributed to its decision: `id`
    /// (the `prov_decision` id, 0 = unattributed), `from`, `to`,
    /// `start` (sim time the move began), `duration_s`, `chunks`,
    /// `rows`, `bytes` (PRV-02).
    pub const PROV_RECONFIG: &str = "prov_reconfig";
    /// One chunk-move burst attributed to a decision: `id` (decision),
    /// `from`, `to`, `bytes`. Cheaper sibling of [`CHUNK_MOVE`] carrying
    /// the provenance join key.
    pub const PROV_CHUNK: &str = "prov_chunk";
}

/// Stable span-name strings (`span_begin`/`span_end` `name` field).
///
/// Like [`kinds`], this is a registry, not a convenience: `pstore-lint`
/// rule SA-02 rejects span names that are not declared here (or in
/// [`kinds`], for names like [`kinds::SPAN_RECONFIG`] that double as
/// event kinds), so trace-diff tooling can rely on the full name
/// vocabulary being enumerable.
pub mod span_names {
    /// One DP planner invocation (`crates/core/src/planner.rs`).
    pub const PLANNER_DP: &str = "planner_dp";
    /// A whole fast-simulator run.
    pub const FAST_SIM: &str = "fast_sim";
    /// A whole detailed-simulator run.
    pub const DETAILED_SIM: &str = "detailed_sim";
    /// Detailed-sim warmup phase (excluded from reported latencies).
    pub const WARMUP: &str = "warmup";
    /// One detailed-sim tick (only emitted under span-level profiling).
    pub const TICK: &str = "tick";
    /// One chunk-granularity migration step inside a reconfiguration.
    pub const CHUNK_STEP: &str = "chunk_step";
    /// Per-worker unit of work in the concurrency verification harness.
    pub const CON_WORK: &str = "con_work";
    /// Generic worker span used by pool/sweep smoke tests.
    pub const WORK: &str = "work";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_json_round_trip() {
        let mut ev = Event::new(kinds::CHUNK_MOVE)
            .with("from", 3u32)
            .with("to", 7u32)
            .with("bytes", 1_048_576u64)
            .with("frac", 0.25)
            .with("done", true)
            .with("why", "scale-out");
        ev.seq = 42;
        ev.t = Some(12.5);
        let line = ev.to_json_line();
        let parsed = Event::from_json(&crate::json::parse(&line).unwrap()).unwrap();
        assert_eq!(parsed.seq, 42);
        assert_eq!(parsed.t, Some(12.5));
        assert_eq!(parsed.kind, kinds::CHUNK_MOVE);
        assert_eq!(parsed.field_u64("from"), Some(3));
        assert_eq!(parsed.field_u64("bytes"), Some(1_048_576));
        assert_eq!(parsed.field_f64("frac"), Some(0.25));
        assert_eq!(parsed.field("done").and_then(Value::as_bool), Some(true));
        assert_eq!(parsed.field_str("why"), Some("scale-out"));
    }

    #[test]
    fn from_json_rejects_structural_problems() {
        let bad = crate::json::parse(r#"{"kind":"x"}"#).unwrap();
        assert!(Event::from_json(&bad).is_err());
        let nested = crate::json::parse(r#"{"seq":1,"kind":"x","a":[1]}"#).unwrap();
        assert!(Event::from_json(&nested).is_err());
        let arr = crate::json::parse("[1,2]").unwrap();
        assert!(Event::from_json(&arr).is_err());
    }

    #[test]
    fn wall_clock_stamp_round_trips() {
        let mut ev = Event::new("x");
        ev.seq = 1;
        ev.wall_us = Some(12_345_678);
        let line = ev.to_json_line();
        assert!(line.contains("\"wall_us\":12345678"));
        let parsed = Event::from_json(&crate::json::parse(&line).unwrap()).unwrap();
        assert_eq!(parsed.wall_us, Some(12_345_678));
        // Absent stamp parses back as None (older traces stay readable).
        let old = crate::json::parse(r#"{"seq":1,"kind":"x"}"#).unwrap();
        assert_eq!(Event::from_json(&old).unwrap().wall_us, None);
        // A fractional or negative stamp is rejected.
        let bad = crate::json::parse(r#"{"seq":1,"kind":"x","wall_us":1.5}"#).unwrap();
        assert!(Event::from_json(&bad).is_err());
    }

    #[test]
    fn key_versions_round_trip_with_escaping() {
        let entries = vec![
            (0u64, "('c', 2)".to_string(), 3u64),
            (5, "we;rd@key\\with(':')".to_string(), 0),
            (1, String::new(), 17),
        ];
        let encoded = encode_key_versions(entries.clone());
        assert_eq!(parse_key_versions(&encoded).unwrap(), entries);
        // Empty set round-trips through the empty string.
        assert_eq!(encode_key_versions(Vec::new()), "");
        assert_eq!(parse_key_versions("").unwrap(), Vec::new());
        // The plain shape is human-readable.
        assert_eq!(encode_key_versions(vec![(2, "k".to_string(), 9)]), "2:k@9");
    }

    #[test]
    fn key_versions_reject_malformed_entries() {
        assert!(parse_key_versions("x:k@1").is_err()); // non-numeric table
        assert!(parse_key_versions("1:k@").is_err()); // missing version
        assert!(parse_key_versions("1:k").is_err()); // no version separator
        assert!(parse_key_versions("1:k\\").is_err()); // dangling escape
        assert!(parse_key_versions("1:k@2;").is_err()); // trailing empty entry
    }

    #[test]
    fn negative_integers_parse_as_i64() {
        let v = crate::json::parse(r#"{"seq":0,"kind":"x","d":-5}"#).unwrap();
        let ev = Event::from_json(&v).unwrap();
        assert_eq!(ev.field("d"), Some(&Value::I64(-5)));
    }
}
