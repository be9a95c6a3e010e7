//! Serializability checkers: the `ISO-*` invariant family.
//!
//! The engine samples key-level version histories into widened
//! `txn_rwset` events (`rset` / `wset` fields — see
//! `docs/observability.md`). This module decodes those histories and
//! checks them IsoPredict-style (PAPERS.md): build the direct
//! serialization graph — WR edges from the version each read observed,
//! WW edges from per-key version order, RW anti-dependencies from the
//! version a read *missed* — and verify:
//!
//! - `ISO-01`: the DSG is acyclic (the history is
//!   conflict-serializable), with the violating cycle named
//!   edge-by-edge in the diagnostic;
//! - `ISO-02`: every read observes a version installed at or before the
//!   reader in the commit order (serialization order is equivalent to
//!   the commit order — no read from the future);
//! - `ISO-03`: Squall-style restarts leave no orphan versions — each
//!   `(key, version)` has exactly one installer, per-key versions are
//!   installed in strictly increasing order, and a transaction's reads
//!   are consistent with its own writes even across a mid-migration
//!   restart.
//!
//! Sampling is fine: unsampled transactions still bump the engine's
//! per-key version counters, so the versions sampled transactions
//! observe order correctly against each other even when intermediate
//! writers went unrecorded. Edges are only drawn between sampled
//! transactions, which keeps every edge sound (a missed intermediate
//! writer can only *remove* an edge, never invert one).

use pstore_core::{InvariantId, Violation};
use pstore_telemetry::{kinds, parse_key_versions, Event, Value};
use std::collections::HashMap;

/// One key-level access: `(table, key display, version)`.
pub type KeyVersion = (u64, String, u64);

/// One sampled transaction's key-level history, decoded from a widened
/// `txn_rwset` event. The engine executes procedures directly against
/// the store (no undo), so writes completed before a business abort are
/// real installs — histories therefore track *execution* rather than
/// commit status, and `committed` is informational.
#[derive(Debug, Clone)]
pub struct TxnHistory {
    /// Trace id (the simulator's arrival sequence number).
    pub id: u64,
    /// `(table, key, version-read)` for every read, in program order.
    pub reads: Vec<KeyVersion>,
    /// `(table, key, version-installed)` for every write, in program
    /// order.
    pub writes: Vec<KeyVersion>,
    /// Whether the transaction touched a migration destination (the
    /// Squall restart-on-moved-data path).
    pub restarted: bool,
    /// Whether the transaction committed.
    pub committed: bool,
}

impl TxnHistory {
    /// A history with no accesses (builder root for tests).
    pub fn new(id: u64) -> Self {
        TxnHistory {
            id,
            reads: Vec::new(),
            writes: Vec::new(),
            restarted: false,
            committed: true,
        }
    }

    /// Builder: appends a read of `key@version`.
    #[must_use]
    pub fn read(mut self, table: u64, key: &str, version: u64) -> Self {
        self.reads.push((table, key.to_string(), version));
        self
    }

    /// Builder: appends an install of `key@version`.
    #[must_use]
    pub fn write(mut self, table: u64, key: &str, version: u64) -> Self {
        self.writes.push((table, key.to_string(), version));
        self
    }

    /// Builder: marks the transaction as restarted mid-migration.
    #[must_use]
    pub fn restarted(mut self) -> Self {
        self.restarted = true;
        self
    }
}

/// Decodes the key-level histories out of a trace, in commit (emission)
/// order. `txn_rwset` records without `rset`/`wset` fields — unsampled
/// capture-off records, including all pre-existing golden traces — are
/// skipped.
///
/// # Errors
/// Returns a description of the first undecodable record.
pub fn histories_of(events: &[Event]) -> Result<Vec<TxnHistory>, String> {
    let mut out = Vec::new();
    for ev in events.iter().filter(|e| e.kind == kinds::TXN_RWSET) {
        let Some(rset) = ev.field_str("rset") else {
            continue;
        };
        let wset = ev
            .field_str("wset")
            .ok_or("txn_rwset has rset but no wset")?;
        let id = ev.field_u64("id").ok_or("txn_rwset without id")?;
        let reads = parse_key_versions(rset).map_err(|e| format!("txn {id} rset: {e}"))?;
        let writes = parse_key_versions(wset).map_err(|e| format!("txn {id} wset: {e}"))?;
        out.push(TxnHistory {
            id,
            reads,
            writes,
            restarted: ev
                .field("restarted")
                .and_then(Value::as_bool)
                .unwrap_or(false),
            committed: ev
                .field("committed")
                .and_then(Value::as_bool)
                .unwrap_or(true),
        });
    }
    Ok(out)
}

/// A dependency-edge kind in the direct serialization graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// Write-read: the reader observed the version this installer wrote.
    Wr,
    /// Write-write: per-key version order.
    Ww,
    /// Read-write anti-dependency: the installer overwrote the version
    /// this reader observed (the reader "missed" the newer version).
    Rw,
}

impl EdgeKind {
    fn label(self) -> &'static str {
        match self {
            EdgeKind::Wr => "WR",
            EdgeKind::Ww => "WW",
            EdgeKind::Rw => "RW",
        }
    }
}

/// Size summary of a DSG, for sweep reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct DsgStats {
    /// Sampled transactions with captured accesses.
    pub txns: usize,
    /// Distinct `(table, key)` pairs touched.
    pub keys: usize,
    /// Write-read edges.
    pub wr: usize,
    /// Write-write edges.
    pub ww: usize,
    /// Read-write anti-dependency edges.
    pub rw: usize,
}

struct Edge {
    to: usize,
    kind: EdgeKind,
    key: usize,
}

/// The direct serialization graph plus the interning tables needed to
/// name nodes and keys in diagnostics.
struct Dsg {
    /// `adj[i]` = out-edges of the transaction at commit position `i`.
    adj: Vec<Vec<Edge>>,
    /// Interned `(table, key)` pairs; edges refer to these by index.
    keys: Vec<(u64, String)>,
    stats: DsgStats,
}

impl Dsg {
    fn key_label(&self, key: usize) -> String {
        let (table, ref k) = self.keys[key];
        format!("t{table}:{k}")
    }
}

/// Interns a `(table, key)` pair, returning its stable index.
fn intern(
    ids: &mut HashMap<(u64, String), usize>,
    keys: &mut Vec<(u64, String)>,
    table: u64,
    key: &str,
) -> usize {
    use std::collections::hash_map::Entry;
    let next = keys.len();
    match ids.entry((table, key.to_string())) {
        Entry::Occupied(e) => *e.get(),
        Entry::Vacant(e) => {
            keys.push((table, key.to_string()));
            e.insert(next);
            next
        }
    }
}

/// Builds the DSG over histories in commit order. Self-edges (a
/// transaction depending on itself through its own reads/writes) are
/// never emitted.
fn build_dsg(histories: &[TxnHistory]) -> Dsg {
    let mut key_ids: HashMap<(u64, String), usize> = HashMap::new();
    let mut keys: Vec<(u64, String)> = Vec::new();
    // (key id, version) -> commit position of the sampled installer.
    let mut installer: HashMap<(usize, u64), usize> = HashMap::new();
    // key id -> sorted list of (version, installer position).
    let mut chains: HashMap<usize, Vec<(u64, usize)>> = HashMap::new();
    for (i, h) in histories.iter().enumerate() {
        for (table, key, version) in &h.writes {
            let k = intern(&mut key_ids, &mut keys, *table, key);
            installer.entry((k, *version)).or_insert(i);
            chains.entry(k).or_default().push((*version, i));
        }
    }
    for chain in chains.values_mut() {
        chain.sort_unstable();
        chain.dedup();
    }
    let mut adj: Vec<Vec<Edge>> = (0..histories.len()).map(|_| Vec::new()).collect();
    let mut stats = DsgStats {
        txns: histories.len(),
        ..DsgStats::default()
    };
    // WW: consecutive sampled installs per key, in version order.
    for (&k, chain) in &chains {
        for pair in chain.windows(2) {
            let (from, to) = (pair[0].1, pair[1].1);
            if from != to {
                adj[from].push(Edge {
                    to,
                    kind: EdgeKind::Ww,
                    key: k,
                });
                stats.ww += 1;
            }
        }
    }
    for (i, h) in histories.iter().enumerate() {
        for (table, key, version) in &h.reads {
            let k = intern(&mut key_ids, &mut keys, *table, key);
            // WR: the sampled installer of the version this read saw.
            if let Some(&s) = installer.get(&(k, *version)) {
                if s != i {
                    adj[s].push(Edge {
                        to: i,
                        kind: EdgeKind::Wr,
                        key: k,
                    });
                    stats.wr += 1;
                }
            }
            // RW: the sampled installer of the smallest version the read
            // missed. A read observes the key's *current* (maximum)
            // version, so any greater version was installed after it.
            if let Some(chain) = chains.get(&k) {
                let next = chain.partition_point(|&(v, _)| v <= *version);
                if let Some(&(_, u)) = chain.get(next) {
                    if u != i {
                        adj[i].push(Edge {
                            to: u,
                            kind: EdgeKind::Rw,
                            key: k,
                        });
                        stats.rw += 1;
                    }
                }
            }
        }
    }
    stats.keys = keys.len();
    Dsg { adj, keys, stats }
}

/// Sizes the DSG a history set induces (for sweep reports: a clean pass
/// over a graph with zero edges proves nothing).
pub fn dsg_stats(histories: &[TxnHistory]) -> DsgStats {
    build_dsg(histories).stats
}

/// Formats a cycle (as a list of `(from, kind, key, to)` hops) like
/// `T5 -WW(t0:k)-> T7 -RW(t0:j)-> T5`.
fn cycle_label(
    dsg: &Dsg,
    histories: &[TxnHistory],
    hops: &[(usize, EdgeKind, usize, usize)],
) -> String {
    let mut out = String::new();
    for (from, kind, key, to) in hops {
        if out.is_empty() {
            out.push_str(&format!("T{}", histories[*from].id));
        }
        out.push_str(&format!(
            " -{}({})-> T{}",
            kind.label(),
            dsg.key_label(*key),
            histories[*to].id
        ));
    }
    out
}

/// Finds one cycle in the DSG (iterative DFS; histories can hold tens of
/// thousands of transactions, so no recursion). Returns the cycle's hops
/// in order, starting and ending at the same transaction.
fn find_cycle(dsg: &Dsg) -> Option<Vec<(usize, EdgeKind, usize, usize)>> {
    const WHITE: u8 = 0;
    const GRAY: u8 = 1;
    const BLACK: u8 = 2;
    let n = dsg.adj.len();
    let mut color = vec![WHITE; n];
    // Tree edge used to first reach each gray node: (parent, edge index).
    let mut pred: Vec<Option<(usize, usize)>> = vec![None; n];
    for start in 0..n {
        if color[start] != WHITE {
            continue;
        }
        color[start] = GRAY;
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        while let Some(frame) = stack.last_mut() {
            let u = frame.0;
            if frame.1 < dsg.adj[u].len() {
                let ei = frame.1;
                frame.1 += 1;
                let edge = &dsg.adj[u][ei];
                let v = edge.to;
                if color[v] == WHITE {
                    color[v] = GRAY;
                    pred[v] = Some((u, ei));
                    stack.push((v, 0));
                } else if color[v] == GRAY {
                    // Back edge u -> v closes a cycle v ->* u -> v.
                    let mut hops = vec![(u, edge.kind, edge.key, v)];
                    let mut cur = u;
                    while cur != v {
                        let Some((p, pe)) = pred[cur] else {
                            // Every gray node except the DFS root was
                            // reached through a tree edge, and the walk
                            // stays on the gray path ending at `v`.
                            unreachable!("gray non-root has a tree edge");
                        };
                        let e = &dsg.adj[p][pe];
                        hops.push((p, e.kind, e.key, cur));
                        cur = p;
                    }
                    hops.reverse();
                    return Some(hops);
                }
            } else {
                color[u] = BLACK;
                stack.pop();
            }
        }
    }
    None
}

/// Checks `ISO-01`: the direct serialization graph is acyclic. A
/// violation names the full cycle, edge kinds and keys included.
pub fn check_dsg_acyclic(artifact: &str, histories: &[TxnHistory]) -> Vec<Violation> {
    let dsg = build_dsg(histories);
    match find_cycle(&dsg) {
        None => Vec::new(),
        Some(hops) => vec![Violation::new(
            InvariantId::IsoDsgAcyclic,
            artifact,
            format!("dependency cycle: {}", cycle_label(&dsg, histories, &hops)),
        )],
    }
}

/// Checks `ISO-02`: every read observes a version whose sampled
/// installer sits at or before the reader in the commit order. (Reads of
/// versions whose installer went unsampled are vacuously fine — the
/// version counters still order them.)
pub fn check_read_commit_order(artifact: &str, histories: &[TxnHistory]) -> Vec<Violation> {
    let mut installer: HashMap<(u64, &str, u64), usize> = HashMap::new();
    for (i, h) in histories.iter().enumerate() {
        for (table, key, version) in &h.writes {
            installer.entry((*table, key, *version)).or_insert(i);
        }
    }
    let mut violations = Vec::new();
    for (i, h) in histories.iter().enumerate() {
        for (table, key, version) in &h.reads {
            if let Some(&s) = installer.get(&(*table, key.as_str(), *version)) {
                if s > i {
                    violations.push(Violation::new(
                        InvariantId::IsoReadCommitOrder,
                        artifact,
                        format!(
                            "T{} (commit position {i}) read t{table}:{key}@{version} \
                             installed by T{} at later commit position {s}",
                            h.id, histories[s].id
                        ),
                    ));
                }
            }
        }
    }
    violations
}

/// Checks `ISO-03`: restart/version integrity. Each `(key, version)` has
/// exactly one installer; per-key installed versions strictly increase
/// in commit order; and a transaction's reads of keys it wrote never
/// observe a version newer than its own last install (read-your-restart
/// — a restarted transaction must still see its own writes, not an
/// orphan version left on the migration source).
pub fn check_restart_integrity(artifact: &str, histories: &[TxnHistory]) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut installer: HashMap<(u64, &str, u64), usize> = HashMap::new();
    let mut last_version: HashMap<(u64, &str), (u64, usize)> = HashMap::new();
    for (i, h) in histories.iter().enumerate() {
        for (table, key, version) in &h.writes {
            if let Some(&first) = installer.get(&(*table, key.as_str(), *version)) {
                violations.push(Violation::new(
                    InvariantId::IsoRestartIntegrity,
                    artifact,
                    format!(
                        "t{table}:{key}@{version} installed twice: by T{} and T{}",
                        histories[first].id, h.id
                    ),
                ));
                continue;
            }
            installer.insert((*table, key.as_str(), *version), i);
            if let Some(&(prev, at)) = last_version.get(&(*table, key.as_str())) {
                if *version <= prev {
                    violations.push(Violation::new(
                        InvariantId::IsoRestartIntegrity,
                        artifact,
                        format!(
                            "t{table}:{key} version regressed: T{} installed @{version} \
                             after T{} installed @{prev}",
                            h.id, histories[at].id
                        ),
                    ));
                }
            }
            last_version.insert((*table, key.as_str()), (*version, i));
        }
        // Read-your-restart: reads of own-written keys never exceed the
        // transaction's last install of that key.
        let mut own_last: HashMap<(u64, &str), u64> = HashMap::new();
        for (table, key, version) in &h.writes {
            let e = own_last.entry((*table, key.as_str())).or_insert(0);
            *e = (*e).max(*version);
        }
        for (table, key, version) in &h.reads {
            if let Some(&own) = own_last.get(&(*table, key.as_str())) {
                if *version > own {
                    violations.push(Violation::new(
                        InvariantId::IsoRestartIntegrity,
                        artifact,
                        format!(
                            "T{}{} read t{table}:{key}@{version} beyond its own last \
                             install @{own} (orphan version)",
                            h.id,
                            if h.restarted { " (restarted)" } else { "" }
                        ),
                    ));
                }
            }
        }
    }
    violations
}

/// Runs the full `ISO-01..03` battery over decoded histories.
pub fn check_key_histories(artifact: &str, histories: &[TxnHistory]) -> Vec<Violation> {
    let mut violations = check_dsg_acyclic(artifact, histories);
    violations.extend(check_read_commit_order(artifact, histories));
    violations.extend(check_restart_integrity(artifact, histories));
    violations
}

/// Decodes the histories out of a trace and runs `ISO-01..03`. An
/// undecodable record is itself a violation (the checker must never
/// silently pass on evidence it cannot read).
pub fn check_events(artifact: &str, events: &[Event]) -> Vec<Violation> {
    match histories_of(events) {
        Ok(histories) => check_key_histories(artifact, &histories),
        Err(e) => vec![Violation::new(
            InvariantId::IsoDsgAcyclic,
            artifact,
            format!("undecodable key history: {e}"),
        )],
    }
}

/// Lists every DSG edge that points *backward* in the commit order. An
/// empty result means the commit order itself is a valid serial
/// execution of the history — the "serial witness" every run must
/// produce, since the engine executes transactions one at a time in
/// exactly that order.
pub fn serial_witness_errors(histories: &[TxnHistory]) -> Vec<String> {
    let dsg = build_dsg(histories);
    let mut errors = Vec::new();
    for (u, edges) in dsg.adj.iter().enumerate() {
        for e in edges {
            if e.to < u {
                errors.push(format!(
                    "backward edge T{} -{}({})-> T{} (commit positions {u} -> {})",
                    histories[u].id,
                    e.kind.label(),
                    dsg.key_label(e.key),
                    histories[e.to].id,
                    e.to
                ));
            }
        }
    }
    errors
}

/// One fixed-seed detailed run under a capturing sink — a load ramp
/// (300 -> 700 txn/s over 60 s, then steady) that forces the reactive
/// controller into a live scale-out, with one arrival in seven sampled
/// at key level. Shared with the iso sweep in `main.rs`.
#[cfg(feature = "telemetry")]
pub fn captured_ramp_run() -> (pstore_sim::detailed::DetailedSimResult, Vec<Event>) {
    use pstore_core::controller::reactive::{ReactiveConfig, ReactiveController};
    use pstore_sim::detailed::{run_detailed, DetailedSimConfig};

    let mut load: Vec<f64> = (0..60)
        .map(|s| 300.0 + 400.0 * f64::from(s) / 60.0)
        .collect();
    load.extend(vec![700.0; 120]);
    let mut cfg = DetailedSimConfig::paper_defaults(load, 0xBEEF);
    // The paper's 300 s decision interval would outlast this 180 s ramp;
    // tighten it so the reactive controller actually scales out mid-run.
    cfg.params.interval = std::time::Duration::from_secs(30);
    cfg.params.d = std::time::Duration::from_secs(300);
    cfg.workload.num_skus = 2_000;
    cfg.workload.initial_carts = 600;
    cfg.num_slots = 360;
    cfg.warmup_txns = 20_000;
    cfg.txn_sample_every = 7;
    let mut strat = ReactiveController::new(ReactiveConfig {
        q: 285.0,
        q_hat: 350.0,
        trigger_fraction: 0.9,
        headroom: 0.2,
        smoothing_window: 2,
        scale_in_patience: 10,
        max_machines: 10,
        initial_machines: 2,
    });
    let (sink, handle) = pstore_telemetry::MemorySink::new();
    let guard = pstore_telemetry::install(std::rc::Rc::new(sink));
    let result = run_detailed(&cfg, &mut strat);
    drop(guard);
    (result, handle.events())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(violations: &[Violation]) -> Vec<&'static str> {
        violations.iter().map(|v| v.invariant.code()).collect()
    }

    #[test]
    fn clean_serial_history_passes_everything() {
        // T1 installs k@1; T2 reads it and installs k@2; T3 reads k@2.
        let h = vec![
            TxnHistory::new(1).write(0, "k", 1),
            TxnHistory::new(2).read(0, "k", 1).write(0, "k", 2),
            TxnHistory::new(3).read(0, "k", 2),
        ];
        assert!(check_key_histories("t", &h).is_empty());
        assert!(serial_witness_errors(&h).is_empty());
        let stats = dsg_stats(&h);
        assert_eq!((stats.txns, stats.keys), (3, 1));
        // T2's "missed" version of k is its own install — a self-edge,
        // never emitted — so the only RW candidates vanish.
        assert_eq!((stats.wr, stats.ww, stats.rw), (2, 1, 0));
    }

    #[test]
    fn lost_update_cycle_is_named() {
        // Classic lost update: both transactions read k@1, both install —
        // T2's RW edge to T3 and T3's WR/WW ancestry close a cycle.
        let h = vec![
            TxnHistory::new(1).write(0, "k", 1),
            TxnHistory::new(2).read(0, "k", 1).write(0, "k", 2),
            TxnHistory::new(3).read(0, "k", 1).write(0, "k", 3),
        ];
        let violations = check_dsg_acyclic("t", &h);
        assert_eq!(codes(&violations), ["ISO-01"]);
        let detail = &violations[0].detail;
        // The cycle T2 -WW-> T3 -RW-> T2 (or a rotation) is named with
        // both transactions, edge kinds, and the key.
        assert!(detail.contains("T2"), "{detail}");
        assert!(detail.contains("T3"), "{detail}");
        assert!(detail.contains("(t0:k)"), "{detail}");
        assert!(detail.contains("RW"), "{detail}");
    }

    #[test]
    fn write_skew_cycle_is_named() {
        // T2 reads a, writes b; T3 reads b (stale), writes a: two RW
        // anti-dependencies forming a cycle — serializable nowhere.
        let h = vec![
            TxnHistory::new(1).write(0, "a", 1).write(0, "b", 1),
            TxnHistory::new(2).read(0, "a", 1).write(0, "b", 2),
            TxnHistory::new(3).read(0, "b", 1).write(0, "a", 2),
        ];
        let violations = check_dsg_acyclic("t", &h);
        assert_eq!(codes(&violations), ["ISO-01"]);
        let detail = &violations[0].detail;
        assert!(detail.contains("RW"), "{detail}");
        assert!(detail.contains("T2") && detail.contains("T3"), "{detail}");
    }

    #[test]
    fn read_from_the_future_fails_iso02() {
        let h = vec![
            TxnHistory::new(1).read(0, "k", 1),
            TxnHistory::new(2).write(0, "k", 1),
        ];
        let violations = check_read_commit_order("t", &h);
        assert_eq!(codes(&violations), ["ISO-02"]);
        assert!(violations[0].detail.contains("later commit position"));
    }

    #[test]
    fn version_integrity_failures_fail_iso03() {
        // Duplicate installer.
        let dup = vec![
            TxnHistory::new(1).write(0, "k", 1),
            TxnHistory::new(2).write(0, "k", 1),
        ];
        assert_eq!(codes(&check_restart_integrity("t", &dup)), ["ISO-03"]);
        // Version regression in commit order.
        let regress = vec![
            TxnHistory::new(1).write(0, "k", 5),
            TxnHistory::new(2).write(0, "k", 3),
        ];
        assert_eq!(codes(&check_restart_integrity("t", &regress)), ["ISO-03"]);
        // Orphan read beyond own install on a restarted transaction.
        let orphan = vec![TxnHistory::new(1)
            .restarted()
            .write(0, "k", 2)
            .read(0, "k", 7)];
        let violations = check_restart_integrity("t", &orphan);
        assert_eq!(codes(&violations), ["ISO-03"]);
        assert!(violations[0].detail.contains("restarted"));
    }

    #[test]
    fn histories_decode_from_events_and_skip_capture_off_records() {
        let thin = Event::new(kinds::TXN_RWSET).with("id", 1u64);
        let fat = Event::new(kinds::TXN_RWSET)
            .with("id", 2u64)
            .with("restarted", true)
            .with("committed", true)
            .with(
                "rset",
                pstore_telemetry::encode_key_versions(vec![(0, "k".into(), 1)]),
            )
            .with(
                "wset",
                pstore_telemetry::encode_key_versions(vec![(0, "k".into(), 2)]),
            );
        let histories = histories_of(&[thin, fat]).unwrap();
        assert_eq!(histories.len(), 1);
        assert_eq!(histories[0].id, 2);
        assert!(histories[0].restarted);
        assert_eq!(histories[0].reads, vec![(0, "k".to_string(), 1)]);
        assert_eq!(histories[0].writes, vec![(0, "k".to_string(), 2)]);

        let bad = Event::new(kinds::TXN_RWSET)
            .with("id", 3u64)
            .with("rset", "no-grammar")
            .with("wset", "");
        let violations = check_events("t", &[bad]);
        assert_eq!(codes(&violations), ["ISO-01"]);
        assert!(violations[0].detail.contains("undecodable"));
    }

    #[test]
    fn serial_witness_flags_backward_edges() {
        // Commit order T1 then T2, but T1 read the version T2 installed:
        // the WR edge points backward.
        let h = vec![
            TxnHistory::new(1).read(0, "k", 1),
            TxnHistory::new(2).write(0, "k", 1),
        ];
        let errors = serial_witness_errors(&h);
        assert_eq!(errors.len(), 1);
        assert!(errors[0].contains("backward edge T2 -WR(t0:k)-> T1"));
    }
}
