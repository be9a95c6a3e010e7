//! Transactions: stored procedures, execution context, errors.
//!
//! As in H-Store, a transaction is an invocation of a pre-declared stored
//! procedure routed by a single partitioning-key value and executed serially
//! on the owning partition. The execution context enforces the
//! single-partition discipline: every key a procedure touches must hash to
//! the same virtual slot as its routing key (multi-partition transactions
//! are rejected, matching the B2W workload's single-key procedures, §7).

use crate::catalog::TableId;
use crate::partition::PartitionStore;
use crate::value::{Key, KeyValue, Row, Value};
use std::collections::HashSet;
use std::fmt;

/// Result payload of a committed transaction.
#[derive(Debug, Clone, PartialEq)]
pub enum TxnOutput {
    /// No payload (pure write).
    None,
    /// A single value (e.g. a stock quantity).
    Value(Value),
    /// A single row.
    Row(Row),
    /// A set of keyed rows (e.g. the lines of a cart).
    Rows(Vec<(Key, Row)>),
    /// A count of affected rows.
    Count(u64),
}

/// A transaction abort.
#[derive(Debug, Clone, PartialEq)]
pub enum TxnError {
    /// A row the procedure requires does not exist.
    NotFound {
        /// Table name.
        table: &'static str,
        /// The missing key.
        key: Key,
    },
    /// A row the procedure would create already exists.
    AlreadyExists {
        /// Table name.
        table: &'static str,
        /// The conflicting key.
        key: Key,
    },
    /// Business-logic abort (e.g. reserving out-of-stock items).
    Aborted(String),
}

impl fmt::Display for TxnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxnError::NotFound { table, key } => write!(f, "{table}{key} not found"),
            TxnError::AlreadyExists { table, key } => write!(f, "{table}{key} already exists"),
            TxnError::Aborted(msg) => write!(f, "aborted: {msg}"),
        }
    }
}

impl std::error::Error for TxnError {}

/// A stored procedure.
pub trait Procedure {
    /// Procedure name (for statistics and tracing).
    fn name(&self) -> &'static str;

    /// The partitioning-key value this invocation routes on.
    fn routing_key(&self) -> KeyValue;

    /// Executes against the owning partition.
    ///
    /// # Errors
    /// Returns a [`TxnError`] to abort; all context mutations made before an
    /// abort are the procedure's responsibility to avoid (procedures are
    /// written check-then-write, as in H-Store's Java procedures).
    fn execute(&self, ctx: &mut TxnCtx<'_>) -> Result<TxnOutput, TxnError>;
}

/// Where a key's row currently lives while its slot is mid-migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    Source,
    Dest,
}

/// Counts of row accesses made by one transaction, split by migration
/// side — the read/write-set record behind the `txn_rwset` trace event
/// and the TXN-01 invariant. The counters only tick in telemetry builds;
/// without the feature every access point compiles down to the bare
/// store operation.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RwSet {
    /// Rows read, both sides (each prefix scan counts as one read).
    pub reads: u64,
    /// Rows written or deleted, both sides.
    pub writes: u64,
    /// Reads served by the migration destination.
    pub dest_reads: u64,
    /// Writes landing at the migration destination.
    pub dest_writes: u64,
}

/// One key-level access record: `(table, key, write-version)`. For a read
/// the version is the key's version *observed* (0 = never written); for a
/// write it is the version *installed* by this transaction. The version
/// counters live in the partition store (see
/// [`PartitionStore::bump_version`]) so histories stay meaningful across
/// partitions, migrations, and Squall restarts.
pub type KeyAccess = (TableId, Key, u64);

/// Fault-injection knob for the `ISO-*` seeded-bug twin tests (test
/// builds and the `iso-seeded-bugs` feature only; never compiled into
/// release artifacts otherwise). An armed bug makes *captured reads lie
/// about the version they observed* — the engine still executes
/// correctly, but the recorded history carries the signature of a real
/// isolation anomaly, proving the ISO-01..03 checkers in `pstore-verify`
/// would catch one. Thread-local and off by default, so the hook is
/// inert even in builds that carry it.
#[cfg(any(test, feature = "iso-seeded-bugs"))]
pub mod seeded_bugs {
    use std::cell::Cell;

    /// Which read-capture anomaly to fabricate.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub enum ReadBug {
        /// Record versions faithfully (default).
        #[default]
        None,
        /// Record each read one version *older* than observed — the
        /// stale-read signature behind lost updates and write skew
        /// (ISO-01 cycles).
        StaleRead,
        /// Record each read one version *newer* than observed — a read
        /// from the future (ISO-02).
        FutureRead,
    }

    thread_local! {
        static READ_BUG: Cell<ReadBug> = const { Cell::new(ReadBug::None) };
    }

    /// Arms `bug` for captured reads on this thread until re-armed with
    /// [`ReadBug::None`].
    pub fn arm(bug: ReadBug) {
        READ_BUG.with(|b| b.set(bug));
    }

    /// The currently armed bug.
    pub fn armed() -> ReadBug {
        READ_BUG.with(Cell::get)
    }
}

/// The version a captured read records: the observed version, distorted
/// by the armed seeded bug in test builds.
fn captured_read_version(v: u64) -> u64 {
    #[cfg(any(test, feature = "iso-seeded-bugs"))]
    let v = match seeded_bugs::armed() {
        seeded_bugs::ReadBug::None => v,
        seeded_bugs::ReadBug::StaleRead => v.saturating_sub(1),
        seeded_bugs::ReadBug::FutureRead => v + 1,
    };
    v
}

/// Execution context: a view over the partition(s) holding the routing
/// slot. During live migration of the slot the view spans the source and
/// destination partitions, consulting the migrated-key set per access — the
/// Squall-style key-granularity switchover.
pub struct TxnCtx<'a> {
    slot: u64,
    num_slots: u64,
    source: &'a mut PartitionStore,
    /// Destination store and the set of keys already migrated, when the
    /// routing slot is in flight.
    dest: Option<(&'a mut PartitionStore, &'a HashSet<(TableId, Key)>)>,
    /// Set when any access hit the destination side (lets the engine track
    /// migration-overlap statistics).
    pub touched_dest: bool,
    /// Read/write-set tally of this transaction. Stays all-zero unless
    /// the `telemetry` feature is on (see [`RwSet`]).
    pub rwset: RwSet,
    /// When set, every access also records a key-level [`KeyAccess`]
    /// entry (the sampled serializability history; telemetry builds
    /// only). Off by default: unsampled transactions never clone keys.
    capture: bool,
    /// `(table, key, version-observed)` per read, in program order.
    /// Filled only while [`set_capture`](TxnCtx::set_capture) is on.
    pub key_reads: Vec<KeyAccess>,
    /// `(table, key, version-installed)` per write, in program order.
    /// Filled only while [`set_capture`](TxnCtx::set_capture) is on.
    pub key_writes: Vec<KeyAccess>,
}

impl<'a> TxnCtx<'a> {
    /// Creates a context for a settled slot.
    pub fn settled(slot: u64, num_slots: u64, store: &'a mut PartitionStore) -> Self {
        TxnCtx {
            slot,
            num_slots,
            source: store,
            dest: None,
            touched_dest: false,
            rwset: RwSet::default(),
            capture: false,
            key_reads: Vec::new(),
            key_writes: Vec::new(),
        }
    }

    /// Creates a context for a slot that is mid-migration.
    pub fn migrating(
        slot: u64,
        num_slots: u64,
        source: &'a mut PartitionStore,
        dest: &'a mut PartitionStore,
        moved: &'a HashSet<(TableId, Key)>,
    ) -> Self {
        TxnCtx {
            slot,
            num_slots,
            source,
            dest: Some((dest, moved)),
            touched_dest: false,
            rwset: RwSet::default(),
            capture: false,
            key_reads: Vec::new(),
            key_writes: Vec::new(),
        }
    }

    /// The virtual slot this transaction executes against.
    pub fn slot(&self) -> u64 {
        self.slot
    }

    /// Turns key-level history capture on or off for this transaction
    /// (the sampled ISO-01..03 record; see [`KeyAccess`]).
    pub fn set_capture(&mut self, on: bool) {
        self.capture = on;
    }

    /// Enforces the single-partition discipline: every key a procedure
    /// touches must hash to the transaction's routing slot.
    ///
    /// # Panics
    /// Panics on a cross-partition access — that is a bug in the procedure
    /// (in H-Store such a transaction would have had to be declared
    /// multi-partition, which this engine, like the B2W workload, forbids).
    fn check_slot(&self, key: &Key) {
        // Allocation-free: hashes the routing component from a stack
        // buffer, so per-access slot checks stay off the heap.
        let s = key
            .routing_part()
            .with_hash_bytes(|b| crate::hash::bucket_of(b, self.num_slots));
        assert_eq!(
            s, self.slot,
            "single-partition violation: key {key} hashes to slot {s}, \
             transaction executes on slot {}",
            self.slot
        );
    }

    /// Tallies a read into the read/write set (telemetry builds only).
    #[cfg(feature = "telemetry")]
    fn note_read(&mut self, dest: bool) {
        self.rwset.reads += 1;
        if dest {
            self.rwset.dest_reads += 1;
        }
    }
    #[cfg(not(feature = "telemetry"))]
    #[inline(always)]
    fn note_read(&mut self, _dest: bool) {}

    /// Tallies a write/delete into the read/write set (telemetry builds
    /// only).
    #[cfg(feature = "telemetry")]
    fn note_write(&mut self, dest: bool) {
        self.rwset.writes += 1;
        if dest {
            self.rwset.dest_writes += 1;
        }
    }
    #[cfg(not(feature = "telemetry"))]
    #[inline(always)]
    fn note_write(&mut self, _dest: bool) {}

    fn side_of(&self, table: TableId, key: &Key) -> Side {
        self.check_slot(key);
        match &self.dest {
            Some((_, moved)) if moved.contains(&(table, key.clone())) => Side::Dest,
            _ => Side::Source,
        }
    }

    /// Reads a row.
    pub fn get(&mut self, table: TableId, key: &Key) -> Option<Row> {
        match self.side_of(table, key) {
            Side::Source => {
                self.note_read(false);
                if self.capture {
                    let v = self.source.version_of(self.slot, table, key);
                    self.key_reads
                        .push((table, key.clone(), captured_read_version(v)));
                }
                self.source.get(self.slot, table, key).cloned()
            }
            Side::Dest => {
                self.note_read(true);
                self.touched_dest = true;
                let (row, v) = {
                    let Some((dest, _)) = self.dest.as_ref() else {
                        unreachable!("dest side implies dest view");
                    };
                    (
                        dest.get(self.slot, table, key).cloned(),
                        if self.capture {
                            dest.version_of(self.slot, table, key)
                        } else {
                            0
                        },
                    )
                };
                if self.capture {
                    self.key_reads
                        .push((table, key.clone(), captured_read_version(v)));
                }
                row
            }
        }
    }

    /// Reads a row, aborting with `NotFound` if absent.
    pub fn get_required(
        &mut self,
        table: TableId,
        table_name: &'static str,
        key: &Key,
    ) -> Result<Row, TxnError> {
        self.get(table, key).ok_or(TxnError::NotFound {
            table: table_name,
            key: key.clone(),
        })
    }

    /// Inserts or replaces a row.
    pub fn put(&mut self, table: TableId, key: Key, row: Row) -> Option<Row> {
        match self.side_of(table, &key) {
            Side::Source => {
                self.note_write(false);
                let v = self.source.bump_version(self.slot, table, &key);
                if self.capture {
                    self.key_writes.push((table, key.clone(), v));
                }
                self.source.put(self.slot, table, key, row)
            }
            Side::Dest => {
                self.note_write(true);
                self.touched_dest = true;
                let v = {
                    let Some((dest, _)) = self.dest.as_mut() else {
                        unreachable!("dest side implies dest view");
                    };
                    dest.bump_version(self.slot, table, &key)
                };
                if self.capture {
                    self.key_writes.push((table, key.clone(), v));
                }
                let Some((dest, _)) = self.dest.as_mut() else {
                    unreachable!("dest side implies dest view");
                };
                dest.put(self.slot, table, key, row)
            }
        }
    }

    /// Inserts a new row, aborting with `AlreadyExists` if present.
    pub fn insert_new(
        &mut self,
        table: TableId,
        table_name: &'static str,
        key: Key,
        row: Row,
    ) -> Result<(), TxnError> {
        if self.get(table, &key).is_some() {
            return Err(TxnError::AlreadyExists {
                table: table_name,
                key,
            });
        }
        self.put(table, key, row);
        Ok(())
    }

    /// Deletes a row, returning it if present.
    pub fn delete(&mut self, table: TableId, key: &Key) -> Option<Row> {
        match self.side_of(table, key) {
            Side::Source => {
                self.note_write(false);
                let v = self.source.bump_version(self.slot, table, key);
                if self.capture {
                    self.key_writes.push((table, key.clone(), v));
                }
                self.source.delete(self.slot, table, key)
            }
            Side::Dest => {
                self.note_write(true);
                self.touched_dest = true;
                let v = {
                    let Some((dest, _)) = self.dest.as_mut() else {
                        unreachable!("dest side implies dest view");
                    };
                    dest.bump_version(self.slot, table, key)
                };
                if self.capture {
                    self.key_writes.push((table, key.clone(), v));
                }
                let Some((dest, _)) = self.dest.as_mut() else {
                    unreachable!("dest side implies dest view");
                };
                dest.delete(self.slot, table, key)
            }
        }
    }

    /// All rows with the given key prefix, merged across migration sides.
    pub fn scan_prefix(&mut self, table: TableId, prefix: &Key) -> Vec<(Key, Row)> {
        self.check_slot(prefix);
        let mut rows = self.source.scan_prefix(self.slot, table, prefix);
        let mut hit_dest = false;
        if let Some((dest, _)) = &self.dest {
            let dest_rows = dest.scan_prefix(self.slot, table, prefix);
            if !dest_rows.is_empty() {
                hit_dest = true;
                self.touched_dest = true;
                rows.extend(dest_rows);
                rows.sort_by(|a, b| a.0.cmp(&b.0));
                rows.dedup_by(|a, b| a.0 == b.0);
            }
        }
        self.note_read(hit_dest);
        if self.capture {
            for (k, _) in &rows {
                let v = match &self.dest {
                    Some((dest, moved)) if moved.contains(&(table, k.clone())) => {
                        dest.version_of(self.slot, table, k)
                    }
                    _ => self.source.version_of(self.slot, table, k),
                };
                self.key_reads
                    .push((table, k.clone(), captured_read_version(v)));
            }
        }
        rows
    }

    /// Deletes every row with the given key prefix; returns how many.
    pub fn delete_prefix(&mut self, table: TableId, prefix: &Key) -> u64 {
        let keys: Vec<Key> = self
            .scan_prefix(table, prefix)
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        let mut n = 0;
        for k in keys {
            if self.delete(table, &k).is_some() {
                n += 1;
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::bucket_of;

    const SLOTS: u64 = 64;

    fn row(v: i64) -> Row {
        Row(vec![Value::Int(v)])
    }

    /// The slot a key with routing part `root` maps to.
    fn slot_of(root: &str) -> u64 {
        bucket_of(&Key::str(root).routing_bytes(), SLOTS)
    }

    #[test]
    fn settled_context_reads_and_writes_source() {
        let mut store = PartitionStore::new(1);
        let slot = slot_of("a");
        let mut ctx = TxnCtx::settled(slot, SLOTS, &mut store);
        let k = Key::str("a");
        assert_eq!(ctx.get(0, &k), None);
        ctx.put(0, k.clone(), row(1));
        assert_eq!(ctx.get(0, &k), Some(row(1)));
        assert_eq!(ctx.delete(0, &k), Some(row(1)));
        assert!(!ctx.touched_dest);
    }

    #[test]
    fn migrating_context_routes_by_moved_set() {
        // All keys share the routing part "cart-9" (one logical entity).
        let slot = slot_of("cart-9");
        let moved_key = Key::str_int("cart-9", 1);
        let staying_key = Key::str_int("cart-9", 2);
        let mut src = PartitionStore::new(1);
        let mut dst = PartitionStore::new(1);
        dst.put(slot, 0, moved_key.clone(), row(10));
        src.put(slot, 0, staying_key.clone(), row(20));
        let moved: HashSet<(TableId, Key)> = [(0usize, moved_key.clone())].into();

        let mut ctx = TxnCtx::migrating(slot, SLOTS, &mut src, &mut dst, &moved);
        assert_eq!(ctx.get(0, &moved_key), Some(row(10)));
        assert!(ctx.touched_dest);
        assert_eq!(ctx.get(0, &staying_key), Some(row(20)));

        // Writes follow the same routing: updating the moved key lands at
        // the destination, new keys land at the source.
        ctx.put(0, moved_key.clone(), row(11));
        ctx.put(0, Key::str_int("cart-9", 3), row(30));
        let _ = ctx;
        assert_eq!(dst.get(slot, 0, &moved_key), Some(&row(11)));
        assert_eq!(src.get(slot, 0, &Key::str_int("cart-9", 3)), Some(&row(30)));
    }

    #[test]
    fn scan_merges_both_sides() {
        let slot = slot_of("cart");
        let mut src = PartitionStore::new(1);
        let mut dst = PartitionStore::new(1);
        src.put(slot, 0, Key::str_int("cart", 2), row(2));
        dst.put(slot, 0, Key::str_int("cart", 1), row(1));
        let moved: HashSet<(TableId, Key)> = [(0usize, Key::str_int("cart", 1))].into();
        let mut ctx = TxnCtx::migrating(slot, SLOTS, &mut src, &mut dst, &moved);
        let rows = ctx.scan_prefix(0, &Key::str("cart"));
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, Key::str_int("cart", 1)); // sorted merge
    }

    #[test]
    fn insert_new_rejects_duplicates_across_sides() {
        let slot = slot_of("dup");
        let mut src = PartitionStore::new(1);
        let mut dst = PartitionStore::new(1);
        let k = Key::str("dup");
        dst.put(slot, 0, k.clone(), row(1));
        let moved: HashSet<(TableId, Key)> = [(0usize, k.clone())].into();
        let mut ctx = TxnCtx::migrating(slot, SLOTS, &mut src, &mut dst, &moved);
        let err = ctx.insert_new(0, "T", k.clone(), row(2)).unwrap_err();
        assert!(matches!(err, TxnError::AlreadyExists { .. }));
    }

    #[test]
    fn delete_prefix_removes_all_lines() {
        let slot = slot_of("c");
        let mut store = PartitionStore::new(1);
        let mut ctx = TxnCtx::settled(slot, SLOTS, &mut store);
        for i in 0..4 {
            ctx.put(0, Key::str_int("c", i), row(i));
        }
        assert_eq!(ctx.delete_prefix(0, &Key::str("c")), 4);
        assert_eq!(ctx.scan_prefix(0, &Key::str("c")).len(), 0);
    }

    #[test]
    fn get_required_aborts_cleanly() {
        let slot = slot_of("nope");
        let mut store = PartitionStore::new(1);
        let mut ctx = TxnCtx::settled(slot, SLOTS, &mut store);
        let err = ctx.get_required(0, "CART", &Key::str("nope")).unwrap_err();
        assert_eq!(
            err,
            TxnError::NotFound {
                table: "CART",
                key: Key::str("nope")
            }
        );
        assert!(err.to_string().contains("CART"));
    }

    #[test]
    #[cfg(feature = "telemetry")]
    fn rwset_tallies_accesses_by_side() {
        let slot = slot_of("cart-9");
        let moved_key = Key::str_int("cart-9", 1);
        let staying_key = Key::str_int("cart-9", 2);
        let mut src = PartitionStore::new(1);
        let mut dst = PartitionStore::new(1);
        dst.put(slot, 0, moved_key.clone(), row(10));
        src.put(slot, 0, staying_key.clone(), row(20));
        let moved: HashSet<(TableId, Key)> = [(0usize, moved_key.clone())].into();
        let mut ctx = TxnCtx::migrating(slot, SLOTS, &mut src, &mut dst, &moved);
        let _ = ctx.get(0, &moved_key); // dest read
        let _ = ctx.get(0, &staying_key); // source read
        ctx.put(0, moved_key.clone(), row(11)); // dest write
        let _ = ctx.scan_prefix(0, &Key::str("cart-9")); // read hitting dest
        let _ = ctx.delete(0, &staying_key); // source write
        assert_eq!(
            ctx.rwset,
            RwSet {
                reads: 3,
                writes: 2,
                dest_reads: 2,
                dest_writes: 1,
            }
        );
    }

    #[test]
    #[cfg(not(feature = "telemetry"))]
    fn rwset_stays_zero_without_telemetry() {
        // The tally methods compile to no-ops without the feature: the
        // record stays at its default regardless of access activity.
        let slot = slot_of("a");
        let mut store = PartitionStore::new(1);
        let mut ctx = TxnCtx::settled(slot, SLOTS, &mut store);
        ctx.put(0, Key::str("a"), row(1));
        let _ = ctx.get(0, &Key::str("a"));
        let _ = ctx.scan_prefix(0, &Key::str("a"));
        assert_eq!(ctx.rwset, RwSet::default());
    }

    #[test]
    fn key_capture_records_observed_and_installed_versions() {
        let slot = slot_of("cart-9");
        let moved_key = Key::str_int("cart-9", 1);
        let staying_key = Key::str_int("cart-9", 2);
        let mut src = PartitionStore::new(1);
        let mut dst = PartitionStore::new(1);
        src.set_track_versions(true);
        dst.set_track_versions(true);
        dst.put(slot, 0, moved_key.clone(), row(10));
        src.put(slot, 0, staying_key.clone(), row(20));
        let moved: HashSet<(TableId, Key)> = [(0usize, moved_key.clone())].into();
        let mut ctx = TxnCtx::migrating(slot, SLOTS, &mut src, &mut dst, &moved);
        ctx.set_capture(true);
        let _ = ctx.get(0, &staying_key); // never txn-written: observes 0
        ctx.put(0, staying_key.clone(), row(21)); // installs 1
        let _ = ctx.get(0, &staying_key); // observes 1
        ctx.put(0, moved_key.clone(), row(11)); // dest install 1
        let _ = ctx.delete(0, &staying_key); // installs 2 (tombstone)
        assert_eq!(
            ctx.key_reads,
            vec![(0, staying_key.clone(), 0), (0, staying_key.clone(), 1),]
        );
        assert_eq!(
            ctx.key_writes,
            vec![
                (0, staying_key.clone(), 1),
                (0, moved_key.clone(), 1),
                (0, staying_key.clone(), 2),
            ]
        );
    }

    #[test]
    fn key_capture_off_records_nothing_but_versions_still_advance() {
        let slot = slot_of("a");
        let mut store = PartitionStore::new(1);
        store.set_track_versions(true);
        let k = Key::str("a");
        {
            let mut ctx = TxnCtx::settled(slot, SLOTS, &mut store);
            ctx.put(0, k.clone(), row(1));
            assert!(ctx.key_reads.is_empty() && ctx.key_writes.is_empty());
        }
        // An unsampled transaction's writes still advance the chain a
        // later sampled transaction observes.
        let mut ctx = TxnCtx::settled(slot, SLOTS, &mut store);
        ctx.set_capture(true);
        let _ = ctx.get(0, &k);
        assert_eq!(ctx.key_reads, vec![(0, k, 1)]);
    }

    #[test]
    #[should_panic(expected = "single-partition violation")]
    fn cross_partition_access_panics() {
        // Find two roots mapping to different slots.
        let a = "root-a";
        let mut b = String::new();
        for i in 0..1000 {
            let cand = format!("root-{i}");
            if slot_of(&cand) != slot_of(a) {
                b = cand;
                break;
            }
        }
        let mut store = PartitionStore::new(1);
        let mut ctx = TxnCtx::settled(slot_of(a), SLOTS, &mut store);
        ctx.put(0, Key::str(a), row(1)); // fine
        ctx.put(0, Key::str(b), row(2)); // cross-partition: panics
    }
}
