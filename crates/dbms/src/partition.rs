//! Per-partition storage.
//!
//! Each partition owns a set of virtual hash slots; all rows whose routing
//! key hashes to a slot live together, so a slot can be migrated as a unit
//! and prefix scans (all lines of one cart) never cross slots — a routing
//! key's rows always share its slot.

use crate::catalog::TableId;
use crate::value::{Key, Row};
use std::collections::{BTreeMap, HashMap};

/// All rows of one virtual slot, organised per table.
#[derive(Debug, Clone, Default)]
pub struct SlotData {
    /// `tables[table_id]` maps primary key to row.
    tables: Vec<BTreeMap<Key, Row>>,
    /// Estimated resident bytes of this slot.
    bytes: usize,
}

impl SlotData {
    fn with_tables(n: usize) -> Self {
        SlotData {
            tables: vec![BTreeMap::new(); n],
            bytes: 0,
        }
    }

    fn ensure_tables(&mut self, n: usize) {
        if self.tables.len() < n {
            self.tables.resize_with(n, BTreeMap::new);
        }
    }

    /// Estimated resident bytes.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Total rows across tables.
    pub fn rows(&self) -> usize {
        self.tables.iter().map(BTreeMap::len).sum()
    }

    /// Whether the slot holds no rows.
    pub fn is_empty(&self) -> bool {
        self.tables.iter().all(BTreeMap::is_empty)
    }
}

/// The storage engine of one partition.
#[derive(Debug, Default)]
pub struct PartitionStore {
    num_tables: usize,
    slots: HashMap<u64, SlotData>,
    accesses: u64,
    /// Per-slot access counters (the detailed tier of E-Store-style
    /// two-tier monitoring; cheap enough to keep always on at slot
    /// granularity). Dense, indexed by slot id and grown on demand:
    /// incrementing is a bounds check and an add, with no hashing on the
    /// per-transaction path. A reset keeps the allocation.
    slot_accesses: Vec<u64>,
    /// Per-key write-version counters, keyed by slot (so a slot's history
    /// migrates as a unit) then table. Only maintained while
    /// [`track_versions`] is set (the ISO-01..03 serializability sweep);
    /// the default keeps the warm path free of version bookkeeping.
    ///
    /// [`track_versions`]: PartitionStore::set_track_versions
    versions: HashMap<u64, Vec<HashMap<Key, u64>>>,
    track_versions: bool,
}

impl PartitionStore {
    /// Creates a store for a catalog with `num_tables` tables.
    pub fn new(num_tables: usize) -> Self {
        PartitionStore {
            num_tables,
            slots: HashMap::new(),
            accesses: 0,
            slot_accesses: Vec::new(),
            versions: HashMap::new(),
            track_versions: false,
        }
    }

    /// Enables or disables per-key version counting. Disabling clears the
    /// recorded counters, so re-enabling restarts every chain at 0.
    pub fn set_track_versions(&mut self, on: bool) {
        self.track_versions = on;
        if !on {
            self.versions.clear();
        }
    }

    /// Whether per-key version counting is on.
    pub fn track_versions(&self) -> bool {
        self.track_versions
    }

    /// The current write version of a key: the number of installs (puts
    /// and deletes) observed since tracking started. 0 for never-written
    /// keys.
    pub fn version_of(&self, slot: u64, table: TableId, key: &Key) -> u64 {
        self.versions
            .get(&slot)
            .and_then(|tables| tables.get(table))
            .and_then(|m| m.get(key))
            .copied()
            .unwrap_or(0)
    }

    /// Advances a key's write version and returns the new (installed)
    /// version. No-op returning 0 when tracking is off. Called by the
    /// transaction layer only — migration re-installs rows without
    /// bumping, so a key's history survives chunk moves intact.
    pub fn bump_version(&mut self, slot: u64, table: TableId, key: &Key) -> u64 {
        if !self.track_versions {
            return 0;
        }
        let n = self.num_tables.max(table + 1);
        let tables = self.versions.entry(slot).or_default();
        if tables.len() < n {
            tables.resize_with(n, HashMap::new);
        }
        let v = tables[table].entry(key.clone()).or_insert(0);
        *v += 1;
        *v
    }

    /// Removes and returns a key's version counter (migration handoff).
    pub fn take_version(&mut self, slot: u64, table: TableId, key: &Key) -> Option<u64> {
        self.versions.get_mut(&slot)?.get_mut(table)?.remove(key)
    }

    /// Removes and returns every remaining version counter of `slot`
    /// (end-of-slot migration handoff: tombstoned keys have a counter but
    /// no row, so they are not carried by `extract_chunk`).
    pub fn take_slot_versions(&mut self, slot: u64) -> Vec<((TableId, Key), u64)> {
        self.versions
            .remove(&slot)
            .map(|tables| {
                tables
                    .into_iter()
                    .enumerate()
                    .flat_map(|(tid, m)| m.into_iter().map(move |(k, v)| ((tid, k), v)))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Installs version counters delivered by a migration chunk.
    pub fn install_versions(&mut self, slot: u64, entries: Vec<((TableId, Key), u64)>) {
        if entries.is_empty() {
            return;
        }
        let max_table = entries.iter().map(|((t, _), _)| *t + 1).max().unwrap_or(0);
        let n = self.num_tables.max(max_table);
        let tables = self.versions.entry(slot).or_default();
        if tables.len() < n {
            tables.resize_with(n, HashMap::new);
        }
        for ((tid, key), v) in entries {
            tables[tid].insert(key, v);
        }
    }

    fn slot_mut(&mut self, slot: u64) -> &mut SlotData {
        let n = self.num_tables;
        let entry = self
            .slots
            .entry(slot)
            .or_insert_with(|| SlotData::with_tables(n));
        entry.ensure_tables(n);
        entry
    }

    /// Records a logical access (for the §8.1 skew statistics).
    pub fn record_access(&mut self) {
        self.accesses += 1;
    }

    /// Records an access attributed to a specific slot (hot-spot
    /// detection).
    #[allow(clippy::cast_possible_truncation)] // slot ids fit usize on supported targets
    pub fn record_slot_access(&mut self, slot: u64) {
        self.accesses += 1;
        let idx = slot as usize;
        if idx >= self.slot_accesses.len() {
            self.slot_accesses.resize(idx + 1, 0);
        }
        self.slot_accesses[idx] += 1;
    }

    /// Per-slot access counters accumulated so far (non-zero entries only).
    pub fn slot_accesses(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.slot_accesses
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(s, &c)| (s as u64, c))
    }

    /// Resets the per-slot counters (start of a new monitoring window).
    /// Keeps the dense allocation so warm-path recording never reallocates.
    pub fn reset_slot_accesses(&mut self) {
        self.slot_accesses.fill(0);
    }

    /// Logical accesses recorded so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Looks up a row.
    pub fn get(&self, slot: u64, table: TableId, key: &Key) -> Option<&Row> {
        self.slots.get(&slot)?.tables.get(table)?.get(key)
    }

    /// Inserts or replaces a row; returns the previous row if any.
    pub fn put(&mut self, slot: u64, table: TableId, key: Key, row: Row) -> Option<Row> {
        let key_sz = key.size_estimate();
        let row_sz = row.size_estimate();
        let data = self.slot_mut(slot);
        let old = data.tables[table].insert(key, row);
        match &old {
            None => data.bytes += key_sz + row_sz,
            // Replace: the key stays resident, only the row size changes.
            Some(o) => data.bytes = (data.bytes + row_sz).saturating_sub(o.size_estimate()),
        }
        old
    }

    /// Removes a row; returns it if present.
    pub fn delete(&mut self, slot: u64, table: TableId, key: &Key) -> Option<Row> {
        let data = self.slots.get_mut(&slot)?;
        let old = data.tables.get_mut(table)?.remove(key)?;
        data.bytes = data
            .bytes
            .saturating_sub(key.size_estimate() + old.size_estimate());
        Some(old)
    }

    /// All rows in `table` within `slot` whose key starts with `prefix`.
    pub fn scan_prefix(&self, slot: u64, table: TableId, prefix: &Key) -> Vec<(Key, Row)> {
        let Some(data) = self.slots.get(&slot) else {
            return Vec::new();
        };
        let Some(tbl) = data.tables.get(table) else {
            return Vec::new();
        };
        tbl.range(prefix.clone()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, r)| (k.clone(), r.clone()))
            .collect()
    }

    /// Removes and returns up to `budget_bytes` worth of rows from `slot`
    /// (for chunked migration). Returns `(rows, bytes, slot_now_empty)`.
    pub fn extract_chunk(
        &mut self,
        slot: u64,
        budget_bytes: usize,
    ) -> (Vec<(TableId, Key, Row)>, usize, bool) {
        let Some(data) = self.slots.get_mut(&slot) else {
            return (Vec::new(), 0, true);
        };
        let mut out = Vec::new();
        let mut moved = 0usize;
        'outer: for (tid, tbl) in data.tables.iter_mut().enumerate() {
            while let Some((k, _)) = tbl.first_key_value() {
                let k = k.clone();
                let Some(row) = tbl.remove(&k) else {
                    unreachable!("key just observed");
                };
                let sz = k.size_estimate() + row.size_estimate();
                moved += sz;
                data.bytes = data.bytes.saturating_sub(sz);
                out.push((tid, k, row));
                if moved >= budget_bytes {
                    break 'outer;
                }
            }
        }
        let empty = data.is_empty();
        if empty {
            self.slots.remove(&slot);
        }
        (out, moved, empty)
    }

    /// Installs rows delivered by a migration chunk.
    pub fn install_rows(&mut self, slot: u64, rows: Vec<(TableId, Key, Row)>) {
        for (tid, key, row) in rows {
            self.put(slot, tid, key, row);
        }
    }

    /// Estimated bytes held in `slot`.
    pub fn slot_bytes(&self, slot: u64) -> usize {
        self.slots.get(&slot).map_or(0, SlotData::bytes)
    }

    /// Estimated total resident bytes.
    pub fn total_bytes(&self) -> usize {
        self.slots.values().map(SlotData::bytes).sum()
    }

    /// Total rows resident.
    pub fn total_rows(&self) -> usize {
        self.slots.values().map(SlotData::rows).sum()
    }

    /// The slots with resident data.
    pub fn resident_slots(&self) -> impl Iterator<Item = u64> + '_ {
        self.slots.keys().copied()
    }

    /// Clones all rows of `table` within `slot` (warehouse export).
    pub fn export_slot_table(&self, slot: u64, table: TableId) -> Vec<(Key, Row)> {
        self.slots
            .get(&slot)
            .and_then(|d| d.tables.get(table))
            .map(|t| t.iter().map(|(k, r)| (k.clone(), r.clone())).collect())
            .unwrap_or_default()
    }

    /// Recomputes resident bytes from the actual rows (integrity audits).
    pub fn recompute_bytes(&self) -> usize {
        self.slots
            .values()
            .flat_map(|d| d.tables.iter())
            .flat_map(|t| t.iter())
            .map(|(k, r)| k.size_estimate() + r.size_estimate())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn row(v: i64) -> Row {
        Row(vec![Value::Int(v)])
    }

    #[test]
    fn put_get_delete_round_trip() {
        let mut p = PartitionStore::new(2);
        let k = Key::str("cart-1");
        assert!(p.put(5, 0, k.clone(), row(1)).is_none());
        assert_eq!(p.get(5, 0, &k), Some(&row(1)));
        // Different table: independent namespace.
        assert_eq!(p.get(5, 1, &k), None);
        assert_eq!(p.delete(5, 0, &k), Some(row(1)));
        assert_eq!(p.get(5, 0, &k), None);
    }

    #[test]
    fn put_replaces_and_returns_old() {
        let mut p = PartitionStore::new(1);
        let k = Key::str("x");
        p.put(0, 0, k.clone(), row(1));
        let old = p.put(0, 0, k.clone(), row(2));
        assert_eq!(old, Some(row(1)));
        assert_eq!(p.get(0, 0, &k), Some(&row(2)));
        assert_eq!(p.total_rows(), 1);
    }

    #[test]
    fn prefix_scan_returns_all_lines() {
        let mut p = PartitionStore::new(1);
        for i in 0..5 {
            p.put(3, 0, Key::str_int("cart-7", i), row(i));
        }
        p.put(3, 0, Key::str_int("cart-8", 0), row(99));
        let lines = p.scan_prefix(3, 0, &Key::str("cart-7"));
        assert_eq!(lines.len(), 5);
        assert!(lines.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn extract_chunk_respects_budget_and_empties_slot() {
        let mut p = PartitionStore::new(1);
        for i in 0..10 {
            p.put(1, 0, Key::int(i), row(i));
        }
        let total = p.slot_bytes(1);
        let (rows, bytes, empty) = p.extract_chunk(1, total / 2);
        assert!(!rows.is_empty());
        assert!(bytes >= total / 2);
        assert!(!empty);
        let (rows2, _, empty2) = p.extract_chunk(1, usize::MAX);
        assert!(empty2);
        assert_eq!(rows.len() + rows2.len(), 10);
        assert_eq!(p.total_rows(), 0);
        assert_eq!(p.slot_bytes(1), 0);
    }

    #[test]
    fn install_rows_restores_data() {
        let mut src = PartitionStore::new(2);
        for i in 0..6 {
            src.put(4, i % 2, Key::int(i as i64), row(i as i64));
        }
        let (rows, bytes, _) = src.extract_chunk(4, usize::MAX);
        let mut dst = PartitionStore::new(2);
        dst.install_rows(4, rows);
        assert_eq!(dst.total_rows(), 6);
        assert_eq!(dst.slot_bytes(4), bytes);
        for i in 0..6 {
            assert_eq!(dst.get(4, i % 2, &Key::int(i as i64)), Some(&row(i as i64)));
        }
    }

    #[test]
    fn byte_accounting_tracks_inserts_and_deletes() {
        let mut p = PartitionStore::new(1);
        assert_eq!(p.total_bytes(), 0);
        let k = Key::str("abcdef");
        p.put(0, 0, k.clone(), row(1));
        let b = p.total_bytes();
        assert!(b > 0);
        p.delete(0, 0, &k);
        assert_eq!(p.total_bytes(), 0);
    }

    #[test]
    fn access_counter() {
        let mut p = PartitionStore::new(1);
        p.record_access();
        p.record_access();
        assert_eq!(p.accesses(), 2);
    }

    #[test]
    fn version_counters_follow_writes_and_survive_handoff() {
        let mut src = PartitionStore::new(1);
        let k = Key::str("cart-1");
        // Off by default: bumping is a no-op (ISO sweep opt-in).
        assert_eq!(src.bump_version(2, 0, &k), 0);
        src.set_track_versions(true);
        assert_eq!(src.version_of(2, 0, &k), 0);
        assert_eq!(src.bump_version(2, 0, &k), 1);
        assert_eq!(src.bump_version(2, 0, &k), 2);
        assert_eq!(src.version_of(2, 0, &k), 2);
        // A tombstoned key keeps its chain alive.
        let dead = Key::str("gone");
        src.put(2, 0, dead.clone(), Row(vec![Value::Int(1)]));
        src.bump_version(2, 0, &dead);
        src.delete(2, 0, &dead);
        src.bump_version(2, 0, &dead);
        assert_eq!(src.version_of(2, 0, &dead), 2);
        // Chunk handoff: per-key transfer, then the slot-tail transfer
        // carries counters with no resident row.
        let mut dst = PartitionStore::new(1);
        dst.set_track_versions(true);
        let v = src.take_version(2, 0, &k).expect("tracked");
        dst.install_versions(2, vec![((0, k.clone()), v)]);
        dst.install_versions(2, src.take_slot_versions(2));
        assert_eq!(dst.version_of(2, 0, &k), 2);
        assert_eq!(dst.version_of(2, 0, &dead), 2);
        assert_eq!(src.version_of(2, 0, &k), 0);
        // Migration re-install must not advance the chain.
        dst.install_rows(2, vec![(0, k.clone(), Row(vec![Value::Int(9)]))]);
        assert_eq!(dst.version_of(2, 0, &k), 2);
        // Disabling clears state.
        dst.set_track_versions(false);
        assert_eq!(dst.version_of(2, 0, &k), 0);
    }
}
