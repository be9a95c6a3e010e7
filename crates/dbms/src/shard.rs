//! The engine's storage and its serial executor: the partition matrix
//! of every node, the moved-key sets of in-flight slots, and the
//! [`TxnFate`] each executed transaction leaves behind.
//!
//! [`crate::cluster::Cluster`] owns exactly one [`ShardState`] and calls
//! it inline — one serial executor for the whole engine, as H-Store runs
//! one serial executor per partition. Routing, plans, statistics and
//! telemetry stay in the cluster; everything here is pure state
//! manipulation that emits no telemetry and draws no randomness.

use crate::catalog::TableId;
use crate::partition::PartitionStore;
use crate::txn::{KeyAccess, Procedure, RwSet, TxnCtx, TxnError, TxnOutput};
use crate::value::{Key, Row};
use std::collections::{HashMap, HashSet};

/// The outcome of one executed transaction. The cluster folds it into
/// its statistics; [`Cluster::submit`](crate::cluster::Cluster::submit)
/// hands it back to the caller (for sampled transactions, the simulator
/// emits telemetry from it).
#[derive(Debug)]
pub struct TxnFate {
    /// The procedure's result.
    pub result: Result<TxnOutput, TxnError>,
    /// Whether any access resolved against the migration destination.
    pub touched_dest: bool,
    /// The recorded read/write set.
    pub rwset: RwSet,
    /// Procedure name (for per-procedure counters).
    pub proc: &'static str,
    /// The routing slot the transaction executed on.
    pub slot: u64,
    /// Whether the slot was in-flight (migrating) at execution time.
    pub migrating: bool,
    /// Key-level `(table, key, version-observed)` reads, in program
    /// order. Empty unless the transaction was captured (sampled with
    /// version tracking on).
    pub key_reads: Vec<KeyAccess>,
    /// Key-level `(table, key, version-installed)` writes, in program
    /// order. Empty unless the transaction was captured.
    pub key_writes: Vec<KeyAccess>,
}

/// Integrity-audit snapshot of one partition store.
#[derive(Debug)]
pub struct StoreIntegrity {
    /// Owning node.
    pub node: u32,
    /// Local partition index.
    pub local: u32,
    /// Slots with resident data.
    pub resident_slots: Vec<u64>,
    /// Incrementally-maintained byte estimate.
    pub claimed_bytes: usize,
    /// Bytes recomputed from the actual rows.
    pub actual_bytes: usize,
}

/// The storage of the whole engine: every partition of every node, plus
/// the moved-key sets of in-flight slots.
#[derive(Debug)]
pub struct ShardState {
    partitions_per_node: u32,
    num_tables: usize,
    num_slots: u64,
    /// `stores[node][local]` is local partition `local` of `node`.
    stores: Vec<Vec<PartitionStore>>,
    /// Moved-key sets for in-flight slots.
    moved: HashMap<u64, HashSet<(TableId, Key)>>,
    /// Whether per-key version counting is on (applied to every store,
    /// including ones created by later node growth).
    track_versions: bool,
}

impl ShardState {
    /// Creates the storage for `nodes` initial nodes.
    pub fn new(partitions_per_node: u32, num_tables: usize, num_slots: u64, nodes: u32) -> Self {
        let mut state = ShardState {
            partitions_per_node,
            num_tables,
            num_slots,
            stores: Vec::new(),
            moved: HashMap::new(),
            track_versions: false,
        };
        state.ensure_nodes(nodes);
        state
    }

    /// Enables or disables per-key version counting across every store
    /// (current and future).
    pub fn set_track_versions(&mut self, on: bool) {
        self.track_versions = on;
        for store in self.stores.iter_mut().flatten() {
            store.set_track_versions(on);
        }
    }

    /// Whether per-key version counting is on.
    pub fn track_versions(&self) -> bool {
        self.track_versions
    }

    /// Mutable access to the store serving `(node, local)`.
    fn store_mut(&mut self, node: u32, local: u32) -> &mut PartitionStore {
        &mut self.stores[node as usize][local as usize]
    }

    /// Grows the store matrix to `count` nodes.
    pub fn ensure_nodes(&mut self, count: u32) {
        let per_node = self.partitions_per_node as usize;
        while self.stores.len() < count as usize {
            self.stores.push(
                (0..per_node)
                    .map(|_| {
                        let mut store = PartitionStore::new(self.num_tables);
                        store.set_track_versions(self.track_versions);
                        store
                    })
                    .collect(),
            );
        }
    }

    /// Truncates to `keep` nodes; the dropped stores must be empty.
    pub fn drop_nodes(&mut self, keep: u32) {
        if (keep as usize) < self.stores.len() {
            for node in &self.stores[keep as usize..] {
                for store in node {
                    debug_assert_eq!(store.total_rows(), 0, "dropping a non-empty node");
                }
            }
            self.stores.truncate(keep as usize);
        }
    }

    /// Executes one transaction on the partition serving `slot`.
    pub fn execute(
        &mut self,
        proc: &dyn Procedure,
        slot: u64,
        node: u32,
        local: u32,
        in_flight: Option<(u32, u32)>,
        capture: bool,
    ) -> TxnFate {
        let num_slots = self.num_slots;
        let (result, touched_dest, rwset, key_reads, key_writes) = match in_flight {
            None => {
                let store = self.store_mut(node, local);
                store.record_slot_access(slot);
                let mut ctx = TxnCtx::settled(slot, num_slots, store);
                ctx.set_capture(capture);
                let result = proc.execute(&mut ctx);
                (
                    result,
                    ctx.touched_dest,
                    ctx.rwset,
                    ctx.key_reads,
                    ctx.key_writes,
                )
            }
            Some((from, to)) => {
                debug_assert_ne!(from, to);
                let k = local as usize;
                let (src, dst) = two_nodes(&mut self.stores, from as usize, to as usize);
                let source = &mut src[k];
                source.record_slot_access(slot);
                let dest = &mut dst[k];
                // The moved set may not exist yet if no chunk of this
                // slot has run; an empty set routes everything to the
                // source. `HashSet::new`
                // does not allocate, so the fallback is free.
                let empty = HashSet::new();
                let moved = self.moved.get(&slot).unwrap_or(&empty);
                let mut ctx = TxnCtx::migrating(slot, num_slots, source, dest, moved);
                ctx.set_capture(capture);
                let result = proc.execute(&mut ctx);
                (
                    result,
                    ctx.touched_dest,
                    ctx.rwset,
                    ctx.key_reads,
                    ctx.key_writes,
                )
            }
        };
        TxnFate {
            result,
            touched_dest,
            rwset,
            proc: proc.name(),
            slot,
            migrating: in_flight.is_some(),
            key_reads,
            key_writes,
        }
    }

    /// Moves up to `budget` bytes of `slot` from `from` to `to`,
    /// maintaining the moved-key set. Returns `(rows, bytes, emptied)`;
    /// on `emptied` the moved set is retired (the cluster flips routing).
    pub fn migrate_chunk(
        &mut self,
        slot: u64,
        from: u32,
        to: u32,
        local: u32,
        budget: usize,
    ) -> (usize, usize, bool) {
        let k = local as usize;
        let moved = self.moved.entry(slot).or_default();
        let (src, dst) = two_nodes(&mut self.stores, from as usize, to as usize);
        let (rows, bytes, emptied) = src[k].extract_chunk(slot, budget.max(1));
        for (tid, key, _) in &rows {
            moved.insert((*tid, key.clone()));
        }
        // A moving key's version counter travels with it so the sampled
        // history stays one chain across the migration; when the slot
        // empties, tombstone-only counters follow in one batch.
        if self.track_versions {
            let versions: Vec<((TableId, Key), u64)> = rows
                .iter()
                .filter_map(|(tid, key, _)| {
                    src[k]
                        .take_version(slot, *tid, key)
                        .map(|v| ((*tid, key.clone()), v))
                })
                .collect();
            dst[k].install_versions(slot, versions);
            if emptied {
                let tail = src[k].take_slot_versions(slot);
                dst[k].install_versions(slot, tail);
            }
        }
        let n_rows = rows.len();
        dst[k].install_rows(slot, rows);
        if emptied {
            self.moved.remove(&slot);
        }
        (n_rows, bytes, emptied)
    }

    /// Per-partition report: `(node, local, accesses, bytes, rows)` for
    /// every store, in (node, local) order.
    #[allow(clippy::cast_possible_truncation)] // node/partition indices fit u32
    pub fn report(&self) -> Vec<(u32, u32, u64, usize, usize)> {
        let mut out = Vec::new();
        for (n, node) in self.stores.iter().enumerate() {
            for (k, store) in node.iter().enumerate() {
                out.push((
                    n as u32,
                    k as u32,
                    store.accesses(),
                    store.total_bytes(),
                    store.total_rows(),
                ));
            }
        }
        out
    }

    /// Per-slot access counts merged across every partition,
    /// sorted by slot id.
    pub fn slot_counts(&self) -> Vec<(u64, u64)> {
        let mut merged: HashMap<u64, u64> = HashMap::new();
        for store in self.stores.iter().flatten() {
            for (slot, count) in store.slot_accesses() {
                *merged.entry(slot).or_default() += count;
            }
        }
        let mut out: Vec<(u64, u64)> = merged.into_iter().collect();
        out.sort_unstable();
        out
    }

    /// Resets every per-slot access counter (new monitoring window).
    pub fn reset_slot_accesses(&mut self) {
        for store in self.stores.iter_mut().flatten() {
            store.reset_slot_accesses();
        }
    }

    /// Resident bytes of `slot` on `(node, local)`.
    pub fn slot_bytes_at(&self, slot: u64, node: u32, local: u32) -> usize {
        self.stores[node as usize][local as usize].slot_bytes(slot)
    }

    /// Clones every row of `table` (unsorted).
    pub fn export_table(&self, table: TableId) -> Vec<(Key, Row)> {
        let mut out = Vec::new();
        for store in self.stores.iter().flatten() {
            for slot in store.resident_slots().collect::<Vec<_>>() {
                out.extend(store.export_slot_table(slot, table));
            }
        }
        out
    }

    /// Integrity snapshot for every store.
    #[allow(clippy::cast_possible_truncation)] // node/partition indices fit u32
    pub fn integrity(&self) -> Vec<StoreIntegrity> {
        let mut out = Vec::new();
        for (n, node) in self.stores.iter().enumerate() {
            for (k, store) in node.iter().enumerate() {
                let mut resident: Vec<u64> = store.resident_slots().collect();
                resident.sort_unstable();
                out.push(StoreIntegrity {
                    node: n as u32,
                    local: k as u32,
                    resident_slots: resident,
                    claimed_bytes: store.total_bytes(),
                    actual_bytes: store.recompute_bytes(),
                });
            }
        }
        out
    }
}

/// Splits two distinct nodes' store rows out of the matrix for
/// simultaneous mutation (migration source and destination).
fn two_nodes<T>(nodes: &mut [T], a: usize, b: usize) -> (&mut T, &mut T) {
    assert_ne!(a, b, "nodes must be distinct");
    if a < b {
        let (lo, hi) = nodes.split_at_mut(b);
        (&mut lo[a], &mut hi[0])
    } else {
        let (lo, hi) = nodes.split_at_mut(a);
        (&mut hi[0], &mut lo[b])
    }
}
