//! Allocation accounting for the per-transaction warm path, measured with
//! a counting global allocator (test binary only — the library never
//! swaps allocators).
//!
//! The engine's dispatch path — routing-key hashing, slot lookup, dense
//! slot-access counters, procedure statistics — must stay off the heap
//! once warm: it runs once per simulated transaction, hundreds of
//! thousands of times per experiment cell. Workload *content* (B2W
//! transactions own their key strings) is excluded by design; its
//! allocation budget is bounded separately below.

use pstore_dbms::catalog::{columns, Catalog, ColumnType, TableSchema};
use pstore_dbms::cluster::{Cluster, ClusterConfig};
use pstore_dbms::txn::{Procedure, TxnCtx, TxnError, TxnOutput};
use pstore_dbms::value::{Key, KeyValue};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts every allocation and reallocation routed through the global
/// allocator, **per thread**: the harness runs tests (and its own
/// bookkeeping) on several threads, so a process-global counter would
/// pick up another thread's allocations mid-measurement and flake — under
/// the native scheduler occasionally, under miri's deterministically.
struct CountingAlloc;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: delegates every operation to `System`, only adding a counter.
// `try_with` (not `with`) keeps allocations during TLS teardown from
// recursing into a destructed counter.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller upholds the `GlobalAlloc::alloc` contract (valid,
    // non-zero-size layout); we forward it to `System` untouched.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: same `layout` the caller vouched for.
        unsafe { System.alloc(layout) }
    }
    // SAFETY: caller upholds the `GlobalAlloc::dealloc` contract (`ptr`
    // came from this allocator with this `layout`).
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` (every alloc above
        // delegates to it), paired with the caller's `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    // SAFETY: caller upholds the `GlobalAlloc::realloc` contract; all
    // three arguments are forwarded untouched.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: `ptr`/`layout` pair is the caller's obligation and
        // `ptr` originated from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations (incl. reallocations) performed by this thread while
/// running `f`.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = THREAD_ALLOCS.with(Cell::get);
    let out = f();
    (THREAD_ALLOCS.with(Cell::get) - before, out)
}

/// Warm-up / probe iteration counts: full-size natively, scaled down
/// under miri (interpreted execution is ~1000x slower; the property —
/// zero allocations once warm — is count-independent as long as every
/// probe key was seen during warm-up).
const WARMUP_KEYS: i64 = if cfg!(miri) { 64 } else { 2_000 };
const PROBE_KEYS: i64 = if cfg!(miri) { 32 } else { 1_000 };

fn test_catalog() -> Catalog {
    let mut cat = Catalog::new();
    cat.add_table(TableSchema::new(
        "KV",
        columns(&[("k", ColumnType::Int), ("v", ColumnType::Int)]),
        1,
    ));
    cat
}

/// A read-only probe: routes by an integer key and checks for a row that
/// is absent, touching routing, the slot-check, the storage lookup, and
/// the procedure/statistics bookkeeping — without producing owned output.
/// The key is owned by the probe (as a real transaction owns its data), so
/// executing it measures only the engine's work.
struct Probe {
    id: i64,
    key: Key,
}

impl Probe {
    fn new(id: i64) -> Self {
        Probe {
            id,
            key: Key::int(id),
        }
    }
}

impl Procedure for Probe {
    fn name(&self) -> &'static str {
        "Probe"
    }
    fn routing_key(&self) -> KeyValue {
        KeyValue::Int(self.id)
    }
    fn execute(&self, ctx: &mut TxnCtx<'_>) -> Result<TxnOutput, TxnError> {
        let _ = ctx.get(0, &self.key);
        Ok(TxnOutput::None)
    }
}

#[test]
fn warm_engine_dispatch_path_is_allocation_free() {
    let mut cluster = Cluster::new(
        test_catalog(),
        ClusterConfig {
            partitions_per_node: 4,
            num_slots: 128,
        },
        3,
    );
    // Warm up: touch every slot so the dense per-partition counters have
    // grown to their final size and the procedure-stats entry exists.
    for key in 0..WARMUP_KEYS {
        cluster.execute(&Probe::new(key)).unwrap();
    }

    // Probe keys are a subset of the warm-up keys, so no lookup below
    // can grow a table for the first time.
    let probes: Vec<Probe> = (0..PROBE_KEYS).map(Probe::new).collect();
    let (n, ()) = allocations(|| {
        for p in &probes {
            cluster.execute(p).unwrap();
        }
    });
    assert_eq!(
        n, 0,
        "warm per-transaction dispatch path allocated {n} times over {PROBE_KEYS} txns"
    );
}

#[test]
fn slot_of_routing_never_allocates_for_typical_keys() {
    let cluster = Cluster::new(test_catalog(), ClusterConfig::default(), 2);
    let int_key = KeyValue::Int(0x00de_adbe_ef42);
    let str_key = KeyValue::Str("cart-00deadbeef42".into());
    let (n, _) = allocations(|| {
        let mut acc = 0u64;
        for _ in 0..PROBE_KEYS {
            acc ^= cluster.slot_of_routing(&int_key);
            acc ^= cluster.slot_of_routing(&str_key);
        }
        acc
    });
    assert_eq!(n, 0, "slot_of_routing allocated {n} times");
}

/// With the `telemetry` feature off, the txn-tracing macros must compile
/// to literally nothing: no allocation, no sink check, not even
/// evaluation of their field expressions (which is also the "zero time"
/// guarantee — code that is cfg'd out of the binary cannot take any).
/// The side-effect counter proves the bodies never ran.
#[cfg(not(feature = "telemetry"))]
#[test]
// The unused import and closure are the property under test: with the
// feature off the macro bodies vanish, so nothing references them.
#[allow(unused_imports, unused_variables)]
fn txn_tracing_macros_vanish_without_the_feature() {
    use pstore_telemetry::{kinds, tel_event, tel_scope, tel_span};

    let evaluated = Cell::new(0u64);
    let tick = || {
        evaluated.set(evaluated.get() + 1);
        evaluated.get()
    };
    let (n, ()) = allocations(|| {
        for _ in 0..PROBE_KEYS {
            tel_event!(kinds::TXN_ARRIVE, "id" => tick(), "slot" => tick());
            tel_event!(
                kinds::TXN_COMMIT,
                "id" => tick(),
                "total" => 0.1f64,
                "queue" => 0.05f64,
                "exec" => 0.05f64,
                "stall" => 0.0f64,
            );
            tel_span!(guard, "work");
            tel_scope!({
                tick();
            });
        }
    });
    assert_eq!(n, 0, "disabled txn tracing allocated {n} times");
    assert_eq!(
        evaluated.get(),
        0,
        "disabled txn tracing evaluated its field expressions"
    );
}

#[test]
fn slot_access_reset_keeps_buffers_and_stays_allocation_free() {
    let mut cluster = Cluster::new(test_catalog(), ClusterConfig::default(), 2);
    let probes: Vec<Probe> = (0..PROBE_KEYS).map(Probe::new).collect();
    for p in &probes {
        cluster.execute(p).unwrap();
    }
    let (n, ()) = allocations(|| {
        cluster.reset_slot_accesses();
        for p in &probes {
            cluster.execute(p).unwrap();
        }
        let counts = cluster.slot_access_counts();
        assert_eq!(
            counts.iter().sum::<u64>(),
            u64::try_from(PROBE_KEYS).unwrap()
        );
    });
    assert_eq!(n, 0, "reset + warm re-count allocated {n} times");
}
