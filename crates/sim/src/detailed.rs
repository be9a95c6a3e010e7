//! Discrete-event simulation of the full system: real engine, real B2W
//! transactions, per-partition queueing, chunk-paced live migration, and a
//! provisioning controller in the loop.
//!
//! This is the vehicle for the paper's §8.1–8.2 experiments (Figs 7–11,
//! Table 2). Timing model:
//!
//! * Each partition is a serial FIFO server. A transaction arriving at `t`
//!   starts at `max(t, busy_until)` and occupies the partition for a jittered
//!   service time; its latency is queueing plus service. With the default
//!   calibration (6 partitions/node, ~13.7 ms mean service) a node saturates
//!   near 438 txn/s, reproducing Fig 7 and the paper's `Q̂ = 350` / `Q = 285`.
//! * Live migration streams run one per machine pair, paced so that a
//!   single stream moves data at rate `R = db_bytes / D`. Every chunk
//!   additionally *occupies* the source and destination partitions for a
//!   fraction of its pacing interval — that contention is what makes
//!   reconfiguration under peak load hurt tail latency (Fig 8, Fig 9c) and
//!   emergency `R x 8` migration overload partitions (Fig 11).
//! * Machine-pair streams follow the §4.4.1 round schedule
//!   ([`MigrationSchedule`]), so machines are allocated just-in-time and
//!   the cost accounting matches Algorithm 4.

// The discrete-event simulation quantises continuous time and load into
// slots and byte counts, and panics on broken scenario setup by design.
#![allow(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::expect_used
)]
use crate::latency::{
    average_machines, count_sla_violations, LatencyRecorder, SecondMetrics, SlaViolations,
    SLA_THRESHOLD_S,
};
use pstore_b2w::generator::{WorkloadConfig, WorkloadGenerator};
use pstore_b2w::schema::b2w_catalog;
use pstore_core::controller::{Action, Observation, Strategy};
use pstore_core::params::SystemParams;
use pstore_core::schedule::MigrationSchedule;
use pstore_dbms::cluster::{Cluster, ClusterConfig};
use pstore_dbms::shard::TxnFate;
use pstore_dbms::txn::Procedure;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Configuration of a detailed simulation run.
#[derive(Debug, Clone)]
pub struct DetailedSimConfig {
    /// System parameters (`Q`, `Q̂`, `D`, `P`, hardware cap).
    pub params: SystemParams,
    /// Offered load per wall-clock second (txn/s). The run lasts
    /// `load.len()` seconds.
    pub load: Vec<f64>,
    /// RNG seed for arrivals and service jitter.
    pub seed: u64,
    /// Benchmark workload tuning.
    pub workload: WorkloadConfig,
    /// Virtual slot count for the engine.
    pub num_slots: usize,
    /// Controller monitoring cadence in seconds.
    pub monitor_interval_s: f64,
    /// Mean transaction service time per partition (seconds).
    pub service_mean_s: f64,
    /// Uniform jitter applied to service times (0.3 = +-30%).
    pub service_jitter: f64,
    /// Pacing interval of one migration chunk at the non-disruptive rate
    /// (seconds). The paper's 1000 kB chunks at `R ≈ 244 kB/s` pace at
    /// ~4.1 s.
    pub chunk_pacing_s: f64,
    /// Fraction of each involved partition that one migration stream
    /// occupies while transferring at the non-disruptive rate (`R x 1`).
    /// Emergency moves at `R x m` occupy `m` times as much.
    pub migration_cpu_fraction: f64,
    /// Client timeout: an arrival that would wait longer than this in a
    /// partition queue is dropped and observed by the client at this
    /// latency. Models the benchmark driver's bounded outstanding work —
    /// without it an overloaded open-loop system accumulates unbounded
    /// backlog that takes hours to drain, which real drivers never see.
    pub max_queue_delay_s: f64,
    /// Untimed warm-up transactions executed before the clock starts, so
    /// the database reaches its steady-state size (the paper's §4.2
    /// assumes a stable database; a growing one stretches early moves
    /// because the migration rate is calibrated to `D` at start size).
    pub warmup_txns: usize,
    /// Emit the per-transaction lifecycle event family
    /// (`txn_arrive`/`txn_queue`/`txn_stall`/`txn_execute`/`txn_commit`/
    /// `txn_abort`, plus the engine-derived `txn_rwset`/`txn_restart`) for
    /// every Nth arrival. `0` (the default) disables per-txn emission
    /// entirely, keeping the trace event count — and therefore the
    /// committed run goldens — unchanged; the per-second attribution
    /// aggregates on `SecondMetrics` stay on regardless. Sampled events
    /// are all stamped at the arrival's processing time (end times travel
    /// as fields) so TEL-04's monotone-time invariant holds, and they are
    /// emitted at the next pipeline flush in arrival order.
    pub txn_sample_every: u64,
    /// Must be `1`: the engine has one inline executor. Kept only because
    /// the benchmark package (`perfbench/`) sets it; [`run_detailed`]
    /// panics on any other value.
    pub shards: u32,
    /// Must be `false`: there are no executor shards to report on. Kept
    /// only because the benchmark package (`perfbench/`) sets it;
    /// [`run_detailed`] panics when it is `true`.
    pub shard_spans: bool,
    /// Emit the provisioning-observatory event family (`prov_run`,
    /// `prov_interval`, `prov_forecast`, `prov_decision`, `prov_reconfig`,
    /// `prov_chunk`) for this run. Off by default — like `txn_sample_every`,
    /// the gate keeps the default-config trace goldens byte-identical; see
    /// [`prov_events_from_env`].
    pub prov_events: bool,
}

/// Provisioning-observatory switch from the `PSTORE_PROV_EVENTS`
/// environment variable (default off). Used by
/// [`DetailedSimConfig::paper_defaults`] and
/// [`FastSimConfig::paper_defaults`](crate::FastSimConfig) so the `prov_*`
/// event family can be enabled without code changes.
pub fn prov_events_from_env() -> bool {
    std::env::var("PSTORE_PROV_EVENTS").is_ok_and(|v| matches!(v.as_str(), "1" | "true" | "on"))
}

impl DetailedSimConfig {
    /// The paper's calibration (§8.1) around a given load curve.
    pub fn paper_defaults(load: Vec<f64>, seed: u64) -> Self {
        DetailedSimConfig {
            params: SystemParams::b2w_paper(),
            load,
            seed,
            workload: WorkloadConfig {
                num_skus: 5_000,
                initial_carts: 1_500,
                ..WorkloadConfig::default()
            },
            num_slots: 7_200,
            monitor_interval_s: 30.0,
            // Slightly faster than 6/438 so that after residual partition
            // skew the *measured* saturation (Fig 7) lands at the paper's
            // 438 txn/s per node.
            service_mean_s: 6.0 / 490.0,
            service_jitter: 0.3,
            chunk_pacing_s: 4.1,
            migration_cpu_fraction: 0.05,
            max_queue_delay_s: 2.0,
            warmup_txns: 150_000,
            txn_sample_every: 0,
            shards: 1,
            shard_spans: false,
            prov_events: prov_events_from_env(),
        }
    }
}

/// Result of a detailed simulation run.
#[derive(Debug, Clone)]
pub struct DetailedSimResult {
    /// Name of the controller that produced the run.
    pub strategy: String,
    /// Per-second metrics.
    pub seconds: Vec<SecondMetrics>,
    /// SLA violations per percentile (Table 2).
    pub violations: SlaViolations,
    /// Average machines allocated (Table 2).
    pub avg_machines: f64,
    /// `(start, end)` times of each reconfiguration.
    pub reconfig_spans: Vec<(f64, f64)>,
    /// Committed transactions.
    pub committed: u64,
    /// Aborted transactions (business aborts).
    pub aborted: u64,
    /// Arrivals dropped by the client timeout.
    pub dropped: u64,
    /// Per-procedure `(name, committed, aborted)` counts, most-called
    /// first — the realised workload mix (cf. Table 4).
    pub procedure_mix: Vec<(String, u64, u64)>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    /// Per-second bookkeeping: generate next second's arrivals.
    Second(u64),
    /// Controller monitoring tick.
    Monitor(usize),
    /// A chunk of the (from, to) migration stream.
    Chunk { from: u32, to: u32 },
}

#[derive(Debug, Clone, Copy)]
struct Timed {
    time: f64,
    seq: u64,
    event: Event,
}

impl PartialEq for Timed {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Timed {}
impl PartialOrd for Timed {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Timed {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.seq.cmp(&other.seq))
    }
}

/// A sampled arrival whose lifecycle events are deferred to the next
/// pipeline flush. All timing attribution is computed sim-side at arrival
/// time; only the engine-dependent fields (commit/abort, read/write set,
/// restart flag) wait for the fate, which arrives in submission order.
/// Deferring *all* sampled events — dropped arrivals too — preserves
/// arrival-order interleaving in the trace.
#[cfg(feature = "telemetry")]
struct SampledTxn {
    id: u64,
    at: f64,
    slot: u64,
    kind: SampledKind,
}

#[cfg(feature = "telemetry")]
enum SampledKind {
    /// Shed by the client timeout; never executed. `exec` carries the
    /// mean service time the client-side observation assumes.
    Dropped { queue: f64, stall: f64, exec: f64 },
    /// Executed; `idx` is the position of its fate in the next drained
    /// batch (submissions since the last flush).
    Executed {
        idx: usize,
        queue: f64,
        stall: f64,
        service: f64,
        end: f64,
    },
}

/// Drains every outstanding fate (in submission order), folds commit/abort
/// totals, and emits the deferred sampled-transaction events. Called
/// after every event-heap pop — so the engine pipeline never crosses a
/// scheduled event boundary — and once after the loop.
fn flush_pipeline(
    cluster: &mut Cluster,
    fates: &mut Vec<TxnFate>,
    #[cfg(feature = "telemetry")] deferred: &mut Vec<SampledTxn>,
    committed: &mut u64,
    aborted: &mut u64,
) {
    // A window of nothing but dropped arrivals has no fates to drain but
    // may still hold deferred (timeout-abort) events to emit.
    #[cfg(feature = "telemetry")]
    let idle = cluster.pending_fates() == 0 && deferred.is_empty();
    #[cfg(not(feature = "telemetry"))]
    let idle = cluster.pending_fates() == 0;
    if idle {
        return;
    }
    fates.clear();
    cluster.drain_fates_into(fates);
    for fate in fates.iter() {
        if fate.result.is_ok() {
            *committed += 1;
        } else {
            *aborted += 1;
        }
    }
    #[cfg(feature = "telemetry")]
    {
        for s in deferred.iter() {
            pstore_telemetry::set_time(s.at);
            pstore_telemetry::emit(
                pstore_telemetry::Event::new(pstore_telemetry::kinds::TXN_ARRIVE)
                    .with("id", s.id)
                    .with("slot", s.slot),
            );
            match s.kind {
                SampledKind::Dropped { queue, stall, exec } => {
                    emit_txn_wait(s.id, queue + stall, stall);
                    pstore_telemetry::emit(
                        pstore_telemetry::Event::new(pstore_telemetry::kinds::TXN_ABORT)
                            .with("id", s.id)
                            .with("reason", "timeout")
                            .with("total", queue + exec + stall)
                            .with("queue", queue)
                            .with("exec", exec)
                            .with("stall", stall)
                            .with("end", s.at + queue + exec + stall),
                    );
                }
                SampledKind::Executed {
                    idx,
                    queue,
                    stall,
                    service,
                    end,
                } => {
                    let fate = &fates[idx];
                    let ok = fate.result.is_ok();
                    if fate.touched_dest {
                        // The Squall-style switchover: an access resolved
                        // against the destination means the transaction
                        // was rerouted mid-migration — the engine-level
                        // analogue of a restart-on-moved-data.
                        pstore_telemetry::emit(
                            pstore_telemetry::Event::new(pstore_telemetry::kinds::TXN_RESTART)
                                .with("id", s.id)
                                .with("slot", s.slot),
                        );
                    }
                    pstore_telemetry::emit(pstore_dbms::cluster::txn_rwset_event(
                        s.id, s.slot, fate,
                    ));
                    emit_txn_wait(s.id, queue + stall, stall);
                    pstore_telemetry::emit(
                        pstore_telemetry::Event::new(pstore_telemetry::kinds::TXN_EXECUTE)
                            .with("id", s.id)
                            .with("service", service),
                    );
                    let terminal = if ok {
                        pstore_telemetry::kinds::TXN_COMMIT
                    } else {
                        pstore_telemetry::kinds::TXN_ABORT
                    };
                    let mut ev = pstore_telemetry::Event::new(terminal)
                        .with("id", s.id)
                        .with("total", queue + service + stall)
                        .with("queue", queue)
                        .with("exec", service)
                        .with("stall", stall)
                        .with("end", end);
                    if !ok {
                        ev = ev.with("reason", "business");
                    }
                    pstore_telemetry::emit(ev);
                }
            }
        }
        deferred.clear();
    }
}

struct ActiveMigration {
    schedule: MigrationSchedule,
    /// Machine pairs per round.
    rounds: Vec<Vec<(u32, u32)>>,
    current_round: usize,
    /// (from, to) -> engine pair index.
    pair_index: HashMap<(u32, u32), usize>,
    /// Streams of the current round still pacing.
    active_streams: usize,
    rate_multiplier: f64,
    /// Byte rate of one stream at multiplier 1 (`db_bytes / D`).
    stream_rate: f64,
    started_at: f64,
    /// Provenance: the `prov_decision` id that requested this move
    /// (0 = unattributed), its endpoints, and running move totals for the
    /// `prov_reconfig` summary emitted when the move completes. Tracked
    /// unconditionally (cheap, and keeps the constructor uniform) but only
    /// read by the telemetry-gated emission sites.
    #[cfg_attr(not(feature = "telemetry"), allow(dead_code))]
    decision_id: u64,
    #[cfg_attr(not(feature = "telemetry"), allow(dead_code))]
    from_machines: u32,
    #[cfg_attr(not(feature = "telemetry"), allow(dead_code))]
    to_machines: u32,
    chunks_moved: u64,
    rows_moved: u64,
    bytes_moved: u64,
}

/// Runs a detailed simulation under the given provisioning strategy.
pub fn run_detailed(cfg: &DetailedSimConfig, strategy: &mut dyn Strategy) -> DetailedSimResult {
    cfg.params.validate();
    assert!(cfg.monitor_interval_s > 0.0, "monitor interval must be > 0");
    assert_eq!(
        cfg.shards, 1,
        "DetailedSimConfig::shards must be 1: the engine has one inline executor"
    );
    assert!(
        !cfg.shard_spans,
        "DetailedSimConfig::shard_spans must be false: the engine has no executor shards"
    );
    let p = cfg.params.partitions_per_node;

    // Root span for the whole run; the sim clock starts at 0 so setup
    // and warm-up events are stamped (at t=0, they take no sim time).
    #[cfg(feature = "telemetry")]
    let run_span = {
        pstore_telemetry::set_time(0.0);
        if pstore_telemetry::enabled() {
            pstore_telemetry::begin_span("detailed_sim", &[])
        } else {
            0
        }
    };

    let mut cluster = Cluster::new(
        b2w_catalog(),
        ClusterConfig {
            partitions_per_node: p,
            num_slots: cfg.num_slots,
        },
        strategy
            .initial_machines()
            .clamp(1, cfg.params.max_machines),
    );
    // The provisioning-observatory gate rides the run: prov_* emission in
    // the controllers (via `ProvScorer`) and in this loop is thread-local,
    // so the flag is scoped to the run and restored on exit.
    #[cfg(feature = "telemetry")]
    let prov_was = pstore_telemetry::set_prov_enabled(cfg.prov_events);
    #[cfg(feature = "telemetry")]
    if pstore_telemetry::prov_enabled() {
        pstore_telemetry::emit(
            pstore_telemetry::Event::new(pstore_telemetry::kinds::PROV_RUN)
                .with("q", cfg.params.q)
                .with("d_s", cfg.params.d.as_secs_f64())
                .with("interval_s", cfg.monitor_interval_s)
                .with("initial", cluster.active_nodes())
                .with("policy", strategy.name()),
        );
    }
    // Key-level version tracking rides the sampling switch: goldens run
    // with `txn_sample_every = 0` and keep the engine version-free (and
    // their traces byte-stable); sampled runs get per-key version
    // histories so the ISO-01..03 serializability checkers have real
    // WR/WW/RW evidence to work with.
    #[cfg(feature = "telemetry")]
    if cfg.txn_sample_every > 0 && pstore_telemetry::enabled() {
        cluster.set_track_versions(true);
    }
    let mut gen = WorkloadGenerator::new(cfg.workload.clone());
    // Fate scratch buffer for the submit/drain pipeline (reused between
    // flushes so the steady state allocates nothing).
    let mut fates: Vec<TxnFate> = Vec::new();
    #[cfg(feature = "telemetry")]
    let warmup_span = if pstore_telemetry::enabled() {
        pstore_telemetry::begin_span("warmup", &[])
    } else {
        0
    };
    for proc in gen.seed_stock_procedures() {
        let slot = cluster.slot_of_routing(&proc.routing_key());
        cluster.submit(proc, slot);
    }
    cluster.drain_fates_into(&mut fates);
    assert!(
        fates.iter().all(|f| f.result.is_ok()),
        "stock seeding failed"
    );
    fates.clear();
    for txn in gen.initial_load() {
        let slot = cluster.slot_of_routing(&txn.routing_key());
        cluster.submit(txn, slot);
    }
    cluster.drain_fates_into(&mut fates);
    assert!(
        fates.iter().all(|f| f.result.is_ok()),
        "initial cart load failed"
    );
    fates.clear();
    // Untimed warm-up: run the generator until carts/checkouts/stock-txn
    // populations reach steady state so the database size is stable.
    // Fates are discarded in batches.
    for _ in 0..cfg.warmup_txns {
        let txn = gen.next_txn();
        let slot = cluster.slot_of_routing(&txn.routing_key());
        cluster.submit(txn, slot);
        if cluster.pending_fates() >= 4096 {
            fates.clear();
            cluster.drain_fates_into(&mut fates);
        }
    }
    fates.clear();
    cluster.drain_fates_into(&mut fates);
    fates.clear();
    #[cfg(feature = "telemetry")]
    pstore_telemetry::end_span("warmup", warmup_span, &[]);

    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xD15C);
    let mut busy = vec![vec![0.0f64; p as usize]; cfg.params.max_machines as usize];
    // Latency-attribution state, parallel to `busy`. `mig_backlog` is the
    // outstanding chunk-burst service time injected into each partition;
    // `stall_frontier` is the partition's busy-until as of the last burst.
    // An arrival inside the frontier window has up to `mig_backlog` of its
    // wait attributed to migration interference; once a partition drains
    // past its frontier the backlog resets — later waits are pure queueing.
    let mut mig_backlog = vec![vec![0.0f64; p as usize]; cfg.params.max_machines as usize];
    let mut stall_frontier = vec![vec![0.0f64; p as usize]; cfg.params.max_machines as usize];
    // Arrival ordinal, doubling as the sampled per-txn trace id.
    #[cfg(feature = "telemetry")]
    let mut arrival_seq = 0u64;
    let mut recorder = LatencyRecorder::new();
    recorder.set_machines(cluster.active_nodes() as f64);

    let mut heap: BinaryHeap<Reverse<Timed>> = BinaryHeap::new();
    let mut seq = 0u64;
    let push = |heap: &mut BinaryHeap<Reverse<Timed>>, seq: &mut u64, time: f64, event: Event| {
        *seq += 1;
        heap.push(Reverse(Timed {
            time,
            seq: *seq,
            event,
        }));
    };

    push(&mut heap, &mut seq, 0.0, Event::Second(0));
    push(&mut heap, &mut seq, 0.0, Event::Monitor(0));

    let horizon = cfg.load.len() as f64;
    let mut migration: Option<ActiveMigration> = None;
    let mut reconfig_spans: Vec<(f64, f64)> = Vec::new();
    let mut arrivals_in_window = 0u64;
    let mut committed = 0u64;
    let mut aborted = 0u64;
    let mut dropped = 0u64;
    // The current second's arrival times, sorted ascending, drained by
    // cursor. Arrivals vastly outnumber every other event, so keeping them
    // out of the heap turns n pushes and n pops of `O(log heap)` each into
    // one sort of an already-allocated buffer per second. A stable sort
    // preserves generation order on (measure-zero) exact-time ties, which
    // is what the old per-arrival heap seq numbers did.
    let mut arrivals: Vec<f64> = Vec::new();
    let mut next_arrival = 0usize;
    // Sampled arrivals awaiting their fates; emitted at the next flush.
    #[cfg(feature = "telemetry")]
    let mut deferred: Vec<SampledTxn> = Vec::new();
    // Submissions since the last flush — the index a deferred sampled
    // arrival uses to find its fate in the drained batch.
    #[cfg(feature = "telemetry")]
    let mut submitted_since_flush = 0usize;

    loop {
        // Arrivals due before the next scheduled event run first; ties go
        // to the heap event (arrival times are strictly inside a second,
        // so they can never tie with the integer-timed Second events that
        // bound their window).
        if let Some(&at) = arrivals.get(next_arrival) {
            if heap.peek().is_none_or(|r| at < r.0.time) {
                next_arrival += 1;
                arrivals_in_window += 1;
                #[cfg(feature = "telemetry")]
                {
                    arrival_seq += 1;
                }
                let txn = gen.next_txn();
                // Resolve the routing slot once; submit reuses it instead
                // of re-hashing the routing key.
                let slot = cluster.slot_of_routing(&txn.routing_key());
                let (node, local) = cluster.partition_of_slot(slot);
                let (n, l) = (node as usize, local as usize);
                let wait = (busy[n][l] - at).max(0.0);
                // Migration-interference share of the wait (see the state
                // comments above): bounded by the wait itself, by the
                // outstanding burst backlog, and by the remaining frontier
                // window.
                let frontier = stall_frontier[n][l];
                let backlog = if at >= frontier {
                    mig_backlog[n][l] = 0.0;
                    0.0
                } else {
                    mig_backlog[n][l]
                };
                let stall_cap = backlog.min((frontier - at).max(0.0));
                #[cfg(feature = "telemetry")]
                let sampled = cfg.txn_sample_every > 0
                    && arrival_seq.is_multiple_of(cfg.txn_sample_every)
                    && pstore_telemetry::enabled();
                if wait > cfg.max_queue_delay_s {
                    // Client timeout: the request is shed, observed at the
                    // timeout latency, and never executes.
                    dropped += 1;
                    let stall = cfg.max_queue_delay_s.min(stall_cap);
                    let queue = cfg.max_queue_delay_s - stall;
                    recorder.record_attributed(at, queue, cfg.service_mean_s, stall);
                    #[cfg(feature = "telemetry")]
                    if sampled {
                        deferred.push(SampledTxn {
                            id: arrival_seq,
                            at,
                            slot,
                            kind: SampledKind::Dropped {
                                queue,
                                stall,
                                exec: cfg.service_mean_s,
                            },
                        });
                    }
                    continue;
                }
                // Submit the transaction; its fate is collected (in
                // submission order) at the next flush. All timing is
                // decided here, sim-side. Sampled transactions carry a
                // trace tag so the engine captures their key-level
                // read/write sets into the fate.
                #[cfg(feature = "telemetry")]
                if sampled {
                    cluster.set_txn_trace_id(arrival_seq);
                }
                cluster.submit(txn, slot);
                #[cfg(feature = "telemetry")]
                {
                    submitted_since_flush += 1;
                }
                let service = cfg.service_mean_s
                    * (1.0 + rng.random_range(-cfg.service_jitter..cfg.service_jitter));
                let b = &mut busy[n][l];
                let start = b.max(at);
                *b = start + service;
                let stall = wait.min(stall_cap);
                let queue = wait - stall;
                recorder.record_attributed(at, queue, service, stall);
                #[cfg(feature = "telemetry")]
                if sampled {
                    deferred.push(SampledTxn {
                        id: arrival_seq,
                        at,
                        slot,
                        kind: SampledKind::Executed {
                            idx: submitted_since_flush - 1,
                            queue,
                            stall,
                            service,
                            end: *b,
                        },
                    });
                }
                continue;
            }
        }
        let Some(Reverse(Timed { time, event, .. })) = heap.pop() else {
            break;
        };
        // Settle the engine pipeline before handling any scheduled event:
        // monitor ticks read partition reports, chunk events migrate, and
        // the deferred sampled events must precede anything stamped at
        // `time` (their arrival times are all earlier — TEL-04).
        flush_pipeline(
            &mut cluster,
            &mut fates,
            #[cfg(feature = "telemetry")]
            &mut deferred,
            &mut committed,
            &mut aborted,
        );
        #[cfg(feature = "telemetry")]
        {
            submitted_since_flush = 0;
        }
        if time >= horizon && heap.is_empty() {
            break;
        }
        // Stamp telemetry events with simulation time rather than wall time.
        #[cfg(feature = "telemetry")]
        pstore_telemetry::set_time(time);
        match event {
            Event::Second(s) => {
                recorder.advance_to(time);
                if (s as f64) < horizon {
                    // Generate this second's Poisson arrivals into the
                    // reused buffer (the previous second's are always fully
                    // drained: they are strictly earlier than this event).
                    debug_assert_eq!(next_arrival, arrivals.len());
                    let lambda = cfg.load[s as usize].max(0.0);
                    let n = sample_poisson(&mut rng, lambda);
                    arrivals.clear();
                    next_arrival = 0;
                    for _ in 0..n {
                        arrivals.push(time + rng.random_range(0.0..1.0));
                    }
                    arrivals.sort_by(f64::total_cmp);
                    push(&mut heap, &mut seq, time + 1.0, Event::Second(s + 1));
                }
            }
            Event::Monitor(k) => {
                recorder.advance_to(time);
                let window = cfg.monitor_interval_s;
                let measured = arrivals_in_window as f64 / window;
                arrivals_in_window = 0;
                // Each monitor tick also samples the §8.1 uniformity
                // figures (Table 2's companion analysis): access and data
                // skew land in the metrics registry as gauges and in the
                // trace as `skew_sample` events.
                #[cfg(feature = "telemetry")]
                record_skew_sample(&cluster);
                #[cfg(feature = "telemetry")]
                if pstore_telemetry::prov_enabled() {
                    pstore_telemetry::emit(
                        pstore_telemetry::Event::new(pstore_telemetry::kinds::PROV_INTERVAL)
                            .with("interval", k)
                            .with("observed", measured)
                            .with("machines", cluster.active_nodes())
                            .with("reconfiguring", migration.is_some()),
                    );
                }
                let obs = Observation {
                    interval: k,
                    load: measured,
                    machines: cluster.active_nodes(),
                    reconfiguring: migration.is_some(),
                };
                // The tick span closes before any reconfiguration span
                // opens in `start_migration`, keeping spans LIFO-nested.
                #[cfg(feature = "telemetry")]
                let tick_span = if pstore_telemetry::enabled() {
                    pstore_telemetry::begin_span("tick", &[])
                } else {
                    0
                };
                let action = strategy.tick(&obs);
                #[cfg(feature = "telemetry")]
                pstore_telemetry::end_span("tick", tick_span, &[]);
                if let Action::Reconfigure(req) = action {
                    if migration.is_none() && req.target != cluster.active_nodes() {
                        let target = req.target.clamp(1, cfg.params.max_machines);
                        if target != cluster.active_nodes() {
                            migration = Some(start_migration(
                                &mut cluster,
                                target,
                                req.rate_multiplier,
                                req.decision_id,
                                cfg,
                                time,
                                &mut heap,
                                &mut seq,
                            ));
                            recorder.set_reconfiguring(true);
                            if let Some(m) = &migration {
                                recorder.set_machines(m.schedule.machines_in_round(0) as f64);
                            }
                        }
                    }
                }
                if time + window < horizon {
                    push(&mut heap, &mut seq, time + window, Event::Monitor(k + 1));
                }
            }
            Event::Chunk { from, to } => {
                let Some(m) = migration.as_mut() else {
                    continue;
                };
                // A chunk is a byte budget; it may span several (possibly
                // empty) slots of this pair's stream. Pacing and occupancy
                // are proportional to the bytes actually carried, so the
                // whole move takes T(B, A) regardless of slot sizes.
                let chunk_bytes = (m.stream_rate * cfg.chunk_pacing_s).max(1.0) as usize;
                let mut moved = 0usize;
                let mut moved_rows = 0usize;
                let mut pair_done;
                let mut reconfig_done = false;
                if let Some(&pair_idx) = m.pair_index.get(&(from, to)) {
                    let mut remaining = chunk_bytes;
                    loop {
                        let result = cluster
                            .migrate_chunk(pair_idx, remaining.max(1))
                            .expect("migration running");
                        moved += result.bytes;
                        moved_rows += result.rows;
                        reconfig_done = result.reconfig_done;
                        pair_done = result.pair_done;
                        if pair_done || reconfig_done {
                            break;
                        }
                        if result.bytes >= remaining || !result.slot_completed {
                            break; // budget consumed mid-slot
                        }
                        remaining -= result.bytes;
                    }
                } else {
                    // The engine had no slots for this schedule pair.
                    pair_done = true;
                }
                if moved > 0 {
                    m.chunks_moved += 1;
                    m.rows_moved += moved_rows as u64;
                    m.bytes_moved += moved as u64;
                    #[cfg(feature = "telemetry")]
                    if pstore_telemetry::prov_enabled() {
                        pstore_telemetry::emit(
                            pstore_telemetry::Event::new(pstore_telemetry::kinds::PROV_CHUNK)
                                .with("id", m.decision_id)
                                .with("from", from)
                                .with("to", to)
                                .with("bytes", moved),
                        );
                    }
                }

                // Partition occupancy on both sides: a machine-pair
                // transfer runs P parallel partition streams, so every
                // partition of both endpoints carries the per-stream
                // overhead, proportional to the data carried.
                let fill = (moved as f64 / chunk_bytes as f64).min(1.0);
                let burst = cfg.migration_cpu_fraction * cfg.chunk_pacing_s * fill;
                if burst > 0.0 {
                    for node in [from, to] {
                        let n = node as usize;
                        for (local, part) in busy[n].iter_mut().enumerate() {
                            *part = part.max(time) + burst;
                            // Arrivals landing before the new frontier see
                            // this burst as migration stall, not queueing.
                            mig_backlog[n][local] += burst;
                            stall_frontier[n][local] = *part;
                        }
                    }
                }

                if reconfig_done {
                    let started = m.started_at;
                    reconfig_spans.push((started, time));
                    #[cfg(feature = "telemetry")]
                    if pstore_telemetry::prov_enabled() {
                        pstore_telemetry::emit(
                            pstore_telemetry::Event::new(pstore_telemetry::kinds::PROV_RECONFIG)
                                .with("id", m.decision_id)
                                .with("from", m.from_machines)
                                .with("to", m.to_machines)
                                .with("start", started)
                                .with("duration_s", time - started)
                                .with("chunks", m.chunks_moved)
                                .with("rows", m.rows_moved)
                                .with("bytes", m.bytes_moved),
                        );
                    }
                    migration = None;
                    recorder.set_reconfiguring(false);
                    recorder.set_machines(cluster.active_nodes() as f64);
                } else if pair_done {
                    m.active_streams -= 1;
                    if m.active_streams == 0 {
                        // Advance to the next round with live pairs.
                        advance_round(m, &cluster, time, &mut heap, &mut seq);
                        recorder.set_machines(
                            m.schedule.machines_in_round(
                                m.current_round
                                    .min(m.schedule.total_rounds().saturating_sub(1)),
                            ) as f64,
                        );
                    }
                } else {
                    // Pace the next chunk proportionally to what was moved.
                    let frac = fill.max(0.05);
                    let next = time + cfg.chunk_pacing_s * frac / m.rate_multiplier;
                    push(&mut heap, &mut seq, next, Event::Chunk { from, to });
                }
            }
        }
    }

    // Settle whatever the final partial window left in flight.
    flush_pipeline(
        &mut cluster,
        &mut fates,
        #[cfg(feature = "telemetry")]
        &mut deferred,
        &mut committed,
        &mut aborted,
    );
    // A migration still in flight when the run ends would leave the
    // engine's reconfig span dangling (TEL-01) and the root close below
    // out of LIFO order (TEL-02); close it explicitly, marked truncated.
    if migration.is_some() {
        cluster.end_truncated_reconfig_span();
    }
    // Flush the recorder's trailing seconds before the root span closes,
    // so their `second` events land inside the run and trace analyses
    // (`pstore-trace slo`) attribute them to it rather than to a phantom
    // between-runs segment.
    let seconds = recorder.finish();
    #[cfg(feature = "telemetry")]
    pstore_telemetry::end_span("detailed_sim", run_span, &[]);
    #[cfg(feature = "telemetry")]
    pstore_telemetry::set_prov_enabled(prov_was);
    let violations = count_sla_violations(&seconds, SLA_THRESHOLD_S);
    let avg_machines = average_machines(&seconds);
    let procedure_mix = cluster
        .procedure_report()
        .into_iter()
        .map(|(name, c, a)| (name.to_string(), c, a))
        .collect();
    DetailedSimResult {
        strategy: strategy.name().to_string(),
        seconds,
        violations,
        avg_machines,
        reconfig_spans,
        committed,
        aborted,
        dropped,
        procedure_mix,
    }
}

/// Emits the wait portion of a sampled transaction's lifecycle: one
/// `txn_queue` event (total wait and its migration-stall share) plus a
/// `txn_stall` event when migration interference contributed at all.
#[cfg(feature = "telemetry")]
fn emit_txn_wait(id: u64, wait: f64, stall: f64) {
    pstore_telemetry::emit(
        pstore_telemetry::Event::new(pstore_telemetry::kinds::TXN_QUEUE)
            .with("id", id)
            .with("wait", wait)
            .with("stall", stall),
    );
    if stall > 0.0 {
        pstore_telemetry::emit(
            pstore_telemetry::Event::new(pstore_telemetry::kinds::TXN_STALL)
                .with("id", id)
                .with("stall", stall),
        );
    }
}

/// Records access- and data-skew summaries over the cluster's partitions
/// into the telemetry registry (gauges under `skew.access.*` /
/// `skew.data.*`) and emits one `skew_sample` event per quantity.
#[cfg(feature = "telemetry")]
fn record_skew_sample(cluster: &Cluster) {
    use pstore_dbms::stats::SkewSummary;
    if !pstore_telemetry::enabled() {
        return;
    }
    let report = cluster.partition_report();
    #[allow(clippy::cast_precision_loss)] // access/byte counts are far below 2^53
    let access: Vec<f64> = report.iter().map(|r| r.2 as f64).collect();
    #[allow(clippy::cast_precision_loss)]
    let data: Vec<f64> = report.iter().map(|r| r.3 as f64).collect();
    for (prefix, values) in [("skew.access", &access), ("skew.data", &data)] {
        let Some(summary) = SkewSummary::from_values(values) else {
            continue;
        };
        pstore_telemetry::with_registry(|reg| {
            for (name, value) in summary.gauge_entries(prefix) {
                reg.set_gauge(&name, value);
            }
        });
        pstore_telemetry::emit(
            pstore_telemetry::Event::new(pstore_telemetry::kinds::SKEW_SAMPLE)
                .with("metric", prefix)
                .with("partitions", summary.partitions)
                .with("max_over_mean", summary.max_over_mean)
                .with("stddev_over_mean", summary.stddev_over_mean),
        );
    }
}

/// Initialises engine + schedule state for a reconfiguration and schedules
/// the first round's chunk events.
#[allow(clippy::too_many_arguments)] // one-shot constructor threading sim state
fn start_migration(
    cluster: &mut Cluster,
    target: u32,
    rate_multiplier: f64,
    decision_id: u64,
    cfg: &DetailedSimConfig,
    now: f64,
    heap: &mut BinaryHeap<Reverse<Timed>>,
    seq: &mut u64,
) -> ActiveMigration {
    let before = cluster.active_nodes();
    let db_bytes = cluster.total_bytes() as f64;
    cluster
        .begin_reconfiguration(target)
        .expect("reconfiguration accepted");
    let schedule = MigrationSchedule::plan(before, target);
    let rounds: Vec<Vec<(u32, u32)>> = schedule
        .rounds()
        .iter()
        .map(|r| r.transfers.iter().map(|t| (t.from, t.to)).collect())
        .collect();
    let pair_index: HashMap<(u32, u32), usize> = cluster
        .pair_transfers()
        .iter()
        .enumerate()
        .map(|(i, p)| ((p.from, p.to), i))
        .collect();
    let mut m = ActiveMigration {
        schedule,
        rounds,
        current_round: 0,
        pair_index,
        active_streams: 0,
        rate_multiplier: rate_multiplier.max(0.1),
        // A machine-pair stream is P parallel partition streams, each at
        // the single-thread rate db / D (Equation 3's accounting).
        stream_rate: cfg.params.partitions_per_node as f64 * db_bytes / cfg.params.d.as_secs_f64(),
        started_at: now,
        decision_id,
        from_machines: before,
        to_machines: target,
        chunks_moved: 0,
        rows_moved: 0,
        bytes_moved: 0,
    };
    // Start round 0 (skipping over rounds whose pairs have no slots).
    m.current_round = usize::MAX; // advance_round starts at 0
    advance_round(&mut m, cluster, now, heap, seq);
    m
}

/// Starts the next round that has at least one live pair. Returns with
/// `active_streams > 0` unless every remaining round is empty (in which
/// case the engine must already have committed — the caller's next chunk
/// event resolves it).
fn advance_round(
    m: &mut ActiveMigration,
    cluster: &Cluster,
    now: f64,
    heap: &mut BinaryHeap<Reverse<Timed>>,
    seq: &mut u64,
) {
    loop {
        m.current_round = m.current_round.wrapping_add(1);
        let Some(round) = m.rounds.get(m.current_round) else {
            return;
        };
        let mut started = 0usize;
        for &(from, to) in round {
            let live = m
                .pair_index
                .get(&(from, to))
                .map(|&i| !cluster.pair_transfers()[i].is_done())
                .unwrap_or(false);
            if live {
                started += 1;
                *seq += 1;
                heap.push(Reverse(Timed {
                    time: now,
                    seq: *seq,
                    event: Event::Chunk { from, to },
                }));
            }
        }
        if started > 0 {
            m.active_streams = started;
            return;
        }
    }
}

/// Poisson sample: exact (Knuth) for small rates, normal approximation for
/// large ones.
fn sample_poisson(rng: &mut StdRng, lambda: f64) -> u64 {
    if lambda <= 0.0 {
        return 0;
    }
    if lambda < 30.0 {
        let l = (-lambda).exp();
        let mut k = 0u64;
        let mut prod = 1.0;
        loop {
            prod *= rng.random_range(0.0..1.0f64);
            if prod <= l {
                return k;
            }
            k += 1;
            if k > 1000 {
                return k; // numerical guard
            }
        }
    }
    // Box-Muller normal approximation.
    let u1: f64 = rng.random_range(f64::EPSILON..1.0);
    let u2: f64 = rng.random_range(0.0..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    (lambda + lambda.sqrt() * z).round().max(0.0) as u64
}

/// Averages a per-second load curve into controller-interval buckets
/// (useful for building oracle forecasters aligned with monitor ticks).
pub fn per_interval_load(load_per_s: &[f64], interval_s: f64) -> Vec<f64> {
    assert!(interval_s >= 1.0, "interval must be at least one second");
    let step = interval_s as usize;
    load_per_s
        .chunks(step)
        .map(|w| w.iter().sum::<f64>() / w.len() as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    #![allow(clippy::float_cmp)] // tests assert exact rational arithmetic
    use super::*;
    use pstore_core::controller::baselines::StaticController;
    use pstore_core::controller::forecaster::OracleForecaster;
    use pstore_core::controller::pstore::{PStoreConfig, PStoreController};
    use pstore_core::controller::reactive::{ReactiveConfig, ReactiveController};
    use pstore_core::planner::{Planner, PlannerConfig};
    use std::time::Duration;

    /// A small, fast test setup: tiny database, short run.
    fn test_cfg(load: Vec<f64>, seed: u64) -> DetailedSimConfig {
        DetailedSimConfig {
            params: SystemParams {
                q: 285.0,
                q_hat: 350.0,
                d: Duration::from_secs(300),
                partitions_per_node: 6,
                interval: Duration::from_secs(30),
                max_machines: 10,
            },
            load,
            seed,
            workload: WorkloadConfig {
                num_skus: 4_000,
                initial_carts: 800,
                ..WorkloadConfig::default()
            },
            num_slots: 360,
            monitor_interval_s: 30.0,
            // Matches paper_defaults' calibration (see that constant).
            service_mean_s: 6.0 / 490.0,
            service_jitter: 0.3,
            chunk_pacing_s: 2.0,
            migration_cpu_fraction: 0.05,
            max_queue_delay_s: 2.0,
            warmup_txns: 20_000,
            txn_sample_every: 0,
            shards: 1,
            shard_spans: false,
            prov_events: false,
        }
    }

    #[test]
    fn static_cluster_handles_moderate_load_with_low_latency() {
        let cfg = test_cfg(vec![400.0; 120], 1);
        let mut strat = StaticController::new(4);
        let r = run_detailed(&cfg, &mut strat);
        assert!(r.seconds.len() >= 120);
        assert!(r.committed > 30_000, "committed {}", r.committed);
        assert_eq!(r.violations.p99, 0, "violations: {:?}", r.violations);
        assert_eq!(r.avg_machines, 4.0);
        assert!(r.reconfig_spans.is_empty());
    }

    #[test]
    fn overloaded_node_violates_sla() {
        // 600 txn/s on one node (saturation ~438): queues must blow up.
        let cfg = test_cfg(vec![600.0; 90], 2);
        let mut strat = StaticController::new(1);
        let r = run_detailed(&cfg, &mut strat);
        assert!(
            r.violations.p99 > 20,
            "expected saturation violations, got {:?}",
            r.violations
        );
    }

    #[test]
    fn saturation_point_matches_calibration() {
        // Ramp load on a single node; find where p99 departs: should be in
        // the neighbourhood of 438 txn/s (Fig 7).
        let load: Vec<f64> = (0..200).map(|s| 100.0 + 3.0 * s as f64).collect();
        let cfg = test_cfg(load.clone(), 3);
        let mut strat = StaticController::new(1);
        let r = run_detailed(&cfg, &mut strat);
        // Find the first second where p99 exceeds 500 ms persistently.
        let mut first_bad = None;
        for w in r.seconds.windows(5) {
            if w.iter().all(|s| s.p99 > SLA_THRESHOLD_S) {
                first_bad = Some(w[0].second);
                break;
            }
        }
        let sec = first_bad.expect("ramp should eventually saturate") as f64;
        let rate_at_break = 100.0 + 3.0 * sec;
        assert!(
            (380.0..520.0).contains(&rate_at_break),
            "saturation at {rate_at_break} txn/s"
        );
    }

    #[test]
    fn reactive_controller_scales_out_under_load() {
        // Ramp from 250 to 800 txn/s over two minutes, then hold. The
        // reactive policy only acts once load crosses 0.9 * Q̂ * machines,
        // i.e. while the cluster is already under pressure.
        let mut load: Vec<f64> = (0..120).map(|s| 250.0 + 550.0 * s as f64 / 120.0).collect();
        load.extend(vec![800.0; 240]);
        let cfg = test_cfg(load, 4);
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
        let r = run_detailed(&cfg, &mut strat);
        assert!(
            !r.reconfig_spans.is_empty(),
            "reactive controller never reconfigured"
        );
        // It must not have acted before the load approached the trigger
        // (that is the defining weakness of reactive provisioning).
        assert!(r.reconfig_spans[0].0 >= 60.0, "acted too early");
        let final_machines = r.seconds.last().unwrap().machines;
        assert!(final_machines >= 3.0, "ended at {final_machines} machines");
        // After scale-out completes, the tail of the run should be clean.
        let tail = &r.seconds[r.seconds.len() - 60..];
        let tail_bad = tail.iter().filter(|s| s.p99 > SLA_THRESHOLD_S).count();
        assert!(tail_bad < 10, "tail still violating: {tail_bad}");
    }

    #[test]
    fn pstore_with_oracle_scales_before_the_rise() {
        let mut load = vec![250.0; 120];
        load.extend(vec![800.0; 180]);
        let cfg = test_cfg(load.clone(), 5);
        let per_interval = per_interval_load(&cfg.load, cfg.monitor_interval_s);
        let planner = Planner::new(PlannerConfig {
            q: 285.0,
            d_intervals: 300.0 / 30.0,
            partitions_per_node: 6,
            max_machines: 10,
        });
        let mut strat = PStoreController::new(
            planner,
            OracleForecaster::new(per_interval),
            PStoreConfig {
                horizon: 10,
                prediction_inflation: 1.0,
                scale_in_confirmations: 3,
                emergency_rate_multiplier: 1.0,
                initial_machines: 1,
            },
        );
        let r = run_detailed(&cfg, &mut strat);
        assert!(!r.reconfig_spans.is_empty(), "P-Store never reconfigured");
        // The first reconfiguration must start before the load rise at
        // t = 120 s.
        let (start, _) = r.reconfig_spans[0];
        assert!(start < 120.0, "reconfigured too late: {start}");
        // Violations should be few (prediction leaves headroom).
        assert!(
            r.violations.p99 < 15,
            "too many violations: {:?}",
            r.violations
        );
    }

    #[test]
    fn migration_at_accelerated_rate_hurts_latency_more() {
        // Run the same forced mid-load reconfiguration at rate 1 and rate 8
        // and compare p99 violations during the move (Fig 11's trade-off:
        // higher rate = worse transient latency, faster completion).
        struct ForcedMove {
            at_tick: usize,
            target: u32,
            rate: f64,
            issued: bool,
        }
        impl Strategy for ForcedMove {
            fn tick(&mut self, obs: &Observation) -> Action {
                if !self.issued && obs.interval >= self.at_tick && !obs.reconfiguring {
                    self.issued = true;
                    return Action::Reconfigure(pstore_core::controller::ReconfigRequest {
                        target: self.target,
                        rate_multiplier: self.rate,
                        reason: pstore_core::controller::ReconfigReason::Emergency,
                        decision_id: 0,
                    });
                }
                Action::None
            }
            fn name(&self) -> &str {
                "forced"
            }
            fn initial_machines(&self) -> u32 {
                2
            }
        }

        let load = vec![650.0; 240]; // near Q̂ for 2 nodes
        let run = |rate: f64, seed: u64| {
            let cfg = test_cfg(load.clone(), seed);
            let mut strat = ForcedMove {
                at_tick: 1,
                target: 4,
                rate,
                issued: false,
            };
            run_detailed(&cfg, &mut strat)
        };
        let slow = run(1.0, 10);
        let fast = run(8.0, 10);
        // The accelerated move must complete sooner.
        let slow_dur = slow.reconfig_spans[0].1 - slow.reconfig_spans[0].0;
        let fast_dur = fast.reconfig_spans[0].1 - fast.reconfig_spans[0].0;
        assert!(
            fast_dur < slow_dur * 0.5,
            "fast {fast_dur} vs slow {slow_dur}"
        );
        // And the transient latency hit during the fast move is larger
        // (Fig 11: migration at 8R overloads the partitions it touches).
        let move_peak = |r: &DetailedSimResult| {
            let (s, e) = r.reconfig_spans[0];
            r.seconds
                .iter()
                .filter(|x| (x.second as f64) >= s && (x.second as f64) <= e + 5.0)
                .map(|x| x.p99)
                .fold(0.0f64, f64::max)
        };
        assert!(
            move_peak(&fast) > move_peak(&slow),
            "fast move peak {} vs slow move peak {}",
            move_peak(&fast),
            move_peak(&slow)
        );
    }

    #[test]
    fn attribution_identity_holds_every_second() {
        // queue + exec + stall must equal the recorded total latency — the
        // TEL-06 identity, at per-second aggregate granularity.
        let cfg = test_cfg(vec![400.0; 90], 11);
        let r = run_detailed(&cfg, &mut StaticController::new(2));
        for s in &r.seconds {
            let recorded = s.mean * s.throughput as f64;
            assert!(
                (s.attr_total - recorded).abs() < 1e-6 * recorded.max(1.0),
                "second {}: attr_total {} vs mean*n {}",
                s.second,
                s.attr_total,
                recorded
            );
            assert!(
                (s.attr_queue + s.attr_exec + s.attr_stall - s.attr_total).abs() < 1e-9,
                "second {}: components do not sum",
                s.second
            );
        }
    }

    #[test]
    fn stall_is_zero_without_migration_and_positive_during_one() {
        // No reconfiguration → no migration interference anywhere.
        let quiet = run_detailed(
            &test_cfg(vec![400.0; 90], 12),
            &mut StaticController::new(2),
        );
        assert!(quiet.reconfig_spans.is_empty());
        assert!(quiet.seconds.iter().all(|s| s.attr_stall == 0.0));

        // A forced mid-load move must show up as stall time during (or
        // shortly after) the reconfiguration window, and nowhere before it.
        struct OneMove(bool);
        impl Strategy for OneMove {
            fn tick(&mut self, obs: &Observation) -> Action {
                if !self.0 && obs.interval >= 1 && !obs.reconfiguring {
                    self.0 = true;
                    return Action::Reconfigure(pstore_core::controller::ReconfigRequest {
                        target: 4,
                        rate_multiplier: 8.0,
                        reason: pstore_core::controller::ReconfigReason::Emergency,
                        decision_id: 0,
                    });
                }
                Action::None
            }
            fn name(&self) -> &str {
                "one-move"
            }
            fn initial_machines(&self) -> u32 {
                2
            }
        }
        let cfg = test_cfg(vec![650.0; 180], 12);
        let r = run_detailed(&cfg, &mut OneMove(false));
        assert_eq!(r.reconfig_spans.len(), 1);
        let (start, _) = r.reconfig_spans[0];
        let before: f64 = r
            .seconds
            .iter()
            .filter(|s| (s.second as f64) < start - 1.0)
            .map(|s| s.attr_stall)
            .sum();
        let during_or_after: f64 = r
            .seconds
            .iter()
            .filter(|s| (s.second as f64) >= start)
            .map(|s| s.attr_stall)
            .sum();
        assert_eq!(before, 0.0, "stall attributed before any chunk moved");
        assert!(
            during_or_after > 0.0,
            "migration produced no attributed stall"
        );
    }

    #[test]
    fn per_interval_load_averages() {
        let load = vec![10.0, 20.0, 30.0, 40.0];
        assert_eq!(per_interval_load(&load, 2.0), vec![15.0, 35.0]);
    }

    #[test]
    fn machine_allocation_follows_schedule_during_moves() {
        // Scale 1 -> 4 under light load; during the move the allocated
        // machine count must pass through the schedule's staircase and the
        // run must end at 4.
        let load = vec![100.0; 200];
        let cfg = test_cfg(load, 6);
        struct OneMove(bool);
        impl Strategy for OneMove {
            fn tick(&mut self, obs: &Observation) -> Action {
                if !self.0 && !obs.reconfiguring {
                    self.0 = true;
                    return Action::Reconfigure(pstore_core::controller::ReconfigRequest {
                        target: 4,
                        rate_multiplier: 1.0,
                        reason: pstore_core::controller::ReconfigReason::Planned,
                        decision_id: 0,
                    });
                }
                Action::None
            }
            fn name(&self) -> &str {
                "one-move"
            }
            fn initial_machines(&self) -> u32 {
                1
            }
        }
        let r = run_detailed(&cfg, &mut OneMove(false));
        assert_eq!(r.reconfig_spans.len(), 1);
        assert_eq!(r.seconds.last().unwrap().machines, 4.0);
        // Mid-move the allocation is between 1 and 4.
        let (s, e) = r.reconfig_spans[0];
        let mid: Vec<f64> = r
            .seconds
            .iter()
            .filter(|x| (x.second as f64) > s && (x.second as f64) < e)
            .map(|x| x.machines)
            .collect();
        assert!(
            mid.iter().any(|&m| m > 1.0 && m <= 4.0),
            "staircase: {mid:?}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = test_cfg(vec![300.0; 60], 42);
        let a = run_detailed(&cfg, &mut StaticController::new(2));
        let b = run_detailed(&cfg, &mut StaticController::new(2));
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.violations, b.violations);
        let pa: Vec<f64> = a.seconds.iter().map(|s| s.p99).collect();
        let pb: Vec<f64> = b.seconds.iter().map(|s| s.p99).collect();
        assert_eq!(pa, pb);
    }

    #[test]
    fn retired_shard_fields_are_rejected_by_name() {
        // `shards` and `shard_spans` survive only as fixed values; any
        // other value must fail loudly and name the field.
        let base = test_cfg(vec![300.0; 30], 7);
        let cases = [
            (
                "DetailedSimConfig::shards must be 1",
                DetailedSimConfig {
                    shards: 2,
                    ..base.clone()
                },
            ),
            (
                "DetailedSimConfig::shard_spans must be false",
                DetailedSimConfig {
                    shard_spans: true,
                    ..base
                },
            ),
        ];
        for (expected, cfg) in cases {
            let err = std::panic::catch_unwind(|| {
                run_detailed(&cfg, &mut StaticController::new(2));
            })
            .expect_err("run_detailed accepted a retired field value");
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| err.downcast_ref::<&str>().map(|m| (*m).to_string()))
                .unwrap_or_default();
            assert!(msg.contains(expected), "panic message: {msg}");
        }
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn prov_events_trace_the_control_loop_when_enabled() {
        use pstore_telemetry::kinds;

        // Same ramp that forces the reactive controller to scale out.
        let mut load: Vec<f64> = (0..120).map(|s| 250.0 + 550.0 * s as f64 / 120.0).collect();
        load.extend(vec![800.0; 240]);
        let reactive = || {
            ReactiveController::new(ReactiveConfig {
                q: 285.0,
                q_hat: 350.0,
                trigger_fraction: 0.9,
                headroom: 0.2,
                smoothing_window: 2,
                scale_in_patience: 10,
                max_machines: 10,
                initial_machines: 2,
            })
        };

        // Off by default: a captured run emits no prov_* events.
        let (sink, handle) = pstore_telemetry::MemorySink::new();
        {
            let _guard = pstore_telemetry::install(std::rc::Rc::new(sink));
            run_detailed(&test_cfg(load.clone(), 4), &mut reactive());
        }
        assert!(handle.of_kind(kinds::PROV_RUN).is_empty());
        assert!(handle.of_kind(kinds::PROV_DECISION).is_empty());

        // Opted in: the full provenance chain appears, and every
        // reconfiguration summary points back at the decision that
        // issued it (the PRV-02 contract the verifier checks).
        let (sink, handle) = pstore_telemetry::MemorySink::new();
        {
            let _guard = pstore_telemetry::install(std::rc::Rc::new(sink));
            let mut cfg = test_cfg(load, 4);
            cfg.prov_events = true;
            run_detailed(&cfg, &mut reactive());
        }
        assert!(
            !pstore_telemetry::prov_enabled(),
            "run_detailed must restore the prov gate"
        );
        let runs = handle.of_kind(kinds::PROV_RUN);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].field_str("policy"), Some("Reactive"));
        assert!(!handle.of_kind(kinds::PROV_INTERVAL).is_empty());
        assert!(!handle.of_kind(kinds::PROV_FORECAST).is_empty());
        let decisions = handle.of_kind(kinds::PROV_DECISION);
        assert!(!decisions.is_empty());
        let ids: Vec<_> = decisions.iter().filter_map(|d| d.field_u64("id")).collect();
        let reconfigs = handle.of_kind(kinds::PROV_RECONFIG);
        assert!(!reconfigs.is_empty(), "scale-out must emit prov_reconfig");
        for r in &reconfigs {
            let id = r.field_u64("id").unwrap_or(0);
            assert!(ids.contains(&id), "reconfig id {id} has no decision");
            assert!(r.field_u64("bytes").unwrap_or(0) > 0, "move carried data");
        }
        let chunks = handle.of_kind(kinds::PROV_CHUNK);
        assert!(!chunks.is_empty(), "chunked migration must emit prov_chunk");
    }
}
