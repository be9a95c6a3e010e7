//! The predictive elasticity dynamic program (§4.3, Algorithms 1–3).
//!
//! Given a horizon of predicted load, the planner finds the cheapest
//! contiguous sequence of moves such that predicted load never exceeds the
//! system's *effective* capacity — including while data is in flight — and
//! the plan ends with as few machines as possible. The problem has optimal
//! substructure: the cheapest way to hold `A` machines at time `t` extends
//! the cheapest way to hold some `B` at time `t - T(B, A)` with the move
//! `B -> A`, which is exactly the recurrence memoised here.

use crate::cost_model::{avg_machines_allocated, cap, eff_cap, machines_for_load, move_time};
use crate::moves::{Move, MoveSeq};

/// Planner configuration, in planning-interval units.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannerConfig {
    /// Target per-machine throughput `Q` (load units, e.g. txn/s).
    pub q: f64,
    /// Single-thread whole-database migration time `D`, in intervals.
    pub d_intervals: f64,
    /// Partitions per machine `P`.
    pub partitions_per_node: u32,
    /// Hard cap on cluster size.
    pub max_machines: u32,
}

/// Behavioural switches for ablation studies. The defaults reproduce the
/// paper's algorithm; switching a flag off isolates the contribution of
/// one design choice (exercised by the `ablations` experiment binary).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannerOptions {
    /// Check predicted load against the *effective* capacity of Eq 7 while
    /// a move is in flight (the paper's Algorithm 3). When off, moves are
    /// only checked against the post-move capacity `cap(A)` — the naive
    /// model that Fig 4c warns underprovisions during large scale-outs.
    pub effective_capacity_aware: bool,
    /// Account the true machine cost of a move via Algorithm 4. When off,
    /// every move is costed as if the full target allocation were held for
    /// its whole duration (no just-in-time credit).
    pub jit_allocation_cost: bool,
}

impl Default for PlannerOptions {
    fn default() -> Self {
        PlannerOptions {
            effective_capacity_aware: true,
            jit_allocation_cost: true,
        }
    }
}

/// The predictive elasticity planner.
#[derive(Debug, Clone)]
pub struct Planner {
    cfg: PlannerConfig,
    /// Read only by the invariant checks; the move table applies them.
    #[cfg(feature = "check-invariants")]
    opts: PlannerOptions,
    moves: MoveTable,
}

/// Every move `B -> A` with `1 <= B, A <= max_machines`, computed once per
/// planner. The dynamic program visits each pair at every `(t, A)` state,
/// so it looks up a move's duration, cost and capacity curve instead of
/// recomputing them. The configuration has no mutator, so the table cannot
/// go stale.
#[derive(Debug, Clone)]
struct MoveTable {
    max_machines: usize,
    entries: Vec<MoveEntry>,
    /// The capacity thresholds of all entries, back to back.
    thresholds: Vec<f64>,
}

/// One move of the [`MoveTable`].
#[derive(Debug, Clone, Copy)]
struct MoveEntry {
    /// Duration in intervals, the "do nothing" move stretched to one.
    dur: usize,
    /// Cost in machine-intervals.
    cost: f64,
    /// Offset of the move's `dur` thresholds in [`MoveTable::thresholds`].
    first: usize,
}

/// Largest cluster the move table covers. The table holds `max_machines²`
/// entries; the verify sweep's largest cluster has 64 machines.
const MAX_TABLE_MACHINES: u32 = 1024;

/// Largest number of capacity thresholds (the sum of all move durations)
/// the move table holds: 32 MiB of `f64`.
const MAX_TABLE_STEPS: usize = 1 << 22;

impl MoveTable {
    fn build(cfg: &PlannerConfig, opts: PlannerOptions) -> Self {
        assert!(
            cfg.max_machines <= MAX_TABLE_MACHINES,
            "max_machines must be at most {MAX_TABLE_MACHINES}"
        );
        let n = cfg.max_machines as usize;
        let mut entries = Vec::with_capacity(n * n);
        let mut thresholds = Vec::new();
        for b in 1..=cfg.max_machines {
            for a in 1..=cfg.max_machines {
                // A move must last at least one interval (Algorithm 2
                // line 9).
                let dur = move_intervals(cfg, b, a).max(1);
                assert!(
                    dur <= MAX_TABLE_STEPS - thresholds.len(),
                    "moves too long for the move table: lower d_intervals or max_machines"
                );
                entries.push(MoveEntry {
                    dur,
                    cost: move_cost_intervals(cfg, opts, b, a),
                    first: thresholds.len(),
                });
                // During the move, predicted load must stay under the
                // *effective* capacity (Equation 7), with migration
                // progress f = i / T(B, A). (The naive ablation checks only
                // the post-move capacity.)
                thresholds.extend((1..=dur).map(|i| {
                    if opts.effective_capacity_aware {
                        eff_cap(b, a, i as f64 / dur as f64, cfg.q)
                    } else {
                        cap(a, cfg.q)
                    }
                }));
            }
        }
        MoveTable {
            max_machines: n,
            entries,
            thresholds,
        }
    }

    fn entry(&self, b: u32, a: u32) -> MoveEntry {
        self.entries[(b as usize - 1) * self.max_machines + (a as usize - 1)]
    }

    /// Capacity the move must keep above the load at steps `1..=dur`.
    fn thresholds(&self, m: MoveEntry) -> &[f64] {
        &self.thresholds[m.first..m.first + m.dur]
    }
}

/// Duration of a move in whole intervals (Equation 3 rounded up; the "do
/// nothing" move reports 0 here and is stretched to one interval inside the
/// recurrence, per Algorithm 2 line 9).
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)] // ceil of a non-negative time
fn move_intervals(cfg: &PlannerConfig, b: u32, a: u32) -> usize {
    if b == a {
        return 0;
    }
    move_time(b, a, cfg.partitions_per_node, cfg.d_intervals).ceil() as usize
}

/// Cost of a move in machine-intervals (Equation 4 with the
/// interval-rounded duration, so the dynamic program's accounting sums to
/// machine-intervals over the horizon).
fn move_cost_intervals(cfg: &PlannerConfig, opts: PlannerOptions, b: u32, a: u32) -> f64 {
    if b == a {
        return b as f64; // stretched noop: B machines for 1 interval
    }
    let machines = if opts.jit_allocation_cost {
        avg_machines_allocated(b, a)
    } else {
        b.max(a) as f64
    };
    move_intervals(cfg, b, a).max(1) as f64 * machines
}

#[derive(Debug, Clone, Copy)]
struct Cell {
    cost: f64,
    prev_time: usize,
    prev_nodes: u32,
}

impl Planner {
    /// Creates a planner.
    ///
    /// # Panics
    /// As [`Planner::with_options`].
    pub fn new(cfg: PlannerConfig) -> Self {
        Self::with_options(cfg, PlannerOptions::default())
    }

    /// Creates a planner with explicit ablation options.
    ///
    /// # Panics
    /// Panics on non-positive `q`, `d_intervals`, partitions, or machines,
    /// on more than 1024 machines, and when the durations of all moves
    /// between `1..=max_machines` machines sum to more than 2²² intervals.
    pub fn with_options(cfg: PlannerConfig, opts: PlannerOptions) -> Self {
        assert!(cfg.q > 0.0, "Q must be positive");
        assert!(cfg.d_intervals > 0.0, "D must be positive");
        assert!(cfg.partitions_per_node > 0, "P must be positive");
        assert!(cfg.max_machines > 0, "max_machines must be positive");
        let moves = MoveTable::build(&cfg, opts);
        Planner {
            cfg,
            #[cfg(feature = "check-invariants")]
            opts,
            moves,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &PlannerConfig {
        &self.cfg
    }

    /// Machines needed to serve `load` at target throughput `Q`.
    pub fn machines_needed(&self, load: f64) -> u32 {
        machines_for_load(load, self.cfg.q)
    }

    /// Algorithm 1: the optimal sequence of moves for the predicted load.
    ///
    /// `load[0]` is the current measured load; `load[t]` for `t >= 1` are
    /// the predictions. The plan starts at `n0` machines at `t = 0` and
    /// spans `load.len() - 1` intervals. Returns `None` when no feasible
    /// plan exists (the cluster cannot scale out fast enough, or the peak
    /// exceeds `max_machines * Q`) — the controller then falls back to a
    /// reactive emergency scale-out (§4.3.1). A non-finite load also
    /// yields `None`: NaN compares false against every capacity, so a NaN
    /// sample or forecast would otherwise pass as feasible at any size.
    pub fn best_moves(&self, load: &[f64], n0: u32) -> Option<MoveSeq> {
        assert!(n0 >= 1, "must start with at least one machine");
        assert!(!load.is_empty(), "load horizon must be non-empty");
        if !load.iter().all(|l| l.is_finite()) {
            return None;
        }
        let t_max = load.len() - 1;
        if t_max == 0 {
            return (load[0] <= cap(n0, self.cfg.q)).then(MoveSeq::default);
        }

        // Profiler span over the DP search (begin/end via RAII so every
        // return path closes it).
        pstore_telemetry::tel_span!(planner_span, "planner_dp");

        // Z: machines needed for the predicted peak, bounded by hardware.
        let peak = load.iter().copied().fold(0.0, f64::max);
        let z = machines_for_load(peak, self.cfg.q)
            .max(n0)
            .clamp(1, self.cfg.max_machines);

        // Memo over (t, A); `None` = not computed. The table is shared
        // across the final-count loop below — `cost(t, A)` is independent
        // of the loop index, so sharing is a pure optimisation over
        // Algorithm 1's per-iteration reset.
        let mut memo: Vec<Option<Cell>> = vec![None; (t_max + 1) * (z as usize + 1)];

        for end_nodes in 1..=z {
            let c = self.cost(t_max, end_nodes, load, n0, z, &mut memo);
            if c.is_finite() {
                let seq = self.backtrack(t_max, end_nodes, z, &memo);
                pstore_telemetry::tel_event!(
                    pstore_telemetry::kinds::PLANNER,
                    "horizon" => t_max,
                    "n0" => n0,
                    "feasible" => true,
                    "cost" => c,
                    "end_machines" => end_nodes,
                );
                #[cfg(feature = "check-invariants")]
                {
                    let violations = crate::moves::check_moves(seq.moves());
                    debug_assert!(
                        violations.is_empty(),
                        "planner produced a structurally invalid sequence:\n{}",
                        crate::invariant::report(&violations)
                    );
                    // The effective-capacity ablation knowingly emits plans
                    // that fail the Eq 7 check — that failure is its point.
                    debug_assert!(
                        !self.opts.effective_capacity_aware
                            || self.verify_feasible(&seq, load).is_ok(),
                        "planner produced an infeasible plan: {:?}",
                        self.verify_feasible(&seq, load)
                    );
                }
                return Some(seq);
            }
        }
        pstore_telemetry::tel_event!(
            pstore_telemetry::kinds::PLANNER,
            "horizon" => t_max,
            "n0" => n0,
            "feasible" => false,
        );
        None
    }

    /// Algorithm 2: minimum cost of a feasible series of moves ending with
    /// `a` nodes at time `t`.
    fn cost(
        &self,
        t: usize,
        a: u32,
        load: &[f64],
        n0: u32,
        z: u32,
        memo: &mut Vec<Option<Cell>>,
    ) -> f64 {
        // Constraint violations and insufficient capacity are infinitely
        // expensive.
        if t == 0 && a != n0 {
            return f64::INFINITY;
        }
        if load[t] > cap(a, self.cfg.q) {
            return f64::INFINITY;
        }
        let idx = t * (z as usize + 1) + a as usize;
        if let Some(cell) = memo[idx] {
            return cell.cost;
        }
        let cell = if t == 0 {
            Cell {
                cost: a as f64,
                prev_time: 0,
                prev_nodes: a,
            }
        } else {
            let mut best = Cell {
                cost: f64::INFINITY,
                prev_time: 0,
                prev_nodes: 0,
            };
            for b in 1..=z {
                let c = self.sub_cost(t, b, a, load, n0, z, memo);
                if c < best.cost {
                    best = Cell {
                        cost: c,
                        prev_time: t - self.moves.entry(b, a).dur,
                        prev_nodes: b,
                    };
                }
            }
            best
        };
        memo[idx] = Some(cell);
        cell.cost
    }

    /// Algorithm 3: minimum cost ending at time `t` when the last move goes
    /// from `b` to `a` nodes.
    #[allow(clippy::too_many_arguments)] // mirrors the paper's signature
    fn sub_cost(
        &self,
        t: usize,
        b: u32,
        a: u32,
        load: &[f64],
        n0: u32,
        z: u32,
        memo: &mut Vec<Option<Cell>>,
    ) -> f64 {
        let m = self.moves.entry(b, a);
        let Some(start) = t.checked_sub(m.dur) else {
            // The move would need to start in the past.
            return f64::INFINITY;
        };
        // Predicted load must stay under the move's capacity curve.
        let steps = &load[start + 1..=t];
        if steps
            .iter()
            .zip(self.moves.thresholds(m))
            .any(|(l, c)| l > c)
        {
            return f64::INFINITY;
        }
        let prior = self.cost(start, b, load, n0, z, memo);
        prior + m.cost
    }

    /// Walks the memo backwards from `(t, n)` to `t = 0`, emitting moves in
    /// forward order.
    fn backtrack(&self, t_end: usize, n_end: u32, z: u32, memo: &[Option<Cell>]) -> MoveSeq {
        let mut moves = Vec::new();
        let mut t = t_end;
        let mut n = n_end;
        while t > 0 {
            let Some(cell) = memo[t * (z as usize + 1) + n as usize] else {
                unreachable!("backtrack visits only memoised states");
            };
            moves.push(Move {
                start: cell.prev_time,
                end: t,
                from: cell.prev_nodes,
                to: n,
            });
            t = cell.prev_time;
            n = cell.prev_nodes;
        }
        moves.reverse();
        MoveSeq::new(moves)
    }

    /// Checks that a move sequence keeps (effective) capacity above the
    /// given load at every interval it covers. Used by tests and the
    /// controller's debug assertions.
    pub fn verify_feasible(&self, seq: &MoveSeq, load: &[f64]) -> Result<(), String> {
        for m in seq.moves() {
            let dur = m.duration();
            for i in 1..=dur {
                let t = m.start + i;
                if t >= load.len() {
                    return Err(format!("move {m} extends past the horizon"));
                }
                let capacity = if m.is_noop() {
                    cap(m.from, self.cfg.q)
                } else {
                    eff_cap(m.from, m.to, i as f64 / dur as f64, self.cfg.q)
                };
                if load[t] > capacity {
                    return Err(format!(
                        "load {:.1} exceeds effective capacity {:.1} at t={t} during {m}",
                        load[t], capacity
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Planner with Q = 100 and fast (1-interval) moves, making expected
    /// plans easy to compute by hand.
    fn fast_planner(max: u32) -> Planner {
        Planner::new(PlannerConfig {
            q: 100.0,
            d_intervals: 0.5,
            partitions_per_node: 1,
            max_machines: max,
        })
    }

    /// Planner with the paper's relative scales: moves between small
    /// clusters take several intervals.
    fn slow_planner(max: u32) -> Planner {
        Planner::new(PlannerConfig {
            q: 100.0,
            d_intervals: 15.0,
            partitions_per_node: 1,
            max_machines: max,
        })
    }

    #[test]
    fn flat_load_keeps_current_allocation() {
        let planner = fast_planner(10);
        let load = vec![150.0; 10];
        let seq = planner.best_moves(&load, 2).unwrap();
        assert!(seq.first_reconfiguration().is_none());
        assert_eq!(seq.final_machines(), Some(2));
        planner.verify_feasible(&seq, &load).unwrap();
    }

    #[test]
    fn overprovisioned_flat_load_scales_in() {
        let planner = fast_planner(10);
        let load = vec![150.0; 10];
        let seq = planner.best_moves(&load, 6).unwrap();
        assert_eq!(seq.final_machines(), Some(2));
        let first = seq.first_reconfiguration().unwrap();
        assert!(first.is_scale_in());
        planner.verify_feasible(&seq, &load).unwrap();
    }

    #[test]
    fn rising_load_scales_out_before_the_rise() {
        let planner = slow_planner(10);
        // Load jumps from 150 to 450 at t = 12: needs 5 machines there.
        let mut load = vec![150.0; 16];
        for v in &mut load[12..] {
            *v = 450.0;
        }
        let seq = planner.best_moves(&load, 2).unwrap();
        planner.verify_feasible(&seq, &load).unwrap();
        assert_eq!(seq.final_machines(), Some(5));
        let first = seq.first_reconfiguration().unwrap();
        assert!(first.is_scale_out());
        // The scale-out must complete by t = 12.
        assert!(first.end <= 12, "move {first} finishes too late");
    }

    #[test]
    fn plan_is_infeasible_when_rise_is_too_soon() {
        let planner = slow_planner(10);
        // Jump at t = 1: no time to migrate.
        let mut load = vec![150.0; 10];
        for v in &mut load[1..] {
            *v = 800.0;
        }
        assert!(planner.best_moves(&load, 2).is_none());
    }

    #[test]
    fn plan_is_infeasible_when_peak_exceeds_hardware() {
        let planner = fast_planner(4);
        let load = vec![150.0, 150.0, 900.0, 900.0];
        assert!(planner.best_moves(&load, 2).is_none());
    }

    #[test]
    fn current_overload_is_infeasible() {
        let planner = fast_planner(10);
        let load = vec![500.0, 100.0, 100.0];
        assert!(planner.best_moves(&load, 2).is_none());
    }

    #[test]
    fn scale_in_deferred_until_load_drops() {
        let planner = fast_planner(10);
        // High load for the first half, low after.
        let mut load = vec![380.0; 12];
        for v in &mut load[6..] {
            *v = 120.0;
        }
        let seq = planner.best_moves(&load, 4).unwrap();
        planner.verify_feasible(&seq, &load).unwrap();
        assert_eq!(seq.final_machines(), Some(2));
        let first = seq.first_reconfiguration().unwrap();
        // Cannot scale in while load is still high.
        assert!(first.start >= 5, "scaled in too early: {first}");
    }

    #[test]
    fn ends_with_fewest_feasible_machines() {
        let planner = fast_planner(10);
        // Load returns to trough by the end of the horizon.
        let load: Vec<f64> = (0..16)
            .map(|t| {
                let x = t as f64 / 15.0 * std::f64::consts::PI;
                120.0 + 500.0 * x.sin().max(0.0)
            })
            .collect();
        let seq = planner.best_moves(&load, 2).unwrap();
        planner.verify_feasible(&seq, &load).unwrap();
        // Trough needs ceil(120/100) = 2 machines.
        assert_eq!(seq.final_machines(), Some(2));
    }

    #[test]
    fn single_interval_horizon() {
        let planner = fast_planner(10);
        assert!(planner.best_moves(&[150.0], 2).is_some());
        assert!(planner.best_moves(&[250.0], 2).is_none());
    }

    #[test]
    fn plan_respects_effective_capacity_during_moves() {
        let planner = slow_planner(12);
        // Steady ramp to a high plateau.
        let load: Vec<f64> = (0..24).map(|t| 150.0 + 800.0 * (t as f64 / 23.0)).collect();
        let seq = planner.best_moves(&load, 2).unwrap();
        planner.verify_feasible(&seq, &load).unwrap();
        assert!(seq.final_machines().unwrap() >= 10);
    }

    #[test]
    fn non_finite_load_has_no_plan() {
        let planner = fast_planner(10);
        for bad in [f64::NAN, f64::INFINITY] {
            assert!(planner.best_moves(&[bad], 6).is_none());
            assert!(planner.best_moves(&[bad, 120.0, 120.0], 6).is_none());
            assert!(planner.best_moves(&[120.0, bad, 120.0], 6).is_none());
        }
    }

    /// Every table entry equals the cost-model functions it caches, bit
    /// for bit, under every option combination and several scales.
    #[test]
    fn move_table_matches_cost_model() {
        let configs = [
            (100.0, 0.5, 1, 10),
            (100.0, 15.0, 1, 16),
            (285.0, 15.5, 6, 20),
            (437.5, 30.0, 1, 64),
            (285.0, 30.0, 6, 64),
        ];
        for (q, d_intervals, partitions_per_node, max_machines) in configs {
            let cfg = PlannerConfig {
                q,
                d_intervals,
                partitions_per_node,
                max_machines,
            };
            for (effective_capacity_aware, jit_allocation_cost) in
                [(true, true), (true, false), (false, true), (false, false)]
            {
                let opts = PlannerOptions {
                    effective_capacity_aware,
                    jit_allocation_cost,
                };
                let planner = Planner::with_options(cfg.clone(), opts);
                for b in 1..=max_machines {
                    for a in 1..=max_machines {
                        let m = planner.moves.entry(b, a);
                        let dur = move_intervals(&cfg, b, a).max(1);
                        assert_eq!(m.dur, dur, "duration of {b} -> {a}");
                        let cost = if b == a {
                            b as f64
                        } else if jit_allocation_cost {
                            dur as f64 * avg_machines_allocated(b, a)
                        } else {
                            dur as f64 * b.max(a) as f64
                        };
                        assert_eq!(m.cost.to_bits(), cost.to_bits(), "cost of {b} -> {a}");
                        let thresholds = planner.moves.thresholds(m);
                        assert_eq!(thresholds.len(), dur);
                        for (i, c) in (1..=dur).zip(thresholds) {
                            let want = if effective_capacity_aware {
                                eff_cap(b, a, i as f64 / dur as f64, q)
                            } else {
                                cap(a, q)
                            };
                            assert_eq!(c.to_bits(), want.to_bits(), "step {i} of {b} -> {a}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "max_machines must be at most")]
    fn move_table_rejects_huge_clusters() {
        let _ = fast_planner(MAX_TABLE_MACHINES + 1);
    }

    #[test]
    #[should_panic(expected = "moves too long for the move table")]
    fn move_table_rejects_huge_durations() {
        let _ = Planner::new(PlannerConfig {
            q: 100.0,
            d_intervals: 1e12,
            partitions_per_node: 1,
            max_machines: 2,
        });
    }

    #[test]
    fn machines_needed_rounds_up() {
        let planner = fast_planner(10);
        assert_eq!(planner.machines_needed(100.0), 1);
        assert_eq!(planner.machines_needed(101.0), 2);
        assert_eq!(planner.machines_needed(0.0), 1);
    }

    #[test]
    fn move_intervals_rounds_up_and_noop_is_zero() {
        let planner = slow_planner(10);
        assert_eq!(move_intervals(&planner.cfg, 3, 3), 0);
        // 2 -> 4, P=1: T = 15/2 * (1 - 2/4) = 3.75 -> 4 intervals.
        assert_eq!(move_intervals(&planner.cfg, 2, 4), 4);
    }

    #[test]
    fn optimality_matches_exhaustive_search_on_small_instances() {
        // With 1-interval moves the DP reduces to a shortest path over
        // machine-count trajectories; brute-force all trajectories and
        // compare total cost.
        let planner = fast_planner(4);
        let loads = [
            vec![150.0, 250.0, 350.0, 150.0],
            vec![150.0, 150.0, 380.0, 380.0, 120.0],
            vec![90.0, 90.0, 90.0],
            vec![110.0, 310.0, 110.0, 310.0],
        ];
        for load in &loads {
            let n0 = 2u32;
            let dp = planner.best_moves(load, n0);

            // Brute force: trajectories n_1..n_T with n_t in 1..=4.
            let t_max = load.len() - 1;
            let mut best: Option<f64> = None;
            let mut stack: Vec<Vec<u32>> = vec![vec![]];
            while let Some(traj) = stack.pop() {
                if traj.len() == t_max {
                    // Cost: n0 for t=0 plus per-step move costs.
                    let mut prev = n0;
                    let mut cost = n0 as f64;
                    let mut ok = load[0] <= 100.0 * n0 as f64;
                    for (t, &n) in traj.iter().enumerate() {
                        // 1-interval move prev -> n; end-state eff-cap at
                        // f=1 equals cap(n).
                        if load[t + 1] > 100.0 * n as f64 {
                            ok = false;
                            break;
                        }
                        cost += if n == prev {
                            n as f64
                        } else {
                            avg_machines_allocated(prev, n)
                        };
                        prev = n;
                    }
                    if ok {
                        best = Some(best.map_or(cost, |b: f64| b.min(cost)));
                    }
                    continue;
                }
                for n in 1..=4u32 {
                    let mut next = traj.clone();
                    next.push(n);
                    stack.push(next);
                }
            }

            match (dp, best) {
                (Some(seq), Some(opt)) => {
                    // Recompute the DP plan's cost the same way.
                    let mut cost = n0 as f64;
                    for m in seq.moves() {
                        cost += if m.is_noop() {
                            m.from as f64
                        } else {
                            avg_machines_allocated(m.from, m.to)
                        };
                    }
                    assert!(
                        (cost - opt).abs() < 1e-9,
                        "DP cost {cost} != brute-force optimum {opt} for {load:?}"
                    );
                }
                (None, None) => {}
                (dp, bf) => panic!(
                    "feasibility mismatch for {load:?}: dp={:?} bf={:?}",
                    dp.map(|s| s.moves().len()),
                    bf
                ),
            }
        }
    }

    #[test]
    fn naive_planner_ignores_effective_capacity() {
        // A big scale-out whose intermediate effective capacity is
        // insufficient: the faithful planner starts the move earlier (or
        // scales further), while the naive ablation happily schedules a
        // move whose mid-flight capacity is below the load.
        let cfg = PlannerConfig {
            q: 100.0,
            d_intervals: 18.0,
            partitions_per_node: 1,
            max_machines: 14,
        };
        let faithful = Planner::new(cfg.clone());
        let naive = Planner::with_options(
            cfg,
            PlannerOptions {
                effective_capacity_aware: false,
                jit_allocation_cost: true,
            },
        );
        // A step: flat 280, then a sustained 1250 plateau from t = 10.
        // The naive planner believes a move instantly grants cap(A), so it
        // delays the big scale-out into the rise; the faithful planner
        // must finish before the plateau arrives.
        let mut load = vec![280.0; 30];
        for v in &mut load[10..] {
            *v = 1250.0;
        }
        let naive_plan = naive.best_moves(&load, 3);
        if let Some(plan) = &naive_plan {
            // Judged by the *true* effective-capacity model, the naive plan
            // must be infeasible somewhere (that is the point of Eq 7).
            assert!(
                faithful.verify_feasible(plan, &load).is_err(),
                "naive plan unexpectedly feasible: {plan}"
            );
        }
        if let Some(plan) = faithful.best_moves(&load, 3) {
            faithful.verify_feasible(&plan, &load).unwrap();
        }
    }

    #[test]
    fn jit_cost_ablation_increases_move_cost() {
        let cfg = PlannerConfig {
            q: 100.0,
            d_intervals: 12.0,
            partitions_per_node: 1,
            max_machines: 14,
        };
        let jit = Planner::new(cfg.clone());
        let flat = Planner::with_options(
            cfg,
            PlannerOptions {
                effective_capacity_aware: true,
                jit_allocation_cost: false,
            },
        );
        // Both should find plans; the flat-cost planner believes moves are
        // pricier, so its internal costing differs, but its output must
        // still be feasible.
        let load: Vec<f64> = (0..24).map(|t| 150.0 + 40.0 * t as f64).collect();
        let a = jit.best_moves(&load, 2).expect("feasible");
        let b = flat.best_moves(&load, 2).expect("feasible");
        jit.verify_feasible(&a, &load).unwrap();
        flat.verify_feasible(&b, &load).unwrap();
    }

    #[test]
    fn verify_feasible_rejects_bad_plan() {
        let planner = fast_planner(10);
        let load = vec![150.0, 500.0, 150.0];
        let seq = MoveSeq::new(vec![
            Move {
                start: 0,
                end: 1,
                from: 2,
                to: 2,
            },
            Move {
                start: 1,
                end: 2,
                from: 2,
                to: 2,
            },
        ]);
        assert!(planner.verify_feasible(&seq, &load).is_err());
    }
}
