//! Host-noise record read from `/proc`: on-CPU time and runqueue wait of
//! this (single-threaded) process, host-wide steal time, peak resident
//! memory and the CPU count. Lets a reader tell host drift apart from a
//! regression: a slow run with on-CPU close to wall time and little steal
//! or runqueue wait ran slowly on the CPU itself.

use std::time::Instant;

/// Kernel clock ticks per second for `/proc/stat` (`USER_HZ`), which is
/// 100 on every mainstream Linux configuration.
const USER_HZ: f64 = 100.0;

/// A point-in-time reading.
#[derive(Clone, Copy)]
pub struct Sample {
    wall: Instant,
    oncpu_ns: Option<u64>,
    runq_ns: Option<u64>,
    steal_ticks: Option<u64>,
}

impl Sample {
    pub fn now() -> Sample {
        let sched = std::fs::read_to_string("/proc/self/schedstat").ok();
        let mut fields = sched
            .as_deref()
            .unwrap_or("")
            .split_whitespace()
            .map(|f| f.parse::<u64>().ok());
        let oncpu_ns = fields.next().flatten();
        let runq_ns = fields.next().flatten();
        Sample {
            wall: Instant::now(),
            oncpu_ns,
            runq_ns,
            steal_ticks: steal_ticks(),
        }
    }
}

/// Host-wide steal ticks: the eighth counter of the `cpu` line.
fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// What happened on the host between two samples.
pub struct Noise {
    pub wall_s: f64,
    /// On-CPU time as a share of wall time, in percent.
    pub oncpu_pct: f64,
    pub runq_wait_s: f64,
    pub steal_s: f64,
    pub cpus: usize,
}

pub fn between(a: &Sample, b: &Sample) -> Noise {
    let wall_s = b.wall.duration_since(a.wall).as_secs_f64();
    let delta = |x: Option<u64>, y: Option<u64>| match (x, y) {
        (Some(x), Some(y)) => y.saturating_sub(x),
        _ => 0,
    };
    let oncpu_s = delta(a.oncpu_ns, b.oncpu_ns) as f64 / 1e9;
    Noise {
        wall_s,
        oncpu_pct: if wall_s > 0.0 {
            100.0 * oncpu_s / wall_s
        } else {
            0.0
        },
        runq_wait_s: delta(a.runq_ns, b.runq_ns) as f64 / 1e9,
        steal_s: delta(a.steal_ticks, b.steal_ticks) as f64 / USER_HZ,
        cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What the reference kernel takes on a quiet measuring host, in ms.
pub const REFERENCE_MS: f64 = 80.0;

/// Host speed: milliseconds a fixed reference kernel takes. Its first
/// part is bound by memory (random read-modify-writes over 8 MB), its
/// second by branches and allocation (ordered-map inserts), like the
/// simulators. The kernel belongs to the benchmark, not to the program:
/// a change to the program leaves it alone, while a change in host speed
/// moves it along with the workload.
pub fn reference_ms() -> f64 {
    const SLOTS: usize = 1 << 20;
    let t = Instant::now();
    let mut table = vec![0u64; SLOTS];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..2_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = x as usize & (SLOTS - 1);
        table[j] = table[j].wrapping_add(i ^ x);
    }
    let mut map = std::collections::BTreeMap::new();
    for i in 0..600_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % 50_000, i);
    }
    std::hint::black_box((&table, &map));
    t.elapsed().as_secs_f64() * 1e3
}
