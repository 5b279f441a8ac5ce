//! What every workload round records, and the timed window around it.

use std::hint::black_box;
use std::time::Instant;

use mage_core::Runtime;
use mage_sim::NetCounters;

use crate::alloc;
use crate::stats::percentile_sorted;
use crate::tally::Tally;

/// How a round runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Tracing off: the end-to-end figures.
    Plain,
    /// Tracing on, events tallied per layer.
    Traced,
}

/// Slices of a round whose durations are compared across rounds.
pub const CHUNKS: usize = 50;

/// Per-operation latencies of one round in completion order, preallocated
/// so recording them allocates nothing inside the timed window.
#[derive(Debug, Default)]
pub struct OpLog {
    pub wall_ns: Vec<u64>,
    pub virt_us: Vec<u64>,
    /// Wall ns from the window's start to each completion.
    done_ns: Vec<u64>,
    start: Option<Instant>,
}

impl OpLog {
    pub fn with_capacity(n: usize) -> Self {
        OpLog {
            wall_ns: Vec::with_capacity(n),
            virt_us: Vec::with_capacity(n),
            done_ns: Vec::with_capacity(n),
            start: None,
        }
    }

    /// Records one completed operation issued at `wall`.
    pub fn push(&mut self, wall: Instant, virt_us: u64) {
        let now = Instant::now();
        self.wall_ns.push((now - wall).as_nanos() as u64);
        self.virt_us.push(virt_us);
        let start = self.start.unwrap_or(wall);
        self.done_ns.push((now - start).as_nanos() as u64);
    }

    fn clear(&mut self, start: Option<Instant>) {
        self.wall_ns.clear();
        self.virt_us.clear();
        self.done_ns.clear();
        self.start = start;
    }

    /// Wall ns spent on each of [`CHUNKS`] consecutive slices of the
    /// completions (the same slices in every round of a seed).
    fn chunk_ns(&self) -> Vec<u64> {
        let n = self.done_ns.len();
        let mut prev = 0;
        (1..=CHUNKS)
            .map(|j| {
                let last = (j * n / CHUNKS).max(1) - 1;
                let end = self.done_ns.get(last).copied().unwrap_or(prev);
                let d = end.saturating_sub(prev);
                prev = end;
                d
            })
            .collect()
    }
}

/// Everything one round (set-up plus one pass over the schedule) measured.
#[derive(Debug, Clone, Default)]
pub struct Round {
    pub setup_s: f64,
    pub ops: u64,
    /// Operations that returned an error or failed an output check.
    pub failed: u64,
    /// Successful increments (the writes a checkpoint must preserve).
    pub incs_ok: u64,
    pub net: NetCounters,
    pub allocs: u64,
    pub snapshots: u64,
    pub restores: u64,
    /// Virtual ms from each crash to the first operation served on an
    /// object the crash took down.
    pub recovery_ms: Vec<f64>,
    /// Virtual time of each crash.
    pub crash_at_us: Vec<u64>,
    /// Virtual time at which each crash's first post-crash op completed.
    pub served_at_us: Vec<u64>,
    /// Virtual µs from each lock request to its grant.
    pub lock_wait_us: Vec<u64>,
    pub tally: Tally,
    /// Wall ns of each slice of the round (see [`CHUNKS`]).
    pub chunk_ns: Vec<u64>,
    pub virt_p50_ms: f64,
    pub virt_p99_ms: f64,
    pub virt_sum_us: u64,
}

impl Round {
    /// The figures that must repeat exactly for a given seed.
    pub fn deterministic(&self) -> (u64, u64, u64, u64, u64, Vec<u64>, u64) {
        (
            self.ops,
            self.failed,
            self.net.sent,
            self.net.bytes_sent,
            self.virt_sum_us,
            self.served_at_us.clone(),
            self.snapshots,
        )
    }
}

/// An open timed window: started after set-up, closed after the last op.
pub struct Window {
    allocs: u64,
}

impl Window {
    /// Resets the world's counters and starts the clocks.
    pub fn open(rt: &mut Runtime, log: &mut OpLog) -> Window {
        {
            let mut world = rt.world_mut();
            world.reset_metrics();
            world.trace_mut().clear();
        }
        let allocs = alloc::count();
        let start = Instant::now();
        log.clear(Some(start));
        Window { allocs }
    }

    /// Stops the clocks and copies the world's counters into `round`.
    pub fn close(self, rt: &Runtime, log: &mut OpLog, round: &mut Round) {
        round.allocs = alloc::count() - self.allocs;
        {
            let world = rt.world();
            let metrics = world.metrics();
            round.net = metrics.net.clone();
            round.snapshots = metrics.counter("snapshots_stored");
            round.restores = metrics.counter("snapshot_restores");
        }
        round.ops = log.wall_ns.len() as u64;
        round.virt_sum_us = log.virt_us.iter().sum();
        round.chunk_ns = log.chunk_ns();
        if !log.virt_us.is_empty() {
            let mut virt = log.virt_us.clone();
            virt.sort_unstable();
            round.virt_p50_ms = percentile_sorted(&virt, 50.0) / 1e3;
            round.virt_p99_ms = percentile_sorted(&virt, 99.0) / 1e3;
        }
    }
}

/// Harness cost: the same per-op timers and recording over the same
/// schedule, with the operation itself removed. Returns ns per op.
pub fn skeleton<T>(schedule: &[T], rt: &Runtime, log: &mut OpLog) -> f64 {
    log.clear(None);
    let start = Instant::now();
    for item in schedule {
        let wall = Instant::now();
        let before = rt.now();
        black_box(item);
        let virt = rt.now().as_micros() - before.as_micros();
        log.push(wall, virt);
    }
    start.elapsed().as_nanos() as f64 / schedule.len().max(1) as f64
}
