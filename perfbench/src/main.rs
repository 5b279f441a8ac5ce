//! End-to-end and per-layer benchmark of the MAGE runtime.
//!
//! ```text
//! mage-perfbench --workload <rpc_steady|migrate_mix|durable_failover>
//!                --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload's schedule is generated from the seed before any clock
//! starts. A *round* builds a fresh runtime with the paper's defaults
//! (10 Mb/s Ethernet, JDK 1.2.2 RMI cost model), deploys, creates and
//! warms up (timed as set-up), then runs the whole schedule in a timed
//! window and checks its outputs. Rounds repeat until `--seconds` is
//! spent. Wall-clock figures take a low quantile across rounds and set-up
//! time and allocations the median; the deterministic figures (messages,
//! bytes, virtual time) must repeat exactly in every round, allocations to
//! within 0.01%.
//!
//! `--trace 0` prints the end-to-end metrics from untraced rounds.
//! `--trace 1` prints the per-layer metrics: counts tallied from a traced
//! round, isolated layer rows, the session-minus-RMI remainder, the
//! tracing overhead and the harness cost. The last stdout line is one JSON
//! object; any failed operation or output check exits 1 without it.

mod alloc;
mod blob;
mod durable_failover;
mod harness;
mod layers;
mod migrate_mix;
mod rpc_steady;
mod stats;
mod tally;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use mage_core::Runtime;

use harness::{Mode, OpLog, Round};
use layers::{Rows, Shape};
use stats::{median, quantile};

/// A benchmark workload: a seeded schedule plus set-up and one timed pass.
pub trait Workload: Sized {
    type Op;
    /// What the isolated layer rows' inputs are shaped like.
    const SHAPE: Shape;
    /// Generates the schedule from the seed (before any clock starts).
    fn plan(seed: u64) -> Vec<Self::Op>;
    /// Builds, deploys, populates and warms up a runtime.
    fn setup(seed: u64, mode: Mode) -> Result<Self, String>;
    /// Runs the schedule in a timed window and checks the outputs.
    fn run(
        &mut self,
        plan: &[Self::Op],
        mode: Mode,
        log: &mut OpLog,
        round: &mut Round,
    ) -> Result<(), String>;
    fn runtime(&self) -> &Runtime;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
            "--trace" => trace = Some(value == "1"),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Rounds whose per-operation wall latencies are kept for the percentiles,
/// spread evenly over the run.
const KEEP: usize = 21;

/// Quantile taken over rounds for each wall-clock figure: the tenth
/// percentile, so host slowdowns lasting seconds (common on a shared
/// 2-core box) do not move the figure while a slower program still does.
const ACROSS_ROUNDS: f64 = 0.1;

/// The rounds of one run, plus the per-operation wall latencies (in
/// completion order) of up to [`KEEP`] of them.
struct Run {
    rounds: Vec<Round>,
    walls: Vec<Vec<u64>>,
}

impl Run {
    /// Operations per wall second: each slice of the schedule takes its
    /// [`ACROSS_ROUNDS`] quantile duration over the rounds.
    fn ops_per_s(&self) -> f64 {
        let ns: f64 = (0..harness::CHUNKS)
            .map(|j| {
                let slice: Vec<f64> = self.rounds.iter().map(|r| r.chunk_ns[j] as f64).collect();
                quantile(&slice, ACROSS_ROUNDS)
            })
            .sum();
        self.rounds[0].ops as f64 / (ns / 1e9)
    }

    /// Wall-latency percentile (µs) over each operation's
    /// [`ACROSS_ROUNDS`] quantile latency across the kept rounds.
    fn wall_us(&self, p: f64) -> f64 {
        let n = self.walls[0].len();
        let mut per_op: Vec<u64> = (0..n)
            .map(|i| {
                let v: Vec<f64> = self.walls.iter().map(|w| w[i] as f64).collect();
                quantile(&v, ACROSS_ROUNDS) as u64
            })
            .collect();
        per_op.sort_unstable();
        stats::percentile_sorted(&per_op, p) / 1e3
    }
}

/// Runs rounds until `budget` is spent (at least `min` of them), checking
/// that every round repeats the first one's deterministic figures.
fn rounds<W: Workload>(
    plan: &[W::Op],
    seed: u64,
    mode: Mode,
    budget: Duration,
    min: usize,
    log: &mut OpLog,
) -> Result<Run, String> {
    let start = Instant::now();
    let mut run = Run {
        rounds: Vec::new(),
        walls: Vec::new(),
    };
    loop {
        let t = Instant::now();
        let mut workload = W::setup(seed, mode)?;
        let mut round = Round {
            setup_s: t.elapsed().as_secs_f64(),
            ..Round::default()
        };
        workload.run(plan, mode, log, &mut round)?;
        drop(workload);
        if round.failed > 0 {
            return Err(format!(
                "{} of {} operations failed",
                round.failed, round.ops
            ));
        }
        if let Some(first) = run.rounds.first() {
            if first.deterministic() != round.deterministic() || first.tally != round.tally {
                return Err("a repeated round diverged from the first: not deterministic".into());
            }
            // Allocation counts repeat to within a few per round: std
            // hash maps seed their hashers per process, and where their
            // tombstones fall decides when they resize.
            if first.allocs.abs_diff(round.allocs) > first.allocs / 10_000 {
                return Err(format!(
                    "allocations diverged across rounds: {} vs {}",
                    first.allocs, round.allocs
                ));
            }
        }
        let done = run.rounds.len() + 1;
        let per_round = start.elapsed() / done as u32;
        let expected = (budget.as_secs_f64() / per_round.as_secs_f64()) as usize;
        if run.walls.len() < KEEP && (done - 1).is_multiple_of((expected / KEEP).max(1)) {
            run.walls.push(log.wall_ns.clone());
        }
        run.rounds.push(round);
        if done >= min && start.elapsed() + per_round > budget {
            return Ok(run);
        }
    }
}

fn per_op(count: u64, ops: u64) -> f64 {
    count as f64 / ops.max(1) as f64
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Crash-to-first-served virtual time, median over crashes.
fn recovery_ms(round: &Round) -> f64 {
    median(&round.recovery_ms)
}

/// The end-to-end metrics, from untraced rounds.
fn end_to_end(run: &Run, rows: &mut Rows) {
    let rounds = &run.rounds;
    let first = &rounds[0];
    let ops = first.ops;
    rows.push("ops_per_s", run.ops_per_s(), "1/s");
    rows.push("wall_p50_us", run.wall_us(50.0), "us");
    rows.push("wall_p99_us", run.wall_us(99.0), "us");
    rows.push("virt_p50_ms", first.virt_p50_ms, "sim_ms");
    rows.push("virt_p99_ms", first.virt_p99_ms, "sim_ms");
    rows.push("msgs_per_op", per_op(first.net.sent, ops), "count");
    rows.push("bytes_per_op", per_op(first.net.bytes_sent, ops), "B");
    let allocs: Vec<f64> = rounds.iter().map(|r| per_op(r.allocs, r.ops)).collect();
    rows.push("allocs_per_op", median(&allocs), "count");
    let setup: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    rows.push("setup_s", median(&setup), "s");
    rows.push("peak_rss_mb", peak_rss_mb(), "MB");
}

/// The per-layer metrics: counts from a traced round, isolated rows, and
/// the run-level overhead figures.
#[allow(clippy::too_many_arguments)]
fn per_layer<W: Workload>(
    plan: &[W::Op],
    seed: u64,
    plain: &Run,
    traced: &Run,
    budget: Duration,
    log: &mut OpLog,
    rows: &mut Rows,
) -> Result<(), String> {
    let start = Instant::now();
    let t = &traced.rounds[0];
    let tally = &t.tally;
    let ops = t.ops;

    layers::codec(rows, budget / 5);
    layers::wire(rows, W::SHAPE, budget / 10);
    layers::rmi(rows, seed, 2_000);
    rows.push(
        "rmi.fault_rsp_per_op",
        per_op(tally.fault_rsp, ops),
        "count",
    );
    let mut session = Rows::default();
    layers::session(&mut session, W::SHAPE, seed, 150)?;
    rows.push(
        "session.overhead_us",
        session.get("session.call_p50_us") - rows.get("rmi.rtt_us"),
        "us",
    );
    rows.push(
        "session.overhead_virt_ms",
        session.get("session.call_virt_p50_ms") - rows.get("rmi.rtt_virt_ms"),
        "sim_ms",
    );
    rows.0.extend(session.0);

    rows.push(
        "sim.delivered_per_op",
        per_op(t.net.delivered, ops),
        "count",
    );
    rows.push("sim.dropped_per_op", per_op(t.net.dropped, ops), "count");
    rows.push("engine.find_per_op", per_op(tally.find, ops), "count");
    rows.push("engine.move_per_op", per_op(tally.moves, ops), "count");
    rows.push(
        "engine.instantiate_per_op",
        per_op(tally.instantiate, ops),
        "count",
    );
    rows.push("engine.invoke_per_op", per_op(tally.invoke, ops), "count");
    rows.push(
        "engine.move_bytes_per_op",
        per_op(tally.move_bytes, ops),
        "B",
    );
    rows.push(
        "registry.find_per_bind",
        per_op(tally.bind_finds, tally.binds),
        "count",
    );
    rows.push(
        "registry.cache_hit_ratio",
        per_op(tally.binds_without_find, tally.binds),
        "ratio",
    );
    rows.push("class.ship_per_op", per_op(tally.class_ship, ops), "count");
    rows.push("class.bytes_per_op", per_op(tally.class_bytes, ops), "B");
    rows.push("lock.calls_per_op", per_op(tally.lock_calls, ops), "count");
    let waits: Vec<f64> = t.lock_wait_us.iter().map(|&us| us as f64 / 1e3).collect();
    rows.push("lock.wait_virt_p50_ms", median(&waits), "sim_ms");
    rows.push(
        "durability.checkpoint_per_op",
        per_op(tally.checkpoint, ops),
        "count",
    );
    rows.push(
        "durability.checkpoint_bytes_per_op",
        per_op(tally.checkpoint_bytes, ops),
        "B",
    );
    rows.push(
        "durability.checkpoints_per_write",
        per_op(t.snapshots, t.incs_ok),
        "ratio",
    );
    rows.push("durability.restores", t.restores as f64, "count");

    let crash_to_restore: Vec<f64> = t
        .crash_at_us
        .iter()
        .zip(&tally.restore_at)
        .map(|(&crash, at)| (at.as_micros() - crash) as f64 / 1e3)
        .collect();
    let restore_to_served: Vec<f64> = tally
        .restore_at
        .iter()
        .zip(&t.served_at_us)
        .map(|(at, &served)| (served - at.as_micros()) as f64 / 1e3)
        .collect();
    rows.push("recovery_virt_ms", recovery_ms(t), "sim_ms");
    rows.push(
        "recovery.detect_virt_ms",
        median(&crash_to_restore),
        "sim_ms",
    );
    rows.push(
        "recovery.restore_virt_ms",
        median(&restore_to_served),
        "sim_ms",
    );

    let plain_rate = plain.ops_per_s();
    rows.push(
        "trace.overhead_pct",
        (plain_rate - traced.ops_per_s()) / plain_rate * 100.0,
        "%",
    );
    let skeleton = W::setup(seed, Mode::Plain)?;
    let mut passes = Vec::new();
    while passes.len() < 5 || (start.elapsed() < budget && passes.len() < 50) {
        passes.push(harness::skeleton(plan, skeleton.runtime(), log));
    }
    rows.push("harness.ns_per_op", median(&passes), "ns");
    Ok(())
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn bench<W: Workload>(args: &Args) -> Result<(), String> {
    let plan = W::plan(args.seed);
    let mut log = OpLog::with_capacity(plan.len() * 2);
    let total = Duration::from_secs_f64(args.seconds);
    let mut rows = Rows::default();
    let plain;
    if args.trace {
        plain = rounds::<W>(&plan, args.seed, Mode::Plain, total * 3 / 10, 2, &mut log)?;
        let traced = rounds::<W>(&plan, args.seed, Mode::Traced, total * 3 / 10, 2, &mut log)?;
        per_layer::<W>(
            &plan,
            args.seed,
            &plain,
            &traced,
            total * 3 / 10,
            &mut log,
            &mut rows,
        )?;
    } else {
        plain = rounds::<W>(&plan, args.seed, Mode::Plain, total, 3, &mut log)?;
        end_to_end(&plain, &mut rows);
    }

    let first = &plain.rounds[0];
    let attempted: u64 = plain.rounds.iter().map(|r| r.ops).sum();
    let failed: u64 = plain.rounds.iter().map(|r| r.failed).sum();
    println!(
        "# {} seed={} rounds={} ops/round={}: wall p50/p99 over {} ops (p99 has {} beyond it), \
         each op's 10th percentile across {} rounds; ops/s from 10th-percentile slice times; \
         setup_s is the median of {} set-ups",
        args.workload,
        args.seed,
        plain.rounds.len(),
        first.ops,
        first.ops,
        first.ops / 100,
        plain.walls.len(),
        plain.rounds.len()
    );
    println!("# loop=closed link=ethernet_10mbps cost=jdk_1.2.2_rmi");
    if !args.trace {
        println!("failed_share = {} ratio", per_op(failed, attempted));
        if !first.recovery_ms.is_empty() {
            println!(
                "recovery_virt_ms = {} sim_ms ({} crashes per round)",
                recovery_ms(first),
                first.recovery_ms.len()
            );
        }
    }
    for (name, value, unit) in &rows.0 {
        println!("{name} = {value} {unit}");
    }
    let metrics: Vec<String> = rows
        .0
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    Ok(())
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| match args.workload.as_str() {
        "rpc_steady" => bench::<rpc_steady::RpcSteady>(&args),
        "migrate_mix" => bench::<migrate_mix::MigrateMix>(&args),
        "durable_failover" => bench::<durable_failover::DurableFailover>(&args),
        other => Err(format!("unknown workload {other:?}")),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("mage-perfbench: {err}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use durable_failover::DurableFailover;
    use migrate_mix::MigrateMix;
    use rpc_steady::RpcSteady;

    fn one_round<W: Workload>(seed: u64) -> Round {
        let plan = W::plan(seed);
        let mut log = OpLog::with_capacity(plan.len() * 2);
        let mut workload = W::setup(seed, Mode::Plain).expect("set-up succeeds");
        let mut round = Round::default();
        workload
            .run(&plan, Mode::Plain, &mut log, &mut round)
            .expect("outputs check");
        round
    }

    /// The columns that must repeat exactly for a seed: messages, bytes,
    /// virtual latencies, failures and recovery times.
    fn columns(r: &Round) -> (u64, u64, u64, u64, u64, u64, Vec<u64>) {
        (
            r.net.sent,
            r.net.bytes_sent,
            r.virt_sum_us,
            r.virt_p50_ms.to_bits(),
            r.virt_p99_ms.to_bits(),
            r.failed,
            r.recovery_ms.iter().map(|ms| ms.to_bits()).collect(),
        )
    }

    /// Same-seed rounds agree on every column, and on allocations to
    /// within 0.01% (hash-seed-dependent resizes).
    fn assert_repeats(a: &Round, b: &Round) {
        assert_eq!(columns(a), columns(b));
        assert!(
            a.allocs.abs_diff(b.allocs) <= a.allocs / 10_000,
            "{} vs {}",
            a.allocs,
            b.allocs
        );
    }

    // One test, run sequentially: the allocation counter is process-wide,
    // so concurrent tests would perturb each other's counts.
    #[test]
    fn same_seed_repeats_and_seeds_change_the_schedule() {
        let rpc = one_round::<RpcSteady>(7);
        assert_repeats(&rpc, &one_round::<RpcSteady>(7));
        assert_eq!(rpc.failed, 0);

        let mix = one_round::<MigrateMix>(7);
        assert_repeats(&mix, &one_round::<MigrateMix>(7));
        assert_eq!(mix.failed, 0);
        let other = one_round::<MigrateMix>(8);
        assert_ne!(
            (mix.net.sent, mix.net.bytes_sent, mix.virt_sum_us),
            (other.net.sent, other.net.bytes_sent, other.virt_sum_us),
            "a different seed must change migrate_mix's schedule"
        );

        let durable = one_round::<DurableFailover>(7);
        assert_repeats(&durable, &one_round::<DurableFailover>(7));
        assert_eq!(durable.failed, 0);
        assert!(durable.recovery_ms.len() >= 10, "{:?}", durable.recovery_ms);
    }
}
