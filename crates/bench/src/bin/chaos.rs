//! Chaos soak smoke: mixed-model operations, lock cycles, stub
//! invocations and replicated-object traffic under seeded crashes,
//! restarts and partitions — run on four fixed seeds (the third with a
//! replication-heavy mix, the fourth also reading the replicated object),
//! each twice (replay) with full trace-invariant checking.
//!
//! Asserts the fault-tolerance tentpole invariants:
//!
//! * every operation resolves to success or a typed error — zero hangs;
//! * zero silent rebinds: stale-stub invocations resolve to typed
//!   `StaleIdentity` (counted, with explicit rebinds recovering);
//! * durability: every seed observes at least one full
//!   crash→restore→rebind recovery of the `Durability::Replicated`
//!   object, backed by real checkpoint/restore traffic;
//! * zero trace-invariant violations: at-most-once execution per call
//!   id, no response accepted by a dead incarnation, no lock grant to a
//!   purged waiter, snapshot epochs monotone per backup, no restore
//!   serving state older than the last acknowledged checkpoint;
//! * checkpoint by reference: on the seed that reads the replicated
//!   object, unchanged snapshots are confirmed rather than re-shipped,
//!   and some confirmations are refused (then re-shipped in full) under
//!   the same faults;
//! * fail fast on a dead peer: every seed has some operation skip a
//!   peer that died under it instead of spending another retry budget;
//! * locate and act in one pass: every seed has some bind's act request
//!   forwarded along a registry chain, so the forwarding path is not
//!   vacuous;
//! * per-seed determinism: the replay digest matches event-for-event.
//!
//! Writes `CHAOS.json` for CI to archive; CI fails the job if any
//! invariant trips or a replay digest differs (the assertions below
//! abort the process). Run with
//! `cargo run --release -p mage-bench --bin chaos`.

use std::fmt::Write as _;
use std::time::Instant;

use mage_workloads::chaos::{run_checked, ChaosConfig, ChaosReport, InvariantReport};

/// Two inherited seeds with the default mix, a replication-heavy seed
/// that leans on the durable object and its crash-recovery path, and a
/// seed that also reads it, so checkpoints run as confirmations and
/// coalesce onto in-flight snapshots while faults land.
fn seed_configs() -> Vec<ChaosConfig> {
    let base = ChaosConfig {
        hosts: 6,
        ops: 5_000,
        fault_percent: 12,
        check_invariants: true,
        ..ChaosConfig::default()
    };
    vec![
        ChaosConfig { seed: 2001, ..base },
        ChaosConfig { seed: 777, ..base },
        // Replication-enabled seed: more durable-handle traffic, more
        // crashes — the restore machinery has to carry the run.
        ChaosConfig {
            seed: 4242,
            fault_percent: 18,
            durable_percent: 30,
            stub_percent: 10,
            ..base
        },
        ChaosConfig {
            seed: 5150,
            fault_percent: 18,
            durable_percent: 30,
            durable_get_percent: 50,
            stub_percent: 10,
            ..base
        },
    ]
}

struct SeedOutcome {
    cfg: ChaosConfig,
    report: ChaosReport,
    invariants: InvariantReport,
    first_ms: u128,
    replay_ms: u128,
}

fn soak(cfg: ChaosConfig) -> SeedOutcome {
    let seed = cfg.seed;
    let wall = Instant::now();
    let (report, invariants) = run_checked(&cfg).expect("chaos run completes");
    let first_ms = wall.elapsed().as_millis();
    let wall = Instant::now();
    let (replay, replay_inv) = run_checked(&cfg).expect("chaos replay completes");
    let replay_ms = wall.elapsed().as_millis();

    assert_eq!(
        report.resolved(),
        report.ops,
        "tentpole invariant violated (seed {seed}): an operation failed to resolve"
    );
    // A hang or livelock surfaces as a budget-bounded Sim error counted
    // in `stalled` — zero for these seeds is the non-tautological check.
    assert_eq!(
        report.stalled, 0,
        "tentpole invariant violated (seed {seed}): an operation stalled instead of resolving typed"
    );
    assert_eq!(
        report.other_errors, 0,
        "unexpected error class under chaos (seed {seed}): {report:?}"
    );
    assert_eq!(
        report, replay,
        "determinism violated (seed {seed}): same seed, different event trace"
    );
    let invariants = invariants.expect("invariant checking was on");
    let replay_inv = replay_inv.expect("invariant checking was on");
    assert_eq!(
        invariants.violations(),
        0,
        "trace invariant violated (seed {seed}): {invariants:?}"
    );
    assert_eq!(
        invariants, replay_inv,
        "invariant observations must replay identically (seed {seed})"
    );
    assert!(
        report.stale_identity > 0 && report.rebinds > 0,
        "seed {seed} must exercise the stale-identity surface: {report:?}"
    );
    // Durability tentpole: the replicated object must actually have been
    // checkpointed, crashed, restored from its backup home and rebound.
    assert!(
        report.snapshots > 0 && report.restores > 0 && report.durable_recoveries > 0,
        "seed {seed} must exercise crash→restore→rebind recovery: {report:?}"
    );
    assert!(
        report.dead_peer_skips > 0,
        "seed {seed} must skip a peer that died under an operation: {report:?}"
    );
    assert!(
        report.act_forwards > 0,
        "seed {seed} must forward some act along a registry chain: {report:?}"
    );
    assert!(
        report.arrival_invokes > 0,
        "seed {seed} must run some invocation on arrival with its move: {report:?}"
    );
    if cfg.durable_get_percent > 0 {
        assert!(
            report.confirmations > 0 && report.refused_confirmations > 0,
            "seed {seed} must confirm unchanged snapshots and see some refused: {report:?}"
        );
    }

    SeedOutcome {
        cfg,
        report,
        invariants,
        first_ms,
        replay_ms,
    }
}

fn main() {
    mage_bench::banner("Chaos soak — epochs, incarnations, durable homes, invariants");

    let configs = seed_configs();
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(
        json,
        "  \"bench\": \"PR5 chaos soak (invariant-checked, replication-enabled)\","
    );
    let _ = writeln!(json, "  \"seeds\": [");

    let count = configs.len();
    for (i, cfg) in configs.into_iter().enumerate() {
        let out = soak(cfg);
        let (cfg, report, inv) = (&out.cfg, &out.report, &out.invariants);
        let seed = cfg.seed;
        println!(
            "seed {seed}: {} ops over {} hosts, {}% faults, {}% locks, {}% stubs, {}% durable, {}% mid-flight\n",
            cfg.ops,
            cfg.hosts,
            cfg.fault_percent,
            cfg.lock_percent,
            cfg.stub_percent,
            cfg.durable_percent,
            cfg.midflight_percent
        );
        println!("  outcomes:");
        println!("    ok              {:>6}", report.ok);
        println!(
            "    unreachable     {:>6}  (typed: crashed/partitioned peer)",
            report.unreachable
        );
        println!(
            "    not_found       {:>6}  (typed: object died with its host)",
            report.not_found
        );
        println!(
            "    stale_identity  {:>6}  (typed: stale stub refused, {} rebinds)",
            report.stale_identity, report.rebinds
        );
        println!("    coercion        {:>6}", report.coercion);
        println!(
            "    hung            {:>6}  (must be 0)",
            report.ops - report.resolved()
        );
        println!(
            "  faults: {} crashes ({} mid-flight) · {} restarts · {} partitions · {} heals · {} recreates",
            report.crashes,
            report.midflight_faults,
            report.restarts,
            report.partitions,
            report.heals,
            report.recreated
        );
        println!(
            "  durability: {} durable ops · {} snapshots stored · {} restores · {} recoveries · {} re-creates",
            report.durable_ops,
            report.snapshots,
            report.restores,
            report.durable_recoveries,
            report.durable_recreates
        );
        println!(
            "  checkpoint by reference: {} confirmations ({} refused)",
            report.confirmations, report.refused_confirmations
        );
        println!(
            "  dead peers: {} resolutions skipped a peer that died under their op",
            report.dead_peer_skips
        );
        println!(
            "  acts: {} forwarded along a registry chain, {} invocations run on arrival",
            report.act_forwards, report.arrival_invokes
        );
        println!(
            "  locks: {} cycles completed under the adversary ({} stale-identity refusals)",
            report.lock_cycles, report.stale_lock_refusals
        );
        println!(
            "  invariants: {} execs (0 dup) · {} rsp accepts (0 stale) · {} stale rsp dropped · {} grants (0 to purged) · {} ckpts (0 regress) · {} restores (0 stale)",
            inv.execs,
            inv.rsp_accepts,
            inv.stale_rsp_dropped,
            inv.grants,
            inv.checkpoints,
            inv.restores
        );
        println!(
            "  fabric: {} sent, {} dropped · virtual {:.1} s · real {} ms (+{} ms replay)",
            report.sent,
            report.dropped,
            report.elapsed_us as f64 / 1e6,
            out.first_ms,
            out.replay_ms
        );
        println!("  digest: {:#018x} (replay identical)\n", report.digest);

        // Seeds that never read the replicated object keep the entry
        // layout they were recorded with.
        let reads = cfg.durable_get_percent > 0;
        let get_share = if reads {
            format!(", \"durable_get_percent\": {}", cfg.durable_get_percent)
        } else {
            String::new()
        };
        let _ = writeln!(json, "    {{");
        let _ = writeln!(
            json,
            "      \"config\": {{ \"seed\": {}, \"hosts\": {}, \"ops\": {}, \"fault_percent\": {}, \"lock_percent\": {}, \"stub_percent\": {}, \"durable_percent\": {}{get_share}, \"midflight_percent\": {} }},",
            cfg.seed, cfg.hosts, cfg.ops, cfg.fault_percent, cfg.lock_percent, cfg.stub_percent, cfg.durable_percent, cfg.midflight_percent
        );
        let _ = writeln!(
            json,
            "      \"outcomes\": {{ \"ok\": {}, \"unreachable\": {}, \"not_found\": {}, \"stale_identity\": {}, \"rebinds\": {}, \"coercion\": {}, \"stalled\": {}, \"other_errors\": {}, \"hung\": {} }},",
            report.ok,
            report.unreachable,
            report.not_found,
            report.stale_identity,
            report.rebinds,
            report.coercion,
            report.stalled,
            report.other_errors,
            report.ops - report.resolved()
        );
        let _ = writeln!(
            json,
            "      \"faults\": {{ \"crashes\": {}, \"midflight\": {}, \"restarts\": {}, \"partitions\": {}, \"heals\": {}, \"recreated\": {}, \"lock_cycles\": {} }},",
            report.crashes,
            report.midflight_faults,
            report.restarts,
            report.partitions,
            report.heals,
            report.recreated,
            report.lock_cycles
        );
        let _ = writeln!(
            json,
            "      \"durability\": {{ \"durable_ops\": {}, \"snapshots\": {}, \"restores\": {}, \"recoveries\": {}, \"durable_recreates\": {}, \"stale_refusals\": {}, \"stale_lock_refusals\": {}, \"stale_replies_dropped\": {}, \"world_rebinds\": {} }},",
            report.durable_ops,
            report.snapshots,
            report.restores,
            report.durable_recoveries,
            report.durable_recreates,
            report.stale_refusals,
            report.stale_lock_refusals,
            report.stale_replies_dropped,
            report.world_rebinds
        );
        if reads {
            let _ = writeln!(
                json,
                "      \"confirmations\": {{ \"sent\": {}, \"refused\": {} }},",
                report.confirmations, report.refused_confirmations
            );
        }
        let _ = writeln!(
            json,
            "      \"invariants\": {{ \"execs\": {}, \"duplicate_execs\": {}, \"rsp_accepts\": {}, \"stale_rsp_accepts\": {}, \"stale_rsp_dropped\": {}, \"grants\": {}, \"stale_grants\": {}, \"checkpoints\": {}, \"ckpt_regressions\": {}, \"restores\": {}, \"stale_restores\": {}, \"violations\": {} }},",
            inv.execs,
            inv.duplicate_execs,
            inv.rsp_accepts,
            inv.stale_rsp_accepts,
            inv.stale_rsp_dropped,
            inv.grants,
            inv.stale_grants,
            inv.checkpoints,
            inv.ckpt_regressions,
            inv.restores,
            inv.stale_restores,
            inv.violations()
        );
        let _ = writeln!(
            json,
            "      \"dead_peer_skips\": {},",
            report.dead_peer_skips
        );
        let _ = writeln!(json, "      \"act_forwards\": {},", report.act_forwards);
        let _ = writeln!(
            json,
            "      \"arrival_invokes\": {},",
            report.arrival_invokes
        );
        let _ = writeln!(
            json,
            "      \"fabric\": {{ \"sent\": {}, \"dropped\": {} }},",
            report.sent, report.dropped
        );
        let _ = writeln!(json, "      \"virtual_us\": {},", report.elapsed_us);
        let _ = writeln!(json, "      \"digest\": \"{:#018x}\",", report.digest);
        let _ = writeln!(json, "      \"replay_identical\": true");
        let _ = writeln!(json, "    }}{}", if i + 1 < count { "," } else { "" });
    }

    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    std::fs::write("CHAOS.json", &json).expect("CHAOS.json written");
    println!("wrote CHAOS.json");
}
