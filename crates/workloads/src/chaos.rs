//! Chaos soak workload: mixed-model migrations, lock contention and stub
//! invocations under seeded crashes, restarts and partitions — with
//! faults injected both *between* operations and *mid-protocol*.
//!
//! The tentpole invariants of the fault-tolerance subsystem:
//!
//! * **Typed partial failure** — under arbitrary crash/restart/partition
//!   schedules, every driver operation either completes or resolves to a
//!   typed [`MageError`]; it never hangs.
//! * **No silent rebinds** — a stub pinned to an object incarnation
//!   either reaches *that* object or resolves to
//!   [`MageError::StaleIdentity`]; a re-created same-name object never
//!   silently serves a stale stub's calls. Rebinding is an explicit act
//!   ([`Session::rebind`] — or the policy-aware automatic rebind of
//!   [`Session::call_handle`] on replicated handles), and this workload
//!   performs (and counts) both.
//! * **Durable recovery** — the `Durability::Replicated` object survives
//!   crashes of whatever node hosts it: its state is restored from the
//!   backup home's snapshot, and the soak counts full
//!   crash→restore→rebind recoveries
//!   ([`ChaosReport::durable_recoveries`]).
//!
//! The run drives thousands of REV/GREV/COD/CLE/mobile-agent operations
//! (some guarded with §4.4 locks), explicit lock/unlock cycles,
//! stub-pinned invocations against two volatile shared objects, and
//! policy-handle invocations of a replicated object (writes, plus reads
//! when [`ChaosConfig::durable_get_percent`] is set, whose unchanged
//! snapshots are confirmed rather than re-shipped), while a seeded
//! adversary crashes nodes, restarts them empty, cuts and heals links —
//! and, for a slice of the operations, injects the fault *while the
//! protocol is mid-flight* (crash during `receive`/`receiveClass`, cuts
//! during find walks). It classifies every outcome and folds the whole
//! run into a digest, so two runs with the same seed can be checked for
//! identical behaviour event-for-event.
//!
//! With [`ChaosConfig::check_invariants`] the run records a full trace
//! and checks protocol invariants *over the event trace* (not just op
//! resolution): at-most-once execution per call id, no response accepted
//! by a dead incarnation of its caller, no lock grant to a waiter from
//! an incarnation the granting node had already purged, snapshot epochs
//! strictly monotone per backup home, and no restore serving a snapshot
//! older than the newest one that backup acknowledged.
//!
//! Conventions:
//!
//! * `h0` is the protected home namespace: it is never crashed, so the
//!   class library stays deployed, lost objects can be re-created, and
//!   the replicated object's fixed backup home survives.
//! * When an operation reports [`MageError::NotFound`] the shared object
//!   is presumed dead with its host; the driver re-creates it at `h0`
//!   (counted in [`ChaosReport::recreated`]; the replicated object is
//!   re-created replicated, in [`ChaosReport::durable_recreates`]).
//! * [`MageError::Unreachable`] is *not* grounds for re-creation — the
//!   object may be alive on the far side of a partition.

use std::collections::{BTreeMap, BTreeSet};

use mage_core::attribute::{Cle, Cod, Grev, MobileAgent, MobilityAttribute, Rev};
use mage_core::workload_support::{methods, test_object_class};
use mage_core::{Durability, MageError, ObjectHandle, ObjectSpec, Runtime, Session, Stub};
use mage_sim::TraceEvent;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of one chaos run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Seed for both the runtime world and the fault schedule.
    pub seed: u64,
    /// Number of namespaces (`h0` … `h{hosts-1}`); at least 3.
    pub hosts: usize,
    /// Number of driver operations to run.
    pub ops: usize,
    /// Percent chance (0–100) that a fault action precedes an operation.
    pub fault_percent: u8,
    /// Percent of operations that are explicit lock/unlock cycles
    /// (lock-heavy schedules racing the crash adversary).
    pub lock_percent: u8,
    /// Percent of operations that are stub-pinned invocations (the
    /// stale-identity surface).
    pub stub_percent: u8,
    /// Percent chance that an attribute operation runs asynchronously
    /// with a fault injected mid-protocol (crash during
    /// `receive`/`receiveClass`, cuts during find walks).
    pub midflight_percent: u8,
    /// Percent of operations that are policy-handle invocations of the
    /// `Durability::Replicated` object (the crash-recovery surface:
    /// checkpoints, restores, auto-rebinds).
    pub durable_percent: u8,
    /// Percent of those replicated-object invocations that are `GET`s
    /// rather than `INC`s: reads leave the snapshot unchanged, so their
    /// checkpoints are confirmations or coalesce onto an in-flight one.
    /// At 0 no random draw is made for it.
    pub durable_get_percent: u8,
    /// Record a full trace and check protocol invariants over it.
    pub check_invariants: bool,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 2001,
            hosts: 5,
            ops: 1_000,
            fault_percent: 15,
            lock_percent: 15,
            stub_percent: 15,
            midflight_percent: 10,
            durable_percent: 15,
            durable_get_percent: 0,
            check_invariants: false,
        }
    }
}

/// Outcome of a chaos run. Two runs with the same [`ChaosConfig`] must
/// produce equal reports (including [`ChaosReport::digest`], which folds
/// every per-operation outcome and fault event in order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosReport {
    /// Operations driven.
    pub ops: usize,
    /// Operations that completed successfully.
    pub ok: usize,
    /// Typed `Unreachable` outcomes (crashed or partitioned peers).
    pub unreachable: usize,
    /// Typed `NotFound` outcomes (object died with its host).
    pub not_found: usize,
    /// Typed `StaleIdentity` outcomes: a stale stub reached a re-created
    /// same-name object and was *refused* — the detection the incarnation
    /// machinery exists for. Each is followed by an explicit rebind
    /// attempt (see [`ChaosReport::rebinds`]).
    pub stale_identity: usize,
    /// Typed coercion rejections (expected for some attribute mixes).
    pub coercion: usize,
    /// Typed simulation outcomes (operation stalled because its own
    /// namespace lost the command to a crash).
    pub stalled: usize,
    /// Every other typed error.
    pub other_errors: usize,
    /// Explicit stub rebinds performed after `StaleIdentity`.
    pub rebinds: usize,
    /// Lock/unlock cycles fully completed.
    pub lock_cycles: usize,
    /// Faults injected mid-protocol (as opposed to between operations).
    pub midflight_faults: usize,
    /// Times a shared object was re-created at `h0` after being lost.
    pub recreated: usize,
    /// Policy-handle invocations of the replicated object driven.
    pub durable_ops: usize,
    /// Crash→restore→rebind recoveries observed through a durable
    /// handle: the call succeeded after an automatic rebind to a fresh
    /// incarnation (state served from the backup snapshot).
    pub durable_recoveries: usize,
    /// Times the replicated object was truly lost (primary *and* backup
    /// gone) and re-created replicated.
    pub durable_recreates: usize,
    /// World metric: durability snapshots accepted at backup homes.
    pub snapshots: u64,
    /// World metric: checkpoints sent as confirmations of an unchanged,
    /// acknowledged snapshot instead of the snapshot itself.
    pub confirmations: u64,
    /// World metric: confirmations the backup did not answer `true`
    /// (it no longer held that snapshot, or the call failed); when the
    /// snapshot is still the object's latest, it is re-shipped in full.
    pub refused_confirmations: u64,
    /// World metric: objects restored from a backup snapshot.
    pub restores: u64,
    /// World metric: invocations refused with a typed `StaleIdentity`.
    pub stale_refusals: u64,
    /// World metric: lock requests refused with a typed `StaleIdentity`.
    pub stale_lock_refusals: u64,
    /// World metric: responses to a dead incarnation dropped on receipt.
    pub stale_replies_dropped: u64,
    /// World metric: stub rebinds (explicit and handle-automatic).
    pub world_rebinds: u64,
    /// World metric: times an operation's location resolution passed over
    /// a peer that died under it, or failed fast at a dead home, instead
    /// of spending another retry budget there.
    pub dead_peer_skips: u64,
    /// Fault actions applied.
    pub crashes: usize,
    /// Nodes brought back.
    pub restarts: usize,
    /// Links cut.
    pub partitions: usize,
    /// Links healed.
    pub heals: usize,
    /// Messages sent / dropped by the fabric (trace equivalence check).
    pub sent: u64,
    /// Messages dropped (loss, partitions, dead nodes).
    pub dropped: u64,
    /// Virtual time consumed, in microseconds.
    pub elapsed_us: u64,
    /// FNV-1a fold of every fault event and operation outcome in order.
    pub digest: u64,
}

impl ChaosReport {
    /// Operations that resolved (success or typed error).
    ///
    /// Hang-protection is *enforced*, not merely counted: every blocking
    /// wait runs under the world's bounded event budget, so a protocol
    /// that stops making progress (queue drained, op unresolved) or
    /// livelocks (budget exhausted) surfaces as [`MageError::Sim`] and
    /// lands in [`ChaosReport::stalled`]. A healthy run therefore shows
    /// `resolved() == ops` **and** `stalled == 0` — the second condition
    /// is the one a hang regression would break.
    pub fn resolved(&self) -> usize {
        self.ok
            + self.unreachable
            + self.not_found
            + self.stale_identity
            + self.coercion
            + self.stalled
            + self.other_errors
    }
}

/// Protocol invariants checked over the recorded event trace (not just
/// operation resolution). All violation counters must be zero; the
/// informational counters prove the checks had material to chew on.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InvariantReport {
    /// Call executions observed (one note per non-duplicate execution).
    pub execs: usize,
    /// VIOLATION: the same `(caller, caller-epoch, call id)` executed
    /// more than once — the at-most-once dedup machinery failed.
    pub duplicate_execs: usize,
    /// Responses accepted by callers (matched against a pending call).
    pub rsp_accepts: usize,
    /// VIOLATION: a response was accepted by a node whose incarnation
    /// differs from the one that issued the call (the wire-carried
    /// request-epoch echo failed to protect the reused call-id space).
    pub stale_rsp_accepts: usize,
    /// Responses correctly discarded because they answered a previous
    /// incarnation's call (the machinery working as intended).
    pub stale_rsp_dropped: usize,
    /// Lock grants delivered to waiters.
    pub grants: usize,
    /// VIOLATION: a grant went to a waiter from an incarnation the
    /// granting node had already purged.
    pub stale_grants: usize,
    /// Durability snapshots accepted at backup homes.
    pub checkpoints: usize,
    /// Objects restored from a backup snapshot.
    pub restores: usize,
    /// VIOLATION: a backup accepted a snapshot epoch not strictly newer
    /// than the one it already held for the name (monotonicity broke).
    pub ckpt_regressions: usize,
    /// VIOLATION: a restore served a snapshot older than the newest one
    /// that backup had acknowledged for the name — a restored object must
    /// never serve state older than the last acked (checkpointed)
    /// mutation.
    pub stale_restores: usize,
}

impl InvariantReport {
    /// Total invariant violations (must be zero).
    pub fn violations(&self) -> usize {
        self.duplicate_execs
            + self.stale_rsp_accepts
            + self.stale_grants
            + self.ckpt_regressions
            + self.stale_restores
    }
}

fn fold(digest: &mut u64, value: u64) {
    // FNV-1a over 8-byte words: cheap, deterministic, order-sensitive.
    for byte in value.to_le_bytes() {
        *digest ^= u64::from(byte);
        *digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Classification codes folded into the digest (stable across runs).
fn outcome_code(result: &Result<Option<i64>, MageError>) -> (u64, u64) {
    match result {
        Ok(v) => (0, v.unwrap_or(-1) as u64),
        Err(MageError::Unreachable { peer }) => (1, u64::from(*peer)),
        Err(MageError::NotFound(_)) => (2, 0),
        Err(MageError::Coercion { .. } | MageError::NotApplicable { .. }) => (3, 0),
        Err(MageError::Sim(_)) => (4, 0),
        Err(MageError::ClassUnavailable(_)) => (5, 0),
        Err(MageError::Denied(_)) => (6, 0),
        Err(MageError::BadPlan(_)) => (7, 0),
        Err(MageError::Rmi(_)) => (8, 0),
        Err(MageError::Codec(_)) => (9, 0),
        Err(MageError::StaleIdentity { fresh, .. }) => (11, *fresh),
        Err(_) => (10, 0),
    }
}

/// Volatile shared objects of the soak.
const OBJECTS: [&str; 2] = ["shared", "shared2"];
/// The `Durability::Replicated` object of the soak.
const DURABLE: &str = "durable";
/// Every object an attribute or lock operation may target.
const POOL: [&str; 3] = ["shared", "shared2", DURABLE];

/// The replicated object's creation spec: born on crashable `h1` (the
/// attribute mix keeps moving it), checkpointed to the protected home
/// `h0` — so a crash of its current host is recoverable, repeatedly.
fn durable_spec(names: &[String]) -> ObjectSpec {
    ObjectSpec::new(DURABLE)
        .class("TestObject")
        .durability(Durability::Replicated { backups: 1 })
        .mobility(Rev::new("TestObject", DURABLE, names[1].clone()))
        .backup(names[0].clone())
}

fn pair(a: usize, b: usize) -> (usize, usize) {
    if a < b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Runs the chaos workload (no invariant checking; see
/// [`run_checked`] for the trace-checked form).
///
/// # Errors
///
/// Returns only infrastructure failures (bad configuration); operation
/// failures under fault injection are *outcomes* counted in the report.
///
/// # Panics
///
/// Panics if `cfg.hosts < 3`.
pub fn run(cfg: &ChaosConfig) -> Result<ChaosReport, MageError> {
    run_checked(cfg).map(|(report, _)| report)
}

/// Runs the chaos workload; when [`ChaosConfig::check_invariants`] is
/// set, also returns the trace-derived [`InvariantReport`].
///
/// # Errors
///
/// See [`run`].
///
/// # Panics
///
/// Panics if `cfg.hosts < 3`.
#[allow(clippy::too_many_lines)]
pub fn run_checked(cfg: &ChaosConfig) -> Result<(ChaosReport, Option<InvariantReport>), MageError> {
    assert!(cfg.hosts >= 3, "chaos needs at least three hosts");
    let names: Vec<String> = (0..cfg.hosts).map(|i| format!("h{i}")).collect();
    let mut rt = Runtime::builder()
        .fast()
        .seed(cfg.seed)
        .nodes(names.iter().cloned())
        .class(test_object_class())
        .trace(cfg.check_invariants)
        .build();
    rt.deploy_class("TestObject", "h0")?;
    let sessions: Vec<Session> = names
        .iter()
        .map(|name| rt.session(name))
        .collect::<Result<_, _>>()?;
    for obj in OBJECTS {
        sessions[0].create(ObjectSpec::new(obj).class("TestObject"))?;
    }
    // The replicated object: born on a crashable node (h1), with the
    // protected home h0 as its fixed backup — so a crash of whatever
    // node currently hosts it is recoverable from h0, and the attribute
    // mix keeps moving it back onto crashable nodes.
    sessions[0].create(durable_spec(&names))?;

    // Stub-pinned invocation surface: one lazily bound stub per
    // (session, object). A stub outlives re-creations of its object on
    // purpose — that is exactly the stale-identity scenario.
    let mut stubs: Vec<[Option<Stub>; 2]> = (0..cfg.hosts).map(|_| [None, None]).collect();
    // Policy-handle surface for the replicated object, one per client.
    let mut handles: Vec<Option<ObjectHandle>> = (0..cfg.hosts).map(|_| None).collect();

    // The fault schedule draws from its own RNG so op mix and fault mix
    // are independent of each other but both derived from the seed.
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xC4A0_5EED);
    let mut down: BTreeSet<usize> = BTreeSet::new();
    let mut cut: BTreeSet<(usize, usize)> = BTreeSet::new();

    let start = rt.now();
    let mut report = ChaosReport {
        ops: cfg.ops,
        ok: 0,
        unreachable: 0,
        not_found: 0,
        stale_identity: 0,
        coercion: 0,
        stalled: 0,
        other_errors: 0,
        rebinds: 0,
        lock_cycles: 0,
        midflight_faults: 0,
        recreated: 0,
        durable_ops: 0,
        durable_recoveries: 0,
        durable_recreates: 0,
        snapshots: 0,
        confirmations: 0,
        refused_confirmations: 0,
        restores: 0,
        stale_refusals: 0,
        stale_lock_refusals: 0,
        stale_replies_dropped: 0,
        world_rebinds: 0,
        dead_peer_skips: 0,
        crashes: 0,
        restarts: 0,
        partitions: 0,
        heals: 0,
        sent: 0,
        dropped: 0,
        elapsed_us: 0,
        digest: 0xcbf2_9ce4_8422_2325,
    };

    for op_index in 0..cfg.ops {
        // ---- maybe inject a fault before this operation ----
        if rng.gen_range(0..100u8) < cfg.fault_percent {
            match rng.gen_range(0..4u8) {
                0 => {
                    // Crash a non-home node (bounded so a quorum stays up).
                    let victim = rng.gen_range(1..cfg.hosts);
                    if !down.contains(&victim) && down.len() < cfg.hosts / 2 {
                        rt.crash(&names[victim])?;
                        down.insert(victim);
                        report.crashes += 1;
                        fold(&mut report.digest, 100 + victim as u64);
                    }
                }
                1 => {
                    // Restart a crashed node (fresh, empty incarnation).
                    if !down.is_empty() {
                        let nth = rng.gen_range(0..down.len());
                        let victim = *down.iter().nth(nth).expect("nth < len");
                        rt.restart(&names[victim])?;
                        down.remove(&victim);
                        report.restarts += 1;
                        fold(&mut report.digest, 200 + victim as u64);
                    }
                }
                2 => {
                    // Cut a link (bounded to keep the run interesting).
                    let a = rng.gen_range(0..cfg.hosts);
                    let b = rng.gen_range(0..cfg.hosts);
                    if a != b && cut.len() < cfg.hosts && cut.insert(pair(a, b)) {
                        rt.partition_between(&names[a], &names[b])?;
                        report.partitions += 1;
                        fold(&mut report.digest, 300 + (a * cfg.hosts + b) as u64);
                    }
                }
                _ => {
                    // Heal a cut link.
                    if !cut.is_empty() {
                        let nth = rng.gen_range(0..cut.len());
                        let (a, b) = *cut.iter().nth(nth).expect("nth < len");
                        cut.remove(&(a, b));
                        rt.heal_between(&names[a], &names[b])?;
                        report.heals += 1;
                        fold(&mut report.digest, 400 + (a * cfg.hosts + b) as u64);
                    }
                }
            }
        }

        // ---- run one operation from a live client ----
        let ups: Vec<usize> = (0..cfg.hosts).filter(|i| !down.contains(i)).collect();
        let client = ups[rng.gen_range(0..ups.len())];
        let to = rng.gen_range(0..cfg.hosts); // possibly down: that's the point
        let mut obj_idx = rng.gen_range(0..POOL.len());
        let session = &sessions[client];
        let kind = rng.gen_range(0..100u8);
        let (lock_hi, stub_hi) = (cfg.lock_percent, cfg.lock_percent + cfg.stub_percent);
        let dur_hi = stub_hi + cfg.durable_percent;
        if kind >= lock_hi && kind < stub_hi {
            // Stub-pinned ops target the volatile objects; the durable
            // object's pinned surface is the policy-handle op below.
            obj_idx %= OBJECTS.len();
        } else if kind >= stub_hi && kind < dur_hi {
            obj_idx = POOL.len() - 1;
        }
        let obj = POOL[obj_idx];

        let result: Result<Option<i64>, MageError> = if kind < lock_hi {
            // Lock-heavy schedule: an explicit §4.4 lock/unlock cycle
            // racing the crash adversary — the queue may sit on a node
            // that dies mid-cycle, the holder may lose reachability
            // before it can release, waiters may belong to incarnations
            // that no longer exist.
            match session.lock(obj, &names[to]) {
                Ok(_kind) => match session.unlock(obj) {
                    Ok(()) => {
                        report.lock_cycles += 1;
                        Ok(None)
                    }
                    Err(e) => Err(e),
                },
                Err(e) => Err(e),
            }
        } else if kind < stub_hi {
            // Stub-pinned invocation: the stale-identity surface. The
            // stub deliberately survives re-creations of its object.
            if stubs[client][obj_idx].is_none() {
                stubs[client][obj_idx] = session.bind(&Cle::new("TestObject", obj)).ok();
            }
            match &stubs[client][obj_idx] {
                Some(stub) => session.call(stub, methods::INC, &()).map(Some),
                None => Err(MageError::NotFound(obj.to_owned())),
            }
        } else if kind < dur_hi {
            // Policy-handle invocation of the replicated object: the
            // crash-recovery surface. A crash of its host shows up as a
            // StaleIdentity that `call_handle` resolves by automatic
            // rebind — the restored object serves its checkpointed state.
            report.durable_ops += 1;
            let method = if cfg.durable_get_percent > 0
                && rng.gen_range(0..100u8) < cfg.durable_get_percent
            {
                methods::GET
            } else {
                methods::INC
            };
            if handles[client].is_none() {
                handles[client] = session
                    .bind(&Cle::new("TestObject", DURABLE))
                    .ok()
                    .map(|stub| {
                        ObjectHandle::new(stub, Durability::Replicated { backups: 1 }, true)
                    });
            }
            match handles[client].as_mut() {
                Some(handle) => {
                    let before = handle.incarnation();
                    match session.call_handle(handle, method, &()) {
                        Ok(v) => {
                            if handle.incarnation() != before {
                                // The call outlived a crash of the
                                // object's host: restore + auto-rebind.
                                report.durable_recoveries += 1;
                                fold(&mut report.digest, 0xD0B1);
                            }
                            Ok(Some(v))
                        }
                        Err(e) => {
                            // Dead handle: drop it so the next durable op
                            // re-binds from scratch.
                            handles[client] = None;
                            Err(e)
                        }
                    }
                }
                None => Err(MageError::NotFound(DURABLE.to_owned())),
            }
        } else {
            // Mixed-model attribute operation; REV/GREV are sometimes
            // guarded (lock-bracketed binds racing crashes).
            let guard = rng.gen_range(0..100u8) < 30;
            let attr: Box<dyn MobilityAttribute> = match rng.gen_range(0..5u8) {
                0 => {
                    let rev = Rev::new("TestObject", obj, names[to].clone());
                    Box::new(if guard { rev.guarded() } else { rev })
                }
                1 => Box::new(Cod::new("TestObject", obj)),
                2 => {
                    let grev = Grev::new("TestObject", obj, names[to].clone());
                    Box::new(if guard { grev.guarded() } else { grev })
                }
                3 => Box::new(MobileAgent::new("TestObject", obj, names[to].clone())),
                _ => Box::new(Cle::new("TestObject", obj)),
            };
            if rng.gen_range(0..100u8) < cfg.midflight_percent {
                // Mid-flight fault: start the bind, run the protocol a
                // few events, then crash a node or cut a link while the
                // move/class-transfer/find is in the air (this is what
                // hits `receive` and `receiveClass` halfway).
                match session.bind_invoke_async(attr.as_ref(), methods::INC, &()) {
                    Ok(pending) => {
                        let steps = rng.gen_range(1..40u32);
                        for _ in 0..steps {
                            if !rt.step() {
                                break;
                            }
                        }
                        if rng.gen_range(0..2u8) == 0 {
                            // Crash someone other than the client and h0.
                            let victim = rng.gen_range(1..cfg.hosts);
                            if victim != client
                                && !down.contains(&victim)
                                && down.len() < cfg.hosts / 2
                            {
                                rt.crash(&names[victim])?;
                                down.insert(victim);
                                report.crashes += 1;
                                report.midflight_faults += 1;
                                fold(&mut report.digest, 500 + victim as u64);
                            }
                        } else {
                            let a = rng.gen_range(0..cfg.hosts);
                            let b = rng.gen_range(0..cfg.hosts);
                            if a != b && cut.len() < cfg.hosts && cut.insert(pair(a, b)) {
                                rt.partition_between(&names[a], &names[b])?;
                                report.partitions += 1;
                                report.midflight_faults += 1;
                                fold(&mut report.digest, 600 + (a * cfg.hosts + b) as u64);
                            }
                        }
                        pending.wait().map(|(_, v)| v)
                    }
                    Err(e) => Err(e),
                }
            } else {
                session
                    .bind_invoke(attr.as_ref(), methods::INC, &())
                    .map(|(_, v)| v)
            }
        };

        let (code, detail) = outcome_code(&result);
        fold(&mut report.digest, op_index as u64);
        fold(&mut report.digest, code);
        fold(&mut report.digest, detail);
        match &result {
            Ok(_) => report.ok += 1,
            Err(MageError::Unreachable { .. }) => report.unreachable += 1,
            Err(MageError::NotFound(_)) => {
                report.not_found += 1;
                if obj == DURABLE {
                    // Even the backup could not help (or the restore
                    // chain dead-ended): re-create replicated.
                    if sessions[0].create(durable_spec(&names)).is_ok() {
                        report.durable_recreates += 1;
                        fold(&mut report.digest, 0xD5ED);
                    }
                } else if sessions[0]
                    .create(ObjectSpec::new(obj).class("TestObject"))
                    .is_ok()
                {
                    // The volatile object died with its host; re-home it
                    // so the soak keeps exercising migrations rather than
                    // failing forever. Stubs bound to the dead
                    // incarnation stay stale on purpose — their next call
                    // must surface StaleIdentity.
                    report.recreated += 1;
                    fold(&mut report.digest, 0x5EED);
                }
            }
            Err(MageError::StaleIdentity { .. }) => {
                report.stale_identity += 1;
                // The typed refusal arrived; recovery is an *explicit*
                // rebind to whatever answers to the name now. (Durable
                // handle ops auto-rebind inside call_handle; a
                // StaleIdentity escaping one has already dropped the
                // handle above.)
                if obj_idx < OBJECTS.len() {
                    if let Some(stub) = stubs[client][obj_idx].take() {
                        match session.rebind(&stub) {
                            Ok(fresh) => {
                                stubs[client][obj_idx] = Some(fresh);
                                report.rebinds += 1;
                                fold(&mut report.digest, 0xB1D);
                            }
                            Err(_) => {
                                // Nothing answers right now; a later stub
                                // op re-binds from scratch.
                            }
                        }
                    }
                }
            }
            Err(MageError::Coercion { .. } | MageError::NotApplicable { .. }) => {
                report.coercion += 1;
            }
            Err(MageError::Sim(_)) => report.stalled += 1,
            Err(_) => report.other_errors += 1,
        }
    }

    // Drain stragglers (one-way agent invokes, late retransmissions);
    // a bounded budget turns any livelock into an error, not a hang.
    rt.run_until_idle()?;

    {
        let world = rt.world();
        let metrics = world.metrics();
        report.sent = metrics.net.sent;
        report.dropped = metrics.net.dropped;
        report.snapshots = metrics.counter("snapshots_stored");
        report.confirmations = metrics.counter("checkpoint_confirms");
        report.refused_confirmations = metrics.counter("checkpoint_confirms_refused");
        report.restores = metrics.counter("snapshot_restores");
        report.stale_refusals = metrics.counter("stale_identity_refusals");
        report.stale_lock_refusals = metrics.counter("stale_lock_refusals");
        report.stale_replies_dropped = metrics.counter("stale_replies_dropped");
        report.world_rebinds = metrics.counter("rebinds") + metrics.counter("auto_rebinds");
        report.dead_peer_skips = metrics.counter("dead_peer_skips");
    }
    report.elapsed_us = (rt.now() - start).as_micros();

    let invariants = cfg.check_invariants.then(|| check_trace(&rt, cfg.hosts));
    Ok((report, invariants))
}

/// Replays the recorded event trace and checks the protocol invariants.
///
/// The epoch timeline of every node is reconstructed from the world's
/// own crash notes, so the wire-carried epochs in the invariant markers
/// are validated against an *independent* account of who was alive when.
fn check_trace(rt: &Runtime, hosts: usize) -> InvariantReport {
    let mut inv = InvariantReport::default();
    let mut epochs = vec![0u64; hosts];
    // (caller, caller_epoch, call_id) -> executed once
    let mut execs: BTreeSet<(u64, u64, u64)> = BTreeSet::new();
    // (host, client) -> epochs below this are purged at `host`
    let mut purged: BTreeMap<(usize, u64), u64> = BTreeMap::new();
    // (backup host, object name) -> newest (incarnation, epoch) accepted
    // there; ordering is lexicographic — a younger lineage supersedes an
    // older one, epochs increase within a lineage.
    let mut ckpt_epochs: BTreeMap<(usize, u64), (u64, u64)> = BTreeMap::new();

    let world = rt.world();
    for event in world.trace().events() {
        let TraceEvent::Note { node, text, .. } = event else {
            continue;
        };
        let at = node.index();
        if let Some(rest) = text.strip_prefix("crashed (epoch ") {
            if let Ok(epoch) = rest.trim_end_matches(')').parse::<u64>() {
                epochs[at] = epoch;
            }
        } else if let Some(rest) = text.strip_prefix("invariant:exec:") {
            let mut it = rest.split(':').filter_map(|f| f.parse::<u64>().ok());
            if let (Some(caller), Some(call_id), Some(epoch)) = (it.next(), it.next(), it.next()) {
                inv.execs += 1;
                if !execs.insert((caller, epoch, call_id)) {
                    inv.duplicate_execs += 1;
                }
            }
        } else if let Some(rest) = text.strip_prefix("invariant:rsp-accepted:") {
            let mut it = rest.split(':').filter_map(|f| f.parse::<u64>().ok());
            if let (Some(_call_id), Some(req_epoch), Some(_self_epoch)) =
                (it.next(), it.next(), it.next())
            {
                inv.rsp_accepts += 1;
                if req_epoch != epochs[at] {
                    inv.stale_rsp_accepts += 1;
                }
            }
        } else if text.starts_with("invariant:stale-rsp-dropped:") {
            inv.stale_rsp_dropped += 1;
        } else if let Some(rest) = text.strip_prefix("invariant:purged:") {
            let mut it = rest.split(':').filter_map(|f| f.parse::<u64>().ok());
            if let (Some(client), Some(epoch)) = (it.next(), it.next()) {
                purged.insert((at, client), epoch);
            }
        } else if let Some(rest) = text.strip_prefix("invariant:grant:") {
            let mut it = rest.split(':').filter_map(|f| f.parse::<u64>().ok());
            if let (Some(_name), Some(client), Some(epoch)) = (it.next(), it.next(), it.next()) {
                inv.grants += 1;
                // A grant may race a restart the granting node has not
                // heard about yet (the reply is then discarded by the
                // receiver's epoch echo — covered by stale_rsp_accepts);
                // but a grant to an epoch the granter itself had already
                // purged is a straight violation.
                if purged
                    .get(&(at, client))
                    .is_some_and(|&floor| epoch < floor)
                {
                    inv.stale_grants += 1;
                }
            }
        } else if let Some(rest) = text.strip_prefix("invariant:ckpt:") {
            let mut it = rest.split(':').filter_map(|f| f.parse::<u64>().ok());
            if let (Some(name), Some(inc), Some(epoch)) = (it.next(), it.next(), it.next()) {
                inv.checkpoints += 1;
                // Monotonicity: a backup only ever accepts snapshots
                // strictly newer (by lineage, then epoch) than what it
                // already holds.
                let held = ckpt_epochs.entry((at, name)).or_insert((0, 0));
                if (inc, epoch) <= *held {
                    inv.ckpt_regressions += 1;
                }
                *held = (*held).max((inc, epoch));
            }
        } else if let Some(rest) = text.strip_prefix("invariant:restore:") {
            let mut it = rest.split(':').filter_map(|f| f.parse::<u64>().ok());
            if let (Some(name), Some(inc), Some(epoch)) = (it.next(), it.next(), it.next()) {
                inv.restores += 1;
                // Freshness: a restored object must serve exactly the
                // newest snapshot this backup acknowledged for the name —
                // never state older than the last checkpointed mutation
                // of the newest lineage.
                if ckpt_epochs
                    .get(&(at, name))
                    .is_some_and(|&newest| (inc, epoch) < newest)
                {
                    inv.stale_restores += 1;
                }
            }
        }
    }
    inv
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ChaosConfig {
        ChaosConfig {
            seed: 9,
            hosts: 4,
            ops: 150,
            fault_percent: 25,
            ..ChaosConfig::default()
        }
    }

    #[test]
    fn every_operation_resolves() {
        let report = run(&small()).unwrap();
        assert_eq!(
            report.resolved(),
            report.ops,
            "no operation may hang: {report:?}"
        );
        // The non-tautological half of the invariant: a hang or livelock
        // would surface as a budget-bounded Sim error in `stalled`.
        assert_eq!(report.stalled, 0, "{report:?}");
        assert_eq!(report.other_errors, 0, "{report:?}");
        assert!(report.ok > 0, "some operations must succeed: {report:?}");
    }

    #[test]
    fn faults_actually_happen() {
        let report = run(&small()).unwrap();
        assert!(report.crashes > 0, "{report:?}");
        assert!(report.restarts > 0, "{report:?}");
        assert!(report.partitions > 0, "{report:?}");
        assert!(report.dropped > 0, "{report:?}");
        assert!(
            report.unreachable + report.not_found + report.stale_identity > 0,
            "faults must surface as typed errors: {report:?}"
        );
    }

    #[test]
    fn lock_cycles_and_midflight_faults_exercise() {
        let report = run(&ChaosConfig {
            ops: 400,
            ..small()
        })
        .unwrap();
        assert!(report.lock_cycles > 0, "{report:?}");
        assert!(report.midflight_faults > 0, "{report:?}");
    }

    #[test]
    fn stale_stubs_surface_typed_and_rebind() {
        // Enough ops and faults that objects get lost and re-created
        // while stubs are still pinned to the dead incarnations.
        let report = run(&ChaosConfig {
            seed: 11,
            hosts: 4,
            ops: 600,
            fault_percent: 30,
            ..ChaosConfig::default()
        })
        .unwrap();
        assert!(report.recreated > 0, "{report:?}");
        assert!(
            report.stale_identity > 0,
            "re-creations must be detected by stale stubs: {report:?}"
        );
        assert!(report.rebinds > 0, "{report:?}");
    }

    #[test]
    fn durable_object_recovers_through_crashes() {
        // Enough ops and faults that the replicated object's host dies
        // while handles are live: the soak must observe at least one
        // full crash→restore→rebind recovery, and the world metrics must
        // show real checkpoint/restore traffic.
        let report = run(&ChaosConfig {
            seed: 11,
            hosts: 5,
            ops: 800,
            fault_percent: 30,
            ..ChaosConfig::default()
        })
        .unwrap();
        assert!(report.durable_ops > 0, "{report:?}");
        assert!(report.snapshots > 0, "{report:?}");
        assert!(report.restores > 0, "{report:?}");
        assert!(
            report.durable_recoveries > 0,
            "a crash of the replicated object's host must recover: {report:?}"
        );
        assert!(report.world_rebinds > 0, "{report:?}");
    }

    #[test]
    fn replication_invariants_hold_over_the_trace() {
        let (report, inv) = run_checked(&ChaosConfig {
            seed: 11,
            hosts: 5,
            ops: 800,
            fault_percent: 30,
            check_invariants: true,
            ..ChaosConfig::default()
        })
        .unwrap();
        let inv = inv.expect("invariant checking was requested");
        assert_eq!(inv.violations(), 0, "{inv:?}");
        assert!(inv.checkpoints > 0, "{inv:?}");
        assert!(inv.restores > 0, "{inv:?}");
        assert!(report.restores >= inv.restores as u64);
    }

    #[test]
    fn durable_reads_confirm_snapshots_under_faults() {
        let (report, inv) = run_checked(&ChaosConfig {
            seed: 11,
            hosts: 5,
            ops: 800,
            fault_percent: 30,
            durable_percent: 30,
            durable_get_percent: 50,
            check_invariants: true,
            ..ChaosConfig::default()
        })
        .unwrap();
        let inv = inv.expect("invariant checking was requested");
        assert_eq!(inv.violations(), 0, "{inv:?}");
        assert_eq!(report.stalled + report.other_errors, 0, "{report:?}");
        assert!(report.confirmations > 0, "{report:?}");
        assert!(report.durable_recoveries > 0, "{report:?}");
    }

    #[test]
    fn invariants_hold_over_the_trace() {
        let (report, inv) = run_checked(&ChaosConfig {
            check_invariants: true,
            ..small()
        })
        .unwrap();
        let inv = inv.expect("invariant checking was requested");
        assert_eq!(inv.violations(), 0, "{inv:?}");
        assert!(inv.execs > 0, "{inv:?}");
        assert!(inv.rsp_accepts > 0, "{inv:?}");
        assert!(report.ok > 0);
    }

    #[test]
    fn same_seed_replays_identically() {
        let a = run(&small()).unwrap();
        let b = run(&small()).unwrap();
        assert_eq!(a, b, "chaos runs must be deterministic per seed");
    }

    #[test]
    fn tracing_does_not_change_behaviour() {
        // The invariant-checked run must replay the exact same digest as
        // the untraced run: observation must not perturb the system.
        let base = run(&small()).unwrap();
        let (traced, _) = run_checked(&ChaosConfig {
            check_invariants: true,
            ..small()
        })
        .unwrap();
        assert_eq!(base.digest, traced.digest);
    }

    #[test]
    fn different_seeds_diverge() {
        let a = run(&small()).unwrap();
        let b = run(&ChaosConfig {
            seed: 10,
            ..small()
        })
        .unwrap();
        assert_ne!(a.digest, b.digest);
    }
}
