//! Integration tests for the durability policy: replicated objects
//! checkpoint to a fixed backup home and survive their host's crash as a
//! fresh incarnation restored at the backup — observable on pinned stubs
//! only as a typed `StaleIdentity` followed by a (possibly automatic)
//! rebind.

use mage_core::attribute::{Cle, Rev};
use mage_core::object::{args_as, result_from};
use mage_core::workload_support::{methods, test_object_class};
use mage_core::{
    ClassDef, Durability, MageError, MobileEnv, MobileObject, ObjectHandle, ObjectSpec, Runtime,
};
use mage_rmi::{Config as RmiConfig, Fault};
use mage_sim::{LinkSpec, SimDuration, TraceEvent};
use serde::{Deserialize, Serialize};

/// A traced world: some tests count the frames sent to a dead host.
fn world(nodes: &[&str]) -> Runtime {
    let mut rt = Runtime::builder()
        .fast()
        .nodes(nodes.iter().copied())
        .class(test_object_class())
        .trace(true)
        .build();
    rt.deploy_class("TestObject", nodes[0]).unwrap();
    rt
}

fn replicated_counter(backup: &str) -> ObjectSpec {
    ObjectSpec::new("counter")
        .class("TestObject")
        .durability(Durability::Replicated { backups: 1 })
        .backup(backup)
}

#[test]
fn crash_restores_state_at_backup_and_rebinds_pinned_handle() {
    let mut rt = world(&["a", "b", "c"]);
    let a = rt.session("a").unwrap();
    let mut handle = a.create(replicated_counter("b")).unwrap();
    // Mutate through the creator: value 1, 2, 3 — each checkpointed to b.
    for want in 1..=3 {
        assert_eq!(a.call_handle(&mut handle, methods::INC, &()).unwrap(), want);
    }
    // A second client binds its own pinned handle before the crash.
    let c = rt.session("c").unwrap();
    let stub = c
        .bind(&mage_core::attribute::Cle::new("TestObject", "counter"))
        .unwrap();
    let mut theirs =
        mage_core::ObjectHandle::new(stub, Durability::Replicated { backups: 1 }, true);
    assert_eq!(c.call_handle(&mut theirs, methods::INC, &()).unwrap(), 4);
    let before = theirs.incarnation();

    rt.crash("a").unwrap();

    // The engine consults the backup, restores at b (fresh incarnation),
    // and call_handle turns the StaleIdentity into an auto-rebind: the
    // counter continues from its checkpointed state.
    assert_eq!(c.call_handle(&mut theirs, methods::INC, &()).unwrap(), 5);
    assert_ne!(theirs.incarnation(), before, "restore re-mints identity");
    assert_eq!(rt.node_name(theirs.location()), Some("b"));
    let world = rt.world();
    assert!(world.metrics().counter("snapshot_restores") >= 1);
    assert!(world.metrics().counter("snapshots_stored") >= 4);
    assert!(world.metrics().counter("auto_rebinds") >= 1);
}

#[test]
fn unpinned_handle_recovers_transparently() {
    let mut rt = world(&["a", "b", "c"]);
    let a = rt.session("a").unwrap();
    let mut handle = a.create(replicated_counter("b").pinned(false)).unwrap();
    assert_eq!(a.call_handle(&mut handle, methods::INC, &()).unwrap(), 1);

    // The client driving the recovery must survive the crash.
    let c = rt.session("c").unwrap();
    let stub = handle.stub().clone();
    let mut theirs = mage_core::ObjectHandle::new(stub, handle.durability(), false);
    rt.crash("a").unwrap();

    // Unpinned identity is advisory: the engine re-resolves against the
    // restored incarnation in place — no StaleIdentity ever surfaces, no
    // explicit rebind happens.
    let rebinds_before = rt.world().metrics().counter("auto_rebinds");
    assert_eq!(c.call_handle(&mut theirs, methods::INC, &()).unwrap(), 2);
    assert_eq!(rt.world().metrics().counter("auto_rebinds"), rebinds_before);
    assert_eq!(rt.node_name(theirs.location()), Some("b"));
}

#[test]
fn backup_home_crash_means_typed_not_found() {
    let mut rt = world(&["a", "b", "c"]);
    let a = rt.session("a").unwrap();
    let mut handle = a.create(replicated_counter("b")).unwrap();
    assert_eq!(a.call_handle(&mut handle, methods::INC, &()).unwrap(), 1);

    let c = rt.session("c").unwrap();
    let stub = c
        .bind(&mage_core::attribute::Cle::new("TestObject", "counter"))
        .unwrap();
    let mut theirs =
        mage_core::ObjectHandle::new(stub, Durability::Replicated { backups: 1 }, true);

    // Both the primary and the backup home die: no restore is possible.
    // While the primary's host is still dark, the outcome is typed
    // (Unreachable — it could be a partition); once it restarts empty,
    // the find dead-ends cleanly and the loss surfaces as NotFound.
    rt.crash("b").unwrap();
    rt.crash("a").unwrap();
    let err = c.call_handle(&mut theirs, methods::INC, &()).unwrap_err();
    assert!(
        matches!(err, MageError::Unreachable { .. } | MageError::NotFound(_)),
        "expected a typed crash outcome, got {err:?}"
    );
    rt.restart("a").unwrap();
    let err = c.call_handle(&mut theirs, methods::INC, &()).unwrap_err();
    assert!(
        matches!(err, MageError::NotFound(_)),
        "expected NotFound, got {err:?}"
    );
    assert_eq!(rt.world().metrics().counter("snapshot_restores"), 0);
}

#[test]
fn volatile_objects_still_die_with_their_host() {
    let mut rt = world(&["a", "b", "c"]);
    let a = rt.session("a").unwrap();
    let handle = a
        .create(ObjectSpec::new("counter").class("TestObject"))
        .unwrap();
    let c = rt.session("c").unwrap();
    let stub = handle.stub().clone();
    rt.crash("a").unwrap();
    let err = c.call_raw(&stub, "inc", Vec::new()).unwrap_err();
    assert!(
        matches!(err, MageError::NotFound(_) | MageError::Unreachable { .. }),
        "volatile object must not be restored: {err:?}"
    );
    assert_eq!(rt.world().metrics().counter("snapshot_restores"), 0);
}

// ---- one retry budget per dead peer ----

/// Frames addressed to `node` so far, delivered or not.
fn sends_to(rt: &Runtime, node: &str) -> usize {
    let id = rt.node_id(node).unwrap();
    rt.world()
        .trace()
        .events()
        .iter()
        .filter(|event| matches!(event, TraceEvent::Send { to, .. } if *to == id))
        .count()
}

/// One call's retry budget: the first send plus every retransmission,
/// and the virtual time they take to run out.
fn one_budget() -> (usize, SimDuration) {
    let rmi = RmiConfig::zero_cost();
    let attempts = u64::from(rmi.max_retries) + 1;
    (attempts as usize, rmi.call_timeout.saturating_mul(attempts))
}

/// `a` hosts (and is home to) a replicated counter backed up at `b`; a
/// client at `c` calls it after `a` crashes. The invocation spends one
/// budget on `a`, which proves `a` dead for the rest of the op, so the
/// re-find fails fast at the dead home and the backup is consulted at
/// once — no further budget goes to `a`.
fn recovery_costs_one_budget(pinned: bool) {
    let (attempts, budget) = one_budget();
    let mut rt = world(&["a", "b", "c"]);
    let a = rt.session("a").unwrap();
    let mut handle = a.create(replicated_counter("b").pinned(pinned)).unwrap();
    assert_eq!(a.call_handle(&mut handle, methods::INC, &()).unwrap(), 1);
    let c = rt.session("c").unwrap();
    let mut theirs = ObjectHandle::new(handle.stub().clone(), handle.durability(), pinned);
    rt.run_until_idle().unwrap();

    rt.crash("a").unwrap();
    let (sent, start) = (sends_to(&rt, "a"), rt.now());
    assert_eq!(c.call_handle(&mut theirs, methods::INC, &()).unwrap(), 2);
    let took = rt.now() - start;

    assert_eq!(
        sends_to(&rt, "a") - sent,
        attempts,
        "one budget to the dead host"
    );
    assert_eq!(rt.node_name(theirs.location()), Some("b"));
    assert!(counter(&rt, "dead_peer_skips") >= 1);
    // On this zero-latency, zero-cost world the restore and the retried
    // invocation take no virtual time: the whole recovery is one budget.
    assert_eq!(took, budget, "recovery took {took}, one budget is {budget}");
}

#[test]
fn pinned_recovery_sends_one_budget_to_the_dead_primary() {
    recovery_costs_one_budget(true);
}

#[test]
fn unpinned_recovery_sends_one_budget_to_the_dead_primary() {
    recovery_costs_one_budget(false);
}

#[test]
fn volatile_object_surfaces_unreachable_after_one_budget() {
    let (attempts, budget) = one_budget();
    let mut rt = world(&["a", "b", "c"]);
    let a = rt.session("a").unwrap();
    let handle = a
        .create(ObjectSpec::new("counter").class("TestObject"))
        .unwrap();
    let c = rt.session("c").unwrap();
    let stub = handle.stub().clone();
    rt.run_until_idle().unwrap();

    rt.crash("a").unwrap();
    let (sent, start) = (sends_to(&rt, "a"), rt.now());
    let err = c.call_raw(&stub, "inc", Vec::new()).unwrap_err();
    let took = rt.now() - start;

    let host = rt.node_id("a").unwrap().as_raw();
    assert_eq!(err, MageError::Unreachable { peer: host });
    assert_eq!(sends_to(&rt, "a") - sent, attempts, "one budget, not four");
    assert_eq!(took, budget);
}

/// The asynchronous-checkpoint loss window, pinned: a write whose success
/// reply reached the client is lost when the primary crashes before the
/// backup has its snapshot. The restore serves the older value.
#[test]
fn write_acknowledged_before_its_checkpoint_lands_is_lost_on_crash() {
    let mut rt = world(&["a", "b", "c"]);
    let a = rt.session("a").unwrap();
    a.create(replicated_counter("b")).unwrap();
    let c = rt.session("c").unwrap();
    let mut handle = ObjectHandle::new(
        c.bind(&Cle::new("TestObject", "counter")).unwrap(),
        Durability::Replicated { backups: 1 },
        false,
    );
    assert_eq!(c.call_handle(&mut handle, methods::INC, &()).unwrap(), 1);
    rt.run_until_idle().unwrap();
    let stored = counter(&rt, "snapshots_stored");

    // 1. Slow the primary→backup link.
    let (ida, idb) = (rt.node_id("a").unwrap(), rt.node_id("b").unwrap());
    rt.world_mut().set_link_bidi(
        ida,
        idb,
        LinkSpec::ideal().with_latency(SimDuration::from_millis(50)),
    );

    // 2. The second write's success reply reaches the client while the
    // snapshot of value 2 is still on the slow link.
    let sent = checkpoint_sends(&rt).len();
    let write = c.call_async(handle.stub(), methods::INC, &()).unwrap();
    while !write.is_done() {
        assert!(rt.step());
    }
    assert_eq!(write.wait().unwrap(), 2);
    assert_eq!(checkpoint_sends(&rt).len(), sent + 1, "snapshot shipped");
    assert_eq!(
        counter(&rt, "snapshots_stored"),
        stored,
        "but not yet stored"
    );

    // 3. The primary crashes before the backup acks; the snapshot in
    // flight dies with its sender.
    rt.crash("a").unwrap();

    // 4. The restore serves the last acknowledged snapshot: value 1.
    assert_eq!(c.call_handle(&mut handle, methods::GET, &()).unwrap(), 1);
    assert_eq!(rt.node_name(handle.location()), Some("b"));
    assert_eq!(counter(&rt, "snapshot_restores"), 1);
}

#[test]
fn restored_object_keeps_checkpointing_and_can_move_again() {
    let mut rt = world(&["a", "b", "c"]);
    let a = rt.session("a").unwrap();
    a.create(replicated_counter("b")).unwrap();
    let c = rt.session("c").unwrap();
    let stub = c
        .bind(&mage_core::attribute::Cle::new("TestObject", "counter"))
        .unwrap();
    let mut handle =
        mage_core::ObjectHandle::new(stub, Durability::Replicated { backups: 1 }, true);
    assert_eq!(c.call_handle(&mut handle, methods::INC, &()).unwrap(), 1);

    rt.crash("a").unwrap();
    assert_eq!(c.call_handle(&mut handle, methods::INC, &()).unwrap(), 2);
    assert_eq!(rt.node_name(handle.location()), Some("b"));

    // Move the restored object off its backup home; checkpoints resume
    // over the wire to the fixed backup (b), so a crash of the new host
    // restores again.
    let rev = Rev::new("TestObject", "counter", "c");
    let moved = c.bind(&rev).unwrap();
    assert_eq!(rt.node_name(moved.location()), Some("c"));
    assert_eq!(c.call(&moved, methods::INC, &()).unwrap(), 3);

    rt.crash("c").unwrap();
    // Drive from a session whose namespace is still up, through a stub
    // that last saw the object at the (now dead) node c: the engine walks
    // invoke → unreachable → re-find → dead end → restore at b.
    let b = rt.session("b").unwrap();
    let mut handle_b =
        mage_core::ObjectHandle::new(moved.clone(), Durability::Replicated { backups: 1 }, true);
    assert_eq!(b.call_handle(&mut handle_b, methods::INC, &()).unwrap(), 4);
    assert_eq!(rt.node_name(handle_b.location()), Some("b"));
    assert!(rt.world().metrics().counter("snapshot_restores") >= 2);
}

#[test]
fn snapshot_epochs_are_monotone_under_concurrent_moves() {
    let mut rt = Runtime::builder()
        .fast()
        .nodes(["a", "b", "c", "d"])
        .class(test_object_class())
        .trace(true)
        .build();
    rt.deploy_class("TestObject", "a").unwrap();
    let a = rt.session("a").unwrap();
    let mut handle = a.create(replicated_counter("b")).unwrap();

    // Interleave mutating calls with concurrent move attempts (both
    // sessions race REV binds to different targets while INCs pipeline).
    let c = rt.session("c").unwrap();
    for round in 0..4 {
        let to_c = c
            .bind_async(&Rev::new("TestObject", "counter", "c"))
            .unwrap();
        let to_d = a
            .bind_async(&Rev::new("TestObject", "counter", "d"))
            .unwrap();
        rt.run_until_idle().unwrap();
        let _ = (to_c.wait(), to_d.wait());
        let n = a.call_handle(&mut handle, methods::INC, &()).unwrap();
        assert_eq!(n, round + 1);
    }

    // Replay the trace: the epochs accepted at each backup node must be
    // strictly increasing per object name.
    let world = rt.world();
    let mut last: std::collections::BTreeMap<(usize, u64), (u64, u64)> = Default::default();
    let mut accepts = 0;
    for event in world.trace().events() {
        let TraceEvent::Note { node, text, .. } = event else {
            continue;
        };
        if let Some(rest) = text.strip_prefix("invariant:ckpt:") {
            let mut it = rest.split(':').filter_map(|f| f.parse::<u64>().ok());
            let (Some(name), Some(inc), Some(epoch)) = (it.next(), it.next(), it.next()) else {
                continue;
            };
            accepts += 1;
            let key = (node.index(), name);
            if let Some(prev) = last.get(&key) {
                assert!(
                    (inc, epoch) > *prev,
                    "backup accepted non-monotone snapshot (i{inc}, e{epoch}) after {prev:?}"
                );
            }
            last.insert(key, (inc, epoch));
        }
    }
    assert!(accepts >= 5, "moves and calls must generate checkpoints");
}

#[test]
fn recreated_lineage_supersedes_the_dead_predecessors_snapshots() {
    let mut rt = world(&["a", "b", "c"]);
    let a = rt.session("a").unwrap();
    let mut old = a.create(replicated_counter("b")).unwrap();
    // The predecessor runs its value (and snapshot epochs) up at b.
    for want in 1..=3 {
        assert_eq!(a.call_handle(&mut old, methods::INC, &()).unwrap(), want);
    }

    // Total loss of the predecessor, then a re-creation under the same
    // name and backup home: its early checkpoints (epoch 1, 2, …) must
    // supersede the dead lineage's higher epochs at b, not be refused
    // against them.
    rt.crash("a").unwrap();
    rt.restart("a").unwrap();
    rt.deploy_class("TestObject", "a").unwrap();
    let a = rt.session("a").unwrap();
    let mut fresh = a.create(replicated_counter("b")).unwrap();
    assert_eq!(a.call_handle(&mut fresh, methods::INC, &()).unwrap(), 1);

    // The new lineage's host dies too: the restore must serve the *new*
    // object's state (counter 1), never resurrect the predecessor's 3.
    let c = rt.session("c").unwrap();
    let mut theirs = mage_core::ObjectHandle::new(
        fresh.stub().clone(),
        Durability::Replicated { backups: 1 },
        true,
    );
    rt.crash("a").unwrap();
    assert_eq!(
        c.call_handle(&mut theirs, methods::INC, &()).unwrap(),
        2,
        "restore must serve the newest lineage, not the dead predecessor"
    );
    assert_eq!(rt.node_name(theirs.location()), Some("b"));
}

#[test]
fn replication_needs_two_namespaces() {
    let rt = world(&["solo"]);
    let s = rt.session("solo").unwrap();
    let err = s
        .create(
            ObjectSpec::new("x")
                .class("TestObject")
                .durability(Durability::Replicated { backups: 1 }),
        )
        .unwrap_err();
    assert!(matches!(err, MageError::BadPlan(_)));
}

#[test]
fn spec_can_place_birth_through_a_mobility_attribute() {
    let rt = world(&["lab", "sensor1", "sensor2"]);
    let lab = rt.session("lab").unwrap();
    let handle = lab
        .create(
            ObjectSpec::new("probe")
                .mobility(Rev::new("TestObject", "probe", "sensor1"))
                .durability(Durability::Replicated { backups: 1 })
                .backup("lab"),
        )
        .unwrap();
    assert_eq!(rt.node_name(handle.location()), Some("sensor1"));
    // The class rode the instantiate ladder to sensor1 and the creation
    // checkpoint landed at the lab.
    assert!(rt.world().metrics().counter("snapshots_stored") >= 1);
}

// ---- checkpoint by reference ----

/// A counter carrying 1 KiB of state, so a full snapshot is big next to a
/// confirmation that names it.
#[derive(Debug, Default, Serialize, Deserialize)]
struct Padded {
    value: i64,
    payload: Vec<u8>,
}

impl MobileObject for Padded {
    fn class_name(&self) -> &str {
        "Padded"
    }

    fn snapshot(&self) -> Result<Vec<u8>, Fault> {
        result_from(self)
    }

    fn invoke(
        &mut self,
        method: &str,
        _args: &[u8],
        _env: &mut MobileEnv<'_>,
    ) -> Result<Vec<u8>, Fault> {
        match method {
            "inc" => {
                self.value += 1;
                result_from(&self.value)
            }
            "get" => result_from(&self.value),
            other => Err(Fault::NoSuchMethod {
                object: "padded".into(),
                method: other.into(),
            }),
        }
    }
}

fn padded_class() -> ClassDef {
    ClassDef::new("Padded", 2_048, |state| {
        let obj: Padded = if state.is_empty() {
            Padded::default()
        } else {
            args_as(state)?
        };
        Ok(Box::new(obj))
    })
}

/// A traced world of `a`, `b`, `c` holding a replicated `Padded` counter
/// hosted at `a` and backed up at `b`; `rmi` sets the retry budget.
fn padded_world(rmi: RmiConfig) -> Runtime {
    let mut rt = Runtime::builder()
        .fast()
        .rmi_config(rmi)
        .nodes(["a", "b", "c"])
        .class(padded_class())
        .trace(true)
        .build();
    rt.deploy_class("Padded", "a").unwrap();
    let padded = Padded {
        value: 0,
        payload: (0..1024).map(|i| (i * 31 % 251) as u8).collect(),
    };
    rt.session("a")
        .unwrap()
        .create(
            ObjectSpec::new("counter")
                .class("Padded")
                .state(&padded)
                .durability(Durability::Replicated { backups: 1 })
                .backup("b"),
        )
        .unwrap();
    rt
}

/// Payload bytes of every `checkpoint` call sent so far, in order.
fn checkpoint_sends(rt: &Runtime) -> Vec<u64> {
    rt.world()
        .trace()
        .events()
        .iter()
        .filter_map(|event| match event {
            TraceEvent::Send { label, bytes, .. } if label == "call:mage.checkpoint" => {
                Some(*bytes)
            }
            _ => None,
        })
        .collect()
}

fn counter(rt: &Runtime, name: &str) -> u64 {
    rt.world().metrics().counter(name)
}

/// Crashes `a` and increments through a pinned handle from `c`: the
/// restore at `b` must continue from `value`.
fn assert_restore_continues_from(rt: &mut Runtime, value: i64) {
    let c = rt.session("c").unwrap();
    let stub = c.bind(&Cle::new("Padded", "counter")).unwrap();
    let mut handle = ObjectHandle::new(stub, Durability::Replicated { backups: 1 }, true);
    rt.crash("a").unwrap();
    assert_eq!(
        c.call_handle(&mut handle, methods::INC, &()).unwrap(),
        value + 1
    );
    assert_eq!(rt.node_name(handle.location()), Some("b"));
}

#[test]
fn repeated_reads_confirm_the_snapshot_instead_of_reshipping_it() {
    let mut rt = padded_world(RmiConfig::zero_cost());
    let a = rt.session("a").unwrap();
    let stub = a.bind(&Cle::new("Padded", "counter")).unwrap();
    assert_eq!(a.call(&stub, methods::INC, &()).unwrap(), 1);
    rt.run_until_idle().unwrap();
    let full = *checkpoint_sends(&rt).last().unwrap();
    let stored = counter(&rt, "snapshots_stored");
    let before = checkpoint_sends(&rt).len();

    for _ in 0..10 {
        assert_eq!(a.call(&stub, methods::GET, &()).unwrap(), 1);
    }
    rt.run_until_idle().unwrap();

    // Every read still checkpoints, but by naming the acknowledged
    // snapshot: nothing new is stored, and ten confirmations together
    // weigh less than one full snapshot.
    let confirms = &checkpoint_sends(&rt)[before..];
    assert_eq!(confirms.len(), 10);
    assert_eq!(counter(&rt, "checkpoint_confirms"), 10);
    assert_eq!(counter(&rt, "checkpoint_confirms_refused"), 0);
    assert_eq!(counter(&rt, "snapshots_stored"), stored);
    assert!(full > 1024, "a full snapshot carries the state: {full} B");
    assert!(
        confirms.iter().sum::<u64>() < full,
        "ten confirmations {confirms:?} must weigh less than one {full} B snapshot"
    );
    assert_restore_continues_from(&mut rt, 1);
}

#[test]
fn restarted_backup_refuses_the_confirmation_and_is_reseeded() {
    let mut rt = padded_world(RmiConfig::zero_cost());
    let a = rt.session("a").unwrap();
    let stub = a.bind(&Cle::new("Padded", "counter")).unwrap();
    assert_eq!(a.call(&stub, methods::INC, &()).unwrap(), 1);
    rt.run_until_idle().unwrap();
    let stored = counter(&rt, "snapshots_stored");

    // The backup loses its acknowledged copy.
    rt.crash("b").unwrap();
    rt.restart("b").unwrap();

    assert_eq!(a.call(&stub, methods::GET, &()).unwrap(), 1);
    rt.run_until_idle().unwrap();
    assert_eq!(counter(&rt, "checkpoint_confirms"), 1);
    assert_eq!(counter(&rt, "checkpoint_confirms_refused"), 1);
    assert_eq!(
        counter(&rt, "snapshots_stored"),
        stored + 1,
        "the refused confirmation must re-seed the backup in full"
    );
    assert_restore_continues_from(&mut rt, 1);
}

#[test]
fn read_coalesced_onto_a_lost_snapshot_reships_it() {
    // One retransmission: the snapshot's call is attempted twice.
    let rmi = RmiConfig {
        max_retries: 1,
        ..RmiConfig::zero_cost()
    };
    let mut rt = padded_world(rmi);
    let a = rt.session("a").unwrap();
    let stub = a.bind(&Cle::new("Padded", "counter")).unwrap();
    rt.run_until_idle().unwrap();
    let stored = counter(&rt, "snapshots_stored");

    // The INC ships value 1 into a cut link; the pipelined GET finds the
    // same bytes still unacknowledged and sends nothing.
    rt.partition_between("a", "b").unwrap();
    let sent = checkpoint_sends(&rt).len();
    let inc = a.call_async(&stub, methods::INC, &()).unwrap();
    let get = a.call_async(&stub, methods::GET, &()).unwrap();
    while !(inc.is_done() && get.is_done()) {
        assert!(rt.step());
    }
    assert_eq!(inc.wait().unwrap(), 1);
    assert_eq!(get.wait().unwrap(), 1);
    assert_eq!(checkpoint_sends(&rt).len(), sent + 1);
    assert_eq!(counter(&rt, "checkpoint_confirms"), 0);

    // Both attempts die on the cut; heal before the call gives up.
    while checkpoint_sends(&rt).len() < sent + 2 {
        assert!(rt.step());
    }
    rt.heal_between("a", "b").unwrap();
    rt.run_until_idle().unwrap();

    // The lost shipment had a read coalesced onto it, so the primary
    // shipped the state again in full, and that copy was stored.
    let resent = &checkpoint_sends(&rt)[sent..];
    assert_eq!(resent.len(), 3, "{resent:?}");
    assert!(resent.iter().all(|&bytes| bytes > 1024), "{resent:?}");
    assert_eq!(counter(&rt, "snapshots_stored"), stored + 1);
    assert_restore_continues_from(&mut rt, 1);
}

#[test]
fn backup_refuses_a_confirmation_of_a_snapshot_it_no_longer_holds() {
    let mut rt = padded_world(RmiConfig::zero_cost());
    let a = rt.session("a").unwrap();
    let stub = a.bind(&Cle::new("Padded", "counter")).unwrap();
    assert_eq!(a.call(&stub, methods::INC, &()).unwrap(), 1);
    let c = rt.session("c").unwrap();
    let mut theirs = ObjectHandle::new(
        c.bind(&Cle::new("Padded", "counter")).unwrap(),
        Durability::Replicated { backups: 1 },
        true,
    );
    rt.run_until_idle().unwrap();

    // Cut off from a, c restores the counter at b under a younger
    // incarnation and writes to it there.
    rt.partition_between("a", "c").unwrap();
    assert_eq!(c.call_handle(&mut theirs, methods::INC, &()).unwrap(), 2);
    assert_eq!(rt.node_name(theirs.location()), Some("b"));
    rt.run_until_idle().unwrap();
    let stored = counter(&rt, "snapshots_stored");

    // The forked old primary still reads its own copy; b holds the same
    // name, but not the snapshot a names, so it must refuse. a's full
    // re-ship is then refused as stale.
    assert_eq!(a.call(&stub, methods::GET, &()).unwrap(), 1);
    rt.run_until_idle().unwrap();
    assert_eq!(counter(&rt, "checkpoint_confirms"), 1);
    assert_eq!(counter(&rt, "checkpoint_confirms_refused"), 1);
    assert_eq!(counter(&rt, "snapshots_stored"), stored);
    assert_eq!(c.call_handle(&mut theirs, methods::GET, &()).unwrap(), 2);
}
