//! Crash/restart and partition fault tolerance of the MAGE runtime.
//!
//! Every scenario here asserts the tentpole invariant: operations under
//! partial failure *resolve* — to success or to a typed [`MageError`] —
//! instead of hanging, and the system stays usable afterwards (chains
//! repaired, locks drained, objects re-creatable).

use mage_core::attribute::{Cle, Grev};
use mage_core::workload_support::{methods, test_object_class};
use mage_core::{LockKind, MageError, ObjectSpec, Runtime, Visibility};
use mage_sim::SimDuration;

fn runtime(nodes: &[&str]) -> Runtime {
    let mut rt = Runtime::builder()
        .fast()
        .seed(77)
        .nodes(nodes.iter().copied())
        .class(test_object_class())
        .build();
    rt.deploy_class("TestObject", nodes[0]).unwrap();
    rt
}

/// Regression: a self-pointing/cyclic forwarding chain must terminate in
/// a typed error (never a hang or a panic), repair every stale entry it
/// walked, and leave the system healthy for a re-create.
#[test]
fn cyclic_forwarding_chain_is_repaired_and_reported() {
    let mut rt = runtime(&["h0", "a", "b", "c"]);
    let s0 = rt.session("h0").unwrap();
    s0.create(ObjectSpec::new("obj").class("TestObject"))
        .unwrap();
    // Move the object to `a`, then lose it (crash-stop wipes a's state).
    let sa = rt.session("a").unwrap();
    sa.bind_invoke(&Grev::new("TestObject", "obj", "a"), methods::INC, &())
        .unwrap();
    rt.crash("a").unwrap();
    rt.restart("a").unwrap();
    // Poison the registries into a cycle: a → b → a, object nowhere.
    rt.seed_registry_entry("a", "obj", "b").unwrap();
    rt.seed_registry_entry("b", "obj", "a").unwrap();
    // A find from a bystander must walk h0 → a → b, detect the cycle,
    // retry once from home and surface a typed NotFound.
    let sc = rt.session("c").unwrap();
    let err = sc.find("obj").unwrap_err();
    assert!(
        matches!(err, MageError::NotFound(_)),
        "expected typed NotFound, got {err:?}"
    );
    // The walk must have repaired the poisoned entries: re-creating the
    // object at its home makes it findable again immediately.
    s0.create(ObjectSpec::new("obj").class("TestObject"))
        .unwrap();
    let loc = sc.find("obj").unwrap();
    assert_eq!(loc, rt.node_id("h0").unwrap());
}

/// A call whose target namespace crashed resolves to a typed
/// `Unreachable`; after a restart (and re-deploy, crash-stop lost the
/// class) the system serves again.
#[test]
fn crashed_peer_yields_unreachable_then_restart_recovers() {
    let mut rt = runtime(&["home", "edge"]);
    let home = rt.session("home").unwrap();
    home.create(ObjectSpec::new("obj").class("TestObject"))
        .unwrap();
    rt.crash("home").unwrap();

    let edge = rt.session("edge").unwrap();
    let err = edge.find("obj").unwrap_err();
    assert!(
        matches!(err, MageError::Unreachable { .. }),
        "expected typed Unreachable, got {err:?}"
    );

    rt.restart("home").unwrap();
    // Crash-stop: the class and object died with the old incarnation.
    rt.deploy_class("TestObject", "home").unwrap();
    let home = rt.session("home").unwrap();
    home.create(ObjectSpec::new("obj").class("TestObject"))
        .unwrap();
    let loc = edge.find("obj").unwrap();
    assert_eq!(loc, rt.node_id("home").unwrap());
}

/// Lock queues drain waiters whose lock holder died: once the host
/// observes the holder's new incarnation, the dead incarnation's
/// exclusive lock releases and the queued waiter is granted.
#[test]
fn lock_queue_drains_when_holder_dies() {
    let mut rt = runtime(&["host", "holder", "waiter"]);
    let host = rt.session("host").unwrap();
    host.create(ObjectSpec::new("obj").class("TestObject"))
        .unwrap();

    // The holder takes an exclusive move lock (its target is elsewhere)…
    let holder = rt.session("holder").unwrap();
    let kind = holder.lock("obj", "holder").unwrap();
    assert_eq!(kind, LockKind::Move);

    // …and a waiter queues behind it.
    let waiter = rt.session("waiter").unwrap();
    let pending = waiter.lock_async("obj", "host").unwrap();
    rt.advance(SimDuration::from_millis(1)).unwrap();
    assert!(
        !pending.is_done(),
        "waiter must be queued behind the holder"
    );

    // The holder's node dies and comes back empty; the unlock will never
    // arrive. The host notices the new incarnation on its next message…
    rt.crash("holder").unwrap();
    rt.restart("holder").unwrap();
    let holder2 = rt.session("holder").unwrap();
    let _ = holder2.find("obj").unwrap();

    // …and the drained queue grants the waiter a stay lock.
    let kind = pending.wait().unwrap();
    assert_eq!(kind, LockKind::Stay);
}

/// Regression: the holder's restart can be observed on the host's *send*
/// path first (the host talks to the restarted node before it speaks).
/// The `on_peer_restart` repair — here, draining the dead holder's lock —
/// must still run, at the host's next dispatch, even though the epoch
/// was already recorded when the send happened.
#[test]
fn lock_queue_drains_when_host_only_sends_to_restarted_holder() {
    let mut rt = runtime(&["host", "holder", "waiter"]);
    let host = rt.session("host").unwrap();
    host.create(ObjectSpec::new("obj").class("TestObject"))
        .unwrap();

    let holder = rt.session("holder").unwrap();
    assert_eq!(holder.lock("obj", "holder").unwrap(), LockKind::Move);
    let waiter = rt.session("waiter").unwrap();
    let pending = waiter.lock_async("obj", "host").unwrap();
    rt.advance(SimDuration::from_millis(1)).unwrap();
    assert!(
        !pending.is_done(),
        "waiter must be queued behind the holder"
    );

    rt.crash("holder").unwrap();
    rt.restart("holder").unwrap();
    // The restarted holder stays silent. Instead, the host *sends* to it:
    // a seeded registry entry makes the host forward a find there. The
    // epoch bump is detected on that send; the reply coming back triggers
    // the deferred on_peer_restart, which drains the dead lock.
    rt.seed_registry_entry("host", "ghost", "holder").unwrap();
    let err = host.find("ghost").unwrap_err();
    assert!(matches!(err, MageError::NotFound(_)), "got {err:?}");

    let kind = pending.wait().unwrap();
    assert_eq!(kind, LockKind::Stay);
}

/// A call across an active partition exhausts its retries and yields a
/// typed `Unreachable` (no hang); healing the partition lets a fresh
/// call succeed.
#[test]
fn partitioned_call_fails_typed_and_heals() {
    let mut rt = runtime(&["home", "far"]);
    let home = rt.session("home").unwrap();
    home.create(ObjectSpec::new("obj").class("TestObject"))
        .unwrap();

    rt.partition_between("home", "far").unwrap();
    let far = rt.session("far").unwrap();
    let err = far.find("obj").unwrap_err();
    assert!(
        matches!(err, MageError::Unreachable { .. }),
        "expected typed Unreachable, got {err:?}"
    );

    rt.heal_between("home", "far").unwrap();
    let loc = far.find("obj").unwrap();
    assert_eq!(loc, rt.node_id("home").unwrap());
}

/// Guard for the dead-peer rule: only a call its peer answers on receipt
/// proves the peer dead. A client's stub names a host that has crashed:
/// its invocation spends one budget there, then the engine re-finds from
/// the live home, whose registry still forwards to the crashed host. The
/// home holds that find while its own call to the dead host runs out, so
/// the client's budget expires first and reports the home unreachable.
/// The home is alive, so the op must not fail fast with
/// `Unreachable { home }`: its retried find reaches the repaired home and
/// ends `NotFound`.
#[test]
fn find_held_by_a_live_hop_does_not_fail_fast() {
    let mut rt = runtime(&["h0", "x", "c"]);
    let s0 = rt.session("h0").unwrap();
    s0.create(ObjectSpec::new("obj").class("TestObject"))
        .unwrap();
    let sx = rt.session("x").unwrap();
    sx.bind_invoke(&Grev::new("TestObject", "obj", "x"), methods::INC, &())
        .unwrap();
    let sc = rt.session("c").unwrap();
    let stub = sc.bind(&Cle::new("TestObject", "obj")).unwrap();
    assert_eq!(stub.location(), rt.node_id("x").unwrap());
    rt.crash("x").unwrap();

    let err = sc.call(&stub, methods::INC, &()).unwrap_err();
    assert!(
        matches!(err, MageError::NotFound(_)),
        "a live hop holding a find must not be marked dead, got {err:?}"
    );
}

/// A peer is dead only for the op that saw it exhaust a budget: once
/// the partition heals, the next call through the same stub reaches it.
#[test]
fn dead_peer_mark_ends_with_its_op() {
    let mut rt = runtime(&["home", "far"]);
    let home = rt.session("home").unwrap();
    home.create(ObjectSpec::new("obj").class("TestObject"))
        .unwrap();
    let far = rt.session("far").unwrap();
    let stub = far.bind(&Cle::new("TestObject", "obj")).unwrap();

    rt.partition_between("home", "far").unwrap();
    let err = far.call(&stub, methods::INC, &()).unwrap_err();
    let peer = rt.node_id("home").unwrap().as_raw();
    assert_eq!(err, MageError::Unreachable { peer });

    rt.heal_between("home", "far").unwrap();
    assert_eq!(far.call(&stub, methods::INC, &()).unwrap(), 1);
}

/// A migration whose target crashed aborts cleanly: the bind resolves to
/// a typed error, the object re-homes at the source and stays usable.
#[test]
fn migration_to_crashed_target_aborts_and_rehomes() {
    let mut rt = runtime(&["home", "dead"]);
    let home = rt.session("home").unwrap();
    home.create(ObjectSpec::new("obj").class("TestObject"))
        .unwrap();
    rt.crash("dead").unwrap();

    let err = home
        .bind_invoke(&Grev::new("TestObject", "obj", "dead"), methods::INC, &())
        .unwrap_err();
    assert!(
        matches!(err, MageError::Unreachable { .. }),
        "expected typed Unreachable, got {err:?}"
    );

    // The aborted move left the object in service at the source.
    let (_stub, count) = home
        .bind_invoke(&Cle::new("TestObject", "obj"), methods::INC, &())
        .unwrap();
    assert_eq!(count, Some(1), "object must still be usable at its home");
}

/// The stale-identity tentpole: an object dies with its host and is
/// re-created under the same name elsewhere. A stub bound to the dead
/// incarnation must *not* silently reach the impostor — its invocation
/// resolves to a typed `StaleIdentity` carrying the fresh incarnation,
/// and an explicit [`Session::rebind`] recovers.
#[test]
fn stale_stub_is_refused_and_explicit_rebind_recovers() {
    let mut rt = runtime(&["h0", "a", "c"]);
    let s0 = rt.session("h0").unwrap();
    s0.create(ObjectSpec::new("obj").class("TestObject"))
        .unwrap();
    // Host the object at `a`, and bind a stub from bystander `c`.
    let sa = rt.session("a").unwrap();
    sa.bind_invoke(&Grev::new("TestObject", "obj", "a"), methods::INC, &())
        .unwrap();
    let sc = rt.session("c").unwrap();
    let stub = sc.bind(&Cle::new("TestObject", "obj")).unwrap();
    let first = stub.incarnation();
    assert_ne!(first, 0, "binds must learn a real incarnation");
    assert_eq!(sc.call(&stub, methods::INC, &()).unwrap(), 2);

    // The object dies with `a`; the driver re-creates it at `h0`.
    rt.crash("a").unwrap();
    rt.restart("a").unwrap();
    s0.create(ObjectSpec::new("obj").class("TestObject"))
        .unwrap();

    // The stale stub's call finds its way to the re-created object — and
    // is refused with the fresh incarnation attached, never silently run.
    let err = sc.call(&stub, methods::INC, &()).unwrap_err();
    let MageError::StaleIdentity {
        object,
        expected,
        fresh,
    } = err
    else {
        panic!("expected typed StaleIdentity, got {err:?}");
    };
    assert_eq!(object, "obj");
    assert_eq!(expected, first);
    assert!(fresh > first, "re-creation mints a later incarnation");

    // Explicit rebind: acknowledge the new identity and proceed.
    let fresh_stub = sc.rebind(&stub).unwrap();
    assert_eq!(fresh_stub.incarnation(), fresh);
    // Fresh instance: crash-stop lost the old count, INC restarts at 1.
    assert_eq!(sc.call(&fresh_stub, methods::INC, &()).unwrap(), 1);
}

/// Identity is pinned by the *stub*, not by the session's location
/// cache: even after the session has found (and cached) the re-created
/// object, an old stub must still be refused with `StaleIdentity` —
/// rebinding is an explicit act, never a cache side effect.
#[test]
fn session_cache_refresh_does_not_silently_rebind_a_stale_stub() {
    let mut rt = runtime(&["h0", "a", "c"]);
    let s0 = rt.session("h0").unwrap();
    s0.create(ObjectSpec::new("obj").class("TestObject"))
        .unwrap();
    let sa = rt.session("a").unwrap();
    sa.bind_invoke(&Grev::new("TestObject", "obj", "a"), methods::INC, &())
        .unwrap();
    let sc = rt.session("c").unwrap();
    let stub = sc.bind(&Cle::new("TestObject", "obj")).unwrap();

    rt.crash("a").unwrap();
    rt.restart("a").unwrap();
    s0.create(ObjectSpec::new("obj").class("TestObject"))
        .unwrap();

    // The session now knows exactly where the replacement lives…
    let loc = sc.find("obj").unwrap();
    assert_eq!(loc, rt.node_id("h0").unwrap());
    // …and the old stub is still refused.
    let err = sc.call(&stub, methods::INC, &()).unwrap_err();
    assert!(
        matches!(err, MageError::StaleIdentity { .. }),
        "expected typed StaleIdentity, got {err:?}"
    );
}

/// A *bind* whose cached identity went stale must recover by itself:
/// identity in a bind plan is advisory (binding is the explicit rebind
/// act), so the engine treats the `StaleIdentity` refusal like stale
/// location knowledge — re-find, learn the fresh incarnation, proceed.
/// Private objects are the sharp case: their cached location is
/// authoritative (§3.5), so no find precedes the first attempt.
#[test]
fn bind_with_stale_cached_identity_refinds_and_recovers() {
    let mut rt = runtime(&["h0", "a", "c"]);
    let s0 = rt.session("h0").unwrap();
    s0.create(
        ObjectSpec::new("obj")
            .class("TestObject")
            .visibility(Visibility::Private),
    )
    .unwrap();
    let sa = rt.session("a").unwrap();
    sa.bind_invoke(&Grev::new("TestObject", "obj", "a"), methods::INC, &())
        .unwrap();
    // `c` binds once: its cache now holds (a, first incarnation).
    let sc = rt.session("c").unwrap();
    sc.bind_invoke(&Cle::new("TestObject", "obj"), methods::INC, &())
        .unwrap();

    // The object dies with `a` and is re-created there (same location,
    // new incarnation) — the sharpest staleness: c's cached *node* is
    // right, only its cached *identity* is dead.
    rt.crash("a").unwrap();
    rt.restart("a").unwrap();
    rt.deploy_class("TestObject", "a").unwrap();
    let sa = rt.session("a").unwrap();
    sa.create(
        ObjectSpec::new("obj")
            .class("TestObject")
            .visibility(Visibility::Private),
    )
    .unwrap();

    // A fresh bind from `c` must not wedge on StaleIdentity forever: the
    // advisory-identity retry re-finds and reaches the new object.
    let (stub, count) = sc
        .bind_invoke(&Cle::new("TestObject", "obj"), methods::INC, &())
        .unwrap();
    assert_eq!(count, Some(1), "fresh instance serves the re-bound call");
    assert_ne!(stub.incarnation(), 0);
}

/// Partition-heal coexistence: the original survives on the far side of
/// a partition while a same-name copy is re-created on the near side.
/// After the heal both are reachable — and incarnations keep them apart:
/// the old stub still reaches exactly the original, a fresh bind on the
/// near side reaches exactly the copy, and neither is confused for the
/// other.
#[test]
fn partition_heal_coexistence_is_disambiguated_by_incarnation() {
    let mut rt = runtime(&["h0", "far", "c"]);
    let s0 = rt.session("h0").unwrap();
    s0.create(ObjectSpec::new("obj").class("TestObject"))
        .unwrap();
    // Move the original to `far`; pin a stub to it from `c`.
    let sfar = rt.session("far").unwrap();
    sfar.bind_invoke(&Grev::new("TestObject", "obj", "far"), methods::INC, &())
        .unwrap();
    let sc = rt.session("c").unwrap();
    let original = sc.bind(&Cle::new("TestObject", "obj")).unwrap();
    assert_eq!(sc.call(&original, methods::INC, &()).unwrap(), 2);

    // Partition `far` away from both h0 and c; the original is alive but
    // unreachable, so h0 re-creates a same-name copy.
    rt.partition_between("h0", "far").unwrap();
    rt.partition_between("c", "far").unwrap();
    let err = sc.call(&original, methods::INC, &()).unwrap_err();
    assert!(
        matches!(err, MageError::Unreachable { .. } | MageError::NotFound(_)),
        "partitioned original must resolve typed (direct Unreachable, or \
         NotFound after the repair walk also dead-ends), got {err:?}"
    );
    s0.create(ObjectSpec::new("obj").class("TestObject"))
        .unwrap();
    let copy = s0.bind(&Cle::new("TestObject", "obj")).unwrap();
    assert_ne!(
        copy.incarnation(),
        original.incarnation(),
        "the re-created copy is a distinct incarnation"
    );

    // Heal: both same-name objects are now reachable at once.
    rt.heal_between("h0", "far").unwrap();
    rt.heal_between("c", "far").unwrap();

    // The pinned stub reaches exactly the original (its count continues)…
    assert_eq!(sc.call(&original, methods::INC, &()).unwrap(), 3);
    // …and the copy's stub reaches exactly the copy (its own count).
    assert_eq!(s0.call(&copy, methods::INC, &()).unwrap(), 1);
}

/// Incarnation-aware locks: a lock request that resolved the object's
/// identity before a crash-driven re-creation is refused with a typed
/// `StaleIdentity` (never silently applied to the successor). With
/// retries enabled the request re-resolves and locks the successor
/// knowingly.
#[test]
fn lock_racing_a_recreation_resolves_to_stale_identity() {
    // race_retries = 0 exposes the raw refusal instead of the retry.
    let strict = mage_core::NodeConfig {
        race_retries: 0,
        ..Default::default()
    };
    let mut rt = Runtime::builder()
        .fast()
        .seed(77)
        .nodes(["h0", "c"])
        .node_config(strict)
        .class(test_object_class())
        .build();
    rt.deploy_class("TestObject", "h0").unwrap();
    let s0 = rt.session("h0").unwrap();
    s0.create(ObjectSpec::new("obj").class("TestObject"))
        .unwrap();

    // `c` learns (location, incarnation) of the original…
    let sc = rt.session("c").unwrap();
    sc.find("obj").unwrap();

    // …then the original dies and a successor takes its name.
    rt.crash("h0").unwrap();
    rt.restart("h0").unwrap();
    rt.deploy_class("TestObject", "h0").unwrap();
    s0.create(ObjectSpec::new("obj").class("TestObject"))
        .unwrap();

    // The lock carries the stale incarnation and is refused typed.
    let err = sc.lock("obj", "c").unwrap_err();
    assert!(
        matches!(err, MageError::StaleIdentity { .. }),
        "expected StaleIdentity, got {err:?}"
    );
    assert!(rt.world().metrics().counter("stale_lock_refusals") >= 1);

    // The default retry budget turns the refusal into a knowing re-lock
    // of the successor (identity re-resolved through a fresh find).
    let mut rt = runtime(&["h0", "c"]);
    let s0 = rt.session("h0").unwrap();
    s0.create(ObjectSpec::new("obj").class("TestObject"))
        .unwrap();
    let sc = rt.session("c").unwrap();
    sc.find("obj").unwrap();
    rt.crash("h0").unwrap();
    rt.restart("h0").unwrap();
    rt.deploy_class("TestObject", "h0").unwrap();
    s0.create(ObjectSpec::new("obj").class("TestObject"))
        .unwrap();
    let kind = sc.lock("obj", "c").unwrap();
    assert_eq!(kind, LockKind::Move);
    sc.unlock("obj").unwrap();
}
