//! Concurrency and race-condition coverage: simultaneous movers, stale
//! stubs, in-transit objects, and the visibility rules of §3.5/§4.2 —
//! driven through interleaving sessions.

use mage_core::attribute::{
    BindPlan, Cle, Cod, Grev, MobilityAttribute, PolicyAttribute, Rev, Rpc,
};
use mage_core::workload_support::{geo_data_filter_class, methods, test_object_class};
use mage_core::{LockKind, MageError, ObjectSpec, Runtime, Visibility};
use mage_sim::{SimDuration, TraceEvent};

fn runtime(nodes: &[&str]) -> Runtime {
    Runtime::builder()
        .fast()
        .nodes(nodes.iter().copied())
        .class(test_object_class())
        .class(geo_data_filter_class())
        .build()
}

#[test]
fn two_guarded_movers_racing_both_eventually_succeed() {
    // The §4.4 motivating scenario: two nearly simultaneous invocations
    // apply different mobility attributes with different targets. With
    // guards, both complete; the object ends up at exactly one of the two
    // targets and its state reflects both invocations.
    let mut rt = runtime(&["host", "c1", "c2"]);
    rt.deploy_class("TestObject", "host").unwrap();
    let host = rt.session("host").unwrap();
    host.create(ObjectSpec::new("shared").class("TestObject"))
        .unwrap();

    let c1 = rt.session("c1").unwrap();
    let c2 = rt.session("c2").unwrap();
    let a1 = Grev::new("TestObject", "shared", "c1").guarded();
    let a2 = Grev::new("TestObject", "shared", "c2").guarded();
    let (s1, r1) = c1.bind_invoke(&a1, methods::INC, &()).unwrap();
    let (s2, r2) = c2.bind_invoke(&a2, methods::INC, &()).unwrap();
    assert_eq!(r1, Some(1));
    assert_eq!(r2, Some(2));
    assert_eq!(rt.node_name(s2.location()), Some("c2"));
    let _ = s1;
    // Exactly one copy exists: a CLE read sees both increments.
    let cle = Cle::new("TestObject", "shared");
    let (_s, v) = host.bind_invoke(&cle, methods::GET, &()).unwrap();
    assert_eq!(v, Some(2));
}

#[test]
fn queued_mover_waits_for_migration_triggered_by_lock_holder() {
    let mut rt = runtime(&["host", "m1", "m2"]);
    rt.deploy_class("TestObject", "host").unwrap();
    rt.session("host")
        .unwrap()
        .create(ObjectSpec::new("obj").class("TestObject"))
        .unwrap();
    let m1 = rt.session("m1").unwrap();
    let m2 = rt.session("m2").unwrap();
    // m1 locks (move kind) and starts a guarded migration to itself.
    let k = m1.lock("obj", "m1").unwrap();
    assert_eq!(k, LockKind::Move);
    // m2 queues a conflicting lock request.
    let pending = m2.lock_async("obj", "m2").unwrap();
    rt.advance(SimDuration::from_millis(10)).unwrap();
    assert!(!pending.is_done());
    // m1 moves the object and releases at the new host.
    let mv = Grev::new("TestObject", "obj", "m1");
    m1.bind(&mv).unwrap();
    m1.unlock("obj").unwrap();
    // m2's bounced request re-finds the object at m1 and locks there.
    let kind = pending.wait().unwrap();
    assert_eq!(kind, LockKind::Move);
    m2.unlock("obj").unwrap();
}

/// One row of the bind ladder's find table: an attribute, how many times a
/// fresh client session binds and invokes through it, how many
/// `mage.find` and `mage.act` calls those binds send, and how the last
/// bind ends.
struct LadderRow {
    what: &'static str,
    attr: Box<dyn MobilityAttribute>,
    binds: usize,
    finds: usize,
    acts: usize,
    outcome: Result<(), MageError>,
}

/// A custom attribute whose plan needs the object's location: without one
/// it fails `NotFound`, which sends the bind to find and plan again.
fn needs_location(object: &'static str) -> Box<dyn MobilityAttribute> {
    Box::new(PolicyAttribute::new(
        "NeedsLocation",
        "TestObject",
        object,
        move |view| {
            view.location()
                .ok_or_else(|| MageError::NotFound(format!("location of {object}")))?;
            Ok(BindPlan::stay())
        },
    ))
}

#[test]
fn bind_ladder_finds_only_what_the_cache_cannot_answer() {
    let rows = [
        LadderRow {
            what: "private objects' cached location is authoritative (§3.5)",
            attr: Box::new(Rpc::new("TestObject", "priv", "server")),
            binds: 5,
            finds: 0,
            acts: 0,
            outcome: Ok(()),
        },
        LadderRow {
            what: "a shared object is located by each use (§3.5): a built-in plan \
                   walks the registry chain to the object in one act request, no find",
            attr: Box::new(Rpc::new("TestObject", "pub", "server")),
            binds: 3,
            finds: 0,
            acts: 3,
            outcome: Ok(()),
        },
        LadderRow {
            what: "an attribute factory creates without finding",
            attr: Box::new(Rev::factory("TestObject", "made", "server")),
            binds: 2,
            finds: 0,
            acts: 0,
            outcome: Ok(()),
        },
        LadderRow {
            what: "a fresh session plans a private object from its directory home",
            attr: Box::new(Cle::new("TestObject", "priv")),
            binds: 1,
            finds: 0,
            acts: 0,
            outcome: Ok(()),
        },
        LadderRow {
            what: "a public object no node hosts: nothing locates it, so no act \
                   is sent (only a factory falls back to the class home)",
            attr: Box::new(Rpc::new("TestObject", "ghost", "server")),
            binds: 1,
            finds: 0,
            acts: 0,
            outcome: Err(MageError::NotFound("ghost".into())),
        },
        LadderRow {
            what: "a plan that needs a location finds once per bind: to plan, then before use",
            attr: needs_location("pub"),
            binds: 2,
            finds: 2,
            acts: 0,
            outcome: Ok(()),
        },
        LadderRow {
            what: "a first find that fails reports what the plan missed",
            attr: needs_location("ghost"),
            binds: 1,
            finds: 0,
            acts: 0,
            outcome: Err(MageError::NotFound("location of ghost".into())),
        },
    ];
    for row in rows {
        let mut rt = Runtime::builder()
            .fast()
            .nodes(["client", "server"])
            .class(test_object_class())
            .trace(true)
            .build();
        rt.deploy_class("TestObject", "server").unwrap();
        let server = rt.session("server").unwrap();
        server
            .create(ObjectSpec::new("pub").class("TestObject"))
            .unwrap();
        server
            .create(
                ObjectSpec::new("priv")
                    .class("TestObject")
                    .visibility(Visibility::Private),
            )
            .unwrap();
        let client = rt.session("client").unwrap();
        rt.world_mut().trace_mut().clear();
        let mut outcome = Ok(());
        for _ in 0..row.binds {
            outcome = client
                .bind_invoke(row.attr.as_ref(), methods::INC, &())
                .map(|_| ());
        }
        let finds = rt.world().trace().sends_with_label("call:mage.find");
        let acts = rt.world().trace().sends_with_label("call:mage.act");
        assert_eq!(
            (finds, acts, outcome),
            (row.finds, row.acts, row.outcome),
            "{}",
            row.what
        );
    }
}

#[test]
fn single_use_cod_instantiates_once_then_moves_the_instance() {
    let mut rt = runtime(&["lab", "server"]);
    rt.deploy_class("GeoDataFilterImpl", "server").unwrap();
    let lab = rt.session("lab").unwrap();
    let attr = Cod::single_use("GeoDataFilterImpl", "filter");
    // First bind: class pulled, fresh instance at the lab.
    let (_s, y1) = lab.bind_invoke(&attr, methods::FILTER_DATA, &()).unwrap();
    assert_eq!(y1, Some(100));
    // Push it away, then re-bind: the SAME instance must come back (state
    // intact), not a fresh one.
    let away = Grev::new("GeoDataFilterImpl", "filter", "server");
    lab.bind(&away).unwrap();
    let (_s, y2) = lab.bind_invoke(&attr, methods::FILTER_DATA, &()).unwrap();
    assert_eq!(y2, Some(100), "second yield also at the lab");
    let cle = Cle::new("GeoDataFilterImpl", "filter");
    let (_s, total) = lab.bind_invoke(&cle, methods::PROCESS_DATA, &()).unwrap();
    assert_eq!(
        total,
        Some(200),
        "accumulated across both binds — same object"
    );
}

#[test]
fn guarded_cle_takes_a_stay_lock() {
    let mut rt = runtime(&["client", "host"]);
    rt.deploy_class("TestObject", "host").unwrap();
    rt.session("host")
        .unwrap()
        .create(ObjectSpec::new("obj").class("TestObject"))
        .unwrap();
    let attr = Cle::new("TestObject", "obj").guarded();
    let receipt = rt.session("client").unwrap().bind_full(&attr).unwrap();
    assert_eq!(receipt.lock_kind, Some(LockKind::Stay));
}

#[test]
fn factory_rebind_replaces_the_previous_instance() {
    let mut rt = runtime(&["lab", "target"]);
    rt.deploy_class("TestObject", "lab").unwrap();
    let lab = rt.session("lab").unwrap();
    let attr = Rev::factory("TestObject", "worker", "target");
    let (s1, v1) = lab.bind_invoke(&attr, methods::INC, &()).unwrap();
    assert_eq!(v1, Some(1));
    let (s2, v2) = lab.bind_invoke(&attr, methods::INC, &()).unwrap();
    // A fresh instance: the counter restarts.
    assert_eq!(
        v2,
        Some(1),
        "traditional factories create new objects per bind"
    );
    assert_eq!(s1.location(), s2.location());
}

#[test]
fn rebinding_attributes_dynamically_switches_distribution_pattern() {
    // §1: "Programs can also dynamically rebind mobility attributes to
    // modify their distribution characteristics."
    let mut rt = runtime(&["edge", "core1", "core2"]);
    rt.deploy_class("TestObject", "edge").unwrap();
    let edge = rt.session("edge").unwrap();
    edge.create(ObjectSpec::new("svc").class("TestObject"))
        .unwrap();
    // Phase 1: REV to core1 while it is preferred.
    let phase1 = Rev::new("TestObject", "svc", "core1");
    let (_s, _v) = edge.bind_invoke(&phase1, methods::INC, &()).unwrap();
    // Phase 2: conditions change; the application swaps in a different
    // attribute for the same component.
    let phase2 = Grev::new("TestObject", "svc", "core2");
    let (_s, _v) = edge.bind_invoke(&phase2, methods::INC, &()).unwrap();
    // Phase 3: consume locally via COD.
    let phase3 = Cod::new("TestObject", "svc");
    let (stub, v) = edge.bind_invoke(&phase3, methods::INC, &()).unwrap();
    assert_eq!(v, Some(3));
    assert_eq!(rt.node_name(stub.location()), Some("edge"));
}

#[test]
fn trace_send_and_deliver_pair_for_every_wire_message() {
    let mut rt = Runtime::builder()
        .fast()
        .nodes(["a", "b"])
        .class(test_object_class())
        .trace(true)
        .build();
    rt.deploy_class("TestObject", "a").unwrap();
    let a = rt.session("a").unwrap();
    a.create(ObjectSpec::new("x").class("TestObject")).unwrap();
    let attr = Grev::new("TestObject", "x", "b");
    a.bind(&attr).unwrap();
    let world = rt.world();
    let events = world.trace().events();
    for event in events {
        if let TraceEvent::Send { msg_id, .. } = event {
            let delivered = events
                .iter()
                .any(|e| matches!(e, TraceEvent::Deliver { msg_id: d, .. } if d == msg_id));
            assert!(delivered, "no loss configured, every send must deliver");
        }
    }
}
