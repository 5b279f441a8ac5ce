//! End-to-end semantics of the MAGE runtime: every programming model,
//! mobility coercion, registry forwarding chains, locking and the §7
//! policy extensions, all through the session-oriented client API.

use mage_core::attribute::{BindPlan, Cle, Cod, Grev, Lpc, MobileAgent, PolicyAttribute, Rev, Rpc};
use mage_core::coercion::Coerced;
use mage_core::workload_support::{
    geo_data_filter_class, itinerary_agent_class, itinerary_state, methods, static_field_class,
    test_object_class,
};
use mage_core::{ClassDef, Durability, LockKind, MageError, ObjectSpec, Runtime};
use mage_rmi::Fault;
use mage_sim::SimDuration;

fn fast_runtime(nodes: &[&str]) -> Runtime {
    Runtime::builder()
        .fast()
        .nodes(nodes.iter().copied())
        .class(test_object_class())
        .class(geo_data_filter_class())
        .class(itinerary_agent_class())
        .class(static_field_class())
        .build()
}

/// Create a TestObject named `name` at `node` (deploying the class there).
fn with_object(rt: &mut Runtime, node: &str, name: &str) {
    rt.deploy_class("TestObject", node).unwrap();
    rt.session(node)
        .unwrap()
        .create(ObjectSpec::new(name).class("TestObject"))
        .unwrap();
}

#[test]
fn lpc_invokes_in_place() {
    let mut rt = fast_runtime(&["a", "b"]);
    with_object(&mut rt, "a", "counter");
    let a = rt.session("a").unwrap();
    let attr = Lpc::new("TestObject", "counter");
    let (stub, result) = a.bind_invoke(&attr, methods::INC, &()).unwrap();
    assert_eq!(result, Some(1));
    assert_eq!(stub.location(), rt.node_id("a").unwrap());
}

#[test]
fn lpc_on_remote_component_is_an_error() {
    let mut rt = fast_runtime(&["a", "b"]);
    with_object(&mut rt, "b", "counter");
    let attr = Lpc::new("TestObject", "counter");
    let err = rt.session("a").unwrap().bind(&attr).unwrap_err();
    assert!(matches!(err, MageError::Coercion { .. }), "{err:?}");
}

#[test]
fn rpc_invokes_remotely_without_moving() {
    let mut rt = fast_runtime(&["client", "server"]);
    with_object(&mut rt, "server", "svc");
    let client = rt.session("client").unwrap();
    let attr = Rpc::new("TestObject", "svc", "server");
    let receipt = client.bind_full(&attr).unwrap();
    assert_eq!(receipt.coerced, Coerced::Proceed);
    let v = client.call(&receipt.stub, methods::INC, &()).unwrap();
    assert_eq!(v, 1);
    // Object must still be on the server.
    assert_eq!(client.find("svc").unwrap(), rt.node_id("server").unwrap());
}

#[test]
fn rpc_throws_when_object_not_at_target() {
    // "MAGE RPC throws an exception if it does not find its object on its
    // target" (§4.2).
    let mut rt = fast_runtime(&["client", "server", "elsewhere"]);
    with_object(&mut rt, "elsewhere", "svc");
    let attr = Rpc::new("TestObject", "svc", "server");
    let err = rt.session("client").unwrap().bind(&attr).unwrap_err();
    assert!(matches!(err, MageError::Coercion { .. }), "{err:?}");
}

#[test]
fn rev_object_move_relocates_and_invokes() {
    let mut rt = fast_runtime(&["lab", "sensor1"]);
    with_object(&mut rt, "lab", "geo");
    let lab = rt.session("lab").unwrap();
    let attr = Rev::new("TestObject", "geo", "sensor1");
    let (stub, result) = lab.bind_invoke(&attr, methods::INC, &()).unwrap();
    assert_eq!(result, Some(1));
    assert_eq!(stub.location(), rt.node_id("sensor1").unwrap());
    assert_eq!(lab.find("geo").unwrap(), rt.node_id("sensor1").unwrap());
}

#[test]
fn rev_coerces_to_rpc_when_already_at_target() {
    let mut rt = fast_runtime(&["lab", "sensor1"]);
    with_object(&mut rt, "sensor1", "geo");
    let lab = rt.session("lab").unwrap();
    let attr = Rev::new("TestObject", "geo", "sensor1");
    let receipt = lab.bind_full(&attr).unwrap();
    assert_eq!(receipt.coerced, Coerced::AsRpc);
    let v = lab.call(&receipt.stub, methods::INC, &()).unwrap();
    assert_eq!(v, 1);
}

#[test]
fn rev_factory_instantiates_at_target_with_class_push() {
    let mut rt = fast_runtime(&["lab", "sensor1"]);
    rt.deploy_class("GeoDataFilterImpl", "lab").unwrap();
    let lab = rt.session("lab").unwrap();
    let attr = Rev::factory("GeoDataFilterImpl", "geoData", "sensor1");
    let (stub, yielded) = lab.bind_invoke(&attr, methods::FILTER_DATA, &()).unwrap();
    // sensor1 is node id 1 → yield 110 per the workload class.
    assert_eq!(yielded, Some(110));
    assert_eq!(stub.location(), rt.node_id("sensor1").unwrap());
}

#[test]
fn cod_moves_object_to_client() {
    let mut rt = fast_runtime(&["lab", "sensor1"]);
    with_object(&mut rt, "sensor1", "geo");
    let lab = rt.session("lab").unwrap();
    let attr = Cod::new("TestObject", "geo");
    let stub = lab.bind(&attr).unwrap();
    assert_eq!(stub.location(), rt.node_id("lab").unwrap());
    assert_eq!(lab.find("geo").unwrap(), rt.node_id("lab").unwrap());
}

#[test]
fn cod_on_local_component_coerces_to_lpc() {
    let mut rt = fast_runtime(&["lab"]);
    with_object(&mut rt, "lab", "geo");
    let attr = Cod::new("TestObject", "geo");
    let receipt = rt.session("lab").unwrap().bind_full(&attr).unwrap();
    assert_eq!(receipt.coerced, Coerced::AsLpc);
}

#[test]
fn cod_factory_pulls_class_and_instantiates_locally() {
    let mut rt = fast_runtime(&["lab", "server"]);
    rt.deploy_class("GeoDataFilterImpl", "server").unwrap();
    let lab = rt.session("lab").unwrap();
    let attr = Cod::factory("GeoDataFilterImpl", "geoData");
    let (stub, yielded) = lab.bind_invoke(&attr, methods::FILTER_DATA, &()).unwrap();
    assert_eq!(yielded, Some(100), "lab is node 0 → yield 100");
    assert_eq!(stub.location(), rt.node_id("lab").unwrap());
}

#[test]
fn grev_moves_between_two_remote_namespaces() {
    // GREV "applies to a wider array of component distributions": P on
    // `lab` moves C from namespace D to target B (Figure 2).
    let mut rt = fast_runtime(&["lab", "d", "b"]);
    with_object(&mut rt, "d", "c");
    let lab = rt.session("lab").unwrap();
    let attr = Grev::new("TestObject", "c", "b");
    let (stub, result) = lab.bind_invoke(&attr, methods::INC, &()).unwrap();
    assert_eq!(result, Some(1));
    assert_eq!(stub.location(), rt.node_id("b").unwrap());
}

#[test]
fn cle_invokes_wherever_the_component_is() {
    let mut rt = fast_runtime(&["lab", "p1", "p2"]);
    with_object(&mut rt, "p1", "printer");
    let lab = rt.session("lab").unwrap();
    let attr = Cle::new("TestObject", "printer");
    let (stub, _) = lab.bind_invoke(&attr, methods::INC, &()).unwrap();
    assert_eq!(stub.location(), rt.node_id("p1").unwrap());

    // The job controller moves the printer object; CLE follows it without
    // the client changing anything (Figure 3).
    let mover = Grev::new("TestObject", "printer", "p2");
    lab.bind(&mover).unwrap();
    let (stub, _) = lab.bind_invoke(&attr, methods::INC, &()).unwrap();
    assert_eq!(stub.location(), rt.node_id("p2").unwrap());
}

#[test]
fn mobile_agent_is_asynchronous_and_result_stays() {
    let mut rt = fast_runtime(&["lab", "sensor2"]);
    with_object(&mut rt, "lab", "agent");
    let lab = rt.session("lab").unwrap();
    let attr = MobileAgent::new("TestObject", "agent", "sensor2");
    let (stub, result) = lab.bind_invoke(&attr, methods::INC, &()).unwrap();
    assert_eq!(result, None, "one-way invocation returns no result");
    assert_eq!(stub.location(), rt.node_id("sensor2").unwrap());
    // Let the in-flight invocation drain, then check the work happened.
    rt.run_until_idle().unwrap();
    let v = lab.call(&stub, methods::GET, &()).unwrap();
    assert_eq!(v, 1);
}

#[test]
fn agent_itinerary_hops_autonomously() {
    let mut rt = fast_runtime(&["lab", "s1", "s2", "s3"]);
    rt.deploy_class("ItineraryAgent", "lab").unwrap();
    let lab = rt.session("lab").unwrap();
    let state = itinerary_state(&["s2", "s3"]);
    let spec_attr = Rev::factory("ItineraryAgent", "walker", "s1").with_init_state(state);
    let (stub, _) = lab.bind_invoke(&spec_attr, methods::STEP, &()).unwrap();
    // The step on s1 requested a hop to s2; the hop is autonomous. Each
    // subsequent step triggers the next leg.
    rt.run_until_idle().unwrap();
    assert_eq!(lab.find("walker").unwrap(), rt.node_id("s2").unwrap());
    let _ = lab.call(&stub, methods::STEP, &()).unwrap();
    rt.run_until_idle().unwrap();
    assert_eq!(lab.find("walker").unwrap(), rt.node_id("s3").unwrap());
    let visited = lab.call(&stub, methods::VISITED, &()).unwrap();
    assert_eq!(visited, vec!["s1".to_owned(), "s2".to_owned()]);
}

#[test]
fn forwarding_chain_resolves_and_compresses() {
    // Build a chain: object created at n0, moved n0→n1→n2→n3 by clients
    // that always talk to the previous host. A find from n4 (which only
    // knows the home) walks the chain; afterwards the home points straight
    // at n3 (path compression).
    let mut rt = fast_runtime(&["n0", "n1", "n2", "n3", "n4"]);
    with_object(&mut rt, "n0", "nomad");
    for (from, to) in [("n0", "n1"), ("n1", "n2"), ("n2", "n3")] {
        let attr = Grev::new("TestObject", "nomad", to);
        rt.session(from).unwrap().bind(&attr).unwrap();
    }
    let n4 = rt.session("n4").unwrap();
    let loc = n4.find("nomad").unwrap();
    assert_eq!(loc, rt.node_id("n3").unwrap());
    // A second find must take no additional chain hops: the compressed
    // entry points straight at the hosting node, so the verification is a
    // single request/response pair.
    rt.world_mut().reset_metrics();
    let loc2 = n4.find("nomad").unwrap();
    assert_eq!(loc2, rt.node_id("n3").unwrap());
    assert_eq!(
        rt.world().metrics().net.sent,
        2,
        "one hop after compression"
    );
}

#[test]
fn invoke_follows_object_that_moved_underneath_the_stub() {
    let mut rt = fast_runtime(&["a", "b", "c"]);
    with_object(&mut rt, "b", "obj");
    let a = rt.session("a").unwrap();
    let attr = Rpc::new("TestObject", "obj", "b");
    let stub = a.bind(&attr).unwrap();
    let _ = a.call(&stub, methods::INC, &()).unwrap();
    // Someone else moves the object to c.
    let mover = Grev::new("TestObject", "obj", "c");
    a.bind(&mover).unwrap();
    // The stale stub still works: NotBound → re-find → retry.
    let v = a.call(&stub, methods::INC, &()).unwrap();
    assert_eq!(v, 2);
}

#[test]
fn guarded_bind_takes_and_releases_locks() {
    let mut rt = fast_runtime(&["lab", "sensor1"]);
    with_object(&mut rt, "lab", "geo");
    let lab = rt.session("lab").unwrap();
    let attr = Rev::new("TestObject", "geo", "sensor1").guarded();
    let receipt = lab.bind_full(&attr).unwrap();
    assert_eq!(receipt.lock_kind, Some(LockKind::Move));
    // Lock was released: an immediate explicit lock succeeds.
    let kind = lab.lock("geo", "sensor1").unwrap();
    assert_eq!(kind, LockKind::Stay, "object now resides at the target");
    lab.unlock("geo").unwrap();
}

#[test]
fn explicit_lock_bracket_matches_paper_example() {
    // lock("geoData", cod.getTarget()); bind; invoke; unlock (§4.4).
    let mut rt = fast_runtime(&["lab", "sensor1"]);
    with_object(&mut rt, "sensor1", "geoData");
    let lab = rt.session("lab").unwrap();
    let kind = lab.lock("geoData", "lab").unwrap();
    assert_eq!(kind, LockKind::Move, "object is not at the lab yet");
    let cod = Cod::new("TestObject", "geoData");
    let stub = lab.bind(&cod).unwrap();
    let _ = lab.call(&stub, methods::INC, &()).unwrap();
    lab.unlock("geoData").unwrap();
}

#[test]
fn contending_movers_serialize_on_the_lock_queue() {
    let mut rt = fast_runtime(&["host", "c1", "c2"]);
    with_object(&mut rt, "host", "shared");
    let c1 = rt.session("c1").unwrap();
    let c2 = rt.session("c2").unwrap();
    // c1 takes a move lock, then c2's move-lock request queues.
    let k1 = c1.lock_async("shared", "c1").unwrap().wait().unwrap();
    assert_eq!(k1, LockKind::Move);
    let l2 = c2.lock_async("shared", "c2").unwrap();
    rt.advance(SimDuration::from_millis(50)).unwrap();
    assert!(!l2.is_done(), "second mover waits in the queue");
    c1.unlock("shared").unwrap();
    let k2 = l2.wait().unwrap();
    assert_eq!(k2, LockKind::Move);
    c2.unlock("shared").unwrap();
}

#[test]
fn unfair_policy_grants_stay_over_queued_move() {
    let mut rt = fast_runtime(&["host", "reader", "mover"]);
    with_object(&mut rt, "host", "shared");
    let host = rt.session("host").unwrap();
    let reader = rt.session("reader").unwrap();
    let mover = rt.session("mover").unwrap();
    // Reader holds a stay lock (target == host).
    let kind = reader.lock("shared", "host").unwrap();
    assert_eq!(kind, LockKind::Stay);
    // Mover queues.
    let mv = mover.lock_async("shared", "mover").unwrap();
    rt.advance(SimDuration::from_millis(20)).unwrap();
    assert!(!mv.is_done());
    // A second reader jumps the queued mover (the paper's unfairness).
    let kind = host.lock("shared", "host").unwrap();
    assert_eq!(kind, LockKind::Stay);
    // Release both readers; only then the mover gets its lock.
    reader.unlock("shared").unwrap();
    rt.advance(SimDuration::from_millis(20)).unwrap();
    assert!(!mv.is_done(), "mover still blocked by second reader");
    host.unlock("shared").unwrap();
    let k = mv.wait().unwrap();
    assert_eq!(k, LockKind::Move);
}

#[test]
fn lock_waiters_bounce_and_retry_when_object_migrates() {
    let mut rt = fast_runtime(&["host", "mover", "late"]);
    with_object(&mut rt, "host", "shared");
    let mover = rt.session("mover").unwrap();
    let late = rt.session("late").unwrap();
    let k = mover.lock("shared", "mover").unwrap();
    assert_eq!(k, LockKind::Move);
    // A waiter queues behind the move lock.
    let waiting = late.lock_async("shared", "host").unwrap();
    rt.advance(SimDuration::from_millis(10)).unwrap();
    assert!(!waiting.is_done());
    // The mover moves the object (still holding its lock) and unlocks at
    // the new host; the bounced waiter re-finds and re-locks there.
    let attr = Grev::new("TestObject", "shared", "mover");
    mover.bind(&attr).unwrap();
    mover.unlock("shared").unwrap();
    assert!(waiting.wait().is_ok(), "waiter eventually acquires");
    late.unlock("shared").unwrap();
}

#[test]
fn trust_policy_blocks_migration_into_namespace() {
    let mut rt = fast_runtime(&["lab", "fortress"]);
    with_object(&mut rt, "lab", "spy");
    rt.set_trust("fortress", Some(&[])).unwrap();
    let lab = rt.session("lab").unwrap();
    let attr = Rev::new("TestObject", "spy", "fortress");
    let err = lab.bind(&attr).unwrap_err();
    assert!(matches!(err, MageError::Denied(_)), "{err:?}");
    // Object must still be usable at the lab after the refused move.
    let lpc = Lpc::new("TestObject", "spy");
    let (_, v) = lab.bind_invoke(&lpc, methods::INC, &()).unwrap();
    assert_eq!(v, Some(1));
}

#[test]
fn untrusted_sender_is_denied_before_its_payload_is_decoded() {
    let mut rt = fast_runtime(&["lab", "fortress"]);
    rt.set_trust("fortress", Some(&["lab"])).unwrap();
    let fortress = rt.node_id("fortress").unwrap();
    let mut world = rt.world_mut();
    let intruder = world.add_node(
        "intruder",
        mage_rmi::client_endpoint(mage_rmi::Config::zero_cost()),
    );
    // A payload no argument struct decodes from: an unterminated varint.
    for method in ["receive", "receiveClass", "instantiate", "checkpoint"] {
        let err = mage_rmi::drive_call(
            &mut world,
            intruder,
            fortress,
            "mage",
            method,
            vec![0xff; 9],
        )
        .unwrap()
        .unwrap_err();
        assert!(err.contains("access denied"), "{method}: {err}");
    }
}

#[test]
fn trusted_malformed_receive_is_refused_and_installs_nothing() {
    let mut rt = fast_runtime(&["lab", "fortress"]);
    with_object(&mut rt, "lab", "victim");
    rt.deploy_class("TestObject", "fortress").unwrap();
    // Room for exactly one object: a half-installed receive would leave
    // none for the honest move below.
    rt.set_quota("fortress", Some(1), None).unwrap();
    let fortress = rt.node_id("fortress").unwrap();
    let lab = rt.node_id("lab").unwrap();
    {
        let mut world = rt.world_mut();
        let sender = world.add_node(
            "sender",
            mage_rmi::client_endpoint(mage_rmi::Config::zero_cost()),
        );
        // The symbol table numbers names densely from 0 and this runtime
        // interns far fewer than 64, so one of these ids names `victim`.
        for raw in 0..64 {
            let id = mage_rmi::NameId::from_raw(raw);
            // `ReceiveArgs` opens with name, class and the state's length
            // prefix: this one claims 16 state bytes and only 8 follow.
            let mut payload = mage_codec::to_bytes(&(id, id, 16u8)).unwrap();
            payload.extend_from_slice(&[0xAB; 8]);
            let err =
                mage_rmi::drive_call(&mut world, sender, fortress, "mage", "receive", payload)
                    .unwrap()
                    .unwrap_err();
            assert!(
                err.contains("application fault: unexpected end of input"),
                "id {raw}: {err}"
            );
        }
    }
    // No registry entry: fortress still finds `victim` at lab.
    let at_fortress = rt.session("fortress").unwrap();
    assert_eq!(at_fortress.find("victim").unwrap(), lab);
    // No object: the one-object quota still admits the real move, and the
    // node serves the moved object as usual.
    let (stub, value) = rt
        .session("lab")
        .unwrap()
        .bind_invoke(
            &Rev::new("TestObject", "victim", "fortress"),
            methods::INC,
            &(),
        )
        .unwrap();
    assert_eq!(stub.location(), fortress);
    assert_eq!(value, Some(1));
}

#[test]
fn every_service_method_refuses_malformed_trusted_payloads() {
    use mage_core::proto::{methods as service, SERVICE};
    let mut rt = fast_runtime(&["lab", "server"]);
    with_object(&mut rt, "server", "svc");
    let server = rt.node_id("server").unwrap();
    {
        let mut world = rt.world_mut();
        let sender = world.add_node(
            "sender",
            mage_rmi::client_endpoint(mage_rmi::Config::zero_cost()),
        );
        let call = |world: &mut mage_sim::World, method: &str, payload: Vec<u8>| {
            mage_rmi::drive_call(world, sender, server, SERVICE, method, payload)
                .unwrap()
                .unwrap_err()
        };
        for method in [
            service::FIND,
            service::LOCK,
            service::UNLOCK,
            service::INVOKE,
            service::ACT,
            service::RECEIVE,
            service::RECEIVE_CLASS,
            service::FETCH_CLASS,
            service::INSTANTIATE,
            service::CHECKPOINT,
            service::RESTORE,
        ] {
            // An unterminated varint: no argument struct decodes from it.
            let err = call(&mut world, method, vec![0xff; 9]);
            assert!(err.contains("application fault"), "{method}: {err}");
        }
        let err = call(&mut world, "teleport", Vec::new());
        assert!(
            err.contains(r#"object "mage" has no method "teleport""#),
            "{err}"
        );
    }
    // The refusals left the node serving as usual.
    let (_, value) = rt
        .session("lab")
        .unwrap()
        .bind_invoke(&Rpc::new("TestObject", "svc", "server"), methods::INC, &())
        .unwrap();
    assert_eq!(value, Some(1));
}

#[test]
fn quota_refuses_excess_objects() {
    let mut rt = fast_runtime(&["lab", "tiny"]);
    rt.deploy_class("TestObject", "lab").unwrap();
    rt.set_quota("tiny", Some(1), None).unwrap();
    let lab = rt.session("lab").unwrap();
    lab.create(ObjectSpec::new("a").class("TestObject"))
        .unwrap();
    lab.create(ObjectSpec::new("b").class("TestObject"))
        .unwrap();
    let ok = Rev::new("TestObject", "a", "tiny");
    lab.bind(&ok).unwrap();
    let too_many = Rev::new("TestObject", "b", "tiny");
    let err = lab.bind(&too_many).unwrap_err();
    assert!(matches!(err, MageError::Denied(_)), "{err:?}");
}

#[test]
fn static_field_classes_are_refused_until_allowed() {
    let mut rt = fast_runtime(&["lab", "remote"]);
    rt.deploy_class("StaticHolder", "lab").unwrap();
    let lab = rt.session("lab").unwrap();
    let attr = Rev::factory("StaticHolder", "holder", "remote");
    let err = lab.bind(&attr).unwrap_err();
    assert!(matches!(err, MageError::Denied(_)), "{err:?}");
    rt.allow_static_classes("remote", true).unwrap();
    let stub = lab.bind(&attr).unwrap();
    assert_eq!(stub.location(), rt.node_id("remote").unwrap());
}

#[test]
fn admin_changes_the_hosted_node_out_of_band() {
    let mut rt = fast_runtime(&["lab", "other", "down"]);
    let sent = |rt: &Runtime| {
        let world = rt.world();
        (world.metrics().net.delivered, world.metrics().net.dropped)
    };
    // A crashed namespace hosts no node to change: every admin call is
    // `Unreachable` at once, without running the world.
    let down = rt.node_id("down").unwrap().as_raw();
    rt.crash("down").unwrap();
    let (before, now) = (sent(&rt), rt.now());
    let unreachable = Err(MageError::Unreachable { peer: down });
    assert_eq!(rt.deploy_class("TestObject", "down"), unreachable);
    assert_eq!(rt.set_trust("down", Some(&["lab"])), unreachable);
    assert_eq!(rt.set_quota("down", Some(1), None), unreachable);
    assert_eq!(rt.allow_static_classes("down", true), unreachable);
    assert_eq!(rt.seed_registry_entry("down", "x", "lab"), unreachable);
    assert_eq!((sent(&rt), rt.now()), (before, now));

    // On a live namespace, admin steps nothing: a call in flight stays in
    // flight across it, then completes.
    rt.deploy_class("TestObject", "lab").unwrap();
    let lab = rt.session("lab").unwrap();
    let handle = lab
        .create(ObjectSpec::new("counter").class("TestObject"))
        .unwrap();
    let pending = lab.call_async(handle.stub(), methods::INC, &()).unwrap();
    let before = sent(&rt);
    rt.set_quota("other", Some(1), None).unwrap();
    assert_eq!(sent(&rt), before);
    assert!(!pending.is_done());
    assert_eq!(pending.wait(), Ok(1));
}

#[test]
fn custom_policy_attribute_moves_off_loaded_hosts() {
    let mut rt = fast_runtime(&["hot", "cool"]);
    with_object(&mut rt, "hot", "worker");
    rt.set_load("hot", 0.95).unwrap();
    rt.set_load("cool", 0.05).unwrap();
    let hot = rt.session("hot").unwrap();
    let attr = PolicyAttribute::new("LoadBalancer", "TestObject", "worker", |view| {
        let here = view
            .location()
            .ok_or(MageError::NotFound("worker".into()))?;
        if view.load(here) > 0.8 {
            let (coolest, _) = view
                .namespaces()
                .map(|(n, id)| (n.to_owned(), view.load(id)))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("namespaces exist");
            Ok(BindPlan::move_to(coolest))
        } else {
            Ok(BindPlan::stay())
        }
    });
    let stub = hot.bind(&attr).unwrap();
    assert_eq!(stub.location(), rt.node_id("cool").unwrap());
    // With the load gone, a re-bind leaves it in place.
    rt.set_load("hot", 0.1).unwrap();
    let stub = hot.bind(&attr).unwrap();
    assert_eq!(stub.location(), rt.node_id("cool").unwrap());
}

#[test]
fn weak_migration_preserves_heap_state_across_moves() {
    let mut rt = fast_runtime(&["a", "b", "c"]);
    with_object(&mut rt, "a", "acc");
    let a = rt.session("a").unwrap();
    let lpc = Lpc::new("TestObject", "acc");
    let (stub, _) = a.bind_invoke(&lpc, methods::INC, &()).unwrap();
    for dest in ["b", "c", "a"] {
        let attr = Grev::new("TestObject", "acc", dest);
        a.bind(&attr).unwrap();
        let _ = a.call(&stub, methods::INC, &()).unwrap();
    }
    let v = a.call(&stub, methods::GET, &()).unwrap();
    assert_eq!(v, 4, "state accumulated across three migrations");
}

#[test]
fn find_fails_for_unknown_components() {
    let rt = fast_runtime(&["a", "b"]);
    let err = rt.session("a").unwrap().find("ghost").unwrap_err();
    assert!(matches!(err, MageError::NotFound(_)), "{err:?}");
}

#[test]
fn deterministic_replay_across_identical_runs() {
    let run = || {
        let mut rt = fast_runtime(&["a", "b", "c"]);
        with_object(&mut rt, "a", "obj");
        let a = rt.session("a").unwrap();
        for dest in ["b", "c", "a", "c"] {
            let attr = Grev::new("TestObject", "obj", dest);
            a.bind(&attr).unwrap();
        }
        let sent = rt.world().metrics().net.sent;
        (rt.now(), sent)
    };
    assert_eq!(run(), run());
}

#[test]
fn creation_refusals_keep_each_path_s_error() {
    let mut rt = fast_runtime(&["lab", "sensor1"]);
    with_object(&mut rt, "lab", "x");
    with_object(&mut rt, "sensor1", "y");
    let lab = rt.session("lab").unwrap();

    // Local creation refuses a taken name as the client's own bad plan.
    let err = lab
        .create(ObjectSpec::new("x").class("TestObject"))
        .unwrap_err();
    assert_eq!(
        err,
        MageError::BadPlan("object x already exists here".into())
    );

    // A remote birth is refused by the birthplace, as an application fault.
    let err = lab
        .create(ObjectSpec::new("y").class("TestObject").mobility(Rev::new(
            "TestObject",
            "y",
            "sensor1",
        )))
        .unwrap_err();
    assert_eq!(
        err,
        MageError::Rmi("application fault: object y already exists here".into())
    );

    // An undefined class can be neither deployed nor instantiated.
    let err = rt.deploy_class("Nope", "lab").unwrap_err();
    assert_eq!(err, MageError::ClassUnavailable("Nope".into()));
    let err = lab.create(ObjectSpec::new("z").class("Nope")).unwrap_err();
    assert_eq!(err, MageError::ClassUnavailable("Nope".into()));
}

#[test]
fn a_later_class_definition_replaces_an_earlier_one() {
    let second = ClassDef::new("TestObject", 9_000, |_| {
        Err(Fault::App("second definition".into()))
    });
    let mut rt = Runtime::builder()
        .fast()
        .nodes(["a"])
        .class(test_object_class())
        .class(second)
        .build();
    rt.deploy_class("TestObject", "a").unwrap();
    let err = rt
        .session("a")
        .unwrap()
        .create(ObjectSpec::new("x").class("TestObject"))
        .unwrap_err();
    assert_eq!(
        err,
        MageError::Rmi("application fault: second definition".into())
    );
}

/// A known gap, pinned: a `receive` installs the arriving object over a
/// live object of the same name at the destination, without an error.
/// Names are unique only per namespace, so moving `a`'s `x` onto `b`,
/// which hosts an `x` of its own, silently replaces `b`'s object.
#[test]
fn move_onto_a_same_named_object_replaces_it_silently() {
    let mut rt = fast_runtime(&["a", "b"]);
    with_object(&mut rt, "a", "x");
    with_object(&mut rt, "b", "x");
    let (sa, sb) = (rt.session("a").unwrap(), rt.session("b").unwrap());
    let here = Lpc::new("TestObject", "x");
    for _ in 0..5 {
        sa.bind_invoke(&here, methods::INC, &()).unwrap();
    }
    let (_, theirs) = sb.bind_invoke(&here, methods::INC, &()).unwrap();
    assert_eq!(theirs, Some(1));

    sa.bind(&Grev::new("TestObject", "x", "b")).unwrap();

    let (_, count) = sb.bind_invoke(&here, methods::GET, &()).unwrap();
    assert_eq!(count, Some(5), "b's own x is gone, replaced by a's");
}

/// The service calls a traced world sent since its trace was cleared, in
/// order, without the `call:mage.` prefix.
fn service_calls(rt: &Runtime) -> Vec<String> {
    rt.world()
        .trace()
        .events()
        .iter()
        .filter_map(|event| match event {
            mage_sim::TraceEvent::Send { label, .. } => label.strip_prefix("call:mage."),
            _ => None,
        })
        .map(str::to_owned)
        .collect()
}

/// A traced world over `nodes` with `class` deployed at `deployed`, its
/// trace cleared.
fn traced_with_class(nodes: &[&str], class: &str, deployed: &str) -> Runtime {
    let mut rt = Runtime::builder()
        .fast()
        .trace(true)
        .nodes(nodes.iter().copied())
        .class(test_object_class())
        .class(geo_data_filter_class())
        .build();
    rt.deploy_class(class, deployed).unwrap();
    rt.world_mut().trace_mut().clear();
    rt
}

/// Each way an object lands at a namespace without its class climbs the
/// same ladder: the request, the class, the request again (§4.2). A
/// factory whose client lacks the class fetches it first.
#[test]
fn every_placement_climbs_one_class_push_ladder() {
    // A REV move of an object hosted at the client.
    let mut rt = traced_with_class(&["lab", "sensor1"], "TestObject", "lab");
    let lab = rt.session("lab").unwrap();
    lab.create(ObjectSpec::new("geo").class("TestObject"))
        .unwrap();
    rt.world_mut().trace_mut().clear();
    lab.bind(&Rev::new("TestObject", "geo", "sensor1")).unwrap();
    assert_eq!(service_calls(&rt), ["receive", "receiveClass", "receive"]);

    // The first checkpoint to a backup without the class.
    let mut rt = traced_with_class(&["a", "b"], "TestObject", "a");
    let replicated = ObjectSpec::new("c")
        .class("TestObject")
        .durability(Durability::Replicated { backups: 1 })
        .backup("b");
    rt.session("a").unwrap().create(replicated).unwrap();
    rt.run_until_idle().unwrap();
    assert_eq!(
        service_calls(&rt),
        ["checkpoint", "receiveClass", "checkpoint"]
    );

    // A REV factory whose client caches the class.
    let factory = Rev::factory("GeoDataFilterImpl", "geoData", "sensor1");
    let rt = traced_with_class(&["lab", "sensor1"], "GeoDataFilterImpl", "lab");
    rt.session("lab").unwrap().bind(&factory).unwrap();
    assert_eq!(
        service_calls(&rt),
        ["instantiate", "receiveClass", "instantiate"]
    );

    // A REV factory whose client lacks the class, deployed at a third
    // namespace.
    let rt = traced_with_class(&["lab", "sensor1", "depot"], "GeoDataFilterImpl", "depot");
    rt.session("lab").unwrap().bind(&factory).unwrap();
    assert_eq!(
        service_calls(&rt),
        ["instantiate", "fetchClass", "receiveClass", "instantiate"]
    );
}
