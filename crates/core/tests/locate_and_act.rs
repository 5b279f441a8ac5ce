//! Locate and act in one pass: an unguarded built-in bind sends its plan
//! along the registry chain in one `mage.act` request, with no find
//! first, and the node hosting the object applies Table 2 and acts. When
//! the host moves the object, the move's `receive` carries the
//! invocation, which the destination runs on arrival: the result comes
//! back through the host's reply, with no second call.
//!
//! Each scenario pins the messages the bind sends, so a find creeping
//! back in (or a walk that stops forwarding, or an invoke after a move)
//! shows as a count.

use mage_core::attribute::{Cle, Cod, Grev, MobileAgent, MobilityAttribute, Rev, Rpc};
use mage_core::workload_support::{methods, test_object_class};
use mage_core::{Durability, LockKind, MageError, Method, ModelKind, ObjectSpec, Runtime, Session};
use mage_sim::{NodeId, SimDuration, TraceEvent};

/// One retry budget of a call to a dead peer: four sends, 200 ms apart.
const BUDGET: SimDuration = SimDuration::from_millis(800);

fn runtime(nodes: &[&str]) -> Runtime {
    let mut rt = Runtime::builder()
        .fast()
        .seed(77)
        .nodes(nodes.iter().copied())
        .class(test_object_class())
        .trace(true)
        .build();
    for node in nodes {
        rt.deploy_class("TestObject", node).unwrap();
    }
    rt
}

/// Moves `obj` to `to` by a GREV bind from `session`.
fn grev(session: &Session, to: &str) {
    session.bind(&Grev::new("TestObject", "obj", to)).unwrap();
}

/// The `call:mage.*` requests sent since the trace was last cleared, as
/// (method, from, to).
fn service_calls(rt: &Runtime) -> Vec<(String, NodeId, NodeId)> {
    rt.world()
        .trace()
        .events()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Send {
                from, to, label, ..
            } => label
                .strip_prefix("call:mage.")
                .map(|method| (method.to_owned(), *from, *to)),
            _ => None,
        })
        .collect()
}

/// The world's count of acts that took a forwarding hop.
fn act_forwards(rt: &Runtime) -> u64 {
    rt.world().metrics().counter("act_forwards")
}

/// `(act, find)` request counts since the trace was last cleared.
fn acts_and_finds(rt: &Runtime) -> (usize, usize) {
    let world = rt.world();
    let trace = world.trace();
    (
        trace.sends_with_label("call:mage.act"),
        trace.sends_with_label("call:mage.find"),
    )
}

/// `obj`, created at `h0`, moved `h0 → h1` by `h0`; `c` then learns it at
/// `h1` with a CLE read.
fn object_seen_at_h1(rt: &Runtime) -> Session {
    let s0 = rt.session("h0").unwrap();
    s0.create(ObjectSpec::new("obj").class("TestObject"))
        .unwrap();
    grev(&s0, "h1");
    let c = rt.session("c").unwrap();
    let (stub, v) = c
        .bind_invoke(&Cle::new("TestObject", "obj"), methods::GET, &())
        .unwrap();
    assert_eq!((stub.location(), v), (rt.node_id("h1").unwrap(), Some(0)));
    c
}

/// A bind from a client whose registry names the object's first host
/// walks the whole stale chain `h1 → h2 → h3` in one act request and
/// invokes at the end of it; the reply collapses the client's entry to
/// `h3`, so the next bind goes straight there.
#[test]
fn a_three_hop_stale_chain_is_walked_by_one_act() {
    let mut rt = runtime(&["h0", "h1", "h2", "h3", "c"]);
    let c = object_seen_at_h1(&rt);
    grev(&rt.session("h1").unwrap(), "h2");
    grev(&rt.session("h2").unwrap(), "h3");
    let [h1, h2, h3] = ["h1", "h2", "h3"].map(|n| rt.node_id(n).unwrap());
    let client = rt.node_id("c").unwrap();
    let forwards = act_forwards(&rt);

    for (attr, expect) in [
        (
            Box::new(Cle::new("TestObject", "obj")) as Box<dyn MobilityAttribute>,
            1,
        ),
        (Box::new(Rpc::new("TestObject", "obj", "h3")), 2),
    ] {
        rt.world_mut().trace_mut().clear();
        let (stub, v) = c.bind_invoke(attr.as_ref(), methods::INC, &()).unwrap();
        assert_eq!((stub.location(), v), (h3, Some(expect)));
        let calls = service_calls(&rt);
        if expect == 1 {
            // The walk: client to h1, forwarded to h2, forwarded to h3.
            let act = |from, to| ("act".to_owned(), from, to);
            assert_eq!(calls, [act(client, h1), act(h1, h2), act(h2, h3)]);
        } else {
            // The client's registry now names h3.
            assert_eq!(calls, [("act".to_owned(), client, h3)]);
        }
    }
    assert_eq!(act_forwards(&rt), forwards + 1);
}

/// A crashed middle hop: the client's registry names `h2`, which died,
/// while the object's home `h0` knows it moved on to `h3`. The act to
/// `h2` spends one call budget and comes back unreachable; the engine
/// forgets `h2` and acts again from the home, which forwards to `h3`.
/// With no live host left, a bind ends typed instead.
#[test]
fn a_crashed_middle_hop_costs_one_budget_then_the_home_walk_succeeds() {
    let mut rt = runtime(&["h0", "h1", "h2", "h3", "c"]);
    let c = object_seen_at_h1(&rt);
    // c's own move to h2 leaves c's registry naming h2.
    grev(&c, "h2");
    // The home's move on to h3 walks h0 → h2 and collapses h0's entry
    // onto h3.
    grev(&rt.session("h0").unwrap(), "h3");
    rt.crash("h2").unwrap();

    rt.world_mut().trace_mut().clear();
    let start = rt.now();
    let (stub, v) = c
        .bind_invoke(&Cle::new("TestObject", "obj"), methods::INC, &())
        .unwrap();
    let elapsed = rt.now() - start;
    assert_eq!((stub.location(), v), (rt.node_id("h3").unwrap(), Some(1)));
    // One budget at the dead hop; the fast runtime's round trips are
    // instant.
    assert_eq!(elapsed, BUDGET);
    // Four sends of the act to h2, then the act to h0, forwarded to h3.
    assert_eq!(acts_and_finds(&rt), (6, 0));

    // Once h3 dies too, nothing hosts the object. From h1, whose entry
    // names h3, the bind spends one budget on h3, then acts once from the
    // home. The home holds that act on its own call to h3 until h1's
    // budget runs out too, so the bind ends `Unreachable` at the home
    // after two budgets, as a find walk's home retry does, never hanging.
    let h1 = rt.session("h1").unwrap();
    rt.crash("h3").unwrap();
    let start = rt.now();
    let err = h1
        .bind_invoke(&Cle::new("TestObject", "obj"), methods::INC, &())
        .unwrap_err();
    let h0 = rt.node_id("h0").unwrap();
    assert_eq!(err, MageError::Unreachable { peer: h0.as_raw() });
    assert_eq!(rt.now() - start, BUDGET.saturating_mul(2));
}

/// An act runs its invocation at most once, even when a live forwarder's
/// next hop is dead: `c`'s registry names `h1`, alive but not the home,
/// whose entry names the crashed `h2`, while the home `h0` knows the
/// object moved on to `h3`. The forwarder hands the dead hop back to `c`
/// instead of retrying from the home itself, so only `c`'s act from the
/// home reaches `h3`, and the counter rises by exactly one.
#[test]
fn a_live_forwarder_with_a_dead_next_hop_leaves_the_home_retry_to_the_client() {
    let mut rt = runtime(&["h0", "h1", "h2", "h3", "c"]);
    let c = object_seen_at_h1(&rt);
    // The home's moves on to h2, then h3, pass h1 once: h1's entry names
    // h2, and h2's and the home's name h3.
    let s0 = rt.session("h0").unwrap();
    grev(&s0, "h2");
    grev(&s0, "h3");
    rt.crash("h2").unwrap();
    let [h0, h1, h2, h3] = ["h0", "h1", "h2", "h3"].map(|n| rt.node_id(n).unwrap());
    let client = rt.node_id("c").unwrap();

    rt.world_mut().trace_mut().clear();
    let start = rt.now();
    let (stub, v) = c
        .bind_invoke(&Cle::new("TestObject", "obj"), methods::INC, &())
        .unwrap();
    assert_eq!((stub.location(), v), (h3, Some(1)));
    assert_eq!(rt.now() - start, BUDGET);
    // c to h1 and h1 to the dead h2, four sends each; then c's one act
    // from the home, forwarded to h3. Nothing else reaches h3.
    let calls = service_calls(&rt);
    let act = |from, to| ("act".to_owned(), from, to);
    assert_eq!(calls.iter().filter(|c| **c == act(client, h1)).count(), 4);
    assert_eq!(calls.iter().filter(|c| **c == act(h1, h2)).count(), 4);
    assert_eq!(calls[8..], [act(client, h0), act(h0, h3)]);
    let (_, v) = c
        .bind_invoke(&Cle::new("TestObject", "obj"), methods::GET, &())
        .unwrap();
    assert_eq!(v, Some(1));
}

/// A move that aborts puts the object's lock holders back before the
/// binds parked on the move go on: a GREV bind at the object's host,
/// issued while the object was leaving for a crashed node, moves it to
/// its own destination with the holder, so a second client's lock there
/// queues behind the holder instead of being granted beside it.
#[test]
fn a_bind_parked_on_an_aborted_move_carries_the_lock_holders() {
    let mut rt = runtime(&["h0", "dead", "t", "holder", "waiter"]);
    let s0 = rt.session("h0").unwrap();
    s0.create(ObjectSpec::new("obj").class("TestObject"))
        .unwrap();
    let holder = rt.session("holder").unwrap();
    assert_eq!(holder.lock("obj", "holder").unwrap(), LockKind::Move);
    rt.crash("dead").unwrap();

    // The host starts a move to the crashed node; its next bind finds
    // the object in transit and parks until the move aborts.
    let doomed = s0
        .bind_async(&Grev::new("TestObject", "obj", "dead"))
        .unwrap();
    rt.advance(SimDuration::from_millis(1)).unwrap();
    let act = s0.bind_async(&Grev::new("TestObject", "obj", "t")).unwrap();
    rt.run_until_idle().unwrap();
    let dead = rt.node_id("dead").unwrap();
    assert_eq!(
        doomed.wait().unwrap_err(),
        MageError::Unreachable {
            peer: dead.as_raw()
        }
    );
    let t = rt.node_id("t").unwrap();
    assert_eq!(act.wait().unwrap().location(), t);

    // The holder's lock travelled to t: a second lock there queues.
    let waiter = rt.session("waiter").unwrap();
    let pending = waiter.lock_async("obj", "t").unwrap();
    rt.advance(SimDuration::from_millis(1)).unwrap();
    assert!(!pending.is_done(), "the holder's lock must still hold at t");
    assert_eq!(holder.find("obj").unwrap(), t);
    holder.unlock("obj").unwrap();
    assert_eq!(pending.wait().unwrap(), LockKind::Stay);
}

/// An act parked on a move that aborts is refused, not run: the abort
/// spent a whole call budget, and the client, whose act went out just
/// before the move began, has already re-sent it from the home. Only that
/// copy invokes, so one INC reads 1.
#[test]
fn an_act_parked_on_an_aborted_move_invokes_once() {
    let mut rt = runtime(&["h0", "h1", "dead", "c"]);
    let c = object_seen_at_h1(&rt);
    let s1 = rt.session("h1").unwrap();
    rt.crash("dead").unwrap();

    rt.world_mut().trace_mut().clear();
    let reader = c
        .bind_invoke_async(&Cle::new("TestObject", "obj"), methods::INC, &())
        .unwrap();
    let doomed = s1
        .bind_async(&Grev::new("TestObject", "obj", "dead"))
        .unwrap();
    rt.run_until_idle().unwrap();
    let [h0, h1, dead] = ["h0", "h1", "dead"].map(|n| rt.node_id(n).unwrap());
    assert_eq!(
        doomed.wait().unwrap_err(),
        MageError::Unreachable {
            peer: dead.as_raw()
        }
    );
    let (stub, v) = reader.wait().unwrap();
    assert_eq!((stub.location(), v), (h1, Some(1)));
    // Four sends of the parked act to h1, then the act from the home.
    let client = rt.node_id("c").unwrap();
    let acts: Vec<_> = service_calls(&rt)
        .into_iter()
        .filter(|(method, ..)| method == "act")
        .map(|(_, from, to)| (from, to))
        .collect();
    assert_eq!(acts[..4], [(client, h1); 4]);
    assert_eq!(acts[4..], [(client, h0), (h0, h1)]);
    let (_, v) = c
        .bind_invoke(&Cle::new("TestObject", "obj"), methods::GET, &())
        .unwrap();
    assert_eq!(v, Some(1));
}

/// A dead hop earns one act from the home, as a find walk earns one home
/// retry: with the object's host and its home both crashed, the bind
/// spends one budget on each and ends `Unreachable`, instead of spending
/// its race retries on the dead home.
#[test]
fn a_dead_hop_and_a_dead_home_end_the_bind_after_two_budgets() {
    let mut rt = runtime(&["h0", "h1", "c"]);
    let c = object_seen_at_h1(&rt);
    rt.crash("h1").unwrap();
    rt.crash("h0").unwrap();

    rt.world_mut().trace_mut().clear();
    let start = rt.now();
    let err = c
        .bind_invoke(&Cle::new("TestObject", "obj"), methods::INC, &())
        .unwrap_err();
    let h0 = rt.node_id("h0").unwrap();
    assert_eq!(err, MageError::Unreachable { peer: h0.as_raw() });
    assert_eq!(rt.now() - start, BUDGET.saturating_mul(2));
    // Four sends of the act to h1, then four to h0.
    assert_eq!(acts_and_finds(&rt), (8, 0));
}

/// An act that reaches its object mid-move waits for the move, then
/// follows it to its destination and completes there.
#[test]
fn an_act_that_reaches_a_moving_object_completes_after_the_move() {
    let mut rt = Runtime::builder()
        .fast()
        .seed(77)
        .nodes(["h0", "h1", "h2", "c"])
        .class(test_object_class())
        .trace(true)
        .build();
    // Only h0 and h1 cache the class: the move to h2 pushes it first,
    // which keeps the object in transit for a few round trips.
    rt.deploy_class("TestObject", "h0").unwrap();
    let c = object_seen_at_h1(&rt);
    let h1 = rt.session("h1").unwrap();

    rt.world_mut().trace_mut().clear();
    let forwards = act_forwards(&rt);
    let mover = h1
        .bind_async(&Grev::new("TestObject", "obj", "h2"))
        .unwrap();
    let reader = c
        .bind_invoke_async(&Cle::new("TestObject", "obj"), methods::INC, &())
        .unwrap();
    rt.run_until_idle().unwrap();
    let h2 = rt.node_id("h2").unwrap();
    assert_eq!(mover.wait().unwrap().location(), h2);
    let (stub, v) = reader.wait().unwrap();
    assert_eq!((stub.location(), v), (h2, Some(1)));
    // The act parked at h1 until the move committed, then went on to h2.
    assert_eq!(acts_and_finds(&rt), (2, 0));
    assert_eq!(act_forwards(&rt), forwards + 1);
}

/// RPC still denotes an immobile object: a bind whose object sits
/// elsewhere than the target reaches the object, which refuses it typed
/// with Table 2's exception cell, and nothing is invoked.
#[test]
fn an_rpc_bind_to_an_object_elsewhere_is_refused_where_it_is_found() {
    let mut rt = runtime(&["h0", "h1", "h2", "c"]);
    let c = object_seen_at_h1(&rt);
    rt.world_mut().trace_mut().clear();
    let err = c
        .bind_invoke(&Rpc::new("TestObject", "obj", "h2"), methods::INC, &())
        .unwrap_err();
    assert_eq!(
        err,
        MageError::Coercion {
            model: ModelKind::Rpc,
            situation: mage_core::coercion::Situation::RemoteNotAtTarget,
        }
    );
    assert_eq!(acts_and_finds(&rt), (1, 0));
    // Nothing ran: the object still reads 0.
    let (_, v) = c
        .bind_invoke(&Cle::new("TestObject", "obj"), methods::GET, &())
        .unwrap();
    assert_eq!(v, Some(0));
}

/// A bind's identity is advisory: a client that cached an incarnation
/// since re-created at the same node has its act refused as
/// `StaleIdentity`, forgets what it knew, acts again from the home
/// without an expected incarnation and reaches the new object.
#[test]
fn an_advisory_stale_incarnation_re_resolves() {
    let mut rt = runtime(&["h0", "h1", "c"]);
    let c = object_seen_at_h1(&rt);
    let old = c
        .bind(&Cle::new("TestObject", "obj"))
        .unwrap()
        .incarnation();

    rt.crash("h1").unwrap();
    rt.restart("h1").unwrap();
    rt.deploy_class("TestObject", "h1").unwrap();
    rt.session("h1")
        .unwrap()
        .create(ObjectSpec::new("obj").class("TestObject"))
        .unwrap();

    rt.world_mut().trace_mut().clear();
    let refusals = rt.world().metrics().counter("stale_identity_refusals");
    let (stub, v) = c
        .bind_invoke(&Cle::new("TestObject", "obj"), methods::INC, &())
        .unwrap();
    assert_eq!((stub.location(), v), (rt.node_id("h1").unwrap(), Some(1)));
    assert_ne!(stub.incarnation(), old);
    let world = rt.world();
    assert_eq!(
        world.metrics().counter("stale_identity_refusals"),
        refusals + 1
    );
    drop(world);
    // c to h1 (refused), then c to the home h0, forwarded to h1.
    assert_eq!(acts_and_finds(&rt), (3, 0));
}

// ---- move and invoke in one pass ----

/// A runtime on the default fabric and costs, so a bind's virtual time
/// counts its round trips; every node caches the class, so no push
/// interleaves.
fn timed_runtime(nodes: &[&str]) -> Runtime {
    let mut rt = Runtime::builder()
        .seed(77)
        .nodes(nodes.iter().copied())
        .class(test_object_class())
        .trace(true)
        .build();
    for node in nodes {
        rt.deploy_class("TestObject", node).unwrap();
    }
    rt
}

/// A message as (label, from, to).
type Msg = (String, NodeId, NodeId);

/// Every message a node sent since the trace was last cleared.
fn wire(rt: &Runtime) -> Vec<Msg> {
    rt.world()
        .trace()
        .events()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Send {
                from, to, label, ..
            } if !from.is_driver() => Some((label.clone(), *from, *to)),
            _ => None,
        })
        .collect()
}

/// The world's count of invocations run on arrival.
fn arrival_invokes(rt: &Runtime) -> u64 {
    rt.world().metrics().counter("arrival_invokes")
}

/// A measured bind: its runtime, its stub's location, its result, its
/// messages and its virtual time.
struct Measured {
    rt: Runtime,
    at: NodeId,
    result: Option<i64>,
    msgs: Vec<Msg>,
    elapsed: SimDuration,
}

/// A warm bind from `c`, with INC, of `attr`, whose object lives at `h`
/// and moves to `dest`. A first such bind, a move back to `h` from `dest`
/// and a read from `c`, which leaves `c`'s registry naming `h`, run first,
/// so every name the measured bind sends is already interned.
fn warm_move(attr: &dyn MobilityAttribute, dest: &str) -> Measured {
    let mut rt = timed_runtime(&["c", "h", "t"]);
    rt.session("h")
        .unwrap()
        .create(ObjectSpec::new("obj").class("TestObject"))
        .unwrap();
    let c = rt.session("c").unwrap();
    c.bind_invoke(attr, methods::INC, &()).unwrap();
    grev(&rt.session(dest).unwrap(), "h");
    c.bind_invoke(&Cle::new("TestObject", "obj"), methods::GET, &())
        .unwrap();
    rt.world_mut().trace_mut().clear();
    let start = rt.now();
    let (stub, result) = c.bind_invoke(attr, methods::INC, &()).unwrap();
    Measured {
        elapsed: rt.now() - start,
        msgs: wire(&rt),
        at: stub.location(),
        result,
        rt,
    }
}

/// Every unguarded built-in bind that moves its object is one exchange
/// with the host: act, the receive carrying the invocation, and the two
/// replies, the second bringing the result. REV and GREV to a third node,
/// COD to the client and MA each take two round trips on the default
/// fabric (the parent protocol's separate invoke made REV, GREV and COD
/// three, 88.4 and 66.0 ms here); COD sends no loopback invoke, MA no
/// one-way invoke.
#[test]
fn a_moving_bind_invokes_on_arrival_in_two_round_trips() {
    let cases = [
        (Rev::new("TestObject", "obj", "t"), "t", Some(2), 45_563),
        (Grev::new("TestObject", "obj", "t"), "t", Some(2), 45_563),
        (Cod::new("TestObject", "obj"), "c", Some(2), 45_563),
        (
            MobileAgent::new("TestObject", "obj", "t"),
            "t",
            None,
            45_560,
        ),
    ];
    for (attr, dest, result, micros) in cases {
        let bind = warm_move(&attr, dest);
        let rt = &bind.rt;
        let [c, h, dest] = ["c", "h", dest].map(|n| rt.node_id(n).unwrap());
        let model = attr.model();
        assert_eq!((bind.at, bind.result), (dest, result), "{model:?}");
        assert_eq!(
            bind.msgs,
            [
                ("call:mage.act".to_owned(), c, h),
                ("call:mage.receive".to_owned(), h, dest),
                ("rsp:ok".to_owned(), dest, h),
                ("rsp:ok".to_owned(), h, c),
            ],
            "{model:?}"
        );
        assert_eq!(bind.elapsed, SimDuration::from_micros(micros), "{model:?}");
        // The INC ran once per bind, at the destination.
        let (_, v) = rt
            .session("c")
            .unwrap()
            .bind_invoke(&Cle::new("TestObject", "obj"), methods::GET, &())
            .unwrap();
        assert_eq!(v, Some(2), "{model:?}");
        assert_eq!(arrival_invokes(rt), 2, "{model:?}");
    }
}

/// A guarded bind keeps §4.4's bracket: the session's find, the lock, the
/// act that moves the object, then the invocation at the destination and
/// the unlock. Its move carries no invocation.
#[test]
fn a_guarded_rev_still_locks_moves_invokes_and_unlocks() {
    let bind = warm_move(&Rev::new("TestObject", "obj", "t").guarded(), "t");
    let [c, h, t] = ["c", "h", "t"].map(|n| bind.rt.node_id(n).unwrap());
    assert_eq!((bind.at, bind.result), (t, Some(2)));
    let calls: Vec<_> = bind
        .msgs
        .into_iter()
        .filter(|(label, ..)| label.starts_with("call:"))
        .collect();
    let call = |method: &str, from, to| (format!("call:mage.{method}"), from, to);
    assert_eq!(
        calls,
        [
            call("find", c, h),
            call("lock", c, h),
            call("act", c, h),
            call("receive", h, t),
            call("invoke", c, t),
            call("unlock", c, t),
        ]
    );
    assert_eq!(arrival_invokes(&bind.rt), 0);
}

/// An invocation that faults on arrival surfaces typed, as a fault of an
/// invoke after the move would, and the move stands: the object is at its
/// destination, unchanged.
#[test]
fn an_invocation_that_faults_on_arrival_leaves_the_object_moved() {
    let rt = runtime(&["c", "h", "t"]);
    rt.session("h")
        .unwrap()
        .create(ObjectSpec::new("obj").class("TestObject"))
        .unwrap();
    let c = rt.session("c").unwrap();
    let nope: Method<(), i64> = Method::new("nope");
    let err = c
        .bind_invoke(&Rev::new("TestObject", "obj", "t"), nope, &())
        .unwrap_err();
    assert!(
        matches!(&err, MageError::Rmi(msg) if msg.contains("nope")),
        "{err:?}"
    );
    let t = rt.node_id("t").unwrap();
    assert_eq!(c.find("obj").unwrap(), t);
    let (stub, v) = c
        .bind_invoke(&Cle::new("TestObject", "obj"), methods::GET, &())
        .unwrap();
    assert_eq!((stub.location(), v), (t, Some(0)));
    assert_eq!(arrival_invokes(&rt), 1);
}

/// A destination without the class refuses the first receive before
/// hosting anything; the host pushes the class and resends the same
/// bytes, invocation included, which runs exactly once.
#[test]
fn a_class_missing_resend_runs_the_invocation_once() {
    let mut rt = Runtime::builder()
        .fast()
        .seed(77)
        .nodes(["c", "h", "t"])
        .class(test_object_class())
        .trace(true)
        .build();
    rt.deploy_class("TestObject", "h").unwrap();
    rt.session("h")
        .unwrap()
        .create(ObjectSpec::new("obj").class("TestObject"))
        .unwrap();
    rt.world_mut().trace_mut().clear();
    let c = rt.session("c").unwrap();
    let (stub, v) = c
        .bind_invoke(&Rev::new("TestObject", "obj", "t"), methods::INC, &())
        .unwrap();
    let [h, t] = ["h", "t"].map(|n| rt.node_id(n).unwrap());
    assert_eq!((stub.location(), v), (t, Some(1)));
    let calls: Vec<_> = service_calls(&rt)
        .into_iter()
        .filter(|(_, from, _)| *from == h)
        .map(|(method, _, to)| (method, to))
        .collect();
    let to_t = |method: &str| (method.to_owned(), t);
    assert_eq!(
        calls,
        [to_t("receive"), to_t("receiveClass"), to_t("receive")]
    );
    assert_eq!(arrival_invokes(&rt), 1);
    let (_, v) = c
        .bind_invoke(&Cle::new("TestObject", "obj"), methods::GET, &())
        .unwrap();
    assert_eq!(v, Some(1));
}

/// At most once across a lost receive reply: the link between the
/// destination and the host goes down right after the receive carrying
/// an INC left the host. The destination hosts the object and runs the
/// INC; its reply never arrives, so the host's move spends its budget and
/// aborts, putting its own copy back in service, and the client's act to
/// the home runs out as well. The bind ends typed, nothing re-sends the
/// invocation, and neither copy shows the INC twice.
#[test]
fn a_lost_receive_reply_runs_the_carried_invocation_at_most_once() {
    let mut rt = runtime(&["c", "h", "t"]);
    rt.session("h")
        .unwrap()
        .create(ObjectSpec::new("obj").class("TestObject"))
        .unwrap();
    rt.world_mut().trace_mut().clear();
    let c = rt.session("c").unwrap();
    let pending = c
        .bind_invoke_async(&Rev::new("TestObject", "obj", "t"), methods::INC, &())
        .unwrap();
    let [h, t] = ["h", "t"].map(|n| rt.node_id(n).unwrap());
    while !service_calls(&rt).contains(&("receive".to_owned(), h, t)) {
        assert!(rt.step(), "the receive must leave the host");
    }
    rt.partition_between("t", "h").unwrap();
    rt.run_until_idle().unwrap();
    assert_eq!(
        pending.wait().unwrap_err(),
        MageError::Unreachable { peer: h.as_raw() }
    );
    assert_eq!(arrival_invokes(&rt), 1);
    assert_eq!(
        service_calls(&rt)
            .iter()
            .filter(|c| c.0 == "invoke")
            .count(),
        0
    );
    rt.heal_between("t", "h").unwrap();
    for (node, count) in [("t", 1), ("h", 0)] {
        let (stub, v) = rt
            .session(node)
            .unwrap()
            .bind_invoke(&Cle::new("TestObject", "obj"), methods::GET, &())
            .unwrap();
        assert_eq!(
            (stub.location(), v),
            (rt.node_id(node).unwrap(), Some(count))
        );
    }
    assert_eq!(arrival_invokes(&rt), 1);
}

/// The same loss when the client hosts the object, which is replicated:
/// the move fails `Unreachable` at the destination, where the INC may
/// have run, so the bind's once-only consultation of the backup home is
/// not spent on a restore that would move and invoke again.
#[test]
fn a_lost_receive_reply_of_a_client_hosted_move_restores_nothing() {
    let mut rt = runtime(&["c", "t", "b"]);
    let c = rt.session("c").unwrap();
    c.create(
        ObjectSpec::new("obj")
            .class("TestObject")
            .durability(Durability::Replicated { backups: 1 })
            .backup("b"),
    )
    .unwrap();
    rt.run_until_idle().unwrap();
    rt.world_mut().trace_mut().clear();
    let pending = c
        .bind_invoke_async(&Rev::new("TestObject", "obj", "t"), methods::INC, &())
        .unwrap();
    let [client, t] = ["c", "t"].map(|n| rt.node_id(n).unwrap());
    while !service_calls(&rt).contains(&("receive".to_owned(), client, t)) {
        assert!(rt.step(), "the receive must leave the client");
    }
    rt.partition_between("c", "t").unwrap();
    rt.run_until_idle().unwrap();
    assert_eq!(
        pending.wait().unwrap_err(),
        MageError::Unreachable { peer: t.as_raw() }
    );
    assert_eq!(arrival_invokes(&rt), 1);
    let calls = service_calls(&rt);
    assert!(
        !calls.iter().any(|c| c.0 == "restore" || c.0 == "act"),
        "{calls:?}"
    );
    rt.heal_between("c", "t").unwrap();
    for (node, count) in [("t", 1), ("c", 0)] {
        let (stub, v) = rt
            .session(node)
            .unwrap()
            .bind_invoke(&Cle::new("TestObject", "obj"), methods::GET, &())
            .unwrap();
        assert_eq!(
            (stub.location(), v),
            (rt.node_id(node).unwrap(), Some(count))
        );
    }
}
