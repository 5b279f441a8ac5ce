//! Edge cases of the RMI endpoint: at-most-once across the caller's retry
//! horizon, server-only endpoints, the compute-charge API and malformed
//! traffic.

use std::cell::Cell;
use std::rc::Rc;

use bytes::Bytes;
use mage_rmi::{
    client_endpoint, drive_call, Config, DriverCmd, Endpoint, Fault, ObjectEnv, RemoteObject,
    RmiError, ServerOnly,
};
use mage_sim::{LinkSpec, NodeId, OpId, SimDuration, SimTime, World};

struct Counter {
    hits: Rc<Cell<u64>>,
    service_time: SimDuration,
}

impl RemoteObject for Counter {
    fn invoke(
        &mut self,
        method: &str,
        _args: &[u8],
        env: &mut ObjectEnv<'_>,
    ) -> Result<Vec<u8>, Fault> {
        match method {
            "inc" => {
                env.consume(self.service_time);
                self.hits.set(self.hits.get() + 1);
                Ok(mage_rmi::encode_args(&self.hits.get()).expect("encodes"))
            }
            other => Err(Fault::NoSuchMethod {
                object: "counter".into(),
                method: other.into(),
            }),
        }
    }
}

/// Adds a server `s` with a zero-cost `counter` bound.
fn counter_server(world: &mut World, cfg: Config, hits: &Rc<Cell<u64>>) -> NodeId {
    let mut server_ep: Endpoint<ServerOnly> = Endpoint::new(ServerOnly, cfg);
    server_ep.bind(
        "counter",
        Box::new(Counter {
            hits: Rc::clone(hits),
            service_time: SimDuration::ZERO,
        }),
    );
    world.add_node("s", server_ep)
}

#[test]
fn server_only_endpoints_serve_bound_objects() {
    let hits = Rc::new(Cell::new(0));
    let mut world = World::new(3);
    let cfg = Config::zero_cost();
    let client = world.add_node("c", client_endpoint(cfg));
    let server = counter_server(&mut world, cfg, &hits);
    let out = drive_call(&mut world, client, server, "counter", "inc", vec![])
        .unwrap()
        .unwrap();
    let n: u64 = mage_rmi::decode_result(&out).unwrap();
    assert_eq!(n, 1);
    // A ServerOnly app leaves unknown objects unhandled.
    let err = drive_call(&mut world, client, server, "ghost", "inc", vec![])
        .unwrap()
        .unwrap_err();
    assert!(err.contains("no object bound"), "{err}");
}

#[test]
fn service_time_delays_the_response() {
    let hits = Rc::new(Cell::new(0));
    let mut world = World::new(4);
    let cfg = Config::zero_cost();
    let client = world.add_node("c", client_endpoint(cfg));
    let mut server_ep: Endpoint<ServerOnly> = Endpoint::new(ServerOnly, cfg);
    server_ep.bind(
        "slow",
        Box::new(Counter {
            hits: Rc::clone(&hits),
            service_time: SimDuration::from_millis(25),
        }),
    );
    let server = world.add_node("s", server_ep);
    let start = world.now();
    drive_call(&mut world, client, server, "slow", "inc", vec![])
        .unwrap()
        .unwrap();
    assert_eq!(world.now() - start, SimDuration::from_millis(25));
}

#[test]
fn many_distinct_calls_each_run_once() {
    // 50 distinct calls on the default config: every one executes exactly
    // once and answers with its own count (the call table's bound on age
    // is a unit test in `endpoint.rs`).
    let hits = Rc::new(Cell::new(0));
    let mut world = World::new(5);
    let cfg = Config::zero_cost();
    let client = world.add_node("c", client_endpoint(cfg));
    let server = counter_server(&mut world, cfg, &hits);
    for i in 1..=50u64 {
        let out = drive_call(&mut world, client, server, "counter", "inc", vec![])
            .unwrap()
            .unwrap();
        let n: u64 = mage_rmi::decode_result(&out).unwrap();
        assert_eq!(n, i);
    }
    assert_eq!(hits.get(), 50);
}

/// A counter server `s` plus client `c1`, whose replies from `s` are all
/// lost until the test restores the link; `c1` has issued one `inc`, and
/// the server has run it. Returns the world, `c1`, the server and `c1`'s
/// pending op.
fn lost_reply_world(hits: &Rc<Cell<u64>>) -> (World, NodeId, NodeId, OpId) {
    let mut world = World::new(8);
    let cfg = Config::zero_cost();
    let c1 = world.add_node("c1", client_endpoint(cfg));
    let server = counter_server(&mut world, cfg, hits);
    let net = world.network_mut();
    net.set_link(server, c1, one_ms().with_loss(1.0));
    net.set_link(c1, server, one_ms());
    let op = world.begin_op();
    let cmd = DriverCmd {
        op,
        to: server,
        object: "counter".into(),
        method: "inc".into(),
        args: vec![],
        result: None,
    };
    world.inject(c1, "inc", Box::new(cmd));
    while hits.get() == 0 {
        assert!(world.step(), "the first copy reaches the server");
    }
    (world, c1, server, op)
}

fn one_ms() -> LinkSpec {
    LinkSpec::ideal().with_latency(SimDuration::from_millis(1))
}

/// At-most-once does not depend on how much other traffic the server
/// answers: 1024 calls from another client between the lost reply and
/// its retransmit leave the reply in the call table, so the retransmit is
/// answered with `1` instead of running `inc` again.
#[test]
fn a_lost_reply_survives_any_number_of_intervening_calls() {
    let hits = Rc::new(Cell::new(0));
    let (mut world, c1, server, op) = lost_reply_world(&hits);
    let c2 = world.add_node("c2", client_endpoint(Config::zero_cost()));
    for _ in 0..1024 {
        drive_call(&mut world, c2, server, "counter", "inc", vec![])
            .unwrap()
            .unwrap();
    }
    world.network_mut().set_link(server, c1, one_ms());
    let done: DriverCmd = world.block_on(op).unwrap();
    let n: u64 = mage_rmi::decode_result(&done.result.unwrap().unwrap()).unwrap();
    assert_eq!(hits.get(), 1025, "c1's inc ran once");
    assert_eq!(n, 1);
}

/// Known gap, pinned: the call table keeps a reply for the caller's retry
/// horizon, `(max_retries + 2) × call_timeout`, which assumes every
/// one-way delay is below `call_timeout`. A last copy delayed beyond that
/// finds the reply gone and runs the call a second time.
#[test]
fn a_copy_delayed_past_the_horizon_runs_again() {
    let hits = Rc::new(Cell::new(0));
    let (mut world, c1, server, op) = lost_reply_world(&hits);
    let cfg = Config::zero_cost();
    // Copies leave every `call_timeout` from time zero. Slow the link just
    // before the last one leaves, by more than the two timeouts the
    // horizon (counted from the first copy's arrival at 1 ms) has left.
    let last_copy = cfg.call_timeout.saturating_mul(u64::from(cfg.max_retries));
    world
        .run_until(SimTime::ZERO + (last_copy - SimDuration::from_millis(1)))
        .unwrap();
    assert_eq!(hits.get(), 1, "earlier copies were answered from the table");
    let slow = cfg.call_timeout.saturating_mul(3);
    world
        .network_mut()
        .set_link(c1, server, LinkSpec::ideal().with_latency(slow));
    let done: DriverCmd = world.block_on(op).unwrap();
    assert!(
        matches!(done.result, Some(Err(RmiError::PeerUnreachable { .. }))),
        "{:?}",
        done.result
    );
    world.run_until_idle().unwrap();
    assert_eq!(hits.get(), 2, "the late copy ran the call again");
}

#[test]
fn malformed_wire_bytes_are_ignored_not_fatal() {
    let hits = Rc::new(Cell::new(0));
    let mut world = World::new(6);
    let cfg = Config::zero_cost();
    let client = world.add_node("c", client_endpoint(cfg));
    let server = counter_server(&mut world, cfg, &hits);
    // Driver payloads reach the app; ServerOnly ignores them. Then verify
    // the endpoint still serves calls.
    world.inject(
        server,
        "garbage",
        Box::new(Bytes::from_static(&[0xFF, 0x13, 0x37])),
    );
    world.run_until_idle().unwrap();
    let out = drive_call(&mut world, client, server, "counter", "inc", vec![])
        .unwrap()
        .unwrap();
    let n: u64 = mage_rmi::decode_result(&out).unwrap();
    assert_eq!(n, 1);
}
