//! End-to-end semantics of the RMI substrate: at-most-once execution,
//! retransmission, timeouts, faults and deferred replies.

use std::cell::Cell;
use std::rc::Rc;

use bytes::Bytes;
use mage_rmi::{
    client_endpoint, drive_call, encode_args, server_endpoint, App, CallOutcome, Config, Endpoint,
    Env, Fault, InboundCall, ObjectEnv, RemoteObject, ReplyHandle, RmiError,
};
use mage_sim::{LinkSpec, NodeId, OpId, SimDuration, World};

/// A counter whose increments are observable from outside the world.
struct Counter {
    hits: Rc<Cell<u64>>,
}

impl RemoteObject for Counter {
    fn invoke(
        &mut self,
        method: &str,
        _args: &[u8],
        _env: &mut ObjectEnv<'_>,
    ) -> Result<Vec<u8>, Fault> {
        match method {
            "inc" => {
                self.hits.set(self.hits.get() + 1);
                Ok(encode_args(&self.hits.get()).expect("encodes"))
            }
            "boom" => Err(Fault::App("deliberate failure".into())),
            other => Err(Fault::NoSuchMethod {
                object: "counter".into(),
                method: other.into(),
            }),
        }
    }
}

fn lossy_world(loss: f64, seed: u64) -> (World, NodeId, NodeId, Rc<Cell<u64>>) {
    let hits = Rc::new(Cell::new(0));
    let mut world = World::new(seed);
    let cfg = Config {
        call_timeout: SimDuration::from_millis(50),
        max_retries: 25,
        ..Config::zero_cost()
    };
    let client = world.add_node("client", client_endpoint(cfg));
    let server = world.add_node(
        "server",
        server_endpoint(
            cfg,
            "counter",
            Box::new(Counter {
                hits: Rc::clone(&hits),
            }),
        ),
    );
    world.set_link_bidi(
        client,
        server,
        LinkSpec::ideal()
            .with_latency(SimDuration::from_millis(1))
            .with_loss(loss),
    );
    (world, client, server, hits)
}

#[test]
fn basic_call_roundtrip() {
    let (mut world, client, server, hits) = lossy_world(0.0, 1);
    let result = drive_call(&mut world, client, server, "counter", "inc", vec![])
        .unwrap()
        .unwrap();
    let count: u64 = mage_rmi::decode_result(&result).unwrap();
    assert_eq!(count, 1);
    assert_eq!(hits.get(), 1);
}

#[test]
fn not_bound_fault_propagates() {
    let (mut world, client, server, _) = lossy_world(0.0, 1);
    let err = drive_call(&mut world, client, server, "missing", "m", vec![])
        .unwrap()
        .unwrap_err();
    assert!(err.contains("no object bound"), "{err}");
}

#[test]
fn no_such_method_fault_propagates() {
    let (mut world, client, server, _) = lossy_world(0.0, 1);
    let err = drive_call(&mut world, client, server, "counter", "nope", vec![])
        .unwrap()
        .unwrap_err();
    assert!(err.contains("no method"), "{err}");
}

#[test]
fn app_fault_propagates() {
    let (mut world, client, server, hits) = lossy_world(0.0, 1);
    let err = drive_call(&mut world, client, server, "counter", "boom", vec![])
        .unwrap()
        .unwrap_err();
    assert!(err.contains("deliberate failure"), "{err}");
    assert_eq!(hits.get(), 0);
}

#[test]
fn at_most_once_under_heavy_loss() {
    // 40% loss in both directions: retransmissions fire constantly, yet each
    // logical call must execute exactly once.
    let (mut world, client, server, hits) = lossy_world(0.4, 42);
    for i in 1..=20u64 {
        let result = drive_call(&mut world, client, server, "counter", "inc", vec![])
            .unwrap()
            .unwrap();
        let count: u64 = mage_rmi::decode_result(&result).unwrap();
        assert_eq!(count, i, "response reflects exactly-once execution");
    }
    assert_eq!(hits.get(), 20);
    // Loss must actually have occurred for this test to mean anything.
    assert!(world.metrics().net.dropped > 0, "expected some loss");
}

#[test]
fn retransmissions_preserve_responses_across_seeds() {
    for seed in 0..10 {
        let (mut world, client, server, hits) = lossy_world(0.5, seed);
        for _ in 0..5 {
            drive_call(&mut world, client, server, "counter", "inc", vec![])
                .unwrap()
                .unwrap();
        }
        assert_eq!(hits.get(), 5, "seed {seed}");
    }
}

#[test]
fn unreachable_after_partition() {
    let (mut world, client, server, _) = lossy_world(0.0, 1);
    world.partition(client, server);
    let err = drive_call(&mut world, client, server, "counter", "inc", vec![])
        .unwrap()
        .unwrap_err();
    assert!(err.contains("unreachable"), "{err}");
}

#[test]
fn call_succeeds_after_partition_heals_mid_call() {
    let (mut world, client, server, hits) = lossy_world(0.0, 1);
    world.partition(client, server);
    let op = world.begin_op();
    let cmd = mage_rmi::DriverCmd {
        op,
        to: server,
        object: "counter".into(),
        method: "inc".into(),
        args: vec![],
        result: None,
    };
    world.inject(client, "drive-call", Box::new(cmd));
    // Let the first transmission be dropped, then heal; a retransmission
    // must get through.
    world
        .run_until(mage_sim::SimTime::from_micros(10_000))
        .unwrap();
    world.heal(client, server);
    let done: mage_rmi::DriverCmd = world.block_on(op).unwrap();
    assert!(matches!(done.result, Some(Ok(_))));
    assert_eq!(hits.get(), 1);
}

/// An app that defers every inbound call and answers it after a fixed
/// virtual delay — the pattern MAGE's servers use for nested operations.
struct DeferringApp {
    queue: Vec<ReplyHandle>,
}

impl App for DeferringApp {
    fn on_call(&mut self, env: &mut Env<'_, '_>, _from: NodeId, call: InboundCall) -> CallOutcome {
        self.queue.push(call.handle());
        env.set_timer(SimDuration::from_millis(5), 1);
        CallOutcome::Deferred
    }

    fn on_timer(&mut self, env: &mut Env<'_, '_>, _tag: u64) {
        if let Some(handle) = self.queue.pop() {
            env.reply(handle, Ok(b"deferred-ok".to_vec()));
        }
    }
}

#[test]
fn deferred_replies_complete_calls() {
    let mut world = World::new(3);
    let cfg = Config::zero_cost();
    let client = world.add_node("client", client_endpoint(cfg));
    let server = world.add_node(
        "server",
        Endpoint::new(DeferringApp { queue: Vec::new() }, cfg),
    );
    let result = drive_call(&mut world, client, server, "svc", "work", vec![])
        .unwrap()
        .unwrap();
    assert_eq!(result, b"deferred-ok");
}

/// An app that forwards each inbound call to a backend node and replies to
/// the original caller when the backend answers — a two-hop nested call,
/// the building block of MAGE's registry forwarding chains.
struct ProxyApp {
    backend: Option<NodeId>,
    waiting: std::collections::HashMap<u64, ReplyHandle>,
    next_token: u64,
}

impl App for ProxyApp {
    fn on_call(&mut self, env: &mut Env<'_, '_>, _from: NodeId, call: InboundCall) -> CallOutcome {
        let backend = self.backend.expect("backend configured");
        let token = self.next_token;
        self.next_token += 1;
        self.waiting.insert(token, call.handle());
        env.call(
            backend,
            call.object().to_owned(),
            call.method().to_owned(),
            call.into_args(),
            token,
        );
        CallOutcome::Deferred
    }

    fn on_reply(&mut self, env: &mut Env<'_, '_>, token: u64, result: Result<Bytes, RmiError>) {
        let handle = self.waiting.remove(&token).expect("token known");
        let result = result
            .map(|b| b.to_vec())
            .map_err(|e| Fault::App(e.to_string()));
        env.reply(handle, result);
    }
}

#[test]
fn nested_calls_chain_through_a_proxy() {
    let hits = Rc::new(Cell::new(0));
    let mut world = World::new(4);
    let cfg = Config::zero_cost();
    let client = world.add_node("client", client_endpoint(cfg));
    let proxy = world.add_node(
        "proxy",
        Endpoint::new(
            ProxyApp {
                backend: None,
                waiting: std::collections::HashMap::new(),
                next_token: 0,
            },
            cfg,
        ),
    );
    let backend = world.add_node(
        "backend",
        server_endpoint(
            cfg,
            "counter",
            Box::new(Counter {
                hits: Rc::clone(&hits),
            }),
        ),
    );
    // Rebuild proxy with the backend id known (nodes are added in order, so
    // instead just drive through: the proxy needs its backend).
    let _ = proxy;
    let proxy = world.add_node(
        "proxy2",
        Endpoint::new(
            ProxyApp {
                backend: Some(backend),
                waiting: std::collections::HashMap::new(),
                next_token: 0,
            },
            cfg,
        ),
    );
    let result = drive_call(&mut world, client, proxy, "counter", "inc", vec![])
        .unwrap()
        .unwrap();
    let count: u64 = mage_rmi::decode_result(&result).unwrap();
    assert_eq!(count, 1);
    assert_eq!(hits.get(), 1);
}

#[test]
fn duplicate_driver_ops_do_not_confuse_endpoints() {
    // Two concurrent calls from the same client interleave without
    // cross-talk: each op gets its own response.
    let (mut world, client, server, hits) = lossy_world(0.0, 9);
    let mut ops: Vec<OpId> = Vec::new();
    for _ in 0..4 {
        let op = world.begin_op();
        let cmd = mage_rmi::DriverCmd {
            op,
            to: server,
            object: "counter".into(),
            method: "inc".into(),
            args: vec![],
            result: None,
        };
        world.inject(client, "drive-call", Box::new(cmd));
        ops.push(op);
    }
    for op in ops {
        let done: mage_rmi::DriverCmd = world.block_on(op).unwrap();
        assert!(matches!(done.result, Some(Ok(_))));
    }
    assert_eq!(hits.get(), 4);
}
