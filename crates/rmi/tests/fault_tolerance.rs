//! Crash/restart and partition fault tolerance of the RMI substrate.
//!
//! Partial failure must surface as *typed errors*, never as hangs: a call
//! across an active partition exhausts its retry budget and yields
//! [`RmiError::PeerUnreachable`]; healing the partition lets a fresh call
//! succeed; a crashed-and-restarted server is re-taught the interned name
//! strings its previous incarnation had acknowledged.

use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use mage_rmi::{
    encode_args, server_endpoint, App, Config, Endpoint, Env, Fault, ObjectEnv, RemoteObject,
    RmiError,
};
use mage_sim::{LinkSpec, NodeId, SimDuration, World};
use proptest::prelude::*;

/// Per-reply record captured outside the world.
type Captured = Rc<RefCell<Vec<(u64, Result<Vec<u8>, RmiError>)>>>;

/// A client app that issues one call per driver command and captures the
/// *typed* reply, so tests can assert on error variants instead of
/// stringified messages.
struct CaptureApp {
    results: Captured,
}

impl App for CaptureApp {
    fn on_driver(&mut self, env: &mut Env<'_, '_>, payload: Box<dyn Any>) {
        let (to, object, method, token) = *payload
            .downcast::<(NodeId, &'static str, &'static str, u64)>()
            .expect("driver command type");
        env.call(to, object, method, b"", token);
    }

    fn on_reply(&mut self, _env: &mut Env<'_, '_>, token: u64, result: Result<Bytes, RmiError>) {
        self.results
            .borrow_mut()
            .push((token, result.map(|b| b.to_vec())));
    }
}

struct Echo;

impl RemoteObject for Echo {
    fn invoke(
        &mut self,
        _method: &str,
        _args: &[u8],
        _env: &mut ObjectEnv<'_>,
    ) -> Result<Vec<u8>, Fault> {
        Ok(encode_args(&42u32).expect("encodes"))
    }
}

fn capture_world(seed: u64) -> (World, NodeId, NodeId, Captured) {
    let results: Captured = Rc::new(RefCell::new(Vec::new()));
    let cfg = Config {
        call_timeout: SimDuration::from_millis(50),
        max_retries: 3,
        ..Config::zero_cost()
    };
    let mut world = World::new(seed);
    let app_results = Rc::clone(&results);
    let client = world.add_node(
        "client",
        Endpoint::new(
            CaptureApp {
                results: app_results,
            },
            cfg,
        ),
    );
    let server = world.add_node_with("server", move || {
        Box::new(server_endpoint(cfg, "echo", Box::new(Echo)))
    });
    world.set_link_bidi(
        client,
        server,
        LinkSpec::ideal().with_latency(SimDuration::from_millis(1)),
    );
    (world, client, server, results)
}

fn issue(world: &mut World, client: NodeId, server: NodeId, token: u64) {
    world.inject(client, "cmd", Box::new((server, "echo", "poke", token)));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A call issued across an active partition never hangs: it exhausts
    /// its retries and yields a typed `PeerUnreachable`. Healing the
    /// partition lets a fresh call succeed.
    #[test]
    fn prop_partitioned_call_fails_typed_then_heals(seed in 0u64..1000) {
        let (mut world, client, server, results) = capture_world(seed);
        world.partition(client, server);
        issue(&mut world, client, server, 1);
        world.run_until_idle().unwrap();
        {
            let got = results.borrow();
            prop_assert_eq!(got.len(), 1, "the call must resolve, not hang");
            let (token, result) = &got[0];
            prop_assert_eq!(*token, 1);
            prop_assert!(
                matches!(
                    result,
                    Err(RmiError::PeerUnreachable { peer, attempts })
                        if *peer == server && *attempts == 4
                ),
                "expected PeerUnreachable, got {:?}",
                result
            );
        }
        world.heal(client, server);
        issue(&mut world, client, server, 2);
        world.run_until_idle().unwrap();
        let got = results.borrow();
        prop_assert_eq!(got.len(), 2);
        prop_assert!(got[1].1.is_ok(), "post-heal call must succeed: {:?}", got[1].1);
    }

    /// Crashing the server mid-conversation also resolves to
    /// `PeerUnreachable`; restarting it lets later calls succeed (the
    /// endpoint re-primes and re-ships names to the fresh incarnation).
    #[test]
    fn prop_crashed_server_fails_typed_then_restart_recovers(seed in 0u64..1000) {
        let (mut world, client, server, results) = capture_world(seed);
        issue(&mut world, client, server, 1);
        world.run_until_idle().unwrap();
        prop_assert!(results.borrow()[0].1.is_ok());

        world.crash(server);
        issue(&mut world, client, server, 2);
        world.run_until_idle().unwrap();
        {
            let got = results.borrow();
            prop_assert_eq!(got.len(), 2, "the call must resolve, not hang");
            prop_assert!(
                matches!(got[1].1, Err(RmiError::PeerUnreachable { .. })),
                "expected PeerUnreachable, got {:?}",
                got[1].1
            );
        }

        world.restart(server);
        issue(&mut world, client, server, 3);
        world.run_until_idle().unwrap();
        let got = results.borrow();
        prop_assert_eq!(got.len(), 3);
        prop_assert!(got[2].1.is_ok(), "post-restart call must succeed: {:?}", got[2].1);
    }
}
