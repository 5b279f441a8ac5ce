//! Property tests for the simulator's core guarantees: determinism, causal
//! ordering and conservation of messages.

use std::any::Any;

use bytes::Bytes;
use mage_sim::{Actor, Context, LinkSpec, NodeId, SimDuration, SimTime, TraceEvent, World};
use proptest::prelude::*;

/// A gossiping actor: every received message is forwarded to the next node
/// (ring topology) with one byte appended, until the payload reaches a
/// configured size. A driver injection starts the gossip from an empty
/// payload.
struct Gossip {
    ring_size: u32,
    stop_at: usize,
}

impl Actor for Gossip {
    fn on_message(&mut self, ctx: &mut Context<'_>, _from: NodeId, payload: Bytes) {
        if payload.len() >= self.stop_at {
            return;
        }
        let mut next = Vec::with_capacity(payload.len() + 1);
        next.extend_from_slice(&payload);
        next.push(payload.len() as u8);
        let target = NodeId::from_raw((ctx.node().as_raw() + 1) % self.ring_size);
        ctx.send(target, "gossip", Bytes::from(next));
    }

    fn on_driver(&mut self, ctx: &mut Context<'_>, _payload: Box<dyn Any>) {
        self.on_message(ctx, NodeId::DRIVER, Bytes::new());
    }
}

fn build_ring(seed: u64, nodes: u32, latency_us: u64, jitter_us: u64, stop_at: usize) -> World {
    let mut world = World::new(seed);
    for i in 0..nodes {
        world.add_node(
            format!("n{i}"),
            Gossip {
                ring_size: nodes,
                stop_at,
            },
        );
    }
    let spec = LinkSpec::ideal()
        .with_latency(SimDuration::from_micros(latency_us))
        .with_jitter(SimDuration::from_micros(jitter_us));
    for a in 0..nodes {
        for b in 0..nodes {
            if a != b {
                world
                    .network_mut()
                    .set_link(NodeId::from_raw(a), NodeId::from_raw(b), spec);
            }
        }
    }
    world
}

fn fingerprint(world: &World) -> (SimTime, u64, u64, u64) {
    let m = world.metrics();
    (world.now(), m.net.sent, m.net.delivered, m.net.dropped)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn identical_configs_produce_identical_runs(
        seed in any::<u64>(),
        nodes in 2u32..6,
        latency_us in 0u64..5_000,
        jitter_us in 0u64..1_000,
    ) {
        let run = || {
            let mut world = build_ring(seed, nodes, latency_us, jitter_us, 40);
            world.inject(NodeId::from_raw(0), "start", Box::new(()));
            world.run_until_idle().unwrap();
            fingerprint(&world)
        };
        prop_assert_eq!(run(), run());
    }

    #[test]
    fn deliveries_never_exceed_sends(
        seed in any::<u64>(),
        loss in 0.0f64..0.9,
    ) {
        let mut world = World::new(seed);
        for i in 0..3u32 {
            world.add_node(format!("n{i}"), Gossip { ring_size: 3, stop_at: 64 });
        }
        let spec = LinkSpec::ideal().with_loss(loss);
        for a in 0..3u32 {
            for b in 0..3u32 {
                if a != b {
                    world
                        .network_mut()
                        .set_link(NodeId::from_raw(a), NodeId::from_raw(b), spec);
                }
            }
        }
        world.inject(NodeId::from_raw(0), "start", Box::new(()));
        world.run_until_idle().unwrap();
        let m = world.metrics();
        // Driver injection counts as a delivery but not a network send.
        prop_assert!(m.net.delivered <= m.net.sent + 1);
        prop_assert_eq!(m.net.sent + 1, m.net.delivered + m.net.dropped);
    }

    #[test]
    fn trace_timestamps_are_monotone_for_deliveries(
        seed in any::<u64>(),
        latency_us in 1u64..2_000,
    ) {
        let mut world = build_ring(seed, 3, latency_us, 0, 30);
        world.trace_mut().enable();
        world.inject(NodeId::from_raw(0), "start", Box::new(()));
        world.run_until_idle().unwrap();
        let mut last = SimTime::ZERO;
        for event in world.trace().events() {
            if let TraceEvent::Deliver { at, .. } = event {
                prop_assert!(*at >= last, "delivery time went backwards");
                last = *at;
            }
        }
    }

    #[test]
    fn send_precedes_matching_delivery(
        seed in any::<u64>(),
        latency_us in 0u64..2_000,
        jitter_us in 0u64..500,
    ) {
        let mut world = build_ring(seed, 4, latency_us, jitter_us, 24);
        world.trace_mut().enable();
        world.inject(NodeId::from_raw(0), "start", Box::new(()));
        world.run_until_idle().unwrap();
        let events = world.trace().events();
        for event in events {
            if let TraceEvent::Deliver { at, msg_id, .. } = event {
                let send = events.iter().find_map(|e| match e {
                    TraceEvent::Send { at, msg_id: id, .. } if id == msg_id => Some(*at),
                    _ => None,
                });
                let send_at = send.expect("every delivery has a send");
                prop_assert!(send_at <= *at, "send after delivery");
            }
        }
    }
}

#[test]
fn partitioned_ring_drops_exactly_one_message() {
    let mut world = build_ring(11, 3, 100, 0, 10);
    world.partition(NodeId::from_raw(0), NodeId::from_raw(1));
    world.inject(NodeId::from_raw(0), "start", Box::new(()));
    world.run_until_idle().unwrap();
    assert_eq!(world.metrics().net.dropped, 1);
    assert_eq!(world.metrics().net.sent, 1);
}

#[test]
fn healed_partition_allows_progress() {
    let mut world = build_ring(11, 3, 100, 0, 4);
    world.partition(NodeId::from_raw(0), NodeId::from_raw(1));
    world.heal(NodeId::from_raw(0), NodeId::from_raw(1));
    world.inject(NodeId::from_raw(0), "start", Box::new(()));
    world.run_until_idle().unwrap();
    assert_eq!(world.metrics().net.dropped, 0);
    assert!(world.metrics().net.delivered > 1);
}
