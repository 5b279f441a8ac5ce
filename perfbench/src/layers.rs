//! Isolated layer rows, timed by calling each layer's public functions
//! from outside: `mage_codec` on object state, `mage_rmi::wire` on frames
//! shaped like the workload's, a raw `drive_call` round trip, and each
//! `Session` operation on a small runtime with the paper's defaults.

use std::hint::black_box;
use std::time::{Duration, Instant};

use bytes::Bytes;
use mage_core::attribute::{Cle, Cod, Grev, Lpc, MobileAgent, MobilityAttribute, Rev, Rpc};
use mage_core::{Durability, ObjectHandle, ObjectSpec, Runtime};
use mage_rmi::wire::{encode_call_req, WireMsg};
use mage_rmi::{client_endpoint, drive_call, server_endpoint, Config, Fault, NameId, ObjectEnv};
use mage_sim::{LinkSpec, Network, SimTime, World};

use crate::alloc;
use crate::blob::{self, Blob, CLASS, INC};
use crate::migrate_mix::{Model, SIZES};
use crate::stats::median;

/// Which workload the inputs are shaped like.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    RpcSteady,
    MigrateMix,
    DurableFailover,
}

/// Named per-layer figures, in report order.
#[derive(Debug, Default)]
pub struct Rows(pub Vec<(String, f64, &'static str)>);

impl Rows {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, ..)| n == name)
            .map_or(0.0, |(_, v, _)| *v)
    }
}

/// Median ns per call of `f`, over batches sized to about 0.2 ms each,
/// for roughly `budget`.
fn time_ns(budget: Duration, mut f: impl FnMut()) -> f64 {
    let probe = Instant::now();
    for _ in 0..10 {
        f();
    }
    let per_call = (probe.elapsed().as_nanos() as f64 / 10.0).max(1.0);
    let per_batch = ((200_000.0 / per_call) as usize).clamp(1, 100_000);
    let mut batches = Vec::new();
    let start = Instant::now();
    while batches.len() < 5 || start.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..per_batch {
            f();
        }
        batches.push(t.elapsed().as_nanos() as f64 / per_batch as f64);
    }
    median(&batches)
}

/// `mage_codec` encode/decode of object state at each size.
pub fn codec(rows: &mut Rows, budget: Duration) {
    let each = budget / (2 * SIZES.len() as u32);
    for size in SIZES {
        let state = Blob::with_payload(size);
        let bytes = mage_codec::to_bytes(&state).expect("state encodes");
        let enc = time_ns(each, || {
            black_box(mage_codec::to_bytes(black_box(&state)).expect("state encodes"));
        });
        let dec = time_ns(each, || {
            black_box(mage_codec::from_bytes::<Blob>(black_box(&bytes)).expect("state decodes"));
        });
        rows.push(format!("codec.encode_ns.{size}"), enc, "ns");
        rows.push(format!("codec.decode_ns.{size}"), dec, "ns");
    }
}

/// Payloads the workload's frames carry: unit call arguments
/// (`rpc_steady`), migrating state at every size (`migrate_mix`), or a
/// 1 KiB checkpoint (`durable_failover`).
fn frame_payloads(shape: Shape) -> Vec<Vec<u8>> {
    match shape {
        Shape::RpcSteady => vec![mage_codec::to_bytes(&()).expect("unit encodes")],
        Shape::MigrateMix => SIZES
            .iter()
            .map(|&s| mage_codec::to_bytes(&Blob::with_payload(s)).expect("state encodes"))
            .collect(),
        Shape::DurableFailover => {
            vec![mage_codec::to_bytes(&Blob::with_payload(1024)).expect("state encodes")]
        }
    }
}

/// `encode_call_req` / `WireMsg::decode` on the workload's frames (ns per
/// frame, averaged over the payload mix).
pub fn wire(rows: &mut Rows, shape: Shape, budget: Duration) {
    let payloads = frame_payloads(shape);
    let (object, method) = (NameId::from_raw(1), NameId::from_raw(2));
    let mut scratch = Vec::new();
    let frames: Vec<Bytes> = payloads
        .iter()
        .map(|p| encode_call_req(&mut scratch, 7, 1, object, None, method, None, p))
        .collect();
    let mut i = 0usize;
    let enc = time_ns(budget / 2, || {
        i = i.wrapping_add(1);
        let p = &payloads[i % payloads.len()];
        black_box(encode_call_req(
            &mut scratch,
            i as u64,
            1,
            object,
            None,
            method,
            None,
            black_box(p),
        ));
    });
    let dec = time_ns(budget / 2, || {
        i = i.wrapping_add(1);
        let frame = &frames[i % frames.len()];
        black_box(WireMsg::decode(black_box(frame)).expect("frame decodes"));
    });
    rows.push("wire.encode_ns", enc, "ns");
    rows.push("wire.decode_ns", dec, "ns");
}

/// Raw RMI round trips (`drive_call`) with the session call's payload —
/// unit arguments, an `i64` result — on the paper's link and cost model.
pub fn rmi(rows: &mut Rows, seed: u64, calls: usize) {
    let mut world = World::with_network(seed, Network::new(LinkSpec::ethernet_10mbps()));
    let client = world.add_node("client", client_endpoint(Config::default()));
    let server = world.add_node(
        "server",
        server_endpoint(
            Config::default(),
            "counter",
            Box::new(|_m: &str, _args: &[u8], _e: &mut ObjectEnv<'_>| {
                mage_rmi::encode_args(&1i64).map_err(|e| Fault::App(e.to_string()))
            }),
        ),
    );
    let args = mage_codec::to_bytes(&()).expect("unit encodes");
    let call = |world: &mut World| {
        drive_call(world, client, server, "counter", "inc", args.clone())
            .expect("world runs")
            .expect("call succeeds");
    };
    for _ in 0..100 {
        call(&mut world);
    }
    let mut wall = Vec::with_capacity(calls);
    let mut virt = Vec::with_capacity(calls);
    let allocs = alloc::count();
    for _ in 0..calls {
        let t = Instant::now();
        let before = world.now();
        call(&mut world);
        virt.push(world.now().since(before).as_millis_f64());
        wall.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    let allocs = alloc::count() - allocs;
    rows.push("rmi.rtt_us", median(&wall), "us");
    rows.push("rmi.rtt_virt_ms", median(&virt), "sim_ms");
    rows.push("rmi.allocs_per_call", allocs as f64 / calls as f64, "count");
}

/// Wall (µs) and virtual (ms) medians of `reps` runs of `op`.
fn time_op(
    rt: &mut Runtime,
    reps: usize,
    mut op: impl FnMut(&mut Runtime, usize) -> Result<(), String>,
) -> Result<(f64, f64), String> {
    let mut wall = Vec::with_capacity(reps);
    let mut virt = Vec::with_capacity(reps);
    for i in 0..reps {
        let t = Instant::now();
        let before: SimTime = rt.now();
        op(rt, i)?;
        virt.push(rt.now().since(before).as_millis_f64());
        wall.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    Ok((median(&wall), median(&virt)))
}

/// Each `Session` operation on a three-namespace runtime with the paper's
/// defaults and an object shaped like the workload's: p50 wall µs and
/// p50 virtual ms per operation.
pub fn session(rows: &mut Rows, shape: Shape, seed: u64, reps: usize) -> Result<(), String> {
    let (size, durability) = match shape {
        Shape::RpcSteady => (0, Durability::Volatile),
        Shape::MigrateMix => (1024, Durability::Volatile),
        Shape::DurableFailover => (1024, Durability::Replicated { backups: 1 }),
    };
    let mut rt = Runtime::builder()
        .seed(seed)
        .nodes(["m0", "m1", "m2"])
        .class(blob::class())
        .build();
    for node in ["m0", "m1", "m2"] {
        rt.deploy_class(CLASS, node).map_err(|e| e.to_string())?;
    }
    let s: Vec<_> = ["m0", "m1", "m2"]
        .iter()
        .map(|n| rt.session(n))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let spec = |name: &str| {
        let spec = ObjectSpec::new(name)
            .class(CLASS)
            .state(&Blob::with_payload(size))
            .durability(durability);
        if durability.is_replicated() {
            spec.backup("m2")
        } else {
            spec
        }
    };
    let e = |e: mage_core::MageError| e.to_string();
    s[1].create(spec("c")).map_err(e)?;
    for model in Model::ALL {
        s[1].create(spec(model.name())).map_err(e)?;
    }

    let stub = s[0].bind(&Rpc::new(CLASS, "c", "m1")).map_err(e)?;
    let (w, v) = time_op(&mut rt, reps, |_, _| {
        s[0].call(&stub, INC, &()).map(drop).map_err(e)
    })?;
    rows.push("session.call_p50_us", w, "us");
    rows.push("session.call_virt_p50_ms", v, "sim_ms");
    let mut handle = ObjectHandle::new(stub.clone(), durability, true);
    let (w, v) = time_op(&mut rt, reps, |_, _| {
        s[0].call_handle(&mut handle, INC, &()).map(drop).map_err(e)
    })?;
    rows.push("session.call_handle_p50_us", w, "us");
    rows.push("session.call_handle_virt_p50_ms", v, "sim_ms");
    let (mut lw, mut lv, mut uw, mut uv) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..reps {
        let (w, v) = time_op(&mut rt, 1, |_, _| s[0].lock("c", "m1").map(drop).map_err(e))?;
        lw.push(w);
        lv.push(v);
        let (w, v) = time_op(&mut rt, 1, |_, _| s[0].unlock("c").map_err(e))?;
        uw.push(w);
        uv.push(v);
    }
    rows.push("session.lock_p50_us", median(&lw), "us");
    rows.push("session.lock_virt_p50_ms", median(&lv), "sim_ms");
    rows.push("session.unlock_p50_us", median(&uw), "us");
    rows.push("session.unlock_virt_p50_ms", median(&uv), "sim_ms");

    // Moving models alternate their destination so every bind moves.
    let away = |i: usize| if i.is_multiple_of(2) { "m2" } else { "m1" };
    for model in Model::ALL {
        let name = model.name();
        let (w, v) = time_op(&mut rt, reps, |rt, i| {
            let (client, attr): (usize, Box<dyn MobilityAttribute>) = match model {
                Model::Lpc => (1, Box::new(Lpc::new(CLASS, name))),
                Model::Rpc => (0, Box::new(Rpc::new(CLASS, name, "m1"))),
                Model::Cle => (0, Box::new(Cle::new(CLASS, name))),
                Model::Cod => (2 * (i % 2), Box::new(Cod::new(CLASS, name))),
                Model::Rev => (0, Box::new(Rev::new(CLASS, name, away(i)))),
                Model::Grev => (0, Box::new(Grev::new(CLASS, name, away(i)))),
                Model::Ma => (0, Box::new(MobileAgent::new(CLASS, name, away(i)))),
            };
            let out = s[client].bind_invoke(attr.as_ref(), INC, &()).map(drop);
            if model == Model::Ma {
                // Deliver the one-way invocation before the next bind.
                rt.run_until_idle().map_err(e)?;
            }
            out.map_err(e)
        })?;
        rows.push(format!("session.bind_invoke.{name}_p50_us"), w, "us");
        rows.push(
            format!("session.bind_invoke.{name}_virt_p50_ms"),
            v,
            "sim_ms",
        );
    }
    Ok(())
}
